//! Property tests for the classroom broadcast hub's equivalence guarantee:
//! for ANY scenario and subscriber count, publishing the stream once
//! through a [`BroadcastHub`] delivers every subscriber — including one
//! joining at an arbitrary offset mid-broadcast — a window suffix that is
//! cell-for-cell identical to a serial `Pipeline::run` of the same seeded
//! scenario.

use proptest::prelude::*;
use std::sync::Arc;
use tw_game::{BroadcastConfig, BroadcastHub, HubSubscription, StartOffset};
use tw_ingest::{Pipeline, PipelineConfig, Scenario, WindowReport};

type Hub = BroadcastHub<Arc<WindowReport>>;
type Sub = HubSubscription<Arc<WindowReport>>;

/// Pull one window from `stream` and publish it; false once exhausted.
fn step(hub: &Hub, stream: &mut Pipeline) -> bool {
    match stream.next_window() {
        Some(report) => {
            hub.publish_window(report.stats.window_index, Arc::new(report));
            true
        }
        None => false,
    }
}

fn pipeline(scenario: Scenario, nodes: u32, seed: u64) -> Pipeline {
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 2_048,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    Pipeline::new(scenario.source(nodes, seed), config)
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0usize..Scenario::all().len()).prop_map(|i| Scenario::all()[i])
}

/// The received suffix must equal the serial reference from `start` on,
/// cell-for-cell (`elapsed` is wall-clock and excluded; everything else in
/// the stats is deterministic per seed).
fn assert_suffix(
    reference: &[WindowReport],
    subscription: &Sub,
    start: usize,
) -> Result<(), TestCaseError> {
    let received = subscription.drain();
    let expected = &reference[start.min(reference.len())..];
    prop_assert_eq!(
        received.len(),
        expected.len(),
        "subscriber from window {} got the wrong window count",
        start
    );
    for (reference, received) in expected.iter().zip(&received) {
        prop_assert_eq!(&reference.matrix, &received.matrix);
        prop_assert_eq!(reference.stats.window_index, received.stats.window_index);
        prop_assert_eq!(reference.stats.events, received.stats.events);
        prop_assert_eq!(reference.stats.packets, received.stats.packets);
        prop_assert_eq!(reference.stats.nnz, received.stats.nnz);
        prop_assert_eq!(reference.stats.dropped_late, received.stats.dropped_late);
    }
    prop_assert!(
        subscription.recv().is_none(),
        "the subscription must be closed once drained"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N >= 8 on-time subscribers plus one late joiner at a random offset
    /// all observe the serial stream (the late joiner: its suffix), for
    /// arbitrary scenario and subscriber counts.
    #[test]
    fn every_subscriber_observes_the_serial_stream(
        scenario in arb_scenario(),
        nodes in 40u32..140,
        seed in any::<u64>(),
        windows in 2usize..6,
        subscribers in 8usize..13,
        late_join in 0usize..6,
    ) {
        // Serial reference: one pull-based run, no broadcast involved.
        let reference = pipeline(scenario, nodes, seed).run(windows);
        prop_assert_eq!(reference.len(), windows, "scenario sources are unbounded");

        // Broadcast run over an identically-seeded pipeline. Capacities are
        // sized so nothing can drop: equivalence, not lag, is under test.
        let mut caster = Hub::new(BroadcastConfig {
            channel_capacity: windows.max(1),
            ring_capacity: windows.max(1),
        });
        let on_time: Vec<Sub> = (0..subscribers)
            .map(|_| caster.subscribe(StartOffset::Origin))
            .collect();

        // Broadcast the first `late_at` windows, then join late mid-stream.
        let late_at = late_join.min(windows);
        let mut stream = pipeline(scenario, nodes, seed);
        for _ in 0..late_at {
            prop_assert!(step(&caster, &mut stream));
        }
        let late = caster.subscribe(StartOffset::Window(late_at as u64));
        while caster.handle().windows_broadcast() < windows as u64 {
            prop_assert!(step(&caster, &mut stream));
        }
        let summary = caster.close();
        prop_assert_eq!(summary.windows, windows as u64);
        prop_assert_eq!(summary.subscribers, subscribers + 1);

        for subscription in &on_time {
            assert_suffix(&reference, subscription, 0)?;
            prop_assert_eq!(subscription.delivered(), windows as u64);
            prop_assert_eq!(subscription.dropped(), 0);
            prop_assert_eq!(subscription.missed(), 0);
        }
        // The late joiner caught up from the ring: the identical suffix.
        assert_suffix(&reference, &late, late_at)?;
        prop_assert_eq!(late.missed(), 0, "the ring held every broadcast window");
    }

    /// With a ring smaller than the head start, the late joiner still gets a
    /// contiguous, cell-identical suffix — and the head windows it can no
    /// longer receive are accounted as missed, never silently skipped.
    #[test]
    fn small_rings_account_for_missed_windows(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        windows in 3usize..6,
        ring in 1usize..3,
    ) {
        let reference = pipeline(scenario, nodes, seed).run(windows);
        let mut caster = Hub::new(BroadcastConfig {
            channel_capacity: windows,
            ring_capacity: ring,
        });
        let mut stream = pipeline(scenario, nodes, seed);
        // Broadcast everything, then join asking for the origin.
        for _ in 0..windows {
            prop_assert!(step(&caster, &mut stream));
        }
        let sub = caster.subscribe(StartOffset::Origin);
        caster.close();
        let ring_start = windows - ring.min(windows);
        assert_suffix(&reference, &sub, ring_start)?;
        prop_assert_eq!(sub.missed(), ring_start as u64);
    }
}
