//! Property tests for the fan-out hub's equivalence guarantee: for ANY
//! scenario, key-frame cadence and subscriber count, publishing a stream's
//! frames once through a [`BroadcastHub`] delivers every subscriber —
//! including one joining mid-broadcast — frames that decode, from the first
//! one on, into a contiguous window suffix cell-for-cell identical to a
//! serial `Pipeline::run` of the same seeded scenario, and whose books
//! balance: what the suffix leaves out is counted as missed.

use proptest::prelude::*;
use std::sync::Arc;
use tw_ingest::frame::{read_raw_frame, window_frame};
use tw_ingest::{
    decode_window_into, DecodeScratch, Pipeline, PipelineConfig, Scenario, WindowReport,
};
use tw_serve::{BroadcastConfig, BroadcastHub, HubSubscription};

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

/// A key-frame cadence for a ring of `ring` frames: 0 (every frame full)
/// or 1..=ring, the range `serve` clamps its cadence to.
fn arb_cadence(ring: usize) -> impl Strategy<Value = u64> {
    0u64..=ring as u64
}

/// The serial stream framed as `serve` frames it: every `cadence`-th window
/// in full (all of them at cadence 0), the rest as deltas against the
/// previous window. Returns each frame with its key-frame flag.
fn frames(reference: &[WindowReport], cadence: u64) -> Vec<(Arc<[u8]>, bool)> {
    let mut prev: Option<&WindowReport> = None;
    let mut out = Vec::new();
    for (i, report) in reference.iter().enumerate() {
        let key = cadence == 0 || (i as u64).is_multiple_of(cadence);
        let frame = window_frame(report, prev.filter(|_| !key));
        assert_eq!(frame.delta, !key);
        out.push((frame.bytes, key));
        prev = Some(report);
    }
    out
}

/// Drain `sub`, decode its frames through one scratch from the first frame
/// on, and check them against the serial reference: a contiguous suffix,
/// cell-for-cell, starting at the window the books say it starts at.
fn assert_suffix(reference: &[WindowReport], sub: &HubSubscription) -> Result<(), TestCaseError> {
    let mut scratch = DecodeScratch::new();
    let mut first = None;
    let mut payload = Vec::new();
    for (n, frame) in sub.drain().iter().enumerate() {
        read_raw_frame(&mut &frame[..], &mut payload).expect("the hub hands out whole frames");
        let got = decode_window_into(&payload, &mut scratch);
        prop_assert!(got.is_ok(), "frame {} did not decode: {:?}", n, got.err());
        let got = got.unwrap();
        let start = *first.get_or_insert(got.stats.window_index as usize);
        let want = &reference[start + n];
        prop_assert_eq!(got.stats.window_index, want.stats.window_index);
        prop_assert_eq!(&got.matrix, &want.matrix);
        prop_assert_eq!(got.stats.events, want.stats.events);
        prop_assert_eq!(got.stats.packets, want.stats.packets);
        prop_assert_eq!(got.stats.nnz, want.stats.nnz);
        prop_assert_eq!(got.stats.dropped_late, want.stats.dropped_late);
    }
    // The suffix runs to the end, and what it leaves out is missed.
    let start = first.unwrap_or(reference.len());
    prop_assert_eq!(sub.delivered() as usize, reference.len() - start);
    prop_assert_eq!(sub.missed(), start as u64);
    prop_assert!(
        sub.recv().is_none(),
        "the subscription must be closed once drained"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N >= 8 on-time subscribers plus one late joiner after j published
    /// windows all observe the serial stream from their first frame on,
    /// for arbitrary scenario, cadence and subscriber counts. The ring holds
    /// the whole stream, so everyone starts at window 0.
    #[test]
    fn every_subscriber_observes_the_serial_stream(
        scenario in arb_scenario(),
        nodes in 40u32..140,
        seed in any::<u64>(),
        stream in (2usize..6).prop_flat_map(|w| (Just(w), arb_cadence(w))),
        subscribers in 8usize..13,
        late_join in 0usize..6,
    ) {
        let (windows, cadence) = stream;
        let reference = pipeline(scenario, nodes, seed).run(windows);
        prop_assert_eq!(reference.len(), windows, "scenario sources are unbounded");

        // Capacities are sized so nothing can drop: equivalence, not lag,
        // is under test.
        let mut caster = BroadcastHub::new(
            BroadcastConfig { channel_capacity: windows, ring_capacity: windows },
            None,
            None,
        );
        let on_time: Vec<HubSubscription> = (0..subscribers).map(|_| caster.subscribe()).collect();
        let late_at = late_join.min(windows);
        let mut late = None;
        for (i, (frame, key)) in frames(&reference, cadence).into_iter().enumerate() {
            if i == late_at {
                late = Some(caster.subscribe());
            }
            caster.publish_window(i as u64, frame, key);
        }
        let late = late.unwrap_or_else(|| caster.subscribe());
        let summary = caster.close();
        prop_assert_eq!(summary.windows, windows as u64);
        prop_assert_eq!(summary.subscribers, subscribers + 1);
        prop_assert_eq!(summary.conservation_error(), None);

        for sub in on_time.iter().chain([&late]) {
            assert_suffix(&reference, sub)?;
            prop_assert_eq!(sub.dropped(), 0);
            prop_assert_eq!(sub.missed(), 0, "the ring held every window");
        }
        prop_assert_eq!(summary.reports[subscribers].joined_at, late_at as u64);
    }

    /// With a ring of R frames and a key frame every K <= R windows, a
    /// subscriber joining after j windows gets a contiguous, decodable,
    /// cell-identical suffix from the ring's first key frame — and the
    /// windows before it are accounted as missed, never silently skipped.
    #[test]
    fn small_rings_account_for_missed_windows(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        windows in 3usize..7,
        ring_cadence in (1usize..4).prop_flat_map(|r| (Just(r), arb_cadence(r))),
        join in 0usize..8,
    ) {
        let (ring, cadence) = ring_cadence;
        let reference = pipeline(scenario, nodes, seed).run(windows);
        let mut caster = BroadcastHub::new(
            BroadcastConfig { channel_capacity: windows, ring_capacity: ring },
            None,
            None,
        );
        let on_time = caster.subscribe();
        let join = join.min(windows);
        let mut sub = None;
        for (i, (frame, key)) in frames(&reference, cadence).into_iter().enumerate() {
            if i == join {
                sub = Some(caster.subscribe());
            }
            caster.publish_window(i as u64, frame, key);
        }
        let sub = sub.unwrap_or_else(|| caster.subscribe());
        let summary = caster.close();
        prop_assert_eq!(summary.conservation_error(), None);
        assert_suffix(&reference, &on_time)?;
        prop_assert_eq!(on_time.missed(), 0);
        assert_suffix(&reference, &sub)?;
        // The joiner starts at the first key frame the ring held.
        let ring_start = join.saturating_sub(ring);
        let expected = (ring_start..join)
            .find(|&i| cadence == 0 || (i as u64).is_multiple_of(cadence))
            .unwrap_or(join);
        prop_assert_eq!(sub.missed(), expected as u64);
    }
}
