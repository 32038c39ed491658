//! Cross-tier conservation for the metrics export: for ANY scenario served
//! over real TCP with instrumentation on, the server's final
//! [`MetricsSnapshot`] must balance its own books — every window the main
//! loop encoded is, for every peer that stayed to the end, either delivered,
//! dropped, or missed, and the per-peer counters in the snapshot agree
//! exactly with the [`BroadcastSummary`] the hub reports. The same snapshot
//! also travels the wire as `Stats` frames, so the last one a client drains
//! is checked against the server-side copy.
//!
//! [`BroadcastSummary`]: tw_serve::BroadcastSummary

use proptest::prelude::*;
use tw_ingest::{collect_stream, Pipeline, PipelineConfig, Scenario};
use tw_metrics::{MetricsRegistry, MetricsSnapshot};
use tw_serve::{loopback_listener, serve, ClientStream, ServeConfig};

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

/// Check the conservation law inside one snapshot: for every peer id in
/// `peers`, `serve.windows_encoded == delivered + dropped + missed`.
fn assert_conserves(
    snapshot: &MetricsSnapshot,
    peers: impl Iterator<Item = usize>,
) -> Result<(), TestCaseError> {
    let encoded = snapshot.counter("serve.windows_encoded");
    for id in peers {
        let peer = |what: &str| snapshot.counter(&format!("serve.peer.{id}.{what}"));
        prop_assert_eq!(
            peer("delivered") + peer("dropped") + peer("missed"),
            encoded,
            "peer {} does not conserve the {} encoded windows",
            id,
            encoded
        );
    }
    Ok(())
}

proptest! {
    // Real sockets per case; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole's cross-tier acceptance property, end to end: pipeline
    /// metrics, hub metrics, and serve metrics all land in one registry;
    /// the final snapshot conserves windows per peer; the snapshot matches
    /// the hub's own `BroadcastSummary`; and the last snapshot streamed to
    /// a client over TCP is the same final state.
    #[test]
    fn served_snapshots_conserve_windows_per_peer(
        scenario in arb_scenario(),
        nodes in 40u32..100,
        seed in any::<u64>(),
        windows in 2usize..5,
        clients in 1usize..4,
        stats_every in 1u64..3,
    ) {
        let listener = loopback_listener().unwrap();
        let addr = listener.local_addr().unwrap();
        let registry = MetricsRegistry::new();
        let config = ServeConfig {
            scenario: format!("{scenario:?}"),
            seed,
            channel_capacity: windows + 1,
            ring_capacity: windows + 1,
            wait_for: clients,
            max_windows: windows,
            metrics: Some(registry.clone()),
            stats_every,
            ..ServeConfig::default()
        };

        let (summary, client_stats) = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = ClientStream::connect(addr).unwrap();
                        collect_stream(&mut client, usize::MAX).unwrap();
                        let stats = client.take_stats();
                        (client.windows_seen(), stats)
                    })
                })
                .collect();
            let mut stream = pipeline(scenario, nodes, seed).with_metrics(&registry);
            let summary = serve(listener, &mut stream, &config, None).unwrap();
            let client_stats: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            (summary, client_stats)
        });

        let snapshot = summary.snapshot.as_ref().expect("metrics were enabled");

        // The server's own books balance, for every peer on the roster.
        prop_assert_eq!(
            snapshot.counter("serve.windows_encoded"),
            windows as u64,
            "main loop encodes exactly the window cap"
        );
        assert_conserves(snapshot, summary.broadcast.reports.iter().map(|r| r.id))?;

        // The snapshot's per-peer counters are verbatim copies of the hub's
        // final roster reports, and the roster totals agree with the hub
        // tier's own counters in the same snapshot.
        let totals = summary.broadcast.totals();
        for report in &summary.broadcast.reports {
            let peer = |what: &str| snapshot.counter(&format!("serve.peer.{}.{what}", report.id));
            prop_assert_eq!(peer("delivered"), report.delivered);
            prop_assert_eq!(peer("dropped"), report.dropped);
            prop_assert_eq!(peer("missed"), report.missed);
        }
        prop_assert_eq!(snapshot.counter("broadcast.delivered"), totals.delivered);
        prop_assert_eq!(snapshot.counter("broadcast.dropped"), totals.dropped);
        prop_assert_eq!(snapshot.counter("broadcast.missed"), totals.missed);
        prop_assert_eq!(snapshot.counter("broadcast.windows"), windows as u64);

        // The pipeline tier recorded into the same registry: window counts
        // line up across all three tiers.
        prop_assert_eq!(snapshot.counter("pipeline.windows"), windows as u64);

        // The rotation-scratch conservation law: the first merge builds the
        // scratch cold, every later window reuses it — exactly windows − 1
        // warm rotations, never more, never fewer.
        prop_assert_eq!(
            snapshot.counter("pipeline.scratch_reuse_hits"),
            windows as u64 - 1,
            "every rotation after the first must reuse the warm scratch"
        );

        // Every client drained at least one wire snapshot (stats_every <=
        // windows delivered, plus the final frame), and the LAST one it saw
        // conserves and already carries the final encode count — the final
        // stats frame is written after the hub disconnected the writer, by
        // which time the main loop published everything.
        for (seen, stats) in &client_stats {
            prop_assert!(!stats.is_empty(), "stats cadence {} sent no frames", stats_every);
            let last = stats.last().unwrap();
            prop_assert_eq!(last.counter("serve.windows_encoded"), windows as u64);
            prop_assert_eq!(*seen, windows as u64, "nothing can drop at these capacities");
            for earlier in stats {
                prop_assert!(
                    earlier.counter("serve.windows_encoded") <= windows as u64,
                    "wire snapshots never overcount"
                );
            }
        }
    }
}
