//! Property tests for watermarked out-of-order ingestion: for ANY scenario,
//! batch size and skew, a pipeline over the skewed (out-of-order) stream
//! with a sufficient reordering horizon is cell-for-cell identical to a
//! pipeline over the sorted stream — and loses nothing. With an insufficient
//! horizon, every event is still accounted for (`events + dropped_late`
//! conserved) and the drop count matches the watermark definition exactly.

use proptest::prelude::*;
use tw_ingest::{collect_events, EventSource, Pipeline, PipelineConfig, Scenario};
use tw_matrix::stream::PacketEvent;

/// Replay a pre-collected event list in arrival order, honoring `max`.
struct ReplayEvents {
    node_count: u32,
    events: Vec<PacketEvent>,
    cursor: usize,
}

impl ReplayEvents {
    fn new(node_count: u32, events: Vec<PacketEvent>) -> Self {
        ReplayEvents {
            node_count,
            events,
            cursor: 0,
        }
    }
}

impl EventSource for ReplayEvents {
    fn node_count(&self) -> u32 {
        self.node_count
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let take = max.min(self.events.len() - self.cursor);
        out.extend_from_slice(&self.events[self.cursor..self.cursor + take]);
        self.cursor += take;
        take
    }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0usize..Scenario::all().len()).prop_map(|i| Scenario::all()[i])
}

const NODES: u32 = 96;

/// A skewed (out-of-order) arrival stream plus the adapter's disorder bound.
fn skewed_stream(
    scenario: Scenario,
    seed: u64,
    skew_us: u64,
    count: usize,
) -> (Vec<PacketEvent>, u64) {
    let (mut source, bound) = scenario.skewed_source(NODES, seed, skew_us);
    (collect_events(source.as_mut(), count), bound)
}

fn run_pipeline(
    events: Vec<PacketEvent>,
    window_us: u64,
    batch_size: usize,
    reorder_horizon_us: u64,
) -> Vec<tw_ingest::WindowReport> {
    let config = PipelineConfig {
        window_us,
        batch_size,
        reorder_horizon_us,
        ..Default::default()
    };
    let mut pipeline = Pipeline::new(Box::new(ReplayEvents::new(NODES, events)), config);
    pipeline.run(usize::MAX)
}

/// The watermark reference fold: how many events of `events` (in arrival
/// order) are older than `max_ts_seen − horizon` when they arrive.
fn reference_counts(events: &[PacketEvent], horizon_us: u64) -> (u64, u64) {
    let mut max_seen: Option<u64> = None;
    let (mut late, mut reordered) = (0u64, 0u64);
    for e in events {
        match max_seen {
            None => max_seen = Some(e.timestamp_us),
            Some(max) if e.timestamp_us < max.saturating_sub(horizon_us) => late += 1,
            Some(max) => {
                if e.timestamp_us < max {
                    reordered += 1;
                } else {
                    max_seen = Some(e.timestamp_us);
                }
            }
        }
    }
    (late, reordered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: disorder ≤ horizon ⇒ zero drops, and the
    /// windows are cell-for-cell identical (matrices AND per-window stats)
    /// to a pipeline over the pre-sorted stream.
    #[test]
    fn skewed_pipeline_equals_sorted_pipeline(
        scenario in arb_scenario(),
        seed in 0u64..1_000,
        skew_us in 0u64..20_000,
        extra_horizon in 0u64..5_000,
        batch_size in (0usize..4).prop_map(|i| [1usize, 7, 256, 8_192][i]),
        window_us in (0usize..3).prop_map(|i| [10_000u64, 50_000, 100_000][i]),
    ) {
        let (skewed, bound) = skewed_stream(scenario, seed, skew_us, 2_000);
        let mut sorted = skewed.clone();
        sorted.sort_by_key(|e| e.timestamp_us);

        let horizon = bound + extra_horizon;
        let out_of_order = run_pipeline(skewed.clone(), window_us, batch_size, horizon);
        // The reference runs strict (horizon 0) over sorted input — the
        // pre-watermark behavior the reordering stage must reproduce.
        let reference = run_pipeline(sorted, window_us, batch_size, 0);

        prop_assert_eq!(out_of_order.len(), reference.len());
        for (got, want) in out_of_order.iter().zip(&reference) {
            prop_assert_eq!(&got.matrix, &want.matrix, "window {}", want.stats.window_index);
            prop_assert_eq!(got.stats.window_index, want.stats.window_index);
            prop_assert_eq!(got.stats.events, want.stats.events);
            prop_assert_eq!(got.stats.packets, want.stats.packets);
            prop_assert_eq!(got.stats.nnz, want.stats.nnz);
            prop_assert_eq!(got.stats.dropped_late, 0u64, "disorder ≤ horizon loses nothing");
            prop_assert_eq!(want.stats.dropped_late, 0u64, "sorted input never drops");
        }
        // The reordered counter reports exactly the out-of-order arrivals.
        let (_, expected_reordered) = reference_counts(&skewed, horizon);
        let reordered: u64 = out_of_order.iter().map(|r| r.stats.reordered).sum();
        prop_assert_eq!(reordered, expected_reordered);
    }

    /// Whatever the horizon — too small included — every event is either
    /// ingested into a window or counted as a late drop.
    #[test]
    fn events_plus_drops_are_conserved_for_any_horizon(
        scenario in arb_scenario(),
        seed in 0u64..1_000,
        skew_us in 0u64..50_000,
        horizon_us in 0u64..10_000,
    ) {
        let (skewed, _) = skewed_stream(scenario, seed, skew_us, 1_500);
        let total = skewed.len() as u64;
        let reports = run_pipeline(skewed, 20_000, 512, horizon_us);
        let ingested: u64 = reports.iter().map(|r| r.stats.events).sum();
        let dropped: u64 = reports.iter().map(|r| r.stats.dropped_late).sum();
        prop_assert_eq!(ingested + dropped, total, "no event may vanish unaccounted");
        // And the ingested mass is really in the matrices.
        let cells: u64 = reports.iter().map(|r| r.stats.nnz as u64).sum();
        prop_assert!(cells <= ingested, "coalescing can only shrink the cell count");
    }

    /// With a deliberately undersized horizon the pipeline drops exactly the
    /// events the watermark definition says it must: those older than
    /// `max timestamp seen − horizon` on arrival.
    #[test]
    fn undersized_horizons_drop_exactly_the_watermark_count(
        scenario in arb_scenario(),
        seed in 0u64..1_000,
        skew_us in 5_000u64..50_000,
        horizon_divisor in 2u64..10,
    ) {
        let (skewed, bound) = skewed_stream(scenario, seed, skew_us, 1_500);
        // skew ≥ 5000 makes bound ≥ 6250 and divisor ≤ 9, so the undersized
        // horizon is always positive (the reorder path, not strict mode).
        let horizon = bound / horizon_divisor;
        assert!(horizon > 0);
        let (expected_late, expected_reordered) = reference_counts(&skewed, horizon);
        let reports = run_pipeline(skewed, 25_000, 1_024, horizon);
        let dropped: u64 = reports.iter().map(|r| r.stats.dropped_late).sum();
        let reordered: u64 = reports.iter().map(|r| r.stats.reordered).sum();
        prop_assert_eq!(dropped, expected_late, "drops must match the watermark definition");
        prop_assert_eq!(reordered, expected_reordered);
    }
}
