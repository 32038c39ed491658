//! Property tests for window-rotation memory recycling: a pipeline that
//! recycles its rotation scratch (and gets window matrices handed back via
//! `recycle_window`) must be bit-identical — every matrix, every stat except
//! wall-clock `elapsed` — to a pipeline that allocates everything fresh. The
//! streams cover out-of-order arrivals and multi-window gaps (empty windows
//! between bursts), so any state leaking from one window into the next fails
//! the comparison.

use proptest::prelude::*;
use tw_ingest::{collect_events, EventSource, IngestStats, Pipeline, PipelineConfig, Scenario};
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

const NODES: u32 = 64;

/// Every deterministic field of [`IngestStats`] — `elapsed` is wall-clock
/// time and legitimately differs between the two runs.
fn stats_key(stats: &IngestStats) -> (u64, u64, u64, usize, u64, u64) {
    (
        stats.window_index,
        stats.events,
        stats.packets,
        stats.nnz,
        stats.dropped_late,
        stats.reordered,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recycled_pipeline_equals_fresh_allocation_pipeline(
        scenario in arb_scenario(),
        seed in 0u64..1_000,
        skew_us in 0u64..15_000,
        // Stretching timestamps opens multi-window gaps, so empty windows
        // (scratch reused with nothing to coalesce) are part of the space.
        stretch in 1u64..=20,
        window_us in (0usize..3).prop_map(|i| [10_000u64, 25_000, 100_000][i]),
    ) {
        let (mut source, bound) = scenario.skewed_source(NODES, seed, skew_us);
        let mut events = collect_events(source.as_mut(), 1_200);
        for event in &mut events {
            event.timestamp_us *= stretch;
        }
        let base = PipelineConfig {
            window_us,
            batch_size: 512,
            reorder_horizon_us: bound * stretch,
            ..Default::default()
        };
        let fresh_config = PipelineConfig {
            recycle_scratch: false,
            ..base.clone()
        };
        let mut recycled =
            Pipeline::new(Box::new(ReplayEvents::new(NODES, events.clone())), base);
        let mut fresh = Pipeline::new(Box::new(ReplayEvents::new(NODES, events)), fresh_config);

        let mut windows = 0u64;
        loop {
            match (recycled.next_window(), fresh.next_window()) {
                (Some(reused), Some(reference)) => {
                    prop_assert_eq!(
                        &reused.matrix,
                        &reference.matrix,
                        "window {}",
                        reference.stats.window_index
                    );
                    prop_assert_eq!(stats_key(&reused.stats), stats_key(&reference.stats));
                    windows += 1;
                    // Hand the matrix storage back: the recycled path must
                    // stay identical while actually reusing the arrays.
                    recycled.recycle_window(reused.matrix);
                }
                (None, None) => break,
                (reused, reference) => {
                    return Err(TestCaseError::fail(format!(
                        "window streams diverged: recycled={} fresh={}",
                        reused.is_some(),
                        reference.is_some()
                    )));
                }
            }
        }
        prop_assert!(windows >= 1, "the stream must produce at least one window");
    }
}
