//! Live ingest windows on the warehouse floor.
//!
//! The paper teaches with small, legible matrices; the ingest pipeline
//! produces hypersparse thousand-node windows. This module bridges the two:
//! each [`WindowReport`] is coarsened onto the display dimension (block sums
//! over contiguous address ranges, rescaled under the paper's 15-packet
//! display guidance) and the warehouse scene is rebuilt — re-palleted — so a
//! class can watch a scenario unfold window by window.

use crate::broadcast::Subscription;
use crate::warehouse::WarehouseScene;
use tw_ingest::{IngestStats, StreamError, WindowReport, WindowStream};
use tw_matrix::{CsrMatrix, LabelSet, TrafficMatrix};
use tw_module::ModuleBuilder;

/// The paper's display guidance: "fewer than 15 packets between any source
/// and destination displays well".
const DISPLAY_PACKET_LIMIT: u64 = 14;

/// Coarsen a window matrix onto `dimension` display nodes.
///
/// Address `a` of an `n`-node window maps to display block `a·dimension/n`;
/// block sums are then rescaled so the hottest cell shows
/// [`DISPLAY_PACKET_LIMIT`] packets (non-zero cells never round down to
/// zero, so a single scan probe still lights its pallet).
pub fn coarsen_window(matrix: &CsrMatrix<u64>, dimension: usize) -> TrafficMatrix {
    assert!(dimension >= 1, "display dimension must be positive");
    let n = matrix.rows().max(1);
    // Block sums and the rescale run in u128: a block can absorb up to n²
    // u64 cells, and the rescale multiplies by DISPLAY_PACKET_LIMIT — both
    // overflow u64 for packet counts as low as u64::MAX / 14.
    let mut grid = vec![vec![0u128; dimension]; dimension];
    for (r, c, v) in matrix.iter() {
        let br = (r * dimension / n).min(dimension - 1);
        let bc = (c * dimension / n).min(dimension - 1);
        grid[br][bc] += u128::from(v);
    }
    let max = grid.iter().flatten().copied().max().unwrap_or(0);
    let scaled: Vec<Vec<u32>> = grid
        .iter()
        .map(|row| {
            row.iter()
                .map(|&v| {
                    if v == 0 {
                        0
                    } else if max <= u128::from(DISPLAY_PACKET_LIMIT) {
                        v as u32
                    } else {
                        ((v * u128::from(DISPLAY_PACKET_LIMIT)) / max).max(1) as u32
                    }
                })
                .collect()
        })
        .collect();
    let labels = if dimension == 10 {
        LabelSet::paper_default_10()
    } else {
        LabelSet::numeric(dimension)
    };
    // tw-analyze: allow(no-panic-in-lib, "scaled is built above as dimension x dimension, so from_grid cannot reject it")
    TrafficMatrix::from_grid(labels, &scaled).expect("coarsened grid is square")
}

/// A warehouse scene that re-pallets itself on every ingest window.
#[derive(Debug)]
pub struct LiveWarehouse {
    dimension: usize,
    scene: Option<WarehouseScene>,
    windows_seen: u64,
    last_stats: Option<IngestStats>,
}

impl LiveWarehouse {
    /// A live view with `dimension`×`dimension` display pallets (10 matches
    /// the paper's blue/grey/red labelling).
    pub fn new(dimension: usize) -> Self {
        assert!(dimension >= 1, "display dimension must be positive");
        LiveWarehouse {
            dimension,
            scene: None,
            windows_seen: 0,
            last_stats: None,
        }
    }

    /// The display dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Windows received so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Statistics of the most recent window.
    pub fn last_stats(&self) -> Option<&IngestStats> {
        self.last_stats.as_ref()
    }

    /// The current warehouse scene (absent until the first window arrives).
    pub fn scene(&self) -> Option<&WarehouseScene> {
        self.scene.as_ref()
    }

    /// Apply one window: coarsen the matrix and rebuild the scene.
    pub fn on_window(&mut self, report: &WindowReport) {
        let display = coarsen_window(&report.matrix, self.dimension);
        let name = format!("live window {}", report.stats.window_index);
        let labels = display.labels().labels().to_vec();
        let module = ModuleBuilder::new(&name, "tw-ingest")
            .labels(labels)
            // tw-analyze: allow(no-panic-in-lib, "labels come from LabelSet constructors that already validated them")
            .expect("display labels are valid")
            .matrix(display)
            // tw-analyze: allow(no-panic-in-lib, "the matrix was built from these exact labels two lines up")
            .expect("labels were just taken from the matrix")
            .build();
        self.scene = Some(WarehouseScene::build(&module));
        self.windows_seen += 1;
        self.last_stats = Some(report.stats.clone());
    }

    /// Drive any [`WindowStream`] (a live `Pipeline`, a replay, a paced
    /// replay) for up to `max_windows`, re-palleting per window; returns the
    /// stats of every window received.
    pub fn follow<S: WindowStream + ?Sized>(
        &mut self,
        stream: &mut S,
        max_windows: usize,
    ) -> Result<Vec<IngestStats>, StreamError> {
        let mut stats = Vec::new();
        while stats.len() < max_windows {
            let Some(report) = stream.next_window()? else {
                break;
            };
            self.on_window(&report);
            stats.push(report.stats);
        }
        Ok(stats)
    }

    /// Consume a broadcast [`Subscription`] until the broadcast closes (or
    /// `max_windows` arrive), re-palleting per window; returns the stats of
    /// every window received. Blocks between windows like a student's screen
    /// would.
    pub fn follow_subscription(
        &mut self,
        subscription: &Subscription,
        max_windows: usize,
    ) -> Vec<IngestStats> {
        let mut stats = Vec::new();
        while stats.len() < max_windows {
            let Some(report) = subscription.recv() else {
                break;
            };
            self.on_window(&report);
            stats.push(report.stats.clone());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::GameSession;
    use crate::telemetry::TelemetryEvent;
    use tw_ingest::{Pipeline, PipelineConfig, Scenario};
    use tw_module::ModuleBundle;

    fn ddos_pipeline() -> Pipeline {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(500, 5), config)
    }

    #[test]
    fn coarsening_preserves_structure_and_display_limit() {
        let mut pipeline = ddos_pipeline();
        let report = pipeline.next_window().unwrap();
        let display = coarsen_window(&report.matrix, 10);
        assert_eq!(display.dimension(), 10);
        assert!(display.max_value() <= DISPLAY_PACKET_LIMIT as u32);
        assert!(display.total_packets() > 0);
        // The scaled Fig. 9 victim block (addresses 150..200 of 500) lands in
        // display column 3, which the flood makes the hottest column.
        let col_sums: Vec<u64> = (0..10)
            .map(|c| (0..10).map(|r| u64::from(display.get(r, c).unwrap())).sum())
            .collect();
        let hottest = col_sums
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .unwrap()
            .0;
        assert_eq!(hottest, 3, "column sums: {col_sums:?}");
    }

    #[test]
    fn live_warehouse_repallets_per_window() {
        let mut live = LiveWarehouse::new(10);
        assert!(live.scene().is_none());
        let mut pipeline = ddos_pipeline();
        let stats = live.follow(&mut pipeline, 3).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(live.windows_seen(), 3);
        assert_eq!(live.dimension(), 10);
        assert_eq!(live.last_stats().unwrap().window_index, 2);
        let scene = live.scene().expect("scene built");
        // The scene really is palleted from the live window: its data node
        // carries the live module name.
        let name = scene.tree.node(scene.data).unwrap().get("name").unwrap();
        assert_eq!(format!("{name}"), "live window 2");
    }

    #[test]
    fn coarsening_survives_u64_boundary_packet_counts() {
        // A single cell at u64::MAX: the old u64 rescale computed
        // v * 14 before dividing, overflowing for any v > u64::MAX / 14
        // (debug panic, wrong pallet colors in release).
        let hot = CsrMatrix::from_dense(&[vec![u64::MAX, 0], vec![0, 3]]).unwrap();
        let display = coarsen_window(&hot, 2);
        assert_eq!(display.get(0, 0).unwrap(), DISPLAY_PACKET_LIMIT as u32);
        // Tiny non-zero cells never round down to zero.
        assert_eq!(display.get(1, 1).unwrap(), 1);

        // Two u64::MAX cells coarsened into one block: the block sum itself
        // overflows u64 and must accumulate in u128.
        let sum_overflow = CsrMatrix::from_dense(&[
            vec![u64::MAX, u64::MAX, 0, 0],
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 1],
        ])
        .unwrap();
        let display = coarsen_window(&sum_overflow, 2);
        assert_eq!(display.get(0, 0).unwrap(), DISPLAY_PACKET_LIMIT as u32);
        assert_eq!(display.get(1, 1).unwrap(), 1);

        // Exactly at the old overflow boundary, one packet apart.
        for v in [
            u64::MAX / DISPLAY_PACKET_LIMIT,
            u64::MAX / DISPLAY_PACKET_LIMIT + 1,
        ] {
            let m = CsrMatrix::from_dense(&[vec![v, 0], vec![0, 1]]).unwrap();
            let display = coarsen_window(&m, 2);
            assert_eq!(
                display.get(0, 0).unwrap(),
                DISPLAY_PACKET_LIMIT as u32,
                "v = {v}"
            );
        }
    }

    #[test]
    fn non_paper_dimensions_use_numeric_labels() {
        let mut pipeline = ddos_pipeline();
        let report = pipeline.next_window().unwrap();
        let display = coarsen_window(&report.matrix, 5);
        assert_eq!(display.dimension(), 5);
        let mut live = LiveWarehouse::new(5);
        live.on_window(&report);
        assert_eq!(live.windows_seen(), 1);
        assert!(live.scene().is_some());
    }

    #[test]
    fn session_subscribes_to_live_windows() {
        let mut session = GameSession::start(ModuleBundle::new("live"), 1).unwrap();
        session.telemetry().drain();
        session.subscribe_live(10);
        let mut pipeline = ddos_pipeline();
        for _ in 0..2 {
            let report = pipeline.next_window().unwrap();
            session.ingest_window(&report);
        }
        let live = session.live().expect("subscribed");
        assert_eq!(live.windows_seen(), 2);
        assert!(live.scene().is_some());
        let events = session.telemetry().drain();
        let live_events: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::LiveWindow { .. }))
            .collect();
        assert_eq!(live_events.len(), 2);
        assert!(matches!(
            live_events[0],
            TelemetryEvent::LiveWindow {
                window_index: 0,
                ..
            }
        ));
    }

    #[test]
    fn follow_accepts_any_window_stream() {
        use tw_ingest::{ArchiveRecorder, RecordingMeta, ReplaySource};
        // Record two windows, then follow the replay through the same
        // `follow` entry point as the live pipeline.
        let mut pipeline = ddos_pipeline();
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 5,
            node_count: 500,
            window_us: 50_000,
            keyframe_every: 0,
        });
        for report in pipeline.run(2) {
            recorder.record(&report).unwrap();
        }
        let bytes = recorder.finish().unwrap();
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        let mut live = LiveWarehouse::new(10);
        let stats = live.follow(&mut replay, usize::MAX).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(live.windows_seen(), 2);
        assert!(live.scene().is_some());
    }

    #[test]
    fn follow_subscription_consumes_a_broadcast() {
        use crate::broadcast::{BroadcastConfig, Broadcaster, StartOffset};
        let mut caster = Broadcaster::new(BroadcastConfig::default());
        let sub = caster.subscribe(StartOffset::Origin);
        let mut pipeline = ddos_pipeline();
        caster.run(&mut pipeline, 3).unwrap();
        let mut live = LiveWarehouse::new(10);
        let stats = live.follow_subscription(&sub, usize::MAX);
        assert_eq!(stats.len(), 3);
        assert_eq!(live.windows_seen(), 3);
        assert_eq!(live.last_stats().unwrap().window_index, 2);
    }

    #[test]
    fn unsubscribed_session_ignores_windows() {
        let mut session = GameSession::start(ModuleBundle::new("idle"), 1).unwrap();
        let mut pipeline = ddos_pipeline();
        let report = pipeline.next_window().unwrap();
        session.ingest_window(&report);
        assert!(session.live().is_none());
    }
}
