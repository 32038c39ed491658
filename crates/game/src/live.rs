//! Live ingest windows on the warehouse floor.
//!
//! The paper teaches with small, legible matrices; the ingest pipeline
//! produces hypersparse thousand-node windows. This module bridges the two:
//! each [`WindowReport`] is coarsened onto the display dimension (block sums
//! over contiguous address ranges, rescaled under the paper's 15-packet
//! display guidance) and the warehouse scene, built once, is re-palleted in
//! place, so a class can watch a scenario unfold window by window.

use crate::warehouse::WarehouseScene;
use tw_ingest::{IngestStats, WindowReport};
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
///
/// The addresses of block `b` are the range `⌈b·n/dimension⌉` up to
/// `⌈(b+1)·n/dimension⌉`, so the rows of one display row are one contiguous
/// run of CSR cells. Each display row is summed in one flat loop over that
/// run, with consecutive cells spread over four partial-sum rows: a cell
/// never waits on the add of the cell before it, although sorted columns
/// send runs of cells to the same block. Columns map to blocks through a
/// table filled one block's range at a time, so no cell divides.
pub fn coarsen_window(matrix: &CsrMatrix<u64>, dimension: usize) -> TrafficMatrix {
    assert!(dimension >= 1, "display dimension must be positive");
    let rows = matrix.rows();
    let n = rows.max(1);
    // The first address of display block `b`, for `b` up to `dimension`.
    let block_start = |b: usize| (b * n).div_ceil(dimension);
    // block_of[a] = min(a·dimension/n, dimension − 1): columns past the
    // last row clamp onto the last block.
    let mut block_of = vec![dimension - 1; rows.max(matrix.cols())];
    let len = block_of.len();
    for b in 0..dimension - 1 {
        block_of[block_start(b).min(len)..block_start(b + 1).min(len)].fill(b);
    }
    // Block sums and the rescale run in u128: a block can absorb up to n²
    // u64 cells, and the rescale multiplies by DISPLAY_PACKET_LIMIT — both
    // overflow u64 for packet counts as low as u64::MAX / 14.
    let mut grid = vec![0u128; dimension * dimension];
    // Three partial-sum rows; the display row itself is the fourth.
    let mut partials = vec![0u128; 3 * dimension];
    let (p1, rest) = partials.split_at_mut(dimension);
    let (p2, p3) = rest.split_at_mut(dimension);
    let (row_ptr, cols, values) = (matrix.row_ptr(), matrix.col_indices(), matrix.values());
    for (b, row) in grid.chunks_exact_mut(dimension).enumerate() {
        let span = row_ptr[block_start(b).min(rows)]..row_ptr[block_start(b + 1).min(rows)];
        let (cells, counts) = (&cols[span.clone()], &values[span]);
        let (cell_quads, count_quads) = (cells.chunks_exact(4), counts.chunks_exact(4));
        for (&c, &v) in cell_quads.remainder().iter().zip(count_quads.remainder()) {
            row[block_of[c]] += u128::from(v);
        }
        for (c, v) in cell_quads.zip(count_quads) {
            row[block_of[c[0]]] += u128::from(v[0]);
            p1[block_of[c[1]]] += u128::from(v[1]);
            p2[block_of[c[2]]] += u128::from(v[2]);
            p3[block_of[c[3]]] += u128::from(v[3]);
        }
        for (((sum, x), y), z) in row.iter_mut().zip(&mut *p1).zip(&mut *p2).zip(&mut *p3) {
            *sum += std::mem::take(x) + std::mem::take(y) + std::mem::take(z);
        }
    }
    let max = grid.iter().copied().max().unwrap_or(0);
    let scale = |v: u128| -> u32 {
        if v == 0 {
            0
        } else if max <= u128::from(DISPLAY_PACKET_LIMIT) {
            v as u32
        } else {
            ((v * u128::from(DISPLAY_PACKET_LIMIT)) / max).max(1) as u32
        }
    };
    let scaled: Vec<Vec<u32>> = grid
        .chunks_exact(dimension)
        .map(|row| row.iter().map(|&v| scale(v)).collect())
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

    /// Apply one window: coarsen the matrix and re-pallet the scene (built
    /// on the first window, then updated in place).
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
        match &mut self.scene {
            Some(scene) => scene.repallet(&module),
            None => self.scene = Some(WarehouseScene::build(&module)),
        }
        self.windows_seen += 1;
        self.last_stats = Some(report.stats.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::GameSession;
    use crate::telemetry::TelemetryEvent;
    use tw_ingest::{Pipeline, PipelineConfig, Scenario, StreamError, WindowStream};
    use tw_module::ModuleBundle;

    /// Drive any [`WindowStream`] for up to `max_windows`, re-palleting per
    /// window; returns the stats of every window received.
    fn follow<S: WindowStream + ?Sized>(
        live: &mut LiveWarehouse,
        stream: &mut S,
        max_windows: usize,
    ) -> Result<Vec<IngestStats>, StreamError> {
        let mut stats = Vec::new();
        while stats.len() < max_windows {
            let Some(report) = stream.next_window()? else {
                break;
            };
            live.on_window(&report);
            stats.push(report.stats);
        }
        Ok(stats)
    }

    /// The CSR matrix of a dense row-major grid, dropping zero cells.
    fn csr(grid: &[Vec<u64>]) -> CsrMatrix<u64> {
        let mut triples = Vec::new();
        for (r, row) in grid.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0 {
                    triples.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_sorted_triples(grid.len(), grid[0].len(), &triples)
    }

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
        let stats = follow(&mut live, &mut pipeline, 3).unwrap();
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
        let hot = csr(&[vec![u64::MAX, 0], vec![0, 3]]);
        let display = coarsen_window(&hot, 2);
        assert_eq!(display.get(0, 0).unwrap(), DISPLAY_PACKET_LIMIT as u32);
        // Tiny non-zero cells never round down to zero.
        assert_eq!(display.get(1, 1).unwrap(), 1);

        // Two u64::MAX cells coarsened into one block: the block sum itself
        // overflows u64 and must accumulate in u128.
        let sum_overflow = csr(&[
            vec![u64::MAX, u64::MAX, 0, 0],
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 1],
        ]);
        let display = coarsen_window(&sum_overflow, 2);
        assert_eq!(display.get(0, 0).unwrap(), DISPLAY_PACKET_LIMIT as u32);
        assert_eq!(display.get(1, 1).unwrap(), 1);

        // Exactly at the old overflow boundary, one packet apart.
        for v in [
            u64::MAX / DISPLAY_PACKET_LIMIT,
            u64::MAX / DISPLAY_PACKET_LIMIT + 1,
        ] {
            let m = csr(&[vec![v, 0], vec![0, 1]]);
            let display = coarsen_window(&m, 2);
            assert_eq!(
                display.get(0, 0).unwrap(),
                DISPLAY_PACKET_LIMIT as u32,
                "v = {v}"
            );
        }
    }

    #[test]
    fn coarsening_matches_the_per_cell_block_formula() {
        // Square, fewer nodes than display cells, ragged block edges, and
        // more columns than rows (columns past the last row block clamp).
        for (rows, cols, dimension) in [
            (1, 1, 1),
            (3, 3, 10),
            (7, 7, 3),
            (10, 10, 10),
            (500, 500, 10),
            (13, 40, 4),
        ] {
            let dense: Vec<Vec<u64>> = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| u64::from((r * 31 + c * 17) % 7 == 0) * (1 + (r % 3) as u64))
                        .collect()
                })
                .collect();
            let matrix = csr(&dense);
            let block = |a: usize| (a * dimension / rows).min(dimension - 1);
            let mut sums = vec![vec![0u128; dimension]; dimension];
            for (r, row) in dense.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    sums[block(r)][block(c)] += u128::from(v);
                }
            }
            let max = sums.iter().flatten().copied().max().unwrap();
            let limit = u128::from(DISPLAY_PACKET_LIMIT);
            let display = coarsen_window(&matrix, dimension);
            for (br, row) in sums.iter().enumerate() {
                for (bc, &v) in row.iter().enumerate() {
                    let expected = match v {
                        0 => 0,
                        v if max <= limit => v as u32,
                        v => (v * limit / max).max(1) as u32,
                    };
                    assert_eq!(
                        display.get(br, bc).unwrap(),
                        expected,
                        "{rows}x{cols} onto {dimension}: block ({br}, {bc})"
                    );
                }
            }
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
        // `on_window` entry point as the live pipeline.
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
        let mut replay = ReplaySource::new(std::io::Cursor::new(&bytes)).unwrap();
        let mut live = LiveWarehouse::new(10);
        let stats = follow(&mut live, &mut replay, usize::MAX).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(live.windows_seen(), 2);
        assert!(live.scene().is_some());
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
