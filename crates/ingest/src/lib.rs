//! # tw-ingest
//!
//! The streaming ingest pipeline: the layer between synthetic traffic
//! generation and the Traffic Warehouse game.
//!
//! The paper's introduction cites GraphBLAS pipelines that build hypersparse
//! traffic matrices from "anonymized high performance streaming of network
//! traffic" at millions of events per second. This crate reproduces that
//! workflow end to end:
//!
//! ```text
//!  EventSource (scenario mix)      Pipeline              WindowAccumulator
//!  ┌──────────────────────┐  pull  ┌────────────┐ route  ┌────────────────┐
//!  │ background ┐         │ ─────► │ bounded    │ ─────► │ (row, col,     │
//!  │ ddos burst ├─ Mix ──►│ batch  │ batches,   │        │  packets) list │
//!  │ scan sweep ┘         │        │ tumbling   │        └───────┬────────┘
//!  └──────────────────────┘        │ windows    │                │ counting-
//!                                  └─────┬──────┘                │ sort merge
//!                                        ▼                       ▼
//!                                  WindowReport ◄─────────── CsrMatrix
//!                                  (matrix + IngestStats)
//! ```
//!
//! * [`source`] — the pull-based [`EventSource`] trait and the scenario
//!   primitives (heavy-tailed background, DDoS burst, scan sweep, flash
//!   crowd, P2P mesh, figure-pattern replay, and the timestamp-merging
//!   [`Mix`] combinator);
//! * [`scenario`] — the named workload catalog ([`Scenario`]) reusing the
//!   `tw-patterns` attack shapes;
//! * [`shard`] — the serial [`WindowAccumulator`] with its proven (and
//!   property-tested) equivalence to the [`window_matrix`] reference;
//! * [`window`] — tumbling [`WindowClock`], per-window [`IngestStats`] and
//!   the emitted [`WindowReport`];
//! * [`pipeline`] — the [`Pipeline`] driver with backpressure via bounded
//!   batch pulls, late-event drop accounting, and an optional watermark
//!   router (the private `reorder` module) that absorbs out-of-order
//!   arrivals (drifting source clocks, modeled by the [`Skewed`] adapter)
//!   up to a configurable horizon by routing each event straight into its
//!   window instead of dropping it;
//! * [`codec`] — the compact, versioned binary encoding of a
//!   [`WindowReport`] (gap-coded linear cell indices + stats, or a sparse
//!   delta against the previous window);
//! * [`frame`] — the wire framing atop the codec (magic, version, kind,
//!   length prefix, CRC32) that the `tw-serve` network tier streams over
//!   TCP: manifest / window / close frames with typed, alloc-guarded
//!   decoding, and [`window_frame`], which forwards a replayed window's
//!   recorded frame or encodes the window straight into a frame buffer;
//! * [`record`] — [`ArchiveRecorder`] (window stream → `tw-archive` ZIP with
//!   a JSON manifest);
//! * [`replay`] — [`ReplaySource`] (ZIP → the identical window stream, no
//!   event generation) read from any seekable source one window entry per
//!   pull, with [`FileReplaySource`] its file-backed alias; each window is
//!   handed over with its entry already sealed as a wire frame
//!   ([`WindowReport::frame`]);
//! * [`stream`] — the [`WindowStream`] trait unifying every producer above
//!   (plus the rate-pacing [`Paced`] adapter), so consumers like the
//!   `tw-game` broadcast hub drive live scenarios and replays through one
//!   code path.

pub mod codec;
pub mod frame;
pub mod pipeline;
pub mod record;
mod reorder;
pub mod replay;
pub mod scenario;
pub mod shard;
pub mod source;
pub mod stream;
pub mod window;

pub use codec::{
    decode_window, decode_window_into, encode_window, encode_window_delta, CodecError,
    CodecMetrics, DecodeScratch, DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION, MAX_DIMENSION,
};
pub use frame::{
    encode_close_frame, encode_frame, encode_manifest_frame, encode_stats_frame,
    parse_frame_payload, read_frame, read_raw_frame, window_frame, write_frame, CloseSummary,
    Frame, FrameError, FrameKind, StreamManifest, WindowFrame, FRAME_MAGIC, FRAME_VERSION,
    MAX_FRAME_LEN,
};
pub use pipeline::{Pipeline, PipelineConfig};
pub use record::{ArchiveRecorder, RecordError, RecordingMeta, ReplayManifest};
pub use replay::{FileReplaySource, ReplaySource};
pub use scenario::Scenario;
pub use shard::{window_matrix, WindowAccumulator};
pub use source::{
    collect_events, DdosBurstSource, EventSource, FlashCrowdSource, HeavyTailSource, Limit, Mix,
    P2pMeshSource, PatternSource, ScanSweepSource, Skewed,
};
pub use stream::{collect_stream, Paced, StreamError, WindowStream};
pub use window::{IngestStats, WindowClock, WindowReport};

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criteria flow: a named scenario, several windows, stats.
    #[test]
    fn end_to_end_scenario_run() {
        let source = Scenario::Ddos.source(512, 11);
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let mut pipeline = Pipeline::new(source, config);
        let reports = pipeline.run(4);
        assert_eq!(reports.len(), 4);
        let total_events: u64 = reports.iter().map(|r| r.stats.events).sum();
        assert!(
            total_events > 10_000,
            "a DDoS scenario is busy, got {total_events}"
        );
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.stats.window_index, i as u64);
            assert_eq!(report.matrix.shape(), (512, 512));
            assert_eq!(report.stats.nnz, report.matrix.nnz());
            assert!(!report.stats.summary().is_empty());
        }
    }
}
