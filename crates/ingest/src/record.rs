//! Record a scenario's window stream once; replay it in class forever.
//!
//! The paper distributes lessons as "a zip file containing multiple JSON
//! files" (§II); this module applies the same packaging to live scenarios. An
//! [`ArchiveRecorder`] streams every [`WindowReport`] a [`Pipeline`] emits
//! into a `tw-archive` ZIP — one [`codec`](crate::codec)-encoded entry per
//! window plus a human-readable `manifest.json` — and a
//! [`ReplaySource`](crate::ReplaySource) reads the ZIP back and re-emits the
//! identical window stream, so a classroom can watch the same DDoS unfold
//! without regenerating a million events (and without the generation
//! hardware).
//!
//! ```
//! use std::io::Cursor;
//! use tw_ingest::{ArchiveRecorder, Pipeline, PipelineConfig, RecordingMeta, ReplaySource, Scenario};
//!
//! // Record four windows of the DDoS scenario.
//! let config = PipelineConfig { window_us: 50_000, batch_size: 4_096, ..PipelineConfig::default() };
//! let mut pipeline = Pipeline::new(Scenario::Ddos.source(128, 7), config);
//! let mut recorder = ArchiveRecorder::new(RecordingMeta {
//!     scenario: "ddos".to_string(),
//!     seed: 7,
//!     node_count: 128,
//!     window_us: 50_000,
//!     keyframe_every: 0,
//! });
//! let reports = pipeline.run(4);
//! for report in &reports {
//!     recorder.record(report).unwrap();
//! }
//! let bytes = recorder.finish().unwrap();
//!
//! // Replay them from memory: the stream is identical, cell for cell.
//! let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
//! assert_eq!(replay.manifest().scenario, "ddos");
//! for recorded in &reports {
//!     let replayed = replay.next_window().unwrap().unwrap();
//!     assert_eq!(replayed.matrix, recorded.matrix);
//!     assert_eq!(replayed.stats, recorded.stats);
//! }
//! assert!(replay.next_window().unwrap().is_none());
//! ```

use crate::codec::{encode_window_delta_into, encode_window_into, CodecError, CodecMetrics};
use crate::window::{IngestStats, WindowReport};
use std::fmt;
use tw_archive::{ArchiveError, ZipWriter};
use tw_json::{Map, Value};
use tw_metrics::MetricsRegistry;

/// Name of the JSON manifest entry inside a recording.
pub const MANIFEST_ENTRY: &str = "manifest.json";
/// The manifest format identifier.
pub const MANIFEST_FORMAT: &str = "tw-replay";
/// The manifest version every new recording writes, with or without
/// delta windows.
///
/// Version 1 recordings hold only version-2 full windows; version 2 adds
/// version-3 deltas; version 3 stores full windows in the version-4
/// linear-gap layout; version 4 stores deltas in the version-5 layout,
/// one run of tagged linear gaps; version 5 stores full windows in the
/// version-6 layout, small values folded into their gap varints. Readers
/// accept every version from 1 on, and a reader that predates one rejects
/// the archive up front instead of failing on its first window.
pub const MANIFEST_VERSION: i64 = 5;

/// Errors produced while recording or replaying a window archive.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The underlying ZIP container failed.
    Archive(ArchiveError),
    /// A window entry failed to decode.
    Codec(CodecError),
    /// The manifest is missing, malformed, or inconsistent; the message
    /// names the violation.
    Manifest(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Archive(e) => write!(f, "recording archive: {e}"),
            RecordError::Codec(e) => write!(f, "recorded window: {e}"),
            RecordError::Manifest(msg) => write!(f, "recording manifest: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<ArchiveError> for RecordError {
    fn from(e: ArchiveError) -> Self {
        RecordError::Archive(e)
    }
}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        RecordError::Codec(e)
    }
}

/// What was recorded: the scenario identity a replay needs to label itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingMeta {
    /// Scenario name (a [`Scenario`](crate::Scenario) catalog name, or any
    /// free-form label for custom sources).
    pub scenario: String,
    /// The seed the scenario ran with.
    pub seed: u64,
    /// The address-space size (matrix dimension) of every window.
    pub node_count: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Delta-encoding cadence: every `K`th window is a full key frame and
    /// the rest are deltas against their predecessor; `0` records every
    /// window in full.
    pub keyframe_every: u64,
}

/// The entry name of a recorded window.
fn window_entry_name(window_index: u64) -> String {
    format!("windows/{window_index:08}.bin")
}

/// Streams [`WindowReport`]s into an in-memory ZIP recording.
///
/// Entries are written in emission order and named by window index
/// (`windows/00000042.bin`), so standard ZIP tools list them in playback
/// order; [`ArchiveRecorder::finish`] appends `manifest.json` with the
/// scenario identity and per-window statistics.
#[derive(Debug)]
pub struct ArchiveRecorder {
    writer: ZipWriter,
    meta: RecordingMeta,
    stats: Vec<IngestStats>,
    /// The previously recorded window, kept as the next delta's base
    /// (`None` until the first window, or always when `keyframe_every == 0`):
    /// a clone of the report, which shares its matrix rather than copying
    /// it.
    prev: Option<WindowReport>,
    /// Encoded size of the last key frame: the steady-state proxy for what
    /// each delta window would have cost in full, driving `bytes_saved`.
    last_keyframe_len: usize,
    /// The encode buffer, cleared and refilled for each window: its
    /// entry's bytes are copied into the archive, so it is never handed on.
    encoded: Vec<u8>,
    metrics: Option<CodecMetrics>,
}

impl ArchiveRecorder {
    /// Start a recording for the given scenario identity.
    pub fn new(meta: RecordingMeta) -> Self {
        ArchiveRecorder {
            writer: ZipWriter::new(),
            meta,
            stats: Vec::new(),
            prev: None,
            last_keyframe_len: 0,
            encoded: Vec::new(),
            metrics: None,
        }
    }

    /// Count encoded key frames, deltas, and bytes saved into the `codec.*`
    /// counters of the given registry.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(CodecMetrics::new(registry));
    }

    /// Append one window to the recording.
    ///
    /// With a nonzero `keyframe_every` cadence `K`, every `K`th window (in
    /// recording order, starting with the first) is stored in full and the
    /// windows between them as deltas against their predecessor.
    pub fn record(&mut self, report: &WindowReport) -> Result<(), RecordError> {
        let k = self.meta.keyframe_every;
        let keyframe = k == 0 || (self.stats.len() as u64).is_multiple_of(k);
        let mut buf = std::mem::take(&mut self.encoded);
        buf.clear();
        let bytes = match (&self.prev, keyframe) {
            (Some(prev), false) => {
                let delta = encode_window_delta_into(prev, report, buf);
                if let Some(m) = &self.metrics {
                    m.delta_windows.inc();
                    m.bytes_saved
                        .add(self.last_keyframe_len.saturating_sub(delta.len()) as u64);
                }
                delta
            }
            _ => {
                let full = encode_window_into(report, buf);
                self.last_keyframe_len = full.len();
                if let Some(m) = &self.metrics {
                    m.keyframes.inc();
                }
                full
            }
        };
        self.writer
            .add_file(&window_entry_name(report.stats.window_index), &bytes)?;
        self.encoded = bytes;
        self.stats.push(report.stats.clone());
        if k != 0 {
            self.prev = Some(report.clone());
        }
        Ok(())
    }

    /// Windows recorded so far.
    pub fn windows_recorded(&self) -> usize {
        self.stats.len()
    }

    /// Finish the recording: write the manifest and return the ZIP bytes.
    pub fn finish(mut self) -> Result<Vec<u8>, RecordError> {
        let manifest = self.manifest_json();
        self.writer.add_file(MANIFEST_ENTRY, manifest.as_bytes())?;
        Ok(self.writer.finish()?)
    }

    fn manifest_json(&self) -> String {
        let mut root = Map::new();
        root.insert("format", MANIFEST_FORMAT);
        root.insert("version", MANIFEST_VERSION);
        root.insert("scenario", self.meta.scenario.as_str());
        // Seeds are full u64s; JSON numbers here are i64/f64, so the seed is
        // carried as a decimal string to stay lossless.
        root.insert("seed", self.meta.seed.to_string());
        root.insert("node_count", self.meta.node_count);
        root.insert(
            "window_us",
            Value::from(i64::try_from(self.meta.window_us).unwrap_or(i64::MAX)),
        );
        root.insert(
            "keyframe_every",
            Value::from(i64::try_from(self.meta.keyframe_every).unwrap_or(i64::MAX)),
        );
        root.insert("window_count", self.stats.len());
        let windows: Vec<Value> = self
            .stats
            .iter()
            .map(|s| {
                let mut w = Map::new();
                w.insert("entry", window_entry_name(s.window_index).as_str());
                w.insert(
                    "window_index",
                    Value::from(i64::try_from(s.window_index).unwrap_or(i64::MAX)),
                );
                w.insert(
                    "events",
                    Value::from(i64::try_from(s.events).unwrap_or(i64::MAX)),
                );
                w.insert(
                    "packets",
                    Value::from(i64::try_from(s.packets).unwrap_or(i64::MAX)),
                );
                w.insert("nnz", s.nnz);
                w.insert(
                    "dropped_late",
                    Value::from(i64::try_from(s.dropped_late).unwrap_or(i64::MAX)),
                );
                // No wall-clock `elapsed`: it differs run to run, so a
                // recording's size would too; each entry's stats carry it.
                Value::Object(w)
            })
            .collect();
        root.insert("windows", Value::Array(windows));
        tw_json::to_string_pretty(&Value::Object(root))
    }
}

/// The parsed identity of a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayManifest {
    /// Scenario name as recorded.
    pub scenario: String,
    /// The seed the scenario ran with.
    pub seed: u64,
    /// The address-space size of every window.
    pub node_count: usize,
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Delta cadence the recording was made with (`0` = all full windows).
    pub keyframe_every: u64,
    /// Window entry names in playback order.
    pub entries: Vec<String>,
}

impl ReplayManifest {
    /// Number of recorded windows.
    pub fn window_count(&self) -> usize {
        self.entries.len()
    }
}

/// A window decode failure as a recording reader reports it: a window
/// whose header claims another shape than the stream's
/// ([`CodecError::Misshapen`]) is a manifest error naming `window`; any
/// other failure is the codec's.
pub fn window_error(e: CodecError, window: impl fmt::Display) -> RecordError {
    match e {
        CodecError::Misshapen { shape, node_count } => RecordError::Manifest(format!(
            "window {window} has shape {shape:?}, manifest says {node_count} nodes"
        )),
        e => RecordError::Codec(e),
    }
}

fn manifest_u64(root: &Value, key: &str) -> Result<u64, RecordError> {
    root.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| RecordError::Manifest(format!("missing or non-integer {key:?}")))
}

/// Parse and validate a recording manifest. `has_entry` answers whether the
/// backing archive holds a named entry.
pub(crate) fn parse_manifest(
    text: &str,
    has_entry: impl Fn(&str) -> bool,
) -> Result<ReplayManifest, RecordError> {
    let root = tw_json::parse(text)
        .map_err(|e| RecordError::Manifest(format!("{MANIFEST_ENTRY}: {e}")))?;
    let format = root.get("format").and_then(Value::as_str).unwrap_or("");
    if format != MANIFEST_FORMAT {
        return Err(RecordError::Manifest(format!(
            "format is {format:?}, expected {MANIFEST_FORMAT:?}"
        )));
    }
    let version = root.get("version").and_then(Value::as_i64).unwrap_or(0);
    if !(1..=MANIFEST_VERSION).contains(&version) {
        return Err(RecordError::Manifest(format!(
            "manifest version {version} is not in the supported range 1..={MANIFEST_VERSION}"
        )));
    }
    let scenario = root
        .get("scenario")
        .and_then(Value::as_str)
        .ok_or_else(|| RecordError::Manifest("missing scenario name".to_string()))?
        .to_string();
    let seed = root
        .get("seed")
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| RecordError::Manifest("missing or non-decimal seed".to_string()))?;
    let node_count = usize::try_from(manifest_u64(&root, "node_count")?)
        .map_err(|_| RecordError::Manifest("node_count does not fit".to_string()))?;
    let window_us = manifest_u64(&root, "window_us")?;
    // Version-1 recordings predate the key; absent means all-full windows.
    let keyframe_every = root
        .get("keyframe_every")
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| RecordError::Manifest("non-integer keyframe_every".to_string()))
        })
        .transpose()?
        .unwrap_or(0);
    let declared = manifest_u64(&root, "window_count")? as usize;

    let windows = root
        .get("windows")
        .and_then(Value::as_array)
        .ok_or_else(|| RecordError::Manifest("missing windows table".to_string()))?;
    if windows.len() != declared {
        return Err(RecordError::Manifest(format!(
            "window_count says {declared} but the table lists {}",
            windows.len()
        )));
    }
    let mut entries = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let entry = w
            .get("entry")
            .and_then(Value::as_str)
            .ok_or_else(|| RecordError::Manifest(format!("window {i} has no entry name")))?;
        if !has_entry(entry) {
            return Err(RecordError::Manifest(format!(
                "window table names {entry:?} but the archive has no such entry"
            )));
        }
        entries.push(entry.to_string());
    }
    Ok(ReplayManifest {
        scenario,
        seed,
        node_count,
        window_us,
        keyframe_every,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::replay::ReplaySource;
    use crate::scenario::Scenario;
    use crate::stream::collect_stream;
    use std::io::Cursor;
    use tw_archive::ZipReader;

    fn replay(bytes: &[u8]) -> ReplaySource<Cursor<&[u8]>> {
        ReplaySource::new(Cursor::new(bytes)).unwrap()
    }

    fn reader(bytes: &[u8]) -> ZipReader<Cursor<&[u8]>> {
        ZipReader::parse(Cursor::new(bytes)).unwrap()
    }

    fn record_ddos(windows: usize) -> (Vec<WindowReport>, Vec<u8>) {
        record_ddos_with_cadence(windows, 0)
    }

    fn record_ddos_with_cadence(
        windows: usize,
        keyframe_every: u64,
    ) -> (Vec<WindowReport>, Vec<u8>) {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let mut pipeline = Pipeline::new(Scenario::Ddos.source(128, 7), config);
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 7,
            node_count: 128,
            window_us: 50_000,
            keyframe_every,
        });
        let reports = pipeline.run(windows);
        for report in &reports {
            recorder.record(report).unwrap();
        }
        assert_eq!(recorder.windows_recorded(), reports.len());
        (reports, recorder.finish().unwrap())
    }

    #[test]
    fn recording_replays_cell_for_cell() {
        let (reports, bytes) = record_ddos(4);
        let mut replay = replay(&bytes);
        assert_eq!(replay.manifest().scenario, "ddos");
        assert_eq!(replay.manifest().seed, 7);
        assert_eq!(replay.manifest().node_count, 128);
        assert_eq!(replay.manifest().window_us, 50_000);
        assert_eq!(replay.manifest().window_count(), 4);
        assert_eq!(replay.remaining(), 4);
        for recorded in &reports {
            let replayed = replay.next_window().unwrap().unwrap();
            assert_eq!(replayed.matrix, recorded.matrix);
            assert_eq!(replayed.stats, recorded.stats);
        }
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_window().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn collect_stream_drains_the_recording() {
        let (reports, bytes) = record_ddos(3);
        let mut replay = replay(&bytes);
        let windows = collect_stream(&mut replay, usize::MAX).unwrap();
        assert_eq!(windows.len(), reports.len());
        assert!(collect_stream(&mut replay, usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn recordings_replay_identically_and_are_standard_zips() {
        // Two captures of the same seeded scenario replay the same matrices
        // (the raw bytes differ only in the wall-clock `elapsed` stats).
        let (_, a) = record_ddos(2);
        let (_, b) = record_ddos(2);
        let windows_a = collect_stream(&mut replay(&a), usize::MAX).unwrap();
        let windows_b = collect_stream(&mut replay(&b), usize::MAX).unwrap();
        assert_eq!(windows_a.len(), 2);
        for (wa, wb) in windows_a.iter().zip(&windows_b) {
            assert_eq!(wa.matrix, wb.matrix);
            assert_eq!(wa.stats.events, wb.stats.events);
            assert_eq!(wa.stats.packets, wb.stats.packets);
        }
        let reader = reader(&a);
        let names: Vec<&str> = reader.entry_names().collect();
        assert_eq!(
            names,
            vec![
                "windows/00000000.bin",
                "windows/00000001.bin",
                "manifest.json"
            ]
        );
    }

    #[test]
    fn manifest_is_human_readable_json() {
        let (reports, bytes) = record_ddos(2);
        let manifest = tw_json::parse(&reader(&bytes).read_text(MANIFEST_ENTRY).unwrap()).unwrap();
        assert_eq!(
            manifest.get("format").and_then(Value::as_str),
            Some(MANIFEST_FORMAT)
        );
        assert_eq!(
            manifest.get("window_count").and_then(Value::as_usize),
            Some(2)
        );
        let table = manifest.get("windows").and_then(Value::as_array).unwrap();
        assert_eq!(
            table[0].get("events").and_then(Value::as_u64),
            Some(reports[0].stats.events)
        );
        assert_eq!(
            table[1].get("nnz").and_then(Value::as_usize),
            Some(reports[1].stats.nnz)
        );
    }

    #[test]
    fn recording_length_does_not_follow_wall_clock_time() {
        // The same windows ingested fast or slowly record to the same
        // number of bytes: only `elapsed` differs, and full and delta
        // windows both store it at a fixed width.
        let (reports, _) = record_ddos(4);
        let record = |elapsed: std::time::Duration, keyframe_every: u64| {
            let mut recorder = ArchiveRecorder::new(RecordingMeta {
                scenario: "ddos".to_string(),
                seed: 7,
                node_count: 128,
                window_us: 50_000,
                keyframe_every,
            });
            for report in &reports {
                let mut report = report.clone();
                report.stats.elapsed = elapsed;
                recorder.record(&report).unwrap();
            }
            recorder.finish().unwrap().len()
        };
        for keyframe_every in [0, 2] {
            assert_eq!(
                record(std::time::Duration::from_nanos(1), keyframe_every),
                record(std::time::Duration::from_secs(100), keyframe_every),
                "keyframe_every {keyframe_every}"
            );
        }
    }

    #[test]
    fn duplicate_window_indices_are_rejected_at_record_time() {
        let (reports, _) = record_ddos(1);
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 7,
            node_count: 128,
            window_us: 50_000,
            keyframe_every: 0,
        });
        recorder.record(&reports[0]).unwrap();
        assert!(matches!(
            recorder.record(&reports[0]),
            Err(RecordError::Archive(ArchiveError::DuplicateEntry(_)))
        ));
    }

    #[test]
    fn replay_rejects_inconsistent_manifests() {
        let (_, bytes) = record_ddos(2);
        let mut reader = reader(&bytes);
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap();

        // Rebuild the archive with a manifest naming a missing window entry.
        let mut w = ZipWriter::new();
        let names: Vec<String> = reader.entry_names().map(str::to_string).collect();
        for name in names {
            if name != MANIFEST_ENTRY {
                w.add_file(&name, &reader.read(&name).unwrap()).unwrap();
            }
        }
        let tampered = manifest.replace("windows/00000001.bin", "windows/00000009.bin");
        w.add_file(MANIFEST_ENTRY, tampered.as_bytes()).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            ReplaySource::new(Cursor::new(&bytes)),
            Err(RecordError::Manifest(msg)) if msg.contains("00000009")
        ));
    }

    #[test]
    fn replay_rejects_corrupt_window_payloads() {
        let (_, bytes) = record_ddos(1);
        let manifest = reader(&bytes).read_text(MANIFEST_ENTRY).unwrap();
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", b"not an encoded window")
            .unwrap();
        w.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let bytes = w.finish().unwrap();
        let mut replay = replay(&bytes);
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Codec(CodecError::BadMagic))
        ));
    }

    #[test]
    fn delta_recordings_replay_cell_for_cell() {
        let (reports, _) = record_ddos(6);
        for cadence in [1u64, 2, 3, 5, 10] {
            let (_, bytes) = record_ddos_with_cadence(6, cadence);
            let mut replay = replay(&bytes);
            assert_eq!(replay.manifest().keyframe_every, cadence);
            for recorded in &reports {
                let replayed = replay.next_window().unwrap().unwrap();
                assert_eq!(replayed.matrix, recorded.matrix);
                assert_eq!(replayed.stats.window_index, recorded.stats.window_index);
                assert_eq!(replayed.stats.events, recorded.stats.events);
            }
            assert!(replay.next_window().unwrap().is_none());
        }
    }

    #[test]
    fn deltas_shrink_steady_recordings() {
        // A steady stream — a big fixed matrix with two cells drifting per
        // window — is where the delta codec earns its keep: each non-key
        // entry encodes two cells instead of a thousand.
        use tw_matrix::CsrMatrix;
        let steady_reports: Vec<WindowReport> = (0..8u64)
            .map(|w| {
                let entries: Vec<(usize, usize, u64)> = (0..1_000usize)
                    .map(|i| {
                        let row = i / 40;
                        let col = (i % 40) * 3;
                        let drift = u64::from(i as u64 % 500 == w);
                        (row, col, 100 + i as u64 + drift)
                    })
                    .collect();
                WindowReport {
                    matrix: CsrMatrix::from_sorted_triples(128, 128, &entries).into(),
                    stats: IngestStats {
                        window_index: w,
                        events: 1_000,
                        packets: 100_000,
                        nnz: 1_000,
                        dropped_late: 0,
                        reordered: 0,
                        elapsed: std::time::Duration::from_micros(50),
                    },
                    frame: None,
                }
            })
            .collect();
        let record = |cadence: u64| {
            let mut recorder = ArchiveRecorder::new(RecordingMeta {
                scenario: "steady".to_string(),
                seed: 1,
                node_count: 128,
                window_us: 50_000,
                keyframe_every: cadence,
            });
            for report in &steady_reports {
                recorder.record(report).unwrap();
            }
            recorder.finish().unwrap()
        };
        let full = record(0);
        let delta = record(4);
        assert!(
            (delta.len() as f64) < 0.7 * full.len() as f64,
            "delta archive {} should be at least 30% smaller than {}",
            delta.len(),
            full.len()
        );
        // And it still replays cell-for-cell.
        let mut replay = replay(&delta);
        for want in &steady_reports {
            let got = replay.next_window().unwrap().unwrap();
            assert_eq!(got.matrix, want.matrix);
        }
    }

    #[test]
    fn delta_cadence_places_keyframes_where_the_manifest_says() {
        // Cadence 3 over 7 windows: entries 0, 3, 6 are full (v6 codec
        // bytes), everything else is a v5 delta, under the one manifest
        // version new recordings write.
        use crate::codec::{DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION};
        let (_, bytes) = record_ddos_with_cadence(7, 3);
        let mut reader = reader(&bytes);
        let manifest = tw_json::parse(&reader.read_text(MANIFEST_ENTRY).unwrap()).unwrap();
        assert_eq!(
            manifest.get("version").and_then(Value::as_i64),
            Some(MANIFEST_VERSION)
        );
        assert_eq!(
            manifest.get("keyframe_every").and_then(Value::as_u64),
            Some(3)
        );
        for i in 0..7u64 {
            let entry = reader.read(&window_entry_name(i)).unwrap();
            let want = if i % 3 == 0 {
                FULL_WINDOW_VERSION
            } else {
                DELTA_WINDOW_VERSION
            };
            assert_eq!(entry[4], want, "entry {i}");
        }
    }

    #[test]
    fn zero_cadence_recordings_write_the_current_manifest() {
        // K=0 recordings write the same manifest version as delta ones, so
        // a reader that predates v6 full windows rejects the archive up
        // front; every entry is a full v6 window.
        use crate::codec::FULL_WINDOW_VERSION;
        assert_eq!(MANIFEST_VERSION, 5);
        let (_, bytes) = record_ddos(2);
        let mut reader = reader(&bytes);
        let text = reader.read_text(MANIFEST_ENTRY).unwrap();
        let manifest = tw_json::parse(&text).unwrap();
        assert_eq!(
            manifest.get("version").and_then(Value::as_i64),
            Some(MANIFEST_VERSION)
        );
        for i in 0..2u64 {
            assert_eq!(
                reader.read(&window_entry_name(i)).unwrap()[4],
                FULL_WINDOW_VERSION
            );
        }
        // A manifest from before the delta era (no keyframe_every key at
        // all) parses with cadence 0.
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("keyframe_every"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_manifest(&stripped, |_| true).unwrap();
        assert_eq!(parsed.keyframe_every, 0);
        // Manifests of every earlier version still parse.
        for version in 1..MANIFEST_VERSION {
            let old = text.replace(
                &format!("\"version\": {MANIFEST_VERSION}"),
                &format!("\"version\": {version}"),
            );
            assert_ne!(old, text, "replacement must hit the version line");
            assert!(parse_manifest(&old, |_| true).is_ok(), "version {version}");
        }
    }

    #[test]
    fn future_manifest_versions_are_rejected() {
        let (_, bytes) = record_ddos(1);
        let text = reader(&bytes).read_text(MANIFEST_ENTRY).unwrap();
        let future = text.replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            &format!("\"version\": {}", MANIFEST_VERSION + 1),
        );
        assert_ne!(future, text, "replacement must hit the version line");
        assert!(matches!(
            parse_manifest(&future, |_| true),
            Err(RecordError::Manifest(msg)) if msg.contains("version")
        ));
    }

    #[test]
    fn recorder_metrics_count_keyframes_deltas_and_savings() {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let mut pipeline = Pipeline::new(Scenario::Ddos.source(128, 7), config);
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 7,
            node_count: 128,
            window_us: 50_000,
            keyframe_every: 2,
        });
        let registry = MetricsRegistry::new();
        recorder.instrument(&registry);
        for report in pipeline.run(5) {
            recorder.record(&report).unwrap();
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("codec.keyframes"), 3); // windows 0, 2, 4
        assert_eq!(snapshot.counter("codec.delta_windows"), 2); // windows 1, 3
    }

    #[test]
    fn error_displays_name_their_layer() {
        assert!(
            RecordError::from(ArchiveError::MissingEndOfCentralDirectory)
                .to_string()
                .contains("archive")
        );
        assert!(RecordError::from(CodecError::BadMagic)
            .to_string()
            .contains("window"));
        assert!(RecordError::Manifest("boom".to_string())
            .to_string()
            .contains("boom"));
    }
}
