//! Replaying a recorded window stream incrementally from disk.
//!
//! [`ReplaySource`](crate::ReplaySource) needs the whole recording in memory
//! — fine for a lesson-sized ZIP, wasteful for an hour-long capture served to
//! a classroom. [`SeekReplaySource`] keeps only the central directory and the
//! manifest resident and pulls **one window entry at a time** from a seekable
//! source (via [`SeekZipReader`]), CRC-checking and decoding each window as
//! it is requested; peak memory is one window plus the directory, independent
//! of recording length. [`FileReplaySource`] is the `std::fs::File`-backed
//! alias the CLI uses.
//!
//! Both replay sources implement [`WindowStream`](crate::WindowStream) and
//! emit the identical window sequence, so consumers cannot tell them apart
//! (property: see `replay_matches_the_in_memory_source`).

use crate::codec::{decode_window_into, DecodeScratch};
use crate::record::{parse_manifest, RecordError, ReplayManifest, MANIFEST_ENTRY};
use crate::window::WindowReport;
use std::io::{Read, Seek};
use tw_archive::SeekZipReader;

/// Replays a recorded window stream from a seekable source, decoding one
/// window per pull.
#[derive(Debug)]
pub struct SeekReplaySource<R: Read + Seek> {
    reader: SeekZipReader<R>,
    manifest: ReplayManifest,
    cursor: usize,
    /// Delta base + recycled decode buffers (see
    /// [`DecodeScratch`](crate::codec::DecodeScratch)).
    scratch: DecodeScratch,
}

impl<R: Read + Seek> SeekReplaySource<R> {
    /// Parse the recording's directory and manifest from a seekable source.
    ///
    /// Only the ZIP central directory and `manifest.json` are read here;
    /// window payloads stay on disk until pulled.
    pub fn new(source: R) -> Result<Self, RecordError> {
        let mut reader = SeekZipReader::parse(source)?;
        let manifest_text = reader
            .read_text(MANIFEST_ENTRY)
            .map_err(|_| RecordError::Manifest(format!("missing {MANIFEST_ENTRY}")))?;
        let manifest = parse_manifest(&manifest_text, |name| reader.has_entry(name))?;
        Ok(SeekReplaySource {
            reader,
            manifest,
            cursor: 0,
            scratch: DecodeScratch::new(),
        })
    }

    /// The recording's identity and per-entry table.
    pub fn manifest(&self) -> &ReplayManifest {
        &self.manifest
    }

    /// Windows not yet replayed.
    pub fn remaining(&self) -> usize {
        self.manifest.entries.len() - self.cursor
    }

    /// Read, CRC-check and decode the next recorded window; `Ok(None)` once
    /// the recording is exhausted.
    pub fn next_window(&mut self) -> Result<Option<WindowReport>, RecordError> {
        let Some(entry) = self.manifest.entries.get(self.cursor) else {
            return Ok(None);
        };
        let bytes = self.reader.read(entry)?;
        let report = decode_window_into(&bytes, &mut self.scratch)?;
        if report.matrix.shape() != (self.manifest.node_count, self.manifest.node_count) {
            return Err(RecordError::Manifest(format!(
                "window {entry} has shape {:?}, manifest says {} nodes",
                report.matrix.shape(),
                self.manifest.node_count
            )));
        }
        self.cursor += 1;
        Ok(Some(report))
    }

    /// Position playback so the next pull emits the recorded window at
    /// position `window` (in recording order); returns the position of the
    /// key frame the seek landed on.
    ///
    /// In a delta recording an arbitrary window is not independently
    /// decodable, so the seek lands on the nearest key frame at or before
    /// the target and rolls forward, decoding (and discarding) the deltas
    /// in between. With cadence 0 every window is a key frame and the roll
    /// is empty.
    pub fn seek(&mut self, window: usize) -> Result<usize, RecordError> {
        if window > self.manifest.entries.len() {
            return Err(RecordError::Manifest(format!(
                "seek to window {window} past the recording's {} windows",
                self.manifest.entries.len()
            )));
        }
        let k = self.manifest.keyframe_every as usize;
        // Seeking *to* the end is an allowed no-decode position; everything
        // else lands on the covering key frame.
        let key = if window == self.manifest.entries.len() || k == 0 {
            window
        } else {
            window - window % k
        };
        self.cursor = key;
        // The base no longer matches the cursor; the key frame re-arms it.
        self.scratch.reset();
        for _ in key..window {
            if self.next_window()?.is_none() {
                break;
            }
        }
        Ok(key)
    }
}

/// Disk-streaming playback as a [`WindowStream`](crate::WindowStream).
impl<R: Read + Seek> crate::stream::WindowStream for SeekReplaySource<R> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, crate::stream::StreamError> {
        SeekReplaySource::next_window(self).map_err(Into::into)
    }

    fn node_count(&self) -> usize {
        self.manifest.node_count
    }

    fn window_us(&self) -> u64 {
        self.manifest.window_us
    }

    fn remaining_windows(&self) -> Option<usize> {
        Some(self.remaining())
    }
}

/// A recording replayed incrementally from a file on disk.
pub type FileReplaySource = SeekReplaySource<std::io::BufReader<std::fs::File>>;

impl FileReplaySource {
    /// Open a recording file for incremental replay.
    pub fn open(path: &str) -> Result<Self, RecordError> {
        let file = std::fs::File::open(path)
            .map_err(|e| RecordError::Archive(tw_archive::ArchiveError::from(e)))?;
        SeekReplaySource::new(std::io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::record::{ArchiveRecorder, RecordingMeta, ReplaySource};
    use crate::scenario::Scenario;
    use crate::stream::{collect_stream, WindowStream};
    use std::io::Cursor;
    use tw_archive::ArchiveError;

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
        (reports, recorder.finish().unwrap())
    }

    #[test]
    fn replays_cell_for_cell_from_a_cursor() {
        let (reports, bytes) = record_ddos(4);
        let mut replay = SeekReplaySource::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(replay.manifest().scenario, "ddos");
        assert_eq!(replay.manifest().node_count, 128);
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
    fn replay_matches_the_in_memory_source() {
        let (_, bytes) = record_ddos(3);
        let mut in_memory = ReplaySource::parse(&bytes).unwrap();
        let mut from_disk = SeekReplaySource::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(in_memory.manifest(), from_disk.manifest());
        let a = collect_stream(&mut in_memory, usize::MAX).unwrap();
        let b = collect_stream(&mut from_disk, usize::MAX).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "both sources must emit the identical stream");
    }

    #[test]
    fn streams_through_the_trait_object() {
        let (_, bytes) = record_ddos(2);
        let mut replay = SeekReplaySource::new(Cursor::new(&bytes)).unwrap();
        let stream: &mut dyn WindowStream = &mut replay;
        assert_eq!(stream.node_count(), 128);
        assert_eq!(stream.window_us(), 50_000);
        assert_eq!(stream.remaining_windows(), Some(2));
        assert_eq!(collect_stream(stream, usize::MAX).unwrap().len(), 2);
        assert_eq!(stream.remaining_windows(), Some(0));
    }

    #[test]
    fn opens_and_replays_a_real_file() {
        let dir = std::env::temp_dir().join(format!("tw-replay-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ddos.zip").to_string_lossy().into_owned();
        let (reports, bytes) = record_ddos(3);
        std::fs::write(&path, &bytes).unwrap();

        let mut replay = FileReplaySource::open(&path).unwrap();
        assert_eq!(replay.manifest().window_count(), 3);
        let replayed = collect_stream(&mut replay, usize::MAX).unwrap();
        assert_eq!(replayed.len(), 3);
        for (recorded, replayed) in reports.iter().zip(&replayed) {
            assert_eq!(recorded.matrix, replayed.matrix);
        }
        std::fs::remove_dir_all(&dir).ok();

        // A missing file surfaces as a clean archive I/O error.
        assert!(matches!(
            FileReplaySource::open(&path),
            Err(RecordError::Archive(ArchiveError::Io(_)))
        ));
    }

    #[test]
    fn corrupt_windows_fail_at_pull_time_not_open_time() {
        use tw_archive::{ZipReader, ZipWriter};
        let (_, bytes) = record_ddos(2);
        let reader = ZipReader::parse(&bytes).unwrap();
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap().to_string();
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", b"garbage").unwrap();
        w.add_file(
            "windows/00000001.bin",
            reader.read("windows/00000001.bin").unwrap(),
        )
        .unwrap();
        w.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let tampered = w.finish().unwrap();

        // Opening succeeds: only the directory and manifest are validated.
        let mut replay = SeekReplaySource::new(Cursor::new(&tampered)).unwrap();
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Codec(crate::codec::CodecError::BadMagic))
        ));
    }

    #[test]
    fn delta_recordings_stream_and_seek_from_disk() {
        let (reports, bytes) = record_ddos_with_cadence(7, 3);
        let mut replay = SeekReplaySource::new(Cursor::new(&bytes)).unwrap();
        for recorded in &reports {
            let replayed = replay.next_window().unwrap().unwrap();
            assert_eq!(replayed.matrix, recorded.matrix);
        }

        // Seeking to any position lands on its covering key frame (cadence
        // 3: positions 0, 3, 6) and the next pull emits the exact target.
        for (target, want_key) in [
            (0usize, 0usize),
            (1, 0),
            (2, 0),
            (3, 3),
            (4, 3),
            (5, 3),
            (6, 6),
        ] {
            let key = replay.seek(target).unwrap();
            assert_eq!(key, want_key, "seek({target})");
            let report = replay.next_window().unwrap().unwrap();
            assert_eq!(report.matrix, reports[target].matrix, "seek({target})");
            assert_eq!(
                report.stats.window_index,
                reports[target].stats.window_index
            );
        }

        // Seeking to the end positions at exhaustion; past it is an error.
        assert_eq!(replay.seek(7).unwrap(), 7);
        assert!(replay.next_window().unwrap().is_none());
        assert!(matches!(
            replay.seek(8),
            Err(RecordError::Manifest(msg)) if msg.contains("past")
        ));

        // Cadence 0: every window is its own key frame.
        let (reports, bytes) = record_ddos(3);
        let mut replay = SeekReplaySource::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(replay.seek(2).unwrap(), 2);
        let report = replay.next_window().unwrap().unwrap();
        assert_eq!(report.matrix, reports[2].matrix);
    }

    #[test]
    fn missing_manifest_is_rejected() {
        let mut w = tw_archive::ZipWriter::new();
        w.add_file("windows/00000000.bin", b"junk").unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            SeekReplaySource::new(Cursor::new(&bytes)),
            Err(RecordError::Manifest(msg)) if msg.contains(MANIFEST_ENTRY)
        ));
    }
}
