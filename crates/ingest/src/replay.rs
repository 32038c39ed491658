//! Replaying a recorded window stream, one window entry per pull.
//!
//! [`ReplaySource`] reads a recording made by
//! [`ArchiveRecorder`](crate::ArchiveRecorder) from any seekable source. It
//! keeps only the ZIP central directory and the manifest resident and pulls
//! **one window entry at a time** (via [`ZipReader`]), CRC-checking and
//! decoding each window as it is requested; peak memory is one window plus
//! the directory, independent of recording length. Each entry is read
//! straight into a wire-frame buffer that the report carries
//! ([`WindowReport::frame`]), so `serve` can forward a recorded window
//! without encoding it again. [`FileReplaySource`] is the
//! `BufReader<File>`-backed alias the CLI uses; a recording already in
//! memory replays through a `std::io::Cursor`.

use crate::codec::{decode_window_into, DecodeScratch};
use crate::frame::{recorded_frame_buffer, seal_recorded_frame, HEADER_LEN};
use crate::record::{check_shape, parse_manifest, RecordError, ReplayManifest, MANIFEST_ENTRY};
use crate::window::WindowReport;
use std::io::{Read, Seek};
use tw_archive::ZipReader;

/// Replays a recorded window stream from a seekable source, decoding one
/// window per pull.
///
/// Windows come out in the order they were recorded — the same pull
/// discipline as [`Pipeline::next_window`](crate::Pipeline::next_window),
/// so anything that can follow a live pipeline (a
/// [`LiveWarehouse`](../../tw_game/live/struct.LiveWarehouse.html), a
/// `GameSession`) can follow a replay unchanged.
#[derive(Debug)]
pub struct ReplaySource<R: Read + Seek> {
    reader: ZipReader<R>,
    manifest: ReplayManifest,
    cursor: usize,
    /// Delta base + recycled decode buffers (see
    /// [`DecodeScratch`](crate::codec::DecodeScratch)).
    scratch: DecodeScratch,
}

impl<R: Read + Seek> ReplaySource<R> {
    /// Parse the recording's directory and manifest from a seekable source.
    ///
    /// Only the ZIP central directory and `manifest.json` are read here;
    /// window payloads stay in the source until pulled, so a corrupt window
    /// fails at its pull, not here.
    pub fn new(source: R) -> Result<Self, RecordError> {
        let mut reader = ZipReader::parse(source)?;
        let manifest_text = reader
            .read_text(MANIFEST_ENTRY)
            .map_err(|_| RecordError::Manifest(format!("missing {MANIFEST_ENTRY}")))?;
        let manifest = parse_manifest(&manifest_text, |name| reader.has_entry(name))?;
        Ok(ReplaySource {
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
    /// the recording is exhausted. A window whose header claims a shape
    /// other than the manifest's is refused before it is decoded.
    ///
    /// The entry is read straight into a wire-frame buffer and the report
    /// carries that frame ([`WindowReport::frame`]), sealed with the
    /// entry's verified CRC, so `serve` can forward it without encoding.
    pub fn next_window(&mut self) -> Result<Option<WindowReport>, RecordError> {
        let Some(entry) = self.manifest.entries.get(self.cursor) else {
            return Ok(None);
        };
        // Sized for the whole frame up front, so neither the read nor the
        // trailer reallocates it.
        let mut frame = recorded_frame_buffer(self.reader.entry_len(entry).unwrap_or(0));
        let crc = self.reader.read_into(entry, &mut frame)?;
        check_shape(&frame[HEADER_LEN..], entry, self.manifest.node_count)?;
        let mut report = decode_window_into(&frame[HEADER_LEN..], &mut self.scratch)?;
        report.frame = seal_recorded_frame(frame, crc);
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

/// Recording playback as a [`WindowStream`](crate::WindowStream).
impl<R: Read + Seek> crate::stream::WindowStream for ReplaySource<R> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, crate::stream::StreamError> {
        ReplaySource::next_window(self).map_err(Into::into)
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
pub type FileReplaySource = ReplaySource<std::io::BufReader<std::fs::File>>;

impl FileReplaySource {
    /// Open a recording file for incremental replay.
    pub fn open(path: &str) -> Result<Self, RecordError> {
        let file = std::fs::File::open(path)
            .map_err(|e| RecordError::Archive(tw_archive::ArchiveError::from(e)))?;
        ReplaySource::new(std::io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::record::{ArchiveRecorder, RecordingMeta};
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
        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(replay.manifest().scenario, "ddos");
        assert_eq!(replay.manifest().node_count, 128);
        assert_eq!(replay.remaining(), 4);
        for recorded in &reports {
            let replayed = replay.next_window().unwrap().unwrap();
            assert_eq!(replayed.matrix, recorded.matrix);
            assert_eq!(replayed.stats, recorded.stats);
            assert!(
                replayed.frame.is_some(),
                "replayed windows carry their frame"
            );
        }
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_window().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn streams_through_the_trait_object() {
        let (_, bytes) = record_ddos(2);
        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
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
        use tw_archive::ZipWriter;
        let (_, bytes) = record_ddos(2);
        let mut reader = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap();
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", b"garbage").unwrap();
        w.add_file(
            "windows/00000001.bin",
            &reader.read("windows/00000001.bin").unwrap(),
        )
        .unwrap();
        w.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let tampered = w.finish().unwrap();

        // Opening succeeds: only the directory and manifest are validated.
        let mut replay = ReplaySource::new(Cursor::new(&tampered)).unwrap();
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Codec(crate::codec::CodecError::BadMagic))
        ));

        // A flipped byte inside window 1's stored data: the entry CRC
        // catches it when that window is pulled, and window 0 still plays.
        let mut flipped = bytes.clone();
        let name = b"windows/00000001.bin";
        let header = flipped.windows(name.len()).position(|w| w == name).unwrap() - 30;
        flipped[header + 30 + name.len() + 40] ^= 0x01;
        let mut replay = ReplaySource::new(Cursor::new(&flipped)).unwrap();
        assert!(replay.next_window().unwrap().is_some());
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Archive(ArchiveError::CrcMismatch { name, .. }))
                if name == "windows/00000001.bin"
        ));
    }

    #[test]
    fn misshapen_windows_are_refused_before_they_are_decoded() {
        use tw_archive::ZipWriter;
        // A 19-byte v2 window claiming 16,777,216 rows and no cells: it
        // decodes, into a row index of 128 MiB. The manifest says 128
        // nodes, so the header alone refuses it and the decoder never
        // sees it (the scratch holds no base window afterwards).
        let mut claim = b"TWWR".to_vec();
        claim.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]); // v2, stats
        claim.extend_from_slice(&[0x80, 0x80, 0x80, 0x08, 4, 0, 0]); // shape, counts
        assert_eq!(claim.len(), 19);
        assert_eq!(
            crate::codec::window_shape(&claim),
            Some((crate::codec::MAX_DIMENSION, 4))
        );
        let (_, bytes) = record_ddos(2);
        let mut reader = ZipReader::parse(Cursor::new(&bytes)).unwrap();
        let manifest = reader.read_text(MANIFEST_ENTRY).unwrap();
        let mut w = ZipWriter::new();
        w.add_file("windows/00000000.bin", &claim).unwrap();
        w.add_file(
            "windows/00000001.bin",
            &reader.read("windows/00000001.bin").unwrap(),
        )
        .unwrap();
        w.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let tampered = w.finish().unwrap();

        let mut replay = ReplaySource::new(Cursor::new(&tampered)).unwrap();
        assert!(matches!(
            replay.next_window(),
            Err(RecordError::Manifest(msg))
                if msg.contains("00000000") && msg.contains("16777216") && msg.contains("128 nodes")
        ));
        assert_eq!(replay.scratch.base_window(), None, "never decoded");
    }

    #[test]
    fn delta_recordings_stream_and_seek_from_disk() {
        let (reports, bytes) = record_ddos_with_cadence(7, 3);
        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
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
        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
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
            ReplaySource::new(Cursor::new(&bytes)),
            Err(RecordError::Manifest(msg)) if msg.contains(MANIFEST_ENTRY)
        ));
    }
}
