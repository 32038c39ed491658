//! A recording whose window entry has a valid CRC and corrupt cells: the
//! archive accepts the entry, and the replay reports the codec's typed
//! error when that window is pulled.

use std::io::Cursor;
use tw_archive::{ZipReader, ZipWriter};
use tw_ingest::record::MANIFEST_ENTRY;
use tw_ingest::{ArchiveRecorder, RecordError, RecordingMeta, ReplaySource};

#[path = "support/corrupt_cells.rs"]
mod corrupt_cells;

use corrupt_cells::{corrupt_cell_payloads, last_rows_window, NODES};

#[test]
fn corrupt_cells_under_a_valid_crc_fail_the_pull_with_a_codec_error() {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "crafted".to_string(),
        seed: 0,
        node_count: NODES,
        window_us: 50_000,
        keyframe_every: 0,
    });
    recorder.record(&last_rows_window(20)).unwrap();
    let recording = recorder.finish().unwrap();
    let mut reader = ZipReader::parse(Cursor::new(&recording)).unwrap();
    let entry = reader
        .entry_names()
        .find(|name| name.starts_with("windows/"))
        .unwrap()
        .to_string();
    let manifest = reader.read_text(MANIFEST_ENTRY).unwrap();

    for corrupt in corrupt_cell_payloads() {
        // The entry is written afresh, so its stored CRC is the corrupt
        // bytes' own.
        let mut zip = ZipWriter::new();
        zip.add_file(&entry, &corrupt.payload).unwrap();
        zip.add_file(MANIFEST_ENTRY, manifest.as_bytes()).unwrap();
        let tampered = zip.finish().unwrap();
        let mut replay = ReplaySource::new(Cursor::new(&tampered)).unwrap();
        assert_eq!(
            replay.next_window().map(|_| ()),
            Err(RecordError::Codec(corrupt.error)),
            "{}",
            corrupt.what
        );
    }
}
