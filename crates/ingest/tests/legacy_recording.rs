//! A recording whose deltas a real version-3 writer produced still
//! replays cell for cell.
//!
//! `fixtures/ddos64_k2_v3.zip` was recorded with
//! `traffic-warehouse ingest --scenario ddos --nodes 64 --windows 4
//! --seed 7 --keyframe-every 2 --record …` by the last build whose
//! recorder wrote version-3 deltas (manifest version 3): entries 0 and 2
//! are version-4 full windows, entries 1 and 3 version-3 deltas. A fresh
//! pipeline run of the same scenario and seed gives the same windows, so
//! the legacy reader is pinned against bytes the real writer produced, not
//! only against the test-local one.

use std::io::Cursor;
use tw_archive::ZipReader;
use tw_ingest::frame::{read_frame, window_frame, Frame};
use tw_ingest::{
    collect_stream, decode_window_into, DecodeScratch, Pipeline, PipelineConfig, ReplaySource,
    Scenario, WindowReport,
};

const RECORDING: &[u8] = include_bytes!("fixtures/ddos64_k2_v3.zip");

fn replayed() -> Vec<WindowReport> {
    let mut replay = ReplaySource::new(Cursor::new(RECORDING)).unwrap();
    assert_eq!(replay.manifest().scenario, "ddos");
    assert_eq!(replay.manifest().keyframe_every, 2);
    collect_stream(&mut replay, usize::MAX).unwrap()
}

#[test]
fn the_fixture_holds_v3_deltas_between_v4_key_frames() {
    let mut reader = ZipReader::parse(Cursor::new(RECORDING)).unwrap();
    let manifest = reader.read_text("manifest.json").unwrap();
    assert!(manifest.contains("\"version\": 3"), "{manifest}");
    for (i, version) in [4, 3, 4, 3].into_iter().enumerate() {
        let entry = reader.read(&format!("windows/{i:08}.bin")).unwrap();
        assert_eq!(entry[4], version, "entry {i}");
    }
}

#[test]
fn a_v3_recording_replays_like_a_fresh_pipeline_run() {
    let fresh = Pipeline::new(Scenario::Ddos.source(64, 7), PipelineConfig::default()).run(4);
    let replayed = replayed();
    assert_eq!(replayed.len(), fresh.len());
    for (got, want) in replayed.iter().zip(&fresh) {
        let i = want.stats.window_index;
        assert_eq!(got.matrix, want.matrix, "window {i}");
        // Every stat but the wall-clock `elapsed` of the recording run.
        let mut stats = got.stats.clone();
        stats.elapsed = want.stats.elapsed;
        assert_eq!(stats, want.stats, "window {i}");
    }
}

#[test]
fn v3_deltas_are_served_transcoded_and_decode_cell_for_cell() {
    // A delta entry is forwarded only in the layout encoding writes now:
    // a v3 entry goes out re-encoded, and a client decodes it.
    let replayed = replayed();
    let mut scratch = DecodeScratch::new();
    for (i, report) in replayed.iter().enumerate() {
        let base = (i % 2 == 1).then(|| &replayed[i - 1]);
        let frame = window_frame(report, base);
        assert_eq!(frame.forwarded, base.is_none(), "window {i}");
        let payload = match read_frame(&mut &frame.bytes[..]).unwrap() {
            Frame::Window(decoded) => {
                assert_eq!(decoded.matrix, report.matrix);
                tw_ingest::encode_window(&decoded)
            }
            Frame::DeltaWindow(payload) => payload,
            other => panic!("window {i}: unexpected frame {other:?}"),
        };
        let decoded = decode_window_into(&payload, &mut scratch).unwrap();
        assert_eq!(decoded.matrix, report.matrix, "window {i}");
        assert_eq!(decoded.stats, report.stats, "window {i}");
    }
}
