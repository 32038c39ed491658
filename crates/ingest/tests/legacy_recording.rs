//! Recordings that real writers of earlier layouts produced still replay
//! cell for cell.
//!
//! `fixtures/ddos64_k2_v3.zip` was recorded with
//! `traffic-warehouse ingest --scenario ddos --nodes 64 --windows 4
//! --seed 7 --keyframe-every 2 --record …` by the last build whose
//! recorder wrote version-3 deltas (manifest version 3): entries 0 and 2
//! are version-4 full windows, entries 1 and 3 version-3 deltas.
//!
//! `fixtures/ddos64_k2_v4.zip` was recorded the same way (the default seed
//! is 7) by the last build whose recorder wrote version-4 full windows
//! (manifest version 4): entries 0 and 2 are version-4 full windows,
//! entries 1 and 3 version-5 deltas. A version-4 run is read as a
//! version-6 run of fold width 0, so this fixture pins that reading
//! against bytes the version-6 encoder never wrote.
//!
//! A fresh pipeline run of the same scenario and seed gives the same
//! windows, so the readers are pinned against bytes the real writers
//! produced, not only against test-local ones.

use std::io::Cursor;
use tw_archive::ZipReader;
use tw_ingest::codec::decode_window_into_scalar;
use tw_ingest::frame::{read_frame, window_frame, Frame};
use tw_ingest::{
    collect_stream, decode_window_into, DecodeScratch, Pipeline, PipelineConfig, ReplaySource,
    Scenario, WindowReport, FULL_WINDOW_VERSION,
};

const RECORDING: &[u8] = include_bytes!("fixtures/ddos64_k2_v3.zip");
const V4_RECORDING: &[u8] = include_bytes!("fixtures/ddos64_k2_v4.zip");

fn replayed_from(recording: &[u8]) -> Vec<WindowReport> {
    let mut replay = ReplaySource::new(Cursor::new(recording)).unwrap();
    assert_eq!(replay.manifest().scenario, "ddos");
    assert_eq!(replay.manifest().keyframe_every, 2);
    collect_stream(&mut replay, usize::MAX).unwrap()
}

fn replayed() -> Vec<WindowReport> {
    replayed_from(RECORDING)
}

/// The manifest version and each entry's codec version of a recording.
fn layout(recording: &[u8]) -> (String, Vec<u8>) {
    let mut reader = ZipReader::parse(Cursor::new(recording)).unwrap();
    let manifest = reader.read_text("manifest.json").unwrap();
    let versions = (0..4)
        .map(|i| reader.read(&format!("windows/{i:08}.bin")).unwrap()[4])
        .collect();
    (manifest, versions)
}

/// `got` holds `want`'s windows, every stat but the wall-clock `elapsed`
/// of the recording run included.
fn assert_fresh(got: &[WindowReport], want: &[WindowReport]) {
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(want) {
        let i = want.stats.window_index;
        assert_eq!(got.matrix, want.matrix, "window {i}");
        let mut stats = got.stats.clone();
        stats.elapsed = want.stats.elapsed;
        assert_eq!(stats, want.stats, "window {i}");
    }
}

fn fresh() -> Vec<WindowReport> {
    Pipeline::new(Scenario::Ddos.source(64, 7), PipelineConfig::default()).run(4)
}

#[test]
fn the_fixture_holds_v3_deltas_between_v4_key_frames() {
    let (manifest, versions) = layout(RECORDING);
    assert!(manifest.contains("\"version\": 3"), "{manifest}");
    assert_eq!(versions, [4, 3, 4, 3]);
}

#[test]
fn a_v3_recording_replays_like_a_fresh_pipeline_run() {
    assert_fresh(&replayed(), &fresh());
}

#[test]
fn v3_deltas_are_served_transcoded_and_decode_cell_for_cell() {
    // A window is forwarded only in the layout encoding writes now: the
    // v4 key frames and the v3 deltas all go out re-encoded, and a client
    // decodes them.
    let replayed = replayed();
    let mut scratch = DecodeScratch::new();
    for (i, report) in replayed.iter().enumerate() {
        let base = (i % 2 == 1).then(|| &replayed[i - 1]);
        let frame = window_frame(report, base);
        assert!(!frame.forwarded, "window {i}");
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

#[test]
fn the_v4_fixture_holds_v5_deltas_between_v4_key_frames() {
    let (manifest, versions) = layout(V4_RECORDING);
    assert!(manifest.contains("\"version\": 4"), "{manifest}");
    assert_eq!(versions, [4, 5, 4, 5]);
}

#[test]
fn a_v4_recording_replays_like_a_fresh_pipeline_run_through_both_cell_loops() {
    let fresh = fresh();
    assert_fresh(&replayed_from(V4_RECORDING), &fresh);
    // Every entry decoded by hand through the dispatched block kernel and
    // through the scalar loop alone: the key frames are fold-width-0 runs.
    let mut reader = ZipReader::parse(Cursor::new(V4_RECORDING)).unwrap();
    let entries: Vec<Vec<u8>> = (0..4)
        .map(|i| reader.read(&format!("windows/{i:08}.bin")).unwrap())
        .collect();
    let (mut dispatch, mut scalar) = (DecodeScratch::new(), DecodeScratch::new());
    let mut by_dispatch = Vec::new();
    let mut by_scalar = Vec::new();
    for entry in &entries {
        by_dispatch.push(decode_window_into(entry, &mut dispatch).unwrap());
        by_scalar.push(decode_window_into_scalar(entry, &mut scalar).unwrap());
    }
    assert_fresh(&by_dispatch, &fresh);
    assert_fresh(&by_scalar, &fresh);
}

#[test]
fn v4_key_frames_are_served_transcoded_to_v6() {
    // The v5 deltas are the current delta layout and go out as recorded;
    // the v4 key frames are re-encoded as v6.
    let replayed = replayed_from(V4_RECORDING);
    for (i, report) in replayed.iter().enumerate() {
        let base = (i % 2 == 1).then(|| &replayed[i - 1]);
        let frame = window_frame(report, base);
        assert_eq!(frame.forwarded, base.is_some(), "window {i}");
        if base.is_none() {
            match read_frame(&mut &frame.bytes[..]).unwrap() {
                Frame::Window(decoded) => assert_eq!(decoded.matrix, report.matrix),
                other => panic!("window {i}: unexpected frame {other:?}"),
            }
            let payload = &frame.bytes[10..frame.bytes.len() - 4];
            assert_eq!(payload[4], FULL_WINDOW_VERSION, "window {i}");
        }
    }
}
