//! Property tests for the v3 delta codec and cross-version decoding: a v2
//! window reads bit-identically under the v4 reader (and serves as a delta
//! base), any delta chain is
//! cell-for-cell equal to the full stream it compresses (including seeks
//! landing mid-chain), and no byte stream — full, delta, mixed, or corrupt
//! — panics the decoder.

use proptest::prelude::*;
use std::io::Cursor;
use std::time::Duration;
use tw_ingest::frame::{read_raw_frame, window_frame, FrameKind};
use tw_ingest::{
    collect_stream, decode_window, decode_window_into, encode_window, encode_window_delta,
    ArchiveRecorder, DecodeScratch, IngestStats, RecordingMeta, ReplaySource, WindowReport,
    FULL_WINDOW_VERSION,
};
use tw_matrix::CsrMatrix;

#[path = "support/legacy_codec.rs"]
mod legacy_codec;

/// An arbitrary window report over an `n`-address space (same coalescing as
/// the real COO path: sorted, deduplicated, no stored zeros).
fn arb_report(n: usize) -> impl Strategy<Value = WindowReport> {
    let entries = prop::collection::vec((0..n as u32, 0..n as u32, any::<u64>()), 0..80);
    (entries, any::<u64>(), any::<u64>()).prop_map(move |(entries, events, packets)| {
        let mut triples: Vec<(usize, usize, u64)> = entries
            .into_iter()
            .map(|(r, c, v)| (r as usize, c as usize, v))
            .collect();
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        triples.dedup_by_key(|&mut (r, c, _)| (r, c));
        triples.retain(|&(_, _, v)| v != 0);
        let matrix = CsrMatrix::from_sorted_triples(n, n, &triples);
        let nnz = matrix.nnz();
        WindowReport {
            matrix,
            stats: IngestStats {
                window_index: 0,
                events,
                packets,
                nnz,
                dropped_late: 0,
                reordered: 1,
                elapsed: Duration::from_nanos(42),
            },
            frame: None,
        }
    })
}

/// Re-index a generated window sequence like a pipeline would.
fn reindex(mut reports: Vec<WindowReport>) -> Vec<WindowReport> {
    for (i, report) in reports.iter_mut().enumerate() {
        report.stats.window_index = i as u64;
    }
    reports
}

/// Record a window sequence at the given key-frame cadence.
fn record(reports: &[WindowReport], keyframe_every: u64) -> Vec<u8> {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "proptest".to_string(),
        seed: 42,
        node_count: reports
            .iter()
            .map(|r| r.matrix.rows())
            .max()
            .unwrap_or(1)
            .max(1),
        window_us: 1_000,
        keyframe_every,
    });
    for report in reports {
        recorder.record(report).unwrap();
    }
    recorder.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_round_trips_any_window_pair(
        prev in arb_report(48),
        cur in arb_report(48),
    ) {
        let reports = reindex(vec![prev, cur]);
        let delta = encode_window_delta(&reports[0], &reports[1]);
        let mut scratch = DecodeScratch::new();
        // Arm the scratch with the base, exactly as a reader would.
        let base = decode_window_into(&encode_window(&reports[0]), &mut scratch).unwrap();
        prop_assert_eq!(&base, &reports[0]);
        let decoded = decode_window_into(&delta, &mut scratch).unwrap();
        prop_assert_eq!(&decoded.matrix, &reports[1].matrix);
        prop_assert_eq!(&decoded.stats, &reports[1].stats);
    }

    #[test]
    fn v2_windows_decode_bit_identically_under_the_v3_reader(
        report in arb_report(64),
        next in arb_report(64),
    ) {
        // Recordings made before v4 hold v2 full windows: both the plain
        // decoder and the scratch path read them to the same report as the
        // v4 bytes the encoder writes now, and a v2 window held as a
        // scratch's base takes a delta like a v4 one.
        let v4 = encode_window(&report);
        prop_assert_eq!(v4[4], FULL_WINDOW_VERSION);
        let v2 = legacy_codec::encode_legacy(&report, 2);
        let reports = reindex(vec![report, next]);
        let delta = encode_window_delta(&reports[0], &reports[1]);
        for bytes in [v4, v2] {
            let plain = decode_window(&bytes).unwrap();
            let mut scratch = DecodeScratch::new();
            let scratched = decode_window_into(&bytes, &mut scratch).unwrap();
            prop_assert_eq!(&plain, &reports[0]);
            prop_assert_eq!(&scratched, &reports[0]);
            let patched = decode_window_into(&delta, &mut scratch).unwrap();
            prop_assert_eq!(&patched, &reports[1]);
        }
    }

    #[test]
    fn delta_chains_replay_and_seek_cell_for_cell(
        reports in prop::collection::vec(arb_report(32), 1..9),
        keyframe_every in 0u64..=5,
        target in 0usize..9,
    ) {
        let reports = reindex(reports);
        let bytes = record(&reports, keyframe_every);

        // Straight replay: every window equals the recorded one.
        let mut replay = ReplaySource::new(Cursor::new(&bytes)).unwrap();
        let replayed = collect_stream(&mut replay, usize::MAX).unwrap();
        prop_assert_eq!(replayed.len(), reports.len());
        for (replayed, recorded) in replayed.iter().zip(&reports) {
            prop_assert_eq!(&replayed.matrix, &recorded.matrix);
            prop_assert_eq!(&replayed.stats, &recorded.stats);
        }

        // Seeking lands on a covering key frame and rolls forward, so the
        // window pulled after any in-range seek is exactly the target.
        let target = target.min(reports.len() - 1);
        let mut seeker = ReplaySource::new(Cursor::new(bytes)).unwrap();
        let key = seeker.seek(target).unwrap();
        prop_assert!(key <= target);
        if keyframe_every > 0 {
            prop_assert_eq!(key, target - target % keyframe_every as usize);
        } else {
            prop_assert_eq!(key, target);
        }
        let got = seeker.next_window().unwrap().expect("target in range");
        prop_assert_eq!(&got.matrix, &reports[target].matrix);
        prop_assert_eq!(&got.stats, &reports[target].stats);
    }

    #[test]
    fn keyframe_cadence_chains_decode_without_recycling(
        reports in prop::collection::vec(arb_report(32), 1..12),
        keyframe_every in 1u64..=5,
        reset_at in prop::option::of(0usize..12),
    ) {
        // Encode like the recorder and the serve loop: a full window every
        // `keyframe_every`, deltas against the previous window in between.
        // The consumer never hands matrices back, so every base comes from
        // the scratch itself — a full window's stored payload or a
        // delta-produced matrix. A reset() mid-chain forgets the base: the
        // chain's deltas then fail with a base mismatch until the next key
        // frame re-anchors it.
        let reports = reindex(reports);
        let payloads: Vec<Vec<u8>> = reports
            .iter()
            .enumerate()
            .map(|(i, report)| {
                if (i as u64).is_multiple_of(keyframe_every) {
                    encode_window(report)
                } else {
                    encode_window_delta(&reports[i - 1], report)
                }
            })
            .collect();
        let mut scratch = DecodeScratch::new();
        let mut anchored = true;
        for (i, (payload, want)) in payloads.iter().zip(&reports).enumerate() {
            if reset_at == Some(i) {
                // The scratch forgets its base: the next delta must fail below.
                scratch.reset();
                anchored = false;
            }
            let keyframe = (i as u64).is_multiple_of(keyframe_every);
            anchored |= keyframe;
            match decode_window_into(payload, &mut scratch) {
                Ok(got) => {
                    prop_assert!(anchored, "window {} decoded without a base", i);
                    prop_assert_eq!(&got.matrix, &want.matrix, "window {}", i);
                    prop_assert_eq!(&got.stats, &want.stats);
                }
                Err(e) => {
                    prop_assert!(!anchored, "window {} failed: {}", i, e);
                    prop_assert_eq!(
                        e,
                        tw_ingest::CodecError::DeltaBaseMismatch {
                            expected: i as u64 - 1,
                            actual: None,
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_frame_streams_never_panic(
        reports in prop::collection::vec(arb_report(24), 2..8),
        as_delta in prop::collection::vec(any::<bool>(), 2..8),
        skip_first in any::<bool>(),
    ) {
        // Interleave v2 full frames and v3 delta frames in an arbitrary
        // pattern — including chains whose base a reader joining late (or a
        // mis-ordered writer) never saw. Decoding may error (base
        // mismatch), but must never panic, and every full frame must reset
        // the chain so later windows decode again.
        let reports = reindex(reports);
        let mut wire = Vec::new();
        for (i, report) in reports.iter().enumerate() {
            let delta = i > 0 && as_delta.get(i).copied().unwrap_or(false);
            let base = delta.then(|| &reports[i - 1]);
            wire.extend_from_slice(&window_frame(report, base).bytes);
        }
        let mut cursor = Cursor::new(&wire);
        let mut scratch = DecodeScratch::new();
        if skip_first {
            // Drop the head frame: a mid-stream joiner's view.
            let _ = read_raw_frame(&mut cursor);
        }
        let mut decoded_any = false;
        while let Ok((kind, payload)) = read_raw_frame(&mut cursor) {
            prop_assert!(matches!(kind, FrameKind::Window | FrameKind::DeltaWindow));
            if decode_window_into(&payload, &mut scratch).is_ok() {
                decoded_any = true;
            }
        }
        if !skip_first {
            // The stream opens with a self-contained full frame, so a
            // from-the-start reader always decodes at least that one.
            prop_assert!(decoded_any);
        }
    }

    #[test]
    fn delta_decoder_never_panics_on_corrupted_payloads(
        prev in arb_report(24),
        cur in arb_report(24),
        flips in prop::collection::vec((0usize..4096, 1u8..=255), 1..6),
        armed in any::<bool>(),
    ) {
        let reports = reindex(vec![prev, cur]);
        let mut bytes = encode_window_delta(&reports[0], &reports[1]);
        for (pos, xor) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= xor;
        }
        let mut scratch = DecodeScratch::new();
        if armed {
            decode_window_into(&encode_window(&reports[0]), &mut scratch).unwrap();
        }
        // Either decodes (harmless flip) or errors; never panics.
        let _ = decode_window_into(&bytes, &mut scratch);
    }

    #[test]
    fn delta_decoder_never_panics_on_arbitrary_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..256),
        armed in any::<bool>(),
    ) {
        // Random bytes behind a valid delta header probe the delta parser
        // itself (a random prefix would usually fail at the magic check).
        let mut bytes = vec![b'T', b'W', b'W', b'R', 3];
        bytes.extend_from_slice(&tail);
        let mut scratch = DecodeScratch::new();
        if armed {
            let base = WindowReport {
                matrix: CsrMatrix::from_sorted_triples(8, 8, &[(1, 2, 3)]),
                stats: IngestStats {
                    window_index: 0,
                    events: 1,
                    packets: 3,
                    nnz: 1,
                    dropped_late: 0,
                    reordered: 0,
                    elapsed: Duration::from_nanos(1),
                },
                frame: None,
            };
            decode_window_into(&encode_window(&base), &mut scratch).unwrap();
        }
        let _ = decode_window_into(&bytes, &mut scratch);
    }
}
