//! Adversarial property tests for the wire-frame decoder: whatever bytes a
//! hostile or broken peer sends, decoding returns a typed [`FrameError`] —
//! it never panics and never allocates past the declared-length guard.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{decode_window_into, encode_window, encode_window_delta, DecodeScratch};
use tw_ingest::frame::{
    encode_close_frame, encode_frame, encode_manifest_frame, encode_stats_frame, read_frame,
    window_frame, CloseSummary, Frame, FrameError, FrameKind, StreamManifest, MAX_FRAME_LEN,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;
use tw_metrics::MetricsSnapshot;

/// Encode and frame one full window.
fn encode_report_frame(report: &WindowReport) -> Vec<u8> {
    encode_frame(FrameKind::Window, &encode_window(report))
}

/// Decode the first frame in a byte slice; returns the frame and the number
/// of bytes it consumed.
fn decode_frame(data: &[u8]) -> Result<(Frame, usize), FrameError> {
    let mut cursor = data;
    let frame = read_frame(&mut cursor)?;
    Ok((frame, data.len() - cursor.len()))
}

fn arb_report(n: usize) -> impl Strategy<Value = WindowReport> {
    let entries = prop::collection::vec((0..n as u32, 0..n as u32, 1u64..1_000), 0..60);
    (entries, any::<u64>(), any::<u64>()).prop_map(move |(entries, window_index, events)| {
        let mut triples: Vec<(usize, usize, u64)> = entries
            .into_iter()
            .map(|(r, c, v)| (r as usize, c as usize, v))
            .collect();
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        triples.dedup_by_key(|&mut (r, c, _)| (r, c));
        let matrix = CsrMatrix::from_sorted_triples(n, n, &triples);
        let nnz = matrix.nnz();
        WindowReport {
            matrix,
            stats: IngestStats {
                window_index,
                events,
                packets: events,
                nnz,
                dropped_late: 0,
                reordered: 0,
                elapsed: Duration::from_nanos(1),
            },
            frame: None,
        }
    })
}

fn arb_manifest() -> impl Strategy<Value = StreamManifest> {
    (
        "[a-z0-9:._-]{0,24}",
        any::<u64>(),
        0usize..1 << 20,
        any::<u64>(),
        prop::option::of(any::<u64>()),
    )
        .prop_map(
            |(scenario, seed, node_count, window_us, windows)| StreamManifest {
                scenario,
                seed,
                node_count,
                window_us,
                windows,
            },
        )
}

/// An arbitrary metrics snapshot, built from observations so bucket counts,
/// totals, and maxima are always mutually consistent. Counter values stay
/// below 2^62: the JSON integer representation is i64, so larger values
/// round-trip through a float and lose exactness by design.
fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop::collection::vec(("[a-z.]{1,10}", 0u64..1 << 62), 0..5),
        prop::collection::vec(("[a-z.]{1,10}", any::<i64>()), 0..5),
        prop::collection::vec(
            ("[a-z.]{1,10}", prop::collection::vec(0u64..1 << 56, 0..20)),
            0..4,
        ),
    )
        .prop_map(|(counters, gauges, histograms)| {
            let mut snapshot = MetricsSnapshot::default();
            for (name, value) in counters {
                snapshot.counters.insert(name, value);
            }
            for (name, value) in gauges {
                snapshot.gauges.insert(name, value);
            }
            for (name, values) in histograms {
                let histogram = tw_metrics::Histogram::default();
                for value in values {
                    histogram.observe(value);
                }
                snapshot.histograms.insert(name, histogram.snapshot());
            }
            snapshot
        })
}

/// An arbitrary well-formed frame of any kind.
fn arb_frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_report(32).prop_map(|r| encode_report_frame(&r)),
        arb_manifest().prop_map(|m| encode_manifest_frame(&m)),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(windows, delivered, dropped, missed)| encode_close_frame(&CloseSummary {
                windows,
                delivered,
                dropped,
                missed,
            })
        ),
        arb_snapshot().prop_map(|s| encode_stats_frame(&s)),
        (arb_report(32), arb_report(32))
            .prop_map(|(base, next)| window_frame(&next, Some(&base)).bytes.to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_frame_round_trips(report in arb_report(48), manifest in arb_manifest()) {
        let bytes = encode_report_frame(&report);
        match decode_frame(&bytes) {
            Ok((Frame::Window(decoded), consumed)) => {
                prop_assert_eq!(consumed, bytes.len());
                prop_assert_eq!(&decoded.matrix, &report.matrix);
                prop_assert_eq!(&decoded.stats, &report.stats);
            }
            other => return Err(TestCaseError::fail(format!("expected a window, got {other:?}"))),
        }
        let bytes = encode_manifest_frame(&manifest);
        prop_assert_eq!(decode_frame(&bytes), Ok((Frame::Manifest(manifest), bytes.len())));
    }

    #[test]
    fn stats_frames_round_trip_exactly(snapshot in arb_snapshot()) {
        let bytes = encode_stats_frame(&snapshot);
        prop_assert_eq!(decode_frame(&bytes), Ok((Frame::Stats(snapshot), bytes.len())));
    }

    #[test]
    fn delta_frames_round_trip_and_patch(base in arb_report(24), next in arb_report(24)) {
        // FrameKind::DeltaWindow end to end: frame the v3 delta bytes, get
        // them back untouched, then patch a scratch holding the base window
        // and recover `next` exactly.
        let delta = encode_window_delta(&base, &next);
        let bytes = window_frame(&next, Some(&base)).bytes;
        match decode_frame(&bytes) {
            Ok((Frame::DeltaWindow(payload), consumed)) => {
                prop_assert_eq!(consumed, bytes.len());
                prop_assert_eq!(&payload, &delta);
                let mut scratch = DecodeScratch::new();
                if let Err(e) = decode_window_into(&encode_window(&base), &mut scratch) {
                    return Err(TestCaseError::fail(format!("base decode failed: {e}")));
                }
                match decode_window_into(&payload, &mut scratch) {
                    Ok(patched) => {
                        prop_assert_eq!(&patched.matrix, &next.matrix);
                        prop_assert_eq!(&patched.stats, &next.stats);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("delta decode failed: {e}"))),
                }
            }
            other => return Err(TestCaseError::fail(format!("expected a delta window, got {other:?}"))),
        }
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..512)) {
        // Whatever garbage arrives, the result is a typed error or a
        // (vanishingly unlikely) valid frame — never a panic, and never an
        // allocation driven by an unvalidated length field.
        let _ = decode_frame(&data);
    }

    #[test]
    fn decoder_never_panics_on_mutated_frames(
        frame in arb_frame_bytes(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let mut bytes = frame;
        for (pos, xor) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= xor;
        }
        let _ = decode_frame(&bytes);
    }

    #[test]
    fn truncated_frames_report_truncation(frame in arb_frame_bytes(), cut in any::<usize>()) {
        // Any strict prefix of a valid frame is a clean Truncated error.
        let cut = cut % frame.len();
        prop_assert!(matches!(
            decode_frame(&frame[..cut]),
            Err(FrameError::Truncated(_))
        ));
    }

    #[test]
    fn declared_lengths_beyond_the_guard_never_allocate(
        frame in arb_frame_bytes(),
        declared in (MAX_FRAME_LEN as u32 + 1)..=u32::MAX,
    ) {
        let mut bytes = frame;
        bytes[6..10].copy_from_slice(&declared.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { declared: u64::from(declared) })
        );
    }

    #[test]
    fn corrupted_payload_bytes_never_decode_silently(
        report in arb_report(32),
        flip in (0usize..usize::MAX, 1u8..=255),
    ) {
        // A flip inside the payload (magic/version/kind/length and the CRC
        // trailer excluded) must surface as an error — the CRC catches what
        // the window codec's structure checks might let through.
        let mut bytes = encode_report_frame(&report);
        // An encoded window payload is never empty (stats alone are several
        // varints), so the modulo below is well-defined.
        let payload_len = bytes.len() - 10 - 4;
        let (pos, xor) = flip;
        bytes[10 + pos % payload_len] ^= xor;
        prop_assert!(decode_frame(&bytes).is_err());
    }

    #[test]
    fn streams_of_frames_decode_in_order_then_truncate_cleanly(
        reports in prop::collection::vec(arb_report(24), 1..5),
    ) {
        let mut wire = Vec::new();
        for report in &reports {
            wire.extend_from_slice(&encode_report_frame(report));
        }
        let mut cursor: &[u8] = &wire;
        for report in &reports {
            match read_frame(&mut cursor) {
                Ok(Frame::Window(decoded)) => prop_assert_eq!(&decoded.matrix, &report.matrix),
                other => return Err(TestCaseError::fail(format!("expected a window, got {other:?}"))),
            }
        }
        prop_assert_eq!(read_frame(&mut cursor), Err(FrameError::Truncated("frame header")));
    }
}
