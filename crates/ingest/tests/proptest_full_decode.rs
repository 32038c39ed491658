//! Differential property tests for the full-window decoder.
//!
//! The decoder reads runs of one- and two-byte varints 16 bytes at a time
//! where the CPU has the block kernel and one cell at a time everywhere
//! else. `reference_decode`
//! (in the test-local `reference_codec`) is a plain cell-at-a-time decoder
//! of every layout, written independently of the codec module, with the
//! codec's error for every failure. Here it reads the version-4 run of
//! linear-index gaps `encode_window` writes, and the version-2 per-row
//! layout of older recordings (written by the test-local `legacy_codec`
//! writer). Over windows mixing one-byte and
//! multi-byte varints (values and gaps on both sides of 127/128 and
//! 16,383/16,384, rows of 0–9 cells, runs of empty rows, a last cell at
//! the matrix's last index), both decode entry points must return exactly
//! what the reference returns: for the encoded bytes, for every
//! single-byte flip of them and for every truncation — the same window, or
//! the same `CodecError` variant and message.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window, decode_window_into, encode_window, DecodeScratch, FULL_WINDOW_VERSION,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/legacy_codec.rs"]
mod legacy_codec;
#[path = "support/reference_codec.rs"]
mod reference_codec;

use reference_codec::{reference_decode, Decoded};

/// Both decode entry points must agree with the reference on `data`.
fn check(data: &[u8]) -> Result<(), TestCaseError> {
    let want = reference_decode(data, None);
    let got = decode_window(data).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got, &want, "decode_window on {:?}", data);
    let mut scratch = DecodeScratch::new();
    let got_into = decode_window_into(data, &mut scratch).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got_into, &want, "decode_window_into on {:?}", data);
    Ok(())
}

/// A column gap within a row: small, around the one-byte and two-byte
/// varint limits, or anywhere in a few hundred.
fn gap(small: bool) -> BoxedStrategy<usize> {
    if small {
        (0usize..4).boxed()
    } else {
        prop_oneof![0usize..3, 125usize..131, 16_380usize..16_390, 0usize..400].boxed()
    }
}

/// A stored value: one byte, around 127/128, around the two-byte limit,
/// or anything.
fn value(small: bool) -> BoxedStrategy<u64> {
    if small {
        (1u64..128).boxed()
    } else {
        prop_oneof![
            1u64..4,
            1u64..4,
            125u64..131,
            16_380u64..16_390,
            1u64..u64::MAX
        ]
        .boxed()
    }
}

/// A column count floor: narrow, or around 128 and 16,384, so a run of
/// one-cell rows at column 0 gives linear gaps of `cols - 1` on both sides
/// of the one-byte and two-byte varint limits.
fn cols_floor() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..9, 126usize..131, 16_382usize..16_387]
}

/// One row: its gap from the previous one and 0–9 cells, either all
/// one-byte varints (the block path's fastest case) or mixed. An empty row only
/// widens the next row's gap.
///
/// Row gaps stay under 16, so a window has fewer than 128 rows: a flip in
/// the one-byte row count then claims at most 16,383 rows, and no case
/// spends its time zeroing a row index of millions of entries.
fn arb_row() -> impl Strategy<Value = (usize, Vec<(usize, u64)>)> {
    any::<bool>().prop_flat_map(|small| {
        (
            0usize..16,
            prop::collection::vec((gap(small), value(small)), 0..=9),
        )
    })
}

/// A window of 1–7 rows, with 0–2 spare rows and columns past the last
/// cell (so a cell can sit on the last column), optionally a cell at the
/// matrix's last index, and arbitrary stats.
fn arb_window() -> impl Strategy<Value = WindowReport> {
    (
        prop::collection::vec(arb_row(), 1..8),
        (0usize..3, 0usize..3, cols_floor(), any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                rows,
                (row_slack, col_slack, cols_floor, last_cell),
                (window_index, events, packets),
                (late, reordered, ns),
            )| {
                let mut triples = Vec::new();
                let mut next_row = 0;
                for (row_gap, cells) in rows {
                    let r = next_row + row_gap;
                    next_row = r + 1;
                    let mut next_col = 0;
                    for (col_gap, v) in cells {
                        let c = next_col + col_gap;
                        next_col = c + 1;
                        triples.push((r, c, v));
                    }
                }
                let max_row = triples.iter().map(|&(r, _, _)| r).max().unwrap_or(0);
                let max_col = triples.iter().map(|&(_, c, _)| c).max().unwrap_or(0);
                let (n_rows, n_cols) = (
                    max_row + 1 + row_slack,
                    (max_col + 1 + col_slack).max(cols_floor),
                );
                if last_cell
                    && triples.last().map(|&(r, c, _)| (r, c)) != Some((n_rows - 1, n_cols - 1))
                {
                    triples.push((n_rows - 1, n_cols - 1, 1));
                }
                let matrix = CsrMatrix::from_sorted_triples(n_rows, n_cols, &triples);
                let nnz = matrix.nnz();
                WindowReport {
                    matrix: matrix.into(),
                    stats: IngestStats {
                        window_index,
                        events,
                        packets,
                        nnz,
                        dropped_late: late,
                        reordered,
                        elapsed: Duration::from_nanos(ns),
                    },
                    frame: None,
                }
            },
        )
}

/// The window in every full layout the decoder reads that the tests
/// cover: version 4 as the codec writes it, version 2 as older recordings
/// hold it.
fn layouts(report: &WindowReport) -> [Vec<u8>; 2] {
    let v4 = encode_window(report);
    assert_eq!(v4[4], FULL_WINDOW_VERSION);
    [v4, legacy_codec::encode_legacy(report, 2)]
}

/// A window with exactly `cells` and arbitrary stats, for the round trip.
fn arb_sparse_window() -> impl Strategy<Value = WindowReport> {
    (
        prop_oneof![
            Just((1usize, 1usize)),
            (1usize..4, 1usize..4),
            (1usize..6, 1_000usize..70_000)
        ],
        prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..u64::MAX), 0..24),
        any::<u64>(),
    )
        .prop_map(|((rows, cols), cells, ns)| {
            let mut triples: Vec<(usize, usize, u64)> = cells
                .into_iter()
                .map(|(r, c, v)| (r as usize % rows, c as usize % cols, v))
                .collect();
            triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
            triples.dedup_by_key(|&mut (r, c, _)| (r, c));
            let matrix = CsrMatrix::from_sorted_triples(rows, cols, &triples);
            let nnz = matrix.nnz();
            WindowReport {
                matrix: matrix.into(),
                stats: IngestStats {
                    window_index: 1,
                    events: nnz as u64,
                    packets: 2,
                    nnz,
                    dropped_late: 3,
                    reordered: 4,
                    elapsed: Duration::from_nanos(ns),
                },
                frame: None,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decoder_equals_the_per_cell_reference(report in arb_window()) {
        for bytes in layouts(&report) {
            prop_assert_eq!(reference_decode(&bytes, None), Ok(Decoded::of(&report)));
            check(&bytes)?;
        }
    }

    #[test]
    fn every_single_byte_flip_decodes_as_the_reference_does(
        report in arb_window(),
        extra in 1u8..=255,
    ) {
        for bytes in layouts(&report) {
            for pos in 0..bytes.len() {
                // The lowest and highest payload bits, the continuation bit
                // (which merges or splits varints and shifts every later
                // field), all bits, and one arbitrary pattern per case.
                for xor in [0x01, 0x40, 0x80, 0xFF, extra] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= xor;
                    check(&corrupt)?;
                }
            }
        }
    }

    #[test]
    fn every_truncation_decodes_as_the_reference_does(report in arb_window()) {
        for bytes in layouts(&report) {
            for len in 0..bytes.len() {
                check(&bytes[..len])?;
            }
        }
    }

    #[test]
    fn sparse_and_tiny_windows_round_trip(report in arb_sparse_window()) {
        let bytes = encode_window(&report);
        prop_assert_eq!(&decode_window(&bytes).unwrap(), &report);
        let mut scratch = DecodeScratch::new();
        prop_assert_eq!(&decode_window_into(&bytes, &mut scratch).unwrap(), &report);
    }
}
