//! Property tests for the version-6 fold: each cell is one varint
//! `gap << k | f`, its value folded in as `f` when `1 <= value < 2^k` and
//! escaped after it otherwise.
//!
//! Windows are laid out by linear-index gap from gaps and values at the
//! varint edges (127/128, 16,383/16,384) and at the fold's own edges: a
//! value of `2^k − 1`, `2^k` or `2^k + 1` for some `k`, a gap whose
//! `gap << k` sits at a varint edge, stored zeros and `u64::MAX`. Each is
//! written by the test-side reference writer at every fold width 0–8, and
//! every decode entry point — the dispatched block kernel, the scalar
//! cell loop and the independent `reference_decode` — must read the window
//! back at every width. Every single-byte flip and every truncation of a
//! payload must give all three the same `Result`: the same window, or the
//! same typed `CodecError`.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window, decode_window_into, decode_window_into_scalar, DecodeScratch, MAX_FOLD_BITS,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/reference_codec.rs"]
mod reference_codec;
#[path = "support/reference_encoder.rs"]
mod reference_encoder;

use reference_codec::{reference_decode, Decoded};
use reference_encoder::encode_reference_folded;

/// A linear-index gap: mostly a run of one-byte cells, or `gap << k` at a
/// varint edge for some `k`, or anything up to a few rows of 2^16.
fn arb_gap() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..4,
        0u64..4,
        0u64..4,
        (0u32..8, 0u64..3).prop_map(|(k, d)| (1 << (7 - k)) + d - 1),
        (0u32..8, 0u64..3).prop_map(|(k, d)| (1 << (14 - k)) + d - 1),
        0u64..300,
        0u64..200_000,
    ]
    .boxed()
}

/// A value: small (the values most lesson cells hold), at a fold edge
/// `2^k ± 1`, at a varint edge, a stored zero, `u64::MAX`, or anything.
fn arb_value() -> BoxedStrategy<u64> {
    prop_oneof![
        1u64..16,
        1u64..16,
        1u64..32,
        (0u32..=8, 0u64..3).prop_map(|(k, d)| (1 << k) + d - 1),
        prop_oneof![Just(0u64), Just(127), Just(128), Just(16_383), Just(16_384)],
        Just(u64::MAX),
        any::<u64>(),
    ]
    .boxed()
}

/// A width: narrow, around 128, 4,096 columns, or either side of the
/// block kernel's 2^16 limit.
fn arb_width() -> BoxedStrategy<usize> {
    prop_oneof![
        1usize..40,
        126usize..131,
        Just(4_096usize),
        65_535usize..65_538
    ]
    .boxed()
}

/// The most rows a generated window may take, so a case's `row_ptr` stays
/// small.
const MAX_ROWS: u64 = 1 << 16;

/// Lay out `cells` (gap, value) in a window `cols` wide with `spare_rows`
/// empty rows after the last cell. A gap that would pass [`MAX_ROWS`] rows
/// is cut to the width.
fn window(cols: usize, cells: &[(u64, u64)], spare_rows: usize) -> WindowReport {
    let width = cols as u64;
    let mut next = 0u64;
    let mut triples = Vec::with_capacity(cells.len());
    for &(gap, value) in cells {
        let mut index = next + gap;
        if index / width >= MAX_ROWS {
            index = next + gap % width;
        }
        if index / width >= MAX_ROWS {
            break;
        }
        next = index + 1;
        triples.push(((index / width) as usize, (index % width) as usize, value));
    }
    let rows = triples.last().map_or(0, |&(r, _, _)| r + 1) + spare_rows;
    let matrix = CsrMatrix::from_sorted_triples(rows, cols, &triples);
    let nnz = matrix.nnz();
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: 6,
            events: nnz as u64,
            packets: 7,
            nnz,
            dropped_late: 0,
            reordered: 1,
            elapsed: Duration::from_nanos(99),
        },
        frame: None,
    }
}

/// Every decode entry point returns what the reference returns on `data`,
/// and the dispatched kernel what the scalar loop returns.
fn check(data: &[u8]) -> Result<Result<Decoded, tw_ingest::CodecError>, TestCaseError> {
    let want = reference_decode(data, None);
    let scalar =
        decode_window_into_scalar(data, &mut DecodeScratch::new()).map(|r| Decoded::of(&r));
    prop_assert_eq!(&scalar, &want, "scalar loop on {:?}", data);
    let dispatch = decode_window_into(data, &mut DecodeScratch::new()).map(|r| Decoded::of(&r));
    prop_assert_eq!(&dispatch, &want, "dispatch on {:?}", data);
    let stateless = decode_window(data).map(|r| Decoded::of(&r));
    prop_assert_eq!(&stateless, &want, "decode_window on {:?}", data);
    Ok(want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_fold_width_round_trips(
        cols in arb_width(),
        cells in prop::collection::vec((arb_gap(), arb_value()), 0..80),
        spare_rows in 0usize..3,
    ) {
        let report = window(cols, &cells, spare_rows);
        for fold in 0..=u32::from(MAX_FOLD_BITS) {
            let bytes = encode_reference_folded(&report, fold);
            prop_assert_eq!(check(&bytes)?, Ok(Decoded::of(&report)), "fold {}", fold);
        }
    }

    #[test]
    fn every_flip_and_truncation_decodes_alike_in_every_loop(
        cols in arb_width(),
        cells in prop::collection::vec((arb_gap(), arb_value()), 8..40),
        fold in 0..=u32::from(MAX_FOLD_BITS),
        extra in 1u8..=255,
    ) {
        let report = window(cols, &cells, 1);
        let bytes = encode_reference_folded(&report, fold);
        for pos in 0..bytes.len() {
            // The lowest and highest payload bits, the continuation bit
            // (which merges or splits varints), all bits, and one
            // arbitrary pattern per case.
            for xor in [0x01, 0x40, 0x80, 0xFF, extra] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= xor;
                let _ = check(&corrupt)?;
            }
        }
        for len in 0..bytes.len() {
            prop_assert!(check(&bytes[..len])?.is_err(), "cut at {}", len);
        }
    }
}
