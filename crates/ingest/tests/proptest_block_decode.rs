//! Differential property tests for the version-4 block kernel.
//!
//! On an x86_64 CPU with SSSE3 the full-window decoders read runs of one-
//! and two-byte varints 16 bytes at a time and hand every other cell to
//! the scalar cell loop; [`decode_window_into_scalar`] reads every cell
//! through the scalar loop alone. Here windows are built from what makes a
//! block path take or refuse a cell — rows of one-byte cells, two-byte
//! in-row gaps and values, single-row crossings, gaps over empty rows and
//! three-byte varints — with the first such feature placed at every byte
//! offset 0–15 of the first block, over widths around 2^7, 2^10, 2^12 and
//! 2^16 columns; and windows of full rows 1–39 columns wide, so a row end
//! falls on every lane of a block. Every decode entry point must return
//! exactly what the scalar path returns: for the encoded bytes, for a
//! flipped byte and for a truncation — the same window, or the same
//! `CodecError`.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window, decode_window_into, decode_window_into_scalar, encode_window, DecodeScratch,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/reference_codec.rs"]
mod reference_codec;

use reference_codec::{reference_decode, Decoded};

/// Where the next cell goes, relative to the last one.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `gap` columns past the last cell, wrapping into the next row when
    /// the row is full.
    InRow(usize),
    /// Into the row `rows` on (1 = the next row), at `col` (modulo the
    /// width).
    Rows(usize, usize),
}

/// A value of one, two or three-plus bytes.
fn arb_value() -> BoxedStrategy<u64> {
    prop_oneof![
        1u64..128,
        1u64..128,
        1u64..128,
        128u64..16_384,
        16_384u64..u64::MAX
    ]
    .boxed()
}

/// A step of mostly one-byte in-row gaps.
fn arb_step() -> BoxedStrategy<Step> {
    prop_oneof![
        (0usize..4).prop_map(Step::InRow),
        (0usize..4).prop_map(Step::InRow),
        (0usize..4).prop_map(Step::InRow),
        (0usize..128).prop_map(Step::InRow),
        (128usize..16_384).prop_map(Step::InRow),
        (16_384usize..40_000).prop_map(Step::InRow),
        (0usize..8).prop_map(|col| Step::Rows(1, col)),
        (0usize..300).prop_map(|col| Step::Rows(1, col)),
        (2usize..6, 0usize..300).prop_map(|(rows, col)| Step::Rows(rows, col)),
    ]
    .boxed()
}

/// The feature placed at a chosen byte offset: a two-byte gap, a
/// crossing into the next row, a gap over empty rows, or a three-byte
/// gap (at even offsets); a two- or three-byte value (at odd ones).
fn arb_feature() -> BoxedStrategy<(Step, u64)> {
    prop_oneof![
        (128usize..16_384).prop_map(|gap| (Step::InRow(gap), 1)),
        (0usize..4).prop_map(|col| (Step::Rows(1, col), 1)),
        (2usize..5, 0usize..4).prop_map(|(rows, col)| (Step::Rows(rows, col), 1)),
        (16_384usize..100_000).prop_map(|gap| (Step::InRow(gap), 1)),
        (128u64..16_384).prop_map(|v| (Step::InRow(0), v)),
        (16_384u64..u64::MAX).prop_map(|v| (Step::InRow(0), v)),
    ]
    .boxed()
}

/// A width near a varint or lane boundary: 2^7, 2^10, 2^12, 2^16 (the
/// widest window the kernel reads), just past it, or a few columns.
fn arb_width() -> BoxedStrategy<usize> {
    prop_oneof![
        2usize..10,
        120usize..136,
        1_020usize..1_030,
        4_090usize..4_100,
        65_530usize..65_542
    ]
    .boxed()
}

/// Lay `steps` out as cells of a window `cols` wide, with `spare_rows`
/// empty rows after the last cell. `offset` one-byte cells come first,
/// each two bytes: an odd byte offset puts the feature in the value of the
/// cell after them.
fn window(
    cols: usize,
    offset: usize,
    feature: (Step, u64),
    steps: &[(Step, u64)],
    spare_rows: usize,
) -> WindowReport {
    let lead = (0..offset / 2).map(|_| (Step::InRow(0), 1));
    let (feature_step, feature_value) = feature;
    let feature = if offset % 2 == 1 {
        // The feature is a value: its cell's gap is one byte.
        (Step::InRow(0), feature_value.max(128))
    } else {
        (feature_step, feature_value)
    };
    let mut triples = Vec::new();
    let (mut row, mut next_col) = (0usize, 0usize);
    for (step, value) in lead.chain([feature]).chain(steps.iter().copied()) {
        let col = match step {
            Step::InRow(gap) => {
                let linear = row * cols + next_col + gap;
                row = linear / cols;
                linear % cols
            }
            Step::Rows(rows, col) => {
                row += rows;
                col % cols
            }
        };
        triples.push((row, col, value));
        next_col = col + 1;
        if next_col == cols {
            (row, next_col) = (row + 1, 0);
        }
    }
    let rows = triples.last().map_or(0, |&(r, _, _)| r + 1) + spare_rows;
    let matrix = CsrMatrix::from_sorted_triples(rows, cols, &triples);
    let nnz = matrix.nnz();
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: 9,
            events: nnz as u64,
            packets: 3,
            nnz,
            dropped_late: 0,
            reordered: 1,
            elapsed: Duration::from_nanos(77),
        },
        frame: None,
    }
}

/// A window whose first `rows` rows are full, then `spare_rows` empty
/// ones, with values of one byte, or two where `long_values` picks them: as
/// the width varies, a row end falls on every lane of a block.
fn full_rows(rows: usize, cols: usize, spare_rows: usize, long_values: u64) -> WindowReport {
    let triples: Vec<_> = (0..rows * cols)
        .map(|i| {
            let value = if long_values >> (i % 64) & 1 == 1 {
                300
            } else {
                3
            };
            (i / cols, i % cols, value)
        })
        .collect();
    let matrix = CsrMatrix::from_sorted_triples(rows + spare_rows, cols, &triples);
    let nnz = matrix.nnz();
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: 2,
            events: nnz as u64,
            packets: 1,
            nnz,
            dropped_late: 0,
            reordered: 0,
            elapsed: Duration::from_nanos(5),
        },
        frame: None,
    }
}

/// Every decode entry point returns what the scalar cell loop returns.
fn check(data: &[u8]) -> Result<(), TestCaseError> {
    let scalar =
        decode_window_into_scalar(data, &mut DecodeScratch::new()).map(|r| Decoded::of(&r));
    let got = decode_window(data).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got, &scalar, "decode_window on {:?}", data);
    let mut scratch = DecodeScratch::new();
    let got_into = decode_window_into(data, &mut scratch).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got_into, &scalar, "decode_window_into on {:?}", data);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_decode_equals_the_scalar_loop(
        cols in arb_width(),
        offset in 0usize..16,
        feature in arb_feature(),
        steps in prop::collection::vec((arb_step(), arb_value()), 0..48),
        spare_rows in 0usize..3,
        flip_at in any::<usize>(),
        flip in 1u8..=255,
        cut in any::<usize>(),
    ) {
        let report = window(cols, offset, feature, &steps, spare_rows);
        let bytes = encode_window(&report);
        prop_assert_eq!(reference_decode(&bytes, None), Ok(Decoded::of(&report)));
        check(&bytes)?;
        let mut flipped = bytes.clone();
        flipped[flip_at % bytes.len()] ^= flip;
        check(&flipped)?;
        check(&bytes[..cut % bytes.len()])?;
    }

    #[test]
    fn full_rows_decode_as_the_scalar_loop(
        rows in 1usize..12,
        cols in 1usize..40,
        long_values in prop_oneof![Just(0u64), any::<u64>()],
    ) {
        let report = full_rows(rows, cols, 1, long_values);
        let bytes = encode_window(&report);
        prop_assert_eq!(reference_decode(&bytes, None), Ok(Decoded::of(&report)));
        check(&bytes)?;
        // The same cells under a header claiming `rows - 1` rows: the last
        // full row lies past the last row. The claimed row count is the one
        // byte a second spare row changes.
        let taller = encode_window(&full_rows(rows, cols, 2, long_values));
        let rows_at = bytes.iter().zip(&taller).position(|(a, b)| a != b).unwrap();
        let mut short = bytes.clone();
        short[rows_at] = (rows - 1) as u8;
        check(&short)?;
    }
}
