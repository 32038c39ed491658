//! Differential property tests for the delta decoder.
//!
//! `reference_decode` (in the test-local `reference_codec`) applies a
//! delta to a `BTreeMap` of its base window's cells one change at a time,
//! with the codec's error for every failure. Over window pairs that keep,
//! change, delete and add cells (values of one and several bytes, stored
//! zeros and `u64::MAX`, gaps on both sides of the one-byte and two-byte
//! varint limits), `decode_window_into` with a scratch holding the base
//! must return exactly what the reference returns: for the version-5 delta
//! `encode_window_delta` writes and the version-3 delta of older
//! recordings (written by the test-local `legacy_codec` writer), for every
//! single-byte flip of them and for every truncation — the same window, or
//! the same `CodecError`, never a panic.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window_into, encode_window, encode_window_delta, DecodeScratch, DELTA_WINDOW_VERSION,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/legacy_codec.rs"]
mod legacy_codec;
#[path = "support/reference_codec.rs"]
mod reference_codec;

use reference_codec::{reference_decode, Base, Decoded};

/// `decode_window_into`, with a scratch holding `prev`, must agree with
/// the reference on `data`.
fn check(prev: &WindowReport, data: &[u8]) -> Result<(), TestCaseError> {
    let want = reference_decode(data, Some(&Base::of(prev)));
    let mut scratch = DecodeScratch::new();
    decode_window_into(&encode_window(prev), &mut scratch).unwrap();
    let got = decode_window_into(data, &mut scratch).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got, &want, "decode_window_into on {:?}", data);
    Ok(())
}

/// A stored value: a stored zero, one byte, around 127/128, the largest,
/// or anything.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..4,
        125u64..131,
        Just(u64::MAX),
        any::<u64>()
    ]
}

/// What happens to one cell of the previous window.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Keep,
    Change(u64),
    Delete,
}

fn fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        Just(Fate::Keep),
        value().prop_map(Fate::Change),
        Just(Fate::Delete)
    ]
}

/// A window with `cells` (linear indices, taken modulo the matrix size).
fn window(shape: (usize, usize), index: u64, cells: &[(usize, u64)]) -> WindowReport {
    let size = shape.0 * shape.1;
    let mut cells: Vec<(usize, u64)> = cells.iter().map(|&(i, v)| (i % size, v)).collect();
    cells.sort_unstable_by_key(|&(i, _)| i);
    cells.dedup_by_key(|&mut (i, _)| i);
    let triples: Vec<(usize, usize, u64)> = cells
        .into_iter()
        .map(|(i, v)| (i / shape.1, i % shape.1, v))
        .collect();
    let matrix = CsrMatrix::from_sorted_triples(shape.0, shape.1, &triples);
    let nnz = matrix.nnz();
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: index,
            events: nnz as u64,
            packets: 7,
            nnz,
            dropped_late: 1,
            reordered: 2,
            elapsed: Duration::from_nanos(index.wrapping_mul(1_000_003)),
        },
        frame: None,
    }
}

/// A (previous, current) pair of one shape: the current window keeps,
/// changes or deletes each previous cell and adds new ones. Columns are
/// few, or around 128 and 16,384, so gaps cross the varint limits.
fn arb_pair() -> impl Strategy<Value = (WindowReport, WindowReport)> {
    (
        (
            1usize..6,
            prop_oneof![1usize..9, 126usize..131, 16_382usize..16_387],
        ),
        prop::collection::vec((any::<usize>(), value(), fate()), 0..16),
        prop::collection::vec((any::<usize>(), value()), 0..8),
        any::<u64>(),
    )
        .prop_map(|(shape, cells, added, index)| {
            let index = index % (1 << 40);
            let prev_cells: Vec<(usize, u64)> = cells.iter().map(|&(i, v, _)| (i, v)).collect();
            let prev = window(shape, index, &prev_cells);
            // Fates apply to the cells the previous window really holds.
            let mut cur_cells: Vec<(usize, u64)> = prev
                .matrix
                .iter()
                .zip(cells.iter().map(|&(_, _, fate)| fate))
                .filter_map(|((r, c, v), fate)| {
                    let i = r * shape.1 + c;
                    match fate {
                        Fate::Keep => Some((i, v)),
                        Fate::Change(new) => Some((i, new)),
                        Fate::Delete => None,
                    }
                })
                .collect();
            cur_cells.extend(added);
            let cur = window(shape, index + 1, &cur_cells);
            (prev, cur)
        })
}

/// The pair's delta in both layouts the decoder reads: version 5 as the
/// codec writes it, version 3 as older recordings hold it.
fn layouts(prev: &WindowReport, cur: &WindowReport) -> [Vec<u8>; 2] {
    let v5 = encode_window_delta(prev, cur);
    assert_eq!(v5[4], DELTA_WINDOW_VERSION);
    [v5, legacy_codec::encode_legacy_delta(prev, cur)]
}

#[test]
fn stored_zeros_and_the_largest_value_round_trip() {
    // A cell set to u64::MAX, one changed to a stored zero, one kept at
    // zero, one deleted and one added, over a 3 × 200 window.
    let prev = window((3, 200), 4, &[(5, 9), (150, 0), (300, 1), (599, 2)]);
    let cur = window(
        (3, 200),
        5,
        &[(5, u64::MAX), (150, 0), (300, 0), (401, u64::MAX)],
    );
    for bytes in layouts(&prev, &cur) {
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        let got = decode_window_into(&bytes, &mut scratch).unwrap();
        assert_eq!(got, cur);
        assert_eq!(got.matrix.nnz(), 4, "stored zeros survive");
        assert_eq!(
            reference_decode(&bytes, Some(&Base::of(&prev))),
            Ok(Decoded::of(&cur))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deltas_decode_as_the_reference_does(pair in arb_pair()) {
        let (prev, cur) = pair;
        for bytes in layouts(&prev, &cur) {
            prop_assert_eq!(
                reference_decode(&bytes, Some(&Base::of(&prev))),
                Ok(Decoded::of(&cur))
            );
            check(&prev, &bytes)?;
        }
    }

    #[test]
    fn every_single_byte_flip_of_a_delta_decodes_as_the_reference_does(
        pair in arb_pair(),
        extra in 1u8..=255,
    ) {
        let (prev, cur) = pair;
        for bytes in layouts(&prev, &cur) {
            for pos in 0..bytes.len() {
                // The lowest and highest payload bits (a delete tag's
                // bit among them), the continuation bit, all bits, and one
                // arbitrary pattern per case.
                for xor in [0x01, 0x40, 0x80, 0xFF, extra] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= xor;
                    check(&prev, &corrupt)?;
                }
            }
        }
    }

    #[test]
    fn every_truncation_of_a_delta_decodes_as_the_reference_does(pair in arb_pair()) {
        let (prev, cur) = pair;
        for bytes in layouts(&prev, &cur) {
            for len in 0..bytes.len() {
                prop_assert!(reference_decode(&bytes[..len], Some(&Base::of(&prev))).is_err());
                check(&prev, &bytes[..len])?;
            }
        }
    }
}
