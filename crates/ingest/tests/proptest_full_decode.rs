//! Differential property tests for the full-window decoder.
//!
//! The decoder reads four one-byte cells per 8-byte word where it can and
//! falls back to one cell at a time everywhere else. [`reference_decode`]
//! below is a plain cell-at-a-time decoder of the same layout, written
//! independently of the codec module, with the codec's error for every
//! failure. Over windows mixing one-byte and multi-byte varints (values and
//! column gaps on both sides of 127/128, rows of 1–9 cells), both decode
//! entry points must return exactly what the reference returns: for the
//! encoded bytes, for every single-byte flip of them and for every
//! truncation — the same window, or the same `CodecError` variant and
//! message.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window, decode_window_into, encode_window, CodecError, DecodeScratch,
    DELTA_WINDOW_VERSION, MAX_DIMENSION, WINDOW_CODEC_VERSION, WINDOW_MAGIC,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

/// A decoded window, flattened for comparison.
#[derive(Debug, PartialEq)]
struct Decoded {
    stats: IngestStats,
    shape: (usize, usize),
    cells: Vec<(usize, usize, u64)>,
}

impl Decoded {
    fn of(report: &WindowReport) -> Self {
        Decoded {
            stats: report.stats.clone(),
            shape: report.matrix.shape(),
            cells: report.matrix.iter().collect(),
        }
    }
}

/// A byte cursor that reads varints one byte at a time.
struct Bytes<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Bytes<'_> {
    fn byte(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut value = 0u128;
        for shift in (0..).step_by(7) {
            let byte = self.byte(what)?;
            value |= u128::from(byte & 0x7F) << shift.min(70);
            if shift >= 64 || value > u128::from(u64::MAX) {
                return Err(CodecError::VarintOverflow(what));
            }
            if byte & 0x80 == 0 {
                break;
            }
        }
        Ok(value as u64)
    }

    fn index(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.varint(what)?).map_err(|_| CodecError::VarintOverflow(what))
    }
}

/// `prev + 1 + gap` for a delta-coded index: the first index is absolute.
fn advance(prev: Option<usize>, gap: usize, overflow: &'static str) -> Result<usize, CodecError> {
    match prev {
        None => Ok(gap),
        Some(p) => {
            usize::try_from(p as u128 + gap as u128 + 1).map_err(|_| CodecError::Corrupt(overflow))
        }
    }
}

/// Decode a full window one cell at a time, as `decode_window` must.
fn reference_decode(data: &[u8]) -> Result<Decoded, CodecError> {
    let mut b = Bytes { data, pos: 0 };
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = b.byte("magic")?;
    }
    if magic != WINDOW_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = b.byte("version")?;
    if version == 0 || version > WINDOW_CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let window_index = b.varint("window_index")?;
    let events = b.varint("events")?;
    let packets = b.varint("packets")?;
    let nnz = b.index("stats nnz")?;
    let dropped_late = b.varint("dropped_late")?;
    let reordered = if version >= 2 {
        b.varint("reordered")?
    } else {
        0
    };
    let elapsed = Duration::from_nanos(b.varint("elapsed")?);
    let stats = IngestStats {
        window_index,
        events,
        packets,
        nnz,
        dropped_late,
        reordered,
        elapsed,
    };
    if version == DELTA_WINDOW_VERSION {
        // A fresh decoder holds no base for a delta to apply to.
        return Err(CodecError::DeltaBaseMismatch {
            expected: b.varint("base window index")?,
            actual: None,
        });
    }

    let rows = b.index("rows")?;
    let cols = b.index("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    let nnz = b.index("nnz")?;
    let occupied = b.index("occupied row count")?;
    if occupied > rows || nnz < occupied {
        return Err(CodecError::Corrupt("row/entry counts are inconsistent"));
    }
    let mut cells = Vec::new();
    let mut row = None;
    for _ in 0..occupied {
        let r = advance(row, b.index("row gap")?, "row overflow")?;
        if r >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        row = Some(r);
        let row_nnz = b.index("row nnz")?;
        if row_nnz == 0 {
            return Err(CodecError::Corrupt("occupied row with zero entries"));
        }
        let mut col = None;
        for _ in 0..row_nnz {
            let c = advance(col, b.index("column delta")?, "column overflow")?;
            if c >= cols {
                return Err(CodecError::Corrupt("column index out of bounds"));
            }
            col = Some(c);
            cells.push((r, c, b.varint("value")?));
        }
    }
    if cells.len() != nnz {
        return Err(CodecError::Corrupt("entry count disagrees with header"));
    }
    if b.pos != data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    Ok(Decoded {
        stats,
        shape: (rows, cols),
        cells,
    })
}

/// Both decode entry points must agree with the reference on `data`.
fn check(data: &[u8]) -> Result<(), TestCaseError> {
    let want = reference_decode(data);
    let got = decode_window(data).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got, &want, "decode_window on {:?}", data);
    let mut scratch = DecodeScratch::new();
    let got_into = decode_window_into(data, &mut scratch).map(|r| Decoded::of(&r));
    prop_assert_eq!(&got_into, &want, "decode_window_into on {:?}", data);
    Ok(())
}

/// A gap between consecutive indices: small, around the one-byte varint
/// limit, or anywhere in a few hundred.
fn gap(small: bool) -> BoxedStrategy<usize> {
    if small {
        (0usize..4).boxed()
    } else {
        prop_oneof![0usize..3, 125usize..131, 0usize..400].boxed()
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

/// One occupied row: its gap from the previous one and 1–9 cells, either
/// all one-byte varints (the four-cell path) or mixed.
///
/// Row gaps stay under 16, so a window has fewer than 128 rows: a flip in
/// the one-byte row count then claims at most 16,383 rows, and no case
/// spends its time zeroing a row index of millions of entries.
fn arb_row() -> impl Strategy<Value = (usize, Vec<(usize, u64)>)> {
    any::<bool>().prop_flat_map(|small| {
        (
            0usize..16,
            prop::collection::vec((gap(small), value(small)), 1..=9),
        )
    })
}

/// A window of 1–7 occupied rows, with 0–2 spare rows and columns past the
/// last cell (so a cell can sit on the last column), and arbitrary stats.
fn arb_window() -> impl Strategy<Value = WindowReport> {
    (
        prop::collection::vec(arb_row(), 1..8),
        (0usize..3, 0usize..3),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                rows,
                (row_slack, col_slack),
                (window_index, events, packets),
                (late, reordered, ns),
            )| {
                let mut triples = Vec::new();
                let mut row = None;
                for (row_gap, cells) in rows {
                    let r = row.map_or(row_gap, |p| p + 1 + row_gap);
                    row = Some(r);
                    let mut col = None;
                    for (col_gap, v) in cells {
                        let c = col.map_or(col_gap, |p| p + 1 + col_gap);
                        col = Some(c);
                        triples.push((r, c, v));
                    }
                }
                let max_row = triples.iter().map(|&(r, _, _)| r).max().unwrap_or(0);
                let max_col = triples.iter().map(|&(_, c, _)| c).max().unwrap_or(0);
                let matrix = CsrMatrix::from_sorted_triples(
                    max_row + 1 + row_slack,
                    max_col + 1 + col_slack,
                    &triples,
                );
                let nnz = matrix.nnz();
                WindowReport {
                    matrix,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decoder_equals_the_per_cell_reference(report in arb_window()) {
        let bytes = encode_window(&report);
        prop_assert_eq!(reference_decode(&bytes), Ok(Decoded::of(&report)));
        check(&bytes)?;
    }

    #[test]
    fn every_single_byte_flip_decodes_as_the_reference_does(
        report in arb_window(),
        extra in 1u8..=255,
    ) {
        let bytes = encode_window(&report);
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

    #[test]
    fn every_truncation_decodes_as_the_reference_does(report in arb_window()) {
        let bytes = encode_window(&report);
        for len in 0..bytes.len() {
            check(&bytes[..len])?;
        }
    }
}
