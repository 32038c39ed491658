//! Differential property tests for the full-window decoder.
//!
//! The decoder reads four one-byte cells per 8-byte word where it can and
//! falls back to one cell at a time everywhere else. [`reference_decode`]
//! below is a plain cell-at-a-time decoder of every full layout, written
//! independently of the codec module, with the codec's error for every
//! failure: the version-4 run of linear-index gaps `encode_window` writes,
//! and the version-2 per-row layout of older recordings (written here by
//! the test-local `legacy_codec` writer). Over windows mixing one-byte and
//! multi-byte varints (values and gaps on both sides of 127/128 and
//! 16,383/16,384, rows of 0–9 cells, runs of empty rows, a last cell at
//! the matrix's last index), both decode entry points must return exactly
//! what the reference returns: for the encoded bytes, for every
//! single-byte flip of them and for every truncation — the same window, or
//! the same `CodecError` variant and message.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{
    decode_window, decode_window_into, encode_window, CodecError, DecodeScratch,
    DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION, MAX_DIMENSION, WINDOW_CODEC_VERSION, WINDOW_MAGIC,
};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/legacy_codec.rs"]
mod legacy_codec;

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
    let elapsed = Duration::from_nanos(if version >= 4 {
        let mut le = [0u8; 8];
        for byte in &mut le {
            *byte = b.byte("elapsed")?;
        }
        u64::from_le_bytes(le)
    } else {
        b.varint("elapsed")?
    });
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
    if version >= 4 {
        // One run of cells, each addressed by its linear index
        // `row * cols + col` as a gap from the previous cell's index + 1.
        let size = rows as u128 * cols as u128;
        let mut cells = Vec::new();
        let mut next = 0u128;
        for _ in 0..nnz {
            let index = next + b.index("cell gap")? as u128;
            if index >= size {
                return Err(CodecError::Corrupt("cell index out of bounds"));
            }
            let (r, c) = (index / cols as u128, index % cols as u128);
            cells.push((r as usize, c as usize, b.varint("value")?));
            next = index + 1;
        }
        if b.pos != data.len() {
            return Err(CodecError::Corrupt("trailing bytes after the last entry"));
        }
        return Ok(Decoded {
            stats,
            shape: (rows, cols),
            cells,
        });
    }
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
/// one-byte varints (the four-cell path) or mixed. An empty row only
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
                matrix,
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
            prop_assert_eq!(reference_decode(&bytes), Ok(Decoded::of(&report)));
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
