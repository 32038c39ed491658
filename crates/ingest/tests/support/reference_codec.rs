//! A plain cell-at-a-time decoder of every window layout, written
//! independently of the codec module, with the codec's error for every
//! failure: the full layouts of versions 1, 2, 4 and 6 and the delta
//! layouts of versions 3 and 5. A delta is applied to a [`Base`] held as a
//! `BTreeMap` of cells, one change at a time.
//!
//! Differential tests include this file with `#[path]` and compare the
//! codec's decoders with [`reference_decode`] on encoded, corrupted and
//! truncated payloads.

use std::collections::BTreeMap;
use std::time::Duration;
use tw_ingest::codec::{
    CodecError, DELTA_WINDOW_VERSION, FULL_WINDOW_VERSION, MAX_DIMENSION, MAX_FOLD_BITS,
    WINDOW_CODEC_VERSION, WINDOW_MAGIC,
};
use tw_ingest::{IngestStats, WindowReport};

/// A decoded window, flattened for comparison.
#[derive(Debug, PartialEq)]
pub struct Decoded {
    pub stats: IngestStats,
    pub shape: (usize, usize),
    pub cells: Vec<(usize, usize, u64)>,
}

impl Decoded {
    pub fn of(report: &WindowReport) -> Self {
        Decoded {
            stats: report.stats.clone(),
            shape: report.matrix.shape(),
            cells: report.matrix.iter().collect(),
        }
    }
}

/// The window a delta is applied to, as its decoder holds it.
pub struct Base {
    pub index: u64,
    pub shape: (usize, usize),
    pub cells: BTreeMap<(usize, usize), u64>,
}

impl Base {
    #[allow(dead_code)]
    pub fn of(report: &WindowReport) -> Self {
        Base {
            index: report.stats.window_index,
            shape: report.matrix.shape(),
            cells: report.matrix.iter().map(|(r, c, v)| ((r, c), v)).collect(),
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

    fn fixed<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut bytes = [0u8; N];
        for byte in &mut bytes {
            *byte = self.byte(what)?;
        }
        Ok(bytes)
    }

    fn finished(&self) -> Result<(), CodecError> {
        if self.pos != self.data.len() {
            return Err(CodecError::Corrupt("trailing bytes after the last entry"));
        }
        Ok(())
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

/// The (row, column) of the cell `gap` linear indices past `next`, which
/// moves past it; out of bounds past the matrix's last index.
fn locate(
    next: &mut u128,
    gap: usize,
    (rows, cols): (usize, usize),
) -> Result<(usize, usize), CodecError> {
    let index = *next + gap as u128;
    if index >= rows as u128 * cols as u128 {
        return Err(CodecError::Corrupt("cell index out of bounds"));
    }
    *next = index + 1;
    Ok((
        (index / cols as u128) as usize,
        (index % cols as u128) as usize,
    ))
}

/// Decode `data` one cell at a time, as `decode_window_into` must with a
/// scratch holding `base` (none: a fresh scratch, or `decode_window`).
pub fn reference_decode(data: &[u8], base: Option<&Base>) -> Result<Decoded, CodecError> {
    let mut b = Bytes { data, pos: 0 };
    if b.fixed::<4>("magic")? != WINDOW_MAGIC {
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
        u64::from_le_bytes(b.fixed("elapsed")?)
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
    // A delta (version 3 or 5) names its base between stats and shape.
    let delta = version == 3 || version == DELTA_WINDOW_VERSION;
    let expected = if delta {
        Some(b.varint("base window index")?)
    } else {
        None
    };
    let rows = b.index("rows")?;
    let cols = b.index("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    let shape = (rows, cols);
    let cells = match expected {
        Some(expected) => {
            let base = match base {
                Some(base) if base.index == expected => base,
                _ => {
                    return Err(CodecError::DeltaBaseMismatch {
                        expected,
                        actual: base.map(|base| base.index),
                    })
                }
            };
            if shape != base.shape {
                return Err(CodecError::Corrupt("delta shape disagrees with its base"));
            }
            let final_nnz = b.index("final nnz")?;
            let cells = if version == DELTA_WINDOW_VERSION {
                apply_v5(&mut b, shape, base.cells.clone())?
            } else {
                apply_v3(&mut b, shape, base.cells.clone())?
            };
            b.finished()?;
            if cells.len() != final_nnz {
                return Err(CodecError::Corrupt("delta result disagrees with header"));
            }
            cells.into_iter().map(|((r, c), v)| (r, c, v)).collect()
        }
        None => {
            let nnz = b.index("nnz")?;
            let cells = if version == FULL_WINDOW_VERSION {
                let fold = b.byte("fold width")?;
                if fold > MAX_FOLD_BITS {
                    return Err(CodecError::Corrupt("fold width above 8"));
                }
                full_linear(&mut b, shape, nnz, fold.into())?
            } else if version == 4 {
                full_linear(&mut b, shape, nnz, 0)?
            } else {
                full_per_row(&mut b, shape, nnz)?
            };
            b.finished()?;
            cells
        }
    };
    Ok(Decoded {
        stats,
        shape,
        cells,
    })
}

/// The cells of a version 6 window of fold width `fold`, or a version 4
/// one (width 0): one run of varints `gap << fold | f`, each followed by
/// its value's varint where `f` is 0.
fn full_linear(
    b: &mut Bytes<'_>,
    shape: (usize, usize),
    nnz: usize,
    fold: u32,
) -> Result<Vec<(usize, usize, u64)>, CodecError> {
    let mut cells = Vec::new();
    let mut next = 0u128;
    for _ in 0..nnz {
        let cell = b.varint("cell gap")?;
        let gap =
            usize::try_from(cell >> fold).map_err(|_| CodecError::VarintOverflow("cell gap"))?;
        let (r, c) = locate(&mut next, gap, shape)?;
        let value = match cell % (1 << fold) {
            0 => b.varint("value")?,
            folded => folded,
        };
        cells.push((r, c, value));
    }
    Ok(cells)
}

/// The cells of a version 1 or 2 window: per occupied row a row gap, a
/// cell count and its (column gap, value) cells.
fn full_per_row(
    b: &mut Bytes<'_>,
    (rows, cols): (usize, usize),
    nnz: usize,
) -> Result<Vec<(usize, usize, u64)>, CodecError> {
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
    Ok(cells)
}

/// Apply a version 5 run to `cells`: a fixed 4-byte change count, then per
/// change a tag `gap << 1 | delete`, with a value after a set.
fn apply_v5(
    b: &mut Bytes<'_>,
    shape: (usize, usize),
    mut cells: BTreeMap<(usize, usize), u64>,
) -> Result<BTreeMap<(usize, usize), u64>, CodecError> {
    let count = u32::from_le_bytes(b.fixed("change count")?);
    let mut next = 0u128;
    for _ in 0..count {
        let tag = b.index("change tag")?;
        let cell = locate(&mut next, tag >> 1, shape)?;
        if tag & 1 == 1 {
            if cells.remove(&cell).is_none() {
                return Err(CodecError::Corrupt("delete of an absent cell"));
            }
        } else {
            cells.insert(cell, b.varint("value")?);
        }
    }
    Ok(cells)
}

/// Apply a version 3 body to `cells`: per changed row a row gap, delete
/// and upsert counts, the deleted columns and the upserted cells. A row is
/// read whole before its changes apply, and every row before any.
fn apply_v3(
    b: &mut Bytes<'_>,
    (rows, cols): (usize, usize),
    mut cells: BTreeMap<(usize, usize), u64>,
) -> Result<BTreeMap<(usize, usize), u64>, CodecError> {
    let changed = b.index("changed row count")?;
    if changed > rows {
        return Err(CodecError::Corrupt("changed row count exceeds the rows"));
    }
    let mut changes = Vec::new();
    let mut row = None;
    for _ in 0..changed {
        let r = advance(row, b.index("row gap")?, "row overflow")?;
        if r >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        row = Some(r);
        let deletes = b.index("deleted column count")?;
        let sets = b.index("upserted column count")?;
        if deletes == 0 && sets == 0 {
            return Err(CodecError::Corrupt("changed row with no changes"));
        }
        let mut row_changes = BTreeMap::new();
        let mut both = false;
        for (count, valued) in [(deletes, false), (sets, true)] {
            let mut col = None;
            for _ in 0..count {
                let c = advance(col, b.index("column delta")?, "column overflow")?;
                if c >= cols {
                    return Err(CodecError::Corrupt("column index out of bounds"));
                }
                col = Some(c);
                let value = if valued {
                    Some(b.varint("value")?)
                } else {
                    None
                };
                both |= row_changes.insert(c, value).is_some();
            }
        }
        if both {
            return Err(CodecError::Corrupt("a cell is both deleted and set"));
        }
        changes.extend(row_changes.into_iter().map(|(c, value)| ((r, c), value)));
    }
    for (cell, value) in changes {
        match value {
            Some(value) => {
                cells.insert(cell, value);
            }
            None => {
                if cells.remove(&cell).is_none() {
                    return Err(CodecError::Corrupt("delete of an absent cell"));
                }
            }
        }
    }
    Ok(cells)
}
