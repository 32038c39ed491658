//! Readers for the window layouts the codec no longer writes: the per-row
//! full layouts of versions 1 and 2, and the per-row delta layout of
//! version 3. Recordings made before versions 4 and 5 hold them, and a
//! recorded lesson is teaching material, so they keep replaying.
//!
//! Each changed row of a version-3 delta stores two sorted column runs,
//! deletes then sets. They are merged here into the one (row, column)
//! order a version-5 run has and handed to the same
//! [`merge_changes`](super::merge_changes).

use super::{merge_changes, read_usize, read_varint, CodecError, Reader};
use tw_matrix::CsrMatrix;

/// Parse the `nnz` cells of a version 1 or 2 window: an occupied-row count,
/// then per occupied row a row gap (the first row absolute, later ones
/// (gap - 1)), a cell count and its cells. Fills `row_ptr` up to and
/// including the last occupied row.
pub(super) fn parse_row_runs(
    data: &[u8],
    pos: &mut usize,
    (rows, cols): (usize, usize),
    nnz: usize,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let occupied = read_usize(data, pos, "occupied row count")?;
    if occupied > rows || nnz < occupied {
        return Err(CodecError::Corrupt("row/entry counts are inconsistent"));
    }
    // The lowest row the next occupied row may take.
    let mut next_row = 0usize;
    for _ in 0..occupied {
        let gap = read_usize(data, pos, "row gap")?;
        let row = next_row
            .checked_add(gap)
            .ok_or(CodecError::Corrupt("row overflow"))?;
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        // Rows between the previous occupied row and this one are empty.
        row_ptr.resize(row + 1, col_idx.len());
        next_row = row + 1;
        let row_nnz = read_usize(data, pos, "row nnz")?;
        if row_nnz == 0 {
            return Err(CodecError::Corrupt("occupied row with zero entries"));
        }
        let mut next_col = 0usize;
        for _ in 0..row_nnz {
            col_idx.push(parse_column(data, pos, &mut next_col, cols)?);
            values.push(read_varint(data, pos, "value")?);
        }
    }
    if col_idx.len() != nnz {
        return Err(CodecError::Corrupt("entry count disagrees with header"));
    }
    Ok(())
}

/// One delta-coded column at `*pos`: the lowest column it may take is
/// `*next_col`, which moves past it. Columns strictly increase within a
/// row: the first is absolute, later ones store (delta - 1).
fn parse_column(
    data: &[u8],
    pos: &mut usize,
    next_col: &mut usize,
    cols: usize,
) -> Result<usize, CodecError> {
    let delta = read_usize(data, pos, "column delta")?;
    let col = next_col
        .checked_add(delta)
        .ok_or(CodecError::Corrupt("column overflow"))?;
    if col >= cols {
        return Err(CodecError::Corrupt("column index out of bounds"));
    }
    *next_col = col + 1;
    Ok(col)
}

/// Parse a version-3 delta body (after its final nnz) and merge it with
/// `base` into the given (cleared) CSR arrays.
///
/// The body is a changed-row count, then per changed row a row gap (as in
/// the full per-row layout), a delete count, a set count, the deleted
/// columns and the set (column, value) pairs, each run column-gap coded.
pub(super) fn parse_v3_changes(
    r: &mut Reader<'_>,
    base: &CsrMatrix<u64>,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let (rows, cols) = base.shape();
    let changed_rows = r.usize_varint("changed row count")?;
    if changed_rows > rows {
        return Err(CodecError::Corrupt("changed row count exceeds the rows"));
    }
    let (data, mut pos) = (r.data, r.pos);
    let mut changes = Vec::new();
    let (mut deletes, mut sets) = (Vec::new(), Vec::new());
    let mut next_row = 0usize;
    for _ in 0..changed_rows {
        let gap = read_usize(data, &mut pos, "row gap")?;
        let row = next_row
            .checked_add(gap)
            .ok_or(CodecError::Corrupt("row overflow"))?;
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        next_row = row + 1;
        let delete_count = read_usize(data, &mut pos, "deleted column count")?;
        let set_count = read_usize(data, &mut pos, "upserted column count")?;
        if delete_count == 0 && set_count == 0 {
            return Err(CodecError::Corrupt("changed row with no changes"));
        }
        deletes.clear();
        let mut next_col = 0usize;
        for _ in 0..delete_count {
            deletes.push(parse_column(data, &mut pos, &mut next_col, cols)?);
        }
        sets.clear();
        let mut next_col = 0usize;
        for _ in 0..set_count {
            let col = parse_column(data, &mut pos, &mut next_col, cols)?;
            sets.push((col, read_varint(data, &mut pos, "value")?));
        }
        // Merge the two sorted runs into column order; past a run's end
        // its column reads as `usize::MAX`, beyond every real column.
        let (mut d, mut s) = (0, 0);
        while d < deletes.len() || s < sets.len() {
            let delete_col = deletes.get(d).copied().unwrap_or(usize::MAX);
            let (set_col, value) = sets.get(s).copied().unwrap_or((usize::MAX, 0));
            if delete_col == set_col {
                return Err(CodecError::Corrupt("a cell is both deleted and set"));
            }
            if delete_col < set_col {
                changes.push(Ok((row, delete_col, None)));
                d += 1;
            } else {
                changes.push(Ok((row, set_col, Some(value))));
                s += 1;
            }
        }
    }
    r.pos = pos;
    merge_changes(base, changes.into_iter(), row_ptr, col_idx, values)
}
