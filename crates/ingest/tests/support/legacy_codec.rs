//! Writers for the window layouts the codec still reads but no longer
//! writes: the full layouts of version 1 (no `reordered` stat) and
//! version 2, both with an occupied-row count and a per-row header (row
//! gap, cell count) before column-gap-coded cells, and the version-3
//! delta layout, per changed row a deleted-column list and an upserted
//! (column, value) list.
//!
//! Tests and benches that need a recording made before versions 4 and 5
//! include this file with `#[path]`; the including module must have
//! `WindowReport` in scope.

use super::WindowReport;

/// Append a LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Magic, `version` and the varint stats block of a version 1 to 3 window.
fn legacy_header(report: &WindowReport, version: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + report.matrix.nnz() * 4);
    buf.extend_from_slice(b"TWWR");
    buf.push(version);
    let stats = &report.stats;
    for v in [
        stats.window_index,
        stats.events,
        stats.packets,
        stats.nnz as u64,
        stats.dropped_late,
    ] {
        push_varint(&mut buf, v);
    }
    if version >= 2 {
        push_varint(&mut buf, stats.reordered);
    }
    push_varint(&mut buf, stats.elapsed.as_nanos() as u64);
    buf
}

/// Encode `report` in the version-1 or version-2 full-window layout.
#[allow(dead_code)]
pub fn encode_legacy(report: &WindowReport, version: u8) -> Vec<u8> {
    assert!(version == 1 || version == 2, "legacy layouts are 1 and 2");
    let mut buf = legacy_header(report, version);
    let matrix = &report.matrix;
    let (rows, cols) = matrix.shape();
    let occupied = (0..rows).filter(|&r| matrix.row_nnz(r) > 0).count();
    for v in [rows, cols, matrix.nnz(), occupied] {
        push_varint(&mut buf, v as u64);
    }
    // Each row and column is stored as its distance from the lowest one
    // it may take: the first absolute, later ones (gap - 1).
    let mut next_row = 0;
    for row in 0..rows {
        let row_nnz = matrix.row_nnz(row);
        if row_nnz == 0 {
            continue;
        }
        push_varint(&mut buf, (row - next_row) as u64);
        next_row = row + 1;
        push_varint(&mut buf, row_nnz as u64);
        let mut next_col = 0;
        for (col, value) in matrix.row(row) {
            push_varint(&mut buf, (col - next_col) as u64);
            push_varint(&mut buf, value);
            next_col = col + 1;
        }
    }
    buf
}

/// Encode `cur` as a version-3 delta against `prev` (same shape): per
/// changed row (rows gap-coded as in version 2), a delete count, an upsert
/// count, the deleted columns, then the upserted (column, value) pairs,
/// each list column-gap coded.
#[allow(dead_code)]
pub fn encode_legacy_delta(prev: &WindowReport, cur: &WindowReport) -> Vec<u8> {
    let (a, b) = (&prev.matrix, &cur.matrix);
    assert_eq!(a.shape(), b.shape(), "a delta needs a same-shape base");
    let mut buf = legacy_header(cur, 3);
    let (rows, cols) = b.shape();
    for v in [
        prev.stats.window_index,
        rows as u64,
        cols as u64,
        b.nnz() as u64,
    ] {
        push_varint(&mut buf, v);
    }
    // One merge per row: a column only `prev` stores is a delete, a cell
    // `cur` stores with a value `prev` does not is an upsert.
    let mut changed = Vec::new();
    for row in 0..rows {
        let (mut i, i_end) = (a.row_ptr()[row], a.row_ptr()[row + 1]);
        let (mut j, j_end) = (b.row_ptr()[row], b.row_ptr()[row + 1]);
        let (mut deletes, mut sets) = (Vec::new(), Vec::new());
        while i < i_end || j < j_end {
            let a_col = if i < i_end {
                a.col_indices()[i]
            } else {
                usize::MAX
            };
            let b_col = if j < j_end {
                b.col_indices()[j]
            } else {
                usize::MAX
            };
            if a_col < b_col {
                deletes.push(a_col);
                i += 1;
                continue;
            }
            if a_col > b_col || a.values()[i] != b.values()[j] {
                sets.push((b_col, b.values()[j]));
            }
            i += usize::from(a_col == b_col);
            j += 1;
        }
        if !deletes.is_empty() || !sets.is_empty() {
            changed.push((row, deletes, sets));
        }
    }
    push_varint(&mut buf, changed.len() as u64);
    let mut next_row = 0;
    for (row, deletes, sets) in changed {
        push_varint(&mut buf, (row - next_row) as u64);
        next_row = row + 1;
        push_varint(&mut buf, deletes.len() as u64);
        push_varint(&mut buf, sets.len() as u64);
        let mut next_col = 0;
        for col in deletes {
            push_varint(&mut buf, (col - next_col) as u64);
            next_col = col + 1;
        }
        let mut next_col = 0;
        for (col, value) in sets {
            push_varint(&mut buf, (col - next_col) as u64);
            push_varint(&mut buf, value);
            next_col = col + 1;
        }
    }
    buf
}
