//! A writer for the full-window layouts the codec still reads but no
//! longer writes: version 1 (no `reordered` stat) and version 2, both
//! with an occupied-row count and a per-row header (row gap, cell count)
//! before column-gap-coded cells.
//!
//! Tests and benches that need a recording made before version 4 include
//! this file with `#[path]`; the including module must have
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

/// Encode `report` in the version-1 or version-2 full-window layout.
pub fn encode_legacy(report: &WindowReport, version: u8) -> Vec<u8> {
    assert!(version == 1 || version == 2, "legacy layouts are 1 and 2");
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
    if version == 2 {
        push_varint(&mut buf, stats.reordered);
    }
    push_varint(&mut buf, stats.elapsed.as_nanos() as u64);

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
