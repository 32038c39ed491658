//! The plain full-window writer the chunked encoder replaced: a header of
//! its own, then one loop over each row's cells, every field a LEB128
//! varint written one byte at a time.
//!
//! `encode_window` must return exactly these bytes for every window.
//! `proptest_encode.rs` holds it to that, and the codec bench times the
//! encoder against it. Both include this file with `#[path]`; the
//! including module must have `WindowReport` in scope.

use super::WindowReport;

/// Append a LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encode `report` in the version-4 full-window layout: magic, version,
/// six stats varints, `elapsed` as 8 little-endian nanosecond bytes,
/// shape and cell count, then each cell's linear-index gap and value.
pub fn encode_reference(report: &WindowReport) -> Vec<u8> {
    let matrix = &report.matrix;
    let mut buf = Vec::with_capacity(32 + matrix.nnz() * 4);
    buf.extend_from_slice(b"TWWR");
    buf.push(4);
    let stats = &report.stats;
    for v in [
        stats.window_index,
        stats.events,
        stats.packets,
        stats.nnz as u64,
        stats.dropped_late,
        stats.reordered,
    ] {
        push_varint(&mut buf, v);
    }
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    buf.extend_from_slice(&nanos.to_le_bytes());
    let (rows, cols) = matrix.shape();
    for v in [rows, cols, matrix.nnz()] {
        push_varint(&mut buf, v as u64);
    }
    // The first index is absolute, each later one stores
    // (index - previous - 1).
    let (col_idx, values) = (matrix.col_indices(), matrix.values());
    let mut next = 0u64;
    for (row, span) in matrix.row_ptr().windows(2).enumerate() {
        let row_start = row as u64 * cols as u64;
        for (&col, &value) in col_idx[span[0]..span[1]]
            .iter()
            .zip(&values[span[0]..span[1]])
        {
            let index = row_start + col as u64;
            push_varint(&mut buf, index - next);
            push_varint(&mut buf, value);
            next = index + 1;
        }
    }
    buf
}
