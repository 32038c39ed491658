//! The plain full-window writers: a header of their own, then one loop
//! over each row's cells, every field a LEB128 varint written one byte at
//! a time.
//!
//! [`encode_reference`] states the version-6 bytes: `encode_window` must
//! return exactly these for every window. `proptest_encode.rs` holds it to
//! that, and the codec bench times the chunked encoder against it.
//! [`encode_reference_v4`] writes the version-4 layout the version-6 one
//! replaced, for the bench's byte counts and for v4 payloads the decoders
//! must keep reading. Both include this file with `#[path]`; the including
//! module must have `WindowReport` in scope.

use super::WindowReport;

/// Append a LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// `report`'s header in `version`'s layout: magic, version, six stats
/// varints, `elapsed` as 8 little-endian nanosecond bytes, shape and cell
/// count.
fn header(report: &WindowReport, version: u8) -> Vec<u8> {
    let matrix = &report.matrix;
    let mut buf = Vec::with_capacity(32 + matrix.nnz() * 4);
    buf.extend_from_slice(b"TWWR");
    buf.push(version);
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
    buf
}

/// Each cell's linear-index gap and value, row by row: the first index is
/// absolute, each later one stores (index - previous - 1).
fn for_each_cell(report: &WindowReport, mut f: impl FnMut(u64, u64)) {
    let matrix = &report.matrix;
    let cols = matrix.cols() as u64;
    let (col_idx, values) = (matrix.col_indices(), matrix.values());
    let mut next = 0u64;
    for (row, span) in matrix.row_ptr().windows(2).enumerate() {
        let row_start = row as u64 * cols;
        for (&col, &value) in col_idx[span[0]..span[1]]
            .iter()
            .zip(&values[span[0]..span[1]])
        {
            let index = row_start + col as u64;
            f(index - next, value);
            next = index + 1;
        }
    }
}

/// Where a version-6 encoding of `report` holds its fold width: just past
/// the header.
#[allow(dead_code)]
pub fn fold_width_at(report: &WindowReport) -> usize {
    header(report, 6).len()
}

/// Encode `report` in the version-4 full-window layout: the header, then
/// each cell's linear-index gap and value.
#[allow(dead_code)]
pub fn encode_reference_v4(report: &WindowReport) -> Vec<u8> {
    let mut buf = header(report, 4);
    for_each_cell(report, |gap, value| {
        push_varint(&mut buf, gap);
        push_varint(&mut buf, value);
    });
    buf
}

/// Encode `report` in the version-6 layout at fold width `fold`: the
/// header, the width, then per cell the varint `gap << fold | value` when
/// `1 <= value < 2^fold`, else `gap << fold` followed by the value.
pub fn encode_reference_folded(report: &WindowReport, fold: u32) -> Vec<u8> {
    let mut buf = header(report, 6);
    buf.push(fold as u8);
    for_each_cell(report, |gap, value| {
        if value >= 1 && value < 1 << fold {
            push_varint(&mut buf, gap << fold | value);
        } else {
            push_varint(&mut buf, gap << fold);
            push_varint(&mut buf, value);
        }
    });
    buf
}

/// The LEB128 bytes of a value of `bits` bits.
#[allow(dead_code)]
fn varint_len(bits: u32) -> usize {
    bits.div_ceil(7).max(1) as usize
}

/// The fold width of the smallest version-6 encoding of `report`, the
/// smaller width on a tie, from one pass that counts the cells by the bit
/// length of their gap and of their value (and, apart, the cells whose
/// gap is 0 and whose value takes 8 bits: their varint is the value
/// itself, two bytes when it folds at width 8).
#[allow(dead_code)]
pub fn fold_width_reference(report: &WindowReport) -> u32 {
    let mut gap_bits = [0usize; 65];
    let mut value_bits = [0usize; 65];
    let mut wide_after_zero_gap = 0;
    for_each_cell(report, |gap, value| {
        gap_bits[(64 - gap.leading_zeros()) as usize] += 1;
        value_bits[(64 - value.leading_zeros()) as usize] += 1;
        if gap == 0 && (128..256).contains(&value) {
            wide_after_zero_gap += 1;
        }
    });
    let mut best = (usize::MAX, 0);
    for fold in 0..=8u32 {
        let mut bytes = if fold == 8 { wide_after_zero_gap } else { 0 };
        for bits in 0..=64u32 {
            let cell_bits = if bits == 0 { 0 } else { bits + fold };
            bytes += gap_bits[bits as usize] * varint_len(cell_bits);
            if bits == 0 || bits > fold {
                bytes += value_bits[bits as usize] * varint_len(bits);
            }
        }
        if bytes < best.0 {
            best = (bytes, fold);
        }
    }
    best.1
}

/// Encode `report` in the version-6 layout at [`fold_width_reference`]'s
/// width: the bytes `encode_window` must write.
#[allow(dead_code)]
pub fn encode_reference(report: &WindowReport) -> Vec<u8> {
    encode_reference_folded(report, fold_width_reference(report))
}
