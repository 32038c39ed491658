//! A compact, versioned binary codec for [`WindowReport`]s.
//!
//! Recorded scenarios are replayed in class many times from one capture, so
//! the on-disk window format must be both small and stable. Every integer
//! field is a LEB128 varint except one fixed-width stat, so the format has
//! no architecture-dependent widths, and decoding validates structure
//! (magic, version, bounds, exact length) before any matrix is built.
//!
//! | version | kind  | stats block                      | cells                                                              |
//! |---------|-------|----------------------------------|--------------------------------------------------------------------|
//! | 1       | full  | six varints (no `reordered`)     | occupied-row count; per row: row gap, cell count, column gaps      |
//! | 2       | full  | seven varints                    | as version 1                                                       |
//! | 3       | delta | seven varints                    | base window; per changed row: deleted and upserted column lists    |
//! | 4       | full  | six varints + 8-byte `elapsed`   | one run of linear-index gaps, no per-row headers                   |
//!
//! [`encode_window`] writes version 4 and [`encode_window_delta`] version
//! 3; versions 1 and 2 are only read, so recordings made before version 4
//! keep replaying.
//!
//! ```
//! use tw_ingest::codec::{decode_window, encode_window};
//! use tw_ingest::{Pipeline, PipelineConfig, Scenario};
//!
//! let mut pipeline = Pipeline::new(Scenario::Ddos.source(64, 1), PipelineConfig::default());
//! let report = pipeline.next_window().unwrap();
//! let bytes = encode_window(&report);
//! let decoded = decode_window(&bytes).unwrap();
//! assert_eq!(decoded.matrix, report.matrix);
//! assert_eq!(decoded.stats, report.stats);
//! ```

use crate::window::{IngestStats, WindowReport};
use std::fmt;
use std::time::Duration;
use tw_matrix::CsrMatrix;
use tw_metrics::{Counter, MetricsRegistry};

/// Leading magic of an encoded window.
pub const WINDOW_MAGIC: [u8; 4] = *b"TWWR";
/// The newest codec version this module reads.
///
/// Version 2 appends the [`IngestStats::reordered`] counter to the stats
/// block; version-1 windows (recorded before the watermark stage existed)
/// still decode, with `reordered` reported as `0`. Version 3 is the
/// *delta-window* layout ([`encode_window_delta`]): sparse cell changes
/// against the previous window, decodable only through a
/// [`DecodeScratch`] holding that base. Version 4 is the full layout
/// [`encode_window`] writes: each cell is addressed by its linear index
/// `row · cols + col`, gap-coded against the previous cell, so a window
/// spends no bytes on per-row headers.
pub const WINDOW_CODEC_VERSION: u8 = 4;
/// The version byte of a full (self-contained) window, as written by
/// [`encode_window`].
pub const FULL_WINDOW_VERSION: u8 = 4;
/// The version byte of a delta window, as written by
/// [`encode_window_delta`].
pub const DELTA_WINDOW_VERSION: u8 = 3;
/// The largest matrix dimension the codec accepts (16 Mi addresses).
///
/// This bounds the `row_ptr` allocation a decoder performs for a *claimed*
/// dimension, so a corrupt or hostile header cannot demand an absurd
/// allocation (or overflow `Vec`'s capacity) before validation fails.
/// 16,777,216 addresses is far beyond any classroom scenario and well above
/// what a dense-row-pointer CSR is sensible for.
pub const MAX_DIMENSION: usize = 1 << 24;

/// Errors produced while decoding a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with [`WINDOW_MAGIC`].
    BadMagic,
    /// The version byte is newer than this codec understands.
    UnsupportedVersion(u8),
    /// The buffer ended inside the named structure.
    Truncated(&'static str),
    /// A varint ran past 64 bits.
    VarintOverflow(&'static str),
    /// A structurally invalid field; the message names the violation.
    Corrupt(&'static str),
    /// A claimed matrix dimension is beyond [`MAX_DIMENSION`]; the error
    /// carries the offending dimension and the limit it broke.
    DimensionTooLarge {
        /// The dimension the header claimed.
        dimension: usize,
        /// The codec's [`MAX_DIMENSION`] bound it exceeded.
        limit: usize,
    },
    /// A delta window's base is not the window the decoder holds: `expected`
    /// is the base window index the delta names, `actual` is the decoder's
    /// current base (`None` when it holds no window at all — e.g. a delta
    /// handed to [`decode_window`], which is stateless by design).
    DeltaBaseMismatch {
        /// The base window index the delta was encoded against.
        expected: u64,
        /// The window index the decoder currently holds, if any.
        actual: Option<u64>,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an encoded window (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "window codec version {v} is not supported (this build reads versions 1..={WINDOW_CODEC_VERSION})"
                )
            }
            CodecError::Truncated(what) => {
                write!(f, "encoded window truncated while reading {what}")
            }
            CodecError::VarintOverflow(what) => write!(f, "varint overflow while reading {what}"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoded window: {what}"),
            CodecError::DimensionTooLarge { dimension, limit } => write!(
                f,
                "matrix dimension {dimension} exceeds the codec limit of {limit} addresses"
            ),
            CodecError::DeltaBaseMismatch {
                expected,
                actual: Some(actual),
            } => write!(
                f,
                "delta window is encoded against base window {expected}, but the decoder holds window {actual}"
            ),
            CodecError::DeltaBaseMismatch {
                expected,
                actual: None,
            } => write!(
                f,
                "delta window is encoded against base window {expected}, but the decoder holds no base window"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a LEB128 varint.
#[inline]
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode the LEB128 varint at `*pos` and step past it: the one varint
/// decoder, behind both [`Reader::varint`] and the full-window cell loop.
#[inline]
fn read_varint(data: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, CodecError> {
    // Fast paths: hypersparse windows make almost every field a one-byte
    // varint (small packet counts, column gaps), and the linear-index gaps
    // of a 4,096-node window are mostly two bytes.
    if let Some(&b) = data.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
        if let Some(&b1) = data.get(*pos + 1) {
            if b1 < 0x80 {
                *pos += 2;
                return Ok(u64::from(b & 0x7F) | (u64::from(b1) << 7));
            }
        }
    }
    read_varint_slow(data, pos, what)
}

#[cold]
fn read_varint_slow(data: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated(what))?;
        *pos += 1;
        let payload = u64::from(byte & 0x7F);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(CodecError::VarintOverflow(what));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// [`read_varint`] for a count or index.
#[inline]
fn read_usize(data: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, CodecError> {
    usize::try_from(read_varint(data, pos, what)?).map_err(|_| CodecError::VarintOverflow(what))
}

/// A cursor over the encoded bytes.
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub(crate) fn byte(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub(crate) fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        read_varint(self.data, &mut self.pos, what)
    }

    #[inline]
    pub(crate) fn usize_varint(&mut self, what: &'static str) -> Result<usize, CodecError> {
        read_usize(self.data, &mut self.pos, what)
    }

    /// A fixed-width little-endian `u64`.
    fn u64_le(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let bytes = self
            .data
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<8>)
            .ok_or(CodecError::Truncated(what))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*bytes))
    }
}

/// Whether a layout writes `elapsed` as a fixed 8-byte little-endian
/// nanosecond count rather than a varint. A wall-clock varint's length
/// follows the timing; a fixed field makes a full window's length depend
/// only on its matrix and counts.
fn fixed_elapsed(version: u8) -> bool {
    version >= FULL_WINDOW_VERSION
}

/// Append the stats block of a `version` window.
fn push_stats(buf: &mut Vec<u8>, stats: &IngestStats, version: u8) {
    push_varint(buf, stats.window_index);
    push_varint(buf, stats.events);
    push_varint(buf, stats.packets);
    push_varint(buf, stats.nnz as u64);
    push_varint(buf, stats.dropped_late);
    push_varint(buf, stats.reordered);
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    if fixed_elapsed(version) {
        buf.extend_from_slice(&nanos.to_le_bytes());
    } else {
        push_varint(buf, nanos);
    }
}

/// Parse the stats block of a `version` window.
fn parse_stats(r: &mut Reader<'_>, version: u8) -> Result<IngestStats, CodecError> {
    let window_index = r.varint("window_index")?;
    let events = r.varint("events")?;
    let packets = r.varint("packets")?;
    let nnz = r.usize_varint("stats nnz")?;
    let dropped_late = r.varint("dropped_late")?;
    // Version 1 predates the reordering stage; its streams were strictly
    // sorted, so a zero count is the accurate value, not a placeholder.
    let reordered = if version >= 2 {
        r.varint("reordered")?
    } else {
        0
    };
    let elapsed = Duration::from_nanos(if fixed_elapsed(version) {
        r.u64_le("elapsed")?
    } else {
        r.varint("elapsed")?
    });
    Ok(IngestStats {
        window_index,
        events,
        packets,
        nnz,
        dropped_late,
        reordered,
        elapsed,
    })
}

/// Read and validate the magic and version prefix.
fn parse_header(r: &mut Reader<'_>) -> Result<u8, CodecError> {
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.byte("magic")?;
    }
    if magic != WINDOW_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.byte("version")?;
    if version == 0 || version > WINDOW_CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// A first guess at a full window's encoded size: magic, version and stats
/// plus ~2 varints per stored entry.
pub(crate) fn full_size_hint(report: &WindowReport) -> usize {
    32 + report.matrix.nnz() * 4
}

/// Encode one window into the full ([`FULL_WINDOW_VERSION`]) binary format.
pub fn encode_window(report: &WindowReport) -> Vec<u8> {
    encode_window_into(report, Vec::with_capacity(full_size_hint(report)))
}

/// Append one window's full ([`FULL_WINDOW_VERSION`]) encoding to `buf` and
/// hand the buffer back: the bytes [`encode_window`] returns, written where
/// the caller wants them (the wire layer encodes straight into a frame
/// buffer). The buffer moves in and out by value so the encode loop works
/// on a local `Vec`, as fast as encoding into a fresh one.
pub(crate) fn encode_window_into(report: &WindowReport, mut buf: Vec<u8>) -> Vec<u8> {
    let matrix = &report.matrix;
    let (rows, cols) = matrix.shape();
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(FULL_WINDOW_VERSION);
    push_stats(&mut buf, &report.stats, FULL_WINDOW_VERSION);
    push_varint(&mut buf, rows as u64);
    push_varint(&mut buf, cols as u64);
    push_varint(&mut buf, matrix.nnz() as u64);

    // Cells in row-major order, each addressed by its linear index
    // `row * cols + col`: the first index is absolute, each later one
    // stores (index - previous - 1). Values follow their index inline.
    // Both dimensions are at most 2^24, so indices fit a u64.
    let (col_idx, values) = (matrix.col_indices(), matrix.values());
    let mut next = 0u64;
    for (row, span) in matrix.row_ptr().windows(2).enumerate() {
        let row_start = row as u64 * cols as u64;
        let (start, end) = (span[0], span[1]);
        for (&col, &value) in col_idx[start..end].iter().zip(&values[start..end]) {
            let index = row_start + col as u64;
            push_varint(&mut buf, index - next);
            push_varint(&mut buf, value);
            next = index + 1;
        }
    }
    buf
}

/// The `(rows, cols)` a window payload's header claims, read without
/// decoding a cell; `None` when the header does not parse (decoding the
/// payload then fails too, with the precise error).
///
/// A reader that knows its stream's node count checks this before
/// decoding, so a corrupt or hostile header cannot make it build a row
/// index for millions of rows.
pub fn window_shape(payload: &[u8]) -> Option<(usize, usize)> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    let version = parse_header(&mut r).ok()?;
    parse_stats(&mut r, version).ok()?;
    if version == DELTA_WINDOW_VERSION {
        r.varint("base window index").ok()?;
    }
    let rows = r.usize_varint("rows").ok()?;
    let cols = r.usize_varint("cols").ok()?;
    Some((rows, cols))
}

/// Decode a window previously produced by [`encode_window`].
///
/// Round-trip guarantee: the decoded matrix equals the encoded one
/// cell for cell (including shape), and the stats are identical.
///
/// This entry point is stateless, so it can only materialize full windows;
/// a [`DELTA_WINDOW_VERSION`] payload is rejected with
/// [`CodecError::DeltaBaseMismatch`] — use [`decode_window_into`] with a
/// [`DecodeScratch`] that has decoded the base window.
pub fn decode_window(data: &[u8]) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let version = parse_header(&mut r)?;
    if version == DELTA_WINDOW_VERSION {
        let _ = parse_stats(&mut r, version)?;
        let expected = r.varint("base window index")?;
        return Err(CodecError::DeltaBaseMismatch {
            expected,
            actual: None,
        });
    }
    let (mut row_ptr, mut col_idx, mut values) = (Vec::new(), Vec::new(), Vec::new());
    let (rows, cols, stats) =
        parse_full_body(&mut r, version, &mut row_ptr, &mut col_idx, &mut values)?;
    let matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("decoded arrays are not a valid CSR matrix"))?;
    Ok(WindowReport {
        matrix,
        stats,
        frame: None,
    })
}

/// Parse everything after the version byte of a full window into the given
/// (cleared and refilled) CSR arrays, returning the shape and stats.
fn parse_full_body(
    r: &mut Reader<'_>,
    version: u8,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(usize, usize, IngestStats), CodecError> {
    let stats = parse_stats(r, version)?;

    let rows = r.usize_varint("rows")?;
    let cols = r.usize_varint("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    let nnz = r.usize_varint("nnz")?;

    // The arrays are assembled directly in CSR layout — no intermediate
    // triple buffer, no counting pass — which is what makes replay decode
    // a fraction of live-ingest cost. Cell capacities are clamped by the
    // buffer length so a corrupt header cannot force a huge allocation; the
    // row index is sized from the claimed rows, which `MAX_DIMENSION`
    // bounds and a reader that knows its node count checks first
    // ([`window_shape`]).
    row_ptr.clear();
    row_ptr.reserve(rows + 1);
    col_idx.clear();
    col_idx.reserve(nnz.min(r.data.len()));
    values.clear();
    values.reserve(nnz.min(r.data.len()));
    // The cell loop runs on a local cursor over the payload; `Reader` is
    // only brought up to date once the last cell is read.
    let (data, mut pos) = (r.data, r.pos);
    if version < FULL_WINDOW_VERSION {
        parse_row_runs(data, &mut pos, (rows, cols), nnz, row_ptr, col_idx, values)?;
    } else {
        parse_linear_cells(data, &mut pos, (rows, cols), nnz, row_ptr, col_idx, values)?;
    }
    if pos != data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    r.pos = pos;
    row_ptr.resize(rows + 1, nnz);
    Ok((rows, cols, stats))
}

/// Parse the `nnz` cells of a version 1 or 2 window: an occupied-row count,
/// then per occupied row a row gap (the first row absolute, later ones
/// (gap - 1)), a cell count and its cells. Fills `row_ptr` up to and
/// including the last occupied row.
fn parse_row_runs(
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
        parse_row_cells(data, pos, row_nnz, cols, col_idx, values)?;
    }
    if col_idx.len() != nnz {
        return Err(CodecError::Corrupt("entry count disagrees with header"));
    }
    Ok(())
}

/// Parse the `nnz` cells of a version 4 window: each a linear-index gap
/// and a value. Fills `row_ptr` up to and including the last cell's row.
///
/// The cursor is a row and the lowest column the next cell may take in
/// it, so a cell in the cursor's row costs one comparison and a cell in
/// the next row one subtraction; only a gap over empty rows divides.
/// Crossing rows fills their starts in `row_ptr`. A [`one_byte_quad`] is
/// taken whole when its four cells land in the cursor's row or cross one
/// row end, which is how the long rows of a dense lesson end.
fn parse_linear_cells(
    data: &[u8],
    pos: &mut usize,
    (rows, cols): (usize, usize),
    nnz: usize,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    row_ptr.push(0);
    // A window without rows has no cell in bounds: treating it as one
    // without columns sends every cell to the out-of-bounds error.
    let cols = if rows == 0 { 0 } else { cols };
    let mut row = 0usize;
    // The lowest column the next cell may take in `row`; up to `cols`.
    let mut next_col = 0usize;
    let mut left = nnz;
    // Whether the last cell was two one-byte varints. A quad is tried only
    // then: long rows of small gaps take it run after run, while the
    // multi-byte gaps between the short rows of a hypersparse window do
    // not pay for a failed word load per cell.
    let mut quad_likely = true;
    while left > 0 {
        if quad_likely && left >= 4 {
            if let Some((quad_cols, quad_values)) = one_byte_quad(data, *pos, next_col) {
                if quad_cols[3] < cols {
                    col_idx.extend_from_slice(&quad_cols);
                    values.extend_from_slice(&quad_values);
                    next_col = quad_cols[3] + 1;
                    *pos += 8;
                    left -= 4;
                    continue;
                }
                if quad_cols[3] - cols < cols && row + 1 < rows {
                    // The quad crosses one row end: its cells at or past
                    // the end start the next row.
                    let fit = quad_cols.iter().filter(|&&c| c < cols).count();
                    row += 1;
                    row_ptr.push(col_idx.len() + fit);
                    let quad_cols = quad_cols.map(|c| if c < cols { c } else { c - cols });
                    col_idx.extend_from_slice(&quad_cols);
                    values.extend_from_slice(&quad_values);
                    next_col = quad_cols[3] + 1;
                    *pos += 8;
                    left -= 4;
                    continue;
                }
            }
        }
        let start = *pos;
        let gap = read_usize(data, pos, "cell gap")?;
        let mut col = next_col
            .checked_add(gap)
            .ok_or(CodecError::Corrupt("cell index out of bounds"))?;
        if col >= cols {
            if cols == 0 {
                return Err(CodecError::Corrupt("cell index out of bounds"));
            }
            // The gap runs past the row's end: one subtraction is the
            // common step to the next row, and a longer run is one
            // division, so a huge gap cannot cost a step per row.
            col -= cols;
            let crossed = if col < cols {
                1
            } else {
                let crossed = 1 + col / cols;
                col %= cols;
                crossed
            };
            if crossed >= rows - row {
                return Err(CodecError::Corrupt("cell index out of bounds"));
            }
            row += crossed;
            if crossed == 1 {
                row_ptr.push(col_idx.len());
            } else {
                row_ptr.resize(row + 1, col_idx.len());
            }
        }
        let value = read_varint(data, pos, "value")?;
        quad_likely = *pos - start == 2;
        col_idx.push(col);
        values.push(value);
        next_col = col + 1;
        left -= 1;
    }
    Ok(())
}

/// Bit 7 of each byte of a little-endian word: clear in all eight exactly
/// when the word holds eight one-byte varints.
const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;

/// Four (column gap, value) cells at `pos` read as one 8-byte word, when
/// all eight are one-byte varints: their columns counted on from
/// `next_col`, and their values. Rows of small gaps and small counts are
/// runs of one-byte varints, so both full-window cell loops try this
/// first.
#[inline]
fn one_byte_quad(data: &[u8], pos: usize, next_col: usize) -> Option<([usize; 4], [u64; 4])> {
    let &word = data.get(pos..)?.first_chunk::<8>()?;
    if u64::from_le_bytes(word) & CONTINUATION_BITS != 0 {
        return None;
    }
    // `next_col <= cols <= MAX_DIMENSION`, so these sums cannot overflow.
    let c0 = next_col + usize::from(word[0]);
    let c1 = c0 + 1 + usize::from(word[2]);
    let c2 = c1 + 1 + usize::from(word[4]);
    let c3 = c2 + 1 + usize::from(word[6]);
    Some((
        [c0, c1, c2, c3],
        [word[1], word[3], word[5], word[7]].map(u64::from),
    ))
}

/// Parse one occupied row's `row_nnz` (column delta, value) cells at
/// `*pos`, appending them to `col_idx` and `values`.
///
/// Columns strictly increase within a row: the first is absolute, later
/// ones store (delta - 1). While four or more cells remain, a
/// [`one_byte_quad`] is four cells, and their last (largest) column is the
/// only one that needs the bounds check — it fails exactly when the
/// per-cell loop would, with the same error. Any other byte falls through
/// to that per-cell loop for one cell.
#[inline]
fn parse_row_cells(
    data: &[u8],
    pos: &mut usize,
    row_nnz: usize,
    cols: usize,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    // The lowest column the next cell may take.
    let mut next_col = 0usize;
    let mut left = row_nnz;
    while left > 0 {
        if left >= 4 {
            if let Some((quad_cols, quad_values)) = one_byte_quad(data, *pos, next_col) {
                if quad_cols[3] >= cols {
                    return Err(CodecError::Corrupt("column index out of bounds"));
                }
                col_idx.extend_from_slice(&quad_cols);
                values.extend_from_slice(&quad_values);
                next_col = quad_cols[3] + 1;
                *pos += 8;
                left -= 4;
                continue;
            }
        }
        let delta = read_usize(data, pos, "column delta")?;
        let col = next_col
            .checked_add(delta)
            .ok_or(CodecError::Corrupt("column overflow"))?;
        if col >= cols {
            return Err(CodecError::Corrupt("column index out of bounds"));
        }
        let value = read_varint(data, pos, "value")?;
        col_idx.push(col);
        values.push(value);
        next_col = col + 1;
        left -= 1;
    }
    Ok(())
}

/// Encode one window as a sparse delta ([`DELTA_WINDOW_VERSION`]) against
/// the previous window of the same stream.
///
/// Consecutive windows of a steady scenario share most cells, so the delta
/// — per changed row: deleted columns and upserted `(column, value)` pairs,
/// all delta-compressed like the version-2 full layout — is a fraction of
/// the full encoding. The payload names its base window index;
/// [`decode_window_into`] refuses to apply it to anything else. Both
/// matrices must share one shape (a stream invariant).
pub fn encode_window_delta(prev: &WindowReport, cur: &WindowReport) -> Vec<u8> {
    encode_window_delta_into(prev, cur, Vec::new())
}

/// Append the delta encoding of `cur` against `prev` to `buf` and hand the
/// buffer back (by value, like [`encode_window_into`]): the bytes
/// [`encode_window_delta`] returns, written where the caller wants them.
pub(crate) fn encode_window_delta_into(
    prev: &WindowReport,
    cur: &WindowReport,
    mut buf: Vec<u8>,
) -> Vec<u8> {
    let (rows, cols) = cur.matrix.shape();
    assert_eq!(
        prev.matrix.shape(),
        (rows, cols),
        "delta windows require a same-shape base window"
    );
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    let changes = prev
        .matrix
        .diff(&cur.matrix)
        // tw-analyze: allow(no-panic-in-lib, "the shape assert a few lines up guarantees diff cannot reject these matrices")
        .expect("shapes were checked above");

    buf.reserve(64 + changes.len() * 4);
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(DELTA_WINDOW_VERSION);
    push_stats(&mut buf, &cur.stats, DELTA_WINDOW_VERSION);
    push_varint(&mut buf, prev.stats.window_index);
    push_varint(&mut buf, rows as u64);
    push_varint(&mut buf, cols as u64);
    push_varint(&mut buf, cur.matrix.nnz() as u64);

    let changed_rows = {
        let mut count = 0usize;
        let mut prev_row = usize::MAX;
        for &(r, _, _) in &changes {
            if r != prev_row {
                count += 1;
                prev_row = r;
            }
        }
        count
    };
    push_varint(&mut buf, changed_rows as u64);

    // Per changed row (rows delta-compressed like the version-2 full
    // layout): the deleted-column list, then the upserted (column, value)
    // list, each with first-absolute / later (delta - 1) column compression.
    let mut prev_row: Option<usize> = None;
    let mut i = 0usize;
    while i < changes.len() {
        let row = changes[i].0;
        let end = changes[i..]
            .iter()
            .position(|&(r, _, _)| r != row)
            .map_or(changes.len(), |p| i + p);
        match prev_row {
            None => push_varint(&mut buf, row as u64),
            Some(p) => push_varint(&mut buf, (row - p - 1) as u64),
        }
        prev_row = Some(row);
        let row_changes = &changes[i..end];
        let dels = row_changes.iter().filter(|(_, _, v)| v.is_none()).count();
        push_varint(&mut buf, dels as u64);
        push_varint(&mut buf, (row_changes.len() - dels) as u64);
        for keep_sets in [false, true] {
            let mut prev_col: Option<usize> = None;
            for &(_, c, v) in row_changes
                .iter()
                .filter(|(_, _, v)| v.is_some() == keep_sets)
            {
                match prev_col {
                    None => push_varint(&mut buf, c as u64),
                    Some(p) => push_varint(&mut buf, (c - p - 1) as u64),
                }
                prev_col = Some(c);
                if let Some(v) = v {
                    push_varint(&mut buf, v);
                }
            }
        }
        i = end;
    }
    buf
}

/// The base window index a delta ([`DELTA_WINDOW_VERSION`]) payload names;
/// `None` for full windows and for payloads whose header does not parse.
pub(crate) fn delta_base_index(payload: &[u8]) -> Option<u64> {
    let mut r = Reader {
        data: payload,
        pos: 0,
    };
    if parse_header(&mut r).ok()? != DELTA_WINDOW_VERSION {
        return None;
    }
    parse_stats(&mut r, DELTA_WINDOW_VERSION).ok()?;
    r.varint("base window index").ok()
}

/// Reusable decode state: the delta base window plus recycled CSR buffers.
///
/// A scratch makes [`decode_window_into`] allocation-free after warm-up:
/// decoded matrices are built straight into buffers recycled through
/// [`DecodeScratch::recycle`], and the delta base is refreshed in place
/// rather than reallocated. One scratch serves one stream — it remembers
/// the last window it materialized, and a delta payload must name that
/// window as its base.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The last window materialized through this scratch.
    base: DeltaBase,
    /// Recycled `(row_ptr, col_idx, values)` triples.
    pool: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
    /// Reused change-list buffer for delta application.
    changes: Vec<(usize, usize, Option<u64>)>,
    reuse_hits: u64,
    reuse_counter: Option<Counter>,
}

/// A scratch's delta base, kept in the cheapest form that can produce it.
///
/// A full window is kept as its payload bytes (a copy of the compact
/// encoding, into a reused buffer) and decoded only when a delta arrives;
/// a window produced by a delta is kept as a matrix, refreshed in place
/// with `clone_from`. A stream of full windows therefore never pays a
/// per-window matrix copy.
#[derive(Debug)]
struct DeltaBase {
    /// Window index of the base; `None` when the scratch holds no base.
    index: Option<u64>,
    /// The base window's full payload, valid while `decoded` is false.
    payload: Vec<u8>,
    /// Whether `matrix` holds the base (otherwise `payload` does).
    decoded: bool,
    /// Decoded base storage, reused across windows.
    matrix: CsrMatrix<u64>,
}

impl Default for DeltaBase {
    fn default() -> Self {
        DeltaBase {
            index: None,
            payload: Vec::new(),
            decoded: false,
            matrix: CsrMatrix::empty(0, 0),
        }
    }
}

impl DeltaBase {
    /// Make the full window `payload` (window `index`) the base.
    fn set_payload(&mut self, index: u64, payload: &[u8]) {
        self.payload.clear();
        self.payload.extend_from_slice(payload);
        self.index = Some(index);
        self.decoded = false;
    }

    /// Make the delta-produced `matrix` (window `index`) the base.
    fn set_matrix(&mut self, index: u64, matrix: &CsrMatrix<u64>) {
        self.matrix.clone_from(matrix);
        self.index = Some(index);
        self.decoded = true;
    }

    /// The base matrix for a delta encoded against window `expected`,
    /// decoding the stored payload first when the base is still in byte
    /// form.
    fn resolve(&mut self, expected: u64) -> Result<&CsrMatrix<u64>, CodecError> {
        match self.index {
            Some(actual) if actual == expected => {}
            actual => return Err(CodecError::DeltaBaseMismatch { expected, actual }),
        }
        if !self.decoded {
            let storage = std::mem::replace(&mut self.matrix, CsrMatrix::empty(0, 0));
            let (_, _, mut row_ptr, mut col_idx, mut values) = storage.into_raw_parts();
            let mut r = Reader {
                data: &self.payload,
                pos: 0,
            };
            let version = parse_header(&mut r)?;
            let (rows, cols, _) =
                parse_full_body(&mut r, version, &mut row_ptr, &mut col_idx, &mut values)?;
            self.matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
                .map_err(|_| CodecError::Corrupt("decoded arrays are not a valid CSR matrix"))?;
            self.decoded = true;
        }
        Ok(&self.matrix)
    }

    /// Forget the base, keeping its buffers.
    fn clear(&mut self) {
        self.index = None;
        self.decoded = false;
    }
}

/// How many recycled buffer triples a scratch keeps; more than this are
/// dropped on [`DecodeScratch::recycle`] (a steady decode loop needs one).
const SCRATCH_POOL_LIMIT: usize = 4;

impl DecodeScratch {
    /// A fresh scratch with no base window and empty buffer pool.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Count buffer-reuse hits into `codec.decode_reuse_hits` of the given
    /// registry (in addition to the local [`DecodeScratch::reuse_hits`]).
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.reuse_counter = Some(registry.counter("codec.decode_reuse_hits"));
    }

    /// Hand a no-longer-needed matrix's buffers back for the next decode.
    pub fn recycle(&mut self, matrix: CsrMatrix<u64>) {
        if self.pool.len() < SCRATCH_POOL_LIMIT {
            let (_, _, row_ptr, col_idx, values) = matrix.into_raw_parts();
            self.pool.push((row_ptr, col_idx, values));
        }
    }

    /// How many decodes built into recycled buffers instead of allocating.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// The window index of the current delta base, if any.
    #[cfg(test)]
    pub(crate) fn base_window(&self) -> Option<u64> {
        self.base.index
    }

    /// Forget the base window (e.g. before seeking a recording): the next
    /// payload must then be a full window. Recycled buffers are kept.
    pub fn reset(&mut self) {
        self.base.clear();
    }

    /// Pop a recycled buffer triple (cleared), or fresh empty vectors.
    fn take_buffers(&mut self) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        match self.pool.pop() {
            Some((mut row_ptr, mut col_idx, mut values)) => {
                row_ptr.clear();
                col_idx.clear();
                values.clear();
                self.reuse_hits += 1;
                if let Some(counter) = &self.reuse_counter {
                    counter.inc();
                }
                (row_ptr, col_idx, values)
            }
            None => (Vec::new(), Vec::new(), Vec::new()),
        }
    }
}

/// Decode a full or delta window through a [`DecodeScratch`].
///
/// Full windows (versions 1, 2 and 4) decode exactly as [`decode_window`] and
/// additionally become the scratch's base; delta windows
/// ([`DELTA_WINDOW_VERSION`]) are applied to that base. Either way the
/// returned matrix is built into recycled buffers when any are pooled —
/// hand finished matrices back via [`DecodeScratch::recycle`] and the loop
/// stops allocating once buffers reach their high-water marks.
pub fn decode_window_into(
    data: &[u8],
    scratch: &mut DecodeScratch,
) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let version = parse_header(&mut r)?;
    let (mut row_ptr, mut col_idx, mut values) = scratch.take_buffers();
    let delta = version == DELTA_WINDOW_VERSION;
    let parsed = if delta {
        let DecodeScratch { base, changes, .. } = &mut *scratch;
        parse_delta_body(
            &mut r,
            base,
            changes,
            &mut row_ptr,
            &mut col_idx,
            &mut values,
        )
    } else {
        parse_full_body(&mut r, version, &mut row_ptr, &mut col_idx, &mut values)
    };
    let (rows, cols, stats) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            if scratch.pool.len() < SCRATCH_POOL_LIMIT {
                scratch.pool.push((row_ptr, col_idx, values));
            }
            return Err(e);
        }
    };
    let matrix = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("decoded arrays are not a valid CSR matrix"))?;
    if delta {
        scratch.base.set_matrix(stats.window_index, &matrix);
    } else {
        scratch.base.set_payload(stats.window_index, data);
    }
    Ok(WindowReport {
        matrix,
        stats,
        frame: None,
    })
}

/// Parse everything after the version byte of a delta window and apply it
/// to `base`, filling the given CSR arrays with the patched window.
fn parse_delta_body(
    r: &mut Reader<'_>,
    base: &mut DeltaBase,
    changes: &mut Vec<(usize, usize, Option<u64>)>,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(usize, usize, IngestStats), CodecError> {
    let stats = parse_stats(r, DELTA_WINDOW_VERSION)?;
    let expected = r.varint("base window index")?;
    let base = base.resolve(expected)?;

    let rows = r.usize_varint("rows")?;
    let cols = r.usize_varint("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    if (rows, cols) != base.shape() {
        return Err(CodecError::Corrupt("delta shape disagrees with its base"));
    }
    let final_nnz = r.usize_varint("final nnz")?;
    let changed_rows = r.usize_varint("changed row count")?;
    if changed_rows > rows {
        return Err(CodecError::Corrupt("changed row count exceeds the rows"));
    }

    changes.clear();
    let mut next_row = 0usize;
    for _ in 0..changed_rows {
        let gap = r.usize_varint("row gap")?;
        let row = next_row
            .checked_add(gap)
            .ok_or(CodecError::Corrupt("row overflow"))?;
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        next_row = row + 1;
        let dels = r.usize_varint("deleted column count")?;
        let sets = r.usize_varint("upserted column count")?;
        if dels == 0 && sets == 0 {
            return Err(CodecError::Corrupt("changed row with no changes"));
        }
        let row_start = changes.len();
        for list in [(dels, false), (sets, true)] {
            let (count, is_set) = list;
            let mut next_col = 0usize;
            for _ in 0..count {
                let delta = r.usize_varint("column delta")?;
                let col = next_col
                    .checked_add(delta)
                    .ok_or(CodecError::Corrupt("column overflow"))?;
                if col >= cols {
                    return Err(CodecError::Corrupt("column index out of bounds"));
                }
                next_col = col + 1;
                let value = if is_set {
                    Some(r.varint("value")?)
                } else {
                    None
                };
                changes.push((row, col, value));
            }
        }
        // Deletes and upserts were parsed as two sorted runs; restore the
        // single by-column order `apply_delta_into` requires. A column in
        // both runs survives the sort and is rejected as a duplicate below.
        changes[row_start..].sort_unstable_by_key(|&(_, c, _)| c);
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    base.apply_delta_into(changes, row_ptr, col_idx, values)
        .map_err(|_| CodecError::Corrupt("delta changes do not apply to the base window"))?;
    if col_idx.len() != final_nnz {
        return Err(CodecError::Corrupt("delta result disagrees with header"));
    }
    Ok((rows, cols, stats))
}

/// The `codec.*` counters: encoder cadence and decoder buffer reuse.
///
/// Encoding contexts (the archive recorder, the serve producer) drive
/// `delta_windows`, `keyframes` and `bytes_saved`; decoding contexts wire
/// `decode_reuse_hits` through [`DecodeScratch::instrument`]. `bytes_saved`
/// is measured against the last key frame's encoded size — the steady-state
/// proxy for what a full encoding of each delta window would have cost.
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    /// Windows recorded or served as deltas (a forwarded delta counts).
    pub delta_windows: Counter,
    /// Windows recorded or served in full (key frames; a forwarded one
    /// counts).
    pub keyframes: Counter,
    /// Bytes the delta encoding saved vs the last key frame's size.
    pub bytes_saved: Counter,
    /// Decodes that built into recycled buffers instead of allocating.
    pub decode_reuse_hits: Counter,
}

impl CodecMetrics {
    /// Register the `codec.*` counters in a registry.
    pub fn new(registry: &MetricsRegistry) -> Self {
        CodecMetrics {
            delta_windows: registry.counter("codec.delta_windows"),
            keyframes: registry.counter("codec.keyframes"),
            bytes_saved: registry.counter("codec.bytes_saved"),
            decode_reuse_hits: registry.counter("codec.decode_reuse_hits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: usize, cols: usize, entries: &[(usize, usize, u64)]) -> WindowReport {
        let matrix = CsrMatrix::from_sorted_triples(rows, cols, entries);
        let stats = IngestStats {
            window_index: 3,
            events: entries.len() as u64,
            packets: entries
                .iter()
                .fold(0u64, |acc, &(_, _, v)| acc.saturating_add(v)),
            nnz: entries.len(),
            dropped_late: 1,
            reordered: 2,
            elapsed: Duration::from_micros(1234),
        };
        WindowReport {
            matrix,
            stats,
            frame: None,
        }
    }

    /// Magic, `version` and an all-zero stats block in that version's
    /// layout: the prefix of a hand-assembled payload.
    fn header(version: u8) -> Vec<u8> {
        let zero = IngestStats {
            window_index: 0,
            events: 0,
            packets: 0,
            nnz: 0,
            dropped_late: 0,
            reordered: 0,
            elapsed: Duration::ZERO,
        };
        let mut bytes = WINDOW_MAGIC.to_vec();
        bytes.push(version);
        push_stats(&mut bytes, &zero, version);
        bytes
    }

    #[test]
    fn round_trips_a_small_window() {
        let original = report(6, 6, &[(0, 1, 5), (0, 4, 1), (2, 2, 9), (5, 0, u64::MAX)]);
        let bytes = encode_window(&original);
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
        assert_eq!(decoded.stats, original.stats);
    }

    #[test]
    fn round_trips_an_empty_window() {
        let original = report(100, 100, &[]);
        let decoded = decode_window(&encode_window(&original)).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
        assert_eq!(decoded.matrix.shape(), (100, 100));
        assert_eq!(decoded.stats, original.stats);
    }

    #[test]
    fn hypersparse_windows_encode_compactly() {
        // 4 entries over a 100k-address space: delta compression keeps the
        // whole window under a hundred bytes where raw CSR arrays (usize
        // row_ptr alone) would take ~800 KB.
        let original = report(
            100_000,
            100_000,
            &[
                (5, 99_999, 1),
                (70_000, 3, 2),
                (70_000, 4, 7),
                (99_999, 0, 1),
            ],
        );
        let bytes = encode_window(&original);
        assert!(bytes.len() < 100, "got {} bytes", bytes.len());
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.matrix, original.matrix);
    }

    #[test]
    fn rejects_bad_magic_and_future_versions() {
        let mut bytes = encode_window(&report(2, 2, &[(0, 1, 1)]));
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode_window(&wrong), Err(CodecError::BadMagic));
        bytes[4] = WINDOW_CODEC_VERSION + 1;
        assert_eq!(
            decode_window(&bytes),
            Err(CodecError::UnsupportedVersion(WINDOW_CODEC_VERSION + 1))
        );
        assert_eq!(decode_window(b""), Err(CodecError::Truncated("magic")));
    }

    #[test]
    fn rejects_dimensions_beyond_the_codec_limit() {
        // Hand-assemble a header claiming a huge dimension: the decoder must
        // reject it before allocating row storage, and the error must name
        // both the offending dimension and the limit.
        let expected = Err(CodecError::DimensionTooLarge {
            dimension: MAX_DIMENSION + 1,
            limit: MAX_DIMENSION,
        });
        for version in [2, FULL_WINDOW_VERSION] {
            let mut bytes = header(version);
            super::push_varint(&mut bytes, (MAX_DIMENSION as u64) + 1); // rows
            super::push_varint(&mut bytes, 4); // cols
            assert_eq!(decode_window(&bytes).map(|_| ()), expected, "v{version}");
        }

        // Mirror of the guard on the delta path: same header shape after the
        // base window index.
        let mut delta = header(DELTA_WINDOW_VERSION);
        super::push_varint(&mut delta, 0); // base window index
        super::push_varint(&mut delta, (MAX_DIMENSION as u64) + 1); // rows
        super::push_varint(&mut delta, 4); // cols
        let mut scratch = DecodeScratch::new();
        scratch.base.set_matrix(0, &CsrMatrix::empty(2, 2));
        assert_eq!(
            decode_window_into(&delta, &mut scratch).map(|_| ()),
            expected
        );
    }

    #[test]
    fn version_one_windows_still_decode() {
        // Hand-assemble a pre-watermark (version 1) window: the stats block
        // has no `reordered` varint. Recordings captured before the codec
        // bump must keep replaying, with `reordered` reported as zero.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WINDOW_MAGIC);
        bytes.push(1); // version 1
        for v in [3u64, 1, 5, 1, 7] {
            super::push_varint(&mut bytes, v); // index, events, packets, nnz, late
        }
        super::push_varint(&mut bytes, 1_234_000); // elapsed ns
        for v in [2u64, 2, 1, 1] {
            super::push_varint(&mut bytes, v); // rows, cols, nnz, occupied rows
        }
        for v in [0u64, 1, 1, 5] {
            super::push_varint(&mut bytes, v); // row 0, one entry, col 1, value 5
        }
        let decoded = decode_window(&bytes).unwrap();
        assert_eq!(decoded.stats.window_index, 3);
        assert_eq!(decoded.stats.dropped_late, 7);
        assert_eq!(decoded.stats.reordered, 0, "v1 predates the counter");
        assert_eq!(decoded.stats.elapsed, Duration::from_nanos(1_234_000));
        assert_eq!(decoded.matrix.nnz(), 1);
        assert_eq!(decoded.matrix.get(0, 1), 5);
        // Version 0 never existed; reject it rather than guessing a layout.
        bytes[4] = 0;
        assert_eq!(
            decode_window(&bytes),
            Err(CodecError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let bytes = encode_window(&report(6, 6, &[(0, 1, 5), (2, 2, 9)]));
        for len in 0..bytes.len() {
            assert!(
                decode_window(&bytes[..len]).is_err(),
                "truncated at {len} must error"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_window(&padded),
            Err(CodecError::Corrupt("trailing bytes after the last entry"))
        );
    }

    #[test]
    fn gaps_at_the_varint_limit_are_overflow_errors() {
        // A row gap, column delta or cell gap of u64::MAX (the largest
        // varint) is the (gap - 1) of a position past every index: a typed
        // error, never an arithmetic panic or a silently repeated index.
        let full = |version: u8, counts: &[u64], cells: &[u64]| {
            let mut bytes = header(version);
            for v in counts.iter().chain(cells) {
                super::push_varint(&mut bytes, *v);
            }
            decode_window(&bytes).map(|_| ())
        };
        // rows, cols, nnz, occupied; then row 0 with one cell, then a gap.
        assert_eq!(
            full(2, &[4, 4, 2, 2], &[0, 1, 0, 1, u64::MAX, 1, 0, 1]),
            Err(CodecError::Corrupt("row overflow"))
        );
        // Row 0 with two cells, the second a column delta past the end.
        assert_eq!(
            full(2, &[4, 4, 2, 1], &[0, 2, 0, 1, u64::MAX, 1]),
            Err(CodecError::Corrupt("column overflow"))
        );
        // rows, cols, nnz; then cell 0, then a cell gap past the end, both
        // from the first cell and from the last column of a row.
        for first in [0, 3] {
            assert_eq!(
                full(FULL_WINDOW_VERSION, &[4, 4, 2], &[first, 1, u64::MAX, 1]),
                Err(CodecError::Corrupt("cell index out of bounds"))
            );
        }

        let mut delta = header(DELTA_WINDOW_VERSION);
        // base index, rows, cols, final nnz, changed rows; row 0 upserts
        // two cells, the second a column delta past the end.
        for v in [0u64, 4, 4, 2, 1, 0, 0, 2, 0, 1, u64::MAX, 1] {
            super::push_varint(&mut delta, v);
        }
        let mut scratch = DecodeScratch::new();
        scratch.base.set_matrix(0, &CsrMatrix::empty(4, 4));
        assert_eq!(
            decode_window_into(&delta, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("column overflow"))
        );
    }

    #[test]
    fn decoder_never_panics_on_corrupt_flips() {
        let bytes = encode_window(&report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 1_000_000)]));
        for pos in 0..bytes.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= xor;
                let _ = decode_window(&corrupt); // must not panic
            }
        }
    }

    #[test]
    fn display_messages_name_the_failure() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(CodecError::Truncated("value").to_string().contains("value"));
        assert!(CodecError::VarintOverflow("rows")
            .to_string()
            .contains("rows"));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
        let too_large = CodecError::DimensionTooLarge {
            dimension: MAX_DIMENSION + 1,
            limit: MAX_DIMENSION,
        }
        .to_string();
        assert!(too_large.contains(&(MAX_DIMENSION + 1).to_string()));
        assert!(too_large.contains(&MAX_DIMENSION.to_string()));
        let mismatch = CodecError::DeltaBaseMismatch {
            expected: 7,
            actual: Some(5),
        }
        .to_string();
        assert!(mismatch.contains('7') && mismatch.contains('5'));
        assert!(CodecError::DeltaBaseMismatch {
            expected: 7,
            actual: None,
        }
        .to_string()
        .contains("no base"));
    }

    fn assert_reports_equal(a: &WindowReport, b: &WindowReport) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.matrix, b.matrix);
    }

    #[test]
    fn full_windows_encode_as_version_four() {
        // One writer: every full window is a version-4 linear-gap run. Two
        // cells two rows apart: index 1 absolute, then 28 - 1 - 1 = 26.
        let original = report(8, 8, &[(0, 1, 2), (3, 4, 5)]);
        let bytes = encode_window(&original);
        assert_eq!(FULL_WINDOW_VERSION, 4);
        let mut want = WINDOW_MAGIC.to_vec();
        want.push(4);
        push_stats(&mut want, &original.stats, 4);
        want.extend_from_slice(&[8, 8, 2, 1, 2, 26, 5]);
        assert_eq!(bytes, want);
    }

    #[test]
    fn fixed_elapsed_keeps_full_window_lengths_independent_of_timing() {
        let mut fast = report(8, 8, &[(0, 1, 2), (3, 4, 5)]);
        fast.stats.elapsed = Duration::from_nanos(1);
        let mut slow = fast.clone();
        slow.stats.elapsed = Duration::from_secs(3_600);
        assert_eq!(encode_window(&fast).len(), encode_window(&slow).len());
        assert_eq!(decode_window(&encode_window(&slow)).unwrap(), slow);
        // The delta layout keeps its varint.
        let mut cur = fast.clone();
        cur.stats.window_index += 1;
        let mut slow_cur = cur.clone();
        slow_cur.stats.elapsed = slow.stats.elapsed;
        assert!(
            encode_window_delta(&fast, &cur).len() < encode_window_delta(&fast, &slow_cur).len()
        );
    }

    #[test]
    fn linear_gaps_cross_empty_rows_and_reach_the_last_cell() {
        // A first cell past row 0, a gap over several empty rows, a
        // four-cell word that would cross a row end, and the last cell of
        // the matrix.
        let cells = [
            (1, 3, 1),
            (5, 0, 2),
            (5, 1, 3),
            (5, 2, 4),
            (6, 0, 5),
            (9, 6, 6),
        ];
        // And a four-cell word of one-byte varints that crosses one row
        // end after its second cell.
        let crossing = [(0, 5, 1), (0, 6, 2), (1, 0, 3), (1, 2, 4), (2, 7, 5)];
        for original in [report(10, 7, &cells), report(3, 8, &crossing)] {
            let bytes = encode_window(&original);
            assert_eq!(decode_window(&bytes).unwrap(), original);
            let mut scratch = DecodeScratch::new();
            assert_eq!(decode_window_into(&bytes, &mut scratch).unwrap(), original);
        }
        // One more cell past the end is out of bounds, and so is any cell
        // in a window with no rows or no columns.
        let mut past = header(FULL_WINDOW_VERSION);
        for v in [10u64, 7, 1, 70, 1] {
            super::push_varint(&mut past, v);
        }
        assert_eq!(
            decode_window(&past),
            Err(CodecError::Corrupt("cell index out of bounds"))
        );
        for (rows, cols) in [(0u64, 7u64), (7, 0), (0, 0)] {
            let mut empty = header(FULL_WINDOW_VERSION);
            for v in [rows, cols, 1, 0, 1] {
                super::push_varint(&mut empty, v);
            }
            assert_eq!(
                decode_window(&empty),
                Err(CodecError::Corrupt("cell index out of bounds")),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn window_shape_reads_only_the_header() {
        let bytes = encode_window(&report(9, 5, &[(2, 2, 1)]));
        assert_eq!(window_shape(&bytes), Some((9, 5)));
        // Everything after the shape may be missing.
        let mut claim = header(FULL_WINDOW_VERSION);
        super::push_varint(&mut claim, 1 << 24);
        super::push_varint(&mut claim, 4);
        assert_eq!(window_shape(&claim), Some((1 << 24, 4)));
        let mut v2 = header(2);
        super::push_varint(&mut v2, 3);
        super::push_varint(&mut v2, 6);
        assert_eq!(window_shape(&v2), Some((3, 6)));
        let prev = report(9, 5, &[(2, 2, 1)]);
        let mut cur = report(9, 5, &[(2, 3, 1)]);
        cur.stats.window_index += 1;
        assert_eq!(
            window_shape(&encode_window_delta(&prev, &cur)),
            Some((9, 5))
        );
        for junk in [&b""[..], b"TWWR", b"not a window", &bytes[..20]] {
            assert_eq!(window_shape(junk), None);
        }
    }

    #[test]
    fn delta_round_trips_through_a_scratch() {
        let prev = report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 7)]);
        let mut cur = report(16, 16, &[(1, 2, 3), (2, 0, 9), (9, 15, 8)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let delta = encode_window_delta(&prev, &cur);
        assert_eq!(delta[4], DELTA_WINDOW_VERSION);

        let mut scratch = DecodeScratch::new();
        let got_prev = decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        assert_reports_equal(&got_prev, &prev);
        let got_cur = decode_window_into(&delta, &mut scratch).unwrap();
        assert_reports_equal(&got_cur, &cur);
        assert_eq!(scratch.base_window(), Some(cur.stats.window_index));
    }

    #[test]
    fn delta_chains_reuse_recycled_buffers() {
        // A keyframe + three deltas decoded in a recycle loop: after the
        // first decode hands its buffers back, every later decode is a
        // pool hit.
        let mut reports = vec![report(32, 32, &[(0, 0, 1), (5, 9, 2)])];
        for (i, cells) in [
            vec![(0, 0, 2), (5, 9, 2)],
            vec![(5, 9, 2)],
            vec![(5, 9, 2), (30, 31, 4)],
        ]
        .into_iter()
        .enumerate()
        {
            let mut next = report(32, 32, &cells);
            next.stats.window_index = reports[0].stats.window_index + i as u64 + 1;
            reports.push(next);
        }
        let mut encoded = vec![encode_window(&reports[0])];
        for pair in reports.windows(2) {
            encoded.push(encode_window_delta(&pair[0], &pair[1]));
        }

        let mut scratch = DecodeScratch::new();
        for (bytes, want) in encoded.iter().zip(&reports) {
            let got = decode_window_into(bytes, &mut scratch).unwrap();
            assert_reports_equal(&got, want);
            scratch.recycle(got.matrix);
        }
        assert_eq!(scratch.reuse_hits(), encoded.len() as u64 - 1);
    }

    #[test]
    fn delta_requires_its_exact_base() {
        let prev = report(8, 8, &[(1, 1, 1)]);
        let mut cur = report(8, 8, &[(1, 1, 2)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let delta = encode_window_delta(&prev, &cur);

        // A scratch that never saw a window holds no base.
        let mut cold = DecodeScratch::new();
        assert_eq!(
            decode_window_into(&delta, &mut cold).map(|_| ()),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: None,
            })
        );

        // A scratch holding a different window refuses to patch it.
        let mut wrong = report(8, 8, &[(1, 1, 1)]);
        wrong.stats.window_index = prev.stats.window_index + 10;
        let mut stale = DecodeScratch::new();
        decode_window_into(&encode_window(&wrong), &mut stale).unwrap();
        assert_eq!(
            decode_window_into(&delta, &mut stale).map(|_| ()),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: Some(wrong.stats.window_index),
            })
        );

        // The stateless decoder can never supply a base.
        assert_eq!(
            decode_window(&delta),
            Err(CodecError::DeltaBaseMismatch {
                expected: prev.stats.window_index,
                actual: None,
            })
        );

        // After reset() the base is forgotten again.
        stale.reset();
        assert_eq!(stale.base_window(), None);
        assert!(decode_window_into(&delta, &mut stale).is_err());
    }

    #[test]
    fn delta_decoder_never_panics_on_corrupt_flips() {
        let prev = report(16, 16, &[(1, 2, 3), (1, 3, 4), (9, 15, 1_000_000)]);
        let mut cur = report(16, 16, &[(1, 2, 3), (4, 4, 4), (9, 15, 999_999)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let bytes = encode_window_delta(&prev, &cur);
        for pos in 0..bytes.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= xor;
                let mut scratch = DecodeScratch::new();
                decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
                // Must not panic; a lucky flip may still decode to something.
                let _ = decode_window_into(&corrupt, &mut scratch);
            }
        }
    }

    #[test]
    fn delta_rejects_shape_and_count_lies() {
        let prev = report(8, 8, &[(1, 1, 1), (2, 2, 2)]);
        let mut cur = report(8, 8, &[(1, 1, 5)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let bytes = encode_window_delta(&prev, &cur);

        // A base with another shape is refused even when indices match.
        let mut scratch = DecodeScratch::new();
        let mut misshapen = report(4, 4, &[(1, 1, 1)]);
        misshapen.stats.window_index = prev.stats.window_index;
        decode_window_into(&encode_window(&misshapen), &mut scratch).unwrap();
        assert_eq!(
            decode_window_into(&bytes, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("delta shape disagrees with its base"))
        );

        // Trailing garbage after a valid delta is refused.
        let mut padded = bytes.clone();
        padded.push(0);
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        assert_eq!(
            decode_window_into(&padded, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("trailing bytes after the last entry"))
        );
    }

    #[test]
    fn codec_metrics_register_all_counters() {
        let registry = MetricsRegistry::new();
        let metrics = CodecMetrics::new(&registry);
        metrics.delta_windows.inc();
        metrics.keyframes.inc();
        metrics.bytes_saved.add(10);
        let mut scratch = DecodeScratch::new();
        scratch.instrument(&registry);
        scratch.recycle(CsrMatrix::empty(2, 2));
        let got = decode_window_into(&encode_window(&report(2, 2, &[])), &mut scratch).unwrap();
        assert_eq!(got.matrix.nnz(), 0);
        let snapshot = registry.snapshot();
        for (name, want) in [
            ("codec.delta_windows", 1),
            ("codec.keyframes", 1),
            ("codec.bytes_saved", 10),
            ("codec.decode_reuse_hits", 1),
        ] {
            assert_eq!(snapshot.counter(name), want, "{name}");
        }
    }
}
