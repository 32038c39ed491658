//! A compact, versioned binary codec for [`WindowReport`]s.
//!
//! Recorded scenarios are replayed in class many times from one capture, so
//! the on-disk window format must be both small and stable. Version 1 encodes
//! the CSR matrix row by row with LEB128 varints and delta-compressed
//! coordinates — hypersparse windows (a few entries per row, clustered
//! columns) shrink to a handful of bytes per stored cell — followed by the
//! window's [`IngestStats`]. Every integer field is varint-encoded, so the
//! format has no architecture-dependent widths, and decoding validates
//! structure (magic, version, bounds, exact length) before any matrix is
//! built.
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
/// [`DecodeScratch`] holding that base. Full windows are still written as
/// version 2 — the layout gained nothing in v3 — so archives recorded
/// without key-frame cadence stay readable by v2-era builds.
pub const WINDOW_CODEC_VERSION: u8 = 3;
/// The version byte of a full (self-contained) window, as written by
/// [`encode_window`].
pub const FULL_WINDOW_VERSION: u8 = 2;
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
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
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
        // Fast path: hypersparse windows make almost every field (column
        // deltas, small packet counts, row gaps) a single varint byte.
        if let Some(&b) = self.data.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_slow(what)
    }

    #[cold]
    fn varint_slow(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte(what)?;
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

    #[inline]
    pub(crate) fn usize_varint(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.varint(what)?).map_err(|_| CodecError::VarintOverflow(what))
    }
}

/// Append the stats block shared by the full and delta layouts.
fn push_stats(buf: &mut Vec<u8>, stats: &IngestStats) {
    push_varint(buf, stats.window_index);
    push_varint(buf, stats.events);
    push_varint(buf, stats.packets);
    push_varint(buf, stats.nnz as u64);
    push_varint(buf, stats.dropped_late);
    push_varint(buf, stats.reordered);
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    push_varint(buf, nanos);
}

/// Parse the stats block shared by the full and delta layouts.
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
    let elapsed = Duration::from_nanos(r.varint("elapsed")?);
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

/// Encode one window into the full ([`FULL_WINDOW_VERSION`]) binary format.
pub fn encode_window(report: &WindowReport) -> Vec<u8> {
    let matrix = &report.matrix;
    let stats = &report.stats;
    let (rows, cols) = matrix.shape();
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    // Magic + version + ~2 varints per stored entry is a good initial guess.
    let mut buf = Vec::with_capacity(32 + matrix.nnz() * 4);
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(FULL_WINDOW_VERSION);
    push_stats(&mut buf, stats);

    push_varint(&mut buf, rows as u64);
    push_varint(&mut buf, cols as u64);
    push_varint(&mut buf, matrix.nnz() as u64);
    let occupied = (0..rows).filter(|&r| matrix.row_nnz(r) > 0).count();
    push_varint(&mut buf, occupied as u64);

    // Rows appear in increasing order, delta-compressed: the first occupied
    // row is absolute, later ones store (gap - 1). Columns within a row are
    // strictly increasing, so the first is absolute and later ones store
    // (delta - 1). Values follow their column inline.
    let mut prev_row: Option<usize> = None;
    for r in 0..rows {
        let row_nnz = matrix.row_nnz(r);
        if row_nnz == 0 {
            continue;
        }
        match prev_row {
            None => push_varint(&mut buf, r as u64),
            Some(p) => push_varint(&mut buf, (r - p - 1) as u64),
        }
        prev_row = Some(r);
        push_varint(&mut buf, row_nnz as u64);
        let mut prev_col: Option<usize> = None;
        for (c, v) in matrix.row(r) {
            match prev_col {
                None => push_varint(&mut buf, c as u64),
                Some(p) => push_varint(&mut buf, (c - p - 1) as u64),
            }
            prev_col = Some(c);
            push_varint(&mut buf, v);
        }
    }
    buf
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
    Ok(WindowReport { matrix, stats })
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
    let occupied = r.usize_varint("occupied row count")?;
    if occupied > rows || nnz < occupied {
        return Err(CodecError::Corrupt("row/entry counts are inconsistent"));
    }

    // The arrays are assembled directly in CSR layout — no intermediate
    // triple buffer, no counting pass — which is what makes replay decode
    // a fraction of live-ingest cost. Capacities are clamped by the buffer
    // length so a corrupt header cannot force a huge allocation.
    row_ptr.clear();
    row_ptr.resize(rows + 1, 0);
    col_idx.clear();
    col_idx.reserve(nnz.min(r.data.len()));
    values.clear();
    values.reserve(nnz.min(r.data.len()));
    let mut row = 0usize;
    let mut next_row_fill = 0usize;
    for i in 0..occupied {
        let gap = r.usize_varint("row gap")?;
        row = if i == 0 {
            gap
        } else {
            row.checked_add(gap + 1)
                .ok_or(CodecError::Corrupt("row overflow"))?
        };
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        // Rows between the previous occupied row and this one are empty.
        for slot in &mut row_ptr[next_row_fill..=row] {
            *slot = col_idx.len();
        }
        next_row_fill = row + 1;
        let row_nnz = r.usize_varint("row nnz")?;
        if row_nnz == 0 {
            return Err(CodecError::Corrupt("occupied row with zero entries"));
        }
        let mut col = 0usize;
        for j in 0..row_nnz {
            let delta = r.usize_varint("column delta")?;
            col = if j == 0 {
                delta
            } else {
                col.checked_add(delta + 1)
                    .ok_or(CodecError::Corrupt("column overflow"))?
            };
            if col >= cols {
                return Err(CodecError::Corrupt("column index out of bounds"));
            }
            let value = r.varint("value")?;
            col_idx.push(col);
            values.push(value);
        }
    }
    if col_idx.len() != nnz {
        return Err(CodecError::Corrupt("entry count disagrees with header"));
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    for slot in &mut row_ptr[next_row_fill..=rows] {
        *slot = nnz;
    }
    Ok((rows, cols, stats))
}

/// Encode one window as a sparse delta ([`DELTA_WINDOW_VERSION`]) against
/// the previous window of the same stream.
///
/// Consecutive windows of a steady scenario share most cells, so the delta
/// — per changed row: deleted columns and upserted `(column, value)` pairs,
/// all delta-compressed like the full layout — is a fraction of the full
/// encoding. The payload names its base window index;
/// [`decode_window_into`] refuses to apply it to anything else. Both
/// matrices must share one shape (a stream invariant).
pub fn encode_window_delta(prev: &WindowReport, cur: &WindowReport) -> Vec<u8> {
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

    let mut buf = Vec::with_capacity(64 + changes.len() * 4);
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(DELTA_WINDOW_VERSION);
    push_stats(&mut buf, &cur.stats);
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

    // Per changed row (rows delta-compressed like the full layout): the
    // deleted-column list, then the upserted (column, value) list, each
    // with first-absolute / later (delta - 1) column compression.
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
    pub fn base_window(&self) -> Option<u64> {
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
/// Full windows (versions 1 and 2) decode exactly as [`decode_window`] and
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
    Ok(WindowReport { matrix, stats })
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
    let mut row = 0usize;
    for i in 0..changed_rows {
        let gap = r.usize_varint("row gap")?;
        row = if i == 0 {
            gap
        } else {
            row.checked_add(gap + 1)
                .ok_or(CodecError::Corrupt("row overflow"))?
        };
        if row >= rows {
            return Err(CodecError::Corrupt("row index out of bounds"));
        }
        let dels = r.usize_varint("deleted column count")?;
        let sets = r.usize_varint("upserted column count")?;
        if dels == 0 && sets == 0 {
            return Err(CodecError::Corrupt("changed row with no changes"));
        }
        let row_start = changes.len();
        for list in [(dels, false), (sets, true)] {
            let (count, is_set) = list;
            let mut col = 0usize;
            for j in 0..count {
                let delta = r.usize_varint("column delta")?;
                col = if j == 0 {
                    delta
                } else {
                    col.checked_add(delta + 1)
                        .ok_or(CodecError::Corrupt("column overflow"))?
                };
                if col >= cols {
                    return Err(CodecError::Corrupt("column index out of bounds"));
                }
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
    /// Windows encoded as deltas.
    pub delta_windows: Counter,
    /// Windows encoded in full within a delta chain (key frames).
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
        WindowReport { matrix, stats }
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
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WINDOW_MAGIC);
        bytes.push(FULL_WINDOW_VERSION);
        for _ in 0..7 {
            super::push_varint(&mut bytes, 0); // stats fields
        }
        super::push_varint(&mut bytes, (MAX_DIMENSION as u64) + 1); // rows
        super::push_varint(&mut bytes, 4); // cols
        let expected = Err(CodecError::DimensionTooLarge {
            dimension: MAX_DIMENSION + 1,
            limit: MAX_DIMENSION,
        });
        assert_eq!(decode_window(&bytes).map(|_| ()), expected);

        // Mirror of the guard on the delta path: same header shape after the
        // base window index.
        let mut delta = Vec::new();
        delta.extend_from_slice(&WINDOW_MAGIC);
        delta.push(DELTA_WINDOW_VERSION);
        for _ in 0..7 {
            super::push_varint(&mut delta, 0); // stats fields
        }
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
    fn full_windows_still_encode_as_version_two() {
        // K=0 archives must stay byte-compatible with pre-delta readers:
        // the full encoding never mentions version 3.
        let bytes = encode_window(&report(8, 8, &[(0, 1, 2), (3, 4, 5)]));
        assert_eq!(bytes[4], FULL_WINDOW_VERSION);
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
