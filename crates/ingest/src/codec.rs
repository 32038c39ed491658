//! A compact, versioned binary codec for [`WindowReport`]s.
//!
//! Recorded scenarios are replayed in class many times from one capture, so
//! the on-disk window format must be both small and stable. Every integer
//! field is a LEB128 varint except two fixed-width fields, so the format
//! has no architecture-dependent widths, and decoding validates structure
//! (magic, version, bounds, exact length) before any matrix is built.
//!
//! | version | kind  | stats block                      | cells                                                              |
//! |---------|-------|----------------------------------|--------------------------------------------------------------------|
//! | 1       | full  | six varints (no `reordered`)     | occupied-row count; per row: row gap, cell count, column gaps      |
//! | 2       | full  | seven varints                    | as version 1                                                       |
//! | 3       | delta | seven varints                    | base window; per changed row: deleted and upserted column lists    |
//! | 4       | full  | six varints + 8-byte `elapsed`   | one run of linear-index gaps, each followed by its value           |
//! | 5       | delta | as version 4                     | base window, 4-byte change count; one run of tagged linear gaps    |
//! | 6       | full  | as version 4                     | fold width `k`; one run of linear-index gaps, small values folded  |
//!
//! Every layout written now addresses a cell by its linear index
//! `row · cols + col`, gap-coded against the previous cell. [`encode_window`]
//! writes version 6 and [`encode_window_delta`] version 5; versions 1 to 4
//! are only read, so recordings made before them keep replaying (versions 1
//! to 3 by the `legacy` module).
//!
//! A version-6 cell is one varint `gap << k | f`, with the window's fold
//! width `k` (0 to [`MAX_FOLD_BITS`]) in one byte after the cell count. `f`
//! is the cell's value when `1 <= value < 2^k`; otherwise `f` is 0, an
//! *escape*, and the value follows as a varint of its own (stored zeros,
//! large counts and `u64::MAX` all escape). At `k = 0` every cell escapes,
//! so a version-4 run is exactly a version-6 run with `k = 0`, and one cell
//! loop reads both. The encoder picks the `k` that gives the smallest
//! payload, the smaller `k` on a tie: a cell's bytes at every width follow
//! from the bit lengths of its gap and value, so it sums them for all nine
//! widths as it writes. A lesson window's values are mostly below 16, so
//! it spends no byte on them.
//!
//! A linear-gap run is read by one of two cell loops that return the same
//! `Result` for every payload. The scalar loop reads one cell at a time
//! (`scalar_cell`): it is the exact-error reference, and the only loop on
//! other architectures. On x86_64 CPUs with SSSE3 every decoder dispatches
//! to the block kernel (the private `blocks` module, Masked VByte style),
//! which reads runs of one- to three-byte varints 16 payload bytes per
//! step and hands every other cell — a longer varint, an escaped value, a
//! jump over many rows, the payload's last bytes, malformed input — to the
//! scalar loop. [`decode_window_into_scalar`] runs the scalar loop alone;
//! property tests hold the two equal and the codec bench times them side
//! by side.
//!
//! The one full-window writer, behind [`encode_window`] and the wire
//! layer's frames, walks the cells a fixed-size chunk at a time with no
//! per-row loop: most rows of a 4,096-node lesson window hold 0–3 cells,
//! so an inner loop per row mispredicts its exit at almost every row.
//! Row bases come from a per-chunk array of row starts, four folded cells
//! of one or two bytes go out as one 8-byte store, and a cell whose
//! varints are below 2^21 as one branch-free store; a longer field goes
//! through the plain varint writer, so the bytes are those of a per-row
//! loop for every window (`tests/proptest_encode.rs` holds it to that).
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

use crate::window::{IngestStats, KeptWindows, WindowReport};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tw_matrix::{CsrMatrix, MatrixError};
use tw_metrics::{Counter, MetricsRegistry};

#[cfg(target_arch = "x86_64")]
mod blocks;
mod legacy;

/// Leading magic of an encoded window.
pub const WINDOW_MAGIC: [u8; 4] = *b"TWWR";
/// The newest codec version this module reads.
///
/// Version 2 appends the [`IngestStats::reordered`] counter to the stats
/// block; version-1 windows (recorded before the watermark stage existed)
/// still decode, with `reordered` reported as `0`. Version 3 is the first
/// *delta-window* layout, per-row change lists against the previous window.
/// Version 4 addresses each cell of a full window by its linear index,
/// gap-coded against the previous cell, so a window spends no bytes on
/// per-row headers. Version 5 is the delta layout [`encode_window_delta`]
/// writes: the same addressing for the changed cells, each gap tagged as a
/// set or a delete. Version 6 is the full layout [`encode_window`] writes:
/// version 4 with each small value folded into its cell's gap varint.
pub const WINDOW_CODEC_VERSION: u8 = 6;
/// The version byte of a full (self-contained) window, as written by
/// [`encode_window`].
pub const FULL_WINDOW_VERSION: u8 = 6;
/// The version byte of a delta window, as written by
/// [`encode_window_delta`].
pub const DELTA_WINDOW_VERSION: u8 = 5;
/// The first version with a fixed-width `elapsed` and linear-index cells:
/// the full layout before values were folded, read as fold width 0.
const UNFOLDED_FULL_VERSION: u8 = 4;
/// The widest fold a version-6 window may name. A cell's gap is below
/// [`MAX_DIMENSION`]² = 2^48, so `gap << k` fits a u64 for every `k` up to
/// it.
pub const MAX_FOLD_BITS: u8 = 8;
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
    /// A window's header claims another shape than its stream's
    /// `node_count × node_count` (see [`decode_stream_window_into`]).
    Misshapen {
        /// The `(rows, cols)` the header claimed.
        shape: (usize, usize),
        /// The stream's node count.
        node_count: usize,
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
            CodecError::Misshapen { shape, node_count } => write!(
                f,
                "window has shape {shape:?}, but the stream has {node_count} nodes"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<MatrixError> for CodecError {
    fn from(_: MatrixError) -> Self {
        CodecError::Corrupt("decoded arrays are not a valid CSR matrix")
    }
}

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
/// decoder, behind both [`Reader::varint`] and the cell loops.
#[inline]
fn read_varint(data: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, CodecError> {
    // Fast paths: hypersparse windows make almost every field a one-byte
    // varint (small packet counts, column gaps), and the linear-index gaps
    // of a 4,096-node window are two bytes, or three with a value folded
    // in.
    if let Some(&b) = data.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
        if let Some(&b1) = data.get(*pos + 1) {
            if b1 < 0x80 {
                *pos += 2;
                return Ok(u64::from(b & 0x7F) | u64::from(b1) << 7);
            }
            if let Some(&b2) = data.get(*pos + 2) {
                if b2 < 0x80 {
                    *pos += 3;
                    return Ok(u64::from(b & 0x7F)
                        | u64::from(b1 & 0x7F) << 7
                        | u64::from(b2) << 14);
                }
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

    /// `N` fixed bytes.
    fn fixed<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let bytes = self
            .data
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or(CodecError::Truncated(what))?;
        self.pos += N;
        Ok(*bytes)
    }
}

/// The facts every window payload states before its cells.
#[derive(Debug)]
pub(crate) struct WindowHeader {
    /// The codec version byte.
    pub(crate) version: u8,
    /// The window's stats block.
    pub(crate) stats: IngestStats,
    /// For a delta window, the index of the window it patches; `None` for
    /// a full window.
    pub(crate) base: Option<u64>,
    /// Claimed matrix rows.
    pub(crate) rows: usize,
    /// Claimed matrix columns.
    pub(crate) cols: usize,
}

impl WindowHeader {
    /// Whether this build's encoder writes this payload's layout
    /// ([`FULL_WINDOW_VERSION`] for a full window, [`DELTA_WINDOW_VERSION`]
    /// for a delta), so re-encoding its window gives the same layout.
    pub(crate) fn is_current(&self) -> bool {
        matches!(
            (self.version, self.base),
            (DELTA_WINDOW_VERSION, Some(_)) | (FULL_WINDOW_VERSION, None)
        )
    }
}

/// Read a payload's header: magic, version, stats, the base window index
/// of a delta, and the claimed shape. The one reader of these facts, for
/// the decoders and for every caller that inspects a payload without
/// decoding it.
fn read_header(r: &mut Reader<'_>) -> Result<WindowHeader, CodecError> {
    if r.fixed::<4>("magic")? != WINDOW_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.byte("version")?;
    if version == 0 || version > WINDOW_CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    // Fields are read in the order they are written.
    let stats = IngestStats {
        window_index: r.varint("window_index")?,
        events: r.varint("events")?,
        packets: r.varint("packets")?,
        nnz: r.usize_varint("stats nnz")?,
        dropped_late: r.varint("dropped_late")?,
        // Version 1 predates the reordering stage; its streams were
        // strictly sorted, so a zero count is the accurate value, not a
        // placeholder.
        reordered: if version >= 2 {
            r.varint("reordered")?
        } else {
            0
        },
        elapsed: Duration::from_nanos(if version >= UNFOLDED_FULL_VERSION {
            u64::from_le_bytes(r.fixed("elapsed")?)
        } else {
            r.varint("elapsed")?
        }),
    };
    let base = match version {
        3 | DELTA_WINDOW_VERSION => Some(r.varint("base window index")?),
        _ => None,
    };
    let rows = r.usize_varint("rows")?;
    let cols = r.usize_varint("cols")?;
    if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
        return Err(CodecError::DimensionTooLarge {
            dimension: rows.max(cols),
            limit: MAX_DIMENSION,
        });
    }
    Ok(WindowHeader {
        version,
        stats,
        base,
        rows,
        cols,
    })
}

/// [`read_header`] over a whole payload.
pub(crate) fn window_header(payload: &[u8]) -> Result<WindowHeader, CodecError> {
    read_header(&mut Reader {
        data: payload,
        pos: 0,
    })
}

/// A first guess at a full window's encoded size: magic, version and stats
/// plus ~2 varints per stored entry.
pub(crate) fn full_size_hint(report: &WindowReport) -> usize {
    32 + report.matrix.nnz() * 4
}

/// Append magic, `version`, the stats block, a delta's base index, the
/// shape and the stored cell count: the header both layouts written now
/// share.
///
/// The stats block is six varints, then `elapsed` as a fixed 8-byte
/// little-endian nanosecond count. A wall-clock varint's length follows
/// the timing; the fixed field makes a window's length depend only on its
/// matrix and counts.
fn push_header(buf: &mut Vec<u8>, version: u8, report: &WindowReport, base: Option<u64>) {
    let (rows, cols) = report.matrix.shape();
    assert!(
        rows <= MAX_DIMENSION && cols <= MAX_DIMENSION,
        "window matrices larger than {MAX_DIMENSION} addresses are not encodable"
    );
    buf.extend_from_slice(&WINDOW_MAGIC);
    buf.push(version);
    let stats = &report.stats;
    push_varint(buf, stats.window_index);
    push_varint(buf, stats.events);
    push_varint(buf, stats.packets);
    push_varint(buf, stats.nnz as u64);
    push_varint(buf, stats.dropped_late);
    push_varint(buf, stats.reordered);
    let nanos = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
    buf.extend_from_slice(&nanos.to_le_bytes());
    if let Some(base) = base {
        push_varint(buf, base);
    }
    push_varint(buf, rows as u64);
    push_varint(buf, cols as u64);
    push_varint(buf, report.matrix.nnz() as u64);
}

/// Encode one window into the full ([`FULL_WINDOW_VERSION`]) binary format.
pub fn encode_window(report: &WindowReport) -> Vec<u8> {
    encode_window_into(report, Vec::with_capacity(full_size_hint(report)))
}

/// Cells per chunk of [`encode_window_into`]'s walk.
const ENCODE_CHUNK: usize = 256;

/// Append one window's full ([`FULL_WINDOW_VERSION`]) encoding to `buf` and
/// hand the buffer back: the bytes [`encode_window`] returns, written where
/// the caller wants them (the wire layer encodes straight into a frame
/// buffer). The buffer moves in and out by value so the encode loop works
/// on a local `Vec`, as fast as encoding into a fresh one.
///
/// Cells go out in row-major order, each addressed by its linear index
/// `row · cols + col`: the first index is absolute, each later one stores
/// (index − previous − 1) as `gap`, and the cell is the varint
/// `gap << k | f` with the value folded in as `f` or escaped after it (see
/// the module docs). Both dimensions are at most 2^24, so indices fit a
/// u64.
///
/// The fold width `k` is the one that gives the window its fewest bytes,
/// the smaller on a tie. [`write_cells`] writes the cells at the width
/// [`sampled_fold`] guesses from a few runs of them and sums every
/// width's bytes as it goes; the cells are written again only when that
/// guess is not the window's best, which in a lesson, whose chunks look
/// alike, is rare. Either way the bytes depend on the window alone.
pub(crate) fn encode_window_into(report: &WindowReport, mut buf: Vec<u8>) -> Vec<u8> {
    push_header(&mut buf, FULL_WINDOW_VERSION, report, None);
    let matrix = &report.matrix;
    let fold_at = buf.len();
    buf.push(0);
    let guess = sampled_fold(matrix);
    let fold = fewest_bytes(write_cells(matrix, guess, &mut buf));
    if fold != guess {
        buf.truncate(fold_at + 1);
        write_cells(matrix, fold, &mut buf);
    }
    buf[fold_at] = fold as u8;
    buf
}

/// The runs of cells [`sampled_fold`] reads, and the cells in each.
const SAMPLES: usize = 8;
const SAMPLE_CELLS: usize = 64;

/// The fold width that gives [`SAMPLES`] runs of [`SAMPLE_CELLS`] cells,
/// spread evenly over `matrix`'s cells, their fewest bytes.
fn sampled_fold(matrix: &CsrMatrix<u64>) -> u32 {
    let (col_idx, values) = (matrix.col_indices(), matrix.values());
    let mut totals = [0; FOLD_WIDTHS];
    for sample in 0..SAMPLES {
        let first = sample * col_idx.len() / SAMPLES;
        let end = (first + SAMPLE_CELLS).min(col_idx.len());
        let mut walk = GapWalk::at(matrix, first);
        let steps = walk.steps(first, end - first);
        let cells = col_idx[first..end].iter().zip(&values[first..end]);
        let bytes: WidthBytes = cells
            .zip(&steps)
            .map(|((&col, &value), &step)| cell_bytes(walk.gap(step, col), value))
            .sum();
        for (k, total) in totals.iter_mut().enumerate() {
            *total += width_field(bytes, k);
        }
    }
    fewest_bytes(totals)
}

/// Append `matrix`'s cells at fold width `fold` and return every width's
/// bytes for them.
///
/// The walk takes [`ENCODE_CHUNK`] cells at a time and has no per-row loop
/// (see [`GapWalk`]). Four cells that are each one or two folded bytes go
/// out as one 8-byte store (the dense ddos lesson is mostly such cells),
/// and four folded cells of up to three bytes as four overlapping ones;
/// other cells go out one at a time through `stage_cells`. All store into
/// a stack staging buffer that is appended to `buf` once per chunk.
fn write_cells(matrix: &CsrMatrix<u64>, fold: u32, buf: &mut Vec<u8>) -> [usize; FOLD_WIDTHS] {
    let mut totals = [0; FOLD_WIDTHS];
    let mut walk = GapWalk::new(matrix);
    let chunks = matrix
        .col_indices()
        .chunks(ENCODE_CHUNK)
        .zip(matrix.values().chunks(ENCODE_CHUNK));
    for (chunk, (col_idx, values)) in chunks.enumerate() {
        let steps = walk.steps(chunk * ENCODE_CHUNK, col_idx.len());
        let mut sum: WidthBytes = 0;
        let mut staged = [0u8; STAGED];
        let mut len = 0;
        let quads = col_idx
            .chunks_exact(4)
            .zip(values.chunks_exact(4))
            .zip(steps.chunks_exact(4));
        let fold_max = (1 << fold) - 1;
        for ((col_idx, values), steps) in quads {
            let gaps: [u64; 4] = std::array::from_fn(|i| walk.gap(steps[i], col_idx[i]));
            for (&gap, &value) in gaps.iter().zip(values) {
                sum += cell_bytes(gap, value);
            }
            // As if every value folds; whether they do is checked once.
            let varints: [u64; 4] = std::array::from_fn(|i| gaps[i] << fold | values[i]);
            let escapes = values.iter().fold(false, |escapes, &value| {
                escapes | (value.wrapping_sub(1) >= fold_max)
            });
            let wide = varints.iter().fold(0, |wide, &varint| wide | varint);
            if !escapes && wide < 1 << 14 {
                // Four folded cells of one or two bytes: one 8-byte store.
                let (mut word, mut bits) = (0, 0);
                for varint in varints {
                    word |= short_varint(varint) << bits;
                    bits += 8 + 8 * u32::from(varint >= 0x80);
                }
                staged[len..len + 8].copy_from_slice(&word.to_le_bytes());
                len += bits as usize / 8;
            } else if !escapes && wide < 1 << 21 {
                for varint in varints {
                    staged[len..len + 8].copy_from_slice(&short_varint(varint).to_le_bytes());
                    len += short_len(varint);
                }
            } else {
                let cells: [Folded; 4] =
                    std::array::from_fn(|i| fold_cell(gaps[i], values[i], fold));
                stage_cells(&mut staged, &mut len, buf, &cells);
            }
        }
        let tail = col_idx.len() / 4 * 4;
        let cells = col_idx[tail..]
            .iter()
            .zip(&values[tail..])
            .zip(&steps[tail..]);
        for ((&col, &value), &step) in cells {
            let gap = walk.gap(step, col);
            sum += cell_bytes(gap, value);
            stage_cells(&mut staged, &mut len, buf, &[fold_cell(gap, value, fold)]);
        }
        buf.extend_from_slice(&staged[..len]);
        for (k, total) in totals.iter_mut().enumerate() {
            *total += width_field(sum, k);
        }
    }
    totals
}

/// One cell as the writer stages it.
#[derive(Debug, Clone, Copy)]
struct Folded {
    /// The gap varint `gap << fold | f`.
    varint: u64,
    /// 1 when the value escapes, 0 when it is folded in as `f`.
    escapes: u64,
    /// The escaped value, or 0.
    escape: u64,
}

/// A cell as [`Folded`]: a value folds when `1 <= value < 2^fold`, so
/// nothing folds at fold width 0. Branch-free.
#[inline(always)]
fn fold_cell(gap: u64, value: u64, fold: u32) -> Folded {
    let folds = u64::from(value.wrapping_sub(1) < (1 << fold) - 1);
    Folded {
        varint: gap << fold | value & folds.wrapping_neg(),
        escapes: folds ^ 1,
        escape: value & folds.wrapping_sub(1),
    }
}

/// The linear-index gaps of a window's cells, a chunk at a time, with no
/// per-row loop: a 4,096-node lesson window holds 0–3 cells in most rows,
/// where an inner loop over each row's cells mispredicts its exit at
/// almost every row. Instead each row start inside the chunk adds `cols`
/// to that cell's slot of a stack array (`row_steps`), and the cell loop
/// adds the slot to a running row base, so `index = base + col` with no
/// branch on rows.
struct GapWalk<'a> {
    /// Row r >= 1 starts at cell `row_ptr[r]`; rows after the last cell
    /// start at `nnz` and are never reached.
    row_starts: &'a [usize],
    cols: u64,
    /// The linear index of the current row's first column.
    base: u64,
    /// One past the last cell's linear index.
    next: u64,
}

impl<'a> GapWalk<'a> {
    fn new(matrix: &'a CsrMatrix<u64>) -> Self {
        GapWalk::at(matrix, 0)
    }

    /// The walk as it stands before cell `first` (at most `nnz`).
    fn at(matrix: &'a CsrMatrix<u64>, first: usize) -> Self {
        let (row_ptr, cols) = (matrix.row_ptr(), matrix.cols() as u64);
        let Some(last) = first.checked_sub(1) else {
            return GapWalk {
                row_starts: &row_ptr[1..],
                cols,
                base: 0,
                next: 0,
            };
        };
        // The row of the cell before `first`: the last row starting at or
        // before it.
        let row = row_ptr.partition_point(|&start| start <= last) - 1;
        let base = row as u64 * cols;
        GapWalk {
            row_starts: &row_ptr[row + 1..],
            cols,
            base,
            next: base + matrix.col_indices()[last] as u64 + 1,
        }
    }

    /// The row steps of the `cells` cells from `first` on (see
    /// [`row_steps`]): a cell's row base is its predecessor's plus its
    /// step.
    #[inline(always)]
    fn steps(&mut self, first: usize, cells: usize) -> [u64; ENCODE_CHUNK] {
        let mut steps = [0u64; ENCODE_CHUNK];
        row_steps(
            &mut steps,
            &mut self.row_starts,
            first..first + cells,
            self.cols,
        );
        steps
    }

    /// The gap of the next cell, whose row step is `step` and column
    /// `col`.
    #[inline(always)]
    fn gap(&mut self, step: u64, col: usize) -> u64 {
        self.base += step;
        let index = self.base + col as u64;
        let gap = index - self.next;
        self.next = index + 1;
        gap
    }
}

/// Add `cols` to the slot of each cell in `cells` at which a row starts,
/// taking those row starts off the front of `row_starts`: several empty
/// rows add to one slot, so a cell's row base is its predecessor's plus its
/// slot.
#[inline(always)]
fn row_steps(
    steps: &mut [u64; ENCODE_CHUNK],
    row_starts: &mut &[usize],
    cells: std::ops::Range<usize>,
    cols: u64,
) {
    while let Some((&start, rest)) = row_starts.split_first() {
        if start >= cells.end {
            break;
        }
        steps[start - cells.start] += cols;
        *row_starts = rest;
    }
}

/// One cell's bytes at every fold width `k`, in field `k`.
///
/// A gap varint's length follows from the gap's bit length plus `k`,
/// whether or not its value escapes; the one exception is a gap of 0,
/// whose varint is `f` itself and takes a second byte when a value of
/// 128–255 folds at `k = 8`. An escaped value's varint follows from its
/// bit length. So a cell's bytes at every width are a function of the two
/// bit lengths (and whether the gap is 0): [`GAP_BYTES`] and
/// [`VALUE_BYTES`] hold them as [`WidthBytes`], and a chunk's sum is taken
/// in one register.
#[inline(always)]
fn cell_bytes(gap: u64, value: u64) -> WidthBytes {
    GAP_BYTES[bit_len(gap)] + VALUE_BYTES[usize::from(gap == 0)][bit_len(value)]
}

/// Width `k`'s field of a [`WidthBytes`] sum.
#[inline(always)]
fn width_field(bytes: WidthBytes, k: usize) -> usize {
    (bytes >> (WIDTH_FIELD * k) & FIELD_MASK) as usize
}

/// The fold width with the fewest `bytes`, the smaller on a tie.
fn fewest_bytes(bytes: [usize; FOLD_WIDTHS]) -> u32 {
    (0..FOLD_WIDTHS).min_by_key(|&k| bytes[k]).unwrap_or(0) as u32
}

/// The bytes [`encode_window_into`] stages per chunk: at most six per cell
/// (two varints below 2^21), and room for an 8-byte store at the end.
const STAGED: usize = 6 * ENCODE_CHUNK + 8;

/// The fold widths a window may take: 0 to [`MAX_FOLD_BITS`].
const FOLD_WIDTHS: usize = MAX_FOLD_BITS as usize + 1;

/// A cell's (or a chunk's) bytes at each fold width `k`, in the
/// [`WIDTH_FIELD`]-bit field `k`. A cell takes at most 22 bytes (an
/// 11-byte gap varint, a 10-byte value and the second byte a gap of 0 may
/// need), so a chunk of [`ENCODE_CHUNK`] cells stays below 2^13.
type WidthBytes = u128;
const WIDTH_FIELD: usize = 14;
const FIELD_MASK: WidthBytes = (1 << WIDTH_FIELD) - 1;
const _: () = assert!(22 * ENCODE_CHUNK < 1 << WIDTH_FIELD && WIDTH_FIELD * FOLD_WIDTHS <= 128);

/// A gap varint's bytes at each width, by the gap's bit length (0 for a
/// gap of 0, whose varint is `f`: one byte but for the case
/// [`VALUE_BYTES`] adds).
const GAP_BYTES: [WidthBytes; 65] = {
    let mut table = [0; 65];
    let mut bits = 0;
    while bits < 65 {
        let mut k = 0;
        while k < FOLD_WIDTHS {
            let cell_bits = if bits == 0 { 0 } else { bits + k };
            table[bits] |= (varint_bytes(cell_bits) as WidthBytes) << (WIDTH_FIELD * k);
            k += 1;
        }
        bits += 1;
    }
    table
};

/// An escaped value's bytes at each width (0 where it folds), by whether
/// the gap is 0 and the value's bit length; after a gap of 0, a value of
/// 8 bits folds at width 8 into a two-byte varint, one byte more.
const VALUE_BYTES: [[WidthBytes; 65]; 2] = {
    let mut table = [[0; 65]; 2];
    let mut zero_gap = 0;
    while zero_gap < 2 {
        let mut bits = 0;
        while bits < 65 {
            let mut k = 0;
            while k < FOLD_WIDTHS {
                let bytes = if bits == 0 || bits > k {
                    varint_bytes(bits)
                } else if zero_gap == 1 && bits == 8 {
                    1
                } else {
                    0
                };
                table[zero_gap][bits] |= (bytes as WidthBytes) << (WIDTH_FIELD * k);
                k += 1;
            }
            bits += 1;
        }
        zero_gap += 1;
    }
    table
};

/// The bits `v` takes: 0 for 0, 64 for `u64::MAX`.
#[inline(always)]
fn bit_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The LEB128 bytes of a value of `bits` bits.
const fn varint_bytes(bits: usize) -> usize {
    if bits == 0 {
        1
    } else {
        bits.div_ceil(7)
    }
}

/// Stage each cell: a gap varint and escaped value both below 2^21 go out
/// as one 8-byte little-endian store of their varints, advancing `len` by
/// the gap varint's 1 to 3 bytes plus, for an escape, the value's; a
/// larger field flushes what is staged and appends the cell through
/// [`push_varint`].
#[inline(always)]
fn stage_cells(staged: &mut [u8; STAGED], len: &mut usize, buf: &mut Vec<u8>, cells: &[Folded]) {
    for &Folded {
        varint,
        escapes,
        escape,
    } in cells
    {
        if (varint | escape) < 1 << 21 {
            let head = short_len(varint);
            let word = short_varint(varint) | short_varint(escape) << (8 * head);
            staged[*len..*len + 8].copy_from_slice(&word.to_le_bytes());
            *len += head + escapes as usize * short_len(escape);
        } else {
            buf.extend_from_slice(&staged[..*len]);
            *len = 0;
            push_varint(buf, varint);
            if escapes == 1 {
                push_varint(buf, escape);
            }
        }
    }
}

/// The `(rows, cols)` a window payload's header claims, read without
/// decoding a cell; `None` when the header does not parse. Tests use it to
/// state what a crafted header claims; readers check the claim inside
/// [`decode_stream_window_into`].
#[cfg(test)]
pub(crate) fn window_shape(payload: &[u8]) -> Option<(usize, usize)> {
    let header = window_header(payload).ok()?;
    Some((header.rows, header.cols))
}

/// Decode a window previously produced by [`encode_window`].
///
/// Round-trip guarantee: the decoded matrix equals the encoded one
/// cell for cell (including shape), and the stats are identical.
///
/// This entry point is stateless, so it can only materialize full windows;
/// a delta payload is rejected with [`CodecError::DeltaBaseMismatch`] — use
/// [`decode_window_into`] with a [`DecodeScratch`] that has decoded the
/// base window.
pub fn decode_window(data: &[u8]) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let header = read_header(&mut r)?;
    if let Some(expected) = header.base {
        return Err(CodecError::DeltaBaseMismatch {
            expected,
            actual: None,
        });
    }
    let (mut row_ptr, mut col_idx, mut values) = (Vec::new(), Vec::new(), Vec::new());
    parse_full_body(
        &mut r,
        &header,
        CellLoop::Dispatch,
        &mut row_ptr,
        &mut col_idx,
        &mut values,
    )?;
    let matrix = CsrMatrix::from_raw_parts(header.rows, header.cols, row_ptr, col_idx, values)?;
    Ok(WindowReport {
        matrix: Arc::new(matrix),
        stats: header.stats,
        frame: None,
    })
}

/// Parse the cells after a full window's header into the given (cleared
/// and refilled) CSR arrays, a version-4 or version-6 run through the
/// `cells` loop.
fn parse_full_body(
    r: &mut Reader<'_>,
    header: &WindowHeader,
    cells: CellLoop,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let shape = (header.rows, header.cols);
    let nnz = r.usize_varint("nnz")?;
    // A version-4 run is a version-6 run that folds nothing.
    let fold = if header.version == FULL_WINDOW_VERSION {
        r.byte("fold width")?
    } else {
        0
    };
    if fold > MAX_FOLD_BITS {
        return Err(CodecError::Corrupt("fold width above 8"));
    }

    // The arrays are assembled directly in CSR layout — no intermediate
    // triple buffer, no counting pass — which is what makes replay decode
    // a fraction of live-ingest cost. Cell capacities are clamped by the
    // buffer length so a corrupt header cannot force a huge allocation; the
    // row index is sized from the claimed rows, which `MAX_DIMENSION`
    // bounds and a reader that knows its node count checks first
    // ([`decode_stream_window_into`]).
    row_ptr.clear();
    row_ptr.reserve(shape.0 + 1);
    col_idx.clear();
    col_idx.reserve(nnz.min(r.data.len()));
    values.clear();
    values.reserve(nnz.min(r.data.len()));
    // The cell loop runs on a local cursor over the payload; `Reader` is
    // only brought up to date once the last cell is read.
    let (data, mut pos) = (r.data, r.pos);
    if header.version < UNFOLDED_FULL_VERSION {
        legacy::parse_row_runs(data, &mut pos, shape, nnz, row_ptr, col_idx, values)?;
    } else {
        let at = LinearCursor::start(shape, nnz, fold.into());
        parse_linear_cells(data, &mut pos, at, cells, row_ptr, col_idx, values)?;
    }
    if pos != data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    r.pos = pos;
    row_ptr.resize(shape.0 + 1, nnz);
    Ok(())
}

/// Step a linear-index cursor `gap` cells past (`row`, `next_col`): the
/// number of row ends crossed and the column of the cell it lands on.
/// `cols` must be 0 when `rows` is, so that no cell of an empty matrix is
/// in bounds.
///
/// A cell in the cursor's row costs one comparison and a cell in the next
/// row one subtraction; only a gap over empty rows divides, so a huge gap
/// cannot cost a step per row.
#[inline(always)]
fn step(
    row: usize,
    next_col: usize,
    gap: usize,
    (rows, cols): (usize, usize),
) -> Result<(usize, usize), CodecError> {
    const OUT_OF_BOUNDS: CodecError = CodecError::Corrupt("cell index out of bounds");
    let mut col = next_col.checked_add(gap).ok_or(OUT_OF_BOUNDS)?;
    if col >= cols {
        if cols == 0 {
            return Err(OUT_OF_BOUNDS);
        }
        col -= cols;
        let crossed = if col < cols {
            1
        } else {
            let crossed = 1 + col / cols;
            col %= cols;
            crossed
        };
        if crossed >= rows - row {
            return Err(OUT_OF_BOUNDS);
        }
        return Ok((crossed, col));
    }
    Ok((0, col))
}

/// Which loop reads the cells of a version-4 or version-6 window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellLoop {
    /// The block kernel where the CPU has it, the scalar loop everywhere
    /// else: what every decode entry point but the reference runs.
    Dispatch,
    /// The scalar loop alone ([`decode_window_into_scalar`]).
    Scalar,
}

/// Where a linear-gap cell run stands between cells.
#[derive(Debug, Clone, Copy)]
struct LinearCursor {
    /// The window's `(rows, cols)`, `cols` 0 when `rows` is (see [`step`]).
    shape: (usize, usize),
    /// The run's fold width `k`, at most [`MAX_FOLD_BITS`]: a cell's gap is
    /// its varint shifted right `k`, its value the low `k` bits or, where
    /// those are 0, the next varint.
    fold: u32,
    /// The low `fold` bits.
    fold_mask: u64,
    /// The row of the last cell read (0 before the first).
    row: usize,
    /// The lowest column the next cell may take in `row`; up to `cols`.
    next_col: usize,
    /// Cells still to read.
    left: usize,
}

impl LinearCursor {
    /// The cursor before the first of `nnz` cells of a `shape` window
    /// whose values are folded `fold` bits deep.
    fn start((rows, cols): (usize, usize), nnz: usize, fold: u32) -> Self {
        LinearCursor {
            // A window without rows has no cell in bounds: treating it as
            // one without columns sends every cell to the out-of-bounds
            // error.
            shape: (rows, if rows == 0 { 0 } else { cols }),
            fold,
            fold_mask: (1 << fold) - 1,
            row: 0,
            next_col: 0,
            left: nnz,
        }
    }
}

/// Parse the cells of a version 4 or 6 window, from the cursor `at` on:
/// each a linear-index gap with its value folded in or escaped after it,
/// located by [`step`]. Fills `row_ptr` up to and including the last
/// cell's row.
///
/// With [`CellLoop::Dispatch`] on an x86_64 CPU with SSSE3, the `blocks`
/// kernel reads runs of one- and two-byte varints 16 bytes at a time and
/// hands every cell it cannot take to [`scalar_cell`]; the scalar loop
/// reads whatever is left, so both loops return the same `Result`.
fn parse_linear_cells(
    data: &[u8],
    pos: &mut usize,
    mut at: LinearCursor,
    cells: CellLoop,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    row_ptr.push(0);
    #[cfg(target_arch = "x86_64")]
    if cells == CellLoop::Dispatch {
        blocks::parse(data, pos, &mut at, row_ptr, col_idx, values)?;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cells;
    while at.left > 0 {
        scalar_cell(data, pos, &mut at, row_ptr, col_idx, values)?;
    }
    Ok(())
}

/// Read the one cell at `*pos` (a gap varint, and an escaped value after
/// it), append it and step past it: the reference every cell loop falls
/// back on.
#[inline(always)]
fn scalar_cell(
    data: &[u8],
    pos: &mut usize,
    at: &mut LinearCursor,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let cell = read_varint(data, pos, "cell gap")?;
    let gap =
        usize::try_from(cell >> at.fold).map_err(|_| CodecError::VarintOverflow("cell gap"))?;
    let (crossed, col) = step(at.row, at.next_col, gap, at.shape)?;
    if crossed > 0 {
        at.row += crossed;
        if crossed == 1 {
            row_ptr.push(col_idx.len());
        } else {
            row_ptr.resize(at.row + 1, col_idx.len());
        }
    }
    let folded = cell & at.fold_mask;
    let value = if folded != 0 {
        folded
    } else {
        read_varint(data, pos, "value")?
    };
    col_idx.push(col);
    values.push(value);
    at.next_col = col + 1;
    at.left -= 1;
    Ok(())
}

/// The LEB128 bytes of `v < 2^21` as a little-endian word, without a
/// branch: each seven-bit group moves up one bit per byte before it (bits
/// 7–13 doubled, bits 14–20 times four), and a byte with a group after it
/// gets the continuation bit.
#[inline(always)]
fn short_varint(v: u64) -> u64 {
    v + (v & 0x3f80)
        + 3 * (v & 0x1f_c000)
        + (u64::from(v >= 0x80) << 7)
        + (u64::from(v >= 0x4000) << 15)
}

/// The bytes of [`short_varint`]`(v)`.
#[inline(always)]
fn short_len(v: u64) -> usize {
    1 + usize::from(v >= 0x80) + usize::from(v >= 0x4000)
}

/// Encode one window as a sparse delta ([`DELTA_WINDOW_VERSION`]) against
/// the previous window of the same stream.
///
/// Consecutive windows of a steady scenario share most cells, so the delta
/// — the changed cells only, addressed like the full layout — is a
/// fraction of the full encoding. The payload names its base window index;
/// [`decode_window_into`] refuses to apply it to anything else. Both
/// matrices must share one shape (a stream invariant).
pub fn encode_window_delta(prev: &WindowReport, cur: &WindowReport) -> Vec<u8> {
    encode_window_delta_into(prev, cur, Vec::new())
}

/// Append the delta encoding of `cur` against `prev` to `buf` and hand the
/// buffer back (by value, like [`encode_window_into`]): the bytes
/// [`encode_window_delta`] returns, written where the caller wants them.
///
/// One merge of each row of `prev` with the same row of `cur` writes the
/// changes straight into the buffer, in linear-index order: a cell only in
/// `prev` is a delete, a cell only in `cur` or stored with another value
/// is a set. Each change is its linear-index gap (as in the full layout)
/// shifted left one bit, with the low bit set for a delete; a set is
/// followed by its value. A stored zero is a set like any other value. The
/// change count, a fixed-width field ahead of the run, is filled in once
/// the run is written.
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
    buf.reserve(64);
    push_header(
        &mut buf,
        DELTA_WINDOW_VERSION,
        cur,
        Some(prev.stats.window_index),
    );
    let count_at = buf.len();
    buf.extend_from_slice(&[0; 4]);

    let (a, b) = (&prev.matrix, &cur.matrix);
    let mut next = 0u64;
    let mut changes = 0u64;
    let mut change = |buf: &mut Vec<u8>, index: u64, set: Option<u64>| {
        push_varint(buf, (index - next) << 1 | u64::from(set.is_none()));
        if let Some(value) = set {
            push_varint(buf, value);
        }
        next = index + 1;
        changes += 1;
    };
    for row in 0..rows {
        let (mut i, i_end) = (a.row_ptr()[row], a.row_ptr()[row + 1]);
        let (mut j, j_end) = (b.row_ptr()[row], b.row_ptr()[row + 1]);
        let row_start = row as u64 * cols as u64;
        // Past a row's last cell its column reads as `usize::MAX`, beyond
        // every real column.
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
                change(&mut buf, row_start + a_col as u64, None);
                i += 1;
            } else {
                if a_col > b_col || a.values()[i] != b.values()[j] {
                    change(&mut buf, row_start + b_col as u64, Some(b.values()[j]));
                }
                i += usize::from(a_col == b_col);
                j += 1;
            }
        }
    }
    assert!(
        changes <= u64::from(u32::MAX),
        "a delta window holds at most {} changes",
        u32::MAX
    );
    buf[count_at..count_at + 4].copy_from_slice(&(changes as u32).to_le_bytes());
    buf
}

/// Reusable decode state: the last windows decoded, kept for their
/// storage and as the delta base.
///
/// One scratch serves one stream. It keeps the newest window it decoded,
/// which a delta payload must name as its base and is decoded against in
/// place, and builds each window in the storage of a kept window that no
/// report holds any more (see [`WindowReport`]): a reader that drops each
/// report decodes full windows in one window of storage, and a delta
/// stream in two, with no allocation once warmed up.
///
/// A decode that fails leaves the storage it wrote empty; when that was
/// the base's, the base is forgotten as by [`DecodeScratch::reset`], and
/// the stream must go on from a key frame.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    windows: KeptWindows,
    /// The window index of the newest kept window, the base a delta must
    /// name; `None` before the first decode, after a reset, or when a
    /// failed decode wrote over it.
    base: Option<u64>,
    reuse_hits: u64,
    reuse_counter: Option<Counter>,
}

impl DecodeScratch {
    /// A fresh scratch with no base window and no kept storage.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Count buffer-reuse hits into `codec.decode_reuse_hits` of the given
    /// registry (in addition to the local [`DecodeScratch::reuse_hits`]).
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.reuse_counter = Some(registry.counter("codec.decode_reuse_hits"));
    }

    /// How many decodes built their window in a kept window's storage
    /// instead of allocating.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// The window index of the current delta base, if any.
    #[cfg(test)]
    pub(crate) fn base_window(&self) -> Option<u64> {
        self.base
    }

    /// Forget the base window (e.g. before seeking a recording): the next
    /// payload must then be a full window. Kept storage is reused still.
    pub fn reset(&mut self) {
        self.base = None;
    }
}

/// Decode a full or delta window through a [`DecodeScratch`].
///
/// Full windows (versions 1, 2, 4 and 6) decode exactly as [`decode_window`];
/// delta windows (versions 3 and 5) are applied to the scratch's base.
/// Either way the window becomes the base, and it is built in the storage
/// of a window the scratch kept when no report holds that window any more
/// — a loop that drops each report stops allocating once the storage has
/// reached its high-water mark.
pub fn decode_window_into(
    data: &[u8],
    scratch: &mut DecodeScratch,
) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let header = read_header(&mut r)?;
    decode_body_into(r, header, scratch, CellLoop::Dispatch)
}

/// [`decode_window_into`] with every version-4 and version-6 cell read by the scalar
/// cell loop, whatever the CPU: the same `Result`, and the reference the
/// block kernel is tested and timed against.
pub fn decode_window_into_scalar(
    data: &[u8],
    scratch: &mut DecodeScratch,
) -> Result<WindowReport, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let header = read_header(&mut r)?;
    decode_body_into(r, header, scratch, CellLoop::Scalar)
}

/// [`decode_window_into`] for a stream whose windows are all
/// `node_count × node_count`, reading the header once. A header that
/// claims another shape is refused with [`CodecError::Misshapen`] before
/// anything is sized from it: the decoder sizes its row index from the
/// claimed rows, so a corrupt or hostile claim could otherwise cost
/// millions of rows. Returns the report and whether the payload was a
/// delta.
pub fn decode_stream_window_into(
    data: &[u8],
    node_count: usize,
    scratch: &mut DecodeScratch,
) -> Result<(WindowReport, bool), CodecError> {
    let mut r = Reader { data, pos: 0 };
    let header = read_header(&mut r)?;
    let shape = (header.rows, header.cols);
    if shape != (node_count, node_count) {
        return Err(CodecError::Misshapen { shape, node_count });
    }
    let delta = header.base.is_some();
    Ok((
        decode_body_into(r, header, scratch, CellLoop::Dispatch)?,
        delta,
    ))
}

/// Decode the cells after a parsed `header` through `scratch`, full
/// windows' cells through the `cells` loop; `r` is positioned just past
/// the header of the whole payload `r.data`.
fn decode_body_into(
    mut r: Reader<'_>,
    header: WindowHeader,
    scratch: &mut DecodeScratch,
    cells: CellLoop,
) -> Result<WindowReport, CodecError> {
    let (index, actual) = (header.stats.window_index, scratch.base);
    let built = scratch.windows.build(
        (header.rows, header.cols),
        header.base.is_some(),
        |newest, row_ptr, col_idx, values| match (header.base, newest) {
            (None, _) => parse_full_body(&mut r, &header, cells, row_ptr, col_idx, values),
            (Some(expected), Some(base)) if actual == Some(expected) => {
                parse_delta_body(&mut r, &header, base, row_ptr, col_idx, values)
            }
            (Some(expected), _) => Err(CodecError::DeltaBaseMismatch { expected, actual }),
        },
    );
    let (matrix, reused) = match built {
        Ok(built) => built,
        Err(e) => {
            if scratch.windows.newest().is_none() {
                scratch.base = None;
            }
            return Err(e);
        }
    };
    scratch.base = Some(index);
    if reused {
        scratch.reuse_hits += 1;
        if let Some(counter) = &scratch.reuse_counter {
            counter.inc();
        }
    }
    Ok(WindowReport {
        matrix,
        stats: header.stats,
        frame: None,
    })
}

/// Parse everything after a delta window's header and apply it to `base`,
/// filling the given CSR arrays with the patched window.
///
/// A version-5 run is read change by change as [`merge_changes`] consumes
/// it; a version-3 body is parsed by the `legacy` module and fed to the
/// same merge.
fn parse_delta_body(
    r: &mut Reader<'_>,
    header: &WindowHeader,
    base: &CsrMatrix<u64>,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let (rows, cols) = (header.rows, header.cols);
    if (rows, cols) != base.shape() {
        return Err(CodecError::Corrupt("delta shape disagrees with its base"));
    }
    let final_nnz = r.usize_varint("final nnz")?;
    // The result holds at most the base's cells plus one per change, and
    // every change takes at least a byte: a corrupt count cannot force a
    // huge allocation.
    let capacity = final_nnz.min(base.nnz() + r.data.len());
    row_ptr.clear();
    row_ptr.reserve(rows + 1);
    col_idx.clear();
    col_idx.reserve(capacity);
    values.clear();
    values.reserve(capacity);
    if header.version == DELTA_WINDOW_VERSION {
        let count = u32::from_le_bytes(r.fixed("change count")?);
        let (data, mut pos) = (r.data, r.pos);
        // As in `parse_linear_cells`: no cell of a window without rows is
        // in bounds.
        let shape = (rows, if rows == 0 { 0 } else { cols });
        let (mut row, mut next_col) = (0usize, 0usize);
        let changes = (0..count).map(|_| {
            let tag = read_usize(data, &mut pos, "change tag")?;
            let (crossed, col) = step(row, next_col, tag >> 1, shape)?;
            row += crossed;
            next_col = col + 1;
            let set = if tag & 1 == 0 {
                Some(read_varint(data, &mut pos, "value")?)
            } else {
                None
            };
            Ok((row, col, set))
        });
        merge_changes(base, changes, row_ptr, col_idx, values)?;
        r.pos = pos;
    } else {
        legacy::parse_v3_changes(r, base, row_ptr, col_idx, values)?;
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Corrupt("trailing bytes after the last entry"));
    }
    if col_idx.len() != final_nnz {
        return Err(CodecError::Corrupt("delta result disagrees with header"));
    }
    Ok(())
}

/// Merge `base` with a run of cell changes into the given (cleared) CSR
/// arrays, in one pass over both.
///
/// Each change is (row, column, new value), `None` deleting the cell, in
/// strictly increasing (row, column) order and in bounds; the first error
/// a change yields ends the merge. A change replaces the base cell at its
/// position; a delete of a cell the base does not hold is corrupt. Base
/// cells between changes are copied a row span at a time, and the starts
/// of rows without changes are shifted in one pass.
fn merge_changes(
    base: &CsrMatrix<u64>,
    changes: impl Iterator<Item = Result<(usize, usize, Option<u64>), CodecError>>,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    let (b_ptr, b_col, b_val) = (base.row_ptr(), base.col_indices(), base.values());
    row_ptr.push(0);
    // The row being filled, and the next base cell to copy (within it).
    let (mut row, mut next) = (0usize, 0usize);
    for change in changes {
        let (r, c, set) = change?;
        if r > row {
            // Finish `row` and copy the rows up to `r` whole: each of their
            // starts moves by the same amount.
            let (end, out) = (b_ptr[r], col_idx.len());
            row_ptr.extend(b_ptr[row + 1..=r].iter().map(|&p| p - next + out));
            col_idx.extend_from_slice(&b_col[next..end]);
            values.extend_from_slice(&b_val[next..end]);
            (row, next) = (r, end);
        }
        let (start, row_end) = (next, b_ptr[r + 1]);
        while next < row_end && b_col[next] < c {
            next += 1;
        }
        col_idx.extend_from_slice(&b_col[start..next]);
        values.extend_from_slice(&b_val[start..next]);
        let held = next < row_end && b_col[next] == c;
        if held {
            next += 1;
        }
        match set {
            Some(value) => {
                col_idx.push(c);
                values.push(value);
            }
            None if !held => return Err(CodecError::Corrupt("delete of an absent cell")),
            None => {}
        }
    }
    let out = col_idx.len();
    row_ptr.extend(b_ptr[row + 1..].iter().map(|&p| p - next + out));
    col_idx.extend_from_slice(&b_col[next..]);
    values.extend_from_slice(&b_val[next..]);
    Ok(())
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
    /// Decodes that built their window in a kept window's storage instead
    /// of allocating, in windows.
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
            matrix: Arc::new(matrix),
            stats,
            frame: None,
        }
    }

    /// A scratch whose delta base is an empty `rows × cols` window 0.
    fn scratch_with_empty_base(rows: usize, cols: usize) -> DecodeScratch {
        let mut base = report(rows, cols, &[]);
        base.stats.window_index = 0;
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&base), &mut scratch).unwrap();
        scratch
    }

    /// The stats block of a window written now: six varints and a fixed
    /// 8-byte `elapsed`.
    fn push_stats(buf: &mut Vec<u8>, stats: &IngestStats) {
        let IngestStats {
            window_index,
            events,
            packets,
            nnz,
            dropped_late,
            reordered,
            elapsed,
        } = stats.clone();
        for v in [
            window_index,
            events,
            packets,
            nnz as u64,
            dropped_late,
            reordered,
        ] {
            super::push_varint(buf, v);
        }
        buf.extend_from_slice(&(elapsed.as_nanos() as u64).to_le_bytes());
    }

    /// Magic, `version` and an all-zero stats block in that version's
    /// layout: the prefix of a hand-assembled payload.
    fn header(version: u8) -> Vec<u8> {
        let mut bytes = WINDOW_MAGIC.to_vec();
        bytes.push(version);
        // index, events, packets, nnz, late, then reordered from version 2.
        bytes.resize(bytes.len() + if version >= 2 { 6 } else { 5 }, 0);
        // `elapsed`: a varint before version 4, fixed 8 bytes from it on.
        bytes.resize(bytes.len() + if version >= 4 { 8 } else { 1 }, 0);
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
        for version in [3, DELTA_WINDOW_VERSION] {
            let mut delta = header(version);
            super::push_varint(&mut delta, 0); // base window index
            super::push_varint(&mut delta, (MAX_DIMENSION as u64) + 1); // rows
            super::push_varint(&mut delta, 4); // cols
            let mut scratch = scratch_with_empty_base(2, 2);
            assert_eq!(
                decode_window_into(&delta, &mut scratch).map(|_| ()),
                expected,
                "v{version}"
            );
        }
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
        // from the first cell and from the last column of a row. Version 6
        // names fold width 0 first, or folds the value in at width 1: the
        // largest gap varint is a gap past the end at every width.
        for first in [0, 3] {
            assert_eq!(
                full(4, &[4, 4, 2], &[first, 1, u64::MAX, 1]),
                Err(CodecError::Corrupt("cell index out of bounds"))
            );
            assert_eq!(
                full(FULL_WINDOW_VERSION, &[4, 4, 2, 0], &[first, 1, u64::MAX, 1]),
                Err(CodecError::Corrupt("cell index out of bounds"))
            );
            assert_eq!(
                full(
                    FULL_WINDOW_VERSION,
                    &[4, 4, 2, 1],
                    &[first << 1 | 1, u64::MAX]
                ),
                Err(CodecError::Corrupt("cell index out of bounds"))
            );
        }

        let delta = |version: u8, counts: &[u64], changes: &[u64]| {
            let mut bytes = header(version);
            for v in counts {
                super::push_varint(&mut bytes, *v);
            }
            if version == DELTA_WINDOW_VERSION {
                bytes.extend_from_slice(&2u32.to_le_bytes()); // change count
            }
            for v in changes {
                super::push_varint(&mut bytes, *v);
            }
            let mut scratch = scratch_with_empty_base(4, 4);
            decode_window_into(&bytes, &mut scratch).map(|_| ())
        };
        // v3: base index, rows, cols, final nnz, changed rows; row 0
        // upserts two cells, the second a column delta past the end.
        assert_eq!(
            delta(3, &[0, 4, 4, 2, 1], &[0, 0, 2, 0, 1, u64::MAX, 1]),
            Err(CodecError::Corrupt("column overflow"))
        );
        // v5: base index, rows, cols, final nnz; cell 0 set to 1, then a
        // change tag whose gap runs past the end.
        assert_eq!(
            delta(DELTA_WINDOW_VERSION, &[0, 4, 4, 2], &[0, 1, u64::MAX, 1]),
            Err(CodecError::Corrupt("cell index out of bounds"))
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
    fn full_windows_encode_as_version_six() {
        // One writer: every full window is a version-6 linear-gap run. Two
        // cells two rows apart: index 1 absolute, then 28 - 1 - 1 = 26.
        // At width 2 the value 2 folds (1 << 2 | 2 = 6) and 5 escapes
        // (26 << 2 = 104, then 5): three bytes. Width 3 folds both, but
        // 26 << 3 | 5 = 213 takes two bytes: a tie, and the smaller width
        // wins.
        let original = report(8, 8, &[(0, 1, 2), (3, 4, 5)]);
        let bytes = encode_window(&original);
        assert_eq!(FULL_WINDOW_VERSION, 6);
        let mut want = WINDOW_MAGIC.to_vec();
        want.push(6);
        push_stats(&mut want, &original.stats);
        want.extend_from_slice(&[8, 8, 2, 2, 6, 104, 5]);
        assert_eq!(bytes, want);
        assert_eq!(decode_window(&bytes).unwrap(), original);
        // Stored zeros and values past the fold escape: the gap varint's
        // low bits are 0 and the value follows. Ones fold at width 1.
        let zeros = report(4, 4, &[(0, 0, 0), (0, 1, 1), (0, 2, 1), (2, 0, u64::MAX)]);
        let bytes = encode_window(&zeros);
        let cells = &bytes[bytes.len() - 16..];
        assert_eq!(
            &cells[..6],
            &[1, 0, 0, 1, 1, 10],
            "fold 1: zero, 1, 1, escape"
        );
        assert_eq!(decode_window(&bytes).unwrap(), zeros);
    }

    #[test]
    fn version_four_windows_decode_as_fold_width_zero() {
        // The bytes the version-4 writer wrote for the window above: each
        // gap followed by its value, no fold byte.
        let original = report(8, 8, &[(0, 1, 2), (3, 4, 5)]);
        let mut v4 = WINDOW_MAGIC.to_vec();
        v4.push(4);
        push_stats(&mut v4, &original.stats);
        v4.extend_from_slice(&[8, 8, 2, 1, 2, 26, 5]);
        assert_eq!(decode_window(&v4).unwrap(), original);
        let mut scratch = DecodeScratch::new();
        assert_eq!(
            decode_window_into_scalar(&v4, &mut scratch).unwrap(),
            original
        );
        // The same run under a version-6 header with fold width 0.
        let mut v6 = v4.clone();
        v6[4] = FULL_WINDOW_VERSION;
        let fold_at = v6.len() - 4;
        v6.insert(fold_at, 0);
        assert_eq!(decode_window(&v6).unwrap(), original);
        // A fold width past 8 is refused, and so is a missing one.
        v6[fold_at] = MAX_FOLD_BITS + 1;
        assert_eq!(
            decode_window(&v6),
            Err(CodecError::Corrupt("fold width above 8"))
        );
        let mut empty = header(FULL_WINDOW_VERSION);
        empty.extend_from_slice(&[8, 8, 0]);
        assert_eq!(
            decode_window(&empty),
            Err(CodecError::Truncated("fold width"))
        );
        empty.push(MAX_FOLD_BITS);
        assert_eq!(decode_window(&empty).unwrap().matrix.nnz(), 0);
    }

    #[test]
    fn fixed_elapsed_keeps_full_window_lengths_independent_of_timing() {
        let mut fast = report(8, 8, &[(0, 1, 2), (3, 4, 5)]);
        fast.stats.elapsed = Duration::from_nanos(1);
        let mut slow = fast.clone();
        slow.stats.elapsed = Duration::from_secs(3_600);
        assert_eq!(encode_window(&fast).len(), encode_window(&slow).len());
        assert_eq!(decode_window(&encode_window(&slow)).unwrap(), slow);
        // The delta layout writes the same fixed field.
        let mut cur = fast.clone();
        cur.stats.window_index += 1;
        let mut slow_cur = cur.clone();
        slow_cur.stats.elapsed = slow.stats.elapsed;
        assert_eq!(
            encode_window_delta(&fast, &cur).len(),
            encode_window_delta(&fast, &slow_cur).len()
        );
    }

    #[test]
    fn delta_windows_encode_as_version_five() {
        // One writer: a delta is one run of tagged linear gaps in index
        // order. (3,4) set to a stored zero: index 28, tag 28 << 1 = 56,
        // value 0; (5,5) deleted: index 45, gap 45 - 29 = 16, tag 33;
        // (6,0) set to u64::MAX: index 48, gap 2, tag 4.
        let prev = report(8, 8, &[(0, 1, 2), (3, 4, 5), (5, 5, 1)]);
        let mut cur = report(8, 8, &[(0, 1, 2), (3, 4, 0), (6, 0, u64::MAX)]);
        cur.stats.window_index += 1;
        let bytes = encode_window_delta(&prev, &cur);
        let mut want = WINDOW_MAGIC.to_vec();
        want.push(DELTA_WINDOW_VERSION);
        push_stats(&mut want, &cur.stats);
        want.extend_from_slice(&[3, 8, 8, 3]); // base, rows, cols, final nnz
        want.extend_from_slice(&3u32.to_le_bytes()); // change count
        want.extend_from_slice(&[56, 0, 33, 4]);
        super::push_varint(&mut want, u64::MAX);
        assert_eq!(bytes, want);

        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        let got = decode_window_into(&bytes, &mut scratch).unwrap();
        assert_reports_equal(&got, &cur);
        assert_eq!(got.matrix.nnz(), 3, "the stored zero survives");
        // A delete of a cell the base does not hold is corrupt.
        let mut absent = want.clone();
        let tag = absent.len() - 12;
        absent[tag] = 35; // (5,6): not in the base
        let mut scratch = DecodeScratch::new();
        decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
        assert_eq!(
            decode_window_into(&absent, &mut scratch).map(|_| ()),
            Err(CodecError::Corrupt("delete of an absent cell"))
        );
        // A payload cut anywhere fails.
        for len in 0..bytes.len() {
            let mut scratch = DecodeScratch::new();
            decode_window_into(&encode_window(&prev), &mut scratch).unwrap();
            assert!(decode_window_into(&bytes[..len], &mut scratch).is_err());
        }
    }

    #[test]
    fn linear_gaps_cross_empty_rows_and_reach_the_last_cell() {
        // A first cell past row 0, a gap over several empty rows, a run
        // of one-byte cells that crosses a row end, and the last cell of
        // the matrix.
        let cells = [
            (1, 3, 1),
            (5, 0, 2),
            (5, 1, 3),
            (5, 2, 4),
            (6, 0, 5),
            (9, 6, 6),
        ];
        // And a run of one-byte cells that crosses one row end after its
        // second cell.
        let crossing = [(0, 5, 1), (0, 6, 2), (1, 0, 3), (1, 2, 4), (2, 7, 5)];
        for original in [report(10, 7, &cells), report(3, 8, &crossing)] {
            let bytes = encode_window(&original);
            assert_eq!(decode_window(&bytes).unwrap(), original);
            let mut scratch = DecodeScratch::new();
            assert_eq!(decode_window_into(&bytes, &mut scratch).unwrap(), original);
        }
        // One more cell past the end is out of bounds, and so is any cell
        // in a window with no rows or no columns.
        let mut past = header(4);
        for v in [10u64, 7, 1, 70, 1] {
            super::push_varint(&mut past, v);
        }
        assert_eq!(
            decode_window(&past),
            Err(CodecError::Corrupt("cell index out of bounds"))
        );
        for (rows, cols) in [(0u64, 7u64), (7, 0), (0, 0)] {
            let mut empty = header(4);
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
    fn stream_decode_refuses_other_shapes_and_reports_deltas() {
        let prev = report(16, 16, &[(1, 2, 3)]);
        let mut cur = report(16, 16, &[(1, 2, 4)]);
        cur.stats.window_index = prev.stats.window_index + 1;
        let mut scratch = DecodeScratch::new();
        let full = encode_window(&prev);
        assert_eq!(
            decode_stream_window_into(&full, 8, &mut scratch).unwrap_err(),
            CodecError::Misshapen {
                shape: (16, 16),
                node_count: 8
            }
        );
        assert_eq!(scratch.base_window(), None, "refused before decoding");
        let (got, delta) = decode_stream_window_into(&full, 16, &mut scratch).unwrap();
        assert_reports_equal(&got, &prev);
        assert!(!delta);
        let (got, delta) =
            decode_stream_window_into(&encode_window_delta(&prev, &cur), 16, &mut scratch).unwrap();
        assert_reports_equal(&got, &cur);
        assert!(delta);
        // A header that does not parse is the codec's error, as in
        // `decode_window_into`.
        assert_eq!(
            decode_stream_window_into(&full[..3], 16, &mut scratch).unwrap_err(),
            decode_window_into(&full[..3], &mut scratch).unwrap_err()
        );
    }

    #[test]
    fn delta_chains_reuse_recycled_buffers() {
        // A keyframe + three deltas decoded in a loop that drops each
        // report: the first delta is built beside its base, and every
        // later decode in the storage of the window before its base.
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
        }
        assert_eq!(scratch.reuse_hits(), encoded.len() as u64 - 2);
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
        let window = encode_window(&report(2, 2, &[]));
        drop(decode_window_into(&window, &mut scratch).unwrap());
        let got = decode_window_into(&window, &mut scratch).unwrap();
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
