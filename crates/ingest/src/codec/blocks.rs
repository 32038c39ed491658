//! The block kernel for linear-gap cell runs (x86_64 with SSSE3).
//!
//! A full window's cells are one run of linear-index gap varints, and in a
//! recorded lesson almost all of them are one to three bytes long. At fold
//! width 0 (every version-4 window) each gap is followed by its value's
//! varint; at a wider fold most cells are the gap varint alone, the value
//! in its low `k` bits. The kernel reads them 16 payload bytes per step,
//! after the Masked VByte decoder of Plaisance, Kurz and Lemire
//! ("Vectorized VByte Decoding", 2015):
//!
//! 1. One unaligned load and one `movemask` give the continuation bit of
//!    each of the 16 bytes.
//! 2. At fold width 0 with no bit set, the block is eight cells of one-byte
//!    varints, gaps in the even bytes and values in the odd ones.
//!    Otherwise the low 12 bits of the mask index [`RUN_KEYS`], which names
//!    the longest run of up to eight one- and two-byte varints (a whole
//!    number of pairs) those bytes start with and the bytes it spans; its
//!    [`Run`] holds the `pshufb` control that lines varint `i` up as 16-bit
//!    lane `i`. At fold width 0 a pair is a cell's gap and value, split
//!    into lanes 0–3 and 4–7. At a wider fold each varint is a cell: the
//!    low `k` bits of each lane are its value, and the first cell whose
//!    value escapes (low bits 0) ends the run. Where the run is shorter
//!    than two pairs, as when a three-byte varint comes early (most cells
//!    of a 4,096-node window at fold width 4), [`WIDE_KEYS`] names a
//!    [`WideRun`] of up to four one- to three-byte varints, read in 32-bit
//!    lanes instead.
//! 3. A prefix sum turns the gaps into each cell's offset past the cursor's
//!    next free column. In 16-bit lanes a run spans at most 12 bytes: four
//!    two-byte gaps below 2^14 with their values, or up to six two-byte
//!    gaps below 2^13 at a fold of at least one bit, so no offset passes
//!    65,535. A wide run sums in 32-bit lanes and saturates each offset to
//!    65,535, past every row end of a window below 2^14 columns, the only
//!    windows it is read in.
//! 4. One compare against the columns left in the cursor's row finds the
//!    cells that cross into a later row. Only then does the kernel compare
//!    against the next [`ROW_ENDS`] row ends, to take each cell's row and
//!    column (a gap over empty rows included) and to stop before a cell
//!    past them or past the last row.
//! 5. The columns and values are widened to 64 bits and stored straight
//!    into the CSR arrays' spare capacity, and the row starts the
//!    cells crossed into into `row_ptr`'s.
//!
//! A step that takes its whole run moves on by the span the key table
//! holds, one load after the `movemask`, so the next step's load does not
//! wait for the cells to be decoded.
//!
//! Everything else — a varint of four or more bytes (three at fold width 0
//! or in a window of 2^14 columns or more), an escaped value, a cell more
//! than [`ROW_ENDS`] row ends on, a cell past the last row, the last 15
//! bytes of the payload and the last 7 cells of the run, and every window
//! wider than 2^16 columns — is left to [`scalar_cell`], one cell at a
//! time, and the kernel tries a block again at the next cell. It only
//! takes cells the scalar loop reads identically and in bounds, so
//! malformed input reaches the scalar loop and fails there with its exact
//! error.
//!
//! The tables are `const` data built at compile time: two sets of 4,096
//! two-byte run keys, 512 runs of 25 bytes and 121 wide runs of 21 bytes,
//! 31 KiB in all.
//!
//! # Safety
//!
//! All `unsafe` code of the decoder sits in this module. [`parse`] calls
//! the `#[target_feature(enable = "ssse3")]` loop only after
//! `is_x86_feature_detected!("ssse3")` said yes. [`load`] reads a
//! `&[u8; 16]`, exactly the bytes it owns. The stores write a vector's
//! spare capacity after reserving room for what they keep, and then
//! extend the length over entries they wrote: [`widen_into`] eight
//! 64-bit words (keeping up to eight), [`block`] up to three row starts
//! (keeping those the cells crossed).

use super::{scalar_cell, CodecError, LinearCursor};
use std::arch::x86_64::{
    __m128i, _mm_add_epi16, _mm_add_epi32, _mm_and_si128, _mm_andnot_si128, _mm_cmpeq_epi16,
    _mm_cmpeq_epi32, _mm_cmpgt_epi32, _mm_cvtsi32_si128, _mm_extract_epi16, _mm_loadu_si128,
    _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi16, _mm_set1_epi32, _mm_set_epi16, _mm_set_epi32,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128, _mm_srl_epi16, _mm_srl_epi32,
    _mm_srli_epi16, _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128, _mm_sub_epi16,
    _mm_subs_epu16,
};

/// Payload bytes one block step loads.
const BLOCK: usize = 16;
/// The most cells one step takes: a block of one-byte varints.
const BLOCK_CELLS: usize = 8;
/// The leading block bytes a run key describes.
const RUN_BYTES: usize = 12;
/// The most row ends one block step crosses.
const ROW_ENDS: usize = 3;
/// The most cells one [`Run`] holds: four gaps and four values fill the
/// eight 16-bit lanes.
const RUN_CELLS: usize = 4;

/// Up to [`RUN_CELLS`] pairs of one- and two-byte varints.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// `pshufb` control: lane `i` (bytes `2i`, `2i + 1`) takes varint `i`'s
    /// low and high byte, or zero (`0x80`) for a one-byte varint's high
    /// byte and an unused lane.
    shuffle: [u8; 16],
    /// The block byte each varint ends at.
    ends: [u8; 2 * RUN_CELLS],
    /// Pairs in the run; 0 when the block starts with a varint of three or
    /// more bytes, or one the key's 12 bytes do not hold whole.
    cells: u8,
}

/// Every run, by key: `1 << (2 * cells)` marks the varint count, and bit
/// `i` below it is set when varint `i` is two bytes long.
const RUNS: [Run; 1 << (2 * RUN_CELLS + 1)] = build_runs();

/// The run a block starts with, by the continuation bits of its first
/// [`RUN_BYTES`] bytes: its [`RUNS`] key in the low bits and the bytes the
/// whole run spans from bit [`SPAN_SHIFT`] on. The span is one load away
/// from the block, so the next block's load need not wait for the run.
const RUN_KEYS: [u16; 1 << RUN_BYTES] = build_run_keys();
/// Where a [`RUN_KEYS`] or [`WIDE_KEYS`] entry holds its run's span.
const SPAN_SHIFT: u32 = 12;

const fn build_run_keys() -> [u16; 1 << RUN_BYTES] {
    let mut keys = [0u16; 1 << RUN_BYTES];
    let mut mask = 0;
    while mask < keys.len() {
        let (mut pos, mut varints, mut long, mut span) = (0, 0, 0u16, 0);
        while varints < 2 * RUN_CELLS && pos < RUN_BYTES {
            // A varint ends at the first byte without a continuation bit;
            // one that needs a third byte, or a byte past the key's, ends
            // the run.
            let len = if mask >> pos & 1 == 0 {
                1
            } else if pos + 1 < RUN_BYTES && mask >> (pos + 1) & 1 == 0 {
                2
            } else {
                break;
            };
            long |= ((len - 1) as u16) << varints;
            varints += 1;
            pos += len;
            if varints % 2 == 0 {
                span = pos;
            }
        }
        // Whole pairs only: a gap without its value is left for later.
        let marker = 1u16 << (varints / 2 * 2);
        keys[mask] = marker | (long & (marker - 1)) | (span as u16) << SPAN_SHIFT;
        mask += 1;
    }
    keys
}

const fn build_runs() -> [Run; 1 << (2 * RUN_CELLS + 1)] {
    let empty = Run {
        shuffle: [0x80; 16],
        ends: [0; 2 * RUN_CELLS],
        cells: 0,
    };
    let mut runs = [empty; 1 << (2 * RUN_CELLS + 1)];
    let mut key = 1usize;
    while key < runs.len() {
        let marker_bit = usize::BITS - 1 - key.leading_zeros();
        // Keys with the marker on an odd bit name no run; they stay empty.
        if marker_bit.is_multiple_of(2) {
            let varints = marker_bit as usize;
            let mut run = empty;
            let (mut pos, mut i) = (0u8, 0);
            while i < varints {
                let long = (key >> i & 1) as u8;
                run.shuffle[2 * i] = pos;
                if long == 1 {
                    run.shuffle[2 * i + 1] = pos + 1;
                }
                pos += 1 + long;
                run.ends[i] = pos;
                i += 1;
            }
            run.cells = (varints / 2) as u8;
            runs[key] = run;
        }
        key += 1;
    }
    runs
}

/// The most cells a [`WideRun`] holds: four varints of up to three bytes
/// fill the [`RUN_BYTES`] a run key describes.
const WIDE_CELLS: usize = 4;
/// The widest window a [`WideRun`] is read in: below 2^14 columns, the
/// last row end a block compares against lies below 2^16, so an offset
/// saturated to 2^16 − 1 lies past it.
const WIDE_MAX_COLS: usize = (1 << 14) - 1;

/// Up to [`WIDE_CELLS`] cells of one- to three-byte varints, each a folded
/// cell (a fold of at least one bit).
#[derive(Debug, Clone, Copy)]
struct WideRun {
    /// `pshufb` control: 32-bit lane `i` takes varint `i`'s bytes, and
    /// zero (`0x80`) above them and in an unused lane.
    shuffle: [u8; 16],
    /// The block byte each varint ends at.
    ends: [u8; WIDE_CELLS],
    /// Cells in the run; 0 when the block starts with a varint of four or
    /// more bytes, or one the key's 12 bytes do not hold whole.
    cells: u8,
}

/// Every wide run: the runs of `n` varints start at index `(3^n − 1) / 2`,
/// and base-3 digit `i` of the offset past it is varint `i`'s length less
/// one.
const WIDE_RUNS: [WideRun; 121] = build_wide_runs();

/// The wide run a block starts with, by the continuation bits of its
/// first [`RUN_BYTES`] bytes: its [`WIDE_RUNS`] index in the low bits and
/// its span from bit [`SPAN_SHIFT`] on, as in [`RUN_KEYS`].
const WIDE_KEYS: [u16; 1 << RUN_BYTES] = build_wide_keys();

const fn build_wide_keys() -> [u16; 1 << RUN_BYTES] {
    let mut keys = [0u16; 1 << RUN_BYTES];
    let mut mask = 0;
    while mask < keys.len() {
        let (mut pos, mut cells, mut digits, mut scale) = (0, 0, 0, 1);
        while cells < WIDE_CELLS && pos < RUN_BYTES {
            // A varint ends at the first byte without a continuation bit;
            // one of four or more bytes, or one past the key's bytes, ends
            // the run.
            let mut len = 1;
            while len <= 3 && pos + len <= RUN_BYTES && mask >> (pos + len - 1) & 1 == 1 {
                len += 1;
            }
            if len > 3 || pos + len > RUN_BYTES {
                break;
            }
            digits += (len - 1) * scale;
            scale *= 3;
            pos += len;
            cells += 1;
        }
        keys[mask] = ((scale - 1) / 2 + digits) as u16 | (pos as u16) << SPAN_SHIFT;
        mask += 1;
    }
    keys
}

const fn build_wide_runs() -> [WideRun; 121] {
    let empty = WideRun {
        shuffle: [0x80; 16],
        ends: [0; WIDE_CELLS],
        cells: 0,
    };
    let mut runs = [empty; 121];
    let (mut cells, mut count) = (0, 1);
    while cells <= WIDE_CELLS {
        let mut digits = 0;
        while digits < count {
            let mut run = empty;
            let (mut pos, mut rest, mut i) = (0u8, digits, 0);
            while i < cells {
                let len = (rest % 3 + 1) as u8;
                rest /= 3;
                let mut byte = 0;
                while byte < len {
                    run.shuffle[4 * i + byte as usize] = pos + byte;
                    byte += 1;
                }
                pos += len;
                run.ends[i] = pos;
                i += 1;
            }
            run.cells = cells as u8;
            runs[(count - 1) / 2 + digits] = run;
            digits += 1;
        }
        cells += 1;
        count *= 3;
    }
    runs
}

/// Read as many of the remaining cells as the block path can take, handing
/// each cell it cannot to [`scalar_cell`]; stops with fewer than
/// [`BLOCK_CELLS`] cells or [`BLOCK`] bytes left, for the scalar loop to
/// finish. Does nothing on a CPU without SSSE3.
pub(super) fn parse(
    data: &[u8],
    pos: &mut usize,
    at: &mut LinearCursor,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    // Columns are 16-bit lanes until they are widened; a window without
    // rows (sent here with no columns) has no cell in bounds.
    if (1..=1 << 16).contains(&at.shape.1) && std::is_x86_feature_detected!("ssse3") {
        // SAFETY: `parse_blocks` is compiled for `ssse3`, which was
        // detected on this CPU just above; it has no other requirement.
        unsafe { parse_blocks(data, pos, at, row_ptr, col_idx, values) }
    } else {
        Ok(())
    }
}

#[target_feature(enable = "ssse3")]
fn parse_blocks(
    data: &[u8],
    pos: &mut usize,
    at: &mut LinearCursor,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> Result<(), CodecError> {
    // The loop works on a copy of the cursor, which the vector stores
    // cannot alias, so its fields stay in registers.
    let mut cursor = *at;
    let mut read = Ok(());
    while cursor.left >= BLOCK_CELLS {
        let Some(bytes) = data.get(*pos..).and_then(<[u8]>::first_chunk::<BLOCK>) else {
            break;
        };
        match block(bytes, &mut cursor, row_ptr, col_idx, values) {
            0 => {
                read = scalar_cell(data, pos, &mut cursor, row_ptr, col_idx, values);
                if read.is_err() {
                    break;
                }
            }
            taken => *pos += taken,
        }
    }
    *at = cursor;
    read
}

/// `pshufb` control that splits a run's pairs: the even varints (gaps) to
/// lanes 0–3 and the odd ones (values) to lanes 4–7.
const SPLIT_PAIRS: [u8; 16] = {
    let mut control = [0; 16];
    let mut i = 0;
    while i < BLOCK_CELLS {
        let lane = if i % 2 == 0 { i / 2 } else { RUN_CELLS + i / 2 };
        control[2 * lane] = 2 * i as u8;
        control[2 * lane + 1] = 2 * i as u8 + 1;
        i += 1;
    }
    control
};

/// `pshufb` control that takes the low 16 bits of each 32-bit lane into
/// lanes 0–3, zeroing lanes 4–7.
const LOW_HALVES: [u8; 16] = [
    0, 1, 4, 5, 8, 9, 12, 13, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
];

/// Take the cells `bytes` starts with that the block path can (see the
/// module docs): append them and step the cursor past them. Returns the
/// bytes taken; 0 leaves the next cell to [`scalar_cell`].
///
/// Needs at least [`BLOCK_CELLS`] cells left, and 1 to 2^16 columns (so,
/// by [`LinearCursor`]'s shape, at least one row).
#[inline]
#[target_feature(enable = "ssse3")]
fn block(
    bytes: &[u8; BLOCK],
    at: &mut LinearCursor,
    row_ptr: &mut Vec<usize>,
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) -> usize {
    let (rows, cols) = at.shape;
    let x = load(bytes);
    let mask = _mm_movemask_epi8(x) as usize;
    let key = mask & ((1 << RUN_BYTES) - 1);
    let front = if at.fold == 0 {
        pairs(x, mask, key)
    } else {
        let (run, span) = key_entry(&RUNS, RUN_KEYS[key]);
        if run.cells >= 2 || cols > WIDE_MAX_COLS {
            folded(x, run, span, at.fold)
        } else {
            wide(x, key, at.fold)
        }
    };
    let Some(Front {
        offsets,
        vals,
        cells,
        whole,
        whole_span,
        ends,
        per_cell,
    }) = front
    else {
        return 0;
    };
    // The bytes the first `take` cells span: where a step takes the whole
    // run (almost every step), the key table's span.
    let span = |take: usize| {
        if take == whole {
            whole_span
        } else {
            usize::from(ends[take * per_cell - 1])
        }
    };

    // Columns left in the cursor's row: a cell whose offset reaches `room`
    // crosses into the next row. Each cell's column is `next_col + offset`
    // less `cols` per row end it crosses; it is below `cols <= 2^16`, so
    // 16-bit lanes wrap to it.
    let room = cols - at.next_col;
    let mut columns = _mm_add_epi16(offsets, _mm_set1_epi16(at.next_col as u16 as i16));
    if cells == BLOCK_CELLS {
        // Eight cells whose last (and so every) cell stays in the cursor's
        // row: the common block of a dense lesson.
        let last = _mm_extract_epi16::<7>(offsets) as usize;
        if last < room {
            widen_into(col_idx, columns, BLOCK_CELLS);
            widen_into(values, vals, BLOCK_CELLS);
            at.next_col += last + 1;
            at.left -= BLOCK_CELLS;
            return span(BLOCK_CELLS);
        }
    }
    // Two movemask bits per lane, for the lanes that hold cells.
    let lanes = (1u32 << (2 * cells)) - 1;
    let first_end = lanes_at_or_past(offsets, room);
    let (mut take, mut crossed) = (cells, 0);
    let len = col_idx.len();
    if first_end.1 & lanes != 0 {
        // The r-th row end past the cursor is at offset
        // `room + (r - 1) * cols`: one compare per end, up to ROW_ENDS of
        // them in a block and none past the last row.
        let ends = [
            first_end,
            lanes_at_or_past(offsets, room + cols),
            lanes_at_or_past(offsets, room + 2 * cols),
        ];
        let beyond = lanes_at_or_past(offsets, room + ROW_ENDS * cols).1;
        let stop = match rows - 1 - at.row {
            0 => ends[0].1,
            1 => ends[1].1,
            2 => ends[2].1,
            _ => beyond,
        } & lanes;
        if stop != 0 {
            take = stop.trailing_zeros() as usize / 2;
            if take == 0 {
                return 0;
            }
        }
        let cols_lanes = _mm_set1_epi16(cols as u16 as i16);
        let taken = (1u32 << (2 * take)) - 1;
        for (below, past) in ends {
            columns = _mm_sub_epi16(columns, _mm_andnot_si128(below, cols_lanes));
            crossed += usize::from(past & taken != 0);
        }
        // Each row end crossed starts a row at the first cell past it. The
        // starts of all ROW_ENDS ends are written, as far as the spare
        // capacity reaches, and the crossed ones (the first) are kept.
        row_ptr.reserve(crossed);
        let starts = row_ptr.spare_capacity_mut().iter_mut();
        for ((_, past), start) in ends.into_iter().zip(starts) {
            start.write(len + past.trailing_zeros() as usize / 2);
        }
        // SAFETY: `reserve` left room for `crossed` starts, so the loop
        // wrote at least that many; the first `crossed` are the starts of
        // the rows the taken cells crossed into, in order.
        unsafe { row_ptr.set_len(row_ptr.len() + crossed) };
    }
    widen_into(col_idx, columns, take);
    widen_into(values, vals, take);
    at.row += crossed;
    at.next_col = col_idx[len + take - 1] + 1;
    at.left -= take;
    span(take)
}

/// The cells a block starts with, as one of the front ends reads them.
struct Front<'a> {
    /// Each cell's offset past the cursor's next free column, as 16-bit
    /// lanes: cell `i` sits `sum(gaps[..=i]) + i` columns on.
    offsets: __m128i,
    /// Each cell's value, as 16-bit lanes.
    vals: __m128i,
    /// The cells the block path may take, at least one.
    cells: usize,
    /// The cells of the whole run, escapes aside, and the bytes they span.
    whole: usize,
    whole_span: usize,
    /// The block byte each varint ends at, and the varints per cell.
    ends: &'a [u8],
    per_cell: usize,
}

/// The (gap, value) pairs of fold width 0 a block starts with: eight
/// one-byte pairs where no continuation bit is set, else the [`Run`] its
/// key names.
#[inline]
#[target_feature(enable = "ssse3")]
fn pairs(x: __m128i, mask: usize, key: usize) -> Option<Front<'static>> {
    if mask == 0 {
        let low_bytes = _mm_set1_epi16(0x00FF);
        let (gaps, vals) = (_mm_and_si128(x, low_bytes), _mm_srli_epi16::<8>(x));
        return Some(Front {
            offsets: prefix_offsets(gaps),
            vals,
            cells: BLOCK_CELLS,
            whole: BLOCK_CELLS,
            whole_span: BLOCK,
            ends: &PAIR_ENDS,
            per_cell: 1,
        });
    }
    let (run, span) = key_entry(&RUNS, RUN_KEYS[key]);
    if run.cells == 0 {
        return None;
    }
    let ints = _mm_shuffle_epi8(short_varints(x, run), load(&SPLIT_PAIRS));
    let cells = usize::from(run.cells);
    Some(Front {
        offsets: prefix_offsets(ints),
        vals: _mm_srli_si128::<8>(ints),
        cells,
        whole: cells,
        whole_span: span,
        ends: &run.ends,
        per_cell: 2,
    })
}

/// The folded cells of `run` (spanning `span` bytes) a block starts with:
/// each varint is a cell, and the first whose value escapes (low `fold`
/// bits 0) ends them.
#[inline]
#[target_feature(enable = "ssse3")]
fn folded(x: __m128i, run: &'static Run, span: usize, fold: u32) -> Option<Front<'static>> {
    if run.cells == 0 {
        return None;
    }
    let ints = short_varints(x, run);
    let vals = _mm_and_si128(ints, _mm_set1_epi16(((1 << fold) - 1) as i16));
    let escapes = _mm_movemask_epi8(_mm_cmpeq_epi16(vals, _mm_setzero_si128())) as u32;
    let cells = (escapes | u32::MAX << (4 * run.cells)).trailing_zeros() as usize / 2;
    if cells == 0 {
        return None;
    }
    let gaps = _mm_srl_epi16(ints, _mm_cvtsi32_si128(fold as i32));
    Some(Front {
        offsets: prefix_offsets(gaps),
        vals,
        cells,
        whole: 2 * usize::from(run.cells),
        whole_span: span,
        ends: &run.ends,
        per_cell: 1,
    })
}

/// The folded cells of one to three bytes a block starts with, read as
/// the [`WideRun`] its key names in 32-bit lanes; the first escaped value
/// ends them. Only for windows of at most [`WIDE_MAX_COLS`] columns.
#[inline]
#[target_feature(enable = "ssse3")]
fn wide(x: __m128i, key: usize, fold: u32) -> Option<Front<'static>> {
    let (run, span) = key_entry(&WIDE_RUNS, WIDE_KEYS[key]);
    if run.cells == 0 {
        return None;
    }
    let lanes = _mm_shuffle_epi8(x, load(&run.shuffle));
    let ints = _mm_or_si128(
        _mm_or_si128(
            _mm_and_si128(lanes, _mm_set1_epi32(0x7F)),
            _mm_and_si128(_mm_srli_epi32::<1>(lanes), _mm_set1_epi32(0x3F80)),
        ),
        _mm_and_si128(_mm_srli_epi32::<2>(lanes), _mm_set1_epi32(0x1F_C000)),
    );
    let vals = _mm_and_si128(ints, _mm_set1_epi32((1 << fold) - 1));
    let escapes = _mm_movemask_epi8(_mm_cmpeq_epi32(vals, _mm_setzero_si128())) as u32;
    let cells = (escapes | u32::MAX << (4 * run.cells)).trailing_zeros() as usize / 4;
    if cells == 0 {
        return None;
    }
    // Gaps are below 2^20 and offsets below 2^23: the prefix sum runs in
    // 32-bit lanes, and an offset past 2^16 − 1 saturates to it, past
    // every row end a block compares against.
    let mut sum = _mm_srl_epi32(ints, _mm_cvtsi32_si128(fold as i32));
    sum = _mm_add_epi32(sum, _mm_slli_si128::<4>(sum));
    sum = _mm_add_epi32(sum, _mm_slli_si128::<8>(sum));
    let offsets = _mm_add_epi32(sum, _mm_set_epi32(3, 2, 1, 0));
    let offsets = _mm_or_si128(offsets, _mm_cmpgt_epi32(offsets, _mm_set1_epi32(0xFFFF)));
    let low_halves = load(&LOW_HALVES);
    Some(Front {
        offsets: _mm_shuffle_epi8(offsets, low_halves),
        vals: _mm_shuffle_epi8(vals, low_halves),
        cells,
        whole: usize::from(run.cells),
        whole_span: span,
        ends: &run.ends,
        per_cell: 1,
    })
}

/// The run a [`RUN_KEYS`] or [`WIDE_KEYS`] entry names in `runs`, and the
/// bytes it spans.
#[inline]
fn key_entry<R>(runs: &'static [R], entry: u16) -> (&'static R, usize) {
    (
        &runs[usize::from(entry) & ((1 << SPAN_SHIFT) - 1)],
        usize::from(entry >> SPAN_SHIFT),
    )
}

/// The block byte each of eight one-byte pairs ends at.
const PAIR_ENDS: [u8; BLOCK_CELLS] = [2, 4, 6, 8, 10, 12, 14, 16];

/// The one- and two-byte varints of `run` in `x` as 16-bit lanes, varint
/// `i` in lane `i`: each lane holds a varint's low byte and its high byte
/// (or 0), and the value is the low 7 bits plus the high byte shifted down
/// one.
#[inline]
#[target_feature(enable = "ssse3")]
fn short_varints(x: __m128i, run: &Run) -> __m128i {
    let lanes = _mm_shuffle_epi8(x, load(&run.shuffle));
    let low = _mm_and_si128(lanes, _mm_set1_epi16(0x007F));
    let high = _mm_and_si128(_mm_srli_epi16::<1>(lanes), _mm_set1_epi16(0x3F80));
    _mm_or_si128(low, high)
}

/// Each cell's offset past the cursor's next free column, from its gap:
/// cell `i` sits `sum(gaps[..=i]) + i` columns on.
#[inline]
#[target_feature(enable = "ssse3")]
fn prefix_offsets(gaps: __m128i) -> __m128i {
    let mut sum = gaps;
    sum = _mm_add_epi16(sum, _mm_slli_si128::<2>(sum));
    sum = _mm_add_epi16(sum, _mm_slli_si128::<4>(sum));
    sum = _mm_add_epi16(sum, _mm_slli_si128::<8>(sum));
    _mm_add_epi16(sum, _mm_set_epi16(7, 6, 5, 4, 3, 2, 1, 0))
}

/// The lanes of `offsets` below `limit` (all ones) and the movemask bits
/// (two per lane) of those at or past it.
#[inline]
#[target_feature(enable = "ssse3")]
fn lanes_at_or_past(offsets: __m128i, limit: usize) -> (__m128i, u32) {
    // No lane reaches 2^16; below that, `offset >= limit` exactly when
    // `offset - (limit - 1)` does not saturate to zero.
    let Some(floor) = limit.checked_sub(1) else {
        return (_mm_setzero_si128(), 0xFFFF);
    };
    if floor > 0xFFFF {
        return (_mm_set1_epi16(-1), 0);
    }
    let over = _mm_subs_epu16(offsets, _mm_set1_epi16(floor as u16 as i16));
    let below = _mm_cmpeq_epi16(over, _mm_setzero_si128());
    (below, !(_mm_movemask_epi8(below) as u32) & 0xFFFF)
}

/// An 8-byte integer every bit pattern is a value of: what [`widen_into`]
/// may write.
trait Word {}
impl Word for u64 {}
impl Word for usize {}

/// `pshufb` controls that zero-extend 16-bit lanes `2i` and `2i + 1` to
/// two 64-bit words.
const WIDEN: [[u8; 16]; 4] = {
    let mut controls = [[0x80; 16]; 4];
    let mut lane = 0;
    while lane < BLOCK_CELLS {
        let (pair, word) = (lane / 2, lane % 2);
        controls[pair][8 * word] = 2 * lane as u8;
        controls[pair][8 * word + 1] = 2 * lane as u8 + 1;
        lane += 1;
    }
    controls
};

/// Append the first `take` of the eight 16-bit lanes of `lanes` to `out`,
/// each zero-extended to 64 bits.
#[inline]
#[target_feature(enable = "ssse3")]
fn widen_into<W: Word>(out: &mut Vec<W>, lanes: __m128i, take: usize) {
    const { assert!(size_of::<W>() == 8) };
    assert!(take <= BLOCK_CELLS, "a block holds at most eight cells");
    let words = WIDEN.map(|pair| _mm_shuffle_epi8(lanes, load(&pair)));
    out.reserve(BLOCK_CELLS);
    let len = out.len();
    let spare = out.spare_capacity_mut().as_mut_ptr().cast::<__m128i>();
    for (i, pair) in words.into_iter().enumerate() {
        // SAFETY: `reserve` left room for BLOCK_CELLS = 8 words (64 bytes)
        // at `spare`, and pair `i < 4` is words `2i` and `2i + 1` of them;
        // `_mm_storeu_si128` has no alignment requirement.
        unsafe { _mm_storeu_si128(spare.add(i), pair) };
    }
    // SAFETY: the first `take` spare words (at most eight, asserted above)
    // were written just above, and a `Word` is an 8-byte integer (checked
    // at compile time), valid for every bit pattern.
    unsafe { out.set_len(len + take) };
}

/// One 16-byte block as a vector.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, exactly what the load reads,
    // and `_mm_loadu_si128` has no alignment requirement; SSE2 is part of
    // every x86_64 CPU.
    unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The block byte each pair of the run keyed by `mask` ends at.
    fn pair_ends(mask: usize) -> Vec<u8> {
        let (run, span) = key_entry(&RUNS, RUN_KEYS[mask]);
        let varints = 2 * usize::from(run.cells);
        assert_eq!(
            span,
            varints
                .checked_sub(1)
                .map_or(0, |last| run.ends[last].into())
        );
        (0..usize::from(run.cells))
            .map(|pair| run.ends[2 * pair + 1])
            .collect()
    }

    #[test]
    fn run_keys_stop_at_long_varints_and_whole_cells() {
        // Twelve one-byte varints: four cells, eight bytes.
        assert_eq!(pair_ends(0), [2, 4, 6, 8]);
        // A two-byte gap first (bit 0), then one-byte varints.
        assert_eq!(pair_ends(0b1), [3, 5, 7, 9]);
        let run = key_entry(&RUNS, RUN_KEYS[0b1]).0;
        assert_eq!(&run.shuffle[..6], &[0, 1, 2, 0x80, 3, 0x80]);
        // A three-byte first gap: no run.
        assert_eq!(key_entry(&RUNS, RUN_KEYS[0b11]).0.cells, 0);
        // A gap, then a value of three or more bytes: no whole cell.
        assert_eq!(key_entry(&RUNS, RUN_KEYS[0b110]).0.cells, 0);
        // One cell, then a three-byte gap.
        assert_eq!(pair_ends(0b1100), [2]);
        // Five two-byte varints and a one-byte one, then a varint whose
        // second byte lies past the key's 12: three cells.
        assert_eq!(pair_ends(0b1001_0101_0101), [4, 8, 11]);
    }

    #[test]
    fn split_pairs_puts_gaps_before_values() {
        // Varint i sits in lane i; SPLIT_PAIRS moves the even ones to
        // lanes 0-3 and the odd ones to lanes 4-7.
        let lanes: [u16; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
        let bytes: Vec<u8> = lanes.iter().flat_map(|l| l.to_le_bytes()).collect();
        let split: Vec<u16> = SPLIT_PAIRS
            .chunks(2)
            .map(|c| u16::from_le_bytes([bytes[usize::from(c[0])], bytes[usize::from(c[1])]]))
            .collect();
        assert_eq!(split, [0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn wide_keys_take_up_to_four_varints_of_three_bytes() {
        let wide = |mask: usize| {
            let (run, span) = key_entry(&WIDE_RUNS, WIDE_KEYS[mask]);
            let cells = usize::from(run.cells);
            assert_eq!(
                span,
                if cells == 0 {
                    0
                } else {
                    usize::from(run.ends[cells - 1])
                }
            );
            run
        };
        // Twelve one-byte varints: four cells.
        assert_eq!((wide(0).cells, wide(0).ends), (4, [1, 2, 3, 4]));
        // A three-byte varint, then one-byte ones.
        let run = wide(0b11);
        assert_eq!((run.cells, run.ends), (4, [3, 4, 5, 6]));
        assert_eq!(&run.shuffle[..8], &[0, 1, 2, 0x80, 3, 0x80, 0x80, 0x80]);
        // Four three-byte varints fill the twelve bytes.
        let run = wide(0b011_011_011_011);
        assert_eq!((run.cells, run.ends), (4, [3, 6, 9, 12]));
        // A four-byte varint first: no run; after one cell, one cell.
        assert_eq!(wide(0b111).cells, 0);
        assert_eq!(wide(0b1110).cells, 1);
        // A varint whose fourth byte lies past the key's 12: three cells.
        let run = wide(0b111_011_011_011);
        assert_eq!((run.cells, &run.ends[..3]), (3, &[3, 6, 9][..]));
    }
}
