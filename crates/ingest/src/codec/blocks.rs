//! The block kernel for version-4 cell runs (x86_64 with SSSE3).
//!
//! A version-4 window is one run of (linear-index gap, value) varint
//! pairs, and in a recorded lesson almost all of them are one or two bytes
//! long. The kernel reads them 16 payload bytes per step, after the Masked
//! VByte decoder of Plaisance, Kurz and Lemire ("Vectorized VByte
//! Decoding", 2015):
//!
//! 1. One unaligned load and one `movemask` give the continuation bit of
//!    each of the 16 bytes.
//! 2. No bit set: the block is eight cells of one-byte varints, gaps in the
//!    even bytes and values in the odd ones. Otherwise the low 12 bits of
//!    the mask index [`RUN_KEYS`], which names the longest run of up to
//!    four whole cells of one- and two-byte varints those bytes start with;
//!    its [`Run`] holds the `pshufb` control that lines the varints up as
//!    16-bit lanes (gaps in lanes 0–3, values in lanes 4–7) and the byte
//!    each cell ends at.
//! 3. A 16-bit prefix sum turns the gaps into each cell's offset past the
//!    cursor's next free column (a two-byte varint is below 2^14 and a
//!    run spans at most 12 bytes, so no offset passes 65,535).
//! 4. One compare against the columns left in the cursor's row finds the
//!    cells that cross into a later row. Only then does the kernel compare
//!    against the next [`ROW_ENDS`] row ends, to take each cell's row and
//!    column (a gap over empty rows included) and to stop before a cell
//!    past them or past the last row.
//! 5. The columns and values are widened to 64 bits and stored straight
//!    into the CSR arrays' spare capacity, and the row starts the
//!    cells crossed into into `row_ptr`'s.
//!
//! Everything else — a varint of three or more bytes, a cell more than
//! [`ROW_ENDS`] row ends on, a cell past the last row, the last 15 bytes
//! of the payload and the last 7 cells of the run, and every window wider
//! than 2^16 columns — is left to [`scalar_cell`], one cell at a time, and
//! the kernel tries a block again at the next cell. It only takes cells
//! the scalar loop reads identically and in bounds, so malformed input
//! reaches the scalar loop and fails there with its exact error.
//!
//! The tables are `const` data built at compile time: 4,096 two-byte run
//! keys and 512 runs of 21 bytes, 18.5 KiB in all.
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
    __m128i, _mm_add_epi16, _mm_and_si128, _mm_andnot_si128, _mm_cmpeq_epi16, _mm_extract_epi16,
    _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi16, _mm_set_epi16,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_epi16, _mm_srli_si128,
    _mm_storeu_si128, _mm_sub_epi16, _mm_subs_epu16,
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

/// Up to [`RUN_CELLS`] cells of one- and two-byte varints.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// `pshufb` control: lane `i` (bytes `2i`, `2i + 1`) takes the varint's
    /// low and high byte, or zero (`0x80`) for a one-byte varint's high
    /// byte and an unused lane. Gaps go to lanes 0–3, values to lanes 4–7.
    shuffle: [u8; 16],
    /// The block byte each cell ends at (one past its value).
    ends: [u8; RUN_CELLS],
    /// Cells in the run; 0 when the block starts with a varint of three or
    /// more bytes, or one the key's 12 bytes do not hold whole.
    cells: u8,
}

/// Every run, by key: `1 << (2 * cells)` marks the varint count, and bit
/// `i` below it is set when varint `i` is two bytes long.
const RUNS: [Run; 1 << (2 * RUN_CELLS + 1)] = build_runs();

/// The [`RUNS`] key of the run a block starts with, by the continuation
/// bits of its first [`RUN_BYTES`] bytes.
const RUN_KEYS: [u16; 1 << RUN_BYTES] = build_run_keys();

const fn build_run_keys() -> [u16; 1 << RUN_BYTES] {
    let mut keys = [0u16; 1 << RUN_BYTES];
    let mut mask = 0;
    while mask < keys.len() {
        let (mut pos, mut varints, mut long) = (0, 0, 0u16);
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
        }
        // Whole cells only: a gap without its value is left for later.
        let marker = 1u16 << (varints / 2 * 2);
        keys[mask] = marker | (long & (marker - 1));
        mask += 1;
    }
    keys
}

const fn build_runs() -> [Run; 1 << (2 * RUN_CELLS + 1)] {
    let empty = Run {
        shuffle: [0x80; 16],
        ends: [0; RUN_CELLS],
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
                let lane = if i % 2 == 0 { i / 2 } else { RUN_CELLS + i / 2 };
                run.shuffle[2 * lane] = pos;
                if long == 1 {
                    run.shuffle[2 * lane + 1] = pos + 1;
                }
                pos += 1 + long;
                if i % 2 == 1 {
                    run.ends[i / 2] = pos;
                }
                i += 1;
            }
            run.cells = (varints / 2) as u8;
            runs[key] = run;
        }
        key += 1;
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
    while at.left >= BLOCK_CELLS {
        let Some(bytes) = data.get(*pos..).and_then(<[u8]>::first_chunk::<BLOCK>) else {
            break;
        };
        match block(bytes, at, row_ptr, col_idx, values) {
            0 => scalar_cell(data, pos, at, row_ptr, col_idx, values)?,
            taken => *pos += taken,
        }
    }
    Ok(())
}

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
    let (gaps, vals, cells, run) = if mask == 0 {
        let low_bytes = _mm_set1_epi16(0x00FF);
        (
            _mm_and_si128(x, low_bytes),
            _mm_srli_epi16::<8>(x),
            BLOCK_CELLS,
            None,
        )
    } else {
        let run = &RUNS[usize::from(RUN_KEYS[mask & ((1 << RUN_BYTES) - 1)])];
        if run.cells == 0 {
            return 0;
        }
        // Each lane holds a varint's low byte and its high byte (or 0):
        // the value is the low 7 bits plus the high byte shifted down one.
        let lanes = _mm_shuffle_epi8(x, load(&run.shuffle));
        let low = _mm_and_si128(lanes, _mm_set1_epi16(0x007F));
        let high = _mm_and_si128(_mm_srli_epi16::<1>(lanes), _mm_set1_epi16(0x3F80));
        let ints = _mm_or_si128(low, high);
        (
            ints,
            _mm_srli_si128::<8>(ints),
            usize::from(run.cells),
            Some(run),
        )
    };

    // Cell i sits sum(gaps[..=i]) + i columns past `next_col`.
    let mut sum = gaps;
    sum = _mm_add_epi16(sum, _mm_slli_si128::<2>(sum));
    sum = _mm_add_epi16(sum, _mm_slli_si128::<4>(sum));
    sum = _mm_add_epi16(sum, _mm_slli_si128::<8>(sum));
    let offsets = _mm_add_epi16(sum, _mm_set_epi16(7, 6, 5, 4, 3, 2, 1, 0));

    // Columns left in the cursor's row: a cell whose offset reaches `room`
    // crosses into the next row. Each cell's column is `next_col + offset`
    // less `cols` per row end it crosses; it is below `cols <= 2^16`, so
    // 16-bit lanes wrap to it.
    let room = cols - at.next_col;
    let mut columns = _mm_add_epi16(offsets, _mm_set1_epi16(at.next_col as u16 as i16));
    if run.is_none() {
        // Eight one-byte cells whose last (and so every) cell stays in the
        // cursor's row: the common block of a dense lesson.
        let last = _mm_extract_epi16::<7>(offsets) as usize;
        if last < room {
            widen_into(col_idx, columns, BLOCK_CELLS);
            widen_into(values, vals, BLOCK_CELLS);
            at.next_col += last + 1;
            at.left -= BLOCK_CELLS;
            return BLOCK;
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
    match run {
        None => 2 * take,
        Some(run) => usize::from(run.ends[take - 1]),
    }
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

    #[test]
    fn run_keys_stop_at_long_varints_and_whole_cells() {
        // Twelve one-byte varints: four cells, eight bytes.
        let run = &RUNS[usize::from(RUN_KEYS[0])];
        assert_eq!((run.cells, run.ends), (4, [2, 4, 6, 8]));
        // A two-byte gap first (bit 0), then one-byte varints.
        let run = &RUNS[usize::from(RUN_KEYS[0b1])];
        assert_eq!((run.cells, run.ends), (4, [3, 5, 7, 9]));
        assert_eq!(&run.shuffle[..4], &[0, 1, 3, 0x80]);
        assert_eq!(&run.shuffle[8..10], &[2, 0x80], "the first value");
        // A three-byte first gap: no run.
        assert_eq!(RUNS[usize::from(RUN_KEYS[0b11])].cells, 0);
        // A gap, then a value of three or more bytes: no whole cell.
        assert_eq!(RUNS[usize::from(RUN_KEYS[0b110])].cells, 0);
        // One cell, then a three-byte gap.
        let run = &RUNS[usize::from(RUN_KEYS[0b1100])];
        assert_eq!((run.cells, run.ends[0]), (1, 2));
        // Five two-byte varints and a one-byte one, then a varint whose
        // second byte lies past the key's 12: three cells.
        let run = &RUNS[usize::from(RUN_KEYS[0b1001_0101_0101])];
        assert_eq!((run.cells, &run.ends[..3]), (3, &[4, 8, 11][..]));
    }
}
