//! Differential tests for the full-window encoder.
//!
//! `encode_window` walks a window's cells a fixed-size chunk at a time,
//! with row bases from a per-chunk array of row starts, one-byte cells
//! four at a time and short fields as branch-free word stores. The plain
//! per-row writer in `support/reference_encoder.rs` states the version-4
//! bytes directly; the encoder must return exactly its bytes for every
//! window. So must `frame::window_frame`, which appends the same encoding
//! to a buffer that already holds the frame header.
//!
//! Windows are laid out by linear-index gap, so a gap can be any exact
//! figure: 0–3 (runs of one-byte cells), the varint edges 127/128 and
//! 16,383/16,384, 2^28 − 1 and 2^28, a jump over one or many empty rows.
//! Values take the same edges and `u64::MAX`. Cell counts sit at, and one
//! either side of, each power of two from 4 to 1,024 and their doubles, so
//! any chunk size in that range has a window ending on its edge; a run of
//! empty rows can be forced to start at such an edge, and windows end with
//! up to hundreds of empty rows.

use proptest::prelude::*;
use std::time::Duration;
use tw_ingest::codec::{encode_window, MAX_DIMENSION};
use tw_ingest::frame::{read_raw_frame, window_frame, FrameKind};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

#[path = "support/reference_encoder.rs"]
mod reference_encoder;

use reference_encoder::encode_reference;

/// The most rows a generated window may take, so a case's `row_ptr` stays
/// small.
const MAX_ROWS: u64 = 1 << 17;

/// Power-of-two chunk sizes whose edges the cell counts straddle.
const EDGES: [usize; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Field values at every varint edge the encoder treats specially.
const EDGE_VALUES: [u64; 9] = [
    0,
    127,
    128,
    16_383,
    16_384,
    (1 << 28) - 1,
    1 << 28,
    u64::MAX - 1,
    u64::MAX,
];

/// How far the next cell's linear index lies past the last one.
#[derive(Debug, Clone, Copy)]
enum Gap {
    /// Exactly this linear-index gap.
    Exact(u64),
    /// Into the row `rows` on, at column `col` (modulo the width).
    Rows(u64, u64),
}

fn arb_gap() -> BoxedStrategy<Gap> {
    prop_oneof![
        (0u64..4).prop_map(Gap::Exact),
        (0u64..4).prop_map(Gap::Exact),
        (0u64..4).prop_map(Gap::Exact),
        (0u64..300).prop_map(Gap::Exact),
        (0usize..EDGE_VALUES.len() - 2).prop_map(|i| Gap::Exact(EDGE_VALUES[i])),
        (120u64..136).prop_map(Gap::Exact),
        (16_376u64..16_392).prop_map(Gap::Exact),
        (0u64..1 << 30).prop_map(Gap::Exact),
        (0u64..3).prop_map(|col| Gap::Rows(1, col)),
        (2u64..60, 0u64..8).prop_map(|(rows, col)| Gap::Rows(rows, col)),
    ]
    .boxed()
}

fn arb_value() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..128,
        0u64..128,
        0u64..128,
        0u64..16_384,
        (0usize..EDGE_VALUES.len()).prop_map(|i| EDGE_VALUES[i]),
        any::<u64>(),
    ]
    .boxed()
}

/// A width: a few columns, near 2^7 or 2^14, or wide enough that a
/// 2^28 gap stays inside [`MAX_ROWS`] rows.
fn arb_width() -> BoxedStrategy<usize> {
    prop_oneof![
        1usize..6,
        126usize..131,
        4_095usize..4_098,
        16_383usize..16_386,
        Just(1 << 20),
        Just(MAX_DIMENSION),
    ]
    .boxed()
}

/// A cell count at an edge of [`EDGES`] or its double, one either side of
/// it, or anywhere below 600.
fn arb_nnz() -> BoxedStrategy<usize> {
    prop_oneof![
        (0usize..EDGES.len(), 0usize..3).prop_map(|(i, d)| EDGES[i] + d - 1),
        (0usize..EDGES.len(), 0usize..3).prop_map(|(i, d)| 2 * EDGES[i] + d - 1),
        0usize..600,
    ]
    .boxed()
}

fn report(matrix: CsrMatrix<u64>) -> WindowReport {
    let nnz = matrix.nnz();
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: 300,
            events: nnz as u64 * 3,
            packets: u64::MAX,
            nnz,
            dropped_late: 128,
            reordered: 16_384,
            elapsed: Duration::from_nanos(123_456_789),
        },
        frame: None,
    }
}

/// Lay out `nnz` cells from the cycled `cells` in a window `cols` wide
/// with `spare_rows` empty rows after the last cell. From the cell at
/// index `jump_at` on, every [`EDGES`]-aligned cell first jumps over
/// `jump_rows` empty rows. A gap that would pass [`MAX_ROWS`] rows is cut
/// to the width, and the first cell of all may start anywhere.
fn window(
    cols: usize,
    nnz: usize,
    cells: &[(Gap, u64)],
    jump_at: usize,
    jump_rows: u64,
    spare_rows: u64,
) -> WindowReport {
    let width = cols as u64;
    let mut triples = Vec::with_capacity(nnz);
    let mut next = 0u64;
    for (i, &(gap, value)) in cells.iter().cycle().take(nnz).enumerate() {
        let row = next / width;
        let mut index = match gap {
            _ if i >= jump_at && i % EDGES[jump_at % EDGES.len()] == 0 => {
                (row + jump_rows) * width + next % width
            }
            Gap::Exact(gap) => next + gap,
            Gap::Rows(rows, col) => (row + rows) * width + col % width,
        };
        if index / width >= MAX_ROWS {
            index = next + (index - next) % width;
        }
        if index / width >= MAX_ROWS {
            break;
        }
        triples.push(((index / width) as usize, (index % width) as usize, value));
        next = index + 1;
    }
    let rows = triples.last().map_or(0, |&(r, _, _)| r as u64 + 1) + spare_rows;
    report(CsrMatrix::from_sorted_triples(
        rows as usize,
        cols,
        &triples,
    ))
}

/// `encode_window` and `window_frame`'s payload both equal the reference.
fn check(report: &WindowReport) -> Result<(), TestCaseError> {
    let expected = encode_reference(report);
    prop_assert_eq!(&encode_window(report), &expected, "encode_window");
    let frame = window_frame(report, None);
    prop_assert!(!frame.forwarded && !frame.delta);
    let mut payload = Vec::new();
    let kind = read_raw_frame(&mut &frame.bytes[..], &mut payload).expect("a sealed frame");
    prop_assert_eq!(kind, FrameKind::Window);
    prop_assert_eq!(&payload, &expected, "window_frame payload");
    Ok(())
}

#[test]
fn empty_and_one_cell_windows_encode_as_the_reference() {
    for (rows, cols) in [(0, 0), (0, 1), (1, 0), (1, 1), (3, 1), (1, 3), (300, 300)] {
        check(&report(CsrMatrix::empty(rows, cols))).unwrap();
    }
    for value in EDGE_VALUES {
        check(&report(CsrMatrix::from_sorted_triples(
            1,
            1,
            &[(0, 0, value)],
        )))
        .unwrap();
    }
}

#[test]
fn full_and_hollow_columns_encode_as_the_reference() {
    // One column: every cell starts a row. Every other row empty: each
    // cell starts a row after a one-row run.
    for nnz in EDGES.iter().flat_map(|&e| [e - 1, e, e + 1, 2 * e]) {
        let full: Vec<_> = (0..nnz).map(|i| (i, 0, i as u64 * 67)).collect();
        check(&report(CsrMatrix::from_sorted_triples(nnz + 2, 1, &full))).unwrap();
        let hollow: Vec<_> = (0..nnz).map(|i| (2 * i + 1, 0, 1)).collect();
        check(&report(CsrMatrix::from_sorted_triples(
            2 * nnz + 1,
            1,
            &hollow,
        )))
        .unwrap();
    }
}

#[test]
fn a_window_of_the_largest_dimension_encodes_as_the_reference() {
    let last = MAX_DIMENSION - 1;
    let triples = [
        (0, 0, 1),
        (0, last, u64::MAX),
        (1, 0, 128),
        (1, 16_384, 16_383),
        (5_000, 12_345, 16_384),
        (5_001, last, 1 << 28),
        (last, 0, 127),
        (last, last, 0),
    ];
    check(&report(CsrMatrix::from_sorted_triples(
        MAX_DIMENSION,
        MAX_DIMENSION,
        &triples,
    )))
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_window_writes_the_reference_bytes(
        cols in arb_width(),
        nnz in arb_nnz(),
        cells in prop::collection::vec((arb_gap(), arb_value()), 1..64),
        jump_at in prop_oneof![Just(usize::MAX), 0usize..1_100],
        jump_rows in prop_oneof![1u64..3, 2u64..300],
        spare_rows in prop_oneof![Just(0u64), 1u64..3, 100u64..400],
    ) {
        check(&window(cols, nnz, &cells, jump_at, jump_rows, spare_rows))?;
    }

    #[test]
    fn one_byte_runs_broken_by_long_fields_encode_as_the_reference(
        cols in prop_oneof![1usize..40, 120usize..140],
        nnz in arb_nnz(),
        breaks in prop::collection::vec((0usize..2_100, arb_gap(), arb_value()), 0..6),
        spare_rows in 0u64..3,
    ) {
        // Mostly one-byte cells, as in a dense lesson, with a few cells at
        // chosen positions made long.
        let mut cells = vec![(Gap::Exact(0), 1u64); nnz.max(1)];
        for (at, gap, value) in breaks {
            cells[at % nnz.max(1)] = (gap, value);
        }
        check(&window(cols, nnz, &cells, usize::MAX, 1, spare_rows))?;
    }
}
