//! Window payloads whose header is sound and whose cells are not, for the
//! tests that carry them under a valid checksum (a wire frame, a re-CRC'd
//! archive entry) to a reader.
//!
//! Each window is `NODES × NODES`, as every window of a stream is, with
//! its cells in its last two rows: each a value of 1 folded into a
//! one-byte gap varint (fold width 1), but the first, whose gap over 14
//! rows takes two bytes, and the last, a stored zero that escapes. In a
//! 32-cell window the block kernel, where the CPU has one, loads cells
//! 1–24 in three 16-byte blocks (cell 0 jumps too many rows for it); a
//! 31-cell window has too few bytes left for the third block, so cells
//! 17–30 are the scalar tail. Each corruption is placed once inside a
//! block and once in the tail.

use std::time::Duration;
use tw_ingest::codec::{encode_window, CodecError};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

/// The node count of every corrupt window.
pub const NODES: usize = 16;

/// A `NODES × NODES` window of `cells` cells of value 1 but for a stored
/// zero last, row 14 full and the rest at the start of row 15.
pub fn last_rows_window(cells: usize) -> WindowReport {
    let triples: Vec<_> = (0..cells)
        .map(|i| (NODES - 2 + i / NODES, i % NODES, u64::from(i + 1 < cells)))
        .collect();
    let matrix = CsrMatrix::from_sorted_triples(NODES, NODES, &triples);
    WindowReport {
        matrix: matrix.into(),
        stats: IngestStats {
            window_index: 0,
            events: cells as u64,
            packets: cells as u64,
            nnz: cells,
            dropped_late: 0,
            reordered: 0,
            elapsed: Duration::from_micros(5),
        },
        frame: None,
    }
}

/// One corrupt payload: what it is, its bytes, and the error the scalar
/// cell loop (and so every decoder) reports for it.
pub struct CorruptCells {
    pub what: &'static str,
    pub payload: Vec<u8>,
    pub error: CodecError,
}

/// The four corrupt payloads: a gap that lands past the last row, and a
/// value cut short by the payload end, each inside a block and in the
/// tail.
pub fn corrupt_cell_payloads() -> Vec<CorruptCells> {
    let past_last_row = |cells: usize, cell: usize| {
        let mut payload = encode_window(&last_rows_window(cells));
        // Cell 0's gap varint is two bytes (index 224), every later one
        // byte, and the last cell's escaped value one more.
        let gap_at = payload.len() - (cells - cell) - 1;
        // Gap 0 with the value 1 folded in.
        assert_eq!(payload[gap_at], 1, "cell {cell} follows its neighbour");
        // A gap of one row from a cell in the last row.
        payload[gap_at] = (NODES as u8) << 1 | 1;
        payload
    };
    let cut_short = |cells: usize| {
        let mut payload = encode_window(&last_rows_window(cells));
        *payload.last_mut().expect("a payload has bytes") |= 0x80;
        payload
    };
    let out_of_bounds = CodecError::Corrupt("cell index out of bounds");
    vec![
        CorruptCells {
            what: "a gap past the last row inside a block",
            payload: past_last_row(32, 17),
            error: out_of_bounds.clone(),
        },
        CorruptCells {
            what: "a gap past the last row in the tail",
            payload: past_last_row(31, 29),
            error: out_of_bounds,
        },
        CorruptCells {
            what: "a value cut short inside a block",
            payload: cut_short(32),
            error: CodecError::Truncated("value"),
        },
        CorruptCells {
            what: "a value cut short in the tail",
            payload: cut_short(31),
            error: CodecError::Truncated("value"),
        },
    ]
}
