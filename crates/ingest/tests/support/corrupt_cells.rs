//! Window payloads whose header is sound and whose cells are not, for the
//! tests that carry them under a valid checksum (a wire frame, a re-CRC'd
//! archive entry) to a reader.
//!
//! Each window is `NODES × NODES`, as every window of a stream is, with
//! one-byte cells in its last two rows. A 20-cell window's cells are all
//! loaded by the block kernel where the CPU has one (a four-cell run, then
//! two 16-byte blocks); a 21-cell window leaves its last cell to the
//! scalar tail. Each corruption is placed once inside a block and once in
//! the tail.

use std::time::Duration;
use tw_ingest::codec::{encode_window, CodecError};
use tw_ingest::{IngestStats, WindowReport};
use tw_matrix::CsrMatrix;

/// The node count of every corrupt window.
pub const NODES: usize = 16;

/// A `NODES × NODES` window of `cells` one-value cells, row 14 full and the
/// rest at the start of row 15.
pub fn last_rows_window(cells: usize) -> WindowReport {
    let triples: Vec<_> = (0..cells)
        .map(|i| (NODES - 2 + i / NODES, i % NODES, 1))
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
        // Cell 0's gap is two bytes (index 224), every later cell's gap
        // and every value one byte.
        let gap_at = payload.len() - 2 * (cells - cell);
        assert_eq!(payload[gap_at], 0, "cell {cell} follows its neighbour");
        // A gap of one row from a cell in the last row.
        payload[gap_at] = NODES as u8;
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
            payload: past_last_row(20, 17),
            error: out_of_bounds.clone(),
        },
        CorruptCells {
            what: "a gap past the last row in the tail",
            payload: past_last_row(21, 20),
            error: out_of_bounds,
        },
        CorruptCells {
            what: "a value cut short inside a block",
            payload: cut_short(20),
            error: CodecError::Truncated("value"),
        },
        CorruptCells {
            what: "a value cut short in the tail",
            payload: cut_short(21),
            error: CodecError::Truncated("value"),
        },
    ]
}
