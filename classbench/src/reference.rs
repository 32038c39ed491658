//! Reference windows and the digest that checks delivered windows against
//! them.
//!
//! References come from serial `window_matrix` over each window's events,
//! computed at set-up. A delivered window is checked by a 64-bit digest over
//! its shape, every CSR array and the `IngestStats` counts (everything but
//! the index, checked separately, and the wall-clock `elapsed`), so the
//! check costs one pass over the window and keeps no copy of it.

use crate::lesson::Lesson;
use tw_core::ingest::{window_matrix, WindowReport};
use tw_core::matrix::CsrMatrix;

/// One reference window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRef {
    /// [`digest_parts`] of the reference matrix and stats.
    pub digest: u64,
    /// Events in the window.
    pub events: u64,
    /// Stored cells in the window.
    pub nnz: usize,
    /// Largest event timestamp in the window (0 when empty).
    pub last_ts: u64,
}

/// The reference for every window of a lesson.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// One entry per lesson window, in window order.
    pub windows: Vec<WindowRef>,
    /// Events that arrived behind an earlier, newer event: the total a
    /// reorder stage must report as `reordered`.
    pub inversions: u64,
}

impl Reference {
    /// Serial reference windows for `lesson`.
    pub fn of(lesson: &Lesson) -> Reference {
        let mut buckets = vec![Vec::new(); lesson.windows];
        let mut inversions = 0u64;
        let mut max_ts = None;
        for event in lesson.events.iter() {
            match max_ts {
                Some(max) if event.timestamp_us < max => inversions += 1,
                _ => max_ts = Some(event.timestamp_us),
            }
            buckets[(event.timestamp_us / lesson.window_us) as usize].push(*event);
        }
        let windows = buckets
            .iter()
            .map(|events| {
                let matrix = window_matrix(lesson.node_count as usize, events);
                let packets = events.iter().map(|e| u64::from(e.packets)).sum();
                WindowRef {
                    digest: digest_parts(&matrix, events.len() as u64, packets, matrix.nnz(), 0),
                    events: events.len() as u64,
                    nnz: matrix.nnz(),
                    last_ts: events.iter().map(|e| e.timestamp_us).max().unwrap_or(0),
                }
            })
            .collect();
        Reference {
            windows,
            inversions,
        }
    }

    /// The reference for window `index` of a looped lesson.
    pub fn window(&self, index: u64) -> &WindowRef {
        &self.windows[(index % self.windows.len() as u64) as usize]
    }

    /// Whether `report` is window `index` of the looped lesson, cell for
    /// cell, with matching stats and no late drops.
    pub fn matches(&self, index: u64, report: &WindowReport) -> bool {
        report.stats.window_index == index && digest(report) == self.window(index).digest
    }

    /// Total stored cells over one pass of the lesson.
    pub fn nnz(&self) -> u64 {
        self.windows.iter().map(|w| w.nnz as u64).sum()
    }

    /// Total events over one pass of the lesson.
    pub fn events(&self) -> u64 {
        self.windows.iter().map(|w| w.events).sum()
    }
}

/// [`digest_parts`] of a delivered window.
pub fn digest(report: &WindowReport) -> u64 {
    let s = &report.stats;
    digest_parts(&report.matrix, s.events, s.packets, s.nnz, s.dropped_late)
}

/// A 64-bit digest of a window's cells and counts.
pub fn digest_parts(
    matrix: &CsrMatrix<u64>,
    events: u64,
    packets: u64,
    nnz: usize,
    dropped_late: u64,
) -> u64 {
    let mut h = Digest::default();
    let (rows, cols) = matrix.shape();
    for word in [
        rows as u64,
        cols as u64,
        events,
        packets,
        nnz as u64,
        dropped_late,
    ] {
        h.add(word);
    }
    for &p in matrix.row_ptr() {
        h.add(p as u64);
    }
    for (&c, &v) in matrix.col_indices().iter().zip(matrix.values()) {
        h.add(c as u64);
        h.add(v);
    }
    h.0
}

/// An order-sensitive multiply-xorshift word hash.
#[derive(Debug)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x243F_6A88_85A3_08D3)
    }
}

impl Digest {
    #[inline]
    fn add(&mut self, word: u64) {
        let x = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}
