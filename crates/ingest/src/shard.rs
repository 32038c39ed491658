//! Window accumulation: one window's events, merged into a CSR matrix at
//! window rotation.
//!
//! [`WindowAccumulator`] is serial. Routing an event is one push of its
//! `(row, col, packets)` triple. The merge is a two-pass LSD counting sort
//! and one summing pass:
//!
//! 1. One read pass over the entries fills the column and the row
//!    histograms together.
//! 2. A stable scatter by column, then a stable scatter by row, leaves the
//!    entries sorted by `(row, col)`, so equal cells are adjacent.
//! 3. One pass over the sorted entries writes the CSR columns and values
//!    at a cursor that advances only where the `(row, col)` pair changes,
//!    summing duplicates in `u64` without a data-dependent branch. Each new
//!    cell is counted into its row's (now free) histogram slot, and the row
//!    pointer is the prefix sum of those counts.
//!
//! That is `O(entries + node_count)` with no comparison sort and no loop
//! per row. (The module keeps its name: one accumulator is the ingest
//! shard a pipeline owns.)
//!
//! **Serial-equivalence guarantee.** For any event stream,
//! [`WindowAccumulator::merge`] equals [`window_matrix`] (one COO matrix
//! built serially, then coalesced) cell-for-cell: both sum every cell's
//! packets, order cells by `(row, col)` and drop zero totals. The property
//! tests in `tests/proptest_shard.rs` check this over arbitrary streams.
//!
//! **Rotation-scratch reuse.** The counting arrays and the scatter buffer
//! survive from window to window (see
//! [`WindowAccumulator::scratch_reuse_hits`]), and each window is built in
//! the storage of an earlier one that no report holds any more (see
//! [`WindowReport`](crate::WindowReport)), so a steady pipeline whose
//! consumer drops each report allocates nothing per window once warmed up.

use crate::window::KeptWindows;
use std::sync::Arc;
use tw_matrix::stream::PacketEvent;
use tw_matrix::{CooMatrix, CsrMatrix};

/// Serial reference: one COO matrix built from the whole stream.
///
/// This is the baseline the accumulator must match cell-for-cell.
pub fn window_matrix(node_count: usize, events: &[PacketEvent]) -> CsrMatrix<u64> {
    let mut coo = CooMatrix::with_capacity(node_count, node_count, events.len());
    for e in events {
        coo.push(
            e.source as usize,
            e.destination as usize,
            u64::from(e.packets),
        );
    }
    coo.to_csr()
}

/// One event as the accumulator keeps it: `(row, col, packets)`.
type Entry = (u32, u32, u32);

/// Window-rotation scratch: counting-sort offsets, the scatter buffer and
/// the windows built last, whose storage the next merge reuses.
#[derive(Debug, Default)]
struct MergeScratch {
    /// Counting-sort offsets: the column histogram in the first
    /// `node_count` slots, the row histogram in the rest, whose slots end
    /// up holding each row's cell count.
    counts: Vec<usize>,
    /// Entries after the column pass.
    by_col: Vec<Entry>,
    windows: KeptWindows,
    /// True once one merge has populated the scratch, i.e. the next merge
    /// runs entirely on recycled capacity.
    warm: bool,
}

/// Accumulates one window's events, merged into a CSR matrix at window
/// rotation.
#[derive(Debug)]
pub struct WindowAccumulator {
    node_count: usize,
    /// The window's events in arrival order.
    entries: Vec<Entry>,
    packets: u64,
    scratch: MergeScratch,
    scratch_reuse_hits: u64,
}

impl WindowAccumulator {
    /// An accumulator over `node_count` addresses. Allocates nothing until
    /// the first event arrives.
    pub fn new(node_count: usize) -> Self {
        WindowAccumulator {
            node_count,
            entries: Vec::new(),
            packets: 0,
            scratch: MergeScratch::default(),
            scratch_reuse_hits: 0,
        }
    }

    /// Addresses per axis.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Events accumulated since the last [`WindowAccumulator::merge`].
    pub fn events(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Packets accumulated since the last [`WindowAccumulator::merge`].
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges that ran on the previous merge's counting arrays and scatter
    /// buffer (every merge after the first, unless
    /// [`WindowAccumulator::release_scratch`] intervened), in windows.
    /// Cumulative over the accumulator's lifetime.
    pub fn scratch_reuse_hits(&self) -> u64 {
        self.scratch_reuse_hits
    }

    /// Add a batch of events to the window. Every source and destination
    /// must be below [`WindowAccumulator::node_count`].
    pub fn ingest(&mut self, events: &[PacketEvent]) {
        for e in events {
            self.push(e);
        }
    }

    /// Add one event to the window (see [`WindowAccumulator::ingest`]).
    #[inline]
    pub fn push(&mut self, e: &PacketEvent) {
        debug_assert!(
            (e.source as usize) < self.node_count && (e.destination as usize) < self.node_count
        );
        self.entries.push((e.source, e.destination, e.packets));
        self.packets += u64::from(e.packets);
    }

    /// Merge the window into one CSR matrix and reset the accumulator for
    /// the next window.
    ///
    /// One histogram pass, a column scatter and a row scatter sort the
    /// entries by `(row, col)`; one summing pass then writes the CSR
    /// arrays, which are sized once from the entry count and cut to the
    /// cell count, never grown per cell. Everything the merge needs —
    /// counting arrays, scatter buffer, CSR arrays — comes from the scratch
    /// once the first window has warmed it and the window before last is
    /// no longer held, so steady-state rotation allocates nothing.
    pub fn merge(&mut self) -> Arc<CsrMatrix<u64>> {
        if self.scratch.warm {
            self.scratch_reuse_hits += 1;
        } else {
            self.scratch.warm = true;
        }
        self.packets = 0;
        let node_count = self.node_count;
        let MergeScratch {
            counts,
            by_col,
            windows,
            ..
        } = &mut self.scratch;
        // One read pass fills both histograms: columns in the first half of
        // `counts`, rows in the second.
        counts.clear();
        counts.resize(2 * node_count, 0);
        let (by_col_counts, by_row_counts) = counts.split_at_mut(node_count);
        for &(row, col, _) in &self.entries {
            by_col_counts[col as usize] += 1;
            by_row_counts[row as usize] += 1;
        }
        // The scatter overwrites every slot, so only growth is zero-filled.
        by_col.resize(self.entries.len(), (0, 0, 0));
        scatter(&self.entries, by_col, by_col_counts, |&(_, col, _)| col);
        // Stable by row over column order: each row's run is contiguous and
        // sorted by column, so equal cells are adjacent.
        scatter(by_col, &mut self.entries, by_row_counts, |&(row, _, _)| row);
        let entries = &mut self.entries;
        let built = windows.build(
            (node_count, node_count),
            false,
            |_, row_ptr, col_idx, values| {
                sum_cells(entries, by_row_counts, col_idx, values);
                row_ptr.clear();
                row_ptr.reserve(node_count + 1);
                row_ptr.push(0);
                let mut nnz = 0;
                row_ptr.extend(by_row_counts.iter().map(|&cells| {
                    nnz += cells;
                    nnz
                }));
                Ok::<_, tw_matrix::MatrixError>(())
            },
        );
        entries.clear();
        built
            // tw-analyze: allow(no-panic-in-lib, "row_ptr rises from 0 to nnz over node_count + 1 slots and every column is an event destination below node_count")
            .expect("counting-sort merge builds valid CSR arrays")
            .0
    }

    /// Merge the final window and release every retained buffer.
    ///
    /// [`WindowAccumulator::merge`] deliberately keeps scratch capacity
    /// and the last windows alive for the next window; at end-of-stream
    /// there is no next window, so `finish` consumes the accumulator and
    /// drops it all, returning the final matrix together with the closing
    /// [`WindowAccumulator::scratch_reuse_hits`] total.
    pub fn finish(mut self) -> (Arc<CsrMatrix<u64>>, u64) {
        let matrix = self.merge();
        (matrix, self.scratch_reuse_hits)
    }

    /// Drop all recycled capacity: merge scratch, kept windows and entry
    /// storage. The next merge re-allocates from scratch — this is the
    /// fresh-allocation reference mode the recycling proptest compares
    /// against (`recycle_scratch: false` in the pipeline).
    pub fn release_scratch(&mut self) {
        self.scratch = MergeScratch::default();
        self.entries = Vec::new();
    }
}

/// Stable counting-sort scatter of `from` into `to` (same length) by
/// `key`. `offsets` holds each key's entry count on the way in and the end
/// of that key's run in `to` on the way out.
fn scatter(from: &[Entry], to: &mut [Entry], offsets: &mut [usize], key: impl Fn(&Entry) -> u32) {
    // Exclusive prefix sum: offsets[k] becomes key k's start offset, and
    // the scatter below advances it to key k's end.
    let mut run = 0;
    for offset in offsets.iter_mut() {
        let count = *offset;
        *offset = run;
        run += count;
    }
    for &entry in from {
        let slot = &mut offsets[key(&entry) as usize];
        to[*slot] = entry;
        *slot += 1;
    }
}

/// Sum `(row, col)`-sorted entries into CSR column and value arrays in one
/// pass, and leave each row's cell count in `cells` (one slot per row).
///
/// The arrays are sized from the entry count, an upper bound on the cells.
/// A cursor advances only where the `(row, col)` pair changes, and the
/// running total restarts there through a mask, so nothing in the loop
/// branches on the data. Totals sum in `u64`. Zero totals are dropped the
/// way [`CooMatrix::coalesce`] drops them (zero-packet flow records exist
/// in real telemetry), by a second pass that runs only when some event
/// carried zero packets.
fn sum_cells(
    entries: &[Entry],
    cells: &mut [usize],
    col_idx: &mut Vec<usize>,
    values: &mut Vec<u64>,
) {
    cells.fill(0);
    let Some(&(first_row, first_col, _)) = entries.first() else {
        col_idx.clear();
        values.clear();
        return;
    };
    size_for_overwrite(col_idx, entries.len());
    size_for_overwrite(values, entries.len());
    // The first entry opens cell 0; no sentinel key stands in for it.
    cells[first_row as usize] = 1;
    let mut key = cell_key(first_row, first_col);
    let mut cursor = 0;
    let mut total = 0u64;
    let mut zero_packets = false;
    for &(row, col, packets) in entries {
        let next = cell_key(row, col);
        let new_cell = usize::from(next != key);
        key = next;
        cursor += new_cell;
        cells[row as usize] += new_cell;
        // All ones within a cell, zero at a new one.
        let keep = (new_cell as u64).wrapping_sub(1);
        total = (total & keep) + u64::from(packets);
        col_idx[cursor] = col as usize;
        values[cursor] = total;
        zero_packets |= packets == 0;
    }
    col_idx.truncate(cursor + 1);
    values.truncate(cursor + 1);
    if zero_packets {
        drop_zero_cells(cells, col_idx, values);
    }
}

/// Give `array` exactly `len` slots for a pass that writes every slot it
/// keeps, so recycled contents need no clearing. An array too small is
/// replaced by a zeroed allocation rather than grown: the allocator can map
/// fresh zero pages for a large one without writing them, so a cold merge
/// touches only the slots its cells reach. The new allocation is at least
/// twice the old one, as a growing `Vec`'s is: sized to `len` alone, every
/// window a little larger than any before it would allocate again.
fn size_for_overwrite<T: Copy + Default>(array: &mut Vec<T>, len: usize) {
    if array.capacity() < len {
        // tw-analyze: allow(hot-path-no-alloc, "cold start or a window larger than any before it; steady windows reuse the recycled array")
        *array = vec![T::default(); len.max(2 * array.capacity())];
    }
    array.resize(len, T::default());
}

/// A `(row, col)` pair as one comparable word.
#[inline]
fn cell_key(row: u32, col: u32) -> u64 {
    u64::from(row) << 32 | u64::from(col)
}

/// Remove the zero totals from row-ordered CSR column and value arrays,
/// keeping each row's cell count in `cells` current.
fn drop_zero_cells(cells: &mut [usize], col_idx: &mut Vec<usize>, values: &mut Vec<u64>) {
    let mut read = 0;
    let mut kept = 0;
    for count in cells.iter_mut() {
        let row_start = kept;
        for i in read..read + *count {
            if values[i] != 0 {
                col_idx[kept] = col_idx[i];
                values[kept] = values[i];
                kept += 1;
            }
        }
        read += *count;
        *count = kept - row_start;
    }
    col_idx.truncate(kept);
    values.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_matrix::stream::synthetic_events;

    #[test]
    fn sharded_merge_matches_serial_reference() {
        // Dense, wide (8192 nodes, mostly distinct cells) and tiny geometries.
        for (node_count, events) in [(128, 40_000), (8192, 20_000), (2, 50)] {
            let events = synthetic_events(node_count as u32, events, 21);
            let mut acc = WindowAccumulator::new(node_count);
            acc.ingest(&events);
            assert_eq!(acc.events(), events.len() as u64);
            let merged = acc.merge();
            assert_eq!(
                *merged,
                window_matrix(node_count, &events),
                "node_count={node_count}"
            );
            assert!(acc.is_empty(), "merge resets the accumulator");
        }
    }

    #[test]
    fn bucket_coalesce_matches_sort_path_over_windows() {
        // Dense, duplicate-heavy traffic over a tiny node set: the
        // counting-sort (bucket) merge, warm from the second window on, must
        // stay cell-for-cell identical to the COO sort-and-sum reference.
        let events = synthetic_events(16, 25_000, 3);
        let reference = window_matrix(16, &events);
        let mut acc = WindowAccumulator::new(16);
        for window in 0..3 {
            acc.ingest(&events);
            let merged = acc.merge();
            assert_eq!(*merged, reference, "window={window}");
        }
    }

    #[test]
    fn merge_resets_between_windows() {
        let events = synthetic_events(64, 5_000, 2);
        let (first_half, second_half) = events.split_at(2_500);
        let mut acc = WindowAccumulator::new(64);
        acc.ingest(first_half);
        let w0 = acc.merge();
        acc.ingest(second_half);
        let w1 = acc.merge();
        assert_eq!(*w0, window_matrix(64, first_half));
        assert_eq!(*w1, window_matrix(64, second_half));
        let total = w0.values().iter().sum::<u64>() + w1.values().iter().sum::<u64>();
        assert_eq!(
            total,
            events.iter().map(|e| u64::from(e.packets)).sum::<u64>()
        );
    }

    #[test]
    fn scratch_reuse_hits_count_warm_merges() {
        let events = synthetic_events(32, 4_000, 7);
        let mut acc = WindowAccumulator::new(32);
        assert_eq!(acc.scratch_reuse_hits(), 0);
        for window in 0..4 {
            acc.ingest(&events);
            let _ = acc.merge();
            assert_eq!(acc.scratch_reuse_hits(), window as u64);
        }
        // Releasing the scratch makes the next merge cold again.
        acc.release_scratch();
        acc.ingest(&events);
        let _ = acc.merge();
        assert_eq!(acc.scratch_reuse_hits(), 3);
        acc.ingest(&events);
        let _ = acc.merge();
        assert_eq!(acc.scratch_reuse_hits(), 4);
    }

    #[test]
    fn finish_consumes_and_matches_merge() {
        let events = synthetic_events(48, 10_000, 11);
        let mut acc = WindowAccumulator::new(48);
        acc.ingest(&events);
        let (matrix, scratch_reuse_hits) = acc.finish();
        assert_eq!(*matrix, window_matrix(48, &events));
        assert_eq!(scratch_reuse_hits, 0, "single cold merge");
    }

    #[test]
    fn packet_and_event_counters_track_ingest() {
        let mut acc = WindowAccumulator::new(8);
        acc.ingest(&[
            PacketEvent {
                source: 1,
                destination: 2,
                packets: 5,
                timestamp_us: 0,
            },
            PacketEvent {
                source: 7,
                destination: 0,
                packets: 2,
                timestamp_us: 1,
            },
        ]);
        assert_eq!(acc.events(), 2);
        assert_eq!(acc.packets(), 7);
        assert_eq!(acc.node_count(), 8);
        let m = acc.merge();
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.get(7, 0), 2);
    }

    #[test]
    fn empty_merge_is_an_empty_matrix() {
        let mut acc = WindowAccumulator::new(16);
        let m = acc.merge();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (16, 16));
        assert_eq!(WindowAccumulator::new(0).merge().shape(), (0, 0));
    }
}
