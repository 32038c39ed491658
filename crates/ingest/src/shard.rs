//! Window accumulation: one window's events, merged into a CSR matrix at
//! window rotation.
//!
//! [`WindowAccumulator`] is serial. Routing an event is one push of its
//! `(row, col, packets)` triple; the merge is a two-pass LSD counting sort —
//! a stable scatter by column, then a stable scatter by row — which leaves
//! every row's entries contiguous and in column order, so duplicate cells
//! sum in one run and the CSR arrays fill in a single sweep. That is
//! `O(entries + node_count)` with no comparison sort, and the CSR row
//! pointer is `O(node_count)` anyway. (The module keeps its name: one
//! accumulator is the ingest shard a pipeline owns.)
//!
//! **Serial-equivalence guarantee.** For any event stream,
//! [`WindowAccumulator::merge`] equals [`window_matrix`] (one COO matrix
//! built serially, then coalesced) cell-for-cell: both sum every cell's
//! packets, order cells by `(row, col)` and drop zero totals. The property
//! tests in `tests/proptest_shard.rs` check this over arbitrary streams.
//!
//! **Rotation-scratch recycling.** The counting arrays, the scatter buffer
//! and (with consumer cooperation via [`WindowAccumulator::recycle`]) the
//! CSR arrays themselves survive from window to window, so a steady
//! pipeline reaches zero steady-state allocation per window once warmed up
//! — see [`WindowAccumulator::scratch_reuse_hits`].

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

/// Retired CSR arrays kept for reuse; matches `DecodeScratch`'s pool cap.
const MAX_POOLED_CSR: usize = 4;

/// One event as the accumulator keeps it: `(row, col, packets)`.
type Entry = (u32, u32, u32);

/// Window-rotation scratch (the merge-side sibling of the codec's
/// `DecodeScratch`): counting-sort offsets, the scatter buffer, and a small
/// pool of retired CSR arrays awaiting reuse.
#[derive(Debug, Default)]
struct MergeScratch {
    /// Counting-sort offsets, one slot per node; the column pass and the
    /// row pass take turns with it.
    counts: Vec<usize>,
    /// Entries after the column pass.
    by_col: Vec<Entry>,
    csr_pool: Vec<(Vec<usize>, Vec<usize>, Vec<u64>)>,
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

    /// Merges that ran entirely on recycled scratch capacity (every merge
    /// after the first, unless [`WindowAccumulator::release_scratch`]
    /// intervened). Cumulative over the accumulator's lifetime.
    pub fn scratch_reuse_hits(&self) -> u64 {
        self.scratch_reuse_hits
    }

    /// Add a batch of events to the window. Every source and destination
    /// must be below [`WindowAccumulator::node_count`].
    pub fn ingest(&mut self, events: &[PacketEvent]) {
        for e in events {
            debug_assert!(
                (e.source as usize) < self.node_count && (e.destination as usize) < self.node_count
            );
            self.entries.push((e.source, e.destination, e.packets));
            self.packets += u64::from(e.packets);
        }
    }

    /// Merge the window into one CSR matrix and reset the accumulator for
    /// the next window.
    ///
    /// Everything the merge needs — counting arrays, scatter buffer, CSR
    /// arrays — comes from the scratch once the first window has warmed it,
    /// so steady-state rotation allocates nothing.
    pub fn merge(&mut self) -> CsrMatrix<u64> {
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
            csr_pool,
            ..
        } = &mut self.scratch;
        by_col.clear();
        by_col.resize(self.entries.len(), (0, 0, 0));
        scatter(&self.entries, by_col, counts, node_count, |&(_, col, _)| {
            col
        });
        // Stable by row over column order: each row's run is contiguous and
        // sorted by column, and `counts[row]` is left at the run's end.
        scatter(
            by_col,
            &mut self.entries,
            counts,
            node_count,
            |&(row, _, _)| row,
        );
        let (mut row_ptr, mut col_idx, mut values) = csr_pool.pop().unwrap_or_default();
        row_ptr.clear();
        col_idx.clear();
        values.clear();
        row_ptr.push(0);
        let mut start = 0;
        for &end in counts.iter() {
            sum_run_into(&self.entries[start..end], &mut col_idx, &mut values);
            row_ptr.push(col_idx.len());
            start = end;
        }
        self.entries.clear();
        CsrMatrix::from_raw_parts(node_count, node_count, row_ptr, col_idx, values)
            // tw-analyze: allow(no-panic-in-lib, "row_ptr rises from 0 to nnz over node_count + 1 slots and every column is an event destination below node_count")
            .expect("counting-sort merge builds valid CSR arrays")
    }

    /// Merge the final window and release every retained buffer.
    ///
    /// [`WindowAccumulator::merge`] deliberately keeps scratch and pool
    /// capacity alive for the next window; at end-of-stream there is no
    /// next window, so `finish` consumes the accumulator and drops it all,
    /// returning the final matrix together with the closing
    /// [`WindowAccumulator::scratch_reuse_hits`] total.
    pub fn finish(mut self) -> (CsrMatrix<u64>, u64) {
        let matrix = self.merge();
        (matrix, self.scratch_reuse_hits)
    }

    /// Return a retired window matrix's CSR arrays to the merge pool so the
    /// next [`WindowAccumulator::merge`] builds into them instead of
    /// allocating. Pool is capped at [`MAX_POOLED_CSR`]; excess is dropped.
    pub fn recycle(&mut self, matrix: CsrMatrix<u64>) {
        if self.scratch.csr_pool.len() < MAX_POOLED_CSR {
            let (_, _, row_ptr, col_idx, values) = matrix.into_raw_parts();
            self.scratch.csr_pool.push((row_ptr, col_idx, values));
        }
    }

    /// Drop all recycled capacity: merge scratch, CSR pool and entry
    /// storage. The next merge re-allocates from scratch — this is the
    /// fresh-allocation reference mode the recycling proptest compares
    /// against (`recycle_scratch: false` in the pipeline).
    pub fn release_scratch(&mut self) {
        self.scratch = MergeScratch::default();
        self.entries = Vec::new();
    }
}

/// Stable counting-sort scatter of `from` into `to` (same length) by
/// `key`, which must be below `node_count`. Leaves `counts[k]` at the end of
/// key `k`'s run in `to`.
fn scatter(
    from: &[Entry],
    to: &mut [Entry],
    counts: &mut Vec<usize>,
    node_count: usize,
    key: impl Fn(&Entry) -> u32,
) {
    counts.clear();
    counts.resize(node_count, 0);
    for entry in from {
        counts[key(entry) as usize] += 1;
    }
    // Exclusive prefix sum: counts[k] becomes key k's start offset, and the
    // scatter below advances it to key k's end.
    let mut run = 0;
    for count in counts.iter_mut() {
        let n = *count;
        *count = run;
        run += n;
    }
    for &entry in from {
        let slot = &mut counts[key(&entry) as usize];
        to[*slot] = entry;
        *slot += 1;
    }
}

/// Sum one row's column-sorted run into CSR column/value arrays, dropping
/// zero totals the way [`CooMatrix::coalesce`] does (zero-packet flow
/// records exist in real telemetry).
fn sum_run_into(run: &[Entry], col_idx: &mut Vec<usize>, values: &mut Vec<u64>) {
    let mut push = |col: u32, total: u64| {
        if total != 0 {
            col_idx.push(col as usize);
            values.push(total);
        }
    };
    let mut iter = run.iter();
    let Some(&(_, mut col, first)) = iter.next() else {
        return;
    };
    let mut total = u64::from(first);
    for &(_, c, packets) in iter {
        if c == col {
            total += u64::from(packets);
        } else {
            push(col, total);
            col = c;
            total = u64::from(packets);
        }
    }
    push(col, total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_matrix::ops::reduce_all;
    use tw_matrix::stream::synthetic_events;
    use tw_matrix::PlusTimes;

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
                merged,
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
            assert_eq!(merged, reference, "window={window}");
            acc.recycle(merged);
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
        assert_eq!(w0, window_matrix(64, first_half));
        assert_eq!(w1, window_matrix(64, second_half));
        let total = reduce_all(&PlusTimes, &w0) + reduce_all(&PlusTimes, &w1);
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
            let m = acc.merge();
            assert_eq!(acc.scratch_reuse_hits(), window as u64);
            acc.recycle(m);
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
        assert_eq!(matrix, window_matrix(48, &events));
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
