//! Watermarked out-of-order routing with a bounded horizon.
//!
//! Real multi-source feeds have drifting clocks: events arrive in collector
//! order but carry source timestamps, so a merged stream is only *almost*
//! sorted. A strict pipeline drops every event that reaches it after its
//! window has closed — correct for perfectly sorted streams, lossy for
//! realistic ones.
//!
//! [`WatermarkRouter`] is the fix. It tracks
//!
//! ```text
//! watermark = max_timestamp_seen − horizon_us    (saturating at 0)
//! ```
//!
//! and classifies each pulled event once, in arrival order:
//!
//! * **late** if it is older than the watermark on arrival (its disorder
//!   relative to the newest event seen exceeds the horizon) — counted,
//!   never routed;
//! * otherwise **reordered** if it is older than the newest event seen —
//!   counted, and routed like any other accepted event.
//!
//! An accepted event is copied exactly once: straight into the current
//! window's [`WindowAccumulator`], or — when it belongs to a later window —
//! into one `future` list whose minimum timestamp is tracked. No event is
//! ever routed behind the current window: that window was opened only once
//! the watermark had passed its start, and an accepted event is never
//! older than the watermark.
//!
//! **Emission.** The current window is complete once the watermark passes
//! the oldest future event ([`WatermarkRouter::window_closed`]): every event
//! of the current window still to arrive would be older than that future
//! event, hence older than the watermark, hence late. After rotation
//! [`WatermarkRouter::partition_due`] and [`WatermarkRouter::drain_due`]
//! move the new current window's events out of `future` into the
//! accumulator. At end of stream the watermark is treated as +∞. Per-window
//! accumulation is commutative, so arrival order inside a window cannot
//! change a matrix or a statistic — which is why no reordering buffer,
//! sort or per-window bucket is needed. The key guarantee (property tested
//! in `tests/proptest_reorder.rs`): for any stream whose disorder is
//! bounded by the horizon nothing is late, and every window is
//! cell-for-cell identical to ingest over pre-sorted input.
//!
//! `future` is bounded by the horizon: it holds only events newer than the
//! current window's end that the watermark has not yet passed (plus the
//! last batch), so memory scales with `horizon_us × event rate`, not
//! stream length.

use crate::shard::WindowAccumulator;
use tw_matrix::stream::PacketEvent;

/// The reorder-mode router: watermark classification plus the future list.
#[derive(Debug)]
pub(crate) struct WatermarkRouter {
    horizon_us: u64,
    /// Highest timestamp accepted so far (0 before the first event, which
    /// classifies identically: nothing is older than 0).
    max_seen: u64,
    /// Accepted events of windows after the current one, in no particular
    /// order.
    future: Vec<PacketEvent>,
    /// Smallest timestamp in `future`; `u64::MAX` while it is empty.
    future_min: u64,
    late: u64,
    reordered: u64,
}

impl WatermarkRouter {
    /// A router that tolerates up to `horizon_us` of timestamp disorder.
    pub(crate) fn new(horizon_us: u64) -> Self {
        WatermarkRouter {
            horizon_us,
            max_seen: 0,
            future: Vec::new(),
            future_min: u64::MAX,
            late: 0,
            reordered: 0,
        }
    }

    /// The reordering horizon in simulated microseconds.
    pub(crate) fn horizon_us(&self) -> u64 {
        self.horizon_us
    }

    /// The current watermark: `max timestamp seen − horizon`, saturating.
    pub(crate) fn watermark_us(&self) -> u64 {
        self.max_seen.saturating_sub(self.horizon_us)
    }

    /// Accepted events held for later windows.
    pub(crate) fn future_len(&self) -> usize {
        self.future.len()
    }

    /// Take and reset the late-drop counter.
    pub(crate) fn take_late(&mut self) -> u64 {
        std::mem::take(&mut self.late)
    }

    /// Take and reset the reordered counter.
    pub(crate) fn take_reordered(&mut self) -> u64 {
        std::mem::take(&mut self.reordered)
    }

    /// Classify every event of `events` and route the accepted ones: into
    /// `accumulator` when they fall before `window_end` (the current
    /// window's exclusive end), into the future list otherwise.
    pub(crate) fn route(
        &mut self,
        events: &[PacketEvent],
        window_end: u64,
        accumulator: &mut WindowAccumulator,
    ) {
        let horizon = self.horizon_us;
        let mut max_seen = self.max_seen;
        let mut future_min = self.future_min;
        for event in events {
            let ts = event.timestamp_us;
            if ts < max_seen {
                if ts < max_seen.saturating_sub(horizon) {
                    self.late += 1;
                    continue;
                }
                self.reordered += 1;
            } else {
                max_seen = ts;
            }
            if ts < window_end {
                accumulator.push(event);
            } else {
                future_min = future_min.min(ts);
                self.future.push(*event);
            }
        }
        self.max_seen = max_seen;
        self.future_min = future_min;
    }

    /// Whether the current window is complete: the watermark has passed an
    /// event of a later window. `end_of_stream` treats the watermark as +∞.
    pub(crate) fn window_closed(&self, end_of_stream: bool) -> bool {
        !self.future.is_empty() && (end_of_stream || self.future_min <= self.watermark_us())
    }

    /// Whether the future list holds events of the window ending at
    /// `window_end` (true only right after a rotation).
    pub(crate) fn has_due(&self, window_end: u64) -> bool {
        !self.future.is_empty() && self.future_min < window_end
    }

    /// Partition the future list for the window ending at `window_end`:
    /// its events move to the front, and the count of them is returned.
    /// Hand that prefix to [`WatermarkRouter::drain_due`].
    pub(crate) fn partition_due(&mut self, window_end: u64) -> usize {
        let mut due = 0;
        let mut rest_min = u64::MAX;
        for i in 0..self.future.len() {
            let ts = self.future[i].timestamp_us;
            if ts < window_end {
                self.future.swap(i, due);
                due += 1;
            } else {
                rest_min = rest_min.min(ts);
            }
        }
        self.future_min = rest_min;
        due
    }

    /// Route the first `due` future events (see
    /// [`WatermarkRouter::partition_due`]) into `accumulator`.
    pub(crate) fn drain_due(&mut self, due: usize, accumulator: &mut WindowAccumulator) {
        accumulator.ingest(&self.future[..due]);
        self.future.drain(..due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> PacketEvent {
        PacketEvent {
            source: (ts % 8) as u32,
            destination: 1,
            packets: 1,
            timestamp_us: ts,
        }
    }

    fn events(timestamps: &[u64]) -> Vec<PacketEvent> {
        timestamps.iter().map(|&ts| ev(ts)).collect()
    }

    /// One emitted window.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Emitted {
        index: u64,
        events: u64,
        late: u64,
        reordered: u64,
        /// Batches routed when the window was emitted.
        after_batches: usize,
    }

    /// Drive a router over `batches` the way the pipeline does: route each
    /// batch into the current window, then emit every window the watermark
    /// closes; at end of stream emit the rest. Returns the emitted windows
    /// and the largest future list seen.
    fn drive(
        horizon_us: u64,
        window_us: u64,
        batches: &[Vec<PacketEvent>],
    ) -> (Vec<Emitted>, usize) {
        let mut router = WatermarkRouter::new(horizon_us);
        let mut acc = WindowAccumulator::new(8);
        let mut current = 0u64;
        let mut emitted = Vec::new();
        let mut peak = 0;
        let mut emit = |router: &mut WatermarkRouter,
                        acc: &mut WindowAccumulator,
                        current: &mut u64,
                        after_batches: usize| {
            emitted.push(Emitted {
                index: *current,
                events: acc.events(),
                late: router.take_late(),
                reordered: router.take_reordered(),
                after_batches,
            });
            acc.merge();
            *current += 1;
            let end = (*current + 1) * window_us;
            if router.has_due(end) {
                let due = router.partition_due(end);
                router.drain_due(due, acc);
            }
        };
        for (routed, batch) in batches.iter().enumerate() {
            router.route(batch, (current + 1) * window_us, &mut acc);
            peak = peak.max(router.future_len());
            while router.window_closed(false) {
                emit(&mut router, &mut acc, &mut current, routed + 1);
            }
        }
        while router.window_closed(true) {
            emit(&mut router, &mut acc, &mut current, batches.len());
        }
        if !acc.is_empty() {
            emit(&mut router, &mut acc, &mut current, batches.len());
        }
        (emitted, peak)
    }

    fn one_per_batch(timestamps: &[u64]) -> Vec<Vec<PacketEvent>> {
        timestamps.iter().map(|&ts| vec![ev(ts)]).collect()
    }

    fn counts(windows: &[Emitted]) -> Vec<(u64, u64)> {
        windows.iter().map(|w| (w.index, w.events)).collect()
    }

    #[test]
    fn sorted_input_releases_lag_the_horizon() {
        let (windows, _) = drive(100, 100, &one_per_batch(&[0, 50, 120, 150, 250]));
        assert_eq!(counts(&windows), [(0, 2), (1, 2), (2, 1)]);
        // 120 opened window 1 after three batches, but window 0 is released
        // only once the watermark passes it: at 250 (watermark 150).
        assert_eq!(windows[0].after_batches, 5);
        assert!(windows.iter().all(|w| w.late == 0 && w.reordered == 0));
    }

    #[test]
    fn disorder_within_the_horizon_is_sorted_out() {
        let (windows, _) = drive(100, 100, &one_per_batch(&[100, 30, 80, 130, 90, 210]));
        assert_eq!(counts(&windows), [(0, 3), (1, 2), (2, 1)]);
        assert_eq!(windows.iter().map(|w| w.late).sum::<u64>(), 0);
        assert_eq!(
            windows[0].reordered, 3,
            "30, 80 and 90 arrived out of order"
        );
    }

    #[test]
    fn events_beyond_the_horizon_are_late_and_counted() {
        let mut router = WatermarkRouter::new(50);
        let mut acc = WindowAccumulator::new(8);
        // 149 < 200 - 50: one past the horizon; 150 == watermark: in time.
        router.route(&events(&[200, 149, 150]), 1_000, &mut acc);
        assert_eq!(acc.events(), 2);
        assert_eq!(router.take_late(), 1);
        assert_eq!(router.take_late(), 0);
        assert_eq!(router.take_reordered(), 1);
        assert_eq!(router.take_reordered(), 0);
    }

    #[test]
    fn released_stream_is_always_sorted() {
        // A nasty interleaving: windows are released in ascending order, and
        // each holds exactly the accepted events of its own time span.
        let stream = [10u64, 40, 35, 60, 55, 41, 90, 66, 100, 80, 120, 7];
        let (windows, _) = drive(25, 20, &one_per_batch(&stream));
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
        }
        // The watermark fold: an event is late when older than the newest
        // timestamp seen minus the horizon.
        let mut max_seen = 0u64;
        let accepted: Vec<u64> = stream
            .iter()
            .copied()
            .filter(|&ts| {
                max_seen = max_seen.max(ts);
                ts + 25 >= max_seen
            })
            .collect();
        let late: u64 = windows.iter().map(|w| w.late).sum();
        assert_eq!(late, 1, "only the trailing 7 is beyond the horizon");
        assert_eq!(late + accepted.len() as u64, stream.len() as u64);
        for w in &windows {
            let expected = accepted.iter().filter(|&&ts| ts / 20 == w.index).count();
            assert_eq!(w.events, expected as u64, "window {}", w.index);
        }
    }

    #[test]
    fn batched_pushes_release_the_same_stream() {
        // Routing in batches of four (the watermark checked per batch) must
        // window the stream exactly as routing one event at a time.
        let stream = events(&[10, 40, 35, 60, 55, 41, 90, 66, 100, 80, 120, 7, 130]);
        let single: Vec<Vec<PacketEvent>> = stream.chunks(1).map(<[_]>::to_vec).collect();
        let batched: Vec<Vec<PacketEvent>> = stream.chunks(4).map(<[_]>::to_vec).collect();
        let (a, _) = drive(30, 25, &single);
        let (b, _) = drive(30, 25, &batched);
        assert_eq!(counts(&a), counts(&b));
        let total = |w: &[Emitted], f: fn(&Emitted) -> u64| w.iter().map(f).sum::<u64>();
        assert_eq!(total(&a, |w| w.late), total(&b, |w| w.late));
        assert_eq!(total(&a, |w| w.reordered), total(&b, |w| w.reordered));
    }

    #[test]
    fn zero_horizon_is_strict() {
        let mut router = WatermarkRouter::new(0);
        let mut acc = WindowAccumulator::new(8);
        router.route(&events(&[10, 10, 9]), 100, &mut acc);
        assert_eq!(acc.events(), 2, "ties are in order");
        assert_eq!(router.take_late(), 1, "any regression is late");
        // The watermark is the newest timestamp: the first later-window
        // event closes the window at once.
        router.route(&events(&[150]), 100, &mut acc);
        assert!(router.window_closed(false));
    }

    #[test]
    fn buffer_occupancy_is_bounded_by_the_horizon() {
        // A sorted stream with one event per microsecond: the future list
        // never holds more than horizon + 1 events.
        let stream: Vec<u64> = (0..10_000).collect();
        let (windows, peak) = drive(32, 100, &one_per_batch(&stream));
        assert_eq!(windows.len(), 100);
        assert!(peak <= 33, "future list grew past the horizon: {peak}");
    }

    #[test]
    fn debug_and_watermark_before_first_push() {
        let mut router = WatermarkRouter::new(7);
        assert_eq!(router.watermark_us(), 0, "nothing is late before any event");
        assert_eq!(router.horizon_us(), 7);
        let dbg = format!("{router:?}");
        assert!(dbg.contains("horizon_us"), "{dbg}");
        router.route(&events(&[100]), 1_000, &mut WindowAccumulator::new(8));
        assert_eq!(router.watermark_us(), 93);
    }
}
