//! The pull-based ingest driver.
//!
//! A [`Pipeline`] pulls bounded batches from an [`EventSource`] (the bound is
//! the backpressure: the source can never run more than one batch ahead of
//! the consumer), routes each event into the [`WindowAccumulator`] of the
//! window it belongs to, and emits a [`WindowReport`] every time the tumbling
//! window rotates. With a non-zero [`PipelineConfig::reorder_horizon_us`], a
//! watermark router classifies each pulled event once and routes it straight
//! into its window (or holds it for a later one), so out-of-order streams
//! (bounded disorder) lose nothing; events older than the watermark —
//! beyond the horizon — are counted as late drops rather than corrupting a
//! closed matrix.
//!
//! **The strict hot path.** With horizon 0, draining events into the
//! accumulator runs in two phases per pass: a *scan* that classifies the
//! queue head against the current window with two timestamp compares per
//! event (no division), and a *route* that hands the whole current-window
//! batch to [`WindowAccumulator::ingest`]. Everything runs on the caller's
//! thread. Window rotation reuses merge scratch and (with consumer
//! cooperation via [`Pipeline::recycle_window`]) the CSR arrays themselves,
//! so a steady pipeline reaches zero steady-state allocation per window.

use crate::reorder::WatermarkRouter;
use crate::shard::WindowAccumulator;
use crate::source::EventSource;
use crate::window::{IngestStats, WindowClock, WindowReport};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tw_matrix::stream::PacketEvent;
use tw_matrix::CsrMatrix;
use tw_metrics::{Counter, Gauge, Histogram, MetricsRegistry, StageTimer};

/// Pre-resolved metric handles for the pipeline stages. Held as an
/// `Option` on the pipeline: `None` (the default) skips every clock read, so
/// an uninstrumented pipeline pays one branch per batch, not per event.
#[derive(Clone, Debug)]
struct PipelineMetrics {
    source_pull_ns: Histogram,
    route_scan_ns: Histogram,
    route_ns: Histogram,
    coalesce_ns: Histogram,
    reorder_release_ns: Histogram,
    events: Counter,
    windows: Counter,
    dropped_late: Counter,
    reordered: Counter,
    scratch_reuse_hits: Counter,
    reorder_depth: Gauge,
}

impl PipelineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        PipelineMetrics {
            source_pull_ns: registry.histogram("pipeline.source_pull_ns"),
            route_scan_ns: registry.histogram("pipeline.route_scan_ns"),
            route_ns: registry.histogram("pipeline.route_ns"),
            coalesce_ns: registry.histogram("pipeline.coalesce_ns"),
            reorder_release_ns: registry.histogram("pipeline.reorder_release_ns"),
            events: registry.counter("pipeline.events"),
            windows: registry.counter("pipeline.windows"),
            dropped_late: registry.counter("pipeline.dropped_late"),
            reordered: registry.counter("pipeline.reordered"),
            scratch_reuse_hits: registry.counter("pipeline.scratch_reuse_hits"),
            reorder_depth: registry.gauge("pipeline.reorder_depth"),
        }
    }
}

/// Tuning knobs for a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Tumbling-window duration in simulated microseconds.
    pub window_us: u64,
    /// Maximum events pulled from the source per batch (the backpressure bound).
    pub batch_size: usize,
    /// Reordering horizon in simulated microseconds: how much timestamp
    /// disorder the pipeline absorbs before an event counts as late.
    ///
    /// `0` (the default) is the strict pre-watermark behavior: input is
    /// assumed sorted and anything behind the current window is dropped.
    /// With a positive horizon, every event within the horizon of the
    /// newest timestamp seen is routed into its own window, and a window is
    /// emitted once `watermark = max_ts − horizon` passes an event of a
    /// later window; only events older than the watermark itself are
    /// dropped (and counted in [`IngestStats::dropped_late`]).
    pub reorder_horizon_us: u64,
    /// Keep merge scratch and pooled CSR arrays alive across windows (the
    /// default). `false` releases everything after each rotation — the
    /// fresh-allocation reference mode the recycling equivalence proptest
    /// compares against.
    pub recycle_scratch: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window_us: 100_000,
            batch_size: 8_192,
            reorder_horizon_us: 0,
            recycle_scratch: true,
        }
    }
}

/// Streaming driver: source → window accumulation → windowed matrices.
pub struct Pipeline {
    source: Box<dyn EventSource>,
    clock: WindowClock,
    accumulator: WindowAccumulator,
    batch_size: usize,
    recycle_scratch: bool,
    /// The watermark router; `None` runs the strict sorted-input fast path.
    reorder: Option<WatermarkRouter>,
    /// Strict mode: pulled events for later windows, not yet routed.
    pending: VecDeque<PacketEvent>,
    /// Scratch buffer reused across pulls.
    scratch: Vec<PacketEvent>,
    /// Current-window events staged by the scan phase, reused across passes.
    route_buf: Vec<PacketEvent>,
    dropped_late: u64,
    reordered: u64,
    /// Scratch reuse hits already exported to metrics (the accumulator's
    /// total is cumulative; rotation exports the per-window delta).
    reuse_seen: u64,
    /// Wall-clock time attributed to the window being filled.
    window_elapsed: Duration,
    source_exhausted: bool,
    finished: bool,
    /// Per-stage instrumentation; `None` disables every clock read.
    metrics: Option<PipelineMetrics>,
}

impl Pipeline {
    /// Build a pipeline over `source` with the given configuration.
    pub fn new(source: Box<dyn EventSource>, config: PipelineConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        let accumulator = WindowAccumulator::new(source.node_count() as usize);
        Pipeline {
            source,
            clock: WindowClock::new(config.window_us),
            accumulator,
            batch_size: config.batch_size,
            recycle_scratch: config.recycle_scratch,
            reorder: (config.reorder_horizon_us > 0)
                .then(|| WatermarkRouter::new(config.reorder_horizon_us)),
            pending: VecDeque::new(),
            scratch: Vec::new(),
            route_buf: Vec::new(),
            dropped_late: 0,
            reordered: 0,
            reuse_seen: 0,
            window_elapsed: Duration::ZERO,
            source_exhausted: false,
            finished: false,
            metrics: None,
        }
    }

    /// Attach per-stage instrumentation. Stage timings land in
    /// `pipeline.*_ns` histograms, flow totals in `pipeline.events` /
    /// `pipeline.windows` / `pipeline.dropped_late` / `pipeline.reordered`
    /// counters, merge recycling in `pipeline.scratch_reuse_hits`, and the
    /// events held for later windows in the `pipeline.reorder_depth` gauge
    /// — all on `registry`.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(PipelineMetrics::new(registry));
    }

    /// The address-space size.
    pub fn node_count(&self) -> usize {
        self.accumulator.node_count()
    }

    /// Tumbling-window duration in simulated microseconds.
    pub fn window_us(&self) -> u64 {
        self.clock.window_us()
    }

    /// The reordering horizon in simulated microseconds (`0` = strict mode).
    pub fn reorder_horizon_us(&self) -> u64 {
        self.reorder.as_ref().map_or(0, WatermarkRouter::horizon_us)
    }

    /// Hand a consumed window matrix back for CSR-array reuse: the next
    /// rotation builds into its storage instead of allocating. A no-op when
    /// [`PipelineConfig::recycle_scratch`] is off or the pool is full.
    pub fn recycle_window(&mut self, matrix: CsrMatrix<u64>) {
        if self.recycle_scratch {
            self.accumulator.recycle(matrix);
        }
    }

    /// Drive the pipeline until the current window closes; `None` once the
    /// source is exhausted and every window has been emitted.
    pub fn next_window(&mut self) -> Option<WindowReport> {
        if self.finished {
            return None;
        }
        let metrics = self.metrics.clone();
        let started = Instant::now();
        loop {
            let window_us = self.clock.window_us();
            let window_start = self.clock.current() * window_us;
            let window_end = window_start + window_us;
            let close_window = match self.reorder.as_mut() {
                Some(router) => {
                    if router.has_due(window_end) {
                        // A rotation opened a window whose events already
                        // wait in the future list: move them in.
                        let scan = StageTimer::start(metrics.as_ref().map(|m| &m.route_scan_ns));
                        let due = router.partition_due(window_end);
                        scan.finish();
                        let route = StageTimer::start(metrics.as_ref().map(|m| &m.route_ns));
                        router.drain_due(due, &mut self.accumulator);
                        route.finish();
                        if let Some(m) = &metrics {
                            m.reorder_depth.set(router.future_len() as i64);
                        }
                    }
                    router.window_closed(self.source_exhausted)
                }
                None if !self.pending.is_empty() => {
                    // In steady state the deque never wraps (bulk front
                    // drains, bulk back fills), so this is a no-op borrow,
                    // not a copy.
                    let pending = self.pending.make_contiguous();
                    let (consumed, close) = scan_and_route(
                        pending,
                        window_start,
                        window_end,
                        &mut self.accumulator,
                        &mut self.route_buf,
                        &mut self.dropped_late,
                        metrics.as_ref(),
                    );
                    self.pending.drain(..consumed);
                    close
                }
                None => false,
            };
            if close_window {
                self.window_elapsed += started.elapsed();
                return Some(self.rotate(false));
            }
            if self.source_exhausted {
                // Flush the in-progress window once, then finish. Trailing
                // late drops are folded into this last real report rather
                // than carried by a synthetic empty window that would
                // advance `window_index` past the last real window.
                //
                // Invariant: `dropped_late > 0` implies the accumulator is
                // non-empty here, in both modes, so no trailing count is
                // ever lost by finishing without a report.
                //
                // * Strict mode: a late event needs `current > 0`, so a
                //   rotation must have happened, and every rotation is
                //   triggered by an event in a *future* window that is still
                //   at the head of `pending` — that event is always ingested
                //   (making the accumulator non-empty) before exhaustion can
                //   be observed.
                // * Reorder mode: a late event needs a newer accepted event.
                //   That event was routed into the current window or the
                //   future list, and at end of stream every future event is
                //   promoted window by window before this branch runs — so
                //   the maximum-timestamp event has always been ingested
                //   into the final window by the time any trailing count is
                //   folded in.
                self.finished = true;
                if self.accumulator.is_empty() {
                    debug_assert_eq!(
                        self.dropped_late, 0,
                        "late drops observed without an in-progress window"
                    );
                    return None;
                }
                self.window_elapsed += started.elapsed();
                return Some(self.rotate(true));
            }
            self.scratch.clear();
            let pull = StageTimer::start(metrics.as_ref().map(|m| &m.source_pull_ns));
            let exhausted = self.source.pull(self.batch_size, &mut self.scratch) == 0;
            pull.finish();
            match self.reorder.as_mut() {
                None if self.pending.is_empty() => {
                    // Steady-state strict mode: the freshly pulled batch is
                    // the head of the queue, so scan and route it straight
                    // from the pull buffer — zero staging copies — and spill
                    // only the unconsumed tail (events for later windows)
                    // into `pending`. A window close discovered here is
                    // rediscovered from the spilled head on the next loop
                    // iteration, which keeps rotation on the one path above.
                    let (consumed, _close) = scan_and_route(
                        &self.scratch,
                        window_start,
                        window_end,
                        &mut self.accumulator,
                        &mut self.route_buf,
                        &mut self.dropped_late,
                        metrics.as_ref(),
                    );
                    self.pending
                        .extend(self.scratch[consumed..].iter().copied());
                }
                None => self.pending.extend(self.scratch.drain(..)),
                Some(router) => {
                    // One classify/route pass straight from the pull buffer;
                    // the window-close check runs once per batch, at the top
                    // of the loop. The counters transfer to the window stats
                    // at rotation.
                    let release =
                        StageTimer::start(metrics.as_ref().map(|m| &m.reorder_release_ns));
                    router.route(&self.scratch, window_end, &mut self.accumulator);
                    release.finish();
                    self.dropped_late += router.take_late();
                    self.reordered += router.take_reordered();
                    if let Some(m) = &metrics {
                        m.reorder_depth.set(router.future_len() as i64);
                    }
                }
            }
            self.source_exhausted = exhausted;
        }
    }

    /// Emit up to `max_windows` window reports.
    pub fn run(&mut self, max_windows: usize) -> Vec<WindowReport> {
        let mut reports = Vec::with_capacity(max_windows.min(1024));
        while reports.len() < max_windows {
            match self.next_window() {
                Some(report) => reports.push(report),
                None => break,
            }
        }
        reports
    }

    fn rotate(&mut self, last: bool) -> WindowReport {
        let metrics = self.metrics.clone();
        let merge_started = Instant::now();
        let events = self.accumulator.events();
        let packets = self.accumulator.packets();
        let (matrix, reuse_hits) = {
            let _coalesce = StageTimer::start(metrics.as_ref().map(|m| &m.coalesce_ns));
            if last {
                // End of stream: consume the accumulator so every retained
                // entry, scratch and pool buffer is released, not kept warm
                // for a window that will never come.
                let node_count = self.accumulator.node_count();
                let acc =
                    std::mem::replace(&mut self.accumulator, WindowAccumulator::new(node_count));
                acc.finish()
            } else {
                let matrix = self.accumulator.merge();
                if !self.recycle_scratch {
                    self.accumulator.release_scratch();
                }
                (matrix, self.accumulator.scratch_reuse_hits())
            }
        };
        let elapsed = self.window_elapsed + merge_started.elapsed();
        let stats = IngestStats {
            window_index: self.clock.advance(),
            events,
            packets,
            nnz: matrix.nnz(),
            dropped_late: std::mem::take(&mut self.dropped_late),
            reordered: std::mem::take(&mut self.reordered),
            elapsed,
        };
        if let Some(m) = &metrics {
            m.windows.inc();
            m.events.add(stats.events);
            m.dropped_late.add(stats.dropped_late);
            m.reordered.add(stats.reordered);
            m.scratch_reuse_hits.add(reuse_hits - self.reuse_seen);
        }
        self.reuse_seen = if last { 0 } else { reuse_hits };
        self.window_elapsed = Duration::ZERO;
        WindowReport {
            matrix,
            stats,
            frame: None,
        }
    }
}

/// The strict-mode two-phase ingest hot loop, shared by the `pending` drain
/// and the direct-from-pull fast path.
///
/// Phase 1 (scan): classify events against the current window with two
/// timestamp compares per event — the bounds are precomputed, so no division
/// runs on the hot path. The scan stops at the first event belonging to a
/// later window. Phase 2 (route): the whole in-window run in one
/// [`WindowAccumulator::ingest`] call — routed straight from the input
/// slice, with `route_buf` staging a compacted copy only when late drops
/// interleave (unsorted input, the rare case).
///
/// Returns `(consumed, close_window)`: how many events were consumed
/// (routed or dropped late) and whether an event for a later window was hit.
fn scan_and_route(
    events: &[PacketEvent],
    window_start: u64,
    window_end: u64,
    accumulator: &mut WindowAccumulator,
    route_buf: &mut Vec<PacketEvent>,
    dropped_late: &mut u64,
    metrics: Option<&PipelineMetrics>,
) -> (usize, bool) {
    let scan = StageTimer::start(metrics.map(|m| &m.route_scan_ns));
    // Whole-batch fast path: one branch-free min/max reduction (the
    // compiler vectorizes it) proves the common case — every event inside
    // the current window — without per-event classification. Falls through
    // to the classifying scan only around window boundaries.
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    for event in events {
        min_ts = min_ts.min(event.timestamp_us);
        max_ts = max_ts.max(event.timestamp_us);
    }
    if min_ts >= window_start && max_ts < window_end {
        scan.finish();
        if !events.is_empty() {
            let route = StageTimer::start(metrics.map(|m| &m.route_ns));
            accumulator.ingest(events);
            route.finish();
        }
        return (events.len(), false);
    }
    route_buf.clear();
    let mut consumed = 0usize;
    let mut clean = true;
    let mut close_window = false;
    for event in events {
        if event.timestamp_us >= window_end {
            // The head belongs to a later window: close the current one
            // (coalescing is not billed to the scan). Skipped (empty)
            // windows are emitted one per call, like the serial aggregator.
            close_window = true;
            break;
        }
        if event.timestamp_us < window_start {
            if clean {
                // First late drop: the in-window prefix can no longer be
                // routed as one contiguous slice, so stage it.
                route_buf.extend_from_slice(&events[..consumed]);
                clean = false;
            }
            *dropped_late += 1;
        } else if !clean {
            route_buf.push(*event);
        }
        consumed += 1;
    }
    scan.finish();
    let batch: &[PacketEvent] = if clean {
        &events[..consumed]
    } else {
        route_buf
    };
    if !batch.is_empty() {
        let route = StageTimer::start(metrics.map(|m| &m.route_ns));
        accumulator.ingest(batch);
        route.finish();
    }
    (consumed, close_window)
}

/// Live generation as a [`WindowStream`](crate::WindowStream): the pipeline
/// cannot fail, so every pull is `Ok`.
impl crate::stream::WindowStream for Pipeline {
    fn next_window(&mut self) -> Result<Option<WindowReport>, crate::stream::StreamError> {
        Ok(Pipeline::next_window(self))
    }

    fn node_count(&self) -> usize {
        Pipeline::node_count(self)
    }

    fn window_us(&self) -> u64 {
        Pipeline::window_us(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::window_matrix;
    use crate::source::{collect_events, HeavyTailSource, Limit, ScanSweepSource};

    fn limited_background(nodes: u32, events: usize, seed: u64) -> Box<dyn EventSource> {
        Box::new(Limit::new(
            Box::new(HeavyTailSource::new(nodes, 50_000, seed)),
            events,
        ))
    }

    /// Everything [`IngestStats`] records except the wall-clock `elapsed`.
    fn stats_key(s: &IngestStats) -> (u64, u64, u64, usize, u64, u64) {
        (
            s.window_index,
            s.events,
            s.packets,
            s.nnz,
            s.dropped_late,
            s.reordered,
        )
    }

    #[test]
    fn pipeline_windows_partition_the_stream_exactly() {
        // Same source pulled twice: once through the pipeline, once flat.
        let mut flat_source = Limit::new(Box::new(HeavyTailSource::new(64, 50_000, 3)), 20_000);
        let flat = collect_events(&mut flat_source, 20_000);

        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 1_000,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(limited_background(64, 20_000, 3), config);
        let mut reports = Vec::new();
        while let Some(report) = pipeline.next_window() {
            reports.push(report);
        }
        assert!(
            reports.len() > 2,
            "expected several windows, got {}",
            reports.len()
        );
        assert!(pipeline.next_window().is_none(), "pipeline stays finished");

        // Cell-for-cell: every window equals the serial reference over the
        // events whose timestamps fall inside it, and nothing is lost.
        let total_events: u64 = reports.iter().map(|r| r.stats.events).sum();
        assert_eq!(total_events, 20_000);
        for report in &reports {
            let w = report.stats.window_index;
            let slice: Vec<_> = flat
                .iter()
                .copied()
                .filter(|e| e.timestamp_us / 50_000 == w)
                .collect();
            assert_eq!(report.matrix, window_matrix(64, &slice), "window {w}");
            assert_eq!(report.stats.nnz, report.matrix.nnz());
            assert_eq!(
                report.stats.packets,
                report.matrix.values().iter().sum::<u64>(),
                "packets survive coalescing"
            );
        }
        // Window indices are consecutive from zero (empty windows included).
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.stats.window_index, i as u64);
        }
    }

    #[test]
    fn fresh_allocation_mode_matches_recycled_mode() {
        let recycled_config = PipelineConfig {
            window_us: 50_000,
            batch_size: 2_048,
            ..PipelineConfig::default()
        };
        let fresh_config = PipelineConfig {
            recycle_scratch: false,
            ..recycled_config.clone()
        };
        let mut recycled = Pipeline::new(limited_background(48, 15_000, 23), recycled_config);
        let mut fresh = Pipeline::new(limited_background(48, 15_000, 23), fresh_config);
        loop {
            let a = recycled.next_window();
            let b = fresh.next_window();
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.matrix, b.matrix);
                    assert_eq!(stats_key(&a.stats), stats_key(&b.stats));
                    recycled.recycle_window(a.matrix);
                }
                (a, b) => panic!(
                    "window count diverged: recycled={:?} fresh={:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    #[test]
    fn run_caps_the_window_count() {
        let config = PipelineConfig {
            window_us: 20_000,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(HeavyTailSource::new(128, 80_000, 9)), config);
        let reports = pipeline.run(4);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.stats.events > 0));
        // The source is unbounded; the next call keeps producing.
        assert!(pipeline.next_window().is_some());
    }

    #[test]
    fn bursty_streams_emit_empty_windows() {
        // A scan at 10k events/s (one event per ~100 µs) with 50 µs windows
        // leaves roughly every other window empty.
        let source = Box::new(Limit::new(
            Box::new(ScanSweepSource::new(32, 10_000, 1)),
            50,
        ));
        let config = PipelineConfig {
            window_us: 50,
            batch_size: 16,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(source, config);
        let reports = pipeline.run(usize::MAX);
        let empty = reports.iter().filter(|r| r.stats.events == 0).count();
        let total: u64 = reports.iter().map(|r| r.stats.events).sum();
        assert_eq!(total, 50);
        assert!(empty > 0, "expected some empty windows");
    }

    #[test]
    fn late_events_are_dropped_and_counted() {
        /// A source that emits one event far in the future, then one in the past.
        struct Regressive {
            emitted: usize,
        }
        impl EventSource for Regressive {
            fn node_count(&self) -> u32 {
                8
            }
            fn pull(&mut self, _max: usize, out: &mut Vec<PacketEvent>) -> usize {
                let events: [PacketEvent; 3] = [
                    PacketEvent {
                        source: 0,
                        destination: 1,
                        packets: 1,
                        timestamp_us: 10,
                    },
                    PacketEvent {
                        source: 1,
                        destination: 2,
                        packets: 1,
                        timestamp_us: 150_000,
                    },
                    PacketEvent {
                        source: 2,
                        destination: 3,
                        packets: 1,
                        timestamp_us: 20,
                    },
                ];
                if self.emitted >= events.len() {
                    return 0;
                }
                out.push(events[self.emitted]);
                self.emitted += 1;
                1
            }
        }
        let config = PipelineConfig {
            window_us: 100_000,
            batch_size: 1,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(Regressive { emitted: 0 }), config);
        let w0 = pipeline.next_window().unwrap();
        assert_eq!(w0.stats.events, 1);
        assert_eq!(w0.stats.dropped_late, 0);
        let w1 = pipeline.next_window().unwrap();
        assert_eq!(w1.stats.events, 1, "the regressive event is not ingested");
        assert_eq!(w1.stats.dropped_late, 1, "but it is counted");
        assert!(pipeline.next_window().is_none());
    }

    #[test]
    fn trailing_late_drops_fold_into_the_last_real_window() {
        /// A stream that ends in late events: one real window-0 event, one
        /// window-1 event, then two stragglers from window 0.
        struct TrailingLate {
            emitted: usize,
        }
        impl EventSource for TrailingLate {
            fn node_count(&self) -> u32 {
                8
            }
            fn pull(&mut self, _max: usize, out: &mut Vec<PacketEvent>) -> usize {
                let events: [PacketEvent; 4] = [
                    PacketEvent {
                        source: 0,
                        destination: 1,
                        packets: 1,
                        timestamp_us: 10,
                    },
                    PacketEvent {
                        source: 1,
                        destination: 2,
                        packets: 1,
                        timestamp_us: 150_000,
                    },
                    PacketEvent {
                        source: 2,
                        destination: 3,
                        packets: 1,
                        timestamp_us: 20,
                    },
                    PacketEvent {
                        source: 3,
                        destination: 4,
                        packets: 1,
                        timestamp_us: 30,
                    },
                ];
                if self.emitted >= events.len() {
                    return 0;
                }
                out.push(events[self.emitted]);
                self.emitted += 1;
                1
            }
        }
        let config = PipelineConfig {
            window_us: 100_000,
            batch_size: 1,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(TrailingLate { emitted: 0 }), config);
        let reports = pipeline.run(usize::MAX);
        // Exactly the two real windows: no synthetic empty window is emitted
        // to carry the trailing dropped_late count, and window_index never
        // advances past the last real window.
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].stats.window_index, 0);
        assert_eq!(reports[0].stats.events, 1);
        assert_eq!(reports[0].stats.dropped_late, 0);
        assert_eq!(reports[1].stats.window_index, 1);
        assert_eq!(
            reports[1].stats.events, 1,
            "the last real window keeps its event"
        );
        assert_eq!(
            reports[1].stats.dropped_late, 2,
            "both stragglers fold into it"
        );
        assert!(pipeline.next_window().is_none());
        // Nothing was lost: events + drops account for the whole stream.
        let accounted: u64 = reports
            .iter()
            .map(|r| r.stats.events + r.stats.dropped_late)
            .sum();
        assert_eq!(accounted, 4);
    }

    /// A fixed event list replayed in arrival order, one event per pull.
    struct Scripted {
        events: Vec<PacketEvent>,
        emitted: usize,
    }

    impl Scripted {
        fn new(timestamps: &[u64]) -> Self {
            Scripted {
                events: timestamps
                    .iter()
                    .enumerate()
                    .map(|(i, &ts)| PacketEvent {
                        source: (i % 7) as u32,
                        destination: (i % 7) as u32 + 1,
                        packets: 1,
                        timestamp_us: ts,
                    })
                    .collect(),
                emitted: 0,
            }
        }
    }

    impl EventSource for Scripted {
        fn node_count(&self) -> u32 {
            8
        }
        fn pull(&mut self, _max: usize, out: &mut Vec<PacketEvent>) -> usize {
            if self.emitted >= self.events.len() {
                return 0;
            }
            out.push(self.events[self.emitted]);
            self.emitted += 1;
            1
        }
    }

    #[test]
    fn reorder_horizon_rescues_what_strict_mode_drops() {
        // Arrival order: 80 runs 40 behind 120, 130 runs 70 behind 200.
        let timestamps = [10, 120, 80, 200, 130, 300];

        // Strict mode loses both stragglers.
        let strict = PipelineConfig {
            window_us: 100,
            batch_size: 1,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(Scripted::new(&timestamps)), strict.clone());
        assert_eq!(pipeline.reorder_horizon_us(), 0);
        let reports = pipeline.run(usize::MAX);
        let dropped: u64 = reports.iter().map(|r| r.stats.dropped_late).sum();
        let events: u64 = reports.iter().map(|r| r.stats.events).sum();
        assert_eq!(dropped, 2);
        assert_eq!(events, 4);
        assert!(reports.iter().all(|r| r.stats.reordered == 0));

        // A horizon covering the worst disorder (70) loses nothing and
        // windows the stream exactly as if it had arrived sorted.
        let config = PipelineConfig {
            reorder_horizon_us: 100,
            ..strict
        };
        let mut pipeline = Pipeline::new(Box::new(Scripted::new(&timestamps)), config);
        assert_eq!(pipeline.reorder_horizon_us(), 100);
        let reports = pipeline.run(usize::MAX);
        assert_eq!(reports.iter().map(|r| r.stats.dropped_late).sum::<u64>(), 0);
        assert_eq!(reports.iter().map(|r| r.stats.events).sum::<u64>(), 6);
        assert_eq!(
            reports.iter().map(|r| r.stats.reordered).sum::<u64>(),
            2,
            "both stragglers were resequenced"
        );
        let per_window: Vec<(u64, u64)> = reports
            .iter()
            .map(|r| (r.stats.window_index, r.stats.events))
            .collect();
        assert_eq!(per_window, [(0, 2), (1, 2), (2, 1), (3, 1)]);

        // Every window matrix equals the serial reference over the events
        // whose timestamps fall inside it: the reorder stage is invisible
        // once disorder is absorbed.
        let all_events = Scripted::new(&timestamps).events;
        for report in &reports {
            let w = report.stats.window_index;
            let slice: Vec<_> = all_events
                .iter()
                .copied()
                .filter(|e| e.timestamp_us / 100 == w)
                .collect();
            assert_eq!(report.matrix, window_matrix(8, &slice), "window {w}");
        }
    }

    #[test]
    fn disorder_beyond_the_horizon_is_still_counted() {
        // 500 arrives, then 10: with a horizon of 100 the watermark is 400,
        // so 10 is late; 450 is within the horizon and survives.
        let timestamps = [500, 10, 450, 600];
        let config = PipelineConfig {
            window_us: 1_000,
            batch_size: 2,
            reorder_horizon_us: 100,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(Scripted::new(&timestamps)), config);
        let reports = pipeline.run(usize::MAX);
        assert_eq!(reports.len(), 1, "everything lands in window 0");
        assert_eq!(reports[0].stats.events, 3);
        assert_eq!(reports[0].stats.dropped_late, 1);
        assert_eq!(reports[0].stats.reordered, 1, "450 was resequenced");
        // Conservation: nothing vanishes unaccounted.
        assert_eq!(
            reports[0].stats.events + reports[0].stats.dropped_late,
            timestamps.len() as u64
        );
    }

    #[test]
    fn trailing_buffered_events_flush_in_order_at_exhaustion() {
        // The last horizon's worth of stream is still in the buffer when the
        // source runs dry; it must flush sorted, not drop.
        let timestamps = [100, 90, 80, 70, 60];
        let config = PipelineConfig {
            window_us: 50,
            batch_size: 8,
            reorder_horizon_us: 1_000,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(Box::new(Scripted::new(&timestamps)), config);
        let reports = pipeline.run(usize::MAX);
        let events: u64 = reports.iter().map(|r| r.stats.events).sum();
        let dropped: u64 = reports.iter().map(|r| r.stats.dropped_late).sum();
        assert_eq!(events, 5, "the whole buffered suffix is ingested");
        assert_eq!(dropped, 0);
        // 60..=90 land in window 1, 100 in window 2; window 0 is empty.
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].stats.events, 4);
        assert_eq!(reports[2].stats.events, 1);
    }

    #[test]
    fn stragglers_count_toward_the_window_their_closing_batch_emits() {
        /// Fixed arrival batches, one per pull.
        struct Batches(Vec<Vec<u64>>);
        impl EventSource for Batches {
            fn node_count(&self) -> u32 {
                8
            }
            fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
                if self.0.is_empty() {
                    return 0;
                }
                let batch = self.0.remove(0);
                assert!(batch.len() <= max);
                out.extend(batch.iter().map(|&ts| PacketEvent {
                    source: (ts / 10 % 8) as u32,
                    destination: 1,
                    packets: 1,
                    timestamp_us: ts,
                }));
                batch.len()
            }
        }
        // Horizon 50, windows of 100. The second batch carries window 0's
        // stragglers: 90 (reordered behind 120) and 10 (late: watermark
        // 70). Window 0 closes only one batch later, when 170 lifts the
        // watermark to 120 — that batch also brings 130, reordered into
        // window 1. Every count of a batch lands in the window its
        // watermark closes.
        let source = Batches(vec![vec![50, 120], vec![90, 10], vec![170, 130]]);
        let config = PipelineConfig {
            window_us: 100,
            batch_size: 2,
            reorder_horizon_us: 50,
            ..PipelineConfig::default()
        };
        let reports = Pipeline::new(Box::new(source), config).run(usize::MAX);
        let keys: Vec<_> = reports.iter().map(|r| stats_key(&r.stats)).collect();
        assert_eq!(
            keys,
            [(0, 2, 2, 2, 1, 2), (1, 3, 3, 3, 0, 0)],
            "(window, events, packets, nnz, dropped_late, reordered)"
        );
    }

    #[test]
    fn instrumented_pipeline_counts_match_its_reports() {
        let registry = MetricsRegistry::new();
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 512,
            reorder_horizon_us: 25_000,
            ..PipelineConfig::default()
        };
        let mut pipeline = Pipeline::new(limited_background(32, 10_000, 11), config);
        pipeline.instrument(&registry);
        let reports = pipeline.run(usize::MAX);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("pipeline.windows"), reports.len() as u64);
        assert_eq!(
            snapshot.counter("pipeline.events"),
            reports.iter().map(|r| r.stats.events).sum::<u64>()
        );
        assert_eq!(
            snapshot.counter("pipeline.dropped_late"),
            reports.iter().map(|r| r.stats.dropped_late).sum::<u64>()
        );
        assert_eq!(
            snapshot.counter("pipeline.reordered"),
            reports.iter().map(|r| r.stats.reordered).sum::<u64>()
        );
        // With scratch recycling on (the default), every merge after the
        // first runs on recycled capacity.
        assert_eq!(
            snapshot.counter("pipeline.scratch_reuse_hits"),
            reports.len() as u64 - 1
        );
        // Every stage that ran left timing samples behind.
        assert!(snapshot.histogram("pipeline.source_pull_ns").unwrap().count > 0);
        assert!(snapshot.histogram("pipeline.route_scan_ns").unwrap().count > 0);
        assert!(snapshot.histogram("pipeline.route_ns").unwrap().count > 0);
        assert_eq!(
            snapshot.histogram("pipeline.coalesce_ns").unwrap().count,
            reports.len() as u64
        );
        assert!(
            snapshot
                .histogram("pipeline.reorder_release_ns")
                .unwrap()
                .count
                > 0
        );
        // The buffer drained completely at end of stream.
        assert_eq!(snapshot.gauge("pipeline.reorder_depth"), 0);
    }

    #[test]
    fn uninstrumented_pipeline_registers_nothing() {
        let registry = MetricsRegistry::new();
        let mut pipeline =
            Pipeline::new(limited_background(16, 1_000, 5), PipelineConfig::default());
        let _ = pipeline.run(usize::MAX);
        assert_eq!(registry.snapshot(), tw_metrics::MetricsSnapshot::default());
    }

    #[test]
    fn empty_source_produces_no_windows() {
        let source = Box::new(Limit::new(Box::new(HeavyTailSource::new(16, 1_000, 1)), 0));
        let mut pipeline = Pipeline::new(source, PipelineConfig::default());
        assert!(pipeline.next_window().is_none());
        assert_eq!(pipeline.node_count(), 16);
    }
}
