//! The classroom fan-out hub: one indexed window stream, many subscribers.
//!
//! The paper's premise is a *classroom* inspecting the same traffic-matrix
//! scenario together. A [`BroadcastHub`] takes each window **once** from its
//! producer ([`BroadcastHub::publish_window`]) and pushes it over bounded
//! crossbeam channels to every subscriber. The payload is anything cheap to
//! clone — fan-out costs a pointer clone per student, never a matrix copy.
//! `tw-serve` publishes each window's encoded frame (`T = Arc<[u8]>`) and
//! gives every TCP connection one subscription, so a class of students at
//! their own machines all read the same frame bytes.
//!
//! * **Late joiners** catch up from a bounded ring of the most recent
//!   windows: a student connecting mid-scenario receives the ring suffix
//!   from their requested offset immediately, and anything older than the
//!   ring is counted as `missed` rather than silently skipped.
//! * **Slow consumers** never stall the class: when a subscriber's bounded
//!   channel is full, that window is dropped *for that subscriber only* and
//!   counted (`dropped`), with a [`TelemetryEvent::SubscriberLagged`] event
//!   for the educator dashboard.
//! * **Detach is clean**: dropping a [`HubSubscription`] disconnects its
//!   channel; the hub notices on the next delivery, retires the slot, and
//!   reports its final counters.
//!
//! The hub is deliberately synchronous and lock-based (one mutex around the
//! subscriber table and ring): broadcasting is O(subscribers) pointer sends
//! per window, and every blocking wait lives in the channels, not the lock.

use crate::telemetry::{TelemetryEvent, TelemetryHub};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tw_metrics::{Counter, Gauge, Histogram, MetricsRegistry, StageTimer};

/// Pre-resolved metric handles for the fan-out stage, all under the
/// `broadcast.` prefix. `None` on the hub disables every update.
#[derive(Clone, Debug)]
struct HubMetrics {
    /// `broadcast.windows`: payloads broadcast so far.
    windows: Counter,
    /// `broadcast.delivered` / `.dropped` / `.missed`: roster-wide totals,
    /// updated at the same points as the per-subscriber shared counters.
    delivered: Counter,
    dropped: Counter,
    missed: Counter,
    /// `broadcast.fanout_ns`: time to enqueue one window to every subscriber.
    fanout_ns: Histogram,
    /// `broadcast.queue_depth`: per-subscriber channel occupancy, sampled
    /// after each fan-out (one observation per subscriber per window).
    queue_depth: Histogram,
    /// `broadcast.ring_occupancy`: catch-up ring fill level.
    ring_occupancy: Gauge,
    /// `broadcast.subscribers`: currently attached subscribers.
    subscribers: Gauge,
}

impl HubMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        HubMetrics {
            windows: registry.counter("broadcast.windows"),
            delivered: registry.counter("broadcast.delivered"),
            dropped: registry.counter("broadcast.dropped"),
            missed: registry.counter("broadcast.missed"),
            fanout_ns: registry.histogram("broadcast.fanout_ns"),
            queue_depth: registry.histogram("broadcast.queue_depth"),
            ring_occupancy: registry.gauge("broadcast.ring_occupancy"),
            subscribers: registry.gauge("broadcast.subscribers"),
        }
    }
}

/// Tuning knobs for a [`BroadcastHub`].
#[derive(Debug, Clone)]
pub struct BroadcastConfig {
    /// Bounded depth of each subscriber's window channel; a subscriber more
    /// than this many windows behind starts dropping (and counting) them.
    pub channel_capacity: usize,
    /// Recent windows retained for late-joiner catch-up.
    pub ring_capacity: usize,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            channel_capacity: 64,
            ring_capacity: 32,
        }
    }
}

/// Where in the stream a new subscriber wants to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartOffset {
    /// From the first window of the scenario (windows that already left the
    /// catch-up ring are counted as missed).
    Origin,
    /// From the next window broadcast after subscribing.
    Live,
    /// From the given window index, catching up from the ring where possible.
    Window(u64),
}

/// Per-subscriber counters, shared between the hub and the [`HubSubscription`].
#[derive(Debug, Default)]
struct SharedCounters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    missed: AtomicU64,
}

/// One subscriber's final accounting, as reported in a [`BroadcastSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriberReport {
    /// The subscriber's id (assigned in subscription order from 0).
    pub id: usize,
    /// The window index the subscriber asked to start from.
    pub start_window: u64,
    /// Windows enqueued to the subscriber's channel.
    pub delivered: u64,
    /// Windows dropped because the subscriber's channel was full.
    pub dropped: u64,
    /// Wanted windows that had already left the catch-up ring at join time.
    pub missed: u64,
    /// Whether the subscriber detached before the broadcast closed (its
    /// receiving half was dropped mid-broadcast). Counters freeze at the
    /// detach, so window conservation is only guaranteed for subscribers
    /// that stayed to the end.
    pub left_early: bool,
}

impl SubscriberReport {
    /// Every window this subscriber accounted for, one way or another:
    /// `delivered + dropped + missed`. For a subscriber that stayed to the
    /// end this equals the windows broadcast past its start offset — the
    /// conservation law [`BroadcastSummary::conservation_error`] checks.
    pub fn accounted(&self) -> u64 {
        self.delivered + self.dropped + self.missed
    }
}

/// Roster-wide totals over every subscriber of a broadcast, summed in one
/// place so the classroom CLI, the serving tier and tests agree on the
/// arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RosterTotals {
    /// Windows enqueued across all subscribers.
    pub delivered: u64,
    /// Windows dropped (full channel) across all subscribers.
    pub dropped: u64,
    /// Windows missed (left the ring before join) across all subscribers.
    pub missed: u64,
}

/// The outcome of a finished broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastSummary {
    /// Windows broadcast before the stream ended (or the cap was reached).
    pub windows: u64,
    /// Subscribers that ever joined.
    pub subscribers: usize,
    /// Final per-subscriber accounting, in subscription order.
    pub reports: Vec<SubscriberReport>,
}

impl BroadcastSummary {
    /// Sum the per-subscriber counters into roster-wide totals.
    pub fn totals(&self) -> RosterTotals {
        let mut totals = RosterTotals::default();
        for r in &self.reports {
            totals.delivered += r.delivered;
            totals.dropped += r.dropped;
            totals.missed += r.missed;
        }
        totals
    }

    /// Check the conservation law: every subscriber that stayed to the end
    /// accounted for exactly the windows broadcast past its start offset
    /// (`delivered + dropped + missed == windows - start_window`). Returns a
    /// description of the first violation, or `None` when the books balance.
    /// Early leavers are skipped — their counters froze at the detach.
    pub fn conservation_error(&self) -> Option<String> {
        for r in &self.reports {
            if r.left_early {
                continue;
            }
            let wanted = self.windows.saturating_sub(r.start_window);
            if r.accounted() != wanted {
                return Some(format!(
                    "subscriber {} accounted {} window(s) (delivered {} + dropped {} + \
                     missed {}) but the broadcast served {} past its start w{}",
                    r.id,
                    r.accounted(),
                    r.delivered,
                    r.dropped,
                    r.missed,
                    wanted,
                    r.start_window
                ));
            }
        }
        None
    }
}

struct Slot<T> {
    id: usize,
    start_window: u64,
    sender: Sender<T>,
    counters: Arc<SharedCounters>,
    detached: bool,
}

impl<T> Slot<T> {
    fn report(&self, left_early: bool) -> SubscriberReport {
        SubscriberReport {
            id: self.id,
            start_window: self.start_window,
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            missed: self.counters.missed.load(Ordering::Relaxed),
            left_early,
        }
    }
}

/// Rewrites the catch-up sequence a joining subscriber receives from the
/// ring. Called with the ring's `(window index, payload)` entries (oldest
/// first) and the join's requested start window; returns the entries to
/// deliver instead. The serving tier uses this to materialize a key frame
/// when the ring holds delta-encoded windows a joiner could not decode
/// mid-chain. Contract: returned indices are strictly increasing, all
/// `>= start_window`, and form a suffix of the broadcast stream — the hub
/// counts everything between `start_window` and the first returned index
/// as missed, exactly like ring fall-off on the default path.
pub type CatchupRewrite<T> = Arc<dyn Fn(&[(u64, T)], u64) -> Vec<(u64, T)> + Send + Sync>;

struct HubState<T: Clone> {
    config: BroadcastConfig,
    telemetry: Option<TelemetryHub>,
    metrics: Option<HubMetrics>,
    /// Optional join-time rewrite of the ring suffix (see [`CatchupRewrite`]).
    catchup_rewrite: Option<CatchupRewrite<T>>,
    /// Recent payloads with the window index each one carries. The index
    /// rides alongside the payload because an encoded frame (unlike a
    /// `WindowReport`) cannot answer for its own position in the stream.
    ring: VecDeque<(u64, T)>,
    /// The index the next broadcast window will carry (== windows broadcast
    /// so far, since window indices are consecutive from 0).
    next_index: u64,
    closed: bool,
    next_id: usize,
    active: Vec<Slot<T>>,
    /// Reports of subscribers that already detached.
    finished: Vec<SubscriberReport>,
}

impl<T: Clone> HubState<T> {
    fn publish(&self, event: TelemetryEvent) {
        if let Some(hub) = &self.telemetry {
            hub.publish(event);
        }
    }

    /// First window index the ring still holds (= `next_index` when empty).
    fn ring_start(&self) -> u64 {
        self.ring
            .front()
            .map(|(index, _)| *index)
            .unwrap_or(self.next_index)
    }

    fn subscribe(&mut self, offset: StartOffset) -> HubSubscription<T> {
        let id = self.next_id;
        self.next_id += 1;
        let start_window = match offset {
            StartOffset::Origin => 0,
            StartOffset::Live => self.next_index,
            StartOffset::Window(index) => index,
        };
        let (sender, receiver) = bounded(self.config.channel_capacity);
        let counters = Arc::new(SharedCounters::default());
        // With a rewrite hook, the hook decides the catch-up sequence (and
        // thereby what counts as missed); materialize it before the slot so
        // the ring can be borrowed contiguously.
        let rewritten = self
            .catchup_rewrite
            .clone()
            .map(|rewrite| rewrite(self.ring.make_contiguous(), start_window));
        // Windows the subscriber wanted but that already left the ring (or
        // that the rewrite declined to reconstruct).
        let missed = match &rewritten {
            None => self.ring_start().saturating_sub(start_window),
            Some(entries) => entries
                .first()
                .map(|(index, _)| index.saturating_sub(start_window))
                .unwrap_or_else(|| self.next_index.saturating_sub(start_window)),
        };
        counters.missed.store(missed, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.missed.add(missed);
        }
        let mut slot = Slot {
            id,
            start_window,
            sender,
            counters: counters.clone(),
            detached: false,
        };
        // Catch up from the ring: everything at or past the requested start.
        let mut caught_up = 0u64;
        match &rewritten {
            None => {
                for (index, item) in self.ring.iter().filter(|(i, _)| *i >= start_window) {
                    deliver(
                        &mut slot,
                        *index,
                        item,
                        self.telemetry.as_ref(),
                        self.metrics.as_ref(),
                    );
                    caught_up += 1;
                }
            }
            Some(entries) => {
                for (index, item) in entries {
                    deliver(
                        &mut slot,
                        *index,
                        item,
                        self.telemetry.as_ref(),
                        self.metrics.as_ref(),
                    );
                    caught_up += 1;
                }
            }
        }
        self.publish(TelemetryEvent::SubscriberJoined {
            subscriber: id,
            start_window,
            caught_up,
            missed,
        });
        if self.closed || slot.detached {
            // Joining a finished broadcast still yields the ring suffix; the
            // slot is retired immediately so its sender drops and the
            // subscription sees disconnect after draining.
            self.finished.push(slot.report(slot.detached));
        } else {
            self.active.push(slot);
        }
        if let Some(m) = &self.metrics {
            m.subscribers.set(self.active.len() as i64);
        }
        HubSubscription {
            id,
            start_window,
            receiver,
            counters,
        }
    }

    fn broadcast(&mut self, index: u64, item: T) -> u64 {
        self.ring.push_back((index, item.clone()));
        while self.ring.len() > self.config.ring_capacity {
            self.ring.pop_front();
        }
        let telemetry = self.telemetry.clone();
        let metrics = self.metrics.clone();
        {
            let _fanout = StageTimer::start(metrics.as_ref().map(|m| &m.fanout_ns));
            for slot in &mut self.active {
                // A subscriber that asked to start in the future receives
                // nothing (and counts nothing) until its start window arrives.
                if index >= slot.start_window {
                    deliver(slot, index, &item, telemetry.as_ref(), metrics.as_ref());
                }
            }
        }
        if let Some(m) = &metrics {
            m.windows.inc();
            m.ring_occupancy.set(self.ring.len() as i64);
            // One queue-depth sample per subscriber per window: how far each
            // consumer is running behind right after the fan-out.
            for slot in &self.active {
                m.queue_depth.observe(slot.sender.len() as u64);
            }
        }
        self.retire_detached();
        if let Some(m) = &metrics {
            m.subscribers.set(self.active.len() as i64);
        }
        self.next_index = index + 1;
        index
    }

    fn retire_detached(&mut self) {
        if self.active.iter().any(|s| s.detached) {
            let slots = std::mem::take(&mut self.active);
            for slot in slots {
                if slot.detached {
                    let report = slot.report(true);
                    self.publish(TelemetryEvent::SubscriberDetached {
                        subscriber: report.id,
                        delivered: report.delivered,
                        dropped: report.dropped,
                    });
                    self.finished.push(report);
                } else {
                    self.active.push(slot);
                }
            }
        }
    }

    fn close(&mut self) -> BroadcastSummary {
        if !self.closed {
            self.closed = true;
            // Dropping each sender disconnects its channel: subscribers
            // drain what is buffered, then see the end of the stream. Every
            // still-attached subscriber detaches here, and says so on
            // telemetry just like an early leaver would.
            let slots = std::mem::take(&mut self.active);
            for slot in slots {
                let report = slot.report(slot.detached);
                self.publish(TelemetryEvent::SubscriberDetached {
                    subscriber: report.id,
                    delivered: report.delivered,
                    dropped: report.dropped,
                });
                self.finished.push(report);
            }
            self.publish(TelemetryEvent::BroadcastClosed {
                windows: self.next_index,
                subscribers: self.next_id,
            });
            if let Some(m) = &self.metrics {
                m.subscribers.set(0);
            }
        }
        let mut reports = self.finished.clone();
        reports.sort_by_key(|r| r.id);
        BroadcastSummary {
            windows: self.next_index,
            subscribers: self.next_id,
            reports,
        }
    }
}

/// Enqueue one window to one subscriber, with lag accounting.
fn deliver<T: Clone>(
    slot: &mut Slot<T>,
    index: u64,
    item: &T,
    telemetry: Option<&TelemetryHub>,
    metrics: Option<&HubMetrics>,
) {
    if slot.detached {
        return;
    }
    match slot.sender.try_send(item.clone()) {
        Ok(()) => {
            slot.counters.delivered.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics {
                m.delivered.inc();
            }
        }
        Err(TrySendError::Full(_)) => {
            let dropped = slot.counters.dropped.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(m) = metrics {
                m.dropped.inc();
            }
            if let Some(hub) = telemetry {
                hub.publish(TelemetryEvent::SubscriberLagged {
                    subscriber: slot.id,
                    window_index: index,
                    dropped,
                });
            }
        }
        Err(TrySendError::Disconnected(_)) => {
            slot.detached = true;
        }
    }
}

/// A handle for subscribing to (and observing) a broadcast from any thread.
pub struct HubHandle<T: Clone> {
    state: Arc<Mutex<HubState<T>>>,
}

impl<T: Clone> Clone for HubHandle<T> {
    fn clone(&self) -> Self {
        HubHandle {
            state: self.state.clone(),
        }
    }
}

impl<T: Clone> HubHandle<T> {
    fn lock(&self) -> MutexGuard<'_, HubState<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Subscribe a new consumer starting at `offset`. Works before, during
    /// and after the broadcast; ring catch-up is delivered immediately.
    pub fn subscribe(&self, offset: StartOffset) -> HubSubscription<T> {
        self.lock().subscribe(offset)
    }

    /// Windows broadcast so far.
    pub fn windows_broadcast(&self) -> u64 {
        self.lock().next_index
    }

    /// Whether the broadcast has closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Currently attached subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.lock().active.len()
    }

    /// Subscribers that ever joined (attached or not).
    pub fn subscribers_joined(&self) -> usize {
        self.lock().next_id
    }
}

impl<T: Clone> std::fmt::Debug for HubHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HubHandle { .. }")
    }
}

/// The hub that fans one indexed payload stream out to N subscribers.
///
/// `T` is whatever one broadcast window costs a pointer clone to share:
/// `Arc<[u8]>` for the encoded wire frames of the `tw-serve` network tier.
pub struct BroadcastHub<T: Clone> {
    state: Arc<Mutex<HubState<T>>>,
}

impl<T: Clone> BroadcastHub<T> {
    /// A hub with the given configuration and no telemetry.
    pub fn new(config: BroadcastConfig) -> Self {
        Self::build(config, None, None)
    }

    /// A hub publishing subscriber lifecycle and lag events to the given
    /// telemetry hub.
    pub fn with_telemetry(config: BroadcastConfig, telemetry: TelemetryHub) -> Self {
        Self::build(config, Some(telemetry), None)
    }

    /// A hub with optional telemetry *and* optional metrics: fan-out timing,
    /// roster-wide delivered/dropped/missed counters, queue-depth samples,
    /// and ring/subscriber gauges land on `registry` under `broadcast.*`.
    pub fn with_instrumentation(
        config: BroadcastConfig,
        telemetry: Option<TelemetryHub>,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        Self::build(config, telemetry, registry)
    }

    fn build(
        config: BroadcastConfig,
        telemetry: Option<TelemetryHub>,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        assert!(
            config.channel_capacity >= 1,
            "subscriber channels need capacity"
        );
        assert!(
            config.ring_capacity >= 1,
            "the catch-up ring needs capacity"
        );
        BroadcastHub {
            state: Arc::new(Mutex::new(HubState {
                config,
                telemetry,
                metrics: registry.map(HubMetrics::new),
                catchup_rewrite: None,
                ring: VecDeque::new(),
                next_index: 0,
                closed: false,
                next_id: 0,
                active: Vec::new(),
                finished: Vec::new(),
            })),
        }
    }

    /// A clonable handle for subscribing from other threads.
    pub fn handle(&self) -> HubHandle<T> {
        HubHandle {
            state: self.state.clone(),
        }
    }

    /// Install a join-time rewrite of the catch-up ring suffix (see
    /// [`CatchupRewrite`]). Without one, joiners receive the raw ring
    /// entries at or past their start window — the behavior every
    /// full-window broadcast keeps. Install before subscribers join whose
    /// catch-up should be rewritten; joins already served are unaffected.
    pub fn set_catchup_rewrite(
        &self,
        rewrite: impl Fn(&[(u64, T)], u64) -> Vec<(u64, T)> + Send + Sync + 'static,
    ) {
        self.lock().catchup_rewrite = Some(Arc::new(rewrite));
    }

    /// Subscribe a consumer (convenience for [`HubHandle::subscribe`]).
    pub fn subscribe(&self, offset: StartOffset) -> HubSubscription<T> {
        self.handle().subscribe(offset)
    }

    /// Broadcast one payload carrying the given window index.
    ///
    /// Indices must be consecutive from 0 (the contract every
    /// `WindowStream` already honors) for missed/ring accounting to be
    /// exact. Publishing on a closed hub is a no-op. Returns the index.
    pub fn publish_window(&self, index: u64, item: T) -> u64 {
        let mut state = self.lock();
        if state.closed {
            return index;
        }
        state.broadcast(index, item)
    }

    /// Close the broadcast: every subscriber channel disconnects once
    /// drained. Idempotent; returns the (final) summary.
    pub fn close(&mut self) -> BroadcastSummary {
        self.lock().close()
    }

    fn lock(&self) -> MutexGuard<'_, HubState<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Dropping the hub closes it unconditionally (idempotent), so subscribers
/// blocked in `recv()` always unblock — even when a panic or an early return
/// skips the explicit [`BroadcastHub::close`] (surviving [`HubHandle`]
/// clones keep the channel senders alive otherwise).
impl<T: Clone> Drop for BroadcastHub<T> {
    fn drop(&mut self) {
        self.lock().close();
    }
}

impl<T: Clone> std::fmt::Debug for BroadcastHub<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("BroadcastHub")
            .field("windows", &state.next_index)
            .field("subscribers", &state.active.len())
            .field("closed", &state.closed)
            .finish()
    }
}

/// One subscriber's receiving end of a broadcast.
///
/// Dropping the subscription detaches it: the hub retires the slot on its
/// next delivery attempt. Counters are shared with the hub, so they remain
/// readable (and final) after the broadcast closes.
#[derive(Debug)]
pub struct HubSubscription<T> {
    id: usize,
    start_window: u64,
    receiver: Receiver<T>,
    counters: Arc<SharedCounters>,
}

impl<T> HubSubscription<T> {
    /// The subscriber id the hub assigned (subscription order from 0).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The window index this subscription asked to start from.
    pub fn start_window(&self) -> u64 {
        self.start_window
    }

    /// Block until the next window arrives; `None` once the broadcast has
    /// closed and everything buffered has been received.
    pub fn recv(&self) -> Option<T> {
        self.receiver.recv().ok()
    }

    /// The next window, if one is already buffered.
    pub fn try_recv(&self) -> Option<T> {
        self.receiver.try_recv().ok()
    }

    /// Drain every currently buffered window.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(report) = self.try_recv() {
            out.push(report);
        }
        out
    }

    /// Windows the hub enqueued to this subscription.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Windows the hub dropped because this subscription's channel was full.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }

    /// Wanted windows that had already left the ring when this subscription
    /// joined.
    pub fn missed(&self) -> u64 {
        self.counters.missed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_ingest::{Pipeline, PipelineConfig, Scenario, WindowReport};

    /// The hub driven with whole window reports, as a producer loop would.
    type Hub = BroadcastHub<Arc<WindowReport>>;
    type Sub = HubSubscription<Arc<WindowReport>>;

    /// Pull one window from `stream` and publish it; `None` once the hub is
    /// closed or the stream is exhausted.
    fn step(hub: &Hub, stream: &mut Pipeline) -> Option<u64> {
        if hub.handle().is_closed() {
            return None;
        }
        let report = stream.next_window()?;
        Some(hub.publish_window(report.stats.window_index, Arc::new(report)))
    }

    /// Publish up to `max_windows` windows, then close the hub.
    fn run(hub: &mut Hub, stream: &mut Pipeline, max_windows: usize) -> BroadcastSummary {
        for _ in 0..max_windows {
            if step(hub, stream).is_none() {
                break;
            }
        }
        hub.close()
    }

    fn ddos_pipeline(windows_us: u64) -> Pipeline {
        let config = PipelineConfig {
            window_us: windows_us,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(128, 7), config)
    }

    fn roomy() -> BroadcastConfig {
        BroadcastConfig {
            channel_capacity: 64,
            ring_capacity: 64,
        }
    }

    #[test]
    fn every_subscriber_sees_the_identical_stream() {
        let mut reference = ddos_pipeline(50_000);
        let reference = reference.run(4);

        let mut caster = Hub::new(roomy());
        let subs: Vec<Sub> = (0..3)
            .map(|_| caster.subscribe(StartOffset::Origin))
            .collect();
        let mut stream = ddos_pipeline(50_000);
        let summary = run(&mut caster, &mut stream, 4);
        assert_eq!(summary.windows, 4);
        assert_eq!(summary.subscribers, 3);
        for sub in &subs {
            let received = sub.drain();
            assert_eq!(received.len(), 4);
            assert_eq!(sub.delivered(), 4);
            assert_eq!(sub.dropped(), 0);
            assert_eq!(sub.missed(), 0);
            for (reference, received) in reference.iter().zip(&received) {
                assert_eq!(reference.matrix, received.matrix, "cell-for-cell");
                // Everything but the wall-clock elapsed is deterministic
                // across two runs of the same seeded scenario.
                assert_eq!(reference.stats.window_index, received.stats.window_index);
                assert_eq!(reference.stats.events, received.stats.events);
                assert_eq!(reference.stats.packets, received.stats.packets);
                assert_eq!(reference.stats.nnz, received.stats.nnz);
            }
            assert!(sub.recv().is_none(), "closed after drain");
        }
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn late_joiner_catches_up_from_the_ring() {
        let mut stream = ddos_pipeline(50_000);
        let mut caster = Hub::new(roomy());
        let early = caster.subscribe(StartOffset::Origin);
        // Broadcast two windows, then join late asking for window 1.
        step(&caster, &mut stream);
        step(&caster, &mut stream);
        let late = caster.subscribe(StartOffset::Window(1));
        let live = caster.subscribe(StartOffset::Live);
        step(&caster, &mut stream);
        caster.close();

        let early: Vec<u64> = early.drain().iter().map(|r| r.stats.window_index).collect();
        let late_seen: Vec<u64> = late.drain().iter().map(|r| r.stats.window_index).collect();
        let live_seen: Vec<u64> = live.drain().iter().map(|r| r.stats.window_index).collect();
        assert_eq!(early, vec![0, 1, 2]);
        assert_eq!(late_seen, vec![1, 2], "ring caught the late joiner up");
        assert_eq!(live_seen, vec![2], "live join sees only the future");
        assert_eq!(late.missed(), 0);
    }

    #[test]
    fn future_start_offsets_skip_earlier_windows() {
        let mut caster = Hub::new(roomy());
        let sub = caster.subscribe(StartOffset::Window(2));
        let mut stream = ddos_pipeline(50_000);
        run(&mut caster, &mut stream, 4);
        let seen: Vec<u64> = sub.drain().iter().map(|r| r.stats.window_index).collect();
        assert_eq!(seen, vec![2, 3], "windows before the start are skipped");
        assert_eq!(sub.delivered(), 2);
        assert_eq!(sub.dropped(), 0, "skipped windows are not drops");
        assert_eq!(sub.missed(), 0, "nor misses");
    }

    #[test]
    fn windows_older_than_the_ring_are_counted_missed() {
        let mut stream = ddos_pipeline(50_000);
        let mut caster = Hub::new(BroadcastConfig {
            channel_capacity: 8,
            ring_capacity: 2,
        });
        for _ in 0..4 {
            step(&caster, &mut stream);
        }
        // Ring now holds windows {2, 3}; an Origin joiner wanted 0..=3.
        let sub = caster.subscribe(StartOffset::Origin);
        let seen: Vec<u64> = sub.drain().iter().map(|r| r.stats.window_index).collect();
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(sub.missed(), 2, "windows 0 and 1 already left the ring");
        caster.close();
    }

    #[test]
    fn slow_subscribers_drop_with_accounting_instead_of_stalling() {
        let telemetry = TelemetryHub::new();
        let mut caster = Hub::with_telemetry(
            BroadcastConfig {
                channel_capacity: 2,
                ring_capacity: 8,
            },
            telemetry.clone(),
        );
        let slow = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        let summary = run(&mut caster, &mut stream, 5);
        assert_eq!(summary.windows, 5);
        // Capacity 2 and nobody draining: 2 delivered, 3 dropped.
        assert_eq!(slow.delivered(), 2);
        assert_eq!(slow.dropped(), 3);
        assert_eq!(summary.reports[0].dropped, 3);
        let lag_events = telemetry
            .drain()
            .into_iter()
            .filter(|e| matches!(e, TelemetryEvent::SubscriberLagged { .. }))
            .count();
        assert_eq!(lag_events, 3, "every drop surfaced on telemetry");
        // The windows that did arrive are the oldest (head-of-line), in order.
        let seen: Vec<u64> = slow.drain().iter().map(|r| r.stats.window_index).collect();
        assert_eq!(seen, vec![0, 1]);
        // Drops still conserve: 2 delivered + 3 dropped == 5 windows.
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn dropped_subscription_detaches_cleanly() {
        let telemetry = TelemetryHub::new();
        let mut caster = Hub::with_telemetry(roomy(), telemetry.clone());
        let keep = caster.subscribe(StartOffset::Origin);
        let leave = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        step(&caster, &mut stream);
        assert_eq!(caster.handle().subscriber_count(), 2);
        drop(leave);
        // The hub notices on the next delivery and retires the slot.
        step(&caster, &mut stream);
        assert_eq!(caster.handle().subscriber_count(), 1);
        let summary = caster.close();
        assert_eq!(summary.subscribers, 2);
        let detached = summary.reports.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(detached.delivered, 1, "got window 0 before leaving");
        assert!(
            detached.left_early,
            "mid-broadcast detach is an early leave"
        );
        assert!(telemetry
            .drain()
            .iter()
            .any(|e| matches!(e, TelemetryEvent::SubscriberDetached { subscriber: 1, .. })));
        assert_eq!(keep.drain().len(), 2);
        let stayed = summary.reports.iter().find(|r| r.id == 0).unwrap();
        assert!(!stayed.left_early);
        // Conservation skips the early leaver but still holds for the class.
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn subscribing_after_close_yields_the_ring_suffix_then_disconnect() {
        let mut caster = Hub::new(roomy());
        let mut stream = ddos_pipeline(50_000);
        run(&mut caster, &mut stream, 3);
        assert!(caster.handle().is_closed());
        let sub = caster.subscribe(StartOffset::Window(1));
        let seen: Vec<u64> = sub.drain().iter().map(|r| r.stats.window_index).collect();
        assert_eq!(seen, vec![1, 2]);
        assert!(sub.recv().is_none());
    }

    #[test]
    fn threaded_consumers_all_receive_every_window() {
        let mut caster = Hub::new(roomy());
        let subs: Vec<Sub> = (0..8)
            .map(|_| caster.subscribe(StartOffset::Origin))
            .collect();
        let handle = caster.handle();
        std::thread::scope(|scope| {
            let consumers: Vec<_> = subs
                .into_iter()
                .map(|sub| {
                    scope.spawn(move || {
                        let mut indices = Vec::new();
                        while let Some(report) = sub.recv() {
                            indices.push(report.stats.window_index);
                        }
                        indices
                    })
                })
                .collect();
            let mut stream = ddos_pipeline(50_000);
            let summary = run(&mut caster, &mut stream, 6);
            assert_eq!(summary.windows, 6);
            for consumer in consumers {
                assert_eq!(consumer.join().unwrap(), vec![0, 1, 2, 3, 4, 5]);
            }
        });
        assert!(handle.is_closed());
        assert_eq!(handle.windows_broadcast(), 6);
    }

    #[test]
    fn telemetry_reports_joins_and_close() {
        let telemetry = TelemetryHub::new();
        let mut caster = Hub::with_telemetry(roomy(), telemetry.clone());
        let _sub = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        run(&mut caster, &mut stream, 2);
        let events = telemetry.drain();
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::SubscriberJoined {
                subscriber: 0,
                start_window: 0,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::BroadcastClosed {
                windows: 2,
                subscribers: 1
            }
        )));
        // A subscriber still attached at close detaches (and reports) too.
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::SubscriberDetached {
                subscriber: 0,
                delivered: 2,
                ..
            }
        )));
    }

    #[test]
    fn dropping_the_broadcaster_closes_the_hub() {
        let caster = Hub::new(roomy());
        let sub = caster.subscribe(StartOffset::Origin);
        let handle = caster.handle();
        // No explicit close(): the Drop impl must unblock subscribers even
        // though `handle` keeps the hub state alive.
        drop(caster);
        assert!(handle.is_closed());
        assert!(sub.recv().is_none(), "recv unblocks on drop-close");
    }

    #[test]
    fn step_after_close_is_a_no_op() {
        let mut caster = Hub::new(roomy());
        let mut stream = ddos_pipeline(50_000);
        run(&mut caster, &mut stream, 1);
        assert_eq!(step(&caster, &mut stream), None);
        let again = caster.close();
        assert_eq!(again.windows, 1);
    }

    #[test]
    fn frame_payloads_fan_out_the_same_bytes_to_everyone() {
        // The serving-tier instantiation: encoded frames, shared by pointer.
        let mut hub: BroadcastHub<Arc<[u8]>> = BroadcastHub::new(roomy());
        let subs: Vec<HubSubscription<Arc<[u8]>>> =
            (0..3).map(|_| hub.subscribe(StartOffset::Origin)).collect();
        let frames: Vec<Arc<[u8]>> = (0u8..4).map(|i| Arc::from(vec![i; 8])).collect();
        for (i, frame) in frames.iter().enumerate() {
            hub.publish_window(i as u64, frame.clone());
        }
        let summary = hub.close();
        assert_eq!(summary.windows, 4);
        for sub in &subs {
            let received = sub.drain();
            assert_eq!(received.len(), 4);
            for (frame, got) in frames.iter().zip(&received) {
                assert!(Arc::ptr_eq(frame, got), "fan-out shares, never copies");
            }
        }
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn frame_payload_lag_drop_is_deterministic() {
        // Nothing drains the channel, so capacity bounds delivery exactly:
        // the first `capacity` frames are delivered, every later one drops.
        let hub: BroadcastHub<Arc<[u8]>> = BroadcastHub::new(BroadcastConfig {
            channel_capacity: 1,
            ring_capacity: 8,
        });
        let stalled = hub.subscribe(StartOffset::Origin);
        for i in 0..5u64 {
            hub.publish_window(i, Arc::from(vec![0u8; 4]));
        }
        assert_eq!(stalled.delivered(), 1);
        assert_eq!(stalled.dropped(), 4);
    }

    #[test]
    fn publish_after_close_is_a_no_op() {
        let mut hub: BroadcastHub<Arc<[u8]>> = BroadcastHub::new(roomy());
        let sub = hub.subscribe(StartOffset::Origin);
        hub.publish_window(0, Arc::from(vec![1u8]));
        hub.close();
        hub.publish_window(1, Arc::from(vec![2u8]));
        assert_eq!(sub.drain().len(), 1, "post-close publishes go nowhere");
        assert_eq!(hub.handle().windows_broadcast(), 1);
    }

    #[test]
    fn roster_totals_sum_every_counter_once() {
        let mut caster = Hub::new(BroadcastConfig {
            channel_capacity: 2,
            ring_capacity: 2,
        });
        let _slow = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        for _ in 0..4 {
            step(&caster, &mut stream);
        }
        // Joins after the ring slid: missed counts too.
        let _late = caster.subscribe(StartOffset::Origin);
        step(&caster, &mut stream);
        let summary = run(&mut caster, &mut stream, 1);
        let totals = summary.totals();
        assert_eq!(
            totals.delivered,
            summary.reports.iter().map(|r| r.delivered).sum::<u64>()
        );
        assert_eq!(
            totals.dropped,
            summary.reports.iter().map(|r| r.dropped).sum::<u64>()
        );
        assert_eq!(
            totals.missed,
            summary.reports.iter().map(|r| r.missed).sum::<u64>()
        );
        // Slow subscriber dropped, late subscriber missed — and the books
        // still balance for both.
        assert!(totals.dropped > 0);
        assert!(totals.missed > 0);
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn instrumented_hub_counters_match_the_summary() {
        let registry = MetricsRegistry::new();
        let mut caster = Hub::with_instrumentation(
            BroadcastConfig {
                channel_capacity: 2,
                ring_capacity: 2,
            },
            None,
            Some(&registry),
        );
        let _slow = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        for _ in 0..4 {
            step(&caster, &mut stream);
        }
        // Joins after the ring slid, so misses land on the registry too.
        let _late = caster.subscribe(StartOffset::Origin);
        let summary = run(&mut caster, &mut stream, 2);
        let totals = summary.totals();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("broadcast.windows"), summary.windows);
        assert_eq!(snapshot.counter("broadcast.delivered"), totals.delivered);
        assert_eq!(snapshot.counter("broadcast.dropped"), totals.dropped);
        assert_eq!(snapshot.counter("broadcast.missed"), totals.missed);
        assert!(totals.dropped > 0, "the slow subscriber lagged");
        assert!(totals.missed > 0, "the late joiner missed the ring");
        assert_eq!(
            snapshot.histogram("broadcast.fanout_ns").unwrap().count,
            summary.windows
        );
        assert!(snapshot.histogram("broadcast.queue_depth").unwrap().count > 0);
        assert_eq!(snapshot.gauge("broadcast.subscribers"), 0, "closed");
        assert!(snapshot.gauge("broadcast.ring_occupancy") > 0);
    }

    #[test]
    fn catchup_rewrite_replaces_the_ring_suffix_for_joiners() {
        // The serving tier's shape: the ring holds payloads a joiner cannot
        // use mid-chain, so a rewrite materializes a fresh head entry and
        // passes the rest through. Entries it declines count as missed.
        let hub: BroadcastHub<Arc<[u8]>> = BroadcastHub::new(BroadcastConfig {
            channel_capacity: 8,
            ring_capacity: 8,
        });
        for i in 0..5u64 {
            hub.publish_window(i, Arc::from(vec![i as u8; 2]));
        }
        hub.set_catchup_rewrite(|ring, start| {
            // Skip up to the requested start, then replace the first
            // delivered entry with a rewritten payload.
            let mut out: Vec<(u64, Arc<[u8]>)> =
                ring.iter().filter(|(i, _)| *i >= start).cloned().collect();
            if let Some((_, payload)) = out.first_mut() {
                *payload = Arc::from(vec![0xAAu8; 2]);
            }
            out
        });
        let sub = hub.subscribe(StartOffset::Window(2));
        let frames = sub.drain();
        assert_eq!(frames.len(), 3, "windows 2, 3, 4");
        assert_eq!(frames[0].as_ref(), &[0xAA, 0xAA], "head was rewritten");
        assert_eq!(frames[1].as_ref(), &[3, 3], "tail passes through");
        assert_eq!(sub.missed(), 0);

        // A rewrite that starts later than asked books the gap as missed,
        // and an empty rewrite books the whole wanted range.
        hub.set_catchup_rewrite(|ring, start| {
            ring.iter()
                .filter(|(i, _)| *i >= start.max(4))
                .cloned()
                .collect()
        });
        let partial = hub.subscribe(StartOffset::Window(1));
        assert_eq!(partial.drain().len(), 1, "only window 4");
        assert_eq!(partial.missed(), 3, "windows 1..=3 were declined");
        hub.set_catchup_rewrite(|_, _| Vec::new());
        let none = hub.subscribe(StartOffset::Origin);
        assert!(none.drain().is_empty());
        assert_eq!(none.missed(), 5, "all five broadcast windows");
    }

    #[test]
    fn catchup_rewrite_keeps_the_conservation_law() {
        let mut hub: BroadcastHub<Arc<[u8]>> = BroadcastHub::new(BroadcastConfig {
            channel_capacity: 8,
            ring_capacity: 4,
        });
        hub.set_catchup_rewrite(|ring, start| {
            ring.iter().filter(|(i, _)| *i >= start).cloned().collect()
        });
        for i in 0..6u64 {
            hub.publish_window(i, Arc::from(vec![0u8]));
        }
        // Ring holds 2..=5; an Origin joiner gets those, misses 0 and 1,
        // then receives 6 and 7 live.
        let sub = hub.subscribe(StartOffset::Origin);
        for i in 6..8u64 {
            hub.publish_window(i, Arc::from(vec![0u8]));
        }
        let summary = hub.close();
        assert_eq!(sub.drain().len(), 6);
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn conservation_error_pinpoints_a_cooked_report() {
        let mut caster = Hub::new(roomy());
        let _sub = caster.subscribe(StartOffset::Origin);
        let mut stream = ddos_pipeline(50_000);
        let mut summary = run(&mut caster, &mut stream, 3);
        assert_eq!(summary.conservation_error(), None);
        summary.reports[0].delivered += 1;
        let err = summary
            .conservation_error()
            .expect("books no longer balance");
        assert!(err.contains("subscriber 0"), "{err}");
        // An early leaver with the same cooked counters is exempt.
        summary.reports[0].left_early = true;
        assert_eq!(summary.conservation_error(), None);
    }
}
