//! The classroom fan-out hub: one frame stream, many subscribers.
//!
//! The paper's premise is a *classroom* inspecting the same traffic-matrix
//! scenario together. [`serve`](crate::serve) frames each window once and
//! hands the frame to a [`BroadcastHub`] ([`BroadcastHub::publish_window`]),
//! which pushes it over bounded crossbeam channels to every subscriber — one
//! per TCP connection. Fan-out costs an `Arc` clone per student, never a
//! copy of the frame bytes.
//!
//! * **Late joiners** catch up from a bounded ring of the most recent
//!   frames, starting at the ring's first key frame: the first frame a
//!   fresh decoder can read. Every earlier window, in the ring or already
//!   out of it, is counted as `missed` rather than silently skipped. Under
//!   full-frame serving every frame is a key frame, so a joiner gets the
//!   whole ring.
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

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tw_game::telemetry::{TelemetryEvent, TelemetryHub};
use tw_metrics::{Counter, Gauge, Histogram, MetricsRegistry, StageTimer};

/// Pre-resolved metric handles for the fan-out stage, all under the
/// `broadcast.` prefix. `None` on the hub disables every update.
#[derive(Clone, Debug)]
struct HubMetrics {
    /// `broadcast.windows`: frames broadcast so far.
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
    /// Bounded depth of each subscriber's frame channel; a subscriber more
    /// than this many windows behind starts dropping (and counting) them.
    pub channel_capacity: usize,
    /// Recent frames retained for late-joiner catch-up.
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
    /// Windows the hub had published when the subscriber joined.
    pub joined_at: u64,
    /// Windows enqueued to the subscriber's channel.
    pub delivered: u64,
    /// Windows dropped because the subscriber's channel was full.
    pub dropped: u64,
    /// Windows before the first one the subscriber received: those that had
    /// left the catch-up ring, or preceded its first key frame, at join time.
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
    /// end this equals the windows broadcast — the conservation law
    /// [`BroadcastSummary::conservation_error`] checks.
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
    /// Windows missed (before the join's first frame) across all subscribers.
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
    /// accounted for exactly the windows broadcast (`delivered + dropped +
    /// missed == windows`). Returns a description of the first violation,
    /// or `None` when the books balance. Early leavers are skipped — their
    /// counters froze at the detach.
    pub fn conservation_error(&self) -> Option<String> {
        self.reports
            .iter()
            .find(|r| !r.left_early && r.accounted() != self.windows)
            .map(|r| {
                format!(
                    "subscriber {} accounted {} window(s) (delivered {} + dropped {} + \
                     missed {}) but the broadcast served {}",
                    r.id,
                    r.accounted(),
                    r.delivered,
                    r.dropped,
                    r.missed,
                    self.windows
                )
            })
    }
}

struct Slot {
    id: usize,
    joined_at: u64,
    sender: Sender<Arc<[u8]>>,
    counters: Arc<SharedCounters>,
    detached: bool,
}

impl Slot {
    fn report(&self, left_early: bool) -> SubscriberReport {
        SubscriberReport {
            id: self.id,
            joined_at: self.joined_at,
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            missed: self.counters.missed.load(Ordering::Relaxed),
            left_early,
        }
    }
}

/// One published frame in the catch-up ring. The window index rides
/// alongside the bytes because a frame cannot answer for its own position
/// in the stream without being parsed.
struct RingEntry {
    index: u64,
    frame: Arc<[u8]>,
    /// Whether the frame decodes on its own (a full window, not a delta).
    key: bool,
}

struct HubState {
    config: BroadcastConfig,
    telemetry: Option<TelemetryHub>,
    metrics: Option<HubMetrics>,
    ring: VecDeque<RingEntry>,
    /// The index the next broadcast window will carry (== windows broadcast
    /// so far, since window indices are consecutive from 0).
    next_index: u64,
    closed: bool,
    next_id: usize,
    active: Vec<Slot>,
    /// Reports of subscribers that already detached.
    finished: Vec<SubscriberReport>,
}

impl HubState {
    fn publish(&self, event: TelemetryEvent) {
        if let Some(hub) = &self.telemetry {
            hub.publish(event);
        }
    }

    fn subscribe(&mut self) -> HubSubscription {
        let id = self.next_id;
        self.next_id += 1;
        let (sender, receiver) = bounded(self.config.channel_capacity);
        let counters = Arc::new(SharedCounters::default());
        // Catch up from the ring's first key frame, the first frame a fresh
        // decoder can read; every window before it counts as missed.
        let skip = self
            .ring
            .iter()
            .position(|entry| entry.key)
            .unwrap_or(self.ring.len());
        let start_window = self
            .ring
            .get(skip)
            .map_or(self.next_index, |entry| entry.index);
        counters.missed.store(start_window, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.missed.add(start_window);
        }
        let mut slot = Slot {
            id,
            joined_at: self.next_index,
            sender,
            counters: counters.clone(),
            detached: false,
        };
        for entry in self.ring.iter().skip(skip) {
            deliver(
                &mut slot,
                entry.index,
                &entry.frame,
                self.telemetry.as_ref(),
                self.metrics.as_ref(),
            );
        }
        self.publish(TelemetryEvent::SubscriberJoined {
            subscriber: id,
            start_window,
            caught_up: (self.ring.len() - skip) as u64,
            missed: start_window,
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
            receiver,
            counters,
        }
    }

    fn broadcast(&mut self, index: u64, frame: Arc<[u8]>, key: bool) {
        {
            let _fanout = StageTimer::start(self.metrics.as_ref().map(|m| &m.fanout_ns));
            for slot in &mut self.active {
                deliver(
                    slot,
                    index,
                    &frame,
                    self.telemetry.as_ref(),
                    self.metrics.as_ref(),
                );
            }
        }
        self.ring.push_back(RingEntry { index, frame, key });
        while self.ring.len() > self.config.ring_capacity {
            self.ring.pop_front();
        }
        if let Some(m) = &self.metrics {
            m.windows.inc();
            m.ring_occupancy.set(self.ring.len() as i64);
            // One queue-depth sample per subscriber per window: how far each
            // consumer is running behind right after the fan-out.
            for slot in &self.active {
                m.queue_depth.observe(slot.sender.len() as u64);
            }
        }
        self.retire_detached();
        if let Some(m) = &self.metrics {
            m.subscribers.set(self.active.len() as i64);
        }
        self.next_index = index + 1;
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

/// Enqueue one frame to one subscriber, with lag accounting.
fn deliver(
    slot: &mut Slot,
    index: u64,
    frame: &Arc<[u8]>,
    telemetry: Option<&TelemetryHub>,
    metrics: Option<&HubMetrics>,
) {
    if slot.detached {
        return;
    }
    match slot.sender.try_send(frame.clone()) {
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
#[derive(Clone)]
pub struct HubHandle {
    state: Arc<Mutex<HubState>>,
}

impl HubHandle {
    fn lock(&self) -> MutexGuard<'_, HubState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Subscribe a new consumer. Works before, during and after the
    /// broadcast; ring catch-up from the first key frame is delivered
    /// immediately.
    pub fn subscribe(&self) -> HubSubscription {
        self.lock().subscribe()
    }

    /// Windows broadcast so far.
    pub fn windows_broadcast(&self) -> u64 {
        self.lock().next_index
    }

    /// Whether the broadcast has closed.
    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
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

impl std::fmt::Debug for HubHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HubHandle { .. }")
    }
}

/// The hub that fans one indexed frame stream out to N subscribers.
pub struct BroadcastHub {
    handle: HubHandle,
}

impl BroadcastHub {
    /// A hub with optional telemetry (subscriber lifecycle and lag events)
    /// and optional metrics: fan-out timing, roster-wide delivered/dropped/
    /// missed counters, queue-depth samples, and ring/subscriber gauges land
    /// on `registry` under `broadcast.*`.
    pub fn new(
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
        let state = HubState {
            config,
            telemetry,
            metrics: registry.map(HubMetrics::new),
            ring: VecDeque::new(),
            next_index: 0,
            closed: false,
            next_id: 0,
            active: Vec::new(),
            finished: Vec::new(),
        };
        BroadcastHub {
            handle: HubHandle {
                state: Arc::new(Mutex::new(state)),
            },
        }
    }

    /// A clonable handle for subscribing from other threads.
    pub fn handle(&self) -> HubHandle {
        self.handle.clone()
    }

    /// Subscribe a consumer (convenience for [`HubHandle::subscribe`]).
    pub fn subscribe(&self) -> HubSubscription {
        self.handle.subscribe()
    }

    /// Broadcast one frame carrying the given window index; `key` says the
    /// frame decodes on its own, so a late joiner may start there.
    ///
    /// Indices must be consecutive from 0 (the contract every
    /// `WindowStream` already honors) for missed/ring accounting to be
    /// exact. Publishing on a closed hub is a no-op.
    pub fn publish_window(&self, index: u64, frame: Arc<[u8]>, key: bool) {
        let mut state = self.handle.lock();
        if !state.closed {
            state.broadcast(index, frame, key);
        }
    }

    /// Close the broadcast: every subscriber channel disconnects once
    /// drained. Idempotent; returns the (final) summary.
    pub fn close(&mut self) -> BroadcastSummary {
        self.handle.lock().close()
    }
}

/// Dropping the hub closes it unconditionally (idempotent), so subscribers
/// blocked in `recv()` always unblock — even when a panic or an early return
/// skips the explicit [`BroadcastHub::close`] (surviving [`HubHandle`]
/// clones keep the channel senders alive otherwise).
impl Drop for BroadcastHub {
    fn drop(&mut self) {
        self.handle.lock().close();
    }
}

impl std::fmt::Debug for BroadcastHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.handle.lock();
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
pub struct HubSubscription {
    id: usize,
    receiver: Receiver<Arc<[u8]>>,
    counters: Arc<SharedCounters>,
}

impl HubSubscription {
    /// The subscriber id the hub assigned (subscription order from 0).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Block until the next frame arrives; `None` once the broadcast has
    /// closed and everything buffered has been received.
    pub fn recv(&self) -> Option<Arc<[u8]>> {
        self.receiver.recv().ok()
    }

    /// The next frame, if one is already buffered.
    pub fn try_recv(&self) -> Option<Arc<[u8]>> {
        self.receiver.try_recv().ok()
    }

    /// Drain every currently buffered frame.
    pub fn drain(&self) -> Vec<Arc<[u8]>> {
        let mut out = Vec::new();
        while let Some(frame) = self.try_recv() {
            out.push(frame);
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

    /// Windows before the first one this subscription received at join.
    pub fn missed(&self) -> u64 {
        self.counters.missed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_ingest::frame::{read_raw_frame, window_frame};
    use tw_ingest::{decode_window, Pipeline, PipelineConfig, Scenario};

    /// A stand-in frame whose bytes name its window index: the hub never
    /// looks inside a frame, so most tests need nothing heavier.
    fn frame(index: u64) -> Arc<[u8]> {
        Arc::from(index.to_le_bytes().as_slice())
    }

    /// The window indices of every frame buffered for `sub`.
    fn indices(sub: &HubSubscription) -> Vec<u64> {
        sub.drain()
            .iter()
            .map(|f| u64::from_le_bytes(f.as_ref().try_into().unwrap()))
            .collect()
    }

    /// Publish the next window as a key frame; `None` once the hub is closed.
    fn step(hub: &BroadcastHub) -> Option<u64> {
        let handle = hub.handle();
        if handle.is_closed() {
            return None;
        }
        let index = handle.windows_broadcast();
        hub.publish_window(index, frame(index), true);
        Some(index)
    }

    /// Publish `windows` key frames, then close the hub.
    fn run(hub: &mut BroadcastHub, windows: usize) -> BroadcastSummary {
        for _ in 0..windows {
            step(hub);
        }
        hub.close()
    }

    fn hub(channel_capacity: usize, ring_capacity: usize) -> BroadcastHub {
        let config = BroadcastConfig {
            channel_capacity,
            ring_capacity,
        };
        BroadcastHub::new(config, None, None)
    }

    fn roomy() -> BroadcastHub {
        hub(64, 64)
    }

    fn ddos_pipeline() -> Pipeline {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(128, 7), config)
    }

    #[test]
    fn every_subscriber_sees_the_identical_stream() {
        let reference = ddos_pipeline().run(4);
        let mut caster = roomy();
        let subs: Vec<HubSubscription> = (0..3).map(|_| caster.subscribe()).collect();
        for report in &reference {
            let frame = window_frame(report, None);
            caster.publish_window(report.stats.window_index, frame.bytes, true);
        }
        let summary = caster.close();
        assert_eq!(summary.windows, 4);
        assert_eq!(summary.subscribers, 3);
        for sub in &subs {
            let received = sub.drain();
            assert_eq!(received.len(), 4);
            assert_eq!(sub.delivered(), 4);
            assert_eq!(sub.dropped(), 0);
            assert_eq!(sub.missed(), 0);
            for (reference, frame) in reference.iter().zip(&received) {
                let (_, payload) = read_raw_frame(&mut &frame[..]).unwrap();
                let received = decode_window(&payload).unwrap();
                assert_eq!(reference.matrix, received.matrix, "cell-for-cell");
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
        let mut caster = roomy();
        let early = caster.subscribe();
        // Broadcast two windows, then join late.
        step(&caster);
        step(&caster);
        let late = caster.subscribe();
        step(&caster);
        let summary = caster.close();
        assert_eq!(indices(&early), vec![0, 1, 2]);
        assert_eq!(
            indices(&late),
            vec![0, 1, 2],
            "ring caught the late joiner up"
        );
        assert_eq!(late.missed(), 0);
        assert_eq!(summary.reports[1].joined_at, 2);
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn joined_at_is_the_published_window_count() {
        let mut caster = roomy();
        let _early = caster.subscribe();
        for _ in 0..3 {
            step(&caster);
        }
        let _late = caster.subscribe();
        let summary = run(&mut caster, 1);
        assert_eq!(summary.reports[0].joined_at, 0);
        assert_eq!(summary.reports[1].joined_at, 3);
    }

    #[test]
    fn windows_older_than_the_ring_are_counted_missed() {
        let mut caster = hub(8, 2);
        for _ in 0..4 {
            step(&caster);
        }
        // Ring now holds windows {2, 3}; a joiner wanted 0..=3.
        let sub = caster.subscribe();
        assert_eq!(indices(&sub), vec![2, 3]);
        assert_eq!(sub.missed(), 2, "windows 0 and 1 already left the ring");
        caster.close();
    }

    #[test]
    fn catchup_starts_at_the_rings_first_key_frame() {
        // Ring 4, key frames every 3rd window (0, 3, 6, ...).
        let mut caster = hub(8, 4);
        let publish = |caster: &BroadcastHub, windows: std::ops::Range<u64>| {
            for i in windows {
                caster.publish_window(i, frame(i), i % 3 == 0);
            }
        };
        publish(&caster, 0..7);
        // The ring holds w3..=w6 and starts on a key frame.
        let first = caster.subscribe();
        assert_eq!(indices(&first), vec![3, 4, 5, 6]);
        assert_eq!(first.missed(), 3);
        publish(&caster, 7..8);
        // The ring holds w4..=w7: w4 and w5 are deltas without their base.
        let second = caster.subscribe();
        assert_eq!(indices(&second), vec![6, 7]);
        assert_eq!(second.missed(), 6);
        let summary = caster.close();
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn slow_subscribers_drop_with_accounting_instead_of_stalling() {
        let telemetry = TelemetryHub::new();
        let config = BroadcastConfig {
            channel_capacity: 2,
            ring_capacity: 8,
        };
        let mut caster = BroadcastHub::new(config, Some(telemetry.clone()), None);
        let slow = caster.subscribe();
        let summary = run(&mut caster, 5);
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
        assert_eq!(indices(&slow), vec![0, 1]);
        // Drops still conserve: 2 delivered + 3 dropped == 5 windows.
        assert_eq!(summary.conservation_error(), None);
    }

    #[test]
    fn dropped_subscription_detaches_cleanly() {
        let telemetry = TelemetryHub::new();
        let config = BroadcastConfig {
            channel_capacity: 64,
            ring_capacity: 64,
        };
        let mut caster = BroadcastHub::new(config, Some(telemetry.clone()), None);
        let keep = caster.subscribe();
        let leave = caster.subscribe();
        step(&caster);
        assert_eq!(caster.handle().subscriber_count(), 2);
        drop(leave);
        // The hub notices on the next delivery and retires the slot.
        step(&caster);
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
        let mut caster = hub(64, 2);
        run(&mut caster, 3);
        assert!(caster.handle().is_closed());
        let sub = caster.subscribe();
        assert_eq!(indices(&sub), vec![1, 2]);
        assert_eq!(sub.missed(), 1);
        assert!(sub.recv().is_none());
    }

    #[test]
    fn threaded_consumers_all_receive_every_window() {
        let mut caster = roomy();
        let subs: Vec<HubSubscription> = (0..8).map(|_| caster.subscribe()).collect();
        let handle = caster.handle();
        std::thread::scope(|scope| {
            let consumers: Vec<_> = subs
                .into_iter()
                .map(|sub| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        while let Some(frame) = sub.recv() {
                            seen.push(u64::from_le_bytes(frame.as_ref().try_into().unwrap()));
                        }
                        seen
                    })
                })
                .collect();
            let summary = run(&mut caster, 6);
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
        let mut caster =
            BroadcastHub::new(BroadcastConfig::default(), Some(telemetry.clone()), None);
        let _sub = caster.subscribe();
        run(&mut caster, 2);
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
        let caster = roomy();
        let sub = caster.subscribe();
        let handle = caster.handle();
        // No explicit close(): the Drop impl must unblock subscribers even
        // though `handle` keeps the hub state alive.
        drop(caster);
        assert!(handle.is_closed());
        assert!(sub.recv().is_none(), "recv unblocks on drop-close");
    }

    #[test]
    fn step_after_close_is_a_no_op() {
        let mut caster = roomy();
        run(&mut caster, 1);
        assert_eq!(step(&caster), None);
        let again = caster.close();
        assert_eq!(again.windows, 1);
    }

    #[test]
    fn frame_payloads_fan_out_the_same_bytes_to_everyone() {
        let mut caster = roomy();
        let subs: Vec<HubSubscription> = (0..3).map(|_| caster.subscribe()).collect();
        let frames: Vec<Arc<[u8]>> = (0u8..4).map(|i| Arc::from(vec![i; 8])).collect();
        for (i, frame) in frames.iter().enumerate() {
            caster.publish_window(i as u64, frame.clone(), true);
        }
        let summary = caster.close();
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
        let caster = hub(1, 8);
        let stalled = caster.subscribe();
        for i in 0..5u64 {
            caster.publish_window(i, frame(i), true);
        }
        assert_eq!(stalled.delivered(), 1);
        assert_eq!(stalled.dropped(), 4);
    }

    #[test]
    fn publish_after_close_is_a_no_op() {
        let mut caster = roomy();
        let sub = caster.subscribe();
        caster.publish_window(0, frame(0), true);
        caster.close();
        caster.publish_window(1, frame(1), true);
        assert_eq!(sub.drain().len(), 1, "post-close publishes go nowhere");
        assert_eq!(caster.handle().windows_broadcast(), 1);
    }

    #[test]
    fn roster_totals_sum_every_counter_once() {
        let mut caster = hub(2, 2);
        let _slow = caster.subscribe();
        for _ in 0..4 {
            step(&caster);
        }
        // Joins after the ring slid: missed counts too.
        let _late = caster.subscribe();
        step(&caster);
        let summary = run(&mut caster, 1);
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
        let config = BroadcastConfig {
            channel_capacity: 2,
            ring_capacity: 2,
        };
        let mut caster = BroadcastHub::new(config, None, Some(&registry));
        let _slow = caster.subscribe();
        for _ in 0..4 {
            step(&caster);
        }
        // Joins after the ring slid, so misses land on the registry too.
        let _late = caster.subscribe();
        let summary = run(&mut caster, 2);
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
    fn conservation_error_pinpoints_a_cooked_report() {
        let mut caster = roomy();
        let _sub = caster.subscribe();
        let mut summary = run(&mut caster, 3);
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
