//! Gameplay telemetry.
//!
//! The paper's future work calls for "measuring the outcome and effect on the
//! student"; the telemetry hub is the hook for that: every significant game
//! event is published on a channel that an educator dashboard (or, here, the
//! classroom simulator in `tw-sim`) can consume without coupling to the game
//! loop.
//!
//! The hub's channel is **bounded** with a drop-oldest policy: a dashboard
//! that stops draining can never grow the game's memory without bound.
//! When the buffer is full, [`TelemetryHub::publish`] discards the *oldest*
//! buffered event to make room for the new one (the most recent events are
//! the ones an educator reconnecting mid-lesson needs) and counts the loss
//! in [`TelemetryHub::dropped`].

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default event buffer capacity (see [`TelemetryHub::with_capacity`]).
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 1024;

/// A gameplay event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A bundle was opened; contains the bundle name and module count.
    BundleLoaded { name: String, modules: usize },
    /// A module was presented; contains its index and name.
    ModuleStarted { index: usize, name: String },
    /// The student toggled between the 2-D and 3-D views.
    ViewToggled { now_3d: bool },
    /// The student rotated the 3-D view; contains the new step count.
    ViewRotated { steps: i32 },
    /// The student toggled pallet colors.
    ColorsToggled { now_colored: bool },
    /// The student answered the module's question.
    Answered { module_index: usize, correct: bool },
    /// The module was completed (question answered or skipped).
    ModuleCompleted { index: usize },
    /// The whole bundle was completed; contains the final correct/answered counts.
    SessionCompleted { correct: usize, answered: usize },
    /// A live ingest window re-palleted the warehouse scene.
    LiveWindow {
        window_index: u64,
        events: u64,
        nnz: usize,
    },
    /// A student subscribed to a window broadcast: its catch-up starts at
    /// `start_window` (the catch-up ring's first key frame) with `caught_up`
    /// frames, and `missed` counts the windows before it.
    SubscriberJoined {
        subscriber: usize,
        start_window: u64,
        caught_up: u64,
        missed: u64,
    },
    /// A subscriber's channel was full when a window was broadcast, so the
    /// window was dropped for that subscriber; `dropped` is its running total.
    SubscriberLagged {
        subscriber: usize,
        window_index: u64,
        dropped: u64,
    },
    /// A subscriber detached (its receiving half was dropped) or the
    /// broadcast closed while it was still attached.
    SubscriberDetached {
        subscriber: usize,
        delivered: u64,
        dropped: u64,
    },
    /// The broadcast finished; contains the window count and how many
    /// subscribers ever joined.
    BroadcastClosed { windows: u64, subscribers: usize },
    /// A remote peer connected to the serving tier and was subscribed; the
    /// subscriber id ties later `Subscriber*` events back to the address.
    PeerConnected { subscriber: usize, peer: String },
}

/// A telemetry publisher/consumer pair backed by a bounded channel with a
/// drop-oldest overflow policy.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    sender: Sender<TelemetryEvent>,
    receiver: Receiver<TelemetryEvent>,
    /// Events discarded by the drop-oldest policy; shared by every clone of
    /// this hub.
    dropped: Arc<AtomicU64>,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryHub {
    /// Create a hub buffering up to [`DEFAULT_TELEMETRY_CAPACITY`] events.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TELEMETRY_CAPACITY)
    }

    /// Create a hub buffering up to `capacity` events (at least 1). When the
    /// buffer is full the oldest buffered event is discarded — and counted —
    /// to admit the new one.
    pub fn with_capacity(capacity: usize) -> Self {
        let (sender, receiver) = bounded(capacity.max(1));
        TelemetryHub {
            sender,
            receiver,
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Publish an event (never blocks). On a full buffer the oldest buffered
    /// event is dropped to make room, and the drop is counted.
    pub fn publish(&self, event: TelemetryEvent) {
        let mut event = event;
        loop {
            match self.sender.try_send(event) {
                Ok(()) => return,
                Err(TrySendError::Full(back)) => {
                    // Drop-oldest: evict the head and retry. Another consumer
                    // may race the eviction; either way a slot opens up (or
                    // the queue empties), so this loop terminates.
                    if self.receiver.try_recv().is_ok() {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    event = back;
                }
                // The receiver half lives as long as self, so this is
                // unreachable; drop the event rather than panic if a future
                // refactor changes that.
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }

    /// Drain every event published so far.
    pub fn drain(&self) -> Vec<TelemetryEvent> {
        let mut events = Vec::new();
        while let Ok(event) = self.receiver.try_recv() {
            events.push(event);
        }
        events
    }

    /// Number of events waiting to be drained.
    pub fn pending(&self) -> usize {
        self.receiver.len()
    }

    /// Total events discarded by the drop-oldest overflow policy since the
    /// hub was created (shared across clones).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_drain_in_order() {
        let hub = TelemetryHub::new();
        hub.publish(TelemetryEvent::BundleLoaded {
            name: "DDoS".into(),
            modules: 4,
        });
        hub.publish(TelemetryEvent::ModuleStarted {
            index: 0,
            name: "C2".into(),
        });
        assert_eq!(hub.pending(), 2);
        let events = hub.drain();
        assert_eq!(events.len(), 2);
        assert!(
            matches!(events[0], TelemetryEvent::BundleLoaded { ref name, modules: 4 } if name == "DDoS")
        );
        assert_eq!(hub.pending(), 0);
        assert!(hub.drain().is_empty());
        assert_eq!(hub.dropped(), 0);
    }

    #[test]
    fn publishers_work_across_threads() {
        // A hub clone is the cross-thread publishing handle; unlike a raw
        // channel sender it preserves the drop-oldest policy (publish never
        // blocks, even against a stopped consumer).
        let hub = TelemetryHub::with_capacity(4);
        let publisher = hub.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..10 {
                publisher.publish(TelemetryEvent::ModuleCompleted { index: i });
            }
        });
        handle.join().unwrap();
        assert_eq!(hub.drain().len(), 4, "bounded even from another thread");
        assert_eq!(hub.dropped(), 6);
    }

    #[test]
    fn full_buffer_drops_the_oldest_and_counts_it() {
        let hub = TelemetryHub::with_capacity(3);
        for i in 0..8 {
            hub.publish(TelemetryEvent::ModuleCompleted { index: i });
        }
        // Capacity 3: the 8 publishes kept only the newest 3 events.
        assert_eq!(hub.pending(), 3);
        assert_eq!(hub.dropped(), 5);
        let events = hub.drain();
        assert_eq!(
            events,
            vec![
                TelemetryEvent::ModuleCompleted { index: 5 },
                TelemetryEvent::ModuleCompleted { index: 6 },
                TelemetryEvent::ModuleCompleted { index: 7 },
            ],
            "the newest events survive"
        );
        // Clones share the dropped counter.
        let clone = hub.clone();
        assert_eq!(clone.dropped(), 5);
    }

    #[test]
    fn slow_consumer_memory_stays_bounded() {
        let hub = TelemetryHub::with_capacity(16);
        for i in 0..10_000 {
            hub.publish(TelemetryEvent::LiveWindow {
                window_index: i,
                events: 1,
                nnz: 1,
            });
        }
        assert_eq!(hub.pending(), 16, "buffer never exceeds its capacity");
        assert_eq!(hub.dropped(), 10_000 - 16);
        // The retained suffix is the newest windows, in order.
        let events = hub.drain();
        assert!(
            matches!(events[0], TelemetryEvent::LiveWindow { window_index, .. } if window_index == 10_000 - 16)
        );
    }
}
