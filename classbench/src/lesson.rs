//! Lesson inputs: scenario events pulled into memory at set-up, and the
//! [`EventSource`] that feeds them back to the program.
//!
//! Generating events costs about as much as ingesting them, so the
//! benchmark pays it once, in set-up, and the program under test only ever
//! pulls pre-generated events. A lesson can be looped (each pass shifted by
//! the lesson's length, so window boundaries line up and pass `k` repeats
//! the lesson's windows cell for cell) and paced on a wall-clock schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tw_core::ingest::EventSource;
use tw_core::matrix::stream::PacketEvent;

/// Scenario events held in memory, covering windows `0..windows`.
#[derive(Debug, Clone)]
pub struct Lesson {
    /// Events in the order the scenario source emitted them.
    pub events: Arc<[PacketEvent]>,
    /// Address-space size.
    pub node_count: u32,
    /// Tumbling-window length in simulated microseconds.
    pub window_us: u64,
    /// Windows the lesson covers.
    pub windows: usize,
    /// Time spent inside the scenario source's `pull`.
    pub gen_ns: u64,
    /// Events the scenario source emitted, including those past the cut.
    pub pulled: u64,
}

impl Lesson {
    /// Pull `source` until its stream has passed window `windows` by more
    /// than `disorder_us`, keeping the events stamped inside the first
    /// `windows` windows. With a disorder bound covering the source's, no
    /// event of a kept window is still to come when the pull stops.
    pub fn generate(
        source: &mut dyn EventSource,
        window_us: u64,
        windows: usize,
        disorder_us: u64,
    ) -> Lesson {
        let end_us = window_us * windows as u64;
        let mut kept = Vec::new();
        let mut batch = Vec::with_capacity(8_192);
        let mut gen_ns = 0u64;
        let mut pulled = 0u64;
        let mut max_ts = 0u64;
        while max_ts < end_us + disorder_us {
            batch.clear();
            let started = Instant::now();
            let n = source.pull(8_192, &mut batch);
            gen_ns += started.elapsed().as_nanos() as u64;
            if n == 0 {
                break;
            }
            pulled += n as u64;
            for event in &batch {
                max_ts = max_ts.max(event.timestamp_us);
                if event.timestamp_us < end_us {
                    kept.push(*event);
                }
            }
        }
        Lesson {
            events: kept.into(),
            node_count: source.node_count(),
            window_us,
            windows,
            gen_ns,
            pulled,
        }
    }

    /// Simulated length of one pass over the lesson.
    pub fn span_us(&self) -> u64 {
        self.window_us * self.windows as u64
    }
}

/// A wall-clock release schedule: `wall_window` of wall time per simulated
/// window, measured from the moment of the first pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pace {
    window_us: u64,
    wall_window_ns: u64,
}

impl Pace {
    /// One simulated `window_us` window per `wall_window` of wall time.
    pub fn new(window_us: u64, wall_window: Duration) -> Pace {
        assert!(window_us > 0, "window must be positive");
        Pace {
            window_us,
            wall_window_ns: wall_window.as_nanos() as u64,
        }
    }

    /// Nanoseconds after the schedule's start at which an event stamped
    /// `timestamp_us` is due.
    pub fn due_ns(&self, timestamp_us: u64) -> u64 {
        (u128::from(timestamp_us) * u128::from(self.wall_window_ns) / u128::from(self.window_us))
            as u64
    }

    /// Whether an event stamped `timestamp_us` is due `elapsed_ns` after the
    /// start: `due_ns(ts) <= elapsed_ns`, as one multiply per event.
    fn is_due(&self, timestamp_us: u64, elapsed_ns: u64) -> bool {
        u128::from(timestamp_us) * u128::from(self.wall_window_ns)
            < (u128::from(elapsed_ns) + 1) * u128::from(self.window_us)
    }
}

/// Time a traced [`LessonSource`] spends in `pull`, and how late each paced
/// pull ran. Shared with the benchmark, since the pipeline owns the source.
#[derive(Debug, Default)]
pub struct SourceTrace {
    /// Total nanoseconds inside `pull`, sleeps included: the caller
    /// subtracts it from its own span to get its self time.
    pub pull_ns: AtomicU64,
    lag_ns: Mutex<Vec<u64>>,
}

impl SourceTrace {
    /// Per-pull schedule lag: pull time minus the due time of the oldest
    /// event the pull returned.
    pub fn lags_ns(&self) -> Vec<u64> {
        self.lag_ns
            .lock()
            .expect("no lag recorder panics while holding the lock")
            .clone()
    }
}

/// Feeds a [`Lesson`] to the program, `loops` times over, optionally on a
/// [`Pace`] schedule.
#[derive(Debug)]
pub struct LessonSource {
    events: Arc<[PacketEvent]>,
    node_count: u32,
    span_us: u64,
    total: usize,
    next: usize,
    pace: Option<Pace>,
    start: Arc<OnceLock<Instant>>,
    trace: Option<Arc<SourceTrace>>,
}

impl LessonSource {
    /// The lesson, `loops` passes, released as fast as it is pulled.
    pub fn new(lesson: &Lesson, loops: usize) -> LessonSource {
        LessonSource {
            events: lesson.events.clone(),
            node_count: lesson.node_count,
            span_us: lesson.span_us(),
            total: lesson.events.len() * loops,
            next: 0,
            pace: None,
            start: Arc::default(),
            trace: None,
        }
    }

    /// Release events on `pace`, counted from the first pull; `start` is
    /// set at that pull so the caller can read the schedule's origin.
    pub fn paced(mut self, pace: Pace, start: Arc<OnceLock<Instant>>) -> LessonSource {
        self.pace = Some(pace);
        self.start = start;
        self
    }

    /// Record pull time and schedule lag into `trace`.
    pub fn traced(mut self, trace: Arc<SourceTrace>) -> LessonSource {
        self.trace = Some(trace);
        self
    }

    /// The `i`-th event of the looped stream.
    pub fn event(&self, i: usize) -> PacketEvent {
        let len = self.events.len();
        let mut event = self.events[i % len];
        event.timestamp_us += (i / len) as u64 * self.span_us;
        event
    }

    /// How many of the next events (at most `max`) are due `elapsed_ns`
    /// after the schedule's start; every remaining one (up to `max`) when
    /// unpaced.
    pub fn ready(&self, elapsed_ns: u64, max: usize) -> usize {
        let limit = max.min(self.total - self.next);
        match self.pace {
            None => limit,
            Some(pace) => (0..limit)
                .find(|&k| !pace.is_due(self.event(self.next + k).timestamp_us, elapsed_ns))
                .unwrap_or(limit),
        }
    }

    fn append(&mut self, n: usize, out: &mut Vec<PacketEvent>) {
        let len = self.events.len();
        let end = self.next + n;
        while self.next < end {
            let pass = self.next / len;
            let from = self.next % len;
            let to = (from + end - self.next).min(len);
            let offset = pass as u64 * self.span_us;
            if offset == 0 {
                out.extend_from_slice(&self.events[from..to]);
            } else {
                out.extend(self.events[from..to].iter().map(|e| PacketEvent {
                    timestamp_us: e.timestamp_us + offset,
                    ..*e
                }));
            }
            self.next += to - from;
        }
    }
}

impl EventSource for LessonSource {
    fn node_count(&self) -> u32 {
        self.node_count
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let entered = self.trace.as_ref().map(|_| Instant::now());
        let n = match self.pace {
            _ if self.next == self.total => 0,
            None => self.ready(0, max),
            Some(pace) => {
                let start = *self.start.get_or_init(Instant::now);
                let due = pace.due_ns(self.event(self.next).timestamp_us);
                let elapsed = start.elapsed().as_nanos() as u64;
                if elapsed < due {
                    std::thread::sleep(Duration::from_nanos(due - elapsed));
                }
                let now = start.elapsed().as_nanos() as u64;
                if let Some(trace) = &self.trace {
                    trace
                        .lag_ns
                        .lock()
                        .expect("no lag recorder panics while holding the lock")
                        .push(now.saturating_sub(due));
                }
                // The oldest event is due by now, so a pull never returns 0
                // (which would end the stream) before the lesson is over.
                self.ready(now, max).max(1)
            }
        };
        self.append(n, out);
        if let (Some(trace), Some(entered)) = (&self.trace, entered) {
            trace
                .pull_ns
                .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        n
    }
}
