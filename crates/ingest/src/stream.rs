//! The producer seam: anything that emits a window stream.
//!
//! Until this module existed, every consumer was hard-wired to one concrete
//! producer — `LiveWarehouse::follow` took a `&mut Pipeline`, the CLI replay
//! path took a `ReplaySource` — so serving one scenario to a whole classroom
//! meant duplicating the drive loop per producer. [`WindowStream`] is the
//! single pull-based contract they all share:
//!
//! * [`Pipeline`](crate::Pipeline) — live generation (never fails);
//! * [`ReplaySource`](crate::ReplaySource) — in-memory recording playback;
//! * [`SeekReplaySource`](crate::SeekReplaySource) /
//!   [`FileReplaySource`](crate::FileReplaySource) — recording playback
//!   streamed from disk one window at a time;
//! * [`Paced`] — a rate-pacing adapter over any of the above, so a replay
//!   unfolds at classroom speed instead of as fast as the disk allows.
//!
//! A consumer written against `&mut dyn WindowStream` (the broadcast hub in
//! `tw-game`, the live warehouse, the CLI) therefore serves live scenarios,
//! instant replays and paced replays through the same code path.

use crate::frame::FrameError;
use crate::record::RecordError;
use crate::window::WindowReport;
use std::fmt;
use std::time::{Duration, Instant};

/// Errors produced while pulling from a [`WindowStream`].
///
/// Live pipelines cannot fail; replay sources can (corrupt archive, I/O),
/// and network streams can (truncated or corrupt frames, dead peers).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A replayed recording failed to parse or decode.
    Replay(RecordError),
    /// A network stream delivered a bad frame or lost its transport.
    Frame(FrameError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Replay(e) => write!(f, "window stream: {e}"),
            StreamError::Frame(e) => write!(f, "window stream: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<RecordError> for StreamError {
    fn from(e: RecordError) -> Self {
        StreamError::Replay(e)
    }
}

impl From<FrameError> for StreamError {
    fn from(e: FrameError) -> Self {
        StreamError::Frame(e)
    }
}

/// A pull-based producer of [`WindowReport`]s.
///
/// The contract mirrors `Pipeline::next_window`: each call yields the next
/// window in emission order, `Ok(None)` once the stream is exhausted, and an
/// exhausted stream stays exhausted. Window indices are non-decreasing and
/// every matrix is `node_count() × node_count()`.
pub trait WindowStream {
    /// Produce the next window; `Ok(None)` once the stream is exhausted.
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError>;

    /// The address-space size (matrix dimension) of every window.
    fn node_count(&self) -> usize;

    /// Tumbling-window duration in simulated microseconds.
    fn window_us(&self) -> u64;

    /// Windows still to come, when known in advance (recordings know their
    /// length; live pipelines do not).
    fn remaining_windows(&self) -> Option<usize> {
        None
    }
}

impl<S: WindowStream + ?Sized> WindowStream for Box<S> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        (**self).next_window()
    }

    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn window_us(&self) -> u64 {
        (**self).window_us()
    }

    fn remaining_windows(&self) -> Option<usize> {
        (**self).remaining_windows()
    }
}

/// A rate-pacing adapter: emits the inner stream's windows no faster than
/// `speed`× real time.
///
/// One window covers `window_us` simulated microseconds, so at speed `s` a
/// window is due every `window_us / s` wall-clock microseconds. The first
/// window is emitted immediately; each later one waits for its slot on a
/// fixed cadence (sleep debt does not accumulate — a slow decode eats into
/// the next window's wait instead of drifting the schedule).
pub struct Paced<S: WindowStream> {
    inner: S,
    interval: Duration,
    next_due: Option<Instant>,
}

impl<S: WindowStream> Paced<S> {
    /// Pace `inner` at `speed`× real time (`speed >= 1`).
    pub fn new(inner: S, speed: u64) -> Self {
        assert!(speed >= 1, "playback speed must be at least 1");
        // Compute the cadence in nanoseconds: microsecond division truncated
        // to a zero interval whenever `speed > window_us` (turning paced
        // playback into a busy spin) and lost sub-microsecond precision for
        // every speed that does not divide the window evenly. The 1 ns floor
        // keeps even absurd speeds (beyond `window_us * 1000`) on a nonzero
        // cadence rather than silently degenerating to unpaced playback.
        let interval =
            Duration::from_nanos((inner.window_us().saturating_mul(1_000) / speed).max(1));
        Paced {
            inner,
            interval,
            next_due: None,
        }
    }

    /// The wall-clock interval between emitted windows.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: WindowStream> WindowStream for Paced<S> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        let report = self.inner.next_window()?;
        if report.is_some() {
            match self.next_due {
                None => self.next_due = Some(Instant::now() + self.interval),
                Some(due) => {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    self.next_due = Some(due.max(now) + self.interval);
                }
            }
        }
        Ok(report)
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn window_us(&self) -> u64 {
        self.inner.window_us()
    }

    fn remaining_windows(&self) -> Option<usize> {
        self.inner.remaining_windows()
    }
}

/// Drain up to `max_windows` from any stream into a vector (test/CLI helper).
pub fn collect_stream<S: WindowStream + ?Sized>(
    stream: &mut S,
    max_windows: usize,
) -> Result<Vec<WindowReport>, StreamError> {
    let mut out = Vec::new();
    while out.len() < max_windows {
        match stream.next_window()? {
            Some(report) => out.push(report),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use crate::record::{ArchiveRecorder, RecordingMeta, ReplaySource};
    use crate::scenario::Scenario;

    fn short_pipeline() -> Pipeline {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        Pipeline::new(Scenario::Ddos.source(64, 3), config)
    }

    #[test]
    fn pipeline_streams_through_the_trait_object() {
        let mut pipeline = short_pipeline();
        let stream: &mut dyn WindowStream = &mut pipeline;
        assert_eq!(stream.node_count(), 64);
        assert_eq!(stream.window_us(), 50_000);
        assert_eq!(stream.remaining_windows(), None);
        let windows = collect_stream(stream, 3).unwrap();
        assert_eq!(windows.len(), 3);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.stats.window_index, i as u64);
            assert_eq!(w.matrix.shape(), (64, 64));
        }
    }

    #[test]
    fn replay_streams_through_the_trait_object() {
        let mut pipeline = short_pipeline();
        let mut recorder = ArchiveRecorder::new(RecordingMeta {
            scenario: "ddos".to_string(),
            seed: 3,
            node_count: 64,
            window_us: 50_000,
            keyframe_every: 0,
        });
        let recorded = pipeline.run(3);
        for report in &recorded {
            recorder.record(report).unwrap();
        }
        let bytes = recorder.finish().unwrap();
        let mut replay = ReplaySource::parse(&bytes).unwrap();
        let stream: &mut dyn WindowStream = &mut replay;
        assert_eq!(stream.node_count(), 64);
        assert_eq!(stream.window_us(), 50_000);
        assert_eq!(stream.remaining_windows(), Some(3));
        let windows = collect_stream(stream, usize::MAX).unwrap();
        assert_eq!(windows.len(), 3);
        for (recorded, replayed) in recorded.iter().zip(&windows) {
            assert_eq!(recorded.matrix, replayed.matrix);
        }
        assert_eq!(stream.remaining_windows(), Some(0));
    }

    #[test]
    fn paced_stream_spaces_windows_out() {
        // 2 ms simulated windows at 1x: ~2 ms between emissions after the
        // first, so three windows take at least ~4 ms.
        struct Fixed {
            left: usize,
            template: WindowReport,
        }
        impl WindowStream for Fixed {
            fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
                if self.left == 0 {
                    return Ok(None);
                }
                self.left -= 1;
                Ok(Some(self.template.clone()))
            }
            fn node_count(&self) -> usize {
                8
            }
            fn window_us(&self) -> u64 {
                2_000
            }
        }
        let template = short_pipeline().next_window().unwrap();
        let inner = Fixed { left: 3, template };
        let mut paced = Paced::new(inner, 1);
        assert_eq!(paced.interval(), Duration::from_micros(2_000));
        assert_eq!(paced.window_us(), 2_000);
        assert_eq!(paced.node_count(), 8);
        let started = Instant::now();
        let windows = collect_stream(&mut paced, usize::MAX).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(windows.len(), 3);
        assert!(
            elapsed >= Duration::from_micros(3_800),
            "3 windows at 2 ms cadence finished in {elapsed:?}"
        );
        assert_eq!(paced.into_inner().left, 0);
    }

    #[test]
    fn paced_speed_divides_the_interval() {
        let paced = Paced::new(short_pipeline(), 10);
        assert_eq!(paced.interval(), Duration::from_micros(5_000));
    }

    #[test]
    fn paced_interval_survives_speeds_beyond_the_window() {
        // Regression: `window_us / speed` in microseconds truncated to zero
        // whenever speed > window_us, making "very fast" playback a busy
        // spin instead of a fast cadence. The 50 ms window at 80_000x is a
        // 625 ns interval, not zero.
        let paced = Paced::new(short_pipeline(), 80_000);
        assert_eq!(paced.interval(), Duration::from_nanos(625));
        // Sub-microsecond precision is kept for uneven divisions too.
        let paced = Paced::new(short_pipeline(), 3);
        assert_eq!(paced.interval(), Duration::from_nanos(16_666_666));
    }

    #[test]
    #[should_panic(expected = "playback speed must be at least 1")]
    fn zero_speed_panics() {
        let _ = Paced::new(short_pipeline(), 0);
    }
}
