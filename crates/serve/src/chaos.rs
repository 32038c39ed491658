//! Fault injection for the serving tier.
//!
//! [`ChaosStream`] wraps any [`WindowStream`] and kills it after a set
//! number of windows with a connection-reset error — the shape of failure a
//! serving session sees when its upstream (a replay file yanked mid-read, a
//! chained remote stream whose peer died) goes away. The fault-injection
//! tests use it to prove `serve` still closes every peer cleanly when the
//! *producer*, not a consumer, is the thing that dies.

use std::io::ErrorKind;
use tw_ingest::frame::FrameError;
use tw_ingest::{StreamError, WindowReport, WindowStream};

/// A stream that delivers `fail_after` windows, then errors forever.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    fail_after: usize,
    yielded: usize,
}

impl<S: WindowStream> ChaosStream<S> {
    /// Fail with a connection reset after `fail_after` successful windows.
    pub fn new(inner: S, fail_after: usize) -> Self {
        ChaosStream {
            inner,
            fail_after,
            yielded: 0,
        }
    }

    /// Windows yielded before the (pending or sprung) fault.
    pub fn yielded(&self) -> usize {
        self.yielded
    }
}

impl<S: WindowStream> WindowStream for ChaosStream<S> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        if self.yielded >= self.fail_after {
            return Err(StreamError::Frame(FrameError::Io(
                ErrorKind::ConnectionReset,
            )));
        }
        let report = self.inner.next_window()?;
        if report.is_some() {
            self.yielded += 1;
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
        self.inner
            .remaining_windows()
            .map(|r| r.min(self.fail_after - self.yielded.min(self.fail_after)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_ingest::{collect_stream, Pipeline, PipelineConfig, Scenario};

    #[test]
    fn chaos_stream_fails_after_the_fuse() {
        let config = PipelineConfig {
            window_us: 50_000,
            batch_size: 4_096,
            reorder_horizon_us: 0,
            ..Default::default()
        };
        let pipeline = Pipeline::new(Scenario::Ddos.source(32, 5), config);
        let mut chaos = ChaosStream::new(pipeline, 2);
        assert_eq!(chaos.node_count(), 32);
        let windows = collect_stream(&mut chaos, 2).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(chaos.yielded(), 2);
        let err = chaos.next_window().unwrap_err();
        assert_eq!(
            err,
            StreamError::Frame(FrameError::Io(ErrorKind::ConnectionReset))
        );
        // The fault is sticky.
        assert!(chaos.next_window().is_err());
    }
}
