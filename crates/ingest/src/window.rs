//! Tumbling windows and per-window ingest statistics.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tw_matrix::{CsrMatrix, MatrixError};

/// Maps event timestamps onto tumbling window indices and tracks the window
/// currently being filled.
#[derive(Debug, Clone)]
pub struct WindowClock {
    window_us: u64,
    current: u64,
}

impl WindowClock {
    /// A clock with tumbling windows of `window_us` microseconds.
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "window must be positive");
        WindowClock {
            window_us,
            current: 0,
        }
    }

    /// Window duration in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The index of the window currently being filled.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Close the current window and return its index.
    pub fn advance(&mut self) -> u64 {
        let closed = self.current;
        self.current += 1;
        closed
    }
}

/// Per-window ingest statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestStats {
    /// The window's index (window `w` covers `[w·window_us, (w+1)·window_us)`).
    pub window_index: u64,
    /// Events accumulated into this window.
    pub events: u64,
    /// Total packets across those events.
    pub packets: u64,
    /// Stored entries in the window matrix after coalescing.
    pub nnz: usize,
    /// Events lost to lateness.
    ///
    /// In strict mode (reorder horizon 0) an event is late as soon as its
    /// window has been emitted. With a reordering horizon, an event is late
    /// only when it is older than the watermark (`max timestamp seen −
    /// horizon`) on arrival — everything inside the horizon is routed into
    /// its window instead of dropped.
    pub dropped_late: u64,
    /// Events that arrived out of timestamp order but within the reordering
    /// horizon: older than the newest event seen, yet routed into their own
    /// windows instead of dropped. Counted in the window being filled when
    /// they arrive. Always `0` in strict mode (reorder horizon 0).
    pub reordered: u64,
    /// Wall-clock time spent pulling, routing and merging this window.
    pub elapsed: Duration,
}

impl IngestStats {
    /// Ingest throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / secs
    }

    /// One printable summary line.
    pub fn summary(&self) -> String {
        format!(
            "window {:>3}: {:>8} events  {:>9} packets  nnz {:>7}  late {:>4}  reord {:>4}  {:>8.2} ms  {:>7.2} M ev/s",
            self.window_index,
            self.events,
            self.packets,
            self.nnz,
            self.dropped_late,
            self.reordered,
            self.elapsed.as_secs_f64() * 1e3,
            self.events_per_sec() / 1e6,
        )
    }
}

/// One finished window: its hypersparse traffic matrix plus statistics.
///
/// The matrix is shared: the producer that emitted the report keeps an
/// `Arc` of it too, and builds a later window in its storage once no
/// report holds it any more. Dropping a report is therefore how a window
/// goes back; a consumer that keeps one (a delta base, a game scene) only
/// costs the producer one more allocation while it does. Cloning a report
/// copies no cells.
///
/// Equality compares `matrix` and `stats` only: a window is the same window
/// whether or not it still carries the frame it arrived in.
#[derive(Clone)]
pub struct WindowReport {
    /// The coalesced window matrix (sources × destinations, packet counts).
    pub matrix: Arc<CsrMatrix<u64>>,
    /// The window's ingest statistics.
    pub stats: IngestStats,
    /// The complete TWFR wire frame (see [`frame`](crate::frame)) this
    /// window was decoded from, when its source had one: replay sources
    /// assemble it from the archive entry, so `serve` can forward those
    /// bytes instead of encoding the window again. It must encode exactly
    /// `matrix` and `stats`; an adapter that changes either clears it.
    pub frame: Option<Arc<[u8]>>,
}

impl PartialEq for WindowReport {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix && self.stats == other.stats
    }
}

impl fmt::Debug for WindowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowReport")
            .field("matrix", &self.matrix)
            .field("stats", &self.stats)
            .field("frame_len", &self.frame.as_ref().map(|frame| frame.len()))
            .finish()
    }
}

/// The last windows a producer emitted, kept so that it builds the next
/// window in the storage of one that no caller still holds.
///
/// The window pipeline's accumulator and a decoder's [`DecodeScratch`]
/// each own one. [`KeptWindows::build`] writes into the first kept window
/// whose `Arc` only the store holds, and allocates only when every kept
/// window is held. It keeps two at most: the newest window emitted (a
/// delta's base, for a decoder) and one spare.
///
/// [`DecodeScratch`]: crate::codec::DecodeScratch
#[derive(Debug, Default)]
pub(crate) struct KeptWindows {
    newest: Option<Arc<CsrMatrix<u64>>>,
    spare: Option<Arc<CsrMatrix<u64>>>,
}

impl KeptWindows {
    /// The newest window built, unless a failed build wrote over it.
    pub(crate) fn newest(&self) -> Option<&CsrMatrix<u64>> {
        self.newest.as_deref()
    }

    /// Build the next `rows × cols` window: `fill` gets the newest window
    /// when `read_newest` is set (its storage is then left alone) and
    /// writes the new window's arrays as in [`CsrMatrix::rebuild`]. Returns
    /// the window and whether it reused a kept window's storage.
    ///
    /// The window built becomes the newest, and the one it displaced the
    /// spare (unless the newest's own storage was reused). A failed build
    /// leaves the storage it wrote empty, as the spare; when that storage
    /// was the newest window's, no newest window is left.
    pub(crate) fn build<E: From<MatrixError>>(
        &mut self,
        (rows, cols): (usize, usize),
        read_newest: bool,
        fill: impl FnOnce(
            Option<&CsrMatrix<u64>>,
            &mut Vec<usize>,
            &mut Vec<usize>,
            &mut Vec<u64>,
        ) -> Result<(), E>,
    ) -> Result<(Arc<CsrMatrix<u64>>, bool), E> {
        let in_newest = !read_newest && unheld(&mut self.newest);
        let kept = if in_newest {
            self.newest.take()
        } else if unheld(&mut self.spare) {
            self.spare.take()
        } else {
            None
        };
        let reused = kept.is_some();
        let mut window = kept.unwrap_or_else(|| Arc::new(CsrMatrix::empty(0, 0)));
        // The store holds the only `Arc` of the window, so `make_mut` hands
        // out its storage without copying it.
        let built = Arc::make_mut(&mut window).rebuild(rows, cols, |row_ptr, col_idx, values| {
            fill(self.newest.as_deref(), row_ptr, col_idx, values)
        });
        if let Err(e) = built {
            self.spare = Some(window);
            return Err(e);
        }
        if !in_newest {
            self.spare = self.newest.take();
        }
        self.newest = Some(Arc::clone(&window));
        Ok((window, reused))
    }
}

/// Whether a kept window is there and no caller holds it.
fn unheld(window: &mut Option<Arc<CsrMatrix<u64>>>) -> bool {
    window.as_mut().is_some_and(|w| Arc::get_mut(w).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_maps_timestamps_and_advances() {
        let mut clock = WindowClock::new(1_000);
        assert_eq!(clock.window_us(), 1_000);
        assert_eq!(clock.current(), 0);
        assert_eq!(clock.advance(), 0);
        assert_eq!(clock.current(), 1);
    }

    #[test]
    fn equality_ignores_the_frame_and_debug_prints_its_length() {
        let stats = IngestStats {
            window_index: 0,
            events: 1,
            packets: 1,
            nnz: 0,
            dropped_late: 0,
            reordered: 0,
            elapsed: Duration::ZERO,
        };
        let bare = WindowReport {
            matrix: Arc::new(CsrMatrix::empty(2, 2)),
            stats,
            frame: None,
        };
        let framed = WindowReport {
            frame: Some(Arc::from(vec![0xAB; 300])),
            ..bare.clone()
        };
        assert_eq!(bare, framed);
        let debug = format!("{framed:?}");
        assert!(debug.contains("frame_len: Some(300)"), "{debug}");
        assert!(!debug.contains("171"), "frame bytes stay out of Debug");
        assert!(format!("{bare:?}").contains("frame_len: None"));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = WindowClock::new(0);
    }

    #[test]
    fn stats_throughput_and_summary() {
        let stats = IngestStats {
            window_index: 2,
            events: 1_000_000,
            packets: 5_000_000,
            nnz: 42,
            dropped_late: 3,
            reordered: 9,
            elapsed: Duration::from_millis(500),
        };
        assert!((stats.events_per_sec() - 2_000_000.0).abs() < 1.0);
        let line = stats.summary();
        assert!(line.contains("window   2"));
        assert!(line.contains("nnz"));
        assert!(line.contains("late    3"));
        assert!(line.contains("reord    9"));
        let zero = IngestStats {
            elapsed: Duration::ZERO,
            ..stats
        };
        assert_eq!(zero.events_per_sec(), 0.0);
    }
}
