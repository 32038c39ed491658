//! One serve session on loopback: the program's `serve` on this thread,
//! [`CLIENTS`] student clients on their own, each decoding every window and
//! putting it on a [`LiveWarehouse`] screen.

use crate::lesson::SourceTrace;
use crate::reference::Reference;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tw_core::game::LiveWarehouse;
use tw_core::ingest::{StreamError, WindowReport, WindowStream};
use tw_core::metrics::MetricsRegistry;
use tw_core::serve::{loopback_listener, serve, ClientStream, ServeConfig, ServeSummary};

/// Student clients per session (the host has two cores).
pub const CLIENTS: usize = 2;

/// The display dimension of each student's warehouse.
const DISPLAY: usize = 10;

/// Wraps the stream `serve` pulls from: notes the first pull and, when
/// traced, the span of every pull minus the source time nested inside it.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    first_call: Option<Instant>,
    spans_ns: Option<Vec<u64>>,
    nested: Option<Arc<SourceTrace>>,
}

impl<S> Timed<S> {
    /// Wrap `inner`; `traced` keeps per-call self times, from which the
    /// `pull` time of `nested` (when given) is subtracted.
    pub fn new(inner: S, traced: bool, nested: Option<Arc<SourceTrace>>) -> Timed<S> {
        Timed {
            inner,
            first_call: None,
            spans_ns: traced.then(Vec::new),
            nested,
        }
    }

    /// When `serve` first asked for a window: the start of the stream.
    pub fn first_call(&self) -> Option<Instant> {
        self.first_call
    }

    /// Per-call self times in nanoseconds (empty when untraced).
    pub fn into_spans(self) -> Vec<u64> {
        self.spans_ns.unwrap_or_default()
    }

    fn nested_ns(&self) -> u64 {
        self.nested
            .as_ref()
            .map_or(0, |t| t.pull_ns.load(Ordering::Relaxed))
    }
}

impl<S: WindowStream> WindowStream for Timed<S> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        let called = Instant::now();
        self.first_call.get_or_insert(called);
        let nested_before = self.nested_ns();
        let out = self.inner.next_window();
        if self.spans_ns.is_some() {
            let span = called.elapsed().as_nanos() as u64;
            let nested = self.nested_ns() - nested_before;
            if let Some(spans) = &mut self.spans_ns {
                spans.push(span.saturating_sub(nested));
            }
        }
        out
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

/// One window one client applied.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// The window's index.
    pub index: u64,
    /// When the client asked for it.
    pub called: Instant,
    /// When `on_window` returned.
    pub applied: Instant,
    /// Whether it matched its reference and arrived in order.
    pub ok: bool,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every window applied, in arrival order.
    pub applied: Vec<Applied>,
    /// Traced: `ClientStream::next_window` spans (read, CRC, decode, wait).
    pub next_window_ns: Vec<u64>,
    /// Traced: `LiveWarehouse::on_window` spans.
    pub on_window_ns: Vec<u64>,
    /// `ClientStream::decode_reuse_hits` at the end.
    pub decode_reuse_hits: u64,
    /// The error that ended the stream early, if any.
    pub error: Option<String>,
}

/// A finished session.
#[derive(Debug)]
pub struct Session {
    /// The server's summary.
    pub summary: ServeSummary,
    /// One log per client.
    pub clients: Vec<ClientLog>,
}

impl Session {
    /// Windows served times clients: one operation per (window, client).
    pub fn attempted(&self) -> u64 {
        self.summary.windows() * self.clients.len() as u64
    }

    /// Operations that did not end with a verified window on a screen: lag
    /// drops, ring misses, stream errors and mismatches alike.
    pub fn failed(&self) -> u64 {
        let ok: u64 = self
            .clients
            .iter()
            .map(|c| c.applied.iter().filter(|a| a.ok).count() as u64)
            .sum();
        self.attempted() - ok.min(self.attempted())
    }

    /// Indices of the windows every client applied and verified.
    pub fn complete_windows(&self) -> Vec<u64> {
        let mut counts = std::collections::BTreeMap::new();
        for client in &self.clients {
            for a in client.applied.iter().filter(|a| a.ok) {
                *counts.entry(a.index).or_insert(0usize) += 1;
            }
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n == self.clients.len())
            .map(|(index, _)| index)
            .collect()
    }

    /// When the last client applied its last window.
    pub fn last_applied(&self) -> Option<Instant> {
        self.clients
            .iter()
            .filter_map(|c| c.applied.last().map(|a| a.applied))
            .max()
    }
}

/// Serve `stream` to [`CLIENTS`] loopback clients under `config` and
/// verify every window they apply against `reference`.
pub fn serve_session(
    stream: &mut dyn WindowStream,
    config: &ServeConfig,
    reference: &Reference,
    registry: Option<&MetricsRegistry>,
) -> Result<Session, String> {
    let listener = loopback_listener().map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let traced = registry.is_some();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || run_client(addr, reference, registry, traced)))
            .collect();
        let summary = serve(listener, stream, config, None).map_err(|e| e.to_string());
        let clients = clients
            .into_iter()
            .map(|c| {
                c.join().unwrap_or_else(|_| ClientLog {
                    error: Some("client thread panicked".to_string()),
                    ..ClientLog::default()
                })
            })
            .collect();
        Ok(Session {
            summary: summary?,
            clients,
        })
    })
}

fn run_client(
    addr: SocketAddr,
    reference: &Reference,
    registry: Option<&MetricsRegistry>,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match ClientStream::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.error = Some(format!("connect: {e}"));
            return log;
        }
    };
    if let Some(registry) = registry {
        client.instrument(registry);
    }
    let mut screen = LiveWarehouse::new(DISPLAY);
    let mut last_index = None;
    loop {
        let called = Instant::now();
        let report = match client.next_window() {
            Ok(Some(report)) => report,
            Ok(None) => break,
            Err(e) => {
                log.error = Some(e.to_string());
                break;
            }
        };
        let received = Instant::now();
        screen.on_window(&report);
        let applied = Instant::now();
        // Verification runs after the window is on screen, so it is not
        // part of the window's latency.
        let index = report.stats.window_index;
        let in_order = last_index.is_none_or(|last| index > last);
        last_index = Some(index);
        log.applied.push(Applied {
            index,
            called,
            applied,
            ok: in_order && reference.matches(index, &report),
        });
        if traced {
            log.next_window_ns
                .push((received - called).as_nanos() as u64);
            log.on_window_ns
                .push((applied - received).as_nanos() as u64);
        }
        client.recycle(report.matrix);
    }
    log.decode_reuse_hits = client.decode_reuse_hits();
    log
}
