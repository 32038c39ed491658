//! Fault injection for the serving tier: every way a classroom connection
//! can die must be accounted, never leaked and never load-bearing.
//!
//! * A **killed connection** (peer closes its socket mid-stream) detaches
//!   cleanly: the writer thread exits on its next write, the hub retires
//!   the slot with a `SubscriberDetached` telemetry event, and — with
//!   `stop_when_empty` — the serve loop notices the empty roster and
//!   returns (joining every thread; `serve` returning *is* the no-leak
//!   proof, since all writers live in its thread scope).
//! * A **stalled reader** (peer stops draining its socket) hits the
//!   lag-drop path: its bounded channel fills, the hub drops frames for it
//!   with accounting, and the class is never stalled. The drop arithmetic
//!   is echoed to the peer in its close frame and must agree with the
//!   server's summary — conservation holds across the wire.
//! * A **dead producer** ([`ChaosStream`]) still closes every peer with a
//!   clean close frame (covered here and in the server unit tests).
//! * A **panicking producer** unwinds out of `serve` instead of hanging
//!   it: the acceptor stops, the hub closes, every writer sends its close
//!   frame and is joined, and the panic reaches the caller.
//! * A **misshapen window** from a peer (a header claiming another shape
//!   than the manifest's) is refused before the client decodes it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tw_game::telemetry::{TelemetryEvent, TelemetryHub};
use tw_ingest::{
    collect_stream, IngestStats, Pipeline, PipelineConfig, Scenario, StreamError, WindowReport,
    WindowStream,
};
use tw_matrix::CsrMatrix;
use tw_serve::{loopback_listener, serve, ChaosStream, ClientStream, ServeConfig, ServeError};

fn ddos_pipeline(nodes: u32) -> Pipeline {
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 4_096,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    Pipeline::new(Scenario::Ddos.source(nodes, 11), config)
}

/// A stream of dense `n × n` windows: every cell populated, so each encoded
/// frame is ~2.5 bytes/cell — sized so a stalled reader's stream dwarfs even
/// maximally auto-tuned kernel socket buffers (tcp_rmem can reach tens of
/// MB), forcing the lag-drop path rather than hiding the stall in buffers.
struct DenseStream<'a> {
    n: usize,
    next: u64,
    windows: u64,
    /// Raised once the last window has been handed to the server.
    produced_all: &'a AtomicBool,
}

impl WindowStream for DenseStream<'_> {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        if self.next >= self.windows {
            return Ok(None);
        }
        let n = self.n;
        let triples: Vec<(usize, usize, u64)> = (0..n * n)
            .map(|i| (i / n, i % n, (i as u64 % 250) + 1))
            .collect();
        let matrix = CsrMatrix::from_sorted_triples(n, n, &triples);
        let nnz = matrix.nnz();
        let report = WindowReport {
            matrix,
            stats: IngestStats {
                window_index: self.next,
                events: (n * n) as u64,
                packets: (n * n) as u64,
                nnz,
                dropped_late: 0,
                reordered: 0,
                elapsed: Duration::from_micros(1),
            },
            frame: None,
        };
        self.next += 1;
        if self.next == self.windows {
            self.produced_all.store(true, Ordering::Release);
        }
        Ok(Some(report))
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn window_us(&self) -> u64 {
        1_000
    }

    fn remaining_windows(&self) -> Option<usize> {
        Some((self.windows - self.next) as usize)
    }
}

#[test]
fn killed_connections_detach_and_empty_roster_stops_the_serve() {
    let telemetry = TelemetryHub::new();
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        scenario: "ddos".to_string(),
        seed: 11,
        wait_for: 2,
        // The stream itself is effectively endless at test timescales: only
        // the emptied roster can end this serve.
        max_windows: 1_000_000,
        stop_when_empty: true,
        ..ServeConfig::default()
    };
    let summary = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = ClientStream::connect(addr).unwrap();
                // Read a few windows, then kill the connection by dropping
                // the socket with the stream still live.
                let seen = collect_stream(&mut client, 3).unwrap();
                assert_eq!(seen.len(), 3);
            });
        }
        let mut stream = ddos_pipeline(64);
        serve(listener, &mut stream, &config, Some(telemetry.clone())).unwrap()
    });

    assert!(
        summary.windows() < 1_000_000,
        "the emptied roster, not the window cap, ended the serve"
    );
    assert_eq!(summary.connections(), 2);
    for report in &summary.broadcast.reports {
        assert!(report.left_early, "a killed connection is an early leaver");
        assert!(
            report.delivered >= 3,
            "each peer read 3 windows before dying"
        );
    }
    let events = telemetry.drain();
    let connected = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::PeerConnected { .. }))
        .count();
    let detached = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::SubscriberDetached { .. }))
        .count();
    assert_eq!(
        connected, 2,
        "both peers surfaced on telemetry with addresses"
    );
    assert_eq!(detached, 2, "both kills were accounted as detaches");
}

#[test]
fn stalled_reader_hits_the_lag_drop_path_with_conserved_accounting() {
    let telemetry = TelemetryHub::new();
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let windows = 30u64;
    let config = ServeConfig {
        scenario: "dense".to_string(),
        seed: 0,
        // Capacity 1: the second undrained frame already drops.
        channel_capacity: 1,
        ring_capacity: 4,
        wait_for: 1,
        max_windows: windows as usize,
        // Generous: the stall must hit the *drop* path, not the disconnect
        // path — the connection stays alive throughout.
        write_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let produced_all = AtomicBool::new(false);
    let (summary, seen, close) = std::thread::scope(|scope| {
        let produced_all = &produced_all;
        let client = scope.spawn(move || {
            let mut client = ClientStream::connect(addr).unwrap();
            let first = collect_stream(&mut client, 1).unwrap();
            assert_eq!(first.len(), 1);
            // Stall: stop reading until the server has raced through the
            // whole stream. ~90 MB of dense frames dwarf any socket
            // buffering, so the writer blocks and the channel must shed.
            // The stall waits for the producer itself rather than a fixed
            // sleep, so a slow (debug, loaded) build cannot let the resumed
            // reader keep pace and drop nothing.
            let deadline = Instant::now() + Duration::from_secs(120);
            while !produced_all.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let rest = collect_stream(&mut client, usize::MAX).unwrap();
            (1 + rest.len(), *client.close_summary().unwrap())
        });
        let mut stream = DenseStream {
            n: 1024,
            next: 0,
            windows,
            produced_all,
        };
        let summary = serve(listener, &mut stream, &config, Some(telemetry.clone())).unwrap();
        let (seen, close) = client.join().unwrap();
        (summary, seen, close)
    });

    assert_eq!(summary.windows(), windows);
    let report = &summary.broadcast.reports[0];
    assert!(!report.left_early, "the stalled peer stayed to the end");
    assert!(
        report.dropped >= 5,
        "a stalled reader sheds most of a {windows}-window stream, dropped only {}",
        report.dropped
    );
    // The class (the serve loop) never waited: every window was published.
    // Conservation holds on the server...
    assert_eq!(summary.broadcast.conservation_error(), None);
    // ...and the same arithmetic crossed the wire in the close frame.
    assert_eq!(close.windows, windows);
    assert_eq!(close.delivered, report.delivered);
    assert_eq!(close.dropped, report.dropped);
    assert_eq!(close.delivered + close.dropped + close.missed, windows);
    assert_eq!(
        seen as u64, close.delivered,
        "every delivered frame arrived"
    );
    let lagged = telemetry
        .drain()
        .into_iter()
        .filter(|e| matches!(e, TelemetryEvent::SubscriberLagged { .. }))
        .count();
    assert_eq!(
        lagged as u64, report.dropped,
        "every drop surfaced on telemetry"
    );
}

#[test]
fn chaos_stream_fault_closes_remote_peers_cleanly() {
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        scenario: "ddos".to_string(),
        seed: 11,
        wait_for: 2,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = ClientStream::connect(addr).unwrap();
                    let windows = collect_stream(&mut client, usize::MAX).unwrap();
                    (windows.len(), *client.close_summary().unwrap())
                })
            })
            .collect();
        let mut stream = ChaosStream::new(ddos_pipeline(48), 3);
        let err = serve(listener, &mut stream, &config, None).unwrap_err();
        assert!(
            matches!(&err, ServeError::Stream(StreamError::Frame(_))),
            "the producer fault surfaces typed: {err}"
        );
        for client in clients {
            let (seen, close) = client.join().unwrap();
            // The fault killed the producer, not the peers: both drained
            // the pre-fault windows and got a well-formed close frame.
            assert_eq!(seen, 3);
            assert_eq!(close.windows, 3);
            assert_eq!(close.delivered, 3);
        }
    });
}

/// A stream that panics on its `panic_at`-th `next_window` call.
struct PanickingStream {
    inner: Pipeline,
    panic_at: usize,
    calls: usize,
}

impl WindowStream for PanickingStream {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        self.calls += 1;
        assert!(self.calls < self.panic_at, "window source panicked");
        WindowStream::next_window(&mut self.inner)
    }

    fn node_count(&self) -> usize {
        WindowStream::node_count(&self.inner)
    }

    fn window_us(&self) -> u64 {
        WindowStream::window_us(&self.inner)
    }

    fn remaining_windows(&self) -> Option<usize> {
        None
    }
}

#[test]
fn panicking_stream_unwinds_out_of_serve_and_closes_peers() {
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        scenario: "ddos".to_string(),
        seed: 11,
        wait_for: 1,
        ..ServeConfig::default()
    };
    // Plain threads, not a scope: if `serve` hung, a scope would hang this
    // test with it. The bounded wait below turns a hang into a failure.
    let client = std::thread::spawn(move || {
        let mut client = ClientStream::connect(addr).unwrap();
        let windows = collect_stream(&mut client, usize::MAX).unwrap();
        (windows.len(), client.close_summary().copied())
    });
    let (done, finished) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let mut stream = PanickingStream {
            inner: ddos_pipeline(48),
            panic_at: 3,
            calls: 0,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(listener, &mut stream, &config, None)
        }));
        let _ = done.send(outcome.is_err());
    });
    let panicked = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("serve must return within 30 s after its stream panics");
    assert!(panicked, "the stream's panic reaches serve's caller");
    server.join().unwrap();
    let (seen, close) = client.join().unwrap();
    // The two windows before the panic went out, then a clean close frame.
    assert_eq!(seen, 2);
    let close = close.expect("close frame arrived");
    assert_eq!(close.windows, 2);
    assert_eq!(close.delivered, 2);
}

#[test]
fn misshapen_window_frames_are_refused_before_they_are_decoded() {
    use std::io::Write;
    use tw_ingest::frame::{encode_frame, encode_manifest_frame, FrameKind, StreamManifest};
    use tw_ingest::RecordError;
    // A peer that announces 64 nodes and then sends a 19-byte v2 window
    // claiming 16,777,216 rows and no cells: it decodes, into a row index
    // of 128 MiB. The client refuses it from its header instead.
    let mut claim = b"TWWR".to_vec();
    claim.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]); // v2, stats
    claim.extend_from_slice(&[0x80, 0x80, 0x80, 0x08, 4, 0, 0]); // shape, counts
    let listener = loopback_listener().unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let manifest = StreamManifest {
            scenario: "crafted".to_string(),
            seed: 0,
            node_count: 64,
            window_us: 50_000,
            windows: Some(1),
        };
        socket.write_all(&encode_manifest_frame(&manifest)).unwrap();
        socket
            .write_all(&encode_frame(FrameKind::Window, &claim))
            .unwrap();
    });
    let mut client = ClientStream::connect(addr).unwrap();
    match client.next_window() {
        Err(StreamError::Replay(RecordError::Manifest(msg))) => {
            assert!(
                msg.contains("16777216") && msg.contains("64 nodes"),
                "{msg}"
            );
        }
        other => panic!(
            "expected a shape error, got {:?}",
            other.map(|window| window.map(|w| w.matrix.shape()))
        ),
    }
    assert_eq!(client.windows_seen(), 0);
    peer.join().unwrap();
}
