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

use std::time::Duration;
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
struct DenseStream {
    n: usize,
    next: u64,
    windows: u64,
}

impl WindowStream for DenseStream {
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
        };
        self.next += 1;
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
    let (summary, seen, close) = std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let mut client = ClientStream::connect(addr).unwrap();
            let first = collect_stream(&mut client, 1).unwrap();
            assert_eq!(first.len(), 1);
            // Stall: stop reading until the server has raced through the
            // whole stream. ~90 MB of dense frames dwarf any socket
            // buffering, so the writer blocks and the channel must shed.
            // The sleep must outlast the 30 dense encodes even on a loaded
            // debug build, or the resumed reader keeps pace and nothing
            // drops.
            std::thread::sleep(Duration::from_millis(6_000));
            let rest = collect_stream(&mut client, usize::MAX).unwrap();
            (1 + rest.len(), *client.close_summary().unwrap())
        });
        let mut stream = DenseStream {
            n: 1024,
            next: 0,
            windows,
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
