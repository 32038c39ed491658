//! E-S6 — network serving tier fan-out cost.
//!
//! The campus serving claim: `serve` drives the stream once, encodes each
//! window once, and fans the *same* frame bytes (an `Arc` clone per peer)
//! out to every TCP connection — so the amortized per-connection cost of a
//! large fan-out stays within a small constant of the single-connection
//! serve, which pays the whole produce+encode cost alone. This bench serves
//! a pre-recorded ddos capture over loopback to 1 vs 32 vs 256 connections,
//! each draining raw CRC-checked frames (`read_raw_frame`, no decode), and
//! records the medians in `BENCH_serve.json` via the criterion shim.
//!
//! Every serve also asserts the lag-drop bound: with the per-connection
//! channel sized to the whole stream the drop bound is zero, so the roster
//! accounting must show every window delivered (or missed by a late join),
//! nothing dropped, and the conservation law intact. The deterministic
//! dropped-frames case (a stalled reader) lives in `tw-serve`'s
//! fault-injection tests.
//!
//! Knobs: `TW_SERVE_BENCH_WINDOWS` (default 8) shrinks the recording;
//! `TW_SERVE_BENCH_CONNECTIONS` caps the largest fan-out (CI smoke runs
//! with tiny values).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{
    read_raw_frame, ArchiveRecorder, FrameKind, Pipeline, PipelineConfig, RecordingMeta,
    ReplaySource, Scenario,
};
use tw_core::serve::{loopback_listener, serve, ServeConfig};

const NODES: u32 = 1024;
const SEED: u64 = 7;
/// One simulated second per window — the classroom display cadence.
const WINDOW_US: u64 = 1_000_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn record(windows: usize) -> Vec<u8> {
    let config = PipelineConfig {
        window_us: WINDOW_US,
        batch_size: 8_192,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    let mut pipeline = Pipeline::new(Scenario::Ddos.source(NODES, SEED), config);
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "ddos".to_string(),
        seed: SEED,
        node_count: NODES as usize,
        window_us: WINDOW_US,
        keyframe_every: 0,
    });
    for report in pipeline.run(windows) {
        recorder.record(&report).expect("recording in memory");
    }
    recorder.finish().expect("well under format limits")
}

/// One full campus serve: replay the recording once through `serve` to
/// `connections` loopback clients, each draining raw frames (CRC-checked,
/// never decoded — the client cost under test is the wire, not the codec).
/// Returns the total window frames received across the campus.
fn serve_campus(recording: &[u8], windows: usize, connections: usize) -> u64 {
    let mut replay = ReplaySource::parse(recording).expect("recording parses");
    let listener = loopback_listener().expect("loopback binds");
    let addr = listener.local_addr().expect("bound");
    let config = ServeConfig {
        scenario: "ddos".to_string(),
        seed: SEED,
        // Channel sized to the whole stream: the lag-drop bound is zero.
        channel_capacity: windows.max(1),
        ring_capacity: windows.clamp(1, 64),
        wait_for: connections,
        max_windows: windows,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let drains: Vec<_> = (0..connections)
            .map(|i| {
                scope.spawn(move || {
                    // Stagger big fan-outs slightly so the SYN burst stays
                    // inside the listener's accept backlog (the roster gate
                    // holds the first window regardless).
                    if i >= 64 {
                        std::thread::sleep(std::time::Duration::from_millis((i as u64 / 64) * 10));
                    }
                    let socket = TcpStream::connect(addr).expect("loopback connects");
                    let _ = socket.set_nodelay(true);
                    let mut reader = BufReader::new(socket);
                    let mut seen = 0u64;
                    loop {
                        match read_raw_frame(&mut reader).expect("frames arrive intact") {
                            (FrameKind::Window | FrameKind::DeltaWindow, _) => seen += 1,
                            (FrameKind::Close, _) => break,
                            (FrameKind::Manifest | FrameKind::Stats, _) => {}
                        }
                    }
                    seen
                })
            })
            .collect();
        let summary = serve(listener, &mut replay, &config, None).expect("serve runs");
        let seen: u64 = drains.into_iter().map(|d| d.join().expect("drain")).sum();
        // The lag-drop bound assertion: nothing dropped, every window
        // accounted, conservation intact across the whole roster.
        assert_eq!(summary.windows() as usize, windows);
        assert_eq!(summary.connections(), connections);
        for report in &summary.broadcast.reports {
            assert_eq!(report.dropped, 0, "a stream-sized channel never drops");
            assert_eq!(report.delivered + report.missed, summary.windows());
        }
        assert_eq!(summary.broadcast.conservation_error(), None);
        seen
    })
}

fn bench_serve(c: &mut Criterion) {
    let windows = env_usize("TW_SERVE_BENCH_WINDOWS", 8);
    let max_connections = env_usize("TW_SERVE_BENCH_CONNECTIONS", 256);
    let counts: Vec<usize> = [1usize, 32, 256]
        .into_iter()
        .filter(|&n| n == 1 || n <= max_connections)
        .collect();
    banner(
        "E-S6",
        "Network serve fan-out (1 vs 32 vs 256 loopback connections)",
    );
    let recording = record(windows);
    println!(
        "{windows} windows over {NODES} nodes, recording {} bytes, fan-outs {counts:?}",
        recording.len()
    );

    let mut group = c.benchmark_group(format!("serve_{windows}_windows"));
    for &connections in &counts {
        group.bench_with_input(
            BenchmarkId::new("connections", connections),
            &connections,
            |b, &connections| {
                b.iter(|| black_box(serve_campus(&recording, windows, connections)));
            },
        );
    }
    group.finish();

    // Fan-out summary for the experiment record, and the acceptance bound:
    // the amortized per-connection serve at the largest fan-out costs no
    // more than 2x the whole single-connection serve.
    let mut totals = Vec::new();
    for &connections in &counts {
        let rounds = 3;
        let started = std::time::Instant::now();
        let mut received = 0u64;
        for _ in 0..rounds {
            received += serve_campus(&recording, windows, connections);
        }
        let secs = started.elapsed().as_secs_f64() / rounds as f64;
        totals.push((connections, secs));
        println!(
            "{connections:>3} connection(s): {:>8.2} ms/serve, {:>7.1} us/window/connection ({received} frames drained)",
            secs * 1e3,
            secs * 1e6 / (windows * connections) as f64,
        );
    }
    if let (Some(&(one, base)), Some(&(many, total))) = (totals.first(), totals.last()) {
        if many > one {
            let amortized = total / many as f64;
            println!(
                "fan-out {many}x: {:.2} ms total, amortized {:.3} ms/connection vs {:.3} ms for the {one}-connection serve",
                total * 1e3,
                amortized * 1e3,
                base * 1e3,
            );
            assert!(
                amortized <= 2.0 * base,
                "encode-once fan-out bound violated: {:.3} ms amortized per connection at {many} \
                 connections vs {:.3} ms for a single-connection serve",
                amortized * 1e3,
                base * 1e3,
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_serve
}
criterion_main!(benches);
