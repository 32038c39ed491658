//! E-S3 — streaming-ingest throughput.
//!
//! Two layers, each over pre-generated events so the scenario generator's
//! cost stays out of the rows:
//!
//! 1. Window accumulation: the merge at the shape a recorded lesson has,
//!    ~10k-event windows of a 4,096-node scan, warm and recycled as the
//!    pipeline runs it (first, so the large rows leave no trace in it); and
//!    a million-event stream turned into one matrix, through the serial
//!    `window_matrix` reference (COO push + coalesce) and through the
//!    pipeline's `WindowAccumulator` (counting-sort merge).
//! 2. The full pipeline: pull → scan → route → window rotation over ten
//!    windows, with and without the consumer recycling each matrix.
//!
//! Event count defaults to 1e6; set `TW_INGEST_BENCH_EVENTS` to shrink it
//! (CI's bench smoke step runs with a tiny count). Medians land in
//! `BENCH_ingest.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{
    collect_events, window_matrix, EventSource, Pipeline, PipelineConfig, Scenario,
    WindowAccumulator,
};
use tw_core::matrix::stream::PacketEvent;

fn event_count() -> usize {
    std::env::var("TW_INGEST_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// A pre-generated event list replayed in order, so pipeline rows time the
/// pipeline and not the scenario generator.
struct Replay {
    node_count: u32,
    events: Arc<[PacketEvent]>,
    cursor: usize,
}

impl EventSource for Replay {
    fn node_count(&self) -> u32 {
        self.node_count
    }

    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let end = (self.cursor + max).min(self.events.len());
        out.extend_from_slice(&self.events[self.cursor..end]);
        let pulled = end - self.cursor;
        self.cursor = end;
        pulled
    }
}

/// Ten windows through the pipeline; with `recycle`, every report is
/// dropped once read, as a steady consumer does, so rotation builds in its
/// storage; without, all ten are held, so each window is built in new
/// storage.
fn ten_windows(events: &Arc<[PacketEvent]>, nodes: u32, window_us: u64, recycle: bool) -> u64 {
    let config = PipelineConfig {
        window_us,
        ..PipelineConfig::default()
    };
    let source = Replay {
        node_count: nodes,
        events: Arc::clone(events),
        cursor: 0,
    };
    let mut pipeline = Pipeline::new(Box::new(source), config);
    let mut total_events = 0u64;
    let mut held = Vec::new();
    for _ in 0..10 {
        let Some(report) = pipeline.next_window() else {
            break;
        };
        total_events += report.stats.events;
        if !recycle {
            held.push(report);
        }
    }
    total_events
}

/// The first `count` whole windows of `window_us` from a `Scenario::Scan`
/// stream over `nodes` nodes with a fixed seed, split by timestamp.
fn lesson_windows(nodes: u32, window_us: u64, count: usize) -> Vec<Vec<PacketEvent>> {
    let mut source = Scenario::Scan.source(nodes, 1);
    let mut windows = vec![Vec::new(); count];
    let mut batch = Vec::new();
    loop {
        batch.clear();
        if source.pull(4_096, &mut batch) == 0 {
            return windows;
        }
        for event in &batch {
            match windows.get_mut((event.timestamp_us / window_us) as usize) {
                Some(window) => window.push(*event),
                None => return windows,
            }
        }
    }
}

fn bench_ingest(c: &mut Criterion) {
    banner(
        "E-S3",
        "Streaming ingest throughput (serial COO reference vs window accumulator, full pipeline)",
    );

    // The merge at a recorded lesson's shape: 100 ms windows of a scan
    // over 4,096 nodes (~10k events each), one window per iteration on a
    // warm accumulator whose matrices are dropped. This fixed-size row
    // runs first: after the million-event rows below it reads 20-60% slower
    // on the same binary.
    let lesson_nodes = 4_096u32;
    let lesson_windows = lesson_windows(lesson_nodes, 100_000, 8);
    println!(
        "{} scan windows over {lesson_nodes} nodes, {} events each on average",
        lesson_windows.len(),
        lesson_windows.iter().map(Vec::len).sum::<usize>() / lesson_windows.len()
    );
    let mut group = c.benchmark_group(format!("ingest_scan_{lesson_nodes}_nodes"));
    group.bench_function("accumulator_merge_recycled", |b| {
        let mut acc = WindowAccumulator::new(lesson_nodes as usize);
        let mut next = lesson_windows.iter().cycle();
        b.iter(|| {
            let window = next.next().expect("cycle over a non-empty list");
            acc.ingest(window);
            black_box(acc.merge().nnz())
        })
    });
    group.finish();

    let nodes = 1024u32;
    let events = {
        let mut source = Scenario::Mixed.source(nodes, 11);
        collect_events(source.as_mut(), event_count())
    };
    println!(
        "{} events over {nodes} nodes; serial reference nnz {}",
        events.len(),
        window_matrix(nodes as usize, &events).nnz()
    );

    // One-shot accumulation: the whole stream as a single window.
    let mut group = c.benchmark_group(format!("ingest_{}_events", events.len()));
    group.bench_function("serial_window_matrix", |b| {
        b.iter(|| black_box(window_matrix(nodes as usize, &events).nnz()))
    });
    group.bench_function("accumulator_merge", |b| {
        b.iter(|| {
            let mut acc = WindowAccumulator::new(nodes as usize);
            acc.ingest(&events);
            black_box(acc.merge().nnz())
        })
    });
    group.finish();

    // Full pipeline: pull → route → window rotation, 10 simulated windows.
    // The catalog runs at ~100k events per simulated second, i.e. one event
    // every ~10 µs: size the window so each holds ~window_events events.
    let window_events = (event_count() / 10).max(1_000);
    let window_us = (window_events as u64) * 10;
    let mut group = c.benchmark_group("ingest_pipeline");
    for scenario in [Scenario::Background, Scenario::Ddos] {
        // Two windows' slack past the ten timed ones, so the tenth closes
        // on the next window's first event like every other.
        let stream: Arc<[PacketEvent]> = {
            let mut source = scenario.source(nodes, 3);
            collect_events(source.as_mut(), window_events * 12).into()
        };
        group.bench_with_input(
            BenchmarkId::new("ten_windows", scenario),
            &stream,
            |b, stream| b.iter(|| black_box(ten_windows(stream, nodes, window_us, false))),
        );
        group.bench_with_input(
            BenchmarkId::new("ten_windows_recycled", scenario),
            &stream,
            |b, stream| b.iter(|| black_box(ten_windows(stream, nodes, window_us, true))),
        );
    }
    group.finish();

    // Events/sec summary for the experiment record.
    let mut acc = WindowAccumulator::new(nodes as usize);
    let started = std::time::Instant::now();
    acc.ingest(&events);
    let matrix = acc.merge();
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "accumulator: {} events -> nnz {} in {:.1} ms = {:.2} M events/s",
        events.len(),
        matrix.nnz(),
        elapsed * 1e3,
        events.len() as f64 / elapsed / 1e6
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_ingest
}
criterion_main!(benches);
