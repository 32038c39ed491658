//! E-S5 — watermarked out-of-order ingest overhead.
//!
//! The correctness fix behind the reordering stage (a skewed stream loses
//! nothing when the horizon covers the disorder) must not cost the ordered
//! fast path anything and must keep the reorder path within a small factor
//! of it. Both pipelines consume pre-materialized event vectors through the
//! same replay source, so the measurement isolates routing + reordering from
//! event generation. Medians land in `BENCH_reorder.json` via the criterion
//! shim.
//!
//! Event count defaults to 1e6; set `TW_REORDER_BENCH_EVENTS` to shrink it
//! (CI's bench smoke step runs with a tiny count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{collect_events, EventSource, Pipeline, PipelineConfig, Scenario};
use tw_core::matrix::stream::PacketEvent;

const NODES: u32 = 1024;
const SEED: u64 = 11;
const SKEW_US: u64 = 5_000;
const WINDOW_US: u64 = 100_000;

fn event_count() -> usize {
    std::env::var("TW_REORDER_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Replay a pre-collected event vector in arrival order.
struct ReplayEvents<'a> {
    events: &'a [PacketEvent],
    cursor: usize,
}

impl EventSource for ReplayEvents<'_> {
    fn node_count(&self) -> u32 {
        NODES
    }
    fn pull(&mut self, max: usize, out: &mut Vec<PacketEvent>) -> usize {
        let take = max.min(self.events.len() - self.cursor);
        out.extend_from_slice(&self.events[self.cursor..self.cursor + take]);
        self.cursor += take;
        take
    }
}

fn run(events: &'static [PacketEvent], horizon_us: u64) -> (u64, u64, u64) {
    let config = PipelineConfig {
        window_us: WINDOW_US,
        batch_size: 8_192,
        reorder_horizon_us: horizon_us,
        ..Default::default()
    };
    let source = ReplayEvents { events, cursor: 0 };
    let mut pipeline = Pipeline::new(Box::new(source), config);
    let reports = pipeline.run(usize::MAX);
    (
        reports.iter().map(|r| r.stats.events).sum(),
        reports.iter().map(|r| r.stats.dropped_late).sum(),
        reports.iter().map(|r| r.stats.reordered).sum(),
    )
}

fn bench_reorder(c: &mut Criterion) {
    let count = event_count();
    banner(
        "E-S5",
        "Watermarked reordering overhead (ordered vs skewed ingest)",
    );
    // The same mixed scenario twice: once sorted (the pre-watermark input
    // contract) and once through drifting per-source clocks.
    let ordered: &'static [PacketEvent] = {
        let mut source = Scenario::Mixed.source(NODES, SEED);
        collect_events(source.as_mut(), count).leak()
    };
    let (skewed, bound): (&'static [PacketEvent], u64) = {
        let (mut source, bound) = Scenario::Mixed.skewed_source(NODES, SEED, SKEW_US);
        (collect_events(source.as_mut(), count).leak(), bound)
    };
    let horizon = bound;
    let (events, dropped, reordered) = run(skewed, horizon);
    assert_eq!(events, count as u64, "a covered horizon loses nothing");
    assert_eq!(dropped, 0);
    println!(
        "{count} events over {NODES} nodes; skew {SKEW_US} us (disorder bound {bound} us), \
         horizon {horizon} us: {reordered} reordered, 0 dropped"
    );

    let mut group = c.benchmark_group(format!("reorder_{count}_events"));
    group.bench_with_input(
        BenchmarkId::new("ordered", "strict"),
        &ordered,
        |b, &events| b.iter(|| black_box(run(events, 0))),
    );
    group.bench_with_input(
        BenchmarkId::new("ordered", "with_horizon"),
        &ordered,
        |b, &events| b.iter(|| black_box(run(events, horizon))),
    );
    group.bench_with_input(
        BenchmarkId::new("skewed", "with_horizon"),
        &skewed,
        |b, &events| b.iter(|| black_box(run(events, horizon))),
    );
    group.finish();

    // Overhead summary for the experiment record (the acceptance bound is
    // skewed-with-horizon <= 1.5x ordered-strict).
    let started = std::time::Instant::now();
    black_box(run(ordered, 0));
    let ordered_elapsed = started.elapsed();
    let started = std::time::Instant::now();
    black_box(run(skewed, horizon));
    let skewed_elapsed = started.elapsed();
    println!(
        "ordered strict {:.2} ms vs skewed+horizon {:.2} ms: {:.2}x overhead",
        ordered_elapsed.as_secs_f64() * 1e3,
        skewed_elapsed.as_secs_f64() * 1e3,
        skewed_elapsed.as_secs_f64() / ordered_elapsed.as_secs_f64().max(1e-9),
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_reorder
}
criterion_main!(benches);
