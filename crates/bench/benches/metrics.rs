//! E-M1 — instrumentation overhead bound.
//!
//! The tentpole claim behind `tw-metrics`: threading per-stage counters and
//! log2 histograms through the full ingest pipeline costs less than 5% of
//! throughput at a million events. The bench runs interleaved baseline /
//! instrumented pipeline passes, takes the fastest round of each, and asserts
//! the ratio inside the bench body — a regression that makes instrumentation
//! expensive fails the bench run itself, not just a dashboard.
//!
//! Event count defaults to 1e6; set `TW_METRICS_BENCH_EVENTS` to shrink it
//! (CI's bench smoke step runs with a tiny count, where the assertion is
//! skipped because sub-millisecond runs are all noise). Medians land in
//! `BENCH_metrics.json` via the criterion shim.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{Pipeline, PipelineConfig, Scenario};
use tw_core::metrics::{Counter, Histogram, MetricsRegistry, StageTimer};

fn event_count() -> usize {
    std::env::var("TW_METRICS_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// One full pipeline pass: pull → route → coalesce over ten windows,
/// optionally recording into `registry`. Returns the event total so the
/// optimizer cannot discard the work.
fn run_pipeline(nodes: u32, window_events: usize, registry: Option<&MetricsRegistry>) -> u64 {
    // The catalog runs at ~100k events per simulated second, i.e. one event
    // every ~10 µs: size the window so each holds ~window_events events.
    let config = PipelineConfig {
        window_us: (window_events as u64) * 10,
        batch_size: 8_192,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    let mut pipeline = Pipeline::new(Scenario::Mixed.source(nodes, 7), config);
    if let Some(registry) = registry {
        pipeline.instrument(registry);
    }
    let reports = pipeline.run(10);
    reports.iter().map(|r| r.stats.events).sum()
}

/// The minimum over rounds: scheduler and cache noise only ever ADD time, so
/// the fastest observed round is the least-contaminated estimate of the true
/// cost — the estimator of choice for an A/B ratio on a shared machine.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bench_metrics(c: &mut Criterion) {
    let nodes = 1024u32;
    let window_events = (event_count() / 10).max(1_000);
    banner(
        "E-M1",
        "Instrumentation overhead: instrumented pipeline within 5% of baseline",
    );

    // --- The overhead bound, measured by hand with interleaved rounds so
    // slow drift (thermal, scheduler) hits both sides equally.
    const ROUNDS: usize = 9;
    let mut baseline_s = Vec::with_capacity(ROUNDS);
    let mut instrumented_s = Vec::with_capacity(ROUNDS);
    // One untimed warm-up pair: first touch of the scenario tables and the
    // allocator is not what we are bounding.
    black_box(run_pipeline(nodes, window_events, None));
    let warm_registry = MetricsRegistry::new();
    black_box(run_pipeline(nodes, window_events, Some(&warm_registry)));
    let mut events_seen = 0u64;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        events_seen = black_box(run_pipeline(nodes, window_events, None));
        baseline_s.push(started.elapsed().as_secs_f64());

        let registry = MetricsRegistry::new();
        let started = Instant::now();
        black_box(run_pipeline(nodes, window_events, Some(&registry)));
        instrumented_s.push(started.elapsed().as_secs_f64());
    }
    let base = fastest(&baseline_s);
    let instr = fastest(&instrumented_s);
    let ratio = instr / base;
    println!(
        "{events_seen} events x {ROUNDS} interleaved rounds: fastest baseline {:.1} ms, \
         fastest instrumented {:.1} ms, ratio {ratio:.4}",
        base * 1e3,
        instr * 1e3
    );
    if event_count() >= 100_000 {
        assert!(
            ratio <= 1.05,
            "instrumented pipeline is {:.1}% slower than baseline; the metrics \
             layer promises <= 5% overhead",
            (ratio - 1.0) * 100.0
        );
        println!("overhead bound holds: {:.2}% <= 5%", (ratio - 1.0) * 100.0);
    } else {
        println!("event count below 100k: overhead assertion skipped (noise-dominated)");
    }

    // Land the interleaved estimates (not fresh un-interleaved samples,
    // which drift would skew) plus the ratio itself in BENCH_metrics.json.
    // Ratio is stored as permille so the flat integer map can carry it.
    let prefix = format!("metrics_pipeline_{events_seen}_events");
    criterion::record_measurement(&format!("{prefix}/baseline"), (base * 1e9) as u128);
    criterion::record_measurement(&format!("{prefix}/instrumented"), (instr * 1e9) as u128);
    criterion::record_measurement(
        &format!("{prefix}/overhead_ratio_permille"),
        (ratio * 1000.0).round() as u128,
    );

    // --- Primitive costs, for the metric reference table: what one counter
    // bump, one histogram observation, and one guarded stage timing cost.
    let counter = Counter::default();
    let histogram = Histogram::default();
    let mut group = c.benchmark_group("metrics_primitives");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_observe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(2_654_435_761);
            histogram.observe(black_box(v))
        })
    });
    group.bench_function("stage_timer_enabled", |b| {
        b.iter(|| StageTimer::start(black_box(Some(&histogram))).finish())
    });
    group.bench_function("stage_timer_disabled", |b| {
        b.iter(|| StageTimer::start(black_box(None)).finish())
    });
    group.bench_function("registry_snapshot", |b| {
        let registry = MetricsRegistry::new();
        run_pipeline(nodes, 1_000, Some(&registry));
        b.iter(|| black_box(registry.snapshot().counter("pipeline.events")))
    });
    group.finish();

    println!(
        "primitives recorded; counter now at {} after timing",
        counter.get()
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_metrics
}
criterion_main!(benches);
