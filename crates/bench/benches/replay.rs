//! E-S4 — record/replay vs live ingest.
//!
//! The classroom claim behind the window archive: replaying a recorded
//! scenario (ZIP → codec decode → window stream) is an order of magnitude
//! faster than regenerating and re-ingesting the events live, so one
//! capture can serve a whole course. Both paths produce the identical
//! window stream (property-tested in `tw-ingest`); this bench measures the
//! wall-clock gap on the `ddos` scenario and records the medians in
//! `BENCH_replay.json` via the criterion shim.
//!
//! Window count defaults to 8; set `TW_REPLAY_BENCH_WINDOWS` to shrink it
//! (CI's bench smoke step runs with a tiny count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tw_bench::{banner, quick_criterion};
use tw_core::ingest::{
    ArchiveRecorder, Pipeline, PipelineConfig, RecordingMeta, ReplaySource, Scenario,
};

const NODES: u32 = 1024;
const SEED: u64 = 7;
/// One simulated second per window — the classroom display cadence. At the
/// catalog's ~100k events per simulated second this is ~100k events per
/// window, which is where the archive's coalescing pays off: replay cost
/// scales with the window's stored cells, live ingest with raw events.
const WINDOW_US: u64 = 1_000_000;

fn window_count() -> usize {
    std::env::var("TW_REPLAY_BENCH_WINDOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn pipeline(windows: usize) -> Pipeline {
    // Large enough batches that the source is not the bottleneck; the
    // window count bounds the run.
    let _ = windows;
    let config = PipelineConfig {
        window_us: WINDOW_US,
        batch_size: 8_192,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    Pipeline::new(Scenario::Ddos.source(NODES, SEED), config)
}

fn record(windows: usize) -> Vec<u8> {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: "ddos".to_string(),
        seed: SEED,
        node_count: NODES as usize,
        window_us: WINDOW_US,
        keyframe_every: 0,
    });
    let mut pipeline = pipeline(windows);
    for report in pipeline.run(windows) {
        recorder.record(&report).expect("recording in memory");
    }
    recorder.finish().expect("well under format limits")
}

fn bench_replay(c: &mut Criterion) {
    let windows = window_count();
    banner(
        "E-S4",
        "Window record/replay vs live ingest (ddos scenario)",
    );
    let recording = record(windows);
    let recorded_events: u64 = {
        let mut replay = ReplaySource::parse(&recording).expect("recording parses");
        replay
            .collect_windows()
            .expect("recording decodes")
            .iter()
            .map(|r| r.stats.events)
            .sum()
    };
    println!(
        "{windows} windows over {NODES} nodes: {recorded_events} events, recording {} bytes",
        recording.len()
    );

    let mut group = c.benchmark_group(format!("replay_{windows}_windows"));
    group.bench_with_input(
        BenchmarkId::new("live_ingest", "ddos"),
        &windows,
        |b, &windows| {
            b.iter(|| {
                let mut pipeline = pipeline(windows);
                let reports = pipeline.run(windows);
                black_box(reports.iter().map(|r| r.stats.events).sum::<u64>())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("replay", "ddos"),
        &recording,
        |b, recording| {
            b.iter(|| {
                let mut replay = ReplaySource::parse(recording).expect("recording parses");
                let mut events = 0u64;
                while let Some(report) = replay.next_window().expect("recording decodes") {
                    events += report.stats.events;
                }
                black_box(events)
            })
        },
    );
    group.finish();

    // Speedup summary for the experiment record.
    let live_started = std::time::Instant::now();
    let live_events: u64 = pipeline(windows)
        .run(windows)
        .iter()
        .map(|r| r.stats.events)
        .sum();
    let live = live_started.elapsed();
    let replay_started = std::time::Instant::now();
    let replay_events: u64 = {
        let mut replay = ReplaySource::parse(&recording).expect("recording parses");
        let mut events = 0u64;
        while let Some(report) = replay.next_window().expect("recording decodes") {
            events += report.stats.events;
        }
        events
    };
    let replayed = replay_started.elapsed();
    assert_eq!(
        live_events, replay_events,
        "replay must reproduce the live stream"
    );
    println!(
        "live {:.2} ms vs replay {:.2} ms: {:.1}x faster ({} events)",
        live.as_secs_f64() * 1e3,
        replayed.as_secs_f64() * 1e3,
        live.as_secs_f64() / replayed.as_secs_f64().max(1e-9),
        replay_events,
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_replay
}
criterion_main!(benches);
