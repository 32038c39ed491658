//! E-S5 — classroom broadcast fan-out cost.
//!
//! The multi-session serving claim: one `WindowStream` driven once through
//! the `Broadcaster` serves N subscribers for far less than N times the cost
//! of serving one, because each window is decoded once and fanned out as an
//! `Arc` pointer clone per subscriber — per-window fan-out cost must scale
//! sublinearly in subscriber count. This bench replays a pre-recorded ddos
//! capture (so the producer cost is the realistic classroom case: decode,
//! not generation) to 1 vs 8 vs 32 subscribers and records the medians in
//! `BENCH_broadcast.json` via the criterion shim.
//!
//! Knobs: `TW_BROADCAST_BENCH_WINDOWS` (default 8) shrinks the recording;
//! `TW_BROADCAST_BENCH_SUBSCRIBERS` caps the largest fan-out (CI smoke runs
//! with tiny values).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Cursor;
use tw_bench::{banner, quick_criterion};
use tw_core::game::{BroadcastConfig, Broadcaster, StartOffset, Subscription};
use tw_core::ingest::{
    ArchiveRecorder, Pipeline, PipelineConfig, RecordingMeta, ReplaySource, Scenario,
};

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

/// One full classroom serve: replay the recording once through the hub to
/// `subscribers` consumers and drain every subscription. Returns the total
/// windows received across the class (for black_box).
fn serve(recording: &[u8], windows: usize, subscribers: usize) -> u64 {
    let mut replay = ReplaySource::new(Cursor::new(recording)).expect("recording parses");
    let mut caster = Broadcaster::new(BroadcastConfig {
        channel_capacity: windows,
        ring_capacity: windows.min(64),
    });
    let subs: Vec<Subscription> = (0..subscribers)
        .map(|_| caster.subscribe(StartOffset::Origin))
        .collect();
    let summary = caster.run(&mut replay, windows).expect("replay decodes");
    assert_eq!(summary.windows as usize, windows);
    subs.iter().map(|s| s.drain().len() as u64).sum()
}

fn bench_broadcast(c: &mut Criterion) {
    let windows = env_usize("TW_BROADCAST_BENCH_WINDOWS", 8);
    let max_subscribers = env_usize("TW_BROADCAST_BENCH_SUBSCRIBERS", 32);
    let counts: Vec<usize> = [1usize, 8, 32]
        .into_iter()
        .filter(|&n| n == 1 || n <= max_subscribers)
        .collect();
    banner(
        "E-S5",
        "Classroom broadcast fan-out (1 vs 8 vs 32 subscribers)",
    );
    let recording = record(windows);
    println!(
        "{windows} windows over {NODES} nodes, recording {} bytes, fan-outs {counts:?}",
        recording.len()
    );

    let mut group = c.benchmark_group(format!("broadcast_{windows}_windows"));
    for &subscribers in &counts {
        group.bench_with_input(
            BenchmarkId::new("subscribers", subscribers),
            &subscribers,
            |b, &subscribers| {
                b.iter(|| black_box(serve(&recording, windows, subscribers)));
            },
        );
    }
    group.finish();

    // Sublinearity summary for the experiment record: wall-clock per window
    // at each fan-out, and the 32-subscriber cost relative to 32x the
    // 1-subscriber cost.
    let mut per_window_us = Vec::new();
    for &subscribers in &counts {
        let started = std::time::Instant::now();
        let mut received = 0u64;
        let rounds = 5;
        for _ in 0..rounds {
            received += serve(&recording, windows, subscribers);
        }
        let elapsed = started.elapsed();
        let us = elapsed.as_secs_f64() * 1e6 / (rounds * windows) as f64;
        per_window_us.push((subscribers, us));
        println!(
            "{subscribers:>3} subscriber(s): {us:>8.1} us/window ({received} windows delivered)"
        );
    }
    if let (Some(&(one, base)), Some(&(many, cost))) = (per_window_us.first(), per_window_us.last())
    {
        if many > one {
            let scale = (cost / base) / (many as f64 / one as f64);
            println!(
                "fan-out {many}x costs {:.2}x the {one}-subscriber serve ({:.0}% of linear scaling)",
                cost / base,
                scale * 100.0
            );
            assert!(
                cost < base * (many as f64 / one as f64),
                "fan-out must scale sublinearly: {cost:.1} us/window at {many} subs vs {base:.1} at {one}"
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_broadcast
}
criterion_main!(benches);
