//! E-S7 — the window codec: archive size, bytes per window and decode
//! cost.
//!
//! Two workloads probe the two sides of the delta trade. A synthetic
//! *steady* stream (a fixed hot-cell set with ~2% churn per window — the
//! shape of campus traffic between incidents) is where deltas pay: the
//! archive must shrink by at least 30% and decoding the delta chain
//! through a recycled [`DecodeScratch`] must beat full decoding by at
//! least 1.3x — both asserted here, recorded in `BENCH_codec.json`. The
//! *bursty* `ddos` scenario is the counter-case: most cells churn every
//! window, so the delta archive is recorded alongside the full one to show
//! (not assert) that full encoding is the right default there.
//!
//! Three lesson shapes compare the full-window layouts, v2 (per-row
//! headers, written by recordings made before v4) against v4 (one run of
//! linear-index gaps, what the encoder writes now): `codec_lesson_mixed`
//! (mixed on 4,096 nodes, 100 ms windows: a live lesson),
//! `codec_lesson_scan` (a clock-skewed scan on 4,096 nodes through a
//! reordering pipeline: a skewed recording) and `codec_lesson_ddos` (ddos
//! on 1,024 nodes, 1 s windows: a recorded lesson). Each records the mean
//! payload bytes per window and times encoding and decoding (through a
//! recycled scratch, as a replay or a client does) in both layouts. The
//! size margin is deterministic, so it is asserted: v4 must be at least
//! 10% smaller than v2 on the mixed lesson. The timings are margins
//! between layouts on a noisy host, so they are recorded, not asserted.
//!
//! `ddos` lesson windows also feed the CRC-32 kernel timings:
//! `frame_crc32/{table,dispatch}/*` checksums a 30 KiB and a 128 KiB
//! buffer of window payload bytes through the slicing-by-8 tables alone
//! and through [`crc32`]'s dispatch; on a CPU with carry-less multiply the
//! dispatch must be at least 5x the tables at 128 KiB (asserted here,
//! speedup recorded).
//!
//! The hot-cell count scales with `TW_CODEC_BENCH_EVENTS` (default 1e6,
//! CI's bench smoke step runs with 20000).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tw_bench::{banner, quick_criterion};
use tw_core::archive::crc32::{crc32, crc32_table};
use tw_core::ingest::{
    decode_window, decode_window_into, encode_window, encode_window_delta, ArchiveRecorder,
    DecodeScratch, IngestStats, Pipeline, PipelineConfig, RecordingMeta, Scenario, WindowReport,
};
use tw_matrix::CsrMatrix;

#[path = "../../ingest/tests/support/legacy_codec.rs"]
mod legacy_codec;

const NODES: usize = 512;
const WINDOWS: usize = 16;
const KEYFRAME_EVERY: u64 = 8;
/// Windows per 4,096-node lesson shape in the layout comparison.
const LESSON_WINDOWS: usize = 8;
const SEED: u64 = 0x5eed_cafe;

fn event_budget() -> usize {
    std::env::var("TW_CODEC_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// The same splitmix-flavoured LCG the scenario sources use inline:
/// tw-bench has no rand dependency and the workload must be deterministic.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A steady window sequence: `hot` stable cells, ~2% value churn per
/// window plus a trickle of deletes and inserts (so the delta encoder's
/// del/set paths both run).
fn steady_reports(hot: usize) -> Vec<WindowReport> {
    let mut state = SEED;
    let mut cells: Vec<(usize, usize, u64)> = Vec::with_capacity(hot + hot / 4);
    while cells.len() < hot {
        let need = hot - cells.len();
        for _ in 0..need + need / 4 + 8 {
            let r = lcg(&mut state) as usize % NODES;
            let c = lcg(&mut state) as usize % NODES;
            cells.push((r, c, lcg(&mut state) | 1));
        }
        cells.sort_unstable_by_key(|&(r, c, _)| (r, c));
        cells.dedup_by_key(|&mut (r, c, _)| (r, c));
    }
    cells.truncate(hot);

    let churn = (hot / 50).max(1);
    let mut reports = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        if w > 0 {
            for _ in 0..churn {
                let i = lcg(&mut state) as usize % cells.len();
                cells[i].2 = lcg(&mut state) | 1;
            }
            for _ in 0..(churn / 4).max(1) {
                let i = lcg(&mut state) as usize % cells.len();
                cells.remove(i);
                let (r, c) = (
                    lcg(&mut state) as usize % NODES,
                    lcg(&mut state) as usize % NODES,
                );
                let v = lcg(&mut state) | 1;
                match cells.binary_search_by_key(&(r, c), |&(r, c, _)| (r, c)) {
                    Ok(i) => cells[i].2 = v,
                    Err(i) => cells.insert(i, (r, c, v)),
                }
            }
        }
        let matrix = CsrMatrix::from_sorted_triples(NODES, NODES, &cells);
        let nnz = matrix.nnz();
        reports.push(WindowReport {
            matrix,
            stats: IngestStats {
                window_index: w as u64,
                events: churn as u64,
                packets: churn as u64 * 3,
                nnz,
                dropped_late: 0,
                reordered: 0,
                elapsed: Duration::from_micros(50),
            },
            frame: None,
        });
    }
    reports
}

/// Archive a window sequence at the given cadence; returns the ZIP size.
fn archive_bytes(reports: &[WindowReport], scenario: &str, keyframe_every: u64) -> usize {
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: scenario.to_string(),
        seed: SEED,
        node_count: NODES,
        window_us: 50_000,
        keyframe_every,
    });
    for report in reports {
        recorder.record(report).expect("recording in memory");
    }
    recorder.finish().expect("well under format limits").len()
}

/// Every window encoded self-contained (the v4 wire/archive layout).
fn full_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports.iter().map(encode_window).collect()
}

/// Every window in the v2 layout of recordings made before v4.
fn v2_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .map(|report| legacy_codec::encode_legacy(report, 2))
        .collect()
}

/// The v3 chain: a key frame every [`KEYFRAME_EVERY`] windows, deltas
/// against the previous window in between — what `--keyframe-every` stores.
fn chain_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .enumerate()
        .map(|(i, report)| {
            if (i as u64).is_multiple_of(KEYFRAME_EVERY) {
                encode_window(report)
            } else {
                encode_window_delta(&reports[i - 1], report)
            }
        })
        .collect()
}

fn decode_full(frames: &[Vec<u8>]) -> u64 {
    let mut nnz = 0u64;
    for frame in frames {
        nnz += decode_window(frame).expect("encoded above").matrix.nnz() as u64;
    }
    nnz
}

fn decode_chain(frames: &[Vec<u8>]) -> u64 {
    let mut scratch = DecodeScratch::new();
    let mut nnz = 0u64;
    for frame in frames {
        let report = decode_window_into(frame, &mut scratch).expect("encoded above");
        nnz += report.matrix.nnz() as u64;
        scratch.recycle(report.matrix);
    }
    nnz
}

/// Best-of-N wall clock for a decode loop (min is the stable estimator on
/// a noisy runner; the criterion groups record the medians separately).
fn best_of<F: FnMut() -> u64>(mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..7 {
        let started = Instant::now();
        black_box(f());
        best = best.min(started.elapsed());
    }
    best
}

/// Whether this CPU runs [`crc32`]'s carry-less-multiply kernel.
#[cfg(target_arch = "x86_64")]
fn crc_hardware() -> bool {
    std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn crc_hardware() -> bool {
    false
}

/// Sixteen checksums of `input`, so one timed round is well above the
/// clock's resolution.
fn crc_rounds(input: &[u8], crc: fn(&[u8]) -> u32) -> u64 {
    (0..16).map(|_| u64::from(crc(black_box(input)))).sum()
}

fn bench_codec(c: &mut Criterion) {
    banner("E-S7", "Delta window codec: archive size and decode cost");
    let hot = (event_budget() / WINDOWS).clamp(64, NODES * NODES / 2);
    let steady = steady_reports(hot);

    // -- Archive size, steady: the delta cadence must cut >= 30%. --------
    let steady_full = archive_bytes(&steady, "steady", 0);
    let steady_delta = archive_bytes(&steady, "steady", KEYFRAME_EVERY);
    criterion::record_measurement("codec_steady/archive_bytes/full", steady_full as u128);
    criterion::record_measurement("codec_steady/archive_bytes/delta", steady_delta as u128);
    println!(
        "steady ({WINDOWS} windows, {hot} hot cells, ~2% churn): \
         full archive {steady_full} B, keyframe-every-{KEYFRAME_EVERY} {steady_delta} B \
         ({:.1}% of full)",
        steady_delta as f64 / steady_full as f64 * 100.0
    );
    assert!(
        steady_delta * 10 <= steady_full * 7,
        "delta archiving must cut a steady recording by >= 30% \
         (full {steady_full} B, delta {steady_delta} B)"
    );

    // -- Archive size, bursty: the counter-case, recorded not asserted. --
    let config = PipelineConfig {
        window_us: 50_000,
        batch_size: 8_192,
        reorder_horizon_us: 0,
        ..Default::default()
    };
    let ddos = Pipeline::new(Scenario::Ddos.source(NODES as u32, SEED), config.clone()).run(8);
    let ddos_full = archive_bytes(&ddos, "ddos", 0);
    let ddos_delta = archive_bytes(&ddos, "ddos", KEYFRAME_EVERY);
    criterion::record_measurement("codec_ddos/archive_bytes/full", ddos_full as u128);
    criterion::record_measurement("codec_ddos/archive_bytes/delta", ddos_delta as u128);
    println!(
        "bursty (ddos, 8 windows): full archive {ddos_full} B, \
         keyframe-every-{KEYFRAME_EVERY} {ddos_delta} B ({:.1}% of full) \
         — churn-heavy streams keep full encoding the right default",
        ddos_delta as f64 / ddos_full as f64 * 100.0
    );

    // -- Full-window layouts, v2 vs v4, on three lesson shapes. ---------
    let mixed = Pipeline::new(
        Scenario::Mixed.source(4_096, SEED),
        PipelineConfig::default(),
    )
    .run(LESSON_WINDOWS);
    let (skewed, horizon_us) = Scenario::Scan.skewed_source(4_096, SEED, 5_000);
    let scan = Pipeline::new(
        skewed,
        PipelineConfig {
            reorder_horizon_us: horizon_us,
            ..PipelineConfig::default()
        },
    )
    .run(LESSON_WINDOWS);
    let lesson_config = PipelineConfig {
        window_us: 1_000_000,
        ..config
    };
    let lesson = Pipeline::new(Scenario::Ddos.source(1_024, SEED), lesson_config).run(4);
    let mut mixed_bytes = (0, 0);
    for (group_name, reports) in [
        ("codec_lesson_mixed", &mixed),
        ("codec_lesson_scan", &scan),
        ("codec_lesson_ddos", &lesson),
    ] {
        let v2 = v2_frames(reports);
        let v4 = full_frames(reports);
        let nnz = reports.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
        assert_eq!(decode_chain(&v2), nnz);
        assert_eq!(decode_chain(&v4), nnz);
        let per_window =
            |frames: &[Vec<u8>]| frames.iter().map(Vec::len).sum::<usize>() / frames.len().max(1);
        let (v2_bytes, v4_bytes) = (per_window(&v2), per_window(&v4));
        criterion::record_measurement(
            &format!("{group_name}/bytes_per_window/v2"),
            v2_bytes as u128,
        );
        criterion::record_measurement(
            &format!("{group_name}/bytes_per_window/v4"),
            v4_bytes as u128,
        );
        println!(
            "{group_name} ({} windows, {} cells/window): v2 {v2_bytes} B/window, \
             v4 {v4_bytes} B/window ({:+.1}%)",
            reports.len(),
            nnz / reports.len().max(1) as u64,
            (v4_bytes as f64 / v2_bytes as f64 - 1.0) * 100.0
        );
        if group_name == "codec_lesson_mixed" {
            mixed_bytes = (v2_bytes, v4_bytes);
        }
        let mut group = c.benchmark_group(group_name);
        group.bench_function("encode/v2", |b| b.iter(|| black_box(v2_frames(reports))));
        group.bench_function("encode/v4", |b| b.iter(|| black_box(full_frames(reports))));
        group.bench_function("decode/v2", |b| b.iter(|| black_box(decode_chain(&v2))));
        group.bench_function("decode/v4", |b| b.iter(|| black_box(decode_chain(&v4))));
        group.finish();
    }

    // -- CRC-32 on lesson payload bytes. ---------------------------------
    let payload = full_frames(&lesson).concat();
    let mut group = c.benchmark_group("frame_crc32");
    let mut crc_speedup = 0.0;
    for (label, len) in [("30KiB", 30 << 10), ("128KiB", 128 << 10)] {
        let input: Vec<u8> = payload.iter().copied().cycle().take(len).collect();
        assert_eq!(crc32(&input), crc32_table(&input));
        group.bench_function(format!("table/{label}"), |b| {
            b.iter(|| black_box(crc32_table(&input)))
        });
        group.bench_function(format!("dispatch/{label}"), |b| {
            b.iter(|| black_box(crc32(&input)))
        });
        let table = best_of(|| crc_rounds(&input, crc32_table));
        let dispatch = best_of(|| crc_rounds(&input, crc32));
        crc_speedup = table.as_secs_f64() / dispatch.as_secs_f64().max(1e-9);
        println!(
            "crc32 over {label}: tables {:.1} us, dispatch {:.1} us: {crc_speedup:.1}x",
            table.as_secs_f64() * 1e6 / 16.0,
            dispatch.as_secs_f64() * 1e6 / 16.0,
        );
        criterion::record_measurement(
            &format!("frame_crc32/{label}/dispatch_speedup_x1000"),
            (crc_speedup * 1000.0).round() as u128,
        );
    }
    group.finish();

    // -- Decode cost, steady: full stream vs v3 chain into scratch. ------
    let full = full_frames(&steady);
    let chain = chain_frames(&steady);
    let expect = steady.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
    assert_eq!(decode_full(&full), expect);
    assert_eq!(decode_chain(&chain), expect);

    let mut group = c.benchmark_group(format!("codec_{hot}_hot_cells"));
    group.bench_function("decode_full", |b| b.iter(|| black_box(decode_full(&full))));
    group.bench_function("decode_delta_scratch", |b| {
        b.iter(|| black_box(decode_chain(&chain)))
    });
    group.bench_function("encode_full", |b| {
        b.iter(|| black_box(full_frames(&steady).len()))
    });
    group.bench_function("encode_delta_chain", |b| {
        b.iter(|| black_box(chain_frames(&steady).len()))
    });
    group.finish();

    let full_time = best_of(|| decode_full(&full));
    let chain_time = best_of(|| decode_chain(&chain));
    let speedup = full_time.as_secs_f64() / chain_time.as_secs_f64().max(1e-9);
    println!(
        "steady decode: full {:.2} ms vs delta-into-scratch {:.2} ms: {speedup:.1}x faster",
        full_time.as_secs_f64() * 1e3,
        chain_time.as_secs_f64() * 1e3,
    );
    // Land both best-of-7 times and the speedup (x1000, so the flat
    // integer map can carry it) before the bound is asserted, so a missed
    // bound keeps its figures.
    let prefix = format!("codec_{hot}_hot_cells/steady_decode");
    criterion::record_measurement(&format!("{prefix}/full_best_of_7"), full_time.as_nanos());
    criterion::record_measurement(&format!("{prefix}/delta_best_of_7"), chain_time.as_nanos());
    criterion::record_measurement(
        &format!("{prefix}/speedup_x1000"),
        (speedup * 1000.0).round() as u128,
    );
    let (v2_bytes, v4_bytes) = mixed_bytes;
    assert!(
        v4_bytes * 10 <= v2_bytes * 9,
        "v4 windows must be at least 10% smaller than v2 on the mixed lesson \
         (v2 {v2_bytes} B, v4 {v4_bytes} B)"
    );
    // `crc_speedup` is the last (128 KiB) size's.
    if crc_hardware() {
        assert!(
            crc_speedup >= 5.0,
            "the carry-less-multiply CRC must be >= 5x the tables at 128 KiB \
             (got {crc_speedup:.2}x)"
        );
    } else {
        println!("no carry-less multiply on this CPU: dispatch runs the tables");
    }
    assert!(
        speedup >= 1.3,
        "decoding the steady delta chain into a scratch must be >= 1.3x \
         faster than full decoding (got {speedup:.2}x)"
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_codec
}
criterion_main!(benches);
