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
//! On both workloads the delta layouts are compared, v3 (per changed row:
//! deleted and upserted column lists, written by recordings made before v5;
//! the test-side legacy writer stands in for the deleted encoder) against
//! v5 (one run of tagged linear-index gaps, what the encoder writes now):
//! `codec_steady_deltas` and `codec_ddos_deltas` record the archive bytes
//! of the key-frame chain in each layout and time encoding and decoding
//! it. Those are recorded, not asserted.
//!
//! Three lesson shapes compare the full-window layouts: v2 (per-row
//! headers, written by recordings made before v4), v4 (one run of
//! linear-index gaps, each followed by its value, written by recordings
//! made before v6; the test-side writer in `support/reference_encoder.rs`
//! stands in for the replaced encoder) and v6 (v4 with small values folded
//! into their gap varints, what the encoder writes now):
//! `codec_lesson_mixed` (mixed on 4,096 nodes, 100 ms windows: a live
//! lesson), `codec_lesson_scan` (a clock-skewed scan on 4,096 nodes
//! through a reordering pipeline: a skewed recording) and
//! `codec_lesson_ddos` (ddos on 1,024 nodes, 1 s windows: a recorded
//! lesson). Each records the mean payload bytes per window in every layout,
//! the fold width the encoder picks (`fold_bits`, the width most windows
//! take), and times encoding and decoding (through a recycled scratch, as
//! a replay or a client does). The size margin is deterministic, so it is
//! asserted: v4 must be at least 10% smaller than v2 on the mixed lesson.
//! The timings are margins between layouts on a noisy host, so they are
//! recorded, not asserted.
//!
//! The v4 and v6 decode rows come in two kinds: `decode/*/scalar` reads
//! every cell through the scalar cell loop ([`decode_window_into_scalar`])
//! and `decode/*/dispatch` through the block kernel where the CPU has SSSE3
//! ([`decode_window_into`]). Alternating rounds of the two in this one
//! process give `decode_v4_dispatch_speedup_x1000` and
//! `decode_v6_dispatch_speedup_x1000`; on a CPU with the kernel each must
//! be at least 1.25x on the ddos lesson and at least 1x on the other two
//! (asserted here, after the speedups are recorded).
//!
//! The v6 encode is timed the same way against a plain per-row writer of
//! the same bytes (`encode/v6/reference`, the test-side writer, which
//! counts the cells by the bit lengths of their gaps and values in one
//! per-row pass to pick its fold width, and writes them in a second):
//! alternating rounds give `encode_v6_speedup_x1000`, which must be
//! at least 1.3x on the mixed and scan lessons, whose rows hold 0–3 cells,
//! and at least 0.95x on the dense ddos lesson, whose one-byte cells the
//! per-row loop already writes without a mispredicted branch (asserted
//! after recording). `encode/v4/reference` times the per-row v4 writer.
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
use tw_core::archive::ZipWriter;
use tw_core::ingest::codec::{decode_window_into_scalar, CodecError};
use tw_core::ingest::{
    decode_window, decode_window_into, encode_window, encode_window_delta, ArchiveRecorder,
    DecodeScratch, IngestStats, Pipeline, PipelineConfig, RecordingMeta, Scenario, WindowReport,
};
use tw_matrix::CsrMatrix;

#[path = "../../ingest/tests/support/legacy_codec.rs"]
mod legacy_codec;
#[path = "../../ingest/tests/support/reference_encoder.rs"]
mod reference_encoder;

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
            matrix: matrix.into(),
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

/// Every window encoded self-contained (the v6 wire/archive layout).
fn full_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports.iter().map(encode_window).collect()
}

/// Every window through the per-row v6 writer.
fn reference_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .map(reference_encoder::encode_reference)
        .collect()
}

/// Every window in the v4 layout of recordings made before v6.
fn v4_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .map(reference_encoder::encode_reference_v4)
        .collect()
}

/// Every window in the v2 layout of recordings made before v4.
fn v2_frames(reports: &[WindowReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .map(|report| legacy_codec::encode_legacy(report, 2))
        .collect()
}

/// A delta encoder: v5 ([`encode_window_delta`]) or the legacy v3 writer.
type DeltaEncoder = fn(&WindowReport, &WindowReport) -> Vec<u8>;

/// The delta chain: a key frame every [`KEYFRAME_EVERY`] windows, deltas
/// against the previous window in between — what `--keyframe-every` stores.
fn chain_frames(reports: &[WindowReport], delta: DeltaEncoder) -> Vec<Vec<u8>> {
    reports
        .iter()
        .enumerate()
        .map(|(i, report)| {
            if (i as u64).is_multiple_of(KEYFRAME_EVERY) {
                encode_window(report)
            } else {
                delta(&reports[i - 1], report)
            }
        })
        .collect()
}

/// The size of a ZIP holding `frames` as window entries, as a recording
/// stores them (less the manifest, which is the same for every layout).
fn zip_bytes(frames: &[Vec<u8>]) -> usize {
    let mut zip = ZipWriter::new();
    for (i, frame) in frames.iter().enumerate() {
        zip.add_file(&format!("windows/{i:08}.bin"), frame)
            .expect("unique entry names");
    }
    zip.finish().expect("well under format limits").len()
}

fn decode_full(frames: &[Vec<u8>]) -> u64 {
    let mut nnz = 0u64;
    for frame in frames {
        nnz += decode_window(frame).expect("encoded above").matrix.nnz() as u64;
    }
    nnz
}

fn decode_chain(frames: &[Vec<u8>]) -> u64 {
    decode_chain_with(frames, decode_window_into)
}

/// A scratch decoder: [`decode_window_into`] (the block kernel where the CPU
/// has it) or its scalar reference.
type ScratchDecoder = fn(&[u8], &mut DecodeScratch) -> Result<WindowReport, CodecError>;

/// Decode `frames` in order through one scratch, dropping each report, as a
/// replay or a client does.
fn decode_chain_with(frames: &[Vec<u8>], decode: ScratchDecoder) -> u64 {
    let mut scratch = DecodeScratch::new();
    let mut nnz = 0u64;
    for frame in frames {
        let report = decode(frame, &mut scratch).expect("encoded above");
        nnz += report.matrix.nnz() as u64;
    }
    nnz
}

/// Best-of-N wall clock for two codec loops, run in alternating rounds so
/// both see the same host state: a same-process A/B.
fn interleaved_best_of<A: FnMut() -> u64, B: FnMut() -> u64>(
    mut a: A,
    mut b: B,
) -> (Duration, Duration) {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..15 {
        let started = Instant::now();
        black_box(a());
        best_a = best_a.min(started.elapsed());
        let started = Instant::now();
        black_box(b());
        best_b = best_b.min(started.elapsed());
    }
    (best_a, best_b)
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

/// Whether this CPU runs the full-window block decode kernel.
#[cfg(target_arch = "x86_64")]
fn block_kernel() -> bool {
    std::is_x86_feature_detected!("ssse3")
}

#[cfg(not(target_arch = "x86_64"))]
fn block_kernel() -> bool {
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

    // -- Delta layouts, v3 vs v5, steady and bursty. --------------------
    for (group_name, reports) in [
        ("codec_steady_deltas", &steady),
        ("codec_ddos_deltas", &ddos),
    ] {
        let encoders: [(&str, DeltaEncoder); 2] = [
            ("v3", legacy_codec::encode_legacy_delta),
            ("v5", encode_window_delta),
        ];
        let nnz = reports.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
        let mut group = c.benchmark_group(group_name);
        let mut sizes = Vec::new();
        for (layout, encoder) in encoders {
            let chain = chain_frames(reports, encoder);
            assert_eq!(decode_chain(&chain), nnz);
            let bytes = zip_bytes(&chain);
            criterion::record_measurement(
                &format!("{group_name}/archive_bytes/{layout}"),
                bytes as u128,
            );
            sizes.push(format!("{layout} {bytes} B"));
            group.bench_function(format!("encode/{layout}"), |b| {
                b.iter(|| black_box(chain_frames(reports, encoder)))
            });
            group.bench_function(format!("decode/{layout}"), |b| {
                b.iter(|| black_box(decode_chain(&chain)))
            });
        }
        group.finish();
        println!(
            "{group_name} ({} windows, keyframe-every-{KEYFRAME_EVERY}): archive {}",
            reports.len(),
            sizes.join(", ")
        );
    }

    // -- Full-window layouts, v2, v4 and v6, on three lesson shapes. ----
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
    let mut kernel_speedups = Vec::new();
    let mut encode_speedups = Vec::new();
    for (group_name, reports) in [
        ("codec_lesson_mixed", &mixed),
        ("codec_lesson_scan", &scan),
        ("codec_lesson_ddos", &lesson),
    ] {
        let v2 = v2_frames(reports);
        let v4 = v4_frames(reports);
        let v6 = full_frames(reports);
        let nnz = reports.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
        assert_eq!(decode_chain(&v2), nnz);
        for frames in [&v4, &v6] {
            assert_eq!(decode_chain(frames), nnz);
            assert_eq!(decode_chain_with(frames, decode_window_into_scalar), nnz);
        }
        assert_eq!(v6, reference_frames(reports), "{group_name}: v6 bytes");
        let per_window =
            |frames: &[Vec<u8>]| frames.iter().map(Vec::len).sum::<usize>() / frames.len().max(1);
        let (v2_bytes, v4_bytes, v6_bytes) = (per_window(&v2), per_window(&v4), per_window(&v6));
        for (layout, bytes) in [("v2", v2_bytes), ("v4", v4_bytes), ("v6", v6_bytes)] {
            criterion::record_measurement(
                &format!("{group_name}/bytes_per_window/{layout}"),
                bytes as u128,
            );
        }
        // The fold width each window's encoding names.
        let folds: Vec<u8> = reports
            .iter()
            .zip(&v6)
            .map(|(report, frame)| frame[reference_encoder::fold_width_at(report)])
            .collect();
        let fold_bits = (0..=8u8)
            .max_by_key(|k| {
                (
                    folds.iter().filter(|f| *f == k).count(),
                    std::cmp::Reverse(*k),
                )
            })
            .unwrap_or(0);
        criterion::record_measurement(&format!("{group_name}/fold_bits"), fold_bits.into());
        println!(
            "{group_name} ({} windows, {} cells/window): v2 {v2_bytes} B/window, \
             v4 {v4_bytes} B/window ({:+.1}%), v6 {v6_bytes} B/window ({:+.1}% on v4), \
             fold widths {folds:?}",
            reports.len(),
            nnz / reports.len().max(1) as u64,
            (v4_bytes as f64 / v2_bytes as f64 - 1.0) * 100.0,
            (v6_bytes as f64 / v4_bytes as f64 - 1.0) * 100.0,
        );
        if group_name == "codec_lesson_mixed" {
            mixed_bytes = (v2_bytes, v4_bytes);
        }
        let mut group = c.benchmark_group(group_name);
        group.bench_function("encode/v2", |b| b.iter(|| black_box(v2_frames(reports))));
        group.bench_function("encode/v4/reference", |b| {
            b.iter(|| black_box(v4_frames(reports)))
        });
        group.bench_function("encode/v6", |b| b.iter(|| black_box(full_frames(reports))));
        group.bench_function("encode/v6/reference", |b| {
            b.iter(|| black_box(reference_frames(reports)))
        });
        group.bench_function("decode/v2", |b| b.iter(|| black_box(decode_chain(&v2))));
        for (layout, frames) in [("v4", &v4), ("v6", &v6)] {
            group.bench_function(format!("decode/{layout}/scalar"), |b| {
                b.iter(|| black_box(decode_chain_with(frames, decode_window_into_scalar)))
            });
            group.bench_function(format!("decode/{layout}/dispatch"), |b| {
                b.iter(|| black_box(decode_chain(frames)))
            });
        }
        group.finish();
        for (layout, frames) in [("v4", &v4), ("v6", &v6)] {
            let (scalar, dispatch) = interleaved_best_of(
                || decode_chain_with(frames, decode_window_into_scalar),
                || decode_chain(frames),
            );
            let speedup = scalar.as_secs_f64() / dispatch.as_secs_f64().max(1e-9);
            println!(
                "{group_name} {layout} decode: scalar {:.1} us/window, dispatch {:.1} us/window: \
                 {speedup:.2}x",
                scalar.as_secs_f64() * 1e6 / reports.len() as f64,
                dispatch.as_secs_f64() * 1e6 / reports.len() as f64,
            );
            criterion::record_measurement(
                &format!("{group_name}/decode_{layout}_dispatch_speedup_x1000"),
                (speedup * 1000.0).round() as u128,
            );
            kernel_speedups.push((group_name, layout, speedup));
        }
        let (reference, chunked) = interleaved_best_of(
            || reference_frames(reports).len() as u64,
            || full_frames(reports).len() as u64,
        );
        let speedup = reference.as_secs_f64() / chunked.as_secs_f64().max(1e-9);
        println!(
            "{group_name} v6 encode: reference {:.1} us/window, chunked {:.1} us/window: \
             {speedup:.2}x",
            reference.as_secs_f64() * 1e6 / reports.len() as f64,
            chunked.as_secs_f64() * 1e6 / reports.len() as f64,
        );
        criterion::record_measurement(
            &format!("{group_name}/encode_v6_speedup_x1000"),
            (speedup * 1000.0).round() as u128,
        );
        encode_speedups.push((group_name, speedup));
    }

    // -- Delta chain against full windows on the ddos lesson: a key frame
    // and three v5 deltas decode to the same four windows the full frames
    // do. Recorded, not asserted.
    let lesson_full = full_frames(&lesson);
    let lesson_chain = chain_frames(&lesson, encode_window_delta);
    let lesson_nnz = lesson.iter().map(|r| r.matrix.nnz() as u64).sum::<u64>();
    assert_eq!(decode_chain(&lesson_chain), lesson_nnz);
    let mut group = c.benchmark_group("codec_lesson_ddos_chain");
    group.bench_function("decode/v6_full", |b| {
        b.iter(|| black_box(decode_chain(&lesson_full)))
    });
    group.bench_function("decode/v5_chain", |b| {
        b.iter(|| black_box(decode_chain(&lesson_chain)))
    });
    group.finish();
    let (full_time, chain_time) = interleaved_best_of(
        || decode_chain(&lesson_full),
        || decode_chain(&lesson_chain),
    );
    let chain_over_full = chain_time.as_secs_f64() / full_time.as_secs_f64().max(1e-9);
    println!(
        "codec_lesson_ddos_chain ({} windows, keyframe-every-{KEYFRAME_EVERY}): full {:.2} ms, \
         key frame + deltas {:.2} ms ({chain_over_full:.2}x the full decode)",
        lesson.len(),
        full_time.as_secs_f64() * 1e3,
        chain_time.as_secs_f64() * 1e3,
    );
    criterion::record_measurement(
        "codec_lesson_ddos_chain/decode_v5_chain_over_v6_full_x1000",
        (chain_over_full * 1000.0).round() as u128,
    );

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

    // -- Decode cost, steady: full stream vs delta chain into scratch. ---
    let full = full_frames(&steady);
    let chain = chain_frames(&steady, encode_window_delta);
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
        b.iter(|| black_box(chain_frames(&steady, encode_window_delta).len()))
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
    // The block kernel keeps its lines only while it wins: at least 1.25x
    // the scalar cell loop on the dense ddos lesson, and no loss on the
    // hypersparse 4,096-node ones.
    if block_kernel() {
        for (group_name, layout, speedup) in kernel_speedups {
            let bound = if group_name == "codec_lesson_ddos" {
                1.25
            } else {
                1.0
            };
            assert!(
                speedup >= bound,
                "{group_name}: the block kernel must decode {layout} >= {bound}x as fast as \
                 the scalar cell loop (got {speedup:.2}x)"
            );
        }
    } else {
        println!("no SSSE3 on this CPU: full-window decode dispatch runs the scalar cell loop");
    }
    // The chunked encoder keeps its lines only while it wins: at least 1.3x
    // the per-row writer where rows hold 0-3 cells, and no more than a 5%
    // loss on the dense ddos lesson.
    for (group_name, speedup) in encode_speedups {
        let bound = if group_name == "codec_lesson_ddos" {
            0.95
        } else {
            1.3
        };
        assert!(
            speedup >= bound,
            "{group_name}: the chunked v6 encoder must be >= {bound}x as fast as \
             the per-row writer (got {speedup:.2}x)"
        );
    }
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
