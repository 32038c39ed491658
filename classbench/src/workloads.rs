//! The three classroom-delivery workloads.
//!
//! * `live-paced` (open loop): scenario `mixed` on 4,096 nodes released on a
//!   wall-clock schedule of one simulated 100 ms window per 10 ms, through
//!   the default pipeline into `serve` and two student clients. About a
//!   quarter of what this path sustains flat out on a 2-CPU host, so a
//!   window's latency is the cost of its blocking path, not queueing.
//! * `replay-flat-out` (closed loop): a `ddos` lesson on 1,024 nodes with
//!   1 s windows, recorded at set-up, replayed from disk through `serve` as
//!   fast as the two clients apply it. Ingest does no work.
//! * `record-skewed` (batch): a clock-skewed `scan` stream through a
//!   reordering pipeline into `ArchiveRecorder` and a file. Nothing touches
//!   the network.

use crate::cpu::{process_cpu_time, StealProbe};
use crate::lesson::{Lesson, LessonSource, Pace, SourceTrace};
use crate::reference::Reference;
use crate::rss::RssProbe;
use crate::serving::{serve_session, Session, Timed, CLIENTS};
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tw_core::ingest::{
    ArchiveRecorder, FileReplaySource, Pipeline, PipelineConfig, RecordingMeta, Scenario,
};
use tw_core::metrics::{MetricsRegistry, MetricsSnapshot};
use tw_core::serve::ServeConfig;

const LIVE_NODES: u32 = 4_096;
const LIVE_WINDOW_US: u64 = 100_000;
/// Windows in one pass of the live lesson; the run loops it.
const LIVE_LESSON_WINDOWS: usize = 100;
/// Wall time per simulated window: 10x real time. Pacing at 5 ms is past
/// the knee on a 2-CPU host.
const LIVE_WALL_WINDOW: Duration = Duration::from_millis(10);
/// Windows served before latency samples count.
const LIVE_WARMUP_WINDOWS: usize = 50;

const REPLAY_NODES: u32 = 1_024;
const REPLAY_WINDOW_US: u64 = 1_000_000;
/// Windows in the replayed lesson; one serve session replays all of them.
const REPLAY_LESSON_WINDOWS: usize = 32;
/// Untimed sessions first: the first replay in a process runs about twice
/// as slow as later ones.
const REPLAY_WARMUP_ROUNDS: usize = 2;

const RECORD_NODES: u32 = 4_096;
const RECORD_WINDOW_US: u64 = 100_000;
const RECORD_LESSON_WINDOWS: usize = 100;
/// Per-source clock skew; the stream's disorder bound is 5/4 of it.
const RECORD_SKEW_US: u64 = 5_000;
const RECORD_WARMUP_ROUNDS: usize = 1;

/// Untimed rounds whose median peak-RSS growth the flat-out workloads
/// report.
const MEMORY_ROUNDS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paced live scenario to two clients: latency.
    LivePaced,
    /// Recorded lesson replayed flat out to two clients: throughput.
    ReplayFlatOut,
    /// Skewed scenario recorded to a file: write-side throughput.
    RecordSkewed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LivePaced,
        Workload::ReplayFlatOut,
        Workload::RecordSkewed,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LivePaced => "live-paced",
            Workload::ReplayFlatOut => "replay-flat-out",
            Workload::RecordSkewed => "record-skewed",
        }
    }

    /// Parse a `--workload` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Layers this workload predicts idle: every per-layer metric and
    /// registry entry under these prefixes must read zero in a traced run.
    pub fn idle_layers(self) -> &'static [&'static str] {
        match self {
            Workload::LivePaced => &["archive"],
            Workload::ReplayFlatOut => &["pipeline"],
            Workload::RecordSkewed => &["serve", "broadcast", "client", "game"],
        }
    }

    /// Generate the inputs from `seed`, compute the reference windows and
    /// (for replay) write the lesson under `dir`.
    pub fn prepare(self, seed: u64, dir: &Path) -> Result<Prepared, String> {
        match self {
            Workload::LivePaced => {
                let mut source = Scenario::Mixed.source(LIVE_NODES, seed);
                let lesson =
                    Lesson::generate(source.as_mut(), LIVE_WINDOW_US, LIVE_LESSON_WINDOWS, 0);
                Ok(Prepared::new(lesson, seed, 0, None))
            }
            Workload::ReplayFlatOut => prepare_replay(seed, dir),
            Workload::RecordSkewed => {
                let (mut source, bound) =
                    Scenario::Scan.skewed_source(RECORD_NODES, seed, RECORD_SKEW_US);
                let lesson = Lesson::generate(
                    source.as_mut(),
                    RECORD_WINDOW_US,
                    RECORD_LESSON_WINDOWS,
                    bound,
                );
                let path = dir.join("record.zip");
                Ok(Prepared::new(lesson, seed, bound, Some(path)))
            }
        }
    }

    /// One measured phase of about `seconds`, traced or not.
    pub fn measure(self, prepared: &Prepared, seconds: u64, traced: bool) -> Result<Phase, String> {
        let steal = StealProbe::start();
        let mut phase = match self {
            Workload::LivePaced => measure_live(prepared, seconds, traced),
            Workload::ReplayFlatOut => measure_replay(prepared, seconds, traced),
            Workload::RecordSkewed => measure_record(prepared, seconds, traced),
        }?;
        phase.steal_share = steal.share();
        Ok(phase)
    }
}

/// A workload's set-up output.
#[derive(Debug)]
pub struct Prepared {
    seed: u64,
    /// The generated events.
    pub lesson: Lesson,
    /// Reference windows for one pass of the lesson.
    pub reference: Reference,
    /// The pipeline's reorder horizon (0 = strict).
    horizon_us: u64,
    /// The recorded lesson (replay) or the recording to write (record).
    path: Option<PathBuf>,
    /// Recorded windows that did not match the reference at set-up.
    pub setup_mismatches: u64,
}

impl Prepared {
    fn new(lesson: Lesson, seed: u64, horizon_us: u64, path: Option<PathBuf>) -> Prepared {
        Prepared {
            reference: Reference::of(&lesson),
            seed,
            lesson,
            horizon_us,
            path,
            setup_mismatches: 0,
        }
    }

    fn path(&self) -> Result<&str, String> {
        self.path
            .as_deref()
            .and_then(Path::to_str)
            .ok_or_else(|| "workload has no UTF-8 file path".to_string())
    }
}

/// Spans and registry contents of a traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    /// `Pipeline::next_window` minus nested source pulls, per window.
    pub pipeline_self_ns: Vec<u64>,
    /// Paced source lag per pull.
    pub lag_ns: Vec<u64>,
    /// `FileReplaySource::next_window` per window.
    pub replay_ns: Vec<u64>,
    /// `ArchiveRecorder::record` per window.
    pub record_ns: Vec<u64>,
    /// `ArchiveRecorder::finish` plus the file write, per recording.
    pub finish_ns: Vec<u64>,
    /// `ClientStream::next_window` per (window, client).
    pub client_next_ns: Vec<u64>,
    /// `LiveWarehouse::on_window` per (window, client).
    pub on_window_ns: Vec<u64>,
    /// `ClientStream::decode_reuse_hits`, summed over clients.
    pub decode_reuse_hits: u64,
    /// The program's registry at the end of the phase.
    pub registry: MetricsSnapshot,
}

/// The outcome of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations run: (window, client) deliveries, or windows recorded.
    pub attempted: u64,
    /// Operations that failed (see `Session::failed`; for recording, late
    /// drops, record errors and windows the reopened file gets wrong).
    pub failed: u64,
    /// Per-operation latency samples in ms.
    pub latency_ms: Vec<f64>,
    /// Events in fully delivered (or recorded) windows in the timed span.
    pub events: u64,
    /// The timed span in seconds.
    pub busy_s: f64,
    /// Process CPU seconds spent over the timed span.
    pub cpu_s: f64,
    /// Share of the machine's CPU time stolen by the hypervisor meanwhile.
    pub steal_share: f64,
    /// Encoded (serve) or archive (record) bytes in the timed span.
    pub bytes: u64,
    /// Windows those bytes cover.
    pub windows: u64,
    /// Peak RSS growth in MiB: over the serve session (live), or the median
    /// over [`MEMORY_ROUNDS`] extra rounds (flat-out workloads).
    pub rss_growth_mib: f64,
    /// Spans; empty when untraced.
    pub trace: Trace,
}

impl Phase {
    fn add_session(&mut self, session: &Session, reference: &Reference, trace: &mut Trace) {
        self.attempted += session.attempted();
        self.failed += session.failed();
        self.bytes += session.summary.encoded_bytes;
        self.windows += session.summary.windows();
        self.events += session
            .complete_windows()
            .into_iter()
            .map(|i| reference.window(i).events)
            .sum::<u64>();
        for client in &session.clients {
            if let Some(error) = &client.error {
                eprintln!("classbench: client stream ended early: {error}");
            }
            trace.client_next_ns.extend(&client.next_window_ns);
            trace.on_window_ns.extend(&client.on_window_ns);
            trace.decode_reuse_hits += client.decode_reuse_hits;
        }
    }
}

fn prepare_replay(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let mut source = Scenario::Ddos.source(REPLAY_NODES, seed);
    let lesson = Lesson::generate(source.as_mut(), REPLAY_WINDOW_US, REPLAY_LESSON_WINDOWS, 0);
    let reference = Reference::of(&lesson);
    let config = PipelineConfig {
        window_us: REPLAY_WINDOW_US,
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(Box::new(LessonSource::new(&lesson, 1)), config);
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: Scenario::Ddos.name().to_string(),
        seed,
        node_count: REPLAY_NODES as usize,
        window_us: REPLAY_WINDOW_US,
        keyframe_every: 0,
    });
    while let Some(report) = pipeline.next_window() {
        recorder.record(&report).map_err(|e| e.to_string())?;
        pipeline.recycle_window(report.matrix);
    }
    let bytes = recorder.finish().map_err(|e| e.to_string())?;
    let path = dir.join("lesson.zip");
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let mismatches = recording_mismatches(&path, &reference)?;
    Ok(Prepared {
        reference,
        seed,
        // Replay serves from the file, so the events need not stay resident.
        lesson: Lesson {
            events: Vec::new().into(),
            ..lesson
        },
        horizon_us: 0,
        path: Some(path),
        setup_mismatches: mismatches,
    })
}

/// Windows of the recording at `path` that differ from `reference`, plus
/// reference windows missing from it.
fn recording_mismatches(path: &Path, reference: &Reference) -> Result<u64, String> {
    let name = path.to_str().ok_or("recording path is not UTF-8")?;
    let mut replay = FileReplaySource::open(name).map_err(|e| e.to_string())?;
    let mut good = 0u64;
    let mut bad = 0u64;
    let mut expected = 0u64;
    while let Some(report) = replay.next_window().map_err(|e| e.to_string())? {
        if reference.matches(expected, &report) {
            good += 1;
        } else {
            bad += 1;
        }
        expected += 1;
    }
    Ok(bad + (reference.windows.len() as u64).saturating_sub(good + bad))
}

fn measure_live(prepared: &Prepared, seconds: u64, traced: bool) -> Result<Phase, String> {
    let lesson = &prepared.lesson;
    let reference = &prepared.reference;
    let pace = Pace::new(LIVE_WINDOW_US, LIVE_WALL_WINDOW);
    let windows =
        LIVE_WARMUP_WINDOWS + seconds as usize * (1_000 / LIVE_WALL_WINDOW.as_millis() as usize);
    // One pass more than served, so the last served window closes on the
    // next window's first event like every other.
    let loops = windows / lesson.windows + 1;
    let start = Arc::new(OnceLock::new());
    let source_trace = traced.then(|| Arc::new(SourceTrace::default()));
    let mut source = LessonSource::new(lesson, loops).paced(pace, start.clone());
    if let Some(t) = &source_trace {
        source = source.traced(t.clone());
    }
    let registry = traced.then(MetricsRegistry::new);
    let mut pipeline = Pipeline::new(Box::new(source), PipelineConfig::default());
    if let Some(r) = &registry {
        pipeline.instrument(r);
    }
    let mut stream = Timed::new(pipeline, traced, source_trace.clone());
    let config = ServeConfig {
        scenario: Scenario::Mixed.name().to_string(),
        seed: prepared.seed,
        wait_for: CLIENTS,
        max_windows: windows,
        metrics: registry.clone(),
        ..ServeConfig::default()
    };
    let probe = RssProbe::start().map_err(|e| format!("rss probe: {e}"))?;
    let cpu_before = process_cpu_time()?;
    let session = serve_session(&mut stream, &config, reference, registry.as_ref())?;
    let mut phase = Phase {
        cpu_s: (process_cpu_time()? - cpu_before).as_secs_f64(),
        rss_growth_mib: probe.growth_mib().map_err(|e| format!("rss probe: {e}"))?,
        ..Phase::default()
    };
    let mut trace = Trace::default();
    phase.add_session(&session, reference, &mut trace);
    let t0 = *start.get().ok_or("the paced source was never pulled")?;
    // Latency runs from the due time of the window's last event.
    let span_us = lesson.span_us();
    let due = |index: u64| {
        let window = reference.window(index);
        let pass = index / lesson.windows as u64;
        t0 + Duration::from_nanos(pace.due_ns(window.last_ts + pass * span_us))
    };
    for client in &session.clients {
        for a in client.applied.iter() {
            if a.ok && a.index >= LIVE_WARMUP_WINDOWS as u64 {
                let latency = a.applied.saturating_duration_since(due(a.index));
                phase.latency_ms.push(latency.as_secs_f64() * 1e3);
            }
        }
    }
    let end = session.last_applied().ok_or("no window was applied")?;
    phase.busy_s = (end - t0).as_secs_f64();
    if traced {
        trace.pipeline_self_ns = stream.into_spans();
        trace.lag_ns = source_trace.map(|t| t.lags_ns()).unwrap_or_default();
    }
    trace.registry = registry.map(|r| r.snapshot()).unwrap_or_default();
    phase.trace = trace;
    Ok(phase)
}

fn replay_session(
    prepared: &Prepared,
    registry: Option<&MetricsRegistry>,
) -> Result<(Session, Instant, Vec<u64>), String> {
    let windows = prepared.reference.windows.len();
    let replay = FileReplaySource::open(prepared.path()?).map_err(|e| e.to_string())?;
    let mut stream = Timed::new(replay, registry.is_some(), None);
    let config = ServeConfig {
        scenario: Scenario::Ddos.name().to_string(),
        seed: prepared.seed,
        // Channels sized to the stream: the lag-drop bound is zero.
        channel_capacity: windows,
        ring_capacity: windows.clamp(1, 64),
        wait_for: CLIENTS,
        max_windows: windows,
        metrics: registry.cloned(),
        ..ServeConfig::default()
    };
    let session = serve_session(&mut stream, &config, &prepared.reference, registry)?;
    let started = stream.first_call().ok_or("serve never pulled the replay")?;
    Ok((session, started, stream.into_spans()))
}

/// Median peak-RSS growth over [`MEMORY_ROUNDS`] untimed rounds, each
/// started from a trimmed heap, so the figure does not depend on which
/// allocator arenas earlier rounds left grown. `round` returns the
/// operations it attempted and failed, which are added to `phase`.
fn memory_rounds(
    phase: &mut Phase,
    mut round: impl FnMut() -> Result<(u64, u64), String>,
) -> Result<(), String> {
    let mut growth = Vec::with_capacity(MEMORY_ROUNDS);
    for _ in 0..MEMORY_ROUNDS {
        let probe = RssProbe::start().map_err(|e| format!("rss probe: {e}"))?;
        let (attempted, failed) = round()?;
        growth.push(probe.growth_mib().map_err(|e| format!("rss probe: {e}"))?);
        phase.attempted += attempted;
        phase.failed += failed;
    }
    phase.rss_growth_mib = median(&growth);
    Ok(())
}

fn measure_replay(prepared: &Prepared, seconds: u64, traced: bool) -> Result<Phase, String> {
    let reference = &prepared.reference;
    let mut phase = Phase::default();
    let mut trace = Trace::default();
    let untimed = || -> Result<(u64, u64), String> {
        let (session, _, _) = replay_session(prepared, None)?;
        Ok((session.attempted(), session.failed()))
    };
    for _ in 0..REPLAY_WARMUP_ROUNDS {
        let (attempted, failed) = untimed()?;
        phase.attempted += attempted;
        phase.failed += failed;
    }
    let registry = traced.then(MetricsRegistry::new);
    let mut busy = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    while busy.as_secs() < seconds {
        let cpu_before = process_cpu_time()?;
        let (session, started, spans) = replay_session(prepared, registry.as_ref())?;
        cpu += process_cpu_time()? - cpu_before;
        let end = session.last_applied().ok_or("no window was applied")?;
        busy += end.saturating_duration_since(started);
        phase.add_session(&session, reference, &mut trace);
        for client in &session.clients {
            phase.latency_ms.extend(
                client
                    .applied
                    .iter()
                    .filter(|a| a.ok)
                    .map(|a| (a.applied - a.called).as_secs_f64() * 1e3),
            );
        }
        trace.replay_ns.extend(spans);
    }
    phase.busy_s = busy.as_secs_f64();
    phase.cpu_s = cpu.as_secs_f64();
    memory_rounds(&mut phase, untimed)?;
    trace.registry = registry.map(|r| r.snapshot()).unwrap_or_default();
    phase.trace = trace;
    Ok(phase)
}

/// One recording of the whole skewed lesson, written to the workload's
/// file and checked by reopening it.
fn record_round(
    prepared: &Prepared,
    registry: Option<&MetricsRegistry>,
    phase: &mut Phase,
    trace: &mut Trace,
) -> Result<Duration, String> {
    let cpu_at_start = phase.cpu_s;
    let lesson = &prepared.lesson;
    let reference = &prepared.reference;
    let source_trace = registry.map(|_| Arc::new(SourceTrace::default()));
    let mut source = LessonSource::new(lesson, 1);
    if let Some(t) = &source_trace {
        source = source.traced(t.clone());
    }
    let config = PipelineConfig {
        window_us: lesson.window_us,
        reorder_horizon_us: prepared.horizon_us,
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(Box::new(source), config);
    let mut recorder = ArchiveRecorder::new(RecordingMeta {
        scenario: Scenario::Scan.name().to_string(),
        seed: prepared.seed,
        node_count: lesson.node_count as usize,
        window_us: lesson.window_us,
        keyframe_every: 0,
    });
    if let Some(r) = registry {
        pipeline.instrument(r);
        recorder.instrument(r);
    }
    let pulled_ns = || {
        source_trace
            .as_ref()
            .map_or(0, |t| t.pull_ns.load(std::sync::atomic::Ordering::Relaxed))
    };
    let mut busy = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut reordered = 0u64;
    let mut windows = 0u64;
    loop {
        let cpu_before = process_cpu_time()?;
        let called = Instant::now();
        let pulled_before = pulled_ns();
        let Some(report) = pipeline.next_window() else {
            break;
        };
        let got = Instant::now();
        let recorded = recorder.record(&report);
        let done = Instant::now();
        cpu += process_cpu_time()? - cpu_before;
        busy += done - called;
        windows += 1;
        phase.latency_ms.push((done - called).as_secs_f64() * 1e3);
        if registry.is_some() {
            let span = (got - called).as_nanos() as u64;
            trace
                .pipeline_self_ns
                .push(span.saturating_sub(pulled_ns() - pulled_before));
            trace.record_ns.push((done - got).as_nanos() as u64);
        }
        if let Err(e) = recorded {
            eprintln!("classbench: record failed: {e}");
            phase.failed += 1;
        }
        reordered += report.stats.reordered;
        pipeline.recycle_window(report.matrix);
    }
    let cpu_before = process_cpu_time()?;
    let finishing = Instant::now();
    let bytes = recorder.finish().map_err(|e| e.to_string())?;
    let path = prepared.path()?;
    std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    let finish = finishing.elapsed();
    cpu += process_cpu_time()? - cpu_before;
    busy += finish;
    if registry.is_some() {
        trace.finish_ns.push(finish.as_nanos() as u64);
    }
    phase.attempted += windows.max(reference.windows.len() as u64);
    phase.failed += recording_mismatches(Path::new(path), reference)?;
    if reordered != reference.inversions {
        eprintln!(
            "classbench: pipeline reordered {reordered} events, the stream has {} inversions",
            reference.inversions
        );
        phase.failed += 1;
    }
    phase.events += reference.events();
    phase.bytes += bytes.len() as u64;
    phase.windows += windows;
    phase.cpu_s = cpu_at_start + cpu.as_secs_f64();
    Ok(busy)
}

fn measure_record(prepared: &Prepared, seconds: u64, traced: bool) -> Result<Phase, String> {
    let untimed = || -> Result<(u64, u64), String> {
        let mut scratch = Phase::default();
        record_round(prepared, None, &mut scratch, &mut Trace::default())?;
        Ok((scratch.attempted, scratch.failed))
    };
    let mut phase = Phase::default();
    for _ in 0..RECORD_WARMUP_ROUNDS {
        let (attempted, failed) = untimed()?;
        phase.attempted += attempted;
        phase.failed += failed;
    }
    let mut trace = Trace::default();
    let registry = traced.then(MetricsRegistry::new);
    let mut busy = Duration::ZERO;
    while busy.as_secs() < seconds {
        busy += record_round(prepared, registry.as_ref(), &mut phase, &mut trace)?;
    }
    phase.busy_s = busy.as_secs_f64();
    memory_rounds(&mut phase, untimed)?;
    trace.registry = registry.map(|r| r.snapshot()).unwrap_or_default();
    phase.trace = trace;
    Ok(phase)
}
