//! `classbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median as `setup_s`),
//! runs one measured phase of about `--seconds`, verifies every window
//! against its reference, and prints a record line with host facts followed
//! by the result line. With `--trace 1` it runs an untraced phase and then
//! a traced one, and reports the per-layer metrics instead, failing the run
//! if a layer the workload predicts idle did work.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use tw_classbench::cpu::process_cpu_time;
use tw_classbench::metrics::{
    end_to_end, idle_violations, overhead_ratio, per_layer, result_line, wall_clock, Metrics,
    END_TO_END, PER_LAYER,
};
use tw_classbench::stats::{median, percentile};
use tw_classbench::workloads::{Prepared, Workload};
use tw_classbench::HELD_OUT_SEED;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory under the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Result<ScratchDir, String> {
        let dir = Path::new(".classbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The first line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    let escaped: String = text
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Host facts, input sizes and the untraced phase's wall-clock figures with
/// their latency sample count, printed before the result line.
fn record_line(
    args: &Args,
    prepared: &Prepared,
    setup_wall_s: f64,
    wall: &Metrics,
    latency_ms: &[f64],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let reference = &prepared.reference;
    let p99_used = percentile(latency_ms, 0.99).map_or(0.0, |p| p.used);
    let quoted = |items: &mut dyn Iterator<Item = String>| items.collect::<Vec<_>>().join(", ");
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"nproc\": {nproc}, \"commit\": {}, \"rustc\": {}, \
         \"inputs\": {{\"events\": {}, \"windows\": {}, \"nnz\": {}}}, \
         \"setup_wall_s\": {setup_wall_s}, \"wall_clock\": {{{}}}, \"latency_samples\": {}, \
         \"p99_quantile_used\": {p99_used}, \"idle_layers\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        // Only the working directory's own repository, never a parent's.
        json_string(&command_line(
            "git",
            &["--git-dir", ".git", "rev-parse", "HEAD"]
        )),
        json_string(&command_line("rustc", &["-V"])),
        reference.events(),
        reference.windows.len(),
        reference.nnz(),
        quoted(
            &mut wall
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
        ),
        latency_ms.len(),
        quoted(
            &mut args
                .workload
                .idle_layers()
                .iter()
                .map(|l| format!("\"{l}\""))
        ),
    )
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let scratch = ScratchDir::create()?;
    let mut setup_cpu_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_wall_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so only one is ever resident.
        drop(prepared.take());
        let cpu = process_cpu_time()?;
        let started = Instant::now();
        prepared = Some(args.workload.prepare(args.seed, &scratch.0)?);
        setup_wall_s.push(started.elapsed().as_secs_f64());
        setup_cpu_s.push((process_cpu_time()? - cpu).as_secs_f64());
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    if prepared.setup_mismatches > 0 {
        eprintln!(
            "classbench: {} recorded window(s) differ from the reference",
            prepared.setup_mismatches
        );
    }

    let plain = args.workload.measure(&prepared, args.seconds, false)?;
    let wall = wall_clock(&plain);
    let mut correct = prepared.setup_mismatches == 0;
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let (metrics, spec) = if args.trace {
        // A traced run answers for both of its phases.
        let traced = args.workload.measure(&prepared, args.seconds, true)?;
        attempted += traced.attempted;
        failed += traced.failed;
        let lesson = &prepared.lesson;
        let gen_ns_per_event = lesson.gen_ns as f64 / lesson.pulled.max(1) as f64;
        let overhead = overhead_ratio(&traced, &plain);
        let layers = per_layer(&traced, wall.clone(), gen_ns_per_event, overhead);
        let violations =
            idle_violations(args.workload.idle_layers(), &layers, &traced.trace.registry);
        for v in &violations {
            eprintln!("classbench: layer predicted idle did work: {v}");
        }
        correct &= violations.is_empty();
        (layers, PER_LAYER)
    } else {
        (end_to_end(median(&setup_cpu_s), &plain), END_TO_END)
    };
    correct &= failed == 0;
    println!(
        "{}",
        record_line(
            &args,
            &prepared,
            median(&setup_wall_s),
            &wall,
            &plain.latency_ms
        )
    );
    drop(scratch);
    result_line(correct, attempted, failed, &metrics, spec)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("classbench: {e}");
            ExitCode::FAILURE
        }
    }
}
