//! Offline shim for the subset of `criterion` used by this workspace.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the criterion API the bench targets use — `Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`, `BenchmarkId`, and
//! the `criterion_group!`/`criterion_main!` macros — as a simple wall-clock
//! timing harness. Each benchmark warms up for `warm_up_time`, then runs
//! `sample_size` samples within `measurement_time` and reports the median
//! per-iteration time on stdout. There is no statistical analysis, plotting,
//! or baseline comparison.
//!
//! Beyond the upstream API, the shim records every benchmark's median and, at
//! the end of `criterion_main!`, writes `BENCH_<target>.json` — a flat
//! `{"bench/name": median_ns}` object — so the repo accumulates a
//! machine-readable perf trajectory (CI uploads these files as artifacts).
//! Every record opens with the host facts that produced it: `host.nproc`
//! (available CPUs) and `host.commit` (`git describe --always --dirty` of
//! the working directory, or `"unknown"` outside a git checkout).
//! Set `BENCH_JSON_DIR` to redirect the output directory; set it to `-` to
//! disable writing.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Medians recorded by every benchmark run in this process, in run order.
static RESULTS: Mutex<Vec<(String, u128)>> = Mutex::new(Vec::new());

/// Identifier for a parameterized benchmark, e.g. `windowed_ingest/100000`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            id: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { id: name }
    }
}

/// The timing-harness configuration (subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Plotting is not supported; accepted for API compatibility.
    pub fn without_plots(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let report = run_benchmark(self, name, f);
        println!("{report}");
        self
    }
}

/// A named group of benchmarks sharing one configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        let report = run_benchmark(self.criterion, &full, f);
        println!("{report}");
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        let report = run_benchmark(self.criterion, &full, |b| f(b, input));
        println!("{report}");
        self
    }

    pub fn finish(self) {}
}

/// Passed to the benchmark closure; `iter` times the supplied routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn time_once<F: FnMut(&mut Bencher)>(f: &mut F, iters: u64) -> Duration {
    let mut bencher = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    bencher.elapsed
}

fn run_benchmark(config: &Criterion, name: &str, mut f: impl FnMut(&mut Bencher)) -> String {
    // Warm-up: also estimates the per-iteration cost so samples fit the
    // measurement window.
    let warm_up_start = Instant::now();
    let mut warm_up_iters: u64 = 0;
    let mut batch: u64 = 1;
    while warm_up_start.elapsed() < config.warm_up_time {
        time_once(&mut f, batch);
        warm_up_iters += batch;
        batch = batch.saturating_mul(2).min(1 << 20);
    }
    let per_iter = warm_up_start.elapsed().as_nanos().max(1) / u128::from(warm_up_iters.max(1));

    let samples = config.sample_size.max(2);
    let budget_per_sample = config.measurement_time.as_nanos().max(1) / samples as u128;
    let iters_per_sample = (budget_per_sample / per_iter.max(1)).clamp(1, 1 << 24) as u64;

    let mut sample_times: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let elapsed = time_once(&mut f, iters_per_sample);
        sample_times.push(elapsed.as_nanos() / u128::from(iters_per_sample));
    }
    sample_times.sort_unstable();
    let median = sample_times[sample_times.len() / 2];
    let low = sample_times[0];
    let high = sample_times[sample_times.len() - 1];
    RESULTS
        .lock()
        .expect("results lock")
        .push((name.to_string(), median));
    format!(
        "{name:<50} time: [{} {} {}]",
        format_ns(low),
        format_ns(median),
        format_ns(high)
    )
}

/// A JSON string literal. Benchmark names are ASCII identifiers plus `/`,
/// but escape quotes/backslashes defensively.
fn json_string(text: &str) -> String {
    let escaped: String = text
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            _ => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The host facts every record starts with, as `(key, JSON value)` pairs.
fn host_facts() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("host.nproc".to_string(), nproc.to_string()),
        ("host.commit".to_string(), json_string(&commit)),
    ]
}

/// Serialize the host facts (pre-rendered JSON values) and the recorded
/// medians as one flat JSON object.
fn results_json(host: &[(String, String)], results: &[(String, u128)]) -> String {
    let rows: Vec<String> = host
        .iter()
        .map(|(key, value)| format!("  {}: {value}", json_string(key)))
        .chain(
            results
                .iter()
                .map(|(name, median)| format!("  {}: {median}", json_string(name))),
        )
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Record an externally measured median (in nanoseconds) under `name`, next
/// to the sampled benchmarks in `BENCH_<target>.json`. For hand-timed
/// measurements the sample loop cannot express — e.g. interleaved A/B rounds
/// where both sides must alternate within one timing pass.
pub fn record_measurement(name: &str, median_ns: u128) {
    RESULTS
        .lock()
        .expect("results lock")
        .push((name.to_string(), median_ns));
}

/// Write `BENCH_<target>.json` with the median nanoseconds of every benchmark
/// run so far. Called by `criterion_main!` after the groups finish; `target`
/// is the bench target's crate name. Honors `BENCH_JSON_DIR` (`-` disables).
pub fn write_results(target: &str) {
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    if dir == "-" {
        return;
    }
    let results = RESULTS.lock().expect("results lock");
    if results.is_empty() {
        return;
    }
    let path = format!("{dir}/BENCH_{target}.json");
    match std::fs::write(&path, results_json(&host_facts(), &results)) {
        Ok(()) => println!("wrote {path} ({} benchmark(s))", results.len()),
        Err(error) => eprintln!("could not write {path}: {error}"),
    }
}

fn format_ns(nanos: u128) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.4} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.4} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.4} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos:.4} ns")
    }
}

/// `std::hint::black_box`, re-exported under criterion's historical path.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_results(env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_harness_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut group = c.benchmark_group("shim");
        let mut runs = 0u64;
        group.bench_function("count", |b| b.iter(|| runs += 1));
        group.bench_with_input(BenchmarkId::new("with_input", 42), &42u64, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn results_are_recorded_and_serialized() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        c.bench_function("shim_json/probe", |b| b.iter(|| black_box(1 + 1)));
        let results = RESULTS.lock().unwrap();
        let recorded: Vec<_> = results
            .iter()
            .filter(|(name, _)| name == "shim_json/probe")
            .collect();
        assert!(
            !recorded.is_empty(),
            "bench_function must record its median"
        );
        drop(results);
        let host = [
            ("host.nproc".to_string(), "2".to_string()),
            ("host.commit".to_string(), json_string("abc123-dirty")),
        ];
        let json = results_json(
            &host,
            &[
                ("group/a".to_string(), 123u128),
                ("quote\"name\\x".to_string(), 7u128),
            ],
        );
        assert!(json.starts_with("{\n  \"host.nproc\": 2,\n  \"host.commit\": \"abc123-dirty\",\n"));
        assert!(json.contains("\"group/a\": 123,"));
        assert!(json.contains("\"quote\\\"name\\\\x\": 7"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn write_results_honors_disable_and_directory() {
        // `-` disables writing entirely (used by test runs).
        std::env::set_var("BENCH_JSON_DIR", "-");
        write_results("shimtest_disabled");
        assert!(!std::path::Path::new("BENCH_shimtest_disabled.json").exists());
        let dir = std::env::temp_dir().join(format!("criterion-shim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BENCH_JSON_DIR", &dir);
        RESULTS.lock().unwrap().push(("w/one".to_string(), 42));
        write_results("shimtest");
        let path = dir.join("BENCH_shimtest.json");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"w/one\": 42"));
        // Every record carries its host facts.
        assert!(written.contains("\"host.nproc\": "), "{written}");
        assert!(written.contains("\"host.commit\": \""), "{written}");
        std::env::remove_var("BENCH_JSON_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert!(format_ns(12).contains("ns"));
        assert!(format_ns(12_000).contains("µs"));
        assert!(format_ns(12_000_000).contains("ms"));
        assert!(format_ns(12_000_000_000).contains(" s"));
    }
}
