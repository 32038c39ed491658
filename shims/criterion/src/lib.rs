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
//! (available CPUs), `host.commit` (`git describe --always --dirty` of
//! the working directory, or `"unknown"` outside a git checkout), then,
//! when the working tree differs from `HEAD`, `host.tree` (see
//! [`tree_fact`]), so records of two different dirty trees of one commit
//! do not look alike, and one `host.env.<NAME>` string per
//! `TW_*_BENCH_*` scale variable that is set, so a smoke-scale record
//! cannot pass for a full-scale one.
//! Set `BENCH_JSON_DIR` to redirect the output directory; set it to `-` to
//! disable writing. A group that panics (a missed bound asserted inside the
//! bench) does not lose the record: `criterion_main!` still runs the other
//! groups, writes the file, and then resumes the first panic, so the run
//! fails with its data on disk.

use std::any::Any;
use std::fmt::Display;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
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
    let mut facts = vec![
        ("host.nproc".to_string(), nproc.to_string()),
        ("host.commit".to_string(), json_string(&commit)),
    ];
    facts.extend(tree_fact(Path::new(".")));
    facts.extend(bench_env_facts(std::env::vars_os().filter_map(
        |(key, value)| Some((key.into_string().ok()?, value.into_string().ok()?)),
    )));
    facts
}

/// The `host.tree` fact of the checkout that holds `dir`, when its working
/// tree differs from `HEAD`: `git hash-object --stdin` over
/// `git diff HEAD --binary`, followed by each untracked, non-ignored file's
/// path (NUL-ended) and contents. Nothing is written to the repository.
/// `None` for a clean tree, or outside a git checkout.
fn tree_fact(dir: &Path) -> Option<(String, String)> {
    let git = |args: &[&str], input: Option<&[u8]>| -> Option<Vec<u8>> {
        let mut child = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .ok()?;
        // Dropping stdin after the write closes it, so git sees the end.
        let written = child.stdin.take()?.write_all(input.unwrap_or_default());
        let out = child.wait_with_output().ok()?;
        (written.is_ok() && out.status.success()).then_some(out.stdout)
    };
    let top = git(&["rev-parse", "--show-toplevel"], None)?;
    let top = Path::new(std::str::from_utf8(&top).ok()?.trim_end());
    let mut state = git(&["diff", "HEAD", "--binary"], None)?;
    let untracked = git(
        &[
            "ls-files",
            "--others",
            "--exclude-standard",
            "--full-name",
            "-z",
        ],
        None,
    )?;
    for path in untracked.split(|&b| b == 0).filter(|path| !path.is_empty()) {
        state.extend_from_slice(path);
        state.push(0);
        let path = std::str::from_utf8(path).ok()?;
        state.extend(std::fs::read(top.join(path)).unwrap_or_default());
    }
    if state.is_empty() {
        return None;
    }
    let hash = git(&["hash-object", "--stdin"], Some(&state))?;
    let hash = String::from_utf8(hash).ok()?;
    Some(("host.tree".to_string(), json_string(hash.trim())))
}

/// One `host.env.<NAME>` fact per `TW_*_BENCH_*` variable among `vars`,
/// sorted by name, its value as a JSON string.
fn bench_env_facts(vars: impl Iterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut facts: Vec<(String, String)> = vars
        .filter(|(key, _)| {
            key.strip_prefix("TW_")
                .and_then(|rest| rest.find("_BENCH_"))
                .is_some_and(|at| at > 0)
        })
        .map(|(key, value)| (format!("host.env.{key}"), json_string(&value)))
        .collect();
    facts.sort();
    facts
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

/// Run every benchmark group, then write `BENCH_<target>.json` (see
/// [`write_results`]). A panicking group does not stop the others or the
/// write; the first panic is resumed once the record is on disk, so the
/// process still fails. This is the body of `criterion_main!`.
pub fn run_main(target: &str, groups: &[fn()]) {
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for group in groups {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(group)) {
            first_panic.get_or_insert(panic);
        }
    }
    write_results(target);
    if let Some(panic) = first_panic {
        resume_unwind(panic);
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
            $crate::run_main(env!("CARGO_CRATE_NAME"), &[$($group),+]);
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

    /// Serializes the tests that set `BENCH_JSON_DIR`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn write_results_honors_disable_and_directory() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    fn a_panicking_group_still_writes_the_record_then_fails() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fn fails_a_bound() {
            record_measurement("panicky/before_the_bound", 7);
            panic!("bound missed");
        }
        fn runs_after() {
            record_measurement("panicky/later_group", 9);
        }
        let dir = std::env::temp_dir().join(format!("criterion-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BENCH_JSON_DIR", &dir);
        let outcome = catch_unwind(|| run_main("shimpanic", &[fails_a_bound, runs_after]));
        std::env::remove_var("BENCH_JSON_DIR");
        let panic = outcome.expect_err("the group's panic is resumed");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"bound missed"));
        let written = std::fs::read_to_string(dir.join("BENCH_shimpanic.json")).unwrap();
        assert!(
            written.contains("\"panicky/before_the_bound\": 7"),
            "{written}"
        );
        assert!(written.contains("\"panicky/later_group\": 9"), "{written}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_scale_variables_are_stamped_as_host_facts() {
        let vars = [
            ("TW_SERVE_BENCH_WINDOWS", "2"),
            ("TW_CODEC_BENCH_EVENTS", "20000"),
            ("TW_BENCH_EVENTS", "1"),
            ("TW_CODEC_EVENTS", "1"),
            ("BENCH_JSON_DIR", "-"),
            ("PATH", "/bin"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        let facts = bench_env_facts(vars.into_iter());
        assert_eq!(
            facts,
            vec![
                (
                    "host.env.TW_CODEC_BENCH_EVENTS".to_string(),
                    "\"20000\"".to_string()
                ),
                (
                    "host.env.TW_SERVE_BENCH_WINDOWS".to_string(),
                    "\"2\"".to_string()
                ),
            ]
        );
        let json = results_json(&facts, &[]);
        assert!(
            json.contains("\"host.env.TW_CODEC_BENCH_EVENTS\": \"20000\""),
            "{json}"
        );
    }

    #[test]
    fn a_dirty_tree_is_stamped_with_its_contents() {
        let dir = std::env::temp_dir().join(format!("criterion-tree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let status = Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args([
                    "-c",
                    "user.name=bench",
                    "-c",
                    "user.email=bench@example.com",
                ])
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .unwrap();
            assert!(status.success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("a.txt"), "one\n").unwrap();
        git(&["add", "a.txt"]);
        git(&["commit", "-q", "-m", "one"]);
        assert_eq!(tree_fact(&dir), None, "a clean tree has no tree fact");

        std::fs::write(dir.join("a.txt"), "two\n").unwrap();
        let (key, edited) = tree_fact(&dir).expect("an edited tree is stamped");
        assert_eq!(key, "host.tree");
        assert_eq!(edited.len(), 42, "a quoted object name: {edited}");
        assert_eq!(tree_fact(&dir).unwrap().1, edited, "same tree, same stamp");

        std::fs::write(dir.join("new.txt"), "x").unwrap();
        let untracked = tree_fact(&dir).unwrap().1;
        assert_ne!(untracked, edited, "an untracked file counts");
        std::fs::write(dir.join("new.txt"), "y").unwrap();
        assert_ne!(
            tree_fact(&dir).unwrap().1,
            untracked,
            "and so do its contents"
        );
        std::fs::remove_file(dir.join("new.txt")).unwrap();
        assert_eq!(tree_fact(&dir).unwrap().1, edited);
        assert_eq!(tree_fact(&dir.join("missing")), None, "not a checkout");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert!(format_ns(12).contains("ns"));
        assert!(format_ns(12_000).contains("µs"));
        assert!(format_ns(12_000_000).contains("ms"));
        assert!(format_ns(12_000_000_000).contains(" s"));
    }
}
