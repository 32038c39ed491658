//! Self-tests for the benchmark's own helpers: percentiles, the paced
//! release schedule, the memory and steal readers, reference digests, the
//! result line, and agreement with `BENCHMARK.json`.

use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tw_classbench::cpu::{process_cpu_time, steal_ticks};
use tw_classbench::lesson::{Lesson, LessonSource, Pace, SourceTrace};
use tw_classbench::metrics::{idle_violations, result_line, END_TO_END, PER_LAYER};
use tw_classbench::reference::Reference;
use tw_classbench::rss::{status_kib, RssProbe};
use tw_classbench::stats::{histogram_percentile, median, percentile, supported_rank, BEYOND};
use tw_classbench::workloads::Workload;
use tw_core::ingest::{EventSource, Pipeline, PipelineConfig, Scenario};
use tw_core::matrix::stream::PacketEvent;
use tw_core::metrics::MetricsRegistry;

fn ev(timestamp_us: u64) -> PacketEvent {
    PacketEvent {
        source: 1,
        destination: 2,
        packets: 1,
        timestamp_us,
    }
}

fn lesson(timestamps: &[u64], window_us: u64, windows: usize) -> Lesson {
    Lesson {
        events: timestamps.iter().map(|&t| ev(t)).collect::<Vec<_>>().into(),
        node_count: 4,
        window_us,
        windows,
        gen_ns: 0,
        pulled: timestamps.len() as u64,
    }
}

#[test]
fn percentile_reports_p99_only_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let p99 = percentile(&samples, 0.99).expect("samples");
    assert_eq!((p99.value, p99.used, p99.samples), (990.0, 0.99, 1000));
    assert_eq!(samples.iter().filter(|&&s| s > p99.value).count(), BEYOND);
    assert_eq!(percentile(&samples, 0.5).expect("samples").value, 500.0);

    // One sample short: the highest supported quantile is reported instead.
    let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
    let capped = percentile(&fewer, 0.99).expect("samples");
    assert_eq!(capped.value, 989.0);
    assert!(capped.used < 0.99);
    assert_eq!(fewer.iter().filter(|&&s| s > capped.value).count(), BEYOND);

    // Too few samples for any percentile: the lowest is all there is.
    assert_eq!(
        percentile(&[3.0, 1.0, 2.0], 0.99).expect("samples").value,
        1.0
    );
    assert_eq!(supported_rank(5, 0.5), 1);
    assert!(percentile(&[], 0.5).is_none());
}

#[test]
fn histogram_percentile_follows_the_same_rule() {
    let registry = MetricsRegistry::new();
    let histogram = registry.histogram("h");
    for v in 1..=1000u64 {
        histogram.observe(v);
    }
    let snapshot = histogram.snapshot();
    // Log2 buckets: p50 (500) lands in the 256..511 bucket.
    assert_eq!(histogram_percentile(&snapshot, 0.5), 511);
    assert_eq!(histogram_percentile(&snapshot, 0.99), 1000);
    assert_eq!(histogram_percentile(&Default::default(), 0.99), 0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
}

#[test]
fn pace_puts_one_window_on_each_wall_interval() {
    let pace = Pace::new(100_000, Duration::from_millis(10));
    assert_eq!(pace.due_ns(0), 0);
    assert_eq!(pace.due_ns(100_000), 10_000_000);
    assert_eq!(pace.due_ns(250_000), 25_000_000);
    // Window w's last microsecond is due just before window w+1 starts.
    assert_eq!(pace.due_ns(199_999), 19_999_900);
}

#[test]
fn paced_source_releases_only_due_events_and_loops_the_lesson() {
    let lesson = lesson(&[0, 50_000, 100_000, 150_000], 100_000, 2);
    let source = LessonSource::new(&lesson, 2).paced(
        Pace::new(100_000, Duration::from_millis(10)),
        Arc::new(OnceLock::new()),
    );
    assert_eq!(source.ready(0, 16), 1);
    assert_eq!(source.ready(4_999_999, 16), 1);
    assert_eq!(source.ready(5_000_000, 16), 2);
    assert_eq!(source.ready(15_000_000, 2), 2, "capped at max");
    assert_eq!(source.ready(u64::MAX / 1_000, 16), 8, "both passes");
    // The second pass is shifted by the lesson's span.
    assert_eq!(source.event(5).timestamp_us, 250_000);
    assert_eq!(source.event(3).timestamp_us, 150_000);

    let unpaced = LessonSource::new(&lesson, 1);
    assert_eq!(unpaced.ready(0, 3), 3);
}

#[test]
fn paced_pulls_account_lag_from_the_oldest_due_event() {
    // 1 ms of simulated time per 10 us of wall time: the whole lesson is
    // due within 40 us, so the test never sleeps for long.
    let lesson = lesson(&[0, 1_000, 2_000, 3_000], 100_000, 1);
    let start = Arc::new(OnceLock::new());
    let trace = Arc::new(SourceTrace::default());
    let mut source = LessonSource::new(&lesson, 1)
        .paced(Pace::new(100_000, Duration::from_millis(1)), start.clone())
        .traced(trace.clone());
    let mut out = Vec::new();
    let mut pulls = 0;
    while source.pull(8, &mut out) > 0 {
        pulls += 1;
    }
    assert_eq!(out, lesson.events.to_vec());
    assert!(start.get().is_some(), "the first pull starts the schedule");
    let lags = trace.lags_ns();
    assert_eq!(lags.len(), pulls, "one lag sample per paced pull");
    assert!(lags.iter().all(|&lag| lag < 1_000_000_000));
    assert!(trace.pull_ns.load(std::sync::atomic::Ordering::Relaxed) > 0);
    assert_eq!(
        source.pull(8, &mut out),
        0,
        "an exhausted lesson stays exhausted"
    );
}

#[test]
fn status_reader_parses_kib_lines() {
    let status = "Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t3\n";
    assert_eq!(status_kib(status, "VmRSS"), Some(10_240));
    assert_eq!(status_kib(status, "VmHWM"), Some(20_480));
    assert_eq!(status_kib(status, "VmSwap"), None);
    assert_eq!(status_kib(status, "Threads"), None, "not a kB line");
}

#[test]
fn rss_probe_sees_memory_touched_after_it_started() {
    let probe = RssProbe::start().expect("procfs is readable and clear_refs writable");
    let block = vec![1u8; 32 << 20];
    std::hint::black_box(&block);
    let growth = probe.growth_mib().expect("procfs is readable");
    assert!(growth >= 30.0, "32 MiB touched, growth {growth} MiB");
    drop(block);
}

#[test]
fn steal_reader_parses_the_cpu_line() {
    let stat = "cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 50 2 25 400 5 0 1 15 3 0\n";
    assert_eq!(steal_ticks(stat), Some((30, 998)));
    assert_eq!(steal_ticks("intr 1 2\n"), None);
    assert!(process_cpu_time().is_ok());
}

#[test]
fn pipeline_windows_match_the_serial_reference_and_edits_do_not() {
    let mut scenario = Scenario::Ddos.source(64, 7);
    let lesson = Lesson::generate(scenario.as_mut(), 10_000, 4, 0);
    assert!(lesson.events.iter().all(|e| e.timestamp_us < 40_000));
    let reference = Reference::of(&lesson);
    assert_eq!(reference.windows.len(), 4);
    assert_eq!(reference.events(), lesson.events.len() as u64);

    let config = PipelineConfig {
        window_us: 10_000,
        ..PipelineConfig::default()
    };
    let source: Box<dyn EventSource> = Box::new(LessonSource::new(&lesson, 2));
    let mut pipeline = Pipeline::new(source, config);
    let mut seen = 0;
    while let Some(report) = pipeline.next_window() {
        let index = report.stats.window_index;
        assert!(reference.matches(index, &report), "window {index}");
        assert!(!reference.matches(index + 1, &report));
        let mut edited = report.clone();
        edited.stats.packets += 1;
        assert!(!reference.matches(index, &edited));
        seen += 1;
    }
    assert_eq!(seen, 8, "two passes of four windows");
}

#[test]
fn reference_counts_inversions_of_a_skewed_stream() {
    let skewed = lesson(&[10, 5, 20, 15, 12, 30], 100, 1);
    assert_eq!(Reference::of(&skewed).inversions, 3);
}

#[test]
fn idle_layers_that_did_work_are_reported() {
    let registry = MetricsRegistry::new();
    registry.counter("pipeline.events").add(3);
    registry.counter("serve.connections");
    let layers = vec![
        ("pipeline.window_self_ms.p50", 0.0),
        ("game.on_window_ms.p50", 1.5),
    ];
    let snapshot = registry.snapshot();
    assert_eq!(
        idle_violations(&["serve"], &layers, &snapshot),
        Vec::<String>::new()
    );
    assert_eq!(idle_violations(&["pipeline"], &layers, &snapshot).len(), 1);
    assert_eq!(
        idle_violations(&["game", "pipeline"], &layers, &snapshot).len(),
        2
    );
}

#[test]
fn result_line_names_every_metric_with_its_unit() {
    let metrics = vec![
        ("setup_s", 0.5),
        ("events_per_cpu_s", 1.0e6),
        ("bytes_per_window", 7.0),
        ("peak_rss_growth_mb", 2.25),
    ];
    let line = result_line(true, 10, 0, &metrics, END_TO_END).expect("all metrics present");
    let value = tw_core::json::parse(&line).expect("valid JSON");
    let keys: Vec<&str> = value.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let setup = value
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
    assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.5));
    assert!(result_line(true, 1, 0, &metrics[..1].to_vec(), END_TO_END).is_err());
    assert!(result_line(true, 1, 0, &vec![("setup_s", f64::NAN)], &END_TO_END[..1]).is_err());
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = tw_core::json::parse(&text).expect("valid JSON");
    let listed = |key: &str, field: &str| -> Vec<String> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("a list")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(|f| f.as_str())
                    .expect("a string")
                    .to_string()
            })
            .collect()
    };
    let names = |list: &[(&str, &str)], i: usize| -> Vec<String> {
        list.iter()
            .map(|pair| [pair.0, pair.1][i].to_string())
            .collect()
    };
    assert_eq!(listed("end_to_end", "name"), names(END_TO_END, 0));
    assert_eq!(listed("end_to_end", "unit"), names(END_TO_END, 1));
    assert_eq!(listed("per_layer", "name"), names(PER_LAYER, 0));
    assert_eq!(listed("per_layer", "unit"), names(PER_LAYER, 1));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed("workloads", "name"), workloads);
    // Each workload's one-line why names the layers it predicts idle.
    for (workload, why) in Workload::ALL.iter().zip(listed("workloads", "why")) {
        let idle = format!("idle: {}", workload.idle_layers().join(", "));
        assert!(why.ends_with(&idle), "{}: {why}", workload.name());
    }
}
