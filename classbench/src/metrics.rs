//! Metric names and units (the lists in `BENCHMARK.json`), how each is
//! computed from a measured phase, the layer-isolation check, and the
//! result line.

use crate::stats::{histogram_percentile, percentile};
use crate::workloads::Phase;
use tw_core::metrics::{HistogramSnapshot, MetricsSnapshot};

/// End-to-end metrics, reported with `--trace 0`. Times are CPU times: on a
/// shared virtual machine the hypervisor's steal can swing wall time by 2x
/// between minutes, so wall-clock figures cannot hold a bound; they are
/// reported under `e2e.*` by the traced run instead.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_cpu_s", "events/cpu-s"),
    ("bytes_per_window", "bytes"),
    ("peak_rss_growth_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. The part of a name before
/// the first `.` is its layer; `e2e.*` are the wall-clock end-to-end figures
/// of the run's untraced phase and `host.*` describes the machine then.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.window_latency_p50_ms", "ms"),
    ("e2e.window_latency_p99_ms", "ms"),
    ("e2e.events_per_s", "events/s"),
    ("host.steal_share", "ratio"),
    ("source.gen_ns_per_event", "ns/event"),
    ("source.schedule_lag_p99_ms", "ms"),
    ("pipeline.window_self_ms.p50", "ms"),
    ("pipeline.window_self_ms.p99", "ms"),
    ("pipeline.route_ns_per_event", "ns/event"),
    ("pipeline.coalesce_ms_per_window", "ms/window"),
    ("pipeline.reorder_ns_per_event", "ns/event"),
    ("pipeline.coalesce_sort", "count"),
    ("pipeline.coalesce_bucket", "count"),
    ("pipeline.scratch_reuse_hits", "count"),
    ("codec.encode_ms_per_window", "ms/window"),
    ("archive.record_ms_per_window", "ms/window"),
    ("archive.finish_ms", "ms"),
    ("archive.replay_ms_per_window", "ms/window"),
    ("broadcast.fanout_us_per_window", "us/window"),
    ("broadcast.queue_depth.max", "count"),
    ("broadcast.dropped", "count"),
    ("broadcast.missed", "count"),
    ("serve.frame_write_us.p50", "us"),
    ("serve.frame_write_us.p99", "us"),
    ("serve.wire_bytes_per_window", "bytes/window"),
    ("client.next_window_ms.p50", "ms"),
    ("client.next_window_ms.p99", "ms"),
    ("client.decode_reuse_hits", "count"),
    ("game.on_window_ms.p50", "ms"),
    ("game.on_window_ms.p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name, in reporting order.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns_percentile_ms(samples_ns: &[u64], q: f64) -> f64 {
    let ms: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    percentile(&ms, q).map_or(0.0, |p| p.value)
}

fn mean_ns(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The end-to-end metrics of an untraced phase, given the median CPU time
/// of one set-up.
pub fn end_to_end(setup_cpu_s: f64, phase: &Phase) -> Metrics {
    vec![
        ("setup_s", setup_cpu_s),
        ("events_per_cpu_s", ratio(phase.events as f64, phase.cpu_s)),
        (
            "bytes_per_window",
            ratio(phase.bytes as f64, phase.windows as f64),
        ),
        ("peak_rss_growth_mb", phase.rss_growth_mib),
    ]
}

/// Wall-clock end-to-end figures of a phase: latency percentiles under the
/// ten-beyond rule (0 without verified samples), events per wall second,
/// and the machine's steal share.
pub fn wall_clock(phase: &Phase) -> Metrics {
    let latency = |q| percentile(&phase.latency_ms, q).map_or(0.0, |p| p.value);
    vec![
        ("e2e.window_latency_p50_ms", latency(0.5)),
        ("e2e.window_latency_p99_ms", latency(0.99)),
        ("e2e.events_per_s", ratio(phase.events as f64, phase.busy_s)),
        ("host.steal_share", phase.steal_share),
    ]
}

/// `trace.overhead_ratio`: CPU time per event traced over untraced, so
/// above 1 means tracing cost CPU.
pub fn overhead_ratio(traced: &Phase, untraced: &Phase) -> f64 {
    let cost = |p: &Phase| ratio(p.cpu_s, p.events as f64);
    ratio(cost(traced), cost(untraced))
}

/// The per-layer metrics of a traced phase, after the untraced phase's
/// [`wall_clock`] figures.
pub fn per_layer(
    phase: &Phase,
    untraced: Metrics,
    gen_ns_per_event: f64,
    overhead_ratio: f64,
) -> Metrics {
    let t = &phase.trace;
    let reg = &t.registry;
    let empty = HistogramSnapshot::default();
    let hist = |name: &str| reg.histogram(name).unwrap_or(&empty);
    let sum = |name: &str| hist(name).sum as f64;
    let count = |name: &str| reg.counter(name) as f64;
    let events = count("pipeline.events");
    let encoded = count("serve.windows_encoded");
    let mut metrics = untraced;
    metrics.extend([
        ("source.gen_ns_per_event", gen_ns_per_event),
        (
            "source.schedule_lag_p99_ms",
            ns_percentile_ms(&t.lag_ns, 0.99),
        ),
        (
            "pipeline.window_self_ms.p50",
            ns_percentile_ms(&t.pipeline_self_ns, 0.5),
        ),
        (
            "pipeline.window_self_ms.p99",
            ns_percentile_ms(&t.pipeline_self_ns, 0.99),
        ),
        (
            "pipeline.route_ns_per_event",
            ratio(
                sum("pipeline.route_scan_ns") + sum("pipeline.route_ns"),
                events,
            ),
        ),
        (
            "pipeline.coalesce_ms_per_window",
            hist("pipeline.coalesce_ns").mean() / 1e6,
        ),
        (
            "pipeline.reorder_ns_per_event",
            ratio(sum("pipeline.reorder_release_ns"), events),
        ),
        ("pipeline.coalesce_sort", count("pipeline.coalesce_sort")),
        (
            "pipeline.coalesce_bucket",
            count("pipeline.coalesce_bucket"),
        ),
        (
            "pipeline.scratch_reuse_hits",
            count("pipeline.scratch_reuse_hits"),
        ),
        (
            "codec.encode_ms_per_window",
            hist("serve.encode_ns").mean() / 1e6,
        ),
        ("archive.record_ms_per_window", mean_ns(&t.record_ns) / 1e6),
        ("archive.finish_ms", mean_ns(&t.finish_ns) / 1e6),
        ("archive.replay_ms_per_window", mean_ns(&t.replay_ns) / 1e6),
        (
            "broadcast.fanout_us_per_window",
            hist("broadcast.fanout_ns").mean() / 1e3,
        ),
        (
            "broadcast.queue_depth.max",
            hist("broadcast.queue_depth").max as f64,
        ),
        ("broadcast.dropped", count("broadcast.dropped")),
        ("broadcast.missed", count("broadcast.missed")),
        (
            "serve.frame_write_us.p50",
            histogram_percentile(hist("serve.frame_write_ns"), 0.5) as f64 / 1e3,
        ),
        (
            "serve.frame_write_us.p99",
            histogram_percentile(hist("serve.frame_write_ns"), 0.99) as f64 / 1e3,
        ),
        (
            "serve.wire_bytes_per_window",
            ratio(count("serve.wire_bytes"), encoded),
        ),
        (
            "client.next_window_ms.p50",
            ns_percentile_ms(&t.client_next_ns, 0.5),
        ),
        (
            "client.next_window_ms.p99",
            ns_percentile_ms(&t.client_next_ns, 0.99),
        ),
        ("client.decode_reuse_hits", t.decode_reuse_hits as f64),
        (
            "game.on_window_ms.p50",
            ns_percentile_ms(&t.on_window_ns, 0.5),
        ),
        (
            "game.on_window_ms.p99",
            ns_percentile_ms(&t.on_window_ns, 0.99),
        ),
        ("trace.overhead_ratio", overhead_ratio),
    ]);
    metrics
}

/// Work done by layers predicted idle: non-zero per-layer metrics and
/// non-zero registry entries under any of the `idle` layer prefixes.
pub fn idle_violations(idle: &[&str], layers: &Metrics, registry: &MetricsSnapshot) -> Vec<String> {
    let is_idle = |name: &str| {
        idle.iter()
            .any(|layer| name.split('.').next() == Some(*layer))
    };
    let mut found: Vec<String> = layers
        .iter()
        .filter(|(name, value)| is_idle(name) && *value != 0.0)
        .map(|(name, value)| format!("{name} = {value}"))
        .collect();
    found.extend(
        registry
            .counters
            .iter()
            .filter(|(name, &v)| is_idle(name) && v != 0)
            .map(|(name, v)| format!("registry counter {name} = {v}")),
    );
    found.extend(
        registry
            .gauges
            .iter()
            .filter(|(name, &v)| is_idle(name) && v != 0)
            .map(|(name, v)| format!("registry gauge {name} = {v}")),
    );
    found.extend(
        registry
            .histograms
            .iter()
            .filter(|(name, h)| is_idle(name) && h.count != 0)
            .map(|(name, h)| format!("registry histogram {name} has {} samples", h.count)),
    );
    found
}

/// A JSON number for `value`: Rust's shortest round-trip form, which never
/// uses an exponent, so it is valid JSON for every finite value.
fn number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("metric value {value} is not finite"))
    }
}

/// The result line: every metric of `spec`, by name, with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    spec: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not computed"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
