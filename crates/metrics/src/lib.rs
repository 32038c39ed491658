//! Lock-free metrics for the traffic warehouse: atomic [`Counter`]s and
//! [`Gauge`]s, log2-bucketed latency [`Histogram`]s, and a
//! zero-cost-when-disabled [`StageTimer`] guard.
//!
//! The pipeline, broadcast hub, and TCP server all update metrics on their hot
//! paths, so every handle is a clone of an `Arc`'d atomic cell: updates are a
//! single `fetch_add`/`store` with relaxed ordering and never take a lock.
//! Registration (name → handle) is the only locked operation and happens once
//! per stage at construction time.
//!
//! A [`MetricsSnapshot`] is a plain-data copy of every registered metric. It
//! is mergeable (snapshots from shards or peers sum bucket-by-bucket),
//! serializable through `tw-json`, and carries enough bucket structure to
//! answer p50/p95/p99/max without having recorded raw samples.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tw_json::{Map, Number, Value};

/// Number of log2 buckets: bucket 0 holds zero, bucket `b >= 1` holds values
/// in `[2^(b-1), 2^b - 1]` (the final bucket's upper edge saturates at
/// `u64::MAX`).
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper edge of a bucket.
#[inline]
pub fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A monotonically increasing event count. Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, ring occupancy, subscribers).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram. Observation is three relaxed atomic adds plus a
/// compare-exchange loop that runs only while the observed value is a new
/// maximum, so concurrent observers never block each other.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        let mut seen = cells.max.load(Ordering::Relaxed);
        while value > seen {
            match cells
                .max
                .compare_exchange_weak(seen, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Record a duration in nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.observe(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.0;
        HistogramSnapshot {
            buckets: cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
            max: cells.max.load(Ordering::Relaxed),
        }
    }
}

/// A scope guard that times a stage and records the elapsed nanoseconds into
/// a histogram on drop. When constructed from `None` it does not even read
/// the clock — disabled instrumentation costs one branch.
#[must_use = "the timer records on drop; binding it to _ discards the measurement"]
#[derive(Debug)]
pub struct StageTimer<'a> {
    armed: Option<(Instant, &'a Histogram)>,
}

impl<'a> StageTimer<'a> {
    /// Start timing when a histogram is present; otherwise a no-op guard.
    #[inline]
    pub fn start(histogram: Option<&'a Histogram>) -> Self {
        StageTimer {
            armed: histogram.map(|h| (Instant::now(), h)),
        }
    }

    /// Stop early and record, consuming the guard.
    #[inline]
    pub fn finish(mut self) {
        self.record();
    }

    #[inline]
    fn record(&mut self) {
        if let Some((started, histogram)) = self.armed.take() {
            histogram.record(started.elapsed());
        }
    }
}

impl Drop for StageTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.record();
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named collection of metrics. Cloning is cheap and every clone views the
/// same cells, so a registry can be handed to each pipeline stage, the hub,
/// and the server while one `snapshot()` sees them all.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry(Arc<RegistryInner>);

/// Lock one of the registry maps, shrugging off poison: a panicking metrics
/// caller must not take observability down with it, and every mutation of
/// these maps (entry insertion) is atomic enough to survive a mid-panic view.
fn lock_registry<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_registry(&self.0.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_registry(&self.0.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_registry(&self.0.histograms);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Plain-data copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_registry(&self.0.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock_registry(&self.0.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_registry(&self.0.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of one histogram: 65 bucket counts plus count/sum/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per log2 bucket (`BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`) from bucket counts. The
    /// estimate is the upper edge of the bucket holding the ranked
    /// observation, clamped to the observed maximum, so it always lies
    /// within one bucket width of the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count), min 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Mean of observed values (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one: buckets/count/sum add, max maxes.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.wrapping_add(*theirs);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A mergeable, serializable copy of a registry's metrics at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → bucket snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Why a serialized snapshot failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid metrics snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn number_u64(n: u64) -> Value {
    match i64::try_from(n) {
        Ok(i) => Value::Number(Number::Int(i)),
        Err(_) => Value::Number(Number::Float(n as f64)),
    }
}

fn expect_u64(value: &Value, what: &str) -> Result<u64, SnapshotError> {
    value
        .as_u64()
        .ok_or_else(|| SnapshotError(format!("{what} is not a non-negative integer")))
}

fn expect_i64(value: &Value, what: &str) -> Result<i64, SnapshotError> {
    value
        .as_i64()
        .ok_or_else(|| SnapshotError(format!("{what} is not an integer")))
}

impl MetricsSnapshot {
    /// The named counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's level, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold another snapshot into this one. Counters and bucket counts add,
    /// gauges add (they are levels, so merging shard gauges sums depths),
    /// histogram maxima take the max.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    /// Serialize as a `tw-json` value. Histogram buckets are written sparsely
    /// as `[bucket_index, count]` pairs so an idle histogram costs bytes
    /// proportional to what it saw, not to `BUCKETS`.
    pub fn to_json(&self) -> Value {
        let mut counters = Map::new();
        for (name, value) in &self.counters {
            counters.insert(name.clone(), number_u64(*value));
        }
        let mut gauges = Map::new();
        for (name, value) in &self.gauges {
            gauges.insert(name.clone(), Value::Number(Number::Int(*value)));
        }
        let mut histograms = Map::new();
        for (name, histogram) in &self.histograms {
            let mut entry = Map::new();
            entry.insert("count".to_string(), number_u64(histogram.count));
            entry.insert("sum".to_string(), number_u64(histogram.sum));
            entry.insert("max".to_string(), number_u64(histogram.max));
            let buckets: Vec<Value> = histogram
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 0)
                .map(|(bucket, &n)| Value::Array(vec![Value::from(bucket), number_u64(n)]))
                .collect();
            entry.insert("buckets".to_string(), Value::Array(buckets));
            histograms.insert(name.clone(), Value::Object(entry));
        }
        let mut root = Map::new();
        root.insert("counters".to_string(), Value::Object(counters));
        root.insert("gauges".to_string(), Value::Object(gauges));
        root.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(root)
    }

    /// Parse a value produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(value: &Value) -> Result<Self, SnapshotError> {
        let root = value
            .as_object()
            .ok_or_else(|| SnapshotError("root is not an object".to_string()))?;
        let section = |key: &str| -> Result<&Map, SnapshotError> {
            root.get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| SnapshotError(format!("missing `{key}` object")))
        };
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in section("counters")?.iter() {
            snapshot
                .counters
                .insert(name.to_string(), expect_u64(value, name)?);
        }
        for (name, value) in section("gauges")?.iter() {
            snapshot
                .gauges
                .insert(name.to_string(), expect_i64(value, name)?);
        }
        for (name, value) in section("histograms")?.iter() {
            let entry = value
                .as_object()
                .ok_or_else(|| SnapshotError(format!("histogram `{name}` is not an object")))?;
            let field = |key: &str| -> Result<u64, SnapshotError> {
                entry
                    .get(key)
                    .map(|v| expect_u64(v, key))
                    .transpose()?
                    .ok_or_else(|| SnapshotError(format!("histogram `{name}` missing `{key}`")))
            };
            let mut histogram = HistogramSnapshot {
                count: field("count")?,
                sum: field("sum")?,
                max: field("max")?,
                ..HistogramSnapshot::default()
            };
            let buckets = entry
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or_else(|| SnapshotError(format!("histogram `{name}` missing `buckets`")))?;
            for pair in buckets {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| SnapshotError("bucket entry is not a pair".to_string()))?;
                let bucket = expect_u64(&pair[0], "bucket index")? as usize;
                if bucket >= BUCKETS {
                    return Err(SnapshotError(format!("bucket index {bucket} out of range")));
                }
                histogram.buckets[bucket] = expect_u64(&pair[1], "bucket count")?;
            }
            snapshot.histograms.insert(name.to_string(), histogram);
        }
        Ok(snapshot)
    }

    /// Compact one-line rendering for periodic stats: counters and gauges as
    /// `name=value`, histograms as `name{n,p50,p99,max}` (times in µs when
    /// the name ends in `_ns`).
    pub fn one_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (name, value) in &self.counters {
            parts.push(format!("{name}={value}"));
        }
        for (name, value) in &self.gauges {
            parts.push(format!("{name}={value}"));
        }
        for (name, histogram) in &self.histograms {
            if histogram.count == 0 {
                continue;
            }
            let scale = |v: u64| -> String {
                if name.ends_with("_ns") {
                    format!("{:.1}us", v as f64 / 1_000.0)
                } else {
                    v.to_string()
                }
            };
            parts.push(format!(
                "{name}{{n={} p50={} p99={} max={}}}",
                histogram.count,
                scale(histogram.quantile(0.50)),
                scale(histogram.quantile(0.99)),
                scale(histogram.max),
            ));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inclusive lower edge of a bucket.
    fn bucket_lower(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            b => 1u64 << (b - 1),
        }
    }

    #[test]
    fn bucket_edges_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for bucket in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(bucket)), bucket);
            assert_eq!(bucket_index(bucket_upper(bucket)), bucket);
            assert!(bucket_lower(bucket) <= bucket_upper(bucket));
        }
    }

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("events");
        let b = registry.counter("events");
        a.add(3);
        b.inc();
        assert_eq!(registry.counter("events").get(), 4);

        let g = registry.gauge("depth");
        g.set(10);
        g.sub(4);
        registry.gauge("depth").add(1);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_quantiles_sit_inside_the_right_bucket() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        // True p50 = 500 (bucket [512,1023] holds ranks 512..=1000, bucket
        // [256,511] holds 256..=511 — rank 500 lands there).
        let p50 = snap.quantile(0.50);
        assert!((256..=511).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((512..=1000).contains(&p99), "p99={p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(snap.quantile(0.0), 1);
    }

    #[test]
    fn stage_timer_records_only_when_armed() {
        let h = Histogram::default();
        {
            let _t = StageTimer::start(Some(&h));
        }
        {
            let _t = StageTimer::start(None);
        }
        assert_eq!(h.count(), 1);
        StageTimer::start(Some(&h)).finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = MetricsRegistry::new();
        registry.counter("pipeline.events").add(123_456);
        registry.gauge("broadcast.subscribers").set(-2);
        let h = registry.histogram("serve.encode_ns");
        h.observe(0);
        h.observe(900);
        h.observe(1 << 40);
        let snapshot = registry.snapshot();
        let text = tw_json::to_string(&snapshot.to_json());
        let parsed = MetricsSnapshot::from_json(&tw_json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.counter("pipeline.events"), 123_456);
        assert_eq!(parsed.gauge("broadcast.subscribers"), -2);
        assert_eq!(parsed.histogram("serve.encode_ns").unwrap().count, 3);
    }

    #[test]
    fn merge_adds_counts_and_maxes_maxima() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("windows").add(5);
        b.counter("windows").add(7);
        b.counter("only_b").inc();
        a.histogram("lat").observe(100);
        b.histogram("lat").observe(200);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("windows"), 12);
        assert_eq!(merged.counter("only_b"), 1);
        let lat = merged.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 200);
        assert_eq!(lat.sum, 300);
    }

    #[test]
    fn malformed_snapshots_yield_typed_errors() {
        for text in [
            "[]",
            "{}",
            r#"{"counters":{},"gauges":{}}"#,
            r#"{"counters":{"x":-1},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"max":1,"buckets":[[99,1]]}}}"#,
        ] {
            let value = tw_json::parse(text).unwrap();
            assert!(MetricsSnapshot::from_json(&value).is_err(), "{text}");
        }
    }

    #[test]
    fn one_line_is_compact_and_scales_ns() {
        let registry = MetricsRegistry::new();
        registry.counter("pipeline.events").add(10);
        registry.histogram("pipeline.route_ns").observe(2_000);
        let line = registry.snapshot().one_line();
        assert!(line.contains("pipeline.events=10"), "{line}");
        assert!(line.contains("pipeline.route_ns{"), "{line}");
        assert!(line.contains("us"), "{line}");
        assert!(!line.contains('\n'));
    }
}
