//! Self-observability primitives: a lock-cheap metrics registry and a
//! tiny leveled structured logger.
//!
//! The engine and the server instrument their hot paths through this
//! module so the system the ASAP paper's dashboards sit on can be
//! watched with its own machinery. Three consumers share one
//! [`Registry::snapshot`]:
//!
//! * the server's `STATS` verb (stable `key value` lines),
//! * the server's `METRICS` verb ([`render_prometheus`] text
//!   exposition),
//! * the background *self-scrape* ([`render_line_protocol`]), which
//!   writes the snapshot back into the store as [`SELF_TAG`]-tagged
//!   series through the normal ingest path — WAL, checkpoints, and
//!   subscriptions all apply, so `SMOOTH`/`SUBSCRIBE` work on the
//!   server's own telemetry.
//!
//! # Design constraints
//!
//! * **Lock-cheap hot path.** Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are `Arc`-backed atomics; recording is a handful of
//!   relaxed atomic ops and never allocates. The registry's map is only
//!   locked at registration and snapshot time.
//! * **No per-sample allocation.** [`Histogram`] is a fixed array of
//!   power-of-two buckets; p50/p90/p99/max are derived from the bucket
//!   counts at snapshot time, never from stored samples.
//! * **Registry per server, not global.** Tests run many servers in one
//!   process; a process-global registry would cross-contaminate their
//!   counters. Only the log level is global (stderr is too).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Tag key marking the server's self-scraped metric series, excluded
/// from wildcard `RANGE`/`SMOOTH`/`SUBSCRIBE` selectors unless the
/// selector takes a position on it (mirroring
/// [`crate::retention::ROLLUP_TAG`]).
pub const SELF_TAG: &str = "__self__";

// ---------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------

/// A monotonically increasing `u64` counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `u64` gauge. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Number of power-of-two buckets. Bucket `i` counts values whose
/// `floor(log2(v))` is `i` (bucket 0 additionally takes `v = 0`), so
/// the range spans `[0, 2^31)` exactly and the last bucket absorbs
/// everything above — 2^31 µs ≈ 36 minutes, far past any latency this
/// system records.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log-bucketed latency histogram: fixed power-of-two buckets,
/// recorded with three relaxed atomic adds and one atomic max, no
/// per-sample allocation. Values are dimensionless `u64`s; by
/// convention every histogram in this workspace records microseconds
/// and carries a `_micros` name suffix.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug, Default)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// The bucket a value lands in: `floor(log2(v))`, clamped to the last
/// bucket; 0 and 1 share bucket 0. Public so tests derive boundary
/// expectations from the same math instead of golden values.
pub fn bucket_index(value: u64) -> usize {
    match value.checked_ilog2() {
        None => 0,
        Some(b) => (b as usize).min(HISTOGRAM_BUCKETS - 1),
    }
}

/// The largest value bucket `i` holds (inclusive): `2^(i+1) - 1`, with
/// the last bucket unbounded.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&self, value: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the cells. Buckets, count, and sum are
    /// read without a lock, so a snapshot racing live observers may be
    /// off by the in-flight samples — fine for telemetry.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
            max: cells.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s cells, with quantiles derived
/// from the bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The upper bound (inclusive) of the first bucket at or past the
    /// `q`-quantile of the recorded samples, or 0 when empty. `q` is
    /// clamped to `[0, 1]`. The true sample lies somewhere inside that
    /// bucket, so the estimate errs high by at most one bucket width —
    /// the standard log-bucket trade for O(1) memory.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), in integer space, with a floor of 1 sample.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                // The max is a tighter bound than the last occupied
                // bucket's upper edge.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Cloning shares the collection; handle
/// lookup (`counter`/`gauge`/`histogram`) takes the map lock, so
/// resolve handles once at startup and record through them on hot
/// paths.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<std::collections::BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind — metric
    /// names are a per-process contract, so a kind clash is a bug.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use (panics on a kind
    /// clash, as [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use (panics on a
    /// kind clash, as [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// A point-in-time sample of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        map.iter()
            .map(|(name, metric)| MetricSample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect()
    }
}

/// One sampled metric: a name (dot-separated, STATS-style) and its
/// value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Dot-separated metric name (e.g. `ingest.points`).
    pub name: String,
    /// The sampled value.
    pub value: MetricValue,
}

impl MetricSample {
    /// A counter sample (convenience for snapshot assembly).
    pub fn counter(name: impl Into<String>, value: u64) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge sample.
    pub fn gauge(name: impl Into<String>, value: u64) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A text sample (STATS-only; skipped by the numeric renderers).
    pub fn text(name: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: MetricValue::Text(value.into()),
        }
    }
}

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(u64),
    /// Latency distribution. Boxed: the 32-bucket snapshot dwarfs the
    /// scalar variants, and samples travel in `Vec<MetricSample>`s
    /// dominated by counters/gauges.
    Histogram(Box<HistogramSnapshot>),
    /// Non-numeric value (e.g. `none` for an absent watermark). Only
    /// the STATS renderer emits these.
    Text(String),
}

/// Translates a dot-separated sample name to a Prometheus/line-protocol
/// identifier: `asap_` prefix, dots to underscores
/// (`ingest.points` → `asap_ingest_points`).
pub fn exposition_name(name: &str) -> String {
    format!("asap_{}", name.replace('.', "_"))
}

/// Renders samples as Prometheus text exposition (one `# TYPE` comment
/// per metric; histograms as cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`). Text samples are skipped — the exposition
/// format is numeric.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    for sample in samples {
        let name = exposition_name(&sample.name);
        match &sample.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cumulative += n;
                    // Skip interior zero-delta buckets to keep the
                    // exposition compact; cumulative counts stay exact.
                    if n == 0 && i + 1 < HISTOGRAM_BUCKETS {
                        continue;
                    }
                    let le = bucket_upper_bound(i);
                    if le == u64::MAX {
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    } else {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", h.sum));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
            MetricValue::Text(_) => {}
        }
    }
    out
}

/// Renders samples as line protocol for the self-scrape, one line per
/// metric, every line tagged `{tag}=1` and timestamped `ts`:
///
/// ```text
/// asap_ingest_points,__self__=1 value=123 17000
/// asap_wal_append_micros,__self__=1 count=9,sum=41,p50=3,p90=7,p99=7,max=6 17000
/// ```
///
/// Counters and gauges become the `value` field (series
/// `asap_ingest_points.value{__self__=1}`); histograms export their
/// derived stats as fields. Text samples are skipped.
pub fn render_line_protocol(samples: &[MetricSample], tag: &str, ts: i64) -> String {
    let mut out = String::new();
    for sample in samples {
        let name = exposition_name(&sample.name);
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&format!("{name},{tag}=1 value={v} {ts}\n"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{name},{tag}=1 count={},sum={},p50={},p90={},p99={},max={} {ts}\n",
                    h.count,
                    h.sum,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max,
                ));
            }
            MetricValue::Text(_) => {}
        }
    }
    out
}

// ---------------------------------------------------------------------
// Instrumentation bundles consumed by engine hot paths
// ---------------------------------------------------------------------

/// Pre-resolved histogram handles for the ingest pipeline's stages,
/// carried by [`crate::IngestConfig`]. All timings are per *batch*
/// (one chunk of lines / one write batch), not per point, so the hot
/// path pays a few atomic adds per thousand points.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Chunk-assembly time in the feeder (`ingest.assemble_micros`).
    pub assemble: Histogram,
    /// Per-chunk parse time on the feeding thread
    /// (`ingest.parse_micros`).
    pub parse: Histogram,
    /// Per-batch reorder-stage time in the shard writers
    /// (`ingest.reorder_micros`).
    pub reorder: Histogram,
    /// Per-batch store-apply time in the shard writers
    /// (`ingest.apply_micros`).
    pub apply: Histogram,
}

impl IngestMetrics {
    /// Resolves the stage histograms in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            assemble: registry.histogram("ingest.assemble_micros"),
            parse: registry.histogram("ingest.parse_micros"),
            reorder: registry.histogram("ingest.reorder_micros"),
            apply: registry.histogram("ingest.apply_micros"),
        }
    }
}

/// Pre-resolved handles for the WAL's append path, installed with
/// [`crate::Wal::set_metrics`].
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Per-record append (encode + write) time (`wal.append_micros`).
    pub append: Histogram,
    /// Per-call fsync time (`wal.fsync_micros`).
    pub fsync: Histogram,
}

impl WalMetrics {
    /// Resolves the WAL histograms in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            append: registry.histogram("wal.append_micros"),
            fsync: registry.histogram("wal.fsync_micros"),
        }
    }
}

// ---------------------------------------------------------------------
// Structured logger
// ---------------------------------------------------------------------

/// Log severity, ordered most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The operation failed and was not retried.
    Error = 0,
    /// Something degraded but the system carries on.
    Warn = 1,
    /// Lifecycle events worth one line each.
    Info = 2,
    /// Per-connection noise.
    Debug = 3,
}

impl LogLevel {
    fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    /// Parses `error`, `warn`, `info`, or `debug`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected error, warn, info, or debug)"
            )),
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide maximum level actually emitted. Stderr is shared by
/// every server in the process, so unlike the registry this is global.
/// Default: `info`.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Sets the process-wide log level.
pub fn set_log_level(level: LogLevel) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether `level` currently passes the filter — check before building
/// expensive field values.
pub fn log_enabled(level: LogLevel) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Emits one structured `key=value` line to stderr:
///
/// ```text
/// level=warn component=server event=compaction_failed error="disk full"
/// ```
///
/// Values render through [`fmt::Display`]; any value containing
/// whitespace, `"`, or `=` is double-quoted with interior quotes
/// flattened to `'` so the line stays one-token-per-field parseable.
pub fn log(level: LogLevel, component: &str, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    if !log_enabled(level) {
        return;
    }
    let mut line = format!("level={} component={component} event={event}", level.name());
    for (key, value) in fields {
        let rendered = value.to_string();
        if rendered.contains(|c: char| c.is_whitespace() || c == '"' || c == '=') {
            line.push_str(&format!(" {key}=\"{}\"", rendered.replace('"', "'")));
        } else {
            line.push_str(&format!(" {key}={rendered}"));
        }
    }
    eprintln!("{line}");
}

/// [`log`] at [`LogLevel::Error`].
pub fn error(component: &str, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(LogLevel::Error, component, event, fields);
}

/// [`log`] at [`LogLevel::Warn`].
pub fn warn(component: &str, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(LogLevel::Warn, component, event, fields);
}

/// [`log`] at [`LogLevel::Info`].
pub fn info(component: &str, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(LogLevel::Info, component, event, fields);
}

/// [`log`] at [`LogLevel::Debug`].
pub fn debug(component: &str, event: &str, fields: &[(&str, &dyn fmt::Display)]) {
    log(LogLevel::Debug, component, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_log2_floor() {
        // Derived from the definition, not golden values: for v >= 1
        // the bucket is floor(log2(v)); 0 shares bucket 0.
        assert_eq!(bucket_index(0), 0);
        for exp in 0..(HISTOGRAM_BUCKETS as u32 - 1) {
            let low = 1u64 << exp;
            let high = (1u64 << (exp + 1)) - 1;
            assert_eq!(bucket_index(low), exp as usize, "2^{exp}");
            assert_eq!(bucket_index(high), exp as usize, "2^{}-1", exp + 1);
            // The next power of two starts the next bucket.
            assert_eq!(bucket_index(high + 1), (exp as usize + 1).min(HISTOGRAM_BUCKETS - 1));
        }
        // Everything past the top boundary lands in the last bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 40), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_exclusive_upper_edges() {
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let upper = bucket_upper_bound(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i} is inside it");
            assert_eq!(bucket_index(upper + 1), i + 1, "upper+1 must start bucket {}", i + 1);
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_land_in_derived_buckets() {
        let h = Histogram::default();
        let values = [0u64, 1, 2, 3, 4, 7, 8, 1000, 1 << 35];
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        assert_eq!(snap.max, 1 << 35);
        // Expected bucket occupancy derived from bucket_index itself.
        let mut expected = [0u64; HISTOGRAM_BUCKETS];
        for &v in &values {
            expected[bucket_index(v)] += 1;
        }
        assert_eq!(snap.buckets, expected);
    }

    #[test]
    fn quantiles_derive_from_bucket_math() {
        let h = Histogram::default();
        // 100 samples of 3 (bucket 1, upper bound 3) and 1 sample of
        // 1000 (bucket 9, upper bound 1023 — capped by max=1000).
        for _ in 0..100 {
            h.observe(3);
        }
        h.observe(1000);
        let snap = h.snapshot();
        // p50 and p90 sit inside the bucket holding the 3s; the
        // estimate is that bucket's upper bound.
        assert_eq!(snap.quantile(0.50), bucket_upper_bound(bucket_index(3)));
        assert_eq!(snap.quantile(0.90), bucket_upper_bound(bucket_index(3)));
        // p100 reaches the outlier; its bucket bound (1023) is capped
        // by the recorded max.
        assert_eq!(snap.quantile(1.0), 1000);
        // An empty histogram has no quantiles.
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0);
    }

    #[test]
    fn quantile_estimate_errs_high_by_at_most_one_bucket() {
        // Property over a spread of sample sets: the estimated quantile
        // is >= the true sample quantile, and within its bucket.
        let samples: Vec<u64> = (0..500).map(|i| (i * i) % 7919).collect();
        let h = Histogram::default();
        let mut sorted = samples.clone();
        for &v in &samples {
            h.observe(v);
        }
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let estimate = snap.quantile(q);
            assert!(estimate >= truth, "q={q}: estimate {estimate} < truth {truth}");
            assert!(
                estimate <= bucket_upper_bound(bucket_index(truth)),
                "q={q}: estimate {estimate} outside truth's bucket"
            );
        }
    }

    #[test]
    fn registry_interns_handles_by_name() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("x").get(), 3, "same name shares one cell");
        registry.gauge("g").set(7);
        registry.histogram("h_micros").observe(5);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["g", "h_micros", "x"], "snapshot is name-sorted");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_panics_on_kind_clash() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn prometheus_rendering_is_valid_exposition() {
        let registry = Registry::new();
        registry.counter("ingest.points").add(12);
        registry.gauge("store.series").set(3);
        let h = registry.histogram("wal.append_micros");
        h.observe(3);
        h.observe(100);
        let text = render_prometheus(&registry.snapshot());
        // Every non-comment line is `name[{labels}] value`; histogram
        // bucket counts are cumulative and end at +Inf == _count.
        let mut inf = None;
        let mut count = None;
        let mut last_cumulative = 0u64;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE asap_"), "{line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("asap_"), "{line}");
            let value: f64 = value.parse().expect("numeric value");
            if name.starts_with("asap_wal_append_micros_bucket") {
                let cumulative = value as u64;
                assert!(cumulative >= last_cumulative, "buckets must be cumulative");
                last_cumulative = cumulative;
                if name.contains("+Inf") {
                    inf = Some(cumulative);
                }
            }
            if name == "asap_wal_append_micros_count" {
                count = Some(value as u64);
            }
        }
        assert_eq!(inf, Some(2));
        assert_eq!(count, Some(2));
        assert!(text.contains("asap_ingest_points 12\n"));
        assert!(text.contains("asap_store_series 3\n"));
    }

    #[test]
    fn line_protocol_rendering_round_trips_through_the_parser() {
        let registry = Registry::new();
        registry.counter("ingest.points").add(42);
        registry.histogram("wal.append_micros").observe(9);
        let samples = registry.snapshot();
        let doc = render_line_protocol(&samples, SELF_TAG, 1234);
        let mut points = Vec::new();
        for line in doc.lines() {
            points.extend(crate::line_protocol::parse(line, 0).expect("scrape line parses"));
        }
        // The counter series carries the exposition name + .value field
        // and the SELF_TAG; its value round-trips exactly.
        let counter = points
            .iter()
            .find(|p| p.key.metric_name() == "asap_ingest_points.value")
            .expect("counter series present");
        assert_eq!(counter.key.tag(SELF_TAG), Some("1"));
        assert_eq!(counter.point.timestamp, 1234);
        assert_eq!(counter.point.value, 42.0);
        // Histograms export derived stats as fields.
        for field in ["count", "sum", "p50", "p90", "p99", "max"] {
            assert!(
                points
                    .iter()
                    .any(|p| p.key.metric_name() == format!("asap_wal_append_micros.{field}")),
                "missing histogram field {field}"
            );
        }
    }

    #[test]
    fn log_level_grammar_and_order() {
        for (text, level) in [
            ("error", LogLevel::Error),
            ("warn", LogLevel::Warn),
            ("info", LogLevel::Info),
            ("debug", LogLevel::Debug),
        ] {
            assert_eq!(text.parse::<LogLevel>().unwrap(), level);
            assert_eq!(level.to_string(), text);
        }
        assert!("verbose".parse::<LogLevel>().is_err());
        assert!(LogLevel::Error < LogLevel::Debug);
    }
}
