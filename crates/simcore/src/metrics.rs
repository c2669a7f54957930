//! Structured metrics: counters, gauges, log-bucket histograms, and a
//! labelled registry with deterministic snapshots.
//!
//! This is the workspace's metrics substrate: typed quantities that
//! experiment harnesses render and diff byte-for-byte. Callers build a
//! registry when they render metrics, from rows they recorded (the world's
//! flight recorder, the fleet's supervision events):
//!
//! * [`Counter`] — monotonically non-decreasing `u64` (events, retries,
//!   restarts, faults fired).
//! * [`Gauge`] — a `f64` level (current fair share, link capacity factor,
//!   congestion-window sum).
//! * [`LogHistogram`] — fixed **logarithmic** bucket bounds chosen at
//!   construction, with the count, sum, min and max of what it observed.
//! * [`MetricsRegistry`] — owns metrics keyed by `(name, labels)`; label sets
//!   are normalized (sorted, deduplicated) so the same logical series always
//!   lands in the same slot.
//! * [`MetricsSnapshot`] — an ordered, immutable view that renders to JSONL
//!   ([`MetricsSnapshot::to_jsonl`]) and Prometheus text exposition
//!   ([`MetricsSnapshot::to_prometheus`]).
//!
//! Everything is plain data over [`std::collections::BTreeMap`], so two runs
//! of the same seeded simulation produce **bit-identical** snapshots — the
//! property the golden tests in `tests/telemetry.rs` pin down.
//!
//! # Example
//!
//! ```
//! use xferopt_simcore::metrics::{LogHistogram, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("epochs_total", &[("tuner", "cs")]).inc();
//! reg.gauge("fair_share_mbs", &[("flow", "0")]).set(2500.0);
//! reg.histogram("observed_mbs", &[], LogHistogram::throughput_bounds())
//!     .observe(2500.0);
//! let snap = reg.snapshot();
//! assert!(snap.to_prometheus().contains("epochs_total{tuner=\"cs\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{escape, json_f64, push_line};

/// A monotonically non-decreasing event counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// An instantaneous level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replace the level.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Shift the level by `dv`.
    pub fn add(&mut self, dv: f64) {
        self.value += dv;
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// A histogram over fixed, strictly increasing bucket bounds (upper edges),
/// with an implicit `+Inf` overflow bucket — the Prometheus `le` convention.
///
/// Bucket `i` counts observations `x <= bounds[i]` that no earlier bucket
/// took; the final implicit bucket takes everything above the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// A histogram over explicit upper-edge `bounds`.
    ///
    /// # Panics
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let n = bounds.len();
        LogHistogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Logarithmic bounds: `n` upper edges starting at `lo`, each `factor`
    /// times the previous (`lo, lo·factor, lo·factor², …`).
    ///
    /// # Panics
    /// Panics if `lo <= 0`, `factor <= 1`, or `n == 0`.
    pub fn log_bounds(lo: f64, factor: f64, n: usize) -> Vec<f64> {
        assert!(lo > 0.0, "lo must be positive");
        assert!(factor > 1.0, "factor must exceed 1");
        assert!(n > 0, "need at least one bound");
        (0..n).map(|i| lo * factor.powi(i as i32)).collect()
    }

    /// The workspace's canonical throughput bounds: powers of two from
    /// 1 MB/s to 16384 MB/s (15 buckets + overflow), covering everything the
    /// paper's testbeds can produce.
    pub fn throughput_bounds() -> Vec<f64> {
        Self::log_bounds(1.0, 2.0, 15)
    }

    /// The workspace's canonical duration bounds: powers of two from
    /// 0.125 s to 512 s (13 buckets + overflow) — startup delays, backoffs,
    /// epoch lengths.
    pub fn duration_bounds() -> Vec<f64> {
        Self::log_bounds(0.125, 2.0, 13)
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < x)
            .min(self.bounds.len());
        // partition_point gives the first bound >= x (le-style), or
        // bounds.len() for the overflow bucket.
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The configured upper edges (excludes the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A normalized label set: sorted by key, duplicate keys collapsed
/// (last value wins).
pub type Labels = Vec<(String, String)>;

/// Normalize a label slice into a canonical [`Labels`] value.
pub fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    for &(k, v) in labels {
        map.insert(k, v);
    }
    map.into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// What kind of metric a name holds (one kind per name, enforced by the
/// registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Fixed-bound histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(LogHistogram),
}

/// Owns labelled metrics; the write-side API of the telemetry layer.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<(String, Labels), Metric>,
    kinds: BTreeMap<String, MetricKind>,
}

fn assert_valid_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .next()
                .map(|c| c.is_ascii_alphabetic() || c == '_')
                .unwrap_or(false)
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "invalid metric name: {name:?} (use [a-zA-Z_][a-zA-Z0-9_]*)"
    );
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register_kind(&mut self, name: &str, kind: MetricKind) {
        assert_valid_name(name);
        match self.kinds.get(name) {
            None => {
                self.kinds.insert(name.to_string(), kind);
            }
            Some(&k) => assert_eq!(
                k, kind,
                "metric {name:?} already registered with a different kind"
            ),
        }
    }

    /// The counter at `(name, labels)`, created at zero on first use.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already holds a different metric kind.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Counter {
        self.register_kind(name, MetricKind::Counter);
        let key = (name.to_string(), normalize_labels(labels));
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c,
            _ => unreachable!("kind registry guards this"),
        }
    }

    /// The gauge at `(name, labels)`, created at zero on first use.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already holds a different metric kind.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Gauge {
        self.register_kind(name, MetricKind::Gauge);
        let key = (name.to_string(), normalize_labels(labels));
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind registry guards this"),
        }
    }

    /// The histogram at `(name, labels)`, created empty over `bounds` on
    /// first use (later calls ignore `bounds` — the first registration wins).
    ///
    /// # Panics
    /// Panics if `name` is invalid, already holds a different metric kind, or
    /// `bounds` is invalid on first registration.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Vec<f64>,
    ) -> &mut LogHistogram {
        self.register_kind(name, MetricKind::Histogram);
        let key = (name.to_string(), normalize_labels(labels));
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(LogHistogram::new(bounds)))
        {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind registry guards this"),
        }
    }

    /// Number of registered `(name, labels)` series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// An ordered, immutable snapshot of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let samples = self
            .metrics
            .iter()
            .map(|((name, labels), m)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match m {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.clone()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// The value of one snapshot sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Full histogram state.
    Histogram(LogHistogram),
}

impl SampleValue {
    /// The metric kind of this value.
    pub fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One `(name, labels, value)` triple in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Normalized labels.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// An ordered, serializable view of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Samples sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
}

/// Format a float for Prometheus exposition (`+Inf`/`-Inf`/`NaN` spellings).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn prom_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsSnapshot {
    /// Look up a sample by name and (unnormalized) labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let want = normalize_labels(labels);
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| &s.value)
    }

    /// Render as JSON Lines: one flat object per sample, fields in a fixed
    /// order, floats in shortest round-trip form — byte-deterministic for a
    /// given snapshot.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            push_line(&mut out, |o| {
                o.str("kind", s.value.kind().prometheus_type());
                o.str("name", &s.name);
                o.obj("labels", |l| {
                    for (k, v) in &s.labels {
                        l.str(k, v);
                    }
                });
                match &s.value {
                    SampleValue::Counter(v) => o.raw("value", v),
                    SampleValue::Gauge(v) => o.f64("value", *v),
                    SampleValue::Histogram(h) => {
                        o.raw("count", h.count());
                        o.f64("sum", h.sum());
                        o.f64("min", h.min());
                        o.f64("max", h.max());
                        o.array("bounds", h.bounds().iter().map(|&b| json_f64(b)));
                        o.array("counts", h.counts());
                    }
                }
            });
        }
        out
    }

    /// Render as Prometheus text exposition format (v0.0.4): `# TYPE` lines
    /// per metric name, `_bucket`/`_sum`/`_count` expansion for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            if last_name != Some(s.name.as_str()) {
                let _ = writeln!(
                    out,
                    "# TYPE {} {}",
                    s.name,
                    s.value.kind().prometheus_type()
                );
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, prom_labels(&s.labels, None));
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        s.name,
                        prom_labels(&s.labels, None),
                        prom_f64(*v)
                    );
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts().iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds().len() {
                            prom_f64(h.bounds()[i])
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            s.name,
                            prom_labels(&s.labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        prom_labels(&s.labels, None),
                        prom_f64(h.sum())
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        prom_labels(&s.labels, None),
                        h.count()
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn log_bounds_are_geometric() {
        let b = LogHistogram::log_bounds(1.0, 2.0, 4);
        assert_eq!(b, vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(LogHistogram::throughput_bounds().len(), 15);
        assert_eq!(*LogHistogram::throughput_bounds().last().unwrap(), 16384.0);
    }

    #[test]
    fn histogram_le_bucketing() {
        let mut h = LogHistogram::new(vec![1.0, 10.0, 100.0]);
        h.observe(0.5); // <= 1
        h.observe(1.0); // <= 1 (le convention: on the edge goes low)
        h.observe(5.0); // <= 10
        h.observe(100.0); // <= 100
        h.observe(1000.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 1000.0);
        assert!((h.sum() - 1106.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        LogHistogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn registry_label_normalization_dedups() {
        let mut reg = MetricsRegistry::new();
        reg.counter("hits", &[("b", "2"), ("a", "1")]).inc();
        reg.counter("hits", &[("a", "1"), ("b", "2")]).inc();
        // Duplicate keys collapse, last value wins.
        reg.counter("hits", &[("a", "0"), ("b", "2"), ("a", "1")])
            .inc();
        assert_eq!(reg.len(), 1, "all three spellings are one series");
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("hits", &[("a", "1"), ("b", "2")]),
            Some(&SampleValue::Counter(3))
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_change() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x", &[]).inc();
        reg.gauge("x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_name() {
        MetricsRegistry::new().counter("bad name!", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.gauge("zeta", &[]).set(1.0);
            reg.counter("alpha", &[("x", "2")]).add(7);
            reg.counter("alpha", &[("x", "1")]).add(3);
            reg.snapshot()
        };
        let a = build();
        assert_eq!(a, build());
        assert_eq!(a.samples[0].name, "alpha");
        assert_eq!(a.samples[0].labels, normalize_labels(&[("x", "1")]));
        assert_eq!(a.to_jsonl(), build().to_jsonl());
        assert_eq!(a.to_prometheus(), build().to_prometheus());
    }

    #[test]
    fn jsonl_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("epochs_total", &[("tuner", "cs")]).add(60);
        reg.histogram("obs_mbs", &[], vec![1.0, 2.0]).observe(1.5);
        let jsonl = reg.snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"name\":\"epochs_total\",\"labels\":{\"tuner\":\"cs\"},\"value\":60}"
        );
        assert!(lines[1].contains("\"counts\":[0,1,0]"), "{}", lines[1]);
        assert!(lines[1].contains("\"sum\":1.5"), "{}", lines[1]);
    }

    #[test]
    fn prometheus_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("epochs_total", &[("tuner", "cs")]).add(60);
        reg.histogram("obs_mbs", &[], vec![1.0, 2.0]).observe(1.5);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE epochs_total counter"), "{prom}");
        assert!(prom.contains("epochs_total{tuner=\"cs\"} 60"), "{prom}");
        assert!(prom.contains("# TYPE obs_mbs histogram"), "{prom}");
        assert!(prom.contains("obs_mbs_bucket{le=\"1\"} 0"), "{prom}");
        assert!(prom.contains("obs_mbs_bucket{le=\"2\"} 1"), "{prom}");
        assert!(prom.contains("obs_mbs_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(prom.contains("obs_mbs_sum 1.5"), "{prom}");
        assert!(prom.contains("obs_mbs_count 1"), "{prom}");
    }

    #[test]
    fn escaping_in_labels() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", &[("path", "a\"b\\c\nd")]).set(1.0);
        let jsonl = reg.snapshot().to_jsonl();
        assert!(jsonl.contains("a\\\"b\\\\c\\nd"), "{jsonl}");
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("path=\"a\\\"b\\\\c\\nd\""), "{prom}");
    }

    #[test]
    fn empty_histogram_serializes_nonfinite_as_null() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("h", &[], vec![1.0]);
        let jsonl = reg.snapshot().to_jsonl();
        assert!(jsonl.contains("\"min\":null,\"max\":null"), "{jsonl}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Integer-valued observations.
    fn arb_obs() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0i64..100_000).prop_map(|v| v as f64), 0..60)
    }

    proptest! {
        /// Any permutation/duplication of a label list lands in the same
        /// registry slot (normalization dedups and sorts).
        #[test]
        fn registry_label_sets_dedup(
            keys in prop::collection::vec(0u8..3, 1..5),
            vals in prop::collection::vec(0u8..3, 1..5),
            shuffle_seed in 0u64..1000,
        ) {
            let n = keys.len().min(vals.len());
            let key_names = ["a", "b", "c"];
            let val_names = ["x", "y", "z"];
            // Keys are made unique per position (normalization is last-wins,
            // so permutation invariance only holds for unique keys).
            let pairs: Vec<(String, String)> = keys[..n]
                .iter()
                .enumerate()
                .map(|(i, &k)| format!("{}{}", key_names[k as usize], i))
                .zip(vals[..n].iter().map(|&v| val_names[v as usize].to_string()))
                .collect();
            let refs: Vec<(&str, &str)> =
                pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            // A deterministic pseudo-shuffle of the same pairs.
            let mut shuffled = refs.clone();
            let mut s = shuffle_seed;
            for i in (1..shuffled.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut reg = MetricsRegistry::new();
            reg.counter("series", &refs).inc();
            reg.counter("series", &shuffled).inc();
            // Duplicate-key spelling (same final values) also collapses.
            let mut dup = refs.clone();
            dup.extend(refs.iter().cloned());
            reg.counter("series", &dup).inc();
            prop_assert_eq!(reg.len(), 1);
            let snap = reg.snapshot();
            prop_assert_eq!(snap.get("series", &refs), Some(&SampleValue::Counter(3)));
        }

        /// JSONL and Prometheus renderings are pure functions of the
        /// snapshot: render twice, get identical bytes.
        #[test]
        fn renderings_are_deterministic(obs in arb_obs()) {
            let mut reg = MetricsRegistry::new();
            for (i, &x) in obs.iter().enumerate() {
                reg.counter("events_total", &[("shard", if i % 2 == 0 { "a" } else { "b" })]).inc();
                reg.histogram("values", &[], LogHistogram::log_bounds(1.0, 2.0, 10)).observe(x);
                reg.gauge("level", &[]).set(x);
            }
            let snap = reg.snapshot();
            prop_assert_eq!(snap.to_jsonl(), reg.snapshot().to_jsonl());
            prop_assert_eq!(snap.to_prometheus(), reg.snapshot().to_prometheus());
        }
    }
}
