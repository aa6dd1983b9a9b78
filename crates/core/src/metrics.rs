//! A metrics surface: counters, gauges, and log2-bucket histograms.
//!
//! The conform sweep accumulates its run statistics in a
//! [`MetricsRegistry`]; a [`MetricsSnapshot`] is the plain-value,
//! name-ordered form its report prints, so two runs that observed the
//! same events render identical text.
//!
//! Determinism contract: everything in here is a pure function of the
//! sequence of `inc`/`set_gauge`/`record` calls. Nothing reads a clock —
//! callers that record durations pass them in, and callers that need a
//! deterministic report simply avoid recording nondeterministic values.
//!
//! The [`Histogram`] uses power-of-two buckets (bucket *i* holds values
//! whose bit length is *i*), so recording is one `leading_zeros` and one
//! add — no allocation, no sorting. Quantiles are nearest-rank over the
//! buckets, reported as the bucket's upper bound clamped into the
//! observed `[min, max]`: an estimate with ≤ 2× relative error by
//! construction.

use std::collections::BTreeMap;

/// Bucket count: one per possible bit length of a `u64` (0..=64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` samples (latencies in ns, sizes,
/// counts). Recording is O(1) and allocation-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Bucket index of a value: its bit length (0 for 0, 1 for 1, 2 for 2–3,
/// 3 for 4–7, …).
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_hi(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, rounded down; 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`: the upper bound
    /// of the bucket holding the ranked sample, clamped into the observed
    /// `[min, max]` so `quantile(1.0) == max()` exactly and no estimate
    /// undershoots the smallest sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One named metric's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-write-wins measurement.
    Gauge(f64),
    /// Distribution of samples.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A single-writer registry of named metrics. Names are dotted paths
/// (`fleet.wave_size`); iteration order is always name order, so
/// snapshots are canonical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to the counter `name` (creating it at 0).
    ///
    /// Panics if `name` already exists with a different metric kind —
    /// mixing kinds under one name is always a caller bug.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += by,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Set the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(0.0))
        {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Record one sample into the histogram `name` (creating it empty).
    pub fn record(&mut self, name: &str, v: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The histogram under `name`, if one exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The counter under `name`, if one exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Freeze into the plain-value snapshot reports embed.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A frozen, name-ordered view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Aligned text rendering for CLI reports: one line per metric.
    pub fn render(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.entries {
            let line = match v {
                MetricValue::Counter(c) => format!("{c}"),
                MetricValue::Gauge(g) => format!("{g}"),
                MetricValue::Histogram(h) => format!(
                    "n={} min={} p50={} p90={} p99={} max={} mean={}",
                    h.count(),
                    h.min(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max(),
                    h.mean(),
                ),
            };
            out.push_str(&format!("  {name:<width$}  {line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_exact_count_min_max_sum() {
        let mut h = Histogram::new();
        for v in [7u64, 0, 1, 1000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 202);
        assert_eq!(h.quantile(1.0), 1000, "q=1.0 must be the exact max");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_estimate_within_2x_of_exact() {
        // Cross-check the bucketed estimate against exact nearest-rank
        // percentiles of a deterministic pseudo-random sample.
        let mut h = Histogram::new();
        let mut sorted = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            h.record(v);
            sorted.push(v);
        }
        sorted.sort_unstable();
        for (q, p) in [(0.5, 50), (0.9, 90), (0.99, 99)] {
            let est = h.quantile(q);
            let exact = sorted[(p * sorted.len()).div_ceil(100) - 1].max(1);
            assert!(
                est >= exact && est < exact * 2 + 2,
                "q={q}: estimate {est} not in [{exact}, {})",
                exact * 2 + 2
            );
        }
    }

    #[test]
    fn registry_snapshot_is_canonical_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("z.count", 2);
        r.record("a.lat", 5);
        r.record("a.lat", 9);
        r.set_gauge("m.rate", 0.5);
        r.inc("z.count", 1);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.lat", "m.rate", "z.count"]);
        assert_eq!(s.get("z.count"), Some(&MetricValue::Counter(3)));
        // Same calls, different interleaving: identical snapshot.
        let mut r2 = MetricsRegistry::new();
        r2.set_gauge("m.rate", 0.5);
        r2.inc("z.count", 3);
        r2.record("a.lat", 5);
        r2.record("a.lat", 9);
        assert_eq!(s, r2.snapshot());
        // The text rendering mentions every metric.
        let text = s.render();
        for n in names {
            assert!(text.contains(n), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.record("x", 1);
        r.inc("x", 1);
    }
}
