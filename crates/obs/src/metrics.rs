//! The unified metrics registry: named counters, gauges, and latency
//! histograms behind lock-cheap handles.
//!
//! Registration takes a lock once; the returned handle is an `Arc` around
//! plain atomics, so the hot path (`inc`, `record`) is a relaxed atomic op —
//! no name lookup, no lock, no allocation.  [`MetricsRegistry::snapshot`]
//! reads every metric at a point in time for printing or export as
//! [`Fact`]s.

use crate::hist::{percentile_of, LatencyHistogram, LATENCY_BUCKETS};
use crate::sink::Fact;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter handle (cheaply cloneable; clones
/// share the underlying value).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
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

/// A settable signed gauge handle, with a high-water-mark update for
/// "largest so far" metrics.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is above the current value
    /// (monotone high-water mark; concurrent raises keep the max).
    pub fn set_max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency-histogram handle; see [`LatencyHistogram`] for bucket geometry.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<LatencyHistogram>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        self.0.record(elapsed);
    }

    /// Records one observation in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.0.record_micros(micros);
    }

    /// Accumulates bucket counts into `into` (cross-histogram aggregation).
    pub fn add_counts(&self, into: &mut [u64; LATENCY_BUCKETS]) {
        self.0.add_counts(into);
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.0.total()
    }

    /// The `p`-quantile upper bound; `None` while empty.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        self.0.percentile(p)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics.  Cloning shares the registry (handles and
/// snapshots see the same values).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers the gauge `name`; panics on kind mismatch like
    /// [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or registers the histogram `name`; panics on kind mismatch like
    /// [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// A point-in-time read of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let entries = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let counts = h.0.counts();
                        MetricValue::Histogram {
                            total: counts.iter().sum(),
                            p50: percentile_of(&counts, 0.50),
                            p99: percentile_of(&counts, 0.99),
                        }
                    }
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram summary: observation count and p50/p99 bucket upper
    /// bounds (`None` while empty).
    Histogram {
        /// Total observations recorded.
        total: u64,
        /// Median upper bound.
        p50: Option<Duration>,
        /// 99th-percentile upper bound.
        p99: Option<Duration>,
    },
}

/// A point-in-time view of a registry, ordered by metric name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Looks one metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders every metric as a `metric` fact (one per registered name),
    /// ready for an [`crate::ObsSink`].
    pub fn to_facts(&self) -> Vec<Fact> {
        self.iter()
            .map(|(name, value)| {
                let fact = Fact::new("metric").with("name", name);
                match value {
                    MetricValue::Counter(v) => fact.with("type", "counter").with("value", *v),
                    MetricValue::Gauge(v) => fact.with("type", "gauge").with("value", *v),
                    MetricValue::Histogram { total, p50, p99 } => {
                        let micros =
                            |d: &Option<Duration>| d.map_or(0u64, |d| d.as_micros() as u64);
                        fact.with("type", "histogram")
                            .with("total", *total)
                            .with("p50_us", micros(p50))
                            .with("p99_us", micros(p99))
                    }
                }
            })
            .collect()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name} = {v}")?,
                MetricValue::Gauge(v) => writeln!(f, "{name} = {v}")?,
                MetricValue::Histogram { total, p50, p99 } => {
                    writeln!(f, "{name} = {{n={total}, p50≤{p50:?}, p99≤{p99:?}}}")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_values_with_the_registry() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("requests");
        c.inc();
        c.add(4);
        // A second lookup of the same name sees the same underlying value.
        assert_eq!(registry.counter("requests").get(), 5);

        let g = registry.gauge("depth");
        g.set(3);
        g.add(-1);
        g.set_max(10);
        g.set_max(7); // below the high-water mark: no effect
        assert_eq!(registry.gauge("depth").get(), 10);

        let h = registry.histogram("wait");
        h.record(Duration::from_micros(100));
        assert_eq!(registry.histogram("wait").total(), 1);
    }

    #[test]
    fn snapshot_reads_everything_in_name_order() {
        let registry = MetricsRegistry::new();
        registry.counter("b.count").add(2);
        registry.gauge("a.gauge").set(-7);
        registry
            .histogram("c.wait")
            .record(Duration::from_micros(3));
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.gauge", "b.count", "c.wait"]);
        assert_eq!(snapshot.get("b.count"), Some(&MetricValue::Counter(2)));
        assert_eq!(snapshot.get("a.gauge"), Some(&MetricValue::Gauge(-7)));
        match snapshot.get("c.wait") {
            Some(MetricValue::Histogram { total: 1, p50, .. }) => {
                assert_eq!(*p50, Some(Duration::from_micros(4)));
            }
            other => panic!("bad histogram value: {other:?}"),
        }
        let facts = snapshot.to_facts();
        assert_eq!(facts.len(), 3);
        assert!(facts.iter().all(|f| f.kind == "metric"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }
}
