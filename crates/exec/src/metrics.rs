//! Shared runtime metrics: named atomic counters and fixed-bucket latency
//! histograms with percentile extraction.
//!
//! A [`MetricsRegistry`] is a cheap-to-clone handle over shared atomic
//! state, so every layer of the system — the façade, the network server,
//! background workers — can record into the *same* registry. Counters and
//! histogram buckets are plain `AtomicU64`s; every by-name call
//! ([`MetricsRegistry::incr`], [`MetricsRegistry::observe`], …) holds the
//! registry's map mutex for one lookup, and allocates only the first time
//! it sees a name.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a serializable
//! [`MetricsSnapshot`]; the serving layer ships that snapshot over the
//! wire for its `Stats` request, and `Quarry::metrics()` merges it with
//! the last pipeline run's `ExecReport` and the page pool's counters so
//! one call answers "what has this system been doing".

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Histogram bucket upper bounds in microseconds, log-spaced 1-2-5 from
/// 1µs to 100s. Observations above the last bound land in the overflow
/// bucket. Fixed at compile time so recording is one atomic add.
const BUCKET_BOUNDS_US: [u64; 25] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
];

/// Lock recovering from poisoning: registry maps hold only `Arc`s, a
/// panicking thread cannot leave them half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-bucket latency histogram. All updates are relaxed atomic adds;
/// percentile extraction happens only at snapshot time.
#[derive(Debug, Default)]
pub struct Histogram {
    /// One counter per bound in [`BUCKET_BOUNDS_US`] plus one overflow.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Record one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The upper bound (µs) of the bucket where the cumulative count
    /// first reaches `q` of the total; the recorded max for the overflow
    /// bucket. `None` when the histogram is empty.
    fn quantile_us(&self, counts: &[u64], total: u64, q: f64) -> u64 {
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i]
                } else {
                    self.max_us.load(Ordering::Relaxed)
                };
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Freeze into a serializable summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: self.quantile_us(&counts, count, 0.50),
            p95_us: self.quantile_us(&counts, count, 0.95),
            p99_us: self.quantile_us(&counts, count, 0.99),
        }
    }
}

/// A frozen histogram summary. Percentiles are bucket upper bounds, so
/// they over-estimate by at most one 1-2-5 step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (µs).
    pub sum_us: u64,
    /// Largest observation (µs).
    pub max_us: u64,
    /// Median (µs).
    pub p50_us: u64,
    /// 95th percentile (µs).
    pub p95_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// A frozen view of every counter and histogram in a registry —
/// serializable, diffable, shippable over the wire.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when absent — counters appear on first use).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's summary, if it has been recorded to.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render as a sorted `name value` table (debugging, logs).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name} count={} p50={}us p95={}us p99={}us max={}us",
                h.count, h.p50_us, h.p95_us, h.p99_us, h.max_us
            );
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The entry for `name`, inserted on first use. A known name costs one
/// lookup under the map's mutex and no `String`.
fn by_name<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = lock(map);
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// A cheap-to-clone handle to shared metrics state. Clones record into
/// the same counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        by_name(&self.inner.counters, name)
    }

    /// Add `delta` to the counter named `name`.
    pub fn incr(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        by_name(&self.inner.histograms, name)
    }

    /// Record one latency observation into the histogram named `name`.
    pub fn observe_us(&self, name: &str, us: u64) {
        self.histogram(name).observe_us(us);
    }

    /// Record a [`std::time::Duration`] into the histogram named `name`.
    pub fn observe(&self, name: &str, d: std::time::Duration) {
        self.observe_us(name, d.as_micros() as u64);
    }

    /// Freeze the current state of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms =
            lock(&self.inner.histograms).iter().map(|(k, h)| (k.clone(), h.snapshot())).collect();
        MetricsSnapshot { counters, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.incr("requests", 2);
        m2.incr("requests", 3);
        assert_eq!(m.snapshot().counter("requests"), 5);
        assert_eq!(m.snapshot().counter("absent"), 0);
    }

    #[test]
    fn a_known_name_hands_back_the_same_handle() {
        let m = MetricsRegistry::new();
        m.incr("requests", 1);
        m.observe_us("lat", 7);
        assert!(Arc::ptr_eq(&m.counter("requests"), &m.counter("requests")));
        assert!(Arc::ptr_eq(&m.histogram("lat"), &m.histogram("lat")));
        m.counter("requests").fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!((snap.counters.len(), snap.histograms.len()), (1, 1));
        assert_eq!(snap.counter("requests"), 2);
        assert_eq!(snap.histogram("lat").map(|h| h.count), Some(1));
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let m = MetricsRegistry::new();
        // 100 observations spread 1..=100 ms.
        for ms in 1..=100u64 {
            m.observe_us("lat", ms * 1_000);
        }
        let snap = m.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.max_us, 100_000);
        // Bucket bounds over-estimate by at most one 1-2-5 step.
        assert!((50_000..=100_000).contains(&h.p50_us), "{h:?}");
        assert!(h.p95_us >= 95_000, "{h:?}");
        assert!(h.p99_us >= 99_000 && h.p99_us <= 200_000, "{h:?}");
        assert!(h.p50_us <= h.p95_us && h.p95_us <= h.p99_us);
        assert!((h.mean_us() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let m = MetricsRegistry::new();
        let _ = m.histogram("never");
        assert_eq!(m.snapshot().histogram("never"), Some(&HistogramSnapshot::default()));
    }

    #[test]
    fn overflow_bucket_reports_recorded_max() {
        let m = MetricsRegistry::new();
        m.observe_us("big", 500_000_000); // beyond the last bound
        let snap = m.snapshot();
        let h = snap.histogram("big").unwrap();
        assert_eq!(h.p99_us, 500_000_000);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = MetricsRegistry::new();
        m.incr("a", 7);
        m.observe_us("h", 1234);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
