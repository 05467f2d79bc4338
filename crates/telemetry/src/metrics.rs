//! Atomic instruments and the registry that names them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared:
//! clone them out of the [`Registry`] once, store them next to the hot
//! path, and every update is a relaxed atomic op. The registry mutex is
//! only taken on registration and snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::catalogue::Metric;
use crate::snapshot::{HistogramSnapshot, TelemetrySnapshot};

/// Number of buckets in a [`Histogram`]: bucket `0` holds zero-valued
/// samples, bucket `i` holds samples in `[2^(i-1), 2^i)`, and the last
/// bucket absorbs everything at or above `2^(HISTOGRAM_BUCKETS-2)`
/// (~33 s when recording microseconds).
pub const HISTOGRAM_BUCKETS: usize = 26;

/// Monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (queue depths, in-flight counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Fixed power-of-two-bucket latency histogram (values are expected in
/// microseconds but any `u64` works). Recording is three relaxed
/// atomic increments; no locks, no allocation.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        let pow = (64 - v.leading_zeros()) as usize;
        pow.min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn freeze(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Named instrument registry. Cloning is cheap (`Arc`); clones share
/// the same instruments, which is how per-range registries stay
/// readable from a federation coordinator after the range's server has
/// moved onto its worker thread.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Instruments are plain atomics; a panic while holding the
    // registration lock cannot leave them torn, so poisoning is safe to
    // shrug off.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter called `name`.
    pub fn counter(&self, name: Metric) -> Counter {
        locked(&self.inner.counters)
            .entry(name.0.into_owned())
            .or_default()
            .clone()
    }

    /// Get or register the gauge called `name`.
    pub fn gauge(&self, name: Metric) -> Gauge {
        locked(&self.inner.gauges)
            .entry(name.0.into_owned())
            .or_default()
            .clone()
    }

    /// Get or register the histogram called `name`.
    pub fn histogram(&self, name: Metric) -> Histogram {
        locked(&self.inner.histograms)
            .entry(name.0.into_owned())
            .or_default()
            .clone()
    }

    /// Freeze every instrument into a [`TelemetrySnapshot`], sorted by
    /// name (the registry maps are `BTreeMap`s, so this is
    /// deterministic).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: locked(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: locked(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: locked(&self.inner.histograms)
                .iter()
                .map(|(k, v)| v.freeze(k))
                .collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter(Metric::test("a"));
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying instrument.
        assert_eq!(reg.counter(Metric::test("a")).get(), 5);

        let g = reg.gauge(Metric::test("depth"));
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::default();
        for v in [0, 1, 3, 700] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 704);
        assert!((h.mean() - 176.0).abs() < f64::EPSILON);
    }

    #[test]
    fn registry_clones_share_instruments() {
        let reg = Registry::new();
        let clone = reg.clone();
        reg.counter(Metric::test("shared")).inc();
        clone.counter(Metric::test("shared")).add(2);
        assert_eq!(reg.snapshot().counter("shared"), 3);
    }

    #[test]
    fn instruments_are_send_across_threads() {
        let reg = Registry::new();
        let c = reg.counter(Metric::test("x"));
        let h = reg.histogram(Metric::test("h"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 400);
        assert_eq!(h.count(), 400);
    }
}
