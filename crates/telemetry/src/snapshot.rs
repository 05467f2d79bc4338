//! Frozen registry state: mergeable, comparable, serialisable.

use std::collections::BTreeMap;

/// Frozen state of one [`Histogram`](crate::Histogram).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name of the histogram.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Per-bucket sample counts (see
    /// [`HISTOGRAM_BUCKETS`](crate::HISTOGRAM_BUCKETS)).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time freeze of a [`Registry`](crate::Registry), or the
/// merge of several (one per range plus a coordinator, say). Entries
/// are kept sorted by name so snapshots are deterministic and
/// comparable.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram freezes, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Value of the counter called `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the gauge called `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram called `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Fold `other` into `self`: counters and gauges sum by name,
    /// histograms add per-bucket. Used to aggregate per-range
    /// registries into one federation-wide view. All additions
    /// saturate — a merge of extreme totals must never panic.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            let slot = counters.entry(name.clone()).or_default();
            *slot = slot.saturating_add(*v);
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, i64> = self.gauges.drain(..).collect();
        for (name, v) in &other.gauges {
            let slot = gauges.entry(name.clone()).or_default();
            *slot = slot.saturating_add(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut hists: BTreeMap<String, HistogramSnapshot> = self
            .histograms
            .drain(..)
            .map(|h| (h.name.clone(), h))
            .collect();
        for h in &other.histograms {
            match hists.get_mut(&h.name) {
                Some(mine) => {
                    mine.count = mine.count.saturating_add(h.count);
                    mine.sum = mine.sum.saturating_add(h.sum);
                    if mine.buckets.len() < h.buckets.len() {
                        mine.buckets.resize(h.buckets.len(), 0);
                    }
                    for (m, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *m = m.saturating_add(*o);
                    }
                }
                None => {
                    hists.insert(h.name.clone(), h.clone());
                }
            }
        }
        self.histograms = hists.into_values().collect();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::catalogue::Metric;
    use crate::Registry;

    #[test]
    fn snapshot_reads_back_values() {
        let reg = Registry::new();
        reg.counter(Metric::test("pub")).add(7);
        reg.gauge(Metric::test("depth")).set(2);
        reg.histogram(Metric::test("lat")).record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pub"), 7);
        assert_eq!(snap.gauge("depth"), 2);
        let h = snap.histogram("lat").unwrap();
        assert_eq!((h.count, h.sum), (1, 5));
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn merge_sums_by_name_and_keeps_sorted() {
        let a = Registry::new();
        a.counter(Metric::test("x")).add(1);
        a.counter(Metric::test("z")).add(10);
        a.histogram(Metric::test("h")).record(4);
        let b = Registry::new();
        b.counter(Metric::test("x")).add(2);
        b.counter(Metric::test("a")).add(5);
        b.histogram(Metric::test("h")).record(8);
        b.gauge(Metric::test("g")).set(-1);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x"), 3);
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("z"), 10);
        assert_eq!(snap.gauge("g"), -1);
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count, h.sum), (2, 12));
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
