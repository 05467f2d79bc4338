//! Frozen registry state: mergeable, comparable, serialisable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::HISTOGRAM_BUCKETS;

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

    /// The `p`-quantile (`p` in `0.0..=1.0`) to the resolution the
    /// log₂ buckets keep: the largest value the bucket holding the
    /// `p`-th sample can hold — `0` for bucket 0, `2^i - 1` for bucket
    /// `i`, and `None` for the last bucket, which is open-ended (the
    /// sample is at least `2^(HISTOGRAM_BUCKETS-2)`, nothing more is
    /// known). Ranks count the buckets' own samples, so a merged
    /// snapshot reads as the union of what was merged. An empty
    /// histogram reads `Some(0)`, like its mean.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.buckets.iter().fold(0u64, |t, &n| t.saturating_add(n));
        // The p-th of `total` samples, counting from one.
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            below = below.saturating_add(n);
            if below >= rank {
                return bucket_bound(i);
            }
        }
        Some(0)
    }

    /// The bound of the highest bucket holding a sample: the 100th
    /// percentile, as close to the maximum as the buckets remember.
    pub fn max_bound(&self) -> Option<u64> {
        self.percentile(1.0)
    }
}

/// The largest value bucket `i` can hold; `None` for the last,
/// open-ended one.
fn bucket_bound(i: usize) -> Option<u64> {
    (i + 1 < HISTOGRAM_BUCKETS).then(|| (1u64 << i) - 1)
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

    /// Render as a deterministic single JSON object (the same
    /// hand-rolled JSON-line convention the benches use for
    /// `BENCH_*.json`). A non-empty histogram also prints its `p50`,
    /// `p90`, `p99` and `max` bucket bounds
    /// ([`HistogramSnapshot::percentile`]); `null` is the open-ended
    /// last bucket.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape_json(name));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape_json(name));
        }
        out.push_str("}, \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.2}",
                escape_json(&h.name),
                h.count,
                h.sum,
                h.mean()
            );
            if h.count > 0 {
                let bounds = [
                    ("p50", h.percentile(0.5)),
                    ("p90", h.percentile(0.9)),
                    ("p99", h.percentile(0.99)),
                    ("max", h.max_bound()),
                ];
                for (label, bound) in bounds {
                    let bound = bound.map_or_else(|| "null".to_owned(), |v| v.to_string());
                    let _ = write!(out, ", \"{label}\": {bound}");
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

    #[test]
    fn json_rendering_is_deterministic_and_escaped() {
        let reg = Registry::new();
        reg.counter(Metric::test("a\"b")).inc();
        reg.histogram(Metric::test("lat")).record(10);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains(
            "\"lat\": {\"count\": 1, \"sum\": 10, \"mean\": 10.00, \
             \"p50\": 15, \"p90\": 15, \"p99\": 15, \"max\": 15}"
        ));
        reg.histogram(Metric::test("idle"));
        reg.histogram(Metric::test("lat")).record(u64::MAX);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"idle\": {\"count\": 0, \"sum\": 0, \"mean\": 0.00}"));
        assert!(json.contains("\"p50\": 15, \"p90\": null, \"p99\": null, \"max\": null}"));
    }

    #[test]
    fn percentiles_read_the_bucket_holding_the_ranked_sample() {
        // 100 samples: 50 zeros, 40 in [4, 8), 9 in [512, 1024), one
        // beyond the last bucket's floor.
        let reg = Registry::new();
        let h = reg.histogram(Metric::test("h"));
        let samples = [(0, 50), (5, 40), (700, 9), (u64::MAX, 1)];
        for (v, n) in samples {
            for _ in 0..n {
                h.record(v);
            }
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(0));
        assert_eq!(h.percentile(0.51), Some(7));
        assert_eq!(h.percentile(0.9), Some(7));
        assert_eq!(h.percentile(0.99), Some(1023));
        assert_eq!(h.percentile(1.0), None, "the last bucket is open-ended");
        assert_eq!(h.max_bound(), None);

        let empty = Registry::new();
        empty.histogram(Metric::test("h"));
        let empty = empty.snapshot();
        assert_eq!(empty.histogram("h").unwrap().percentile(0.99), Some(0));
    }

    #[test]
    fn percentiles_of_a_merge_are_those_of_the_union() {
        let (a, b, union) = (Registry::new(), Registry::new(), Registry::new());
        for v in 0..300u64 {
            let part = if v % 3 == 0 { &a } else { &b };
            part.histogram(Metric::test("h")).record(v * v);
            union.histogram(Metric::test("h")).record(v * v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let union = union.snapshot();
        let merged = merged.histogram("h").unwrap();
        let union = union.histogram("h").unwrap();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.percentile(p), union.percentile(p), "p = {p}");
        }
        assert_eq!(merged.max_bound(), Some((1 << 17) - 1), "299^2 < 2^17");
    }
}
