//! Property tests: the telemetry snapshot XML codec round-trips
//! arbitrary snapshots — XML-hostile metric names, empty and sparse
//! histograms, extreme values — through the same `Element` machinery
//! the federation wire codec uses.

use proptest::prelude::*;
use sci::core::{snapshot_from_xml, snapshot_to_xml};
use sci::prelude::*;
use sci::telemetry::{catalogue, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Metric names as they appear on the wire (XML attribute values);
/// half the cases contain characters the codec must escape.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9._-]{0,20}".prop_map(|s| s),
        "[a-z]{1,6}".prop_map(|s| format!("{s}<&\">'{s}")),
    ]
}

fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![0..1000u64, Just(u64::MAX), any::<u64>()]
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        arb_name(),
        arb_value(),
        arb_value(),
        prop::collection::vec(prop_oneof![Just(0u64), 1..100u64], 0..HISTOGRAM_BUCKETS + 1),
    )
        .prop_map(|(name, count, sum, buckets)| HistogramSnapshot {
            name,
            count,
            sum,
            buckets,
        })
}

fn arb_snapshot() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        prop::collection::vec((arb_name(), arb_value()), 0..8),
        prop::collection::vec((arb_name(), any::<i64>()), 0..8),
        prop::collection::vec(arb_histogram(), 0..5),
    )
        .prop_map(|(counters, gauges, histograms)| TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        })
}

proptest! {
    #[test]
    fn snapshot_xml_round_trips(snap in arb_snapshot()) {
        let xml = snapshot_to_xml(&snap);
        let back = snapshot_from_xml(&xml).unwrap();
        prop_assert_eq!(snap, back);
    }

    /// A live registry's snapshot (the shape production code emits)
    /// also round-trips, and merging preserves codec fidelity. A
    /// registry takes catalogued names only; the hostile names are
    /// `snapshot_xml_round_trips`' to cover.
    #[test]
    fn registry_snapshot_round_trips(
        counts in prop::collection::vec((0..catalogue::ALL.len(), 0..1000u64), 1..6),
        samples in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let reg = Registry::new();
        for &(name, v) in &counts {
            reg.counter(catalogue::ALL[name].clone()).add(v);
        }
        let h = reg.histogram(catalogue::BUS_PUBLISH_LATENCY_US);
        for &s in &samples {
            h.record(s);
        }
        let mut snap = reg.snapshot();
        snap.merge(&reg.snapshot());
        let back = snapshot_from_xml(&snapshot_to_xml(&snap)).unwrap();
        prop_assert_eq!(snap, back);
    }

    /// The `buckets` attribute sizes an allocation and comes from the
    /// peer: any length a histogram cannot have is an error, never a
    /// panic or a terabyte.
    #[test]
    fn any_bucket_count_is_read_or_refused(len in arb_value()) {
        let doc = format!(
            "<telemetry><histogram name=\"h\" count=\"1\" sum=\"1\" buckets=\"{len}\"/></telemetry>"
        );
        let fits = usize::try_from(len).is_ok_and(|len| len <= HISTOGRAM_BUCKETS);
        prop_assert_eq!(snapshot_from_xml(&doc).is_ok(), fits);
    }
}
