//! Range-level observability: metric registration and the snapshot
//! XML codec.
//!
//! Every [`crate::context_server::ContextServer`] owns a
//! [`sci_telemetry::Registry`] from birth; this module centralises the
//! instrument names and the recording helpers so the hot paths stay
//! free of string formatting. The registry is `Arc`-shared: actor
//! drivers ([`crate::runtime::RangeRuntime`],
//! [`crate::runtime::ParallelFederation`]) clone a range's registry
//! before the server moves onto its worker thread, so the coordinator
//! can freeze per-range state without a round-trip command — the
//! counters are atomics.
//!
//! Every name registered here is a `sci_telemetry::catalogue` constant
//! (a registry takes no other name) and is described in
//! `docs/observability.md`, the one metric reference (the catalogue's
//! unit tests check the doc).

use std::fmt;

use sci_overlay::stats::LoadStats;
use sci_query::xml::{document, parse, XmlWriter};
use sci_telemetry::catalogue::{self, Metric};
use sci_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Span, TelemetrySnapshot, Tracer,
    HISTOGRAM_BUCKETS,
};
use sci_types::{ContextEvent, Guid, HashMap, SciError, SciResult};

use crate::records::parsed_attr;
use crate::runtime::RangeCommand;

/// The instruments a [`crate::context_server::ContextServer`] records
/// into. Constructed once per server; all handles are pre-registered so
/// recording never formats a name.
pub(crate) struct CsMetrics {
    registry: Registry,
    tracer: Tracer,
    cmd_count: Vec<Counter>,
    cmd_latency: Vec<Histogram>,
    plan_count: Counter,
    pub(crate) admit_reused: Counter,
    plan_latency: Histogram,
    pub(crate) plan_rejected: Counter,
    pub(crate) stale_drops: Counter,
    pub(crate) app_deliveries: Counter,
    pub(crate) deregister_unknown: Counter,
    pub(crate) migrate_out: Counter,
    pub(crate) migrate_in: Counter,
    pub(crate) source_failed: Counter,
    trace_key_repeats: Counter,
    /// The newest `seq` each source's ingests carried, kept only while
    /// the tracer is on.
    last_seq: HashMap<Guid, u64>,
}

impl CsMetrics {
    /// Pre-registers every instrument on an existing registry. The
    /// registry's get-or-register semantics make this the continuity
    /// path for supervised restarts: a restarted Context Server adopts
    /// its predecessor's registry and keeps incrementing the same
    /// counters.
    pub(crate) fn with_registry(registry: Registry) -> Self {
        let cmd_count = RangeCommand::KINDS
            .iter()
            .map(|kind| registry.counter(Metric::command_count(kind)))
            .collect();
        let cmd_latency = RangeCommand::KINDS
            .iter()
            .map(|kind| registry.histogram(Metric::command_latency(kind)))
            .collect();
        CsMetrics {
            cmd_count,
            cmd_latency,
            plan_count: registry.counter(catalogue::RESOLVER_PLAN_COUNT),
            admit_reused: registry.counter(catalogue::RESOLVER_ADMIT_REUSED),
            plan_latency: registry.histogram(catalogue::RESOLVER_PLAN_LATENCY_US),
            plan_rejected: registry.counter(catalogue::RESOLVER_PLAN_REJECTED),
            stale_drops: registry.counter(catalogue::RANGE_STALE_DROPS),
            app_deliveries: registry.counter(catalogue::RANGE_APP_DELIVERIES),
            deregister_unknown: registry.counter(catalogue::RANGE_DEREGISTER_UNKNOWN),
            migrate_out: registry.counter(catalogue::RANGE_MIGRATE_OUT),
            migrate_in: registry.counter(catalogue::RANGE_MIGRATE_IN),
            source_failed: registry.counter(catalogue::RANGE_SOURCE_FAILED),
            trace_key_repeats: registry.counter(catalogue::RANGE_TRACE_KEY_REPEATS),
            last_seq: HashMap::default(),
            tracer: Tracer::noop(),
            registry,
        }
    }

    /// The server's registry (shared handle).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The server's tracer.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replaces the tracer (default: no-op).
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Tags an ingest span with its event's trace key, `(source, seq)`,
    /// the pair the relay's `federation.deliver` event carries too, and
    /// counts a key whose `seq` is not above the last one its source
    /// ingested: a key that does not tell two ingests apart. Free when
    /// the tracer is off.
    pub(crate) fn trace_key(&mut self, span: &mut Span<'_>, event: &ContextEvent) {
        if !self.tracer.enabled() {
            return;
        }
        span.field("source", event.source);
        span.field("seq", event.seq.0);
        let last = self.last_seq.insert(event.source, event.seq.0);
        if last.is_some_and(|last| event.seq.0 <= last) {
            self.trace_key_repeats.inc();
        }
    }

    /// Records one executed command of kind-index `idx`.
    #[inline]
    pub(crate) fn record_command(&self, idx: usize, elapsed_us: u64) {
        self.cmd_count[idx].inc();
        self.cmd_latency[idx].record(elapsed_us);
    }

    /// The two admission counts, `(plans attempted, attaches)`, to tell
    /// afterwards how a submit was admitted.
    pub(crate) fn admissions(&self) -> (u64, u64) {
        (self.plan_count.get(), self.admit_reused.get())
    }

    /// Tags a submit span with its `query` and, when it built a
    /// subscription, its `admission`: `reused` if it attached to a live
    /// configuration, `planned` if it planned (`before` is
    /// [`Self::admissions`] at its start). Free when the tracer is off.
    pub(crate) fn trace_admission(&self, span: &mut Span<'_>, query: Guid, before: (u64, u64)) {
        if !self.tracer.enabled() {
            return;
        }
        span.field("query", query);
        match self.admissions() {
            (_, reused) if reused > before.1 => span.field("admission", "reused"),
            (planned, _) if planned > before.0 => span.field("admission", "planned"),
            _ => {}
        }
    }

    /// Records one plan attempt (successful or not) and its build time.
    pub(crate) fn record_plan_attempt(&self, elapsed_us: u64) {
        self.plan_count.inc();
        self.plan_latency.record(elapsed_us);
    }
}

/// The instruments of the relay core ([`crate::relay::RelayCore`]),
/// shared by both federation drivers.
pub(crate) struct FedMetrics {
    pub(crate) registry: Registry,
    pub(crate) tracer: Tracer,
    pub(crate) cast_us: Histogram,
    pub(crate) barrier_us: Histogram,
    pub(crate) relay_us: Histogram,
    pub(crate) relay_events: Counter,
    pub(crate) relay_answers: Counter,
    pub(crate) relay_stale_drops: Counter,
    pub(crate) relay_dedup_hits: Counter,
    pub(crate) relay_unknown_app: Counter,
    pub(crate) relay_undecodable: Counter,
    pub(crate) retry_attempts: Counter,
    pub(crate) retry_parked: Counter,
    pub(crate) partial_answers: Counter,
    pub(crate) freshness_infeasible: Counter,
    pub(crate) stream_events: Counter,
    pub(crate) stream_answers: Counter,
    pub(crate) stream_pump_us: Histogram,
    pub(crate) migrate_inflight: Histogram,
    pub(crate) e2e_latency: Histogram,
}

impl FedMetrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        FedMetrics {
            tracer: Tracer::noop(),
            cast_us: registry.histogram(catalogue::FEDERATION_CAST_US),
            barrier_us: registry.histogram(catalogue::FEDERATION_BARRIER_US),
            relay_us: registry.histogram(catalogue::FEDERATION_RELAY_US),
            relay_events: registry.counter(catalogue::FEDERATION_RELAY_EVENTS),
            relay_answers: registry.counter(catalogue::FEDERATION_RELAY_ANSWERS),
            relay_stale_drops: registry.counter(catalogue::FEDERATION_RELAY_STALE_DROPS),
            relay_dedup_hits: registry.counter(catalogue::FEDERATION_RELAY_DEDUP_HITS),
            relay_unknown_app: registry.counter(catalogue::FEDERATION_RELAY_UNKNOWN_APP),
            relay_undecodable: registry.counter(catalogue::FEDERATION_RELAY_UNDECODABLE),
            retry_attempts: registry.counter(catalogue::FEDERATION_RETRY_ATTEMPTS),
            retry_parked: registry.counter(catalogue::FEDERATION_RETRY_PARKED),
            partial_answers: registry.counter(catalogue::FEDERATION_ANSWERS_PARTIAL),
            freshness_infeasible: registry.counter(catalogue::FEDERATION_FRESHNESS_INFEASIBLE),
            stream_events: registry.counter(catalogue::FEDERATION_STREAM_EVENTS),
            stream_answers: registry.counter(catalogue::FEDERATION_STREAM_ANSWERS),
            stream_pump_us: registry.histogram(catalogue::FEDERATION_STREAM_PUMP_US),
            migrate_inflight: registry.histogram(catalogue::RANGE_MIGRATE_INFLIGHT_US),
            e2e_latency: registry.histogram(catalogue::E2E_DELIVERY_LATENCY_US),
            registry,
        }
    }
}

/// The per-runtime instruments shared between a [`crate::runtime::RangeRuntime`]
/// coordinator handle and its worker thread. All handles alias the
/// server's own registry.
#[derive(Clone)]
pub(crate) struct RuntimeMetrics {
    pub(crate) mailbox_depth: Gauge,
    pub(crate) mailbox_highwater: Gauge,
    pub(crate) call_wait: Histogram,
    pub(crate) panics: Counter,
}

impl RuntimeMetrics {
    pub(crate) fn register(registry: &Registry) -> Self {
        RuntimeMetrics {
            mailbox_depth: registry.gauge(catalogue::RANGE_MAILBOX_DEPTH),
            mailbox_highwater: registry.gauge(catalogue::RANGE_MAILBOX_HIGHWATER),
            call_wait: registry.histogram(catalogue::RANGE_CALL_WAIT_US),
            panics: registry.counter(catalogue::RANGE_PANICS),
        }
    }

    /// Raises the high-water gauge to the current mailbox depth when it
    /// sets a new record. Racing the worker's decrement only ever
    /// under-reports by the in-flight command — fine for a watermark.
    #[inline]
    pub(crate) fn note_depth(&self) {
        let depth = self.mailbox_depth.get();
        if depth > self.mailbox_highwater.get() {
            self.mailbox_highwater.set(depth);
        }
    }
}

/// Microseconds elapsed since `start`, saturating at `u64::MAX`.
#[inline]
pub(crate) fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Folds the overlay's [`LoadStats`] into a snapshot under the `net.*`
/// names, so federation snapshots carry routing outcomes without a
/// parallel accounting mechanism.
pub(crate) fn fold_load_stats(stats: &LoadStats) -> TelemetrySnapshot {
    let reg = Registry::new();
    reg.counter(catalogue::NET_DELIVERED).add(stats.delivered());
    reg.counter(catalogue::NET_FAILED).add(stats.failed());
    reg.counter(catalogue::NET_RECOVERIES)
        .add(stats.recoveries());
    let hops = reg.histogram(catalogue::NET_HOPS);
    for &h in stats.hops() {
        hops.record(u64::from(h));
    }
    reg.snapshot()
}

/// Serialises a snapshot with the workspace XML conventions (the same
/// [`XmlWriter`] every document is written with). Histogram buckets are
/// written sparsely: only non-zero buckets appear, with the original
/// bucket count preserved in the `buckets` attribute.
pub fn snapshot_to_xml(snap: &TelemetrySnapshot) -> String {
    let named = |w: &mut XmlWriter<'_>, kind: &str, name: &str, value: &dyn fmt::Display| {
        w.element(kind, |w| {
            w.attr("name", name);
            w.attr("value", value);
        });
    };
    document(|w| {
        w.element("telemetry", |w| {
            for (name, v) in &snap.counters {
                named(w, "counter", name, v);
            }
            for (name, v) in &snap.gauges {
                named(w, "gauge", name, v);
            }
            for h in &snap.histograms {
                w.element("histogram", |w| {
                    w.attr("name", &h.name);
                    w.attr("count", h.count);
                    w.attr("sum", h.sum);
                    w.attr("buckets", h.buckets.len());
                    for (i, &n) in h.buckets.iter().enumerate().filter(|(_, &n)| n != 0) {
                        w.element("bucket", |w| {
                            w.attr("i", i);
                            w.attr("n", n);
                        });
                    }
                });
            }
        });
    })
}

/// Parses a snapshot serialised by [`snapshot_to_xml`].
///
/// # Errors
///
/// [`SciError::Codec`] for malformed documents.
pub fn snapshot_from_xml(xml: &str) -> SciResult<TelemetrySnapshot> {
    let doc = parse(xml)?;
    if doc.name != "telemetry" {
        return Err(SciError::Codec(format!(
            "expected <telemetry>, got <{}>",
            doc.name
        )));
    }
    let mut snap = TelemetrySnapshot::default();
    for el in doc.children_named("counter") {
        snap.counters.push((
            el.require_attr("name")?.to_owned(),
            parsed_attr(el, "value")?,
        ));
    }
    for el in doc.children_named("gauge") {
        snap.gauges.push((
            el.require_attr("name")?.to_owned(),
            parsed_attr(el, "value")?,
        ));
    }
    for el in doc.children_named("histogram") {
        // The length sizes an allocation and comes from the peer: no
        // histogram has more buckets than ours.
        let len: usize = parsed_attr(el, "buckets")?;
        if len > HISTOGRAM_BUCKETS {
            return Err(SciError::Codec(format!(
                "histogram of {len} buckets exceeds {HISTOGRAM_BUCKETS}"
            )));
        }
        let mut buckets = vec![0u64; len];
        for b in el.children_named("bucket") {
            let i: usize = parsed_attr(b, "i")?;
            let n: u64 = parsed_attr(b, "n")?;
            *buckets
                .get_mut(i)
                .ok_or_else(|| SciError::Codec(format!("bucket index {i} out of range")))? = n;
        }
        snap.histograms.push(HistogramSnapshot {
            name: el.require_attr("name")?.to_owned(),
            count: parsed_attr(el, "count")?,
            sum: parsed_attr(el, "sum")?,
            buckets,
        });
    }
    Ok(snap)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn command_instruments_cover_every_kind() {
        let m = CsMetrics::with_registry(Registry::new());
        assert_eq!(m.cmd_count.len(), RangeCommand::KINDS.len());
        m.record_command(0, 5);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("range.cmd.register.count"), 1);
        let h = snap.histogram("range.cmd.register.latency_us").unwrap();
        assert_eq!((h.count, h.sum), (1, 5));
    }

    #[test]
    fn snapshot_xml_round_trips() {
        let reg = Registry::new();
        reg.counter(catalogue::RANGE_APP_DELIVERIES).add(42);
        reg.gauge(catalogue::RANGE_MAILBOX_DEPTH).set(-3);
        for v in [0, 1, 7, 900, u64::MAX] {
            reg.histogram(catalogue::BUS_FANOUT).record(v);
        }
        let snap = reg.snapshot();
        let xml = snapshot_to_xml(&snap);
        let back = snapshot_from_xml(&xml).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn snapshot_xml_rejects_malformed_documents() {
        assert!(snapshot_from_xml("<notelemetry/>").is_err());
        assert!(snapshot_from_xml("<telemetry><counter value=\"1\"/></telemetry>").is_err());
        assert!(
            snapshot_from_xml("<telemetry><counter name=\"x\" value=\"nope\"/></telemetry>")
                .is_err()
        );
        let oob = "<telemetry><histogram name=\"h\" count=\"1\" sum=\"1\" buckets=\"2\">\
                   <bucket i=\"9\" n=\"1\"/></histogram></telemetry>";
        assert!(snapshot_from_xml(oob).is_err());
        // A length no histogram has: 2^60 overflowed the allocation's
        // capacity and panicked, 2^40 asked for 8 TB.
        for len in [1u64 << 60, 1 << 40] {
            let huge = format!(
                "<telemetry><histogram name=\"h\" count=\"1\" sum=\"1\" \
                 buckets=\"{len}\"/></telemetry>"
            );
            assert!(matches!(snapshot_from_xml(&huge), Err(SciError::Codec(_))));
        }
    }

    #[test]
    fn load_stats_fold_matches_counters() {
        let mut stats = LoadStats::new();
        stats.record_delivery(2);
        stats.record_delivery(4);
        stats.record_failure();
        stats.record_recovery();
        let snap = fold_load_stats(&stats);
        assert_eq!(snap.counter("net.delivered"), 2);
        assert_eq!(snap.counter("net.failed"), 1);
        assert_eq!(snap.counter("net.recoveries"), 1);
        let hops = snap.histogram("net.hops").unwrap();
        assert_eq!((hops.count, hops.sum), (2, 6));
    }
}
