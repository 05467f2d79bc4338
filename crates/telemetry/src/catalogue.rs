//! The central metric catalogue.
//!
//! A [`Registry`](crate::Registry) registers an instrument only under a
//! [`Metric`], and a [`Metric`] can only be one of the constants below
//! or an instance of a [`METRIC_PATTERNS`] family minted by
//! [`Metric::command_count`] / [`Metric::command_latency`]: its field
//! is private to this crate, so an uncatalogued name does not compile
//! and dashboards and docs can trust this file as the complete
//! vocabulary. Keep the list sorted; the unit tests insist.

use std::borrow::Cow;

/// A catalogued metric name: the one name a [`Registry`](crate::Registry)
/// registers an instrument under.
///
/// ```
/// use sci_telemetry::{catalogue, Registry};
/// Registry::new().counter(catalogue::BUS_FANOUT).inc();
/// ```
///
/// A name that is not a catalogued constant is not a `Metric`:
///
/// ```compile_fail
/// use sci_telemetry::Registry;
/// Registry::new().counter("bus.fanout").inc();
/// ```
#[derive(Clone, Debug)]
pub struct Metric(pub(crate) Cow<'static, str>);

impl Metric {
    /// The `range.cmd.<kind>.count` counter of one command kind.
    pub fn command_count(kind: &str) -> Metric {
        Metric::family(format!("range.cmd.{kind}.count"))
    }

    /// The `range.cmd.<kind>.latency_us` histogram of one command kind.
    pub fn command_latency(kind: &str) -> Metric {
        Metric::family(format!("range.cmd.{kind}.latency_us"))
    }

    fn family(name: String) -> Metric {
        debug_assert!(contains(&name), "`{name}` is outside its family");
        Metric(Cow::Owned(name))
    }

    /// A name the telemetry crate's own unit tests register.
    #[cfg(test)]
    pub(crate) const fn test(name: &'static str) -> Metric {
        Metric(Cow::Borrowed(name))
    }
}

/// One documented [`Metric`] constant per name, plus [`METRICS`] and
/// [`ALL`] listing them in order.
macro_rules! catalogue {
    ($($name:ident = $value:literal,)*) => {
        $(
            #[doc = concat!("`", $value, "`; see `docs/observability.md`.")]
            pub const $name: Metric = Metric(Cow::Borrowed($value));
        )*

        /// Every statically-named metric the workspace registers.
        pub const METRICS: &[&str] = &[$($value),*];

        /// [`METRICS`] as [`Metric`]s.
        pub const ALL: &[Metric] = &[$($name),*];
    };
}

catalogue! {
    BUS_CANDIDATES_COUNT = "bus.candidates.count",
    BUS_DELIVER_COUNT = "bus.deliver.count",
    BUS_FANOUT = "bus.fanout",
    BUS_PUBLISH_COUNT = "bus.publish.count",
    BUS_PUBLISH_LATENCY_US = "bus.publish.latency_us",
    E2E_DELIVERY_LATENCY_US = "e2e.delivery_latency_us",
    FAULT_DELAYS = "fault.delays",
    FAULT_DROPS = "fault.drops",
    FAULT_DUPS = "fault.dups",
    FAULT_PARTITION_BLOCKS = "fault.partition_blocks",
    FAULT_REORDERS = "fault.reorders",
    FEDERATION_ANSWERS_PARTIAL = "federation.answers.partial",
    FEDERATION_BARRIER_US = "federation.barrier_us",
    FEDERATION_CAST_US = "federation.cast_us",
    FEDERATION_FRESHNESS_INFEASIBLE = "federation.freshness.infeasible",
    FEDERATION_RELAY_ANSWERS = "federation.relay.answers",
    FEDERATION_RELAY_DEDUP_HITS = "federation.relay.dedup_hits",
    FEDERATION_RELAY_EVENTS = "federation.relay.events",
    FEDERATION_RELAY_STALE_DROPS = "federation.relay.stale_drops",
    FEDERATION_RELAY_UNDECODABLE = "federation.relay.undecodable",
    FEDERATION_RELAY_UNKNOWN_APP = "federation.relay.unknown_app",
    FEDERATION_RELAY_US = "federation.relay_us",
    FEDERATION_RETRY_ATTEMPTS = "federation.retry.attempts",
    FEDERATION_RETRY_PARKED = "federation.retry.parked",
    FEDERATION_STREAM_ANSWERS = "federation.stream.answers",
    FEDERATION_STREAM_EVENTS = "federation.stream.events",
    FEDERATION_STREAM_PUMP_US = "federation.stream.pump_us",
    NET_DELIVERED = "net.delivered",
    NET_FAILED = "net.failed",
    NET_HOPS = "net.hops",
    NET_RECOVERIES = "net.recoveries",
    NET_TCP_ACCEPT_FAILURES = "net.tcp.accept_failures",
    NET_TCP_ACCEPTS = "net.tcp.accepts",
    NET_TCP_ACK_TIMEOUTS = "net.tcp.ack_timeouts",
    NET_TCP_BYTES_RECV = "net.tcp.bytes.recv",
    NET_TCP_BYTES_SENT = "net.tcp.bytes.sent",
    NET_TCP_CONNS = "net.tcp.conns",
    NET_TCP_CORRUPT_FRAMES = "net.tcp.corrupt_frames",
    NET_TCP_DIAL_FAILURES = "net.tcp.dial_failures",
    NET_TCP_FRAMES_RECV = "net.tcp.frames.recv",
    NET_TCP_FRAMES_SENT = "net.tcp.frames.sent",
    NET_TCP_HANDSHAKE_REJECTED = "net.tcp.handshake.rejected",
    NET_TCP_HANDSHAKES = "net.tcp.handshakes",
    NET_TCP_SYNC_APPLIED = "net.tcp.sync.applied",
    NET_TCP_UNKNOWN_PEER = "net.tcp.unknown_peer",
    NET_TCP_WRITE_FAILURES = "net.tcp.write_failures",
    RANGE_APP_DELIVERIES = "range.app.deliveries",
    RANGE_CALL_WAIT_US = "range.call.wait_us",
    RANGE_DEREGISTER_UNKNOWN = "range.deregister.unknown",
    RANGE_MAILBOX_DEPTH = "range.mailbox.depth",
    RANGE_MAILBOX_HIGHWATER = "range.mailbox.highwater",
    RANGE_MAILBOX_SHED = "range.mailbox.shed",
    RANGE_MIGRATE_IN = "range.migrate.in",
    RANGE_MIGRATE_INFLIGHT_US = "range.migrate.inflight_us",
    RANGE_MIGRATE_OUT = "range.migrate.out",
    RANGE_PANICS = "range.panics",
    RANGE_RESTART_REPLAY_ERRORS = "range.restart.replay_errors",
    RANGE_RESTARTS = "range.restarts",
    RANGE_SOURCE_FAILED = "range.source.failed",
    RANGE_STALE_DROPS = "range.stale_drops",
    RANGE_TRACE_KEY_REPEATS = "range.trace_key.repeats",
    RESOLVER_PLAN_COUNT = "resolver.plan.count",
    RESOLVER_PLAN_EDGES = "resolver.plan.edges",
    RESOLVER_PLAN_LATENCY_US = "resolver.plan.latency_us",
    RESOLVER_PLAN_NODES = "resolver.plan.nodes",
    RESOLVER_PLAN_REJECTED = "resolver.plan.rejected",
    WAL_APPEND_US = "wal.append_us",
    WAL_BYTES = "wal.bytes",
    WAL_FSYNC_US = "wal.fsync_us",
    WAL_RECOVER_READ_US = "wal.recover.read_us",
    WAL_RECOVER_REPLAY_US = "wal.recover.replay_us",
    WAL_RECOVER_RESTORE_US = "wal.recover.restore_us",
    WAL_RECOVER_US = "wal.recover_us",
    WAL_SEGMENTS = "wal.segments",
    WAL_SNAPSHOT_ENCODE_US = "wal.snapshot.encode_us",
    WAL_SNAPSHOT_US = "wal.snapshot_us",
    WAL_TORN_TAIL = "wal.torn_tail",
}

/// Metric families whose names are minted at runtime: `*` stands for
/// exactly one dot-free segment (the per-command telemetry derives one
/// counter/histogram pair per `RangeCommand::KINDS` entry).
pub const METRIC_PATTERNS: &[&str] = &["range.cmd.*.count", "range.cmd.*.latency_us"];

/// Whether `name` is in the catalogue, either verbatim or as an
/// instance of a pattern family.
pub fn contains(name: &str) -> bool {
    METRICS.binary_search(&name).is_ok() || METRIC_PATTERNS.iter().any(|p| matches(p, name))
}

/// Matches a single-`*` pattern against a name; `*` spans exactly one
/// dot-free segment.
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        Some((prefix, suffix)) => {
            let Some(middle) = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
            else {
                return false;
            };
            !middle.is_empty() && !middle.contains('.')
        }
        None => pattern == name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_and_distinct() {
        let mut sorted = METRICS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, METRICS, "keep METRICS sorted and duplicate-free");
    }

    #[test]
    fn contains_accepts_static_names_and_families() {
        assert!(contains("bus.publish.count"));
        assert!(contains("range.cmd.register.count"));
        assert!(contains("range.cmd.set-reuse.latency_us"));
        assert!(!contains("range.cmd..count"), "empty segment rejected");
        assert!(
            !contains("range.cmd.a.b.count"),
            "the wildcard spans one segment only"
        );
        assert!(!contains("made.up.metric"));
    }

    /// `docs/observability.md` is the one metric reference: every name
    /// and family catalogued here is spelled out there in full.
    #[test]
    fn the_reference_lists_every_name() {
        let reference = include_str!("../../../docs/observability.md");
        let missing: Vec<&str> = METRICS
            .iter()
            .chain(METRIC_PATTERNS)
            .copied()
            .filter(|name| !reference.contains(&format!("`{name}`")))
            .collect();
        assert!(
            missing.is_empty(),
            "docs/observability.md lacks {missing:?}"
        );
    }
}
