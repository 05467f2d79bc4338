//! The central metric catalogue.
//!
//! Every metric name an SCI crate registers at a
//! [`Registry`](crate::Registry) must appear here — either verbatim in
//! [`METRICS`] or as an instance of a [`METRIC_PATTERNS`] family. The
//! `sci-lint` binary (SCI-A302) walks workspace sources and rejects
//! any `counter(...)`/`gauge(...)`/`histogram(...)` call whose literal
//! name is missing, so dashboards and docs can trust this file as the
//! complete vocabulary. Keep the lists sorted; the unit tests insist.

/// Every statically-named metric the workspace registers.
pub const METRICS: &[&str] = &[
    "bus.candidates.count",
    "bus.deliver.count",
    "bus.fanout",
    "bus.publish.count",
    "bus.publish.latency_us",
    "fault.delays",
    "fault.drops",
    "fault.dups",
    "fault.partition_blocks",
    "fault.reorders",
    "federation.answers.partial",
    "federation.barrier_us",
    "federation.cast_us",
    "federation.freshness.infeasible",
    "federation.relay.answers",
    "federation.relay.dedup_hits",
    "federation.relay.events",
    "federation.relay.stale_drops",
    "federation.relay.undecodable",
    "federation.relay.unknown_app",
    "federation.relay_us",
    "federation.retry.attempts",
    "federation.retry.parked",
    "federation.stream.answers",
    "federation.stream.events",
    "federation.stream.pump_us",
    "net.delivered",
    "net.failed",
    "net.hops",
    "net.recoveries",
    "net.tcp.accept_failures",
    "net.tcp.accepts",
    "net.tcp.ack_timeouts",
    "net.tcp.bytes.recv",
    "net.tcp.bytes.sent",
    "net.tcp.conns",
    "net.tcp.corrupt_frames",
    "net.tcp.dial_failures",
    "net.tcp.frames.recv",
    "net.tcp.frames.sent",
    "net.tcp.handshake.rejected",
    "net.tcp.handshakes",
    "net.tcp.sync.applied",
    "net.tcp.sync.rounds",
    "net.tcp.unknown_peer",
    "net.tcp.write_failures",
    "range.app.deliveries",
    "range.call.wait_us",
    "range.deregister.unknown",
    "range.mailbox.depth",
    "range.mailbox.highwater",
    "range.mailbox.shed",
    "range.migrate.in",
    "range.migrate.inflight_us",
    "range.migrate.out",
    "range.panics",
    "range.restart.replay_errors",
    "range.restarts",
    "range.source.failed",
    "range.stale_drops",
    "resolver.plan.count",
    "resolver.plan.edges",
    "resolver.plan.latency_us",
    "resolver.plan.nodes",
    "resolver.plan.rejected",
    "wal.append_us",
    "wal.bytes",
    "wal.fsync_us",
    "wal.recover.read_us",
    "wal.recover.replay_us",
    "wal.recover.restore_us",
    "wal.recover_us",
    "wal.segments",
    "wal.snapshot.encode_us",
    "wal.snapshot_us",
    "wal.torn_tail",
];

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
