//! Every metric name the benchmark prints, with its unit and which way
//! is better — the same list `../BENCHMARK.json` declares (a unit test
//! holds the two together). README.md says what each one means and
//! which end-to-end metric each layer metric should move.

/// `(name, unit, better, bound)`: what a user of the system sees. Every
/// workload reports every one of them; README.md says what each name
/// measures on each workload.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("throughput_kops_s", "kops/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("latency_typical_us", "us", "lower", 0.25),
    ("latency_tail_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, printed by the traced run. A
/// workload that does not exercise a layer prints 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    // Ladder (relay_wire_durable): marginal microseconds per event.
    ("ladder.server_us", "us", "lower"),
    ("ladder.runtime_us", "us", "lower"),
    ("ladder.relay_us", "us", "lower"),
    ("ladder.wire_us", "us", "lower"),
    ("ladder.wal_us", "us", "lower"),
    ("ladder.residual_pct", "%", "lower"),
    // Probes: median microseconds per public call.
    ("event.publish_us", "us", "lower"),
    ("event.subscribe_us", "us", "lower"),
    ("event.unsubscribe_us", "us", "lower"),
    ("core.server.ingest_us", "us", "lower"),
    ("core.resolver.submit_us", "us", "lower"),
    ("core.resolver.cancel_us", "us", "lower"),
    ("core.server.reregister_us", "us", "lower"),
    ("query.encode_us", "us", "lower"),
    ("query.decode_us", "us", "lower"),
    ("query.bytes", "B", "lower"),
    ("core.runtime.cast_us", "us", "lower"),
    ("core.runtime.call_us", "us", "lower"),
    ("overlay.codec.encode_us", "us", "lower"),
    ("overlay.codec.decode_us", "us", "lower"),
    ("overlay.codec.relay_bytes", "B", "lower"),
    ("overlay.sim.send_us", "us", "lower"),
    ("overlay.tcp.send_us", "us", "lower"),
    ("overlay.tcp.send_4k_us", "us", "lower"),
    ("core.durability.encode_us", "us", "lower"),
    ("core.durability.decode_us", "us", "lower"),
    ("core.durability.record_bytes", "B", "lower"),
    (
        "core.durability.ingest_nosnap_kevents_s",
        "kops/s",
        "higher",
    ),
    ("core.durability.snapshot_ms", "ms", "lower"),
    ("core.durability.snapshot_replayed", "count", "lower"),
    ("wal.frame_encode_us", "us", "lower"),
    ("wal.frame_decode_us", "us", "lower"),
    ("wal.append_never_us", "us", "lower"),
    ("wal.append_every32_us", "us", "lower"),
    ("wal.append_always_us", "us", "lower"),
    // Counts and shares of the traced run's measured phase.
    ("overlay.tcp.frames_per_delivery", "count", "lower"),
    ("overlay.tcp.bytes_per_delivery", "B", "lower"),
    ("wal.bytes_per_event", "B", "lower"),
    ("wal.fsyncs_per_kevent", "count", "lower"),
    ("event.publishes_per_event", "count", "lower"),
    ("event.fanout_mean", "count", "lower"),
    ("core.runtime.mailbox_highwater", "count", "lower"),
    ("core.runtime.ctx_switches_per_event", "count", "lower"),
    ("core.federation.retry_attempts", "count", "lower"),
    ("core.federation.dedup_hits", "count", "lower"),
    ("core.federation.stale_drops", "count", "lower"),
    ("core.server.busy_share", "ratio", "lower"),
    ("wal.busy_share", "ratio", "lower"),
    ("core.runtime.pump_share", "ratio", "lower"),
    ("core.runtime.wait_share", "ratio", "lower"),
    ("core.runtime.parallel_speedup", "ratio", "higher"),
    // Driver-side spans: each name's self time over all root-span time.
    ("span.driver_share", "ratio", "lower"),
    ("span.ingest_cast_share", "ratio", "lower"),
    ("span.pump_share", "ratio", "lower"),
    ("span.sync_share", "ratio", "lower"),
    ("span.drain_share", "ratio", "lower"),
    ("span.submit_share", "ratio", "lower"),
    ("span.cancel_share", "ratio", "lower"),
    ("span.reregister_share", "ratio", "lower"),
    ("span.append_apply_share", "ratio", "lower"),
    ("span.recover_share", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    // The untraced half-size pass of the traced run, for reference
    // beside the counts above (never compared with the end-to-end run).
    ("traced.throughput_kops_s", "kops/s", "higher"),
    ("traced.latency_typical_us", "us", "lower"),
    ("traced.latency_tail_us", "us", "lower"),
    ("traced.latency_p99_us", "us", "lower"),
    ("traced.wall_us_per_event", "us", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The declaration `{"name": "<name>", "unit": "<unit>", "better": "<better>"`.
    fn declared(name: &str, unit: &str, better: &str) -> String {
        format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!("{}, \"bound\": {bound}}}", declared(name, unit, better));
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!("{}}}", declared(name, unit, better));
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        let declared_names = BENCHMARK_JSON.matches("{\"name\": ").count();
        // Workloads are declared with a "name" too.
        assert_eq!(
            declared_names,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::NAMES.len()
        );
        for workload in crate::workloads::NAMES {
            assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
