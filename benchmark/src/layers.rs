//! Per-layer counts and shares, read from outside: every number here
//! is a difference of two `snapshot()`s of the library's own telemetry
//! across the measured phase, divided by what the driver knows it did.
//! Counts repeat exactly for a seed; shares are time over wall time.

use sci_telemetry::TelemetrySnapshot;

use crate::report::Metric;

/// What a measured phase did and the telemetry on either side of it.
#[derive(Clone, Debug, Default)]
pub struct Activity {
    pub before: TelemetrySnapshot,
    pub after: TelemetrySnapshot,
    /// Sensor events ingested.
    pub events: u64,
    /// Application deliveries drained.
    pub deliveries: u64,
    pub wall_ns: u64,
    /// Context switches of all threads across the phase.
    pub ctx_switches: u64,
}

impl Activity {
    fn counter(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    /// `(samples, summed microseconds)` a histogram gained.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let of = |s: &TelemetrySnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (n0, sum0) = of(&self.before);
        let (n1, sum1) = of(&self.after);
        ((n1 - n0) as f64, (sum1 - sum0) as f64)
    }

    /// Microseconds the histograms named `<prefix>…<suffix>` gained.
    fn histograms_named(&self, prefix: &str, suffix: &str) -> f64 {
        self.after
            .histograms
            .iter()
            .filter(|h| h.name.starts_with(prefix) && h.name.ends_with(suffix))
            .map(|h| self.histogram(&h.name).1)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counts and shares of one measured phase. A layer the workload
/// does not exercise reads 0.
pub fn counts(a: &Activity) -> Vec<Metric> {
    let events = a.events as f64;
    let deliveries = a.deliveries as f64;
    let wall_us = a.wall_ns as f64 / 1e3;
    let publishes = a.counter("bus.publish.count");
    let (fsyncs, _) = a.histogram("wal.fsync_us");
    // `wal.fsync_us` re-records the appends that synced, so the WAL's
    // time is its appends plus its snapshots, not appends plus fsyncs.
    let wal_us = a.histogram("wal.append_us").1 + a.histogram("wal.snapshot_us").1;
    let wait_us = a.histogram("federation.barrier_us").1 + a.histogram("range.call.wait_us").1;
    let count = |name: &str, v: f64| Metric::new(name, v, "count", a.events);
    let share = |name: &str, us: f64| Metric::new(name, ratio(us, wall_us), "ratio", a.events);
    vec![
        count(
            "overlay.tcp.frames_per_delivery",
            ratio(a.counter("net.tcp.frames.sent"), deliveries),
        ),
        Metric::new(
            "overlay.tcp.bytes_per_delivery",
            ratio(a.counter("net.tcp.bytes.sent"), deliveries),
            "B",
            a.events,
        ),
        Metric::new(
            "wal.bytes_per_event",
            ratio(a.counter("wal.bytes"), events),
            "B",
            a.events,
        ),
        count("wal.fsyncs_per_kevent", ratio(fsyncs * 1e3, events)),
        count("event.publishes_per_event", ratio(publishes, events)),
        count(
            "event.fanout_mean",
            ratio(a.counter("bus.deliver.count"), publishes),
        ),
        count(
            "core.runtime.mailbox_highwater",
            a.after.gauge("range.mailbox.highwater") as f64,
        ),
        count(
            "core.runtime.ctx_switches_per_event",
            ratio(a.ctx_switches as f64, events),
        ),
        count(
            "core.federation.retry_attempts",
            a.counter("federation.retry.attempts"),
        ),
        count(
            "core.federation.dedup_hits",
            a.counter("federation.relay.dedup_hits"),
        ),
        count(
            "core.federation.stale_drops",
            a.counter("federation.relay.stale_drops"),
        ),
        share(
            "core.server.busy_share",
            a.histograms_named("range.cmd.", ".latency_us"),
        ),
        share("wal.busy_share", wal_us),
        share(
            "core.runtime.pump_share",
            a.histogram("federation.stream.pump_us").1,
        ),
        share("core.runtime.wait_share", wait_us),
    ]
}
