//! The bus's instrument bundle.
//!
//! [`crate::bus::EventBus`] sits on the Range hot path (E9 measures it
//! in the hundreds of nanoseconds), so its bundle is counters-only — no
//! clock reads. Publish→deliver *latency* is recorded one level up, by
//! [`crate::mediator::EventMediator`], where a publish already costs
//! enough that two `Instant::now` calls disappear into the noise.

use sci_telemetry::{catalogue, Counter, Histogram, Registry};

/// Counter-only bundle recorded by `EventBus::publish`.
#[derive(Clone, Debug)]
pub(crate) struct BusTelemetry {
    /// `bus.publish.count` — events offered to the subscription table.
    pub(crate) published: Counter,
    /// `bus.candidates.count` — subscriptions examined (full filter
    /// run); `bus.deliver.count` ÷ this is the index's useful-to-attempted
    /// ratio.
    pub(crate) candidates: Counter,
    /// `bus.deliver.count` — deliveries fanned out (sum of fan-outs).
    pub(crate) delivered: Counter,
    /// `bus.fanout` — fan-out size distribution, one sample per publish.
    pub(crate) fanout: Histogram,
}

impl BusTelemetry {
    pub(crate) fn register(registry: &Registry) -> Self {
        BusTelemetry {
            published: registry.counter(catalogue::BUS_PUBLISH_COUNT),
            candidates: registry.counter(catalogue::BUS_CANDIDATES_COUNT),
            delivered: registry.counter(catalogue::BUS_DELIVER_COUNT),
            fanout: registry.histogram(catalogue::BUS_FANOUT),
        }
    }

    #[inline]
    pub(crate) fn record_publish(&self, candidates: usize, fanout: usize) {
        self.published.inc();
        self.candidates.add(candidates as u64);
        self.delivered.add(fanout as u64);
        self.fanout.record(fanout as u64);
    }
}
