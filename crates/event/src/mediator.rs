//! The Event Mediator.
//!
//! One of the paper's core Context Utilities: it "manages the
//! establishment, maintenance and removal of event subscriptions between
//! Context Entities and Context Aware Applications" (Section 3.1).
//! Beyond the raw [`EventBus`] table it adds publisher liveness
//! tracking — every registered publisher is expected to produce an event
//! (or heartbeat) within its declared interval, and
//! [`EventMediator::silent_publishers`] reports the ones that have gone
//! quiet. The adaptation manager in `sci-core` uses this to detect
//! failed Context Entities and trigger reconfiguration, the paper's
//! "adaptivity to environmental changes (e.g. component failure)".
//! Traffic counts live in the telemetry registry (`bus.*`, see
//! [`EventMediator::attach_telemetry`]), not in the mediator.

use std::time::Instant;

use sci_telemetry::{catalogue, Histogram, Registry};
use sci_types::{ContextEvent, Guid, HashMap, SciError, SciResult, VirtualDuration, VirtualTime};

use crate::bus::{Delivery, EventBus, SubId};
use crate::topic::Topic;

#[derive(Clone, Debug)]
struct PublisherState {
    last_seen: VirtualTime,
    max_silence: VirtualDuration,
}

/// Subscription lifecycle management plus liveness monitoring.
#[derive(Clone, Debug, Default)]
pub struct EventMediator {
    bus: EventBus,
    publishers: HashMap<Guid, PublisherState>,
    publish_latency: Option<Histogram>,
}

impl EventMediator {
    /// Creates an empty mediator.
    pub fn new() -> Self {
        EventMediator::default()
    }

    /// Establishes a subscription.
    pub fn subscribe(&mut self, subscriber: Guid, topic: Topic, one_time: bool) -> SubId {
        self.bus.subscribe(subscriber, topic, one_time)
    }

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] for stale ids.
    pub fn unsubscribe(&mut self, id: SubId) -> SciResult<()> {
        self.bus.unsubscribe(id)
    }

    /// Removes all subscriptions of a departing entity and stops
    /// tracking it as a publisher. Returns the number of subscriptions
    /// removed.
    pub fn purge_entity(&mut self, entity: Guid) -> usize {
        self.publishers.remove(&entity);
        self.bus.unsubscribe_all(entity)
    }

    /// Declares that `publisher` will produce events at least every
    /// `max_silence`; silence beyond that is reported as suspected
    /// failure.
    pub fn track_publisher(
        &mut self,
        publisher: Guid,
        max_silence: VirtualDuration,
        now: VirtualTime,
    ) {
        self.publishers.insert(
            publisher,
            PublisherState {
                last_seen: now,
                max_silence,
            },
        );
    }

    /// Stops liveness tracking for a publisher.
    pub fn untrack_publisher(&mut self, publisher: Guid) {
        self.publishers.remove(&publisher);
    }

    /// Starts recording telemetry into `registry`: the underlying bus's
    /// publish/deliver counters and fan-out distribution, plus
    /// `bus.publish.latency_us` — the publish→deliver match latency,
    /// measured here (rather than in [`EventBus`]) so the bare table
    /// stays clock-free on the hot path.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.bus.attach_telemetry(registry);
        self.publish_latency = Some(registry.histogram(catalogue::BUS_PUBLISH_LATENCY_US));
    }

    /// Publishes an event: matches subscriptions and advances the
    /// publisher's liveness stamp.
    pub fn publish(&mut self, event: &ContextEvent) -> Vec<Delivery> {
        if let Some(state) = self.publishers.get_mut(&event.source) {
            // Late or out-of-order events (an unsorted batch, a relayed
            // reading) must not make a live publisher look silent.
            state.last_seen = state.last_seen.max(event.timestamp);
        }
        #[expect(clippy::disallowed_methods, reason = "telemetry timing")]
        let start = self.publish_latency.as_ref().map(|_| Instant::now());
        let deliveries = self.bus.publish(event);
        if let (Some(h), Some(start)) = (&self.publish_latency, start) {
            h.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        deliveries
    }

    /// Records a heartbeat from a publisher without publishing an event.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownEntity`] if the publisher is not
    /// tracked.
    pub fn heartbeat(&mut self, publisher: Guid, now: VirtualTime) -> SciResult<()> {
        let state = self
            .publishers
            .get_mut(&publisher)
            .ok_or(SciError::UnknownEntity(publisher))?;
        state.last_seen = state.last_seen.max(now);
        Ok(())
    }

    /// Tracked publishers that have been silent longer than their
    /// declared interval, with the observed silence duration.
    pub fn silent_publishers(&self, now: VirtualTime) -> Vec<(Guid, VirtualDuration)> {
        let mut silent: Vec<(Guid, VirtualDuration)> = self
            .publishers
            .iter()
            .filter_map(|(&id, st)| {
                let silence = now.saturating_since(st.last_seen);
                (silence > st.max_silence).then_some((id, silence))
            })
            .collect();
        silent.sort_by_key(|&(id, _)| id);
        silent
    }

    /// The liveness table — `(publisher, last heard, declared window)`
    /// per tracked publisher, ascending GUID: what a range's snapshot
    /// carries so a restored range detects silence as the live one would.
    pub fn liveness(&self) -> Vec<(Guid, VirtualTime, VirtualDuration)> {
        let mut rows: Vec<_> = self
            .publishers
            .iter()
            .map(|(&id, st)| (id, st.last_seen, st.max_silence))
            .collect();
        rows.sort_by_key(|&(id, ..)| id);
        rows
    }

    /// Replaces the liveness table with `rows` (see
    /// [`EventMediator::liveness`]): exactly these publishers are
    /// tracked afterwards, each last heard when its row says.
    pub fn restore_liveness(&mut self, rows: Vec<(Guid, VirtualTime, VirtualDuration)>) {
        self.publishers = rows
            .into_iter()
            .map(|(id, last_seen, max_silence)| {
                let state = PublisherState {
                    last_seen,
                    max_silence,
                };
                (id, state)
            })
            .collect();
    }

    /// Read access to the underlying subscription table.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{ContextType, ContextValue};

    fn event_from(source: Guid, at: VirtualTime) -> ContextEvent {
        ContextEvent::new(source, ContextType::Presence, ContextValue::Empty, at)
    }

    #[test]
    fn publish_updates_liveness() {
        let mut m = EventMediator::new();
        let sensor = Guid::from_u128(1);
        let app = Guid::from_u128(2);
        m.track_publisher(sensor, VirtualDuration::from_secs(10), VirtualTime::ZERO);
        m.subscribe(app, Topic::any(), false);

        let d = m.publish(&event_from(sensor, VirtualTime::from_secs(5)));
        assert_eq!(d.len(), 1);
        assert!(m.silent_publishers(VirtualTime::from_secs(14)).is_empty());
        assert_eq!(
            m.silent_publishers(VirtualTime::from_secs(16)),
            vec![(sensor, VirtualDuration::from_secs(11))]
        );
    }

    #[test]
    fn heartbeat_defers_failure_suspicion() {
        let mut m = EventMediator::new();
        let sensor = Guid::from_u128(1);
        m.track_publisher(sensor, VirtualDuration::from_secs(10), VirtualTime::ZERO);
        m.heartbeat(sensor, VirtualTime::from_secs(30)).unwrap();
        assert!(m.silent_publishers(VirtualTime::from_secs(39)).is_empty());
        assert_eq!(m.silent_publishers(VirtualTime::from_secs(41)).len(), 1);
        assert!(m.heartbeat(Guid::from_u128(9), VirtualTime::ZERO).is_err());
    }

    #[test]
    fn liveness_never_runs_backwards() {
        let mut m = EventMediator::new();
        let sensor = Guid::from_u128(1);
        m.track_publisher(sensor, VirtualDuration::from_secs(10), VirtualTime::ZERO);
        m.heartbeat(sensor, VirtualTime::from_secs(30)).unwrap();
        // A reading stamped before the heartbeat arrives after it...
        m.publish(&event_from(sensor, VirtualTime::from_secs(5)));
        assert!(m.silent_publishers(VirtualTime::from_secs(39)).is_empty());
        // ...and so does a stale heartbeat.
        m.heartbeat(sensor, VirtualTime::from_secs(7)).unwrap();
        assert!(m.silent_publishers(VirtualTime::from_secs(39)).is_empty());
        assert_eq!(m.silent_publishers(VirtualTime::from_secs(41)).len(), 1);
    }

    #[test]
    fn purge_removes_subscriptions_and_tracking() {
        let mut m = EventMediator::new();
        let entity = Guid::from_u128(1);
        m.subscribe(entity, Topic::any(), false);
        m.subscribe(entity, Topic::of_type(ContextType::Path), false);
        m.track_publisher(entity, VirtualDuration::from_secs(1), VirtualTime::ZERO);
        assert_eq!(m.purge_entity(entity), 2);
        assert!(m.silent_publishers(VirtualTime::from_secs(100)).is_empty());
    }

    #[test]
    fn untracked_publisher_never_reported() {
        let mut m = EventMediator::new();
        let sensor = Guid::from_u128(1);
        m.publish(&event_from(sensor, VirtualTime::ZERO));
        assert!(m.silent_publishers(VirtualTime::MAX).is_empty());
    }

    #[test]
    fn silent_publishers_sorted_and_complete() {
        let mut m = EventMediator::new();
        for raw in [5u128, 1, 3] {
            m.track_publisher(
                Guid::from_u128(raw),
                VirtualDuration::from_secs(1),
                VirtualTime::ZERO,
            );
        }
        let silent = m.silent_publishers(VirtualTime::from_secs(10));
        let ids: Vec<u128> = silent.iter().map(|(g, _)| g.as_u128()).collect();
        assert_eq!(ids, [1, 3, 5]);
    }
}
