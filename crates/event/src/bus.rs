//! The deterministic subscription table.
//!
//! [`EventBus`] is pure: `publish` computes and returns the deliveries an
//! event implies instead of performing I/O, so the middleware built on
//! top of it is exactly replayable. Dispatch runs through
//! [`crate::index::TopicIndex`], so publish cost scales with the number
//! of *matching* subscriptions rather than the number of live ones; the
//! original linear table survives as [`crate::linear::LinearBus`], the
//! oracle the index is property-tested against. The threaded runtime in
//! [`crate::rt`] wraps the same index with channels.

use std::fmt;

use sci_telemetry::Registry;
use sci_types::{ContextEvent, Guid, SciResult};

use crate::index::TopicIndex;
use crate::telemetry::BusTelemetry;
use crate::topic::Topic;

/// Identifier of a subscription issued by a bus.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubId(pub u64);

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// One delivery implied by a publish: which subscription fired, who
/// receives the event, and whether this was the subscription's last
/// delivery (one-time subscriptions auto-cancel).
#[derive(Clone, PartialEq, Debug)]
pub struct Delivery {
    /// The subscription that matched.
    pub sub: SubId,
    /// The subscribing entity.
    pub subscriber: Guid,
    /// The event being delivered (the payload is `Arc`-shared, so this
    /// clone is cheap regardless of record size).
    pub event: ContextEvent,
    /// `true` if the subscription was one-time and is now cancelled.
    pub last: bool,
}

/// A deterministic pub/sub subscription table.
///
/// # Example
///
/// ```
/// use sci_event::{EventBus, Topic};
/// use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};
///
/// let mut bus = EventBus::new();
/// let app = Guid::from_u128(1);
/// let sub = bus.subscribe(app, Topic::of_type(ContextType::Temperature), false);
/// let ev = ContextEvent::new(
///     Guid::from_u128(2), ContextType::Temperature,
///     ContextValue::Float(21.0), VirtualTime::ZERO,
/// );
/// let deliveries = bus.publish(&ev);
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].subscriber, app);
/// assert_eq!(deliveries[0].sub, sub);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventBus {
    index: TopicIndex<()>,
    telemetry: Option<BusTelemetry>,
}

impl EventBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Starts recording publish/deliver counters and the fan-out
    /// distribution into `registry` (`bus.publish.count`,
    /// `bus.candidates.count`, `bus.deliver.count`, `bus.fanout`).
    /// Deliberately counters-only: this bus is the E9 hot path, so no
    /// clocks are read here — publish latency is measured by the callers
    /// that wrap it.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(BusTelemetry::register(registry));
    }

    /// Registers a subscription and returns its id.
    ///
    /// `one_time` subscriptions are cancelled automatically after their
    /// first delivery — the paper's "one-time subscription" query mode.
    pub fn subscribe(&mut self, subscriber: Guid, topic: Topic, one_time: bool) -> SubId {
        self.index.subscribe(subscriber, topic, one_time, ())
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`sci_types::SciError::UnknownSubscription`] if the id is
    /// not live.
    pub fn unsubscribe(&mut self, id: SubId) -> SciResult<()> {
        self.index.unsubscribe(id)
    }

    /// Cancels all subscriptions held by a subscriber (used when an
    /// entity deregisters from the range). Returns how many were removed.
    pub fn unsubscribe_all(&mut self, subscriber: Guid) -> usize {
        self.index.unsubscribe_all(subscriber)
    }

    /// Matches an event against the live subscriptions it can reach,
    /// removing one-time subscriptions that fire. Deliveries are returned
    /// in subscription order.
    pub fn publish(&mut self, event: &ContextEvent) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        let outcome = self.index.publish_with(event, |view| {
            deliveries.push(Delivery {
                sub: view.id,
                subscriber: view.subscriber,
                event: event.clone(),
                last: view.last,
            });
            true
        });
        if let Some(t) = &self.telemetry {
            t.record_publish(&outcome);
        }
        deliveries
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if there are no live subscriptions.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns `true` if the subscription id is live.
    pub fn is_live(&self, id: SubId) -> bool {
        self.index.is_live(id)
    }

    /// Live subscriptions held by a subscriber.
    pub fn subscriptions_of(&self, subscriber: Guid) -> Vec<SubId> {
        self.index.subscriptions_of(subscriber)
    }

    /// The topic of a live subscription.
    pub fn topic_of(&self, id: SubId) -> Option<&Topic> {
        self.index.topic_of(id)
    }

    /// Iterates over every live subscription, in subscription order.
    /// Static fleet analysis walks this to compare the actual wiring
    /// against what analyzed plans require.
    pub fn iter(&self) -> impl Iterator<Item = SubscriptionView<'_>> {
        self.index.iter().map(|v| SubscriptionView {
            id: v.id,
            subscriber: v.subscriber,
            topic: v.topic,
            one_time: v.last,
        })
    }
}

/// A read-only view of one live subscription (see [`EventBus::iter`]).
#[derive(Clone, Copy, Debug)]
pub struct SubscriptionView<'a> {
    /// The subscription's id.
    pub id: SubId,
    /// The subscribing entity.
    pub subscriber: Guid,
    /// The event filter.
    pub topic: &'a Topic,
    /// Whether the subscription cancels after its first delivery.
    pub one_time: bool,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{ContextType, ContextValue, SciError, VirtualTime};

    fn temp_event(value: f64) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(99),
            ContextType::Temperature,
            ContextValue::Float(value),
            VirtualTime::ZERO,
        )
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let mut bus = EventBus::new();
        let (a, b, c) = (Guid::from_u128(1), Guid::from_u128(2), Guid::from_u128(3));
        bus.subscribe(a, Topic::of_type(ContextType::Temperature), false);
        bus.subscribe(b, Topic::any(), false);
        bus.subscribe(c, Topic::of_type(ContextType::Presence), false);
        let deliveries = bus.publish(&temp_event(20.0));
        let receivers: Vec<Guid> = deliveries.iter().map(|d| d.subscriber).collect();
        assert_eq!(receivers, [a, b]);
    }

    #[test]
    fn one_time_subscription_cancels_after_first_delivery() {
        let mut bus = EventBus::new();
        let app = Guid::from_u128(1);
        let sub = bus.subscribe(app, Topic::any(), true);
        let first = bus.publish(&temp_event(1.0));
        assert_eq!(first.len(), 1);
        assert!(first[0].last);
        assert!(!bus.is_live(sub));
        assert!(bus.publish(&temp_event(2.0)).is_empty());
    }

    #[test]
    fn continuous_subscription_keeps_delivering() {
        let mut bus = EventBus::new();
        let sub = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        for i in 0..5 {
            let d = bus.publish(&temp_event(i as f64));
            assert_eq!(d.len(), 1);
            assert!(!d[0].last);
        }
        assert!(bus.is_live(sub));
    }

    #[test]
    fn unsubscribe_lifecycle() {
        let mut bus = EventBus::new();
        let sub = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        assert!(bus.unsubscribe(sub).is_ok());
        assert!(matches!(
            bus.unsubscribe(sub),
            Err(SciError::UnknownSubscription(_))
        ));
        assert!(bus.publish(&temp_event(0.0)).is_empty());
    }

    #[test]
    fn unsubscribe_all_for_departing_entity() {
        let mut bus = EventBus::new();
        let leaving = Guid::from_u128(1);
        let staying = Guid::from_u128(2);
        bus.subscribe(leaving, Topic::any(), false);
        bus.subscribe(leaving, Topic::of_type(ContextType::Presence), false);
        bus.subscribe(staying, Topic::any(), false);
        assert_eq!(bus.unsubscribe_all(leaving), 2);
        assert_eq!(bus.len(), 1);
        assert_eq!(bus.subscriptions_of(staying).len(), 1);
        assert!(bus.subscriptions_of(leaving).is_empty());
    }

    #[test]
    fn subscription_ids_are_unique_across_removal() {
        let mut bus = EventBus::new();
        let a = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        bus.unsubscribe(a).unwrap();
        let b = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        assert_ne!(a, b);
    }

    #[test]
    fn telemetry_counters_track_publishes() {
        let mut bus = EventBus::new();
        let reg = sci_telemetry::Registry::new();
        bus.attach_telemetry(&reg);
        bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        bus.subscribe(Guid::from_u128(2), Topic::any(), false);
        bus.publish(&temp_event(1.0));
        bus.publish(&temp_event(2.0));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("bus.publish.count"), 2);
        assert_eq!(snap.counter("bus.deliver.count"), 4);
        let fanout = snap.histogram("bus.fanout").unwrap();
        assert_eq!((fanout.count, fanout.sum), (2, 4));
    }

    #[test]
    fn interleaved_topic_shapes_deliver_in_subscription_order() {
        // A mixed table — source-keyed, subject-keyed, type-keyed and
        // wildcard subscriptions interleaved — must still fan out in
        // subscription order, exactly like the linear oracle.
        let mut bus = EventBus::new();
        let mut oracle = crate::linear::LinearBus::new();
        let source = Guid::from_u128(50);
        let bob = Guid::from_u128(0xb0b);
        let topics = [
            Topic::any(),
            Topic::of_type(ContextType::Presence),
            Topic::from_source(source),
            Topic::any().about(bob),
            Topic::of_type(ContextType::Presence)
                .from(source)
                .about(bob),
            Topic::of_type(ContextType::Temperature),
        ];
        for (i, t) in topics.iter().enumerate() {
            bus.subscribe(Guid::from_u128(i as u128), t.clone(), i % 2 == 0);
            oracle.subscribe(Guid::from_u128(i as u128), t.clone(), i % 2 == 0);
        }
        let ev = ContextEvent::new(
            source,
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(bob))]),
            VirtualTime::from_secs(3),
        );
        for _ in 0..3 {
            assert_eq!(bus.publish(&ev), oracle.publish(&ev));
            assert_eq!(bus.len(), oracle.len());
        }
    }
}
