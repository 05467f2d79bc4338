//! The original linear-scan subscription table, kept as a test oracle.
//!
//! [`LinearBus`] is the pre-index implementation of the deterministic
//! bus: a `Vec` of subscriptions scanned in full on every publish. It is
//! **not** used by the middleware — [`crate::bus::EventBus`] dispatches
//! through its topic index — but its behaviour defines the
//! semantics the index must reproduce. The property tests
//! (`crates/event/tests/prop_index.rs`) drive both buses through
//! arbitrary interleavings and require identical [`Delivery`] sequences.
//! It mints its ids through the bus's allocator, so both issue the same
//! ids, but keeps its own storage and finds an id by comparing it whole:
//! a slab slot that answered for a stale id would diverge from it.

use sci_types::{ContextEvent, Guid, SciError, SciResult};

use crate::bus::{Delivery, SubId, SubIds, SubscriptionView};
use crate::topic::Topic;

#[derive(Clone, Debug)]
struct SubEntry {
    id: SubId,
    subscriber: Guid,
    topic: Topic,
    one_time: bool,
}

/// The append-only, linearly scanned subscription table (oracle).
#[derive(Clone, Debug, Default)]
pub struct LinearBus {
    subs: Vec<SubEntry>,
    ids: SubIds,
}

impl LinearBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        LinearBus::default()
    }

    /// Registers a subscription and returns its id.
    pub fn subscribe(&mut self, subscriber: Guid, topic: Topic, one_time: bool) -> SubId {
        let id = self.ids.mint();
        self.subs.push(SubEntry {
            id,
            subscriber,
            topic,
            one_time,
        });
        id
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] if the id is not live.
    pub fn unsubscribe(&mut self, id: SubId) -> SciResult<()> {
        let pos = self
            .subs
            .iter()
            .position(|s| s.id == id)
            .ok_or(SciError::UnknownSubscription(id.serial()))?;
        self.subs.remove(pos);
        self.ids.free(id);
        Ok(())
    }

    /// Cancels all subscriptions held by a subscriber. Returns how many
    /// were removed.
    pub fn unsubscribe_all(&mut self, subscriber: Guid) -> usize {
        let before = self.subs.len();
        let ids = &mut self.ids;
        self.subs.retain(|s| {
            let keep = s.subscriber != subscriber;
            if !keep {
                ids.free(s.id);
            }
            keep
        });
        before - self.subs.len()
    }

    /// Matches an event against every live subscription, removing
    /// one-time subscriptions that fire. Deliveries are returned in
    /// subscription order.
    pub fn publish(&mut self, event: &ContextEvent) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        let ids = &mut self.ids;
        self.subs.retain(|entry| {
            if entry.topic.matches(event) {
                deliveries.push(Delivery {
                    sub: entry.id,
                    subscriber: entry.subscriber,
                    event: event.clone(),
                    last: entry.one_time,
                });
                if entry.one_time {
                    ids.free(entry.id);
                }
                !entry.one_time
            } else {
                true
            }
        });
        deliveries
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Returns `true` if there are no live subscriptions.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Returns `true` if the subscription id is live.
    pub fn is_live(&self, id: SubId) -> bool {
        self.subs.iter().any(|s| s.id == id)
    }

    /// Live subscriptions held by a subscriber.
    pub fn subscriptions_of(&self, subscriber: Guid) -> Vec<SubId> {
        self.subs
            .iter()
            .filter(|s| s.subscriber == subscriber)
            .map(|s| s.id)
            .collect()
    }

    /// The topic of a live subscription.
    pub fn topic_of(&self, id: SubId) -> Option<&Topic> {
        self.subs.iter().find(|s| s.id == id).map(|s| &s.topic)
    }

    /// Every live subscription, in subscription order.
    pub fn iter(&self) -> impl Iterator<Item = SubscriptionView<'_>> {
        self.subs.iter().map(|s| SubscriptionView {
            id: s.id,
            subscriber: s.subscriber,
            topic: &s.topic,
            one_time: s.one_time,
        })
    }
}
