//! The deterministic subscription table.
//!
//! [`EventBus`] is pure: `publish` computes and returns the deliveries an
//! event implies instead of performing I/O, so the middleware built on
//! top of it is exactly replayable — on the caller's thread or on a
//! range worker's (`sci-core`'s `RangeRuntime` ships commands to one
//! bus over a [`crate::rt::mailbox`]; it never runs a second bus).
//!
//! # The topic index
//!
//! A publish does not scan every subscription. The bus keeps candidate
//! sets keyed by the things a [`Topic`] can constrain: context
//! type, source GUID and subject GUID, plus a wildcard list for
//! unconstrained subscriptions. Each subscription is indexed under
//! **exactly one** key — the most selective constraint it carries:
//! the `(source, subject)` pair when it names both, then source alone,
//! then subject alone, then type, then wildcard. A publish gathers the
//! union of at most five disjoint candidate families, sorts the
//! candidates by [`SubId`] and verifies the full topic filter on each,
//! so its cost scales with the number of *matching* subscriptions
//! rather than the number of live ones. The original linear table
//! survives as [`crate::linear::LinearBus`], the oracle the index is
//! property-tested against.
//!
//! The pair family exists because composition produces it: one
//! `objLocationCE` instance per followed person is wired to *every*
//! door sensor (paper §3.2, Figure 3), so a Range holds many topics
//! sharing one source and differing only by subject. Filed under the
//! source alone, every badge read would examine all of them to find the
//! one or two that match. The family is instead one map keyed by the
//! `(source, subject)` pair, so a publish reads one list with one
//! lookup.
//!
//! # Hash-indexed
//!
//! Every table here — the live entries by [`SubId`], the candidate
//! families and the per-subscriber lists — is a [`sci_types::HashMap`]
//! over the library's one fixed-seed hasher, so a publish pays one
//! lookup per family and one per candidate, each two multiplies for a
//! GUID key. No order is read from a map: candidates are sorted by id,
//! the lists are kept in id order, and [`EventBus::iter`] sorts the
//! entries by id.
//!
//! # Invariants
//!
//! * **Order preservation.** `SubId`s are allocated monotonically and
//!   the per-key candidate lists are append-only (removals keep relative
//!   order), so sorting candidates by id reproduces exactly the delivery
//!   order of the append-only linear table
//!   ([`crate::linear::LinearBus`]): subscription order. The determinism
//!   suite depends on this.
//! * **Single-key membership.** A live subscription appears in exactly one
//!   candidate family; the union needs no deduplication.
//! * **One-time cancellation.** A one-time subscription is removed
//!   immediately after its first delivery, before `publish`
//!   returns — identical to the linear bus.

use std::fmt;
use std::hash::Hash;

use sci_telemetry::Registry;
use sci_types::{ContextEvent, ContextType, Guid, HashMap, SciError, SciResult};

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

/// The single key a subscription is filed under, chosen by selectivity:
/// the `(source, subject)` pair beats source beats subject beats type
/// beats wildcard.
///
/// A function of the topic alone, so entries do not store it: it is
/// derived again when a subscription is unlinked.
#[derive(PartialEq, Eq, Debug)]
enum IndexKey<'a> {
    Pair(Guid, Guid),
    Source(Guid),
    Subject(Guid),
    Type(&'a ContextType),
    Wildcard,
}

impl IndexKey<'_> {
    fn for_topic(topic: &Topic) -> IndexKey<'_> {
        match (topic.source(), topic.subject(), topic.ty()) {
            (Some(source), Some(subject), _) => IndexKey::Pair(source, subject),
            (Some(source), None, _) => IndexKey::Source(source),
            (None, Some(subject), _) => IndexKey::Subject(subject),
            (None, None, Some(ty)) => IndexKey::Type(ty),
            (None, None, None) => IndexKey::Wildcard,
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    subscriber: Guid,
    topic: Topic,
    one_time: bool,
}

impl Entry {
    fn view(&self, id: SubId) -> SubscriptionView<'_> {
        SubscriptionView {
            id,
            subscriber: self.subscriber,
            topic: &self.topic,
            one_time: self.one_time,
        }
    }
}

/// A deterministic, indexed pub/sub subscription table.
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
    /// All live entries by id: one lookup per candidate, and for
    /// `unsubscribe`/`is_live`/`topic_of`. Boxed, a bucket is 16 bytes
    /// rather than an entry's 144: a hash table leaves up to half its
    /// buckets empty and grows beside its old allocation, which for
    /// inline entries raised the churn workload's peak memory 10 %.
    entries: HashMap<SubId, Box<Entry>>,
    /// Candidate families, keyed by entity GUID (and by type for the
    /// type family).
    by_type: HashMap<ContextType, Vec<SubId>>,
    by_source: HashMap<Guid, Vec<SubId>>,
    by_subject: HashMap<Guid, Vec<SubId>>,
    /// Topics naming both a source and a subject, keyed by the pair.
    by_pair: HashMap<(Guid, Guid), Vec<SubId>>,
    wildcard: Vec<SubId>,
    by_subscriber: HashMap<Guid, Vec<SubId>>,
    next_id: u64,
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
        let id = SubId(self.next_id);
        self.next_id += 1;
        match IndexKey::for_topic(&topic) {
            IndexKey::Pair(source, subject) => {
                self.by_pair.entry((source, subject)).or_default().push(id)
            }
            IndexKey::Source(source) => self.by_source.entry(source).or_default().push(id),
            IndexKey::Subject(subject) => self.by_subject.entry(subject).or_default().push(id),
            IndexKey::Type(ty) => self.by_type.entry(ty.clone()).or_default().push(id),
            IndexKey::Wildcard => self.wildcard.push(id),
        }
        self.by_subscriber.entry(subscriber).or_default().push(id);
        self.entries.insert(
            id,
            Box::new(Entry {
                subscriber,
                topic,
                one_time,
            }),
        );
        id
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] if the id is not live.
    pub fn unsubscribe(&mut self, id: SubId) -> SciResult<()> {
        if self.remove(id) {
            Ok(())
        } else {
            Err(SciError::UnknownSubscription(id.0))
        }
    }

    /// Cancels all subscriptions held by a subscriber (used when an
    /// entity deregisters from the range). Returns how many were removed.
    pub fn unsubscribe_all(&mut self, subscriber: Guid) -> usize {
        let ids = self.by_subscriber.remove(&subscriber).unwrap_or_default();
        for id in &ids {
            if let Some(entry) = self.entries.remove(id) {
                self.unlink_key(*id, IndexKey::for_topic(&entry.topic));
            }
        }
        ids.len()
    }

    /// Collects the candidate ids for an event — the union of the
    /// wildcard list, the lists keyed by the event's type, source and
    /// (when present) subject, and the `(source, subject)` pair's list —
    /// sorted into subscription order.
    fn candidates(&self, event: &ContextEvent, subject: Option<Guid>) -> Vec<SubId> {
        let mut out = Vec::with_capacity(
            self.wildcard.len()
                + self.by_type.get(&event.topic).map_or(0, Vec::len)
                + self.by_source.get(&event.source).map_or(0, Vec::len),
        );
        out.extend_from_slice(&self.wildcard);
        if let Some(ids) = self.by_type.get(&event.topic) {
            out.extend_from_slice(ids);
        }
        if let Some(ids) = self.by_source.get(&event.source) {
            out.extend_from_slice(ids);
        }
        if let Some(subject) = subject {
            if let Some(ids) = self.by_subject.get(&subject) {
                out.extend_from_slice(ids);
            }
            if let Some(ids) = self.by_pair.get(&(event.source, subject)) {
                out.extend_from_slice(ids);
            }
        }
        // Single-key membership makes the families disjoint; sorting by
        // id restores subscription order without deduplication.
        out.sort_unstable();
        out
    }

    /// Matches an event against the live subscriptions it can reach,
    /// removing one-time subscriptions that fire. Deliveries are returned
    /// in subscription order.
    pub fn publish(&mut self, event: &ContextEvent) -> Vec<Delivery> {
        // The payload is walked for its subject once per publish, not
        // once per candidate.
        let subject = event.subject();
        let candidates = self.candidates(event, subject);
        let mut deliveries = Vec::new();
        for &id in &candidates {
            let Some(entry) = self.entries.get(&id) else {
                continue;
            };
            if entry.topic.matches_with_subject(event, subject) {
                deliveries.push(Delivery {
                    sub: id,
                    subscriber: entry.subscriber,
                    event: event.clone(),
                    last: entry.one_time,
                });
            }
        }
        for done in deliveries.iter().filter(|d| d.last) {
            self.remove(done.sub);
        }
        if let Some(t) = &self.telemetry {
            t.record_publish(candidates.len(), deliveries.len());
        }
        deliveries
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no live subscriptions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if the subscription id is live.
    pub fn is_live(&self, id: SubId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Live subscriptions held by a subscriber, in subscription order.
    pub fn subscriptions_of(&self, subscriber: Guid) -> Vec<SubId> {
        self.by_subscriber
            .get(&subscriber)
            .cloned()
            .unwrap_or_default()
    }

    /// The topic of a live subscription.
    pub fn topic_of(&self, id: SubId) -> Option<&Topic> {
        self.entries.get(&id).map(|e| &e.topic)
    }

    /// Iterates over every live subscription, in subscription order.
    /// Static fleet analysis walks this to compare the actual wiring
    /// against what analyzed plans require; the entries are sorted by
    /// id first, since the table is hash-indexed.
    pub fn iter(&self) -> impl Iterator<Item = SubscriptionView<'_>> {
        let mut live: Vec<_> = self.entries.iter().collect();
        live.sort_unstable_by_key(|(&id, _)| id);
        live.into_iter().map(|(&id, e)| e.view(id))
    }

    /// The live subscriptions whose topic names `source` and exactly
    /// `subject` (`None`: about no one), in subscription order — one
    /// read of the candidate list they are filed under (the
    /// `(source, subject)` pair's, or the source's), so adaptation finds
    /// a consumer's subscriptions to one source without reading every
    /// subscription the consumer holds.
    pub fn naming(
        &self,
        source: Guid,
        subject: Option<Guid>,
    ) -> impl Iterator<Item = SubscriptionView<'_>> {
        let ids = match subject {
            Some(subject) => self.by_pair.get(&(source, subject)),
            None => self.by_source.get(&source),
        };
        let named = ids.into_iter().flatten();
        named.filter_map(|id| Some(self.entries.get(id)?.view(*id)))
    }

    /// Unfiles a live subscription; `false` if `id` was not live.
    fn remove(&mut self, id: SubId) -> bool {
        let Some(entry) = self.entries.remove(&id) else {
            return false;
        };
        self.unlink_key(id, IndexKey::for_topic(&entry.topic));
        drop_from(&mut self.by_subscriber, &entry.subscriber, id);
        true
    }

    /// Removes `id` from the one candidate list its key names, dropping
    /// the list it empties.
    fn unlink_key(&mut self, id: SubId, key: IndexKey<'_>) {
        match key {
            IndexKey::Pair(source, subject) => drop_from(&mut self.by_pair, &(source, subject), id),
            IndexKey::Source(source) => drop_from(&mut self.by_source, &source, id),
            IndexKey::Subject(subject) => drop_from(&mut self.by_subject, &subject, id),
            IndexKey::Type(ty) => drop_from(&mut self.by_type, ty, id),
            IndexKey::Wildcard => {
                drop_id(&mut self.wildcard, id);
            }
        }
    }
}

/// Removes `id` from a candidate list; returns `true` if that emptied
/// it. The lists are append-only in id order, so a binary search finds
/// the slot.
fn drop_id(ids: &mut Vec<SubId>, id: SubId) -> bool {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
    ids.is_empty()
}

/// Removes `id` from the list filed under `key`, and the list with it
/// if that was its last.
fn drop_from<K: Hash + Eq>(lists: &mut HashMap<K, Vec<SubId>>, key: &K, id: SubId) {
    if lists.get_mut(key).is_some_and(|ids| drop_id(ids, id)) {
        lists.remove(key);
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
    use sci_types::{ContextValue, VirtualTime};

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

    fn presence(source: u128, subject: u128) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(source),
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(subject)))]),
            VirtualTime::ZERO,
        )
    }

    /// Subscriptions examined (full filter run) for `ev`.
    fn examined(bus: &EventBus, ev: &ContextEvent) -> usize {
        bus.candidates(ev, ev.subject()).len()
    }

    fn fired(bus: &mut EventBus, ev: &ContextEvent) -> Vec<SubId> {
        bus.publish(ev).iter().map(|d| d.sub).collect()
    }

    #[test]
    fn single_key_selection_by_selectivity() {
        let (door, bob) = (Guid::from_u128(7), Guid::from_u128(8));
        assert_eq!(
            IndexKey::for_topic(&Topic::of_type(ContextType::Presence).from(door).about(bob)),
            IndexKey::Pair(door, bob)
        );
        assert_eq!(
            IndexKey::for_topic(&Topic::of_type(ContextType::Presence).from(door)),
            IndexKey::Source(door)
        );
        assert_eq!(
            IndexKey::for_topic(&Topic::of_type(ContextType::Presence).about(bob)),
            IndexKey::Subject(bob)
        );
        assert_eq!(
            IndexKey::for_topic(&Topic::of_type(ContextType::Presence)),
            IndexKey::Type(&ContextType::Presence)
        );
        assert_eq!(IndexKey::for_topic(&Topic::any()), IndexKey::Wildcard);
    }

    #[test]
    fn candidates_cover_every_key_family_in_subscription_order() {
        let mut bus = EventBus::new();
        let app = Guid::from_u128(1);
        let (door, bob) = (Guid::from_u128(10), Guid::from_u128(20));
        let s_pair = bus.subscribe(app, Topic::from_source(door).about(bob), false);
        let s_wild = bus.subscribe(app, Topic::any(), false);
        let s_type = bus.subscribe(app, Topic::of_type(ContextType::Presence), false);
        let s_src = bus.subscribe(app, Topic::from_source(door), false);
        let s_subj = bus.subscribe(app, Topic::any().about(bob), false);
        let _miss = bus.subscribe(app, Topic::of_type(ContextType::Temperature), false);
        let s_pair2 = bus.subscribe(app, Topic::from_source(door).about(bob), false);
        let order = fired(&mut bus, &presence(10, 20));
        assert_eq!(order, [s_pair, s_wild, s_type, s_src, s_subj, s_pair2]);
    }

    #[test]
    fn publish_examines_only_the_pairs_naming_the_events_subject() {
        // The Figure-3 shape: one topic per followed person on one door.
        let mut bus = EventBus::new();
        let door = Guid::from_u128(10);
        let subs: Vec<SubId> = (0..500u128)
            .map(|p| {
                let topic = Topic::of_type(ContextType::Presence)
                    .from(door)
                    .about(Guid::from_u128(1000 + p));
                bus.subscribe(Guid::from_u128(5000 + p), topic, false)
            })
            .collect();
        let watcher = bus.subscribe(Guid::from_u128(2), Topic::from_source(door), false);
        assert_eq!(examined(&bus, &presence(10, 1007)), 2);
        assert_eq!(fired(&mut bus, &presence(10, 1007)), [subs[7], watcher]);
        // Another door, or a subject nobody follows: the pairs are not touched.
        assert_eq!(examined(&bus, &presence(11, 1007)), 0);
        assert_eq!(examined(&bus, &presence(10, 9)), 1);
    }

    #[test]
    fn full_filter_still_verified_on_candidates() {
        let mut bus = EventBus::new();
        // Filed under (source, subject), but also constrains the type.
        let picky = bus.subscribe(
            Guid::from_u128(1),
            Topic::of_type(ContextType::Temperature)
                .from(Guid::from_u128(10))
                .about(Guid::from_u128(99)),
            false,
        );
        assert_eq!(examined(&bus, &presence(10, 99)), 1);
        assert!(fired(&mut bus, &presence(10, 99)).is_empty());
        assert!(fired(&mut bus, &presence(10, 20)).is_empty());
        let mut hot = presence(10, 99);
        hot.topic = ContextType::Temperature;
        assert_eq!(fired(&mut bus, &hot), [picky]);
    }

    #[test]
    fn unsubscribe_cleans_candidate_lists() {
        let mut bus = EventBus::new();
        let app = Guid::from_u128(1);
        let a = bus.subscribe(app, Topic::of_type(ContextType::Presence), false);
        let b = bus.subscribe(app, Topic::of_type(ContextType::Presence), false);
        bus.unsubscribe(a).unwrap();
        assert!(bus.unsubscribe(a).is_err());
        assert_eq!(fired(&mut bus, &presence(10, 20)), [b]);
        assert_eq!(bus.subscriptions_of(app), [b]);
        assert_eq!(bus.unsubscribe_all(app), 1);
        assert!(bus.is_empty());
        assert!(bus.by_type.is_empty(), "emptied key lists are dropped");
    }

    #[test]
    fn pair_keyed_removal_drops_emptied_pair_lists() {
        let mut bus = EventBus::new();
        let (door, other_door) = (Guid::from_u128(10), Guid::from_u128(11));
        let pair = |door: Guid, subject: u128| {
            Topic::of_type(ContextType::Presence)
                .from(door)
                .about(Guid::from_u128(subject))
        };
        let (app, leaver) = (Guid::from_u128(1), Guid::from_u128(2));
        let a = bus.subscribe(app, pair(door, 20), false);
        let b = bus.subscribe(app, pair(door, 20), false);
        let once = bus.subscribe(app, pair(door, 21), true);
        let l1 = bus.subscribe(leaver, pair(door, 20), false);
        let l2 = bus.subscribe(leaver, pair(other_door, 20), false);
        assert_eq!(bus.by_pair.len(), 3);

        // unsubscribe: the rest of the slice keeps its order.
        bus.unsubscribe(a).unwrap();
        assert!(bus.unsubscribe(a).is_err());
        assert_eq!(fired(&mut bus, &presence(10, 20)), [b, l1]);

        // unsubscribe_all: leaves both doors; the second door's list empties.
        assert_eq!(bus.unsubscribe_all(leaver), 2);
        assert!(!bus.is_live(l1) && !bus.is_live(l2));
        assert!(!bus.by_pair.contains_key(&(other_door, Guid::from_u128(20))));
        assert_eq!(fired(&mut bus, &presence(10, 20)), [b]);

        // one-time completion unlinks the pair.
        assert_eq!(fired(&mut bus, &presence(10, 21)), [once]);
        assert!(fired(&mut bus, &presence(10, 21)).is_empty());
        assert_eq!(bus.by_pair.len(), 1);

        bus.unsubscribe(b).unwrap();
        assert!(bus.is_empty());
        assert!(bus.by_pair.is_empty(), "emptied pair lists are dropped");
        assert!(bus.by_subscriber.is_empty());
    }
}
