//! The deterministic subscription table.
//!
//! [`EventBus`] is pure: `publish` computes and returns the deliveries an
//! event implies instead of performing I/O, so the middleware built on
//! top of it is exactly replayable — on the caller's thread or on a
//! range worker's (`sci-core`'s `RangeRuntime` ships commands to one
//! bus over a `std::sync::mpsc` mailbox; it never runs a second bus).
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
//! # Laid out for rewiring
//!
//! A live subscription sits in a slot of one slab, a `Vec` of slots
//! with a free list, and its [`SubId`] names that slot beside the
//! id's mint serial. Reaching an entry from an id is one indexed load
//! and a serial check, so an id whose slot was freed and reused reads
//! as not live. The candidate families and the per-subscriber lists
//! are [`sci_types::HashMap`]s over the library's one fixed-seed
//! hasher, so a publish pays one lookup per family and one indexed
//! load per candidate. A `(source, subject)` family usually holds one
//! subscription (one `objLocationCE` instance per person on each
//! door), so it holds that id inline and needs a heap list only from
//! its second. No order is read from a map or from the slab:
//! candidates are sorted by id, the lists are kept in id order, and
//! [`EventBus::iter`] sorts the entries by id.
//!
//! # Invariants
//!
//! * **Order preservation.** `SubId` serials are minted monotonically
//!   (a reused slot gets a new serial) and ids order by serial, and the
//!   per-key candidate lists are append-only (removals keep relative
//!   order), so sorting candidates by id reproduces exactly the delivery
//!   order of the append-only linear table
//!   ([`crate::linear::LinearBus`]): subscription order. The determinism
//!   suite depends on this.
//! * **Single-key membership.** A live subscription appears in exactly one
//!   candidate family; the union needs no deduplication.
//! * **One-time cancellation.** A one-time subscription is removed
//!   immediately after its first delivery, before `publish`
//!   returns — identical to the linear bus.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;

use sci_telemetry::Registry;
use sci_types::{ContextEvent, ContextType, Guid, HashMap, SciError, SciResult};

use crate::telemetry::BusTelemetry;
use crate::topic::Topic;

/// Identifier of a subscription issued by a bus: its mint serial and
/// the slab slot it lives in. Ids compare, order and hash by serial
/// first, so sorting ids is sorting into subscription order; a serial
/// is never minted twice, so an id outlives its slot's reuse.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubId {
    serial: u64,
    slot: u32,
}

impl fmt::Display for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.serial)
    }
}

impl SubId {
    /// The mint serial, which [`SciError::UnknownSubscription`] carries.
    pub(crate) fn serial(self) -> u64 {
        self.serial
    }

    fn slot(self) -> usize {
        self.slot as usize
    }
}

/// Mints [`SubId`]s: serials in order, each into the slot freed last
/// (LIFO), else a new one. [`EventBus`] and the oracle
/// [`crate::linear::LinearBus`] mint through it and free in the same
/// order, so both issue the same ids.
#[derive(Clone, Debug, Default)]
pub(crate) struct SubIds {
    next_serial: u64,
    slots: u32,
    free: Vec<u32>,
}

impl SubIds {
    pub(crate) fn mint(&mut self) -> SubId {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.slots;
            self.slots = slot
                .checked_add(1)
                .unwrap_or_else(|| panic!("more than u32::MAX live subscriptions"));
            slot
        });
        let id = SubId {
            serial: self.next_serial,
            slot,
        };
        self.next_serial += 1;
        id
    }

    /// Returns a dead id's slot for reuse.
    pub(crate) fn free(&mut self, id: SubId) {
        self.free.push(id.slot);
    }

    /// Ids minted and not yet freed.
    fn live(&self) -> usize {
        self.slots as usize - self.free.len()
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
    id: SubId,
    subscriber: Guid,
    topic: Topic,
    one_time: bool,
}

impl Entry {
    fn view(&self) -> SubscriptionView<'_> {
        SubscriptionView {
            id: self.id,
            subscriber: self.subscriber,
            topic: &self.topic,
            one_time: self.one_time,
        }
    }
}

/// A `(source, subject)` family: one id inline, a heap list only from
/// the second. Kept in id order, read as a slice.
#[derive(Clone, Debug)]
enum PairFamily {
    One(SubId),
    Many(Vec<SubId>),
}

impl PairFamily {
    fn ids(&self) -> &[SubId] {
        match self {
            PairFamily::One(id) => std::slice::from_ref(id),
            PairFamily::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: SubId) {
        match self {
            PairFamily::One(first) => *self = PairFamily::Many(vec![*first, id]),
            PairFamily::Many(ids) => ids.push(id),
        }
    }
}

impl IdList for PairFamily {
    fn drop_id(&mut self, id: SubId) -> bool {
        match self {
            PairFamily::One(only) => *only == id,
            PairFamily::Many(ids) => {
                let emptied = ids.drop_id(id);
                if let [only] = ids[..] {
                    *self = PairFamily::One(only);
                }
                emptied
            }
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
    /// The slab: each live entry in the slot its id names, `None` in a
    /// freed slot. Candidates are reached by index, with no hash probe.
    slots: Vec<Option<Entry>>,
    ids: SubIds,
    /// Candidate families, keyed by entity GUID (and by type for the
    /// type family).
    by_type: HashMap<ContextType, Vec<SubId>>,
    by_source: HashMap<Guid, Vec<SubId>>,
    by_subject: HashMap<Guid, Vec<SubId>>,
    /// Topics naming both a source and a subject, keyed by the pair.
    by_pair: HashMap<(Guid, Guid), PairFamily>,
    wildcard: Vec<SubId>,
    /// A subscriber's ids: a deque, so dropping them front to back
    /// (or back to front) moves nothing.
    by_subscriber: HashMap<Guid, VecDeque<SubId>>,
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
    /// Deliberately counters-only: this bus is the range's hot path, so no
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
        let id = self.ids.mint();
        match IndexKey::for_topic(&topic) {
            IndexKey::Pair(source, subject) => {
                let family = self.by_pair.entry((source, subject));
                family
                    .and_modify(|f| f.push(id))
                    .or_insert(PairFamily::One(id));
            }
            IndexKey::Source(source) => self.by_source.entry(source).or_default().push(id),
            IndexKey::Subject(subject) => self.by_subject.entry(subject).or_default().push(id),
            IndexKey::Type(ty) => self.by_type.entry(ty.clone()).or_default().push(id),
            IndexKey::Wildcard => self.wildcard.push(id),
        }
        self.by_subscriber
            .entry(subscriber)
            .or_default()
            .push_back(id);
        let entry = Some(Entry {
            id,
            subscriber,
            topic,
            one_time,
        });
        match self.slots.get_mut(id.slot()) {
            Some(slot) => *slot = entry,
            None => self.slots.push(entry),
        }
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
            Err(SciError::UnknownSubscription(id.serial))
        }
    }

    /// Cancels all subscriptions held by a subscriber (used when an
    /// entity deregisters from the range). Returns how many were removed.
    pub fn unsubscribe_all(&mut self, subscriber: Guid) -> usize {
        let ids = self.by_subscriber.remove(&subscriber).unwrap_or_default();
        for &id in &ids {
            if let Some(entry) = self.take(id) {
                self.unlink_key(id, IndexKey::for_topic(&entry.topic));
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
            if let Some(family) = self.by_pair.get(&(event.source, subject)) {
                out.extend_from_slice(family.ids());
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
            let Some(entry) = self.entry(id) else {
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
        self.ids.live()
    }

    /// Returns `true` if there are no live subscriptions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the subscription id is live.
    pub fn is_live(&self, id: SubId) -> bool {
        self.entry(id).is_some()
    }

    /// The live entry `id` names: its slot's, unless the slot has been
    /// freed or reused since.
    fn entry(&self, id: SubId) -> Option<&Entry> {
        let entry = self.slots.get(id.slot())?.as_ref()?;
        (entry.id == id).then_some(entry)
    }

    /// Live subscriptions held by a subscriber, in subscription order.
    pub fn subscriptions_of(&self, subscriber: Guid) -> Vec<SubId> {
        self.by_subscriber
            .get(&subscriber)
            .map_or_else(Vec::new, |ids| ids.iter().copied().collect())
    }

    /// The topic of a live subscription.
    pub fn topic_of(&self, id: SubId) -> Option<&Topic> {
        self.entry(id).map(|e| &e.topic)
    }

    /// Iterates over every live subscription, in subscription order.
    /// Static fleet analysis walks this to compare the actual wiring
    /// against what analyzed plans require; the entries are sorted by
    /// id first, since a reused slot holds a later id.
    pub fn iter(&self) -> impl Iterator<Item = SubscriptionView<'_>> {
        let mut live: Vec<_> = self.slots.iter().flatten().collect();
        live.sort_unstable_by_key(|e| e.id);
        live.into_iter().map(Entry::view)
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
            Some(subject) => self.by_pair.get(&(source, subject)).map(PairFamily::ids),
            None => self.by_source.get(&source).map(Vec::as_slice),
        };
        let named = ids.into_iter().flatten();
        named.filter_map(|&id| Some(self.entry(id)?.view()))
    }

    /// Unfiles a live subscription; `false` if `id` was not live.
    fn remove(&mut self, id: SubId) -> bool {
        let Some(entry) = self.take(id) else {
            return false;
        };
        self.unlink_key(id, IndexKey::for_topic(&entry.topic));
        drop_from(&mut self.by_subscriber, &entry.subscriber, id);
        true
    }

    /// Empties a live entry's slot and frees it for reuse.
    fn take(&mut self, id: SubId) -> Option<Entry> {
        self.entry(id)?;
        let entry = self.slots.get_mut(id.slot())?.take();
        self.ids.free(id);
        entry
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
                self.wildcard.drop_id(id);
            }
        }
    }
}

/// A list of ids kept in id order: a candidate family or a
/// subscriber's list.
trait IdList {
    /// Removes `id`; returns `true` if that emptied the list.
    fn drop_id(&mut self, id: SubId) -> bool;
}

impl IdList for Vec<SubId> {
    /// The lists are append-only in id order, so a binary search finds
    /// the slot.
    fn drop_id(&mut self, id: SubId) -> bool {
        if let Ok(pos) = self.binary_search(&id) {
            self.remove(pos);
        }
        self.is_empty()
    }
}

impl IdList for VecDeque<SubId> {
    /// As for a `Vec`, but the removal shifts the nearer end.
    fn drop_id(&mut self, id: SubId) -> bool {
        if let Ok(pos) = self.binary_search(&id) {
            self.remove(pos);
        }
        self.is_empty()
    }
}

/// Removes `id` from the list filed under `key`, and the list with it
/// if that was its last.
fn drop_from<K: Hash + Eq, L: IdList>(lists: &mut HashMap<K, L>, key: &K, id: SubId) {
    if lists.get_mut(key).is_some_and(|ids| ids.drop_id(id)) {
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

    /// The `(source, subject)` family's ids, and whether they sit inline.
    fn family(bus: &EventBus, source: Guid, subject: u128) -> Option<(bool, Vec<SubId>)> {
        let family = bus.by_pair.get(&(source, Guid::from_u128(subject)))?;
        Some((matches!(family, PairFamily::One(_)), family.ids().to_vec()))
    }

    fn named(bus: &EventBus, source: Guid, subject: u128) -> Vec<SubId> {
        let named = bus.naming(source, Some(Guid::from_u128(subject)));
        named.map(|view| view.id).collect()
    }

    #[test]
    fn pair_family_goes_one_many_one_none_in_subscription_order() {
        let mut bus = EventBus::new();
        let (door, other_door) = (Guid::from_u128(10), Guid::from_u128(11));
        let pair = |door: Guid, subject: u128| {
            Topic::of_type(ContextType::Presence)
                .from(door)
                .about(Guid::from_u128(subject))
        };
        let (app, leaver) = (Guid::from_u128(1), Guid::from_u128(2));
        let a = bus.subscribe(app, pair(door, 20), false);
        assert_eq!(family(&bus, door, 20), Some((true, vec![a])), "one: inline");
        let b = bus.subscribe(app, pair(door, 20), false);
        assert_eq!(family(&bus, door, 20), Some((false, vec![a, b])), "many");
        let once = bus.subscribe(app, pair(door, 21), true);
        let l1 = bus.subscribe(leaver, pair(door, 20), false);
        let l2 = bus.subscribe(leaver, pair(other_door, 20), false);
        assert_eq!(bus.by_pair.len(), 3);
        assert_eq!(named(&bus, door, 20), [a, b, l1]);

        // unsubscribe: the rest of the family keeps its order.
        bus.unsubscribe(a).unwrap();
        assert!(bus.unsubscribe(a).is_err());
        assert_eq!(named(&bus, door, 20), [b, l1]);
        assert_eq!(fired(&mut bus, &presence(10, 20)), [b, l1]);

        // unsubscribe_all leaves both doors: the first family is back to
        // one, inline; the second door's empties and is dropped.
        assert_eq!(bus.unsubscribe_all(leaver), 2);
        assert!(!bus.is_live(l1) && !bus.is_live(l2));
        assert_eq!(family(&bus, door, 20), Some((true, vec![b])), "one again");
        assert_eq!(family(&bus, other_door, 20), None);
        assert_eq!(fired(&mut bus, &presence(10, 20)), [b]);

        // A later subscription reuses a freed slot and still files after b.
        let c = bus.subscribe(app, pair(door, 20), false);
        assert_eq!(named(&bus, door, 20), [b, c]);
        bus.unsubscribe(c).unwrap();

        // one-time completion unlinks the pair.
        assert_eq!(fired(&mut bus, &presence(10, 21)), [once]);
        assert!(fired(&mut bus, &presence(10, 21)).is_empty());
        assert_eq!(family(&bus, door, 21), None);
        assert_eq!(bus.by_pair.len(), 1);

        bus.unsubscribe(b).unwrap();
        assert_eq!(family(&bus, door, 20), None, "none");
        assert!(bus.is_empty());
        assert!(bus.by_pair.is_empty(), "emptied pair families are dropped");
        assert!(bus.by_subscriber.is_empty());
    }

    #[test]
    fn a_reused_slot_answers_only_for_its_new_id() {
        let mut bus = EventBus::new();
        let (app_a, app_b) = (Guid::from_u128(1), Guid::from_u128(2));
        let a = bus.subscribe(app_a, Topic::any(), false);
        bus.unsubscribe(a).unwrap();
        let b = bus.subscribe(app_b, Topic::of_type(ContextType::Temperature), false);
        assert_eq!(b.slot, a.slot, "b lives in a's freed slot");
        assert!(b > a, "and sorts after it");
        assert!(matches!(
            bus.unsubscribe(a),
            Err(SciError::UnknownSubscription(0))
        ));
        assert!(!bus.is_live(a));
        assert_eq!(bus.topic_of(a), None);
        let delivered = bus.publish(&temp_event(1.0));
        let to: Vec<_> = delivered.iter().map(|d| (d.sub, d.subscriber)).collect();
        assert_eq!(to, [(b, app_b)]);
        assert!(bus.is_live(b));
        assert_eq!(bus.len(), 1);
    }

    #[test]
    fn reused_slots_still_deliver_in_mint_order() {
        let mut bus = EventBus::new();
        let app = Guid::from_u128(1);
        let [a, b, c] = [(); 3].map(|()| bus.subscribe(app, Topic::any(), false));
        bus.unsubscribe(a).unwrap();
        bus.unsubscribe(b).unwrap();
        // The free list is LIFO: d takes b's slot, e takes a's.
        let d = bus.subscribe(app, Topic::any(), false);
        let e = bus.subscribe(app, Topic::any(), false);
        assert_eq!((d.slot, e.slot), (b.slot, a.slot));
        assert_eq!(fired(&mut bus, &temp_event(1.0)), [c, d, e]);
        let iterated: Vec<SubId> = bus.iter().map(|view| view.id).collect();
        assert_eq!(iterated, [c, d, e]);
    }
}
