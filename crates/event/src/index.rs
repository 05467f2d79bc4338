//! The topic index behind the dispatch hot path.
//!
//! [`TopicIndex`] replaces a linear scan over every subscription with
//! candidate sets keyed by the things a [`Topic`] can constrain: context
//! type, source GUID and subject GUID, plus a wildcard list for
//! unconstrained subscriptions. Each subscription is indexed under
//! **exactly one** key — the most selective constraint it carries:
//! the `(source, subject)` pair when it names both, then source alone,
//! then subject alone, then type, then wildcard. A publish gathers the
//! union of at most five disjoint candidate families, sorts the
//! candidates by [`SubId`] and verifies the full topic filter on each.
//!
//! The pair family exists because composition produces it: one
//! `objLocationCE` instance per followed person is wired to *every*
//! door sensor (paper §3.2, Figure 3), so a Range holds many topics
//! sharing one source and differing only by subject. Filed under the
//! source alone, every badge read would examine all of them to find the
//! one or two that match. Each source instead keeps an ordered map from
//! subject to that pair's list, so a publish reads one list and a
//! subscribe pays one small-map lookup on top of what the other
//! families pay.
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
//!   immediately after its first successful delivery, before `publish`
//!   returns — identical to the linear bus.
//!
//! The index is generic over a per-entry payload `T` so the deterministic
//! [`crate::bus::EventBus`] (`T = ()`) and the threaded runtime
//! (`T = Sender<ContextEvent>`) share one implementation.

use std::collections::BTreeMap;
use std::hash::Hash;

use sci_types::{ContextEvent, ContextType, Guid, SciError, SciResult, ShardMap};

use crate::bus::SubId;
use crate::topic::Topic;

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
struct IndexedEntry<T> {
    subscriber: Guid,
    topic: Topic,
    one_time: bool,
    extra: T,
}

/// A read-only view of one candidate entry handed to the publish
/// callback (see [`TopicIndex::publish_with`]).
#[derive(Debug)]
pub struct IndexEntryView<'a, T> {
    /// The subscription's id.
    pub id: SubId,
    /// The subscribing entity.
    pub subscriber: Guid,
    /// The event filter.
    pub topic: &'a Topic,
    /// Whether this delivery is the subscription's last (one-time mode).
    pub last: bool,
    /// The per-entry payload (e.g. a delivery channel).
    pub extra: &'a T,
}

/// Aggregate result of one publish (see [`TopicIndex::publish_with`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PublishOutcome {
    /// Number of subscriptions examined (full filter run on each).
    pub candidates: usize,
    /// Number of successful deliveries.
    pub fanout: usize,
    /// How many one-time subscriptions completed (and were removed).
    pub completed_one_time: usize,
}

/// An indexed subscription table: publish cost scales with the number of
/// *matching* subscriptions, not the number of live ones.
#[derive(Clone, Debug)]
pub struct TopicIndex<T> {
    /// All live entries, ordered by id — doubles as the `SubId → slot`
    /// map that makes `unsubscribe`/`is_live`/`topic_of` O(log n).
    entries: BTreeMap<SubId, IndexedEntry<T>>,
    /// Candidate families, sharded by entity GUID (and by type for the
    /// type family) so a city-scale Range's subscription tables never
    /// live in one giant `HashMap` with stop-the-world rehashes.
    by_type: ShardMap<ContextType, Vec<SubId>>,
    by_source: ShardMap<Guid, Vec<SubId>>,
    by_subject: ShardMap<Guid, Vec<SubId>>,
    /// Topics naming both a source and a subject: per source, the lists
    /// of its subjects.
    by_pair: ShardMap<Guid, BTreeMap<Guid, Vec<SubId>>>,
    wildcard: Vec<SubId>,
    by_subscriber: ShardMap<Guid, Vec<SubId>>,
    next_id: u64,
}

impl<T> Default for TopicIndex<T> {
    fn default() -> Self {
        TopicIndex {
            entries: BTreeMap::new(),
            by_type: ShardMap::new(),
            by_source: ShardMap::new(),
            by_subject: ShardMap::new(),
            by_pair: ShardMap::new(),
            wildcard: Vec::new(),
            by_subscriber: ShardMap::new(),
            next_id: 0,
        }
    }
}

impl<T> TopicIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        TopicIndex::default()
    }

    /// Registers a subscription carrying `extra` and returns its id.
    pub fn subscribe(&mut self, subscriber: Guid, topic: Topic, one_time: bool, extra: T) -> SubId {
        let id = SubId(self.next_id);
        self.next_id += 1;
        match IndexKey::for_topic(&topic) {
            IndexKey::Pair(source, subject) => self
                .by_pair
                .get_or_insert_with(source, BTreeMap::new)
                .entry(subject)
                .or_default()
                .push(id),
            IndexKey::Source(source) => {
                self.by_source.get_or_insert_with(source, Vec::new).push(id)
            }
            IndexKey::Subject(subject) => self
                .by_subject
                .get_or_insert_with(subject, Vec::new)
                .push(id),
            IndexKey::Type(ty) => self
                .by_type
                .get_or_insert_with(ty.clone(), Vec::new)
                .push(id),
            IndexKey::Wildcard => self.wildcard.push(id),
        }
        self.by_subscriber
            .get_or_insert_with(subscriber, Vec::new)
            .push(id);
        self.entries.insert(
            id,
            IndexedEntry {
                subscriber,
                topic,
                one_time,
                extra,
            },
        );
        id
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] if the id is not live.
    pub fn unsubscribe(&mut self, id: SubId) -> SciResult<()> {
        if self.remove(id).is_some() {
            Ok(())
        } else {
            Err(SciError::UnknownSubscription(id.0))
        }
    }

    /// Cancels all subscriptions held by a subscriber, returning how many
    /// were removed.
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
            let pairs = self.by_pair.get(&event.source);
            if let Some(ids) = pairs.and_then(|subjects| subjects.get(&subject)) {
                out.extend_from_slice(ids);
            }
        }
        // Single-key membership makes the families disjoint; sorting by
        // id restores subscription order without deduplication.
        out.sort_unstable();
        out
    }

    /// Matches an event against the candidate subscriptions in
    /// subscription order, invoking `deliver` for each match. The
    /// callback returns `true` if delivery succeeded; returning `false`
    /// (e.g. a disconnected channel) reaps the subscription without
    /// counting it. One-time subscriptions that fire are removed before
    /// this method returns.
    pub fn publish_with(
        &mut self,
        event: &ContextEvent,
        mut deliver: impl FnMut(IndexEntryView<'_, T>) -> bool,
    ) -> PublishOutcome {
        // The payload is walked for its subject once per publish, not
        // once per candidate.
        let subject = event.subject();
        let candidates = self.candidates(event, subject);
        let mut outcome = PublishOutcome {
            candidates: candidates.len(),
            ..PublishOutcome::default()
        };
        let mut remove: Vec<SubId> = Vec::new();
        for id in candidates {
            let Some(entry) = self.entries.get(&id) else {
                continue;
            };
            if !entry.topic.matches_with_subject(event, subject) {
                continue;
            }
            let delivered = deliver(IndexEntryView {
                id,
                subscriber: entry.subscriber,
                topic: &entry.topic,
                last: entry.one_time,
                extra: &entry.extra,
            });
            if delivered {
                outcome.fanout += 1;
                if entry.one_time {
                    outcome.completed_one_time += 1;
                    remove.push(id);
                }
            } else {
                remove.push(id);
            }
        }
        for id in remove {
            self.remove(id);
        }
        outcome
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

    /// Iterates over every live subscription in subscription order.
    pub fn iter(&self) -> impl Iterator<Item = IndexEntryView<'_, T>> {
        self.entries.iter().map(|(id, e)| IndexEntryView {
            id: *id,
            subscriber: e.subscriber,
            topic: &e.topic,
            last: e.one_time,
            extra: &e.extra,
        })
    }

    fn remove(&mut self, id: SubId) -> Option<IndexedEntry<T>> {
        let entry = self.entries.remove(&id)?;
        self.unlink_key(id, IndexKey::for_topic(&entry.topic));
        drop_from(&mut self.by_subscriber, &entry.subscriber, id);
        Some(entry)
    }

    /// Removes `id` from the one candidate list its key names, dropping
    /// the list (and the per-source pair map) it empties.
    fn unlink_key(&mut self, id: SubId, key: IndexKey<'_>) {
        match key {
            IndexKey::Pair(source, subject) => {
                if let Some(subjects) = self.by_pair.get_mut(&source) {
                    if subjects
                        .get_mut(&subject)
                        .is_some_and(|ids| drop_id(ids, id))
                    {
                        subjects.remove(&subject);
                    }
                    if subjects.is_empty() {
                        self.by_pair.remove(&source);
                    }
                }
            }
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
fn drop_from<K: Hash + Eq>(lists: &mut ShardMap<K, Vec<SubId>>, key: &K, id: SubId) {
    if lists.get_mut(key).is_some_and(|ids| drop_id(ids, id)) {
        lists.remove(key);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{ContextValue, VirtualTime};

    fn presence(source: u128, subject: u128) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(source),
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(subject)))]),
            VirtualTime::ZERO,
        )
    }

    fn collect(ix: &mut TopicIndex<()>, ev: &ContextEvent) -> Vec<SubId> {
        let mut out = Vec::new();
        ix.publish_with(ev, |v| {
            out.push(v.id);
            true
        });
        out
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
        let mut ix: TopicIndex<()> = TopicIndex::new();
        let app = Guid::from_u128(1);
        let (door, bob) = (Guid::from_u128(10), Guid::from_u128(20));
        let s_pair = ix.subscribe(app, Topic::from_source(door).about(bob), false, ());
        let s_wild = ix.subscribe(app, Topic::any(), false, ());
        let s_type = ix.subscribe(app, Topic::of_type(ContextType::Presence), false, ());
        let s_src = ix.subscribe(app, Topic::from_source(door), false, ());
        let s_subj = ix.subscribe(app, Topic::any().about(bob), false, ());
        let _miss = ix.subscribe(app, Topic::of_type(ContextType::Temperature), false, ());
        let s_pair2 = ix.subscribe(app, Topic::from_source(door).about(bob), false, ());
        let order = collect(&mut ix, &presence(10, 20));
        assert_eq!(order, [s_pair, s_wild, s_type, s_src, s_subj, s_pair2]);
    }

    #[test]
    fn publish_examines_only_the_pairs_naming_the_events_subject() {
        // The Figure-3 shape: one topic per followed person on one door.
        let mut ix: TopicIndex<()> = TopicIndex::new();
        let door = Guid::from_u128(10);
        let subs: Vec<SubId> = (0..500u128)
            .map(|p| {
                let topic = Topic::of_type(ContextType::Presence)
                    .from(door)
                    .about(Guid::from_u128(1000 + p));
                ix.subscribe(Guid::from_u128(5000 + p), topic, false, ())
            })
            .collect();
        let watcher = ix.subscribe(Guid::from_u128(2), Topic::from_source(door), false, ());
        let outcome = ix.publish_with(&presence(10, 1007), |_| true);
        assert_eq!((outcome.candidates, outcome.fanout), (2, 2));
        assert_eq!(collect(&mut ix, &presence(10, 1007)), [subs[7], watcher]);
        // Another door, or a subject nobody follows: the pairs are not touched.
        assert_eq!(ix.publish_with(&presence(11, 1007), |_| true).candidates, 0);
        assert_eq!(ix.publish_with(&presence(10, 9), |_| true).candidates, 1);
    }

    #[test]
    fn full_filter_still_verified_on_candidates() {
        let mut ix: TopicIndex<()> = TopicIndex::new();
        // Filed under (source, subject), but also constrains the type.
        let picky = ix.subscribe(
            Guid::from_u128(1),
            Topic::of_type(ContextType::Temperature)
                .from(Guid::from_u128(10))
                .about(Guid::from_u128(99)),
            false,
            (),
        );
        let outcome = ix.publish_with(&presence(10, 99), |_| true);
        assert_eq!((outcome.candidates, outcome.fanout), (1, 0));
        assert!(collect(&mut ix, &presence(10, 20)).is_empty());
        let mut hot = presence(10, 99);
        hot.topic = ContextType::Temperature;
        assert_eq!(collect(&mut ix, &hot), [picky]);
    }

    #[test]
    fn one_time_and_failed_deliveries_are_removed() {
        let mut ix: TopicIndex<()> = TopicIndex::new();
        let once = ix.subscribe(Guid::from_u128(1), Topic::any(), true, ());
        let dead = ix.subscribe(Guid::from_u128(2), Topic::any(), false, ());
        let keeps = ix.subscribe(Guid::from_u128(3), Topic::any(), false, ());
        let outcome = ix.publish_with(&presence(10, 20), |v| v.id != dead);
        assert_eq!(outcome.fanout, 2);
        assert_eq!(outcome.completed_one_time, 1);
        assert!(!ix.is_live(once));
        assert!(!ix.is_live(dead));
        assert!(ix.is_live(keeps));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn unsubscribe_cleans_candidate_lists() {
        let mut ix: TopicIndex<()> = TopicIndex::new();
        let app = Guid::from_u128(1);
        let a = ix.subscribe(app, Topic::of_type(ContextType::Presence), false, ());
        let b = ix.subscribe(app, Topic::of_type(ContextType::Presence), false, ());
        ix.unsubscribe(a).unwrap();
        assert!(ix.unsubscribe(a).is_err());
        assert_eq!(collect(&mut ix, &presence(10, 20)), [b]);
        assert_eq!(ix.subscriptions_of(app), [b]);
        assert_eq!(ix.unsubscribe_all(app), 1);
        assert!(ix.is_empty());
        assert!(ix.by_type.is_empty(), "emptied key lists are dropped");
    }

    #[test]
    fn pair_keyed_removal_cleans_the_per_source_map() {
        let mut ix: TopicIndex<()> = TopicIndex::new();
        let (door, other_door) = (Guid::from_u128(10), Guid::from_u128(11));
        let pair = |door: Guid, subject: u128| {
            Topic::of_type(ContextType::Presence)
                .from(door)
                .about(Guid::from_u128(subject))
        };
        let (app, leaver) = (Guid::from_u128(1), Guid::from_u128(2));
        let a = ix.subscribe(app, pair(door, 20), false, ());
        let b = ix.subscribe(app, pair(door, 20), false, ());
        let once = ix.subscribe(app, pair(door, 21), true, ());
        let dead = ix.subscribe(app, pair(door, 22), false, ());
        let l1 = ix.subscribe(leaver, pair(door, 20), false, ());
        let l2 = ix.subscribe(leaver, pair(other_door, 20), false, ());
        assert_eq!(ix.by_pair.len(), 2);

        // unsubscribe: the rest of the slice keeps its order.
        ix.unsubscribe(a).unwrap();
        assert!(ix.unsubscribe(a).is_err());
        assert_eq!(collect(&mut ix, &presence(10, 20)), [b, l1]);

        // unsubscribe_all: leaves both doors; the second door's map empties.
        assert_eq!(ix.unsubscribe_all(leaver), 2);
        assert!(!ix.is_live(l1) && !ix.is_live(l2));
        assert!(ix.by_pair.get(&other_door).is_none());
        assert_eq!(collect(&mut ix, &presence(10, 20)), [b]);

        // one-time completion and a failed delivery both unlink the pair.
        assert_eq!(collect(&mut ix, &presence(10, 21)), [once]);
        assert!(collect(&mut ix, &presence(10, 21)).is_empty());
        assert_eq!(ix.publish_with(&presence(10, 22), |_| false).fanout, 0);
        assert!(!ix.is_live(dead));
        assert_eq!(ix.by_pair.get(&door).map(BTreeMap::len), Some(1));

        ix.unsubscribe(b).unwrap();
        assert!(ix.is_empty());
        assert!(ix.by_pair.is_empty(), "emptied pair maps are dropped");
        assert!(ix.by_subscriber.is_empty());
    }
}
