//! Equivalence property: the indexed [`EventBus`] and the linear-scan
//! oracle [`LinearBus`] produce identical [`Delivery`] sequences — same
//! subscription ids, same subscribers, same events, same `last` flags,
//! in the same order — for arbitrary interleavings of subscribe,
//! targeted unsubscribe, subscriber purge and publish, over topics that
//! exercise every index key family (wildcard, type, source, subject,
//! the `(source, subject)` pair and the other conjunctions) — and
//! `EventBus::naming` reads what the oracle's topics name, and
//! `EventBus::iter` yields the oracle's live subscriptions in `SubId`
//! order, though the indexed bus keeps them in a hash map. A second
//! property crowds one source with the shape composition produces —
//! scores of topics differing only by subject — before running the same
//! kind of schedule over it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sci_event::bus::SubscriptionView;
use sci_event::{EventBus, LinearBus, SubId, Topic};
use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};

#[derive(Clone, Debug)]
enum Op {
    Subscribe {
        subscriber: u8,
        ty: Option<u8>,
        source: Option<u8>,
        subject: Option<u8>,
        one_time: bool,
    },
    /// Unsubscribes the nth id ever issued (mod the number issued so
    /// far); exercises both live and already-removed ids.
    Unsubscribe {
        nth: u8,
    },
    UnsubscribeAll {
        subscriber: u8,
    },
    Publish {
        source: u8,
        ty: u8,
        subject: Option<u8>,
    },
}

/// Operations over `sources` sources and `subjects` subjects (and the
/// four types).
fn arb_op(sources: u8, subjects: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<u8>(),
            prop::option::of(0u8..4),
            prop::option::of(0..sources),
            prop::option::of(0..subjects),
            any::<bool>(),
        )
            .prop_map(
                |(subscriber, ty, source, subject, one_time)| Op::Subscribe {
                    subscriber,
                    ty,
                    source,
                    subject,
                    one_time,
                }
            ),
        any::<u8>().prop_map(|nth| Op::Unsubscribe { nth }),
        any::<u8>().prop_map(|subscriber| Op::UnsubscribeAll { subscriber }),
        (0..sources, 0u8..4, prop::option::of(0..subjects)).prop_map(|(source, ty, subject)| {
            Op::Publish {
                source,
                ty,
                subject,
            }
        }),
    ]
}

fn ty_of(i: u8) -> ContextType {
    match i % 4 {
        0 => ContextType::Presence,
        1 => ContextType::Temperature,
        2 => ContextType::Location,
        _ => ContextType::Path,
    }
}

fn source_of(i: u8) -> Guid {
    Guid::from_u128(1000 + i as u128)
}

fn subject_of(i: u8) -> Guid {
    Guid::from_u128(2000 + i as u128)
}

fn topic_of(ty: Option<u8>, source: Option<u8>, subject: Option<u8>) -> Topic {
    let mut t = match ty {
        Some(i) => Topic::of_type(ty_of(i)),
        None => Topic::any(),
    };
    if let Some(s) = source {
        t = t.from(source_of(s));
    }
    if let Some(s) = subject {
        t = t.about(subject_of(s));
    }
    t
}

/// Both buses plus every id issued so far; [`Buses::apply`] runs one
/// operation on both and requires them to stay observably identical.
#[derive(Default)]
struct Buses {
    indexed: EventBus,
    oracle: LinearBus,
    issued: Vec<SubId>,
    t: u64,
}

impl Buses {
    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Subscribe {
                subscriber,
                ty,
                source,
                subject,
                one_time,
            } => {
                let subscriber = Guid::from_u128(subscriber as u128 + 1);
                let topic = topic_of(ty, source, subject);
                let a = self.indexed.subscribe(subscriber, topic.clone(), one_time);
                let b = self.oracle.subscribe(subscriber, topic, one_time);
                prop_assert_eq!(a, b, "id allocation agrees");
                self.issued.push(a);
                if let Some(source) = source {
                    self.check_naming(source, subject)?;
                }
            }
            Op::Unsubscribe { nth } => {
                if self.issued.is_empty() {
                    return Ok(());
                }
                let id = self.issued[nth as usize % self.issued.len()];
                let a = self.indexed.unsubscribe(id);
                let b = self.oracle.unsubscribe(id);
                prop_assert_eq!(a.is_ok(), b.is_ok(), "unsubscribe outcome agrees");
            }
            Op::UnsubscribeAll { subscriber } => {
                let subscriber = Guid::from_u128(subscriber as u128 + 1);
                prop_assert_eq!(
                    self.indexed.unsubscribe_all(subscriber),
                    self.oracle.unsubscribe_all(subscriber)
                );
            }
            Op::Publish {
                source,
                ty,
                subject,
            } => {
                self.t += 1;
                let payload = match subject {
                    Some(s) => ContextValue::record([
                        ("subject", ContextValue::Id(subject_of(s))),
                        ("n", ContextValue::Int(self.t as i64)),
                    ]),
                    None => ContextValue::Int(self.t as i64),
                };
                let event = ContextEvent::new(
                    source_of(source),
                    ty_of(ty),
                    payload,
                    VirtualTime::from_micros(self.t),
                );
                prop_assert_eq!(
                    self.indexed.publish(&event),
                    self.oracle.publish(&event),
                    "delivery sequences agree"
                );
                self.check_naming(source, subject)?;
            }
        }
        prop_assert_eq!(self.indexed.len(), self.oracle.len(), "live counts agree");
        for &id in &self.issued {
            prop_assert_eq!(self.indexed.is_live(id), self.oracle.is_live(id));
            prop_assert_eq!(self.indexed.topic_of(id), self.oracle.topic_of(id));
        }
        self.check_iter()
    }
}

impl Buses {
    /// `iter` yields every live subscription — id, subscriber, topic and
    /// one-time flag — in ascending `SubId` order, as the append-only
    /// oracle holds them.
    fn check_iter(&self) -> Result<(), TestCaseError> {
        let row = |v: SubscriptionView<'_>| (v.id, v.subscriber, v.topic.clone(), v.one_time);
        let indexed: Vec<_> = self.indexed.iter().map(row).collect();
        prop_assert!(
            indexed.windows(2).all(|w| w[0].0 < w[1].0),
            "in SubId order"
        );
        let oracle: Vec<_> = self.oracle.iter().map(row).collect();
        prop_assert_eq!(indexed, oracle, "iter agrees");
        Ok(())
    }

    /// `naming` reads exactly the live subscriptions whose topic names
    /// `source` and exactly `subject`, in id order.
    fn check_naming(&self, source: u8, subject: Option<u8>) -> Result<(), TestCaseError> {
        let (source, subject) = (source_of(source), subject.map(subject_of));
        let named = |id: &&SubId| {
            let topic = self.oracle.topic_of(**id);
            topic.is_some_and(|t| t.source() == Some(source) && t.subject() == subject)
        };
        let expected: Vec<SubId> = self.issued.iter().filter(named).copied().collect();
        let read = self.indexed.naming(source, subject).map(|view| view.id);
        prop_assert_eq!(read.collect::<Vec<SubId>>(), expected);
        Ok(())
    }
}

/// Subjects the crowded property files on source 0 before its schedule.
const CROWD: u8 = 72;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Index and oracle stay observably identical across any schedule.
    #[test]
    fn indexed_bus_equals_linear_oracle(ops in prop::collection::vec(arb_op(4, 4), 0..80)) {
        let mut buses = Buses::default();
        for op in ops {
            buses.apply(op)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The composed shape: source 0 carries one `(source, subject)`
    /// topic for each of [`CROWD`] subjects, with a source-only,
    /// subject-only, typed or wildcard topic slipped in between them, so
    /// a publish there must merge the pair slice with every other family
    /// in id order. Then an arbitrary schedule over the same subjects
    /// (two sources, so half of it lands on the crowded one).
    #[test]
    fn crowded_source_equals_linear_oracle(
        crowd in prop::collection::vec((0u8..5, any::<u8>(), any::<bool>()), CROWD as usize),
        ops in prop::collection::vec(arb_op(2, CROWD), 0..120),
    ) {
        let mut buses = Buses::default();
        for (subject, (between, subscriber, one_time)) in (0..CROWD).zip(crowd) {
            buses.apply(Op::Subscribe {
                subscriber,
                ty: Some(0),
                source: Some(0),
                subject: Some(subject),
                one_time,
            })?;
            let (ty, source, about) = match between {
                0 => (None, Some(0), None),
                1 => (None, None, Some(subject)),
                2 => (Some(0), None, None),
                3 => (None, None, None),
                _ => continue,
            };
            buses.apply(Op::Subscribe {
                subscriber: subscriber.wrapping_add(1),
                ty,
                source,
                subject: about,
                one_time: false,
            })?;
        }
        // One read per crowded subject, so every pair slice is exercised
        // (and every one-time pair consumed) whatever `ops` drew.
        for subject in 0..CROWD {
            buses.apply(Op::Publish { source: 0, ty: 0, subject: Some(subject) })?;
        }
        for op in ops {
            buses.apply(op)?;
        }
    }
}

/// Regression: churning a topic's subscriber set must never reorder
/// deliveries. Index buckets that recycle slots (swap-remove, free
/// lists) can silently diverge from subscription order under heavy
/// subscribe/unsubscribe/resubscribe traffic; the linear oracle *is*
/// subscription order, so every published sequence must match it after
/// every mutation — including one-time subscriptions that self-expire
/// and whole-subscriber purges.
#[test]
fn churned_subscription_order_matches_oracle() {
    let mut indexed = EventBus::new();
    let mut oracle = LinearBus::new();
    let mut live: Vec<SubId> = Vec::new();
    let mut t = 0u64;

    // Seed subscribers across every index key family.
    for (i, (ty, source, subject)) in [
        (None, None, None),
        (Some(0), None, None),
        (None, Some(1), None),
        (Some(1), Some(1), Some(1)),
        (Some(2), None, Some(2)),
    ]
    .into_iter()
    .enumerate()
    {
        let who = Guid::from_u128(1 + (i as u128 % 4));
        let topic = topic_of(ty, source, subject);
        let a = indexed.subscribe(who, topic.clone(), false);
        let b = oracle.subscribe(who, topic, false);
        assert_eq!(a, b);
        live.push(a);
    }

    for round in 0..200u64 {
        // Remove a rotating victim from the middle of the live set,
        // then resubscribe under a rotating key family: the recycled
        // slot must not inherit the old position.
        if !live.is_empty() {
            let victim = live.remove(round as usize % live.len());
            assert_eq!(
                indexed.unsubscribe(victim).is_ok(),
                oracle.unsubscribe(victim).is_ok()
            );
        }
        let who = Guid::from_u128(1 + (round as u128 % 4));
        let topic = match round % 4 {
            0 => topic_of(None, None, None),
            1 => topic_of(Some((round % 4) as u8), None, None),
            2 => topic_of(None, Some((round % 4) as u8), Some((round % 4) as u8)),
            _ => topic_of(Some((round % 4) as u8), Some((round % 4) as u8), None),
        };
        let one_time = round % 3 == 0;
        let a = indexed.subscribe(who, topic.clone(), one_time);
        let b = oracle.subscribe(who, topic, one_time);
        assert_eq!(a, b, "id allocation agrees under churn");
        live.push(a);

        // Every 5th round, purge one subscriber outright.
        if round % 5 == 4 {
            let purged = Guid::from_u128(1 + ((round / 5) as u128 % 4));
            assert_eq!(
                indexed.unsubscribe_all(purged),
                oracle.unsubscribe_all(purged),
                "purge removes the same set"
            );
        }

        // Probe all key families: the full delivery sequence (ids,
        // subscribers, `last` flags, order) must match the oracle.
        for (source, ty, subject) in [(0u8, 0u8, Some(0u8)), (1, 1, Some(1)), (2, 2, None)] {
            t += 1;
            let payload = match subject {
                Some(s) => ContextValue::record([
                    ("subject", ContextValue::Id(subject_of(s))),
                    ("n", ContextValue::Int(t as i64)),
                ]),
                None => ContextValue::Int(t as i64),
            };
            let event = ContextEvent::new(
                source_of(source),
                ty_of(ty),
                payload,
                VirtualTime::from_micros(t),
            );
            assert_eq!(
                indexed.publish(&event),
                oracle.publish(&event),
                "delivery order diverged at churn round {round}"
            );
        }
        // One-time expiry and purges are reflected identically.
        live.retain(|&id| oracle.is_live(id));
        assert_eq!(indexed.len(), oracle.len());
        for &id in &live {
            assert!(indexed.is_live(id), "index lost a live subscription");
        }
        // Keep the bus populated: purges and one-time expiry drain it
        // faster than the churn refills it.
        while live.len() < 4 {
            let who = Guid::from_u128(1 + live.len() as u128);
            let topic = topic_of(None, None, None);
            let a = indexed.subscribe(who, topic.clone(), false);
            let b = oracle.subscribe(who, topic, false);
            assert_eq!(a, b);
            live.push(a);
        }
    }
    assert!(!live.is_empty(), "churn schedule kept the bus populated");
}
