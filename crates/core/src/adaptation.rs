//! Adaptivity to environmental change.
//!
//! "The same context may come from several sources and the data sources
//! may become available or unavailable due to user movement or component
//! failure" (paper, Section 2, critiquing Solar); SCI's stated goal is to
//! "adjust the composition of these components dynamically in the case
//! of environment changes, thus improving service and fault tolerance
//! while minimising user intervention" (Section 6).
//!
//! Which sources feed an input is decided in one place, the resolver's
//! [`sources_for`]; every source-fed input is recorded on its consumer
//! as a [`Need`] when the plan first wires it. Adapting is keeping the
//! two equal — a standing query is a view over the provider registry,
//! maintained, not re-derived per kind of event:
//!
//! * `reconcile` brings one consumer's subscriptions for one need to
//!   the rule's answer;
//! * `rewire` does so for every need a change can affect. It is what a
//!   source's **arrival** (`Register`), its **departure**
//!   (`Deregister`, `MigrateOut`), its **failure** (`Fail`), a
//!   **declared equivalence** (`DeclareEquivalence`) and a status
//!   event that **changes an attribute** a need tests (`Ingest`) each
//!   are — *without any application involvement*, the contrast with
//!   the Context Toolkit (static wiring) and Solar (explicit graphs)
//!   baselines measured in experiment E6.
//!
//! Every one of those is a logged command, so a range rebuilt from its
//! log is wired as the live one was. Failure is *detected* by the Event
//! Mediator, which tracks liveness of source CEs that declared a
//! `max-silence-us` QoS attribute — a read; the public functions here
//! turn it into the decision: [`repair_source`] issues one `Fail`,
//! [`detect_and_repair`] one per silent source, and
//! [`detect_and_repair_governed`] bounds how often it may.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;

use sci_event::bus::SubId;
use sci_event::{EventMediator, Topic};
use sci_types::{ContextType, Guid, Profile, RangeReply, VirtualDuration, VirtualTime};

use crate::configuration::{input_topic, Configuration};
use crate::context_server::ContextServer;
use crate::profile_manager::ProfileManager;
use crate::resolver::{sources_for, Need};
use crate::runtime::RangeCommand;

pub use sci_types::RepairReport;

/// The context types a profile's outputs carry — what [`rewire`] is
/// told has changed when the entity arrives, leaves or fails.
pub(crate) fn output_types(profile: &Profile) -> Vec<ContextType> {
    profile.outputs().iter().map(|o| o.ty.clone()).collect()
}

/// Brings one consumer's subscriptions for one need to `sources`, the
/// rule's answer for it: of the `subs` that serve the need, those to a
/// source the rule no longer names are unsubscribed; the sources it
/// newly names are subscribed, in its order. Returns what was dropped
/// and what was added.
fn reconcile(
    (mediator, profiles): (&mut EventMediator, &ProfileManager),
    (subscriber, one_time): (Guid, bool),
    subs: &mut Vec<SubId>,
    need: &Need,
    sources: &[(Guid, ContextType)],
) -> (Vec<SubId>, Vec<SubId>) {
    // A consumer's inputs of compatible types about the same subject
    // were resolved alike, so no subscription to an instance is among
    // the ones that serve a need.
    let serves = |topic: &Topic| {
        let ty = topic.ty();
        topic.subject() == need.subject && ty.is_some_and(|ty| profiles.compatible(ty, &need.ty))
    };
    let mut held = vec![false; sources.len()];
    let mut dropped = Vec::new();
    subs.retain(|&sub| {
        let Some(topic) = mediator.bus().topic_of(sub).filter(|t| serves(t)) else {
            return true;
        };
        let named = |(source, ty): &(Guid, ContextType)| {
            topic.source() == Some(*source) && topic.ty() == Some(ty)
        };
        let at = sources.iter().position(named);
        match at {
            Some(at) => held[at] = true,
            None => dropped.push(sub),
        }
        at.is_some()
    });
    for &sub in &dropped {
        let _ = mediator.unsubscribe(sub);
    }
    let missing = sources.iter().zip(held).filter(|(_, held)| !held);
    let added: Vec<SubId> = missing
        .map(|((source, ty), _)| {
            let topic = input_topic(Some(ty.clone()), *source, need.subject);
            mediator.subscribe(subscriber, topic, one_time)
        })
        .collect();
    subs.extend(&added);
    (dropped, added)
}

/// The one adaptation pass. `changed` are the output types of a source
/// that arrived, left or failed (or two types just declared
/// equivalent); every need they are compatible with is reconciled —
/// hosted instances first, in GUID order, then the applications fed by
/// sources directly, in query-id order. Subscription order is delivery
/// order, so a replay of the same commands rewires, and later
/// delivers, identically. An input fed by another instance is nobody's
/// need: it stays derived-fed.
///
/// After first wiring this pass (with [`unwire`]'s raw half) is the
/// only writer of a configuration's `sources`, `root_producers` and
/// `caa_subs`, and of the server's index of the latter. Returns, for
/// each configuration now fed by other sources than before, the ones
/// that are new to it.
pub(crate) fn rewire(cs: &mut ContextServer, changed: &[ContextType]) -> Vec<(Guid, Vec<Guid>)> {
    let (profiles, excluded, instances) = (&cs.profiles, &cs.excluded, &mut cs.instances);
    let concerns = |need: &Need| changed.iter().any(|ty| profiles.compatible(ty, &need.ty));
    // Without predicates the rule's answer depends on the equivalence
    // class of the type alone: one per changed type, worked out when a
    // need first asks, serves the whole pass.
    let plain: Vec<OnceCell<Vec<(Guid, ContextType)>>> = vec![OnceCell::new(); changed.len()];
    let rule = |need: &Need| {
        let same =
            |ty: &ContextType| need.predicates.is_empty() && profiles.compatible(ty, &need.ty);
        match changed.iter().position(same) {
            Some(at) => Cow::Borrowed(
                &plain[at].get_or_init(|| sources_for(profiles, &changed[at], &[], excluded))[..],
            ),
            None => Cow::Owned(sources_for(profiles, &need.ty, &need.predicates, excluded)),
        }
    };

    let mut hosts: Vec<Guid> = instances
        .iter()
        .filter(|state| state.needs.iter().any(concerns))
        .map(|state| state.instance)
        .collect();
    hosts.sort_unstable();
    for &host in &hosts {
        let Some(state) = instances.get_mut(host) else {
            continue;
        };
        for need in state.needs.iter().filter(|need| concerns(need)) {
            let bus = (&mut cs.mediator, profiles);
            reconcile(bus, (host, false), &mut state.subs, need, &rule(need));
        }
    }

    let mut affected: Vec<&mut Configuration> = cs
        .configurations
        .values_mut()
        .filter(|config| {
            let hosted = |i: &Guid| hosts.binary_search(i).is_ok();
            config.source_need().is_some_and(concerns) || config.instances.iter().any(hosted)
        })
        .collect();
    affected.sort_unstable_by_key(|config| config.query_id);
    let mut report = Vec::new();
    for config in affected {
        // What the rule names for its own need, or for its instances'.
        let mut sources: Vec<Guid> = Vec::new();
        if let Some(need) = config.need.as_ref().filter(|_| config.instances.is_empty()) {
            let (bus, feeding) = ((&mut cs.mediator, profiles), rule(need));
            let subscriber = (config.owner, config.one_time);
            let (dropped, added) = reconcile(bus, subscriber, &mut config.caa_subs, need, &feeding);
            for sub in &dropped {
                cs.caa_sub_index.remove(sub);
            }
            let query = config.query_id;
            cs.caa_sub_index
                .extend(added.iter().map(|&sub| (sub, query)));
            sources.extend(feeding.iter().map(|(source, _)| *source));
            config.root_producers.clone_from(&sources);
        } else {
            let hosted = config.instances.iter().filter_map(|&i| instances.get(i));
            for need in hosted.flat_map(|state| &state.needs) {
                sources.extend(rule(need).iter().map(|(source, _)| *source));
            }
        }
        sources.sort_unstable();
        sources.dedup();
        let before = std::mem::replace(&mut config.sources, sources);
        if config.sources != before {
            let new = |source: &&Guid| !before.contains(source);
            let replacements = config.sources.iter().filter(new).copied().collect();
            report.push((config.query_id, replacements));
        }
    }
    report
}

/// A producer is gone — it left, or it failed: [`rewire`] for what its
/// `outputs` fed (an entity without outputs fed no need), and the raw
/// `Kind`/`Named` subscriptions that selected it drop it. A raw
/// subscription has no need, so nothing takes the producer's place.
/// Returns [`rewire`]'s report and the raw configurations, which have
/// no replacements.
pub(crate) fn unwire(
    cs: &mut ContextServer,
    gone: Guid,
    outputs: &[ContextType],
) -> Vec<(Guid, Vec<Guid>)> {
    let mut report = match outputs {
        [] => Vec::new(),
        outputs => rewire(cs, outputs),
    };
    let selected = |c: &&mut Configuration| c.need.is_none() && c.root_producers.contains(&gone);
    for config in cs.configurations.values_mut().filter(selected) {
        config.root_producers.retain(|&producer| producer != gone);
        let names_it =
            |sub: &SubId| cs.mediator.bus().topic_of(*sub).and_then(Topic::source) == Some(gone);
        let (subs, kept) = std::mem::take(&mut config.caa_subs)
            .into_iter()
            .partition(names_it);
        config.caa_subs = kept;
        for sub in subs {
            let _ = cs.mediator.unsubscribe(sub);
            cs.caa_sub_index.remove(&sub);
        }
        report.push((config.query_id, Vec::new()));
    }
    report
}

/// Fails `failed` — [`RangeCommand::Fail`], like every other mutation a
/// command through [`ContextServer::handle`] — and returns one report
/// per configuration it was feeding. Nothing happens, and nothing is
/// reported, for a CE that is already failed, has departed or was never
/// registered, or when the range's log refuses the record.
pub fn repair_source(cs: &mut ContextServer, failed: Guid, now: VirtualTime) -> Vec<RepairReport> {
    match cs.handle(RangeCommand::Fail(failed), now) {
        Ok(RangeReply::Repaired(reports)) => reports,
        _ => Vec::new(),
    }
}

/// Runs failure detection (mediator liveness) and repairs everything
/// that fell silent — [`detect_and_repair_governed`] without a bound.
/// Returns the repair reports.
pub fn detect_and_repair(cs: &mut ContextServer, now: VirtualTime) -> Vec<RepairReport> {
    let unbounded = AdaptationPolicy {
        max_repairs_per_window: usize::MAX,
        ..AdaptationPolicy::default()
    };
    detect_and_repair_governed(cs, &mut AdaptationGovernor::new(unbounded), now)
}

/// Bounds on acceptable adaptation (paper §6, open issue 3): "the
/// implications of providing bounds on acceptable adaptation … and the
/// overall stability of the system". Without bounds, a flapping sensor
/// (fails, recovers, fails…) makes every dependent configuration churn
/// indefinitely.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdaptationPolicy {
    /// Maximum repairs charged to one configuration inside one window.
    /// A failure is one rewire — repaired for every configuration the
    /// source fed, or for none — so this bounds how often a
    /// configuration can be the reason for one: a failure is left
    /// unrepaired, and counted as suppressed, only when every
    /// configuration it affects has spent its budget.
    pub max_repairs_per_window: usize,
    /// The sliding window length.
    pub window: VirtualDuration,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        AdaptationPolicy {
            max_repairs_per_window: 4,
            window: VirtualDuration::from_secs(300),
        }
    }
}

/// The stateful enforcer of an [`AdaptationPolicy`].
#[derive(Clone, Debug)]
pub struct AdaptationGovernor {
    policy: AdaptationPolicy,
    repairs: HashMap<Guid, Vec<VirtualTime>>,
    failures: HashMap<Guid, usize>,
    suppressed: u64,
}

impl AdaptationGovernor {
    /// Creates a governor with the given policy.
    pub fn new(policy: AdaptationPolicy) -> Self {
        AdaptationGovernor {
            policy,
            repairs: HashMap::new(),
            failures: HashMap::new(),
            suppressed: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AdaptationPolicy {
        self.policy
    }

    /// Total repairs suppressed by the bounds so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// How many times a CE has been observed failing.
    pub fn failure_count(&self, ce: Guid) -> usize {
        self.failures.get(&ce).copied().unwrap_or(0)
    }

    /// Records a failure observation.
    pub fn record_failure(&mut self, ce: Guid) {
        *self.failures.entry(ce).or_insert(0) += 1;
    }

    /// Whether a configuration has repair budget left in the window
    /// ending at `now` (repairs that slid out of it are forgotten).
    fn has_budget(&mut self, config: Guid, now: VirtualTime) -> bool {
        let history = self.repairs.entry(config).or_default();
        history.retain(|&t| now.saturating_since(t) <= self.policy.window);
        history.len() < self.policy.max_repairs_per_window
    }

    /// Asks whether a configuration may be repaired at `now`; if yes,
    /// the repair is recorded against the window, if not, counted as
    /// suppressed.
    pub fn admit_repair(&mut self, config: Guid, now: VirtualTime) -> bool {
        let admitted = self.has_budget(config, now);
        if admitted {
            self.repairs.entry(config).or_default().push(now);
        } else {
            self.suppressed += 1;
        }
        admitted
    }
}

/// [`detect_and_repair`] under an [`AdaptationGovernor`], a caller-side
/// policy that decides which failures to issue: every silent source is
/// recorded as a failure observation, and one whose every dependent
/// configuration has already spent its repair budget this window is
/// *not* failed — it stays wired and tracked, degraded but stable,
/// instead of churning, and is seen again by the next pass. Returns the
/// reports of the repairs that were made.
pub fn detect_and_repair_governed(
    cs: &mut ContextServer,
    governor: &mut AdaptationGovernor,
    now: VirtualTime,
) -> Vec<RepairReport> {
    let mut reports = Vec::new();
    for (ce, _) in cs.mediator().silent_publishers(now) {
        governor.record_failure(ce);
        let (in_budget, spent): (Vec<Guid>, Vec<Guid>) = cs
            .configurations()
            .filter(|c| c.sources.contains(&ce) || c.root_producers.contains(&ce))
            .map(|c| c.query_id)
            .partition(|&q| governor.has_budget(q, now));
        // One rewire repairs it for everything it fed, charged to every
        // window that has room; with nothing depending on it the
        // failure costs nobody anything. When every dependent has spent
        // its budget each refusal is counted and no `Fail` is issued.
        let repair = !in_budget.is_empty() || spent.is_empty();
        for query in if repair { in_budget } else { spent } {
            governor.admit_repair(query, now);
        }
        if repair {
            reports.extend(repair_source(cs, ce, now));
        }
    }
    reports
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::context_server::QueryAnswer;
    use crate::logic::{factory, ObjLocationLogic};
    use sci_location::floorplan::capa_level10;
    use sci_query::{Mode, Predicate, Query};
    use sci_types::guid::GuidGenerator;
    use sci_types::{ContextEvent, ContextValue, EntityKind, PortSpec, Profile, VirtualDuration};

    fn presence(source: Guid, subject: Guid, to: &str, t: VirtualTime) -> ContextEvent {
        ContextEvent::new(
            source,
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("from", ContextValue::place("corridor")),
                ("to", ContextValue::place(to)),
            ]),
            t,
        )
    }

    struct Rig {
        cs: ContextServer,
        ids: GuidGenerator,
        doors: Vec<Guid>,
    }

    fn rig(door_count: usize) -> Rig {
        let plan = capa_level10();
        let mut ids = GuidGenerator::seeded(9);
        let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
        let doors: Vec<Guid> = (0..door_count)
            .map(|i| {
                let id = ids.next_guid();
                cs.register(
                    Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                        .output(PortSpec::new("presence", ContextType::Presence))
                        .attribute("max-silence-us", ContextValue::Int(10_000_000))
                        .build(),
                    sci_types::VirtualTime::ZERO,
                )
                .unwrap();
                id
            })
            .collect();
        let obj_loc = ids.next_guid();
        cs.register(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
            sci_types::VirtualTime::ZERO,
        )
        .unwrap();
        let p = plan.clone();
        cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
        Rig { cs, ids, doors }
    }

    fn subscribe_location(r: &mut Rig, subject: Guid) -> Guid {
        let app = r.ids.next_guid();
        let q = Query::builder(r.ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(subject))],
            )
            .mode(Mode::Subscribe)
            .build();
        match r.cs.submit_query(&q, sci_types::VirtualTime::ZERO).unwrap() {
            QueryAnswer::Subscribed { .. } => q.id,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_door_is_replaced_by_survivors() {
        let mut r = rig(3);
        let bob = r.ids.next_guid();
        let qid = subscribe_location(&mut r, bob);

        let reports = repair_source(&mut r.cs, r.doors[0], sci_types::VirtualTime::from_secs(5));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].query, qid);
        assert!(!reports[0].degraded);

        // Events from the failed door no longer flow; survivors do.
        let t = sci_types::VirtualTime::from_secs(6);
        r.cs.ingest(&presence(r.doors[0], bob, "L10.01", t), t)
            .unwrap();
        assert!(r.cs.drain_outbox().is_empty(), "failed source is cut off");
        r.cs.ingest(&presence(r.doors[1], bob, "L10.02", t), t)
            .unwrap();
        assert_eq!(r.cs.drain_outbox().len(), 1, "survivor still delivers");
    }

    #[test]
    fn losing_every_source_degrades() {
        let mut r = rig(2);
        let bob = r.ids.next_guid();
        subscribe_location(&mut r, bob);
        let t = sci_types::VirtualTime::from_secs(1);
        let r1 = repair_source(&mut r.cs, r.doors[0], t);
        assert!(!r1[0].degraded);
        let r2 = repair_source(&mut r.cs, r.doors[1], t);
        assert!(r2[0].degraded, "no presence source left");
    }

    #[test]
    fn silence_detection_triggers_repair() {
        let mut r = rig(2);
        let bob = r.ids.next_guid();
        subscribe_location(&mut r, bob);
        // Door 0 publishes at t=1; door 1 stays silent past its 10 s QoS.
        let t1 = sci_types::VirtualTime::from_secs(1);
        r.cs.ingest(&presence(r.doors[0], bob, "L10.01", t1), t1)
            .unwrap();
        r.cs.drain_outbox();
        // At t=10.5 s door 1 (last seen t=0) exceeds its 10 s window
        // while door 0 (last seen t=1) does not.
        let reports = detect_and_repair(&mut r.cs, sci_types::VirtualTime::from_millis(10_500));
        let failed: Vec<Guid> = reports.iter().map(|rep| rep.failed).collect();
        assert!(failed.contains(&r.doors[1]), "silent door detected");
        assert!(!failed.contains(&r.doors[0]), "talkative door kept");
    }

    #[test]
    fn repair_is_idempotent_for_shared_instances() {
        let mut r = rig(3);
        let bob = r.ids.next_guid();
        // Two applications share the objLocation(bob) instance.
        subscribe_location(&mut r, bob);
        subscribe_location(&mut r, bob);
        assert_eq!(r.cs.instance_count(), 1, "reuse shares the instance");

        repair_source(&mut r.cs, r.doors[0], sci_types::VirtualTime::from_secs(2));
        // The shared instance must have exactly |survivors| presence subs.
        let t = sci_types::VirtualTime::from_secs(3);
        r.cs.ingest(&presence(r.doors[1], bob, "L10.01", t), t)
            .unwrap();
        // One location event per app, not two per app.
        assert_eq!(r.cs.drain_outbox().len(), 2);
    }

    #[test]
    fn governor_bounds_repair_churn() {
        let policy = AdaptationPolicy {
            max_repairs_per_window: 2,
            window: VirtualDuration::from_secs(100),
        };
        let mut governor = AdaptationGovernor::new(policy);
        let config = Guid::from_u128(1);
        assert!(governor.admit_repair(config, sci_types::VirtualTime::from_secs(1)));
        assert!(governor.admit_repair(config, sci_types::VirtualTime::from_secs(2)));
        assert!(
            !governor.admit_repair(config, sci_types::VirtualTime::from_secs(3)),
            "budget exhausted inside the window"
        );
        assert_eq!(governor.suppressed(), 1);
        // The window slides: old repairs expire.
        assert!(governor.admit_repair(config, sci_types::VirtualTime::from_secs(200)));
        // An unrelated configuration has its own budget.
        assert!(governor.admit_repair(Guid::from_u128(2), sci_types::VirtualTime::from_secs(3)));
    }

    #[test]
    fn governed_detection_suppresses_churn() {
        // A flapping door: fails (silence), repairs, is re-registered,
        // fails again… with a budget of 1 repair per window the second
        // round is suppressed.
        let mut r = rig(2);
        let bob = r.ids.next_guid();
        let qid = subscribe_location(&mut r, bob);
        let mut governor = AdaptationGovernor::new(AdaptationPolicy {
            max_repairs_per_window: 1,
            window: VirtualDuration::from_secs(10_000),
        });

        // Round 1: door 0 silent at t=11 → repaired.
        r.cs.heartbeat(r.doors[1], sci_types::VirtualTime::from_secs(11))
            .unwrap();
        let reports = detect_and_repair_governed(
            &mut r.cs,
            &mut governor,
            sci_types::VirtualTime::from_secs(11),
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].query, qid);

        // The door recovers and re-registers (the stale registration is
        // cleared first, as a restarting component would)…
        let _ =
            r.cs.deregister(r.doors[0], sci_types::VirtualTime::from_secs(12));
        r.cs.register(
            Profile::builder(r.doors[0], EntityKind::Device, "door-0")
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("max-silence-us", ContextValue::Int(10_000_000))
                .build(),
            sci_types::VirtualTime::from_secs(12),
        )
        .unwrap();
        // …and promptly fails again. The budget is spent: suppressed.
        let reports = detect_and_repair_governed(
            &mut r.cs,
            &mut governor,
            sci_types::VirtualTime::from_secs(30),
        );
        assert!(reports.is_empty(), "second repair suppressed");
        assert!(governor.suppressed() >= 1);
        assert_eq!(governor.failure_count(r.doors[0]), 2);
    }

    /// The mixed case: the failed door feeds one configuration that has
    /// spent its budget and one that has not. One rewire repairs both,
    /// so both are reported and nothing counts as suppressed.
    #[test]
    fn a_repair_that_was_made_is_reported_whatever_the_budget() {
        let mut r = rig(3);
        let (bob, john) = (r.ids.next_guid(), r.ids.next_guid());
        let spent = subscribe_location(&mut r, bob);
        let fresh = subscribe_location(&mut r, john);
        let mut governor = AdaptationGovernor::new(AdaptationPolicy {
            max_repairs_per_window: 1,
            window: VirtualDuration::from_secs(10_000),
        });
        assert!(governor.admit_repair(spent, sci_types::VirtualTime::from_secs(1)));

        for door in &r.doors[1..] {
            r.cs.heartbeat(*door, sci_types::VirtualTime::from_secs(11))
                .unwrap();
        }
        let reports = detect_and_repair_governed(
            &mut r.cs,
            &mut governor,
            sci_types::VirtualTime::from_secs(11),
        );
        let mut repaired: Vec<Guid> = reports.iter().map(|rep| rep.query).collect();
        repaired.sort();
        let mut both = vec![spent, fresh];
        both.sort();
        assert_eq!(repaired, both, "both rewired, both reported");
        assert_eq!(governor.suppressed(), 0, "no failure was left unrepaired");
        for query in both {
            let sources = &r.cs.configuration(query).unwrap().sources;
            assert!(!sources.contains(&r.doors[0]), "{query} is off the door");
        }
    }

    /// The oracle for `reconcile`: first wiring follows the plan, the
    /// plan follows the rule, so a rewire straight after it — for every
    /// door's outputs, over shared and unshared instances — finds
    /// nothing to do: same subscriptions, same ids, same topics.
    #[test]
    fn a_rewire_straight_after_first_wiring_is_a_no_op() {
        for doors in 1..=4 {
            let mut r = rig(doors);
            let (bob, john) = (r.ids.next_guid(), r.ids.next_guid());
            subscribe_location(&mut r, bob);
            subscribe_location(&mut r, bob);
            subscribe_location(&mut r, john);
            assert_eq!(r.cs.instance_count(), 2, "bob's is shared, john's is not");
            let app = r.ids.next_guid();
            let direct = Query::builder(r.ids.next_guid(), app)
                .info(ContextType::Presence)
                .mode(Mode::Subscribe)
                .build();
            r.cs.submit_query(&direct, sci_types::VirtualTime::ZERO)
                .unwrap();

            let wiring = |cs: &ContextServer| -> Vec<String> {
                let bus = cs.mediator().bus();
                bus.iter()
                    .map(|s| format!("{} {} {}", s.id, s.subscriber, s.topic))
                    .collect()
            };
            let as_wired = wiring(&r.cs);
            assert_eq!(as_wired.len(), 2 * doors + 3 + doors);
            for door in r.doors.clone() {
                let outputs = output_types(r.cs.profiles().get(door).unwrap());
                assert!(rewire(&mut r.cs, &outputs).is_empty(), "{doors} doors");
            }
            assert_eq!(wiring(&r.cs), as_wired, "{doors} doors");
            assert!(r.cs.audit_configurations().is_clean());
        }
    }

    #[test]
    fn reregistration_heals_exclusion() {
        let mut r = rig(2);
        let bob = r.ids.next_guid();
        subscribe_location(&mut r, bob);
        repair_source(&mut r.cs, r.doors[0], sci_types::VirtualTime::from_secs(1));
        assert!(r.cs.excluded().contains(&r.doors[0]));

        // The door comes back (re-registered after a restart).
        r.cs.deregister(r.doors[0], sci_types::VirtualTime::from_secs(2))
            .ok();
        r.cs.register(
            Profile::builder(r.doors[0], EntityKind::Device, "door-0")
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("max-silence-us", ContextValue::Int(10_000_000))
                .build(),
            sci_types::VirtualTime::from_secs(3),
        )
        .unwrap();
        assert!(!r.cs.excluded().contains(&r.doors[0]));
        let _ = VirtualDuration::from_secs(1);
    }
}
