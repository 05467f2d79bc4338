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
//! wiring rule ([`sources_for`](crate::resolver::sources_for); for one
//! entity, [`feeds`]); every source-fed input is recorded on its
//! consumer as a [`Need`] when the plan first wires it. Adapting is
//! keeping the two equal — a standing query is a view over the provider
//! registry, maintained, not re-derived per kind of event.
//!
//! The rule names *every* source that satisfies a need, so a need's
//! answer changes by exactly the source that changed, and the one pass,
//! `rewire`, is per source. It is what a source's **arrival**
//! (`Register`), its **departure** (`Deregister`, `MigrateOut`), its
//! **failure** (`Fail`) and a status event that **changes an
//! attribute** a need tests (`Ingest`) each are; a **declared
//! equivalence** (`DeclareEquivalence`) is the pass once per source of
//! the merged class. The pass visits only the needs the source's outputs
//! can feed, asks [`feeds`] whether it feeds each now, and finds the
//! consumer's subscriptions to it in the bus's own index
//! ([`EventBus::naming`](sci_event::EventBus::naming)) — *without any
//! application involvement*, the contrast with the Context Toolkit
//! (static wiring) and Solar (explicit graphs) baselines measured in
//! experiment E6.
//!
//! Every one of those is a logged command, so a range rebuilt from its
//! log is wired as the live one was. Failure is *detected* by the Event
//! Mediator, which tracks liveness of source CEs that declared a
//! `max-silence-us` QoS attribute — a read; the public functions here
//! turn it into the decision: [`repair_source`] issues one `Fail`,
//! [`detect_and_repair`] one per silent source, and
//! [`detect_and_repair_governed`] bounds how often it may.

use std::collections::HashMap;

use sci_event::bus::{SubId, SubscriptionView};
use sci_event::{EventMediator, Topic};
use sci_types::{ContextType, Guid, Profile, RangeReply, VirtualDuration, VirtualTime};

use crate::configuration::{input_topic, Configuration};
use crate::context_server::ContextServer;
use crate::profile_manager::ProfileManager;
use crate::resolver::{feeds, Need};
use crate::runtime::RangeCommand;

pub use sci_types::RepairReport;

/// The context types a source's outputs carry — what [`rewire`] is told
/// the entity can feed when it arrives, leaves or fails. Empty for
/// anything else: a derived CE feeds no need itself, its instances do,
/// and the plan wires those.
pub(crate) fn output_types(profile: &Profile) -> Vec<ContextType> {
    match profile.is_source() {
        true => profile.outputs().iter().map(|o| o.ty.clone()).collect(),
        false => Vec::new(),
    }
}

/// Brings one consumer's subscriptions for one need to `wanted`, the
/// output type the rule says `source` feeds the need on (`None`: it
/// does not). Of the `subs` that name `source` and the need's subject
/// and serve the need, those on `wanted` stay and the rest are
/// unsubscribed; when `wanted` names a type none of them is on, one is
/// subscribed. Returns what was dropped and what was added.
fn follow(
    (mediator, profiles): (&mut EventMediator, &ProfileManager),
    (consumer, one_time): (Guid, bool),
    subs: &mut Vec<SubId>,
    need: &Need,
    (source, wanted): (Guid, Option<ContextType>),
) -> (Vec<SubId>, Option<SubId>) {
    // A consumer's inputs of compatible types about the same subject
    // are fed alike, so each of its subscriptions to `source` about the
    // subject in a compatible type serves the need.
    let serves = |view: &SubscriptionView<'_>| {
        let compatible = |ty: &ContextType| profiles.compatible(ty, &need.ty);
        subs.contains(&view.id) && view.topic.ty().is_some_and(compatible)
    };
    let (mut held, mut dropped) = (false, Vec::new());
    for view in mediator.bus().naming(source, need.subject).filter(serves) {
        match view.topic.ty() == wanted.as_ref() {
            true => held = true,
            false => dropped.push(view.id),
        }
    }
    for &sub in &dropped {
        let _ = mediator.unsubscribe(sub);
    }
    let added = wanted.filter(|_| !held).map(|ty| {
        let topic = input_topic(Some(ty), source, need.subject);
        mediator.subscribe(consumer, topic, one_time)
    });
    subs.retain(|sub| !dropped.contains(sub));
    subs.extend(added);
    (dropped, added)
}

/// The one adaptation pass. `source`, whose outputs carry `outputs`,
/// arrived, left, failed or changed an attribute: every need those
/// outputs can feed is brought to the rule's answer for `source` —
/// hosted instances first, in GUID order, then the applications fed by
/// sources directly, in query-id order. The rule's answer for every
/// other source is what it was, so nothing else is read. Subscription
/// order is delivery order, so a replay of the same commands rewires,
/// and later delivers, identically. An input fed by another instance is
/// nobody's need: it stays derived-fed.
///
/// After first wiring this pass (with [`unwire`]'s raw half) is the
/// only writer of a configuration's `sources`, `root_producers` and
/// `caa_subs`, and of the server's index of the latter. Returns the
/// configurations `source` started or stopped feeding, in query-id
/// order.
pub(crate) fn rewire(cs: &mut ContextServer, source: Guid, outputs: &[ContextType]) -> Vec<Guid> {
    if outputs.is_empty() {
        return Vec::new();
    }
    let (profiles, excluded) = (&cs.profiles, &cs.excluded);
    let concerns = |need: &Need| outputs.iter().any(|ty| profiles.compatible(ty, &need.ty));
    // A source that left is registered no more, and feeds nothing.
    let profile = profiles.get(source);
    let rule = |need: &Need| feeds(profiles, profile?, need, excluded);

    // Every instance with a need `source` can feed, and whether it does.
    let mut hosts: Vec<(Guid, bool)> = (cs.instances.iter())
        .filter(|state| state.needs.iter().any(concerns))
        .map(|state| (state.instance, false))
        .collect();
    hosts.sort_unstable();
    for (host, fed) in &mut hosts {
        let Some(state) = cs.instances.get_mut(*host) else {
            continue;
        };
        for need in state.needs.iter().filter(|need| concerns(need)) {
            let wanted = rule(need);
            *fed |= wanted.is_some();
            let bus = (&mut cs.mediator, profiles);
            follow(bus, (*host, false), &mut state.subs, need, (source, wanted));
        }
    }

    let fed_by = |i: &Guid| {
        let at = hosts.binary_search_by_key(i, |&(host, _)| host).ok()?;
        Some(hosts[at].1)
    };
    let mut affected: Vec<&mut Configuration> = (cs.configurations.values_mut())
        .filter(|config| {
            let hosted = |i: &Guid| fed_by(i).is_some();
            config.source_need().is_some_and(concerns) || config.instances.iter().any(hosted)
        })
        .collect();
    affected.sort_unstable_by_key(|config| config.query_id);
    let mut changed = Vec::new();
    for config in affected {
        let fed = match config.need.as_ref().filter(|_| config.instances.is_empty()) {
            Some(need) => {
                let (wanted, query) = (rule(need), config.query_id);
                let fed = wanted.is_some();
                let bus = (&mut cs.mediator, profiles);
                let subscriber = (config.owner, config.one_time);
                let change = (source, wanted);
                let (dropped, added) = follow(bus, subscriber, &mut config.caa_subs, need, change);
                for sub in &dropped {
                    cs.caa_sub_index.remove(sub);
                }
                cs.caa_sub_index.extend(added.map(|sub| (sub, query)));
                let at = config.root_producers.iter().position(|&p| p == source);
                match (at, fed) {
                    (None, true) => config.root_producers.push(source),
                    (Some(at), false) => {
                        config.root_producers.remove(at);
                    }
                    _ => {}
                }
                fed
            }
            None => config.instances.iter().any(|i| fed_by(i) == Some(true)),
        };
        match (config.sources.binary_search(&source), fed) {
            (Err(at), true) => config.sources.insert(at, source),
            (Ok(at), false) => {
                config.sources.remove(at);
            }
            _ => continue,
        }
        changed.push(config.query_id);
    }
    changed
}

/// A producer is gone — it left, or it failed: [`rewire`] for what its
/// `outputs` fed (an entity without outputs fed no need), and the raw
/// `Kind`/`Named` subscriptions that selected it drop it. A raw
/// subscription has no need, so nothing takes the producer's place.
/// Returns the configurations it fed: [`rewire`]'s, then the raw ones.
pub(crate) fn unwire(cs: &mut ContextServer, gone: Guid, outputs: &[ContextType]) -> Vec<Guid> {
    let mut fed = rewire(cs, gone, outputs);
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
        fed.push(config.query_id);
    }
    fed
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
    use crate::configuration::InstanceState;
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

    /// `doors` doors; bob's location twice (one shared instance),
    /// john's, and straight from the sources every door's presence and
    /// the presence of bob — a consumer beside bob's instance on each
    /// door's `(door, bob)` topic.
    fn wired(doors: usize) -> Rig {
        let mut r = rig(doors);
        let (bob, john) = (r.ids.next_guid(), r.ids.next_guid());
        subscribe_location(&mut r, bob);
        subscribe_location(&mut r, bob);
        subscribe_location(&mut r, john);
        assert_eq!(r.cs.instance_count(), 2, "bob's is shared, john's is not");
        let about_bob = vec![Predicate::eq("subject", ContextValue::Id(bob))];
        for constraints in [Vec::new(), about_bob] {
            let app = r.ids.next_guid();
            let direct = Query::builder(r.ids.next_guid(), app)
                .info_matching(ContextType::Presence, constraints)
                .mode(Mode::Subscribe)
                .build();
            r.cs.submit_query(&direct, sci_types::VirtualTime::ZERO)
                .unwrap();
        }
        r
    }

    /// Every live subscription as `(id, subscriber, topic)`, in id
    /// order.
    fn wiring(cs: &ContextServer) -> Vec<(SubId, Guid, Topic)> {
        let bus = cs.mediator().bus();
        bus.iter()
            .map(|s| (s.id, s.subscriber, s.topic.clone()))
            .collect()
    }

    /// The oracle for the pass: first wiring follows the plan, the plan
    /// follows the rule, so the pass straight after it — for each door,
    /// over shared and unshared instances — finds nothing to do: same
    /// subscriptions, same ids, same topics.
    #[test]
    fn a_rewire_straight_after_first_wiring_is_a_no_op() {
        for doors in 1..=4 {
            let mut r = wired(doors);
            let as_wired = wiring(&r.cs);
            assert_eq!(as_wired.len(), 2 * doors + 3 + 2 * doors);
            for door in r.doors.clone() {
                let outputs = output_types(r.cs.profiles().get(door).unwrap());
                let changed = rewire(&mut r.cs, door, &outputs);
                assert!(changed.is_empty(), "{doors} doors");
            }
            assert_eq!(wiring(&r.cs), as_wired, "{doors} doors");
            assert!(r.cs.audit_configurations().is_clean());
        }
    }

    /// A door leaves and rejoins: the pass touches only what names it.
    /// Every other subscription keeps its id and topic; the door's come
    /// back one per need — instances in GUID order, then the
    /// applications fed straight from sources in query-id order — and
    /// the audit is clean at both steps.
    #[test]
    fn a_leave_and_rejoin_rewires_only_what_names_the_door() {
        for doors in 1..=4 {
            let mut r = wired(doors);
            let door = r.doors[doors / 2];
            let profile = r.cs.profiles().get(door).unwrap().clone();
            let split = |cs: &ContextServer| -> (Vec<_>, Vec<_>) {
                let others = |(_, _, topic): &(SubId, Guid, Topic)| topic.source() != Some(door);
                wiring(cs).into_iter().partition(others)
            };
            let (rest, before) = split(&r.cs);
            assert_eq!(before.len(), 4, "two instances and two applications");

            let t = VirtualTime::from_secs(1);
            r.cs.deregister(door, t).unwrap();
            assert_eq!(wiring(&r.cs), rest, "{doors} doors: only the door's go");
            assert!(r.cs.configurations().all(|c| !c.sources.contains(&door)));
            assert!(r.cs.audit_configurations().is_clean());

            r.cs.register(profile, t).unwrap();
            let (kept, back) = split(&r.cs);
            assert_eq!(kept, rest, "{doors} doors: the others keep ids and topics");
            assert!(back
                .iter()
                .all(|(id, ..)| rest.iter().all(|(old, ..)| id > old)));
            let mut hosts: Vec<&InstanceState> = r.cs.instances().iter().collect();
            hosts.sort_by_key(|state| state.instance);
            let mut direct: Vec<&Configuration> = r.cs.configurations().collect();
            direct.retain(|config| config.source_need().is_some());
            direct.sort_by_key(|config| config.query_id);
            let needs = hosts
                .iter()
                .flat_map(|state| state.needs.iter().map(|need| (state.instance, need)))
                .chain(
                    direct
                        .iter()
                        .filter_map(|c| Some((c.owner, c.source_need()?))),
                );
            let expected: Vec<(Guid, Topic)> = needs
                .map(|(consumer, need)| {
                    let topic = input_topic(Some(ContextType::Presence), door, need.subject);
                    (consumer, topic)
                })
                .collect();
            let back: Vec<(Guid, Topic)> = back.into_iter().map(|(_, s, t)| (s, t)).collect();
            assert_eq!(back, expected, "{doors} doors");
            assert!(r.cs.configurations().all(|c| c.sources.contains(&door)));
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
