//! Integration test: semantic equivalence of context types (paper §6,
//! open issue 2) — the answer to the iQueue critique of §2: "an iQueue
//! application that has been developed to request location data from a
//! network of door sensors cannot take advantage of an environment that
//! provides location information using a wireless detection scheme."
//! In SCI it can: declare the types equivalent and the resolver, the
//! failure-repair path and the new-source path all treat them as one.

use sci::prelude::*;

fn badge_event(source: Guid, subject: Guid, to: &str, t: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        source,
        ContextType::custom("badge-scan"),
        ContextValue::record([
            ("subject", ContextValue::Id(subject)),
            ("from", ContextValue::place("corridor")),
            ("to", ContextValue::place(to)),
        ]),
        t,
    )
}

fn rig_with_badge_scanners(n: usize) -> (ContextServer, GuidGenerator, Vec<Guid>) {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(88);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());

    // The environment provides *badge-scan* events, not Presence.
    let scanners: Vec<Guid> = (0..n)
        .map(|i| {
            let id = ids.next_guid();
            cs.register(
                Profile::builder(id, EntityKind::Device, format!("badge-scanner-{i}"))
                    .output(PortSpec::new("scan", ContextType::custom("badge-scan")))
                    .build(),
                VirtualTime::ZERO,
            )
            .unwrap();
            id
        })
        .collect();

    // objLocationCE was written against Presence.
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let p = plan;
    cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
    (cs, ids, scanners)
}

fn location_query(ids: &mut GuidGenerator, app: Guid, subject: Guid) -> Query {
    Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(subject))],
        )
        .mode(Mode::Subscribe)
        .build()
}

#[test]
fn without_equivalence_the_query_is_unresolvable() {
    let (mut cs, mut ids, _) = rig_with_badge_scanners(2);
    let app = ids.next_guid();
    let bob = ids.next_guid();
    let q = location_query(&mut ids, app, bob);
    assert!(matches!(
        cs.submit_query(&q, VirtualTime::ZERO),
        Err(SciError::Unresolvable(_))
    ));
}

#[test]
fn equivalence_makes_foreign_sources_usable() {
    let (mut cs, mut ids, scanners) = rig_with_badge_scanners(2);
    cs.declare_equivalence(ContextType::Presence, ContextType::custom("badge-scan"));

    let app = ids.next_guid();
    let bob = ids.next_guid();
    let q = location_query(&mut ids, app, bob);
    match cs.submit_query(&q, VirtualTime::ZERO).unwrap() {
        QueryAnswer::Subscribed { .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    // A badge-scan event flows through the Presence-typed pipeline.
    let t = VirtualTime::from_secs(1);
    cs.ingest(&badge_event(scanners[0], bob, "L10.01", t), t)
        .unwrap();
    let out = cs.drain_outbox();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].event.topic, ContextType::Location);
    assert_eq!(
        out[0]
            .event
            .payload
            .field("room")
            .and_then(|v| v.as_text().map(str::to_owned)),
        Some("L10.01".to_owned())
    );
}

#[test]
fn repair_crosses_the_equivalence_boundary() {
    // Presence door sensors fail; the equivalent badge scanners, which
    // were feeding alongside them all along, survive and keep feeding.
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(89);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    cs.declare_equivalence(ContextType::Presence, ContextType::custom("badge-scan"));

    let door = ids.next_guid();
    cs.register(
        Profile::builder(door, EntityKind::Device, "door")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let scanner = ids.next_guid();
    cs.register(
        Profile::builder(scanner, EntityKind::Device, "scanner")
            .output(PortSpec::new("scan", ContextType::custom("badge-scan")))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let p = plan;
    cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));

    let app = ids.next_guid();
    let bob = ids.next_guid();
    let q = location_query(&mut ids, app, bob);
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();

    // Kill the Presence door sensor.
    let reports = sci::core::adaptation::repair_source(&mut cs, door, VirtualTime::from_secs(1));
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].degraded, "the equivalent scanner substitutes");

    // Events from the scanner now reach the application.
    let t = VirtualTime::from_secs(2);
    cs.ingest(&badge_event(scanner, bob, "L10.02", t), t)
        .unwrap();
    assert_eq!(cs.drain_outbox().len(), 1);
}

#[test]
fn late_equivalent_source_is_wired_into_live_configs() {
    let (mut cs, mut ids, scanners) = rig_with_badge_scanners(1);
    cs.declare_equivalence(ContextType::Presence, ContextType::custom("badge-scan"));
    let app = ids.next_guid();
    let bob = ids.next_guid();
    let q = location_query(&mut ids, app, bob);
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();

    // A *Presence* door sensor arrives later — a different but
    // equivalent type — and feeds the running configuration.
    let door = ids.next_guid();
    cs.register(
        Profile::builder(door, EntityKind::Device, "door-late")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    let t = VirtualTime::from_secs(2);
    let ev = ContextEvent::new(
        door,
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(bob)),
            ("to", ContextValue::place("bay")),
        ]),
        t,
    );
    cs.ingest(&ev, t).unwrap();
    assert_eq!(cs.drain_outbox().len(), 1, "late door feeds the pipeline");
    let _ = scanners;
}

/// R6: `DeclareEquivalence` changes which sources feed a running
/// subscription's inputs, exactly as it would for an identical query
/// submitted a moment later — the declaration rewires.
#[test]
fn a_late_declaration_rewires_running_subscriptions() {
    let (mut cs, mut ids, scanners) = rig_with_badge_scanners(1);
    let door = ids.next_guid();
    cs.register(
        Profile::builder(door, EntityKind::Device, "door")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let (app, bob) = (ids.next_guid(), ids.next_guid());
    let running = location_query(&mut ids, app, bob);
    cs.submit_query(&running, VirtualTime::ZERO).unwrap();
    assert_eq!(cs.configuration(running.id).unwrap().sources, vec![door]);

    cs.declare_equivalence(ContextType::Presence, ContextType::custom("badge-scan"));
    let twin = location_query(&mut ids, app, bob);
    cs.submit_query(&twin, VirtualTime::from_secs(1)).unwrap();
    let feeding = |id: Guid| {
        let mut sources = cs.configuration(id).unwrap().sources.clone();
        sources.sort();
        sources
    };
    assert_eq!(feeding(running.id), feeding(twin.id));
    assert_eq!(feeding(running.id).len(), 2, "door and scanner");
    cs.cancel_query(twin.id).unwrap();

    let t = VirtualTime::from_secs(2);
    cs.ingest(&badge_event(scanners[0], bob, "L10.01", t), t)
        .unwrap();
    let out = cs.drain_outbox();
    assert_eq!(out.len(), 1, "the now-equivalent scanner feeds it");
    assert_eq!(out[0].query, running.id);
    let audit = cs.audit_configurations();
    assert!(audit.is_clean(), "{audit}");
}
