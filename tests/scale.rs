//! Scale test: a large range under sustained load — the paper's
//! "scalable infrastructure" requirement exercised end to end.

use sci::prelude::*;

/// A range named `hall` on the level-ten plan with `doors` presence
/// sensors and the `objLocationCE` that composes over them.
fn hall(ids: &mut GuidGenerator, doors: usize) -> (ContextServer, Vec<Guid>) {
    let plan = capa_level10();
    let mut cs = ContextServer::new(ids.next_guid(), "hall", plan.clone());
    let doors = (0..doors)
        .map(|i| {
            let id = ids.next_guid();
            cs.register(
                Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .build(),
                VirtualTime::ZERO,
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
        VirtualTime::ZERO,
    )
    .unwrap();
    cs.register_logic(
        obj_loc,
        factory(move || ObjLocationLogic::new(plan.clone())),
    );
    (cs, doors)
}

#[test]
fn large_range_sustains_load() {
    let mut ids = GuidGenerator::seeded(500);
    // 1 000 door sensors and 200 unrelated devices.
    let (mut cs, doors) = hall(&mut ids, 1_000);
    for i in 0..200 {
        let id = ids.next_guid();
        cs.register(
            Profile::builder(id, EntityKind::Device, format!("noise-{i}"))
                .output(PortSpec::new("t", ContextType::Temperature))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
    }

    // 100 applications track 25 distinct subjects (4 apps share each
    // subject's pipeline through reuse).
    let subjects: Vec<Guid> = (0..25).map(|_| ids.next_guid()).collect();
    for k in 0..100 {
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq(
                    "subject",
                    ContextValue::Id(subjects[k % subjects.len()]),
                )],
            )
            .mode(Mode::Subscribe)
            .build();
        cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    }
    assert_eq!(
        cs.instance_count(),
        subjects.len(),
        "reuse keeps one instance per subject"
    );

    // 5 000 presence events round-robin across doors and subjects.
    let rooms = ["lobby", "corridor", "L10.01", "L10.02", "L10.03", "bay"];
    let mut delivered = 0usize;
    for k in 0..5_000usize {
        let t = VirtualTime::from_millis(k as u64 * 100);
        let ev = ContextEvent::new(
            doors[k % doors.len()],
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subjects[k % subjects.len()])),
                ("to", ContextValue::place(rooms[k % rooms.len()])),
            ]),
            t,
        );
        cs.ingest(&ev, t).unwrap();
        delivered += cs.drain_outbox().len();
    }
    // Every event concerns a tracked subject and fans out to its 4 apps.
    assert_eq!(delivered, 5_000 * 4);

    // History is bounded, not runaway.
    assert!(cs.history().len() <= (subjects.len() * 2 + 1) * 32 + 32);
}

/// The composed shape on one range — 200 applications each following
/// one subject plus 5 following everyone, every `objLocationCE` instance
/// wired to every door — must deliver, after half the queries are
/// cancelled, exactly what it delivered before to the half that remain:
/// same applications, same queries, same producers, same payloads, in
/// the same order.
#[test]
fn crowded_range_delivers_the_same_sequence_after_cancelling_half() {
    let mut ids = GuidGenerator::seeded(501);
    let (mut cs, doors) = hall(&mut ids, 16);

    // Unbound queries are slipped in among the bound ones so their
    // subscriptions interleave in id order.
    let subjects: Vec<Guid> = (0..200).map(|_| ids.next_guid()).collect();
    let mut queries = Vec::new();
    for (k, &subject) in subjects.iter().enumerate() {
        let mut about = vec![vec![Predicate::eq("subject", ContextValue::Id(subject))]];
        if k % 40 == 0 {
            about.push(Vec::new());
        }
        for constraints in about {
            let q = Query::builder(ids.next_guid(), ids.next_guid())
                .info_matching(ContextType::Location, constraints)
                .mode(Mode::Subscribe)
                .build();
            cs.submit_query(&q, VirtualTime::ZERO).unwrap();
            queries.push(q.id);
        }
    }
    assert_eq!(queries.len(), 205);

    // Every subject read at three doors, three rooms.
    let rooms = ["lobby", "corridor", "L10.01", "L10.02", "L10.03", "bay"];
    let mut clock = 0u64;
    let mut feed = |cs: &mut ContextServer| {
        let mut out = Vec::new();
        for k in 0..600usize {
            clock += 100;
            let t = VirtualTime::from_millis(clock);
            let ev = ContextEvent::new(
                doors[(k * 7) % doors.len()],
                ContextType::Presence,
                ContextValue::record([
                    ("subject", ContextValue::Id(subjects[k % subjects.len()])),
                    ("to", ContextValue::place(rooms[k % rooms.len()])),
                ]),
                t,
            );
            cs.ingest(&ev, t).unwrap();
            out.extend(cs.drain_outbox().into_iter().map(|d| {
                let ContextEvent {
                    source, payload, ..
                } = d.event;
                (d.app, d.query, source, payload)
            }));
        }
        out
    };

    let before = feed(&mut cs);
    assert_eq!(before.len(), 600 * 6, "one bound + five unbound per read");

    let cancelled: Vec<Guid> = queries.iter().copied().step_by(2).collect();
    for &q in &cancelled {
        cs.cancel_query(q).unwrap();
    }
    let after = feed(&mut cs);
    let expected: Vec<_> = before
        .into_iter()
        .filter(|(_, query, _, _)| !cancelled.contains(query))
        .collect();
    assert!(
        expected.len() > 600,
        "survivors of both kinds still hear reads"
    );
    assert_eq!(after, expected);
}
