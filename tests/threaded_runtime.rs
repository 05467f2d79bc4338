//! Integration test: the hybrid communication model (paper §4) under
//! real concurrency — "a combination of distributed events and point to
//! point communication". A Range has one Event Mediator whatever the
//! execution mode: here it lives on a `RangeRuntime` worker thread,
//! world-simulator events are `cast` into it from the test thread
//! (distributed events), and a service lookup is a `call` — command in,
//! typed reply back (point to point).

use sci::prelude::*;
use sci::sensors::mobility::{Leg, MovementPlan};

/// A range over the level-ten plan with the world's door sensors and
/// one thermometer registered; every call builds the same server.
fn level_ten(world_sensors: &[(Guid, String)], thermometer: Guid) -> ContextServer {
    let mut cs = ContextServer::new(Guid::from_u128(0x10), "level-ten", capa_level10());
    for (guid, door) in world_sensors {
        cs.register(
            Profile::builder(*guid, EntityKind::Device, format!("doorSensor-{door}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
    }
    cs.register(
        Profile::builder(thermometer, EntityKind::Device, "thermometer")
            .output(PortSpec::new("temperature", ContextType::Temperature))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    cs
}

fn deliveries(cs: &mut ContextServer, app: Guid) -> Vec<(Guid, Guid, ContextEvent)> {
    let drained = cs.drain_outbox_for(app);
    drained
        .into_iter()
        .map(|d| (d.app, d.query, d.event))
        .collect()
}

#[test]
fn world_events_fan_out_across_threads() {
    let mut ids = GuidGenerator::seeded(101);
    let mut world = World::new(capa_level10());
    let sensors = world.auto_door_sensors(&mut ids);
    let (bob, john) = (ids.next_guid(), ids.next_guid());
    for (who, name, rooms) in [
        (bob, "Bob", ["L10.01", "L10.02", "bay"]),
        (john, "John", ["L10.03", "L10.01", "L10.02"]),
    ] {
        let legs = rooms.map(|room| Leg::new(room, VirtualDuration::from_secs(10)));
        let person = SimPerson::new(who, name, Coord::new(4.0, 1.0));
        world
            .spawn_person(person.with_plan(MovementPlan::scripted(legs)))
            .unwrap();
    }
    let mut thermometer = TemperatureSensor::new(ids.next_guid(), "L10.01");

    // Consumer 1: all presence events. Consumer 2: only those about Bob.
    let (presence_app, bob_app) = (ids.next_guid(), ids.next_guid());
    let queries = [
        Query::builder(ids.next_guid(), presence_app)
            .info(ContextType::Presence)
            .mode(Mode::Subscribe)
            .build(),
        Query::builder(ids.next_guid(), bob_app)
            .info_matching(
                ContextType::Presence,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build(),
    ];

    // The same commands go to a range worker on its own thread and,
    // inline on this thread, to an identical server.
    let mut inline = level_ten(&sensors, thermometer.id());
    let mut range = RangeRuntime::spawn(level_ten(&sensors, thermometer.id()));
    for q in queries {
        inline
            .handle(RangeCommand::Submit(Box::new(q.clone())), VirtualTime::ZERO)
            .unwrap();
        range
            .cast(RangeCommand::Submit(Box::new(q)), VirtualTime::ZERO)
            .unwrap();
    }

    // Drive the world on this thread, casting into the worker.
    let dt = VirtualDuration::from_secs(2);
    let mut now = VirtualTime::ZERO;
    let (mut produced, mut about_bob) = (0usize, 0usize);
    for _ in 0..120 {
        now += dt;
        let mut events = world.tick(now, dt).unwrap();
        produced += events.len();
        about_bob += events.iter().filter(|e| e.subject() == Some(bob)).count();
        events.extend(thermometer.tick(now));
        for event in events {
            inline
                .handle(RangeCommand::Ingest(event.clone()), now)
                .unwrap();
            range.cast(RangeCommand::Ingest(event), now).unwrap();
        }
    }
    assert!(about_bob >= 4, "bob crossed several sensed doors");
    assert!(produced > about_bob, "john moved too");

    // Each application drains exactly what the inline run delivered to
    // it, in the same order, from the server the stopped worker hands
    // back; collecting the replies is the barrier behind the casts.
    range.drain_pending().unwrap();
    assert!(range.take_errors().is_empty());
    let mut worker = range.shutdown().expect("worker stopped cleanly");
    for (app, expected) in [(presence_app, produced), (bob_app, about_bob)] {
        let threaded = deliveries(&mut worker, app);
        assert_eq!(threaded, deliveries(&mut inline, app));
        assert_eq!(threaded.len(), expected);
        assert!(threaded.iter().all(|(to, ..)| *to == app));
    }
    assert_eq!(
        worker.snapshot().counter("bus.deliver.count"),
        inline.snapshot().counter("bus.deliver.count")
    );
}

#[test]
fn service_lookup_is_request_response_across_threads() {
    // A printer registers and advertises its service with pipelined
    // casts; an application then looks the service up with a call — the
    // point-to-point half of the hybrid model used by Advertisement
    // interactions. The reply is typed, and it can only name the
    // printer if the worker applied the casts first.
    let mut ids = GuidGenerator::seeded(7);
    let mut range = RangeRuntime::spawn(ContextServer::new(
        ids.next_guid(),
        "level-ten",
        capa_level10(),
    ));
    let printer = ids.next_guid();
    let profile = Profile::builder(printer, EntityKind::Device, "P1")
        .output(PortSpec::new("status", ContextType::PrinterStatus))
        .attribute("service", ContextValue::text("printing"))
        .build();
    let ad = Advertisement::new(printer, "printing").with_operation(sci::types::Operation::new(
        "submit-job",
        [ContextType::custom("document")],
        Some(ContextType::custom("ticket")),
    ));
    range
        .cast(RangeCommand::Register(Box::new(profile)), VirtualTime::ZERO)
        .unwrap();
    range
        .cast(RangeCommand::Advertise(Box::new(ad)), VirtualTime::ZERO)
        .unwrap();

    let lookup = Query::builder(ids.next_guid(), ids.next_guid())
        .kind(EntityKind::Device)
        .attr_eq("service", "printing")
        .mode(Mode::Advertisement)
        .build();
    match range.call(RangeCommand::Submit(Box::new(lookup)), VirtualTime::ZERO) {
        Ok(RangeReply::Answer(QueryAnswer::Advertisements(ads))) => {
            assert_eq!(ads.len(), 1);
            assert_eq!(ads[0].provider(), printer);
        }
        other => panic!("expected the printer's advertisement, got {other:?}"),
    }
    assert!(range.take_errors().is_empty(), "both casts were applied");

    // A request the service cannot satisfy comes back as that call's
    // own error, not as a pipelined one.
    let nobody = Query::builder(ids.next_guid(), ids.next_guid())
        .named(ids.next_guid())
        .mode(Mode::Advertisement)
        .build();
    assert!(matches!(
        range.call(RangeCommand::Submit(Box::new(nobody)), VirtualTime::ZERO),
        Err(SciError::Unresolvable(_))
    ));
    assert!(range.take_errors().is_empty());
    assert!(range.shutdown().is_some());
}
