//! Graceful degradation: when a producing range is unreachable (overlay
//! partition) or down (worker crashed), federated queries return a
//! *partial* answer carrying degraded-QoC metadata — the missing range
//! and the reason — instead of an error. Parked relays from the outage
//! window deliver once connectivity returns: degraded, not lossy.

use sci::prelude::*;

fn range_plan(i: usize) -> FloorPlan {
    FloorPlan::builder("campus")
        .zone(format!("wing-{i}"))
        .room(
            format!("hall-{i}"),
            Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
        )
        .build()
        .unwrap()
}

fn server(i: usize, ids: &mut GuidGenerator) -> (ContextServer, Guid) {
    let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
    let sensor = ids.next_guid();
    cs.register(
        Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    (cs, sensor)
}

fn presence_event(sensor: Guid, subject: u128, at: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(subject)))]),
        at,
    )
}

/// Serial federation over a faulty overlay: a named partition islands
/// the producing range. Queries degrade to partial answers, relays from
/// the outage window park, and the heal restores everything unlost.
#[test]
fn partitioned_producer_degrades_then_recovers() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed: Federation<FaultyTransport<SimNetwork>> =
        Federation::with_transport(FaultyTransport::new(SimNetwork::new(), 9), 3);
    let mut sensors = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..3 {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();

    // App homed in range-0, subscribed to presence in range-1.
    let app = ids.next_guid();
    let sub = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &sub, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    // Healthy baseline: events relay, profile queries forward.
    fed.ingest_at(
        "range-1",
        &presence_event(sensors[1], 1, VirtualTime::from_secs(1)),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    assert_eq!(fed.deliveries_for(app).len(), 1);

    // Island the producer.
    fed.transport_mut().partition("maintenance", &[nodes[1]]);

    // A forwarded query now yields a *partial* answer with degraded-QoC
    // metadata, not an error.
    let probe = Query::builder(ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_range("range-1")
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed
        .submit_from("range-0", &probe, VirtualTime::from_secs(2))
        .unwrap();
    match &fa.answer {
        QueryAnswer::Partial {
            missing_range,
            reason,
            ..
        } => {
            assert!(fa.answer.is_degraded());
            assert_eq!(missing_range, "range-1");
            assert_eq!(reason, "unroutable");
        }
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert_eq!(fed.partial_answers(), 1);

    // Events produced during the outage park rather than vanish.
    for k in 0..3u64 {
        let t = VirtualTime::from_secs(3 + k);
        fed.ingest_at(
            "range-1",
            &presence_event(sensors[1], 10 + u128::from(k), t),
            t,
        )
        .unwrap();
    }
    assert!(
        fed.deliveries_for(app).is_empty(),
        "partitioned: nothing crosses"
    );
    assert_eq!(fed.pending_relay_count(), 3);
    assert!(fed.retry_parked() >= 3);

    // Heal: the next pump flushes the parked relays, the query path is
    // whole again, and the counter shows what the outage cost.
    fed.transport_mut().heal_partitions();
    fed.pump(VirtualTime::from_secs(10)).unwrap();
    assert_eq!(fed.pending_relay_count(), 0);
    assert_eq!(
        fed.deliveries_for(app).len(),
        3,
        "outage window recovered in full"
    );
    let fa = fed
        .submit_from("range-0", &probe, VirtualTime::from_secs(11))
        .unwrap();
    assert!(!fa.answer.is_degraded());
    match fa.answer {
        QueryAnswer::Profiles(ps) => assert_eq!(ps.len(), 1),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        fed.partial_answers(),
        1,
        "recovered answers are not partial"
    );
    assert_eq!(fed.snapshot().counter("federation.answers.partial"), 1);
}

/// Parallel federation: a crashed range worker degrades cross-range
/// queries to a partial answer with reason `range-down`; siblings keep
/// full service.
#[test]
fn crashed_range_yields_range_down_partial_answer() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);

    // range-0 hosts a logic bomb wired to presence input.
    let (mut cs0, sensor0) = server(0, &mut ids);
    let bomb = ids.next_guid();
    cs0.register(
        Profile::builder(bomb, EntityKind::Software, "bomb")
            .input(PortSpec::new("in", ContextType::Presence))
            .output(PortSpec::new("out", ContextType::Temperature))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    struct PanicLogic;
    impl sci::core::logic::EntityLogic for PanicLogic {
        fn on_event(
            &mut self,
            _event: &ContextEvent,
            _binding: &Metadata,
            _now: VirtualTime,
        ) -> Vec<(ContextType, ContextValue)> {
            panic!("logic bomb")
        }
    }
    cs0.register_logic(bomb, factory(|| PanicLogic));
    fed.add_range(cs0).unwrap();
    let (cs1, _) = server(1, &mut ids);
    fed.add_range(cs1).unwrap();
    let (cs2, _) = server(2, &mut ids);
    fed.add_range(cs2).unwrap();
    fed.connect_full();

    // Trigger the bomb: range-0's worker dies.
    let app = ids.next_guid();
    let trigger = Query::builder(ids.next_guid(), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &trigger, VirtualTime::ZERO)
        .unwrap();
    fed.ingest_at(
        "range-0",
        &presence_event(sensor0, 1, VirtualTime::from_secs(1)),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    assert!(matches!(
        fed.sync(VirtualTime::from_secs(1)),
        Err(SciError::RangeDown(_))
    ));

    // A sibling querying the dead range gets a partial answer, not an
    // error: the rest of the federation still answers.
    let probe = Query::builder(ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_range("range-0")
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed
        .submit_from("range-1", &probe, VirtualTime::from_secs(2))
        .unwrap();
    match &fa.answer {
        QueryAnswer::Partial {
            missing_range,
            reason,
            ..
        } => {
            assert_eq!(missing_range, "range-0");
            assert_eq!(reason, "range-down");
        }
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert_eq!(fed.partial_answers(), 1);
    assert_eq!(fed.snapshot().counter("federation.answers.partial"), 1);

    // Healthy ranges answer each other untouched.
    let fa = fed
        .submit_from(
            "range-1",
            &Query::builder(ids.next_guid(), app)
                .kind(EntityKind::Device)
                .in_range("range-2")
                .all()
                .mode(Mode::Profile)
                .build(),
            VirtualTime::from_secs(3),
        )
        .unwrap();
    assert!(!fa.answer.is_degraded());

    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), 2);
}

/// Regression: a range stopped with `kill_range` made a forwarded query
/// fail with `Internal("… has no live host")` instead of degrading, and
/// a submission *from* it was `Internal` too. A known range nobody is
/// serving is `RangeDown`, named; after `recover_range` it answers.
#[test]
fn a_killed_range_degrades_and_answers_again_once_recovered() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);
    let mut identity = None;
    for i in 0..2 {
        let (cs, sensor) = server(i, &mut ids);
        identity = Some((cs.id(), sensor));
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let app = ids.next_guid();
    let probe = Query::builder(ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_range("range-1")
        .all()
        .mode(Mode::Profile)
        .build();

    fed.kill_range("range-1").unwrap();
    let fa = fed
        .submit_from("range-0", &probe, VirtualTime::from_secs(1))
        .unwrap();
    match &fa.answer {
        QueryAnswer::Partial {
            missing_range,
            reason,
            ..
        } => assert_eq!(
            (missing_range.as_str(), reason.as_str()),
            ("range-1", "range-down")
        ),
        other => panic!("expected a partial answer, got {other:?}"),
    }
    assert_eq!(fed.snapshot().counter("federation.answers.partial"), 1);
    assert!(matches!(
        fed.submit_from("range-1", &probe, VirtualTime::from_secs(1)),
        Err(SciError::RangeDown(name)) if name == "range-1"
    ));

    // The same identity back, with what its log would have rebuilt.
    let (id, sensor) = identity.unwrap();
    let mut cs = ContextServer::new(id, "range-1", range_plan(1));
    cs.register(
        Profile::builder(sensor, EntityKind::Device, "sensor-1")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    fed.recover_range(cs).unwrap();
    let fa = fed
        .submit_from("range-0", &probe, VirtualTime::from_secs(2))
        .unwrap();
    assert!(matches!(&fa.answer, QueryAnswer::Profiles(ps) if ps.len() == 1));
    fed.shutdown();
}
