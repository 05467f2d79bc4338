//! Integration test: three federated ranges over the SCINET — query
//! forwarding, remote subscriptions with event relay, and behaviour
//! under overlay partitions (the fault layer's named groups).

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

struct Rig<T: Transport = SimNetwork> {
    fed: Federation<T>,
    ids: GuidGenerator,
    nodes: Vec<Guid>,
    sensors: Vec<Guid>,
}

fn rig(n: usize) -> Rig {
    rig_over(n, SimNetwork::new())
}

fn rig_over<T: Transport>(n: usize, net: T) -> Rig<T> {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = Federation::with_transport(net, 3);
    let mut nodes = Vec::new();
    let mut sensors = Vec::new();
    for i in 0..n {
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), range_plan(i));
        let sensor = ids.next_guid();
        cs.register(
            Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("service", ContextValue::text("sensing"))
                .attribute("room", ContextValue::place(format!("hall-{i}")))
                .build(),
            VirtualTime::ZERO,
        )
        .unwrap();
        sensors.push(sensor);
        nodes.push(fed.add_range(cs).unwrap());
    }
    fed.connect_full();
    Rig {
        fed,
        ids,
        nodes,
        sensors,
    }
}

#[test]
fn profile_queries_forward_between_all_pairs() {
    let mut r = rig(3);
    for i in 0..3 {
        for j in 0..3 {
            let app = r.ids.next_guid();
            let q = Query::builder(r.ids.next_guid(), app)
                .kind(EntityKind::Device)
                .in_range(format!("range-{j}"))
                .all()
                .mode(Mode::Profile)
                .build();
            let fa = r
                .fed
                .submit_from(&format!("range-{i}"), &q, VirtualTime::ZERO)
                .unwrap();
            match fa.answer {
                QueryAnswer::Profiles(ps) => {
                    assert_eq!(ps.len(), 1);
                    assert_eq!(ps[0].name(), format!("sensor-{j}"));
                }
                other => panic!("unexpected {other:?}"),
            }
            if i == j {
                assert_eq!(fa.hops, 0);
            } else {
                assert!(fa.hops >= 2, "round trip crosses the overlay");
            }
        }
    }
}

#[test]
fn remote_subscription_streams_relayed_events() {
    let mut r = rig(3);
    let app = r.ids.next_guid();
    // An app homed in range-0 subscribes to presence in range-2.
    let q = Query::builder(r.ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-2")
        .mode(Mode::Subscribe)
        .build();
    let fa = r.fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    // Ten presence events in range-2 all arrive at the app in range-0.
    for k in 0..10u64 {
        let ev = ContextEvent::new(
            r.sensors[2],
            ContextType::Presence,
            ContextValue::record([("subject", ContextValue::Id(r.ids.next_guid()))]),
            VirtualTime::from_secs(k),
        );
        r.fed
            .ingest_at("range-2", &ev, VirtualTime::from_secs(k))
            .unwrap();
    }
    let deliveries = r.fed.deliveries_for(app);
    assert_eq!(deliveries.len(), 10);
    assert!(deliveries.iter().all(|d| d.query == q.id));
    // Relays really crossed the overlay.
    assert!(r.fed.network_stats().delivered() >= 12);
}

#[test]
fn partition_degrades_forwarding_until_healed() {
    // A fault layer that injects nothing (it starts at
    // `FaultProbs::NONE`) and owns the partitions.
    let mut r = rig_over(3, FaultyTransport::new(SimNetwork::new(), 3));
    let app = r.ids.next_guid();
    let q = Query::builder(r.ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_range("range-2")
        .all()
        .mode(Mode::Profile)
        .build();

    // Works before the outage.
    assert!(r.fed.submit_from("range-0", &q, VirtualTime::ZERO).is_ok());

    // Split range-2 away at the overlay level: forwarding degrades to
    // a partial answer naming the unreachable range, rather than
    // erroring — graceful degradation with QoC metadata.
    r.fed.transport_mut().partition("island", &[r.nodes[2]]);
    let fa = r
        .fed
        .submit_from("range-0", &q, VirtualTime::from_secs(1))
        .unwrap();
    assert!(fa.answer.is_degraded());
    match fa.answer {
        QueryAnswer::Partial {
            missing_range,
            reason,
            ..
        } => {
            assert_eq!(missing_range, "range-2");
            assert_eq!(reason, "unroutable");
        }
        other => panic!("expected partial answer, got {other:?}"),
    }
    assert_eq!(r.fed.partial_answers(), 1);

    // Healing restores full service.
    r.fed.transport_mut().heal_partitions();
    let fa = r
        .fed
        .submit_from("range-0", &q, VirtualTime::from_secs(2))
        .unwrap();
    assert!(!fa.answer.is_degraded());
}

#[test]
fn deferred_timer_queries_answer_through_the_federation() {
    let mut r = rig(2);
    let app = r.ids.next_guid();
    let q = Query::builder(r.ids.next_guid(), app)
        .kind(EntityKind::Device)
        .all()
        .after(VirtualDuration::from_secs(30))
        .mode(Mode::Profile)
        .build();
    let fa = r.fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Deferred));

    // Too early: nothing.
    r.fed.poll_timers(VirtualTime::from_secs(29)).unwrap();
    assert!(r.fed.answers_for(app).is_empty());

    // Due: the answer lands in the app's mailbox.
    r.fed.poll_timers(VirtualTime::from_secs(31)).unwrap();
    let answers = r.fed.answers_for(app);
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].0, q.id);
    match &answers[0].1 {
        QueryAnswer::Profiles(ps) => assert_eq!(ps.len(), 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn relayed_deliveries_respect_freshness_bounds() {
    // Regression for pump() ignoring its `now` argument: a relayed
    // event must be dropped when overlay latency pushes its arrival
    // beyond the subscription's qoc-max-age-us bound.
    let mut r = rig(2);
    let app = r.ids.next_guid();
    let q = Query::builder(r.ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .fresh_within(VirtualDuration::from_millis(50))
        .mode(Mode::Subscribe)
        .build();
    let fa = r.fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    // Control: with the default per-hop latency the relay arrives well
    // inside the 50 ms freshness window.
    let t1 = VirtualTime::from_secs(1);
    let ev = ContextEvent::new(
        r.sensors[1],
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(r.ids.next_guid()))]),
        t1,
    );
    r.fed.ingest_at("range-1", &ev, t1).unwrap();
    assert_eq!(r.fed.deliveries_for(app).len(), 1);
    assert_eq!(r.fed.relay_stale_drops(), 0);

    // Now make every hop cost 100 ms: arrival time (now + route
    // latency) exceeds event timestamp + 50 ms, so the relay must be
    // dropped and counted.
    r.fed
        .transport_mut()
        .set_hop_latency(VirtualDuration::from_millis(100));
    let t2 = VirtualTime::from_secs(2);
    let stale = ContextEvent::new(
        r.sensors[1],
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(r.ids.next_guid()))]),
        t2,
    );
    r.fed.ingest_at("range-1", &stale, t2).unwrap();
    assert!(
        r.fed.deliveries_for(app).is_empty(),
        "stale relay must not reach the app"
    );
    assert_eq!(r.fed.relay_stale_drops(), 1);
}

#[test]
fn place_directory_routes_queries_by_room_name() {
    let mut r = rig(3);
    // hall-1 is claimed by range-1 only; an app in range-0 querying
    // that place gets forwarded automatically via what range-0 has
    // learned (its own CS has never heard of hall-1).
    assert_eq!(
        r.fed.range_covering_from(r.nodes[0], "hall-1"),
        Some(r.nodes[1])
    );
    let app = r.ids.next_guid();
    let q = Query::builder(r.ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_place("hall-1")
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = r.fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    match fa.answer {
        QueryAnswer::Profiles(ps) => {
            assert_eq!(ps.len(), 1);
            assert_eq!(ps[0].name(), "sensor-1");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(fa.hops >= 2, "the query crossed the overlay");
}
