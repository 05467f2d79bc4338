//! Integration: telemetry invariants. The observability layer must
//! agree with the test oracles the middleware already exposes —
//! counters are only trustworthy if they can be cross-checked.

use std::sync::Arc;

use sci::prelude::*;
use sci::telemetry::TraceRecord;
use sci::types::EventSeq;

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

fn presence(sensor: Guid, subject: u128, t: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(subject)))]),
        t,
    )
}

/// With only direct CAA subscriptions live (no derived instances),
/// every matched bus delivery either reaches an application outbox or
/// is dropped as stale: `bus.deliver.count == range.app.deliveries +
/// range.stale_drops`, and the counters agree with the server's own
/// oracles (`drain_outbox`, `stale_drops()`).
#[test]
fn delivered_plus_stale_equals_matched() {
    let mut ids = GuidGenerator::seeded(17);
    let (mut cs, sensor) = server(0, &mut ids);
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .fresh_within(VirtualDuration::from_secs(5))
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();

    // Three fresh deliveries, two stale ones (produced long before the
    // ingest clock).
    for k in 0..3u64 {
        let t = VirtualTime::from_secs(10 + k);
        cs.ingest(&presence(sensor, 100 + u128::from(k), t), t)
            .unwrap();
    }
    let late = VirtualTime::from_secs(100);
    for k in 0..2u64 {
        cs.ingest(
            &presence(sensor, 200 + u128::from(k), VirtualTime::from_secs(10)),
            late,
        )
        .unwrap();
    }

    let delivered = cs.drain_outbox().len() as u64;
    let snap = cs.snapshot();
    assert_eq!(delivered, 3);
    assert_eq!(cs.stale_drops(), 2);
    assert_eq!(snap.counter("range.app.deliveries"), delivered);
    assert_eq!(snap.counter("range.stale_drops"), cs.stale_drops());
    assert_eq!(
        snap.counter("bus.deliver.count"),
        snap.counter("range.app.deliveries") + snap.counter("range.stale_drops"),
        "every matched delivery is either delivered or dropped as stale"
    );
    // Five ingests, each publishing once; command accounting agrees.
    assert_eq!(snap.counter("bus.publish.count"), 5);
    assert_eq!(snap.counter("range.cmd.ingest.count"), 5);
    let lat = snap.histogram("range.cmd.ingest.latency_us").unwrap();
    assert_eq!(lat.count, 5);
}

/// After a `sync` barrier every pipelined command has been executed:
/// the merged mailbox-depth gauge reads zero, and the cross-range
/// workload leaves non-zero publish/deliver/relay counters that agree
/// with the deliveries actually observed.
#[test]
fn parallel_federation_snapshot_agrees_with_oracles() {
    const RANGES: usize = 3;
    const EVENTS_PER_RANGE: u64 = 5;
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);
    let mut sensors = Vec::new();
    for i in 0..RANGES {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();

    // App `i` is homed in range-i, subscribing to presence produced in
    // range-(i+1): every delivery crosses the overlay.
    let mut apps = Vec::new();
    for i in 0..RANGES {
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range(format!("range-{}", (i + 1) % RANGES))
            .mode(Mode::Subscribe)
            .build();
        let fa = fed
            .submit_from(&format!("range-{i}"), &q, VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
        apps.push(app);
    }
    for k in 0..EVENTS_PER_RANGE {
        for (j, &sensor) in sensors.iter().enumerate() {
            let t = VirtualTime::from_millis(1 + k * 100 + j as u64);
            fed.ingest_at(
                &format!("range-{j}"),
                &presence(sensor, u128::from(1000 + k * 10 + j as u64), t),
                t,
            )
            .unwrap();
        }
    }
    fed.sync(VirtualTime::from_secs(10)).unwrap();

    let total: usize = apps.iter().map(|&a| fed.deliveries_for(a).len()).sum();
    let expected = RANGES as u64 * EVENTS_PER_RANGE;
    assert_eq!(total as u64, expected);

    let snap = fed.snapshot();
    assert_eq!(
        snap.gauge("range.mailbox.depth"),
        0,
        "sync is a barrier: no command is left enqueued"
    );
    assert_eq!(snap.counter("bus.publish.count"), expected);
    assert_eq!(snap.counter("bus.deliver.count"), expected);
    assert_eq!(snap.counter("range.app.deliveries"), expected);
    assert_eq!(
        snap.counter("federation.relay.events"),
        expected,
        "every delivery was homed in another range"
    );
    assert_eq!(snap.counter("federation.relay.stale_drops"), 0);
    assert_eq!(
        snap.counter("federation.relay.undecodable"),
        0,
        "every relay the core encoded, the core decoded"
    );
    // The overlay saw each relay plus the query forward/response pairs.
    assert_eq!(
        snap.counter("net.delivered"),
        fed.network_stats().delivered()
    );
    assert!(snap.histogram("net.hops").unwrap().count > 0);
    // Phase instruments saw the workload.
    assert_eq!(
        snap.histogram("federation.cast_us").unwrap().count,
        expected
    );
    assert!(snap.histogram("federation.barrier_us").unwrap().count >= RANGES as u64);
    assert!(snap.histogram("federation.relay_us").unwrap().count >= RANGES as u64);

    // The snapshot survives the workspace XML wire conventions.
    let xml = sci::core::snapshot_to_xml(&snap);
    let back = sci::core::snapshot_from_xml(&xml).unwrap();
    assert_eq!(snap, back);
    fed.shutdown();
}

fn fields(record: &TraceRecord) -> &[(String, String)] {
    match record {
        TraceRecord::Span { fields, .. } | TraceRecord::Event { fields, .. } => fields,
    }
}

/// The `keys` fields of every record named `name`, oldest first.
fn traced(records: &RingBufferSubscriber, name: &str, keys: &[&str]) -> Vec<Vec<String>> {
    records
        .records()
        .iter()
        .filter(|r| r.name() == name)
        .map(|r| {
            keys.iter()
                .map(|&key| {
                    let (_, value) = fields(r).iter().find(|(k, _)| k == key).unwrap();
                    value.clone()
                })
                .collect()
        })
        .collect()
}

/// A delivery is stamped when its range produced it, not when a driver
/// took it: an event ingested at 1 ms for an app homed in the producing
/// range, and taken at 10 s, reads at most one hop in
/// `e2e.delivery_latency_us` on the serial driver (which pumps at the
/// ingest's instant) and on the threaded one (whose worker stamps its
/// stream with the command's instant).
#[test]
fn a_local_delivery_reads_when_its_range_produced_it() {
    const HOP_US: u64 = 750;
    let (ingested, taken) = (VirtualTime::from_millis(1), VirtualTime::from_secs(10));
    let setup = || {
        let mut ids = GuidGenerator::seeded(53);
        let (cs, sensor) = server(0, &mut ids);
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info(ContextType::Presence)
            .in_range("range-0")
            .mode(Mode::Subscribe)
            .build();
        let mut net = SimNetwork::new();
        net.set_hop_latency(VirtualDuration::from_micros(HOP_US));
        (cs, presence(sensor, 900, ingested), q, net)
    };
    let e2e = |snap: sci::telemetry::TelemetrySnapshot| {
        let h = snap.histogram("e2e.delivery_latency_us").unwrap().clone();
        (h.count, h.sum)
    };

    let (cs, event, q, net) = setup();
    let mut serial = Federation::with_transport(net, 3);
    serial.add_range(cs).unwrap();
    serial
        .submit_from("range-0", &q, VirtualTime::ZERO)
        .unwrap();
    serial.ingest_at("range-0", &event, ingested).unwrap();
    serial.pump(taken).unwrap();
    assert_eq!(serial.deliveries_for(q.owner).len(), 1);
    let (count, sum) = e2e(serial.snapshot());
    assert!(count == 1 && sum <= HOP_US, "serial: {sum} µs over {count}");

    let (cs, event, q, net) = setup();
    let mut threaded = ParallelFederation::with_transport(net, 3);
    threaded.add_range(cs).unwrap();
    threaded
        .submit_from("range-0", &q, VirtualTime::ZERO)
        .unwrap();
    threaded.ingest_at("range-0", &event, ingested).unwrap();
    threaded.sync(taken).unwrap();
    assert_eq!(threaded.deliveries_for(q.owner).len(), 1);
    let (count, sum) = e2e(threaded.snapshot());
    assert!(
        count == 1 && sum <= HOP_US,
        "threaded: {sum} µs over {count}"
    );
}

/// One event followed across the federation by its own trace key: a
/// sensor reading ingested at range-0 for an app homed in range-1. The
/// `ingest` span on range-0's server carries `(source, seq)`, and the
/// relay's `federation.relay` (to range-1), `federation.absorb` (from
/// range-0) and `federation.deliver` events carry it after it, in that
/// order. The two dumps merge into one timeline by each record's
/// instant, and the wall-clock end-to-end time, `federation.deliver`'s
/// instant less the `ingest` span's start, is read off it.
/// `e2e.delivery_latency_us` holds one sample per delivery
/// drained, each the route's latency: the event is produced, ingested and
/// relayed at the same instant, and arrives one hop later.
#[test]
fn one_event_is_followed_from_ingest_to_delivery() {
    const HOP_US: u64 = 750;
    let mut ids = GuidGenerator::seeded(47);
    let mut net = SimNetwork::new();
    net.set_hop_latency(VirtualDuration::from_micros(HOP_US));
    let mut fed = Federation::with_transport(net, 3);
    let (cs, sensor) = server(0, &mut ids);
    let (cs1, _) = server(1, &mut ids);
    let (range_0, range_1) = (cs.id(), cs1.id());
    fed.add_range(cs).unwrap();
    fed.add_range(cs1).unwrap();
    fed.connect_full();
    let at_range = Arc::new(RingBufferSubscriber::new(64));
    let at_relay = Arc::new(RingBufferSubscriber::new(64));
    fed.server_mut("range-0")
        .unwrap()
        .set_tracer(Tracer::new(at_range.clone()));
    fed.set_tracer(Tracer::new(at_relay.clone()));

    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-0")
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-1", &q, VirtualTime::ZERO).unwrap();
    let t = VirtualTime::from_secs(3);
    let event = presence(sensor, 900, t).with_seq(EventSeq(41));
    fed.ingest_at("range-0", &event, t).unwrap();

    let delivered = fed.deliveries_for(app);
    assert_eq!(delivered.len(), 1);
    let ingest = traced(&at_range, "ingest", &["source", "seq"]);
    assert_eq!(ingest, [[sensor.to_string(), "41".to_owned()]]);
    let hop = |peer: Guid| [sensor.to_string(), "41".to_owned(), peer.to_string()];
    let key_and_peer = ["source", "seq", "peer"];
    let relay = traced(&at_relay, "federation.relay", &key_and_peer);
    assert_eq!(relay, [hop(range_1)], "encoded once, for range-1");
    let absorb = traced(&at_relay, "federation.absorb", &key_and_peer);
    assert_eq!(absorb, [hop(range_0)], "decoded once, from range-0");
    let hops = [
        "federation.relay",
        "federation.absorb",
        "federation.deliver",
    ];
    let order: Vec<String> = at_relay
        .records()
        .iter()
        .map(|r| r.name().to_owned())
        .filter(|name| hops.contains(&name.as_str()))
        .collect();
    assert_eq!(order, hops);
    let deliver = traced(
        &at_relay,
        "federation.deliver",
        &["source", "seq", "app", "query"],
    );
    assert_eq!(
        deliver,
        [[
            sensor.to_string(),
            "41".to_owned(),
            app.to_string(),
            q.id.to_string()
        ]]
    );
    let e2e = fed.snapshot();
    let e2e = e2e.histogram("e2e.delivery_latency_us").unwrap();
    assert_eq!(e2e.count, delivered.len() as u64);
    assert_eq!(e2e.sum, HOP_US * e2e.count, "one hop, no queueing");

    // One timeline from two dumps: every record of the key, by instant.
    let mut timeline: Vec<TraceRecord> = at_range.records();
    timeline.extend(at_relay.records());
    timeline.sort_by_key(TraceRecord::at_us);
    let key = [
        ("source".to_owned(), sensor.to_string()),
        ("seq".to_owned(), "41".to_owned()),
    ];
    timeline.retain(|r| key.iter().all(|kv| fields(r).contains(kv)));
    let names: Vec<&str> = timeline.iter().map(TraceRecord::name).collect();
    assert_eq!(
        names,
        [
            "ingest",
            "federation.relay",
            "federation.absorb",
            "federation.deliver"
        ]
    );
    let TraceRecord::Span {
        at_us, elapsed_us, ..
    } = &timeline[0]
    else {
        panic!("ingest is a span: {:?}", timeline[0]);
    };
    let ingest_start_us = at_us - elapsed_us;
    let deliver_at_us = timeline[3].at_us();
    assert!(
        deliver_at_us >= ingest_start_us,
        "wall-clock e2e is not negative: ingest opened at {ingest_start_us} µs, delivered at {deliver_at_us} µs"
    );
}

/// A derived event names its cause. Range-0's `objLocationCE` turns a
/// door reading (seq 41) into bob's location for an app homed in
/// range-1. The relay's `federation.deliver` carries the derived
/// event's own key `(instance, k)`; the server's `derive` event joins
/// that key to the door reading's, `(door, 41)`; and the `ingest` span
/// carries `(door, 41)`.
#[test]
fn a_derived_delivery_joins_the_ingest_that_caused_it() {
    let mut ids = GuidGenerator::seeded(48);
    let mut fed = Federation::new(3);
    let (mut cs, door) = server(0, &mut ids);
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    cs.register_logic(obj_loc, factory(|| ObjLocationLogic::new(range_plan(0))));
    let at_range = Arc::new(RingBufferSubscriber::new(64));
    cs.set_tracer(Tracer::new(at_range.clone()));
    fed.add_range(cs).unwrap();
    fed.add_range(server(1, &mut ids).0).unwrap();
    fed.connect_full();
    let at_relay = Arc::new(RingBufferSubscriber::new(64));
    fed.set_tracer(Tracer::new(at_relay.clone()));

    let (bob, app) = (ids.next_guid(), ids.next_guid());
    let q = Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(bob))],
        )
        .in_range("range-0")
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-1", &q, VirtualTime::ZERO).unwrap();
    let t = VirtualTime::from_secs(3);
    let reading = ContextValue::record([
        ("subject", ContextValue::Id(bob)),
        ("to", ContextValue::place("hall-0")),
    ]);
    let reading = ContextEvent::new(door, ContextType::Presence, reading, t).with_seq(EventSeq(41));
    fed.ingest_at("range-0", &reading, t).unwrap();
    assert_eq!(fed.deliveries_for(app).len(), 1);

    let deliver = traced(&at_relay, "federation.deliver", &["source", "seq"]);
    let [derived] = deliver.as_slice() else {
        panic!("one delivery: {deliver:?}");
    };
    assert_ne!(derived[0], door.to_string(), "delivered: the derived event");
    let derive = traced(
        &at_range,
        "derive",
        &["source", "seq", "cause_source", "cause_seq"],
    );
    let causes: Vec<_> = derive
        .iter()
        .filter(|d| d[..2] == derived[..])
        .map(|d| d[2..].to_vec())
        .collect();
    let cause = vec![door.to_string(), "41".to_owned()];
    assert_eq!(causes, std::slice::from_ref(&cause));
    let ingest = traced(&at_range, "ingest", &["source", "seq"]);
    assert!(ingest.contains(&cause), "{ingest:?}");
}

/// An event's trace key `(source, seq)` tells ingests apart when its
/// producer threads `seq`: a door sensor's crossings leave
/// `range.trace_key.repeats` at 0, and ingesting one of them again
/// reads 1. An untraced range keeps no table and counts nothing.
#[test]
fn a_repeated_trace_key_is_counted_at_ingest() {
    let mut ids = GuidGenerator::seeded(31);
    let (mut traced_cs, sensor) = server(0, &mut ids);
    let (mut untraced_cs, _) = server(0, &mut GuidGenerator::seeded(31));
    traced_cs.set_tracer(Tracer::new(Arc::new(RingBufferSubscriber::new(64))));
    let mut door = DoorSensor::new(sensor, "door-0", "hall-0", "hall-1");
    let crossings: Vec<ContextEvent> = (1..=4u64)
        .map(|k| {
            let walk = sci::sensors::mobility::RoomTransition {
                person: Guid::from_u128(u128::from(k)),
                from: "hall-1".into(),
                to: "hall-0".into(),
            };
            door.observe(&walk, true, VirtualTime::from_secs(k))
                .unwrap()
        })
        .collect();
    let repeats = |cs: &ContextServer| cs.snapshot().counter("range.trace_key.repeats");
    for cs in [&mut traced_cs, &mut untraced_cs] {
        for event in &crossings {
            cs.ingest(event, event.timestamp).unwrap();
        }
    }
    assert_eq!(repeats(&traced_cs), 0);
    let again = &crossings[2];
    let later = VirtualTime::from_secs(9);
    traced_cs.ingest(again, later).unwrap();
    untraced_cs.ingest(again, later).unwrap();
    assert_eq!((repeats(&traced_cs), repeats(&untraced_cs)), (1, 0));
}

/// A snapshot has two halves — serialising the payload and storing it
/// — timed apart so neither hides the other: `wal.snapshot.encode_us`
/// and `wal.snapshot_us` count the same snapshots, the one `attach`
/// seeds the log with and one per 256 logged commands after it.
#[test]
fn both_halves_of_every_snapshot_are_timed() {
    let mut ids = GuidGenerator::seeded(29);
    let (mut cs, sensor) = server(0, &mut ids);
    sci::core::durability::attach_memory(&mut cs, VirtualTime::ZERO);
    for k in 0..600u64 {
        let t = VirtualTime::from_millis(k + 1);
        cs.ingest(&presence(sensor, u128::from(k), t), t).unwrap();
    }
    let snap = cs.snapshot();
    let encoded = snap.histogram("wal.snapshot.encode_us").unwrap().count;
    let stored = snap.histogram("wal.snapshot_us").unwrap().count;
    assert_eq!((encoded, stored), (3, 3));
}

/// A panic inside one range's worker increments `range.panics` exactly
/// once — on the panicking range's registry, which survives the worker.
#[test]
fn panic_isolation_increments_exactly_one_counter() {
    struct PanicLogic;
    impl EntityLogic for PanicLogic {
        fn on_event(
            &mut self,
            _event: &ContextEvent,
            _binding: &Metadata,
            _now: VirtualTime,
        ) -> Vec<(ContextType, ContextValue)> {
            panic!("logic bomb")
        }
    }

    let mut ids = GuidGenerator::seeded(5);
    let (mut cs, sensor) = server(0, &mut ids);
    let bomb = ids.next_guid();
    cs.register(
        Profile::builder(bomb, EntityKind::Software, "bomb")
            .input(PortSpec::new("in", ContextType::Presence))
            .output(PortSpec::new("out", ContextType::Temperature))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    cs.register_logic(bomb, factory(|| PanicLogic));
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();

    let mut rt = RangeRuntime::spawn(cs);
    rt.call(RangeCommand::Submit(Box::new(q)), VirtualTime::ZERO)
        .unwrap();
    let registry = rt.registry().clone();
    assert_eq!(registry.snapshot().counter("range.panics"), 0);

    let res = rt.call(
        RangeCommand::Ingest(presence(sensor, 9, VirtualTime::ZERO)),
        VirtualTime::ZERO,
    );
    assert!(res.is_err());
    assert!(rt.is_down());
    assert!(rt.shutdown().is_none());
    assert_eq!(
        registry.snapshot().counter("range.panics"),
        1,
        "exactly one isolated panic recorded"
    );
}

/// Every instrument name a live federated workload registers must be
/// listed in the central catalogue (`sci-telemetry::catalogue`). A
/// registry takes only a catalogued `Metric`, so the compiler already
/// refuses a stray literal; this checks the runtime side, the
/// `range.cmd.*` families included, against the same table.
#[test]
fn every_snapshot_name_is_catalogued() {
    use sci::telemetry::catalogue;

    let mut ids = GuidGenerator::seeded(23);
    let mut fed = ParallelFederation::new(5).with_restart_policy(RestartPolicy::bounded(1));
    let mut sensors = Vec::new();
    for i in 0..2usize {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .in_range("range-1")
        .fresh_within(VirtualDuration::from_secs(5))
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    for k in 0..4u64 {
        let t = VirtualTime::from_secs(k + 1);
        fed.ingest_at("range-1", &presence(sensors[1], 500 + u128::from(k), t), t)
            .unwrap();
    }
    fed.sync(VirtualTime::from_secs(10)).unwrap();

    let snap = fed.snapshot();
    fed.shutdown();
    let mut names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(snap.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(snap.histograms.iter().map(|h| h.name.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert!(!names.is_empty());
    for live in ["federation.relay.undecodable", "wal.snapshot.encode_us"] {
        assert!(names.contains(&live), "{live} is not registered");
    }
    let strays: Vec<&str> = names
        .into_iter()
        .filter(|n| !catalogue::contains(n))
        .collect();
    assert!(
        strays.is_empty(),
        "instrument names missing from the central catalogue: {strays:?}"
    );
}

/// How a subscription was admitted is in the range's own trace: the
/// first query for bob's location plans, under one `plan` span inside
/// its `submit` span (`admission` = `planned`); an equal query attaches
/// to that configuration, with no `plan` span (`reused`); a deferred
/// query is admitted by neither. An untraced range records nothing.
#[test]
fn a_submit_span_says_how_it_was_admitted() {
    let mut ids = GuidGenerator::seeded(57);
    let (mut cs, _) = server(0, &mut ids);
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    cs.register_logic(obj_loc, factory(|| ObjLocationLogic::new(range_plan(0))));
    let at_range = Arc::new(RingBufferSubscriber::new(64));
    let bob = ids.next_guid();
    let location_of_bob = |ids: &mut GuidGenerator| {
        Query::builder(ids.next_guid(), ids.next_guid())
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build()
    };
    let (first, second) = (location_of_bob(&mut ids), location_of_bob(&mut ids));
    let later = Query {
        when: When::After(VirtualDuration::from_secs(1)),
        ..location_of_bob(&mut ids)
    };
    cs.set_tracer(Tracer::new(at_range.clone()));
    for q in [&first, &second, &later] {
        cs.submit_query(q, VirtualTime::ZERO).unwrap();
    }
    let records = at_range.records();
    let field = |r: &TraceRecord, key| {
        let (_, value) = fields(r).iter().find(|(k, _)| k == key)?;
        Some(value.clone())
    };
    let admitted: Vec<_> = (records.iter())
        .filter(|r| r.name() == "submit")
        .map(|r| (field(r, "query"), field(r, "admission")))
        .collect();
    let expect =
        |q: &Query, admission: Option<&str>| (Some(q.id.to_string()), admission.map(str::to_owned));
    assert_eq!(
        admitted,
        [
            expect(&first, Some("planned")),
            expect(&second, Some("reused")),
            expect(&later, None),
        ]
    );
    let order: Vec<&str> = (records.iter().map(TraceRecord::name))
        .filter(|name| matches!(*name, "plan" | "submit"))
        .collect();
    assert_eq!(
        order,
        ["plan", "submit", "submit", "submit"],
        "one plan, in the first submit"
    );
    assert_eq!(cs.snapshot().counter("resolver.admit.reused"), 1);

    // The tracer off: the counter still counts, and nothing is recorded.
    cs.set_tracer(Tracer::noop());
    cs.submit_query(&location_of_bob(&mut ids), VirtualTime::ZERO)
        .unwrap();
    assert_eq!(cs.snapshot().counter("resolver.admit.reused"), 2);
    assert_eq!(at_range.records().len(), records.len());
}
