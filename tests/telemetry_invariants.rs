//! Integration: telemetry invariants. The observability layer must
//! agree with the test oracles the middleware already exposes —
//! counters are only trustworthy if they can be cross-checked.

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
/// listed in the central catalogue (`sci-telemetry::catalogue`) — the
/// same table the `sci-lint` SCI-A302 pass audits source literals
/// against. A name in the snapshot but not the catalogue means the
/// catalogue (or the lint) has drifted from reality.
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
