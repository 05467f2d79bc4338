//! Integration: the parallel range-per-thread driver is observationally
//! equivalent to the serial federation (same deliveries, order aside),
//! and a panic inside one range's worker never takes down its siblings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sci::prelude::*;

const RANGES: usize = 3;
const EVENTS_PER_RANGE: u64 = 5;

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

struct Workload {
    /// App `i` is homed in `range-i` and subscribes to presence in
    /// `range-(i+1) mod n` — every delivery crosses the overlay.
    apps: Vec<Guid>,
    queries: Vec<Query>,
    /// (producing range, event, ingest time), interleaved across ranges.
    events: Vec<(String, ContextEvent, VirtualTime)>,
}

fn workload(ids: &mut GuidGenerator, sensors: &[Guid]) -> Workload {
    let mut apps = Vec::new();
    let mut queries = Vec::new();
    for i in 0..RANGES {
        let app = ids.next_guid();
        queries.push(
            Query::builder(ids.next_guid(), app)
                .info(ContextType::Presence)
                .in_range(format!("range-{}", (i + 1) % RANGES))
                .mode(Mode::Subscribe)
                .build(),
        );
        apps.push(app);
    }
    let mut events = Vec::new();
    for k in 0..EVENTS_PER_RANGE {
        for (j, &sensor) in sensors.iter().enumerate().take(RANGES) {
            let t = VirtualTime::from_millis(1 + k * 100 + j as u64);
            events.push((
                format!("range-{j}"),
                ContextEvent::new(
                    sensor,
                    ContextType::Presence,
                    ContextValue::record([(
                        "subject",
                        ContextValue::Id(Guid::from_u128(u128::from(1000 + k * 10 + j as u64))),
                    )]),
                    t,
                ),
                t,
            ));
        }
    }
    Workload {
        apps,
        queries,
        events,
    }
}

/// Canonical multiset key for a batch of deliveries: sorted Debug
/// forms (`AppDelivery` has no `PartialEq`/`Ord`; both drivers draw
/// identical GUIDs from the same seeded generator, so the Debug form
/// is a faithful structural key).
fn delivery_keys(deliveries: Vec<AppDelivery>) -> Vec<String> {
    let mut keys: Vec<String> = deliveries.iter().map(|d| format!("{d:?}")).collect();
    keys.sort_unstable();
    keys
}

fn serial_deliveries() -> BTreeMap<Guid, Vec<String>> {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = Federation::new(3);
    let mut sensors = Vec::new();
    for i in 0..RANGES {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let w = workload(&mut ids, &sensors);
    for (i, q) in w.queries.iter().enumerate() {
        let fa = fed
            .submit_from(&format!("range-{i}"), q, VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    }
    for (range, ev, t) in &w.events {
        fed.ingest_at(range, ev, *t).unwrap();
    }
    w.apps
        .iter()
        .map(|&app| (app, delivery_keys(fed.deliveries_for(app))))
        .collect()
}

fn parallel_deliveries() -> BTreeMap<Guid, Vec<String>> {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);
    let mut sensors = Vec::new();
    for i in 0..RANGES {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let w = workload(&mut ids, &sensors);
    for (i, q) in w.queries.iter().enumerate() {
        let fa = fed
            .submit_from(&format!("range-{i}"), q, VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    }
    let mut last = VirtualTime::ZERO;
    for (range, ev, t) in &w.events {
        fed.ingest_at(range, ev, *t).unwrap();
        last = *t;
    }
    // The barrier: waits for every pipelined ingest, then relays.
    fed.sync(last).unwrap();
    let out = w
        .apps
        .iter()
        .map(|&app| (app, delivery_keys(fed.deliveries_for(app))))
        .collect();
    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), RANGES, "all workers survive the run");
    out
}

#[test]
fn parallel_driver_matches_serial_deliveries() {
    let serial = serial_deliveries();
    let parallel = parallel_deliveries();
    assert_eq!(serial.len(), RANGES);
    for (app, keys) in &serial {
        assert_eq!(
            keys.len(),
            EVENTS_PER_RANGE as usize,
            "each app sees one delivery per event in its subscribed range"
        );
        assert_eq!(
            Some(keys),
            parallel.get(app),
            "delivery multiset diverges for app {app}"
        );
    }
    assert_eq!(serial, parallel);
}

/// The streaming fast path: events arrive as per-range batches
/// ([`ParallelFederation::ingest_batch_at`], one mailbox send each),
/// cross-range traffic is moved by free-running
/// [`ParallelFederation::pump_streams`] passes between batches, and a
/// final [`ParallelFederation::sync`] closes the run. The delivery
/// multiset must match the serial per-event driver exactly.
fn streaming_deliveries() -> BTreeMap<Guid, Vec<String>> {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);
    let mut sensors = Vec::new();
    for i in 0..RANGES {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let w = workload(&mut ids, &sensors);
    for (i, q) in w.queries.iter().enumerate() {
        let fa = fed
            .submit_from(&format!("range-{i}"), q, VirtualTime::ZERO)
            .unwrap();
        assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));
    }
    // Re-batch the interleaved event list per producing range, keeping
    // per-range order (what a real per-range sensor feed looks like).
    let mut batches: BTreeMap<String, Vec<ContextEvent>> = BTreeMap::new();
    let mut last = VirtualTime::ZERO;
    for (range, ev, t) in &w.events {
        batches.entry(range.clone()).or_default().push(ev.clone());
        last = (*t).max(last);
    }
    for (range, events) in &batches {
        fed.ingest_batch_at(range, events, last).unwrap();
        // Free-running pump: moves whatever has streamed so far; the
        // closing sync picks up the rest.
        fed.pump_streams(last).unwrap();
    }
    fed.sync(last).unwrap();
    let out = w
        .apps
        .iter()
        .map(|&app| (app, delivery_keys(fed.deliveries_for(app))))
        .collect();
    let snap = fed.snapshot();
    assert_eq!(
        snap.counter("federation.stream.events"),
        (RANGES as u64) * EVENTS_PER_RANGE,
        "every delivery travelled the relay stream"
    );
    let pumps = snap
        .histogram("federation.stream.pump_us")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(pumps >= batches.len() as u64, "each pump pass is timed");
    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), RANGES, "all workers survive the run");
    out
}

#[test]
fn batched_streaming_matches_serial_deliveries() {
    let serial = serial_deliveries();
    let streamed = streaming_deliveries();
    assert_eq!(
        serial, streamed,
        "streaming changes relay timing, never the delivery multiset"
    );
}

#[test]
fn serial_batch_ingest_matches_per_event_ingest() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = Federation::new(3);
    let mut sensors = Vec::new();
    for i in 0..RANGES {
        let (cs, sensor) = server(i, &mut ids);
        sensors.push(sensor);
        fed.add_range(cs).unwrap();
    }
    fed.connect_full();
    let w = workload(&mut ids, &sensors);
    for (i, q) in w.queries.iter().enumerate() {
        fed.submit_from(&format!("range-{i}"), q, VirtualTime::ZERO)
            .unwrap();
    }
    let mut batches: BTreeMap<String, Vec<ContextEvent>> = BTreeMap::new();
    let mut last = VirtualTime::ZERO;
    for (range, ev, t) in &w.events {
        batches.entry(range.clone()).or_default().push(ev.clone());
        last = (*t).max(last);
    }
    for (range, events) in &batches {
        fed.ingest_batch_at(range, events, last).unwrap();
    }
    let batched: BTreeMap<Guid, Vec<String>> = w
        .apps
        .iter()
        .map(|&app| (app, delivery_keys(fed.deliveries_for(app))))
        .collect();
    assert_eq!(serial_deliveries(), batched);
}

#[test]
fn unknown_app_homing_is_counted_not_silent() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);
    let (cs, sensor) = server(0, &mut ids);
    fed.add_range(cs).unwrap();
    fed.connect_full();

    // Subscribe through the raw command path: the coordinator never
    // learns the app's home range, so the produced deliveries hit the
    // unknown-app fallback.
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Presence)
        .mode(Mode::Subscribe)
        .build();
    let reply = fed
        .command(
            "range-0",
            RangeCommand::Submit(Box::new(q)),
            VirtualTime::ZERO,
        )
        .unwrap();
    assert!(matches!(
        reply,
        RangeReply::Answer(QueryAnswer::Subscribed { .. })
    ));

    let t = VirtualTime::from_secs(1);
    fed.ingest_at("range-0", &presence(sensor, 9, t), t)
        .unwrap();
    fed.sync(t).unwrap();

    assert_eq!(fed.relay_unknown_app(), 1, "the homing decision is counted");
    assert_eq!(fed.snapshot().counter("federation.relay.unknown_app"), 1);
    // The delivery itself is kept at the producing range, not dropped.
    assert_eq!(fed.deliveries_for(app).len(), 1);
    fed.shutdown();
}

#[test]
fn worker_panic_is_contained_to_its_range() {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3);

    // range-0 hosts a software CE whose logic panics on first event.
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
    let (cs1, _sensor1) = server(1, &mut ids);
    fed.add_range(cs1).unwrap();
    fed.connect_full();

    // Subscribing to temperature instantiates the bomb configuration.
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();

    // The triggering ingest is a pipelined cast: it is accepted, the
    // panic happens inside range-0's worker, and the next barrier
    // surfaces it as RangeDown.
    let ev = ContextEvent::new(
        sensor0,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(ids.next_guid()))]),
        VirtualTime::from_secs(1),
    );
    fed.ingest_at("range-0", &ev, VirtualTime::from_secs(1))
        .unwrap();
    let res = fed.sync(VirtualTime::from_secs(1));
    assert!(
        matches!(res, Err(SciError::RangeDown(ref name)) if name == "range-0"),
        "got {res:?}"
    );

    // The sibling range keeps serving queries.
    let app2 = ids.next_guid();
    let q2 = Query::builder(ids.next_guid(), app2)
        .kind(EntityKind::Device)
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed
        .submit_from("range-1", &q2, VirtualTime::from_secs(2))
        .unwrap();
    match fa.answer {
        QueryAnswer::Profiles(ps) => assert_eq!(ps.len(), 1),
        other => panic!("unexpected {other:?}"),
    }

    // The dead range fails fast on every further command.
    assert!(matches!(
        fed.command("range-0", RangeCommand::Audit, VirtualTime::from_secs(2)),
        Err(SciError::RangeDown(_))
    ));

    // Shutdown hands back only the survivor's state.
    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].name(), "range-1");
}

/// Logic that panics on its first event only; later instances (sharing
/// the fuse) compute normally. Models a crash caused by one poisoned
/// input rather than a persistent defect.
struct PanicOnceLogic {
    fuse: Arc<AtomicUsize>,
}

impl sci::core::logic::EntityLogic for PanicOnceLogic {
    fn on_event(
        &mut self,
        _event: &ContextEvent,
        _binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        if self.fuse.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("poisoned first event")
        }
        vec![(ContextType::Temperature, ContextValue::text("21.5C"))]
    }
}

/// Builds a supervised federation whose `range-0` is composed before
/// it is spawned — sensor, derived CE and its logic factory — the way
/// every other test here builds a range.
fn supervised_rig(
    policy: RestartPolicy,
    logic: sci::core::logic::LogicFactory,
) -> (ParallelFederation, GuidGenerator, Guid, Guid) {
    let mut ids = GuidGenerator::seeded(71);
    let mut fed = ParallelFederation::new(3).with_restart_policy(policy);
    let (mut cs0, sensor) = server(0, &mut ids);
    let ce = ids.next_guid();
    cs0.register(
        Profile::builder(ce, EntityKind::Software, "deriver")
            .input(PortSpec::new("in", ContextType::Presence))
            .output(PortSpec::new("out", ContextType::Temperature))
            .build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    cs0.register_logic(ce, logic);
    fed.add_range(cs0).unwrap();
    let (cs1, _) = server(1, &mut ids);
    fed.add_range(cs1).unwrap();
    fed.connect_full();
    (fed, ids, sensor, ce)
}

fn presence(sensor: Guid, subject: u128, at: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        sensor,
        ContextType::Presence,
        ContextValue::record([("subject", ContextValue::Id(Guid::from_u128(subject)))]),
        at,
    )
}

#[test]
fn supervised_restart_revives_range_and_resubscribes() {
    let fuse = Arc::new(AtomicUsize::new(0));
    let fuse2 = Arc::clone(&fuse);
    let (mut fed, mut ids, sensor, _ce) = supervised_rig(
        RestartPolicy::bounded(2),
        factory(move || PanicOnceLogic {
            fuse: Arc::clone(&fuse2),
        }),
    );

    // The subscription is a logged range command: a restart replays
    // it.
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    let fa = fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Subscribed { .. }));

    // First event: the logic panics, the worker dies, the barrier that
    // observes the crash reports RangeDown — then the supervisor
    // rebuilds the range from its log.
    fed.ingest_at(
        "range-0",
        &presence(sensor, 1, VirtualTime::from_secs(1)),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    assert!(matches!(
        fed.sync(VirtualTime::from_secs(1)),
        Err(SciError::RangeDown(ref name)) if name == "range-0"
    ));
    assert_eq!(fed.restarts_of("range-0"), Some(1));

    // The revived range serves queries again...
    let probe = Query::builder(ids.next_guid(), app)
        .kind(EntityKind::Device)
        .all()
        .mode(Mode::Profile)
        .build();
    let fa = fed
        .submit_from("range-0", &probe, VirtualTime::from_secs(2))
        .unwrap();
    match fa.answer {
        QueryAnswer::Profiles(ps) => {
            assert_eq!(ps.len(), 1, "registrations were restored");
        }
        other => panic!("unexpected {other:?}"),
    }

    // ...and the replayed subscription is live: the next event flows
    // through the (no longer panicking) logic to the app.
    fed.ingest_at(
        "range-0",
        &presence(sensor, 2, VirtualTime::from_secs(3)),
        VirtualTime::from_secs(3),
    )
    .unwrap();
    fed.sync(VirtualTime::from_secs(3)).unwrap();
    let deliveries = fed.deliveries_for(app);
    assert_eq!(deliveries.len(), 1, "resubscribed graph delivers");
    assert_eq!(deliveries[0].event.topic, ContextType::Temperature);

    // The restart is visible in telemetry, and both workers survive.
    assert_eq!(fed.snapshot().counter("range.restarts"), 1);
    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), 2);
}

#[test]
fn restart_budget_exhausts_back_to_fail_stop() {
    struct AlwaysPanicLogic;
    impl sci::core::logic::EntityLogic for AlwaysPanicLogic {
        fn on_event(
            &mut self,
            _event: &ContextEvent,
            _binding: &Metadata,
            _now: VirtualTime,
        ) -> Vec<(ContextType, ContextValue)> {
            panic!("persistent defect")
        }
    }
    let (mut fed, mut ids, sensor, _ce) =
        supervised_rig(RestartPolicy::bounded(1), factory(|| AlwaysPanicLogic));
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    fed.submit_from("range-0", &q, VirtualTime::ZERO).unwrap();

    // Crash #1: restart budget covers it.
    fed.ingest_at(
        "range-0",
        &presence(sensor, 1, VirtualTime::from_secs(1)),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    assert!(fed.sync(VirtualTime::from_secs(1)).is_err());
    assert_eq!(fed.restarts_of("range-0"), Some(1));

    // Crash #2: the defect persists, the budget is spent — the range
    // degrades to fail-stop and stays down.
    fed.ingest_at(
        "range-0",
        &presence(sensor, 2, VirtualTime::from_secs(2)),
        VirtualTime::from_secs(2),
    )
    .unwrap();
    assert!(fed.sync(VirtualTime::from_secs(2)).is_err());
    assert_eq!(fed.restarts_of("range-0"), Some(1), "budget not exceeded");
    assert!(matches!(
        fed.command("range-0", RangeCommand::Audit, VirtualTime::from_secs(3)),
        Err(SciError::RangeDown(_))
    ));

    // The sibling is untouched either way.
    let fa = fed
        .submit_from(
            "range-1",
            &Query::builder(ids.next_guid(), app)
                .kind(EntityKind::Device)
                .all()
                .mode(Mode::Profile)
                .build(),
            VirtualTime::from_secs(3),
        )
        .unwrap();
    assert!(matches!(fa.answer, QueryAnswer::Profiles(_)));
    let survivors = fed.shutdown();
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].name(), "range-1");
}
