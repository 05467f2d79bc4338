//! Integration test: adaptivity to component failure (E6) — SCI repairs
//! automatically; the Context Toolkit and Solar baselines starve on the
//! identical event stream.

use std::sync::Arc;

use sci::baselines::toolkit::Interpreter;
use sci::baselines::{GraphSpec, SolarEngine, SpecNode, ToolkitPipeline};
use sci::core::adaptation::{self, AdaptationGovernor, AdaptationPolicy};
use sci::prelude::*;
use sci::telemetry::{Subscriber, TraceRecord};

fn presence(source: Guid, subject: Guid, to: &str, now: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        source,
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(subject)),
            ("from", ContextValue::place("corridor")),
            ("to", ContextValue::place(to)),
        ]),
        now,
    )
}

struct Rig {
    cs: ContextServer,
    doors: Vec<Guid>,
    bob: Guid,
    app: Guid,
}

fn door(id: Guid, i: usize) -> Profile {
    Profile::builder(id, EntityKind::Device, format!("door-{i}"))
        .output(PortSpec::new("presence", ContextType::Presence))
        .attribute("max-silence-us", ContextValue::Int(15_000_000))
        .build()
}

/// The range — liveness-tracked doors and `objLocationCE` — and the
/// subscription "where is Bob", not yet submitted.
fn door_range(door_count: usize) -> (Rig, Query) {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(61);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let doors: Vec<Guid> = (0..door_count)
        .map(|i| {
            let id = ids.next_guid();
            cs.register(door(id, i), VirtualTime::ZERO).unwrap();
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
    let p = plan;
    cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));

    let bob = ids.next_guid();
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(bob))],
        )
        .mode(Mode::Subscribe)
        .build();
    let rig = Rig {
        cs,
        doors,
        bob,
        app,
    };
    (rig, q)
}

fn sci_rig(door_count: usize) -> Rig {
    let (mut rig, q) = door_range(door_count);
    rig.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    rig
}

#[test]
fn sci_survives_sensor_failure_baselines_starve() {
    let mut r = sci_rig(2);
    let plan = capa_level10();

    let mut toolkit = ToolkitPipeline::wire(
        [r.doors[0]],
        ContextType::Presence,
        Interpreter::presence_to_location(plan.clone()),
        r.bob,
    );
    let mut solar = SolarEngine::new(plan);
    let solar_app = Guid::from_u128(0x50a);
    solar
        .attach(
            solar_app,
            &GraphSpec {
                nodes: vec![SpecNode::LocationOf(r.bob), SpecNode::Source(r.doors[0])],
                children: vec![vec![1], vec![]],
            },
        )
        .unwrap();

    // Healthy phase: door 0 reports, door 1 heartbeats.
    let mut sci_healthy = 0;
    for step in 0..3u64 {
        let now = VirtualTime::from_secs(step * 5);
        let ev = presence(r.doors[0], r.bob, "L10.01", now);
        r.cs.ingest(&ev, now).unwrap();
        r.cs.heartbeat(r.doors[1], now).unwrap();
        sci_healthy += r.cs.drain_outbox().len();
        toolkit.ingest(&ev, now);
        solar.ingest(&ev, now);
    }
    assert_eq!(sci_healthy, 3);
    assert_eq!(toolkit.deliveries().len(), 3);
    assert_eq!(solar.deliveries_for(solar_app).len(), 3);

    // Door 0 goes silent past its 15 s window; door 1 stays alive.
    let detect_at = VirtualTime::from_secs(27);
    r.cs.heartbeat(r.doors[1], detect_at).unwrap();
    let reports = adaptation::detect_and_repair(&mut r.cs, detect_at);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].failed, r.doors[0]);
    assert!(!reports[0].degraded, "a survivor exists");

    // Post-failure: only door 1 reports.
    let mut sci_after = 0;
    for step in 0..3u64 {
        let now = VirtualTime::from_secs(30 + step * 5);
        let ev = presence(r.doors[1], r.bob, "L10.02", now);
        r.cs.ingest(&ev, now).unwrap();
        sci_after += r.cs.drain_outbox().len();
        toolkit.ingest(&ev, now);
        solar.ingest(&ev, now);
    }
    assert_eq!(sci_after, 3, "SCI kept delivering without app involvement");
    assert_eq!(toolkit.deliveries().len(), 3, "toolkit starved at 3");
    assert_eq!(solar.deliveries_for(solar_app).len(), 0, "solar starved");
}

#[test]
fn repair_latency_is_bounded_by_detection_poll() {
    // The delivered-event gap equals the failure detection delay: events
    // arriving after repair flow immediately.
    let mut r = sci_rig(3);
    let t_fail = VirtualTime::from_secs(10);
    // doors[0] dies silently at t=10 (it last spoke at t=5).
    let ev = presence(r.doors[0], r.bob, "L10.01", VirtualTime::from_secs(5));
    r.cs.ingest(&ev, VirtualTime::from_secs(5)).unwrap();
    for d in &r.doors[1..] {
        r.cs.heartbeat(*d, t_fail).unwrap();
    }
    r.cs.drain_outbox();

    // Detection poll at t=21 (silence 16 s > 15 s QoS).
    let t_detect = VirtualTime::from_secs(21);
    for d in &r.doors[1..] {
        r.cs.heartbeat(*d, t_detect).unwrap();
    }
    let reports = adaptation::detect_and_repair(&mut r.cs, t_detect);
    assert_eq!(reports.len(), 1);
    let gap = t_detect.saturating_since(t_fail);
    assert!(
        gap <= VirtualDuration::from_secs(11),
        "gap is the poll delay"
    );

    // The very next survivor event is delivered.
    let ev = presence(r.doors[1], r.bob, "corridor", VirtualTime::from_secs(22));
    r.cs.ingest(&ev, VirtualTime::from_secs(22)).unwrap();
    assert_eq!(r.cs.drain_outbox().len(), 1);
}

#[test]
fn a_late_event_does_not_make_a_live_sensor_look_silent() {
    // doors[0] heartbeats at t=30, then a reading it stamped at t=5
    // arrives (a relayed or batched event, out of order). The sensor
    // was heard from 8 s ago, not 33 s ago: nothing is repaired.
    let mut r = sci_rig(2);
    let t_alive = VirtualTime::from_secs(30);
    for d in &r.doors {
        r.cs.heartbeat(*d, t_alive).unwrap();
    }
    let late = presence(r.doors[0], r.bob, "L10.01", VirtualTime::from_secs(5));
    r.cs.ingest(&late, t_alive).unwrap();
    assert_eq!(r.cs.drain_outbox().len(), 1, "late, but still delivered");

    let wiring = |cs: &ContextServer| -> Vec<String> {
        let bus = cs.mediator().bus();
        bus.iter()
            .map(|s| format!("{} {}", s.id, s.topic))
            .collect()
    };
    let before = wiring(&r.cs);
    let reports = adaptation::detect_and_repair(&mut r.cs, VirtualTime::from_secs(38));
    assert!(reports.is_empty(), "no live source is torn down");
    assert_eq!(wiring(&r.cs), before, "subscriptions untouched");
}

#[test]
fn graceful_deregistration_also_repairs() {
    let mut r = sci_rig(2);
    // The sensor leaves cleanly (maintenance); the configuration is
    // rewired to the survivor without a silence wait.
    r.cs.deregister(r.doors[0], VirtualTime::from_secs(1))
        .unwrap();
    let ev = presence(r.doors[1], r.bob, "L10.03", VirtualTime::from_secs(2));
    r.cs.ingest(&ev, VirtualTime::from_secs(2)).unwrap();
    let deliveries = r.cs.drain_outbox();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].app, r.app);
}

#[test]
fn total_source_loss_degrades_but_recovers_on_new_sensor() {
    let mut r = sci_rig(1);
    let reports = adaptation::repair_source(&mut r.cs, r.doors[0], VirtualTime::from_secs(1));
    assert!(reports[0].degraded, "no survivors");

    // A new door sensor arrives (environmental change the other way);
    // registration alone wires it into the degraded configuration.
    let newcomer = Guid::from_u128(0xfeed);
    r.cs.register(
        Profile::builder(newcomer, EntityKind::Device, "door-new")
            .output(PortSpec::new("presence", ContextType::Presence))
            .build(),
        VirtualTime::from_secs(2),
    )
    .unwrap();
    let ev = presence(newcomer, r.bob, "bay", VirtualTime::from_secs(4));
    r.cs.ingest(&ev, VirtualTime::from_secs(4)).unwrap();
    assert_eq!(r.cs.drain_outbox().len(), 1, "newcomer feeds the config");
}

// ---------------------------------------------------------------------
// The What clause's attribute predicates outlive the first wiring: the
// paper's own example, "temperature in degrees Celsius".
// ---------------------------------------------------------------------

struct Thermometers {
    cs: ContextServer,
    celsius: [Guid; 2],
    fahrenheit: Guid,
    query: Guid,
}

fn thermometer(id: Guid, name: &str, unit: &str) -> Profile {
    Profile::builder(id, EntityKind::Device, name)
        .output(PortSpec::new("t", ContextType::Temperature))
        .attribute("unit", ContextValue::text(unit))
        .build()
}

fn reading(source: Guid, degrees: f64, now: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        source,
        ContextType::Temperature,
        ContextValue::record([("value", ContextValue::Float(degrees))]),
        now,
    )
}

/// Two Celsius thermometers, and an application subscribed to
/// "temperature in degrees Celsius". The Fahrenheit thermometer is
/// registered before the subscription unless it is the `latecomer`.
fn thermometers(fahrenheit_is_late: bool) -> Thermometers {
    let mut ids = GuidGenerator::seeded(62);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
    let celsius = [ids.next_guid(), ids.next_guid()];
    let fahrenheit = ids.next_guid();
    for (i, &id) in celsius.iter().enumerate() {
        cs.register(
            thermometer(id, &format!("celsius-{i}"), "celsius"),
            VirtualTime::ZERO,
        )
        .unwrap();
    }
    if !fahrenheit_is_late {
        cs.register(
            thermometer(fahrenheit, "fahrenheit", "fahrenheit"),
            VirtualTime::ZERO,
        )
        .unwrap();
    }
    let q = Query::builder(ids.next_guid(), ids.next_guid())
        .info_matching(
            ContextType::Temperature,
            vec![Predicate::eq("unit", ContextValue::text("celsius"))],
        )
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    Thermometers {
        cs,
        celsius,
        fahrenheit,
        query: q.id,
    }
}

impl Thermometers {
    /// How many deliveries one reading from `source` produces.
    fn delivered_from(&mut self, source: Guid, at: u64) -> usize {
        let now = VirtualTime::from_secs(at);
        self.cs.ingest(&reading(source, 21.5, now), now).unwrap();
        self.cs.drain_outbox().len()
    }

    fn feeding(&self) -> Vec<Guid> {
        self.cs.sources_of(self.query)
    }
}

/// R1: a Fahrenheit thermometer that registers *after* the subscription
/// is not wired to it; a Celsius latecomer is.
#[test]
fn a_late_source_is_wired_only_if_it_satisfies_the_what_clause() {
    let mut t = thermometers(true);
    t.cs.register(
        thermometer(t.fahrenheit, "fahrenheit", "fahrenheit"),
        VirtualTime::from_secs(1),
    )
    .unwrap();
    assert_eq!(
        t.delivered_from(t.fahrenheit, 2),
        0,
        "wrong unit: not wired"
    );
    let mut expected = t.celsius.to_vec();
    expected.sort();
    assert_eq!(t.feeding(), expected);

    let late = Guid::from_u128(0xce1);
    t.cs.register(
        thermometer(late, "celsius-late", "celsius"),
        VirtualTime::from_secs(3),
    )
    .unwrap();
    assert_eq!(t.delivered_from(late, 4), 1, "right unit: wired on arrival");
    assert_eq!(t.delivered_from(t.celsius[0], 5), 1);
}

/// R2: one of two Celsius thermometers leaves cleanly; the Fahrenheit
/// one does not take its place, the other Celsius one keeps delivering.
#[test]
fn a_departure_is_not_replaced_by_a_source_of_the_wrong_unit() {
    let mut t = thermometers(false);
    t.cs.deregister(t.celsius[0], VirtualTime::from_secs(1))
        .unwrap();
    assert_eq!(
        t.delivered_from(t.fahrenheit, 2),
        0,
        "wrong unit: not wired"
    );
    assert_eq!(t.delivered_from(t.celsius[1], 3), 1, "survivor delivers");
    assert_eq!(t.feeding(), vec![t.celsius[1]]);
}

/// R3: the same when the thermometer fails instead of leaving.
#[test]
fn a_failure_is_not_repaired_with_a_source_of_the_wrong_unit() {
    let mut t = thermometers(false);
    let reports = adaptation::repair_source(&mut t.cs, t.celsius[0], VirtualTime::from_secs(1));
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].query, t.query);
    assert!(!reports[0].degraded, "a Celsius survivor exists");
    assert_eq!(
        t.delivered_from(t.fahrenheit, 2),
        0,
        "wrong unit: not wired"
    );
    assert_eq!(t.delivered_from(t.celsius[0], 3), 0, "failed: cut off");
    assert_eq!(t.delivered_from(t.celsius[1], 4), 1, "survivor delivers");
    assert_eq!(t.feeding(), vec![t.celsius[1]]);

    // And a thermometer that was never feeding it fails unnoticed.
    let reports = adaptation::repair_source(&mut t.cs, t.fahrenheit, VirtualTime::from_secs(5));
    assert!(reports.is_empty(), "{reports:?}");
}

// ---------------------------------------------------------------------
// A failure is a command: every driver takes it through the same door,
// and a range rebuilt from its log remembers it.
// ---------------------------------------------------------------------

/// What the silent-door scenario leaves behind: who is excluded, what
/// feeds the subscription, and what one reading per door then delivers.
#[derive(PartialEq, Debug)]
struct Repaired {
    excluded: Vec<Guid>,
    feeding: Vec<Guid>,
    delivered: Vec<String>,
}

fn repaired(cs: &ContextServer, query: Guid, deliveries: Vec<AppDelivery>) -> Repaired {
    let mut excluded: Vec<Guid> = cs.excluded().iter().copied().collect();
    excluded.sort();
    let mut delivered: Vec<String> = deliveries
        .iter()
        .map(|d| format!("{} {} {}", d.query, d.event.topic, d.event.payload))
        .collect();
    delivered.sort();
    Repaired {
        excluded,
        feeding: cs.sources_of(query),
        delivered,
    }
}

const T_POLL: VirtualTime = VirtualTime::from_secs(20);
const T_READ: VirtualTime = VirtualTime::from_secs(21);

/// Door 0 has been silent since it registered, past its 15 s window;
/// door 1 heartbeats. The poll is `detect_and_repair` on a bare server
/// and `poll_timers` — nothing else — on either federation driver.
#[test]
fn a_silent_door_is_repaired_identically_on_every_driver() {
    let readings = |r: &Rig| {
        let to = ["L10.01", "L10.02"];
        [0, 1].map(|i| presence(r.doors[i], r.bob, to[i], T_READ))
    };

    let (mut r, q) = door_range(2);
    r.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    r.cs.heartbeat(r.doors[1], T_POLL).unwrap();
    let reports = adaptation::detect_and_repair(&mut r.cs, T_POLL);
    assert_eq!(reports.len(), 1);
    assert_eq!((reports[0].query, reports[0].failed), (q.id, r.doors[0]));
    for ev in readings(&r) {
        r.cs.ingest(&ev, T_READ).unwrap();
    }
    let deliveries = r.cs.drain_outbox();
    let bare = repaired(&r.cs, q.id, deliveries);
    assert_eq!(bare.excluded, vec![r.doors[0]]);
    assert_eq!(bare.feeding, vec![r.doors[1]]);
    assert_eq!(bare.delivered.len(), 1, "the failed door is cut off");

    let (r, q) = door_range(2);
    let events = readings(&r);
    let mut fed = Federation::new(7);
    fed.add_range(r.cs).unwrap();
    fed.submit_from("level-ten", &q, VirtualTime::ZERO).unwrap();
    let cs = fed.server_mut("level-ten").unwrap();
    cs.heartbeat(r.doors[1], T_POLL).unwrap();
    fed.poll_timers(T_POLL).unwrap();
    for ev in &events {
        fed.ingest_at("level-ten", ev, T_READ).unwrap();
    }
    let deliveries = fed.deliveries_for(r.app);
    let serial = repaired(fed.server("level-ten").unwrap(), q.id, deliveries);
    assert_eq!(serial, bare, "serial federation");

    let (r, q) = door_range(2);
    let mut fed = ParallelFederation::new(7);
    fed.add_range(r.cs).unwrap();
    fed.submit_from("level-ten", &q, VirtualTime::ZERO).unwrap();
    fed.command("level-ten", RangeCommand::Heartbeat(r.doors[1]), T_POLL)
        .unwrap();
    fed.poll_timers(T_POLL).unwrap();
    for ev in &events {
        fed.ingest_at("level-ten", ev, T_READ).unwrap();
    }
    fed.sync(T_READ).unwrap();
    let deliveries = fed.deliveries_for(r.app);
    let servers = fed.shutdown();
    let threaded = repaired(&servers[0], q.id, deliveries);
    assert_eq!(threaded, bare, "threaded federation");
}

/// Panics when the `audit` command's span closes: a way to kill a
/// range's worker from outside.
struct PanicOnAudit;

impl Subscriber for PanicOnAudit {
    fn record(&self, rec: TraceRecord) {
        if rec.name() == "audit" {
            panic!("audit tracing exploded")
        }
    }
}

/// R7 on a supervised worker: the restart rebuilds the range from its
/// (in-memory) log, and the failure is in it.
#[test]
fn a_worker_that_panics_after_a_failure_still_excludes_the_source() {
    let mut r = sci_rig(2);
    r.cs.set_tracer(Tracer::new(Arc::new(PanicOnAudit)));
    let mut rt = RangeRuntime::spawn_supervised(r.cs, RestartPolicy::bounded(1));
    let failed = rt.call(RangeCommand::Fail(r.doors[0]), T_POLL).unwrap();
    assert!(matches!(&failed, RangeReply::Repaired(reports) if reports.len() == 1));
    let audit = rt.call(RangeCommand::Audit, T_POLL);
    assert!(matches!(audit, Err(SciError::RangeDown(_))), "{audit:?}");
    assert_eq!(rt.restarts(), 1);

    for (i, to) in ["L10.01", "L10.02"].into_iter().enumerate() {
        let ev = presence(r.doors[i], r.bob, to, T_READ);
        rt.call(RangeCommand::Ingest(ev), T_READ).unwrap();
    }
    let mut live = rt.shutdown().unwrap();
    assert!(live.excluded().contains(&r.doors[0]));
    assert_eq!(live.drain_outbox().len(), 1, "door 0 stays cut off");
    // Once live, once more when the restart replayed the record.
    assert_eq!(live.snapshot().counter("range.source.failed"), 2);
}

#[test]
fn failing_what_is_not_there_to_fail_changes_nothing() {
    let mut r = sci_rig(2);
    let wiring = |cs: &ContextServer| -> Vec<String> {
        let bus = cs.mediator().bus();
        bus.iter()
            .map(|s| format!("{} {}", s.id, s.topic))
            .collect()
    };
    let t = VirtualTime::from_secs(1);

    let before = wiring(&r.cs);
    let stranger = Guid::from_u128(0xdead);
    assert!(adaptation::repair_source(&mut r.cs, stranger, t).is_empty());
    assert!(r.cs.excluded().is_empty(), "an unknown CE is not marked");
    assert_eq!(wiring(&r.cs), before);

    assert_eq!(adaptation::repair_source(&mut r.cs, r.doors[0], t).len(), 1);
    let once = wiring(&r.cs);
    assert!(adaptation::repair_source(&mut r.cs, r.doors[0], t).is_empty());
    assert_eq!(wiring(&r.cs), once, "already failed");

    r.cs.deregister(r.doors[1], t).unwrap();
    let departed = wiring(&r.cs);
    assert!(adaptation::repair_source(&mut r.cs, r.doors[1], t).is_empty());
    assert!(!r.cs.excluded().contains(&r.doors[1]), "it has left");
    assert_eq!(wiring(&r.cs), departed);
    assert_eq!(r.cs.snapshot().counter("range.source.failed"), 1);
    assert_eq!(r.cs.snapshot().counter("range.cmd.fail.count"), 4);
}

/// A source that keeps failing is wired again every time it registers
/// again: nothing in a range remembers how often (the governor counts
/// observations, for its caller). What bounds the churn is the
/// per-configuration repair budget.
#[test]
fn a_source_that_failed_twice_is_wired_again_when_it_registers_again() {
    let mut r = sci_rig(2);
    let mut governor = AdaptationGovernor::new(AdaptationPolicy::default());
    for round in 0..2u64 {
        let t = VirtualTime::from_secs(100 * (round + 1));
        r.cs.heartbeat(r.doors[1], t).unwrap();
        let reports = adaptation::detect_and_repair_governed(&mut r.cs, &mut governor, t);
        assert_eq!(reports.len(), 1, "round {round}");
        assert!(r.cs.excluded().contains(&r.doors[0]));

        r.cs.deregister(r.doors[0], t).unwrap();
        r.cs.register(door(r.doors[0], 0), t).unwrap();
        assert!(r.cs.excluded().is_empty());
        let ev = presence(r.doors[0], r.bob, "L10.01", t);
        r.cs.ingest(&ev, t).unwrap();
        assert_eq!(r.cs.drain_outbox().len(), 1, "wired again, round {round}");
    }
    assert_eq!(governor.failure_count(r.doors[0]), 2);
    assert!(r.cs.audit_configurations().is_clean());
}

// ---------------------------------------------------------------------
// CAPA's "a printer with paper": an attribute a standing query tests
// changes under it.
// ---------------------------------------------------------------------

fn printer(id: Guid, name: &str, paper: bool) -> Profile {
    Profile::builder(id, EntityKind::Device, name)
        .output(PortSpec::new("status", ContextType::PrinterStatus))
        .attribute("paper", ContextValue::Bool(paper))
        .build()
}

#[test]
fn a_refill_wires_a_printer_and_running_dry_unwires_it() {
    let mut ids = GuidGenerator::seeded(63);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
    let (p1, p2) = (ids.next_guid(), ids.next_guid());
    cs.register(printer(p1, "p1", true), VirtualTime::ZERO)
        .unwrap();
    cs.register(printer(p2, "p2", false), VirtualTime::ZERO)
        .unwrap();
    let app = ids.next_guid();
    let with_paper = |id: Guid| {
        Query::builder(id, app)
            .info_matching(
                ContextType::PrinterStatus,
                vec![Predicate::eq("paper", ContextValue::Bool(true))],
            )
            .mode(Mode::Subscribe)
            .build()
    };
    let standing = with_paper(ids.next_guid());
    cs.submit_query(&standing, VirtualTime::ZERO).unwrap();

    // What feeds the standing query, and what feeds one submitted now.
    let mut fed_as_twin = |cs: &mut ContextServer, now: VirtualTime| {
        let twin = with_paper(ids.next_guid());
        cs.submit_query(&twin, now).unwrap();
        let fresh = cs.sources_of(twin.id);
        cs.cancel_query(twin.id).unwrap();
        assert_eq!(cs.sources_of(standing.id), fresh);
        fresh
    };
    let mut both = vec![p1, p2];
    both.sort();
    assert_eq!(fed_as_twin(&mut cs, VirtualTime::ZERO), vec![p1]);

    let status = |source: Guid, paper: bool, now: VirtualTime| {
        let payload = ContextValue::record([("paper", ContextValue::Bool(paper))]);
        ContextEvent::new(source, ContextType::PrinterStatus, payload, now)
    };
    let t1 = VirtualTime::from_secs(1);
    cs.ingest(&status(p2, true, t1), t1).unwrap();
    assert_eq!(fed_as_twin(&mut cs, t1), both, "refilled: wired");
    assert_eq!(cs.drain_outbox().len(), 1, "and its report is delivered");

    let t2 = VirtualTime::from_secs(2);
    cs.ingest(&status(p2, false, t2), t2).unwrap();
    assert_eq!(fed_as_twin(&mut cs, t2), vec![p1], "ran dry: unwired");
    assert!(cs.drain_outbox().is_empty());
    assert!(cs.audit_configurations().is_clean());
}
