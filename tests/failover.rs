//! Integration test: adaptivity to component failure (E6) — SCI repairs
//! automatically; the Context Toolkit and Solar baselines starve on the
//! identical event stream.

use sci::baselines::toolkit::Interpreter;
use sci::baselines::{GraphSpec, SolarEngine, SpecNode, ToolkitPipeline};
use sci::core::adaptation;
use sci::prelude::*;

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

fn sci_rig(door_count: usize) -> Rig {
    let plan = capa_level10();
    let mut ids = GuidGenerator::seeded(61);
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    let doors: Vec<Guid> = (0..door_count)
        .map(|i| {
            let id = ids.next_guid();
            cs.register(
                Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                    .output(PortSpec::new("presence", ContextType::Presence))
                    .attribute("max-silence-us", ContextValue::Int(15_000_000))
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
    cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    Rig {
        cs,
        doors,
        bob,
        app,
    }
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
        let mut sources = self.cs.configuration(self.query).unwrap().sources.clone();
        sources.sort();
        sources
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
    assert!(
        !reports[0].replacements.contains(&t.fahrenheit),
        "a Fahrenheit thermometer is no replacement for a Celsius one"
    );
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
