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
