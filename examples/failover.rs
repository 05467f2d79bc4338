//! Fault tolerance: SCI vs the Context Toolkit vs Solar.
//!
//! Three context systems watch the same person through the same
//! redundant door sensors. One sensor dies mid-stream:
//!
//! * **SCI** detects the silence (mediator liveness) and rewires the
//!   configuration to the surviving sensors — the application never
//!   notices.
//! * The **Context Toolkit** pipeline was wired at design time to the
//!   dead sensor and starves forever.
//! * **Solar** delivers nothing until the *developer* re-specifies the
//!   graph.
//!
//! Run with: `cargo run --example failover`

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

fn main() -> SciResult<()> {
    let mut ids = GuidGenerator::seeded(66);
    let plan = capa_level10();
    let bob = ids.next_guid();

    // Two equivalent badge readers cover Bob's movements.
    let door_a = ids.next_guid();
    let door_b = ids.next_guid();

    // --- SCI -----------------------------------------------------------
    let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());
    for (door, name) in [(door_a, "door-A"), (door_b, "door-B")] {
        cs.register(
            Profile::builder(door, EntityKind::Device, name)
                .output(PortSpec::new("presence", ContextType::Presence))
                .attribute("max-silence-us", ContextValue::Int(20_000_000))
                .build(),
            VirtualTime::ZERO,
        )?;
    }
    let obj_loc = ids.next_guid();
    cs.register(
        Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
            .input(PortSpec::new("presence", ContextType::Presence))
            .output(PortSpec::new("location", ContextType::Location))
            .build(),
        VirtualTime::ZERO,
    )?;
    let p = plan.clone();
    cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(bob))],
        )
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&q, VirtualTime::ZERO)?;

    // --- Context Toolkit: wired to door A alone, at design time. --------
    let mut toolkit = ToolkitPipeline::wire(
        [door_a],
        ContextType::Presence,
        Interpreter::presence_to_location(plan.clone()),
        bob,
    );

    // --- Solar: the developer explicitly chose door A. ------------------
    let mut solar = SolarEngine::new(plan.clone());
    let solar_app = ids.next_guid();
    let spec_a = GraphSpec {
        nodes: vec![SpecNode::LocationOf(bob), SpecNode::Source(door_a)],
        children: vec![vec![1], vec![]],
    };
    solar.attach(solar_app, &spec_a)?;

    let mut sci_got = 0u32;
    let mut toolkit_got = 0u32;
    let mut solar_got = 0u32;
    let rooms = ["L10.01", "corridor", "L10.02", "corridor"];

    // Phase 1: door A reports Bob; both doors heartbeat their liveness.
    println!("phase 1: door A healthy");
    for step in 0..4u64 {
        let now = VirtualTime::from_secs(step * 5);
        let ev = presence(door_a, bob, rooms[step as usize % 4], now);
        cs.ingest(&ev, now)?;
        cs.heartbeat(door_b, now)?;
        sci_got += cs.drain_outbox().len() as u32;
        toolkit.ingest(&ev, now);
        solar.ingest(&ev, now);
    }
    toolkit_got += toolkit.deliveries().len() as u32;
    solar_got += solar.deliveries_for(solar_app).len() as u32;
    println!("  sci={sci_got} toolkit={toolkit_got} solar={solar_got}");

    // Phase 2: door A dies (heartbeats stop); door B stays alive and
    // keeps seeing Bob. The mediator notices A's silence past its 20 s
    // QoS window.
    println!("phase 2: door A fails; door B survives");
    let failure_noticed = VirtualTime::from_secs(41);
    cs.heartbeat(door_b, failure_noticed)?;
    let reports = adaptation::detect_and_repair(&mut cs, failure_noticed);
    for r in &reports {
        println!(
            "  sci repaired configuration {} (degraded: {})",
            r.query, r.degraded
        );
    }

    let toolkit_before_failure = toolkit_got;
    let solar_before_failure = solar_got;
    for step in 0..4u64 {
        let now = VirtualTime::from_secs(45 + step * 5);
        let ev = presence(door_b, bob, rooms[step as usize % 4], now);
        cs.ingest(&ev, now)?;
        sci_got += cs.drain_outbox().len() as u32;
        toolkit.ingest(&ev, now);
        solar.ingest(&ev, now);
    }
    toolkit_got = toolkit.deliveries().len() as u32;
    solar_got += solar.deliveries_for(solar_app).len() as u32;
    println!("  sci={sci_got} toolkit={toolkit_got} solar={solar_got}");
    assert!(sci_got >= 8, "SCI kept delivering after the failure");
    assert_eq!(toolkit_got, toolkit_before_failure, "toolkit starved");
    assert_eq!(solar_got, solar_before_failure, "solar starved too");

    // Phase 3: the Solar developer shows up and re-specifies by hand.
    println!("phase 3: solar developer re-specifies the graph manually");
    let spec_b = GraphSpec {
        nodes: vec![SpecNode::LocationOf(bob), SpecNode::Source(door_b)],
        children: vec![vec![1], vec![]],
    };
    solar.respecify(solar_app, &spec_b)?;
    let now = VirtualTime::from_secs(120);
    solar.ingest(&presence(door_b, bob, "L10.01", now), now);
    let recovered = solar.deliveries_for(solar_app).len();
    println!("  solar recovered: {recovered} delivery after manual re-spec");
    assert_eq!(recovered, 1);

    println!("summary: SCI adapted automatically; both baselines required the outage");
    Ok(())
}
