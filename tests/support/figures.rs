//! The paper's count figures, computed from seeded fixtures: the
//! tables `tests/fixtures/golden/figures.txt` pins and `EXPERIMENTS.md`
//! copies (see `DESIGN.md` for the figure → experiment mapping). Each
//! table asserts the shape of its claim before it is printed.
//!
//! Only `tests/golden.rs` compiles this module (`#[path]`), so the
//! other suites that share `tests/support` carry none of it.

use sci::baselines::toolkit::Interpreter;
use sci::baselines::{GraphSpec, SolarEngine, SpecNode, ToolkitPipeline};
use sci::core::adaptation;
use sci::overlay::hierarchy::HierarchicalNetwork;
use sci::overlay::LoadStats;
use sci::prelude::*;
use sci::query::codec::{from_xml, to_xml};

/// E1's traffic: messages each node sends.
const MESSAGES_PER_NODE: usize = 16;

/// E1: an `n`-node overlay given full membership, and its nodes in
/// insertion order.
fn build_overlay(n: usize, seed: u64) -> (SimNetwork, Vec<Guid>) {
    let mut net = SimNetwork::new();
    let mut ids = GuidGenerator::seeded(seed);
    let guids: Vec<Guid> = (0..n)
        .map(|i| {
            let g = ids.next_guid();
            net.add_node(g, format!("r{i}")).expect("fresh");
            g
        })
        .collect();
    net.populate_full();
    (net, guids)
}

/// E1's uniform traffic matrix: [`MESSAGES_PER_NODE`] `(src, dst)`
/// pairs from every node, strided over the others.
fn traffic(guids: &[Guid]) -> Vec<(Guid, Guid)> {
    let n = guids.len();
    let mut pairs = Vec::with_capacity(n * MESSAGES_PER_NODE);
    for (i, &src) in guids.iter().enumerate() {
        for k in 1..=MESSAGES_PER_NODE {
            let dst = guids[(i + k * 131) % n];
            if dst != src {
                pairs.push((src, dst));
            }
        }
    }
    pairs
}

/// E7: a fully connected serial federation of `ranges` ranges named
/// `range-<i>`, each holding one presence sensor.
fn build_federation(ranges: usize, seed: u64) -> (Federation, GuidGenerator) {
    let mut ids = GuidGenerator::seeded(seed);
    let mut fed = Federation::new(seed);
    for i in 0..ranges {
        let plan = FloorPlan::builder("campus")
            .zone(format!("wing-{i}"))
            .room(
                format!("hall-{i}"),
                Rect::with_size(Coord::new(0.0, 0.0), 20.0, 10.0),
            )
            .build()
            .expect("static plan");
        let mut cs = ContextServer::new(ids.next_guid(), format!("range-{i}"), plan);
        let sensor = ids.next_guid();
        cs.register(
            Profile::builder(sensor, EntityKind::Device, format!("sensor-{i}"))
                .output(PortSpec::new("p", ContextType::Presence))
                .attribute("service", ContextValue::text("sensing"))
                .build(),
            VirtualTime::ZERO,
        )
        .expect("fresh");
        fed.add_range(cs).expect("unique");
    }
    fed.connect_full();
    (fed, ids)
}

/// E7: one profile query submitted at `range-<from>` about the devices
/// of `range-<to>`; the round trip's hop count.
fn forward_once(fed: &mut Federation, ids: &mut GuidGenerator, from: usize, to: usize) -> u32 {
    let app = ids.next_guid();
    let q = Query::builder(ids.next_guid(), app)
        .kind(EntityKind::Device)
        .in_range(format!("range-{to}"))
        .all()
        .mode(Mode::Profile)
        .build();
    fed.submit_from(&format!("range-{from}"), &q, VirtualTime::ZERO)
        .expect("routes")
        .hops
}

/// A Context Server populated with the Figure 3 entity classes:
/// `door_count` door sensors, one `objLocationCE`, one `pathCE`, plus
/// `distractors` unrelated source CEs (temperature) to dilute the
/// resolver's search space.
struct Figure3Rig {
    /// The server under test.
    cs: ContextServer,
    /// Deterministic id source.
    ids: GuidGenerator,
    /// The door sensor GUIDs.
    doors: Vec<Guid>,
}

impl Figure3Rig {
    /// Builds the rig.
    fn new(door_count: usize, distractors: usize, seed: u64) -> Self {
        let plan = capa_level10();
        let mut ids = GuidGenerator::seeded(seed);
        let mut cs = ContextServer::new(ids.next_guid(), "level-ten", plan.clone());

        let doors: Vec<Guid> = (0..door_count)
            .map(|i| {
                let id = ids.next_guid();
                cs.register(
                    Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                        .output(PortSpec::new("presence", ContextType::Presence))
                        .build(),
                    VirtualTime::ZERO,
                )
                .expect("fresh guid");
                id
            })
            .collect();

        for i in 0..distractors {
            let id = ids.next_guid();
            cs.register(
                Profile::builder(id, EntityKind::Device, format!("thermo-{i}"))
                    .output(PortSpec::new("t", ContextType::Temperature))
                    .attribute("unit", ContextValue::text("celsius"))
                    .build(),
                VirtualTime::ZERO,
            )
            .expect("fresh guid");
        }

        let obj_loc = ids.next_guid();
        cs.register(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
            VirtualTime::ZERO,
        )
        .expect("fresh guid");
        let p = plan.clone();
        cs.register_logic(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));

        let path_ce = ids.next_guid();
        cs.register(
            Profile::builder(path_ce, EntityKind::Software, "pathCE")
                .input(PortSpec::new("from", ContextType::Location))
                .input(PortSpec::new("to", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
            VirtualTime::ZERO,
        )
        .expect("fresh guid");
        cs.register_logic(path_ce, factory(move || PathLogic::new(plan.clone())));

        Figure3Rig { cs, ids, doors }
    }
}

/// A door-sensor presence event: `subject` goes from the corridor to
/// `to`.
fn presence_event(source: Guid, subject: Guid, to: &str, t: VirtualTime) -> ContextEvent {
    ContextEvent::new(
        source,
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(subject)),
            ("from", ContextValue::place("corridor")),
            ("to", ContextValue::place(to)),
        ]),
        t,
    )
}

/// The path query of Figure 3.
fn path_query(ids: &mut GuidGenerator, app: Guid, from: Guid, to: Guid) -> Query {
    Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Path,
            vec![
                Predicate::eq("from", ContextValue::Id(from)),
                Predicate::eq("to", ContextValue::Id(to)),
            ],
        )
        .mode(Mode::Subscribe)
        .build()
}

/// Every table, in experiment order, blank-line separated.
pub fn tables() -> String {
    [e1(), e3(), e4(), e6(), e7(), e8()].join("\n")
}

/// E1's network sizes.
const E1_SIZES: [usize; 4] = [16, 64, 256, 1024];

/// E1: the overlay against a 4-ary tree, after asserting the shape of
/// the paper's §3 claim: the overlay's hops are no more than the
/// tree's, and the tree's bottleneck grows against the overlay's.
fn e1() -> String {
    let mut e1 = format!(
        "E1: overlay vs 4-ary tree, uniform traffic, {MESSAGES_PER_NODE} msgs/node\n\n\
         | N | overlay hops | tree hops | overlay max load | tree max load \
         | overlay imbalance | tree imbalance |\n\
         |---|---|---|---|---|---|---|\n"
    );
    let mut load_ratios = Vec::new();
    for n in E1_SIZES {
        let (mut net, guids) = build_overlay(n, 42);
        let mut tree = HierarchicalNetwork::new(guids.iter().copied(), 4);
        for (src, dst) in traffic(&guids) {
            net.route(src, dst).unwrap();
            tree.route(src, dst).unwrap();
        }
        let (ovl, tree) = (net.stats(), tree.stats());
        let max = |s: &LoadStats| s.max_load().map_or(0, |(_, load)| load);
        assert!(ovl.mean_hops() <= tree.mean_hops(), "N = {n}: overlay hops");
        load_ratios.push(max(tree) as f64 / max(ovl) as f64);
        e1 += &format!(
            "| {n} | {:.2} | {:.2} | {} | {} | {:.2} | {:.2} |\n",
            ovl.mean_hops(),
            tree.mean_hops(),
            max(ovl),
            max(tree),
            ovl.imbalance(),
            tree.imbalance()
        );
    }
    assert!(
        load_ratios.windows(2).all(|w| w[0] < w[1]),
        "tree max load / overlay max load must rise with N: {load_ratios:?}"
    );
    e1
}

/// E3: Figure 3's path query resolved against a growing population.
/// Whatever the distractors, the configuration is three instances
/// wired to every door and to no thermometer.
fn e3() -> String {
    let mut e3 = String::from(
        "E3: Figure 3's path query vs registered population\n\n\
         | doors | distractors | instances | wired sources |\n|---|---|---|---|\n",
    );
    for (doors, distractors) in [(4, 0), (4, 100), (4, 1000), (16, 1000), (64, 5000)] {
        let mut rig = Figure3Rig::new(doors, distractors, 3);
        let app = rig.ids.next_guid();
        let bob = rig.ids.next_guid();
        let john = rig.ids.next_guid();
        let q = path_query(&mut rig.ids, app, bob, john);
        rig.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
        let wired = rig.cs.sources_of(q.id);
        let mut expected = rig.doors.clone();
        expected.sort_unstable();
        assert_eq!(wired, expected, "{doors} doors: every door, no distractor");
        e3 += &format!(
            "| {doors} | {distractors} | {} | {} |\n",
            rig.cs.instance_count(),
            wired.len()
        );
    }
    e3
}

/// E4's query documents: `predicates` constraints and `nesting`
/// filtered levels of `predicates` predicates each.
fn query_of_complexity(predicates: usize, nesting: usize) -> Query {
    let mut which = Which::Closest;
    for level in 0..nesting {
        which = Which::Filtered {
            predicates: (0..predicates)
                .map(|i| {
                    Predicate::new(
                        format!("attr-{level}-{i}"),
                        CmpOp::Le,
                        ContextValue::Int(i as i64),
                    )
                })
                .collect(),
            then: Box::new(which),
        };
    }
    Query {
        id: Guid::from_u128(1),
        owner: Guid::from_u128(2),
        what: What::Information {
            ty: ContextType::PrinterStatus,
            constraints: (0..predicates)
                .map(|i| Predicate::eq(format!("c{i}"), ContextValue::Int(i as i64)))
                .collect(),
        },
        where_: Where::Place("Room L10.01".into()),
        when: When::OnEnter {
            entity: Subject::Owner,
            place: "L10.01".into(),
        },
        which,
        mode: Mode::Advertisement,
    }
}

/// E4: Figure 6's query document size as the query grows; each
/// document reads back as the query it was written from.
fn e4() -> String {
    let mut e4 = String::from(
        "E4: query document size vs complexity\n\n\
         | predicates | nesting | bytes |\n|---|---|---|\n",
    );
    for (predicates, nesting) in [(0, 0), (2, 1), (4, 2), (8, 4), (16, 8)] {
        let q = query_of_complexity(predicates, nesting);
        let xml = to_xml(&q);
        assert_eq!(from_xml(&xml).unwrap(), q, "{predicates}x{nesting}");
        e4 += &format!("| {predicates} | {nesting} | {} |\n", xml.len());
    }
    e4
}

/// E6: deliveries for Bob's location by SCI, a statically wired
/// Context Toolkit pipeline and an explicit Solar graph: ten events
/// from door 0, then ten from door 1 once door 0 has failed. SCI
/// repairs its configuration onto door 1; the baselines are left as
/// they are and starve.
fn e6() -> String {
    let mut rig = Figure3Rig::new(2, 0, 11);
    let bob = rig.ids.next_guid();
    let app = rig.ids.next_guid();
    let q = Query::builder(rig.ids.next_guid(), app)
        .info_matching(
            ContextType::Location,
            vec![Predicate::eq("subject", ContextValue::Id(bob))],
        )
        .mode(Mode::Subscribe)
        .build();
    rig.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    let to_location = Interpreter::presence_to_location(capa_level10());
    let mut toolkit =
        ToolkitPipeline::wire([rig.doors[0]], ContextType::Presence, to_location, bob);
    let mut solar = SolarEngine::new(capa_level10());
    let solar_app = rig.ids.next_guid();
    let spec = GraphSpec {
        nodes: vec![SpecNode::LocationOf(bob), SpecNode::Source(rig.doors[0])],
        children: vec![vec![1], vec![]],
    };
    solar.attach(solar_app, &spec).unwrap();

    // [SCI, Toolkit, Solar] while door 0 works, then after it fails.
    let mut rows = [[0; 3]; 2];
    for (door, row) in rows.iter_mut().enumerate() {
        if door == 1 {
            adaptation::repair_source(&mut rig.cs, rig.doors[0], VirtualTime::from_secs(10));
        }
        let toolkit_before = toolkit.deliveries().len();
        let room = ["L10.01", "L10.02"][door];
        for t in (11 * door as u64..).take(10).map(VirtualTime::from_secs) {
            let ev = presence_event(rig.doors[door], bob, room, t);
            rig.cs.ingest(&ev, t).unwrap();
            row[0] += rig.cs.drain_outbox().len();
            toolkit.ingest(&ev, t);
            solar.ingest(&ev, t);
            row[2] += solar.deliveries_for(solar_app).len();
        }
        row[1] = toolkit.deliveries().len() - toolkit_before;
    }
    assert_eq!(rows, [[10; 3], [10, 0, 0]], "only SCI adapts");
    let mut e6 = String::from(
        "E6: deliveries around one sensor failure, 10 events each side\n\n\
         | phase | SCI | Toolkit | Solar |\n|---|---|---|---|\n",
    );
    for (phase, [sci, toolkit, solar]) in ["healthy", "after failure"].iter().zip(rows) {
        e6 += &format!("| {phase} | {sci} | {toolkit} | {solar} |\n");
    }
    e6
}

/// E7's range counts.
const E7_RANGES: [usize; 4] = [2, 8, 32, 128];

/// E7: the round trip of a profile query forwarded between ranges.
fn e7() -> String {
    let mut e7 = String::from(
        "E7: a profile query forwarded to another range, 100 queries\n\n\
         | ranges | mean round-trip hops |\n|---|---|\n",
    );
    for ranges in E7_RANGES {
        // Every range count is even, so `from` and `to` always differ.
        let (mut fed, mut ids) = build_federation(ranges, 17);
        let hops: u32 = (0..100)
            .map(|k| forward_once(&mut fed, &mut ids, k % ranges, (k * 13 + 1) % ranges))
            .sum();
        e7 += &format!("| {ranges} | {:.2} |\n", f64::from(hops) / 100.0);
    }
    e7
}

/// A Figure 3 rig with four doors, reuse on or off, and `queries`
/// identical path queries from distinct apps; Bob and John.
fn e8_rig(reuse: bool, queries: usize) -> (Figure3Rig, Guid, Guid) {
    let mut rig = Figure3Rig::new(4, 0, 8);
    rig.cs.set_reuse(reuse);
    let bob = rig.ids.next_guid();
    let john = rig.ids.next_guid();
    for _ in 0..queries {
        let app = rig.ids.next_guid();
        let q = path_query(&mut rig.ids, app, bob, john);
        rig.cs.submit_query(&q, VirtualTime::ZERO).unwrap();
    }
    (rig, bob, john)
}

/// `bus.publish.count`'s growth and the deliveries for one door event
/// that moves John, with 64 identical path queries standing and both
/// endpoints already located.
fn e8_publishes(reuse: bool) -> (u64, usize) {
    let (mut rig, bob, john) = e8_rig(reuse, 64);
    let door = rig.doors[0];
    let t = VirtualTime::from_secs(1);
    for (who, room) in [(bob, "L10.01"), (john, "L10.02")] {
        rig.cs
            .ingest(&presence_event(door, who, room, t), t)
            .unwrap();
    }
    rig.cs.drain_outbox();
    let before = rig.cs.snapshot().counter("bus.publish.count");
    let t = VirtualTime::from_secs(2);
    rig.cs
        .ingest(&presence_event(door, john, "bay", t), t)
        .unwrap();
    let delivered = rig.cs.drain_outbox().len();
    (
        rig.cs.snapshot().counter("bus.publish.count") - before,
        delivered,
    )
}

/// E8: Solar's shared subgraphs. Identical concurrent queries share one
/// configuration with reuse on and each build their own with it off,
/// and one event through the shared one is published once per stage.
fn e8() -> String {
    let mut e8 = String::from(
        "E8: live instances vs identical concurrent path queries\n\n\
         | queries | reuse on | reuse off |\n|---|---|---|\n",
    );
    for queries in [1, 8, 64, 512] {
        let on = e8_rig(true, queries).0.cs.instance_count();
        let off = e8_rig(false, queries).0.cs.instance_count();
        assert_eq!((on, off), (3, 3 * queries), "{queries} queries");
        e8 += &format!("| {queries} | {on} | {off} |\n");
    }
    let (shared, duplicated) = (e8_publishes(true), e8_publishes(false));
    e8 += &format!(
        "\nOne door event through 64 identical path queries\n\n\
         | | bus publishes | deliveries |\n|---|---|---|\n\
         | shared | {} | {} |\n| duplicated | {} | {} |\n",
        shared.0, shared.1, duplicated.0, duplicated.1
    );
    e8
}
