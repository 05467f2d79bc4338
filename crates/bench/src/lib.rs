//! # sci-bench
//!
//! Shared fixtures for the paper's experiments (E1–E8, plus the E10
//! and E11 layer benches; see `DESIGN.md` for the figure → experiment
//! mapping and `EXPERIMENTS.md` for results). The Criterion benches in
//! `benches/` time them; `tests/golden.rs` at the workspace root pins
//! the deterministic counts E1 and E7 compute from the same fixtures
//! in `tests/fixtures/golden/figures.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sci_core::context_server::ContextServer;
use sci_core::federation::Federation;
use sci_core::logic::{factory, ObjLocationLogic, PathLogic};
use sci_location::floorplan::{capa_level10, FloorPlan};
use sci_location::Rect;
use sci_overlay::net::SimNetwork;
use sci_query::{Mode, Query};
use sci_types::guid::GuidGenerator;
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, PortSpec, Profile,
    VirtualTime,
};

/// E1's traffic: messages each node sends.
pub const MESSAGES_PER_NODE: usize = 16;

/// E1: an `n`-node overlay given full membership, and its nodes in
/// insertion order.
pub fn build_overlay(n: usize, seed: u64) -> (SimNetwork, Vec<Guid>) {
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
pub fn traffic(guids: &[Guid]) -> Vec<(Guid, Guid)> {
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
pub fn build_federation(ranges: usize, seed: u64) -> (Federation, GuidGenerator) {
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
pub fn forward_once(fed: &mut Federation, ids: &mut GuidGenerator, from: usize, to: usize) -> u32 {
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
pub struct Figure3Rig {
    /// The server under test.
    pub cs: ContextServer,
    /// Deterministic id source.
    pub ids: GuidGenerator,
    /// The door sensor GUIDs.
    pub doors: Vec<Guid>,
    /// The floor plan.
    pub plan: FloorPlan,
}

impl Figure3Rig {
    /// Builds the rig.
    pub fn new(door_count: usize, distractors: usize, seed: u64) -> Self {
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
        let p = plan.clone();
        cs.register_logic(path_ce, factory(move || PathLogic::new(p.clone())));

        Figure3Rig {
            cs,
            ids,
            doors,
            plan,
        }
    }
}

/// A door-sensor presence event.
pub fn presence_event(
    source: Guid,
    subject: Guid,
    from: &str,
    to: &str,
    t: VirtualTime,
) -> ContextEvent {
    ContextEvent::new(
        source,
        ContextType::Presence,
        ContextValue::record([
            ("subject", ContextValue::Id(subject)),
            ("from", ContextValue::place(from)),
            ("to", ContextValue::place(to)),
        ]),
        t,
    )
}

/// The path query of Figure 3.
pub fn path_query(ids: &mut GuidGenerator, app: Guid, from: Guid, to: Guid) -> sci_query::Query {
    sci_query::Query::builder(ids.next_guid(), app)
        .info_matching(
            ContextType::Path,
            vec![
                sci_query::Predicate::eq("from", ContextValue::Id(from)),
                sci_query::Predicate::eq("to", ContextValue::Id(to)),
            ],
        )
        .mode(sci_query::Mode::Subscribe)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_and_resolves() {
        let mut rig = Figure3Rig::new(4, 10, 1);
        let app = rig.ids.next_guid();
        let bob = rig.ids.next_guid();
        let john = rig.ids.next_guid();
        let q = path_query(&mut rig.ids, app, bob, john);
        rig.cs
            .submit_query(&q, VirtualTime::ZERO)
            .expect("resolves");
        assert_eq!(rig.cs.instance_count(), 3);
    }
}
