//! Context Entity behaviours.
//!
//! "At the Concrete level, CE or CAA developers need only to deal with
//! the service they provide or the events they receive" (paper, Section
//! 4.1). [`EntityLogic`] is that concrete level: the transformation a
//! derived CE applies to delivered events. The Context Server hosts one
//! logic instance per configuration node (parameterised by its binding),
//! wires its subscriptions, and republishes whatever it emits.
//!
//! Built-ins cover the paper's examples:
//!
//! * [`ObjLocationLogic`] — Figure 3's `objLocationCE`: presence events
//!   about an entity become location events.
//! * [`WlanLocationLogic`] — the same *output* type derived from signal
//!   strength readings (trilateration). Its interchangeability with
//!   [`ObjLocationLogic`] is SCI's answer to the iQueue critique in the
//!   paper's related-work section: syntactically different sources,
//!   semantically the same context.
//! * [`PathLogic`] — Figure 3's `pathCE`: two location streams become a
//!   path stream.
//! * [`AggregateLogic`] — a windowed numeric aggregator (mean), the
//!   Context-Toolkit-style "aggregator" role.
//!
//! [`register_world`] and [`install_standard_logic`] configure a range
//! from a simulated world through [`RelayCore::command`], on either
//! federation driver.

use std::collections::HashMap;

use sci_location::convert::{trilaterate, PathLossModel, SignalReading};
use sci_location::floorplan::FloorPlan;
use sci_location::language::LocationExpr;
use sci_location::pathfind::Route;
use sci_overlay::transport::Transport;
use sci_sensors::printer::Access;
use sci_sensors::world::World;
use sci_types::guid::GuidGenerator;
use sci_types::{
    Advertisement, ContextEvent, ContextType, ContextValue, Coord, EntityKind, Guid, Metadata,
    PortSpec, Profile, SciResult, VirtualTime,
};

use crate::relay::{RangeHost, RelayCore};
use crate::runtime::RangeCommand;

/// The concrete behaviour of a derived Context Entity.
///
/// Implementations receive every event their instance is subscribed to
/// and return the `(type, payload)` pairs to publish in response. The
/// hosting Context Server stamps source/sequence/time.
pub trait EntityLogic: Send {
    /// Processes one delivered event.
    fn on_event(
        &mut self,
        event: &ContextEvent,
        binding: &Metadata,
        now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)>;
}

/// A factory producing a fresh logic instance for a configuration node.
pub type LogicFactory = std::sync::Arc<dyn Fn() -> Box<dyn EntityLogic> + Send + Sync>;

/// Wraps a closure as a [`LogicFactory`].
pub fn factory<L, F>(f: F) -> LogicFactory
where
    L: EntityLogic + 'static,
    F: Fn() -> L + Send + Sync + 'static,
{
    std::sync::Arc::new(move || Box::new(f()))
}

/// Figure 3's `objLocationCE`: turns door-sensor presence events into
/// location events for the bound subject.
#[derive(Clone, Debug)]
pub struct ObjLocationLogic {
    plan: FloorPlan,
}

impl ObjLocationLogic {
    /// Creates the logic over the range's floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        ObjLocationLogic { plan }
    }
}

impl EntityLogic for ObjLocationLogic {
    fn on_event(
        &mut self,
        event: &ContextEvent,
        binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        // Structural matching rather than a strict topic check: a
        // semantically equivalent presence type (badge-scan, rfid-read…)
        // carries the same `subject`/`to` record and is accepted as-is.
        let Some(subject) = event.subject() else {
            return Vec::new();
        };
        // The topic filter normally guarantees the subject, but a
        // binding-less instance tracks everyone.
        if let Some(bound) = binding.get("subject").and_then(ContextValue::as_id) {
            if bound != subject {
                return Vec::new();
            }
        }
        let Some(room) = event.payload.field("to").and_then(ContextValue::as_text) else {
            return Vec::new();
        };
        let Ok(coord) = self.plan.centroid(room) else {
            return Vec::new();
        };
        vec![(
            ContextType::Location,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("room", ContextValue::place(room)),
                ("position", ContextValue::Coord(coord)),
            ]),
        )]
    }
}

/// A location provider over W-LAN signal strength: buffers readings per
/// station and trilaterates once three stations report.
#[derive(Clone, Debug)]
pub struct WlanLocationLogic {
    plan: FloorPlan,
    radio: PathLossModel,
    readings: HashMap<Guid, (Coord, f64)>,
}

impl WlanLocationLogic {
    /// Creates the logic over the range's floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        WlanLocationLogic {
            plan,
            radio: PathLossModel::INDOOR,
            readings: HashMap::new(),
        }
    }
}

impl EntityLogic for WlanLocationLogic {
    fn on_event(
        &mut self,
        event: &ContextEvent,
        binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        // Structural matching (see ObjLocationLogic): anything carrying
        // subject + rssi + station coordinates is a usable reading.
        let Some(subject) = event.subject() else {
            return Vec::new();
        };
        if let Some(bound) = binding.get("subject").and_then(ContextValue::as_id) {
            if bound != subject {
                return Vec::new();
            }
        }
        let (Some(rssi), Some(x), Some(y)) = (
            event.payload.field("rssi").and_then(ContextValue::as_float),
            event.payload.field("x").and_then(ContextValue::as_float),
            event.payload.field("y").and_then(ContextValue::as_float),
        ) else {
            return Vec::new();
        };
        self.readings.insert(event.source, (Coord::new(x, y), rssi));
        if self.readings.len() < 3 {
            return Vec::new();
        }
        let readings: Vec<SignalReading> = self
            .readings
            .values()
            .map(|&(at, rssi)| SignalReading::new(at, rssi))
            .collect();
        let Ok(position) = trilaterate(&self.radio, &readings) else {
            return Vec::new();
        };
        let room = self
            .plan
            .room_at(position)
            .map(|r| r.name.clone())
            .unwrap_or_default();
        vec![(
            ContextType::Location,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("room", ContextValue::place(room)),
                ("position", ContextValue::Coord(position)),
            ]),
        )]
    }
}

/// Figure 3's `pathCE`: remembers the latest location of the `from` and
/// `to` subjects and emits a fresh path whenever either moves.
#[derive(Clone, Debug)]
pub struct PathLogic {
    plan: FloorPlan,
    last: HashMap<Guid, Coord>,
}

impl PathLogic {
    /// Creates the logic over the range's floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        PathLogic {
            plan,
            last: HashMap::new(),
        }
    }
}

impl EntityLogic for PathLogic {
    fn on_event(
        &mut self,
        event: &ContextEvent,
        binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        // Structural matching (see ObjLocationLogic): any event with a
        // subject and a position is a location fix.
        let Some(subject) = event.subject() else {
            return Vec::new();
        };
        let Some(position) = event
            .payload
            .field("position")
            .and_then(ContextValue::as_coord)
        else {
            return Vec::new();
        };
        self.last.insert(subject, position);

        let (Some(from), Some(to)) = (
            binding.get("from").and_then(ContextValue::as_id),
            binding.get("to").and_then(ContextValue::as_id),
        ) else {
            return Vec::new();
        };
        let (Some(&from_at), Some(&to_at)) = (self.last.get(&from), self.last.get(&to)) else {
            return Vec::new();
        };
        let Ok(route) = Route::plan(
            &self.plan,
            &LocationExpr::Point(from_at),
            &LocationExpr::Point(to_at),
        ) else {
            return Vec::new();
        };
        let mut value = route.to_value();
        if let ContextValue::Record(fields) = &mut value {
            fields.push(("from".to_owned(), ContextValue::Id(from)));
            fields.push(("to".to_owned(), ContextValue::Id(to)));
        }
        vec![(ContextType::Path, value)]
    }
}

/// Room occupancy derived from presence events: tracks each subject's
/// current room and emits an updated [`ContextType::Occupancy`] count
/// for every room whose population changes. The binding may scope the
/// instance to one `room`.
#[derive(Clone, Debug, Default)]
pub struct OccupancyLogic {
    whereabouts: HashMap<Guid, String>,
    counts: HashMap<String, i64>,
}

impl OccupancyLogic {
    /// Creates the logic with no one anywhere.
    pub fn new() -> Self {
        OccupancyLogic::default()
    }

    /// The current population of a room.
    pub fn population(&self, room: &str) -> i64 {
        self.counts.get(room).copied().unwrap_or(0)
    }
}

impl EntityLogic for OccupancyLogic {
    fn on_event(
        &mut self,
        event: &ContextEvent,
        binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        let Some(subject) = event.subject() else {
            return Vec::new();
        };
        let Some(to) = event.payload.field("to").and_then(ContextValue::as_text) else {
            return Vec::new();
        };
        let mut changed: Vec<String> = Vec::new();
        if let Some(previous) = self.whereabouts.insert(subject, to.to_owned()) {
            if previous == to {
                return Vec::new();
            }
            let c = self.counts.entry(previous.clone()).or_insert(0);
            *c -= 1;
            changed.push(previous);
        }
        *self.counts.entry(to.to_owned()).or_insert(0) += 1;
        changed.push(to.to_owned());

        let scope = binding
            .get("room")
            .and_then(|v| v.as_text().map(str::to_owned));
        changed
            .into_iter()
            .filter(|room| scope.as_deref().map(|s| s == room).unwrap_or(true))
            .map(|room| {
                let count = self.population(&room);
                (
                    ContextType::Occupancy,
                    ContextValue::record([
                        ("room", ContextValue::place(room)),
                        ("count", ContextValue::Int(count)),
                    ]),
                )
            })
            .collect()
    }
}

/// A windowed mean over a numeric field of its input events, published
/// under a custom output type (e.g. mean temperature).
#[derive(Clone, Debug)]
pub struct AggregateLogic {
    field: String,
    output: ContextType,
    window: usize,
    values: Vec<f64>,
}

impl AggregateLogic {
    /// Averages `field` over the last `window` events, emitting `output`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn mean(field: impl Into<String>, output: ContextType, window: usize) -> Self {
        assert!(window > 0, "aggregation window must be positive");
        AggregateLogic {
            field: field.into(),
            output,
            window,
            values: Vec::new(),
        }
    }
}

impl EntityLogic for AggregateLogic {
    fn on_event(
        &mut self,
        event: &ContextEvent,
        _binding: &Metadata,
        _now: VirtualTime,
    ) -> Vec<(ContextType, ContextValue)> {
        let Some(v) = event
            .payload
            .field(&self.field)
            .and_then(ContextValue::as_float)
            .or_else(|| event.payload.as_float())
        else {
            return Vec::new();
        };
        self.values.push(v);
        if self.values.len() > self.window {
            self.values.remove(0);
        }
        let mean = self.values.iter().sum::<f64>() / self.values.len() as f64;
        vec![(
            self.output.clone(),
            ContextValue::record([
                ("mean", ContextValue::Float(mean)),
                ("samples", ContextValue::Int(self.values.len() as i64)),
            ]),
        )]
    }
}

/// Registers every device of `world` as a source CE of `range`: door
/// sensors (`Presence`), base stations (`SignalStrength`, `Presence`),
/// thermometers (`Temperature`) and printers (`PrinterStatus`, with live
/// `queue`/`paper`/`restricted`/`room` attributes and a `printing`
/// advertisement).
///
/// # Errors
///
/// As for [`RelayCore::command`]: unknown or down ranges, and
/// registration failures (duplicate GUIDs).
pub fn register_world<T: Transport, H: RangeHost>(
    core: &mut RelayCore<T, H>,
    range: &str,
    world: &World,
    now: VirtualTime,
) -> SciResult<()> {
    let doors = world.door_sensors().iter().map(|d| {
        let name = format!("doorSensor-{}", d.door());
        Profile::builder(d.id(), EntityKind::Device, name)
            .output(PortSpec::new("presence", ContextType::Presence))
            .attribute("door", ContextValue::text(d.door()))
    });
    let stations = world.base_stations().iter().map(|b| {
        Profile::builder(b.id(), EntityKind::Device, b.name())
            .output(PortSpec::new("rssi", ContextType::SignalStrength))
            .output(PortSpec::new("presence", ContextType::Presence))
    });
    let thermometers = world.thermometers().iter().map(|t| {
        Profile::builder(t.id(), EntityKind::Device, format!("thermo-{}", t.room()))
            .output(PortSpec::new("t", ContextType::Temperature))
            .attribute("unit", ContextValue::text("celsius"))
            .attribute("room", ContextValue::place(t.room()))
    });
    for profile in doors.chain(stations).chain(thermometers) {
        let profile = Box::new(profile.build());
        core.command(range, RangeCommand::Register(profile), now)?;
    }
    for p in world.printers() {
        let restricted = matches!(p.access(), Access::Restricted(_));
        let profile = Profile::builder(p.id(), EntityKind::Device, p.name())
            .output(PortSpec::new("status", ContextType::PrinterStatus))
            .attribute("service", ContextValue::text("printing"))
            .attribute("room", ContextValue::place(p.room()))
            .attribute("queue", ContextValue::Int(p.queue_len() as i64))
            .attribute("paper", ContextValue::Bool(p.has_paper()))
            .attribute("restricted", ContextValue::Bool(restricted))
            .build();
        core.command(range, RangeCommand::Register(Box::new(profile)), now)?;
        let ad = Advertisement::new(p.id(), "printing");
        core.command(range, RangeCommand::Advertise(Box::new(ad)), now)?;
    }
    Ok(())
}

/// Registers the standard derived-CE classes in `range`, each with its
/// logic over the range's floor plan: Figure 3's `objLocationCE`
/// (presence → location), the W-LAN location provider (signal strength
/// → location), Figure 3's `pathCE` (two locations → path) and the
/// occupancy aggregator (presence → per-room counts). Their GUIDs are
/// minted from `ids` in that order.
///
/// # Errors
///
/// As for [`register_world`].
pub fn install_standard_logic<T: Transport, H: RangeHost>(
    core: &mut RelayCore<T, H>,
    range: &str,
    ids: &mut GuidGenerator,
    now: VirtualTime,
) -> SciResult<()> {
    use ContextType::{Location, Occupancy, Path, Presence, SignalStrength};
    let plan = core.host_mut(range)?.plan().clone();
    let port = PortSpec::new;
    let (obj, wlan, path) = (plan.clone(), plan.clone(), plan);
    let classes = [
        (
            "objLocationCE",
            vec![port("presence", Presence)],
            port("location", Location),
            factory(move || ObjLocationLogic::new(obj.clone())),
        ),
        (
            "wlanLocationCE",
            vec![port("rssi", SignalStrength)],
            port("location", Location),
            factory(move || WlanLocationLogic::new(wlan.clone())),
        ),
        (
            "pathCE",
            vec![port("from", Location), port("to", Location)],
            port("path", Path),
            factory(move || PathLogic::new(path.clone())),
        ),
        (
            "occupancyCE",
            vec![port("presence", Presence)],
            port("occupancy", Occupancy),
            factory(OccupancyLogic::new),
        ),
    ];
    for (name, inputs, output, logic) in classes {
        let ce = ids.next_guid();
        let mut profile = Profile::builder(ce, EntityKind::Software, name).output(output);
        for input in inputs {
            profile = profile.input(input);
        }
        let profile = Box::new(profile.build());
        core.command(range, RangeCommand::Register(profile), now)?;
        core.command(range, RangeCommand::RegisterLogic(ce, logic), now)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::context_server::ContextServer;
    use crate::federation::Federation;
    use sci_location::floorplan::capa_level10;
    use sci_query::{Mode, Predicate, Query};
    use sci_sensors::mobility::{Leg, MovementPlan};
    use sci_sensors::person::SimPerson;
    use sci_sensors::workload::capa_world;
    use sci_types::VirtualDuration;

    #[test]
    fn a_world_and_the_standard_classes_configure_a_federation_of_one() {
        let mut ids = GuidGenerator::seeded(301);
        let bob = ids.next_guid();
        // capa_world installs door sensors itself.
        let (mut world, _) = capa_world(&mut ids, &[bob]);
        world
            .spawn_person(SimPerson::new(bob, "Bob", Coord::new(4.0, 1.0)).with_plan(
                MovementPlan::scripted([Leg::new("L10.01", VirtualDuration::from_secs(60))]),
            ))
            .unwrap();
        let mut fed = Federation::new(301);
        let cs = ContextServer::new(ids.next_guid(), "level-ten", capa_level10());
        fed.add_range(cs).unwrap();
        register_world(&mut fed, "level-ten", &world, VirtualTime::ZERO).unwrap();
        install_standard_logic(&mut fed, "level-ten", &mut ids, VirtualTime::ZERO).unwrap();

        // 4 doors + 4 printers + 4 derived classes (+0 stations).
        assert_eq!(fed.server("level-ten").unwrap().registrar().len(), 12);

        // Subscribe to Bob's location and run the world.
        let app = ids.next_guid();
        let q = Query::builder(ids.next_guid(), app)
            .info_matching(
                ContextType::Location,
                vec![Predicate::eq("subject", ContextValue::Id(bob))],
            )
            .mode(Mode::Subscribe)
            .build();
        fed.submit_from("level-ten", &q, VirtualTime::ZERO).unwrap();
        let (dt, mut now, mut locations) = (VirtualDuration::from_secs(2), VirtualTime::ZERO, 0);
        for _ in 0..60 {
            now += dt;
            let events = world.tick(now, dt).unwrap();
            fed.ingest_batch_at("level-ten", &events, now).unwrap();
            fed.poll_timers(now).unwrap();
            locations += fed
                .deliveries_for(app)
                .iter()
                .filter(|d| d.event.topic == ContextType::Location)
                .count();
        }
        assert!(locations >= 2, "walk produced location updates");
    }

    fn presence(subject: Guid, to: &str) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(0xd00d),
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("to", ContextValue::place(to)),
            ]),
            VirtualTime::ZERO,
        )
    }

    fn location(subject: Guid, at: Coord) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(0x0b7),
            ContextType::Location,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("position", ContextValue::Coord(at)),
            ]),
            VirtualTime::ZERO,
        )
    }

    #[test]
    fn obj_location_translates_presence() {
        let mut logic = ObjLocationLogic::new(capa_level10());
        let bob = Guid::from_u128(1);
        let mut binding = Metadata::new();
        binding.set("subject", ContextValue::Id(bob));
        let out = logic.on_event(&presence(bob, "L10.01"), &binding, VirtualTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, ContextType::Location);
        assert_eq!(
            out[0]
                .1
                .field("room")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("L10.01".to_owned())
        );
        // Wrong subject: filtered.
        let eve = Guid::from_u128(2);
        assert!(logic
            .on_event(&presence(eve, "lobby"), &binding, VirtualTime::ZERO)
            .is_empty());
    }

    #[test]
    fn path_logic_waits_for_both_endpoints() {
        let plan = capa_level10();
        let mut logic = PathLogic::new(plan.clone());
        let (bob, john) = (Guid::from_u128(1), Guid::from_u128(2));
        let mut binding = Metadata::new();
        binding.set("from", ContextValue::Id(bob));
        binding.set("to", ContextValue::Id(john));

        let bob_at = plan.centroid("L10.01").unwrap();
        let john_at = plan.centroid("L10.02").unwrap();
        assert!(logic
            .on_event(&location(bob, bob_at), &binding, VirtualTime::ZERO)
            .is_empty());
        let out = logic.on_event(&location(john, john_at), &binding, VirtualTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, ContextType::Path);
        let rooms = out[0]
            .1
            .field("rooms")
            .and_then(ContextValue::as_list)
            .unwrap();
        assert_eq!(rooms.len(), 3, "L10.01 -> corridor -> L10.02");
        // John moves: a fresh path is emitted — "the pathApp will always
        // have correct information regardless of environmental changes".
        let john_new = plan.centroid("bay").unwrap();
        let out2 = logic.on_event(&location(john, john_new), &binding, VirtualTime::ZERO);
        assert_eq!(out2.len(), 1);
        let rooms2 = out2[0]
            .1
            .field("rooms")
            .and_then(ContextValue::as_list)
            .unwrap();
        assert!(rooms2.len() >= 3);
    }

    #[test]
    fn wlan_location_is_interchangeable_with_obj_location() {
        let plan = capa_level10();
        let mut logic = WlanLocationLogic::new(plan);
        let pda = Guid::from_u128(7);
        let device_at = Coord::new(4.0, 1.0);
        let radio = PathLossModel::INDOOR;
        let binding = Metadata::new();
        let mut out = Vec::new();
        for (i, station_at) in [
            Coord::new(0.0, 0.0),
            Coord::new(8.0, 0.0),
            Coord::new(0.0, 8.0),
        ]
        .iter()
        .enumerate()
        {
            let ev = ContextEvent::new(
                Guid::from_u128(0x500 + i as u128),
                ContextType::SignalStrength,
                ContextValue::record([
                    ("subject", ContextValue::Id(pda)),
                    (
                        "rssi",
                        ContextValue::Float(radio.rssi_at(station_at.distance(device_at))),
                    ),
                    ("x", ContextValue::Float(station_at.x)),
                    ("y", ContextValue::Float(station_at.y)),
                ]),
                VirtualTime::ZERO,
            );
            out = logic.on_event(&ev, &binding, VirtualTime::ZERO);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].0,
            ContextType::Location,
            "same output type as objLocation"
        );
        assert_eq!(
            out[0]
                .1
                .field("room")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("lobby".to_owned())
        );
    }

    #[test]
    fn occupancy_tracks_moves() {
        let mut logic = OccupancyLogic::new();
        let binding = Metadata::new();
        let (bob, eve) = (Guid::from_u128(1), Guid::from_u128(2));

        let out = logic.on_event(&presence(bob, "L10.01"), &binding, VirtualTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1.field("count").and_then(ContextValue::as_int),
            Some(1)
        );

        logic.on_event(&presence(eve, "L10.01"), &binding, VirtualTime::ZERO);
        assert_eq!(logic.population("L10.01"), 2);

        // Bob moves out: two rooms change.
        let out = logic.on_event(&presence(bob, "lobby"), &binding, VirtualTime::ZERO);
        assert_eq!(out.len(), 2);
        assert_eq!(logic.population("L10.01"), 1);
        assert_eq!(logic.population("lobby"), 1);

        // A repeat event for the same room is a no-op.
        let out = logic.on_event(&presence(bob, "lobby"), &binding, VirtualTime::ZERO);
        assert!(out.is_empty());
    }

    #[test]
    fn occupancy_room_scoping() {
        let mut logic = OccupancyLogic::new();
        let mut binding = Metadata::new();
        binding.set("room", ContextValue::place("L10.01"));
        let bob = Guid::from_u128(1);
        // Entering the scoped room emits; entering elsewhere does not.
        assert_eq!(
            logic
                .on_event(&presence(bob, "L10.01"), &binding, VirtualTime::ZERO)
                .len(),
            1
        );
        let out = logic.on_event(&presence(bob, "lobby"), &binding, VirtualTime::ZERO);
        // Leaving the scoped room still reports that room's new count.
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0]
                .1
                .field("room")
                .and_then(|v| v.as_text().map(str::to_owned)),
            Some("L10.01".to_owned())
        );
        assert_eq!(
            out[0].1.field("count").and_then(ContextValue::as_int),
            Some(0)
        );
    }

    #[test]
    fn aggregate_mean_window() {
        let mut logic = AggregateLogic::mean("celsius", ContextType::custom("temp-mean"), 2);
        let binding = Metadata::new();
        let mk = |v: f64| {
            ContextEvent::new(
                Guid::from_u128(1),
                ContextType::Temperature,
                ContextValue::record([("celsius", ContextValue::Float(v))]),
                VirtualTime::ZERO,
            )
        };
        let out1 = logic.on_event(&mk(10.0), &binding, VirtualTime::ZERO);
        assert_eq!(
            out1[0].1.field("mean").and_then(ContextValue::as_float),
            Some(10.0)
        );
        let out2 = logic.on_event(&mk(20.0), &binding, VirtualTime::ZERO);
        assert_eq!(
            out2[0].1.field("mean").and_then(ContextValue::as_float),
            Some(15.0)
        );
        let out3 = logic.on_event(&mk(40.0), &binding, VirtualTime::ZERO);
        assert_eq!(
            out3[0].1.field("mean").and_then(ContextValue::as_float),
            Some(30.0),
            "window slides"
        );
    }
}
