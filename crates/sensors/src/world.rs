//! The world simulator.
//!
//! A [`World`] owns the floor plan, the people moving through it and the
//! simulated devices observing them. [`World::tick`] advances virtual
//! time by one step and returns every [`ContextEvent`] the hardware
//! produced, in deterministic order — the event stream the SCI middleware
//! consumes.

use std::collections::HashMap;

use sci_location::floorplan::FloorPlan;
use sci_location::geometric::GeometricModel;
use sci_types::guid::GuidGenerator;
use sci_types::{ContextEvent, Coord, Guid, SciError, SciResult, VirtualDuration, VirtualTime};

use crate::door::DoorSensor;
use crate::mobility::{self, RoomTransition};
use crate::person::SimPerson;
use crate::printer::Printer;
use crate::temperature::TemperatureSensor;
use crate::wlan::BaseStation;

/// The simulated physical world under one (or more) SCI ranges.
#[derive(Clone, Debug)]
pub struct World {
    plan: FloorPlan,
    tracker: GeometricModel,
    people: Vec<SimPerson>,
    people_index: HashMap<Guid, usize>,
    door_sensors: Vec<DoorSensor>,
    stations: Vec<BaseStation>,
    thermometers: Vec<TemperatureSensor>,
    printers: Vec<Printer>,
}

impl World {
    /// Creates an empty world over a floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        let tracker = plan.new_tracker();
        World {
            plan,
            tracker,
            people: Vec::new(),
            people_index: HashMap::new(),
            door_sensors: Vec::new(),
            stations: Vec::new(),
            thermometers: Vec::new(),
            printers: Vec::new(),
        }
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// The entity position tracker (ground truth).
    pub fn tracker(&self) -> &GeometricModel {
        &self.tracker
    }

    /// Adds a person to the world (they become visible to sensors).
    ///
    /// # Errors
    ///
    /// Rejects duplicate GUIDs.
    pub fn spawn_person(&mut self, person: SimPerson) -> SciResult<()> {
        if self.people_index.contains_key(&person.id) {
            return Err(SciError::Internal(format!(
                "person {} already in the world",
                person.id
            )));
        }
        self.tracker.set_position(person.id, person.position);
        self.people_index.insert(person.id, self.people.len());
        self.people.push(person);
        Ok(())
    }

    /// Read access to a person.
    pub fn person(&self, id: Guid) -> Option<&SimPerson> {
        self.people_index.get(&id).map(|&i| &self.people[i])
    }

    /// All people currently in the world.
    pub fn people(&self) -> &[SimPerson] {
        &self.people
    }

    /// Installs a door sensor on every door of the floor plan, minting
    /// GUIDs from `ids`. Returns the sensors' `(guid, door-name)` pairs.
    pub fn auto_door_sensors(&mut self, ids: &mut GuidGenerator) -> Vec<(Guid, String)> {
        let mut seen = Vec::new();
        let mut created = Vec::new();
        for room in self.plan.rooms() {
            let passages = self
                .plan
                .topology()
                .passages(&room.name)
                .expect("plan rooms are in the topology")
                .to_vec();
            for passage in passages {
                let Some(door) = passage.door.clone() else {
                    continue;
                };
                if seen.contains(&door) {
                    continue;
                }
                seen.push(door.clone());
                let id = ids.next_guid();
                self.door_sensors.push(DoorSensor::new(
                    id,
                    door.clone(),
                    room.name.clone(),
                    passage.to,
                ));
                created.push((id, door));
            }
        }
        created
    }

    /// The installed door sensors.
    pub fn door_sensors(&self) -> &[DoorSensor] {
        &self.door_sensors
    }

    /// Installs a base station.
    pub fn add_base_station(&mut self, station: BaseStation) {
        self.stations.push(station);
    }

    /// The installed base stations.
    pub fn base_stations(&self) -> &[BaseStation] {
        &self.stations
    }

    /// Installs a thermometer.
    pub fn add_thermometer(&mut self, sensor: TemperatureSensor) {
        self.thermometers.push(sensor);
    }

    /// The installed thermometers.
    pub fn thermometers(&self) -> &[TemperatureSensor] {
        &self.thermometers
    }

    /// Installs a printer.
    pub fn add_printer(&mut self, printer: Printer) {
        self.printers.push(printer);
    }

    /// Read access to a printer by name.
    pub fn printer(&self, name: &str) -> Option<&Printer> {
        self.printers.iter().find(|p| p.name() == name)
    }

    /// Mutable access to a printer by name (submit jobs, jam paper…).
    pub fn printer_mut(&mut self, name: &str) -> Option<&mut Printer> {
        self.printers.iter_mut().find(|p| p.name() == name)
    }

    /// All printers.
    pub fn printers(&self) -> &[Printer] {
        &self.printers
    }

    /// Advances the world from `now` by `dt`, returning the sensor
    /// events produced, ordered: door events (in movement order), base
    /// station events, thermometer readings, printer status changes.
    ///
    /// # Errors
    ///
    /// Propagates movement planning failures.
    pub fn tick(&mut self, now: VirtualTime, dt: VirtualDuration) -> SciResult<Vec<ContextEvent>> {
        let mut events = Vec::new();

        // 1. Movement + door sensors.
        let mut transitions: Vec<(RoomTransition, bool)> = Vec::new();
        for person in &mut self.people {
            let moved = mobility::advance(person, &self.plan, now, dt)?;
            self.tracker.set_position(person.id, person.position);
            for t in moved {
                transitions.push((t, person.badged));
            }
        }
        for (t, badged) in &transitions {
            for sensor in &mut self.door_sensors {
                if let Some(ev) = sensor.observe(t, *badged, now) {
                    events.push(ev);
                }
            }
        }

        // 2. Base stations observe everyone.
        for bs in &mut self.stations {
            for person in &self.people {
                events.extend(bs.observe(person.id, person.position, now));
            }
        }

        // 3. Thermometers.
        for thermo in &mut self.thermometers {
            events.extend(thermo.tick(now));
        }

        // 4. Printers.
        for printer in &mut self.printers {
            events.extend(printer.tick(now, dt));
        }

        Ok(events)
    }

    /// Where a person currently is, by room name.
    pub fn room_of(&self, person: Guid) -> Option<&str> {
        self.tracker.place_of(person)
    }

    /// Ground-truth position of a person.
    pub fn position_of(&self, person: Guid) -> Option<Coord> {
        self.tracker.position_of(person)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{Leg, MovementPlan};
    use sci_location::floorplan::capa_level10;
    use sci_location::Circle;
    use sci_types::{ContextType, ContextValue};

    fn world_with_sensors() -> (World, GuidGenerator) {
        let mut ids = GuidGenerator::seeded(1);
        let mut world = World::new(capa_level10());
        world.auto_door_sensors(&mut ids);
        (world, ids)
    }

    #[test]
    fn auto_sensors_cover_every_door_once() {
        let (world, _) = world_with_sensors();
        let mut doors: Vec<&str> = world.door_sensors().iter().map(|s| s.door()).collect();
        doors.sort();
        assert_eq!(
            doors,
            ["door-L10.01", "door-L10.02", "door-L10.03", "door-lobby"]
        );
    }

    #[test]
    fn walking_person_triggers_door_events() {
        let (mut world, mut ids) = world_with_sensors();
        let bob = ids.next_guid();
        world
            .spawn_person(SimPerson::new(bob, "Bob", Coord::new(4.0, 1.0)).with_plan(
                MovementPlan::scripted([Leg::new("L10.01", VirtualDuration::ZERO)]),
            ))
            .unwrap();
        let events = world
            .tick(VirtualTime::ZERO, VirtualDuration::from_secs(60))
            .unwrap();
        let doors: Vec<String> = events
            .iter()
            .filter(|e| e.topic == ContextType::Presence)
            .filter_map(|e| {
                e.payload
                    .field("door")
                    .and_then(|v| v.as_text().map(str::to_owned))
            })
            .collect();
        assert_eq!(doors, ["door-lobby", "door-L10.01"]);
        assert_eq!(world.room_of(bob), Some("L10.01"));
    }

    #[test]
    fn unbadged_person_is_invisible_to_doors() {
        let (mut world, mut ids) = world_with_sensors();
        let ghost = ids.next_guid();
        world
            .spawn_person(
                SimPerson::new(ghost, "Ghost", Coord::new(4.0, 1.0))
                    .without_badge()
                    .with_plan(MovementPlan::scripted([Leg::new(
                        "L10.01",
                        VirtualDuration::ZERO,
                    )])),
            )
            .unwrap();
        let events = world
            .tick(VirtualTime::ZERO, VirtualDuration::from_secs(60))
            .unwrap();
        assert!(events.is_empty());
        assert_eq!(world.room_of(ghost), Some("L10.01"), "still moved");
    }

    #[test]
    fn base_station_sees_people_in_cell() {
        let (mut world, mut ids) = world_with_sensors();
        world.add_base_station(BaseStation::new(
            ids.next_guid(),
            "bs-lobby",
            Circle::new(Coord::new(4.0, 1.0), 5.0),
        ));
        let bob = ids.next_guid();
        world
            .spawn_person(SimPerson::new(bob, "Bob", Coord::new(4.0, 1.0)))
            .unwrap();
        let events = world
            .tick(VirtualTime::ZERO, VirtualDuration::from_secs(1))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.topic == ContextType::SignalStrength));
        assert!(events.iter().any(|e| {
            e.payload
                .field("kind")
                .and_then(|v| v.as_text().map(str::to_owned))
                == Some("associate".to_owned())
        }));
    }

    #[test]
    fn duplicate_spawn_rejected() {
        let (mut world, mut ids) = world_with_sensors();
        let bob = ids.next_guid();
        world
            .spawn_person(SimPerson::new(bob, "Bob", Coord::new(4.0, 1.0)))
            .unwrap();
        assert!(world
            .spawn_person(SimPerson::new(bob, "Bob2", Coord::new(5.0, 1.0)))
            .is_err());
    }

    #[test]
    fn printers_and_thermometers_tick_through_world() {
        let (mut world, mut ids) = world_with_sensors();
        world.add_thermometer(TemperatureSensor::new(ids.next_guid(), "L10.01"));
        world.add_printer(Printer::new(ids.next_guid(), "P1", "bay"));
        let owner = ids.next_guid();
        let job = crate::printer::PrintJob::new(ids.next_guid(), owner, "doc.pdf", 1);
        world
            .printer_mut("P1")
            .unwrap()
            .submit(job, VirtualTime::ZERO);
        let events = world
            .tick(VirtualTime::from_secs(2), VirtualDuration::from_secs(2))
            .unwrap();
        assert!(events.iter().any(|e| e.topic == ContextType::Temperature));
        assert!(events.iter().any(|e| e.topic == ContextType::PrinterStatus
            && e.payload.field("queue").and_then(ContextValue::as_int) == Some(0)));
        assert_eq!(world.printer("P1").unwrap().completed().len(), 1);
        assert!(world.printer("P9").is_none());
    }
}
