//! The Location Service.
//!
//! "Handles the resolution of location related tasks" (paper, Section
//! 3.1). Unlike the ground-truth tracker inside the world simulator, the
//! Location Service knows only what the *sensors told it*: door-sensor
//! presence events place an entity in a room; signal-strength readings
//! from three or more base stations are trilaterated into a geometric
//! position (the paper's "convert network signal strength to a geometric
//! position"). Both paths feed the same model, demonstrating the
//! interoperation the paper's Section 3.3 calls for.

use sci_location::convert::{trilaterate, PathLossModel, SignalReading};
use sci_location::floorplan::FloorPlan;
use sci_location::geometric::GeometricModel;
use sci_location::language::{LocationExpr, ResolvedLocation};
use sci_types::{
    ContextEvent, ContextType, ContextValue, Coord, Guid, HashMap, SciResult, VirtualDuration,
    VirtualTime,
};

/// How long a signal reading stays usable for trilateration.
const READING_TTL: VirtualDuration = VirtualDuration::from_secs(30);

#[derive(Clone, Debug)]
struct Reading {
    station: Guid,
    at: Coord,
    rssi: f64,
    seen: VirtualTime,
}

/// Event-driven location knowledge for one range.
#[derive(Clone, Debug)]
pub struct LocationService {
    plan: FloorPlan,
    tracker: GeometricModel,
    readings: HashMap<Guid, Vec<Reading>>,
    radio: PathLossModel,
}

impl LocationService {
    /// Creates a service over a floor plan.
    pub fn new(plan: FloorPlan) -> Self {
        let tracker = plan.new_tracker();
        LocationService {
            plan,
            tracker,
            readings: HashMap::default(),
            radio: PathLossModel::INDOOR,
        }
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// Consumes a sensor event, updating location knowledge.
    ///
    /// * Door presence (`to` field): the subject is now in that room.
    /// * Signal strength: buffer the reading; with three or more fresh
    ///   stations, trilaterate.
    /// * W-LAN disassociation with no later information: position kept
    ///   (stale data is better than none; the Range Service decides
    ///   departures).
    pub fn ingest(&mut self, event: &ContextEvent) {
        match event.topic {
            ContextType::Presence => {
                let Some(subject) = event.subject() else {
                    return;
                };
                let Some(to) = event.payload.field("to").and_then(ContextValue::as_text) else {
                    return;
                };
                if let Ok(coord) = self.plan.centroid(to) {
                    self.tracker.set_position(subject, coord);
                }
            }
            ContextType::SignalStrength => {
                let Some(subject) = event.subject() else {
                    return;
                };
                let (Some(rssi), Some(x), Some(y)) = (
                    event.payload.field("rssi").and_then(ContextValue::as_float),
                    event.payload.field("x").and_then(ContextValue::as_float),
                    event.payload.field("y").and_then(ContextValue::as_float),
                ) else {
                    return;
                };
                let station = event.source;
                let buffer = self.readings.entry(subject).or_default();
                buffer.retain(|r| {
                    r.station != station && event.timestamp.saturating_since(r.seen) <= READING_TTL
                });
                buffer.push(Reading {
                    station,
                    at: Coord::new(x, y),
                    rssi,
                    seen: event.timestamp,
                });
                if buffer.len() >= 3 {
                    let readings: Vec<SignalReading> = buffer
                        .iter()
                        .map(|r| SignalReading::new(r.at, r.rssi))
                        .collect();
                    if let Ok(position) = trilaterate(&self.radio, &readings) {
                        self.tracker.set_position(subject, position);
                    }
                }
            }
            _ => {}
        }
    }

    /// Explicitly records a position (used on registration when the
    /// arrival sensor reported where).
    pub fn set_position(&mut self, entity: Guid, at: Coord) {
        self.tracker.set_position(entity, at);
    }

    /// Forgets an entity entirely (on departure).
    pub fn forget(&mut self, entity: Guid) {
        self.tracker.clear_position(entity);
        self.readings.remove(&entity);
    }

    /// Last known geometric position.
    pub fn position_of(&self, entity: Guid) -> Option<Coord> {
        self.tracker.position_of(entity)
    }

    /// Last known room.
    pub fn room_of(&self, entity: Guid) -> Option<&str> {
        self.tracker.place_of(entity)
    }

    /// Full tri-model location of an entity.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures (unknown position or a position
    /// outside every room).
    pub fn locate(&self, entity: Guid) -> SciResult<ResolvedLocation> {
        let coord = self
            .position_of(entity)
            .ok_or(sci_types::SciError::UnknownEntity(entity))?;
        LocationExpr::Point(coord).resolve(&self.plan)
    }

    /// Returns `true` if `room` lies inside the zone named `scope`
    /// (rooms are zones too, so `scope` may be a room name).
    pub fn room_in_scope(&self, room: &str, scope: &str) -> bool {
        self.plan
            .logical()
            .zone_contains(scope, room)
            .unwrap_or(false)
    }

    /// Straight-line distance from an entity's position to a room's
    /// centroid (used for "closest printer to Bob").
    pub fn distance_to_room(&self, entity: Guid, room: &str) -> Option<f64> {
        let p = self.position_of(entity)?;
        self.plan.centroid(room).ok().map(|c| c.distance(p))
    }

    /// Every tracked entity position, sorted by entity id. Used by the
    /// durability snapshot. Signal-reading buffers are deliberately
    /// excluded: they are TTL-bounded trilateration scratch (30 s of
    /// virtual time) that WAL replay of the ingests regenerates.
    pub fn export_positions(&self) -> Vec<(Guid, Coord)> {
        self.tracker.positions()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_location::floorplan::capa_level10;
    use sci_types::EventSeq;

    fn presence(subject: Guid, to: &str, at: VirtualTime) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(0xd00d),
            ContextType::Presence,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("to", ContextValue::place(to)),
            ]),
            at,
        )
    }

    fn signal(subject: Guid, station: u128, at: Coord, rssi: f64, t: VirtualTime) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(station),
            ContextType::SignalStrength,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("rssi", ContextValue::Float(rssi)),
                ("x", ContextValue::Float(at.x)),
                ("y", ContextValue::Float(at.y)),
            ]),
            t,
        )
        .with_seq(EventSeq::FIRST)
    }

    #[test]
    fn door_events_place_entities() {
        let mut ls = LocationService::new(capa_level10());
        let bob = Guid::from_u128(1);
        assert!(ls.room_of(bob).is_none());
        ls.ingest(&presence(bob, "L10.01", VirtualTime::ZERO));
        assert_eq!(ls.room_of(bob), Some("L10.01"));
        let loc = ls.locate(bob).unwrap();
        assert_eq!(loc.place, "L10.01");
        assert!(loc.zone.to_string().contains("level-ten"));
    }

    #[test]
    fn trilateration_from_three_stations() {
        let mut ls = LocationService::new(capa_level10());
        let pda = Guid::from_u128(2);
        let device_at = Coord::new(4.0, 1.0); // lobby
        let radio = PathLossModel::INDOOR;
        let stations = [
            (10u128, Coord::new(0.0, 0.0)),
            (11, Coord::new(8.0, 0.0)),
            (12, Coord::new(0.0, 8.0)),
            (13, Coord::new(8.0, 8.0)),
        ];
        for (i, &(id, at)) in stations.iter().enumerate() {
            let rssi = radio.rssi_at(at.distance(device_at));
            ls.ingest(&signal(pda, id, at, rssi, VirtualTime::from_secs(i as u64)));
        }
        let estimate = ls.position_of(pda).unwrap();
        assert!(
            estimate.distance(device_at) < 0.5,
            "estimate {estimate} should be near {device_at}"
        );
        assert_eq!(ls.room_of(pda), Some("lobby"));
    }

    #[test]
    fn too_few_stations_do_not_place() {
        let mut ls = LocationService::new(capa_level10());
        let pda = Guid::from_u128(2);
        ls.ingest(&signal(
            pda,
            10,
            Coord::new(0.0, 0.0),
            -50.0,
            VirtualTime::ZERO,
        ));
        ls.ingest(&signal(
            pda,
            11,
            Coord::new(8.0, 0.0),
            -50.0,
            VirtualTime::ZERO,
        ));
        assert!(ls.position_of(pda).is_none());
    }

    #[test]
    fn stale_readings_expire() {
        let mut ls = LocationService::new(capa_level10());
        let pda = Guid::from_u128(2);
        ls.ingest(&signal(
            pda,
            10,
            Coord::new(0.0, 0.0),
            -50.0,
            VirtualTime::ZERO,
        ));
        ls.ingest(&signal(
            pda,
            11,
            Coord::new(8.0, 0.0),
            -50.0,
            VirtualTime::ZERO,
        ));
        // Much later, a third reading arrives — the first two are stale,
        // so no fix is computed.
        ls.ingest(&signal(
            pda,
            12,
            Coord::new(0.0, 8.0),
            -50.0,
            VirtualTime::from_secs(120),
        ));
        assert!(ls.position_of(pda).is_none());
    }

    #[test]
    fn scope_and_distance_queries() {
        let mut ls = LocationService::new(capa_level10());
        let bob = Guid::from_u128(1);
        ls.ingest(&presence(bob, "L10.01", VirtualTime::ZERO));
        assert!(ls.room_in_scope("L10.01", "level-ten"));
        assert!(!ls.room_in_scope("L10.01", "L10.02"));
        let d_near = ls.distance_to_room(bob, "L10.01").unwrap();
        let d_far = ls.distance_to_room(bob, "bay").unwrap();
        assert!(d_near < d_far);
        assert!(ls.distance_to_room(Guid::from_u128(99), "bay").is_none());
    }

    #[test]
    fn forget_clears_everything() {
        let mut ls = LocationService::new(capa_level10());
        let bob = Guid::from_u128(1);
        ls.ingest(&presence(bob, "lobby", VirtualTime::ZERO));
        ls.forget(bob);
        assert!(ls.position_of(bob).is_none());
        assert!(ls.locate(bob).is_err());
    }
}
