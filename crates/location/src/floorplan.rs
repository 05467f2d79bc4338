//! Floor plans: one builder, three mutually consistent location models.
//!
//! A [`FloorPlan`] is the static structure of a deployment — rooms with
//! geometry, doors with topology, and a logical zone hierarchy — built
//! once and shared by the sensor simulator, the Location Service and the
//! examples. Entity *positions* are dynamic and live in a
//! [`GeometricModel`] tracker obtained from [`FloorPlan::new_tracker`].

use std::collections::HashMap;

use sci_types::{Coord, SciError, SciResult};

use crate::geometric::GeometricModel;
use crate::geometry::Rect;
use crate::logical::LogicalModel;
use crate::topological::TopoGraph;

/// A room of the floor plan.
#[derive(Clone, PartialEq, Debug)]
pub struct Room {
    /// Unique room name (e.g. `"L10.01"`).
    pub name: String,
    /// Geometric region.
    pub rect: Rect,
    /// Logical zone path (e.g. `"campus/tower/l10/L10.01"`).
    pub zone: String,
}

/// The static spatial structure of a deployment.
#[derive(Clone, Debug)]
pub struct FloorPlan {
    rooms: Vec<Room>,
    by_name: HashMap<String, usize>,
    topo: TopoGraph,
    logical: LogicalModel,
    regions: GeometricModel,
}

impl FloorPlan {
    /// Starts building a floor plan with the given root zone name
    /// (e.g. `"campus"`).
    pub fn builder(root_zone: impl Into<String>) -> FloorPlanBuilder {
        FloorPlanBuilder {
            zone_prefix: vec![root_zone.into()],
            rooms: Vec::new(),
            doors: Vec::new(),
        }
    }

    /// All rooms, in declaration order.
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// Looks up a room by name.
    pub fn room(&self, name: &str) -> Option<&Room> {
        self.by_name.get(name).map(|&i| &self.rooms[i])
    }

    /// The topological model.
    pub fn topology(&self) -> &TopoGraph {
        &self.topo
    }

    /// The logical model.
    pub fn logical(&self) -> &LogicalModel {
        &self.logical
    }

    /// The room containing a coordinate.
    pub fn room_at(&self, p: Coord) -> Option<&Room> {
        self.regions.place_at(p).and_then(|name| self.room(name))
    }

    /// The centroid of a room.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] for unknown rooms.
    pub fn centroid(&self, room: &str) -> SciResult<Coord> {
        self.regions.centroid(room)
    }

    /// Creates a fresh entity-position tracker that knows this plan's
    /// regions.
    pub fn new_tracker(&self) -> GeometricModel {
        self.regions.clone()
    }

    // ------------------------------------------------------------------
    // Spatial relations (paper §6, open issue 4: "geometric,
    // topological, and logical spatial relations … fine grained control
    // over the interaction of entities with the real world")
    // ------------------------------------------------------------------

    /// Topological relation: are the rooms directly connected by a door
    /// or passage?
    pub fn adjacent(&self, a: &str, b: &str) -> bool {
        self.topo
            .neighbors(a)
            .map(|ns| ns.contains(&b))
            .unwrap_or(false)
    }
}

struct DoorSpec {
    a: String,
    b: String,
    door: Option<String>,
    weight: Option<f64>,
}

/// Builder for [`FloorPlan`] (consuming terminal).
///
/// # Example
///
/// ```
/// use sci_location::{FloorPlan, Rect};
/// use sci_types::Coord;
///
/// let plan = FloorPlan::builder("campus")
///     .zone("tower")
///     .zone("l10")
///     .room("corridor", Rect::with_size(Coord::new(0.0, 5.0), 20.0, 2.0))
///     .room("L10.01", Rect::with_size(Coord::new(0.0, 0.0), 5.0, 5.0))
///     .door("corridor", "L10.01", "door-L10.01")
///     .build()?;
/// assert!(plan.room("L10.01").is_some());
/// assert!(plan.adjacent("corridor", "L10.01"));
/// assert!(plan.logical().zone_contains("tower", "L10.01")?);
/// # Ok::<(), sci_types::SciError>(())
/// ```
pub struct FloorPlanBuilder {
    zone_prefix: Vec<String>,
    rooms: Vec<Room>,
    doors: Vec<DoorSpec>,
}

impl FloorPlanBuilder {
    /// Descends into a sub-zone: rooms added afterwards live under it.
    pub fn zone(mut self, name: impl Into<String>) -> Self {
        self.zone_prefix.push(name.into());
        self
    }

    /// Adds a room under the current zone.
    pub fn room(mut self, name: impl Into<String>, rect: Rect) -> Self {
        let name = name.into();
        let zone = format!("{}/{}", self.zone_prefix.join("/"), name);
        self.rooms.push(Room { name, rect, zone });
        self
    }

    /// Connects two rooms with a named, sensed door. The traversal cost
    /// is the centroid distance.
    pub fn door(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        door: impl Into<String>,
    ) -> Self {
        self.doors.push(DoorSpec {
            a: a.into(),
            b: b.into(),
            door: Some(door.into()),
            weight: None,
        });
        self
    }

    /// Connects two rooms with an open (unsensed) passage.
    pub fn open(mut self, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.doors.push(DoorSpec {
            a: a.into(),
            b: b.into(),
            door: None,
            weight: None,
        });
        self
    }

    /// Connects two rooms with an explicit traversal cost.
    pub fn passage(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        weight: f64,
        door: Option<&str>,
    ) -> Self {
        self.doors.push(DoorSpec {
            a: a.into(),
            b: b.into(),
            door: door.map(str::to_owned),
            weight: Some(weight),
        });
        self
    }

    /// Builds the three models.
    ///
    /// # Errors
    ///
    /// * [`SciError::Parse`] for duplicate room names or zone conflicts.
    /// * [`SciError::UnknownLocation`] if a door references an unknown
    ///   room.
    pub fn build(self) -> SciResult<FloorPlan> {
        let mut by_name = HashMap::new();
        let mut topo = TopoGraph::new();
        let mut logical = LogicalModel::new();
        let mut regions = GeometricModel::new();

        for (i, room) in self.rooms.iter().enumerate() {
            if by_name.insert(room.name.clone(), i).is_some() {
                return Err(SciError::Parse(format!("duplicate room `{}`", room.name)));
            }
            topo.add_place(&room.name);
            logical.insert_path(&room.zone)?;
            regions.add_region(&room.name, room.rect);
        }

        for spec in &self.doors {
            let weight = match spec.weight {
                Some(w) => w,
                None => {
                    let ca = regions.centroid(&spec.a)?;
                    let cb = regions.centroid(&spec.b)?;
                    ca.distance(cb)
                }
            };
            topo.connect(&spec.a, &spec.b, weight, spec.door.as_deref())?;
        }

        Ok(FloorPlan {
            rooms: self.rooms,
            by_name,
            topo,
            logical,
            regions,
        })
    }
}

/// The Level 10 floor plan of the paper's CAPA scenario (Section 5):
/// a lift lobby, a corridor, Bob's office L10.01, John's office L10.02,
/// a printer room L10.03 behind a locked door, and an open printer bay.
///
/// Layout (metres):
///
/// ```text
///  y
///  8 +--------+--------+--------+--------+
///    | L10.01 | L10.02 | L10.03 |  bay   |
///  4 +--------+--------+--------+--------+
///    |              corridor             |
///  2 +-----------------------------------+
///    | lobby  |
///  0 +--------+
///      0    8   16   24   32  x
/// ```
pub fn capa_level10() -> FloorPlan {
    FloorPlan::builder("campus")
        .zone("livingstone-tower")
        .zone("level-ten")
        .room("lobby", Rect::with_size(Coord::new(0.0, 0.0), 8.0, 2.0))
        .room("corridor", Rect::with_size(Coord::new(0.0, 2.0), 32.0, 2.0))
        .room("L10.01", Rect::with_size(Coord::new(0.0, 4.0), 8.0, 4.0))
        .room("L10.02", Rect::with_size(Coord::new(8.0, 4.0), 8.0, 4.0))
        .room("L10.03", Rect::with_size(Coord::new(16.0, 4.0), 8.0, 4.0))
        .room("bay", Rect::with_size(Coord::new(24.0, 4.0), 8.0, 4.0))
        .door("lobby", "corridor", "door-lobby")
        .door("corridor", "L10.01", "door-L10.01")
        .door("corridor", "L10.02", "door-L10.02")
        .door("corridor", "L10.03", "door-L10.03")
        .open("corridor", "bay")
        .build()
        .expect("static plan is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capa_plan_is_consistent() {
        let plan = capa_level10();
        assert_eq!(plan.rooms().len(), 6);
        // Geometric: coordinates resolve to rooms.
        assert_eq!(plan.room_at(Coord::new(1.0, 5.0)).unwrap().name, "L10.01");
        assert_eq!(plan.room_at(Coord::new(1.0, 1.0)).unwrap().name, "lobby");
        // Topological: lobby reaches every office through the corridor.
        let (path, _) = plan.topology().shortest_path("lobby", "L10.02").unwrap();
        assert_eq!(path, ["lobby", "corridor", "L10.02"]);
        // Logical: rooms are inside the tower.
        assert!(plan
            .logical()
            .zone_contains("livingstone-tower", "L10.01")
            .unwrap());
        assert!(plan.logical().zone_contains("level-ten", "bay").unwrap());
    }

    #[test]
    fn duplicate_rooms_rejected() {
        let result = FloorPlan::builder("campus")
            .room("a", Rect::with_size(Coord::new(0.0, 0.0), 1.0, 1.0))
            .room("a", Rect::with_size(Coord::new(2.0, 0.0), 1.0, 1.0))
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn door_to_unknown_room_rejected() {
        let result = FloorPlan::builder("campus")
            .room("a", Rect::with_size(Coord::new(0.0, 0.0), 1.0, 1.0))
            .door("a", "ghost", "d")
            .build();
        assert!(matches!(result, Err(SciError::UnknownLocation(_))));
    }

    #[test]
    fn zone_nesting() {
        let plan = FloorPlan::builder("campus")
            .zone("north")
            .room("n1", Rect::with_size(Coord::new(0.0, 0.0), 1.0, 1.0))
            .zone("wing")
            .room("w1", Rect::with_size(Coord::new(5.0, 0.0), 1.0, 1.0))
            .build()
            .unwrap();
        assert!(plan.logical().zone_contains("north", "w1").unwrap());
        assert!(!plan.logical().zone_contains("wing", "n1").unwrap());
        assert!(plan.logical().zone_contains("campus", "w1").unwrap());
    }

    #[test]
    fn tracker_is_independent() {
        let plan = capa_level10();
        let mut tracker = plan.new_tracker();
        let bob = sci_types::Guid::from_u128(1);
        tracker.set_position(bob, Coord::new(1.0, 5.0));
        assert_eq!(tracker.place_of(bob), Some("L10.01"));
        let other = plan.new_tracker();
        assert_eq!(other.position_of(bob), None);
    }

    #[test]
    fn spatial_relations() {
        let plan = capa_level10();
        // Topological adjacency follows doors/passages.
        assert!(plan.adjacent("corridor", "L10.01"));
        assert!(plan.adjacent("corridor", "bay"));
        assert!(!plan.adjacent("L10.01", "L10.02"), "no direct passage");
    }
}
