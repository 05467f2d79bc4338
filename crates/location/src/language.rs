//! The intermediate location language.
//!
//! "To facilitate this it will be necessary to develop an intermediate
//! location language" (paper, Section 3.3). A [`LocationExpr`] is a
//! model-agnostic description of a location; [`LocationExpr::resolve`]
//! grounds it against a [`FloorPlan`] into a [`ResolvedLocation`] that
//! carries *all three* model-specific views simultaneously, so any
//! consumer can read the view native to its own model.

use std::fmt;

use sci_types::{Coord, SciError, SciResult};

use crate::floorplan::FloorPlan;
use crate::logical::ZonePath;

/// A location description in any of the supported models.
#[derive(Clone, PartialEq, Debug)]
pub enum LocationExpr {
    /// A geometric point.
    Point(Coord),
    /// A named room/place (topological node).
    Place(String),
    /// A logical zone by leaf name (may be broader than one room).
    Zone(String),
}

impl LocationExpr {
    /// Grounds the expression against a floor plan.
    ///
    /// * `Point` resolves to its containing room (error if outside every
    ///   room).
    /// * `Place` resolves to the named room.
    /// * `Zone` resolves to the zone; its coordinate view is the centroid
    ///   of the first room inside the zone.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] if the expression does not
    /// ground in this plan.
    pub fn resolve(&self, plan: &FloorPlan) -> SciResult<ResolvedLocation> {
        match self {
            LocationExpr::Point(p) => {
                let room = plan
                    .room_at(*p)
                    .ok_or_else(|| SciError::UnknownLocation(format!("point {p}")))?;
                Ok(ResolvedLocation {
                    coord: *p,
                    place: room.name.clone(),
                    zone: room.zone.parse()?,
                })
            }
            LocationExpr::Place(name) => {
                let room = plan
                    .room(name)
                    .ok_or_else(|| SciError::UnknownLocation(name.clone()))?;
                Ok(ResolvedLocation {
                    coord: room.rect.center(),
                    place: room.name.clone(),
                    zone: room.zone.parse()?,
                })
            }
            LocationExpr::Zone(leaf) => {
                // A zone that happens to be a room resolves like a place.
                if plan.room(leaf).is_some() {
                    return LocationExpr::Place(leaf.clone()).resolve(plan);
                }
                let zone = plan
                    .logical()
                    .path_of(leaf)
                    .cloned()
                    .ok_or_else(|| SciError::UnknownLocation(leaf.clone()))?;
                let room = plan
                    .rooms()
                    .iter()
                    .find(|r| {
                        r.zone
                            .parse::<ZonePath>()
                            .map(|zp| zone.contains(&zp))
                            .unwrap_or(false)
                    })
                    .ok_or_else(|| SciError::UnknownLocation(leaf.clone()))?;
                Ok(ResolvedLocation {
                    coord: room.rect.center(),
                    place: room.name.clone(),
                    zone,
                })
            }
        }
    }
}

impl fmt::Display for LocationExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocationExpr::Point(p) => write!(f, "{p}"),
            LocationExpr::Place(n) => write!(f, "place {n}"),
            LocationExpr::Zone(z) => write!(f, "zone {z}"),
        }
    }
}

impl From<Coord> for LocationExpr {
    fn from(p: Coord) -> Self {
        LocationExpr::Point(p)
    }
}

/// A location grounded in all three models at once.
#[derive(Clone, PartialEq, Debug)]
pub struct ResolvedLocation {
    /// Geometric view: a representative coordinate.
    pub coord: Coord,
    /// Topological view: the room name.
    pub place: String,
    /// Logical view: the full zone path.
    pub zone: ZonePath,
}

impl ResolvedLocation {}

impl fmt::Display for ResolvedLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} in {})", self.place, self.coord, self.zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::capa_level10;

    #[test]
    fn point_resolution() {
        let plan = capa_level10();
        let loc = LocationExpr::Point(Coord::new(1.0, 5.0))
            .resolve(&plan)
            .unwrap();
        assert_eq!(loc.place, "L10.01");
        assert_eq!(loc.zone.leaf(), "L10.01");
    }

    #[test]
    fn place_resolution_uses_centroid() {
        let plan = capa_level10();
        let loc = LocationExpr::Place("lobby".into()).resolve(&plan).unwrap();
        assert_eq!(loc.coord, Coord::new(4.0, 1.0));
        assert_eq!(loc.zone.leaf(), "lobby");
    }

    #[test]
    fn zone_resolution_picks_a_room_inside() {
        let plan = capa_level10();
        let loc = LocationExpr::Zone("level-ten".into())
            .resolve(&plan)
            .unwrap();
        assert!(plan.room(&loc.place).is_some());
        assert!(plan
            .logical()
            .zone_contains("level-ten", &loc.place)
            .unwrap());
    }

    #[test]
    fn room_named_zone_is_place() {
        let plan = capa_level10();
        let loc = LocationExpr::Zone("L10.02".into()).resolve(&plan).unwrap();
        assert_eq!(loc.place, "L10.02");
    }

    #[test]
    fn unresolvable_expressions() {
        let plan = capa_level10();
        assert!(LocationExpr::Point(Coord::new(-50.0, -50.0))
            .resolve(&plan)
            .is_err());
        assert!(LocationExpr::Place("mars".into()).resolve(&plan).is_err());
        assert!(LocationExpr::Zone("atlantis".into())
            .resolve(&plan)
            .is_err());
    }

    #[test]
    fn cross_model_interoperation() {
        // The paper's requirement: start geometric, end logical.
        let plan = capa_level10();
        let geometric = LocationExpr::Point(Coord::new(9.0, 6.0));
        let resolved = geometric.resolve(&plan).unwrap();
        // Geometric → topological.
        assert_eq!(resolved.place, "L10.02");
        // Geometric → logical.
        assert_eq!(
            resolved.zone.to_string(),
            "campus/livingstone-tower/level-ten/L10.02"
        );
    }
}
