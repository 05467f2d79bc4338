//! The geometric location model.
//!
//! Rooms are axis-aligned regions; entities have point positions. The
//! model answers "which place is this coordinate in?" and "where is this
//! entity?", and supports the closest-entity searches behind
//! "closest printer to Bob".

use std::collections::HashMap;

use sci_types::{Coord, Guid, SciError, SciResult};

use crate::geometry::Rect;

/// Regions per place plus point positions per entity.
#[derive(Clone, Debug, Default)]
pub struct GeometricModel {
    regions: Vec<(String, Rect)>,
    positions: HashMap<Guid, Coord>,
}

impl GeometricModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        GeometricModel::default()
    }

    /// Registers a named region. Later registrations win ties in
    /// point-in-region queries only if earlier regions do not contain the
    /// point (first match wins).
    pub fn add_region(&mut self, name: impl Into<String>, rect: Rect) {
        self.regions.push((name.into(), rect));
    }

    /// The region of a place.
    fn region_of(&self, name: &str) -> Option<Rect> {
        self.regions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| *r)
    }

    /// The first registered place containing `p`.
    pub fn place_at(&self, p: Coord) -> Option<&str> {
        self.regions
            .iter()
            .find(|(_, r)| r.contains(p))
            .map(|(n, _)| n.as_str())
    }

    /// The centroid of a place's region.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownLocation`] for unknown places.
    pub fn centroid(&self, name: &str) -> SciResult<Coord> {
        self.region_of(name)
            .map(|r| r.center())
            .ok_or_else(|| SciError::UnknownLocation(name.to_owned()))
    }

    /// Records an entity's position.
    pub fn set_position(&mut self, entity: Guid, at: Coord) {
        self.positions.insert(entity, at);
    }

    /// Forgets an entity's position (e.g. when it leaves the range).
    pub fn clear_position(&mut self, entity: Guid) -> Option<Coord> {
        self.positions.remove(&entity)
    }

    /// An entity's last known position.
    pub fn position_of(&self, entity: Guid) -> Option<Coord> {
        self.positions.get(&entity).copied()
    }

    /// The place an entity is currently in, if its position is known and
    /// covered by a region.
    pub fn place_of(&self, entity: Guid) -> Option<&str> {
        self.position_of(entity).and_then(|p| self.place_at(p))
    }

    /// Among `candidates`, the one whose known position is closest to
    /// `reference` (straight-line). Candidates with unknown positions are
    /// skipped. Returns the winner and its distance.
    pub fn closest_to<I>(&self, reference: Coord, candidates: I) -> Option<(Guid, f64)>
    where
        I: IntoIterator<Item = Guid>,
    {
        candidates
            .into_iter()
            .filter_map(|id| self.position_of(id).map(|p| (id, p.distance(reference))))
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("distances are finite"))
    }

    /// All registered regions in registration order.
    pub fn regions(&self) -> impl Iterator<Item = (&str, Rect)> {
        self.regions.iter().map(|(n, r)| (n.as_str(), *r))
    }

    /// Every tracked entity and its position, sorted by entity id so
    /// snapshots serialise deterministically.
    pub fn positions(&self) -> Vec<(Guid, Coord)> {
        let mut out: Vec<(Guid, Coord)> = self.positions.iter().map(|(g, c)| (*g, *c)).collect();
        out.sort_unstable_by_key(|(g, _)| *g);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GeometricModel {
        let mut m = GeometricModel::new();
        m.add_region("L10.01", Rect::with_size(Coord::new(0.0, 0.0), 4.0, 4.0));
        m.add_region("L10.02", Rect::with_size(Coord::new(5.0, 0.0), 4.0, 4.0));
        m
    }

    #[test]
    fn point_in_region() {
        let m = model();
        assert_eq!(m.place_at(Coord::new(1.0, 1.0)), Some("L10.01"));
        assert_eq!(m.place_at(Coord::new(6.0, 1.0)), Some("L10.02"));
        assert_eq!(m.place_at(Coord::new(100.0, 1.0)), None);
    }

    #[test]
    fn entity_tracking() {
        let mut m = model();
        let bob = Guid::from_u128(1);
        m.set_position(bob, Coord::new(1.0, 2.0));
        assert_eq!(m.place_of(bob), Some("L10.01"));
        m.set_position(bob, Coord::new(6.0, 2.0));
        assert_eq!(m.place_of(bob), Some("L10.02"));
        assert_eq!(m.clear_position(bob), Some(Coord::new(6.0, 2.0)));
        assert_eq!(m.place_of(bob), None);
    }

    #[test]
    fn closest_candidate_selection() {
        let mut m = model();
        let (p1, p2, p3) = (Guid::from_u128(1), Guid::from_u128(2), Guid::from_u128(3));
        m.set_position(p1, Coord::new(1.0, 0.0));
        m.set_position(p2, Coord::new(8.0, 0.0));
        // p3 has no known position and must be skipped.
        let (winner, d) = m.closest_to(Coord::new(0.0, 0.0), [p1, p2, p3]).unwrap();
        assert_eq!(winner, p1);
        assert_eq!(d, 1.0);
        assert!(m.closest_to(Coord::new(0.0, 0.0), [p3]).is_none());
    }

    #[test]
    fn centroid_and_errors() {
        let m = model();
        assert_eq!(m.centroid("L10.01").unwrap(), Coord::new(2.0, 2.0));
        assert!(matches!(
            m.centroid("nowhere"),
            Err(SciError::UnknownLocation(_))
        ));
    }

    #[test]
    fn overlapping_regions_first_wins() {
        let mut m = model();
        m.add_region(
            "everything",
            Rect::with_size(Coord::new(-10.0, -10.0), 50.0, 50.0),
        );
        assert_eq!(m.place_at(Coord::new(1.0, 1.0)), Some("L10.01"));
        assert_eq!(m.place_at(Coord::new(20.0, 20.0)), Some("everything"));
    }
}
