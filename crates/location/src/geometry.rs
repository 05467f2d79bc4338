//! Planar geometry primitives used by the geometric location model.

use sci_types::Coord;

/// An axis-aligned rectangle, the region shape used for rooms.
///
/// # Example
///
/// ```
/// use sci_location::Rect;
/// use sci_types::Coord;
///
/// let room = Rect::new(Coord::new(0.0, 0.0), Coord::new(4.0, 3.0));
/// assert!(room.contains(Coord::new(2.0, 1.5)));
/// assert_eq!(room.center(), Coord::new(2.0, 1.5));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect {
    min: Coord,
    max: Coord,
}

impl Rect {
    /// Creates a rectangle spanning the two corners (any opposite pair).
    pub fn new(a: Coord, b: Coord) -> Self {
        Rect {
            min: Coord::new(a.x.min(b.x), a.y.min(b.y)),
            max: Coord::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from an origin plus width and height.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn with_size(origin: Coord, w: f64, h: f64) -> Self {
        assert!(w >= 0.0 && h >= 0.0, "rectangle size must be non-negative");
        Rect::new(origin, Coord::new(origin.x + w, origin.y + h))
    }

    /// Lower-left corner.
    pub fn min(&self) -> Coord {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Coord {
        self.max
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric centre.
    pub fn center(&self) -> Coord {
        Coord::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Coord) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// A circle, the coverage shape of wireless base stations.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Coord,
    /// Radius in metres.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    pub fn new(center: Coord, radius: f64) -> Self {
        assert!(radius >= 0.0, "circle radius must be non-negative");
        Circle { center, radius }
    }

    /// Returns `true` if `p` lies inside or on the circle.
    pub fn contains(&self, p: Coord) -> bool {
        self.center.distance(p) <= self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(Coord::new(4.0, 3.0), Coord::new(0.0, 0.0));
        assert_eq!(r.min(), Coord::new(0.0, 0.0));
        assert_eq!(r.max(), Coord::new(4.0, 3.0));
    }

    #[test]
    fn containment_includes_boundary() {
        let r = Rect::with_size(Coord::new(0.0, 0.0), 2.0, 2.0);
        assert!(r.contains(Coord::new(0.0, 0.0)));
        assert!(r.contains(Coord::new(2.0, 2.0)));
        assert!(!r.contains(Coord::new(2.0001, 1.0)));
    }

    #[test]
    fn circle_containment() {
        let c = Circle::new(Coord::new(0.0, 0.0), 5.0);
        assert!(c.contains(Coord::new(3.0, 4.0)));
        assert!(!c.contains(Coord::new(3.1, 4.0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_panics() {
        let _ = Rect::with_size(Coord::new(0.0, 0.0), -1.0, 1.0);
    }
}
