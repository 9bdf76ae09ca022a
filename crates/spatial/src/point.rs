//! 2-D points and distance helpers.

use std::fmt;

/// A location on the 2-D plane.
///
/// The paper models both task locations `l_t` and worker locations `l_w`
/// as points on a Euclidean plane (a 1000×1000 grid where one unit is
/// 10 m in the synthetic datasets). Coordinates are `f64` so the same type
/// serves grid coordinates and projected geographic coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other` (the paper's `‖l_w, l_t‖`).
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance — cheaper when only comparisons are
    /// needed (radius filters compare against `r²`).
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns true when both coordinates are finite (no NaN/∞). The LTC
    /// model validation rejects non-finite locations up front so the
    /// algorithms can assume well-formed geometry.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// Cross product of vectors `(b - a)` and `(c - a)`.
///
/// Positive when `a → b → c` turns counter-clockwise; the convex-hull
/// construction and the point-in-polygon test are built on this predicate.
#[inline]
pub(crate) fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(4.0, -0.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(7.25, -3.5);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1.0, 9.0);
        let b = Point::new(4.0, 2.0);
        assert_eq!(a.min(b), Point::new(1.0, 2.0));
        assert_eq!(a.max(b), Point::new(4.0, 9.0));
    }

    #[test]
    fn cross_sign_encodes_turn_direction() {
        let a = Point::ORIGIN;
        let b = Point::new(1.0, 0.0);
        // Left turn.
        assert!(cross(a, b, Point::new(1.0, 1.0)) > 0.0);
        // Right turn.
        assert!(cross(a, b, Point::new(1.0, -1.0)) < 0.0);
        // Collinear.
        assert_eq!(cross(a, b, Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn finiteness_check() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
