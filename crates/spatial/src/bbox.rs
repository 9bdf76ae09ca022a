//! Axis-aligned bounding boxes.

use crate::Point;

/// An axis-aligned rectangle, used to describe dataset extents (the
/// synthetic workloads live on a `[0, 1000] × [0, 1000]` grid) and to size
/// the uniform grid index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Corner with the smallest coordinates.
    pub min: Point,
    /// Corner with the largest coordinates.
    pub max: Point,
}

impl BoundingBox {
    /// A box spanning the two corner points (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The smallest box containing every point of the iterator, or `None`
    /// for an empty iterator.
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut bb = BoundingBox {
            min: first,
            max: first,
        };
        for p in iter {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Width (x-extent) of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y-extent) of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest box containing both boxes.
    pub fn union(&self, other: BoundingBox) -> Self {
        BoundingBox {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Grows the box by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Self {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_normalized() {
        let bb = BoundingBox::new(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(bb.min, Point::new(-2.0, -1.0));
        assert_eq!(bb.max, Point::new(5.0, 3.0));
        assert_eq!(bb.width(), 7.0);
        assert_eq!(bb.height(), 4.0);
    }

    #[test]
    fn of_points_covers_all() {
        let pts = [
            Point::new(1.0, 2.0),
            Point::new(-3.0, 8.0),
            Point::new(4.0, 0.0),
        ];
        let bb = BoundingBox::of_points(pts).unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
        assert_eq!(bb.min, Point::new(-3.0, 0.0));
        assert_eq!(bb.max, Point::new(4.0, 8.0));
    }

    #[test]
    fn of_points_empty_is_none() {
        assert!(BoundingBox::of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let bb = BoundingBox::new(Point::ORIGIN, Point::new(1.0, 1.0));
        assert!(bb.contains(Point::new(0.0, 0.0)));
        assert!(bb.contains(Point::new(1.0, 1.0)));
        assert!(bb.contains(Point::new(0.5, 0.5)));
        assert!(!bb.contains(Point::new(1.0001, 0.5)));
    }

    #[test]
    fn union_covers_both_boxes() {
        let a = BoundingBox::new(Point::ORIGIN, Point::new(2.0, 5.0));
        let b = BoundingBox::new(Point::new(-1.0, 1.0), Point::new(1.0, 9.0));
        let u = a.union(b);
        assert_eq!(u.min, Point::new(-1.0, 0.0));
        assert_eq!(u.max, Point::new(2.0, 9.0));
        assert_eq!(a.union(a), a);
    }

    #[test]
    fn expanded_adds_margin() {
        let bb = BoundingBox::new(Point::ORIGIN, Point::new(1.0, 1.0)).expanded(2.0);
        assert_eq!(bb.min, Point::new(-2.0, -2.0));
        assert_eq!(bb.max, Point::new(3.0, 3.0));
    }
}
