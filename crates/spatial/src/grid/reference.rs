//! The pre-CSR `Vec`-of-`Vec` grid layout, kept as the differential
//! reference for the flat-slab [`GridIndex`](super::GridIndex).
//!
//! This is the storage scheme the index used before the hot-path
//! optimization pass: one heap-allocated bucket per cell. It is compiled
//! only for tests and exists so property tests can drive random
//! operation sequences against both layouts and assert observational
//! equality — including element order, which is what makes the CSR
//! layout bit-invisible to the assignment engine built on top.

use super::Layout;
use crate::{BoundingBox, Point};

/// The reference `Vec`-of-`Vec` uniform grid. Same observable behavior
/// as [`GridIndex`](super::GridIndex) (shared geometry code, same
/// operation semantics), different storage.
#[derive(Debug, Clone)]
pub struct ReferenceGrid<T> {
    cell_size: f64,
    origin: Point,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(T, Point)>>,
    len: usize,
    clamped: u64,
}

impl<T: Copy> ReferenceGrid<T> {
    /// Builds an empty index covering `bounds` (same coarsening as the
    /// CSR grid — the geometry code is shared).
    pub fn with_bounds(cell_size: f64, bounds: BoundingBox) -> Self {
        let layout = Layout::new(cell_size, bounds);
        Self {
            cell_size: layout.cell_size,
            origin: layout.origin,
            cols: layout.cols,
            rows: layout.rows,
            cells: vec![Vec::new(); layout.cols * layout.rows],
            len: 0,
            clamped: 0,
        }
    }

    /// The effective (possibly coarsened) cell size.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative clamped-insertion count (see the CSR grid's docs).
    #[inline]
    pub fn n_clamped_insertions(&self) -> u64 {
        self.clamped
    }

    /// Inserts a point, clamping out-of-extent points into border cells.
    pub fn insert(&mut self, id: T, point: Point) {
        assert!(
            point.is_finite(),
            "grid index points must be finite, got {point}"
        );
        if !self.layout().in_extent(point) {
            self.clamped += 1;
        }
        let cell = self.layout().cell_of(point);
        self.cells[cell].push((id, point));
        self.len += 1;
    }

    /// Removes one entry with this id stored at `point`.
    pub fn remove(&mut self, id: T, point: Point) -> bool
    where
        T: PartialEq,
    {
        if !point.is_finite() {
            return false;
        }
        let cell = self.layout().cell_of(point);
        let bucket = &mut self.cells[cell];
        match bucket.iter().position(|(other, _)| *other == id) {
            Some(pos) => {
                bucket.swap_remove(pos);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Iterates every stored `(id, point)` entry, cell-major.
    pub fn entries(&self) -> impl Iterator<Item = (T, Point)> + '_ {
        self.cells.iter().flat_map(|bucket| bucket.iter().copied())
    }

    /// Re-lays the grid out over new geometry (the historical
    /// rebuild-from-scratch implementation).
    pub fn rebucket(&mut self, cell_size: f64, bounds: BoundingBox) {
        let mut next = Self::with_bounds(cell_size, bounds);
        next.clamped = self.clamped;
        for bucket in std::mem::take(&mut self.cells) {
            for (id, p) in bucket {
                next.insert(id, p);
            }
        }
        *self = next;
    }

    /// Keeps only the entries satisfying the predicate.
    pub fn retain(&mut self, mut keep: impl FnMut(T, Point) -> bool) {
        let mut len = 0;
        for bucket in &mut self.cells {
            bucket.retain(|&(id, p)| keep(id, p));
            len += bucket.len();
        }
        self.len = len;
    }

    /// Ids of all points with `distance(center) <= radius`.
    pub fn within(&self, center: Point, radius: f64) -> impl Iterator<Item = T> + '_ {
        self.within_entries(center, radius).map(|(id, _)| id)
    }

    /// Like [`Self::within`] but also yields the stored point.
    pub fn within_entries(
        &self,
        center: Point,
        radius: f64,
    ) -> impl Iterator<Item = (T, Point)> + '_ {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be non-negative and finite, got {radius}"
        );
        let r_sq = radius * radius;
        let layout = self.layout();
        let (cx0, cy0) = layout.cell_coords(Point::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = layout.cell_coords(Point::new(center.x + radius, center.y + radius));
        (cy0..=cy1)
            .flat_map(move |cy| (cx0..=cx1).map(move |cx| cy * self.cols + cx))
            .flat_map(move |cell| self.cells[cell].iter().copied())
            .filter(move |(_, p)| p.distance_sq(center) <= r_sq)
    }

    #[inline]
    fn layout(&self) -> Layout {
        Layout {
            cell_size: self.cell_size,
            origin: self.origin,
            cols: self.cols,
            rows: self.rows,
        }
    }
}
