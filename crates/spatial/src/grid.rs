//! Uniform-grid spatial index with eviction support.
//!
//! Every LTC algorithm enumerates the tasks *within `d_max`* of each
//! arriving worker (the eligibility radius; see `ltc-core`). Workers
//! stream past a task set that only ever *shrinks* — once a task reaches
//! its quality threshold it stops being a candidate forever — so the
//! index supports `remove` (and `insert`, for dynamically posted tasks):
//! the streaming engine evicts completed tasks instead of re-filtering
//! them on every query, keeping the hot path proportional to the
//! *remaining* work.
//!
//! # Storage layout
//!
//! Cells are stored CSR-style: one flat entry slab plus a per-cell
//! directory of `(start, capacity, length)` triples, so a radius query
//! (at most 9 cells when the cell size equals the radius) walks
//! contiguous memory instead of chasing one heap pointer per cell. The
//! mutation story keeps the slab flat without ever rebuilding it
//! per-insert:
//!
//! * **insert** into a cell with spare capacity writes in place; a full
//!   cell *relocates* its block to the end of the slab with doubled
//!   capacity (amortized O(1), like `Vec` growth), leaving the old block
//!   as dead space;
//! * **remove** is a swap-remove inside the cell's live prefix;
//! * **retain** compacts each cell's live prefix in place;
//! * dead space is reclaimed by an amortized **compaction** (triggered
//!   once dead slots outnumber the live slab) that re-packs every cell
//!   contiguously, reusing a retained spare slab instead of allocating.
//!
//! Per-cell entry *order* is exactly what a `Vec`-per-cell layout would
//! produce for the same operation sequence (append on insert,
//! swap-remove, order-preserving retain), which the differential suite
//! against [`reference::ReferenceGrid`] checks element-for-element.

use crate::{BoundingBox, Point};

#[cfg(any(test, feature = "grid-reference"))]
pub mod reference;

/// Smallest capacity a cell block gets on its first relocation.
const MIN_CELL_CAP: usize = 4;

/// Upper bound on allocated cells (~12 MB of directory).
const MAX_CELLS: usize = 1 << 20;

/// The grid geometry: origin, effective cell size, and cell counts.
/// Copied into locals by the rebuild passes so geometry math never
/// borrows the (mutably borrowed) storage.
#[derive(Debug, Clone, Copy)]
struct Layout {
    cell_size: f64,
    origin: Point,
    cols: usize,
    rows: usize,
}

impl Layout {
    /// Lays a grid out over `bounds`, coarsening the cell size (doubling
    /// it) until the cell count fits under [`MAX_CELLS`].
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    fn new(cell_size: f64, bounds: BoundingBox) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let mut cell_size = cell_size;
        let (mut cols, mut rows);
        loop {
            // Compare against the cap in f64 before casting: a huge
            // extent (e.g. growth over a far-away task) would saturate
            // the cast at `usize::MAX` and make the `+ 1` overflow.
            let fcols = (bounds.width() / cell_size).floor();
            let frows = (bounds.height() / cell_size).floor();
            if fcols < MAX_CELLS as f64 && frows < MAX_CELLS as f64 {
                cols = (fcols as usize + 1).max(1);
                rows = (frows as usize + 1).max(1);
                if cols * rows <= MAX_CELLS {
                    break;
                }
            }
            cell_size *= 2.0;
        }
        Self {
            cell_size,
            origin: bounds.min,
            cols,
            rows,
        }
    }

    /// Whether a point falls inside the laid-out cell grid without
    /// clamping.
    #[inline]
    fn in_extent(&self, p: Point) -> bool {
        let cx = ((p.x - self.origin.x) / self.cell_size).floor();
        let cy = ((p.y - self.origin.y) / self.cell_size).floor();
        (0.0..self.cols as f64).contains(&cx) && (0.0..self.rows as f64).contains(&cy)
    }

    /// Row-major cell index of a (possibly out-of-extent) point.
    #[inline]
    fn cell_of(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// Clamped cell coordinates of a (possibly out-of-bounds) point.
    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.origin.x) / self.cell_size).floor();
        let cy = ((p.y - self.origin.y) / self.cell_size).floor();
        let cx = (cx.max(0.0) as usize).min(self.cols - 1);
        let cy = (cy.max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }
}

/// A uniform grid over 2-D points carrying ids of type `T`.
///
/// Built from a point set; supports exact radius queries, point
/// insertion, and removal. Queries with radius larger than the build-time
/// `cell_size` still work (more cells are scanned), so a single index can
/// serve several radii.
///
/// The grid's extent is fixed at build time (the bounding box of the
/// initial points, or the box passed to [`GridIndex::with_bounds`]).
/// Points outside the extent are clamped into the border cells; queries
/// clamp the same way, so results stay exact — out-of-extent points only
/// cost extra distance checks in the border cells.
///
/// ```
/// use ltc_spatial::{GridIndex, Point};
/// let mut index = GridIndex::build(10.0, vec![(7u32, Point::new(3.0, 3.0))]);
/// assert_eq!(index.within(Point::ORIGIN, 5.0).collect::<Vec<_>>(), vec![7]);
/// index.remove(7, Point::new(3.0, 3.0));
/// assert!(index.within(Point::ORIGIN, 5.0).next().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_size: f64,
    /// Grid origin (min corner of the build-time bounding box).
    origin: Point,
    /// The bounds the grid was *asked* to cover (the laid-out extent
    /// rounds these up to whole cells). Rebuilding with exactly these
    /// bounds reproduces the layout — durable state records them so
    /// restore is a fixed point (see [`GridIndex::requested_bounds`]).
    requested: BoundingBox,
    /// Number of columns / rows.
    cols: usize,
    rows: usize,
    /// Per-cell block start in `slab`, row-major.
    starts: Vec<u32>,
    /// Per-cell block capacity.
    caps: Vec<u32>,
    /// Per-cell live length (`lens[c] <= caps[c]`).
    lens: Vec<u32>,
    /// The flat entry slab. A cell's live entries are
    /// `slab[starts[c]..starts[c] + lens[c]]`; the rest of its block is
    /// slack holding stale copies (`T: Copy`, nothing to drop).
    slab: Vec<(T, Point)>,
    /// Slab slots belonging to no cell's block (abandoned by
    /// relocation); compaction resets this to zero.
    dead: usize,
    len: usize,
    /// Cumulative count of insertions that fell outside the build-time
    /// extent and were clamped into a border cell — telemetry for
    /// detecting a bad region guess (see [`GridIndex::n_clamped_insertions`]).
    clamped: u64,
    /// Retained scratch slab for compaction and rebucketing, so adaptive
    /// growth and slab maintenance reuse capacity instead of
    /// re-allocating per-cell storage from scratch.
    spare: Vec<(T, Point)>,
}

impl<T: Copy> GridIndex<T> {
    /// Builds an index over `(id, point)` pairs with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if
    /// any point has a non-finite coordinate.
    pub fn build<I>(cell_size: f64, points: I) -> Self
    where
        I: IntoIterator<Item = (T, Point)>,
    {
        let items: Vec<(T, Point)> = points.into_iter().collect();
        for (_, p) in &items {
            assert!(p.is_finite(), "grid index points must be finite, got {p}");
        }
        let bbox = BoundingBox::of_points(items.iter().map(|(_, p)| *p))
            .unwrap_or_else(|| BoundingBox::new(Point::ORIGIN, Point::ORIGIN));
        let mut index = Self::with_bounds(cell_size, bbox);
        // Bulk counting-sort load: the initial layout is perfectly
        // packed (every cell's capacity equals its length), unlike a
        // per-point insert loop, which would fragment the slab with
        // relocations before the first query runs.
        index.spare = items;
        index.place_spare(true);
        index
    }

    /// Builds an empty index covering `bounds`. Use this when points will
    /// arrive incrementally (e.g. dynamically posted tasks) and the
    /// service region is known up front.
    ///
    /// The cell count is capped (at ~1M cells): for a huge region with a
    /// tiny `cell_size`, cells are transparently coarsened (doubled until
    /// the grid fits) instead of eagerly allocating gigabytes of empty
    /// buckets. Queries stay exact — coarser cells only mean more
    /// distance checks per query.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn with_bounds(cell_size: f64, bounds: BoundingBox) -> Self {
        let layout = Layout::new(cell_size, bounds);
        let n_cells = layout.cols * layout.rows;
        Self {
            cell_size: layout.cell_size,
            origin: layout.origin,
            requested: bounds,
            cols: layout.cols,
            rows: layout.rows,
            starts: vec![0; n_cells],
            caps: vec![0; n_cells],
            lens: vec![0; n_cells],
            slab: Vec::new(),
            dead: 0,
            len: 0,
            clamped: 0,
            spare: Vec::new(),
        }
    }

    /// The grid geometry as a detached value (so rebuild passes can do
    /// cell math while the storage is mutably borrowed).
    #[inline]
    fn layout(&self) -> Layout {
        Layout {
            cell_size: self.cell_size,
            origin: self.origin,
            cols: self.cols,
            rows: self.rows,
        }
    }

    /// The effective cell size (the requested size, possibly coarsened by
    /// the cell-count cap; see [`GridIndex::with_bounds`]).
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The extent the grid was laid out over: origin plus `cols × rows`
    /// cells. Contains the build-time bounds (cell counts round up), and
    /// rebuilding an index with these bounds preserves exact query
    /// results.
    #[inline]
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::new(
            self.origin,
            Point::new(
                self.origin.x + self.cell_size * self.cols as f64,
                self.origin.y + self.cell_size * self.rows as f64,
            ),
        )
    }

    /// The bounds the grid was asked to cover ([`GridIndex::with_bounds`]
    /// / [`GridIndex::rebucket`] argument; for [`GridIndex::build`], the
    /// points' bounding box). Unlike [`GridIndex::bounds`] — which
    /// rounds up to whole cells and therefore *grows* when fed back in —
    /// rebuilding with these bounds reproduces the layout exactly, so
    /// durable state (engine snapshots) records them.
    #[inline]
    pub fn requested_bounds(&self) -> BoundingBox {
        self.requested
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

    /// Cumulative count of [`GridIndex::insert`] calls whose point lay
    /// outside the build-time extent and was clamped into a border cell.
    /// Queries stay exact either way, but a growing count means the
    /// declared region under-covers the workload and border buckets are
    /// absorbing extra distance checks — an operator signal to rebuild
    /// with better bounds. The counter is monotone (removals do not
    /// decrement it) and is not persisted by snapshots.
    #[inline]
    pub fn n_clamped_insertions(&self) -> u64 {
        self.clamped
    }

    /// Overwrites the clamp counter with a recorded value — the restore
    /// half of durable clamp telemetry. Rebuilding an index from durable
    /// state re-inserts only the *live* entries, so the re-counted value
    /// under-states the cumulative history (evicted entries and clamps
    /// against earlier, smaller extents are gone); callers restoring an
    /// engine pass the persisted counter through here so the telemetry —
    /// and any growth threshold armed on it — continues where it left
    /// off instead of silently resetting.
    #[inline]
    pub fn restore_clamp_counter(&mut self, clamped: u64) {
        self.clamped = clamped;
    }

    /// Inserts a point. Points outside the build-time extent are clamped
    /// into border cells (queries stay exact; see the type-level docs).
    ///
    /// Amortized O(1): the cell either has slack (write in place) or its
    /// block is relocated to the slab's end with doubled capacity.
    ///
    /// # Panics
    ///
    /// Panics if the point has a non-finite coordinate.
    pub fn insert(&mut self, id: T, point: Point) {
        assert!(
            point.is_finite(),
            "grid index points must be finite, got {point}"
        );
        if !self.in_extent(point) {
            self.clamped += 1;
        }
        let cell = self.cell_of(point);
        let live = self.lens[cell] as usize;
        if live < self.caps[cell] as usize {
            self.slab[self.starts[cell] as usize + live] = (id, point);
            self.lens[cell] = (live + 1) as u32;
        } else {
            self.relocate_and_push(cell, (id, point));
        }
        self.len += 1;
    }

    /// Moves `cell`'s full block to the end of the slab with doubled
    /// capacity and appends `entry`. The old block becomes dead space,
    /// reclaimed by [`Self::maybe_compact`].
    fn relocate_and_push(&mut self, cell: usize, entry: (T, Point)) {
        let start = self.starts[cell] as usize;
        let live = self.lens[cell] as usize;
        let old_cap = self.caps[cell] as usize;
        let new_cap = (old_cap * 2).max(MIN_CELL_CAP);
        let new_start = self.slab.len();
        assert!(
            new_start + new_cap <= u32::MAX as usize,
            "grid slab exceeds u32 addressing"
        );
        self.slab.reserve(new_cap);
        self.slab.extend_from_within(start..start + live);
        self.slab.push(entry);
        // Fill the slack so the slab's length always covers every
        // block's capacity (`T: Copy`, stale copies are inert).
        self.slab.resize(new_start + new_cap, entry);
        self.starts[cell] = new_start as u32;
        self.caps[cell] = new_cap as u32;
        self.lens[cell] = (live + 1) as u32;
        self.dead += old_cap;
        self.maybe_compact();
    }

    /// Re-packs the slab once dead space dominates. The thresholds keep
    /// the O(cells + len) re-pack amortized: dead slots are created a
    /// block at a time by relocations that already paid O(block), and a
    /// re-pack runs only after at least half the slab (and a constant
    /// floor, and an n_cells/8 floor for sparse huge grids) has died.
    fn maybe_compact(&mut self) {
        let n_cells = self.cols * self.rows;
        if self.dead > 64 && self.dead * 2 > self.slab.len() && self.dead * 8 > n_cells {
            self.gather_spare();
            self.place_spare(false);
        }
    }

    /// Copies every cell's live entries into `spare`, cell-major (the
    /// iteration order of [`Self::entries`]).
    fn gather_spare(&mut self) {
        self.spare.clear();
        self.spare.reserve(self.len);
        for c in 0..self.cols * self.rows {
            let s = self.starts[c] as usize;
            let l = self.lens[c] as usize;
            self.spare.extend_from_slice(&self.slab[s..s + l]);
        }
    }

    /// Rebuilds the slab and directory from `spare` (see
    /// [`Self::place`]), keeping `spare` for reuse.
    fn place_spare(&mut self, count_clamps: bool) {
        let spare = std::mem::take(&mut self.spare);
        self.place(spare.iter().copied(), count_clamps);
        self.spare = spare;
    }

    /// Rebuilds the slab and directory from `entries` by counting sort:
    /// count per cell into `lens`, prefix-sum into `starts`, then place
    /// (using `caps` as cursors). The result is perfectly packed
    /// (`caps == lens`, no dead space). Reuses every buffer's capacity.
    ///
    /// `count_clamps` makes entries outside the extent count as fresh
    /// clamped insertions (rebucket semantics); internal compaction
    /// passes `false` — maintenance must not inflate telemetry.
    fn place(&mut self, entries: impl Iterator<Item = (T, Point)> + Clone, count_clamps: bool) {
        let layout = self.layout();
        let n_cells = layout.cols * layout.rows;
        self.lens.clear();
        self.lens.resize(n_cells, 0);
        let mut len = 0usize;
        for (_, p) in entries.clone() {
            assert!(p.is_finite(), "grid index points must be finite, got {p}");
            self.lens[layout.cell_of(p)] += 1;
            len += 1;
        }
        assert!(len <= u32::MAX as usize, "grid slab exceeds u32 addressing");
        self.starts.clear();
        self.starts.resize(n_cells, 0);
        let mut acc = 0u32;
        for c in 0..n_cells {
            self.starts[c] = acc;
            acc += self.lens[c];
        }
        self.caps.clear();
        self.caps.resize(n_cells, 0);
        self.slab.clear();
        if let Some(filler) = entries.clone().next() {
            self.slab.resize(len, filler);
        }
        for (id, p) in entries {
            if count_clamps && !layout.in_extent(p) {
                self.clamped += 1;
            }
            let c = layout.cell_of(p);
            let cursor = &mut self.caps[c];
            self.slab[(self.starts[c] + *cursor) as usize] = (id, p);
            *cursor += 1;
        }
        // The cursors ran up to the lengths: every block is exactly full.
        debug_assert_eq!(self.caps, self.lens);
        self.dead = 0;
        self.len = len;
    }

    /// Removes one entry with this id stored at `point` (the location it
    /// was inserted with). Returns whether an entry was removed.
    ///
    /// `O(bucket)`: only the point's own cell is searched (a swap-remove
    /// inside the cell's live prefix).
    pub fn remove(&mut self, id: T, point: Point) -> bool
    where
        T: PartialEq,
    {
        if !point.is_finite() {
            return false;
        }
        let cell = self.cell_of(point);
        let s = self.starts[cell] as usize;
        let l = self.lens[cell] as usize;
        let bucket = &mut self.slab[s..s + l];
        match bucket.iter().position(|(other, _)| *other == id) {
            Some(pos) => {
                bucket.swap(pos, l - 1);
                self.lens[cell] = (l - 1) as u32;
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Iterates every stored `(id, point)` entry, in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (T, Point)> + '_ {
        (0..self.cols * self.rows).flat_map(move |c| {
            let s = self.starts[c] as usize;
            let l = self.lens[c] as usize;
            self.slab[s..s + l].iter().copied()
        })
    }

    /// Re-lays the grid out over new geometry, re-inserting every live
    /// entry exactly — the adaptive-growth operation for an index whose
    /// build-time region guess turned out to under-cover the workload.
    ///
    /// Queries are exact before and after (bucketing only affects how
    /// many candidates are distance-checked), so rebucketing can never
    /// change a query result — callers may grow the extent at any point
    /// without affecting decisions built on top of the index.
    ///
    /// The rebuild reuses the index's retained buffers (directory and
    /// slabs), so repeated growth steps allocate only when the new
    /// geometry or population outgrows every previous one.
    ///
    /// The clamp counter ([`GridIndex::n_clamped_insertions`]) carries
    /// over and keeps counting: entries still outside the *new* extent
    /// count as fresh clamped insertions, so the telemetry stays a
    /// cumulative measure of how often the laid-out extent was missed.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn rebucket(&mut self, cell_size: f64, bounds: BoundingBox) {
        self.gather_spare();
        self.set_layout(cell_size, bounds);
        self.place_spare(true);
    }

    /// Re-lays the grid out over new geometry holding exactly `entries`
    /// in place of its current ones — a rebucket whose entries change
    /// too (e.g. renumbered ids after tasks moved between indexes).
    /// Reuses the slab and directory like [`GridIndex::rebucket`] (and
    /// needs no scratch slab: `entries` is walked twice), and counts
    /// entries outside the new extent as clamped insertions the same
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if
    /// any point has a non-finite coordinate.
    pub fn reload<I>(&mut self, cell_size: f64, bounds: BoundingBox, entries: I)
    where
        I: IntoIterator<Item = (T, Point)>,
        I::IntoIter: Clone,
    {
        self.set_layout(cell_size, bounds);
        self.place(entries.into_iter(), true);
    }

    /// Sets the geometry a following placement lays entries out over.
    fn set_layout(&mut self, cell_size: f64, bounds: BoundingBox) {
        let layout = Layout::new(cell_size, bounds);
        self.cell_size = layout.cell_size;
        self.origin = layout.origin;
        self.requested = bounds;
        self.cols = layout.cols;
        self.rows = layout.rows;
    }

    /// Keeps only the entries satisfying the predicate (order-preserving
    /// within each cell, like `Vec::retain`).
    pub fn retain(&mut self, mut keep: impl FnMut(T, Point) -> bool) {
        let mut len = 0;
        for c in 0..self.cols * self.rows {
            let s = self.starts[c] as usize;
            let l = self.lens[c] as usize;
            let mut kept = 0usize;
            for r in 0..l {
                let entry = self.slab[s + r];
                if keep(entry.0, entry.1) {
                    self.slab[s + kept] = entry;
                    kept += 1;
                }
            }
            self.lens[c] = kept as u32;
            len += kept;
        }
        self.len = len;
    }

    /// Ids of all points with `distance(center) <= radius`, in unspecified
    /// order. Exact (candidates from the covering cells are filtered by
    /// true Euclidean distance).
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
        let (cx0, cy0) = self.cell_coords(Point::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = self.cell_coords(Point::new(center.x + radius, center.y + radius));
        (cy0..=cy1)
            .flat_map(move |cy| (cx0..=cx1).map(move |cx| cy * self.cols + cx))
            .flat_map(move |cell| {
                let s = self.starts[cell] as usize;
                let l = self.lens[cell] as usize;
                self.slab[s..s + l].iter().copied()
            })
            .filter(move |(_, p)| p.distance_sq(center) <= r_sq)
    }

    /// Calls `f` for every stored `(id, point)` with
    /// `distance(center) <= radius` — the loop form of
    /// [`Self::within_entries`], used by the per-check-in hot path (the
    /// closure compiles to a tight nested loop over contiguous cell
    /// blocks, with no iterator-adaptor state).
    ///
    /// Visit order is the same as [`Self::within_entries`]'s yield order.
    // ltc-lint: hot-path
    pub fn for_each_within_entries(&self, center: Point, radius: f64, mut f: impl FnMut(T, Point)) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be non-negative and finite, got {radius}"
        );
        let r_sq = radius * radius;
        let (cx0, cy0) = self.cell_coords(Point::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = self.cell_coords(Point::new(center.x + radius, center.y + radius));
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for cx in cx0..=cx1 {
                let cell = row + cx;
                let s = self.starts[cell] as usize;
                let l = self.lens[cell] as usize;
                for &(id, p) in &self.slab[s..s + l] {
                    if p.distance_sq(center) <= r_sq {
                        f(id, p);
                    }
                }
            }
        }
    }

    /// Number of points within `radius` of `center`.
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        self.within(center, radius).count()
    }

    /// Whether a point falls inside the laid-out cell grid without
    /// clamping.
    #[inline]
    fn in_extent(&self, p: Point) -> bool {
        self.layout().in_extent(p)
    }

    /// Row-major cell index of a (possibly out-of-extent) point.
    #[inline]
    fn cell_of(&self, p: Point) -> usize {
        self.layout().cell_of(p)
    }

    /// Clamped cell coordinates of a (possibly out-of-bounds) point.
    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        self.layout().cell_coords(p)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceGrid;
    use super::*;
    use proptest::prelude::*;

    fn brute_within(pts: &[(u32, Point)], center: Point, radius: f64) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let idx: GridIndex<u32> = GridIndex::build(1.0, std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.count_within(Point::new(3.0, 3.0), 100.0), 0);
    }

    #[test]
    fn single_point() {
        let idx = GridIndex::build(2.0, vec![(1u32, Point::new(1.0, 1.0))]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.within(Point::ORIGIN, 2.0).collect::<Vec<_>>(), vec![1]);
        assert!(idx.within(Point::ORIGIN, 1.0).next().is_none());
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let idx = GridIndex::build(5.0, vec![(9u32, Point::new(3.0, 4.0))]);
        // distance exactly 5.0
        assert_eq!(idx.count_within(Point::ORIGIN, 5.0), 1);
        assert_eq!(idx.count_within(Point::ORIGIN, 4.999), 0);
    }

    #[test]
    fn duplicate_locations_all_returned() {
        let p = Point::new(2.0, 2.0);
        let idx = GridIndex::build(1.0, vec![(1u32, p), (2, p), (3, p)]);
        let mut got: Vec<_> = idx.within(p, 0.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn query_radius_larger_than_cell_size() {
        let pts: Vec<(u32, Point)> = (0..100)
            .map(|i| (i, Point::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0)))
            .collect();
        let idx = GridIndex::build(2.0, pts.iter().copied());
        let center = Point::new(13.0, 13.0);
        for radius in [0.5, 3.0, 7.5, 40.0] {
            let mut got: Vec<u32> = idx.within(center, radius).collect();
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, center, radius), "radius {radius}");
        }
    }

    #[test]
    fn queries_outside_bounding_box() {
        let pts = [(0u32, Point::new(10.0, 10.0)), (1, Point::new(12.0, 10.0))];
        let idx = GridIndex::build(1.0, pts.iter().copied());
        // Center far outside the data extent.
        assert_eq!(idx.count_within(Point::new(-100.0, -100.0), 10.0), 0);
        assert_eq!(idx.count_within(Point::new(-100.0, -100.0), 1000.0), 2);
    }

    #[test]
    fn collinear_points_on_one_row() {
        let pts: Vec<(u32, Point)> = (0..20).map(|i| (i, Point::new(i as f64, 0.0))).collect();
        let idx = GridIndex::build(4.0, pts.iter().copied());
        let mut got: Vec<u32> = idx.within(Point::new(10.0, 0.0), 2.5).collect();
        got.sort_unstable();
        assert_eq!(got, brute_within(&pts, Point::new(10.0, 0.0), 2.5));
    }

    #[test]
    fn remove_evicts_and_readd_restores() {
        let p = Point::new(5.0, 5.0);
        let mut idx = GridIndex::build(3.0, vec![(1u32, p), (2, Point::new(6.0, 5.0))]);
        assert!(idx.remove(1, p));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.within(p, 2.0).collect::<Vec<_>>(), vec![2]);
        // Removing again is a no-op.
        assert!(!idx.remove(1, p));
        // Re-adding restores visibility.
        idx.insert(1, p);
        let mut got: Vec<u32> = idx.within(p, 2.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn remove_with_wrong_location_misses() {
        let mut idx = GridIndex::build(
            1.0,
            vec![(1u32, Point::new(0.5, 0.5)), (2, Point::new(20.0, 20.0))],
        );
        // A location in a different cell cannot find entry 1.
        assert!(!idx.remove(1, Point::new(20.0, 20.0)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn retain_filters_by_predicate() {
        let pts: Vec<(u32, Point)> = (0..30).map(|i| (i, Point::new(i as f64, 0.0))).collect();
        let mut idx = GridIndex::build(4.0, pts.iter().copied());
        idx.retain(|id, _| id % 3 == 0);
        assert_eq!(idx.len(), 10);
        let mut got: Vec<u32> = idx.within(Point::new(15.0, 0.0), 100.0).collect();
        got.sort_unstable();
        assert_eq!(got, (0..30).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn with_bounds_accepts_out_of_extent_inserts() {
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(2.0, bounds);
        idx.insert(1, Point::new(5.0, 5.0));
        // Far outside the declared extent: clamped into a border cell but
        // still found exactly.
        idx.insert(2, Point::new(100.0, 100.0));
        assert_eq!(idx.within(Point::new(100.0, 100.0), 1.0).next(), Some(2));
        assert_eq!(idx.within(Point::new(5.0, 5.0), 1.0).next(), Some(1));
        assert_eq!(idx.count_within(Point::new(50.0, 50.0), 10.0), 0);
        assert!(idx.remove(2, Point::new(100.0, 100.0)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn huge_region_coarsens_instead_of_exploding() {
        // A country-sized region with a tiny cell would naively need
        // ~1e9 cells; the cap coarsens cells instead of allocating them.
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(1.0e6, 1.0e6));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(30.0, bounds);
        assert!(idx.cols * idx.rows <= 1 << 20);
        // Queries stay exact at the coarser granularity.
        idx.insert(1, Point::new(987_654.0, 123_456.0));
        idx.insert(2, Point::new(987_700.0, 123_456.0));
        assert_eq!(
            idx.within(Point::new(987_654.0, 123_456.0), 10.0)
                .collect::<Vec<_>>(),
            vec![1]
        );
        let mut both: Vec<u32> = idx.within(Point::new(987_677.0, 123_456.0), 50.0).collect();
        both.sort_unstable();
        assert_eq!(both, vec![1, 2]);
        assert!(idx.remove(1, Point::new(987_654.0, 123_456.0)));
        assert_eq!(idx.count_within(Point::new(987_654.0, 123_456.0), 10.0), 0);
    }

    #[test]
    fn astronomical_bounds_coarsen_without_overflow() {
        // A width this large would saturate a float→usize cast; the
        // coarsening loop must compare in f64 and keep doubling instead
        // of overflowing on the `+ 1` (debug builds panic on overflow).
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(1.0e21, 1.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(30.0, bounds);
        assert!(idx.cols * idx.rows <= 1 << 20);
        idx.insert(1, Point::new(1.0e21, 0.5));
        assert_eq!(idx.within(Point::new(1.0e21, 0.5), 10.0).next(), Some(1));
    }

    #[test]
    fn clamped_insertions_are_counted() {
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(2.0, bounds);
        assert_eq!(idx.n_clamped_insertions(), 0);
        idx.insert(1, Point::new(5.0, 5.0));
        assert_eq!(idx.n_clamped_insertions(), 0, "in-extent insert is free");
        idx.insert(2, Point::new(100.0, 5.0));
        idx.insert(3, Point::new(-1.0, 5.0));
        idx.insert(4, Point::new(5.0, 1.0e6));
        assert_eq!(idx.n_clamped_insertions(), 3);
        // The counter is telemetry: removal does not decrement it.
        assert!(idx.remove(2, Point::new(100.0, 5.0)));
        assert_eq!(idx.n_clamped_insertions(), 3);
        // Build from points never clamps (the extent is their bbox).
        let built = GridIndex::build(
            1.0,
            vec![(1u32, Point::new(0.0, 0.0)), (2, Point::new(9.0, 9.0))],
        );
        assert_eq!(built.n_clamped_insertions(), 0);
    }

    #[test]
    fn rebucket_preserves_entries_and_grows_the_extent() {
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(2.0, bounds);
        idx.insert(1, Point::new(5.0, 5.0));
        idx.insert(2, Point::new(100.0, 100.0)); // clamps
        idx.insert(3, Point::new(120.0, 90.0)); // clamps
        assert_eq!(idx.n_clamped_insertions(), 2);

        let grown = BoundingBox::new(Point::ORIGIN, Point::new(130.0, 130.0));
        idx.rebucket(2.0, grown);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bounds().min, Point::ORIGIN);
        assert!(idx.bounds().max.x >= 130.0 && idx.bounds().max.y >= 130.0);
        // The counter carried over, and the re-inserted entries now fit.
        assert_eq!(idx.n_clamped_insertions(), 2);
        idx.insert(4, Point::new(125.0, 5.0));
        assert_eq!(idx.n_clamped_insertions(), 2, "in-extent after growth");
        // Queries stay exact over the new layout.
        let mut got: Vec<u32> = idx.within(Point::new(110.0, 95.0), 15.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        assert_eq!(idx.within(Point::new(5.0, 5.0), 1.0).next(), Some(1));
        assert!(idx.remove(2, Point::new(100.0, 100.0)));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn rebucket_recounts_still_clamped_entries() {
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(2.0, bounds);
        idx.insert(1, Point::new(100.0, 100.0)); // clamps
        assert_eq!(idx.n_clamped_insertions(), 1);
        // Growing to a box that still excludes the entry re-counts it.
        idx.rebucket(2.0, BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0)));
        assert_eq!(idx.n_clamped_insertions(), 2);
        // Growing enough stops the counting.
        idx.rebucket(
            2.0,
            BoundingBox::new(Point::ORIGIN, Point::new(200.0, 200.0)),
        );
        assert_eq!(idx.n_clamped_insertions(), 2);
        assert_eq!(idx.within(Point::new(100.0, 100.0), 1.0).next(), Some(1));
    }

    #[test]
    fn reload_replaces_the_entries_and_lays_out_anew() {
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(2.0, bounds);
        idx.insert(1, Point::new(5.0, 5.0));
        idx.insert(2, Point::new(6.0, 6.0));
        let wider = BoundingBox::new(Point::ORIGIN, Point::new(40.0, 10.0));
        idx.reload(
            2.0,
            wider,
            [(7, Point::new(6.0, 6.0)), (8, Point::new(35.0, 5.0))],
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.requested_bounds(), wider);
        assert_eq!(idx.n_clamped_insertions(), 0, "both entries fit");
        let mut got: Vec<u32> = idx.within(Point::new(20.0, 5.0), 20.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        // Entries outside the new extent count as clamped insertions.
        idx.reload(2.0, bounds, [(9, Point::new(100.0, 5.0))]);
        assert_eq!(idx.n_clamped_insertions(), 1);
        assert_eq!(idx.within(Point::new(100.0, 5.0), 1.0).next(), Some(9));
    }

    #[test]
    fn entries_yield_every_stored_point() {
        let pts: Vec<(u32, Point)> = (0..25)
            .map(|i| (i, Point::new((i % 5) as f64 * 7.0, (i / 5) as f64 * 7.0)))
            .collect();
        let idx = GridIndex::build(4.0, pts.iter().copied());
        let mut got: Vec<(u32, Point)> = idx.entries().collect();
        got.sort_unstable_by_key(|(id, _)| *id);
        assert_eq!(got, pts);
    }

    #[test]
    fn heavy_insert_remove_churn_stays_exact() {
        // Drive the relocation + compaction machinery hard on one cell
        // region and verify queries against brute force throughout.
        let bounds = BoundingBox::new(Point::ORIGIN, Point::new(16.0, 16.0));
        let mut idx: GridIndex<u32> = GridIndex::with_bounds(4.0, bounds);
        let mut live: Vec<(u32, Point)> = Vec::new();
        let mut next_id = 0u32;
        for round in 0..50 {
            for i in 0..40 {
                let p = Point::new(((round * 7 + i) % 17) as f64, ((i * 3) % 17) as f64);
                idx.insert(next_id, p);
                live.push((next_id, p));
                next_id += 1;
            }
            // Remove every third live entry.
            let mut k = 0;
            live.retain(|&(id, p)| {
                k += 1;
                if k % 3 == 0 {
                    assert!(idx.remove(id, p));
                    false
                } else {
                    true
                }
            });
            assert_eq!(idx.len(), live.len());
            let center = Point::new((round % 16) as f64, 8.0);
            for radius in [0.0, 2.5, 6.0, 30.0] {
                let mut got: Vec<u32> = idx.within(center, radius).collect();
                got.sort_unstable();
                assert_eq!(got, brute_within(&live, center, radius));
            }
        }
    }

    #[test]
    fn for_each_matches_iterator_order() {
        let pts: Vec<(u32, Point)> = (0..60)
            .map(|i| (i, Point::new((i % 12) as f64, (i / 12) as f64 * 2.0)))
            .collect();
        let idx = GridIndex::build(3.0, pts.iter().copied());
        let center = Point::new(5.0, 4.0);
        let via_iter: Vec<(u32, Point)> = idx.within_entries(center, 4.5).collect();
        let mut via_loop = Vec::new();
        idx.for_each_within_entries(center, 4.5, |id, p| via_loop.push((id, p)));
        assert_eq!(via_iter, via_loop);
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build(0.0, vec![(0u32, Point::ORIGIN)]);
    }

    #[test]
    #[should_panic(expected = "radius must be non-negative")]
    fn negative_radius_panics() {
        let idx = GridIndex::build(1.0, vec![(0u32, Point::ORIGIN)]);
        let _ = idx.within(Point::ORIGIN, -1.0).count();
    }

    // ---- differential suite: CSR layout vs the reference Vec-of-Vec ----

    /// One random operation against both layouts.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(f64, f64),
        /// Remove the i-th (mod len) live id, by its insert location.
        Remove(usize),
        RetainMod(u32),
        Query(f64, f64, f64),
        Rebucket(f64, f64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Weighted choice by discriminant (the offline proptest shim has
        // no `prop_oneof!`): 4× insert, 2× remove, 1× retain, 3× query,
        // 1× rebucket.
        (
            0u32..11,
            -40.0..140.0f64,
            -40.0..140.0f64,
            0.0..60.0f64,
            0usize..256,
            2u32..6,
        )
            .prop_map(|(d, x, y, r, i, m)| match d {
                0..=3 => Op::Insert(x, y),
                4..=5 => Op::Remove(i),
                6 => Op::RetainMod(m),
                7..=9 => Op::Query(x, y, r),
                _ => Op::Rebucket(4.0 + r / 2.0, 60.0 + (x + 40.0) * 2.0),
            })
    }

    proptest! {
        /// Every operation sequence leaves the CSR grid and the reference
        /// layout observationally identical — including element *order*
        /// of queries and full-entry iteration, which is what makes the
        /// CSR swap bit-invisible to everything built on top.
        #[test]
        fn csr_matches_reference_layout(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let bounds = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
            let mut csr: GridIndex<u32> = GridIndex::with_bounds(10.0, bounds);
            let mut reference: ReferenceGrid<u32> = ReferenceGrid::with_bounds(10.0, bounds);
            let mut live: Vec<(u32, Point)> = Vec::new();
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Insert(x, y) => {
                        let p = Point::new(x, y);
                        csr.insert(next_id, p);
                        reference.insert(next_id, p);
                        live.push((next_id, p));
                        next_id += 1;
                    }
                    Op::Remove(i) => {
                        if !live.is_empty() {
                            let (id, p) = live.swap_remove(i % live.len());
                            prop_assert!(csr.remove(id, p));
                            prop_assert!(reference.remove(id, p));
                        }
                    }
                    Op::RetainMod(m) => {
                        csr.retain(|id, _| id % m == 0);
                        reference.retain(|id, _| id % m == 0);
                        live.retain(|(id, _)| id % m == 0);
                    }
                    Op::Query(x, y, r) => {
                        let c = Point::new(x, y);
                        let a: Vec<(u32, Point)> = csr.within_entries(c, r).collect();
                        let b: Vec<(u32, Point)> = reference.within_entries(c, r).collect();
                        prop_assert_eq!(a, b);
                        let a_ids: Vec<u32> = csr.within(c, r).collect();
                        let b_ids: Vec<u32> = reference.within(c, r).collect();
                        prop_assert_eq!(a_ids, b_ids);
                    }
                    Op::Rebucket(cs, ext) => {
                        let b = BoundingBox::new(Point::ORIGIN, Point::new(ext, ext));
                        csr.rebucket(cs, b);
                        reference.rebucket(cs, b);
                    }
                }
                prop_assert_eq!(csr.len(), reference.len());
                prop_assert_eq!(csr.is_empty(), reference.is_empty());
                prop_assert_eq!(csr.n_clamped_insertions(), reference.n_clamped_insertions());
                prop_assert_eq!(csr.cell_size(), reference.cell_size());
                let a: Vec<(u32, Point)> = csr.entries().collect();
                let b: Vec<(u32, Point)> = reference.entries().collect();
                prop_assert_eq!(a, b);
            }
        }
    }
}
