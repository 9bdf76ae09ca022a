//! Tile→shard routing for spatially partitioned services.
//!
//! A sharded LTC deployment partitions its task pool by location so that
//! independent regions can be served by independent engines (and
//! threads). The natural partition boundary is the same uniform tiling
//! [`GridIndex`](crate::GridIndex) queries run on: this module maps tile
//! coordinates to shard ids.
//!
//! The mapping is **striped by tile column**: the region's columns are
//! split into `n_shards` contiguous runs. A freshly built router
//! ([`ShardRouter::new`]) stripes the columns into (nearly) equal widths;
//! a router can also be laid out with *explicit* stripe boundaries
//! ([`ShardRouter::with_layout`]), which is how load-aware rebalancing
//! re-splits the columns by observed task mass
//! ([`ShardRouter::balanced_starts`]) and how a persisted stripe layout
//! is restored from a snapshot. Stripes keep routing monotone in `x`,
//! which gives the two properties a check-in front-end needs:
//!
//! * a point routes to exactly one shard in O(log shards), and
//! * the shards whose territory a query disk can touch form one
//!   *contiguous* range of shard ids ([`ShardRouter::shards_within`]) —
//!   usually a single shard when the stripe width is large against the
//!   query radius, so most check-ins are handled entirely shard-locally.
//!
//! Out-of-region points clamp into the border stripes, mirroring
//! [`GridIndex`](crate::GridIndex)'s clamping: routing never fails, it
//! only degrades for points outside the declared service region. When
//! that degradation shows up as persistent load skew, rebalancing can
//! extend the tiled extent (`with_layout` accepts any origin/column
//! count) so border mass gets real columns of its own.

use crate::{BoundingBox, Point};

/// Maps locations (via their grid-tile column) to shard ids.
///
/// ```
/// use ltc_spatial::{BoundingBox, Point, ShardRouter};
/// let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
/// let router = ShardRouter::new(4, 30.0, region);
/// let shard = router.shard_of(Point::new(10.0, 500.0));
/// assert_eq!(shard, 0);
/// assert_eq!(router.shard_of(Point::new(990.0, 500.0)), 3);
/// // A query disk near a stripe boundary may touch two shards.
/// let range = router.shards_within(Point::new(250.0, 500.0), 30.0);
/// assert!(range.contains(&router.shard_of(Point::new(250.0, 500.0))));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRouter {
    /// Tile size the striping is quantized to.
    cell_size: f64,
    /// Left edge of the tiled region.
    origin_x: f64,
    /// Total tile columns over the region width.
    cols: usize,
    /// Stripe start column per shard: `starts[0] == 0`, strictly
    /// increasing, every entry `< cols`. Shard `s` owns columns
    /// `starts[s] .. starts[s + 1]` (the last stripe runs to `cols`).
    starts: Vec<usize>,
}

impl ShardRouter {
    /// A router striping `region`'s tile columns (tiles of `cell_size`)
    /// over `n_shards` equal-width shards.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or `cell_size` is not strictly
    /// positive and finite.
    pub fn new(n_shards: usize, cell_size: f64, region: BoundingBox) -> Self {
        assert!(n_shards > 0, "a router needs at least one shard");
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let cols = Self::cols_over(region.width(), cell_size).max(n_shards);
        Self {
            cell_size,
            origin_x: region.min.x,
            cols,
            starts: Self::uniform_starts(n_shards, cols),
        }
    }

    /// A router with an explicit column layout and stripe boundaries —
    /// the constructor load-aware rebalancing and snapshot restoration
    /// use. `starts[s]` is the first column of shard `s`'s stripe.
    ///
    /// Fails (with a description) unless `cell_size` is positive and
    /// finite, `origin_x` is finite, `cols >= starts.len() >= 1`, and
    /// `starts` begins at 0, is strictly increasing, and stays below
    /// `cols`.
    pub fn with_layout(
        cell_size: f64,
        origin_x: f64,
        cols: usize,
        starts: Vec<usize>,
    ) -> Result<Self, &'static str> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err("cell_size must be positive and finite");
        }
        if !origin_x.is_finite() {
            return Err("origin_x must be finite");
        }
        if starts.is_empty() {
            return Err("a router needs at least one stripe");
        }
        if starts[0] != 0 {
            return Err("the first stripe must start at column 0");
        }
        if starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err("stripe starts must be strictly increasing");
        }
        if *starts.last().expect("starts is non-empty") >= cols {
            return Err("every stripe needs at least one column");
        }
        Ok(Self {
            cell_size,
            origin_x,
            cols,
            starts,
        })
    }

    /// Column count for a width at a cell size (at least one). Clamped
    /// in f64 before the cast: an astronomical width would saturate the
    /// cast at `usize::MAX` and make the `+ 1` overflow.
    fn cols_over(width: f64, cell_size: f64) -> usize {
        ((width / cell_size).floor().min((1u64 << 52) as f64) as usize + 1).max(1)
    }

    /// Equal-width stripe boundaries: `starts[s] = ceil(s·cols / n)` —
    /// exactly the columns the historical `col·n / cols` formula assigned
    /// to shard `s`, so uniform routers route identically across
    /// versions (snapshots without a stripe record rely on this).
    fn uniform_starts(n_shards: usize, cols: usize) -> Vec<usize> {
        (0..n_shards)
            .map(|s| (s * cols).div_ceil(n_shards))
            .collect()
    }

    /// Number of shards routed over.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.starts.len()
    }

    /// Number of tile columns the stripes partition.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Left edge of the tiled extent.
    #[inline]
    pub fn origin_x(&self) -> f64 {
        self.origin_x
    }

    /// Tile size the striping is quantized to.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The stripe start column of every shard (see
    /// [`ShardRouter::with_layout`] for the invariants).
    #[inline]
    pub fn stripe_starts(&self) -> &[usize] {
        &self.starts
    }

    /// The tile column of an x coordinate, clamped into the tiled extent.
    #[inline]
    fn column_of(&self, x: f64) -> usize {
        let c = ((x - self.origin_x) / self.cell_size).floor();
        (c.max(0.0) as usize).min(self.cols - 1)
    }

    /// The shard owning a tile column.
    #[inline]
    fn shard_of_col(&self, col: usize) -> usize {
        // `starts[0] == 0`, so at least one stripe start is `<= col`.
        self.starts.partition_point(|&s| s <= col) - 1
    }

    /// The shard owning a point (exactly one; out-of-region points clamp
    /// into the border stripes).
    #[inline]
    pub fn shard_of(&self, point: Point) -> usize {
        self.shard_of_col(self.column_of(point.x))
    }

    /// The contiguous range of shards whose territory intersects the disk
    /// `‖p − center‖ ≤ radius`. Conservative at tile granularity: every
    /// shard owning a point of the disk is included, but a returned shard
    /// may own no disk point (its tiles merely overlap the bounding
    /// interval).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn shards_within(&self, center: Point, radius: f64) -> std::ops::RangeInclusive<usize> {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be non-negative and finite, got {radius}"
        );
        let lo = self.shard_of_col(self.column_of(center.x - radius));
        let hi = self.shard_of_col(self.column_of(center.x + radius));
        lo..=hi
    }

    /// Load-balanced stripe boundaries over per-column mass: stripe `s`
    /// starts at the column where the mass prefix first reaches
    /// `s/n·total`, nudged so every stripe keeps at least one column.
    /// With all-zero mass the split degenerates to equal widths.
    ///
    /// The result always satisfies [`ShardRouter::with_layout`]'s
    /// invariants for `cols = col_mass.len()` (given
    /// `col_mass.len() >= n_shards`). Balance is column-granular: a
    /// single column holding most of the mass cannot be split, so the
    /// caller should compare achieved loads, not assume perfection.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or exceeds the column count.
    pub fn balanced_starts(col_mass: &[u64], n_shards: usize) -> Vec<usize> {
        assert!(n_shards > 0, "a router needs at least one shard");
        let cols = col_mass.len();
        assert!(
            cols >= n_shards,
            "cannot stripe {cols} column(s) over {n_shards} shards"
        );
        let total: u64 = col_mass.iter().sum();
        if total == 0 {
            return Self::uniform_starts(n_shards, cols);
        }
        // prefix[c] = mass of columns [0, c).
        let mut prefix = Vec::with_capacity(cols + 1);
        let mut acc = 0u64;
        prefix.push(0u64);
        for &m in col_mass {
            acc += m;
            prefix.push(acc);
        }
        let mut starts = Vec::with_capacity(n_shards);
        starts.push(0usize);
        for s in 1..n_shards {
            let target = ((total as u128 * s as u128) / n_shards as u128) as u64;
            let cut = prefix.partition_point(|&p| p < target);
            // Keep stripes non-empty on both sides of the cut.
            let lo = starts[s - 1] + 1;
            let hi = cols - (n_shards - s);
            starts.push(cut.clamp(lo, hi));
        }
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> ShardRouter {
        ShardRouter::new(
            n,
            30.0,
            BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0)),
        )
    }

    #[test]
    fn single_shard_owns_everything() {
        let r = router(1);
        for x in [-100.0, 0.0, 500.0, 999.0, 5000.0] {
            assert_eq!(r.shard_of(Point::new(x, 0.0)), 0);
            assert_eq!(r.shards_within(Point::new(x, 0.0), 30.0), 0..=0);
        }
    }

    #[test]
    fn stripes_are_monotone_and_cover_all_shards() {
        let r = router(4);
        let mut last = 0;
        let mut seen = [false; 4];
        for i in 0..=1000 {
            let s = r.shard_of(Point::new(i as f64, 0.0));
            assert!(s >= last, "routing must be monotone in x");
            assert!(s < 4);
            seen[s] = true;
            last = s;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns some territory");
    }

    #[test]
    fn uniform_starts_match_the_historical_formula() {
        // `new` must route exactly like the pre-stripe-layout formula
        // `min(col·n / cols, n−1)` — persisted snapshots without a stripe
        // record depend on it.
        for n in [1usize, 2, 3, 4, 5, 8] {
            let r = router(n);
            let cols = r.n_cols();
            for col in 0..cols {
                let legacy = (col * n / cols).min(n - 1);
                assert_eq!(
                    r.shard_of_col(col),
                    legacy,
                    "col {col} of {cols} at {n} shards"
                );
            }
            assert_eq!(r.stripe_starts(), ShardRouter::uniform_starts(n, cols));
        }
    }

    #[test]
    fn disk_range_contains_every_point_shard() {
        let r = router(8);
        for cx in 0..100 {
            let center = Point::new(cx as f64 * 10.0, 500.0);
            let range = r.shards_within(center, 45.0);
            // Sample points of the disk; each must route into the range.
            for dx in [-45.0, -30.0, 0.0, 30.0, 45.0] {
                let s = r.shard_of(Point::new(center.x + dx, center.y));
                assert!(
                    range.contains(&s),
                    "point shard {s} outside range {range:?} at cx {cx}"
                );
            }
        }
    }

    #[test]
    fn interior_disks_stay_shard_local() {
        let r = router(4);
        // Stripe width is 250; a 30-radius disk at a stripe center
        // touches exactly one shard.
        let range = r.shards_within(Point::new(125.0, 500.0), 30.0);
        assert_eq!(range.clone().count(), 1);
        assert_eq!(range, 0..=0);
    }

    #[test]
    fn out_of_region_points_clamp_to_border_shards() {
        let r = router(4);
        assert_eq!(r.shard_of(Point::new(-1e6, 0.0)), 0);
        assert_eq!(r.shard_of(Point::new(1e6, 0.0)), 3);
    }

    #[test]
    fn more_shards_than_columns_still_routes() {
        // A tiny region with huge cells: cols is clamped up to n_shards
        // so every shard id stays reachable and routing stays total.
        let r = ShardRouter::new(
            8,
            100.0,
            BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0)),
        );
        let s = r.shard_of(Point::new(5.0, 5.0));
        assert!(s < 8);
        assert!(r.shards_within(Point::new(5.0, 5.0), 3.0).all(|i| i < 8));
    }

    #[test]
    fn with_layout_round_trips_and_validates() {
        let r = router(4);
        let again = ShardRouter::with_layout(
            r.cell_size(),
            r.origin_x(),
            r.n_cols(),
            r.stripe_starts().to_vec(),
        )
        .unwrap();
        assert_eq!(r, again);

        let bad = [
            ShardRouter::with_layout(0.0, 0.0, 8, vec![0, 4]),
            ShardRouter::with_layout(1.0, f64::NAN, 8, vec![0, 4]),
            ShardRouter::with_layout(1.0, 0.0, 8, vec![]),
            ShardRouter::with_layout(1.0, 0.0, 8, vec![1, 4]),
            ShardRouter::with_layout(1.0, 0.0, 8, vec![0, 4, 4]),
            ShardRouter::with_layout(1.0, 0.0, 8, vec![0, 8]),
        ];
        assert!(bad.iter().all(Result::is_err));
    }

    #[test]
    fn balanced_starts_split_skewed_mass() {
        // 16 columns, all mass concentrated in columns 10..14.
        let mut mass = vec![0u64; 16];
        for (c, m) in [(10usize, 40u64), (11, 40), (12, 40), (13, 40)] {
            mass[c] = m;
        }
        let starts = ShardRouter::balanced_starts(&mass, 4);
        let r = ShardRouter::with_layout(1.0, 0.0, 16, starts).unwrap();
        // Each hot column gets its own shard.
        let shards: Vec<usize> = (10..14).map(|c| r.shard_of_col(c)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        assert_ne!(r.stripe_starts(), ShardRouter::uniform_starts(4, 16));
    }

    #[test]
    fn balanced_starts_degenerate_to_uniform_without_mass() {
        let starts = ShardRouter::balanced_starts(&[0; 12], 3);
        assert_eq!(starts, vec![0, 4, 8]);
    }

    #[test]
    fn balanced_starts_keep_every_stripe_nonempty() {
        // All mass in the last column: earlier stripes still get one
        // column each and routing stays total and monotone.
        let mut mass = vec![0u64; 8];
        mass[7] = 1000;
        let starts = ShardRouter::balanced_starts(&mass, 4);
        let r = ShardRouter::with_layout(1.0, 0.0, 8, starts).unwrap();
        let mut last = 0;
        for c in 0..8 {
            let s = r.shard_of_col(c);
            assert!(s >= last && s < 4);
            last = s;
        }
        assert_eq!(r.shard_of_col(7), 3, "the hot column lands on one shard");
    }

    #[test]
    fn rebalanced_layout_can_extend_past_the_region() {
        // Mass observed beyond the original extent gets real columns once
        // the caller lays the router out over the wider range.
        let r = ShardRouter::with_layout(10.0, -50.0, 20, vec![0, 5, 10, 15]).unwrap();
        assert_eq!(r.origin_x(), -50.0);
        assert_eq!(r.column_of(-50.0), 0);
        assert_eq!(r.column_of(149.0), 19);
        assert_eq!(r.shard_of(Point::new(149.0, 0.0)), 3);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(
            0,
            1.0,
            BoundingBox::new(Point::ORIGIN, Point::new(1.0, 1.0)),
        );
    }
}
