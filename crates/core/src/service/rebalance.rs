//! Load-aware stripe rebalancing: re-splits the router's tile columns by
//! observed live-task mass and migrates live tasks between shard engines
//! — exactly, in place, touching only what moves.
//!
//! Spatial striping is chosen once, from the declared region; a drifting
//! or skewed workload then piles live tasks into a few columns (or into
//! the clamped border column, for out-of-region drift) and one shard
//! absorbs most of the load. Rebalancing fixes both at once:
//!
//! 1. the tiled extent is **re-laid-out** over the live tasks' actual
//!    x-range (union of the declared region and every live task), so
//!    out-of-region mass gets real columns instead of sharing the border
//!    column, and
//! 2. the columns are **re-striped** by live-task mass
//!    ([`ShardRouter::balanced_starts`]), so each shard owns roughly
//!    `1/n` of the remaining work.
//!
//! A rebalance is three round trips to the shards ([`Migration`]):
//!
//! 1. **plan** — every shard reports its live tasks' x coordinates, and
//!    the new router is cut from those alone; an unchanged layout ends
//!    the rebalance there;
//! 2. **emigrate** — every shard splits off each live task whose stripe
//!    changed, with its accumulated quality ([`Shard::emigrate`]); a
//!    completed task is in no shard, so there is nothing of it to move;
//! 3. **immigrate** — the service routes the emigrants to their new
//!    shards ([`route`]), and every shard takes its arrivals in, puts
//!    its tasks back in id order, then re-lays its spatial index over
//!    the region plus its live tasks ([`Shard::immigrate`]).
//!
//! A task keeps its service-global id through a migration: no step
//! renumbers a task, and the service keeps no per-task record to
//! update. Decisions depend on ids only,
//! never on which shard holds a task, so a rebalance never changes a
//! decision; it only changes *which shard* makes it (and how much work
//! each shard holds). No decision history moves either: engines keep
//! none, and the session's assignment counters live in the service
//! state, which a rebalance does not touch. Each shard still keeps its
//! tasks in ascending id order, the order a fresh build would give
//! them, so the result equals a rebuild of every engine from its
//! migrated [`EngineState`]; the `reference` module keeps that rebuild
//! as the test oracle.
//!
//! Both front-ends run the same [`ServiceState::rebalance`] over the same
//! [`Shard`] methods: the synchronous facade calls them on the caller's
//! thread ([`LtcService::rebalance`]), the pipelined handle sends them to
//! the shard threads at a drained quiesce point
//! ([`ServiceHandle::rebalance`]), announcing
//! [`Lifecycle::Rebalanced`](super::Lifecycle::Rebalanced) to
//! subscribers. WAL recovery replays rebalances through the handle.
//!
//! [`EngineState`]: crate::engine::EngineState
//! [`ServiceState::rebalance`]: super::state::ServiceState::rebalance
//! [`LtcService::rebalance`]: super::LtcService::rebalance
//! [`ServiceHandle::rebalance`]: super::ServiceHandle::rebalance

use super::shard::Shard;
use super::ServiceError;
use crate::engine::Migrants;
use ltc_spatial::{BoundingBox, ShardRouter};

#[cfg(test)]
mod reference;

/// Upper bound on routing columns after an extent extension (the same
/// defense as `GridIndex`'s cell cap): wider extents coarsen the routing
/// tile instead of allocating unbounded per-column mass counters.
const MAX_ROUTER_COLS: usize = 1 << 16;

/// What a completed rebalance did, returned by
/// [`LtcService::rebalance`](super::LtcService::rebalance) /
/// [`ServiceHandle::rebalance`](super::ServiceHandle::rebalance).
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOutcome {
    /// Live tasks whose shard changed (completed tasks are in no shard
    /// and never move).
    pub moved_tasks: u64,
    /// Live (uncompleted) tasks per shard *after* the rebalance.
    pub live_loads: Vec<u64>,
    /// The new stripe start columns (see
    /// [`ShardRouter::stripe_starts`]).
    pub stripe_starts: Vec<usize>,
}

impl RebalanceOutcome {
    /// The heaviest shard's live-task load.
    pub fn max_load(&self) -> u64 {
        self.live_loads.iter().copied().max().unwrap_or(0)
    }

    /// Mean live-task load per shard.
    pub fn mean_load(&self) -> f64 {
        if self.live_loads.is_empty() {
            return 0.0;
        }
        self.live_loads.iter().sum::<u64>() as f64 / self.live_loads.len() as f64
    }

    /// `max_load / mean_load` — the skew measure rebalancing minimizes
    /// (1.0 = perfectly even; `NaN`-free: 0.0 when nothing is live).
    pub fn max_mean_ratio(&self) -> f64 {
        let mean = self.mean_load();
        if mean == 0.0 {
            0.0
        } else {
            self.max_load() as f64 / mean
        }
    }
}

/// A persisted non-uniform router layout — the snapshot `stripes` record
/// (see `docs/SNAPSHOT_FORMAT.md`). Absent from snapshots whose router
/// still has the default equal-width layout over the declared region.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeLayout {
    /// Routing tile width (may be coarser than the service cell size
    /// after an extent extension).
    pub cell_size: f64,
    /// Left edge of the tiled extent (may lie left of the declared
    /// region after a rebalance extended it).
    pub origin_x: f64,
    /// Total tile columns.
    pub cols: usize,
    /// Stripe start column per shard.
    pub starts: Vec<usize>,
}

impl StripeLayout {
    /// Captures a router's layout.
    pub fn of(router: &ShardRouter) -> Self {
        Self {
            cell_size: router.cell_size(),
            origin_x: router.origin_x(),
            cols: router.n_cols(),
            starts: router.stripe_starts().to_vec(),
        }
    }

    /// Rebuilds the router (validating the layout invariants).
    pub fn into_router(self) -> Result<ShardRouter, &'static str> {
        ShardRouter::with_layout(self.cell_size, self.origin_x, self.cols, self.starts)
    }
}

/// The load-balanced router for a live-task x distribution: tiled
/// extent = `region ∪ live_xs` (coarsening past the column cap),
/// stripes cut by per-column mass.
pub(crate) fn balanced_router(
    region: BoundingBox,
    router: &ShardRouter,
    live_xs: &[f64],
) -> ShardRouter {
    let n_shards = router.n_shards();
    let mut x_lo = region.min.x;
    let mut x_hi = region.max.x;
    for &x in live_xs {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
    }
    // Coarsen the routing tile until the extent fits the column cap.
    // The cap comparison happens in f64 — casting an astronomically
    // large quotient to usize first would saturate and the `+ 1` would
    // overflow (a single poisoned far-away task must coarsen the tile,
    // not crash the service).
    let mut rcell = router.cell_size();
    let cols = loop {
        let fcols = ((x_hi - x_lo) / rcell).floor();
        if fcols < MAX_ROUTER_COLS as f64 {
            break (fcols as usize + 1).max(n_shards);
        }
        rcell *= 2.0;
    };
    let col_of = |x: f64| (((x - x_lo) / rcell).floor().max(0.0) as usize).min(cols - 1);
    let mut mass = vec![0u64; cols];
    for &x in live_xs {
        mass[col_of(x)] += 1;
    }
    let starts = ShardRouter::balanced_starts(&mass, n_shards);
    ShardRouter::with_layout(rcell, x_lo, cols, starts)
        .expect("balanced_starts satisfies the layout invariants")
}

/// The shard side of a rebalance, as a front-end reaches its shards:
/// the facade calls the [`Shard`] methods inline, the handle sends them
/// to the shard threads (which run them in parallel).
pub(crate) trait Migration {
    /// Every shard's live-task x coordinates, in any order.
    fn live_xs(&mut self) -> Result<Vec<f64>, ServiceError>;

    /// Every shard's emigrating live tasks under `router`
    /// ([`Shard::emigrate`]), in shard order.
    fn emigrate(&mut self, router: &ShardRouter) -> Result<Vec<Migrants>, ServiceError>;

    /// Hands every shard its arrivals ([`Shard::immigrate`]); returns the
    /// live-task loads in shard order.
    fn immigrate(
        &mut self,
        arrivals: Vec<Migrants>,
        region: BoundingBox,
    ) -> Result<Vec<u64>, ServiceError>;
}

impl Migration for [Shard] {
    fn live_xs(&mut self) -> Result<Vec<f64>, ServiceError> {
        let mut xs = Vec::new();
        for shard in self.iter() {
            shard.live_xs(&mut xs);
        }
        Ok(xs)
    }

    fn emigrate(&mut self, router: &ShardRouter) -> Result<Vec<Migrants>, ServiceError> {
        Ok(self
            .iter_mut()
            .enumerate()
            .map(|(s, shard)| shard.emigrate(s, router))
            .collect())
    }

    fn immigrate(
        &mut self,
        arrivals: Vec<Migrants>,
        region: BoundingBox,
    ) -> Result<Vec<u64>, ServiceError> {
        Ok(self
            .iter_mut()
            .zip(&arrivals)
            .map(|(shard, arrivals)| shard.immigrate(arrivals, region))
            .collect())
    }
}

/// Routes every shard's emigrants to their shards under `router`:
/// returns each shard's arrivals, and how many tasks moved.
pub(crate) fn route(router: &ShardRouter, emigrants: Vec<Migrants>) -> (Vec<Migrants>, u64) {
    let mut arrivals: Vec<Migrants> = emigrants.iter().map(|_| Migrants::default()).collect();
    let mut moved = 0;
    for e in &emigrants {
        for m in &e.tasks {
            arrivals[router.shard_of(m.task.loc)].tasks.push(*m);
            moved += 1;
        }
    }
    (arrivals, moved)
}

#[cfg(test)]
mod tests {
    use super::reference::rebalanced;
    use crate::model::{ProblemParams, Task, Worker};
    use crate::service::state::ServiceSnapshot;
    use crate::service::{Algorithm, LtcService, ServiceBuilder, ServiceHandle};
    use ltc_spatial::{BoundingBox, Point};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::num::NonZeroUsize;

    fn region() -> BoundingBox {
        BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
    }

    /// What the rebalances of one session exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        /// `moved[to a higher shard]`.
        moved: [bool; 2],
        no_op: bool,
        empty_shard: bool,
        beyond_region: bool,
        coarse_tile: bool,
    }

    impl Coverage {
        fn note(&mut self, before: &ServiceSnapshot, after: &ServiceSnapshot) {
            let shard_of = |snap: &ServiceSnapshot| {
                let mut shard_of = BTreeMap::new();
                for (s, e) in snap.engines.iter().enumerate() {
                    for id in &e.ids {
                        shard_of.insert(*id, s);
                    }
                }
                shard_of
            };
            let (from, to) = (shard_of(before), shard_of(after));
            assert!(from.keys().eq(to.keys()), "a rebalance keeps the live set");
            for (os, ns) in from.values().zip(to.values()) {
                if os != ns {
                    self.moved[(ns > os) as usize] = true;
                }
            }
            self.empty_shard |= after.engines.iter().any(|e| e.tasks.is_empty());
            if let Some(l) = &after.stripes {
                let r = before.region;
                self.beyond_region |= l.origin_x < r.min.x
                    || l.origin_x + l.cols as f64 * l.cell_size > r.max.x + l.cell_size;
                self.coarse_tile |= l.cell_size > before.cell_size;
            }
        }
    }

    /// What an engine derives from its durable state, which a snapshot
    /// does not show: the worker-unit statistics, the uncompleted set in
    /// its iteration order, and the index's clamp telemetry.
    type Derived = ((f64, f64), Vec<u32>, u64);

    fn derived(service: &LtcService) -> Vec<Derived> {
        service
            .shards()
            .iter()
            .map(|s| {
                let e = &s.engine;
                (
                    e.remaining_units(),
                    e.uncompleted_tasks().map(|t| t.0).collect(),
                    e.index_clamped_insertions(),
                )
            })
            .collect()
    }

    /// One session served three ways: `live` rebalances in place,
    /// `oracle` is rebuilt from the reference's snapshot at every
    /// rebalance, and `handle` rebalances in place on its shard threads.
    struct Twins {
        live: LtcService,
        oracle: LtcService,
        handle: ServiceHandle,
        seen: Coverage,
    }

    impl Twins {
        fn new(n_shards: usize, algorithm: Algorithm, grow: Option<u64>) -> Self {
            let params = ProblemParams::builder()
                .epsilon(0.25)
                .capacity(2)
                .d_max(30.0)
                .build()
                .unwrap();
            let builder = || {
                let b = ServiceBuilder::new(params, region())
                    .algorithm(algorithm)
                    .shards(NonZeroUsize::new(n_shards).unwrap());
                match grow {
                    Some(n) => b.grow_index_after(n),
                    None => b,
                }
            };
            Self {
                live: builder().build().unwrap(),
                oracle: builder().build().unwrap(),
                handle: builder().start().unwrap(),
                seen: Coverage::default(),
            }
        }

        fn post(&mut self, task: Task) {
            let id = self.live.post_task(task).unwrap();
            assert_eq!(self.oracle.post_task(task).unwrap(), id);
            assert_eq!(self.handle.post_task(task).unwrap(), id);
        }

        fn check_in(&mut self, worker: &Worker) {
            let events = self.live.check_in(worker);
            assert_eq!(self.oracle.check_in(worker), events, "{worker:?}");
            self.handle.submit_worker(worker).unwrap();
        }

        fn rebalance(&mut self) {
            let before = self.oracle.snapshot();
            assert_eq!(self.live.snapshot(), before);
            let expect = rebalanced(&before).unwrap();
            let got = self.live.rebalance().unwrap();
            assert_eq!(self.handle.rebalance().unwrap(), got);
            match expect {
                None => {
                    self.seen.no_op = true;
                    assert_eq!(got, None);
                    assert_eq!(self.live.snapshot(), before);
                }
                Some((after, outcome)) => {
                    self.seen.note(&before, &after);
                    assert_eq!(got, Some(outcome));
                    assert_eq!(self.live.snapshot(), after);
                    assert_eq!(self.handle.snapshot().unwrap(), after);
                    self.oracle = LtcService::restore(after).unwrap();
                    assert_eq!(derived(&self.live), derived(&self.oracle));
                }
            }
        }

        /// 200 more check-ins over the whole area, then a last
        /// comparison of the three services' states.
        fn finish(mut self, rng: &mut Rng) -> Coverage {
            for _ in 0..200 {
                let at = Point::new(rng.range(-400.0, 1600.0), rng.range(0.0, 1000.0));
                self.check_in(&Worker::new(at, rng.range(0.7, 0.99)));
            }
            let end = self.live.snapshot();
            assert_eq!(self.oracle.snapshot(), end);
            assert_eq!(derived(&self.live), derived(&self.oracle));
            assert_eq!(self.handle.snapshot().unwrap(), end);
            self.handle.close().unwrap();
            self.seen
        }
    }

    /// A small deterministic generator (xorshift).
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    /// One step of a generated session.
    #[derive(Debug, Clone)]
    enum Step {
        /// `tasks` posts within 40 of `(x, y)`, then `workers` check-ins
        /// near it (completing some of them).
        Burst {
            x: f64,
            y: f64,
            tasks: usize,
            workers: usize,
        },
        /// One task so far out that the routing tile coarsens to fit it.
        Far,
        Rebalance,
    }

    fn run(twins: &mut Twins, steps: &[Step], rng: &mut Rng) {
        for step in steps {
            match *step {
                Step::Burst {
                    x,
                    y,
                    tasks,
                    workers,
                } => {
                    for _ in 0..tasks {
                        let at = Point::new(x + rng.range(-40.0, 40.0), y + rng.range(-40.0, 40.0));
                        twins.post(Task::new(at));
                    }
                    for _ in 0..workers {
                        let at = Point::new(x + rng.range(-30.0, 30.0), y + rng.range(-30.0, 30.0));
                        twins.check_in(&Worker::new(at, rng.range(0.8, 0.99)));
                    }
                }
                Step::Far => twins.post(Task::new(Point::new(5.0e6, 500.0))),
                Step::Rebalance => twins.rebalance(),
            }
        }
    }

    fn burst(x: f64, y: f64) -> Step {
        Step::Burst {
            x,
            y,
            tasks: 24,
            workers: 40,
        }
    }

    #[test]
    fn in_place_rebalance_equals_the_full_rebuild_in_every_case() {
        use Step::Rebalance;
        let steps = [
            burst(480.0, 500.0),
            Rebalance,
            burst(120.0, 300.0),
            burst(880.0, 700.0),
            Rebalance,
            burst(1350.0, 600.0),
            Rebalance,
            burst(-250.0, 200.0),
            burst(490.0, 500.0),
            Rebalance,
            Step::Far,
            burst(700.0, 400.0),
            Rebalance,
            Rebalance,
        ];
        for n_shards in [2, 3, 4] {
            let mut twins = Twins::new(n_shards, Algorithm::Laf, Some(8));
            let mut rng = Rng(0x5EED + n_shards as u64);
            run(&mut twins, &steps, &mut rng);
            let seen = twins.finish(&mut rng);
            assert_eq!(seen.moved, [true; 2], "{n_shards} shards: {seen:?}");
            assert!(seen.no_op, "{n_shards} shards: {seen:?}");
            assert!(seen.beyond_region, "{n_shards} shards: {seen:?}");
            assert!(seen.coarse_tile, "{n_shards} shards: {seen:?}");
            if n_shards == 4 {
                assert!(seen.empty_shard, "{seen:?}");
            }
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        (
            0u8..10,
            -400.0..1600.0f64,
            0.0..1000.0f64,
            0usize..25,
            0usize..40,
        )
            .prop_map(|(which, x, y, tasks, workers)| match which {
                0..=5 => Step::Burst {
                    x,
                    y,
                    tasks,
                    workers,
                },
                6 => Step::Far,
                _ => Step::Rebalance,
            })
    }

    fn algorithm() -> impl Strategy<Value = Algorithm> {
        (0u8..3, any::<u64>()).prop_map(|(which, seed)| match which {
            0 => Algorithm::Laf,
            1 => Algorithm::Aam,
            _ => Algorithm::Random { seed },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn in_place_rebalance_equals_the_full_rebuild(
            n_shards in 2usize..=4,
            algorithm in algorithm(),
            grow in 0u64..32,
            steps in prop::collection::vec(step(), 1..14),
            seed in 1u64..u64::MAX,
        ) {
            let mut twins = Twins::new(n_shards, algorithm, (grow > 0).then_some(grow));
            let mut rng = Rng(seed);
            run(&mut twins, &steps, &mut rng);
            twins.rebalance();
            twins.finish(&mut rng);
        }
    }
}
