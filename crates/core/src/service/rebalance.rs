//! Load-aware stripe rebalancing: re-splits the router's tile columns by
//! observed live-task mass and migrates tasks between shard engines —
//! exactly.
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
//! Migration is exact: every task (live or completed) moves with its
//! accumulated quality, completion flag, and committed assignments,
//! through the same [`EngineState`] representation snapshots use. Within
//! each rebuilt shard, tasks keep **ascending global-id order** — the
//! invariant that makes shard-local tie-breaks match global ones, on
//! which the N-shard ≡ 1-shard differential guarantee rests. A rebalance
//! therefore never changes a decision; it only changes *which shard*
//! makes it (and how much work each shard holds).
//!
//! Both front-ends apply the same [`plan_rebalance`]: the synchronous
//! facade on the caller's thread ([`LtcService::rebalance`]), the
//! pipelined handle at a drained quiesce point
//! ([`ServiceHandle::rebalance`]), announcing
//! [`Lifecycle::Rebalanced`](super::Lifecycle::Rebalanced) to
//! subscribers.
//!
//! [`LtcService::rebalance`]: super::LtcService::rebalance
//! [`ServiceHandle::rebalance`]: super::ServiceHandle::rebalance

use super::ServiceError;
use crate::engine::EngineState;
use crate::model::{AccuracyModel, Assignment, Task, TaskId};
use ltc_spatial::{BoundingBox, ShardRouter};

/// Upper bound on routing columns after an extent extension (the same
/// defense as `GridIndex`'s cell cap): wider extents coarsen the routing
/// tile instead of allocating unbounded per-column mass counters.
const MAX_ROUTER_COLS: usize = 1 << 16;

/// What a completed rebalance did, returned by
/// [`LtcService::rebalance`](super::LtcService::rebalance) /
/// [`ServiceHandle::rebalance`](super::ServiceHandle::rebalance).
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOutcome {
    /// Tasks whose owning shard changed (live and completed — completed
    /// tasks migrate too, carrying their assignment history).
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

/// Everything a rebalance changes, computed pure so both front-ends can
/// apply it atomically (build every engine first, then commit).
pub(crate) struct RebalancePlan {
    pub(crate) router: ShardRouter,
    pub(crate) task_map: Vec<(u32, u32)>,
    pub(crate) engines: Vec<EngineState>,
    pub(crate) globals: Vec<Vec<u32>>,
    pub(crate) outcome: RebalanceOutcome,
}

/// The load-balanced router for a live-task x distribution: tiled
/// extent = `region ∪ live_xs` (coarsening past the column cap),
/// stripes cut by per-column mass.
fn balanced_router(region: BoundingBox, router: &ShardRouter, live_xs: &[f64]) -> ShardRouter {
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

/// Plans a load-aware rebalance over quiesced shard states. Returns
/// `Ok(None)` when rebalancing is a no-op: a single shard, a tabular
/// accuracy model, or a computed stripe layout identical to the current
/// one (including the empty-pool case).
pub(crate) fn plan_rebalance(
    region: BoundingBox,
    router: &ShardRouter,
    task_map: &[(u32, u32)],
    states: &[EngineState],
) -> Result<Option<RebalancePlan>, ServiceError> {
    let n_shards = states.len();
    if n_shards <= 1 {
        return Ok(None);
    }
    // Tabular models are restricted to one shard at build/restore time;
    // a multi-shard table here would mean corrupt state.
    if states
        .iter()
        .any(|st| matches!(st.accuracy, AccuracyModel::Table(_)))
    {
        return Err(ServiceError::TabularNeedsSingleShard);
    }

    let live_xs: Vec<f64> = states
        .iter()
        .flat_map(|st| {
            st.tasks
                .iter()
                .zip(&st.completed)
                .filter(|&(_, &done)| !done)
                .map(|(t, _)| t.loc.x)
        })
        .collect();
    let new_router = balanced_router(region, router, &live_xs);
    if new_router == *router {
        return Ok(None);
    }

    // Rebuild the old local→global maps from the task map (validating it
    // on the way — the states came over a channel, be defensive).
    let mut old_globals: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    for (g, &(s, local)) in task_map.iter().enumerate() {
        let s = s as usize;
        if s >= n_shards
            || local as usize != old_globals[s].len()
            || states[s].tasks.len() <= local as usize
        {
            return Err(ServiceError::BadSnapshot(
                "rebalance found an inconsistent task map",
            ));
        }
        old_globals[s].push(g as u32);
    }

    // Repartition every task in ascending global order, preserving the
    // local-order-follows-global-order invariant per shard.
    let n_global = task_map.len();
    let mut new_task_map = Vec::with_capacity(n_global);
    let mut tasks: Vec<Vec<Task>> = vec![Vec::new(); n_shards];
    let mut quality: Vec<Vec<f64>> = vec![Vec::new(); n_shards];
    let mut completed: Vec<Vec<bool>> = vec![Vec::new(); n_shards];
    let mut globals: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    let mut live_loads = vec![0u64; n_shards];
    let mut moved_tasks = 0u64;
    for (g, &(os, ol)) in task_map.iter().enumerate() {
        let (os, ol) = (os as usize, ol as usize);
        let st = &states[os];
        let task = st.tasks[ol];
        let ns = new_router.shard_of(task.loc);
        if ns != os {
            moved_tasks += 1;
        }
        new_task_map.push((ns as u32, tasks[ns].len() as u32));
        globals[ns].push(g as u32);
        tasks[ns].push(task);
        quality[ns].push(st.s[ol]);
        let done = st.completed[ol];
        completed[ns].push(done);
        if !done {
            live_loads[ns] += 1;
        }
    }

    // Migrate the committed assignments with their tasks, restoring the
    // canonical commit order (worker arrival, then ascending global id)
    // inside each destination shard.
    let mut assignments: Vec<Vec<(u64, u32, Assignment)>> = vec![Vec::new(); n_shards];
    for (os, st) in states.iter().enumerate() {
        for a in &st.assignments {
            let Some(&g) = old_globals[os].get(a.task.index()) else {
                return Err(ServiceError::BadSnapshot(
                    "rebalance found an assignment to an unknown task",
                ));
            };
            let (ns, nl) = new_task_map[g as usize];
            assignments[ns as usize].push((
                a.worker.0,
                g,
                Assignment {
                    task: TaskId(nl),
                    ..*a
                },
            ));
        }
    }

    let mut engines = Vec::with_capacity(n_shards);
    for (i, st) in states.iter().enumerate() {
        let mut moved = std::mem::take(&mut assignments[i]);
        moved.sort_unstable_by_key(|&(w, g, _)| (w, g));
        let shard_tasks = std::mem::take(&mut tasks[i]);
        // Size each rebuilt index over the declared region plus the
        // shard's own live tasks, so migrated-in out-of-region work does
        // not clamp.
        let index_geometry = st.index_geometry.map(|(cs, _)| {
            let live = BoundingBox::of_points(
                shard_tasks
                    .iter()
                    .zip(&completed[i])
                    .filter(|&(_, &done)| !done)
                    .map(|(t, _)| t.loc),
            );
            (cs, live.map_or(region, |l| region.union(l)))
        });
        engines.push(EngineState {
            params: st.params,
            accuracy: st.accuracy.clone(),
            tasks: shard_tasks,
            s: std::mem::take(&mut quality[i]),
            completed: std::mem::take(&mut completed[i]),
            assignments: moved.into_iter().map(|(_, _, a)| a).collect(),
            next_arrival: st.next_arrival,
            index_geometry,
            // Clamp telemetry is per-shard index history, not per-task
            // state: the cumulative counter stays with its shard (so the
            // service-wide sum survives the migration), and the rebuilt
            // index — freshly laid out over the live tasks — re-arms the
            // growth threshold exactly like an adaptive growth would.
            clamped_insertions: st.clamped_insertions,
            clamp_mark: st.clamped_insertions,
        });
    }

    Ok(Some(RebalancePlan {
        outcome: RebalanceOutcome {
            moved_tasks,
            live_loads,
            stripe_starts: new_router.stripe_starts().to_vec(),
        },
        router: new_router,
        task_map: new_task_map,
        engines,
        globals,
    }))
}
