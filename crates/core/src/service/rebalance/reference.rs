//! The full-rebuild rebalance, kept as the oracle the in-place
//! migration is tested against: copy every shard's [`EngineState`],
//! repartition every live task in id order, then rebuild each engine with
//! [`AssignmentEngine::from_state`]. Test-only.

use super::{balanced_router, RebalanceOutcome, StripeLayout};
use crate::engine::{AssignmentEngine, EngineState};
use crate::model::{AccuracyModel, Task, TaskId};
use crate::service::state::ServiceSnapshot;
use crate::service::ServiceError;
use ltc_spatial::{BoundingBox, ShardRouter};

/// A service snapshot rebalanced by full rebuild: `Ok(None)` for a
/// no-op, else the rebalanced snapshot and what the rebalance did.
pub(crate) fn rebalanced(
    snapshot: &ServiceSnapshot,
) -> Result<Option<(ServiceSnapshot, RebalanceOutcome)>, ServiceError> {
    let n_shards = snapshot.engines.len();
    let uniform = ShardRouter::new(n_shards, snapshot.cell_size, snapshot.region);
    let router = match &snapshot.stripes {
        Some(layout) => layout.clone().into_router().expect("a valid layout"),
        None => uniform.clone(),
    };
    let Some(plan) = plan_rebalance(snapshot.region, &router, &snapshot.engines)? else {
        return Ok(None);
    };
    let engines = plan
        .engines
        .into_iter()
        .map(|state| AssignmentEngine::from_state(state).map(|e| e.to_state()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ServiceError::Engine)?;
    let rebalanced = ServiceSnapshot {
        stripes: (plan.router != uniform).then(|| StripeLayout::of(&plan.router)),
        engines,
        ..snapshot.clone()
    };
    Ok(Some((rebalanced, plan.outcome)))
}

/// Everything a rebalance changes.
struct RebalancePlan {
    router: ShardRouter,
    engines: Vec<EngineState>,
    outcome: RebalanceOutcome,
}

/// Plans a load-aware rebalance over quiesced shard states. Returns
/// `Ok(None)` when rebalancing is a no-op: a single shard, a tabular
/// accuracy model, or a computed stripe layout identical to the current
/// one (including the empty-pool case).
fn plan_rebalance(
    region: BoundingBox,
    router: &ShardRouter,
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
        .flat_map(|st| st.tasks.iter().map(|t| t.loc.x))
        .collect();
    let new_router = balanced_router(region, router, &live_xs);
    if new_router == *router {
        return Ok(None);
    }

    // Every live task with its old shard and slot, in ascending id order.
    let mut all: Vec<(TaskId, usize, usize)> = states
        .iter()
        .enumerate()
        .flat_map(|(s, st)| st.ids.iter().enumerate().map(move |(i, &id)| (id, s, i)))
        .collect();
    all.sort_unstable();

    // Repartition every live task in ascending id order, so each shard
    // holds its tasks in id order.
    let mut ids: Vec<Vec<TaskId>> = vec![Vec::new(); n_shards];
    let mut tasks: Vec<Vec<Task>> = vec![Vec::new(); n_shards];
    let mut quality: Vec<Vec<f64>> = vec![Vec::new(); n_shards];
    let mut moved_tasks = 0u64;
    for &(id, os, i) in &all {
        let st = &states[os];
        let task = st.tasks[i];
        let ns = new_router.shard_of(task.loc);
        if ns != os {
            moved_tasks += 1;
        }
        ids[ns].push(id);
        tasks[ns].push(task);
        quality[ns].push(st.s[i]);
    }
    let live_loads = ids.iter().map(|ids| ids.len() as u64).collect();

    let mut engines = Vec::with_capacity(n_shards);
    for (i, st) in states.iter().enumerate() {
        let shard_tasks = std::mem::take(&mut tasks[i]);
        // Size each rebuilt index over the declared region plus the
        // shard's own live tasks, so migrated-in out-of-region work does
        // not clamp.
        let index_geometry = st.index_geometry.map(|(cs, _)| {
            let live = BoundingBox::of_points(shard_tasks.iter().map(|t| t.loc));
            (cs, live.map_or(region, |l| region.union(l)))
        });
        engines.push(EngineState {
            params: st.params,
            accuracy: st.accuracy.clone(),
            ids: std::mem::take(&mut ids[i]),
            tasks: shard_tasks,
            s: std::mem::take(&mut quality[i]),
            next_id: st.next_id,
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
        engines,
    }))
}
