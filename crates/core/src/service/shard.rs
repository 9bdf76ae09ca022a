//! The per-shard unit of work shared by the synchronous facade and the
//! pipelined runtime: one engine over a task subset, its policy
//! instance, the local→global id map, and the propose/merge/commit
//! helpers both front-ends drive so their decisions are identical by
//! construction.

use super::{Event, Policy};
use crate::engine::{splice_in, AssignmentEngine, Candidate, EngineState, MovedTask};
use crate::model::{Assignment, Task, TaskId, Worker, WorkerId};
use ltc_spatial::{BoundingBox, ShardRouter};

/// One spatial shard: a full engine over its task subset, its policy
/// instance, and the local→global id map.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) engine: AssignmentEngine,
    pub(crate) policy: Policy,
    /// `globals[local] = global` task id. Strictly increasing: within a
    /// shard, local insertion order follows global posting order (the
    /// property that makes local tie-breaks match global ones).
    pub(crate) globals: Vec<u32>,
    /// Adaptive-index policy knob
    /// ([`ServiceBuilder::grow_index_after`](super::ServiceBuilder::grow_index_after)):
    /// grow this shard's spatial index once that many insertions clamped
    /// since the last growth. `None` keeps the PR-3 fixed-extent
    /// behavior.
    pub(crate) grow_clamps: Option<u64>,
}

/// One shard's contribution to a snapshot.
pub(crate) struct ShardState {
    pub(crate) engine: EngineState,
    pub(crate) rng_draws: Option<u64>,
}

/// One shard's contribution to [`ServiceMetrics`](super::ServiceMetrics).
pub(crate) struct ShardMetrics {
    /// Cumulative border-clamp counter of the shard's spatial index.
    pub(crate) clamped: u64,
    /// Live (uncompleted) tasks the shard currently holds.
    pub(crate) live: u64,
}

/// Tasks crossing between shards in a stripe rebalance, in ascending
/// global-id order: what one shard sends ([`Shard::emigrate`]) or
/// receives ([`Shard::immigrate`]).
#[derive(Debug, Default)]
pub(crate) struct Migrants {
    /// Each task's service-global id.
    pub(crate) globals: Vec<u32>,
    /// Each task's durable state.
    pub(crate) tasks: Vec<MovedTask>,
    /// The tasks' committed assignments in (worker arrival, global id)
    /// order, each addressed to its task's index in the vectors above.
    pub(crate) assignments: Vec<Assignment>,
}

/// Reusable buffers for [`Shard::propose`] (candidate enumeration and
/// policy picks), so the hot path allocates nothing per worker.
#[derive(Debug, Default)]
pub(crate) struct ProposeScratch {
    cand: Vec<Candidate>,
    picks: Vec<TaskId>,
}

/// One shard's candidate pick for a worker, lifted to global ids so
/// cross-shard merging can rank and commit it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Proposal {
    /// Service-global task id.
    pub(crate) global: u32,
    /// The task's id inside its owning shard.
    pub(crate) local: TaskId,
    /// The owning shard.
    pub(crate) shard: usize,
    /// The candidate record (accuracy + contribution) backing the pick.
    pub(crate) cand: Candidate,
}

impl Shard {
    /// Appends a task the service already admitted (with the engine's
    /// own checks), then applies the adaptive-index policy: grow the
    /// spatial index once the configured clamp threshold is crossed
    /// (decision-neutral; see [`AssignmentEngine::maybe_grow_index`]).
    /// Every post runs this, so growth points depend only on the
    /// submission sequence, never on scheduling.
    pub(crate) fn post(&mut self, global: TaskId, task: Task, accuracies: Option<&[f64]>) {
        let local = match accuracies {
            Some(row) => self.engine.add_task_with_accuracies(task, row),
            None => self.engine.add_task(task),
        }
        .expect("admission validates posts with the engine's checks");
        debug_assert_eq!(local.index(), self.globals.len());
        self.globals.push(global.0);
        if let Some(threshold) = self.grow_clamps {
            self.engine.maybe_grow_index(threshold);
        }
    }

    /// The shard's durable state.
    pub(crate) fn state(&self) -> ShardState {
        ShardState {
            engine: self.engine.to_state(),
            rng_draws: self.policy.rng_draws(),
        }
    }

    /// Appends the x coordinate of every live task (in no particular
    /// order) — what a rebalance cuts its stripes by.
    pub(crate) fn live_xs(&self, out: &mut Vec<f64>) {
        let tasks = self.engine.tasks();
        out.extend(
            self.engine
                .uncompleted_tasks()
                .map(|t| tasks[t.index()].loc.x),
        );
    }

    /// Removes every task, live or completed, that `router` places on
    /// another shard, and returns them with their state and assignments.
    /// The tasks that stay are renumbered in place; the shard is whole
    /// again once [`Shard::immigrate`] has run.
    pub(crate) fn emigrate(&mut self, shard_id: usize, router: &ShardRouter) -> Migrants {
        let mut out = Migrants::default();
        let mut leaving = Vec::new();
        for (local, task) in self.engine.tasks().iter().enumerate() {
            if router.shard_of(task.loc) != shard_id {
                leaving.push(local as u32);
                out.globals.push(self.globals[local]);
            }
        }
        if !leaving.is_empty() {
            self.engine
                .split_off(&leaving, &mut out.tasks, &mut out.assignments);
            let mut next_leaving = leaving.iter().copied().peekable();
            let mut local = 0;
            self.globals.retain(|_| {
                let leaves = next_leaving.next_if_eq(&local).is_some();
                local += 1;
                !leaves
            });
        }
        out
    }

    /// Inserts `arrivals` at their places in ascending global-id order
    /// and re-lays the spatial index over `region` plus the live tasks.
    /// Runs on every shard in a rebalance, arrivals or not. Returns the
    /// shard's live-task count.
    pub(crate) fn immigrate(&mut self, arrivals: &Migrants, region: BoundingBox) -> u64 {
        let globals = &self.globals;
        let before: Vec<u32> = arrivals
            .globals
            .iter()
            .map(|g| globals.partition_point(|x| x < g) as u32)
            .collect();
        self.engine
            .merge_in(&before, &arrivals.tasks, &arrivals.assignments, region);
        splice_in(&mut self.globals, &before, |j| arrivals.globals[j]);
        self.engine.n_uncompleted() as u64
    }

    /// The shard's live operational counters.
    pub(crate) fn metrics(&self) -> ShardMetrics {
        ShardMetrics {
            clamped: self.engine.index_clamped_insertions(),
            live: self.engine.n_uncompleted() as u64,
        }
    }

    /// Serves one worker entirely shard-locally (the worker's disk lies
    /// inside this shard's stripe) under the global arrival id `w`.
    pub(crate) fn check_in_local(&mut self, w: WorkerId, worker: &Worker, out: &mut Vec<Event>) {
        let batch = self.engine.push_worker_as(w, worker, self.policy.as_dyn());
        if batch.is_empty() {
            out.push(Event::WorkerIdle { worker: w });
            return;
        }
        for a in batch.iter() {
            let global = TaskId(self.globals[a.task.index()]);
            out.push(Event::Assigned {
                worker: w,
                task: global,
                acc: a.acc,
                gain: a.contribution,
            });
            if self.engine.is_completed(a.task) {
                out.push(Event::TaskCompleted {
                    task: global,
                    latency: w.arrival_index(),
                });
            }
        }
        // A task completes at most once and candidates exclude completed
        // tasks, so each TaskCompleted above fired on the assignment that
        // crossed δ — but only emit it once even if K > 1 assignments hit
        // the same task (impossible today: picks are deduped).
    }

    /// Asks this shard's policy for its picks for `worker` and appends
    /// them to `out` as globally-addressed [`Proposal`]s (at most `k`,
    /// deduplicated, in ascending global-id order). Appends nothing when
    /// the shard has no eligible uncompleted candidates.
    pub(crate) fn propose(
        &mut self,
        shard_id: usize,
        w: WorkerId,
        worker: &Worker,
        k: usize,
        scratch: &mut ProposeScratch,
        out: &mut Vec<Proposal>,
    ) {
        if self.engine.all_completed() {
            return;
        }
        let ProposeScratch { cand, picks } = scratch;
        self.engine.candidates(w, worker, cand);
        if cand.is_empty() {
            return;
        }
        picks.clear();
        self.policy.as_dyn().assign(&self.engine, w, cand, picks);
        picks.truncate(k);
        picks.sort_unstable();
        picks.dedup();
        for &t in picks.iter() {
            let Ok(i) = cand.binary_search_by_key(&t, |c| c.task) else {
                continue; // defensive: a pick outside the candidates
            };
            out.push(Proposal {
                global: self.globals[t.index()],
                local: t,
                shard: shard_id,
                cand: cand[i],
            });
        }
    }

    /// Installs the cross-shard worker-unit aggregate on a hybrid AAM
    /// policy before an `assign` call (no-op for other policies).
    pub(crate) fn set_hybrid_units(&mut self, units: (f64, f64)) {
        self.policy.set_global_units(units);
    }
}

/// The exact global worker-unit statistics `(Σ units, max units)` over a
/// shard set — what a single-engine AAM would read. Both terms are
/// integer-valued f64s, so the sum is exact below 2^53 in any order.
pub(crate) fn global_units(shards: &[Shard]) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for s in shards {
        let (u_sum, u_max) = s.engine.remaining_units();
        sum += u_sum;
        max = max.max(u_max);
    }
    (sum, max)
}

/// The documented cross-shard merge: rank proposals by gain
/// (contribution) descending with ties toward the smaller global task
/// id, keep the best `k`, and leave them in ascending global-id order —
/// the same commit order the engine uses.
pub(crate) fn merge_and_truncate(k: usize, proposals: &mut Vec<Proposal>) {
    proposals.sort_unstable_by(|a, b| {
        b.cand
            .contribution
            .partial_cmp(&a.cand.contribution)
            .expect("contributions are never NaN")
            .then_with(|| a.global.cmp(&b.global))
    });
    proposals.truncate(k);
    proposals.sort_unstable_by_key(|p| p.global);
}

/// Appends the event batch for a merge-path worker to `out`, from the
/// committed picks (ascending global order) and the set of tasks the
/// commits completed. Allocation-free when `out` has capacity.
pub(crate) fn append_merge_events(
    w: WorkerId,
    picks: &[Proposal],
    completed: &[u32],
    out: &mut Vec<Event>,
) {
    if picks.is_empty() {
        out.push(Event::WorkerIdle { worker: w });
        return;
    }
    out.reserve(picks.len() + completed.len());
    for p in picks {
        out.push(Event::Assigned {
            worker: w,
            task: TaskId(p.global),
            acc: p.cand.acc,
            gain: p.cand.contribution,
        });
        if completed.contains(&p.global) {
            out.push(Event::TaskCompleted {
                task: TaskId(p.global),
                latency: w.arrival_index(),
            });
        }
    }
}
