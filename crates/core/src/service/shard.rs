//! The per-shard unit of work shared by the synchronous facade and the
//! pipelined runtime: one engine over a task subset, its policy
//! instance, and the propose/merge/commit helpers both front-ends drive
//! so their decisions are identical by construction. A shard's engine
//! holds its tasks under their service-global ids, so everything it
//! produces names tasks the way the service does.

use super::{Event, Policy};
use crate::engine::{AssignmentEngine, Candidate, Migrants};
use crate::model::{Task, TaskId, Worker, WorkerId};
use crate::online::{OnlineAlgorithm, Pick};
use ltc_spatial::{BoundingBox, ShardRouter};

/// One spatial shard: a full engine over its task subset and its policy
/// instance.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) engine: AssignmentEngine,
    pub(crate) policy: Policy,
    /// Adaptive-index policy knob
    /// ([`ServiceBuilder::grow_index_after`](super::ServiceBuilder::grow_index_after)):
    /// grow this shard's spatial index once that many insertions clamped
    /// since the last growth. `None` keeps the PR-3 fixed-extent
    /// behavior.
    pub(crate) grow_clamps: Option<u64>,
}

/// One shard's contribution to [`ServiceMetrics`](super::ServiceMetrics).
pub(crate) struct ShardMetrics {
    /// Cumulative border-clamp counter of the shard's spatial index.
    pub(crate) clamped: u64,
    /// Live (uncompleted) tasks the shard currently holds.
    pub(crate) live: u64,
}

/// Reusable buffers for [`Shard::propose`] (candidate enumeration and
/// policy picks), so the hot path allocates nothing per worker.
#[derive(Debug, Default)]
pub(crate) struct ProposeScratch {
    cand: Vec<Candidate>,
    picks: Vec<Pick>,
}

/// One shard's candidate pick for a worker, which cross-shard merging
/// ranks and commits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Proposal {
    /// The owning shard.
    pub(crate) shard: usize,
    /// The key the shard's policy ranked the task by.
    pub(crate) key: f64,
    /// The candidate record (task, accuracy, contribution) backing the
    /// pick.
    pub(crate) cand: Candidate,
}

impl Shard {
    /// Appends a task the service already admitted (with the engine's
    /// own checks), then applies the adaptive-index policy: grow the
    /// spatial index once the configured clamp threshold is crossed
    /// (decision-neutral; see [`AssignmentEngine::maybe_grow_index`]).
    /// Every post runs this, so growth points depend only on the
    /// submission sequence, never on scheduling.
    pub(crate) fn post(&mut self, id: TaskId, task: Task, accuracies: Option<&[f64]>) {
        self.engine
            .post_task(id, task, accuracies)
            .expect("admission validates posts with the engine's checks");
        if let Some(threshold) = self.grow_clamps {
            self.engine.maybe_grow_index(threshold);
        }
    }

    /// Appends the x coordinate of every live task (in no particular
    /// order) — what a rebalance cuts its stripes by.
    pub(crate) fn live_xs(&self, out: &mut Vec<f64>) {
        let engine = &self.engine;
        out.extend(engine.uncompleted_tasks().map(|t| engine.task(t).loc.x));
    }

    /// Removes every task, live or completed, that `router` places on
    /// another shard, and returns them with their state.
    /// The shard is whole again once [`Shard::immigrate`] has run.
    pub(crate) fn emigrate(&mut self, shard_id: usize, router: &ShardRouter) -> Migrants {
        self.engine
            .split_off(|task| router.shard_of(task.loc) != shard_id)
    }

    /// Inserts `arrivals` at their places in ascending id order and
    /// re-lays the spatial index over `region` plus the live tasks. Runs
    /// on every shard in a rebalance, arrivals or not. Returns the
    /// shard's live-task count.
    pub(crate) fn immigrate(&mut self, arrivals: &Migrants, region: BoundingBox) -> u64 {
        self.engine.merge_in(arrivals, region);
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
        let start = out.len();
        self.engine
            .serve(w, worker, &mut self.policy, |a, completed| {
                out.push(Event::Assigned {
                    worker: w,
                    task: a.task,
                    acc: a.acc,
                    gain: a.contribution,
                });
                // Picks are deduplicated, so a task completes on exactly
                // one of this worker's assignments.
                if completed {
                    out.push(Event::TaskCompleted {
                        task: a.task,
                        latency: w.arrival_index(),
                    });
                }
            });
        if out.len() == start {
            out.push(Event::WorkerIdle { worker: w });
        }
    }

    /// Asks this shard's policy for its picks for `worker` and appends
    /// them to `out` as [`Proposal`]s with their keys (at most `k`,
    /// deduplicated, in ascending id order). Appends nothing when the
    /// shard has no eligible uncompleted candidates.
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
        self.policy.assign(&self.engine, w, cand, picks);
        picks.truncate(k);
        picks.sort_unstable_by_key(|p| p.task);
        picks.dedup_by_key(|p| p.task);
        for &Pick { key, task: t } in picks.iter() {
            let Ok(i) = cand.binary_search_by_key(&t, |c| c.task) else {
                continue; // defensive: a pick outside the candidates
            };
            out.push(Proposal {
                shard: shard_id,
                key,
                cand: cand[i],
            });
        }
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

/// The documented cross-shard merge: rank proposals by the policy's
/// key descending with ties toward the smaller task id — the order
/// every policy selects by, so the kept `k` are the ones a single
/// engine over all tasks would pick — and leave them in ascending id
/// order, the same commit order the engine uses.
pub(crate) fn merge_and_truncate(k: usize, proposals: &mut Vec<Proposal>) {
    proposals.sort_unstable_by(|a, b| {
        b.key
            .partial_cmp(&a.key)
            .expect("selection keys are never NaN")
            .then_with(|| a.cand.task.cmp(&b.cand.task))
    });
    proposals.truncate(k);
    proposals.sort_unstable_by_key(|p| p.cand.task);
}

/// Appends the event batch for a merge-path worker to `out`, from the
/// committed picks (ascending id order) and the set of tasks the
/// commits completed. Allocation-free when `out` has capacity.
pub(crate) fn append_merge_events(
    w: WorkerId,
    picks: &[Proposal],
    completed: &[TaskId],
    out: &mut Vec<Event>,
) {
    if picks.is_empty() {
        out.push(Event::WorkerIdle { worker: w });
        return;
    }
    out.reserve(picks.len() + completed.len());
    for p in picks {
        let task = p.cand.task;
        out.push(Event::Assigned {
            worker: w,
            task,
            acc: p.cand.acc,
            gain: p.cand.contribution,
        });
        if completed.contains(&task) {
            out.push(Event::TaskCompleted {
                task,
                latency: w.arrival_index(),
            });
        }
    }
}
