//! The service state both front-ends share: configuration, routing,
//! which shard holds each task, and the session counters. Both are the
//! restore of a [`ServiceSnapshot`]: the facade runs the state inline
//! next to its shards; the handle runs it next to its shard threads.

use super::rebalance::{balanced_router, route, Migration, RebalanceOutcome, StripeLayout};
use super::shard::{Shard, ShardMetrics};
use super::{Algorithm, Event, ServiceError, ServiceMetrics};
use crate::engine::{validate_post, AssignmentEngine, EngineState};
use crate::model::{AccuracyModel, Eligibility, ProblemParams, Task, TaskId, Worker, WorkerId};
use ltc_spatial::{BoundingBox, ShardRouter};
use std::ops::RangeInclusive;

/// The durable state of an [`LtcService`](super::LtcService); plain
/// data, serialized by [`crate::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Platform parameters.
    pub params: ProblemParams,
    /// The service region routing stripes over.
    pub region: BoundingBox,
    /// The configured policy.
    pub algorithm: Algorithm,
    /// Routing/index tile size.
    pub cell_size: f64,
    /// The shard mailbox bound
    /// ([`ServiceBuilder::mailbox_capacity`](super::ServiceBuilder::mailbox_capacity)).
    pub batch_capacity: usize,
    /// Adaptive-index growth threshold
    /// ([`ServiceBuilder::grow_index_after`](super::ServiceBuilder::grow_index_after));
    /// `None` = disabled.
    pub grow_clamps: Option<u64>,
    /// The router's stripe layout, when it differs from the default
    /// equal-width striping of `region` (i.e. after a rebalance);
    /// `None` restores the uniform layout. Serialized as the optional
    /// `stripes` group of the `config` record.
    pub stripes: Option<StripeLayout>,
    /// The service-global arrival counter.
    pub next_arrival: u64,
    /// Assignments committed over the session, across every shard.
    pub n_assignments: u64,
    /// The latest worker recruited over the session (the paper's
    /// latency, once every task completed); `None` exactly when
    /// `n_assignments` is 0.
    ///
    /// These two counters are the session's whole decision history: the
    /// decisions themselves are the event stream's. They are kept here,
    /// not per engine, because a rebalance moves tasks between engines
    /// but cannot move the commits that served them.
    pub latest_assigned: Option<WorkerId>,
    /// Per-shard engine state. Each service task id `0..n` is held by
    /// exactly one shard.
    pub engines: Vec<EngineState>,
}

impl ServiceSnapshot {
    /// Each task's shard, when every shard's ids ascend and every id
    /// below the task count is held by exactly one shard.
    pub(crate) fn owners(&self) -> Option<Vec<u32>> {
        let n_tasks = self.engines.iter().map(|e| e.ids.len()).sum();
        let mut owner = vec![u32::MAX; n_tasks];
        for (s, e) in self.engines.iter().enumerate() {
            let mut above = 0;
            for id in &e.ids {
                if id.index() < above {
                    return None;
                }
                let o = owner.get_mut(id.index()).filter(|o| **o == u32::MAX)?;
                *o = s as u32;
                above = id.index() + 1;
            }
        }
        Some(owner)
    }
}

/// Refuses counters no session could have written: a latest worker
/// exactly when something was assigned, below the arrival counter, at
/// most `K` assignments per arrival, and at least one per task that
/// gained quality. Reads each task's quality once; allocates nothing.
fn check_counters(snapshot: &ServiceSnapshot) -> Result<(), ServiceError> {
    let n = snapshot.n_assignments;
    let bad = |what| Err(ServiceError::BadSnapshot(what));
    match snapshot.latest_assigned {
        None if n > 0 => return bad("assignments were counted but no latest worker"),
        Some(_) if n == 0 => return bad("a latest worker but no assignments"),
        Some(w) if w.0 >= snapshot.next_arrival => {
            return bad("the latest assigned worker has not arrived yet")
        }
        _ => {}
    }
    let per_arrival = u64::from(snapshot.params.capacity);
    if n > snapshot.next_arrival.saturating_mul(per_arrival) {
        return bad("more assignments than the arrivals had capacity for");
    }
    let touched: u64 = snapshot
        .engines
        .iter()
        .map(|e| e.s.iter().filter(|&&s| s != 0.0).count() as u64)
        .sum();
    if touched > n {
        return bad("more tasks gained quality than assignments were counted");
    }
    Ok(())
}

/// What the released events have done so far. The facade counts them
/// as it returns them; the handle's runtime counts them as it delivers
/// them in submission order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Progress {
    pub(crate) n_assignments: u64,
    pub(crate) n_completed: u64,
    /// The largest arrival index over recruited workers.
    pub(crate) max_assigned: Option<u64>,
}

impl Progress {
    /// Counts one check-in's events.
    pub(crate) fn note(&mut self, events: &[Event]) {
        for e in events {
            match e {
                Event::Assigned { worker, .. } => {
                    self.n_assignments += 1;
                    let idx = worker.arrival_index();
                    self.max_assigned = Some(self.max_assigned.map_or(idx, |m| m.max(idx)));
                }
                Event::TaskCompleted { .. } => self.n_completed += 1,
                Event::WorkerIdle { .. } => {}
            }
        }
    }
}

/// How an admitted check-in is served.
pub(crate) struct Arrival {
    /// The worker's service-global arrival id.
    pub(crate) id: WorkerId,
    /// The shards whose stripes the worker's disk reaches.
    pub(crate) reach: RangeInclusive<usize>,
    /// Whether the policy needs the cross-shard worker-unit aggregate
    /// (hybrid AAM on more than one shard), which involves every shard.
    pub(crate) hybrid: bool,
}

impl Arrival {
    /// The one shard that serves the worker alone, if no other shard
    /// takes part in its decision.
    pub(crate) fn local_shard(&self) -> Option<usize> {
        (!self.hybrid && self.reach.start() == self.reach.end()).then_some(*self.reach.start())
    }
}

/// The configuration, routing and counters of one service session.
#[derive(Debug)]
pub(crate) struct ServiceState {
    pub(crate) params: ProblemParams,
    pub(crate) region: BoundingBox,
    pub(crate) algorithm: Algorithm,
    cell_size: f64,
    pub(crate) mailbox_capacity: usize,
    grow_clamps: Option<u64>,
    router: ShardRouter,
    /// `owner[id]`: the shard holding each task.
    owner: Vec<u32>,
    /// `Some(n_workers)` when the accuracy model is tabular.
    table_workers: Option<usize>,
    /// Service-global arrival counter.
    pub(crate) next_arrival: u64,
    /// Stripe rebalances applied over the session's lifetime.
    rebalances: u64,
}

impl ServiceState {
    /// Rebuilds a session from a snapshot: its state, its shards, and
    /// the progress its counters and completion flags record.
    pub(crate) fn restore(
        snapshot: ServiceSnapshot,
    ) -> Result<(Self, Vec<Shard>, Progress), ServiceError> {
        snapshot.params.validate().map_err(ServiceError::Params)?;
        let n_shards = snapshot.engines.len();
        if n_shards == 0 {
            return Err(ServiceError::BadSnapshot(
                "a service needs at least one shard",
            ));
        }
        if !(snapshot.cell_size.is_finite() && snapshot.cell_size > 0.0) {
            return Err(ServiceError::BadCellSize(snapshot.cell_size));
        }
        // Checked before any engine is built: an engine's id table
        // spans its ids, so they must be known to be in range.
        let owner = snapshot.owners().ok_or(ServiceError::BadSnapshot(
            "task ids are not one per task across the shards",
        ))?;
        check_counters(&snapshot)?;
        let router = match snapshot.stripes {
            None => ShardRouter::new(n_shards, snapshot.cell_size, snapshot.region),
            Some(layout) => {
                let router = layout
                    .into_router()
                    .map_err(|_| ServiceError::BadSnapshot("invalid stripe layout"))?;
                if router.n_shards() != n_shards {
                    return Err(ServiceError::BadSnapshot(
                        "stripe layout disagrees with the shard count",
                    ));
                }
                router
            }
        };
        // Tabular accuracy models index workers globally and cannot be
        // sharded — a snapshot claiming otherwise is corrupt.
        if n_shards > 1
            && snapshot
                .engines
                .iter()
                .any(|e| matches!(e.accuracy, AccuracyModel::Table(_)))
        {
            return Err(ServiceError::TabularNeedsSingleShard);
        }
        let table_workers = snapshot.engines[0].accuracy.table_workers();
        let mut progress = Progress {
            n_assignments: snapshot.n_assignments,
            n_completed: 0,
            max_assigned: snapshot.latest_assigned.map(WorkerId::arrival_index),
        };
        let mut shards = Vec::with_capacity(n_shards);
        for state in snapshot.engines {
            let engine = AssignmentEngine::from_state(state).map_err(ServiceError::Engine)?;
            progress.n_completed += (engine.n_tasks() - engine.n_uncompleted()) as u64;
            shards.push(Shard {
                engine,
                policy: snapshot.algorithm.policy(),
                grow_clamps: snapshot.grow_clamps,
            });
        }
        let state = Self {
            params: snapshot.params,
            region: snapshot.region,
            algorithm: snapshot.algorithm,
            cell_size: snapshot.cell_size,
            mailbox_capacity: snapshot.batch_capacity.max(1),
            grow_clamps: snapshot.grow_clamps,
            router,
            owner,
            table_workers,
            next_arrival: snapshot.next_arrival,
            rebalances: 0,
        };
        Ok((state, shards, progress))
    }

    /// Number of shards.
    #[inline]
    pub(crate) fn n_shards(&self) -> usize {
        self.router.n_shards()
    }

    /// Number of tasks posted so far.
    #[inline]
    pub(crate) fn n_tasks(&self) -> usize {
        self.owner.len()
    }

    /// The shard holding a task.
    pub(crate) fn owner(&self, task: TaskId) -> usize {
        self.owner[task.index()] as usize
    }

    /// Whether every posted task reached `δ`.
    pub(crate) fn all_completed(&self, progress: &Progress) -> bool {
        progress.n_completed == self.n_tasks() as u64
    }

    /// The paper's objective, defined once every task completed.
    pub(crate) fn latency(&self, progress: &Progress) -> Option<u64> {
        if self.all_completed(progress) {
            progress.max_assigned
        } else {
            None
        }
    }

    /// Admits a task post: validates it with the engine's checks,
    /// routes it to the shard owning its tile, and records the owner.
    /// Returns the shard and the task's service-global id.
    pub(crate) fn admit_post(
        &mut self,
        task: &Task,
        accuracies: Option<&[f64]>,
    ) -> Result<(usize, TaskId), ServiceError> {
        validate_post(self.table_workers, task, accuracies, self.n_tasks())
            .map_err(ServiceError::Engine)?;
        let s = if self.n_shards() == 1 {
            0
        } else {
            self.router.shard_of(task.loc)
        };
        let id = TaskId(self.n_tasks() as u32);
        self.owner.push(s as u32);
        Ok((s, id))
    }

    /// Admits a check-in: the next arrival id and the shards that take
    /// part in its decision. Every shard under the unrestricted policy,
    /// otherwise the stripes intersecting the worker's `d_max` disk (a
    /// non-finite location degenerates to shard 0, which will find no
    /// candidates).
    pub(crate) fn admit_worker(&mut self, worker: &Worker) -> Arrival {
        let id = WorkerId(self.next_arrival);
        self.next_arrival = self
            .next_arrival
            .checked_add(1)
            .expect("worker arrival index exceeded the u64 id space");
        let n_shards = self.n_shards();
        let reach = match self.params.eligibility {
            Eligibility::Unrestricted => 0..=n_shards - 1,
            Eligibility::WithinRange if worker.loc.is_finite() => {
                self.router.shards_within(worker.loc, self.params.d_max)
            }
            Eligibility::WithinRange => 0..=0,
        };
        Arrival {
            id,
            reach,
            hybrid: self.algorithm.needs_global_units() && n_shards > 1,
        }
    }

    /// The full durable state, from the released progress and every
    /// shard's state in shard order.
    pub(crate) fn snapshot(
        &self,
        progress: &Progress,
        engines: Vec<EngineState>,
    ) -> ServiceSnapshot {
        // The stripe record stays absent while the router has the layout
        // the configuration derives (which keeps pre-rebalance snapshots
        // byte-identical across versions).
        let uniform = ShardRouter::new(self.n_shards(), self.cell_size, self.region);
        ServiceSnapshot {
            params: self.params,
            region: self.region,
            algorithm: self.algorithm,
            cell_size: self.cell_size,
            batch_capacity: self.mailbox_capacity,
            grow_clamps: self.grow_clamps,
            stripes: (self.router != uniform).then(|| StripeLayout::of(&self.router)),
            next_arrival: self.next_arrival,
            n_assignments: progress.n_assignments,
            latest_assigned: progress.max_assigned.map(|index| WorkerId(index - 1)),
            engines,
        }
    }

    /// Runs a load-aware rebalance over quiesced `shards` (see the
    /// [`rebalance`](super::rebalance) module): plans the new router from
    /// the live tasks, and when it differs, moves the tasks whose stripe
    /// changed and records their new owners. `Ok(None)` when there is
    /// nothing to do: a single shard, or a layout equal to the current
    /// one (including the empty-pool case).
    ///
    /// A failure after the first task left its shard leaves the shards
    /// and the owners out of step; the handle's [`Migration`] stops its
    /// runtime then, so the session never serves from that state.
    pub(crate) fn rebalance(
        &mut self,
        shards: &mut (impl Migration + ?Sized),
    ) -> Result<Option<RebalanceOutcome>, ServiceError> {
        if self.n_shards() <= 1 {
            return Ok(None);
        }
        // Tabular models are restricted to one shard at build/restore
        // time; a multi-shard table here would mean corrupt state.
        if self.table_workers.is_some() {
            return Err(ServiceError::TabularNeedsSingleShard);
        }
        let router = balanced_router(self.region, &self.router, &shards.live_xs()?);
        if router == self.router {
            return Ok(None);
        }
        let emigrants = shards.emigrate(&router)?;
        let (arrivals, moved_tasks) = route(&router, emigrants, &mut self.owner);
        self.router = router;
        self.rebalances += 1;
        let live_loads = shards.immigrate(arrivals, self.region)?;
        Ok(Some(RebalanceOutcome {
            moved_tasks,
            live_loads,
            stripe_starts: self.router.stripe_starts().to_vec(),
        }))
    }

    /// Operational counters, from the released progress and every
    /// shard's counters in shard order.
    pub(crate) fn metrics(
        &self,
        progress: &Progress,
        shards: impl IntoIterator<Item = ShardMetrics>,
    ) -> ServiceMetrics {
        let mut clamped_insertions = 0;
        let mut shard_loads = Vec::with_capacity(self.n_shards());
        for s in shards {
            clamped_insertions += s.clamped;
            shard_loads.push(s.live);
        }
        ServiceMetrics {
            n_workers_seen: self.next_arrival,
            n_assignments: progress.n_assignments,
            n_tasks: self.n_tasks() as u64,
            n_completed: progress.n_completed,
            clamped_insertions,
            rebalances: self.rebalances,
            shard_loads,
            latency: self.latency(progress),
            wal_records: 0,
            checkpoints: 0,
            sessions_open: 1,
            sessions_evicted: 0,
        }
    }
}
