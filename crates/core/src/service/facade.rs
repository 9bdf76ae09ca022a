//! The synchronous service facade — the inline executor: every call
//! runs the shared service state and the shards to completion on the
//! caller's thread.

use super::rebalance::RebalanceOutcome;
use super::shard::{
    append_merge_events, global_units, merge_and_truncate, Proposal, ProposeScratch, Shard,
};
use super::state::{Arrival, Progress, ServiceSnapshot, ServiceState};
use super::{Algorithm, Event, ServiceBuilder, ServiceError, ServiceMetrics};
use crate::model::{ProblemParams, Task, TaskId, Worker};
use ltc_spatial::BoundingBox;

/// The sharded online LTC service, served synchronously (see the module
/// docs for the sharding model). Build one with [`ServiceBuilder`].
///
/// This is the **batch/replay** front-end: every call runs to completion
/// on the caller's thread, so its output is deterministic call by call
/// and `shards = 1` is bit-identical to the raw engine. For continuous
/// traffic prefer the pipelined [`ServiceHandle`](super::ServiceHandle)
/// ([`ServiceBuilder::start`]) — it drives the very same shard core
/// from persistent threads and commits identical assignments.
#[derive(Debug)]
pub struct LtcService {
    state: ServiceState,
    shards: Vec<Shard>,
    /// What the returned events have done so far.
    progress: Progress,
    /// Scratch buffers for the merge path.
    scratch: ProposeScratch,
    proposal_buf: Vec<Proposal>,
    completed_buf: Vec<TaskId>,
}

impl LtcService {
    /// Starts building a service; see [`ServiceBuilder`].
    pub fn builder(params: ProblemParams, region: BoundingBox) -> ServiceBuilder {
        ServiceBuilder::new(params, region)
    }

    /// Platform parameters.
    #[inline]
    pub fn params(&self) -> &ProblemParams {
        &self.state.params
    }

    /// The completion threshold `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.state.params.delta()
    }

    /// The configured policy.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.state.algorithm
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The service region the router stripes over.
    #[inline]
    pub fn region(&self) -> BoundingBox {
        self.state.region
    }

    /// Number of tasks posted so far (service-wide).
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.state.n_tasks()
    }

    /// Number of workers checked in so far.
    #[inline]
    pub fn n_workers_seen(&self) -> u64 {
        self.state.next_arrival
    }

    /// Number of assignments committed so far.
    #[inline]
    pub fn n_assignments(&self) -> u64 {
        self.progress.n_assignments
    }

    /// Number of tasks still below `δ`.
    pub fn n_uncompleted(&self) -> usize {
        self.shards.iter().map(|s| s.engine.n_uncompleted()).sum()
    }

    /// Whether every posted task reached `δ`.
    pub fn all_completed(&self) -> bool {
        self.state.all_completed(&self.progress)
    }

    /// The paper's objective — the largest arrival index over recruited
    /// workers — defined once every task completed.
    pub fn latency(&self) -> Option<u64> {
        self.state.latency(&self.progress)
    }

    /// The shards, for tests that compare engine internals.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Accumulated quality `S[t]` of a (service-global) task.
    pub fn quality(&self, task: TaskId) -> f64 {
        self.shards[self.state.owner(task)].engine.quality(task)
    }

    /// Whether a (service-global) task reached `δ`.
    pub fn is_completed(&self, task: TaskId) -> bool {
        self.shards[self.state.owner(task)]
            .engine
            .is_completed(task)
    }

    /// Operational counters, including the border-clamp telemetry of the
    /// shard spatial indexes (see
    /// [`ServiceMetrics::clamped_insertions`]).
    pub fn metrics(&self) -> ServiceMetrics {
        self.state
            .metrics(&self.progress, self.shards.iter().map(Shard::metrics))
    }

    /// Posts a new task mid-stream, routing it to the shard owning its
    /// tile. It becomes assignable to every subsequent check-in.
    pub fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        self.post_task_inner(task, None)
    }

    /// Posts a task under a tabular accuracy model, appending its
    /// per-worker accuracy row (one entry per table worker).
    pub fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        self.post_task_inner(task, Some(accuracies))
    }

    fn post_task_inner(
        &mut self,
        task: Task,
        accuracies: Option<&[f64]>,
    ) -> Result<TaskId, ServiceError> {
        let (s, global) = self.state.admit_post(&task, accuracies)?;
        self.shards[s].post(global, task, accuracies);
        Ok(global)
    }

    /// Re-splits the router's tile columns by observed **live-task
    /// mass** and migrates tasks between shards — the load-balancing
    /// response to a skewed or drifting workload. The tiled extent is
    /// extended over the live tasks' actual x-range first, so
    /// out-of-region drift gets real columns instead of piling into the
    /// clamped border stripe.
    ///
    /// Returns `Ok(None)` when there is nothing to do (single shard, or
    /// the balanced layout equals the current one); otherwise the
    /// migration summary. The migration runs in place: only the tasks
    /// whose stripe changed move, live or completed, with their exact
    /// quality, completion flag and assignments, and every shard keeps
    /// its tasks in ascending global order. Its cost follows the
    /// shards' task and assignment counts, not a copy of their state.
    /// Decisions are never affected: an N-shard service remains
    /// differentially identical to a 1-shard one across any number of
    /// rebalances (see `crates/core/tests/rebalance.rs`).
    ///
    /// The pipelined front-end runs the same migration on its shard
    /// threads at a quiesced point:
    /// [`ServiceHandle::rebalance`](super::ServiceHandle::rebalance).
    pub fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        self.state.rebalance(self.shards.as_mut_slice())
    }

    /// Serves one worker check-in end to end and returns everything that
    /// happened, in commit order. The worker receives the next global
    /// arrival id whether or not anything was assignable (mirroring the
    /// engine's arrival semantics).
    pub fn check_in(&mut self, worker: &Worker) -> Vec<Event> {
        let arrival = self.state.admit_worker(worker);
        let mut events = Vec::new();
        match arrival.local_shard() {
            Some(s) => self.shards[s].check_in_local(arrival.id, worker, &mut events),
            None => self.check_in_merge(arrival, worker, &mut events),
        }
        self.progress.note(&events);
        events
    }

    /// The merge path: every reachable shard proposes its policy's
    /// picks (hybrid AAM policies first receive the exact global
    /// worker-unit aggregate), the merged proposals are ranked by the
    /// policy's key descending (ties toward the smaller task id), and the
    /// best `K` are committed in ascending id order — the same commit
    /// order the engine uses.
    fn check_in_merge(&mut self, arrival: Arrival, worker: &Worker, events: &mut Vec<Event>) {
        let w = arrival.id;
        let k = self.state.params.capacity as usize;
        let units = arrival.hybrid.then(|| global_units(&self.shards));
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut proposals = std::mem::take(&mut self.proposal_buf);
        proposals.clear();
        for s in arrival.reach {
            let shard = &mut self.shards[s];
            if let Some(units) = units {
                shard.policy.set_global_units(units);
            }
            shard.propose(s, w, worker, k, &mut scratch, &mut proposals);
        }
        self.scratch = scratch;

        merge_and_truncate(k, &mut proposals);
        let mut completed = std::mem::take(&mut self.completed_buf);
        completed.clear();
        for p in &proposals {
            if self.shards[p.shard].engine.commit_candidate(w, p.cand) {
                completed.push(p.cand.task);
            }
        }
        append_merge_events(w, &proposals, &completed, events);
        self.completed_buf = completed;
        self.proposal_buf = proposals;
    }

    /// Extracts the full durable service state (configuration, shard
    /// engines, routing maps, stripe layout, counters) for crash
    /// recovery. Serialize it with [`crate::snapshot::write_snapshot`].
    ///
    /// The restored service continues bit-identically for every policy:
    /// no policy carries hidden state (LAF and AAM read the engines,
    /// [`Algorithm::Random`] hashes its seed), and a rebalanced stripe
    /// layout or grown index extent restores as-is.
    ///
    /// ```
    /// use ltc_core::model::{ProblemParams, Task, Worker};
    /// use ltc_core::service::{LtcService, ServiceBuilder};
    /// use ltc_core::snapshot::{load_service, write_snapshot};
    /// use ltc_spatial::{BoundingBox, Point};
    ///
    /// let params = ProblemParams::builder().epsilon(0.3).capacity(2).build().unwrap();
    /// let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    /// let mut service = ServiceBuilder::new(params, region).build().unwrap();
    /// service.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
    /// service.check_in(&Worker::new(Point::new(10.5, 10.0), 0.9));
    ///
    /// // snapshot → text → restore: the twin continues identically.
    /// let mut text = Vec::new();
    /// write_snapshot(&service.snapshot(), &mut text).unwrap();
    /// let mut restored = load_service(text.as_slice()).unwrap();
    /// assert_eq!(restored.n_assignments(), service.n_assignments());
    /// let worker = Worker::new(Point::new(10.0, 10.5), 0.95);
    /// assert_eq!(service.check_in(&worker), restored.check_in(&worker));
    /// ```
    pub fn snapshot(&self) -> ServiceSnapshot {
        let engines = self.shards.iter().map(|s| s.engine.to_state()).collect();
        self.state.snapshot(&self.progress, engines)
    }

    /// Rebuilds a service from a [`ServiceSnapshot`] (the inverse of
    /// [`LtcService::snapshot`]).
    pub fn restore(snapshot: ServiceSnapshot) -> Result<Self, ServiceError> {
        let (state, shards, progress) = ServiceState::restore(snapshot)?;
        Ok(Self {
            state,
            shards,
            progress,
            scratch: ProposeScratch::default(),
            proposal_buf: Vec::new(),
            completed_buf: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Algorithm, Event, ServiceBuilder, ServiceError};
    use super::*;
    use crate::model::{ProblemParams, WorkerId};
    use ltc_spatial::Point;
    use std::num::NonZeroUsize;

    fn params(k: u32) -> ProblemParams {
        ProblemParams::builder()
            .epsilon(0.3)
            .capacity(k)
            .d_max(30.0)
            .build()
            .unwrap()
    }

    fn region() -> BoundingBox {
        BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
    }

    fn shards(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn post_task_routes_and_completes() {
        let mut service = ServiceBuilder::new(params(1), region())
            .shards(shards(4))
            .build()
            .unwrap();
        assert!(service.all_completed(), "empty service is trivially done");
        let far_left = service
            .post_task(Task::new(Point::new(10.0, 500.0)))
            .unwrap();
        let far_right = service
            .post_task(Task::new(Point::new(990.0, 500.0)))
            .unwrap();
        assert_eq!(service.n_tasks(), 2);
        assert_ne!(
            service.state.owner(far_left),
            service.state.owner(far_right),
            "opposite region ends must land on different shards"
        );
        // Drive both to completion with co-located workers.
        let mut done = std::collections::HashSet::new();
        for _ in 0..50 {
            for loc in [Point::new(10.0, 500.0), Point::new(990.0, 500.0)] {
                for e in service.check_in(&Worker::new(loc, 0.95)) {
                    if let Event::TaskCompleted { task, .. } = e {
                        done.insert(task.0);
                    }
                }
            }
            if service.all_completed() {
                break;
            }
        }
        assert!(service.all_completed());
        assert_eq!(done.len(), 2);
        assert!(service.is_completed(far_left) && service.is_completed(far_right));
        assert!(service.latency().is_some());
    }

    #[test]
    fn idle_workers_emit_idle_events_and_still_consume_ids() {
        let mut service = ServiceBuilder::new(params(1), region()).build().unwrap();
        let events = service.check_in(&Worker::new(Point::new(1.0, 1.0), 0.9));
        assert_eq!(
            events,
            vec![Event::WorkerIdle {
                worker: WorkerId(0)
            }]
        );
        assert_eq!(service.n_workers_seen(), 1);
    }

    #[test]
    fn tabular_models_require_single_shard_but_work_on_one() {
        let inst = crate::toy::toy_instance(0.2);
        let err = ServiceBuilder::from_instance(&inst)
            .shards(shards(2))
            .build()
            .unwrap_err();
        assert_eq!(err, ServiceError::TabularNeedsSingleShard);

        let mut service = ServiceBuilder::from_instance(&inst).build().unwrap();
        // Appending a task with a row works through the service facade.
        let row = vec![0.9; inst.n_workers()];
        let t = service
            .post_task_with_accuracies(Task::new(Point::new(1.0, 1.0)), &row)
            .unwrap();
        assert_eq!(t.index(), inst.n_tasks());
    }

    #[test]
    fn global_regime_makes_interior_sharded_aam_match_single_shard() {
        // Two task clusters, each deep inside its own stripe, workers
        // co-located with the clusters: every check-in is interior, so
        // with the cross-shard unit aggregate the 2-shard AAM must make
        // exactly the single-shard decisions (the ROADMAP open item).
        let tasks: Vec<Task> = (0..12)
            .map(|i| {
                let x = if i % 2 == 0 { 150.0 } else { 850.0 };
                Task::new(Point::new(x + (i / 2) as f64 * 4.0, 500.0))
            })
            .collect();
        let workers: Vec<Worker> = (0..220)
            .map(|i| {
                let x = if i % 3 == 0 { 151.0 } else { 851.0 };
                Worker::new(
                    Point::new(x + (i % 7) as f64, 498.0 + (i % 5) as f64),
                    0.72 + 0.27 * ((i % 9) as f64 / 9.0),
                )
            })
            .collect();
        let build = |n: usize| {
            ServiceBuilder::new(params(2), region())
                .tasks(tasks.clone())
                .algorithm(Algorithm::Aam)
                .shards(shards(n))
                .build()
                .unwrap()
        };
        let mut single = build(1);
        let mut sharded = build(2);
        assert_ne!(
            sharded.state.owner(TaskId(0)),
            sharded.state.owner(TaskId(1)),
            "clusters must land on different shards for the test to bite"
        );
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(
                single.check_in(w),
                sharded.check_in(w),
                "worker {i}: sharded AAM regime diverged from single-shard"
            );
        }
        assert_eq!(single.latency(), sharded.latency());
    }

    #[test]
    fn border_clamp_telemetry_reaches_service_metrics() {
        let small = BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        let mut service = ServiceBuilder::new(params(1), small).build().unwrap();
        assert_eq!(service.metrics().clamped_insertions, 0);
        service
            .post_task(Task::new(Point::new(10.0, 10.0)))
            .unwrap();
        assert_eq!(service.metrics().clamped_insertions, 0);
        // Far outside the declared region: clamped into border cells.
        service
            .post_task(Task::new(Point::new(5000.0, 5000.0)))
            .unwrap();
        service
            .post_task(Task::new(Point::new(-900.0, 25.0)))
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.clamped_insertions, 2);
        assert_eq!(m.n_tasks, 3);
        // The out-of-region tasks are still served exactly.
        for _ in 0..10 {
            service.check_in(&Worker::new(Point::new(5000.0, 5001.0), 0.95));
        }
        assert!(service.is_completed(TaskId(1)));
    }
}
