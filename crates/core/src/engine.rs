//! The streaming assignment engine — the owned, incremental core every
//! LTC algorithm runs on.
//!
//! The paper's setting is fundamentally **online**: workers check in one
//! by one and each assignment is committed irrevocably. The engine models
//! exactly that. Unlike the original batch-oriented `StreamState<'a>`
//! (which borrowed a closed [`Instance`] whose whole worker stream was
//! known up front), an [`AssignmentEngine`] *owns* its state and ingests
//! work incrementally:
//!
//! * [`AssignmentEngine::push_worker`] consumes one check-in, lets a
//!   pluggable [`OnlineAlgorithm`] pick at most `K` tasks, commits them,
//!   and returns the worker's assignment batch;
//! * [`AssignmentEngine::add_task`] posts a new task mid-stream;
//! * completed tasks are **evicted** from the spatial index the moment
//!   they reach `δ`, so the per-worker eligibility query costs
//!   `O(tasks still uncompleted nearby)` instead of `O(all tasks ever
//!   posted nearby)` — the hot path shrinks as the system makes progress.
//!
//! The offline algorithms ([`crate::offline::McfLtc`],
//! [`crate::offline::BaseOff`], [`crate::offline::ExactSolver`]) drive
//! the same engine through its lower-level [`AssignmentEngine::commit`] /
//! [`AssignmentEngine::append_candidates`] API, so candidate enumeration
//! and quality bookkeeping live in exactly one place.
//!
//! The engine does not record its decisions. No policy reads a past
//! assignment — LAF, AAM and Random decide from the live tasks' `S`,
//! remaining units and `K` — so the engine keeps two counters (the
//! assignments it committed and the latest arrival it recruited) and
//! hands every committed [`Assignment`] to its caller. A caller that
//! wants the record keeps it: [`crate::online::run_online`] and the
//! offline solvers build their [`crate::model::RunOutcome`]'s
//! [`crate::model::Arrangement`] from the commits, and a service's event
//! stream is its decision history.

use crate::model::{
    AccuracyModel, Assignment, Eligibility, Instance, ProblemParams, QualityModel, Task, TaskId,
    Worker, WorkerId,
};
use crate::online::{OnlineAlgorithm, Pick};
use crate::smallvec::SmallVec;
use crate::units::UnitCounts;
use ltc_spatial::{BoundingBox, GridIndex};
use std::fmt;

/// Tolerance for `S[t] ≥ δ` completion checks (see
/// `crate::model::params`).
const COMPLETION_EPS: f64 = 1e-9;

/// Inline capacity of a per-worker assignment batch. The paper's
/// experiments use `K = 6`; batches only touch the heap when `K > 8`.
pub const INLINE_BATCH: usize = 8;

/// The id table's entry for an id the engine does not hold.
const NO_SLOT: u32 = u32::MAX;

/// The assignments one worker received from
/// [`AssignmentEngine::push_worker`].
pub type AssignmentBatch = SmallVec<Assignment, INLINE_BATCH>;

/// A candidate assignment for an arriving worker, produced by
/// [`AssignmentEngine::append_candidates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate task.
    pub task: TaskId,
    /// Predicted accuracy `Acc(w,t)`.
    pub acc: f64,
    /// Quality contribution (`Acc*` under the Hoeffding model).
    pub contribution: f64,
}

/// An owned, incremental streaming engine for the LTC problem: per-task
/// accumulated quality `S`, completion tracking, two commit counters,
/// and an evicting spatial index over the *uncompleted* tasks. Tasks keep their ids for life; internally they sit in slots in
/// ascending id order, a layout that never leaves the engine.
#[derive(Debug, Clone)]
pub struct AssignmentEngine {
    params: ProblemParams,
    accuracy: AccuracyModel,
    delta: f64,
    /// Per-slot task state, in ascending id order.
    ids: Vec<TaskId>,
    tasks: Vec<Task>,
    /// Accumulated contribution per task (the paper's `S`).
    s: Vec<f64>,
    completed: Vec<bool>,
    /// `slot_of[id - id_base]`: the slot holding task `id`, or `NO_SLOT`.
    slot_of: Vec<u32>,
    id_base: u32,
    /// Dense set of uncompleted slots (unordered; swap-removed on
    /// completion) plus each slot's position in it, so iterating the
    /// remaining work is `O(n_uncompleted)`.
    uncompleted: Vec<u32>,
    uncompleted_pos: Vec<u32>,
    /// Assignments committed since the engine was built or restored.
    n_assignments: u64,
    /// The latest arrival recruited since then.
    latest_assigned: Option<WorkerId>,
    /// Spatial index over the ids and locations of *uncompleted* tasks
    /// (cell size `d_max`), used under the nearby-only eligibility
    /// policy. `None` under [`Eligibility::Unrestricted`].
    task_index: Option<GridIndex<u32>>,
    /// Arrival counter: the id the next pushed worker receives.
    next_arrival: u64,
    /// The index clamp count observed at the last index growth (or at
    /// build), so growth triggers on clamps *since* then. Not durable
    /// state: a restore re-counts clamps from re-inserting the live
    /// tasks, which is self-consistent with the restored geometry.
    index_clamp_mark: u64,
    /// Per-slot remaining worker-units `⌈(δ − S[t])⁺⌉` (0 once
    /// completed), maintained incrementally so AAM's regime scan needs no
    /// per-worker pass over the uncompleted set.
    units: Vec<f64>,
    /// Exact sum of `units` (integer-valued, so f64 addition is exact
    /// below 2^53 regardless of update order).
    units_sum: f64,
    /// Multiset of the nonzero `units` values, bucketed by whole-unit
    /// value (pre-sized to `⌈δ⌉`), so every update is O(1) and
    /// allocation-free and the maximum is read directly (see
    /// [`crate::units::UnitCounts`]).
    units_counts: UnitCounts,
    /// Scratch buffers reused across `push_worker` calls.
    cand_buf: Vec<Candidate>,
    picks_buf: Vec<Pick>,
}

impl AssignmentEngine {
    /// An empty engine with the default sigmoid accuracy model (Eq. 1)
    /// covering `region`; tasks arrive later via
    /// [`AssignmentEngine::add_task`].
    ///
    /// The region only sizes the spatial index: tasks *outside* it are
    /// still handled exactly (they are clamped into border cells), just
    /// less efficiently. Pick the service area you expect check-ins from.
    pub fn new(params: ProblemParams, region: BoundingBox) -> Result<Self, EngineError> {
        params.validate().map_err(EngineError::Params)?;
        let task_index = match params.eligibility {
            Eligibility::WithinRange => Some(GridIndex::with_bounds(params.d_max, region)),
            Eligibility::Unrestricted => None,
        };
        Ok(Self::assemble(
            params,
            AccuracyModel::Sigmoid,
            task_index,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ))
    }

    /// An engine pre-loaded with a batch instance's tasks (task `i` under
    /// id `i`), parameters, and accuracy model, ready to stream the
    /// instance's workers (or any other stream) through it.
    pub fn from_instance(instance: &Instance) -> Self {
        let params = *instance.params();
        let tasks = instance.tasks().to_vec();
        let n = tasks.len();
        let task_index = match params.eligibility {
            Eligibility::WithinRange => Some(GridIndex::build(
                params.d_max,
                tasks.iter().enumerate().map(|(i, t)| (i as u32, t.loc)),
            )),
            Eligibility::Unrestricted => None,
        };
        Self::assemble(
            params,
            instance.accuracy_model().clone(),
            task_index,
            (0..n as u32).map(TaskId).collect(),
            tasks,
            vec![0.0; n],
            vec![false; n],
        )
    }

    /// An engine holding the tasks `ids` (ascending) with their quality
    /// and completion flags and no history yet; derives the id table,
    /// the uncompleted set and the worker-units from them.
    fn assemble(
        params: ProblemParams,
        accuracy: AccuracyModel,
        task_index: Option<GridIndex<u32>>,
        ids: Vec<TaskId>,
        tasks: Vec<Task>,
        s: Vec<f64>,
        completed: Vec<bool>,
    ) -> Self {
        let delta = params.delta();
        let n = tasks.len();
        let mut engine = Self {
            delta,
            params,
            accuracy,
            ids,
            tasks,
            s,
            completed,
            slot_of: Vec::new(),
            id_base: 0,
            uncompleted: Vec::new(),
            uncompleted_pos: Vec::new(),
            n_assignments: 0,
            latest_assigned: None,
            task_index,
            next_arrival: 0,
            index_clamp_mark: 0,
            units: vec![0.0; n],
            units_sum: 0.0,
            units_counts: UnitCounts::for_delta(delta),
            cand_buf: Vec::new(),
            picks_buf: Vec::new(),
        };
        engine.reindex();
        engine
    }

    /// Posts a new task mid-stream under the next id (`0, 1, 2, …`). It
    /// becomes assignable to every subsequent worker.
    ///
    /// Fails when the location is non-finite, or when the accuracy model
    /// is tabular — a table has no way to predict accuracies for a task
    /// it has no row for; post such tasks through
    /// [`AssignmentEngine::add_task_with_accuracies`] instead.
    pub fn add_task(&mut self, task: Task) -> Result<TaskId, EngineError> {
        let id = self.next_id();
        self.post_task(id, task, None)?;
        Ok(id)
    }

    /// [`AssignmentEngine::add_task`] under an id the caller chose. A
    /// [`crate::service::LtcService`] posts each task to its shard's
    /// engine under the service-wide id, so the shard's candidates and
    /// assignments name tasks the way the service does. The engine
    /// indexes a table by id, so one engine's ids should be dense.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) when `id` is not above every
    /// id the engine holds.
    pub fn add_task_as(&mut self, id: TaskId, task: Task) -> Result<(), EngineError> {
        self.post_task(id, task, None)
    }

    /// Posts a new task mid-stream under a tabular accuracy model,
    /// appending `accuracies` (one entry per table worker, in `[0, 1]`)
    /// as the task's row. The inverse restriction of
    /// [`AssignmentEngine::add_task`]: a sigmoid engine computes
    /// accuracies itself and rejects an explicit row.
    pub fn add_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, EngineError> {
        let id = self.next_id();
        self.post_task(id, task, Some(accuracies))?;
        Ok(id)
    }

    /// One past the largest id the engine holds.
    fn next_id(&self) -> TaskId {
        TaskId(self.id_base.wrapping_add(self.slot_of.len() as u32))
    }

    /// Every posting path: validation, the table row, the slot,
    /// quality/unit bookkeeping, and index insertion.
    pub(crate) fn post_task(
        &mut self,
        id: TaskId,
        task: Task,
        accuracies: Option<&[f64]>,
    ) -> Result<(), EngineError> {
        validate_post(
            self.accuracy.table_workers(),
            &task,
            accuracies,
            self.tasks.len(),
        )?;
        if self.slot_of.is_empty() {
            self.id_base = id.0;
        }
        let fresh = id.0.checked_sub(self.id_base);
        assert!(
            fresh.is_some_and(|at| at as usize >= self.slot_of.len()),
            "task id {} is not above every id the engine holds",
            id.0
        );
        if let (AccuracyModel::Table(table), Some(row)) = (&mut self.accuracy, accuracies) {
            table.push_task_row(row);
        }
        let slot = self.tasks.len();
        let at = (id.0 - self.id_base) as usize;
        self.slot_of.resize(at + 1, NO_SLOT);
        self.slot_of[at] = slot as u32;
        self.ids.push(id);
        self.tasks.push(task);
        self.s.push(0.0);
        self.completed.push(false);
        self.uncompleted_pos.push(self.uncompleted.len() as u32);
        self.uncompleted.push(slot as u32);
        self.units.push(0.0);
        self.set_units(slot, self.delta.ceil());
        if let Some(index) = &mut self.task_index {
            index.insert(id.0, task.loc);
        }
        Ok(())
    }

    /// The slot holding task `t`; `NO_SLOT` (an id the engine does not
    /// hold) indexes past every per-slot vector.
    #[inline]
    fn slot(&self, t: TaskId) -> usize {
        self.slot_of[t.0.wrapping_sub(self.id_base) as usize] as usize
    }

    /// Platform parameters.
    #[inline]
    pub fn params(&self) -> &ProblemParams {
        &self.params
    }

    /// The accuracy model in use.
    #[inline]
    pub fn accuracy_model(&self) -> &AccuracyModel {
        &self.accuracy
    }

    /// The completion threshold `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// A task the engine holds.
    #[inline]
    pub(crate) fn task(&self, t: TaskId) -> &Task {
        &self.tasks[self.slot(t)]
    }

    /// Number of tasks the engine holds.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers pushed so far.
    #[inline]
    pub fn n_workers_seen(&self) -> u64 {
        self.next_arrival
    }

    /// `(Σ_t ⌈(δ − S[t])⁺⌉, max_t ⌈(δ − S[t])⁺⌉)` over the uncompleted
    /// tasks — the worker-unit statistics driving AAM's regime switch —
    /// maintained incrementally on every commit (O(log) per update, O(1)
    /// to read) instead of rescanned per worker.
    ///
    /// Both values are integer-valued f64s; the sum is exact below 2^53,
    /// so it equals a fresh scan in any order.
    #[inline]
    pub fn remaining_units(&self) -> (f64, f64) {
        (self.units_sum, self.units_counts.max_value())
    }

    /// Re-points `units[slot]` to `new`, keeping the sum and multiset in
    /// step. Zero units are kept out of the multiset so the maximum query
    /// sees only open deficits.
    fn set_units(&mut self, slot: usize, new: f64) {
        let old = self.units[slot];
        if old == new {
            return;
        }
        if old > 0.0 {
            self.units_counts.remove(old);
        }
        if new > 0.0 {
            self.units_counts.add(new);
        }
        self.units_sum += new - old;
        self.units[slot] = new;
    }

    /// Cumulative count of task insertions the spatial index clamped into
    /// border cells because they fell outside its declared region — the
    /// operator signal that the region guess under-covers the workload
    /// (queries stay exact but border buckets absorb extra distance
    /// checks). Zero under [`Eligibility::Unrestricted`]. Not persisted
    /// by snapshots (a restore re-inserts and re-counts the still-open
    /// tasks).
    #[inline]
    pub fn index_clamped_insertions(&self) -> u64 {
        self.task_index
            .as_ref()
            .map_or(0, |idx| idx.n_clamped_insertions())
    }

    /// Grows the spatial index when at least `clamp_threshold` insertions
    /// clamped into border cells since the last growth (or since build) —
    /// the adaptive response to a region guess that under-covers the
    /// workload. Returns whether the index was rebucketed.
    ///
    /// Growth is **decision-neutral**: queries are exact before and after
    /// (see [`GridIndex::rebucket`]), so candidate sets — and therefore
    /// every assignment — are bit-identical with or without it; only the
    /// per-query constant factor improves. A threshold of `0` never
    /// grows.
    pub fn maybe_grow_index(&mut self, clamp_threshold: u64) -> bool {
        let Some(index) = &self.task_index else {
            return false;
        };
        if clamp_threshold == 0 {
            return false;
        }
        let clamped = index.n_clamped_insertions();
        if clamped.saturating_sub(self.index_clamp_mark) < clamp_threshold {
            return false;
        }
        self.grow_index()
    }

    /// Unconditionally rebuckets the spatial index over bounds covering
    /// both its current extent and every live task, and re-arms the
    /// clamp-threshold trigger of [`AssignmentEngine::maybe_grow_index`].
    /// Returns whether the extent actually changed (`false` when every
    /// live task already fits, or under
    /// [`Eligibility::Unrestricted`]).
    fn grow_index(&mut self) -> bool {
        let Some(index) = &mut self.task_index else {
            return false;
        };
        let current = index.requested_bounds();
        let grown = match BoundingBox::of_points(index.entries().map(|(_, p)| p)) {
            Some(live) => current.union(live),
            None => current,
        };
        let changed = grown != current;
        if changed {
            index.rebucket(index.cell_size(), grown);
        }
        self.index_clamp_mark = index.n_clamped_insertions();
        changed
    }

    /// Accumulated quality of a task (`S[t]`).
    #[inline]
    pub fn quality(&self, t: TaskId) -> f64 {
        self.s[self.slot(t)]
    }

    /// Remaining quality a task still needs. Zero for completed tasks (a
    /// task that reached `δ` needs nothing, even when rounding left
    /// `S[t]` a hair under it).
    #[inline]
    pub fn remaining(&self, t: TaskId) -> f64 {
        let slot = self.slot(t);
        if self.completed[slot] {
            0.0
        } else {
            (self.delta - self.s[slot]).max(0.0)
        }
    }

    /// Whether the task reached `δ`.
    #[inline]
    pub fn is_completed(&self, t: TaskId) -> bool {
        self.completed[self.slot(t)]
    }

    /// Number of tasks still below `δ`.
    #[inline]
    pub fn n_uncompleted(&self) -> usize {
        self.uncompleted.len()
    }

    /// Whether every posted task reached `δ`.
    #[inline]
    pub fn all_completed(&self) -> bool {
        self.uncompleted.is_empty()
    }

    /// Iterates the uncompleted task ids, in unspecified order, in
    /// `O(n_uncompleted)`.
    pub fn uncompleted_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.uncompleted.iter().map(|&slot| self.ids[slot as usize])
    }

    /// Assignments committed since the engine was built or restored
    /// (an [`EngineState`] carries no counters: see its docs).
    #[inline]
    pub fn n_assignments(&self) -> u64 {
        self.n_assignments
    }

    /// The largest arrival index among the workers recruited since the
    /// engine was built or restored; `None` before the first commit.
    #[inline]
    pub fn latest_assigned(&self) -> Option<u64> {
        self.latest_assigned.map(WorkerId::arrival_index)
    }

    /// The paper's objective `MinMax(M)`: the latest recruited arrival,
    /// defined once every task reached `δ`.
    pub fn latency(&self) -> Option<u64> {
        if self.all_completed() {
            self.latest_assigned()
        } else {
            None
        }
    }

    /// Predicted accuracy `Acc(w,t)` of `worker` (arriving as `w`) on a
    /// task.
    #[inline]
    pub fn acc(&self, w: WorkerId, worker: &Worker, t: TaskId) -> f64 {
        self.candidate(w, worker, t).acc
    }

    /// Quality contribution of assigning `t` to `worker`: `Acc*` under
    /// the Hoeffding model, plain `Acc` under a fixed threshold.
    #[inline]
    pub fn contribution(&self, w: WorkerId, worker: &Worker, t: TaskId) -> f64 {
        self.candidate(w, worker, t).contribution
    }

    /// Builds the [`Candidate`] record for a pair (no eligibility check).
    #[inline]
    pub fn candidate(&self, w: WorkerId, worker: &Worker, t: TaskId) -> Candidate {
        self.candidate_at(w, worker, self.slot(t))
    }

    /// [`AssignmentEngine::candidate`] by slot (table rows follow slots).
    #[inline]
    fn candidate_at(&self, w: WorkerId, worker: &Worker, slot: usize) -> Candidate {
        let acc = self
            .accuracy
            .acc(w.index(), worker, slot, &self.tasks[slot], &self.params);
        let contribution = match self.params.quality {
            QualityModel::Hoeffding => crate::model::acc_star(acc),
            QualityModel::FixedThreshold(_) => acc,
        };
        Candidate {
            task: self.ids[slot],
            acc,
            contribution,
        }
    }

    /// Appends the worker's **eligible, uncompleted** candidate tasks to
    /// `out` in ascending task-id order (so algorithms inherit a
    /// deterministic tie-break); returns how many were appended.
    ///
    /// Under the nearby-only policy this is a radius query against the
    /// evicting index — its cost tracks the number of *uncompleted* tasks
    /// near the worker. Under the unrestricted policy it scans all tasks.
    pub fn append_candidates(
        &self,
        w: WorkerId,
        worker: &Worker,
        out: &mut Vec<Candidate>,
    ) -> usize {
        let start = out.len();
        match &self.task_index {
            Some(index) => {
                match &self.accuracy {
                    AccuracyModel::Sigmoid => {
                        // Eq. 1 needs only the worker and the task
                        // location, and the index stores each task's
                        // location next to its id — computing the
                        // candidate from the stored point skips a
                        // dependent `tasks[t]` load per hit.
                        let d_max = self.params.d_max;
                        let quality = self.params.quality;
                        index.for_each_within_entries(worker.loc, d_max, |t, p| {
                            let d = worker.loc.distance(p);
                            let acc = worker.accuracy / (1.0 + (-(d_max - d)).exp());
                            if acc >= 0.5 {
                                let contribution = match quality {
                                    QualityModel::Hoeffding => crate::model::acc_star(acc),
                                    QualityModel::FixedThreshold(_) => acc,
                                };
                                out.push(Candidate {
                                    task: TaskId(t),
                                    acc,
                                    contribution,
                                });
                            }
                        });
                    }
                    AccuracyModel::Table(_) => out.extend(
                        index
                            .within(worker.loc, self.params.d_max)
                            .map(|t| self.candidate(w, worker, TaskId(t)))
                            .filter(|c| c.acc >= 0.5),
                    ),
                }
                // The grid yields tasks in cell order; restore id order
                // for deterministic downstream tie-breaking.
                out[start..].sort_unstable_by_key(|c| c.task);
            }
            None => {
                // Slots are in id order already.
                out.extend(
                    (0..self.tasks.len())
                        .filter(|&slot| !self.completed[slot])
                        .map(|slot| self.candidate_at(w, worker, slot)),
                );
            }
        }
        out.len() - start
    }

    /// Like [`AssignmentEngine::append_candidates`] but clears `out`
    /// first.
    pub fn candidates(&self, w: WorkerId, worker: &Worker, out: &mut Vec<Candidate>) {
        out.clear();
        self.append_candidates(w, worker, out);
    }

    /// Commits `(w, t)` and updates `S[t]`; when the task reaches `δ` it
    /// is marked completed and **evicted from the spatial index**.
    /// Returns the committed assignment, for a caller that keeps the
    /// arrangement.
    ///
    /// Assignments are irrevocable (the paper's invariable constraint);
    /// correctness of the *choice* is the algorithm's responsibility —
    /// this method only maintains state.
    pub fn commit(&mut self, w: WorkerId, worker: &Worker, t: TaskId) -> Assignment {
        let slot = self.slot(t);
        let c = self.candidate_at(w, worker, slot);
        self.commit_at(w, slot, c);
        Assignment {
            worker: w,
            task: t,
            acc: c.acc,
            contribution: c.contribution,
        }
    }

    /// [`AssignmentEngine::commit`] with the [`Candidate`] built when the
    /// worker's candidates were enumerated (no accuracy recomputation).
    /// Returns whether the task is completed now.
    pub(crate) fn commit_candidate(&mut self, w: WorkerId, c: Candidate) -> bool {
        let slot = self.slot(c.task);
        self.commit_at(w, slot, c);
        self.completed[slot]
    }

    fn commit_at(&mut self, w: WorkerId, slot: usize, c: Candidate) {
        self.n_assignments += 1;
        self.latest_assigned = self.latest_assigned.max(Some(w));
        self.s[slot] += c.contribution;
        if self.completed[slot] {
            return;
        }
        if self.s[slot] >= self.delta - COMPLETION_EPS {
            self.complete(slot);
        } else {
            self.set_units(slot, (self.delta - self.s[slot]).max(0.0).ceil());
        }
    }

    /// Marks a task completed, evicting it from the index and the dense
    /// uncompleted set.
    fn complete(&mut self, slot: usize) {
        self.completed[slot] = true;
        self.set_units(slot, 0.0);
        // Swap-remove from the dense uncompleted set.
        let pos = self.uncompleted_pos[slot] as usize;
        let last = *self
            .uncompleted
            .last()
            .expect("completing a task requires it to be uncompleted");
        self.uncompleted.swap_remove(pos);
        if pos < self.uncompleted.len() {
            self.uncompleted_pos[last as usize] = pos as u32;
        }
        if let Some(index) = &mut self.task_index {
            index.remove(self.ids[slot].0, self.tasks[slot].loc);
        }
    }

    /// Processes one arriving worker end to end: assigns the next arrival
    /// id, enumerates eligible uncompleted candidates, asks `algo` to
    /// pick at most `K` of them, commits the picks irrevocably, and
    /// returns the worker's batch (empty when nothing was assignable).
    ///
    /// Violations of the capacity bound or picks outside the candidate
    /// set are programming errors and panic in debug builds; release
    /// builds defensively truncate/skip them.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) when streaming past the row
    /// count of a fixed [`AccuracyModel::Table`] — tabular models cover a
    /// closed worker set — or past the `u32` worker-id space.
    pub fn push_worker<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        worker: &Worker,
        algo: &mut A,
    ) -> AssignmentBatch {
        let w = WorkerId(self.next_arrival);
        self.next_arrival = self
            .next_arrival
            .checked_add(1)
            .expect("worker arrival index exceeded the u64 id space");
        self.push_worker_as(w, worker, algo)
    }

    /// [`AssignmentEngine::push_worker`] with the arrival id supplied by
    /// the caller instead of the engine's own counter (which is left
    /// untouched). This is the entry point sharded front-ends use: a
    /// [`crate::service::LtcService`] owns the *global* arrival counter
    /// and pushes each worker into its shard engine(s) under the global
    /// id, so committed [`Assignment`] records carry service-wide worker
    /// ids no matter which shard they landed on.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) when `w` exceeds the row count
    /// of a fixed [`AccuracyModel::Table`] — tabular models cover a
    /// closed worker set.
    pub fn push_worker_as<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        w: WorkerId,
        worker: &Worker,
        algo: &mut A,
    ) -> AssignmentBatch {
        let mut batch = AssignmentBatch::new();
        self.serve(w, worker, algo, |a, _| batch.push(a));
        batch
    }

    /// [`AssignmentEngine::push_worker_as`] without the batch: hands
    /// each committed assignment, in ascending task-id order, to
    /// `committed` together with whether it completed its task.
    // ltc-lint: hot-path
    pub(crate) fn serve<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        w: WorkerId,
        worker: &Worker,
        algo: &mut A,
        mut committed: impl FnMut(Assignment, bool),
    ) {
        if let AccuracyModel::Table(table) = &self.accuracy {
            assert!(
                w.index() < table.n_workers(),
                "worker arrival {} exceeds the {}-row accuracy table; tabular engines \
                 cannot stream beyond their table",
                w.0,
                table.n_workers()
            );
        }
        if self.all_completed() {
            return;
        }

        // Detach the scratch buffers so the algorithm can borrow the
        // engine immutably while reading them.
        let mut candidates = std::mem::take(&mut self.cand_buf);
        let mut picks = std::mem::take(&mut self.picks_buf);
        self.candidates(w, worker, &mut candidates);
        if !candidates.is_empty() {
            picks.clear();
            algo.assign(self, w, &candidates, &mut picks);
            let capacity = self.params.capacity as usize;
            debug_assert!(
                picks.len() <= capacity,
                "{} exceeded capacity: {} > {capacity}",
                algo.name(),
                picks.len()
            );
            debug_assert!(
                picks
                    .iter()
                    .all(|p| candidates.iter().any(|c| c.task == p.task)),
                "{} picked a non-candidate task",
                algo.name()
            );
            picks.truncate(capacity);
            picks.sort_unstable_by_key(|p| p.task);
            picks.dedup_by_key(|p| p.task);
            for &Pick { task: t, .. } in &picks {
                // Reuse the candidate computed during enumeration
                // (candidates are sorted by task id); a pick outside the
                // candidate set is skipped, per the defensive contract.
                let Ok(i) = candidates.binary_search_by_key(&t, |c| c.task) else {
                    continue;
                };
                let c = candidates[i];
                let done = self.commit_candidate(w, c);
                committed(
                    Assignment {
                        worker: w,
                        task: t,
                        acc: c.acc,
                        contribution: c.contribution,
                    },
                    done,
                );
            }
        }
        self.cand_buf = candidates;
        self.picks_buf = picks;
    }

    /// Extracts the engine's durable state — everything needed to
    /// continue the stream after a crash: copies of the task vectors,
    /// each sized exactly. The per-task derived structures (the
    /// uncompleted set, the id table, the spatial index, the worker-unit
    /// multiset) are *not* included; [`AssignmentEngine::from_state`]
    /// rebuilds them from the task vectors.
    pub fn to_state(&self) -> EngineState {
        EngineState {
            params: self.params,
            accuracy: self.accuracy.clone(),
            ids: self.ids.clone(),
            tasks: self.tasks.clone(),
            s: self.s.clone(),
            completed: self.completed.clone(),
            next_arrival: self.next_arrival,
            // The *requested* bounds, not the laid-out extent: rebuilding
            // with these reproduces the layout, so restore → snapshot is
            // a fixed point (the laid-out extent rounds up to whole
            // cells and would grow by one cell per round trip).
            index_geometry: self
                .task_index
                .as_ref()
                .map(|idx| (idx.cell_size(), idx.requested_bounds())),
            clamped_insertions: self.index_clamped_insertions(),
            clamp_mark: self.index_clamp_mark,
        }
    }

    /// Builds an engine from durable state (the inverse of
    /// [`AssignmentEngine::to_state`]), taking ownership of its vectors;
    /// the per-task derived structures are rebuilt from them and the
    /// commit counters start at zero. Every continuation observable —
    /// candidate sets, qualities, completion, arrival ids — is identical
    /// to the engine the state was taken from. The only internal
    /// difference is bucket/iteration order in rebuilt structures, which
    /// no decision path observes (candidates are re-sorted by id).
    pub fn from_state(state: EngineState) -> Result<Self, EngineError> {
        state.params.validate().map_err(EngineError::Params)?;
        let n = state.tasks.len();
        if state.ids.len() != n || state.s.len() != n || state.completed.len() != n {
            return Err(EngineError::CorruptState(
                "per-task vectors disagree on the task count",
            ));
        }
        if n > u32::MAX as usize {
            return Err(EngineError::TooManyTasks);
        }
        if state.ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(EngineError::CorruptState(
                "task ids are not strictly increasing",
            ));
        }
        if let AccuracyModel::Table(table) = &state.accuracy {
            if table.n_tasks() != n {
                return Err(EngineError::CorruptState(
                    "accuracy table rows disagree with the task count",
                ));
            }
        }
        for t in &state.tasks {
            if !t.loc.is_finite() {
                return Err(EngineError::BadTaskLocation);
            }
        }
        let task_index = match (state.params.eligibility, state.index_geometry) {
            (Eligibility::Unrestricted, _) => None,
            (Eligibility::WithinRange, geometry) => {
                let (cell_size, bounds) = geometry.unwrap_or_else(|| {
                    (
                        state.params.d_max,
                        BoundingBox::of_points(state.tasks.iter().map(|t| t.loc)).unwrap_or_else(
                            || {
                                BoundingBox::new(
                                    ltc_spatial::Point::ORIGIN,
                                    ltc_spatial::Point::ORIGIN,
                                )
                            },
                        ),
                    )
                });
                let mut index = GridIndex::with_bounds(cell_size, bounds);
                for (i, task) in state.tasks.iter().enumerate() {
                    if !state.completed[i] {
                        index.insert(state.ids[i].0, task.loc);
                    }
                }
                // Restore the durable clamp telemetry. Re-insertion only
                // counted the currently-live out-of-extent tasks, which
                // under-states the cumulative history; a recorded counter
                // (always ≥ the recount, since the counter is monotone
                // over the engine's life) wins, while synthetic states
                // from fresh builds record 0 and keep the recount.
                index.restore_clamp_counter(
                    state.clamped_insertions.max(index.n_clamped_insertions()),
                );
                Some(index)
            }
        };
        let mut engine = Self::assemble(
            state.params,
            state.accuracy,
            task_index,
            state.ids,
            state.tasks,
            state.s,
            state.completed,
        );
        engine.next_arrival = state.next_arrival;
        engine.index_clamp_mark = state.clamp_mark;
        Ok(engine)
    }

    /// Re-derives, in their allocations, the id table, the uncompleted
    /// set (in slot order) and each live task's worker-units (a
    /// completed task's must be 0 already).
    fn reindex(&mut self) {
        self.slot_of.clear();
        if let (Some(first), Some(last)) = (self.ids.first(), self.ids.last()) {
            self.id_base = first.0;
            self.slot_of
                .resize((last.0 - first.0) as usize + 1, NO_SLOT);
        }
        for (slot, id) in self.ids.iter().enumerate() {
            self.slot_of[(id.0 - self.id_base) as usize] = slot as u32;
        }
        self.uncompleted.clear();
        self.uncompleted_pos.clear();
        self.uncompleted_pos.resize(self.tasks.len(), 0);
        for slot in 0..self.tasks.len() {
            if !self.completed[slot] {
                self.uncompleted_pos[slot] = self.uncompleted.len() as u32;
                self.uncompleted.push(slot as u32);
                self.set_units(slot, (self.delta - self.s[slot]).max(0.0).ceil());
            }
        }
    }

    /// The first half of moving tasks to another engine (a stripe
    /// rebalance): removes every task `leaves` picks, with its quality
    /// and completion flag, and compacts what stays in place. Returns the
    /// removed tasks in ascending id order. The commit counters stay:
    /// they count this engine's commits, not its tasks'.
    ///
    /// The engine is whole again only after [`AssignmentEngine::merge_in`]
    /// (the spatial index and the uncompleted set still hold the leavers).
    /// Sigmoid models only: a tabular model never runs sharded.
    pub(crate) fn split_off(&mut self, leaves: impl Fn(&Task) -> bool) -> Migrants {
        debug_assert!(matches!(self.accuracy, AccuracyModel::Sigmoid));
        let mut out = Migrants::default();
        let mut kept = 0;
        for slot in 0..self.tasks.len() {
            let id = self.ids[slot];
            let at = (id.0 - self.id_base) as usize;
            if leaves(&self.tasks[slot]) {
                out.tasks.push(MovedTask {
                    id,
                    task: self.tasks[slot],
                    s: self.s[slot],
                    completed: self.completed[slot],
                });
                self.set_units(slot, 0.0);
                self.slot_of[at] = NO_SLOT;
                continue;
            }
            self.ids[kept] = id;
            self.tasks[kept] = self.tasks[slot];
            self.s[kept] = self.s[slot];
            self.completed[kept] = self.completed[slot];
            self.units[kept] = self.units[slot];
            self.slot_of[at] = kept as u32;
            kept += 1;
        }
        if out.tasks.is_empty() {
            return out;
        }
        self.ids.truncate(kept);
        self.tasks.truncate(kept);
        self.s.truncate(kept);
        self.completed.truncate(kept);
        self.units.truncate(kept);
        out
    }

    /// The second half of a move between engines: inserts the
    /// `arrivals` (ascending ids) among the kept tasks in id order.
    ///
    /// Then rebuilds what derives from the tasks: the id table, the
    /// uncompleted set, and the spatial index, re-laid out over `region`
    /// plus the live tasks with its growth trigger re-armed — exactly
    /// what [`AssignmentEngine::from_state`] builds for the same tasks.
    /// Runs after every [`AssignmentEngine::split_off`], with or without
    /// arrivals.
    pub(crate) fn merge_in(&mut self, arrivals: &Migrants, region: BoundingBox) {
        debug_assert!(matches!(self.accuracy, AccuracyModel::Sigmoid));
        let arriving = &arrivals.tasks;
        debug_assert!(arriving.windows(2).all(|w| w[0].id < w[1].id));
        // Where each arrival lands: after the kept tasks with smaller ids.
        let mut kept = 0;
        let before: Vec<u32> = arriving
            .iter()
            .map(|m| {
                while kept < self.ids.len() && self.ids[kept] < m.id {
                    kept += 1;
                }
                kept as u32
            })
            .collect();
        splice_in(&mut self.ids, &before, |j| arriving[j].id);
        splice_in(&mut self.tasks, &before, |j| arriving[j].task);
        splice_in(&mut self.s, &before, |j| arriving[j].s);
        splice_in(&mut self.completed, &before, |j| arriving[j].completed);
        // Zero, so the rebuild below adds the arrivals' units.
        splice_in(&mut self.units, &before, |_| 0.0);

        self.reindex();
        self.index_clamp_mark = self.index_clamped_insertions();
        if let Some(index) = &mut self.task_index {
            let (ids, tasks) = (&self.ids, &self.tasks);
            let live = self.uncompleted.iter().map(|&slot| {
                let slot = slot as usize;
                (ids[slot].0, tasks[slot].loc)
            });
            let bounds = BoundingBox::of_points(live.clone().map(|(_, p)| p))
                .map_or(region, |l| region.union(l));
            // The clamp counter keeps its history; a recount above it
            // wins, as in `from_state`.
            let history = self.index_clamp_mark;
            index.reload(index.cell_size(), bounds, live);
            let recount = index.n_clamped_insertions() - history;
            index.restore_clamp_counter(history.max(recount));
        }
    }
}

/// One task's durable state while it moves between engines
/// ([`AssignmentEngine::split_off`] → [`AssignmentEngine::merge_in`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MovedTask {
    pub(crate) id: TaskId,
    pub(crate) task: Task,
    /// Accumulated quality `S[t]`.
    pub(crate) s: f64,
    pub(crate) completed: bool,
}

/// Tasks crossing between engines in a stripe rebalance: what one
/// engine sends ([`AssignmentEngine::split_off`]) or receives
/// ([`AssignmentEngine::merge_in`]).
#[derive(Debug, Default)]
pub(crate) struct Migrants {
    /// The tasks in ascending id order.
    pub(crate) tasks: Vec<MovedTask>,
}

/// Inserts `before.len()` new elements into `v` in one backward pass:
/// new element `j` (built by `new(j)`) lands after the first
/// `before[j]` old elements and after new elements `0..j`. `before`
/// must be non-decreasing.
fn splice_in<T: Copy>(v: &mut Vec<T>, before: &[u32], new: impl Fn(usize) -> T) {
    if before.is_empty() {
        return;
    }
    let mut end = v.len();
    v.resize(end + before.len(), new(0));
    for j in (0..before.len()).rev() {
        let b = before[j] as usize;
        v.copy_within(b..end, b + j + 1);
        v[b + j] = new(j);
        end = b;
    }
}

/// The durable state of an [`AssignmentEngine`], produced by
/// [`AssignmentEngine::to_state`] and consumed by
/// [`AssignmentEngine::from_state`]. Plain data: the service-level
/// snapshot format (see [`crate::snapshot`]) serializes it field by
/// field, and `from_state` keeps its vectors rather than copying them.
///
/// It is O(tasks): no decision history and no commit counters. A
/// service's counters belong to the service, where a rebalance moving
/// tasks between engines cannot blur them
/// ([`ServiceSnapshot`](crate::service::ServiceSnapshot)).
///
/// The per-task vectors run parallel, one entry per task the engine
/// holds, in ascending id order.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Platform parameters.
    pub params: ProblemParams,
    /// The accuracy model (including any appended table rows).
    pub accuracy: AccuracyModel,
    /// Each task's id, strictly increasing.
    pub ids: Vec<TaskId>,
    /// The tasks.
    pub tasks: Vec<Task>,
    /// Accumulated quality per task.
    pub s: Vec<f64>,
    /// Completion flags per task.
    pub completed: Vec<bool>,
    /// The engine-local arrival counter.
    pub next_arrival: u64,
    /// `(cell_size, bounds)` of the spatial index, `None` under
    /// [`Eligibility::Unrestricted`].
    pub index_geometry: Option<(f64, BoundingBox)>,
    /// Cumulative border-clamp counter of the spatial index
    /// ([`AssignmentEngine::index_clamped_insertions`]) — durable, so
    /// restore/rebalance keep the operator telemetry instead of silently
    /// resetting it. Zero under [`Eligibility::Unrestricted`].
    pub clamped_insertions: u64,
    /// The counter's value at the last adaptive index growth (the
    /// re-arm point of [`AssignmentEngine::maybe_grow_index`]); carrying
    /// it keeps the growth threshold armed exactly where it was instead
    /// of restarting the count from zero. Always `<= clamped_insertions`.
    pub clamp_mark: u64,
}

/// The checks a task post must pass, in their one order: the accuracy
/// row (present exactly when the model is tabular — `table_workers` is
/// its declared worker count — with that width and every value in
/// `[0, 1]`), then the location, then the id space (`n_tasks` already
/// posted). The engine's add paths run it, and so does the service when
/// it admits a post, so every front-end rejects a post the same way.
pub(crate) fn validate_post(
    table_workers: Option<usize>,
    task: &Task,
    accuracies: Option<&[f64]>,
    n_tasks: usize,
) -> Result<(), EngineError> {
    match (table_workers, accuracies) {
        (None, None) => {}
        (None, Some(_)) => return Err(EngineError::UnexpectedAccuracyRow),
        (Some(_), None) => return Err(EngineError::MissingAccuracyRow),
        (Some(expected), Some(row)) => {
            if row.len() != expected {
                return Err(EngineError::BadAccuracyRow {
                    expected,
                    got: row.len(),
                });
            }
            if let Some(&value) = row.iter().find(|a| !(0.0..=1.0).contains(*a) || a.is_nan()) {
                return Err(EngineError::AccuracyOutOfRange(value));
            }
        }
    }
    if !task.loc.is_finite() {
        return Err(EngineError::BadTaskLocation);
    }
    if n_tasks >= u32::MAX as usize {
        return Err(EngineError::TooManyTasks);
    }
    Ok(())
}

/// Why an [`AssignmentEngine`] operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Invalid [`ProblemParams`].
    Params(crate::model::ParamsError),
    /// A posted task has a non-finite location.
    BadTaskLocation,
    /// A tabular engine needs a per-worker accuracy row for each new
    /// task; use [`AssignmentEngine::add_task_with_accuracies`].
    MissingAccuracyRow,
    /// An accuracy row was supplied but the engine predicts accuracies
    /// itself (sigmoid model).
    UnexpectedAccuracyRow,
    /// The supplied accuracy row has the wrong length for the table.
    BadAccuracyRow {
        /// Entries the table requires (one per worker).
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// An accuracy value in a supplied row lies outside `[0, 1]`.
    AccuracyOutOfRange(f64),
    /// More than `u32::MAX` tasks.
    TooManyTasks,
    /// An [`EngineState`] is internally inconsistent (e.g. truncated or
    /// hand-edited snapshot data).
    CorruptState(&'static str),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Params(e) => write!(f, "invalid parameters: {e}"),
            EngineError::BadTaskLocation => write!(f, "task has a non-finite location"),
            EngineError::MissingAccuracyRow => write!(
                f,
                "a tabular engine needs per-worker accuracies for each new task; \
                 use add_task_with_accuracies"
            ),
            EngineError::UnexpectedAccuracyRow => write!(
                f,
                "the sigmoid model predicts accuracies itself; post the task without a row"
            ),
            EngineError::BadAccuracyRow { expected, got } => write!(
                f,
                "accuracy row has {got} entries, the table needs one per worker ({expected})"
            ),
            EngineError::AccuracyOutOfRange(v) => {
                write!(f, "accuracy {v} lies outside [0, 1]")
            }
            EngineError::TooManyTasks => write!(f, "engine exceeds u32 task-id space"),
            EngineError::CorruptState(what) => write!(f, "corrupt engine state: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use ltc_spatial::Point;

    fn instance() -> Instance {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        Instance::new(
            vec![
                Task::new(Point::ORIGIN),
                Task::new(Point::new(10.0, 0.0)),
                Task::new(Point::new(400.0, 0.0)),
            ],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); 8],
            params,
        )
        .unwrap()
    }

    #[test]
    fn eligible_skips_far_and_completed_tasks() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        let w0 = &inst.workers()[0];
        let mut buf = Vec::new();
        engine.candidates(WorkerId(0), w0, &mut buf);
        let ids: Vec<u32> = buf.iter().map(|c| c.task.0).collect();
        assert_eq!(ids, vec![0, 1], "task 2 is 400 units away");

        // Complete task 0 and re-query: the index evicted it.
        while !engine.is_completed(TaskId(0)) {
            engine.commit(WorkerId(0), w0, TaskId(0));
        }
        engine.candidates(WorkerId(1), &inst.workers()[1], &mut buf);
        let ids: Vec<u32> = buf.iter().map(|c| c.task.0).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn commit_accumulates_and_completes() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        assert_eq!(engine.n_uncompleted(), 3);
        let w = &inst.workers()[0];
        let c = engine.commit(WorkerId(0), w, TaskId(0)).contribution;
        assert!(c > 0.7 && c < 1.0);
        assert!((engine.quality(TaskId(0)) - c).abs() < 1e-12);
        assert!(!engine.all_completed());
        // δ(0.3) ≈ 2.408, each contribution ≈ 0.81 ⇒ 3 commits complete.
        engine.commit(WorkerId(1), w, TaskId(0));
        engine.commit(WorkerId(2), w, TaskId(0));
        assert!(engine.is_completed(TaskId(0)));
        assert_eq!(engine.n_uncompleted(), 2);
        let mut uncompleted: Vec<u32> = engine.uncompleted_tasks().map(|t| t.0).collect();
        uncompleted.sort_unstable();
        assert_eq!(uncompleted, vec![1, 2]);
    }

    #[test]
    fn remaining_clamps_at_zero() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        let w = &inst.workers()[0];
        for i in 0..4 {
            engine.commit(WorkerId(i), w, TaskId(0));
        }
        assert_eq!(engine.remaining(TaskId(0)), 0.0);
    }

    #[test]
    fn latency_needs_every_task_completed() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        assert_eq!(engine.latency(), None);
        let w = &inst.workers()[0];
        engine.commit(WorkerId(4), w, TaskId(0));
        assert_eq!(engine.latest_assigned(), Some(5));
        assert_eq!(engine.latency(), None, "two tasks are still open");
    }

    #[test]
    fn commits_are_counted_not_recorded() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        let mut algo = crate::online::Laf::new();
        let (mut committed, mut latest) = (0, None);
        for worker in inst.workers() {
            let batch = engine.push_worker(worker, &mut algo);
            committed += batch.len() as u64;
            latest = batch
                .iter()
                .map(|a| a.worker.arrival_index())
                .max()
                .or(latest);
        }
        assert!(committed > 0);
        assert_eq!(engine.n_assignments(), committed);
        assert_eq!(engine.latest_assigned(), latest);
    }

    #[test]
    fn unrestricted_policy_scans_all_tasks() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .eligibility(Eligibility::Unrestricted)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN), Task::new(Point::new(400.0, 0.0))],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95)],
            params,
        )
        .unwrap();
        let engine = AssignmentEngine::from_instance(&inst);
        let mut buf = Vec::new();
        engine.candidates(WorkerId(0), &inst.workers()[0], &mut buf);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn add_task_requires_a_row_under_tables_and_finite_locations() {
        let inst = crate::toy::toy_instance(0.2);
        let mut engine = AssignmentEngine::from_instance(&inst);
        assert_eq!(
            engine.add_task(Task::new(Point::ORIGIN)),
            Err(EngineError::MissingAccuracyRow)
        );

        let params = ProblemParams::builder().build().unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut engine = AssignmentEngine::new(params, region).unwrap();
        assert_eq!(
            engine.add_task(Task::new(Point::new(f64::NAN, 0.0))),
            Err(EngineError::BadTaskLocation)
        );
        assert!(engine.add_task(Task::new(Point::new(1.0, 1.0))).is_ok());
        assert_eq!(engine.n_tasks(), 1);
        // A sigmoid engine predicts accuracies itself.
        assert_eq!(
            engine.add_task_with_accuracies(Task::new(Point::ORIGIN), &[0.9]),
            Err(EngineError::UnexpectedAccuracyRow)
        );
    }

    #[test]
    fn tabular_add_task_with_accuracies_appends_a_row() {
        let inst = crate::toy::toy_instance(0.2);
        let mut engine = AssignmentEngine::from_instance(&inst);
        let n_workers = inst.n_workers();
        let before = engine.n_tasks();

        // Wrong row length is rejected without mutating the engine.
        assert!(matches!(
            engine.add_task_with_accuracies(Task::new(Point::ORIGIN), &[0.9]),
            Err(EngineError::BadAccuracyRow { .. })
        ));
        // A right-length row with an out-of-range value names the value.
        let mut bad = vec![0.9; n_workers];
        bad[1] = 1.5;
        assert_eq!(
            engine.add_task_with_accuracies(Task::new(Point::ORIGIN), &bad),
            Err(EngineError::AccuracyOutOfRange(1.5))
        );
        assert_eq!(engine.n_tasks(), before);

        let row = vec![0.94; n_workers];
        let t = engine
            .add_task_with_accuracies(Task::new(Point::new(2.0, 2.0)), &row)
            .unwrap();
        assert_eq!(t.index(), before);
        assert_eq!(engine.n_tasks(), before + 1);
        // The appended row is what the engine now predicts for the task.
        let w0 = inst.workers()[0];
        assert_eq!(engine.acc(WorkerId(0), &w0, t), 0.94);
    }

    #[test]
    fn tasks_keep_the_ids_they_were_posted_under() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut engine = AssignmentEngine::new(params, region).unwrap();
        for (id, x) in [(7, 10.0), (9, 12.0), (30, 80.0)] {
            engine
                .add_task_as(TaskId(id), Task::new(Point::new(x, 0.0)))
                .unwrap();
        }
        let worker = Worker::new(Point::new(11.0, 0.0), 0.95);
        let mut buf = Vec::new();
        engine.candidates(WorkerId(0), &worker, &mut buf);
        let ids: Vec<u32> = buf.iter().map(|c| c.task.0).collect();
        assert_eq!(ids, vec![7, 9]);
        let batch = engine.push_worker(&worker, &mut crate::online::Laf::new());
        assert_eq!(batch.len(), 2);
        assert!(engine.quality(TaskId(9)) > 0.0);
        // The ids survive a state round trip, log included.
        let state = engine.to_state();
        assert_eq!(state.ids, vec![TaskId(7), TaskId(9), TaskId(30)]);
        let restored = AssignmentEngine::from_state(state.clone()).unwrap();
        assert_eq!(restored.to_state(), state);
        assert_eq!(restored.quality(TaskId(9)), engine.quality(TaskId(9)));
        // The next own id is one past the largest held.
        assert_eq!(engine.add_task(Task::new(Point::ORIGIN)), Ok(TaskId(31)));
        // A state whose ids do not ascend is refused.
        let mut unordered = state;
        unordered.ids.swap(0, 1);
        assert_eq!(
            AssignmentEngine::from_state(unordered).unwrap_err(),
            EngineError::CorruptState("task ids are not strictly increasing")
        );
    }

    #[test]
    #[should_panic(expected = "is not above every id the engine holds")]
    fn an_id_below_a_held_one_panics() {
        let params = ProblemParams::builder().build().unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut engine = AssignmentEngine::new(params, region).unwrap();
        engine
            .add_task_as(TaskId(5), Task::new(Point::ORIGIN))
            .unwrap();
        engine
            .add_task_as(TaskId(5), Task::new(Point::ORIGIN))
            .unwrap();
    }

    #[test]
    fn incremental_units_match_a_fresh_scan() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        let w = &inst.workers()[0];
        let scan = |e: &AssignmentEngine| {
            let mut sum = 0.0;
            let mut max = 0.0f64;
            for t in e.uncompleted_tasks() {
                let u = e.remaining(t).ceil();
                sum += u;
                max = max.max(u);
            }
            (sum, max)
        };
        assert_eq!(engine.remaining_units(), scan(&engine));
        for i in 0..6u64 {
            engine.commit(WorkerId(i), w, TaskId((i % 2) as u32));
            assert_eq!(engine.remaining_units(), scan(&engine));
        }
        // Drive task 0 to completion: its units must leave the multiset.
        while !engine.is_completed(TaskId(0)) {
            engine.commit(WorkerId(99), w, TaskId(0));
        }
        assert_eq!(engine.remaining_units(), scan(&engine));
    }

    #[test]
    fn adaptive_index_growth_is_decision_neutral_and_stops_clamping() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        // The declared region badly under-covers the workload: every task
        // lands in a hotspot around (500, 500).
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut adaptive = AssignmentEngine::new(params, region).unwrap();
        let mut fixed = AssignmentEngine::new(params, region).unwrap();
        let mut algo_a = crate::online::Laf::new();
        let mut algo_f = crate::online::Laf::new();
        for i in 0..10u64 {
            let task = Task::new(Point::new(
                500.0 + (i % 5) as f64 * 6.0,
                500.0 + (i / 5) as f64 * 6.0,
            ));
            adaptive.add_task(task).unwrap();
            fixed.add_task(task).unwrap();
            adaptive.maybe_grow_index(4);
            let worker = Worker::new(Point::new(505.0 + (i % 3) as f64, 502.0), 0.9);
            let a = adaptive.push_worker(&worker, &mut algo_a);
            let b = fixed.push_worker(&worker, &mut algo_f);
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                b.iter().collect::<Vec<_>>(),
                "growth changed a decision at step {i}"
            );
        }
        // The adaptive engine grew once the threshold was crossed, so
        // later hotspot inserts stopped clamping; the fixed engine kept
        // clamping every insert.
        let grown = adaptive.index_clamped_insertions();
        assert!((4..10).contains(&grown), "got {grown}");
        assert_eq!(fixed.index_clamped_insertions(), 10);
        adaptive
            .add_task(Task::new(Point::new(510.0, 505.0)))
            .unwrap();
        assert_eq!(
            adaptive.index_clamped_insertions(),
            grown,
            "post-growth hotspot inserts must not clamp"
        );
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let inst = instance();
        let mut engine = AssignmentEngine::from_instance(&inst);
        let mut algo = crate::online::Laf::new();
        for worker in &inst.workers()[..3] {
            engine.push_worker(worker, &mut algo);
        }
        let mut restored = AssignmentEngine::from_state(engine.to_state()).unwrap();
        assert_eq!(restored.n_workers_seen(), engine.n_workers_seen());
        assert_eq!(restored.n_assignments(), 0, "the state carries no counters");
        assert_eq!(restored.remaining_units(), engine.remaining_units());
        for worker in &inst.workers()[3..] {
            let a = engine.push_worker(worker, &mut algo);
            let b = restored.push_worker(worker, &mut crate::online::Laf::new());
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "cannot stream beyond their table")]
    fn streaming_past_a_tabular_accuracy_model_panics_clearly() {
        let inst = crate::toy::toy_instance(0.2);
        let mut engine = AssignmentEngine::from_instance(&inst);
        let mut algo = crate::online::Laf::new();
        let worker = inst.workers()[0];
        // The toy table has 8 rows; the 9th push must fail loudly, not
        // with an index-out-of-bounds deep in the accuracy table.
        for _ in 0..9 {
            engine.push_worker(&worker, &mut algo);
        }
    }

    #[test]
    fn engine_is_owned_and_outlives_its_instance() {
        // The whole point of the refactor: no borrowed lifetime.
        let engine = {
            let inst = instance();
            AssignmentEngine::from_instance(&inst)
        };
        assert_eq!(engine.n_tasks(), 3);
        assert_eq!(engine.n_uncompleted(), 3);
    }
}
