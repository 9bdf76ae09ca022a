//! Task–worker arrangements and feasibility checking (paper Def. 6).

use super::params::COMPLETION_EPS;
use super::{Instance, TaskId, WorkerId};
use std::collections::HashMap;
use std::fmt;

/// One committed `(worker, task)` pair, with the accuracy values frozen at
/// assignment time (useful for downstream answer simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The recruited worker.
    pub worker: WorkerId,
    /// The task assigned to them.
    pub task: TaskId,
    /// Predicted accuracy `Acc(w,t)` at assignment time.
    pub acc: f64,
    /// Quality contribution (`Acc*` under the Hoeffding model).
    pub contribution: f64,
}

/// An arrangement `M`: the ordered list of committed assignments plus the
/// derived per-task quality totals.
///
/// Assignments are append-only, mirroring the paper's *invariable
/// constraint* (a commitment cannot be revoked).
#[derive(Debug, Clone, Default)]
pub struct Arrangement {
    assignments: Vec<Assignment>,
    max_worker: Option<WorkerId>,
}

impl Arrangement {
    /// An empty arrangement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves capacity for at least `additional` more assignments, so a
    /// caller that knows its commit volume up front can keep the append
    /// path allocation-free.
    pub fn reserve(&mut self, additional: usize) {
        self.assignments.reserve(additional);
    }

    /// Adopts a restored log without copying it. One pass over the log
    /// checks that every assignment names a task `known` accepts and
    /// finds the worker maximum; `None` if some assignment names an
    /// unknown task.
    pub(crate) fn adopt(
        assignments: Vec<Assignment>,
        known: impl Fn(TaskId) -> bool,
    ) -> Option<Self> {
        let mut max_worker = None;
        for a in &assignments {
            if !known(a.task) {
                return None;
            }
            max_worker = max_worker.max(Some(a.worker));
        }
        Some(Self {
            assignments,
            max_worker,
        })
    }

    /// Commits an assignment (append-only).
    ///
    /// A full log grows to the next power of two (at least 4), not to
    /// twice its length. A log pushed from empty passes through the same
    /// capacities either way. A log restored from a snapshot starts at
    /// capacity equal to its length, and this rule brings it back onto
    /// the capacities an uninterrupted log has at its first growth.
    pub fn push(&mut self, assignment: Assignment) {
        let len = self.assignments.len();
        if len == self.assignments.capacity() {
            self.assignments
                .reserve_exact((len + 1).next_power_of_two().max(4) - len);
        }
        self.max_worker = Some(match self.max_worker {
            Some(m) => m.max(assignment.worker),
            None => assignment.worker,
        });
        self.assignments.push(assignment);
    }

    /// All assignments in commit order.
    #[inline]
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The assignment log and its worker maximum, for an engine that
    /// rewrites its log in place when tasks move between engines; the
    /// caller keeps the maximum equal to the log's largest worker.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<Assignment>, &mut Option<WorkerId>) {
        (&mut self.assignments, &mut self.max_worker)
    }

    /// Number of committed assignments.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no assignment has been committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The largest arrival index among recruited workers — the paper's
    /// objective `MinMax(M) = max_t max_{w∈W_t} o_w`. `None` if empty.
    pub fn max_index(&self) -> Option<u64> {
        self.max_worker.map(WorkerId::arrival_index)
    }

    /// Sum of contributions per task (`S` in the paper's pseudo-code).
    pub fn quality_per_task(&self, n_tasks: usize) -> Vec<f64> {
        let mut s = vec![0.0; n_tasks];
        for a in &self.assignments {
            s[a.task.index()] += a.contribution;
        }
        s
    }

    /// Number of tasks each worker was assigned.
    pub fn load_per_worker(&self) -> HashMap<WorkerId, u32> {
        let mut load = HashMap::new();
        for a in &self.assignments {
            *load.entry(a.worker).or_insert(0) += 1;
        }
        load
    }

    /// Verifies the arrangement against every LTC constraint:
    /// capacity (≤ K per worker), eligibility of each pair, no duplicate
    /// `(w,t)` pair, contributions consistent with the instance, and the
    /// error-rate constraint (`S[t] ≥ δ` for every task).
    pub fn check_feasible(&self, instance: &Instance) -> Result<(), FeasibilityError> {
        let k = instance.params().capacity;
        let mut load: HashMap<WorkerId, u32> = HashMap::new();
        let mut seen: std::collections::HashSet<(WorkerId, TaskId)> =
            std::collections::HashSet::with_capacity(self.assignments.len());
        let mut s = vec![0.0f64; instance.n_tasks()];
        for a in &self.assignments {
            if a.worker.index() >= instance.n_workers() || a.task.index() >= instance.n_tasks() {
                return Err(FeasibilityError::UnknownIds(a.worker, a.task));
            }
            if !seen.insert((a.worker, a.task)) {
                return Err(FeasibilityError::DuplicatePair(a.worker, a.task));
            }
            let l = load.entry(a.worker).or_insert(0);
            *l += 1;
            if *l > k {
                return Err(FeasibilityError::CapacityExceeded(a.worker));
            }
            if !instance.is_eligible(a.worker, a.task) {
                return Err(FeasibilityError::IneligiblePair(a.worker, a.task));
            }
            let expect = instance.contribution(a.worker, a.task);
            if (expect - a.contribution).abs() > 1e-9 {
                return Err(FeasibilityError::ContributionMismatch {
                    worker: a.worker,
                    task: a.task,
                    recorded: a.contribution,
                    expected: expect,
                });
            }
            s[a.task.index()] += a.contribution;
        }
        let delta = instance.delta();
        for (i, &q) in s.iter().enumerate() {
            if q < delta - COMPLETION_EPS {
                return Err(FeasibilityError::TaskIncomplete {
                    task: TaskId(i as u32),
                    quality: q,
                    delta,
                });
            }
        }
        Ok(())
    }
}

/// The result of running an LTC algorithm over a worker stream.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The arrangement the algorithm committed.
    pub arrangement: Arrangement,
    /// Whether every task reached the completion threshold `δ`. `false`
    /// means the worker stream was exhausted first (the instance was too
    /// sparse for the algorithm).
    pub completed: bool,
}

impl RunOutcome {
    /// The paper's effectiveness metric: the maximum arrival index over
    /// recruited workers, defined only when all tasks completed.
    pub fn latency(&self) -> Option<u64> {
        if self.completed {
            self.arrangement.max_index()
        } else {
            None
        }
    }
}

/// Why an arrangement violates the LTC constraints.
#[derive(Debug, Clone, PartialEq)]
pub enum FeasibilityError {
    /// Assignment references ids outside the instance.
    UnknownIds(WorkerId, TaskId),
    /// The same `(w,t)` pair was committed twice.
    DuplicatePair(WorkerId, TaskId),
    /// A worker exceeds the capacity `K`.
    CapacityExceeded(WorkerId),
    /// A pair violates the eligibility policy.
    IneligiblePair(WorkerId, TaskId),
    /// A recorded contribution disagrees with the instance's accuracy
    /// model.
    ContributionMismatch {
        /// Worker of the offending assignment.
        worker: WorkerId,
        /// Task of the offending assignment.
        task: TaskId,
        /// Contribution stored in the arrangement.
        recorded: f64,
        /// Contribution recomputed from the instance.
        expected: f64,
    },
    /// A task never reached the completion threshold.
    TaskIncomplete {
        /// The unfinished task.
        task: TaskId,
        /// Accumulated quality.
        quality: f64,
        /// Required threshold.
        delta: f64,
    },
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::UnknownIds(w, t) => {
                write!(f, "assignment ({}, {}) references unknown ids", w.0, t.0)
            }
            FeasibilityError::DuplicatePair(w, t) => {
                write!(f, "pair (worker {}, task {}) committed twice", w.0, t.0)
            }
            FeasibilityError::CapacityExceeded(w) => {
                write!(f, "worker {} exceeds capacity K", w.0)
            }
            FeasibilityError::IneligiblePair(w, t) => {
                write!(f, "pair (worker {}, task {}) is not eligible", w.0, t.0)
            }
            FeasibilityError::ContributionMismatch {
                worker,
                task,
                recorded,
                expected,
            } => write!(
                f,
                "contribution of (worker {}, task {}) recorded as {recorded} but the \
                 instance computes {expected}",
                worker.0, task.0
            ),
            FeasibilityError::TaskIncomplete {
                task,
                quality,
                delta,
            } => write!(
                f,
                "task {} accumulated quality {quality} < required δ = {delta}",
                task.0
            ),
        }
    }
}

impl std::error::Error for FeasibilityError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use ltc_spatial::Point;

    fn tiny_instance() -> Instance {
        // One task, three co-located workers with p = 0.95:
        // Acc ≈ 0.95, Acc* ≈ 0.81, δ(ε=0.3) ≈ 2.408 ⇒ 3 workers suffice.
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        Instance::new(
            vec![Task::new(Point::ORIGIN)],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); 3],
            params,
        )
        .unwrap()
    }

    fn assign(inst: &Instance, w: u64, t: u32) -> Assignment {
        Assignment {
            worker: WorkerId(w),
            task: TaskId(t),
            acc: inst.acc(WorkerId(w), TaskId(t)),
            contribution: inst.contribution(WorkerId(w), TaskId(t)),
        }
    }

    #[test]
    fn max_index_tracks_latest_worker() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        assert_eq!(arr.max_index(), None);
        arr.push(assign(&inst, 2, 0));
        arr.push(assign(&inst, 0, 0));
        assert_eq!(arr.max_index(), Some(3));
    }

    #[test]
    fn adopted_logs_rejoin_the_power_of_two_capacities() {
        // Capacity is all this test reads; the accuracy values are
        // placeholders.
        let at = |w| Assignment {
            worker: WorkerId(w),
            task: TaskId(0),
            acc: 0.9,
            contribution: 0.5,
        };
        let mut log = Vec::with_capacity(5);
        log.extend((0..5).map(at));
        assert_eq!(log.capacity(), 5);
        let mut adopted = Arrangement::adopt(log, |t| t.0 < 1).unwrap();
        assert_eq!(adopted.assignments.capacity(), 5);
        assert_eq!(adopted.max_index(), Some(5));
        adopted.push(at(5));
        assert_eq!(adopted.assignments.capacity(), 8);

        let mut pushed = Arrangement::new();
        let mut capacities = Vec::new();
        for w in 0..16 {
            pushed.push(at(w));
            let cap = pushed.assignments.capacity();
            if capacities.last() != Some(&cap) {
                capacities.push(cap);
            }
        }
        assert_eq!(capacities, [4, 8, 16]);
    }

    #[test]
    fn feasible_arrangement_passes() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        for w in 0..3 {
            arr.push(assign(&inst, w, 0));
        }
        arr.check_feasible(&inst).unwrap();
    }

    #[test]
    fn incomplete_task_detected() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        arr.push(assign(&inst, 0, 0));
        let err = arr.check_feasible(&inst).unwrap_err();
        assert!(matches!(err, FeasibilityError::TaskIncomplete { .. }));
    }

    #[test]
    fn duplicate_pair_detected() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        arr.push(assign(&inst, 0, 0));
        arr.push(assign(&inst, 0, 0));
        let err = arr.check_feasible(&inst).unwrap_err();
        assert_eq!(err, FeasibilityError::DuplicatePair(WorkerId(0), TaskId(0)));
    }

    #[test]
    fn capacity_violation_detected() {
        // Two tasks, capacity 1, one worker doing both.
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN), Task::new(Point::new(2.0, 0.0))],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); 4],
            params,
        )
        .unwrap();
        let mut arr = Arrangement::new();
        arr.push(assign(&inst, 0, 0));
        arr.push(assign(&inst, 0, 1));
        let err = arr.check_feasible(&inst).unwrap_err();
        assert_eq!(err, FeasibilityError::CapacityExceeded(WorkerId(0)));
    }

    #[test]
    fn ineligible_pair_detected() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN), Task::new(Point::new(500.0, 0.0))],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); 4],
            params,
        )
        .unwrap();
        let mut arr = Arrangement::new();
        arr.push(Assignment {
            worker: WorkerId(0),
            task: TaskId(1),
            acc: inst.acc(WorkerId(0), TaskId(1)),
            contribution: inst.contribution(WorkerId(0), TaskId(1)),
        });
        let err = arr.check_feasible(&inst).unwrap_err();
        assert_eq!(
            err,
            FeasibilityError::IneligiblePair(WorkerId(0), TaskId(1))
        );
    }

    #[test]
    fn contribution_mismatch_detected() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        let mut a = assign(&inst, 0, 0);
        a.contribution += 0.5;
        arr.push(a);
        let err = arr.check_feasible(&inst).unwrap_err();
        assert!(matches!(err, FeasibilityError::ContributionMismatch { .. }));
    }

    #[test]
    fn outcome_latency_requires_completion() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        arr.push(assign(&inst, 1, 0));
        let incomplete = RunOutcome {
            arrangement: arr.clone(),
            completed: false,
        };
        assert_eq!(incomplete.latency(), None);
        let complete = RunOutcome {
            arrangement: arr,
            completed: true,
        };
        assert_eq!(complete.latency(), Some(2));
    }

    #[test]
    fn quality_per_task_sums_contributions() {
        let inst = tiny_instance();
        let mut arr = Arrangement::new();
        arr.push(assign(&inst, 0, 0));
        arr.push(assign(&inst, 1, 0));
        let s = arr.quality_per_task(1);
        let each = inst.contribution(WorkerId(0), TaskId(0));
        assert!((s[0] - 2.0 * each).abs() < 1e-12);
    }
}
