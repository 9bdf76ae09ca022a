//! An LTC problem instance: tasks, a worker stream, and parameters.

use super::accuracy::{acc_star, AccuracyModel};
use super::params::{Eligibility, ProblemParams, QualityModel};
use super::{Task, TaskId, Worker, WorkerId};
use std::fmt;

/// A complete LTC problem instance (offline view; the online algorithms
/// simply consume [`Instance::workers`] in order without peeking ahead).
#[derive(Debug, Clone)]
pub struct Instance {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    params: ProblemParams,
    accuracy: AccuracyModel,
}

impl Instance {
    /// Builds an instance with the default sigmoid accuracy model (Eq. 1)
    /// and validates it.
    pub fn new(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        params: ProblemParams,
    ) -> Result<Self, InstanceError> {
        Self::with_accuracy(tasks, workers, params, AccuracyModel::Sigmoid)
    }

    /// Builds an instance with an explicit accuracy model and validates it.
    pub fn with_accuracy(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        params: ProblemParams,
        accuracy: AccuracyModel,
    ) -> Result<Self, InstanceError> {
        params.validate().map_err(InstanceError::Params)?;
        if tasks.is_empty() {
            return Err(InstanceError::NoTasks);
        }
        for (i, t) in tasks.iter().enumerate() {
            if !t.loc.is_finite() {
                return Err(InstanceError::BadTaskLocation(TaskId(i as u32)));
            }
        }
        for (i, w) in workers.iter().enumerate() {
            if !w.loc.is_finite() {
                return Err(InstanceError::BadWorkerLocation(WorkerId(i as u64)));
            }
            if !w.accuracy.is_finite() || w.accuracy < params.min_accuracy || w.accuracy > 1.0 {
                return Err(InstanceError::BadWorkerAccuracy {
                    worker: WorkerId(i as u64),
                    accuracy: w.accuracy,
                });
            }
        }
        if let AccuracyModel::Table(table) = &accuracy {
            if table.n_tasks() != tasks.len() || table.n_workers() != workers.len() {
                return Err(InstanceError::TableShape {
                    expected: (workers.len(), tasks.len()),
                    got: (table.n_workers(), table.n_tasks()),
                });
            }
        }
        if tasks.len() > u32::MAX as usize || workers.len() > u32::MAX as usize {
            return Err(InstanceError::TooLarge);
        }
        Ok(Self {
            tasks,
            workers,
            params,
            accuracy,
        })
    }

    /// The task set `T`.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The worker stream `W` in arrival order.
    #[inline]
    pub fn workers(&self) -> &[Worker] {
        &self.workers
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

    /// Number of tasks `|T|`.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `|W|`.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The completion threshold `δ` (see [`ProblemParams::delta`]).
    #[inline]
    pub fn delta(&self) -> f64 {
        self.params.delta()
    }

    /// Predicted accuracy `Acc(w,t)` (Def. 3).
    #[inline]
    pub fn acc(&self, w: WorkerId, t: TaskId) -> f64 {
        self.accuracy.acc(
            w.index(),
            &self.workers[w.index()],
            t.index(),
            &self.tasks[t.index()],
            &self.params,
        )
    }

    /// Quality contribution of assigning `t` to `w`: `Acc*(w,t)` under the
    /// Hoeffding model, plain `Acc(w,t)` under a fixed threshold.
    #[inline]
    pub fn contribution(&self, w: WorkerId, t: TaskId) -> f64 {
        let acc = self.acc(w, t);
        match self.params.quality {
            QualityModel::Hoeffding => acc_star(acc),
            QualityModel::FixedThreshold(_) => acc,
        }
    }

    /// Whether the pair `(w,t)` may be assigned under the instance's
    /// eligibility policy (see [`Eligibility`]).
    #[inline]
    pub fn is_eligible(&self, w: WorkerId, t: TaskId) -> bool {
        match self.params.eligibility {
            Eligibility::Unrestricted => true,
            Eligibility::WithinRange => {
                let dist_ok = self.workers[w.index()]
                    .loc
                    .distance_sq(self.tasks[t.index()].loc)
                    <= self.params.d_max * self.params.d_max;
                dist_ok && self.acc(w, t) >= 0.5
            }
        }
    }
}

/// Why an [`Instance`] could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Invalid [`ProblemParams`].
    Params(super::params::ParamsError),
    /// The task set is empty.
    NoTasks,
    /// A task has a non-finite location.
    BadTaskLocation(TaskId),
    /// A worker has a non-finite location.
    BadWorkerLocation(WorkerId),
    /// A worker's historical accuracy is non-finite, above 1, or below the
    /// spam threshold.
    BadWorkerAccuracy {
        /// The offending worker.
        worker: WorkerId,
        /// Its recorded accuracy.
        accuracy: f64,
    },
    /// A tabular accuracy model does not match the instance dimensions.
    TableShape {
        /// `(|W|, |T|)` required by the instance.
        expected: (usize, usize),
        /// `(rows, cols)` provided by the table.
        got: (usize, usize),
    },
    /// More than `u32::MAX` tasks or workers.
    TooLarge,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Params(e) => write!(f, "invalid parameters: {e}"),
            InstanceError::NoTasks => write!(f, "instance has no tasks"),
            InstanceError::BadTaskLocation(t) => {
                write!(f, "task {} has a non-finite location", t.0)
            }
            InstanceError::BadWorkerLocation(w) => {
                write!(f, "worker {} has a non-finite location", w.0)
            }
            InstanceError::BadWorkerAccuracy { worker, accuracy } => write!(
                f,
                "worker {} has invalid historical accuracy {accuracy} (must be within \
                 [min_accuracy, 1])",
                worker.0
            ),
            InstanceError::TableShape { expected, got } => write!(
                f,
                "accuracy table shape {got:?} does not match (|W|, |T|) = {expected:?}"
            ),
            InstanceError::TooLarge => write!(f, "instance exceeds u32 id space"),
        }
    }
}

impl std::error::Error for InstanceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccuracyTable;
    use ltc_spatial::Point;

    fn small_params() -> ProblemParams {
        ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_fields() {
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN)],
            vec![Worker::new(Point::new(1.0, 1.0), 0.9)],
            small_params(),
        )
        .unwrap();
        assert_eq!(inst.n_tasks(), 1);
        assert_eq!(inst.n_workers(), 1);
        assert!((inst.delta() - 2.0 * 5.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_tasks() {
        let err = Instance::new(vec![], vec![], small_params()).unwrap_err();
        assert_eq!(err, InstanceError::NoTasks);
    }

    #[test]
    fn rejects_spam_worker() {
        let err = Instance::new(
            vec![Task::new(Point::ORIGIN)],
            vec![Worker::new(Point::ORIGIN, 0.5)],
            small_params(),
        )
        .unwrap_err();
        assert!(matches!(err, InstanceError::BadWorkerAccuracy { .. }));
    }

    #[test]
    fn rejects_nan_locations() {
        let err = Instance::new(
            vec![Task::new(Point::new(f64::NAN, 0.0))],
            vec![],
            small_params(),
        )
        .unwrap_err();
        assert_eq!(err, InstanceError::BadTaskLocation(TaskId(0)));
    }

    #[test]
    fn rejects_mismatched_table() {
        let err = Instance::with_accuracy(
            vec![Task::new(Point::ORIGIN); 2],
            vec![Worker::new(Point::ORIGIN, 0.9)],
            small_params(),
            AccuracyModel::Table(AccuracyTable::from_rows(&[vec![0.9]])),
        )
        .unwrap_err();
        assert!(matches!(err, InstanceError::TableShape { .. }));
    }

    #[test]
    fn eligibility_requires_proximity_and_weight() {
        let inst = Instance::new(
            vec![
                Task::new(Point::ORIGIN),
                Task::new(Point::new(100.0, 0.0)),
                Task::new(Point::new(29.5, 0.0)),
            ],
            vec![Worker::new(Point::ORIGIN, 0.9)],
            small_params(),
        )
        .unwrap();
        let w = WorkerId(0);
        assert!(inst.is_eligible(w, TaskId(0)));
        // Too far.
        assert!(!inst.is_eligible(w, TaskId(1)));
        // Within d_max but sigmoid ≈ 0.62 ⇒ Acc ≈ 0.56 ≥ 0.5: eligible.
        assert!(inst.is_eligible(w, TaskId(2)));
    }

    #[test]
    fn boundary_worker_with_low_accuracy_is_ineligible() {
        // At distance d_max the sigmoid term is 0.5, so Acc = p_w / 2 < 0.5
        // for any p_w < 1: the weight would be negative.
        let inst = Instance::new(
            vec![Task::new(Point::new(30.0, 0.0))],
            vec![Worker::new(Point::ORIGIN, 0.9)],
            small_params(),
        )
        .unwrap();
        assert!(!inst.is_eligible(WorkerId(0), TaskId(0)));
    }

    #[test]
    fn unrestricted_policy_allows_everything() {
        let params = ProblemParams::builder()
            .eligibility(Eligibility::Unrestricted)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::new(1000.0, 1000.0))],
            vec![Worker::new(Point::ORIGIN, 0.9)],
            params,
        )
        .unwrap();
        assert!(inst.is_eligible(WorkerId(0), TaskId(0)));
        // The degenerate corner: a hopeless pair contributes ≈ 1.
        assert!(inst.contribution(WorkerId(0), TaskId(0)) > 0.99);
    }

    #[test]
    fn contribution_uses_quality_model() {
        let params = ProblemParams::builder()
            .quality(QualityModel::FixedThreshold(2.92))
            .build()
            .unwrap();
        let table = AccuracyTable::from_rows(&[vec![0.96]]);
        let inst = Instance::with_accuracy(
            vec![Task::new(Point::ORIGIN)],
            vec![Worker::new(Point::ORIGIN, 0.96)],
            params,
            AccuracyModel::Table(table),
        )
        .unwrap();
        // Plain Acc, not Acc*.
        assert_eq!(inst.contribution(WorkerId(0), TaskId(0)), 0.96);
    }
}
