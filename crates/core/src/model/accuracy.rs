//! Predicted-accuracy functions (paper Def. 3 / Eq. 1).

use super::{ProblemParams, Task, Worker};

/// How the platform predicts the accuracy of a worker on a task.
///
/// The paper's default (Eq. 1) is a distance-discounted sigmoid of the
/// worker's historical accuracy; "other accuracy functions can also apply",
/// so a tabular variant is provided for worked examples and tests where the
/// accuracy matrix is given directly (Table I of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum AccuracyModel {
    /// Eq. 1: `Acc(w,t) = p_w / (1 + exp(−(d_max − ‖l_w − l_t‖)))`.
    Sigmoid,
    /// A fixed `|W| × |T|` matrix of accuracies.
    Table(AccuracyTable),
}

impl AccuracyModel {
    /// Predicted accuracy `Acc(w,t) ∈ [0,1]`.
    #[inline]
    pub fn acc(
        &self,
        worker_idx: usize,
        worker: &Worker,
        task_idx: usize,
        task: &Task,
        params: &ProblemParams,
    ) -> f64 {
        match self {
            AccuracyModel::Sigmoid => {
                let d = worker.loc.distance(task.loc);
                worker.accuracy / (1.0 + (-(params.d_max - d)).exp())
            }
            AccuracyModel::Table(table) => table.acc(worker_idx, task_idx),
        }
    }

    /// The declared worker count of a tabular model (the width every
    /// posted task's accuracy row must have); `None` for the sigmoid.
    pub(crate) fn table_workers(&self) -> Option<usize> {
        match self {
            AccuracyModel::Sigmoid => None,
            AccuracyModel::Table(table) => Some(table.n_workers()),
        }
    }
}

/// Turns a predicted accuracy into the paper's quality contribution
/// `Acc*(w,t) = (2·Acc(w,t) − 1)²` (from Hoeffding's inequality).
#[inline]
pub fn acc_star(acc: f64) -> f64 {
    let w = 2.0 * acc - 1.0;
    w * w
}

/// A dense `|W| × |T|` accuracy matrix over a **closed worker set** and
/// an **appendable task set**.
///
/// Storage is task-major (`values[t * n_workers + w]`): the worker
/// population a table covers is fixed at construction, but tasks arrive
/// mid-stream in the online setting, so appending one task is a
/// contiguous [`AccuracyTable::push_task_row`] — no reshuffling of the
/// existing entries.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyTable {
    n_workers: usize,
    /// Task-major values: `values[t * n_workers + w]`.
    values: Vec<f64>,
}

impl AccuracyTable {
    /// Builds a table from rows-per-worker data (`values[w * n_tasks + t]`,
    /// the layout of the paper's Table I); transposed internally into the
    /// appendable task-major layout.
    ///
    /// # Panics
    ///
    /// Panics if the value count is not a multiple of `n_tasks` or any
    /// value is outside `[0, 1]`.
    pub fn new(n_tasks: usize, values: Vec<f64>) -> Self {
        assert!(n_tasks > 0, "accuracy table needs at least one task column");
        assert!(
            values.len().is_multiple_of(n_tasks),
            "value count {} is not a multiple of n_tasks {}",
            values.len(),
            n_tasks
        );
        assert!(
            values.iter().all(|v| (0.0..=1.0).contains(v)),
            "accuracies must lie in [0, 1]"
        );
        let n_workers = values.len() / n_tasks;
        let mut transposed = Vec::with_capacity(values.len());
        for t in 0..n_tasks {
            for w in 0..n_workers {
                transposed.push(values[w * n_tasks + t]);
            }
        }
        Self {
            n_workers,
            values: transposed,
        }
    }

    /// Builds a table directly from task-major rows (one row of
    /// per-worker accuracies per task) — the layout
    /// [`AccuracyTable::push_task_row`] appends to.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` is zero, the value count is not a multiple
    /// of `n_workers`, or any value is outside `[0, 1]`.
    pub fn from_task_major(n_workers: usize, values: Vec<f64>) -> Self {
        assert!(n_workers > 0, "accuracy table needs at least one worker");
        assert!(
            values.len().is_multiple_of(n_workers),
            "value count {} is not a multiple of n_workers {}",
            values.len(),
            n_workers
        );
        assert!(
            values.iter().all(|v| (0.0..=1.0).contains(v)),
            "accuracies must lie in [0, 1]"
        );
        Self { n_workers, values }
    }

    /// Builds a table from a `workers × tasks` nested structure.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_tasks = rows.first().map_or(1, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == n_tasks),
            "all worker rows must have the same number of task entries"
        );
        Self::new(n_tasks, rows.concat())
    }

    /// Appends one task's per-worker accuracies (making the table cover
    /// one more task). This is what lets a tabular engine accept
    /// dynamically posted tasks.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have exactly one entry per worker or any
    /// value is outside `[0, 1]`; validate first when the row comes from
    /// untrusted input (the engine does).
    pub fn push_task_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.n_workers,
            "task row needs one accuracy per worker"
        );
        assert!(
            row.iter().all(|v| (0.0..=1.0).contains(v)),
            "accuracies must lie in [0, 1]"
        );
        self.values.extend_from_slice(row);
    }

    /// The task-major backing values (`values[t * n_workers + w]`),
    /// exposed for snapshot serialization.
    pub fn task_major_values(&self) -> &[f64] {
        &self.values
    }

    /// Number of workers covered by the table.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Number of tasks covered by the table.
    pub fn n_tasks(&self) -> usize {
        self.values.len().checked_div(self.n_workers).unwrap_or(0)
    }

    /// Accuracy of worker `w` on task `t`.
    ///
    /// # Panics
    ///
    /// Panics when indices exceed the table dimensions.
    #[inline]
    pub fn acc(&self, worker_idx: usize, task_idx: usize) -> f64 {
        assert!(
            task_idx < self.n_tasks(),
            "task index {task_idx} out of range"
        );
        assert!(
            worker_idx < self.n_workers,
            "worker index {worker_idx} out of range"
        );
        self.values[task_idx * self.n_workers + worker_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_spatial::Point;

    fn params(d_max: f64) -> ProblemParams {
        ProblemParams::builder().d_max(d_max).build().unwrap()
    }

    #[test]
    fn sigmoid_at_dmax_is_half_pw() {
        let p = params(30.0);
        let w = Worker::new(Point::new(0.0, 0.0), 0.9);
        let t = Task::new(Point::new(30.0, 0.0));
        let acc = AccuracyModel::Sigmoid.acc(0, &w, 0, &t, &p);
        assert!((acc - 0.45).abs() < 1e-12, "got {acc}");
    }

    #[test]
    fn sigmoid_near_task_approaches_pw() {
        let p = params(30.0);
        let w = Worker::new(Point::new(0.0, 0.0), 0.9);
        let t = Task::new(Point::new(1.0, 0.0));
        let acc = AccuracyModel::Sigmoid.acc(0, &w, 0, &t, &p);
        assert!((acc - 0.9).abs() < 1e-9, "got {acc}");
    }

    #[test]
    fn sigmoid_far_from_task_approaches_zero() {
        let p = params(30.0);
        let w = Worker::new(Point::new(0.0, 0.0), 0.9);
        let t = Task::new(Point::new(100.0, 0.0));
        let acc = AccuracyModel::Sigmoid.acc(0, &w, 0, &t, &p);
        assert!(acc < 1e-9, "got {acc}");
    }

    #[test]
    fn sigmoid_is_monotone_in_distance() {
        let p = params(30.0);
        let w = Worker::new(Point::new(0.0, 0.0), 0.8);
        let mut last = f64::INFINITY;
        for d in [0.0, 10.0, 25.0, 29.0, 30.0, 31.0, 50.0] {
            let acc = AccuracyModel::Sigmoid.acc(0, &w, 0, &Task::new(Point::new(d, 0.0)), &p);
            assert!(acc < last + 1e-15, "accuracy rose with distance at {d}");
            last = acc;
        }
    }

    #[test]
    fn acc_star_matches_paper_examples() {
        // Paper Example 2: Acc = 0.96 → Acc* ≈ 0.85 (they round).
        assert!((acc_star(0.96) - 0.8464).abs() < 1e-12);
        assert!((acc_star(0.98) - 0.9216).abs() < 1e-12);
        assert!((acc_star(0.94) - 0.7744).abs() < 1e-12);
    }

    #[test]
    fn acc_star_is_symmetric_around_half() {
        // The degenerate corner the eligibility policy must exclude:
        // a hopeless worker looks as good as a perfect one.
        assert_eq!(acc_star(0.0), 1.0);
        assert_eq!(acc_star(1.0), 1.0);
        assert_eq!(acc_star(0.5), 0.0);
    }

    #[test]
    fn table_lookup_row_major() {
        let table = AccuracyTable::from_rows(&[vec![0.9, 0.8], vec![0.7, 0.6]]);
        assert_eq!(table.n_workers(), 2);
        assert_eq!(table.n_tasks(), 2);
        assert_eq!(table.acc(0, 1), 0.8);
        assert_eq!(table.acc(1, 0), 0.7);
    }

    #[test]
    #[should_panic(expected = "accuracies must lie in")]
    fn table_rejects_out_of_range() {
        AccuracyTable::new(1, vec![1.5]);
    }

    #[test]
    fn push_task_row_extends_the_task_set() {
        let mut table = AccuracyTable::from_rows(&[vec![0.9, 0.8], vec![0.7, 0.6]]);
        table.push_task_row(&[0.95, 0.65]);
        assert_eq!(table.n_tasks(), 3);
        assert_eq!(table.n_workers(), 2);
        assert_eq!(table.acc(0, 2), 0.95);
        assert_eq!(table.acc(1, 2), 0.65);
        // The pre-existing entries are untouched.
        assert_eq!(table.acc(0, 1), 0.8);
        assert_eq!(table.acc(1, 0), 0.7);
    }

    #[test]
    fn task_major_round_trip() {
        let table = AccuracyTable::from_rows(&[vec![0.9, 0.8], vec![0.7, 0.6]]);
        let rebuilt =
            AccuracyTable::from_task_major(table.n_workers(), table.task_major_values().to_vec());
        assert_eq!(table, rebuilt);
    }

    #[test]
    #[should_panic(expected = "one accuracy per worker")]
    fn push_task_row_rejects_wrong_width() {
        let mut table = AccuracyTable::from_rows(&[vec![0.9], vec![0.7]]);
        table.push_task_row(&[0.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "same number of task entries")]
    fn table_rejects_ragged_rows() {
        AccuracyTable::from_rows(&[vec![0.9, 0.8], vec![0.7]]);
    }
}
