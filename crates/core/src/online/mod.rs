//! Online LTC algorithms (paper Sec. IV).
//!
//! In the online scenario workers appear one by one and the platform must
//! commit each worker's bundle of at most `K` tasks immediately (temporal
//! constraint), with no knowledge of future arrivals. The paper proves no
//! deterministic online algorithm can be better than 5.5-competitive and
//! gives two greedy algorithms with constant competitive ratios:
//!
//! * [`Laf`] — Largest Acc* First (Algorithm 2), 7.967-competitive,
//! * [`Aam`] — Average And Maximum (Algorithm 3), 7.738-competitive,
//!
//! plus the evaluation baseline [`RandomAssign`].
//!
//! All three implement [`OnlineAlgorithm`] — the decision policy plugged
//! into [`AssignmentEngine::push_worker`], which enforces the temporal
//! constraint (one worker at a time, immediate irrevocable commitment).
//! [`run_online`] is the thin batch driver: it feeds an [`Instance`]'s
//! recorded worker stream through an engine and stops as soon as every
//! task reaches `δ`.

mod aam;
mod laf;
mod random;
mod topk;

pub use aam::{Aam, AamStrategy};
pub use laf::Laf;
pub use random::RandomAssign;
pub(crate) use topk::TopK;

use crate::engine::{AssignmentEngine, Candidate};
use crate::model::{Arrangement, Instance, RunOutcome, TaskId, WorkerId};

/// One task an online policy picked for a worker, with the key the
/// policy ranked it by. Every policy ranks by key descending, ties
/// toward the smaller task id, so a sharded front-end can merge the
/// picks of several engines with the policy's own rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The ranking key (larger is better; never NaN).
    pub key: f64,
    /// The picked task.
    pub task: TaskId,
}

/// Decision rule of an online LTC algorithm: given the arriving worker and
/// their eligible uncompleted tasks, pick at most `K` of them.
pub trait OnlineAlgorithm {
    /// Human-readable algorithm name (used by the benchmark harness).
    fn name(&self) -> &'static str;

    /// Selects tasks for the arriving worker.
    ///
    /// `candidates` are the worker's eligible, uncompleted tasks in
    /// ascending task-id order; implementations append at most
    /// `engine.params().capacity` *distinct* tasks from `candidates`
    /// into `picks` (pre-cleared by the engine), each with the key it was
    /// ranked by: the picks are the top `K` under (key descending, task
    /// id ascending). The engine view is read-only: per-task quality,
    /// remaining need, and parameters are available, the commit itself
    /// is the engine's job.
    fn assign(
        &mut self,
        engine: &AssignmentEngine,
        worker: WorkerId,
        candidates: &[Candidate],
        picks: &mut Vec<Pick>,
    );
}

/// Runs an online algorithm over a recorded instance's worker stream.
///
/// A thin driver over [`AssignmentEngine`]: workers are pushed in arrival
/// order, each commitment is irrevocable, and the run stops early once
/// all tasks are completed. The outcome's arrangement is the batches the
/// engine returned, in arrival order.
pub fn run_online<A: OnlineAlgorithm + ?Sized>(instance: &Instance, algo: &mut A) -> RunOutcome {
    let mut engine = AssignmentEngine::from_instance(instance);
    let mut arrangement = Arrangement::new();
    for worker in instance.workers() {
        if engine.all_completed() {
            break;
        }
        for a in engine.push_worker(worker, algo).iter() {
            arrangement.push(*a);
        }
    }
    RunOutcome {
        arrangement,
        completed: engine.all_completed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use ltc_spatial::Point;

    /// A deliberately over-eager algorithm to exercise the engine's
    /// defensive truncation in release mode.
    struct TakeEverything;

    impl OnlineAlgorithm for TakeEverything {
        fn name(&self) -> &'static str {
            "take-everything"
        }
        fn assign(
            &mut self,
            _engine: &AssignmentEngine,
            _worker: WorkerId,
            candidates: &[Candidate],
            picks: &mut Vec<Pick>,
        ) {
            picks.extend(candidates.iter().map(|c| Pick {
                key: 0.0,
                task: c.task,
            }));
        }
    }

    fn instance(n_tasks: usize, n_workers: usize) -> Instance {
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .build()
            .unwrap();
        Instance::new(
            vec![Task::new(Point::ORIGIN); n_tasks],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); n_workers],
            params,
        )
        .unwrap()
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeded capacity"))]
    fn driver_guards_capacity() {
        let inst = instance(5, 40);
        let outcome = run_online(&inst, &mut TakeEverything);
        // Release mode: truncation keeps the arrangement feasible.
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn driver_stops_early_when_done() {
        let inst = instance(1, 100);
        let outcome = run_online(&inst, &mut super::Laf::new());
        assert!(outcome.completed);
        // δ(0.2) ≈ 3.22, Acc* ≈ 0.81 ⇒ 4 workers, not 100.
        assert_eq!(outcome.latency(), Some(4));
    }

    #[test]
    fn exhausted_stream_reports_incomplete() {
        let inst = instance(10, 3);
        let outcome = run_online(&inst, &mut super::Laf::new());
        assert!(!outcome.completed);
        assert_eq!(outcome.latency(), None);
    }

    #[test]
    fn push_worker_returns_the_committed_batch() {
        let inst = instance(3, 8);
        let mut engine = AssignmentEngine::from_instance(&inst);
        let mut algo = super::Laf::new();
        let batch = engine.push_worker(&inst.workers()[0], &mut algo);
        assert_eq!(batch.len(), 2, "capacity-2 worker takes two tasks");
        assert!(batch.iter().all(|a| a.worker == WorkerId(0)));
        assert_eq!(engine.n_assignments(), 2);
    }

    #[test]
    fn completed_tasks_are_evicted_from_candidates() {
        let inst = instance(2, 40);
        let mut engine = AssignmentEngine::from_instance(&inst);
        let mut algo = super::Laf::new();
        let mut i = 0;
        while !engine.all_completed() {
            engine.push_worker(&inst.workers()[i], &mut algo);
            i += 1;
        }
        // Everything completed: the next worker sees no candidates.
        let mut buf = Vec::new();
        engine.candidates(WorkerId(i as u64), &inst.workers()[i], &mut buf);
        assert!(buf.is_empty());
        assert_eq!(engine.n_uncompleted(), 0);
    }

    #[test]
    fn dynamic_add_task_becomes_assignable() {
        use ltc_spatial::BoundingBox;
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut engine = AssignmentEngine::new(params, region).unwrap();
        let mut algo = super::Laf::new();
        let worker = Worker::new(Point::new(1.0, 0.0), 0.95);

        // No tasks yet: nothing to assign.
        assert!(engine.push_worker(&worker, &mut algo).is_empty());

        let t = engine.add_task(Task::new(Point::ORIGIN)).unwrap();
        let batch = engine.push_worker(&worker, &mut algo);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.iter().next().unwrap().task, t);
        // δ(0.3) ≈ 2.41, Acc* ≈ 0.81 ⇒ two more commits complete it.
        engine.push_worker(&worker, &mut algo);
        engine.push_worker(&worker, &mut algo);
        assert!(engine.all_completed());
        assert_eq!(engine.latency(), Some(4));
    }
}
