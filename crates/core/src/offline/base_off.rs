//! Base-off: the paper's offline baseline.

use crate::engine::{AssignmentEngine, Candidate};
use crate::model::{Arrangement, Instance, RunOutcome, TaskId, WorkerId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// **Base-off** — the offline baseline of the paper's evaluation:
/// *"tasks with fewer workers nearby (from the remaining workers) are
/// greedily assigned to the new worker when s/he arrives"*.
///
/// The offline knowledge is the per-task count of eligible workers in the
/// whole stream. As the stream advances the arrived workers are removed
/// from the counts, and each arriving worker takes the `K` eligible
/// uncompleted tasks with the *fewest remaining* nearby workers — the
/// tasks most at risk of starving.
#[derive(Debug, Default, Clone, Copy)]
pub struct BaseOff;

impl BaseOff {
    /// Creates the baseline.
    pub fn new() -> Self {
        BaseOff
    }

    /// Algorithm name (for the benchmark harness).
    pub fn name(&self) -> &'static str {
        "Base-off"
    }

    /// Runs the baseline over the full (offline) instance.
    pub fn run(&self, instance: &Instance) -> RunOutcome {
        let mut engine = AssignmentEngine::from_instance(instance);
        let mut arrangement = Arrangement::new();
        let workers = instance.workers();
        let capacity = instance.params().capacity as usize;

        // Offline precomputation: how many workers of the whole stream are
        // eligible for each task.
        let mut remaining_nearby = vec![0u32; instance.n_tasks()];
        let mut buf: Vec<Candidate> = Vec::new();
        for (w, worker) in workers.iter().enumerate() {
            engine.candidates(WorkerId(w as u64), worker, &mut buf);
            for c in &buf {
                remaining_nearby[c.task.index()] += 1;
            }
        }

        for (w, worker) in workers.iter().enumerate() {
            if engine.all_completed() {
                break;
            }
            let wid = WorkerId(w as u64);
            engine.candidates(wid, worker, &mut buf);
            if buf.is_empty() {
                continue;
            }
            // The worker has arrived: they are no longer "remaining" for
            // the tasks around them.
            for c in &buf {
                remaining_nearby[c.task.index()] =
                    remaining_nearby[c.task.index()].saturating_sub(1);
            }
            // Bottom-K by (remaining nearby workers, task id).
            let mut heap: BinaryHeap<Reverse<(u32, TaskId)>> = BinaryHeap::new();
            for c in &buf {
                heap.push(Reverse((remaining_nearby[c.task.index()], c.task)));
            }
            for _ in 0..capacity.min(buf.len()) {
                let Reverse((_, task)) = heap.pop().expect("heap sized by candidates");
                arrangement.push(engine.commit(wid, worker, task));
            }
        }
        RunOutcome {
            arrangement,
            completed: engine.all_completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use crate::toy::toy_instance;
    use ltc_spatial::Point;

    #[test]
    fn completes_the_toy_feasibly() {
        let inst = toy_instance(0.2);
        let outcome = BaseOff::new().run(&inst);
        assert!(outcome.completed);
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn prefers_starving_tasks() {
        // Task 0 sits among ten workers; task 1 is reachable by exactly
        // four roaming workers who can also reach task 0. Base-off's
        // offline counts must route all four to the starving task 1
        // (4 × Acc* ≈ 3.15 ≥ δ ≈ 2.41; 3 would not suffice).
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .d_max(30.0)
            .build()
            .unwrap();
        // Roaming workers halfway between the tasks (within 30 of both).
        let mut workers = vec![Worker::new(Point::new(25.0, 1.0), 0.95); 4];
        workers.extend(vec![Worker::new(Point::new(0.0, 1.0), 0.95); 10]);
        let tasks = vec![
            Task::new(Point::new(0.0, 0.0)),
            Task::new(Point::new(50.0, 0.0)),
        ];
        let inst = Instance::new(tasks, workers, params).unwrap();
        let outcome = BaseOff::new().run(&inst);
        let first_four: Vec<u32> = outcome
            .arrangement
            .assignments()
            .iter()
            .filter(|a| a.worker.0 < 4)
            .map(|a| a.task.0)
            .collect();
        assert!(
            first_four.iter().all(|&t| t == 1),
            "roaming workers must serve the starving task, got {first_four:?}"
        );
        assert!(outcome.completed);
    }

    #[test]
    fn incomplete_when_no_worker_can_reach_a_task() {
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN), Task::new(Point::new(5000.0, 0.0))],
            vec![Worker::new(Point::new(1.0, 0.0), 0.95); 20],
            params,
        )
        .unwrap();
        let outcome = BaseOff::new().run(&inst);
        assert!(!outcome.completed);
    }
}
