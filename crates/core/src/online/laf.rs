//! Largest Acc* First (Algorithm 2).

use super::{OnlineAlgorithm, Pick, TopK};
use crate::engine::{AssignmentEngine, Candidate};
use crate::model::WorkerId;

/// **LAF** — Largest Acc\* First (paper Algorithm 2).
///
/// For every arriving worker, assign the `K` uncompleted tasks with the
/// largest `Acc*(w, t)`, ignoring how close each task already is to its
/// threshold. Runs in `O(|T'| log K)` per worker over the worker's
/// eligible uncompleted tasks `T'`.
///
/// Competitive ratio 7.967 under the paper's assumptions
/// (`ε ≤ e^{−1.5}`, hence `δ ≥ 3`; Theorem 5).
#[derive(Debug, Default, Clone, Copy)]
pub struct Laf;

impl Laf {
    /// Creates the algorithm (stateless between workers).
    pub fn new() -> Self {
        Laf
    }
}

impl OnlineAlgorithm for Laf {
    fn name(&self) -> &'static str {
        "LAF"
    }

    fn assign(
        &mut self,
        engine: &AssignmentEngine,
        _worker: WorkerId,
        candidates: &[Candidate],
        picks: &mut Vec<Pick>,
    ) {
        let k = engine.params().capacity as usize;
        let mut top = TopK::new(k);
        for c in candidates {
            top.offer(c.contribution, c.task);
        }
        top.drain_into(picks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use crate::toy::toy_instance;

    /// Paper Example 3: LAF needs all 8 workers on the toy instance.
    #[test]
    fn example_3_latency_is_8() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut Laf::new());
        assert!(outcome.completed);
        assert_eq!(outcome.latency(), Some(8));
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    /// The first worker of Example 3 takes t2 (Acc* 0.92) and t1
    /// (tie 0.85 vs t3, smaller index wins) — exactly the paper's trace.
    #[test]
    fn example_3_first_worker_trace() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut Laf::new());
        let w1: Vec<u32> = outcome
            .arrangement
            .assignments()
            .iter()
            .filter(|a| a.worker.0 == 0)
            .map(|a| a.task.0)
            .collect();
        assert_eq!(w1, vec![0, 1], "w1 must take t1 and t2");
    }

    /// After w4, t1 and t2 are complete with S ≈ {3.61, 3.54} (paper).
    #[test]
    fn example_3_quality_after_four_workers() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut Laf::new());
        let first_four: Vec<_> = outcome
            .arrangement
            .assignments()
            .iter()
            .filter(|a| a.worker.0 < 4)
            .collect();
        let s1: f64 = first_four
            .iter()
            .filter(|a| a.task.0 == 0)
            .map(|a| a.contribution)
            .sum();
        let s2: f64 = first_four
            .iter()
            .filter(|a| a.task.0 == 1)
            .map(|a| a.contribution)
            .sum();
        assert!((s1 - 3.6112).abs() < 1e-9, "S[t1] = {s1}");
        assert!((s2 - 3.536).abs() < 1e-9, "S[t2] = {s2}");
    }
}
