//! Exact (optimal) solver for small offline LTC instances.
//!
//! The offline LTC problem is NP-hard (paper Theorem 1), so this solver is
//! exponential and intended for *small* instances only — it is the ground
//! truth behind the approximation-quality tests and the worked examples
//! (the toy optimum of 5 workers in Example 1, and 6 under the Hoeffding
//! model of Example 2).
//!
//! Strategy: binary-search the answer `L` (feasibility is monotone in
//! `L`), checking each candidate with a depth-first search over the
//! workers `1..L` in arrival order. Two observations keep the search
//! small:
//!
//! 1. Assigning *more* tasks to a worker never hurts — quality only
//!    accumulates — so each worker takes exactly
//!    `min(K, #eligible uncompleted)` tasks and only the *choice* of
//!    subset is branched on.
//! 2. Suffix potentials prune hopeless prefixes: if some task cannot reach
//!    `δ` even if **every** later worker serves it, the branch dies.

use crate::engine::AssignmentEngine;
use crate::model::{Arrangement, Instance, RunOutcome, TaskId, WorkerId};

/// Outcome of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The optimal latency (max arrival index), or `None` when even the
    /// full stream cannot complete all tasks.
    pub optimal_latency: Option<u64>,
    /// An optimal (or maximal, when infeasible) arrangement witnessing the
    /// latency.
    pub outcome: RunOutcome,
    /// Search nodes expanded across all feasibility probes.
    pub nodes_expanded: u64,
}

/// Branch-and-bound solver with a node budget.
#[derive(Debug, Clone, Copy)]
pub struct ExactSolver {
    /// Abort (returning `None` from [`ExactSolver::solve`]) after this
    /// many DFS nodes, as a guard against accidentally feeding the
    /// exponential search a large instance.
    pub node_budget: u64,
}

impl Default for ExactSolver {
    fn default() -> Self {
        Self {
            node_budget: 20_000_000,
        }
    }
}

impl ExactSolver {
    /// A solver with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the instance to optimality, or returns `None` if the node
    /// budget is exhausted first.
    pub fn solve(&self, instance: &Instance) -> Option<ExactResult> {
        let n_workers = instance.n_workers() as u32;
        let mut search = Search::new(instance, self.node_budget);

        // Infeasible even with the whole stream?
        let full = search.feasible(n_workers)?;
        if !full {
            // Produce a best-effort arrangement for diagnostics: greedy
            // max-contribution (LAF) over the whole stream.
            let outcome = crate::online::run_online(instance, &mut crate::online::Laf::new());
            return Some(ExactResult {
                optimal_latency: None,
                outcome,
                nodes_expanded: search.nodes,
            });
        }

        // Binary search the minimal feasible L.
        let mut lo = 1u32; // smallest conceivable latency
        let mut hi = n_workers; // known feasible
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if search.feasible(mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let witness = search
            .witness(lo)
            .expect("the binary-search result must be feasible");
        Some(ExactResult {
            optimal_latency: Some(lo as u64),
            outcome: witness,
            nodes_expanded: search.nodes,
        })
    }
}

/// DFS machinery shared across feasibility probes.
struct Search<'a> {
    instance: &'a Instance,
    delta: f64,
    /// Eligible tasks (with contributions) per worker.
    eligible: Vec<Vec<(TaskId, f64)>>,
    /// `potential[w][t]`: total contribution available to `t` from workers
    /// `w..` (suffix sums over the eligible lists).
    potential: Vec<Vec<f64>>,
    nodes: u64,
    budget: u64,
    /// Assignment trace of the last successful probe.
    trace: Vec<(WorkerId, TaskId)>,
}

impl<'a> Search<'a> {
    fn new(instance: &'a Instance, budget: u64) -> Self {
        let n_tasks = instance.n_tasks();
        let n_workers = instance.n_workers();
        let mut eligible = Vec::with_capacity(n_workers);
        for w in 0..n_workers as u32 {
            let mut list = Vec::new();
            for t in 0..n_tasks as u32 {
                let (wid, tid) = (WorkerId(w as u64), TaskId(t));
                if instance.is_eligible(wid, tid) {
                    list.push((tid, instance.contribution(wid, tid)));
                }
            }
            eligible.push(list);
        }
        // Suffix potentials: potential[w][t] = Σ_{j ≥ w} contribution(j, t).
        let mut potential = vec![vec![0.0; n_tasks]; n_workers + 1];
        for w in (0..n_workers).rev() {
            let (head, tail) = potential.split_at_mut(w + 1);
            head[w].copy_from_slice(&tail[0]);
            for &(t, c) in &eligible[w] {
                head[w][t.index()] += c;
            }
        }
        Self {
            instance,
            delta: instance.delta(),
            eligible,
            potential,
            nodes: 0,
            budget,
            trace: Vec::new(),
        }
    }

    /// Can workers `1..=limit` complete every task? `None` = budget blown.
    fn feasible(&mut self, limit: u32) -> Option<bool> {
        self.trace.clear();
        let mut s = vec![0.0f64; self.instance.n_tasks()];
        let mut stack = Vec::new();
        self.dfs(0, limit, &mut s, &mut stack)
    }

    /// Re-runs a feasible probe to materialize its witness arrangement.
    fn witness(&mut self, limit: u32) -> Option<RunOutcome> {
        if self.feasible(limit) != Some(true) {
            return None;
        }
        let mut engine = AssignmentEngine::from_instance(self.instance);
        let mut arrangement = Arrangement::new();
        for &(w, t) in &self.trace {
            arrangement.push(engine.commit(w, &self.instance.workers()[w.index()], t));
        }
        let outcome = RunOutcome {
            arrangement,
            completed: engine.all_completed(),
        };
        debug_assert!(outcome.completed);
        Some(outcome)
    }

    fn dfs(
        &mut self,
        w: u32,
        limit: u32,
        s: &mut [f64],
        stack: &mut Vec<(WorkerId, TaskId)>,
    ) -> Option<bool> {
        const EPS: f64 = 1e-9;
        self.nodes += 1;
        if self.nodes > self.budget {
            return None;
        }
        if s.iter().all(|&q| q >= self.delta - EPS) {
            self.trace = stack.clone();
            return Some(true);
        }
        if w >= limit {
            return Some(false);
        }
        // Prune: some task unreachable even with all remaining workers.
        let pot = &self.potential[w as usize];
        if s.iter().zip(pot).any(|(&q, &p)| q + p < self.delta - EPS) {
            return Some(false);
        }

        let uncompleted: Vec<(TaskId, f64)> = self.eligible[w as usize]
            .iter()
            .copied()
            .filter(|(t, _)| s[t.index()] < self.delta - EPS)
            .collect();
        let k = (self.instance.params().capacity as usize).min(uncompleted.len());
        if k == 0 {
            // Nothing for this worker to do; skip them.
            return self.dfs(w + 1, limit, s, stack);
        }

        // Enumerate all k-subsets of the uncompleted eligible tasks.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        self.branch_subsets(w, limit, k, 0, &uncompleted, &mut chosen, s, stack)
    }

    #[allow(clippy::too_many_arguments)]
    fn branch_subsets(
        &mut self,
        w: u32,
        limit: u32,
        k: usize,
        start: usize,
        cands: &[(TaskId, f64)],
        chosen: &mut Vec<usize>,
        s: &mut [f64],
        stack: &mut Vec<(WorkerId, TaskId)>,
    ) -> Option<bool> {
        if chosen.len() == k {
            for &i in chosen.iter() {
                let (t, c) = cands[i];
                s[t.index()] += c;
                stack.push((WorkerId(w as u64), t));
            }
            let res = self.dfs(w + 1, limit, s, stack);
            for &i in chosen.iter() {
                let (t, c) = cands[i];
                s[t.index()] -= c;
                stack.pop();
            }
            return res;
        }
        // Not enough candidates left to fill the subset.
        if cands.len() - start < k - chosen.len() {
            return Some(false);
        }
        for i in start..cands.len() {
            chosen.push(i);
            match self.branch_subsets(w, limit, k, i + 1, cands, chosen, s, stack) {
                Some(true) => {
                    chosen.pop();
                    return Some(true);
                }
                Some(false) => {}
                None => {
                    chosen.pop();
                    return None;
                }
            }
            chosen.pop();
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use crate::toy::{toy_example1_instance, toy_instance};
    use ltc_spatial::Point;

    /// Paper Example 1: under the plain-sum model with threshold 2.92 the
    /// offline optimum recruits 5 workers.
    #[test]
    fn example_1_optimum_is_5() {
        let result = ExactSolver::new().solve(&toy_example1_instance()).unwrap();
        assert_eq!(result.optimal_latency, Some(5));
        result
            .outcome
            .arrangement
            .check_feasible(&toy_example1_instance())
            .unwrap();
    }

    /// Under the Hoeffding model with ε = 0.2 (Examples 2–4) the optimum
    /// is 6: five workers provide only 10 < 3·⌈δ⌉ = 12 assignment slots.
    #[test]
    fn example_2_optimum_is_6() {
        let inst = toy_instance(0.2);
        let result = ExactSolver::new().solve(&inst).unwrap();
        assert_eq!(result.optimal_latency, Some(6));
        result.outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn infeasible_instance_reports_none() {
        let params = ProblemParams::builder()
            .epsilon(0.06)
            .capacity(1)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN); 3],
            vec![Worker::new(Point::new(1.0, 0.0), 0.9); 2],
            params,
        )
        .unwrap();
        let result = ExactSolver::new().solve(&inst).unwrap();
        assert_eq!(result.optimal_latency, None);
        assert!(!result.outcome.completed);
    }

    #[test]
    fn single_task_single_good_worker() {
        let params = ProblemParams::builder()
            .epsilon(0.6) // δ ≈ 1.02
            .capacity(1)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN)],
            vec![
                Worker::new(Point::new(400.0, 0.0), 0.99), // ineligible (far)
                Worker::new(Point::new(1.0, 0.0), 0.8),    // Acc* = 0.36
                Worker::new(Point::new(1.0, 0.0), 0.99),   // Acc* ≈ 0.96
                Worker::new(Point::new(1.0, 0.0), 0.99),
            ],
            params,
        )
        .unwrap();
        let result = ExactSolver::new().solve(&inst).unwrap();
        // Needs δ ≈ 1.02: w2+w3 (0.36 + 0.96) ≥ 1.02 at L = 3; any 2
        // workers ≤ 2 means index 3 is needed since w1 is useless and
        // w2+w3 alone already suffice — optimum is 3.
        assert_eq!(result.optimal_latency, Some(3));
    }

    #[test]
    fn exact_lower_bounds_every_heuristic_on_toy() {
        let inst = toy_instance(0.2);
        let opt = ExactSolver::new()
            .solve(&inst)
            .unwrap()
            .optimal_latency
            .unwrap();
        let mcf = crate::offline::McfLtc::new().run(&inst).latency().unwrap();
        let base = crate::offline::BaseOff::new().run(&inst).latency().unwrap();
        let laf = crate::online::run_online(&inst, &mut crate::online::Laf::new())
            .latency()
            .unwrap();
        let aam = crate::online::run_online(&inst, &mut crate::online::Aam::new())
            .latency()
            .unwrap();
        for (name, l) in [("mcf", mcf), ("base", base), ("laf", laf), ("aam", aam)] {
            assert!(l >= opt, "{name} beat the optimum: {l} < {opt}");
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let solver = ExactSolver { node_budget: 5 };
        let inst = toy_instance(0.2);
        assert!(solver.solve(&inst).is_none());
    }
}
