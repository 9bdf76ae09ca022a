//! MCF-LTC (Algorithm 1): batched min-cost-flow arrangement.

use crate::bounds::batch_size;
use crate::engine::{AssignmentEngine, Candidate};
use crate::model::{Arrangement, Instance, RunOutcome, TaskId, WorkerId};
use crate::online::TopK;
use ltc_mcmf::{EdgeId, FlowNetwork, NodeId};
use std::ops::Range;

/// **MCF-LTC** (paper Algorithm 1) — the offline 7.5-approximation.
///
/// Workers are consumed in batches sized by the Theorem-2 lower bound
/// `m = ⌈|T|·⌈δ⌉/K⌉` (the first batch is `⌊1.5·m⌋`). Each batch is reduced
/// to a min-cost-flow instance —
///
/// ```text
/// st ──K──▶ w ──1 (cost 1 − Acc*)──▶ t ──⌈δ − S[t]⌉──▶ ed
/// ```
///
/// — and solved with the Successive Shortest Path Algorithm; edges
/// carrying flow become assignments. Workers left with spare capacity then
/// greedily take their most reliable uncompleted tasks (lines 8–15).
///
/// The paper prices worker→task arcs at `−Acc*`. Every augmenting path
/// `st→w→t→ed` crosses exactly one such arc, so shifting the price to
/// `1 − Acc* ≥ 0` adds exactly `+1` per unit of flow and preserves the
/// arg-min while keeping all costs non-negative (pure-Dijkstra SSPA, no
/// Bellman–Ford pass needed).
///
/// Batches run on the shared [`AssignmentEngine`], so candidate
/// enumeration hits the same evicting spatial index as the online path:
/// as tasks complete across batches, later batches enumerate (and build
/// flow networks over) only the remaining work.
#[derive(Debug, Clone, Copy)]
pub struct McfLtc {
    /// Multiplier on the Theorem-2 batch size `m` (1.0 = the paper's
    /// algorithm; other values are for the batch-size ablation).
    pub batch_scale: f64,
    /// Multiplier on the *first* batch (the paper uses 1.5).
    pub first_batch_factor: f64,
}

/// The per-batch candidate lists, flattened into one reusable arena
/// (worker `i`'s candidates are `cands[spans[i].1.clone()]`) so the batch
/// loop performs no per-worker allocation.
#[derive(Debug, Default)]
struct CandidateArena {
    cands: Vec<Candidate>,
    spans: Vec<(WorkerId, Range<usize>)>,
}

impl CandidateArena {
    fn clear(&mut self) {
        self.cands.clear();
        self.spans.clear();
    }
}

impl McfLtc {
    /// The paper's algorithm: batch `m`, first batch `1.5·m`.
    pub fn new() -> Self {
        Self {
            batch_scale: 1.0,
            first_batch_factor: 1.5,
        }
    }

    /// Ablation constructor: scale every batch by `scale` (> 0).
    pub fn with_batch_scale(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "batch scale must be positive"
        );
        Self {
            batch_scale: scale,
            first_batch_factor: 1.5 * scale,
        }
    }

    /// Algorithm name (for the benchmark harness).
    pub fn name(&self) -> &'static str {
        "MCF-LTC"
    }

    /// Runs the algorithm over the full (offline) instance.
    pub fn run(&self, instance: &Instance) -> RunOutcome {
        let mut engine = AssignmentEngine::from_instance(instance);
        let n_workers = instance.n_workers();
        let m = ((batch_size(instance) as f64 * self.batch_scale).floor() as usize).max(1);
        let first =
            ((m as f64 * self.first_batch_factor / self.batch_scale).floor() as usize).max(1);

        let mut arena = CandidateArena::default();
        let mut arrangement = Arrangement::new();
        let mut cursor = 0usize;
        let mut batch_no = 0usize;
        while cursor < n_workers && !engine.all_completed() {
            let size = if batch_no == 0 { first } else { m };
            let end = (cursor + size).min(n_workers);
            self.process_batch(
                &mut engine,
                instance,
                cursor as u32..end as u32,
                &mut arena,
                &mut arrangement,
            );
            cursor = end;
            batch_no += 1;
        }
        RunOutcome {
            arrangement,
            completed: engine.all_completed(),
        }
    }

    /// Lines 4–15 of Algorithm 1 for one batch of workers, appending its
    /// commits to `arrangement`.
    fn process_batch(
        &self,
        engine: &mut AssignmentEngine,
        instance: &Instance,
        batch: Range<u32>,
        arena: &mut CandidateArena,
        arrangement: &mut Arrangement,
    ) {
        let workers = instance.workers();
        let capacity = instance.params().capacity;

        // Snapshot each worker's eligible uncompleted candidates once into
        // the flat arena; the flow network is built from this frozen view
        // (the paper constructs G_F from (W', T, S) at batch start).
        arena.clear();
        for w in batch.clone() {
            let worker = WorkerId(w as u64);
            let start = arena.cands.len();
            let added = engine.append_candidates(worker, &workers[w as usize], &mut arena.cands);
            if added > 0 {
                arena.spans.push((worker, start..arena.cands.len()));
            } else {
                arena.cands.truncate(start);
            }
        }
        let flow_start = arrangement.len();
        if !arena.spans.is_empty() {
            self.flow_phase(engine, instance, arena, arrangement);
        }
        let flow_end = arrangement.len();

        // Greedy top-up (lines 8–15): spare capacity goes to the most
        // reliable uncompleted tasks the worker does not already perform.
        // A batch's workers commit only in this batch, and the flow phase
        // commits in (worker, task) order, so each worker's flow commits
        // are the next run of `arrangement[flow_start..flow_end]`.
        let mut next = flow_start;
        let mut buf: Vec<Candidate> = Vec::new();
        let mut picks = Vec::new();
        for w in batch {
            if engine.all_completed() {
                break;
            }
            let worker = WorkerId(w as u64);
            let start = next;
            while next < flow_end && arrangement.assignments()[next].worker == worker {
                next += 1;
            }
            let spare = capacity - (next - start) as u32;
            if spare == 0 {
                continue;
            }
            let performed = &arrangement.assignments()[start..next];
            engine.candidates(worker, &workers[w as usize], &mut buf);
            let mut top = TopK::new(spare as usize);
            for c in &buf {
                if !performed.iter().any(|a| a.task == c.task) {
                    top.offer(c.contribution, c.task);
                }
            }
            top.drain_into(&mut picks);
            for p in &picks {
                let i = buf
                    .binary_search_by_key(&p.task, |c| c.task)
                    .expect("picks come from the candidates");
                arrangement.push(engine.commit(worker, buf[i]));
            }
        }
    }

    /// Lines 5–7: build G_F for the batch, run SSPA, commit flow edges.
    fn flow_phase(
        &self,
        engine: &mut AssignmentEngine,
        instance: &Instance,
        arena: &CandidateArena,
        arrangement: &mut Arrangement,
    ) {
        let capacity = instance.params().capacity as i64;

        // Map the uncompleted tasks touched by this batch to flow nodes.
        let mut task_node: std::collections::HashMap<TaskId, NodeId> =
            std::collections::HashMap::new();
        let n_edges_guess = arena.cands.len();
        let mut net = FlowNetwork::with_capacity(arena.spans.len() + 2 + 64, n_edges_guess * 2);
        let st = net.add_node();
        let ed = net.add_node();

        // Worker → task edges, cost shifted to 1 − contribution ∈ [0, 1].
        let mut flow_edges: Vec<(WorkerId, Candidate, EdgeId)> = Vec::with_capacity(n_edges_guess);
        for (worker, span) in &arena.spans {
            let wn = net.add_node();
            net.add_edge(st, wn, capacity, 0.0);
            for c in &arena.cands[span.clone()] {
                let tn = *task_node.entry(c.task).or_insert_with(|| {
                    let tn = net.add_node();
                    // Sink capacity ⌈δ − S[t]⌉: the units of work the task
                    // still needs, frozen at batch start.
                    let need = engine.remaining(c.task).ceil().max(1.0) as i64;
                    net.add_edge(tn, ed, need, 0.0);
                    tn
                });
                let edge = net.add_edge(wn, tn, 1, 1.0 - c.contribution);
                flow_edges.push((*worker, *c, edge));
            }
        }

        net.min_cost_max_flow(st, ed);

        // Commit saturated worker→task edges in worker-arrival order
        // (flow_edges is already grouped by ascending worker id), with
        // the candidates frozen at batch start: an edge may reach a task
        // an earlier edge of the batch completed.
        for (worker, c, edge) in flow_edges {
            if net.flow_on(edge) > 0 {
                arrangement.push(engine.commit(worker, c));
            }
        }
    }
}

impl Default for McfLtc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemParams, Task, Worker};
    use crate::toy::toy_instance;
    use ltc_spatial::Point;

    /// Paper Example 2: one batch covers all 8 workers and the flow
    /// arrangement completes every task without the top-up phase.
    ///
    /// The paper narrates a solution of latency 6; as DESIGN.md §3 notes,
    /// 6 is achievable but *not* the min-cost max-flow optimum of the
    /// constructed network (using workers 7–8 strictly increases the total
    /// Acc*), so a correct SSPA lands between the exact LTC optimum (6)
    /// and the batch end (8).
    #[test]
    fn example_2_completes_in_first_batch() {
        let inst = toy_instance(0.2);
        let outcome = McfLtc::new().run(&inst);
        assert!(outcome.completed);
        let latency = outcome.latency().unwrap();
        assert!((6..=8).contains(&latency), "latency {latency} out of range");
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn flow_phase_respects_task_unit_demands() {
        // Each task's sink capacity is ⌈δ − S⌉ = 4 units at ε = 0.2, so no
        // task receives more than 4 workers from the flow phase; the toy
        // needs no top-up, so total assignments = 12.
        let inst = toy_instance(0.2);
        let outcome = McfLtc::new().run(&inst);
        assert_eq!(outcome.arrangement.len(), 12);
        let s = outcome.arrangement.quality_per_task(3);
        for (i, &q) in s.iter().enumerate() {
            assert!(q >= inst.delta() - 1e-9, "task {i} under threshold: {q}");
        }
    }

    #[test]
    fn multiple_batches_on_a_larger_instance() {
        // 6 tasks, K = 2, ε = 0.2 ⇒ m = 12; 60 workers ⇒ several batches.
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .build()
            .unwrap();
        let tasks: Vec<Task> = (0..6)
            .map(|i| Task::new(Point::new((i * 4) as f64, 0.0)))
            .collect();
        let workers: Vec<Worker> = (0..60)
            .map(|i| Worker::new(Point::new((i % 24) as f64, 1.0), 0.9))
            .collect();
        let inst = Instance::new(tasks, workers, params).unwrap();
        let outcome = McfLtc::new().run(&inst);
        assert!(outcome.completed);
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn incomplete_when_stream_is_too_short() {
        let params = ProblemParams::builder()
            .epsilon(0.06)
            .capacity(1)
            .build()
            .unwrap();
        let inst = Instance::new(
            vec![Task::new(Point::ORIGIN); 4],
            vec![Worker::new(Point::new(1.0, 0.0), 0.9); 3],
            params,
        )
        .unwrap();
        let outcome = McfLtc::new().run(&inst);
        assert!(!outcome.completed);
        assert_eq!(outcome.latency(), None);
    }

    #[test]
    fn batch_scale_ablation_still_feasible() {
        let inst = toy_instance(0.2);
        for scale in [0.5, 2.0] {
            let outcome = McfLtc::with_batch_scale(scale).run(&inst);
            assert!(outcome.completed, "scale {scale}");
            outcome.arrangement.check_feasible(&inst).unwrap();
        }
    }

    #[test]
    fn workers_with_no_nearby_tasks_are_skipped() {
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .build()
            .unwrap();
        let mut workers = vec![Worker::new(Point::new(500.0, 500.0), 0.9); 5];
        workers.extend(vec![Worker::new(Point::new(1.0, 0.0), 0.95); 8]);
        let inst = Instance::new(vec![Task::new(Point::ORIGIN)], workers, params).unwrap();
        let outcome = McfLtc::new().run(&inst);
        assert!(outcome.completed);
        // Only the co-located workers (ids 5+) can appear.
        assert!(outcome
            .arrangement
            .assignments()
            .iter()
            .all(|a| a.worker.0 >= 5));
    }
}
