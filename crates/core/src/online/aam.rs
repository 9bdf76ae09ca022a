//! Average And Maximum (Algorithm 3).

use super::{OnlineAlgorithm, Pick, TopK};
use crate::engine::{AssignmentEngine, Candidate};
use crate::model::WorkerId;

/// **AAM** — Average And Maximum (paper Algorithm 3).
///
/// A hybrid greedy inspired by McNaughton's rule: the makespan is driven
/// either by the *average* remaining work or by the single *hardest* task.
/// Per arriving worker AAM computes
///
/// * `avg = Σ_t (δ − S[t])⁺ / K` — remaining quality normalized by
///   capacity ("average number of workers still needed"), and
/// * `maxRemain = max_t (δ − S[t])⁺` — the hardest task's deficit,
///
/// then picks the `K` best tasks under
///
/// * **LGF** (Largest Gain First, when `avg ≥ maxRemain`): key
///   `min{Acc*(w,t), δ − S[t]}` — don't waste a highly accurate worker on
///   a task that needs only a sliver more quality;
/// * **LRF** (Largest Remaining First, otherwise): key `δ − S[t]` — rush
///   the bottleneck tasks.
///
/// Competitive ratio 7.738 under the paper's assumptions (Theorem 6).
///
/// ### Reading of lines 4–5
///
/// The pseudo-code computes `avg = Σ_i (δ − S[i]) / K` and
/// `maxRemain = max_i (δ − S[i])` over raw real values. Two details are
/// pinned down by the worked Example 4 rather than by the pseudo-code:
///
/// 1. completed tasks would contribute *negative* terms to the sum; we
///    clamp each term at zero (the quantity is "the average number of
///    workers needed to finish all tasks" — a need cannot be negative);
/// 2. the regime indicators count whole *worker-units*, `⌈(δ − S[i])⁺⌉`:
///    with raw real values the example's third worker would already fall
///    into the LRF regime, contradicting the paper's own trace ("for the
///    first three workers, the process is the same as in LAF"), while the
///    worker-unit reading reproduces the trace exactly (and agrees with
///    the real-valued comparison the paper prints at `w4`, where both
///    readings pick LRF).
///
/// The selection *keys* themselves (lines 9 and 11) stay real-valued.
///
/// ### Sharded deployments
///
/// The regime indicators are *global* quantities. A sharded service whose
/// engines each cover a task subset can aggregate the per-shard O(1)
/// sum/max statistics and inject the global view via
/// [`Aam::set_global_units`]; with the override in place the
/// `avg ≥ maxRemain` switch decides exactly as a single-engine AAM would,
/// regardless of how tasks are partitioned. Without an override the
/// switch falls back to the engine's own (shard-local) statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Aam {
    strategy: AamStrategy,
    /// When set, overrides the engine-local `(Σ units, max units)` the
    /// hybrid regime switch reads — the cross-shard aggregate a sharded
    /// front-end computes.
    global_units: Option<(f64, f64)>,
}

/// Which selection rule AAM applies — the hybrid switch is the paper's
/// algorithm; the pure variants isolate each half for the ablation study.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AamStrategy {
    /// The paper's Algorithm 3: switch between LGF and LRF on
    /// `avg ≥ maxRemain`.
    #[default]
    Hybrid,
    /// Always Largest Gain First.
    AlwaysLgf,
    /// Always Largest Remaining First.
    AlwaysLrf,
}

impl Aam {
    /// Creates the paper's hybrid algorithm (stateless between workers).
    pub fn new() -> Self {
        Aam::default()
    }

    /// Creates an ablation variant with a fixed strategy.
    pub fn with_strategy(strategy: AamStrategy) -> Self {
        Aam {
            strategy,
            global_units: None,
        }
    }

    /// Installs (or clears) the cross-shard worker-unit aggregate the
    /// hybrid regime switch should read instead of the engine's own
    /// statistics. Sharded front-ends set this to the exact global
    /// `(Σ_t ⌈(δ − S[t])⁺⌉, max_t ⌈(δ − S[t])⁺⌉)` before every `assign`
    /// call; the value persists until changed. Ignored by the pure
    /// LGF/LRF ablations.
    #[inline]
    pub fn set_global_units(&mut self, units: Option<(f64, f64)>) {
        self.global_units = units;
    }
}

impl OnlineAlgorithm for Aam {
    fn name(&self) -> &'static str {
        match self.strategy {
            AamStrategy::Hybrid => "AAM",
            AamStrategy::AlwaysLgf => "AAM/LGF-only",
            AamStrategy::AlwaysLrf => "AAM/LRF-only",
        }
    }

    fn assign(
        &mut self,
        engine: &AssignmentEngine,
        _worker: WorkerId,
        candidates: &[Candidate],
        picks: &mut Vec<Pick>,
    ) {
        let k = engine.params().capacity as usize;

        // Lines 4–5: the regime indicators, in whole worker-units
        // (see the type-level docs for why ⌈·⌉ is the faithful reading).
        // The engine maintains the sum and max incrementally on every
        // commit, so reading them here is O(1) — no per-worker scan of
        // the uncompleted set. The values are integer-valued f64s, so
        // they equal a fresh scan exactly.
        let use_lgf = match self.strategy {
            AamStrategy::AlwaysLgf => true,
            AamStrategy::AlwaysLrf => false,
            AamStrategy::Hybrid => {
                let (sum_units, max_units) = self
                    .global_units
                    .unwrap_or_else(|| engine.remaining_units());
                sum_units / k as f64 >= max_units
            }
        };

        let mut top = TopK::new(k);
        for c in candidates {
            let remaining = engine.remaining(c.task);
            let key = if use_lgf {
                c.contribution.min(remaining)
            } else {
                remaining
            };
            top.offer(key, c.task);
        }
        top.drain_into(picks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use crate::toy::toy_instance;

    /// Paper Example 4: AAM completes the toy instance with 7 workers —
    /// one fewer than LAF.
    #[test]
    fn example_4_latency_is_7() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut Aam::new());
        assert!(outcome.completed);
        assert_eq!(outcome.latency(), Some(7));
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    /// The paper's trace: the first three workers behave exactly like LAF
    /// (LGF regime), then w4 switches to LRF and takes t3 and t2.
    #[test]
    fn example_4_w4_switches_to_lrf() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut Aam::new());
        let tasks_of = |w: u64| -> Vec<u32> {
            outcome
                .arrangement
                .assignments()
                .iter()
                .filter(|a| a.worker.0 == w)
                .map(|a| a.task.0)
                .collect()
        };
        assert_eq!(tasks_of(0), vec![0, 1]);
        assert_eq!(tasks_of(1), vec![0, 1]);
        assert_eq!(tasks_of(2), vec![0, 1]);
        // w4 under LRF: largest deficits are t3 (3.22) and t2 (0.60).
        assert_eq!(tasks_of(3), vec![1, 2]);
        // w5: t1 and t3 remain.
        assert_eq!(tasks_of(4), vec![0, 2]);
        // w6, w7: only t3 remains.
        assert_eq!(tasks_of(5), vec![2]);
        assert_eq!(tasks_of(6), vec![2]);
    }

    /// Ablation variants stay feasible and the pure strategies bracket the
    /// hybrid on the toy instance.
    #[test]
    fn ablation_variants_are_feasible() {
        let inst = toy_instance(0.2);
        for strategy in [AamStrategy::AlwaysLgf, AamStrategy::AlwaysLrf] {
            let outcome = run_online(&inst, &mut Aam::with_strategy(strategy));
            assert!(outcome.completed, "{strategy:?} incomplete");
            outcome.arrangement.check_feasible(&inst).unwrap();
        }
        // Both pure variants land between the exact optimum (6) and
        // LAF's 8 on the toy; the hybrid achieves 7.
        for strategy in [AamStrategy::AlwaysLgf, AamStrategy::AlwaysLrf] {
            let outcome = run_online(&inst, &mut Aam::with_strategy(strategy));
            let l = outcome.latency().unwrap();
            assert!((6..=8).contains(&l), "{strategy:?} latency {l}");
        }
    }

    /// Regression for the LGF key: a nearly-complete task must not absorb
    /// a strong worker when another task still needs the full amount.
    #[test]
    fn lgf_prefers_gainful_tasks() {
        use crate::model::{ProblemParams, Task, Worker};
        use ltc_spatial::Point;
        // Two tasks; capacity 1. δ(0.2) ≈ 3.22.
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(1)
            .build()
            .unwrap();
        let inst = crate::model::Instance::new(
            vec![Task::new(Point::ORIGIN), Task::new(Point::new(2.0, 0.0))],
            vec![Worker::new(Point::new(1.0, 0.0), 0.99); 20],
            params,
        )
        .unwrap();
        let outcome = run_online(&inst, &mut Aam::new());
        assert!(outcome.completed);
        // LAF on this symmetric instance performs identically; the test
        // pins AAM's feasibility + early-stop behaviour.
        outcome.arrangement.check_feasible(&inst).unwrap();
    }
}
