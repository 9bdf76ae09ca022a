//! Random assignment — the paper's online baseline.

use super::{OnlineAlgorithm, Pick, TopK};
use crate::engine::{AssignmentEngine, Candidate};
use crate::model::WorkerId;

/// **Random** — the naive online baseline of the paper's evaluation:
/// "tasks nearby are assigned randomly to the worker when s/he arrives".
///
/// Picks the `min(K, |candidates|)` eligible uncompleted tasks with the
/// largest keyed hash `h = splitmix64(seed, worker arrival, task id)`,
/// ranked with key `(h >> 11) as f64` (exact in an `f64`) and ties
/// toward the smaller task id. The hash is a counter-based generator in
/// the sense of Salmon et al., "Parallel random numbers: as easy as 1,
/// 2, 3" (SC'11): each worker's pick is a uniformly random `K`-subset of
/// its candidates, yet a pure function of the seed, the worker's arrival
/// index and the task ids. There is no stream to carry, so a snapshot
/// restores it from the seed alone and every shard of a service makes
/// the single-engine decision.
#[derive(Debug, Clone, Copy)]
pub struct RandomAssign {
    seed: u64,
}

impl RandomAssign {
    /// Creates the baseline with a fixed default seed.
    pub fn new() -> Self {
        Self::seeded(0x5EED)
    }

    /// Creates the baseline with an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for RandomAssign {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineAlgorithm for RandomAssign {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn assign(
        &mut self,
        engine: &AssignmentEngine,
        worker: WorkerId,
        candidates: &[Candidate],
        picks: &mut Vec<Pick>,
    ) {
        let mut top = TopK::new(engine.params().capacity as usize);
        for c in candidates {
            let h = keyed_hash(self.seed, worker.0, c.task.0);
            top.offer((h >> 11) as f64, c.task);
        }
        top.drain_into(picks);
    }
}

/// SplitMix64 (Steele, Lea and Flood, OOPSLA'14): one golden-gamma step
/// followed by the output mix.
#[inline]
fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `splitmix64(seed, worker, task)`: the three words chained through
/// SplitMix64 rounds.
#[inline]
fn keyed_hash(seed: u64, worker: u64, task: u32) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ worker) ^ u64::from(task))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use crate::toy::toy_instance;

    #[test]
    fn completes_the_toy_instance_feasibly() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut RandomAssign::seeded(1));
        assert!(outcome.completed);
        outcome.arrangement.check_feasible(&inst).unwrap();
    }

    #[test]
    fn same_seed_is_deterministic() {
        let inst = toy_instance(0.2);
        let a = run_online(&inst, &mut RandomAssign::seeded(9));
        let b = run_online(&inst, &mut RandomAssign::seeded(9));
        assert_eq!(a.arrangement.assignments(), b.arrangement.assignments());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let inst = toy_instance(0.2);
        let outcomes: Vec<_> = (0..8)
            .map(|s| run_online(&inst, &mut RandomAssign::seeded(s)))
            .collect();
        let distinct = outcomes
            .windows(2)
            .filter(|w| w[0].arrangement.assignments() != w[1].arrangement.assignments())
            .count();
        assert!(distinct > 0, "eight seeds all produced identical runs");
    }

    #[test]
    fn never_picks_more_than_k() {
        let inst = toy_instance(0.2);
        let outcome = run_online(&inst, &mut RandomAssign::seeded(3));
        let load = outcome.arrangement.load_per_worker();
        assert!(load.values().all(|&l| l <= 2));
    }
}
