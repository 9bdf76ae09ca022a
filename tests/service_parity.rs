//! Shard invariance on batch instances: a [`ServiceHandle`] at N shards,
//! fed an instance's workers in order, is checked by [`conform`] against
//! the bare engine under the same policy (and so against every other
//! shard count), with the facade as the state reference and the
//! feasibility invariants on every case.

mod conform;

use conform::{conform, policies, synthetic, Case, Op, Stack};
use ltc::prelude::*;
use proptest::prelude::*;

/// Runs `instance` through an N-shard handle under `algorithm`.
fn check(instance: &Instance, algorithm: Algorithm, shards: usize) {
    conform(Stack::HANDLE, &Case::instance(instance, algorithm, shards));
}

#[test]
fn every_policy_matches_the_bare_engine_on_seeded_instances() {
    for seed in [3u64, 5, 7] {
        let instance = synthetic((seed, 50, 900, 3, 0.18, 300.0));
        for shards in [1, 2, 4] {
            for algorithm in policies(seed) {
                check(&instance, algorithm, shards);
            }
        }
    }
}

#[test]
fn four_shard_laf_matches_single_shard_on_seeded_instances() {
    for dims in [
        (11, 40, 600, 2, 0.20, 300.0),
        (12, 80, 1200, 6, 0.14, 300.0),
        (13, 15, 400, 1, 0.30, 300.0),
        (14, 120, 2000, 4, 0.10, 300.0),
    ] {
        check(&synthetic(dims), Algorithm::Laf, 4);
    }
}

/// Every worker of the instance is submitted, also after the last task
/// completed, so completed streams idle like the facade's do.
#[test]
fn pipelined_laf_four_shards_matches_one_shard_and_the_facade() {
    for dims in [
        (41, 40, 600, 2, 0.20, 300.0),
        (42, 80, 1200, 6, 0.14, 300.0),
    ] {
        let instance = synthetic(dims);
        let mut case = Case::instance(&instance, Algorithm::Laf, 4);
        case.ops = instance.workers().iter().map(|w| Op::Submit(*w)).collect();
        conform(Stack::HANDLE, &case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy at one drawn shard count from 1 to 5.
    #[test]
    fn every_policy_matches_the_bare_engine_at_1_2_4_shards(
        seed in 0u64..10_000,
        n_tasks in 5usize..60,
        n_workers in 100usize..500,
        capacity in 1u32..5,
        shards in 1usize..=5,
        random_seed in any::<u64>(),
    ) {
        let instance = synthetic((seed, n_tasks, n_workers, capacity, 0.2, 300.0));
        for algorithm in policies(random_seed) {
            check(&instance, algorithm, shards);
        }
    }

    #[test]
    fn four_shard_laf_matches_single_shard_property(
        seed in 0u64..10_000,
        n_tasks in 5usize..60,
        n_workers in 100usize..500,
        capacity in 1u32..5,
    ) {
        let instance = synthetic((seed, n_tasks, n_workers, capacity, 0.2, 300.0));
        check(&instance, Algorithm::Laf, 4);
    }
}
