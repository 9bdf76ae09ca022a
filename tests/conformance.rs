//! The conformance cases over generated op runs: N-shard handles,
//! durable handles crashed or shut down anywhere, and clients at any
//! window up to the full production stack, each driven through
//! [`conform`] against the bare-engine oracle (see `tests/conform`).
//! CI runs this file under a hard timeout: a wedged stack fails the build.

mod conform;

use conform::{
    conform, durable, durable_options, ops, seeded_ops, shape, Case, Op, Restart, Shape, Stack,
};
use ltc::prelude::*;
use ltc_durable::{DurableOptions, SyncPolicy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N-shard handle ≡ engine on generated op runs: 1–5 shards, all five
    /// policies, 50–250 ops of either mix.
    #[test]
    fn handle_conforms_on_op_runs(shape in shape(), ops in ops(50..=250)) {
        conform(Stack::HANDLE, &Case { shape, ops });
    }

    /// Recovered ≡ uninterrupted: a durable handle crashed at any op,
    /// under any sync policy and checkpoint cadence, its final log
    /// segment intact or cut at any byte, recovers the reference state
    /// over the surviving prefix and continues like the oracle.
    #[test]
    fn durable_conforms_after_a_crash_anywhere(
        shape in shape(),
        ops in ops(1..=48),
        options in durable_options(),
        at in 0.0f64..=1.0,
        torn in prop::bool::ANY,
        cut in 0.0f64..=1.0,
    ) {
        let cut = if torn { cut } else { 1.0 };
        conform(durable(options, &ops, at, Restart::Crash { cut }), &Case { shape, ops });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A durable handle shut down and resumed at any op continues like
    /// the oracle, having replayed nothing.
    #[test]
    fn durable_conforms_across_shutdown_and_resume(
        shape in shape(),
        ops in ops(1..=48),
        options in durable_options(),
        at in 0.0f64..=1.0,
    ) {
        conform(durable(options, &ops, at, Restart::Resume), &Case { shape, ops });
    }

    /// Windowed ≡ lockstep ≡ engine: a client at any window from 1 to
    /// 256, over a server over a handle, or over a durable handle that is
    /// shut down and resumed mid-run.
    #[test]
    fn client_conforms_at_any_window(
        shape in shape(),
        ops in ops(8..=48),
        window in 1usize..=256,
        over_durable in prop::bool::ANY,
        options in durable_options(),
        at in 0.0f64..=1.0,
    ) {
        let stack = match over_durable {
            true => durable(options, &ops, at, Restart::Resume),
            false => Stack::HANDLE,
        };
        let stack = Stack { window: Some(window), ..stack };
        conform(stack, &Case { shape, ops });
    }
}

/// Hybrid AAM where a shard's own unit statistics would pick the other
/// regime than the global ones: shard 1 holds one task, shard 0 six, and
/// a check-in reaches both.
#[test]
fn handle_conforms_where_a_shard_regime_differs_from_the_global_one() {
    let post = |x: f64, y: f64| Op::Post(Task::new(Point::new(x, y)));
    let mut ops: Vec<Op> = (1..4).map(|i| post(100.0, 100.0 * f64::from(i))).collect();
    ops.extend([post(530.0, 500.0), post(488.0, 500.0), post(492.0, 500.0)]);
    ops.push(Op::Submit(Worker::new(Point::new(505.0, 500.0), 0.9)));
    let mut shape = Shape::generated(Algorithm::Aam, 2);
    shape.tasks.clear();
    conform(Stack::HANDLE, &Case { shape, ops });
}

#[test]
fn client_conforms_lockstep_and_at_the_full_window() {
    for window in [1usize, 256] {
        for (shards, algorithm) in [
            (1usize, Algorithm::Laf),
            (4, Algorithm::Laf),
            (1, Algorithm::Aam),
            (2, Algorithm::Random { seed: 0xFACE }),
        ] {
            let stack = Stack {
                window: Some(window),
                ..Stack::HANDLE
            };
            let (shape, ops) = (Shape::generated(algorithm, shards), seeded_ops(1, 300));
            conform(stack, &Case { shape, ops });
        }
    }
}

/// The production stack: `LtcClient` (W = 256, and lockstep) →
/// `LtcServer` → `DurableHandle` (`always`) → a 2-shard handle, shut down
/// and resumed mid-run.
#[test]
fn the_production_stack_conforms_across_shutdown_and_resume() {
    let runs = [
        (1u64, Algorithm::Laf, 256),
        (2, Algorithm::Aam, 256),
        (3, Algorithm::Laf, 1),
    ];
    for (seed, algorithm, window) in runs {
        let ops = seeded_ops(seed, 250);
        let always = DurableOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 16,
        };
        let stack = durable(always, &ops, 0.5, Restart::Resume);
        let stack = Stack {
            window: Some(window),
            ..stack
        };
        let shape = Shape::generated(algorithm, 2);
        conform(stack, &Case { shape, ops });
    }
}
