//! Differential tests for adaptive spatial-index growth and load-aware
//! stripe rebalancing:
//!
//! * **rebalanced ≡ never-rebalanced** — a multi-shard service that
//!   rebalances mid-stream (facade or pipelined handle) commits, event
//!   for event, exactly what a 1-shard service that never rebalances
//!   commits for the same submission sequence —
//!   migration preserves the local-order-follows-global-order invariant
//!   the N-shard ≡ 1-shard guarantee rests on;
//! * **growth is decision-neutral** — adaptive index growth changes
//!   clamp telemetry and per-query cost, never an assignment;
//! * **durability** — a snapshot taken after a rebalance records the
//!   non-uniform stripe layout, round-trips through the text format, and
//!   restores to a service that continues bit-exactly.
//!
//! The workload here is the adversarial one the uniform paper streams
//! never produce: posts concentrated in a hot cell that drifts across
//! (and beyond) the declared region.

use ltc_core::model::{ProblemParams, Task, TaskId, Worker};
use ltc_core::service::{Algorithm, Event, Lifecycle, LtcService, ServiceBuilder, StreamEvent};
use ltc_core::snapshot::{read_snapshot, write_snapshot};
use ltc_spatial::{BoundingBox, Point};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn params(k: u32, epsilon: f64) -> ProblemParams {
    ProblemParams::builder()
        .epsilon(epsilon)
        .capacity(k)
        .d_max(30.0)
        .build()
        .unwrap()
}

fn region() -> BoundingBox {
    BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
}

fn shards(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn builder(n_shards: usize) -> ServiceBuilder {
    ServiceBuilder::new(params(2, 0.25), region())
        .algorithm(Algorithm::Laf)
        .shards(shards(n_shards))
}

/// One submission — the common alphabet of both front-ends.
#[derive(Debug, Clone)]
enum Op {
    Check(Worker),
    Post(Task),
}

/// What either front-end delivered for one submission.
#[derive(Debug, Clone, PartialEq)]
enum Delivery {
    Worker(Vec<Event>),
    Task(TaskId),
}

/// A drifting-hotspot stream: each step posts `burst` tasks inside the
/// current hot cell and then checks in a few co-located workers (so
/// earlier tasks complete and the live pool follows the hotspot). The
/// hotspot drifts from x = 100 out to x = `x_end` — past the declared
/// region when `x_end > 1000` — over the first 60% of the stream, then
/// stays put (so adaptive services can reach a steady state).
fn drift_ops(seed: u64, n_steps: usize, burst: usize, x_end: f64) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ops = Vec::new();
    for step in 0..n_steps {
        let t = (step as f64 / (0.6 * n_steps.max(1) as f64)).min(1.0);
        let cx = 100.0 + t * (x_end - 100.0);
        let cy = 500.0;
        for _ in 0..burst {
            let r = next();
            let dx = (r % 80) as f64 - 40.0;
            let dy = ((r >> 8) % 80) as f64 - 40.0;
            ops.push(Op::Post(Task::new(Point::new(cx + dx, cy + dy))));
        }
        for _ in 0..3 {
            let r = next();
            let dx = (r % 60) as f64 - 30.0;
            let dy = ((r >> 8) % 60) as f64 - 30.0;
            let acc = 0.8 + 0.18 * ((r >> 20) % 100) as f64 / 100.0;
            ops.push(Op::Check(Worker::new(Point::new(cx + dx, cy + dy), acc)));
        }
    }
    ops
}

fn apply_facade(service: &mut LtcService, op: &Op) -> Delivery {
    match op {
        Op::Check(w) => Delivery::Worker(service.check_in(w)),
        Op::Post(t) => Delivery::Task(service.post_task(*t).unwrap()),
    }
}

#[test]
fn facade_rebalances_match_a_single_shard_that_never_rebalances() {
    let ops = drift_ops(3, 120, 2, 1800.0);
    let mut single = builder(1).build().unwrap();
    let mut sharded = builder(4).grow_index_after(32).build().unwrap();
    let mut moved_total = 0u64;
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(
            apply_facade(&mut single, op),
            apply_facade(&mut sharded, op),
            "rebalanced 4-shard service diverged at op {i}"
        );
        if i % 100 == 99 {
            if let Some(outcome) = sharded.rebalance().unwrap() {
                moved_total += outcome.moved_tasks;
                assert!(
                    outcome.max_mean_ratio() <= 1.5,
                    "post-rebalance skew {:.2} exceeds 1.5 (loads {:?})",
                    outcome.max_mean_ratio(),
                    outcome.live_loads
                );
            }
        }
    }
    assert!(
        moved_total > 0,
        "the drifting hotspot must force real migrations"
    );
    assert_eq!(single.n_assignments(), sharded.n_assignments());
    assert_eq!(single.latency(), sharded.latency());
    // A 1-shard rebalance is always a no-op.
    assert_eq!(single.rebalance().unwrap(), None);
}

#[test]
fn handle_rebalance_matches_facade_and_announces_lifecycle() {
    let ops = drift_ops(17, 80, 2, 1600.0);
    let mut facade = builder(1).build().unwrap();
    let expect: Vec<Delivery> = ops.iter().map(|op| apply_facade(&mut facade, op)).collect();

    // The handle and a 3-shard facade twin share one configuration,
    // index growth included, and one rebalance cadence.
    let adaptive = || builder(3).grow_index_after(16);
    let mut handle = adaptive().start().unwrap();
    let mut twin = adaptive().build().unwrap();
    let stream = handle.subscribe().unwrap();
    let mut rebalances = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Check(w) => {
                handle.submit_worker(w).unwrap();
            }
            Op::Post(t) => {
                handle.post_task(*t).unwrap();
            }
        }
        apply_facade(&mut twin, op);
        if i % 120 == 119 {
            let applied = handle.rebalance().unwrap();
            assert_eq!(applied, twin.rebalance().unwrap(), "op {i}");
            rebalances += u64::from(applied.is_some());
        }
    }
    handle.drain().unwrap();
    // Both executors end in the same state, not just the same events.
    assert_eq!(handle.snapshot().unwrap(), twin.snapshot());
    assert_eq!(handle.metrics().unwrap(), twin.metrics());
    let mut got = Vec::new();
    let mut announced = 0u64;
    while let Some(e) = stream.try_recv() {
        match e {
            StreamEvent::Worker { events, .. } => got.push(Delivery::Worker(events)),
            StreamEvent::TaskPosted { task } => got.push(Delivery::Task(task)),
            StreamEvent::Lifecycle(Lifecycle::Rebalanced {
                moved_tasks,
                max_load,
                mean_load,
            }) => {
                assert!(moved_tasks > 0, "no-op rebalances are not announced");
                assert!(max_load as f64 >= mean_load);
                announced += 1;
            }
            StreamEvent::Lifecycle(_) => {}
        }
    }
    assert_eq!(expect, got, "pipelined rebalancing changed a decision");
    assert!(
        rebalances > 0,
        "the drift must trigger at least one rebalance"
    );
    assert_eq!(announced, rebalances, "every rebalance is announced once");
}

#[test]
fn snapshot_across_a_rebalance_round_trips_and_continues_bit_exactly() {
    let ops = drift_ops(29, 100, 2, 1500.0);
    let rebalance_at = [149usize, 349];
    let snapshot_at = 250usize;

    let run_to = |service: &mut LtcService, ops: &[Op], base: usize| -> Vec<Delivery> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let d = apply_facade(service, op);
                if rebalance_at.contains(&(base + i)) {
                    service.rebalance().unwrap();
                }
                d
            })
            .collect()
    };

    let mut uninterrupted = builder(4).build().unwrap();
    let full = run_to(&mut uninterrupted, &ops, 0);

    let mut first = builder(4).build().unwrap();
    let mut stitched = run_to(&mut first, &ops[..snapshot_at], 0);
    let snap = first.snapshot();
    assert!(
        snap.stripes.is_some(),
        "a rebalanced service must persist its stripe layout"
    );
    let mut text = Vec::new();
    write_snapshot(&snap, &mut text).unwrap();
    let decoded = read_snapshot(std::io::Cursor::new(text)).unwrap();
    assert_eq!(snap, decoded, "stripe records must survive the wire");
    let mut restored = LtcService::restore(decoded).unwrap();
    stitched.extend(run_to(&mut restored, &ops[snapshot_at..], snapshot_at));
    assert_eq!(full, stitched, "restore across a rebalance diverged");
    assert_eq!(uninterrupted.latency(), restored.latency());
}

#[test]
fn adaptive_growth_stops_clamping_without_changing_decisions() {
    // The declared region badly under-covers the stream: everything
    // happens in a hotspot far outside it.
    let small = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    let build = |grow: u64| {
        ServiceBuilder::new(params(2, 0.25), small)
            .algorithm(Algorithm::Laf)
            .shards(shards(2))
            .grow_index_after(grow)
            .build()
            .unwrap()
    };
    let mut adaptive = build(4);
    let mut fixed = build(0);
    let ops = drift_ops(41, 60, 2, 900.0)
        .into_iter()
        .map(|op| match op {
            // Shift the whole stream 800 units east of the region.
            Op::Post(t) => Op::Post(Task::new(Point::new(t.loc.x + 800.0, t.loc.y))),
            Op::Check(w) => Op::Check(Worker::new(
                Point::new(w.loc.x + 800.0, w.loc.y),
                w.accuracy,
            )),
        })
        .collect::<Vec<_>>();
    let mut adaptive_trace = Vec::new();
    let mut fixed_trace = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(
            apply_facade(&mut adaptive, op),
            apply_facade(&mut fixed, op),
            "index growth changed a decision at op {i}"
        );
        adaptive_trace.push(adaptive.metrics().clamped_insertions);
        fixed_trace.push(fixed.metrics().clamped_insertions);
    }
    let adaptive_clamps = *adaptive_trace.last().unwrap();
    let fixed_clamps = *fixed_trace.last().unwrap();
    assert!(
        adaptive_clamps < fixed_clamps,
        "growth must reduce clamping (adaptive {adaptive_clamps}, fixed {fixed_clamps})"
    );
    // Steady state: once the drift settles inside the grown extent, the
    // adaptive counter stops moving (at most one sub-threshold tail)
    // while the fixed twin keeps climbing with every hotspot post.
    let probe = 5 * adaptive_trace.len() / 6;
    let adaptive_late = adaptive_clamps - adaptive_trace[probe];
    let fixed_late = fixed_clamps - fixed_trace[probe];
    assert!(
        adaptive_late <= 4,
        "clamping kept growing after resize: +{adaptive_late} in the final sixth"
    );
    assert!(
        fixed_late > adaptive_late,
        "the fixed twin should keep clamping ({fixed_late} vs {adaptive_late})"
    );
}

#[test]
fn rebalance_balances_hot_stripes_to_a_fixed_point() {
    // Posts cycle over four fixed hot columns inside two stripes: one
    // rebalance spreads them, and a second finds the same stripe cuts
    // and does nothing.
    let hot_xs = [500.0, 540.0, 580.0, 620.0];
    let mut service = builder(4).build().unwrap();
    for i in 0..192 {
        let x = hot_xs[i % hot_xs.len()];
        let y = 200.0 + (i % 50) as f64 * 10.0;
        service.post_task(Task::new(Point::new(x, y))).unwrap();
    }
    let outcome = service
        .rebalance()
        .unwrap()
        .expect("the hot stripes must need rebalancing");
    assert!(outcome.moved_tasks > 0);
    assert!(
        outcome.max_mean_ratio() <= 1.5,
        "post-rebalance skew {:.2} exceeds 1.5 (loads {:?})",
        outcome.max_mean_ratio(),
        outcome.live_loads
    );
    assert_eq!(service.rebalance().unwrap(), None, "layout must settle");
}

#[test]
fn poisoned_far_task_coarsens_instead_of_crashing() {
    // A single task at an astronomical coordinate must coarsen the
    // index/routing tiles (f64 cap comparisons), not overflow the
    // column math in debug builds or bypass the cap in release.
    let mut service = builder(4).grow_index_after(1).build().unwrap();
    service
        .post_task(Task::new(Point::new(1.0e18, 500.0)))
        .unwrap();
    service
        .post_task(Task::new(Point::new(500.0, 500.0)))
        .unwrap();
    service.rebalance().unwrap();
    let events = service.check_in(&Worker::new(Point::new(500.0, 501.0), 0.95));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Assigned { task, .. } if task.0 == 1)),
        "the nearby task must still be served after coarsening"
    );
}

#[test]
fn unsplittable_hot_column_settles_instead_of_thrashing() {
    // Every post lands in ONE routing column: once a rebalance isolates
    // it, the load stays skewed but the layout is a fixed point, so the
    // next rebalance finds nothing to do.
    let mut service = builder(4).build().unwrap();
    for i in 0..192 {
        service
            .post_task(Task::new(Point::new(515.0, (i % 100) as f64 * 10.0)))
            .unwrap();
    }
    service
        .rebalance()
        .unwrap()
        .expect("the hot column must first be isolated");
    assert_eq!(service.rebalance().unwrap(), None, "layout must settle");
}

/// The policies whose N-shard decisions must survive migrations: LAF,
/// AAM (whose regime reads the cross-shard unit aggregate) and seeded
/// Random (which hashes each task's service-global id).
fn policy() -> impl Strategy<Value = Algorithm> {
    (0u8..3, any::<u64>()).prop_map(|(which, seed)| match which {
        0 => Algorithm::Laf,
        1 => Algorithm::Aam,
        _ => Algorithm::Random { seed },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite property: random interleavings of hot-cell post
    /// bursts and check-ins, with rebalances triggered at random
    /// cadences, stay event-for-event identical to a never-rebalancing
    /// 1-shard run, for every policy.
    #[test]
    fn hot_cell_bursts_with_rebalances_match_single_shard(
        seed in 0u64..10_000,
        n_steps in 20usize..80,
        n_shards in 2usize..5,
        burst in 1usize..5,
        cadence in 15usize..60,
        x_end in 900u32..2200,
        algorithm in policy(),
    ) {
        let ops = drift_ops(seed, n_steps, burst, x_end as f64);
        let mut single = builder(1).algorithm(algorithm).build().unwrap();
        let mut sharded = builder(n_shards)
            .algorithm(algorithm)
            .grow_index_after(24)
            .build()
            .unwrap();
        for (i, op) in ops.iter().enumerate() {
            prop_assert_eq!(
                apply_facade(&mut single, op),
                apply_facade(&mut sharded, op),
                "diverged at op {}", i
            );
            if i % cadence == cadence - 1 {
                sharded.rebalance().unwrap();
            }
        }
        prop_assert_eq!(single.n_assignments(), sharded.n_assignments());
        prop_assert_eq!(single.latency(), sharded.latency());
    }
}

#[test]
fn rebalance_preserves_cumulative_clamp_telemetry() {
    // Clamp counters are per-shard index history; a rebalance migrates
    // tasks through `EngineState` and used to rebuild the counters to
    // zero, erasing the operator signal (and re-arming
    // `grow_index_after` from scratch). The counters must now ride the
    // migration: the service-wide sum is unchanged by a rebalance.
    let mut service = builder(4).build().unwrap();
    // In-region spread plus an out-of-region cluster that both clamps
    // and skews the load toward the right-most stripe.
    for i in 0..24 {
        service
            .post_task(Task::new(Point::new(
                (i % 8) as f64 * 120.0,
                (i / 8) as f64 * 300.0,
            )))
            .unwrap();
    }
    for i in 0..12 {
        service
            .post_task(Task::new(Point::new(
                4000.0 + (i % 4) as f64 * 25.0,
                500.0 + (i / 4) as f64 * 20.0,
            )))
            .unwrap();
    }
    let before = service.metrics();
    assert_eq!(before.clamped_insertions, 12);
    assert_eq!(before.rebalances, 0);

    let outcome = service
        .rebalance()
        .unwrap()
        .expect("the far cluster skews the load");
    assert!(outcome.moved_tasks > 0);
    let after = service.metrics();
    assert_eq!(
        after.clamped_insertions, before.clamped_insertions,
        "migration must carry the clamp counters, not reset them"
    );
    assert_eq!(after.rebalances, 1);
    assert_eq!(
        after.shard_loads.iter().sum::<u64>(),
        before.shard_loads.iter().sum::<u64>(),
        "live tasks are conserved"
    );

    // And the counters stay durable through a snapshot of the
    // *rebalanced* state too.
    let mut buf = Vec::new();
    write_snapshot(&service.snapshot(), &mut buf).unwrap();
    let restored = LtcService::restore(read_snapshot(buf.as_slice()).unwrap()).unwrap();
    assert_eq!(
        restored.metrics().clamped_insertions,
        after.clamped_insertions
    );
}
