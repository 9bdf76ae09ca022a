//! Lifecycle and differential tests for the pipelined [`ServiceHandle`]
//! runtime:
//!
//! * **pipelined ≡ synchronous** — any interleaving of `submit_worker`
//!   and `post_task` delivers, in submission order, exactly the events
//!   the synchronous facade produces for the same sequence, across
//!   policies and shard counts (including hybrid AAM, whose regime
//!   switch reads the cross-shard aggregate via the rendezvous);
//! * **lifecycle edges** — drain with in-flight mailbox entries,
//!   snapshot-during-stream → restore → continue equals an uninterrupted
//!   run (bit-exact through the text format, Random's keyed picks included),
//!   a session moves handle → facade → handle through its snapshot
//!   mid-stream, and a full mailbox
//!   announces back-pressure instead of failing;
//! * **telemetry** — out-of-region tasks surface as `TaskOutOfRegion`
//!   lifecycle events and as the `clamped_insertions` metric.
//!
//! Every test here must terminate even when the runtime is buggy (CI
//! runs this file under a hard timeout so a deadlocked mailbox fails the
//! build instead of hanging it).

use ltc_core::model::{ProblemParams, Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    Algorithm, Event, Lifecycle, LtcService, ServiceBuilder, ServiceHandle, StreamEvent,
};
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

/// A deterministic mixed workload: clustered tasks and workers spread
/// over the region, with task posts interleaved into the check-in
/// stream.
fn mixed_ops(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_ops)
        .map(|_| {
            let r = next();
            let x = (r % 1000) as f64;
            let y = ((r >> 10) % 1000) as f64;
            if r % 7 == 0 {
                Op::Post(Task::new(Point::new(x, y)))
            } else {
                let acc = 0.7 + 0.29 * ((r >> 20) % 100) as f64 / 100.0;
                Op::Check(Worker::new(Point::new(x, y), acc))
            }
        })
        .collect()
}

fn run_facade(service: &mut LtcService, ops: &[Op]) -> Vec<Delivery> {
    ops.iter()
        .map(|op| match op {
            Op::Check(w) => Delivery::Worker(service.check_in(w)),
            Op::Post(t) => Delivery::Task(service.post_task(*t).unwrap()),
        })
        .collect()
}

/// Submits every op, drains, and returns the subscriber's ordered
/// deliveries (lifecycle notifications filtered out).
fn run_handle(handle: &mut ServiceHandle, ops: &[Op]) -> Vec<Delivery> {
    let stream = handle.subscribe().unwrap();
    for op in ops {
        match op {
            Op::Check(w) => {
                handle.submit_worker(w).unwrap();
            }
            Op::Post(t) => {
                handle.post_task(*t).unwrap();
            }
        }
    }
    handle.drain().unwrap();
    std::iter::from_fn(|| stream.try_recv())
        .filter_map(|e| match e {
            StreamEvent::Worker { events, .. } => Some(Delivery::Worker(events)),
            StreamEvent::TaskPosted { task } => Some(Delivery::Task(task)),
            StreamEvent::Lifecycle(_) => None,
        })
        .collect()
}

fn builder(algorithm: Algorithm, n_shards: usize, tasks: Vec<Task>) -> ServiceBuilder {
    ServiceBuilder::new(params(2, 0.25), region())
        .algorithm(algorithm)
        .shards(shards(n_shards))
        .tasks(tasks)
}

fn seed_tasks() -> Vec<Task> {
    (0..24)
        .map(|i| {
            Task::new(Point::new(
                (i % 6) as f64 * 160.0 + 40.0,
                (i / 6) as f64 * 240.0,
            ))
        })
        .collect()
}

#[test]
fn pipelined_matches_facade_on_interleaved_ops() {
    let ops = mixed_ops(42, 500);
    for algorithm in [
        Algorithm::Laf,
        Algorithm::Aam,
        Algorithm::AamLgf,
        Algorithm::Random { seed: 5 },
    ] {
        for n_shards in [1usize, 3] {
            let mut facade = builder(algorithm, n_shards, seed_tasks()).build().unwrap();
            let expect = run_facade(&mut facade, &ops);
            let mut handle = builder(algorithm, n_shards, seed_tasks()).start().unwrap();
            let got = run_handle(&mut handle, &ops);
            assert_eq!(
                expect,
                got,
                "{}/{n_shards}-shard pipelined run diverged from the facade",
                algorithm.name()
            );
            assert_eq!(facade.n_assignments(), handle.n_assignments());
            assert_eq!(facade.all_completed(), handle.all_completed());
            assert_eq!(facade.latency(), handle.latency());
            // Both front-ends run one service state: the drained handle
            // reports the facade's counters and durable state exactly.
            assert_eq!(facade.metrics(), handle.metrics().unwrap());
            assert_eq!(facade.snapshot(), handle.snapshot().unwrap());
        }
    }
}

#[test]
fn four_shard_pipelined_laf_matches_single_shard() {
    // The acceptance differential: ≥4-shard pipelined LAF commits the
    // same assignments as 1-shard, assignment for assignment.
    let ops = mixed_ops(7, 800);
    let run = |n: usize| {
        let mut handle = builder(Algorithm::Laf, n, seed_tasks()).start().unwrap();
        let out = run_handle(&mut handle, &ops);
        (out, handle)
    };
    let (one, one_svc) = run(1);
    let (four, four_svc) = run(4);
    assert_eq!(one, four, "4-shard pipelined LAF diverged from 1-shard");
    assert_eq!(one_svc.n_assignments(), four_svc.n_assignments());
    assert_eq!(one_svc.latency(), four_svc.latency());
}

#[test]
fn drain_with_inflight_mailbox_entries_delivers_everything_in_order() {
    // Mailboxes of one entry: submissions overlap processing constantly,
    // so the drain has real in-flight work to wait for.
    let mut handle = builder(Algorithm::Laf, 3, seed_tasks())
        .mailbox_capacity(1)
        .start()
        .unwrap();
    let stream = handle.subscribe().unwrap();
    let ops = mixed_ops(11, 300);
    let n_checks = ops.iter().filter(|op| matches!(op, Op::Check(_))).count() as u64;
    for op in &ops {
        match op {
            Op::Check(w) => {
                handle.submit_worker(w).unwrap();
            }
            Op::Post(t) => {
                handle.post_task(*t).unwrap();
            }
        }
    }
    handle.drain().unwrap();
    let mut deliveries = Vec::new();
    let mut drained_seen = false;
    while let Some(e) = stream.try_recv() {
        match e {
            StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen }) => {
                assert_eq!(workers_seen, n_checks);
                drained_seen = true;
            }
            StreamEvent::Lifecycle(_) => {} // back-pressure notices are advisory
            other => deliveries.push(other),
        }
    }
    assert!(drained_seen, "drain must announce Lifecycle::Drained");
    // Every submission answered, in submission order.
    assert_eq!(deliveries.len(), ops.len());
    let mut next_worker = 0u64;
    for d in &deliveries {
        if let StreamEvent::Worker { worker, .. } = d {
            assert_eq!(worker.0, next_worker, "deliveries out of submission order");
            next_worker += 1;
        }
    }
    assert_eq!(next_worker, n_checks);
}

#[test]
fn full_mailbox_announces_backpressure_and_still_serves_everything() {
    // A single slow shard (every worker sees hundreds of candidates)
    // behind a one-entry mailbox: submission outruns processing, so the
    // handle must observe at least one stall, announce it, block, and
    // still serve every check-in.
    let tasks: Vec<Task> = (0..800)
        .map(|i| {
            Task::new(Point::new(
                500.0 + (i % 40) as f64 * 0.5,
                500.0 + (i / 40) as f64 * 0.5,
            ))
        })
        .collect();
    let mut handle = ServiceBuilder::new(params(1, 0.01), region())
        .tasks(tasks)
        .mailbox_capacity(1)
        .start()
        .unwrap();
    let stream = handle.subscribe().unwrap();
    for i in 0..300u64 {
        let worker = Worker::new(Point::new(505.0 + (i % 7) as f64, 505.0), 0.9);
        handle.submit_worker(&worker).unwrap();
    }
    handle.drain().unwrap();
    let mut stalls = 0u64;
    let mut served = 0u64;
    while let Some(e) = stream.try_recv() {
        match e {
            StreamEvent::Lifecycle(Lifecycle::ShardStalled { shard, capacity }) => {
                assert_eq!(shard, 0);
                assert_eq!(capacity, 1);
                stalls += 1;
            }
            StreamEvent::Worker { .. } => served += 1,
            _ => {}
        }
    }
    assert_eq!(served, 300);
    assert!(stalls > 0, "a one-entry mailbox under load never stalled");
}

#[test]
fn a_stall_episode_lasts_until_half_the_mailbox_drains() {
    // The same slow shard behind an eight-entry mailbox. A stalled
    // submitter resumes only once the shard is down to four queued
    // entries, so every stall episode after the first is preceded by at
    // least four sends that went straight in: at most n/4 + 1 notices
    // for n submissions, however the threads are scheduled.
    let tasks: Vec<Task> = (0..800)
        .map(|i| {
            Task::new(Point::new(
                500.0 + (i % 40) as f64 * 0.5,
                500.0 + (i / 40) as f64 * 0.5,
            ))
        })
        .collect();
    let mut handle = ServiceBuilder::new(params(1, 0.01), region())
        .tasks(tasks)
        .mailbox_capacity(8)
        .start()
        .unwrap();
    let stream = handle.subscribe().unwrap();
    let n = 400u64;
    for i in 0..n {
        let worker = Worker::new(Point::new(505.0 + (i % 7) as f64, 505.0), 0.9);
        handle.submit_worker(&worker).unwrap();
    }
    handle.drain().unwrap();
    let mut stalls = 0u64;
    let mut served = 0u64;
    while let Some(e) = stream.try_recv() {
        match e {
            StreamEvent::Lifecycle(Lifecycle::ShardStalled { shard, capacity }) => {
                assert_eq!((shard, capacity), (0, 8));
                stalls += 1;
            }
            StreamEvent::Worker { .. } => served += 1,
            _ => {}
        }
    }
    assert_eq!(served, n);
    assert!(
        stalls > 0,
        "an eight-entry mailbox under load never stalled"
    );
    assert!(
        stalls <= n / 4 + 1,
        "{stalls} stall notices for {n} submissions: a stalled submitter must \
         wait for half the mailbox to drain"
    );
}

#[test]
fn snapshot_mid_stream_restore_continue_equals_uninterrupted() {
    // The quiesced-snapshot differential, through the text wire format,
    // with the random policy: its picks hash the seed and each task's
    // global id, so both must survive the round trip.
    let ops = mixed_ops(23, 600);
    let algorithm = Algorithm::Random { seed: 0xBEEF };
    for n_shards in [1usize, 4] {
        let mut uninterrupted = builder(algorithm, n_shards, seed_tasks()).start().unwrap();
        let full = run_handle(&mut uninterrupted, &ops);

        let mut first = builder(algorithm, n_shards, seed_tasks()).start().unwrap();
        let mut stitched = run_handle(&mut first, &ops[..250]);
        let snap = first.snapshot().unwrap();
        drop(first);
        let mut text = Vec::new();
        write_snapshot(&snap, &mut text).unwrap();
        let decoded = read_snapshot(std::io::Cursor::new(text)).unwrap();
        assert_eq!(snap, decoded);
        let mut restored = ServiceHandle::restore(decoded).unwrap();
        stitched.extend(run_handle(&mut restored, &ops[250..]));
        assert_eq!(
            full, stitched,
            "{n_shards}-shard snapshot/restore diverged mid-stream"
        );
    }
}

#[test]
fn a_session_moves_between_executors_through_its_snapshot() {
    let ops = mixed_ops(31, 400);
    let mut facade_only = builder(Algorithm::Aam, 3, seed_tasks()).build().unwrap();
    let expect = run_facade(&mut facade_only, &ops);

    let mut handle = builder(Algorithm::Aam, 3, seed_tasks()).start().unwrap();
    let mut got = run_handle(&mut handle, &ops[..200]);
    let mut facade = LtcService::restore(handle.snapshot().unwrap()).unwrap();
    handle.close().unwrap();
    got.extend(run_facade(&mut facade, &ops[200..300]));
    // And back onto the runtime once more.
    let mut handle_again = ServiceHandle::restore(facade.snapshot()).unwrap();
    got.extend(run_handle(&mut handle_again, &ops[300..]));
    assert_eq!(expect, got, "handle → facade → handle diverged");
    assert_eq!(facade_only.latency(), handle_again.latency());
    assert_eq!(facade_only.snapshot(), handle_again.snapshot().unwrap());
}

#[test]
fn out_of_region_tasks_announce_clamping() {
    let small = BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
    let mut handle = ServiceBuilder::new(params(1, 0.3), small)
        .shards(shards(2))
        .start()
        .unwrap();
    let stream = handle.subscribe().unwrap();
    handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
    let far = handle
        .post_task(Task::new(Point::new(900.0, 900.0)))
        .unwrap();
    handle
        .submit_worker(&Worker::new(Point::new(900.0, 901.0), 0.95))
        .unwrap();
    handle.drain().unwrap();
    let mut clamped = Vec::new();
    let mut assigned_far = false;
    while let Some(e) = stream.try_recv() {
        match e {
            StreamEvent::Lifecycle(Lifecycle::TaskOutOfRegion { task }) => clamped.push(task),
            StreamEvent::Worker { events, .. } => {
                assigned_far |= events
                    .iter()
                    .any(|e| matches!(e, Event::Assigned { task, .. } if *task == far));
            }
            _ => {}
        }
    }
    assert_eq!(clamped, vec![far], "only the far task clamps");
    assert!(assigned_far, "clamped tasks are still served exactly");
    let metrics = handle.metrics().unwrap();
    assert_eq!(metrics.clamped_insertions, 1);
    assert_eq!(metrics.n_tasks, 2);
}

#[test]
fn submissions_after_completion_idle_cleanly() {
    let mut handle = ServiceBuilder::new(params(2, 0.3), region())
        .tasks(vec![Task::new(Point::new(500.0, 500.0))])
        .start()
        .unwrap();
    let worker = Worker::new(Point::new(500.5, 500.0), 0.95);
    let mut submitted = 0u64;
    while !handle.all_completed() {
        handle.submit_worker(&worker).unwrap();
        submitted += 1;
        handle.drain().unwrap();
        assert!(submitted < 100, "completion never observed");
    }
    // Further traffic is answered with idle events, ids keep advancing.
    let stream = handle.subscribe().unwrap();
    let w = handle.submit_worker(&worker).unwrap();
    handle.drain().unwrap();
    assert_eq!(w, WorkerId(submitted));
    let first = std::iter::from_fn(|| stream.try_recv())
        .find(|e| matches!(e, StreamEvent::Worker { .. }))
        .unwrap();
    assert_eq!(
        first,
        StreamEvent::Worker {
            worker: w,
            events: vec![Event::WorkerIdle { worker: w }],
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the pipelined ≡ synchronous guarantee: random
    /// interleavings of check-ins and posts across random shard counts.
    #[test]
    fn pipelined_matches_facade_property(
        seed in 0u64..10_000,
        n_ops in 50usize..250,
        n_shards in 1usize..6,
        algo_pick in 0u8..3,
    ) {
        let algorithm = match algo_pick {
            0 => Algorithm::Laf,
            1 => Algorithm::Aam,
            _ => Algorithm::Random { seed: seed ^ 0xA5 },
        };
        let ops = mixed_ops(seed, n_ops);
        let mut facade = builder(algorithm, n_shards, seed_tasks()).build().unwrap();
        let expect = run_facade(&mut facade, &ops);
        let mut handle = builder(algorithm, n_shards, seed_tasks()).start().unwrap();
        let got = run_handle(&mut handle, &ops);
        prop_assert_eq!(expect, got);
        prop_assert_eq!(facade.n_assignments(), handle.n_assignments());
    }
}
