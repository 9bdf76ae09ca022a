//! Lifecycle tests for the pipelined [`ServiceHandle`] runtime:
//!
//! * **lifecycle edges** — drain with in-flight mailbox entries, a full
//!   mailbox announcing back-pressure instead of failing, the stall
//!   hysteresis, and submissions after completion;
//! * **telemetry** — out-of-region tasks surface as `TaskOutOfRegion`
//!   lifecycle events and as the `clamped_insertions` metric.
//!
//! That a pipelined run decides exactly what the bare engine decides,
//! across policies, shard counts and snapshot restores, is checked by
//! the conformance harness (`tests/conform/` in the root package).
//!
//! Every test here must terminate even when the runtime is buggy (CI
//! runs this file under a hard timeout so a deadlocked mailbox fails the
//! build instead of hanging it).

use ltc_core::model::{ProblemParams, Task, Worker, WorkerId};
use ltc_core::service::{Event, Lifecycle, ServiceBuilder, ServiceHandle, StreamEvent};
use ltc_spatial::{BoundingBox, Point};
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
fn drain_with_inflight_mailbox_entries_delivers_everything_in_order() {
    // Mailboxes of one entry: submissions overlap processing constantly,
    // so the drain has real in-flight work to wait for.
    let mut handle = ServiceBuilder::new(params(2, 0.25), region())
        .shards(shards(3))
        .tasks(seed_tasks())
        .mailbox_capacity(1)
        .start()
        .unwrap();
    let stream = handle.subscribe().unwrap();
    // Every seventh submission posts a task; the rest check in, spread
    // over the region.
    let n_ops = 300u64;
    let mut n_checks = 0u64;
    for i in 0..n_ops {
        let at = Point::new((i * 337 % 1000) as f64, (i * 211 % 1000) as f64);
        if i % 7 == 0 {
            handle.post_task(Task::new(at)).unwrap();
        } else {
            handle.submit_worker(&Worker::new(at, 0.9)).unwrap();
            n_checks += 1;
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
    assert_eq!(deliveries.len() as u64, n_ops);
    let mut next_worker = 0u64;
    for d in &deliveries {
        if let StreamEvent::Worker { worker, .. } = d {
            assert_eq!(worker.0, next_worker, "deliveries out of submission order");
            next_worker += 1;
        }
    }
    assert_eq!(next_worker, n_checks);
}

/// One shard where every worker sees hundreds of candidates, behind a
/// mailbox of `capacity` entries.
fn slow_shard(capacity: usize) -> ServiceHandle {
    let tasks: Vec<Task> = (0..800)
        .map(|i| {
            Task::new(Point::new(
                500.0 + (i % 40) as f64 * 0.5,
                500.0 + (i / 40) as f64 * 0.5,
            ))
        })
        .collect();
    ServiceBuilder::new(params(1, 0.01), region())
        .tasks(tasks)
        .mailbox_capacity(capacity)
        .start()
        .unwrap()
}

#[test]
fn full_mailbox_announces_backpressure_and_still_serves_everything() {
    // A single slow shard (every worker sees hundreds of candidates)
    // behind a one-entry mailbox: submission outruns processing, so the
    // handle must observe at least one stall, announce it, block, and
    // still serve every check-in.
    let mut handle = slow_shard(1);
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
    let mut handle = slow_shard(8);
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
