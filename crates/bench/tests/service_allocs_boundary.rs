//! Allocation gate for the served path on cross-shard check-ins:
//! `ServiceHandle` end to end on a stream where every worker's disk
//! straddles the stripe boundary of a two-shard split.
//!
//! Such a check-in is decided through a rendezvous: the handle
//! allocates the shared barrier, each participating shard deposits its
//! proposals, and the last committer assembles the event batch. Those
//! allocations are per decision, so this gate bounds their count per
//! check-in at what the served path measured when the gate was added,
//! rounded up by less than 10%, so that a new per-check-in allocation
//! anywhere on this path fails it. Delivery itself must add nothing:
//! the shard inboxes, the re-order ring and the subscriber's batches
//! reuse their buffers.
//!
//! Like `service_allocs`, this reads the process-wide [`alloc_count`],
//! which is exact only while nothing else runs, so this binary holds
//! exactly one test. Keep it the only test here.

use ltc_bench::alloc::alloc_count;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{ServiceBuilder, ServiceHandle, StreamEvent};
use ltc_spatial::{BoundingBox, Point, ShardRouter};
use std::num::NonZeroUsize;

/// Allocation events allowed per cross-shard check-in: 5.05 measured
/// when the gate was added, rounded up.
const BOUND: f64 = 5.5;
const WARMUP: u64 = 5_000;
const MEASURED: u64 = 20_000;
/// One task is posted per this many check-ins, so the pool stays live.
const POST_EVERY: u64 = 5;
const SHARDS: usize = 2;
const D_MAX: f64 = 30.0;

/// A deterministic point within `D_MAX / 2` of the vertical line
/// `x = boundary`, anywhere in `200 ≤ y ≤ 800`.
fn point(state: &mut u64, boundary: f64) -> Point {
    let mut next = || {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    };
    Point::new(boundary + (next() - 0.5) * D_MAX, 200.0 + next() * 600.0)
}

/// Submits `n` check-ins (posting a task every [`POST_EVERY`]), then
/// drains.
fn serve(handle: &mut ServiceHandle, state: &mut u64, boundary: f64, n: u64) {
    for i in 0..n {
        if i % POST_EVERY == 0 {
            handle.post_task(Task::new(point(state, boundary))).unwrap();
        }
        handle
            .submit_worker(&Worker::new(point(state, boundary), 0.9))
            .unwrap();
    }
    handle.drain().unwrap();
}

#[test]
fn cross_shard_check_ins_allocate_a_bounded_amount() {
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(3)
        .d_max(D_MAX)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    // The split the service's router makes: stripes of whole
    // `d_max`-wide columns.
    let router = ShardRouter::new(SHARDS, D_MAX, region);
    let boundary = router.origin_x() + router.stripe_starts()[1] as f64 * router.cell_size();
    let mut probe = 11;
    for _ in 0..1_000 {
        let p = point(&mut probe, boundary);
        assert_eq!(
            router.shards_within(p, D_MAX).count(),
            SHARDS,
            "{p:?} is served by one shard; the stream must be cross-shard"
        );
    }

    let mut state = 7;
    let tasks = (0..600)
        .map(|_| Task::new(point(&mut state, boundary)))
        .collect();
    let mut handle = ServiceBuilder::new(params, region)
        .shards(NonZeroUsize::new(SHARDS).unwrap())
        .tasks(tasks)
        .start()
        .unwrap();
    let events = handle.subscribe().unwrap();
    let subscriber = std::thread::spawn(move || {
        events
            .filter(|e| matches!(e, StreamEvent::Worker { .. }))
            .count() as u64
    });

    serve(&mut handle, &mut state, boundary, WARMUP);
    let before = alloc_count();
    serve(&mut handle, &mut state, boundary, MEASURED);
    let per_checkin = (alloc_count() - before) as f64 / MEASURED as f64;

    handle.close().unwrap();
    assert_eq!(subscriber.join().unwrap(), WARMUP + MEASURED);
    assert!(
        per_checkin <= BOUND,
        "{per_checkin:.3} allocations per cross-shard check-in (bound {BOUND})"
    );
}
