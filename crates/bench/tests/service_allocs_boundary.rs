//! Allocation gate for the served path on cross-shard check-ins:
//! `ServiceHandle` end to end on a stream where every worker's disk
//! straddles the stripe boundary of a two-shard split.
//!
//! Such a check-in is decided through a rendezvous: the handle
//! allocates the shared barrier, and each participating shard deposits
//! its proposals and picks. Those allocations are per decision, so this
//! gate bounds their count per check-in at what the served path
//! measured, rounded up by less than 1%, so that a new per-check-in
//! allocation anywhere on this path fails it. The last committer writes
//! the check-in's events straight into its release buffer, and delivery
//! adds nothing: the shard inboxes, the re-order ring and the stream's
//! buffers reuse their room. The one allocation outside the rendezvous
//! is the subscriber's own `Vec<Event>`, since it takes owned events.
//!
//! Like `service_allocs`, this reads the process-wide [`alloc_count`],
//! which is exact only while nothing else runs, so this binary holds
//! exactly one test. Keep it the only test here.

use ltc_bench::alloc::alloc_count;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{ServiceBuilder, ServiceHandle, StreamEvent};
use ltc_spatial::{BoundingBox, Point, ShardRouter};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allocation events allowed per cross-shard check-in: 4.976 measured
/// once events crossed threads in flat batches (5.05 when the gate was
/// added, bound 5.5), rounded up.
const BOUND: f64 = 5.0;
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
    let seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&seen);
    let subscriber = std::thread::spawn(move || {
        for e in events {
            if matches!(e, StreamEvent::Worker { .. }) {
                counter.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    // Each count is read once the subscriber has taken every delivery
    // it covers, so its own allocations land in the right window.
    let wait_for = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while seen.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "the subscriber stalled");
            std::thread::yield_now();
        }
    };

    serve(&mut handle, &mut state, boundary, WARMUP);
    wait_for(WARMUP);
    let before = alloc_count();
    serve(&mut handle, &mut state, boundary, MEASURED);
    wait_for(WARMUP + MEASURED);
    let per_checkin = (alloc_count() - before) as f64 / MEASURED as f64;

    handle.close().unwrap();
    subscriber.join().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), WARMUP + MEASURED);
    println!("{per_checkin:.4} allocations per cross-shard check-in");
    assert!(
        per_checkin <= BOUND,
        "{per_checkin:.3} allocations per cross-shard check-in (bound {BOUND})"
    );
}
