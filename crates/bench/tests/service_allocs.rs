//! Allocation gate for the served path: `ServiceHandle` end to end.
//!
//! The served path allocates on its shard and collector threads, so
//! this gate reads the process-wide [`alloc_count`], not the per-thread
//! counter. A process-wide count is only exact while nothing else runs:
//! under the parallel test harness another test's allocations would
//! land in the window. This binary therefore holds exactly one test.
//! Keep it the only test here.
//!
//! What a check-in may cost, in steady state: the `Vec<Event>` the
//! subscriber receives and owns, plus a share of the unbounded
//! channels' block allocations (one block per 31 messages). Everything
//! else — the shard→collector hop's buffers, the collector's re-order
//! window, the subscriber delivery — must reuse what it already holds.
//! The gate covers shard-local check-ins: both task clusters below sit
//! well inside one stripe each, the way `hotspot-sharded` serves every
//! check-in on one shard. A cross-shard decision allocates its
//! rendezvous barrier and is not gated here.

use ltc_bench::alloc::alloc_count;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{ServiceBuilder, ServiceHandle, StreamEvent};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

/// Allocation events allowed per check-in.
const BOUND: f64 = 1.1;
const WARMUP: u64 = 5_000;
const MEASURED: u64 = 20_000;
/// One task is posted per this many check-ins, so the pool stays live.
const POST_EVERY: u64 = 5;

/// A deterministic point near one of two cluster centres, `x = 250` and
/// `x = 750` on a 1000 × 1000 region: far from the stripe boundary
/// of a two-shard split, with `d_max` = 30.
fn point(state: &mut u64) -> Point {
    let mut next = || {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centre = if next() < 0.5 { 250.0 } else { 750.0 };
    Point::new(centre + (next() - 0.5) * 200.0, 200.0 + next() * 600.0)
}

/// Submits `n` check-ins (posting a task every [`POST_EVERY`]), then
/// drains.
fn serve(handle: &mut ServiceHandle, state: &mut u64, n: u64) {
    for i in 0..n {
        if i % POST_EVERY == 0 {
            handle.post_task(Task::new(point(state))).unwrap();
        }
        handle
            .submit_worker(&Worker::new(point(state), 0.9))
            .unwrap();
    }
    handle.drain().unwrap();
}

/// Allocation events per measured check-in on `shards` shards, with one
/// subscriber draining the stream on its own thread.
fn allocs_per_checkin(shards: usize) -> f64 {
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(3)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    let mut state = 7;
    let tasks = (0..600).map(|_| Task::new(point(&mut state))).collect();
    let mut handle = ServiceBuilder::new(params, region)
        .shards(NonZeroUsize::new(shards).unwrap())
        .tasks(tasks)
        .start()
        .unwrap();
    let events = handle.subscribe().unwrap();
    let subscriber = std::thread::spawn(move || {
        events
            .filter(|e| matches!(e, StreamEvent::Worker { .. }))
            .count() as u64
    });

    serve(&mut handle, &mut state, WARMUP);
    let before = alloc_count();
    serve(&mut handle, &mut state, MEASURED);
    let allocs = alloc_count() - before;

    handle.close().unwrap();
    assert_eq!(subscriber.join().unwrap(), WARMUP + MEASURED);
    allocs as f64 / MEASURED as f64
}

#[test]
fn served_check_ins_allocate_only_their_event_batch() {
    for shards in [1, 2] {
        let per_checkin = allocs_per_checkin(shards);
        assert!(
            per_checkin <= BOUND,
            "{shards} shard(s): {per_checkin:.3} allocations per served check-in \
             (bound {BOUND}) — the served path must reuse its buffers"
        );
    }
}
