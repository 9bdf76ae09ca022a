//! Allocation gate for the served path: `ServiceHandle` end to end.
//!
//! The served path allocates on its shard threads, so this gate reads
//! the process-wide [`alloc_count`], not the per-thread counter, and
//! reads it only once the subscriber has taken every delivery it counts
//! for. A process-wide count is only exact while nothing else runs:
//! under the parallel test harness another test's allocations would
//! land in the window. This binary therefore holds exactly one test. Keep it the
//! only test here.
//!
//! What a check-in may cost, in steady state: nothing, when the
//! subscriber borrows its deliveries (`EventStream::recv_each`), and
//! the one `Vec<Event>` an owned `StreamEvent::Worker` carries when it
//! takes them owned — built on the subscriber's own thread. Everything
//! else — the shards' release buffers, the inboxes, the re-order ring,
//! the event batches the subscriber hands back — must reuse what it
//! already holds. The gate covers shard-local check-ins: both task
//! clusters below sit well inside one stripe each, the way
//! `hotspot-sharded` serves every check-in on one shard. Cross-shard
//! decisions allocate their rendezvous barrier;
//! `service_allocs_boundary` gates those.

use ltc_bench::alloc::alloc_count;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{EventRef, EventStream, ServiceBuilder, ServiceHandle, StreamEvent};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allocation events allowed per check-in when the subscriber takes
/// owned events: its own `Vec<Event>`.
const OWNED_BOUND: f64 = 1.1;
/// Allocation events allowed per check-in when the subscriber borrows.
const BORROWED_BOUND: f64 = 0.01;
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

/// Counts the stream's worker deliveries into `seen` until it ends,
/// borrowing them or taking them owned.
fn count_workers(mut events: EventStream, borrowed: bool, seen: &AtomicU64) {
    let count = |worker: bool| {
        if worker {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    };
    if borrowed {
        while events
            .recv_each(None, |e| {
                count(matches!(e, EventRef::Worker { .. }));
                ControlFlow::Continue(())
            })
            .is_some()
        {}
    } else {
        for e in events {
            count(matches!(e, StreamEvent::Worker { .. }));
        }
    }
}

/// Waits until the subscriber has taken `n` worker deliveries, so that
/// what it allocates for them falls on the right side of a count.
fn wait_for(seen: &AtomicU64, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.load(Ordering::SeqCst) < n {
        assert!(Instant::now() < deadline, "the subscriber stalled");
        std::thread::yield_now();
    }
}

/// Allocation events per measured check-in on `shards` shards, with one
/// subscriber draining the stream on its own thread.
fn allocs_per_checkin(shards: usize, borrowed: bool) -> f64 {
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
    let seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&seen);
    let subscriber = std::thread::spawn(move || count_workers(events, borrowed, &counter));

    serve(&mut handle, &mut state, WARMUP);
    wait_for(&seen, WARMUP);
    let before = alloc_count();
    serve(&mut handle, &mut state, MEASURED);
    wait_for(&seen, WARMUP + MEASURED);
    let allocs = alloc_count() - before;

    handle.close().unwrap();
    subscriber.join().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), WARMUP + MEASURED);
    allocs as f64 / MEASURED as f64
}

#[test]
fn served_check_ins_allocate_only_their_event_batch() {
    for (borrowed, bound) in [(false, OWNED_BOUND), (true, BORROWED_BOUND)] {
        let receive = if borrowed { "borrowed" } else { "owned" };
        for shards in [1, 2] {
            let per_checkin = allocs_per_checkin(shards, borrowed);
            println!("{shards} shard(s), {receive}: {per_checkin:.4} allocations per check-in");
            assert!(
                per_checkin <= bound,
                "{shards} shard(s), {receive} receive: {per_checkin:.3} allocations per \
                 served check-in (bound {bound}) — the served path must reuse its buffers"
            );
        }
    }
}
