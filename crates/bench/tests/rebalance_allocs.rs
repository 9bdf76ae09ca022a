//! Allocation gate for a stripe rebalance: the bytes one
//! `ServiceHandle::rebalance()` allocates must not grow with the
//! session's completed history.
//!
//! Two sessions hold the same live pool and make the same migration; one
//! has four times the other's completed history (tasks and their
//! assignments). A rebalance that copies, sorts or rebuilds whole shard
//! states allocates in proportion to that history. One that moves only
//! the tasks whose stripe changed allocates for those, for the live
//! pool it plans from, and for the index it re-lays over the live
//! tasks — the same in both sessions.
//!
//! The history sits on the shard that only sends tasks. A shard that
//! receives tasks grows its vectors the way a post does (amortized
//! doubling), so a single call there may reallocate a vector sized by
//! its whole history; here the receiving shard holds only the live pool.
//!
//! This reads the process-wide [`allocated_bytes`], which is exact only
//! while nothing else runs, so this binary holds exactly one test. Keep
//! it the only test here.

use ltc_bench::alloc::allocated_bytes;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{RebalanceOutcome, ServiceBuilder, ServiceHandle};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

/// Largest allowed ratio of the two sessions' rebalance bytes.
const BOUND: f64 = 1.1;
/// Completed history tasks of the smaller session (the larger has 4×).
const HISTORY: u64 = 1_500;
const LIVE_POOL: u64 = 600;

/// A deterministic point in `[x0, x0 + w) × [y0, y0 + h)`.
fn point(state: &mut u64, x0: f64, w: f64, y0: f64, h: f64) -> Point {
    let mut next = || {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    };
    Point::new(x0 + next() * w, y0 + next() * h)
}

/// A two-shard session with `history` completed tasks at
/// `850 ≤ x < 950`, and the live pool at `550 ≤ x < 950` — all on
/// shard 1 of the default split at `x ≈ 510`, and far enough apart in
/// `y` that no worker reaches both. Part of the pool has assignments.
fn session(history: u64) -> ServiceHandle {
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(3)
        .d_max(30.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    let mut handle = ServiceBuilder::new(params, region)
        .shards(NonZeroUsize::new(2).unwrap())
        .start()
        .unwrap();
    let mut state = 5;
    for _ in 0..history {
        let at = point(&mut state, 850.0, 100.0, 100.0, 100.0);
        handle.post_task(Task::new(at)).unwrap();
    }
    while !handle.all_completed() {
        for _ in 0..500 {
            let at = point(&mut state, 850.0, 100.0, 100.0, 100.0);
            handle.submit_worker(&Worker::new(at, 0.9)).unwrap();
        }
        handle.drain().unwrap();
    }
    let mut state = 11;
    for _ in 0..LIVE_POOL {
        let at = point(&mut state, 550.0, 400.0, 600.0, 300.0);
        handle.post_task(Task::new(at)).unwrap();
    }
    for _ in 0..100 {
        let at = point(&mut state, 550.0, 400.0, 600.0, 300.0);
        handle.submit_worker(&Worker::new(at, 0.7)).unwrap();
    }
    handle.drain().unwrap();
    handle
}

/// Bytes allocated by one rebalance of a session with `history`
/// completed tasks, and what the rebalance did.
fn rebalance_bytes(history: u64) -> (u64, RebalanceOutcome) {
    let mut handle = session(history);
    let before = allocated_bytes();
    let outcome = handle.rebalance().unwrap().expect("the pool is skewed");
    let bytes = allocated_bytes() - before;
    handle.close().unwrap();
    (bytes, outcome)
}

#[test]
fn rebalance_bytes_do_not_grow_with_history() {
    let (small, small_outcome) = rebalance_bytes(HISTORY);
    let (large, large_outcome) = rebalance_bytes(4 * HISTORY);
    assert_eq!(small_outcome, large_outcome, "the migrations must match");
    assert!(small_outcome.moved_tasks > 0);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= BOUND,
        "a rebalance with 4x the history allocated {large} bytes against {small} \
         (ratio {ratio:.2}, bound {BOUND}) — it must not copy the history"
    );
}
