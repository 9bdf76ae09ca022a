//! Structural gate: a session's retained heap is flat in its
//! assignments.
//!
//! No engine keeps the decisions it made, so what a served session
//! holds grows with the tasks posted to it, never with the workers it
//! serves or the assignments it commits. The gate drains a one-shard
//! `ServiceHandle` at a steady live pool after `N` check-ins and again
//! after `3N`, and reads the live heap both times. Between the two reads
//! the heap may grow by at most [`PER_TASK_BOUND`] bytes per task posted
//! in between, and by nothing per assignment. A log that kept each
//! assignment (32 bytes apiece, in a doubling vector) would grow by 16
//! to 80 bytes per assignment in the window, depending on where its
//! doublings fall; at the ~14 assignments a task collects here that is
//! 230 bytes or more per posted task, over the bound.
//!
//! The session posts every task it serves, one per [`POST_EVERY`]
//! check-ins, so its task count triples between the reads while the
//! live pool stays level.
//!
//! This reads the process-wide [`current_bytes`], which is exact only
//! while nothing else runs, so this binary holds exactly one test. Keep
//! it the only test here.

use ltc_bench::alloc::current_bytes;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{ServiceBuilder, ServiceHandle};
use ltc_spatial::{BoundingBox, Point};

/// Bytes the session may retain per task posted between the reads. A
/// completed task leaves every per-task structure (engines hold live
/// tasks only, and the service keeps a posted counter, not a per-task
/// map), so at a steady live pool the heap is flat in posts; the bound
/// allows one id-table word per post with doubling slack.
const PER_TASK_BOUND: u64 = 16;
/// Check-ins before the first read.
const N: u64 = 20_000;
/// One task is posted per this many check-ins.
const POST_EVERY: u64 = 5;

/// A deterministic point in the `1000 × 1000` region.
fn point(state: &mut u64) -> Point {
    let mut next = || {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    };
    Point::new(next() * 1000.0, next() * 1000.0)
}

/// Submits check-ins `from..to` (posting a task every [`POST_EVERY`]),
/// then drains. Returns the tasks posted.
fn serve(handle: &mut ServiceHandle, state: &mut u64, from: u64, to: u64) -> u64 {
    let mut posted = 0;
    for i in from..to {
        if i % POST_EVERY == 0 {
            handle.post_task(Task::new(point(state))).unwrap();
            posted += 1;
        }
        handle
            .submit_worker(&Worker::new(point(state), 0.9))
            .unwrap();
    }
    handle.drain().unwrap();
    posted
}

/// The session's live (uncompleted) tasks.
fn live(handle: &mut ServiceHandle) -> u64 {
    handle.metrics().unwrap().shard_loads.iter().sum()
}

#[test]
fn retained_heap_grows_with_posted_tasks_not_with_assignments() {
    let params = ProblemParams::builder()
        .epsilon(0.02)
        .capacity(6)
        .d_max(30.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    let mut state = 11;
    let mut handle = ServiceBuilder::new(params, region).start().unwrap();

    serve(&mut handle, &mut state, 0, N);
    let heap = current_bytes();
    let (assigned, live_before) = (handle.n_assignments(), live(&mut handle));
    let posted = serve(&mut handle, &mut state, N, 3 * N);
    let growth = current_bytes() as i64 - heap as i64;
    let assignments = handle.n_assignments() - assigned;
    let live_after = live(&mut handle);
    handle.close().unwrap();

    println!(
        "retained heap: {growth:+} bytes over {posted} posts and {assignments} assignments \
         (live pool {live_before} -> {live_after}); bound {} bytes",
        posted * PER_TASK_BOUND
    );
    assert!(
        assignments >= 10 * posted,
        "the window must commit many assignments per posted task \
         ({assignments} for {posted} posts)"
    );
    assert!(
        live_after.abs_diff(live_before) * 10 < live_before,
        "the live pool must be steady ({live_before} -> {live_after})"
    );
    assert!(
        growth <= (posted * PER_TASK_BOUND) as i64,
        "the session retained {growth} more bytes over {posted} posts and {assignments} \
         assignments: the bound is {PER_TASK_BOUND} bytes per posted task and none per \
         assignment"
    );
}
