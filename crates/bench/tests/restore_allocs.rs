//! Allocation gate for a restore: the bytes one `LtcService::restore`
//! allocates must stay well below the size of the assignment log it
//! restores.
//!
//! A long-running session's snapshot is mostly completed history: its
//! assignment log runs to several entries per task. A restore that
//! copies the log, or pushes it into a fresh vector one assignment at a
//! time, allocates at least the log's size again (pushing allocates
//! each doubling on the way, about twice the log). One that adopts the
//! snapshot's log allocates only for what it rebuilds per task: the
//! uncompleted set, the worker-unit counts, the spatial index, the
//! shards' id-to-slot tables and the service's task-owner map.
//!
//! This reads the process-wide [`allocated_bytes`], which is exact only
//! while nothing else runs, so this binary holds exactly one test. Keep
//! it the only test here.

use ltc_bench::alloc::allocated_bytes;
use ltc_core::model::{Assignment, ProblemParams, Task, Worker};
use ltc_core::service::{LtcService, ServiceBuilder};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

/// Largest allowed ratio of the restore's bytes to the log's bytes.
const BOUND: f64 = 0.5;
/// Tasks posted (and completed) per round of history.
const ROUND_TASKS: u64 = 1_000;
const ROUNDS: u64 = 4;

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

/// A two-shard facade session whose every task is completed, posted and
/// served in rounds, so its log holds several assignments per task.
fn session() -> LtcService {
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(3)
        .d_max(30.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    let mut service = ServiceBuilder::new(params, region)
        .shards(NonZeroUsize::new(2).unwrap())
        .build()
        .unwrap();
    let mut state = 7;
    for _ in 0..ROUNDS {
        for _ in 0..ROUND_TASKS {
            service.post_task(Task::new(point(&mut state))).unwrap();
        }
        while !service.all_completed() {
            service.check_in(&Worker::new(point(&mut state), 0.9));
        }
    }
    service
}

#[test]
fn restore_allocates_less_than_half_its_log() {
    let service = session();
    let n_assignments = service.n_assignments();
    let n_tasks = service.n_tasks() as u64;
    assert!(
        n_assignments >= 3 * n_tasks,
        "the history must be several times the task count \
         ({n_assignments} assignments for {n_tasks} tasks)"
    );
    let snapshot = service.snapshot();
    let expected = snapshot.clone();

    let before = allocated_bytes();
    let restored = LtcService::restore(snapshot).unwrap();
    let bytes = allocated_bytes() - before;

    let log_bytes = n_assignments * std::mem::size_of::<Assignment>() as u64;
    let ratio = bytes as f64 / log_bytes as f64;
    assert!(
        ratio < BOUND,
        "restoring a {log_bytes}-byte log allocated {bytes} bytes (ratio {ratio:.2}, \
         bound {BOUND}) — the restore must adopt the log, not copy it"
    );
    assert_eq!(restored.n_assignments(), n_assignments);
    assert!(service.latency().is_some());
    assert_eq!(restored.latency(), service.latency());
    assert_eq!(restored.snapshot(), expected);
}
