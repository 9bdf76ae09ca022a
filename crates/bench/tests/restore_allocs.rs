//! Allocation gate for a restore: the bytes one `LtcService::restore`
//! allocates must stay well below the size the session's assignments
//! would take as a log, and must not grow with the completed history.
//!
//! A long-running session commits several assignments per task. A
//! snapshot carries only their two counters and the live tasks, and a
//! restore allocates only for what it rebuilds per live task: the slots,
//! the id-to-slot tables and the spatial index. A restore that rebuilt
//! or copied any per-assignment state would allocate at least the log's
//! size; one that kept completed tasks would grow with their number.
//!
//! This reads the process-wide [`allocated_bytes`], which is exact only
//! while nothing else runs, so this binary holds exactly one test. Keep
//! it the only test here.

use ltc_bench::alloc::allocated_bytes;
use ltc_core::model::{Assignment, ProblemParams, Task, Worker};
use ltc_core::service::{LtcService, ServiceBuilder};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

/// Largest allowed ratio of the restore's bytes to the bytes of a log
/// of the session's assignments.
const BOUND: f64 = 0.5;
/// Tasks posted (and completed) per round of history.
const ROUND_TASKS: u64 = 1_000;
const ROUNDS: u64 = 4;
/// Largest allowed ratio of the restore bytes of a session with
/// [`ROUNDS`]× the completed history to those of one with 1×.
const FLAT_BOUND: f64 = 1.1;
/// Open tasks behind the history in the flatness comparison.
const LIVE_POOL: u64 = 600;

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
/// served in `rounds` rounds, so its log holds several assignments per
/// task, followed by `live` tasks posted and left open.
fn session(rounds: u64, live: u64) -> LtcService {
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
    for _ in 0..rounds {
        for _ in 0..ROUND_TASKS {
            service.post_task(Task::new(point(&mut state))).unwrap();
        }
        while !service.all_completed() {
            service.check_in(&Worker::new(point(&mut state), 0.9));
        }
    }
    let mut state = 13;
    for _ in 0..live {
        service.post_task(Task::new(point(&mut state))).unwrap();
    }
    service
}

/// Bytes one restore of `service`'s snapshot allocates.
fn restore_bytes(service: &LtcService) -> u64 {
    let snapshot = service.snapshot();
    let before = allocated_bytes();
    let restored = LtcService::restore(snapshot).unwrap();
    let bytes = allocated_bytes() - before;
    drop(restored);
    bytes
}

#[test]
fn restore_allocates_less_than_half_its_log() {
    let service = session(ROUNDS, 0);
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
        "restoring a session of {log_bytes} log bytes allocated {bytes} bytes (ratio {ratio:.2}, \
         bound {BOUND}) — a restore must rebuild per-task state only"
    );
    assert_eq!(restored.n_assignments(), n_assignments);
    assert!(service.latency().is_some());
    assert_eq!(restored.latency(), service.latency());
    assert_eq!(restored.snapshot(), expected);

    // Flat in the completed history: the same live pool behind 1x and
    // 4x the completed rounds restores with the same bytes.
    let small = restore_bytes(&session(1, LIVE_POOL));
    let large = restore_bytes(&session(ROUNDS, LIVE_POOL));
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= FLAT_BOUND,
        "restoring 4x the completed history allocated {large} bytes against {small} \
         (ratio {ratio:.2}, bound {FLAT_BOUND}) — a restore must rebuild live tasks only"
    );
}
