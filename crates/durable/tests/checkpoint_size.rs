//! Structural gate: a checkpoint's size follows the live pool, not the
//! tasks ever posted.
//!
//! A completed task leaves the session's state, so a `DurableHandle`
//! serving a steady live pool writes checkpoints of a steady size while
//! its posted-task count triples. The gate checkpoints after `N` and
//! after `3N` check-ins (one task posted per [`POST_EVERY`]) and allows
//! the second file at most 10% more bytes than the first. A checkpoint
//! that kept every posted task would be about three times the size.

use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{ServiceBuilder, Session};
use ltc_durable::checkpoint::checkpoint_path;
use ltc_durable::{DurableHandle, DurableOptions};
use ltc_spatial::{BoundingBox, Point};
use std::path::{Path, PathBuf};

/// Check-ins before the first checkpoint.
const N: u64 = 20_000;
/// One task is posted per this many check-ins.
const POST_EVERY: u64 = 5;
/// Largest allowed ratio of the second checkpoint's size to the first's.
const BOUND: f64 = 1.1;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Submits check-ins `from..to`, posting a task every [`POST_EVERY`].
fn serve(handle: &mut DurableHandle, state: &mut u64, from: u64, to: u64) {
    for i in from..to {
        if i % POST_EVERY == 0 {
            handle.post_task(Task::new(point(state))).unwrap();
        }
        handle
            .submit_worker(&Worker::new(point(state), 0.9))
            .unwrap();
    }
}

/// Takes a checkpoint and returns its size in bytes and the live pool.
fn checkpoint(handle: &mut DurableHandle, dir: &Path) -> (u64, u64) {
    let seq = handle.checkpoint_now().unwrap();
    let bytes = std::fs::metadata(checkpoint_path(dir, seq)).unwrap().len();
    let live = handle.metrics().unwrap().shard_loads.iter().sum();
    (bytes, live)
}

#[test]
fn checkpoints_stay_flat_while_posted_tasks_triple() {
    let params = ProblemParams::builder()
        .epsilon(0.02)
        .capacity(6)
        .d_max(30.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
    let dir = temp_dir("checkpoint-size");
    let options = DurableOptions {
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    let inner = ServiceBuilder::new(params, region).start().unwrap();
    let mut handle = DurableHandle::create(inner, &dir, options).unwrap();
    let mut state = 11;

    serve(&mut handle, &mut state, 0, N);
    let (first, live_first) = checkpoint(&mut handle, &dir);
    serve(&mut handle, &mut state, N, 3 * N);
    let (second, live_second) = checkpoint(&mut handle, &dir);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "checkpoint bytes: {first} at {} posts (live {live_first}), {second} at {} posts \
         (live {live_second})",
        N / POST_EVERY,
        3 * N / POST_EVERY
    );
    assert!(
        live_second.abs_diff(live_first) * 10 < live_first,
        "the live pool must be steady ({live_first} -> {live_second})"
    );
    let ratio = second as f64 / first as f64;
    assert!(
        ratio <= BOUND,
        "the checkpoint grew from {first} to {second} bytes (ratio {ratio:.2}, bound {BOUND}) \
         while the live pool stayed level: it must hold live tasks only"
    );
}
