//! Allocation-regression gates for the streaming hot path.
//!
//! `ltc-bench` installs the [`CountingAllocator`](ltc_bench::alloc) as
//! the global allocator, so these integration tests can assert *exact*
//! allocation-event counts via the thread-local counter. Two gates:
//!
//! 1. **Zero-alloc steady state** — after a warmup prefix (scratch
//!    buffers reach their watermarks), `AssignmentEngine::push_worker`
//!    performs **no heap allocation at all**. This is the tentpole invariant of the
//!    hot-path optimization pass; any future change that re-introduces
//!    per-worker allocation (a stray `Vec`, `format!`, boxed candidate
//!    list, `BTreeMap` aggregate...) fails here, deterministically,
//!    with the event count in the message.
//! 2. **Rebucket buffer reuse** — `GridIndex::rebucket` retains its
//!    gather/directory/slab buffers, so repeated re-layouts at a
//!    steady geometry allocate nothing, and even a growth step costs a
//!    bounded handful of events instead of a fresh O(cells + entries)
//!    rebuild.
//!
//! Counts are allocation *events*, not timing — these tests are exact
//! and noise-free, and safe to run in CI.

use ltc_bench::alloc;
use ltc_core::engine::AssignmentEngine;
use ltc_core::online::Laf;
use ltc_spatial::{BoundingBox, GridIndex, Point};
use ltc_workload::SyntheticConfig;

/// The evicting engine's serve path allocates nothing per worker once
/// warmed up.
#[test]
fn push_worker_is_allocation_free_after_warmup() {
    let instance = SyntheticConfig::default().scaled_down(8).generate();
    let mut engine = AssignmentEngine::from_instance(&instance);
    let mut algo = Laf::new();

    let workers = instance.workers();
    // Warmup prefix: every scratch buffer (candidate list, per-cell
    // query cursors, assignment batch) reaches its watermark. Kept
    // short because the stream completes tasks as it runs — the steady
    // window must open well before `all_completed` stops the loop.
    let warmup = 128;
    for worker in &workers[..warmup] {
        engine.push_worker(worker, &mut algo);
    }

    let before = alloc::thread_alloc_count();
    let mut steady = 0u64;
    for worker in &workers[warmup..] {
        if engine.all_completed() {
            break;
        }
        engine.push_worker(worker, &mut algo);
        steady += 1;
    }
    let events = alloc::thread_alloc_count() - before;
    assert!(steady > 100, "stream too short to exercise a steady state");
    assert_eq!(
        events, 0,
        "push_worker allocated {events} time(s) across {steady} steady-state workers \
         — the hot path must stay allocation-free"
    );
}

fn populated_grid(bounds: BoundingBox) -> GridIndex<u32> {
    let mut index = GridIndex::with_bounds(5.0, bounds);
    // Deterministic spread with collisions: many cells, uneven buckets.
    for i in 0..4_000u32 {
        let x = f64::from(i % 97) + f64::from(i % 7) * 0.1;
        let y = f64::from(i % 89) + f64::from(i % 5) * 0.1;
        index.insert(i, Point::new(x, y));
    }
    index
}

/// Re-laying the grid out at a steady geometry reuses every retained
/// buffer — zero allocation events — and even a growth step costs only
/// a bounded handful (the directory/slab grow once), far below a fresh
/// per-entry rebuild.
#[test]
fn rebucket_reuses_retained_buffers() {
    let bounds = BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));

    // Cost of building the same population from scratch, for contrast.
    let before = alloc::thread_alloc_count();
    let mut index = populated_grid(bounds);
    let cold_build = alloc::thread_alloc_count() - before;

    // First rebucket gathers into the spare slab for the first time.
    index.rebucket(5.0, bounds);

    // Steady-state re-layouts at unchanged geometry: fully buffer-reused.
    let before = alloc::thread_alloc_count();
    for _ in 0..8 {
        index.rebucket(5.0, bounds);
    }
    let steady = alloc::thread_alloc_count() - before;
    assert_eq!(
        steady, 0,
        "steady-geometry rebucket allocated {steady} time(s) across 8 re-layouts \
         — the gather/directory/slab buffers must be reused"
    );

    // A growth step (2x extent: 4x the cells) grows only the three
    // directory vectors (starts/lens/caps) — a bounded handful of
    // events, independent of the entry count, and below the cold
    // rebuild of the same population (observed: 3 vs 15).
    let grown = BoundingBox::new(Point::new(0.0, 0.0), Point::new(200.0, 200.0));
    let before = alloc::thread_alloc_count();
    index.rebucket(5.0, grown);
    let growth = alloc::thread_alloc_count() - before;
    assert!(
        growth <= 4 && growth < cold_build,
        "growth rebucket allocated {growth} time(s); a cold rebuild costs {cold_build} \
         — growth must reuse the entry buffers and only extend the directory"
    );

    // And the grown geometry is itself steady afterwards.
    let before = alloc::thread_alloc_count();
    for _ in 0..8 {
        index.rebucket(5.0, grown);
    }
    let regrown_steady = alloc::thread_alloc_count() - before;
    assert_eq!(
        regrown_steady, 0,
        "post-growth rebucket allocated {regrown_steady} time(s) at steady geometry"
    );
}
