//! Peak-byte accounting of the counting allocator.
//!
//! [`peak_bytes`] and [`current_bytes`] are process-wide, so a free on
//! any other thread between [`reset_peak`] and the measured allocation
//! lowers the live total under the check. Under the parallel test
//! harness even a finished test's teardown does that, and a lock around
//! the checks does not help: the harness frees the finished test's
//! resources on its own threads. This binary therefore holds exactly
//! one test, which runs the checks one after another while no other
//! test thread exists. Keep it the only test here.
//!
//! Each measured buffer passes through [`black_box`]: a release build
//! would otherwise elide an allocation nothing reads.

use ltc_bench::alloc::{current_bytes, peak_bytes, reset_peak};
use std::hint::black_box;

#[test]
fn peak_bytes_track_the_live_heap() {
    counts_a_large_allocation();
    peak_survives_deallocation();
    realloc_tracks_growth();
}

fn counts_a_large_allocation() {
    let baseline = reset_peak();
    let v = black_box(vec![0u8; 1 << 20]);
    assert!(peak_bytes() >= baseline + (1 << 20));
    drop(v);
    assert!(current_bytes() < baseline + (1 << 20));
}

fn peak_survives_deallocation() {
    let baseline = reset_peak();
    {
        let _v = black_box(vec![0u64; 100_000]);
    }
    assert!(peak_bytes() >= baseline + 800_000);
}

fn realloc_tracks_growth() {
    let baseline = reset_peak();
    let mut v: Vec<u8> = Vec::with_capacity(16);
    v.extend(std::iter::repeat_n(1u8, 1 << 18));
    black_box(&mut v);
    assert!(peak_bytes() >= baseline + (1 << 18));
}
