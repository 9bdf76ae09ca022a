//! Shared harness for the LTC experiment suite.
//!
//! Provides the pieces the `experiments` binary, the benches and
//! `perfbench` need: a byte- and event-counting global allocator (the
//! paper's *Memory (MB)* metric and the allocation gates), a uniform
//! runner over the five algorithms of the evaluation (Base-off, MCF-LTC,
//! Random, LAF, AAM), and the `ltc-bench/v1` report schema. Every timing
//! has one source: figure panels are timed by `experiments`, engine and
//! served-path rungs by `perfbench`.

#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod runner;

pub use json::{BenchReport, Row};
pub use runner::{measure, Algo, Measurement, ALL_ALGOS};

/// Down-scaling factor used by the `skewed_throughput`, `wire_throughput`
/// and `wal_overhead` benches, overridable with the `LTC_BENCH_SCALE`
/// environment variable (1 = the paper's cardinalities; default 64, which
/// is also the largest factor those benches use).
pub fn bench_scale() -> usize {
    std::env::var("LTC_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(64)
}

/// The counting allocator is installed once here so that every binary and
/// bench linking this crate records allocation peaks.
#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;
