//! Write-ahead-log overhead: sustained workers/sec of a session driven
//! through `ltc_durable::DurableHandle` (log-then-apply) versus the
//! same bare [`ServiceHandle`], over the paper's Table-IV synthetic
//! stream (LAF policy, so both paths commit identical assignments and
//! the gap is pure durability cost: one NDJSON append per submission
//! plus the [`SyncPolicy`]'s fsync schedule).
//!
//! Run with `cargo bench -p ltc-bench --bench wal_overhead`; scale the
//! stream with `LTC_BENCH_SCALE` (smaller = bigger instance, default
//! 8). CI runs this with a large scale as a smoke test. Pass
//! `-- --out PATH` to also write the measurements as a schema-stable
//! `ltc-bench/v1` JSON report (the committed `BENCH_wal.json`).

use ltc_bench::{BenchReport, Row};
use ltc_core::model::Instance;
use ltc_core::service::{Algorithm, ServiceBuilder, ServiceHandle, Session};
use ltc_durable::{DurableHandle, DurableOptions, SyncPolicy};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

struct Measurement {
    workers: u64,
    assignments: u64,
    secs: f64,
}

fn start_handle(instance: &Instance, shards: usize) -> ServiceHandle {
    ServiceBuilder::from_instance(instance)
        .algorithm(Algorithm::Laf)
        .shards(NonZeroUsize::new(shards).unwrap())
        .start()
        .expect("sigmoid synthetic instances always start")
}

fn run_unlogged(instance: &Instance, shards: usize) -> Measurement {
    let mut handle = start_handle(instance, shards);
    let start = Instant::now();
    let mut workers = 0u64;
    for worker in instance.workers() {
        if handle.all_completed() {
            break;
        }
        handle.submit_worker(worker).expect("runtime lost");
        workers += 1;
    }
    handle.drain().expect("drain failed");
    let secs = start.elapsed().as_secs_f64();
    Measurement {
        workers,
        assignments: handle.n_assignments(),
        secs,
    }
}

fn wal_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-bench-wal-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same stream, with every submission appended to the log first.
/// `stop_at` mirrors the unlogged run's completion window so the
/// decision streams are comparable.
fn run_logged(
    instance: &Instance,
    shards: usize,
    options: DurableOptions,
    label: &str,
    stop_at: u64,
) -> Measurement {
    let dir = wal_dir(label);
    let mut handle = DurableHandle::create(start_handle(instance, shards), &dir, options)
        .expect("fresh WAL directory initializes");
    let start = Instant::now();
    let mut workers = 0u64;
    for worker in instance.workers() {
        if workers >= stop_at {
            break;
        }
        handle.submit_worker(worker).expect("submit");
        workers += 1;
    }
    handle.drain().expect("drain");
    let secs = start.elapsed().as_secs_f64();
    let assignments = handle.metrics().expect("metrics").n_assignments;
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    Measurement {
        workers,
        assignments,
        secs,
    }
}

/// Best-of-`n` wall clock: the minimum is the least-disturbed run,
/// which matters on shared/noisy machines where a single measurement
/// can swing by double-digit percentages.
fn best_of(n: usize, mut run: impl FnMut() -> Measurement) -> Measurement {
    (0..n)
        .map(|_| run())
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("n > 0")
}

fn report(label: &str, m: &Measurement) {
    println!(
        "  {label:<26} {:>9} workers in {:>8.3}s  =  {:>10.0} workers/sec  \
         ({} assignments)",
        m.workers,
        m.secs,
        m.workers as f64 / m.secs.max(f64::EPSILON),
        m.assignments,
    );
}

fn json_row(name: &str, shards: usize, m: &Measurement, base: &Measurement) -> Row {
    Row::new(name)
        .field("shards", shards)
        .field("workers", m.workers)
        .field("secs", m.secs)
        .field(
            "workers_per_sec",
            m.workers as f64 / m.secs.max(f64::EPSILON),
        )
        .field("assignments", m.assignments)
        .field(
            "overhead_vs_unlogged",
            m.secs / base.secs.max(f64::EPSILON) - 1.0,
        )
}

fn main() {
    let out_path = ltc_bench::json::out_path_from_args();
    let scale = ltc_bench::bench_scale().min(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wal_overhead (LTC_BENCH_SCALE = {scale}; LAF policy) cores={cores} \
         — logged numbers append one WAL record per submission"
    );
    let cfg = ltc_workload::SyntheticConfig::default().scaled_down(scale);
    let instance = cfg.generate();
    println!(
        "table-iv/default: |T| = {}, |W| = {}, K = {}, eps = {}",
        instance.n_tasks(),
        instance.n_workers(),
        instance.params().capacity,
        instance.params().epsilon
    );

    // checkpoint_every: 0 isolates pure append/fsync cost; the final
    // configuration adds the default checkpoint cadence back in.
    let policies: [(&str, DurableOptions); 4] = [
        (
            "logged/os",
            DurableOptions {
                sync: SyncPolicy::Os,
                checkpoint_every: 0,
            },
        ),
        (
            "logged/every64",
            DurableOptions {
                sync: SyncPolicy::Every(64),
                checkpoint_every: 0,
            },
        ),
        (
            "logged/always",
            DurableOptions {
                sync: SyncPolicy::Always,
                checkpoint_every: 0,
            },
        ),
        (
            "logged/os+checkpoints",
            DurableOptions {
                sync: SyncPolicy::Os,
                ..DurableOptions::default()
            },
        ),
    ];

    let repeats = if scale <= 2 { 7 } else { 1 };
    let mut json = BenchReport::new("wal", scale);
    for shards in [1usize, 4] {
        let base = best_of(repeats, || run_unlogged(&instance, shards));
        report(&format!("unlogged x{shards}"), &base);
        json.push_row(json_row(
            &format!("unlogged/x{shards}"),
            shards,
            &base,
            &base,
        ));
        for (name, options) in &policies {
            let logged = best_of(repeats, || {
                run_logged(&instance, shards, *options, name, base.workers)
            });
            report(&format!("{name} x{shards}"), &logged);
            assert_eq!(
                logged.assignments, base.assignments,
                "logged LAF diverged from unlogged at {shards} shard(s) under {name}"
            );
            println!(
                "    overhead: {:+.1}% wall clock ({:.2} µs/record)",
                100.0 * (logged.secs / base.secs.max(f64::EPSILON) - 1.0),
                1e6 * (logged.secs - base.secs).max(0.0) / logged.workers.max(1) as f64
            );
            json.push_row(json_row(
                &format!("{name}/x{shards}"),
                shards,
                &logged,
                &base,
            ));
        }
    }
    if let Some(path) = out_path {
        json.write_to(&path)
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        println!("  wrote {}", path.display());
    }
}
