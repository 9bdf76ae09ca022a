//! Skewed/drifting-workload throughput: the adaptive spatial layer
//! (index growth + stripe rebalancing) versus a static service, on the
//! hotspot-drift stream ([`ltc_workload::HotspotDriftConfig`]) — a
//! hotspot of posts and co-located check-ins that drifts across and far
//! beyond the declared region, then settles.
//!
//! Three drivers over the same event stream (LAF policy, so every
//! configuration commits identical assignments and the comparison is
//! pure index/striping overhead):
//!
//! * **1 shard, static** — the differential baseline;
//! * **4 shards, static** — PR-2/3 behavior: the index clamps every
//!   out-of-region task into border cells and the border stripe absorbs
//!   the whole hotspot;
//! * **4 shards, adaptive** — `grow_index_after` rebuilds the index
//!   over the live tasks once clamp telemetry crosses the threshold,
//!   and every 64 posts the driver rebalances (re-splits the stripes
//!   by live-task mass) when the heaviest shard holds more than 1.4x
//!   the mean live load.
//!
//! The run **asserts** the adaptivity acceptance criteria (identical
//! assignments, steady-state clamping, post-rebalance load skew ≤ 1.5x),
//! so the CI smoke run keeps them honest. Throughput uses the
//! synchronous facade: decisions are scheduling-independent and the
//! adaptive win is algorithmic (smaller border buckets), not parallel —
//! the header's machine-readable `cores=` field reports the host, and
//! cross-configuration ratios are printed only on multi-core hosts
//! (1-core interleaving would make them misleading).
//!
//! Run with `cargo bench -p ltc-bench --bench skewed_throughput`; scale
//! the stream with `LTC_BENCH_SCALE` (smaller = longer stream). Pass
//! `-- --out PATH` to also write the measurements as a schema-stable
//! `ltc-bench/v1` JSON report (the committed `BENCH_skew.json`).

use ltc_bench::{BenchReport, Row};
use ltc_core::service::{Algorithm, LtcService, ServiceBuilder};
use ltc_workload::{DriftEvent, HotspotDriftConfig};
use std::num::NonZeroUsize;
use std::time::Instant;

/// The adaptive driver's rebalance policy: every `REBALANCE_CHECK_POSTS`
/// posts, rebalance when max live load > `REBALANCE_FACTOR` x mean.
const REBALANCE_CHECK_POSTS: usize = 64;
const REBALANCE_FACTOR: f64 = 1.4;

struct Measurement {
    events: u64,
    rebalances: u64,
    assignments: u64,
    secs: f64,
    max_clamped: u64,
    late_clamped: u64,
}

fn run(
    cfg: &HotspotDriftConfig,
    events: &[DriftEvent],
    shards: usize,
    adaptive: bool,
) -> Measurement {
    let mut builder = ServiceBuilder::new(cfg.params(), cfg.declared)
        .algorithm(Algorithm::Laf)
        .shards(NonZeroUsize::new(shards).unwrap());
    if adaptive {
        builder = builder.grow_index_after(256);
    }
    let mut service = builder.build().expect("hotspot configs always build");
    let mut posts = 0usize;
    let probe_at = 5 * events.len() / 6;
    let mut max_clamped = 0u64;
    let mut probe_clamped = 0u64;
    let start = Instant::now();
    for (i, event) in events.iter().enumerate() {
        match event {
            DriftEvent::Post(t) => {
                service.post_task(*t).expect("drift tasks are valid");
                posts += 1;
                if adaptive && posts.is_multiple_of(REBALANCE_CHECK_POSTS) {
                    rebalance_if_skewed(&mut service);
                }
            }
            DriftEvent::CheckIn(w) => {
                service.check_in(w);
            }
        }
        if i == probe_at {
            probe_clamped = service.metrics().clamped_insertions;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    let clamped = metrics.clamped_insertions;
    max_clamped = max_clamped.max(clamped).max(probe_clamped);
    Measurement {
        events: events.len() as u64,
        rebalances: metrics.rebalances,
        assignments: service.n_assignments(),
        secs,
        max_clamped,
        late_clamped: clamped.saturating_sub(probe_clamped),
    }
}

/// Rebalances when the heaviest shard's live load exceeds
/// `REBALANCE_FACTOR` x the mean (pools under four live tasks per shard
/// are left alone).
fn rebalance_if_skewed(service: &mut LtcService) {
    let loads = service.metrics().shard_loads;
    let total: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
    let mean = total as f64 / loads.len() as f64;
    if total >= 4 * loads.len() as u64 && max as f64 > REBALANCE_FACTOR * mean {
        service
            .rebalance()
            .expect("rebalance planning cannot fail on live state");
    }
}

fn report(label: &str, m: &Measurement, baseline_secs: f64, show_ratio: bool) {
    let ratio = if show_ratio {
        format!(
            ", speedup vs 1-shard static: {:.2}x",
            baseline_secs / m.secs.max(f64::EPSILON)
        )
    } else {
        String::new()
    };
    println!(
        "  {label:<22} {:>8} events in {:>7.3}s  =  {:>9.0} events/sec  \
         ({} assignments, {} rebalances, clamped max {} / late {}{ratio})",
        m.events,
        m.secs,
        m.events as f64 / m.secs.max(f64::EPSILON),
        m.assignments,
        m.rebalances,
        m.max_clamped,
        m.late_clamped,
    );
}

fn json_row(name: &str, shards: usize, adaptive: bool, m: &Measurement) -> Row {
    Row::new(name)
        .field("shards", shards)
        .field("adaptive", adaptive)
        .field("events", m.events)
        .field("secs", m.secs)
        .field("events_per_sec", m.events as f64 / m.secs.max(f64::EPSILON))
        .field("assignments", m.assignments)
        .field("clamped_max", m.max_clamped)
        .field("clamped_late", m.late_clamped)
}

fn main() {
    let out_path = ltc_bench::json::out_path_from_args();
    let scale = ltc_bench::bench_scale().min(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("skewed_throughput (LTC_BENCH_SCALE = {scale}; LAF policy) cores={cores}");
    let cfg = HotspotDriftConfig {
        n_posts: (64_000 / scale).max(400),
        checkins_per_post: 8,
        ..HotspotDriftConfig::default()
    };
    let events = cfg.events();
    println!(
        "hotspot-drift: {} posts x {} check-ins, declared region {:.0}x{:.0}, \
         drift to x = {:.0} ({}% of stream)",
        cfg.n_posts,
        cfg.checkins_per_post,
        cfg.declared.width(),
        cfg.declared.height(),
        cfg.end.x,
        (cfg.drift_fraction * 100.0) as u32,
    );

    let single = run(&cfg, &events, 1, false);
    report("1 shard, static", &single, single.secs, false);
    let static4 = run(&cfg, &events, 4, false);
    report("4 shards, static", &static4, single.secs, cores > 1);
    let adaptive4 = run(&cfg, &events, 4, true);
    report("4 shards, adaptive", &adaptive4, single.secs, cores > 1);

    // Acceptance: adaptivity never changes a decision...
    assert_eq!(
        adaptive4.assignments, single.assignments,
        "adaptive 4-shard LAF diverged from 1-shard"
    );
    assert_eq!(
        static4.assignments, single.assignments,
        "static 4-shard LAF diverged from 1-shard"
    );
    // ...eliminates steady-state clamping (the static twin keeps
    // clamping every hotspot post after the drift settles)...
    assert!(
        adaptive4.late_clamped < 256,
        "adaptive clamping kept growing: +{} in the final sixth",
        adaptive4.late_clamped
    );
    assert!(
        static4.late_clamped > adaptive4.late_clamped,
        "the static service should keep clamping (static +{}, adaptive +{})",
        static4.late_clamped,
        adaptive4.late_clamped
    );
    // ...and leaves the per-shard live load within the 1.5x skew target.
    let mut check = ServiceBuilder::new(cfg.params(), cfg.declared)
        .algorithm(Algorithm::Laf)
        .shards(NonZeroUsize::new(4).unwrap())
        .build()
        .expect("hotspot configs always build");
    replay(&mut check, &events);
    let outcome = check
        .rebalance()
        .expect("rebalance planning cannot fail on live state")
        .expect("the drifted pool must need rebalancing");
    println!(
        "  rebalance: moved {} tasks, live loads {:?}, max/mean = {:.2}",
        outcome.moved_tasks,
        outcome.live_loads,
        outcome.max_mean_ratio()
    );
    assert!(
        outcome.max_mean_ratio() <= 1.5,
        "post-rebalance skew {:.2} exceeds the 1.5x target",
        outcome.max_mean_ratio()
    );
    if cores == 1 {
        println!(
            "  note: 1-core environment — cross-configuration wall-clock ratios are \
             suppressed; the adaptive win here is algorithmic (bounded border buckets), \
             re-run on a multi-core host for parallel-scaling numbers"
        );
    }
    println!("  ok: parity, steady-state clamping, and load-skew targets all hold");

    if let Some(path) = out_path {
        let mut json = BenchReport::new("skew", scale);
        json.push_row(json_row("static/x1", 1, false, &single));
        json.push_row(json_row("static/x4", 4, false, &static4));
        json.push_row(json_row("adaptive/x4", 4, true, &adaptive4));
        json.push_row(
            Row::new("rebalance/x4")
                .field("moved_tasks", outcome.moved_tasks)
                .field("max_mean_ratio", outcome.max_mean_ratio()),
        );
        json.write_to(&path)
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        println!("  wrote {}", path.display());
    }
}

fn replay(service: &mut LtcService, events: &[DriftEvent]) {
    for event in events {
        match event {
            DriftEvent::Post(t) => {
                service.post_task(*t).expect("drift tasks are valid");
            }
            DriftEvent::CheckIn(w) => {
                service.check_in(w);
            }
        }
    }
}
