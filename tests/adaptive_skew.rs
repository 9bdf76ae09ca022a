//! End-to-end acceptance test for the adaptive spatial layer on the
//! hotspot-drift workload ([`ltc::workload::HotspotDriftConfig`]): a
//! hotspot of posts and check-ins drifts across — and far beyond — the
//! declared service region, then settles.
//!
//! Asserts the ISSUE-4 acceptance criteria at test scale:
//!
//! * adaptive resize eliminates steady-state clamped insertions
//!   (`clamped_insertions` stops growing once the drift settles and the
//!   grown extent covers it);
//! * post-rebalance per-shard live-task load satisfies
//!   `max ≤ 1.5 × mean`;
//! * the adaptive N-shard run stays differentially identical to a
//!   1-shard run that never grows or rebalances;
//! * snapshot → restore → continue stays bit-exact across a rebalance,
//!   through the text wire format (pipelined front-end).

use ltc::core::service::{Algorithm, Event, ServiceBuilder, ServiceHandle, StreamEvent};
use ltc::core::snapshot::{read_snapshot, write_snapshot};
use ltc::workload::{DriftEvent, HotspotDriftConfig};
use std::num::NonZeroUsize;

fn config() -> HotspotDriftConfig {
    HotspotDriftConfig {
        n_posts: 300,
        checkins_per_post: 6,
        ..HotspotDriftConfig::default()
    }
}

fn builder(cfg: &HotspotDriftConfig, n_shards: usize) -> ServiceBuilder {
    ServiceBuilder::new(cfg.params(), cfg.declared)
        .algorithm(Algorithm::Laf)
        .shards(NonZeroUsize::new(n_shards).unwrap())
}

#[test]
fn hotspot_drift_adaptive_service_matches_static_single_shard() {
    let cfg = config();
    let events = cfg.events();
    let mut single = builder(&cfg, 1).build().unwrap();
    let mut adaptive = builder(&cfg, 4).grow_index_after(64).build().unwrap();

    let mut clamp_trace = Vec::new();
    let mut posts = 0usize;
    for (i, event) in events.iter().enumerate() {
        match event {
            DriftEvent::Post(t) => {
                let a = single.post_task(*t).unwrap();
                let b = adaptive.post_task(*t).unwrap();
                assert_eq!(a, b);
                posts += 1;
                if posts.is_multiple_of(64) {
                    adaptive.rebalance().unwrap();
                }
            }
            DriftEvent::CheckIn(w) => {
                assert_eq!(
                    single.check_in(w),
                    adaptive.check_in(w),
                    "adaptive 4-shard service diverged at event {i}"
                );
            }
        }
        clamp_trace.push(adaptive.metrics().clamped_insertions);
    }
    assert_eq!(single.n_assignments(), adaptive.n_assignments());

    // Steady state: after the drift settles (60% of the stream) and the
    // index has grown over it, the clamp counter plateaus. Probe the
    // final sixth — one sub-threshold tail may still be pending, and a
    // rebalance rebuilds the engines, which (like a restore) restarts
    // their telemetry, so measure with a saturating delta.
    let probe = 5 * clamp_trace.len() / 6;
    let late = clamp_trace
        .last()
        .unwrap()
        .saturating_sub(clamp_trace[probe]);
    assert!(
        late < 64,
        "clamped_insertions kept growing after resize: +{late} in the final sixth"
    );
    // And growth actually had something to do at some point.
    assert!(*clamp_trace.iter().max().unwrap() > 0);

    // A final rebalance leaves the load within the 1.5x target (or finds
    // the periodic ones already balanced it).
    if let Some(outcome) = adaptive.rebalance().unwrap() {
        assert!(
            outcome.max_mean_ratio() <= 1.5,
            "post-rebalance skew {:.2} exceeds 1.5 (loads {:?})",
            outcome.max_mean_ratio(),
            outcome.live_loads
        );
    }
}

#[test]
fn hotspot_drift_pipelined_snapshot_across_rebalance_is_bit_exact() {
    let cfg = config();
    let events = cfg.events();
    let cut = events.len() / 2;
    let rebalance_every = 400usize;

    let drive = |handle: &mut ServiceHandle,
                 events: &[DriftEvent],
                 base: usize|
     -> Vec<(u64, Vec<Event>)> {
        let stream = handle.subscribe().unwrap();
        for (i, event) in events.iter().enumerate() {
            match event {
                DriftEvent::Post(t) => {
                    handle.post_task(*t).unwrap();
                }
                DriftEvent::CheckIn(w) => {
                    handle.submit_worker(w).unwrap();
                }
            }
            if (base + i) % rebalance_every == rebalance_every - 1 {
                handle.rebalance().unwrap();
            }
        }
        handle.drain().unwrap();
        std::iter::from_fn(|| stream.try_recv())
            .filter_map(|e| match e {
                StreamEvent::Worker { worker, events } => Some((worker.0, events)),
                _ => None,
            })
            .collect()
    };

    let mut uninterrupted = builder(&cfg, 3).grow_index_after(64).start().unwrap();
    let full = drive(&mut uninterrupted, &events, 0);

    let mut first = builder(&cfg, 3).grow_index_after(64).start().unwrap();
    let mut stitched = drive(&mut first, &events[..cut], 0);
    let snap = first.snapshot().unwrap();
    drop(first);
    let mut text = Vec::new();
    write_snapshot(&snap, &mut text).unwrap();
    let decoded = read_snapshot(std::io::Cursor::new(text)).unwrap();
    assert_eq!(
        snap, decoded,
        "grown/rebalanced state must survive the wire"
    );
    let mut restored = ServiceHandle::restore(decoded).unwrap();
    stitched.extend(drive(&mut restored, &events[cut..], cut));
    assert_eq!(full, stitched, "restore across a rebalance diverged");
}
