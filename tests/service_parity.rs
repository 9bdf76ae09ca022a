//! Differential tests for the sharded [`LtcService`] facade:
//!
//! * **shard parity** — a 4-shard LAF service and a 1-shard run commit
//!   identical assignments worker by worker on seeded/property-generated
//!   instances (LAF's selection key *is* the service's merge tie-break,
//!   so spatial sharding must not change its decisions), which in
//!   particular means every worker is assigned tasks of equal gain;
//! * **shard invariance for every policy** — LAF, AAM, its LGF/LRF
//!   ablations and seeded Random, served by the facade and by the
//!   pipelined handle at 1, 2 and 4 shards, emit exactly the events of
//!   `run_online` on one bare engine (each policy's picks carry the key
//!   it ranked them by, and the merge ranks by that key), and the served
//!   run stays feasible: capacity respected, no duplicate pairs,
//!   completion agrees with the accumulated qualities;
//! * **snapshot differential** — serialize → restore mid-stream and
//!   continue: the stitched event stream must equal an uninterrupted
//!   run's, byte for byte at the event level.

use ltc::core::online::AamStrategy;
use ltc::core::service::{
    Algorithm, Event, LtcService, ServiceBuilder, ServiceHandle, StreamEvent,
};
use ltc::core::snapshot::{load_service, save_service};
use ltc::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;

fn synthetic(seed: u64, n_tasks: usize, n_workers: usize, capacity: u32, epsilon: f64) -> Instance {
    SyntheticConfig {
        n_tasks,
        n_workers,
        capacity,
        epsilon,
        grid_size: 300.0,
        seed,
        ..SyntheticConfig::default()
    }
    .generate()
}

fn service(instance: &Instance, shards: usize, algorithm: Algorithm) -> LtcService {
    ServiceBuilder::from_instance(instance)
        .algorithm(algorithm)
        .shards(NonZeroUsize::new(shards).unwrap())
        .build()
        .unwrap()
}

/// Streams every instance worker through the service serially, stopping
/// early on completion like `run_online`, and returns each worker's
/// events.
fn stream_events(service: &mut LtcService, instance: &Instance) -> Vec<Vec<Event>> {
    let mut out = Vec::new();
    for worker in instance.workers() {
        if service.all_completed() {
            break;
        }
        out.push(service.check_in(worker));
    }
    out
}

fn assigned_of(events: &[Event]) -> Vec<(u64, u32, f64, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Assigned {
                worker,
                task,
                acc,
                gain,
            } => Some((worker.0, task.0, *acc, *gain)),
            _ => None,
        })
        .collect()
}

fn check_laf_shard_parity(instance: &Instance) {
    let mut single = service(instance, 1, Algorithm::Laf);
    let mut sharded = service(instance, 4, Algorithm::Laf);
    let a = stream_events(&mut single, instance);
    let b = stream_events(&mut sharded, instance);
    assert_eq!(a.len(), b.len(), "worker streams diverged in length");
    for (w, (ea, eb)) in a.iter().zip(&b).enumerate() {
        let (ia, ib) = (assigned_of(ea), assigned_of(eb));
        assert_eq!(ia, ib, "worker {w}: sharded LAF diverged from single-shard");
        // The satellite property, spelled out: equal best gain per worker.
        let best =
            |v: &[(u64, u32, f64, f64)]| v.iter().map(|x| x.3).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best(&ia), best(&ib));
    }
    assert_eq!(single.latency(), sharded.latency());
    assert_eq!(single.n_assignments(), sharded.n_assignments());
}

#[test]
fn four_shard_laf_matches_single_shard_on_seeded_instances() {
    for (seed, n_tasks, n_workers, capacity, epsilon) in [
        (11u64, 40usize, 600usize, 2u32, 0.20f64),
        (12, 80, 1200, 6, 0.14),
        (13, 15, 400, 1, 0.30),
        (14, 120, 2000, 4, 0.10),
    ] {
        let inst = synthetic(seed, n_tasks, n_workers, capacity, epsilon);
        check_laf_shard_parity(&inst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form of the shard-parity guarantee over random shapes.
    #[test]
    fn four_shard_laf_matches_single_shard_property(
        seed in 0u64..10_000,
        n_tasks in 5usize..60,
        n_workers in 100usize..500,
        capacity in 1u32..5,
    ) {
        let inst = synthetic(seed, n_tasks, n_workers, capacity, 0.2);
        check_laf_shard_parity(&inst);
    }
}

/// Streams every instance worker through a pipelined handle (no early
/// stop — completed streams idle silently, like the facade would) and
/// returns each worker's events in submission order.
fn stream_events_pipelined(handle: &mut ServiceHandle, instance: &Instance) -> Vec<Vec<Event>> {
    let stream = handle.subscribe().unwrap();
    for worker in instance.workers() {
        handle.submit_worker(worker).unwrap();
    }
    handle.drain().unwrap();
    std::iter::from_fn(|| stream.try_recv())
        .filter_map(|e| match e {
            StreamEvent::Worker { events, .. } => Some(events),
            _ => None,
        })
        .collect()
}

/// The pipelined acceptance differential: a ≥4-shard `ServiceHandle`
/// LAF run matches a 1-shard run assignment for assignment, and both
/// match the synchronous facade fed the same stream.
#[test]
fn pipelined_laf_four_shards_matches_one_shard_and_the_facade() {
    for (seed, n_tasks, n_workers, capacity, epsilon) in [
        (41u64, 40usize, 600usize, 2u32, 0.20f64),
        (42, 80, 1200, 6, 0.14),
    ] {
        let inst = synthetic(seed, n_tasks, n_workers, capacity, epsilon);
        let pipelined = |n: usize| {
            let mut handle = ServiceBuilder::from_instance(&inst)
                .algorithm(Algorithm::Laf)
                .shards(NonZeroUsize::new(n).unwrap())
                .start()
                .unwrap();
            let events = stream_events_pipelined(&mut handle, &inst);
            (events, handle)
        };
        let (one, one_svc) = pipelined(1);
        let (four, four_svc) = pipelined(4);
        assert_eq!(one, four, "seed {seed}: 4-shard pipelined LAF diverged");
        assert_eq!(one_svc.latency(), four_svc.latency());

        // And the facade, fed the same full stream serially, agrees.
        let mut facade = service(&inst, 4, Algorithm::Laf);
        let serial: Vec<Vec<Event>> = inst.workers().iter().map(|w| facade.check_in(w)).collect();
        assert_eq!(serial, four, "seed {seed}: pipelined diverged from serial");
        assert_eq!(facade.n_assignments(), four_svc.n_assignments());
    }
}

/// The bare-engine policy an [`Algorithm`] names.
fn bare_policy(algorithm: Algorithm) -> Box<dyn OnlineAlgorithm> {
    match algorithm {
        Algorithm::Laf => Box::new(Laf::new()),
        Algorithm::Aam => Box::new(Aam::new()),
        Algorithm::AamLgf => Box::new(Aam::with_strategy(AamStrategy::AlwaysLgf)),
        Algorithm::AamLrf => Box::new(Aam::with_strategy(AamStrategy::AlwaysLrf)),
        Algorithm::Random { seed } => Box::new(RandomAssign::seeded(seed)),
    }
}

/// The events a service must emit, built from a bare engine driven like
/// `run_online`: one batch per worker until every task completes, each
/// assignment followed by the completion it caused.
fn engine_events(instance: &Instance, algorithm: Algorithm) -> Vec<Vec<Event>> {
    let mut engine = AssignmentEngine::from_instance(instance);
    let mut policy = bare_policy(algorithm);
    let mut out = Vec::new();
    let mut committed = Vec::new();
    for (i, worker) in instance.workers().iter().enumerate() {
        if engine.all_completed() {
            break;
        }
        let w = WorkerId(i as u64);
        let batch = engine.push_worker(worker, &mut *policy);
        committed.extend(batch.iter().copied());
        let mut events = Vec::new();
        if batch.is_empty() {
            events.push(Event::WorkerIdle { worker: w });
        }
        for a in batch.iter() {
            events.push(Event::Assigned {
                worker: w,
                task: a.task,
                acc: a.acc,
                gain: a.contribution,
            });
            if engine.is_completed(a.task) {
                events.push(Event::TaskCompleted {
                    task: a.task,
                    latency: w.arrival_index(),
                });
            }
        }
        out.push(events);
    }
    // The loop is `run_online`'s, step for step.
    let outcome = run_online(instance, &mut *bare_policy(algorithm));
    assert_eq!(committed, outcome.arrangement.assignments());
    out
}

/// The feasibility invariants of a served run: capacity respected, no
/// duplicate pairs, and completion events covering exactly the tasks the
/// service reports complete, each with an accumulated gain of at least δ.
fn check_feasible(instance: &Instance, events: &[Vec<Event>], svc: &LtcService) {
    let mut load: HashMap<u64, u32> = HashMap::new();
    let mut pairs = HashSet::new();
    let mut quality = vec![0.0f64; instance.n_tasks()];
    let mut completed_events = HashSet::new();
    for e in events.iter().flatten() {
        match e {
            Event::Assigned {
                worker, task, gain, ..
            } => {
                let l = load.entry(worker.0).or_insert(0);
                *l += 1;
                assert!(*l <= instance.params().capacity, "capacity violated");
                assert!(pairs.insert((worker.0, task.0)), "duplicate pair");
                quality[task.0 as usize] += gain;
            }
            Event::TaskCompleted { task, latency } => {
                assert!(completed_events.insert(task.0), "task completed twice");
                assert!(*latency >= 1);
            }
            Event::WorkerIdle { .. } => {}
        }
    }
    let delta = instance.delta();
    for t in 0..instance.n_tasks() as u32 {
        assert_eq!(
            svc.is_completed(TaskId(t)),
            completed_events.contains(&t),
            "completion events disagree with service state for task {t}"
        );
        if completed_events.contains(&t) {
            assert!(quality[t as usize] >= delta - 1e-9);
        }
    }
}

/// Every policy's N-shard decisions are its bare-engine decisions: the
/// facade and the pipelined handle at 1, 2 and 4 shards emit exactly the
/// events of `run_online` on one engine, and the served run is feasible.
fn check_shard_invariance(instance: &Instance, algorithm: Algorithm) {
    let expected = engine_events(instance, algorithm);
    for shards in [1usize, 2, 4] {
        let mut facade = service(instance, shards, algorithm);
        let served = stream_events(&mut facade, instance);
        assert_eq!(
            served, expected,
            "{algorithm:?}: the {shards}-shard facade diverged from the engine"
        );
        check_feasible(instance, &served, &facade);

        let mut handle = ServiceBuilder::from_instance(instance)
            .algorithm(algorithm)
            .shards(NonZeroUsize::new(shards).unwrap())
            .start()
            .unwrap();
        let stream = handle.subscribe().unwrap();
        for worker in &instance.workers()[..expected.len()] {
            handle.submit_worker(worker).unwrap();
        }
        handle.drain().unwrap();
        let pipelined: Vec<Vec<Event>> = std::iter::from_fn(|| stream.try_recv())
            .filter_map(|e| match e {
                StreamEvent::Worker { events, .. } => Some(events),
                _ => None,
            })
            .collect();
        assert_eq!(
            pipelined, expected,
            "{algorithm:?}: the {shards}-shard handle diverged from the engine"
        );
        handle.close().unwrap();
    }
}

/// The five policies, Random seeded with `seed`.
fn policies(seed: u64) -> [Algorithm; 5] {
    [
        Algorithm::Laf,
        Algorithm::Aam,
        Algorithm::AamLgf,
        Algorithm::AamLrf,
        Algorithm::Random { seed },
    ]
}

#[test]
fn every_policy_matches_the_bare_engine_on_seeded_instances() {
    for seed in [3u64, 5, 7] {
        let inst = synthetic(seed, 50, 900, 3, 0.18);
        for algorithm in policies(seed) {
            check_shard_invariance(&inst, algorithm);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of shard invariance over random shapes, for all
    /// five policies.
    #[test]
    fn every_policy_matches_the_bare_engine_at_1_2_4_shards(
        seed in 0u64..10_000,
        n_tasks in 5usize..60,
        n_workers in 100usize..500,
        capacity in 1u32..5,
        which in 0usize..5,
        random_seed in any::<u64>(),
    ) {
        let inst = synthetic(seed, n_tasks, n_workers, capacity, 0.2);
        check_shard_invariance(&inst, policies(random_seed)[which]);
    }
}

/// The snapshot differential: interrupt a sharded AAM service mid-stream,
/// round-trip its state through the v1 text format, and continue — the
/// stitched run must be indistinguishable from an uninterrupted one.
#[test]
fn snapshot_restore_continue_matches_uninterrupted_run() {
    for (seed, shards, cut) in [(21u64, 3usize, 200usize), (22, 4, 350), (23, 1, 101)] {
        let inst = synthetic(seed, 60, 1000, 3, 0.16);
        let algo = Algorithm::Aam;

        let mut uninterrupted = service(&inst, shards, algo);
        let full = stream_events(&mut uninterrupted, &inst);

        let mut first = service(&inst, shards, algo);
        let mut stitched: Vec<Vec<Event>> = Vec::new();
        for worker in &inst.workers()[..cut] {
            if first.all_completed() {
                break;
            }
            stitched.push(first.check_in(worker));
        }
        // Serialize to text and back — not just an in-memory clone.
        let mut buf = Vec::new();
        save_service(&first, &mut buf).unwrap();
        let mut restored = load_service(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(restored.n_workers_seen(), first.n_workers_seen());
        if !restored.all_completed() {
            for worker in &inst.workers()[restored.n_workers_seen() as usize..] {
                if restored.all_completed() {
                    break;
                }
                stitched.push(restored.check_in(worker));
            }
        }
        assert_eq!(full, stitched, "seed {seed}: restored run diverged");
        assert_eq!(uninterrupted.latency(), restored.latency());
        assert_eq!(uninterrupted.n_assignments(), restored.n_assignments());
        for t in 0..inst.n_tasks() as u32 {
            let t = ltc::core::model::TaskId(t);
            assert_eq!(
                uninterrupted.quality(t).to_bits(),
                restored.quality(t).to_bits()
            );
        }
    }
}
