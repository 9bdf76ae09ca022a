//! Differential tests: the evicting [`AssignmentEngine`] behind
//! `run_online` must produce **identical arrangements** (same assignment
//! sequence, same latency) to an independent reference implementation of
//! the seed driver semantics — brute-force candidate enumeration over a
//! static task set, no spatial index, no eviction — for LAF, AAM, and
//! seeded Random on seeded synthetic instances. Random's reference is
//! the paper-level rule: rank the candidates by a keyed hash of the
//! seed, the worker's arrival and the task id, descending (ties toward
//! the smaller id), and take K.
//!
//! The reference reimplements the *decision rules* from the paper's
//! pseudo-code rather than calling the production policies, so a shared
//! bug cannot cancel out.

mod conform;

use ltc::core::online::AamStrategy;
use ltc::prelude::*;

/// Tolerance mirroring the engine's completion check.
const EPS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq)]
struct RefAssignment {
    worker: u64,
    task: u32,
    acc: f64,
    contribution: f64,
}

#[derive(Debug, Clone, Copy)]
enum RefAlgo {
    Laf,
    Aam,
    Random { seed: u64 },
}

/// Seed-semantics reference driver: walk the worker stream in order,
/// enumerate eligible uncompleted tasks by brute-force scan (ascending
/// id), apply the decision rule, commit irrevocably, stop when all tasks
/// reach δ.
fn reference_run(instance: &Instance, algo: RefAlgo) -> (Vec<RefAssignment>, Option<u64>) {
    let n_tasks = instance.n_tasks();
    let delta = instance.delta();
    let capacity = instance.params().capacity as usize;
    let mut s = vec![0.0f64; n_tasks];
    let mut completed = vec![false; n_tasks];
    let mut n_uncompleted = n_tasks;
    let mut trace: Vec<RefAssignment> = Vec::new();

    for w in 0..instance.n_workers() as u64 {
        if n_uncompleted == 0 {
            break;
        }
        let wid = WorkerId(w);
        // Brute-force eligible uncompleted candidates in ascending id
        // order: within d_max AND Acc >= 0.5 (the nearby-only policy).
        let candidates: Vec<(u32, f64, f64)> = (0..n_tasks as u32)
            .filter(|&t| !completed[t as usize])
            .filter(|&t| instance.is_eligible(wid, TaskId(t)))
            .map(|t| {
                (
                    t,
                    instance.acc(wid, TaskId(t)),
                    instance.contribution(wid, TaskId(t)),
                )
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }

        let remaining = |t: u32, s: &[f64], completed: &[bool]| -> f64 {
            if completed[t as usize] {
                0.0
            } else {
                (delta - s[t as usize]).max(0.0)
            }
        };

        // Decision rule: pick up to K task ids.
        let mut picks: Vec<u32> = match algo {
            RefAlgo::Laf => {
                // Largest Acc* first, ties toward smaller id: sort a copy
                // descending by (contribution, Reverse(id)).
                let mut sorted = candidates.clone();
                sorted.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then_with(|| a.0.cmp(&b.0)));
                sorted.iter().take(capacity).map(|c| c.0).collect()
            }
            RefAlgo::Aam => {
                // Regime switch on whole worker-units over ALL tasks.
                let mut sum_units = 0.0;
                let mut max_units = 0.0f64;
                for t in 0..n_tasks as u32 {
                    let units = remaining(t, &s, &completed).ceil();
                    sum_units += units;
                    max_units = max_units.max(units);
                }
                let use_lgf = sum_units / capacity as f64 >= max_units;
                let key = |c: &(u32, f64, f64)| -> f64 {
                    let r = remaining(c.0, &s, &completed);
                    if use_lgf {
                        c.2.min(r)
                    } else {
                        r
                    }
                };
                let mut sorted = candidates.clone();
                sorted.sort_by(|a, b| {
                    key(b)
                        .partial_cmp(&key(a))
                        .unwrap()
                        .then_with(|| a.0.cmp(&b.0))
                });
                sorted.iter().take(capacity).map(|c| c.0).collect()
            }
            RefAlgo::Random { seed } => {
                // The K largest keyed hashes, ties toward the smaller id.
                let mut sorted = candidates.clone();
                sorted.sort_by(|a, b| {
                    let (ha, hb) = (random_key(seed, w, a.0), random_key(seed, w, b.0));
                    hb.cmp(&ha).then_with(|| a.0.cmp(&b.0))
                });
                sorted.iter().take(capacity).map(|c| c.0).collect()
            }
        };

        // Seed driver post-processing: truncate, sort, dedup, commit.
        picks.truncate(capacity);
        picks.sort_unstable();
        picks.dedup();
        for t in picks {
            let (_, acc, contribution) = *candidates.iter().find(|c| c.0 == t).unwrap();
            trace.push(RefAssignment {
                worker: w,
                task: t,
                acc,
                contribution,
            });
            let ti = t as usize;
            s[ti] += contribution;
            if !completed[ti] && s[ti] >= delta - EPS {
                completed[ti] = true;
                n_uncompleted -= 1;
            }
        }
    }

    let latency = if n_uncompleted == 0 {
        trace.iter().map(|a| a.worker + 1).max()
    } else {
        None
    };
    (trace, latency)
}

/// SplitMix64: a golden-gamma step, then the output mix.
fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random's documented rank key: the top 53 bits of
/// `splitmix64(seed, worker arrival, task id)`, the three words chained
/// through SplitMix64 rounds.
fn random_key(seed: u64, worker: u64, task: u32) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ worker) ^ u64::from(task)) >> 11
}

fn engine_run(instance: &Instance, algo: RefAlgo) -> (Vec<RefAssignment>, Option<u64>) {
    let outcome = match algo {
        RefAlgo::Laf => run_online(instance, &mut Laf::new()),
        RefAlgo::Aam => run_online(instance, &mut Aam::new()),
        RefAlgo::Random { seed } => run_online(instance, &mut RandomAssign::seeded(seed)),
    };
    let trace = outcome
        .arrangement
        .assignments()
        .iter()
        .map(|a| RefAssignment {
            worker: a.worker.0,
            task: a.task.0,
            acc: a.acc,
            contribution: a.contribution,
        })
        .collect();
    (trace, outcome.latency())
}

/// Seeded synthetic instances spanning several shapes: dense and sparse,
/// different ε / K, a couple of hundred workers each, plus the Table-IV
/// default at 1/64 scale and its long tail (ε = 0.06).
fn parity_instances() -> Vec<(String, Instance)> {
    let shapes = [
        (1u64, 30usize, 400usize, 2u32, 0.20f64, 120.0f64),
        (2, 50, 800, 6, 0.14, 200.0),
        (3, 12, 300, 1, 0.30, 80.0),
        (4, 80, 1200, 4, 0.10, 300.0),
    ];
    let mut out: Vec<_> = shapes
        .map(|dims| (format!("{dims:?}"), conform::synthetic(dims)))
        .into();
    for epsilon in [0.14, 0.06] {
        let cfg = SyntheticConfig {
            epsilon,
            ..SyntheticConfig::default().scaled_down(64)
        };
        out.push((format!("table_iv_1_64_e{epsilon}"), cfg.generate()));
    }
    out
}

fn assert_parity(algo: RefAlgo) {
    for (name, inst) in parity_instances() {
        let (ref_trace, ref_latency) = reference_run(&inst, algo);
        let (eng_trace, eng_latency) = engine_run(&inst, algo);
        assert_eq!(
            ref_trace.len(),
            eng_trace.len(),
            "{algo:?} on {name}: assignment counts diverge"
        );
        for (i, (r, e)) in ref_trace.iter().zip(eng_trace.iter()).enumerate() {
            assert_eq!(r, e, "{algo:?} on {name}: assignment #{i} diverges");
        }
        assert_eq!(
            ref_latency, eng_latency,
            "{algo:?} on {name}: latency diverges"
        );
    }
}

#[test]
fn laf_matches_reference_on_seeded_instances() {
    assert_parity(RefAlgo::Laf);
}

#[test]
fn aam_matches_reference_on_seeded_instances() {
    assert_parity(RefAlgo::Aam);
}

#[test]
fn random_matches_reference_on_seeded_instances() {
    for seed in [7u64, 11, 13] {
        assert_parity(RefAlgo::Random { seed });
    }
}

/// Random picks each worker's K tasks uniformly: over a fixed pool of
/// candidates and 24k arrivals, every task's pick frequency lies within
/// ±10% of K/n.
#[test]
fn random_picks_are_uniform_over_a_fixed_pool() {
    const N: u32 = 12;
    const K: u32 = 4;
    const ARRIVALS: u64 = 24_000;
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(K)
        .build()
        .unwrap();
    let region = ltc::spatial::BoundingBox::new(Point::ORIGIN, Point::new(10.0, 10.0));
    let engine = AssignmentEngine::new(params, region).unwrap();
    let candidates: Vec<Candidate> = (0..N)
        .map(|t| Candidate {
            task: TaskId(t),
            acc: 0.9,
            contribution: 0.6,
        })
        .collect();
    let mut policy = RandomAssign::seeded(2024);
    let mut counts = [0u64; N as usize];
    let mut picks = Vec::new();
    for w in 0..ARRIVALS {
        picks.clear();
        policy.assign(&engine, WorkerId(w), &candidates, &mut picks);
        assert_eq!(picks.len(), K as usize);
        for p in &picks {
            counts[p.task.index()] += 1;
        }
    }
    let expected = (ARRIVALS * u64::from(K)) as f64 / f64::from(N);
    for (t, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expected).abs() / expected;
        assert!(dev <= 0.10, "task {t}: {c} picks, expected {expected:.0}");
    }
}

/// The acceptance bar for the service: with one shard it must be
/// bit-identical to `AssignmentEngine::push_worker` on the whole parity
/// suite, for every online policy. The conformance harness checks the
/// handle's events against the bare engine's, and the facade's too.
#[test]
fn single_shard_service_is_bit_identical_to_the_engine() {
    let algorithms = [
        Algorithm::Laf,
        Algorithm::Aam,
        Algorithm::Random { seed: 7 },
        Algorithm::Random { seed: 13 },
    ];
    for (_, instance) in parity_instances() {
        for algorithm in algorithms {
            let case = conform::Case::instance(&instance, algorithm, 1);
            conform::conform(conform::Stack::HANDLE, &case);
        }
    }
}

/// The ablation variants ride the same engine path; spot-check one.
#[test]
fn aam_variants_complete_and_stay_feasible_on_seeded_instances() {
    for (name, inst) in parity_instances() {
        for strategy in [AamStrategy::AlwaysLgf, AamStrategy::AlwaysLrf] {
            let outcome = run_online(&inst, &mut Aam::with_strategy(strategy));
            if outcome.completed {
                outcome
                    .arrangement
                    .check_feasible(&inst)
                    .unwrap_or_else(|e| panic!("{strategy:?} on {name}: {e}"));
            }
        }
    }
}
