//! End-to-end durability tests: the full log → checkpoint → crash →
//! recover lifecycle, deterministic and property-based.
//!
//! The contract under test is the one `docs/DURABILITY.md` promises: a
//! recovered session is **byte-identical**, as `ltc-snapshot v2` text,
//! to an uninterrupted session fed the same prefix of operations — for
//! every policy, shard count, sync policy, checkpoint cadence, and
//! crash point, including a crash that tears the final log record (or
//! even a just-rotated segment's header) mid-write.

use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{Algorithm, ServiceBuilder, ServiceHandle, Session};
use ltc_core::snapshot::write_snapshot;
use ltc_durable::{recover, DurableHandle, DurableOptions, SyncPolicy};
use ltc_spatial::{BoundingBox, Point};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ltc-recovery-test-{name}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params() -> ProblemParams {
    ProblemParams::builder()
        .epsilon(0.2)
        .capacity(2)
        .d_max(30.0)
        .build()
        .unwrap()
}

fn region() -> BoundingBox {
    BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
}

fn fresh(algo: Algorithm, n_shards: usize) -> ServiceHandle {
    ServiceBuilder::new(params(), region())
        .algorithm(algo)
        .shards(NonZeroUsize::new(n_shards).unwrap())
        .start()
        .unwrap()
}

/// One state-changing session operation — the alphabet the log records.
#[derive(Debug, Clone)]
enum Op {
    Submit(Worker),
    Post(Task),
    Rebalance,
}

/// Applies one op through any [`Session`]. The workloads here stay
/// in-region, so every op must succeed — a failure is a test bug.
fn apply<S: Session>(session: &mut S, op: &Op) {
    let outcome = match op {
        Op::Submit(w) => session.submit_worker(w).map(|_| ()),
        Op::Post(t) => session.post_task(*t).map(|_| ()),
        Op::Rebalance => session.rebalance().map(|_| ()),
    };
    if let Err(e) = outcome {
        panic!("op {op:?} failed: {e}");
    }
}

fn snapshot_text<S: Session>(session: &mut S) -> String {
    let snap = session.snapshot().unwrap();
    let mut out = Vec::new();
    write_snapshot(&snap, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// The state an uninterrupted run holds after the first `n` ops.
fn reference_text(algo: Algorithm, n_shards: usize, ops: &[Op], n: usize) -> String {
    let mut handle = fresh(algo, n_shards);
    for op in &ops[..n] {
        apply(&mut handle, op);
    }
    handle.drain().unwrap();
    let text = snapshot_text(&mut handle);
    handle.close().unwrap();
    text
}

/// A deterministic mixed workload over the region.
fn mixed_ops(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_ops)
        .map(|_| {
            let r = next();
            let x = (r % 1000) as f64;
            let y = ((r >> 10) % 1000) as f64;
            match r % 11 {
                0..=3 => Op::Post(Task::new(Point::new(x, y))),
                4 => Op::Rebalance,
                _ => {
                    let acc = 0.7 + 0.29 * ((r >> 20) % 100) as f64 / 100.0;
                    Op::Submit(Worker::new(Point::new(x, y), acc))
                }
            }
        })
        .collect()
}

/// The highest-numbered (current) segment file in a log directory.
fn final_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("log directory holds no segments")
}

/// Clean shutdown → resume replays nothing; the resumed session
/// continues bit-identically to an uninterrupted run, checkpointing and
/// compacting along the way.
#[test]
fn shutdown_resume_continues_bit_identically() {
    let dir = temp_dir("shutdown-resume");
    let algo = Algorithm::Laf;
    let ops = mixed_ops(42, 75);
    let options = DurableOptions {
        sync: SyncPolicy::Every(2),
        checkpoint_every: 8,
    };

    let mut durable = DurableHandle::create(fresh(algo, 4), &dir, options).unwrap();
    for op in &ops[..50] {
        apply(&mut durable, op);
    }
    assert_eq!(durable.wal_records(), 50);
    let metrics = durable.metrics().unwrap();
    assert_eq!(metrics.wal_records, 50);
    // Genesis plus one every 8 logged ops.
    assert_eq!(metrics.checkpoints, 1 + 50 / 8);
    durable.shutdown().unwrap();

    let (mut durable, report) = DurableHandle::resume(&dir, options).unwrap();
    assert_eq!(report.replayed, 0, "a sealed log replays nothing");
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.next_seq, 50);
    for op in &ops[50..] {
        apply(&mut durable, op);
    }
    assert_eq!(durable.wal_records(), 75);
    let text = snapshot_text(&mut durable);
    durable.shutdown().unwrap();

    assert_eq!(text, reference_text(algo, 4, &ops, 75));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash right after the last of several periodic checkpoints
/// restores that checkpoint alone, with nothing left to replay.
#[test]
fn periodic_checkpoints_restore_after_a_crash() {
    let dir = temp_dir("periodic-checkpoint");
    let algo = Algorithm::Aam;
    let ops = mixed_ops(7, 40);
    let options = DurableOptions {
        sync: SyncPolicy::Os,
        checkpoint_every: 5,
    };
    let mut durable = DurableHandle::create(fresh(algo, 2), &dir, options).unwrap();
    for op in &ops {
        apply(&mut durable, op);
    }
    drop(durable); // crash: no shutdown, no sealing checkpoint

    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.next_seq, 40);
    assert_eq!(recovery.checkpoint_seq, 40);
    assert_eq!(recovery.replayed, 0);
    let mut handle = recovery.handle;
    let text = snapshot_text(&mut handle);
    handle.close().unwrap();
    assert_eq!(text, reference_text(algo, 2, &ops, 40));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tabular accuracy rows ride the log and replay bit-exactly (the
/// `row` field of `post` records).
#[test]
fn accuracy_rows_replay_bit_exactly() {
    let inst = ltc_core::toy::toy_instance(0.2);
    let build = || ServiceBuilder::from_instance(&inst).start().unwrap();
    let n_workers = inst.n_workers();
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|t| {
            (0..n_workers)
                .map(|w| 0.70 + 0.04 * ((w + t) % 8) as f64)
                .collect()
        })
        .collect();

    let dir = temp_dir("table-rows");
    let mut durable = DurableHandle::create(
        build(),
        &dir,
        DurableOptions {
            checkpoint_every: 0, // pure replay: everything from the log
            ..DurableOptions::default()
        },
    )
    .unwrap();
    for (t, row) in rows.iter().enumerate() {
        durable
            .post_task_with_accuracies(Task::new(Point::new(t as f64, 1.0)), row)
            .unwrap();
    }
    for worker in inst.workers() {
        durable.submit_worker(worker).unwrap();
    }
    drop(durable); // crash

    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.checkpoint_seq, 0);
    assert_eq!(recovery.replayed, 3 + n_workers as u64);
    let mut recovered = recovery.handle;
    let recovered_text = snapshot_text(&mut recovered);
    recovered.close().unwrap();

    let mut reference = build();
    for (t, row) in rows.iter().enumerate() {
        reference
            .post_task_with_accuracies(Task::new(Point::new(t as f64, 1.0)), row)
            .unwrap();
    }
    for worker in inst.workers() {
        reference.submit_worker(worker).unwrap();
    }
    reference.drain().unwrap();
    let reference_text = snapshot_text(&mut reference);
    reference.close().unwrap();

    assert_eq!(recovered_text, reference_text);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first log or checkpoint failure closes the handle: later calls
/// are refused without being applied or logged, so a client retrying a
/// refused submit cannot apply it twice.
#[test]
fn a_durability_failure_closes_the_handle() {
    let dir = temp_dir("fail-closed");
    let options = DurableOptions {
        checkpoint_every: 2,
        ..DurableOptions::default()
    };
    let mut durable = DurableHandle::create(fresh(Algorithm::Laf, 2), &dir, options).unwrap();
    durable
        .post_task(Task::new(Point::new(10.0, 10.0)))
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let worker = Worker::new(Point::new(500.0, 500.0), 0.9);
    let mut seen = Vec::new();
    for _ in 0..6 {
        assert!(durable.submit_worker(&worker).is_err());
        seen.push((
            durable.metrics().unwrap().n_workers_seen,
            durable.wal_records(),
        ));
    }
    // The first submit was logged and applied before its checkpoint
    // failed; nothing after it moved either counter.
    assert_eq!(seen, vec![(1, 2); 6]);
    assert!(durable.post_task(Task::new(Point::new(1.0, 1.0))).is_err());
    assert!(durable.rebalance().is_err());
    assert!(durable.drain().is_err());
    assert!(durable.snapshot().is_err());
    assert!(durable.checkpoint_now().is_err());
    assert_eq!(durable.metrics().unwrap().n_workers_seen, 1);
    assert_eq!(durable.wal_records(), 2);
    assert!(durable.shutdown().is_err());
    drop(durable);
    assert!(!dir.exists());
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0.0f64..1000.0, 0.0f64..1000.0, 0.70f64..0.99).prop_map(
        |(kind, x, y, p)| match kind {
            0..=3 => Op::Post(Task::new(Point::new(x, y))),
            4 => Op::Rebalance,
            _ => Op::Submit(Worker::new(Point::new(x, y), p)),
        },
    )
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0u8..3).prop_map(|which| match which {
        0 => Algorithm::Laf,
        1 => Algorithm::Aam,
        _ => Algorithm::Random { seed: 7 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE recovery invariant: whatever the workload, policy, shard
    /// count, durability options, and crash point — anywhere in the
    /// log, including mid-record and mid-header — recovery lands
    /// byte-identical to an uninterrupted run over the surviving
    /// prefix. And it is idempotent: recovering twice changes nothing.
    #[test]
    fn any_crash_point_recovers_bit_exactly(
        ops in prop::collection::vec(arb_op(), 1..48),
        algo in arb_algorithm(),
        four_shards in any::<bool>(),
        checkpoint_every in 0u64..6,
        sync_choice in 0u8..3,
        cut_frac in 0.0f64..=1.0,
    ) {
        let n_shards = if four_shards { 4 } else { 1 };
        let options = DurableOptions {
            sync: match sync_choice {
                0 => SyncPolicy::Always,
                1 => SyncPolicy::Every(3),
                _ => SyncPolicy::Os,
            },
            checkpoint_every,
        };
        let dir = temp_dir("proptest");

        let mut durable = DurableHandle::create(fresh(algo, n_shards), &dir, options).unwrap();
        for op in &ops {
            apply(&mut durable, op);
        }
        drop(durable); // crash: no shutdown

        // Chop the current segment at an arbitrary byte offset —
        // modeling power loss mid-write, possibly mid-header.
        let tail = final_segment(&dir);
        let len = std::fs::metadata(&tail).unwrap().len();
        let cut = (len as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let recovery = recover(&dir).unwrap();
        let survived = recovery.next_seq as usize;
        prop_assert!(survived <= ops.len());
        let mut recovered = recovery.handle;
        let recovered_text = snapshot_text(&mut recovered);
        recovered.close().unwrap();

        prop_assert_eq!(&recovered_text, &reference_text(algo, n_shards, &ops, survived));

        // Idempotence: the only mutation was repairing the torn tail,
        // so a second recovery finds nothing to repair and lands in
        // exactly the same state.
        let again = recover(&dir).unwrap();
        prop_assert_eq!(again.truncated_bytes, 0);
        prop_assert_eq!(again.next_seq, recovery.next_seq);
        let mut recovered = again.handle;
        prop_assert_eq!(&snapshot_text(&mut recovered), &recovered_text);
        recovered.close().unwrap();

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
