//! Targeted durability tests: tabular accuracy rows through the log,
//! and a durability failure closing the handle.
//!
//! The contract `docs/DURABILITY.md` promises — a recovered session is
//! **byte-identical**, as `ltc-snapshot v2` text, to an uninterrupted
//! session fed the same prefix of operations, for every policy, shard
//! count, sync policy, checkpoint cadence and crash point — is checked
//! by the conformance harness (`tests/conform/` in the root
//! package).

use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::service::{Algorithm, ServiceBuilder, ServiceHandle, Session};
use ltc_core::snapshot::write_snapshot;
use ltc_durable::{recover, DurableHandle, DurableOptions};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;
use std::path::PathBuf;
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

fn snapshot_text<S: Session>(session: &mut S) -> String {
    let snap = session.snapshot().unwrap();
    let mut out = Vec::new();
    write_snapshot(&snap, &mut out).unwrap();
    String::from_utf8(out).unwrap()
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
