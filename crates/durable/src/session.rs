//! [`DurableHandle`]: the [`Session`] wrapper that makes an in-process
//! service durable.
//!
//! Every state-changing call is appended to the write-ahead log
//! *before* it reaches the wrapped [`ServiceHandle`]; every
//! `checkpoint_every` logged operations the handle quiesces the
//! service (via the ordinary [`snapshot`](Session::snapshot) drain),
//! writes a covering checkpoint, rotates the log to a fresh segment,
//! and deletes everything the checkpoint made redundant. Read-only
//! calls pass straight through. Callers — the TCP server, the CLI —
//! drive the result as a plain [`Session`] and never know durability
//! is underneath.
//!
//! The handle fails closed: after the first log or checkpoint error the
//! log no longer provably describes the service, so every later call
//! that would log, drain, snapshot or checkpoint is refused without
//! touching either. A client retrying a refused call therefore cannot
//! apply it twice.

use crate::checkpoint;
use crate::wal::{self, SyncPolicy, WalRecord, WalWriter};
use crate::{recovery, DurableError, Recovery};
use ltc_core::model::{Task, TaskId, Worker, WorkerId};
use ltc_core::service::{
    EventStream, Lifecycle, RebalanceOutcome, ServiceError, ServiceHandle, ServiceMetrics,
    ServiceSnapshot, Session, SessionInfo,
};
use std::io;
use std::path::{Path, PathBuf};

/// How often checkpoints are taken when the caller does not say.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// Configuration for a [`DurableHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// How eagerly log records are fsynced (default [`SyncPolicy::Os`]).
    pub sync: SyncPolicy,
    /// Checkpoint after this many logged operations; `0` disables
    /// periodic checkpoints entirely (the log then only rotates at
    /// resume and shutdown). Default [`DEFAULT_CHECKPOINT_EVERY`].
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Os,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// What [`DurableHandle::resume`] did before handing the session back:
/// the [`Recovery`] accounting, minus the handle it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Sequence number covered by the checkpoint that was restored.
    pub checkpoint_seq: u64,
    /// Newer-but-unreadable checkpoints skipped during restore.
    pub checkpoints_skipped: u64,
    /// Log records replayed on top of the restored checkpoint.
    pub replayed: u64,
    /// Bytes of torn final record truncated off the log.
    pub truncated_bytes: u64,
    /// The sequence number the next logged operation will carry.
    pub next_seq: u64,
}

fn wal_failed(e: io::Error) -> ServiceError {
    ServiceError::Transport(format!("write-ahead log: {e}"))
}

fn durable_failed(e: DurableError) -> ServiceError {
    match e {
        DurableError::Service(e) => e,
        other => ServiceError::Transport(other.to_string()),
    }
}

/// A durable [`Session`] over an in-process [`ServiceHandle`]. See the
/// module docs for the log/checkpoint choreography and
/// [`recover`](crate::recover) for what happens after a crash.
#[derive(Debug)]
pub struct DurableHandle {
    inner: ServiceHandle,
    wal: WalWriter,
    dir: PathBuf,
    options: DurableOptions,
    since_checkpoint: u64,
    checkpoints: u64,
    closed: bool,
    /// The first log or checkpoint failure, which every later durable
    /// call is refused with.
    failed: Option<String>,
}

impl DurableHandle {
    /// Wraps a fresh session, initializing `dir` with a genesis
    /// checkpoint (the state before any logged operation) and segment
    /// 0. Refuses a directory that already holds a log — that history
    /// belongs to [`resume`](DurableHandle::resume).
    pub fn create(
        mut inner: ServiceHandle,
        dir: &Path,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir)?;
        if Self::is_initialized(dir) {
            return Err(DurableError::AlreadyInitialized(dir.to_path_buf()));
        }
        let snapshot = inner.snapshot()?;
        checkpoint::write_checkpoint(dir, 0, &snapshot)?;
        let wal = WalWriter::new_segment(dir, 0, 0, options.sync)?;
        inner.announce_lifecycle(Lifecycle::Checkpointed { seq: 0 });
        Ok(Self {
            inner,
            wal,
            dir: dir.to_path_buf(),
            options,
            since_checkpoint: 0,
            checkpoints: 1,
            closed: false,
            failed: None,
        })
    }

    /// Recovers `dir` ([`recover`](crate::recover): restore, repair a
    /// torn tail, replay) and resumes logging where the log left off —
    /// writing a fresh covering checkpoint, starting a new segment, and
    /// compacting everything older, so a crash loop cannot accumulate
    /// unbounded replay work.
    pub fn resume(
        dir: &Path,
        options: DurableOptions,
    ) -> Result<(Self, ResumeReport), DurableError> {
        let Recovery {
            handle: mut inner,
            checkpoint_seq,
            checkpoints_skipped,
            replayed,
            truncated_bytes,
            next_seq,
            next_segment,
        } = recovery::recover(dir)?;
        let snapshot = inner.snapshot()?;
        checkpoint::write_checkpoint(dir, next_seq, &snapshot)?;
        let mut wal = WalWriter::new_segment(dir, next_segment, next_seq, options.sync)?;
        wal.compact()?;
        checkpoint::compact_checkpoints(dir, next_seq)?;
        inner.announce_lifecycle(Lifecycle::Checkpointed { seq: next_seq });
        let report = ResumeReport {
            checkpoint_seq,
            checkpoints_skipped,
            replayed,
            truncated_bytes,
            next_seq,
        };
        Ok((
            Self {
                inner,
                wal,
                dir: dir.to_path_buf(),
                options,
                since_checkpoint: 0,
                checkpoints: 1,
                closed: false,
                failed: None,
            },
            report,
        ))
    }

    /// Whether `dir` already holds a log or checkpoints (so
    /// [`resume`](DurableHandle::resume) is the right entry point). A
    /// directory whose contents cannot even be listed counts as
    /// initialized — "maybe someone's data" must never be clobbered.
    pub fn is_initialized(dir: &Path) -> bool {
        if !dir.exists() {
            return false;
        }
        match (wal::list_segments(dir), checkpoint::list_checkpoints(dir)) {
            (Ok(segments), Ok(checkpoints)) => !segments.is_empty() || !checkpoints.is_empty(),
            _ => true,
        }
    }

    /// Records logged so far (equivalently: the next record's sequence
    /// number).
    pub fn wal_records(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Checkpoints written by this handle, the genesis/covering one
    /// included.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Refuses once a log or checkpoint call has failed.
    fn healthy(&self) -> Result<(), ServiceError> {
        match &self.failed {
            None => Ok(()),
            Some(cause) => Err(ServiceError::Transport(format!(
                "refused after an earlier durability failure: {cause}"
            ))),
        }
    }

    /// Records `e` as the failure every later durable call is refused
    /// with, and passes it on.
    fn fail(&mut self, e: ServiceError) -> ServiceError {
        self.failed.get_or_insert_with(|| e.to_string());
        e
    }

    fn log(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        self.healthy()?;
        if let Err(e) = self.wal.append(record) {
            return Err(self.fail(wal_failed(e)));
        }
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Pushes the log to the kernel ahead of a quiesce point.
    fn handoff(&mut self) -> Result<(), ServiceError> {
        self.healthy()?;
        self.wal.handoff().map_err(|e| self.fail(wal_failed(e)))
    }

    fn maybe_checkpoint(&mut self) -> Result<(), ServiceError> {
        if self.options.checkpoint_every > 0
            && self.since_checkpoint >= self.options.checkpoint_every
        {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Takes a checkpoint right now: quiesce, write the covering
    /// snapshot, rotate the log, compact covered segments and stale
    /// checkpoints, and announce [`Lifecycle::Checkpointed`] to
    /// subscribers. Returns the covered sequence number.
    pub fn checkpoint_now(&mut self) -> Result<u64, ServiceError> {
        self.healthy()?;
        let seq = self.wal.next_seq();
        let snapshot = self.inner.snapshot()?;
        self.commit_checkpoint(seq, &snapshot)
            .map_err(|e| self.fail(e))?;
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.inner
            .announce_lifecycle(Lifecycle::Checkpointed { seq });
        Ok(seq)
    }

    /// Writes the checkpoint covering `seq`, then rotates and compacts.
    fn commit_checkpoint(
        &mut self,
        seq: u64,
        snapshot: &ServiceSnapshot,
    ) -> Result<(), ServiceError> {
        checkpoint::write_checkpoint(&self.dir, seq, snapshot).map_err(durable_failed)?;
        self.wal.rotate().map_err(wal_failed)?;
        self.wal.compact().map_err(wal_failed)?;
        checkpoint::compact_checkpoints(&self.dir, seq).map_err(durable_failed)?;
        Ok(())
    }
}

impl Session for DurableHandle {
    fn info(&self) -> SessionInfo {
        self.inner.info()
    }

    fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError> {
        self.log(&WalRecord::Submit { worker: *worker })?;
        let result = ServiceHandle::submit_worker(&mut self.inner, worker);
        self.maybe_checkpoint()?;
        result
    }

    fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        self.log(&WalRecord::Post { task, row: None })?;
        let result = ServiceHandle::post_task(&mut self.inner, task);
        self.maybe_checkpoint()?;
        result
    }

    fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        self.log(&WalRecord::Post {
            task,
            row: Some(accuracies.to_vec()),
        })?;
        let result = self.inner.post_task_with_accuracies(task, accuracies);
        self.maybe_checkpoint()?;
        result
    }

    fn subscribe(&mut self) -> Result<EventStream, ServiceError> {
        self.inner.subscribe()
    }

    /// Quiesce point: everything logged so far is handed to the kernel
    /// before the drain completes, so a drained session's acknowledged
    /// operations survive a process crash — under *every*
    /// [`SyncPolicy`], including the buffered `Os` policy (whose
    /// power-loss window fsync alone would close, and which opted out
    /// of fsync by name).
    fn drain(&mut self) -> Result<(), ServiceError> {
        self.handoff()?;
        self.inner.drain()
    }

    /// Quiesce point, like [`drain`](DurableHandle::drain): the log is
    /// handed to the kernel first, so the returned snapshot never
    /// describes state a process crash could lose.
    fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        self.handoff()?;
        self.inner.snapshot()
    }

    fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        // Logged even when nothing ends up moving: "consider
        // rebalancing here" is part of the deterministic operation
        // sequence that replay must reproduce.
        self.log(&WalRecord::Rebalance)?;
        let result = ServiceHandle::rebalance(&mut self.inner);
        self.maybe_checkpoint()?;
        result
    }

    fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError> {
        let mut metrics = ServiceHandle::metrics(&mut self.inner)?;
        metrics.wal_records = self.wal.next_seq();
        metrics.checkpoints = self.checkpoints;
        Ok(metrics)
    }

    /// Seals the log with a final covering checkpoint (so the next
    /// start replays nothing), fsyncs, and shuts the service down. After
    /// a durability failure it refuses instead, leaving the directory
    /// as a crash would for recovery to handle.
    fn shutdown(&mut self) -> Result<(), ServiceError> {
        if self.closed {
            return Ok(());
        }
        self.healthy()?;
        self.closed = true;
        let sealed = self.checkpoint_now().map(|_| ());
        let synced = self.wal.sync().map_err(wal_failed);
        let stopped = self.inner.close();
        sealed.and(synced).and(stopped)
    }

    fn announce_lifecycle(&mut self, lifecycle: Lifecycle) {
        self.inner.announce_lifecycle(lifecycle);
    }
}

impl Drop for DurableHandle {
    /// Best-effort fsync of the log tail, skipped after a durability
    /// failure. Deliberately *not* a shutdown: a handle dropped
    /// mid-flight (a panicking server) must leave the directory exactly
    /// as a crash would, for recovery to handle.
    fn drop(&mut self) {
        if !self.closed && self.failed.is_none() {
            self.wal.sync().ok();
        }
    }
}
