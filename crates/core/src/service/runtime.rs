//! Internals of the pipelined runtime: persistent per-shard worker
//! threads fed by bounded mailboxes, a cross-shard rendezvous for
//! decisions that need more than one shard, and a collector thread that
//! restores submission order before delivering events to subscribers.
//!
//! ## Why this is deterministic
//!
//! Every shard processes its mailbox strictly in submission order, and
//! any decision touching several shards (a boundary worker, or any
//! hybrid-AAM worker, whose regime switch reads the global worker-unit
//! aggregate) synchronizes **all involved shards at that worker's
//! position** through a [`Rendezvous`] barrier. Shard state therefore
//! evolves exactly as it would under the serial facade, independent of
//! thread scheduling; only *delivery* of finished event batches races,
//! and the collector re-orders those by submission sequence number. The
//! result: a pipelined run is event-for-event identical to the same
//! submissions fed through `LtcService::check_in`.

use super::shard::{
    append_merge_events, merge_and_truncate, Proposal, ProposeScratch, Shard, ShardMetrics,
    ShardState,
};
use super::state::Progress;
use super::{Event, Lifecycle, ServiceError, StreamEvent};
use crate::model::{Task, TaskId, Worker, WorkerId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a drain waits for the runtime before concluding it is
/// wedged (a shard thread died or a mailbox deadlocked — bugs, not
/// back-pressure).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on one rendezvous wait. A healthy peer reaches the
/// barrier within its mailbox backlog (micro- to millisecond-scale
/// work per entry); a peer that takes this long is dead or deadlocked,
/// and panicking here turns a silent permanent hang — which would also
/// wedge `ServiceHandle::close`/`Drop` on `join` — into a loud,
/// joinable failure that `drain` reports as `RuntimeStopped`.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);

/// The [`Progress`] counters the collector maintains as it releases
/// event batches, shared with the handle through an `Arc`. All
/// loads/stores are relaxed: the values are monotone counters read for
/// reporting, not for synchronization (ordering guarantees come from
/// the channels).
#[derive(Debug, Default)]
struct RuntimeStats {
    /// Assignments committed (counted at event release).
    n_assignments: AtomicU64,
    /// Tasks that crossed their completion threshold.
    completed_tasks: AtomicU64,
    /// `max(arrival index of any assigned worker) `, offset by nothing —
    /// arrival indexes are 1-based, so `0` means "none assigned yet".
    max_assigned_arrival: AtomicU64,
    /// Check-in event batches released so far.
    workers_released: AtomicU64,
}

impl RuntimeStats {
    fn add(&self, batch: &Progress) {
        self.n_assignments
            .fetch_add(batch.n_assignments, Ordering::Relaxed);
        self.completed_tasks
            .fetch_add(batch.n_completed, Ordering::Relaxed);
        if let Some(m) = batch.max_assigned {
            self.max_assigned_arrival.fetch_max(m, Ordering::Relaxed);
        }
    }

    fn progress(&self) -> Progress {
        Progress {
            n_assignments: self.n_assignments.load(Ordering::Relaxed),
            n_completed: self.completed_tasks.load(Ordering::Relaxed),
            max_assigned: match self.max_assigned_arrival.load(Ordering::Relaxed) {
                0 => None,
                m => Some(m),
            },
        }
    }
}

/// The threaded executor: one persistent thread per shard behind a
/// bounded mailbox, plus the collector thread and the counters it
/// releases into.
#[derive(Debug)]
pub(crate) struct Runtime {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    shard_joins: Vec<JoinHandle<()>>,
    collector_tx: Option<Sender<CollectorMsg>>,
    collector_join: Option<JoinHandle<()>>,
    stats: Arc<RuntimeStats>,
    /// The mailbox bound, reported with back-pressure notices.
    capacity: usize,
    /// Next submission sequence number (orders event delivery).
    next_seq: u64,
}

impl Runtime {
    /// Spins up the threads over `shards`, with the collector's counters
    /// continuing from `progress` and `released` delivered check-ins.
    pub(crate) fn start(
        shards: Vec<Shard>,
        capacity: usize,
        progress: Progress,
        released: u64,
    ) -> Result<Self, ServiceError> {
        let stats = Arc::new(RuntimeStats::default());
        stats.add(&progress);
        stats.workers_released.store(released, Ordering::Relaxed);
        let (collector_tx, collector_rx) = mpsc::channel();
        let mut runtime = Self {
            shard_txs: Vec::with_capacity(shards.len()),
            shard_joins: Vec::with_capacity(shards.len()),
            collector_tx: Some(collector_tx.clone()),
            collector_join: None,
            stats: Arc::clone(&stats),
            capacity,
            next_seq: 0,
        };
        runtime.collector_join = Some(
            std::thread::Builder::new()
                .name("ltc-collector".into())
                .spawn(move || collector_loop(collector_rx, stats))
                .map_err(|_| ServiceError::RuntimeStopped("could not spawn the collector"))?,
        );
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(capacity);
            let rt = ShardRuntime::new(shard, i, collector_tx.clone());
            let join = std::thread::Builder::new()
                .name(format!("ltc-shard-{i}"))
                .spawn(move || shard_loop(rt, rx))
                .map_err(|_| ServiceError::RuntimeStopped("could not spawn a shard thread"))?;
            runtime.shard_txs.push(tx);
            runtime.shard_joins.push(join);
        }
        Ok(runtime)
    }

    /// The released-event counters.
    pub(crate) fn progress(&self) -> Progress {
        self.stats.progress()
    }

    /// Whether the runtime was stopped.
    pub(crate) fn is_stopped(&self) -> bool {
        self.collector_tx.is_none()
    }

    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub(crate) fn collector(&self) -> Result<&Sender<CollectorMsg>, ServiceError> {
        self.collector_tx
            .as_ref()
            .ok_or(ServiceError::RuntimeStopped("the runtime is shut down"))
    }

    /// Broadcasts an advisory lifecycle notice (a no-op once stopped).
    pub(crate) fn announce(&self, lifecycle: Lifecycle) {
        if let Some(tx) = &self.collector_tx {
            tx.send(CollectorMsg::Lifecycle(lifecycle)).ok();
        }
    }

    /// Sends to a shard mailbox, announcing back-pressure the moment the
    /// bounded channel is full, then blocking until the shard catches up.
    /// Once stopped the mailboxes are gone: a late submission (a server
    /// thread racing an eviction) is a clean refusal, never a panic.
    pub(crate) fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), ServiceError> {
        let Some(tx) = self.shard_txs.get(shard) else {
            return Err(ServiceError::RuntimeStopped("the runtime is shut down"));
        };
        match tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                self.announce(Lifecycle::ShardStalled {
                    shard,
                    capacity: self.capacity,
                });
                tx.send(msg)
                    .map_err(|_| ServiceError::RuntimeStopped("a shard mailbox disconnected"))
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(ServiceError::RuntimeStopped("a shard mailbox disconnected"))
            }
        }
    }

    /// A control round trip to every shard, replies in shard order;
    /// `died` describes a shard that never answered.
    pub(crate) fn ask<T>(
        &self,
        request: fn(SyncSender<T>) -> ShardMsg,
        died: &'static str,
    ) -> Result<Vec<T>, ServiceError> {
        let mut replies = Vec::with_capacity(self.shard_txs.len());
        for s in 0..self.shard_txs.len() {
            let (tx, rx) = mpsc::sync_channel(1);
            self.send(s, request(tx))?;
            replies.push(rx);
        }
        replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| ServiceError::RuntimeStopped(died)))
            .collect()
    }

    /// Blocks until every submission so far has been processed and its
    /// events delivered, then announces [`Lifecycle::Drained`].
    pub(crate) fn drain(&mut self) -> Result<(), ServiceError> {
        let seq = self.take_seq();
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.collector()?
            .send(CollectorMsg::Flush {
                seq,
                announce: true,
                ack: ack_tx,
            })
            .map_err(|_| ServiceError::RuntimeStopped("the collector disconnected"))?;
        ack_rx.recv_timeout(DRAIN_TIMEOUT).map_err(|_| {
            ServiceError::RuntimeStopped("drain timed out — a shard is stalled or died")
        })
    }

    /// Stops every thread: disconnect the mailboxes (shard threads exit
    /// after finishing their queues), join them, then the collector.
    /// Idempotent; a panicked shard thread is joined with the rest and
    /// then reported.
    pub(crate) fn stop(&mut self) -> Result<(), ServiceError> {
        self.shard_txs.clear();
        let mut panicked = false;
        for join in self.shard_joins.drain(..) {
            panicked |= join.join().is_err();
        }
        drop(self.collector_tx.take());
        if let Some(join) = self.collector_join.take() {
            join.join().ok();
        }
        if panicked {
            return Err(ServiceError::RuntimeStopped("a shard thread panicked"));
        }
        Ok(())
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop().ok();
    }
}

/// A command in a shard's bounded mailbox, processed strictly in
/// submission order.
pub(crate) enum ShardMsg {
    /// Serve one interior worker entirely shard-locally.
    Local {
        /// Submission sequence number (orders event delivery).
        seq: u64,
        /// The worker's service-global arrival id.
        w: WorkerId,
        /// The check-in itself.
        worker: Worker,
    },
    /// Participate in a cross-shard decision for one worker.
    Gather {
        /// Submission sequence number.
        seq: u64,
        /// The worker's service-global arrival id.
        w: WorkerId,
        /// The check-in itself.
        worker: Worker,
        /// Whether this shard's stripe intersects the worker's disk (it
        /// proposes candidates); non-proposers only contribute their
        /// worker-unit statistics and the ordering barrier.
        propose: bool,
        /// The shared barrier state.
        rv: Arc<Rendezvous>,
    },
    /// Append a task posted mid-stream (admitted by the handle).
    PostTask {
        /// Submission sequence number.
        seq: u64,
        /// The task's service-global id.
        global: TaskId,
        /// The task itself.
        task: Task,
        /// Its accuracy-table row, when the model is tabular.
        accuracies: Option<Vec<f64>>,
    },
    /// Reply with the shard's durable state (only sent quiesced).
    Snapshot {
        /// Where to send the state.
        reply: SyncSender<ShardState>,
    },
    /// Replace the shard's engine and id map with a rebalanced partition
    /// (only sent quiesced, between a drain and any new submissions, so
    /// it can never interleave with in-flight work). The policy instance
    /// stays — RNG streams and regime state belong to the shard, not to
    /// its task subset.
    Install {
        /// The rebuilt engine over the shard's new task subset.
        engine: Box<crate::engine::AssignmentEngine>,
        /// The new local→global id map.
        globals: Vec<u32>,
    },
    /// Reply with the shard's live operational counters.
    Metrics {
        /// Where to send the counters.
        reply: SyncSender<ShardMetrics>,
    },
}

/// The barrier through which all shards involved in one worker's
/// decision exchange statistics, proposals, and commit results. Three
/// phases, each a lock+condvar round: (1) deposit worker-unit statistics
/// (hybrid AAM only), (2) deposit proposals and merge, (3) commit own
/// picks and ship the ordered event batch (last committer sends).
pub(crate) struct Rendezvous {
    k: usize,
    expected: usize,
    hybrid: bool,
    state: Mutex<RvState>,
    cv: Condvar,
}

#[derive(Default)]
struct RvState {
    units_in: usize,
    units_sum: f64,
    units_max: f64,
    proposed: usize,
    proposals: Vec<Proposal>,
    decided: bool,
    committed: usize,
    completed: Vec<u32>,
}

impl Rendezvous {
    pub(crate) fn new(k: usize, expected: usize, hybrid: bool) -> Self {
        Self {
            k,
            expected,
            hybrid,
            state: Mutex::new(RvState::default()),
            cv: Condvar::new(),
        }
    }
}

/// Everything one persistent shard thread owns.
struct ShardRuntime {
    shard: Shard,
    shard_id: usize,
    collector: Sender<CollectorMsg>,
    scratch: ProposeScratch,
}

impl ShardRuntime {
    fn new(shard: Shard, shard_id: usize, collector: Sender<CollectorMsg>) -> Self {
        Self {
            shard,
            shard_id,
            collector,
            scratch: ProposeScratch::default(),
        }
    }
}

/// The body of one persistent shard thread: drain the mailbox in order
/// until the handle disconnects it.
fn shard_loop(mut rt: ShardRuntime, rx: Receiver<ShardMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Local { seq, w, worker } => {
                let mut events = Vec::new();
                rt.shard.check_in_local(w, &worker, &mut events);
                rt.collector
                    .send(CollectorMsg::Worker { seq, w, events })
                    .ok();
            }
            ShardMsg::Gather {
                seq,
                w,
                worker,
                propose,
                rv,
            } => serve_rendezvous(&mut rt, seq, w, &worker, propose, &rv),
            ShardMsg::PostTask {
                seq,
                global,
                task,
                accuracies,
            } => {
                rt.shard.post(global, task, accuracies.as_deref());
                rt.collector
                    .send(CollectorMsg::TaskPosted { seq, task: global })
                    .ok();
            }
            ShardMsg::Snapshot { reply } => {
                reply.send(rt.shard.state()).ok();
            }
            ShardMsg::Metrics { reply } => {
                reply.send(rt.shard.metrics()).ok();
            }
            ShardMsg::Install { engine, globals } => {
                rt.shard.engine = *engine;
                rt.shard.globals = globals;
            }
        }
    }
}

/// One shard's participation in a cross-shard worker decision. Blocks on
/// the barrier's condvar while peers catch up to this worker's position
/// in their own mailboxes.
fn serve_rendezvous(
    rt: &mut ShardRuntime,
    seq: u64,
    w: WorkerId,
    worker: &Worker,
    propose: bool,
    rv: &Rendezvous,
) {
    // Phase 1 (hybrid AAM only): pool the worker-unit statistics so the
    // regime switch reads the exact global aggregate. Every participant
    // is synchronized at this worker, so the pooled value equals what a
    // serial pass would compute.
    let units = if rv.hybrid {
        let (sum, max) = rt.shard.engine.remaining_units();
        // ltc-lint: allow(L003) a peer panicking mid-barrier leaves partial sums; propagating poison kills this shard thread joinably instead of merging torn state
        let mut st = rv.state.lock().unwrap();
        st.units_sum += sum;
        st.units_max = st.units_max.max(max);
        st.units_in += 1;
        if st.units_in == rv.expected {
            rv.cv.notify_all();
        }
        while st.units_in < rv.expected {
            st = wait_for_peers(rv, st);
        }
        Some((st.units_sum, st.units_max))
    } else {
        None
    };

    // Phase 2: propose (stripe-intersecting shards only), then merge
    // once everyone has deposited.
    let mut mine = Vec::new();
    if propose {
        if let Some(units) = units {
            rt.shard.set_hybrid_units(units);
        }
        rt.shard
            .propose(rt.shard_id, w, worker, rv.k, &mut rt.scratch, &mut mine);
    }
    let my_picks: Vec<Proposal> = {
        // ltc-lint: allow(L003) proposal merge: poison means a peer died with proposals half-deposited; deciding from them would commit a torn arrangement
        let mut st = rv.state.lock().unwrap();
        st.proposals.append(&mut mine);
        st.proposed += 1;
        if st.proposed == rv.expected {
            merge_and_truncate(rv.k, &mut st.proposals);
            st.decided = true;
            rv.cv.notify_all();
        }
        while !st.decided {
            st = wait_for_peers(rv, st);
        }
        st.proposals
            .iter()
            .filter(|p| p.shard == rt.shard_id)
            .copied()
            .collect()
    };

    // Phase 3: commit own picks; the last committer assembles the
    // globally-ordered event batch and ships it. Nobody waits here — a
    // shard may move on to its next mailbox entry immediately (delivery
    // order is restored by the collector's sequence numbers).
    let mut completed = Vec::new();
    for p in &my_picks {
        rt.shard.engine.commit(w, worker, p.local);
        if rt.shard.engine.is_completed(p.local) {
            completed.push(p.global);
        }
    }
    // ltc-lint: allow(L003) commit tally: a poisoned barrier must stop the event batch from shipping, so the panic propagates to the joinable shard thread
    let mut st = rv.state.lock().unwrap();
    st.completed.extend(completed);
    st.committed += 1;
    if st.committed == rv.expected {
        let mut events = Vec::new();
        append_merge_events(w, &st.proposals, &st.completed, &mut events);
        drop(st);
        rt.collector
            .send(CollectorMsg::Worker { seq, w, events })
            .ok();
    }
}

/// One bounded condvar wait at a rendezvous barrier. Panics (killing
/// this shard thread in a joinable way) when no peer makes progress
/// within [`RENDEZVOUS_TIMEOUT`] — a peer died, and waiting forever
/// would wedge every `join` on the handle.
fn wait_for_peers<'a>(rv: &'a Rendezvous, st: MutexGuard<'a, RvState>) -> MutexGuard<'a, RvState> {
    let (st, timeout) = rv.cv.wait_timeout(st, RENDEZVOUS_TIMEOUT).unwrap();
    assert!(
        !timeout.timed_out(),
        "cross-shard rendezvous abandoned: a peer shard thread died or stalled \
         for {RENDEZVOUS_TIMEOUT:?}"
    );
    st
}

/// A message for the collector thread.
pub(crate) enum CollectorMsg {
    /// A finished check-in (exactly one per submitted worker).
    Worker {
        /// Submission sequence number.
        seq: u64,
        /// The worker's arrival id.
        w: WorkerId,
        /// Its ordered event batch.
        events: Vec<Event>,
    },
    /// A finished task post (exactly one per posted task).
    TaskPosted {
        /// Submission sequence number.
        seq: u64,
        /// The task's service-global id.
        task: TaskId,
    },
    /// A drain/quiesce marker: acknowledged once every earlier
    /// submission's events have been released.
    Flush {
        /// Submission sequence number.
        seq: u64,
        /// Whether to announce [`Lifecycle::Drained`] to subscribers.
        announce: bool,
        /// Acknowledged once the marker is released in order.
        ack: SyncSender<()>,
    },
    /// Attach a new subscriber.
    Subscribe {
        /// The subscriber's channel.
        tx: Sender<StreamEvent>,
    },
    /// Broadcast an advisory lifecycle notification immediately
    /// (unordered).
    Lifecycle(Lifecycle),
}

enum PendingRelease {
    Worker { w: WorkerId, events: Vec<Event> },
    Task { task: TaskId },
    Flush { announce: bool, ack: SyncSender<()> },
}

/// The collector thread: re-orders finished batches by submission
/// sequence, maintains the shared counters, and fans events out to
/// subscribers. Exits when every producer (all shards and the handle)
/// has disconnected.
fn collector_loop(rx: Receiver<CollectorMsg>, stats: Arc<RuntimeStats>) {
    let mut pending: BTreeMap<u64, PendingRelease> = BTreeMap::new();
    let mut next = 0u64;
    let mut subscribers: Vec<Sender<StreamEvent>> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Worker { seq, w, events } => {
                pending.insert(seq, PendingRelease::Worker { w, events });
            }
            CollectorMsg::TaskPosted { seq, task } => {
                pending.insert(seq, PendingRelease::Task { task });
            }
            CollectorMsg::Flush { seq, announce, ack } => {
                pending.insert(seq, PendingRelease::Flush { announce, ack });
            }
            CollectorMsg::Subscribe { tx } => subscribers.push(tx),
            CollectorMsg::Lifecycle(l) => {
                broadcast(&mut subscribers, &StreamEvent::Lifecycle(l));
            }
        }
        while let Some(release) = pending.remove(&next) {
            next += 1;
            match release {
                PendingRelease::Worker { w, events } => {
                    let mut batch = Progress::default();
                    batch.note(&events);
                    stats.add(&batch);
                    stats.workers_released.fetch_add(1, Ordering::Relaxed);
                    broadcast(&mut subscribers, &StreamEvent::Worker { worker: w, events });
                }
                PendingRelease::Task { task } => {
                    broadcast(&mut subscribers, &StreamEvent::TaskPosted { task });
                }
                PendingRelease::Flush { announce, ack } => {
                    if announce {
                        let workers_seen = stats.workers_released.load(Ordering::Relaxed);
                        broadcast(
                            &mut subscribers,
                            &StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen }),
                        );
                    }
                    ack.send(()).ok();
                }
            }
        }
    }
}

fn broadcast(subscribers: &mut Vec<Sender<StreamEvent>>, event: &StreamEvent) {
    subscribers.retain(|tx| tx.send(event.clone()).is_ok());
}
