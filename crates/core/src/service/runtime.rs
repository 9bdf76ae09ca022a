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
//!
//! ## Wake-ups per batch, not per check-in
//!
//! The in-process hops follow the socket writers' rule, "flush only
//! before blocking". A shard collects its finished check-ins and posts
//! in a reused buffer and hands the whole buffer to the collector when
//! it is about to block (empty mailbox, rendezvous, control reply) or
//! the buffer reaches [`BATCH_CAP`]; the collector sends the emptied
//! buffer back. A submitter that finds a mailbox full announces one
//! stall and sleeps until the shard has drained it to half its bound,
//! instead of refilling one freed slot per wake-up. Only the grouping
//! of deliveries changes; decisions and delivery order do not.

use super::shard::{
    append_merge_events, merge_and_truncate, Proposal, ProposeScratch, Shard, ShardMetrics,
    ShardState,
};
use super::state::Progress;
use super::{Event, Lifecycle, ServiceError, StreamEvent};
use crate::model::{Task, TaskId, Worker, WorkerId};
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// How often a rendezvous wait looks up from the barrier to check
/// whether a peer shard thread has exited, so a dead peer ends the wait
/// promptly rather than after [`RENDEZVOUS_TIMEOUT`].
const PEER_POLL: Duration = Duration::from_millis(10);

/// A shard hands its finished submissions to the collector at the
/// latest once this many have collected, so delivery lag stays bounded
/// while the mailbox never runs empty.
const BATCH_CAP: usize = 64;

/// Emptied release buffers the collector keeps queued for each shard to
/// reuse (it frees any beyond this); a shard that finds none allocates
/// a fresh one. Enough to cover the small batches a shard flushes while
/// the collector waits for a core.
const RECYCLED_BUFFERS: usize = 16;

/// One shard mailbox's back-pressure state, shared by the submitter and
/// the shard thread.
#[derive(Debug)]
struct Mailbox {
    /// Messages sent to the shard and not yet received by it (briefly
    /// one more while a send is in progress).
    queued: AtomicUsize,
    /// The low watermark: a stalled submitter resumes once `queued` has
    /// come down to it (half the mailbox bound).
    low: usize,
    /// Set when the shard thread has exited, normally or by a panic.
    dead: AtomicBool,
    /// Guards the submitter's sleep against a lost wake-up.
    lock: Mutex<()>,
    /// Signalled when `queued` reaches `low`, and when the shard exits.
    room: Condvar,
}

impl Mailbox {
    fn new(capacity: usize) -> Self {
        Self {
            queued: AtomicUsize::new(0),
            low: capacity / 2,
            dead: AtomicBool::new(false),
            lock: Mutex::new(()),
            room: Condvar::new(),
        }
    }

    fn wake(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.room.notify_all();
    }

    /// Counts one message taken off the mailbox by the shard, waking a
    /// stalled submitter when this reaches the low watermark.
    fn took_one(&self) {
        if self.queued.fetch_sub(1, Ordering::SeqCst) == self.low + 1 {
            self.wake();
        }
    }

    /// Blocks until the shard has drained to the low watermark. `false`
    /// when the shard thread exited instead.
    fn wait_for_room(&self) -> bool {
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.is_dead() {
                return false;
            }
            if self.queued.load(Ordering::SeqCst) <= self.low {
                return true;
            }
            guard = self
                .room
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// Marks its shard dead when the shard thread leaves [`shard_loop`],
/// whether it returns or unwinds, and wakes every waiter: a stalled
/// submitter then reports [`ServiceError::RuntimeStopped`], and a peer
/// blocked in a rendezvous with this shard gives up at its next poll.
struct ExitGuard(Arc<[Mailbox]>, usize);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let mailbox = &self.0[self.1];
        mailbox.dead.store(true, Ordering::SeqCst);
        mailbox.wake();
    }
}

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
    mailboxes: Arc<[Mailbox]>,
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
        let mailboxes: Arc<[Mailbox]> = shards.iter().map(|_| Mailbox::new(capacity)).collect();
        let (recycle_txs, recycle_rxs): (Vec<_>, Vec<_>) = shards
            .iter()
            .map(|_| mpsc::sync_channel(RECYCLED_BUFFERS))
            .unzip();
        let mut runtime = Self {
            shard_txs: Vec::with_capacity(shards.len()),
            mailboxes: Arc::clone(&mailboxes),
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
                .spawn(move || collector_loop(collector_rx, recycle_txs, stats))
                .map_err(|_| ServiceError::RuntimeStopped("could not spawn the collector"))?,
        );
        for ((i, shard), recycled) in shards.into_iter().enumerate().zip(recycle_rxs) {
            let (tx, rx) = mpsc::sync_channel(capacity);
            let rt = ShardRuntime {
                shard,
                shard_id: i,
                collector: collector_tx.clone(),
                released: Vec::with_capacity(BATCH_CAP),
                recycled,
                mailboxes: Arc::clone(&mailboxes),
                scratch: ProposeScratch::default(),
            };
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

    /// Sends to a shard mailbox. A full mailbox starts a stall episode:
    /// back-pressure is announced once, then the submitter sleeps until
    /// the shard has drained the mailbox to half its bound, so the next
    /// half-mailbox of sends goes through without a wake-up each. A
    /// shard thread that exits ends the wait with `RuntimeStopped`.
    /// Once stopped the mailboxes are gone: a late submission (a server
    /// thread racing an eviction) is a clean refusal, never a panic.
    pub(crate) fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), ServiceError> {
        let Some(tx) = self.shard_txs.get(shard) else {
            return Err(ServiceError::RuntimeStopped("the runtime is shut down"));
        };
        let mailbox = &self.mailboxes[shard];
        // Counted before it can be received, so the shard's decrement
        // never runs ahead of this increment.
        mailbox.queued.fetch_add(1, Ordering::SeqCst);
        let msg = match tx.try_send(msg) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(msg)) => msg,
            Err(TrySendError::Disconnected(_)) => {
                return Err(ServiceError::RuntimeStopped("a shard mailbox disconnected"))
            }
        };
        // Not in the mailbox after all. The handle is the only
        // submitter, so if this decrement reaches the low watermark the
        // check in `wait_for_room` sees it.
        mailbox.queued.fetch_sub(1, Ordering::SeqCst);
        self.announce(Lifecycle::ShardStalled {
            shard,
            capacity: self.capacity,
        });
        if !mailbox.wait_for_room() {
            return Err(ServiceError::RuntimeStopped("a shard thread exited"));
        }
        mailbox.queued.fetch_add(1, Ordering::SeqCst);
        tx.send(msg)
            .map_err(|_| ServiceError::RuntimeStopped("a shard mailbox disconnected"))
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
    /// The shards taking part; a wait gives up once one of them exits.
    participants: RangeInclusive<usize>,
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
    pub(crate) fn new(k: usize, participants: RangeInclusive<usize>, hybrid: bool) -> Self {
        Self {
            k,
            expected: participants.clone().count(),
            participants,
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
    /// Finished submissions not yet handed to the collector.
    released: Vec<Release>,
    /// Emptied buffers coming back from the collector.
    recycled: Receiver<Vec<Release>>,
    /// Every shard's mailbox state (this shard's, and its peers' exit
    /// flags for the rendezvous).
    mailboxes: Arc<[Mailbox]>,
    scratch: ProposeScratch,
}

impl ShardRuntime {
    fn release(&mut self, seq: u64, item: Pending) {
        self.released.push(Release { seq, item });
        if self.released.len() >= BATCH_CAP {
            self.flush();
        }
    }

    /// Hands the collected releases to the collector in one message,
    /// swapping in a recycled buffer (a fresh one only while the
    /// collector has none to give back).
    fn flush(&mut self) {
        if self.released.is_empty() {
            return;
        }
        let spare = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH_CAP));
        let batch = std::mem::replace(&mut self.released, spare);
        self.collector
            .send(CollectorMsg::Released {
                shard: self.shard_id,
                batch,
            })
            .ok();
    }
}

/// The body of one persistent shard thread: drain the mailbox in order
/// until the handle disconnects it, flushing finished work to the
/// collector before every point where the thread could block.
fn shard_loop(mut rt: ShardRuntime, rx: Receiver<ShardMsg>) {
    let _exit = ExitGuard(Arc::clone(&rt.mailboxes), rt.shard_id);
    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                rt.flush();
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        rt.mailboxes[rt.shard_id].took_one();
        match msg {
            ShardMsg::Local { seq, w, worker } => {
                let mut events = Vec::new();
                rt.shard.check_in_local(w, &worker, &mut events);
                rt.release(seq, Pending::Worker { w, events });
            }
            ShardMsg::Gather {
                seq,
                w,
                worker,
                propose,
                rv,
            } => {
                rt.flush();
                serve_rendezvous(&mut rt, seq, w, &worker, propose, &rv);
            }
            ShardMsg::PostTask {
                seq,
                global,
                task,
                accuracies,
            } => {
                rt.shard.post(global, task, accuracies.as_deref());
                rt.release(seq, Pending::Task { task: global });
            }
            ShardMsg::Snapshot { reply } => {
                rt.flush();
                reply.send(rt.shard.state()).ok();
            }
            ShardMsg::Metrics { reply } => {
                rt.flush();
                reply.send(rt.shard.metrics()).ok();
            }
            ShardMsg::Install { engine, globals } => {
                rt.shard.engine = *engine;
                rt.shard.globals = globals;
            }
        }
    }
    rt.flush();
}

/// One shard's participation in a cross-shard worker decision. Blocks on
/// the barrier's condvar while peers catch up to this worker's position
/// in their own mailboxes; the caller has flushed its releases first.
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
        let st = wait_for_peers(rv, st, &rt.mailboxes, |st| st.units_in == rv.expected);
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
        let st = wait_for_peers(rv, st, &rt.mailboxes, |st| st.decided);
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
        rt.release(seq, Pending::Worker { w, events });
    }
}

/// Waits at a rendezvous barrier until `done` holds. Panics (killing
/// this shard thread in a joinable way) when a participating shard
/// thread has exited, checked every [`PEER_POLL`], or when no peer
/// makes progress within [`RENDEZVOUS_TIMEOUT`] — waiting forever would
/// wedge every `join` on the handle.
fn wait_for_peers<'a>(
    rv: &'a Rendezvous,
    mut st: MutexGuard<'a, RvState>,
    mailboxes: &[Mailbox],
    done: impl Fn(&RvState) -> bool,
) -> MutexGuard<'a, RvState> {
    let mut idle = Duration::ZERO;
    while !done(&st) {
        assert!(
            !rv.participants.clone().any(|s| mailboxes[s].is_dead()),
            "cross-shard rendezvous abandoned: a peer shard thread exited"
        );
        assert!(
            idle < RENDEZVOUS_TIMEOUT,
            "cross-shard rendezvous abandoned: no peer progress for {RENDEZVOUS_TIMEOUT:?}"
        );
        let (guard, timeout) = rv.cv.wait_timeout(st, PEER_POLL).unwrap();
        st = guard;
        idle = if timeout.timed_out() {
            idle + PEER_POLL
        } else {
            Duration::ZERO
        };
    }
    st
}

/// A message for the collector thread.
pub(crate) enum CollectorMsg {
    /// A shard's finished submissions, in its processing order (exactly
    /// one release per submitted worker and per posted task overall).
    Released {
        /// The shard that sends the emptied buffer back for reuse.
        shard: usize,
        /// The releases, each with its submission sequence number.
        batch: Vec<Release>,
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

/// One submission's outcome, waiting for its turn in submission order.
pub(crate) struct Release {
    seq: u64,
    item: Pending,
}

enum Pending {
    Worker { w: WorkerId, events: Vec<Event> },
    Task { task: TaskId },
    Flush { announce: bool, ack: SyncSender<()> },
}

/// The collector thread: re-orders finished submissions by sequence
/// number, maintains the shared counters, and fans events out to
/// subscribers. Exits when every producer (all shards and the handle)
/// has disconnected.
fn collector_loop(
    rx: Receiver<CollectorMsg>,
    recycle: Vec<SyncSender<Vec<Release>>>,
    stats: Arc<RuntimeStats>,
) {
    // `pending[i]` holds submission `next + i` once it has finished; the
    // ring keeps its capacity, so re-ordering allocates nothing once it
    // has grown to the in-flight window.
    let mut pending: VecDeque<Option<Pending>> = VecDeque::new();
    let mut next = 0u64;
    let mut subscribers: Vec<Sender<StreamEvent>> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Released { shard, mut batch } => {
                for Release { seq, item } in batch.drain(..) {
                    park(&mut pending, next, seq, item);
                }
                recycle[shard].try_send(batch).ok();
            }
            CollectorMsg::Flush { seq, announce, ack } => {
                park(&mut pending, next, seq, Pending::Flush { announce, ack });
            }
            CollectorMsg::Subscribe { tx } => subscribers.push(tx),
            CollectorMsg::Lifecycle(l) => {
                broadcast(&mut subscribers, StreamEvent::Lifecycle(l));
            }
        }
        while let Some(slot) = pending.front_mut() {
            let Some(release) = slot.take() else { break };
            pending.pop_front();
            next += 1;
            match release {
                Pending::Worker { w, events } => {
                    let mut batch = Progress::default();
                    batch.note(&events);
                    stats.add(&batch);
                    stats.workers_released.fetch_add(1, Ordering::Relaxed);
                    broadcast(&mut subscribers, StreamEvent::Worker { worker: w, events });
                }
                Pending::Task { task } => {
                    broadcast(&mut subscribers, StreamEvent::TaskPosted { task });
                }
                Pending::Flush { announce, ack } => {
                    if announce {
                        let workers_seen = stats.workers_released.load(Ordering::Relaxed);
                        broadcast(
                            &mut subscribers,
                            StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen }),
                        );
                    }
                    ack.send(()).ok();
                }
            }
        }
    }
}

/// Parks submission `seq`'s outcome in the re-order ring whose front
/// slot is submission `next`.
fn park(pending: &mut VecDeque<Option<Pending>>, next: u64, seq: u64, item: Pending) {
    let at = (seq - next) as usize;
    if at >= pending.len() {
        pending.resize_with(at + 1, || None);
    }
    pending[at] = Some(item);
}

/// Delivers `event` to every live subscriber: a clone for each but the
/// last, which receives the event itself. Disconnected subscribers are
/// dropped.
fn broadcast(subscribers: &mut Vec<Sender<StreamEvent>>, event: StreamEvent) {
    let mut i = 0;
    while i + 1 < subscribers.len() {
        if subscribers[i].send(event.clone()).is_ok() {
            i += 1;
        } else {
            subscribers.remove(i);
        }
    }
    if subscribers.last().is_some_and(|tx| tx.send(event).is_err()) {
        subscribers.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProblemParams;
    use crate::service::state::ServiceState;
    use crate::service::ServiceBuilder;
    use ltc_spatial::{BoundingBox, Point};
    use std::num::NonZeroUsize;
    use std::time::Instant;

    fn runtime(n_shards: usize, capacity: usize) -> Runtime {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let snapshot = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(n_shards).unwrap())
            .mailbox_capacity(capacity)
            .genesis()
            .unwrap();
        let (_, shards, progress) = ServiceState::restore(snapshot).unwrap();
        Runtime::start(shards, capacity, progress, 0).unwrap()
    }

    fn worker() -> Worker {
        Worker::new(Point::new(50.0, 50.0), 0.9)
    }

    fn local(seq: u64) -> ShardMsg {
        ShardMsg::Local {
            seq,
            w: WorkerId(seq),
            worker: worker(),
        }
    }

    /// A post the shard's engine rejects (a sigmoid engine takes no
    /// accuracy row): admission never lets one through, so receiving it
    /// panics the shard thread.
    fn poison() -> ShardMsg {
        ShardMsg::PostTask {
            seq: 0,
            global: TaskId(0),
            task: Task::new(Point::new(1.0, 1.0)),
            accuracies: Some(vec![0.5]),
        }
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_stalled_submit_fails_promptly_when_its_shard_exits() {
        let capacity = 4;
        let runtime = Arc::new(runtime(1, capacity));
        let (events_tx, events) = mpsc::channel();
        runtime
            .collector()
            .unwrap()
            .send(CollectorMsg::Subscribe { tx: events_tx })
            .unwrap();
        // Park the shard on a control reply nobody reads yet, with its
        // mailbox empty behind it.
        let (reply_tx, reply_rx) = mpsc::sync_channel(0);
        runtime
            .send(0, ShardMsg::Metrics { reply: reply_tx })
            .unwrap();
        wait_until("the shard takes the request", || {
            runtime.mailboxes[0].queued.load(Ordering::SeqCst) == 0
        });
        // Not a scoped thread: a submit that never returns must fail
        // this test, not hang it.
        let (outcome_tx, outcome_rx) = mpsc::channel();
        let submitter = Arc::clone(&runtime);
        std::thread::spawn(move || {
            // The poison first, so the shard dies on its first receive,
            // well above the low watermark.
            submitter.send(0, poison()).unwrap();
            for seq in 1..capacity as u64 {
                submitter.send(0, local(seq)).unwrap();
            }
            outcome_tx.send(submitter.send(0, local(capacity as u64)))
        });
        loop {
            let event = events.recv_timeout(Duration::from_secs(10)).unwrap();
            if matches!(
                event,
                StreamEvent::Lifecycle(Lifecycle::ShardStalled { .. })
            ) {
                break;
            }
        }
        reply_rx.recv().unwrap();
        let outcome = outcome_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the stalled submit still waits 1 s after its shard exited");
        assert!(
            matches!(outcome, Err(ServiceError::RuntimeStopped(_))),
            "a submit stalled on a dead shard returned {outcome:?}"
        );
    }

    #[test]
    fn a_rendezvous_gives_up_promptly_when_a_peer_exits() {
        let runtime = runtime(2, 8);
        let rv = Arc::new(Rendezvous::new(2, 0..=1, false));
        let gather = ShardMsg::Gather {
            seq: 0,
            w: WorkerId(0),
            worker: worker(),
            propose: false,
            rv,
        };
        // Shard 0 waits at the barrier for shard 1, which dies instead.
        runtime.send(0, gather).unwrap();
        let killed = Instant::now();
        runtime.send(1, poison()).unwrap();
        wait_until("the waiting shard gives up", || {
            runtime.mailboxes[0].is_dead()
        });
        assert!(
            killed.elapsed() < Duration::from_secs(1),
            "the rendezvous took {:?} to notice the dead peer",
            killed.elapsed()
        );
    }
}
