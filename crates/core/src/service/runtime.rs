//! Internals of the pipelined runtime: persistent per-shard worker
//! threads fed by bounded mailboxes, a cross-shard rendezvous for
//! decisions that need more than one shard, and shared delivery state
//! through which finished work reaches subscribers in submission order.
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
//! and a re-order ring restores submission order by sequence number.
//! The result: a pipelined run is event-for-event identical to the same
//! submissions fed through `LtcService::check_in`.
//!
//! ## Delivery without a delivery thread
//!
//! There is no thread between a shard and a subscriber. A shard
//! writes its finished check-ins and posts into a reused, flat release
//! buffer (entries, and one event list they index, so no check-in
//! allocates) and appends it to its own inbox when it is about to block
//! (empty mailbox, rendezvous, control reply) or the buffer reaches
//! [`BATCH_CAP`]. The handle has an inbox too, for drain markers, new
//! subscribers and lifecycle notices. Whoever has just filled an inbox
//! then tries to deliver: it takes the re-order ring with `try_lock`,
//! parks every inbox's releases in that inbox's queue, merges the
//! queues by sequence number, and sends the in-order prefix to each
//! subscriber as one [`EventBatch`]. A thread that finds the ring taken
//! returns at once; the holder re-checks every inbox after unlocking,
//! so nothing is left behind (flat combining: Hendler et al., SPAA
//! 2010). No shard ever waits behind another's delivery.
//!
//! A submitter that finds a mailbox full announces one stall and
//! sleeps until the shard has drained it to half its bound, instead of
//! refilling one freed slot per wake-up. Only the grouping of
//! deliveries changes; decisions and delivery order do not.

use super::events::{event_channel, EventSink};
use super::rebalance::Migration;
use super::shard::{
    append_merge_events, merge_and_truncate, Proposal, ProposeScratch, Shard, ShardMetrics,
};
use super::state::Progress;
use super::{Event, EventBatch, EventFanout, EventRef, EventStream, Lifecycle, ServiceError};
use crate::engine::{EngineState, Migrants};
use crate::model::{Task, TaskId, Worker, WorkerId};
use ltc_spatial::{BoundingBox, ShardRouter};
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a drain waits for a live runtime before concluding it is
/// wedged (a mailbox deadlocked — a bug, not back-pressure). A shard
/// thread that exits ends the wait at the next [`PEER_POLL`] instead.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on one rendezvous wait. A healthy peer reaches the
/// barrier within its mailbox backlog (micro- to millisecond-scale
/// work per entry); a peer that takes this long is dead or deadlocked,
/// and panicking here turns a silent permanent hang — which would also
/// wedge `ServiceHandle::close`/`Drop` on `join` — into a loud,
/// joinable failure that `drain` reports as `RuntimeStopped`.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a rendezvous wait or a drain looks up to check whether a
/// shard thread has exited, so a dead shard ends the wait promptly
/// rather than after [`RENDEZVOUS_TIMEOUT`] or [`DRAIN_TIMEOUT`].
const PEER_POLL: Duration = Duration::from_millis(10);

/// A shard hands its finished submissions to delivery at the latest
/// once this many have collected, so delivery lag stays bounded while
/// the mailbox never runs empty.
const BATCH_CAP: usize = 64;

/// A delivery hands subscribers at most this many deliveries at once:
/// a long in-order prefix (one that waited behind a slow rendezvous)
/// goes out in several batches, so delivery buffers stay near this
/// size.
const DELIVERY_CAP: usize = 4 * BATCH_CAP;

/// A parked queue that a long-open re-order window grew past this many
/// dues or events is shrunk back to it once it empties.
const PARKED_KEEP: usize = 4 * DELIVERY_CAP;

/// Locks an inbox or the ring, recovering from poisoning: both hold
/// plain queues that stay consistent at every point a panic could
/// unwind through.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// The [`Progress`] counters delivery maintains as it releases event
/// batches, shared with the handle. All loads/stores are relaxed: the
/// values are monotone counters read for reporting, not for
/// synchronization (ordering guarantees come from the ring's lock and
/// the drain acknowledgement).
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

/// Delivery state the shard threads and the handle share: an inbox
/// each for finished work, and the re-order ring with the subscribers,
/// held by whichever thread is delivering.
#[derive(Debug)]
struct Delivery {
    /// One inbox per shard, then the handle's.
    inboxes: Box<[Mutex<Releases>]>,
    /// Taken only with `try_lock` while the runtime runs.
    ring: Mutex<Ring>,
    stats: RuntimeStats,
}

impl Delivery {
    /// Appends `releases` to inbox `inbox` (leaving its buffers empty
    /// for reuse) and delivers.
    fn post(&self, inbox: usize, releases: &mut Releases) {
        lock(&self.inboxes[inbox]).append(releases);
        self.deliver();
    }

    /// The handle's inbox, the last one.
    fn handle_inbox(&self) -> MutexGuard<'_, Releases> {
        lock(&self.inboxes[self.inboxes.len() - 1])
    }

    /// Appends a control note to the handle's inbox and delivers.
    fn post_control(&self, control: Control) {
        self.handle_inbox().controls.push(control);
        self.deliver();
    }

    /// Delivers the in-order prefix the inboxes complete, unless another
    /// thread holds the ring: that thread re-checks every inbox after it
    /// unlocks, so what was just posted is delivered either way and
    /// nobody waits. (A poster whose inbox append came after the
    /// holder's re-check of that inbox locked it then, so its
    /// `try_lock` follows the holder's unlock and cannot fail on it.)
    fn deliver(&self) {
        loop {
            match self.ring.try_lock() {
                Ok(mut ring) => ring.combine(&self.inboxes, &self.stats),
                Err(TryLockError::Poisoned(ring)) => {
                    ring.into_inner().combine(&self.inboxes, &self.stats);
                }
                Err(TryLockError::WouldBlock) => return,
            }
            if self.inboxes.iter().all(|inbox| lock(inbox).is_empty()) {
                return;
            }
        }
    }
}

/// The threaded executor: one persistent thread per shard behind a
/// bounded mailbox, and the delivery state they share with the handle.
#[derive(Debug)]
pub(crate) struct Runtime {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    mailboxes: Arc<[Mailbox]>,
    shard_joins: Vec<JoinHandle<()>>,
    delivery: Arc<Delivery>,
    /// The mailbox bound, reported with back-pressure notices.
    capacity: usize,
    /// Next submission sequence number (orders event delivery).
    next_seq: u64,
}

impl Runtime {
    /// Spins up the shard threads over `shards`, with the delivery
    /// counters continuing from `progress` and `released` delivered
    /// check-ins.
    pub(crate) fn start(
        shards: Vec<Shard>,
        capacity: usize,
        progress: Progress,
        released: u64,
    ) -> Result<Self, ServiceError> {
        let stats = RuntimeStats::default();
        stats.add(&progress);
        stats.workers_released.store(released, Ordering::Relaxed);
        let delivery = Arc::new(Delivery {
            inboxes: (0..=shards.len()).map(|_| Mutex::default()).collect(),
            ring: Mutex::default(),
            stats,
        });
        let mailboxes: Arc<[Mailbox]> = shards.iter().map(|_| Mailbox::new(capacity)).collect();
        let mut runtime = Self {
            shard_txs: Vec::with_capacity(shards.len()),
            mailboxes: Arc::clone(&mailboxes),
            shard_joins: Vec::with_capacity(shards.len()),
            delivery: Arc::clone(&delivery),
            capacity,
            next_seq: 0,
        };
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(capacity);
            let rt = ShardRuntime {
                shard,
                shard_id: i,
                delivery: Arc::clone(&delivery),
                released: Releases::default(),
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
        self.delivery.stats.progress()
    }

    /// Whether the runtime was stopped.
    pub(crate) fn is_stopped(&self) -> bool {
        self.shard_txs.is_empty()
    }

    fn live(&self) -> Result<(), ServiceError> {
        if self.is_stopped() {
            return Err(ServiceError::RuntimeStopped("the runtime is shut down"));
        }
        Ok(())
    }

    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Attaches a subscriber; it receives every delivery from its
    /// attachment on.
    pub(crate) fn subscribe(&self) -> Result<EventStream, ServiceError> {
        self.live()?;
        let (sink, stream) = event_channel();
        self.delivery.post_control(Control::Subscribe(sink));
        Ok(stream)
    }

    /// Broadcasts an advisory lifecycle notice (a no-op once stopped).
    pub(crate) fn announce(&self, lifecycle: Lifecycle) {
        if !self.is_stopped() {
            self.delivery.post_control(Control::Announce(lifecycle));
        }
    }

    /// Queues an advisory notice about the submission the caller sends
    /// next, to go out with the next delivery. That submission's own
    /// release delivers it, so the submitter does no delivery work for
    /// it (a no-op once stopped).
    pub(crate) fn announce_with_next(&self, lifecycle: Lifecycle) {
        if !self.is_stopped() {
            self.delivery
                .handle_inbox()
                .controls
                .push(Control::Announce(lifecycle));
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

    /// A control round trip to every shard, replies in shard order: the
    /// requests go out to all shards before the first reply is awaited,
    /// so the shards serve them in parallel. `died` describes a shard
    /// that never answered.
    pub(crate) fn ask<T>(
        &self,
        mut request: impl FnMut(SyncSender<T>) -> ShardMsg,
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
    /// events delivered, then announces [`Lifecycle::Drained`]. A shard
    /// thread that has exited fails the drain within a [`PEER_POLL`].
    pub(crate) fn drain(&mut self) -> Result<(), ServiceError> {
        self.live()?;
        let seq = self.take_seq();
        let (ack, acked) = mpsc::sync_channel(1);
        self.delivery.handle_inbox().dues.push(Due {
            seq,
            what: Pending::Flush { ack },
        });
        self.delivery.deliver();
        let mut waited = Duration::ZERO;
        loop {
            match acked.recv_timeout(PEER_POLL) {
                Ok(()) => return Ok(()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ServiceError::RuntimeStopped("the drain marker was dropped"))
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            if self.mailboxes.iter().any(Mailbox::is_dead) {
                return match acked.try_recv() {
                    Ok(()) => Ok(()),
                    Err(_) => Err(ServiceError::RuntimeStopped("a shard thread exited")),
                };
            }
            waited += PEER_POLL;
            if waited >= DRAIN_TIMEOUT {
                return Err(ServiceError::RuntimeStopped(
                    "drain timed out — a shard is stalled",
                ));
            }
        }
    }

    /// Passes `outcome` through, stopping the runtime first when it is
    /// an error.
    fn stop_on_error<T>(&mut self, outcome: Result<T, ServiceError>) -> Result<T, ServiceError> {
        if outcome.is_err() {
            self.stop().ok();
        }
        outcome
    }

    /// Stops every thread: disconnect the mailboxes (shard threads exit
    /// after finishing their queues) and join them, then deliver what
    /// they left and end the subscribers' streams. Idempotent; a
    /// panicked shard thread is joined with the rest and then reported.
    pub(crate) fn stop(&mut self) -> Result<(), ServiceError> {
        self.shard_txs.clear();
        let mut panicked = false;
        for join in self.shard_joins.drain(..) {
            panicked |= join.join().is_err();
        }
        // Every shard thread has exited, so nothing else holds the ring.
        self.delivery.deliver();
        lock(&self.delivery.ring).subscribers = EventFanout::default();
        if panicked {
            return Err(ServiceError::RuntimeStopped("a shard thread panicked"));
        }
        Ok(())
    }
}

/// The handle's rebalance steps, each one round trip to every shard. A
/// step that fails once tasks have begun to move stops the runtime: the
/// shards and the service's router are out of step then, and the
/// session must not serve from them.
impl Migration for Runtime {
    fn live_xs(&mut self) -> Result<Vec<f64>, ServiceError> {
        let xs = self.ask(
            |reply| ShardMsg::LiveXs { reply },
            "a shard died during rebalance",
        )?;
        Ok(xs.concat())
    }

    fn emigrate(&mut self, router: &ShardRouter) -> Result<Vec<Migrants>, ServiceError> {
        let router = Arc::new(router.clone());
        let emigrants = self.ask(
            |reply| ShardMsg::Emigrate {
                router: Arc::clone(&router),
                reply,
            },
            "a shard died during rebalance",
        );
        self.stop_on_error(emigrants)
    }

    fn immigrate(
        &mut self,
        arrivals: Vec<Migrants>,
        region: BoundingBox,
    ) -> Result<Vec<u64>, ServiceError> {
        let mut arrivals = arrivals.into_iter();
        let loads = self.ask(
            |reply| ShardMsg::Immigrate {
                arrivals: Box::new((arrivals.next().unwrap_or_default(), region)),
                reply,
            },
            "a shard died during rebalance",
        );
        self.stop_on_error(loads)
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
        reply: SyncSender<EngineState>,
    },
    /// Reply with the x coordinates of the shard's live tasks (a
    /// rebalance's plan; only sent quiesced).
    LiveXs {
        /// Where to send them.
        reply: SyncSender<Vec<f64>>,
    },
    /// Split off the tasks `router` places on other shards and reply
    /// with them ([`Shard::emigrate`]; only sent quiesced, between a
    /// drain and any new submissions, so it never interleaves with
    /// in-flight work). The policy instance stays — its regime state
    /// belongs to the shard, not to its task subset.
    Emigrate {
        /// The rebalanced router.
        router: Arc<ShardRouter>,
        /// Where to send the emigrants.
        reply: SyncSender<Migrants>,
    },
    /// Merge in the tasks routed here and re-lay the spatial index
    /// ([`Shard::immigrate`]); always follows an `Emigrate`.
    Immigrate {
        /// The arriving tasks, and the service region the index covers
        /// at least (boxed: a mailbox slot is as large as its largest
        /// message).
        arrivals: Box<(Migrants, BoundingBox)>,
        /// Where to send the shard's live-task count.
        reply: SyncSender<u64>,
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
/// picks and release the ordered event batch (the last committer
/// releases it).
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
    completed: Vec<TaskId>,
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
    delivery: Arc<Delivery>,
    /// Finished submissions not yet handed to delivery.
    released: Releases,
    /// Every shard's mailbox state (this shard's, and its peers' exit
    /// flags for the rendezvous).
    mailboxes: Arc<[Mailbox]>,
    scratch: ProposeScratch,
}

impl ShardRuntime {
    /// Serves an interior worker, writing its events straight into the
    /// release buffer.
    // ltc-lint: hot-path
    fn serve_local(&mut self, seq: u64, w: WorkerId, worker: &Worker) {
        let shard = &mut self.shard;
        self.released
            .worker(seq, w, |events| shard.check_in_local(w, worker, events));
        self.flush_if_full();
    }

    fn release_task(&mut self, seq: u64, task: TaskId) {
        self.released.dues.push(Due {
            seq,
            what: Pending::Task { task },
        });
        self.flush_if_full();
    }

    fn flush_if_full(&mut self) {
        if self.released.dues.len() >= BATCH_CAP {
            self.flush();
        }
    }

    /// Appends the collected releases to this shard's inbox (the buffers
    /// keep their capacity) and delivers what they complete.
    fn flush(&mut self) {
        if !self.released.is_empty() {
            self.delivery.post(self.shard_id, &mut self.released);
        }
    }
}

/// The body of one persistent shard thread: drain the mailbox in order
/// until the handle disconnects it, flushing finished work to delivery
/// before every point where the thread could block.
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
            ShardMsg::Local { seq, w, worker } => rt.serve_local(seq, w, &worker),
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
                rt.release_task(seq, global);
            }
            ShardMsg::Snapshot { reply } => {
                rt.flush();
                reply.send(rt.shard.engine.to_state()).ok();
            }
            ShardMsg::Metrics { reply } => {
                rt.flush();
                reply.send(rt.shard.metrics()).ok();
            }
            ShardMsg::LiveXs { reply } => {
                rt.flush();
                let mut xs = Vec::new();
                rt.shard.live_xs(&mut xs);
                reply.send(xs).ok();
            }
            ShardMsg::Emigrate { router, reply } => {
                rt.flush();
                reply.send(rt.shard.emigrate(rt.shard_id, &router)).ok();
            }
            ShardMsg::Immigrate { arrivals, reply } => {
                rt.flush();
                let (arrivals, region) = *arrivals;
                reply.send(rt.shard.immigrate(&arrivals, region)).ok();
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
            rt.shard.policy.set_global_units(units);
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
    // globally-ordered event batch and releases it. Nobody waits here —
    // a shard may move on to its next mailbox entry immediately
    // (delivery order is restored by the ring's sequence numbers).
    let mut completed = Vec::new();
    for p in &my_picks {
        if rt.shard.engine.commit_candidate(w, p.cand) {
            completed.push(p.cand.task);
        }
    }
    // ltc-lint: allow(L003) commit tally: a poisoned barrier must stop the event batch from shipping, so the panic propagates to the joinable shard thread
    let mut st = rv.state.lock().unwrap();
    st.completed.extend(completed);
    st.committed += 1;
    if st.committed == rv.expected {
        rt.released.worker(seq, w, |events| {
            append_merge_events(w, &st.proposals, &st.completed, events);
        });
        drop(st);
        rt.flush_if_full();
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

/// Work handed to delivery through an inbox: finished submissions with
/// their events laid flat, and the handle's control notes.
#[derive(Debug, Default)]
struct Releases {
    /// Finished submissions, in increasing sequence order: a shard
    /// finishes its mailbox in submission order, and the handle numbers
    /// its drains as it sends them.
    dues: Vec<Due>,
    /// The worker dues' events, back to back in due order.
    events: Vec<Event>,
    /// New subscribers and advisory notices (the handle's inbox only).
    controls: Vec<Control>,
}

impl Releases {
    fn is_empty(&self) -> bool {
        self.dues.is_empty() && self.controls.is_empty()
    }

    /// Moves everything in `other` to the end of this one, leaving
    /// `other`'s buffers empty with their capacity.
    // ltc-lint: hot-path
    fn append(&mut self, other: &mut Releases) {
        self.dues.append(&mut other.dues);
        self.events.append(&mut other.events);
        self.controls.append(&mut other.controls);
    }

    /// Releases worker `w`, submission `seq`, whose events `fill`
    /// appends to the event list.
    // ltc-lint: hot-path
    fn worker(&mut self, seq: u64, w: WorkerId, fill: impl FnOnce(&mut Vec<Event>)) {
        let start = self.events.len();
        fill(&mut self.events);
        let len = self.events.len() - start;
        self.dues.push(Due {
            seq,
            what: Pending::Worker { w, len },
        });
    }
}

/// Submission `seq`'s outcome, delivered in sequence order (exactly one
/// per submitted worker, posted task and drain).
#[derive(Debug)]
struct Due {
    seq: u64,
    what: Pending,
}

/// One submission's outcome, waiting for its turn in submission order.
#[derive(Debug)]
enum Pending {
    /// A served check-in; its events are the next `len` of its inbox's
    /// event list.
    Worker {
        w: WorkerId,
        len: usize,
    },
    Task {
        task: TaskId,
    },
    /// A drain marker: acknowledged once every earlier submission's
    /// events, and the [`Lifecycle::Drained`] notice, are delivered.
    Flush {
        ack: SyncSender<()>,
    },
}

/// A note from the handle, acted on as soon as delivery takes it.
#[derive(Debug)]
enum Control {
    /// A new subscriber, attached before the next delivery.
    Subscribe(EventSink),
    /// An advisory lifecycle notice, delivered with the next batch
    /// (unordered).
    Announce(Lifecycle),
}

/// One inbox's dues that delivery took but could not send yet, because
/// an earlier submission (from another inbox) has not finished.
#[derive(Debug, Default)]
struct Parked {
    dues: VecDeque<Due>,
    /// The worker dues' events, in due order.
    events: VecDeque<Event>,
}

impl Parked {
    /// Whether the oldest due here is submission `seq`.
    fn leads_with(&self, seq: u64) -> bool {
        self.dues.front().is_some_and(|due| due.seq == seq)
    }

    /// Shrinks queues that a long-open window grew, once they emptied.
    fn shrink_if_empty(&mut self) {
        if self.dues.is_empty() {
            self.dues.shrink_to(PARKED_KEEP);
        }
        if self.events.is_empty() {
            self.events.shrink_to(PARKED_KEEP);
        }
    }
}

/// The re-order ring and everything a delivery uses, owned by whichever
/// thread is delivering. Every buffer here keeps its capacity (a parked
/// queue up to [`PARKED_KEEP`]), so re-ordering and delivery allocate
/// nothing once they have grown to the in-flight window.
///
/// Each inbox's dues arrive in sequence order, so re-ordering is a
/// merge: the next submission due is always at the front of one
/// inbox's parked queue, and a queue only ever holds what its inbox
/// finished ahead of the slowest one.
#[derive(Debug, Default)]
struct Ring {
    /// One parked queue per inbox, in inbox order.
    parked: Vec<Parked>,
    /// The next submission to deliver.
    next: u64,
    subscribers: EventFanout,
    /// An inbox's releases, swapped out of it for parking (the inbox
    /// gets this buffer, emptied, in exchange).
    taken: Releases,
    /// The delivery being assembled.
    out: EventBatch,
    /// Drains the delivery covers, acknowledged once it is sent.
    acks: Vec<SyncSender<()>>,
}

impl Ring {
    /// Takes every inbox's releases — the shards' first, so a
    /// subscriber attached before a submission is seen no later than
    /// that submission's release — and delivers the in-order prefix
    /// they complete to every subscriber as one batch (several past
    /// [`DELIVERY_CAP`]), adding it to the counters first. Only the
    /// ring's holder writes the counters.
    // ltc-lint: hot-path
    fn combine(&mut self, inboxes: &[Mutex<Releases>], stats: &RuntimeStats) {
        if self.parked.len() < inboxes.len() {
            self.parked.resize_with(inboxes.len(), Parked::default);
        }
        for (inbox, parked) in inboxes.iter().zip(self.parked.iter_mut()) {
            std::mem::swap(&mut *lock(inbox), &mut self.taken);
            for control in self.taken.controls.drain(..) {
                match control {
                    Control::Subscribe(sink) => self.subscribers.attach(sink),
                    Control::Announce(l) => self.out.push(EventRef::Lifecycle(l)),
                }
            }
            let mut last = parked.dues.back().map(|due| due.seq);
            debug_assert!(
                self.taken.dues.iter().all(|due| {
                    let in_order = last < Some(due.seq);
                    last = Some(due.seq);
                    in_order
                }),
                "an inbox released out of sequence order"
            );
            parked.dues.extend(self.taken.dues.drain(..));
            parked.events.extend(self.taken.events.drain(..));
        }
        let mut progress = Progress::default();
        let mut workers_seen = stats.workers_released.load(Ordering::Relaxed);
        let n = self.parked.len();
        let mut from = 0;
        while let Some(i) = (from..from + n)
            .map(|k| k % n)
            .find(|&i| self.parked[i].leads_with(self.next))
        {
            // The same inbox is likeliest to hold the next one too.
            from = i;
            let parked = &mut self.parked[i];
            let Some(due) = parked.dues.pop_front() else {
                break;
            };
            self.next += 1;
            match due.what {
                Pending::Worker { w, len } => {
                    workers_seen += 1;
                    self.out.push_worker_with(w, |events| {
                        let list = events.list();
                        let start = list.len();
                        list.extend(parked.events.drain(..len));
                        progress.note(&list[start..]);
                        Some(())
                    });
                }
                Pending::Task { task } => self.out.push(EventRef::TaskPosted { task }),
                Pending::Flush { ack } => {
                    self.acks.push(ack);
                    self.out
                        .push(EventRef::Lifecycle(Lifecycle::Drained { workers_seen }));
                }
            }
            if self.out.len() >= DELIVERY_CAP {
                self.subscribers.deliver(&mut self.out);
            }
        }
        for parked in &mut self.parked {
            parked.shrink_if_empty();
        }
        stats.add(&progress);
        stats
            .workers_released
            .store(workers_seen, Ordering::Relaxed);
        self.subscribers.deliver(&mut self.out);
        for ack in self.acks.drain(..) {
            ack.send(()).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProblemParams;
    use crate::service::state::ServiceState;
    use crate::service::ServiceBuilder;
    use crate::service::StreamEvent;
    use ltc_spatial::{BoundingBox, Point};
    use std::num::NonZeroUsize;
    use std::ops::ControlFlow;
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
        let events = runtime.subscribe().unwrap();
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
            let event = events
                .recv_timeout(Duration::from_secs(10))
                .expect("no stall notice within 10 s");
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

    #[test]
    fn a_drain_fails_promptly_when_a_shard_died() {
        let mut runtime = runtime(1, 8);
        // The poison takes a real sequence number, so the drain marker
        // waits behind a submission that will never be released.
        assert_eq!(runtime.take_seq(), 0);
        runtime.send(0, poison()).unwrap();
        let (outcome_tx, outcome_rx) = mpsc::channel();
        // Not a scoped thread: a drain that never returns must fail this
        // test, not hang it.
        std::thread::spawn(move || outcome_tx.send(runtime.drain()));
        let outcome = outcome_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the drain still waits 1 s after its shard died");
        assert!(
            matches!(outcome, Err(ServiceError::RuntimeStopped(_))),
            "a drain over a dead shard returned {outcome:?}"
        );
    }

    /// The handle's rebalance steps, except that shard `victim` dies
    /// between the emigrate and immigrate round trips.
    struct DiesAfterEmigrating<'a> {
        runtime: &'a mut Runtime,
        victim: usize,
    }

    impl Migration for DiesAfterEmigrating<'_> {
        fn live_xs(&mut self) -> Result<Vec<f64>, ServiceError> {
            self.runtime.live_xs()
        }

        fn emigrate(&mut self, router: &ShardRouter) -> Result<Vec<Migrants>, ServiceError> {
            let emigrants = self.runtime.emigrate(router);
            self.runtime.send(self.victim, poison()).unwrap();
            emigrants
        }

        fn immigrate(
            &mut self,
            arrivals: Vec<Migrants>,
            region: BoundingBox,
        ) -> Result<Vec<u64>, ServiceError> {
            self.runtime.immigrate(arrivals, region)
        }
    }

    #[test]
    fn a_rebalance_stops_the_runtime_when_a_shard_dies_mid_migration() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .d_max(10.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
        // Every task on shard 1's side of the default split, so the
        // balanced layout moves about half of them to shard 0.
        let tasks = (0..40)
            .map(|i| Task::new(Point::new(600.0 + 10.0 * i as f64, 500.0)))
            .collect();
        let snapshot = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(2).unwrap())
            .tasks(tasks)
            .genesis()
            .unwrap();
        let (mut state, shards, progress) = ServiceState::restore(snapshot).unwrap();
        let mut runtime = Runtime::start(shards, 8, progress, 0).unwrap();
        let (outcome_tx, outcome_rx) = mpsc::channel();
        // Not a scoped thread: a rebalance that never returns must fail
        // this test, not hang it.
        std::thread::spawn(move || {
            let mut dying = DiesAfterEmigrating {
                runtime: &mut runtime,
                victim: 1,
            };
            let outcome = state.rebalance(&mut dying);
            outcome_tx.send((outcome, runtime)).ok();
        });
        let (outcome, mut runtime) = outcome_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the rebalance still waits 1 s after a shard died mid-migration");
        assert!(
            matches!(outcome, Err(ServiceError::RuntimeStopped(_))),
            "a rebalance over a shard that died mid-migration returned {outcome:?}"
        );
        // Tasks left their shards in a migration that never finished:
        // the session must not serve again.
        assert!(runtime.is_stopped());
        assert!(matches!(
            runtime.send(0, local(0)),
            Err(ServiceError::RuntimeStopped(_))
        ));
        assert!(matches!(
            runtime.drain(),
            Err(ServiceError::RuntimeStopped(_))
        ));
        // What `close` and `Drop` run: already stopped, so it returns at
        // once.
        let closing = Instant::now();
        assert_eq!(runtime.stop(), Ok(()));
        assert!(closing.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn rebalance_messages_do_not_widen_a_mailbox_slot() {
        // A mailbox preallocates its bound in slots of the largest
        // message, so the rare rebalance payloads stay boxed behind the
        // per-check-in messages' size.
        assert!(std::mem::size_of::<ShardMsg>() <= 64);
    }

    #[test]
    fn deliveries_wait_for_the_earliest_unfinished_submission() {
        let mut runtime = runtime(2, 16);
        let events = runtime.subscribe().unwrap();
        // Park shard 0 on a control reply nobody reads yet.
        let (reply_tx, reply_rx) = mpsc::sync_channel(0);
        runtime
            .send(0, ShardMsg::Metrics { reply: reply_tx })
            .unwrap();
        wait_until("shard 0 takes the request", || {
            runtime.mailboxes[0].queued.load(Ordering::SeqCst) == 0
        });
        // Submission 0 queues behind the parked shard; shard 1 finishes
        // every later one.
        let first = runtime.take_seq();
        runtime.send(0, local(first)).unwrap();
        let later = 8;
        for _ in 0..later {
            let seq = runtime.take_seq();
            runtime.send(1, local(seq)).unwrap();
        }
        // A control reply follows a flush, so once shard 1 answers, its
        // releases have been handed to delivery.
        let (reply_1, replied_1) = mpsc::sync_channel(1);
        runtime
            .send(1, ShardMsg::Metrics { reply: reply_1 })
            .unwrap();
        replied_1.recv().unwrap();
        assert_eq!(events.try_recv(), None, "delivered past a gap");
        assert_eq!(runtime.progress(), Progress::default());

        reply_rx.recv().unwrap();
        let delivered: Vec<u64> = (0..=later)
            .map(|_| match events.recv_timeout(Duration::from_secs(10)) {
                Some(StreamEvent::Worker { worker, .. }) => worker.0,
                other => panic!("expected a worker's events, got {other:?}"),
            })
            .collect();
        assert_eq!(delivered, (0..=later as u64).collect::<Vec<_>>());
        assert_eq!(events.try_recv(), None);
    }

    /// Everything `events` holds right now.
    fn buffered(events: &EventStream) -> Vec<StreamEvent> {
        std::iter::from_fn(|| events.try_recv()).collect()
    }

    #[test]
    fn subscribers_see_identical_sequences_and_a_dropped_one_disturbs_nothing() {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(2)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let at = |i: u64| Point::new((i * 37 % 100) as f64, (i * 61 % 100) as f64);
        let mut handle = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(2).unwrap())
            .tasks((0..40).map(|i| Task::new(at(i))).collect())
            .start()
            .unwrap();
        let kept = handle.subscribe().unwrap();
        let dropped = handle.subscribe().unwrap();
        let mut serve = |from: u64| {
            for i in from..from + 200 {
                if i % 10 == 0 {
                    handle.post_task(Task::new(at(i + 7))).unwrap();
                }
                handle.submit_worker(&Worker::new(at(i), 0.9)).unwrap();
            }
            handle.drain().unwrap();
        };
        serve(0);
        let seen = buffered(&kept);
        assert_eq!(seen.len(), 200 + 20 + 1);
        assert_eq!(buffered(&dropped), seen);

        drop(dropped);
        serve(200);
        let workers: Vec<u64> = seen
            .into_iter()
            .chain(buffered(&kept))
            .filter_map(|event| match event {
                StreamEvent::Worker { worker, .. } => Some(worker.0),
                _ => None,
            })
            .collect();
        assert_eq!(workers, (0..400).collect::<Vec<_>>());
        handle.close().unwrap();
    }

    #[test]
    fn a_window_two_shards_hold_open_parks_bounded_storage() {
        // Shard 0 finishes the even submissions, shard 1 the odd ones,
        // and shard 1 stays `LEAD` of its own ahead the whole run, so the
        // re-order window never closes.
        const LEAD: u64 = 100;
        const ROUNDS: u64 = 50_000;
        let delivery = Delivery {
            inboxes: (0..3).map(|_| Mutex::default()).collect(),
            ring: Mutex::default(),
            stats: RuntimeStats::default(),
        };
        let (sink, mut stream) = event_channel();
        delivery.post_control(Control::Subscribe(sink));
        // Submission `seq` yields `seq % 4` events.
        let finish = |releases: &mut Releases, seq: u64| {
            releases.worker(seq, WorkerId(seq), |events| {
                events.extend((0..seq % 4).map(|_| Event::WorkerIdle {
                    worker: WorkerId(seq),
                }));
            });
        };
        let mut releases = Releases::default();
        for r in 0..LEAD {
            finish(&mut releases, 2 * r + 1);
        }
        delivery.post(1, &mut releases);
        let mut next = 0;
        let mut parked_max = 0;
        for r in 0..ROUNDS {
            finish(&mut releases, 2 * r);
            delivery.post(0, &mut releases);
            finish(&mut releases, 2 * (r + LEAD) + 1);
            delivery.post(1, &mut releases);
            let ring = lock(&delivery.ring);
            assert_eq!(ring.parked[1].dues.len() as u64, LEAD, "round {r}");
            let parked: usize = ring
                .parked
                .iter()
                .map(|p| p.dues.capacity() + p.events.capacity())
                .sum();
            parked_max = parked_max.max(parked);
            drop(ring);
            stream.recv_each(Some(Duration::ZERO), |event| {
                match event {
                    EventRef::Worker { worker, events } => {
                        assert_eq!(worker.0, next);
                        assert_eq!(events.len() as u64, next % 4);
                    }
                    other => panic!("expected worker {next}, got {other:?}"),
                }
                next += 1;
                ControlFlow::Continue(())
            });
        }
        assert_eq!(next, 2 * ROUNDS);
        // The window holds `LEAD` dues and at most `3 * LEAD` events; an
        // arena that only reclaimed space once the window closed would
        // have grown with the run instead.
        assert!(
            parked_max <= 8 * LEAD as usize,
            "{parked_max} slots parked for a window of {LEAD}"
        );
    }

    /// The names of this process's threads.
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_owned())
            .collect()
    }

    /// Counts the runtime's threads; only meaningful in a process where
    /// no other test runs, which is how the test below runs it.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "run alone in a child process by a_handle_runs_exactly_one_thread_per_shard"]
    fn runtime_thread_census() {
        let params = ProblemParams::builder().build().unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        for n in [1, 2, 4] {
            let mut handle = ServiceBuilder::new(params, region)
                .shards(NonZeroUsize::new(n).unwrap())
                .start()
                .unwrap();
            // A thread names itself once it runs.
            wait_until("every shard thread is named", || {
                thread_names()
                    .iter()
                    .filter(|t| t.starts_with("ltc-"))
                    .count()
                    >= n
            });
            let names = thread_names();
            let runtime: Vec<&String> = names.iter().filter(|t| t.starts_with("ltc-")).collect();
            assert_eq!(runtime.len(), n, "{n} shard(s) run {runtime:?}");
            assert!(
                runtime.iter().all(|t| t.starts_with("ltc-shard-")),
                "{runtime:?}"
            );
            handle.close().unwrap();
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_handle_runs_exactly_one_thread_per_shard() {
        let census = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "service::runtime::tests::runtime_thread_census",
                "--ignored",
                "--test-threads=1",
            ])
            .output()
            .unwrap();
        let report = String::from_utf8_lossy(&census.stdout);
        assert!(census.status.success(), "{report}");
        assert!(report.contains("1 passed"), "{report}");
    }
}
