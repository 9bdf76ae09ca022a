//! Typed events and the subscription stream of the service layer.

use crate::model::{TaskId, WorkerId};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// One thing that happened while serving a check-in — the typed
/// replacement for raw assignment batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task was assigned to the arriving worker.
    Assigned {
        /// The recruited worker (service-global arrival id).
        worker: WorkerId,
        /// The assigned task (service-global id).
        task: TaskId,
        /// Predicted accuracy `Acc(w,t)` at assignment time.
        acc: f64,
        /// Quality contribution (`Acc*` under the Hoeffding model) — the
        /// gain the assignment adds toward the task's `δ`.
        gain: f64,
    },
    /// An assignment pushed a task past its completion threshold `δ`.
    TaskCompleted {
        /// The finished task (service-global id).
        task: TaskId,
        /// The paper's per-task latency: the 1-based arrival index of the
        /// completing worker.
        latency: u64,
    },
    /// The worker checked in but nothing was assignable (no eligible
    /// uncompleted task in range).
    WorkerIdle {
        /// The idle worker's arrival id.
        worker: WorkerId,
    },
}

/// Runtime lifecycle notifications delivered to
/// [`ServiceHandle`](super::ServiceHandle) subscribers alongside the
/// per-worker events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifecycle {
    /// A [`drain`](super::ServiceHandle::drain) completed: every
    /// submission made before it has been fully processed and its events
    /// delivered. Ordered exactly after those events.
    Drained {
        /// Check-ins whose events had been delivered when the drain
        /// completed.
        workers_seen: u64,
    },
    /// A submission found a shard mailbox full and is now applying
    /// back-pressure: the submit call blocks until the shard has
    /// drained the mailbox to half its bound, so the submissions after
    /// it go straight in until the mailbox fills again. Announced once
    /// per such stall episode. Delivered promptly, not ordered against
    /// worker events.
    ShardStalled {
        /// The stalled shard.
        shard: usize,
        /// The mailbox bound it hit
        /// ([`ServiceBuilder::mailbox_capacity`](super::ServiceBuilder::mailbox_capacity)).
        capacity: usize,
    },
    /// A task was posted outside the declared service region; it is
    /// served exactly, but routing degrades toward the border stripes.
    /// This is the *region-level* signal, judged against the configured
    /// bounding box at submission; the related *index-level* counter
    /// [`ServiceMetrics::clamped_insertions`] counts actual border-cell
    /// clamps in the shard grids (whose extent rounds up to whole
    /// cells, and which do not exist under unrestricted eligibility),
    /// so the two need not move in lockstep. Delivered promptly, not
    /// ordered against worker events.
    TaskOutOfRegion {
        /// The out-of-region task.
        task: TaskId,
    },
    /// A stripe rebalance completed on a live handle
    /// ([`ServiceHandle::rebalance`](super::ServiceHandle::rebalance)):
    /// the router was re-striped by live-task mass and tasks migrated
    /// between shards at a quiesced point. Decisions are unaffected —
    /// only load placement changed. Ordered exactly after the
    /// [`Lifecycle::Drained`] of the quiesce that preceded it.
    Rebalanced {
        /// Tasks whose owning shard changed.
        moved_tasks: u64,
        /// Heaviest shard's live-task count after the rebalance.
        max_load: u64,
        /// Mean live-task count per shard after the rebalance.
        mean_load: f64,
    },
    /// A durability checkpoint was written: every submission with a
    /// write-ahead-log sequence number below `seq` is now covered by a
    /// persisted snapshot, and the log segments it superseded are
    /// eligible for compaction. Announced by the `ltc-durable` layer
    /// (the core runtime itself never checkpoints) through
    /// [`ServiceHandle::announce_lifecycle`](super::ServiceHandle::announce_lifecycle)
    /// at a drained quiesce point, so it is ordered exactly after the
    /// [`Lifecycle::Drained`] of the quiesce that captured the state.
    Checkpointed {
        /// The first log sequence number *not* covered by the
        /// checkpoint (= records persisted so far).
        seq: u64,
    },
    /// The session is being evicted from a hosting session table (an
    /// idle timeout fired, or a peer closed it by name). Announced by
    /// the hosting layer (`ltc_proto`'s session table) through
    /// [`ServiceHandle::announce_lifecycle`](super::ServiceHandle::announce_lifecycle)
    /// just before the eviction shuts the session down, so subscribers
    /// see it directly before [`Lifecycle::ShuttingDown`]. The session
    /// identity is contextual — every subscriber receives only its own
    /// session's events.
    SessionEvicted,
    /// The handle began shutting down; no further events will follow.
    ShuttingDown,
}

/// One delivery on a [`ServiceHandle`](super::ServiceHandle)
/// subscription.
///
/// `Worker` and `TaskPosted` arrive in **exact submission order**
/// regardless of how many shard threads raced to produce them;
/// [`Lifecycle`] notifications are advisory and arrive promptly (only
/// [`Lifecycle::Drained`] is ordered, directly after the submissions it
/// covers).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Everything that happened serving one submitted check-in, in
    /// commit order (empty never — an unassignable worker yields one
    /// [`Event::WorkerIdle`]).
    Worker {
        /// The check-in's service-global arrival id.
        worker: WorkerId,
        /// The worker's events, exactly as
        /// [`LtcService::check_in`](super::LtcService::check_in) would
        /// have returned them.
        events: Vec<Event>,
    },
    /// A task posted through the handle became assignable.
    TaskPosted {
        /// The task's service-global id.
        task: TaskId,
    },
    /// A runtime lifecycle notification.
    Lifecycle(Lifecycle),
}

/// A subscription to a [`ServiceHandle`](super::ServiceHandle)'s event
/// flow, created by [`subscribe`](super::ServiceHandle::subscribe).
///
/// Receiving is pull-based and never loses events: the runtime buffers
/// per-subscriber without bound, so slow consumers trade memory, not
/// correctness. Iterate it, or poll with
/// [`try_recv`](EventStream::try_recv) /
/// [`recv_timeout`](EventStream::recv_timeout).
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<StreamEvent>,
}

impl EventStream {
    pub(crate) fn new(rx: Receiver<StreamEvent>) -> Self {
        Self { rx }
    }

    /// Wraps a raw receiver as an event stream — the adapter remote
    /// [`Session`](super::Session) implementations use to expose their
    /// transport-delivered events through the same subscription type the
    /// in-process runtime hands out.
    pub fn from_receiver(rx: Receiver<StreamEvent>) -> Self {
        Self::new(rx)
    }

    /// Blocks until the next event, or returns `None` once the runtime
    /// has shut down and every buffered event was consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive: an already-delivered event, or `None` when
    /// nothing is buffered *right now* (the stream may still be live —
    /// use [`next_event`](EventStream::next_event) or
    /// [`recv_timeout`](EventStream::recv_timeout) to wait).
    ///
    /// ```
    /// use ltc_core::model::{ProblemParams, Task, Worker};
    /// use ltc_core::service::{ServiceBuilder, StreamEvent};
    /// use ltc_spatial::{BoundingBox, Point};
    /// use std::time::Duration;
    ///
    /// let params = ProblemParams::builder().epsilon(0.3).capacity(1).build().unwrap();
    /// let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    /// let mut handle = ServiceBuilder::new(params, region).start().unwrap();
    /// let events = handle.subscribe().unwrap();
    /// assert_eq!(events.try_recv(), None); // nothing submitted yet
    ///
    /// let task = handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
    /// handle.submit_worker(&Worker::new(Point::new(10.5, 10.0), 0.95)).unwrap();
    /// handle.drain().unwrap(); // both deliveries are now buffered
    ///
    /// assert_eq!(events.try_recv(), Some(StreamEvent::TaskPosted { task }));
    /// // A bounded wait also works once buffered — it returns at once.
    /// assert!(matches!(
    ///     events.recv_timeout(Duration::from_secs(5)),
    ///     Some(StreamEvent::Worker { .. })
    /// ));
    /// // Only the drain's own lifecycle notice is left.
    /// assert!(matches!(events.try_recv(), Some(StreamEvent::Lifecycle(_))));
    /// assert_eq!(events.try_recv(), None); // buffer empty again
    /// ```
    pub fn try_recv(&self) -> Option<StreamEvent> {
        self.rx.try_recv().ok()
    }

    /// Bounded-blocking receive: waits up to `timeout` for the next
    /// event, `None` on timeout or once the runtime has shut down and
    /// the buffer is empty. (The runtime internals pace their own waits
    /// with the same primitive; this is the public handle on it.)
    pub fn recv_timeout(&self, timeout: Duration) -> Option<StreamEvent> {
        self.rx.recv_timeout(timeout).ok()
    }
}

impl Iterator for EventStream {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        self.next_event()
    }
}

/// Operational counters of a service, shared by the synchronous facade
/// ([`LtcService::metrics`](super::LtcService::metrics)) and the
/// pipelined handle
/// ([`ServiceHandle::metrics`](super::ServiceHandle::metrics)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceMetrics {
    /// Check-ins accepted so far (on a live handle: submitted, which may
    /// run ahead of processed until a drain).
    pub n_workers_seen: u64,
    /// Assignments committed so far.
    pub n_assignments: u64,
    /// Tasks posted so far.
    pub n_tasks: u64,
    /// Tasks that reached their completion threshold `δ`.
    pub n_completed: u64,
    /// Cumulative spatial-index insertions that fell outside the shard
    /// grids' laid-out extent and were clamped into border cells — a
    /// growing count means the region guess under-covers the workload
    /// and lookups are degrading before results do (queries stay
    /// exact). Always zero under unrestricted eligibility (no index);
    /// see [`Lifecycle::TaskOutOfRegion`] for the region-level signal.
    /// Durable: snapshots carry it (per-shard `clamped` groups), and a
    /// rebalance migrates tasks without resetting it.
    pub clamped_insertions: u64,
    /// Stripe rebalances applied since this executor was built or
    /// restored (no-op calls that moved nothing are not counted). An
    /// operational counter: snapshots do not carry it.
    pub rebalances: u64,
    /// Live (uncompleted) task count per shard, in shard order — the
    /// load distribution the rebalancer equalizes. On a live handle the
    /// counts are read at the shards' current mailbox positions; drain
    /// first for values exact w.r.t. every submission.
    pub shard_loads: Vec<u64>,
    /// The paper's objective — the largest arrival index over recruited
    /// workers — once every posted task completed, else `None`. On a
    /// live handle it reflects *released* events; exact after a drain.
    pub latency: Option<u64>,
    /// Records appended to the write-ahead log over the session's
    /// lifetime (equivalently: the next log sequence number). Zero for
    /// sessions running without a durability layer — only the
    /// `ltc-durable` wrapper maintains it.
    pub wal_records: u64,
    /// Durability checkpoints taken over the session's lifetime
    /// (genesis and shutdown checkpoints included). Zero without a
    /// durability layer.
    pub checkpoints: u64,
    /// Sessions the hosting process serves right now. A bare in-process
    /// session reports `1` (itself); a multi-session server substitutes
    /// its session-table count, so local and remote single-session
    /// metrics agree.
    pub sessions_open: u64,
    /// Sessions the hosting process has evicted over its lifetime (idle
    /// timeouts plus explicit closes). Zero outside a session table.
    pub sessions_evicted: u64,
}

impl ServiceMetrics {
    /// Whether every posted task has reached its completion threshold.
    pub fn all_completed(&self) -> bool {
        self.n_completed == self.n_tasks
    }
}
