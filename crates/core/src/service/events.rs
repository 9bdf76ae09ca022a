//! Typed events and the subscription stream of the service layer.

use crate::model::{TaskId, WorkerId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// Emptied batch buffers each stream keeps for its producer to refill;
/// any beyond this are freed.
const RECYCLED_BATCHES: usize = 4;

/// A batch buffer that grew past this many events is freed once
/// emptied rather than handed back, so one burst does not pin its
/// memory for the rest of the session.
const RECYCLED_BATCH_CAP: usize = 256;

/// Room a fresh batch buffer starts with, in events, so that later
/// small deliveries coalesce into it while the stream has not taken it
/// yet.
const FRESH_BATCH: usize = 64;

/// Locks a stream's queue, recovering from poisoning: the queue holds
/// plain buffers that stay consistent at every point a panic could
/// unwind through.
fn lock(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one stream and its producer share.
#[derive(Debug, Default)]
struct Channel {
    queue: Mutex<Queue>,
    /// Signalled when a batch arrives or the producer leaves, if the
    /// stream is waiting.
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Queue {
    /// Delivered events the stream has not taken yet, in batches,
    /// oldest first. A delivery that fits in the newest batch's spare
    /// room joins it.
    batches: VecDeque<Vec<StreamEvent>>,
    /// Emptied batch buffers the stream handed back.
    spares: Vec<Vec<StreamEvent>>,
    /// The stream is blocked waiting for a batch.
    waiting: bool,
    /// The producer is gone: no batch will follow those queued.
    closed: bool,
    /// The stream is gone: deliveries are refused.
    detached: bool,
}

/// A subscription to a [`ServiceHandle`](super::ServiceHandle)'s event
/// flow, created by [`subscribe`](super::ServiceHandle::subscribe) (or
/// by an [`EventFanout`], for other [`Session`](super::Session)
/// implementations).
///
/// Receiving is pull-based and never loses events: the producer
/// buffers per-subscriber without bound, so slow consumers trade
/// memory, not correctness. Events arrive in batches — each delivery is
/// an in-order run of events, and deliveries the stream has not taken
/// yet share a batch where they fit — and the stream yields them one at
/// a time, handing each emptied batch buffer back for reuse. Iterate
/// it, or poll with [`try_recv`](EventStream::try_recv) /
/// [`recv_timeout`](EventStream::recv_timeout).
#[derive(Debug)]
pub struct EventStream {
    channel: Arc<Channel>,
    /// The batch being yielded, reversed so `pop` returns the next event.
    held: RefCell<Vec<StreamEvent>>,
}

/// The producer's end of one [`EventStream`].
#[derive(Debug)]
pub(crate) struct EventSink(Arc<Channel>);

/// A connected sink and stream.
pub(crate) fn event_channel() -> (EventSink, EventStream) {
    let channel = Arc::new(Channel::default());
    let stream = EventStream {
        channel: Arc::clone(&channel),
        held: RefCell::default(),
    };
    (EventSink(channel), stream)
}

impl EventSink {
    /// Queues `events` for the stream, moving them out when `last`
    /// (leaving the buffer empty, with its capacity) and cloning them
    /// otherwise. `false` once the stream is gone.
    fn send(&self, events: &mut Vec<StreamEvent>, last: bool) -> bool {
        let mut queue = lock(&self.0.queue);
        if queue.detached {
            return false;
        }
        let n = events.len();
        let fits = queue
            .batches
            .back()
            .is_some_and(|tail| tail.capacity() - tail.len() >= n);
        if !fits {
            let fresh = queue
                .spares
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(n.max(FRESH_BATCH)));
            queue.batches.push_back(fresh);
        }
        let batch = queue
            .batches
            .back_mut()
            .expect("a batch with room for the events is queued");
        if last {
            batch.append(events);
        } else {
            batch.extend_from_slice(events);
        }
        // Woken after the unlock, the stream finds the queue free.
        let waiting = queue.waiting;
        drop(queue);
        if waiting {
            self.0.ready.notify_one();
        }
        true
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        let mut queue = lock(&self.0.queue);
        queue.closed = true;
        let waiting = queue.waiting;
        drop(queue);
        if waiting {
            self.0.ready.notify_one();
        }
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        let mut queue = lock(&self.channel.queue);
        queue.detached = true;
        queue.batches.clear();
        queue.spares.clear();
    }
}

/// The delivering end of any number of [`EventStream`]s: every stream
/// receives every batch, in delivery order. The in-process runtime
/// delivers through one, and so does a remote
/// [`Session`](super::Session) whose transport reader decodes events.
/// Dropping it ends the streams once they have yielded what was
/// delivered.
///
/// ```
/// use ltc_core::model::TaskId;
/// use ltc_core::service::{EventFanout, StreamEvent};
///
/// let mut fanout = EventFanout::default();
/// let stream = fanout.subscribe();
/// let mut batch: Vec<StreamEvent> = (0..3)
///     .map(|i| StreamEvent::TaskPosted { task: TaskId(i) })
///     .collect();
/// fanout.deliver(&mut batch);
/// assert!(batch.is_empty()); // ready to be refilled
/// drop(fanout);
/// let got: Vec<StreamEvent> = stream.collect();
/// assert_eq!(got.len(), 3);
/// assert_eq!(got[2], StreamEvent::TaskPosted { task: TaskId(2) });
/// ```
#[derive(Debug, Default)]
pub struct EventFanout {
    sinks: Vec<EventSink>,
}

impl EventFanout {
    /// Attaches a new stream. It receives every batch delivered from
    /// now on.
    pub fn subscribe(&mut self) -> EventStream {
        let (sink, stream) = event_channel();
        self.attach(sink);
        stream
    }

    pub(crate) fn attach(&mut self, sink: EventSink) {
        self.sinks.push(sink);
    }

    /// Delivers `batch` to every attached stream as one in-order run
    /// and empties it, keeping its capacity for the caller to refill:
    /// each stream but the last receives copies, the last the events
    /// themselves. Streams that were dropped are detached.
    pub fn deliver(&mut self, batch: &mut Vec<StreamEvent>) {
        if batch.is_empty() {
            return;
        }
        let mut i = 0;
        while i + 1 < self.sinks.len() {
            if self.sinks[i].send(batch, false) {
                i += 1;
            } else {
                self.sinks.remove(i);
            }
        }
        if self
            .sinks
            .last()
            .is_some_and(|last| !last.send(batch, true))
        {
            self.sinks.pop();
        }
        batch.clear();
    }
}

/// How long [`EventStream::take`] may wait for a batch.
#[derive(Clone, Copy)]
enum Wait {
    No,
    For(Duration),
    Forever,
}

impl EventStream {
    /// The next event of the batch being yielded.
    fn pop(&self) -> Option<StreamEvent> {
        self.held.borrow_mut().pop()
    }

    /// Hands the emptied batch back and takes the next one, waiting as
    /// `wait` allows, then yields its first event.
    fn take(&self, wait: Wait) -> Option<StreamEvent> {
        let channel = &*self.channel;
        let mut queue = lock(&channel.queue);
        let emptied = std::mem::take(&mut *self.held.borrow_mut());
        if emptied.capacity() > 0
            && emptied.capacity() <= RECYCLED_BATCH_CAP
            && queue.spares.len() < RECYCLED_BATCHES
        {
            queue.spares.push(emptied);
        }
        let idle = |queue: &mut Queue| queue.batches.is_empty() && !queue.closed;
        if !matches!(wait, Wait::No) && idle(&mut queue) {
            queue.waiting = true;
            queue = match wait {
                Wait::No => queue,
                Wait::For(timeout) => {
                    channel
                        .ready
                        .wait_timeout_while(queue, timeout, idle)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                Wait::Forever => channel
                    .ready
                    .wait_while(queue, idle)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            queue.waiting = false;
        }
        let mut batch = queue.batches.pop_front()?;
        drop(queue);
        batch.reverse();
        *self.held.borrow_mut() = batch;
        self.pop()
    }

    /// Blocks until the next event, or returns `None` once the producer
    /// has shut down and every delivered event was consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.pop().or_else(|| self.take(Wait::Forever))
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
        self.pop().or_else(|| self.take(Wait::No))
    }

    /// Bounded-blocking receive: waits up to `timeout` for the next
    /// event, `None` on timeout or once the producer has shut down and
    /// the buffer is empty. (The runtime internals pace their own waits
    /// with the same primitive; this is the public handle on it.)
    pub fn recv_timeout(&self, timeout: Duration) -> Option<StreamEvent> {
        self.pop().or_else(|| self.take(Wait::For(timeout)))
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
