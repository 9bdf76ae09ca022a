//! Typed events and the subscription stream of the service layer.

use crate::model::{TaskId, WorkerId};
use std::cell::RefCell;
use std::ops::ControlFlow;
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

/// One delivery on a subscription, borrowed from the [`EventBatch`]
/// that carries it: the allocation-free view of a [`StreamEvent`],
/// handed out by [`EventStream::recv_each`] and [`EventBatch::iter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventRef<'a> {
    /// See [`StreamEvent::Worker`].
    Worker {
        /// The check-in's service-global arrival id.
        worker: WorkerId,
        /// The worker's events, in commit order.
        events: &'a [Event],
    },
    /// See [`StreamEvent::TaskPosted`].
    TaskPosted {
        /// The task's service-global id.
        task: TaskId,
    },
    /// See [`StreamEvent::Lifecycle`].
    Lifecycle(Lifecycle),
}

impl<'a> From<&'a StreamEvent> for EventRef<'a> {
    fn from(event: &'a StreamEvent) -> Self {
        match event {
            StreamEvent::Worker { worker, events } => EventRef::Worker {
                worker: *worker,
                events,
            },
            StreamEvent::TaskPosted { task } => EventRef::TaskPosted { task: *task },
            StreamEvent::Lifecycle(l) => EventRef::Lifecycle(*l),
        }
    }
}

impl From<EventRef<'_>> for StreamEvent {
    /// Copies the delivery out; a worker's events become the one `Vec`
    /// this allocates.
    fn from(event: EventRef<'_>) -> Self {
        match event {
            EventRef::Worker { worker, events } => StreamEvent::Worker {
                worker,
                events: events.to_vec(),
            },
            EventRef::TaskPosted { task } => StreamEvent::TaskPosted { task },
            EventRef::Lifecycle(l) => StreamEvent::Lifecycle(l),
        }
    }
}

/// One delivery of an [`EventBatch`]. A worker's events are the next
/// `len` of the batch's flat event list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Worker { worker: WorkerId, len: usize },
    TaskPosted { task: TaskId },
    Lifecycle(Lifecycle),
}

/// How far a reader has got through an [`EventBatch`].
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    entry: usize,
    event: usize,
}

/// An in-order run of deliveries, held flat: the entries, plus one
/// `Vec<Event>` with every worker entry's events back to back. Events
/// cross threads in these — from the shards through delivery into each
/// stream, and from `ltc-proto`'s socket reader to its subscribers — so
/// a check-in's events get a `Vec` of their own only when a consumer
/// asks for an owned [`StreamEvent`]. Cleared, a batch keeps its
/// capacity for the next run.
///
/// ```
/// use ltc_core::model::{TaskId, WorkerId};
/// use ltc_core::service::{Event, EventBatch, EventRef, StreamEvent};
///
/// let mut batch = EventBatch::new();
/// batch.push(EventRef::TaskPosted { task: TaskId(4) });
/// let worker = WorkerId(0);
/// batch.push_worker_with(worker, |events| {
///     events.push(Event::WorkerIdle { worker });
///     Some(())
/// });
/// assert_eq!(batch.len(), 2);
/// let owned: Vec<StreamEvent> = batch.iter().map(StreamEvent::from).collect();
/// assert_eq!(
///     owned[1],
///     StreamEvent::Worker { worker, events: vec![Event::WorkerIdle { worker }] }
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    entries: Vec<Entry>,
    events: Vec<Event>,
}

/// The events of the worker entry [`EventBatch::push_worker_with`] is
/// appending.
#[derive(Debug)]
pub struct WorkerEvents<'a>(&'a mut Vec<Event>);

impl WorkerEvents<'_> {
    /// Appends one event to the worker's entry.
    // ltc-lint: hot-path
    pub fn push(&mut self, event: Event) {
        self.0.push(event);
    }

    /// The batch's event list, for producers that append to a `Vec`.
    pub(crate) fn list(&mut self) -> &mut Vec<Event> {
        self.0
    }
}

impl Extend<Event> for WorkerEvents<'_> {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        self.0.extend(events);
    }
}

impl EventBatch {
    /// An empty batch; it allocates once something is pushed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of deliveries in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no delivery.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every delivery, keeping the capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.events.clear();
    }

    /// Appends one delivery, copying a worker's events.
    // ltc-lint: hot-path
    pub fn push(&mut self, event: EventRef<'_>) {
        match event {
            EventRef::Worker { worker, events } => {
                self.push_worker_with(worker, |list| {
                    list.extend(events.iter().copied());
                    Some(())
                });
            }
            EventRef::TaskPosted { task } => self.entries.push(Entry::TaskPosted { task }),
            EventRef::Lifecycle(l) => self.entries.push(Entry::Lifecycle(l)),
        }
    }

    /// Appends a worker's delivery whose events `fill` pushes in place.
    /// When `fill` returns `None` the batch is left as it was, so a
    /// decoder can give up half-way through a frame.
    // ltc-lint: hot-path
    pub fn push_worker_with<T>(
        &mut self,
        worker: WorkerId,
        fill: impl FnOnce(&mut WorkerEvents<'_>) -> Option<T>,
    ) -> Option<T> {
        let start = self.events.len();
        let filled = fill(&mut WorkerEvents(&mut self.events));
        if filled.is_some() {
            let len = self.events.len() - start;
            self.entries.push(Entry::Worker { worker, len });
        } else {
            self.events.truncate(start);
        }
        filled
    }

    /// The deliveries, in order.
    pub fn iter(&self) -> impl Iterator<Item = EventRef<'_>> + '_ {
        let mut cursor = Cursor::default();
        std::iter::from_fn(move || self.at(&mut cursor))
    }

    /// The delivery at `cursor`, moving the cursor past it.
    // ltc-lint: hot-path
    fn at(&self, cursor: &mut Cursor) -> Option<EventRef<'_>> {
        let entry = *self.entries.get(cursor.entry)?;
        cursor.entry += 1;
        Some(match entry {
            Entry::Worker { worker, len } => {
                let events = &self.events[cursor.event..cursor.event + len];
                cursor.event += len;
                EventRef::Worker { worker, events }
            }
            Entry::TaskPosted { task } => EventRef::TaskPosted { task },
            Entry::Lifecycle(l) => EventRef::Lifecycle(l),
        })
    }

    /// Empties the batch, keeping room for at most `entries` deliveries
    /// and `events` events.
    fn reset(&mut self, entries: usize, events: usize) {
        self.clear();
        self.entries.shrink_to(entries);
        self.events.shrink_to(events);
    }

    /// Appends every delivery of `other`.
    // ltc-lint: hot-path
    fn append(&mut self, other: &EventBatch) {
        self.entries.extend_from_slice(&other.entries);
        self.events.extend_from_slice(&other.events);
    }
}

/// The room, in deliveries, a delivered or read batch keeps once
/// emptied: a burst that grew it further gives the rest back.
const KEPT_ENTRIES: usize = 256;

/// The room, in events, a delivered or read batch keeps once emptied.
const KEPT_EVENTS: usize = 4 * KEPT_ENTRIES;

/// A stream whose last [`QUIET_REFILLS`] refills each took at most this
/// many deliveries (and [`QUIET_EVENTS`] events) keeps only this much
/// room per buffer.
const QUIET_ENTRIES: usize = 16;

/// See [`QUIET_ENTRIES`].
const QUIET_EVENTS: usize = 4 * QUIET_ENTRIES;

/// See [`QUIET_ENTRIES`].
const QUIET_REFILLS: u32 = 64;

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
    /// Every delivery the stream has not taken yet, in order. The
    /// stream takes it whole and leaves its own emptied batch here in
    /// exchange, so the two buffers take turns.
    pending: EventBatch,
    /// The stream is blocked waiting for a delivery.
    waiting: bool,
    /// The producer is gone: nothing will follow what is pending.
    closed: bool,
    /// The stream is gone: deliveries are refused.
    detached: bool,
}

/// The batch a stream is yielding, and how far it has got.
#[derive(Debug, Default)]
struct Held {
    batch: EventBatch,
    cursor: Cursor,
    /// Refills in a row that took little (see [`QUIET_ENTRIES`]).
    quiet: u32,
}

impl Held {
    // ltc-lint: hot-path
    fn next(&mut self) -> Option<EventRef<'_>> {
        self.batch.at(&mut self.cursor)
    }

    /// Empties the batch, which was read to its end, for the producer
    /// to fill next. It keeps at most [`KEPT_ENTRIES`] deliveries' and
    /// [`KEPT_EVENTS`] events' room, so one burst does not pin its
    /// memory for the rest of the session, and only [`QUIET_ENTRIES`]'
    /// and [`QUIET_EVENTS`]' once the stream's traffic has stayed that
    /// small for [`QUIET_REFILLS`] refills in a row.
    fn reset(&mut self) {
        let batch = &mut self.batch;
        let small = batch.entries.len() <= QUIET_ENTRIES && batch.events.len() <= QUIET_EVENTS;
        self.quiet = if small {
            self.quiet.saturating_add(1)
        } else {
            0
        };
        let (entries, events) = if self.quiet >= QUIET_REFILLS {
            (QUIET_ENTRIES, QUIET_EVENTS)
        } else {
            (KEPT_ENTRIES, KEPT_EVENTS)
        };
        batch.reset(entries, events);
        self.cursor = Cursor::default();
    }
}

/// A subscription to a [`ServiceHandle`](super::ServiceHandle)'s event
/// flow, created by [`subscribe`](super::ServiceHandle::subscribe) (or
/// by an [`EventFanout`], for other [`Session`](super::Session)
/// implementations).
///
/// Receiving is pull-based and never loses events: the producer
/// buffers per-subscriber without bound, so slow consumers trade
/// memory, not correctness. Deliveries collect in one [`EventBatch`]
/// until the stream takes them all at once, handing its emptied batch
/// back for the producer to fill next. Iterate the stream, or poll with
/// [`try_recv`](EventStream::try_recv) /
/// [`recv_timeout`](EventStream::recv_timeout), for owned
/// [`StreamEvent`]s; or borrow the ready deliveries in place with
/// [`recv_each`](EventStream::recv_each), which allocates nothing.
#[derive(Debug)]
pub struct EventStream {
    channel: Arc<Channel>,
    held: RefCell<Held>,
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
    /// Appends a copy of `batch` to what the stream has pending. `false`
    /// once the stream is gone.
    // ltc-lint: hot-path
    fn send(&self, batch: &EventBatch) -> bool {
        let mut queue = lock(&self.0.queue);
        if queue.detached {
            return false;
        }
        queue.pending.append(batch);
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
        queue.pending = EventBatch::default();
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
/// use ltc_core::service::{EventBatch, EventFanout, EventRef, StreamEvent};
///
/// let mut fanout = EventFanout::default();
/// let stream = fanout.subscribe();
/// let mut batch = EventBatch::new();
/// for i in 0..3 {
///     batch.push(EventRef::TaskPosted { task: TaskId(i) });
/// }
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
    /// and empties it for the caller to refill. The batch keeps room
    /// for up to 256 deliveries and 1,024 events; a burst that grew it
    /// further gives the rest back. Streams that were dropped are
    /// detached.
    // ltc-lint: hot-path
    pub fn deliver(&mut self, batch: &mut EventBatch) {
        if batch.is_empty() {
            return;
        }
        self.sinks.retain(|sink| sink.send(batch));
        batch.reset(KEPT_ENTRIES, KEPT_EVENTS);
    }
}

/// How long [`EventStream::refill`] may wait for a batch.
#[derive(Clone, Copy)]
enum Wait {
    No,
    For(Duration),
    Forever,
}

/// What [`EventStream::refill`] found.
enum Refill {
    /// A batch is held.
    Ready,
    /// Nothing was delivered in time; the producer is still there.
    Empty,
    /// The producer is gone and everything delivered was taken.
    Ended,
}

impl EventStream {
    /// Takes everything pending in exchange for the held batch, which
    /// the caller has read to the end, waiting as `wait` allows.
    fn refill(&self, wait: Wait) -> Refill {
        let mut held = self.held.borrow_mut();
        held.reset();
        let channel = &*self.channel;
        let mut queue = lock(&channel.queue);
        let idle = |queue: &mut Queue| queue.pending.is_empty() && !queue.closed;
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
        if !queue.pending.is_empty() {
            std::mem::swap(&mut held.batch, &mut queue.pending);
            Refill::Ready
        } else if queue.closed {
            Refill::Ended
        } else {
            Refill::Empty
        }
    }

    /// The next delivery as an owned event, waiting as `wait` allows.
    fn recv(&self, wait: Wait) -> Option<StreamEvent> {
        loop {
            let next = self.held.borrow_mut().next().map(StreamEvent::from);
            if next.is_some() {
                return next;
            }
            if !matches!(self.refill(wait), Refill::Ready) {
                return None;
            }
        }
    }

    /// Blocks until the next event, or returns `None` once the producer
    /// has shut down and every delivered event was consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.recv(Wait::Forever)
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
        self.recv(Wait::No)
    }

    /// Bounded-blocking receive: waits up to `timeout` for the next
    /// event, `None` on timeout or once the producer has shut down and
    /// the buffer is empty. (The runtime internals pace their own waits
    /// with the same primitive; this is the public handle on it.)
    pub fn recv_timeout(&self, timeout: Duration) -> Option<StreamEvent> {
        self.recv(Wait::For(timeout))
    }

    /// Borrowed receive: waits up to `timeout` (`None`: for as long as
    /// it takes) for a delivery, then hands `f` every delivery that is
    /// ready, in order, without copying or allocating. When `f` returns
    /// [`ControlFlow::Break`] the call ends there; the deliveries after
    /// the one `f` broke on wait for the next receive. Returns how many
    /// deliveries `f` was handed — `Some(0)` when the wait timed out —
    /// or `None` once the producer has shut down and every delivery was
    /// taken.
    ///
    /// ```
    /// use ltc_core::model::TaskId;
    /// use ltc_core::service::{EventBatch, EventFanout, EventRef};
    /// use std::ops::ControlFlow;
    /// use std::time::Duration;
    ///
    /// let mut fanout = EventFanout::default();
    /// let mut stream = fanout.subscribe();
    /// let mut batch = EventBatch::new();
    /// for i in 0..5 {
    ///     batch.push(EventRef::TaskPosted { task: TaskId(i) });
    /// }
    /// fanout.deliver(&mut batch);
    /// // Stop after two; the other three stay for the next call.
    /// let mut seen = Vec::new();
    /// let handed = stream.recv_each(None, |event| {
    ///     if let EventRef::TaskPosted { task } = event {
    ///         seen.push(task);
    ///     }
    ///     if seen.len() == 2 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
    /// });
    /// assert_eq!(handed, Some(2));
    /// assert_eq!(seen, [TaskId(0), TaskId(1)]);
    /// assert_eq!(stream.recv_each(None, |_| ControlFlow::Continue(())), Some(3));
    /// assert_eq!(stream.recv_each(Some(Duration::ZERO), |_| ControlFlow::Continue(())), Some(0));
    /// drop(fanout);
    /// assert_eq!(stream.recv_each(None, |_| ControlFlow::Continue(())), None);
    /// ```
    // ltc-lint: hot-path
    pub fn recv_each(
        &mut self,
        timeout: Option<Duration>,
        mut f: impl FnMut(EventRef<'_>) -> ControlFlow<()>,
    ) -> Option<usize> {
        let mut handed = 0;
        loop {
            let held = self.held.get_mut();
            while let Some(event) = held.next() {
                handed += 1;
                if f(event).is_break() {
                    return Some(handed);
                }
            }
            let wait = match timeout {
                _ if handed > 0 => Wait::No,
                None => Wait::Forever,
                Some(timeout) if timeout.is_zero() => Wait::No,
                Some(timeout) => Wait::For(timeout),
            };
            match self.refill(wait) {
                Refill::Ready => {}
                Refill::Empty => return Some(handed),
                Refill::Ended => return (handed > 0).then_some(handed),
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The capacity `K` the generated worker entries assume: a check-in
    /// carries up to `2K + 1` events.
    const K: usize = 3;

    /// One generated delivery: a worker's entry with 0 to `2K + 1`
    /// events, a task post, or a lifecycle notice.
    fn delivery() -> impl Strategy<Value = StreamEvent> {
        (0u8..5, any::<u64>(), 0usize..=2 * K + 1).prop_map(|(kind, x, n)| match kind {
            0..=2 => {
                let worker = WorkerId(x >> 8);
                let events = (0..n)
                    .map(|i| match (x as usize + i) % 3 {
                        0 => Event::Assigned {
                            worker,
                            task: TaskId(i as u32),
                            acc: (x % 1000) as f64 / 1000.0,
                            gain: i as f64 / 8.0,
                        },
                        1 => Event::TaskCompleted {
                            task: TaskId(x as u32 ^ i as u32),
                            latency: x >> 20,
                        },
                        _ => Event::WorkerIdle { worker },
                    })
                    .collect();
                StreamEvent::Worker { worker, events }
            }
            3 => StreamEvent::TaskPosted {
                task: TaskId(x as u32),
            },
            _ => StreamEvent::Lifecycle(match x % 8 {
                0 => Lifecycle::Drained { workers_seen: x },
                1 => Lifecycle::ShardStalled {
                    shard: (x % 4) as usize,
                    capacity: 64,
                },
                2 => Lifecycle::TaskOutOfRegion {
                    task: TaskId(x as u32),
                },
                3 => Lifecycle::Rebalanced {
                    moved_tasks: x >> 40,
                    max_load: 7,
                    mean_load: 3.5,
                },
                4 => Lifecycle::Checkpointed { seq: x },
                5 => Lifecycle::SessionEvicted,
                _ => Lifecycle::ShuttingDown,
            }),
        })
    }

    /// Reads up to `n` deliveries from `stream` into `got` the way
    /// `mode` picks, never waiting on a delivery that was not made:
    /// `delivered` deliveries were made, and `ended` says the producer
    /// is gone. Returns whether the stream reported its end.
    fn read(
        stream: &mut EventStream,
        mode: u8,
        n: usize,
        got: &mut Vec<StreamEvent>,
        delivered: usize,
        ended: bool,
    ) -> bool {
        for _ in 0..n {
            if !ended && got.len() == delivered {
                return false;
            }
            let next = match mode {
                0 => stream.try_recv(),
                1 => stream.recv_timeout(Duration::from_secs(5)),
                2 => stream.next_event(),
                _ => {
                    // Borrowed: take the rest of this read's share, then
                    // stop early.
                    let mut left = n;
                    let handed = stream.recv_each(Some(Duration::ZERO), |event| {
                        got.push(event.into());
                        left -= 1;
                        if left == 0 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    return handed.is_none();
                }
            };
            match next {
                Some(event) => got.push(event),
                None => return true,
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_receive_yields_exactly_what_was_delivered(
            runs in prop::collection::vec(prop::collection::vec(delivery(), 0..40), 1..12),
            subscribers in 1usize..=3,
            reads in prop::collection::vec((0u8..4, 1usize..60), 1..32),
            dropped_after in 0usize..12,
        ) {
            let mut fanout = EventFanout::default();
            let mut streams: Vec<Option<EventStream>> =
                (0..subscribers).map(|_| Some(fanout.subscribe())).collect();
            let mut got = vec![Vec::new(); subscribers];
            let mut reads = reads.iter().cycle();
            let mut batch = EventBatch::new();
            let mut delivered = 0;
            for (i, run) in runs.iter().enumerate() {
                for event in run {
                    batch.push(event.into());
                }
                fanout.deliver(&mut batch);
                prop_assert!(batch.is_empty());
                delivered += run.len();
                if i == dropped_after && subscribers > 1 {
                    streams[0] = None;
                }
                for (stream, got) in streams.iter_mut().zip(&mut got) {
                    if let Some(stream) = stream {
                        let &(mode, n) = reads.next().unwrap();
                        let ended = read(stream, mode, n, got, delivered, false);
                        prop_assert!(!ended, "a live stream reported its end");
                    }
                }
            }
            drop(fanout);
            let all: Vec<StreamEvent> = runs.concat();
            for (stream, got) in streams.iter_mut().zip(&mut got) {
                match stream {
                    Some(stream) => {
                        while !read(stream, reads.next().unwrap().0, 64, got, delivered, true) {}
                        prop_assert_eq!(&*got, &all[..]);
                        prop_assert_eq!(stream.try_recv(), None);
                    }
                    // A dropped subscriber saw a prefix before it left.
                    None => prop_assert_eq!(&*got, &all[..got.len()]),
                }
            }
        }
    }

    #[test]
    fn a_refused_worker_entry_leaves_the_batch_as_it_was() {
        let mut batch = EventBatch::new();
        batch.push(EventRef::TaskPosted { task: TaskId(1) });
        let before = batch.clone();
        let worker = WorkerId(5);
        let refused = batch.push_worker_with(worker, |events| {
            events.push(Event::WorkerIdle { worker });
            None::<()>
        });
        assert_eq!(refused, None);
        assert_eq!(batch, before);
    }
}
