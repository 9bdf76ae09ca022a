//! The transport-agnostic session abstraction.
//!
//! A [`Session`] is one live conversation with an LTC matching service:
//! workers are submitted, tasks are posted, and the resulting events
//! stream back in exact submission order. The trait deliberately says
//! nothing about *where* the service runs — [`ServiceHandle`] implements
//! it natively over the in-process shard runtime, and `ltc_proto`'s
//! `LtcClient` implements it over a TCP connection to an `ltc serve`
//! process — so callers (the CLI's `stream`/`snapshot`/`resume` flows,
//! bench harnesses, applications) drive `dyn Session` and never care.
//!
//! ## The contract every implementation owes
//!
//! * **Submission order is decision order.** The order in which
//!   [`submit_worker`](Session::submit_worker) /
//!   [`post_task`](Session::post_task) calls return determines the
//!   service-global arrival sequence; the committed assignments are the
//!   ones [`LtcService`](super::LtcService) would produce for that exact
//!   sequence. A remote implementation must therefore assign arrival ids
//!   on the server, in request-arrival order.
//! * **Events arrive in submission order.** A
//!   [`subscribe`](Session::subscribe)d stream delivers
//!   [`StreamEvent::Worker`](super::StreamEvent::Worker) /
//!   [`TaskPosted`](super::StreamEvent::TaskPosted) in exact submission
//!   order with each worker's batch in commit order; advisory
//!   [`Lifecycle`](super::Lifecycle) notices may interleave.
//! * **`drain` is a happens-before barrier.** When
//!   [`drain`](Session::drain) returns, every earlier submission has
//!   been fully processed and its events delivered toward every
//!   subscriber (a transport may still be flushing bytes, but order is
//!   already fixed).
//! * **`snapshot` quiesces first.** The returned
//!   [`ServiceSnapshot`] is bit-exact against the submission prefix —
//!   serializing it yields the same `ltc-snapshot v2` text no matter
//!   which implementation produced it.
//!
//! Together these make transports *differentially testable*: the same
//! submission sequence driven through any implementation must yield the
//! bare engine's events (the conformance harness, `tests/conform/`).

use super::handle::ServiceHandle;
use super::rebalance::RebalanceOutcome;
use super::{Algorithm, EventStream, ServiceError, ServiceMetrics, ServiceSnapshot};
use crate::model::{ProblemParams, Task, TaskId, Worker, WorkerId};

/// Static facts about a [`Session`], fixed when the session (or its
/// remote server) was configured. Cheap to produce — implementations
/// answer from local state, never a round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The online policy the service runs.
    pub algorithm: Algorithm,
    /// Platform parameters (spam threshold, capacity, `d_max`, …).
    pub params: ProblemParams,
    /// Shard count of the backing service.
    pub n_shards: usize,
    /// Tasks the service held when this description was taken.
    pub n_tasks: u64,
}

/// One deferred acknowledgement from a windowed submission (see
/// [`Session::submit_worker_windowed`]): the service-global id the
/// submission was accepted under, delivered when the window slides past
/// it rather than when the submitting call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAck {
    /// A `submit_worker` was accepted under this arrival id.
    Worker(WorkerId),
    /// A `post_task` was accepted under this task id.
    Task(TaskId),
}

/// One live LTC service session, independent of transport. See the
/// module docs for the ordering contract; see
/// [`ServiceHandle`] for the in-process implementation and
/// `ltc_proto::LtcClient` for the remote one.
pub trait Session {
    /// Describes the session: policy, parameters, shard count, task
    /// count at session start.
    fn info(&self) -> SessionInfo;

    /// Enqueues one worker check-in and returns its service-global
    /// arrival id. The worker's events are delivered to subscribers in
    /// submission order; the call may block under back-pressure.
    fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError>;

    /// Posts a task mid-stream; it becomes assignable to every check-in
    /// submitted after it.
    fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError>;

    /// Posts a task together with its table-model accuracy row (one
    /// `Acc(w,t)` column per declared worker). Only meaningful under
    /// [`AccuracyModel::Table`](crate::model::AccuracyModel::Table)
    /// sessions; implementations reject a row whose width disagrees
    /// with the declared worker count exactly as
    /// [`LtcService::post_task_with_accuracies`](super::LtcService::post_task_with_accuracies)
    /// would.
    fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError>;

    /// Requests a submission window of up to `window` in-flight
    /// `submit_worker`/`post_task` operations whose acknowledgements are
    /// deferred (see
    /// [`submit_worker_windowed`](Session::submit_worker_windowed)),
    /// returning the window actually granted. Transports negotiate: a remote session clamps to what
    /// the server advertises. The default implementation — correct for
    /// any in-process session, where a submission *is* its own
    /// acknowledgement — stays lockstep and grants 1.
    fn set_window(&mut self, window: usize) -> Result<usize, ServiceError> {
        let _ = window;
        Ok(1)
    }

    /// Like [`submit_worker`](Session::submit_worker), but under the
    /// granted window the call may return before the submission is
    /// acknowledged: `Ok(None)` means the check-in was sent and its ack
    /// is now in flight; `Ok(Some(ack))` surfaces the *oldest* deferred
    /// acknowledgement (the window was full, so the call stalled until
    /// the window slid — submissions are never reordered). Deferred
    /// outcomes, including errors, surface in submission order here or
    /// at the next [`flush_window`](Session::flush_window). With a
    /// window of 1 this is exactly `submit_worker`.
    fn submit_worker_windowed(
        &mut self,
        worker: &Worker,
    ) -> Result<Option<WindowAck>, ServiceError> {
        self.submit_worker(worker)
            .map(|id| Some(WindowAck::Worker(id)))
    }

    /// The windowed form of [`post_task`](Session::post_task) — same
    /// deferred-acknowledgement contract as
    /// [`submit_worker_windowed`](Session::submit_worker_windowed).
    fn post_task_windowed(&mut self, task: Task) -> Result<Option<WindowAck>, ServiceError> {
        self.post_task(task).map(|id| Some(WindowAck::Task(id)))
    }

    /// Waits for every in-flight windowed submission and returns their
    /// acknowledgements in submission order. A deferred failure stops
    /// the flush and surfaces as the error of the submission that was
    /// refused; remaining in-flight acks are collected by calling again.
    /// Lockstep sessions (the default) have nothing in flight.
    fn flush_window(&mut self) -> Result<Vec<WindowAck>, ServiceError> {
        Ok(Vec::new())
    }

    /// Attaches a subscriber receiving every event produced from now on.
    fn subscribe(&mut self) -> Result<EventStream, ServiceError>;

    /// Blocks until every prior submission is fully processed and its
    /// events delivered (see the module docs for the exact guarantee).
    fn drain(&mut self) -> Result<(), ServiceError>;

    /// Quiesces and extracts the full durable state — bit-exact
    /// mid-stream, identical across implementations.
    fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError>;

    /// Quiesces and re-splits the shard stripes by live-task load.
    /// Decision-neutral; `Ok(None)` means nothing needed to move.
    fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError>;

    /// Live operational counters (assignments, completion, clamp
    /// telemetry, rebalances, per-shard load, latency).
    fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError>;

    /// Ends the session: drains, delivers
    /// [`Lifecycle::ShuttingDown`](super::Lifecycle::ShuttingDown) to
    /// subscribers, and releases the underlying resources (runtime
    /// threads in process, the server-side session over a transport).
    /// Idempotent; afterwards every other operation reports
    /// [`ServiceError::RuntimeStopped`] or a transport error.
    fn shutdown(&mut self) -> Result<(), ServiceError>;

    /// Announces an out-of-band [`Lifecycle`](super::Lifecycle) notice
    /// to this session's subscribers — the hook hosting layers use to
    /// surface their own lifecycle moments (checkpoints, session
    /// eviction) through the session's event stream. Advisory delivery;
    /// the default implementation is a no-op, which is the correct
    /// behavior for implementations with no local subscribers to notify
    /// (a remote client's lifecycle notices originate on the server).
    fn announce_lifecycle(&mut self, _lifecycle: super::Lifecycle) {}
}

impl Session for ServiceHandle {
    fn info(&self) -> SessionInfo {
        SessionInfo {
            algorithm: self.algorithm(),
            params: *self.params(),
            n_shards: self.n_shards(),
            n_tasks: self.n_tasks() as u64,
        }
    }

    fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError> {
        ServiceHandle::submit_worker(self, worker)
    }

    fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        ServiceHandle::post_task(self, task)
    }

    fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        ServiceHandle::post_task_with_accuracies(self, task, accuracies)
    }

    fn subscribe(&mut self) -> Result<EventStream, ServiceError> {
        ServiceHandle::subscribe(self)
    }

    fn drain(&mut self) -> Result<(), ServiceError> {
        ServiceHandle::drain(self)
    }

    fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        ServiceHandle::snapshot(self)
    }

    fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        ServiceHandle::rebalance(self)
    }

    fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError> {
        ServiceHandle::metrics(self)
    }

    fn shutdown(&mut self) -> Result<(), ServiceError> {
        self.close()
    }

    fn announce_lifecycle(&mut self, lifecycle: super::Lifecycle) {
        ServiceHandle::announce_lifecycle(self, lifecycle);
    }
}
