//! The pipelined session API: the threaded executor — the shared
//! service state in front of persistent shard threads.

use super::rebalance::RebalanceOutcome;
use super::runtime::{Rendezvous, Runtime, ShardMsg};
use super::state::{ServiceSnapshot, ServiceState};
use super::{Algorithm, EventStream, Lifecycle, ServiceError, ServiceMetrics};
use crate::model::{ProblemParams, Task, TaskId, Worker, WorkerId};
use ltc_spatial::BoundingBox;
use std::sync::Arc;

/// A live, pipelined LTC service session: persistent per-shard threads
/// behind bounded mailboxes. Created by
/// [`ServiceBuilder::start`](super::ServiceBuilder::start) (fresh) or
/// [`ServiceHandle::restore`] (from a snapshot, e.g. one a
/// [`LtcService`](super::LtcService) took).
///
/// Ingestion ([`submit_worker`](ServiceHandle::submit_worker),
/// [`post_task`](ServiceHandle::post_task)) enqueues and returns
/// immediately; when a shard mailbox is full the call blocks until the
/// shard has drained it to half its bound (back-pressure, announced to
/// subscribers as [`Lifecycle::ShardStalled`]). Results stream to
/// [`subscribe`](ServiceHandle::subscribe)rs in exact submission order,
/// and the committed assignments are **identical** to feeding the same
/// sequence through
/// [`LtcService::check_in`](super::LtcService::check_in) — pipelining
/// changes latency, never decisions (see the `service` module docs).
///
/// Accessors reporting progress ([`n_assignments`](ServiceHandle::n_assignments),
/// [`all_completed`](ServiceHandle::all_completed),
/// [`latency`](ServiceHandle::latency)) reflect *released* events and
/// can lag submissions by the in-flight window; call
/// [`drain`](ServiceHandle::drain) first for exact values.
///
/// ```
/// use ltc_core::model::{ProblemParams, Task, Worker};
/// use ltc_core::service::{Algorithm, ServiceBuilder, StreamEvent};
/// use ltc_spatial::{BoundingBox, Point};
///
/// let params = ProblemParams::builder().epsilon(0.3).capacity(2).build().unwrap();
/// let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
/// let mut handle = ServiceBuilder::new(params, region)
///     .algorithm(Algorithm::Laf)
///     .start()
///     .unwrap();
/// let events = handle.subscribe().unwrap();
///
/// handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
/// for _ in 0..8 {
///     handle.submit_worker(&Worker::new(Point::new(10.5, 10.0), 0.95)).unwrap();
/// }
/// handle.drain().unwrap();
/// assert!(handle.all_completed());
/// let deliveries: Vec<StreamEvent> = std::iter::from_fn(|| events.try_recv()).collect();
/// assert!(!deliveries.is_empty());
/// assert!(handle.latency().is_some());
/// handle.close().unwrap();
/// ```
#[derive(Debug)]
pub struct ServiceHandle {
    state: ServiceState,
    runtime: Runtime,
}

impl ServiceHandle {
    /// Restores a session from a snapshot and starts its runtime (the
    /// pipelined analogue of [`LtcService::restore`](super::LtcService::restore)).
    pub fn restore(snapshot: ServiceSnapshot) -> Result<Self, ServiceError> {
        let (state, shards, progress) = ServiceState::restore(snapshot)?;
        // Every arrival in the snapshot was served before it was taken,
        // so the whole-session delivered count starts at the arrival
        // counter — `Lifecycle::Drained` reports totals consistent with
        // `n_workers_seen`.
        let runtime = Runtime::start(shards, state.mailbox_capacity, progress, state.next_arrival)?;
        Ok(Self { state, runtime })
    }

    /// Platform parameters.
    #[inline]
    pub fn params(&self) -> &ProblemParams {
        &self.state.params
    }

    /// The configured policy.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.state.algorithm
    }

    /// Number of shards (= persistent shard threads).
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.state.n_shards()
    }

    /// The service region the router stripes over.
    #[inline]
    pub fn region(&self) -> BoundingBox {
        self.state.region
    }

    /// Number of tasks posted so far.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.state.n_tasks()
    }

    /// Number of check-ins submitted so far (they may still be in
    /// flight; see [`ServiceHandle::drain`]).
    #[inline]
    pub fn n_workers_seen(&self) -> u64 {
        self.state.next_arrival
    }

    /// Assignments committed and released so far. Lags submissions by
    /// the in-flight window; exact after a [`drain`](ServiceHandle::drain).
    #[inline]
    pub fn n_assignments(&self) -> u64 {
        self.runtime.progress().n_assignments
    }

    /// Whether every posted task has been observed to reach `δ`.
    /// Conservative while work is in flight; exact after a
    /// [`drain`](ServiceHandle::drain).
    pub fn all_completed(&self) -> bool {
        self.state.all_completed(&self.runtime.progress())
    }

    /// The paper's objective — the largest arrival index over recruited
    /// workers — defined once every task completed (exact after a
    /// [`drain`](ServiceHandle::drain)).
    pub fn latency(&self) -> Option<u64> {
        self.state.latency(&self.runtime.progress())
    }

    /// Announces an out-of-band [`Lifecycle`] notice to every
    /// subscriber — the hook by which wrapping layers surface their own
    /// lifecycle moments through the session's event stream (the
    /// `ltc-durable` checkpointer announces
    /// [`Lifecycle::Checkpointed`] this way). Advisory delivery, like
    /// every non-`Drained` lifecycle notice; a no-op after shutdown.
    pub fn announce_lifecycle(&self, lifecycle: Lifecycle) {
        self.runtime.announce(lifecycle);
    }

    /// Enqueues one check-in and returns its service-global arrival id
    /// immediately. The worker's events are delivered to subscribers (in
    /// submission order) once its shard(s) process it. Blocks only when
    /// the target mailbox is full.
    pub fn submit_worker(&mut self, worker: &Worker) -> Result<WorkerId, ServiceError> {
        let arrival = self.state.admit_worker(worker);
        let (w, seq) = (arrival.id, self.runtime.take_seq());
        if let Some(s) = arrival.local_shard() {
            let msg = ShardMsg::Local {
                seq,
                w,
                worker: *worker,
            };
            return self.runtime.send(s, msg).map(|()| w);
        }
        // Cross-shard decision: every participant synchronizes at this
        // worker through a rendezvous. Hybrid AAM involves all shards
        // (the regime aggregate is global); otherwise only the stripes
        // the worker's disk touches.
        let participants = if arrival.hybrid {
            0..=self.state.n_shards() - 1
        } else {
            arrival.reach.clone()
        };
        let k = self.state.params.capacity as usize;
        let rv = Arc::new(Rendezvous::new(k, participants.clone(), arrival.hybrid));
        for s in participants {
            let msg = ShardMsg::Gather {
                seq,
                w,
                worker: *worker,
                propose: arrival.reach.contains(&s),
                rv: Arc::clone(&rv),
            };
            self.runtime.send(s, msg)?;
        }
        Ok(w)
    }

    /// Posts a new task mid-stream, routing it to the shard owning its
    /// tile; it becomes assignable to every check-in submitted after it.
    /// Subscribers observe a [`StreamEvent::TaskPosted`](super::StreamEvent::TaskPosted)
    /// at its position in the submission order, and an out-of-region
    /// location additionally announces [`Lifecycle::TaskOutOfRegion`].
    pub fn post_task(&mut self, task: Task) -> Result<TaskId, ServiceError> {
        self.post_task_inner(task, None)
    }

    /// Posts a task under a tabular accuracy model, appending its
    /// per-worker accuracy row (one entry per table worker).
    pub fn post_task_with_accuracies(
        &mut self,
        task: Task,
        accuracies: &[f64],
    ) -> Result<TaskId, ServiceError> {
        self.post_task_inner(task, Some(accuracies))
    }

    fn post_task_inner(
        &mut self,
        task: Task,
        accuracies: Option<&[f64]>,
    ) -> Result<TaskId, ServiceError> {
        // Admission validates on the caller's thread, so the shard
        // thread's append cannot fail.
        let (s, global) = self.state.admit_post(&task, accuracies)?;
        // Queued before the post is sent, so the post's own release
        // carries the notice out.
        if !self.state.region.contains(task.loc) {
            self.runtime
                .announce_with_next(Lifecycle::TaskOutOfRegion { task: global });
        }
        let msg = ShardMsg::PostTask {
            seq: self.runtime.take_seq(),
            global,
            task,
            accuracies: accuracies.map(<[f64]>::to_vec),
        };
        self.runtime.send(s, msg)?;
        Ok(global)
    }

    /// Attaches a subscriber. It receives every event produced from now
    /// on: per-worker batches and task posts in exact submission order,
    /// plus advisory [`Lifecycle`] notifications. Subscriptions are
    /// buffered without bound, so a slow consumer trades memory, not
    /// correctness.
    ///
    /// ```
    /// use ltc_core::model::{ProblemParams, Task, Worker};
    /// use ltc_core::service::{Event, ServiceBuilder, StreamEvent};
    /// use ltc_spatial::{BoundingBox, Point};
    ///
    /// let params = ProblemParams::builder().epsilon(0.3).capacity(2).build().unwrap();
    /// let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    /// let mut handle = ServiceBuilder::new(params, region).start().unwrap();
    /// let events = handle.subscribe().unwrap();
    ///
    /// let task = handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
    /// let worker = handle
    ///     .submit_worker(&Worker::new(Point::new(10.5, 10.0), 0.95))
    ///     .unwrap();
    /// handle.drain().unwrap(); // everything above is now delivered
    ///
    /// // Deliveries arrive in exact submission order: the post, then
    /// // the check-in's full event batch.
    /// assert_eq!(events.try_recv(), Some(StreamEvent::TaskPosted { task }));
    /// match events.try_recv() {
    ///     Some(StreamEvent::Worker { worker: w, events }) => {
    ///         assert_eq!(w, worker);
    ///         assert!(matches!(events[0], Event::Assigned { .. }));
    ///     }
    ///     other => panic!("expected the worker's batch, got {other:?}"),
    /// }
    /// ```
    pub fn subscribe(&mut self) -> Result<EventStream, ServiceError> {
        self.runtime.subscribe()
    }

    /// Blocks until every submission made so far has been fully
    /// processed and its events delivered, then announces
    /// [`Lifecycle::Drained`]. After a drain the progress accessors are
    /// exact and the mailboxes are empty.
    pub fn drain(&mut self) -> Result<(), ServiceError> {
        self.runtime.drain()
    }

    /// Quiesces the runtime ([`drain`](ServiceHandle::drain)) and
    /// extracts the full durable state — bit-exact even mid-stream,
    /// because every mailbox is empty when the shard states are read.
    /// Serialize it with [`crate::snapshot::write_snapshot`]; the
    /// session keeps running afterwards.
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, ServiceError> {
        self.drain()?;
        let shards = self.runtime.ask(
            |reply| ShardMsg::Snapshot { reply },
            "a shard died during snapshot",
        )?;
        Ok(self.state.snapshot(shards))
    }

    /// Quiesces the runtime and runs a load-aware stripe rebalance: the
    /// same in-place task migration as
    /// [`LtcService::rebalance`](super::LtcService::rebalance), run by
    /// the shard threads in parallel at a drained point — the mailboxes
    /// are empty while tasks move, so the session continues pipelining
    /// immediately with identical decisions and better load placement.
    /// Subscribers observe [`Lifecycle::Rebalanced`] (after the drain's
    /// [`Lifecycle::Drained`]); `Ok(None)` means there was nothing to
    /// move. A shard thread that dies once tasks have begun to move
    /// stops the session ([`ServiceError::RuntimeStopped`]).
    ///
    /// The handle never rebalances on its own — a rebalance implies a
    /// drain, so the caller picks the quiesce points (the CLI's
    /// `stream --rebalance N` does it every `N` check-ins).
    pub fn rebalance(&mut self) -> Result<Option<RebalanceOutcome>, ServiceError> {
        if self.state.n_shards() <= 1 {
            return Ok(None);
        }
        self.drain()?;
        let Some(outcome) = self.state.rebalance(&mut self.runtime)? else {
            return Ok(None);
        };
        self.runtime.announce(Lifecycle::Rebalanced {
            moved_tasks: outcome.moved_tasks,
            max_load: outcome.max_load(),
            mean_load: outcome.mean_load(),
        });
        Ok(Some(outcome))
    }

    /// Live operational counters (the clamp telemetry is read from the
    /// shards with a control round-trip; the rest are the released-event
    /// counters, which lag in-flight work — drain first for exact
    /// values).
    pub fn metrics(&mut self) -> Result<ServiceMetrics, ServiceError> {
        let shards = self.runtime.ask(
            |reply| ShardMsg::Metrics { reply },
            "a shard died during metrics",
        )?;
        Ok(self.state.metrics(&self.runtime.progress(), shards))
    }

    /// Ends the session in place: drains, announces
    /// [`Lifecycle::ShuttingDown`], and stops every runtime thread,
    /// leaving the handle inert (subsequent operations report
    /// [`ServiceError::RuntimeStopped`]). It backs
    /// [`Session::shutdown`](super::Session::shutdown). Dropping a handle
    /// without closing it stops the threads too, without the drain.
    pub fn close(&mut self) -> Result<(), ServiceError> {
        if self.runtime.is_stopped() {
            return Ok(());
        }
        self.drain()?;
        self.runtime.announce(Lifecycle::ShuttingDown);
        self.runtime.stop()
    }
}
