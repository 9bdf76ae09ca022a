//! # Latency-oriented Task Completion (LTC) — core library
//!
//! A from-scratch Rust implementation of the problem model and every
//! algorithm of *"Latency-oriented Task Completion via Spatial
//! Crowdsourcing"* (Zeng, Tong, Chen, Zhou — ICDE 2018).
//!
//! A spatial-crowdsourcing platform holds a set of location-bound binary
//! micro-tasks and a stream of crowd workers who check in one by one. Each
//! worker can answer at most `K` questions; the predicted accuracy of a
//! worker on a task decays with distance (Eq. 1 of the paper). A task is
//! *completed* when the accumulated `Acc* = (2·Acc − 1)²` of its assigned
//! workers reaches `δ = 2·ln(1/ε)` — by Hoeffding's inequality, weighted
//! majority voting then errs with probability below `ε`. The **LTC
//! problem** asks for an arrangement minimizing the *arrival index of the
//! last recruited worker* (the latency to complete all tasks). It is
//! NP-hard.
//!
//! ## Architecture: a pipelined session API over one streaming engine
//!
//! Three layers:
//!
//! * **[`service::ServiceHandle`] — the primary public API.**
//!   [`service::ServiceBuilder::start`] spins up one persistent thread
//!   per spatial shard behind a bounded mailbox:
//!   [`service::ServiceHandle::submit_worker`] and
//!   [`service::ServiceHandle::post_task`] enqueue and return
//!   immediately (a full mailbox applies back-pressure and announces
//!   [`service::Lifecycle::ShardStalled`]), results stream to
//!   [`service::ServiceHandle::subscribe`]rs as typed
//!   [`service::StreamEvent`]s in exact submission order, and
//!   [`service::ServiceHandle::drain`] /
//!   [`service::ServiceHandle::snapshot`] /
//!   [`service::ServiceHandle::close`] give explicit lifecycle
//!   control — the snapshot quiesces the mailboxes first, so the
//!   versioned `ltc-snapshot v2` format (see [`snapshot`]) stays
//!   bit-exact mid-stream.
//!
//! * **[`service::LtcService`] — the synchronous facade** for
//!   batch/replay work: the same sharded core served call by call on the
//!   caller's thread. Pipelining never changes decisions — a handle run
//!   is event-for-event identical to feeding the same sequence through
//!   [`service::LtcService::check_in`], and `shards = 1` is
//!   bit-identical to the raw engine. Both front-ends are the restore of
//!   a [`service::ServiceSnapshot`], so a session moves between them
//!   mid-stream as snapshot → `restore`.
//!
//! * **[`engine::AssignmentEngine`] — the owned, incremental core** each
//!   shard runs. It tracks per-task quality `S`, evicts completed tasks
//!   from its spatial index the moment they reach `δ`, maintains AAM's
//!   worker-unit statistics incrementally, and accepts work
//!   incrementally: [`engine::AssignmentEngine::push_worker`] ingests one
//!   check-in (delegating the choice to a pluggable
//!   [`online::OnlineAlgorithm`]), and
//!   [`engine::AssignmentEngine::add_task`] /
//!   [`engine::AssignmentEngine::add_task_with_accuracies`] post tasks
//!   mid-stream (the latter appends rows to a tabular accuracy model).
//!   Both the online driver ([`online::run_online`]) and the offline
//!   batch algorithms run on the same engine, so candidate enumeration
//!   has one implementation and its cost shrinks as the system makes
//!   progress.
//!
//! Driving the engine by hand as a *front-end* is soft-deprecated: prefer
//! [`service::ServiceBuilder`] for anything user-facing — the engine
//! remains the supported substrate for algorithm implementations and
//! differential tests.
//!
//! Every session verb is also captured by the transport-agnostic
//! [`service::Session`] trait (`submit_worker`, `post_task`,
//! `subscribe`, `drain`, `snapshot`, `rebalance`, `metrics`,
//! `shutdown`): [`service::ServiceHandle`] implements it natively, and
//! the `ltc-proto` crate implements it over TCP (`ltc serve` +
//! `LtcClient`), so callers written against `dyn Session` — the CLI's
//! streaming flows, for instance — drive local and remote services
//! through one code path with identical observable behavior (see
//! `docs/PROTOCOL.md`).
//!
//! The spatial layer **adapts** when the deployment-time region guess
//! meets a skewed or drifting workload:
//! [`service::ServiceBuilder::grow_index_after`] rebuckets a shard's
//! grid index over the live tasks once border-clamp telemetry
//! ([`service::ServiceMetrics::clamped_insertions`]) crosses the
//! threshold, and [`service::LtcService::rebalance`] /
//! [`service::ServiceHandle::rebalance`] (called whenever the caller
//! chooses) re-split the shard
//! stripes by live-task mass, migrating tasks exactly — assignments
//! never change, and a rebalanced layout round-trips through snapshots.
//! See `docs/ARCHITECTURE.md` and `docs/SNAPSHOT_FORMAT.md` in the
//! repository for the full design and wire grammar.
//!
//! ## Algorithms
//!
//! | Scenario | Algorithm | Guarantee | Strategy |
//! |----------|-----------|-----------|----------|
//! | offline  | [`offline::McfLtc`] (Alg. 1) | 7.5-approximation | min-cost-flow batches |
//! | offline  | [`offline::BaseOff`] | — (paper baseline) | fewest-nearby-workers greedy |
//! | offline  | [`offline::ExactSolver`] | optimal (small instances) | branch & bound |
//! | online   | [`online::Laf`] (Alg. 2) | 7.967-competitive | largest `Acc*` first |
//! | online   | [`online::Aam`] (Alg. 3) | 7.738-competitive | LGF/LRF hybrid |
//! | online   | [`online::RandomAssign`] | — (paper baseline) | random eligible tasks |
//!
//! ## Pipelined quickstart
//!
//! Start a session, submit check-ins, read the ordered event stream:
//!
//! ```
//! use ltc_core::model::{ProblemParams, Task, Worker};
//! use ltc_core::service::{Algorithm, Event, ServiceBuilder, StreamEvent};
//! use ltc_spatial::{BoundingBox, Point};
//! use std::num::NonZeroUsize;
//!
//! let params = ProblemParams::builder().epsilon(0.2).capacity(2).build().unwrap();
//! let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
//! let mut handle = ServiceBuilder::new(params, region)
//!     .algorithm(Algorithm::Aam)
//!     .shards(NonZeroUsize::new(2).unwrap())
//!     .start()
//!     .unwrap();
//! let events = handle.subscribe().unwrap();
//!
//! // Tasks and check-ins enqueue without blocking (back-pressure only
//! // when a shard mailbox fills); completed tasks are evicted from the
//! // shard indexes as the stream progresses.
//! handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
//! handle.post_task(Task::new(Point::new(12.0, 9.0))).unwrap();
//! for _ in 0..16 {
//!     handle.submit_worker(&Worker::new(Point::new(11.0, 10.0), 0.95)).unwrap();
//! }
//!
//! handle.drain().unwrap(); // every submission processed & delivered
//! assert!(handle.all_completed());
//! let assigned = std::iter::from_fn(|| events.try_recv())
//!     .filter_map(|e| match e {
//!         StreamEvent::Worker { events, .. } => Some(events),
//!         _ => None,
//!     })
//!     .flatten()
//!     .filter(|e| matches!(e, Event::Assigned { .. }))
//!     .count();
//! assert!(assigned > 0);
//! println!("all tasks done after {} workers", handle.latency().unwrap());
//! # handle.close().unwrap();
//! ```
//!
//! The synchronous facade serves the same core call by call when replay
//! determinism on the calling thread matters more than throughput:
//!
//! ```
//! use ltc_core::model::{ProblemParams, Task, Worker};
//! use ltc_core::service::{Algorithm, ServiceBuilder};
//! use ltc_spatial::{BoundingBox, Point};
//!
//! let params = ProblemParams::builder().epsilon(0.2).capacity(2).build().unwrap();
//! let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
//! let mut service = ServiceBuilder::new(params, region).build().unwrap();
//! service.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
//! while !service.all_completed() {
//!     service.check_in(&Worker::new(Point::new(11.0, 10.0), 0.95));
//! }
//! println!("all tasks done after {} workers", service.latency().unwrap());
//! ```
//!
//! ## Batch quick example
//!
//! ```
//! use ltc_core::model::{Instance, ProblemParams, Task, Worker};
//! use ltc_core::online::{run_online, Aam};
//! use ltc_spatial::Point;
//!
//! let params = ProblemParams::builder()
//!     .epsilon(0.2)
//!     .capacity(2)
//!     .d_max(30.0)
//!     .build()
//!     .unwrap();
//! let tasks = vec![Task::new(Point::new(0.0, 0.0)), Task::new(Point::new(5.0, 5.0))];
//! let workers: Vec<Worker> = (0..40)
//!     .map(|i| Worker::new(Point::new((i % 7) as f64, (i % 5) as f64), 0.9))
//!     .collect();
//! let instance = Instance::new(tasks, workers, params).unwrap();
//!
//! let outcome = ltc_core::online::run_online(&instance, &mut Aam::new());
//! assert!(outcome.completed);
//! println!("all tasks done after {} workers", outcome.latency().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod engine;
pub mod hex;
pub mod metrics;
pub mod model;
pub mod offline;
pub mod online;
pub mod service;
pub mod smallvec;
pub mod snapshot;
pub mod toy;
mod units;

pub use engine::{AssignmentBatch, AssignmentEngine, Candidate, EngineError, EngineState};
pub use model::{
    AccuracyModel, Arrangement, Assignment, Eligibility, Instance, InstanceError, ProblemParams,
    QualityModel, RunOutcome, Task, TaskId, Worker, WorkerId,
};
pub use service::{
    Algorithm, Event, EventStream, Lifecycle, LtcService, ServiceBuilder, ServiceError,
    ServiceHandle, ServiceMetrics, ServiceSnapshot, StreamEvent,
};
pub use smallvec::SmallVec;
