//! # `ltc` — Latency-oriented Task Completion via Spatial Crowdsourcing
//!
//! A complete, from-scratch Rust implementation of Zeng, Tong, Chen & Zhou,
//! *"Latency-oriented Task Completion via Spatial Crowdsourcing"*
//! (ICDE 2018): the LTC problem model, the offline 7.5-approximation
//! MCF-LTC, the online algorithms LAF and AAM with constant competitive
//! ratios, both evaluation baselines, an exact solver for small instances,
//! workload generators matching the paper's Tables IV and V, and an
//! answer-aggregation simulator validating the Hoeffding quality
//! guarantee end to end.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and adds a [`prelude`].
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`mod@core`] | model + engine + **`LtcService` facade** + all six algorithms |
//! | [`spatial`] | geometry, evicting grid index, shard router, KD-tree, hulls |
//! | [`mcmf`] | min-cost max-flow (SSPA) |
//! | [`proto`] | the `ltc-proto` wire protocol: TCP server + remote client |
//! | [`workload`] | Table IV / Table V dataset generators |
//! | [`sim`] | ground truth, voting, error rates, truth inference |
//!
//! ## The pipelined session API (start here)
//!
//! The primary public API is
//! [`ServiceHandle`](core::service::ServiceHandle), started through
//! [`ServiceBuilder::start`](core::service::ServiceBuilder::start): a
//! live session whose spatial shards run as **persistent threads behind
//! bounded mailboxes**. Ingestion
//! ([`submit_worker`](core::service::ServiceHandle::submit_worker),
//! [`post_task`](core::service::ServiceHandle::post_task)) enqueues and
//! returns immediately; results stream to
//! [`subscribe`](core::service::ServiceHandle::subscribe)rs as typed
//! [`StreamEvent`](core::service::StreamEvent)s in exact submission
//! order; [`drain`](core::service::ServiceHandle::drain) /
//! [`snapshot`](core::service::ServiceHandle::snapshot) /
//! [`close`](core::service::ServiceHandle::close) give lifecycle
//! control, with snapshots quiesced so the wire format stays bit-exact
//! mid-stream. Pipelining never changes decisions: a handle run is
//! event-for-event identical to the synchronous facade fed the same
//! sequence.
//!
//! The spatial layer is **adaptive** under skewed or drifting traffic:
//! [`ServiceBuilder::grow_index_after`](core::service::ServiceBuilder::grow_index_after)
//! rebuckets a shard's grid index over the live tasks once clamp
//! telemetry shows the declared region under-covers the workload, and
//! [`rebalance`](core::service::ServiceHandle::rebalance), called
//! whenever the caller chooses, re-splits the shard stripes by
//! live-task mass and migrates tasks exactly at a quiesced point
//! ([`Lifecycle::Rebalanced`](core::service::Lifecycle)). Both are
//! decision-neutral: assignments stay bit-identical; only telemetry,
//! per-query cost, and load placement change. The full design is in
//! `docs/ARCHITECTURE.md`; the snapshot grammar (which round-trips
//! grown bounds and stripe layouts) in `docs/SNAPSHOT_FORMAT.md`.
//!
//! ```
//! use ltc::prelude::*;
//! use ltc::spatial::BoundingBox;
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
//! // Tasks post at any time; check-ins enqueue without blocking.
//! handle.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
//! for _ in 0..16 {
//!     handle.submit_worker(&Worker::new(Point::new(10.5, 10.0), 0.95)).unwrap();
//! }
//! handle.drain().unwrap();
//!
//! for delivery in std::iter::from_fn(|| events.try_recv()) {
//!     if let StreamEvent::Worker { events, .. } = delivery {
//!         for event in events {
//!             match event {
//!                 Event::Assigned { worker, task, gain, .. } => {
//!                     println!("worker {} -> task {} (+{gain:.2})", worker.0, task.0)
//!                 }
//!                 Event::TaskCompleted { task, latency } => {
//!                     println!("task {} done at arrival {latency}", task.0)
//!                 }
//!                 Event::WorkerIdle { .. } => {}
//!             }
//!         }
//!     }
//! }
//! println!("latency = {} workers", handle.latency().unwrap());
//! assert!(handle.all_completed());
//! handle.close().unwrap();
//! ```
//!
//! The same runtime powers the CLI: `ltc stream --shards N --pipeline D`
//! serves NDJSON events with up to `D` check-ins in flight,
//! `ltc stream --snapshot-out`/`ltc resume` persist and continue a live session
//! bit-exactly, and every policy decides the same at any `--shards`.
//!
//! ## Remote sessions (the `Session` trait and `ltc-proto`)
//!
//! Every session verb lives on the transport-agnostic
//! [`Session`](core::service::Session) trait, which
//! [`ServiceHandle`](core::service::ServiceHandle) implements natively
//! and [`proto::LtcClient`] implements over TCP against an `ltc serve`
//! process ([`proto::LtcServer`]): requesters and workers can be remote
//! processes, with arrival order decided server-side
//! (connection-interleaved), back-pressure and lifecycle events
//! forwarded on the wire, and every float crossing as its IEEE-754 bit
//! pattern — so `ltc stream --connect HOST:PORT` emits **byte-identical
//! NDJSON** to the in-process path and a server-side mid-stream
//! snapshot restores bit-exactly. Grammar and semantics:
//! `docs/PROTOCOL.md`.
//!
//! ## The synchronous facade (batch/replay path)
//!
//! [`LtcService`](core::service::LtcService), built with
//! [`ServiceBuilder::build`](core::service::ServiceBuilder::build),
//! serves the same sharded core call by call on the calling thread —
//! the right tool for deterministic replays, differential tests, and
//! one-shot experiments. With `shards = 1` its output is bit-identical
//! to driving the low-level engine by hand. Both front-ends are the
//! restore of a [`ServiceSnapshot`](core::service::ServiceSnapshot), so
//! a session moves between them mid-stream as snapshot → `restore`.
//!
//! ## Batch quickstart
//!
//! Recorded instances run through [`run_online`](core::online::run_online),
//! a thin driver feeding the engine:
//!
//! ```
//! use ltc::prelude::*;
//!
//! // A small city: 30 tasks, 2 000 check-ins.
//! let instance = CheckinCityConfig::new_york_like().scaled_down(128).generate();
//!
//! // Online arrangement with AAM (Algorithm 3).
//! let outcome = run_online(&instance, &mut Aam::new());
//! assert!(outcome.completed);
//! println!("latency = {} workers", outcome.latency().unwrap());
//!
//! // Validate the quality guarantee empirically.
//! let truth = GroundTruth::random(instance.n_tasks(), 7);
//! let report = simulate(&instance, &outcome.arrangement, &truth, 200, 7);
//! assert!(report.max_task_error_rate() < instance.params().epsilon + 0.05);
//! ```
//!
//! ## Deprecated entry points
//!
//! Hand-wiring [`AssignmentEngine`](core::engine::AssignmentEngine)
//! (`new`/`from_instance` + a `push_worker` loop + a fistful of read
//! accessors) is soft-deprecated as a *front-end*: it remains the
//! supported low-level substrate the service and the offline algorithms
//! run on, but new callers should go through
//! [`ServiceBuilder`](core::service::ServiceBuilder) — it is the only
//! entry point that gets sharding, typed events, pipelining, and
//! snapshotting right by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ltc_core as core;
pub use ltc_mcmf as mcmf;
pub use ltc_proto as proto;
pub use ltc_sim as sim;
pub use ltc_spatial as spatial;
pub use ltc_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use ltc_core::bounds::{latency_lower_bound, latency_upper_bound};
    pub use ltc_core::engine::{AssignmentBatch, AssignmentEngine, Candidate, EngineError};
    pub use ltc_core::model::{
        AccuracyModel, Arrangement, Assignment, Eligibility, Instance, InstanceError,
        ProblemParams, QualityModel, RunOutcome, Task, TaskId, Worker, WorkerId,
    };
    pub use ltc_core::offline::{BaseOff, ExactSolver, McfLtc};
    pub use ltc_core::online::{run_online, Aam, Laf, OnlineAlgorithm, Pick, RandomAssign};
    pub use ltc_core::service::{
        Algorithm, Event, EventStream, Lifecycle, LtcService, ServiceBuilder, ServiceError,
        ServiceHandle, ServiceMetrics, ServiceSnapshot, Session, SessionInfo, StreamEvent,
    };
    pub use ltc_proto::{LtcClient, LtcServer};
    pub use ltc_sim::{simulate, GroundTruth};
    pub use ltc_spatial::{Point, ShardRouter};
    pub use ltc_workload::{AccuracyDistribution, CheckinCityConfig, SyntheticConfig};
}
