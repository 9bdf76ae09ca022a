//! The sharded service layer — the primary public API of the crate.
//!
//! One service state — the configuration, the shard router, each task's
//! owning shard, and the session counters — runs under two executors:
//!
//! * **inline**: [`LtcService`], the **synchronous facade** for
//!   batch/replay work. Every call runs to completion on the caller's
//!   thread, so output is deterministic call by call and `shards = 1` is
//!   bit-identical to driving [`AssignmentEngine`] directly. Built with
//!   [`ServiceBuilder::build`].
//! * **threaded**: [`ServiceHandle`], the **pipelined session API** for
//!   continuous traffic. [`ServiceBuilder::start`] spins up one
//!   persistent thread per shard, each fed by a bounded mailbox, so
//!   [`submit_worker`](ServiceHandle::submit_worker) and
//!   [`post_task`](ServiceHandle::post_task) enqueue and return
//!   immediately (blocking only when a mailbox is full — back-pressure,
//!   surfaced as [`Lifecycle::ShardStalled`]). Results stream to
//!   [`subscribe`](ServiceHandle::subscribe)rs as typed [`StreamEvent`]s
//!   in exact submission order, and explicit lifecycle control —
//!   [`drain`](ServiceHandle::drain), [`snapshot`](ServiceHandle::snapshot)
//!   (quiesces the mailboxes so the versioned `ltc-snapshot v2` format
//!   stays bit-exact mid-stream), [`close`](ServiceHandle::close) —
//!   keeps the session manageable.
//!
//! Both executors are the restore of a [`ServiceSnapshot`]: the builder
//! turns one configuration into one genesis snapshot, and
//! [`LtcService::restore`] / [`ServiceHandle::restore`] run it inline or
//! threaded, so one configuration yields one session under either.
//! Moving a session between executors is the same snapshot → restore.
//! Admission (validating and routing a task post, numbering a check-in
//! and choosing the shards it reaches), snapshots, rebalances and
//! metrics are written once, on the shared state, so the executors
//! cannot drift apart.
//!
//! Both executors commit **identical assignments**: the handle's shard
//! threads process their mailboxes in submission order and synchronize
//! through a rendezvous whenever a decision needs more than one shard,
//! so a pipelined run is event-for-event equal to feeding the same
//! sequence through [`LtcService::check_in`] (both are checked against
//! the bare engine by the conformance harness, `tests/conform/`).
//!
//! ## Sharding model
//!
//! Tasks are partitioned by location into `N` shards using a
//! [`ShardRouter`](ltc_spatial::ShardRouter) striped over the grid tiles
//! of the service region; each shard is a complete [`AssignmentEngine`]
//! over its own task subset, holding each task under its one
//! service-global id, so a shard's candidates, picks and events name
//! tasks the way the service does. A worker check-in touches only the
//! shards whose stripes intersect the worker's eligibility disk (radius
//! `d_max`):
//!
//! * **interior workers** (one stripe) are handled entirely shard-locally
//!   — with `shards = 1` every worker is interior and the service output
//!   is **bit-identical** to the raw engine;
//! * **boundary workers** (stripe-straddling disk) fan out: every
//!   touched shard proposes its policy's picks, each with the key the
//!   policy ranked it by, the proposals are merged and the best `K` are
//!   committed. The merge ranks proposals by **the policy's own key
//!   descending, ties toward the smaller task id** — the order every
//!   policy selects by — so a multi-shard service commits the same
//!   assignments as a single-shard one, for every policy.
//!
//! The spatial layout is **adaptive**: clamp telemetry can trigger
//! exact index regrowth ([`ServiceBuilder::grow_index_after`]) and the
//! stripes can be re-split by live-task mass with exact task migration
//! ([`LtcService::rebalance`] / [`ServiceHandle::rebalance`], called
//! whenever the caller chooses) — both decision-neutral, both durable
//! across snapshots. See `docs/ARCHITECTURE.md`.
//!
//! [`Algorithm::Aam`]'s regime switch reads *global* remaining-unit
//! statistics: a multi-shard service aggregates the per-shard O(1)
//! sum/max on every check-in and injects the global view into the
//! policy, so the `avg ≥ maxRemain` decision is the same one a
//! single-engine AAM would make. Seeded [`Algorithm::Random`] is a
//! stateless keyed hash of the worker's arrival and each task's id, so
//! it needs no per-shard stream and restores from its seed alone.
//! Together with the keyed merge, an N-shard service's decisions equal
//! the bare engine's for every policy (checked by the conformance
//! harness, `tests/conform/`, at 1–5 shards).

mod builder;
mod events;
mod facade;
mod handle;
mod rebalance;
mod runtime;
mod session;
mod shard;
mod state;

pub use builder::ServiceBuilder;
pub use events::{
    Event, EventBatch, EventFanout, EventRef, EventStream, Lifecycle, ServiceMetrics, StreamEvent,
    WorkerEvents,
};
pub use facade::LtcService;
pub use handle::ServiceHandle;
pub use rebalance::{RebalanceOutcome, StripeLayout};
pub use session::{Session, SessionInfo, WindowAck};
pub use state::ServiceSnapshot;

use crate::engine::{AssignmentEngine, Candidate, EngineError};
use crate::model::WorkerId;
use crate::online::{Aam, AamStrategy, Laf, OnlineAlgorithm, Pick, RandomAssign};
use std::fmt;

/// Which online policy the service runs on every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Largest `Acc*` First (paper Algorithm 2).
    Laf,
    /// Average-And-Maximum (paper Algorithm 3). Multi-shard services
    /// aggregate the per-shard worker-unit statistics so the regime
    /// switch sees the global view (at the cost of lockstep dispatch
    /// across shards — see the module docs).
    Aam,
    /// AAM pinned to Largest Gain First (ablation).
    AamLgf,
    /// AAM pinned to Largest Remaining First (ablation).
    AamLrf,
    /// The seeded random baseline ([`RandomAssign`]): a stateless keyed
    /// hash of `(seed, worker arrival, global task id)`, so every shard
    /// count and every restore picks what `RandomAssign::seeded(seed)`
    /// picks on one engine.
    Random {
        /// The hash seed.
        seed: u64,
    },
}

impl Algorithm {
    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Laf => "LAF",
            Algorithm::Aam => "AAM",
            Algorithm::AamLgf => "AAM/LGF-only",
            Algorithm::AamLrf => "AAM/LRF-only",
            Algorithm::Random { .. } => "Random",
        }
    }

    /// Whether the policy's regime switch needs the cross-shard
    /// worker-unit aggregate (only hybrid AAM does).
    pub(crate) fn needs_global_units(self) -> bool {
        matches!(self, Algorithm::Aam)
    }

    /// Instantiates the policy a shard runs: the same on every shard,
    /// with the same seed.
    pub(crate) fn policy(self) -> Policy {
        match self {
            Algorithm::Laf => Policy::Laf(Laf::new()),
            Algorithm::Aam => Policy::Aam(Aam::new()),
            Algorithm::AamLgf => Policy::Aam(Aam::with_strategy(AamStrategy::AlwaysLgf)),
            Algorithm::AamLrf => Policy::Aam(Aam::with_strategy(AamStrategy::AlwaysLrf)),
            Algorithm::Random { seed } => Policy::Random(RandomAssign::seeded(seed)),
        }
    }
}

/// Per-shard policy instance.
#[derive(Debug, Clone)]
pub(crate) enum Policy {
    Laf(Laf),
    Aam(Aam),
    Random(RandomAssign),
}

impl Policy {
    /// Installs the cross-shard worker-unit aggregate on a hybrid AAM
    /// policy (no-op for every other policy).
    pub(crate) fn set_global_units(&mut self, units: (f64, f64)) {
        if let Policy::Aam(p) = self {
            p.set_global_units(Some(units));
        }
    }
}

/// A shard drives its policy like any [`OnlineAlgorithm`]: candidates
/// carry service-global ids, so every policy ranks a shard's tasks
/// exactly as one engine over all tasks would.
impl OnlineAlgorithm for Policy {
    fn name(&self) -> &'static str {
        match self {
            Policy::Laf(p) => p.name(),
            Policy::Aam(p) => p.name(),
            Policy::Random(p) => p.name(),
        }
    }

    fn assign(
        &mut self,
        engine: &AssignmentEngine,
        worker: WorkerId,
        candidates: &[Candidate],
        picks: &mut Vec<Pick>,
    ) {
        match self {
            Policy::Laf(p) => p.assign(engine, worker, candidates, picks),
            Policy::Aam(p) => p.assign(engine, worker, candidates, picks),
            Policy::Random(p) => p.assign(engine, worker, candidates, picks),
        }
    }
}

/// Why an [`LtcService`] / [`ServiceHandle`] operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Invalid [`ProblemParams`](crate::model::ProblemParams).
    Params(crate::model::ParamsError),
    /// A shard engine rejected the operation.
    Engine(EngineError),
    /// Tabular accuracy models cover a closed worker set with global
    /// indices; they require `shards = 1`.
    TabularNeedsSingleShard,
    /// The routing tile size is not strictly positive and finite.
    BadCellSize(f64),
    /// A snapshot is internally inconsistent.
    BadSnapshot(&'static str),
    /// The pipelined runtime stopped serving (a shard thread died, a
    /// mailbox disconnected, or a drain timed out on a stalled shard).
    RuntimeStopped(&'static str),
    /// A [`Session`] transport or persistence layer failed (connection
    /// refused or dropped, protocol violation, version mismatch, a
    /// write-ahead-log append that could not reach disk). Carries the
    /// layer's own description; raised only by wrapping implementations
    /// such as `ltc_proto::LtcClient` and `ltc_durable::DurableHandle`.
    Transport(String),
    /// A multi-session server's session table refused the operation:
    /// unknown or duplicate session name, session capacity reached, the
    /// protected default session, or a session verb against a server
    /// hosting a fixed session set. Raised by `ltc_proto`'s session
    /// table (and surfaced to remote peers as an `err` frame).
    Session(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Params(e) => write!(f, "invalid parameters: {e}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::TabularNeedsSingleShard => write!(
                f,
                "tabular accuracy models index workers globally and require shards = 1"
            ),
            ServiceError::BadCellSize(c) => {
                write!(f, "cell size must be positive and finite, got {c}")
            }
            ServiceError::BadSnapshot(what) => write!(f, "corrupt service snapshot: {what}"),
            ServiceError::RuntimeStopped(what) => write!(f, "service runtime stopped: {what}"),
            ServiceError::Transport(what) => write!(f, "session transport failed: {what}"),
            ServiceError::Session(what) => write!(f, "session table: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}
