//! Service configuration — the one place every deployment knob lives.

use super::facade::LtcService;
use super::handle::ServiceHandle;
use super::{Algorithm, ServiceError, ServiceSnapshot};
use crate::engine::{EngineError, EngineState};
use crate::model::{AccuracyModel, Eligibility, Instance, ProblemParams, Task, TaskId};
use ltc_spatial::{BoundingBox, Point, ShardRouter};
use std::num::NonZeroUsize;

/// Builder for the service layer: [`ServiceBuilder::build`] yields the
/// synchronous [`LtcService`] facade, [`ServiceBuilder::start`] spins up
/// the pipelined [`ServiceHandle`] runtime over the same configuration.
///
/// ```
/// use ltc_core::model::{ProblemParams, Task, Worker};
/// use ltc_core::service::{Algorithm, Event, ServiceBuilder};
/// use ltc_spatial::{BoundingBox, Point};
/// use std::num::NonZeroUsize;
///
/// let params = ProblemParams::builder().epsilon(0.2).capacity(2).build().unwrap();
/// let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
/// let mut service = ServiceBuilder::new(params, region)
///     .algorithm(Algorithm::Aam)
///     .shards(NonZeroUsize::new(2).unwrap())
///     .build()
///     .unwrap();
///
/// service.post_task(Task::new(Point::new(10.0, 10.0))).unwrap();
/// while !service.all_completed() {
///     for event in service.check_in(&Worker::new(Point::new(10.5, 10.0), 0.95)) {
///         if let Event::TaskCompleted { task, latency } = event {
///             println!("task {} done at arrival {latency}", task.0);
///         }
///     }
/// }
/// ```
///
/// Under skewed or drifting traffic, opt into the adaptive spatial
/// layer — index growth when the region guess turns out wrong, and a
/// stripe [`rebalance`](LtcService::rebalance) when one shard absorbs
/// the load (both are exact: the committed assignments never change;
/// see `docs/ARCHITECTURE.md`):
///
/// ```
/// use ltc_core::model::{ProblemParams, Task};
/// use ltc_core::service::{Algorithm, ServiceBuilder};
/// use ltc_spatial::{BoundingBox, Point};
/// use std::num::NonZeroUsize;
///
/// let params = ProblemParams::builder().epsilon(0.25).build().unwrap();
/// let region = BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
/// let mut service = ServiceBuilder::new(params, region)
///     .algorithm(Algorithm::Laf)
///     .shards(NonZeroUsize::new(4).unwrap())
///     .grow_index_after(512)   // rebucket once 512 inserts clamp
///     .build()
///     .unwrap();
///
/// // A task cluster far outside the declared region: served exactly
/// // either way, and the adaptive layer keeps serving it *efficiently*
/// // (rebalancing is column-granular, so the cluster spans many tiles).
/// for i in 0..32 {
///     service.post_task(Task::new(Point::new(5000.0 + i as f64 * 40.0, 500.0))).unwrap();
/// }
/// let outcome = service.rebalance().unwrap().expect("the cluster skews the load");
/// assert!(outcome.moved_tasks > 0);
/// assert!(outcome.max_mean_ratio() <= 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    params: ProblemParams,
    region: BoundingBox,
    algorithm: Algorithm,
    shards: NonZeroUsize,
    mailbox_capacity: usize,
    accuracy: AccuracyModel,
    tasks: Vec<Task>,
    grow_clamps: Option<u64>,
}

impl ServiceBuilder {
    /// Starts a builder over the given service region (the area check-ins
    /// are expected from; out-of-region work is still handled exactly,
    /// only less efficiently) with single-shard LAF defaults.
    pub fn new(params: ProblemParams, region: BoundingBox) -> Self {
        Self {
            params,
            region,
            algorithm: Algorithm::Laf,
            shards: NonZeroUsize::MIN,
            mailbox_capacity: 1024,
            accuracy: AccuracyModel::Sigmoid,
            tasks: Vec::new(),
            grow_clamps: None,
        }
    }

    /// Starts a builder pre-loaded with a batch instance's parameters,
    /// accuracy model, and task set (its recorded workers are *not*
    /// consumed — stream them through [`LtcService::check_in`] or
    /// [`ServiceHandle::submit_worker`]). The region is the tasks'
    /// bounding box.
    pub fn from_instance(instance: &Instance) -> Self {
        let region = BoundingBox::of_points(instance.tasks().iter().map(|t| t.loc))
            .unwrap_or_else(|| BoundingBox::new(Point::ORIGIN, Point::ORIGIN));
        Self {
            accuracy: instance.accuracy_model().clone(),
            tasks: instance.tasks().to_vec(),
            ..Self::new(*instance.params(), region)
        }
    }

    /// Replaces the service region (the one [`ServiceBuilder::new`] or
    /// [`ServiceBuilder::from_instance`] chose). Out-of-region work is
    /// still handled exactly — the region only seeds the routing grid —
    /// so this is a placement hint, not a correctness knob. A session
    /// table uses it to give each hosted session its own region.
    pub fn region(mut self, region: BoundingBox) -> Self {
        self.region = region;
        self
    }

    /// Sets the online policy (default [`Algorithm::Laf`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the shard count (default 1).
    pub fn shards(mut self, shards: NonZeroUsize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets how many pending entries each persistent shard mailbox may
    /// hold before [`ServiceHandle::submit_worker`] /
    /// [`ServiceHandle::post_task`] block (back-pressure, surfaced as
    /// [`Lifecycle::ShardStalled`](super::Lifecycle::ShardStalled));
    /// default 1024, at least 1. A blocked submitter resumes once the
    /// shard has drained its mailbox to half this bound, so each stall
    /// episode is announced once. Snapshots record it.
    pub fn mailbox_capacity(mut self, mailbox_capacity: usize) -> Self {
        self.mailbox_capacity = mailbox_capacity.max(1);
        self
    }

    /// Enables **adaptive spatial-index growth**: a shard whose grid
    /// index clamps `clamped_insertions` more task insertions into its
    /// border cells (since build or the previous growth) rebuilds the
    /// index over bounds covering every live task. Growth is
    /// decision-neutral — queries are exact at any extent, so
    /// assignments are bit-identical with or without it; it only stops
    /// the border buckets from absorbing ever more distance checks when
    /// the declared region under-covers the workload (watch
    /// [`ServiceMetrics::clamped_insertions`](super::ServiceMetrics::clamped_insertions)).
    /// Disabled by default (`0` also disables).
    pub fn grow_index_after(mut self, clamped_insertions: u64) -> Self {
        self.grow_clamps = (clamped_insertions > 0).then_some(clamped_insertions);
        self
    }

    /// Sets the accuracy model (default the paper's Eq. 1 sigmoid).
    /// Tabular models require `shards = 1`.
    pub fn accuracy_model(mut self, accuracy: AccuracyModel) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Seeds the initial task pool (more can be posted later through
    /// [`LtcService::post_task`] / [`ServiceHandle::post_task`]).
    pub fn tasks(mut self, tasks: Vec<Task>) -> Self {
        self.tasks = tasks;
        self
    }

    /// Validates the configuration and builds the synchronous facade.
    pub fn build(self) -> Result<LtcService, ServiceError> {
        LtcService::restore(self.genesis()?)
    }

    /// Validates the configuration and starts the pipelined runtime: one
    /// persistent thread per shard behind bounded mailboxes, and no
    /// other thread: the shards deliver events to subscribers
    /// themselves, in submission order. The returned [`ServiceHandle`]
    /// commits the same assignments the facade would for the same
    /// submission sequence.
    pub fn start(self) -> Result<ServiceHandle, ServiceError> {
        ServiceHandle::restore(self.genesis()?)
    }

    /// Validates the configuration and returns the fresh session's
    /// snapshot: both executors are the restore of it.
    pub(crate) fn genesis(self) -> Result<ServiceSnapshot, ServiceError> {
        self.params.validate().map_err(ServiceError::Params)?;
        let n_shards = self.shards.get();
        if n_shards > 1 && matches!(self.accuracy, AccuracyModel::Table(_)) {
            return Err(ServiceError::TabularNeedsSingleShard);
        }
        if let AccuracyModel::Table(table) = &self.accuracy {
            if table.n_tasks() != self.tasks.len() {
                return Err(ServiceError::Engine(EngineError::CorruptState(
                    "accuracy table rows disagree with the seeded task count",
                )));
            }
        }
        if self.tasks.len() > u32::MAX as usize {
            return Err(ServiceError::Engine(EngineError::TooManyTasks));
        }
        for t in &self.tasks {
            if !t.loc.is_finite() {
                return Err(ServiceError::Engine(EngineError::BadTaskLocation));
            }
        }
        // Routing and index tiles are `d_max` wide, which `validate`
        // already checked is finite and positive.
        let cell_size = self.params.d_max;
        let router = ShardRouter::new(n_shards, cell_size, self.region);

        // Partition the seeded tasks: ids follow the seeded order, and
        // each shard holds its tasks in id order.
        let mut per_shard: Vec<(Vec<TaskId>, Vec<Task>)> = vec![Default::default(); n_shards];
        for (id, task) in self.tasks.iter().enumerate() {
            let s = if n_shards == 1 {
                0
            } else {
                router.shard_of(task.loc)
            };
            per_shard[s].0.push(TaskId(id as u32));
            per_shard[s].1.push(*task);
        }
        let posted = self.tasks.len() as u32;
        let engines = per_shard
            .into_iter()
            .map(|(ids, tasks)| EngineState {
                params: self.params,
                accuracy: self.accuracy.clone(),
                ids,
                s: vec![0.0; tasks.len()],
                tasks,
                next_id: posted,
                next_arrival: 0,
                index_geometry: match self.params.eligibility {
                    Eligibility::WithinRange => Some((cell_size, self.region)),
                    Eligibility::Unrestricted => None,
                },
                clamped_insertions: 0,
                clamp_mark: 0,
            })
            .collect();
        Ok(ServiceSnapshot {
            params: self.params,
            region: self.region,
            algorithm: self.algorithm,
            cell_size,
            batch_capacity: self.mailbox_capacity,
            grow_clamps: self.grow_clamps,
            stripes: None,
            next_arrival: 0,
            posted,
            n_assignments: 0,
            latest_assigned: None,
            engines,
        })
    }
}
