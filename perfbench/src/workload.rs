//! The workloads as deterministic op sequences, and the bare-engine
//! replay every run's output is checked against.

use crate::stats::Fnv;
use ltc_core::engine::AssignmentEngine;
use ltc_core::model::{ProblemParams, Task, Worker};
use ltc_core::online::{Aam, Laf, OnlineAlgorithm};
use ltc_core::service::{Algorithm, Event, ServiceBuilder, ServiceSnapshot, StreamEvent};
use ltc_proto::wire::{self, Request, Response};
use ltc_spatial::{BoundingBox, Point};
use ltc_workload::{DriftEvent, HotspotDriftConfig, SyntheticConfig};
use std::num::NonZeroUsize;
use std::time::Instant;

/// The session layer a workload's end-to-end phases run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// In-process `ServiceHandle`.
    Service,
    /// `DurableHandle` over a `ServiceHandle`, `ltc serve --wal` defaults.
    Durable,
    /// `LtcClient` (v2) to an in-process `LtcServer` on loopback.
    Remote,
}

/// One submission, in arrival order.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    CheckIn(Worker),
    Post(Task),
    /// An explicit stripe rebalance (decision-neutral; the engine replay
    /// skips it).
    Rebalance,
}

/// Check-in counts of the three phases of one session, and the hotspot's
/// rebalance cadence.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warmup: usize,
    pub closed: usize,
    pub open: usize,
    /// Posts between two rebalances (`ltc stream --rebalance N`; 0 for
    /// none). Only the hotspot workload rebalances.
    pub rebalance_every: usize,
}

/// A fully generated workload: service configuration, preloaded tasks,
/// and the op sequence split into warm-up, closed-loop and open-loop
/// phases.
pub struct Plan {
    pub name: String,
    pub layer: Layer,
    pub params: ProblemParams,
    pub region: BoundingBox,
    pub algorithm: Algorithm,
    pub shards: usize,
    pub grow_index_after: u64,
    pub preload: Vec<Task>,
    pub ops: Vec<Op>,
    /// First op of the closed-loop phase.
    pub closed_from: usize,
    /// First op of the open-loop phase.
    pub open_from: usize,
}

/// Posts one uniform task per this many check-ins (settles near 690 live
/// tasks).
const UNIFORM_CHECKINS_PER_POST: usize = 5;
/// Clamped insertions after which a hotspot shard regrows its index.
const HOTSPOT_GROW_INDEX_AFTER: u64 = 512;

impl Plan {
    /// Generates workload `name` with the given phase sizes. Its
    /// generator runs on `gen_seed + seed`.
    pub fn generate(name: &str, gen_seed: u64, seed: u64, sizes: Sizes) -> Result<Plan, String> {
        let n = sizes.warmup + sizes.closed + sizes.open;
        let (layer, params, region, algorithm, shards, grow, preload, ops) = match name {
            "uniform-remote" => {
                let posts = n / UNIFORM_CHECKINS_PER_POST;
                let preload = SyntheticConfig::default().n_tasks;
                let cfg = SyntheticConfig {
                    n_tasks: preload + posts,
                    n_workers: n,
                    seed: gen_seed.wrapping_add(seed),
                    ..SyntheticConfig::default()
                };
                let inst = cfg.generate();
                let mut tasks = inst.tasks()[preload..].iter();
                let mut ops = Vec::with_capacity(n + posts);
                for (i, w) in inst.workers().iter().enumerate() {
                    ops.push(Op::CheckIn(*w));
                    if i % UNIFORM_CHECKINS_PER_POST == UNIFORM_CHECKINS_PER_POST - 1 {
                        ops.extend(tasks.next().map(|t| Op::Post(*t)));
                    }
                }
                let side = Point::new(cfg.grid_size, cfg.grid_size);
                (
                    Layer::Remote,
                    *inst.params(),
                    BoundingBox::new(Point::ORIGIN, side),
                    Algorithm::Laf,
                    1,
                    0,
                    inst.tasks()[..preload].to_vec(),
                    ops,
                )
            }
            "hotspot-sharded" => {
                let defaults = HotspotDriftConfig::default();
                // The hotspot finishes drifting early in the warm-up, so the
                // measured phases see the settled hotspot: while it drifts,
                // the tasks it leaves behind pile up as a growing live pool,
                // which levels off a few thousand check-ins after it stops.
                let cfg = HotspotDriftConfig {
                    n_posts: n.div_ceil(defaults.checkins_per_post),
                    drift_fraction: 0.8 * sizes.warmup as f64 / n as f64,
                    seed: gen_seed.wrapping_add(seed),
                    ..defaults
                };
                let mut ops = Vec::new();
                let (mut checkins, mut posts) = (0, 0);
                for event in cfg.events() {
                    match event {
                        DriftEvent::Post(t) => {
                            ops.push(Op::Post(t));
                            posts += 1;
                            // No rebalances in the open loop: each one
                            // quiesces the pipeline for ~10 ms, which
                            // delays every open-loop check-in due
                            // meanwhile.
                            if sizes.rebalance_every > 0
                                && posts % sizes.rebalance_every == 0
                                && checkins < sizes.warmup + sizes.closed
                            {
                                ops.push(Op::Rebalance);
                            }
                        }
                        DriftEvent::CheckIn(w) if checkins < n => {
                            ops.push(Op::CheckIn(w));
                            checkins += 1;
                        }
                        DriftEvent::CheckIn(_) => {}
                    }
                }
                (
                    Layer::Service,
                    cfg.params(),
                    cfg.declared,
                    Algorithm::Laf,
                    2,
                    HOTSPOT_GROW_INDEX_AFTER,
                    Vec::new(),
                    ops,
                )
            }
            other => return Err(format!("unknown workload `{other}`")),
        };
        let checkin_op = |k: usize| {
            ops.iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, Op::CheckIn(_)))
                .nth(k)
                .map_or(ops.len(), |(i, _)| i)
        };
        let closed_from = checkin_op(sizes.warmup);
        let open_from = checkin_op(sizes.warmup + sizes.closed);
        Ok(Plan {
            name: name.to_string(),
            layer,
            params,
            region,
            algorithm,
            shards,
            grow_index_after: grow,
            preload,
            ops,
            closed_from,
            open_from,
        })
    }

    /// The state every measured session starts from: the warm-up ops
    /// applied to a fresh service through the synchronous facade. (Making
    /// each session warm itself up would cost tens of thousands of ops per
    /// session; under the durable rung, checkpoints that grow with
    /// history.)
    pub fn warm_state(&self) -> Result<ServiceSnapshot, String> {
        let mut service = self.builder().build().map_err(|e| e.to_string())?;
        for op in &self.ops[..self.closed_from] {
            match op {
                Op::CheckIn(w) => {
                    service.check_in(w);
                }
                Op::Post(t) => {
                    service.post_task(*t).map_err(|e| e.to_string())?;
                }
                Op::Rebalance => {
                    service.rebalance().map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(service.snapshot())
    }

    /// The service configuration every layer of this workload starts from.
    pub fn builder(&self) -> ServiceBuilder {
        ServiceBuilder::new(self.params, self.region)
            .algorithm(self.algorithm)
            .shards(NonZeroUsize::new(self.shards).expect("shard counts are positive"))
            .grow_index_after(self.grow_index_after)
            .tasks(self.preload.clone())
    }

    /// Check-ins among `ops[range]`.
    pub fn checkins(&self, range: std::ops::Range<usize>) -> usize {
        self.ops[range]
            .iter()
            .filter(|op| matches!(op, Op::CheckIn(_)))
            .count()
    }
}

/// Folds one check-in's events into the output digest. The service,
/// durable and remote layers must reproduce the engine's digest exactly.
pub fn digest_events(digest: &mut Fnv, events: &[Event]) {
    for e in events {
        match *e {
            Event::Assigned {
                worker,
                task,
                acc,
                gain,
            } => {
                digest.word(1);
                digest.word(worker.0);
                digest.word(u64::from(task.0));
                digest.word(acc.to_bits());
                digest.word(gain.to_bits());
            }
            Event::TaskCompleted { task, latency } => {
                digest.word(2);
                digest.word(u64::from(task.0));
                digest.word(latency);
            }
            Event::WorkerIdle { worker } => {
                digest.word(3);
                digest.word(worker.0);
            }
        }
    }
}

/// What the bare-engine replay of a plan produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Output digest of the closed-loop phase's ops (sessions start from
    /// the warm state, so digests start there too).
    pub digest_closed: u64,
    /// Output digest of the closed- and open-loop phases' ops.
    pub digest_all: u64,
    /// Check-ins between each completed task's post and the check-in
    /// that completed it (the paper's per-task latency in a stream).
    pub task_waits: Vec<f64>,
    /// Closed-loop phase only: engine call time, counts, allocations.
    pub closed_checkins: u64,
    pub push_ns: u64,
    pub ops_ns: u64,
    pub assignments: u64,
    pub idle: u64,
    pub live_sum: f64,
    pub allocs: u64,
    /// Live-task means over the first and last quarter of the closed
    /// phase (a growing pool would make the second larger).
    pub live_first_quarter: f64,
    pub live_last_quarter: f64,
    /// `ltc-proto v2` bytes of the closed phase's check-in and post
    /// frames, their acks, and their event frames.
    pub bytes_up: u64,
    pub bytes_down: u64,
    /// `ltc-wal` text bytes of the closed phase's ops.
    pub wal_bytes: u64,
}

/// Replays the plan through a bare `AssignmentEngine` on the caller's
/// thread. With `trace`, every closed-phase engine call is timed and the
/// wire/WAL encodings are measured (outside the timed spans).
pub fn replay(plan: &Plan, trace: bool) -> Replay {
    let mut engine =
        AssignmentEngine::new(plan.params, plan.region).expect("workload parameters are valid");
    let mut policy: Box<dyn OnlineAlgorithm> = match plan.algorithm {
        Algorithm::Aam => Box::new(Aam::new()),
        _ => Box::new(Laf::new()),
    };
    // Check-ins seen before each task was posted (0 for the preload).
    let mut posted_at: Vec<u64> = Vec::with_capacity(plan.preload.len() + plan.ops.len());
    for t in &plan.preload {
        engine.add_task(*t).expect("generated tasks are valid");
        posted_at.push(0);
    }
    let mut out = Replay::default();
    let mut digest = Fnv::new();
    let mut events = Vec::new();
    let mut seen = 0u64;
    let quarter = (plan.checkins(plan.closed_from..plan.open_from) / 4).max(1) as u64;
    let (mut first_q, mut last_q) = (0.0, 0.0);
    for (i, op) in plan.ops.iter().enumerate() {
        if i == plan.open_from {
            out.digest_closed = digest.finish();
        }
        let closed = (plan.closed_from..plan.open_from).contains(&i);
        let timed = trace && closed;
        // Sequence number of the op in a session's log and window.
        let seq = i.wrapping_sub(plan.closed_from) as u64;
        match op {
            Op::Post(t) => {
                let start = timed.then(Instant::now);
                let id = engine.add_task(*t).expect("generated tasks are valid");
                if let Some(s) = start {
                    out.ops_ns += s.elapsed().as_nanos() as u64;
                }
                posted_at.push(seen);
                if timed {
                    out.wal_bytes += wal_bytes(seq, op);
                    out.bytes_up += frame_len(
                        Request::Post {
                            task: *t,
                            row: None,
                            seq: Some(seq),
                        }
                        .encode(),
                    );
                    out.bytes_down += frame_len(
                        Response::Post {
                            task: id,
                            seq: Some(seq),
                        }
                        .encode(),
                    );
                    out.bytes_down +=
                        frame_len(wire::encode_event(&StreamEvent::TaskPosted { task: id }));
                }
            }
            Op::Rebalance => {
                if timed {
                    out.wal_bytes += wal_bytes(seq, op);
                }
            }
            Op::CheckIn(w) => {
                if closed {
                    let live = engine.n_uncompleted() as f64;
                    out.live_sum += live;
                    let k = out.closed_checkins;
                    if k < quarter {
                        first_q += live;
                    }
                    if k >= 3 * quarter && k < 4 * quarter {
                        last_q += live;
                    }
                }
                let allocs = ltc_bench::alloc::thread_alloc_count();
                let start = timed.then(Instant::now);
                let batch = engine.push_worker(w, policy.as_mut());
                if let Some(s) = start {
                    let ns = s.elapsed().as_nanos() as u64;
                    out.push_ns += ns;
                    out.ops_ns += ns;
                    out.allocs += ltc_bench::alloc::thread_alloc_count() - allocs;
                }
                let wid = ltc_core::model::WorkerId(seen);
                seen += 1;
                events.clear();
                if batch.is_empty() {
                    events.push(Event::WorkerIdle { worker: wid });
                }
                for a in batch.iter() {
                    events.push(Event::Assigned {
                        worker: wid,
                        task: a.task,
                        acc: a.acc,
                        gain: a.contribution,
                    });
                    if engine.is_completed(a.task) {
                        events.push(Event::TaskCompleted {
                            task: a.task,
                            latency: wid.arrival_index(),
                        });
                        out.task_waits
                            .push((wid.arrival_index() - posted_at[a.task.index()]) as f64);
                    }
                }
                if i >= plan.closed_from {
                    digest_events(&mut digest, &events);
                }
                if closed {
                    out.closed_checkins += 1;
                    out.assignments += batch.len() as u64;
                    out.idle += u64::from(batch.is_empty());
                }
                if timed {
                    out.wal_bytes += wal_bytes(seq, op);
                    out.bytes_up += frame_len(
                        Request::Submit {
                            worker: *w,
                            seq: Some(seq),
                        }
                        .encode(),
                    );
                    out.bytes_down += frame_len(
                        Response::Submit {
                            worker: wid,
                            seq: Some(seq),
                        }
                        .encode(),
                    );
                    out.bytes_down += frame_len(wire::encode_event(&StreamEvent::Worker {
                        worker: wid,
                        events: events.clone(),
                    }));
                }
            }
        }
    }
    if plan.open_from == plan.ops.len() {
        out.digest_closed = digest.finish();
    }
    out.digest_all = digest.finish();
    out.live_first_quarter = first_q / quarter as f64;
    out.live_last_quarter = last_q / quarter as f64;
    out
}

/// Bytes one `v2` frame occupies on the wire: the frame, its session id,
/// and the newline.
fn frame_len(frame: String) -> u64 {
    wire::with_sid(frame, wire::DEFAULT_SESSION).len() as u64 + 1
}

/// Bytes one op occupies in the write-ahead log.
fn wal_bytes(seq: u64, op: &Op) -> u64 {
    use ltc_durable::wal::{encode_record, WalRecord};
    let record = match op {
        Op::CheckIn(w) => WalRecord::Submit { worker: *w },
        Op::Post(t) => WalRecord::Post {
            task: *t,
            row: None,
        },
        Op::Rebalance => WalRecord::Rebalance,
    };
    encode_record(seq, &record).len() as u64 + 1
}
