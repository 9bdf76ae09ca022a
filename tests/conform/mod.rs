//! The conformance harness: every [`Session`] stack is driven through
//! one op sequence and checked against one oracle, never a sibling.
//!
//! Workers arrive in order and every assignment is irrevocable, so a
//! session is fully defined by its ops. The oracle is a bare
//! [`AssignmentEngine`] under the policy an [`Algorithm`] names, stepped
//! per op: a submit owes its arrival id and `Worker` delivery, a post its
//! task id and `TaskPosted`; drains, snapshots, rebalances and late
//! subscribes decide nothing. The [`LtcService`] facade fed the same ops
//! inline is the state reference: its deliveries must be the oracle's, it
//! round-trips through snapshot text at every `Snapshot` op, its text is
//! what every stack's snapshot must equal, and the feasibility invariants
//! (capacity, no duplicate pair, completion exactly when `S ≥ δ`) hold.
//!
//! [`conform`] checks the acks (direct or windowed), every subscriber's
//! deliveries (lifecycle notices dropped; a late subscriber sees exactly
//! the submissions after it) and the snapshot text at every `Snapshot`
//! op, at every restart and at the end, for [`ServiceHandle`] at 1–5
//! shards, [`DurableHandle`] shut down and resumed or crashed with a torn
//! log, and [`LtcClient`] at any window over [`LtcServer`] over either.
//!
//! The cases live in `tests/conformance.rs` (generated op runs, durable
//! and client stacks), `tests/service_parity.rs` (N-shard handles on
//! batch instances) and `tests/engine_parity.rs` (one shard on the
//! engine-parity shapes); each uses part of this module.
#![allow(dead_code)]

use ltc::core::online::AamStrategy;
use ltc::core::service::{RebalanceOutcome, WindowAck};
use ltc::core::snapshot::{read_snapshot, write_snapshot};
use ltc::prelude::*;
use ltc::proto::RunningServer;
use ltc::spatial::BoundingBox;
use ltc_durable::wal::list_segments;
use ltc_durable::{recover, DurableHandle, DurableOptions, Recovery, ResumeReport, SyncPolicy};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-event wait while collecting deliveries: far above any healthy
/// delivery, far below the CI step's timeout.
const EVENT_TIMEOUT: Duration = Duration::from_secs(20);

/// One session operation: the whole alphabet every stack is driven by.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Submit(Worker),
    Post(Task),
    Drain,
    Snapshot,
    Rebalance,
    /// A late subscriber, attached right after a drain.
    Subscribe,
}

/// The session a case starts from.
#[derive(Debug, Clone)]
pub struct Shape {
    pub params: ProblemParams,
    pub region: BoundingBox,
    pub tasks: Vec<Task>,
    pub algorithm: Algorithm,
    pub shards: usize,
}

impl Shape {
    /// The generated cases' session: a 1000 × 1000 region with 24 seed
    /// tasks on a grid, `K = 2`, `d_max = 30`.
    pub fn generated(algorithm: Algorithm, shards: usize) -> Self {
        let params = ProblemParams::builder()
            .epsilon(0.25)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        Self {
            params,
            region: BoundingBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0)),
            tasks: (0..SEED_TASKS).map(|i| Task::new(seed_task(i))).collect(),
            algorithm,
            shards,
        }
    }

    fn builder(&self) -> ServiceBuilder {
        ServiceBuilder::new(self.params, self.region)
            .tasks(self.tasks.clone())
            .algorithm(self.algorithm)
            .shards(NonZeroUsize::new(self.shards).unwrap())
    }

    fn engine(&self) -> AssignmentEngine {
        let mut engine = AssignmentEngine::new(self.params, self.region).unwrap();
        for task in &self.tasks {
            engine.add_task(*task).unwrap();
        }
        engine
    }
}

const SEED_TASKS: usize = 24;

fn seed_task(i: usize) -> Point {
    Point::new((i % 6) as f64 * 160.0 + 40.0, (i / 6) as f64 * 240.0)
}

#[derive(Debug, Clone)]
pub struct Case {
    pub shape: Shape,
    pub ops: Vec<Op>,
}

impl Case {
    /// A batch instance's tasks and workers, the workers streamed like
    /// `run_online` does: until the oracle has completed every task.
    pub fn instance(instance: &Instance, algorithm: Algorithm, shards: usize) -> Self {
        let shape = Shape {
            params: *instance.params(),
            region: BoundingBox::of_points(instance.tasks().iter().map(|t| t.loc)).unwrap(),
            tasks: instance.tasks().to_vec(),
            algorithm,
            shards,
        };
        let mut engine = shape.engine();
        let mut policy = bare_policy(algorithm);
        let mut ops = Vec::new();
        for worker in instance.workers() {
            if engine.all_completed() {
                break;
            }
            engine.push_worker(worker, &mut *policy);
            ops.push(Op::Submit(*worker));
        }
        Self { shape, ops }
    }
}

/// A location: uniform over the region and a 100-unit margin around it
/// (so some posts and check-ins fall outside it), or, half the time,
/// within 30 units of a seed task on each axis (so check-ins find
/// candidates, ties and shard borders).
fn point() -> impl Strategy<Value = Point> {
    let draw = (0..2 * SEED_TASKS, -100i32..1100, -100i32..1100);
    draw.prop_map(|(t, x, y)| {
        let (x, y) = (f64::from(x), f64::from(y));
        if t >= SEED_TASKS {
            return Point::new(x, y);
        }
        let c = seed_task(t);
        Point::new(
            c.x + x.rem_euclid(61.0) - 30.0,
            c.y + y.rem_euclid(61.0) - 30.0,
        )
    })
}

/// One op in one of two mixes, out of 77 rolls: the check-in-heavy mix
/// posts 1 in 7, the post-heavy mix 4 in 11 and rebalances 1 in 11.
fn op(post_heavy: bool) -> impl Strategy<Value = Op> {
    let (posts, rebalances) = if post_heavy { (28, 7) } else { (11, 2) };
    (0u32..77, point(), 0.70f64..0.99).prop_map(move |(roll, at, acc)| match roll {
        r if r < posts => Op::Post(Task::new(at)),
        r if r < posts + rebalances => Op::Rebalance,
        r if r < posts + rebalances + 2 => Op::Drain,
        r if r < posts + rebalances + 4 => Op::Snapshot,
        r if r < posts + rebalances + 5 => Op::Subscribe,
        _ => Op::Submit(Worker::new(at, acc)),
    })
}

/// The one op generator: `len` ops from one of the two mixes.
pub fn ops(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::bool::ANY
        .prop_flat_map(move |post_heavy| prop::collection::vec(op(post_heavy), len.clone()))
}

/// The generator's draw for a seeded case.
pub fn seeded_ops(seed: u64, len: usize) -> Vec<Op> {
    ops(len..=len).generate(&mut TestRng::deterministic("conformance::seeded_ops", seed))
}

/// A generated session at 1–5 shards under one of the five policies,
/// with the seed tasks or without (every task is then posted, so the
/// shards hold few, staggered tasks).
pub fn shape() -> impl Strategy<Value = Shape> {
    let draw = (1usize..=5, 0usize..5, any::<u64>(), prop::bool::ANY);
    draw.prop_map(|(shards, which, seed, seeded)| {
        let mut shape = Shape::generated(policies(seed)[which], shards);
        if !seeded {
            shape.tasks.clear();
        }
        shape
    })
}

/// Durable options under one of the three sync policies, checkpointing
/// every 0 (never) to 5 logged ops.
pub fn durable_options() -> impl Strategy<Value = DurableOptions> {
    (0usize..3, 0u64..=5).prop_map(|(sync, checkpoint_every)| DurableOptions {
        sync: [SyncPolicy::Always, SyncPolicy::Every(3), SyncPolicy::Os][sync],
        checkpoint_every,
    })
}

/// The five policies, Random seeded with `seed`.
pub fn policies(seed: u64) -> [Algorithm; 5] {
    [
        Algorithm::Laf,
        Algorithm::Aam,
        Algorithm::AamLgf,
        Algorithm::AamLrf,
        Algorithm::Random { seed },
    ]
}

/// The bare-engine policy an [`Algorithm`] names.
fn bare_policy(algorithm: Algorithm) -> Box<dyn OnlineAlgorithm> {
    match algorithm {
        Algorithm::Laf => Box::new(Laf::new()),
        Algorithm::Aam => Box::new(Aam::new()),
        Algorithm::AamLgf => Box::new(Aam::with_strategy(AamStrategy::AlwaysLgf)),
        Algorithm::AamLrf => Box::new(Aam::with_strategy(AamStrategy::AlwaysLrf)),
        Algorithm::Random { seed } => Box::new(RandomAssign::seeded(seed)),
    }
}

/// A synthetic instance: seed, tasks, workers, `K`, ε and grid size.
pub type Dims = (u64, usize, usize, u32, f64, f64);

pub fn synthetic((seed, n_tasks, n_workers, capacity, epsilon, grid_size): Dims) -> Instance {
    SyntheticConfig {
        n_tasks,
        n_workers,
        capacity,
        epsilon,
        grid_size,
        seed,
        ..SyntheticConfig::default()
    }
    .generate()
}

fn text_of(snapshot: &ServiceSnapshot) -> String {
    let mut out = Vec::new();
    write_snapshot(snapshot, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// The ack and the ordered delivery one op owes (`None`: it decides
/// nothing).
type Owed = Option<(WindowAck, StreamEvent)>;

/// What every stack must reproduce for one case: the oracle's acks and
/// deliveries, and the reference's snapshot texts and rebalances.
struct Trace {
    owed: Vec<Owed>,
    /// The reference's text after each `Snapshot` op, and after the last op.
    texts: HashMap<usize, String>,
    rebalances: HashMap<usize, Option<RebalanceOutcome>>,
    metrics: ServiceMetrics,
}

impl Trace {
    fn of(shape: &Shape, ops: &[Op]) -> Self {
        let mut engine = shape.engine();
        let mut policy = bare_policy(shape.algorithm);
        let mut reference = shape.builder().build().unwrap();
        let mut trace = Trace {
            owed: Vec::with_capacity(ops.len()),
            texts: HashMap::new(),
            rebalances: HashMap::new(),
            metrics: ServiceMetrics::default(),
        };
        for (i, op) in ops.iter().enumerate() {
            let owed = match *op {
                Op::Submit(worker) => {
                    let w = WorkerId(engine.n_workers_seen());
                    let batch = engine.push_worker(&worker, &mut *policy);
                    let mut events = Vec::new();
                    if batch.is_empty() {
                        events.push(Event::WorkerIdle { worker: w });
                    }
                    for a in batch.iter() {
                        events.push(Event::Assigned {
                            worker: w,
                            task: a.task,
                            acc: a.acc,
                            gain: a.contribution,
                        });
                        if engine.is_completed(a.task) {
                            events.push(Event::TaskCompleted {
                                task: a.task,
                                latency: w.arrival_index(),
                            });
                        }
                    }
                    let served = reference.check_in(&worker);
                    assert_eq!(served, events, "op {i}: facade ≠ engine");
                    let delivery = StreamEvent::Worker { worker: w, events };
                    Some((WindowAck::Worker(w), delivery))
                }
                Op::Post(task) => {
                    let t = engine.add_task(task).unwrap();
                    assert_eq!(reference.post_task(task).unwrap(), t, "op {i}: task ids");
                    Some((WindowAck::Task(t), StreamEvent::TaskPosted { task: t }))
                }
                Op::Rebalance => {
                    trace.rebalances.insert(i, reference.rebalance().unwrap());
                    None
                }
                Op::Snapshot => {
                    let text = text_of(&reference.snapshot());
                    let decoded = read_snapshot(text.as_bytes()).unwrap();
                    reference = LtcService::restore(decoded).unwrap();
                    trace.texts.insert(i, text);
                    None
                }
                Op::Drain | Op::Subscribe => None,
            };
            trace.owed.push(owed);
        }
        let end = text_of(&reference.snapshot());
        trace.texts.insert(ops.len(), end);
        trace.metrics = state_metrics(reference.metrics());
        check_feasible(&trace.owed, &reference);
        trace
    }

    /// The deliveries owed by ops `from..to`.
    fn deliveries(&self, from: usize, to: usize) -> Vec<StreamEvent> {
        self.owed[from..to]
            .iter()
            .flatten()
            .map(|(_, delivery)| delivery.clone())
            .collect()
    }
}

/// The metrics that describe session state, without the counters of
/// one executor's lifetime (rebalances, log records, checkpoints,
/// hosted sessions).
fn state_metrics(metrics: ServiceMetrics) -> ServiceMetrics {
    ServiceMetrics {
        rebalances: 0,
        wal_records: 0,
        checkpoints: 0,
        sessions_open: 0,
        sessions_evicted: 0,
        ..metrics
    }
}

/// The feasibility invariants of a served run: capacity respected, no
/// duplicate pair, and a task completed (announced once) exactly when
/// its accumulated quality reached δ.
fn check_feasible(owed: &[Owed], reference: &LtcService) {
    let capacity = reference.params().capacity;
    let mut load: HashMap<WorkerId, u32> = HashMap::new();
    let mut pairs = HashSet::new();
    let mut gained = vec![0.0f64; reference.n_tasks()];
    let mut completed = HashSet::new();
    for (_, delivery) in owed.iter().flatten() {
        let StreamEvent::Worker { events, .. } = delivery else {
            continue;
        };
        for event in events {
            match *event {
                Event::Assigned {
                    worker, task, gain, ..
                } => {
                    let l = load.entry(worker).or_insert(0);
                    *l += 1;
                    assert!(*l <= capacity, "{worker:?} over capacity");
                    assert!(pairs.insert((worker, task)), "duplicate {task:?}");
                    gained[task.index()] += gain;
                }
                Event::TaskCompleted { task, latency } => {
                    assert!(completed.insert(task), "{task:?} completed twice");
                    assert!(latency >= 1);
                }
                Event::WorkerIdle { .. } => {}
            }
        }
    }
    let delta = reference.delta();
    for t in (0..reference.n_tasks() as u32).map(TaskId) {
        let done = completed.contains(&t);
        let reached = reference.quality(t).is_none_or(|s| s >= delta - 1e-9);
        let gains = gained[t.index()] >= delta - 1e-9;
        let state = (reference.is_completed(t), reached, gains);
        assert_eq!(state, (done, done, done), "{t:?}: done, S ≥ δ, gains");
    }
}

/// Fails at the first position where `got` and `want` differ.
fn assert_same<T: PartialEq + Debug>(got: &[T], want: &[T], what: &str) {
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "{what}: first divergence at #{i} of {} (want {}): got {:?}, want {:?}",
            got.len(),
            want.len(),
            got.get(i),
            want.get(i)
        );
    }
}

/// What the harness does to a durable stack mid-run.
#[derive(Debug, Clone, Copy)]
pub enum Restart {
    /// `shutdown` → [`DurableHandle::resume`].
    Resume,
    /// Drop the [`DurableHandle`] without a shutdown, cut its final log
    /// segment at `cut` of its length, [`recover`] twice, and resume
    /// from the surviving prefix.
    Crash { cut: f64 },
}

/// A stack recipe: the layers over a [`ServiceHandle`], bottom up, and
/// the restart the harness applies.
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    /// Wrap the handle in a [`DurableHandle`] under these options.
    pub durable: Option<DurableOptions>,
    /// Drive the session through [`LtcClient`] → [`LtcServer`] at this
    /// submission window.
    pub window: Option<usize>,
    /// Restart at this op (the op count: after the last op).
    pub restart: Option<(usize, Restart)>,
}

impl Stack {
    pub const HANDLE: Stack = Stack {
        durable: None,
        window: None,
        restart: None,
    };

    fn open(&self, shape: &Shape, dir: &Path) -> Live {
        let handle = shape.builder().start().unwrap();
        match self.durable {
            None => self.serve(handle),
            Some(options) => self.serve(DurableHandle::create(handle, dir, options).unwrap()),
        }
    }

    fn resume(&self, dir: &Path) -> (Live, ResumeReport) {
        let (durable, report) = DurableHandle::resume(dir, self.durable.unwrap()).unwrap();
        (self.serve(durable), report)
    }

    /// Puts `session` behind a server and a client if the recipe says so.
    fn serve(&self, session: impl Session + Send + 'static) -> Live {
        let Some(window) = self.window else {
            return Live(Box::new(session), None);
        };
        let server = LtcServer::bind("127.0.0.1:0", session).and_then(LtcServer::spawn);
        let server = server.unwrap();
        let mut client = LtcClient::connect_v2(server.addr()).unwrap();
        assert_eq!(client.set_window(window).unwrap(), window, "window grant");
        Live(Box::new(client), Some(server))
    }
}

/// A running stack: the session the harness drives, and the server
/// behind it if it is a client.
struct Live(Box<dyn Session>, Option<RunningServer>);

impl Live {
    /// Ends the session cleanly; a client's `shutdown` stops its server.
    fn shutdown(mut self) {
        self.0.shutdown().unwrap();
        if let Some(server) = self.1 {
            server.wait().unwrap();
        }
    }
}

/// A log directory that is removed when the case ends.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ltc-conform-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recovers `dir`, returning the recovery with the recovered state's
/// text (its handle closed).
fn recovered(dir: &Path) -> (Recovery, String) {
    let mut recovery = recover(dir).unwrap();
    let text = text_of(&recovery.handle.snapshot().unwrap());
    recovery.handle.close().unwrap();
    (recovery, text)
}

/// A subscription, the op it started at, and its ordered deliveries so
/// far (lifecycle notices dropped).
struct Subscriber {
    stream: EventStream,
    from: usize,
    got: Vec<StreamEvent>,
}

impl Subscriber {
    /// Receives until `n` deliveries arrived (or a wait times out), then
    /// takes whatever else is already there.
    fn receive(&mut self, n: usize) {
        while self.got.len() < n {
            match self.stream.recv_timeout(EVENT_TIMEOUT) {
                Some(StreamEvent::Lifecycle(_)) => {}
                Some(delivery) => self.got.push(delivery),
                None => break,
            }
        }
        let ready = std::iter::from_fn(|| self.stream.try_recv());
        self.got
            .extend(ready.filter(|e| !matches!(e, StreamEvent::Lifecycle(_))));
    }
}

/// One case in flight against one stack.
struct Run<'a> {
    stack: Stack,
    case: &'a Case,
    trace: &'a Trace,
    dir: TempDir,
    live: Option<Live>,
    subscribers: Vec<Subscriber>,
    got_acks: Vec<WindowAck>,
    want_acks: Vec<WindowAck>,
    /// The op index of every logged op (submit, post, rebalance) so far.
    logged: Vec<usize>,
    /// Logged ops at the latest (re)start: the covering checkpoint's seq.
    base: usize,
}

/// The entry point: drives `stack` through `case` and checks the acks,
/// every subscriber's deliveries and every snapshot against the oracle.
pub fn conform(stack: Stack, case: &Case) {
    let trace = Trace::of(&case.shape, &case.ops);
    let dir = TempDir::new();
    let live = stack.open(&case.shape, &dir.0);
    let mut run = Run {
        stack,
        case,
        trace: &trace,
        dir,
        live: Some(live),
        subscribers: Vec::new(),
        got_acks: Vec::new(),
        want_acks: Vec::new(),
        logged: Vec::new(),
        base: 0,
    };
    let mut next = run.started(0);
    if let Some((at, how)) = stack.restart {
        (next..at).for_each(|i| run.apply(i));
        next = run.restart(at, how);
    }
    (next..case.ops.len()).for_each(|i| run.apply(i));
    run.finish();
}

impl Run<'_> {
    fn session(&mut self) -> &mut dyn Session {
        &mut *self.live.as_mut().expect("a running stack").0
    }

    /// A (re)started stack at op `at` holds the reference's state after
    /// the first `at` ops and describes the session; a fresh subscriber
    /// sees everything from here on. Returns `at`.
    fn started(&mut self, at: usize) -> usize {
        let prefix = Trace::of(&self.case.shape, &self.case.ops[..at]);
        assert_eq!(self.snapshot_text(), prefix.texts[&at], "op {at}: state");
        let metrics = state_metrics(self.session().metrics().unwrap());
        assert_eq!(metrics, prefix.metrics, "op {at}: metrics");
        let shape = &self.case.shape;
        let info = SessionInfo {
            algorithm: shape.algorithm,
            params: shape.params,
            n_shards: shape.shards,
            n_tasks: prefix.metrics.n_tasks,
        };
        assert_eq!(self.session().info(), info, "op {at}: session info");
        self.subscribe(at);
        at
    }

    fn subscribe(&mut self, from: usize) {
        let stream = self.session().subscribe().unwrap();
        self.subscribers.push(Subscriber {
            stream,
            from,
            got: Vec::new(),
        });
    }

    fn flush(&mut self) {
        let acks = self.session().flush_window().unwrap();
        self.got_acks.extend(acks);
    }

    fn snapshot_text(&mut self) -> String {
        text_of(&self.session().snapshot().unwrap())
    }

    fn apply(&mut self, i: usize) {
        let owed = self.trace.owed[i].as_ref().map(|(ack, _)| *ack);
        match self.case.ops[i] {
            Op::Submit(worker) => {
                self.want_acks.extend(owed);
                self.logged.push(i);
                let ack = self.session().submit_worker_windowed(&worker).unwrap();
                self.got_acks.extend(ack);
            }
            Op::Post(task) => {
                self.want_acks.extend(owed);
                self.logged.push(i);
                let ack = self.session().post_task_windowed(task).unwrap();
                self.got_acks.extend(ack);
            }
            Op::Drain => {
                self.flush();
                self.session().drain().unwrap();
            }
            Op::Snapshot => {
                self.flush();
                let text = self.snapshot_text();
                assert_eq!(text, self.trace.texts[&i], "op {i}: snapshot text");
            }
            Op::Rebalance => {
                self.flush();
                self.logged.push(i);
                let outcome = self.session().rebalance().unwrap();
                assert_eq!(outcome, self.trace.rebalances[&i], "op {i}: rebalance");
            }
            Op::Subscribe => {
                self.flush();
                self.session().drain().unwrap();
                // Over a transport, events may still be in flight when
                // `drain` returns (the `Session` contract lets it flush
                // bytes after); attach once they reached this end.
                let first = &mut self.subscribers[0];
                first.receive(self.trace.deliveries(first.from, i).len());
                self.subscribe(i + 1);
            }
        }
    }

    /// Checks every subscriber of the current stack against the
    /// deliveries owed by the ops it saw, up to op `to`.
    fn check_subscribers(&mut self, to: usize) {
        for mut sub in self.subscribers.drain(..) {
            let want = self.trace.deliveries(sub.from, to);
            sub.receive(want.len());
            let what = format!("subscriber from op {} to op {to}", sub.from);
            assert_same(&sub.got, &want, &what);
        }
    }

    /// A durable stack's log and checkpoint counters: one record per
    /// logged op, a checkpoint at each (re)start and every
    /// `checkpoint_every` records after it.
    fn check_durable_counters(&mut self) {
        let Some(options) = self.stack.durable else {
            return;
        };
        let metrics = self.session().metrics().unwrap();
        let since = (self.logged.len() - self.base) as u64;
        let periodic = since.checked_div(options.checkpoint_every).unwrap_or(0);
        assert_eq!(metrics.wal_records, self.logged.len() as u64, "log records");
        assert_eq!(metrics.checkpoints, 1 + periodic, "checkpoints");
    }

    /// Applies `how` at op `at`; returns the op to continue from.
    fn restart(&mut self, at: usize, how: Restart) -> usize {
        let Restart::Crash { cut } = how else {
            self.flush();
            self.session().drain().unwrap();
            self.check_durable_counters();
            self.check_subscribers(at);
            self.live.take().unwrap().shutdown();
            let (live, report) = self.stack.resume(&self.dir.0);
            self.live = Some(live);
            let sealed = (0, 0, self.logged.len() as u64);
            let resumed = (report.replayed, report.truncated_bytes, report.next_seq);
            assert_eq!(resumed, sealed, "a sealed log replays nothing");
            self.base = self.logged.len();
            return self.started(at);
        };
        // What reached the subscribers before the crash is a prefix of
        // what was owed.
        for mut sub in self.subscribers.drain(..) {
            let want = self.trace.deliveries(sub.from, at);
            sub.receive(0);
            assert!(sub.got.len() <= want.len(), "more deliveries than ops");
            assert_same(&sub.got, &want[..sub.got.len()], "before the crash");
        }
        drop(self.live.take());

        // Power loss mid-write: the current segment ends at any byte,
        // mid-record or mid-header.
        let tail = list_segments(&self.dir.0).unwrap().pop().unwrap().path;
        let len = std::fs::metadata(&tail).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&tail).unwrap();
        file.set_len((len as f64 * cut) as u64).unwrap();
        drop(file);

        let logged = self.logged.len() as u64;
        let (recovery, text) = recovered(&self.dir.0);
        let survived = recovery.next_seq;
        assert!(survived <= logged, "{survived} of {logged} ops survived");
        if cut >= 1.0 {
            assert_eq!(survived, logged, "an uncut log loses nothing");
        }
        let every = self.stack.durable.unwrap().checkpoint_every;
        let since = logged - self.base as u64;
        let covered = self.base as u64 + since.checked_div(every).unwrap_or(0) * every;
        assert_eq!(recovery.checkpoint_seq, covered, "restored checkpoint");
        assert_eq!(recovery.replayed, survived - covered, "replayed records");
        let resume_at = self.logged.get(survived as usize).copied().unwrap_or(at);
        let want = &Trace::of(&self.case.shape, &self.case.ops[..resume_at]).texts[&resume_at];
        assert_eq!(&text, want, "recovered state");
        // Recovery repaired the torn tail; a second one finds nothing to
        // repair and lands in the same state.
        let (again, again_text) = recovered(&self.dir.0);
        let second = (again.truncated_bytes, again.next_seq, again_text);
        assert_eq!(second, (0, survived, text), "second recovery");

        let (live, report) = self.stack.resume(&self.dir.0);
        self.live = Some(live);
        assert_eq!(report.next_seq, survived, "resumed log position");
        self.logged.truncate(survived as usize);
        self.base = self.logged.len();
        self.started(resume_at)
    }

    fn finish(mut self) {
        let n = self.case.ops.len();
        self.flush();
        self.session().drain().unwrap();
        assert_same(&self.got_acks, &self.want_acks, "acks");
        self.check_subscribers(n);
        let text = self.snapshot_text();
        assert_eq!(text, self.trace.texts[&n], "final snapshot text");
        let metrics = state_metrics(self.session().metrics().unwrap());
        assert_eq!(metrics, self.trace.metrics, "final metrics");
        self.check_durable_counters();
        self.live.take().unwrap().shutdown();
    }
}

/// A durable stack restarted `at` a fraction of the way through `ops`
/// (the end included).
pub fn durable(options: DurableOptions, ops: &[Op], at: f64, how: Restart) -> Stack {
    Stack {
        durable: Some(options),
        window: None,
        restart: Some(((ops.len() as f64 * at) as usize, how)),
    }
}
