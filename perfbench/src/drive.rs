//! The load generator: session set-up and teardown for each layer, the
//! event receiver thread, and the closed- and open-loop submission loops.
//!
//! The load comes from two threads: the caller submits, one receiver
//! drains the subscription. Every timestamp is nanoseconds since one
//! `Instant` epoch shared by both.

use crate::stats::Fnv;
use crate::workload::{digest_events, Layer, Op, Plan};
use ltc_core::service::{
    EventStream, Lifecycle, ServiceHandle, ServiceMetrics, ServiceSnapshot, Session, StreamEvent,
};
use ltc_durable::{DurableHandle, DurableOptions};
use ltc_proto::{LtcClient, LtcServer, RunningServer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Submission window of the remote closed-loop phase.
pub const REMOTE_WINDOW: usize = 64;

/// A running session of one layer.
pub enum Live {
    Service(ServiceHandle),
    Durable(Box<DurableHandle>, PathBuf),
    Remote(LtcClient, RunningServer),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Live {
    /// Starts `layer` from `snapshot`: a service restore, then the genesis
    /// checkpoint in `dir`, or server bind + connect + hello + window.
    pub fn start(layer: Layer, snapshot: ServiceSnapshot, dir: &Path) -> Result<Live, String> {
        let handle = ServiceHandle::restore(snapshot).map_err(err)?;
        Ok(match layer {
            Layer::Service => Live::Service(handle),
            Layer::Durable => {
                let durable =
                    DurableHandle::create(handle, dir, DurableOptions::default()).map_err(err)?;
                Live::Durable(Box::new(durable), dir.to_path_buf())
            }
            Layer::Remote => {
                let server = LtcServer::bind("127.0.0.1:0", handle)
                    .and_then(LtcServer::spawn)
                    .map_err(err)?;
                let mut client = LtcClient::connect_v2(server.addr()).map_err(err)?;
                let granted = client.set_window(REMOTE_WINDOW).map_err(err)?;
                if granted != REMOTE_WINDOW {
                    return Err(format!("server granted window {granted}"));
                }
                Live::Remote(client, server)
            }
        })
    }

    pub fn session(&mut self) -> &mut dyn Session {
        match self {
            Live::Service(h) => h,
            Live::Durable(h, _) => h.as_mut(),
            Live::Remote(c, _) => c,
        }
    }

    /// Checkpoints written so far (durable layer only).
    pub fn checkpoints(&self) -> Option<u64> {
        match self {
            Live::Durable(h, _) => Some(h.checkpoints()),
            _ => None,
        }
    }

    /// Shuts the session down and releases everything it holds.
    pub fn close(mut self) -> Result<(), String> {
        let closed = self.session().shutdown().map_err(err);
        match self {
            Live::Service(_) => {}
            Live::Durable(h, dir) => {
                drop(h);
                std::fs::remove_dir_all(&dir).ok();
            }
            Live::Remote(c, server) => {
                drop(c);
                let waited = if closed.is_ok() {
                    server.wait()
                } else {
                    server.stop()
                };
                waited.map_err(err)?;
            }
        }
        closed
    }
}

/// What the receiver saw on one subscription.
pub struct Received {
    /// Receipt time of each check-in's `Worker` event, by arrival id
    /// (`u64::MAX` when it never came).
    pub times: Vec<u64>,
    pub digest: u64,
    pub workers: u64,
    pub stalls: u64,
    /// Worker events arrived in exact submission order.
    pub in_order: bool,
}

/// Spawns the event receiver: it drains `stream` until the session ends,
/// stamping each `Worker` event into `times` (indexed by arrival id, all
/// `u64::MAX` on entry) and folding it into the output digest. Arrival
/// ids start at `first`; `seen` counts the `Worker` events received so
/// far.
pub fn spawn_receiver(
    stream: EventStream,
    epoch: Instant,
    times: Vec<u64>,
    first: u64,
    seen: Arc<AtomicU64>,
) -> JoinHandle<Received> {
    std::thread::Builder::new()
        .name("perfbench-recv".into())
        .spawn(move || {
            let mut r = Received {
                times,
                digest: 0,
                workers: 0,
                stalls: 0,
                in_order: true,
            };
            let mut digest = Fnv::new();
            while let Some(event) = stream.next_event() {
                match event {
                    StreamEvent::Worker { worker, events } => {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if worker.0 != first + r.workers {
                            r.in_order = false;
                        }
                        if let Some(t) = r.times.get_mut(worker.0 as usize) {
                            *t = now;
                        }
                        r.workers += 1;
                        seen.store(r.workers, Ordering::Relaxed);
                        digest_events(&mut digest, &events);
                    }
                    StreamEvent::Lifecycle(Lifecycle::ShardStalled { .. }) => r.stalls += 1,
                    StreamEvent::Lifecycle(Lifecycle::ShuttingDown) => break,
                    _ => {}
                }
            }
            r.digest = digest.finish();
            r
        })
        .expect("spawning the receiver thread")
}

/// One submission call, timed when spans are on.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub start: u64,
    pub end: u64,
    /// A checkpoint was written inside this call.
    pub checkpointed: bool,
}

/// Per-call records of one session's submission loops, timed against
/// `epoch`.
#[derive(Debug)]
pub struct SendLog {
    pub epoch: Instant,
    /// Record a span per op.
    pub trace: bool,
    /// Submit the plan's rebalances (they are decision-neutral, so
    /// skipping them leaves the output unchanged).
    pub rebalances: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Span per op (only when spans are on).
    pub spans: Vec<Span>,
    /// Open-loop check-ins: `(arrival id, scheduled, send start)` times.
    pub paced: Vec<(u64, u64, u64)>,
    pub moved_tasks: u64,
    pub first_error: Option<String>,
}

impl SendLog {
    pub fn new(epoch: Instant, trace: bool) -> Self {
        SendLog {
            epoch,
            trace,
            rebalances: true,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            paced: Vec::new(),
            moved_tasks: 0,
            first_error: None,
        }
    }
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Waits until `target` ns after `epoch`: sleeps while far away, then
/// yields, so the send lands on schedule. At the open loop's rate the
/// generator yields through most of each interval, which keeps a CPU
/// awake: on a VM, waking a halted virtual CPU would add tens of µs of
/// scheduling noise to every event.
fn wait_until(epoch: Instant, target: u64) {
    loop {
        let now = since(epoch);
        if now >= target {
            return;
        }
        let left = target - now;
        if left > 2_000_000 {
            std::thread::sleep(Duration::from_nanos(left - 1_500_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// How a loop paces its submissions.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Back to back (closed loop).
    Closed,
    /// Check-in `k` of the loop is due `start + k / rate`; posts and
    /// rebalances ride just before the check-in that follows them.
    Open { start: u64, rate: f64 },
}

/// Submits `plan.ops[range]` through `live`. `first_worker` is the
/// arrival id of the range's first check-in.
pub fn submit(
    live: &mut Live,
    plan: &Plan,
    range: std::ops::Range<usize>,
    first_worker: u64,
    pace: Pace,
    log: &mut SendLog,
) {
    let (epoch, spans) = (log.epoch, log.trace);
    let mut k = 0u64;
    for i in range {
        let op = &plan.ops[i];
        if matches!(op, Op::Rebalance) && !log.rebalances {
            continue;
        }
        let mut due = 0;
        if let (Pace::Open { start, rate }, Op::CheckIn(_)) = (pace, op) {
            due = start + (k as f64 * 1e9 / rate) as u64;
            wait_until(epoch, due);
        }
        let before = if spans { live.checkpoints() } else { None };
        let start = if spans || due > 0 { since(epoch) } else { 0 };
        let session = live.session();
        let result = match op {
            Op::CheckIn(w) => session.submit_worker_windowed(w).map(|_| ()),
            Op::Post(t) => session.post_task_windowed(*t).map(|_| ()),
            Op::Rebalance => session.rebalance().map(|outcome| {
                log.moved_tasks += outcome.map_or(0, |o| o.moved_tasks);
            }),
        };
        log.attempted += 1;
        if let Err(e) = result {
            log.failed += 1;
            log.first_error.get_or_insert_with(|| e.to_string());
        }
        if spans || due > 0 {
            let end = since(epoch);
            if spans {
                log.spans.push(Span {
                    op: i as u32,
                    start,
                    end,
                    checkpointed: live.checkpoints() != before,
                });
            }
            if let Op::CheckIn(_) = op {
                if due > 0 {
                    log.paced.push((first_worker + k, due, start));
                }
            }
        }
        if let Op::CheckIn(_) = op {
            k += 1;
        }
    }
}

/// Flushes the submission window and drains: a barrier after which every
/// earlier submission is processed and its events delivered.
pub fn settle(live: &mut Live, log: &mut SendLog) {
    let session = live.session();
    let flushed = session.flush_window().map(|_| ());
    for result in [flushed, session.drain()] {
        if let Err(e) = result {
            log.failed += 1;
            log.first_error.get_or_insert_with(|| e.to_string());
        }
    }
}

/// Restarts a session from the warm snapshot `warm`, subscribes, and
/// submits the closed phase's ops up to and including its first check-in,
/// until that check-in is accepted. Returns the session, its
/// subscription, and the set-up time in seconds. The snapshot is copied
/// before the clock starts.
pub fn set_up(
    layer: Layer,
    plan: &Plan,
    warm: &ServiceSnapshot,
    dir: &Path,
    log: &mut SendLog,
) -> Result<(Live, EventStream, f64), String> {
    let first = plan.closed_from
        + plan.ops[plan.closed_from..]
            .iter()
            .position(|op| matches!(op, Op::CheckIn(_)))
            .ok_or("the closed phase has no check-in")?;
    let snapshot = warm.clone();
    let t0 = Instant::now();
    let mut live = Live::start(layer, snapshot, dir)?;
    let stream = live.session().subscribe().map_err(err)?;
    submit(
        &mut live,
        plan,
        plan.closed_from..first + 1,
        0,
        Pace::Closed,
        log,
    );
    let acked = live.session().flush_window();
    let secs = t0.elapsed().as_secs_f64();
    acked.map_err(err)?;
    Ok((live, stream, secs))
}

/// How a session's open-loop ops are submitted.
#[derive(Debug, Clone, Copy)]
pub enum OpenPhase {
    /// Lockstep (window 1) at a fixed check-in rate.
    Paced(f64),
    /// Lockstep, back to back.
    Lockstep,
    /// Not at all.
    Skip,
}

/// Everything one session of a plan measured.
pub struct SessionOut {
    pub log: SendLog,
    pub recv: Received,
    /// Closed-loop phase: check-ins and ops, wall seconds to its last
    /// check-in's event, and allocations (all threads).
    pub closed_checkins: usize,
    pub closed_ops: usize,
    pub closed_secs: f64,
    pub closed_allocs: u64,
    /// Counters read after the closed phase (`spans` sessions only).
    pub metrics: Option<ServiceMetrics>,
    /// Heap bytes the session holds after the final drain: the live heap
    /// then, less the live heap just before the session started.
    pub heap_bytes: u64,
    /// Durable restart check: recovered snapshot equals the live one, and
    /// the recovery time.
    pub restart: Option<(bool, f64)>,
    /// The receiver saw every expected check-in, in order, with the
    /// engine replay's digest.
    pub output_ok: bool,
}

/// What one session runs.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec {
    pub layer: Layer,
    /// Record a span around every closed- and open-phase call.
    pub spans: bool,
    pub open: OpenPhase,
    /// Drop the durable session without shutdown (as a crash would leave
    /// it) and recover it from its log.
    pub restart_check: bool,
    /// Submit the plan's rebalances.
    pub rebalances: bool,
}

/// Runs one session of `plan` from its warm state `warm`: the timed
/// closed-loop phase, then the open-loop phase. `expected_digest` is the
/// engine replay's output digest of the closed phase and of both phases.
pub fn run_session(
    plan: &Plan,
    warm: &ServiceSnapshot,
    spec: SessionSpec,
    dir: &Path,
    epoch: Instant,
    expected_digest: (u64, u64),
) -> Result<SessionOut, String> {
    let SessionSpec {
        layer,
        spans,
        open,
        restart_check,
        rebalances,
    } = spec;
    let total = plan.checkins(0..plan.ops.len());
    let closed = plan.closed_from..plan.open_from;
    let before_closed = plan.checkins(0..plan.closed_from);
    let closed_checkins = plan.checkins(closed.clone());
    let ran_open = !matches!(open, OpenPhase::Skip);
    let expected = if ran_open {
        total - before_closed
    } else {
        closed_checkins
    };
    // The benchmark's own buffers are sized before the heap baseline is
    // read, so `heap_bytes` counts only what the session retains.
    let mut log = SendLog::new(epoch, spans);
    log.rebalances = rebalances;
    if spans {
        log.spans.reserve_exact(plan.ops.len() - plan.closed_from);
    }
    if ran_open {
        log.paced
            .reserve_exact(total - before_closed - closed_checkins);
    }
    let times = vec![u64::MAX; total];
    let heap_before = ltc_bench::alloc::current_bytes();
    let mut live = Live::start(layer, warm.clone(), dir)?;
    let stream = match live.session().subscribe() {
        Ok(stream) => stream,
        Err(e) => {
            live.close().ok();
            return Err(err(e));
        }
    };
    let seen = Arc::new(AtomicU64::new(0));
    let receiver = spawn_receiver(
        stream,
        epoch,
        times,
        before_closed as u64,
        Arc::clone(&seen),
    );
    let mut phases = || -> Result<(u64, u64, Option<ServiceMetrics>), String> {
        let allocs = ltc_bench::alloc::alloc_count();
        let closed_start = since(epoch);
        submit(&mut live, plan, closed.clone(), 0, Pace::Closed, &mut log);
        settle(&mut live, &mut log);
        let closed_allocs = ltc_bench::alloc::alloc_count() - allocs;
        let metrics = if spans {
            Some(live.session().metrics().map_err(err)?)
        } else {
            None
        };
        if ran_open {
            live.session().set_window(1).map_err(err)?;
            let pace = match open {
                OpenPhase::Paced(rate) => Pace::Open {
                    start: since(epoch) + 2_000_000,
                    rate,
                },
                _ => Pace::Closed,
            };
            let first_open = (before_closed + closed_checkins) as u64;
            let range = plan.open_from..plan.ops.len();
            submit(&mut live, plan, range, first_open, pace, &mut log);
            settle(&mut live, &mut log);
        }
        Ok((closed_start, closed_allocs, metrics))
    };
    let phases = phases();
    // A drained remote session may still be writing events to the socket,
    // and closing the client drops whatever it has not read yet: wait for
    // the receiver to see every check-in first.
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::Relaxed) < expected as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let heap_bytes = ltc_bench::alloc::current_bytes().saturating_sub(heap_before);
    // Ending the session ends its event stream, so the receiver is always
    // joined before any error is returned.
    let ended = match live {
        Live::Durable(handle, dir) if restart_check && phases.is_ok() => {
            let checked = restart(*handle, &dir);
            std::fs::remove_dir_all(&dir).ok();
            checked.map(Some)
        }
        live => live.close().map(|()| None),
    };
    let recv = receiver
        .join()
        .map_err(|_| "the receiver thread panicked".to_string())?;
    let (closed_start, closed_allocs, metrics) = phases?;
    let restart = ended?;
    let digest = if ran_open {
        expected_digest.1
    } else {
        expected_digest.0
    };
    let output_ok = recv.in_order && recv.workers == expected as u64 && recv.digest == digest;
    let last_closed = recv.times[before_closed + closed_checkins - 1];
    Ok(SessionOut {
        closed_checkins,
        closed_ops: closed.len(),
        closed_secs: last_closed.saturating_sub(closed_start) as f64 / 1e9,
        closed_allocs,
        metrics,
        heap_bytes,
        restart,
        output_ok,
        log,
        recv,
    })
}

/// Snapshots the live durable session, abandons it as a crash would
/// (no sealing checkpoint, so recovery has a log suffix to replay),
/// recovers its directory, and compares the recovered snapshot with the
/// live one byte for byte. Returns `(equal, recovery seconds)`.
fn restart(mut handle: DurableHandle, dir: &Path) -> Result<(bool, f64), String> {
    let live = snapshot_text(&mut handle)?;
    drop(handle);
    let t0 = Instant::now();
    let mut recovered = ltc_durable::recover(dir).map_err(err)?;
    let secs = t0.elapsed().as_secs_f64();
    let again = snapshot_text(&mut recovered.handle)?;
    recovered.handle.close().map_err(err)?;
    Ok((live == again, secs))
}

fn snapshot_text(session: &mut dyn Session) -> Result<Vec<u8>, String> {
    let snapshot = session.snapshot().map_err(err)?;
    let mut text = Vec::new();
    ltc_core::snapshot::write_snapshot(&snapshot, &mut text).map_err(err)?;
    Ok(text)
}
