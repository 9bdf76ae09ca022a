//! Execution of parsed `ltc` commands.

use crate::args::{AlgoChoice, Command, Preset, StreamSource, WalChoice};
use ltc_core::bounds::{batch_size, latency_lower_bound, latency_upper_bound};
use ltc_core::metrics::ArrangementStats;
use ltc_core::model::{Instance, RunOutcome, Worker};
use ltc_core::offline::{BaseOff, ExactSolver, McfLtc};
use ltc_core::online::{run_online, Aam, Laf, RandomAssign};
use ltc_core::service::{
    Algorithm, Event, EventStream, ServiceBuilder, ServiceError, ServiceHandle, ServiceMetrics,
    Session, StreamEvent, WindowAck,
};
use ltc_core::snapshot as snapshot_format;
use ltc_durable::{DurableHandle, DurableOptions};
use ltc_proto::{LtcClient, LtcServer, SessionConfig, SessionFactory, SessionTable};
use ltc_sim::{infer_em, infer_majority, simulate, AnswerSet, EmConfig, GroundTruth};
use ltc_spatial::Point;
use ltc_workload::{dataset, CheckinCityConfig, SyntheticConfig};
use std::error::Error;
use std::io::{BufRead, Write};
use std::num::NonZeroUsize;

type CmdResult = Result<(), Box<dyn Error>>;

/// Executes one parsed command, writing its report to `out`.
pub fn execute(cmd: Command, out: &mut dyn Write) -> CmdResult {
    match cmd {
        Command::Help => unreachable!("handled by the entry point"),
        Command::Generate {
            preset,
            scale,
            seed,
            epsilon,
            out: path,
        } => generate(preset, scale, seed, epsilon, path, out),
        Command::Run { input, algo, stats } => run_algo(&input, algo, stats, out),
        Command::Stream {
            source,
            checkins,
            pipeline,
            rebalance,
            snapshot_out,
            metrics_out,
        } => stream_cmd(
            &source,
            checkins.as_deref(),
            pipeline,
            rebalance,
            snapshot_out.as_deref(),
            metrics_out.as_deref(),
            out,
        ),
        Command::Serve {
            input,
            algo,
            seed,
            shards,
            addr,
            max_sessions,
            idle_timeout,
            wal,
        } => serve_cmd(
            &input,
            algo,
            seed,
            shards,
            &addr,
            max_sessions,
            idle_timeout,
            wal,
            out,
        ),
        Command::Sessions { addr } => sessions_cmd(&addr, out),
        Command::Recover { wal, snapshot_out } => recover_cmd(&wal, snapshot_out.as_deref(), out),
        Command::Exact { input, budget } => exact(&input, budget, out),
        Command::Simulate {
            input,
            algo,
            trials,
            seed,
        } => simulate_cmd(&input, algo, trials, seed, out),
        Command::Bounds { input } => bounds(&input, out),
    }
}

fn load(path: &str) -> Result<Instance, Box<dyn Error>> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    Ok(dataset::read_tsv(std::io::BufReader::new(file))?)
}

fn run_choice(instance: &Instance, algo: AlgoChoice) -> RunOutcome {
    match algo {
        AlgoChoice::Aam => run_online(instance, &mut Aam::new()),
        AlgoChoice::Laf => run_online(instance, &mut Laf::new()),
        AlgoChoice::Random => run_online(instance, &mut RandomAssign::new()),
        AlgoChoice::McfLtc => McfLtc::new().run(instance),
        AlgoChoice::BaseOff => BaseOff::new().run(instance),
    }
}

fn generate(
    preset: Preset,
    scale: usize,
    seed: Option<u64>,
    epsilon: Option<f64>,
    path: Option<String>,
    out: &mut dyn Write,
) -> CmdResult {
    let instance = match preset {
        Preset::Synthetic => {
            let mut cfg = SyntheticConfig::default().scaled_down(scale);
            if let Some(s) = seed {
                cfg.seed = s;
            }
            if let Some(e) = epsilon {
                cfg.epsilon = e;
            }
            cfg.generate()
        }
        Preset::NewYork | Preset::Tokyo => {
            let base = if preset == Preset::NewYork {
                CheckinCityConfig::new_york_like()
            } else {
                CheckinCityConfig::tokyo_like()
            };
            let mut cfg = base.scaled_down(scale);
            if let Some(s) = seed {
                cfg.seed = s;
            }
            if let Some(e) = epsilon {
                cfg.epsilon = e;
            }
            cfg.generate()
        }
    };
    match path {
        Some(p) => {
            let file =
                std::fs::File::create(&p).map_err(|e| format!("cannot create `{p}`: {e}"))?;
            dataset::write_tsv(&instance, std::io::BufWriter::new(file))?;
            writeln!(
                out,
                "wrote {} tasks, {} workers to {p}",
                instance.n_tasks(),
                instance.n_workers()
            )?;
        }
        None => dataset::write_tsv(&instance, &mut *out)?,
    }
    Ok(())
}

fn run_algo(input: &str, algo: AlgoChoice, stats: bool, out: &mut dyn Write) -> CmdResult {
    let instance = load(input)?;
    let started = std::time::Instant::now(); // ltc-lint: allow(L006) informational elapsed-time line in CLI output; assignments never read it
    let outcome = run_choice(&instance, algo);
    let elapsed = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "{} on {} tasks / {} workers (δ = {:.3})",
        algo.name(),
        instance.n_tasks(),
        instance.n_workers(),
        instance.delta()
    )?;
    match outcome.latency() {
        Some(l) => writeln!(out, "latency (max worker index): {l}")?,
        None => writeln!(
            out,
            "INCOMPLETE: the stream ended before all tasks reached δ"
        )?,
    }
    writeln!(
        out,
        "assignments: {}, elapsed: {elapsed:.4}s",
        outcome.arrangement.len()
    )?;
    if stats {
        let s = ArrangementStats::new(&instance, &outcome.arrangement);
        writeln!(out, "recruited workers: {}", s.recruited_workers)?;
        writeln!(
            out,
            "capacity utilization: {:.1}%",
            100.0 * s.capacity_utilization()
        )?;
        if let (Some(p50), Some(p90), Some(mean)) = (
            s.latency_quantile(0.5),
            s.latency_quantile(0.9),
            s.mean_latency(),
        ) {
            writeln!(
                out,
                "per-task latency: mean {mean:.1}, p50 {p50}, p90 {p90}"
            )?;
        }
        if let Some(over) = s.mean_overshoot() {
            writeln!(out, "mean quality overshoot: {over:.3} above δ")?;
        }
    }
    Ok(())
}

/// Parses one check-in line: `x y accuracy` (tab- or space-separated),
/// optionally prefixed with the dataset's `worker` record tag.
fn parse_checkin(line: &str, lineno: usize) -> Result<Worker, String> {
    let mut fields = line.split_whitespace().peekable();
    if fields.peek() == Some(&"worker") {
        fields.next();
    }
    let mut next_f64 = |name: &str| -> Result<f64, String> {
        fields
            .next()
            .ok_or_else(|| format!("check-in line {lineno}: missing `{name}`"))?
            .parse::<f64>()
            .map_err(|e| format!("check-in line {lineno}: bad `{name}`: {e}"))
    };
    let x = next_f64("x")?;
    let y = next_f64("y")?;
    let accuracy = next_f64("accuracy")?;
    let loc = Point::new(x, y);
    if !loc.is_finite() {
        return Err(format!("check-in line {lineno}: non-finite location"));
    }
    if !accuracy.is_finite() || !(0.0..=1.0).contains(&accuracy) {
        return Err(format!(
            "check-in line {lineno}: accuracy {accuracy} outside [0, 1]"
        ));
    }
    Ok(Worker::new(loc, accuracy))
}

/// Appends one worker's events as an NDJSON line (only when something was
/// assigned — idle check-ins stay silent, matching the engine-era format).
fn write_stream_event(out: &mut dyn Write, worker_idx: u64, events: &[Event]) -> CmdResult {
    if !events.iter().any(|e| matches!(e, Event::Assigned { .. })) {
        return Ok(());
    }
    write!(out, "{{\"worker\":{worker_idx},\"assignments\":[")?;
    let mut first = true;
    for e in events {
        if let Event::Assigned {
            task, acc, gain, ..
        } = e
        {
            if !first {
                write!(out, ",")?;
            }
            write!(
                out,
                "{{\"task\":{},\"acc\":{acc:.6},\"contribution\":{gain:.6}}}",
                task.0
            )?;
            first = false;
        }
    }
    write!(out, "],\"newly_completed\":[")?;
    let mut first = true;
    for e in events {
        if let Event::TaskCompleted { task, .. } = e {
            if !first {
                write!(out, ",")?;
            }
            write!(out, "{}", task.0)?;
            first = false;
        }
    }
    writeln!(out, "]}}")?;
    Ok(())
}

/// Maps a CLI algorithm choice onto a service policy.
fn service_algorithm(algo: AlgoChoice, seed: u64) -> Algorithm {
    match algo {
        AlgoChoice::Aam => Algorithm::Aam,
        AlgoChoice::Laf => Algorithm::Laf,
        AlgoChoice::Random => Algorithm::Random { seed },
        AlgoChoice::McfLtc | AlgoChoice::BaseOff => {
            unreachable!("argument parsing restricts streaming to online algorithms")
        }
    }
}

/// Builds the pipelined in-process session `stream`/`serve` run on a
/// dataset.
fn start_dataset_session(
    input: &str,
    algo: AlgoChoice,
    seed: u64,
    shards: usize,
) -> Result<ServiceHandle, Box<dyn Error>> {
    let instance = load(input)?;
    Ok(ServiceBuilder::from_instance(&instance)
        .algorithm(service_algorithm(algo, seed))
        .shards(NonZeroUsize::new(shards).ok_or("--shards must be positive")?)
        .start()?)
}

/// `ltc stream` / `ltc resume`: serve a line-by-line check-in stream
/// through a [`Session`] — the in-process pipelined runtime built from
/// `--input` or restored from a `--snapshot` file, or a remote
/// `ltc serve` process for `--connect`; all run the same
/// [`drive_stream`] code path and emit identical NDJSON.
fn stream_cmd(
    source: &StreamSource,
    checkins: Option<&str>,
    pipeline: usize,
    rebalance: Option<u64>,
    snapshot_out: Option<&str>,
    metrics_out: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let mut session: Box<dyn Session> = match source {
        StreamSource::Dataset {
            input,
            algo,
            seed,
            shards,
        } => Box::new(start_dataset_session(input, *algo, *seed, *shards)?),
        StreamSource::Connect { addr, session } => match session {
            // Without --session the stream binds to the server's default
            // session.
            None => Box::new(
                LtcClient::connect_v2(addr.as_str())
                    .map_err(|e| format!("cannot reach `{addr}`: {e}"))?,
            ),
            Some(name) => Box::new(connect_session(addr, name)?),
        },
        StreamSource::Snapshot { path } => {
            let file =
                std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
            let decoded = snapshot_format::read_snapshot(std::io::BufReader::new(file))?;
            Box::new(ServiceHandle::restore(decoded)?)
        }
    };
    drive_stream(
        session.as_mut(),
        checkins,
        pipeline,
        rebalance,
        snapshot_out,
        metrics_out,
        out,
    )
}

/// Builds the session factory a multi-session server opens named
/// sessions through: every session starts from the serve command's
/// dataset template (same problem parameters, region, tasks) with the
/// open request's algorithm/shard/region overrides applied.
fn session_factory(template: ServiceBuilder) -> SessionFactory {
    Box::new(move |config: &SessionConfig| {
        let mut builder = template.clone();
        if let Some(algorithm) = config.algorithm {
            builder = builder.algorithm(algorithm);
        }
        if let Some(shards) = config.shards {
            let shards = NonZeroUsize::new(shards)
                .ok_or_else(|| ServiceError::Session("shards must be positive".into()))?;
            builder = builder.shards(shards);
        }
        if let Some(region) = config.region {
            builder = builder.region(region);
        }
        Ok(Box::new(builder.start()?))
    })
}

/// `ltc serve`: build the service exactly like `stream --input` would
/// and expose it over TCP (`ltc-proto`) until a client requests
/// shutdown. The bound address is printed (and flushed) first, so
/// scripts may bind port 0 and read the real port back.
///
/// With `--max-sessions N` the server carries a [`SessionTable`] with a
/// factory: `ltc-proto v2` clients may open up to N named sessions,
/// each a fresh service built from the dataset template. Idle evictions
/// (`--idle-timeout`) are announced as NDJSON lines on **stderr** (the
/// stdout NDJSON stream belongs to the banner protocol, and the
/// eviction fires on the reaper thread).
///
/// With `--wal DIR` the session is wrapped in a
/// [`DurableHandle`]: a fresh directory is initialized from the
/// dataset, while a directory that already holds a log is *resumed* —
/// recovered, replayed, re-checkpointed — and `--input` is only used
/// if the directory is fresh.
#[allow(clippy::too_many_arguments)]
fn serve_cmd(
    input: &str,
    algo: AlgoChoice,
    seed: u64,
    shards: usize,
    addr: &str,
    max_sessions: usize,
    idle_timeout: Option<u64>,
    wal: Option<WalChoice>,
    out: &mut dyn Write,
) -> CmdResult {
    let bind_failed = |e: std::io::Error| format!("cannot bind `{addr}`: {e}");
    let (server, n_shards, n_tasks, mut notes) = match &wal {
        None => {
            let instance = load(input)?;
            let template = ServiceBuilder::from_instance(&instance)
                .algorithm(service_algorithm(algo, seed))
                .shards(NonZeroUsize::new(shards).ok_or("--shards must be positive")?);
            let handle = template.clone().start()?;
            let (n_shards, n_tasks) = (handle.n_shards(), handle.n_tasks() as u64);
            let server = if max_sessions > 1 {
                let table = SessionTable::with_factory(
                    handle,
                    session_factory(template),
                    max_sessions,
                    idle_timeout.map(std::time::Duration::from_secs),
                )
                .on_evict(|sid| {
                    let mut line = String::from("{\"session_evicted\":true,\"sid\":");
                    ltc_proto::json::push_escaped(&mut line, sid);
                    line.push('}');
                    let mut err = std::io::stderr().lock();
                    writeln!(err, "{line}").ok();
                });
                LtcServer::bind_table(addr, table)
            } else {
                LtcServer::bind(addr, handle)
            }
            .map_err(bind_failed)?;
            (server, n_shards, n_tasks, String::new())
        }
        Some(choice) => {
            let dir = std::path::Path::new(&choice.dir);
            let options = choice.options;
            let mut wal_note = String::from(",\"wal\":");
            ltc_proto::json::push_escaped(&mut wal_note, &choice.dir);
            let session = if DurableHandle::is_initialized(dir) {
                let (session, report) = DurableHandle::resume(dir, options)?;
                wal_note.push_str(&format!(
                    ",\"resumed\":true,\"replayed\":{},\"truncated_bytes\":{}",
                    report.replayed, report.truncated_bytes
                ));
                session
            } else {
                let handle = start_dataset_session(input, algo, seed, shards)?;
                DurableHandle::create(handle, dir, options)?
            };
            let info = session.info();
            let server = LtcServer::bind(addr, session).map_err(bind_failed)?;
            (server, info.n_shards, info.n_tasks, wal_note)
        }
    };
    if max_sessions > 1 {
        notes.push_str(&format!(",\"max_sessions\":{max_sessions}"));
        if let Some(secs) = idle_timeout {
            notes.push_str(&format!(",\"idle_timeout_s\":{secs}"));
        }
    }
    writeln!(
        out,
        "{{\"serve\":true,\"addr\":\"{}\",\"algo\":\"{}\",\"shards\":{n_shards},\
         \"tasks\":{n_tasks}{notes}}}",
        server.local_addr(),
        algo.name()
    )?;
    out.flush()?;
    server.run()?;
    writeln!(out, "{{\"serve_stopped\":true}}")?;
    Ok(())
}

/// Connects an `ltc-proto v2` client bound to the named session,
/// opening it (with the server's template configuration) if the server
/// does not carry it yet. The open is raced against concurrent
/// openers: losing the race falls back to attaching to the winner's
/// session.
fn connect_session(addr: &str, name: &str) -> Result<LtcClient, Box<dyn Error>> {
    let mut client =
        LtcClient::connect_v2(addr).map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
    if client.attach_session(name).is_ok() {
        return Ok(client);
    }
    match client.open_session(name, &SessionConfig::default()) {
        Ok(_) => Ok(client),
        Err(open_err) => {
            // A concurrent opener may have won the race after our
            // attach probe; attaching to its session is the intent.
            client
                .attach_session(name)
                .map_err(|_| format!("cannot bind session `{name}` on `{addr}`: {open_err}"))?;
            Ok(client)
        }
    }
}

/// `ltc sessions`: list a server's live sessions, one NDJSON line per
/// session (name order), plus a `sessions` summary line.
fn sessions_cmd(addr: &str, out: &mut dyn Write) -> CmdResult {
    let mut client =
        LtcClient::connect_v2(addr).map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
    let sessions = client.list_sessions()?;
    for stat in &sessions {
        let mut line = String::from("{\"session\":");
        ltc_proto::json::push_escaped(&mut line, &stat.sid);
        line.push_str(&format!(
            ",\"algo\":\"{}\",\"shards\":{},\"tasks\":{},\"attached\":{}}}",
            stat.algorithm.name(),
            stat.n_shards,
            stat.n_tasks,
            stat.attached
        ));
        writeln!(out, "{line}")?;
    }
    writeln!(out, "{{\"sessions\":true,\"open\":{}}}", sessions.len())?;
    Ok(())
}

/// `ltc recover`: run crash recovery on a `--wal` directory without
/// serving — repair a torn tail, restore the newest checkpoint, replay
/// the log suffix, seal the result under a fresh covering checkpoint,
/// and compact. Idempotent, and exactly what a `serve --wal` restart
/// would do first; running it separately lets an operator inspect the
/// outcome (or export `--snapshot-out` for `ltc resume`) before
/// bringing the service back.
fn recover_cmd(wal: &str, snapshot_out: Option<&str>, out: &mut dyn Write) -> CmdResult {
    let dir = std::path::Path::new(wal);
    let (mut session, report) = DurableHandle::resume(dir, DurableOptions::default())?;
    if let Some(path) = snapshot_out {
        let snap = session.snapshot()?;
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let mut file = std::io::BufWriter::new(file);
        snapshot_format::write_snapshot(&snap, &mut file)?;
        file.flush()?;
    }
    session.shutdown()?;
    let mut dir_json = String::new();
    ltc_proto::json::push_escaped(&mut dir_json, wal);
    writeln!(
        out,
        "{{\"recover\":true,\"wal\":{dir_json},\"checkpoint_seq\":{},\
         \"checkpoints_skipped\":{},\"replayed\":{},\"truncated_bytes\":{},\"next_seq\":{}}}",
        report.checkpoint_seq,
        report.checkpoints_skipped,
        report.replayed,
        report.truncated_bytes,
        report.next_seq
    )?;
    Ok(())
}

/// Blocks until one of *our own* submitted check-ins finishes on the
/// subscription, writes its NDJSON line, and decrements the in-flight
/// count. Returns how many task completions were observed along the way
/// (including ones committed by other clients of a shared remote
/// session, whose worker events are otherwise skipped — this stream
/// only reports the check-ins it submitted, but completion is global).
fn pump_worker_event(
    events: &EventStream,
    mine: &mut std::collections::HashSet<u64>,
    in_flight: &mut usize,
    out: &mut dyn Write,
) -> Result<u64, Box<dyn Error>> {
    let mut completed = 0u64;
    loop {
        let Some(delivery) = events.next_event() else {
            return Err("the session stopped mid-stream".into());
        };
        if let StreamEvent::Worker { worker, events } = delivery {
            completed += events
                .iter()
                .filter(|e| matches!(e, Event::TaskCompleted { .. }))
                .count() as u64;
            if mine.remove(&worker.0) {
                write_stream_event(out, worker.0, &events)?;
                *in_flight -= 1;
                return Ok(completed);
            }
        }
        // Lifecycle notices, task posts, and other clients' check-ins
        // carry no NDJSON line here.
    }
}

/// Writes the final machine-readable metrics line (`--metrics-out`):
/// everything a bench harness wants to scrape, deterministic — no
/// timing fields.
fn write_metrics_line(path: &str, algo: &str, m: &ServiceMetrics) -> CmdResult {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
    let mut file = std::io::BufWriter::new(file);
    write!(
        file,
        "{{\"metrics\":true,\"algo\":\"{algo}\",\"workers\":{},\"assignments\":{},\
         \"tasks\":{},\"completed_tasks\":{},\"clamped_insertions\":{},\"rebalances\":{},\
         \"shard_loads\":[",
        m.n_workers_seen,
        m.n_assignments,
        m.n_tasks,
        m.n_completed,
        m.clamped_insertions,
        m.rebalances
    )?;
    for (i, load) in m.shard_loads.iter().enumerate() {
        if i > 0 {
            write!(file, ",")?;
        }
        write!(file, "{load}")?;
    }
    match m.latency {
        Some(l) => write!(file, "],\"latency\":{l}")?,
        None => write!(file, "],\"latency\":null")?,
    }
    writeln!(
        file,
        ",\"wal_records\":{},\"checkpoints\":{},\"sessions_open\":{},\"sessions_evicted\":{}}}",
        m.wal_records, m.checkpoints, m.sessions_open, m.sessions_evicted
    )?;
    // Surface buffered-write failures (ENOSPC at drop time would
    // otherwise vanish and leave a truncated file behind an exit 0).
    file.flush()?;
    Ok(())
}

/// Collects the worker arrival ids out of a batch of deferred window
/// acknowledgements (`drive_stream` submits no tasks, so only worker
/// acks can appear).
fn register_acks(acks: Vec<WindowAck>, mine: &mut std::collections::HashSet<u64>) {
    for ack in acks {
        if let WindowAck::Worker(id) = ack {
            mine.insert(id.0);
        }
    }
}

/// The shared streaming loop behind `stream` and `resume`
/// — written against `dyn Session`, so the in-process runtime and a
/// remote `ltc serve` session run the *same* code path and emit
/// byte-identical NDJSON (differentially tested). Submissions keep up
/// to `pipeline` check-ins in flight (1 = lockstep); each worker's
/// events are written the moment they are delivered, which the session
/// contract guarantees is submission order. Completion is tracked from
/// the delivered events themselves (the session's counters may lag
/// in-flight work, and polling a remote one per line would cost a round
/// trip).
///
/// The depth is also requested as the session's submission window, and
/// the grant picks the cadence. An in-process session grants 1 (it is
/// its own acknowledgement) and gets the *sliding* cadence: each
/// submission is acked at once, and events are pumped whenever
/// `pipeline` check-ins are in flight. A remote session grants a real
/// window and gets the *batch* cadence: check-ins are fired through
/// [`Session::submit_worker_windowed`] until the depth is reached, then
/// the loop collects their deferred acknowledgements and pumps their
/// events — the acks must land first, because the subscription is
/// filtered by the arrival ids they carry. Near the end of the instance
/// either depth shrinks to `ceil(remaining_tasks / capacity)`, so no
/// check-in is submitted that lockstep would not have read. Output stays
/// byte-identical to lockstep, summary line included: events are still
/// written in submission order, only the request/ack cadence changes.
fn drive_stream(
    session: &mut dyn Session,
    checkins: Option<&str>,
    pipeline: usize,
    rebalance_every: Option<u64>,
    snapshot_out: Option<&str>,
    metrics_out: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let stdin;
    let file;
    let reader: Box<dyn BufRead> = match checkins {
        Some(path) => {
            file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
            Box::new(std::io::BufReader::new(file))
        }
        None => {
            stdin = std::io::stdin();
            Box::new(stdin.lock())
        }
    };

    let info = session.info();
    let algo_name = info.algorithm.name();
    let min_accuracy = info.params.min_accuracy;
    let capacity = u64::from(info.params.capacity).max(1);
    // One round trip up front: how much of the pool is already done
    // (resumed sessions, or a shared remote session mid-run).
    let opening = session.metrics()?;
    let mut completed_tasks = opening.n_completed;
    let total_tasks = opening.n_tasks;

    // The depth doubles as the requested submission window; the grant
    // picks the cadence below (a remote session clamps to what its
    // server advertises; in-process sessions grant 1).
    let window = session.set_window(pipeline)?;
    // One check-in completes at most `capacity` tasks, so with
    // `remaining` tasks open, fewer than ceil(remaining / capacity)
    // check-ins in flight cannot have finished the instance: capping
    // the in-flight count there never reads a check-in lockstep would
    // not read.
    let cap = |completed: u64| {
        let remaining = total_tasks.saturating_sub(completed);
        pipeline.min(remaining.div_ceil(capacity).max(1) as usize)
    };
    let events = session.subscribe()?;
    let started = std::time::Instant::now(); // ltc-lint: allow(L006) informational elapsed-time summary; the event stream and totals are clock-free

    let mut spam_skipped: u64 = 0;
    let mut in_flight: usize = 0;
    let mut accepted: u64 = 0;
    // Arrival ids of our own in-flight submissions: a shared remote
    // session broadcasts every client's events, and this stream must
    // report exactly the check-ins it submitted.
    let mut mine: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (lineno, line) in reader.lines().enumerate() {
        // Both cadences below stay under `cap`, so completion is seen
        // here exactly when lockstep would see it.
        if completed_tasks >= total_tasks {
            break;
        }
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let worker = parse_checkin(line, lineno + 1)?;
        // The paper's preprocessing: spam workers are ignored entirely
        // (they do not consume an arrival index).
        if worker.accuracy < min_accuracy {
            spam_skipped += 1;
            continue;
        }
        // With a window of 1 this is exactly `submit_worker`: the ack —
        // and the arrival id the event filter needs — comes back
        // immediately. Deeper windows defer acks; they are collected
        // (below) before any event could be pumped against them.
        if let Some(ack) = session.submit_worker_windowed(&worker)? {
            register_acks(vec![ack], &mut mine);
        }
        in_flight += 1;
        accepted += 1;
        if window > 1 {
            // Batch cadence: fire up to the depth, then settle it — the
            // acks (all buffered by now; firing ran ahead of them) and
            // then the events. Draining the whole batch keeps the next
            // window's sends free of per-submission round trips.
            //
            // The batch is completion-aware (`cap`), so the summary's
            // workers-read count equals lockstep's.
            if in_flight >= cap(completed_tasks) {
                register_acks(session.flush_window()?, &mut mine);
                while in_flight > 0 {
                    completed_tasks += pump_worker_event(&events, &mut mine, &mut in_flight, out)?;
                }
            }
        } else {
            // Sliding cadence: the same cap, re-read after every pump.
            while in_flight >= cap(completed_tasks) {
                completed_tasks += pump_worker_event(&events, &mut mine, &mut in_flight, out)?;
            }
        }
        if let Some(every) = rebalance_every {
            if accepted.is_multiple_of(every) {
                // Flush the pipeline first so NDJSON lines stay in
                // submission order around the quiesce, then re-split the
                // stripes by live-task load (exact — assignments are
                // unchanged, only placement).
                register_acks(session.flush_window()?, &mut mine);
                while in_flight > 0 {
                    completed_tasks += pump_worker_event(&events, &mut mine, &mut in_flight, out)?;
                }
                if let Some(outcome) = session.rebalance()? {
                    writeln!(
                        out,
                        "{{\"rebalance\":true,\"after_workers\":{accepted},\
                         \"moved_tasks\":{},\"max_mean_ratio\":{:.3}}}",
                        outcome.moved_tasks,
                        outcome.max_mean_ratio()
                    )?;
                }
            }
        }
    }
    register_acks(session.flush_window()?, &mut mine);
    while in_flight > 0 {
        pump_worker_event(&events, &mut mine, &mut in_flight, out)?;
    }
    session.drain()?;

    let elapsed = started.elapsed().as_secs_f64();
    let metrics = session.metrics()?;
    let completed = metrics.all_completed();
    let workers = metrics.n_workers_seen;
    let latency = match metrics.latency {
        Some(l) => l.to_string(),
        None => "null".to_string(),
    };
    writeln!(
        out,
        "{{\"summary\":true,\"algo\":\"{algo_name}\",\"workers\":{workers},\"spam_skipped\":{spam_skipped},\
         \"assignments\":{},\"tasks\":{},\"completed_tasks\":{},\
         \"completed\":{completed},\"latency\":{latency},\"elapsed_s\":{elapsed:.6}}}",
        metrics.n_assignments, metrics.n_tasks, metrics.n_completed,
    )?;
    if let Some(path) = snapshot_out {
        let snapshot = session.snapshot()?;
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        snapshot_format::write_snapshot(&snapshot, std::io::BufWriter::new(file))?;
        writeln!(
            out,
            "{{\"snapshot\":\"{path}\",\"shards\":{}}}",
            metrics.shard_loads.len()
        )?;
    }
    if let Some(path) = metrics_out {
        write_metrics_line(path, algo_name, &metrics)?;
    }
    Ok(())
}

fn exact(input: &str, budget: u64, out: &mut dyn Write) -> CmdResult {
    let instance = load(input)?;
    let solver = ExactSolver {
        node_budget: budget,
    };
    match solver.solve(&instance) {
        Some(result) => {
            match result.optimal_latency {
                Some(opt) => writeln!(out, "optimal latency: {opt}")?,
                None => writeln!(out, "INFEASIBLE: no arrangement completes all tasks")?,
            }
            writeln!(out, "search nodes expanded: {}", result.nodes_expanded)?;
        }
        None => writeln!(
            out,
            "node budget ({budget}) exhausted — the instance is too large for the \
             exact solver; try a heuristic via `ltc run`"
        )?,
    }
    Ok(())
}

fn simulate_cmd(
    input: &str,
    algo: AlgoChoice,
    trials: usize,
    seed: u64,
    out: &mut dyn Write,
) -> CmdResult {
    let instance = load(input)?;
    let outcome = run_choice(&instance, algo);
    if !outcome.completed {
        writeln!(out, "warning: {} left tasks unfinished", algo.name())?;
    }
    let truth = GroundTruth::random(instance.n_tasks(), seed);
    let report = simulate(&instance, &outcome.arrangement, &truth, trials, seed ^ 0x51);
    writeln!(
        out,
        "{} over {trials} trials: worst-task error {:.4}, mean {:.4} (ε = {})",
        algo.name(),
        report.max_task_error_rate(),
        report.mean_task_error_rate(),
        instance.params().epsilon
    )?;

    // One sampled round, aggregated three ways.
    let answers = AnswerSet::collect(&instance, &outcome.arrangement, &truth, seed ^ 0xA7);
    let majority = infer_majority(&answers);
    let em = infer_em(&answers, EmConfig::default());
    let err = |labels: &[i8]| {
        let wrong = labels
            .iter()
            .enumerate()
            .filter(|(t, &l)| l != truth.label(*t))
            .count();
        wrong as f64 / labels.len() as f64
    };
    writeln!(
        out,
        "single-round inference error: majority {:.4}, EM {:.4} ({} iters)",
        err(&majority),
        err(&em.labels),
        em.iterations
    )?;
    Ok(())
}

fn bounds(input: &str, out: &mut dyn Write) -> CmdResult {
    let instance = load(input)?;
    writeln!(
        out,
        "Theorem 2 bounds for {} tasks / {} workers (δ = {:.3}, K = {}):",
        instance.n_tasks(),
        instance.n_workers(),
        instance.delta(),
        instance.params().capacity
    )?;
    writeln!(out, "  lower: {:.1}", latency_lower_bound(&instance))?;
    writeln!(out, "  upper: {:.1}", latency_upper_bound(&instance))?;
    writeln!(out, "  MCF-LTC batch size m: {}", batch_size(&instance))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::args::AlgoChoice;
    use ltc_proto::{LtcClient, LtcServer, RunningServer};

    fn run_cli(line: &str) -> (i32, String) {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut buf = Vec::new();
        let code = crate::run(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("ltc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cli("help");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, out) = run_cli("explode");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn generate_run_simulate_bounds_pipeline() {
        let path = temp_path("pipeline.tsv");
        let (code, out) = run_cli(&format!(
            "generate --preset synthetic --scale 256 --seed 3 --out {path}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote"));

        let (code, out) = run_cli(&format!("run --input {path} --algo aam --stats"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("latency"));
        assert!(out.contains("capacity utilization"));

        let (code, out) = run_cli(&format!("simulate --input {path} --algo laf --trials 50"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("worst-task error"));
        assert!(out.contains("EM"));

        let (code, out) = run_cli(&format!("bounds --input {path}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("lower"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_to_stdout() {
        let (code, out) = run_cli("generate --preset newyork --scale 512");
        assert_eq!(code, 0);
        assert!(out.starts_with("# ltc-dataset v1"));
        assert!(out.contains("worker\t"));
    }

    #[test]
    fn exact_on_tiny_instance() {
        let path = temp_path("tiny.tsv");
        // Hand-written tiny dataset: one task, three co-located workers.
        let data = "# ltc-dataset v1\nparams\t0.3\t1\t30\t0.66\ntask\t5\t5\n\
                    worker\t5\t6\t0.95\nworker\t5\t6\t0.95\nworker\t5\t6\t0.95\n";
        std::fs::write(&path, data).unwrap();
        let (code, out) = run_cli(&format!("exact --input {path}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("optimal latency: 3"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_emits_ndjson_and_summary() {
        let data_path = temp_path("stream_data.tsv");
        let checkin_path = temp_path("stream_checkins.tsv");
        // One task, ε = 0.3 ⇒ δ ≈ 2.41; co-located 0.95-accuracy workers
        // contribute ≈ 0.81 each ⇒ 3 accepted check-ins complete it.
        let data = "# ltc-dataset v1\nparams\t0.3\t1\t30\t0.66\ntask\t5\t5\n";
        std::fs::write(&data_path, data).unwrap();
        let checkins =
            "# comment line\n5\t6\t0.95\nworker\t5\t6\t0.95\n5\t6\t0.2\n\n5 6 0.95\n5\t6\t0.95\n";
        std::fs::write(&checkin_path, checkins).unwrap();

        let (code, out) = run_cli(&format!(
            "stream --input {data_path} --algo laf --checkins {checkin_path}"
        ));
        assert_eq!(code, 0, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        // Three assignment events (spam line skipped, 4th check-in unused
        // because the task completes at the 3rd) plus the summary.
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains("\"worker\":0"));
        assert!(lines[0].contains("\"assignments\":[{\"task\":0"));
        assert!(lines[0].contains("\"newly_completed\":[]"));
        assert!(lines[2].contains("\"newly_completed\":[0]"));
        let summary = lines[3];
        assert!(summary.contains("\"summary\":true"), "{summary}");
        assert!(summary.contains("\"workers\":3"), "{summary}");
        assert!(summary.contains("\"spam_skipped\":1"), "{summary}");
        assert!(summary.contains("\"completed\":true"), "{summary}");
        assert!(summary.contains("\"latency\":3"), "{summary}");
    }

    #[test]
    fn stream_reports_incomplete_on_exhausted_checkins() {
        let data_path = temp_path("stream_incomplete.tsv");
        let checkin_path = temp_path("stream_incomplete_checkins.tsv");
        let data = "# ltc-dataset v1\nparams\t0.1\t1\t30\t0.66\ntask\t5\t5\n";
        std::fs::write(&data_path, data).unwrap();
        std::fs::write(&checkin_path, "5\t6\t0.95\n").unwrap();
        let (code, out) = run_cli(&format!(
            "stream --input {data_path} --algo aam --checkins {checkin_path}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"completed\":false"), "{out}");
        assert!(out.contains("\"latency\":null"), "{out}");
    }

    #[test]
    fn stream_rejects_malformed_checkins() {
        let data_path = temp_path("stream_bad.tsv");
        let checkin_path = temp_path("stream_bad_checkins.tsv");
        let data = "# ltc-dataset v1\nparams\t0.3\t1\t30\t0.66\ntask\t5\t5\n";
        std::fs::write(&data_path, data).unwrap();
        std::fs::write(&checkin_path, "5\tnot-a-number\t0.9\n").unwrap();
        let (code, out) = run_cli(&format!(
            "stream --input {data_path} --algo laf --checkins {checkin_path}"
        ));
        assert_eq!(code, 1);
        assert!(out.contains("check-in line 1"), "{out}");
    }

    #[test]
    fn stream_random_is_seed_deterministic() {
        let data_path = temp_path("stream_rand.tsv");
        let checkin_path = temp_path("stream_rand_checkins.tsv");
        let mut data = String::from("# ltc-dataset v1\nparams\t0.3\t2\t30\t0.66\n");
        for t in 0..4 {
            data.push_str(&format!("task\t{}\t0\n", t * 3));
        }
        std::fs::write(&data_path, &data).unwrap();
        let mut checkins = String::new();
        for i in 0..40 {
            checkins.push_str(&format!("{}\t1\t0.9\n", (i % 4) * 3));
        }
        std::fs::write(&checkin_path, &checkins).unwrap();
        let run = |seed: u64| {
            run_cli(&format!(
                "stream --input {data_path} --algo random --checkins {checkin_path} --seed {seed}"
            ))
        };
        let (code_a, a) = run(9);
        let (_, b) = run(9);
        let (_, c) = run(10);
        assert_eq!(code_a, 0, "{a}");
        // Strip the timing field before comparing.
        let strip = |s: &str| {
            s.lines()
                .map(|l| l.split(",\"elapsed_s\"").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
        assert_ne!(strip(&a), strip(&c));
    }

    #[test]
    fn stream_shards_flag_preserves_laf_output() {
        let data_path = temp_path("stream_shards.tsv");
        let checkin_path = temp_path("stream_shards_checkins.tsv");
        let mut data = String::from("# ltc-dataset v1\nparams\t0.3\t2\t30\t0.66\n");
        for t in 0..8 {
            data.push_str(&format!("task\t{}\t5\n", t * 100));
        }
        std::fs::write(&data_path, &data).unwrap();
        let mut checkins = String::new();
        for i in 0..120 {
            checkins.push_str(&format!("{}\t5\t0.95\n", (i % 8) * 100));
        }
        std::fs::write(&checkin_path, &checkins).unwrap();
        let run = |shards: usize| {
            run_cli(&format!(
                "stream --input {data_path} --algo laf --checkins {checkin_path} \
                 --shards {shards}"
            ))
        };
        let strip = |s: &str| {
            s.lines()
                .map(|l| l.split(",\"elapsed_s\"").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let (code1, one) = run(1);
        let (code4, four) = run(4);
        assert_eq!(code1, 0, "{one}");
        assert_eq!(code4, 0, "{four}");
        // LAF's merge tie-break equals its selection key, so the sharded
        // service commits the same assignments.
        assert_eq!(strip(&one), strip(&four));
        assert!(one.contains("\"completed\":true"), "{one}");
    }

    #[test]
    fn pipelined_stream_emits_the_same_assignment_lines() {
        // Deeper pipelines overlap submissions with processing but must
        // read exactly the check-ins lockstep reads: the whole output,
        // summary included, is byte-identical modulo elapsed time.
        let data_path = temp_path("stream_pipe.tsv");
        let checkin_path = temp_path("stream_pipe_checkins.tsv");
        let mut data = String::from("# ltc-dataset v1\nparams\t0.3\t2\t30\t0.66\n");
        for t in 0..8 {
            data.push_str(&format!("task\t{}\t5\n", t * 60));
        }
        std::fs::write(&data_path, &data).unwrap();
        let mut checkins = String::new();
        for i in 0..200 {
            checkins.push_str(&format!("{}\t6\t0.9{}\n", (i % 8) * 60, i % 9));
        }
        std::fs::write(&checkin_path, &checkins).unwrap();
        for (algo, shards) in [("laf", 1), ("laf", 4), ("aam", 1), ("random", 1)] {
            let run = |pipeline: usize| {
                run_cli(&format!(
                    "stream --input {data_path} --algo {algo} --checkins {checkin_path} \
                     --shards {shards} --pipeline {pipeline}"
                ))
            };
            let (code1, lockstep) = run(1);
            let (code16, deep) = run(16);
            assert_eq!(code1, 0, "{lockstep}");
            assert_eq!(code16, 0, "{deep}");
            assert_eq!(
                strip_elapsed(&lockstep),
                strip_elapsed(&deep),
                "{algo}/{shards}: pipelining changed the output"
            );
        }
    }

    #[test]
    fn snapshot_then_resume_matches_an_uninterrupted_stream() {
        let data_path = temp_path("snap_data.tsv");
        let all_checkins = temp_path("snap_all.tsv");
        let first_half = temp_path("snap_first.tsv");
        let second_half = temp_path("snap_second.tsv");
        let snap_path = temp_path("snap_state.ltc");
        let mut data = String::from("# ltc-dataset v1\nparams\t0.14\t2\t30\t0.66\n");
        for t in 0..6 {
            data.push_str(&format!("task\t{}\t5\n", t * 40));
        }
        std::fs::write(&data_path, &data).unwrap();
        let lines: Vec<String> = (0..80)
            .map(|i| format!("{}\t6\t0.9{}", (i % 6) * 40, i % 9))
            .collect();
        std::fs::write(&all_checkins, lines.join("\n")).unwrap();
        std::fs::write(&first_half, lines[..30].join("\n")).unwrap();
        std::fs::write(&second_half, lines[30..].join("\n")).unwrap();

        let (code, full) = run_cli(&format!(
            "stream --input {data_path} --algo aam --checkins {all_checkins}"
        ));
        assert_eq!(code, 0, "{full}");

        let (code, first) = run_cli(&format!(
            "stream --input {data_path} --algo aam --checkins {first_half} \
             --snapshot-out {snap_path}"
        ));
        assert_eq!(code, 0, "{first}");
        assert!(first.contains("\"snapshot\""), "{first}");
        let (code, second) = run_cli(&format!(
            "resume --snapshot {snap_path} --checkins {second_half}"
        ));
        assert_eq!(code, 0, "{second}");

        // Interrupted event lines (sans each run's summary/snapshot tail)
        // concatenate to exactly the uninterrupted run's event lines.
        let events = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("{\"worker\""))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let mut stitched = events(&first);
        stitched.extend(events(&second));
        assert_eq!(events(&full), stitched);
        // And the final summaries agree on everything but timing.
        let summary = |s: &str| {
            s.lines()
                .find(|l| l.contains("\"summary\":true"))
                .unwrap()
                .split(",\"elapsed_s\"")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(summary(&full), summary(&second));
        for p in [&all_checkins, &first_half, &second_half, &snap_path] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Spawns an `ltc serve`-equivalent server over the dataset (the
    /// `serve` command is a thin wrapper over exactly this).
    fn spawn_server(data_path: &str, shards: usize) -> RunningServer {
        let handle = super::start_dataset_session(data_path, AlgoChoice::Laf, 0x5EED, shards)
            .expect("test dataset builds");
        LtcServer::bind("127.0.0.1:0", handle)
            .unwrap()
            .spawn()
            .unwrap()
    }

    fn write_parity_fixture(data_path: &str, checkin_path: &str) {
        let mut data = String::from("# ltc-dataset v1\nparams\t0.3\t2\t30\t0.66\n");
        for t in 0..8 {
            data.push_str(&format!("task\t{}\t5\n", t * 100));
        }
        std::fs::write(data_path, &data).unwrap();
        let mut checkins = String::new();
        for i in 0..160 {
            checkins.push_str(&format!("{}\t6\t0.9{}\n", (i % 8) * 100, i % 9));
        }
        std::fs::write(checkin_path, &checkins).unwrap();
    }

    fn strip_elapsed(s: &str) -> Vec<String> {
        s.lines()
            .map(|l| l.split(",\"elapsed_s\"").next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn stream_connect_is_byte_identical_to_in_process() {
        // The acceptance criterion of the transport redesign: `ltc
        // stream` driven through LtcClient → TCP → the server produces
        // byte-identical NDJSON to the in-process pipeline, at 1 and 4
        // shards — including the snapshot taken at the end (written
        // server-side over the wire vs. locally).
        let data_path = temp_path("connect_parity.tsv");
        let checkin_path = temp_path("connect_parity_checkins.tsv");
        write_parity_fixture(&data_path, &checkin_path);
        for shards in [1usize, 4] {
            let local_snap = temp_path(&format!("connect_local_{shards}.ltc"));
            let remote_snap = temp_path(&format!("connect_remote_{shards}.ltc"));
            let (code, local) = run_cli(&format!(
                "stream --input {data_path} --algo laf --shards {shards} \
                 --checkins {checkin_path} --snapshot-out {local_snap}"
            ));
            assert_eq!(code, 0, "{local}");

            let server = spawn_server(&data_path, shards);
            let (code, remote) = run_cli(&format!(
                "stream --connect {} --checkins {checkin_path} --snapshot-out {remote_snap}",
                server.addr()
            ));
            assert_eq!(code, 0, "{remote}");
            server.stop().unwrap();

            // Whole-output equality modulo the timing field — the
            // snapshot path differs too, so compare that line's prefix.
            let scrub = |s: &str, snap: &str| {
                strip_elapsed(s)
                    .into_iter()
                    .map(|l| l.replace(snap, "SNAP"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                scrub(&local, &local_snap),
                scrub(&remote, &remote_snap),
                "shards={shards}: remote NDJSON diverged from in-process"
            );
            assert!(local.contains("\"completed\":true"), "{local}");
            // The server-side snapshot crossed the wire bit-exactly.
            let a = std::fs::read(&local_snap).unwrap();
            let b = std::fs::read(&remote_snap).unwrap();
            assert_eq!(a, b, "shards={shards}: snapshot files diverged");
            std::fs::remove_file(&local_snap).ok();
            std::fs::remove_file(&remote_snap).ok();
        }
        std::fs::remove_file(&data_path).ok();
        std::fs::remove_file(&checkin_path).ok();
    }

    #[test]
    fn windowed_stream_summary_matches_lockstep() {
        // The windowed driver drains completion-aware: near the end of
        // the instance the batch shrinks to ceil(remaining / capacity),
        // so a deep window submits exactly the check-ins lockstep reads
        // and the closing summary — workers-read count included — is
        // byte-identical, not just the event lines. (Before this, a
        // wide window consumed up to W-1 extra check-ins past
        // completion and the summaries legitimately diverged.)
        let data_path = temp_path("windowed_summary.tsv");
        let checkin_path = temp_path("windowed_summary_checkins.tsv");
        write_parity_fixture(&data_path, &checkin_path);
        let mut outputs = Vec::new();
        for pipeline in [1usize, 256] {
            let server = spawn_server(&data_path, 4);
            let (code, out) = run_cli(&format!(
                "stream --connect {} --checkins {checkin_path} --pipeline {pipeline}",
                server.addr()
            ));
            assert_eq!(code, 0, "pipeline={pipeline}: {out}");
            server.stop().unwrap();
            assert!(out.contains("\"completed\":true"), "{out}");
            outputs.push(strip_elapsed(&out));
        }
        assert_eq!(
            outputs[0], outputs[1],
            "pipeline=256 output (summary included) diverged from lockstep"
        );
        // In process the same depths take the sliding cadence (the
        // session grants a window of 1) and print the same bytes.
        for pipeline in [1usize, 32] {
            let (code, out) = run_cli(&format!(
                "stream --input {data_path} --algo laf --shards 4 \
                 --checkins {checkin_path} --pipeline {pipeline}"
            ));
            assert_eq!(code, 0, "in-process pipeline={pipeline}: {out}");
            assert_eq!(
                strip_elapsed(&out),
                outputs[0],
                "in-process pipeline={pipeline} diverged from remote lockstep"
            );
        }
        std::fs::remove_file(&data_path).ok();
        std::fs::remove_file(&checkin_path).ok();
    }

    /// Captures serve's output and hands the first line (the address
    /// announcement) to the test the moment it is flushed.
    struct AnnounceWriter {
        buf: Vec<u8>,
        first_line: Option<std::sync::mpsc::Sender<String>>,
    }
    impl std::io::Write for AnnounceWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            if self.buf.contains(&b'\n') {
                if let Some(tx) = self.first_line.take() {
                    let line = String::from_utf8_lossy(&self.buf);
                    tx.send(line.lines().next().unwrap_or("").to_string()).ok();
                }
            }
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs an `ltc serve` command line on a background thread and
    /// returns its announce line (with the resolved `--addr 0` port)
    /// plus the join handle yielding `(exit code, full output)`.
    fn spawn_serve_cli(line: &str) -> (String, std::thread::JoinHandle<(i32, String)>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let serve_thread = std::thread::spawn(move || {
            let mut out = AnnounceWriter {
                buf: Vec::new(),
                first_line: Some(tx),
            };
            let code = crate::run(&argv, &mut out);
            (code, String::from_utf8_lossy(&out.buf).into_owned())
        });
        let announce = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("serve must announce its address");
        assert!(announce.contains("\"serve\":true"), "{announce}");
        (announce, serve_thread)
    }

    fn announced_addr(announce: &str) -> String {
        announce
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('\"').next())
            .expect("address in the announce line")
            .to_string()
    }

    #[test]
    fn serve_command_round_trips_on_localhost() {
        // End-to-end through the *CLI* serve command: bind port 0, read
        // the printed address, drive a remote stream, shut the server
        // down over the wire.
        use std::io::Write as _;

        let data_path = temp_path("serve_cmd.tsv");
        let checkin_path = temp_path("serve_cmd_checkins.tsv");
        write_parity_fixture(&data_path, &checkin_path);

        let (announce, serve_thread) = spawn_serve_cli(&format!(
            "serve --input {data_path} --algo laf --shards 2 --addr 127.0.0.1:0"
        ));
        let addr = announced_addr(&announce);

        let (code, out) = run_cli(&format!(
            "stream --connect {addr} --checkins {checkin_path}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"summary\":true"), "{out}");
        assert!(out.contains("\"completed\":true"), "{out}");

        use ltc_core::service::Session as _;
        let mut closer = LtcClient::connect_v2(addr.as_str()).unwrap();
        closer.shutdown().unwrap();
        let (code, serve_out) = serve_thread.join().unwrap();
        assert_eq!(code, 0, "{serve_out}");
        assert!(serve_out.contains("\"serve_stopped\":true"), "{serve_out}");
        let _ = std::io::sink().flush();
        std::fs::remove_file(&data_path).ok();
        std::fs::remove_file(&checkin_path).ok();
    }

    #[test]
    fn multi_session_serve_isolates_sessions_and_lists_them() {
        // Two named sessions on one `serve --max-sessions` process,
        // each driven through `stream --connect --session`, must emit
        // NDJSON byte-identical to dedicated in-process runs over the
        // same dataset template (fresh arrival ids, no cross-session
        // event leakage — a leaked completion would corrupt the other
        // session's summary counters), and `ltc sessions` must list
        // them.
        let data_path = temp_path("multi_session.tsv");
        let a_checkins = temp_path("multi_session_a.tsv");
        let b_checkins = temp_path("multi_session_b.tsv");
        write_parity_fixture(&data_path, &a_checkins);
        let mut b = String::new();
        for i in 0..60 {
            b.push_str(&format!("{}\t6\t0.9{}\n", ((i * 3) % 8) * 100, i % 7));
        }
        std::fs::write(&b_checkins, &b).unwrap();

        let (announce, serve_thread) = spawn_serve_cli(&format!(
            "serve --input {data_path} --algo laf --addr 127.0.0.1:0 --max-sessions 3"
        ));
        assert!(announce.contains("\"max_sessions\":3"), "{announce}");
        let addr = announced_addr(&announce);

        let (code, west) = run_cli(&format!(
            "stream --connect {addr} --session west --checkins {a_checkins}"
        ));
        assert_eq!(code, 0, "{west}");
        let (code, east) = run_cli(&format!(
            "stream --connect {addr} --session east --checkins {b_checkins}"
        ));
        assert_eq!(code, 0, "{east}");

        let (code, base_a) = run_cli(&format!(
            "stream --input {data_path} --algo laf --checkins {a_checkins}"
        ));
        assert_eq!(code, 0, "{base_a}");
        let (code, base_b) = run_cli(&format!(
            "stream --input {data_path} --algo laf --checkins {b_checkins}"
        ));
        assert_eq!(code, 0, "{base_b}");
        assert_eq!(strip_elapsed(&west), strip_elapsed(&base_a));
        assert_eq!(strip_elapsed(&east), strip_elapsed(&base_b));

        // A rerun against an existing session *attaches* (arrival ids
        // keep counting where the first run left them).
        let (code, west2) = run_cli(&format!(
            "stream --connect {addr} --session west --checkins {a_checkins}"
        ));
        assert_eq!(code, 0, "{west2}");
        assert_ne!(strip_elapsed(&west2), strip_elapsed(&west));

        let (code, listing) = run_cli(&format!("sessions --connect {addr}"));
        assert_eq!(code, 0, "{listing}");
        let lines: Vec<&str> = listing.lines().collect();
        assert!(
            lines[0].starts_with("{\"session\":\"default\""),
            "{listing}"
        );
        assert!(lines[1].starts_with("{\"session\":\"east\""), "{listing}");
        assert!(lines[2].starts_with("{\"session\":\"west\""), "{listing}");
        assert_eq!(lines[3], "{\"sessions\":true,\"open\":3}", "{listing}");

        use ltc_core::service::Session as _;
        let mut closer = LtcClient::connect_v2(addr.as_str()).unwrap();
        closer.shutdown().unwrap();
        let (code, serve_out) = serve_thread.join().unwrap();
        assert_eq!(code, 0, "{serve_out}");
        assert!(serve_out.contains("\"serve_stopped\":true"), "{serve_out}");
        for p in [&data_path, &a_checkins, &b_checkins] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sequential_clients_of_one_server_report_only_their_own_checkins() {
        // A shared remote session broadcasts every client's events; each
        // CLI stream must emit NDJSON only for the check-ins it
        // submitted (arrival ids keep counting across clients).
        let data_path = temp_path("multi_client.tsv");
        // One task far from completion (ε = 0.1 ⇒ δ ≈ 4.6; 0.8-accuracy
        // workers contribute 0.36 each, so 5 check-ins cannot finish it).
        let data = "# ltc-dataset v1\nparams\t0.1\t1\t30\t0.66\ntask\t5\t5\n";
        std::fs::write(&data_path, data).unwrap();
        let a_checkins = temp_path("multi_client_a.tsv");
        let b_checkins = temp_path("multi_client_b.tsv");
        std::fs::write(&a_checkins, "5\t6\t0.8\n".repeat(5)).unwrap();
        std::fs::write(&b_checkins, "5\t6\t0.8\n".repeat(5)).unwrap();

        let server = spawn_server(&data_path, 1);
        let (code, a_out) = run_cli(&format!(
            "stream --connect {} --checkins {a_checkins}",
            server.addr()
        ));
        assert_eq!(code, 0, "{a_out}");
        let (code, b_out) = run_cli(&format!(
            "stream --connect {} --checkins {b_checkins}",
            server.addr()
        ));
        assert_eq!(code, 0, "{b_out}");
        server.stop().unwrap();

        let ids = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("{\"worker\""))
                .map(|l| {
                    l.split("\"worker\":")
                        .nth(1)
                        .unwrap()
                        .split(',')
                        .next()
                        .unwrap()
                        .parse::<u64>()
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a_out), vec![0, 1, 2, 3, 4], "{a_out}");
        assert_eq!(ids(&b_out), vec![5, 6, 7, 8, 9], "{b_out}");
        // The second client's summary sees the whole session's counters.
        assert!(b_out.contains("\"workers\":10"), "{b_out}");
        for p in [&data_path, &a_checkins, &b_checkins] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn metrics_out_emits_the_literal_machine_readable_line() {
        let data_path = temp_path("metrics_data.tsv");
        let checkin_path = temp_path("metrics_checkins.tsv");
        let metrics_path = temp_path("metrics_line.json");
        // One task, ε = 0.3 ⇒ δ ≈ 2.41; three 0.95-accuracy co-located
        // check-ins complete it (the spam line is skipped).
        let data = "# ltc-dataset v1\nparams\t0.3\t1\t30\t0.66\ntask\t5\t5\n";
        std::fs::write(&data_path, data).unwrap();
        let checkins = "5\t6\t0.95\n5\t6\t0.2\n5\t6\t0.95\n5\t6\t0.95\n5\t6\t0.95\n";
        std::fs::write(&checkin_path, checkins).unwrap();

        let (code, out) = run_cli(&format!(
            "stream --input {data_path} --algo laf --checkins {checkin_path} \
             --metrics-out {metrics_path}"
        ));
        assert_eq!(code, 0, "{out}");
        let line = std::fs::read_to_string(&metrics_path).unwrap();
        assert_eq!(
            line,
            "{\"metrics\":true,\"algo\":\"LAF\",\"workers\":3,\"assignments\":3,\
             \"tasks\":1,\"completed_tasks\":1,\"clamped_insertions\":0,\"rebalances\":0,\
             \"shard_loads\":[0],\"latency\":3,\"wal_records\":0,\"checkpoints\":0,\
             \"sessions_open\":1,\"sessions_evicted\":0}\n"
        );
        for p in [&data_path, &checkin_path, &metrics_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn resume_rejects_garbage_snapshots() {
        let path = temp_path("garbage.ltc");
        std::fs::write(&path, "not a snapshot\n").unwrap();
        let (code, out) = run_cli(&format!("resume --snapshot {path}"));
        assert_eq!(code, 1);
        assert!(out.contains("snapshot"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let (code, out) = run_cli("run --input /nonexistent/x.tsv --algo aam");
        assert_eq!(code, 1);
        assert!(out.contains("cannot open"));
    }

    #[test]
    fn execute_rejects_help() {
        // `Help` is routed before `execute`; the pipeline still covers it
        // via run(); nothing to assert beyond the entry-point behaviour.
        let (code, _) = run_cli("");
        assert_eq!(code, 0);
    }

    #[test]
    fn recover_command_repairs_a_crashed_wal_directory() {
        use ltc_core::model::{ProblemParams, Task, Worker};
        use ltc_core::service::{Algorithm, ServiceBuilder, Session as _};
        use ltc_core::snapshot::read_snapshot;
        use ltc_durable::{DurableHandle, DurableOptions};
        use ltc_spatial::{BoundingBox, Point};
        use std::num::NonZeroUsize;

        let wal_dir = temp_path("recover_cmd_wal");
        std::fs::remove_dir_all(&wal_dir).ok();
        let params = ProblemParams::builder()
            .epsilon(0.2)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let handle = ServiceBuilder::new(params, region)
            .algorithm(Algorithm::Laf)
            .shards(NonZeroUsize::new(2).unwrap())
            .start()
            .unwrap();
        let mut durable = DurableHandle::create(
            handle,
            std::path::Path::new(&wal_dir),
            DurableOptions {
                checkpoint_every: 3,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        for i in 0..4 {
            durable
                .post_task(Task::new(Point::new(10.0 + 20.0 * i as f64, 40.0)))
                .unwrap();
        }
        for i in 0..6 {
            durable
                .submit_worker(&Worker::new(Point::new(12.0 + 15.0 * i as f64, 42.0), 0.9))
                .unwrap();
        }
        drop(durable); // crash: no shutdown, the log is left mid-flight

        let snap_path = temp_path("recover_cmd.ltc");
        let (code, out) = run_cli(&format!(
            "recover --wal {wal_dir} --snapshot-out {snap_path}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"recover\":true"), "{out}");
        assert!(out.contains("\"next_seq\":10"), "{out}");
        let text = std::fs::read_to_string(&snap_path).unwrap();
        assert!(text.starts_with("ltc-snapshot v3\n"), "{text}");
        read_snapshot(text.as_bytes()).expect("recovered snapshot must parse");

        // Recovery seals the log with a covering checkpoint, so a
        // second run replays nothing and lands in the same place.
        let (code, again) = run_cli(&format!("recover --wal {wal_dir}"));
        assert_eq!(code, 0, "{again}");
        assert!(again.contains("\"replayed\":0"), "{again}");
        assert!(again.contains("\"next_seq\":10"), "{again}");

        std::fs::remove_dir_all(&wal_dir).ok();
        std::fs::remove_file(&snap_path).ok();
    }
}
