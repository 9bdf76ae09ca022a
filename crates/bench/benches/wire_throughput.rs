//! Wire-transport streaming throughput: sustained workers/sec of a
//! session driven through `LtcClient` → localhost TCP → `LtcServer`
//! versus driving the same [`ServiceHandle`] in process, over the
//! paper's Table-IV synthetic stream (LAF policy, so both paths commit
//! identical assignments and the gap is pure protocol cost:
//! frame encode/decode + one TCP round trip per submission).
//!
//! Run with `cargo bench -p ltc-bench --bench wire_throughput`; scale
//! the stream with `LTC_BENCH_SCALE` (smaller = bigger instance,
//! default 8). CI runs this with a large scale as a smoke test. Pass
//! `-- --out PATH` to also write the measurements as a schema-stable
//! `ltc-bench/v1` JSON report (the committed `BENCH_wire.json`).

use ltc_bench::{BenchReport, Row};
use ltc_core::model::Instance;
use ltc_core::service::{Algorithm, ServiceBuilder, ServiceError, ServiceHandle, Session};
use ltc_proto::{LtcClient, LtcServer, SessionConfig, SessionFactory, SessionTable};
use std::num::NonZeroUsize;
use std::time::Instant;

struct Measurement {
    workers: u64,
    assignments: u64,
    secs: f64,
}

fn start_handle(instance: &Instance, shards: usize) -> ServiceHandle {
    ServiceBuilder::from_instance(instance)
        .algorithm(Algorithm::Laf)
        .shards(NonZeroUsize::new(shards).unwrap())
        .start()
        .expect("sigmoid synthetic instances always start")
}

fn run_in_process(instance: &Instance, shards: usize) -> Measurement {
    let mut handle = start_handle(instance, shards);
    let start = Instant::now();
    let mut workers = 0u64;
    for worker in instance.workers() {
        if handle.all_completed() {
            break;
        }
        handle.submit_worker(worker).expect("runtime lost");
        workers += 1;
    }
    handle.drain().expect("drain failed");
    let secs = start.elapsed().as_secs_f64();
    Measurement {
        workers,
        assignments: handle.n_assignments(),
        secs,
    }
}

/// Windowed submission: up to `window` submit frames in flight before
/// their acknowledgements arrive; `window` 1 is lockstep, one
/// request/response round trip per submission — the cost an interactive
/// client pays. The stream of applied decisions is identical at every
/// window (the server applies frames in arrival order either way); what
/// changes is how many TCP round trips the client's wall clock absorbs.
fn run_remote_windowed(
    instance: &Instance,
    shards: usize,
    stop_at: u64,
    window: usize,
) -> Measurement {
    let server = LtcServer::bind("127.0.0.1:0", start_handle(instance, shards))
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let mut client = LtcClient::connect_v2(server.addr()).expect("connect v2");
    let granted = client.set_window(window).expect("negotiate window");
    assert_eq!(granted, window, "server narrowed the bench window");
    let start = Instant::now();
    let mut workers = 0u64;
    for worker in instance.workers() {
        if workers >= stop_at {
            break;
        }
        client.submit_worker_windowed(worker).expect("submit");
        workers += 1;
    }
    client.flush_window().expect("flush window");
    client.drain().expect("drain");
    let secs = start.elapsed().as_secs_f64();
    let metrics = client.metrics().expect("metrics");
    client.shutdown().expect("shutdown");
    server.wait().expect("server stops");
    Measurement {
        workers,
        assignments: metrics.n_assignments,
        secs,
    }
}

/// Per-verb cost of the `ltc-proto v2` session lifecycle against a
/// loopback multi-session server. `open` is the expensive verb — it
/// spawns a whole service (shard threads, engine loaded with the
/// template instance) behind a fresh name; `close` quiesces and
/// removes it. One open + close pair per cycle, each verb timed
/// separately; the untimed re-attach to the default session between
/// them keeps the connection bound to a live session throughout.
fn run_session_lifecycle(instance: &Instance, cycles: u64) -> (f64, f64) {
    let template = ServiceBuilder::from_instance(instance).algorithm(Algorithm::Laf);
    let factory: SessionFactory = {
        let template = template.clone();
        Box::new(move |config: &SessionConfig| {
            let mut builder = template.clone();
            if let Some(algo) = config.algorithm {
                builder = builder.algorithm(algo);
            }
            if let Some(shards) = config.shards {
                let shards = NonZeroUsize::new(shards)
                    .ok_or_else(|| ServiceError::Session("0 shards".into()))?;
                builder = builder.shards(shards);
            }
            if let Some(region) = config.region {
                builder = builder.region(region);
            }
            Ok(Box::new(builder.start()?))
        })
    };
    let table = SessionTable::with_factory(
        template.start().expect("default session starts"),
        factory,
        2,
        None,
    );
    let server = LtcServer::bind_table("127.0.0.1:0", table)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let mut client = LtcClient::connect_v2(server.addr()).expect("connect v2");
    let config = SessionConfig::default();
    let (mut open_secs, mut close_secs) = (0.0, 0.0);
    for i in 0..cycles {
        let sid = format!("bench-{i}");
        let t = Instant::now();
        client.open_session(&sid, &config).expect("open");
        open_secs += t.elapsed().as_secs_f64();
        client.attach_session("default").expect("attach default");
        let t = Instant::now();
        client.close_session(&sid).expect("close");
        close_secs += t.elapsed().as_secs_f64();
    }
    client.shutdown().expect("shutdown");
    server.wait().expect("server stops");
    (open_secs, close_secs)
}

fn session_row(name: &str, cycles: u64, secs: f64) -> Row {
    Row::new(name)
        .field("cycles", cycles)
        .field("secs", secs)
        .field("us_per_op", 1e6 * secs / cycles.max(1) as f64)
}

fn report(label: &str, m: &Measurement) {
    println!(
        "  {label:<26} {:>9} workers in {:>8.3}s  =  {:>10.0} workers/sec  \
         ({} assignments)",
        m.workers,
        m.secs,
        m.workers as f64 / m.secs.max(f64::EPSILON),
        m.assignments,
    );
}

fn json_row(name: &str, shards: usize, m: &Measurement) -> Row {
    Row::new(name)
        .field("shards", shards)
        .field("workers", m.workers)
        .field("secs", m.secs)
        .field(
            "workers_per_sec",
            m.workers as f64 / m.secs.max(f64::EPSILON),
        )
        .field("assignments", m.assignments)
}

fn main() {
    let out_path = ltc_bench::json::out_path_from_args();
    let scale = ltc_bench::bench_scale().min(64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wire_throughput (LTC_BENCH_SCALE = {scale}; LAF policy) cores={cores} \
         — remote numbers include one localhost TCP round trip per submission"
    );
    let cfg = ltc_workload::SyntheticConfig::default().scaled_down(scale);
    let instance = cfg.generate();
    println!(
        "table-iv/default: |T| = {}, |W| = {}, K = {}, eps = {}",
        instance.n_tasks(),
        instance.n_workers(),
        instance.params().capacity,
        instance.params().epsilon
    );

    let mut json = BenchReport::new("wire", scale);
    for shards in [1usize, 4] {
        let local = run_in_process(&instance, shards);
        report(&format!("in-process x{shards}"), &local);
        // The in-process driver stops within its in-flight window of
        // completion; feed the remote run exactly as many workers so
        // the decision streams are comparable.
        let remote = run_remote_windowed(&instance, shards, local.workers, 1);
        report(&format!("remote lockstep x{shards}"), &remote);
        assert_eq!(
            remote.assignments, local.assignments,
            "remote LAF diverged from in-process at {shards} shard(s)"
        );
        println!(
            "  wire overhead x{shards}: {:.1}x the in-process wall clock \
             ({:.1} µs/submission round trip)",
            remote.secs / local.secs.max(f64::EPSILON),
            1e6 * remote.secs / remote.workers.max(1) as f64
        );
        json.push_row(json_row(&format!("in-process/x{shards}"), shards, &local));
        json.push_row(json_row(
            &format!("remote-lockstep/x{shards}"),
            shards,
            &remote,
        ));
    }
    // Windowed submission at 1 shard: the wider windows show what the
    // in-flight pipeline buys over a fresh lockstep (W = 1) baseline.
    // Identical assignment counts prove the stream of decisions never
    // changed — only the waiting did.
    {
        let shards = 1usize;
        let baseline = run_in_process(&instance, shards);
        let lockstep = run_remote_windowed(&instance, shards, baseline.workers, 1);
        for window in [1usize, 16, 256] {
            let windowed = run_remote_windowed(&instance, shards, baseline.workers, window);
            report(&format!("remote windowed w={window}"), &windowed);
            assert_eq!(
                windowed.assignments, baseline.assignments,
                "windowed LAF diverged from in-process at window {window}"
            );
            println!(
                "  window {window}: {:.2}x lockstep submission throughput",
                lockstep.secs / windowed.secs.max(f64::EPSILON)
            );
            json.push_row(
                json_row(&format!("remote-windowed/w{window}"), shards, &windowed)
                    .field("window", window as u64)
                    .field(
                        "speedup_vs_lockstep",
                        lockstep.secs / windowed.secs.max(f64::EPSILON),
                    ),
            );
        }
    }
    let cycles = 32;
    let (open_secs, close_secs) = run_session_lifecycle(&instance, cycles);
    println!(
        "  session lifecycle ({cycles} open+close cycles): \
         open {:.1} µs/op, close {:.1} µs/op",
        1e6 * open_secs / cycles as f64,
        1e6 * close_secs / cycles as f64,
    );
    json.push_row(session_row("session-open", cycles, open_secs));
    json.push_row(session_row("session-close", cycles, close_secs));
    if let Some(path) = out_path {
        json.write_to(&path)
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        println!("  wrote {}", path.display());
    }
}
