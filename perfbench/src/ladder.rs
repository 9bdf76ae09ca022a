//! The traced run: the workload's op sequence replayed down the layer
//! ladder — bare engine, service handle, durable handle, remote client —
//! with a span around every call into each layer. A layer's self time is
//! the difference between two rungs over the same ops.

use crate::drive::{run_session, OpenPhase, SessionOut, SessionSpec};
use crate::stats::{quantile, Metrics};
use crate::workload::{Layer, Op, Plan, Replay};
use crate::{us, Args, Tally};
use std::io::Write;
use std::time::Instant;

/// Closed-phase wall time per check-in of one rung, in µs.
fn rung_us(out: &SessionOut) -> f64 {
    out.closed_secs * 1e6 / out.closed_checkins as f64
}

/// Durations (µs) of the rung's spans over `ops` matching `keep`.
fn span_us(
    out: &SessionOut,
    plan: &Plan,
    ops: &std::ops::Range<usize>,
    keep: impl Fn(&Op, bool) -> bool,
) -> Vec<f64> {
    out.log
        .spans
        .iter()
        .filter(|s| ops.contains(&(s.op as usize)))
        .filter(|s| keep(&plan.ops[s.op as usize], s.checkpointed))
        .map(|s| us(s.end - s.start))
        .collect()
}

/// Event lag (µs) of the rung's check-ins in `ops`: call return → the
/// check-in's `Worker` event at the receiver. `arrival[i]` is the
/// arrival id op `i` gets if it is a check-in.
fn event_lag_us(
    out: &SessionOut,
    plan: &Plan,
    arrival: &[usize],
    ops: &std::ops::Range<usize>,
) -> Vec<f64> {
    out.log
        .spans
        .iter()
        .filter(|s| ops.contains(&(s.op as usize)))
        .filter(|s| matches!(plan.ops[s.op as usize], Op::CheckIn(_)))
        .map(|s| us(out.recv.times[arrival[s.op as usize]].saturating_sub(s.end)))
        .collect()
}

pub fn run(args: &Args, plan: &Plan, engine: &Replay) -> Result<(Metrics, Tally), String> {
    let epoch = Instant::now();
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let digests = (engine.digest_closed, engine.digest_all);
    let warm = plan.warm_state()?;
    let session = |layer, spans, open, restart_check, name: &str| {
        let spec = SessionSpec {
            layer,
            spans,
            open,
            restart_check,
            rebalances: true,
        };
        run_session(plan, &warm, spec, &args.workdir.join(name), epoch, digests)
    };
    // The workload's own layer, untraced: the baseline for the tracing
    // overhead and the open-loop generator's lateness.
    let plain = session(
        plan.layer,
        false,
        OpenPhase::Paced(args.rate),
        false,
        "plain",
    )?;
    let service = session(Layer::Service, true, OpenPhase::Skip, false, "service")?;
    let durable = session(Layer::Durable, true, OpenPhase::Skip, true, "durable")?;
    let remote = session(Layer::Remote, true, OpenPhase::Lockstep, false, "remote")?;
    // The service rung again without its rebalances: a rebalance call
    // also waits out the closed loop's backlog, so the cost of the
    // rebalances is the difference between the two rungs, not the time
    // inside the calls. Both are traced, so tracing cancels out.
    let no_rebalance = if plan.ops.iter().any(|op| matches!(op, Op::Rebalance)) {
        let spec = SessionSpec {
            layer: Layer::Service,
            spans: true,
            open: OpenPhase::Skip,
            restart_check: false,
            rebalances: false,
        };
        let dir = args.workdir.join("no-rebalance");
        Some(run_session(plan, &warm, spec, &dir, epoch, digests)?)
    } else {
        None
    };
    for out in [&plain, &service, &durable, &remote]
        .into_iter()
        .chain(no_rebalance.as_ref())
    {
        tally.session(out);
    }

    let mut m = Metrics::default();
    let checkins = engine.closed_checkins as f64;
    let engine_us = engine.ops_ns as f64 / 1e3 / checkins;
    m.put(
        "engine.us_per_checkin",
        engine.push_ns as f64 / 1e3 / checkins,
        "us",
    );
    m.put(
        "engine.assignments_per_checkin",
        engine.assignments as f64 / checkins,
        "count",
    );
    m.put("engine.idle_frac", engine.idle as f64 / checkins, "ratio");
    m.put(
        "engine.live_tasks_mean",
        engine.live_sum / checkins,
        "count",
    );
    m.put(
        "engine.live_growth_frac",
        engine.live_last_quarter / engine.live_first_quarter.max(1.0) - 1.0,
        "ratio",
    );
    m.put(
        "engine.allocs_per_checkin",
        engine.allocs as f64 / checkins,
        "count",
    );

    let metrics = service.metrics.clone().unwrap_or_default();
    let loads = &metrics.shard_loads;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    m.put(
        "spatial.clamped_insertions",
        metrics.clamped_insertions as f64,
        "count",
    );
    m.put(
        "spatial.load_max_over_mean",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
    );

    let service_us = rung_us(&service);
    let closed = plan.closed_from..plan.open_from;
    let arrival: Vec<usize> = plan
        .ops
        .iter()
        .scan(0, |seen, op| {
            let id = *seen;
            *seen += usize::from(matches!(op, Op::CheckIn(_)));
            Some(id)
        })
        .collect();
    let all = 0..plan.ops.len();
    let mut submits = span_us(&service, plan, &closed, |op, _| {
        matches!(op, Op::CheckIn(_))
    });
    let mut rebalances = span_us(&service, plan, &all, |op, _| matches!(op, Op::Rebalance));
    rebalances.iter_mut().for_each(|v| *v /= 1e3);
    m.put("service.self_us_per_checkin", service_us - engine_us, "us");
    m.put(
        "service.submit_block_us_p99",
        quantile(&mut submits, 0.99),
        "us",
    );
    m.put(
        "service.stalls_per_1k",
        service.recv.stalls as f64 * 1e3 / service.recv.workers.max(1) as f64,
        "count",
    );
    m.put(
        "service.event_lag_us_p50",
        quantile(&mut event_lag_us(&service, plan, &arrival, &closed), 0.5),
        "us",
    );
    m.put(
        "service.allocs_per_checkin",
        service.closed_allocs as f64 / checkins,
        "count",
    );
    m.put(
        "service.rebalance_ms_p50",
        quantile(&mut rebalances, 0.5),
        "ms",
    );
    m.put(
        "service.rebalance_ms_max",
        quantile(&mut rebalances, 1.0),
        "ms",
    );
    m.put(
        "service.rebalance_share",
        no_rebalance.map_or(0.0, |out| 1.0 - rung_us(&out) / service_us),
        "ratio",
    );
    m.put(
        "service.moved_tasks",
        service.log.moved_tasks as f64,
        "count",
    );

    let durable_us = rung_us(&durable);
    let per_op = durable.closed_ops as f64 / checkins;
    let mut checkpoints = span_us(&durable, plan, &all, |_, checkpointed| checkpointed);
    checkpoints.iter_mut().for_each(|v| *v /= 1e3);
    let wal = durable.metrics.clone().unwrap_or_default();
    m.put(
        "durable.self_us_per_op",
        (durable_us - service_us) / per_op,
        "us",
    );
    m.put(
        "durable.checkpoint_ms_p50",
        quantile(&mut checkpoints, 0.5),
        "ms",
    );
    m.put(
        "durable.checkpoint_ms_max",
        quantile(&mut checkpoints, 1.0),
        "ms",
    );
    m.put("durable.wal_records", wal.wal_records as f64, "count");
    m.put("durable.checkpoints", wal.checkpoints as f64, "count");
    m.put(
        "durable.wal_bytes_per_op",
        engine.wal_bytes as f64 / durable.closed_ops as f64,
        "bytes",
    );
    m.put(
        "durable.recover_s",
        durable.restart.map_or(0.0, |(_, s)| s),
        "s",
    );

    let proto_us = rung_us(&remote);
    let lockstep = plan.open_from..plan.ops.len();
    let mut acks = span_us(&remote, plan, &closed, |op, _| matches!(op, Op::CheckIn(_)));
    let mut rtts = span_us(&remote, plan, &lockstep, |op, _| {
        matches!(op, Op::CheckIn(_))
    });
    m.put("proto.self_us_per_checkin", proto_us - service_us, "us");
    m.put("proto.ack_wait_us_p99", quantile(&mut acks, 0.99), "us");
    m.put("proto.rtt_us_p50", quantile(&mut rtts, 0.5), "us");
    m.put("proto.rtt_us_p99", quantile(&mut rtts, 0.99), "us");
    m.put(
        "proto.event_lag_us_p50",
        quantile(&mut event_lag_us(&remote, plan, &arrival, &lockstep), 0.5),
        "us",
    );
    m.put(
        "proto.bytes_up_per_checkin",
        engine.bytes_up as f64 / checkins,
        "bytes",
    );
    m.put(
        "proto.bytes_down_per_checkin",
        engine.bytes_down as f64 / checkins,
        "bytes",
    );

    m.put("rung.engine_us_per_checkin", engine_us, "us");
    m.put("rung.service_us_per_checkin", service_us, "us");
    m.put("rung.durable_us_per_checkin", durable_us, "us");
    m.put("rung.proto_us_per_checkin", proto_us, "us");

    let traced = match plan.layer {
        Layer::Service => &service,
        Layer::Durable => &durable,
        Layer::Remote => &remote,
    };
    m.put(
        "trace.overhead_frac",
        rung_us(traced) / rung_us(&plain) - 1.0,
        "ratio",
    );
    let mut late: Vec<f64> = plain
        .log
        .paced
        .iter()
        .map(|&(_, due, start)| us(start - due))
        .collect();
    m.put("loadgen.lateness_us_p50", quantile(&mut late, 0.5), "us");
    m.put("loadgen.lateness_us_p99", quantile(&mut late, 0.99), "us");

    if let Some(path) = &args.spans_out {
        write_spans(
            path,
            plan,
            &[
                ("service", &service),
                ("durable", &durable),
                ("remote", &remote),
            ],
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok((m, tally))
}

/// Writes every rung's call spans and event receipts as TSV:
/// `rung  kind  index  start_ns  end_ns` (`kind` is the op, or `event`
/// for a check-in's `Worker` event at the receiver, indexed by arrival).
fn write_spans(
    path: &std::path::Path,
    plan: &Plan,
    rungs: &[(&str, &SessionOut)],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "rung\tkind\tindex\tstart_ns\tend_ns")?;
    for (rung, session) in rungs {
        for s in &session.log.spans {
            let kind = match plan.ops[s.op as usize] {
                Op::CheckIn(_) => "checkin",
                Op::Post(_) => "post",
                Op::Rebalance => "rebalance",
            };
            writeln!(out, "{rung}\t{kind}\t{}\t{}\t{}", s.op, s.start, s.end)?;
        }
        for (worker, &t) in session.recv.times.iter().enumerate() {
            if t != u64::MAX {
                writeln!(out, "{rung}\tevent\t{worker}\t{t}\t{t}")?;
            }
        }
    }
    out.flush()
}
