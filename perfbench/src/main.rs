//! `ltc-perfbench`: one workload, one seed, one run of the repository's
//! benchmark. `perfbench/run.py` builds this binary, fills in the
//! workload's sizes and seeds from `perfbench/workloads.json`, and
//! validates the result line; see `perfbench/README.md`.
//!
//! ```text
//! ltc-perfbench --workload NAME --gen-seed G --seed N --reps R --setups S \
//!     --warmup W --closed C --open O --rebalance-every P --quality Q --rate HZ \
//!     --trace 0|1 --workdir DIR \
//!     [--spans-out FILE]
//! ```
//!
//! The last line of standard output is the result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod drive;
mod ladder;
mod stats;
mod workload;

use drive::{run_session, set_up, OpenPhase, SendLog, SessionSpec};
use stats::{quantile, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Plan, Sizes};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub gen_seed: u64,
    pub seed: u64,
    pub reps: usize,
    pub setups: usize,
    pub sizes: Sizes,
    /// Check-ins of the longer engine-only replay the task waits come from.
    pub quality: usize,
    pub rate: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    pub spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut get = std::collections::BTreeMap::new();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        get.insert(name, value);
    }
    fn num<T: std::str::FromStr>(
        get: &std::collections::BTreeMap<String, String>,
        name: &str,
    ) -> Result<T, String> {
        get.get(name)
            .ok_or_else(|| format!("missing --{name}"))?
            .parse()
            .map_err(|_| format!("bad --{name}"))
    }
    let args = Args {
        workload: get.get("workload").ok_or("missing --workload")?.clone(),
        gen_seed: num(&get, "gen-seed")?,
        seed: num(&get, "seed")?,
        reps: num(&get, "reps")?,
        setups: num(&get, "setups")?,
        sizes: Sizes {
            warmup: num(&get, "warmup")?,
            closed: num(&get, "closed")?,
            open: num(&get, "open")?,
            rebalance_every: num(&get, "rebalance-every")?,
        },
        quality: num(&get, "quality")?,
        rate: num(&get, "rate")?,
        trace: num::<u8>(&get, "trace")? == 1,
        workdir: PathBuf::from(get.get("workdir").ok_or("missing --workdir")?),
        spans_out: get.get("spans-out").map(PathBuf::from),
    };
    if args.reps == 0 || args.sizes.closed == 0 || args.sizes.open == 0 || args.rate <= 0.0 {
        return Err("--reps, --closed, --open and --rate must be positive".into());
    }
    Ok(args)
}

/// Outcome counters shared by both kinds of run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Tally {
    /// Counts one session's ops; a session whose output or restart check
    /// failed counts all of its ops as failed.
    pub fn session(&mut self, out: &drive::SessionOut) {
        self.attempted += out.log.attempted;
        let checks_pass = out.output_ok && out.restart.is_none_or(|(same, _)| same);
        if checks_pass {
            self.failed += out.log.failed;
        } else {
            self.failed += out.log.attempted;
            self.correct = false;
        }
        if let Some(e) = &out.log.first_error {
            eprintln!("perfbench: an operation failed: {e}");
            self.correct = false;
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end run: `reps` sessions of the workload's layer, each
/// started from the warm state and running the closed loop, then the open
/// loop. The `setups` timed set-ups are spread evenly before the sessions,
/// so a slow stretch of the run moves only a few of them.
fn end_to_end(
    args: &Args,
    plan: &Plan,
    replay: &workload::Replay,
) -> Result<(Metrics, Tally), String> {
    let epoch = Instant::now();
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let warm = plan.warm_state()?;
    let mut setups = Vec::new();
    let (mut rates, mut latency, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut heap = 0;
    for r in 0..args.reps {
        while setups.len() < args.setups * (r + 1) / args.reps {
            let mut log = SendLog::new(epoch, false);
            let dir = args.workdir.join(format!("setup-{}", setups.len()));
            let (live, stream, secs) = set_up(plan.layer, plan, &warm, &dir, &mut log)?;
            drop(stream);
            live.close()?;
            setups.push(secs);
            tally.attempted += log.attempted;
            tally.failed += log.failed;
        }
        let spec = SessionSpec {
            layer: plan.layer,
            spans: false,
            open: OpenPhase::Paced(args.rate),
            restart_check: false,
            rebalances: true,
        };
        let out = run_session(
            plan,
            &warm,
            spec,
            &args.workdir.join(format!("rep-{r}")),
            epoch,
            (replay.digest_closed, replay.digest_all),
        )?;
        tally.session(&out);
        rates.push(out.closed_checkins as f64 / out.closed_secs);
        let mut rep_latency = Vec::new();
        for &(id, due, start) in &out.log.paced {
            rep_latency.push(us(out.recv.times[id as usize].saturating_sub(due)));
            lateness.push(us(start - due));
        }
        latency.extend_from_slice(&rep_latency);
        p50s.push(quantile(&mut rep_latency, 0.5));
        p90s.push(quantile(&mut rep_latency, 0.9));
        println!(
            "session {r}: closed {} check-ins in {:.3} s = {:.0}/s, \
             open p50 {:.1} us p90 {:.1} us, output check {}",
            out.closed_checkins,
            out.closed_secs,
            rates[r],
            p50s[r],
            p90s[r],
            if out.output_ok { "ok" } else { "MISMATCH" }
        );
        heap = out.heap_bytes;
    }
    // Task waits are deterministic, but a few thousand tasks give a tail
    // that moves with the seed; the same stream replayed longer through
    // the bare engine (whose decisions the sessions were just checked to
    // equal) gives a steady one.
    let quality = Plan::generate(
        &args.workload,
        args.gen_seed,
        args.seed,
        Sizes {
            warmup: 0,
            closed: args.quality,
            open: 0,
            ..args.sizes
        },
    )?;
    let mut waits = workload::replay(&quality, false).task_waits;
    drop(quality);
    let n_lat = latency.len();
    let n_setups = setups.len();
    println!(
        "set-up: {n_setups} restarts from the warm state, p25 {:.1} us, p50 {:.1} us, p75 {:.1} us",
        quantile(&mut setups, 0.25) * 1e6,
        quantile(&mut setups, 0.5) * 1e6,
        quantile(&mut setups, 0.75) * 1e6
    );
    println!(
        "open loop: {n_lat} check-ins at {} /s, pooled p50 {:.1} us, p90 {:.1} us; \
         generator lateness p50 {:.1} us, p99 {:.1} us",
        args.rate,
        quantile(&mut latency, 0.5),
        quantile(&mut latency, 0.9),
        quantile(&mut lateness, 0.5),
        quantile(&mut lateness, 0.99)
    );
    let mut m = Metrics::default();
    m.put("setup_s", quantile(&mut setups, 0.5), "s");
    m.put("checkins_per_s", quantile(&mut rates, 0.5), "1/s");
    // Per-session percentiles, then their median: a burst of scheduling
    // stalls on the VM can swamp one session's tail, and the median over
    // sessions discounts it where pooled samples would not.
    m.put("checkin_p50_us", quantile(&mut p50s, 0.5), "us");
    m.put("checkin_p90_us", quantile(&mut p90s, 0.5), "us");
    m.put("task_wait_p50", quantile(&mut waits, 0.5), "arrivals");
    m.put("task_wait_p99", quantile(&mut waits, 0.99), "arrivals");
    m.put("heap_mb", heap as f64 / 1e6, "MB");
    let failed = tally.failed as f64 / tally.attempted.max(1) as f64;
    m.put("success_frac", 1.0 - failed, "ratio");
    Ok((m, tally))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let plan = match Plan::generate(&args.workload, args.gen_seed, args.seed, args.sizes) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let replay = workload::replay(&plan, args.trace);
    println!(
        "{}: {} ops ({} check-ins), generator seed {}, run seed {}, generated and replayed \
         in {:.2} s; {} tasks completed, engine digest {:016x}",
        plan.name,
        plan.ops.len(),
        plan.checkins(0..plan.ops.len()),
        args.gen_seed,
        args.seed,
        t0.elapsed().as_secs_f64(),
        replay.task_waits.len(),
        replay.digest_all
    );
    let result = if args.trace {
        ladder::run(&args, &plan, &replay)
    } else {
        end_to_end(&args, &plan, &replay)
    };
    std::fs::remove_dir_all(&args.workdir).ok();
    match result {
        Ok((metrics, tally)) => {
            for (name, value, unit) in &metrics.0 {
                println!("  {}/{name} = {value} {unit}", plan.name);
            }
            if metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: a metric is not finite");
                std::process::exit(1);
            }
            println!(
                "{}",
                metrics.result_line(tally.correct, tally.attempted.max(1), tally.failed)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
