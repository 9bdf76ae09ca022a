//! Argument parsing for the `ltc` tool (std-only, no CLI framework).

use ltc_durable::{DurableOptions, SyncPolicy};
use std::fmt;

/// Usage text shown by `ltc help` and on parse errors.
pub const USAGE: &str = "\
ltc — Latency-oriented Task Completion via spatial crowdsourcing (ICDE'18)

USAGE:
  ltc generate --preset <synthetic|newyork|tokyo> [--scale N] [--seed S]
               [--epsilon E] [--out FILE]
  ltc run      --input FILE --algo <aam|laf|random|mcf-ltc|base-off> [--stats]
  ltc stream   ( --input FILE --algo <aam|laf|random> [--seed S] [--shards N]
               | --connect HOST:PORT [--session NAME] )
               [--checkins FILE] [--pipeline D] [--rebalance N]
               [--snapshot-out FILE] [--metrics-out FILE]
  ltc resume   --snapshot FILE [--checkins FILE] [--pipeline D]
               [--rebalance N] [--snapshot-out FILE] [--metrics-out FILE]
  ltc serve    --input FILE --algo <aam|laf|random> --addr HOST:PORT
               [--seed S] [--shards N]
               [--max-sessions N [--idle-timeout SECS]]
               [--wal DIR [--sync POLICY] [--checkpoint-every N]]
  ltc sessions --connect HOST:PORT
  ltc recover  --wal DIR [--snapshot-out FILE]
  ltc exact    --input FILE [--budget NODES]
  ltc simulate --input FILE --algo <...> [--trials N] [--seed S]
  ltc bounds   --input FILE
  ltc help

Datasets are the TSV format of ltc-workload::dataset (`ltc generate` writes
it; omitting --out prints to stdout). `run --stats` adds per-task latency
quantiles, capacity utilization and quality overshoot. `simulate` samples
crowd answers and compares weighted-majority aggregation against plain
majority and EM truth inference.

`stream` serves check-ins through the pipelined service runtime
(persistent shard threads behind bounded mailboxes): tasks and
parameters come from --input (its worker records are ignored), worker
check-ins are read line by line from --checkins (default: stdin) as
`x<TAB>y<TAB>accuracy` (the dataset `worker` record also parses), and each
worker's committed assignments are emitted immediately as one NDJSON line,
ending with a summary line. Check-ins below the spam threshold are
skipped. --shards N partitions the task pool spatially over N engine
shards (default 1; single-shard output is bit-identical to the engine).
--pipeline D keeps up to D check-ins in flight (default 1 = lockstep).
In process they overlap across the shard threads; over --connect D is
also the submission window: up to D check-in frames are fired before
their acknowledgements arrive (clamped to what the server advertises;
`ltc serve` grants up to 256). The session applies check-ins in
submission order either way, and the depth shrinks to
ceil(remaining-tasks / capacity) as the instance nears completion, so
the whole output — event lines and summary, workers-read count included
— is byte-identical to --pipeline 1. --rebalance N quiesces
the session every N accepted check-ins and re-splits the shard stripes
by live-task load (task migration is exact, so assignments are
unchanged; skipped rebalances print nothing, applied ones emit a
rebalance NDJSON line).

`stream --snapshot-out FILE` also writes the service state to FILE when
the check-ins are exhausted (or every task completed). `resume` restores
a service from such a snapshot file and keeps streaming where it left
off, bit-exactly for every policy. --metrics-out FILE additionally
writes one machine-readable JSON line of final service metrics
(assignments, clamped insertions, rebalances, per-shard load) for bench
harnesses.

`serve` exposes the same session over TCP (`ltc-proto`, see
docs/PROTOCOL.md): it builds the service from --input exactly like
`stream` would, listens on --addr (port 0 picks a free port; the bound
address is printed first), and serves any number of concurrent clients
until one sends a shutdown. `stream --connect HOST:PORT` then drives
that remote session instead of an in-process one — same NDJSON output,
byte for byte; --connect replaces --input/--algo/--shards/--seed,
which the server already owns. A snapshot taken over
--connect is produced server-side at a quiesced point and written
locally.

`serve --max-sessions N` turns the server multi-session (`ltc-proto
v2`): clients may open up to N named sessions (the default session
included), each its own fresh service built from the --input template
with optional per-session algorithm/seed/shards/region overrides, each
with an independent lifecycle. `--idle-timeout SECS` evicts non-default
sessions with no connected client that have been idle at least SECS
seconds (subscribers of an evicted session see a `SessionEvicted`
lifecycle event before their stream ends). `stream --connect --session
NAME` binds the stream to the named session, opening it if it does not
exist yet; `ltc sessions --connect` lists a server's live sessions, one
NDJSON line each. Without --max-sessions the server carries exactly its
one default session (`open` is refused).

`serve --wal DIR` makes the served session durable (docs/DURABILITY.md):
every state-changing request is appended to a write-ahead log in DIR
before it is applied, and periodic checkpoints bound the replay work.
--sync picks the fsync policy: `always` (fsync per record), `every=N`
(fsync every N records), or `os` (leave flushing to the kernel; default
— survives process crashes, not host power loss). --checkpoint-every N
checkpoints after every N logged records (default 4096), each one an
`ltc-snapshot v3` text file. A DIR that already holds a log resumes
it: the dataset is only used on first initialization. `recover --wal
DIR` repairs and replays such a log without serving: it truncates a
torn tail, restores the newest valid checkpoint, replays the suffix,
writes a fresh covering checkpoint, compacts the log, and prints a
summary line (optionally writing the recovered state to --snapshot-out
as `ltc-snapshot v3` text, resumable with `ltc resume`).";

/// Which arrangement algorithm a command should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Online Average-And-Maximum (Algorithm 3).
    Aam,
    /// Online Largest-Acc*-First (Algorithm 2).
    Laf,
    /// Online random baseline.
    Random,
    /// Offline MCF-LTC (Algorithm 1).
    McfLtc,
    /// Offline fewest-nearby-workers baseline.
    BaseOff,
}

impl AlgoChoice {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "aam" => Ok(AlgoChoice::Aam),
            "laf" => Ok(AlgoChoice::Laf),
            "random" => Ok(AlgoChoice::Random),
            "mcf-ltc" | "mcf" => Ok(AlgoChoice::McfLtc),
            "base-off" | "baseoff" => Ok(AlgoChoice::BaseOff),
            other => Err(ParseError(format!("unknown algorithm `{other}`"))),
        }
    }

    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            AlgoChoice::Aam => "AAM",
            AlgoChoice::Laf => "LAF",
            AlgoChoice::Random => "Random",
            AlgoChoice::McfLtc => "MCF-LTC",
            AlgoChoice::BaseOff => "Base-off",
        }
    }
}

/// Dataset presets of `ltc generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Table IV synthetic grid.
    Synthetic,
    /// Table V New-York-like check-in stream.
    NewYork,
    /// Table V Tokyo-like check-in stream.
    Tokyo,
}

impl Preset {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "synthetic" => Ok(Preset::Synthetic),
            "newyork" | "new-york" | "ny" => Ok(Preset::NewYork),
            "tokyo" => Ok(Preset::Tokyo),
            other => Err(ParseError(format!("unknown preset `{other}`"))),
        }
    }
}

/// Parses `--sync`: `always`, `os`, or `every=N` (bare `N` also
/// accepted, `N >= 1`).
fn parse_sync(s: &str) -> Result<SyncPolicy, ParseError> {
    match s {
        "always" => Ok(SyncPolicy::Always),
        "os" => Ok(SyncPolicy::Os),
        other => {
            let n = other.strip_prefix("every=").unwrap_or(other);
            match n.parse::<u64>() {
                Ok(0) => Err(ParseError("--sync every=N needs N >= 1".into())),
                Ok(n) => Ok(SyncPolicy::Every(n)),
                Err(_) => Err(ParseError(format!(
                    "unknown sync policy `{other}` (always, os, every=N)"
                ))),
            }
        }
    }
}

/// The durability options of `ltc serve --wal DIR`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalChoice {
    /// The log directory.
    pub dir: String,
    /// The fsync policy and checkpoint cadence.
    pub options: DurableOptions,
}

/// Where `ltc stream`/`ltc resume` get their session from.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSource {
    /// Build the service in process from a dataset.
    Dataset {
        /// Dataset path providing parameters and tasks (worker records
        /// are ignored).
        input: String,
        /// Online algorithm driving the service.
        algo: AlgoChoice,
        /// RNG seed (only affects `random`).
        seed: u64,
        /// Engine shards the task pool is spatially partitioned over.
        shards: usize,
    },
    /// Drive a remote `ltc serve` session over TCP.
    Connect {
        /// The server address (`HOST:PORT`).
        addr: String,
        /// Named session to bind on a multi-session server (opened on
        /// first use; `None` = the server's default session).
        session: Option<String>,
    },
    /// Restore the service in process from a snapshot file (`ltc resume`).
    Snapshot {
        /// Snapshot file written by `stream --snapshot-out`.
        path: String,
    },
}

/// A fully parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `ltc generate`.
    Generate {
        /// Dataset family.
        preset: Preset,
        /// Down-scaling factor (1 = paper scale).
        scale: usize,
        /// RNG seed override.
        seed: Option<u64>,
        /// Tolerable error rate override.
        epsilon: Option<f64>,
        /// Output path (stdout when `None`).
        out: Option<String>,
    },
    /// `ltc run`.
    Run {
        /// Dataset path.
        input: String,
        /// Algorithm to execute.
        algo: AlgoChoice,
        /// Print extended statistics.
        stats: bool,
    },
    /// `ltc stream` and `ltc resume`.
    Stream {
        /// In-process dataset or snapshot service, or remote `ltc serve`
        /// session.
        source: StreamSource,
        /// Check-in source (`None` = stdin).
        checkins: Option<String>,
        /// Check-ins kept in flight across the session — and, remotely,
        /// the requested submission window (1 = lockstep, byte-stable
        /// output).
        pipeline: usize,
        /// Rebalance the shard stripes every this many accepted
        /// check-ins (`None` = never).
        rebalance: Option<u64>,
        /// Where to write the final service snapshot, if anywhere.
        snapshot_out: Option<String>,
        /// Where to write the final machine-readable metrics line, if
        /// anywhere.
        metrics_out: Option<String>,
    },
    /// `ltc serve`.
    Serve {
        /// Dataset path providing parameters and tasks (worker records
        /// are ignored).
        input: String,
        /// Online algorithm driving the service.
        algo: AlgoChoice,
        /// RNG seed (only affects `random`).
        seed: u64,
        /// Engine shards the task pool is spatially partitioned over.
        shards: usize,
        /// The address to listen on (`HOST:PORT`; port 0 picks one).
        addr: String,
        /// Session capacity: 1 = the fixed single-session server
        /// (`open` refused), N > 1 = clients may open named sessions
        /// up to this many (the default session counts).
        max_sessions: usize,
        /// Evict non-default sessions with no attached client after
        /// this many idle seconds (`None` = never; requires a
        /// multi-session server).
        idle_timeout: Option<u64>,
        /// Durability options (`None` = serve without a WAL).
        wal: Option<WalChoice>,
    },
    /// `ltc sessions`.
    Sessions {
        /// The server address (`HOST:PORT`).
        addr: String,
    },
    /// `ltc recover`.
    Recover {
        /// The WAL directory to repair and replay.
        wal: String,
        /// Where to also write the recovered state as `ltc-snapshot v3`
        /// text, if anywhere.
        snapshot_out: Option<String>,
    },
    /// `ltc exact`.
    Exact {
        /// Dataset path.
        input: String,
        /// Branch-and-bound node budget.
        budget: u64,
    },
    /// `ltc simulate`.
    Simulate {
        /// Dataset path.
        input: String,
        /// Algorithm producing the arrangement.
        algo: AlgoChoice,
        /// Monte-Carlo trials.
        trials: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `ltc bounds`.
    Bounds {
        /// Dataset path.
        input: String,
    },
    /// `ltc help`.
    Help,
}

/// A human-readable argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// A tiny flag cursor over `argv`.
struct Flags<'a> {
    rest: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, ParseError> {
        if let Some(pos) = self.rest.iter().position(|a| a == flag) {
            if pos + 1 >= self.rest.len() {
                return Err(ParseError(format!("{flag} needs a value")));
            }
            Ok(Some(&self.rest[pos + 1]))
        } else {
            Ok(None)
        }
    }

    fn present(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Every flag must be consumed by the command's known set.
    fn reject_unknown(&self, known: &[&str]) -> Result<(), ParseError> {
        let mut i = 0;
        while i < self.rest.len() {
            let a = &self.rest[i];
            if !a.starts_with("--") {
                return Err(ParseError(format!("unexpected argument `{a}`")));
            }
            if !known.contains(&a.as_str()) {
                return Err(ParseError(format!("unknown flag `{a}`")));
            }
            // Boolean flags take no value; the others take exactly one.
            i += if a == "--stats" { 1 } else { 2 };
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("invalid {what}: `{s}`")))
}

impl Command {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Self, ParseError> {
        let Some(cmd) = argv.first() else {
            return Ok(Command::Help);
        };
        let mut flags = Flags { rest: &argv[1..] };
        match cmd.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "generate" => {
                flags.reject_unknown(&["--preset", "--scale", "--seed", "--epsilon", "--out"])?;
                let preset = Preset::parse(
                    flags
                        .value("--preset")?
                        .ok_or_else(|| ParseError("generate requires --preset".into()))?,
                )?;
                let scale = match flags.value("--scale")? {
                    Some(v) => parse_num::<usize>(v, "scale")?,
                    None => 1,
                };
                if scale == 0 {
                    return Err(ParseError("--scale must be positive".into()));
                }
                let seed = flags
                    .value("--seed")?
                    .map(|v| parse_num(v, "seed"))
                    .transpose()?;
                let epsilon = flags
                    .value("--epsilon")?
                    .map(|v| parse_num(v, "epsilon"))
                    .transpose()?;
                let out = flags.value("--out")?.map(str::to_string);
                Ok(Command::Generate {
                    preset,
                    scale,
                    seed,
                    epsilon,
                    out,
                })
            }
            "run" => {
                flags.reject_unknown(&["--input", "--algo", "--stats"])?;
                Ok(Command::Run {
                    input: required_input(&mut flags)?,
                    algo: AlgoChoice::parse(
                        flags
                            .value("--algo")?
                            .ok_or_else(|| ParseError("run requires --algo".into()))?,
                    )?,
                    stats: flags.present("--stats"),
                })
            }
            "stream" | "resume" => {
                let source = if cmd == "stream" {
                    flags.reject_unknown(&[
                        "--input",
                        "--algo",
                        "--connect",
                        "--session",
                        "--checkins",
                        "--seed",
                        "--shards",
                        "--pipeline",
                        "--rebalance",
                        "--snapshot-out",
                        "--metrics-out",
                    ])?;
                    parse_stream_source(&mut flags, cmd)?
                } else {
                    flags.reject_unknown(&[
                        "--snapshot",
                        "--checkins",
                        "--pipeline",
                        "--rebalance",
                        "--snapshot-out",
                        "--metrics-out",
                    ])?;
                    StreamSource::Snapshot {
                        path: flags
                            .value("--snapshot")?
                            .ok_or_else(|| ParseError("resume requires --snapshot FILE".into()))?
                            .to_string(),
                    }
                };
                Ok(Command::Stream {
                    source,
                    checkins: flags.value("--checkins")?.map(str::to_string),
                    pipeline: parse_pipeline(&mut flags)?,
                    rebalance: parse_rebalance(&mut flags)?,
                    snapshot_out: flags.value("--snapshot-out")?.map(str::to_string),
                    metrics_out: flags.value("--metrics-out")?.map(str::to_string),
                })
            }
            "serve" => {
                flags.reject_unknown(&[
                    "--input",
                    "--algo",
                    "--addr",
                    "--seed",
                    "--shards",
                    "--max-sessions",
                    "--idle-timeout",
                    "--wal",
                    "--sync",
                    "--checkpoint-every",
                ])?;
                let StreamSource::Dataset {
                    input,
                    algo,
                    seed,
                    shards,
                } = parse_stream_source(&mut flags, cmd)?
                else {
                    unreachable!("serve does not accept --connect");
                };
                let (max_sessions, idle_timeout) = parse_sessions(&mut flags)?;
                let wal = parse_wal(&mut flags)?;
                if max_sessions > 1 && wal.is_some() {
                    // Only the default session could be durable; refusing
                    // beats silently serving mixed durability guarantees.
                    return Err(ParseError(
                        "--max-sessions does not combine with --wal (dynamically opened \
                         sessions would not be durable)"
                            .into(),
                    ));
                }
                Ok(Command::Serve {
                    input,
                    algo,
                    seed,
                    shards,
                    addr: flags
                        .value("--addr")?
                        .ok_or_else(|| ParseError("serve requires --addr HOST:PORT".into()))?
                        .to_string(),
                    max_sessions,
                    idle_timeout,
                    wal,
                })
            }
            "sessions" => {
                flags.reject_unknown(&["--connect"])?;
                Ok(Command::Sessions {
                    addr: flags
                        .value("--connect")?
                        .ok_or_else(|| ParseError("sessions requires --connect HOST:PORT".into()))?
                        .to_string(),
                })
            }
            "recover" => {
                flags.reject_unknown(&["--wal", "--snapshot-out"])?;
                Ok(Command::Recover {
                    wal: flags
                        .value("--wal")?
                        .ok_or_else(|| ParseError("recover requires --wal DIR".into()))?
                        .to_string(),
                    snapshot_out: flags.value("--snapshot-out")?.map(str::to_string),
                })
            }
            "exact" => {
                flags.reject_unknown(&["--input", "--budget"])?;
                Ok(Command::Exact {
                    input: required_input(&mut flags)?,
                    budget: match flags.value("--budget")? {
                        Some(v) => parse_num(v, "budget")?,
                        None => 20_000_000,
                    },
                })
            }
            "simulate" => {
                flags.reject_unknown(&["--input", "--algo", "--trials", "--seed"])?;
                Ok(Command::Simulate {
                    input: required_input(&mut flags)?,
                    algo: AlgoChoice::parse(
                        flags
                            .value("--algo")?
                            .ok_or_else(|| ParseError("simulate requires --algo".into()))?,
                    )?,
                    trials: match flags.value("--trials")? {
                        Some(v) => parse_num(v, "trials")?,
                        None => 1000,
                    },
                    seed: match flags.value("--seed")? {
                        Some(v) => parse_num(v, "seed")?,
                        None => 42,
                    },
                })
            }
            "bounds" => {
                flags.reject_unknown(&["--input"])?;
                Ok(Command::Bounds {
                    input: required_input(&mut flags)?,
                })
            }
            other => Err(ParseError(format!("unknown command `{other}`"))),
        }
    }
}

/// The `--input --algo [--seed] [--shards]` vs `--connect` choice shared
/// by `stream` and (dataset half only) `serve`.
fn parse_stream_source(flags: &mut Flags<'_>, cmd: &str) -> Result<StreamSource, ParseError> {
    if let Some(addr) = flags.value("--connect")? {
        // The server owns the service configuration; accepting these
        // here would silently ignore them.
        for owned in ["--input", "--algo", "--shards", "--seed"] {
            if flags.present(owned) {
                return Err(ParseError(format!(
                    "--connect drives a remote `ltc serve` session, which already \
                     owns the service configuration; drop `{owned}`"
                )));
            }
        }
        return Ok(StreamSource::Connect {
            addr: addr.to_string(),
            session: flags.value("--session")?.map(str::to_string),
        });
    }
    if flags.present("--session") {
        return Err(ParseError(
            "--session names a session on a remote server; it requires --connect".into(),
        ));
    }
    let algo = AlgoChoice::parse(
        flags
            .value("--algo")?
            .ok_or_else(|| ParseError(format!("{cmd} requires --algo")))?,
    )?;
    if !matches!(algo, AlgoChoice::Aam | AlgoChoice::Laf | AlgoChoice::Random) {
        return Err(ParseError(format!(
            "{cmd} requires an online algorithm (aam, laf, random), got `{}`",
            algo.name()
        )));
    }
    let shards = match flags.value("--shards")? {
        Some(v) => parse_num::<usize>(v, "shards")?,
        None => 1,
    };
    if shards == 0 {
        return Err(ParseError("--shards must be positive".into()));
    }
    Ok(StreamSource::Dataset {
        input: required_input(flags)?,
        algo,
        seed: match flags.value("--seed")? {
            Some(v) => parse_num(v, "seed")?,
            None => 0x5EED,
        },
        shards,
    })
}

/// The `--max-sessions N [--idle-timeout SECS]` group of `serve`.
/// `--idle-timeout` is only meaningful on a multi-session server (the
/// default session is never evicted); given without `--max-sessions`
/// it would silently do nothing, so that is an error.
fn parse_sessions(flags: &mut Flags<'_>) -> Result<(usize, Option<u64>), ParseError> {
    let max_sessions = match flags.value("--max-sessions")? {
        Some(v) => {
            let n = parse_num::<usize>(v, "session capacity")?;
            if n == 0 {
                return Err(ParseError("--max-sessions must be positive".into()));
            }
            n
        }
        None => 1,
    };
    let idle_timeout = match flags.value("--idle-timeout")? {
        Some(v) => {
            if max_sessions <= 1 {
                return Err(ParseError(
                    "--idle-timeout requires --max-sessions N (N > 1); a single-session \
                     server never evicts its default session"
                        .into(),
                ));
            }
            let secs = parse_num::<u64>(v, "idle timeout")?;
            if secs == 0 {
                return Err(ParseError("--idle-timeout must be positive".into()));
            }
            Some(secs)
        }
        None => None,
    };
    Ok((max_sessions, idle_timeout))
}

/// The `--wal DIR [--sync POLICY] [--checkpoint-every N]` group of
/// `serve`. The satellites are only
/// meaningful with `--wal`; given without it they would silently do
/// nothing, so that is an error.
fn parse_wal(flags: &mut Flags<'_>) -> Result<Option<WalChoice>, ParseError> {
    let Some(dir) = flags.value("--wal")? else {
        for needs_wal in ["--sync", "--checkpoint-every"] {
            if flags.present(needs_wal) {
                return Err(ParseError(format!("{needs_wal} requires --wal DIR")));
            }
        }
        return Ok(None);
    };
    let mut options = DurableOptions::default();
    if let Some(v) = flags.value("--sync")? {
        options.sync = parse_sync(v)?;
    }
    if let Some(v) = flags.value("--checkpoint-every")? {
        options.checkpoint_every = parse_num::<u64>(v, "checkpoint interval")?;
        if options.checkpoint_every == 0 {
            return Err(ParseError("--checkpoint-every must be positive".into()));
        }
    }
    Ok(Some(WalChoice {
        dir: dir.to_string(),
        options,
    }))
}

fn parse_pipeline(flags: &mut Flags<'_>) -> Result<usize, ParseError> {
    let pipeline = match flags.value("--pipeline")? {
        Some(v) => parse_num::<usize>(v, "pipeline depth")?,
        None => 1,
    };
    if pipeline == 0 {
        return Err(ParseError("--pipeline must be positive".into()));
    }
    Ok(pipeline)
}

fn parse_rebalance(flags: &mut Flags<'_>) -> Result<Option<u64>, ParseError> {
    match flags.value("--rebalance")? {
        Some(v) => {
            let every = parse_num::<u64>(v, "rebalance interval")?;
            if every == 0 {
                return Err(ParseError("--rebalance must be positive".into()));
            }
            Ok(Some(every))
        }
        None => Ok(None),
    }
}

fn required_input(flags: &mut Flags<'_>) -> Result<String, ParseError> {
    Ok(flags
        .value("--input")?
        .ok_or_else(|| ParseError("missing --input FILE".into()))?
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn generate_with_all_flags() {
        let cmd = Command::parse(&argv(
            "generate --preset newyork --scale 8 --seed 9 --epsilon 0.1 --out f.tsv",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: Preset::NewYork,
                scale: 8,
                seed: Some(9),
                epsilon: Some(0.1),
                out: Some("f.tsv".into()),
            }
        );
    }

    #[test]
    fn generate_defaults() {
        let cmd = Command::parse(&argv("generate --preset synthetic")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: Preset::Synthetic,
                scale: 1,
                seed: None,
                epsilon: None,
                out: None,
            }
        );
    }

    #[test]
    fn run_parses_algo_aliases() {
        for (s, a) in [
            ("aam", AlgoChoice::Aam),
            ("mcf", AlgoChoice::McfLtc),
            ("mcf-ltc", AlgoChoice::McfLtc),
            ("base-off", AlgoChoice::BaseOff),
        ] {
            let cmd = Command::parse(&argv(&format!("run --input x.tsv --algo {s}"))).unwrap();
            assert_eq!(
                cmd,
                Command::Run {
                    input: "x.tsv".into(),
                    algo: a,
                    stats: false
                }
            );
        }
    }

    #[test]
    fn run_stats_flag() {
        let cmd = Command::parse(&argv("run --input x.tsv --algo laf --stats")).unwrap();
        assert!(matches!(cmd, Command::Run { stats: true, .. }));
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(Command::parse(&argv("generate")).is_err());
        assert!(Command::parse(&argv("run --algo aam")).is_err());
        assert!(Command::parse(&argv("run --input x.tsv")).is_err());
        assert!(Command::parse(&argv("simulate --input x.tsv")).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(Command::parse(&argv("frobnicate")).is_err());
        assert!(Command::parse(&argv("run --input x --algo aam --frob 1")).is_err());
        assert!(Command::parse(&argv("bounds --input x positional")).is_err());
    }

    #[test]
    fn dangling_value_errors() {
        assert!(Command::parse(&argv("generate --preset synthetic --scale")).is_err());
    }

    #[test]
    fn zero_scale_rejected() {
        assert!(Command::parse(&argv("generate --preset synthetic --scale 0")).is_err());
    }

    #[test]
    fn stream_parses_with_defaults() {
        let cmd = Command::parse(&argv("stream --input x.tsv --algo aam")).unwrap();
        assert_eq!(
            cmd,
            Command::Stream {
                source: StreamSource::Dataset {
                    input: "x.tsv".into(),
                    algo: AlgoChoice::Aam,
                    seed: 0x5EED,
                    shards: 1,
                },
                checkins: None,
                pipeline: 1,
                rebalance: None,
                snapshot_out: None,
                metrics_out: None,
            }
        );
        let cmd = Command::parse(&argv(
            "stream --input x.tsv --algo random --checkins c.tsv --seed 7 --shards 4 \
             --pipeline 32 --snapshot-out s.ltc --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Stream {
                source: StreamSource::Dataset {
                    input: "x.tsv".into(),
                    algo: AlgoChoice::Random,
                    seed: 7,
                    shards: 4,
                },
                checkins: Some("c.tsv".into()),
                pipeline: 32,
                rebalance: None,
                snapshot_out: Some("s.ltc".into()),
                metrics_out: Some("m.json".into()),
            }
        );
    }

    #[test]
    fn stream_connect_replaces_the_service_configuration() {
        let cmd =
            Command::parse(&argv("stream --connect 127.0.0.1:7171 --checkins c.tsv")).unwrap();
        assert_eq!(
            cmd,
            Command::Stream {
                source: StreamSource::Connect {
                    addr: "127.0.0.1:7171".into(),
                    session: None,
                },
                checkins: Some("c.tsv".into()),
                pipeline: 1,
                rebalance: None,
                snapshot_out: None,
                metrics_out: None,
            }
        );
        // The server owns the configuration: combining --connect with a
        // dataset flag is an error, not a silent ignore.
        for clash in [
            "stream --connect 127.0.0.1:1 --input x.tsv",
            "stream --connect 127.0.0.1:1 --algo laf",
            "stream --connect 127.0.0.1:1 --shards 4",
            "stream --connect 127.0.0.1:1 --seed 3",
            "serve --connect 127.0.0.1:1 --addr 127.0.0.1:0",
        ] {
            assert!(Command::parse(&argv(clash)).is_err(), "{clash}");
        }
        // A snapshot taken over --connect is written locally.
        let cmd = Command::parse(&argv(
            "stream --connect 127.0.0.1:7171 --snapshot-out s.ltc",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Stream {
                source: StreamSource::Connect { .. },
                snapshot_out: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn serve_parses_and_requires_addr() {
        let cmd = Command::parse(&argv(
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --shards 4 --seed 9",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                input: "x.tsv".into(),
                algo: AlgoChoice::Laf,
                seed: 9,
                shards: 4,
                addr: "127.0.0.1:0".into(),
                max_sessions: 1,
                idle_timeout: None,
                wal: None,
            }
        );
        assert!(Command::parse(&argv("serve --input x.tsv --algo laf")).is_err());
        assert!(Command::parse(&argv("serve --algo laf --addr 127.0.0.1:0")).is_err());
        assert!(
            Command::parse(&argv(
                "serve --input x.tsv --algo mcf-ltc --addr 127.0.0.1:0"
            ))
            .is_err(),
            "serve requires an online algorithm"
        );
    }

    #[test]
    fn serve_session_group_parses_and_validates() {
        let cmd = Command::parse(&argv(
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --max-sessions 8 --idle-timeout 30",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                max_sessions: 8,
                idle_timeout: Some(30),
                ..
            }
        ));
        for bad in [
            // Idle eviction is meaningless on a single-session server.
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --idle-timeout 30",
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --max-sessions 1 --idle-timeout 30",
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --max-sessions 0",
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --max-sessions 2 --idle-timeout 0",
            // Dynamically opened sessions would not be durable.
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --max-sessions 2 --wal w",
        ] {
            assert!(Command::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn stream_session_flag_requires_connect_and_sessions_parses() {
        let cmd = Command::parse(&argv("stream --connect 127.0.0.1:7171 --session west")).unwrap();
        assert!(matches!(
            cmd,
            Command::Stream {
                source: StreamSource::Connect { ref session, .. },
                ..
            } if session.as_deref() == Some("west")
        ));
        assert!(Command::parse(&argv("stream --input x.tsv --algo laf --session west")).is_err());
        assert_eq!(
            Command::parse(&argv("sessions --connect 127.0.0.1:7171")).unwrap(),
            Command::Sessions {
                addr: "127.0.0.1:7171".into(),
            }
        );
        assert!(Command::parse(&argv("sessions")).is_err());
    }

    #[test]
    fn serve_wal_group_parses_with_defaults_and_overrides() {
        let cmd = Command::parse(&argv(
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --wal w",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                wal: Some(WalChoice { ref dir, options }),
                ..
            } if dir == "w" && options == DurableOptions::default()
        ));
        let cmd = Command::parse(&argv(
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --wal w \
             --sync every=64 --checkpoint-every 100",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                wal: Some(WalChoice {
                    options: DurableOptions {
                        sync: SyncPolicy::Every(64),
                        checkpoint_every: 100,
                    },
                    ..
                }),
                ..
            }
        ));
    }

    #[test]
    fn sync_policies_parse_and_reject_nonsense() {
        assert_eq!(parse_sync("always").unwrap(), SyncPolicy::Always);
        assert_eq!(parse_sync("os").unwrap(), SyncPolicy::Os);
        assert_eq!(parse_sync("every=32").unwrap(), SyncPolicy::Every(32));
        assert_eq!(parse_sync("8").unwrap(), SyncPolicy::Every(8));
        assert!(parse_sync("every=0").is_err());
        assert!(parse_sync("sometimes").is_err());
    }

    #[test]
    fn wal_satellite_flags_require_wal() {
        for orphan in [
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --sync os",
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --checkpoint-every 10",
        ] {
            assert!(Command::parse(&argv(orphan)).is_err(), "{orphan}");
        }
        assert!(Command::parse(&argv(
            "serve --input x.tsv --algo laf --addr 127.0.0.1:0 --wal w --checkpoint-every 0"
        ))
        .is_err());
    }

    #[test]
    fn recover_parses_and_requires_wal() {
        let cmd = Command::parse(&argv("recover --wal w --snapshot-out s.ltc")).unwrap();
        assert_eq!(
            cmd,
            Command::Recover {
                wal: "w".into(),
                snapshot_out: Some("s.ltc".into()),
            }
        );
        assert!(Command::parse(&argv("recover")).is_err());
        assert!(Command::parse(&argv("recover --snapshot-out s.ltc")).is_err());
    }

    #[test]
    fn rebalance_interval_parses_and_rejects_zero() {
        let cmd = Command::parse(&argv(
            "stream --input x.tsv --algo laf --shards 4 --rebalance 500",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Stream {
                rebalance: Some(500),
                source: StreamSource::Dataset { shards: 4, .. },
                ..
            }
        ));
        let cmd = Command::parse(&argv("resume --snapshot s.ltc --rebalance 100")).unwrap();
        assert!(matches!(
            cmd,
            Command::Stream {
                rebalance: Some(100),
                source: StreamSource::Snapshot { .. },
                ..
            }
        ));
        assert!(Command::parse(&argv("stream --input x.tsv --algo laf --rebalance 0")).is_err());
        assert!(Command::parse(&argv("run --input x.tsv --algo laf --rebalance 5")).is_err());
    }

    #[test]
    fn window_parses_and_rejects_zero() {
        // The remote submission window is the pipeline depth.
        let cmd = Command::parse(&argv("stream --connect 127.0.0.1:7171 --pipeline 256")).unwrap();
        assert!(matches!(cmd, Command::Stream { pipeline: 256, .. }));
        let cmd = Command::parse(&argv("stream --input x.tsv --algo aam --pipeline 16")).unwrap();
        assert!(matches!(cmd, Command::Stream { pipeline: 16, .. }));
        let cmd = Command::parse(&argv("resume --snapshot s.ltc --pipeline 16")).unwrap();
        assert!(matches!(cmd, Command::Stream { pipeline: 16, .. }));
        assert!(Command::parse(&argv("stream --connect 127.0.0.1:1 --pipeline 0")).is_err());
        // There is no second knob for the same depth.
        for cmd in [
            "stream --input x.tsv --algo aam --window 4",
            "resume --snapshot s.ltc --window 4",
        ] {
            let err = Command::parse(&argv(cmd)).unwrap_err();
            assert_eq!(err.to_string(), "unknown flag `--window`", "{cmd}");
        }
    }

    #[test]
    fn stream_rejects_offline_algorithms() {
        let err = Command::parse(&argv("stream --input x.tsv --algo mcf-ltc")).unwrap_err();
        assert!(err.to_string().contains("online algorithm"));
        assert!(Command::parse(&argv("stream --algo aam")).is_err());
        assert!(Command::parse(&argv("stream --input x.tsv --algo aam --shards 0")).is_err());
        assert!(Command::parse(&argv("stream --input x.tsv --algo aam --pipeline 0")).is_err());
    }

    #[test]
    fn resume_streams_from_a_snapshot_it_requires() {
        let cmd = Command::parse(&argv(
            "resume --snapshot s.ltc --checkins c.tsv --pipeline 8 --snapshot-out s2.ltc",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Stream {
                source: StreamSource::Snapshot {
                    path: "s.ltc".into(),
                },
                checkins: Some("c.tsv".into()),
                pipeline: 8,
                rebalance: None,
                snapshot_out: Some("s2.ltc".into()),
                metrics_out: None,
            }
        );
        assert!(Command::parse(&argv("resume --checkins c.tsv")).is_err());
        // A resume takes its configuration from the snapshot.
        assert!(Command::parse(&argv("resume --snapshot s.ltc --algo laf")).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let cmd = Command::parse(&argv("simulate --input d.tsv --algo random")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                input: "d.tsv".into(),
                algo: AlgoChoice::Random,
                trials: 1000,
                seed: 42,
            }
        );
    }
}
