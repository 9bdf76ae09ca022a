//! Implementation of the `ltc` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; keeping the logic in a
//! library makes every command unit-testable without spawning processes.
//!
//! ```text
//! ltc generate --preset synthetic --scale 16 --out data.tsv
//! ltc run      --input data.tsv --algo aam --stats
//! ltc stream   --input data.tsv --algo laf --shards 4 --pipeline 32 \
//!              --rebalance 10000 --snapshot-out state.ltc
//! ltc serve    --input data.tsv --algo laf --shards 4 --addr 127.0.0.1:7534
//! ltc stream   --connect 127.0.0.1:7534 --checkins more.tsv
//! ltc resume   --snapshot state.ltc --checkins more.tsv
//! ltc exact    --input data.tsv
//! ltc simulate --input data.tsv --algo laf --trials 1000
//! ltc bounds   --input data.tsv
//! ```
//!
//! `stream`/`snapshot`/`resume` drive a
//! [`Session`](ltc_core::service::Session) — the in-process pipelined
//! [`ServiceHandle`](ltc_core::service::ServiceHandle) runtime for
//! `--input` (persistent shard threads, submission-ordered NDJSON
//! output, exact mid-stream snapshots, optional periodic stripe
//! rebalancing), or a remote `ltc serve` process for `--connect`, with
//! byte-identical output either way (`ltc-proto v2`; see
//! `docs/PROTOCOL.md`). The batch commands (`run`, `exact`, `simulate`,
//! `bounds`) replay recorded instances. See `docs/ARCHITECTURE.md` for
//! the layering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::io::Write;

/// Entry point: parses `argv` and executes the command, writing
/// human-readable output to `out`. Returns the process exit code.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    match args::Command::parse(argv) {
        Ok(args::Command::Help) => {
            let _ = writeln!(out, "{}", args::USAGE);
            0
        }
        Ok(cmd) => match commands::execute(cmd, out) {
            Ok(()) => 0,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                1
            }
        },
        Err(e) => {
            let _ = writeln!(out, "error: {e}\n\n{}", args::USAGE);
            2
        }
    }
}
