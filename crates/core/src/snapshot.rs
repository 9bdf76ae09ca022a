//! Versioned snapshot serialization for [`LtcService`] crash recovery.
//!
//! The wire format (`ltc-snapshot v3`) is line-oriented text with
//! whitespace-separated tokens. Every `f64` is written as the 16-hex-digit
//! IEEE-754 bit pattern (`f64::to_bits`), so a snapshot→restore round
//! trip is **bit-exact** — no decimal-formatting drift can change a
//! quality total or an accuracy, which is what lets a restored service
//! continue a stream with output identical to an uninterrupted run (see
//! the conformance harness in `tests/conform/`).
//!
//! Layout (one section per line, in order; the full grammar with the
//! compatibility policy lives in `docs/SNAPSHOT_FORMAT.md`):
//!
//! ```text
//! ltc-snapshot v3
//! params <eps> <K> <d_max> <min_acc> <within|unrestricted> <hoeffding|fixed> [th]
//! region <min_x> <min_y> <max_x> <max_y>
//! config <algo...> <cell_size> <batch_capacity> <next_arrival>
//!        [grow <clamps>]
//!        [stripes <n> <cell_size> <origin_x> <cols> <start ...>]
//! posted <n>                                 // task ids 0..n were handed out
//! shard <i> <n_live> [clamped <total> <mark>]
//!       <noindex | index cs x0 y0 x1 y1>
//! ids <id ...>                               // the shard's live tasks, ascending
//! tasks <x y ...>
//! quality <S[t] ...>
//! accuracy sigmoid | accuracy table <n_workers> <task-major values ...>
//! assigned <n_assignments> [<latest_worker>]  // the session's counters
//! end
//! ```
//!
//! A snapshot is O(live tasks): it holds no completed task and no
//! decision history. `posted` counts every task the session handed an
//! id to; an id below it that no shard lists is a completed task. The
//! `assigned` record carries the session's two counters
//! ([`ServiceSnapshot::n_assignments`] and
//! [`ServiceSnapshot::latest_assigned`], the latter present exactly when
//! something was assigned); the decisions themselves are the event
//! stream's. There is one encoding: `v3` replaced `v2`'s `taskmap`, its
//! per-shard `completed` flags and the shard line's always-0
//! `<next_arrival>` token, and a `v1` or `v2` file is refused by its
//! header.
//!
//! Three optional groups extend the format (each is written only when
//! its feature is in use, so snapshots of services that never enabled
//! it write none, and files without the group still parse):
//!
//! * `grow <clamps>` — the adaptive-index threshold
//!   ([`ServiceBuilder::grow_index_after`](crate::service::ServiceBuilder::grow_index_after)),
//!   so a restored service keeps adapting the way the original did;
//! * `stripes ...` — the router's explicit stripe layout
//!   ([`StripeLayout`]), present once a
//!   rebalance moved the stripes off the default equal-width split
//!   (absent, the reader re-derives the uniform layout from `region`
//!   and `cell_size`, exactly as earlier versions did);
//! * `clamped <total> <mark>` (per shard) — the shard index's cumulative
//!   border-clamp counter and its value at the last adaptive growth, so
//!   restore keeps the operator telemetry and the
//!   `grow_index_after` threshold stays armed where it was (absent —
//!   zero clamps, or an older file — the restored index re-counts from
//!   its live re-insertions, the pre-group behavior).
//!
//! Per-shard **index bounds** (`index cs x0 y0 x1 y1`) round-trip adaptive growth for free: a
//! grown index serializes its grown extent and restores over it.
//!
//! A shard line that carries `rng <draws>`, which older builds wrote
//! for [`Algorithm::Random`]
//! sessions, whose per-shard RNG streams were replaced by a stateless
//! keyed hash: the recorded decisions came from the old rule, so the
//! session cannot continue under the new one. Snapshots of every other
//! policy never carried the field and load unchanged.
//!
//! Unknown versions and any structural inconsistency are rejected with a
//! [`SnapshotError`]; the reader never panics on malformed input.

use crate::engine::EngineState;
use crate::hex;
use crate::model::{
    AccuracyModel, AccuracyTable, Eligibility, ProblemParams, QualityModel, Task, TaskId, WorkerId,
};
use crate::service::{Algorithm, LtcService, ServiceError, ServiceSnapshot, StripeLayout};
use ltc_spatial::{BoundingBox, Point};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// The header the format starts with.
pub const SNAPSHOT_HEADER: &str = "ltc-snapshot v3";

/// Upper bound on any single up-front allocation while parsing untrusted
/// snapshot input; vectors grow past it only as tokens actually parse.
const MAX_PREALLOC: usize = 1 << 20;

/// Hard ceiling on shards a snapshot may declare (far above any real
/// deployment; a guard against hostile `stripes` counts).
const MAX_SHARDS: usize = 1 << 20;

/// Hard ceiling on one snapshot line (64 MiB — whole task/quality
/// arrays sit on a single line, so this is generous; a truncated or
/// hostile file must still not buffer without bound).
const MAX_SNAPSHOT_LINE: usize = 1 << 26;

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The snapshot text is malformed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// The decoded state was rejected by [`LtcService::restore`].
    Service(ServiceError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Parse { line, what } => {
                write!(f, "snapshot parse error at line {line}: {what}")
            }
            SnapshotError::Service(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Writes each of `values` as a space and then its 16-hex-digit bit
/// pattern.
fn put<W: Write>(out: &mut W, values: &[f64]) -> io::Result<()> {
    for &v in values {
        let mut word = [b' '; 17];
        word[1..].copy_from_slice(&hex::f64_digits(v));
        out.write_all(&word)?;
    }
    Ok(())
}

/// Serializes a [`ServiceSnapshot`] into the v3 text format.
pub fn write_snapshot<W: Write>(snap: &ServiceSnapshot, mut out: W) -> io::Result<()> {
    let out = &mut out;
    writeln!(out, "{SNAPSHOT_HEADER}")?;
    let p = &snap.params;
    write!(out, "params")?;
    put(out, &[p.epsilon])?;
    write!(out, " {}", p.capacity)?;
    put(out, &[p.d_max, p.min_accuracy])?;
    write!(
        out,
        " {}",
        match p.eligibility {
            Eligibility::WithinRange => "within",
            Eligibility::Unrestricted => "unrestricted",
        }
    )?;
    match p.quality {
        QualityModel::Hoeffding => writeln!(out, " hoeffding")?,
        QualityModel::FixedThreshold(th) => {
            write!(out, " fixed")?;
            put(out, &[th])?;
            writeln!(out)?;
        }
    }
    write!(out, "region")?;
    let r = &snap.region;
    put(out, &[r.min.x, r.min.y, r.max.x, r.max.y])?;
    writeln!(out)?;
    let algo = match snap.algorithm {
        Algorithm::Laf => "laf".to_string(),
        Algorithm::Aam => "aam".to_string(),
        Algorithm::AamLgf => "aam-lgf".to_string(),
        Algorithm::AamLrf => "aam-lrf".to_string(),
        Algorithm::Random { seed } => format!("random {seed}"),
    };
    write!(out, "config {algo}")?;
    put(out, &[snap.cell_size])?;
    write!(out, " {} {}", snap.batch_capacity, snap.next_arrival)?;
    if let Some(clamps) = snap.grow_clamps {
        write!(out, " grow {clamps}")?;
    }
    if let Some(stripes) = &snap.stripes {
        write!(out, " stripes {}", stripes.starts.len())?;
        put(out, &[stripes.cell_size, stripes.origin_x])?;
        write!(out, " {}", stripes.cols)?;
        for &s in &stripes.starts {
            write!(out, " {s}")?;
        }
    }
    writeln!(out)?;
    writeln!(out, "posted {}", snap.posted)?;
    for (i, e) in snap.engines.iter().enumerate() {
        write!(out, "shard {i} {} ", e.tasks.len())?;
        if e.clamped_insertions > 0 {
            write!(out, "clamped {} {} ", e.clamped_insertions, e.clamp_mark)?;
        }
        match e.index_geometry {
            None => writeln!(out, "noindex")?,
            Some((cs, b)) => {
                write!(out, "index")?;
                put(out, &[cs, b.min.x, b.min.y, b.max.x, b.max.y])?;
                writeln!(out)?;
            }
        }
        write!(out, "ids")?;
        for id in &e.ids {
            write!(out, " {}", id.0)?;
        }
        writeln!(out)?;
        write!(out, "tasks")?;
        for t in &e.tasks {
            put(out, &[t.loc.x, t.loc.y])?;
        }
        writeln!(out)?;
        write!(out, "quality")?;
        put(out, &e.s)?;
        writeln!(out)?;
        match &e.accuracy {
            AccuracyModel::Sigmoid => writeln!(out, "accuracy sigmoid")?,
            AccuracyModel::Table(table) => {
                write!(out, "accuracy table {}", table.n_workers())?;
                put(out, table.task_major_values())?;
                writeln!(out)?;
            }
        }
    }
    write!(out, "assigned {}", snap.n_assignments)?;
    if let Some(w) = snap.latest_assigned {
        write!(out, " {}", w.0)?;
    }
    writeln!(out)?;
    writeln!(out, "end")?;
    Ok(())
}

/// Serializes a service's current state (shorthand for
/// [`LtcService::snapshot`] + [`write_snapshot`]).
pub fn save_service<W: Write>(service: &LtcService, out: W) -> io::Result<()> {
    write_snapshot(&service.snapshot(), out)
}

/// Reads a v3 snapshot back into a [`ServiceSnapshot`]. Any other
/// header is refused by name, `v1` and `v2` included.
pub fn read_snapshot<R: BufRead>(reader: R) -> Result<ServiceSnapshot, SnapshotError> {
    let mut lines = Lines::new(reader);
    let header = lines.next_line()?;
    let retired = match header.trim() {
        "ltc-snapshot v1" => Some("v1 kept the assignment log and every task ever posted"),
        "ltc-snapshot v2" => Some("v2 kept every task ever posted, completed ones included"),
        _ => None,
    };
    if let Some(why) = retired {
        return Err(lines.err(format!(
            "`{}` is not readable: {why}, and `{SNAPSHOT_HEADER}` holds the live tasks \
             only (a v2 text converts with scripts/snapshot_v2_to_v3.py)",
            header.trim()
        )));
    }
    if header.trim() != SNAPSHOT_HEADER {
        return Err(lines.err(format!(
            "unsupported snapshot header `{}` (expected `{SNAPSHOT_HEADER}`)",
            header.trim()
        )));
    }

    // params
    let line = lines.next_line()?;
    let mut tk = Tokens::new(&line, lines.lineno);
    tk.literal("params")?;
    let epsilon = tk.f64()?;
    let capacity = tk.u64()? as u32;
    let d_max = tk.f64()?;
    let min_accuracy = tk.f64()?;
    let eligibility = match tk.word()? {
        "within" => Eligibility::WithinRange,
        "unrestricted" => Eligibility::Unrestricted,
        other => return Err(tk.bad(format!("unknown eligibility `{other}`"))),
    };
    let quality = match tk.word()? {
        "hoeffding" => QualityModel::Hoeffding,
        "fixed" => QualityModel::FixedThreshold(tk.f64()?),
        other => return Err(tk.bad(format!("unknown quality model `{other}`"))),
    };
    let params = ProblemParams {
        epsilon,
        capacity,
        d_max,
        min_accuracy,
        eligibility,
        quality,
    };

    // region
    let line = lines.next_line()?;
    let mut tk = Tokens::new(&line, lines.lineno);
    tk.literal("region")?;
    let region = BoundingBox::new(
        Point::new(tk.f64()?, tk.f64()?),
        Point::new(tk.f64()?, tk.f64()?),
    );

    // config
    let line = lines.next_line()?;
    let mut tk = Tokens::new(&line, lines.lineno);
    tk.literal("config")?;
    let algorithm = match tk.word()? {
        "laf" => Algorithm::Laf,
        "aam" => Algorithm::Aam,
        "aam-lgf" => Algorithm::AamLgf,
        "aam-lrf" => Algorithm::AamLrf,
        "random" => Algorithm::Random { seed: tk.u64()? },
        other => return Err(tk.bad(format!("unknown algorithm `{other}`"))),
    };
    let cell_size = tk.f64()?;
    let batch_capacity = tk.u64()? as usize;
    let next_arrival = tk.u64()?;
    // Optional trailing config groups (absent in older snapshots and
    // whenever the feature is unused — see the module docs).
    let mut grow_clamps = None;
    let mut stripes = None;
    while let Some(group) = tk.maybe_word() {
        match group {
            "grow" => grow_clamps = Some(tk.u64()?),
            "stripes" => {
                let n = tk.u64()? as usize;
                if n > MAX_SHARDS {
                    return Err(tk.bad(format!("{n} stripes exceed the {MAX_SHARDS}-shard limit")));
                }
                let stripe_cell = tk.f64()?;
                let origin_x = tk.f64()?;
                let cols = tk.u64()? as usize;
                let mut starts = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    starts.push(tk.u64()? as usize);
                }
                stripes = Some(StripeLayout {
                    cell_size: stripe_cell,
                    origin_x,
                    cols,
                    starts,
                });
            }
            other => return Err(tk.bad(format!("unknown config group `{other}`"))),
        }
    }

    // posted: the ids handed out so far.
    let line = lines.next_line()?;
    let mut tk = Tokens::new(&line, lines.lineno);
    tk.literal("posted")?;
    let posted = tk.u64()?;
    let Ok(posted) = u32::try_from(posted) else {
        return Err(tk.bad(format!("{posted} tasks exceed the u32 id space")));
    };

    // shards until the `assigned` counters. Counts come from untrusted
    // input: allocations are capped up front (growth past the cap is
    // driven by actually-parsed tokens, so a lying count errors on the
    // missing token instead of allocating).
    let mut engines: Vec<EngineState> = Vec::new();
    let (n_assignments, latest_assigned) = loop {
        let line = lines.next_line()?;
        let mut tk = Tokens::new(&line, lines.lineno);
        match tk.word()? {
            "assigned" => {
                let n = tk.u64()?;
                let latest = match (n, tk.maybe_word()) {
                    (0, None) => None,
                    (0, Some(_)) => return Err(tk.bad("a latest worker but no assignments".into())),
                    (_, None) => return Err(tk.bad("assignments but no latest worker".into())),
                    (_, Some(w)) => Some(WorkerId(
                        w.parse()
                            .map_err(|e| tk.bad(format!("bad integer `{w}`: {e}")))?,
                    )),
                };
                if let Some(extra) = tk.maybe_word() {
                    return Err(tk.bad(format!("unexpected `{extra}` after the counters")));
                }
                break (n, latest);
            }
            "shard" => {}
            other => return Err(tk.bad(format!("expected `shard` or `assigned`, got `{other}`"))),
        }
        let idx = tk.u64()? as usize;
        if idx != engines.len() {
            return Err(tk.bad(format!("shard {idx} out of order")));
        }
        let n = tk.u64()? as usize;
        if n > posted as usize {
            return Err(tk.bad(format!("shard {idx} has {n} live tasks of {posted} posted")));
        }
        let mut geometry_word = tk.word()?;
        if geometry_word == "rng" {
            return Err(tk.bad(
                "the `rng <draws>` field is not part of the format: it records a \
                 per-shard RNG stream of an older Random, which is now a stateless \
                 keyed hash and cannot continue that session"
                    .into(),
            ));
        }
        let (clamped_insertions, clamp_mark) = if geometry_word == "clamped" {
            let total = tk.u64()?;
            let mark = tk.u64()?;
            if mark > total {
                return Err(tk.bad(format!(
                    "clamp mark {mark} exceeds the cumulative counter {total}"
                )));
            }
            geometry_word = tk.word()?;
            (total, mark)
        } else {
            (0, 0)
        };
        let index_geometry = match geometry_word {
            "noindex" => None,
            "index" => Some((
                tk.f64()?,
                BoundingBox::new(
                    Point::new(tk.f64()?, tk.f64()?),
                    Point::new(tk.f64()?, tk.f64()?),
                ),
            )),
            other => return Err(tk.bad(format!("expected index geometry, got `{other}`"))),
        };

        let line = lines.next_line()?;
        let mut tk = Tokens::new(&line, lines.lineno);
        tk.literal("ids")?;
        let mut ids = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            let id = tk.u64()?;
            match u32::try_from(id) {
                Ok(id) if id < posted => ids.push(TaskId(id)),
                _ => return Err(tk.bad(format!("task id {id} was never posted"))),
            }
        }

        let line = lines.next_line()?;
        let mut tk = Tokens::new(&line, lines.lineno);
        tk.literal("tasks")?;
        let mut tasks = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            tasks.push(Task::new(Point::new(tk.f64()?, tk.f64()?)));
        }

        let line = lines.next_line()?;
        let mut tk = Tokens::new(&line, lines.lineno);
        tk.literal("quality")?;
        let mut s = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            s.push(tk.f64()?);
        }

        let line = lines.next_line()?;
        let mut tk = Tokens::new(&line, lines.lineno);
        tk.literal("accuracy")?;
        let accuracy = match tk.word()? {
            "sigmoid" => AccuracyModel::Sigmoid,
            "table" => {
                // One row per posted task: rows are keyed by task id.
                let n_workers = tk.u64()? as usize;
                if n_workers == 0 {
                    return Err(tk.bad("a table needs at least one worker".into()));
                }
                let Some(n_values) = n_workers.checked_mul(posted as usize) else {
                    return Err(tk.bad(format!("table size {n_workers}x{posted} overflows")));
                };
                let mut values = Vec::with_capacity(n_values.min(MAX_PREALLOC));
                for _ in 0..n_values {
                    let v: f64 = tk.f64()?;
                    if !(0.0..=1.0).contains(&v) {
                        // ltc-lint: allow(L001) parse-error diagnostic for humans; echoes the rejected value, never re-enters the snapshot
                        return Err(tk.bad(format!("table accuracy {v} outside [0, 1]")));
                    }
                    values.push(v);
                }
                AccuracyModel::Table(AccuracyTable::from_task_major(n_workers, values))
            }
            other => return Err(tk.bad(format!("unknown accuracy model `{other}`"))),
        };

        engines.push(EngineState {
            params,
            accuracy,
            ids,
            tasks,
            s,
            next_id: posted,
            next_arrival: 0,
            index_geometry,
            clamped_insertions,
            clamp_mark,
        });
    };
    let line = lines.next_line()?;
    Tokens::new(&line, lines.lineno).literal("end")?;

    Ok(ServiceSnapshot {
        params,
        region,
        algorithm,
        cell_size,
        batch_capacity,
        grow_clamps,
        stripes,
        next_arrival,
        posted,
        n_assignments,
        latest_assigned,
        engines,
    })
}

/// Reads a snapshot and restores the service in one step.
pub fn load_service<R: BufRead>(reader: R) -> Result<LtcService, SnapshotError> {
    LtcService::restore(read_snapshot(reader)?).map_err(SnapshotError::Service)
}

/// Line cursor with 1-based numbering for error reporting.
struct Lines<R> {
    reader: R,
    lineno: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Self { reader, lineno: 0 }
    }

    fn next_line(&mut self) -> Result<String, SnapshotError> {
        loop {
            // A snapshot line legitimately holds a whole task or quality
            // array, so the cap is generous — but a truncated or hostile
            // file must not buffer without bound.
            let mut buf = Vec::new();
            let n = (&mut self.reader)
                .take(MAX_SNAPSHOT_LINE as u64)
                .read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Err(SnapshotError::Parse {
                    line: self.lineno + 1,
                    what: "unexpected end of snapshot".into(),
                });
            }
            if n == MAX_SNAPSHOT_LINE && buf.last() != Some(&b'\n') {
                return Err(SnapshotError::Parse {
                    line: self.lineno + 1,
                    what: format!("line exceeds the {MAX_SNAPSHOT_LINE}-byte cap"),
                });
            }
            self.lineno += 1;
            let line = String::from_utf8(buf).map_err(|_| SnapshotError::Parse {
                line: self.lineno,
                what: "line is not valid UTF-8".into(),
            })?;
            if !line.trim().is_empty() {
                return Ok(line);
            }
        }
    }

    fn err(&self, what: String) -> SnapshotError {
        SnapshotError::Parse {
            line: self.lineno,
            what,
        }
    }
}

/// Whitespace tokenizer over one line.
struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str, lineno: usize) -> Self {
        Self {
            iter: line.split_whitespace(),
            line: lineno,
        }
    }

    fn bad(&self, what: String) -> SnapshotError {
        SnapshotError::Parse {
            line: self.line,
            what,
        }
    }

    fn word(&mut self) -> Result<&'a str, SnapshotError> {
        self.iter
            .next()
            .ok_or_else(|| self.bad("missing token".into()))
    }

    /// The next token, or `None` at end of line (for optional groups).
    fn maybe_word(&mut self) -> Option<&'a str> {
        self.iter.next()
    }

    fn literal(&mut self, expect: &str) -> Result<(), SnapshotError> {
        let got = self.word()?;
        if got == expect {
            Ok(())
        } else {
            Err(self.bad(format!("expected `{expect}`, got `{got}`")))
        }
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let w = self.word()?;
        w.parse()
            .map_err(|e| self.bad(format!("bad integer `{w}`: {e}")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        let w = self.word()?;
        hex::parse_f64(w.as_bytes())
            .ok_or_else(|| self.bad(format!("bad f64 bit pattern `{w}`: not 16 hex digits")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Task, Worker};
    use crate::service::ServiceBuilder;
    use std::num::NonZeroUsize;

    fn sample_service() -> LtcService {
        let params = ProblemParams::builder()
            .epsilon(0.23)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(500.0, 500.0));
        let tasks: Vec<Task> = (0..12)
            .map(|i| Task::new(Point::new((i % 4) as f64 * 120.0, (i / 4) as f64 * 150.0)))
            .collect();
        let mut service = ServiceBuilder::new(params, region)
            .tasks(tasks)
            .shards(NonZeroUsize::new(2).unwrap())
            .algorithm(Algorithm::Aam)
            .build()
            .unwrap();
        for i in 0..40u64 {
            let loc = Point::new((i % 21) as f64 * 24.0, (i % 19) as f64 * 26.0);
            service.check_in(&Worker::new(loc, 0.8 + (i % 5) as f64 * 0.04));
        }
        service
    }

    #[test]
    fn snapshot_text_round_trips_bit_exactly() {
        let service = sample_service();
        let snap = service.snapshot();
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(SNAPSHOT_HEADER));
        assert!(text.trim_end().ends_with("end"));
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn load_service_restores_counters() {
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        let restored = load_service(io::Cursor::new(buf)).unwrap();
        assert_eq!(restored.n_workers_seen(), service.n_workers_seen());
        assert_eq!(restored.n_assignments(), service.n_assignments());
        assert_eq!(restored.n_tasks(), service.n_tasks());
        assert_eq!(restored.n_uncompleted(), service.n_uncompleted());
    }

    #[test]
    fn malformed_snapshots_are_rejected_cleanly() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n\
             config laf 403e000000000000 64 0\n"
        );
        for text in [
            "".to_string(),
            "not-a-snapshot".to_string(),
            "ltc-snapshot v4\n".to_string(),
            format!("{SNAPSHOT_HEADER}\n"),
            format!("{SNAPSHOT_HEADER}\nparams zz\n"),
            format!("{SNAPSHOT_HEADER}\nparams"),
            // Hostile counts must error, not allocate or panic: a posted
            // count past the id space, a lying live count, an id never
            // posted, and an overflowing/huge table declaration.
            format!("{prelude}posted 17000000000000000000\n"),
            format!("{prelude}posted 5\nshard 0 17000000000000000000 noindex\nids\n"),
            format!("{prelude}posted 5\nshard 0 2 noindex\nids 1 99999999999\n"),
            format!("{prelude}posted 2\nshard 0 1 noindex\nids 2\n"),
            format!(
                "{prelude}posted 2\nshard 0 2 noindex\nids 0 1\ntasks {z} {z} {z} {z}\n\
                 quality {z} {z}\naccuracy table 9999999999999999999 0\n",
                z = "0000000000000000"
            ),
            // The v2 shard line's retired `<next_arrival>` token.
            format!("{prelude}posted 0\nshard 0 0 0 noindex\nids\n"),
        ] {
            let err = read_snapshot(io::Cursor::new(text.as_bytes().to_vec()));
            assert!(err.is_err(), "accepted malformed snapshot {text:?}");
        }
        // Truncated mid-stream.
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_snapshot(io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn v1_and_v2_snapshots_are_refused_by_their_version() {
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for old in ["ltc-snapshot v1", "ltc-snapshot v2"] {
            let retired = text.replacen(SNAPSHOT_HEADER, old, 1);
            let err = read_snapshot(io::Cursor::new(retired.as_bytes())).unwrap_err();
            assert!(matches!(err, SnapshotError::Parse { line: 1, .. }), "{err}");
            assert!(err.to_string().contains(&format!("`{old}`")), "{err}");
        }
    }

    #[test]
    fn only_live_tasks_are_written_and_completed_ids_are_implied() {
        let mut service = sample_service();
        // Complete task 0 (at the origin, alone within reach).
        while !service.is_completed(TaskId(0)) {
            service.check_in(&Worker::new(Point::new(1.0, 1.0), 0.95));
        }
        let snap = service.snapshot();
        let live: usize = snap.engines.iter().map(|e| e.ids.len()).sum();
        assert_eq!(snap.posted, 12);
        assert!(live < 12);
        assert_eq!(live, service.n_uncompleted());
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\nposted 12\n"), "{text}");
        let restored = load_service(io::Cursor::new(text.as_bytes())).unwrap();
        for t in (0..12).map(TaskId) {
            assert_eq!(restored.is_completed(t), service.is_completed(t), "{t:?}");
            assert_eq!(restored.quality(t), service.quality(t), "{t:?}");
        }
        // A live id on two shards, or a shard whose id bound is not the
        // posted count, is refused.
        let mut twice = snap.clone();
        let id = twice.engines[0].ids[0];
        twice.engines[1].ids.insert(0, id);
        let task = twice.engines[0].tasks[0];
        twice.engines[1].tasks.insert(0, task);
        twice.engines[1].s.insert(0, 0.0);
        assert!(matches!(
            LtcService::restore(twice),
            Err(ServiceError::BadSnapshot(_))
        ));
        let mut bound = snap;
        bound.engines[1].next_id = 13;
        assert!(matches!(
            LtcService::restore(bound),
            Err(ServiceError::BadSnapshot(_))
        ));
    }

    #[test]
    fn counters_no_session_could_write_are_refused() {
        let service = sample_service();
        let snap = service.snapshot();
        let (n, latest) = (snap.n_assignments, snap.latest_assigned.unwrap());
        assert!(n > 0);
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = format!("assigned {n} {}\n", latest.0);
        assert!(text.contains(&line), "{text}");
        // The reader: a latest worker exactly when something was assigned.
        for bad in [format!("assigned {n}\n"), "assigned 0 3\n".into()] {
            let altered = text.replace(&line, &bad);
            assert!(
                read_snapshot(io::Cursor::new(altered.as_bytes())).is_err(),
                "read `{bad}`"
            );
        }
        // The restore: counters the session's own state contradicts.
        let k = u64::from(snap.params.capacity);
        for (n, latest, what) in [
            (n, snap.next_arrival, "not arrived yet"),
            (k * snap.next_arrival + 1, latest.0, "capacity"),
            (1, latest.0, "gained quality"),
        ] {
            let bad = ServiceSnapshot {
                n_assignments: n,
                latest_assigned: Some(WorkerId(latest)),
                ..snap.clone()
            };
            match LtcService::restore(bad) {
                Err(ServiceError::BadSnapshot(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("restored ({n}, {latest}): {other:?}"),
            }
        }
        let none = ServiceSnapshot {
            latest_assigned: None,
            ..snap.clone()
        };
        assert!(LtcService::restore(none).is_err());
        assert!(LtcService::restore(snap).is_ok());
    }

    #[test]
    fn a_float_word_is_exactly_sixteen_hex_digits() {
        // `from_str_radix` took a sign and any width: it loaded
        // `+3fcd70a3d70a3d7` as ε = 1.85e-289 and `3ff` as 5.05e-321.
        let service = sample_service();
        let mut buf = Vec::new();
        save_service(&service, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let epsilon = format!("params {:016x} ", 0.23f64.to_bits());
        assert!(text.contains(&epsilon), "{text}");
        assert!(read_snapshot(io::Cursor::new(text.as_bytes())).is_ok());
        for bad in ["+3fcd70a3d70a3d7", "3ff"] {
            let altered = text.replacen(&epsilon, &format!("params {bad} "), 1);
            match read_snapshot(io::Cursor::new(altered.as_bytes())) {
                Err(SnapshotError::Parse { line: 2, what }) => {
                    assert!(what.contains(bad), "{what}");
                }
                other => panic!("loaded `params {bad}`: {other:?}"),
            }
        }
    }

    #[test]
    fn random_snapshots_round_trip() {
        let params = ProblemParams::builder()
            .epsilon(0.25)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(400.0, 400.0));
        let tasks: Vec<Task> = (0..8)
            .map(|i| Task::new(Point::new((i % 4) as f64 * 100.0, (i / 4) as f64 * 100.0)))
            .collect();
        let mut service = ServiceBuilder::new(params, region)
            .tasks(tasks)
            .shards(NonZeroUsize::new(2).unwrap())
            .algorithm(Algorithm::Random { seed: 7 })
            .build()
            .unwrap();
        for i in 0..25u64 {
            let loc = Point::new((i % 13) as f64 * 30.0, (i % 11) as f64 * 36.0);
            service.check_in(&Worker::new(loc, 0.9));
        }
        let snap = service.snapshot();
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded);
    }

    /// A Random session snapshotted by a build that kept per-shard RNG
    /// streams (two check-ins, four draws), in today's text otherwise.
    const OLD_RANDOM_SNAPSHOT: &str = "\
ltc-snapshot v3
params 3fd3333333333333 2 403e000000000000 3fe51eb851eb851f within hoeffding
region 4024000000000000 4024000000000000 4034000000000000 4032000000000000
config random 5 403e000000000000 1024 2
posted 3
shard 0 3 rng 4 index 403e000000000000 4024000000000000 4024000000000000 4034000000000000 4032000000000000
ids 0 1 2
tasks 4024000000000000 4024000000000000 4034000000000000 4028000000000000 402c000000000000 4032000000000000
quality 3ff2147ae13e4455 3fdf5c28f5b53499 3fe47ae147785472
accuracy sigmoid
assigned 4 1
end
";

    #[test]
    fn old_random_snapshots_are_refused_naming_the_rng_field() {
        let err = read_snapshot(io::Cursor::new(OLD_RANDOM_SNAPSHOT)).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SnapshotError::Parse { line: 6, .. }), "{msg}");
        assert!(msg.contains("`rng <draws>`"), "{msg}");
        // The same session without the field is a valid snapshot: only
        // the retired stream position is refused.
        let without = OLD_RANDOM_SNAPSHOT.replace(" rng 4", "");
        let mut service = load_service(io::Cursor::new(without)).unwrap();
        assert_eq!(service.n_assignments(), 4);
        service.check_in(&Worker::new(Point::new(18.0, 12.0), 0.95));
    }

    #[test]
    fn adaptive_config_groups_round_trip_and_default_to_legacy_bytes() {
        // A service with the adaptive knobs and a rebalanced stripe
        // layout serializes the optional config groups and reads them
        // back exactly.
        let params = ProblemParams::builder()
            .epsilon(0.25)
            .capacity(2)
            .d_max(30.0)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(600.0, 600.0));
        let mut service = ServiceBuilder::new(params, region)
            .shards(NonZeroUsize::new(3).unwrap())
            .grow_index_after(128)
            .build()
            .unwrap();
        // Skew the pool into one stripe and rebalance so the layout is
        // non-uniform.
        for i in 0..40 {
            service
                .post_task(Task::new(Point::new(
                    500.0 + (i % 4) as f64 * 20.0,
                    (i * 13 % 600) as f64,
                )))
                .unwrap();
        }
        service.rebalance().unwrap().expect("the pool is skewed");
        let snap = service.snapshot();
        assert_eq!(snap.grow_clamps, Some(128));
        assert!(snap.stripes.is_some(), "rebalanced layout must persist");
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" grow 128 "), "{text}");
        assert!(text.contains(" stripes 3 "), "{text}");
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded);
        let restored = LtcService::restore(decoded).unwrap();
        assert_eq!(restored.snapshot(), snap, "restore must keep the layout");

        // A service without the features writes no group at all — the
        // config line is byte-identical to the pre-extension format.
        let plain = sample_service();
        let mut buf = Vec::new();
        save_service(&plain, &mut buf).unwrap();
        let config_line = String::from_utf8(buf)
            .unwrap()
            .lines()
            .find(|l| l.starts_with("config "))
            .unwrap()
            .to_string();
        assert_eq!(config_line.split_whitespace().count(), 5, "{config_line}");
    }

    #[test]
    fn malformed_config_groups_are_rejected() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n"
        );
        for config in [
            "config laf 403e000000000000 64 0 frobnicate 3",
            "config laf 403e000000000000 64 0 grow",
            "config laf 403e000000000000 64 0 stripes 99999999999999999",
            "config laf 403e000000000000 64 0 stripes 2 403e000000000000 0000000000000000 8 0",
        ] {
            let text = format!("{prelude}{config}\nposted 0\nassigned 0\nend\n");
            assert!(
                read_snapshot(io::Cursor::new(text.into_bytes())).is_err(),
                "accepted malformed config `{config}`"
            );
        }
        // The retired auto-rebalance group is refused, not skipped.
        let text = format!(
            "{prelude}config laf 403e000000000000 64 0 rebalance 3ff6666666666666\nposted 0\n\
             assigned 0\nend\n"
        );
        let err = read_snapshot(io::Cursor::new(text.into_bytes())).unwrap_err();
        assert!(
            err.to_string().contains("unknown config group `rebalance`"),
            "{err}"
        );
        // An invalid stripe layout parses but must fail restoration.
        let text = format!(
            "{prelude}config laf 403e000000000000 64 0 stripes 1 403e000000000000 \
             0000000000000000 8 5\nposted 0\nshard 0 0 noindex\nids\ntasks\nquality\n\
             accuracy sigmoid\nassigned 0\nend\n"
        );
        let decoded = read_snapshot(io::Cursor::new(text.into_bytes())).unwrap();
        assert!(matches!(
            LtcService::restore(decoded),
            Err(ServiceError::BadSnapshot(_))
        ));
    }

    #[test]
    fn clamp_telemetry_rides_snapshots_and_keeps_the_growth_trigger_armed() {
        // Two out-of-region tasks are clamped, completed (and therefore
        // evicted from the index), then the service is snapshotted. The
        // `clamped` group must carry the counter across the restore —
        // re-insertion alone would recount 0, silently re-arming
        // `grow_index_after` — so one more clamp after the restore
        // crosses the threshold and grows the index.
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .d_max(30.0)
            .build()
            .unwrap();
        let small = BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        let mut service = ServiceBuilder::new(params, small)
            .grow_index_after(3)
            .build()
            .unwrap();
        for loc in [Point::new(200.0, 200.0), Point::new(300.0, 300.0)] {
            let t = service.post_task(Task::new(loc)).unwrap();
            while !service.is_completed(t) {
                service.check_in(&Worker::new(loc, 0.95));
            }
        }
        assert_eq!(service.metrics().clamped_insertions, 2);

        let snap = service.snapshot();
        assert_eq!(snap.engines[0].clamped_insertions, 2);
        assert_eq!(snap.engines[0].clamp_mark, 0);
        let mut buf = Vec::new();
        write_snapshot(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" clamped 2 0 "), "{text}");
        let decoded = read_snapshot(io::Cursor::new(buf)).unwrap();
        assert_eq!(snap, decoded, "the clamped group must round-trip");

        let mut restored = LtcService::restore(decoded).unwrap();
        assert_eq!(
            restored.metrics().clamped_insertions,
            2,
            "restore must keep the operator telemetry, not recount live tasks"
        );
        // Restore → snapshot stays a byte-exact fixed point.
        let mut again = Vec::new();
        write_snapshot(&restored.snapshot(), &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // The third clamp crosses the (still armed) threshold: the index
        // grows over the live tasks, recorded in the next snapshot.
        let far = Point::new(400.0, 400.0);
        restored.post_task(Task::new(far)).unwrap();
        assert_eq!(restored.metrics().clamped_insertions, 3);
        let grown = restored.snapshot().engines[0]
            .index_geometry
            .expect("within-range services keep an index")
            .1;
        assert!(
            grown.contains(far),
            "growth must have re-extended the index over the live tasks, got {grown:?}"
        );
    }

    #[test]
    fn malformed_clamped_groups_are_rejected() {
        let prelude = format!(
            "{SNAPSHOT_HEADER}\n\
             params 3fc999999999999a 2 403e000000000000 3fe51eb851eb851f within hoeffding\n\
             region 0000000000000000 0000000000000000 4059000000000000 4059000000000000\n\
             config laf 403e000000000000 64 0\nposted 0\n"
        );
        for shard in [
            "shard 0 0 clamped noindex",
            "shard 0 0 clamped 5 noindex",
            // A mark past the cumulative counter is structurally absurd.
            "shard 0 0 clamped 2 7 noindex",
        ] {
            let text = format!(
                "{prelude}{shard}\nids\ntasks\nquality\naccuracy sigmoid\n\
                 assigned 0\nend\n"
            );
            assert!(
                read_snapshot(io::Cursor::new(text.into_bytes())).is_err(),
                "accepted malformed shard line `{shard}`"
            );
        }
    }

    #[test]
    fn restore_rejects_multi_shard_tabular_snapshots() {
        // Hand-build a 2-shard snapshot whose engines carry tables — the
        // untrusted-input path must reject it like `build` does.
        let service = sample_service();
        let mut snap = service.snapshot();
        let n = snap.engines[0].tasks.len();
        snap.engines[0].accuracy =
            AccuracyModel::Table(AccuracyTable::from_task_major(3, vec![0.9; 3 * n]));
        let err = LtcService::restore(snap).unwrap_err();
        assert_eq!(err, ServiceError::TabularNeedsSingleShard);
    }
}
