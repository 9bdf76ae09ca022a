//! `ltc-lint` — the workspace invariant checker.
//!
//! The system's headline guarantee is bit-exact determinism: the same
//! instance produces the same arrangement, snapshot, WAL, and wire
//! bytes on every run, across shard counts, across crash/recovery.
//! PRs 2–9 enforce that with runtime differential tests and the
//! counting-allocator gate; this crate enforces it at the *source*
//! level, so a regression is a compile-gate failure instead of a
//! flaky-proptest hunt. In the offline spirit of the rest of the
//! workspace (the hand-rolled JSON codec, the vendored bench shims) it
//! is dependency-free: a small Rust lexer ([`lexer`]), a syntactic
//! per-file analysis ([`analysis`]), and six pattern rules ([`rules`]).
//!
//! | Code | Invariant |
//! |------|-----------|
//! | L000 | `ltc-lint` directives must be well-formed and live |
//! | L001 | no Display/Debug formatting of `f64` on wire paths |
//! | L002 | no `HashMap`/`HashSet` iteration on determinism paths |
//! | L003 | no `.lock().unwrap()` outside tests |
//! | L004 | no allocation in `// ltc-lint: hot-path` items |
//! | L005 | wire/WAL read loops sit under a length cap |
//! | L006 | no wall-clock reads in decision/serialization code |
//!
//! See `docs/LINTS.md` for the full catalog, waiver syntax
//! (`ltc-lint: allow(L00x) <reason>`), and the baseline workflow.

pub mod analysis;
pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;

use analysis::{Discipline, FileContext};
use baseline::{Baseline, Matcher};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A finding with its workspace-relative path attached.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathFinding {
    pub path: String,
    pub line: u32,
    pub code: &'static str,
    pub message: String,
    pub snippet: String,
}

/// The result of linting the whole workspace.
pub struct WorkspaceReport {
    /// Findings not absorbed by a waiver or the baseline, sorted.
    pub findings: Vec<PathFinding>,
    /// Baseline entries whose site is now clean: it was scanned and
    /// produced nothing, or its file no longer exists.
    pub stale_baseline: Vec<baseline::Entry>,
    pub files_scanned: usize,
    /// Findings absorbed by inline waivers.
    pub waived: usize,
    /// Findings absorbed by the baseline.
    pub baselined: usize,
}

impl WorkspaceReport {
    /// Whether a `--deny` run should fail: any live finding, or any
    /// stale baseline entry (the baseline may only shrink).
    pub fn is_dirty(&self) -> bool {
        !self.findings.is_empty() || !self.stale_baseline.is_empty()
    }
}

/// Maps a workspace-relative path (forward slashes) to the invariant
/// disciplines it is checked under.
///
/// Everything is [`Discipline::Decision`] — in a determinism-first
/// codebase every module either decides assignments or feeds something
/// that does. The [`Discipline::Wire`] overlay marks bytes another
/// machine (or a future run) re-reads: the protocol crate, the
/// durability crate, the snapshot codec, and the committed bench
/// reports. A file can override its classification with
/// `ltc-lint: discipline(wire|decision|none)`.
pub fn classify(rel: &str) -> Vec<Discipline> {
    let wire = rel.starts_with("crates/proto/src/")
        || rel.starts_with("crates/durable/src/")
        || rel == "crates/core/src/snapshot.rs"
        || rel == "crates/bench/src/json.rs";
    let mut d = vec![Discipline::Decision];
    if wire {
        d.push(Discipline::Wire);
    }
    d
}

/// Options for a workspace run.
#[derive(Default)]
pub struct Options {
    /// Also scan `vendor/` (report-only shims; findings live in the
    /// committed baseline as the swap-ready diff surface).
    pub include_vendor: bool,
}

/// Collects the `.rs` files a workspace run lints, workspace-relative
/// and sorted for byte-stable output.
///
/// Skipped: `target/`, VCS internals, `docs/`, test/bench/example
/// trees (integration tests are wholly test code — L003's test
/// exemption covers them wholesale), lint fixtures, and `vendor/`
/// unless opted in.
pub fn collect_sources(root: &Path, opts: &Options) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                let skip = matches!(
                    name.as_ref(),
                    "target"
                        | ".git"
                        | ".github"
                        | "docs"
                        | "tests"
                        | "benches"
                        | "examples"
                        | "fixtures"
                        | "node_modules"
                ) || (name == "vendor" && !opts.include_vendor);
                if !skip {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_path_buf();
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every source under `root`, absorbing grandfathered findings
/// through `baseline` (pass an empty [`Baseline`] for a raw run).
pub fn lint_workspace(
    root: &Path,
    opts: &Options,
    baseline: &Baseline,
) -> Result<WorkspaceReport, String> {
    let files = collect_sources(root, opts)?;
    let mut matcher = Matcher::new(baseline);
    let mut findings = Vec::new();
    let mut scanned: BTreeSet<String> = BTreeSet::new();
    let mut waived = 0usize;
    let mut baselined = 0usize;
    for rel in &files {
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel_str}: {e}"))?;
        let ctx = FileContext::new(&src, &classify(&rel_str));
        let rep = rules::run(&ctx);
        waived += rep.waived.len();
        for f in rep.findings {
            let snippet = ctx.snippet(f.line).to_string();
            if matcher.absorb(f.code, &rel_str, &snippet) {
                baselined += 1;
            } else {
                findings.push(PathFinding {
                    path: rel_str.clone(),
                    line: f.line,
                    code: f.code,
                    message: f.message,
                    snippet,
                });
            }
        }
        scanned.insert(rel_str);
    }
    findings.sort();
    let stale_baseline = matcher
        .stale(&|p: &str| scanned.contains(p) || !root.join(p).exists())
        .into_iter()
        .cloned()
        .collect();
    Ok(WorkspaceReport {
        findings,
        stale_baseline,
        files_scanned: files.len(),
        waived,
        baselined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_overlay_covers_proto_durable_snapshot_and_bench_json() {
        for wire in [
            "crates/proto/src/wire.rs",
            "crates/durable/src/wal.rs",
            "crates/core/src/snapshot.rs",
            "crates/bench/src/json.rs",
        ] {
            assert!(classify(wire).contains(&Discipline::Wire), "{wire}");
        }
        for not_wire in [
            "crates/core/src/engine.rs",
            "crates/cli/src/commands.rs",
            "vendor/rand/src/lib.rs",
        ] {
            assert!(
                !classify(not_wire).contains(&Discipline::Wire),
                "{not_wire}"
            );
            assert!(classify(not_wire).contains(&Discipline::Decision));
        }
    }
}
