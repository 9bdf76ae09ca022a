//! Integration tests over the fixture corpus in `tests/fixtures/`:
//! every bad fixture triggers exactly its one diagnostic, the text and
//! JSON reports are byte-stable against committed goldens, the JSON
//! output satisfies the `ltc-bench/v1` schema checker, and the waiver
//! → baseline workflow round-trips.
//!
//! Regenerate the goldens with
//! `UPDATE_GOLDENS=1 cargo test -p ltc-analysis --test corpus`.

use ltc_analysis::analysis::FileContext;
use ltc_analysis::baseline::Baseline;
use ltc_analysis::rules;
use ltc_analysis::{classify, lint_workspace, report, Options};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The `.rs` fixtures, sorted by file name for stable iteration.
fn fixture_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(fixtures_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, fs::read_to_string(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// Copies the `.rs` fixtures into `<tmp>/src/` so [`lint_workspace`]
/// can walk them like real sources — the checked-in `fixtures/`
/// directory itself is excluded from workspace runs precisely because
/// its files violate on purpose.
fn corpus_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ltc-lint-corpus-{}-{tag}", std::process::id()));
    let src = root.join("src");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&src).unwrap();
    for (name, body) in fixture_sources() {
        fs::write(src.join(name), body).unwrap();
    }
    root
}

/// Compares `actual` against the committed golden at
/// `tests/fixtures/<name>`, rewriting it under `UPDATE_GOLDENS=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = fixtures_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden `{name}` ({e}); run with UPDATE_GOLDENS=1"));
    assert_eq!(
        expected, actual,
        "`{name}` drifted; regenerate with UPDATE_GOLDENS=1 if the change is intended"
    );
}

#[test]
fn each_bad_fixture_triggers_exactly_its_one_diagnostic() {
    let mut seen = 0;
    for (name, src) in fixture_sources() {
        // Fixtures lint under the default path classification; the wire
        // overlay comes from their in-file `discipline(wire)` directive.
        let ctx = FileContext::new(&src, &classify("src/fixture.rs"));
        let rep = rules::run(&ctx);
        if let Some(code) = name.strip_suffix(".rs").and_then(|n| n.get(..4)) {
            if code.starts_with("l0") {
                let expected = code.to_uppercase();
                assert_eq!(
                    rep.findings.len(),
                    1,
                    "`{name}` must trigger exactly one diagnostic, got {:?}",
                    rep.findings
                );
                assert_eq!(rep.findings[0].code, expected, "`{name}`");
                seen += 1;
                continue;
            }
        }
        // Control fixtures: silent, and `waived.rs` records its waiver.
        assert!(
            rep.findings.is_empty(),
            "`{name}` must be clean: {:?}",
            rep.findings
        );
        let expected_waived = usize::from(name == "waived.rs");
        assert_eq!(rep.waived.len(), expected_waived, "`{name}`");
    }
    assert_eq!(seen, 7, "one bad fixture per code L000–L006");
}

#[test]
fn reports_match_the_committed_goldens_byte_for_byte() {
    let root = corpus_workspace("golden");
    let rep = lint_workspace(&root, &Options::default(), &Baseline::default()).unwrap();
    assert_eq!(rep.files_scanned, 9);
    assert_eq!(rep.findings.len(), 7);
    assert_eq!(rep.waived, 1);
    assert_golden("golden_report.txt", &report::text(&rep));
    assert_golden("golden_report.json", &report::json(&rep));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn json_report_satisfies_the_bench_schema() {
    let root = corpus_workspace("schema");
    let rep = lint_workspace(&root, &Options::default(), &Baseline::default()).unwrap();
    ltc_bench::json::validate(&report::json(&rep)).expect("populated report must validate");

    // An all-clean run (nothing but the summary row) must validate too.
    fs::remove_dir_all(root.join("src")).unwrap();
    fs::create_dir_all(root.join("src")).unwrap();
    fs::write(root.join("src/clean.rs"), "pub fn ok() {}\n").unwrap();
    let empty = lint_workspace(&root, &Options::default(), &Baseline::default()).unwrap();
    assert!(empty.findings.is_empty());
    ltc_bench::json::validate(&report::json(&empty)).expect("empty report must validate");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn baseline_round_trips_and_reports_stale_entries() {
    let root = corpus_workspace("baseline");
    let raw = lint_workspace(&root, &Options::default(), &Baseline::default()).unwrap();
    assert!(raw.is_dirty());

    // Serialize → parse → relint: every finding is absorbed, nothing
    // is stale, and a `--deny` run would pass.
    let baseline = Baseline::from_findings(
        raw.findings
            .iter()
            .map(|f| (f.code, f.path.as_str(), f.snippet.as_str())),
    );
    let reparsed = Baseline::parse(&baseline.serialize()).unwrap();
    let rep = lint_workspace(&root, &Options::default(), &reparsed).unwrap();
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    assert!(rep.stale_baseline.is_empty());
    assert_eq!(rep.baselined, raw.findings.len());
    assert!(!rep.is_dirty());

    // Fixing a baselined site makes its entry stale: the baseline may
    // only shrink, so the run turns dirty until the entry is removed.
    fs::write(
        root.join("src/l003_lock_unwrap.rs"),
        "pub fn bump(n: &mut u64) {\n    *n += 1;\n}\n",
    )
    .unwrap();
    let fixed = lint_workspace(&root, &Options::default(), &reparsed).unwrap();
    assert!(fixed.findings.is_empty());
    assert_eq!(fixed.stale_baseline.len(), 1);
    assert_eq!(fixed.stale_baseline[0].code, "L003");
    assert!(fixed.is_dirty());

    // A baseline entry for a file outside this run's scan set (the
    // vendor workflow) is not reported stale.
    fs::create_dir_all(root.join("vendor/shim/src")).unwrap();
    fs::write(
        root.join("vendor/shim/src/lib.rs"),
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .unwrap();
    let vendor = Baseline::parse(
        "# ltc-lint baseline\nL006\tvendor/shim/src/lib.rs\t1\tInstant::now();\tvendor shim\n",
    )
    .unwrap();
    let rep = lint_workspace(&root, &Options::default(), &vendor).unwrap();
    assert!(rep.stale_baseline.is_empty());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn baseline_entries_for_deleted_files_are_stale() {
    let root = corpus_workspace("deleted");
    let raw = lint_workspace(&root, &Options::default(), &Baseline::default()).unwrap();
    let baseline = Baseline::from_findings(
        raw.findings
            .iter()
            .map(|f| (f.code, f.path.as_str(), f.snippet.as_str())),
    );

    // Deleting a baselined file leaves its entry with nothing to absorb:
    // the run is dirty until the entry goes, like a fixed site.
    fs::remove_file(root.join("src/l003_lock_unwrap.rs")).unwrap();
    let rep = lint_workspace(&root, &Options::default(), &baseline).unwrap();
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    assert_eq!(rep.stale_baseline.len(), 1);
    assert_eq!(rep.stale_baseline[0].path, "src/l003_lock_unwrap.rs");
    assert!(rep.is_dirty());

    // The same holds for a deleted file the run would not scan anyway.
    let vendor = Baseline::parse(
        "# ltc-lint baseline\nL006\tvendor/gone/src/lib.rs\t1\tInstant::now();\tvendor shim\n",
    )
    .unwrap();
    let rep = lint_workspace(&root, &Options::default(), &vendor).unwrap();
    assert_eq!(rep.stale_baseline.len(), 1);
    assert_eq!(rep.stale_baseline[0].path, "vendor/gone/src/lib.rs");
    fs::remove_dir_all(&root).unwrap();
}
