//! Output formatting: human-readable text and an `ltc-bench/v1` JSON
//! document, so the existing schema checker in CI (and any tooling that
//! already understands bench reports) can consume lint results without
//! a second parser. The emission is hand-rolled — this crate stays
//! dependency-free; a test in `tests/` cross-checks the document
//! against `ltc_bench::json::validate`.

use crate::WorkspaceReport;
use std::fmt::Write as _;

/// Human-readable report, one line per finding, sorted and stable.
pub fn text(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}:{}: {} {}\n    {}",
            f.path, f.line, f.code, f.message, f.snippet
        );
    }
    for s in &report.stale_baseline {
        let _ = writeln!(
            out,
            "{}: stale baseline entry ({} x{}) — site now clean or file gone, remove it:\n    {}",
            s.path, s.code, s.count, s.snippet
        );
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} finding(s), {} waived inline, {} absorbed by baseline{}",
        report.files_scanned,
        report.findings.len(),
        report.waived,
        report.baselined,
        if report.stale_baseline.is_empty() {
            String::new()
        } else {
            format!(", {} stale baseline entr(ies)", report.stale_baseline.len())
        }
    );
    out
}

/// `ltc-bench/v1` document: one row per finding (name = `CODE path:line`)
/// plus a trailing `summary` row carrying the counters.
pub fn json(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n");
    push_str_kv(&mut out, 1, "schema", "ltc-bench/v1");
    out.push_str(",\n");
    push_str_kv(&mut out, 1, "bench", "ltc-lint");
    out.push_str(",\n  \"scale\": 1,\n  \"cores\": 1,\n  \"rows\": [\n");
    let mut first = true;
    for f in &report.findings {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    {\n");
        push_str_kv(
            &mut out,
            3,
            "name",
            &format!("{} {}:{}", f.code, f.path, f.line),
        );
        out.push_str(",\n");
        push_str_kv(&mut out, 3, "code", f.code);
        out.push_str(",\n");
        push_str_kv(&mut out, 3, "path", &f.path);
        out.push_str(",\n");
        let _ = writeln!(out, "      \"line\": {},", f.line);
        push_str_kv(&mut out, 3, "message", &f.message);
        out.push_str(",\n");
        push_str_kv(&mut out, 3, "snippet", &f.snippet);
        out.push_str("\n    }");
    }
    if !first {
        out.push_str(",\n");
    }
    out.push_str("    {\n");
    push_str_kv(&mut out, 3, "name", "summary");
    let _ = write!(
        out,
        ",\n      \"files_scanned\": {},\n      \"findings\": {},\n      \
         \"waived\": {},\n      \"baselined\": {},\n      \"stale_baseline\": {}\n    }}",
        report.files_scanned,
        report.findings.len(),
        report.waived,
        report.baselined,
        report.stale_baseline.len()
    );
    out.push_str("\n  ]\n}\n");
    out
}

fn push_str_kv(out: &mut String, indent: usize, key: &str, value: &str) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    push_escaped(out, key);
    out.push_str(": ");
    push_escaped(out, value);
}

/// Minimal JSON string escaping (quotes, backslash, control bytes).
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PathFinding, WorkspaceReport};

    fn sample() -> WorkspaceReport {
        WorkspaceReport {
            findings: vec![PathFinding {
                path: "crates/x/src/lib.rs".into(),
                line: 7,
                code: "L003",
                message: "a \"quoted\" message".into(),
                snippet: "m.lock().unwrap();".into(),
            }],
            stale_baseline: Vec::new(),
            files_scanned: 3,
            waived: 2,
            baselined: 1,
        }
    }

    #[test]
    fn text_report_is_stable_and_clickable() {
        let t = text(&sample());
        assert!(t.contains("crates/x/src/lib.rs:7: L003"));
        assert!(t.contains("3 file(s) scanned, 1 finding(s), 2 waived inline"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let j = json(&sample());
        assert!(j.contains("\"schema\": \"ltc-bench/v1\""));
        assert!(j.contains("\"bench\": \"ltc-lint\""));
        assert!(j.contains("\"name\": \"L003 crates/x/src/lib.rs:7\""));
        assert!(j.contains("a \\\"quoted\\\" message"));
        assert!(j.contains("\"findings\": 1"));
    }
}
