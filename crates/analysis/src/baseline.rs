//! The committed baseline: grandfathered findings that are explained
//! rather than fixed (today, only `vendor/` shims — the whole file is a
//! ready diff surface for the shim/real-crate swap noted in ROADMAP).
//!
//! Format: one tab-separated entry per line,
//! `CODE<TAB>path<TAB>count<TAB>trimmed-source-line<TAB>reason`,
//! `#` comments and blank lines ignored. Entries are keyed on the
//! *content* of the offending line, not its number, so unrelated edits
//! above a grandfathered site don't churn the file. An entry absorbs at
//! most `count` findings; extra findings at the same site still fail,
//! and an entry whose site was scanned but produced nothing, or whose
//! file no longer exists, is reported stale so the baseline can only
//! shrink.

use std::collections::BTreeMap;

/// One baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub code: String,
    pub path: String,
    pub count: usize,
    pub snippet: String,
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parses the committed format; malformed lines are hard errors so
    /// a bad merge can't silently drop suppressions.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 5 {
                return Err(format!(
                    "baseline line {}: expected 5 tab-separated fields, got {}",
                    i + 1,
                    fields.len()
                ));
            }
            let count: usize = fields[2]
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{}`", i + 1, fields[2]))?;
            if count == 0 {
                return Err(format!("baseline line {}: count must be >= 1", i + 1));
            }
            if fields[4].trim().is_empty() {
                return Err(format!(
                    "baseline line {}: entry has no reason — every grandfathered \
                     site must be explained",
                    i + 1
                ));
            }
            entries.push(Entry {
                code: fields[0].to_string(),
                path: fields[1].to_string(),
                count,
                snippet: fields[3].to_string(),
                reason: fields[4].to_string(),
            });
        }
        Ok(Self { entries })
    }

    /// Serializes in the stable committed form (sorted, headered).
    pub fn serialize(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort_by(|a, b| (&a.path, &a.code, &a.snippet).cmp(&(&b.path, &b.code, &b.snippet)));
        let mut out = String::from(
            "# ltc-lint baseline: grandfathered findings, keyed on line content.\n\
             # CODE\tpath\tcount\ttrimmed-source-line\treason\n",
        );
        for e in entries {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                e.code, e.path, e.count, e.snippet, e.reason
            ));
        }
        out
    }

    /// Builds a baseline from `(code, path, snippet)` findings, with an
    /// automatic reason for vendor shims and a TODO marker elsewhere.
    pub fn from_findings<'a>(findings: impl Iterator<Item = (&'a str, &'a str, &'a str)>) -> Self {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for (code, path, snippet) in findings {
            *counts
                .entry((code.to_string(), path.to_string(), snippet.to_string()))
                .or_insert(0) += 1;
        }
        let entries = counts
            .into_iter()
            .map(|((code, path, snippet), count)| {
                let reason = if path.starts_with("vendor/") {
                    "vendor shim; replaced wholesale on the real-crate swap (ROADMAP)".to_string()
                } else {
                    "TODO: fix this site or replace with an inline waiver".to_string()
                };
                Entry {
                    code,
                    path,
                    count,
                    snippet,
                    reason,
                }
            })
            .collect();
        Self { entries }
    }
}

/// Mutable matching state over a baseline: each entry absorbs up to
/// `count` findings; [`Matcher::stale`] lists entries left unconsumed
/// for the paths its caller counts as checked.
pub struct Matcher<'a> {
    baseline: &'a Baseline,
    remaining: Vec<usize>,
}

impl<'a> Matcher<'a> {
    pub fn new(baseline: &'a Baseline) -> Self {
        let remaining = baseline.entries.iter().map(|e| e.count).collect();
        Self {
            baseline,
            remaining,
        }
    }

    /// Tries to absorb one finding; true when a baseline entry covers it.
    pub fn absorb(&mut self, code: &str, path: &str, snippet: &str) -> bool {
        for (i, e) in self.baseline.entries.iter().enumerate() {
            if self.remaining[i] > 0 && e.code == code && e.path == path && e.snippet == snippet {
                self.remaining[i] -= 1;
                return true;
            }
        }
        false
    }

    /// Entries (still holding budget) whose path `checked` accepts —
    /// the site was linted, or its file is gone, and produced fewer
    /// findings than budgeted, so the baseline should shrink.
    pub fn stale(&self, checked: &dyn Fn(&str) -> bool) -> Vec<&'a Entry> {
        self.baseline
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| self.remaining[*i] == e.count && checked(&e.path))
            .map(|(_, e)| e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_sorts() {
        let b = Baseline::from_findings(
            [
                ("L006", "vendor/shim/src/lib.rs", "let t = Instant::now();"),
                ("L006", "vendor/shim/src/lib.rs", "let t = Instant::now();"),
                ("L003", "crates/x/src/lib.rs", "m.lock().unwrap();"),
            ]
            .into_iter(),
        );
        let text = b.serialize();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 2);
        let vendor = parsed
            .entries
            .iter()
            .find(|e| e.path.starts_with("vendor/"))
            .unwrap();
        assert_eq!(vendor.count, 2);
        assert!(vendor.reason.contains("vendor shim"));
        assert_eq!(parsed.serialize(), text);
    }

    #[test]
    fn matcher_absorbs_up_to_count_and_reports_stale() {
        let text = "L006\tvendor/v.rs\t2\tInstant::now();\tvendor shim\n\
                    L003\tcrates/a.rs\t1\tlock().unwrap();\tlegacy\n";
        let b = Baseline::parse(text).unwrap();
        let mut m = Matcher::new(&b);
        assert!(m.absorb("L006", "vendor/v.rs", "Instant::now();"));
        assert!(m.absorb("L006", "vendor/v.rs", "Instant::now();"));
        assert!(!m.absorb("L006", "vendor/v.rs", "Instant::now();"));
        assert!(!m.absorb("L003", "crates/a.rs", "other text"));
        // crates/a.rs was scanned and its entry never matched → stale;
        // vendor path unscanned → silently ignored.
        let stale = m.stale(&|p: &str| p.starts_with("crates/"));
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "crates/a.rs");
    }

    #[test]
    fn parse_rejects_reasonless_and_malformed_entries() {
        assert!(Baseline::parse("L001\tp\t1\tsnippet\t \n").is_err());
        assert!(Baseline::parse("L001\tp\tzero\tsnippet\twhy\n").is_err());
        assert!(Baseline::parse("just one field\n").is_err());
        assert!(Baseline::parse("# comment\n\n").unwrap().entries.is_empty());
    }
}
