//! Schema-stable JSON emission for committed benchmark artifacts.
//!
//! The throughput benches historically printed human-readable panels
//! and nothing else, so the repository carried no machine-checkable
//! performance trajectory. This module gives every runner one emitter
//! with a fixed schema (`ltc-bench/v1`), so `BENCH_*.json` files can be
//! committed, diffed across PRs, and validated structurally in CI
//! without ever gating on timing noise:
//!
//! ```json
//! {
//!   "schema": "ltc-bench/v1",
//!   "bench": "wire",
//!   "scale": 1,
//!   "cores": 1,
//!   "rows": [
//!     { "name": "in-process/x1", "workers": 16634, "secs": 0.018, ... }
//!   ]
//! }
//! ```
//!
//! Top-level keys and the per-row `name` key are **required** and
//! checked by [`validate`] (which reuses the `ltc-proto` wire parser —
//! no external JSON dependency); every other row field is
//! bench-specific free-form numeric/string data. CI fails on schema
//! drift, never on the metric values.

use std::fmt::Write as _;

/// The schema identifier stamped into (and required from) every report.
pub const SCHEMA: &str = "ltc-bench/v1";

/// One metric value. Numbers are emitted as JSON numbers; non-finite
/// floats (which raw JSON cannot carry) are emitted as `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact counter.
    U64(u64),
    /// A measurement (seconds, rates, ratios).
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

/// One named measurement row (a configuration × driver data point).
#[derive(Debug, Clone)]
pub struct Row {
    name: String,
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// A row named after its configuration (e.g. `"table-iv/default"`).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a metric field (builder-style). Field order is preserved
    /// in the emitted JSON.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        debug_assert!(key != "name", "'name' is reserved for the row label");
        self.fields.push((key, value.into()));
        self
    }
}

/// A full benchmark report: the fixed header plus measurement rows.
#[derive(Debug, Clone)]
pub struct BenchReport {
    bench: String,
    scale: usize,
    cores: usize,
    rows: Vec<Row>,
}

impl BenchReport {
    /// Starts a report for the named bench at the given
    /// `LTC_BENCH_SCALE`; the `cores` header field is read from the
    /// host so a committed artifact documents its own environment.
    pub fn new(bench: impl Into<String>, scale: usize) -> Self {
        Self {
            bench: bench.into(),
            scale,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rows: Vec::new(),
        }
    }

    /// Appends a measurement row.
    pub fn push_row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Renders the schema-stable JSON document (2-space indent, newline
    /// terminated, keys in fixed order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.rows.len());
        out.push_str("{\n");
        push_kv_str(&mut out, 1, "schema", SCHEMA);
        out.push_str(",\n");
        push_kv_str(&mut out, 1, "bench", &self.bench);
        out.push_str(",\n");
        let _ = write!(
            out,
            "  \"scale\": {},\n  \"cores\": {},\n",
            self.scale, self.cores
        );
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            push_kv_str(&mut out, 3, "name", &row.name);
            for (key, value) in &row.fields {
                out.push_str(",\n      ");
                push_escaped_key(&mut out, key);
                out.push_str(": ");
                push_value(&mut out, value);
            }
            out.push_str("\n    }");
        }
        out.push_str(if self.rows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        debug_assert!(
            validate(&out).is_ok(),
            "emitter produced invalid JSON: {:?}\n{out}",
            validate(&out)
        );
        out
    }

    /// Writes the report to `path` (see [`BenchReport::to_json`]),
    /// after re-validating it against the schema — an artifact that
    /// would fail CI's drift check is never written in the first place.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = self.to_json();
        validate(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("schema drift: {e}"),
            )
        })?;
        std::fs::write(path, text)
    }
}

/// `ltc_proto::json::push_escaped` emits a complete string literal,
/// quotes included.
fn push_escaped_key(out: &mut String, key: &str) {
    ltc_proto::json::push_escaped(out, key);
}

fn push_kv_str(out: &mut String, indent: usize, key: &str, value: &str) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    push_escaped_key(out, key);
    out.push_str(": ");
    ltc_proto::json::push_escaped(out, value);
}

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(v) if v.is_finite() => {
            // Rust's shortest-roundtrip formatting (integral floats
            // emit without a decimal point; still a valid JSON number).
            // ltc-lint: allow(L001) ltc-bench/v1 commits to shortest-roundtrip JSON numbers; reports are human artifacts, never replay inputs
            let _ = write!(out, "{v}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(flag) => {
            let _ = write!(out, "{flag}");
        }
        Value::Str(text) => ltc_proto::json::push_escaped(out, text),
    }
}

/// Parses an optional `--out PATH` from the process arguments — the
/// shared convention by which `cargo bench -p ltc-bench --bench X --
/// --out BENCH_X.json` asks a print-only bench to also commit its
/// measurements as a report. Harness flags that cargo forwards (e.g.
/// `--bench`) are ignored.
pub fn out_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            match args.next() {
                Some(path) => return Some(path.into()),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Validates a report document against the `ltc-bench/v1` schema:
/// parseable JSON, the exact `schema` marker, a `bench` name, integral
/// `scale ≥ 1` and `cores ≥ 1`, and a `rows` array whose entries all
/// carry a string `name`. Metric values are **not** interpreted — CI
/// uses this to catch schema drift without gating on timing noise.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = ltc_proto::json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing string field 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("schema is '{schema}', expected '{SCHEMA}'"));
    }
    doc.get("bench")
        .and_then(|v| v.as_str())
        .ok_or("missing string field 'bench'")?;
    for key in ["scale", "cores"] {
        let v = doc
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing integral field '{key}'"))?;
        if v == 0 {
            return Err(format!("'{key}' must be >= 1"));
        }
    }
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_arr())
        .ok_or("missing array field 'rows'")?;
    for (i, row) in rows.iter().enumerate() {
        row.get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("row {i} is missing its string 'name'"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut report = BenchReport::new("wire", 4);
        report.push_row(
            Row::new("table-iv/default")
                .field("workers", 128u64)
                .field("secs", 0.5)
                .field("workers_per_sec", 256.0)
                .field("completed", true)
                .field("driver", "engine"),
        );
        report
    }

    #[test]
    fn emitted_reports_validate() {
        let text = sample().to_json();
        validate(&text).unwrap();
        assert!(text.contains("\"schema\": \"ltc-bench/v1\""));
        assert!(text.contains("\"workers\": 128"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn empty_rows_are_valid() {
        let text = BenchReport::new("empty", 1).to_json();
        validate(&text).unwrap();
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let mut report = BenchReport::new("x", 1);
        report.push_row(Row::new("r").field("ratio", f64::INFINITY));
        let text = report.to_json();
        validate(&text).unwrap();
        assert!(text.contains("\"ratio\": null"));
    }

    #[test]
    fn validation_rejects_drift() {
        // Wrong schema marker.
        assert!(
            validate(r#"{"schema":"ltc-bench/v0","bench":"x","scale":1,"cores":1,"rows":[]}"#)
                .is_err()
        );
        // Missing rows.
        assert!(validate(r#"{"schema":"ltc-bench/v1","bench":"x","scale":1,"cores":1}"#).is_err());
        // Row without a name.
        assert!(validate(
            r#"{"schema":"ltc-bench/v1","bench":"x","scale":1,"cores":1,"rows":[{"secs":1}]}"#
        )
        .is_err());
        // Zero cores.
        assert!(
            validate(r#"{"schema":"ltc-bench/v1","bench":"x","scale":1,"cores":0,"rows":[]}"#)
                .is_err()
        );
        // Not JSON at all.
        assert!(validate("not json").is_err());
    }

    #[test]
    fn strings_are_escaped() {
        let mut report = BenchReport::new("quote\"bench", 1);
        report.push_row(Row::new("row\\name").field("label", "a\"b"));
        let text = report.to_json();
        validate(&text).unwrap();
        let doc = ltc_proto::json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("quote\"bench"));
    }
}
