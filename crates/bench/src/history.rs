//! Perf-history observatory: a schema-versioned `BENCH_history.jsonl`
//! trajectory and a regression differ over it.
//!
//! Every benchmark snapshot this repo checks in (`BENCH_hotpath.json`,
//! `BENCH_obs.json`, future schemas) is a JSON document with a `schema`
//! tag. This module flattens any such document into dotted-key numeric
//! rows (`training.0.ns_per_step`, `kernels.matmul_64x64_ns`, …), appends
//! them as one JSONL line per snapshot to the history file, and diffs a
//! fresh snapshot against the checked-in trajectory: per-row delta against
//! the history median, a MAD jitter bar, and a verdict — one 15% timing
//! gate for every schema at once (`bench_baseline.sh --check` runs it over
//! a fresh measurement).
//!
//! Rows are classified by key shape: segments ending in `_ns` (or
//! `ns_per_step` style) are timings and gate at 15% above the history
//! median; everything else is informational. The `perf_report` binary
//! drives this; `scripts/perf_history.sh` wires it behind `BENCH_CHECK=1`.

use std::collections::BTreeMap;
use std::path::Path;

use dphpo_dnnp::json::Json;

/// Schema tag of each `BENCH_history.jsonl` line.
const HISTORY_SCHEMA: &str = "dphpo-bench-history-v1";

/// Timing rows regress when they exceed the history median by this factor.
const REGRESSION_FACTOR: f64 = 1.15;

/// One appended snapshot: its kind (schema family), the exact snapshot
/// schema it came from, and the flattened numeric rows.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Schema family (`hotpath`, `obs`, …) — snapshots diff only against
    /// history of the same kind.
    pub kind: String,
    /// The snapshot's full schema tag (e.g. `dphpo-obs-v3`).
    pub snapshot_schema: String,
    /// Dotted-key numeric rows flattened from the snapshot document.
    pub rows: BTreeMap<String, f64>,
}

/// Schema family of a snapshot schema tag: strip the `dphpo-` prefix and a
/// trailing `-vN` version. `dphpo-hotpath-v2` → `hotpath`.
fn kind_of(schema: &str) -> String {
    let s = schema.strip_prefix("dphpo-").unwrap_or(schema);
    match s.rfind("-v") {
        Some(i) if s[i + 2..].chars().all(|c| c.is_ascii_digit()) && i + 2 < s.len() => {
            s[..i].to_string()
        }
        _ => s.to_string(),
    }
}

/// Flatten every numeric leaf of a JSON document into dotted-key rows;
/// array elements get their index as a segment. The `schema` tag itself is
/// not a row.
pub fn flatten(doc: &Json) -> BTreeMap<String, f64> {
    fn walk(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
        match v {
            Json::Number(n) => {
                out.insert(prefix.to_string(), *n);
            }
            Json::Object(pairs) => {
                for (k, v) in pairs {
                    if prefix.is_empty() && k == "schema" {
                        continue;
                    }
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&key, v, out);
                }
            }
            Json::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{prefix}.{i}"), v, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    walk("", doc, &mut out);
    out
}

/// Build a history entry from a benchmark snapshot document (which must
/// carry a string `schema` tag).
pub fn entry_from_snapshot(doc: &Json) -> Result<HistoryEntry, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "snapshot has no string 'schema' tag".to_string())?
        .to_string();
    Ok(HistoryEntry { kind: kind_of(&schema), snapshot_schema: schema, rows: flatten(doc) })
}

/// Render one entry as its (compact, single-line) JSONL record.
fn entry_line(entry: &HistoryEntry) -> String {
    let rows: Vec<(&str, Json)> =
        entry.rows.iter().map(|(k, v)| (k.as_str(), Json::Number(*v))).collect();
    Json::object(vec![
        ("schema", Json::String(HISTORY_SCHEMA.into())),
        ("kind", Json::String(entry.kind.clone())),
        ("snapshot_schema", Json::String(entry.snapshot_schema.clone())),
        ("rows", Json::object(rows)),
    ])
    .to_compact()
}

/// Parse one history line back into an entry. Lines with a different
/// history schema are an error (the file is versioned as a whole).
fn parse_line(line: &str) -> Result<HistoryEntry, String> {
    let doc = Json::parse(line).map_err(|e| format!("{e:?}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != HISTORY_SCHEMA {
        return Err(format!("unexpected history schema '{schema}'"));
    }
    let get_str = |k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing '{k}'"))
    };
    let mut rows = BTreeMap::new();
    if let Some(Json::Object(pairs)) = doc.get("rows") {
        for (k, v) in pairs {
            if let Some(n) = v.as_f64() {
                rows.insert(k.clone(), n);
            }
        }
    }
    Ok(HistoryEntry { kind: get_str("kind")?, snapshot_schema: get_str("snapshot_schema")?, rows })
}

/// Load every entry of a history file (missing file → empty trajectory).
pub fn load(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_line(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Append one entry to the history file (created if missing).
pub fn append(path: &Path, entry: &HistoryEntry) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{}", entry_line(entry)).map_err(|e| format!("append {}: {e}", path.display()))
}

/// A row's regression verdict against the history trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Timing row within the gate.
    Ok,
    /// Timing row more than 15% above the history median.
    Regression,
    /// Row with no history to compare against.
    New,
    /// Non-timing row (counts, ratios) — reported, never gated.
    Info,
}

impl Verdict {
    /// Fixed-width label for the report table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::New => "new",
            Verdict::Info => "info",
        }
    }
}

/// One diffed row: fresh value, history median/MAD, delta, verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct RowDiff {
    /// Dotted row key.
    pub key: String,
    /// The fresh snapshot's value.
    pub value: f64,
    /// Median of the row's history series (`None` without history).
    pub median: Option<f64>,
    /// Median absolute deviation of the series, as a percent of the median
    /// — the jitter bar's magnitude.
    pub mad_pct: f64,
    /// Delta of the fresh value against the median, percent.
    pub delta_pct: f64,
    /// The gate's verdict.
    pub verdict: Verdict,
}

/// Timing rows gate; everything else is informational. A key is a timing
/// when any dotted segment is nanosecond-shaped — `*_ns`, `ns_*`, or an
/// interior `_ns_` (covers `ns_per_step`, `matmul_64x64_ns`,
/// `noop_block_ns_per_step`) — or ends in `_us` (`train_run_new_us`).
fn is_timing(key: &str) -> bool {
    key.split('.').any(|seg| {
        seg.ends_with("_ns")
            || seg.ends_with("_us")
            || seg.starts_with("ns_")
            || seg.contains("_ns_")
            || seg == "ns"
    })
}

/// Median of an ascending-sorted, non-empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Diff a fresh snapshot against the history trajectory of the same kind.
/// Rows sort by key; the binary prints them in order and fails `--check`
/// when any verdict is [`Verdict::Regression`].
pub fn diff(history: &[HistoryEntry], fresh: &HistoryEntry) -> Vec<RowDiff> {
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for entry in history.iter().filter(|e| e.kind == fresh.kind) {
        for (k, v) in &entry.rows {
            series.entry(k).or_default().push(*v);
        }
    }
    fresh
        .rows
        .iter()
        .map(|(key, &value)| {
            let timing = is_timing(key);
            match series.get(key.as_str()) {
                Some(values) if !values.is_empty() => {
                    let mut sorted = values.clone();
                    sorted.sort_by(f64::total_cmp);
                    let med = median(&sorted);
                    let mut devs: Vec<f64> = sorted.iter().map(|v| (v - med).abs()).collect();
                    devs.sort_by(f64::total_cmp);
                    let mad = median(&devs);
                    let mad_pct = if med != 0.0 { mad / med.abs() * 100.0 } else { 0.0 };
                    let delta_pct =
                        if med != 0.0 { (value - med) / med.abs() * 100.0 } else { 0.0 };
                    let verdict = if !timing {
                        Verdict::Info
                    } else if value > med * REGRESSION_FACTOR {
                        Verdict::Regression
                    } else {
                        Verdict::Ok
                    };
                    RowDiff { key: key.clone(), value, median: Some(med), mad_pct, delta_pct, verdict }
                }
                _ => RowDiff {
                    key: key.clone(),
                    value,
                    median: None,
                    mad_pct: 0.0,
                    delta_pct: 0.0,
                    verdict: if timing { Verdict::New } else { Verdict::Info },
                },
            }
        })
        .collect()
}

/// ASCII jitter bar: one `#` per percent of MAD-over-median, capped at 10.
fn jitter_bar(mad_pct: f64) -> String {
    "#".repeat((mad_pct.round() as usize).min(10))
}

/// Render a diff as the perf report table (one section per snapshot kind).
pub fn render_diff(fresh: &HistoryEntry, rows: &[RowDiff], history_len: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## {} ({}, {} history entr{})",
        fresh.kind,
        fresh.snapshot_schema,
        history_len,
        if history_len == 1 { "y" } else { "ies" }
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| row | current | median | delta | jitter (MAD) | verdict |");
    let _ = writeln!(out, "|---|---:|---:|---:|---|---|");
    for r in rows {
        let median = r.median.map_or("-".to_string(), |m| format!("{m:.2}"));
        let delta = if r.median.is_some() { format!("{:+.1}%", r.delta_pct) } else { "-".into() };
        let jitter = if r.median.is_some() {
            format!("{:.1}% {}", r.mad_pct, jitter_bar(r.mad_pct))
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "| {} | {:.2} | {} | {} | {} | {} |",
            r.key,
            r.value,
            median,
            delta,
            jitter,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(schema: &str, ns: f64) -> Json {
        Json::object(vec![
            ("schema", Json::String(schema.into())),
            (
                "training",
                Json::Array(vec![Json::object(vec![
                    ("ns_per_step", Json::Number(ns)),
                    ("rcut", Json::Number(11.0)),
                ])]),
            ),
            ("quick", Json::Bool(false)),
            ("kernels", Json::object(vec![("matmul_64x64_ns", Json::Number(ns / 10.0))])),
        ])
    }

    #[test]
    fn kind_strips_prefix_and_version() {
        assert_eq!(kind_of("dphpo-hotpath-v2"), "hotpath");
        assert_eq!(kind_of("dphpo-obs-v3"), "obs");
        assert_eq!(kind_of("dphpo-serve-v1"), "serve");
        assert_eq!(kind_of("custom"), "custom");
        assert_eq!(kind_of("dphpo-x-vNext"), "x-vNext");
    }

    #[test]
    fn flatten_produces_dotted_numeric_rows_only() {
        let rows = flatten(&snapshot("dphpo-hotpath-v2", 100.0));
        assert_eq!(rows.get("training.0.ns_per_step"), Some(&100.0));
        assert_eq!(rows.get("training.0.rcut"), Some(&11.0));
        assert_eq!(rows.get("kernels.matmul_64x64_ns"), Some(&10.0));
        assert!(!rows.contains_key("schema"));
        assert!(!rows.contains_key("quick"));
    }

    #[test]
    fn entry_lines_round_trip() {
        let entry = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 123.5)).unwrap();
        assert_eq!(entry.kind, "hotpath");
        let line = entry_line(&entry);
        assert!(!line.contains('\n'));
        assert_eq!(parse_line(&line).unwrap(), entry);
    }

    #[test]
    fn timing_keys_are_recognised() {
        assert!(is_timing("training.0.ns_per_step"));
        assert!(is_timing("kernels.matmul_64x64_ns"));
        assert!(is_timing("noop_block_ns_per_step"));
        assert!(is_timing("training.1.train_run_new_us"));
        assert!(!is_timing("training.0.rcut"));
        assert!(!is_timing("population.genomes"));
        assert!(!is_timing("n_runs")); // 'ns' substring must not match
    }

    #[test]
    fn diff_gates_timings_at_fifteen_percent_over_median() {
        let history: Vec<HistoryEntry> = [100.0, 102.0, 98.0]
            .iter()
            .map(|&ns| entry_from_snapshot(&snapshot("dphpo-hotpath-v2", ns)).unwrap())
            .collect();
        let ok = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 114.0)).unwrap();
        let rows = diff(&history, &ok);
        let step = rows.iter().find(|r| r.key == "training.0.ns_per_step").unwrap();
        assert_eq!(step.verdict, Verdict::Ok);
        assert_eq!(step.median, Some(100.0));
        assert!((step.delta_pct - 14.0).abs() < 1e-9);
        assert!((step.mad_pct - 2.0).abs() < 1e-9);

        let bad = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 116.0)).unwrap();
        let rows = diff(&history, &bad);
        let step = rows.iter().find(|r| r.key == "training.0.ns_per_step").unwrap();
        assert_eq!(step.verdict, Verdict::Regression);
        // Non-timing rows never regress, whatever their delta.
        let rcut = rows.iter().find(|r| r.key == "training.0.rcut").unwrap();
        assert_eq!(rcut.verdict, Verdict::Info);
    }

    #[test]
    fn rows_without_history_read_as_new_and_other_kinds_are_ignored() {
        let other = entry_from_snapshot(&snapshot("dphpo-obs-v3", 50.0)).unwrap();
        let fresh = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 100.0)).unwrap();
        let rows = diff(&[other], &fresh);
        let step = rows.iter().find(|r| r.key == "training.0.ns_per_step").unwrap();
        assert_eq!(step.verdict, Verdict::New);
        assert_eq!(step.median, None);
    }

    #[test]
    fn render_marks_regressions_and_draws_a_jitter_bar() {
        let history: Vec<HistoryEntry> = [100.0, 110.0, 90.0]
            .iter()
            .map(|&ns| entry_from_snapshot(&snapshot("dphpo-hotpath-v2", ns)).unwrap())
            .collect();
        let fresh = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 130.0)).unwrap();
        let rows = diff(&history, &fresh);
        let text = render_diff(&fresh, &rows, history.len());
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("##########"), "jitter bar capped at 10: {text}");
    }

    #[test]
    fn history_file_round_trips_through_append_and_load() {
        let dir = std::env::temp_dir().join(format!("dphpo_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_history.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = entry_from_snapshot(&snapshot("dphpo-hotpath-v2", 100.0)).unwrap();
        let b = entry_from_snapshot(&snapshot("dphpo-obs-v3", 5.0)).unwrap();
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), vec![a, b]);
        assert_eq!(load(&dir.join("missing.jsonl")).unwrap(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
