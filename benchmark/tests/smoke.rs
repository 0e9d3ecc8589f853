//! Runs the benchmark binary at `--smoke` sizes: every metric name of
//! `BENCHMARK.json` is printed exactly once per workload, the checks pass,
//! and a deliberately truncated journal fails the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dphpo_dnnp::Json;

const WORKLOADS: [&str; 4] = ["gen", "steady", "wide", "replay"];

fn bench(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run the benchmark binary")
}

/// A fresh output directory per test: tests run in parallel.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    match doc.get(key) {
        Some(Json::Array(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {key}"),
    }
}

/// The printed block of one workload: from its header line to the next
/// line that is not indented.
fn block<'a>(text: &'a str, header_prefix: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| !l.starts_with(header_prefix))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .collect()
}

/// Lines of a block whose first word is `name`.
fn rows<'a>(block: &[&'a str], name: &str) -> Vec<&'a str> {
    block
        .iter()
        .copied()
        .filter(|l| l.split_whitespace().next() == Some(name))
        .collect()
}

#[test]
fn smoke_run_prints_every_end_to_end_metric_once_and_passes_its_checks() {
    let out = out_dir("e2e");
    let output = bench(&out, &["--smoke"]);
    let text = stdout(&output);
    assert!(output.status.success(), "smoke run failed:\n{text}");
    assert!(text.contains("all checks passed"));
    let spec = benchmark_json();
    for workload in WORKLOADS {
        let block = block(&text, &format!("{workload} ["));
        for name in names(&spec, "end_to_end")
            .iter()
            .map(String::as_str)
            .chain(["peak_rss_mb", "fail_share"])
        {
            let rows = rows(&block, name);
            assert_eq!(
                rows.len(),
                1,
                "{workload}: {name} printed {} times",
                rows.len()
            );
            let value: f64 = rows[0]
                .split_whitespace()
                .find_map(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("{workload}: {name} has no number: {}", rows[0]));
            assert!(value.is_finite());
            if name == "fail_share" {
                assert_eq!(value, 0.0, "{workload}: fail_share");
            } else {
                assert!(value > 0.0, "{workload}: {name} = {value}");
            }
        }
    }
    let results = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    for workload in WORKLOADS {
        let entry = results
            .at(&["workloads", workload])
            .expect("workload in results.json");
        assert_eq!(entry.get("repeats_identical"), Some(&Json::Bool(true)));
        assert_eq!(
            entry.at(&["metrics", "wall_s", "n"]).and_then(Json::as_f64),
            Some(3.0)
        );
    }
    // Two sets of the same code compare clean.
    let results_path = out.join("results.json");
    let compared = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .arg("compare")
        .args([&results_path, &results_path])
        .output()
        .unwrap();
    let table = stdout(&compared);
    assert!(compared.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("work-changed"),
        "{table}"
    );
    // Five bounded metrics, `fail_share` and `diverged` per workload.
    assert_eq!(table.lines().count(), 1 + WORKLOADS.len() * 7);
}

#[test]
fn smoke_layer_pass_prints_every_per_layer_metric_once() {
    let out = out_dir("layers");
    let output = bench(&out, &["--smoke", "--layers"]);
    let text = stdout(&output);
    assert!(output.status.success(), "layer pass failed:\n{text}");
    let spec = benchmark_json();
    let per_layer = names(&spec, "per_layer");
    for workload in WORKLOADS {
        let block = block(&text, &format!("{workload} layer pass"));
        let listed_absent: String = block
            .iter()
            .filter(|l| {
                l.trim_start().starts_with("missing") || l.trim_start().starts_with("not exercised")
            })
            .copied()
            .collect();
        for name in &per_layer {
            let rows = rows(&block, name);
            assert_eq!(
                rows.len(),
                1,
                "{workload}: {name} printed {} times",
                rows.len()
            );
            let value = rows[0].split_whitespace().nth(1).unwrap();
            if value == "null" {
                assert!(
                    listed_absent.contains(&format!("\"{name}\"")),
                    "{workload}: {name} is null but not listed"
                );
            } else {
                let number: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{workload}: {name} = {value}"));
                assert!(number.is_finite(), "{workload}: {name}");
            }
        }
        assert_eq!(
            rows(&block, "bench.replay_mismatches")[0]
                .split_whitespace()
                .nth(1),
            Some("0.000000")
        );
        let trace = std::fs::read_to_string(out.join(format!("{workload}.trace.json")))
            .expect("trace written");
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(out.join(format!("{workload}.folded")).exists());
    }
}

#[test]
fn result_line_carries_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_dir(&format!("line{trace}"));
        let output = bench(
            &out,
            &[
                "--workload",
                "steady",
                "--seed",
                "5",
                "--smoke",
                "--trace",
                trace,
            ],
        );
        let text = stdout(&output);
        assert!(output.status.success(), "{text}");
        let line = Json::parse(text.lines().last().unwrap()).expect("last line is one JSON object");
        let Json::Object(fields) = &line else {
            panic!("not an object")
        };
        assert_eq!(
            fields.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let mut want = names(&spec, key);
        want.sort();
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), want);
        for (name, m) in metrics {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn truncated_journal_fails_the_run() {
    let out = out_dir("truncated");
    let output = bench(
        &out,
        &[
            "--workload",
            "gen",
            "--smoke",
            "--trace",
            "0",
            "--truncate-journal",
        ],
    );
    let text = stdout(&output);
    assert!(
        !output.status.success(),
        "a truncated journal must fail the run:\n{text}"
    );
    assert!(text.contains("CHECK FAILED"));
    let line = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    let failed = line.get("failed").and_then(Json::as_f64).unwrap();
    let attempted = line.get("attempted").and_then(Json::as_f64).unwrap();
    assert!(
        failed > 0.0 && failed <= attempted,
        "fail_share = {failed}/{attempted}"
    );
}

#[test]
fn unknown_workload_is_a_usage_error_with_no_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .arg("--workload")
        .arg("nope")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(stdout(&output).is_empty());
}
