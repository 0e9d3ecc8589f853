//! `compare A B`: one row per (workload, end-to-end metric) of two
//! `results.json` files — two sets of the same code, or parent and change.

use crate::adapter::Json;
use crate::metrics::END_TO_END;
use crate::stats::{quartiles, spread};
use crate::workload::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
    /// The two sets did different work (`work_digest` differs).
    WorkChanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::WorkChanged => "work-changed",
        }
    }
}

/// One metric of one workload on one side.
struct Side {
    median: f64,
    values: Vec<f64>,
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.at(&["metrics", metric])?;
    let values = match m.get("values")? {
        Json::Array(items) => items.iter().filter_map(Json::as_f64).collect(),
        _ => return None,
    };
    Some(Side {
        median: m.get("median")?.as_f64()?,
        values,
    })
}

/// Set-up of a few milliseconds moves by more than its relative bound on
/// scheduler noise alone; below this absolute change it is not a regression.
const SETUP_FLOOR_S: f64 = 0.020;

/// Verdict for one metric. `worse` is the change as a share of the
/// baseline's median, positive when the metric got worse.
fn judge(name: &str, lower_is_better: bool, bound: f64, a: &Side, b: &Side) -> (f64, Verdict) {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (b.median - a.median) / a.median.abs();
    // The absolute floor under `setup_s` holds for its spread as well.
    let quartile_gap = |s: &Side| quartiles(&s.values).map_or(0.0, |(q1, q3)| q3 - q1);
    let under_floor = name == "setup_s" && quartile_gap(a).max(quartile_gap(b)) <= SETUP_FLOOR_S;
    let wide = spread(&a.values).max(spread(&b.values)) > bound && !under_floor;
    // Unresolved unless every run of B reads better than every run of A.
    let all_better = a
        .values
        .iter()
        .all(|x| b.values.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if wide && !all_better {
        Verdict::Unresolved
    } else if worse > bound && !(name == "setup_s" && (b.median - a.median) <= SETUP_FLOOR_S) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Verdict for a count of failures, where any increase is a regression,
/// whether or not the work changed with it (more failures change the
/// journal, so they always come with a new `work_digest`).
fn judge_count(a: f64, b: f64, work_changed: bool) -> Verdict {
    if b > a {
        Verdict::Regressed
    } else if work_changed {
        Verdict::WorkChanged
    } else {
        Verdict::Ok
    }
}

/// Compare two parsed `results.json` documents; returns the printed rows
/// and whether any metric regressed.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<8} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    )];
    let mut regressed = false;
    for workload in Workload::ALL {
        let (Some(wa), Some(wb)) = (
            a.at(&["workloads", workload.name()]),
            b.at(&["workloads", workload.name()]),
        ) else {
            continue;
        };
        let digest = |w: &Json| w.get("work_digest").and_then(Json::as_f64);
        let work_changed = digest(wa) != digest(wb);
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, e.name), side(wb, e.name)) else {
                continue;
            };
            let (worse, verdict) = judge(e.name, e.lower_is_better, e.bound, &sa, &sb);
            let verdict = if work_changed {
                Verdict::WorkChanged
            } else {
                verdict
            };
            regressed |= verdict == Verdict::Regressed;
            rows.push(format!(
                "{:<8} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                workload.name(),
                e.name,
                sa.median,
                sb.median,
                worse * 100.0,
                e.bound * 100.0,
                verdict.label()
            ));
        }
        // Failed ÷ attempted operations and journaled divergences, both
        // summed over the repeats (a failure in one repeat of three must
        // not vanish in a median): any increase is a regression.
        let total = |w: &Json, key: &str| w.get(key).and_then(Json::as_f64);
        let share = |w: &Json| Some(total(w, "failed")? / total(w, "attempted")?.max(1.0));
        for (name, a, b) in [
            ("fail_share", share(wa), share(wb)),
            ("diverged", total(wa, "diverged"), total(wb, "diverged")),
        ] {
            let (Some(a), Some(b)) = (a, b) else {
                continue;
            };
            let verdict = judge_count(a, b, work_changed);
            regressed |= verdict == Verdict::Regressed;
            rows.push(format!(
                "{:<8} {:<12} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                workload.name(),
                name,
                a,
                b,
                "",
                "any",
                verdict.label()
            ));
        }
    }
    (rows, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Side {
        Side {
            median: crate::stats::median(values),
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        // 5 % slower against a 10 % bound: ok.
        let (worse, v) = judge(
            "wall_s",
            true,
            0.10,
            &s(&[10.0, 10.1, 9.9]),
            &s(&[10.5, 10.6, 10.4]),
        );
        assert!((worse - 0.05).abs() < 1e-9);
        assert_eq!(v, Verdict::Ok);
        // 20 % slower: regressed.
        let (_, v) = judge(
            "wall_s",
            true,
            0.10,
            &s(&[10.0, 10.1, 9.9]),
            &s(&[12.0, 12.1, 11.9]),
        );
        assert_eq!(v, Verdict::Regressed);
        // Throughput falls 20 %: regressed (higher is better).
        let (worse, v) = judge(
            "evals_per_s",
            false,
            0.10,
            &s(&[100.0, 101.0, 99.0]),
            &s(&[80.0, 81.0, 79.0]),
        );
        assert!(worse > 0.19);
        assert_eq!(v, Verdict::Regressed);
        // Spread wider than the bound: unresolved…
        let (_, v) = judge(
            "wall_s",
            true,
            0.10,
            &s(&[10.0, 12.0, 8.0]),
            &s(&[10.5, 10.6, 10.4]),
        );
        assert_eq!(v, Verdict::Unresolved);
        // …unless every run of B is better than every run of A.
        let (_, v) = judge(
            "wall_s",
            true,
            0.10,
            &s(&[10.0, 12.0, 8.0]),
            &s(&[5.0, 5.5, 6.0]),
        );
        assert_eq!(v, Verdict::Ok);
        // A few milliseconds of set-up are below the absolute floor,
        // however they scatter.
        let (_, v) = judge(
            "setup_s",
            true,
            0.25,
            &s(&[0.010, 0.006, 0.012]),
            &s(&[0.014, 0.014, 0.019]),
        );
        assert_eq!(v, Verdict::Ok);
        let (_, v) = judge(
            "setup_s",
            true,
            0.25,
            &s(&[3.0, 3.0, 3.0]),
            &s(&[4.0, 4.0, 4.0]),
        );
        assert_eq!(v, Verdict::Regressed);
    }

    /// A `results.json` with one workload whose three repeats failed
    /// `failed` of 24 operations each and journaled `diverged` divergences.
    fn results(failed: [u64; 3], diverged: u64, digest: u32) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"gen": {{"work_digest": {digest}, "attempted": 72,
                "failed": {}, "diverged": {diverged}}}}}}}"#,
            failed.iter().sum::<u64>()
        ))
        .expect("test document parses")
    }

    #[test]
    fn a_failure_in_one_repeat_of_three_is_a_regression() {
        let clean = results([0, 0, 0], 0, 7);
        let verdict_of = |rows: &[String], name: &str| {
            let row = rows
                .iter()
                .find(|r| r.split_whitespace().nth(1) == Some(name))
                .unwrap_or_else(|| panic!("no {name} row"));
            row.split_whitespace().last().unwrap().to_string()
        };
        // [0, 0, 12]: the median of the per-repeat shares is 0.
        let (rows, regressed) = compare(&clean, &results([0, 0, 12], 0, 7));
        assert!(regressed);
        assert_eq!(verdict_of(&rows, "fail_share"), "regressed");
        assert_eq!(verdict_of(&rows, "diverged"), "ok");
        // More divergence regresses although the work (digest) changed.
        let (rows, regressed) = compare(&clean, &results([0, 0, 0], 2, 8));
        assert!(regressed);
        assert_eq!(verdict_of(&rows, "diverged"), "regressed");
        assert_eq!(verdict_of(&rows, "fail_share"), "work-changed");
        // Fewer failures, same work: ok.
        let (rows, regressed) = compare(&results([0, 3, 0], 1, 7), &clean);
        assert!(!regressed);
        assert_eq!(verdict_of(&rows, "fail_share"), "ok");
        assert_eq!(verdict_of(&rows, "diverged"), "ok");
    }
}
