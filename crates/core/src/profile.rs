//! Campaign-level deterministic profiling: journal-derived attribution
//! trees and atomic `profile.json` / `profile.folded` artifacts.
//!
//! The campaign profile is a pure function of data the write-ahead journal
//! already persists — each generation's [`GenerationRecord`] (population
//! with per-individual `eval_minutes` and penalty fitness) and its
//! [`PoolReport`] (the scheduler's busy/idle/backoff/lost slot partition).
//! It deliberately does **not** fold the live span stream: replayed
//! evaluations emit no training events, so a span-derived profile would
//! differ between an uninterrupted campaign and a killed-and-resumed one.
//! Deriving from the journal instead extends the §11/§12 determinism
//! contract: `profile.json` and `profile.folded` are byte-identical across
//! kill+resume, re-runs, and profiling-on/off status comparisons (see
//! DESIGN.md §14).
//!
//! Tree shape (all sums exact, via [`dphpo_obs::metrics::fsum`]):
//!
//! ```text
//! campaign                      structural (count 0)
//! └─ run{r}                     structural (count 0)
//!    └─ gen{g}                  count 1, self 0 — inclusive = slot capacity
//!       ├─ busy                 self = busy − attributed eval minutes
//!       │  ├─ eval.ok           count = non-penalty evals, self = Σ minutes
//!       │  └─ eval.failed       count = penalty evals, self = Σ minutes
//!       ├─ idle                 count = worker slots
//!       ├─ backoff              count = worker slots
//!       └─ lost.death           count = worker slots
//! ```
//!
//! By the scheduler's partition invariant, a generation's inclusive time is
//! exactly `wall × slots` worker-minutes. Children sort lexicographically by
//! name ([`ProfileNode::branch`]'s contract), which is what makes the
//! artifacts independent of insertion order.

use std::collections::BTreeMap;
use std::path::Path;

use dphpo_dnnp::StepBudget;
use dphpo_dnnp::Json;
use dphpo_evo::nsga2::GenerationRecord;
use dphpo_hpc::PoolReport;
use dphpo_obs::metrics::{fsum, ExactSum};
use dphpo_obs::profile::{folded, ProfileNode, PROFILE_SCHEMA};

use crate::campaign_report::write_atomic;
use crate::experiment::ExperimentResult;

/// Fold one generation boundary into its attribution subtree. Every field
/// is read from the journaled record/report pair, so replaying a journal
/// reproduces the node bit-for-bit.
pub fn generation_node(record: &GenerationRecord, report: &PoolReport) -> ProfileNode {
    let slots = report.busy_minutes.len() as u64;
    let busy = fsum(report.busy_minutes.iter().copied());
    let idle = fsum(report.idle_minutes.iter().copied());
    let backoff = fsum(report.backoff_slot_minutes.iter().copied());
    let lost_death = fsum(report.lost_death_minutes.iter().copied());

    let mut ok_count = 0u64;
    let mut failed_count = 0u64;
    let mut ok_minutes = ExactSum::default();
    let mut failed_minutes = ExactSum::default();
    for ind in &record.population {
        let minutes = ind.eval_minutes.unwrap_or(0.0);
        if ind.fitness.as_ref().is_some_and(|f| f.is_penalty()) {
            failed_count += 1;
            failed_minutes.add(minutes);
        } else {
            ok_count += 1;
            ok_minutes.add(minutes);
        }
    }
    // Busy self-time is scheduler overhead the evaluations themselves do
    // not account for (timeout truncation residue); it can be negative when attributed minutes exceed the
    // busy partition, which the JSON keeps as a diagnostic.
    let busy_self = fsum([busy, -ok_minutes.value(), -failed_minutes.value()]);
    let busy_node = ProfileNode::branch(
        "busy",
        slots,
        busy_self,
        vec![
            ProfileNode::leaf("eval.ok", ok_count, ok_minutes.value()),
            ProfileNode::leaf("eval.failed", failed_count, failed_minutes.value()),
        ],
    );
    ProfileNode::branch(
        format!("gen{}", record.generation),
        1,
        0.0,
        vec![
            busy_node,
            ProfileNode::leaf("idle", slots, idle),
            ProfileNode::leaf("backoff", slots, backoff),
            ProfileNode::leaf("lost.death", slots, lost_death),
        ],
    )
}

/// One run's subtree: a structural `run{r}` node over its generation nodes.
pub fn run_node(run: usize, rows: Vec<ProfileNode>) -> ProfileNode {
    ProfileNode::branch(format!("run{run}"), 0, 0.0, rows)
}

/// The campaign root over per-run generation rows (keyed by run index).
pub fn campaign_node(runs: &BTreeMap<usize, Vec<ProfileNode>>) -> ProfileNode {
    let nodes = runs.iter().map(|(run, rows)| run_node(*run, rows.clone())).collect();
    ProfileNode::branch("campaign", 0, 0.0, nodes)
}

/// Build the full attribution tree from a finished experiment — the same
/// tree the live [`crate::experiment::Campaign`] profiler writes, derived
/// here from the result's histories and pool reports (used by `fig1
/// --profile` to append report tables).
pub fn campaign_profile(result: &ExperimentResult) -> ProfileNode {
    let mut runs = BTreeMap::new();
    for (idx, (run, reports)) in result.runs.iter().zip(&result.pool_reports).enumerate() {
        let rows =
            run.history.iter().zip(reports).map(|(rec, rep)| generation_node(rec, rep)).collect();
        runs.insert(idx, rows);
    }
    campaign_node(&runs)
}

fn node_json(node: &ProfileNode) -> Json {
    Json::object(vec![
        ("name", Json::String(node.name.clone())),
        ("count", Json::Number(node.count as f64)),
        ("self_min", Json::Number(node.self_min)),
        ("inclusive_min", Json::Number(node.inclusive_min)),
        ("children", Json::Array(node.children.iter().map(node_json).collect())),
    ])
}

fn budget_json(budget: &StepBudget) -> Json {
    Json::Array(
        budget
            .phases
            .iter()
            .map(|p| {
                Json::object(vec![
                    ("phase", Json::String(p.phase.to_string())),
                    ("nodes", Json::Number(p.nodes as f64)),
                    (
                        "kernels",
                        Json::object(
                            p.kernels
                                .iter()
                                .map(|(k, c)| (*k, Json::Number(*c as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Render the profile document (schema [`PROFILE_SCHEMA`]): the attribution
/// tree on the simulated clock, plus the per-phase tape-node step budget
/// when one was computed. Deterministic pretty JSON — same tree, same
/// bytes.
pub fn profile_json(root: &ProfileNode, budget: Option<&StepBudget>) -> String {
    let mut fields = vec![
        ("schema", Json::String(PROFILE_SCHEMA.into())),
        ("clock", Json::String("sim_minutes".into())),
        ("root", node_json(root)),
    ];
    if let Some(budget) = budget {
        fields.push(("step_budget", budget_json(budget)));
    }
    format!("{}\n", Json::object(fields))
}

/// Rewrite `profile.json` and `profile.folded` in `dir`, each atomically
/// (temp file + fsync + rename, like `campaign_status.json`). Called at
/// every generation/epoch boundary; a crash leaves either the previous or
/// the new artifacts, never torn ones.
pub fn write_profile_atomic(
    dir: &Path,
    root: &ProfileNode,
    budget: Option<&StepBudget>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join("profile.json"), &profile_json(root, budget))?;
    write_atomic(&dir.join("profile.folded"), &folded(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_evo::{Fitness, Individual};
    use dphpo_obs::profile::markdown_table;

    fn ind(minutes: f64, penalty: bool) -> Individual {
        let mut i = Individual::new(vec![0.0]);
        i.fitness = Some(if penalty {
            Fitness::penalty(2)
        } else {
            Fitness::new(vec![0.01, 0.3])
        });
        i.eval_minutes = Some(minutes);
        i
    }

    fn sample() -> (GenerationRecord, PoolReport) {
        let record = GenerationRecord {
            generation: 0,
            population: vec![ind(10.0, false), ind(20.0, false), ind(5.0, true)],
            failures: 1,
        };
        let report = PoolReport {
            makespan_minutes: 40.0,
            wall_minutes: 40.0,
            busy_minutes: vec![30.0, 7.0],
            idle_minutes: vec![10.0, 33.0],
            lost_death_minutes: vec![0.0, 0.0],
            backoff_slot_minutes: vec![0.0, 0.0],
            per_worker_minutes: vec![30.0, 7.0],
            ..PoolReport::default()
        };
        (record, report)
    }

    #[test]
    fn generation_node_partitions_slot_capacity() {
        let (record, report) = sample();
        let node = generation_node(&record, &report);
        // Inclusive time is the slot capacity: wall × slots.
        assert_eq!(node.inclusive_min, 80.0);
        let busy = node.children.iter().find(|c| c.name == "busy").unwrap();
        assert_eq!(busy.inclusive_min, 37.0);
        assert_eq!(busy.self_min, 2.0); // 37 − 30 ok − 5 failed
        let ok = busy.children.iter().find(|c| c.name == "eval.ok").unwrap();
        assert_eq!((ok.count, ok.self_min), (2, 30.0));
        let failed = busy.children.iter().find(|c| c.name == "eval.failed").unwrap();
        assert_eq!((failed.count, failed.self_min), (1, 5.0));
    }

    #[test]
    fn profile_json_is_deterministic_and_schema_tagged() {
        let (record, report) = sample();
        let mut runs = BTreeMap::new();
        runs.insert(0usize, vec![generation_node(&record, &report)]);
        let root = campaign_node(&runs);
        let text = profile_json(&root, None);
        assert!(text.contains("\"schema\": \"dphpo-profile-v1\""));
        assert!(text.contains("\"clock\": \"sim_minutes\""));
        assert!(!text.contains("step_budget"));
        assert_eq!(text, profile_json(&root, None));
        // The folded rendering keeps the structural path intact.
        let out = folded(&root);
        assert!(out.contains("campaign;run0;gen0;busy;eval.ok 1800000000\n"), "{out}");
        // And the markdown table shows the generation row.
        assert!(markdown_table(&root).contains("· · gen0 |"));
    }

    #[test]
    fn atomic_profile_write_leaves_both_artifacts() {
        let dir = std::env::temp_dir().join(format!("dphpo_profile_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (record, report) = sample();
        let mut runs = BTreeMap::new();
        runs.insert(0usize, vec![generation_node(&record, &report)]);
        let root = campaign_node(&runs);
        write_profile_atomic(&dir, &root, None).unwrap();
        write_profile_atomic(&dir, &root, None).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("profile.json")).unwrap(), profile_json(&root, None));
        assert_eq!(std::fs::read_to_string(dir.join("profile.folded")).unwrap(), folded(&root));
        assert!(!dir.join("profile.json.tmp").exists());
        assert!(!dir.join("profile.folded.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
