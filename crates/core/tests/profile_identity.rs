//! Byte-identity tests for the deterministic profiling layer (DESIGN.md
//! §14):
//!
//! * turning profiling **on** must leave every campaign artifact —
//!   journal and `campaign_status.json` — byte-identical to the
//!   unprofiled run (the profiler is a pure read of journaled data and
//!   never consumes a fault-plan occurrence);
//! * the profile artifacts themselves (`profile.json`, `profile.folded`)
//!   must be byte-identical across kill+resume and across independent
//!   re-runs, in both generational and steady-state mode;
//! * `profile.folded` must be well-formed collapsed stacks (inferno /
//!   speedscope-loadable): `frame;frame;... <integer µs>` per line;
//! * the tree is the status rows: every boundary's `gen{g}` node holds the
//!   row's four slot-minute categories as leaves, bit for bit.

use std::path::PathBuf;

use dphpo_core::campaign_report::parse_status;
use dphpo_core::experiment::{Campaign, CampaignMode, ExperimentConfig, ExperimentError};
use dphpo_obs::json::Json;

/// Small faulty campaign exercising deaths, retries and backoff — every
/// path that feeds the profile's loss leaves.
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 43;
    config
}

/// Steady-state twin: fewer slots than individuals so the queue backs up.
fn steady_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.mode = CampaignMode::SteadyState;
    config.pool.n_workers = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-profile-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Assert `text` is a valid collapsed-stack file: non-empty, every line
/// `frame(;frame)* <integer>`, frames free of the reserved separators.
fn assert_folded_well_formed(text: &str) {
    assert!(!text.is_empty(), "folded export is empty");
    for (i, line) in text.lines().enumerate() {
        let (stack, micros) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("folded line {i} has no value"));
        micros.parse::<u64>().unwrap_or_else(|e| panic!("folded line {i} value: {e}"));
        assert!(!stack.is_empty(), "folded line {i} has an empty stack");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "folded line {i} has an empty frame");
            assert!(
                !frame.contains(' ') && !frame.contains(';'),
                "folded line {i} frame contains a reserved separator"
            );
        }
    }
}

#[test]
fn profiling_on_leaves_campaign_artifacts_byte_identical() {
    let config = config();

    // Reference: profiling off.
    let journal_a = scratch("plain.jsonl");
    let status_a = scratch("plain_status.json");
    Campaign::new(&config)
        .journal(&journal_a)
        .status_file(&status_a)
        .run(None)
        .expect("unprofiled campaign");

    // Profiling on: same campaign, plus the profile artifacts.
    let journal_b = scratch("prof.jsonl");
    let status_b = scratch("prof_status.json");
    let profile_b = scratch("prof_artifacts");
    Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .profile_dir(&profile_b)
        .run(None)
        .expect("profiled campaign");

    assert_eq!(
        read(&journal_a),
        read(&journal_b),
        "profiling must not perturb the journal"
    );
    assert_eq!(
        read(&status_a),
        read(&status_b),
        "profiling must not perturb campaign_status.json"
    );

    let json = read(&profile_b.join("profile.json"));
    assert!(json.contains("\"schema\": \"dphpo-profile-v1\""), "missing schema tag");
    assert!(json.contains("\"clock\": \"sim_minutes\""));
    assert!(json.contains("\"name\": \"campaign\""));
    let folded = read(&profile_b.join("profile.folded"));
    assert_folded_well_formed(&folded);
    assert!(folded.lines().any(|l| l.starts_with("campaign;run0;gen0;busy")));

    // An independent profiled re-run reproduces the artifacts bytewise.
    let journal_c = scratch("prof2.jsonl");
    let status_c = scratch("prof2_status.json");
    let profile_c = scratch("prof2_artifacts");
    Campaign::new(&config)
        .journal(&journal_c)
        .status_file(&status_c)
        .profile_dir(&profile_c)
        .run(None)
        .expect("second profiled campaign");
    assert_eq!(json, read(&profile_c.join("profile.json")), "profile.json differs across runs");
    assert_eq!(
        folded,
        read(&profile_c.join("profile.folded")),
        "profile.folded differs across runs"
    );

    for p in [&journal_a, &status_a, &journal_b, &status_b, &journal_c, &status_c] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&profile_b, &profile_c] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn killed_and_resumed_campaign_reproduces_profile_byte_for_byte() {
    let config = config();

    // Uninterrupted profiled reference.
    let journal_a = scratch("ref.jsonl");
    let status_a = scratch("ref_status.json");
    let profile_a = scratch("ref_artifacts");
    Campaign::new(&config)
        .journal(&journal_a)
        .status_file(&status_a)
        .profile_dir(&profile_a)
        .run(None)
        .expect("reference campaign");
    let json_a = read(&profile_a.join("profile.json"));
    let folded_a = read(&profile_a.join("profile.folded"));

    // Chaos run: driver dies after 5 completed tasks, mid-campaign. The
    // profile write precedes the status fault site, so a valid partial
    // profile survives the kill.
    let journal_b = scratch("chaos.jsonl");
    let status_b = scratch("chaos_status.json");
    let profile_b = scratch("chaos_artifacts");
    match Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .profile_dir(&profile_b)
        .kill_after(5)
        .run(None)
    {
        Err(ExperimentError::Interrupted { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("driver should have been killed"),
    }
    let partial = read(&profile_b.join("profile.json"));
    assert!(partial.contains("\"schema\": \"dphpo-profile-v1\""), "partial profile is torn");
    assert_folded_well_formed(&read(&profile_b.join("profile.folded")));

    // Resume: the profile artifacts converge to the reference bytes.
    Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .profile_dir(&profile_b)
        .resume()
        .run(None)
        .expect("resumed campaign");
    assert_eq!(
        json_a,
        read(&profile_b.join("profile.json")),
        "profile.json differs after kill+resume"
    );
    assert_eq!(
        folded_a,
        read(&profile_b.join("profile.folded")),
        "profile.folded differs after kill+resume"
    );

    for p in [&journal_a, &status_a, &journal_b, &status_b] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&profile_a, &profile_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn steady_campaign_profile_is_identical_across_kill_resume() {
    let config = steady_config();

    let journal_a = scratch("steady_ref.jsonl");
    let status_a = scratch("steady_ref_status.json");
    let profile_a = scratch("steady_ref_artifacts");
    Campaign::new(&config)
        .journal(&journal_a)
        .status_file(&status_a)
        .profile_dir(&profile_a)
        .run(None)
        .expect("steady reference campaign");
    let json_a = read(&profile_a.join("profile.json"));
    let folded_a = read(&profile_a.join("profile.folded"));
    assert_folded_well_formed(&folded_a);

    let journal_b = scratch("steady_chaos.jsonl");
    let status_b = scratch("steady_chaos_status.json");
    let profile_b = scratch("steady_chaos_artifacts");
    match Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .profile_dir(&profile_b)
        .kill_after(5)
        .run(None)
    {
        Err(ExperimentError::Interrupted { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("driver should have been killed"),
    }
    Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .profile_dir(&profile_b)
        .resume()
        .run(None)
        .expect("resumed steady campaign");
    assert_eq!(
        json_a,
        read(&profile_b.join("profile.json")),
        "steady profile.json differs after kill+resume"
    );
    assert_eq!(
        folded_a,
        read(&profile_b.join("profile.folded")),
        "steady profile.folded differs after kill+resume"
    );

    for p in [&journal_a, &status_a, &journal_b, &status_b] {
        let _ = std::fs::remove_file(p);
    }
    for d in [&profile_a, &profile_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The child of a `profile.json` node named `name`.
fn child<'a>(node: &'a Json, name: &str) -> &'a Json {
    let Some(Json::Array(children)) = node.get("children") else {
        panic!("the parent of {name} has no children array")
    };
    children
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("profile.json has no node {name}"))
}

fn child_count(node: &Json) -> usize {
    match node.get("children") {
        Some(Json::Array(children)) => children.len(),
        _ => panic!("node without a children array"),
    }
}

/// One profiled campaign per faulty configuration: per run and boundary,
/// `gen{g}`'s `busy` / `idle` / `backoff` / `lost.death` are leaves whose
/// `self_min` is the status row's minutes bit for bit, and the tree has a
/// node for every row and no other.
#[test]
fn the_profile_is_the_status_rows_in_both_modes() {
    for (tag, config) in [("gen", config()), ("steady", steady_config())] {
        let status_path = scratch(&format!("{tag}_rows_status.json"));
        let dir = scratch(&format!("{tag}_rows_artifacts"));
        Campaign::new(&config)
            .status_file(&status_path)
            .profile_dir(&dir)
            .run(None)
            .expect("profiled campaign");
        let status = parse_status(&read(&status_path)).expect("campaign_status.json");
        let profile = Json::parse(&read(&dir.join("profile.json"))).expect("profile.json");
        let root = profile.get("root").expect("profile.json has a root");
        assert_eq!(child_count(root), status.runs.len(), "{tag}: run nodes");
        for run in &status.runs {
            let run_node = child(root, &format!("run{}", run.run));
            assert_eq!(child_count(run_node), run.generations.len(), "{tag}: run {}", run.run);
            for row in &run.generations {
                let at = format!("{tag}: run {}, gen {}", run.run, row.generation);
                let gen = child(run_node, &format!("gen{}", row.generation));
                assert_eq!(child_count(gen), 4, "{at}");
                for (name, minutes) in [
                    ("busy", row.busy_minutes),
                    ("idle", row.idle_minutes),
                    ("backoff", row.backoff_minutes),
                    ("lost.death", row.lost_death_minutes),
                ] {
                    let leaf = child(gen, name);
                    assert_eq!(child_count(leaf), 0, "{at}, {name} is not a leaf");
                    let self_min = leaf.get("self_min").and_then(Json::as_f64);
                    assert_eq!(
                        self_min.map(f64::to_bits),
                        Some(minutes.to_bits()),
                        "{at}, {name}: self_min {self_min:?} vs the row's {minutes}"
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&status_path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
