//! Byte-identity of the campaign observatory under crash/resume: a
//! campaign whose driver is killed mid-flight and resumed from the journal
//! must end with a `campaign_status.json`, an end-of-run markdown report,
//! and Chrome counter tracks byte-identical to the uninterrupted run's.
//! The status rows are pure functions of journaled data (each generation's
//! population replayed through the archive, plus the deterministic
//! scheduler report), which is what makes this possible at all.

use std::path::PathBuf;

use dphpo_core::campaign_report::{counter_trace_json, markdown_report, parse_status, status_json};
use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentError};

/// Small faulty campaign exercising deaths, retries and backoff — every
/// path that feeds the utilization partition.
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 43;
    config
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-campaign-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

#[test]
fn killed_and_resumed_campaign_reproduces_the_observatory_byte_for_byte() {
    let config = config();

    // Uninterrupted reference run.
    let journal_a = scratch("a.jsonl");
    let status_a = scratch("a_status.json");
    let result_a = Campaign::new(&config)
        .journal(&journal_a)
        .status_file(&status_a)
        .run(None)
        .expect("uninterrupted campaign");
    let status_bytes_a = std::fs::read_to_string(&status_a).unwrap();
    // The file on disk is exactly the in-memory status, rendered.
    assert_eq!(status_bytes_a, status_json(&result_a.status));
    let report_a = markdown_report(&result_a.status, config.mode);
    let tracks_a = counter_trace_json(&result_a.status);

    // Chaos run: the driver dies after 5 completed tasks, mid-campaign.
    let journal_b = scratch("b.jsonl");
    let status_b = scratch("b_status.json");
    let killed = Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .kill_after(5)
        .run(None);
    match killed {
        Err(ExperimentError::Interrupted { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("driver should have been killed"),
    }

    // The kill left a valid, partial status behind (atomic rewrites never
    // tear), strictly short of the full campaign.
    let partial = parse_status(&std::fs::read_to_string(&status_b).unwrap()).expect("parses");
    let rows = |s: &dphpo_core::CampaignStatus| -> usize {
        s.runs.iter().map(|r| r.generations.len()).sum()
    };
    let full_rows = config.n_runs * (config.generations + 1);
    assert!(rows(&partial) < full_rows, "kill landed after the campaign finished");

    // Resume from the journal: the observatory must converge to the
    // uninterrupted bytes — status file, report, and counter tracks.
    let result_b = Campaign::new(&config)
        .journal(&journal_b)
        .status_file(&status_b)
        .resume()
        .run(None)
        .expect("resumed campaign");
    let status_bytes_b = std::fs::read_to_string(&status_b).unwrap();
    assert_eq!(status_bytes_a, status_bytes_b, "campaign_status.json differs after resume");
    assert_eq!(report_a, markdown_report(&result_b.status, config.mode), "markdown report differs");
    assert_eq!(tracks_a, counter_trace_json(&result_b.status), "counter tracks differ");
    assert_eq!(rows(&result_b.status), full_rows);

    // The observatory actually observed something interesting: the archive
    // is populated (smoke-scale RMSEs may sit outside the paper's fixed
    // reference box, so hypervolume is only required to be finite and
    // non-negative) and the faulty pool lost time somewhere.
    let last_rows: Vec<_> =
        result_b.status.runs.iter().filter_map(|r| r.generations.last()).collect();
    assert!(last_rows.iter().all(|row| row.cardinality > 0));
    assert!(last_rows.iter().all(|row| row.hypervolume >= 0.0 && row.hypervolume.is_finite()));
    assert!(last_rows.iter().all(|row| row.utilization_pct > 0.0));
    let lost: f64 = result_b
        .status
        .runs
        .iter()
        .flat_map(|r| &r.generations)
        .map(|g| g.lost_death_minutes + g.backoff_minutes)
        .sum();
    assert!(lost > 0.0, "fault injection produced no visible losses");

    for p in [&journal_a, &status_a, &journal_b, &status_b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn resuming_a_finished_campaign_rewrites_the_same_status() {
    let config = config();
    let journal = scratch("done.jsonl");
    let status_path = scratch("done_status.json");
    let result = Campaign::new(&config)
        .journal(&journal)
        .status_file(&status_path)
        .run(None)
        .expect("campaign");
    let bytes = std::fs::read_to_string(&status_path).unwrap();

    // Resume of a fully-journaled campaign reconstructs every run without
    // an evaluator — the status file must still be rewritten identically.
    std::fs::remove_file(&status_path).unwrap();
    let resumed = Campaign::new(&config)
        .journal(&journal)
        .status_file(&status_path)
        .resume()
        .run(None)
        .expect("resume of finished campaign");
    assert_eq!(std::fs::read_to_string(&status_path).unwrap(), bytes);
    assert_eq!(status_json(&resumed.status), status_json(&result.status));

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&status_path);
}
