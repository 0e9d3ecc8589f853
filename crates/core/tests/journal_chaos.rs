//! Chaos test for the write-ahead evaluation journal: kill the (simulated)
//! driver after *every possible* task index, resume from the journal left
//! behind, and assert the resumed campaign is bit-identical to an
//! uninterrupted one — final populations, Pareto archives, and the
//! analysis CSVs the paper's figures are built from. Also: a second crash
//! during the resume, `Campaign` misuse, and status/profile artifacts that
//! cannot be written must each end in a structured error and a journal that
//! still resumes byte-identically.

use std::path::PathBuf;

use dphpo_core::analysis::{analyze, level_plot_csv};
use dphpo_core::chaos::{FaultPlan, IoFault, JOURNAL_APPEND_SITE};
use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentError, ExperimentResult};
use dphpo_evo::Individual;

/// Tiny campaign with faults and retries switched on, so replay covers
/// successful, penalised, and retried evaluations: 2 runs × 3 individuals
/// × 2 generations = 12 tasks.
fn chaos_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

fn scratch(name: &str) -> PathBuf {
    scratch_dir("").join(name)
}

/// A per-test scratch directory (tests run concurrently, and the kill
/// sweeps remove theirs wholesale when they finish).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-chaos-{}{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn canon_individual(ind: &Individual) -> String {
    // Ids are included: they are derived from (run seed, ordinal), so an
    // interrupted-and-resumed campaign reproduces them exactly.
    format!(
        "id={} genome={:?} fitness={:?} rank={} distance={:?} minutes={:?}",
        ind.id,
        ind.genome,
        ind.fitness.as_ref().map(|f| f.values().to_vec()),
        ind.rank,
        ind.distance,
        ind.eval_minutes,
    )
}

/// Canonical text form of everything the campaign's result feeds into the
/// paper's figures; `{:?}` on `f64` is shortest-round-trip, so equal
/// strings mean bit-equal values.
fn canon(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for (run_idx, run) in result.runs.iter().enumerate() {
        out.push_str(&format!("run {run_idx} evaluations={}\n", run.evaluations));
        for record in &run.history {
            out.push_str(&format!(
                "  gen {} failures={}\n",
                record.generation, record.failures
            ));
            for ind in &record.population {
                out.push_str(&format!("    {}\n", canon_individual(ind)));
            }
        }
    }
    for (run_idx, archive) in result.archives.iter().enumerate() {
        out.push_str(&format!("archive {run_idx}\n"));
        for ind in archive.members() {
            out.push_str(&format!("    {}\n", canon_individual(ind)));
        }
    }
    out.push_str("--- parallel coordinates ---\n");
    out.push_str(&analyze(result).parallel_coordinates_csv());
    out.push_str("--- level plot ---\n");
    out.push_str(&level_plot_csv(result));
    out
}

#[test]
fn resume_is_bit_identical_after_killing_the_driver_at_every_task() {
    let config = chaos_config();
    let total_tasks =
        (config.n_runs * config.pop_size * (config.generations + 1)) as u64;

    let reference_path = scratch("reference.jsonl");
    let reference = Campaign::new(&config).journal(&reference_path).run(None)
        .expect("uninterrupted campaign");
    let reference_canon = canon(&reference);
    let reference_journal_bytes = std::fs::read(&reference_path).unwrap();

    // Sanity: the campaign really exercises the fault machinery, so replay
    // covers penalty and retry records, not just clean successes.
    assert!(
        reference.pool_reports.iter().flatten().any(|r| r.worker_deaths > 0),
        "chaos config should produce worker deaths"
    );

    for kill_after in 0..=total_tasks {
        let path = scratch(&format!("kill-{kill_after}.jsonl"));
        let outcome = Campaign::new(&config).journal(&path).kill_after(kill_after).run(None);
        match outcome {
            // One life spans the campaign: the driver recorded exactly its
            // budget, whichever run it died in.
            Err(ExperimentError::Interrupted { completed_tasks }) => {
                assert_eq!(completed_tasks, kill_after);
            }
            Err(other) => panic!("kill_after={kill_after}: unexpected error {other}"),
            Ok(_) => panic!("kill_after={kill_after} within {total_tasks} tasks must interrupt"),
        }
        let resumed = Campaign::new(&config).journal(&path).resume().run(None)
            .unwrap_or_else(|e| panic!("resume after kill_after={kill_after}: {e}"));
        assert_eq!(
            canon(&resumed),
            reference_canon,
            "kill_after={kill_after}: resumed campaign diverged from uninterrupted run"
        );
        // Stronger than result identity: records are framed and released in
        // slot order with stable ids, so the journal the kill+resume pair
        // leaves behind is byte-for-byte what the uninterrupted run wrote.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_journal_bytes,
            "kill_after={kill_after}: journal bytes diverged"
        );
    }

    let _ = std::fs::remove_dir_all(reference_path.parent().unwrap());
}

#[test]
fn scripted_io_faults_interrupt_and_a_clean_resume_restores_byte_identity() {
    let config = chaos_config();

    let reference_path = scratch("fault-reference.jsonl");
    let reference =
        Campaign::new(&config).journal(&reference_path).run(None).expect("uninterrupted campaign");
    let reference_canon = canon(&reference);
    let reference_journal_bytes = std::fs::read(&reference_path).unwrap();

    // One scripted fault per kind at the journal-append site (a driver kill
    // is `kill_after`, swept above). Each interrupts the campaign; a *clean*
    // resume (no plan — per-process occurrence counters restart, so
    // re-arming the same script would re-fire the same fault forever)
    // must land on the uninterrupted journal byte-for-byte.
    let cases = [
        ("short-write", 4, IoFault::ShortWrite),
        ("io-error", 1, IoFault::IoError),
        ("disk-full", 7, IoFault::DiskFull),
        ("fsync-fail", 10, IoFault::FsyncFail),
    ];
    for (tag, occurrence, fault) in cases {
        let path = scratch(&format!("fault-{tag}.jsonl"));
        let plan = FaultPlan::new(7).script(JOURNAL_APPEND_SITE, occurrence, fault);
        match Campaign::new(&config).journal(&path).fault_plan(plan).run(None) {
            Err(ExperimentError::Interrupted { .. }) => {}
            Err(other) => panic!("{tag}: unexpected error {other}"),
            Ok(_) => panic!("{tag}: scripted fault must interrupt the campaign"),
        }
        let resumed = Campaign::new(&config)
            .journal(&path)
            .resume()
            .run(None)
            .unwrap_or_else(|e| panic!("{tag}: clean resume failed: {e}"));
        assert_eq!(canon(&resumed), reference_canon, "{tag}: resumed campaign diverged");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_journal_bytes,
            "{tag}: journal bytes diverged"
        );
    }

    let _ = std::fs::remove_file(&reference_path);
}

#[test]
fn resuming_a_completed_journal_reconstructs_without_retraining() {
    let mut config = chaos_config();
    config.master_seed = 43;
    let path = scratch("complete-43.jsonl");
    let reference = Campaign::new(&config).journal(&path).run(None).expect("campaign");
    let before = std::fs::metadata(&path).expect("journal exists").len();
    let resumed = Campaign::new(&config).journal(&path).resume().run(None).expect("resume of complete journal");
    assert_eq!(canon(&resumed), canon(&reference));
    // Nothing new to journal: the file is untouched.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_journal_from_a_different_configuration() {
    let mut config = chaos_config();
    config.master_seed = 44;
    let path = scratch("stale-44.jsonl");
    Campaign::new(&config).journal(&path).run(None).expect("campaign");
    let mut changed = config.clone();
    changed.base_train_config.num_steps += 1;
    match Campaign::new(&changed).journal(&path).resume().run(None) {
        Err(ExperimentError::Journal(e)) => {
            assert!(e.message.contains("stale journal"), "unexpected message: {e}");
        }
        Err(other) => panic!("expected a stale-journal error, got {other}"),
        Ok(_) => panic!("stale journal must be rejected"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_second_crash_during_resume_still_converges_byte_identically() {
    let config = chaos_config();
    let total_tasks = (config.n_runs * config.pop_size * (config.generations + 1)) as u64;
    let dir = scratch_dir("-double");

    let reference_path = dir.join("reference.jsonl");
    let reference_status = dir.join("reference-status.json");
    Campaign::new(&config)
        .journal(&reference_path)
        .status_file(&reference_status)
        .run(None)
        .expect("uninterrupted campaign");
    let reference_journal_bytes = std::fs::read(&reference_path).unwrap();
    let reference_status_bytes = std::fs::read(&reference_status).unwrap();

    // Kill at k1, resume with a kill at k2 (counted from the resume's own
    // first completion), resume to completion. A resume whose remaining
    // work is shorter than k2 simply finishes — also fine, but most pairs
    // must really crash twice.
    let mut crashed_twice = 0;
    for k1 in 0..total_tasks {
        for k2 in [0, 1, config.pop_size as u64 + 1] {
            let path = dir.join(format!("{k1}-{k2}.jsonl"));
            let status = dir.join(format!("{k1}-{k2}-status.json"));
            let campaign = || Campaign::new(&config).journal(&path).status_file(&status);
            match campaign().kill_after(k1).run(None) {
                Err(ExperimentError::Interrupted { .. }) => {}
                Err(other) => panic!("k1={k1}: unexpected error {other}"),
                Ok(_) => panic!("k1={k1} within {total_tasks} tasks must interrupt"),
            }
            match campaign().resume().kill_after(k2).run(None) {
                Err(ExperimentError::Interrupted { .. }) => crashed_twice += 1,
                Err(other) => panic!("k1={k1} k2={k2}: unexpected error {other}"),
                Ok(_) => {}
            }
            campaign()
                .resume()
                .run(None)
                .unwrap_or_else(|e| panic!("k1={k1} k2={k2}: final resume failed: {e}"));
            assert_eq!(
                std::fs::read(&path).unwrap(),
                reference_journal_bytes,
                "k1={k1} k2={k2}: journal bytes diverged"
            );
            assert_eq!(
                std::fs::read(&status).unwrap(),
                reference_status_bytes,
                "k1={k1} k2={k2}: status bytes diverged"
            );
        }
    }
    assert!(crashed_twice as u64 >= total_tasks, "only {crashed_twice} pairs crashed twice");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_journal_is_a_structured_error() {
    let config = chaos_config();
    match Campaign::new(&config).resume().run(None) {
        Err(ExperimentError::Journal(e)) => {
            assert!(e.message.contains("requires a journal"), "unexpected message: {e}");
        }
        Err(other) => panic!("expected a journal error, got {other}"),
        Ok(_) => panic!("resume without a journal must be rejected"),
    }
}

#[test]
fn unwritable_status_and_profile_artifacts_end_the_campaign_without_hurting_the_journal() {
    let mut config = chaos_config();
    config.master_seed = 45;
    let dir = scratch_dir("-artifact");
    let reference_path = dir.join("reference.jsonl");
    Campaign::new(&config).journal(&reference_path).run(None).expect("uninterrupted campaign");

    // A status path under a directory that does not exist: the first
    // boundary's rewrite fails for real (no injected fault involved).
    let path = dir.join("status.jsonl");
    let missing = dir.join("no-such-dir").join("campaign_status.json");
    match Campaign::new(&config).journal(&path).status_file(&missing).run(None) {
        Err(ExperimentError::Artifact { path, .. }) => assert_eq!(path, missing),
        Err(other) => panic!("expected an artifact error, got {other}"),
        Ok(_) => panic!("an unwritable status file must end the campaign"),
    }
    // The journal written so far is healthy and resumes to the reference.
    let report = dphpo_core::verify(&path).expect("journal is readable");
    assert!(!report.damaged() && report.generations == 1, "{report:?}");
    Campaign::new(&config).journal(&path).resume().run(None).expect("resume");
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&reference_path).unwrap());

    // A profile directory that cannot exist (its parent is a file): the
    // first boundary's profile rewrite fails for real, structurally,
    // instead of panicking.
    let blocker = dir.join("a-file");
    std::fs::write(&blocker, "not a directory").unwrap();
    match Campaign::new(&config).profile_dir(blocker.join("profile")).run(None) {
        Err(ExperimentError::Artifact { .. }) => {}
        Err(other) => panic!("expected an artifact error, got {other}"),
        Ok(_) => panic!("an unwritable profile directory must end the campaign"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
