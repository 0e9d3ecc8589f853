//! Identity tests for the steady-state campaign mode (DESIGN.md §12):
//!
//! * killing the driver at **every** arrival index and resuming must
//!   reproduce the uninterrupted campaign byte-identically — results,
//!   journal bytes, and status bytes;
//! * attaching telemetry must not perturb anything;
//! * the per-epoch accounting must partition each slot's simulated time
//!   exactly;
//! * generation 0 must coincide with a generational campaign's (same
//!   genomes, same training outcomes), because the two modes only diverge
//!   once selection order starts to matter.

use std::path::PathBuf;
use std::sync::Arc;

use dphpo_core::experiment::{
    Campaign, CampaignMode, ExperimentConfig, ExperimentError, ExperimentResult,
};
use dphpo_evo::Individual;
use dphpo_obs::{names, MemoryRecorder, Recorder};

/// Tiny steady-state campaign with faults and retries on, and fewer slots
/// than the population so the submission queue genuinely backs up: 2 runs
/// × 4 individuals × 2 epochs = 16 arrivals over 3 slots.
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
    scratch_dir("").join(name)
}

/// A per-test scratch directory (tests run concurrently, and the kill
/// sweeps remove theirs wholesale when they finish).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-steady-{}{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn canon_individual(ind: &Individual) -> String {
    // Ids are included: they are derived from (run seed, submission
    // ordinal), so a resumed campaign reproduces them exactly.
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

/// Canonical text form of the result: `{:?}` on `f64` is
/// shortest-round-trip, so equal strings mean bit-equal values.
fn canon(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for (run_idx, run) in result.runs.iter().enumerate() {
        out.push_str(&format!("run {run_idx} evaluations={}\n", run.evaluations));
        for record in &run.history {
            out.push_str(&format!("  epoch {} failures={}\n", record.generation, record.failures));
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
    for (run_idx, reports) in result.pool_reports.iter().enumerate() {
        for (epoch, r) in reports.iter().enumerate() {
            out.push_str(&format!(
                "report {run_idx}/{epoch} wall={:?} makespan={:?} busy={:?} idle={:?} deaths={}\n",
                r.wall_minutes, r.makespan_minutes, r.busy_minutes, r.idle_minutes, r.worker_deaths,
            ));
        }
    }
    out
}

#[test]
fn steady_resume_is_byte_identical_after_killing_at_every_arrival() {
    let config = steady_config();
    let total_tasks = (config.n_runs * config.pop_size * (config.generations + 1)) as u64;

    let reference_journal = scratch("reference.jsonl");
    let reference_status = scratch("reference_status.json");
    let reference = Campaign::new(&config)
        .journal(&reference_journal)
        .status_file(&reference_status)
        .run(None)
        .expect("uninterrupted steady campaign");
    let reference_canon = canon(&reference);
    let reference_journal_bytes = std::fs::read(&reference_journal).unwrap();
    let reference_status_bytes = std::fs::read(&reference_status).unwrap();

    // Sanity: the fault machinery fired, so replay covers retried and
    // penalised evaluations, not just clean successes.
    assert!(
        reference.pool_reports.iter().flatten().any(|r| r.worker_deaths > 0),
        "chaos config should produce worker deaths"
    );
    // The journal carries the arrival order explicitly.
    let journal_text = String::from_utf8(reference_journal_bytes.clone()).unwrap();
    assert!(journal_text.contains("\"arrival\":0"), "eval entries must journal arrival indices");

    for kill_after in 0..=total_tasks {
        let path = scratch(&format!("kill-{kill_after}.jsonl"));
        match Campaign::new(&config).journal(&path).kill_after(kill_after).run(None) {
            Err(ExperimentError::Interrupted { completed_tasks }) => {
                assert_eq!(completed_tasks, kill_after);
            }
            Err(other) => panic!("kill_after={kill_after}: unexpected error {other}"),
            Ok(_) => panic!("kill_after={kill_after} within {total_tasks} tasks must interrupt"),
        }
        let status_path = scratch(&format!("kill-{kill_after}-status.json"));
        let resumed = Campaign::new(&config)
            .journal(&path)
            .status_file(&status_path)
            .resume()
            .run(None)
            .unwrap_or_else(|e| panic!("resume after kill_after={kill_after}: {e}"));
        assert_eq!(
            canon(&resumed),
            reference_canon,
            "kill_after={kill_after}: resumed campaign diverged from uninterrupted run"
        );
        // Stronger than result identity: the journal and status files the
        // kill+resume pair leaves behind are byte-for-byte what the
        // uninterrupted campaign wrote.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference_journal_bytes,
            "kill_after={kill_after}: journal bytes diverged"
        );
        assert_eq!(
            std::fs::read(&status_path).unwrap(),
            reference_status_bytes,
            "kill_after={kill_after}: status bytes diverged"
        );
    }

    let _ = std::fs::remove_dir_all(reference_journal.parent().unwrap());
}

#[test]
fn steady_second_crash_during_resume_still_converges_byte_identically() {
    let config = steady_config();
    let total_tasks = (config.n_runs * config.pop_size * (config.generations + 1)) as u64;
    let dir = scratch_dir("-double");

    let reference_journal = dir.join("reference.jsonl");
    let reference_status = dir.join("reference-status.json");
    Campaign::new(&config)
        .journal(&reference_journal)
        .status_file(&reference_status)
        .run(None)
        .expect("uninterrupted steady campaign");
    let reference_journal_bytes = std::fs::read(&reference_journal).unwrap();
    let reference_status_bytes = std::fs::read(&reference_status).unwrap();

    // Kill at k1, resume with a kill at k2 (counted from the resume's own
    // first arrival, replayed ones included), resume to completion.
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
fn steady_telemetry_and_journaling_perturb_nothing() {
    let config = steady_config();
    let plain = Campaign::new(&config).run(None).unwrap();

    let rec = Arc::new(MemoryRecorder::new());
    let journal_path = scratch("observed.jsonl");
    let status_path = scratch("observed_status.json");
    let observed = Campaign::new(&config)
        .journal(&journal_path)
        .status_file(&status_path)
        .recorder(Arc::clone(&rec) as Arc<dyn Recorder>)
        .run(None)
        .expect("observed steady campaign");

    assert_eq!(canon(&plain), canon(&observed), "telemetry/journaling changed the campaign");

    let budget = config.n_runs * config.pop_size * (config.generations + 1);
    let snap = rec.snapshot();
    let evals = snap.events.iter().filter(|e| e.name == names::EVAL).count();
    assert_eq!(evals, budget, "one eval span per arrival");
    assert_eq!(
        snap.counter(names::C_GENERATIONS),
        (config.n_runs * (config.generations + 1)) as u64,
        "one generation counter tick per epoch"
    );
    assert_eq!(snap.counter(names::C_JOURNAL_APPENDS), budget as u64);
    let fronts = snap.events.iter().filter(|e| e.name == names::FRONT).count();
    assert_eq!(fronts, config.n_runs * (config.generations + 1));
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&status_path);
}

#[test]
fn steady_epoch_reports_partition_slot_time_exactly() {
    let config = steady_config();
    let result = Campaign::new(&config).run(None).unwrap();
    for reports in &result.pool_reports {
        assert_eq!(reports.len(), config.generations + 1, "one report per epoch");
        let slots = config.pool.n_workers;
        let mut per_slot_total = vec![0.0f64; slots];
        for r in reports {
            assert_eq!(r.busy_minutes.len(), slots);
            for (s, total) in per_slot_total.iter_mut().enumerate() {
                assert!(r.idle_minutes[s] >= -1e-9, "negative idle");
                let charged = r.busy_minutes[s]
                    + r.lost_death_minutes[s]
                    + r.backoff_slot_minutes[s]
                    + r.idle_minutes[s];
                *total += charged;
                // Each epoch's wall clock bounds every slot's charge.
                assert!(charged <= r.wall_minutes + 1e-9);
            }
        }
        // Summed across epochs, every slot accounts for the same total
        // wall time: the per-epoch rows are an exact partition.
        let total_wall: f64 = reports.iter().map(|r| r.wall_minutes).sum();
        for (s, total) in per_slot_total.iter().enumerate() {
            assert!(
                (total - total_wall).abs() < 1e-6,
                "slot {s}: partition {total} != wall {total_wall}"
            );
        }
    }
}

#[test]
fn steady_initial_submissions_train_identically_to_generational() {
    // The two modes share their first `pop_size` submissions per run: same
    // init-RNG stream, same derived training seeds, same fault-decision
    // domain. Their journaled outcomes must therefore be identical, field
    // for field — only the steady entries carry an arrival index. (The
    // *populations* may differ even at epoch 0: with fewer slots than the
    // population, a bred child can arrive before the last initial
    // submission.)
    let steady_cfg = steady_config();
    let mut gen_cfg = steady_cfg.clone();
    gen_cfg.mode = CampaignMode::Generational;

    let steady_path = scratch("mode-steady.jsonl");
    let gen_path = scratch("mode-generational.jsonl");
    Campaign::new(&steady_cfg).journal(&steady_path).run(None).expect("steady campaign");
    Campaign::new(&gen_cfg).journal(&gen_path).run(None).expect("generational campaign");

    let steady_journal = dphpo_core::Journal::load(&steady_path).unwrap();
    let gen_journal = dphpo_core::Journal::load(&gen_path).unwrap();
    for run in 0..steady_cfg.n_runs {
        for slot in 0..steady_cfg.pop_size {
            let s = steady_journal.evals.get(&(run, 0, slot)).expect("steady entry");
            let g = gen_journal.evals.get(&(run, 0, slot)).expect("generational entry");
            assert_eq!(s.genome, g.genome, "run {run} slot {slot}: genomes diverged");
            assert_eq!(s.seed, g.seed, "run {run} slot {slot}: training seeds diverged");
            assert_eq!(s.objectives, g.objectives, "run {run} slot {slot}: outcomes diverged");
            assert_eq!(s.minutes, g.minutes, "run {run} slot {slot}: minutes diverged");
            assert_eq!(s.attempts, g.attempts, "run {run} slot {slot}: attempts diverged");
            assert!(s.arrival.is_some(), "steady entries must carry an arrival index");
            assert!(g.arrival.is_none(), "generational entries must not");
        }
    }
    let _ = std::fs::remove_file(&steady_path);
    let _ = std::fs::remove_file(&gen_path);
}
