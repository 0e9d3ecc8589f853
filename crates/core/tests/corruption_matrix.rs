//! Corruption-and-salvage matrix (DESIGN.md §13): damage a finished
//! journal at systematically chosen byte offsets — single-byte flips and
//! truncations — then salvage and resume, and assert the recovered
//! campaign reproduces the undamaged one byte-for-byte. A seeded
//! fault-plan sweep (`CHAOS_SEEDS`) injects random I/O faults mid-run and
//! asserts a clean resume restores identity; scripted fsync faults at the
//! status and profile sites assert those artifacts self-heal, and that a
//! resume restores one lost at the last boundary.

use std::path::{Path, PathBuf};

use dphpo_core::chaos::{
    FaultPlan, IoFault, JOURNAL_APPEND_SITE, PROFILE_FSYNC_SITE, STATUS_FSYNC_SITE,
};
use dphpo_core::experiment::{
    Campaign, CampaignMode, ExperimentConfig, ExperimentError, ExperimentResult,
};
use dphpo_core::{compact, salvage, verify, Journal};
use dphpo_evo::Individual;

/// Generational chaos campaign: 2 runs × 3 individuals × 2 generations.
fn generational_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

/// Steady-state variant of the same campaign: 16 arrivals over 3 slots.
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
    let dir = std::env::temp_dir().join(format!("dphpo-corrupt-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn canon_individual(ind: &Individual) -> String {
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

fn canon(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for (run_idx, run) in result.runs.iter().enumerate() {
        out.push_str(&format!("run {run_idx} evaluations={}\n", run.evaluations));
        for record in &run.history {
            out.push_str(&format!("  gen {} failures={}\n", record.generation, record.failures));
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
    out
}

/// Reference artifacts for one campaign mode: result canon plus the exact
/// journal and status bytes an undamaged campaign writes.
struct Reference {
    canon: String,
    journal: Vec<u8>,
    status: Vec<u8>,
}

fn reference_for(config: &ExperimentConfig, tag: &str) -> Reference {
    let journal_path = scratch(&format!("{tag}-reference.jsonl"));
    let status_path = scratch(&format!("{tag}-reference-status.json"));
    let result = Campaign::new(config)
        .journal(&journal_path)
        .status_file(&status_path)
        .run(None)
        .expect("uninterrupted reference campaign");
    Reference {
        canon: canon(&result),
        journal: std::fs::read(&journal_path).unwrap(),
        status: std::fs::read(&status_path).unwrap(),
    }
}

/// Complete a campaign from whatever valid prefix `path` holds: resume if
/// the salvaged journal still has frames, start fresh if salvage had to
/// throw everything away (header damage truncates to zero frames).
fn complete_from(
    config: &ExperimentConfig,
    path: &Path,
    status_path: &Path,
    context: &str,
) -> ExperimentResult {
    let report = verify(path).unwrap_or_else(|e| panic!("{context}: verify failed: {e}"));
    assert!(!report.damaged(), "{context}: salvage left damage behind");
    if report.frames == 0 {
        let _ = std::fs::remove_file(path);
        return Campaign::new(config)
            .journal(path)
            .status_file(status_path)
            .run(None)
            .unwrap_or_else(|e| panic!("{context}: fresh rerun failed: {e}"));
    }
    Campaign::new(config)
        .journal(path)
        .status_file(status_path)
        .resume()
        .run(None)
        .unwrap_or_else(|e| panic!("{context}: resume failed: {e}"))
}

fn assert_recovered(config: &ExperimentConfig, reference: &Reference, damaged: &[u8], tag: &str) {
    let path = scratch(&format!("{tag}.jsonl"));
    let status_path = scratch(&format!("{tag}-status.json"));
    std::fs::write(&path, damaged).unwrap();
    let _ = std::fs::remove_file(&status_path);
    salvage(&path).unwrap_or_else(|e| panic!("{tag}: salvage failed: {e}"));
    let recovered = complete_from(config, &path, &status_path, tag);
    assert_eq!(canon(&recovered), reference.canon, "{tag}: recovered campaign diverged");
    assert_eq!(std::fs::read(&path).unwrap(), reference.journal, "{tag}: journal bytes diverged");
    assert_eq!(
        std::fs::read(&status_path).unwrap(),
        reference.status,
        "{tag}: status bytes diverged"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{}.quarantine", path.display()));
    let _ = std::fs::remove_file(&status_path);
}

/// Salvage correctness across byte offsets, for both damage shapes and
/// both campaign modes: the salvaged file must be an exact prefix of the
/// undamaged journal (flips never survive the checksum), with the rest
/// quarantined, and a second salvage must be a no-op. `SALVAGE_STRIDE=1`
/// makes the sweep exhaustive over every byte offset; the default stride
/// is a prime smaller than the frame prefix, so every field of every
/// frame kind still gets hit.
#[test]
fn salvage_recovers_a_clean_prefix_across_byte_offsets() {
    let stride = env_usize("SALVAGE_STRIDE", 13).max(1);
    for (tag, config) in
        [("gen", generational_config()), ("steady", steady_config())]
    {
        let reference = reference_for(&config, &format!("salvage-{tag}"));
        let bytes = &reference.journal;
        let path = scratch(&format!("salvage-{tag}-work.jsonl"));
        let quarantine = PathBuf::from(format!("{}.quarantine", path.display()));
        for offset in (0..bytes.len()).step_by(stride) {
            for (shape, damaged) in [
                ("flip", {
                    let mut d = bytes.clone();
                    d[offset] ^= 0x01;
                    d
                }),
                ("truncate", bytes[..offset].to_vec()),
            ] {
                std::fs::write(&path, &damaged).unwrap();
                let _ = std::fs::remove_file(&quarantine);
                let report = salvage(&path)
                    .unwrap_or_else(|e| panic!("{tag} {shape}@{offset}: salvage failed: {e}"));
                let salvaged = std::fs::read(&path).unwrap();
                assert_eq!(
                    salvaged,
                    bytes[..report.valid_len as usize],
                    "{tag} {shape}@{offset}: salvaged file is not a prefix of the original"
                );
                assert_eq!(
                    report.quarantined_bytes as usize,
                    damaged.len() - report.valid_len as usize,
                    "{tag} {shape}@{offset}: quarantine does not cover the damaged suffix"
                );
                if report.quarantined_bytes > 0 {
                    assert_eq!(
                        std::fs::read(&quarantine).unwrap(),
                        damaged[report.valid_len as usize..],
                        "{tag} {shape}@{offset}: quarantined bytes diverged"
                    );
                }
                if shape == "flip" {
                    // A flipped byte can never hide inside a valid frame.
                    assert!(
                        (report.valid_len as usize) <= offset,
                        "{tag} flip@{offset}: salvage kept a damaged frame \
                         (valid_len={})",
                        report.valid_len
                    );
                }
                let again = salvage(&path)
                    .unwrap_or_else(|e| panic!("{tag} {shape}@{offset}: re-salvage failed: {e}"));
                assert_eq!(again.quarantined_bytes, 0, "salvage must be idempotent");
                let check = verify(&path).unwrap();
                assert!(!check.damaged(), "{tag} {shape}@{offset}: salvage left damage");
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }
}

/// Full recovery at `CORRUPT_STRIDE`-stepped offsets (default 211): flip
/// or truncate, salvage, resume (or restart when the header itself died),
/// and require the recovered journal, status file, and results to be
/// byte-identical to the undamaged campaign's.
#[test]
fn flip_and_truncate_then_salvage_then_resume_is_byte_identical() {
    let stride = env_usize("CORRUPT_STRIDE", 211).max(1);
    for (tag, config) in
        [("gen", generational_config()), ("steady", steady_config())]
    {
        let reference = reference_for(&config, &format!("matrix-{tag}"));
        let bytes = &reference.journal;
        for offset in (0..bytes.len()).step_by(stride) {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0x01;
            assert_recovered(&config, &reference, &flipped, &format!("matrix-{tag}-flip-{offset}"));
            assert_recovered(
                &config,
                &reference,
                &bytes[..offset],
                &format!("matrix-{tag}-trunc-{offset}"),
            );
        }
    }
}

/// Seeded random I/O faults at the journal-append site (`CHAOS_SEEDS`
/// seeds, default 2): every interruption the plan produces must be
/// recoverable by salvage + a clean resume, landing on the undamaged
/// campaign byte-for-byte.
#[test]
fn seeded_io_fault_sweep_recovers_in_both_campaign_modes() {
    let seeds = env_usize("CHAOS_SEEDS", 2) as u64;
    for (tag, config) in
        [("gen", generational_config()), ("steady", steady_config())]
    {
        let reference = reference_for(&config, &format!("sweep-{tag}"));
        for seed in 0..seeds {
            let tag = format!("sweep-{tag}-{seed}");
            let path = scratch(&format!("{tag}.jsonl"));
            let status_path = scratch(&format!("{tag}-status.json"));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&status_path);
            let plan = FaultPlan::new(seed).io_rate(0.08);
            match Campaign::new(&config)
                .journal(&path)
                .status_file(&status_path)
                .fault_plan(plan)
                .run(None)
            {
                Ok(result) => {
                    // The plan fired no fault under this seed: the campaign
                    // must be indistinguishable from an unfaulted one.
                    assert_eq!(canon(&result), reference.canon, "{tag}: clean run diverged");
                }
                Err(ExperimentError::Interrupted { .. }) => {
                    salvage(&path).unwrap_or_else(|e| panic!("{tag}: salvage failed: {e}"));
                    let recovered = complete_from(&config, &path, &status_path, &tag);
                    assert_eq!(canon(&recovered), reference.canon, "{tag}: recovery diverged");
                }
                Err(other) => panic!("{tag}: unexpected error {other}"),
            }
            assert_eq!(std::fs::read(&path).unwrap(), reference.journal, "{tag}: journal bytes");
            assert_eq!(
                std::fs::read(&status_path).unwrap(),
                reference.status,
                "{tag}: status bytes"
            );
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(format!("{}.quarantine", path.display()));
            let _ = std::fs::remove_file(&status_path);
        }
    }
}

/// A scripted fsync failure at the status-file site skips one atomic
/// rewrite; because every boundary rewrites the whole file, the next flush
/// heals it and the final status bytes are unchanged.
#[test]
fn a_failed_status_fsync_self_heals_by_the_final_flush() {
    for (tag, config) in
        [("gen", generational_config()), ("steady", steady_config())]
    {
        let reference = reference_for(&config, &format!("fsync-{tag}"));
        let path = scratch(&format!("fsync-{tag}.jsonl"));
        let status_path = scratch(&format!("fsync-{tag}-status.json"));
        let plan = FaultPlan::new(3).script(STATUS_FSYNC_SITE, 1, IoFault::FsyncFail);
        let result = Campaign::new(&config)
            .journal(&path)
            .status_file(&status_path)
            .fault_plan(plan)
            .run(None)
            .expect("a status fsync fault must not kill the campaign");
        assert_eq!(canon(&result), reference.canon, "{tag}: result diverged");
        assert_eq!(
            std::fs::read(&status_path).unwrap(),
            reference.status,
            "{tag}: status file did not heal"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&status_path);
    }
}

/// The profile rewrite has its own fault site with the status site's rule,
/// and an artifact rewrite lost at the *last* boundary stays lost for the
/// rest of that process — nothing rewrites it again. The journal is the
/// source of truth: it never notices, and a resume of the finished journal,
/// which trains nothing, rewrites the stale artifact from it byte for byte.
#[test]
fn a_lost_artifact_rewrite_heals_by_the_next_flush_or_by_a_resume() {
    for (tag, config) in [("gen", generational_config()), ("steady", steady_config())] {
        let last = (config.n_runs * (config.generations + 1)) as u64 - 1;
        let files = |name: &str| {
            let dir = scratch(&format!("lost-{tag}-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        };
        let campaign = |dir: &Path| {
            Campaign::new(&config)
                .journal(dir.join("journal.jsonl"))
                .status_file(dir.join("campaign_status.json"))
                .profile_dir(dir)
        };
        let read = |dir: &Path| {
            ["journal.jsonl", "campaign_status.json", "profile.json", "profile.folded"]
                .map(|name| std::fs::read(dir.join(name)).unwrap())
        };
        let reference = files("reference");
        let want_canon = canon(&campaign(&reference).run(None).expect("reference campaign"));
        let want = read(&reference);
        for (site, occurrence, stale) in
            [(PROFILE_FSYNC_SITE, 1, 2), (STATUS_FSYNC_SITE, last, 1), (PROFILE_FSYNC_SITE, last, 2)]
        {
            let case = format!("{tag} {site}@{occurrence}");
            let dir = files(&format!("{site}-{occurrence}"));
            let plan = FaultPlan::new(3).script(site, occurrence, IoFault::FsyncFail);
            let result = campaign(&dir).fault_plan(plan).run(None);
            let result = result.unwrap_or_else(|e| panic!("{case}: an artifact fault ended the campaign: {e}"));
            assert_eq!(canon(&result), want_canon, "{case}: result diverged");
            let got = read(&dir);
            assert_eq!(got[0], want[0], "{case}: the journal noticed an artifact fault");
            if occurrence == last {
                assert_ne!(got[stale], want[stale], "{case}: the last rewrite was not lost");
                campaign(&dir).resume().run(None).expect("resume of a finished journal");
            }
            assert_eq!(read(&dir), want, "{case}: artifacts differ from the unfaulted run's");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&reference);
    }
}

/// A scripted journal-append fault still interrupts (the journal is the
/// source of truth; its faults are fatal by design) — asserted here for
/// the status site's sibling so the two sites' contracts stay distinct.
#[test]
fn a_failed_journal_append_is_fatal_by_design() {
    let config = generational_config();
    let path = scratch("fatal-append.jsonl");
    let plan = FaultPlan::new(3).script(JOURNAL_APPEND_SITE, 1, IoFault::IoError);
    match Campaign::new(&config).journal(&path).fault_plan(plan).run(None) {
        Err(ExperimentError::Interrupted { .. }) => {}
        Err(other) => panic!("journal faults must interrupt, got {other}"),
        Ok(_) => panic!("journal faults must interrupt, got a completed campaign"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Snapshots bound resume replay to O(window): the suffix of evaluation
/// records at or after the last snapshot never exceeds one snapshot
/// window, and compaction shrinks a finished steady journal to exactly
/// that suffix while preserving resume identity.
#[test]
fn snapshots_bound_replay_and_compaction_preserves_identity() {
    let config = steady_config();
    let snap_every = config.snapshot_every_epochs * config.pop_size;
    let budget = (config.n_runs * config.pop_size * (config.generations + 1)) as u64;

    // Kill late enough that run 0 has passed at least one snapshot window.
    let killed = scratch("snap-killed.jsonl");
    match Campaign::new(&config).journal(&killed).kill_after(budget - 3).run(None) {
        Err(ExperimentError::Interrupted { .. }) => {}
        Err(other) => panic!("kill must interrupt, got {other}"),
        Ok(_) => panic!("kill must interrupt, got a completed campaign"),
    }
    let journal = Journal::load(&killed).expect("killed journal is a valid prefix");
    let mut runs_with_snapshots = 0;
    for run in 0..config.n_runs {
        let Some(snap) = journal.last_snapshot_for(run) else { continue };
        runs_with_snapshots += 1;
        assert!(snap.arrivals > 0 && snap.arrivals % snap_every == 0);
        let replayed = journal
            .evals
            .iter()
            .filter(|((r, _, _), e)| *r == run && e.arrival.is_some_and(|a| a >= snap.arrivals))
            .count();
        let total = journal.evals.keys().filter(|(r, _, _)| *r == run).count();
        assert!(
            replayed <= snap_every,
            "run {run}: resume would replay {replayed} records, more than one window"
        );
        assert!(
            total >= snap.arrivals,
            "run {run}: snapshot claims more arrivals than the journal holds"
        );
    }
    assert!(runs_with_snapshots > 0, "kill site must leave at least one snapshot behind");

    // Compact a *finished* journal: per run only the last snapshot and its
    // arrival suffix survive, and resuming the compacted journal
    // reconstructs the campaign without retraining or rewriting.
    let reference = reference_for(&config, "snap-compact");
    let compacted = scratch("snap-compact-work.jsonl");
    std::fs::write(&compacted, &reference.journal).unwrap();
    let report = compact(&compacted).expect("compact");
    assert!(
        report.frames_after < report.frames_before,
        "compaction must drop pre-snapshot records ({} -> {})",
        report.frames_before,
        report.frames_after
    );
    let check = verify(&compacted).unwrap();
    assert!(!check.damaged());
    assert_eq!(check.frames, report.frames_after);
    assert_eq!(check.snapshots as usize, config.n_runs, "one surviving snapshot per run");
    let before = std::fs::metadata(&compacted).unwrap().len();
    let resumed = Campaign::new(&config)
        .journal(&compacted)
        .resume()
        .run(None)
        .expect("resume of a compacted journal");
    assert_eq!(canon(&resumed), reference.canon, "compacted resume diverged");
    assert_eq!(
        std::fs::metadata(&compacted).unwrap().len(),
        before,
        "resuming a finished compacted journal must not write anything"
    );
    let _ = std::fs::remove_file(&killed);
    let _ = std::fs::remove_file(&compacted);
}
