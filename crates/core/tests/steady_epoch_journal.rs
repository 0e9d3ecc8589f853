//! The steady-state journal grows by O(1) per epoch (DESIGN.md §12–13):
//! each closed epoch is journaled once, as its own boundary record, and
//! snapshots carry live state only.
//!
//! * growth guard — over a campaign of seven epochs no snapshot frame
//!   outgrows the run's first by more than half, and every `(run, epoch)`
//!   boundary record appears exactly once;
//! * boundary kills — killing the driver one arrival before, at, and one
//!   arrival after every epoch close and resuming ends byte-identical
//!   (journal, status, profile) to the uninterrupted run;
//! * compaction keeps the boundary records, and resuming the compacted
//!   journal reproduces the final populations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dphpo_core::experiment::{
    Campaign, CampaignMode, ExperimentConfig, ExperimentError, ExperimentResult,
};
use dphpo_core::{compact, parse_frame, verify, Journal};

/// Seven epochs of four arrivals per run over three slots (so windows
/// straddle epoch closes), faults and retries on: 2 runs × 28 arrivals.
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.mode = CampaignMode::SteadyState;
    config.generations = 6;
    config.base_train_config.num_steps = 4;
    config.base_train_config.disp_freq = 4;
    config.pool.n_workers = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-epochs-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// Everything a campaign leaves on disk, by file name.
fn artifacts(journal: &Path, status: &Path, profile: &Path) -> BTreeMap<String, Vec<u8>> {
    let files = [
        journal.to_path_buf(),
        status.to_path_buf(),
        profile.join("profile.json"),
        profile.join("profile.folded"),
    ];
    files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (name, bytes)
        })
        .collect()
}

fn final_populations(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for run in &result.runs {
        for ind in run.final_population() {
            out.push_str(&format!("{} {:?} {:?}\n", ind.id, ind.genome, ind.fitness().values()));
        }
    }
    for archive in &result.archives {
        out.push_str(&format!("{:?}\n", archive.objective_pairs()));
    }
    out
}

/// `(type, run, index, frame bytes)` of every record after the header;
/// `index` is the epoch of an `epoch` record and the arrival count of a
/// `snapshot`.
fn records(journal: &Path) -> Vec<(String, usize, usize, usize)> {
    let text = std::fs::read_to_string(journal).unwrap();
    text.lines()
        .enumerate()
        .skip(1)
        .map(|(seq, line)| {
            let payload = parse_frame(line, seq as u64).expect("intact frame");
            let record = dphpo_dnnp::Json::parse(payload).expect("valid JSON");
            let field = |key: &str| record.get(key).and_then(|v| v.as_f64()).map(|v| v as usize);
            let kind = record.get("type").and_then(|v| v.as_str()).unwrap().to_string();
            let index = field("arrivals").or(field("gen")).unwrap();
            (kind, field("run").unwrap(), index, line.len() + 1)
        })
        .collect()
}

#[test]
fn snapshots_stay_flat_and_every_epoch_is_journaled_exactly_once() {
    let config = config();
    let journal = scratch("growth.jsonl");
    Campaign::new(&config).journal(&journal).run(None).expect("steady campaign");
    let records = records(&journal);
    let epochs = config.generations + 1;
    for run in 0..config.n_runs {
        let boundaries: Vec<usize> = records
            .iter()
            .filter(|(kind, r, ..)| kind == "epoch" && *r == run)
            .map(|&(_, _, epoch, _)| epoch)
            .collect();
        assert_eq!(boundaries, (0..epochs).collect::<Vec<_>>(), "run {run}: one record per epoch");
        let snapshots: Vec<usize> = records
            .iter()
            .filter(|(kind, r, ..)| kind == "snapshot" && *r == run)
            .map(|&(.., bytes)| bytes)
            .collect();
        assert!(snapshots.len() >= epochs - 1, "run {run}: {} snapshots", snapshots.len());
        for (i, &bytes) in snapshots.iter().enumerate() {
            assert!(
                2 * bytes <= 3 * snapshots[0],
                "run {run}: snapshot {i} is {bytes} bytes, the first was {}",
                snapshots[0]
            );
        }
    }
    // The snapshot resume restores is cumulative: every snapshot, loaded
    // from the journal that ends on it, carries the epochs closed before it.
    let text = std::fs::read_to_string(&journal).unwrap();
    let prefix = scratch("growth-prefix.jsonl");
    let mut end = text.find('\n').unwrap() + 1;
    for (kind, run, arrivals, bytes) in &records {
        end += bytes;
        if kind != "snapshot" {
            continue;
        }
        std::fs::write(&prefix, &text[..end]).unwrap();
        let loaded = Journal::load(&prefix).unwrap();
        let snapshot = loaded.last_snapshot_for(*run).unwrap();
        let closed = arrivals / config.pop_size;
        assert_eq!(snapshot.arrivals, *arrivals);
        assert_eq!(snapshot.history.len(), closed, "run {run} at {arrivals}");
        assert_eq!(snapshot.epoch_reports.len(), closed);
        assert_eq!(snapshot.status_rows.len(), closed);
    }
    // Every earlier snapshot carries live state only.
    let loaded = Journal::load(&journal).unwrap();
    for ((run, arrivals), snapshot) in &loaded.snapshots {
        if loaded.last_snapshot_for(*run).unwrap().arrivals != *arrivals {
            assert!(snapshot.history.is_empty(), "run {run} at {arrivals}");
            assert!(snapshot.epoch_reports.is_empty() && snapshot.status_rows.is_empty());
        }
    }
    let report = verify(&journal).unwrap();
    assert_eq!(report.generations as usize, config.n_runs * epochs);
    assert_eq!(report.frames, 1 + report.evals + report.generations + report.snapshots);
}

#[test]
fn kills_around_every_epoch_close_resume_byte_identically() {
    let config = config();
    let (journal, status, profile) =
        (scratch("ref.jsonl"), scratch("ref_status.json"), scratch("ref_profile"));
    Campaign::new(&config)
        .journal(&journal)
        .status_file(&status)
        .profile_dir(&profile)
        .run(None)
        .expect("uninterrupted steady campaign");
    let reference = artifacts(&journal, &status, &profile);

    let closes = config.n_runs * (config.generations + 1);
    for close in 1..=closes {
        let at = (close * config.pop_size) as u64;
        for kill_after in [at - 1, at, at + 1] {
            let dir = scratch(&format!("kill-{kill_after}"));
            let _ = std::fs::create_dir_all(&dir);
            let (journal, status, profile) =
                (dir.join("ref.jsonl"), dir.join("ref_status.json"), dir.join("ref_profile"));
            let campaign = || {
                Campaign::new(&config).journal(&journal).status_file(&status).profile_dir(&profile)
            };
            match campaign().kill_after(kill_after).run(None) {
                Err(ExperimentError::Interrupted { .. }) => {}
                Err(other) => panic!("kill_after={kill_after}: unexpected error {other}"),
                // Only a kill budget past the last arrival lets it finish.
                Ok(_) => assert!(kill_after > (closes * config.pop_size) as u64),
            }
            campaign()
                .resume()
                .run(None)
                .unwrap_or_else(|e| panic!("resume after kill_after={kill_after}: {e}"));
            let resumed = artifacts(&journal, &status, &profile);
            for (name, bytes) in &reference {
                assert!(
                    resumed[name] == *bytes,
                    "kill_after={kill_after}: {name} differs from the uninterrupted run's"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn compaction_keeps_the_boundary_records_and_resume_reproduces_the_populations() {
    let config = config();
    let journal = scratch("compact.jsonl");
    let reference = Campaign::new(&config).journal(&journal).run(None).expect("steady campaign");
    let full = Journal::load(&journal).unwrap();

    let report = compact(&journal).expect("compact");
    assert!(report.frames_after < report.frames_before);
    // The compacted journal is installed by a rename: nothing is left beside it.
    let leftovers: Vec<String> = std::fs::read_dir(journal.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("compact.") && name != "compact.jsonl")
        .collect();
    assert!(leftovers.is_empty(), "compaction left {leftovers:?} behind");
    let compacted = Journal::load(&journal).expect("a compacted journal loads");
    assert_eq!(compacted.epochs.len(), config.n_runs * (config.generations + 1));
    assert_eq!(compacted.snapshots.len(), config.n_runs);
    for run in 0..config.n_runs {
        let (kept, last) =
            (compacted.last_snapshot_for(run).unwrap(), full.last_snapshot_for(run).unwrap());
        assert_eq!(kept.arrivals, last.arrivals);
        assert_eq!(kept.history.len(), last.history.len());
    }
    let resumed = Campaign::new(&config)
        .journal(&journal)
        .resume()
        .run(None)
        .expect("resume of a compacted journal");
    assert_eq!(final_populations(&resumed), final_populations(&reference));

    // The same from journals compacted mid-campaign, killed one arrival
    // past an epoch close: wherever that arrival shares the close's window,
    // the epoch's record sits after the last snapshot.
    let killed = scratch("compact-killed.jsonl");
    let mut epoch_after_snapshot = 0;
    for close in 1..config.n_runs * (config.generations + 1) {
        let kill_after = (close * config.pop_size + 1) as u64;
        match Campaign::new(&config).journal(&killed).kill_after(kill_after).run(None) {
            Err(ExperimentError::Interrupted { .. }) => {}
            other => panic!("kill must interrupt, got {:?}", other.map(|_| ())),
        }
        let kinds: Vec<String> = records(&killed).into_iter().map(|(kind, ..)| kind).collect();
        let last = |kind: &str| kinds.iter().rposition(|k| k == kind);
        epoch_after_snapshot += usize::from(last("epoch") > last("snapshot"));
        compact(&killed).expect("compact a killed journal");
        let resumed = Campaign::new(&config)
            .journal(&killed)
            .resume()
            .run(None)
            .unwrap_or_else(|e| panic!("resume of a journal killed at {kill_after}, compacted: {e}"));
        assert_eq!(final_populations(&resumed), final_populations(&reference));
    }
    assert!(epoch_after_snapshot > 0, "no kill site left an epoch record after the last snapshot");
}
