//! Shared helpers for the figure/table regeneration binaries: artifact
//! output, experiment-scale selection, and the campaign read back from its
//! write-ahead journal so the expensive EA runs execute once (`fig1` runs
//! and journals the campaign; `fig2_table2`, `fig3`, and `table3` read the
//! journal).

use std::path::PathBuf;

use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentResult};
use dphpo_core::journal::Journal;

/// Output directory for regenerated artifacts (`results/` at the repo
/// root, overridable with `DPHPO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DPHPO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Write an artifact file and echo its path.
pub fn write_artifact(name: &str, content: &str) {
    let path = results_dir().join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Scale selector shared by all harness binaries: `--smoke` (or
/// `DPHPO_SCALE=smoke`) runs the fast test scale; the default is the
/// reduced experiment scale of DESIGN.md.
pub fn experiment_scale() -> ExperimentConfig {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("DPHPO_SCALE").is_ok_and(|v| v == "smoke");
    if smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::reduced()
    }
}

/// The campaign behind `fig2_table2`, `fig3` and `table3`, read back from
/// the write-ahead journal `fig1` left at [`journal_path`] — the one
/// persisted form of a campaign. Only `runs` is rebuilt (the figures read
/// nothing else), through [`Journal::run_results`], and the configuration is
/// not checked against the journal's fingerprint: that covers the worker
/// count, which differs between machines and changes no boundary record.
///
/// Without a journal the campaign runs at the selected scale, journaled,
/// exactly as `fig1` runs it. A journal that cannot be read, or whose runs
/// stop short, ends the process with the error and the resume line — it is
/// never retrained over.
pub fn load_or_run_experiment() -> ExperimentResult {
    let mut config = experiment_scale();
    let path = journal_path();
    if !path.exists() {
        println!(
            "no journal at {}; running {} runs x pop {} x {} generations \
             (this trains {} models -- `fig1` does the same and writes Figure 1)",
            path.display(),
            config.n_runs,
            config.pop_size,
            config.generations,
            config.n_runs * config.pop_size * (config.generations + 1)
        );
        return run_and_report(Campaign::new(&config).journal(path));
    }
    let runs = Journal::load(&path).and_then(|journal| {
        config.n_runs = journal.n_runs;
        config.pop_size = journal.pop_size;
        config.generations = journal.n_generations;
        journal.run_results()
    });
    match runs {
        Ok(runs) => {
            println!("loaded experiment from {}", path.display());
            ExperimentResult {
                config,
                runs,
                pool_reports: Vec::new(),
                archives: Vec::new(),
                status: dphpo_core::CampaignStatus::default(),
            }
        }
        Err(e) => {
            eprintln!("cannot read the campaign from {}: {e}", path.display());
            eprintln!("an interrupted campaign continues with: fig1 --resume {}", path.display());
            std::process::exit(1);
        }
    }
}

/// Default write-ahead journal path: `results/experiment.journal.jsonl`.
pub fn journal_path() -> PathBuf {
    results_dir().join("experiment.journal.jsonl")
}

/// Run a built campaign with stderr progress. A journaled campaign
/// announces its journal; if it is interrupted, the resume hint is printed
/// and the process exits nonzero — rerun with `--resume <journal>` to
/// continue bit-identically instead of retraining from scratch.
pub fn run_and_report(campaign: Campaign<'_>) -> ExperimentResult {
    let t0 = std::time::Instant::now();
    let mut progress = |run: usize, generation: usize| {
        eprintln!(
            "[{:>7.1?}] run {run}: reached generation {generation}",
            t0.elapsed()
        );
    };
    let journal = campaign.journal_path().map(std::path::Path::to_path_buf);
    let resuming = campaign.is_resume();
    match &journal {
        Some(path) if resuming => println!("resuming from {}", path.display()),
        Some(path) => println!("journaling to {} (resume with --resume)", path.display()),
        None => {}
    }
    match campaign.run(Some(&mut progress)) {
        Ok(result) => result,
        Err(e) if resuming => {
            eprintln!("resume failed: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("experiment interrupted: {e}");
            if let Some(path) = journal {
                eprintln!("resume with: --resume {}", path.display());
            }
            std::process::exit(1);
        }
    }
}
