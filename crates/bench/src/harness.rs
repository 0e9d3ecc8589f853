//! Shared helpers for the figure/table regeneration binaries: artifact
//! output (a write that fails is remembered and becomes exit status 1),
//! experiment-scale selection, the one constructor of the campaign these
//! binaries run, and the campaign read back from its write-ahead journal so
//! the expensive EA runs execute once (`fig1` runs and journals the
//! campaign; `fig2_table2`, `fig3`, and `table3` read the journal) — plus
//! the timers and the reference system the two micro baselines share.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentResult};
use dphpo_core::journal::Journal;
use dphpo_dnnp::TrainConfig;
use dphpo_md::generate::{generate_dataset, GenConfig, LABEL_NOISE};
use dphpo_md::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Output directory for regenerated artifacts (`results/` at the repo
/// root, overridable with `DPHPO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DPHPO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Set once any [`write_file`] failed, for [`exit_if_writes_failed`].
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// Write `content` to `path` and echo the path. A failure is reported with
/// the path and remembered — the remaining artifacts are still written —
/// and ends the process with status 1 at [`exit_if_writes_failed`].
pub fn write_file(path: &Path, content: &str) {
    match std::fs::write(path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            WRITE_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

/// [`write_file`] into the results directory.
pub fn write_artifact(name: &str, content: &str) {
    write_file(&results_dir().join(name), content);
}

/// The last call of an artifact binary's `main`: exit 1 if any artifact
/// could not be written (each was named when it failed).
pub fn exit_if_writes_failed() {
    if WRITE_FAILED.load(Ordering::Relaxed) {
        eprintln!("not every artifact could be written: see `failed to write` above");
        std::process::exit(1);
    }
}

/// Scale selector shared by all harness binaries: `--smoke` runs the fast
/// test scale; the default is the reduced experiment scale of DESIGN.md.
pub fn experiment_scale() -> ExperimentConfig {
    if std::env::args().any(|a| a == "--smoke") {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::reduced()
    }
}

/// The campaign `fig1` runs — and the figure binaries run when there is no
/// journal to read yet: journaled to [`journal_path`] (or resumed from
/// `resume`), with the live `<prefix>campaign_status.json` rewritten beside
/// it at every boundary (`prefix` is `steady_` for a steady-state campaign).
pub fn campaign<'a>(
    config: &'a ExperimentConfig,
    prefix: &str,
    resume: Option<PathBuf>,
) -> Campaign<'a> {
    let status = results_dir().join(format!("{prefix}campaign_status.json"));
    println!("live status at {}", status.display());
    match resume {
        Some(journal) => Campaign::new(config).journal(journal).resume(),
        None => Campaign::new(config).journal(journal_path(prefix)),
    }
    .status_file(status)
}

/// The campaign behind `fig2_table2`, `fig3` and `table3`, read back from
/// the write-ahead journal `fig1` left at `journal_path("")` — the one
/// persisted form of a campaign. Only `runs` is rebuilt (the figures read
/// nothing else), through [`Journal::run_results`], after the journal's
/// fingerprint is checked against the selected scale: a figure is never
/// drawn from a campaign other than the one the tree describes.
///
/// Without a journal the campaign runs at the selected scale, journaled,
/// exactly as `fig1` runs it. A journal that cannot be read, or whose runs
/// stop short, ends the process with the error and the resume line — it is
/// never retrained over.
pub fn load_or_run_experiment() -> ExperimentResult {
    let config = experiment_scale();
    let path = journal_path("");
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
        return run_and_report(campaign(&config, "", None));
    }
    let runs = Journal::load(&path).and_then(|journal| {
        journal.check_config(&config)?;
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

/// Default write-ahead journal path: `results/<prefix>experiment.journal.jsonl`.
pub fn journal_path(prefix: &str) -> PathBuf {
    results_dir().join(format!("{prefix}experiment.journal.jsonl"))
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

// What the two micro baselines (`hotpath`, `obs_overhead`) share.

/// Best-of-`samples` wall time of `f`, in seconds (one warm-up call first).
pub fn time_best(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::MAX;
    for _ in 0..samples {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Nanoseconds per call for a kernel, timed in batches of `reps`.
pub fn ns_per_op(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    time_best(samples, || {
        for _ in 0..reps {
            f();
        }
    }) * 1e9
        / reps as f64
}

/// The reference system both baselines train on, as `(train, val)`.
pub fn reference_system() -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(6);
    let gen = GenConfig { n_frames: 24, ..GenConfig::reduced() };
    let mut ds = generate_dataset(&gen, &mut rng);
    ds.add_label_noise(LABEL_NOISE.0, LABEL_NOISE.1, &mut rng);
    ds.split(0.25, &mut rng)
}

/// Reference cutoff: `rcut = 11` gives ~17 pairs/atom on the generated toy
/// box, the closest match to the neighbor density of the paper's production
/// systems (water at 6 Å sees ~46 neighbors/atom).
pub const REFERENCE_RCUT: f64 = 11.0;

/// The baselines' training configuration: `steps` long, one validation row.
pub fn reference_config(rcut: f64, steps: usize) -> TrainConfig {
    TrainConfig {
        rcut,
        rcut_smth: 2.2,
        start_lr: 0.008,
        stop_lr: 1e-4,
        num_steps: steps,
        disp_freq: steps,
        val_max_frames: 2,
        ..TrainConfig::default()
    }
}
