//! Experiment orchestration: N independent EA deployments over one shared
//! dataset — the paper runs five, each on 100 Summit nodes for 7
//! generations (the random generation 0 plus 6 EA steps).
//!
//! [`Campaign`] is the one way to start a campaign. It can be journaled
//! ([`Campaign::journal`]) and resumed ([`Campaign::resume`]): every
//! evaluation and generation boundary is appended to a write-ahead JSONL
//! journal, and a resumed campaign replays the journaled work to a result
//! bit-identical to an uninterrupted run (see [`crate::journal`] for the
//! determinism contract). Plain, journaled, observed and resumed campaigns
//! all run the same body — they differ only in what [`Campaign::run`] hands
//! the per-run drivers — so no option changes the optimisation itself.
//!
//! What lives as long as the campaign is built once by [`Campaign::run`]:
//! the dataset (with its pair table) and one pool of evaluation threads that
//! every batch and every steady-state submission of every run goes through.
//! `pool.n_workers` is the *simulated* allocation — the experiment, part of
//! the journal fingerprint; how many OS threads carry it is
//! [`dphpo_hpc::physical_threads`] of that width, a property of the machine
//! that no campaign byte depends on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dphpo_dnnp::TrainConfig;
use dphpo_evo::nsga2::{Nsga2Config, Nsga2State, RunResult};
use dphpo_evo::{Individual, ParetoArchive};
use dphpo_hpc::{physical_threads, with_pool, FaultInjector, PoolConfig, PoolReport, TaskCtx};
use dphpo_obs::{Recorder, SpanCtx, NOOP};
use dphpo_md::generate::{generate_dataset, GenConfig};
use dphpo_md::{Dataset, LABEL_NOISE};

use crate::campaign_report::{self, CampaignStatus, GenStatus};
use crate::chaos::{
    DriverLife, FaultPlan, IoSite, JOURNAL_APPEND_SITE, PROFILE_FSYNC_SITE, STATUS_FSYNC_SITE,
};
use crate::ea::{evaluate_job, EvalJob, RunEnv, SummitEvaluator};
use crate::journal::{GenEntry, Journal, JournalError, JournalSink, JournalWriter};
use crate::representation::DeepMDRepresentation;
use crate::workflow::{stable_id, EvalContext};

/// How a campaign schedules its evaluations (see DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignMode {
    /// The paper's per-generation barrier: a whole offspring batch is
    /// evaluated, the driver waits for every task, then selection runs.
    /// This is the default, and the mode every checked-in artifact uses.
    Generational,
    /// Asynchronous steady-state NSGA-II: each completed evaluation is
    /// folded into the population the moment it arrives (in deterministic
    /// *arrival order*) and a replacement child is bred and submitted
    /// immediately, so workers never idle at a generation boundary.
    SteadyState,
}

impl CampaignMode {
    /// What one boundary of this mode — one status row — is called in the
    /// reports: a `generation`, or a steady-state `epoch`.
    pub fn row_label(self) -> &'static str {
        match self {
            CampaignMode::Generational => "generation",
            CampaignMode::SteadyState => "epoch",
        }
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Independent EA deployments (paper: 5).
    pub n_runs: usize,
    /// Population size = offspring size (paper: 100, one node each).
    pub pop_size: usize,
    /// EA steps after the random initial generation (paper: 6).
    pub generations: usize,
    /// Fixed training settings shared by every evaluation.
    pub base_train_config: TrainConfig,
    /// Synthetic-FPMD dataset generation parameters.
    pub gen_config: GenConfig,
    /// The simulated allocation: `n_workers` Summit nodes (never a thread
    /// count — see [`Campaign::physical_threads`]), nannies, retries.
    pub pool: PoolConfig,
    /// Per-task worker-death probability (hardware faults).
    pub fault_probability: f64,
    /// Master seed; run `r` uses `master_seed + r`.
    pub master_seed: u64,
    /// Scheduling mode: generational (barrier) or steady-state (async).
    /// Part of the journal fingerprint — the two modes' journals are
    /// mutually non-resumable.
    pub mode: CampaignMode,
    /// Journal snapshot cadence for steady-state campaigns, in epochs:
    /// every this many epochs (`pop_size` arrivals each) the driver appends
    /// a self-contained snapshot record, so resume replays only the suffix
    /// after the last snapshot instead of the whole campaign. `0` snapshots
    /// at every window boundary. Not part of the config fingerprint — the
    /// cadence may change between a run and its resume.
    pub snapshot_every_epochs: usize,
}

impl ExperimentConfig {
    /// The paper's scale, for the record (do not run on a laptop: 3500
    /// trainings of a 160-atom system).
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            n_runs: 5,
            pop_size: 100,
            generations: 6,
            base_train_config: TrainConfig::paper_scale(),
            gen_config: GenConfig::paper_scale(),
            pool: PoolConfig {
                n_workers: 100,
                nanny: false,
                max_attempts: 3,
            },
            fault_probability: 0.002,
            master_seed: 2023,
            mode: CampaignMode::Generational,
            snapshot_every_epochs: 1,
        }
    }

    /// Reduced scale that preserves every qualitative behaviour: 20 atoms
    /// in the paper's 17.84 Å box, a few hundred training steps, population
    /// in the dozens, one simulated node per individual as in the paper's
    /// deployment. This is what the figure/table harnesses run.
    pub fn reduced() -> Self {
        const POP_SIZE: usize = 12;
        ExperimentConfig {
            n_runs: 5,
            pop_size: POP_SIZE,
            generations: 6,
            base_train_config: TrainConfig {
                num_steps: 2_000,
                disp_freq: 500,
                val_max_frames: 6,
                ..TrainConfig::default()
            },
            gen_config: GenConfig::reduced(),
            pool: PoolConfig {
                n_workers: POP_SIZE,
                nanny: false,
                max_attempts: 3,
            },
            fault_probability: 0.002,
            master_seed: 2023,
            mode: CampaignMode::Generational,
            snapshot_every_epochs: 1,
        }
    }

    /// Minimal smoke scale for unit and integration tests.
    pub fn smoke() -> Self {
        ExperimentConfig {
            n_runs: 2,
            pop_size: 4,
            generations: 1,
            base_train_config: TrainConfig {
                embedding_neurons: vec![4, 4],
                fitting_neurons: vec![6],
                num_steps: 12,
                batch_per_worker: 1,
                n_workers: 1,
                disp_freq: 12,
                val_max_frames: 2,
                ..TrainConfig::default()
            },
            gen_config: GenConfig {
                n_atoms: 10,
                box_len: 9.0,
                n_frames: 8,
                equil_steps: 80,
                sample_every: 4,
                ..GenConfig::tiny()
            },
            pool: PoolConfig {
                n_workers: 2,
                nanny: false,
                max_attempts: 3,
            },
            fault_probability: 0.0,
            master_seed: 7,
            mode: CampaignMode::Generational,
            snapshot_every_epochs: 1,
        }
    }
}

/// Result of the full experiment.
pub struct ExperimentResult {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// One EA history per run.
    pub runs: Vec<RunResult>,
    /// Scheduler reports per run (makespans, deaths, retries).
    pub pool_reports: Vec<Vec<PoolReport>>,
    /// Cross-generation Pareto archive per run (every non-dominated,
    /// non-penalty solution the run ever surfaced).
    pub archives: Vec<ParetoArchive>,
    /// The campaign observatory: per-generation search-quality and
    /// utilization rows (see [`crate::campaign_report`]).
    pub status: CampaignStatus,
}

impl ExperimentResult {
    /// Total DNNP trainings performed (the paper reports 3500 over five
    /// 7-generation runs of population 100).
    pub fn total_evaluations(&self) -> usize {
        self.runs.iter().map(|r| r.evaluations).sum()
    }
}

/// Why a campaign stopped without a result.
#[derive(Debug)]
pub enum ExperimentError {
    /// The configuration cannot describe a campaign (no workers, no
    /// attempts, an empty population). Reported before anything is created
    /// on disk.
    Config(String),
    /// The (simulated) driver was killed mid-campaign — the crash the
    /// write-ahead journal exists for. Resume with [`Campaign::resume`].
    Interrupted {
        /// Task completions the driver recorded before it died, over the
        /// whole campaign: exactly `k` when [`Campaign::kill_after`]`(k)`
        /// killed it.
        completed_tasks: u64,
    },
    /// Journal I/O or validation failure (corrupt file, stale config, …).
    Journal(JournalError),
    /// A status or profile artifact could not be rewritten. The journal is
    /// unaffected: it verifies clean and the campaign resumes.
    Artifact {
        /// The file (or directory) that could not be written.
        path: PathBuf,
        /// The underlying error.
        message: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Config(message) => write!(f, "invalid configuration: {message}"),
            ExperimentError::Interrupted { completed_tasks } => {
                write!(f, "driver killed after {completed_tasks} journaled tasks")
            }
            ExperimentError::Journal(e) => write!(f, "{e}"),
            ExperimentError::Artifact { path, message } => {
                write!(f, "cannot write {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<JournalError> for ExperimentError {
    fn from(e: JournalError) -> Self {
        ExperimentError::Journal(e)
    }
}

/// Generate the shared dataset (the "CP2K trajectory"), with label noise
/// and the paper's 75/25 split.
pub fn build_dataset(config: &ExperimentConfig) -> (Arc<Dataset>, Arc<Dataset>) {
    let mut rng = StdRng::seed_from_u64(config.master_seed ^ 0x0da7_a5e7);
    let mut dataset = generate_dataset(&config.gen_config, &mut rng);
    dataset.add_label_noise(LABEL_NOISE.0, LABEL_NOISE.1, &mut rng);
    let (train, val) = dataset.split(0.25, &mut rng);
    // Scan the pair geometry here, once per dataset, rather than inside
    // whichever evaluation happens to ask first.
    train.pair_table();
    val.pair_table();
    (Arc::new(train), Arc::new(val))
}

fn nsga2_config_for(config: &ExperimentConfig) -> Nsga2Config {
    Nsga2Config {
        pop_size: config.pop_size,
        generations: config.generations,
        init_ranges: DeepMDRepresentation::init_ranges(),
        bounds: DeepMDRepresentation::bounds(),
        std: DeepMDRepresentation::initial_std(),
        anneal_factor: DeepMDRepresentation::ANNEAL_FACTOR,
    }
}

/// The live status surface: accumulates observatory rows and (when a path
/// is configured) rewrites `campaign_status.json` atomically at every
/// generation (or steady-state epoch) boundary — and, with a profile
/// directory, the profile artifacts rendered from the same rows.
pub(crate) struct StatusSink {
    pub(crate) status: CampaignStatus,
    path: Option<PathBuf>,
    /// Fault-injection site covering the whole atomic rewrite (temp-file
    /// write, fsyncs, rename). A fired fault skips the rewrite: the file
    /// keeps its previous content, exactly what a failed atomic replace
    /// leaves behind — and the next boundary's flush rewrites it whole.
    status_io: IoSite,
    /// Directory for `profile.json` / `profile.folded`; `None` leaves the
    /// profiler off.
    profile_dir: Option<PathBuf>,
    /// The profile rewrite's own fault site, with the status site's rule.
    profile_io: IoSite,
    /// A run was restored from the journal since the last rewrite.
    restored_unflushed: bool,
}

impl StatusSink {
    /// The sink `campaign` asked for.
    pub(crate) fn new(campaign: &Campaign<'_>) -> Self {
        let plan = campaign.fault_plan.as_ref();
        StatusSink {
            status: CampaignStatus::new(campaign.config),
            path: campaign.status_path.clone(),
            status_io: IoSite::new(plan, STATUS_FSYNC_SITE),
            profile_dir: campaign.profile_dir.clone(),
            profile_io: IoSite::new(plan, PROFILE_FSYNC_SITE),
            restored_unflushed: false,
        }
    }

    /// Install one run's journaled rows — bit-identical to what the original
    /// driver published live, so a resumed campaign's artifacts match the
    /// uninterrupted run's bytes. Nothing is rewritten here: a resume that
    /// restores five finished runs owes the disk one rewrite
    /// ([`StatusSink::flush_restored`]), not five.
    pub(crate) fn restore_run(&mut self, run: usize, rows: Vec<GenStatus>) {
        self.status.set_run(run, rows);
        self.restored_unflushed = true;
    }

    /// [`StatusSink::flush`] if a restored run has not reached the disk yet:
    /// called before a run trains anything, and once more when the campaign
    /// ends (the only rewrite of a resume that found every run finished).
    pub(crate) fn flush_restored(&mut self) -> Result<(), ExperimentError> {
        if self.restored_unflushed {
            self.flush()?;
        }
        Ok(())
    }

    /// Rewrite the profile artifacts and the status file. An *injected*
    /// fault swallows that artifact's rewrite (the on-disk file is stale but
    /// intact, and the next boundary — or a resume — rewrites it whole); a
    /// real I/O error ends the campaign with [`ExperimentError::Artifact`].
    /// Each artifact has its own site, so profiling on vs off does not shift
    /// the status site's occurrence sequence.
    pub(crate) fn flush(&mut self) -> Result<(), ExperimentError> {
        self.restored_unflushed = false;
        let failed = |path: &PathBuf, e: std::io::Error| ExperimentError::Artifact {
            path: path.clone(),
            message: e.to_string(),
        };
        if let Some(dir) = &self.profile_dir {
            if self.profile_io.next().is_none() {
                campaign_report::write_profile_atomic(dir, &self.status)
                    .map_err(|e| failed(dir, e))?;
            }
        }
        let Some(path) = &self.path else { return Ok(()) };
        if self.status_io.next().is_some() {
            return Ok(());
        }
        campaign_report::write_status_atomic(path, &self.status).map_err(|e| failed(path, e))
    }
}

/// The campaign entry point: dataset generation plus `n_runs` independent
/// NSGA-II deployments, optionally with a write-ahead journal, a live
/// `campaign_status.json` (rewritten atomically at every generation
/// boundary), profile artifacts, chaos-mode driver kills, resume, and
/// telemetry — in any combination. A plain `Campaign::new(&config).run(None)`
/// fails only on a configuration that describes no campaign
/// ([`ExperimentError::Config`]).
///
/// ```no_run
/// use dphpo_core::experiment::{Campaign, ExperimentConfig};
///
/// let config = ExperimentConfig::smoke();
/// let result = Campaign::new(&config)
///     .journal("campaign.jsonl")
///     .status_file("campaign_status.json")
///     .run(None)
///     .unwrap();
/// println!("{}", dphpo_core::campaign_report::markdown_report(&result.status, config.mode));
/// ```
pub struct Campaign<'a> {
    config: &'a ExperimentConfig,
    journal_path: Option<PathBuf>,
    status_path: Option<PathBuf>,
    kill_after_tasks: Option<u64>,
    resume: bool,
    recorder: Option<Arc<dyn Recorder>>,
    fault_plan: Option<FaultPlan>,
    profile_dir: Option<PathBuf>,
    physical_threads: Option<usize>,
}

impl<'a> Campaign<'a> {
    /// A plain, unjournaled campaign for `config`.
    pub fn new(config: &'a ExperimentConfig) -> Self {
        Campaign {
            config,
            journal_path: None,
            status_path: None,
            kill_after_tasks: None,
            resume: false,
            recorder: None,
            fault_plan: None,
            profile_dir: None,
            physical_threads: None,
        }
    }

    /// Enable the deterministic profiler: rewrite `profile.json` (schema
    /// [`dphpo_obs::profile::PROFILE_SCHEMA`]) and `profile.folded` in
    /// `dir` atomically at every generation (or steady-state epoch)
    /// boundary. Both render the status rows
    /// ([`campaign_report::campaign_profile`]), so profiling on vs off
    /// leaves every other campaign artifact byte-identical, and the profile
    /// itself is byte-identical under kill+resume (DESIGN.md §14).
    pub fn profile_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.profile_dir = Some(dir.into());
        self
    }

    /// Attach a write-ahead journal at `path`.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Rewrite a deterministic status file at `path` at every generation
    /// boundary (atomically: temp file + rename).
    pub fn status_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.status_path = Some(path.into());
        self
    }

    /// Chaos mode, and the one way to kill the driver: it dies after this
    /// many task completions counted by this process over the whole campaign
    /// (a resumed campaign counts the replayed completions of its unfinished
    /// generation too). Records past that point are lost, [`Campaign::run`]
    /// returns [`ExperimentError::Interrupted`] naming the completions the
    /// driver recorded, and the journal on disk is exactly what a real crash
    /// would leave.
    pub fn kill_after(mut self, tasks: u64) -> Self {
        self.kill_after_tasks = Some(tasks);
        self
    }

    /// Resume from the attached journal instead of starting fresh:
    /// journaled evaluations are replayed instead of retrained, missing
    /// tasks are re-submitted, and the continuation (appended to the same
    /// journal) reaches a result **bit-identical** to an uninterrupted run.
    /// The journal must have been written under the same configuration
    /// ([`Journal::check_config`]).
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Attach a telemetry recorder (run `r` becomes Chrome-trace process
    /// `r`). Recording is strictly observational: populations, archives,
    /// reports and journal bytes are identical with or without it. Replayed
    /// evaluations emit no per-step training events (they never retrain);
    /// their `eval` spans are still reconstructed from the journaled minutes.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a deterministic I/O fault plan (see [`crate::chaos`]):
    /// scripted or seeded faults at the journal-append, status-rewrite and
    /// profile-rewrite sites. Every decision is a pure function of
    /// `(chaos_seed, site, occurrence)`, so a chaos run is exactly
    /// reproducible from its plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Test seam: open exactly `threads` OS threads instead of
    /// [`dphpo_hpc::physical_threads`] of the simulated width. Nothing a
    /// campaign writes depends on the count — which is what the tests that
    /// set it prove — so it is no part of the configuration, the fingerprint
    /// or the journal; suites that force an interleaving between evaluations
    /// pin it so they cannot stall on a one-core host.
    pub fn physical_threads(mut self, threads: usize) -> Self {
        self.physical_threads = Some(threads);
        self
    }

    /// The attached journal path, if any.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal_path.as_deref()
    }

    /// Whether this campaign resumes from its journal.
    pub fn is_resume(&self) -> bool {
        self.resume
    }

    /// Open the journal pair: a fresh writer, or — resuming — the loaded
    /// journal plus a writer appending after its valid prefix.
    fn open_journal(&self) -> Result<(Option<JournalWriter>, Option<Journal>), JournalError> {
        match (self.journal_path(), self.resume) {
            (Some(path), false) => Ok((Some(JournalWriter::create(path, self.config)?), None)),
            (Some(path), true) => {
                let journal = Journal::load(path)?;
                journal.check_config(self.config)?;
                Ok((Some(JournalWriter::open_append(path, &journal)?), Some(journal)))
            }
            (None, false) => Ok((None, None)),
            (None, true) => Err(JournalError::new("resume requires a journal path")),
        }
    }

    /// What the schedulers would otherwise assert on mid-campaign, checked
    /// before the journal header exists.
    fn validate(&self) -> Result<(), ExperimentError> {
        let config = self.config;
        let problem = if config.pool.n_workers == 0 {
            "pool.n_workers must be at least 1"
        } else if config.pool.max_attempts == 0 {
            "pool.max_attempts must be at least 1"
        } else if config.pop_size == 0 {
            "pop_size must be at least 1"
        } else {
            return Ok(());
        };
        Err(ExperimentError::Config(problem.to_string()))
    }

    /// Run (or resume) the campaign, calling `progress(run, generation)` at
    /// every generation (or steady-state epoch) a run reaches.
    pub fn run(
        self,
        mut progress: Option<&mut dyn FnMut(usize, usize)>,
    ) -> Result<ExperimentResult, ExperimentError> {
        let config = self.config;
        self.validate()?;
        let (mut writer, resume_from) = self.open_journal()?;
        let ctx = Arc::new(EvalContext::new(config));
        let nsga2 = nsga2_config_for(config);

        if let (Some(writer), Some(plan)) = (&mut writer, &self.fault_plan) {
            writer.set_io_site(IoSite::new(Some(plan), JOURNAL_APPEND_SITE));
        }
        let writer = writer.map(|w| Rc::new(RefCell::new(w)));
        // One life for the whole campaign: its kill budget spans runs.
        let life = DriverLife::new(self.kill_after_tasks);

        let obs: &dyn Recorder = self.recorder.as_deref().unwrap_or(&NOOP);
        let mut status = StatusSink::new(&self);
        // The campaign's worker threads: opened once, fed by every batch and
        // every steady-state submission of every run, shut down (cancelling
        // whatever an interrupted driver left queued or running) and joined
        // before this function returns.
        with_pool(
            self.physical_threads.unwrap_or_else(|| physical_threads(config.pool.n_workers)),
            |tc: &TaskCtx<'_>, job: &Arc<EvalJob>| evaluate_job(&ctx, obs, tc, job),
            |pool| {
                let mut runs = Vec::with_capacity(config.n_runs);
                let mut pool_reports = Vec::with_capacity(config.n_runs);
                let mut archives = Vec::with_capacity(config.n_runs);
                for run_idx in 0..config.n_runs {
                    // Steady-state journals carry no generation boundaries:
                    // resume restores from the run's last snapshot (if any)
                    // and replays only the arrival suffix after it —
                    // O(window) instead of O(campaign) — so there is no
                    // restore point (and no finished-run shortcut) to look
                    // for.
                    let (restored, steady_snap) = match (config.mode, &resume_from) {
                        (CampaignMode::Generational, Some(journal)) => {
                            (restore_point(journal, run_idx)?, None)
                        }
                        (CampaignMode::SteadyState, Some(journal)) => {
                            (None, journal.last_snapshot_for(run_idx).cloned())
                        }
                        (_, None) => (None, None),
                    };
                    // A run the journal shows as finished is reconstructed
                    // outright — no evaluator, no training, nothing
                    // re-journaled. Its observatory rows come from replaying
                    // the journaled boundaries.
                    let restored = match restored {
                        Some(point) if point.state.generation >= config.generations => {
                            let rows =
                                campaign_report::replay_rows(&point.state.history, &point.reports);
                            status.restore_run(run_idx, rows);
                            runs.push(point.state.into_result());
                            pool_reports.push(point.reports);
                            archives.push(point.archive);
                            continue;
                        }
                        other => other,
                    };
                    let seed = config.master_seed + run_idx as u64;
                    let journal = writer.as_ref().map(|writer| {
                        let since = steady_snap.as_ref().map_or(0, |snap| snap.arrivals);
                        let replay = resume_from
                            .as_ref()
                            .map_or_else(HashMap::new, |j| j.replay_for(run_idx, since));
                        JournalSink {
                            writer: Rc::clone(writer),
                            replay: Rc::new(replay),
                            epochs: resume_from.as_ref().map_or(0, |j| j.epochs_for(run_idx)),
                        }
                    });
                    let env = RunEnv {
                        config,
                        run: run_idx,
                        seed,
                        ctx: Arc::clone(&ctx),
                        faults: FaultInjector::new(config.fault_probability, seed ^ 0xfa_17),
                        life: &life,
                        journal,
                        obs,
                        base_span: SpanCtx::root(seed, run_idx as u32),
                        status: &mut status,
                        pool,
                    };
                    let (result, reports, archive) = match config.mode {
                        CampaignMode::Generational => {
                            drive_run(env, &nsga2, restored, &mut progress)?
                        }
                        CampaignMode::SteadyState => crate::steady::drive_steady_run(
                            env,
                            &nsga2,
                            steady_snap,
                            &mut progress,
                        )?,
                    };
                    runs.push(result);
                    pool_reports.push(reports);
                    archives.push(archive);
                }
                status.flush_restored()?;
                Ok(ExperimentResult {
                    config: config.clone(),
                    runs,
                    pool_reports,
                    archives,
                    status: status.status,
                })
            },
        )
    }
}

/// Mid-run state reconstructed from a journal's generation boundaries.
struct RestorePoint {
    state: Nsga2State,
    rng_state: [u64; 4],
    archive: ParetoArchive,
    reports: Vec<PoolReport>,
}

pub(crate) fn archive_from_members(members: &[Individual]) -> ParetoArchive {
    // Journaled members are mutually non-dominating, so offering them in
    // journal order reproduces the original archive exactly.
    let mut archive = ParetoArchive::new();
    archive.offer_all(members);
    archive
}

fn restore_point(
    journal: &Journal,
    run_idx: usize,
) -> Result<Option<RestorePoint>, ExperimentError> {
    let boundaries = journal.boundaries_for(run_idx)?;
    let Some(last) = boundaries.last() else { return Ok(None) };
    let history = boundaries.iter().map(|b| b.record.clone()).collect();
    Ok(Some(RestorePoint {
        state: Nsga2State::restore(history, last.std.clone(), last.evaluations),
        rng_state: last.rng_state,
        archive: archive_from_members(&last.archive),
        reports: boundaries.iter().map(|b| b.report.clone()).collect(),
    }))
}

/// Close out one generation: fold the survivors into the Pareto archive,
/// verify the (chaos-mode) driver survived the batch, journal the
/// boundary, and publish it. The order matters — a driver that died during
/// the batch must *not* write the boundary (or the status row), exactly
/// like a real crash.
fn finish_generation(
    state: &Nsga2State,
    archive: &mut ParetoArchive,
    evaluator: &mut SummitEvaluator<'_>,
    rng: &StdRng,
) -> Result<(), ExperimentError> {
    let record = state.history.last().expect("a completed generation has a record");
    let churn = archive.offer_all_counted(&record.population);
    let env = &mut evaluator.env;
    if !env.life.alive() {
        return Err(env.life.interrupted());
    }
    let (report, earlier) =
        evaluator.reports.split_last().expect("every evaluated batch pushed its report");
    if let Some(sink) = &env.journal {
        let entry = GenEntry {
            run: env.run,
            record: record.clone(),
            std: state.std.clone(),
            evaluations: state.evaluations,
            rng_state: rng.state(),
            archive: archive.members().to_vec(),
            report: report.clone(),
        };
        if sink.writer.borrow_mut().append_generation(&entry).is_err() {
            // A boundary that failed to reach disk is a crash at this
            // boundary: the driver dies, and resume re-derives the
            // generation from its journaled evaluation records. Those
            // survive a driver crash, not a power loss: appends are never
            // fsynced.
            env.life.die();
            return Err(env.life.interrupted());
        }
    }
    // This generation's batch started where the earlier batches' makespans
    // end on the campaign's simulated clock.
    let sim_offset: f64 = earlier.iter().map(|r| r.makespan_minutes).sum();
    let row = campaign_report::generation_row(record, archive, churn, report);
    env.publish_boundary(row, churn, report, sim_offset)
}

/// Drive one generational EA run to completion — fresh or restored. Plain,
/// journaled, and resumed campaigns all pass through here, which is what
/// guarantees they optimise identically.
fn drive_run(
    env: RunEnv<'_>,
    nsga2: &Nsga2Config,
    restored: Option<RestorePoint>,
    progress: &mut Option<&mut dyn FnMut(usize, usize)>,
) -> Result<(RunResult, Vec<PoolReport>, ParetoArchive), ExperimentError> {
    let (run_idx, seed, generations) = (env.run, env.seed, env.config.generations);
    // This run is live: what the finished ones before it restored reaches the
    // disk first, in one rewrite.
    env.status.flush_restored()?;
    let (state, mut rng, mut archive, generation, reports) = match restored {
        Some(point) => {
            let rows = campaign_report::replay_rows(&point.state.history, &point.reports);
            env.status.restore_run(run_idx, rows);
            let next = point.state.generation as u64 + 1;
            let rng = StdRng::from_state(point.rng_state);
            (Some(point.state), rng, point.archive, next, point.reports)
        }
        None => (None, StdRng::seed_from_u64(seed), ParetoArchive::new(), 0, Vec::new()),
    };
    let mut evaluator = SummitEvaluator { env, generation, reports };
    if let Some(cb) = progress.as_deref_mut() {
        cb(run_idx, state.as_ref().map_or(0, |s| s.generation));
    }
    // Restamp the generation's survivors with their stable journaled ids —
    // a pure function of (run seed, generation × pop_size + slot) — so the
    // ids a journal carries never depend on the process-local allocation
    // counter, and an interrupted-then-resumed journal matches an
    // uninterrupted one byte for byte.
    let restamp = |state: &mut Nsga2State| {
        let generation = state.generation;
        for (slot, ind) in state.parents.iter_mut().enumerate() {
            ind.id = stable_id(seed, (generation * nsga2.pop_size + slot) as u64);
        }
        if let Some(record) = state.history.last_mut() {
            for (slot, ind) in record.population.iter_mut().enumerate() {
                ind.id = stable_id(seed, (generation * nsga2.pop_size + slot) as u64);
            }
        }
    };
    let mut state = match state {
        Some(s) => s,
        None => {
            let mut s = Nsga2State::start(nsga2, &mut evaluator, &mut rng);
            restamp(&mut s);
            finish_generation(&s, &mut archive, &mut evaluator, &rng)?;
            s
        }
    };
    while !state.is_complete(nsga2) {
        state.step(nsga2, &mut evaluator, &mut rng);
        restamp(&mut state);
        finish_generation(&state, &mut archive, &mut evaluator, &rng)?;
    }
    if let Some(cb) = progress.as_deref_mut() {
        cb(run_idx, generations);
    }
    Ok((state.into_result(), evaluator.reports, archive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_published_numbers() {
        let c = ExperimentConfig::paper_scale();
        assert_eq!(c.n_runs, 5);
        assert_eq!(c.pop_size, 100);
        assert_eq!(c.generations, 6);
        assert_eq!(c.pool.n_workers, 100);
        assert!(!c.pool.nanny, "the paper disables nannies");
        // 5 runs × 100 × (1 random + 6 EA) generations = 3500 trainings.
        let total = c.n_runs * c.pop_size * (c.generations + 1);
        assert_eq!(total, 3500);
    }

    #[test]
    fn smoke_experiment_runs_end_to_end() {
        let config = ExperimentConfig::smoke();
        let result = Campaign::new(&config).run(None).unwrap();
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.total_evaluations(), 2 * 4 * 2);
        for run in &result.runs {
            assert_eq!(run.history.len(), 2);
            for record in &run.history {
                assert_eq!(record.population.len(), 4);
                assert!(record.population.iter().all(|i| i.fitness.is_some()));
            }
        }
        assert_eq!(result.archives.len(), 2);
        assert!(result.archives.iter().all(|a| !a.is_empty()));
    }

    #[test]
    fn experiment_is_deterministic() {
        let config = ExperimentConfig::smoke();
        let fitness_of = |r: &ExperimentResult| {
            r.runs[0]
                .final_population()
                .iter()
                .map(|i| i.fitness().values().to_vec())
                .collect::<Vec<_>>()
        };
        let a = Campaign::new(&config).run(None).unwrap();
        let b = Campaign::new(&config).run(None).unwrap();
        assert_eq!(fitness_of(&a), fitness_of(&b));
        assert_eq!(a.archives[0].objective_pairs(), b.archives[0].objective_pairs());
    }
}
