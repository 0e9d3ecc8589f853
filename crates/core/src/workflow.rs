//! The fitness-evaluation workflow of §2.2.4, step by step:
//!
//! 1. decode the seven-gene genome (including float → string mapping);
//! 2. create a UUID-named working directory for the training run;
//! 3. build `input.json` by `string.Template` substitution into the JSON
//!    template and write it to the run directory;
//! 4. run training, read the last `rmse_e_val`/`rmse_f_val` values from
//!    `lcurve.out`, and return them as the two-element fitness — or MAXINT
//!    on *any* failure (timeout, divergence, bad configuration, worker
//!    fault).
//!
//! The run directory is optional (`workdir: None` keeps everything in
//! memory); when present, the artifacts a DeePMD user would expect —
//! `input.json`, `lcurve.out` — really are written there.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dphpo_dnnp::{
    train_supervised, AbortReason, Json, Lcurve, LcurveRow, Supervision, TrainConfig,
};
use dphpo_obs::{Recorder, SpanCtx, NOOP};
use dphpo_evo::{Fitness, Id};
use dphpo_hpc::{paper_job, CostModel, TaskCtx};
use dphpo_md::Dataset;

use crate::decode::decode;
use crate::experiment::{build_dataset, ExperimentConfig};
use crate::template::{substitute, template_vars, INPUT_TEMPLATE};

/// Shared, read-only context for all evaluations of an experiment.
pub struct EvalContext {
    /// Fixed training settings (network sizes, prefactors, steps, workers).
    pub base_config: TrainConfig,
    /// Training split.
    pub train: Arc<Dataset>,
    /// Validation split.
    pub val: Arc<Dataset>,
    /// Simulated-runtime model.
    pub cost_model: CostModel,
    /// When set, each evaluation materialises a UUID-named run directory
    /// with `input.json` and `lcurve.out` under this root.
    pub workdir: Option<PathBuf>,
}

impl EvalContext {
    /// The context a campaign of `config` evaluates in: its dataset, its
    /// base training settings, the default cost model, no run directories.
    pub fn new(config: &ExperimentConfig) -> Self {
        let (train, val) = build_dataset(config);
        Self {
            base_config: config.base_train_config.clone(),
            train,
            val,
            cost_model: CostModel::default(),
            workdir: None,
        }
    }
}

/// Everything learned from evaluating one individual.
#[derive(Clone, Debug)]
pub struct EvalRecord {
    /// Two-objective fitness `[rmse_e_val (eV/atom), rmse_f_val (eV/Å)]`;
    /// MAXINT penalty on failure.
    pub fitness: Fitness,
    /// Simulated training runtime in minutes (at paper scale: the cost of
    /// the equivalent 40k-step, 160-atom job, so runtimes are directly
    /// comparable with the paper's Fig. 3 axis).
    pub minutes: f64,
    /// True if training diverged or configuration was invalid.
    pub failed: bool,
    /// The last rows of the training curve (up to [`LCURVE_TAIL_ROWS`]),
    /// preserved in the experiment journal as convergence evidence so a
    /// resumed campaign can report it without retraining. Empty when the
    /// run failed before producing a curve.
    pub lcurve_tail: Vec<LcurveRow>,
}

/// Number of trailing `lcurve.out` rows carried in each [`EvalRecord`].
pub const LCURVE_TAIL_ROWS: usize = 3;

/// Evaluate one genome exactly as a campaign's worker does, outside any
/// scheduler: the record a journal holds for `(genome, seed)` is what this
/// returns. `seed` individualises weight init and runtime noise.
pub fn evaluate_individual(ctx: &EvalContext, genome: &[f64], seed: u64) -> EvalRecord {
    let task = TaskCtx::detached(0);
    evaluate_individual_observed(ctx, genome, seed, &task, &NOOP, SpanCtx::default()).0
}

/// Deterministic simulated-minutes estimate for a genome's training (the
/// cost-model *mean* for its cutoff radius — no rng draw), of which the
/// scheduler charges a dead attempt a fraction.
pub fn estimated_minutes(ctx: &EvalContext, genome: &[f64]) -> f64 {
    ctx.cost_model.gpu_minutes_mean(&paper_job(decode(genome).rcut))
}

/// The campaign's evaluation of one genome, under its task's supervision:
/// the training polls [`TaskCtx::is_cancelled`] (its pool shutting down) and
/// the task's simulated deadline at step boundaries, and runs the
/// divergence sentinel every step — so a sick run aborts within one check
/// interval instead of burning its full budget.
/// `obs` is the telemetry recorder and `span` the identity
/// `(seed, run, gen, task, attempt)` the trainer emits events under.
///
/// Returns the record plus the structured [`AbortReason`] when the run was
/// terminated early. Neither the supervision probes nor recording consume
/// randomness, so a run that completes trains the same weights whatever the
/// task context or recorder (and the no-op recorder branches once per step).
pub fn evaluate_individual_observed(
    ctx: &EvalContext,
    genome: &[f64],
    seed: u64,
    task: &TaskCtx<'_>,
    obs: &dyn Recorder,
    span: SpanCtx,
) -> (EvalRecord, Option<AbortReason>) {
    let mean_minutes = estimated_minutes(ctx, genome);
    let num_steps = ctx.base_config.num_steps.max(1);
    let cancelled = || task.is_cancelled();
    let sup = Supervision {
        cancelled: Some(&cancelled),
        deadline_minutes: task.deadline_minutes,
        minutes_per_step: mean_minutes / num_steps as f64,
        recorder: Some(obs),
        span,
        ..Supervision::none()
    };
    let decoded = decode(genome);
    let mut rng = StdRng::seed_from_u64(seed);

    // Steps 2–3: run directory + input.json via template substitution. The
    // substituted document is *parsed back* — the trainer consumes exactly
    // what the artifact says, as DeePMD would.
    let vars = template_vars(
        &decoded,
        &ctx.base_config.embedding_neurons,
        &ctx.base_config.fitting_neurons,
        ctx.base_config.num_steps,
        ctx.base_config.batch_per_worker,
        ctx.base_config.n_workers,
        ctx.base_config.disp_freq,
        ctx.base_config.val_max_frames,
        seed,
    );
    let id = Id::fresh();
    let run_dir = ctx.workdir.as_ref().map(|root| root.join(id.to_string()));

    let failure = |minutes: f64| EvalRecord {
        fitness: Fitness::penalty(2),
        minutes,
        failed: true,
        lcurve_tail: Vec::new(),
    };

    let input_text = match substitute(INPUT_TEMPLATE, &vars) {
        Ok(t) => t,
        Err(_) => return (failure(0.1), None),
    };
    if let Some(dir) = &run_dir {
        // Artifact writing is best-effort: losing the artifact must not
        // change the optimisation.
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join("input.json"), &input_text);
    }
    let config = match Json::parse(&input_text).map_err(|e| e.to_string()).and_then(|doc| {
        let c = TrainConfig::from_input_json(&doc)?;
        c.validate()?;
        Ok(c)
    }) {
        Ok(c) => c,
        Err(_) => return (failure(0.1), None),
    };

    // Step 4: train.
    let report = match train_supervised(&config, &ctx.train, &ctx.val, &mut rng, &sup) {
        Ok(r) => r,
        Err(_) => return (failure(0.1), None),
    };

    // Simulated runtime at paper scale, pro-rated for early divergence
    // ("very short runtimes ... corresponding to failed training tasks").
    let full_minutes = ctx.cost_model.gpu_minutes(&paper_job(config.rcut), &mut rng);
    let progress = report.steps_completed as f64 / config.num_steps.max(1) as f64;
    let minutes = (full_minutes * progress).max(0.1);

    let lcurve_text = report.lcurve.to_text();
    if let Some(dir) = &run_dir {
        let _ = std::fs::write(dir.join("lcurve.out"), &lcurve_text);
    }
    match report.abort {
        // The deadline killed the job at the wall: charge the full limit,
        // as the real allocation would have.
        Some(abort @ AbortReason::Deadline { .. }) => {
            let charged = sup.deadline_minutes.unwrap_or(minutes);
            return (failure(charged), Some(abort));
        }
        // An attempt is cancelled only by its pool shutting down, and the
        // driver that would have read this record has left; the pro-rated
        // minutes only label the waste.
        Some(abort @ AbortReason::Cancelled { .. }) => {
            return (failure(minutes), Some(abort));
        }
        Some(abort @ AbortReason::Diverged { .. }) => {
            return (failure(minutes), Some(abort));
        }
        None => {}
    }
    if report.diverged {
        return (failure(minutes), None);
    }

    // Read the losses back through the artifact, as the paper's workflow
    // reads lcurve.out from disk.
    let parsed = match Lcurve::parse(&lcurve_text) {
        Ok(l) => l,
        Err(_) => return (failure(minutes), None),
    };
    let record = match parsed.final_losses() {
        Some((rmse_e, rmse_f)) if rmse_e.is_finite() && rmse_f.is_finite() => EvalRecord {
            fitness: Fitness::new(vec![rmse_e, rmse_f]),
            minutes,
            failed: false,
            lcurve_tail: parsed.tail(LCURVE_TAIL_ROWS).to_vec(),
        },
        _ => failure(minutes),
    };
    (record, None)
}

/// Salt separating the stable-id derivation domain from training seeds.
const ID_SALT: u64 = 0x1d5a_17ab_1e1d_0d0d;

/// Deterministic individual identity for journaled campaigns: a pure
/// function of the run seed and the individual's ordinal position in the
/// campaign (`generation × pop_size + slot` generationally, the submission
/// index in steady state). The top bit is always set, so stable ids can
/// never collide with the low process-local [`Id::fresh`] counter range —
/// which is what lets interrupted-and-resumed journals match uninterrupted
/// ones byte for byte, ids included.
pub(crate) fn stable_id(run_seed: u64, ordinal: u64) -> Id {
    Id::from_raw(derive_seed(run_seed ^ ID_SALT, ordinal) | (1 << 63))
}

/// Deterministic per-individual seed derivation (splitmix64 over a counter).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_md::generate::{generate_dataset, GenConfig, LABEL_NOISE};

    fn tiny_ctx(workdir: Option<PathBuf>) -> EvalContext {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = GenConfig::tiny();
        gen.n_atoms = 10;
        gen.box_len = 9.0;
        gen.n_frames = 8;
        let mut ds = generate_dataset(&gen, &mut rng);
        ds.add_label_noise(LABEL_NOISE.0, LABEL_NOISE.1, &mut rng);
        let (train_ds, val_ds) = ds.split(0.25, &mut rng);
        EvalContext {
            base_config: TrainConfig {
                embedding_neurons: vec![4, 4],
                fitting_neurons: vec![6],
                num_steps: 20,
                batch_per_worker: 1,
                n_workers: 1,
                disp_freq: 10,
                val_max_frames: 2,
                ..TrainConfig::default()
            },
            train: Arc::new(train_ds),
            val: Arc::new(val_ds),
            cost_model: CostModel::default(),
            workdir,
        }
    }

    fn good_genome() -> Vec<f64> {
        vec![0.005, 1e-4, 7.0, 2.5, 2.5, 4.5, 4.5] // none/tanh/tanh
    }

    #[test]
    fn successful_evaluation_returns_finite_two_objective_fitness() {
        let ctx = tiny_ctx(None);
        let record = evaluate_individual(&ctx, &good_genome(), 3);
        assert!(!record.failed);
        assert_eq!(record.fitness.len(), 2);
        assert!(!record.fitness.is_penalty());
        assert!(record.fitness.get(0) > 0.0, "energy loss");
        assert!(record.fitness.get(1) > 0.0, "force loss");
        assert!(record.minutes > 1.0 && record.minutes < 120.0);
    }

    #[test]
    fn absurd_learning_rate_gets_maxint_penalty() {
        let ctx = tiny_ctx(None);
        // start_lr at the top of range is fine, but we can force failure by
        // bypassing bounds (the workflow must be robust to any numbers).
        let mut genome = good_genome();
        genome[0] = 1e100;
        genome[1] = 1e99;
        let record = evaluate_individual(&ctx, &genome, 4);
        assert!(record.failed);
        assert!(record.fitness.is_penalty());
        // Failed training shows the paper's "very short runtime" signature.
        assert!(record.minutes < 20.0, "failed run should be short: {}", record.minutes);
    }

    #[test]
    fn zero_learning_rate_is_invalid_configuration() {
        let ctx = tiny_ctx(None);
        let mut genome = good_genome();
        genome[0] = 0.0;
        let record = evaluate_individual(&ctx, &genome, 5);
        assert!(record.failed && record.fitness.is_penalty());
    }

    #[test]
    fn artifacts_are_written_when_workdir_set() {
        let root = std::env::temp_dir().join(format!("dphpo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctx = tiny_ctx(Some(root.clone()));
        let record = evaluate_individual(&ctx, &good_genome(), 6);
        assert!(!record.failed);
        let run_dirs: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
        assert_eq!(run_dirs.len(), 1);
        let dir = run_dirs[0].as_ref().unwrap().path();
        // UUID-shaped directory name.
        assert_eq!(dir.file_name().unwrap().to_str().unwrap().split('-').count(), 5);
        let input = std::fs::read_to_string(dir.join("input.json")).unwrap();
        assert!(Json::parse(&input).is_ok());
        let lcurve = std::fs::read_to_string(dir.join("lcurve.out")).unwrap();
        let parsed = Lcurve::parse(&lcurve).unwrap();
        assert_eq!(
            parsed.final_losses().unwrap(),
            (record.fitness.get(0), record.fitness.get(1))
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn evaluation_is_deterministic_in_seed() {
        let ctx = tiny_ctx(None);
        let a = evaluate_individual(&ctx, &good_genome(), 42);
        let b = evaluate_individual(&ctx, &good_genome(), 42);
        assert_eq!(a.fitness, b.fitness);
        assert_eq!(a.minutes, b.minutes);
        let c = evaluate_individual(&ctx, &good_genome(), 43);
        assert_ne!(a.fitness, c.fitness);
    }

    #[test]
    fn supervised_divergence_aborts_within_one_sentinel_interval() {
        let ctx = tiny_ctx(None);
        let mut genome = good_genome();
        genome[0] = 1e100;
        genome[1] = 1e99;
        let (record, abort) = evaluate_individual_observed(
            &ctx,
            &genome,
            4,
            &TaskCtx::detached(0),
            &NOOP,
            SpanCtx::default(),
        );
        assert!(record.failed && record.fitness.is_penalty());
        let Some(AbortReason::Diverged { step, .. }) = abort else {
            panic!("expected a structured divergence abort, got {abort:?}");
        };
        assert!(step <= 2, "sentinel took {step} steps to fire");
        // Pro-rated runtime shows the early abort: a couple of steps of a
        // 20-step run, nowhere near the full training cost.
        assert!(record.minutes < 10.0, "aborted run charged {} min", record.minutes);
    }

    #[test]
    fn estimated_minutes_is_deterministic_and_grows_with_cutoff() {
        let ctx = tiny_ctx(None);
        let mut near = good_genome();
        near[2] = 6.0;
        let mut far = good_genome();
        far[2] = 11.0;
        assert_eq!(estimated_minutes(&ctx, &near), estimated_minutes(&ctx, &near));
        assert!(
            estimated_minutes(&ctx, &far) > estimated_minutes(&ctx, &near),
            "larger cutoff means denser neighborhoods and longer training"
        );
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
