//! The distributed NSGA-II deployment: `dphpo-evo`'s Listing-1 pipeline
//! driven by a `dphpo-hpc` worker pool that evaluates every offspring's
//! DNNP training in parallel, with the paper's timeout/fault semantics.
//!
//! Both campaign drivers — the generational one here and in
//! [`crate::experiment`], the steady-state one in [`crate::steady`] — work
//! through one per-run environment: it replays or trains each genome,
//! appends every finalised evaluation to the write-ahead journal (see
//! [`crate::journal`]) from the driver thread, maps failures to the MAXINT
//! penalty, and publishes each generation boundary. Previously journaled
//! evaluations are *replayed* — the worker short-circuits training and
//! returns the journaled outcome — so a resumed campaign recomputes nothing
//! and still reproduces the original scheduler traffic (fault decisions,
//! retries, reports) bit-identically.
//!
//! Both also evaluate on one pool — the campaign's worker threads, opened
//! once by [`crate::experiment::Campaign::run`] and fed evaluation jobs by
//! every batch and every steady-state submission of every run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use dphpo_dnnp::AbortReason;
use dphpo_evo::nsga2::{BatchEvaluator, EvalResult, GenerationRecord};
use dphpo_evo::{ArchiveChurn, Fitness};
use dphpo_hpc::{EvalFault, EvalOutcome, FaultInjector, Pool, PoolReport, TaskCtx, TaskRecord};
use dphpo_obs::{cats, names, Event, Recorder, SpanCtx, When};

use crate::campaign_report::GenStatus;
use crate::chaos::DriverLife;
use crate::experiment::{ExperimentConfig, ExperimentError, StatusSink};
use crate::journal::{EvalEntry, FaultKind, JournalSink};
use crate::workflow::{
    derive_seed, estimated_minutes, evaluate_individual_observed, EvalContext, EvalRecord,
};

/// §2.2.4: any task-level error — timeout, worker death, divergence —
/// becomes the MAXINT penalty fitness.
pub(crate) fn fitness_or_penalty<E>(fitness: Result<Fitness, E>) -> Fitness {
    fitness.unwrap_or_else(|_| Fitness::penalty(2))
}

/// Everything one EA run's driver works with, built once per run by
/// [`crate::experiment::Campaign::run`] and shared by the generational and
/// the steady-state driver — so both campaign modes replay, journal,
/// penalise and publish through the same code.
pub(crate) struct RunEnv<'a> {
    /// The campaign configuration.
    pub config: &'a ExperimentConfig,
    /// EA run index.
    pub run: usize,
    /// Run seed (`master_seed + run`): training seeds, stable ids and span
    /// ids all derive from it.
    pub seed: u64,
    /// Dataset, base training configuration and cost model.
    pub ctx: Arc<EvalContext>,
    /// Worker-death injection (the scheduler's decision).
    pub faults: FaultInjector,
    /// The campaign driver's life, shared by every run.
    pub life: &'a DriverLife,
    /// Write-ahead journal handle and replay map (`None`: unjournaled).
    pub journal: Option<JournalSink>,
    /// Telemetry recorder ([`dphpo_obs::NOOP`] when none is attached).
    /// Recording never perturbs the campaign: every emitted value is
    /// something the driver or trainer already computed, and timestamps
    /// live on the simulated clock the scheduler charges makespan in.
    pub obs: &'a dyn Recorder,
    /// Root span of this run (one Chrome-trace process per run).
    pub base_span: SpanCtx,
    /// The live status/profile surface.
    pub status: &'a mut StatusSink,
    /// The campaign's worker threads.
    pub pool: &'a EvalPool<'a>,
}

/// One evaluation as the campaign's pool threads see it. Owned, because a
/// steady-state submission is queued well before the driver comes back for
/// its result; the threads' only borrows are campaign-long (the dataset
/// context and the recorder, see [`evaluate_job`]).
pub(crate) struct EvalJob {
    genome: Vec<f64>,
    /// Training seed.
    seed: u64,
    /// The generation (or submission wave) the evaluation's spans go under;
    /// task and attempt are added on the thread.
    span: SpanCtx,
    /// The journaled outcome, when this evaluation is already on record.
    replayed: Option<EvalEntry>,
}

/// The campaign's worker threads: one pool under both drivers and every run.
pub(crate) type EvalPool<'a> = Pool<'a, Arc<EvalJob>, EvalRecord>;

/// What a pool thread does with an [`EvalJob`] — replay or train: a
/// journaled outcome short-circuits training (so a resumed campaign
/// recomputes nothing and emits no per-step events); otherwise the genome is
/// evaluated under scheduler supervision and a structured training abort
/// mapped onto the scheduler's fault taxonomy.
pub(crate) fn evaluate_job(
    ctx: &EvalContext,
    obs: &dyn Recorder,
    tc: &TaskCtx<'_>,
    job: &EvalJob,
) -> EvalOutcome<EvalRecord> {
    if let Some(entry) = &job.replayed {
        return entry.to_outcome();
    }
    let span = job.span.with_task(tc.task as u32, tc.attempt);
    let (record, abort) = evaluate_individual_observed(ctx, &job.genome, job.seed, tc, obs, span);
    let minutes = record.minutes;
    if !record.failed {
        return EvalOutcome { value: Ok(record), minutes };
    }
    let fault = match abort {
        Some(AbortReason::Diverged { step, loss }) => EvalFault::Diverged { step, loss },
        Some(AbortReason::Deadline { .. }) => EvalFault::Deadline,
        Some(AbortReason::Cancelled { .. }) => EvalFault::Cancelled,
        None => EvalFault::Failed("training failed".to_string()),
    };
    EvalOutcome { value: Err(fault), minutes }
}

impl RunEnv<'_> {
    /// The journaled entry for `key` — `(generation, slot)`, or
    /// `(0, submission)` in steady state — if its genome matches bit for bit.
    pub(crate) fn journaled(&self, key: (usize, usize), genome: &[f64]) -> Option<&EvalEntry> {
        let replay = &self.journal.as_ref()?.replay;
        replay.get(&key).filter(|entry| entry.genome == genome)
    }

    /// The job that evaluates `genome` at `key`: a replay when the journal
    /// already holds it, a training under `seed` otherwise.
    pub(crate) fn job(
        &self,
        key: (usize, usize),
        genome: &[f64],
        seed: u64,
        span: SpanCtx,
    ) -> Arc<EvalJob> {
        let replayed = self.journaled(key, genome).cloned();
        Arc::new(EvalJob { genome: genome.to_vec(), seed, span, replayed })
    }

    /// The journal entry for a finalised task at `key` — `None` when there
    /// is nothing to journal: the campaign is unjournaled, or the task was
    /// replayed from the journal in the first place.
    pub(crate) fn fresh_entry(
        &self,
        key: (usize, usize),
        seed: u64,
        genome: &[f64],
        task: &TaskRecord<EvalRecord>,
    ) -> Option<EvalEntry> {
        let fresh = self.journal.is_some() && self.journaled(key, genome).is_none();
        fresh.then(|| EvalEntry::from_task(self.run, key.0, key.1, seed, genome, task))
    }

    /// Append one finalised evaluation to the journal (a no-op when
    /// unjournaled) and cross-reference the telemetry stream to it: the
    /// event names the byte offset the record landed at (this runs on the
    /// driver thread, so ordering is deterministic). A record that failed to
    /// reach disk is a crash at this completion: the driver is declared dead
    /// and every later record is lost, exactly as in a real crash.
    pub(crate) fn journal_eval(&self, entry: &EvalEntry) {
        let Some(sink) = &self.journal else { return };
        match sink.writer.borrow_mut().append_eval(entry) {
            Ok(offset) => {
                if self.obs.enabled() {
                    self.obs.counter_add(names::C_JOURNAL_APPENDS, 1);
                    let mut ev = Event::instant(
                        names::JOURNAL_APPEND,
                        cats::JOURNAL,
                        self.base_span
                            .with_gen(entry.gen as u32)
                            .with_task(entry.slot as u32, entry.attempts),
                    );
                    let ok = if entry.fault == FaultKind::None { 1.0 } else { 0.0 };
                    ev.args = vec![("offset", offset as f64), ("ok", ok)];
                    self.obs.record(ev);
                }
            }
            Err(_) => self.life.die(),
        }
    }

    /// Publish one generation (or steady-state epoch) boundary, after the
    /// archive absorbed `record`'s population; `row` is its status row
    /// ([`crate::campaign_report::generation_row`]). Emits the `generation`
    /// span over `[sim_offset, sim_offset + makespan]` on the campaign's
    /// simulated clock, the `ea.front` instant at its end with the archive's
    /// hypervolume / cardinality / spread and dominance churn (plus the
    /// matching gauges and counters), then the profile row, the status row,
    /// and the atomic rewrite of both artifacts.
    pub(crate) fn publish_boundary(
        &mut self,
        record: &GenerationRecord,
        row: GenStatus,
        churn: ArchiveChurn,
        report: &PoolReport,
        sim_offset: f64,
    ) -> Result<(), ExperimentError> {
        let obs = self.obs;
        if obs.enabled() {
            obs.counter_add(names::C_GENERATIONS, 1);
            let span = self.base_span.with_gen(record.generation as u32);
            obs.record(Event {
                name: names::GENERATION,
                cat: cats::EA,
                ctx: span,
                step: None,
                when: When::Sim(sim_offset),
                dur_min: report.makespan_minutes,
                worker: None,
                args: vec![
                    ("n_tasks", self.config.pop_size as f64),
                    ("deaths", report.worker_deaths as f64),
                    ("retried", report.retried_tasks as f64),
                    ("lost_min", report.lost_minutes),
                    ("wall_min", report.wall_minutes),
                    ("backoff_min", report.backoff_minutes),
                    ("util_busy_pct", row.utilization_pct),
                ],
            });
            let mut ev = Event::instant(names::FRONT, cats::EA, span);
            ev.when = When::Sim(sim_offset + report.makespan_minutes);
            ev.args = vec![
                ("hypervolume", row.hypervolume),
                ("cardinality", row.cardinality as f64),
                ("spread", row.spread),
                ("offered", churn.offered as f64),
                ("added", churn.added as f64),
                ("evicted", churn.evicted as f64),
            ];
            obs.record(ev);
            obs.gauge_set(names::G_HYPERVOLUME, row.hypervolume);
            obs.gauge_set(names::G_ARCHIVE_SIZE, row.cardinality as f64);
            obs.gauge_set(names::G_FRONT_SPREAD, row.spread);
            obs.counter_add(names::C_ARCHIVE_ADDED, churn.added as u64);
            obs.counter_add(names::C_ARCHIVE_EVICTED, churn.evicted as u64);
        }
        self.status.push_profile_row(self.run, record, report);
        self.status.status.push_row(self.run, row);
        self.status.flush()
    }
}

/// The generational campaign's batch evaluator: fans each offspring batch
/// out across the simulated Summit allocation.
pub(crate) struct SummitEvaluator<'a> {
    /// The run environment (the driver publishes boundaries through it).
    pub env: RunEnv<'a>,
    /// Next batch's generation index (a resumed run starts past its
    /// journaled generations). Seeds are derived from
    /// `generation × batch_size + slot`, so they depend only on an
    /// individual's position in the campaign — never on scheduling order —
    /// which is what makes journal replay bit-identical.
    pub generation: u64,
    /// Scheduler reports so far, one per batch; a resumed run starts from
    /// the journaled reports of its completed generations, so it
    /// accumulates the same totals.
    pub reports: Vec<PoolReport>,
}

impl BatchEvaluator for SummitEvaluator<'_> {
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<EvalResult> {
        let gen = self.generation;
        self.generation += 1;
        let env = &self.env;
        // Fault decisions hash (seed, generation, task, attempt): keying
        // the batch makes every generation's fault pattern reproducible in
        // isolation, independent of how earlier batches were scheduled.
        env.faults.set_batch_key(gen);
        let first = gen * genomes.len() as u64;
        let seeds: Vec<u64> =
            (0..genomes.len() as u64).map(|i| derive_seed(env.seed, first + i)).collect();
        let gen_idx = gen as usize;
        // Span timestamps are absolute on the campaign's simulated clock:
        // this batch starts where the previous batches' makespans end.
        let sim_offset: f64 = self.reports.iter().map(|r| r.makespan_minutes).sum();
        let obs = env.obs;
        let base_span = env.base_span.with_gen(gen as u32);
        // Reorder buffer between the racy physical completion order and the
        // deterministic slot order: completions are buffered by slot and
        // journaled as the contiguous slot prefix becomes ready, so the set
        // of records a chaos kill leaves on disk is always a slot-order
        // prefix — which is what makes an interrupted-then-resumed journal
        // byte-identical to an uninterrupted one. `None` marks a slot with
        // nothing to journal (replayed, or the campaign is unjournaled).
        // Both cells live on the driver thread: `on_complete` runs there,
        // never concurrently.
        let buffered: RefCell<BTreeMap<usize, Option<EvalEntry>>> = RefCell::new(BTreeMap::new());
        let next_release = Cell::new(0usize);
        let jobs: Vec<Arc<EvalJob>> = genomes
            .iter()
            .enumerate()
            .map(|(i, genome)| env.job((gen_idx, i), genome, seeds[i], base_span))
            .collect();
        let (records, mut report) = env.pool.run_batch(
            &jobs,
            |_, job: &Arc<EvalJob>| estimated_minutes(&env.ctx, &job.genome),
            &env.config.pool,
            &env.faults,
            |slot, task: &TaskRecord<EvalRecord>| {
                let entry = env.fresh_entry((gen_idx, slot), seeds[slot], &genomes[slot], task);
                buffered.borrow_mut().insert(slot, entry);
                // Release (and journal) the contiguous slot prefix. Each
                // release is one completion of the driver's life; a dead
                // driver loses the record — exactly the crash the journal
                // protects against.
                while let Some(item) = buffered.borrow_mut().remove(&next_release.get()) {
                    next_release.set(next_release.get() + 1);
                    if let (true, Some(entry)) = (env.life.complete(), item) {
                        env.journal_eval(&entry);
                    }
                }
            },
            obs,
            base_span,
        );
        // Worker lanes are the batch's own list schedule; the placements are
        // not journaled, so the kept report is what a resume rebuilds.
        let placements = std::mem::take(&mut report.placements);
        if obs.enabled() {
            for (task, (rec, &(slot, start))) in records.iter().zip(&placements).enumerate() {
                let end = start + rec.minutes;
                obs.observe(names::H_EVAL_MINUTES, rec.minutes);
                obs.record(Event {
                    name: names::EVAL,
                    cat: cats::SCHED,
                    ctx: base_span.with_task(task as u32, rec.attempts),
                    step: None,
                    when: When::Sim(sim_offset + start),
                    dur_min: end - start,
                    worker: Some(slot as u32),
                    args: vec![
                        ("ok", if rec.value.is_ok() { 1.0 } else { 0.0 }),
                        ("minutes", rec.minutes),
                        ("attempts", rec.attempts as f64),
                    ],
                });
            }
        }
        self.reports.push(report);
        records
            .into_iter()
            .map(|r| EvalResult {
                fitness: fitness_or_penalty(r.value.map(|record| record.fitness)),
                minutes: Some(r.minutes),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Campaign;
    use dphpo_hpc::{CostModel, PoolConfig};
    use dphpo_obs::{MemoryRecorder, NOOP};

    /// The smoke configuration with `pool` swapped in, and its shared
    /// evaluation context.
    fn fixture(pool: PoolConfig) -> (ExperimentConfig, Arc<EvalContext>) {
        let config = ExperimentConfig { pool, ..ExperimentConfig::smoke() };
        let (train, val) = crate::experiment::build_dataset(&config);
        let ctx = Arc::new(EvalContext {
            base_config: config.base_train_config.clone(),
            train,
            val,
            cost_model: CostModel::default(),
            workdir: None,
        });
        (config, ctx)
    }

    /// Run `f` over a fresh evaluator for the fixture, on a pool of the
    /// fixture's size, starting at `generation`.
    fn with_evaluator<R>(
        fixture: &(ExperimentConfig, Arc<EvalContext>),
        faults: FaultInjector,
        seed: u64,
        generation: u64,
        f: impl FnOnce(&mut SummitEvaluator<'_>) -> R,
    ) -> R {
        let mut status = StatusSink::new(&Campaign::new(&fixture.0), None);
        let life = DriverLife::new(None);
        dphpo_hpc::with_pool(
            fixture.0.pool.n_workers,
            |tc: &TaskCtx<'_>, job: &Arc<EvalJob>| evaluate_job(&fixture.1, &NOOP, tc, job),
            |pool| {
                let env = RunEnv {
                    config: &fixture.0,
                    run: 0,
                    seed,
                    ctx: Arc::clone(&fixture.1),
                    faults,
                    life: &life,
                    journal: None,
                    obs: &NOOP,
                    base_span: SpanCtx::root(seed, 0),
                    status: &mut status,
                    pool,
                };
                f(&mut SummitEvaluator { env, generation, reports: Vec::new() })
            },
        )
    }

    fn genomes() -> Vec<Vec<f64>> {
        vec![
            vec![0.005, 1e-4, 7.0, 2.5, 2.5, 4.5, 4.5],
            vec![0.002, 5e-5, 9.0, 3.0, 1.5, 2.5, 4.5],
            vec![0.008, 1e-4, 6.5, 2.2, 0.5, 3.5, 2.5],
        ]
    }

    fn values(results: &[EvalResult]) -> Vec<Vec<f64>> {
        results.iter().map(|r| r.fitness.values().to_vec()).collect()
    }

    #[test]
    fn batch_evaluation_returns_one_result_per_genome() {
        let fixture = fixture(PoolConfig { n_workers: 3, ..PoolConfig::default() });
        with_evaluator(&fixture, FaultInjector::none(), 9, 0, |evaluator| {
            let results = evaluator.evaluate(&genomes());
            assert_eq!(results.len(), 3);
            for r in &results {
                assert_eq!(r.fitness.len(), 2);
                assert!(!r.fitness.is_penalty(), "healthy genome failed");
                assert!(r.minutes.unwrap() > 0.0);
            }
            assert_eq!(evaluator.reports.len(), 1);
            assert!(evaluator.reports[0].makespan_minutes > 0.0);
        });
    }

    #[test]
    fn worker_faults_become_penalties_or_retries() {
        let fixture = fixture(PoolConfig { n_workers: 2, nanny: true, max_attempts: 1 });
        let genomes: Vec<Vec<f64>> = (0..12).map(|_| genomes()[0].clone()).collect();
        let results = with_evaluator(&fixture, FaultInjector::new(0.5, 3), 10, 0, |evaluator| {
            evaluator.evaluate(&genomes)
        });
        assert_eq!(results.len(), 12);
        // With 50 % per-task deaths and no retries, a mixed outcome over 12
        // tasks is overwhelmingly likely (each tail has probability 2⁻¹²).
        let penalties = results.iter().filter(|r| r.fitness.is_penalty()).count();
        assert!(penalties > 0, "expected at least one fault-penalty");
        assert!(penalties < 12, "expected at least one survivor");
    }

    #[test]
    fn telemetry_spans_cover_every_evaluation_without_changing_results() {
        let config = ExperimentConfig::smoke();
        let want = Campaign::new(&config).run(None).unwrap();
        let rec = Arc::new(MemoryRecorder::new());
        let got = Campaign::new(&config)
            .recorder(Arc::clone(&rec) as Arc<dyn Recorder>)
            .run(None)
            .unwrap();

        // Telemetry must not change the optimisation.
        let fitness = |r: &crate::experiment::ExperimentResult| -> Vec<Vec<f64>> {
            r.runs
                .iter()
                .flat_map(|run| run.final_population())
                .map(|i| i.fitness().values().to_vec())
                .collect()
        };
        assert_eq!(fitness(&want), fitness(&got));

        let snap = rec.snapshot();
        let boundaries = config.n_runs * (config.generations + 1);
        assert_eq!(snap.counter(names::C_GENERATIONS), boundaries as u64);
        // One eval span per genome per generation, all on worker lanes and
        // labelled with their run index.
        let evals: Vec<_> = snap.events.iter().filter(|e| e.name == names::EVAL).collect();
        assert_eq!(evals.len(), boundaries * config.pop_size);
        assert!(evals.iter().all(|e| e.worker.is_some() && (e.ctx.run as usize) < config.n_runs));

        // Each run's generation spans sit end-to-end on the simulated
        // clock: the second starts exactly where the first's makespan ended.
        for (run, reports) in got.pool_reports.iter().enumerate() {
            let gens: Vec<_> = snap
                .events
                .iter()
                .filter(|e| e.name == names::GENERATION && e.ctx.run as usize == run)
                .collect();
            assert_eq!(gens.len(), 2);
            let (When::Sim(t0), When::Sim(t1)) = (gens[0].when, gens[1].when) else {
                panic!("generation spans must carry absolute sim times");
            };
            assert_eq!(t0, 0.0);
            assert!((t1 - reports[0].makespan_minutes).abs() < 1e-12);
            assert!((gens[0].dur_min - reports[0].makespan_minutes).abs() < 1e-12);
        }

        // Trainer events flowed through the same recorder and are nested
        // task-relative; per-step instrumentation covered every training.
        let steps = config.base_train_config.num_steps as u64;
        assert!(snap.counter(names::C_STEPS) >= (boundaries * config.pop_size) as u64 * steps);
        assert!(snap
            .events
            .iter()
            .any(|e| e.name == names::TRAIN_STEP && matches!(e.when, When::InTask(_))));
    }

    #[test]
    fn seeds_depend_on_generation_not_call_history() {
        // Two evaluators that reach generation 1 differently (one evaluated
        // generation 0, the other resumed) must evaluate identically.
        let fixture = fixture(PoolConfig { n_workers: 2, ..PoolConfig::default() });
        let genomes = &genomes()[..2];
        let from_a = with_evaluator(&fixture, FaultInjector::none(), 9, 0, |a| {
            let _ = a.evaluate(genomes); // generation 0
            a.evaluate(genomes) // generation 1
        });
        let from_b =
            with_evaluator(&fixture, FaultInjector::none(), 9, 1, |b| b.evaluate(genomes));
        assert_eq!(values(&from_a), values(&from_b));
    }
}
