//! The layer pass: a separate, traced replay of a finished campaign's
//! journaled work through each crate's public entry points, timed from
//! outside the program.
//!
//! The end-to-end numbers come from untraced runs. Here the benchmark
//! re-drives the same work — every generation's genomes through the
//! scheduler with the mirrored evaluation closure, the recorded entries
//! through a fresh journal writer, every boundary through the archive, the
//! status row and the atomic status rewrite — with a span around each call,
//! and checks that the replay reproduces what the journal recorded.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{
    build_dataset, compact, crowding_distance, derive_seed, estimated_minutes, eval_context,
    fault_injector, front_stats_2d, generation_row, nsga2_config, obs_names, random_population,
    rank_ordinal_sort, resume_campaign, run_batch_supervised, run_campaign, run_campaign_observed,
    run_seed, run_stream_window, steady_breed_rng, step_budget, verify, write_status_atomic,
    ArchiveChurn, BatchEvaluator, CampaignMode, CampaignStatus, Dataset, EvalContext, EvalEntry,
    EvalOutcome, EvalRecord, EvalResult, ExperimentConfig, FaultInjector, FaultKind, Fitness,
    GenerationRecord, Individual, Journal, JournalWriter, MemoryRecorder, Nsga2State,
    ParetoArchive, PoolReport, Recorder, SeedableRng, StdRng, SteadyState, StreamSlots, Tape,
    TaskCtx, TaskError, TaskRecord, Tensor, Unary, REFERENCE_POINT,
};
use crate::mirror;
use crate::spans::{self_times, SpanRec, Tracer};
use crate::stats::{median, summarize};
use crate::workload::modelled_step_us;

/// Span names of the driver-side calls (evaluation-side names live in
/// [`mirror::span`]).
mod span {
    pub const DRIVER: (&str, &str) = ("core.driver", "core.driver");
    pub const DATASET: (&str, &str) = ("md.dataset.build", "md");
    pub const BATCH: (&str, &str) = ("hpc.batch", "hpc");
    pub const STREAM: (&str, &str) = ("hpc.stream", "hpc");
    pub const NSGA2_STEP: (&str, &str) = ("evo.nsga2.step", "evo");
    pub const TELL: (&str, &str) = ("evo.steady.tell", "evo");
    pub const BREED: (&str, &str) = ("evo.steady.breed", "evo");
    pub const OFFER: (&str, &str) = ("evo.archive.offer", "evo");
    pub const JOURNAL_CREATE: (&str, &str) = ("core.journal.create", "core.journal");
    pub const APPEND: (&str, &str) = ("core.journal.append", "core.journal");
    pub const APPEND_GEN: (&str, &str) = ("core.journal.append_gen", "core.journal");
    pub const SNAPSHOT: (&str, &str) = ("core.journal.snapshot", "core.journal");
    pub const STATUS_ROW: (&str, &str) = ("core.status.row", "core.status");
    pub const STATUS_REWRITE: (&str, &str) = ("core.status.rewrite", "core.status");
    // Probes run after the replay, under their own root.
    pub const PROBES: (&str, &str) = ("bench.probes", "bench");
    pub const SORT: (&str, &str) = ("evo.sort", "evo");
    pub const HYPERVOLUME: (&str, &str) = ("evo.hypervolume", "evo");
}

fn op_id(run: usize, gen: usize, slot: usize) -> u64 {
    ((run as u64) << 40) | ((gen as u64) << 20) | slot as u64
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// What a traced replay accumulates besides spans.
#[derive(Default)]
struct ReplayLog {
    /// Differences between the replay and the journal (none expected).
    mismatches: Vec<String>,
    /// Archive objective pairs at every boundary, for the hypervolume probe.
    fronts: Vec<Vec<(f64, f64)>>,
    status_bytes: u64,
}

impl ReplayLog {
    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// The replayed record of a task must equal its journal entry bit for
    /// bit: objectives, charged minutes, attempts and fault class.
    fn check_record(&mut self, entry: &EvalEntry, task: &TaskRecord<EvalRecord>) {
        let at = format!("run {} gen {} slot {}", entry.run, entry.gen, entry.slot);
        let objectives = task.value.as_ref().ok().map(|r| bits(r.fitness.values()));
        if objectives != entry.objectives.as_deref().map(bits) {
            self.mismatch(format!("{at}: objectives differ from the journal"));
        }
        if task.minutes.to_bits() != entry.minutes.to_bits() || task.attempts != entry.attempts {
            self.mismatch(format!("{at}: minutes or attempts differ from the journal"));
        }
        let fault = match &task.value {
            Ok(_) => FaultKind::None,
            Err(TaskError::Failed(_)) | Err(TaskError::Diverged { .. }) => FaultKind::Diverged,
            Err(TaskError::Timeout { .. }) => FaultKind::Timeout,
            Err(TaskError::WorkerFailed) => FaultKind::Worker,
            Err(TaskError::Cancelled) | Err(TaskError::Speculated) => FaultKind::Cancelled,
        };
        if fault != entry.fault {
            self.mismatch(format!("{at}: fault class differs from the journal"));
        }
    }
}

/// Shared pieces of one traced campaign replay.
struct Replay<'a> {
    tracer: &'a Tracer,
    config: &'a ExperimentConfig,
    journal: &'a Journal,
    writer: JournalWriter,
    status: CampaignStatus,
    status_path: &'a Path,
    log: ReplayLog,
}

impl Replay<'_> {
    fn append_eval(&mut self, entry: &EvalEntry) {
        let s = self.tracer.span(
            span::APPEND.0,
            span::APPEND.1,
            op_id(entry.run, entry.gen, entry.slot),
        );
        if let Err(e) = self.writer.append_eval(entry) {
            self.log.mismatch(format!("journal append failed: {e}"));
        }
        s.end();
    }

    /// Status row + atomic rewrite, as the driver publishes every boundary.
    fn publish(
        &mut self,
        run: usize,
        record: &GenerationRecord,
        archive: &ParetoArchive,
        churn: ArchiveChurn,
        report: &PoolReport,
    ) {
        let op = op_id(run, record.generation, 0);
        let s = self.tracer.span(span::STATUS_ROW.0, span::STATUS_ROW.1, op);
        let row = generation_row(record, archive, churn, report);
        self.status.push_row(run, row);
        s.end();
        let s = self
            .tracer
            .span(span::STATUS_REWRITE.0, span::STATUS_REWRITE.1, op);
        if let Err(e) = write_status_atomic(self.status_path, &self.status) {
            self.log.mismatch(format!("status rewrite failed: {e}"));
        }
        s.end();
        self.log.status_bytes += std::fs::metadata(self.status_path).map_or(0, |m| m.len());
        self.log.fronts.push(archive.objective_pairs());
    }
}

/// The generational replay's evaluator: every batch goes through
/// `run_batch` with the mirrored closure, completed tasks append their
/// recorded entry, and the results feed `Nsga2State` exactly as the
/// campaign's evaluator does.
struct LayerEvaluator<'r, 'a> {
    replay: &'r mut Replay<'a>,
    ctx: Arc<EvalContext>,
    faults: FaultInjector,
    run: usize,
    seed: u64,
    generation: usize,
    reports: Vec<PoolReport>,
}

impl BatchEvaluator for LayerEvaluator<'_, '_> {
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<EvalResult> {
        let (run, gen) = (self.run, self.generation);
        self.generation += 1;
        self.faults.set_batch_key(gen as u64);
        let journal = self.replay.journal;
        for (slot, genome) in genomes.iter().enumerate() {
            let journaled = journal
                .evals
                .get(&(run, gen, slot))
                .map(|e| bits(&e.genome));
            if journaled != Some(bits(genome)) {
                self.replay.log.mismatch(format!(
                    "run {run} gen {gen} slot {slot}: genome differs from the journal"
                ));
            }
        }
        let first = (gen * genomes.len()) as u64;
        let seeds: Vec<u64> = (0..genomes.len() as u64)
            .map(|i| derive_seed(self.seed, first + i))
            .collect();
        let tracer = self.replay.tracer;
        let ctx = &self.ctx;
        let mut batch = tracer.span(span::BATCH.0, span::BATCH.1, op_id(run, gen, 0));
        batch.set_count(genomes.len() as u64);
        let batch_id = batch.id();
        let replay = &mut *self.replay;
        let (records, report) = run_batch_supervised(
            genomes,
            |tc: &TaskCtx<'_>, genome: &Vec<f64>| {
                let op = op_id(run, gen, tc.task);
                mirror::evaluate(
                    mirror::Site {
                        tracer,
                        parent: Some(batch_id),
                        op,
                    },
                    ctx,
                    genome,
                    seeds[tc.task],
                    tc,
                    None,
                )
            },
            |_, genome: &Vec<f64>| estimated_minutes(ctx, genome),
            &replay.config.pool,
            &self.faults,
            |slot, task: &TaskRecord<EvalRecord>| {
                if let Some(entry) = journal.evals.get(&(run, gen, slot)) {
                    replay.log.check_record(entry, task);
                    replay.append_eval(entry);
                }
            },
        );
        batch.end();
        self.reports.push(report);
        records
            .into_iter()
            .map(|r| EvalResult {
                fitness: r
                    .value
                    .map_or_else(|_| Fitness::penalty(2), |rec| rec.fitness),
                minutes: Some(r.minutes),
            })
            .collect()
    }
}

fn replay_generational(replay: &mut Replay<'_>, train: &Arc<Dataset>, val: &Arc<Dataset>) {
    let config = replay.config;
    let nsga2 = nsga2_config(config);
    let tracer = replay.tracer;
    for run in 0..config.n_runs {
        let seed = run_seed(config, run);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut archive = ParetoArchive::new();
        let mut evaluator = LayerEvaluator {
            replay: &mut *replay,
            ctx: Arc::new(eval_context(config, train, val)),
            faults: fault_injector(config, run),
            run,
            seed,
            generation: 0,
            reports: Vec::new(),
        };
        let mut state: Option<Nsga2State> = None;
        for gen in 0..=config.generations {
            let s = tracer.span(span::NSGA2_STEP.0, span::NSGA2_STEP.1, op_id(run, gen, 0));
            match state.as_mut() {
                None => state = Some(Nsga2State::start(&nsga2, &mut evaluator, &mut rng)),
                Some(state) => state.step(&nsga2, &mut evaluator, &mut rng),
            }
            s.end();
            let replay = &mut *evaluator.replay;
            let Some(entry) = replay.journal.generations.get(&(run, gen)) else {
                replay
                    .log
                    .mismatch(format!("run {run} gen {gen}: no boundary in the journal"));
                continue;
            };
            // The replayed survivors must be the journaled ones.
            let survivors = &state.as_ref().expect("just stepped").parents;
            let same = survivors.len() == entry.record.population.len()
                && survivors
                    .iter()
                    .zip(&entry.record.population)
                    .all(|(a, b)| {
                        bits(&a.genome) == bits(&b.genome)
                            && a.fitness.as_ref().map(|f| bits(f.values()))
                                == b.fitness.as_ref().map(|f| bits(f.values()))
                    });
            if !same {
                replay.log.mismatch(format!(
                    "run {run} gen {gen}: survivors differ from the journal"
                ));
            }
            let report = evaluator.reports.last().expect("a batch ran");
            if (report.worker_deaths, report.retried_tasks)
                != (entry.report.worker_deaths, entry.report.retried_tasks)
            {
                replay.log.mismatch(format!(
                    "run {run} gen {gen}: pool report differs from the journal"
                ));
            }
            let op = op_id(run, gen, 0);
            let s = tracer.span(span::OFFER.0, span::OFFER.1, op);
            let churn = archive.offer_all_counted(&entry.record.population);
            s.end();
            let s = tracer.span(span::APPEND_GEN.0, span::APPEND_GEN.1, op);
            if let Err(e) = replay.writer.append_generation(entry) {
                replay.log.mismatch(format!("journal append failed: {e}"));
            }
            s.end();
            replay.publish(run, &entry.record, &archive, churn, &entry.report);
        }
    }
}

fn replay_steady(replay: &mut Replay<'_>, train: &Arc<Dataset>, val: &Arc<Dataset>) {
    let config = replay.config;
    let nsga2 = nsga2_config(config);
    let tracer = replay.tracer;
    let journal = replay.journal;
    let budget = config.pop_size * (config.generations + 1);
    let snap_every = (config.snapshot_every_epochs * config.pop_size).max(1);
    for run in 0..config.n_runs {
        let seed = run_seed(config, run);
        let ctx = eval_context(config, train, val);
        let faults = fault_injector(config, run);
        faults.set_batch_key(0);
        let mut slots = StreamSlots::new(config.pool.n_workers);
        let mut steady = SteadyState::new(&nsga2);
        let mut archive = ParetoArchive::new();
        let mut pending: VecDeque<(usize, Individual)> = random_population(
            config.pop_size,
            &nsga2.init_ranges,
            &mut StdRng::seed_from_u64(seed),
        )
        .into_iter()
        .enumerate()
        .collect();
        let mut submitted = config.pop_size;
        let mut epoch_failures = 0usize;
        let mut epoch_churn = ArchiveChurn::default();
        let mut snapped_through = 0usize;
        while !pending.is_empty() {
            // The windows the driver forms: every slot is free after a
            // window, so each takes the next `W` submissions in order.
            let order = slots.free_order();
            let n = pending.len().min(order.len());
            let mut window: Vec<(usize, usize, Vec<f64>)> = Vec::with_capacity(n);
            let mut inds = Vec::with_capacity(n);
            for &slot in order.iter().take(n) {
                let (submission, ind) = pending.pop_front().expect("n <= pending.len()");
                let journaled = journal
                    .evals
                    .get(&(run, 0, submission))
                    .map(|e| bits(&e.genome));
                if journaled != Some(bits(&ind.genome)) {
                    replay.log.mismatch(format!(
                        "run {run} submission {submission}: genome differs from the journal"
                    ));
                }
                window.push((submission, slot, ind.genome.clone()));
                inds.push(ind);
            }
            let mut stream =
                tracer.span(span::STREAM.0, span::STREAM.1, op_id(run, 0, window[0].0));
            stream.set_count(n as u64);
            let stream_id = stream.id();
            let reports = run_stream_window(
                &window,
                |tc: &TaskCtx<'_>, genome: &Vec<f64>| {
                    let op = op_id(run, 0, tc.task);
                    let seed = derive_seed(seed, tc.task as u64);
                    mirror::evaluate(
                        mirror::Site {
                            tracer,
                            parent: Some(stream_id),
                            op,
                        },
                        &ctx,
                        genome,
                        seed,
                        tc,
                        None,
                    )
                },
                |_, genome: &Vec<f64>| estimated_minutes(&ctx, genome),
                &config.pool,
                &faults,
            );
            stream.end();

            let mut arrivals: Vec<(f64, usize, usize)> = reports
                .iter()
                .enumerate()
                .map(|(i, report)| (slots.charge(window[i].1, report), window[i].1, i))
                .collect();
            arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, _, i) in &arrivals {
                let submission = window[i].0;
                let report = &reports[i];
                let op = op_id(run, 0, submission);
                if let Some(entry) = journal.evals.get(&(run, 0, submission)) {
                    replay.log.check_record(entry, &report.record);
                    if entry.arrival != Some(steady.arrivals()) {
                        replay.log.mismatch(format!("run {run} submission {submission}: arrival order differs from the journal"));
                    }
                    replay.append_eval(entry);
                }
                let mut evaluated = inds[i].clone();
                if report.record.value.is_err() {
                    epoch_failures += 1;
                }
                evaluated.fitness = Some(match &report.record.value {
                    Ok(rec) => rec.fitness.clone(),
                    Err(_) => Fitness::penalty(2),
                });
                evaluated.eval_minutes = Some(report.record.minutes);
                let s = tracer.span(span::OFFER.0, span::OFFER.1, op);
                let (added, evicted) = archive.offer_counted(&evaluated);
                s.end();
                epoch_churn.offered += 1;
                epoch_churn.added += usize::from(added);
                epoch_churn.evicted += evicted;
                let s = tracer.span(span::TELL.0, span::TELL.1, op);
                let consumed = steady.tell(evaluated);
                s.end();
                if submitted < budget {
                    let s = tracer.span(span::BREED.0, span::BREED.1, op);
                    let child = steady.breed(&mut steady_breed_rng(seed, consumed));
                    s.end();
                    pending.push_back((submitted, child));
                    submitted += 1;
                }
                if steady.arrivals().is_multiple_of(config.pop_size) {
                    let record = GenerationRecord {
                        generation: steady.arrivals() / config.pop_size - 1,
                        failures: epoch_failures,
                        population: steady.population().to_vec(),
                    };
                    let epoch_report = slots.epoch_report();
                    replay.publish(run, &record, &archive, epoch_churn, &epoch_report);
                    epoch_failures = 0;
                    epoch_churn = ArchiveChurn::default();
                }
            }
            // Window boundary: the snapshot the driver wrote here, if any.
            let arrived = steady.arrivals();
            let due = (arrived / snap_every) * snap_every;
            if due > snapped_through && arrived > 0 {
                match journal.snapshots.get(&(run, arrived)) {
                    Some(snapshot) => {
                        let s =
                            tracer.span(span::SNAPSHOT.0, span::SNAPSHOT.1, op_id(run, 0, arrived));
                        if let Err(e) = replay.writer.append_snapshot(snapshot) {
                            replay.log.mismatch(format!("journal append failed: {e}"));
                        }
                        s.end();
                    }
                    None => replay.log.mismatch(format!(
                        "run {run}: no snapshot at arrival {arrived} in the journal"
                    )),
                }
                snapped_through = due;
            }
        }
    }
}

/// One traced replay of a finished campaign; spans land in `tracer` under a
/// `core.driver` root. Returns the replay log and the dataset.
fn traced_replay(
    tracer: &Tracer,
    config: &ExperimentConfig,
    journal: &Journal,
    scratch: &Path,
) -> (ReplayLog, Arc<Dataset>, Arc<Dataset>) {
    let journal_path = scratch.join("replayed.journal.jsonl");
    let status_path = scratch.join("replayed.status.json");
    let root = tracer.span(span::DRIVER.0, span::DRIVER.1, 0);
    let s = tracer.span(span::DATASET.0, span::DATASET.1, 0);
    let (train, val) = build_dataset(config);
    s.end();
    let s = tracer.span(span::JOURNAL_CREATE.0, span::JOURNAL_CREATE.1, 0);
    let writer = JournalWriter::create(&journal_path, config).expect("create the replay journal");
    s.end();
    let mut replay = Replay {
        tracer,
        config,
        journal,
        writer,
        status: CampaignStatus::new(config),
        status_path: &status_path,
        log: ReplayLog::default(),
    };
    match config.mode {
        CampaignMode::Generational => replay_generational(&mut replay, &train, &val),
        CampaignMode::SteadyState => replay_steady(&mut replay, &train, &val),
    }
    root.end();
    (replay.log, train, val)
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Best-of-three nanoseconds per call of `f` over `reps` calls.
fn best_ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn deterministic_matrix(rows: usize, cols: usize, salt: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| (derive_seed(salt, i as u64) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    Tensor::matrix(rows, cols, data)
}

/// Direct `Tensor`/`Tape` kernel calls, best of three.
fn autograd_probes(reps: usize, out: &mut Metrics) {
    use std::hint::black_box;
    let a = deterministic_matrix(64, 64, 1);
    let b = deterministic_matrix(64, 64, 2);
    out.set(
        "autograd.matmul_64x64_ns",
        best_ns_per_call(reps, || {
            black_box(black_box(&a).matmul(black_box(&b)));
        }),
    );
    out.set(
        "autograd.matmul_nt_64x64_ns",
        best_ns_per_call(reps, || {
            black_box(black_box(&a).matmul_nt(black_box(&b)));
        }),
    );
    let tape = Tape::new();
    out.set(
        "autograd.tanh_64x64_ns",
        best_ns_per_call(reps, || {
            tape.reset();
            let x = tape.constant(a.clone());
            black_box(tape.item(tape.sum_all(tape.tanh(x))));
        }),
    );
    let x0 = deterministic_matrix(256, 32, 3);
    let w0 = deterministic_matrix(32, 32, 4);
    let b0 = Tensor::vector(deterministic_matrix(1, 32, 5).data());
    out.set(
        "autograd.affine_fwd_grad_256x32_ns",
        best_ns_per_call(reps / 4 + 1, || {
            tape.reset();
            let x = tape.constant(x0.clone());
            let w = tape.constant(w0.clone());
            let b = tape.constant(b0.clone());
            let h = tape.affine(x, w, b, Some(Unary::Tanh));
            let g = tape.grad(tape.sum_all(h), &[w])[0];
            black_box(tape.item(tape.sum_all(g)));
        }),
    );
    // Operation count and bytes touched of the 64×64 product, computed from
    // the shapes (a CPU run cannot measure bytes moved).
    out.set("autograd.matmul_64x64.flops", 2.0 * 64f64.powi(3));
    out.set(
        "autograd.matmul_64x64.bytes_computed",
        3.0 * 64.0 * 64.0 * 8.0,
    );
}

/// Each scheduler over no-op tasks: µs per task, best of three.
fn dispatch_probes(config: &ExperimentConfig, out: &mut Metrics) {
    let inputs: Vec<u64> = (0..100).collect();
    let noop = |_: &TaskCtx<'_>, x: &u64| EvalOutcome {
        value: Ok(*x),
        minutes: 1.0,
    };
    let faults = FaultInjector::none();
    out.set(
        "hpc.batch.dispatch_us",
        best_ns_per_call(1, || {
            std::hint::black_box(run_batch_supervised(
                &inputs,
                noop,
                |_, _| 1.0,
                &config.pool,
                &faults,
                |_, _| {},
            ));
        }) / 100.0
            / 1e3,
    );
    let w = config.pool.n_workers;
    let windows: Vec<Vec<(usize, usize, u64)>> = (0..100 / w.max(1))
        .map(|k| (0..w).map(|s| (k * w + s, s, 0u64)).collect())
        .collect();
    let tasks: usize = windows.iter().map(Vec::len).sum();
    out.set(
        "hpc.stream.dispatch_us",
        best_ns_per_call(1, || {
            for window in &windows {
                std::hint::black_box(run_stream_window(
                    window,
                    noop,
                    |_, _| 1.0,
                    &config.pool,
                    &faults,
                ));
            }
        }) / tasks as f64
            / 1e3,
    );
}

/// `rank_ordinal_sort` + `crowding_distance` over each journaled 2μ pool
/// (the parents of generation g−1 with the offspring of generation g).
fn sort_probe(tracer: &Tracer, config: &ExperimentConfig, journal: &Journal) {
    for run in 0..config.n_runs {
        for gen in 1..=config.generations {
            let Some(parents) = journal.generations.get(&(run, gen - 1)) else {
                continue;
            };
            let mut pool: Vec<Fitness> = parents
                .record
                .population
                .iter()
                .filter_map(|i| i.fitness.clone())
                .collect();
            for slot in 0..config.pop_size {
                if let Some(e) = journal.evals.get(&(run, gen, slot)) {
                    pool.push(
                        e.objectives
                            .clone()
                            .map_or_else(|| Fitness::penalty(2), Fitness::new),
                    );
                }
            }
            let refs: Vec<&Fitness> = pool.iter().collect();
            let s = tracer.span(span::SORT.0, span::SORT.1, op_id(run, gen, 0));
            let fronts = rank_ordinal_sort(&refs);
            for front in fronts.as_slice() {
                std::hint::black_box(crowding_distance(&refs, front));
            }
            s.end();
        }
    }
}

/// The program's own `side.phase.*_wall_ns` histograms, read from a
/// `MemoryRecorder::with_wall_clock()` on a re-run of the lowest- and the
/// highest-`rcut` evaluation — the only numbers not from benchmark spans.
fn phase_probe(
    tracer: &Tracer,
    config: &ExperimentConfig,
    journal: &Journal,
    train: &Arc<Dataset>,
    val: &Arc<Dataset>,
    out: &mut Metrics,
) {
    let names = [
        ("dnnp.phase.graph_share", obs_names::H_PHASE_GRAPH_WALL_NS),
        (
            "dnnp.phase.backward_share",
            obs_names::H_PHASE_BACKWARD_WALL_NS,
        ),
        (
            "dnnp.phase.optimizer_share",
            obs_names::H_PHASE_OPTIMIZER_WALL_NS,
        ),
        ("dnnp.phase.val_share", obs_names::H_PHASE_VAL_WALL_NS),
    ];
    let mut candidates: Vec<&EvalEntry> = journal
        .evals
        .values()
        .filter(|e| e.fault == FaultKind::None)
        .collect();
    candidates.sort_by(|a, b| {
        a.genome[2]
            .total_cmp(&b.genome[2])
            .then(a.seed.cmp(&b.seed))
    });
    let picks: Vec<&EvalEntry> = match (candidates.first(), candidates.last()) {
        (Some(lo), Some(hi)) => vec![lo, hi],
        _ => Vec::new(),
    };
    let recorder = MemoryRecorder::with_wall_clock();
    let ctx = eval_context(config, train, val);
    for entry in picks {
        let op = op_id(entry.run, entry.gen, entry.slot);
        let telemetry: &dyn Recorder = &recorder;
        let task = TaskCtx::detached(entry.slot);
        mirror::evaluate(
            mirror::Site {
                tracer,
                parent: None,
                op,
            },
            &ctx,
            &entry.genome,
            entry.seed,
            &task,
            Some(telemetry),
        );
    }
    let snapshot = recorder.snapshot();
    let sums: Vec<Option<f64>> = names
        .iter()
        .map(|(_, hist)| {
            snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == hist)
                .map(|(_, h)| h.sum)
        })
        .collect();
    let total: f64 = sums.iter().flatten().sum();
    for ((name, _), sum) in names.iter().zip(sums) {
        match sum {
            Some(sum) if total > 0.0 => out.set(name, sum / total),
            _ => out.missing(name),
        }
    }
}

/// `Journal::load`, `verify`, resume-to-result and `compact` on a copy.
fn journal_ops_probe(
    config: &ExperimentConfig,
    journal_path: &Path,
    scratch: &Path,
    out: &mut Metrics,
) {
    let copy = scratch.join("ops.journal.jsonl");
    let status = scratch.join("ops.status.json");
    let timed = |f: &mut dyn FnMut() -> bool| {
        let t0 = Instant::now();
        let ok = f();
        (t0.elapsed().as_secs_f64() * 1e3, ok)
    };
    let mut ok = std::fs::copy(journal_path, &copy).is_ok();
    let mut add = |name: &'static str, (ms, good): (f64, bool), out: &mut Metrics| {
        ok &= good;
        out.add(name, ms);
    };
    add(
        "core.journal.load_ms",
        timed(&mut || Journal::load(&copy).is_ok()),
        out,
    );
    add(
        "core.journal.verify_ms",
        timed(&mut || verify(&copy).is_ok_and(|r| !r.damaged())),
        out,
    );
    add(
        "core.journal.resume_ms",
        timed(&mut || resume_campaign(config, &copy, &status).is_ok()),
        out,
    );
    add(
        "core.journal.compact_ms",
        timed(&mut || compact(&copy).is_ok()),
        out,
    );
    if !ok {
        out.notes.push(format!(
            "journal operations failed on {}",
            journal_path.display()
        ));
    }
}

/// One `wide`-shape campaign with the program's recorder and profiler on
/// against one without: the cost of its own observability (off in every
/// end-to-end run).
fn obs_probe(config: &ExperimentConfig, scratch: &Path, out: &mut Metrics) {
    let dir = scratch.join("obs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work directory");
    let t0 = Instant::now();
    let plain = run_campaign(
        config,
        &dir.join("plain.jsonl"),
        &dir.join("plain.status.json"),
    );
    let plain_s = t0.elapsed().as_secs_f64();
    let recorder = Arc::new(MemoryRecorder::with_wall_clock());
    let t0 = Instant::now();
    let observed = run_campaign_observed(
        config,
        &dir.join("observed.jsonl"),
        &dir.join("observed.status.json"),
        &dir.join("profile"),
        Arc::clone(&recorder) as Arc<dyn Recorder>,
    );
    let observed_s = t0.elapsed().as_secs_f64();
    if plain.is_err() || observed.is_err() {
        out.notes
            .push("observability probe campaign failed".to_string());
    }
    out.set(
        "obs.campaign.overhead_share",
        (observed_s - plain_s) / plain_s,
    );
    out.set("obs.events.count", recorder.snapshot().events.len() as f64);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-layer metric values by name. A metric a workload does not exercise
/// stays absent and is printed as `null` under `missing`.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, f64>,
    /// Metrics whose source is gone (a renamed histogram, say).
    pub missing: Vec<&'static str>,
    /// Human-readable summaries (`median + tail, n`) by metric name.
    pub summaries: BTreeMap<&'static str, String>,
    pub notes: Vec<String>,
}

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn missing(&mut self, name: &'static str) {
        self.missing.push(name);
    }

    /// Take from `other` every metric this pass did not produce itself (a
    /// second replay in the other campaign mode fills in that mode's
    /// layers without overwriting the workload's own numbers).
    pub fn fill_from(&mut self, other: Metrics) {
        for (name, value) in other.values {
            self.values.entry(name).or_insert(value);
        }
        for (name, summary) in other.summaries {
            self.summaries.entry(name).or_insert(summary);
        }
        self.missing.extend(
            other
                .missing
                .into_iter()
                .filter(|m| !self.values.contains_key(m)),
        );
        self.missing.sort_unstable();
        self.missing.dedup();
        self.notes.extend(other.notes);
    }
}

struct SpanStats<'a> {
    spans: &'a [SpanRec],
    selfs: BTreeMap<u64, u64>,
    /// Spans under the probes root: measured after the replay, so they are
    /// kept out of everything that describes the campaign.
    probes: BTreeSet<u64>,
}

impl<'a> SpanStats<'a> {
    fn new(spans: &'a [SpanRec]) -> Self {
        // Spans are ordered by start time, so a parent precedes its children.
        let mut probes = BTreeSet::new();
        for s in spans {
            if s.name == span::PROBES.0 || s.parent.is_some_and(|p| probes.contains(&p)) {
                probes.insert(s.id);
            }
        }
        SpanStats {
            spans,
            selfs: self_times(spans),
            probes,
        }
    }

    /// The campaign replay's spans named `name` (for the two probe spans,
    /// the probes').
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s SpanRec> {
        let probe = name == span::SORT.0 || name == span::HYPERVOLUME.0;
        self.spans
            .iter()
            .filter(move |s| s.name == name && self.probes.contains(&s.id) == probe)
    }

    fn durs_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e9).collect()
    }

    fn selfs_s(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| self.selfs[&s.id] as f64 / 1e9)
            .collect()
    }
}

/// `median (pNN tail, n)` of a sample scaled into the metric's unit.
fn describe(values: &[f64], scale: f64, unit: &str) -> String {
    let s = summarize(values);
    match s.tail {
        Some((p, v)) => format!(
            "median {:.3} {unit}, p{p} {:.3} {unit}, n {}",
            s.median * scale,
            v * scale,
            s.n
        ),
        None => format!("median {:.3} {unit}, n {}", s.median * scale, s.n),
    }
}

/// Mean per-call metric from span durations, with its printed summary.
fn per_call(
    stats: &SpanStats<'_>,
    out: &mut Metrics,
    metric: &'static str,
    span: &str,
    scale: f64,
    unit: &str,
    self_time: bool,
) {
    let values = if self_time {
        stats.selfs_s(span)
    } else {
        stats.durs_s(span)
    };
    if values.is_empty() {
        return;
    }
    out.set(
        metric,
        values.iter().sum::<f64>() / values.len() as f64 * scale,
    );
    out.summaries.insert(metric, describe(&values, scale, unit));
}

/// Per-layer metrics of one traced replay, from its spans and its journal.
/// Returns the seconds some thread spent computing (the CPU closure row
/// holds them against the untraced run's CPU time).
fn span_metrics(
    spans: &[SpanRec],
    config: &ExperimentConfig,
    journal: &Journal,
    journal_bytes: u64,
    log: &ReplayLog,
    out: &mut Metrics,
) -> f64 {
    let stats = SpanStats::new(spans);
    let w = config.pool.n_workers as f64;

    per_call(
        &stats,
        out,
        "core.workflow.prepare_us",
        mirror::span::PREPARE.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "core.workflow.lcurve_us",
        mirror::span::LCURVE.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "dnnp.setup_ms",
        mirror::span::SETUP.0,
        1e3,
        "ms",
        false,
    );
    per_call(
        &stats,
        out,
        "dnnp.finish_ms",
        mirror::span::FINISH.0,
        1e3,
        "ms",
        false,
    );
    per_call(
        &stats,
        out,
        "evo.nsga2.step_us",
        span::NSGA2_STEP.0,
        1e6,
        "us",
        true,
    );
    per_call(
        &stats,
        out,
        "evo.steady.tell_us",
        span::TELL.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "evo.steady.breed_us",
        span::BREED.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "evo.archive.offer_us",
        span::OFFER.0,
        1e6,
        "us",
        false,
    );
    per_call(&stats, out, "evo.sort_us", span::SORT.0, 1e6, "us", false);
    per_call(
        &stats,
        out,
        "evo.hypervolume_us",
        span::HYPERVOLUME.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "core.journal.append_us",
        span::APPEND.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "core.journal.append_gen_us",
        span::APPEND_GEN.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "core.journal.snapshot_us",
        span::SNAPSHOT.0,
        1e6,
        "us",
        false,
    );
    per_call(
        &stats,
        out,
        "core.status.rewrite_ms",
        span::STATUS_REWRITE.0,
        1e3,
        "ms",
        false,
    );
    per_call(
        &stats,
        out,
        "md.dataset.build_ms",
        span::DATASET.0,
        1e3,
        "ms",
        false,
    );

    // Whole evaluations on their worker threads.
    let evals = stats.durs_s(mirror::span::EVAL.0);
    let eval_busy: f64 = evals.iter().sum();
    let eval_summary = summarize(&evals);
    out.set("core.eval.count", evals.len() as f64);
    out.set("core.eval.busy_s", eval_busy);
    out.set("core.eval.p50_ms", eval_summary.median * 1e3);
    out.set(
        "core.eval.tail_ms",
        eval_summary.tail.map_or(eval_summary.median, |(_, v)| v) * 1e3,
    );
    out.summaries
        .insert("core.eval.tail_ms", describe(&evals, 1e3, "ms"));
    let penalties = journal
        .evals
        .values()
        .filter(|e| e.fault != FaultKind::None)
        .count();
    out.set("core.eval.penalty_count", penalties as f64);

    // The step loop, and its cost per step by cutoff class.
    let steps: Vec<&SpanRec> = stats.named(mirror::span::STEPS.0).collect();
    out.set(
        "dnnp.steps.count",
        steps.iter().map(|s| s.count as f64).sum(),
    );
    out.set(
        "dnnp.steps.busy_s",
        steps.iter().map(|s| s.dur_ns() as f64 / 1e9).sum(),
    );
    let step_us = |keep: &dyn Fn(f64) -> bool| -> Option<f64> {
        let per_eval: Vec<f64> = steps
            .iter()
            .filter(|s| keep(s.value) && s.count > 0)
            .map(|s| s.dur_ns() as f64 / 1e3 / s.count as f64)
            .collect();
        (!per_eval.is_empty()).then(|| per_eval.iter().sum::<f64>() / per_eval.len() as f64)
    };
    if let Some(v) = step_us(&|rcut| rcut < 8.0) {
        out.set("dnnp.step_us.rcut_lo", v);
    }
    if let Some(v) = step_us(&|rcut| rcut >= 10.0) {
        out.set("dnnp.step_us.rcut_hi", v);
    }

    // Scheduler calls: wall, the share of W·wall the evaluations were busy,
    // and the rest (barrier and tail idle).
    for (call, wall, busy_share, idle) in [
        (
            span::BATCH.0,
            "hpc.batch.wall_s",
            "hpc.batch.busy_share",
            "hpc.batch.tail_idle_s",
        ),
        (
            span::STREAM.0,
            "hpc.stream.wall_s",
            "hpc.stream.busy_share",
            "hpc.stream.tail_idle_s",
        ),
    ] {
        let calls: Vec<&SpanRec> = stats.named(call).collect();
        if calls.is_empty() {
            continue;
        }
        let ids: Vec<u64> = calls.iter().map(|s| s.id).collect();
        let call_wall: f64 = calls.iter().map(|s| s.dur_ns() as f64 / 1e9).sum();
        let busy: f64 = stats
            .named(mirror::span::EVAL.0)
            .filter(|s| s.parent.is_some_and(|p| ids.contains(&p)))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum();
        out.set(wall, call_wall);
        out.set(busy_share, busy / (w * call_wall));
        out.set(idle, w * call_wall - busy);
    }

    // The simulated clock next to the real one.
    let reports: Vec<&PoolReport> = match config.mode {
        CampaignMode::Generational => journal.generations.values().map(|g| &g.report).collect(),
        CampaignMode::SteadyState => (0..config.n_runs)
            .filter_map(|run| journal.last_snapshot_for(run))
            .flat_map(|s| s.epoch_reports.iter())
            .collect(),
    };
    let sim_busy: f64 = reports.iter().flat_map(|r| r.busy_minutes.iter()).sum();
    let sim_capacity: f64 = reports
        .iter()
        .map(|r| r.wall_minutes * r.busy_minutes.len() as f64)
        .sum();
    if sim_capacity > 0.0 {
        out.set("hpc.sim.utilization_pct", sim_busy / sim_capacity * 100.0);
    }
    let charged: f64 = journal.evals.values().map(|e| e.minutes).sum();
    if charged > 0.0 {
        out.set("hpc.cost.real_s_per_sim_min", eval_busy / charged);
    }

    out.set("core.journal.records", journal.frames as f64);
    out.set(
        "core.journal.bytes_per_eval",
        journal_bytes as f64 / journal.evals.len().max(1) as f64,
    );
    let rewrites = stats.named(span::STATUS_REWRITE.0).count();
    out.set("core.status.count", rewrites as f64);
    out.set(
        "core.status.bytes",
        log.status_bytes as f64 / rewrites.max(1) as f64,
    );

    // Closure: what the named layers account for. The total is every
    // span's self time under the driver root (thread-seconds: two workers
    // evaluating at once count twice), the remainder is the root's own.
    let mut total = 0.0;
    let mut waiting = 0.0;
    for s in spans.iter().filter(|s| !stats.probes.contains(&s.id)) {
        let self_s = stats.selfs[&s.id] as f64 / 1e9;
        total += self_s;
        if s.name == span::BATCH.0 || s.name == span::STREAM.0 {
            waiting += self_s;
        }
    }
    let other: f64 = stats.selfs_s(span::DRIVER.0).iter().sum();
    out.set("core.driver.other_s", other);
    if total > 0.0 {
        out.set("bench.attributed_share", (total - other) / total);
    }
    total - waiting
}

/// Everything a layer pass needs to know about the untraced run before it.
pub struct LayerInput<'a> {
    /// The campaign to replay and its finished journal.
    pub config: &'a ExperimentConfig,
    pub journal_path: &'a Path,
    /// Untraced wall and CPU seconds of that one campaign.
    pub untraced_wall_s: f64,
    pub untraced_cpu_s: f64,
    /// The workload's timed metrics are scaled by the work model
    /// (`workload::work_factors`): report how well it still fits.
    pub work_model: bool,
    /// Scratch directory for replayed journals and copies.
    pub scratch: &'a Path,
    /// Where `<stem>.trace.json` and `<stem>.folded` go.
    pub out_dir: &'a Path,
    pub stem: &'a str,
}

/// How far the work model has drifted from the step costs this replay
/// measured: per evaluation, measured ÷ modelled µs per step; the metric is
/// the median distance of that ratio from its own median, as a share of it
/// (the model only has to rank evaluations, so a common factor is no
/// error). 0.02–0.05 at seed 2023 with the constants as fitted.
fn model_residual(
    spans: &[SpanRec],
    config: &ExperimentConfig,
    journal: &Journal,
    train: &Dataset,
) -> Option<f64> {
    let genomes: BTreeMap<u64, &[f64]> = journal
        .evals
        .values()
        .map(|e| (op_id(e.run, e.gen, e.slot), e.genome.as_slice()))
        .collect();
    let ratios: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == mirror::span::STEPS.0 && s.count > 0)
        .filter_map(|s| {
            let measured_us = s.dur_ns() as f64 / 1e3 / s.count as f64;
            Some(measured_us / modelled_step_us(genomes.get(&s.op)?, config, train))
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let centre = median(&ratios);
    let distances: Vec<f64> = ratios.iter().map(|r| (r / centre - 1.0).abs()).collect();
    Some(median(&distances))
}

/// Traced replay of one finished campaign plus the probes that read its
/// journal. Adds into `out` (a workload with journals of both modes runs
/// this once per mode, into the same metrics).
pub fn replay_layers(input: &LayerInput<'_>, out: &mut Metrics) {
    let journal = match Journal::load(input.journal_path) {
        Ok(j) => j,
        Err(e) => {
            out.notes
                .push(format!("layer pass: journal unreadable: {e}"));
            return;
        }
    };
    let journal_bytes = std::fs::metadata(input.journal_path).map_or(0, |m| m.len());
    let tracer = Tracer::new();
    let (log, train, val) = traced_replay(&tracer, input.config, &journal, input.scratch);

    let probes = tracer.span(span::PROBES.0, span::PROBES.1, 0);
    if input.config.mode == CampaignMode::Generational {
        sort_probe(&tracer, input.config, &journal);
    }
    for front in &log.fronts {
        let s = tracer.span(span::HYPERVOLUME.0, span::HYPERVOLUME.1, 0);
        std::hint::black_box(front_stats_2d(front, REFERENCE_POINT));
        s.end();
    }
    if let Some(front) = log.fronts.last() {
        out.set(
            "evo.final_hypervolume",
            front_stats_2d(front, REFERENCE_POINT).hypervolume,
        );
    }
    phase_probe(&tracer, input.config, &journal, &train, &val, out);
    probes.end();

    let spans = tracer.finish();
    let busy_s = span_metrics(&spans, input.config, &journal, journal_bytes, &log, out);
    out.set(
        "md.dataset.frames",
        (train.frames.len() + val.frames.len()) as f64,
    );
    match step_budget(&input.config.base_train_config, &train, &val) {
        Ok(budget) => out.set("dnnp.tape.nodes_per_step", budget.total_nodes() as f64),
        Err(_) => out.missing("dnnp.tape.nodes_per_step"),
    }
    journal_ops_probe(input.config, input.journal_path, input.scratch, out);
    if input.work_model {
        if let Some(residual) = model_residual(&spans, input.config, &journal, &train) {
            out.set("bench.model.residual_share", residual);
        }
    }

    let traced_wall: f64 = spans
        .iter()
        .filter(|s| s.name == span::DRIVER.0)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    if input.untraced_wall_s > 0.0 {
        out.set(
            "bench.trace.overhead_share",
            (traced_wall - input.untraced_wall_s) / input.untraced_wall_s,
        );
    }
    if input.untraced_cpu_s > 0.0 {
        out.set(
            "bench.cpu.closure_share",
            (input.untraced_cpu_s - busy_s) / input.untraced_cpu_s,
        );
    }
    out.notes.extend(
        log.mismatches
            .iter()
            .map(|m| format!("replay mismatch: {m}")),
    );
    if let Err(e) = crate::spans::write_trace(input.out_dir, input.stem, &spans) {
        out.notes.push(format!("cannot write the trace: {e}"));
    }
}

/// Probes that need no journal: kernels, scheduler dispatch, and the
/// program's own observability overhead on one `wide`-shape campaign.
pub fn standalone_probes(
    pool_config: &ExperimentConfig,
    obs_config: &ExperimentConfig,
    scratch: &Path,
    kernel_reps: usize,
    out: &mut Metrics,
) {
    autograd_probes(kernel_reps, out);
    dispatch_probes(pool_config, out);
    obs_probe(obs_config, scratch, out);
}
