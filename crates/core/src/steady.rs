//! The asynchronous steady-state campaign driver: NSGA-II without the
//! generation barrier (DESIGN.md §12).
//!
//! A generational campaign evaluates a whole offspring batch, then waits
//! for the slowest task before selection runs — every faster worker idles
//! through that tail. The steady-state driver keeps the pool saturated
//! instead: each completed evaluation is folded into the population the
//! moment it *arrives* and a replacement child is bred and submitted
//! immediately, so the only idle a worker ever accrues is the final drain
//! when the evaluation budget runs out. That is true of the simulated
//! schedule and of the real threads alike — see "Physical execution" below.
//!
//! # The journaled arrival order
//!
//! Determinism cannot come from physical completion order — that is a
//! thread race. It comes from the **arrival order**, a pure function of the
//! campaign configuration: the driver works in windows (below), and within
//! a window completions are processed in ascending order of their
//! *simulated* completion time (slot cursor + charged minutes, ties broken
//! by slot index). Across windows the order is the window order, not
//! completion order: a task of the next window can complete before the
//! previous window's last arrival. Each evaluation's journal record
//! carries its `arrival` index, and every RNG draw after initialisation is
//! keyed off `(run seed ^ SALT, arrival)` — never off wall-clock order — so
//! `--resume` replays the journaled order byte-identically regardless of
//! how live threads interleave.
//!
//! # Physical execution: look-ahead over `pending`, results taken in window order
//!
//! On the simulated clock the driver works in *windows*: it assigns the
//! front of the FIFO submission queue to the free slots (in ascending-cursor
//! order), charges those tasks, then processes the arrivals in
//! simulated-completion order. This is not a barrier in the simulated
//! schedule: each slot's next task starts at that slot's own cursor, and a
//! child bred at arrival *k* lands on the *k*-th freed slot. It is still
//! not the event-driven steady-state schedule, at any width. When the pool
//! is as wide as the population (`n_workers == pop_size`, as in `reduced()`)
//! start times are causal: every child starts once the arrival that bred it
//! has completed (`tests/steady_schedule.rs`). At other widths a window can
//! start a child on a slot whose cursor lies before the completion that
//! bred it. And at every width the order in which arrivals are told to the
//! population is not their completion order. Over `smoke()` (3 runs, 4
//! epochs, no faults), per run, arrivals that complete before the arrival
//! told just before them: 3–4 of 20 at pop 4 / W 4, 4 of 60 at pop 12 /
//! W 12, 9–11 at pop 12 / W 5, 8–18 at pop 12 / W 2, 3 of 20 at pop 4 /
//! W 12. Children that start before they are bred: 13–16 of 16 at pop 4 /
//! W 12, 1–4 of 48 at pop 12 / W 5, none at pop 12 / W 2 or at
//! `pop_size == n_workers`. At pop 4 / W 12 the epoch-closing completion
//! times also go backwards 1–2 times per run.
//!
//! It is not a barrier for the real threads either. Every individual is
//! handed to the campaign's worker pool ([`dphpo_hpc::Stream::submit`]) the
//! moment it enters `pending` — the initial population up front, each child
//! as it is bred — so the pool's FIFO always holds the `pop_size − W`
//! submissions that are bred but not yet assigned a slot, and a thread that
//! finishes one evaluation starts the next at once. The window loop only
//! *takes* results ([`dphpo_hpc::Stream::take`]), in window order, blocking
//! on the one it needs next. Look-ahead cannot change anything that is
//! journaled: an evaluation's outcome is a pure function of `(genome, seed,
//! attempt)` and its retry chain of the fault plan, neither knows its slot,
//! and slots, charging, arrival order and snapshots are decided exactly as
//! before, from results in window order. A chaos kill abandons the
//! evaluations still queued or running; the pool cancels them as the
//! campaign unwinds, and resume — which restores `pending` from the last
//! snapshot and resubmits it — retrains only what the journal lacks.
//!
//! # Epochs
//!
//! Every `pop_size` arrivals close an **epoch** — the steady-state analogue
//! of a generation. Epoch boundaries anneal mutation σ (matching the
//! generational schedule at equal evaluation budget), snapshot the
//! population into a [`GenerationRecord`], slice the continuous slot
//! accounting into a per-epoch [`PoolReport`], and publish an observatory
//! row — so the status surface and the reports rendered from it are keyed
//! by arrival window and comparable, column for column, with a generational
//! campaign.
//! The three are journaled together, once, as the epoch's boundary record
//! ([`EpochEntry`]) the moment the closing arrival has been processed —
//! mid-window, like the evaluation records around it and for the same
//! reason it is safe for them: the record is a pure function of the
//! journaled arrivals before it, a chaos kill at arrival *k* decides exactly
//! whether it reached disk, and a resumed driver that re-closes the epoch
//! while replaying the suffix appends it if and only if it is missing. The
//! window-boundary snapshots therefore carry live state only.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dphpo_evo::nsga2::{GenerationRecord, Nsga2Config, RunResult};
use dphpo_evo::ops::random_population;
use dphpo_evo::steady::SteadyState;
use dphpo_evo::{ArchiveChurn, Individual, ParetoArchive};
use dphpo_hpc::{PoolReport, Stream, StreamSlots, StreamTaskReport};
use dphpo_obs::{cats, names, Event, When};

use crate::campaign_report::generation_row;
use crate::ea::{fitness_or_penalty, EvalJob, RunEnv};
use crate::experiment::{archive_from_members, ExperimentError};
use crate::journal::{EpochEntry, SnapshotEntry};
use crate::workflow::{derive_seed, estimated_minutes, stable_id, EvalRecord};

/// Salt separating the steady-state breeding RNG domain from the training
/// seeds (which use the unsalted run seed, like generational campaigns).
const STEADY_SALT: u64 = 0x57ea_d75a_17e5_eed5;

/// Hand one submission to the pool. Training spans are labelled with the
/// submission "wave" (`submission / pop_size`) — a deterministic
/// pseudo-epoch; the real epoch an arrival lands in is only known at arrival
/// time.
fn submit(
    stream: &mut Stream<'_, Arc<EvalJob>, EvalRecord>,
    env: &RunEnv<'_>,
    submission: usize,
    genome: &[f64],
) {
    let span = env.base_span.with_gen((submission / env.config.pop_size) as u32);
    let seed = derive_seed(env.seed, submission as u64);
    let job = env.job((0, submission), genome, seed, span);
    stream.submit(&env.faults, submission, job, estimated_minutes(&env.ctx, genome));
}

/// Drive one steady-state run to completion. The counterpart of the
/// generational `drive_run`, over the same [`RunEnv`] — same dataset, pool
/// shape, fault injector, journal/replay and status surfaces; only the
/// scheduling differs. Returns the run result, one [`PoolReport`] per
/// epoch, and the Pareto archive.
pub(crate) fn drive_steady_run(
    mut env: RunEnv<'_>,
    nsga2: &Nsga2Config,
    restored: Option<SnapshotEntry>,
    progress: &mut Option<&mut dyn FnMut(usize, usize)>,
) -> Result<(RunResult, Vec<PoolReport>, ParetoArchive), ExperimentError> {
    let (config, run_idx, seed) = (env.config, env.run, env.seed);
    let budget = config.pop_size * (config.generations + 1);
    // One fault-decision domain for the whole run: deaths hash
    // (seed, 0, submission, attempt), a pure function of the submission
    // index — reproducible on resume regardless of where the driver died.
    env.faults.set_batch_key(0);
    let (obs, base_span) = (env.obs, env.base_span);
    let obs_on = obs.enabled();

    // Snapshot cadence, in arrivals. `snapshot_every_epochs == 0` clamps to
    // one — a snapshot at every window boundary.
    let snap_every = (config.snapshot_every_epochs * config.pop_size).max(1);

    // Restore from a journal snapshot when one is available; otherwise the
    // initial population draws from the same RNG stream generational
    // campaigns use (`StdRng::seed_from_u64(run seed)`), so generation 0's
    // genomes — and therefore its training outcomes — coincide exactly.
    // Either way, every individual carries its stable journaled id: the
    // initial population by submission index, each bred child by its own
    // submission index at breed time.
    let (
        mut pending,
        mut submitted,
        mut slots,
        mut steady,
        mut archive,
        mut history,
        mut epoch_reports,
        mut epoch_failures,
        mut epoch_churn,
        mut epoch_sim_offset,
        mut snapped_through,
    ): (VecDeque<(usize, Individual)>, _, _, _, _, Vec<GenerationRecord>, Vec<PoolReport>, _, _, _, _) =
        match restored {
            Some(snap) => {
                env.status.restore_run(run_idx, snap.status_rows.clone());
                (
                    snap.pending.into_iter().collect(),
                    snap.submitted,
                    StreamSlots::from_state(snap.slots),
                    SteadyState::restore(nsga2, snap.std, snap.population, snap.arrivals),
                    archive_from_members(&snap.archive),
                    snap.history,
                    snap.epoch_reports,
                    snap.epoch_failures,
                    ArchiveChurn {
                        offered: snap.epoch_churn.0,
                        added: snap.epoch_churn.1,
                        evicted: snap.epoch_churn.2,
                    },
                    snap.epoch_sim_offset,
                    (snap.arrivals / snap_every) * snap_every,
                )
            }
            None => {
                let mut init_rng = StdRng::seed_from_u64(seed);
                let initial =
                    random_population(config.pop_size, &nsga2.init_ranges, &mut init_rng);
                let pending: VecDeque<(usize, Individual)> = initial
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut ind)| {
                        ind.id = stable_id(seed, i as u64);
                        (i, ind)
                    })
                    .collect();
                (
                    pending,
                    config.pop_size,
                    StreamSlots::new(config.pool.n_workers),
                    SteadyState::new(nsga2),
                    ParetoArchive::new(),
                    Vec::with_capacity(config.generations + 1),
                    Vec::with_capacity(config.generations + 1),
                    0usize,
                    ArchiveChurn::default(),
                    0.0f64,
                    0usize,
                )
            }
        };

    // A run with evaluations still to take is live: what resume restored
    // reaches the disk before it trains anything.
    if !pending.is_empty() {
        env.status.flush_restored()?;
    }
    if let Some(cb) = progress.as_deref_mut() {
        cb(run_idx, steady.epoch());
    }

    // Look-ahead: everything already bred goes to the pool now, each child
    // the moment it is bred; the loop below only takes results.
    let mut stream = env.pool.stream(&config.pool);
    for (submission, ind) in &pending {
        submit(&mut stream, &env, *submission, &ind.genome);
    }

    while !pending.is_empty() {
        // Refill every free slot in ascending-cursor order (ties by slot
        // index): the order an event-driven scheduler would free them in.
        let order = slots.free_order();
        let n = pending.len().min(order.len());
        let mut window: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut window_inds: Vec<Individual> = Vec::with_capacity(n);
        for &slot in order.iter().take(n) {
            let (submission, ind) = pending.pop_front().expect("n <= pending.len()");
            window.push((submission, slot));
            window_inds.push(ind);
        }
        let reports: Vec<StreamTaskReport<EvalRecord>> = window
            .iter()
            .map(|&(submission, slot)| stream.take(&env.faults, submission, slot))
            .collect();

        // Charge the window against the simulated slot clocks, then process
        // arrivals in ascending simulated-completion order (ties broken by
        // slot index) — the deterministic arrival order everything else is
        // keyed off.
        let mut arrivals: Vec<(f64, usize, usize, f64)> = Vec::with_capacity(n);
        for (i, report) in reports.iter().enumerate() {
            let slot = window[i].1;
            let start = slots.cursor(slot);
            let completion = slots.charge(slot, report);
            arrivals.push((completion, slot, i, start));
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        for &(_completion, slot, i, start) in &arrivals {
            let submission = window[i].0;
            let ind = &window_inds[i];
            let report = &reports[i];
            let arrival_idx = steady.arrivals();
            // One completion of the driver's life; a dead driver loses
            // every later arrival — exactly the crash the journal protects
            // against.
            if env.life.complete() {
                let train_seed = derive_seed(seed, submission as u64);
                let key = (0, submission);
                if let Some(mut entry) =
                    env.fresh_entry(key, train_seed, &ind.genome, &report.record)
                {
                    entry.arrival = Some(arrival_idx);
                    // A failed append kills the driver: the arrival (and
                    // everything after it) is lost, and resume replays up
                    // to the journaled prefix.
                    env.journal_eval(&entry);
                }
            }
            // `complete()` gated the append above — "the k-th completion
            // reached disk"; `alive()` decides whether the driver survives
            // to *process* it. The gap between the two is exactly the
            // crash-at-arrival-k semantics the chaos tests kill at every
            // index of.
            if !env.life.alive() {
                return Err(env.life.interrupted());
            }

            let mut evaluated = window_inds[i].clone();
            let failed = report.record.value.is_err();
            if failed {
                epoch_failures += 1;
            }
            evaluated.fitness = Some(fitness_or_penalty(
                report.record.value.as_ref().map(|rec| rec.fitness.clone()),
            ));
            evaluated.eval_minutes = Some(report.record.minutes);

            // The archive silently rejects penalty candidates, so every
            // arrival is offered unconditionally.
            let (added, evicted) = archive.offer_counted(&evaluated);
            epoch_churn.offered += 1;
            epoch_churn.added += usize::from(added);
            epoch_churn.evicted += evicted;

            if obs_on {
                obs.observe(names::H_EVAL_MINUTES, report.record.minutes);
                obs.record(Event {
                    name: names::EVAL,
                    cat: cats::SCHED,
                    ctx: base_span
                        .with_gen((steady.arrivals() / config.pop_size) as u32)
                        .with_task(submission as u32, report.record.attempts),
                    step: None,
                    when: When::Sim(start),
                    dur_min: report.charged_minutes(),
                    worker: Some(slot as u32),
                    args: vec![
                        ("ok", if report.record.value.is_ok() { 1.0 } else { 0.0 }),
                        ("minutes", report.record.minutes),
                        ("attempts", report.record.attempts as f64),
                        ("arrival", arrival_idx as f64),
                    ],
                });
            }

            let consumed = steady.tell(evaluated);
            debug_assert_eq!(consumed, arrival_idx);

            // Breed the replacement immediately, keyed off the journaled
            // arrival index alone — the "ask" half of the ask/tell loop.
            if submitted < budget {
                let mut rng =
                    StdRng::seed_from_u64(derive_seed(seed ^ STEADY_SALT, consumed as u64));
                let mut child = steady.breed(&mut rng);
                child.id = stable_id(seed, submitted as u64);
                submit(&mut stream, &env, submitted, &child.genome);
                pending.push_back((submitted, child));
                submitted += 1;
            }

            // Epoch boundary: snapshot the population, slice the
            // accounting, journal the boundary, publish.
            if steady.arrivals().is_multiple_of(config.pop_size) {
                let epoch = steady.arrivals() / config.pop_size - 1;
                let record = GenerationRecord {
                    generation: epoch,
                    failures: epoch_failures,
                    population: steady.population().to_vec(),
                };
                let report = slots.epoch_report();
                let status = generation_row(&record, &archive, epoch_churn, &report);
                let boundary = EpochEntry { run: run_idx, record, report, status };
                // Journaled like an evaluation: by a live driver, and only
                // if a previous process has not journaled it already.
                if let Some(sink) = &env.journal {
                    if epoch >= sink.epochs
                        && env.life.alive()
                        && sink.writer.borrow_mut().append_epoch(&boundary).is_err()
                    {
                        env.life.die();
                        return Err(env.life.interrupted());
                    }
                }
                let EpochEntry { record, report, status, .. } = boundary;
                env.publish_boundary(status, epoch_churn, &report, epoch_sim_offset)?;
                epoch_sim_offset += report.makespan_minutes;
                history.push(record);
                epoch_reports.push(report);
                epoch_failures = 0;
                epoch_churn = ArchiveChurn::default();
                if let Some(cb) = progress.as_deref_mut() {
                    cb(run_idx, epoch + 1);
                }
            }
        }

        // Window boundary: when the snapshot cadence has been crossed since
        // the last snapshot, append a snapshot of the live state so a later
        // resume replays only the arrival suffix after it (the closed
        // epochs it stands on are already journaled, one record each, and
        // `Journal::load` folds them back into it). Snapshots are written
        // at window ends only — a chaos kill always lands mid-window, so a
        // killed journal carries exactly the snapshots an uninterrupted run
        // writes at those same boundaries, and kill+resume stays
        // byte-identical. A dead driver writes nothing, like any
        // other record.
        if let Some(sink) = &env.journal {
            let arrived = steady.arrivals();
            let due = (arrived / snap_every) * snap_every;
            if due > snapped_through && arrived > 0 && env.life.alive() {
                let snap = SnapshotEntry {
                    run: run_idx,
                    arrivals: arrived,
                    submitted,
                    std: steady.std().to_vec(),
                    population: steady.population().to_vec(),
                    pending: pending.iter().cloned().collect(),
                    archive: archive.members().to_vec(),
                    slots: slots.state(),
                    history: Vec::new(),
                    epoch_reports: Vec::new(),
                    epoch_failures,
                    epoch_churn: (epoch_churn.offered, epoch_churn.added, epoch_churn.evicted),
                    epoch_sim_offset,
                    status_rows: Vec::new(),
                };
                if sink.writer.borrow_mut().append_snapshot(&snap).is_err() {
                    env.life.die();
                    return Err(env.life.interrupted());
                }
                snapped_through = due;
            }
        }
    }

    assert_eq!(steady.arrivals(), budget, "every submitted task must arrive exactly once");
    Ok((RunResult { history, evaluations: budget }, epoch_reports, archive))
}

