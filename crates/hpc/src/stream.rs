//! Continuous-submission scheduling for steady-state campaigns: the
//! barrier-free counterpart of [`Pool::run_batch`].
//!
//! A generational batch pays one synchronisation per generation — the
//! slowest of N trainings gates every worker. A steady-state campaign
//! instead keeps a FIFO of pending submissions and at most one in-flight
//! task per worker slot; whenever a slot's task completes (on the simulated
//! clock) the next pending submission starts there immediately, so the only
//! idle time left is the end-of-run drain.
//!
//! That holds for the physical threads too. A [`Stream`] hands a task to the
//! pool the moment it is [submitted](Stream::submit) — the campaign driver
//! submits every individual as soon as it is bred, long before a simulated
//! slot frees up for it — and the pool's threads work through those
//! submissions in order, never waiting for each other. The driver then only
//! [takes](Stream::take) finished results, in the order its simulated clock
//! dictates. This look-ahead cannot change a result: a task's retry chain is
//! a pure function of `(task, input, fault injector)` and does not know which
//! slot it will be charged to, so *when* it physically ran is invisible.
//!
//! Determinism works exactly as in a batch: pool threads race in real
//! time, but *when* a task completes is decided on the simulated clock —
//! [`StreamSlots`] keeps one monotone cursor per slot and a task's
//! completion time is its slot's cursor plus the minutes its retry chain
//! charged. The resulting arrival order is a pure function of the campaign
//! configuration and the fault injector, never of thread interleaving; the
//! caller (`dphpo-core`'s steady-state driver) journals it as each
//! evaluation's `arrival` index.
//!
//! Supervision carries over from the batch scheduler: per-task deadlines,
//! divergence/cancellation classification, fault-injected worker deaths,
//! and retries with exponential backoff all behave identically, charged to
//! the slot the task occupies. A stream slot is an accounting cursor, not a
//! worker that can die, so a chain always runs to its result or to
//! `max_attempts`.

use std::collections::HashMap;

use crate::pool::{physical_threads, with_pool, Completion, Job, JobResult, Pool};
use crate::scheduler::{
    backoff_minutes, classify, EvalOutcome, FaultInjector, PoolConfig, PoolReport, TaskCtx,
    TaskError, TaskRecord,
};

/// Terminal outcome of one stream task, with the charge breakdown the
/// per-slot simulated clock needs (the batch scheduler only reports these
/// in aggregate).
#[derive(Debug)]
pub struct StreamTaskReport<T> {
    /// Terminal record, classified exactly as `run_batch` classifies it.
    /// For an exhausted task ([`TaskError::WorkerFailed`]) `minutes` is the
    /// total lost minutes, mirroring the batch scheduler's convention.
    pub record: TaskRecord<T>,
    /// Simulated minutes burned by dead attempts (fault-plan partial
    /// minutes; a panicking evaluation writes off the full estimate).
    pub lost_minutes: f64,
    /// Retry-backoff minutes inserted before re-attempts
    /// ([`backoff_minutes`] per retry, as in the batch scheduler).
    pub backoff_minutes: f64,
    /// Worker deaths this task's retry chain absorbed.
    pub deaths: usize,
}

impl<T> StreamTaskReport<T> {
    /// Compute-minutes this task occupies its slot for (busy or lost —
    /// excluding backoff, which is idle waiting charged separately).
    pub fn charged_minutes(&self) -> f64 {
        if matches!(self.record.value, Err(TaskError::WorkerFailed)) {
            // The exhausted record's minutes *are* the lost minutes.
            self.record.minutes
        } else {
            self.record.minutes + self.lost_minutes
        }
    }
}

/// Run one in-flight window of a steady-state campaign: every task in
/// `tasks` — given as `(task index, slot, input)` — is evaluated with full
/// retry supervision, up to `config.n_workers` at a time, and the reports
/// come back in input order. The one-shot form of a [`Stream`]: it opens a
/// pool for the call, submits every task and takes them in order.
///
/// Fault decisions hash `(seed, batch key, task, attempt)` exactly as in
/// the batch scheduler, so a task's retry chain is reproducible in
/// isolation — window composition does not matter, which is what lets a
/// resumed campaign re-execute only the unjournaled tasks of a partially
/// completed window and still charge identical minutes.
pub fn run_stream_window<I, T, F, E>(
    tasks: &[(usize, usize, I)],
    eval: F,
    estimate: E,
    config: &PoolConfig,
    faults: &FaultInjector,
) -> Vec<StreamTaskReport<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&TaskCtx<'_>, &I) -> EvalOutcome<T> + Sync,
    E: Fn(usize, &I) -> f64 + Sync,
{
    if tasks.is_empty() {
        return Vec::new();
    }
    with_pool(
        physical_threads(config.n_workers.min(tasks.len())),
        |ctx: &TaskCtx<'_>, input: &&I| eval(ctx, input),
        |pool| {
            let mut stream = pool.stream(config);
            for (task, _, input) in tasks {
                stream.submit(faults, *task, input, estimate(*task, input));
            }
            tasks.iter().map(|(task, slot, _)| stream.take(faults, *task, *slot)).collect()
        },
    )
}

/// One task's supervised retry chain, as far as it has got.
struct Chain<J> {
    input: J,
    estimate: f64,
    /// The attempt now queued or running (1 = first try).
    attempt: u32,
    deaths: usize,
    lost: f64,
    backoff: f64,
}

impl<J> Chain<J> {
    /// One worker death that burned `lost` simulated minutes. Returns the
    /// exhausted chain's report when no attempt is left, or moves on to the
    /// next attempt behind its backoff.
    fn die<T>(&mut self, lost: f64, config: &PoolConfig) -> Option<StreamTaskReport<T>> {
        self.deaths += 1;
        self.lost += lost;
        if self.attempt >= config.max_attempts {
            return Some(self.finish(Err(TaskError::WorkerFailed), self.lost));
        }
        self.backoff += backoff_minutes(self.attempt);
        self.attempt += 1;
        None
    }

    /// The chain's report (its slot is filled in when it is taken).
    fn finish<T>(&self, value: Result<T, TaskError>, minutes: f64) -> StreamTaskReport<T> {
        StreamTaskReport {
            record: TaskRecord { value, minutes, worker: usize::MAX, attempts: self.attempt },
            lost_minutes: self.lost,
            backoff_minutes: self.backoff,
            deaths: self.deaths,
        }
    }
}

/// A steady-state campaign's view of its [`Pool`]: tasks go in the moment
/// they exist, results come out when the driver's simulated clock asks for
/// them. Every submitted task must be taken before the pool is used for
/// anything else.
pub struct Stream<'a, J, T> {
    pool: &'a Pool<'a, J, T>,
    config: PoolConfig,
    /// Chains with an attempt queued or running on the pool.
    running: HashMap<usize, Chain<J>>,
    /// Finished chains not yet taken.
    finished: HashMap<usize, StreamTaskReport<T>>,
}

impl<'a, J: Clone, T> Pool<'a, J, T> {
    /// Start streaming tasks through this pool under `config`'s retry
    /// budget.
    pub fn stream(&'a self, config: &PoolConfig) -> Stream<'a, J, T> {
        assert!(config.max_attempts > 0, "max_attempts must be positive");
        Stream { pool: self, config: *config, running: HashMap::new(), finished: HashMap::new() }
    }
}

impl<J: Clone, T> Stream<'_, J, T> {
    /// Hand `task` to the pool now. `estimate` is its deterministic
    /// simulated-minutes estimate (dead attempts charge a fraction of it).
    /// Attempts the fault injector kills are settled right here — a pure
    /// function of `(seed, batch key, task, attempt)` — and never reach a
    /// thread; the first attempt that survives is queued.
    pub fn submit(&mut self, faults: &FaultInjector, task: usize, input: J, estimate: f64) {
        let chain = Chain {
            input,
            estimate: estimate.max(0.0),
            attempt: 1,
            deaths: 0,
            lost: 0.0,
            backoff: 0.0,
        };
        self.launch(faults, task, chain);
    }

    /// Queue the chain's current attempt, first walking past every attempt
    /// the fault injector kills.
    fn launch(&mut self, faults: &FaultInjector, task: usize, mut chain: Chain<J>) {
        while faults.task_kills_worker(task, chain.attempt) {
            // A fault-injected death burned a deterministic fraction of the
            // estimate — identical to the batch scheduler's accounting.
            let lost = faults.death_fraction(task, chain.attempt) * chain.estimate;
            if let Some(report) = chain.die(lost, &self.config) {
                self.finished.insert(task, report);
                return;
            }
        }
        self.pool.dispatch(Job { task, attempt: chain.attempt, input: chain.input.clone() });
        self.running.insert(task, chain);
    }

    /// Block until `task`'s chain has finished and return its report,
    /// charged to `slot`. Other tasks finishing meanwhile are kept for
    /// their own `take`.
    pub fn take(&mut self, faults: &FaultInjector, task: usize, slot: usize) -> StreamTaskReport<T> {
        loop {
            if let Some(mut report) = self.finished.remove(&task) {
                report.record.worker = slot;
                return report;
            }
            assert!(self.running.contains_key(&task), "task {task} was never submitted");
            let Completion { task: finished, result, .. } = self.pool.recv();
            let mut chain = self.running.remove(&finished).expect("completion of a running chain");
            match result {
                JobResult::Done(outcome) => {
                    let (value, minutes) = classify(outcome);
                    self.finished.insert(finished, chain.finish(value, minutes));
                }
                // A panicking evaluation writes off the whole estimate.
                JobResult::Panicked => match chain.die(chain.estimate, &self.config) {
                    Some(report) => {
                        self.finished.insert(finished, report);
                    }
                    None => self.launch(faults, finished, chain),
                },
            }
        }
    }
}

/// The simulated clock of a steady-state run: one monotone cursor per
/// worker slot, advanced as tasks are charged to it. No list-scheduling
/// reconstruction is needed — slot assignment is explicit and continuous,
/// so the cursor *is* the slot's simulated wall clock. The `baseline_*`
/// half of the state is the copy taken at the last epoch boundary, so
/// [`StreamSlots::epoch_report`] can report deltas.
pub struct StreamSlots(StreamSlotsState);

impl StreamSlots {
    /// Fresh accounting for `n_workers` slots, all at simulated time zero.
    pub fn new(n_workers: usize) -> Self {
        let zeros = || vec![0.0; n_workers];
        StreamSlots::from_state(StreamSlotsState {
            busy: zeros(),
            lost: zeros(),
            backoff: zeros(),
            baseline_busy: zeros(),
            baseline_lost: zeros(),
            baseline_backoff: zeros(),
            ..StreamSlotsState::default()
        })
    }

    /// Number of worker slots.
    fn n_slots(&self) -> usize {
        self.0.busy.len()
    }

    /// A slot's simulated clock: everything charged to it so far.
    pub fn cursor(&self, slot: usize) -> f64 {
        self.0.busy[slot] + self.0.lost[slot] + self.0.backoff[slot]
    }

    /// Slot indices ordered by who frees up first — ascending cursor, ties
    /// broken by slot index. This is the deterministic submission order:
    /// the front of the pending queue goes to `free_order()[0]`, and so on.
    pub fn free_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n_slots()).collect();
        order.sort_by(|&a, &b| {
            self.cursor(a)
                .partial_cmp(&self.cursor(b))
                .expect("cursors are finite")
                .then(a.cmp(&b))
        });
        order
    }

    /// Charge a completed task to its slot and return the simulated time at
    /// which the slot frees up again — the task's completion time, which
    /// (together with the slot index as tie-break) defines the campaign's
    /// arrival order.
    pub fn charge<T>(&mut self, slot: usize, report: &StreamTaskReport<T>) -> f64 {
        let s = &mut self.0;
        match &report.record.value {
            // The exhausted record's minutes *are* the lost minutes.
            Err(TaskError::WorkerFailed) => {
                s.lost[slot] += report.record.minutes;
                s.exhausted += 1;
            }
            value => {
                s.busy[slot] += report.record.minutes;
                s.lost[slot] += report.lost_minutes;
                match value {
                    Err(TaskError::Failed(_)) | Err(TaskError::Diverged { .. }) => s.diverged += 1,
                    Err(TaskError::Timeout { .. }) => s.timeout += 1,
                    Err(TaskError::Cancelled) => s.cancelled += 1,
                    Err(TaskError::WorkerFailed) | Err(TaskError::Speculated) | Ok(_) => {}
                }
            }
        }
        s.backoff[slot] += report.backoff_minutes;
        s.deaths += report.deaths;
        if report.deaths > 0 {
            s.retried += 1;
        }
        self.cursor(slot)
    }

    /// Close an epoch (one population's worth of arrivals) and report it in
    /// batch-report shape, from the per-slot deltas since the previous
    /// boundary: `wall_minutes` is the largest slot delta, and each slot's
    /// idle is its shortfall against that — within-epoch imbalance only,
    /// since a saturated stream has no barrier to wait on. The per-slot
    /// `busy + lost + backoff + idle = wall` partition holds exactly.
    pub fn epoch_report(&mut self) -> PoolReport {
        let s = &mut self.0;
        let n = s.busy.len();
        let d = |now: &[f64], then: &[f64]| -> Vec<f64> {
            (0..n).map(|slot| now[slot] - then[slot]).collect()
        };
        let busy = d(&s.busy, &s.baseline_busy);
        let lost = d(&s.lost, &s.baseline_lost);
        let backoff = d(&s.backoff, &s.baseline_backoff);
        let per_worker: Vec<f64> = (0..n).map(|slot| busy[slot] + lost[slot]).collect();
        let totals: Vec<f64> = (0..n).map(|slot| per_worker[slot] + backoff[slot]).collect();
        let wall = totals.iter().cloned().fold(0.0f64, f64::max);
        let makespan = per_worker.iter().cloned().fold(0.0f64, f64::max);
        let idle: Vec<f64> = totals.iter().map(|&t| wall - t).collect();
        let report = PoolReport {
            makespan_minutes: makespan,
            per_worker_minutes: per_worker,
            worker_deaths: s.deaths - s.baseline_deaths,
            retried_tasks: s.retried - s.baseline_retried,
            diverged_tasks: s.diverged - s.baseline_diverged,
            timeout_tasks: s.timeout - s.baseline_timeout,
            cancelled_tasks: s.cancelled - s.baseline_cancelled,
            exhausted_tasks: s.exhausted - s.baseline_exhausted,
            lost_minutes: lost.iter().sum(),
            backoff_minutes: backoff.iter().sum(),
            busy_minutes: busy,
            lost_death_minutes: lost,
            backoff_slot_minutes: backoff,
            idle_minutes: idle,
            wall_minutes: wall,
            quarantined_workers: 0,
            placements: Vec::new(),
        };
        s.baseline_busy.clone_from(&s.busy);
        s.baseline_lost.clone_from(&s.lost);
        s.baseline_backoff.clone_from(&s.backoff);
        s.baseline_deaths = s.deaths;
        s.baseline_retried = s.retried;
        s.baseline_diverged = s.diverged;
        s.baseline_timeout = s.timeout;
        s.baseline_cancelled = s.cancelled;
        s.baseline_exhausted = s.exhausted;
        report
    }

    /// The full accounting state as a plain-data snapshot, for embedding in
    /// a campaign journal's snapshot record. [`StreamSlots::from_state`]
    /// rebuilds an identical accountant from it.
    pub fn state(&self) -> StreamSlotsState {
        self.0.clone()
    }

    /// Rebuild an accountant from a [`StreamSlotsState`] snapshot.
    pub fn from_state(state: StreamSlotsState) -> Self {
        assert!(!state.busy.is_empty(), "stream needs at least one worker slot");
        StreamSlots(state)
    }
}

/// Plain-data snapshot of a [`StreamSlots`] accountant: every cursor and
/// counter, plus the epoch baseline, flattened for serialization.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamSlotsState {
    /// Per-slot productive minutes.
    pub busy: Vec<f64>,
    /// Per-slot minutes lost to worker deaths.
    pub lost: Vec<f64>,
    /// Per-slot retry-backoff minutes.
    pub backoff: Vec<f64>,
    /// Worker deaths charged so far.
    pub deaths: usize,
    /// Tasks that needed at least one retry.
    pub retried: usize,
    /// Diverged/failed tasks.
    pub diverged: usize,
    /// Timed-out tasks.
    pub timeout: usize,
    /// Cancelled tasks.
    pub cancelled: usize,
    /// Tasks that exhausted their retry budget.
    pub exhausted: usize,
    /// Epoch-baseline per-slot productive minutes.
    pub baseline_busy: Vec<f64>,
    /// Epoch-baseline per-slot death-loss minutes.
    pub baseline_lost: Vec<f64>,
    /// Epoch-baseline per-slot backoff minutes.
    pub baseline_backoff: Vec<f64>,
    /// Epoch-baseline worker deaths.
    pub baseline_deaths: usize,
    /// Epoch-baseline retried tasks.
    pub baseline_retried: usize,
    /// Epoch-baseline diverged tasks.
    pub baseline_diverged: usize,
    /// Epoch-baseline timed-out tasks.
    pub baseline_timeout: usize,
    /// Epoch-baseline cancelled tasks.
    pub baseline_cancelled: usize,
    /// Epoch-baseline exhausted tasks.
    pub baseline_exhausted: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TIMEOUT_MINUTES;

    fn config(n_workers: usize) -> PoolConfig {
        PoolConfig { n_workers, nanny: false, max_attempts: 3 }
    }

    #[test]
    fn window_reports_come_back_in_input_order() {
        let tasks: Vec<(usize, usize, u64)> = (0..4).map(|i| (i, i, (i as u64) + 1)).collect();
        let reports = run_stream_window(
            &tasks,
            |ctx, &x| EvalOutcome { value: Ok(x * x), minutes: 10.0 * ctx.task as f64 + 5.0 },
            |_, _| 10.0,
            &config(4),
            &FaultInjector::none(),
        );
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(*r.record.value.as_ref().unwrap(), ((i as u64) + 1).pow(2));
            assert_eq!(r.record.worker, i);
            assert_eq!(r.record.attempts, 1);
            assert_eq!(r.charged_minutes(), 10.0 * i as f64 + 5.0);
        }
    }

    #[test]
    fn timeouts_charge_the_limit_and_classify() {
        let tasks = vec![(0usize, 0usize, ())];
        let reports = run_stream_window(
            &tasks,
            |_, _| EvalOutcome::<u64> { value: Ok(1), minutes: 500.0 },
            |_, _| 500.0,
            &config(1),
            &FaultInjector::none(),
        );
        assert!(matches!(reports[0].record.value, Err(TaskError::Timeout { .. })));
        assert_eq!(reports[0].record.minutes, TIMEOUT_MINUTES);
    }

    #[test]
    fn retry_chains_are_pure_functions_of_the_fault_plan() {
        // A fault rate this high guarantees at least one death across 32
        // tasks; the chains must replay identically on a second execution.
        let faults = FaultInjector::new(0.4, 77);
        let tasks: Vec<(usize, usize, u64)> = (0..32).map(|i| (i, i % 4, i as u64)).collect();
        let run = || {
            run_stream_window(
                &tasks,
                |_, &x| EvalOutcome { value: Ok(x), minutes: 30.0 },
                |_, _| 30.0,
                &config(4),
                &faults,
            )
        };
        let a = run();
        let b = run();
        assert!(a.iter().any(|r| r.deaths > 0), "fault injector produced no deaths");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.deaths, y.deaths);
            assert_eq!(x.record.attempts, y.record.attempts);
            assert_eq!(x.lost_minutes, y.lost_minutes);
            assert_eq!(x.backoff_minutes, y.backoff_minutes);
            assert_eq!(x.record.value.is_ok(), y.record.value.is_ok());
        }
        // Exhausted chains carry their lost minutes as the record, like the
        // batch scheduler.
        for r in &a {
            if matches!(r.record.value, Err(TaskError::WorkerFailed)) {
                assert_eq!(r.record.minutes, r.lost_minutes);
                assert_eq!(r.record.attempts, 3);
            }
        }
    }

    #[test]
    fn slot_cursors_order_the_submissions() {
        let mut slots = StreamSlots::new(2);
        let ok = |minutes: f64, slot: usize| StreamTaskReport::<u64> {
            record: TaskRecord { value: Ok(1), minutes, worker: slot, attempts: 1 },
            lost_minutes: 0.0,
            backoff_minutes: 0.0,
            deaths: 0,
        };
        assert_eq!(slots.free_order(), vec![0, 1]);
        let t0 = slots.charge(0, &ok(10.0, 0));
        let t1 = slots.charge(1, &ok(4.0, 1));
        assert_eq!((t0, t1), (10.0, 4.0));
        // Slot 1 frees first now.
        assert_eq!(slots.free_order(), vec![1, 0]);
    }

    #[test]
    fn epoch_reports_are_deltas_and_partition_exactly() {
        let mut slots = StreamSlots::new(2);
        let ok = |minutes: f64, slot: usize| StreamTaskReport::<u64> {
            record: TaskRecord { value: Ok(1), minutes, worker: slot, attempts: 1 },
            lost_minutes: 0.0,
            backoff_minutes: 0.0,
            deaths: 0,
        };
        slots.charge(0, &ok(10.0, 0));
        slots.charge(1, &ok(4.0, 1));
        let first = slots.epoch_report();
        assert_eq!(first.wall_minutes, 10.0);
        assert_eq!(first.busy_minutes, vec![10.0, 4.0]);
        slots.charge(1, &ok(8.0, 1));
        let second = slots.epoch_report();
        // Only the delta since the boundary shows up.
        assert_eq!(second.busy_minutes, vec![0.0, 8.0]);
        assert_eq!(second.wall_minutes, 8.0);
        assert_eq!(second.idle_minutes, vec![8.0, 0.0]);
        for report in [&first, &second] {
            for s in 0..2 {
                let total = report.busy_minutes[s]
                    + report.lost_death_minutes[s]
                    + report.backoff_slot_minutes[s]
                    + report.idle_minutes[s];
                assert!((total - report.wall_minutes).abs() < 1e-12);
            }
        }
    }
}
