//! A Dask-like client/scheduler/worker evaluation pool with a supervision
//! runtime: the batch scheduler, [`Pool::run_batch`].
//!
//! Mirrors the paper's §2.2.5 deployment: a scheduler fans evaluation tasks
//! out to one worker per compute node, workers may die mid-task (hardware
//! faults), "nannies" may restart dead workers or — as the paper found
//! preferable — be disabled so the scheduler simply reassigns the task to a
//! surviving worker. Tasks also carry a *simulated* runtime (minutes) from
//! the cost model, and the scheduler enforces the paper's 2-hour per-task
//! timeout against that simulated clock.
//!
//! # Physical threads are not simulated workers
//!
//! The threads of a [`Pool`](crate::pool) only evaluate; everything about
//! the simulated cluster is decided here, on the driver thread. A batch
//! keeps its queue in dequeue order — first attempts in task order, then
//! retries as their deaths are processed — and asks the [`FaultInjector`]
//! about each attempt as it dequeues it: an attempt it kills never reaches a
//! thread (its death, lost minutes, retry and backoff are booked on the
//! spot), every other attempt is dispatched to the pool.
//! `alive` counts the simulated worker slots still in service. Without
//! nannies each death retires a slot; once none is left nothing dequeued
//! afterwards starts — attempts already dispatched are recorded when they
//! come back, the rest fail as [`TaskError::WorkerFailed`]. With nannies a
//! slot is retired only by quarantine. A real thread therefore never exits
//! or idles because a *simulated* worker died, and no decision depends on
//! which thread got where first.
//!
//! On top of the plain pool, [`Pool::run_batch`] adds the supervision loop
//! ([`run_batch_supervised`] is its one-shot form, on a pool opened for the
//! call):
//!
//! * every attempt gets a [`TaskCtx`] carrying the deadline budget, so a
//!   supervised evaluation can stop *at* the wall instead of being
//!   discovered dead afterwards. Nothing cancels a running attempt but the
//!   pool shutting down ([`TaskCtx::is_cancelled`]): a task has one attempt
//!   queued or running at a time, so there is never a loser to stop;
//! * **retry with deterministic exponential backoff** and per-slot worker
//!   health scoring that **quarantines** a slot after
//!   [`QUARANTINE_DEATHS`] deaths (never the last surviving slot);
//! * dead attempts charge their **partial simulated minutes** (a
//!   deterministic fraction of the task's estimate), so
//!   [`PoolReport::makespan_minutes`] reflects lost node time the way the
//!   real Summit allocation would.
//!
//! The idle tail behind a generation barrier has one remedy, and it is not
//! here: the asynchronous steady-state campaign ([`Pool::stream`]), which
//! keeps the same per-task retry chain and tallies and charges its records
//! by the same rules.
//!
//! Every supervision decision — fault placement, death fractions, backoff
//! amounts, which slot a death lands on — is a pure function of `(seed,
//! batch key, task, attempt)` and the deterministic estimates, never of
//! real-time thread interleavings, so the crash/resume journal contract (see
//! `dphpo-core`) keeps holding with supervision enabled, and every field of
//! a [`PoolReport`] is deterministic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dphpo_obs::{cats, names, splitmix64, Event, Recorder, SpanCtx, NOOP};

use crate::pool::{physical_threads, with_pool, Completion, Job, JobResult, Pool};

/// Why a task produced no value.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskError {
    /// The simulated runtime exceeded the per-task limit (the paper's
    /// 2-hour `subprocess` timeout → `TimeoutError`).
    Timeout {
        /// The enforced limit in minutes.
        limit_minutes: f64,
    },
    /// The worker hosting the task died (hardware fault); attempts were
    /// exhausted or no workers survived.
    WorkerFailed,
    /// The evaluation itself failed for an unstructured reason.
    Failed(String),
    /// The divergence sentinel aborted the training early.
    Diverged {
        /// Training step at which divergence was detected.
        step: usize,
        /// The offending loss value (may be non-finite).
        loss: f64,
    },
    /// The evaluation observed [`TaskCtx::is_cancelled`] — its pool
    /// shutting down under it — and stopped.
    Cancelled,
    /// Reserved: nothing constructs it. `benchmark/src/layers.rs` matches on
    /// it by name, so the variant stays until that package is next edited.
    Speculated,
}

/// Structured failure reported by a supervised evaluation function.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalFault {
    /// Unstructured failure (legacy string reason).
    Failed(String),
    /// The divergence sentinel fired inside the training loop.
    Diverged {
        /// Step at which divergence was detected.
        step: usize,
        /// The offending loss value.
        loss: f64,
    },
    /// The simulated-clock deadline budget ran out mid-evaluation; the
    /// scheduler charges the timeout limit, as the wall would have.
    Deadline,
    /// The evaluation observed [`TaskCtx::is_cancelled`] and aborted.
    Cancelled,
}

/// Outcome produced by the user's evaluation function.
pub struct EvalOutcome<T> {
    /// The evaluation result, or a structured failure.
    pub value: Result<T, EvalFault>,
    /// Simulated runtime in minutes.
    pub minutes: f64,
}

/// Per-attempt context handed to a supervised evaluation function.
///
/// Carries the attempt's identity (for replay short-circuits and logging),
/// the deadline budget and the pool's shutdown flag.
pub struct TaskCtx<'a> {
    /// Task index within the batch.
    pub task: usize,
    /// Attempt number (1 = first try).
    pub attempt: u32,
    /// Simulated-minutes budget for this attempt, for the evaluation to
    /// enforce cooperatively: [`TIMEOUT_MINUTES`] on a pool thread, `None`
    /// when detached.
    pub deadline_minutes: Option<f64>,
    /// The pool's shutdown flag: set when its driver leaves, so whatever is
    /// still running stops at its next check.
    pub(crate) stop: Option<&'a AtomicBool>,
}

impl TaskCtx<'static> {
    /// A context with no scheduler attached — for calling a supervised
    /// evaluation function directly (tests, single-shot tools).
    pub fn detached(task: usize) -> Self {
        TaskCtx {
            task,
            attempt: 1,
            deadline_minutes: None,
            stop: None,
        }
    }
}

impl<'a> TaskCtx<'a> {
    /// True once this attempt's pool is shutting down — the only thing that
    /// ever cancels a running attempt.
    pub fn is_cancelled(&self) -> bool {
        self.stop.is_some_and(|stop| stop.load(Ordering::SeqCst))
    }

    /// Reserved: a no-op that nothing reads. `benchmark/src/mirror.rs`
    /// wires it into its trainings, so it stays until that package is next
    /// edited.
    pub fn heartbeat(&self, _done: f64, _projected: f64) {}
}

/// Final per-task record returned by [`Pool::run_batch`].
#[derive(Clone, Debug)]
pub struct TaskRecord<T> {
    /// Value or the error that ended the task.
    pub value: Result<T, TaskError>,
    /// Simulated minutes charged for the final attempt (timeouts charge the
    /// full limit, as the real job would have been killed there; exhausted
    /// retries charge the partial minutes their dead attempts burned).
    pub minutes: f64,
    /// Worker that produced the final outcome.
    pub worker: usize,
    /// Number of attempts (1 = no retries).
    pub attempts: u32,
}

/// The per-task simulated-runtime limit in minutes: the paper's 2-hour
/// `subprocess` timeout. An attempt that runs past it is a
/// [`TaskError::Timeout`] charged exactly this much.
pub const TIMEOUT_MINUTES: f64 = 120.0;

/// Simulated minutes of backoff before the first retry of a task.
pub const BACKOFF_BASE_MINUTES: f64 = 1.0;
/// Multiplier applied to the backoff for each further retry.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// Simulated minutes a task waits before retry number `retry` (1 = the
/// first): the one spelling of the backoff rule, under both schedulers.
pub fn backoff_minutes(retry: u32) -> f64 {
    BACKOFF_BASE_MINUTES * BACKOFF_FACTOR.powi(retry as i32 - 1)
}

/// With nannies, a worker slot is quarantined (permanently retired) after
/// this many deaths — unless it is the last surviving slot.
pub const QUARANTINE_DEATHS: u32 = 3;

/// Pool configuration: everything about the scheduler a campaign can ask
/// for. The timeout, the backoff and the quarantine threshold are the
/// constants above — no campaign, preset or benchmark ever ran with other
/// values.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of workers (the paper: one per allocated node, 100).
    pub n_workers: usize,
    /// Restart dead workers (Dask nannies). The paper disables them.
    pub nanny: bool,
    /// Maximum attempts per task before giving up.
    pub max_attempts: u32,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            n_workers: 4,
            nanny: false,
            max_attempts: 3,
        }
    }
}

/// Salt of the worker-death decision. Every journal ever written replays
/// these draws, so it never changes.
const DEATH_SALT: u64 = 0x005e_ed0f_da7a;

/// Salt of the death-fraction draw, independent of the decision itself.
const FRACTION_SALT: u64 = 0xdead_c057;

/// Worker-death injection: the one fault the scheduler decides.
///
/// Each task execution kills its worker with probability
/// `death_probability` (before completing the task). Decisions are **pure
/// functions of `(seed, batch key, task index, attempt)`** — not draws from
/// a shared stream — so fault placement is independent of the real-time
/// order in which worker threads grab tasks. That determinism is what lets
/// a resumed experiment replay a journal and land bit-identically on the
/// uninterrupted run's result (see `dphpo-core`'s journal module).
///
/// The campaign driver's own death and the I/O faults of its writers are not
/// the scheduler's to decide: they belong to `dphpo-core`'s `chaos` module.
pub struct FaultInjector {
    death_probability: f64,
    seed: u64,
    batch_key: AtomicU64,
}

impl FaultInjector {
    /// An injector; `death_probability` of 0 disables faults.
    pub fn new(death_probability: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&death_probability));
        FaultInjector { death_probability, seed, batch_key: AtomicU64::new(0) }
    }

    /// No faults.
    pub fn none() -> Self {
        FaultInjector::new(0.0, 0)
    }

    /// Set the key that namespaces this batch's fault decisions. Callers
    /// running several batches through one injector (one per EA generation)
    /// pass a batch identity that is stable across resume — the generation
    /// number — so an interrupted and an uninterrupted campaign see the
    /// same fault pattern.
    pub fn set_batch_key(&self, key: u64) {
        self.batch_key.store(key, Ordering::Relaxed);
    }

    /// Whether this attempt kills its worker: a pure hash of `(seed, batch
    /// key, task, attempt)` below the death probability.
    pub(crate) fn task_kills_worker(&self, task: usize, attempt: u32) -> bool {
        self.death_probability > 0.0 && self.unit(DEATH_SALT, task, attempt) < self.death_probability
    }

    /// How far through its estimated runtime an attempt got before its
    /// worker died, as a deterministic fraction in `[0, 1)` — a pure hash of
    /// `(seed, batch key, task, attempt)` under a different salt than the
    /// death decision itself, so the two are independent.
    pub(crate) fn death_fraction(&self, task: usize, attempt: u32) -> f64 {
        self.unit(FRACTION_SALT, task, attempt)
    }

    /// The uniform `[0, 1)` draw of `(seed, batch key, task, attempt)` in
    /// the domain `salt`.
    fn unit(&self, salt: u64, task: usize, attempt: u32) -> f64 {
        let batch_key = self.batch_key.load(Ordering::Relaxed);
        let mut z = splitmix64(self.seed ^ salt.wrapping_mul(batch_key));
        z = splitmix64(z ^ (task as u64));
        z = splitmix64(z ^ ((attempt as u64) << 32));
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-run statistics.
///
/// Every field is a deterministic function of the batch inputs, the fault
/// plan, and the pool configuration. The journal carries neither
/// [`PoolReport::quarantined_workers`] nor [`PoolReport::placements`].
#[derive(Clone, Debug, Default)]
pub struct PoolReport {
    /// Simulated makespan: the longest per-worker busy time in minutes
    /// (what the batch job's wall clock would have shown), including the
    /// partial minutes dead attempts burned.
    pub makespan_minutes: f64,
    /// Simulated busy minutes per worker slot.
    pub per_worker_minutes: Vec<f64>,
    /// Worker deaths: attempts the fault injector killed, plus evaluations that
    /// panicked.
    pub worker_deaths: usize,
    /// Tasks that were retried at least once.
    pub retried_tasks: usize,
    /// Tasks whose terminal record is [`TaskError::Failed`] or
    /// [`TaskError::Diverged`] (a sick training, not a sick node).
    pub diverged_tasks: usize,
    /// Tasks whose terminal record is [`TaskError::Timeout`].
    pub timeout_tasks: usize,
    /// Tasks whose terminal record is [`TaskError::Cancelled`].
    pub cancelled_tasks: usize,
    /// Tasks whose terminal record is [`TaskError::WorkerFailed`]
    /// (exhausted retries or pool death).
    pub exhausted_tasks: usize,
    /// Simulated minutes burned by attempts that produced no result: dead
    /// attempts' partial minutes.
    pub lost_minutes: f64,
    /// Total simulated backoff delay inserted before retries
    /// ([`backoff_minutes`] per retry). Idle waiting, not busy time —
    /// reported separately from the makespan.
    pub backoff_minutes: f64,
    /// Simulated busy minutes per worker slot that produced a result
    /// (successful evaluations plus structural failures, which still ran).
    pub busy_minutes: Vec<f64>,
    /// Simulated minutes per worker slot burned by dead attempts.
    pub lost_death_minutes: Vec<f64>,
    /// Simulated retry-backoff minutes list-scheduled onto each worker slot
    /// (idle waiting before a requeue, not busy time).
    pub backoff_slot_minutes: Vec<f64>,
    /// Simulated idle minutes per worker slot: the gap between that slot's
    /// charged time and the batch wall clock.
    pub idle_minutes: Vec<f64>,
    /// Backoff-inclusive simulated wall clock of the batch: the longest
    /// per-worker `charged + backoff` time. Equals
    /// [`PoolReport::makespan_minutes`] whenever no retry backoff was
    /// charged, and is never smaller. Per worker slot,
    /// `busy + lost_death + backoff + idle` partitions this value exactly.
    pub wall_minutes: f64,
    /// Simulated worker slots permanently retired by health scoring (live
    /// slots absorb deaths round-robin). Not journaled.
    pub quarantined_workers: usize,
    /// Where each task's terminal record sits on the batch's list schedule,
    /// in task order: `(slot, start minute)`. The worker lanes of a trace.
    /// Not journaled; empty in a steady-state epoch report.
    pub placements: Vec<(usize, f64)>,
}

/// How a completed attempt's outcome becomes its terminal record, shared by
/// the batch driver and the stream scheduler so both campaign modes classify
/// and charge alike: a simulated runtime over [`TIMEOUT_MINUTES`] is a
/// [`TaskError::Timeout`] charged the limit (the real job would have been
/// killed at the wall); otherwise a structured [`EvalFault`] maps onto its
/// [`TaskError`] and the evaluation's own minutes are charged.
pub(crate) fn classify<T>(outcome: EvalOutcome<T>) -> (Result<T, TaskError>, f64) {
    let timeout = TaskError::Timeout { limit_minutes: TIMEOUT_MINUTES };
    if outcome.minutes > TIMEOUT_MINUTES {
        return (Err(timeout), TIMEOUT_MINUTES);
    }
    let value = outcome.value.map_err(|fault| match fault {
        EvalFault::Failed(reason) => TaskError::Failed(reason),
        EvalFault::Diverged { step, loss } => TaskError::Diverged { step, loss },
        EvalFault::Deadline => timeout,
        EvalFault::Cancelled => TaskError::Cancelled,
    });
    (value, outcome.minutes)
}

/// The charging rule of a terminal record, shared by both schedulers: an
/// exhausted record's minutes *are* its chain's `lost` minutes (`None`: the
/// record itself is time lost to deaths); any other record ran, its minutes
/// are busy, and its chain's `lost` minutes come beside them (`Some`).
pub(crate) fn lost_beside<T>(record: &TaskRecord<T>, lost: f64) -> Option<f64> {
    (!matches!(record.value, Err(TaskError::WorkerFailed))).then_some(lost)
}

/// How a scheduler's tasks ended and the worker deaths their chains
/// absorbed: the counters of a [`PoolReport`], tallied by one rule under
/// both schedulers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskCounts {
    /// Worker deaths.
    pub deaths: usize,
    /// Tasks that queued at least one retry.
    pub retried: usize,
    /// Failed or diverged tasks.
    pub diverged: usize,
    /// Timed-out tasks.
    pub timeout: usize,
    /// Cancelled tasks.
    pub cancelled: usize,
    /// Tasks that exhausted their attempts or lost the pool.
    pub exhausted: usize,
}

impl TaskCounts {
    /// Count one task's terminal record, the deaths its chain absorbed and
    /// whether it queued a retry (reached an attempt past the first).
    pub(crate) fn count<T>(&mut self, value: &Result<T, TaskError>, deaths: usize, retried: bool) {
        self.deaths += deaths;
        self.retried += usize::from(retried);
        match value {
            Err(TaskError::Failed(_) | TaskError::Diverged { .. }) => self.diverged += 1,
            Err(TaskError::Timeout { .. }) => self.timeout += 1,
            Err(TaskError::Cancelled) => self.cancelled += 1,
            Err(TaskError::WorkerFailed) => self.exhausted += 1,
            Err(TaskError::Speculated) | Ok(_) => {}
        }
    }

    /// A report whose counters are what was counted since `base`, and
    /// nothing else.
    pub(crate) fn report_since(&self, base: &TaskCounts) -> PoolReport {
        PoolReport {
            worker_deaths: self.deaths - base.deaths,
            retried_tasks: self.retried - base.retried,
            diverged_tasks: self.diverged - base.diverged,
            timeout_tasks: self.timeout - base.timeout,
            cancelled_tasks: self.cancelled - base.cancelled,
            exhausted_tasks: self.exhausted - base.exhausted,
            ..PoolReport::default()
        }
    }
}

/// One task's supervised retry chain, as far as it has got: the per-task
/// bookkeeping both schedulers keep, advanced by its deaths.
pub(crate) struct Chain {
    /// The task's simulated-minutes estimate, of which a dead attempt is
    /// charged a fraction.
    estimate: f64,
    /// The attempt now queued or running (1 = first try).
    pub(crate) attempt: u32,
    /// Worker deaths the chain absorbed.
    pub(crate) deaths: usize,
    /// Simulated minutes its dead attempts burned.
    pub(crate) lost: f64,
    /// Retry-backoff minutes inserted before its re-attempts.
    pub(crate) backoff: f64,
}

impl Chain {
    pub(crate) fn new(estimate: f64) -> Self {
        Chain { estimate: estimate.max(0.0), attempt: 1, deaths: 0, lost: 0.0, backoff: 0.0 }
    }

    /// The current attempt's worker died. A fault-injected death burned a
    /// deterministic fraction of the estimate; a panic gives no progress
    /// information, so the full estimate is written off. Returns the minutes
    /// lost and — unless that was the last attempt — the backoff before the
    /// next one, which the chain has moved on to.
    pub(crate) fn die(
        &mut self,
        faults: &FaultInjector,
        task: usize,
        panicked: bool,
        max_attempts: u32,
    ) -> (f64, Option<f64>) {
        let lost = if panicked {
            self.estimate
        } else {
            faults.death_fraction(task, self.attempt) * self.estimate
        };
        self.deaths += 1;
        self.lost += lost;
        if self.attempt >= max_attempts {
            return (lost, None);
        }
        let backoff = backoff_minutes(self.attempt);
        self.backoff += backoff;
        self.attempt += 1;
        (lost, Some(backoff))
    }
}

/// [`Pool::run_batch`] on a pool opened for the call, unobserved: its
/// one-shot form (a campaign opens one pool for its whole life).
///
/// `on_complete(task, record)` fires on the scheduler (calling) thread the
/// moment a task reaches its final record — success, evaluation failure,
/// timeout, or exhausted retries — in completion order, before the batch
/// returns. This is the write-ahead point for crash-safe journaling: a
/// journal appended here has every finished evaluation on disk even if the
/// driver dies before the batch (or the campaign) completes.
///
/// `eval` receives a [`TaskCtx`] (deadline budget, shutdown flag)
/// and should poll [`TaskCtx::is_cancelled`] at step boundaries.
/// `estimate(task, &input)` returns the task's deterministic simulated-
/// minutes estimate, of which a dead attempt is charged a fraction. Panics
/// inside `eval` are caught and treated as worker deaths.
pub fn run_batch_supervised<I, T, F, E, H>(
    inputs: &[I],
    eval: F,
    estimate: E,
    config: &PoolConfig,
    faults: &FaultInjector,
    on_complete: H,
) -> (Vec<TaskRecord<T>>, PoolReport)
where
    I: Sync,
    T: Send,
    F: Fn(&TaskCtx<'_>, &I) -> EvalOutcome<T> + Sync,
    E: Fn(usize, &I) -> f64,
    H: FnMut(usize, &TaskRecord<T>),
{
    // An empty batch never spins the pool up.
    if inputs.is_empty() {
        return (Vec::new(), PoolReport::default());
    }
    let inputs: Vec<&I> = inputs.iter().collect();
    with_pool(
        physical_threads(config.n_workers.min(inputs.len())),
        |ctx: &TaskCtx<'_>, input: &&I| eval(ctx, input),
        |pool| {
            pool.run_batch(
                &inputs,
                |task, input: &&I| estimate(task, input),
                config,
                faults,
                on_complete,
                &NOOP,
                SpanCtx::default(),
            )
        },
    )
}

/// The simulated side of the worker pool: which of the `n_workers` slots
/// are still in service. Physical pool threads never die; a death — the
/// fault injector's or a panicking evaluation's — is absorbed here.
///
/// Without nannies every death retires a slot, and a pool with no slot left
/// is dead: nothing dequeued after that point starts. With nannies a dead
/// worker restarts, until health scoring quarantines a slot that keeps
/// dying (never the last one). Deaths are dealt to the live slots round-
/// robin — a simulated pool has no thread race to decide who was hit — so
/// the bookkeeping is a pure function of the order deaths are dequeued in.
struct SimulatedWorkers {
    /// Slots in service.
    alive: usize,
    retired: Vec<bool>,
    deaths: Vec<u32>,
    /// Where the round-robin resumes.
    next: usize,
    quarantined: usize,
}

impl SimulatedWorkers {
    fn new(n_workers: usize) -> Self {
        SimulatedWorkers {
            alive: n_workers,
            retired: vec![false; n_workers],
            deaths: vec![0; n_workers],
            next: 0,
            quarantined: 0,
        }
    }

    /// One worker death; returns the slot that absorbed it (`usize::MAX`
    /// when a panic is reported after the pool already died).
    fn absorb_death(&mut self, config: &PoolConfig) -> usize {
        let n = self.retired.len();
        let Some(slot) = (0..n).map(|k| (self.next + k) % n).find(|&s| !self.retired[s]) else {
            return usize::MAX;
        };
        self.next = slot + 1;
        self.deaths[slot] += 1;
        let quarantine = self.deaths[slot] >= QUARANTINE_DEATHS && self.alive > 1;
        if !config.nanny || quarantine {
            self.retired[slot] = true;
            self.alive -= 1;
            self.quarantined += usize::from(config.nanny);
        }
        slot
    }
}

/// Driver-side state of one batch: the simulated FIFO, the retry chains and
/// the records, advanced by dequeues and by completions from the pool.
struct Batch<'a, T, H> {
    config: &'a PoolConfig,
    faults: &'a FaultInjector,
    obs: &'a dyn Recorder,
    obs_on: bool,
    span: SpanCtx,
    on_complete: H,
    /// The simulated queue, in dequeue order: tasks whose chain's current
    /// attempt waits. First attempts in task order, then retries as their
    /// deaths are processed — the order a Dask scheduler's FIFO would hold
    /// them in. A task has at most one attempt queued or in flight.
    fifo: VecDeque<usize>,
    workers: SimulatedWorkers,
    chains: Vec<Chain>,
    records: Vec<Option<TaskRecord<T>>>,
    counts: TaskCounts,
    /// Minutes lost to deaths and waited in backoff, summed in death order.
    lost_minutes: f64,
    backoff_minutes: f64,
}

impl<T, H: FnMut(usize, &TaskRecord<T>)> Batch<'_, T, H> {
    /// Store a task's terminal record and fire the completion hook.
    fn finalize(&mut self, task: usize, record: TaskRecord<T>) {
        let chain = &self.chains[task];
        self.counts.count(&record.value, chain.deaths, chain.attempt > 1);
        (self.on_complete)(task, self.records[task].insert(record));
    }

    /// An attempt's worker died — the fault injector killed it at dequeue, or
    /// the evaluation panicked. A simulated worker absorbs the death, then
    /// the task is retried at the back of the queue or, out of attempts,
    /// failed.
    fn death(&mut self, task: usize, panicked: bool) {
        let worker = self.workers.absorb_death(self.config);
        let chain = &mut self.chains[task];
        let attempt = chain.attempt;
        let (lost, retry) = chain.die(self.faults, task, panicked, self.config.max_attempts);
        self.lost_minutes += lost;
        if self.obs_on {
            self.obs.counter_add(names::C_DEATHS, 1);
            let mut ev = Event::instant(
                names::SCHED_DEATH,
                cats::SCHED,
                self.span.with_task(task as u32, attempt),
            );
            ev.args = vec![("lost_min", lost), ("panicked", if panicked { 1.0 } else { 0.0 })];
            self.obs.record(ev);
        }
        let Some(backoff) = retry else {
            let (value, minutes) = (Err(TaskError::WorkerFailed), self.chains[task].lost);
            self.finalize(task, TaskRecord { value, minutes, worker, attempts: attempt });
            return;
        };
        self.backoff_minutes += backoff;
        if self.obs_on {
            self.obs.counter_add(names::C_RETRIES, 1);
            self.obs.observe(names::H_BACKOFF_MIN, backoff);
            let mut ev = Event::instant(
                names::SCHED_BACKOFF,
                cats::SCHED,
                self.span.with_task(task as u32, attempt + 1),
            );
            ev.args = vec![("backoff_min", backoff)];
            self.obs.record(ev);
        }
        self.fifo.push_back(task);
    }
}

impl<J: Clone, T> Pool<'_, J, T> {
    /// Run one batch on this pool: every input evaluated with full
    /// supervision (see [`run_batch_supervised`] for the contract of
    /// `estimate` and `on_complete`), records in input order.
    ///
    /// The driver emits supervision events (batch submission, worker deaths,
    /// backoff) and counters under `span` — the caller's `(seed, run, gen)`
    /// context; per-task subspans derive from it. With the default
    /// [`NoopRecorder`](dphpo_obs::NoopRecorder) every instrumentation site
    /// is a single `enabled()` branch, and nothing about scheduling changes:
    /// every supervision decision is taken on the driver thread, so the
    /// records, the report, and the fault replay contract are bit-identical
    /// with telemetry on or off.
    ///
    /// The batch returns once every job it queued has come back, so the pool
    /// is free for the next batch.
    #[allow(clippy::too_many_arguments)]
    pub fn run_batch<E, H>(
        &self,
        inputs: &[J],
        estimate: E,
        config: &PoolConfig,
        faults: &FaultInjector,
        on_complete: H,
        obs: &dyn Recorder,
        span: SpanCtx,
    ) -> (Vec<TaskRecord<T>>, PoolReport)
    where
        E: Fn(usize, &J) -> f64,
        H: FnMut(usize, &TaskRecord<T>),
    {
        assert!(config.n_workers > 0, "pool needs at least one worker");
        assert!(config.max_attempts > 0, "max_attempts must be positive");
        let n = inputs.len();
        if n == 0 {
            return (Vec::new(), PoolReport::default());
        }

        // Telemetry is driver-side only, and the disabled path is one
        // branch per site.
        let obs_on = obs.enabled();
        if obs_on {
            obs.gauge_set(names::G_QUEUE_DEPTH, n as f64);
            let mut ev = Event::instant(names::SCHED_SUBMIT, cats::SCHED, span);
            ev.args = vec![("n_tasks", n as f64), ("n_workers", config.n_workers as f64)];
            obs.record(ev);
        }

        let mut batch = Batch {
            config,
            faults,
            obs,
            obs_on,
            span,
            on_complete,
            fifo: (0..n).collect(),
            workers: SimulatedWorkers::new(config.n_workers),
            chains: (0..n).map(|i| Chain::new(estimate(i, &inputs[i]))).collect(),
            records: (0..n).map(|_| None).collect(),
            counts: TaskCounts::default(),
            lost_minutes: 0.0,
            backoff_minutes: 0.0,
        };

        let mut in_flight = 0usize;
        loop {
            // Dequeue in order while a simulated worker is left to dequeue.
            // The fault injector speaks here, on the driver: an attempt it kills
            // never reaches a thread, and everything behind a death that
            // leaves no worker alive never starts.
            while batch.workers.alive > 0 {
                let Some(task) = batch.fifo.pop_front() else { break };
                let attempt = batch.chains[task].attempt;
                if faults.task_kills_worker(task, attempt) {
                    batch.death(task, false);
                    continue;
                }
                self.dispatch(Job { task, attempt, input: inputs[task].clone() });
                in_flight += 1;
            }
            // Done when nothing is on a thread: the queue is then empty, or
            // the pool is dead and what never started fails below.
            if in_flight == 0 {
                break;
            }
            let Completion { task, worker, result } = self.recv();
            in_flight -= 1;
            match result {
                JobResult::Done(outcome) => {
                    let (value, minutes) = classify(outcome);
                    let attempts = batch.chains[task].attempt;
                    batch.finalize(task, TaskRecord { value, minutes, worker, attempts });
                }
                // A panicking evaluation is a worker death (the documented
                // contract) — not a silent hang.
                JobResult::Panicked => batch.death(task, true),
            }
        }

        // If every worker died with work outstanding, fail the rest (a
        // retry re-queued onto a dead pool ends here too). An orphan's
        // current attempt never ran: its record counts the one before.
        for task in 0..n {
            if batch.records[task].is_none() {
                let chain = &batch.chains[task];
                let (value, minutes) = (Err(TaskError::WorkerFailed), chain.lost);
                let (worker, attempts) = (usize::MAX, chain.attempt - 1);
                batch.finalize(task, TaskRecord { value, minutes, worker, attempts });
            }
        }
        let Batch { workers, chains, records, counts, lost_minutes, backoff_minutes, .. } = batch;
        let results: Vec<TaskRecord<T>> =
            records.into_iter().map(|record| record.expect("every task ends")).collect();
        let mut report = PoolReport {
            lost_minutes,
            backoff_minutes,
            quarantined_workers: workers.quarantined,
            ..counts.report_since(&TaskCounts::default())
        };
        if obs_on {
            // Not journaled; the `side.` prefix keeps it out of the
            // deterministic exports.
            obs.gauge_set(names::G_QUARANTINED, report.quarantined_workers as f64);
        }

        // Physical threads race for tasks in real time (they finish almost
        // instantly), so the *simulated* wall clock is reconstructed by list-
        // scheduling the charged minutes onto the worker slots: each charge goes
        // to the simulated-least-loaded worker, exactly how a Dask worker pool
        // with one task per node drains a queue. Charges are applied in a fixed
        // order (final records, then per-task retry losses) so the makespan is
        // deterministic. Each charge is also tagged with its utilization
        // category (busy / lost-to-death) so the per-worker partition
        // invariant holds by construction. Where a final record lands is
        // its placement: the lane and start a trace draws it at.
        let mut per_worker = vec![0.0f64; config.n_workers];
        let mut busy = vec![0.0f64; config.n_workers];
        let mut lost_death = vec![0.0f64; config.n_workers];
        let mut assign = |minutes: f64, category: &mut [f64]| {
            let (slot, &start) = per_worker
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("busy minutes are finite"))
                .expect("at least one worker");
            per_worker[slot] += minutes;
            category[slot] += minutes;
            (slot, start)
        };
        report.placements = results
            .iter()
            .zip(&chains)
            .map(|(record, chain)| match lost_beside(record, chain.lost) {
                Some(_) => assign(record.minutes, &mut busy),
                None => assign(record.minutes, &mut lost_death),
            })
            .collect();
        for (record, chain) in results.iter().zip(&chains) {
            if let Some(lost) = lost_beside(record, chain.lost).filter(|&lost| lost > 0.0) {
                assign(lost, &mut lost_death);
            }
        }
        report.makespan_minutes = per_worker.iter().copied().fold(0.0, f64::max);
        // Backoff is idle waiting, not busy time: it extends a slot's wall
        // clock without entering the makespan. Each task's accumulated backoff
        // is list-scheduled (in task order) onto the slot with the smallest
        // charged-plus-backoff total, yielding a deterministic backoff-
        // inclusive wall clock.
        let mut backoff_slot = vec![0.0f64; config.n_workers];
        for minutes in chains.iter().map(|chain| chain.backoff).filter(|&m| m > 0.0) {
            let (slot, _) = per_worker
                .iter()
                .zip(&backoff_slot)
                .map(|(charged, waiting)| charged + waiting)
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("minutes are finite"))
                .expect("at least one worker");
            backoff_slot[slot] += minutes;
        }
        let wall = per_worker
            .iter()
            .zip(&backoff_slot)
            .map(|(charged, waiting)| charged + waiting)
            .fold(0.0, f64::max);
        report.idle_minutes = per_worker
            .iter()
            .zip(&backoff_slot)
            .map(|(charged, waiting)| wall - charged - waiting)
            .collect();
        report.wall_minutes = wall;
        report.per_worker_minutes = per_worker;
        report.busy_minutes = busy;
        report.lost_death_minutes = lost_death;
        report.backoff_slot_minutes = backoff_slot;
        if obs_on {
            let busy_total: f64 = report.busy_minutes.iter().sum();
            let capacity = wall * config.n_workers as f64;
            let pct = if capacity > 0.0 { busy_total / capacity * 100.0 } else { 0.0 };
            obs.gauge_set(names::G_UTIL_BUSY_PCT, pct);
        }
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_eval(minutes: f64) -> impl Fn(&TaskCtx<'_>, &u64) -> EvalOutcome<u64> + Sync {
        move |_, &x| EvalOutcome { value: Ok(x * 2), minutes }
    }

    #[test]
    fn all_tasks_complete_without_faults() {
        let inputs: Vec<u64> = (0..20).collect();
        let config = PoolConfig { n_workers: 4, ..PoolConfig::default() };
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(10.0), |_, _| TIMEOUT_MINUTES,
            &config, &FaultInjector::none(), |_, _| {},
        );
        assert_eq!(records.len(), 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(*r.value.as_ref().unwrap(), (i as u64) * 2);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.minutes, 10.0);
        }
        assert_eq!(report.worker_deaths, 0);
        assert_eq!(report.lost_minutes, 0.0);
        // 20 ten-minute tasks over 4 workers → 50 simulated minutes.
        assert!((report.makespan_minutes - 50.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_is_enforced_on_simulated_minutes() {
        let inputs = vec![1u64, 2, 3];
        let eval = |ctx: &TaskCtx<'_>, &x: &u64| EvalOutcome {
            value: Ok(x),
            minutes: if ctx.task == 1 { 150.0 } else { 60.0 },
        };
        let config = PoolConfig { n_workers: 2, ..PoolConfig::default() };
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES, &config, &FaultInjector::none(), |_, _| {},
        );
        assert!(records[0].value.is_ok());
        assert_eq!(
            records[1].value,
            Err(TaskError::Timeout { limit_minutes: 120.0 })
        );
        // The killed job is charged the full limit, not its would-be time.
        assert_eq!(records[1].minutes, 120.0);
        assert!(records[2].value.is_ok());
        assert_eq!(report.timeout_tasks, 1);
    }

    #[test]
    fn evaluation_failures_are_reported() {
        let inputs = vec![0u64, 1];
        let eval = |ctx: &TaskCtx<'_>, _: &u64| EvalOutcome {
            value: if ctx.task == 0 {
                Err(EvalFault::Failed("diverged".to_string()))
            } else {
                Ok(7u64)
            },
            minutes: 5.0,
        };
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES,
            &PoolConfig::default(), &FaultInjector::none(), |_, _| {},
        );
        assert_eq!(records[0].value, Err(TaskError::Failed("diverged".into())));
        assert_eq!(*records[1].value.as_ref().unwrap(), 7);
        assert_eq!(report.diverged_tasks, 1);
    }

    #[test]
    fn structured_divergence_and_cancellation_flow_through() {
        let inputs = vec![0u64, 1, 2];
        let eval = |ctx: &TaskCtx<'_>, _: &u64| EvalOutcome {
            value: match ctx.task {
                0 => Err(EvalFault::Diverged { step: 7, loss: f64::INFINITY }),
                1 => Err(EvalFault::Cancelled),
                _ => Ok(1u64),
            },
            minutes: 3.0,
        };
        let (records, report) = run_batch_supervised(
            &inputs,
            eval,
            |_, _| 3.0,
            &PoolConfig::default(),
            &FaultInjector::none(),
            |_, _| {},
        );
        assert_eq!(
            records[0].value,
            Err(TaskError::Diverged { step: 7, loss: f64::INFINITY })
        );
        assert_eq!(records[1].value, Err(TaskError::Cancelled));
        assert!(records[2].value.is_ok());
        assert_eq!(report.diverged_tasks, 1);
        assert_eq!(report.cancelled_tasks, 1);
    }

    #[test]
    fn deadline_fault_maps_to_timeout() {
        let inputs = vec![0u64];
        let eval = |_: &TaskCtx<'_>, _: &u64| EvalOutcome::<u64> {
            value: Err(EvalFault::Deadline),
            minutes: 120.0,
        };
        let (records, report) = run_batch_supervised(
            &inputs,
            eval,
            |_, _| 120.0,
            &PoolConfig::default(),
            &FaultInjector::none(),
            |_, _| {},
        );
        assert_eq!(records[0].value, Err(TaskError::Timeout { limit_minutes: 120.0 }));
        assert_eq!(records[0].minutes, 120.0);
        assert_eq!(report.timeout_tasks, 1);
    }

    #[test]
    fn worker_deaths_trigger_reassignment_without_nannies() {
        let inputs: Vec<u64> = (0..30).collect();
        let config = PoolConfig { n_workers: 8, nanny: false, max_attempts: 30 };
        let faults = FaultInjector::new(0.10, 42);
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(5.0), |_, _| TIMEOUT_MINUTES, &config, &faults, |_, _| {},
        );
        // With 10 % per-task deaths over 30 tasks, some deaths are certain
        // under this seed.
        assert!(report.worker_deaths > 0, "seed produced no deaths");
        // Lost node time from those deaths is now charged, not dropped.
        assert!(report.lost_minutes > 0.0, "deaths must charge partial minutes");
        // Every task still completes as long as a worker survives.
        let survivors = 8 - report.worker_deaths.min(7);
        if survivors > 0 {
            assert!(records.iter().all(|r| r.value.is_ok()));
            assert!(records.iter().any(|r| r.attempts > 1), "no task was retried");
        }
    }

    #[test]
    fn nannies_restart_workers() {
        let inputs: Vec<u64> = (0..40).collect();
        let config = PoolConfig { n_workers: 2, nanny: true, max_attempts: 50 };
        let faults = FaultInjector::new(0.2, 7);
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(1.0), |_, _| TIMEOUT_MINUTES, &config, &faults, |_, _| {},
        );
        assert!(report.worker_deaths > 0);
        // With nannies, workers always come back, so everything finishes.
        assert!(records.iter().all(|r| r.value.is_ok()));
    }

    #[test]
    fn exhausted_attempts_fail_the_task_and_charge_lost_minutes() {
        let inputs = vec![0u64];
        let config = PoolConfig {
            n_workers: 1,
            nanny: true,
            max_attempts: 2,
        };
        // Certain-death injector: the task can never complete.
        let faults = FaultInjector::new(0.999, 3);
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(1.0), |_, _| TIMEOUT_MINUTES, &config, &faults, |_, _| {},
        );
        assert_eq!(records[0].value, Err(TaskError::WorkerFailed));
        assert_eq!(records[0].attempts, 2);
        assert_eq!(report.worker_deaths, 2);
        assert_eq!(report.exhausted_tasks, 1);
        // The two dead attempts burned partial minutes of the 120-minute
        // estimate — the record and the makespan must reflect that loss.
        assert!(records[0].minutes > 0.0, "dead attempts must charge partial minutes");
        assert!((records[0].minutes - report.lost_minutes).abs() < 1e-12);
        assert!((report.makespan_minutes - report.lost_minutes).abs() < 1e-12);
        // Two death rolls → one retried task, one retry at base backoff.
        assert_eq!(report.retried_tasks, 1);
        assert!((report.backoff_minutes - 1.0).abs() < 1e-12, "one retry at base backoff");
    }

    #[test]
    fn backoff_doubles_per_retry_under_both_schedulers() {
        for retry in 1..=4u32 {
            assert_eq!(backoff_minutes(retry), 1.0 * 2.0f64.powi(retry as i32 - 1));
        }
        // Three deaths, then success: retries 1, 2 and 3 wait 1 + 2 + 4
        // minutes, whichever scheduler runs the chain.
        let eval = |ctx: &TaskCtx<'_>, &x: &u64| {
            assert!(ctx.attempt > 3, "attempt {} dies", ctx.attempt);
            EvalOutcome { value: Ok::<u64, EvalFault>(x), minutes: 5.0 }
        };
        let config = PoolConfig { n_workers: 1, nanny: true, max_attempts: 4 };
        let faults = FaultInjector::none();
        let (records, report) =
            run_batch_supervised(&[9u64], eval, |_, _| 5.0, &config, &faults, |_, _| {});
        assert_eq!((records[0].attempts, report.worker_deaths), (4, 3));
        assert_eq!(report.backoff_minutes, 7.0);
        let window =
            crate::stream::run_stream_window(&[(0, 0, 9u64)], eval, |_, _| 5.0, &config, &faults);
        assert_eq!((window[0].record.attempts, window[0].deaths), (4, 3));
        assert_eq!(window[0].backoff_minutes, 7.0);
    }

    #[test]
    fn panicking_eval_is_a_worker_death_not_a_hang() {
        // Regression: without catch_unwind the panicked task never reported
        // back and the driver spun on recv_timeout forever.
        let inputs = vec![0u64, 1, 2];
        let eval = |ctx: &TaskCtx<'_>, &x: &u64| {
            if ctx.task == 1 {
                panic!("evaluation blew up");
            }
            EvalOutcome { value: Ok::<u64, EvalFault>(x * 2), minutes: 5.0 }
        };
        let config = PoolConfig { n_workers: 2, nanny: true, max_attempts: 2 };
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES, &config, &FaultInjector::none(), |_, _| {},
        );
        assert!(records[0].value.is_ok());
        assert!(records[2].value.is_ok());
        // The panicking task dies on every attempt and exhausts retries.
        assert_eq!(records[1].value, Err(TaskError::WorkerFailed));
        assert_eq!(report.worker_deaths, 2);
        // A panic gives no progress information: full estimate written off.
        assert_eq!(records[1].minutes, 240.0);
    }

    #[test]
    fn panicking_eval_without_nanny_still_terminates() {
        let inputs = vec![0u64];
        let eval = |_: &TaskCtx<'_>, _: &u64| -> EvalOutcome<u64> { panic!("boom") };
        let config = PoolConfig { n_workers: 1, nanny: false, max_attempts: 3 };
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES, &config, &FaultInjector::none(), |_, _| {},
        );
        assert_eq!(records[0].value, Err(TaskError::WorkerFailed));
        assert_eq!(report.worker_deaths, 1);
    }

    #[test]
    fn repeated_deaths_quarantine_a_worker_slot() {
        let inputs = vec![0u64];
        // Deaths land round-robin, so both slots reach QUARANTINE_DEATHS:
        // the one that gets there first retires, and the survivor never
        // does (it is the last slot alive).
        let max_attempts = 2 * QUARANTINE_DEATHS;
        let config = PoolConfig { n_workers: 2, nanny: true, max_attempts };
        let faults = FaultInjector::new(0.999, 3);
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(1.0), |_, _| TIMEOUT_MINUTES, &config, &faults, |_, _| {},
        );
        assert_eq!(records[0].value, Err(TaskError::WorkerFailed));
        assert_eq!(report.worker_deaths, max_attempts as usize);
        assert_eq!(report.quarantined_workers, 1);
    }

    #[test]
    fn a_detached_context_is_never_cancelled() {
        let ctx = TaskCtx::detached(3);
        assert!(!ctx.is_cancelled());
        assert_eq!(ctx.task, 3);
    }

    #[test]
    fn makespan_reflects_load_balance() {
        // 5 tasks of 10 min on 5 workers → 10 min; on 1 worker → 50 min.
        let inputs: Vec<u64> = (0..5).collect();
        let wide = PoolConfig { n_workers: 5, ..PoolConfig::default() };
        let narrow = PoolConfig { n_workers: 1, ..PoolConfig::default() };
        let (_, r_wide) = run_batch_supervised(
            &inputs, quick_eval(10.0), |_, _| TIMEOUT_MINUTES,
            &wide, &FaultInjector::none(), |_, _| {},
        );
        let (_, r_narrow) = run_batch_supervised(
            &inputs, quick_eval(10.0), |_, _| TIMEOUT_MINUTES,
            &narrow, &FaultInjector::none(), |_, _| {},
        );
        assert!((r_wide.makespan_minutes - 10.0).abs() < 1e-9);
        assert!((r_narrow.makespan_minutes - 50.0).abs() < 1e-9);
    }

    #[test]
    fn every_record_is_placed_back_to_back_on_a_least_loaded_slot() {
        let inputs: Vec<u64> = (0..24).collect();
        let eval = |ctx: &TaskCtx<'_>, &x: &u64| EvalOutcome {
            value: Ok(x),
            minutes: 5.0 + (ctx.task % 7) as f64,
        };
        let config = PoolConfig { n_workers: 4, nanny: true, max_attempts: 2 };
        // Deaths, retries and an exhausted task: every terminal record, the
        // exhausted one included, is placed slot by slot in task order.
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES, &config, &FaultInjector::new(0.3, 11), |_, _| {},
        );
        assert!(report.worker_deaths > 0 && report.retried_tasks > 0 && report.exhausted_tasks > 0);
        assert_eq!(report.placements.len(), records.len());
        let mut clock = vec![0.0f64; config.n_workers];
        for (task, (record, &(slot, start))) in records.iter().zip(&report.placements).enumerate() {
            assert!(slot < config.n_workers, "task {task} placed on slot {slot}");
            assert_eq!(start, clock[slot], "task {task}: slot {slot} is not back to back");
            assert_eq!(start, clock.iter().copied().fold(f64::INFINITY, f64::min));
            clock[slot] += record.minutes;
        }
        // Fault-free, the latest span end is the makespan.
        let (records, report) = run_batch_supervised(
            &inputs, eval, |_, _| TIMEOUT_MINUTES, &config, &FaultInjector::none(), |_, _| {},
        );
        let end = records
            .iter()
            .zip(&report.placements)
            .map(|(record, &(_, start))| start + record.minutes)
            .fold(0.0, f64::max);
        assert_eq!(end, report.makespan_minutes);
    }

    #[test]
    fn worker_death_draws_are_the_ones_every_journal_replays() {
        // Resume re-derives every death from these hashes, so they are
        // pinned to the values journals were written with.
        let faults = FaultInjector::new(0.37, 0xabcdef);
        faults.set_batch_key(5);
        let killed: Vec<(usize, u32)> = (0..12)
            .flat_map(|task| (1..=3).map(move |attempt| (task, attempt)))
            .filter(|&(task, attempt)| faults.task_kills_worker(task, attempt))
            .collect();
        assert_eq!(
            killed,
            [(1, 1), (2, 1), (3, 1), (5, 3), (6, 2), (7, 1), (9, 2), (10, 1), (10, 2), (11, 1), (11, 3)]
        );
        let fraction_bits = [(0, 1), (3, 2), (11, 3)].map(|(t, a)| faults.death_fraction(t, a).to_bits());
        assert_eq!(fraction_bits, [0x3fe9bc6fe14856bf, 0x3feb91d1f0dcd888, 0x3fc1113d538b685c]);
        assert!(!FaultInjector::none().task_kills_worker(1, 1));
    }

    #[test]
    fn empty_input_is_fine() {
        let inputs: Vec<u64> = vec![];
        let (records, report) = run_batch_supervised(
            &inputs, quick_eval(1.0), |_, _| TIMEOUT_MINUTES,
            &PoolConfig::default(), &FaultInjector::none(), |_, _| {},
        );
        assert!(records.is_empty());
        assert_eq!(report.makespan_minutes, 0.0);
    }
}
