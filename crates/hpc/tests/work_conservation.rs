//! Work conservation of the physical pool: a *simulated* worker death is
//! bookkeeping — no real thread exits or idles because of it — while the
//! records and the report stay what the fault plan dictates.
//!
//! Interleavings are forced with latches (a bounded wait, so a regression
//! fails instead of hanging), never with sleeps. A latch between two
//! evaluations needs two real threads whatever the host has, so these tests
//! open their pool themselves — [`with_pool`] with one thread per simulated
//! worker — where the one-shot wrappers would take the machine's count
//! ([`physical_threads`]). Looped by `scripts/verify.sh` stage 6.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use dphpo_hpc::{
    physical_threads, run_batch_supervised, with_pool, EvalOutcome, FaultInjector, PoolConfig,
    PoolReport, StreamTaskReport, TaskCtx, TaskError, TaskRecord,
};
use dphpo_obs::{SpanCtx, NOOP};

/// Long enough that only a lost wake-up or a missing thread can exhaust it.
const PATIENCE: Duration = Duration::from_secs(20);

/// A meeting point for `parties` evaluations: each blocks until all have
/// arrived. An arrival that waits out [`PATIENCE`] records the failure and
/// lets everyone go.
struct Rendezvous {
    arrived: Mutex<usize>,
    all_here: Condvar,
    parties: usize,
    timed_out: AtomicBool,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Rendezvous {
            arrived: Mutex::new(0),
            all_here: Condvar::new(),
            parties,
            timed_out: AtomicBool::new(false),
        }
    }

    fn meet(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_here.notify_all();
        let (_guard, wait) =
            self.all_here.wait_timeout_while(arrived, PATIENCE, |n| *n < self.parties).unwrap();
        if wait.timed_out() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
    }
}

/// A gate that stays shut until [`Latch::open`]; a wait that outlasts
/// [`PATIENCE`] records the failure and goes through.
struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
    timed_out: AtomicBool,
}

impl Latch {
    fn new() -> Self {
        Latch { open: Mutex::new(false), opened: Condvar::new(), timed_out: AtomicBool::new(false) }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let open = self.open.lock().unwrap();
        let (_guard, wait) = self.opened.wait_timeout_while(open, PATIENCE, |open| !*open).unwrap();
        if wait.timed_out() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
    }
}

/// [`run_batch_supervised`] on exactly `config.n_workers` OS threads.
fn run_batch_pinned<T: Send>(
    inputs: &[u64],
    eval: impl Fn(&TaskCtx<'_>, &u64) -> EvalOutcome<T> + Sync,
    estimate: impl Fn(usize, &u64) -> f64,
    config: &PoolConfig,
    faults: &FaultInjector,
    on_complete: impl FnMut(usize, &TaskRecord<T>),
) -> (Vec<TaskRecord<T>>, PoolReport) {
    with_pool(config.n_workers, eval, |pool| {
        pool.run_batch(inputs, estimate, config, faults, on_complete, &NOOP, SpanCtx::default())
    })
}

/// `run_stream_window` on exactly `config.n_workers` OS threads: submit every
/// `(task, slot, input)`, then take them in order.
fn run_stream_pinned<T: Send>(
    tasks: &[(usize, usize, u64)],
    eval: impl Fn(&TaskCtx<'_>, &u64) -> EvalOutcome<T> + Sync,
    estimate: f64,
    config: &PoolConfig,
    faults: &FaultInjector,
) -> Vec<StreamTaskReport<T>> {
    with_pool(config.n_workers, eval, |pool| {
        let mut stream = pool.stream(config);
        for (task, _, input) in tasks {
            stream.submit(faults, *task, *input, estimate);
        }
        tasks.iter().map(|(task, slot, _)| stream.take(faults, *task, *slot)).collect()
    })
}

fn no_nanny_pair() -> PoolConfig {
    PoolConfig { n_workers: 2, nanny: false, max_attempts: 3 }
}

/// The `(task, attempt)` pairs the plan kills among eight tasks, read off
/// through the public API: with nannies on and a roomy pool (no slot of
/// eight collects three deaths), a task that needed `k` attempts lost
/// exactly its first `k − 1`.
fn killed_attempts(faults: &FaultInjector) -> Vec<(usize, u32)> {
    let inputs: Vec<u64> = (0..8).collect();
    let probe = PoolConfig { n_workers: 8, nanny: true, ..no_nanny_pair() };
    let (records, _) = run_batch_supervised(
        &inputs,
        |_: &TaskCtx<'_>, &x: &u64| EvalOutcome { value: Ok(x), minutes: 1.0 },
        |_, _| 1.0,
        &probe,
        faults,
        |_, _| {},
    );
    records
        .iter()
        .enumerate()
        .flat_map(|(task, r)| {
            assert!(r.value.is_ok(), "probe plan exhausts task {task}");
            (1..r.attempts).map(move |attempt| (task, attempt))
        })
        .collect()
}

#[test]
fn a_simulated_death_costs_no_real_thread() {
    // The plan kills task 1's first attempt and nothing else, so one of the
    // two simulated workers is gone for the rest of the batch.
    let faults = || FaultInjector::new(0.15, 83);
    assert_eq!(killed_attempts(&faults()), vec![(1, 1)]);

    // Tasks 4 and 5 sit well behind the death in the queue and can only
    // both be inside their evaluation if two real threads still work.
    let together = Rendezvous::new(2);
    let inputs: Vec<u64> = (0..8).collect();
    let (records, report) = run_batch_pinned(
        &inputs,
        |ctx: &TaskCtx<'_>, &x: &u64| {
            if ctx.task == 4 || ctx.task == 5 {
                together.meet();
            }
            EvalOutcome { value: Ok(x * 2), minutes: 10.0 }
        },
        |_, _| 10.0,
        &no_nanny_pair(),
        &faults(),
        |_, _| {},
    );
    assert!(
        !together.timed_out.load(Ordering::SeqCst),
        "tasks 4 and 5 never overlapped: a real thread went away with the simulated worker"
    );

    // What the fault plan dictates, as before: everything completes on the
    // survivor, task 1 on its second attempt after one base backoff, and
    // the dead attempt's partial minutes are charged.
    for (task, r) in records.iter().enumerate() {
        assert_eq!(r.value, Ok(task as u64 * 2));
        assert_eq!(r.attempts, if task == 1 { 2 } else { 1 }, "task {task}");
        assert_eq!(r.minutes, 10.0);
    }
    assert_eq!(report.worker_deaths, 1);
    assert_eq!(report.retried_tasks, 1);
    assert_eq!(report.exhausted_tasks, 0);
    assert_eq!(report.backoff_minutes, 1.0);
    assert!(report.lost_minutes > 0.0 && report.lost_minutes < 10.0);
    assert_eq!(report.lost_death_minutes.iter().sum::<f64>(), report.lost_minutes);
    assert_eq!(report.busy_minutes.iter().sum::<f64>(), 80.0);
}

#[test]
fn the_last_death_fails_what_is_dequeued_after_it_and_nothing_in_flight() {
    // First attempts of tasks 1 and 5 die: after the second death no
    // simulated worker is left.
    let faults = || FaultInjector::new(0.15, 221);
    assert_eq!(killed_attempts(&faults()), vec![(1, 1), (5, 1)]);

    // Tasks 3 and 4 are dequeued between the two deaths. They meet inside
    // their evaluations — both real threads are still at work after the
    // first death — and are therefore in flight when the pool dies.
    let together = Rendezvous::new(2);
    let inputs: Vec<u64> = (0..8).collect();
    let mut completed = Vec::new();
    let (records, report) = run_batch_pinned(
        &inputs,
        |ctx: &TaskCtx<'_>, &x: &u64| {
            if ctx.task == 3 || ctx.task == 4 {
                together.meet();
            }
            EvalOutcome { value: Ok(x + 100), minutes: 10.0 }
        },
        |_, _| 10.0,
        &no_nanny_pair(),
        &faults(),
        |task, _| completed.push(task),
    );
    assert!(!together.timed_out.load(Ordering::SeqCst), "tasks 3 and 4 never overlapped");

    // Dequeued before the last death: recorded, in flight or not.
    for task in [0, 2, 3, 4] {
        assert_eq!(records[task].value, Ok(task as u64 + 100), "task {task}");
        assert_eq!(records[task].attempts, 1);
    }
    // The two killed tasks burned one attempt each; their retries, queued
    // behind the last death, never start. Tasks 6 and 7 never start at all.
    for (task, attempts) in [(1, 1), (5, 1), (6, 0), (7, 0)] {
        assert_eq!(records[task].value, Err(TaskError::WorkerFailed), "task {task}");
        assert_eq!(records[task].attempts, attempts, "task {task}");
        assert_eq!(records[task].worker, usize::MAX, "task {task} was orphaned");
    }
    assert_eq!(records[6].minutes, 0.0);
    assert!(records[1].minutes > 0.0 && records[5].minutes > 0.0);
    assert_eq!(report.worker_deaths, 2);
    assert_eq!(report.retried_tasks, 2);
    assert_eq!(report.exhausted_tasks, 4);
    assert_eq!(report.busy_minutes.iter().sum::<f64>(), 40.0);
    assert_eq!(report.lost_minutes, records[1].minutes + records[5].minutes);
    // Every task finalised exactly once.
    completed.sort_unstable();
    assert_eq!(completed, (0..8).collect::<Vec<_>>());
}

#[test]
fn nothing_cancels_an_attempt_but_its_pool_shutting_down() {
    // Fault-plan deaths, a panic that is retried and one that exhausts its
    // task, under both schedulers: every evaluation polls `is_cancelled` on
    // the way in and on the way out, and none ever sees it set. A task has
    // one attempt queued or running at a time, so there is no loser to stop —
    // which is why an attempt carries no cancel token of its own.
    let faults = || FaultInjector::new(0.15, 221);
    assert_eq!(killed_attempts(&faults()), vec![(1, 1), (5, 1)]);
    let (polls, cancelled) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let poll = |ctx: &TaskCtx<'_>| {
        polls.fetch_add(1, Ordering::SeqCst);
        cancelled.fetch_add(usize::from(ctx.is_cancelled()), Ordering::SeqCst);
    };
    let eval = |ctx: &TaskCtx<'_>, &x: &u64| {
        poll(ctx);
        assert!(!(x == 3 && ctx.attempt == 1), "task 3 panics once");
        assert!(x != 6, "task 6 panics on every attempt");
        poll(ctx);
        EvalOutcome { value: Ok(x), minutes: 10.0 }
    };
    let config = PoolConfig { nanny: true, ..no_nanny_pair() };
    let inputs: Vec<u64> = (0..8).collect();
    let (records, report) =
        run_batch_pinned(&inputs, eval, |_, _| 10.0, &config, &faults(), |_, _| {});
    let tasks: Vec<(usize, usize, u64)> = (0..8).map(|i| (i, i % 2, i as u64)).collect();
    let window = run_stream_pinned(&tasks, eval, 10.0, &config, &faults());
    for (task, (batch, stream)) in records.iter().zip(&window).enumerate() {
        let expected = if task == 6 { Err(TaskError::WorkerFailed) } else { Ok(task as u64) };
        assert_eq!(batch.value, expected, "task {task} (batch)");
        assert_eq!(stream.record.value, expected, "task {task} (stream)");
        let attempts = match task {
            1 | 3 | 5 => 2,
            6 => 3,
            _ => 1,
        };
        assert_eq!((batch.attempts, stream.record.attempts), (attempts, attempts), "task {task}");
    }
    // Two by the plan, one retried panic, three panics of the exhausted task.
    assert_eq!(report.worker_deaths, 6);
    assert_eq!((report.retried_tasks, report.exhausted_tasks), (4, 1));
    // Per scheduler: seven tasks poll twice on their surviving attempt, and
    // the four panicking attempts poll once.
    assert_eq!(polls.load(Ordering::SeqCst), 2 * (7 * 2 + 4));
    assert_eq!(cancelled.load(Ordering::SeqCst), 0, "an attempt saw a live pool cancel it");

    // The shutdown flag is the one thing that does: an evaluation still
    // running when its driver leaves sees it at its next check.
    let (started, saw_shutdown) = (Latch::new(), AtomicBool::new(false));
    with_pool(
        1,
        |ctx: &TaskCtx<'_>, _: &u64| {
            started.open();
            let deadline = std::time::Instant::now() + PATIENCE;
            while !ctx.is_cancelled() && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            saw_shutdown.store(ctx.is_cancelled(), Ordering::SeqCst);
            EvalOutcome { value: Ok(0u64), minutes: 1.0 }
        },
        |pool| {
            pool.stream(&config).submit(&FaultInjector::none(), 0, 0u64, 1.0);
            started.wait();
        },
    );
    assert!(!started.timed_out.load(Ordering::SeqCst), "the evaluation never started");
    assert!(saw_shutdown.load(Ordering::SeqCst), "a dropped pool did not cancel what it ran");
}

#[test]
fn a_stream_runs_ahead_of_the_task_being_waited_for() {
    // Three tasks on two threads, taken in order: task 0 finishes only once
    // task 2 has started — the pool works through its queue while the
    // caller is still waiting for the first result.
    let handoff = Rendezvous::new(2);
    let tasks: Vec<(usize, usize, u64)> = (0..3).map(|i| (i, i % 2, i as u64)).collect();
    let reports = run_stream_pinned(
        &tasks,
        |ctx: &TaskCtx<'_>, &x: &u64| {
            if ctx.task == 0 || ctx.task == 2 {
                handoff.meet();
            }
            EvalOutcome { value: Ok(x), minutes: 5.0 }
        },
        5.0,
        &no_nanny_pair(),
        &FaultInjector::none(),
    );
    assert!(!handoff.timed_out.load(Ordering::SeqCst), "task 2 did not start while 0 ran");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.record.value, Ok(i as u64));
        assert_eq!(r.record.worker, i % 2, "charged to the slot it was taken for");
    }
}

#[test]
fn the_one_shot_forms_open_no_more_threads_than_the_machine_has() {
    // The paper's width: 100 simulated workers, one task each. The report is
    // the 100-slot one; the records say which pool thread ran each task, and
    // no index reaches the machine's core count.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(physical_threads(100), cores.min(100));
    assert_eq!(physical_threads(1), 1);
    let config = PoolConfig { n_workers: 100, ..no_nanny_pair() };
    let inputs: Vec<u64> = (0..100).collect();
    let (records, report) = run_batch_supervised(
        &inputs,
        |_: &TaskCtx<'_>, &x: &u64| EvalOutcome { value: Ok(x), minutes: 10.0 },
        |_, _| 10.0,
        &config,
        &FaultInjector::none(),
        |_, _| {},
    );
    assert_eq!(report.busy_minutes, vec![10.0; 100]);
    assert_eq!(report.makespan_minutes, 10.0);
    assert!(records.iter().all(|r| r.worker < cores), "a pool thread beyond the machine's cores");
}
