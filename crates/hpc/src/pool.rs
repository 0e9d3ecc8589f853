//! The physical executor: a fixed set of threads that live as long as the
//! campaign (or the one-shot call) that opened them, and do nothing but
//! evaluate.
//!
//! Everything *simulated* — which worker a fault kills, whether a nanny
//! restarts it, quarantine, the pool dying, retry chains, the simulated
//! clock — is decided on the driver thread by the batch scheduler
//! ([`Pool::run_batch`]) or the stream scheduler ([`Pool::stream`]). A pool
//! thread never sees the fault injector: it takes the next job off one FIFO,
//! runs the evaluation under `catch_unwind`, and sends the outcome (or "it
//! panicked") back. So a simulated worker death costs no real thread, and a
//! thread is idle only when the FIFO is empty.
//!
//! [`with_pool`] scopes the threads (`std::thread::scope`), which is what
//! lets the evaluation closure borrow from its caller; jobs themselves are
//! owned values, because they outlive the driver-side call that queued them
//! (a steady-state campaign queues evaluations well before it takes their
//! results).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam::channel::{self, Receiver, Sender};

use crate::scheduler::{EvalOutcome, TaskCtx, TIMEOUT_MINUTES};

/// One attempt of one task, as handed to a pool thread.
pub(crate) struct Job<J> {
    pub task: usize,
    pub attempt: u32,
    pub input: J,
}

/// What became of a [`Job`].
pub(crate) enum JobResult<T> {
    /// The evaluation returned.
    Done(EvalOutcome<T>),
    /// The evaluation panicked — a worker death, by contract.
    Panicked,
}

/// A finished [`Job`], identified as the driver queued it.
pub(crate) struct Completion<T> {
    pub task: usize,
    /// Index of the pool thread that ran it.
    pub worker: usize,
    pub result: JobResult<T>,
}

/// Driver-side handle of a running pool; see [`with_pool`].
///
/// One driver at a time: a batch ([`Pool::run_batch`]) returns only when
/// every job it queued is accounted for, and a [`Stream`](crate::Stream)
/// must have every submitted task taken before the pool serves anything
/// else — completions carry no owner tag.
pub struct Pool<'p, J, T> {
    jobs: Sender<Job<J>>,
    done: Receiver<Completion<T>>,
    stop: &'p AtomicBool,
}

impl<J, T> Pool<'_, J, T> {
    /// Queue a job. Every queued job produces exactly one [`Completion`]
    /// while this handle lives.
    pub(crate) fn dispatch(&self, job: Job<J>) {
        self.jobs.send(job).unwrap_or_else(|_| panic!("pool threads outlive the pool handle"));
    }

    /// Block for the next completion, in the order jobs finish.
    pub(crate) fn recv(&self) -> Completion<T> {
        self.done.recv().expect("pool threads outlive the pool handle")
    }
}

impl<J, T> Drop for Pool<'_, J, T> {
    /// Shut down: running evaluations see [`TaskCtx::is_cancelled`] at their
    /// next check, queued jobs are dropped unrun, and the threads exit when the
    /// FIFO (whose sender drops with this handle) is empty — so a driver
    /// that leaves early (an interrupted campaign, an unwinding panic) waits
    /// for one check interval, not for the work it had queued.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// OS threads for a pool of `n_workers` *simulated* workers: one per
/// simulated worker, capped at what the machine runs at once. The simulated
/// width is the experiment — configured, fingerprinted, journaled; this is
/// the machine — derived here and nowhere else, and never written down.
/// Schedules, records and reports do not depend on it (the schedulers take
/// every decision on the driver thread), so it needs no option.
pub fn physical_threads(n_workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    n_workers.clamp(1, cores)
}

/// Open a pool of exactly `n_threads` threads evaluating with `eval`, run
/// `body` against it on the calling thread, shut the pool down and join it.
/// Callers size it with [`physical_threads`]; only tests that force an
/// interleaving pass a count of their own.
///
/// `eval(ctx, &input)` is the only code that runs on pool threads; a panic
/// inside it is caught and reported as a worker death.
pub fn with_pool<J, T, F, R>(
    n_threads: usize,
    eval: F,
    body: impl FnOnce(&Pool<'_, J, T>) -> R,
) -> R
where
    J: Send,
    T: Send,
    F: Fn(&TaskCtx<'_>, &J) -> EvalOutcome<T> + Sync,
{
    assert!(n_threads > 0, "pool needs at least one worker");
    let (jobs, job_rx) = channel::unbounded::<Job<J>>();
    let (done_tx, done) = channel::unbounded::<Completion<T>>();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for worker in 0..n_threads {
            let (job_rx, done_tx) = (job_rx.clone(), done_tx.clone());
            let (eval, stop) = (&eval, &stop);
            scope.spawn(move || work(worker, &job_rx, &done_tx, eval, stop));
        }
        drop((job_rx, done_tx));
        let pool = Pool { jobs, done, stop: &stop };
        body(&pool)
    })
}

/// A pool thread's whole life.
fn work<J, T, F>(
    worker: usize,
    jobs: &Receiver<Job<J>>,
    done: &Sender<Completion<T>>,
    eval: &F,
    stop: &AtomicBool,
) where
    F: Fn(&TaskCtx<'_>, &J) -> EvalOutcome<T>,
{
    while let Ok(Job { task, attempt, input }) = jobs.recv() {
        // Shutting down: the handle — the only receiver — is gone, so what
        // is still queued is dropped unrun.
        if stop.load(Ordering::SeqCst) {
            continue;
        }
        let ctx = TaskCtx {
            task,
            attempt,
            deadline_minutes: Some(TIMEOUT_MINUTES),
            stop: Some(stop),
        };
        let result = match catch_unwind(AssertUnwindSafe(|| eval(&ctx, &input))) {
            Ok(outcome) => JobResult::Done(outcome),
            Err(_) => JobResult::Panicked,
        };
        // Once the handle is gone nobody is waiting for this result.
        let _ = done.send(Completion { task, worker, result });
    }
}
