//! Property tests over the supervised scheduler's fault interleavings:
//! for any pool shape, death probability, retry budget and nanny mode, the
//! batch must terminate with exactly one terminal record per task, fire the
//! completion hook exactly once per task, and
//! never exceed the retry budget — even when the whole pool dies. And the
//! batch and stream schedulers must turn the same evaluation outcome into
//! the same terminal record.

use dphpo_hpc::{
    run_batch_supervised, run_stream_window, EvalFault, EvalOutcome, FaultInjector, PoolConfig,
    TaskCtx, TaskError, TaskRecord,
};
use proptest::prelude::*;

/// A deterministic evaluation: most tasks succeed, every fifth task fails
/// structurally (divergence), and minutes grow with the task index so the
/// makespan exercises the list-scheduling reconstruction.
fn eval(_ctx: &TaskCtx<'_>, &input: &u64) -> EvalOutcome<u64> {
    if input % 5 == 4 {
        EvalOutcome {
            value: Err(EvalFault::Diverged { step: input as usize, loss: 1e9 }),
            minutes: 1.0,
        }
    } else {
        EvalOutcome { value: Ok(input * input), minutes: 10.0 + input as f64 }
    }
}

/// Cost estimates with a deliberate heavy tail, so dead attempts charge
/// very different partial minutes across a batch.
fn estimate(task: usize, _: &u64) -> f64 {
    if task.is_multiple_of(7) {
        90.0
    } else {
        10.0 + task as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_fault_interleavings_terminate_with_exactly_one_record_per_task(
        n_workers in 1usize..6,
        n_tasks in 0usize..13,
        death_permille in 0usize..1000,
        max_attempts_raw in 1usize..5,
        nanny_bit in 0usize..2,
        fault_seed in 0i64..64,
    ) {
        let max_attempts = max_attempts_raw as u32;
        let nanny = nanny_bit == 1;
        let inputs: Vec<u64> = (0..n_tasks as u64).collect();
        let config = PoolConfig {
            n_workers,
            nanny,
            max_attempts,
        };
        let faults = FaultInjector::new(death_permille as f64 / 1000.0, fault_seed as u64);

        let mut completions = vec![0usize; n_tasks];
        let (records, report) = run_batch_supervised(
            &inputs,
            eval,
            estimate,
            &config,
            &faults,
            |task, _record| completions[task] += 1,
        );

        // Exactly one terminal record per task, in task order.
        prop_assert_eq!(records.len(), n_tasks);
        // The completion hook fired exactly `inputs.len()` times — once per
        // task, never zero (a hang) and never twice (a double-finalise).
        for (task, &count) in completions.iter().enumerate() {
            prop_assert_eq!(count, 1, "task {} finalised {} times", task, count);
        }

        let mut errors = 0usize;
        for (task, record) in records.iter().enumerate() {
            // The retry budget bounds every task's attempt count. Only a
            // task orphaned by whole-pool death (worker == usize::MAX) may
            // record zero attempts — it never started.
            prop_assert!(
                record.attempts <= max_attempts,
                "task {} took {} attempts with budget {}",
                task, record.attempts, max_attempts
            );
            prop_assert!(
                record.attempts >= 1 || record.worker == usize::MAX,
                "task {} has no attempts but was not orphaned", task
            );
            match &record.value {
                Ok(v) => {
                    prop_assert_eq!(*v, inputs[task] * inputs[task]);
                    prop_assert!(record.minutes > 0.0);
                }
                Err(TaskError::Speculated) => {
                    prop_assert!(false, "the reserved variant is never a record");
                }
                Err(_) => errors += 1,
            }
        }

        // The report's failure taxonomy partitions the error records.
        prop_assert_eq!(
            report.diverged_tasks
                + report.timeout_tasks
                + report.cancelled_tasks
                + report.exhausted_tasks,
            errors
        );
        prop_assert!(report.makespan_minutes >= 0.0);
        prop_assert!(report.lost_minutes >= 0.0);
        prop_assert!(report.backoff_minutes >= 0.0);
        if death_permille == 0 {
            prop_assert_eq!(report.worker_deaths, 0);
            prop_assert_eq!(report.exhausted_tasks, 0);
            prop_assert_eq!(report.backoff_minutes, 0.0);
        }
    }

    #[test]
    fn fault_interleavings_are_reproducible(
        n_workers in 1usize..5,
        death_permille in 0usize..900,
        max_attempts_raw in 1usize..4,
        fault_seed in 0i64..32,
    ) {
        let max_attempts = max_attempts_raw as u32;
        let inputs: Vec<u64> = (0..9).collect();
        let config = PoolConfig {
            n_workers,
            nanny: true,
            max_attempts,
        };
        let run = || {
            let faults = FaultInjector::new(death_permille as f64 / 1000.0, fault_seed as u64);
            run_batch_supervised(&inputs, eval, estimate, &config, &faults, |_, _| {})
        };
        let (a_records, a_report) = run();
        let (b_records, b_report) = run();
        for (a, b) in a_records.iter().zip(&b_records) {
            prop_assert_eq!(&a.value, &b.value);
            prop_assert_eq!(a.minutes, b.minutes);
            prop_assert_eq!(a.attempts, b.attempts);
        }
        prop_assert_eq!(a_report.makespan_minutes, b_report.makespan_minutes);
        prop_assert_eq!(a_report.worker_deaths, b_report.worker_deaths);
        prop_assert_eq!(a_report.retried_tasks, b_report.retried_tasks);
        prop_assert_eq!(a_report.lost_minutes, b_report.lost_minutes);
        prop_assert_eq!(a_report.backoff_minutes, b_report.backoff_minutes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Utilization accounting invariant: for every worker slot, the four
    /// categories (busy, lost-to-death, backoff, idle) exactly partition the
    /// backoff-inclusive wall clock — across any fault plan, retry budget
    /// and nanny mode.
    #[test]
    fn utilization_categories_partition_the_wall_clock(
        n_workers in 1usize..6,
        n_tasks in 0usize..13,
        death_permille in 0usize..1000,
        max_attempts_raw in 1usize..5,
        nanny_bit in 0usize..2,
        fault_seed in 0i64..64,
    ) {
        let inputs: Vec<u64> = (0..n_tasks as u64).collect();
        let config = PoolConfig {
            n_workers,
            nanny: nanny_bit == 1,
            max_attempts: max_attempts_raw as u32,
        };
        let faults = FaultInjector::new(death_permille as f64 / 1000.0, fault_seed as u64);
        let (_, report) = run_batch_supervised(
            &inputs, eval, estimate, &config, &faults, |_, _| {},
        );

        // An empty batch never spins the pool up: every aggregate is zero
        // and the per-worker vectors stay empty.
        let slots = if n_tasks == 0 { 0 } else { n_workers };
        if n_tasks == 0 {
            prop_assert_eq!(report.wall_minutes, 0.0);
            prop_assert_eq!(report.makespan_minutes, 0.0);
        }
        prop_assert_eq!(report.busy_minutes.len(), slots);
        prop_assert_eq!(report.idle_minutes.len(), slots);
        let tol = 1e-9 * (1.0 + report.wall_minutes.abs());
        for w in 0..slots {
            let busy = report.busy_minutes[w];
            let death = report.lost_death_minutes[w];
            let backoff = report.backoff_slot_minutes[w];
            let idle = report.idle_minutes[w];
            for v in [busy, death, backoff, idle] {
                prop_assert!(v >= -tol, "negative category on worker {}: {}", w, v);
            }
            // Charged categories partition the charged per-worker time...
            prop_assert!(
                (busy + death - report.per_worker_minutes[w]).abs() <= tol,
                "worker {} charged partition broken", w
            );
            // ...and all four partition the wall clock exactly.
            prop_assert!(
                (busy + death + backoff + idle - report.wall_minutes).abs() <= tol,
                "worker {}: {} + {} + {} + {} != wall {}",
                w, busy, death, backoff, idle, report.wall_minutes
            );
        }
        // Cross-checks against the batch-level aggregates.
        let lost: f64 = report.lost_death_minutes.iter().sum();
        prop_assert!((lost - report.lost_minutes).abs() <= tol);
        let backoff_total: f64 = report.backoff_slot_minutes.iter().sum();
        prop_assert!((backoff_total - report.backoff_minutes).abs() <= tol);
        let charged_max =
            report.per_worker_minutes.iter().copied().fold(0.0, f64::max);
        prop_assert_eq!(charged_max, report.makespan_minutes);
        prop_assert!(report.wall_minutes >= report.makespan_minutes - tol);
        if report.backoff_minutes == 0.0 {
            prop_assert_eq!(report.wall_minutes, report.makespan_minutes);
        }
    }
}

/// One task through each scheduler, same pool shape and fault plan (batch
/// key 0 on both sides): the batch record and the stream record.
fn one_task_both_ways(
    eval: fn(&TaskCtx<'_>, &u64) -> EvalOutcome<u64>,
    config: &PoolConfig,
    faults: impl Fn() -> FaultInjector,
) -> (TaskRecord<u64>, TaskRecord<u64>) {
    const ESTIMATE: f64 = 40.0;
    let (mut batch, _) =
        run_batch_supervised(&[7u64], eval, |_, _| ESTIMATE, config, &faults(), |_, _| {});
    let mut stream =
        run_stream_window(&[(0usize, 0usize, 7u64)], eval, |_, _| ESTIMATE, config, &faults());
    (batch.remove(0), stream.remove(0).record)
}

/// The two schedulers share one classification (timeouts charge the limit,
/// structured faults map onto `TaskError`) and the same death accounting,
/// so for the same outcome they must agree on value, minutes and attempts.
/// Nannies are on, so a death never retires the batch side's worker
/// mid-chain.
#[test]
fn batch_and_stream_schedulers_classify_alike() {
    let pool = PoolConfig { n_workers: 2, nanny: true, max_attempts: 3 };
    type Eval = fn(&TaskCtx<'_>, &u64) -> EvalOutcome<u64>;
    /// `(name, eval, expected value, expected minutes, expected attempts)`.
    type Case = (&'static str, Eval, Result<u64, TaskError>, f64, u32);
    let cases: [Case; 8] = [
        (
            "ok under the limit",
            |_, &x| EvalOutcome { value: Ok(x), minutes: 60.0 },
            Ok(7),
            60.0,
            1,
        ),
        (
            "ok over the limit",
            |_, &x| EvalOutcome { value: Ok(x), minutes: 150.0 },
            Err(TaskError::Timeout { limit_minutes: 120.0 }),
            120.0,
            1,
        ),
        (
            "failed",
            |_, _| EvalOutcome { value: Err(EvalFault::Failed("bad".into())), minutes: 3.0 },
            Err(TaskError::Failed("bad".into())),
            3.0,
            1,
        ),
        (
            "diverged",
            |_, _| EvalOutcome {
                value: Err(EvalFault::Diverged { step: 9, loss: 1e30 }),
                minutes: 4.0,
            },
            Err(TaskError::Diverged { step: 9, loss: 1e30 }),
            4.0,
            1,
        ),
        (
            "deadline at the limit",
            |_, _| EvalOutcome { value: Err(EvalFault::Deadline), minutes: 120.0 },
            Err(TaskError::Timeout { limit_minutes: 120.0 }),
            120.0,
            1,
        ),
        (
            "deadline before the limit",
            |_, _| EvalOutcome { value: Err(EvalFault::Deadline), minutes: 77.0 },
            Err(TaskError::Timeout { limit_minutes: 120.0 }),
            77.0,
            1,
        ),
        (
            "cancelled",
            |_, _| EvalOutcome { value: Err(EvalFault::Cancelled), minutes: 5.0 },
            Err(TaskError::Cancelled),
            5.0,
            1,
        ),
        // A panicking evaluation is a worker death that writes off the full
        // 40-minute estimate, on every one of the three attempts.
        (
            "panicking eval",
            |_, _| panic!("evaluation blew up"),
            Err(TaskError::WorkerFailed),
            120.0,
            3,
        ),
    ];
    for (name, eval, value, minutes, attempts) in cases {
        let (batch, stream) = one_task_both_ways(eval, &pool, FaultInjector::none);
        for (side, record) in [("batch", &batch), ("stream", &stream)] {
            assert_eq!(record.value, value, "{name} ({side})");
            assert_eq!(record.minutes, minutes, "{name} ({side})");
            assert_eq!(record.attempts, attempts, "{name} ({side})");
        }
    }

    // Fault-killed attempts: whatever the plan does to the chain — survive
    // after k deaths or exhaust all three attempts — both sides charge the
    // same minutes and count the same attempts.
    let ok: Eval = |_, &x| EvalOutcome { value: Ok(x), minutes: 60.0 };
    let (mut retried, mut exhausted) = (0, 0);
    for seed in 0..64 {
        let (batch, stream) =
            one_task_both_ways(ok, &pool, || FaultInjector::new(0.6, seed));
        assert_eq!(batch.value, stream.value, "seed {seed}");
        assert_eq!(batch.minutes, stream.minutes, "seed {seed}");
        assert_eq!(batch.attempts, stream.attempts, "seed {seed}");
        match batch.value {
            Ok(_) if batch.attempts > 1 => retried += 1,
            Err(TaskError::WorkerFailed) => {
                assert_eq!(batch.attempts, 3, "seed {seed}");
                exhausted += 1;
            }
            _ => {}
        }
    }
    assert!(retried > 0 && exhausted > 0, "fault plans too tame: {retried} / {exhausted}");

    // Where the two legitimately differ: without nannies a death retires
    // the batch pool's worker, so a one-worker pool is dead after the first
    // attempt and fails the task there; a stream slot is an accounting
    // cursor, not a thread that can die, so its chain always runs to
    // `max_attempts`. Same classification, different attempts and minutes.
    let no_nanny = PoolConfig { n_workers: 1, nanny: false, ..pool };
    let (batch, stream) = one_task_both_ways(ok, &no_nanny, || FaultInjector::new(0.999, 3));
    assert_eq!(batch.value, Err(TaskError::WorkerFailed));
    assert_eq!(stream.value, Err(TaskError::WorkerFailed));
    assert_eq!((batch.attempts, stream.attempts), (1, 3));
    assert!(batch.minutes < stream.minutes);
}
