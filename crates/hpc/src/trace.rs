//! Execution tracing for the simulated batch job: reconstructs per-worker
//! simulated timelines from task records, so the campaign driver can place
//! each evaluation's telemetry span on a worker lane.

use crate::scheduler::TaskRecord;

/// One scheduled span on a worker's simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Task index.
    pub task: usize,
    /// Simulated start minute.
    pub start: f64,
    /// Simulated end minute.
    pub end: f64,
    /// Whether the task ultimately succeeded.
    pub ok: bool,
}

/// Per-worker simulated timelines produced by list-scheduling the charged
/// minutes (the same rule the scheduler's makespan uses).
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// `timelines[w]` holds worker w's spans in start order.
    pub timelines: Vec<Vec<Span>>,
}

impl Timeline {
    /// Rebuild timelines for `n_workers` from task records (in submission
    /// order, matching the scheduler's accounting).
    pub fn reconstruct<T>(records: &[TaskRecord<T>], n_workers: usize) -> Self {
        assert!(n_workers > 0);
        let mut timelines: Vec<Vec<Span>> = vec![Vec::new(); n_workers];
        let mut clock = vec![0.0f64; n_workers];
        for (task, record) in records.iter().enumerate() {
            let (slot, _) = clock
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .expect("at least one worker");
            let start = clock[slot];
            let end = start + record.minutes;
            timelines[slot].push(Span { task, start, end, ok: record.value.is_ok() });
            clock[slot] = end;
        }
        Timeline { timelines }
    }

    /// Simulated makespan (minutes).
    pub fn makespan(&self) -> f64 {
        self.timelines
            .iter()
            .filter_map(|spans| spans.last().map(|s| s.end))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TaskError;

    fn record(minutes: f64, ok: bool) -> TaskRecord<u64> {
        TaskRecord {
            value: if ok { Ok(0) } else { Err(TaskError::WorkerFailed) },
            minutes,
            worker: 0,
            attempts: 1,
        }
    }

    #[test]
    fn reconstruction_matches_list_scheduling() {
        // 5 × 10-minute tasks on 2 workers → makespan 30 (3+2 split).
        let records: Vec<TaskRecord<u64>> = (0..5).map(|_| record(10.0, true)).collect();
        let timeline = Timeline::reconstruct(&records, 2);
        assert!((timeline.makespan() - 30.0).abs() < 1e-9);
        let counts: Vec<usize> = timeline.timelines.iter().map(Vec::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert!(counts.iter().all(|&c| c >= 2));
    }

    #[test]
    fn empty_records_are_harmless() {
        let records: Vec<TaskRecord<u64>> = Vec::new();
        let timeline = Timeline::reconstruct(&records, 3);
        assert_eq!(timeline.makespan(), 0.0);
    }

    #[test]
    fn makespan_matches_pool_report_charged_makespan() {
        use crate::scheduler::{run_batch, EvalOutcome, FaultInjector, PoolConfig};
        // Fault-free, the Timeline reconstruction charges exactly what the
        // scheduler charged, so its last span must end at the PoolReport
        // makespan, with every task on exactly one worker lane.
        let inputs: Vec<u64> = (0..7).collect();
        let config = PoolConfig { n_workers: 3, ..PoolConfig::default() };
        let minutes = [40.0, 10.0, 25.0, 5.0, 30.0, 10.0, 20.0];
        let (records, report) = run_batch(
            &inputs,
            |task, &x| EvalOutcome { value: Ok(x), minutes: minutes[task] },
            &config,
            &FaultInjector::none(),
        );
        let timeline = Timeline::reconstruct(&records, config.n_workers);
        assert!((timeline.makespan() - report.makespan_minutes).abs() < 1e-9);
        assert_eq!(timeline.timelines.len(), 3);
        assert_eq!(timeline.timelines.iter().map(Vec::len).sum::<usize>(), inputs.len());
    }

    #[test]
    fn makespan_is_lower_bound_under_faults() {
        use crate::scheduler::{run_batch, EvalOutcome, FaultInjector, PoolConfig};
        // Under faults the report additionally charges dead attempts'
        // partial minutes, which the record-only reconstruction omits — the
        // reconstruction can only undershoot the charged makespan.
        let inputs: Vec<u64> = (0..20).collect();
        let config = PoolConfig { n_workers: 4, nanny: true, ..PoolConfig::default() };
        let faults = FaultInjector::new(0.15, 99);
        let (records, report) = run_batch(
            &inputs,
            |_, &x| EvalOutcome { value: Ok(x), minutes: 10.0 },
            &config,
            &faults,
        );
        assert!(report.worker_deaths > 0, "seed produced no deaths");
        let timeline = Timeline::reconstruct(&records, config.n_workers);
        assert!(timeline.makespan() <= report.makespan_minutes + 1e-9);
    }
}
