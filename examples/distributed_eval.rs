//! The Summit/Dask deployment in isolation: fan a batch of tasks over a
//! simulated worker pool, inject worker deaths, and watch the scheduler
//! enforce the 2-hour timeout and reassign orphaned tasks — §2.2.5 of the
//! paper as a runnable demo.
//!
//! ```sh
//! cargo run --release --example distributed_eval
//! ```

use dphpo::hpc::{
    paper_job, run_batch, Allocation, CostModel, EvalOutcome, FaultInjector, PoolConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let allocation = Allocation::paper();
    println!(
        "allocation: {} nodes × {} GPUs, {} min walltime",
        allocation.n_nodes,
        allocation.node.gpus,
        allocation.walltime_minutes
    );

    // 100 training tasks (one generation of the paper's population) whose
    // simulated runtimes come from the calibrated cost model; a couple are
    // pathological (they would exceed the 2-hour timeout).
    let cost = CostModel::default();
    let tasks: Vec<f64> = (0..100)
        .map(|i| 6.0 + 6.0 * (i as f64 % 11.0) / 10.0) // rcut spread 6..12
        .collect();

    let pool = PoolConfig {
        n_workers: allocation.n_nodes,
        nanny: false, // the paper found it best to disable Dask nannies
        max_attempts: 3,
    };
    let faults = FaultInjector::new(0.02, 42); // 2 % worker deaths per task

    let (records, report) = run_batch(
        &tasks,
        |i, &rcut| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut minutes = cost.gpu_minutes(&paper_job(rcut), &mut rng);
            if i % 37 == 5 {
                minutes = 150.0; // a configuration that would blow the wall
            }
            // Stand-in payload: the real workload trains a DNNP here.
            let fitness = (rng.random_range(0.0..0.01), rng.random_range(0.0..0.1));
            EvalOutcome { value: Ok(fitness), minutes }
        },
        &pool,
        &faults,
    );

    let ok = records.iter().filter(|r| r.value.is_ok()).count();
    let timeouts = records
        .iter()
        .filter(|r| matches!(r.value, Err(dphpo::hpc::TaskError::Timeout { .. })))
        .count();
    let faults_n = records
        .iter()
        .filter(|r| matches!(r.value, Err(dphpo::hpc::TaskError::WorkerFailed)))
        .count();
    let retried = records.iter().filter(|r| r.attempts > 1).count();

    println!("tasks: {} ok, {timeouts} timed out, {faults_n} lost to faults", ok);
    println!(
        "worker deaths: {}, tasks retried: {retried} (scheduler reassigns without nannies)",
        report.worker_deaths
    );
    println!(
        "simulated generation makespan: {:.1} min (fits {}x in the {}-min walltime)",
        report.makespan_minutes,
        (allocation.walltime_minutes / report.makespan_minutes) as usize,
        allocation.walltime_minutes
    );
    println!(
        "every failure becomes a MAXINT fitness upstream; NSGA-II's rank \
         sorting then culls those individuals (paper §2.2.4)"
    );
}
