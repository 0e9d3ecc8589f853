//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. σ-annealing (×0.85/generation) on vs off;
//! 2. MAXINT penalty vs silently culling failed evaluations;
//! 3. worker-failure-rate sensitivity of the evaluation pool, with and
//!    without nannies.
//!
//! All run on synthetic objectives (ZDT1 / synthetic tasks) so the whole
//! suite finishes in seconds, and every line of the report is a pure
//! function of its seeds. The sort-algorithm comparison is `sort_speedup`'s.

use dphpo_bench::harness::{exit_if_writes_failed, write_artifact};
use dphpo_evo::nsga2::{run_nsga2, EvalResult, Nsga2Config};
use dphpo_evo::problems::zdt1;
use dphpo_evo::{hypervolume_2d, pareto_front, Fitness};
use dphpo_hpc::scheduler::{QUARANTINE_DEATHS, TIMEOUT_MINUTES};
use dphpo_hpc::{run_batch_supervised, EvalOutcome, FaultInjector, PoolConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn zdt1_hv(anneal: f64, seed: u64, failure_rate: f64, penalty: bool) -> f64 {
    let problem = zdt1();
    let config = Nsga2Config {
        pop_size: 32,
        generations: 30,
        init_ranges: problem.bounds(),
        bounds: problem.bounds(),
        std: vec![0.1; problem.dims()],
        anneal_factor: anneal,
    };
    let mut fail_rng = StdRng::seed_from_u64(seed ^ 0xbad);
    let mut evaluator = |genomes: &[Vec<f64>]| {
        genomes
            .iter()
            .map(|g| {
                if failure_rate > 0.0 && fail_rng.random_range(0.0..1.0) < failure_rate {
                    if penalty {
                        return EvalResult::fitness(Fitness::penalty(2));
                    }
                    // "Culling" alternative: a NaN-free worst-but-finite
                    // sentinel that does NOT dominate-sort to the back as
                    // reliably (mimics ad-hoc handling).
                    return EvalResult::fitness(Fitness::new(vec![1.0, 1.0]));
                }
                EvalResult::fitness(Fitness::new(problem.evaluate(g)))
            })
            .collect::<Vec<_>>()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let result = run_nsga2(&config, &mut evaluator, &mut rng);
    let pop = result.final_population();
    let fits: Vec<&Fitness> = pop.iter().filter(|i| !i.is_failed()).map(|i| i.fitness()).collect();
    let front = pareto_front(&fits);
    let pts: Vec<(f64, f64)> = front.iter().map(|&i| (fits[i].get(0), fits[i].get(1))).collect();
    hypervolume_2d(&pts, (11.0, 11.0))
}

fn main() {
    let mut report = String::new();

    // 1. Annealing ablation.
    report.push_str("ablation 1: mutation-sigma annealing (ZDT1, pop 32, 30 gens, 5 seeds)\n");
    for anneal in [1.0, 0.95, 0.85, 0.70] {
        let hvs: Vec<f64> = (0..5).map(|s| zdt1_hv(anneal, s, 0.0, true)).collect();
        let mean = hvs.iter().sum::<f64>() / hvs.len() as f64;
        report.push_str(&format!("  anneal x{anneal:<5} mean final hypervolume {mean:.3}\n"));
    }
    report.push_str("  (the paper's x0.85 trades late-run exploration for exploitation)\n\n");

    // 2. Penalty semantics ablation.
    report.push_str("ablation 2: MAXINT penalty vs worst-finite sentinel (10% failures)\n");
    for (label, penalty) in [("MAXINT penalty", true), ("finite sentinel", false)] {
        let hvs: Vec<f64> = (0..5).map(|s| zdt1_hv(0.95, s, 0.10, penalty)).collect();
        let mean = hvs.iter().sum::<f64>() / hvs.len() as f64;
        report.push_str(&format!("  {label:<18} mean final hypervolume {mean:.3}\n"));
    }
    report.push_str("  (MAXINT guarantees failures sort behind every genuine solution)\n\n");

    // 3. Worker-failure-rate sensitivity, nannies off (the paper's choice)
    // and on — the §2.2.5 comparison.
    report.push_str("ablation 3: pool throughput vs worker-death rate (100 tasks, 10 workers)\n");
    let inputs: Vec<u64> = (0..100).collect();
    let mut lost = [0usize; 2];
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20] {
        for nanny in [false, true] {
            let config = PoolConfig { n_workers: 10, nanny, max_attempts: 5 };
            let faults = FaultInjector::new(rate, 11);
            let (records, pool_report) = run_batch_supervised(
                &inputs,
                |_, &x| EvalOutcome { value: Ok(x), minutes: 70.0 },
                |_, _| TIMEOUT_MINUTES,
                &config,
                &faults,
                |_, _| {},
            );
            let completed = records.iter().filter(|r| r.value.is_ok()).count();
            lost[usize::from(nanny)] += inputs.len() - completed;
            report.push_str(&format!(
                "  death rate {rate:<5} nannies {:<3} completed {completed:>3}/100, deaths {:>2}, retried {:>2}, quarantined {}, makespan {:>7.1} min\n",
                if nanny { "on" } else { "off" },
                pool_report.worker_deaths,
                pool_report.retried_tasks,
                pool_report.quarantined_workers,
                pool_report.makespan_minutes
            ));
        }
    }
    report.push_str(&format!(
        "  (nannies off: a death retires its worker for good, and once all 10 are gone what is still\n   \
         queued fails - {} of 500 tasks lost over the five rates; nannies on: a dead worker restarts,\n   \
         a slot retiring only after {QUARANTINE_DEATHS} deaths - {} lost, paid for in retried attempts)\n",
        lost[0], lost[1]
    ));

    print!("{report}");
    write_artifact("ablations.txt", &report);
    exit_if_writes_failed();
}
