//! Regenerates the §3.1 comparison: the EA's evaluation count against a
//! brute-force grid search at 10 points per parameter, plus — for context —
//! a 16-point factorial grid trained on the real objective through the
//! campaign's evaluation, whose frontier size and hypervolume it reports.
//! The EA's own frontier comes from `fig1` and `fig2_table2`; nothing here
//! runs NSGA-II.

use dphpo_bench::harness::{exit_if_writes_failed, experiment_scale, write_artifact};
use dphpo_core::representation::DeepMDRepresentation;
use dphpo_core::workflow::{evaluate_individual, EvalContext};
use dphpo_evo::{hypervolume_2d, pareto_front, Fitness};

fn main() {
    let config = experiment_scale();
    let mut report = String::new();
    report.push_str("S3.1: EA evaluation count vs brute-force grid search\n\n");
    let per_run = config.pop_size * (config.generations + 1);
    report.push_str(&format!(
        "EA: {} trainings/run x {} runs = {} trainings (paper: 3500)\n",
        per_run,
        config.n_runs,
        per_run * config.n_runs
    ));
    report.push_str("grid at 10 points/parameter: 10^7 = 10,000,000 trainings\n");
    report.push_str(&format!(
        "ratio: {:.0}x fewer evaluations for the EA (paper: \"orders of magnitude\")\n\n",
        1e7 / (per_run * config.n_runs) as f64
    ));

    // The affordable baseline: a coarse factorial grid, each point trained
    // once on the true objective, exactly as a campaign evaluates a genome.
    let ctx = EvalContext::new(&config);

    // 2 points per continuous gene, fixed mid categoricals → 16 grid points
    // (a 10/parameter grid is unaffordable even at reduced scale, which is
    // the paper's point).
    let ranges = DeepMDRepresentation::init_ranges();
    let grid_point = |mask: usize| -> Vec<f64> {
        let pick = |g: usize, (lo, hi): (f64, f64)| {
            if mask >> g & 1 == 0 {
                lo + 0.25 * (hi - lo)
            } else {
                lo + 0.75 * (hi - lo)
            }
        };
        vec![
            pick(0, ranges[0]),
            pick(1, ranges[1]),
            pick(2, ranges[2]),
            pick(3, ranges[3]),
            2.5, // none
            4.5, // tanh
            4.5, // tanh
        ]
    };
    let grid: Vec<Vec<f64>> = (0..16).map(grid_point).collect();
    let mut grid_points = Vec::new();
    for (k, genome) in grid.iter().enumerate() {
        let record = evaluate_individual(&ctx, genome, 1000 + k as u64);
        if !record.failed {
            grid_points.push((record.fitness.get(0), record.fitness.get(1)));
        }
    }
    let grid_fits: Vec<Fitness> = grid_points
        .iter()
        .map(|&(e, f)| Fitness::new(vec![e, f]))
        .collect();
    let grid_refs: Vec<&Fitness> = grid_fits.iter().collect();
    let grid_frontier = pareto_front(&grid_refs);
    let grid_hv = hypervolume_2d(&grid_points, (1.0, 1.0));
    report.push_str(&format!(
        "16-point factorial grid: {} evaluable, frontier size {}, hypervolume {:.4} (ref (1,1))\n",
        grid_points.len(),
        grid_frontier.len(),
        grid_hv
    ));
    report.push_str(
        "run `fig1` and `fig2_table2` for the EA frontier; the EA spends its \
         budget adaptively instead of on a fixed lattice\n",
    );

    print!("{report}");
    write_artifact("grid_vs_ea.txt", &report);
    exit_if_writes_failed();
}
