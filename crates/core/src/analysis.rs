//! Post-experiment analysis: the aggregated final-generation solution set,
//! Pareto frontier (Fig. 2 / Table 2), chemical-accuracy filtering and
//! selected solutions (Table 3), parallel-coordinates export and findings
//! (Fig. 3), and per-generation level-plot data (Fig. 1).

use std::fmt::Write as _;

use dphpo_evo::{pareto_front, Fitness};

use crate::decode::{decode, DecodedGenome};
use crate::experiment::ExperimentResult;

/// Chemical-accuracy thresholds (§3.2): force < 0.04 eV/Å and energy
/// < 0.004 eV/atom keep the model within the reference DFT's precision.
pub const CHEM_ACC_FORCE: f64 = 0.04;
/// Energy threshold, eV/atom.
pub const CHEM_ACC_ENERGY: f64 = 0.004;

/// One solution from the aggregated final generations.
#[derive(Clone, Debug)]
pub struct SolutionRecord {
    /// Which EA run produced it.
    pub run: usize,
    /// Raw genome.
    pub genome: Vec<f64>,
    /// Decoded hyperparameters.
    pub decoded: DecodedGenome,
    /// Validation energy RMSE (eV/atom).
    pub energy_loss: f64,
    /// Validation force RMSE (eV/Å).
    pub force_loss: f64,
    /// Simulated training runtime (minutes, paper scale).
    pub runtime_minutes: f64,
    /// True if the evaluation failed (MAXINT).
    pub failed: bool,
    /// On the exact aggregated Pareto frontier.
    pub on_frontier: bool,
    /// Meets both chemical-accuracy thresholds.
    pub chem_accurate: bool,
}

/// The complete analysis of an experiment's final generations.
pub struct Analysis {
    /// All final-generation solutions across runs, annotated.
    pub solutions: Vec<SolutionRecord>,
    /// Indices of frontier members, sorted by ascending force loss
    /// (Table 2's presentation order).
    pub frontier: Vec<usize>,
    /// Indices of chemically accurate solutions.
    pub accurate: Vec<usize>,
    /// Chemically accurate solution with the lowest force loss (Table 3
    /// solution 1).
    pub lowest_force: Option<usize>,
    /// … with the lowest energy loss (Table 3 solution 2).
    pub lowest_energy: Option<usize>,
    /// … with the lowest runtime (Table 3 solution 3).
    pub lowest_runtime: Option<usize>,
}

/// Build the aggregated final-generation solution set and run the full
/// annotation pass with the paper's absolute chemical-accuracy thresholds.
pub fn analyze(result: &ExperimentResult) -> Analysis {
    analyze_with_thresholds(result, CHEM_ACC_FORCE, CHEM_ACC_ENERGY)
}

/// As [`analyze`], with explicit accuracy thresholds. The paper's absolute
/// numbers presume its force scale (best solution 0.0357 eV/Å, i.e. ~12 %
/// below the 0.04 cutoff); reduced-scale reproductions can pass a
/// *scale-matched* cutoff (e.g. 1.12 × their own best force RMSE) instead —
/// see EXPERIMENTS.md.
pub fn analyze_with_thresholds(
    result: &ExperimentResult,
    force_threshold: f64,
    energy_threshold: f64,
) -> Analysis {
    let mut solutions = Vec::new();
    for (run_idx, run) in result.runs.iter().enumerate() {
        for ind in run.final_population() {
            let fitness = ind.fitness();
            let failed = fitness.is_penalty();
            let (energy_loss, force_loss) = (fitness.get(0), fitness.get(1));
            solutions.push(SolutionRecord {
                run: run_idx,
                genome: ind.genome.clone(),
                decoded: decode(&ind.genome),
                energy_loss,
                force_loss,
                runtime_minutes: ind.eval_minutes.unwrap_or(f64::NAN),
                failed,
                on_frontier: false,
                chem_accurate: !failed
                    && force_loss < force_threshold
                    && energy_loss < energy_threshold,
            });
        }
    }

    // Aggregated Pareto frontier over the non-failed solutions.
    let ok_indices: Vec<usize> =
        (0..solutions.len()).filter(|&i| !solutions[i].failed).collect();
    let fitnesses: Vec<Fitness> = ok_indices
        .iter()
        .map(|&i| Fitness::new(vec![solutions[i].energy_loss, solutions[i].force_loss]))
        .collect();
    let fit_refs: Vec<&Fitness> = fitnesses.iter().collect();
    let mut frontier: Vec<usize> =
        pareto_front(&fit_refs).into_iter().map(|k| ok_indices[k]).collect();
    for &i in &frontier {
        solutions[i].on_frontier = true;
    }
    frontier.sort_by(|&a, &b| {
        solutions[a].force_loss.partial_cmp(&solutions[b].force_loss).unwrap()
    });

    let accurate: Vec<usize> =
        (0..solutions.len()).filter(|&i| solutions[i].chem_accurate).collect();
    let argmin = |key: &dyn Fn(&SolutionRecord) -> f64| -> Option<usize> {
        accurate
            .iter()
            .copied()
            .min_by(|&a, &b| key(&solutions[a]).partial_cmp(&key(&solutions[b])).unwrap())
    };

    Analysis {
        lowest_force: argmin(&|s| s.force_loss),
        lowest_energy: argmin(&|s| s.energy_loss),
        lowest_runtime: argmin(&|s| s.runtime_minutes),
        solutions,
        frontier,
        accurate,
    }
}

impl Analysis {
    /// Table 2: `(force error, energy error)` for every frontier solution,
    /// ascending force error.
    pub fn table2(&self) -> Vec<(f64, f64)> {
        self.frontier
            .iter()
            .map(|&i| (self.solutions[i].force_loss, self.solutions[i].energy_loss))
            .collect()
    }

    /// The smallest `rcut` among chemically accurate solutions (§3.2: the
    /// paper finds none below 8.5 Å).
    pub fn min_accurate_rcut(&self) -> Option<f64> {
        self.accurate
            .iter()
            .map(|&i| self.solutions[i].decoded.rcut)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Count per activation name among chemically accurate solutions, for
    /// the descriptor (`desc = true`) or fitting network.
    pub fn accurate_activation_counts(&self, desc: bool) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = dphpo_dnnp::Activation::ALL
            .iter()
            .map(|a| (a.name(), 0usize))
            .collect();
        for &i in &self.accurate {
            let a = if desc {
                self.solutions[i].decoded.desc_activ_func
            } else {
                self.solutions[i].decoded.fitting_activ_func
            };
            counts[a.index()].1 += 1;
        }
        counts
    }

    /// Count per LR-scaling scheme among chemically accurate solutions.
    pub fn accurate_scaling_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = dphpo_dnnp::LrScaling::ALL
            .iter()
            .map(|s| (s.name(), 0usize))
            .collect();
        for &i in &self.accurate {
            let s = self.solutions[i].decoded.scale_by_worker;
            let pos = dphpo_dnnp::LrScaling::ALL.iter().position(|&x| x == s).unwrap();
            counts[pos].1 += 1;
        }
        counts
    }

    /// Fig. 3 export: one CSV row per final solution with hyperparameters,
    /// runtime, losses, and flags — a parallel-coordinates plot's data.
    pub fn parallel_coordinates_csv(&self) -> String {
        let mut out = String::from(
            "run,start_lr,stop_lr,rcut,rcut_smth,scale_by_worker,desc_activ_func,\
             fitting_activ_func,runtime_min,energy_loss,force_loss,chem_accurate,on_frontier,failed\n",
        );
        for s in &self.solutions {
            let _ = writeln!(
                out,
                "{},{:e},{:e},{:.4},{:.4},{},{},{},{:.1},{:.6},{:.6},{},{},{}",
                s.run,
                s.decoded.start_lr,
                s.decoded.stop_lr,
                s.decoded.rcut,
                s.decoded.rcut_smth,
                s.decoded.scale_by_worker.name(),
                s.decoded.desc_activ_func.name(),
                s.decoded.fitting_activ_func.name(),
                s.runtime_minutes,
                s.energy_loss,
                s.force_loss,
                s.chem_accurate,
                s.on_frontier,
                s.failed
            );
        }
        out
    }
}

/// Fig. 1 export: per-generation `(run, generation, energy, force, failed)`
/// rows for every individual of every generation of every run.
pub fn level_plot_csv(result: &ExperimentResult) -> String {
    let mut out = String::from("run,generation,energy_loss,force_loss,failed\n");
    for (run_idx, run) in result.runs.iter().enumerate() {
        for record in &run.history {
            for ind in &record.population {
                let f = ind.fitness();
                let _ = writeln!(
                    out,
                    "{},{},{:.6},{:.6},{}",
                    run_idx,
                    record.generation,
                    f.get(0),
                    f.get(1),
                    f.is_penalty()
                );
            }
        }
    }
    out
}

/// An ASCII density plot of energy (y) vs force (x) losses — the harness's
/// stand-in for one Fig. 1 panel. Outliers beyond the axis limits are
/// culled, as the paper culls generation-0 outliers for visual clarity.
pub fn ascii_level_plot(
    points: &[(f64, f64)], // (energy, force)
    force_max: f64,
    energy_max: f64,
    width: usize,
    height: usize,
) -> String {
    let mut grid = vec![0usize; width * height];
    let mut culled = 0usize;
    for &(e, f) in points {
        if e >= energy_max || f >= force_max || !e.is_finite() || !f.is_finite() {
            culled += 1;
            continue;
        }
        let col = ((f / force_max) * width as f64) as usize;
        let row = ((e / energy_max) * height as f64) as usize;
        grid[row.min(height - 1) * width + col.min(width - 1)] += 1;
    }
    let glyph = |c: usize| match c {
        0 => ' ',
        1 => '·',
        2..=3 => 'o',
        4..=7 => 'O',
        _ => '@',
    };
    let mut out = String::new();
    for row in (0..height).rev() {
        out.push('|');
        for col in 0..width {
            out.push(glyph(grid[row * width + col]));
        }
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    if culled > 0 {
        let _ = writeln!(out, "({culled} outliers culled)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Campaign, ExperimentConfig};

    fn smoke_analysis() -> (ExperimentResult, Analysis) {
        let result = Campaign::new(&ExperimentConfig::smoke()).run(None).unwrap();
        let analysis = analyze(&result);
        (result, analysis)
    }

    #[test]
    fn analysis_covers_all_final_solutions() {
        let (result, analysis) = smoke_analysis();
        let expected: usize = result.runs.iter().map(|r| r.final_population().len()).sum();
        assert_eq!(analysis.solutions.len(), expected);
        assert!(!analysis.frontier.is_empty(), "non-failed runs must yield a frontier");
    }

    #[test]
    fn frontier_members_are_mutually_nondominating() {
        let (_, analysis) = smoke_analysis();
        for &a in &analysis.frontier {
            for &b in &analysis.frontier {
                if a == b {
                    continue;
                }
                let fa = Fitness::new(vec![
                    analysis.solutions[a].energy_loss,
                    analysis.solutions[a].force_loss,
                ]);
                let fb = Fitness::new(vec![
                    analysis.solutions[b].energy_loss,
                    analysis.solutions[b].force_loss,
                ]);
                assert!(!fa.dominates(&fb), "frontier member dominated");
            }
        }
    }

    #[test]
    fn table2_is_sorted_by_force_and_antitone_in_energy() {
        let (_, analysis) = smoke_analysis();
        let t2 = analysis.table2();
        for w in t2.windows(2) {
            assert!(w[0].0 <= w[1].0, "force must ascend");
            // On a 2-D Pareto frontier, ascending force ⇒ descending energy.
            assert!(w[0].1 >= w[1].1, "energy must descend along the frontier");
        }
    }

    #[test]
    fn csv_exports_have_expected_shape() {
        let (result, analysis) = smoke_analysis();
        let pc = analysis.parallel_coordinates_csv();
        assert_eq!(pc.lines().count(), 1 + analysis.solutions.len());
        assert!(pc.starts_with("run,start_lr"));
        let lp = level_plot_csv(&result);
        let expected: usize = result
            .runs
            .iter()
            .map(|r| r.history.iter().map(|g| g.population.len()).sum::<usize>())
            .sum();
        assert_eq!(lp.lines().count(), 1 + expected);
    }

    #[test]
    fn selected_solutions_come_from_accurate_set() {
        let (_, analysis) = smoke_analysis();
        for i in [analysis.lowest_force, analysis.lowest_energy, analysis.lowest_runtime].into_iter().flatten() {
            assert!(analysis.solutions[i].chem_accurate);
        }
        if let (Some(f), Some(e)) = (analysis.lowest_force, analysis.lowest_energy) {
            let sf = &analysis.solutions[f];
            let se = &analysis.solutions[e];
            assert!(sf.force_loss <= se.force_loss);
            assert!(se.energy_loss <= sf.energy_loss);
        }
    }

    #[test]
    fn ascii_plot_counts_and_culls() {
        let points = vec![(0.001, 0.03), (0.001, 0.031), (0.5, 0.03), (0.001, 9.0)];
        let plot = ascii_level_plot(&points, 0.1, 0.01, 20, 10);
        assert!(plot.contains("2 outliers culled"), "{plot}");
        assert!(plot.contains('o') || plot.contains('·'));
    }

    #[test]
    fn activation_and_scaling_counts_sum_to_accurate() {
        let (_, analysis) = smoke_analysis();
        let total: usize = analysis.accurate_activation_counts(true).iter().map(|c| c.1).sum();
        assert_eq!(total, analysis.accurate.len());
        let total_s: usize = analysis.accurate_scaling_counts().iter().map(|c| c.1).sum();
        assert_eq!(total_s, analysis.accurate.len());
    }
}
