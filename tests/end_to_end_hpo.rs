//! End-to-end integration: the full pipeline — synthetic FPMD dataset →
//! NSGA-II over the simulated Summit pool → analysis — at smoke scale,
//! asserting the structural invariants every figure and table relies on.

use dphpo::core::analysis::analyze;
use dphpo::core::experiment::{Campaign, ExperimentConfig};
use dphpo::evo::Fitness;

fn smoke_result() -> dphpo::core::ExperimentResult {
    Campaign::new(&ExperimentConfig::smoke()).run(None).unwrap()
}

#[test]
fn experiment_structure_matches_config() {
    let config = ExperimentConfig::smoke();
    let result = smoke_result();
    assert_eq!(result.runs.len(), config.n_runs);
    for run in &result.runs {
        assert_eq!(run.history.len(), config.generations + 1);
        assert_eq!(run.evaluations, config.pop_size * (config.generations + 1));
        for record in &run.history {
            assert_eq!(record.population.len(), config.pop_size);
            for ind in &record.population {
                assert_eq!(ind.genome.len(), 7, "seven-gene representation");
                let fitness = ind.fitness();
                assert_eq!(fitness.len(), 2, "two-objective fitness");
            }
        }
    }
}

#[test]
fn genomes_respect_table1_bounds_in_every_generation() {
    let bounds = dphpo::core::DeepMDRepresentation::bounds();
    let result = smoke_result();
    for run in &result.runs {
        for record in &run.history {
            for ind in &record.population {
                for (gene, &(lo, hi)) in ind.genome.iter().zip(bounds.iter()) {
                    assert!(
                        (lo..=hi).contains(gene),
                        "gene {gene} outside hard bounds ({lo}, {hi})"
                    );
                }
            }
        }
    }
}

#[test]
fn surviving_fitnesses_are_physical() {
    let result = smoke_result();
    for run in &result.runs {
        for ind in run.final_population() {
            if ind.is_failed() {
                continue;
            }
            let fitness = ind.fitness();
            // Energy RMSE (eV/atom) and force RMSE (eV/Å) must be positive
            // and bounded by obviously-unphysical limits.
            assert!(fitness.get(0) > 0.0 && fitness.get(0) < 10.0);
            assert!(fitness.get(1) > 0.0 && fitness.get(1) < 100.0);
            let minutes = ind.eval_minutes.expect("runtime recorded");
            assert!(minutes > 0.0 && minutes <= 120.0, "runtime {minutes}");
        }
    }
}

#[test]
fn analysis_annotations_are_consistent() {
    let result = smoke_result();
    let analysis = analyze(&result);
    for (i, s) in analysis.solutions.iter().enumerate() {
        assert_eq!(s.on_frontier, analysis.frontier.contains(&i));
        assert_eq!(s.chem_accurate, analysis.accurate.contains(&i));
        if s.chem_accurate {
            assert!(s.force_loss < dphpo::core::CHEM_ACC_FORCE);
            assert!(s.energy_loss < dphpo::core::CHEM_ACC_ENERGY);
            assert!(!s.failed);
        }
    }
    // No frontier member may be dominated by ANY non-failed solution.
    for &i in &analysis.frontier {
        let fi = Fitness::new(vec![
            analysis.solutions[i].energy_loss,
            analysis.solutions[i].force_loss,
        ]);
        for s in analysis.solutions.iter().filter(|s| !s.failed) {
            let fs = Fitness::new(vec![s.energy_loss, s.force_loss]);
            assert!(!fs.dominates(&fi), "frontier member dominated");
        }
    }
}

#[test]
fn selection_improves_the_frontier_hypervolume() {
    // Elitist NSGA-II: the final generation's Pareto frontier must be at
    // least as good as generation 0's (measured by 2-D hypervolume against
    // a far reference point, penalties excluded).
    use dphpo::evo::{hypervolume_2d, pareto_front};
    let result = smoke_result();
    for run in &result.runs {
        let hv = |gen: usize| {
            let pop = &run.history[gen].population;
            let fits: Vec<&Fitness> =
                pop.iter().filter(|i| !i.is_failed()).map(|i| i.fitness()).collect();
            if fits.is_empty() {
                return 0.0;
            }
            let front = pareto_front(&fits);
            let pts: Vec<(f64, f64)> =
                front.iter().map(|&i| (fits[i].get(0), fits[i].get(1))).collect();
            hypervolume_2d(&pts, (10.0, 10.0))
        };
        let first = hv(0);
        let last = hv(run.history.len() - 1);
        assert!(
            last >= first - 1e-9,
            "frontier regressed: {first} -> {last}"
        );
    }
}
