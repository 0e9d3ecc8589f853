//! The paper's headline workload at demonstration scale: a full NSGA-II
//! hyperparameter optimization of DNNP training on the synthetic molten
//! AlCl₃/KCl dataset, followed by Pareto-frontier and chemical-accuracy
//! analysis.
//!
//! ```sh
//! cargo run --release --example molten_salt_hpo
//! ```
//!
//! Runs one EA deployment (the paper runs five; `fig1` in `dphpo-bench`
//! runs the full experiment).

use dphpo::core::analysis::{analyze, CHEM_ACC_ENERGY, CHEM_ACC_FORCE};
use dphpo::core::{Campaign, ExperimentConfig, ExperimentResult};

fn main() {
    let mut config = ExperimentConfig::reduced();
    config.n_runs = 1;
    config.pop_size = 8;
    config.generations = 3;
    config.base_train_config.num_steps = 600;
    println!(
        "NSGA-II: population {} × {} generations ({} trainings)…",
        config.pop_size,
        config.generations + 1,
        config.pop_size * (config.generations + 1)
    );

    let t0 = std::time::Instant::now();
    let result: ExperimentResult = Campaign::new(&config).run(None).unwrap();
    println!("done in {:.1?}\n", t0.elapsed());

    // Per-generation convergence summary (Fig. 1 in miniature).
    for record in &result.runs[0].history {
        let ok: Vec<&dphpo::evo::Individual> =
            record.population.iter().filter(|i| !i.is_failed()).collect();
        let best_f = ok
            .iter()
            .map(|i| i.fitness().get(1))
            .fold(f64::MAX, f64::min);
        let best_e = ok
            .iter()
            .map(|i| i.fitness().get(0))
            .fold(f64::MAX, f64::min);
        println!(
            "generation {}: {} evaluable, best force {:.4} eV/Å, best energy {:.4} eV/atom, {} failures",
            record.generation,
            ok.len(),
            best_f,
            best_e,
            record.failures
        );
    }

    // Frontier + chemical accuracy (Fig. 2 / Fig. 3 in miniature).
    let analysis = analyze(&result);
    println!("\nPareto frontier ({} solutions):", analysis.frontier.len());
    for &i in &analysis.frontier {
        let s = &analysis.solutions[i];
        println!(
            "  force {:.4} eV/Å, energy {:.4} eV/atom — rcut {:.1}, {} / {} / {}",
            s.force_loss,
            s.energy_loss,
            s.decoded.rcut,
            s.decoded.scale_by_worker.name(),
            s.decoded.desc_activ_func.name(),
            s.decoded.fitting_activ_func.name()
        );
    }
    println!(
        "\nchemically accurate (force < {CHEM_ACC_FORCE}, energy < {CHEM_ACC_ENERGY}): {}",
        analysis.accurate.len()
    );
    if let Some(rcut) = analysis.min_accurate_rcut() {
        println!("smallest accurate rcut: {rcut:.2} Å (paper: none below 8.5 Å)");
    }
}
