//! Regenerates **Table 3**: full hyperparameters of three selected
//! chemically accurate solutions — lowest force loss, lowest energy loss,
//! and lowest runtime — from the aggregated final generations.

use dphpo_bench::harness::{exit_if_writes_failed, load_or_run_experiment, write_artifact};
use dphpo_core::analysis::{analyze, analyze_with_thresholds, Analysis, CHEM_ACC_ENERGY};

fn row(analysis: &Analysis, idx: Option<usize>, field: &dyn Fn(&dphpo_core::SolutionRecord) -> String) -> String {
    match idx {
        Some(i) => field(&analysis.solutions[i]),
        None => "n/a".to_string(),
    }
}

fn main() {
    let result = load_or_run_experiment();
    let mut analysis = analyze(&result);
    let mut note = String::new();
    if analysis.accurate.is_empty() {
        // Fall back to the scale-matched criterion (see fig3 and
        // EXPERIMENTS.md): 1.12 x the best observed force RMSE.
        let best_force = analysis
            .solutions
            .iter()
            .filter(|s| !s.failed)
            .map(|s| s.force_loss)
            .fold(f64::MAX, f64::min);
        let scaled = 1.12 * best_force;
        analysis = analyze_with_thresholds(&result, scaled, CHEM_ACC_ENERGY);
        note = format!(
            "note: no solution met the paper-absolute cutoff; using the \
             scale-matched criterion force < {scaled:.4} eV/AA\n"
        );
    }

    let selections: Vec<(&str, Option<usize>)> = vec![
        ("solution 1 (lowest force)", analysis.lowest_force),
        ("solution 2 (lowest energy)", analysis.lowest_energy),
        ("solution 3 (lowest runtime)", analysis.lowest_runtime),
    ];

    let mut report = String::new();
    report.push_str(
        "Table 3: selected chemically-accurate solutions from the final generations\n",
    );
    report.push_str(&note);
    report.push('\n');
    report.push_str(&format!(
        "{:<20} {:>24} {:>24} {:>24}\n",
        "hyperparameter", selections[0].0, selections[1].0, selections[2].0
    ));

    type Field<'a> = (&'a str, Box<dyn Fn(&dphpo_core::SolutionRecord) -> String>);
    let fields: Vec<Field> = vec![
        ("start_lr", Box::new(|s| format!("{:.4}", s.decoded.start_lr))),
        ("stop_lr", Box::new(|s| format!("{:.1e}", s.decoded.stop_lr))),
        ("rcut", Box::new(|s| format!("{:.2}", s.decoded.rcut))),
        ("rcut_smth", Box::new(|s| format!("{:.2}", s.decoded.rcut_smth))),
        ("scale_by_worker", Box::new(|s| s.decoded.scale_by_worker.name().to_string())),
        ("desc_activ_func", Box::new(|s| s.decoded.desc_activ_func.name().to_string())),
        ("fitting_activ_func", Box::new(|s| s.decoded.fitting_activ_func.name().to_string())),
        ("runtime (min.)", Box::new(|s| format!("{:.1}", s.runtime_minutes))),
        ("energy loss (eV)", Box::new(|s| format!("{:.4}", s.energy_loss))),
        ("force loss (eV/AA)", Box::new(|s| format!("{:.4}", s.force_loss))),
        ("on frontier", Box::new(|s| s.on_frontier.to_string())),
    ];

    for (name, field) in &fields {
        report.push_str(&format!(
            "{name:<20} {:>24} {:>24} {:>24}\n",
            row(&analysis, selections[0].1, field),
            row(&analysis, selections[1].1, field),
            row(&analysis, selections[2].1, field),
        ));
    }
    report.push_str(
        "\npaper (full scale): solutions 1–2 on the frontier, runtimes 68–74 min, \
         rcut 10.1–11.3, scale none, tanh/softplus activations\n",
    );

    print!("{report}");
    write_artifact("table3.txt", &report);
    exit_if_writes_failed();
}
