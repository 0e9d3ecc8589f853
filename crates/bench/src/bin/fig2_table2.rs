//! Regenerates **Figure 2** (the Pareto frontier of the aggregated final
//! generations) and **Table 2** (force and energy values of every solution
//! exactly on that frontier).

use dphpo_bench::harness::{exit_if_writes_failed, load_or_run_experiment, write_artifact};
use dphpo_core::analysis::{analyze, ascii_level_plot};

fn main() {
    let result = load_or_run_experiment();
    let analysis = analyze(&result);

    let mut report = String::new();
    report.push_str("Figure 2: Pareto frontier of the aggregated final generations\n\n");

    // Scatter of the final solution set with the frontier called out.
    let all_points: Vec<(f64, f64)> = analysis
        .solutions
        .iter()
        .filter(|s| !s.failed)
        .map(|s| (s.energy_loss, s.force_loss))
        .collect();
    let fmax = all_points.iter().map(|p| p.1).fold(0.0, f64::max) * 1.05 + 1e-9;
    let emax = all_points.iter().map(|p| p.0).fold(0.0, f64::max) * 1.05 + 1e-9;
    report.push_str(&ascii_level_plot(&all_points, fmax, emax, 64, 16));
    report.push_str(&format!(
        "\n{} final solutions, {} on the exact Pareto frontier\n",
        analysis.solutions.len(),
        analysis.frontier.len()
    ));
    report.push_str("(paper: 8 frontier points clustered close to the origin)\n\n");

    report.push_str("Table 2: solutions exactly on the Pareto frontier\n\n");
    report.push_str(&format!(
        "{:<10} {:>20} {:>24}\n",
        "solution", "force error (eV/AA)", "energy error (eV/atom)"
    ));
    let mut csv = String::from("solution,force_error_ev_a,energy_error_ev_atom\n");
    for (k, (force, energy)) in analysis.table2().iter().enumerate() {
        report.push_str(&format!("{:<10} {force:>20.4} {energy:>24.4}\n", k + 1));
        csv.push_str(&format!("{},{force:.6},{energy:.6}\n", k + 1));
    }
    report.push_str(
        "\npaper values for reference (full scale): force 0.0357–0.0409, \
         energy 0.0004–0.0016\n",
    );

    print!("{report}");
    write_artifact("fig2_table2.txt", &report);
    write_artifact("table2.csv", &csv);
    exit_if_writes_failed();
}
