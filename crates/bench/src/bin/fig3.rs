//! Regenerates **Figure 3**: the parallel-coordinates view of every final
//! solution (hyperparameters, runtime, losses, chemical-accuracy and
//! frontier flags) plus the textual findings §3.2 draws from it.

use dphpo_bench::harness::{exit_if_writes_failed, load_or_run_experiment, write_artifact};
use dphpo_core::analysis::{analyze, analyze_with_thresholds, CHEM_ACC_ENERGY, CHEM_ACC_FORCE};

fn main() {
    let result = load_or_run_experiment();
    let strict = analyze(&result);

    // The paper's 0.04 eV/AA cutoff sits 12 % above its best observed force
    // RMSE (0.0357). At reduced scale our loss floor differs, so when the
    // strict absolute cutoff admits nothing we additionally report the
    // scale-matched criterion: 1.12 x our own best force RMSE (energy
    // threshold unchanged; our energies are already in the paper's decade).
    let best_force = strict
        .solutions
        .iter()
        .filter(|s| !s.failed)
        .map(|s| s.force_loss)
        .fold(f64::MAX, f64::min);
    let scaled_force = 1.12 * best_force;
    let (analysis, criterion) = if strict.accurate.is_empty() {
        (
            analyze_with_thresholds(&result, scaled_force, CHEM_ACC_ENERGY),
            format!("scale-matched: force < {scaled_force:.4} (=1.12 x best {best_force:.4}), energy < {CHEM_ACC_ENERGY}"),
        )
    } else {
        (strict, format!("paper-absolute: force < {CHEM_ACC_FORCE}, energy < {CHEM_ACC_ENERGY}"))
    };

    write_artifact("fig3_parallel_coordinates.csv", &analysis.parallel_coordinates_csv());

    let mut report = String::new();
    report.push_str("Figure 3 findings (final-generation solution set)\n");
    report.push_str(&format!("chemical-accuracy criterion used: {criterion}\n\n"));
    report.push_str(&format!(
        "solutions: {} total, {} chemically accurate, {} on frontier, {} failed\n\n",
        analysis.solutions.len(),
        analysis.accurate.len(),
        analysis.frontier.len(),
        analysis.solutions.iter().filter(|s| s.failed).count()
    ));

    // §3.2 finding: no accurate solution with small rcut (paper: ≥ 8.5 Å).
    match analysis.min_accurate_rcut() {
        Some(rcut) => report.push_str(&format!(
            "minimum rcut among chemically accurate solutions: {rcut:.2} AA \
             (paper: no accurate solution below 8.5 AA)\n"
        )),
        None => report.push_str("no chemically accurate solutions at this scale\n"),
    }

    // rcut distribution among accurate vs all.
    let rcut_stats = |idx: &[usize]| -> (f64, f64) {
        if idx.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        let values: Vec<f64> =
            idx.iter().map(|&i| analysis.solutions[i].decoded.rcut).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        (mean, min)
    };
    let all_idx: Vec<usize> = (0..analysis.solutions.len())
        .filter(|&i| !analysis.solutions[i].failed)
        .collect();
    let (mean_all, _) = rcut_stats(&all_idx);
    let (mean_acc, _) = rcut_stats(&analysis.accurate);
    report.push_str(&format!(
        "mean rcut: {mean_all:.2} AA over all solutions, {mean_acc:.2} AA over accurate ones\n\n"
    ));

    // Activation-function findings.
    report.push_str("descriptor activation counts among accurate solutions:\n");
    for (name, count) in analysis.accurate_activation_counts(true) {
        report.push_str(&format!("  {name:<10} {count}\n"));
    }
    report.push_str("fitting activation counts among accurate solutions:\n");
    for (name, count) in analysis.accurate_activation_counts(false) {
        report.push_str(&format!("  {name:<10} {count}\n"));
    }
    report.push_str(
        "(paper: both relu variants drop out of the fitting net; sigmoid \
         descriptor never chemically accurate)\n\n",
    );

    // LR-scaling finding.
    report.push_str("learning-rate scaling counts among accurate solutions:\n");
    for (name, count) in analysis.accurate_scaling_counts() {
        report.push_str(&format!("  {name:<10} {count}\n"));
    }
    report.push_str(
        "(paper: sqrt and none provide excellent results — more accurate \
         solutions than the default linear scaling)\n\n",
    );

    // Runtime finding ("all under 80 minutes").
    let max_runtime = analysis
        .solutions
        .iter()
        .filter(|s| !s.failed && s.runtime_minutes.is_finite())
        .map(|s| s.runtime_minutes)
        .fold(0.0, f64::max);
    report.push_str(&format!(
        "maximum final-generation runtime: {max_runtime:.1} min (paper: all under 80)\n"
    ));

    // start_lr / stop_lr distributions among accurate solutions.
    if !analysis.accurate.is_empty() {
        let lrs: Vec<f64> =
            analysis.accurate.iter().map(|&i| analysis.solutions[i].decoded.start_lr).collect();
        let stops: Vec<f64> =
            analysis.accurate.iter().map(|&i| analysis.solutions[i].decoded.stop_lr).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        report.push_str(&format!(
            "accurate start_lr: mean {:.4}, min {:.4} (paper mass in 0.002–0.004+; default 0.001)\n",
            mean(&lrs),
            lrs.iter().copied().fold(f64::MAX, f64::min)
        ));
        report.push_str(&format!(
            "accurate stop_lr: mean {:.2e}, min {:.2e} (paper: all above 1e-5; default 1e-8)\n",
            mean(&stops),
            stops.iter().copied().fold(f64::MAX, f64::min)
        ));
    }

    print!("{report}");
    write_artifact("fig3_findings.txt", &report);
    exit_if_writes_failed();
}
