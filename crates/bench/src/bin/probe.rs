//! Parameter probe: trains the reference configurations on the campaign's
//! dataset and prints loss magnitudes, simulated minutes and wall time —
//! how the default experiment scale was picked and how it is re-checked.
//! `probe` alone runs the reduced configuration as the campaign builds it;
//! `probe <n_atoms> <num_steps> [start_lr]` varies the scale.

use std::time::Instant;

use dphpo_core::workflow::{evaluate_individual, EvalContext};
use dphpo_core::ExperimentConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ExperimentConfig::reduced();
    if let Some(n_atoms) = args.get(1) {
        config.gen_config.n_atoms = n_atoms.parse().expect("n_atoms is a count");
    }
    if let Some(num_steps) = args.get(2) {
        let num_steps: usize = num_steps.parse().expect("num_steps is a count");
        config.base_train_config.num_steps = num_steps;
        config.base_train_config.disp_freq = num_steps / 4;
    }
    let start_lr: f64 = args.get(3).map_or(5e-3, |s| s.parse().expect("start_lr is a number"));

    let ctx = EvalContext::new(&config);
    let n_atoms = ctx.train.n_atoms();

    // genome: [start_lr, stop_lr, rcut, rcut_smth, scale, desc_act, fit_act]
    // acts: 0 relu, 1 relu6, 2 softplus, 3 sigmoid, 4 tanh
    // scale: 0 linear, 1 sqrt, 2 none
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("tanh none r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 2.5, 4.5, 4.5]),
        ("tanh none r=9.5 ", vec![start_lr, 1e-4, 9.5, 2.4, 2.5, 4.5, 4.5]),
        ("tanh none r=8.0 ", vec![start_lr, 1e-4, 8.0, 2.4, 2.5, 4.5, 4.5]),
        ("tanh none r=6.2 ", vec![start_lr, 1e-4, 6.2, 2.4, 2.5, 4.5, 4.5]),
        ("sigmoid desc r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 2.5, 3.5, 4.5]),
        ("relu fit   r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 2.5, 4.5, 0.5]),
        ("relu6 fit  r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 2.5, 4.5, 1.5]),
        ("softplus both r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 2.5, 2.5, 2.5]),
        ("tanh LINEAR r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 0.5, 4.5, 4.5]),
        ("tanh SQRT  r=11.5", vec![start_lr, 1e-4, 11.5, 2.4, 1.5, 4.5, 4.5]),
        ("tanh none smth=5.5 r=11.5", vec![start_lr, 1e-4, 11.5, 5.5, 2.5, 4.5, 4.5]),
    ];

    println!("atoms={n_atoms} steps={} start_lr={start_lr}", config.base_train_config.num_steps);
    println!("{:<28} {:>10} {:>10} {:>8} {:>7}", "case", "e_loss", "f_loss", "min", "wall");
    for (label, genome) in &cases {
        let t = Instant::now();
        let record = evaluate_individual(&ctx, genome, 17);
        let (e_loss, f_loss) = if record.failed {
            ("FAILED".to_string(), "FAILED".to_string())
        } else {
            (format!("{:.5}", record.fitness.get(0)), format!("{:.5}", record.fitness.get(1)))
        };
        println!(
            "{label:<28} {e_loss:>10} {f_loss:>10} {:>8.1} {:>6.1?}",
            record.minutes,
            t.elapsed()
        );
    }
}
