//! Train one deep-potential model directly (no EA) and inspect what the
//! DeePMD-substitute substrate produces: the `input.json` artifact, the
//! `lcurve.out` learning curve, and the trained model's force accuracy
//! against the reference potential.
//!
//! ```sh
//! cargo run --release --example train_potential
//! ```

use dphpo::dnnp::{train, Activation, LrScaling, TrainConfig};
use dphpo::md::generate::{generate_dataset, GenConfig, LABEL_NOISE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    let gen = GenConfig { n_frames: 80, ..GenConfig::reduced() };
    let mut dataset = generate_dataset(&gen, &mut rng);
    dataset.add_label_noise(LABEL_NOISE.0, LABEL_NOISE.1, &mut rng);
    let (train_ds, val_ds) = dataset.split(0.25, &mut rng);

    let config = TrainConfig {
        start_lr: 0.008,
        stop_lr: 1e-4,
        rcut: 10.5,
        rcut_smth: 2.4,
        scale_by_worker: LrScaling::None,
        desc_activation: Activation::Tanh,
        fitting_activation: Activation::Tanh,
        num_steps: 1_500,
        disp_freq: 250,
        val_max_frames: 6,
        ..TrainConfig::default()
    };
    println!("input.json:\n{}", config.to_input_json());

    println!("training {} steps…", config.num_steps);
    let t0 = std::time::Instant::now();
    let report = train(&config, &train_ds, &val_ds, &mut rng).expect("valid configuration");
    println!("finished in {:.1?} (diverged: {})\n", t0.elapsed(), report.diverged);

    println!("lcurve.out:\n{}", report.lcurve.to_text());
    let (final_e, final_f) = report.lcurve.final_losses().expect("completed training");
    println!(
        "final validation: energy RMSE {final_e:.4} eV/atom, force RMSE {final_f:.4} eV/Å"
    );

    // Compare predicted vs reference forces on one held-out frame.
    let frame = &val_ds.frames[0];
    let (energy, forces) = report.model.predict(&frame.positions);
    println!(
        "\nheld-out frame: E_pred {energy:.3} eV vs E_ref {:.3} eV",
        frame.energy
    );
    println!("first three atoms, predicted vs reference force (eV/Å):");
    for (i, (f, r)) in forces.iter().zip(&frame.forces).enumerate().take(3) {
        println!(
            "  atom {i}: ({:+.3}, {:+.3}, {:+.3})  vs  ({:+.3}, {:+.3}, {:+.3})",
            f[0], f[1], f[2],
            r[0], r[1], r[2]
        );
    }
}
