//! Integration tests of the §2.2.4 evaluation workflow across crates: the
//! template → input.json → TrainConfig → trainer → lcurve → fitness chain,
//! including every failure path's MAXINT semantics.

use std::collections::BTreeMap;
use std::sync::Arc;

use dphpo::core::template::{substitute, template_vars, INPUT_TEMPLATE};
use dphpo::core::workflow::{derive_seed, evaluate_individual, EvalContext};
use dphpo::core::{decode, DeepMDRepresentation};
use dphpo::dnnp::{Json, TrainConfig};
use dphpo::hpc::CostModel;
use dphpo::md::generate::{generate_dataset, GenConfig, LABEL_NOISE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_ctx() -> EvalContext {
    let mut rng = StdRng::seed_from_u64(1);
    let gen = GenConfig {
        n_atoms: 10,
        box_len: 9.0,
        n_frames: 8,
        equil_steps: 80,
        sample_every: 4,
        ..GenConfig::tiny()
    };
    let mut ds = generate_dataset(&gen, &mut rng);
    ds.add_label_noise(LABEL_NOISE.0, LABEL_NOISE.1, &mut rng);
    let (train_ds, val_ds) = ds.split(0.25, &mut rng);
    EvalContext {
        base_config: TrainConfig {
            embedding_neurons: vec![4, 4],
            fitting_neurons: vec![6],
            num_steps: 15,
            batch_per_worker: 1,
            n_workers: 1,
            disp_freq: 15,
            val_max_frames: 2,
            ..TrainConfig::default()
        },
        train: Arc::new(train_ds),
        val: Arc::new(val_ds),
        cost_model: CostModel::default(),
        workdir: None,
    }
}

#[test]
fn every_random_genome_evaluates_without_panicking() {
    // The workflow must be total over the representation's range: any
    // random genome gets either a real fitness or a MAXINT penalty.
    let ctx = tiny_ctx();
    let mut rng = StdRng::seed_from_u64(3);
    let ranges = DeepMDRepresentation::init_ranges();
    for k in 0..12 {
        let genome: Vec<f64> =
            ranges.iter().map(|&(lo, hi)| rng.random_range(lo..hi)).collect();
        let record = evaluate_individual(&ctx, &genome, derive_seed(5, k));
        assert_eq!(record.fitness.len(), 2);
        assert!(record.minutes > 0.0);
        if !record.failed {
            assert!(record.fitness.get(0).is_finite());
            assert!(record.fitness.get(1).is_finite());
        }
    }
}

#[test]
fn template_substitution_round_trips_through_the_artifact() {
    // The exact text written to input.json must parse back into the exact
    // configuration the trainer uses.
    let decoded = decode(&[0.004, 5e-5, 9.7, 3.1, 1.5, 2.5, 4.5]);
    let vars = template_vars(&decoded, &[6, 4], &[16, 16], 2000, 1, 6, 500, 6, 99);
    let text = substitute(INPUT_TEMPLATE, &vars).unwrap();
    let config = TrainConfig::from_input_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(config.rcut, 9.7);
    assert_eq!(config.scale_by_worker.name(), "sqrt");
    assert_eq!(config.desc_activation.name(), "softplus");
    assert_eq!(config.fitting_activation.name(), "tanh");
    assert_eq!(config.num_steps, 2000);
    // And the same config re-serialises to an equivalent document.
    let doc2 = config.to_input_json();
    let config2 = TrainConfig::from_input_json(&doc2).unwrap();
    assert_eq!(config, config2);
}

#[test]
fn unknown_placeholder_fails_loudly() {
    let mut vars = BTreeMap::new();
    vars.insert("rcut".to_string(), "9.0".to_string());
    assert!(substitute(INPUT_TEMPLATE, &vars).is_err());
}

#[test]
fn failure_paths_all_yield_maxint() {
    let ctx = tiny_ctx();
    // Divergent learning rate.
    let diverge = vec![1e200, 1e199, 7.0, 2.5, 2.5, 4.5, 4.5];
    let record = evaluate_individual(&ctx, &diverge, 1);
    assert!(record.failed);
    assert!(record.fitness.is_penalty());
    // Invalid learning rate (non-positive).
    let invalid = vec![-1.0, 1e-5, 7.0, 2.5, 2.5, 4.5, 4.5];
    let record = evaluate_individual(&ctx, &invalid, 2);
    assert!(record.failed && record.fitness.is_penalty());
}

#[test]
fn maxint_sorts_below_every_real_fitness() {
    // The reason the paper replaced NaN with MAXINT: rank sorting must
    // deterministically place failures on the worst front.
    use dphpo::evo::{rank_ordinal_sort, Fitness};
    let fits = [
        Fitness::new(vec![0.001, 0.04]),
        Fitness::penalty(2),
        Fitness::new(vec![0.002, 0.03]),
    ];
    let refs: Vec<&Fitness> = fits.iter().collect();
    let fronts = rank_ordinal_sort(&refs);
    let ranks = fronts.ranks(3);
    assert_eq!(ranks[1], fronts.len() - 1, "penalty must land on the last front");
    assert!(ranks[0] < ranks[1] && ranks[2] < ranks[1]);
}

#[test]
fn seeds_decorrelate_evaluations_but_reproduce_exactly() {
    let ctx = tiny_ctx();
    let genome = vec![0.005, 1e-4, 7.0, 2.5, 2.5, 4.5, 4.5];
    let a = evaluate_individual(&ctx, &genome, 100);
    let b = evaluate_individual(&ctx, &genome, 100);
    let c = evaluate_individual(&ctx, &genome, 101);
    assert_eq!(a.fitness, b.fitness);
    assert_eq!(a.minutes, b.minutes);
    assert_ne!(a.fitness, c.fitness);
}
