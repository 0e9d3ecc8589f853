//! The trained weights' bits, pinned. Every (descriptor, fitting) pair of
//! the five activations trains a few steps on a small generated dataset at
//! one sparse and one like-pair-heavy cutoff, and an FNV-1a digest of the
//! trained parameters' `to_bits` is compared with a pinned value per
//! cutoff. The campaign's journal stores losses as 7-significant-digit
//! text, so a change to the trainer's arithmetic below ~1e-7 relative
//! leaves `results/` and its retrain unmoved; this is what sees it.
//!
//! A change that is meant to move weight bits re-pins the two values below
//! and names the old and new digests where it is recorded.

use dphpo_dnnp::{train, Activation, TrainConfig};
use dphpo_md::generate::{generate_dataset, Dataset, GenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(rcut, rcut_smth, digest)`. At 3.5 Å an atom of the tiny 11 Å cell has
/// under one neighbour, always of the other charge; at 5.4 Å about ten,
/// half of them of its own species.
const PINS: [(f64, f64, u64); 2] = [(3.5, 0.5, 0xa356_0d75_c582_552b), (5.4, 2.0, 0x1a2c_f253_b62e_b413)];

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn dataset() -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(15);
    let ds = generate_dataset(&GenConfig { n_frames: 6, ..GenConfig::tiny() }, &mut rng);
    ds.split(0.34, &mut rng)
}

/// Share of the directed pairs within `rcut` whose two atoms share a
/// species, over the training frames.
fn like_share(ds: &Dataset, rcut: f64) -> f64 {
    let table = ds.pair_table();
    let (mut like, mut all) = (0usize, 0usize);
    for frame in 0..ds.n_frames() {
        for pair in table.within(frame, rcut) {
            like += usize::from(ds.species[pair.i] == ds.species[pair.j]);
            all += 1;
        }
    }
    like as f64 / all.max(1) as f64
}

/// Digest of the trained weights of all 25 activation pairs at one cutoff,
/// and each pair's own digest (for the failure message).
fn digest(train_ds: &Dataset, val_ds: &Dataset, rcut: f64, rcut_smth: f64) -> (u64, Vec<String>) {
    let mut total = FNV_OFFSET;
    let mut each = Vec::new();
    for desc in Activation::ALL {
        for fit in Activation::ALL {
            let config = TrainConfig {
                rcut,
                rcut_smth,
                desc_activation: desc,
                fitting_activation: fit,
                embedding_neurons: vec![4, 3],
                fitting_neurons: vec![5, 4],
                num_steps: 4,
                disp_freq: 2,
                n_workers: 2,
                batch_per_worker: 1,
                val_max_frames: 2,
                ..TrainConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(29);
            let report = train(&config, train_ds, val_ds, &mut rng).expect("training runs");
            assert!(!report.diverged, "{}/{} diverged", desc.name(), fit.name());
            let own = report
                .model
                .params
                .flat()
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .fold(FNV_OFFSET, fnv1a);
            total = fnv1a(total, own);
            each.push(format!("{}/{} {own:#018x}", desc.name(), fit.name()));
        }
    }
    (total, each)
}

#[test]
fn trained_weight_bits_match_the_pins() {
    let (train_ds, val_ds) = dataset();
    let mut failures = Vec::new();
    for (rcut, rcut_smth, pinned) in PINS {
        let (got, each) = digest(&train_ds, &val_ds, rcut, rcut_smth);
        if got != pinned {
            failures.push(format!("rcut {rcut}: {got:#018x}, pinned {pinned:#018x}\n  {}", each.join("\n  ")));
        }
    }
    assert!(failures.is_empty(), "trained weight bits moved:\n{}", failures.join("\n"));
}

#[test]
fn the_cutoffs_cover_unlike_only_and_like_heavy_streams() {
    let (train_ds, _) = dataset();
    let (sparse, dense) = (PINS[0].0, PINS[1].0);
    let pairs = |rcut: f64| {
        let table = train_ds.pair_table();
        (0..train_ds.n_frames()).map(|f| table.within(f, rcut).count()).sum::<usize>()
    };
    assert!(pairs(sparse) > 0, "the sparse cutoff sees no pair");
    assert!(pairs(dense) >= 6 * pairs(sparse), "{} vs {}", pairs(dense), pairs(sparse));
    assert_eq!(like_share(&train_ds, sparse), 0.0);
    assert!(like_share(&train_ds, dense) >= 0.4, "like share {}", like_share(&train_ds, dense));
}
