//! Oracle tests for the fused training path (ROADMAP 4a): every check
//! compares against something that does **not** run the code under test.
//!
//! * forces vs central finite differences of the *energy* — the energy is a
//!   plain forward evaluation, so neither `Tape::grad` nor the sensitivity
//!   and force kernels are in the oracle;
//! * parameter gradients of the energy+force training loss vs finite
//!   differences of the *loss* — the loss needs forces but no backward
//!   pass, so `Tape::grad_values` and the second-order sweep are not in the
//!   oracle;
//! * fused energies and forces vs [`forward_frame`], the position graph
//!   built from unfused taped primitives, over random shapes;
//! * energy invariance and force equivariance under the 48 symmetries of
//!   the cubic cell, against the unmoved frame's own prediction.
//!
//! Run in `--release` by `scripts/verify.sh` stage 10 (the finite
//! differences evaluate a few thousand graphs).

use dphpo_autograd::{Tape, Tensor};
use dphpo_dnnp::{
    forward_cached, train, Activation, DnnpModel, FrameCache, TrainConfig,
};
use dphpo_md::generate::{generate_dataset, Dataset, Frame, GenConfig};
use dphpo_md::{Cell, Species};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The worst disagreement between the fused path and `forward_frame`
/// measured over the proptest below is 7e-16 of `1 + |reference|`; the pin
/// leaves three orders of headroom (DESIGN.md §10.2).
const FUSED_VS_GRAPH_TOL: f64 = 1e-12;

fn tiny_dataset(seed: u64, n_frames: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = GenConfig { n_frames, ..GenConfig::tiny() };
    generate_dataset(&gen, &mut rng)
}

#[test]
fn forces_are_minus_the_energy_gradient_for_all_activation_pairs() {
    // `tiny` is an 11 Å box: cutoffs stay below half of it so the
    // minimum-image pair list is smooth under the ±h displacement.
    let dataset = tiny_dataset(41, 2);
    let mut rng = StdRng::seed_from_u64(42);
    let h = 1e-5;
    let mut checked = 0usize;
    for (rcut, rcut_smth) in [(4.0, 0.5), (5.0, 2.0), (5.4, 4.5)] {
        for desc in Activation::ALL {
            for fit in Activation::ALL {
                let config = TrainConfig {
                    rcut,
                    rcut_smth,
                    desc_activation: desc,
                    fitting_activation: fit,
                    embedding_neurons: vec![5, 3],
                    fitting_neurons: vec![6, 5],
                    ..TrainConfig::default()
                };
                let model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
                let positions = &dataset.frames[1].positions;
                let (_, forces) = model.predict_cached(&model.build_cache(positions));
                let energy_at = |p: &[[f64; 3]]| model.predict_cached(&model.build_cache(p)).0;
                for &(atom, comp) in &[(0usize, 0usize), (4, 1), (9, 2), (17, 0)] {
                    let (mut plus, mut minus) = (positions.clone(), positions.clone());
                    plus[atom][comp] += h;
                    minus[atom][comp] -= h;
                    let fd = -(energy_at(&plus) - energy_at(&minus)) / (2.0 * h);
                    let f = forces[atom][comp];
                    assert!(
                        (fd - f).abs() <= 2e-6 * (1.0 + f.abs()),
                        "{}/{} rcut {rcut} smth {rcut_smth} atom {atom} comp {comp}: fd {fd} vs force {f}",
                        desc.name(),
                        fit.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 3 * 25 * 4);
}

/// The 48 signed axis permutations of the cube, as `(perm, signs)`: the
/// map `v'[i] = signs[i] · v[perm[i]]`.
fn cubic_group() -> Vec<([usize; 3], [f64; 3])> {
    let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let signs = |bits: usize| std::array::from_fn(|i| if bits >> i & 1 == 1 { -1.0 } else { 1.0 });
    perms.into_iter().flat_map(|perm| (0..8).map(move |bits| (perm, signs(bits)))).collect()
}

#[test]
fn energy_is_invariant_and_forces_rotate_under_the_cubic_group() {
    // Each signed axis permutation maps the cubic cell onto itself, so it is
    // an exact symmetry of the periodic frame: rotated (or reflected) and
    // re-wrapped into [0, L), the frame has the same energy, and each
    // atom's force is the rotated force. The oracle is the unmoved frame's
    // prediction; cutoffs stay below half of `tiny`'s 11 Å box.
    let dataset = tiny_dataset(61, 1);
    let box_len = GenConfig::tiny().box_len;
    let positions = &dataset.frames[0].positions;
    let group = cubic_group();
    assert_eq!(group.len(), 48);
    let mut rng = StdRng::seed_from_u64(62);
    let close = |got: f64, want: f64| (got - want).abs() <= FUSED_VS_GRAPH_TOL * (1.0 + want.abs());
    let mut checked = 0usize;
    for desc in Activation::ALL {
        for fit in Activation::ALL {
            let config = TrainConfig {
                rcut: 5.0,
                rcut_smth: 2.0,
                desc_activation: desc,
                fitting_activation: fit,
                embedding_neurons: vec![5, 3],
                fitting_neurons: vec![6, 5],
                ..TrainConfig::default()
            };
            let model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
            type Predict<'m> = &'m dyn Fn(&[[f64; 3]]) -> (f64, Vec<[f64; 3]>);
            let paths: [(&str, Predict<'_>); 2] = [
                ("predict", &|p| model.predict(p)),
                ("predict_cached", &|p| model.predict_cached(&model.build_cache(p))),
            ];
            for (path, predict) in paths {
                let (e_ref, f_ref) = predict(positions);
                for &(perm, signs) in &group {
                    let rotate = |v: &[f64; 3]| -> [f64; 3] {
                        std::array::from_fn(|i| signs[i] * v[perm[i]])
                    };
                    let moved: Vec<[f64; 3]> =
                        positions.iter().map(|p| rotate(p).map(|x| x.rem_euclid(box_len))).collect();
                    let (e, forces) = predict(&moved);
                    let at = format!("{}/{} {path} {perm:?} {signs:?}", desc.name(), fit.name());
                    assert!(close(e, e_ref), "{at}: energy {e} vs {e_ref}");
                    for (atom, (f, f0)) in forces.iter().zip(&f_ref).enumerate() {
                        let want = rotate(f0);
                        assert!(
                            (0..3).all(|k| close(f[k], want[k])),
                            "{at} atom {atom}: force {f:?} vs rotated {want:?}"
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 25 * 2 * 48);
}

/// Energy+force loss of `model` on `caches`, as the trainer spells it
/// (`pe`, `pf` fixed), and optionally its parameter gradients.
fn batch_loss(
    model: &DnnpModel,
    caches: &[&FrameCache],
    e_ref: &[f64],
    f_ref: &Tensor,
    want_grads: bool,
) -> (f64, Vec<Tensor>) {
    let (pe, pf) = (0.7, 3.0);
    let n = model.species_idx.len();
    let batch = caches.len();
    let tape = Tape::new();
    let taped = model.params.register(&tape);
    let onehot = tile(&model.onehot, batch);
    let graph = forward_cached(&tape, &taped, &model.config, &model.stats, caches, &onehot, true);
    let frame_ids: std::rc::Rc<[usize]> =
        (0..batch).flat_map(|b| std::iter::repeat_n(b, n)).collect::<Vec<_>>().into();
    let energies = tape.scatter_add_rows(graph.atomic, frame_ids, batch);
    let e_diff = tape.sub(energies, tape.constant(Tensor::matrix(batch, 1, e_ref.to_vec())));
    let f_diff = tape.sub(graph.forces.unwrap(), tape.constant(f_ref.clone()));
    let nf = n as f64;
    let le = tape.scale(tape.sum_all(tape.square(e_diff)), pe / (nf * nf * batch as f64));
    let lf = tape.scale(tape.sum_all(tape.square(f_diff)), pf / (3.0 * nf * batch as f64));
    let loss = tape.add(le, lf);
    let grads = if want_grads { tape.grad_values(loss, &taped.flat) } else { Vec::new() };
    (tape.item(loss), grads)
}

fn tile(onehot: &Tensor, batch: usize) -> Tensor {
    let mut data = Vec::new();
    for _ in 0..batch {
        data.extend_from_slice(onehot.data());
    }
    Tensor::matrix(batch * onehot.shape().rows(), onehot.shape().cols(), data)
}

#[test]
fn loss_gradients_match_finite_differences_per_activation() {
    let dataset = tiny_dataset(51, 3);
    let mut rng = StdRng::seed_from_u64(52);
    let h = 1e-6;
    for act in Activation::ALL {
        let config = TrainConfig {
            rcut: 5.0,
            rcut_smth: 1.5,
            desc_activation: act,
            fitting_activation: act,
            embedding_neurons: vec![3, 2],
            fitting_neurons: vec![4, 3],
            ..TrainConfig::default()
        };
        let mut model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
        // Spread the zero-initialised biases so no adjoint is trivially
        // symmetric.
        for t in model.params.flat_mut() {
            for v in t.data_mut() {
                *v += rng.random_range(-0.2..0.2);
            }
        }
        let owned: Vec<FrameCache> =
            dataset.frames.iter().map(|f| model.build_cache(&f.positions)).collect();
        let caches: Vec<&FrameCache> = owned.iter().collect();
        let e_ref: Vec<f64> = dataset.frames.iter().map(|f| f.energy).collect();
        let f_ref = Tensor::matrix(
            dataset.frames.len() * dataset.n_atoms(),
            3,
            dataset.frames.iter().flat_map(|f| f.forces.iter().flatten().copied()).collect(),
        );
        let (_, grads) = batch_loss(&model, &caches, &e_ref, &f_ref, true);
        for (p, grad) in grads.iter().enumerate() {
            let len = grad.len();
            // First, middle and last element of every parameter tensor.
            for i in [0, len / 2, len - 1] {
                let mut eval = |delta: f64| {
                    model.params.flat_mut()[p].data_mut()[i] += delta;
                    let (l, _) = batch_loss(&model, &caches, &e_ref, &f_ref, false);
                    model.params.flat_mut()[p].data_mut()[i] -= delta;
                    l
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let g = grad.data()[i];
                assert!(
                    (fd - g).abs() <= 2e-5 * (1.0 + g.abs()),
                    "{}: parameter {p} element {i}: fd {fd} vs grad {g}",
                    act.name()
                );
            }
        }
    }
}

/// A hand-built dataset: `n_atoms` atoms of the given species at random
/// positions in a 10 Å box, `n_frames` frames, arbitrary labels.
fn random_dataset(species: &[Species], n_frames: usize, rng: &mut StdRng) -> Dataset {
    let cell = Cell::cubic(10.0);
    let frames = (0..n_frames)
        .map(|_| Frame {
            positions: species
                .iter()
                .map(|_| std::array::from_fn(|_| rng.random_range(0.0..10.0)))
                .collect(),
            energy: rng.random_range(-5.0..5.0),
            forces: vec![[0.0; 3]; species.len()],
        })
        .collect();
    Dataset { cell, species: species.to_vec(), frames }
}

fn trained_weight_bits(config: &TrainConfig, data: &Dataset, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let report = train(config, data, data, &mut rng).unwrap();
    report.model.params.flat().iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_batch_matches_position_graph_over_random_shapes(
        seed in 0usize..10_000,
        depth in 1usize..4,
        widths in prop::collection::vec(1usize..6, 3),
        n_atoms in 5usize..14,
        n_frames in 1usize..4,
        rcut in 3.2f64..4.9,
        act_pick in 0usize..25,
        drop_potassium in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        // With potassium dropped, neighbour species 1 has zero pairs in
        // every frame while species 2 still exists.
        let palette: &[Species] = if drop_potassium == 1 {
            &[Species::Al, Species::Cl]
        } else {
            &[Species::Al, Species::K, Species::Cl]
        };
        let mut species: Vec<Species> =
            (0..n_atoms).map(|_| palette[rng.random_range(0..palette.len())]).collect();
        species[0] = Species::Cl; // keep the species count at three
        let data = random_dataset(&species, n_frames, &mut rng);
        let config = TrainConfig {
            rcut,
            rcut_smth: rcut * 0.4,
            desc_activation: Activation::ALL[act_pick % 5],
            fitting_activation: Activation::ALL[act_pick / 5],
            embedding_neurons: widths[..depth].to_vec(),
            fitting_neurons: vec![4],
            num_steps: 4,
            disp_freq: 2,
            n_workers: 2,
            batch_per_worker: 1,
            val_max_frames: 2,
            ..TrainConfig::default()
        };
        let model = DnnpModel::new(config.clone(), &data, &mut rng).unwrap();
        let owned: Vec<FrameCache> =
            data.frames.iter().map(|f| model.build_cache(&f.positions)).collect();
        let caches: Vec<&FrameCache> = owned.iter().collect();

        // One batch graph over the frame list (atom rows offset per frame)…
        let tape = Tape::new();
        let taped = model.params.register(&tape);
        let graph = forward_cached(
            &tape, &taped, &model.config, &model.stats, &caches,
            &tile(&model.onehot, n_frames), true,
        );
        let atomic = tape.value(graph.atomic);
        let forces = tape.value(graph.forces.unwrap());
        // …against the unfused position graph, frame by frame.
        for (b, frame) in data.frames.iter().enumerate() {
            let (e_ref, f_ref) = model.predict(&frame.positions);
            let e: f64 = atomic.data()[b * n_atoms..(b + 1) * n_atoms].iter().sum();
            prop_assert!(
                (e - e_ref).abs() <= FUSED_VS_GRAPH_TOL * (1.0 + e_ref.abs()),
                "frame {} energy {} vs {}", b, e, e_ref
            );
            for (i, fr) in f_ref.iter().enumerate() {
                for (k, &want) in fr.iter().enumerate() {
                    let f = forces.data()[(b * n_atoms + i) * 3 + k];
                    prop_assert!(
                        (f - want).abs() <= FUSED_VS_GRAPH_TOL * (1.0 + want.abs()),
                        "frame {} atom {} comp {}: {} vs {}", b, i, k, f, want
                    );
                }
            }
        }

        // Same seed, same bits: the lane-blocked reductions are a fixed
        // order, not a race.
        prop_assert_eq!(
            trained_weight_bits(&config, &data, seed as u64 + 1),
            trained_weight_bits(&config, &data, seed as u64 + 1)
        );
    }
}
