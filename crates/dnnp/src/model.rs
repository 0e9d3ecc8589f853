//! The deep-potential model: per-species embedding nets pooled through the
//! smooth radial descriptor, a fitting net producing per-atom energies, and
//! analytic forces via the autograd tape.
//!
//! This is the `se_e2_r` (radial smooth-edition) flavour of DeepPot-SE at
//! reduced width: the paper fixes embedding {25, 50, 100} and fitting
//! {240, 240, 240}; the reduced default here is embedding {6, 4} and
//! fitting {16, 16} (see DESIGN.md §2, scale substitution). All structure —
//! sum-of-atomic-energies, smooth cutoff, per-species embeddings, forces as
//! `−∂E/∂x` — is faithful.

use rand::Rng;

use std::rc::Rc;

use dphpo_autograd::{PairList, Shape, Tape, Tensor, Var};
use dphpo_md::{Cell, Dataset};

use crate::config::TrainConfig;
use crate::descriptor::{switching, DescriptorStats, FrameCache, FramePairs};

/// One dense layer's parameters.
#[derive(Clone, Debug)]
pub struct LinearLayer {
    /// Weight matrix `[in, out]`.
    pub w: Tensor,
    /// Bias `[out]`.
    pub b: Tensor,
}

/// All trainable parameters of the model.
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Per-neighbor-species embedding networks (input width 1).
    pub embeddings: Vec<Vec<LinearLayer>>,
    /// Per-species first fitting layer acting on the pooled descriptor
    /// (`[M, h0]` each) — equivalent to one `[S·M, h0]` matrix on the
    /// concatenated descriptor, without needing a concat op.
    pub fit_first: Vec<Tensor>,
    /// Species one-hot contribution to the first fitting layer `[S, h0]`.
    pub fit_onehot: Tensor,
    /// First fitting layer bias `[h0]`.
    pub fit_b0: Tensor,
    /// Remaining fitting layers; the last maps to width 1 (atomic energy).
    pub fit_rest: Vec<LinearLayer>,
    /// Per-species atomic-energy bias `[S, 1]`, initialised to the dataset
    /// mean energy per atom (DeePMD's bias initialisation).
    pub energy_bias: Tensor,
}

fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
    let scale = (2.0 / (rows + cols) as f64).sqrt();
    let data = (0..rows * cols).map(|_| scale * gaussian(rng)).collect();
    Tensor::matrix(rows, cols, data)
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

impl ModelParams {
    /// Xavier-initialise all weights for `n_species` species, with the
    /// atomic-energy bias set to `energy_per_atom`.
    pub fn init<R: Rng + ?Sized>(
        config: &TrainConfig,
        n_species: usize,
        energy_per_atom: f64,
        rng: &mut R,
    ) -> Self {
        let m = *config.embedding_neurons.last().expect("empty embedding net");
        let h0 = config.fitting_neurons[0];
        let embeddings = (0..n_species)
            .map(|_| {
                let mut layers = Vec::new();
                let mut input = 1usize;
                for &width in &config.embedding_neurons {
                    layers.push(LinearLayer {
                        w: xavier(input, width, rng),
                        b: Tensor::zeros(Shape::D1(width)),
                    });
                    input = width;
                }
                layers
            })
            .collect();
        let fit_first = (0..n_species).map(|_| xavier(m, h0, rng)).collect();
        let mut fit_rest = Vec::new();
        let mut input = h0;
        for &width in &config.fitting_neurons[1..] {
            fit_rest.push(LinearLayer {
                w: xavier(input, width, rng),
                b: Tensor::zeros(Shape::D1(width)),
            });
            input = width;
        }
        fit_rest.push(LinearLayer {
            w: xavier(input, 1, rng),
            b: Tensor::zeros(Shape::D1(1)),
        });
        ModelParams {
            embeddings,
            fit_first,
            fit_onehot: xavier(n_species, h0, rng),
            fit_b0: Tensor::zeros(Shape::D1(h0)),
            fit_rest,
            energy_bias: Tensor::matrix(n_species, 1, vec![energy_per_atom; n_species]),
        }
    }

    /// Immutable views of every trainable tensor, in optimiser order.
    pub fn flat(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        for net in &self.embeddings {
            for layer in net {
                out.push(&layer.w);
                out.push(&layer.b);
            }
        }
        for w in &self.fit_first {
            out.push(w);
        }
        out.push(&self.fit_onehot);
        out.push(&self.fit_b0);
        for layer in &self.fit_rest {
            out.push(&layer.w);
            out.push(&layer.b);
        }
        out.push(&self.energy_bias);
        out
    }

    /// Mutable views, same order as [`ModelParams::flat`].
    pub fn flat_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        for net in &mut self.embeddings {
            for layer in net {
                out.push(&mut layer.w);
                out.push(&mut layer.b);
            }
        }
        for w in &mut self.fit_first {
            out.push(w);
        }
        out.push(&mut self.fit_onehot);
        out.push(&mut self.fit_b0);
        for layer in &mut self.fit_rest {
            out.push(&mut layer.w);
            out.push(&mut layer.b);
        }
        out.push(&mut self.energy_bias);
        out
    }

    /// True if any parameter has gone non-finite (training divergence).
    pub fn has_non_finite(&self) -> bool {
        self.flat().iter().any(|t| t.has_non_finite())
    }

    /// Register every tensor on a tape, returning the taped mirror.
    pub fn register(&self, tape: &Tape) -> TapedParams {
        let flat: Vec<Var> = self.flat().into_iter().map(|t| tape.constant(t.clone())).collect();
        let mut cursor = 0usize;
        let mut next = || {
            let v = flat[cursor];
            cursor += 1;
            v
        };
        let embeddings: Vec<Vec<(Var, Var)>> = self
            .embeddings
            .iter()
            .map(|net| net.iter().map(|_| (next(), next())).collect())
            .collect();
        let fit_first: Vec<Var> = self.fit_first.iter().map(|_| next()).collect();
        let fit_onehot = next();
        let fit_b0 = next();
        let fit_rest: Vec<(Var, Var)> = self.fit_rest.iter().map(|_| (next(), next())).collect();
        let energy_bias = next();
        TapedParams { embeddings, fit_first, fit_onehot, fit_b0, fit_rest, energy_bias, flat }
    }
}

/// Tape-registered mirror of [`ModelParams`].
pub struct TapedParams {
    /// Embedding layers as `(w, b)` variable pairs.
    pub embeddings: Vec<Vec<(Var, Var)>>,
    /// Per-species first fitting weights.
    pub fit_first: Vec<Var>,
    /// One-hot weights.
    pub fit_onehot: Var,
    /// First-layer bias.
    pub fit_b0: Var,
    /// Remaining fitting layers.
    pub fit_rest: Vec<(Var, Var)>,
    /// Energy bias.
    pub energy_bias: Var,
    /// All variables in optimiser order (gradient targets).
    pub flat: Vec<Var>,
}

/// Output of a taped frame evaluation.
pub struct FrameGraph {
    /// Per-atom energies `[n, 1]` (before summation) — a batched caller
    /// reduces these per frame block.
    pub atomic: Var,
    /// Total energy `[1]`.
    pub energy: Var,
    /// Forces `[n, 3]`, present when requested.
    pub forces: Option<Var>,
    /// Tape length right after the descriptor subgraph (embedding nets and
    /// per-species pooling) — phase mark for the step-budget census.
    pub descriptor_end: usize,
    /// Tape length right after the fitting net and energy reduction; nodes
    /// in `forward_end..` belong to the force backward.
    pub forward_end: usize,
}

/// Build the energy (and optionally force) graph for one frame.
#[allow(clippy::too_many_arguments)]
pub fn forward_frame(
    tape: &Tape,
    taped: &TapedParams,
    config: &TrainConfig,
    stats: &DescriptorStats,
    frame_pairs: &FramePairs,
    positions: &[[f64; 3]],
    onehot: &Tensor,
    want_forces: bool,
) -> FrameGraph {
    let n = onehot.shape().rows();
    let n_species = onehot.shape().cols();
    let h0 = config.fitting_neurons[0];
    let flat_pos: Vec<f64> = positions.iter().flatten().copied().collect();
    let x = tape.constant(Tensor::matrix(n, 3, flat_pos));

    let r = frame_pairs.distances(tape, x);
    let s = switching(tape, r, config.rcut_smth, config.rcut);

    let desc_act = Some(config.desc_activation.unary());
    let mut acc: Option<Var> = None;
    for t in 0..n_species {
        let sp = &frame_pairs.per_species[t];
        if sp.pair_idx.is_empty() {
            continue;
        }
        let st = tape.gather_rows(s, std::rc::Rc::clone(&sp.pair_idx));
        // Standardised embedding input (DeePMD's davg/dstd).
        let z = tape.scale(tape.add_scalar(st, -stats.davg[t]), 1.0 / stats.dstd[t]);
        let mut h = tape.reshape(z, Shape::D2(sp.pair_idx.len(), 1));
        for &(w, b) in &taped.embeddings[t] {
            h = tape.affine(h, w, b, desc_act);
        }
        // Weight each pair's embedding by s(r) and pool per center atom.
        let weighted = tape.mul_col_vec(h, st);
        let pooled = tape.scale(
            tape.scatter_add_rows(weighted, std::rc::Rc::clone(&sp.centers), n),
            1.0 / stats.avg_neighbors[t],
        );
        let contribution = tape.matmul(pooled, taped.fit_first[t]);
        acc = Some(match acc {
            None => contribution,
            Some(prev) => tape.add(prev, contribution),
        });
    }
    let acc = acc.unwrap_or_else(|| tape.constant(Tensor::zeros(Shape::D2(n, h0))));
    let descriptor_end = tape.len();

    let onehot_var = tape.constant(onehot.clone());
    let pre0 = tape.add_bias(
        tape.add(acc, tape.matmul(onehot_var, taped.fit_onehot)),
        taped.fit_b0,
    );
    let fit_act = config.fitting_activation.unary();
    let mut h = config.fitting_activation.apply(tape, pre0);
    let n_rest = taped.fit_rest.len();
    for (k, &(w, b)) in taped.fit_rest.iter().enumerate() {
        // Fused layer; the last one is linear (no activation).
        let act = if k + 1 < n_rest { Some(fit_act) } else { None };
        h = tape.affine(h, w, b, act);
    }
    let atomic = tape.add(h, tape.matmul(onehot_var, taped.energy_bias));
    let energy = tape.sum_all(atomic);
    let forward_end = tape.len();

    let forces = if want_forces {
        let de_dx = tape.grad(energy, &[x])[0];
        Some(tape.neg(de_dx))
    } else {
        None
    };
    FrameGraph { atomic, energy, forces, descriptor_end, forward_end }
}

/// Build the energy (and optionally force) graph for a batch of frames from
/// their precomputed [`FrameCache`]s (one frame is a batch of one).
///
/// Mathematically identical to [`forward_frame`] (property-tested), but the
/// geometry subgraph — pair distances, switching function, and their
/// double-backward inflation — is gone, and each neighbour species' whole
/// embedding chain is one fused node per pass (DESIGN.md §3):
/// [`Tape::embed_pool`] pools `s·h_L(z)` per centre atom over the frames'
/// pair sets in place (atom rows of frame `b` are offset by `b·n`, nothing
/// is merged or copied), [`Tape::grad`] on its pair leaf records the
/// per-pair total sensitivity `u = ∂E/∂s + (∂E/∂z)/dstd`, and
/// [`Tape::force_assemble`] turns the sensitivities into
/// `F = −Jᵀ·u` with the constant Jacobian rows stored in the caches.
///
/// `onehot` is the species one-hot matrix of the whole batch, `[B·n, S]`;
/// the per-atom energies come back in the same row order.
pub fn forward_cached(
    tape: &Tape,
    taped: &TapedParams,
    config: &TrainConfig,
    stats: &DescriptorStats,
    caches: &[&FrameCache],
    onehot: &Tensor,
    want_forces: bool,
) -> FrameGraph {
    let n_frame = caches.first().map_or(0, |c| c.n_atoms);
    let n = n_frame * caches.len();
    let n_species = onehot.shape().cols();
    let h0 = config.fitting_neurons[0];
    debug_assert_eq!(onehot.shape().rows(), n);
    debug_assert!(caches.iter().all(|c| c.n_atoms == n_frame && c.species.len() == n_species));

    let desc_act = config.desc_activation.unary();
    let mut acc: Option<Var> = None;
    // Pair leaf and stream per active species, kept for the force pass.
    let mut streams: Vec<(Var, Rc<PairList>)> = Vec::new();
    for t in 0..n_species {
        let list = PairList::new(
            caches.iter().enumerate().map(|(b, c)| (c.species[t].clone(), b * n_frame)).collect(),
            n,
        );
        if list.n_pairs() == 0 {
            continue;
        }
        let list = Rc::new(list);
        let pooled = tape.embed_pool(
            Rc::clone(&list),
            &taped.embeddings[t],
            desc_act,
            1.0 / stats.dstd[t],
            1.0 / stats.avg_neighbors[t],
        );
        streams.push((pooled.pairs, list));
        let contribution = tape.matmul(pooled.out, taped.fit_first[t]);
        acc = Some(match acc {
            None => contribution,
            Some(prev) => tape.add(prev, contribution),
        });
    }
    let acc = acc.unwrap_or_else(|| tape.constant(Tensor::zeros(Shape::D2(n, h0))));
    let descriptor_end = tape.len();

    let onehot_var = tape.constant(onehot.clone());
    let pre0 = tape.add_bias(
        tape.add(acc, tape.matmul(onehot_var, taped.fit_onehot)),
        taped.fit_b0,
    );
    let fit_act = config.fitting_activation.unary();
    let mut h = config.fitting_activation.apply(tape, pre0);
    let n_rest = taped.fit_rest.len();
    for (k, &(w, b)) in taped.fit_rest.iter().enumerate() {
        let act = if k + 1 < n_rest { Some(fit_act) } else { None };
        h = tape.affine(h, w, b, act);
    }
    let atomic = tape.add(h, tape.matmul(onehot_var, taped.energy_bias));
    let energy = tape.sum_all(atomic);
    let forward_end = tape.len();

    let forces = want_forces.then(|| {
        // One backward pass for all per-species sensitivities, one node
        // for the scatter of every species.
        let leaves: Vec<Var> = streams.iter().map(|&(pairs, _)| pairs).collect();
        let sens = tape.grad(energy, &leaves);
        let parts: Vec<(Var, Rc<PairList>)> =
            sens.into_iter().zip(streams).map(|(u, (_, list))| (u, list)).collect();
        tape.force_assemble(&parts, n)
    });
    FrameGraph { atomic, energy, forces, descriptor_end, forward_end }
}

/// A trained (or training) deep-potential model bound to one system.
pub struct DnnpModel {
    /// Training configuration.
    pub config: TrainConfig,
    /// Trainable parameters.
    pub params: ModelParams,
    /// Descriptor standardisation statistics.
    pub stats: DescriptorStats,
    /// Dense species index per atom.
    pub species_idx: Vec<usize>,
    /// Number of species.
    pub n_species: usize,
    /// One-hot species matrix `[n, S]`.
    pub onehot: Tensor,
    /// The periodic cell.
    pub cell: Cell,
}

impl DnnpModel {
    /// Initialise a model for the system described by `train`, computing
    /// descriptor statistics from up to 8 of its frames.
    pub fn new<R: Rng + ?Sized>(
        config: TrainConfig,
        train: &Dataset,
        rng: &mut R,
    ) -> Result<Self, String> {
        config.validate()?;
        if train.frames.is_empty() {
            return Err("empty training dataset".into());
        }
        let species_idx: Vec<usize> = train.species.iter().map(|s| s.index()).collect();
        let n_species = species_idx.iter().copied().max().unwrap_or(0) + 1;
        let stats = DescriptorStats::from_table(
            &train.pair_table(),
            train.frames.len().min(8),
            &species_idx,
            config.rcut,
            config.rcut_smth,
            n_species,
        );
        let n = species_idx.len();
        let mut onehot = Tensor::zeros(Shape::D2(n, n_species));
        for (i, &t) in species_idx.iter().enumerate() {
            onehot.data_mut()[i * n_species + t] = 1.0;
        }
        let params = ModelParams::init(&config, n_species, train.mean_energy_per_atom(), rng);
        Ok(DnnpModel {
            config,
            params,
            stats,
            species_idx,
            n_species,
            onehot,
            cell: train.cell,
        })
    }

    /// Predict total energy and forces for a configuration.
    pub fn predict(&self, positions: &[[f64; 3]]) -> (f64, Vec<[f64; 3]>) {
        let frame_pairs = FramePairs::build(
            &self.cell,
            &self.species_idx,
            positions,
            self.config.rcut,
            self.n_species,
        );
        let tape = Tape::new();
        let taped = self.params.register(&tape);
        let graph = forward_frame(
            &tape,
            &taped,
            &self.config,
            &self.stats,
            &frame_pairs,
            positions,
            &self.onehot,
            true,
        );
        let energy = tape.item(graph.energy);
        // Read the forces through a borrow — no tensor handle escapes.
        let forces = tape.with_value(graph.forces.expect("forces requested"), |t| {
            t.data().chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect()
        });
        (energy, forces)
    }

    /// The descriptor caches of the given frames of `dataset`, selected from
    /// its pair table ([`Dataset::pair_table`]) — what a training over a
    /// fixed dataset uses instead of one [`DnnpModel::build_cache`] search
    /// per frame, with bit-identical tensors.
    pub fn dataset_caches(
        &self,
        dataset: &Dataset,
        frames: impl IntoIterator<Item = usize>,
    ) -> Vec<FrameCache> {
        let table = dataset.pair_table();
        frames
            .into_iter()
            .map(|frame| {
                FrameCache::from_table(
                    &table,
                    frame,
                    &self.species_idx,
                    self.config.rcut,
                    self.config.rcut_smth,
                    &self.stats,
                    self.n_species,
                )
            })
            .collect()
    }

    /// Build the weight-independent descriptor cache for a frame at
    /// arbitrary positions (a one-frame table, same selection).
    pub fn build_cache(&self, positions: &[[f64; 3]]) -> FrameCache {
        FrameCache::build(
            &self.cell,
            &self.species_idx,
            positions,
            self.config.rcut,
            self.config.rcut_smth,
            &self.stats,
            self.n_species,
        )
    }

    /// Predict energy and forces from a prebuilt cache (fast path).
    pub fn predict_cached(&self, cache: &FrameCache) -> (f64, Vec<[f64; 3]>) {
        let tape = Tape::new();
        let taped = self.params.register(&tape);
        let graph = forward_cached(
            &tape,
            &taped,
            &self.config,
            &self.stats,
            &[cache],
            &self.onehot,
            true,
        );
        let energy = tape.item(graph.energy);
        let forces = tape.with_value(graph.forces.expect("forces requested"), |t| {
            t.data().chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect()
        });
        (energy, forces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_md::generate::{generate_dataset, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> (DnnpModel, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 6;
        let dataset = generate_dataset(&gen, &mut rng);
        let config = TrainConfig {
            rcut: 5.0,
            rcut_smth: 2.0,
            embedding_neurons: vec![6, 4],
            fitting_neurons: vec![8, 8],
            ..TrainConfig::default()
        };
        let model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
        (model, dataset)
    }

    #[test]
    fn initial_prediction_is_near_mean_energy() {
        let (model, dataset) = tiny_model(1);
        let (e, _) = model.predict(&dataset.frames[0].positions);
        let expected = dataset.mean_energy_per_atom() * dataset.n_atoms() as f64;
        // Bias init puts the untrained model within the random-output
        // scale of the dataset mean (≲1 eV/atom), instead of the hundreds
        // of eV a zero-initialised bias would miss by.
        let per_atom_gap = (e - expected).abs() / dataset.n_atoms() as f64;
        assert!(
            per_atom_gap < 1.0,
            "initial energy {e} too far from bias {expected} ({per_atom_gap} eV/atom)"
        );
    }

    #[test]
    fn prediction_is_finite_for_all_activations() {
        use crate::activation::Activation;
        let mut rng = StdRng::seed_from_u64(2);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 3;
        let dataset = generate_dataset(&gen, &mut rng);
        for desc in Activation::ALL {
            for fit in [Activation::Tanh, Activation::Relu] {
                let config = TrainConfig {
                    rcut: 5.0,
                    rcut_smth: 2.0,
                    desc_activation: desc,
                    fitting_activation: fit,
                    embedding_neurons: vec![4, 4],
                    fitting_neurons: vec![6],
                    ..TrainConfig::default()
                };
                let model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
                let (e, forces) = model.predict(&dataset.frames[0].positions);
                assert!(e.is_finite(), "{}/{}", desc.name(), fit.name());
                assert!(forces.iter().flatten().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn forces_are_gradient_of_predicted_energy() {
        let (model, dataset) = tiny_model(3);
        let positions = dataset.frames[0].positions.clone();
        let (_, forces) = model.predict(&positions);
        let h = 1e-5;
        // Spot-check three atom-components against central differences.
        for &(atom, comp) in &[(0usize, 0usize), (3, 1), (7, 2)] {
            let mut pp = positions.clone();
            let mut pm = positions.clone();
            pp[atom][comp] += h;
            pm[atom][comp] -= h;
            let (ep, _) = model.predict(&pp);
            let (em, _) = model.predict(&pm);
            let fd = -(ep - em) / (2.0 * h);
            assert!(
                (fd - forces[atom][comp]).abs() < 1e-4 * (1.0 + fd.abs()),
                "atom {atom} comp {comp}: fd {fd} vs {}",
                forces[atom][comp]
            );
        }
    }

    #[test]
    fn energy_is_translation_invariant() {
        let (model, dataset) = tiny_model(4);
        let positions = dataset.frames[0].positions.clone();
        let shifted: Vec<[f64; 3]> = positions
            .iter()
            .map(|p| model.cell.wrap([p[0] + 1.37, p[1] - 0.58, p[2] + 3.1]))
            .collect();
        let (e0, _) = model.predict(&positions);
        let (e1, _) = model.predict(&shifted);
        assert!((e0 - e1).abs() < 1e-8, "translation changed energy: {e0} vs {e1}");
    }

    #[test]
    fn energy_is_permutation_invariant_within_species() {
        let (model, dataset) = tiny_model(5);
        let mut positions = dataset.frames[0].positions.clone();
        // Find two atoms of the same species and swap them.
        let idx = &model.species_idx;
        let (a, b) = (0..idx.len())
            .flat_map(|i| ((i + 1)..idx.len()).map(move |j| (i, j)))
            .find(|&(i, j)| idx[i] == idx[j])
            .expect("no same-species pair");
        let (e0, _) = model.predict(&positions);
        positions.swap(a, b);
        let (e1, _) = model.predict(&positions);
        assert!((e0 - e1).abs() < 1e-9, "permutation changed energy");
    }

    #[test]
    fn flat_and_flat_mut_agree_on_order_and_count() {
        let (mut model, _) = tiny_model(7);
        let shapes: Vec<_> = model.params.flat().iter().map(|t| t.shape()).collect();
        let shapes_mut: Vec<_> = model.params.flat_mut().iter().map(|t| t.shape()).collect();
        assert_eq!(shapes, shapes_mut);
        // 3 species × 2 embedding layers × 2 + 3 fit_first + onehot + b0
        // + 2 fit_rest layers × 2 + bias = 12 + 3 + 2 + 4 + 1 = 22.
        assert_eq!(shapes.len(), 22);
    }

    #[test]
    fn register_round_trips_values() {
        let (model, _) = tiny_model(8);
        let tape = Tape::new();
        let taped = model.params.register(&tape);
        for (var, tensor) in taped.flat.iter().zip(model.params.flat()) {
            assert_eq!(&tape.value(*var), tensor);
        }
    }

    #[test]
    fn cached_forward_matches_position_graph() {
        // The central equivalence: the fast cached path must produce the
        // same energies AND forces as the full position-differentiated
        // graph, for every activation choice.
        use crate::activation::Activation;
        let mut rng = StdRng::seed_from_u64(21);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 3;
        let dataset = generate_dataset(&gen, &mut rng);
        for (desc, fit) in [
            (Activation::Tanh, Activation::Tanh),
            (Activation::Sigmoid, Activation::Relu),
            (Activation::Softplus, Activation::Relu6),
        ] {
            let config = TrainConfig {
                rcut: 5.5,
                rcut_smth: 2.0,
                desc_activation: desc,
                fitting_activation: fit,
                embedding_neurons: vec![5, 4],
                fitting_neurons: vec![7, 7],
                ..TrainConfig::default()
            };
            let model = DnnpModel::new(config, &dataset, &mut rng).unwrap();
            for frame in &dataset.frames {
                let (e_graph, f_graph) = model.predict(&frame.positions);
                let cache = model.build_cache(&frame.positions);
                let (e_cached, f_cached) = model.predict_cached(&cache);
                assert!(
                    (e_graph - e_cached).abs() < 1e-9,
                    "{}/{}: energy {e_graph} vs {e_cached}",
                    desc.name(),
                    fit.name()
                );
                for (a, b) in f_graph.iter().zip(f_cached.iter()) {
                    for k in 0..3 {
                        assert!(
                            (a[k] - b[k]).abs() < 1e-9,
                            "{}/{}: force {} vs {}",
                            desc.name(),
                            fit.name(),
                            a[k],
                            b[k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_detection_on_params() {
        let (mut model, _) = tiny_model(9);
        assert!(!model.params.has_non_finite());
        model.params.fit_b0.data_mut()[0] = f64::NAN;
        assert!(model.params.has_non_finite());
    }
}
