//! The smooth radial descriptor (DeepPot-SE, `se_e2_r` flavour): the
//! switching function `s(r; rcut_smth, rcut)` and the per-frame pair
//! bookkeeping needed to evaluate it inside the autograd tape.

use std::rc::Rc;

use dphpo_autograd::{Tape, Tensor, Var};
use dphpo_md::{pairs_brute_force, Cell, PairTable};

/// Scalar switching function, DeePMD-kit's smooth-edition weight:
///
/// ```text
/// s(r) = 1/r                                   r < rcut_smth
/// s(r) = (1/r)·[u³(−6u² + 15u − 10) + 1]       rcut_smth ≤ r < rcut
/// s(r) = 0                                     r ≥ rcut
/// u = (r − rcut_smth)/(rcut − rcut_smth)
/// ```
///
/// C²-continuous at both edges, which keeps forces (first derivatives) and
/// force-loss gradients (second derivatives) smooth.
pub fn switching_scalar(r: f64, rcut_smth: f64, rcut: f64) -> f64 {
    if r >= rcut {
        return 0.0;
    }
    if r < rcut_smth {
        return 1.0 / r;
    }
    let u = (r - rcut_smth) / (rcut - rcut_smth);
    (1.0 / r) * (u * u * u * (-6.0 * u * u + 15.0 * u - 10.0) + 1.0)
}

/// Analytic derivative `ds/dr` of [`switching_scalar`].
pub fn switching_scalar_deriv(r: f64, rcut_smth: f64, rcut: f64) -> f64 {
    if r >= rcut {
        return 0.0;
    }
    if r < rcut_smth {
        return -1.0 / (r * r);
    }
    let d = rcut - rcut_smth;
    let u = (r - rcut_smth) / d;
    let p = u * u * u * (-6.0 * u * u + 15.0 * u - 10.0) + 1.0;
    // p'(u) = −30 u² (u − 1)².
    let dp = -30.0 * u * u * (u - 1.0) * (u - 1.0);
    dp / (r * d) - p / (r * r)
}

/// Taped version of [`switching_scalar`], composed entirely from
/// double-differentiable primitives (see `dphpo-autograd`).
pub fn switching(tape: &Tape, r: Var, rcut_smth: f64, rcut: f64) -> Var {
    assert!(rcut_smth < rcut, "rcut_smth must lie below rcut");
    let u = tape.clamp01(tape.scale(tape.add_scalar(r, -rcut_smth), 1.0 / (rcut - rcut_smth)));
    let u2 = tape.square(u);
    let u3 = tape.mul(u2, u);
    // poly = 1 + u³(−6u² + 15u − 10)
    let inner = tape.add_scalar(tape.add(tape.scale(u2, -6.0), tape.scale(u, 15.0)), -10.0);
    let poly = tape.add_scalar(tape.mul(u3, inner), 1.0);
    tape.mul(tape.recip(r), poly)
}

/// Pair bookkeeping for one frame at a fixed cutoff, grouped by neighbor
/// species so each embedding net sees only its own pairs.
#[derive(Clone, Debug)]
pub struct SpeciesPairs {
    /// Indices into the frame's directed pair list.
    pub pair_idx: Rc<[usize]>,
    /// Center atom of each selected pair (for the scatter-add pooling).
    pub centers: Rc<[usize]>,
}

/// All directed pairs of one frame within `rcut`, plus the constant
/// minimum-image shifts that make displacements differentiable functions of
/// the positions.
#[derive(Clone, Debug)]
pub struct FramePairs {
    /// Center atom per pair.
    pub centers: Rc<[usize]>,
    /// Neighbor atom per pair.
    pub neighbors: Rc<[usize]>,
    /// Constant shift so `disp_p = x[j_p] − x[i_p] + shift_p` is the
    /// minimum-image displacement (row-major `[P, 3]`).
    pub shifts: Tensor,
    /// Pair subsets per neighbor species.
    pub per_species: Vec<SpeciesPairs>,
    /// Number of directed pairs.
    pub n_pairs: usize,
}

impl FramePairs {
    /// Build the pair structure for a frame. `species_idx` gives each
    /// atom's dense species index; `n_species` the species count.
    pub fn build(
        cell: &Cell,
        species_idx: &[usize],
        positions: &[[f64; 3]],
        rcut: f64,
        n_species: usize,
    ) -> Self {
        let pairs = pairs_brute_force(cell, positions, rcut);
        let n_pairs = pairs.len();
        let mut centers = Vec::with_capacity(n_pairs);
        let mut neighbors = Vec::with_capacity(n_pairs);
        let mut shifts = Vec::with_capacity(n_pairs * 3);
        let mut by_species: Vec<(Vec<usize>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); n_species];
        for (p, pair) in pairs.iter().enumerate() {
            centers.push(pair.i);
            neighbors.push(pair.j);
            #[allow(clippy::needless_range_loop)] // three parallel coordinate arrays
            for k in 0..3 {
                // disp = (x_j − x_i) + shift  ⇒  shift = disp − (x_j − x_i).
                shifts.push(pair.disp[k] - (positions[pair.j][k] - positions[pair.i][k]));
            }
            let t = species_idx[pair.j];
            by_species[t].0.push(p);
            by_species[t].1.push(pair.i);
        }
        FramePairs {
            centers: Rc::from(centers),
            neighbors: Rc::from(neighbors),
            shifts: Tensor::matrix(n_pairs, 3, shifts),
            per_species: by_species
                .into_iter()
                .map(|(pair_idx, centers)| SpeciesPairs {
                    pair_idx: Rc::from(pair_idx),
                    centers: Rc::from(centers),
                })
                .collect(),
            n_pairs,
        }
    }

    /// Taped distances `r_p` for all pairs, as a differentiable function of
    /// the positions variable `x` (`[n, 3]`).
    pub fn distances(&self, tape: &Tape, x: Var) -> Var {
        let xj = tape.gather_rows(x, Rc::clone(&self.neighbors));
        let xi = tape.gather_rows(x, Rc::clone(&self.centers));
        let shift = tape.constant(self.shifts.clone());
        let disp = tape.add(tape.sub(xj, xi), shift);
        tape.sqrt(tape.rowwise_dot(disp, disp))
    }
}

/// Per-neighbor-species standardisation statistics for the descriptor input
/// (DeePMD's `davg`/`dstd`) plus the mean neighbor count used to normalise
/// the pooled embedding.
#[derive(Clone, Debug)]
pub struct DescriptorStats {
    /// Mean of `s(r)` per neighbor species.
    pub davg: Vec<f64>,
    /// Standard deviation of `s(r)` per neighbor species (≥ small floor).
    pub dstd: Vec<f64>,
    /// Average per-atom neighbor count per neighbor species (≥ 1).
    pub avg_neighbors: Vec<f64>,
}

impl DescriptorStats {
    /// Estimate statistics from sample frames: [`DescriptorStats::from_table`]
    /// over a table scanned for the call.
    pub fn compute(
        cell: &Cell,
        species_idx: &[usize],
        frames: &[&[[f64; 3]]],
        rcut: f64,
        rcut_smth: f64,
        n_species: usize,
    ) -> Self {
        let table = PairTable::build(cell, frames.iter().copied());
        Self::from_table(&table, frames.len(), species_idx, rcut, rcut_smth, n_species)
    }

    /// Estimate statistics from the first `n_frames` frames of a scanned
    /// pair table. The table yields a cutoff's pairs in scan order, so the
    /// sums below accumulate in the order a per-frame search would give
    /// them (DESIGN.md §3).
    pub fn from_table(
        table: &PairTable,
        n_frames: usize,
        species_idx: &[usize],
        rcut: f64,
        rcut_smth: f64,
        n_species: usize,
    ) -> Self {
        let n_atoms = species_idx.len();
        let mut sums = vec![0.0f64; n_species];
        let mut sq_sums = vec![0.0f64; n_species];
        let mut counts = vec![0usize; n_species];
        for frame in 0..n_frames {
            for pair in table.within(frame, rcut) {
                let s = switching_scalar(pair.r, rcut_smth, rcut);
                let t = species_idx[pair.j];
                sums[t] += s;
                sq_sums[t] += s * s;
                counts[t] += 1;
            }
        }
        let mut davg = vec![0.0; n_species];
        let mut dstd = vec![1.0; n_species];
        let mut avg_neighbors = vec![1.0; n_species];
        for t in 0..n_species {
            if counts[t] > 0 {
                let n = counts[t] as f64;
                davg[t] = sums[t] / n;
                let var = (sq_sums[t] / n - davg[t] * davg[t]).max(0.0);
                dstd[t] = var.sqrt().max(1e-3);
                avg_neighbors[t] =
                    (n / (n_frames as f64 * n_atoms as f64)).max(1.0);
            }
        }
        DescriptorStats { davg, dstd, avg_neighbors }
    }
}

/// Weight-independent per-frame descriptor values for one neighbor
/// species: everything the training step needs that does *not* change as
/// the network learns. Caching this removes the geometry subgraph (pair
/// distances, switching function, and their double-backward inflation)
/// from every training step — the forces are assembled as
/// `F = Jᵀ·(∂E/∂s)` with the constant sparse Jacobian `J = ds/dx` stored
/// here as per-pair vectors. This is the pair set the fused tape ops run
/// over, so a batch is a list of these, never a merged copy.
pub use dphpo_autograd::PairSet as CachedSpecies;

/// All cached descriptor data for one frame at one (rcut, rcut_smth).
/// Per-species accumulation bucket while building a [`FrameCache`]:
/// `(standardised inputs, switching values, displacement jacobian, centers,
/// neighbors)` for every pair whose neighbor has that species.
type SpeciesBucket = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<usize>, Vec<usize>);

#[derive(Clone, Debug)]
pub struct FrameCache {
    /// Per-neighbor-species caches.
    pub species: Vec<CachedSpecies>,
    /// Atoms in the frame.
    pub n_atoms: usize,
}

impl FrameCache {
    /// Precompute the cache for a frame at arbitrary positions:
    /// [`FrameCache::from_table`] over a one-frame table scanned for the call.
    pub fn build(
        cell: &Cell,
        species_idx: &[usize],
        positions: &[[f64; 3]],
        rcut: f64,
        rcut_smth: f64,
        stats: &DescriptorStats,
        n_species: usize,
    ) -> Self {
        let table = PairTable::build(cell, [positions]);
        Self::from_table(&table, 0, species_idx, rcut, rcut_smth, stats, n_species)
    }

    /// Precompute the cache for frame `frame` of a scanned pair table —
    /// the one place a cutoff's pairs are selected and bucketed. The table
    /// yields each pair `i → j` (`i < j`) right before its reverse, so when
    /// both atoms share a species the reverse lands next to it in the same
    /// bucket, where `PairList::new` finds it as a mirror.
    pub fn from_table(
        table: &PairTable,
        frame: usize,
        species_idx: &[usize],
        rcut: f64,
        rcut_smth: f64,
        stats: &DescriptorStats,
        n_species: usize,
    ) -> Self {
        // Size every bucket exactly before filling it: the selection is a
        // cheap filter, a growing vector's reallocations are not.
        let mut counts = vec![0usize; n_species];
        for pair in table.within(frame, rcut) {
            counts[species_idx[pair.j]] += 1;
        }
        let mut buckets: Vec<SpeciesBucket> = counts
            .iter()
            .map(|&c| {
                (
                    Vec::with_capacity(c),
                    Vec::with_capacity(c),
                    Vec::with_capacity(3 * c),
                    Vec::with_capacity(c),
                    Vec::with_capacity(c),
                )
            })
            .collect();
        for pair in table.within(frame, rcut) {
            let t = species_idx[pair.j];
            let s = switching_scalar(pair.r, rcut_smth, rcut);
            let ds = switching_scalar_deriv(pair.r, rcut_smth, rcut);
            let (z, sv, jac, centers, neighbors) = &mut buckets[t];
            z.push((s - stats.davg[t]) / stats.dstd[t]);
            sv.push(s);
            for k in 0..3 {
                jac.push(ds * pair.disp[k] / pair.r);
            }
            centers.push(pair.i);
            neighbors.push(pair.j);
        }
        FrameCache {
            species: buckets
                .into_iter()
                .map(|(z, s, jac, centers, neighbors)| {
                    let pt = s.len();
                    CachedSpecies {
                        z: Tensor::matrix(pt, 1, z),
                        s: Tensor::new(dphpo_autograd::Shape::D1(pt), s),
                        jac: Tensor::matrix(pt, 3, jac),
                        centers: Rc::from(centers),
                        neighbors: Rc::from(neighbors),
                    }
                })
                .collect(),
            n_atoms: species_idx.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_md::Species;

    #[test]
    fn switching_matches_piecewise_definition() {
        for (smth, cut) in [(2.0, 6.0), (0.5, 9.0), (4.0, 4.5)] {
            for r in [0.5, 1.0, 2.5, 4.2, 5.9, 6.0, 8.0] {
                let expected = switching_scalar(r, smth, cut);
                let tape = Tape::new();
                let rv = tape.constant(Tensor::vector(&[r]));
                let sv = switching(&tape, rv, smth, cut);
                let got = tape.value(sv).data()[0];
                assert!(
                    (got - expected).abs() < 1e-12,
                    "s({r}; {smth}, {cut}) = {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn switching_is_continuous_at_edges() {
        let (smth, cut) = (2.0, 6.0);
        let eps = 1e-7;
        let below = switching_scalar(smth - eps, smth, cut);
        let above = switching_scalar(smth + eps, smth, cut);
        assert!((below - above).abs() < 1e-5);
        let near_cut = switching_scalar(cut - eps, smth, cut);
        assert!(near_cut.abs() < 1e-5);
        assert_eq!(switching_scalar(cut, smth, cut), 0.0);
    }

    #[test]
    fn switching_derivative_vanishes_at_cutoff() {
        // C¹ continuity at rcut: finite-difference slope ≈ 0 near the edge.
        let (smth, cut) = (2.0, 6.0);
        let h = 1e-6;
        let d = (switching_scalar(cut - h, smth, cut) - switching_scalar(cut - 3.0 * h, smth, cut))
            / (2.0 * h);
        assert!(d.abs() < 1e-4, "slope at cutoff {d}");
    }

    #[test]
    fn switching_taped_gradient_matches_finite_difference() {
        let (smth, cut) = (2.0, 6.0);
        for r0 in [1.0, 3.0, 4.5, 5.5] {
            let tape = Tape::new();
            let r = tape.constant(Tensor::vector(&[r0]));
            let s = switching(&tape, r, smth, cut);
            let g = tape.grad(tape.sum_all(s), &[r])[0];
            let h = 1e-6;
            let fd = (switching_scalar(r0 + h, smth, cut) - switching_scalar(r0 - h, smth, cut))
                / (2.0 * h);
            assert!(
                (tape.value(g).data()[0] - fd).abs() < 1e-5,
                "ds/dr at {r0}"
            );
        }
    }

    fn toy_frame() -> (Cell, Vec<usize>, Vec<[f64; 3]>) {
        let cell = Cell::cubic(10.0);
        let species_idx = vec![
            Species::Al.index(),
            Species::Cl.index(),
            Species::Cl.index(),
            Species::K.index(),
        ];
        let positions = vec![
            [1.0, 1.0, 1.0],
            [3.0, 1.0, 1.0],
            [9.5, 1.0, 1.0], // neighbor of atom 0 across the boundary
            [5.0, 5.0, 5.0],
        ];
        (cell, species_idx, positions)
    }

    #[test]
    fn frame_pairs_group_by_species() {
        let (cell, species_idx, positions) = toy_frame();
        let fp = FramePairs::build(&cell, &species_idx, &positions, 3.0, 3);
        // Pairs within 3 Å: (0,1), (0,2) across the boundary, and reverses.
        assert_eq!(fp.n_pairs, 4);
        // Neighbor species Cl (index 2) holds both directed pairs from 0.
        assert_eq!(fp.per_species[Species::Cl.index()].pair_idx.len(), 2);
        assert_eq!(fp.per_species[Species::Al.index()].pair_idx.len(), 2);
        assert_eq!(fp.per_species[Species::K.index()].pair_idx.len(), 0);
    }

    #[test]
    fn taped_distances_match_minimum_image() {
        let (cell, species_idx, positions) = toy_frame();
        let fp = FramePairs::build(&cell, &species_idx, &positions, 3.0, 3);
        let tape = Tape::new();
        let flat: Vec<f64> = positions.iter().flatten().copied().collect();
        let x = tape.constant(Tensor::matrix(4, 3, flat));
        let r = fp.distances(&tape, x);
        let values = tape.value(r);
        for (p, &rv) in values.data().iter().enumerate() {
            let i = fp.centers[p];
            let j = fp.neighbors[p];
            let expected = cell.distance(positions[i], positions[j]);
            assert!((rv - expected).abs() < 1e-12, "pair {p} ({i},{j})");
        }
    }

    #[test]
    fn distances_are_differentiable_wrt_positions() {
        let (cell, species_idx, positions) = toy_frame();
        let fp = FramePairs::build(&cell, &species_idx, &positions, 3.0, 3);
        let tape = Tape::new();
        let flat: Vec<f64> = positions.iter().flatten().copied().collect();
        let x = tape.constant(Tensor::matrix(4, 3, flat.clone()));
        let y = tape.sum_all(fp.distances(&tape, x));
        let g = tape.grad(y, &[x])[0];
        // Finite-difference check on atom 0, x-component. Note: the pair
        // list and shifts are held fixed (valid for small perturbations).
        let h = 1e-6;
        let eval = |dx: f64| {
            let tape = Tape::new();
            let mut f = flat.clone();
            f[0] += dx;
            let x = tape.constant(Tensor::matrix(4, 3, f));
            tape.item(tape.sum_all(fp.distances(&tape, x)))
        };
        let fd = (eval(h) - eval(-h)) / (2.0 * h);
        assert!((tape.value(g).at(0, 0) - fd).abs() < 1e-5);
    }

    #[test]
    fn stats_reflect_data() {
        let (cell, species_idx, positions) = toy_frame();
        let frames: Vec<&[[f64; 3]]> = vec![&positions];
        let stats =
            DescriptorStats::compute(&cell, &species_idx, &frames, 3.0, 1.0, 3);
        // Cl neighbors exist → nonzero mean; K has none → defaults.
        assert!(stats.davg[Species::Cl.index()] > 0.0);
        assert_eq!(stats.davg[Species::K.index()], 0.0);
        assert_eq!(stats.dstd[Species::K.index()], 1.0);
        assert_eq!(stats.avg_neighbors[Species::K.index()], 1.0);
        assert!(stats.dstd.iter().all(|&s| s >= 1e-3));
    }

    #[test]
    fn switching_deriv_matches_finite_difference() {
        for (smth, cut) in [(2.0, 6.0), (0.5, 9.0)] {
            for r in [0.8, 1.9, 2.5, 4.0, 5.9, 7.0] {
                let h = 1e-6;
                let fd = (switching_scalar(r + h, smth, cut)
                    - switching_scalar(r - h, smth, cut))
                    / (2.0 * h);
                let an = switching_scalar_deriv(r, smth, cut);
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "s'({r}; {smth}, {cut}): {fd} vs {an}"
                );
            }
        }
        assert_eq!(switching_scalar_deriv(7.0, 2.0, 6.0), 0.0);
    }

    #[test]
    fn frame_cache_matches_direct_computation() {
        let (cell, species_idx, positions) = toy_frame();
        let (rcut, rcut_smth) = (8.0, 2.0);
        let frames: Vec<&[[f64; 3]]> = vec![&positions];
        let stats = DescriptorStats::compute(&cell, &species_idx, &frames, rcut, rcut_smth, 3);
        let cache =
            FrameCache::build(&cell, &species_idx, &positions, rcut, rcut_smth, &stats, 3);
        assert_eq!(cache.n_atoms, 4);
        let total_pairs: usize = cache.species.iter().map(|c| c.s.len()).sum();
        let fp = FramePairs::build(&cell, &species_idx, &positions, rcut, 3);
        assert_eq!(total_pairs, fp.n_pairs);
        let mut like = 0;
        for (t, c) in cache.species.iter().enumerate() {
            for (k, (&i, &j)) in c.centers.iter().zip(c.neighbors.iter()).enumerate() {
                assert_eq!(species_idx[j], t, "bucketed by neighbor species");
                let r = cell.distance(positions[i], positions[j]);
                let s = switching_scalar(r, rcut_smth, rcut);
                assert!((c.s.data()[k] - s).abs() < 1e-12);
                let z = (s - stats.davg[t]) / stats.dstd[t];
                assert!((c.z.data()[k] - z).abs() < 1e-12);
                // Jacobian row has magnitude |s'(r)|.
                let row = &c.jac.data()[3 * k..3 * k + 3];
                let norm = (row[0] * row[0] + row[1] * row[1] + row[2] * row[2]).sqrt();
                assert!(
                    (norm - switching_scalar_deriv(r, rcut_smth, rcut).abs()).abs() < 1e-10
                );
                // A like pair's reverse follows it with the same `s` and `z`.
                if species_idx[i] == t && i < j {
                    assert_eq!((c.centers[k + 1], c.neighbors[k + 1]), (j, i));
                    assert_eq!(c.s.data()[k + 1].to_bits(), c.s.data()[k].to_bits());
                    assert_eq!(c.z.data()[k + 1].to_bits(), c.z.data()[k].to_bits());
                    like += 1;
                }
            }
        }
        assert_eq!(like, 1, "the one Cl–Cl pair");
    }

    #[test]
    fn larger_cutoff_sees_more_pairs() {
        let (cell, species_idx, positions) = toy_frame();
        let small = FramePairs::build(&cell, &species_idx, &positions, 3.0, 3);
        let large = FramePairs::build(&cell, &species_idx, &positions, 8.0, 3);
        assert!(large.n_pairs > small.n_pairs);
    }
}
