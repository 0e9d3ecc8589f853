//! The dataset pair table against the search it replaces: descriptor
//! statistics and every [`FrameCache`] tensor selected from
//! [`Dataset::pair_table`] must be **bit-identical** to what one
//! `pairs_brute_force` search per frame and per cutoff produces — the
//! construction every training ran before the table existed, kept here as
//! the reference.

use dphpo_dnnp::descriptor::{switching_scalar, switching_scalar_deriv};
use dphpo_dnnp::{DescriptorStats, DnnpModel, FrameCache, TrainConfig};
use dphpo_md::generate::{Dataset, Frame};
use dphpo_md::{pairs_brute_force, Cell, Species};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Statistics from one search per frame (the pre-table `compute`).
fn reference_stats(
    ds: &Dataset,
    species_idx: &[usize],
    n_frames: usize,
    rcut: f64,
    rcut_smth: f64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut sums, mut sq_sums, mut counts) = ([0.0f64; 3], [0.0f64; 3], [0usize; 3]);
    for frame in ds.frames.iter().take(n_frames) {
        for pair in pairs_brute_force(&ds.cell, &frame.positions, rcut) {
            let s = switching_scalar(pair.r, rcut_smth, rcut);
            let t = species_idx[pair.j];
            sums[t] += s;
            sq_sums[t] += s * s;
            counts[t] += 1;
        }
    }
    let (mut davg, mut dstd, mut avg) = (vec![0.0; 3], vec![1.0; 3], vec![1.0; 3]);
    for t in 0..3 {
        if counts[t] > 0 {
            let n = counts[t] as f64;
            davg[t] = sums[t] / n;
            dstd[t] = (sq_sums[t] / n - davg[t] * davg[t]).max(0.0).sqrt().max(1e-3);
            avg[t] = (n / (n_frames as f64 * species_idx.len() as f64)).max(1.0);
        }
    }
    (bits(&davg), bits(&dstd), bits(&avg))
}

/// Per species `(z, s, jac, centers, neighbors)` from one search of the
/// frame (the pre-table `FrameCache::build`).
type SpeciesTensors = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<usize>, Vec<usize>);

fn reference_cache(
    cell: &Cell,
    species_idx: &[usize],
    positions: &[[f64; 3]],
    rcut: f64,
    rcut_smth: f64,
    stats: &DescriptorStats,
) -> Vec<SpeciesTensors> {
    let mut out: Vec<SpeciesTensors> = vec![Default::default(); 3];
    for pair in pairs_brute_force(cell, positions, rcut) {
        let t = species_idx[pair.j];
        let s = switching_scalar(pair.r, rcut_smth, rcut);
        let ds = switching_scalar_deriv(pair.r, rcut_smth, rcut);
        let (z, sv, jac, centers, neighbors) = &mut out[t];
        z.push(((s - stats.davg[t]) / stats.dstd[t]).to_bits());
        sv.push(s.to_bits());
        jac.extend(pair.disp.iter().map(|d| (ds * d / pair.r).to_bits()));
        centers.push(pair.i);
        neighbors.push(pair.j);
    }
    out
}

fn cache_tensors(cache: &FrameCache) -> Vec<SpeciesTensors> {
    cache
        .species
        .iter()
        .map(|c| {
            (
                bits(c.z.data()),
                bits(c.s.data()),
                bits(c.jac.data()),
                c.centers.to_vec(),
                c.neighbors.to_vec(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_built_stats_and_caches_are_bit_identical_to_a_search_per_call(
        seed in 0usize..10_000,
        n_atoms in 3usize..13,
        n_frames in 1usize..11,
        box_len in 6.0f64..12.0,
        // As a fraction of the box: up to 0.5 is the minimum-image regime,
        // past ~0.87 (half the diagonal) the cutoff reaches every pair.
        rcut_frac in 0.25f64..1.1,
        smth_frac in 0.05f64..0.9,
        on_a_pair in 0usize..2,
        palette_pick in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let palette: &[Species] = match palette_pick {
            0 => &[Species::Al, Species::K, Species::Cl],
            1 => &[Species::Al, Species::Cl],
            _ => &[Species::Cl],
        };
        let mut species: Vec<Species> =
            (0..n_atoms).map(|_| palette[rng.random_range(0..palette.len())]).collect();
        species[0] = Species::Cl; // keep the dense species count at three
        let cell = Cell::cubic(box_len);
        let frames = (0..n_frames)
            .map(|_| Frame {
                positions: species
                    .iter()
                    .map(|_| std::array::from_fn(|_| rng.random_range(0.0..box_len)))
                    .collect(),
                energy: rng.random_range(-5.0..5.0),
                forces: vec![[0.0; 3]; n_atoms],
            })
            .collect();
        let ds = Dataset { cell, species, frames };

        // Optionally put the cutoff exactly on a pair distance of frame 0:
        // the table's filter and the search must make the same call on it.
        let mut rcut = rcut_frac * box_len;
        if on_a_pair == 1 {
            let all = pairs_brute_force(&cell, &ds.frames[0].positions, 10.0 * box_len);
            rcut = all[rng.random_range(0..all.len())].r;
        }
        let rcut_smth = smth_frac * rcut;
        let config = TrainConfig {
            rcut,
            rcut_smth,
            embedding_neurons: vec![3],
            fitting_neurons: vec![3],
            ..TrainConfig::default()
        };
        let model = DnnpModel::new(config, &ds, &mut rng).unwrap();

        let want = reference_stats(&ds, &model.species_idx, n_frames.min(8), rcut, rcut_smth);
        let got = (
            bits(&model.stats.davg),
            bits(&model.stats.dstd),
            bits(&model.stats.avg_neighbors),
        );
        prop_assert_eq!(got, want);

        let from_table = model.dataset_caches(&ds, 0..n_frames);
        for (f, frame) in ds.frames.iter().enumerate() {
            let want = reference_cache(
                &cell, &model.species_idx, &frame.positions, rcut, rcut_smth, &model.stats,
            );
            prop_assert_eq!(&cache_tensors(&from_table[f]), &want, "frame {} from the table", f);
            // Arbitrary positions take the same path over a one-frame table.
            let one_off = model.build_cache(&frame.positions);
            prop_assert_eq!(&cache_tensors(&one_off), &want, "frame {} one-off", f);
        }
    }
}
