//! Trajectory sampling and dataset assembly — the substitute for the
//! paper's CP2K first-principles trajectory and its conversion into
//! DeePMD-compatible training arrays.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError};

use rand::Rng;

use crate::cell::Cell;
use crate::integrate::{langevin_step, MdState};
use crate::neighbors::PairTable;
use crate::potential::{shuffled_composition, MeltPotential, Species};

/// One labelled configuration: positions with reference energy and forces.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Atomic positions (Å), wrapped into the cell.
    pub positions: Vec<[f64; 3]>,
    /// Reference total potential energy (eV).
    pub energy: f64,
    /// Reference forces (eV/Å).
    pub forces: Vec<[f64; 3]>,
}

/// The frames of a [`Dataset`]: a `Vec<Frame>` that also carries the
/// dataset's [`PairTable`] once one has been asked for.
///
/// Reads go through `Deref<Target = [Frame]>`. Every mutable access goes
/// through `DerefMut`, which drops the table first — the fields are private
/// and there is no other way to a `&mut Frame` — so a table can never
/// describe positions that have since been edited. Collect or convert a
/// `Vec<Frame>` to build one.
#[derive(Default)]
pub struct Frames {
    items: Vec<Frame>,
    /// Built on the first [`Dataset::pair_table`] call, for the cell it
    /// records; replaced if the dataset's cell has changed since.
    table: Mutex<Option<Arc<PairTable>>>,
}

impl Frames {
    /// The frames as a plain vector (the table, if any, is dropped).
    pub fn into_vec(self) -> Vec<Frame> {
        self.items
    }
}

impl From<Vec<Frame>> for Frames {
    fn from(items: Vec<Frame>) -> Self {
        Frames { items, table: Mutex::new(None) }
    }
}

impl FromIterator<Frame> for Frames {
    fn from_iter<I: IntoIterator<Item = Frame>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl Deref for Frames {
    type Target = [Frame];
    fn deref(&self) -> &[Frame] {
        &self.items
    }
}

impl DerefMut for Frames {
    fn deref_mut(&mut self) -> &mut [Frame] {
        // The slot only ever holds `None` or a finished table, so a
        // poisoned lock still guards a valid value.
        *self.table.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        &mut self.items
    }
}

impl<'a> IntoIterator for &'a Frames {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<'a> IntoIterator for &'a mut Frames {
    type Item = &'a mut Frame;
    type IntoIter = std::slice::IterMut<'a, Frame>;
    fn into_iter(self) -> Self::IntoIter {
        DerefMut::deref_mut(self).iter_mut()
    }
}

impl Clone for Frames {
    fn clone(&self) -> Self {
        // Same positions, same table.
        let table = self.table.lock().unwrap_or_else(PoisonError::into_inner).clone();
        Frames { items: self.items.clone(), table: Mutex::new(table) }
    }
}

impl fmt::Debug for Frames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.items.fmt(f)
    }
}

/// A labelled dataset of frames sharing one cell and species list.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The periodic cell.
    pub cell: Cell,
    /// Species of each atom (fixed across frames).
    pub species: Vec<Species>,
    /// Labelled frames.
    pub frames: Frames,
}

impl Dataset {
    /// Every directed minimum-image pair of every frame, whatever the
    /// cutoff — scanned on the first call and shared by every later one, so
    /// the thousands of trainings a campaign runs over this dataset each
    /// select their cutoff's pairs from it instead of repeating the O(n²)
    /// search per frame. Editing a frame (any `&mut` access to
    /// [`Dataset::frames`]) drops the table, and a table scanned under a
    /// different [`Dataset::cell`] is rescanned, so the result always
    /// describes the dataset as it is now.
    pub fn pair_table(&self) -> Arc<PairTable> {
        let mut slot = self.frames.table.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(table) if *table.cell() == self.cell => Arc::clone(table),
            _ => {
                let table = Arc::new(PairTable::build(
                    &self.cell,
                    self.frames.iter().map(|f| f.positions.as_slice()),
                ));
                *slot = Some(Arc::clone(&table));
                table
            }
        }
    }

    /// Number of atoms per frame.
    pub fn n_atoms(&self) -> usize {
        self.species.len()
    }

    /// Number of frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Mean energy per atom across all frames (used for output bias
    /// initialisation, as DeePMD does).
    pub fn mean_energy_per_atom(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let total: f64 = self.frames.iter().map(|f| f.energy).sum();
        total / (self.frames.len() as f64 * self.n_atoms() as f64)
    }

    /// Add Gaussian label noise modelling the DFT convergence/noise floor:
    /// `sigma_e_per_atom` (eV/atom) on energies, `sigma_f` (eV/Å) per force
    /// component. This pins the best achievable validation RMSE near the
    /// paper's observed floor (≈0.03 eV/Å force, ≈5·10⁻⁴ eV/atom energy).
    pub fn add_label_noise<R: Rng + ?Sized>(
        &mut self,
        sigma_e_per_atom: f64,
        sigma_f: f64,
        rng: &mut R,
    ) {
        let n = self.n_atoms() as f64;
        for frame in &mut self.frames {
            frame.energy += sigma_e_per_atom * n.sqrt() * gaussian(rng);
            for f in &mut frame.forces {
                for fk in f.iter_mut() {
                    *fk += sigma_f * gaussian(rng);
                }
            }
        }
    }

    /// Shuffle frames and split off `validation_fraction` of them as the
    /// validation set (the paper withholds 25 %).
    pub fn split<R: Rng + ?Sized>(self, validation_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&validation_fraction), "bad validation fraction");
        let mut frames = self.frames.into_vec();
        // Fisher–Yates shuffle.
        for i in (1..frames.len()).rev() {
            let j = rng.random_range(0..=i);
            frames.swap(i, j);
        }
        let n_val = ((frames.len() as f64) * validation_fraction).round() as usize;
        let val_frames = frames.split_off(frames.len() - n_val);
        let val =
            Dataset { cell: self.cell, species: self.species.clone(), frames: val_frames.into() };
        (Dataset { cell: self.cell, species: self.species, frames: frames.into() }, val)
    }
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

/// Jittered simple-cubic starting positions (avoids overlaps that would
/// blow up the exponential repulsion on step one).
pub fn lattice_positions<R: Rng + ?Sized>(
    cell: &Cell,
    n: usize,
    jitter: f64,
    rng: &mut R,
) -> Vec<[f64; 3]> {
    let m = (n as f64).cbrt().ceil() as usize;
    let spacing = cell.length() / m as f64;
    let mut positions = Vec::with_capacity(n);
    'outer: for x in 0..m {
        for y in 0..m {
            for z in 0..m {
                if positions.len() >= n {
                    break 'outer;
                }
                let p = [
                    (x as f64 + 0.5) * spacing + jitter * spacing * gaussian(rng),
                    (y as f64 + 0.5) * spacing + jitter * spacing * gaussian(rng),
                    (z as f64 + 0.5) * spacing + jitter * spacing * gaussian(rng),
                ];
                positions.push(cell.wrap(p));
            }
        }
    }
    positions
}

/// Configuration for synthetic-FPMD dataset generation.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of atoms (multiple of 10; the paper uses 160).
    pub n_atoms: usize,
    /// Cubic box side (Å; the paper uses 17.84).
    pub box_len: f64,
    /// Thermostat temperature (K; the paper simulates at 498).
    pub temperature: f64,
    /// Time step (fs).
    pub dt_fs: f64,
    /// Langevin friction (1/fs).
    pub friction: f64,
    /// Equilibration steps before sampling begins.
    pub equil_steps: usize,
    /// Steps between sampled frames (decorrelation interval).
    pub sample_every: usize,
    /// Number of frames to sample.
    pub n_frames: usize,
}

impl GenConfig {
    /// Paper-scale generation parameters (expensive: 160 atoms).
    pub fn paper_scale() -> Self {
        GenConfig {
            n_atoms: 160,
            box_len: 17.84,
            temperature: 498.0,
            dt_fs: 1.0,
            friction: 0.02,
            equil_steps: 2_000,
            sample_every: 20,
            n_frames: 1_000,
        }
    }

    /// Default reduced scale used by the HPO experiments: 20 atoms in the
    /// paper's box so the rcut ∈ (6, 12) Å hyperparameter keeps the same
    /// geometric relationship to the cell (see DESIGN.md §2, scale
    /// substitution).
    pub fn reduced() -> Self {
        GenConfig {
            n_atoms: 20,
            box_len: 17.84,
            temperature: 498.0,
            dt_fs: 1.5,
            friction: 0.05,
            equil_steps: 400,
            sample_every: 10,
            n_frames: 120,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> Self {
        GenConfig {
            n_atoms: 20,
            box_len: 11.0,
            temperature: 498.0,
            dt_fs: 1.5,
            friction: 0.1,
            equil_steps: 100,
            sample_every: 5,
            n_frames: 12,
        }
    }
}

/// Run the synthetic FPMD simulation and sample a labelled dataset.
pub fn generate_dataset<R: Rng + ?Sized>(config: &GenConfig, rng: &mut R) -> Dataset {
    let cell = Cell::cubic(config.box_len);
    let potential = MeltPotential::default();
    let species = shuffled_composition(config.n_atoms, rng);
    let positions = lattice_positions(&cell, config.n_atoms, 0.1, rng);
    let mut state = MdState::new(&cell, &potential, &species, positions, config.temperature, rng);

    // Damped warmup with a reduced time step: the jittered lattice start can
    // sit high on the repulsive wall, and full-step integration there is
    // unstable.
    for _ in 0..config.equil_steps / 4 {
        langevin_step(
            &cell,
            &potential,
            &species,
            &mut state,
            config.dt_fs * 0.25,
            config.temperature,
            (config.friction * 10.0).min(0.5),
            rng,
        );
    }
    for _ in 0..config.equil_steps {
        langevin_step(
            &cell,
            &potential,
            &species,
            &mut state,
            config.dt_fs,
            config.temperature,
            config.friction,
            rng,
        );
    }

    let mut frames = Vec::with_capacity(config.n_frames);
    for _ in 0..config.n_frames {
        for _ in 0..config.sample_every {
            langevin_step(
                &cell,
                &potential,
                &species,
                &mut state,
                config.dt_fs,
                config.temperature,
                config.friction,
                rng,
            );
        }
        frames.push(Frame {
            positions: state.positions.clone(),
            energy: state.potential_energy,
            forces: state.forces.clone(),
        });
    }
    Dataset { cell, species, frames: frames.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lattice_positions_fit_in_cell() {
        let cell = Cell::cubic(10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let pos = lattice_positions(&cell, 27, 0.05, &mut rng);
        assert_eq!(pos.len(), 27);
        for p in &pos {
            for c in p.iter() {
                assert!((0.0..10.0).contains(c));
            }
        }
    }

    #[test]
    fn generated_dataset_has_consistent_labels() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = generate_dataset(&GenConfig::tiny(), &mut rng);
        assert_eq!(ds.n_frames(), 12);
        assert_eq!(ds.n_atoms(), 20);
        let potential = MeltPotential::default();
        // Labels must exactly match the reference potential (no noise yet).
        for frame in &ds.frames {
            let (e, f) = potential.energy_forces(&ds.cell, &ds.species, &frame.positions);
            assert!((e - frame.energy).abs() < 1e-9);
            for (a, b) in f.iter().zip(frame.forces.iter()) {
                for k in 0..3 {
                    assert!((a[k] - b[k]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn frames_are_decorrelated_not_identical() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = generate_dataset(&GenConfig::tiny(), &mut rng);
        let a = &ds.frames[0];
        let b = &ds.frames[1];
        let moved = a
            .positions
            .iter()
            .zip(b.positions.iter())
            .any(|(p, q)| ds.cell.distance(*p, *q) > 0.05);
        assert!(moved, "consecutive samples identical — MD not advancing");
        assert_ne!(a.energy, b.energy);
    }

    #[test]
    fn split_respects_fraction_and_preserves_total() {
        let mut rng = StdRng::seed_from_u64(4);
        let ds = generate_dataset(&GenConfig::tiny(), &mut rng);
        let total = ds.n_frames();
        let (train, val) = ds.split(0.25, &mut rng);
        assert_eq!(train.n_frames() + val.n_frames(), total);
        assert_eq!(val.n_frames(), 3); // 25 % of 12
        assert_eq!(train.species, val.species);
    }

    #[test]
    fn label_noise_perturbs_at_requested_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let clean = generate_dataset(&GenConfig::tiny(), &mut rng);
        let mut noisy = clean.clone();
        noisy.add_label_noise(0.0005, 0.03, &mut rng);
        let mut force_sq = 0.0;
        let mut count = 0usize;
        for (a, b) in clean.frames.iter().zip(noisy.frames.iter()) {
            assert_ne!(a.energy, b.energy);
            for (fa, fb) in a.forces.iter().zip(b.forces.iter()) {
                for k in 0..3 {
                    force_sq += (fa[k] - fb[k]).powi(2);
                    count += 1;
                }
            }
        }
        let rmse = (force_sq / count as f64).sqrt();
        assert!((rmse - 0.03).abs() < 0.01, "force noise rmse {rmse}");
    }

    #[test]
    fn mean_energy_per_atom_is_negative_for_bound_melt() {
        let mut rng = StdRng::seed_from_u64(6);
        let ds = generate_dataset(&GenConfig::tiny(), &mut rng);
        assert!(
            ds.mean_energy_per_atom() < 0.0,
            "melt should be bound: {} eV/atom",
            ds.mean_energy_per_atom()
        );
    }

    #[test]
    fn pair_table_is_scanned_once_and_never_stale() {
        use crate::neighbors::{pairs_brute_force, Pair};
        let mut rng = StdRng::seed_from_u64(9);
        let mut ds = generate_dataset(&GenConfig { n_frames: 3, ..GenConfig::tiny() }, &mut rng);
        let matches = |ds: &Dataset| {
            let table = ds.pair_table();
            ds.frames.iter().enumerate().all(|(f, frame)| {
                table.within(f, 5.0).copied().collect::<Vec<Pair>>()
                    == pairs_brute_force(&ds.cell, &frame.positions, 5.0)
            })
        };
        let first = ds.pair_table();
        assert!(Arc::ptr_eq(&first, &ds.pair_table()), "second call rescanned");
        assert!(Arc::ptr_eq(&first, &ds.clone().pair_table()), "a clone shares the table");
        assert!(matches(&ds));

        // Any mutable access to the frames drops the table.
        ds.frames[1].positions[0] = ds.cell.wrap([1.0, 2.0, 3.0]);
        assert!(!Arc::ptr_eq(&first, &ds.pair_table()));
        assert!(matches(&ds));

        // A table scanned under another cell is not served either.
        let before = ds.pair_table();
        ds.cell = Cell::cubic(ds.cell.length() * 0.9);
        assert!(!Arc::ptr_eq(&before, &ds.pair_table()));
        assert!(matches(&ds));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = generate_dataset(&GenConfig::tiny(), &mut rng);
            ds.frames.iter().map(|f| f.energy).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
