//! The classical reference potential that stands in for CP2K DFT.
//!
//! The paper's ground truth is first-principles molecular dynamics of a
//! molten 66.7 % AlCl₃ / 33.3 % KCl mixture. We substitute a Born–Mayer–
//! Huggins-style ionic melt model: exponential short-range repulsion plus a
//! Yukawa-screened Coulomb interaction,
//!
//! ```text
//! U_ij(r) = B_ij · exp((σ_ij − r)/ρ)  +  k_e·q_i·q_j / r · exp(−r/λ)
//! ```
//!
//! The screened Coulomb term leaves genuine, configuration-dependent energy
//! in the 6–9 Å shell, which is what couples the learned potential's
//! accuracy to the `rcut` hyperparameter the way the paper observes
//! (no chemically accurate model below rcut ≈ 8.5 Å).
//!
//! Units: eV, Å, amu, elementary charge. `k_e = e²/(4πε₀) = 14.3996 eV·Å`.

use crate::cell::Cell;

/// Coulomb constant in eV·Å per elementary-charge².
const COULOMB_EV_A: f64 = 14.399_645;

/// Boltzmann constant in eV/K.
pub const KB_EV: f64 = 8.617_333e-5;

/// Ion species in the molten AlCl₃–KCl system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Species {
    /// Aluminium, +3.
    Al,
    /// Potassium, +1.
    K,
    /// Chloride, −1.
    Cl,
}

impl Species {
    /// Formal ionic charge in units of `e`.
    pub fn charge(&self) -> f64 {
        match self {
            Species::Al => 3.0,
            Species::K => 1.0,
            Species::Cl => -1.0,
        }
    }

    /// Atomic mass in amu.
    pub fn mass(&self) -> f64 {
        match self {
            Species::Al => 26.982,
            Species::K => 39.098,
            Species::Cl => 35.453,
        }
    }

    /// Effective ionic radius in Å (sets the repulsive contact distance).
    pub fn radius(&self) -> f64 {
        match self {
            Species::Al => 1.00,
            Species::K => 1.52,
            Species::Cl => 1.81,
        }
    }

    /// Repulsion prefactor contribution (combined geometrically per pair).
    fn softness(&self) -> f64 {
        match self {
            Species::Al => 6.0,
            Species::K => 2.0,
            Species::Cl => 2.0,
        }
    }

    /// Dense species index used by descriptors and datasets.
    pub fn index(&self) -> usize {
        match self {
            Species::Al => 0,
            Species::K => 1,
            Species::Cl => 2,
        }
    }

    /// All species, ordered by [`Species::index`].
    pub const ALL: [Species; 3] = [Species::Al, Species::K, Species::Cl];
}

/// [`melt_composition`] shuffled with the given RNG, so that consecutive
/// lattice sites get mixed species (a block of adjacent +3 ions makes the
/// starting configuration explosively repulsive).
pub fn shuffled_composition<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Species> {
    let mut species = melt_composition(n);
    for i in (1..species.len()).rev() {
        let j = rng.random_range(0..=i);
        species.swap(i, j);
    }
    species
}

/// The paper's composition: 66.7 % AlCl₃ / 33.3 % KCl with 160 atoms is
/// 32 Al³⁺, 16 K⁺, 112 Cl⁻ (charge neutral). This returns that species list
/// scaled to `n` atoms (n must be a multiple of 10).
pub fn melt_composition(n: usize) -> Vec<Species> {
    assert!(n >= 10 && n.is_multiple_of(10), "composition requires a multiple of 10 atoms, got {n}");
    let y = n / 10; // KCl formula units; AlCl3 units = 2y
    let n_al = 2 * y;
    let n_k = y;
    let n_cl = 7 * y;
    let mut species = Vec::with_capacity(n);
    species.extend(std::iter::repeat_n(Species::Al, n_al));
    species.extend(std::iter::repeat_n(Species::K, n_k));
    species.extend(std::iter::repeat_n(Species::Cl, n_cl));
    species
}

/// Born–Mayer–Huggins + screened-Coulomb pair potential.
///
/// `charge_factor` applies *effective (partial) charges*, standard practice
/// in empirical molten-salt force fields (typically 0.7–0.8× formal): bare
/// ±3/∓1 formal-charge Coulomb forces are substantially stiffer than the
/// screened forces DFT produces, and the partial charges bring the force
/// scale — and hence achievable force RMSEs — into the regime where the
/// paper's 0.04 eV/Å chemical-accuracy threshold is meaningful.
#[derive(Clone, Copy, Debug)]
pub struct MeltPotential {
    /// Repulsion decay length ρ (Å).
    pub rho: f64,
    /// Coulomb screening length λ (Å).
    pub lambda: f64,
    /// Effective-charge scaling applied to each formal charge.
    pub charge_factor: f64,
}

impl Default for MeltPotential {
    fn default() -> Self {
        MeltPotential { rho: 0.33, lambda: 3.0, charge_factor: 0.75 }
    }
}

impl MeltPotential {
    fn pair_params(&self, a: Species, b: Species) -> (f64, f64) {
        let sigma = a.radius() + b.radius();
        let bij = (a.softness() * b.softness()).sqrt();
        (sigma, bij)
    }

    fn qq(&self, a: Species, b: Species) -> f64 {
        self.charge_factor * a.charge() * self.charge_factor * b.charge()
    }

    /// Pair energy at separation `r`.
    fn pair_energy(&self, a: Species, b: Species, r: f64) -> f64 {
        let (sigma, bij) = self.pair_params(a, b);
        let rep = bij * ((sigma - r) / self.rho).exp();
        let coul = COULOMB_EV_A * self.qq(a, b) / r * (-r / self.lambda).exp();
        rep + coul
    }

    /// Derivative dU/dr of the pair energy.
    fn pair_force_mag(&self, a: Species, b: Species, r: f64) -> f64 {
        let (sigma, bij) = self.pair_params(a, b);
        let d_rep = -bij / self.rho * ((sigma - r) / self.rho).exp();
        let qq = COULOMB_EV_A * self.qq(a, b);
        let screen = (-r / self.lambda).exp();
        let d_coul = -qq * screen * (1.0 / (r * r) + 1.0 / (self.lambda * r));
        d_rep + d_coul
    }

    /// Total potential energy and per-atom forces for a configuration under
    /// the minimum-image convention (all pairs, no cutoff: this is the
    /// "exact DFT" ground truth the learned potential is trained against).
    pub fn energy_forces(
        &self,
        cell: &Cell,
        species: &[Species],
        positions: &[[f64; 3]],
    ) -> (f64, Vec<[f64; 3]>) {
        assert_eq!(species.len(), positions.len());
        let n = positions.len();
        let mut energy = 0.0;
        let mut forces = vec![[0.0; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = cell.min_image(positions[i], positions[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let r = r2.sqrt();
                energy += self.pair_energy(species[i], species[j], r);
                // F_j = −dU/dr · r̂ (direction from i to j); F_i = −F_j.
                let du = self.pair_force_mag(species[i], species[j], r);
                let coeff = -du / r;
                for k in 0..3 {
                    forces[j][k] += coeff * d[k];
                    forces[i][k] -= coeff * d[k];
                }
            }
        }
        (energy, forces)
    }

    /// Energy only (used by tests and finite differencing).
    pub fn energy(&self, cell: &Cell, species: &[Species], positions: &[[f64; 3]]) -> f64 {
        self.energy_forces(cell, species, positions).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_is_neutral_and_sized() {
        for n in [10, 40, 160] {
            let s = melt_composition(n);
            assert_eq!(s.len(), n);
            let q: f64 = s.iter().map(|sp| sp.charge()).sum();
            assert_eq!(q, 0.0, "non-neutral composition for n={n}");
        }
        let s = melt_composition(160);
        assert_eq!(s.iter().filter(|&&x| x == Species::Al).count(), 32);
        assert_eq!(s.iter().filter(|&&x| x == Species::K).count(), 16);
        assert_eq!(s.iter().filter(|&&x| x == Species::Cl).count(), 112);
    }

    #[test]
    #[should_panic(expected = "multiple of 10")]
    fn composition_rejects_bad_counts() {
        melt_composition(7);
    }

    #[test]
    fn unlike_pairs_have_attractive_well() {
        let p = MeltPotential::default();
        // Al–Cl should have a minimum somewhere between contact and 4 Å.
        let mut best = (0.0, f64::MAX);
        let mut r = 1.5;
        while r < 6.0 {
            let u = p.pair_energy(Species::Al, Species::Cl, r);
            if u < best.1 {
                best = (r, u);
            }
            r += 0.01;
        }
        assert!(best.1 < -1.0, "no attractive well: {best:?}");
        assert!(best.0 > 1.8 && best.0 < 4.0, "well at odd distance {}", best.0);
    }

    #[test]
    fn like_pairs_are_repulsive() {
        let p = MeltPotential::default();
        for r in [2.0, 3.0, 4.0, 6.0] {
            assert!(p.pair_energy(Species::Al, Species::Al, r) > 0.0);
            assert!(p.pair_energy(Species::Cl, Species::Cl, r) > 0.0);
        }
    }

    #[test]
    fn pair_force_matches_energy_derivative() {
        let p = MeltPotential::default();
        let h = 1e-6;
        for (a, b) in [(Species::Al, Species::Cl), (Species::K, Species::Cl), (Species::Cl, Species::Cl)] {
            for r in [2.0, 3.5, 5.0, 8.0] {
                let fd = (p.pair_energy(a, b, r + h) - p.pair_energy(a, b, r - h)) / (2.0 * h);
                let an = p.pair_force_mag(a, b, r);
                assert!((fd - an).abs() < 1e-6 * (1.0 + an.abs()), "{a:?}-{b:?} r={r}: {fd} vs {an}");
            }
        }
    }

    #[test]
    fn tail_energy_is_significant_in_6_to_9_shell() {
        // The substitution argument: there must be real interaction energy
        // between 6 and 9 Å so that rcut genuinely matters.
        let p = MeltPotential::default();
        let u6 = p.pair_energy(Species::Al, Species::Cl, 6.0).abs();
        let u9 = p.pair_energy(Species::Al, Species::Cl, 9.0).abs();
        assert!(u6 > 0.05, "tail at 6 Å too small: {u6}");
        assert!(u9 > 0.002, "tail at 9 Å vanished: {u9}");
        assert!(u6 > u9, "screened Coulomb must decay");
    }

    #[test]
    fn forces_match_finite_difference_of_total_energy() {
        let p = MeltPotential::default();
        let cell = Cell::cubic(8.0);
        let species = vec![Species::Al, Species::Cl, Species::Cl, Species::K];
        let positions = vec![
            [0.5, 0.5, 0.5],
            [3.0, 0.8, 0.4],
            [0.2, 3.5, 3.0],
            [5.0, 5.0, 5.0],
        ];
        let (_, forces) = p.energy_forces(&cell, &species, &positions);
        let h = 1e-6;
        for i in 0..positions.len() {
            for k in 0..3 {
                let mut pp = positions.clone();
                let mut pm = positions.clone();
                pp[i][k] += h;
                pm[i][k] -= h;
                let fd = -(p.energy(&cell, &species, &pp) - p.energy(&cell, &species, &pm))
                    / (2.0 * h);
                assert!(
                    (fd - forces[i][k]).abs() < 1e-5 * (1.0 + fd.abs()),
                    "atom {i} comp {k}: fd {fd} vs analytic {}",
                    forces[i][k]
                );
            }
        }
    }

    #[test]
    fn net_force_is_zero() {
        let p = MeltPotential::default();
        let cell = Cell::cubic(9.0);
        let species = melt_composition(10);
        let positions: Vec<[f64; 3]> = (0..10)
            .map(|i| {
                let f = i as f64;
                [1.0 + 0.83 * f, 2.0 + 1.31 * f % 9.0, (0.57 * f * f) % 9.0]
            })
            .collect();
        let (_, forces) = p.energy_forces(&cell, &species, &positions);
        for k in 0..3 {
            let net: f64 = forces.iter().map(|f| f[k]).sum();
            assert!(net.abs() < 1e-9, "net force component {k} = {net}");
        }
    }
}
