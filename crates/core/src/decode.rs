//! Decoding genomes into training parameters (§2.2.2).
//!
//! The three categorical genes are real-valued so that Gaussian mutation
//! applies uniformly; decoding takes `floor(gene) % n_choices` (the paper's
//! example: gene 5.78 for `scale_by_worker` → `floor(5.78) % 3 = 1`…
//! the paper prints 2 → "none"; we follow the stated formula, which for
//! in-bounds genes is unambiguous since mutation clamps genes to their
//! ranges).

use dphpo_dnnp::{Activation, LrScaling};

use crate::representation::{gene, N_GENES};

/// Fully decoded hyperparameter set for one individual.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedGenome {
    /// Start learning rate.
    pub start_lr: f64,
    /// Stop learning rate.
    pub stop_lr: f64,
    /// Descriptor cutoff (Å).
    pub rcut: f64,
    /// Switching onset (Å).
    pub rcut_smth: f64,
    /// Learning-rate scaling scheme.
    pub scale_by_worker: LrScaling,
    /// Descriptor activation.
    pub desc_activ_func: Activation,
    /// Fitting activation.
    pub fitting_activ_func: Activation,
}

/// `floor(gene) % n`, with the Euclidean modulus so that a (theoretically
/// out-of-bounds) negative gene still maps into range.
pub fn floor_mod(gene_value: f64, n_choices: usize) -> usize {
    let floored = gene_value.floor() as i64;
    floored.rem_euclid(n_choices as i64) as usize
}

/// Decode a seven-element genome.
pub fn decode(genome: &[f64]) -> DecodedGenome {
    assert_eq!(genome.len(), N_GENES, "genome must have {N_GENES} genes");
    DecodedGenome {
        start_lr: genome[gene::START_LR],
        stop_lr: genome[gene::STOP_LR],
        rcut: genome[gene::RCUT],
        rcut_smth: genome[gene::RCUT_SMTH],
        scale_by_worker: LrScaling::ALL[floor_mod(genome[gene::SCALE_BY_WORKER], 3)],
        desc_activ_func: Activation::ALL[floor_mod(genome[gene::DESC_ACTIV_FUNC], 5)],
        fitting_activ_func: Activation::ALL[floor_mod(genome[gene::FITTING_ACTIV_FUNC], 5)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::representation::DeepMDRepresentation;
    use dphpo_evo::ops::random_population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn floor_mod_matches_paper_formula() {
        // floor(5.78) % 3 = 5 % 3 = 2.
        assert_eq!(floor_mod(5.78, 3), 2);
        assert_eq!(floor_mod(0.0, 3), 0);
        assert_eq!(floor_mod(0.999, 3), 0);
        assert_eq!(floor_mod(1.0, 3), 1);
        assert_eq!(floor_mod(2.999, 3), 2);
        assert_eq!(floor_mod(4.5, 5), 4);
        // Euclidean behaviour for out-of-range negatives.
        assert_eq!(floor_mod(-0.5, 3), 2);
    }

    #[test]
    fn decode_categorical_genes() {
        let genome = vec![0.004, 1e-5, 9.5, 2.5, 2.7, 4.2, 2.9];
        let d = decode(&genome);
        assert_eq!(d.scale_by_worker, LrScaling::None); // floor(2.7)%3 = 2
        assert_eq!(d.desc_activ_func, Activation::Tanh); // floor(4.2)%5 = 4
        assert_eq!(d.fitting_activ_func, Activation::Softplus); // floor(2.9)%5 = 2
        assert_eq!(d.start_lr, 0.004);
        assert_eq!(d.rcut, 9.5);
    }

    #[test]
    fn every_in_range_genome_decodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = random_population(500, &DeepMDRepresentation::init_ranges(), &mut rng);
        for ind in &pop {
            let d = decode(&ind.genome);
            assert!(d.rcut_smth < d.rcut, "ranges guarantee valid cutoffs");
            assert!(d.start_lr > 0.0 && d.stop_lr > 0.0);
        }
    }

    #[test]
    fn decode_covers_all_choices() {
        // Sweeping the categorical gene ranges hits every option.
        let mut scales = std::collections::HashSet::new();
        let mut acts = std::collections::HashSet::new();
        for i in 0..30 {
            let v = i as f64 / 10.0; // 0.0 .. 2.9
            scales.insert(decode(&[1e-3, 1e-5, 8.0, 3.0, v, 0.0, 0.0]).scale_by_worker);
        }
        for i in 0..50 {
            let v = i as f64 / 10.0; // 0.0 .. 4.9
            acts.insert(decode(&[1e-3, 1e-5, 8.0, 3.0, 0.0, v, 0.0]).desc_activ_func);
        }
        assert_eq!(scales.len(), 3);
        assert_eq!(acts.len(), 5);
    }

    #[test]
    #[should_panic(expected = "genome must have")]
    fn wrong_genome_length_panics() {
        decode(&[1.0, 2.0]);
    }
}
