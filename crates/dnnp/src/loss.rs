//! The DeePMD training loss: prefactor-weighted energy + force MSE with
//! prefactors that follow the learning-rate decay.
//!
//! `pref(t) = limit + (start − limit) · lr(t)/lr(0)`, so with the paper's
//! settings (`p_e: 0.02 → 1`, `p_f: 1000 → 1`) the force error dominates
//! the loss early in training and the energy error gains weight as the
//! learning rate decays — the coupling that motivates the *multiobjective*
//! treatment of the two validation errors.

use crate::config::TrainConfig;

/// Energy/force loss prefactors at one training step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prefactors {
    /// Energy-term weight.
    pub pe: f64,
    /// Force-term weight.
    pub pf: f64,
}

/// Prefactor schedule derived from a config's start/limit values.
#[derive(Clone, Copy, Debug)]
pub struct PrefactorSchedule {
    start_pref_e: f64,
    limit_pref_e: f64,
    start_pref_f: f64,
    limit_pref_f: f64,
}

impl PrefactorSchedule {
    /// Build from a [`TrainConfig`].
    pub fn from_config(config: &TrainConfig) -> Self {
        PrefactorSchedule {
            start_pref_e: config.start_pref_e,
            limit_pref_e: config.limit_pref_e,
            start_pref_f: config.start_pref_f,
            limit_pref_f: config.limit_pref_f,
        }
    }

    /// Prefactors at decay ratio `lr(t)/lr(0)` (1 at step 0, → stop/start).
    pub fn at(&self, decay_ratio: f64) -> Prefactors {
        Prefactors {
            pe: self.limit_pref_e + (self.start_pref_e - self.limit_pref_e) * decay_ratio,
            pf: self.limit_pref_f + (self.start_pref_f - self.limit_pref_f) * decay_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schedule() -> PrefactorSchedule {
        PrefactorSchedule::from_config(&TrainConfig::default())
    }

    #[test]
    fn force_dominates_at_start() {
        let p = paper_schedule().at(1.0);
        assert!((p.pe - 0.02).abs() < 1e-12);
        assert!((p.pf - 1000.0).abs() < 1e-12);
        assert!(p.pf / p.pe > 1e4);
    }

    #[test]
    fn prefactors_approach_limits() {
        let p = paper_schedule().at(1e-6);
        assert!((p.pe - 1.0).abs() < 1e-4);
        assert!((p.pf - 1.0).abs() < 1e-2);
    }

    #[test]
    fn energy_weight_rises_while_force_weight_falls() {
        let s = paper_schedule();
        let early = s.at(1.0);
        let late = s.at(0.01);
        assert!(late.pe > early.pe, "energy prefactor must rise");
        assert!(late.pf < early.pf, "force prefactor must fall");
    }
}
