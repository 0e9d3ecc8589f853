//! Calibrated simulated-runtime model for DNNP training jobs.
//!
//! The paper's runtime facts that this model reproduces:
//! * one 40k-step training of the 160-atom system finishes in under 2 h on
//!   a 6-GPU Summit node (final-generation solutions: 68–80 minutes);
//! * the same training takes about 65× longer on a CPU-only node (~7 days);
//! * the cost grows with the descriptor cutoff, because the neighbor count
//!   (and thus descriptor work) grows ∝ rcut³ until the minimum-image
//!   limit saturates it.

use rand::Rng;

/// Work parameters of one training job.
#[derive(Clone, Copy, Debug)]
pub struct TrainingJob {
    /// Optimisation steps.
    pub steps: usize,
    /// Frames per step across all data-parallel workers.
    pub batch_total: usize,
    /// Atoms per frame.
    pub n_atoms: usize,
    /// Descriptor cutoff (Å).
    pub rcut: f64,
    /// Cubic box side (Å), used to saturate the neighbor count.
    pub box_len: f64,
}

impl TrainingJob {
    /// Expected neighbors within `rcut` for this job's density, clamped to
    /// `n_atoms − 1` (every other atom) as the minimum image allows.
    pub fn neighbors(&self) -> f64 {
        let density = self.n_atoms as f64 / self.box_len.powi(3);
        let shell = 4.0 / 3.0 * std::f64::consts::PI * self.rcut.powi(3) * density;
        shell.min(self.n_atoms as f64 - 1.0)
    }
}

/// Runtime model with GPU/CPU modes and multiplicative log-normal-ish noise.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Minutes per abstract work unit on a 6-GPU node.
    minutes_per_unit: f64,
    /// CPU-node slowdown factor (paper §2.1.2: ≈65×).
    cpu_slowdown: f64,
    /// Relative runtime jitter (σ of the multiplicative noise).
    noise_frac: f64,
    /// Per-job fixed overhead in minutes (startup, data staging).
    overhead_minutes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated so paper-scale jobs (40k steps × 6-frame batches,
        // 160 atoms) stay under the 80 minutes the paper observed even at
        // rcut = 12, with the final-generation solutions (rcut ≈ 10–11.3)
        // landing near the reported 68–74 minutes.
        CostModel {
            minutes_per_unit: 0.95e-8,
            cpu_slowdown: 65.0,
            noise_frac: 0.04,
            overhead_minutes: 2.0,
        }
    }
}

impl CostModel {
    /// Abstract work units for a job: steps × batch × atoms × per-atom cost,
    /// where the per-atom cost splits into neighbor-proportional descriptor
    /// work and fixed fitting-net work.
    fn work_units(&self, job: &TrainingJob) -> f64 {
        let per_atom = job.neighbors() + 50.0;
        job.steps as f64 * job.batch_total as f64 * job.n_atoms as f64 * per_atom
    }

    /// Deterministic GPU-node minutes (no noise).
    pub fn gpu_minutes_mean(&self, job: &TrainingJob) -> f64 {
        self.overhead_minutes + self.minutes_per_unit * self.work_units(job)
    }

    /// Sampled GPU-node minutes.
    pub fn gpu_minutes<R: Rng + ?Sized>(&self, job: &TrainingJob, rng: &mut R) -> f64 {
        let jitter = 1.0 + self.noise_frac * gaussian(rng);
        (self.gpu_minutes_mean(job) * jitter.max(0.5)).max(0.1)
    }

    /// Deterministic CPU-node minutes.
    pub fn cpu_minutes_mean(&self, job: &TrainingJob) -> f64 {
        self.overhead_minutes + self.cpu_slowdown * self.minutes_per_unit * self.work_units(job)
    }

    /// The paper's headline speedup: CPU minutes / GPU minutes.
    pub fn speedup(&self, job: &TrainingJob) -> f64 {
        self.cpu_minutes_mean(job) / self.gpu_minutes_mean(job)
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

/// The paper-scale training job (40k steps, 160 atoms, 17.84 Å box).
pub fn paper_job(rcut: f64) -> TrainingJob {
    TrainingJob { steps: 40_000, batch_total: 6, n_atoms: 160, rcut, box_len: 17.84 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_job_lands_under_eighty_minutes() {
        // §3.2: "Runtimes for all training runs in the combined last
        // generation solution set are under 80 minutes, and no runs for any
        // generations crossed beyond this value."
        let model = CostModel::default();
        for rcut in [6.0, 9.0, 12.0] {
            let m = model.gpu_minutes_mean(&paper_job(rcut));
            assert!(m < 80.0, "rcut {rcut}: {m} min exceeds the observed 80");
            assert!(m > 20.0, "rcut {rcut}: {m} min implausibly fast");
        }
        // The selected chemically accurate solutions (rcut 10.1–11.32) ran
        // 68–74 minutes; our model should land in that neighbourhood.
        let m = model.gpu_minutes_mean(&paper_job(11.32));
        assert!((60.0..80.0).contains(&m), "rcut 11.32: {m} min");
    }

    #[test]
    fn runtime_grows_with_rcut() {
        let model = CostModel::default();
        let m6 = model.gpu_minutes_mean(&paper_job(6.0));
        let m9 = model.gpu_minutes_mean(&paper_job(9.0));
        let m12 = model.gpu_minutes_mean(&paper_job(12.0));
        assert!(m6 < m9 && m9 < m12, "{m6} {m9} {m12}");
    }

    #[test]
    fn neighbor_count_saturates_at_system_size() {
        let big = TrainingJob { rcut: 50.0, ..paper_job(50.0) };
        assert_eq!(big.neighbors(), 159.0);
        let small = paper_job(6.0);
        assert!(small.neighbors() < 30.0);
    }

    #[test]
    fn cpu_speedup_near_sixty_five() {
        let model = CostModel::default();
        let s = model.speedup(&paper_job(9.0));
        // Overhead slightly dilutes the slowdown factor.
        assert!((55.0..=65.0).contains(&s), "speedup {s}");
        // And the CPU run takes days, as the paper reports (~7 days).
        let days = model.cpu_minutes_mean(&paper_job(9.0)) / 60.0 / 24.0;
        assert!((1.5..10.0).contains(&days), "CPU training {days} days");
    }

    #[test]
    fn sampled_minutes_jitter_around_mean() {
        let model = CostModel::default();
        let job = paper_job(9.0);
        let mean = model.gpu_minutes_mean(&job);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..200).map(|_| model.gpu_minutes(&job, &mut rng)).collect();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg {avg} vs mean {mean}");
        assert!(samples.iter().any(|&s| s != mean), "no jitter at all");
        assert!(samples.iter().all(|&s| s > 0.0));
    }
}
