//! Steady-state NSGA-II: the asynchronous counterpart of the generational
//! driver in [`crate::nsga2`], after the `steady_state_nsga_2` pattern the
//! paper's authors use with leap_ec over Dask.
//!
//! Instead of evaluating a whole offspring batch behind a barrier, a
//! steady-state campaign *tells* the population about each evaluated
//! individual the moment it arrives and immediately *breeds* a replacement
//! child, so no worker ever waits on a generation boundary. Determinism is
//! preserved by decoupling the two orders involved:
//!
//! * the **completion order** — the racy, physical order in which worker
//!   threads happen to finish — is never consumed directly; the stream
//!   scheduler (`dphpo_hpc::Stream::take`) hands results back by task, in
//!   the order the driver asks for them;
//! * the **arrival order** — a pure function of the campaign configuration
//!   (the simulated per-slot clock in `dphpo-hpc`'s stream scheduler) — is
//!   the only order [`SteadyState::tell`] ever sees, and the order the
//!   journal records as each evaluation's `arrival` index.
//!
//! Every selection and mutation decision is keyed off that arrival index,
//! so the population and archive bytes depend only on the journaled order,
//! never on thread interleaving (see DESIGN.md §12).

use rand::Rng;

use crate::individual::Individual;
use crate::mo::assign_rank_and_crowding;
use crate::nsga2::Nsga2Config;
use crate::ops::{anneal_std, mutate_gaussian, random_selection, truncation_selection};

/// Incremental NSGA-II survivor state for a steady-state campaign: a
/// bounded population that absorbs one evaluated individual per call and a
/// mutation-σ schedule annealed every `pop_size` arrivals (one "epoch" —
/// the steady-state analogue of a generation, used for reporting and for
/// matching the generational σ schedule at equal evaluation budget).
pub struct SteadyState {
    capacity: usize,
    anneal_factor: f64,
    bounds: Vec<(f64, f64)>,
    std: Vec<f64>,
    population: Vec<Individual>,
    arrivals: usize,
}

impl SteadyState {
    /// Fresh state for `config` (uses its population size, bounds, σ vector
    /// and annealing factor; `generations` only bounds the campaign budget).
    pub fn new(config: &Nsga2Config) -> Self {
        config.validate();
        SteadyState {
            capacity: config.pop_size,
            anneal_factor: config.anneal_factor,
            bounds: config.bounds.clone(),
            std: config.std.clone(),
            population: Vec::with_capacity(config.pop_size + 1),
            arrivals: 0,
        }
    }

    /// Rebuild mid-campaign state from a journal snapshot: the population,
    /// annealed σ vector, and arrival count exactly as they stood when the
    /// snapshot was taken. The restored state continues the σ schedule and
    /// epoch accounting as if it had absorbed every arrival itself.
    pub fn restore(
        config: &Nsga2Config,
        std: Vec<f64>,
        population: Vec<Individual>,
        arrivals: usize,
    ) -> Self {
        config.validate();
        SteadyState {
            capacity: config.pop_size,
            anneal_factor: config.anneal_factor,
            bounds: config.bounds.clone(),
            std,
            population,
            arrivals,
        }
    }

    /// Current population (at most `pop_size` members, ranked and crowded).
    pub fn population(&self) -> &[Individual] {
        &self.population
    }

    /// Current mutation standard deviations (annealed per epoch).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Evaluated individuals absorbed so far.
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// Completed epochs: one per `pop_size` arrivals.
    pub fn epoch(&self) -> usize {
        self.arrivals / self.capacity
    }

    /// Absorb one evaluated individual, in *arrival order*: insert, rank
    /// and crowd the pool, truncate back to capacity, and anneal σ when
    /// this arrival closes an epoch. Returns the arrival index consumed.
    ///
    /// The caller journals that index next to the evaluation record; replay
    /// feeds the same individuals in the same order and therefore rebuilds
    /// byte-identical population state.
    pub fn tell(&mut self, individual: Individual) -> usize {
        assert!(individual.fitness.is_some(), "tell() requires an evaluated individual");
        self.population.push(individual);
        assign_rank_and_crowding(&mut self.population);
        if self.population.len() > self.capacity {
            let pool = std::mem::take(&mut self.population);
            self.population = truncation_selection(pool, self.capacity);
        }
        let arrival = self.arrivals;
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(self.capacity) {
            anneal_std(&mut self.std, self.anneal_factor);
        }
        arrival
    }

    /// Breed one unevaluated child from the current population: random
    /// parent selection → clone → bounded isotropic Gaussian mutation with
    /// the current (annealed) σ. The caller keys `rng` off
    /// `(run_seed, arrival_seq)` so the draw depends only on the journaled
    /// arrival order.
    pub fn breed<R: Rng + ?Sized>(&self, rng: &mut R) -> Individual {
        let parent = random_selection(&self.population, rng);
        let mut child = parent.clone_as_offspring();
        mutate_gaussian(&mut child.genome, &self.std, &self.bounds, rng);
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::individual::Fitness;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> Nsga2Config {
        Nsga2Config {
            pop_size: 4,
            generations: 3,
            init_ranges: vec![(0.0, 1.0); 2],
            bounds: vec![(0.0, 1.0); 2],
            std: vec![0.1; 2],
            anneal_factor: 0.85,
        }
    }

    fn evaluated(e: f64, f: f64) -> Individual {
        let mut ind = Individual::new(vec![e, f]);
        ind.fitness = Some(Fitness::new(vec![e, f]));
        ind
    }

    #[test]
    fn population_never_exceeds_capacity_and_keeps_best_rank() {
        let mut state = SteadyState::new(&config());
        for i in 0..10 {
            let v = i as f64 / 10.0;
            let arrival = state.tell(evaluated(v, 1.0 - v));
            assert_eq!(arrival, i);
            assert!(state.population().len() <= 4);
        }
        assert_eq!(state.arrivals(), 10);
        // This trade-off front is mutually non-dominating: survivors all rank 0.
        assert!(state.population().iter().all(|i| i.rank == 0));
    }

    #[test]
    fn sigma_anneals_once_per_epoch() {
        let mut state = SteadyState::new(&config());
        assert!((state.std()[0] - 0.1).abs() < 1e-12);
        for i in 0..8 {
            state.tell(evaluated(0.1 + i as f64 * 0.01, 0.5));
        }
        assert_eq!(state.epoch(), 2);
        assert!((state.std()[0] - 0.1 * 0.85 * 0.85).abs() < 1e-12);
    }

    #[test]
    fn breed_respects_bounds_and_is_seed_deterministic() {
        let mut state = SteadyState::new(&config());
        state.tell(evaluated(0.5, 0.5));
        let child_a = state.breed(&mut StdRng::seed_from_u64(9));
        let child_b = state.breed(&mut StdRng::seed_from_u64(9));
        assert_eq!(child_a.genome, child_b.genome);
        assert!(child_a.fitness.is_none());
        assert!(child_a.genome.iter().all(|g| (0.0..=1.0).contains(g)));
    }
}
