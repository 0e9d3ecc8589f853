//! A generational NSGA-II driver composing the pipeline operators of
//! [`crate::ops`] exactly in the order of the paper's Listing 1, with the
//! paper's per-generation mutation-σ annealing (×0.85 by default).

use rand::Rng;

use crate::individual::{Fitness, Individual};
use crate::mo::assign_rank_and_crowding;
use crate::ops::{anneal_std, create_offspring, random_population, truncation_selection};

/// Outcome of evaluating one genome.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// The (multi-objective) fitness; use [`Fitness::penalty`] on failure.
    pub fitness: Fitness,
    /// Optional cost metadata (the paper tracks training runtime minutes).
    pub minutes: Option<f64>,
}

impl EvalResult {
    /// A plain fitness with no cost metadata.
    pub fn fitness(fitness: Fitness) -> Self {
        EvalResult { fitness, minutes: None }
    }
}

/// Anything that can evaluate a batch of genomes — typically fanning the
/// batch out to parallel workers, as the paper's `eval_pool` does via Dask.
pub trait BatchEvaluator {
    /// Evaluate all genomes; must return exactly one result per genome.
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<EvalResult>;
}

impl<F> BatchEvaluator for F
where
    F: FnMut(&[Vec<f64>]) -> Vec<EvalResult>,
{
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<EvalResult> {
        self(genomes)
    }
}

/// Static configuration of an NSGA-II run.
#[derive(Clone, Debug)]
pub struct Nsga2Config {
    /// Parent (and offspring) population size.
    pub pop_size: usize,
    /// Number of offspring generations (the paper runs 7 generations,
    /// i.e. generation 0 = random init plus 6 EA steps; `generations` here
    /// counts the EA steps).
    pub generations: usize,
    /// Per-gene uniform initialisation ranges (Table 1, column 2).
    pub init_ranges: Vec<(f64, f64)>,
    /// Per-gene hard bounds applied after mutation.
    pub bounds: Vec<(f64, f64)>,
    /// Initial per-gene Gaussian mutation standard deviations (Table 1,
    /// column 3).
    pub std: Vec<f64>,
    /// Multiplicative σ annealing factor applied after each generation.
    pub anneal_factor: f64,
}

impl Nsga2Config {
    /// Sanity-check the configuration, panicking on inconsistency.
    pub fn validate(&self) {
        assert!(self.pop_size > 0, "population must be non-empty");
        let n = self.init_ranges.len();
        assert_eq!(self.bounds.len(), n, "bounds/init length mismatch");
        assert_eq!(self.std.len(), n, "std/init length mismatch");
        assert!(self.anneal_factor > 0.0 && self.anneal_factor <= 1.0);
        for &(lo, hi) in self.init_ranges.iter().chain(self.bounds.iter()) {
            assert!(lo < hi, "degenerate range ({lo}, {hi})");
        }
    }
}

/// One generation's population snapshot.
#[derive(Clone, Debug, Default)]
pub struct GenerationRecord {
    /// Generation number; 0 is the random initial population.
    pub generation: usize,
    /// The surviving population after selection (or the evaluated initial
    /// population for generation 0).
    pub population: Vec<Individual>,
    /// Number of failed (penalty-fitness) evaluations among the individuals
    /// evaluated *during* this generation.
    pub failures: usize,
}

/// Full run output: per-generation records, seeds intact for reproduction.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// One record per generation, `generations + 1` in total.
    pub history: Vec<GenerationRecord>,
    /// Total number of fitness evaluations performed.
    pub evaluations: usize,
}

impl RunResult {
    /// The final generation's population.
    pub fn final_population(&self) -> &[Individual] {
        &self.history.last().expect("empty run").population
    }
}

fn evaluate_into(
    evaluator: &mut dyn BatchEvaluator,
    individuals: &mut [Individual],
) -> usize {
    let genomes: Vec<Vec<f64>> = individuals.iter().map(|i| i.genome.clone()).collect();
    let results = evaluator.evaluate(&genomes);
    assert_eq!(results.len(), individuals.len(), "evaluator result count mismatch");
    let mut failures = 0;
    for (ind, res) in individuals.iter_mut().zip(results) {
        if res.fitness.is_penalty() {
            failures += 1;
        }
        ind.fitness = Some(res.fitness);
        ind.eval_minutes = res.minutes;
    }
    failures
}

/// Mid-run NSGA-II driver state: everything that must survive between
/// generations for the run to continue — and everything a checkpoint must
/// capture (together with the RNG stream state, which the caller owns) for
/// a resumed run to be bit-identical to an uninterrupted one.
///
/// [`run_nsga2`] composes [`Nsga2State::start`] and [`Nsga2State::step`];
/// callers that checkpoint between generations (the experiment journal in
/// `dphpo-core`) drive the same two methods directly and rebuild the state
/// with [`Nsga2State::restore`] after a crash.
#[derive(Clone, Debug)]
pub struct Nsga2State {
    /// Last completed generation (0 right after [`Nsga2State::start`]).
    pub generation: usize,
    /// Current parent population: evaluated, rank/crowding assigned.
    pub parents: Vec<Individual>,
    /// Current per-gene mutation σ (already annealed for the *next* step).
    pub std: Vec<f64>,
    /// Total fitness evaluations performed so far.
    pub evaluations: usize,
    /// One record per completed generation.
    pub history: Vec<GenerationRecord>,
}

impl Nsga2State {
    /// Generation 0: draw and evaluate the random initial population.
    pub fn start<R: Rng + ?Sized>(
        config: &Nsga2Config,
        evaluator: &mut dyn BatchEvaluator,
        rng: &mut R,
    ) -> Self {
        config.validate();
        let mut parents = random_population(config.pop_size, &config.init_ranges, rng);
        let failures = evaluate_into(evaluator, &mut parents);
        let evaluations = parents.len();
        assign_rank_and_crowding(&mut parents);
        let mut history = Vec::with_capacity(config.generations + 1);
        history.push(GenerationRecord { generation: 0, population: parents.clone(), failures });
        Nsga2State { generation: 0, parents, std: config.std.clone(), evaluations, history }
    }

    /// One EA generation: select → clone → mutate → evaluate → merged rank
    /// sort → crowding → truncation, then anneal σ (paper §2.2.3).
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        config: &Nsga2Config,
        evaluator: &mut dyn BatchEvaluator,
        rng: &mut R,
    ) {
        let generation = self.generation + 1;
        let mut offspring =
            create_offspring(&self.parents, config.pop_size, &self.std, &config.bounds, rng);
        let failures = evaluate_into(evaluator, &mut offspring);
        self.evaluations += offspring.len();

        // LEAP's rank_ordinal_sort(parents=parents) merges the parent
        // population into the sorted pool before truncation.
        let mut pool = std::mem::take(&mut self.parents);
        pool.extend(offspring);
        assign_rank_and_crowding(&mut pool);
        self.parents = truncation_selection(pool, config.pop_size);

        // Anneal σ after the offspring pipeline returns (paper §2.2.3).
        anneal_std(&mut self.std, config.anneal_factor);

        self.history.push(GenerationRecord {
            generation,
            population: self.parents.clone(),
            failures,
        });
        self.generation = generation;
    }

    /// True once `config.generations` EA steps have completed.
    pub fn is_complete(&self, config: &Nsga2Config) -> bool {
        self.generation >= config.generations
    }

    /// Rebuild mid-run state from checkpointed history and σ. The last
    /// history record's population becomes the current parents; the caller
    /// is responsible for restoring the RNG stream alongside.
    ///
    /// Panics on an empty history (there is nothing to resume).
    pub fn restore(history: Vec<GenerationRecord>, std: Vec<f64>, evaluations: usize) -> Self {
        let last = history.last().expect("cannot restore from an empty history");
        Nsga2State {
            generation: last.generation,
            parents: last.population.clone(),
            std,
            evaluations,
            history,
        }
    }

    /// Finish the run, consuming the state.
    pub fn into_result(self) -> RunResult {
        RunResult { history: self.history, evaluations: self.evaluations }
    }
}

/// Run NSGA-II: random init → (select → clone → mutate → evaluate → merged
/// rank sort → crowding → truncation) × generations, annealing σ each step.
pub fn run_nsga2<R: Rng + ?Sized>(
    config: &Nsga2Config,
    evaluator: &mut dyn BatchEvaluator,
    rng: &mut R,
) -> RunResult {
    let mut state = Nsga2State::start(config, evaluator, rng);
    while !state.is_complete(config) {
        state.step(config, evaluator, rng);
    }
    state.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mo::{hypervolume_2d, pareto_front};
    use crate::problems::zdt1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zdt1_evaluator() -> impl FnMut(&[Vec<f64>]) -> Vec<EvalResult> {
        |genomes: &[Vec<f64>]| {
            genomes
                .iter()
                .map(|g| EvalResult::fitness(Fitness::new(zdt1().evaluate(g))))
                .collect()
        }
    }

    fn zdt1_config(pop: usize, gens: usize) -> Nsga2Config {
        let p = zdt1();
        Nsga2Config {
            pop_size: pop,
            generations: gens,
            init_ranges: p.bounds(),
            bounds: p.bounds(),
            std: vec![0.1; p.dims()],
            anneal_factor: 0.95,
        }
    }

    #[test]
    fn runs_produce_expected_history_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = zdt1_config(16, 5);
        let result = run_nsga2(&config, &mut zdt1_evaluator(), &mut rng);
        assert_eq!(result.history.len(), 6);
        assert_eq!(result.evaluations, 16 * 6);
        for (g, rec) in result.history.iter().enumerate() {
            assert_eq!(rec.generation, g);
            assert_eq!(rec.population.len(), 16);
            assert!(rec.population.iter().all(|i| i.fitness.is_some()));
        }
    }

    #[test]
    fn hypervolume_improves_over_generations_on_zdt1() {
        let mut rng = StdRng::seed_from_u64(42);
        let config = zdt1_config(32, 25);
        let result = run_nsga2(&config, &mut zdt1_evaluator(), &mut rng);
        let hv = |pop: &[Individual]| {
            let pts: Vec<(f64, f64)> = pop
                .iter()
                .map(|i| (i.fitness().get(0), i.fitness().get(1)))
                .collect();
            hypervolume_2d(&pts, (11.0, 11.0))
        };
        let first = hv(&result.history[0].population);
        let last = hv(result.final_population());
        assert!(
            last > first + 1.0,
            "hypervolume did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn selection_is_elitist() {
        // The best front's hypervolume never decreases between generations.
        let mut rng = StdRng::seed_from_u64(3);
        let config = zdt1_config(24, 12);
        let result = run_nsga2(&config, &mut zdt1_evaluator(), &mut rng);
        let mut prev = f64::MIN;
        for rec in &result.history {
            let fits: Vec<&Fitness> = rec.population.iter().map(|i| i.fitness()).collect();
            let front = pareto_front(&fits);
            let pts: Vec<(f64, f64)> = front
                .iter()
                .map(|&i| (fits[i].get(0), fits[i].get(1)))
                .collect();
            let hv = hypervolume_2d(&pts, (11.0, 11.0));
            assert!(
                hv >= prev - 1e-9,
                "elitism violated: hv {hv} < previous {prev} at gen {}",
                rec.generation
            );
            prev = hv;
        }
    }

    #[test]
    fn failed_evaluations_are_culled_by_selection() {
        // An evaluator that fails everything with genome[0] > 0.5: after a
        // couple of generations the surviving population should be
        // penalty-free.
        let mut evaluator = |genomes: &[Vec<f64>]| {
            genomes
                .iter()
                .map(|g| {
                    if g[0] > 0.5 {
                        EvalResult::fitness(Fitness::penalty(2))
                    } else {
                        EvalResult::fitness(Fitness::new(vec![g[0], 1.0 - g[0]]))
                    }
                })
                .collect::<Vec<_>>()
        };
        let config = Nsga2Config {
            pop_size: 20,
            generations: 4,
            init_ranges: vec![(0.0, 1.0)],
            bounds: vec![(0.0, 1.0)],
            std: vec![0.05],
            anneal_factor: 0.85,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let result = run_nsga2(&config, &mut evaluator, &mut rng);
        let final_failures = result
            .final_population()
            .iter()
            .filter(|i| i.is_failed())
            .count();
        assert_eq!(final_failures, 0, "penalty individuals survived selection");
        // And at least one failure must have occurred early on for the test
        // to be meaningful.
        assert!(result.history[0].failures > 0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let config = zdt1_config(10, 3);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = run_nsga2(&config, &mut zdt1_evaluator(), &mut rng);
            r.final_population()
                .iter()
                .map(|i| i.fitness().values().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn restored_state_continues_bit_identically() {
        // Drive three generations, snapshot (history, std, evaluations, RNG
        // state), drop the driver, restore, and finish — the final
        // population must equal the uninterrupted run's exactly.
        let config = zdt1_config(12, 6);
        let finish = |mut state: Nsga2State, mut rng: StdRng| {
            let mut evaluator = zdt1_evaluator();
            while !state.is_complete(&config) {
                state.step(&config, &mut evaluator, &mut rng);
            }
            state
                .into_result()
                .final_population()
                .iter()
                .map(|i| i.fitness().values().to_vec())
                .collect::<Vec<_>>()
        };

        let mut rng = StdRng::seed_from_u64(77);
        let mut evaluator = zdt1_evaluator();
        let mut state = Nsga2State::start(&config, &mut evaluator, &mut rng);
        for _ in 0..3 {
            state.step(&config, &mut evaluator, &mut rng);
        }
        let checkpoint =
            (state.history.clone(), state.std.clone(), state.evaluations, rng.state());

        let uninterrupted = finish(state, rng);
        let restored = Nsga2State::restore(checkpoint.0, checkpoint.1, checkpoint.2);
        assert_eq!(restored.generation, 3);
        let resumed = finish(restored, StdRng::from_state(checkpoint.3));
        assert_eq!(uninterrupted, resumed);
    }

    #[test]
    #[should_panic(expected = "degenerate range")]
    fn config_validation_rejects_bad_ranges() {
        let mut config = zdt1_config(4, 1);
        config.bounds[0] = (1.0, 1.0);
        config.validate();
    }
}
