//! Property tests for the steady-state insertion machinery: the journaled
//! arrival order fully determines population and archive state.
//!
//! The driver in `dphpo-core` feeds [`SteadyState::tell`] in arrival order
//! and nothing else; putting the racy physical completion order back into
//! that order is the stream scheduler's contract (`Stream::take`, tested by
//! `hpc/tests/work_conservation.rs` and `core/tests/work_conservation.rs`).
//! What is pinned here is the other half of kill+resume identity: the state
//! is a pure function of the fed sequence — process-local individual ids and
//! the point at which a snapshot was restored leave no trace in it.

use dphpo_evo::steady::SteadyState;
use dphpo_evo::{Fitness, Individual, Nsga2Config, ParetoArchive};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(pop: usize) -> Nsga2Config {
    Nsga2Config {
        pop_size: pop,
        generations: 3,
        init_ranges: vec![(0.0, 1.0); 2],
        bounds: vec![(0.0, 1.0); 2],
        std: vec![0.1; 2],
        anneal_factor: 0.85,
    }
}

fn evaluated(objectives: (f64, f64)) -> Individual {
    let mut ind = Individual::new(vec![objectives.0, objectives.1]);
    ind.fitness = Some(Fitness::new(vec![objectives.0, objectives.1]));
    ind
}

/// `{:?}` on `f64` is shortest-round-trip: equal strings mean bit-equal
/// population and archive state.
fn canon(state: &SteadyState, archive: &ParetoArchive) -> String {
    let mut out = String::new();
    for ind in state.population() {
        out.push_str(&format!(
            "pop genome={:?} fitness={:?} rank={} distance={:?}\n",
            ind.genome,
            ind.fitness.as_ref().map(|f| f.values().to_vec()),
            ind.rank,
            ind.distance,
        ));
    }
    out.push_str(&format!("std={:?} arrivals={}\n", state.std(), state.arrivals()));
    for ind in archive.members() {
        out.push_str(&format!(
            "arc genome={:?} fitness={:?}\n",
            ind.genome,
            ind.fitness.as_ref().map(|f| f.values().to_vec()),
        ));
    }
    out
}

/// Feed `results` in arrival order, restoring the state from its own
/// snapshot fields after `cut` arrivals when one is given — what a resumed
/// campaign does. Returns the final state, its canonical form, and the
/// arrival indices `tell` reported.
fn feed(results: &[(f64, f64)], pop: usize, cut: Option<usize>) -> (SteadyState, String, Vec<usize>) {
    let config = config(pop);
    let mut state = SteadyState::new(&config);
    let mut archive = ParetoArchive::new();
    let mut told = Vec::new();
    for (arrival, &objectives) in results.iter().enumerate() {
        if cut == Some(arrival) {
            state = SteadyState::restore(
                &config,
                state.std().to_vec(),
                state.population().to_vec(),
                state.arrivals(),
            );
        }
        let ind = evaluated(objectives);
        archive.offer_counted(&ind);
        told.push(state.tell(ind));
    }
    let canon = canon(&state, &archive);
    (state, canon, told)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the same results again — fresh individual ids, with or
    /// without a snapshot restore part-way — yields the same population
    /// bytes, archive bytes, σ schedule and arrival indices: the arrival
    /// order alone determines steady-state campaign state.
    #[test]
    fn arrival_order_fully_determines_population_and_archive(
        results in prop::collection::vec((0.01..0.99f64, 0.01..0.99f64), 6..24),
        pop in 3usize..8,
        cut in 0usize..24,
    ) {
        let (_, reference, told) = feed(&results, pop, None);
        prop_assert_eq!(&told, &(0..results.len()).collect::<Vec<_>>());
        let (_, replayed, _) = feed(&results, pop, None);
        prop_assert_eq!(&replayed, &reference);
        let (_, restored, told) = feed(&results, pop, Some(cut % results.len()));
        prop_assert_eq!(&told, &(0..results.len()).collect::<Vec<_>>());
        prop_assert_eq!(restored, reference);
    }

    /// Breeding after an arrival-ordered feed is a pure function of the fed
    /// sequence: the same keyed RNG produces the same child whether or not
    /// the state went through a restore on the way.
    #[test]
    fn breeding_is_invariant_under_replay_and_restore(
        results in prop::collection::vec((0.01..0.99f64, 0.01..0.99f64), 4..12),
        cut in 0usize..12,
        breed_seed in 0usize..1_000_000,
    ) {
        let (a, _, _) = feed(&results, 4, None);
        let (b, _, _) = feed(&results, 4, Some(cut % results.len()));
        let child_a = a.breed(&mut StdRng::seed_from_u64(breed_seed as u64));
        let child_b = b.breed(&mut StdRng::seed_from_u64(breed_seed as u64));
        prop_assert_eq!(child_a.genome, child_b.genome);
    }
}
