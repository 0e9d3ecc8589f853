//! The EA building blocks against their *definitions*: non-dominated
//! sorting (Deb's and the rank-ordinal one), crowding distance, truncation
//! selection, the Pareto archive and [`SteadyState::tell`], each checked
//! against an O(n²) textbook implementation written here from the
//! definition — on raw `f64` rows, sharing no code with the crate — over
//! generated fronts that are adversarial on purpose: a coarse value grid
//! (so ties and exact duplicates are the rule, not the exception), signed
//! zeros, both infinities and the `MAXINT` failure penalty.
//!
//! Where the definition leaves a choice open the test says so and pins what
//! the crate documents:
//!
//! * **NaN** is not an objective value: [`Fitness::new`] refuses it (failed
//!   evaluations carry the `MAXINT` penalty instead, paper §2.2.4).
//! * **Crowding among tied members**: which of several members with equal
//!   values in an objective is the neighbour (or the boundary) is not
//!   defined by Deb et al.; the crate's answer must be *one of* the
//!   assignments the definition allows, and is exactly the definition's on
//!   tie-free fronts. An objective whose span over the front is zero or not
//!   finite contributes its two boundary infinities and nothing else.
//! * **Truncation among equal `(rank, distance)` keys** keeps pool order
//!   (parents before offspring), and leaves the survivors in key order.
//! * **Archive duplicates**: the first individual offered with a given
//!   objective vector represents it.
//! * **Steady-state vs generational**: telling one window of μ offspring is
//!   *not* the generational (μ+λ) step in general — the survivor of each
//!   arrival is chosen before the later arrivals are known, and crowding is
//!   re-measured after every removal. The two coincide on what does not
//!   depend on either: the first-front members of the merged pool survive
//!   both whenever they fit, and populations totally ordered by dominance
//!   end identical.

use dphpo_evo::mo::{crowding_distance, fast_nondominated_sort, rank_ordinal_sort};
use dphpo_evo::ops::truncation_selection;
use dphpo_evo::steady::SteadyState;
use dphpo_evo::{assign_rank_and_crowding, Fitness, Individual, Nsga2Config, ParetoArchive, MAXINT};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generated input
// ---------------------------------------------------------------------------

/// Objective values the adversarial rows are drawn from.
const PALETTE: [f64; 10] =
    [0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 1e300, MAXINT, f64::INFINITY, f64::NEG_INFINITY];

/// One objective value: mostly from [`PALETTE`], sometimes continuous.
fn objective() -> impl Strategy<Value = f64> {
    (0usize..4, 0usize..PALETTE.len(), 0.0f64..1.0)
        .prop_map(|(pick, slot, free)| if pick == 0 { free } else { PALETTE[slot] })
}

/// `n` rows of `m` adversarial objective values.
fn rows(m: usize, n: core::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(objective(), m), n)
}

/// Continuous rows: tie-free with probability one.
fn free_rows(m: usize, n: core::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, m), n)
}

fn fitnesses(rows: &[Vec<f64>]) -> Vec<Fitness> {
    rows.iter().map(|row| Fitness::new(row.clone())).collect()
}

/// An evaluated individual whose genome is its index in the generated input.
fn tagged(tag: usize, row: &[f64]) -> Individual {
    let mut ind = Individual::new(vec![tag as f64]);
    ind.fitness = Some(Fitness::new(row.to_vec()));
    ind
}

fn tag(ind: &Individual) -> usize {
    ind.genome[0] as usize
}

// ---------------------------------------------------------------------------
// The textbook
// ---------------------------------------------------------------------------

/// Pareto dominance under minimisation, from the definition.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The paper's failure penalty: every objective at (or beyond) `MAXINT`.
fn is_penalty(row: &[f64]) -> bool {
    row.iter().all(|&v| v >= MAXINT)
}

/// Non-dominated sorting by peeling: front `k` is what no remaining row
/// dominates once fronts `0..k` are gone. Indices ascending within a front.
fn textbook_fronts(rows: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..rows.len()).collect();
    let mut fronts = Vec::new();
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| !remaining.iter().any(|&j| dominates(&rows[j], &rows[i])))
            .collect();
        assert!(!front.is_empty(), "dominance has a cycle");
        remaining.retain(|i| !front.contains(i));
        fronts.push(front);
    }
    fronts
}

/// Deb's crowding distance for the members `front` of `rows`, given, per
/// objective, the order (positions into `front`) its values were sorted in.
fn textbook_crowding(rows: &[Vec<f64>], front: &[usize], orders: &[Vec<usize>]) -> Vec<f64> {
    let len = front.len();
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let mut distance = vec![0.0f64; len];
    for (obj, order) in orders.iter().enumerate() {
        let value = |pos: usize| rows[front[order[pos]]][obj];
        distance[order[0]] = f64::INFINITY;
        distance[order[len - 1]] = f64::INFINITY;
        let span = value(len - 1) - value(0);
        if span > 0.0 && span.is_finite() {
            for pos in 1..len - 1 {
                distance[order[pos]] += (value(pos + 1) - value(pos - 1)) / span;
            }
        }
    }
    distance
}

/// Every order of `0..len` in which `value` is non-decreasing: one per way
/// of arranging the tied members.
fn sorted_orders(len: usize, value: impl Fn(usize) -> f64) -> Vec<Vec<usize>> {
    fn extend(prefix: &mut Vec<usize>, len: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == len {
            out.push(prefix.clone());
            return;
        }
        for next in 0..len {
            if !prefix.contains(&next) {
                prefix.push(next);
                extend(prefix, len, out);
                prefix.pop();
            }
        }
    }
    let mut all = Vec::new();
    extend(&mut Vec::new(), len, &mut all);
    all.retain(|order| order.windows(2).all(|w| value(w[0]) <= value(w[1])));
    all
}

/// The one sorted order of a tie-free objective.
fn the_sorted_order(len: usize, value: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by(|&a, &b| value(a).partial_cmp(&value(b)).expect("no NaN"));
    assert!(order.windows(2).all(|w| value(w[0]) < value(w[1])), "tie in a tie-free input");
    order
}

/// Truncation selection by repeated choice of the best remaining key:
/// lowest rank, then largest distance, then first in pool order.
fn textbook_truncation(keys: &[(usize, f64)], size: usize) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..keys.len()).collect();
    let mut chosen = Vec::new();
    while chosen.len() < size && !remaining.is_empty() {
        let better = |a: usize, b: usize| {
            keys[a].0 < keys[b].0 || (keys[a].0 == keys[b].0 && keys[a].1 > keys[b].1)
        };
        let best = *remaining
            .iter()
            .find(|&&a| !remaining.iter().any(|&b| better(b, a)))
            .expect("a finite set of keys has a best");
        remaining.retain(|&i| i != best);
        chosen.push(best);
    }
    chosen
}

// ---------------------------------------------------------------------------
// Non-dominated sorting
// ---------------------------------------------------------------------------

fn both_sorts_match_the_textbook(rows: &[Vec<f64>]) {
    let fits = fitnesses(rows);
    let refs: Vec<&Fitness> = fits.iter().collect();
    let expected = textbook_fronts(rows);
    assert_eq!(fast_nondominated_sort(&refs).normalised().as_slice(), expected, "Deb: {rows:?}");
    assert_eq!(rank_ordinal_sort(&refs).normalised().as_slice(), expected, "ordinal: {rows:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorting_two_objectives_matches_peeling(rows in rows(2, 0..24)) {
        both_sorts_match_the_textbook(&rows);
    }

    #[test]
    fn sorting_three_objectives_matches_peeling(rows in rows(3, 0..16)) {
        both_sorts_match_the_textbook(&rows);
    }

    #[test]
    fn sorting_tie_free_rows_matches_peeling(rows in free_rows(2, 1..40)) {
        both_sorts_match_the_textbook(&rows);
    }
}

#[test]
#[should_panic(expected = "NaN objective")]
fn nan_is_refused_at_the_door() {
    Fitness::new(vec![0.5, f64::NAN]);
}

// ---------------------------------------------------------------------------
// Crowding distance
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With ties the definition allows several assignments; the crate's must
    /// be one of them, bit for bit.
    #[test]
    fn crowding_with_ties_is_an_assignment_the_definition_allows(rows in rows(2, 0..6)) {
        let fits = fitnesses(&rows);
        let refs: Vec<&Fitness> = fits.iter().collect();
        let front: Vec<usize> = (0..rows.len()).collect();
        let got = crowding_distance(&refs, &front);
        prop_assert_eq!(got.len(), rows.len());
        prop_assert!(got.iter().all(|d| !d.is_nan() && *d >= 0.0), "{got:?}");
        let first = sorted_orders(rows.len(), |i| rows[i][0]);
        let second = sorted_orders(rows.len(), |i| rows[i][1]);
        let allowed = first.iter().any(|a| {
            second.iter().any(|b| textbook_crowding(&rows, &front, &[a.clone(), b.clone()]) == got)
        });
        prop_assert!(allowed || rows.is_empty(), "{rows:?} -> {got:?}");
    }

    /// Without ties there is one answer.
    #[test]
    fn crowding_without_ties_is_the_definition(rows in free_rows(3, 1..30), skip in 0usize..3) {
        // A sub-front: every `skip + 1`-th row, addressed through `front`.
        let front: Vec<usize> = (0..rows.len()).step_by(skip + 1).collect();
        let fits = fitnesses(&rows);
        let refs: Vec<&Fitness> = fits.iter().collect();
        let orders: Vec<Vec<usize>> =
            (0..3).map(|obj| the_sorted_order(front.len(), |p| rows[front[p]][obj])).collect();
        prop_assert_eq!(crowding_distance(&refs, &front), textbook_crowding(&rows, &front, &orders));
    }
}

// ---------------------------------------------------------------------------
// Truncation selection
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_keeps_the_best_keys_in_pool_order_among_equals(
        keys in prop::collection::vec((0usize..4, 0usize..5, 0.0f64..1.0), 0..24),
        size in 0usize..30,
    ) {
        // Distances from a coarse grid (equal keys are common), `+inf`
        // boundaries included.
        let keys: Vec<(usize, f64)> = keys
            .into_iter()
            .map(|(rank, slot, free)| (rank, [0.0, 0.5, 1.0, f64::INFINITY, free][slot]))
            .collect();
        let pool: Vec<Individual> = keys
            .iter()
            .enumerate()
            .map(|(i, &(rank, distance))| {
                let mut ind = tagged(i, &[0.0, 0.0]);
                (ind.rank, ind.distance) = (rank, distance);
                ind
            })
            .collect();
        let kept: Vec<usize> = truncation_selection(pool, size).iter().map(tag).collect();
        prop_assert_eq!(kept, textbook_truncation(&keys, size));
    }
}

// ---------------------------------------------------------------------------
// Pareto archive
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_archive_is_the_nondominated_set_of_everything_offered(
        rows in rows(2, 0..30),
        split in 0usize..30,
    ) {
        // By definition: the non-penalty rows no offered row dominates, one
        // representative — the first offered — per distinct vector, in
        // offer order.
        let earlier_equal = |i: usize| (0..i).any(|k| rows[k] == rows[i]);
        let expected: Vec<usize> = (0..rows.len())
            .filter(|&i| !is_penalty(&rows[i]))
            .filter(|&i| !rows.iter().any(|other| dominates(other, &rows[i])))
            .filter(|&i| !earlier_equal(i))
            .collect();
        // An offer is admitted iff nothing offered before it dominates or
        // equals it; whatever was admitted and is not in the final set was
        // evicted along the way.
        let admitted = (0..rows.len())
            .filter(|&i| !is_penalty(&rows[i]))
            .filter(|&i| !(0..i).any(|k| dominates(&rows[k], &rows[i]) || rows[k] == rows[i]))
            .count();

        let population: Vec<Individual> =
            rows.iter().enumerate().map(|(i, row)| tagged(i, row)).collect();
        let split = split.min(population.len());

        // One at a time …
        let mut one_by_one = ParetoArchive::new();
        let mut added = 0;
        for ind in &population {
            added += usize::from(one_by_one.offer(ind));
        }
        prop_assert_eq!(one_by_one.members().iter().map(tag).collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(added, admitted);

        // … and as two counted batches.
        let mut batched = ParetoArchive::new();
        let a = batched.offer_all_counted(&population[..split]);
        let b = batched.offer_all_counted(&population[split..]);
        prop_assert_eq!(batched.members().iter().map(tag).collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(a.offered + b.offered, rows.len());
        prop_assert_eq!(a.added + b.added, admitted);
        prop_assert_eq!(a.evicted + b.evicted, admitted - expected.len());
        prop_assert_eq!(batched.len(), expected.len());

        // Unevaluated individuals are not archive material.
        prop_assert!(!batched.offer(&Individual::new(vec![0.0])));
    }

    #[test]
    fn a_bounded_archive_stays_bounded_and_mutually_nondominating(
        rows in rows(2, 0..30),
        capacity in 1usize..6,
    ) {
        let mut archive = ParetoArchive::with_capacity(capacity);
        for (i, row) in rows.iter().enumerate() {
            archive.offer(&tagged(i, row));
            let members: Vec<&[f64]> =
                archive.members().iter().map(|m| m.fitness().values()).collect();
            prop_assert!(members.len() <= capacity);
            for a in &members {
                prop_assert!(!is_penalty(a));
                prop_assert!(members.iter().all(|b| !dominates(a, b)), "{members:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SteadyState::tell
// ---------------------------------------------------------------------------

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

/// `(tag, rank, distance bits)` of every non-penalty member, by tag, plus
/// the number of penalty members (which are interchangeable).
type Census = (Vec<(usize, usize, u64)>, usize);

/// The textbook pool after one more arrival: rank by peeling, crowd each
/// front by the definition (the rows are tie-free apart from the penalties,
/// which share the last front and are identical), drop the worst key when
/// over capacity.
fn textbook_tell(pool: &mut Vec<(usize, Vec<f64>)>, arrival: (usize, Vec<f64>), capacity: usize) -> Census {
    pool.push(arrival);
    let rows: Vec<Vec<f64>> = pool.iter().map(|(_, row)| row.clone()).collect();
    let mut keys = vec![(0usize, 0.0f64); rows.len()];
    for (rank, front) in textbook_fronts(&rows).iter().enumerate() {
        let tied = front.iter().any(|&i| is_penalty(&rows[i]));
        assert!(!tied || front.iter().all(|&i| is_penalty(&rows[i])), "penalties share a front");
        let distances = if tied {
            vec![0.0; front.len()]
        } else {
            let orders: Vec<Vec<usize>> =
                (0..2).map(|obj| the_sorted_order(front.len(), |p| rows[front[p]][obj])).collect();
            textbook_crowding(&rows, front, &orders)
        };
        for (&i, distance) in front.iter().zip(distances) {
            keys[i] = (rank, distance);
        }
    }
    if pool.len() > capacity {
        // Among penalties the definition has no favourite; any of them goes.
        // The survivors are left in key order, which is the pool order the
        // next arrival's equal keys fall back on. Ranks and distances stay
        // those of the pool the survivors were chosen from: `tell` re-ranks
        // at the next arrival, not after truncating.
        let kept = textbook_truncation(&keys, capacity);
        *pool = kept.iter().map(|&i| pool[i].clone()).collect();
        keys = kept.iter().map(|&i| keys[i]).collect();
    }
    let mut members: Vec<(usize, usize, u64)> = pool
        .iter()
        .zip(&keys)
        .filter(|((_, row), _)| !is_penalty(row))
        .map(|((tag, _), &(rank, distance))| (*tag, rank, distance.to_bits()))
        .collect();
    members.sort_unstable();
    (members, pool.iter().filter(|(_, row)| is_penalty(row)).count())
}

fn census(state: &SteadyState) -> Census {
    let mut members: Vec<(usize, usize, u64)> = state
        .population()
        .iter()
        .filter(|ind| !ind.is_failed())
        .map(|ind| (tag(ind), ind.rank, ind.distance.to_bits()))
        .collect();
    members.sort_unstable();
    (members, state.population().iter().filter(|ind| ind.is_failed()).count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tell_is_rank_crowd_truncate_by_the_definitions(
        arrivals in prop::collection::vec((0usize..4, 0.0f64..1.0, 0.0f64..1.0), 1..40),
        capacity in 1usize..9,
    ) {
        let mut state = SteadyState::new(&config(capacity));
        let mut pool = Vec::new();
        for (i, &(pick, a, b)) in arrivals.iter().enumerate() {
            // One arrival in four failed.
            let row = if pick == 0 { vec![MAXINT, MAXINT] } else { vec![a, b] };
            prop_assert_eq!(state.tell(tagged(i, &row)), i);
            let expected = textbook_tell(&mut pool, (i, row), capacity);
            prop_assert_eq!(census(&state), expected, "after arrival {i} of {arrivals:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// One window of μ tells vs one generational step
// ---------------------------------------------------------------------------

/// The generational (μ+λ) survivor step: rank and crowd the merged pool
/// once, keep the best μ.
fn generational_step(parents: &[Individual], offspring: &[Individual]) -> Vec<Individual> {
    let mut pool: Vec<Individual> = parents.iter().chain(offspring).cloned().collect();
    assign_rank_and_crowding(&mut pool);
    truncation_selection(pool, parents.len())
}

/// The same parents absorbing the same offspring one arrival at a time.
fn steady_window(parents: &[Individual], offspring: &[Individual]) -> Vec<Individual> {
    let config = config(parents.len());
    let mut state = SteadyState::restore(&config, config.std.clone(), parents.to_vec(), 0);
    for child in offspring {
        state.tell(child.clone());
    }
    state.population().to_vec()
}

fn tags(population: &[Individual]) -> Vec<usize> {
    let mut tags: Vec<usize> = population.iter().map(tag).collect();
    tags.sort_unstable();
    tags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totally ordered by dominance (one member per front): crowding never
    /// decides, and both schemes keep the μ best.
    #[test]
    fn a_window_of_mu_tells_is_the_generational_step_on_a_dominance_chain(
        values in prop::collection::vec(0.0f64..1.0, 2..24),
    ) {
        let mu = values.len() / 2;
        let all: Vec<Individual> =
            values.iter().enumerate().map(|(i, &v)| tagged(i, &[v, 2.0 * v])).collect();
        let (parents, offspring) = all.split_at(mu);
        let offspring = &offspring[..mu];
        prop_assert_eq!(
            tags(&steady_window(parents, offspring)),
            tags(&generational_step(parents, offspring))
        );
    }

    /// In general: whatever is on the merged pool's first front survives
    /// both schemes when that front fits in μ — nothing ever outranks it.
    #[test]
    fn both_schemes_keep_the_merged_first_front_when_it_fits(rows in free_rows(2, 2..24)) {
        let mu = rows.len() / 2;
        let all: Vec<Individual> = rows.iter().enumerate().map(|(i, row)| tagged(i, row)).collect();
        let (parents, offspring) = all.split_at(mu);
        let offspring = &offspring[..mu];
        let merged: Vec<Vec<f64>> = rows[..2 * mu].to_vec();
        let first = &textbook_fronts(&merged)[0];
        if first.len() <= mu {
            let steady = tags(&steady_window(parents, offspring));
            let generational = tags(&generational_step(parents, offspring));
            for member in first {
                prop_assert!(generational.contains(member), "generational lost {member}");
                prop_assert!(steady.contains(member), "steady lost {member}");
            }
        }
    }
}

/// …and they are not the same thing: the pinned counterexample. Three
/// offspring arrive at a population of three; the first arrival `o0` is the
/// most crowded member of the only front at the time it is judged, so the
/// steady-state population drops it — before `o1` and `o2`, which crowd
/// `p1` far more, have arrived. The generational step sees all six at once
/// and keeps `o0`.
#[test]
fn a_window_of_mu_tells_is_not_the_generational_step_in_general() {
    let rows: [[f64; 2]; 6] = [
        [0.0, 1.0],   // p0
        [0.5, 0.5],   // p1
        [1.0, 0.0],   // p2
        [0.45, 0.56], // o0: next to p1
        [0.52, 0.49], // o1: closer still, on the other side
        [0.53, 0.48], // o2
    ];
    let all: Vec<Individual> = rows.iter().enumerate().map(|(i, row)| tagged(i, row)).collect();
    let (parents, offspring) = all.split_at(3);
    let steady = tags(&steady_window(parents, offspring));
    let generational = tags(&generational_step(parents, offspring));
    assert_ne!(steady, generational, "the counterexample no longer separates the two schemes");
    assert_eq!(textbook_fronts(&rows.map(Vec::from))[0].len(), 6, "all six are non-dominated");
}
