//! Multi-objective machinery: non-dominated sorting, crowding distance,
//! Pareto-front extraction, and the 2-D hypervolume indicator.
//!
//! Two sorting algorithms are provided, mirroring the paper's §2.1.4:
//!
//! * [`fast_nondominated_sort`] — the classic Deb et al. (2002) O(M·N²)
//!   algorithm from the original NSGA-II paper.
//! * [`rank_ordinal_sort`] — a rank-based efficient non-dominated sort in
//!   the spirit of Burlacu (2022): objectives are first converted to dense
//!   integer ordinal ranks (so all dominance tests are integer compares),
//!   individuals are processed in lexicographic rank order, and each is
//!   placed with a binary search over existing fronts (ENS-BS). For the
//!   two-objective case the per-front dominance test collapses to a single
//!   comparison, giving O(N log N) behaviour — the "significant speed-up"
//!   the paper relies on.
//!
//! Both produce identical front assignments (property-tested).

use crate::individual::{Fitness, Individual};

/// Result of a non-dominated sorting pass: `fronts[k]` holds the indices of
/// the individuals on front `k` (front 0 is the Pareto-best front).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fronts {
    fronts: Vec<Vec<usize>>,
}

impl Fronts {
    /// The front index assigned to each individual.
    pub fn ranks(&self, n: usize) -> Vec<usize> {
        let mut ranks = vec![usize::MAX; n];
        for (k, front) in self.fronts.iter().enumerate() {
            for &i in front {
                ranks[i] = k;
            }
        }
        ranks
    }

    /// Access the raw fronts.
    pub fn as_slice(&self) -> &[Vec<usize>] {
        &self.fronts
    }

    /// Number of fronts.
    pub fn len(&self) -> usize {
        self.fronts.len()
    }

    /// True when there are no fronts (empty population).
    pub fn is_empty(&self) -> bool {
        self.fronts.is_empty()
    }

    /// Canonicalise for comparisons: sorts indices within fronts.
    pub fn normalised(mut self) -> Self {
        for f in &mut self.fronts {
            f.sort_unstable();
        }
        self
    }
}

/// Deb's fast non-dominated sort, O(M·N²).
pub fn fast_nondominated_sort(fitnesses: &[&Fitness]) -> Fronts {
    let n = fitnesses.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut domination_count = vec![0usize; n];
    let mut fronts: Vec<Vec<usize>> = Vec::new();

    for p in 0..n {
        for q in (p + 1)..n {
            if fitnesses[p].dominates(fitnesses[q]) {
                dominated_by[p].push(q);
                domination_count[q] += 1;
            } else if fitnesses[q].dominates(fitnesses[p]) {
                dominated_by[q].push(p);
                domination_count[p] += 1;
            }
        }
    }

    let mut current: Vec<usize> = (0..n).filter(|&p| domination_count[p] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominated_by[p] {
                domination_count[q] -= 1;
                if domination_count[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    Fronts { fronts }
}

/// Dense per-objective ordinal ranks: equal objective values get equal
/// ranks, so dominance on ranks is exactly dominance on values.
#[allow(clippy::needless_range_loop)] // `obj` addresses a column across rows
fn ordinal_ranks(fitnesses: &[&Fitness]) -> Vec<Vec<u32>> {
    let n = fitnesses.len();
    if n == 0 {
        return Vec::new();
    }
    let m = fitnesses[0].len();
    let mut ranks = vec![vec![0u32; m]; n];
    let mut order: Vec<usize> = (0..n).collect();
    for obj in 0..m {
        order.sort_unstable_by(|&a, &b| {
            fitnesses[a].get(obj).partial_cmp(&fitnesses[b].get(obj)).unwrap()
        });
        let mut rank = 0u32;
        for (pos, &i) in order.iter().enumerate() {
            if pos > 0 {
                let prev = order[pos - 1];
                if fitnesses[i].get(obj) > fitnesses[prev].get(obj) {
                    rank += 1;
                }
            }
            ranks[i][obj] = rank;
        }
    }
    ranks
}

/// Rank-based efficient non-dominated sort (ENS-BS over ordinal ranks).
///
/// Produces the same fronts as [`fast_nondominated_sort`] but much faster on
/// large populations; all dominance tests are integer comparisons.
pub fn rank_ordinal_sort(fitnesses: &[&Fitness]) -> Fronts {
    let n = fitnesses.len();
    if n == 0 {
        return Fronts { fronts: Vec::new() };
    }
    let m = fitnesses[0].len();
    let ranks = ordinal_ranks(fitnesses);

    // Lexicographic order over rank vectors: no later individual can
    // dominate an earlier one.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| ranks[a].cmp(&ranks[b]));

    // Integer-rank dominance (a dominates b).
    let dominates = |a: usize, b: usize| -> bool {
        let mut strictly = false;
        for (ra, rb) in ranks[a].iter().zip(&ranks[b]) {
            if ra > rb {
                return false;
            }
            if ra < rb {
                strictly = true;
            }
        }
        strictly
    };

    let mut fronts: Vec<Vec<usize>> = Vec::new();
    // For the bi-objective fast path: the minimum second-objective rank seen
    // in each front. Because insertion order is lexicographic, candidate `i`
    // is dominated by some member of front `k` iff min_r2[k] < ranks[i][1],
    // or min_r2[k] == ranks[i][1] with a strictly smaller first objective —
    // the latter is impossible to decide from min_r2 alone, so we track the
    // pair (min_r2, whether it came from an identical rank vector). Simpler
    // and still exact: a front dominates `i` iff its minimum r2 member has
    // r2 < r_i2, OR r2 == r_i2 and that member's r1 < r_i1. We store both.
    let mut best_in_front: Vec<(u32, u32)> = Vec::new(); // (min r2, r1 of that member)

    let dominated_pair = |front_best: (u32, u32), cand: &[u32]| -> bool {
        let (r2, r1) = front_best;
        (r1 < cand[0] && r2 <= cand[1]) || (r1 <= cand[0] && r2 < cand[1])
    };

    for &i in &order {
        // Binary search for the first front that does NOT dominate i.
        let mut lo = 0usize;
        let mut hi = fronts.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let dominated = if m == 2 {
                dominated_pair(best_in_front[mid], &ranks[i])
            } else {
                fronts[mid].iter().any(|&j| dominates(j, i))
            };
            if dominated {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == fronts.len() {
            fronts.push(Vec::new());
            if m == 2 {
                best_in_front.push((u32::MAX, u32::MAX));
            }
        }
        fronts[lo].push(i);
        if m == 2 {
            let entry = &mut best_in_front[lo];
            if ranks[i][1] < entry.0 || (ranks[i][1] == entry.0 && ranks[i][0] < entry.1) {
                *entry = (ranks[i][1], ranks[i][0]);
            }
        }
    }
    Fronts { fronts }
}

/// Crowding distance (Deb 2002) for one front. Boundary solutions get
/// `f64::INFINITY`; returns one distance per member of `front`.
pub fn crowding_distance(fitnesses: &[&Fitness], front: &[usize]) -> Vec<f64> {
    let len = front.len();
    if len == 0 {
        return Vec::new();
    }
    if len <= 2 {
        return vec![f64::INFINITY; len];
    }
    let m = fitnesses[front[0]].len();
    let mut distance = vec![0.0f64; len];
    let mut order: Vec<usize> = (0..len).collect(); // positions into `front`
    for obj in 0..m {
        order.sort_unstable_by(|&a, &b| {
            fitnesses[front[a]]
                .get(obj)
                .partial_cmp(&fitnesses[front[b]].get(obj))
                .unwrap()
        });
        let fmin = fitnesses[front[order[0]]].get(obj);
        let fmax = fitnesses[front[order[len - 1]]].get(obj);
        distance[order[0]] = f64::INFINITY;
        distance[order[len - 1]] = f64::INFINITY;
        let span = fmax - fmin;
        if span <= 0.0 || !span.is_finite() {
            continue;
        }
        for w in 1..len - 1 {
            let lo = fitnesses[front[order[w - 1]]].get(obj);
            let hi = fitnesses[front[order[w + 1]]].get(obj);
            distance[order[w]] += (hi - lo) / span;
        }
    }
    distance
}

/// Run a sorting pass and annotate `rank` and `distance` on each individual,
/// mirroring the paper's `rank_ordinal_sort(...)` →
/// `crowding_distance_calc` pipeline stages.
pub fn assign_rank_and_crowding(pop: &mut [Individual]) {
    let fitnesses: Vec<&Fitness> = pop.iter().map(|i| i.fitness()).collect();
    let fronts = rank_ordinal_sort(&fitnesses);
    let ranks = fronts.ranks(pop.len());
    let mut distances = vec![0.0f64; pop.len()];
    for front in fronts.as_slice() {
        let d = crowding_distance(&fitnesses, front);
        for (&i, &di) in front.iter().zip(d.iter()) {
            distances[i] = di;
        }
    }
    for (ind, (r, d)) in pop.iter_mut().zip(ranks.into_iter().zip(distances)) {
        ind.rank = r;
        ind.distance = d;
    }
}

/// Indices of the non-dominated (Pareto-optimal) members of `fitnesses`.
pub fn pareto_front(fitnesses: &[&Fitness]) -> Vec<usize> {
    let fronts = rank_ordinal_sort(fitnesses);
    fronts.as_slice().first().cloned().unwrap_or_default()
}

/// Exact 2-D hypervolume dominated by `front` with respect to `reference`,
/// both objectives minimised. Points with a coordinate at or beyond the
/// reference (or NaN) are discarded: they dominate nothing inside the
/// reference box. The sweep visits points in a total order, so the result
/// is a pure function of the multiset of points, independent of input
/// order and safe to compare byte for byte across runs.
pub fn hypervolume_2d(front: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut pts: Vec<(f64, f64)> =
        front.iter().copied().filter(|&(a, b)| a < reference.0 && b < reference.1).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut hv = 0.0;
    let mut best_f2 = reference.1;
    for (f1, f2) in pts {
        if f2 < best_f2 {
            hv += (reference.0 - f1) * (best_f2 - f2);
            best_f2 = f2;
        }
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fits(values: &[(f64, f64)]) -> Vec<Fitness> {
        values.iter().map(|&(a, b)| Fitness::new(vec![a, b])).collect()
    }

    fn refs(f: &[Fitness]) -> Vec<&Fitness> {
        f.iter().collect()
    }

    #[test]
    fn deb_sort_simple_fronts() {
        let f = fits(&[(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (2.5, 3.5), (4.0, 4.0)]);
        let fronts = fast_nondominated_sort(&refs(&f)).normalised();
        assert_eq!(fronts.as_slice()[0], vec![0, 1, 2]);
        assert_eq!(fronts.as_slice()[1], vec![3]);
        assert_eq!(fronts.as_slice()[2], vec![4]);
    }

    #[test]
    fn rank_ordinal_matches_deb_on_simple_case() {
        let f = fits(&[(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (2.5, 3.5), (4.0, 4.0)]);
        let a = fast_nondominated_sort(&refs(&f)).normalised();
        let b = rank_ordinal_sort(&refs(&f)).normalised();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicates_share_a_front() {
        let f = fits(&[(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]);
        let fronts = rank_ordinal_sort(&refs(&f)).normalised();
        assert_eq!(fronts.as_slice()[0], vec![0, 1]);
        assert_eq!(fronts.as_slice()[1], vec![2]);
    }

    #[test]
    fn single_chain_gives_one_front_each() {
        let f = fits(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let fronts = rank_ordinal_sort(&refs(&f));
        assert_eq!(fronts.len(), 3);
    }

    #[test]
    fn all_nondominated_single_front() {
        let f = fits(&[(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]);
        let fronts = rank_ordinal_sort(&refs(&f));
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts.as_slice()[0].len(), 5);
    }

    #[test]
    fn penalties_land_on_worst_front() {
        let f = vec![
            Fitness::new(vec![1.0, 1.0]),
            Fitness::penalty(2),
            Fitness::new(vec![2.0, 0.5]),
            Fitness::penalty(2),
        ];
        let fronts = rank_ordinal_sort(&refs(&f)).normalised();
        assert_eq!(fronts.len(), 2);
        assert_eq!(fronts.as_slice()[1], vec![1, 3]);
    }

    #[test]
    fn three_objective_sorting_agrees() {
        let f = vec![
            Fitness::new(vec![1.0, 2.0, 3.0]),
            Fitness::new(vec![2.0, 1.0, 3.0]),
            Fitness::new(vec![2.0, 2.0, 4.0]),
            Fitness::new(vec![1.0, 1.0, 1.0]),
            Fitness::new(vec![3.0, 3.0, 3.0]),
        ];
        let a = fast_nondominated_sort(&refs(&f)).normalised();
        let b = rank_ordinal_sort(&refs(&f)).normalised();
        assert_eq!(a, b);
        // (1,1,1) dominates everything.
        assert_eq!(a.as_slice()[0], vec![3]);
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let f = fits(&[(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]);
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distance(&refs(&f), &front);
        assert!(d[0].is_infinite());
        assert!(d[4].is_infinite());
        // Uniform spacing → equal interior distances.
        assert!((d[1] - d[2]).abs() < 1e-12);
        assert!((d[2] - d[3]).abs() < 1e-12);
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let f = fits(&[(1.0, 2.0), (2.0, 1.0)]);
        let d = crowding_distance(&refs(&f), &[0, 1]);
        assert!(d.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn crowding_prefers_spread() {
        // Middle point crowded between close neighbours gets a smaller
        // distance than an isolated one.
        let f = fits(&[(0.0, 10.0), (1.0, 9.0), (1.1, 8.9), (5.0, 5.0), (10.0, 0.0)]);
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distance(&refs(&f), &front);
        assert!(d[3] > d[1]);
        assert!(d[3] > d[2]);
    }

    #[test]
    fn pareto_front_extraction() {
        let f = fits(&[(1.0, 4.0), (2.0, 3.0), (2.5, 3.5), (3.0, 2.0)]);
        let mut pf = pareto_front(&refs(&f));
        pf.sort_unstable();
        assert_eq!(pf, vec![0, 1, 3]);
    }

    #[test]
    fn hypervolume_known_values() {
        // Single point (1,1) with reference (2,2): area 1.
        assert!((hypervolume_2d(&[(1.0, 1.0)], (2.0, 2.0)) - 1.0).abs() < 1e-12);
        // Two staircase points.
        let hv = hypervolume_2d(&[(1.0, 3.0), (2.0, 1.0)], (4.0, 4.0));
        // (1,3): (4-1)*(4-3)=3; (2,1): (4-2)*(3-1)=4 → 7.
        assert!((hv - 7.0).abs() < 1e-12);
        // Dominated point adds nothing.
        let hv2 = hypervolume_2d(&[(1.0, 3.0), (2.0, 1.0), (3.0, 3.5)], (4.0, 4.0));
        assert!((hv2 - 7.0).abs() < 1e-12);
        // Points outside the reference box contribute nothing.
        assert_eq!(hypervolume_2d(&[(5.0, 5.0)], (4.0, 4.0)), 0.0);
    }

    #[test]
    fn assign_rank_and_crowding_annotates() {
        let mut pop: Vec<Individual> = [(1.0, 4.0), (2.0, 3.0), (2.5, 3.5)]
            .iter()
            .map(|&(a, b)| {
                let mut ind = Individual::new(vec![0.0]);
                ind.fitness = Some(Fitness::new(vec![a, b]));
                ind
            })
            .collect();
        assign_rank_and_crowding(&mut pop);
        assert_eq!(pop[0].rank, 0);
        assert_eq!(pop[1].rank, 0);
        assert_eq!(pop[2].rank, 1);
        assert!(pop[0].distance.is_infinite());
    }
}
