//! Neighbor-pair enumeration under periodic boundary conditions.
//!
//! Two strategies are provided: a brute-force O(N²) minimum-image scan
//! (exact for any cutoff, the right tool at the paper's 160-atom scale) and
//! a linked-cell list that is O(N) when the cutoff is small relative to the
//! box. Both produce identical directed pair lists (tested).
//!
//! A [`PairTable`] is the cutoff-free form of the brute-force scan for a
//! fixed set of frames: every directed pair of every frame, computed once,
//! from which any cutoff's pair list is a filter. A hyperparameter campaign
//! trains thousands of models over the same frames at different cutoffs; the
//! table is what lets each of them skip the O(N²) search (see
//! [`crate::Dataset::pair_table`]).

use crate::cell::Cell;

/// A directed neighbor pair `i → j` within the cutoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pair {
    /// Central atom index.
    pub i: usize,
    /// Neighbor atom index.
    pub j: usize,
    /// Minimum-image displacement `r_j − r_i`.
    pub disp: [f64; 3],
    /// Squared distance `|disp|²` — what a cutoff is compared against.
    pub r2: f64,
    /// Distance `|disp|` (`r2.sqrt()`).
    pub r: f64,
}

/// The brute-force scan: append every directed pair (both `i→j` and `j→i`)
/// of one frame with `0 < r² < rcut2`, `i < j` ascending, each pair followed
/// by its reverse.
fn scan(cell: &Cell, positions: &[[f64; 3]], rcut2: f64, pairs: &mut Vec<Pair>) {
    let n = positions.len();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = cell.min_image(positions[i], positions[j]);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < rcut2 && r2 > 0.0 {
                let r = r2.sqrt();
                pairs.push(Pair { i, j, disp: d, r2, r });
                pairs.push(Pair { i: j, j: i, disp: [-d[0], -d[1], -d[2]], r2, r });
            }
        }
    }
}

/// Directed pairs (both `i→j` and `j→i`) with `0 < r < rcut`, brute force.
pub fn pairs_brute_force(cell: &Cell, positions: &[[f64; 3]], rcut: f64) -> Vec<Pair> {
    assert!(rcut > 0.0, "non-positive cutoff");
    let mut pairs = Vec::new();
    scan(cell, positions, rcut * rcut, &mut pairs);
    pairs
}

/// Every directed minimum-image pair of a fixed set of frames, whatever the
/// cutoff: per frame, the pairs [`pairs_brute_force`] would return at an
/// infinite cutoff, in its order (`i < j` ascending, each pair followed by
/// its reverse; coincident atoms, `r² = 0`, are never pairs).
///
/// [`PairTable::within`] selects a cutoff's pairs with the comparison the
/// scan itself uses (`r² < rcut²`) and keeps the order, so the selection is
/// element for element what `pairs_brute_force(cell, positions, rcut)`
/// returns — anything accumulated over it sums in the same order.
///
/// Memory is `56 · n(n − 1)` bytes per frame, the size of one training's
/// descriptor caches at a cutoff that reaches every pair.
#[derive(Debug)]
pub struct PairTable {
    cell: Cell,
    pairs: Vec<Pair>,
    /// Frame `f` owns `pairs[offsets[f]..offsets[f + 1]]`.
    offsets: Vec<usize>,
}

impl PairTable {
    /// Scan every frame once, without a cutoff.
    pub fn build<'a>(cell: &Cell, frames: impl IntoIterator<Item = &'a [[f64; 3]]>) -> Self {
        let mut pairs = Vec::new();
        let mut offsets = vec![0];
        for positions in frames {
            pairs.reserve(positions.len() * positions.len().saturating_sub(1));
            scan(cell, positions, f64::INFINITY, &mut pairs);
            offsets.push(pairs.len());
        }
        PairTable { cell: *cell, pairs, offsets }
    }

    /// The cell the minimum images were taken in.
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Number of frames scanned.
    pub fn n_frames(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The pairs of frame `frame` with `0 < r < rcut`, in scan order.
    pub fn within(&self, frame: usize, rcut: f64) -> impl Iterator<Item = &Pair> {
        assert!(rcut > 0.0, "non-positive cutoff");
        let rcut2 = rcut * rcut;
        self.pairs[self.offsets[frame]..self.offsets[frame + 1]].iter().filter(move |p| p.r2 < rcut2)
    }
}

/// Linked-cell neighbor search. Falls back to [`pairs_brute_force`] when the
/// box is too small to host a 3×3×3 cell grid at this cutoff (the paper's
/// regime: rcut up to 12 Å in a 17.84 Å box).
pub fn pairs_cell_list(cell: &Cell, positions: &[[f64; 3]], rcut: f64) -> Vec<Pair> {
    assert!(rcut > 0.0, "non-positive cutoff");
    let l = cell.length();
    let m = (l / rcut).floor() as usize;
    if m < 3 {
        return pairs_brute_force(cell, positions, rcut);
    }
    let cell_len = l / m as f64;
    let cell_of = |p: [f64; 3]| -> [usize; 3] {
        let w = cell.wrap(p);
        let mut c = [0usize; 3];
        for k in 0..3 {
            c[k] = ((w[k] / cell_len) as usize).min(m - 1);
        }
        c
    };
    let idx = |c: [usize; 3]| -> usize { (c[0] * m + c[1]) * m + c[2] };

    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); m * m * m];
    for (a, &p) in positions.iter().enumerate() {
        bins[idx(cell_of(p))].push(a);
    }

    let rcut2 = rcut * rcut;
    let mut pairs = Vec::new();
    for cx in 0..m {
        for cy in 0..m {
            for cz in 0..m {
                let home = &bins[idx([cx, cy, cz])];
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let nb = [
                                ((cx as i64 + dx).rem_euclid(m as i64)) as usize,
                                ((cy as i64 + dy).rem_euclid(m as i64)) as usize,
                                ((cz as i64 + dz).rem_euclid(m as i64)) as usize,
                            ];
                            let other = &bins[idx(nb)];
                            for &i in home {
                                for &j in other {
                                    if i == j {
                                        continue;
                                    }
                                    let d = cell.min_image(positions[i], positions[j]);
                                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                                    if r2 < rcut2 && r2 > 0.0 {
                                        pairs.push(Pair { i, j, disp: d, r2, r: r2.sqrt() });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // With periodic wrap-around and m == 3 the same neighbor cell can be
    // visited from more than one offset; deduplicate.
    pairs.sort_unstable_by_key(|a| (a.i, a.j));
    pairs.dedup_by(|a, b| a.i == b.i && a.j == b.j);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sorted copy of a pair list for order-insensitive comparisons.
    fn sorted_pairs(mut pairs: Vec<Pair>) -> Vec<Pair> {
        pairs.sort_unstable_by_key(|a| (a.i, a.j));
        pairs
    }

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| [rng.random_range(0.0..l), rng.random_range(0.0..l), rng.random_range(0.0..l)])
            .collect()
    }

    #[test]
    fn brute_force_pairs_are_symmetric() {
        let cell = Cell::cubic(10.0);
        let pos = random_positions(20, 10.0, 1);
        let pairs = pairs_brute_force(&cell, &pos, 4.0);
        assert_eq!(pairs.len() % 2, 0);
        for p in &pairs {
            assert!(pairs.iter().any(|q| q.i == p.j && q.j == p.i));
            assert!(p.r < 4.0 && p.r > 0.0);
        }
    }

    #[test]
    fn pair_across_boundary_found() {
        let cell = Cell::cubic(10.0);
        let pos = vec![[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]];
        let pairs = pairs_brute_force(&cell, &pos, 2.0);
        assert_eq!(pairs.len(), 2);
        assert!((pairs[0].r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cell_list_matches_brute_force_small_cutoff() {
        let cell = Cell::cubic(12.0);
        let pos = random_positions(60, 12.0, 7);
        for rcut in [2.0, 3.0, 3.9] {
            let a = sorted_pairs(pairs_brute_force(&cell, &pos, rcut));
            let b = sorted_pairs(pairs_cell_list(&cell, &pos, rcut));
            assert_eq!(a.len(), b.len(), "rcut {rcut}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((x.i, x.j), (y.i, y.j));
                assert!((x.r - y.r).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cell_list_falls_back_for_large_cutoff() {
        // rcut 6 in a 12 box → m = 2 < 3 → brute-force fallback, still exact.
        let cell = Cell::cubic(12.0);
        let pos = random_positions(30, 12.0, 3);
        let a = sorted_pairs(pairs_brute_force(&cell, &pos, 6.0));
        let b = sorted_pairs(pairs_cell_list(&cell, &pos, 6.0));
        assert_eq!(a, b);
    }

    #[test]
    fn table_filter_is_the_brute_force_scan_at_every_cutoff() {
        // Two frames, one of them with a coincident pair; cutoffs below,
        // above and far above half the box, and one placed exactly on a
        // pair distance (both sides decide that pair by `r² < rcut²`).
        let cell = Cell::cubic(9.0);
        let mut frames = [random_positions(12, 9.0, 5), random_positions(12, 9.0, 6)];
        frames[1][3] = frames[1][7];
        let table = PairTable::build(&cell, frames.iter().map(Vec::as_slice));
        assert_eq!(table.n_frames(), 2);
        let on_a_pair = table.within(0, 100.0).nth(10).unwrap().r;
        for rcut in [2.5, 4.4, 6.0, on_a_pair, 100.0] {
            for (f, positions) in frames.iter().enumerate() {
                let scanned = pairs_brute_force(&cell, positions, rcut);
                let filtered: Vec<Pair> = table.within(f, rcut).copied().collect();
                assert_eq!(filtered, scanned, "frame {f} rcut {rcut}");
            }
        }
    }

    #[test]
    fn no_self_pairs_even_for_duplicate_positions() {
        let cell = Cell::cubic(10.0);
        let pos = vec![[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]];
        let pairs = pairs_brute_force(&cell, &pos, 3.0);
        // Identical positions have r = 0 and are skipped (r² > 0 filter).
        assert!(pairs.is_empty());
    }

    #[test]
    fn larger_cutoff_never_loses_pairs() {
        let cell = Cell::cubic(17.84);
        let pos = random_positions(40, 17.84, 11);
        let small = pairs_brute_force(&cell, &pos, 6.0);
        let large = pairs_brute_force(&cell, &pos, 12.0);
        assert!(large.len() >= small.len());
        let large_set: std::collections::HashSet<(usize, usize)> =
            large.iter().map(|p| (p.i, p.j)).collect();
        for p in &small {
            assert!(large_set.contains(&(p.i, p.j)));
        }
    }
}
