//! Property tests for the exact 2-D hypervolume sweep: dominance
//! invariance, monotonicity under nondominated insertion, and agreement
//! with a brute-force grid estimate on random fronts and the analytic ZDT
//! reference fronts.

use dphpo_evo::{hypervolume_2d, zdt1_reference_front, zdt2_reference_front};
use proptest::prelude::*;

/// Brute-force Monte-Carlo-free estimate: a G×G grid over the reference
/// box, counting cells whose centre is weakly dominated by some front
/// point. Error is bounded by the staircase boundary, roughly
/// `(2 × (n_points + 1) / G) × box area`.
fn grid_estimate(front: &[(f64, f64)], reference: (f64, f64), g: usize) -> f64 {
    let cell = |extent: f64, k: usize| (k as f64 + 0.5) * extent / g as f64;
    let mut hits = 0usize;
    for i in 0..g {
        for j in 0..g {
            let (x, y) = (cell(reference.0, i), cell(reference.1, j));
            if front.iter().any(|&(a, b)| a <= x && b <= y) {
                hits += 1;
            }
        }
    }
    hits as f64 / (g * g) as f64 * reference.0 * reference.1
}

fn grid_tolerance(n_points: usize, reference: (f64, f64), g: usize) -> f64 {
    (2 * (n_points + 1)) as f64 / g as f64 * reference.0 * reference.1
}

/// The analytic reference fronts as objective pairs.
fn pairs(front: Vec<Vec<f64>>) -> Vec<(f64, f64)> {
    front.into_iter().map(|p| (p[0], p[1])).collect()
}

/// A strategy for random 2-D fronts inside the unit reference box.
fn points_2d(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..0.99f64, 0.0..0.99f64), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding a point dominated by an existing member changes nothing:
    /// its dominated box is a subset of the dominator's.
    #[test]
    fn dominated_point_never_changes_hypervolume(
        front in points_2d(8),
        pick in 0usize..8,
        eps in (0.001..0.2f64, 0.001..0.2f64),
    ) {
        let reference = (1.0, 1.0);
        let base = hypervolume_2d(&front, reference);
        let host = front[pick % front.len()];
        let dominated = ((host.0 + eps.0).min(0.999), (host.1 + eps.1).min(0.999));
        let mut extended = front.clone();
        extended.push(dominated);
        let after = hypervolume_2d(&extended, reference);
        prop_assert!((after - base).abs() < 1e-12, "hv moved {base} -> {after}");
    }

    /// Adding any point inside the reference box never decreases the
    /// hypervolume, and a point that is not weakly dominated by the front
    /// strictly increases it.
    #[test]
    fn nondominated_point_never_decreases_hypervolume(
        front in points_2d(8),
        candidate in (0.0..0.99f64, 0.0..0.99f64),
    ) {
        let reference = (1.0, 1.0);
        let base = hypervolume_2d(&front, reference);
        let weakly_dominated =
            front.iter().any(|p| p.0 <= candidate.0 && p.1 <= candidate.1);
        let mut extended = front.clone();
        extended.push(candidate);
        let after = hypervolume_2d(&extended, reference);
        prop_assert!(after >= base - 1e-12, "hv dropped {base} -> {after}");
        if !weakly_dominated {
            prop_assert!(after > base, "nondominated insert did not grow hv");
        }
    }

    /// The exact 2-D sweep agrees with a brute-force grid estimate.
    #[test]
    fn sweep_agrees_with_grid_estimate_2d(front in points_2d(8)) {
        let reference = (1.0, 1.0);
        let exact = hypervolume_2d(&front, reference);
        let grid = grid_estimate(&front, reference, 128);
        let tol = grid_tolerance(front.len(), reference, 128);
        prop_assert!((exact - grid).abs() <= tol, "exact {exact} grid {grid} tol {tol}");
    }
}

#[test]
fn zdt_reference_fronts_match_grid_estimate() {
    let reference = (1.1, 1.1);
    for front in [zdt1_reference_front(40), zdt2_reference_front(40)].map(pairs) {
        let exact = hypervolume_2d(&front, reference);
        let grid = grid_estimate(&front, reference, 256);
        let tol = grid_tolerance(front.len(), reference, 256);
        assert!(
            (exact - grid).abs() <= tol,
            "exact {exact} grid {grid} tol {tol}"
        );
        // The analytic fronts dominate a substantial share of the box.
        assert!(exact > 0.4, "implausibly small ZDT hypervolume {exact}");
    }
}

/// The ZDT1 front strictly dominates the ZDT2 front pointwise
/// (1 − √x ≤ 1 − x² on [0, 1]), so its hypervolume must be larger.
#[test]
fn zdt1_front_dominates_zdt2_front_in_hypervolume() {
    let reference = (1.1, 1.1);
    let hv1 = hypervolume_2d(&pairs(zdt1_reference_front(60)), reference);
    let hv2 = hypervolume_2d(&pairs(zdt2_reference_front(60)), reference);
    assert!(hv1 > hv2, "zdt1 {hv1} should exceed zdt2 {hv2}");
}
