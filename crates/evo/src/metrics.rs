//! Multi-objective quality metrics beyond hypervolume: front spread and
//! analytic reference fronts for the ZDT problems — used to validate the
//! optimizer quantitatively.

use crate::mo::hypervolume_2d;

/// Spread (Δ-style): standard deviation of consecutive gap lengths along a
/// bi-objective front sorted by the first objective, normalised by the mean
/// gap. 0 = perfectly uniform spacing.
fn spread_2d(front: &[(f64, f64)]) -> f64 {
    if front.len() < 3 {
        return 0.0;
    }
    let mut pts = front.to_vec();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let gaps: Vec<f64> = pts
        .windows(2)
        .map(|w| ((w[1].0 - w[0].0).powi(2) + (w[1].1 - w[0].1).powi(2)).sqrt())
        .collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
    var.sqrt() / mean
}

/// `n` evenly spaced points on ZDT1's true front `f2 = 1 − √f1`.
pub fn zdt1_reference_front(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            let f1 = k as f64 / (n - 1).max(1) as f64;
            vec![f1, 1.0 - f1.sqrt()]
        })
        .collect()
}

/// `n` evenly spaced points on ZDT2's true front `f2 = 1 − f1²`.
pub fn zdt2_reference_front(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            let f1 = k as f64 / (n - 1).max(1) as f64;
            vec![f1, 1.0 - f1 * f1]
        })
        .collect()
}

/// Per-generation search-quality summary of a two-objective front.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FrontStats {
    /// Number of members on the front (archive cardinality).
    pub cardinality: usize,
    /// Exact 2-D hypervolume against the campaign reference point.
    pub hypervolume: f64,
    /// Gap-uniformity spread: the standard deviation of consecutive gap
    /// lengths over their mean; 0 = perfectly uniform.
    pub spread: f64,
}

/// Summarise a two-objective front: cardinality, hypervolume against
/// `reference`, and spread. All three are deterministic functions of the
/// point set.
pub fn front_stats_2d(front: &[(f64, f64)], reference: (f64, f64)) -> FrontStats {
    FrontStats {
        cardinality: front.len(),
        hypervolume: hypervolume_2d(front, reference),
        spread: spread_2d(front),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_uniform_vs_clustered() {
        let uniform: Vec<(f64, f64)> =
            (0..10).map(|k| (k as f64 / 9.0, 1.0 - k as f64 / 9.0)).collect();
        let mut clustered = uniform.clone();
        // Push half the points into a tight cluster.
        for p in clustered.iter_mut().take(5) {
            p.0 *= 0.05;
            p.1 = 1.0 - p.0;
        }
        assert!(spread_2d(&uniform) < 1e-9);
        assert!(spread_2d(&clustered) > spread_2d(&uniform));
    }

    #[test]
    fn spread_degenerate_inputs() {
        assert_eq!(spread_2d(&[]), 0.0);
        assert_eq!(spread_2d(&[(0.0, 1.0), (1.0, 0.0)]), 0.0);
    }

    #[test]
    fn reference_fronts_have_expected_shape() {
        let f1 = zdt1_reference_front(11);
        assert_eq!(f1.len(), 11);
        assert_eq!(f1[0], vec![0.0, 1.0]);
        assert!((f1[10][1] - 0.0).abs() < 1e-12);
        let f2 = zdt2_reference_front(11);
        assert!((f2[5][1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_2d_matches_hand_computation() {
        // Two staircase points against reference (1, 1):
        // (0.25, 0.75) contributes 0.75 × 0.25, (0.5, 0.25) adds 0.5 × 0.5.
        let front = [(0.25, 0.75), (0.5, 0.25)];
        let hv = hypervolume_2d(&front, (1.0, 1.0));
        assert!((hv - (0.75 * 0.25 + 0.5 * 0.5)).abs() < 1e-12, "hv {hv}");
        // Order independence.
        assert_eq!(hv, hypervolume_2d(&[front[1], front[0]], (1.0, 1.0)));
        // Points at or beyond the reference contribute nothing.
        assert_eq!(hv, hypervolume_2d(&[front[0], front[1], (1.0, 0.1)], (1.0, 1.0)));
    }

    #[test]
    fn hypervolume_empty_front_is_zero() {
        assert_eq!(hypervolume_2d(&[], (1.0, 1.0)), 0.0);
    }

    #[test]
    fn front_stats_combine_the_three_metrics() {
        let front = [(0.25, 0.75), (0.5, 0.25)];
        let stats = front_stats_2d(&front, (1.0, 1.0));
        assert_eq!(stats.cardinality, 2);
        assert!(stats.hypervolume > 0.0);
        assert_eq!(stats.spread, 0.0, "two points have no gap variance");
    }
}
