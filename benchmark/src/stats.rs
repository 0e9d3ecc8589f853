//! The benchmark's own arithmetic: medians, the tail-percentile rule, and
//! the quartile spread the comparison uses.

/// Sorted copy (ascending; inputs are finite timings and counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile ladder the tail rule chooses from, in tenths of a percent
/// (integers, so that "ten samples beyond" is counted exactly). It starts
/// above the median, which is always printed.
const LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// Nearest rank (1-based) of percentile `p_milli / 10` in a sample of `n`.
fn rank(n: usize, p_milli: usize) -> usize {
    (n * p_milli).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it in a sample of `n`; `None` when not even the 75th does
/// (n < 40), in which case only the median and n are printed.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| n >= rank(n, p) + 10)
        .map(|&p| p as f64 / 10.0)
}

/// Nearest-rank percentile of a sample (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), (p * 10.0).round() as usize) - 1]
}

/// A timing summarised by the rule: median, the tail percentile the sample
/// size supports (with its label), and n.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when fewer than ten samples lie beyond
    /// the 75th percentile.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        n: values.len(),
        median: median(values),
        tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (the spread the
/// comparison holds against a metric's bound); 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(3500), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_prints_n_and_leaves_at_least_ten_beyond_the_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(v, 90.0);
        assert!(values.iter().filter(|&&x| x > v).count() >= 10);
        assert_eq!(summarize(&values[..12]).tail, None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.2]), 0.0);
    }
}
