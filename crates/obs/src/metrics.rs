//! Counters, gauges, and fixed-bucket log-scale histograms.
//!
//! Histograms bucket by the base-2 exponent of the value, extracted
//! directly from the IEEE-754 bit pattern — no `log` calls, no libm, so
//! bucketing is bit-exact on every platform. Bucket `i` covers
//! `[2^(i-32), 2^(i-31))`; values outside `(0, ∞)` (zero, negatives,
//! non-finite) land in bucket 0 and are still counted in `count`/`min`/`max`.

/// Number of histogram buckets (exponents -32..=31, clamped at the ends).
const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent offset: bucket index = biased exponent − 1023 + 32, clamped.
const EXP_OFFSET: i64 = 32;

/// Last value and high-water mark of a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GaugeValue {
    /// Most recently set value.
    pub last: f64,
    /// Maximum value ever set (high-water mark).
    pub max: f64,
}

/// Exact running sum of finite `f64`s, kept as a nonoverlapping expansion
/// (Shewchuk's algorithm, as in Python's `math.fsum`).
///
/// The readout is the *correctly rounded* sum of the multiset of
/// observations — a function of the values alone, not of the order worker
/// threads happened to interleave them — which is what keeps histogram
/// exports bit-identical across re-runs. Float addition is not
/// associative, so a plain `+=` here would leak thread-scheduling noise
/// into the last ulp.
#[derive(Clone, Debug, Default)]
pub struct ExactSum {
    partials: Vec<f64>,
}

impl ExactSum {
    /// Fold a finite value into the expansion (error-free transformations;
    /// each partial carries a disjoint range of the exact sum's bits).
    pub fn add(&mut self, mut x: f64) {
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Correctly rounded value of the exact sum.
    pub fn value(&self) -> f64 {
        // Sum from largest to smallest; once a nonzero residual appears the
        // remaining partials can only matter through the half-way (round-
        // to-even) correction below — the same finish `math.fsum` uses.
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// Correctly rounded sum of an iterator of `f64`s (order-independent; see
/// [`ExactSum`]).
pub fn fsum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = ExactSum::default();
    for v in values {
        acc.add(v);
    }
    acc.value()
}

/// Fixed-bucket log₂-scale histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: ExactSum,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: `floor(log2(v))` clamped to the fixed
    /// range, read straight from the exponent bits.
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (exp + EXP_OFFSET).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// Inclusive lower bound of bucket `i` (`2^(i-32)`).
    fn bucket_lower_bound(i: usize) -> f64 {
        let exp = i as i64 - EXP_OFFSET;
        f64::from_bits(((exp + 1023) as u64) << 52)
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum.add(v);
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
    }

    /// Immutable summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum.value(),
            min: if self.min.is_finite() { self.min } else { 0.0 },
            max: if self.max.is_finite() { self.max } else { 0.0 },
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (Self::bucket_lower_bound(i), *c))
                .collect(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`]: only non-empty buckets are
/// kept, each as `(inclusive lower bound, count)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations (including non-positive/non-finite ones).
    pub count: u64,
    /// Sum of all finite observations, correctly rounded (independent of
    /// observation order — see [`struct@Histogram`]'s exact accumulator).
    pub sum: f64,
    /// Smallest finite observation (0 when none).
    pub min: f64,
    /// Largest finite observation (0 when none).
    pub max: f64,
    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Lower bound of the bucket holding the `q`-quantile observation
    /// (0 when empty). Resolution is one log₂ bucket — a factor of two —
    /// which is enough for the order-of-magnitude wall-clock summaries the
    /// side-channel export publishes, and it is a pure function of the
    /// bucket counts, so it inherits their interleaving independence.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (lower, c) in &self.buckets {
            cumulative += c;
            if cumulative >= target {
                return *lower;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_matches_log2_floor() {
        assert_eq!(Histogram::bucket_of(1.0), 32);
        assert_eq!(Histogram::bucket_of(2.0), 33);
        assert_eq!(Histogram::bucket_of(3.9), 33);
        assert_eq!(Histogram::bucket_of(0.5), 31);
        assert_eq!(Histogram::bucket_of(0.25), 30);
        // Out-of-range and degenerate values clamp / fall into bucket 0.
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-1.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Histogram::bucket_of(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(1e-300), 0);
    }

    #[test]
    fn bucket_bounds_are_consistent_with_bucket_of() {
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(Histogram::bucket_of(lo * 1.999), i);
            assert_eq!(Histogram::bucket_of(lo * 2.0), i + 1);
        }
        assert_eq!(Histogram::bucket_lower_bound(32), 1.0);
    }

    #[test]
    fn observe_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(4.0);
        h.observe(0.25);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 5.25);
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean(), 1.75);
        assert_eq!(s.buckets, vec![(0.25, 1), (1.0, 1), (4.0, 1)]);
    }

    #[test]
    fn sum_is_exact_and_independent_of_observation_order() {
        // A cancellation pattern where naive left-to-right `+=` loses the
        // small addend entirely: fsum must recover exactly 2.0.
        let mut h = Histogram::default();
        for v in [1e100, 1.0, -1e100, 1.0] {
            h.observe(v);
        }
        assert_eq!(h.snapshot().sum, 2.0);

        // Any interleave of the same observations reads back bit-identical.
        let values = [0.1, 1e16, 0.7221326160372186, -1e16, 657.153271339666, 3.25e-9, 54.1];
        let mut fwd = Histogram::default();
        for v in values {
            fwd.observe(v);
        }
        let mut rev = Histogram::default();
        for v in values.iter().rev() {
            rev.observe(*v);
        }
        assert_eq!(fwd.snapshot().sum.to_bits(), rev.snapshot().sum.to_bits());
        // ...and differs from what naive accumulation would have produced
        // in at least one of the two orders, which is the point.
        let naive_fwd: f64 = values.iter().sum();
        let naive_rev: f64 = values.iter().rev().sum();
        assert_ne!(naive_fwd.to_bits(), naive_rev.to_bits());
    }

    #[test]
    fn non_finite_observations_are_counted_but_not_summed() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }
}
