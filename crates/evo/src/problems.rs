//! Classic multi-objective benchmark problems (ZDT) used to validate the
//! NSGA-II implementation independently of the DNNP workload.

/// A real-valued vector optimisation problem (all objectives minimised).
pub struct Problem {
    name: &'static str,
    dims: usize,
    objectives: usize,
    bounds: Vec<(f64, f64)>,
    eval: fn(&[f64]) -> Vec<f64>,
}

impl Problem {
    /// Problem name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Decision-space dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of objectives.
    pub fn objectives(&self) -> usize {
        self.objectives
    }

    /// Per-variable bounds.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    /// Evaluate the objective vector at `x`.
    pub fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dims, "{}: wrong dimensionality", self.name);
        (self.eval)(x)
    }
}

fn zdt_g(x: &[f64]) -> f64 {
    let tail = &x[1..];
    1.0 + 9.0 * tail.iter().sum::<f64>() / tail.len() as f64
}

fn zdt1_eval(x: &[f64]) -> Vec<f64> {
    let f1 = x[0];
    let g = zdt_g(x);
    vec![f1, g * (1.0 - (f1 / g).sqrt())]
}

fn zdt2_eval(x: &[f64]) -> Vec<f64> {
    let f1 = x[0];
    let g = zdt_g(x);
    vec![f1, g * (1.0 - (f1 / g) * (f1 / g))]
}

fn zdt3_eval(x: &[f64]) -> Vec<f64> {
    let f1 = x[0];
    let g = zdt_g(x);
    let ratio = f1 / g;
    vec![
        f1,
        g * (1.0 - ratio.sqrt() - ratio * (10.0 * std::f64::consts::PI * f1).sin()),
    ]
}

/// ZDT1: convex Pareto front `f2 = 1 - √f1` at `g = 1`.
pub fn zdt1() -> Problem {
    Problem { name: "ZDT1", dims: 30, objectives: 2, bounds: vec![(0.0, 1.0); 30], eval: zdt1_eval }
}

/// ZDT2: concave Pareto front `f2 = 1 - f1²` at `g = 1`.
pub fn zdt2() -> Problem {
    Problem { name: "ZDT2", dims: 30, objectives: 2, bounds: vec![(0.0, 1.0); 30], eval: zdt2_eval }
}

/// ZDT3: disconnected Pareto front.
pub fn zdt3() -> Problem {
    Problem { name: "ZDT3", dims: 30, objectives: 2, bounds: vec![(0.0, 1.0); 30], eval: zdt3_eval }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zdt1_known_values() {
        let p = zdt1();
        // On the Pareto front (tail all zero): g = 1, f2 = 1 - √f1.
        let mut x = vec![0.0; 30];
        x[0] = 0.25;
        let f = p.evaluate(&x);
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert!((f[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zdt2_front_is_concave() {
        let p = zdt2();
        let mut x = vec![0.0; 30];
        x[0] = 0.5;
        let f = p.evaluate(&x);
        assert!((f[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zdt3_oscillates() {
        let p = zdt3();
        let mut x = vec![0.0; 30];
        x[0] = 0.1;
        let a = p.evaluate(&x)[1];
        x[0] = 0.2;
        let b = p.evaluate(&x)[1];
        // The sine term makes the front non-monotonic in places; just check
        // finite, sensible output.
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn zdt_off_front_dominated_by_on_front() {
        let p = zdt1();
        let mut on = vec![0.0; 30];
        on[0] = 0.5;
        let mut off = vec![0.3; 30];
        off[0] = 0.5;
        let f_on = p.evaluate(&on);
        let f_off = p.evaluate(&off);
        assert!(f_on[1] < f_off[1], "tail variables must worsen f2");
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dims_panics() {
        zdt1().evaluate(&[0.0; 3]);
    }
}
