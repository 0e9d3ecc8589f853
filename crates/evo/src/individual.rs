//! Individuals, genomes, and multi-objective fitness values.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel fitness value assigned to failed evaluations.
///
/// The paper assigns `MAXINT` to both objectives whenever training fails
/// (timeout, divergence, node failure) instead of `NaN`, because NSGA-II
/// sorts fitnesses and sorting `NaN`s is undefined behaviour in Python and
/// an ordering headache everywhere else. We mirror that: a large, finite,
/// totally ordered penalty.
pub const MAXINT: f64 = i64::MAX as f64;

/// A multi-objective fitness vector; **all objectives are minimised**.
#[derive(Clone, Debug, PartialEq)]
pub struct Fitness {
    objectives: Vec<f64>,
}

impl Fitness {
    /// Wrap raw objective values. Panics on NaN — use [`Fitness::penalty`]
    /// for failed evaluations instead.
    pub fn new(objectives: Vec<f64>) -> Self {
        assert!(
            objectives.iter().all(|v| !v.is_nan()),
            "NaN objective; use Fitness::penalty for failed evaluations"
        );
        Fitness { objectives }
    }

    /// The paper's MAXINT penalty fitness for `n` objectives.
    pub fn penalty(n: usize) -> Self {
        Fitness { objectives: vec![MAXINT; n] }
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// True when there are no objectives (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Objective values.
    pub fn values(&self) -> &[f64] {
        &self.objectives
    }

    /// A single objective value.
    pub fn get(&self, m: usize) -> f64 {
        self.objectives[m]
    }

    /// True if this fitness carries the failure penalty.
    pub fn is_penalty(&self) -> bool {
        self.objectives.iter().all(|&v| v >= MAXINT)
    }

    /// Pareto dominance under minimisation: `self` dominates `other` iff it
    /// is no worse in every objective and strictly better in at least one.
    pub fn dominates(&self, other: &Fitness) -> bool {
        assert_eq!(self.len(), other.len(), "objective count mismatch");
        let mut strictly_better = false;
        for (a, b) in self.objectives.iter().zip(other.objectives.iter()) {
            if a > b {
                return false;
            }
            if a < b {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

impl fmt::Display for Fitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.objectives.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *v >= MAXINT {
                write!(f, "MAXINT")?;
            } else {
                write!(f, "{v:.6}")?;
            }
        }
        write!(f, ")")
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A unique individual identifier, used (as in the paper) to key the
/// per-evaluation working directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(u64);

impl Id {
    /// Allocate a fresh process-unique id.
    pub fn fresh() -> Self {
        Id(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw counter value.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw value — used when restoring individuals
    /// from a journal.
    pub fn from_raw(raw: u64) -> Self {
        Id(raw)
    }
}

impl fmt::Display for Id {
    /// UUID-flavoured rendering so run directories look like the paper's.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (v >> 32) as u32,
            (v >> 16) as u16,
            v as u16,
            (v.rotate_left(17) & 0xffff) as u16,
            v.wrapping_mul(0x9e37_79b9_7f4a_7c15) & 0xffff_ffff_ffff
        )
    }
}

/// One member of a population: a real-valued genome plus evaluation state.
#[derive(Clone, Debug)]
pub struct Individual {
    /// Process-unique identity (new identity per clone-and-mutate offspring).
    pub id: Id,
    /// Real-valued genome (the paper's seven-element vector, or anything else).
    pub genome: Vec<f64>,
    /// Fitness, if evaluated.
    pub fitness: Option<Fitness>,
    /// Non-domination rank (0 = best front), set by the sorting pass.
    pub rank: usize,
    /// Crowding distance within its front.
    pub distance: f64,
    /// Auxiliary evaluation metadata (e.g. simulated runtime minutes).
    pub eval_minutes: Option<f64>,
}

impl Individual {
    /// A fresh, unevaluated individual around `genome`.
    pub fn new(genome: Vec<f64>) -> Self {
        Individual {
            id: Id::fresh(),
            genome,
            fitness: None,
            rank: usize::MAX,
            distance: 0.0,
            eval_minutes: None,
        }
    }

    /// Clone the genome into a fresh individual with a new identity and no
    /// fitness — the pipeline `clone` operator of Listing 1.
    pub fn clone_as_offspring(&self) -> Self {
        Individual::new(self.genome.clone())
    }

    /// The fitness; panics if the individual was never evaluated.
    pub fn fitness(&self) -> &Fitness {
        self.fitness.as_ref().expect("individual not evaluated")
    }

    /// True if evaluated and carrying the MAXINT penalty.
    pub fn is_failed(&self) -> bool {
        self.fitness.as_ref().is_some_and(|f| f.is_penalty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_minimisation_semantics() {
        let a = Fitness::new(vec![1.0, 2.0]);
        let b = Fitness::new(vec![2.0, 3.0]);
        let c = Fitness::new(vec![0.5, 4.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn equal_fitness_does_not_dominate() {
        let a = Fitness::new(vec![1.0, 2.0]);
        assert!(!a.dominates(&a.clone()));
    }

    #[test]
    fn weak_improvement_dominates() {
        let a = Fitness::new(vec![1.0, 2.0]);
        let b = Fitness::new(vec![1.0, 2.5]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn penalty_is_dominated_by_everything_finite() {
        let p = Fitness::penalty(2);
        let a = Fitness::new(vec![1.0, 1.0]);
        assert!(p.is_penalty());
        assert!(!a.is_penalty());
        assert!(a.dominates(&p));
        assert!(!p.dominates(&a));
        // Two penalties are mutually non-dominating — they sort together.
        assert!(!p.dominates(&Fitness::penalty(2)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Fitness::new(vec![f64::NAN, 1.0]);
    }

    #[test]
    fn ids_are_unique_and_display_like_uuids() {
        let a = Id::fresh();
        let b = Id::fresh();
        assert_ne!(a, b);
        let s = a.to_string();
        assert_eq!(s.split('-').count(), 5);
        assert_eq!(s.len(), 36);
    }

    #[test]
    fn clone_as_offspring_resets_state() {
        let mut parent = Individual::new(vec![1.0, 2.0]);
        parent.fitness = Some(Fitness::new(vec![0.1, 0.2]));
        parent.rank = 0;
        parent.distance = 1.5;
        let child = parent.clone_as_offspring();
        assert_eq!(child.genome, parent.genome);
        assert_ne!(child.id, parent.id);
        assert!(child.fitness.is_none());
        assert_eq!(child.rank, usize::MAX);
    }
}
