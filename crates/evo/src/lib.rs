//! # dphpo-evo
//!
//! An evolutionary-algorithm library providing everything the paper's
//! LEAP-based implementation used: pipeline reproduction operators
//! (selection, cloning, bounded Gaussian mutation), multi-objective
//! machinery (Pareto dominance, Deb's fast non-dominated sort, a rank-based
//! efficient sort, crowding distance, hypervolume), the MAXINT failure-
//! penalty convention, a generational NSGA-II driver with the paper's
//! per-generation mutation-σ annealing, and the steady-state (asynchronous)
//! insertion machinery in [`steady`] used by barrier-free campaigns.
//!
//! The library is deliberately general: [`problems`] ships ZDT
//! benchmarks so the optimizer can be validated independently of the DNNP
//! hyperparameter workload built on top of it in `dphpo-core`.
//!
//! ## Example: NSGA-II on ZDT1
//!
//! ```
//! use dphpo_evo::individual::Fitness;
//! use dphpo_evo::nsga2::{run_nsga2, EvalResult, Nsga2Config};
//! use dphpo_evo::problems::zdt1;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let problem = zdt1();
//! let config = Nsga2Config {
//!     pop_size: 16,
//!     generations: 5,
//!     init_ranges: problem.bounds(),
//!     bounds: problem.bounds(),
//!     std: vec![0.1; problem.dims()],
//!     anneal_factor: 0.85,
//! };
//! let mut evaluator = |genomes: &[Vec<f64>]| {
//!     genomes
//!         .iter()
//!         .map(|g| EvalResult::fitness(Fitness::new(problem.evaluate(g))))
//!         .collect::<Vec<_>>()
//! };
//! let mut rng = StdRng::seed_from_u64(0);
//! let result = run_nsga2(&config, &mut evaluator, &mut rng);
//! assert_eq!(result.history.len(), 6);
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod individual;
pub mod metrics;
pub mod mo;
pub mod nsga2;
pub mod ops;
pub mod problems;
pub mod steady;

pub use individual::{Fitness, Id, Individual, MAXINT};
pub use mo::{
    assign_rank_and_crowding, crowding_distance, fast_nondominated_sort, hypervolume_2d,
    pareto_front, rank_ordinal_sort, Fronts,
};
pub use archive::{ArchiveChurn, ParetoArchive};
pub use metrics::{
    front_stats_2d, hypervolume, zdt1_reference_front, zdt2_reference_front, FrontStats,
};
pub use nsga2::{
    run_nsga2, BatchEvaluator, EvalResult, GenerationRecord, Nsga2Config, Nsga2State, RunResult,
};
pub use steady::SteadyState;
