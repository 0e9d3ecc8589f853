//! # dphpo — Deep-Potential HyperParameter Optimization
//!
//! A Rust reproduction of *"Multiobjective Hyperparameter Optimization for
//! Deep Learning Interatomic Potential Training Using NSGA-II"* (Coletti et
//! al., PDADS @ ICPP 2023), complete with every substrate the paper depends
//! on:
//!
//! * [`autograd`] — tensors + reverse-mode AD with double backward;
//! * [`evo`] — the evolutionary-algorithm library (NSGA-II, sorting,
//!   crowding, hypervolume, ZDT validation problems);
//! * [`md`] — the synthetic first-principles MD dataset substrate
//!   (molten-salt reference potential, Langevin dynamics);
//! * [`dnnp`] — the DeepPot-SE-style potential trainer (DeePMD substitute);
//! * [`hpc`] — the Summit/Dask-style distributed evaluation simulator;
//! * [`core`] — the paper's contribution: representation, decoder,
//!   evaluation workflow, experiment driver, and analysis.
//!
//! See README.md for the quickstart and DESIGN.md for the full system
//! inventory and experiment index.

pub use dphpo_autograd as autograd;
pub use dphpo_core as core;
pub use dphpo_dnnp as dnnp;
pub use dphpo_evo as evo;
pub use dphpo_hpc as hpc;
pub use dphpo_md as md;
