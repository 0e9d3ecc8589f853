//! # dphpo-dnnp
//!
//! A deep neural network interatomic potential (DNNP) trainer — the
//! substitute for DeePMD-kit v2.1.4 in this reproduction.
//!
//! The model is the radial (`se_e2_r`) flavour of DeepPot-SE: a smooth
//! switching function `s(r; rcut_smth, rcut)` feeds per-neighbor-species
//! embedding networks whose outputs are pooled per atom into a descriptor,
//! a fitting network maps descriptors to per-atom energies, the total
//! energy is their sum, and forces are the exact analytic gradient
//! `F = −∂E/∂x` obtained through `dphpo-autograd`. Training minimises
//! DeePMD's prefactor-weighted energy+force loss (force-dominated early,
//! energy-weighted late) under an exponentially decaying learning rate with
//! optional by-worker scaling, using Adam and simulated 6-way synchronous
//! data parallelism.
//!
//! Artifacts mirror the paper's workflow: configuration round-trips through
//! a DeePMD-shaped `input.json` ([`config::TrainConfig`], [`json::Json`])
//! and training emits an `lcurve.out`-style learning curve
//! ([`lcurve::Lcurve`]) whose last `rmse_e_val`/`rmse_f_val` row is the EA's
//! two-objective fitness.

pub mod activation;
pub mod config;
pub mod deploy;
pub mod descriptor;
pub mod lcurve;
pub mod loss;
pub mod lr;
pub mod model;
pub mod supervise;
pub mod trainer;

pub use activation::Activation;
pub use config::{LrScaling, TrainConfig};
pub use descriptor::{
    switching_scalar, switching_scalar_deriv, DescriptorStats, FrameCache, FramePairs,
};
pub use dphpo_obs::json;
pub use json::Json;
pub use lcurve::{Lcurve, LcurveRow};
pub use model::{forward_cached, forward_frame, DnnpModel};
pub use deploy::{model_nve_step, trajectory_divergence, DeployedState};
pub use supervise::{AbortReason, Sentinel, Supervision};
pub use trainer::{
    step_budget, train, train_supervised, Adam, PhaseBudget, StepBudget, TrainReport, TrainRun,
    DIVERGENCE_LOSS_LIMIT,
};
