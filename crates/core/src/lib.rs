//! # dphpo-core
//!
//! The paper's contribution: multiobjective hyperparameter optimization of
//! deep-learning interatomic potential training with NSGA-II, deployed on a
//! (simulated) Summit allocation.
//!
//! * [`representation`] — the seven-gene real-valued genome of Table 1.
//! * [`mod@decode`] — the `floor(gene) % n` categorical decoder of §2.2.2.
//! * [`template`] — `string.Template`-style `input.json` substitution.
//! * [`workflow`] — the §2.2.4 per-individual evaluation: decode → run dir
//!   → input.json → train → read `lcurve.out` → two-element fitness, with
//!   MAXINT on every failure path.
//! * [`ea`] — the NSGA-II deployment over the `dphpo-hpc` worker pool.
//! * [`experiment`] — five independent runs over a shared dataset, started
//!   through [`Campaign`] (the only entry point) in either campaign mode:
//!   the paper's generational barrier or the asynchronous steady-state
//!   loop in [`mod@steady`] (DESIGN.md §12).
//! * [`chaos`] — the driver's own death ([`Campaign::kill_after`]) and the
//!   I/O fault plan of its durable writers; worker deaths are
//!   `dphpo-hpc`'s.
//! * [`analysis`] — Pareto frontier, chemical-accuracy filtering, and the
//!   exports behind every figure and table of the evaluation section.
//!
//! ```no_run
//! use dphpo_core::analysis::analyze;
//! use dphpo_core::experiment::{Campaign, ExperimentConfig};
//!
//! let result = Campaign::new(&ExperimentConfig::reduced()).run(None).unwrap();
//! let analysis = analyze(&result);
//! for (force, energy) in analysis.table2() {
//!     println!("frontier solution: {force:.4} eV/Å, {energy:.4} eV/atom");
//! }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod campaign_report;
pub mod chaos;
pub mod decode;
pub mod ea;
pub mod journal;
pub mod experiment;
pub mod profile;
pub mod representation;
pub mod steady;
pub mod template;
pub mod workflow;

pub use analysis::{analyze, analyze_with_thresholds, Analysis, SolutionRecord, CHEM_ACC_ENERGY, CHEM_ACC_FORCE};
pub use campaign_report::{
    counter_trace_json, markdown_report, status_json, CampaignStatus, GenStatus, RunStatus,
    REFERENCE_POINT,
};
pub use decode::{decode, DecodedGenome};
pub use experiment::{
    Campaign, CampaignMode, ExperimentConfig, ExperimentError, ExperimentResult,
};
pub use journal::{
    compact, crc32, frame_line, parse_frame, salvage, verify, CompactReport, EpochEntry, Journal,
    JournalError, JournalWriter, SalvageReport, SnapshotEntry, VerifyReport,
};
pub use representation::DeepMDRepresentation;
pub use workflow::{
    evaluate_individual, evaluate_individual_observed, EvalContext, EvalRecord,
};
