//! # dphpo-hpc
//!
//! A distributed-evaluation simulator standing in for the paper's Summit +
//! Dask deployment (§2.2.5): a scheduler fans evaluation tasks out to one
//! worker per simulated compute node, enforces the 2-hour per-task timeout
//! against a calibrated *simulated* clock, injects worker deaths (hardware
//! faults), and — with Dask nannies disabled, as the paper recommends —
//! reassigns orphaned tasks to surviving workers.
//!
//! Workers are real threads, so evaluations genuinely run in parallel; only
//! the *runtime accounting* is simulated (via [`cost::CostModel`],
//! calibrated to the paper's "under 2 hours per 40k-step training, ≈65×
//! GPU-vs-CPU speedup" figures).
//!
//! ```
//! use dphpo_hpc::scheduler::{run_batch, EvalOutcome, FaultInjector, PoolConfig};
//!
//! let inputs = vec![1u64, 2, 3];
//! let (records, report) = run_batch(
//!     &inputs,
//!     |_, &x| EvalOutcome { value: Ok(x * x), minutes: 70.0 },
//!     &PoolConfig { n_workers: 3, ..PoolConfig::default() },
//!     &FaultInjector::none(),
//! );
//! assert_eq!(*records[2].value.as_ref().unwrap(), 9);
//! assert_eq!(report.makespan_minutes, 70.0);
//! ```
//!
//! One entry per job: [`run_batch`] is the plain pool above;
//! [`run_batch_supervised`] adds cancel tokens, deadlines, straggler twins
//! and a write-ahead completion hook (with [`run_batch_observed`] as its
//! telemetry-carrying form); steady-state campaigns use
//! [`run_stream_window`] from [`stream`] instead — same supervision and
//! accounting, no generation barrier. Both schedulers turn an evaluation
//! outcome into a task record through one shared classification (timeouts
//! charge the limit, structured faults map onto [`TaskError`]), so the two
//! campaign modes cannot drift apart on what a failure is.

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod faultplan;
pub mod scheduler;
pub mod stream;
pub mod trace;

pub use cluster::{Allocation, NodeSpec};
pub use cost::{paper_job, CostModel, TrainingJob};
pub use faultplan::{
    FaultPlan, IoFault, IoSite, JOURNAL_APPEND_SITE, STATUS_FSYNC_SITE,
};
pub use scheduler::{
    run_batch, run_batch_observed, run_batch_supervised, CancelToken,
    EvalFault, EvalOutcome, FaultInjector, PoolConfig, PoolReport, SupervisorConfig, TaskCtx,
    TaskError, TaskRecord, SPECULATIVE_ATTEMPT,
};
pub use stream::{run_stream_window, StreamSlots, StreamSlotsState, StreamTaskReport};
pub use trace::{Span, Timeline};
