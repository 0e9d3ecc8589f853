//! # dphpo-hpc
//!
//! A distributed-evaluation simulator standing in for the paper's Summit +
//! Dask deployment (§2.2.5): a scheduler fans evaluation tasks out to one
//! worker per simulated compute node, enforces the 2-hour per-task timeout
//! against a calibrated *simulated* clock, injects worker deaths (hardware
//! faults), and — with Dask nannies disabled, as the paper recommends —
//! reassigns orphaned tasks to surviving workers.
//!
//! Worker deaths are the one fault this crate decides ([`FaultInjector`]);
//! the campaign driver's own death and the I/O faults of its journal and
//! status writers are `dphpo-core`'s.
//!
//! Evaluations genuinely run in parallel, on the threads of a [`Pool`] that
//! lives as long as the campaign; the *cluster* is simulated: which worker a
//! fault kills, nannies, quarantine, retry chains and the runtime accounting
//! (via [`cost::CostModel`], calibrated to the paper's "under 2 hours per
//! 40k-step training, ≈65× GPU-vs-CPU speedup" figures) are driver-side
//! bookkeeping, so a simulated worker death costs no real thread — and
//! `PoolConfig::n_workers` simulated workers need no more OS threads than the
//! machine has ([`physical_threads`]): 100 simulated Summit nodes schedule
//! the same on two cores as on a hundred.
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
//! One pool, two schedulers: [`with_pool`] opens the threads;
//! [`Pool::run_batch`] runs a generation's batch on them (deadlines, retry
//! chains, a write-ahead completion hook, telemetry),
//! and [`Pool::stream`] feeds a steady-state campaign through them — same
//! supervision and accounting, no generation barrier, tasks submitted the
//! moment they exist and taken when the simulated clock asks. [`run_batch`],
//! [`run_batch_supervised`] and [`run_stream_window`] are the one-shot
//! forms: the same code on a pool opened for the call. Both schedulers turn
//! an evaluation outcome into a task record through one shared
//! classification (timeouts charge the limit, structured faults map onto
//! [`TaskError`]) and space retries by one [`scheduler::backoff_minutes`],
//! so the two campaign modes cannot drift apart on what a failure is or
//! costs. The timeout, the backoff and the quarantine threshold are
//! constants of [`scheduler`]; [`PoolConfig`] holds the three values
//! campaigns set.
//!
//! A batch's simulated clock is one list schedule: [`Pool::run_batch`]
//! charges each terminal record, in task order, to the least-loaded slot,
//! and that schedule is the makespan, the utilization partition and — as
//! [`PoolReport::placements`] — the worker lane a trace draws each
//! evaluation on.

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod pool;
pub mod scheduler;
pub mod stream;

pub use cluster::{Allocation, NodeSpec};
pub use cost::{paper_job, CostModel, TrainingJob};
pub use pool::{physical_threads, with_pool, Pool};
pub use scheduler::{
    run_batch, run_batch_supervised, EvalFault, EvalOutcome, FaultInjector, PoolConfig,
    PoolReport, TaskCtx, TaskError, TaskRecord,
};
pub use stream::{run_stream_window, Stream, StreamSlots, StreamSlotsState, StreamTaskReport};
