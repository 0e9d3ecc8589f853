//! Deterministic telemetry for the DP-HPO reproduction.
//!
//! This crate is a leaf: it depends on nothing and every other layer
//! (`dphpo-dnnp`, `dphpo-hpc`, `dphpo-core`, `dphpo-bench`) can depend on it.
//! Its job is to let the trainer, scheduler, EA loop, and journal emit spans,
//! events, and metrics **without perturbing any campaign artifact**:
//!
//! * Span ids are pure functions of `(seed, gen, task, attempt, step)` —
//!   see [`SpanCtx::span_id`] — so two runs of the same campaign emit the
//!   same ids regardless of thread interleaving.
//! * Timestamps live on the *simulated* clock (cost-model minutes), the same
//!   clock the scheduler charges makespan in. Wall-clock readings are an
//!   optional side channel ([`MemoryRecorder::with_wall_clock`]) that never
//!   enters the deterministic exports.
//! * The default recorder is [`NoopRecorder`]: `enabled()` is `false` and
//!   every hook is an empty default method, so the disabled hot path costs
//!   one branch.
//!
//! Exporters: [`chrome::trace_json`] produces Chrome `trace_event` JSON
//! loadable in Perfetto, and [`export::events_jsonl`] a
//! line oriented event/metric log. Both write their numbers and strings
//! through [`json`], the repository's one JSON codec, which lives here
//! because this crate is the leaf every other layer depends on. Tables,
//! counter tracks and the [`profile`] attribution tree are not built from
//! the event stream: a resumed campaign never re-emits the events of its
//! replayed generations, so those are rendered from the journal-derived
//! status rows instead (`dphpo_core::campaign_report`).

#![warn(missing_docs)]

pub mod chrome;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;

pub use metrics::{GaugeValue, Histogram, HistogramSnapshot};
pub use recorder::{
    splitmix64, Event, MemoryRecorder, NoopRecorder, Recorder, SpanCtx, TelemetrySnapshot, When,
    NOOP, NO_TASK,
};

/// Canonical event, counter, gauge, and histogram names.
///
/// Instrumentation sites across the workspace use these constants so the
/// exporters never drift out of sync with the producers.
/// Names prefixed `side.` are **non-deterministic side channels** (wall
/// clock readings, racy scheduler state) and are excluded from the
/// deterministic exports; see `DESIGN.md` §9.
pub mod names {
    /// Span covering one EA generation (emitted by the evaluator driver).
    pub const GENERATION: &str = "generation";
    /// Span covering one evaluation task on its worker lane.
    pub const EVAL: &str = "eval";
    /// Span covering one optimiser step inside an evaluation.
    pub const TRAIN_STEP: &str = "train.step";
    /// Instant: training aborted (diverged / deadline / cancelled).
    pub const TRAIN_ABORT: &str = "train.abort";
    /// Instant: one learning-curve row (streamed at display frequency).
    pub const LCURVE_ROW: &str = "lcurve.row";
    /// Instant (side channel): a record was appended to the write-ahead
    /// journal, with its byte offset. The offset is a physical file
    /// position decided by completion *arrival* order — a thread race the
    /// journal is explicitly tolerant of — so like wall time it rides the
    /// side channel and stays out of the deterministic exports.
    pub const JOURNAL_APPEND: &str = "side.journal.append";
    /// Instant: a batch of tasks was submitted to the worker pool.
    pub const SCHED_SUBMIT: &str = "sched.submit";
    /// Instant: a simulated worker death consumed an attempt.
    pub const SCHED_DEATH: &str = "sched.death";
    /// Instant: retry backoff charged before re-queueing a task.
    pub const SCHED_BACKOFF: &str = "sched.backoff";
    /// Instant: per-generation Pareto-front quality summary (hypervolume,
    /// cardinality, spread, archive churn) emitted at the generation
    /// boundary after the archive absorbs the population.
    pub const FRONT: &str = "ea.front";

    /// Counter: optimiser steps completed.
    pub const C_STEPS: &str = "train.steps";
    /// Counter: training aborts.
    pub const C_ABORTS: &str = "train.aborts";
    /// Counter: simulated worker deaths.
    pub const C_DEATHS: &str = "sched.deaths";
    /// Counter: task retries after a death.
    pub const C_RETRIES: &str = "sched.retries";
    /// Counter: EA generations evaluated.
    pub const C_GENERATIONS: &str = "ea.generations";
    /// Counter: journal records appended.
    pub const C_JOURNAL_APPENDS: &str = "journal.appends";
    /// Counter: individuals admitted to the Pareto archive.
    pub const C_ARCHIVE_ADDED: &str = "ea.archive_added";
    /// Counter: archive members evicted by newly admitted individuals.
    pub const C_ARCHIVE_EVICTED: &str = "ea.archive_evicted";
    /// Counter: tape-arena buffer leases served from the recycle pool.
    pub const C_TAPE_POOL_HITS: &str = "tape.pool_hits";
    /// Counter: tape-arena buffer leases that had to allocate fresh.
    pub const C_TAPE_POOL_MISSES: &str = "tape.pool_misses";
    /// Counter: total tape-arena buffer leases (hits + misses).
    pub const C_TAPE_LEASES: &str = "tape.leases";

    /// Gauge: tasks queued at batch submission (last + high-water).
    pub const G_QUEUE_DEPTH: &str = "sched.queue_depth";
    /// Gauge: `Tape` arena node count per step (high-water tracks peak).
    pub const G_TAPE_NODES: &str = "tape.nodes";
    /// Gauge: `Tape` pooled buffer count after reset (high-water tracks peak).
    pub const G_TAPE_POOLED: &str = "tape.pooled_buffers";
    /// Gauge (side channel): workers quarantined — not journaled, so kept
    /// out of the deterministic exports a resumed campaign must reproduce.
    pub const G_QUARANTINED: &str = "side.quarantined_workers";
    /// Gauge: archive hypervolume against the campaign reference point,
    /// refreshed at each generation boundary (high-water tracks the best).
    pub const G_HYPERVOLUME: &str = "ea.hypervolume";
    /// Gauge: Pareto-archive cardinality at the generation boundary.
    pub const G_ARCHIVE_SIZE: &str = "ea.archive_size";
    /// Gauge: front spread (gap-uniformity) at the generation boundary.
    pub const G_FRONT_SPREAD: &str = "ea.front_spread";
    /// Gauge: busy share of the batch's worker-minutes capacity, percent
    /// (`Σ busy / (wall × workers)`), refreshed per evaluated batch.
    pub const G_UTIL_BUSY_PCT: &str = "sched.util_busy_pct";
    /// Gauge: high-water of bytes leased out of the tape arena at once
    /// (pool hits and fresh allocations alike; high-water tracks peak).
    pub const G_TAPE_LEASED_HW: &str = "tape.leased_bytes_hw";
    /// Gauge: bytes of capacity retained in the tape's recycle pool.
    pub const G_TAPE_RETAINED: &str = "tape.retained_bytes";

    /// Histogram: training loss per step.
    pub const H_LOSS: &str = "train.loss";
    /// Histogram: learning rate per step.
    pub const H_LR: &str = "train.lr";
    /// Histogram: global gradient L2 norm per step.
    pub const H_GRAD_NORM: &str = "train.grad_norm";
    /// Histogram: charged minutes per evaluation.
    pub const H_EVAL_MINUTES: &str = "eval.minutes";
    /// Histogram: backoff minutes charged per retry.
    pub const H_BACKOFF_MIN: &str = "sched.backoff_min";
    /// Histogram (side channel): wall nanoseconds per optimiser step.
    pub const H_STEP_WALL_NS: &str = "side.step_wall_ns";
    /// Histogram (side channel): wall nanoseconds of the graph phase of a
    /// step (descriptor + forward + force + loss tape construction).
    pub const H_PHASE_GRAPH_WALL_NS: &str = "side.phase.graph_wall_ns";
    /// Histogram (side channel): wall nanoseconds of the value-level
    /// backward sweep per step.
    pub const H_PHASE_BACKWARD_WALL_NS: &str = "side.phase.backward_wall_ns";
    /// Histogram (side channel): wall nanoseconds of the in-place Adam
    /// update per step.
    pub const H_PHASE_OPTIMIZER_WALL_NS: &str = "side.phase.optimizer_wall_ns";
    /// Histogram (side channel): wall nanoseconds of the validation RMSE
    /// pass (its own persistent tape, forward + force only).
    pub const H_PHASE_VAL_WALL_NS: &str = "side.phase.val_wall_ns";

    /// Prefix marking a metric or event as a non-deterministic side channel.
    pub const SIDE_PREFIX: &str = "side.";
}

/// Event categories used by the in-tree instrumentation.
pub mod cats {
    /// Evolutionary-algorithm driver events.
    pub const EA: &str = "ea";
    /// Worker-pool scheduler events.
    pub const SCHED: &str = "sched";
    /// Training-loop events.
    pub const TRAIN: &str = "train";
    /// Learning-curve streaming events.
    pub const LCURVE: &str = "lcurve";
    /// Write-ahead journal events.
    pub const JOURNAL: &str = "journal";
}
