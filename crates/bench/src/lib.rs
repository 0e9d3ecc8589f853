//! # dphpo-bench
//!
//! Benchmark and reproduction harness: one binary per paper artifact
//! (Table 1–3, Fig. 1–3, the speedup and sort-speedup claims) plus the
//! tracked micro baselines — `hotpath` (training step, kernels, journal read
//! side) and `obs_overhead` (the recorder hook) — that `perf_report` diffs
//! against `BENCH_history.jsonl`. See DESIGN.md §4 for the experiment index.

pub mod harness;
pub mod history;
