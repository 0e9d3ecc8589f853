//! Telemetry overhead guard: what the recorder hook costs a training step.
//!
//! The contract the numbers guard: the **disabled** path (no-op recorder,
//! one `enabled()` branch per instrumentation site) must cost less than
//! 2% of a training step, and so must the **profiler-enabled** path (live
//! in-memory recorder plus the allocation metering and per-phase wall
//! twins the deterministic profiler consumes — see DESIGN.md §14). Either
//! budget breached fails the run with a non-zero exit.
//!
//! Two estimators, because they fail differently:
//!
//! * **micro** — the trainer's per-step instrumentation block timed in
//!   isolation, no-op vs live. Nanosecond-stable; `derived_*_overhead_pct`
//!   (block cost over the measured step cost) is the guarded number.
//! * **macro** — steady-state ns/step of whole training runs by
//!   subtraction, unobserved vs no-op vs live. Honest end-to-end, but on a
//!   shared machine its run-to-run jitter (several percent) swamps a
//!   sub-2% effect; it is recorded to catch gross regressions only.
//!
//! Writes `BENCH_obs.json` into the current directory — run from the repo
//! root to refresh the checked-in baseline. `--quick` trades stability for
//! runtime (CI-friendly).

use std::time::Instant;

use dphpo_autograd::Tape;
use dphpo_bench::harness::{ns_per_op, reference_config, reference_system, REFERENCE_RCUT};
use dphpo_dnnp::json::Json;
use dphpo_dnnp::supervise::Supervision;
use dphpo_dnnp::trainer::record_step;
use dphpo_dnnp::train_supervised;
use dphpo_md::Dataset;
use dphpo_obs::{MemoryRecorder, Recorder, SpanCtx, NOOP};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wall time of every thunk per interleaved round (`samples` rounds ×
/// `fns.len()` arms), one warm-up call each first. Interleaving puts slow
/// machine drift on every arm equally; the caller then pairs arms *within*
/// a round, so drift between rounds cancels out of the subtraction instead
/// of landing on it (taking each arm's best over *different* rounds is how
/// the baseline once recorded a negative no-op "cost").
fn time_rounds(samples: usize, fns: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    for f in fns.iter_mut() {
        f();
    }
    (0..samples)
        .map(|round| {
            // Alternate the arm order every round (boustrophedon) so any
            // drift *within* a round biases each arm in both directions
            // equally across the sample set.
            let n = fns.len();
            let mut times = vec![0.0; n];
            let order: Vec<usize> =
                if round % 2 == 0 { (0..n).collect() } else { (0..n).rev().collect() };
            for i in order {
                let t = Instant::now();
                fns[i]();
                times[i] = t.elapsed().as_secs_f64();
            }
            times
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    dphpo_bench::history::median(&xs)
}

fn run_training(steps: usize, train_ds: &Dataset, val_ds: &Dataset, recorder: Option<&dyn Recorder>) {
    let sup = Supervision { recorder, span: SpanCtx::root(7, 0), ..Supervision::none() };
    let mut rng = StdRng::seed_from_u64(7);
    let config = reference_config(REFERENCE_RCUT, steps);
    let _ = train_supervised(&config, train_ds, val_ds, &mut rng, &sup).unwrap();
}

/// What a training step pays for its recorder hook: the `obs()` resolution,
/// the allocation-metering arm and the wall-twin timers as `train_step`
/// takes them, then the trainer's own [`record_step`]. With the no-op
/// recorder the block folds to the `enabled()` branches — the disabled path
/// whose cost the 2% target bounds. The live arm is the profiler-enabled
/// path, which carries everything the deterministic profiler consumes and
/// the same 2% target.
fn step_block(sup: &Supervision<'_>, tape: &Tape, step: usize, loss: f64) {
    let obs = sup.obs();
    let timer = || obs.map(|_| Instant::now());
    let elapsed_ns = |t0: Option<Instant>| t0.map(|t0| t0.elapsed().as_nanos() as f64);
    let t0 = timer();
    if obs.is_some() && !tape.alloc_metering() {
        tape.set_alloc_metering(true);
    }
    // The graph phase reuses the step timer; backward and optimizer get
    // their own.
    let walls = [elapsed_ns(t0), elapsed_ns(timer()), elapsed_ns(timer())];
    if let Some(rec) = obs {
        record_step(rec, sup, tape, step, [loss, 0.001, 3.2], 1000, (t0, walls));
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The subtraction estimator amplifies jitter (it differences two ~K-step
    // wall times), so the full run uses more samples and a longer window
    // than the hotpath baseline does, on top of the interleaved sampling.
    let (samples, k_steps) = if quick { (2, 20) } else { (16, 200) };
    let (train_ds, val_ds) = reference_system();
    let (train_ds, val_ds) = (&train_ds, &val_ds);
    let memory = MemoryRecorder::new();
    let recorders: [Option<&dyn Recorder>; 3] = [None, Some(&NOOP), Some(&memory)];

    // Steady-state ns/step by subtraction: t(2K) − t(K) spans exactly K
    // warm steps, cancelling model setup and descriptor-cache building.
    // All six (recorder × length) arms are sampled in ONE interleaved pass
    // and the subtraction pairs the K- and 2K-step times of the *same*
    // round (median across rounds), so drift between rounds cancels.
    println!(
        "timing {k_steps}- and {}-step runs (unobserved / no-op / MemoryRecorder), \
         interleaved...",
        2 * k_steps
    );
    let mut arms: Vec<Box<dyn FnMut()>> = [k_steps, 2 * k_steps]
        .iter()
        .flat_map(|&steps| {
            recorders.iter().map(move |&rec| {
                Box::new(move || run_training(steps, train_ds, val_ds, rec)) as Box<dyn FnMut()>
            })
        })
        .collect();
    let mut refs: Vec<&mut dyn FnMut()> = arms.iter_mut().map(|b| b.as_mut() as _).collect();
    let rounds = time_rounds(samples, &mut refs);
    drop(arms);

    let n_arms = recorders.len();
    let per_round_diffs =
        |i: usize| rounds.iter().map(|r| r[n_arms + i] - r[i]).collect::<Vec<f64>>();
    let per_step = |i: usize| (median(per_round_diffs(i)).max(0.0) / k_steps as f64) * 1e9;
    let (baseline_ns, noop_ns, memory_ns) = (per_step(0), per_step(1), per_step(2));
    // Honest noise bar for the macro estimator: the median absolute
    // deviation of the baseline arm's per-round differences, as a percent
    // of their median (MAD matches the median estimator and shrugs off the
    // occasional garbage round a range-based bar would amplify). Macro
    // overheads smaller than this are indistinguishable from jitter.
    let base_diffs = per_round_diffs(0);
    let mid = median(base_diffs.clone());
    let mad = median(base_diffs.iter().map(|d| (d - mid).abs()).collect());
    let macro_jitter_pct = mad / mid.max(f64::MIN_POSITIVE) * 100.0;

    println!("timing the per-step instrumentation block in isolation...");
    let (micro_samples, micro_reps) = if quick { (3, 10_000) } else { (7, 200_000) };
    let sup_noop = Supervision { recorder: Some(&NOOP), span: SpanCtx::root(7, 0), ..Supervision::none() };
    let micro_recorder = MemoryRecorder::new();
    let sup_live = Supervision {
        recorder: Some(&micro_recorder),
        span: SpanCtx::root(7, 0),
        ..Supervision::none()
    };
    // Separate tapes per arm: the live arm flips metering on (as the
    // trainer does), the no-op arm must keep the unmetered fast path.
    let tape_noop = Tape::new();
    let tape_live = Tape::new();
    let mut step = 0usize;
    let noop_block_ns = ns_per_op(micro_samples, micro_reps, || {
        step = step.wrapping_add(1);
        step_block(std::hint::black_box(&sup_noop), &tape_noop, step, std::hint::black_box(0.37));
    });
    // Bound the live recorder's buffer: time against a recorder that is
    // drained (recreated) per batch would hide reallocation, so instead the
    // block appends to one recorder and the batch is sized to keep memory
    // modest while still amortizing warm-up.
    let live_reps = micro_reps.min(50_000);
    let memory_block_ns = ns_per_op(micro_samples, live_reps, || {
        step = step.wrapping_add(1);
        step_block(std::hint::black_box(&sup_live), &tape_live, step, std::hint::black_box(0.37));
    });

    let macro_pct = |ns: f64| (ns - baseline_ns) / baseline_ns * 100.0;
    let derived_pct = |block_ns: f64| block_ns / baseline_ns * 100.0;
    let derived_noop_pct = derived_pct(noop_block_ns);
    let derived_memory_pct = derived_pct(memory_block_ns);

    let doc = Json::object(vec![
        ("schema", Json::String("dphpo-obs-v3".into())),
        ("quick", Json::Bool(quick)),
        ("steps_measured", Json::Number(k_steps as f64)),
        ("baseline_ns_per_step", Json::Number(baseline_ns)),
        ("macro_noop_ns_per_step", Json::Number(noop_ns)),
        ("macro_memory_ns_per_step", Json::Number(memory_ns)),
        ("macro_noop_overhead_pct", Json::Number(macro_pct(noop_ns))),
        ("macro_memory_overhead_pct", Json::Number(macro_pct(memory_ns))),
        ("macro_jitter_pct", Json::Number(macro_jitter_pct)),
        ("noop_block_ns_per_step", Json::Number(noop_block_ns)),
        ("memory_block_ns_per_step", Json::Number(memory_block_ns)),
        ("derived_noop_overhead_pct", Json::Number(derived_noop_pct)),
        ("derived_memory_overhead_pct", Json::Number(derived_memory_pct)),
        ("target_noop_overhead_pct", Json::Number(2.0)),
        ("target_profiler_overhead_pct", Json::Number(2.0)),
    ]);
    let path = "BENCH_obs.json";
    std::fs::write(path, format!("{doc}\n")).expect("write baseline");
    println!("wrote {path}");
    println!(
        "macro (paired subtraction; gross-regression guard only, jitter ±{macro_jitter_pct:.2}%):"
    );
    println!("  unobserved:     {:.1} µs/step", baseline_ns / 1e3);
    println!("  no-op recorder: {:.1} µs/step ({:+.2}%)", noop_ns / 1e3, macro_pct(noop_ns));
    println!("  MemoryRecorder: {:.1} µs/step ({:+.2}%)", memory_ns / 1e3, macro_pct(memory_ns));
    println!("micro (per-step instrumentation block; the guarded numbers):");
    println!("  no-op block:    {noop_block_ns:.1} ns/step = {derived_noop_pct:.4}% of a step");
    println!(
        "  profiler block: {memory_block_ns:.1} ns/step = {derived_memory_pct:.4}% of a step"
    );
    let mut failed = false;
    if derived_noop_pct >= 2.0 {
        println!("FAIL: disabled-telemetry overhead {derived_noop_pct:.3}% exceeds the 2% target");
        failed = true;
    }
    if derived_memory_pct >= 2.0 {
        println!(
            "FAIL: profiler-enabled overhead {derived_memory_pct:.3}% exceeds the 2% target"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
