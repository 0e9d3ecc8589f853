//! Regenerates **Figure 1**: energy-vs-force loss level plots per
//! generation over the five independent EA runs, plus the §3.1/§3.2
//! accounting (total trainings, failures per generation, grid-search
//! comparison).
//!
//! This is the binary that *runs the experiment*. Pass `--smoke` for a fast
//! test-scale run.
//!
//! Every campaign is journaled to `results/experiment.journal.jsonl`
//! (write-ahead, one JSONL record per completed evaluation or generation) —
//! the campaign's one persisted form, which `fig2_table2`, `fig3`, and
//! `table3` read their final generations from. If the run is killed, pass
//! `--resume <journal>` to replay the journaled work and continue to a
//! bit-identical result instead of retraining.
//!
//! Campaign modes (DESIGN.md §12):
//!
//! * default — the paper's generational barrier;
//! * `--steady-state` — the asynchronous steady-state loop on a fixed
//!   8-slot pool. Every artifact gets a `steady_` prefix
//!   (`steady_experiment.journal.jsonl`, `steady_fig1_report.txt`, …) so
//!   the generational artifacts are never overwritten;
//! * `--compare-modes` — runs *both* modes on a matched 8-slot pool at the
//!   selected scale and writes `results/mode_comparison.md` (wall clock,
//!   busy/idle minutes, utilization, hypervolume at equal budget), then
//!   exits without touching any other artifact.
//!
//! Telemetry (off by default, strictly observational):
//!
//! * `--trace out.json` — Chrome `trace_event` JSON (open in Perfetto or
//!   `chrome://tracing`): one process per EA run, one lane per worker,
//!   `eval` spans with nested training-step spans.
//! * `--metrics out.jsonl` — deterministic event/metric log, plus the
//!   wall-clock side channel next to it at `out.side.jsonl`.
//!
//! Either flag also appends a per-generation rollup table to the fig1
//! report. Campaign artifacts (journal, figures) are byte-identical with or
//! without telemetry.
//!
//! Profiling (off by default, deterministic): `--profile <dir>` rewrites
//! `profile.json` (schema `dphpo-profile-v1`) and a collapsed-stack
//! `profile.folded` (open in speedscope or inferno) in `<dir>` at every
//! generation boundary, and appends the "where the microsecond goes"
//! attribution table plus the per-phase tape step budget to the fig1
//! report and the campaign report. Both artifacts are pure functions of
//! journaled data, so they are byte-identical across kill+resume, and
//! profiling on vs off changes no other artifact (DESIGN.md §14).

use std::path::PathBuf;
use std::sync::Arc;

use dphpo_bench::harness::{
    experiment_scale, journal_path, results_dir, run_and_report, write_artifact,
};
use dphpo_core::analysis::{ascii_level_plot, failure_breakdown_table, level_plot_csv};
use dphpo_core::campaign_report::{counter_trace_json, markdown_report, REFERENCE_POINT};
use dphpo_core::experiment::{Campaign, CampaignMode, ExperimentConfig, ExperimentResult};
use dphpo_obs::{chrome, export, rollup, MemoryRecorder, Recorder};

/// Every flag `fig1` understands: `(name, takes a path argument, help)`.
/// `--list-flags` prints the names one per line; `scripts/verify.sh` greps
/// the fig1 command lines in README.md/EXPERIMENTS.md against that list so
/// the docs can never reference a flag this binary does not parse.
const FLAGS: &[(&str, bool, &str)] = &[
    ("--smoke", false, "fast test-scale campaign instead of the reduced scale"),
    ("--steady-state", false, "asynchronous steady-state campaign on a fixed 8-slot pool (steady_* artifacts)"),
    ("--compare-modes", false, "run both campaign modes on a matched 8-slot pool, write results/mode_comparison.md, exit"),
    ("--resume", true, "replay a write-ahead journal and continue bit-identically"),
    ("--trace", true, "write a Chrome trace_event JSON export"),
    ("--metrics", true, "write the deterministic event/metric JSONL export"),
    ("--status", false, "keep a live, atomically rewritten campaign_status.json"),
    ("--report", false, "write the markdown campaign report and Chrome counter tracks"),
    ("--profile", true, "rewrite deterministic profile artifacts (profile.json, profile.folded) in a directory at every boundary and append attribution tables to the reports"),
    ("--verify-journal", true, "offline journal integrity check (frames, last snapshot, first corrupt offset); exit nonzero on damage"),
    ("--compact", true, "rewrite a journal to its boundary records plus what no boundary covers yet (steady-state: the last snapshot and the arrival suffix; generational: the unfinished generation)"),
    ("--list-flags", false, "print every known flag, one per line, and exit"),
];

/// Slot count for `--steady-state` and `--compare-modes`: fixed (not
/// `available_parallelism`) so the simulated-clock utilization numbers are
/// reproducible on any host, and larger than one so the barrier cost the
/// comparison measures actually exists.
const FIXED_SLOTS: usize = 8;

/// Print `problem` and the flag table, then exit 2 (command-line misuse).
fn usage_error(problem: &str) -> ! {
    eprintln!("fig1: {problem}\n\nknown flags:");
    for (name, takes_value, help) in FLAGS {
        let shown = if *takes_value { format!("{name} <path>") } else { (*name).to_string() };
        eprintln!("  {shown:<22} {help}");
    }
    std::process::exit(2);
}

/// Reject any `--flag` this binary does not understand, and any path flag
/// given without its path. A typo'd flag silently running the full campaign
/// is the failure mode this prevents.
fn validate_flags() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match FLAGS.iter().find(|(name, _, _)| name == arg) {
            Some((_, true, _)) => {
                i += 1; // the flag's path argument
                if args.get(i).is_none_or(|value| value.starts_with("--")) {
                    usage_error(&format!("`{arg}` requires a path argument"));
                }
            }
            Some(_) => {}
            None => usage_error(&format!("unknown flag `{arg}`")),
        }
        i += 1;
    }
}

/// The path following `flag`, when present ([`validate_flags`] has already
/// refused a path flag without one).
fn path_arg(flag: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(PathBuf::from)
}

/// The journal to resume from, when `--resume <path>` was passed.
fn resume_arg() -> Option<PathBuf> {
    path_arg("--resume")
}

/// Whether a bare flag (no argument) was passed.
fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn write_file(path: &PathBuf, content: &str) {
    match std::fs::write(path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Simulated-clock totals of one campaign, summed over every run and every
/// generation/epoch of its pool reports.
struct ModeTotals {
    evaluations: usize,
    wall: f64,
    busy: f64,
    idle: f64,
    lost: f64,
    backoff: f64,
    utilization: f64,
    hypervolume: f64,
}

fn mode_totals(result: &ExperimentResult, slots: usize) -> ModeTotals {
    let (mut wall, mut busy, mut idle, mut lost, mut backoff) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in result.pool_reports.iter().flatten() {
        wall += r.wall_minutes;
        busy += r.busy_minutes.iter().sum::<f64>();
        idle += r.idle_minutes.iter().sum::<f64>();
        lost += r.lost_death_minutes.iter().sum::<f64>()
            + r.lost_speculation_minutes.iter().sum::<f64>();
        backoff += r.backoff_slot_minutes.iter().sum::<f64>();
    }
    let capacity = wall * slots as f64;
    let finals: Vec<f64> = result
        .status
        .runs
        .iter()
        .filter_map(|r| r.generations.last().map(|g| g.hypervolume))
        .collect();
    ModeTotals {
        evaluations: result.total_evaluations(),
        wall,
        busy,
        idle,
        lost,
        backoff,
        utilization: if capacity > 0.0 { busy / capacity * 100.0 } else { 0.0 },
        hypervolume: if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        },
    }
}

/// Run both campaign modes on a matched fixed-slot pool at the same scale,
/// seed, and evaluation budget, and render the comparison as markdown. The
/// numbers are simulated-clock minutes, so the document is deterministic.
fn run_mode_comparison(base: &ExperimentConfig) -> String {
    let mut gen_cfg = base.clone();
    gen_cfg.mode = CampaignMode::Generational;
    gen_cfg.pool.n_workers = FIXED_SLOTS;
    let mut steady_cfg = gen_cfg.clone();
    steady_cfg.mode = CampaignMode::SteadyState;

    println!(
        "mode comparison: {} runs x pop {} x {} generations on {} slots (both modes, seed {})",
        gen_cfg.n_runs,
        gen_cfg.pop_size,
        gen_cfg.generations + 1,
        FIXED_SLOTS,
        gen_cfg.master_seed,
    );
    eprintln!("-- generational campaign --");
    let gen_result = run_and_report(Campaign::new(&gen_cfg));
    eprintln!("-- steady-state campaign --");
    let steady_result = run_and_report(Campaign::new(&steady_cfg));

    let g = mode_totals(&gen_result, FIXED_SLOTS);
    let s = mode_totals(&steady_result, FIXED_SLOTS);

    let mut md = String::new();
    md.push_str("# Campaign-mode comparison: generational barrier vs steady-state\n\n");
    md.push_str(&format!(
        "Matched pools: {} runs × pop {} × {} generations = {} trainings per mode, \
         {} worker slots, master seed {}, fault probability {}. All minutes are the \
         scheduler's deterministic simulated clock (DESIGN.md §12), summed over every \
         run; utilization is `Σbusy / (Σwall × slots)`; hypervolume is the mean final \
         archive hypervolume over runs against the reference point ({}, {}).\n\n",
        gen_cfg.n_runs,
        gen_cfg.pop_size,
        gen_cfg.generations + 1,
        g.evaluations,
        FIXED_SLOTS,
        gen_cfg.master_seed,
        gen_cfg.fault_probability,
        REFERENCE_POINT.0,
        REFERENCE_POINT.1,
    ));
    md.push_str(
        "| mode | trainings | wall (min) | busy (min) | idle (min) | lost (min) | backoff (min) | utilization | mean final hypervolume |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for (name, t) in [("generational", &g), ("steady-state", &s)] {
        md.push_str(&format!(
            "| {name} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1}% | {:.4e} |\n",
            t.evaluations, t.wall, t.busy, t.idle, t.lost, t.backoff, t.utilization, t.hypervolume,
        ));
    }
    md.push_str(&format!(
        "\nAt an equal evaluation budget the steady-state campaign spends {:.1} idle \
         slot-minutes against the generational barrier's {:.1} ({:.0}% less): a freed \
         slot immediately receives the next bred child instead of waiting for the \
         generation's stragglers. The saving lands on the wall clock — {:.1} vs {:.1} \
         simulated minutes — while utilization rises from {:.1}% to {:.1}%. (Busy \
         minutes differ somewhat between modes: after generation 0 each mode breeds \
         different children, and training cost depends on the genome.)\n",
        s.idle,
        g.idle,
        if g.idle > 0.0 { (1.0 - s.idle / g.idle) * 100.0 } else { 0.0 },
        s.wall,
        g.wall,
        g.utilization,
        s.utilization,
    ));
    if s.idle >= g.idle {
        md.push_str(
            "\n**WARNING:** steady-state idle is not below generational idle at this \
             scale — the saturation argument does not hold here.\n",
        );
    }
    md
}

fn main() {
    validate_flags();
    if has_flag("--list-flags") {
        for (name, _, _) in FLAGS {
            println!("{name}");
        }
        return;
    }

    // Offline journal maintenance: integrity check and compaction run
    // without touching the campaign or any other artifact.
    if let Some(path) = path_arg("--verify-journal") {
        let report = match dphpo_core::journal::verify(&path) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("fig1: cannot verify {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        println!("journal:        {}", path.display());
        println!("format version: {}", dphpo_core::journal::JOURNAL_VERSION);
        println!("frames:         {}", report.frames);
        println!(
            "records:        {} evals, {} boundaries (generations or epochs), {} snapshots",
            report.evals, report.generations, report.snapshots
        );
        match report.last_snapshot {
            Some((run, arrivals)) => {
                println!("last snapshot:  run {run} at {arrivals} arrivals")
            }
            None => println!("last snapshot:  none"),
        }
        println!("valid bytes:    {} of {}", report.valid_len, report.total_len);
        match report.first_corrupt_offset {
            Some(offset) => {
                println!("DAMAGED: first corrupt frame at byte {offset} (run salvage)");
                std::process::exit(1);
            }
            None => println!("integrity:      ok"),
        }
        return;
    }
    if let Some(path) = path_arg("--compact") {
        match dphpo_core::journal::compact(&path) {
            Ok(report) => println!(
                "compacted {}: {} -> {} frames, {} -> {} bytes",
                path.display(),
                report.frames_before,
                report.frames_after,
                report.bytes_before,
                report.bytes_after,
            ),
            Err(e) => {
                eprintln!("fig1: cannot compact {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let steady = has_flag("--steady-state");
    let mut config = experiment_scale();
    if steady {
        config.mode = CampaignMode::SteadyState;
        config.pool.n_workers = FIXED_SLOTS;
    }

    if has_flag("--compare-modes") {
        let md = run_mode_comparison(&config);
        write_artifact("mode_comparison.md", &md);
        print!("{md}");
        return;
    }

    // Steady-state artifacts live under a `steady_` prefix so the
    // generational artifacts every other figure binary consumes are never
    // overwritten by a steady campaign.
    let prefix = if steady { "steady_" } else { "" };
    let row_label = if steady { "epoch" } else { "generation" };

    let trace_path = path_arg("--trace");
    let metrics_path = path_arg("--metrics");
    let recorder = (trace_path.is_some() || metrics_path.is_some())
        .then(|| Arc::new(MemoryRecorder::with_wall_clock()));
    let total = config.n_runs * config.pop_size * (config.generations + 1);
    println!(
        "Figure 1: {} runs x pop {} x {} {row_label}s (0-{}) = {} DNNP trainings{}",
        config.n_runs,
        config.pop_size,
        config.generations + 1,
        config.generations,
        total,
        if steady {
            format!(" [steady-state, {FIXED_SLOTS} slots]")
        } else {
            String::new()
        },
    );
    // Observatory flags: `--status` keeps a live, atomically rewritten
    // campaign_status.json next to the other artifacts; `--report` writes
    // the end-of-run markdown report and the status-derived Chrome counter
    // tracks. Both are deterministic: a killed-and-resumed campaign ends
    // with the same bytes as an uninterrupted one.
    let want_report = has_flag("--report");
    let status_path = (has_flag("--status") || want_report)
        .then(|| results_dir().join(format!("{prefix}campaign_status.json")));
    let profile_dir = path_arg("--profile");
    let mut campaign = match resume_arg() {
        Some(journal) => Campaign::new(&config).journal(journal).resume(),
        None if steady => {
            Campaign::new(&config).journal(results_dir().join("steady_experiment.journal.jsonl"))
        }
        None => Campaign::new(&config).journal(journal_path()),
    };
    if let Some(path) = &status_path {
        println!("live status at {}", path.display());
        campaign = campaign.status_file(path);
    }
    if let Some(rec) = &recorder {
        campaign = campaign.recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }
    if let Some(dir) = &profile_dir {
        println!("profile artifacts in {}", dir.display());
        campaign = campaign.profile_dir(dir);
    }
    let result = run_and_report(campaign);

    // CSV of every individual of every generation (the raw level-plot data).
    let csv = level_plot_csv(&result);
    write_artifact(&format!("{prefix}fig1_levels.csv"), &csv);

    // ASCII density plots, one per generation, aggregated over runs. The
    // paper culls generation-0 outliers (force > 0.6 or energy > 0.03) for
    // clarity; the same limits bound our axes.
    let mut report = String::new();
    report.push_str(&format!(
        "Figure 1: energy (y, eV/atom) vs force (x, eV/AA) losses per {row_label}\n"
    ));
    report.push_str("aggregated over all runs; axis limits match the paper's culled panel\n\n");
    for generation in 0..=config.generations {
        let points: Vec<(f64, f64)> = result
            .runs
            .iter()
            .flat_map(|run| {
                run.history[generation].population.iter().map(|ind| {
                    let f = ind.fitness();
                    (f.get(0), f.get(1))
                })
            })
            .collect();
        let finite = points
            .iter()
            .filter(|(e, f)| e.is_finite() && f.is_finite() && *e < 1e17 && *f < 1e17)
            .count();
        report.push_str(&format!(
            "--- {row_label} {generation} ({} individuals, {} evaluable) ---\n",
            points.len(),
            finite
        ));
        report.push_str(&ascii_level_plot(&points, 0.6, 0.03, 64, 16));
        report.push('\n');
    }

    // §3.1: evaluation-count accounting.
    report.push_str(&format!(
        "total DNNP trainings: {} (paper: 3500 at full scale)\n",
        result.total_evaluations()
    ));
    report.push_str(
        "brute-force grid at 10 points/parameter would need 10^7 = 10,000,000 trainings\n",
    );

    // §3.2: failure accounting ("25 failed trainings spread across all five
    // jobs ... none in the last generation").
    report.push_str(&format!("\nfailed trainings per {row_label} (all runs):\n"));
    let failures = result.failures_per_generation();
    for (generation, count) in failures.iter().enumerate() {
        report.push_str(&format!("  {row_label} {generation}: {count}\n"));
    }
    report.push_str(&format!(
        "total failures: {}; failures in final {row_label}: {}\n",
        failures.iter().sum::<usize>(),
        failures.last().copied().unwrap_or(0)
    ));

    // Supervision breakdown: why evaluations failed (divergence sentinel,
    // deadline, exhausted retries, cancellation) and what the faults cost
    // the scheduler, per generation across all runs.
    report.push_str("\nfailure breakdown (scheduler supervision, all runs):\n");
    report.push_str(&failure_breakdown_table(&result));

    // Search quality per generation: archive hypervolume against the fixed
    // reference point (the level-plot axis limits), one column per run.
    report.push_str(&format!(
        "\narchive hypervolume per {row_label} (reference point: {} eV/atom, {} eV/AA):\n",
        REFERENCE_POINT.0, REFERENCE_POINT.1
    ));
    report.push_str("gen |");
    for run in &result.status.runs {
        report.push_str(&format!("    run {} |", run.run));
    }
    report.push_str("      mean\n");
    for generation in 0..=config.generations {
        report.push_str(&format!("{generation:>3} |"));
        let mut sum = 0.0;
        let mut n = 0usize;
        for run in &result.status.runs {
            match run.generations.get(generation) {
                Some(row) => {
                    report.push_str(&format!(" {:>8.3e} |", row.hypervolume));
                    sum += row.hypervolume;
                    n += 1;
                }
                None => report.push_str(&format!(" {:>8} |", "-")),
            }
        }
        let mean = if n > 0 { sum / n as f64 } else { 0.0 };
        report.push_str(&format!(" {mean:>8.3e}\n"));
    }

    // Steady-state campaigns exist to keep the pool saturated, so their
    // report carries the measured slot accounting (simulated clock).
    if steady {
        let t = mode_totals(&result, config.pool.n_workers);
        report.push_str(&format!(
            "\nslot accounting ({} slots, simulated minutes, all runs):\n  \
             wall {:.1}  busy {:.1}  idle {:.1}  lost {:.1}  backoff {:.1}  utilization {:.1}%\n",
            config.pool.n_workers, t.wall, t.busy, t.idle, t.lost, t.backoff, t.utilization,
        ));
    }

    // Telemetry exports (only when --trace/--metrics was passed): the
    // deterministic snapshot feeds the Chrome trace, the event log, and a
    // per-generation rollup appended to this report. Wall-clock stamps go
    // to a separate side-channel file so the deterministic exports stay
    // bit-identical across runs.
    if let Some(rec) = &recorder {
        let snap = rec.snapshot();
        if let Some(path) = &trace_path {
            write_file(path, &chrome::trace_json(&snap));
        }
        if let Some(path) = &metrics_path {
            write_file(path, &export::events_jsonl(&snap));
            let side = path.with_extension("side.jsonl");
            write_file(&side, &export::side_channel_jsonl(&snap));
        }
        report.push_str(&format!("\ntelemetry rollup (per {row_label}, all runs):\n"));
        report.push_str(&rollup::generation_rollup(&snap));
    }

    // Deterministic profile tables: the journal-derived attribution tree
    // ("where the microsecond goes") and the base configuration's per-phase
    // tape-node step budget — the same data `<dir>/profile.json` carries.
    let profile_tables = profile_dir.as_ref().map(|_| {
        let tree = dphpo_core::profile::campaign_profile(&result);
        let (train, val) = dphpo_core::experiment::build_dataset(&config);
        let budget = dphpo_dnnp::step_budget(&config.base_train_config, &train, &val)
            .expect("step-budget census");
        (dphpo_obs::profile::markdown_table(&tree), budget.markdown())
    });
    if let Some((attribution, budget)) = &profile_tables {
        report.push_str("\nwhere the microsecond goes (sim-clock attribution):\n");
        report.push_str(attribution);
        report.push_str("\nstep budget (tape nodes per phase, base configuration):\n");
        report.push_str(budget);
    }

    // End-of-run campaign report (markdown) plus the status-derived Chrome
    // counter tracks (hypervolume, queue depth, utilization % on the
    // simulated clock — loadable in Perfetto alongside `--trace`). The
    // profile tables ride along only when `--profile` was passed, so the
    // report stays byte-identical for unprofiled campaigns.
    if want_report {
        let mut md = markdown_report(&result.status);
        if let Some((attribution, budget)) = &profile_tables {
            md.push_str("\n## Where the microsecond goes\n\n");
            md.push_str(attribution);
            md.push_str("\n## Step budget\n\n");
            md.push_str(budget);
        }
        write_artifact(&format!("{prefix}campaign_report.md"), &md);
        write_artifact(
            &format!("{prefix}campaign_counters.trace.json"),
            &counter_trace_json(&result.status),
        );
    }

    print!("{report}");
    write_artifact(&format!("{prefix}fig1_report.txt"), &report);
}
