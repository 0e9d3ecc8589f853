//! Regenerates **Figure 1**: energy-vs-force loss level plots per
//! generation over the five independent EA runs, plus the §3.1/§3.2
//! accounting (total trainings, grid-search comparison, total failures and
//! failures in the final generation; the per-generation breakdown is in
//! `campaign_report.md`).
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
//! * `--steady-state` — the asynchronous steady-state loop. Every artifact
//!   gets a `steady_` prefix (`steady_experiment.journal.jsonl`,
//!   `steady_fig1_report.txt`, …) so the generational artifacts are never
//!   overwritten;
//! * `--compare-modes` — runs *both* modes at the selected scale and writes
//!   `results/mode_comparison.md` (wall clock, busy/idle minutes,
//!   utilization, hypervolume at equal budget), then exits without touching
//!   any other artifact.
//!
//! Every mode runs at the preset's simulated width (`pool.n_workers`: one
//! node per individual); the OS threads underneath come from the machine and
//! change no byte (DESIGN.md §8.4).
//!
//! What a campaign leaves behind (DESIGN.md §9.4):
//!
//! * **always**, next to the journal and as pure functions of it (so a
//!   killed-and-resumed campaign ends with the same bytes): the live
//!   `campaign_status.json`, rewritten atomically at every boundary, and
//!   everything rendered from its rows — `campaign_report.md` (every
//!   per-generation table), `campaign_counters.trace.json` (Perfetto counter
//!   tracks on the simulated clock) — plus `fig1_levels.csv` and
//!   `fig1_report.txt`;
//! * **with `--observe <dir>`**, in `<dir>` (created, and the base
//!   configuration's tape step budget taken, before the journal is): a live
//!   wall-clock recorder's `trace.json` (Chrome `trace_event`),
//!   `events.jsonl` and `events.side.jsonl`, and the deterministic
//!   profiler's `profile.json` / `profile.folded`, rendered from the status
//!   rows at every boundary; the "where the microsecond goes" attribution
//!   table (the same rendering) and the step budget are appended to
//!   `campaign_report.md`. Observing changes no other byte (DESIGN.md §14).
//!
//! An artifact that cannot be written is reported, the rest are still
//! written, and the process exits 1 — after the campaign, whose journal
//! already holds every record (appended, not fsynced: it survives a crash
//! of this process, not a power loss).

use std::path::PathBuf;
use std::sync::Arc;

use dphpo_bench::harness::{
    self, exit_if_writes_failed, experiment_scale, run_and_report, write_artifact, write_file,
};
use dphpo_core::analysis::{ascii_level_plot, level_plot_csv};
use dphpo_core::campaign_report::{
    campaign_profile, counter_trace_json, markdown_report, SlotTotals, REFERENCE_POINT,
};
use dphpo_core::experiment::{Campaign, CampaignMode, ExperimentConfig, ExperimentResult};
use dphpo_obs::{chrome, export, MemoryRecorder, Recorder};

/// Every flag `fig1` understands: `(name, takes a path argument, help)`.
/// `--list-flags` prints the names one per line; `scripts/verify.sh` holds
/// the fig1 command lines in README.md/EXPERIMENTS.md to exactly that list:
/// the docs name no flag this binary does not parse, and it parses none they
/// do not name.
const FLAGS: &[(&str, bool, &str)] = &[
    ("--smoke", false, "fast test-scale campaign instead of the reduced scale"),
    ("--steady-state", false, "asynchronous steady-state campaign (steady_* artifacts)"),
    ("--compare-modes", false, "run both campaign modes at the same scale and seed, write results/mode_comparison.md, exit"),
    ("--resume", true, "replay a write-ahead journal and continue bit-identically"),
    ("--observe", true, "attach the wall-clock recorder and the profiler: trace.json, events.jsonl, events.side.jsonl, profile.json, profile.folded in a directory, attribution tables in the campaign report"),
    ("--verify-journal", true, "offline journal integrity check (frames, last snapshot, first corrupt offset); exit nonzero on damage"),
    ("--compact", true, "salvage a damaged journal (bytes after its valid prefix to <journal>.quarantine), then rewrite it to its boundary records plus what no boundary covers yet (steady-state: the last snapshot and the arrival suffix; generational: the unfinished generation)"),
    ("--list-flags", false, "print every known flag, one per line, and exit"),
];

/// Print `problem` and the flag table, then exit 2 (command-line misuse).
fn usage_error(problem: &str) -> ! {
    eprintln!("fig1: {problem}\n\nknown flags:");
    for (name, takes_value, help) in FLAGS {
        let shown = if *takes_value { format!("{name} <path>") } else { (*name).to_string() };
        eprintln!("  {shown:<22} {help}");
    }
    std::process::exit(2);
}

/// The command line, checked against [`FLAGS`]: every flag passed, with its
/// path when it takes one. A `--flag` this binary does not understand, a
/// path flag without its path, a flag given twice, or a flag next to one
/// that would ignore it is a usage error — a flag silently doing nothing is
/// the failure mode this prevents. `--list-flags`, `--verify-journal` and
/// `--compact` stand alone; `--compare-modes` takes `--smoke` only.
fn parse_flags() -> Vec<(&'static str, Option<PathBuf>)> {
    let mut args = std::env::args().skip(1).peekable();
    let mut passed = Vec::new();
    while let Some(arg) = args.next() {
        let Some(&(name, takes_path, _)) = FLAGS.iter().find(|(name, _, _)| *name == arg) else {
            usage_error(&format!("unknown flag `{arg}`"))
        };
        let path = takes_path.then(|| match args.next_if(|value| !value.starts_with("--")) {
            Some(value) => PathBuf::from(value),
            None => usage_error(&format!("`{arg}` requires a path argument")),
        });
        passed.push((name, path));
    }
    for (i, &(name, _)) in passed.iter().enumerate() {
        if passed[..i].iter().any(|(earlier, _)| *earlier == name) {
            usage_error(&format!("`{name}` given twice"));
        }
        let companions: &[&str] = match name {
            "--list-flags" | "--verify-journal" | "--compact" => &[],
            "--compare-modes" => &["--smoke"],
            _ => continue,
        };
        if let Some((other, _)) =
            passed.iter().find(|(other, _)| *other != name && !companions.contains(other))
        {
            usage_error(&format!("`{name}` cannot be combined with `{other}`"));
        }
    }
    passed
}

/// Mean over runs of the archive hypervolume at each run's last boundary.
fn mean_final_hypervolume(result: &ExperimentResult) -> f64 {
    let finals: Vec<f64> = result
        .status
        .runs
        .iter()
        .filter_map(|r| r.generations.last().map(|g| g.hypervolume))
        .collect();
    if finals.is_empty() {
        0.0
    } else {
        finals.iter().sum::<f64>() / finals.len() as f64
    }
}

/// Run both campaign modes at the same scale, simulated width, seed, and
/// evaluation budget, and render the comparison as markdown. The
/// numbers are simulated-clock minutes, so the document is deterministic.
fn run_mode_comparison(base: &ExperimentConfig) -> String {
    let mut gen_cfg = base.clone();
    gen_cfg.mode = CampaignMode::Generational;
    let mut steady_cfg = gen_cfg.clone();
    steady_cfg.mode = CampaignMode::SteadyState;

    println!(
        "mode comparison: {} runs x pop {} x {} generations on {} slots (both modes, seed {})",
        gen_cfg.n_runs,
        gen_cfg.pop_size,
        gen_cfg.generations + 1,
        gen_cfg.pool.n_workers,
        gen_cfg.master_seed,
    );
    eprintln!("-- generational campaign --");
    let gen_result = run_and_report(Campaign::new(&gen_cfg));
    eprintln!("-- steady-state campaign --");
    let steady_result = run_and_report(Campaign::new(&steady_cfg));

    let g = SlotTotals::of(gen_result.status.rows());
    let s = SlotTotals::of(steady_result.status.rows());

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
        gen_result.total_evaluations(),
        gen_cfg.pool.n_workers,
        gen_cfg.master_seed,
        gen_cfg.fault_probability,
        REFERENCE_POINT.0,
        REFERENCE_POINT.1,
    ));
    md.push_str(
        "| mode | trainings | wall (min) | busy (min) | idle (min) | lost (min) | backoff (min) | utilization | mean final hypervolume |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let modes = [("generational", &gen_result, &g), ("steady-state", &steady_result, &s)];
    for (name, result, t) in modes {
        md.push_str(&format!(
            "| {name} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1}% | {:.4e} |\n",
            result.total_evaluations(),
            t.wall,
            t.busy,
            t.idle,
            t.lost_death,
            t.backoff,
            t.pct(t.busy),
            mean_final_hypervolume(result),
        ));
    }
    // The numbers as the reports have them, whichever way they point; the
    // reading of them depends on which mode idles less.
    let change = |steady: f64, generational: f64| {
        if generational > 0.0 { (steady / generational - 1.0) * 100.0 } else { 0.0 }
    };
    md.push_str(&format!(
        "\nAt an equal evaluation budget the steady-state campaign's reports add up to \
         {:.1} idle slot-minutes against the generational barrier's {:.1} ({:+.0}%), on \
         {:.1} vs {:.1} simulated wall minutes ({:+.1}%), at {:.1}% vs {:.1}% utilization. \
         (Busy minutes differ somewhat between modes: after generation 0 each mode breeds \
         different children, and training cost depends on the genome.)\n",
        s.idle,
        g.idle,
        change(s.idle, g.idle),
        s.wall,
        g.wall,
        change(s.wall, g.wall),
        s.pct(s.busy),
        g.pct(g.busy),
    ));
    md.push_str(if s.idle < g.idle {
        "\nA freed slot immediately receives the next bred child instead of waiting for \
         the generation's slowest training: the difference is barrier wait.\n"
    } else {
        "\n**Steady-state idle is not below generational idle here.** With a slot per \
         individual a generation is one task per slot, so the barrier costs only the spread \
         of one batch's runtimes. A steady-state epoch report charges every slot its \
         shortfall against that epoch's busiest slot (`StreamSlots::epoch_report`), and \
         tasks straddle epoch boundaries, so the epoch walls summed here bound the run's \
         makespan from above instead of measuring it; the slots' own clocks are the \
         per-slot minutes of the journal's `epoch` records (EXPERIMENTS.md \"Campaign \
         modes\").\n"
    });
    md
}

fn main() {
    let flags = parse_flags();
    let has_flag = |flag: &str| flags.iter().any(|(name, _)| *name == flag);
    let path_arg =
        |flag: &str| flags.iter().find(|(name, _)| *name == flag).and_then(|(_, path)| path.clone());
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
                println!("DAMAGED: first corrupt frame at byte {offset} (run fig1 --compact)");
                std::process::exit(1);
            }
            None => println!("integrity:      ok"),
        }
        return;
    }
    if let Some(path) = path_arg("--compact") {
        match dphpo_core::journal::compact(&path) {
            Ok(report) => {
                let salvage = &report.salvage;
                if salvage.quarantined_bytes > 0 {
                    println!(
                        "salvaged {}: {} bytes after byte {} quarantined to {}",
                        path.display(),
                        salvage.quarantined_bytes,
                        salvage.valid_len,
                        salvage.quarantine_path.display(),
                    );
                }
                println!(
                    "compacted {}: {} -> {} frames, {} -> {} bytes",
                    path.display(),
                    report.frames_before,
                    report.frames_after,
                    report.bytes_before,
                    report.bytes_after,
                );
            }
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
    }

    if has_flag("--compare-modes") {
        let md = run_mode_comparison(&config);
        write_artifact("mode_comparison.md", &md);
        print!("{md}");
        exit_if_writes_failed();
        return;
    }

    // Steady-state artifacts live under a `steady_` prefix so the
    // generational artifacts every other figure binary consumes are never
    // overwritten by a steady campaign.
    let prefix = if steady { "steady_" } else { "" };
    let row_label = config.mode.row_label();

    // Refused before the journal header is written: a campaign that cannot
    // leave what it was asked to observe should not start.
    let observe = path_arg("--observe").map(|dir| {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("fig1: cannot create the --observe directory {}: {e}", dir.display());
            std::process::exit(1);
        }
        let (train, val) = dphpo_core::experiment::build_dataset(&config);
        let budget = dphpo_dnnp::step_budget(&config.base_train_config, &train, &val)
            .unwrap_or_else(|e| {
                eprintln!("fig1: cannot take the step budget of the base configuration: {e}");
                std::process::exit(1);
            });
        (dir, Arc::new(MemoryRecorder::with_wall_clock()), budget)
    });
    let total = config.n_runs * config.pop_size * (config.generations + 1);
    println!(
        "Figure 1: {} runs x pop {} x {} {row_label}s (0-{}) = {} DNNP trainings on {} simulated nodes{}",
        config.n_runs,
        config.pop_size,
        config.generations + 1,
        config.generations,
        total,
        config.pool.n_workers,
        if steady { " [steady-state]" } else { "" },
    );
    let mut campaign = harness::campaign(&config, prefix, path_arg("--resume"));
    if let Some((dir, rec, _)) = &observe {
        println!("observing into {}", dir.display());
        campaign = campaign.recorder(Arc::clone(rec) as Arc<dyn Recorder>).profile_dir(dir);
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

    // §3.2: "25 failed trainings spread across all five jobs ... none in the
    // last generation". Per generation, with why each failed and what the
    // faults cost the scheduler, it is the campaign report's breakdown.
    let final_rows =
        result.status.runs.iter().filter_map(|r| r.generations.get(config.generations));
    report.push_str(&format!(
        "total failures: {}; failures in final {row_label}: {}\n",
        result.status.rows().map(|row| row.failures).sum::<usize>(),
        final_rows.map(|row| row.failures).sum::<usize>()
    ));

    // The end-of-run campaign report and the status-derived Chrome counter
    // tracks (hypervolume, queue depth, utilization % on the simulated clock).
    let mut md = markdown_report(&result.status, config.mode);
    write_artifact(
        &format!("{prefix}campaign_counters.trace.json"),
        &counter_trace_json(&result.status),
    );

    // `--observe <dir>`: the recorder's deterministic snapshot feeds the
    // Chrome trace and the event log; wall-clock stamps go to the
    // side-channel file so the deterministic exports stay bit-identical
    // across runs. The attribution sections land after everything an
    // unobserved campaign report holds, so observing only ever appends.
    if let Some((dir, rec, budget)) = &observe {
        let snap = rec.snapshot();
        write_file(&dir.join("trace.json"), &chrome::trace_json(&snap));
        write_file(&dir.join("events.jsonl"), &export::events_jsonl(&snap));
        write_file(&dir.join("events.side.jsonl"), &export::side_channel_jsonl(&snap));

        md.push_str("\n## Where the microsecond goes\n\n");
        md.push_str(&dphpo_obs::profile::markdown_table(&campaign_profile(&result.status)));
        md.push_str("\n## Step budget\n\n");
        md.push_str(&budget.markdown());
    }
    write_artifact(&format!("{prefix}campaign_report.md"), &md);

    print!("{report}");
    write_artifact(&format!("{prefix}fig1_report.txt"), &report);
    exit_if_writes_failed();
}
