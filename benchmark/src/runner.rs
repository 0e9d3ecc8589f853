//! The parent side: runs each repeat in a fresh child process, checks the
//! files it left behind, turns the child's raw measurements into the
//! end-to-end metrics, and drives the layer pass.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::adapter::{
    resume_campaign, run_campaign, run_campaign_killed, verify, wide_campaign, CampaignMode,
    ExperimentConfig, ExperimentError, Json,
};
use crate::child::{
    campaign_dir, combine_digests, journal_path, result_digest, status_path, ChildReport,
};
use crate::layers::{replay_layers, standalone_probes, LayerInput, Metrics};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workload::{campaign_configs, expected_evals, Sizes, Workload};

/// What every run of the benchmark shares.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub sizes: Sizes,
    pub smoke: bool,
    /// Pool threads `W`.
    pub workers: usize,
    /// `benchmark/out`: results, traces, and `work/` below it.
    pub out: PathBuf,
    /// Self-test of the checks: cut the first journal short after the run.
    pub truncate_journal: bool,
}

impl Options {
    /// Work files of one workload: on the repository's filesystem (so the
    /// status file's fsyncs are real), never a tmpfs.
    pub fn work_dir(&self, workload: Workload) -> PathBuf {
        self.out.join("work").join(workload.name())
    }
}

/// One repeat: the child's raw report plus what the parent's checks found.
#[derive(Clone, Debug)]
pub struct Repeat {
    pub child: ChildReport,
    /// Operations failed, child- and parent-side (capped at `attempted`).
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Repeat {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    /// End-to-end metric values of this repeat, by name. The timed metrics
    /// of `gen` and `steady` are per reference campaign (see
    /// `workload::WorkFactors`); the factors are 1 elsewhere.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let c = &self.child;
        let wall_s = c.wall_s * c.factors.wall;
        BTreeMap::from([
            ("wall_s", wall_s),
            ("evals_per_s", c.evals as f64 / wall_s),
            ("cpu_s", c.cpu_s * c.factors.cpu),
            ("setup_s", c.setup_s),
            ("peak_rss_mb", c.peak_rss_mb),
        ])
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.child.attempted.max(1) as f64
    }
}

fn sizes_arg(s: &Sizes) -> String {
    [
        s.pop,
        s.generations,
        s.train_steps,
        s.wide_k,
        s.wide_runs,
        s.wide_generations,
        s.replay_cycles,
        s.setup_samples,
    ]
    .map(|v| v.to_string())
    .join(",")
}

pub fn parse_sizes(arg: &str) -> Option<Sizes> {
    let v: Vec<usize> = arg
        .split(',')
        .map(|p| p.parse().ok())
        .collect::<Option<_>>()?;
    let [pop, generations, train_steps, wide_k, wide_runs, wide_generations, replay_cycles, setup_samples] =
        v[..]
    else {
        return None;
    };
    Some(Sizes {
        pop,
        generations,
        train_steps,
        wide_k,
        wide_runs,
        wide_generations,
        replay_cycles,
        setup_samples,
    })
}

/// Run one repeat in a fresh child process and wait for it.
fn spawn_child(
    workload: Workload,
    opts: &Options,
    workers: usize,
    work: &Path,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--sizes", &sizes_arg(&opts.sizes)])
        .args(["--workers", &workers.to_string()])
        .arg("--work")
        .arg(work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("child process ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .and_then(|j| ChildReport::from_json(&j))
        .ok_or_else(|| format!("child printed no report: {line:?}"))
}

/// The checks on one finished campaign's files. Returns what failed.
fn check_campaign(config: &ExperimentConfig, dir: &Path, scratch: &Path) -> Result<u32, String> {
    let journal = journal_path(dir);
    let expected = expected_evals(config) as u64;
    let report = verify(&journal).map_err(|e| format!("verify: {e}"))?;
    if report.damaged() || report.valid_len != report.total_len {
        return Err("verify: the journal is damaged or torn".into());
    }
    if report.evals != expected {
        return Err(format!(
            "verify: {} evaluation records, expected {expected}",
            report.evals
        ));
    }
    let boundaries = (config.n_runs * (config.generations + 1)) as u64;
    let framed = 1 + report.evals + report.generations + report.snapshots;
    let boundaries_ok = match config.mode {
        CampaignMode::Generational => report.generations == boundaries,
        CampaignMode::SteadyState => report.snapshots >= config.n_runs as u64,
    };
    if report.frames != framed || !boundaries_ok {
        return Err(format!(
            "verify: frame count {} does not match the campaign's shape",
            report.frames
        ));
    }

    // Resuming the finished journal must reproduce the final populations
    // and the status file byte for byte.
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let copy = journal_path(scratch);
    let status_copy = status_path(scratch);
    std::fs::copy(&journal, &copy).map_err(|e| format!("cannot copy the journal: {e}"))?;
    let resumed =
        resume_campaign(config, &copy, &status_copy).map_err(|e| format!("resume: {e}"))?;
    if resumed.total_evaluations() as u64 != expected {
        return Err("resume: evaluation count differs".into());
    }
    let same_status = match (std::fs::read(status_path(dir)), std::fs::read(&status_copy)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    if !same_status {
        return Err("resume: campaign_status.json bytes differ".into());
    }
    if resumed.archives.iter().any(|a| a.is_empty()) {
        return Err("an archive holds no non-penalty point".into());
    }
    Ok(result_digest(&resumed))
}

/// `replay` fixtures, once each: a driver killed half-way and resumed must
/// end with the uninterrupted journal's bytes.
fn check_kill_resume(
    config: &ExperimentConfig,
    fixture: &Path,
    scratch: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let journal = journal_path(scratch);
    let status = status_path(scratch);
    let half = expected_evals(config) as u64 / 2;
    match run_campaign_killed(config, &journal, &status, half) {
        Err(ExperimentError::Interrupted { .. }) => {}
        Ok(_) => return Err("kill_after(50 %): the campaign was not interrupted".into()),
        Err(e) => return Err(format!("kill_after(50 %): {e}")),
    }
    resume_campaign(config, &journal, &status).map_err(|e| format!("resume after kill: {e}"))?;
    match (std::fs::read(&journal), std::fs::read(fixture)) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        _ => Err("kill + resume: journal bytes differ from the uninterrupted journal".into()),
    }
}

/// Run one repeat of `workload` and check it. `Err` when the child process
/// produced no report: nothing was measured, so there is nothing to print.
pub fn run_repeat(workload: Workload, opts: &Options, workers: usize) -> Result<Repeat, String> {
    let work = opts.work_dir(workload);
    let child = spawn_child(workload, opts, workers, &work)?;
    let mut notes = child.notes.clone();
    let mut failed = child.failed;
    let configs = campaign_configs(workload, opts.seed, &opts.sizes, workers);
    if opts.truncate_journal {
        let journal = journal_path(&campaign_dir(&work, 0));
        let cut = std::fs::metadata(&journal).map_or(0, |m| m.len() * 3 / 5);
        let truncated = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .and_then(|f| f.set_len(cut));
        if let Err(e) = truncated {
            notes.push(format!("--truncate-journal: {e}"));
        }
    }
    let scratch = work.join("check");
    let mut digests = Vec::new();
    for (k, config) in configs.iter().enumerate() {
        let dir = campaign_dir(&work, k);
        // A failed check fails the operations it covers: the campaign's
        // evaluations, or for a `replay` fixture every cycle over it.
        let covered = match workload {
            Workload::Replay => child.attempted / configs.len() as u64,
            _ => expected_evals(config) as u64,
        };
        match check_campaign(config, &dir, &scratch) {
            Ok(digest) => digests.push(digest),
            Err(e) => {
                failed += covered;
                notes.push(format!("campaign {k}: {e}"));
            }
        }
        if workload == Workload::Replay {
            if let Err(e) = check_kill_resume(config, &journal_path(&dir), &scratch) {
                failed += covered;
                notes.push(format!("fixture {k}: {e}"));
            }
        }
    }
    if digests.len() == configs.len() && combine_digests(&digests) != child.result_digest {
        failed += child.attempted;
        notes.push(
            "resume: final populations differ from the run's (genome or fitness bits)".into(),
        );
    }
    let failed = failed.min(child.attempted);
    Ok(Repeat {
        child,
        failed,
        notes,
    })
}

// ---------------------------------------------------------------------------
// Layer pass
// ---------------------------------------------------------------------------

/// The layer pass of one workload, after the untraced `repeat` whose
/// journal is its input record. Returns every per-layer metric the
/// workload exercises.
pub fn layer_pass(workload: Workload, opts: &Options, repeat: &Repeat) -> Metrics {
    let t0 = Instant::now();
    let work = opts.work_dir(workload);
    let scratch = work.join("layers");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create work directory");
    let configs = campaign_configs(workload, opts.seed, &opts.sizes, opts.workers);
    let kernel_reps = if opts.smoke { 50 } else { 2_000 };
    let child = &repeat.child;

    // The workload's own journal (for `wide`, the first of its K
    // campaigns; for `replay`, the generational fixture).
    let campaigns = match workload {
        Workload::Replay => 0.0,
        _ => configs.len() as f64,
    };
    let per_campaign = |total: f64| {
        if campaigns > 0.0 {
            total / campaigns
        } else {
            0.0
        }
    };
    let mut out = Metrics::default();
    replay_layers(
        &LayerInput {
            config: &configs[0],
            journal_path: &journal_path(&campaign_dir(&work, 0)),
            untraced_wall_s: per_campaign(child.wall_s),
            untraced_cpu_s: per_campaign(child.cpu_s),
            work_model: matches!(workload, Workload::Gen | Workload::Steady),
            scratch: &scratch,
            out_dir: &opts.out,
            stem: workload.name(),
        },
        &mut out,
    );

    // Layers only the other campaign mode calls, at width: `replay` has a
    // steady fixture already; `wide` runs one steady campaign of its shape.
    let other_mode = match workload {
        Workload::Replay => Some((
            configs[1].clone(),
            journal_path(&campaign_dir(&work, 1)),
            0.0,
        )),
        Workload::Wide => {
            let config = wide_campaign(
                opts.seed,
                opts.sizes.wide_runs,
                opts.sizes.wide_generations,
                CampaignMode::SteadyState,
                opts.workers,
            );
            let journal = scratch.join("steady.journal.jsonl");
            let t0 = Instant::now();
            match run_campaign(&config, &journal, &scratch.join("steady.status.json")) {
                Ok(_) => Some((config, journal, t0.elapsed().as_secs_f64())),
                Err(e) => {
                    out.notes.push(format!("steady wide-shape campaign: {e}"));
                    None
                }
            }
        }
        Workload::Gen | Workload::Steady => None,
    };
    if let Some((config, journal, wall_s)) = other_mode {
        let mut other = Metrics::default();
        replay_layers(
            &LayerInput {
                config: &config,
                journal_path: &journal,
                untraced_wall_s: wall_s,
                untraced_cpu_s: 0.0,
                work_model: false,
                scratch: &scratch,
                out_dir: &opts.out,
                stem: &format!("{}.steady", workload.name()),
            },
            &mut other,
        );
        // `replay` reads both fixtures every cycle: its journal operations
        // are the sum over the two modes.
        if workload == Workload::Replay {
            for name in [
                "core.journal.load_ms",
                "core.journal.verify_ms",
                "core.journal.resume_ms",
                "core.journal.compact_ms",
            ] {
                if let (Some(a), Some(b)) = (out.values.get(name).copied(), other.values.get(name))
                {
                    out.values.insert(name, a + b);
                }
            }
        }
        out.fill_from(other);
    }

    let obs_config = wide_campaign(
        opts.seed,
        opts.sizes.wide_runs,
        opts.sizes.wide_generations,
        CampaignMode::Generational,
        opts.workers,
    );
    standalone_probes(&configs[0], &obs_config, &scratch, kernel_reps, &mut out);

    // The plain single-thread baseline of the same problem. `replay` runs
    // no pool thread, so it has none.
    if workload != Workload::Replay {
        match run_repeat(workload, opts, 1) {
            Ok(single) if single.correct() => {
                out.values
                    .insert("hpc.scaling.wall_1w_s", single.child.wall_s);
                out.values.insert(
                    "hpc.scaling.efficiency",
                    single.child.wall_s / (opts.workers as f64 * child.wall_s),
                );
            }
            Ok(single) => out
                .notes
                .extend(single.notes.into_iter().map(|n| format!("W = 1 run: {n}"))),
            Err(e) => out.notes.push(format!("W = 1 run: {e}")),
        }
    }

    out.values
        .insert("hpc.pool.deaths", child.pool_deaths as f64);
    out.values
        .insert("hpc.pool.retries", child.pool_retries as f64);
    out.values.insert("fail_share", repeat.fail_share());
    out.values.insert("peak_rss_mb", child.peak_rss_mb);
    out.values.insert("bench.raw.wall_s", child.wall_s);
    out.values.insert("bench.raw.cpu_s", child.cpu_s);
    out.values.insert("bench.wall_factor", child.factors.wall);
    out.values.insert("bench.cpu_factor", child.factors.cpu);
    out.values.insert(
        "bench.replay_mismatches",
        out.notes
            .iter()
            .filter(|n| n.starts_with("replay mismatch"))
            .count() as f64,
    );
    out.values
        .insert("bench.layer_pass_s", t0.elapsed().as_secs_f64());
    out
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(repeat: &Repeat, layer: Option<&Metrics>) -> String {
    let entry = |value: f64, unit: &str| {
        Json::object(vec![
            ("value", Json::Number(value)),
            ("unit", Json::String(unit.into())),
        ])
    };
    let metrics: Vec<(&str, Json)> = match layer {
        // A metric the workload does not exercise reads 0 (the line admits
        // numbers only); the printed table says `null` and lists it.
        Some(m) => PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name,
                    entry(m.values.get(p.name).copied().unwrap_or(0.0), p.unit),
                )
            })
            .collect(),
        None => {
            let values = repeat.metrics();
            END_TO_END
                .iter()
                .filter(|e| e.seed_steady)
                .map(|e| (e.name, entry(values[e.name], e.unit)))
                .collect()
        }
    };
    let layer_ok = layer.is_none_or(|m| m.notes.is_empty());
    Json::object(vec![
        ("correct", Json::Bool(repeat.correct() && layer_ok)),
        ("attempted", Json::Number(repeat.child.attempted as f64)),
        ("failed", Json::Number(repeat.failed as f64)),
        ("metrics", Json::object(metrics)),
    ])
    .to_compact()
}

/// Print one repeat's end-to-end metrics by name, with units.
pub fn print_repeat(workload: Workload, opts: &Options, repeat: &Repeat) {
    println!(
        "{} [{}] seed {} W {}",
        workload.name(),
        opts.sizes.describe(workload),
        opts.seed,
        opts.workers
    );
    let values = repeat.metrics();
    for e in &END_TO_END {
        println!("  {:<14} {:>14.6} {}", e.name, values[e.name], e.unit);
    }
    println!(
        "  {:<14} {:>14.6} ratio  ({} of {} operations; journaled diverged {}, timeout {})",
        "fail_share",
        repeat.fail_share(),
        repeat.failed,
        repeat.child.attempted,
        repeat.child.diverged,
        repeat.child.timeouts
    );
    println!(
        "  raw wall {:.3} s x {:.4}, raw cpu {:.3} s x {:.4}, work_digest {:08x}",
        repeat.child.wall_s,
        repeat.child.factors.wall,
        repeat.child.cpu_s,
        repeat.child.factors.cpu,
        repeat.child.work_digest
    );
    for note in &repeat.notes {
        println!("  CHECK FAILED: {note}");
    }
}

/// Print the per-layer metrics of one workload; every name exactly once.
pub fn print_layers(workload: Workload, metrics: &Metrics) {
    println!("{} layer pass", workload.name());
    let mut absent = Vec::new();
    for p in &PER_LAYER {
        match metrics.values.get(p.name) {
            Some(v) => {
                let summary = metrics
                    .summaries
                    .get(p.name)
                    .map_or(String::new(), |s| format!("  ({s})"));
                println!("  {:<38} {:>16.6} {}{summary}", p.name, v, p.unit);
            }
            None => {
                println!("  {:<38} {:>16} {}", p.name, "null", p.unit);
                absent.push(p.name);
            }
        }
    }
    println!("  missing (source gone): {:?}", metrics.missing);
    let not_exercised: Vec<_> = absent
        .iter()
        .filter(|n| !metrics.missing.contains(n))
        .collect();
    println!("  not exercised by this workload: {not_exercised:?}");
    for note in &metrics.notes {
        println!("  CHECK FAILED: {note}");
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Every repeat's value of each end-to-end metric, in table order.
fn columns(repeats: &[Repeat]) -> Vec<(&'static EndToEnd, Vec<f64>)> {
    let per_repeat: Vec<BTreeMap<&'static str, f64>> =
        repeats.iter().map(Repeat::metrics).collect();
    END_TO_END
        .iter()
        .map(|e| (e, per_repeat.iter().map(|m| m[e.name]).collect()))
        .collect()
}

/// Median, minimum, maximum and every value of one metric over repeats.
fn metric_json(unit: &str, values: &[f64]) -> Json {
    let (min, max) = min_max(values);
    Json::object(vec![
        ("unit", Json::String(unit.into())),
        ("median", Json::Number(median(values))),
        ("min", Json::Number(min)),
        ("max", Json::Number(max)),
        ("n", Json::Number(values.len() as f64)),
        (
            "values",
            Json::Array(values.iter().map(|&v| Json::Number(v)).collect()),
        ),
    ])
}

/// One workload's entry of `results.json`.
pub fn workload_json(workload: Workload, opts: &Options, repeats: &[Repeat]) -> Json {
    let mut metrics: Vec<(&str, Json)> = columns(repeats)
        .iter()
        .map(|(e, values)| (e.name, metric_json(e.unit, values)))
        .collect();
    let fail_shares: Vec<f64> = repeats.iter().map(Repeat::fail_share).collect();
    metrics.push(("fail_share", metric_json("ratio", &fail_shares)));
    let digests: Vec<u32> = repeats.iter().map(|r| r.child.work_digest).collect();
    let raw = |f: fn(&ChildReport) -> f64| {
        Json::Array(repeats.iter().map(|r| Json::Number(f(&r.child))).collect())
    };
    Json::object(vec![
        ("sizes", Json::String(opts.sizes.describe(workload))),
        ("metrics", Json::object(metrics)),
        (
            "attempted",
            Json::Number(repeats.iter().map(|r| r.child.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Number(repeats.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        (
            "diverged",
            Json::Number(repeats.iter().map(|r| r.child.diverged).sum::<u64>() as f64),
        ),
        ("work_digest", Json::Number(f64::from(digests[0]))),
        (
            "repeats_identical",
            Json::Bool(digests.iter().all(|d| *d == digests[0])),
        ),
        ("raw_wall_s", raw(|c| c.wall_s)),
        ("raw_cpu_s", raw(|c| c.cpu_s)),
        ("wall_factor", raw(|c| c.factors.wall)),
        ("cpu_factor", raw(|c| c.factors.cpu)),
    ])
}

/// Print the summary of one workload over its repeats.
pub fn print_summary(workload: Workload, opts: &Options, repeats: &[Repeat]) {
    println!(
        "{} [{}] seed {} W {}",
        workload.name(),
        opts.sizes.describe(workload),
        opts.seed,
        opts.workers
    );
    for (e, values) in columns(repeats) {
        let (min, max) = min_max(&values);
        println!(
            "  {:<14} median {:>12.6} {:<4} min {:.6} max {:.6} n {}",
            e.name,
            median(&values),
            e.unit,
            min,
            max,
            values.len()
        );
    }
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    let attempted: u64 = repeats.iter().map(|r| r.child.attempted).sum();
    let diverged: u64 = repeats.iter().map(|r| r.child.diverged).sum();
    println!(
        "  {:<14} {:>19.6} ratio ({failed} of {attempted} operations; journaled diverged {diverged})",
        "fail_share",
        failed as f64 / attempted.max(1) as f64
    );
    println!("  work_digest    {:08x}", repeats[0].child.work_digest);
    for (i, repeat) in repeats.iter().enumerate() {
        for note in &repeat.notes {
            println!("  CHECK FAILED (repeat {i}): {note}");
        }
    }
}
