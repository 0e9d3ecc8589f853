//! One repeat of one workload, run in a fresh child process so that its
//! CPU time and peak resident set are its own. The child sets up, runs the
//! timed region with tracing off, and prints one JSON line; the parent
//! (`runner`) checks the files it leaves behind.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    build_dataset, compact, crc32, resume_campaign, run_campaign, verify, ExperimentConfig,
    ExperimentResult, FaultKind, Journal, Json,
};
use crate::procstat::{cpu_seconds, peak_rss_mb};
use crate::stats::median;
use crate::workload::{
    campaign_configs, expected_evals, work_factors, Sizes, WorkFactors, Workload,
};

/// What one repeat measured (raw: nothing here is scaled by the work model).
#[derive(Clone, Debug, PartialEq)]
pub struct ChildReport {
    /// Timed region in seconds: `Campaign::run` entry→return summed over
    /// the campaigns (`replay`: the cycles, start to end).
    pub wall_s: f64,
    /// `utime + stime` over the timed region.
    pub cpu_s: f64,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// `VmHWM` when the timed region ended.
    pub peak_rss_mb: f64,
    /// Evaluation records produced (`replay`: records read).
    pub evals: u64,
    /// Operations attempted: evaluations (`replay`: verify/resume/compact).
    pub attempted: u64,
    /// Operations the child itself saw fail.
    pub failed: u64,
    /// Journaled evaluations with fault class `timeout` (failed operations:
    /// the cost model keeps every genome under the limit, so none is due)
    /// and `diverged` (not failed — which genomes diverge is the seed's
    /// draw — but `compare` holds their count against the baseline's).
    pub timeouts: u64,
    pub diverged: u64,
    /// Work-model factors (1 for `wide` and `replay`).
    pub factors: WorkFactors,
    /// CRC-32 over the bytes of every journal the run produced, in order.
    pub work_digest: u32,
    /// CRC-32 over final populations and archives (genome and fitness
    /// bits) of every campaign, for the parent's resume check.
    pub result_digest: u32,
    /// Summed `PoolReport::worker_deaths` / `retried_tasks`.
    pub pool_deaths: u64,
    pub pool_retries: u64,
    /// Why operations failed, for the human reader.
    pub notes: Vec<String>,
}

/// Directory holding campaign `k`'s work files.
pub fn campaign_dir(work: &Path, k: usize) -> PathBuf {
    work.join(format!("c{k}"))
}

pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

pub fn status_path(dir: &Path) -> PathBuf {
    dir.join("campaign_status.json")
}

/// CRC-32 over the final population and archive of every run of one
/// campaign: genome and fitness bit patterns, in order.
pub fn result_digest(result: &ExperimentResult) -> u32 {
    let mut bytes = Vec::new();
    for (run, archive) in result.runs.iter().zip(&result.archives) {
        for ind in run.final_population().iter().chain(archive.members()) {
            for g in &ind.genome {
                bytes.extend_from_slice(&g.to_bits().to_le_bytes());
            }
            for f in ind.fitness.iter().flat_map(|f| f.values()) {
                bytes.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        }
    }
    crc32(&bytes)
}

/// One digest over the per-campaign digests of a run, in order.
pub fn combine_digests(digests: &[u32]) -> u32 {
    crc32(
        &digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn pool_totals(result: &ExperimentResult) -> (u64, u64) {
    result
        .pool_reports
        .iter()
        .flatten()
        .fold((0, 0), |(d, r), report| {
            (
                d + report.worker_deaths as u64,
                r + report.retried_tasks as u64,
            )
        })
}

/// Evaluations a journal records with fault class `diverged` / `timeout`.
fn journaled_faults(journal: &Journal) -> (u64, u64) {
    let count = |kind| journal.evals.values().filter(|e| e.fault == kind).count() as u64;
    (count(FaultKind::Diverged), count(FaultKind::Timeout))
}

fn digest_files(paths: &[PathBuf]) -> u32 {
    let mut bytes = Vec::new();
    for path in paths {
        bytes.extend(std::fs::read(path).unwrap_or_default());
    }
    crc32(&bytes)
}

/// A set-up of under a millisecond (`wide`) is sampled until this many
/// seconds have gone by in all, so that its median rests on hundreds of
/// samples and not on fifteen.
const SETUP_MIN_TOTAL_S: f64 = 0.2;

/// Median over at least `samples` of: create the work directories, then one
/// direct `build_dataset` call. The directories stay for the timed region.
fn timed_setup(configs: &[ExperimentConfig], work: &Path, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    while times.len() < samples || times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S {
        let _ = std::fs::remove_dir_all(work);
        let t0 = Instant::now();
        for k in 0..configs.len() {
            std::fs::create_dir_all(campaign_dir(work, k)).expect("create work directory");
        }
        std::hint::black_box(build_dataset(&configs[0]));
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// What the child keeps of one finished campaign (the result itself is
/// dropped at once, as a driver script would).
struct Outcome {
    /// `Campaign::run` entry→return.
    secs: f64,
    /// Evaluations performed; 0 when the campaign returned `Err`.
    evals: u64,
    digest: u32,
    pool_deaths: u64,
    pool_retries: u64,
}

/// Run every campaign of `configs` fresh, journal and status on.
fn run_campaigns(
    configs: &[ExperimentConfig],
    work: &Path,
    notes: &mut Vec<String>,
) -> Vec<Outcome> {
    configs
        .iter()
        .enumerate()
        .map(|(k, config)| {
            let dir = campaign_dir(work, k);
            let t0 = Instant::now();
            let result = run_campaign(config, &journal_path(&dir), &status_path(&dir));
            let secs = t0.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    let (pool_deaths, pool_retries) = pool_totals(&r);
                    Outcome {
                        secs,
                        evals: r.total_evaluations() as u64,
                        digest: result_digest(&r),
                        pool_deaths,
                        pool_retries,
                    }
                }
                Err(e) => {
                    notes.push(format!("campaign {k}: Campaign::run returned Err: {e}"));
                    Outcome {
                        secs,
                        evals: 0,
                        digest: 0,
                        pool_deaths: 0,
                        pool_retries: 0,
                    }
                }
            }
        })
        .collect()
}

/// `gen`, `steady`, `wide`: the timed region is `Campaign::run`
/// entry→return, summed over the campaigns.
fn campaign_child(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    workers: usize,
    work: &Path,
) -> ChildReport {
    let configs = campaign_configs(workload, seed, sizes, workers);
    let setup_s = timed_setup(&configs, work, sizes.setup_samples);

    let mut notes = Vec::new();
    let cpu0 = cpu_seconds();
    let outcomes = run_campaigns(&configs, work, &mut notes);
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mb = peak_rss_mb();
    let wall_s: f64 = outcomes.iter().map(|o| o.secs).sum();

    // Read every journal back, outside the timed region: a missing record
    // and a journaled `timeout` are failed operations, and the work model
    // of `gen` and `steady` needs the genomes.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut diverged, mut timeouts) = (0u64, 0u64);
    let mut factors = WorkFactors::NONE;
    for (k, (outcome, config)) in outcomes.iter().zip(&configs).enumerate() {
        let expected = expected_evals(config) as u64;
        attempted += expected;
        let missing = expected.saturating_sub(outcome.evals);
        match Journal::load(&journal_path(&campaign_dir(work, k))) {
            Ok(journal) => {
                let (d, t) = journaled_faults(&journal);
                diverged += d;
                timeouts += t;
                failed += (missing + t).min(expected);
                if matches!(workload, Workload::Gen | Workload::Steady) {
                    let (train, _) = build_dataset(config);
                    factors = work_factors(&journal, config, &train);
                }
            }
            Err(e) => {
                failed += expected;
                notes.push(format!("campaign {k}: journal unreadable: {e}"));
            }
        }
    }
    let journals: Vec<PathBuf> = (0..configs.len())
        .map(|k| journal_path(&campaign_dir(work, k)))
        .collect();
    ChildReport {
        wall_s,
        cpu_s,
        setup_s,
        peak_rss_mb,
        evals: outcomes.iter().map(|o| o.evals).sum(),
        attempted,
        failed,
        diverged,
        timeouts,
        factors,
        work_digest: digest_files(&journals),
        result_digest: combine_digests(&outcomes.iter().map(|o| o.digest).collect::<Vec<_>>()),
        pool_deaths: outcomes.iter().map(|o| o.pool_deaths).sum(),
        pool_retries: outcomes.iter().map(|o| o.pool_retries).sum(),
        notes,
    }
}

/// Where `replay` cycles put the copy they work on.
pub fn replay_copy_dir(work: &Path) -> PathBuf {
    work.join("copy")
}

/// `replay`: set-up builds one finished journal per mode; the timed region
/// is `R` cycles of verify → resume → compact on a copy of each.
fn replay_child(seed: u64, sizes: &Sizes, workers: usize, work: &Path) -> ChildReport {
    let configs = campaign_configs(Workload::Replay, seed, sizes, workers);
    let mut notes = Vec::new();

    // Set-up is fixture generation; it is seconds long, so it is sampled
    // fewer times than the millisecond set-up of the other workloads.
    let mut setup_times = Vec::new();
    let mut fixtures = Vec::new();
    for _ in 0..sizes.setup_samples.min(3) {
        let _ = std::fs::remove_dir_all(work);
        let t0 = Instant::now();
        for k in 0..configs.len() {
            std::fs::create_dir_all(campaign_dir(work, k)).expect("create work directory");
        }
        notes.clear();
        fixtures = run_campaigns(&configs, work, &mut notes);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);

    let fixture_frames: Vec<u64> = (0..configs.len())
        .map(|k| verify(&journal_path(&campaign_dir(work, k))).map_or(0, |r| r.frames))
        .collect();
    let fixture_ok = fixtures
        .iter()
        .zip(&configs)
        .all(|(o, c)| o.evals == expected_evals(c) as u64);

    let copy_dir = replay_copy_dir(work);
    std::fs::create_dir_all(&copy_dir).expect("create work directory");
    let copy_journal = journal_path(&copy_dir);
    let copy_status = status_path(&copy_dir);
    let mut records_read = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let cpu0 = cpu_seconds();
    let t_cycles = Instant::now();
    for cycle in 0..sizes.replay_cycles {
        for (k, config) in configs.iter().enumerate() {
            let fixture = journal_path(&campaign_dir(work, k));
            attempted += 3;
            if let Err(e) = std::fs::copy(&fixture, &copy_journal) {
                failed += 3;
                notes.push(format!(
                    "cycle {cycle} fixture {k}: cannot copy the fixture: {e}"
                ));
                continue;
            }
            let verified = match verify(&copy_journal) {
                Ok(r) if !r.damaged() && r.frames == fixture_frames[k] && r.frames > 1 => Ok(()),
                Ok(r) => Err(format!("verify: damaged or {} frames", r.frames)),
                Err(e) => Err(format!("verify: {e}")),
            };
            let resumed = match resume_campaign(config, &copy_journal, &copy_status) {
                Ok(r) if result_digest(&r) == fixtures[k].digest => Ok(()),
                Ok(_) => Err("resume: final populations differ from the fixture's".to_string()),
                Err(e) => Err(format!("resume: {e}")),
            };
            let compacted = match compact(&copy_journal) {
                Ok(r) if r.frames_after >= 1 && r.frames_after <= r.frames_before => Ok(()),
                Ok(r) => Err(format!(
                    "compact: {} -> {} frames",
                    r.frames_before, r.frames_after
                )),
                Err(e) => Err(format!("compact: {e}")),
            };
            for outcome in [verified, resumed, compacted] {
                if let Err(what) = outcome {
                    failed += 1;
                    notes.push(format!("cycle {cycle} fixture {k}: {what}"));
                }
            }
            records_read += 3 * fixture_frames[k];
        }
    }
    let wall_s = t_cycles.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mb = peak_rss_mb();
    if !fixture_ok {
        failed = attempted;
    }

    let journals: Vec<PathBuf> = (0..configs.len())
        .map(|k| journal_path(&campaign_dir(work, k)))
        .collect();
    ChildReport {
        wall_s,
        cpu_s,
        setup_s,
        peak_rss_mb,
        evals: records_read,
        attempted,
        failed,
        diverged: 0,
        timeouts: 0,
        factors: WorkFactors::NONE,
        work_digest: digest_files(&journals),
        result_digest: combine_digests(&fixtures.iter().map(|o| o.digest).collect::<Vec<_>>()),
        pool_deaths: fixtures.iter().map(|o| o.pool_deaths).sum(),
        pool_retries: fixtures.iter().map(|o| o.pool_retries).sum(),
        notes,
    }
}

/// Run one repeat in this process.
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    workers: usize,
    work: &Path,
) -> ChildReport {
    match workload {
        Workload::Replay => replay_child(seed, sizes, workers, work),
        _ => campaign_child(workload, seed, sizes, workers, work),
    }
}

impl ChildReport {
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("wall_s", Json::Number(self.wall_s)),
            ("cpu_s", Json::Number(self.cpu_s)),
            ("setup_s", Json::Number(self.setup_s)),
            ("peak_rss_mb", Json::Number(self.peak_rss_mb)),
            ("evals", Json::Number(self.evals as f64)),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("diverged", Json::Number(self.diverged as f64)),
            ("timeouts", Json::Number(self.timeouts as f64)),
            ("cpu_factor", Json::Number(self.factors.cpu)),
            ("wall_factor", Json::Number(self.factors.wall)),
            ("work_digest", Json::Number(f64::from(self.work_digest))),
            ("result_digest", Json::Number(f64::from(self.result_digest))),
            ("pool_deaths", Json::Number(self.pool_deaths as f64)),
            ("pool_retries", Json::Number(self.pool_retries as f64)),
            (
                "notes",
                Json::Array(self.notes.iter().cloned().map(Json::String).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<ChildReport> {
        let num = |key: &str| j.get(key).and_then(Json::as_f64);
        let notes = match j.get("notes") {
            Some(Json::Array(items)) => items
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        Some(ChildReport {
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            evals: num("evals")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            diverged: num("diverged")? as u64,
            timeouts: num("timeouts")? as u64,
            factors: WorkFactors {
                cpu: num("cpu_factor")?,
                wall: num("wall_factor")?,
            },
            work_digest: num("work_digest")? as u32,
            result_digest: num("result_digest")? as u32,
            pool_deaths: num("pool_deaths")? as u64,
            pool_retries: num("pool_retries")? as u64,
            notes,
        })
    }
}
