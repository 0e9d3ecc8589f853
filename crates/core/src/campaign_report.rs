//! Campaign observatory: a deterministic, resumable status surface.
//!
//! Every generation boundary distils two stories into one [`GenStatus`]
//! row — *search quality* (Pareto-archive hypervolume, cardinality, spread,
//! and dominance churn) and *resource efficiency* (the scheduler's
//! busy/idle/backoff/lost utilization partition) — and rewrites
//! `campaign_status.json` atomically. The rows are pure functions of data
//! the write-ahead journal already persists (each generation's population
//! and scheduler report), so a killed-and-resumed campaign reproduces the
//! status file, the end-of-run report, and the Chrome counter tracks
//! byte-for-byte (see DESIGN.md §11 for the determinism contract). That is
//! why this module renders every per-generation table and counter track a
//! campaign leaves behind, and nothing renders them from the live event
//! stream: a resumed campaign never re-emits its replayed generations'
//! events.
//!
//! The row and the status document are declared once, field by field with
//! their keys, through the journal's record codec: the same declaration
//! writes the file, reads it back strictly in [`parse_status`], and carries
//! the row inside every steady-state `epoch` record.
//!
//! The sim-clock attribution tree behind `profile.json` / `profile.folded`
//! and the report's "where the microsecond goes" table is one more rendering
//! of the rows ([`campaign_profile`]):
//!
//! ```text
//! campaign                      count 0
//! └─ run{r}                     count 0
//!    └─ gen{g}                  count 1, self 0 — inclusive = slot capacity
//!       ├─ backoff              count = retried,     self = backoff_minutes
//!       ├─ busy                 count = evaluations, self = busy_minutes
//!       ├─ idle                 count 0,             self = idle_minutes
//!       └─ lost.death           count = deaths,      self = lost_death_minutes
//! ```
//!
//! A steady-state epoch is a `gen{g}` node too. By the scheduler's partition
//! invariant a boundary's four leaves sum to its `wall × slots`
//! worker-minutes.
//!
//! The hypervolume convention: objectives are minimised `(energy RMSE
//! eV/atom, force RMSE eV/Å)` and the fixed reference point is
//! [`REFERENCE_POINT`] — the same `(0.03, 0.6)` box the fig1 level plots
//! cull to, so a row's hypervolume is directly comparable across
//! generations, runs, and campaigns.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use dphpo_evo::nsga2::GenerationRecord;
use dphpo_evo::{front_stats_2d, ArchiveChurn, FrontStats, ParetoArchive};
use dphpo_hpc::PoolReport;
use dphpo_obs::chrome::{render, TraceEvent, US_PER_MIN};
use dphpo_obs::cats;
use dphpo_obs::json::{Json, Reader};
use dphpo_obs::profile::{folded, ProfileNode, PROFILE_SCHEMA};

use crate::experiment::{CampaignMode, ExperimentConfig};
use crate::journal::record;

/// Schema tag written into `campaign_status.json`.
const STATUS_SCHEMA: &str = "dphpo-campaign-status-v1";

/// Fixed hypervolume reference point `(energy RMSE eV/atom, force RMSE
/// eV/Å)` — the fig1 level-plot axis limits, beyond which the paper culls
/// outliers.
pub const REFERENCE_POINT: (f64, f64) = (0.03, 0.6);

record! {
    /// One generation boundary's observatory row: search quality plus the
    /// utilization partition, every field a deterministic function of the
    /// journaled generation record and scheduler report. `campaign_status.json`
    /// carries it, and so does every steady-state `epoch` record.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct GenStatus {
        /// Generation index (0 = the random initial generation).
        "generation" => pub generation: usize,
        /// Evaluations submitted this generation (population size).
        "evaluations" => pub evaluations: usize,
        /// Evaluations that came back as MAXINT penalties.
        "failures" => pub failures: usize,
        /// Archive hypervolume against [`REFERENCE_POINT`] after this
        /// generation's population was absorbed.
        "hypervolume" => pub hypervolume: f64,
        /// Archive cardinality at the boundary.
        "cardinality" => pub cardinality: usize,
        /// Front spread (gap uniformity; 0 = perfectly uniform).
        "spread" => pub spread: f64,
        /// Dominance churn: individuals admitted to the archive.
        "added" => pub added: usize,
        /// Dominance churn: archive members evicted by admissions.
        "evicted" => pub evicted: usize,
        /// Scheduler makespan of this generation's batch, minutes.
        "makespan_minutes" => pub makespan_minutes: f64,
        /// Backoff-inclusive wall clock of the batch, minutes.
        "wall_minutes" => pub wall_minutes: f64,
        /// Σ busy minutes across worker slots.
        "busy_minutes" => pub busy_minutes: f64,
        /// Σ idle minutes across worker slots.
        "idle_minutes" => pub idle_minutes: f64,
        /// Σ retry-backoff minutes across worker slots.
        "backoff_minutes" => pub backoff_minutes: f64,
        /// Σ minutes lost to dead attempts.
        "lost_death_minutes" => pub lost_death_minutes: f64,
        /// Busy share of worker-minutes capacity, percent.
        "utilization_pct" => pub utilization_pct: f64,
        /// Worker deaths.
        "deaths" => pub deaths: usize,
        /// Tasks retried at least once.
        "retried" => pub retried: usize,
        /// Terminal diverged / structural failures.
        "diverged" => pub diverged: usize,
        /// Terminal timeouts.
        "timeout" => pub timeout: usize,
        /// Terminal cancellations.
        "cancelled" => pub cancelled: usize,
        /// Tasks that exhausted their retry budget.
        "exhausted" => pub exhausted: usize,
    }
}

record! {
    /// One run's status rows, oldest generation first.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RunStatus {
        /// Run index (Chrome-trace process id).
        "run" => pub run: usize,
        /// Rows for the generation boundaries reached so far.
        "generations" => pub generations: Vec<GenStatus>,
    }
}

record! {
    /// The whole campaign's live status: configuration echo plus per-run rows.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct CampaignStatus, "schema" = STATUS_SCHEMA {
        /// Independent EA deployments configured.
        "n_runs" => pub n_runs: usize,
        /// Population size per generation.
        "pop_size" => pub pop_size: usize,
        /// EA steps after the random initial generation.
        "generations" => pub generations: usize,
        /// Hypervolume reference point `(energy, force)`.
        "reference_point" => pub reference: (f64, f64),
        /// Per-run rows (a run appears once its first boundary lands).
        "runs" => pub runs: Vec<RunStatus>,
    }
}

impl CampaignStatus {
    /// An empty status for `config`, rows to be filled per boundary.
    pub fn new(config: &ExperimentConfig) -> Self {
        CampaignStatus {
            n_runs: config.n_runs,
            pop_size: config.pop_size,
            generations: config.generations,
            reference: REFERENCE_POINT,
            runs: Vec::new(),
        }
    }

    /// Replace (or install) one run's rows.
    pub fn set_run(&mut self, run: usize, rows: Vec<GenStatus>) {
        if let Some(existing) = self.runs.iter_mut().find(|r| r.run == run) {
            existing.generations = rows;
        } else {
            self.runs.push(RunStatus { run, generations: rows });
            self.runs.sort_by_key(|r| r.run);
        }
    }

    /// Every row of every run, run by run.
    pub fn rows(&self) -> impl Iterator<Item = &GenStatus> {
        self.runs.iter().flat_map(|r| &r.generations)
    }

    /// Append one boundary row to a run.
    pub fn push_row(&mut self, run: usize, row: GenStatus) {
        if let Some(existing) = self.runs.iter_mut().find(|r| r.run == run) {
            existing.generations.push(row);
        } else {
            self.runs.push(RunStatus { run, generations: vec![row] });
            self.runs.sort_by_key(|r| r.run);
        }
    }
}

/// Build one boundary row from the live archive state and this
/// generation's record, churn, and scheduler report.
pub fn generation_row(
    record: &GenerationRecord,
    archive: &ParetoArchive,
    churn: ArchiveChurn,
    report: &PoolReport,
) -> GenStatus {
    let stats: FrontStats = front_stats_2d(&archive.objective_pairs(), REFERENCE_POINT);
    let busy: f64 = report.busy_minutes.iter().sum();
    let idle: f64 = report.idle_minutes.iter().sum();
    let backoff: f64 = report.backoff_slot_minutes.iter().sum();
    let lost_death: f64 = report.lost_death_minutes.iter().sum();
    let capacity = report.wall_minutes * report.busy_minutes.len() as f64;
    GenStatus {
        generation: record.generation,
        evaluations: record.population.len(),
        failures: record.failures,
        hypervolume: stats.hypervolume,
        cardinality: stats.cardinality,
        spread: stats.spread,
        added: churn.added,
        evicted: churn.evicted,
        makespan_minutes: report.makespan_minutes,
        wall_minutes: report.wall_minutes,
        busy_minutes: busy,
        idle_minutes: idle,
        backoff_minutes: backoff,
        lost_death_minutes: lost_death,
        utilization_pct: if capacity > 0.0 { busy / capacity * 100.0 } else { 0.0 },
        deaths: report.worker_deaths,
        retried: report.retried_tasks,
        diverged: report.diverged_tasks,
        timeout: report.timeout_tasks,
        cancelled: report.cancelled_tasks,
        exhausted: report.exhausted_tasks,
    }
}

/// Rebuild one run's rows from its generation records and reports by
/// replaying the archive offers from scratch — the exact operation
/// sequence the live run performed, so a resumed campaign's rows are
/// bit-identical to the uninterrupted run's.
pub fn replay_rows(records: &[GenerationRecord], reports: &[PoolReport]) -> Vec<GenStatus> {
    let mut archive = ParetoArchive::new();
    records
        .iter()
        .zip(reports)
        .map(|(record, report)| {
            let churn = archive.offer_all_counted(&record.population);
            generation_row(record, &archive, churn, report)
        })
        .collect()
}

/// Render the status as deterministic pretty JSON (sorted keys, shortest
/// round-trip numbers, trailing newline).
pub fn status_json(status: &CampaignStatus) -> String {
    format!("{}\n", status.to_json())
}

/// Rewrite `path` atomically and durably: the new contents land in a
/// sibling temp file first (written and fsynced), the *parent directory*
/// is fsynced so the temp file's existence survives a power loss, the temp
/// file is renamed over the target, and the directory is fsynced again so
/// the rename itself is durable. A reader (or a crash) never sees a torn
/// status, and after a crash the file is either the old or the new bytes.
pub fn write_status_atomic(path: &Path, status: &CampaignStatus) -> std::io::Result<()> {
    write_atomic(path, &status_json(status))
}

/// The atomic-rewrite primitive behind [`write_status_atomic`],
/// [`write_profile_atomic`] and `journal::compact`: write-and-fsync a
/// `<name>.tmp` sibling, fsync the parent directory, rename over the target,
/// fsync the directory again.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    sync_parent_dir(path)?;
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Fsync the directory containing `path`, making directory-entry changes
/// (a new file, a rename) durable. A bare relative path has an empty
/// parent, which means the current directory.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::File::open(parent)?.sync_all()
}

/// The attribution tree of `status` on the simulated clock (the shape is in
/// the module docs): each `gen{g}` node partitions its row's slot capacity
/// into the row's busy, idle, backoff and lost-death minutes, bit for bit.
pub fn campaign_profile(status: &CampaignStatus) -> ProfileNode {
    let runs = status.runs.iter().map(|r| {
        let gens = r.generations.iter().map(|row| {
            let leaves = vec![
                ProfileNode::leaf("busy", row.evaluations as u64, row.busy_minutes),
                ProfileNode::leaf("idle", 0, row.idle_minutes),
                ProfileNode::leaf("backoff", row.retried as u64, row.backoff_minutes),
                ProfileNode::leaf("lost.death", row.deaths as u64, row.lost_death_minutes),
            ];
            ProfileNode::branch(format!("gen{}", row.generation), 1, 0.0, leaves)
        });
        ProfileNode::branch(format!("run{}", r.run), 0, 0.0, gens.collect())
    });
    ProfileNode::branch("campaign", 0, 0.0, runs.collect())
}

fn node_json(node: &ProfileNode) -> Json {
    Json::object(vec![
        ("name", Json::String(node.name.clone())),
        ("count", Json::Number(node.count as f64)),
        ("self_min", Json::Number(node.self_min)),
        ("inclusive_min", Json::Number(node.inclusive_min)),
        ("children", Json::Array(node.children.iter().map(node_json).collect())),
    ])
}

/// The profile document (schema [`PROFILE_SCHEMA`]): the tree as
/// deterministic pretty JSON — same tree, same bytes.
fn profile_json(root: &ProfileNode) -> String {
    let fields = vec![
        ("schema", Json::String(PROFILE_SCHEMA.into())),
        ("clock", Json::String("sim_minutes".into())),
        ("root", node_json(root)),
    ];
    format!("{}\n", Json::object(fields))
}

/// Rewrite `profile.json` and `profile.folded` in `dir` from `status`, each
/// atomically (like `campaign_status.json`): a crash leaves either the
/// previous or the new artifacts, never torn ones.
pub(crate) fn write_profile_atomic(dir: &Path, status: &CampaignStatus) -> std::io::Result<()> {
    let root = campaign_profile(status);
    fs::create_dir_all(dir)?;
    write_atomic(&dir.join("profile.json"), &profile_json(&root))?;
    write_atomic(&dir.join("profile.folded"), &folded(&root))
}

/// Parse a `campaign_status.json` document back into a [`CampaignStatus`]
/// (used by tooling; the campaign itself never reads the file back). As
/// strict as the journal: a wrong `schema`, a malformed `reference_point`, or
/// a field that is missing, negative, fractional or of the wrong type is an
/// error naming its key.
pub fn parse_status(text: &str) -> Result<CampaignStatus, String> {
    let mut r = Reader::new(text);
    let status = CampaignStatus::read(&mut r).map_err(|e| e.message)?;
    r.end().map_err(|e| e.to_string())?;
    Ok(status)
}

/// The end-of-run report: hypervolume trajectory, utilization table, and
/// failure breakdown in markdown — every byte a function of the status. A
/// row is a generation or, in a steady-state campaign (`mode`), an epoch,
/// and is labelled so.
pub fn markdown_report(status: &CampaignStatus, mode: CampaignMode) -> String {
    use std::fmt::Write as _;
    let label = mode.row_label();
    let mut out = String::new();
    let _ = writeln!(out, "# Campaign report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} runs × population {} × {} {label}s (+1 random); hypervolume \
         reference point (energy, force) = ({}, {}).",
        status.n_runs,
        status.pop_size,
        status.generations,
        status.reference.0,
        status.reference.1
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Hypervolume trajectory");
    let _ = writeln!(out);
    let _ = writeln!(out, "| {label} | {}mean |", header_cells(status));
    let _ = writeln!(out, "|----:|{}-----:|", "-----:|".repeat(status.runs.len()));
    let max_gens = status.runs.iter().map(|r| r.generations.len()).max().unwrap_or(0);
    for g in 0..max_gens {
        let mut cells = String::new();
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &status.runs {
            match r.generations.get(g) {
                Some(row) => {
                    let _ = write!(cells, " {:.3e} |", row.hypervolume);
                    sum += row.hypervolume;
                    n += 1;
                }
                None => cells.push_str(" - |"),
            }
        }
        let mean = if n > 0 { sum / n as f64 } else { 0.0 };
        let _ = writeln!(out, "| {g} |{cells} {mean:.3e} |");
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Utilization");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| run | wall min | busy % | idle % | backoff % | lost-death % |"
    );
    let _ = writeln!(out, "|----:|---------:|-------:|-------:|----------:|-------------:|");
    for r in &status.runs {
        let _ = writeln!(out, "| {} |{}", r.run, SlotTotals::of(&r.generations).cells());
    }
    let _ = writeln!(out, "| all |{}", SlotTotals::of(status.rows()).cells());
    let _ = writeln!(out);

    let _ = writeln!(out, "## Failure breakdown");
    let _ = writeln!(out);
    let _ = writeln!(out, "Per {label}, summed over runs; minutes are simulated.");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| {label} | failures | diverged | timeout | exhausted | cancelled | deaths | retried \
         | lost min | backoff min | makespan min |"
    );
    let _ = writeln!(out, "|----:|{}", "-----:|".repeat(10));
    for g in 0..max_gens {
        let rows = status.runs.iter().filter_map(|r| r.generations.get(g));
        let _ = writeln!(out, "| {g} |{}", failure_cells(rows));
    }
    let _ = writeln!(out, "| all |{}", failure_cells(status.rows()));
    out
}

/// One failure-breakdown row: the failure and supervision counters and the
/// lost / backoff / makespan minutes of `rows`, summed.
fn failure_cells<'a>(rows: impl IntoIterator<Item = &'a GenStatus>) -> String {
    use std::fmt::Write as _;
    let (mut counts, mut minutes) = ([0usize; 7], [0.0f64; 3]);
    for row in rows {
        let c = [
            row.failures,
            row.diverged,
            row.timeout,
            row.exhausted,
            row.cancelled,
            row.deaths,
            row.retried,
        ];
        let m = [row.lost_death_minutes, row.backoff_minutes, row.makespan_minutes];
        counts.iter_mut().zip(c).for_each(|(sum, v)| *sum += v);
        minutes.iter_mut().zip(m).for_each(|(sum, v)| *sum += v);
    }
    let mut cells = String::new();
    for c in counts {
        let _ = write!(cells, " {c} |");
    }
    for m in minutes {
        let _ = write!(cells, " {m:.1} |");
    }
    cells
}

fn header_cells(status: &CampaignStatus) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in &status.runs {
        let _ = write!(s, "run {} | ", r.run);
    }
    s
}

/// Simulated slot-minutes summed over status rows: one line of the report's
/// utilization table, and one mode of `fig1 --compare-modes`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotTotals {
    /// Σ backoff-inclusive wall clock.
    pub wall: f64,
    /// Σ busy minutes.
    pub busy: f64,
    /// Σ idle minutes.
    pub idle: f64,
    /// Σ retry-backoff minutes.
    pub backoff: f64,
    /// Σ minutes lost to dead attempts.
    pub lost_death: f64,
    /// Σ worker-minutes capacity (wall × workers, which the four categories
    /// partition exactly).
    pub capacity: f64,
}

impl SlotTotals {
    /// The totals of `rows`, summed in order.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a GenStatus>) -> Self {
        let mut t = SlotTotals::default();
        for row in rows {
            t.wall += row.wall_minutes;
            t.busy += row.busy_minutes;
            t.idle += row.idle_minutes;
            t.backoff += row.backoff_minutes;
            t.lost_death += row.lost_death_minutes;
            // Capacity (wall × workers) equals the category sum exactly,
            // by the scheduler's partition invariant.
            t.capacity += row.busy_minutes
                + row.idle_minutes
                + row.backoff_minutes
                + row.lost_death_minutes;
        }
        t
    }

    /// `minutes` as a percentage of the capacity (0 when there is none).
    pub fn pct(&self, minutes: f64) -> f64 {
        if self.capacity > 0.0 { minutes / self.capacity * 100.0 } else { 0.0 }
    }

    fn cells(&self) -> String {
        format!(
            " {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            self.wall,
            self.pct(self.busy),
            self.pct(self.idle),
            self.pct(self.backoff),
            self.pct(self.lost_death)
        )
    }
}

/// Chrome counter tracks derived from the status: per run, `queue depth`
/// and `utilization %` at each generation's start and `hypervolume` at its
/// end, on the simulated clock. Derived from the status — not the live
/// event stream — so a killed-and-resumed campaign exports the same bytes
/// as an uninterrupted one (replayed generations never re-emit live
/// events).
pub fn counter_tracks(status: &CampaignStatus) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for r in &status.runs {
        let pid = r.run as u64;
        let mut clock_min = 0.0f64;
        for row in &r.generations {
            let start_us = clock_min * US_PER_MIN;
            clock_min += row.makespan_minutes;
            let end_us = clock_min * US_PER_MIN;
            out.push(TraceEvent::counter(
                "queue depth",
                cats::EA,
                pid,
                start_us,
                row.evaluations as f64,
            ));
            out.push(TraceEvent::counter(
                "utilization %",
                cats::EA,
                pid,
                start_us,
                row.utilization_pct,
            ));
            out.push(TraceEvent::counter("hypervolume", cats::EA, pid, end_us, row.hypervolume));
        }
    }
    out
}

/// [`counter_tracks`] rendered as a Perfetto-loadable trace document.
pub fn counter_trace_json(status: &CampaignStatus) -> String {
    render(&counter_tracks(status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_evo::{Fitness, Individual};

    fn ind(e: f64, f: f64) -> Individual {
        let mut i = Individual::new(vec![0.0]);
        i.fitness = Some(Fitness::new(vec![e, f]));
        i
    }

    fn record(generation: usize, points: &[(f64, f64)]) -> GenerationRecord {
        GenerationRecord {
            generation,
            population: points.iter().map(|&(e, f)| ind(e, f)).collect(),
            failures: 0,
        }
    }

    fn report(makespan: f64) -> PoolReport {
        PoolReport {
            makespan_minutes: makespan,
            wall_minutes: makespan,
            busy_minutes: vec![makespan, makespan * 0.5],
            idle_minutes: vec![0.0, makespan * 0.5],
            lost_death_minutes: vec![0.0, 0.0],
            backoff_slot_minutes: vec![0.0, 0.0],
            per_worker_minutes: vec![makespan, makespan * 0.5],
            ..PoolReport::default()
        }
    }

    fn sample_status() -> CampaignStatus {
        let records =
            vec![record(0, &[(0.02, 0.5), (0.025, 0.45)]), record(1, &[(0.01, 0.3)])];
        let reports = vec![report(100.0), report(80.0)];
        let rows = replay_rows(&records, &reports);
        let mut status = CampaignStatus {
            n_runs: 1,
            pop_size: 2,
            generations: 1,
            reference: REFERENCE_POINT,
            runs: Vec::new(),
        };
        status.set_run(0, rows);
        status
    }

    #[test]
    fn replay_rows_track_archive_progress() {
        let status = sample_status();
        let rows = &status.runs[0].generations;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].added, 2);
        // (0.01, 0.3) dominates both generation-0 members.
        assert_eq!(rows[1].added, 1);
        assert_eq!(rows[1].evicted, 2);
        assert_eq!(rows[1].cardinality, 1);
        assert!(rows[1].hypervolume > rows[0].hypervolume);
        assert!((rows[0].utilization_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn status_json_round_trips() {
        let status = sample_status();
        let text = status_json(&status);
        assert!(text.contains("\"schema\": \"dphpo-campaign-status-v1\""));
        let parsed = parse_status(&text).expect("parse");
        assert_eq!(parsed, status);
        // Deterministic: same value, same bytes.
        assert_eq!(text, status_json(&parsed));
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dphpo_status_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign_status.json");
        let status = sample_status();
        write_status_atomic(&path, &status).unwrap();
        write_status_atomic(&path, &status).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), status_json(&status));
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_profile_renders_each_row_as_four_leaves() {
        let mut status = sample_status();
        let row = &mut status.runs[0].generations[1];
        (row.retried, row.deaths, row.backoff_minutes, row.lost_death_minutes) = (2, 1, 3.0, 5.0);
        let root = campaign_profile(&status);
        assert_eq!((root.name.as_str(), root.count, root.size()), ("campaign", 0, 12));
        let run = &root.children[0];
        assert_eq!((run.name.as_str(), run.count), ("run0", 0));
        let leaves = |g: &ProfileNode| {
            g.children
                .iter()
                .map(|c| (c.name.clone(), c.count, c.self_min, c.children.len()))
                .collect::<Vec<_>>()
        };
        let (gen0, gen1) = (&run.children[0], &run.children[1]);
        assert_eq!((gen0.name.as_str(), gen0.count, gen0.self_min), ("gen0", 1, 0.0));
        let want = |evaluations, busy, idle, retried, backoff, deaths, lost| {
            vec![
                ("backoff".to_string(), retried, backoff, 0),
                ("busy".to_string(), evaluations, busy, 0),
                ("idle".to_string(), 0, idle, 0),
                ("lost.death".to_string(), deaths, lost, 0),
            ]
        };
        assert_eq!(leaves(gen0), want(2, 150.0, 50.0, 0, 0.0, 0, 0.0));
        assert_eq!(leaves(gen1), want(1, 120.0, 40.0, 2, 3.0, 1, 5.0));
        // A generation's inclusive time is its slot capacity: wall × slots.
        assert_eq!((gen0.inclusive_min, root.inclusive_min), (200.0, 368.0));
    }

    #[test]
    fn profile_json_is_deterministic_and_schema_tagged() {
        let status = sample_status();
        let root = campaign_profile(&status);
        let text = profile_json(&root);
        assert!(text.contains("\"schema\": \"dphpo-profile-v1\""));
        assert!(text.contains("\"clock\": \"sim_minutes\""));
        // Same rows, same bytes — also after the rows' own round trip.
        let reread = parse_status(&status_json(&status)).unwrap();
        assert_eq!(text, profile_json(&campaign_profile(&reread)));
        let out = folded(&root);
        assert!(out.contains("campaign;run0;gen0;busy 9000000000\n"), "{out}");
        let table = dphpo_obs::profile::markdown_table(&root);
        assert!(table.contains("| · · gen0 | 1 | 200.0000 | 0.0000 | 0.00% |"), "{table}");
    }

    #[test]
    fn atomic_profile_write_leaves_both_artifacts() {
        let dir = std::env::temp_dir().join(format!("dphpo_profile_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let status = sample_status();
        write_profile_atomic(&dir, &status).unwrap();
        write_profile_atomic(&dir, &status).unwrap();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        let root = campaign_profile(&status);
        assert_eq!(read("profile.json"), profile_json(&root));
        assert_eq!(read("profile.folded"), folded(&root));
        assert!(!dir.join("profile.json.tmp").exists());
        assert!(!dir.join("profile.folded.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markdown_report_contains_all_sections() {
        let text = markdown_report(&sample_status(), CampaignMode::Generational);
        assert!(text.contains("## Hypervolume trajectory"));
        assert!(text.contains("## Utilization"));
        assert!(text.contains("## Failure breakdown"));
        assert!(text.contains("| all |"));
        // The utilization percentages partition to 100 for run 0.
        assert!(text.contains("75.0"), "busy share missing: {text}");
        assert!(text.contains("× 1 generations (+1 random)") && text.contains("| generation |"));
        // A steady-state report is the same tables with its rows called epochs.
        let steady = markdown_report(&sample_status(), CampaignMode::SteadyState);
        assert_eq!(steady.replace("epoch", "generation"), text);
    }

    #[test]
    fn counter_tracks_follow_the_simulated_clock() {
        let events = counter_tracks(&sample_status());
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e.ph == 'C'));
        // Generation 1's hypervolume sample lands at the cumulative
        // makespan (100 + 80 minutes).
        let hv: Vec<_> = events.iter().filter(|e| e.name == "hypervolume").collect();
        assert_eq!(hv[1].ts_us, 180.0 * US_PER_MIN);
        let doc = counter_trace_json(&sample_status());
        assert!(doc.contains("\"ph\":\"C\""));
    }
}
