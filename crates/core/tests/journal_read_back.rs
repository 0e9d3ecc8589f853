//! The journal as the one persisted form of a campaign: what
//! [`Journal::run_results`] reads back from a finished journal is what the
//! campaign held in memory when it ended — every field, every `f64` bit,
//! infinite crowding distances included — in both campaign modes; the
//! analysis the paper's figures are built from cannot tell the two apart;
//! the campaign report's failure breakdown is the journal's boundary records
//! summed per row; and a journal whose campaign was killed, at any task, is
//! refused with the first missing `(run, generation)` and left exactly as it
//! was.
//!
//! The configurations are the `journal_chaos` / `steady_state_identity`
//! ones (faults and retries on), so boundaries carry penalty
//! individuals as well as clean ones.

use std::path::PathBuf;

use dphpo_core::analysis::{analyze, level_plot_csv};
use dphpo_core::experiment::{Campaign, CampaignMode, ExperimentConfig, ExperimentResult};
use dphpo_core::journal::Journal;
use dphpo_core::CampaignStatus;
use dphpo_evo::nsga2::{GenerationRecord, RunResult};
use dphpo_hpc::PoolReport;

/// The `journal_chaos` campaign: 2 runs × 3 individuals × 2 generations.
fn chaos_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

/// The `steady_state_identity` campaign: 2 runs × 4 individuals × 2 epochs
/// over 3 slots.
fn steady_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.mode = CampaignMode::SteadyState;
    config.pool.n_workers = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

fn modes() -> [(&'static str, ExperimentConfig); 2] {
    [("generational", chaos_config()), ("steady", steady_config())]
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-readback-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Field-for-field equality of two run lists, `f64`s compared as bits.
fn assert_same_runs(read: &[RunResult], held: &[RunResult], tag: &str) {
    assert_eq!(read.len(), held.len(), "{tag}: run count");
    for (run, (a, b)) in read.iter().zip(held).enumerate() {
        assert_eq!(a.evaluations, b.evaluations, "{tag}: run {run} evaluations");
        assert_eq!(a.history.len(), b.history.len(), "{tag}: run {run} history length");
        for (ga, gb) in a.history.iter().zip(&b.history) {
            let at = format!("{tag}: run {run} generation {}", gb.generation);
            assert_eq!(ga.generation, gb.generation, "{at}");
            assert_eq!(ga.failures, gb.failures, "{at}: failures");
            assert_eq!(ga.population.len(), gb.population.len(), "{at}: population size");
            for (slot, (ia, ib)) in ga.population.iter().zip(&gb.population).enumerate() {
                let at = format!("{at} slot {slot}");
                assert_eq!(ia.id, ib.id, "{at}: id");
                assert_eq!(bits(&ia.genome), bits(&ib.genome), "{at}: genome");
                assert_eq!(
                    ia.fitness.as_ref().map(|f| bits(f.values())),
                    ib.fitness.as_ref().map(|f| bits(f.values())),
                    "{at}: fitness"
                );
                assert_eq!(ia.rank, ib.rank, "{at}: rank");
                assert_eq!(ia.distance.to_bits(), ib.distance.to_bits(), "{at}: distance");
                assert_eq!(
                    ia.eval_minutes.map(f64::to_bits),
                    ib.eval_minutes.map(f64::to_bits),
                    "{at}: minutes"
                );
            }
        }
    }
}

/// What the figure binaries build around journal-read runs.
fn result_around(config: &ExperimentConfig, runs: Vec<RunResult>) -> ExperimentResult {
    ExperimentResult {
        config: config.clone(),
        runs,
        pool_reports: Vec::new(),
        archives: Vec::new(),
        status: CampaignStatus::default(),
    }
}

#[test]
fn a_finished_journal_reads_back_the_runs_the_campaign_held_bit_for_bit() {
    for (mode, config) in modes() {
        let path = scratch(&format!("{mode}-finished.jsonl"));
        let held = Campaign::new(&config).journal(&path).run(None).expect("campaign");
        let journal = Journal::load(&path).expect("load");
        assert_eq!(
            (journal.n_runs, journal.pop_size, journal.n_generations),
            (config.n_runs, config.pop_size, config.generations),
            "{mode}: header fields"
        );
        let read = journal.run_results().expect("a finished journal reads back");
        assert_same_runs(&read, &held.runs, mode);
        // JSON has no literal for infinity: a front's boundary crowding
        // distances are +inf, and must come back as +inf.
        assert!(
            read.iter()
                .flat_map(|r| &r.history)
                .flat_map(|g| &g.population)
                .any(|i| i.distance == f64::INFINITY),
            "{mode}: expected infinite crowding distances in the populations"
        );

        // Downstream of the read: the figures' analysis is the in-memory one.
        let rebuilt = result_around(&config, read);
        let (a, b) = (analyze(&rebuilt), analyze(&held));
        assert_eq!(a.parallel_coordinates_csv(), b.parallel_coordinates_csv(), "{mode}");
        assert_eq!(a.table2(), b.table2(), "{mode}");
        assert_eq!(
            (&a.frontier, &a.accurate, a.lowest_force, a.lowest_energy, a.lowest_runtime),
            (&b.frontier, &b.accurate, b.lowest_force, b.lowest_energy, b.lowest_runtime),
            "{mode}"
        );
        assert_eq!(level_plot_csv(&rebuilt), level_plot_csv(&held), "{mode}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The campaign report's failure breakdown cells for a set of journaled
/// boundaries: `failures` from the generation records, every other column
/// from the scheduler reports, summed in the order given.
fn breakdown_cells(boundaries: &[(&GenerationRecord, &PoolReport)]) -> Vec<String> {
    let count = |f: &dyn Fn(&GenerationRecord, &PoolReport) -> usize| -> String {
        boundaries.iter().map(|(g, r)| f(g, r)).sum::<usize>().to_string()
    };
    let minutes = |f: &dyn Fn(&PoolReport) -> f64| -> String {
        format!("{:.1}", boundaries.iter().fold(0.0, |sum, (_, r)| sum + f(r)))
    };
    vec![
        count(&|g, _| g.failures),
        count(&|_, r| r.diverged_tasks),
        count(&|_, r| r.timeout_tasks),
        count(&|_, r| r.exhausted_tasks),
        count(&|_, r| r.cancelled_tasks),
        count(&|_, r| r.worker_deaths),
        count(&|_, r| r.retried_tasks),
        minutes(&|r| r.lost_death_minutes.iter().sum()),
        minutes(&|r| r.backoff_slot_minutes.iter().sum()),
        minutes(&|r| r.makespan_minutes),
    ]
}

#[test]
fn the_reports_failure_breakdown_is_the_journal_folded_per_row() {
    for mode in [CampaignMode::Generational, CampaignMode::SteadyState] {
        // Half the attempts die, two attempts each: deaths, retries, and
        // trainings that fail for good.
        let mut config = ExperimentConfig::smoke();
        config.mode = mode;
        config.fault_probability = 0.4;
        config.pool.nanny = true;
        config.pool.max_attempts = 2;
        config.master_seed = 41;
        let path = scratch(&format!("{mode:?}-breakdown.jsonl"));
        let result = Campaign::new(&config).journal(&path).run(None).expect("campaign");
        let journal = Journal::load(&path).expect("load");
        let boundaries: Vec<(usize, (&GenerationRecord, &PoolReport))> = match mode {
            CampaignMode::Generational => {
                journal.generations.iter().map(|(&(_, g), e)| (g, (&e.record, &e.report))).collect()
            }
            CampaignMode::SteadyState => {
                journal.epochs.iter().map(|(&(_, g), e)| (g, (&e.record, &e.report))).collect()
            }
        };
        let all: Vec<_> = boundaries.iter().map(|&(_, b)| b).collect();
        let totals = breakdown_cells(&all);
        for (column, what) in [(0, "failed training"), (5, "death"), (6, "retry")] {
            assert_ne!(totals[column], "0", "{mode:?}: the fault plan produced no {what}");
        }

        let report = dphpo_core::markdown_report(&result.status, mode);
        let table = report.split("## Failure breakdown").nth(1).expect("breakdown section");
        let rows: Vec<Vec<&str>> = table
            .lines()
            .map(|line| line.split('|').map(str::trim).filter(|cell| !cell.is_empty()).collect::<Vec<_>>())
            .filter(|cells| cells.first().is_some_and(|c| *c == "all" || c.parse::<usize>().is_ok()))
            .collect();
        assert_eq!(rows.len(), config.generations + 2, "{mode:?}: one row per boundary, then all");
        for (g, row) in rows.iter().enumerate().take(config.generations + 1) {
            let at_g: Vec<_> = boundaries.iter().filter(|&&(b, _)| b == g).map(|&(_, b)| b).collect();
            assert_eq!(row[0], g.to_string(), "{mode:?}");
            assert_eq!(row[1..], breakdown_cells(&at_g)[..], "{mode:?}: row {g}");
        }
        let last = rows.last().unwrap();
        assert_eq!(last[0], "all", "{mode:?}");
        assert_eq!(last[1..], totals[..], "{mode:?}: the all row");
        for column in 1..=7 {
            let sum: usize = rows[..rows.len() - 1].iter().map(|r| r[column].parse::<usize>().unwrap()).sum();
            assert_eq!(last[column], sum.to_string(), "{mode:?}: column {column} of the all row");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_journal_killed_at_any_task_is_refused_with_the_first_missing_boundary() {
    for (mode, config) in modes() {
        let per_run = config.pop_size * (config.generations + 1);
        let total = config.n_runs * per_run;
        for kill_after in 0..=total {
            let path = scratch(&format!("{mode}-kill-{kill_after}.jsonl"));
            let outcome =
                Campaign::new(&config).journal(&path).kill_after(kill_after as u64).run(None);
            assert!(outcome.is_err(), "{mode} kill_after={kill_after} must interrupt");
            let before = std::fs::read(&path).unwrap();

            // The completion that kills the driver closes nothing — a
            // generation it filled is never written, the driver is dead — so
            // the first missing boundary is the one holding task `k - 1`.
            let done = kill_after.saturating_sub(1);
            let (run, generation) = (done / per_run, (done % per_run) / config.pop_size);
            let err = Journal::load(&path)
                .expect("a killed journal still loads")
                .run_results()
                .expect_err("an unfinished journal must be refused");
            assert!(
                err.message.contains(&format!("(run {run}, generation {generation})")),
                "{mode} kill_after={kill_after}: expected (run {run}, generation {generation}) \
                 in: {err}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "{mode} kill_after={kill_after}: reading changed the journal"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}
