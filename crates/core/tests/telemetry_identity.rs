//! Bit-identity test for the telemetry subsystem: a campaign run with a
//! live recorder attached must produce byte-identical artifacts — journal,
//! populations, archives, analysis CSVs — to the same campaign run with
//! telemetry disabled. (Weight-level bit-identity is asserted one layer
//! down, in `dphpo-dnnp`'s `telemetry_recorder_does_not_change_trained_weights`;
//! here the populations' fitness values are pure functions of those
//! weights.) Two observed runs must additionally agree on every
//! deterministic telemetry export.

use std::path::PathBuf;
use std::sync::Arc;

use dphpo_core::analysis::{analyze, level_plot_csv};
use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentResult};
use dphpo_evo::Individual;
use dphpo_obs::{chrome, export, names, MemoryRecorder, Recorder};

/// Small campaign with faults and retries on, so telemetry rides along
/// every scheduler path (deaths, backoff) that could conceivably perturb
/// the run.
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.pop_size = 3;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 43;
    config
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-telemetry-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn canon_individual(ind: &Individual) -> String {
    format!(
        "genome={:?} fitness={:?} rank={} distance={:?} minutes={:?}",
        ind.genome,
        ind.fitness.as_ref().map(|f| f.values().to_vec()),
        ind.rank,
        ind.distance,
        ind.eval_minutes,
    )
}

/// Canonical text form of everything downstream analysis consumes; `{:?}`
/// on `f64` is shortest-round-trip, so equal strings mean bit-equal values.
fn canon(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for (run_idx, run) in result.runs.iter().enumerate() {
        out.push_str(&format!("run {run_idx} evaluations={}\n", run.evaluations));
        for record in &run.history {
            out.push_str(&format!("  gen {} failures={}\n", record.generation, record.failures));
            for ind in &record.population {
                out.push_str(&format!("    {}\n", canon_individual(ind)));
            }
        }
    }
    for (run_idx, archive) in result.archives.iter().enumerate() {
        out.push_str(&format!("archive {run_idx}\n"));
        for ind in archive.members() {
            out.push_str(&format!("    {}\n", canon_individual(ind)));
        }
    }
    out.push_str(&analyze(result).parallel_coordinates_csv());
    out.push_str(&level_plot_csv(result));
    out
}

#[test]
fn observed_campaign_is_bit_identical_to_unobserved() {
    let config = config();

    let plain_journal = scratch("plain.jsonl");
    let plain = Campaign::new(&config).journal(&plain_journal).run(None).expect("plain run");

    let observed_journal = scratch("observed.jsonl");
    let recorder = Arc::new(MemoryRecorder::with_wall_clock());
    let observed = Campaign::new(&config)
        .journal(&observed_journal)
        .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>)
        .run(None)
        .expect("observed run");

    // Everything the figures are built from is bit-identical.
    assert_eq!(canon(&plain), canon(&observed));

    // The write-ahead journals are byte-identical end to end: individual
    // ids are derived from (run seed, ordinal), and generational records
    // are released to the journal in slot order regardless of which worker
    // thread finished first, so no masking or sorting is needed.
    let plain_bytes = std::fs::read_to_string(&plain_journal).unwrap();
    let observed_bytes = std::fs::read_to_string(&observed_journal).unwrap();
    assert_eq!(plain_bytes, observed_bytes, "journals must match byte-for-byte");

    // The recorder actually saw the campaign: a generation span per batch,
    // an eval span per training, per-step events, and journal
    // cross-references with in-bounds byte offsets.
    let snap = recorder.snapshot();
    let n_batches = (config.n_runs * (config.generations + 1)) as u64;
    assert_eq!(snap.counter(names::C_GENERATIONS), n_batches);
    let evals = snap.events.iter().filter(|e| e.name == names::EVAL).count();
    assert_eq!(evals, config.n_runs * config.pop_size * (config.generations + 1));
    assert!(snap.counter(names::C_STEPS) > 0);
    let appends: Vec<f64> = snap
        .events
        .iter()
        .filter(|e| e.name == names::JOURNAL_APPEND)
        .map(|e| e.args.iter().find(|(k, _)| *k == "offset").expect("offset arg").1)
        .collect();
    assert_eq!(appends.len() as u64, snap.counter(names::C_JOURNAL_APPENDS));
    assert!(!appends.is_empty());
    for offset in &appends {
        assert!(*offset > 0.0 && *offset < observed_bytes.len() as f64);
        // The offset lands exactly at the start of a framed record line.
        assert_eq!(observed_bytes.as_bytes()[*offset as usize - 1], b'\n');
        assert!(observed_bytes[*offset as usize..].starts_with("J2 "));
    }

    let _ = std::fs::remove_file(&plain_journal);
    let _ = std::fs::remove_file(&observed_journal);
}

#[test]
fn deterministic_exports_are_identical_across_observed_runs() {
    let config = config();
    let export_of = |tag: &str| {
        let journal = scratch(&format!("exports-{tag}.jsonl"));
        let recorder = Arc::new(MemoryRecorder::with_wall_clock());
        Campaign::new(&config)
            .journal(&journal)
            .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>)
            .run(None)
            .expect("observed run");
        let _ = std::fs::remove_file(&journal);
        let snap = recorder.snapshot();
        (export::events_jsonl(&snap), chrome::trace_json(&snap))
    };
    let (events_a, trace_a) = export_of("a");
    let (events_b, trace_b) = export_of("b");
    // Span ids are derived from (seed, run, gen, task, attempt, step) and
    // timestamps from the simulated clock, so the deterministic exports are
    // byte-identical run to run — only the wall-clock side channel differs.
    for (i, (a, b)) in events_a.lines().zip(events_b.lines()).enumerate() {
        assert_eq!(a, b, "events_jsonl line {i} differs");
    }
    assert_eq!(events_a, events_b);
    assert_eq!(trace_a, trace_b);
    // The trace is Perfetto-shaped: worker lanes named, eval spans present.
    assert!(trace_a.starts_with("{\"displayTimeUnit\""));
    assert!(trace_a.contains("thread_name"));
    assert!(trace_a.contains("\"name\":\"eval\""));
    assert!(trace_a.contains("\"name\":\"train.step\""));
}
