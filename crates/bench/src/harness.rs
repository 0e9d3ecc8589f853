//! Shared helpers for the figure/table regeneration binaries: artifact
//! output, experiment-scale selection, and a JSON snapshot of experiment
//! results so the expensive EA runs execute once (`fig1` writes the
//! snapshot; `fig2_table2`, `fig3`, and `table3` reuse it).

use std::path::PathBuf;

use dphpo_core::experiment::{Campaign, ExperimentConfig, ExperimentResult};
use dphpo_dnnp::json::Json;
use dphpo_evo::nsga2::{GenerationRecord, RunResult};
use dphpo_evo::{Fitness, Individual};

/// Output directory for regenerated artifacts (`results/` at the repo
/// root, overridable with `DPHPO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DPHPO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Write an artifact file and echo its path.
pub fn write_artifact(name: &str, content: &str) {
    let path = results_dir().join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Scale selector shared by all harness binaries: `--smoke` (or
/// `DPHPO_SCALE=smoke`) runs the fast test scale; the default is the
/// reduced experiment scale of DESIGN.md.
pub fn experiment_scale() -> ExperimentConfig {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("DPHPO_SCALE").is_ok_and(|v| v == "smoke");
    if smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::reduced()
    }
}

fn numbers(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Array(values.into_iter().map(Json::Number).collect())
}

fn number_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match v.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("missing array field '{key}'")),
    }
}

fn number_vec(items: &[Json], key: &str) -> Result<Vec<f64>, String> {
    items
        .iter()
        .map(|j| j.as_f64().ok_or_else(|| format!("non-numeric entry in '{key}'")))
        .collect()
}

struct SavedIndividual {
    genome: Vec<f64>,
    fitness: Vec<f64>,
    minutes: Option<f64>,
    rank: usize,
    distance: f64,
}

impl SavedIndividual {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("genome", numbers(self.genome.iter().copied())),
            ("fitness", numbers(self.fitness.iter().copied())),
            ("minutes", self.minutes.map_or(Json::Null, Json::Number)),
            ("rank", Json::Number(self.rank as f64)),
            ("distance", Json::Number(self.distance)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SavedIndividual {
            genome: number_vec(array_field(v, "genome")?, "genome")?,
            fitness: number_vec(array_field(v, "fitness")?, "fitness")?,
            minutes: match v.get("minutes") {
                None | Some(Json::Null) => None,
                Some(j) => {
                    Some(j.as_f64().ok_or_else(|| "non-numeric 'minutes'".to_string())?)
                }
            },
            rank: number_field(v, "rank")? as usize,
            distance: number_field(v, "distance")?,
        })
    }
}

struct SavedGeneration {
    generation: usize,
    failures: usize,
    population: Vec<SavedIndividual>,
}

impl SavedGeneration {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("generation", Json::Number(self.generation as f64)),
            ("failures", Json::Number(self.failures as f64)),
            (
                "population",
                Json::Array(self.population.iter().map(SavedIndividual::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SavedGeneration {
            generation: number_field(v, "generation")? as usize,
            failures: number_field(v, "failures")? as usize,
            population: array_field(v, "population")?
                .iter()
                .map(SavedIndividual::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

struct SavedRun {
    evaluations: usize,
    history: Vec<SavedGeneration>,
}

impl SavedRun {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("evaluations", Json::Number(self.evaluations as f64)),
            ("history", Json::Array(self.history.iter().map(SavedGeneration::to_json).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SavedRun {
            evaluations: number_field(v, "evaluations")? as usize,
            history: array_field(v, "history")?
                .iter()
                .map(SavedGeneration::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// On-disk snapshot of an experiment (enough to regenerate every figure
/// and table; scheduler reports are not needed downstream).
pub struct SavedExperiment {
    /// Number of EA generations after generation 0.
    pub generations: usize,
    runs: Vec<SavedRun>,
}

impl SavedExperiment {
    /// Snapshot an in-memory result.
    pub fn from_result(result: &ExperimentResult) -> Self {
        SavedExperiment {
            generations: result.config.generations,
            runs: result
                .runs
                .iter()
                .map(|run| SavedRun {
                    evaluations: run.evaluations,
                    history: run
                        .history
                        .iter()
                        .map(|g| SavedGeneration {
                            generation: g.generation,
                            failures: g.failures,
                            population: g
                                .population
                                .iter()
                                .map(|i| SavedIndividual {
                                    genome: i.genome.clone(),
                                    fitness: i.fitness().values().to_vec(),
                                    minutes: i.eval_minutes,
                                    rank: i.rank,
                                    // JSON has no literal for non-finite
                                    // floats; boundary crowding distances
                                    // are +inf, so clamp for the snapshot.
                                    distance: if i.distance.is_finite() {
                                        i.distance
                                    } else {
                                        f64::MAX
                                    },
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Serialise to a JSON document.
    pub fn to_json_string(&self) -> String {
        Json::object(vec![
            ("generations", Json::Number(self.generations as f64)),
            ("runs", Json::Array(self.runs.iter().map(SavedRun::to_json).collect())),
        ])
        .to_string()
    }

    /// Parse a snapshot document.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Ok(SavedExperiment {
            generations: number_field(&v, "generations")? as usize,
            runs: array_field(&v, "runs")?
                .iter()
                .map(SavedRun::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Rebuild an [`ExperimentResult`] (the passed config is provenance —
    /// its `generations` should match the snapshot's).
    pub fn into_result(self, config: ExperimentConfig) -> ExperimentResult {
        let runs = self
            .runs
            .into_iter()
            .map(|run| RunResult {
                evaluations: run.evaluations,
                history: run
                    .history
                    .into_iter()
                    .map(|g| GenerationRecord {
                        generation: g.generation,
                        failures: g.failures,
                        population: g
                            .population
                            .into_iter()
                            .map(|s| {
                                let mut ind = Individual::new(s.genome);
                                ind.fitness = Some(Fitness::new(s.fitness));
                                ind.eval_minutes = s.minutes;
                                ind.rank = s.rank;
                                ind.distance = s.distance;
                                ind
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        // Snapshots predate journaling and carry neither scheduler reports
        // nor archives; downstream analysis only reads `runs`.
        ExperimentResult {
            config,
            runs,
            pool_reports: Vec::new(),
            archives: Vec::new(),
            status: dphpo_core::CampaignStatus::default(),
        }
    }
}

/// Path of the cached experiment snapshot.
pub fn snapshot_path() -> PathBuf {
    results_dir().join("experiment.json")
}

/// Save a result snapshot to `results/experiment.json`.
pub fn save_experiment(result: &ExperimentResult) {
    let saved = SavedExperiment::from_result(result);
    write_artifact("experiment.json", &saved.to_json_string());
}

/// Load the snapshot if present, otherwise run the experiment at the
/// selected scale (and save it for the next binary).
pub fn load_or_run_experiment() -> ExperimentResult {
    let mut config = experiment_scale();
    let path = snapshot_path();
    if let Ok(text) = std::fs::read_to_string(&path) {
        match SavedExperiment::from_json_str(&text) {
            Ok(saved) => {
                println!("loaded cached experiment from {}", path.display());
                config.generations = saved.generations;
                return saved.into_result(config);
            }
            Err(e) => eprintln!("ignoring unreadable snapshot {}: {e}", path.display()),
        }
    }
    println!(
        "no cached experiment; running {} runs x pop {} x {} generations \
         (this trains {} models -- run `fig1` first to cache it)",
        config.n_runs,
        config.pop_size,
        config.generations,
        config.n_runs * config.pop_size * (config.generations + 1)
    );
    let result = run_and_report(Campaign::new(&config));
    save_experiment(&result);
    result
}

/// Default write-ahead journal path: `results/experiment.journal.jsonl`.
pub fn journal_path() -> PathBuf {
    results_dir().join("experiment.journal.jsonl")
}

/// Run a built campaign with stderr progress. A journaled campaign
/// announces its journal; if it is interrupted, the resume hint is printed
/// and the process exits nonzero — rerun with `--resume <journal>` to
/// continue bit-identically instead of retraining from scratch.
pub fn run_and_report(campaign: Campaign<'_>) -> ExperimentResult {
    let t0 = std::time::Instant::now();
    let mut progress = |run: usize, generation: usize| {
        eprintln!(
            "[{:>7.1?}] run {run}: reached generation {generation}",
            t0.elapsed()
        );
    };
    let journal = campaign.journal_path().map(std::path::Path::to_path_buf);
    let resuming = campaign.is_resume();
    match &journal {
        Some(path) if resuming => println!("resuming from {}", path.display()),
        Some(path) => println!("journaling to {} (resume with --resume)", path.display()),
        None => {}
    }
    match campaign.run(Some(&mut progress)) {
        Ok(result) => result,
        Err(e) if resuming => {
            eprintln!("resume failed: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("experiment interrupted: {e}");
            if let Some(path) = journal {
                eprintln!("resume with: --resume {}", path.display());
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_figure_relevant_field() {
        let config = ExperimentConfig::smoke();
        let result = Campaign::new(&config).run(None).unwrap();
        let saved = SavedExperiment::from_result(&result);
        let text = saved.to_json_string();
        let loaded = SavedExperiment::from_json_str(&text).unwrap();
        let rebuilt = loaded.into_result(config);
        assert_eq!(rebuilt.runs.len(), result.runs.len());
        for (a, b) in rebuilt.runs.iter().zip(result.runs.iter()) {
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.history.len(), b.history.len());
            for (ga, gb) in a.history.iter().zip(b.history.iter()) {
                assert_eq!(ga.generation, gb.generation);
                assert_eq!(ga.failures, gb.failures);
                for (ia, ib) in ga.population.iter().zip(gb.population.iter()) {
                    assert_eq!(ia.genome, ib.genome);
                    assert_eq!(ia.fitness().values(), ib.fitness().values());
                    assert_eq!(ia.eval_minutes, ib.eval_minutes);
                    assert_eq!(ia.rank, ib.rank);
                }
            }
        }
        // The analysis downstream of a snapshot must match the original.
        let original = dphpo_core::analyze(&result);
        let config2 = ExperimentConfig::smoke();
        let restored = dphpo_core::analyze(
            &SavedExperiment::from_result(&result).into_result(config2),
        );
        assert_eq!(original.frontier, restored.frontier);
        assert_eq!(original.accurate, restored.accurate);
    }

    #[test]
    fn malformed_snapshot_is_rejected_with_context() {
        let err = match SavedExperiment::from_json_str("{\"generations\": 2}") {
            Err(e) => e,
            Ok(_) => panic!("snapshot without runs should be rejected"),
        };
        assert!(err.contains("runs"));
        assert!(SavedExperiment::from_json_str("not json").is_err());
    }
}
