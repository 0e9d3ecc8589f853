//! Campaign-level work conservation: the steady-state driver's look-ahead
//! (evaluations run ahead of the window that will take them), a chaos kill
//! with prefetched evaluations in flight, the configuration checks that
//! run before anything is created on disk — and the width rule: the
//! simulated allocation (`pool.n_workers`) decides every byte a campaign
//! writes, the OS threads that carry it decide none.
//!
//! The evaluation a campaign runs is not injectable, but its recorder is,
//! and the trainer calls it from the worker threads once per step — so the
//! interleavings are forced from inside [`Recorder::record`] with a latch
//! (a bounded wait: a regression fails, it does not hang). A latch between
//! two evaluations needs two real threads whatever the host has, so those
//! campaigns pin the count with [`Campaign::physical_threads`]. Looped by
//! `scripts/verify.sh` stage 6.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dphpo_core::experiment::{
    Campaign, CampaignMode, ExperimentConfig, ExperimentError, ExperimentResult,
};
use dphpo_obs::{names, Event, Recorder};

/// Long enough that only a missing interleaving can exhaust it.
const PATIENCE: Duration = Duration::from_secs(20);

/// A per-test scratch directory (tests run concurrently; each removes its
/// own when it finishes).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dphpo-conserve-{}-{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// One steady-state run, two worker slots, four individuals per epoch: the
/// first window is submissions 0 and 1, and 2 and 3 are bred-and-waiting.
fn steady_pair(num_steps: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.mode = CampaignMode::SteadyState;
    config.n_runs = 1;
    config.pool.n_workers = 2;
    config.base_train_config.num_steps = num_steps;
    config.base_train_config.disp_freq = num_steps;
    config
}

/// What the worker threads are allowed to do, decided per training step.
#[derive(Default)]
struct Gate {
    /// Training steps recorded so far, per submission.
    steps: Mutex<BTreeMap<u32, usize>>,
    moved: Condvar,
    /// `(held, until)`: submission `held` does not get past its first step
    /// before submission `until` has recorded one.
    hold: Option<(u32, u32)>,
    /// Submissions from this one on take this long per step.
    slow: Option<(u32, Duration)>,
    timed_out: AtomicBool,
    /// When submission 2 recorded its first step.
    prefetch_started: Mutex<Option<Instant>>,
}

impl Gate {
    fn steps_of(&self, submission: u32) -> usize {
        self.steps.lock().unwrap().get(&submission).copied().unwrap_or(0)
    }
}

impl Recorder for Gate {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        // Only the trainer's per-step spans: they come from worker threads,
        // and in steady state their task index is the submission.
        if event.name != names::TRAIN_STEP {
            return;
        }
        let submission = event.ctx.task;
        let mut steps = self.steps.lock().unwrap();
        *steps.entry(submission).or_default() += 1;
        self.moved.notify_all();
        if submission == 2 {
            self.prefetch_started.lock().unwrap().get_or_insert_with(Instant::now);
        }
        if let Some((held, until)) = self.hold {
            // One exhausted wait is the verdict; later steps pass freely.
            if submission == held && !self.timed_out.load(Ordering::SeqCst) {
                let (guard, wait) = self
                    .moved
                    .wait_timeout_while(steps, PATIENCE, |s| !s.contains_key(&until))
                    .unwrap();
                steps = guard;
                if wait.timed_out() {
                    self.timed_out.store(true, Ordering::SeqCst);
                }
            }
        }
        drop(steps);
        if let Some((from, pause)) = self.slow {
            if submission >= from {
                std::thread::sleep(pause);
            }
        }
    }
}

#[test]
fn steady_state_evaluations_run_ahead_of_their_window() {
    let config = steady_pair(12);
    let dir = scratch_dir("ahead");
    let run = |tag: &str, gate: Gate| {
        let journal = dir.join(format!("{tag}.jsonl"));
        let status = dir.join(format!("{tag}-status.json"));
        let gate = Arc::new(gate);
        Campaign::new(&config)
            .journal(&journal)
            .status_file(&status)
            .recorder(Arc::clone(&gate) as Arc<dyn Recorder>)
            .physical_threads(2)
            .run(None)
            .expect("steady campaign");
        (std::fs::read(&journal).unwrap(), std::fs::read(&status).unwrap(), gate)
    };

    // Submission 0 is stuck in its first step until submission 2 — which is
    // in no window before 0 and 1 have both arrived — has trained a step.
    // Only a pool that runs ahead of the windows gets there.
    let (journal, status, gate) = run("held", Gate { hold: Some((0, 2)), ..Gate::default() });
    assert!(
        !gate.timed_out.load(Ordering::SeqCst),
        "submission 2 did not start while submission 0 was running: the window is a real barrier"
    );

    // Running ahead changes nothing that is written down: journal (records,
    // arrival order, snapshots) and status are byte for byte those of a run
    // whose evaluations were left alone.
    let (free_journal, free_status, _) = run("free", Gate::default());
    assert_eq!(journal, free_journal, "journal bytes depend on the interleaving");
    assert_eq!(status, free_status, "status bytes depend on the interleaving");
    assert!(String::from_utf8(journal).unwrap().contains("\"type\":\"snapshot\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kill_with_prefetched_evaluations_in_flight_returns_promptly_and_resumes_identically() {
    // 200 steps per training. Prefetched submissions (2 onwards) crawl at
    // 10 ms a step — two seconds each if anything waited for them.
    let config = steady_pair(200);
    let crawl = Duration::from_millis(10);

    let dir = scratch_dir("kill");
    let reference_journal = dir.join("reference.jsonl");
    let reference_status = dir.join("reference-status.json");
    Campaign::new(&config)
        .journal(&reference_journal)
        .status_file(&reference_status)
        .run(None)
        .expect("uninterrupted steady campaign");

    // Submission 1 cannot finish before submission 2 is training, so when
    // the first window's arrivals are processed — and the driver killed
    // there — submission 2 is in flight, mid-training.
    let gate = Arc::new(Gate { hold: Some((1, 2)), slow: Some((2, crawl)), ..Gate::default() });
    let journal = dir.join("killed.jsonl");
    let status = dir.join("killed-status.json");
    let killed = Campaign::new(&config)
        .journal(&journal)
        .status_file(&status)
        .recorder(Arc::clone(&gate) as Arc<dyn Recorder>)
        .physical_threads(2)
        .kill_after(1)
        .run(None);
    let returned = Instant::now();
    assert!(matches!(killed, Err(ExperimentError::Interrupted { .. })), "the driver must die");
    assert!(!gate.timed_out.load(Ordering::SeqCst), "submission 2 was never prefetched");

    // Cancelled, not drained: the prefetched training stopped part-way, well
    // inside the two seconds it would have needed…
    let in_flight = gate.steps_of(2);
    assert!(in_flight > 0 && in_flight < 200, "submission 2 trained {in_flight} of 200 steps");
    let started = gate.prefetch_started.lock().unwrap().expect("submission 2 started");
    assert!(
        returned.duration_since(started) < Duration::from_secs(1),
        "the killed campaign waited {:?} for prefetched work",
        returned.duration_since(started)
    );
    // …and no worker thread outlived `Campaign::run`: nothing trains now.
    let trained = |gate: &Gate| gate.steps.lock().unwrap().values().sum::<usize>();
    let at_return = trained(&gate);
    std::thread::sleep(5 * crawl);
    assert_eq!(trained(&gate), at_return, "a worker thread is still training");

    // Resume retrains what the journal lacks and lands on the same bytes.
    Campaign::new(&config)
        .journal(&journal)
        .status_file(&status)
        .resume()
        .run(None)
        .expect("resume");
    assert_eq!(std::fs::read(&journal).unwrap(), std::fs::read(&reference_journal).unwrap());
    assert_eq!(std::fs::read(&status).unwrap(), std::fs::read(&reference_status).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small campaign with everything that could make a schedule depend on
/// who ran what: injected deaths, nanny restarts and retries with backoff,
/// on four simulated workers.
fn faulty(mode: CampaignMode) -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.mode = mode;
    config.pop_size = 5;
    config.pool.n_workers = 4;
    config.fault_probability = 0.2;
    config.pool.nanny = true;
    config.pool.max_attempts = 2;
    config.master_seed = 41;
    config
}

/// Everything a finished campaign leaves in `dir` — journal, status file,
/// both profile artifacts — plus its end-of-run report.
fn artifacts(dir: &Path, result: &ExperimentResult) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| (path.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&path).unwrap()))
        .collect();
    files.sort();
    let report = dphpo_core::campaign_report::markdown_report(&result.status, result.config.mode);
    files.push(("campaign_report.md".to_string(), report.into_bytes()));
    files
}

fn campaign<'a>(config: &'a ExperimentConfig, dir: &Path, threads: usize) -> Campaign<'a> {
    let _ = std::fs::create_dir_all(dir);
    Campaign::new(config)
        .journal(dir.join("journal.jsonl"))
        .status_file(dir.join("status.json"))
        .profile_dir(dir)
        .physical_threads(threads)
}

#[test]
fn campaign_bytes_are_a_function_of_the_configuration_not_of_the_thread_count() {
    let root = scratch_dir("width");
    for mode in [CampaignMode::Generational, CampaignMode::SteadyState] {
        let config = faulty(mode);
        let run = |threads: usize| {
            let dir = root.join(format!("{mode:?}-{threads}"));
            let result = campaign(&config, &dir, threads).run(None).expect("campaign");
            let deaths: usize = result.pool_reports.iter().flatten().map(|r| r.worker_deaths).sum();
            assert!(deaths > 0, "{mode:?}: the fault plan never fired — nothing to compare");
            artifacts(&dir, &result)
        };
        let one = run(1);
        let names: Vec<&str> = one.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["journal.jsonl", "profile.folded", "profile.json", "status.json", "campaign_report.md"]
        );
        for threads in [2, config.pool.n_workers] {
            for ((name, expected), (_, got)) in one.iter().zip(run(threads)) {
                assert!(*expected == got, "{mode:?}: {name} differs between 1 and {threads} threads");
            }
        }

        // Killed on one thread count, resumed on another: the same bytes
        // again, at every third kill point.
        let tasks = (config.n_runs * config.pop_size * (config.generations + 1)) as u64;
        for (kill, (before, after)) in (1..tasks).step_by(3).zip([(1, 4), (4, 1), (2, 3)].into_iter().cycle()) {
            let dir = root.join(format!("{mode:?}-kill{kill}"));
            let killed = campaign(&config, &dir, before).kill_after(kill).run(None);
            assert!(matches!(killed, Err(ExperimentError::Interrupted { .. })), "{mode:?} kill {kill}");
            let result = campaign(&config, &dir, after).resume().run(None).expect("resume");
            let resumed =
                artifacts(&dir, &result);
            assert!(
                resumed == one,
                "{mode:?}: killed after {kill} tasks on {before} threads, resumed on {after}: bytes differ"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Counts the OS threads that ever trained a step.
#[derive(Default)]
struct ThreadCensus(Mutex<HashSet<std::thread::ThreadId>>);

impl Recorder for ThreadCensus {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if event.name == names::TRAIN_STEP {
            self.0.lock().unwrap().insert(std::thread::current().id());
        }
    }
}

#[test]
fn a_paper_width_schedule_runs_on_the_threads_the_machine_has() {
    // The paper's allocation — 100 simulated nodes, one per individual —
    // over the smoke dataset with four-step trainings.
    let paper = ExperimentConfig::paper_scale();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for mode in [CampaignMode::Generational, CampaignMode::SteadyState] {
        let mut config = ExperimentConfig::smoke();
        config.mode = mode;
        config.n_runs = 1;
        config.pop_size = paper.pop_size;
        config.pool = paper.pool;
        config.fault_probability = paper.fault_probability;
        config.base_train_config.num_steps = 4;
        config.base_train_config.disp_freq = 4;
        assert_eq!((config.pop_size, config.pool.n_workers), (100, 100));

        let run = |threads: Option<usize>| {
            let census = Arc::new(ThreadCensus::default());
            let mut campaign = Campaign::new(&config).recorder(Arc::clone(&census) as Arc<dyn Recorder>);
            if let Some(threads) = threads {
                campaign = campaign.physical_threads(threads);
            }
            let result = campaign.run(None).expect("paper-width campaign");
            assert_eq!(result.total_evaluations(), 200);
            // The schedule is the 100-node one whatever carried it.
            assert!(result.pool_reports[0].iter().all(|r| r.busy_minutes.len() == 100));
            let threads_seen = census.0.lock().unwrap().len();
            (dphpo_core::campaign_report::markdown_report(&result.status, result.config.mode), threads_seen)
        };
        let (on_two, seen) = run(Some(2));
        assert!((1..=2).contains(&seen), "{mode:?}: pinned to 2 threads, {seen} trained");
        let (on_the_machine, seen) = run(None);
        assert!(seen <= cores, "{mode:?}: {seen} threads trained on a {cores}-core machine");
        assert_eq!(on_two, on_the_machine, "{mode:?}: the report depends on the thread count");
    }
}

#[test]
fn impossible_configurations_are_refused_before_anything_is_written() {
    type Break = fn(&mut ExperimentConfig);
    let cases: [(&str, Break); 3] = [
        ("n_workers", |c| c.pool.n_workers = 0),
        ("max_attempts", |c| c.pool.max_attempts = 0),
        ("pop_size", |c| c.pop_size = 0),
    ];
    let dir = scratch_dir("config");
    for mode in [CampaignMode::Generational, CampaignMode::SteadyState] {
        for (what, break_it) in cases {
            let mut config = ExperimentConfig::smoke();
            config.mode = mode;
            break_it(&mut config);
            let journal = dir.join(format!("{what}-{mode:?}.jsonl"));
            let status = dir.join(format!("{what}-{mode:?}-status.json"));
            let result = Campaign::new(&config).journal(&journal).status_file(&status).run(None);
            match result {
                Err(ExperimentError::Config(message)) => {
                    assert!(message.contains(what), "{what}: message was {message:?}")
                }
                Err(other) => panic!("{what}: expected a Config error, got {other}"),
                Ok(_) => panic!("{what}: an impossible configuration ran"),
            }
            assert!(!journal.exists(), "{what}: a journal was created");
            assert!(!status.exists(), "{what}: a status file was created");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
