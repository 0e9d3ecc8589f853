//! The steady-state driver's simulated schedule against the event-driven
//! one it stands for (DESIGN.md §12.2): a child bred at arrival *k* must not
//! start on the simulated clock before arrival *k* has completed.

use std::collections::HashMap;
use std::sync::Arc;

use dphpo_core::experiment::{Campaign, CampaignMode, ExperimentConfig};
use dphpo_obs::{names, Event, MemoryRecorder, Recorder, When};

/// `(children that start on the simulated clock before the arrival that
/// bred them has completed, children checked)` in a fault-free steady
/// campaign of `pop_size` individuals on `n_workers` slots.
fn children_started_before_they_were_bred(pop_size: usize, n_workers: usize) -> (usize, usize) {
    let mut config = ExperimentConfig::smoke();
    config.mode = CampaignMode::SteadyState;
    config.n_runs = 3;
    config.generations = 4;
    config.pop_size = pop_size;
    config.pool.n_workers = n_workers;
    let recorder = Arc::new(MemoryRecorder::new());
    Campaign::new(&config)
        .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>)
        .run(None)
        .expect("steady campaign");
    let events = recorder.snapshot().events;
    let start = |e: &Event| match e.when {
        When::Sim(minutes) => minutes,
        other => panic!("an eval span placed at {other:?}"),
    };
    let arrival = |e: &Event| e.args.iter().find(|(key, _)| *key == "arrival").unwrap().1;
    let (mut early, mut checked) = (0, 0);
    for run in 0..config.n_runs as u32 {
        let evals: Vec<&Event> =
            events.iter().filter(|e| e.name == names::EVAL && e.ctx.run == run).collect();
        let end: HashMap<usize, f64> =
            evals.iter().map(|e| (arrival(e) as usize, start(e) + e.dur_min)).collect();
        // The child bred at arrival k is submission pop_size + k.
        for e in evals.iter().filter(|e| e.ctx.task as usize >= pop_size) {
            let bred = end[&(e.ctx.task as usize - pop_size)];
            early += usize::from(start(e) < bred);
            checked += 1;
        }
    }
    (early, checked)
}

/// When the pool is as wide as the population, the windowed refill's start
/// times are causal: every child starts once the arrival that bred it has
/// completed. (At other widths they are not, and at no width is the order
/// arrivals are told in their completion order; DESIGN.md §12.2 has the
/// measurements.)
#[test]
fn at_population_width_no_child_starts_before_it_is_bred() {
    let (early, checked) = children_started_before_they_were_bred(4, 4);
    assert_eq!(checked, 3 * 4 * 4, "every child of every run is checked");
    assert_eq!(early, 0, "{early} of {checked} children started before they were bred");
}
