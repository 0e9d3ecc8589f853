//! `results/` is what this tree's trainer produces: one journaled evaluation
//! of each checked-in journal is retrained from its journal line alone —
//! genome and seed — through the campaign's own evaluation, and must come
//! back bit for bit. A change to any arithmetic the trainer runs fails here
//! until `results/` is regenerated.

use std::path::PathBuf;

use dphpo::core::decode;
use dphpo::core::journal::{EvalEntry, FaultKind};
use dphpo::core::workflow::{evaluate_individual, EvalContext};
use dphpo::core::{CampaignMode, ExperimentConfig, Journal};

fn retrain_one(name: &str, mode: CampaignMode) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results").join(name);
    let journal = Journal::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let config = ExperimentConfig { mode, ..ExperimentConfig::reduced() };
    journal.check_config(&config).unwrap_or_else(|e| panic!("{name}: {e}"));

    // The cheapest training to repeat: the smallest cutoff, ties broken by
    // position so the pick does not depend on the map's order.
    let key = |e: &EvalEntry| (decode(&e.genome).rcut, e.run, e.gen, e.slot);
    let entry = journal
        .evals
        .values()
        .filter(|e| e.fault == FaultKind::None)
        .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("cutoffs are finite"))
        .unwrap_or_else(|| panic!("{name}: no successful evaluation"));
    let at = format!(
        "{name} (run {}, gen {}, slot {}), seed {:#018x}",
        entry.run, entry.gen, entry.slot, entry.seed
    );

    let record = evaluate_individual(&EvalContext::new(&config), &entry.genome, entry.seed);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let journaled = entry.objectives.as_deref().expect("a successful entry has objectives");
    assert!(!record.failed, "{at}: the retrain failed");
    assert_eq!(bits(record.fitness.values()), bits(journaled), "{at}: objectives");
    assert_eq!(record.minutes.to_bits(), entry.minutes.to_bits(), "{at}: minutes");
    assert_eq!(record.lcurve_tail, entry.lcurve_tail, "{at}: lcurve_tail");
}

#[test]
fn generational_journal_retrains_bit_for_bit() {
    retrain_one("experiment.journal.jsonl", CampaignMode::Generational);
}

#[test]
fn steady_state_journal_retrains_bit_for_bit() {
    retrain_one("steady_experiment.journal.jsonl", CampaignMode::SteadyState);
}
