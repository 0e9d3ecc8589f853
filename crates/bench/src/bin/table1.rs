//! Regenerates **Table 1**: initialisation ranges and initial mutation
//! standard deviations of the seven-gene representation.

use dphpo_bench::harness::{exit_if_writes_failed, write_artifact};
use dphpo_core::representation::{DeepMDRepresentation, GENE_NAMES};

fn main() {
    let ranges = DeepMDRepresentation::init_ranges();
    let std = DeepMDRepresentation::initial_std();

    let mut out = String::new();
    out.push_str("Table 1: Initialization parameters for the experiments\n\n");
    out.push_str(&format!(
        "{:<20} {:<22} {:<12}\n",
        "hyperparameter", "initialization range", "mutation std"
    ));
    for ((name, (lo, hi)), sigma) in GENE_NAMES.iter().zip(ranges).zip(std) {
        out.push_str(&format!("{name:<20} ({lo:.3e}, {hi:.3e})   {sigma}\n"));
    }
    out.push_str(&format!(
        "\nper-generation sigma annealing factor: {}\n",
        DeepMDRepresentation::ANNEAL_FACTOR
    ));
    print!("{out}");
    write_artifact("table1.txt", &out);
    exit_if_writes_failed();
}
