//! Property-based tests for the deterministic profiler (DESIGN.md §14):
//!
//! * assembling the journal-derived campaign tree is independent of the
//!   order the boundaries arrive in;
//! * `self + Σ children == inclusive` holds **bitwise** for every node of
//!   the campaign tree;
//! * the `.folded` export is always a well-formed collapsed-stack file.

use std::collections::BTreeMap;

use dphpo_core::profile::{campaign_node, generation_node};
use dphpo_evo::nsga2::GenerationRecord;
use dphpo_evo::{Fitness, Individual};
use dphpo_hpc::PoolReport;
use dphpo_obs::metrics::ExactSum;
use dphpo_obs::profile::{folded, ProfileNode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates with the vendored rng (no `SliceRandom` in the shim).
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..i + 1);
        xs.swap(i, j);
    }
}

/// Recursive bitwise check of the branch invariant, mirroring how
/// `ProfileNode::branch` computes the inclusive total.
fn assert_invariant(node: &ProfileNode) {
    let mut sum = ExactSum::default();
    sum.add(node.self_min);
    for c in &node.children {
        sum.add(c.inclusive_min);
        assert_invariant(c);
    }
    assert_eq!(
        sum.value().to_bits(),
        node.inclusive_min.to_bits(),
        "self + Σ children != inclusive at node {}",
        node.name
    );
    for pair in node.children.windows(2) {
        // Non-strict: duplicate names are legal for `branch` (it sorts, it
        // does not merge) even though real campaigns never produce them.
        assert!(pair[0].name <= pair[1].name, "children of {} are not sorted", node.name);
    }
}

fn assert_folded_well_formed(text: &str) {
    for (i, line) in text.lines().enumerate() {
        let (stack, micros) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("folded line {i} has no value"));
        let n: u64 = micros.parse().unwrap_or_else(|e| panic!("folded line {i} value: {e}"));
        assert!(n >= 1, "folded line {i} emitted a sub-microsecond count");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "folded line {i}: empty frame");
            assert!(
                !frame.contains(' ') && !frame.contains(';'),
                "folded line {i}: reserved separator in frame {frame:?}"
            );
        }
    }
}

fn individual(minutes: f64, penalty: bool) -> Individual {
    let mut ind = Individual::new(vec![0.0]);
    ind.fitness = Some(if penalty { Fitness::penalty(2) } else { Fitness::new(vec![0.1, 0.2]) });
    ind.eval_minutes = Some(minutes);
    ind
}

fn slot_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..500.0, 1..5)
}

/// A random (record, report) boundary pair; all slot partitions are
/// clamped to the busy vector's slot count, as in real reports.
fn wild_boundary() -> impl Strategy<Value = (GenerationRecord, PoolReport)> {
    let pop = prop::collection::vec((0.0f64..200.0, 0.0f64..1.0), 0..6);
    ((0usize..40, pop), slot_vec(), slot_vec(), slot_vec()).prop_map(
        |((generation, pop), busy, idle, death)| {
            let slots = busy.len();
            let fit = |mut v: Vec<f64>| {
                v.resize(slots, 0.0);
                v
            };
            let record = GenerationRecord {
                generation,
                population: pop.into_iter().map(|(m, p)| individual(m, p < 0.5)).collect(),
                failures: 0,
            };
            let report = PoolReport {
                busy_minutes: busy,
                idle_minutes: fit(idle),
                lost_death_minutes: fit(death),
                backoff_slot_minutes: vec![0.0; slots],
                ..PoolReport::default()
            };
            (record, report)
        },
    )
}

proptest! {
    /// Boundaries folded in any order — generation rows shuffled within a
    /// run — give the identical tree.
    #[test]
    fn aggregation_is_independent_of_the_order_boundaries_arrive_in(
        boundaries in prop::collection::vec(wild_boundary(), 1..8),
        seed in 0i64..i64::MAX,
    ) {
        // Distinct generation indices, as a campaign's are (same-named
        // siblings keep their insertion order: `branch` sorts, not merges).
        let rows: Vec<ProfileNode> = boundaries
            .iter()
            .enumerate()
            .map(|(generation, (rec, rep))| {
                generation_node(&GenerationRecord { generation, ..rec.clone() }, rep)
            })
            .collect();
        let mut shuffled = rows.clone();
        shuffle(&mut shuffled, &mut StdRng::seed_from_u64(seed as u64));

        let reference = campaign_node(&BTreeMap::from([(0, rows.clone()), (1, rows.clone())]));
        let permuted = campaign_node(&BTreeMap::from([(0, shuffled), (1, rows.clone())]));
        prop_assert_eq!(&reference, &permuted);
    }

    /// The branch invariant holds bitwise on every node of the
    /// journal-derived campaign tree, whatever the boundary data, and its
    /// folded rendering is well-formed.
    #[test]
    fn campaign_tree_invariant_and_folded_validity(
        boundaries in prop::collection::vec(wild_boundary(), 1..6),
        n_runs in 1usize..3,
    ) {
        let mut runs = BTreeMap::new();
        for run in 0..n_runs {
            let rows: Vec<ProfileNode> = boundaries
                .iter()
                .map(|(rec, rep)| generation_node(rec, rep))
                .collect();
            runs.insert(run, rows);
        }
        let root = campaign_node(&runs);
        assert_invariant(&root);
        assert_folded_well_formed(&folded(&root));
    }
}
