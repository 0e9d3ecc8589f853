//! Property-based tests for the deterministic profiler (DESIGN.md §14),
//! over random status rows:
//!
//! * the campaign tree is independent of the order the rows arrive in;
//! * `self + Σ children == inclusive` holds **bitwise** for every node of
//!   the campaign tree;
//! * the `.folded` export is always a well-formed collapsed-stack file.

use dphpo_core::campaign_report::campaign_profile;
use dphpo_core::{CampaignStatus, GenStatus, RunStatus};
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

/// A random status row: the counts and the four slot-minute categories the
/// tree reads (the vendored shim's tuples stop at five, hence the nesting).
fn wild_row() -> impl Strategy<Value = GenStatus> {
    let counts = (0usize..40, 0usize..100, 0usize..10, 0usize..10);
    let minutes = (0.0f64..5000.0, 0.0f64..5000.0, 0.0f64..500.0, 0.0f64..500.0);
    (counts, minutes).prop_map(
        |((generation, evaluations, retried, deaths), (busy, idle, backoff, lost_death))| {
            GenStatus {
                generation,
                evaluations,
                retried,
                deaths,
                busy_minutes: busy,
                idle_minutes: idle,
                backoff_minutes: backoff,
                lost_death_minutes: lost_death,
                ..GenStatus::default()
            }
        },
    )
}

fn status(runs: Vec<RunStatus>) -> CampaignStatus {
    CampaignStatus { runs, ..CampaignStatus::default() }
}

proptest! {
    /// Rows in any order — shuffled within a run, runs listed in reverse —
    /// give the identical tree.
    #[test]
    fn aggregation_is_independent_of_the_order_rows_arrive_in(
        rows in prop::collection::vec(wild_row(), 1..8),
        seed in 0i64..i64::MAX,
    ) {
        // Distinct generation indices, as a campaign's are (same-named
        // siblings keep their insertion order: `branch` sorts, not merges).
        let rows: Vec<GenStatus> = rows
            .into_iter()
            .enumerate()
            .map(|(generation, row)| GenStatus { generation, ..row })
            .collect();
        let mut shuffled = rows.clone();
        shuffle(&mut shuffled, &mut StdRng::seed_from_u64(seed as u64));

        let run = |run, generations| RunStatus { run, generations };
        let reference = status(vec![run(0, rows.clone()), run(1, rows.clone())]);
        let permuted = status(vec![run(1, rows), run(0, shuffled)]);
        prop_assert_eq!(campaign_profile(&reference), campaign_profile(&permuted));
    }

    /// The branch invariant holds bitwise on every node of the campaign
    /// tree, whatever the rows, and its folded rendering is well-formed.
    #[test]
    fn campaign_tree_invariant_and_folded_validity(
        rows in prop::collection::vec(wild_row(), 1..6),
        n_runs in 1usize..3,
    ) {
        let runs = (0..n_runs).map(|run| RunStatus { run, generations: rows.clone() }).collect();
        let root = campaign_profile(&status(runs));
        assert_invariant(&root);
        assert_folded_well_formed(&folded(&root));
    }
}
