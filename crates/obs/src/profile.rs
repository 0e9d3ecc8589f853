//! Deterministic profiler: the self-time attribution tree and its renderings.
//!
//! A [`ProfileNode`] carries inclusive time, self time, and a call count
//! per phase name, on the **simulated** clock (cost-model minutes) — the
//! wall-clock twin of each phase rides the `side.*` histograms and never
//! enters these artifacts. Two invariants make the tree a deterministic
//! export:
//!
//! * `inclusive == fsum(self, children inclusives)` **bitwise**, enforced
//!   by construction: [`ProfileNode::branch`] computes the inclusive total
//!   with the exact (Shewchuk) accumulator, so the identity holds for every
//!   node regardless of how the tree was assembled.
//! * Children are keyed and ordered by name (lexicographic), so the tree —
//!   and the `.folded` / markdown renderings derived from it — is
//!   independent of the order it was assembled in.
//!
//! The campaign tree is rendered from the journal-derived status rows
//! (`dphpo_core::campaign_report::campaign_profile`), never from the live
//! event stream. A node's self time is what its children do not account for;
//! a negative one is kept signed in the JSON and dropped by the `.folded`
//! export, because collapsed-stack counts are unsigned.

use crate::chrome::US_PER_MIN;
use crate::metrics::ExactSum;

/// Schema tag written into `profile.json`.
pub const PROFILE_SCHEMA: &str = "dphpo-profile-v1";

/// One node of the attribution tree.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileNode {
    /// Phase name; frame label in the `.folded` export.
    pub name: String,
    /// Number of evaluations or slots folded into this node (0 for purely
    /// structural intermediate nodes).
    pub count: u64,
    /// Simulated minutes attributed to this node itself (may be negative;
    /// see the module docs).
    pub self_min: f64,
    /// `fsum(self_min, children inclusive_min)` — exact by construction.
    pub inclusive_min: f64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Leaf node: inclusive time equals self time.
    pub fn leaf(name: impl Into<String>, count: u64, self_min: f64) -> Self {
        Self::branch(name, count, self_min, Vec::new())
    }

    /// Interior node; sorts the children by name and computes the inclusive
    /// total exactly, so `self + Σ child == inclusive` holds bitwise.
    pub fn branch(
        name: impl Into<String>,
        count: u64,
        self_min: f64,
        mut children: Vec<ProfileNode>,
    ) -> Self {
        children.sort_by(|a, b| a.name.cmp(&b.name));
        let mut sum = ExactSum::default();
        sum.add(self_min);
        for c in &children {
            sum.add(c.inclusive_min);
        }
        Self { name: name.into(), count, self_min, inclusive_min: sum.value(), children }
    }

    /// Total node count of the subtree (including this node).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::size).sum::<usize>()
    }
}

/// Sanitize a frame name for the collapsed-stack format: the separator is
/// `;` and the count delimiter is a space, so neither may appear in a frame.
fn fold_frame(name: &str) -> String {
    let cleaned: String =
        name.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect();
    if cleaned.is_empty() {
        "_".to_string()
    } else {
        cleaned
    }
}

/// Render the tree as collapsed stacks (`a;b;c <count>` per line), loadable
/// by inferno / speedscope / `flamegraph.pl`. Counts are self-time in
/// integer microseconds of simulated time; zero and negative self times are
/// omitted (the format's counts are unsigned).
pub fn folded(root: &ProfileNode) -> String {
    fn walk(node: &ProfileNode, stack: &mut Vec<String>, out: &mut String) {
        stack.push(fold_frame(&node.name));
        let us = (node.self_min * US_PER_MIN).round();
        if us >= 1.0 {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&format!("{}\n", us as u64));
        }
        for c in &node.children {
            walk(c, stack, out);
        }
        stack.pop();
    }
    let mut out = String::new();
    let mut stack = Vec::new();
    walk(root, &mut stack, &mut out);
    out
}

/// Render the tree as a markdown "where the microsecond goes" table:
/// depth-indented span names with call counts, inclusive/self minutes, and
/// self share of the root's inclusive total.
pub fn markdown_table(root: &ProfileNode) -> String {
    fn walk(node: &ProfileNode, depth: usize, total: f64, out: &mut String) {
        let indent = "· ".repeat(depth);
        let share = if total > 0.0 { node.self_min / total * 100.0 } else { 0.0 };
        out.push_str(&format!(
            "| {}{} | {} | {:.4} | {:.4} | {:.2}% |\n",
            indent, node.name, node.count, node.inclusive_min, node.self_min, share
        ));
        for c in &node.children {
            walk(c, depth + 1, total, out);
        }
    }
    let mut out = String::from(
        "| span | calls | inclusive (sim min) | self (sim min) | self % |\n\
         |---|---:|---:|---:|---:|\n",
    );
    walk(root, 0, root.inclusive_min, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `campaign → run0 → gen0 → {busy → {eval.ok, eval.failed}, idle}`,
    /// with `busy` owning less than its children report.
    fn sample() -> ProfileNode {
        let busy = ProfileNode::branch(
            "busy",
            2,
            -0.5,
            vec![ProfileNode::leaf("eval.ok", 3, 7.5), ProfileNode::leaf("eval.failed", 1, 2.0)],
        );
        let generation =
            ProfileNode::branch("gen0", 1, 0.0, vec![ProfileNode::leaf("idle", 2, 1.0), busy]);
        let run = ProfileNode::branch("run0", 0, 0.0, vec![generation]);
        ProfileNode::branch("campaign", 0, 0.0, vec![run])
    }

    #[test]
    fn invariant_holds_for_every_node_and_children_sort_by_name() {
        fn check(node: &ProfileNode) {
            let mut s = ExactSum::default();
            s.add(node.self_min);
            for c in &node.children {
                s.add(c.inclusive_min);
                check(c);
            }
            assert_eq!(s.value().to_bits(), node.inclusive_min.to_bits(), "node {}", node.name);
            assert!(node.children.windows(2).all(|w| w[0].name <= w[1].name), "node {}", node.name);
        }
        let tree = sample();
        check(&tree);
        assert_eq!(tree.size(), 7);
        assert_eq!(tree.inclusive_min, 10.0);
        let generation = &tree.children[0].children[0];
        assert_eq!(generation.children[0].name, "busy");
        assert_eq!(generation.children[0].children[0].name, "eval.failed");
    }

    #[test]
    fn folded_lines_are_valid_collapsed_stacks() {
        let out = folded(&sample());
        for line in out.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("count separator");
            assert!(count.parse::<u64>().expect("u64 count") > 0);
            for frame in stack.split(';') {
                assert!(!frame.is_empty(), "empty frame in {line:?}");
                assert!(!frame.contains(' '));
            }
        }
        assert!(out.contains("campaign;run0;gen0;idle 60000000\n"));
        // Zero and negative self times have no line.
        assert!(!out.contains("busy -") && !out.contains("gen0 "), "{out}");
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn markdown_table_shape() {
        let tree = ProfileNode::branch("campaign", 1, 0.0, vec![ProfileNode::leaf("busy", 4, 2.0)]);
        let md = markdown_table(&tree);
        assert!(md.starts_with("| span |"));
        assert!(md.contains("| campaign | 1 | 2.0000 | 0.0000 | 0.00% |"));
        assert!(md.contains("| · busy | 4 | 2.0000 | 2.0000 | 100.00% |"));
    }

    #[test]
    fn fold_frame_sanitizes_separators() {
        assert_eq!(fold_frame("a b;c"), "a_b_c");
        assert_eq!(fold_frame(""), "_");
    }
}
