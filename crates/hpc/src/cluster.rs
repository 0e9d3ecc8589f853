//! A Summit-shaped cluster description: nodes, GPUs, and batch-job
//! allocation accounting.

/// Hardware of one compute node (Summit: 6 V100 GPUs, 42 usable cores).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// GPUs per node.
    pub gpus: usize,
    /// Usable CPU cores per node.
    pub cores: usize,
}

impl NodeSpec {
    /// Summit's AC922 node: 6 GPUs, 42 usable cores.
    fn summit() -> Self {
        NodeSpec { gpus: 6, cores: 42 }
    }
}

/// A batch-job allocation: `n_nodes` identical nodes plus a batch node that
/// hosts the scheduler and client (the paper's launch layout, §2.2.5).
#[derive(Clone, Copy, Debug)]
pub struct Allocation {
    /// Compute nodes assigned to evaluation workers (one worker per node).
    pub n_nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Maximum wall-clock budget for the whole job, in minutes
    /// (the paper requests 12 h).
    pub walltime_minutes: f64,
}

impl Allocation {
    /// The paper's allocation: 100 Summit nodes, 12 h walltime.
    pub fn paper() -> Self {
        Allocation { n_nodes: 100, node: NodeSpec::summit(), walltime_minutes: 12.0 * 60.0 }
    }

    /// Rough upper bound on how many sequential evaluation rounds of
    /// `task_minutes` each fit in the walltime.
    pub fn rounds_within_walltime(&self, task_minutes: f64) -> usize {
        if task_minutes <= 0.0 {
            return usize::MAX;
        }
        (self.walltime_minutes / task_minutes).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_spec() {
        let n = NodeSpec::summit();
        assert_eq!(n.gpus, 6);
        assert_eq!(n.cores, 42);
    }

    #[test]
    fn paper_allocation_supports_seven_generations() {
        let a = Allocation::paper();
        assert_eq!(a.n_nodes, 100);
        // With ≤80-minute trainings and a 2 h cap, 7 generations
        // (initial + 6) of one-per-node evaluations fit in 12 h.
        assert!(a.rounds_within_walltime(80.0) >= 7);
        // But 2-hour worst-case trainings only fit 6 rounds — which is why
        // the per-training timeout matters.
        assert_eq!(a.rounds_within_walltime(120.0), 6);
    }

    #[test]
    fn degenerate_task_time() {
        assert_eq!(Allocation::paper().rounds_within_walltime(0.0), usize::MAX);
    }
}
