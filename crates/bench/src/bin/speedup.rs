//! Regenerates the §2.1.2 runtime claims: a 40k-step training of the
//! 160-atom system takes under 2 hours on a 6-GPU Summit node versus about
//! 7 days on CPU (≈65× speedup), and the 100-node allocation finishes the
//! whole EA inside its 12-hour walltime.

use dphpo_bench::harness::{exit_if_writes_failed, write_artifact};
use dphpo_hpc::{paper_job, Allocation, CostModel};

fn main() {
    let model = CostModel::default();
    let mut report = String::new();
    report.push_str("S2.1.2 runtime model (paper-scale 40k-step trainings)\n\n");
    report.push_str(&format!(
        "{:>6} {:>12} {:>14} {:>10}\n",
        "rcut", "GPU (min)", "CPU (days)", "speedup"
    ));
    for rcut in [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0] {
        let job = paper_job(rcut);
        report.push_str(&format!(
            "{rcut:>6.1} {:>12.1} {:>14.2} {:>9.1}x\n",
            model.gpu_minutes_mean(&job),
            model.cpu_minutes_mean(&job) / 60.0 / 24.0,
            model.speedup(&job)
        ));
    }
    report.push_str("\npaper: <2 h on GPU node vs ~7 days on CPU, ~65x per node\n");

    let allocation = Allocation::paper();
    let worst = model.gpu_minutes_mean(&paper_job(12.0));
    report.push_str(&format!(
        "\nallocation: {} nodes x {} GPUs, walltime {} min\n",
        allocation.n_nodes,
        allocation.node.gpus,
        allocation.walltime_minutes
    ));
    report.push_str(&format!(
        "worst-case training {worst:.1} min -> {} sequential generations fit the walltime \
         (7 needed: initial + 6 EA steps)\n",
        allocation.rounds_within_walltime(worst)
    ));

    print!("{report}");
    write_artifact("speedup.txt", &report);
    exit_if_writes_failed();
}
