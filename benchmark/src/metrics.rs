//! The metric tables: every name `BENCHMARK.json` lists, with its unit and
//! direction (a test holds the two in step).

/// An end-to-end metric: what someone running campaigns sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists the metric under `end_to_end`, where
    /// its interquartile spread over ten *different* seeds must stay within
    /// the bound. A metric that cannot (`peak_rss_mb`) is listed with the
    /// per-layer metrics there; `run.sh`, `results.json` and `compare`,
    /// which hold one seed against itself, treat all five alike.
    pub seed_steady: bool,
}

/// The seed-steady bounds are the largest a bound may be. The runs they are
/// held against use different seeds on a shared machine whose speed drifts
/// by ±10 % for a minute at a time: the widest interquartile spread seen
/// over ten seeds is 7 % for the timed metrics, and a bound should be three
/// times the spread (README, "Spread"). `peak_rss_mb` spreads by 15–29 % on
/// `steady` (which two evaluations overlap, and what the allocator keeps,
/// decide the peak), more than any bound may be, so it keeps the issue's
/// same-seed bound and stays out of the cross-seed list.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        seed_steady: true,
    },
    EndToEnd {
        name: "evals_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
        seed_steady: true,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        seed_steady: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        seed_steady: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.10,
        seed_steady: false,
    },
];

/// A per-layer metric (no bound; printed by the layer pass).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Recorded in `BENCHMARK.json`; only the test that holds the two in
    /// step reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
    }
}

pub const PER_LAYER: [PerLayer; 74] = [
    // Failed ÷ attempted operations. An end-to-end metric by meaning, kept
    // here because it reads exactly 0 on a healthy program and an
    // end-to-end metric must never be 0; `attempted`/`failed` carry it in
    // every result line.
    lower("fail_share", "ratio"),
    // The fifth end-to-end metric, kept here because its spread over
    // different seeds is wider than any bound (see `END_TO_END`).
    lower("peak_rss_mb", "MB"),
    lower("md.dataset.build_ms", "ms"),
    higher("md.dataset.frames", "count"),
    lower("core.workflow.prepare_us", "us"),
    lower("core.workflow.lcurve_us", "us"),
    higher("core.eval.count", "count"),
    lower("core.eval.busy_s", "s"),
    lower("core.eval.p50_ms", "ms"),
    lower("core.eval.tail_ms", "ms"),
    lower("core.eval.penalty_count", "count"),
    lower("dnnp.setup_ms", "ms"),
    higher("dnnp.steps.count", "count"),
    lower("dnnp.steps.busy_s", "s"),
    lower("dnnp.step_us.rcut_lo", "us"),
    lower("dnnp.step_us.rcut_hi", "us"),
    lower("dnnp.finish_ms", "ms"),
    lower("dnnp.phase.graph_share", "ratio"),
    lower("dnnp.phase.backward_share", "ratio"),
    lower("dnnp.phase.optimizer_share", "ratio"),
    lower("dnnp.phase.val_share", "ratio"),
    lower("dnnp.tape.nodes_per_step", "count"),
    lower("autograd.matmul_64x64_ns", "ns"),
    lower("autograd.matmul_nt_64x64_ns", "ns"),
    lower("autograd.tanh_64x64_ns", "ns"),
    lower("autograd.affine_fwd_grad_256x32_ns", "ns"),
    lower("autograd.matmul_64x64.flops", "count"),
    lower("autograd.matmul_64x64.bytes_computed", "bytes"),
    lower("evo.sort_us", "us"),
    lower("evo.nsga2.step_us", "us"),
    lower("evo.steady.tell_us", "us"),
    lower("evo.steady.breed_us", "us"),
    lower("evo.archive.offer_us", "us"),
    lower("evo.hypervolume_us", "us"),
    higher("evo.final_hypervolume", "hv"),
    lower("hpc.batch.wall_s", "s"),
    higher("hpc.batch.busy_share", "ratio"),
    lower("hpc.batch.tail_idle_s", "s"),
    lower("hpc.stream.wall_s", "s"),
    higher("hpc.stream.busy_share", "ratio"),
    lower("hpc.stream.tail_idle_s", "s"),
    lower("hpc.batch.dispatch_us", "us"),
    lower("hpc.stream.dispatch_us", "us"),
    lower("hpc.pool.deaths", "count"),
    lower("hpc.pool.retries", "count"),
    lower("hpc.scaling.wall_1w_s", "s"),
    higher("hpc.scaling.efficiency", "ratio"),
    higher("hpc.sim.utilization_pct", "%"),
    lower("hpc.cost.real_s_per_sim_min", "s/min"),
    lower("core.journal.append_us", "us"),
    lower("core.journal.append_gen_us", "us"),
    lower("core.journal.snapshot_us", "us"),
    lower("core.journal.records", "count"),
    lower("core.journal.bytes_per_eval", "bytes"),
    lower("core.journal.load_ms", "ms"),
    lower("core.journal.verify_ms", "ms"),
    lower("core.journal.resume_ms", "ms"),
    lower("core.journal.compact_ms", "ms"),
    lower("core.status.rewrite_ms", "ms"),
    lower("core.status.bytes", "bytes"),
    lower("core.status.count", "count"),
    lower("core.driver.other_s", "s"),
    lower("obs.campaign.overhead_share", "ratio"),
    lower("obs.events.count", "count"),
    higher("bench.attributed_share", "ratio"),
    lower("bench.cpu.closure_share", "ratio"),
    lower("bench.trace.overhead_share", "ratio"),
    // Raw (unscaled) timings of the untraced run the layer pass replayed,
    // the work-model factors between them and the end-to-end numbers, and
    // how far the model is from the step costs the pass measured.
    lower("bench.raw.wall_s", "s"),
    lower("bench.raw.cpu_s", "s"),
    lower("bench.wall_factor", "ratio"),
    lower("bench.cpu_factor", "ratio"),
    lower("bench.model.residual_share", "ratio"),
    lower("bench.layer_pass_s", "s"),
    lower("bench.replay_mismatches", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Json;
    use crate::workload::{Sizes, Workload};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Array(items)) => items,
            _ => panic!("BENCHMARK.json has no {key}"),
        }
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no {key}"))
    }

    fn direction(lower_is_better: bool) -> &'static str {
        if lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let doc = spec();
        let e2e = entries(&doc, "end_to_end");
        let seed_steady: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.seed_steady).collect();
        assert_eq!(e2e.len(), seed_steady.len());
        for (entry, m) in e2e.iter().zip(seed_steady) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), direction(m.lower_is_better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let per_layer = entries(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (entry, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), direction(m.lower_is_better));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        // An end-to-end metric that is not seed-steady is in both tables.
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.seed_steady)
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .map(|(name, unit)| {
                assert!(name_ok(name), "{name}");
                assert!(unit_ok(unit), "{name}: {unit}");
                name
            })
            .chain(Workload::ALL.map(Workload::name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().filter(|m| !m.seed_steady) {
            assert!(PER_LAYER
                .iter()
                .any(|p| p.name == m.name && p.unit == m.unit));
        }
    }

    #[test]
    fn benchmark_json_records_the_sizes_it_runs() {
        let doc = spec();
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        let sizes = Sizes::for_seconds(seconds);
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(entry, "name"), workload.name());
            let why = text(entry, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            let recorded = match workload {
                Workload::Gen => format!("generations {}", sizes.generations),
                Workload::Steady => String::new(),
                Workload::Wide => format!("K {}", sizes.wide_k),
                Workload::Replay => format!("R {}", sizes.replay_cycles),
            };
            assert!(
                why.contains(&recorded),
                "{}: sizes differ from {recorded:?}",
                workload.name()
            );
        }
    }
}
