//! Machine-readable baseline of the training hot path: steady-state
//! training step cost and per-training set-up cost (`TrainRun::new`: model
//! init plus the descriptor caches selected from the datasets' pair
//! tables), how much of a step the generic tape could ever give back (the
//! step of a near-empty system, and a step's time outside its fused pair
//! kernels), the tensor/tape kernels a step is built from (blocked matmul,
//! transposed-operand matmuls, bulk tanh, fused affine layer), the
//! batched-vs-scalar descriptor pass, and the journal's read side
//! (`verify` and `Journal::load` over a synthetic steady-state journal, and
//! the frame checksum).
//!
//! Writes `BENCH_hotpath.json` (schema `dphpo-hotpath-v5`) into the
//! current directory — run from the repo root (or via
//! `scripts/bench_baseline.sh`) to refresh the checked-in baseline.
//! `--quick` trades stability for runtime (CI-friendly). Exits 1 when
//! `matmul_nt` reaches 1.6× a plain `matmul` at 64×64 (the layout guard).

use std::rc::Rc;
use std::time::Instant;

use dphpo_autograd::{PairList, Tape, Tensor, Unary, Var};
use dphpo_bench::harness::{
    ns_per_op, reference_config as config, reference_system, time_best, REFERENCE_RCUT,
};
use dphpo_core::campaign_report::GenStatus;
use dphpo_core::experiment::{build_dataset, ExperimentConfig};
use dphpo_core::journal::{
    crc32, verify, EpochEntry, EvalEntry, FaultKind, Journal, JournalWriter, SnapshotEntry,
};
use dphpo_dnnp::json::Json;
use dphpo_dnnp::{
    forward_cached, train, DnnpModel, FrameCache, LcurveRow, Supervision, TrainConfig, TrainRun,
};
use dphpo_evo::nsga2::GenerationRecord;
use dphpo_evo::{Fitness, Individual};
use dphpo_hpc::{PoolReport, SlotTally, StreamSlotsState};
use dphpo_md::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sparse `rcut = 6` variant (~3 pairs/atom) is recorded next to the
/// reference — it is dominated by per-node graph overhead rather than kernel
/// throughput, so tracking both catches regressions in either regime.
const SPARSE_RCUT: f64 = 6.0;

/// Nanoseconds of (one warm training step, one pass of that step's fused
/// pair kernels and little else), timed by [`alternating_ns_per_op`] in
/// blocks of `k_steps`, so that their difference means something.
///
/// The step is one live `TrainRun`'s, after a block that absorbs first-use
/// buffer growth and the step-0 validation row. The kernel pass goes through
/// the public tape ops on the batch a step sees: per neighbour species
/// `embed_pool` and the sensitivity node `grad` records on its pair leaf, one
/// `force_assemble`, then `grad_values` down to the embedding parameters
/// (`force_assemble_back`, `embed_sens_gbar`, `embed_back`) — no fitting
/// net, no labels, no optimizer. Parameter registration and a dozen O(atoms)
/// glue nodes (`sum_all`, `add`, `square` and their adjoints) ride along, so
/// it overstates the kernels — and step − pass understates what lies outside
/// them — by a few microseconds.
fn step_and_fused_ns(
    rounds: usize,
    k_steps: usize,
    train_ds: &Dataset,
    val_ds: &Dataset,
    cfg: &TrainConfig,
) -> (f64, f64) {
    let steps = (rounds + 1) * k_steps;
    let cfg = TrainConfig { num_steps: steps, disp_freq: steps, ..cfg.clone() };
    let sup = Supervision::none();
    let mut rng = StdRng::seed_from_u64(7);
    let mut run = TrainRun::new(&cfg, train_ds, val_ds, &mut rng, &sup).expect("bench run");

    let model = DnnpModel::new(cfg.clone(), train_ds, &mut rng).expect("bench model");
    let batch = (cfg.n_workers * cfg.batch_per_worker).min(train_ds.frames.len());
    let caches: Vec<FrameCache> =
        train_ds.frames[..batch].iter().map(|f| model.build_cache(&f.positions)).collect();
    let n_frame = caches[0].n_atoms;
    let n = n_frame * caches.len();
    let lists: Vec<(usize, Rc<PairList>)> = (0..model.n_species)
        .map(|t| {
            let segments =
                caches.iter().enumerate().map(|(b, c)| (c.species[t].clone(), b * n_frame));
            (t, Rc::new(PairList::new(segments.collect(), n)))
        })
        .filter(|(_, list)| list.n_pairs() > 0)
        .collect();
    let tape = Tape::new();
    let fused_pass = || {
        tape.reset();
        let taped = model.params.register(&tape);
        let mut energy: Option<Var> = None;
        let mut streams = Vec::new();
        let mut wrt = Vec::new();
        for (t, list) in &lists {
            let pooled = tape.embed_pool(
                Rc::clone(list),
                &taped.embeddings[*t],
                cfg.desc_activation.unary(),
                1.0 / model.stats.dstd[*t],
                1.0 / model.stats.avg_neighbors[*t],
            );
            streams.push((pooled.pairs, Rc::clone(list)));
            wrt.extend(taped.embeddings[*t].iter().flat_map(|&(w, b)| [w, b]));
            let e = tape.sum_all(pooled.out);
            energy = Some(energy.map_or(e, |prev| tape.add(prev, e)));
        }
        let energy = energy.expect("the system has pairs inside the cutoff");
        let leaves: Vec<Var> = streams.iter().map(|&(pairs, _)| pairs).collect();
        let sens = tape.grad(energy, &leaves);
        let parts: Vec<(Var, Rc<PairList>)> =
            sens.into_iter().zip(streams).map(|(u, (_, list))| (u, list)).collect();
        let forces = tape.force_assemble(&parts, n);
        let loss = tape.add(energy, tape.sum_all(tape.square(forces)));
        std::hint::black_box(tape.grad_values(loss, &wrt));
    };

    alternating_ns_per_op(
        rounds,
        k_steps,
        || {
            run.step();
        },
        fused_pass,
    )
}

/// Nanoseconds per call of two operations, each the best of `rounds` blocks
/// of `reps` calls, the two kinds of block alternating (after one warm-up
/// block each) so that both minima come from the same quiet moments of a
/// shared machine.
fn alternating_ns_per_op(
    rounds: usize,
    reps: usize,
    mut first: impl FnMut(),
    mut second: impl FnMut(),
) -> (f64, f64) {
    let block = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    block(&mut first);
    block(&mut second);
    let (mut best_first, mut best_second) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        best_first = best_first.min(block(&mut first));
        best_second = best_second.min(block(&mut second));
    }
    (best_first, best_second)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::matrix(rows, cols, (0..rows * cols).map(|_| rng.random_range(-1.0..1.0)).collect())
}

/// Tile a one-frame one-hot matrix `[n, S]` into `[B·n, S]`.
fn tile_onehot(onehot: &Tensor, batch: usize) -> Tensor {
    let rows = onehot.shape().rows();
    let cols = onehot.shape().cols();
    let mut out = Vec::with_capacity(batch * rows * cols);
    for _ in 0..batch {
        out.extend_from_slice(onehot.data());
    }
    Tensor::matrix(batch * rows, cols, out)
}

/// Write a steady-state journal of synthetic records through the
/// production writer: `evals` arrival-carrying evaluations with a
/// three-row `lcurve_tail`, and every 100 arrivals the epoch's boundary
/// record (population of 100, report, status row) followed by a snapshot
/// (population and archive of 100) — the record mix of a paper-width steady
/// campaign.
fn synthetic_steady_journal(path: &std::path::Path, evals: usize) {
    fn draw(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(0.0..10.0)).collect()
    }
    fn individuals(rng: &mut StdRng, n: usize) -> Vec<Individual> {
        (0..n)
            .map(|i| {
                let mut ind = Individual::new(draw(rng, 7));
                ind.fitness = Some(Fitness::new(draw(rng, 2)));
                ind.rank = i % 5;
                ind.distance = if i % 10 == 0 { f64::INFINITY } else { draw(rng, 1)[0] };
                ind.eval_minutes = Some(draw(rng, 1)[0]);
                ind
            })
            .collect()
    }
    let mut rng = StdRng::seed_from_u64(11);
    let workers = vec![0.0; 2];
    let report = PoolReport {
        per_worker_minutes: workers.clone(),
        busy_minutes: workers.clone(),
        idle_minutes: workers.clone(),
        lost_death_minutes: workers.clone(),
        backoff_slot_minutes: workers.clone(),
        ..PoolReport::default()
    };
    // `load` reads the epoch length off the header.
    let config = ExperimentConfig { pop_size: 100, ..ExperimentConfig::smoke() };
    let mut writer = JournalWriter::create(path, &config).expect("create bench journal");
    for arrival in 0..evals {
        let genome = draw(&mut rng, 7);
        let row = |step| LcurveRow {
            step,
            rmse_e_val: 0.01244327,
            rmse_e_trn: 0.01772575,
            rmse_f_val: 0.09171721,
            rmse_f_trn: 0.1012222,
            lr: 0.0004570794,
        };
        let entry = EvalEntry {
            run: 0,
            gen: arrival / 100,
            slot: arrival % 100,
            seed: arrival as u64,
            objectives: Some(genome[..2].to_vec()),
            minutes: genome[2],
            genome,
            fault: FaultKind::None,
            fault_step: None,
            fault_loss: None,
            attempts: 1,
            lcurve_tail: vec![row(1000), row(1500), row(2000)],
            arrival: Some(arrival),
        };
        writer.append_eval(&entry).expect("append eval");
        if (arrival + 1) % 100 == 0 {
            let population = individuals(&mut rng, 100);
            let epoch = arrival / 100;
            let boundary = EpochEntry {
                run: 0,
                record: GenerationRecord {
                    generation: epoch,
                    failures: 0,
                    population: population.clone(),
                },
                report: report.clone(),
                status: GenStatus {
                    generation: epoch,
                    evaluations: 100,
                    hypervolume: draw(&mut rng, 1)[0],
                    cardinality: 100,
                    spread: draw(&mut rng, 1)[0],
                    ..GenStatus::default()
                },
            };
            writer.append_epoch(&boundary).expect("append epoch");
            let tally = SlotTally {
                busy: workers.clone(),
                lost: workers.clone(),
                backoff: workers.clone(),
                ..SlotTally::default()
            };
            let slots = StreamSlotsState { now: tally.clone(), baseline: tally };
            let snapshot = SnapshotEntry {
                run: 0,
                arrivals: arrival + 1,
                submitted: arrival + 1,
                std: vec![0.1; 7],
                population,
                pending: Vec::new(),
                archive: individuals(&mut rng, 100),
                slots,
                history: Vec::new(),
                epoch_reports: Vec::new(),
                epoch_failures: 0,
                epoch_churn: (0, 0, 0),
                epoch_sim_offset: 0.0,
                status_rows: Vec::new(),
            };
            writer.append_snapshot(&snapshot).expect("append snapshot");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let (samples, k_steps, mm_reps, aff_reps, act_reps, new_reps) =
        if quick { (3, 20, 300, 60, 100, 20) } else { (3, 100, 3000, 400, 1000, 200) };
    let (train_ds, val_ds) = reference_system();

    // Steady-state step cost by subtraction: t(2K) − t(K) spans exactly K
    // steps of the warm loop, cancelling model setup and cache building.
    //
    // The floor: a step with next to no arithmetic in it — the campaign
    // smoke shape (10 atoms, batch 1, embedding {4,4}, fitting {6}) — is what
    // the generic tape costs a step in node pushes, op dispatch and buffer
    // leases. One measurement, repeated in every `training` row.
    println!("timing the near-empty training step...");
    let smoke = ExperimentConfig::smoke();
    let (smoke_train, smoke_val) = build_dataset(&smoke);
    let (floor_ns, _) = step_and_fused_ns(
        3 * samples,
        10 * k_steps,
        &smoke_train,
        &smoke_val,
        &smoke.base_train_config,
    );

    let mut training = Vec::new();
    for rcut in [REFERENCE_RCUT, SPARSE_RCUT] {
        println!("timing training at rcut {rcut} ({k_steps} vs {} steps)...", 2 * k_steps);
        let t_short = time_best(samples, || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = train(&config(rcut, k_steps), &train_ds, &val_ds, &mut rng).unwrap();
        });
        let t_long = time_best(samples, || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = train(&config(rcut, 2 * k_steps), &train_ds, &val_ds, &mut rng).unwrap();
        });
        let ns_per_step = ((t_long - t_short).max(0.0) / k_steps as f64) * 1e9;
        // What a hand-derived (tape-free) step could at most remove: a warm
        // step minus its fused pair kernels.
        let (step_ns, fused_ns) =
            step_and_fused_ns(3 * samples, k_steps, &train_ds, &val_ds, &config(rcut, k_steps));
        let outside_fused_ns = (step_ns - fused_ns).max(0.0);
        // What every evaluation pays before its first step.
        let (cfg, sup) = (config(rcut, 1), Supervision::none());
        let new_us = ns_per_op(samples, new_reps, || {
            let mut rng = StdRng::seed_from_u64(7);
            let run = TrainRun::new(&cfg, &train_ds, &val_ds, &mut rng, &sup).unwrap();
            std::hint::black_box(run.is_active());
        }) / 1e3;
        training.push((rcut, ns_per_step, new_us, outside_fused_ns));
    }

    println!("timing kernels...");
    let mut rng = StdRng::seed_from_u64(5);
    let a = random_matrix(64, 64, &mut rng);
    let b = random_matrix(64, 64, &mut rng);
    // The layout guard compares these two, so they are timed together.
    let (matmul_ns, matmul_nt_ns) = alternating_ns_per_op(
        3 * samples,
        mm_reps,
        || {
            let _ = std::hint::black_box(&a).matmul(std::hint::black_box(&b));
        },
        || {
            let _ = std::hint::black_box(&a).matmul_nt(std::hint::black_box(&b));
        },
    );
    let matmul_tn_ns = ns_per_op(samples, mm_reps, || {
        let _ = std::hint::black_box(&a).matmul_tn(std::hint::black_box(&b));
    });
    // Bulk activations through the tape's unary kernels (tanh: the
    // polynomial lane kernel; sigmoid and softplus: libm per element).
    let t0 = random_matrix(64, 64, &mut rng);
    let ttape = Tape::new();
    let unary_ns = |kind: Unary| {
        ns_per_op(samples, act_reps, || {
            ttape.reset();
            let x = ttape.constant(t0.clone());
            let _ = std::hint::black_box(ttape.item(ttape.sum_all(ttape.unary(kind, x))));
        })
    };
    let tanh_ns = unary_ns(Unary::Tanh);
    let sigmoid_ns = unary_ns(Unary::Sigmoid);
    let softplus_ns = unary_ns(Unary::Softplus);

    // Fused affine layer, forward + weight gradient, on an arena tape —
    // the per-layer unit of work inside every training step.
    let x0 = random_matrix(256, 32, &mut rng);
    let w0 = random_matrix(32, 32, &mut rng);
    let b0 = Tensor::vector(&(0..32).map(|_| rng.random_range(-0.5..0.5)).collect::<Vec<_>>());
    let tape = Tape::new();
    let affine_cycle = |fused: bool| {
        tape.reset();
        let x = tape.constant(x0.clone());
        let w = tape.constant(w0.clone());
        let b = tape.constant(b0.clone());
        let h = if fused {
            tape.affine(x, w, b, Some(Unary::Tanh))
        } else {
            tape.tanh(tape.add_bias(tape.matmul(x, w), b))
        };
        let g = tape.grad(tape.sum_all(h), &[w])[0];
        let _ = std::hint::black_box(tape.item(tape.sum_all(g)));
    };
    let affine_fused_ns = ns_per_op(samples, aff_reps, || affine_cycle(true));
    let affine_unfused_ns = ns_per_op(samples, aff_reps, || affine_cycle(false));

    // Batched descriptor pass: the forward+forces graph over a list of B
    // frame caches versus B single-frame graphs. The list is exactly what
    // the trainer hands the tape for its data-parallel batch.
    println!("timing batched vs scalar descriptor pass...");
    let batch_frames = 8.min(train_ds.frames.len());
    let bcfg = config(REFERENCE_RCUT, 1);
    let mut mrng = StdRng::seed_from_u64(9);
    let model = DnnpModel::new(bcfg.clone(), &train_ds, &mut mrng).expect("bench model");
    let frame_caches: Vec<FrameCache> = train_ds.frames[..batch_frames]
        .iter()
        .map(|f| model.build_cache(&f.positions))
        .collect();
    let cache_refs: Vec<&FrameCache> = frame_caches.iter().collect();
    let onehot_batch = tile_onehot(&model.onehot, batch_frames);
    let btape = Tape::new();
    let batch_reps = if quick { 20 } else { 200 };
    let scalar_pass_ns = ns_per_op(samples, batch_reps, || {
        for cache in &frame_caches {
            btape.reset();
            let taped = model.params.register(&btape);
            let graph = forward_cached(
                &btape,
                &taped,
                &bcfg,
                &model.stats,
                &[cache],
                &model.onehot,
                true,
            );
            let _ = std::hint::black_box(
                btape.item(btape.sum_all(graph.forces.expect("forces"))),
            );
        }
    });
    let batched_pass_ns = ns_per_op(samples, batch_reps, || {
        btape.reset();
        let taped = model.params.register(&btape);
        let graph = forward_cached(
            &btape,
            &taped,
            &bcfg,
            &model.stats,
            &cache_refs,
            &onehot_batch,
            true,
        );
        let _ =
            std::hint::black_box(btape.item(btape.sum_all(graph.forces.expect("forces"))));
    });

    // The journal's read side: one scan under `verify` (which keeps
    // nothing of a record) and `Journal::load` (which keeps all of it).
    println!("timing the journal read path...");
    let journal_path =
        std::env::temp_dir().join(format!("dphpo-hotpath-{}.journal.jsonl", std::process::id()));
    synthetic_steady_journal(&journal_path, 700);
    let journal_bytes = std::fs::metadata(&journal_path).expect("bench journal").len();
    let journal_frames = verify(&journal_path).expect("verify bench journal").frames;
    let scan_samples = if quick { 5 } else { 15 };
    let verify_us = time_best(scan_samples, || {
        let report = verify(std::hint::black_box(&journal_path)).expect("verify bench journal");
        assert!(!report.damaged());
    }) * 1e6;
    let load_us = time_best(scan_samples, || {
        let journal = Journal::load(std::hint::black_box(&journal_path)).expect("load");
        std::hint::black_box(journal.frames);
    }) * 1e6;
    let _ = std::fs::remove_file(&journal_path);
    let block: Vec<u8> = (0..65536u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    let crc32_64k_us = ns_per_op(samples, mm_reps, || {
        std::hint::black_box(crc32(std::hint::black_box(&block)));
    }) / 1e3;

    let doc = Json::object(vec![
        ("schema", Json::String("dphpo-hotpath-v5".into())),
        ("quick", Json::Bool(quick)),
        ("reference_rcut", Json::Number(REFERENCE_RCUT)),
        (
            "training",
            Json::Array(
                training
                    .iter()
                    .map(|&(rcut, ns, new_us, outside_fused_ns)| {
                        Json::object(vec![
                            ("rcut", Json::Number(rcut)),
                            ("steps_measured", Json::Number(k_steps as f64)),
                            ("ns_per_step", Json::Number(ns)),
                            ("train_run_new_us", Json::Number(new_us)),
                            ("floor_ns_per_step", Json::Number(floor_ns)),
                            ("outside_fused_ns_per_step", Json::Number(outside_fused_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "kernels",
            Json::object(vec![
                ("matmul_64x64_ns", Json::Number(matmul_ns)),
                ("matmul_nt_64x64_ns", Json::Number(matmul_nt_ns)),
                ("matmul_tn_64x64_ns", Json::Number(matmul_tn_ns)),
                ("tanh_64x64_ns", Json::Number(tanh_ns)),
                ("sigmoid_64x64_ns", Json::Number(sigmoid_ns)),
                ("softplus_64x64_ns", Json::Number(softplus_ns)),
                ("affine_fused_fwd_grad_256x32_ns", Json::Number(affine_fused_ns)),
                ("affine_unfused_fwd_grad_256x32_ns", Json::Number(affine_unfused_ns)),
            ]),
        ),
        (
            "journal",
            Json::object(vec![
                ("bytes", Json::Number(journal_bytes as f64)),
                ("frames", Json::Number(journal_frames as f64)),
                ("verify_us", Json::Number(verify_us)),
                ("load_us", Json::Number(load_us)),
                ("crc32_64k_us", Json::Number(crc32_64k_us)),
            ]),
        ),
        (
            "batched",
            Json::object(vec![
                ("frames", Json::Number(batch_frames as f64)),
                ("scalar_fwd_forces_ns", Json::Number(scalar_pass_ns)),
                ("batched_fwd_forces_ns", Json::Number(batched_pass_ns)),
                ("speedup", Json::Number(scalar_pass_ns / batched_pass_ns)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write baseline");
    println!("wrote {out_path}");
    for &(rcut, ns, new_us, outside_fused_ns) in &training {
        println!(
            "  training rcut {rcut}: {:.1} µs/step ({:.1} µs outside the fused pair kernels), \
             TrainRun::new {new_us:.1} µs",
            ns / 1e3,
            outside_fused_ns / 1e3
        );
    }
    println!("  near-empty step (smoke shape): {:.1} µs", floor_ns / 1e3);
    println!(
        "  matmul 64x64: {matmul_ns:.0} ns  (nt {matmul_nt_ns:.0} ns, tn {matmul_tn_ns:.0} ns, nt/mm {:.2})",
        matmul_nt_ns / matmul_ns
    );
    println!("  64x64 tanh {tanh_ns:.0} ns, sigmoid {sigmoid_ns:.0} ns, softplus {softplus_ns:.0} ns");
    println!(
        "  affine 256x32 fwd+grad: fused {:.1} µs vs unfused {:.1} µs",
        affine_fused_ns / 1e3,
        affine_unfused_ns / 1e3
    );
    println!(
        "  journal ({:.2} MB, {journal_frames} frames): verify {:.1} ms, load {:.1} ms; \
         crc32 of 64 KiB {crc32_64k_us:.1} µs",
        journal_bytes as f64 / 1e6,
        verify_us / 1e3,
        load_us / 1e3
    );
    println!(
        "  batched descriptor pass ({batch_frames} frames): {:.1} µs vs scalar {:.1} µs ({:.2}x)",
        batched_pass_ns / 1e3,
        scalar_pass_ns / 1e3,
        scalar_pass_ns / batched_pass_ns
    );
    // Guard on the packed-panel `matmul_nt`: it must stay in the cost class
    // of plain `matmul` at 64×64 (the pre-panel kernel was ~1.8×, the packed
    // one ~1.2×; the cap leaves headroom for timer noise on a shared box).
    if matmul_nt_ns / matmul_ns >= 1.6 {
        eprintln!(
            "FAIL: matmul_nt is {:.2}x the cost of matmul at 64x64 (expected ~1.2x, cap 1.6x): \
             the transpose pack in simd::mm_nt has likely regressed",
            matmul_nt_ns / matmul_ns
        );
        std::process::exit(1);
    }
}
