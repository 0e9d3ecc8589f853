//! Round-trip tests for the journal's record codec, through text — the way
//! the scan reads it: `to_json().to_compact()` → [`Reader`] → struct →
//! `to_json().to_compact()` must be a fixed point with every field
//! bit-equal, for randomly generated individuals, fitness vectors, RNG
//! states and whole eval / generation / epoch / snapshot records, and for
//! every frame of the two checked-in campaign journals.

use std::path::Path;

use dphpo_core::campaign_report::GenStatus;
use dphpo_core::journal::{
    fitness_to_json, individual_to_json, read_fitness, read_individual, read_rng_state,
    rng_state_to_json, EpochEntry, EvalEntry, FaultKind, GenEntry, JournalError, SnapshotEntry,
};
use dphpo_core::parse_frame;
use dphpo_dnnp::json::Reader;
use dphpo_dnnp::{Json, LcurveRow};
use dphpo_evo::nsga2::GenerationRecord;
use dphpo_evo::{Fitness, Individual};
use dphpo_hpc::{PoolReport, SlotTally, StreamSlotsState, TaskCounts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decode `text` as one complete value.
fn decode<T>(
    text: &str,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, JournalError>,
) -> Result<T, JournalError> {
    let mut r = Reader::new(text);
    let value = read(&mut r)?;
    r.end()?;
    Ok(value)
}

/// f64 values spanning ~600 orders of magnitude, signs, exact zero, and
/// MAXINT (the paper's penalty value) — the space journaled genomes,
/// objectives, and minutes live in.
fn wild_f64() -> impl Strategy<Value = f64> {
    (0usize..10, -1.0f64..1.0, -300.0f64..300.0).prop_map(|(kind, mantissa, exponent)| {
        match kind {
            0 => 0.0,
            1 => i64::MAX as f64,
            2 | 3 => mantissa,
            _ => mantissa * 10f64.powf(exponent),
        }
    })
}

fn wild_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(wild_f64(), 1..max_len + 1)
}

/// The non-finite values the codec spells as strings, and finite ones.
fn wild_non_finite(kind: usize, finite: f64) -> f64 {
    match kind % 4 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => finite,
    }
}

/// Unevaluated individuals (fresh offspring: `null` fitness, rank and
/// minutes) and evaluated ones (with fitness, rank, crowding distance —
/// possibly the +inf of a boundary solution — and charged minutes), as
/// they appear in journal records.
fn wild_individual() -> impl Strategy<Value = Individual> {
    let eval_block = (wild_vec(3), 0usize..50, wild_f64(), 0usize..8, wild_f64());
    (wild_vec(7), 0.0f64..1.0, eval_block).prop_map(
        |(genome, evaluated, (objectives, rank, minutes, boundary, distance))| {
            let mut ind = Individual::new(genome);
            if evaluated < 0.8 {
                ind.fitness = Some(Fitness::new(objectives));
                ind.rank = rank;
                ind.eval_minutes = Some(minutes.abs());
                ind.distance = wild_non_finite(boundary, distance.abs());
            }
            ind
        },
    )
}

/// Mostly genuine fitness vectors, with the occasional MAXINT penalty.
fn wild_fitness() -> impl Strategy<Value = Fitness> {
    (0.0f64..1.0, wild_vec(4)).prop_map(|(penalty, objectives)| {
        if penalty < 0.2 {
            Fitness::penalty(2)
        } else {
            Fitness::new(objectives)
        }
    })
}

const FAULTS: [FaultKind; 5] = [
    FaultKind::None,
    FaultKind::Diverged,
    FaultKind::Timeout,
    FaultKind::Worker,
    FaultKind::Cancelled,
];

/// Eval records of every fault kind, generational and steady-state
/// (`arrival`-carrying), with and without a structured divergence (whose
/// loss may be `nan` / `±inf`), with an empty or a populated `lcurve_tail`.
fn wild_eval() -> impl Strategy<Value = EvalEntry> {
    let ids = (0usize..5, 0usize..8, 0usize..100, i64::MIN..i64::MAX);
    let outcome = (0usize..5, 0usize..8, wild_f64(), wild_vec(2), (wild_f64(), 1usize..4));
    let extras = (0usize..4, wild_vec(5), 0usize..3, 0usize..5000);
    (ids, wild_vec(7), outcome, extras).prop_map(
        |(
            (run, gen, slot, seed),
            genome,
            (fault, loss_kind, loss, objectives, (minutes, attempts)),
            (tail_rows, tail, arrival_kind, arrival),
        )| {
            let fault = FAULTS[fault];
            let structured = fault == FaultKind::Diverged && loss_kind < 6;
            EvalEntry {
                run,
                gen,
                slot,
                seed: seed as u64,
                genome,
                fault,
                fault_step: structured.then_some(slot * 7),
                fault_loss: structured.then(|| wild_non_finite(loss_kind, loss)),
                objectives: (fault == FaultKind::None).then_some(objectives),
                minutes: minutes.abs(),
                attempts: attempts as u32,
                lcurve_tail: (0..tail_rows)
                    .map(|i| LcurveRow {
                        step: 500 * (i + 1),
                        rmse_e_val: tail[0],
                        rmse_e_trn: tail[1 % tail.len()],
                        rmse_f_val: tail[2 % tail.len()],
                        rmse_f_trn: tail[3 % tail.len()],
                        lr: tail[4 % tail.len()],
                    })
                    .collect(),
                arrival: (arrival_kind > 0).then_some(arrival),
            }
        },
    )
}

fn wild_report() -> impl Strategy<Value = PoolReport> {
    (wild_vec(3), 0usize..9, wild_f64()).prop_map(|(minutes, count, wall)| PoolReport {
        makespan_minutes: wall.abs(),
        per_worker_minutes: minutes.clone(),
        worker_deaths: count,
        retried_tasks: count / 2,
        diverged_tasks: count % 3,
        timeout_tasks: count % 2,
        cancelled_tasks: count / 4,
        exhausted_tasks: count / 5,
        lost_minutes: minutes[0],
        backoff_minutes: wall,
        busy_minutes: minutes.clone(),
        lost_death_minutes: minutes.clone(),
        backoff_slot_minutes: minutes.clone(),
        idle_minutes: minutes,
        wall_minutes: wall.abs(),
        ..PoolReport::default()
    })
}

fn wild_generation_record() -> impl Strategy<Value = GenerationRecord> {
    (0usize..8, 0usize..5, prop::collection::vec(wild_individual(), 0..4)).prop_map(
        |(generation, failures, population)| GenerationRecord { generation, failures, population },
    )
}

fn wild_generation() -> impl Strategy<Value = GenEntry> {
    let tail = (prop::collection::vec(wild_individual(), 0..3), wild_report());
    (0usize..5, wild_generation_record(), wild_vec(7), (0usize..700, 1i64..i64::MAX), tail)
        .prop_map(|(run, record, std, (evaluations, seed), (archive, report))| GenEntry {
            run,
            record,
            std,
            evaluations,
            rng_state: StdRng::seed_from_u64(seed as u64).state(),
            archive,
            report,
        })
}

/// Epoch boundary records: a generation record, its scheduler report and
/// its status row — every field of the row drawn on its own, so a key read
/// into the wrong field shows.
fn wild_epoch() -> impl Strategy<Value = EpochEntry> {
    let row = (prop::collection::vec(0usize..900, 12), prop::collection::vec(wild_f64(), 9));
    (0usize..5, wild_generation_record(), wild_report(), row).prop_map(
        |(run, record, report, (n, x))| EpochEntry {
            run,
            status: GenStatus {
                generation: n[0],
                evaluations: n[1],
                failures: n[2],
                cardinality: n[3],
                added: n[4],
                evicted: n[5],
                deaths: n[6],
                retried: n[7],
                diverged: n[8],
                timeout: n[9],
                cancelled: n[10],
                exhausted: n[11],
                hypervolume: x[0],
                spread: x[1],
                makespan_minutes: x[2],
                wall_minutes: x[3],
                busy_minutes: x[4],
                idle_minutes: x[5],
                backoff_minutes: x[6],
                lost_death_minutes: x[7],
                utilization_pct: x[8],
            },
            record,
            report,
        },
    )
}

/// Snapshots with an empty or a populated resubmission queue (`pending`), and
/// every field of the slot accountant drawn on its own. The per-epoch
/// history is not part of the journaled record (`load` folds it in from the
/// epoch records), so it is left empty here.
fn wild_snapshot() -> impl Strategy<Value = SnapshotEntry> {
    let people = (
        prop::collection::vec(wild_individual(), 0..3),
        prop::collection::vec((0usize..900, wild_individual()), 0..3),
        prop::collection::vec(wild_individual(), 0..3),
    );
    let counts = (0usize..5, 0usize..900, 0usize..900, 0usize..7);
    let churn = (0usize..9, 0usize..9, 0usize..9);
    let slots = (prop::collection::vec(wild_vec(2), 6), prop::collection::vec(0usize..900, 12));
    (counts, wild_vec(7), people, churn, (slots, wild_f64())).prop_map(
        |(
            (run, arrivals, submitted, epoch_failures),
            std,
            (population, pending, archive),
            epoch_churn,
            ((minutes, n), epoch_sim_offset),
        )| SnapshotEntry {
            run,
            arrivals,
            submitted,
            std,
            population,
            pending,
            archive,
            slots: StreamSlotsState {
                now: SlotTally {
                    busy: minutes[0].clone(),
                    lost: minutes[1].clone(),
                    backoff: minutes[2].clone(),
                    counts: TaskCounts {
                        deaths: n[0],
                        retried: n[1],
                        diverged: n[2],
                        timeout: n[3],
                        cancelled: n[4],
                        exhausted: n[5],
                    },
                },
                baseline: SlotTally {
                    busy: minutes[3].clone(),
                    lost: minutes[4].clone(),
                    backoff: minutes[5].clone(),
                    counts: TaskCounts {
                        deaths: n[6],
                        retried: n[7],
                        diverged: n[8],
                        timeout: n[9],
                        cancelled: n[10],
                        exhausted: n[11],
                    },
                },
            },
            history: Vec::new(),
            epoch_reports: Vec::new(),
            status_rows: Vec::new(),
            epoch_failures,
            epoch_churn,
            epoch_sim_offset,
        },
    )
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_individuals_round_trip_bit_exactly(ind in wild_individual()) {
        let text = individual_to_json(&ind).to_compact();
        let back = decode(&text, read_individual).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(back.id, ind.id);
        prop_assert_eq!(&back.genome, &ind.genome);
        prop_assert_eq!(&back.fitness, &ind.fitness);
        prop_assert_eq!(back.rank, ind.rank);
        prop_assert!(
            same_bits(back.distance, ind.distance),
            "distance {} != {}",
            back.distance,
            ind.distance
        );
        prop_assert_eq!(back.eval_minutes, ind.eval_minutes);
        // Fixed point: a second serialisation is byte-identical.
        prop_assert_eq!(individual_to_json(&back).to_compact(), text);
    }

    #[test]
    fn random_fitness_vectors_round_trip_bit_exactly(fitness in wild_fitness()) {
        let text = fitness_to_json(&fitness).to_compact();
        let back = decode(&text, read_fitness).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(&back, &fitness);
        prop_assert_eq!(back.is_penalty(), fitness.is_penalty());
        prop_assert_eq!(fitness_to_json(&back).to_compact(), text);
    }

    #[test]
    fn random_rng_states_round_trip_bit_exactly(
        seed in i64::MIN..i64::MAX,
        steps in 0usize..17,
    ) {
        // Real checkpoints come from a live generator: snapshot one that
        // has been stepped a while, as at a generation boundary.
        let mut stream = StdRng::seed_from_u64(seed as u64);
        for _ in 0..steps {
            let _: u64 = stream.random_range(0..u64::MAX);
        }
        let state = stream.state();
        let text = rng_state_to_json(state).to_compact();
        let back = decode(&text, read_rng_state).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(back, state);
        prop_assert_eq!(rng_state_to_json(back).to_compact(), text);
        // The restored generator continues the stream bit-identically.
        let mut restored = StdRng::from_state(back);
        let expect: u64 = stream.random_range(0..u64::MAX);
        prop_assert_eq!(restored.random_range(0..u64::MAX), expect);
    }

    #[test]
    fn random_eval_records_round_trip_bit_exactly(entry in wild_eval()) {
        let text = entry.to_json().to_compact();
        let back = decode(&text, EvalEntry::read).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!((back.run, back.gen, back.slot), (entry.run, entry.gen, entry.slot));
        prop_assert_eq!(back.seed, entry.seed);
        prop_assert_eq!(&back.genome, &entry.genome);
        prop_assert_eq!(back.fault, entry.fault);
        prop_assert_eq!(back.fault_step, entry.fault_step);
        prop_assert_eq!(back.fault_loss.map(f64::to_bits), entry.fault_loss.map(f64::to_bits));
        prop_assert_eq!(&back.objectives, &entry.objectives);
        prop_assert!(same_bits(back.minutes, entry.minutes));
        prop_assert_eq!(back.attempts, entry.attempts);
        prop_assert_eq!(&back.lcurve_tail, &entry.lcurve_tail);
        prop_assert_eq!(back.arrival, entry.arrival);
        prop_assert_eq!(back.to_json().to_compact(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn random_generation_records_round_trip_bit_exactly(entry in wild_generation()) {
        let text = entry.to_json().to_compact();
        let back = decode(&text, GenEntry::read).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back.run, entry.run);
        prop_assert_eq!(back.record.generation, entry.record.generation);
        prop_assert_eq!(back.record.population.len(), entry.record.population.len());
        prop_assert_eq!(back.evaluations, entry.evaluations);
        prop_assert_eq!(back.rng_state, entry.rng_state);
        prop_assert_eq!(&back.std, &entry.std);
        prop_assert_eq!(back.to_json().to_compact(), text);
    }

    #[test]
    fn random_snapshot_records_round_trip_bit_exactly(entry in wild_snapshot()) {
        let text = entry.to_json().to_compact();
        let back = decode(&text, SnapshotEntry::read).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!((back.run, back.arrivals, back.submitted),
            (entry.run, entry.arrivals, entry.submitted));
        prop_assert_eq!(back.pending.len(), entry.pending.len());
        for (b, e) in back.pending.iter().zip(&entry.pending) {
            prop_assert_eq!((b.0, b.1.id, &b.1.genome), (e.0, e.1.id, &e.1.genome));
        }
        prop_assert_eq!(&back.slots, &entry.slots);
        prop_assert_eq!(back.epoch_churn, entry.epoch_churn);
        prop_assert_eq!(back.to_json().to_compact(), text);
    }

    #[test]
    fn random_epoch_records_round_trip_bit_exactly(entry in wild_epoch()) {
        let text = entry.to_json().to_compact();
        let back = decode(&text, EpochEntry::read).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back.run, entry.run);
        prop_assert_eq!(back.record.generation, entry.record.generation);
        prop_assert_eq!(back.record.failures, entry.record.failures);
        prop_assert_eq!(back.record.population.len(), entry.record.population.len());
        prop_assert!(same_bits(back.report.makespan_minutes, entry.report.makespan_minutes));
        prop_assert_eq!(&back.report.busy_minutes, &entry.report.busy_minutes);
        prop_assert_eq!(&back.status, &entry.status);
        prop_assert_eq!(back.to_json().to_compact(), text);
    }
}

/// Decoder equivalence without the old decoder: the writer's bytes are the
/// specification, so decoding a payload and re-rendering it must reproduce
/// the payload exactly — for every frame of both checked-in campaigns.
#[test]
fn every_frame_of_the_checked_in_journals_re_renders_byte_for_byte() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["experiment.journal.jsonl", "steady_experiment.journal.jsonl"] {
        let text = std::fs::read_to_string(results.join(name)).expect("checked-in journal");
        let mut kinds = [0usize; 4];
        for (seq, line) in text.lines().enumerate() {
            let payload = parse_frame(line, seq as u64).expect("intact frame");
            let kind = Json::parse(payload).expect("valid JSON");
            let rendered = match kind.get("type").and_then(Json::as_str) {
                Some("header") => continue,
                Some("eval") => {
                    kinds[0] += 1;
                    decode(payload, EvalEntry::read).map(|e| e.to_json())
                }
                Some("generation") => {
                    kinds[1] += 1;
                    decode(payload, GenEntry::read).map(|e| e.to_json())
                }
                Some("snapshot") => {
                    kinds[2] += 1;
                    decode(payload, SnapshotEntry::read).map(|e| e.to_json())
                }
                Some("epoch") => {
                    kinds[3] += 1;
                    decode(payload, EpochEntry::read).map(|e| e.to_json())
                }
                other => panic!("{name} frame {seq}: unexpected type {other:?}"),
            };
            let rendered = rendered.unwrap_or_else(|e| panic!("{name} frame {seq}: {e}"));
            assert_eq!(rendered.to_compact(), payload, "{name} frame {seq}");
        }
        // Five runs of seven boundaries each: `generation` records, or
        // `epoch` records with a snapshot beside every one.
        let expected =
            if name.starts_with("steady") { [420, 0, 35, 35] } else { [420, 35, 0, 0] };
        assert_eq!(kinds, expected, "{name}");
    }
}

/// A cut anywhere inside a payload is an error from every decoder — the
/// typed ones and the tree — never a panic and never a shorter record.
#[test]
fn every_proper_prefix_of_a_real_payload_is_an_error() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let text = std::fs::read_to_string(results.join("experiment.journal.jsonl")).unwrap();
    let payload_of = |kind: &str| {
        let tail = format!("\"type\":\"{kind}\"}}");
        let (seq, line) =
            text.lines().enumerate().find(|(_, line)| line.ends_with(&tail)).expect(kind);
        parse_frame(line, seq as u64).unwrap().to_string()
    };
    let (snapshot, epoch) = steady_payloads(7);
    for payload in [payload_of("eval"), payload_of("generation"), snapshot, epoch] {
        assert!(payload.is_ascii());
        for cut in 0..payload.len() {
            let prefix = &payload[..cut];
            assert!(Json::parse(prefix).is_err(), "tree: {prefix}");
            assert!(decode(prefix, EvalEntry::read).is_err(), "eval: {prefix}");
            assert!(decode(prefix, GenEntry::read).is_err(), "generation: {prefix}");
            assert!(decode(prefix, SnapshotEntry::read).is_err(), "snapshot: {prefix}");
            assert!(decode(prefix, EpochEntry::read).is_err(), "epoch: {prefix}");
        }
    }
}

/// One generated snapshot payload and one generated epoch payload.
fn steady_payloads(seed: u64) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        wild_snapshot().generate(&mut rng).to_json().to_compact(),
        wild_epoch().generate(&mut rng).to_json().to_compact(),
    )
}

/// A flipped byte inside a steady-state payload (in a file the frame's CRC
/// catches it first) never panics a decoder, and whatever still decodes is a
/// record: rendering it and decoding that again is a fixed point.
#[test]
fn every_byte_flip_of_a_steady_payload_is_an_error_or_a_record() {
    fn settle<T>(
        damaged: &str,
        read: impl Fn(&mut Reader<'_>) -> Result<T, JournalError>,
        render: impl Fn(&T) -> Json,
    ) {
        if let Ok(record) = decode(damaged, &read) {
            let text = render(&record).to_compact();
            let again = decode(&text, &read).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(render(&again).to_compact(), text, "from {damaged}");
        }
    }
    for seed in [7, 8, 9] {
        let (snapshot, epoch) = steady_payloads(seed);
        for payload in [snapshot, epoch] {
            let mut bytes = payload.into_bytes();
            for at in 0..bytes.len() {
                for mask in [0x01, 0x04, 0x20] {
                    bytes[at] ^= mask;
                    if let Ok(damaged) = std::str::from_utf8(&bytes) {
                        settle(damaged, SnapshotEntry::read, SnapshotEntry::to_json);
                        settle(damaged, EpochEntry::read, EpochEntry::to_json);
                    }
                    bytes[at] ^= mask;
                }
            }
        }
    }
}
