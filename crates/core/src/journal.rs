//! The write-ahead evaluation journal: crash-safe, bit-identically
//! resumable experiment campaigns.
//!
//! Every completed evaluation (genome, seed, fitness, wall-minutes, fault
//! flags, `lcurve.out` tail) and every generation boundary (population, RNG
//! stream state, mutation σ, Pareto archive, scheduler report) is appended
//! *before* the campaign moves on — one framed record per line, flushed per
//! record, via the in-repo [`Json`] codec. If the driver dies mid-campaign,
//! `resume` replays the journaled records instead of retraining, re-submits
//! only the missing tasks to the worker pool, and continues to a result
//! **bit-identical** to an uninterrupted run.
//!
//! # Framing (format v2)
//!
//! Each line is a checksummed frame (DESIGN.md §13):
//!
//! ```text
//! J2 <seq:08x> <len:08x> <crc:08x> <payload-json>\n
//! ```
//!
//! `seq` is a monotonic frame sequence number (the header is frame 0),
//! `len` the payload's byte length, and `crc` the CRC-32 (IEEE) of the
//! payload bytes. Readers therefore detect corruption *anywhere* in the
//! file — a flipped bit, a truncated middle, an overwritten region — not
//! just a torn tail. [`Journal::load`] refuses a damaged file; [`salvage`]
//! truncates it at the first bad frame, quarantines the trailing bytes to
//! `<journal>.quarantine`, and leaves a journal that resumes
//! deterministically from the last intact record. Unframed v1 journals
//! (plain JSONL) are refused with an error naming the unsupported version —
//! never read as damaged v2.
//!
//! Steady-state campaigns additionally append self-contained **snapshot**
//! records at epoch-window boundaries (population, mutation σ, pending
//! queue, archive, slot cursors, per-epoch accumulators), so resume
//! restores the latest snapshot and replays only the arrival suffix after
//! it — O(window) work instead of O(campaign). [`compact`] rewrites a
//! journal down to that suffix. (Generational journals need no extra
//! record: every generation boundary already *is* a self-contained
//! snapshot.)
//!
//! # Determinism contract
//!
//! The resumed campaign equals the uninterrupted one because every source
//! of randomness is restored or re-derived exactly (see DESIGN.md §7 for
//! the field-by-field schema):
//!
//! 1. **EA stream** — each generation boundary stores the xoshiro256++
//!    state ([`rand::rngs::StdRng::state`]); resume rebuilds the generator
//!    with `from_state` so offspring of the next generation are
//!    regenerated bit-identically.
//! 2. **Training seeds** — per-evaluation seeds are pure functions of
//!    `(run seed, generation × population + slot)`
//!    ([`crate::workflow::derive_seed`]), independent of scheduling order.
//! 3. **Fault decisions** — worker deaths hash `(seed, generation, task,
//!    attempt)` ([`dphpo_hpc::FaultInjector`]), so an interrupted and an
//!    uninterrupted campaign see the same fault pattern.
//! 4. **Replay** — journaled evaluations are matched by `(run, generation,
//!    slot)` *and* a bit-exact genome comparison; a hit short-circuits
//!    training and returns the journaled outcome verbatim.
//! 5. **Steady-state campaigns** additionally journal each evaluation's
//!    `arrival` index — the position at which the population consumed it.
//!    All steady-state RNG draws are keyed off `(run seed, arrival)`, so
//!    the journaled arrival order fully determines population and archive
//!    bytes regardless of live thread interleaving (DESIGN.md §12).
//!
//! Journals additionally carry a fingerprint of the campaign configuration
//! ([`config_fingerprint`]); resuming under a changed configuration is
//! rejected rather than silently producing a chimera.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use dphpo_dnnp::{Json, LcurveRow};
use dphpo_evo::nsga2::GenerationRecord;
use dphpo_evo::{Fitness, Id, Individual};
use dphpo_hpc::faultplan::{IoFault, IoSite, JOURNAL_APPEND_SITE};
use dphpo_hpc::{EvalFault, EvalOutcome, PoolReport, StreamSlotsState, TaskError, TaskRecord};

use crate::campaign_report::{json_of_row, row_from_json, GenStatus};
use crate::experiment::{CampaignMode, ExperimentConfig};
use crate::workflow::EvalRecord;

/// Journal format version; bumped on any schema change. Version 2 added
/// the CRC frame layer, snapshot records, and deterministic individual
/// ids; it is the only version this build reads.
pub const JOURNAL_VERSION: u64 = 2;

/// Journal parse/validation failure, with enough context to diagnose a
/// corrupt or stale file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalError {
    /// Human-readable description.
    pub message: String,
}

impl JournalError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        JournalError { message: message.into() }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal error: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

// ---------------------------------------------------------------------------
// Frame layer (format v2): `J2 <seq:08x> <len:08x> <crc:08x> <payload>\n`
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320) lookup table,
/// built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum carried by every v2 frame.
/// Standard parameters: init and xorout `0xffffffff`, reflected. The
/// check value of `b"123456789"` is `0xcbf43926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Byte length of the v2 frame prefix:
/// `"J2 "` + 8 hex (seq) + `" "` + 8 hex (len) + `" "` + 8 hex (crc) + `" "`.
pub const FRAME_PREFIX_LEN: usize = 30;

/// Render one framed journal line. The payload must be newline-free
/// (compact JSON always is).
pub fn frame_line(seq: u64, payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "frame payloads are single-line");
    format!(
        "J2 {:08x} {:08x} {:08x} {}\n",
        seq,
        payload.len(),
        crc32(payload.as_bytes()),
        payload
    )
}

/// Parse one frame body (a line *without* its trailing newline), checking
/// the prefix shape, the sequence number against `expected_seq`, the
/// declared length, and the CRC. Returns the payload slice.
pub fn parse_frame(body: &str, expected_seq: u64) -> Result<&str, JournalError> {
    let bytes = body.as_bytes();
    if bytes.len() < FRAME_PREFIX_LEN {
        return Err(JournalError::new("frame shorter than its prefix"));
    }
    // An ASCII prefix guarantees every index below is a char boundary.
    if !bytes[..FRAME_PREFIX_LEN].is_ascii() {
        return Err(JournalError::new("frame prefix is not ASCII"));
    }
    if &body[..3] != "J2 " || bytes[11] != b' ' || bytes[20] != b' ' || bytes[29] != b' ' {
        return Err(JournalError::new("malformed frame prefix"));
    }
    let hex = |range: std::ops::Range<usize>, what: &str| {
        // Lowercase-only: `from_str_radix` would also accept uppercase,
        // letting a case-flipped byte (`'a' ^ 0x20 == 'A'`) slip through
        // undetected. The writer only ever emits lowercase.
        let field = &body[range];
        if !field.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(JournalError::new(format!("frame {what} field is not lowercase hex")));
        }
        u64::from_str_radix(field, 16)
            .map_err(|_| JournalError::new(format!("frame {what} field is not hex")))
    };
    let seq = hex(3..11, "seq")?;
    let len = hex(12..20, "len")?;
    let crc = hex(21..29, "crc")? as u32;
    if seq != expected_seq {
        return Err(JournalError::new(format!(
            "frame sequence {seq} != expected {expected_seq}"
        )));
    }
    let payload = &body[FRAME_PREFIX_LEN..];
    if payload.len() as u64 != len {
        return Err(JournalError::new(format!(
            "frame length {len} != payload length {}",
            payload.len()
        )));
    }
    let actual = crc32(payload.as_bytes());
    if actual != crc {
        return Err(JournalError::new(format!(
            "frame crc {crc:08x} != computed {actual:08x}"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Low-level JSON helpers
// ---------------------------------------------------------------------------

fn hex_u64(v: u64) -> Json {
    Json::String(format!("{v:#018x}"))
}

fn parse_hex_u64(j: Option<&Json>, what: &str) -> Result<u64, JournalError> {
    let s = j
        .and_then(Json::as_str)
        .ok_or_else(|| JournalError::new(format!("missing hex field '{what}'")))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| JournalError::new(format!("field '{what}' is not 0x-prefixed: {s}")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|_| JournalError::new(format!("field '{what}' is not hex: {s}")))
}

fn numbers(xs: &[f64]) -> Json {
    Json::Array(xs.iter().copied().map(Json::Number).collect())
}

fn f64_field(j: &Json, key: &str) -> Result<f64, JournalError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| JournalError::new(format!("missing numeric field '{key}'")))
}

fn usize_field(j: &Json, key: &str) -> Result<usize, JournalError> {
    Ok(f64_field(j, key)? as usize)
}

fn array_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], JournalError> {
    match j.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(JournalError::new(format!("missing array field '{key}'"))),
    }
}

fn f64_array(j: &Json, key: &str) -> Result<Vec<f64>, JournalError> {
    array_field(j, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| JournalError::new(format!("non-numeric entry in '{key}'")))
        })
        .collect()
}

/// Crowding distances on front boundaries are `+inf` (and a diverged loss
/// may be `NaN`), which JSON cannot express as number literals — encode
/// non-finite values as strings.
fn json_of_f64_or_inf(v: f64) -> Json {
    if v.is_finite() {
        Json::Number(v)
    } else if v.is_nan() {
        Json::String("nan".into())
    } else if v > 0.0 {
        Json::String("inf".into())
    } else {
        Json::String("-inf".into())
    }
}

fn f64_or_inf_field(j: &Json, key: &str) -> Result<f64, JournalError> {
    match j.get(key) {
        Some(Json::Number(v)) => Ok(*v),
        Some(Json::String(s)) if s == "inf" => Ok(f64::INFINITY),
        Some(Json::String(s)) if s == "-inf" => Ok(f64::NEG_INFINITY),
        Some(Json::String(s)) if s == "nan" => Ok(f64::NAN),
        _ => Err(JournalError::new(format!("missing float field '{key}'"))),
    }
}

// ---------------------------------------------------------------------------
// Serde for the domain types (also exercised by the round-trip tests)
// ---------------------------------------------------------------------------

/// Serialise a fitness vector (objectives only; `MAXINT` penalties are
/// large finite numbers and round-trip exactly).
pub fn fitness_to_json(f: &Fitness) -> Json {
    numbers(f.values())
}

/// Parse a fitness vector.
pub fn fitness_from_json(j: &Json) -> Result<Fitness, JournalError> {
    match j {
        Json::Array(items) => {
            let values: Result<Vec<f64>, _> = items
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| JournalError::new("non-numeric objective"))
                })
                .collect();
            let values = values?;
            if values.iter().any(|v| v.is_nan()) {
                return Err(JournalError::new("NaN objective in journal"));
            }
            Ok(Fitness::new(values))
        }
        _ => Err(JournalError::new("fitness must be an array")),
    }
}

/// Serialise an individual: identity, genome, evaluation state, and the
/// sort metadata (rank / crowding distance) that selection derived.
pub fn individual_to_json(ind: &Individual) -> Json {
    Json::object(vec![
        ("id", hex_u64(ind.id.raw())),
        ("genome", numbers(&ind.genome)),
        (
            "fitness",
            match &ind.fitness {
                Some(f) => fitness_to_json(f),
                None => Json::Null,
            },
        ),
        (
            "rank",
            if ind.rank == usize::MAX { Json::Null } else { Json::Number(ind.rank as f64) },
        ),
        ("distance", json_of_f64_or_inf(ind.distance)),
        ("minutes", ind.eval_minutes.map_or(Json::Null, Json::Number)),
    ])
}

/// Parse an individual. The restored id is registered with
/// [`Id::advance_past`] so freshly allocated ids never collide with it.
pub fn individual_from_json(j: &Json) -> Result<Individual, JournalError> {
    let raw = parse_hex_u64(j.get("id"), "id")?;
    Id::advance_past(raw);
    let fitness = match j.get("fitness") {
        None | Some(Json::Null) => None,
        Some(f) => Some(fitness_from_json(f)?),
    };
    let rank = match j.get("rank") {
        None | Some(Json::Null) => usize::MAX,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| JournalError::new("non-numeric 'rank'"))? as usize,
    };
    let eval_minutes = match j.get("minutes") {
        None | Some(Json::Null) => None,
        Some(v) => {
            Some(v.as_f64().ok_or_else(|| JournalError::new("non-numeric 'minutes'"))?)
        }
    };
    Ok(Individual {
        id: Id::from_raw(raw),
        genome: f64_array(j, "genome")?,
        fitness,
        rank,
        distance: f64_or_inf_field(j, "distance")?,
        eval_minutes,
    })
}

/// Serialise a xoshiro256++ state snapshot as four hex words.
pub fn rng_state_to_json(state: [u64; 4]) -> Json {
    Json::Array(state.iter().map(|&w| hex_u64(w)).collect())
}

/// Parse a [`rng_state_to_json`] snapshot.
pub fn rng_state_from_json(j: &Json) -> Result<[u64; 4], JournalError> {
    let items = match j {
        Json::Array(items) if items.len() == 4 => items,
        _ => return Err(JournalError::new("rng state must be a 4-element array")),
    };
    let mut state = [0u64; 4];
    for (slot, item) in state.iter_mut().zip(items) {
        *slot = parse_hex_u64(Some(item), "rng word")?;
    }
    if state.iter().all(|&w| w == 0) {
        return Err(JournalError::new("all-zero rng state"));
    }
    Ok(state)
}

fn lcurve_row_to_json(r: &LcurveRow) -> Json {
    numbers(&[r.step as f64, r.rmse_e_val, r.rmse_e_trn, r.rmse_f_val, r.rmse_f_trn, r.lr])
}

fn lcurve_row_from_json(j: &Json) -> Result<LcurveRow, JournalError> {
    let v = match j {
        Json::Array(items) if items.len() == 6 => items
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| JournalError::new("non-numeric lcurve entry")))
            .collect::<Result<Vec<f64>, _>>()?,
        _ => return Err(JournalError::new("lcurve row must be a 6-element array")),
    };
    Ok(LcurveRow {
        step: v[0] as usize,
        rmse_e_val: v[1],
        rmse_e_trn: v[2],
        rmse_f_val: v[3],
        rmse_f_trn: v[4],
        lr: v[5],
    })
}

/// Serialise the *deterministic* fields of a pool report. `heartbeats`
/// depends on physical thread races under speculation and is intentionally
/// not journaled, so a resumed campaign's reports stay bit-identical to an
/// uninterrupted run's; `quarantined_workers` (once racy too) stays out with
/// it, keeping the record format what it was.
fn report_to_json(r: &PoolReport) -> Json {
    Json::object(vec![
        ("makespan", Json::Number(r.makespan_minutes)),
        ("per_worker", numbers(&r.per_worker_minutes)),
        ("deaths", Json::Number(r.worker_deaths as f64)),
        ("retried", Json::Number(r.retried_tasks as f64)),
        ("diverged", Json::Number(r.diverged_tasks as f64)),
        ("timeout", Json::Number(r.timeout_tasks as f64)),
        ("cancelled", Json::Number(r.cancelled_tasks as f64)),
        ("exhausted", Json::Number(r.exhausted_tasks as f64)),
        ("speculated", Json::Number(r.speculated_tasks as f64)),
        ("spec_deaths", Json::Number(r.speculative_deaths as f64)),
        ("lost_minutes", Json::Number(r.lost_minutes)),
        ("backoff_minutes", Json::Number(r.backoff_minutes)),
        ("busy", numbers(&r.busy_minutes)),
        ("lost_death", numbers(&r.lost_death_minutes)),
        ("lost_spec", numbers(&r.lost_speculation_minutes)),
        ("backoff_slot", numbers(&r.backoff_slot_minutes)),
        ("idle", numbers(&r.idle_minutes)),
        ("wall", Json::Number(r.wall_minutes)),
    ])
}

/// Optional numeric field (absent in journals written before the
/// supervision runtime existed): missing means zero.
fn opt_usize_field(j: &Json, key: &str) -> usize {
    j.get(key).and_then(Json::as_f64).map_or(0, |v| v as usize)
}

fn opt_f64_field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Optional numeric array (absent in journals written before utilization
/// accounting existed): missing means empty.
fn opt_f64_array(j: &Json, key: &str) -> Vec<f64> {
    f64_array(j, key).unwrap_or_default()
}

fn report_from_json(j: &Json) -> Result<PoolReport, JournalError> {
    Ok(PoolReport {
        makespan_minutes: f64_field(j, "makespan")?,
        per_worker_minutes: f64_array(j, "per_worker")?,
        worker_deaths: usize_field(j, "deaths")?,
        retried_tasks: usize_field(j, "retried")?,
        diverged_tasks: opt_usize_field(j, "diverged"),
        timeout_tasks: opt_usize_field(j, "timeout"),
        cancelled_tasks: opt_usize_field(j, "cancelled"),
        exhausted_tasks: opt_usize_field(j, "exhausted"),
        speculated_tasks: opt_usize_field(j, "speculated"),
        speculative_deaths: opt_usize_field(j, "spec_deaths"),
        lost_minutes: opt_f64_field(j, "lost_minutes"),
        backoff_minutes: opt_f64_field(j, "backoff_minutes"),
        busy_minutes: opt_f64_array(j, "busy"),
        lost_death_minutes: opt_f64_array(j, "lost_death"),
        lost_speculation_minutes: opt_f64_array(j, "lost_spec"),
        backoff_slot_minutes: opt_f64_array(j, "backoff_slot"),
        idle_minutes: opt_f64_array(j, "idle"),
        wall_minutes: opt_f64_field(j, "wall"),
        ..PoolReport::default()
    })
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

/// How a journaled evaluation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Training completed and produced a finite fitness.
    None,
    /// Training diverged or the configuration was invalid (MAXINT).
    Diverged,
    /// The simulated runtime exceeded the per-task limit (MAXINT).
    Timeout,
    /// The hosting worker died and attempts were exhausted (MAXINT).
    Worker,
    /// The evaluation was externally cancelled (MAXINT).
    Cancelled,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Diverged => "diverged",
            FaultKind::Timeout => "timeout",
            FaultKind::Worker => "worker",
            FaultKind::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Result<Self, JournalError> {
        match s {
            "none" => Ok(FaultKind::None),
            "diverged" => Ok(FaultKind::Diverged),
            "timeout" => Ok(FaultKind::Timeout),
            "worker" => Ok(FaultKind::Worker),
            "cancelled" => Ok(FaultKind::Cancelled),
            _ => Err(JournalError::new(format!("unknown fault kind '{s}'"))),
        }
    }
}

/// One completed evaluation, as journaled the moment the scheduler
/// finalised it.
#[derive(Clone, Debug)]
pub struct EvalEntry {
    /// Experiment run index.
    pub run: usize,
    /// Generation whose batch contained the task.
    pub gen: usize,
    /// Slot (task index) within the generation's batch.
    pub slot: usize,
    /// Derived training seed (informational; replay never retrains).
    pub seed: u64,
    /// The evaluated genome, bit-exact.
    pub genome: Vec<f64>,
    /// How the evaluation ended.
    pub fault: FaultKind,
    /// For [`FaultKind::Diverged`] with a structured sentinel abort: the
    /// training step at which divergence was detected.
    pub fault_step: Option<usize>,
    /// For [`FaultKind::Diverged`] with a structured sentinel abort: the
    /// offending loss (may be non-finite).
    pub fault_loss: Option<f64>,
    /// Objective values — present iff `fault == FaultKind::None`.
    pub objectives: Option<Vec<f64>>,
    /// Simulated minutes charged (timeouts charge the full limit).
    pub minutes: f64,
    /// Scheduler attempts consumed (1 = no retries).
    pub attempts: u32,
    /// Tail of the training curve (empty on failure).
    pub lcurve_tail: Vec<LcurveRow>,
    /// Steady-state arrival index this evaluation was consumed at — the
    /// journaled arrival order that fully determines population and archive
    /// bytes (DESIGN.md §12). `None` for generational entries, whose order
    /// is already fixed by `(gen, slot)`; the key is omitted from the JSON
    /// encoding so generational journal bytes are unchanged.
    pub arrival: Option<usize>,
}

impl EvalEntry {
    /// Build the journal entry for a finalised scheduler record.
    pub fn from_task(
        run: usize,
        gen: usize,
        slot: usize,
        seed: u64,
        genome: &[f64],
        task: &TaskRecord<EvalRecord>,
    ) -> Self {
        let mut fault_step = None;
        let mut fault_loss = None;
        let (fault, objectives, lcurve_tail) = match &task.value {
            Ok(record) => (
                FaultKind::None,
                Some(record.fitness.values().to_vec()),
                record.lcurve_tail.clone(),
            ),
            Err(TaskError::Failed(_)) => (FaultKind::Diverged, None, Vec::new()),
            Err(TaskError::Diverged { step, loss }) => {
                fault_step = Some(*step);
                fault_loss = Some(*loss);
                (FaultKind::Diverged, None, Vec::new())
            }
            Err(TaskError::Timeout { .. }) => (FaultKind::Timeout, None, Vec::new()),
            Err(TaskError::WorkerFailed) => (FaultKind::Worker, None, Vec::new()),
            // Cancelled terminals are rare (a task whose only result was an
            // externally cancelled attempt); Speculated is never terminal
            // but gets a defensive mapping rather than a panic.
            Err(TaskError::Cancelled) | Err(TaskError::Speculated) => {
                (FaultKind::Cancelled, None, Vec::new())
            }
        };
        EvalEntry {
            run,
            gen,
            slot,
            seed,
            genome: genome.to_vec(),
            fault,
            fault_step,
            fault_loss,
            objectives,
            minutes: task.minutes,
            attempts: task.attempts,
            lcurve_tail,
            arrival: None,
        }
    }

    /// Reconstruct the pool-level outcome this entry recorded, so replay
    /// can short-circuit training. Successful entries rebuild the full
    /// [`EvalRecord`]; faulted entries return an evaluation error that the
    /// evaluator maps to the same MAXINT penalty the original run saw.
    pub fn to_outcome(&self) -> EvalOutcome<EvalRecord> {
        let fault = match (&self.fault, &self.objectives) {
            (FaultKind::None, Some(objectives)) => {
                return EvalOutcome {
                    value: Ok(EvalRecord {
                        fitness: Fitness::new(objectives.clone()),
                        minutes: self.minutes,
                        failed: false,
                        lcurve_tail: self.lcurve_tail.clone(),
                    }),
                    minutes: self.minutes,
                }
            }
            (FaultKind::Diverged, _) => match (self.fault_step, self.fault_loss) {
                (Some(step), Some(loss)) => EvalFault::Diverged { step, loss },
                _ => EvalFault::Failed(format!("replayed {} fault", self.fault.name())),
            },
            // A replayed timeout carries minutes equal to the limit, so the
            // scheduler's post-hoc `minutes > limit` check cannot re-fire;
            // the structured Deadline fault restores the Timeout error.
            (FaultKind::Timeout, _) => EvalFault::Deadline,
            (FaultKind::Cancelled, _) => EvalFault::Cancelled,
            _ => EvalFault::Failed(format!("replayed {} fault", self.fault.name())),
        };
        EvalOutcome { value: Err(fault), minutes: self.minutes }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type", Json::String("eval".into())),
            ("run", Json::Number(self.run as f64)),
            ("gen", Json::Number(self.gen as f64)),
            ("slot", Json::Number(self.slot as f64)),
            ("seed", hex_u64(self.seed)),
            ("genome", numbers(&self.genome)),
            ("fault", Json::String(self.fault.name().into())),
            (
                "fault_step",
                self.fault_step.map_or(Json::Null, |s| Json::Number(s as f64)),
            ),
            (
                "fault_loss",
                self.fault_loss.map_or(Json::Null, json_of_f64_or_inf),
            ),
            (
                "objectives",
                match &self.objectives {
                    Some(o) => numbers(o),
                    None => Json::Null,
                },
            ),
            ("minutes", Json::Number(self.minutes)),
            ("attempts", Json::Number(self.attempts as f64)),
            (
                "lcurve_tail",
                Json::Array(self.lcurve_tail.iter().map(lcurve_row_to_json).collect()),
            ),
        ];
        // Generational entries omit the key entirely (not `null`) so their
        // journal bytes predate-and-postdate this field identically.
        if let Some(arrival) = self.arrival {
            fields.push(("arrival", Json::Number(arrival as f64)));
        }
        Json::object(fields)
    }

    fn from_json(j: &Json) -> Result<Self, JournalError> {
        let fault = FaultKind::parse(
            j.get("fault")
                .and_then(Json::as_str)
                .ok_or_else(|| JournalError::new("missing 'fault'"))?,
        )?;
        let objectives = match j.get("objectives") {
            None | Some(Json::Null) => None,
            Some(_) => Some(f64_array(j, "objectives")?),
        };
        if fault == FaultKind::None && objectives.is_none() {
            return Err(JournalError::new("successful eval entry without objectives"));
        }
        let fault_step = match j.get("fault_step") {
            None | Some(Json::Null) => None,
            Some(_) => Some(usize_field(j, "fault_step")?),
        };
        let fault_loss = match j.get("fault_loss") {
            None | Some(Json::Null) => None,
            Some(_) => Some(f64_or_inf_field(j, "fault_loss")?),
        };
        Ok(EvalEntry {
            run: usize_field(j, "run")?,
            gen: usize_field(j, "gen")?,
            slot: usize_field(j, "slot")?,
            seed: parse_hex_u64(j.get("seed"), "seed")?,
            genome: f64_array(j, "genome")?,
            fault,
            fault_step,
            fault_loss,
            objectives,
            minutes: f64_field(j, "minutes")?,
            attempts: usize_field(j, "attempts")? as u32,
            lcurve_tail: array_field(j, "lcurve_tail")?
                .iter()
                .map(lcurve_row_from_json)
                .collect::<Result<_, _>>()?,
            arrival: match j.get("arrival") {
                None | Some(Json::Null) => None,
                Some(_) => Some(usize_field(j, "arrival")?),
            },
        })
    }
}

/// One generation boundary: everything needed to restore the EA mid-run.
#[derive(Clone, Debug)]
pub struct GenEntry {
    /// Experiment run index.
    pub run: usize,
    /// The completed generation's record (population, failures).
    pub record: GenerationRecord,
    /// Mutation σ *after* this generation's annealing (the σ the next
    /// generation will mutate with).
    pub std: Vec<f64>,
    /// Cumulative fitness evaluations in this run.
    pub evaluations: usize,
    /// EA stream state after this generation completed.
    pub rng_state: [u64; 4],
    /// Pareto-archive members at this boundary.
    pub archive: Vec<Individual>,
    /// Scheduler report for this generation's batch.
    pub report: PoolReport,
}

impl GenEntry {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::String("generation".into())),
            ("run", Json::Number(self.run as f64)),
            ("gen", Json::Number(self.record.generation as f64)),
            ("failures", Json::Number(self.record.failures as f64)),
            ("evaluations", Json::Number(self.evaluations as f64)),
            ("std", numbers(&self.std)),
            ("rng", rng_state_to_json(self.rng_state)),
            (
                "population",
                Json::Array(self.record.population.iter().map(individual_to_json).collect()),
            ),
            (
                "archive",
                Json::Array(self.archive.iter().map(individual_to_json).collect()),
            ),
            ("report", report_to_json(&self.report)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, JournalError> {
        Ok(GenEntry {
            run: usize_field(j, "run")?,
            record: GenerationRecord {
                generation: usize_field(j, "gen")?,
                failures: usize_field(j, "failures")?,
                population: array_field(j, "population")?
                    .iter()
                    .map(individual_from_json)
                    .collect::<Result<_, _>>()?,
            },
            std: f64_array(j, "std")?,
            evaluations: usize_field(j, "evaluations")?,
            rng_state: rng_state_from_json(
                j.get("rng").ok_or_else(|| JournalError::new("missing 'rng'"))?,
            )?,
            archive: array_field(j, "archive")?
                .iter()
                .map(individual_from_json)
                .collect::<Result<_, _>>()?,
            report: report_from_json(
                j.get("report").ok_or_else(|| JournalError::new("missing 'report'"))?,
            )?,
        })
    }
}

fn generation_record_to_json(r: &GenerationRecord) -> Json {
    Json::object(vec![
        ("gen", Json::Number(r.generation as f64)),
        ("failures", Json::Number(r.failures as f64)),
        (
            "population",
            Json::Array(r.population.iter().map(individual_to_json).collect()),
        ),
    ])
}

fn generation_record_from_json(j: &Json) -> Result<GenerationRecord, JournalError> {
    Ok(GenerationRecord {
        generation: usize_field(j, "gen")?,
        failures: usize_field(j, "failures")?,
        population: array_field(j, "population")?
            .iter()
            .map(individual_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn slots_state_to_json(s: &StreamSlotsState) -> Json {
    Json::object(vec![
        ("busy", numbers(&s.busy)),
        ("lost", numbers(&s.lost)),
        ("backoff", numbers(&s.backoff)),
        ("deaths", Json::Number(s.deaths as f64)),
        ("retried", Json::Number(s.retried as f64)),
        ("diverged", Json::Number(s.diverged as f64)),
        ("timeout", Json::Number(s.timeout as f64)),
        ("cancelled", Json::Number(s.cancelled as f64)),
        ("exhausted", Json::Number(s.exhausted as f64)),
        ("base_busy", numbers(&s.baseline_busy)),
        ("base_lost", numbers(&s.baseline_lost)),
        ("base_backoff", numbers(&s.baseline_backoff)),
        ("base_deaths", Json::Number(s.baseline_deaths as f64)),
        ("base_retried", Json::Number(s.baseline_retried as f64)),
        ("base_diverged", Json::Number(s.baseline_diverged as f64)),
        ("base_timeout", Json::Number(s.baseline_timeout as f64)),
        ("base_cancelled", Json::Number(s.baseline_cancelled as f64)),
        ("base_exhausted", Json::Number(s.baseline_exhausted as f64)),
    ])
}

fn slots_state_from_json(j: &Json) -> Result<StreamSlotsState, JournalError> {
    Ok(StreamSlotsState {
        busy: f64_array(j, "busy")?,
        lost: f64_array(j, "lost")?,
        backoff: f64_array(j, "backoff")?,
        deaths: usize_field(j, "deaths")?,
        retried: usize_field(j, "retried")?,
        diverged: usize_field(j, "diverged")?,
        timeout: usize_field(j, "timeout")?,
        cancelled: usize_field(j, "cancelled")?,
        exhausted: usize_field(j, "exhausted")?,
        baseline_busy: f64_array(j, "base_busy")?,
        baseline_lost: f64_array(j, "base_lost")?,
        baseline_backoff: f64_array(j, "base_backoff")?,
        baseline_deaths: usize_field(j, "base_deaths")?,
        baseline_retried: usize_field(j, "base_retried")?,
        baseline_diverged: usize_field(j, "base_diverged")?,
        baseline_timeout: usize_field(j, "base_timeout")?,
        baseline_cancelled: usize_field(j, "base_cancelled")?,
        baseline_exhausted: usize_field(j, "base_exhausted")?,
    })
}

/// One steady-state snapshot: everything a resume needs to restore the
/// driver at an epoch-window boundary without replaying the arrivals
/// before it. Self-contained by design: the records *before* the last
/// snapshot are dead weight ([`compact`] drops them), and resume replays
/// only the arrival suffix after it — O(window) instead of O(campaign).
///
/// Steady-state RNG needs no words here: every draw is a pure function of
/// `(run seed, arrival index)` (DESIGN.md §12), both of which the snapshot
/// carries. A snapshot can land mid-epoch (window boundaries are arrival
/// counts, not epoch boundaries), hence the partial per-epoch accumulators.
#[derive(Clone, Debug)]
pub struct SnapshotEntry {
    /// Experiment run index.
    pub run: usize,
    /// Arrivals consumed when the snapshot was taken (also its key).
    pub arrivals: usize,
    /// Submissions issued so far (arrivals + in-flight + queued).
    pub submitted: usize,
    /// Mutation σ at the snapshot point.
    pub std: Vec<f64>,
    /// The steady population.
    pub population: Vec<Individual>,
    /// Bred-but-not-consumed individuals, with their submission indices —
    /// the resubmission queue, in order.
    pub pending: Vec<(usize, Individual)>,
    /// Pareto-archive members.
    pub archive: Vec<Individual>,
    /// The slot accountant (cursors, loss/backoff tallies, epoch baseline).
    pub slots: StreamSlotsState,
    /// Completed epoch records so far.
    pub history: Vec<GenerationRecord>,
    /// Completed epochs' scheduler reports.
    pub epoch_reports: Vec<PoolReport>,
    /// MAXINT failures within the current (partial) epoch.
    pub epoch_failures: usize,
    /// Archive churn within the current epoch: `(offered, added, evicted)`.
    pub epoch_churn: (usize, usize, usize),
    /// Simulated-clock offset of the current epoch's start, minutes.
    pub epoch_sim_offset: f64,
    /// Status rows published for completed epochs (steady rows cannot be
    /// replayed from generation records alone — churn is per-arrival).
    pub status_rows: Vec<GenStatus>,
}

impl SnapshotEntry {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("type", Json::String("snapshot".into())),
            ("run", Json::Number(self.run as f64)),
            ("arrivals", Json::Number(self.arrivals as f64)),
            ("submitted", Json::Number(self.submitted as f64)),
            ("std", numbers(&self.std)),
            (
                "population",
                Json::Array(self.population.iter().map(individual_to_json).collect()),
            ),
            (
                "pending",
                Json::Array(
                    self.pending
                        .iter()
                        .map(|(submission, ind)| {
                            Json::Array(vec![
                                Json::Number(*submission as f64),
                                individual_to_json(ind),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "archive",
                Json::Array(self.archive.iter().map(individual_to_json).collect()),
            ),
            ("slots", slots_state_to_json(&self.slots)),
            (
                "history",
                Json::Array(self.history.iter().map(generation_record_to_json).collect()),
            ),
            (
                "epoch_reports",
                Json::Array(self.epoch_reports.iter().map(report_to_json).collect()),
            ),
            ("epoch_failures", Json::Number(self.epoch_failures as f64)),
            (
                "epoch_churn",
                numbers(&[
                    self.epoch_churn.0 as f64,
                    self.epoch_churn.1 as f64,
                    self.epoch_churn.2 as f64,
                ]),
            ),
            ("epoch_sim_offset", Json::Number(self.epoch_sim_offset)),
            (
                "status_rows",
                Json::Array(self.status_rows.iter().map(json_of_row).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, JournalError> {
        let pending = array_field(j, "pending")?
            .iter()
            .map(|pair| match pair {
                Json::Array(items) if items.len() == 2 => {
                    let submission = items[0]
                        .as_f64()
                        .ok_or_else(|| JournalError::new("non-numeric pending submission"))?
                        as usize;
                    Ok((submission, individual_from_json(&items[1])?))
                }
                _ => Err(JournalError::new("pending entry must be a [submission, individual] pair")),
            })
            .collect::<Result<Vec<_>, JournalError>>()?;
        let churn = f64_array(j, "epoch_churn")?;
        if churn.len() != 3 {
            return Err(JournalError::new("epoch_churn must be a 3-element array"));
        }
        Ok(SnapshotEntry {
            run: usize_field(j, "run")?,
            arrivals: usize_field(j, "arrivals")?,
            submitted: usize_field(j, "submitted")?,
            std: f64_array(j, "std")?,
            population: array_field(j, "population")?
                .iter()
                .map(individual_from_json)
                .collect::<Result<_, _>>()?,
            pending,
            archive: array_field(j, "archive")?
                .iter()
                .map(individual_from_json)
                .collect::<Result<_, _>>()?,
            slots: slots_state_from_json(
                j.get("slots").ok_or_else(|| JournalError::new("missing 'slots'"))?,
            )?,
            history: array_field(j, "history")?
                .iter()
                .map(generation_record_from_json)
                .collect::<Result<_, _>>()?,
            epoch_reports: array_field(j, "epoch_reports")?
                .iter()
                .map(report_from_json)
                .collect::<Result<_, _>>()?,
            epoch_failures: usize_field(j, "epoch_failures")?,
            epoch_churn: (churn[0] as usize, churn[1] as usize, churn[2] as usize),
            epoch_sim_offset: f64_field(j, "epoch_sim_offset")?,
            status_rows: array_field(j, "status_rows")?.iter().map(row_from_json).collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Configuration fingerprint (stale-journal rejection)
// ---------------------------------------------------------------------------

/// A stable fingerprint of everything that determines a campaign's result.
/// Stored in the journal header; resume refuses a journal whose fingerprint
/// differs from the configuration it is asked to continue.
pub fn config_fingerprint(config: &ExperimentConfig) -> u64 {
    let g = &config.gen_config;
    let mut fields = vec![
        ("n_runs", Json::Number(config.n_runs as f64)),
        ("pop_size", Json::Number(config.pop_size as f64)),
        ("generations", Json::Number(config.generations as f64)),
        ("train", hex_u64(config.base_train_config.config_hash())),
        (
            "gen",
            Json::object(vec![
                ("n_atoms", Json::Number(g.n_atoms as f64)),
                ("box_len", Json::Number(g.box_len)),
                ("temperature", Json::Number(g.temperature)),
                ("dt_fs", Json::Number(g.dt_fs)),
                ("friction", Json::Number(g.friction)),
                ("equil_steps", Json::Number(g.equil_steps as f64)),
                ("sample_every", Json::Number(g.sample_every as f64)),
                ("n_frames", Json::Number(g.n_frames as f64)),
            ]),
        ),
        ("noise", numbers(&[config.label_noise.0, config.label_noise.1])),
        (
            "pool",
            Json::object(vec![
                ("n_workers", Json::Number(config.pool.n_workers as f64)),
                (
                    "timeout",
                    config.pool.timeout_minutes.map_or(Json::Null, Json::Number),
                ),
                ("nanny", Json::Bool(config.pool.nanny)),
                ("max_attempts", Json::Number(config.pool.max_attempts as f64)),
                ("speculate", Json::Bool(config.pool.supervisor.speculate)),
                (
                    "straggler_quantile",
                    Json::Number(config.pool.supervisor.straggler_quantile),
                ),
                (
                    "straggler_factor",
                    Json::Number(config.pool.supervisor.straggler_factor),
                ),
                (
                    "backoff_base",
                    Json::Number(config.pool.supervisor.backoff_base_minutes),
                ),
                ("backoff_factor", Json::Number(config.pool.supervisor.backoff_factor)),
                (
                    "quarantine_deaths",
                    Json::Number(config.pool.supervisor.quarantine_deaths as f64),
                ),
            ]),
        ),
        ("fault_probability", Json::Number(config.fault_probability)),
        ("master_seed", hex_u64(config.master_seed)),
    ];
    // The campaign mode changes every downstream byte (arrival-keyed RNG vs
    // generation-keyed RNG), so steady-state journals must never resume a
    // generational campaign or vice versa. The key is only added in
    // steady-state mode so every previously written generational
    // fingerprint — including the checked-in artifacts — is unchanged.
    if config.mode == CampaignMode::SteadyState {
        fields.push(("mode", Json::String("steady-state".into())));
    }
    Json::object(fields).stable_hash()
}

fn header_json(config: &ExperimentConfig) -> Json {
    Json::object(vec![
        ("type", Json::String("header".into())),
        ("version", Json::Number(JOURNAL_VERSION as f64)),
        ("config", hex_u64(config_fingerprint(config))),
        ("n_runs", Json::Number(config.n_runs as f64)),
        ("pop_size", Json::Number(config.pop_size as f64)),
        ("generations", Json::Number(config.generations as f64)),
        ("master_seed", hex_u64(config.master_seed)),
    ])
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends framed journal records, flushing each line before returning —
/// the "write-ahead" property: once a record is appended, a driver crash
/// cannot lose it.
///
/// Appends are fallible: real I/O errors and injected [`IoFault`]s (via
/// [`JournalWriter::set_io_site`]) surface as `Err`, and the writer does
/// **not** advance its offset or sequence counter on failure. A driver
/// receiving `Err` must stop journaling and crash out (it may have left a
/// torn frame behind); [`salvage`] + resume recovers.
pub struct JournalWriter {
    file: File,
    /// Byte offset the next record will be written at. Append methods
    /// return the offset of the record they wrote, so telemetry events can
    /// cross-reference journal entries by position.
    offset: u64,
    /// Sequence number of the next frame.
    seq: u64,
    /// Fault-injection site for appends (disabled by default).
    io: IoSite,
}

impl JournalWriter {
    /// Create a fresh journal at `path`, writing the header as frame 0.
    pub fn create(path: &Path, config: &ExperimentConfig) -> Result<Self, JournalError> {
        let file = File::create(path)
            .map_err(|e| JournalError::new(format!("cannot create {}: {e}", path.display())))?;
        let mut writer = JournalWriter {
            file,
            offset: 0,
            seq: 0,
            io: IoSite::disabled(JOURNAL_APPEND_SITE),
        };
        writer.append(&header_json(config))?;
        Ok(writer)
    }

    /// Attach a fault-injection site consulted before every append.
    pub fn set_io_site(&mut self, io: IoSite) {
        self.io = io;
    }

    /// Reopen an existing journal for appending, first truncating it to
    /// `journal.valid_len` — the valid prefix [`Journal::load`] measured —
    /// so a torn final frame from the crash is discarded.
    pub fn open_append(path: &Path, journal: &Journal) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| JournalError::new(format!("cannot open {}: {e}", path.display())))?;
        file.set_len(journal.valid_len)
            .map_err(|e| JournalError::new(format!("cannot truncate journal: {e}")))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| JournalError::new(format!("cannot seek journal: {e}")))?;
        Ok(JournalWriter {
            file,
            offset: journal.valid_len,
            seq: journal.frames,
            io: IoSite::disabled(JOURNAL_APPEND_SITE),
        })
    }

    /// Append one framed record, returning the byte offset it was written
    /// at. On failure (real or injected) the offset and sequence number do
    /// not advance; the file may hold a torn frame (short write) or a
    /// complete frame of uncertain durability (fsync failure) — both are
    /// exactly the states [`salvage`] and the torn-tail reader tolerate.
    fn append(&mut self, record: &Json) -> Result<u64, JournalError> {
        let payload = record.to_compact();
        let line = frame_line(self.seq, &payload);
        match self.io.next() {
            Some(IoFault::ShortWrite) => {
                // Half the frame reaches the file, then the write fails: a
                // torn tail with no trailing newline.
                let cut = line.len() / 2;
                let _ = self
                    .file
                    .write_all(&line.as_bytes()[..cut])
                    .and_then(|()| self.file.flush());
                return Err(JournalError::new(format!(
                    "injected short write at journal offset {}",
                    self.offset
                )));
            }
            Some(IoFault::FsyncFail) => {
                // The frame itself reaches the file but the durability
                // barrier fails: the record may or may not survive. Here it
                // does (the pessimistic case for resume, which must replay
                // it and still land byte-identical).
                self.file
                    .write_all(line.as_bytes())
                    .and_then(|()| self.file.flush())
                    .map_err(|e| JournalError::new(format!("journal append failed: {e}")))?;
                return Err(JournalError::new(format!(
                    "injected fsync failure at journal offset {}",
                    self.offset
                )));
            }
            Some(fault @ (IoFault::IoError | IoFault::DiskFull)) => {
                // Nothing reaches the file.
                return Err(JournalError::new(format!(
                    "injected {fault} at journal offset {}",
                    self.offset
                )));
            }
            None => {}
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| JournalError::new(format!("journal append failed: {e}")))?;
        let at = self.offset;
        self.offset += line.len() as u64;
        self.seq += 1;
        Ok(at)
    }

    /// Append a completed-evaluation record; returns its byte offset.
    pub fn append_eval(&mut self, entry: &EvalEntry) -> Result<u64, JournalError> {
        self.append(&entry.to_json())
    }

    /// Append a generation-boundary record; returns its byte offset.
    pub fn append_generation(&mut self, entry: &GenEntry) -> Result<u64, JournalError> {
        self.append(&entry.to_json())
    }

    /// Append a steady-state snapshot record; returns its byte offset.
    pub fn append_snapshot(&mut self, entry: &SnapshotEntry) -> Result<u64, JournalError> {
        self.append(&entry.to_json())
    }
}

/// The journal handle a run's driver carries: where to append, and the
/// replay map of that run's already-journaled evaluations.
#[derive(Clone)]
pub struct JournalSink {
    /// Shared append handle (every run of a campaign appends to one file).
    pub writer: Rc<RefCell<JournalWriter>>,
    /// Journaled evaluations of this run, keyed `(generation, slot)`.
    pub replay: Rc<HashMap<(usize, usize), EvalEntry>>,
}

// ---------------------------------------------------------------------------
// Reader: scan machinery shared by load / salvage / verify / compact
// ---------------------------------------------------------------------------

/// A decoded record, typed.
enum ScannedRecord {
    Header { fingerprint: u64 },
    Eval(EvalEntry),
    Generation(GenEntry),
    Snapshot(SnapshotEntry),
}

/// One valid record with its original payload text (the payload is
/// re-emitted verbatim by compaction, so rewritten journals never drift
/// through re-serialisation).
struct ScannedFrame {
    payload: String,
    record: ScannedRecord,
}

/// The result of scanning journal text: every valid record in file order,
/// the byte length of the valid prefix, and the first corruption found (a
/// torn, newline-less tail is *not* corruption — it is the expected
/// signature of a crash mid-append).
struct ScanOutcome {
    frames: Vec<ScannedFrame>,
    valid_len: u64,
    first_bad: Option<(u64, String)>,
}

/// Scan journal text frame by frame. Every frame starts with `J2 `; a file
/// that opens with `{` is an unframed version-1 journal (bare JSONL), which
/// is refused outright rather than reported as a damaged v2 file.
fn scan_text(text: &str) -> Result<ScanOutcome, JournalError> {
    if text.starts_with('{') {
        return Err(JournalError::new(format!(
            "unframed (version 1) journal: this build reads only format version \
             {JOURNAL_VERSION}"
        )));
    }
    let mut out = ScanOutcome { frames: Vec::new(), valid_len: 0, first_bad: None };
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            // Torn tail: the frame never became durable. Tolerated.
            break;
        }
        let body = &line[..line.len() - 1];
        let expected_seq = out.frames.len() as u64;
        let parsed = parse_frame(body, expected_seq).and_then(|payload| {
            typed_record(payload, offset as u64, out.frames.is_empty())
                .map(|record| (payload.to_string(), record))
        });
        match parsed {
            Ok((payload, record)) => {
                out.frames.push(ScannedFrame { payload, record });
                offset += line.len();
                out.valid_len = offset as u64;
            }
            Err(e) => {
                // A *terminated* bad frame is corruption, wherever it is:
                // the writer never terminates a frame it did not complete.
                out.first_bad = Some((offset as u64, e.message));
                break;
            }
        }
    }
    Ok(out)
}

/// Parse and type-check one record payload. The header must be the first
/// record and nothing else may be; payload-level JSON or semantic failures
/// count as corruption at `offset`.
fn typed_record(payload: &str, offset: u64, first: bool) -> Result<ScannedRecord, JournalError> {
    let record = Json::parse(payload)
        .map_err(|e| JournalError::new(format!("bad JSON at byte {offset}: {e}")))?;
    match record.get("type").and_then(Json::as_str) {
        Some("header") => {
            if !first {
                return Err(JournalError::new(format!(
                    "unexpected header record at byte {offset}"
                )));
            }
            let version = f64_field(&record, "version")? as u64;
            if version != JOURNAL_VERSION {
                return Err(JournalError::new(format!(
                    "journal version {version} != supported {JOURNAL_VERSION}"
                )));
            }
            Ok(ScannedRecord::Header {
                fingerprint: parse_hex_u64(record.get("config"), "config")?,
            })
        }
        Some("eval") => Ok(ScannedRecord::Eval(EvalEntry::from_json(&record)?)),
        Some("generation") => Ok(ScannedRecord::Generation(GenEntry::from_json(&record)?)),
        Some("snapshot") => Ok(ScannedRecord::Snapshot(SnapshotEntry::from_json(&record)?)),
        other => Err(JournalError::new(format!(
            "unknown record type {other:?} at byte {offset}"
        ))),
    }
}

/// Read a file as UTF-8 text plus the offset of the first invalid byte, if
/// any — scanning proceeds over the valid prefix.
fn read_text_prefix(path: &Path) -> Result<(Vec<u8>, usize, Option<u64>), JournalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| JournalError::new(format!("cannot read {}: {e}", path.display())))?;
    let (text_len, utf8_bad) = match std::str::from_utf8(&bytes) {
        Ok(_) => (bytes.len(), None),
        Err(e) => (e.valid_up_to(), Some(e.valid_up_to() as u64)),
    };
    Ok((bytes, text_len, utf8_bad))
}

/// A parsed journal: header metadata plus every valid record, with the
/// byte length of the valid prefix (a torn final frame from a crash is
/// tolerated and measured off; any *other* damage makes `load` fail —
/// run [`salvage`] to truncate and quarantine it).
#[derive(Debug)]
pub struct Journal {
    /// Configuration fingerprint from the header.
    pub config_fingerprint: u64,
    /// Completed evaluations keyed `(run, generation, slot)`.
    pub evals: HashMap<(usize, usize, usize), EvalEntry>,
    /// Generation boundaries keyed `(run, generation)`.
    pub generations: BTreeMap<(usize, usize), GenEntry>,
    /// Steady-state snapshots keyed `(run, arrivals)`.
    pub snapshots: BTreeMap<(usize, usize), SnapshotEntry>,
    /// Byte length of the valid prefix (pass to [`JournalWriter::open_append`]).
    pub valid_len: u64,
    /// Valid records (frames) in the file, header included.
    pub frames: u64,
}

impl Journal {
    /// Load and validate a journal file.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        let (bytes, _, utf8_bad) = read_text_prefix(path)?;
        if let Some(offset) = utf8_bad {
            return Err(JournalError::new(format!(
                "{}: invalid UTF-8 at byte {offset} — run salvage to quarantine the damage",
                path.display()
            )));
        }
        let text = std::str::from_utf8(&bytes).expect("checked above");
        let scan = scan_text(text)?;
        if let Some((offset, reason)) = &scan.first_bad {
            return Err(JournalError::new(format!(
                "{}: corrupt record at byte {offset}: {reason} — run salvage to truncate \
                 and quarantine",
                path.display()
            )));
        }
        Journal::from_scan(scan)
    }

    fn from_scan(scan: ScanOutcome) -> Result<Journal, JournalError> {
        let mut journal = Journal {
            config_fingerprint: 0,
            evals: HashMap::new(),
            generations: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            valid_len: scan.valid_len,
            frames: scan.frames.len() as u64,
        };
        let mut saw_header = false;
        for frame in scan.frames {
            match frame.record {
                ScannedRecord::Header { fingerprint } => {
                    journal.config_fingerprint = fingerprint;
                    saw_header = true;
                }
                ScannedRecord::Eval(entry) => {
                    journal.evals.insert((entry.run, entry.gen, entry.slot), entry);
                }
                ScannedRecord::Generation(entry) => {
                    journal.generations.insert((entry.run, entry.record.generation), entry);
                }
                ScannedRecord::Snapshot(entry) => {
                    journal.snapshots.insert((entry.run, entry.arrivals), entry);
                }
            }
        }
        if !saw_header {
            return Err(JournalError::new("journal has no header record"));
        }
        Ok(journal)
    }

    /// The latest journaled snapshot of one run, if any.
    pub fn last_snapshot_for(&self, run: usize) -> Option<&SnapshotEntry> {
        self.snapshots.range((run, 0)..=(run, usize::MAX)).next_back().map(|(_, s)| s)
    }

    /// Reject the journal if it was written under a different campaign
    /// configuration.
    pub fn check_config(&self, config: &ExperimentConfig) -> Result<(), JournalError> {
        let expected = config_fingerprint(config);
        if self.config_fingerprint != expected {
            return Err(JournalError::new(format!(
                "stale journal: config fingerprint {:#018x} != expected {:#018x} \
                 (the campaign configuration changed since the journal was written)",
                self.config_fingerprint, expected
            )));
        }
        Ok(())
    }

    /// The replay map for one run: journaled evaluations keyed
    /// `(generation, slot)`.
    pub fn replay_for(&self, run: usize) -> HashMap<(usize, usize), EvalEntry> {
        self.evals
            .values()
            .filter(|e| e.run == run)
            .map(|e| ((e.gen, e.slot), e.clone()))
            .collect()
    }

    /// Generation boundaries of one run, ordered by generation. Errors if
    /// the boundaries are not contiguous from 0 (a corrupt journal).
    pub fn boundaries_for(&self, run: usize) -> Result<Vec<&GenEntry>, JournalError> {
        let entries: Vec<&GenEntry> = self
            .generations
            .range((run, 0)..=(run, usize::MAX))
            .map(|(_, e)| e)
            .collect();
        for (i, entry) in entries.iter().enumerate() {
            if entry.record.generation != i {
                return Err(JournalError::new(format!(
                    "run {run}: generation boundaries not contiguous (found {} at index {i})",
                    entry.record.generation
                )));
            }
        }
        Ok(entries)
    }
}

// ---------------------------------------------------------------------------
// Salvage / verify / compact
// ---------------------------------------------------------------------------

/// What [`salvage`] did to a damaged journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageReport {
    /// Valid records kept (header included).
    pub frames_kept: u64,
    /// Byte length the journal was truncated to.
    pub valid_len: u64,
    /// Bytes moved to the quarantine file (0 if the file was clean).
    pub quarantined_bytes: u64,
    /// Offset of the first corrupt byte, if actual corruption (not just a
    /// benign torn tail) was found.
    pub first_bad_offset: Option<u64>,
    /// Where the quarantined bytes went: `<journal>.quarantine`.
    pub quarantine_path: PathBuf,
}

/// Truncate a journal to its longest valid prefix, quarantining everything
/// after it (torn tail, corrupt frames, trailing garbage, invalid UTF-8)
/// to `<journal>.quarantine`. After salvage, [`Journal::load`] succeeds on
/// any file that still has its header, and resume continues
/// deterministically from the last intact record. Idempotent on clean
/// files (nothing is written).
pub fn salvage(path: &Path) -> Result<SalvageReport, JournalError> {
    let (bytes, text_len, utf8_bad) = read_text_prefix(path)?;
    let text = std::str::from_utf8(&bytes[..text_len]).expect("prefix is valid UTF-8");
    let scan = scan_text(text)?;
    let quarantine_path = PathBuf::from(format!("{}.quarantine", path.display()));
    let quarantined = &bytes[scan.valid_len as usize..];
    if !quarantined.is_empty() {
        std::fs::write(&quarantine_path, quarantined).map_err(|e| {
            JournalError::new(format!("cannot write {}: {e}", quarantine_path.display()))
        })?;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| JournalError::new(format!("cannot open {}: {e}", path.display())))?;
        file.set_len(scan.valid_len)
            .map_err(|e| JournalError::new(format!("cannot truncate journal: {e}")))?;
        file.sync_all()
            .map_err(|e| JournalError::new(format!("cannot sync journal: {e}")))?;
    }
    Ok(SalvageReport {
        frames_kept: scan.frames.len() as u64,
        valid_len: scan.valid_len,
        quarantined_bytes: quarantined.len() as u64,
        first_bad_offset: scan.first_bad.map(|(offset, _)| offset).or(utf8_bad),
        quarantine_path,
    })
}

/// Offline integrity report for a journal file ([`verify`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Valid records (header included).
    pub frames: u64,
    /// Evaluation records among them.
    pub evals: u64,
    /// Generation-boundary records among them.
    pub generations: u64,
    /// Snapshot records among them.
    pub snapshots: u64,
    /// `(run, arrivals)` of the last snapshot in file order, if any.
    pub last_snapshot: Option<(usize, usize)>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Total file length.
    pub total_len: u64,
    /// Offset of the first corrupt byte, if any. A benign torn ASCII tail
    /// (crash mid-append) is *not* damage and leaves this `None`.
    pub first_corrupt_offset: Option<u64>,
}

impl VerifyReport {
    /// True when the file needs [`salvage`] before it can be loaded.
    pub fn damaged(&self) -> bool {
        self.first_corrupt_offset.is_some()
    }
}

/// Check a journal's integrity without modifying it: counts valid frames
/// by kind, finds the last snapshot, and reports the first corrupt offset
/// if any. Errs only if the file cannot be read at all or is an unframed
/// version-1 journal.
pub fn verify(path: &Path) -> Result<VerifyReport, JournalError> {
    let (bytes, text_len, utf8_bad) = read_text_prefix(path)?;
    let text = std::str::from_utf8(&bytes[..text_len]).expect("prefix is valid UTF-8");
    let scan = scan_text(text)?;
    let mut report = VerifyReport {
        frames: scan.frames.len() as u64,
        evals: 0,
        generations: 0,
        snapshots: 0,
        last_snapshot: None,
        valid_len: scan.valid_len,
        total_len: bytes.len() as u64,
        first_corrupt_offset: scan.first_bad.map(|(offset, _)| offset).or(utf8_bad),
    };
    for frame in &scan.frames {
        match &frame.record {
            ScannedRecord::Header { .. } => {}
            ScannedRecord::Eval(_) => report.evals += 1,
            ScannedRecord::Generation(_) => report.generations += 1,
            ScannedRecord::Snapshot(s) => {
                report.snapshots += 1;
                report.last_snapshot = Some((s.run, s.arrivals));
            }
        }
    }
    Ok(report)
}

/// What [`compact`] achieved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Valid records before compaction.
    pub frames_before: u64,
    /// Records in the rewritten journal.
    pub frames_after: u64,
    /// File bytes before.
    pub bytes_before: u64,
    /// File bytes after.
    pub bytes_after: u64,
}

/// Rewrite a journal down to what resume actually replays, atomically
/// (temp file + rename). Steady-state journals keep, per run, the last
/// snapshot and the arrival suffix at or after it; generational journals
/// keep every generation boundary (each one doubles as that mode's
/// snapshot, and resume needs the full history) plus the evaluations after
/// the last boundary. Original payload bytes are re-emitted verbatim under
/// fresh frame sequence numbers, so nothing drifts through
/// re-serialisation. Refuses damaged files (salvage first) and torn tails
/// are dropped.
pub fn compact(path: &Path) -> Result<CompactReport, JournalError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| JournalError::new(format!("cannot read {}: {e}", path.display())))?;
    let scan = scan_text(&text)?;
    if let Some((offset, reason)) = &scan.first_bad {
        return Err(JournalError::new(format!(
            "cannot compact {}: corrupt record at byte {offset}: {reason} — salvage first",
            path.display()
        )));
    }
    let header = match scan.frames.first() {
        Some(frame) if matches!(frame.record, ScannedRecord::Header { .. }) => frame,
        _ => return Err(JournalError::new("journal has no header record")),
    };

    // Steady-state journals are recognisable by their records alone:
    // snapshots, or evals carrying an arrival index.
    let steady = scan.frames.iter().any(|f| match &f.record {
        ScannedRecord::Snapshot(_) => true,
        ScannedRecord::Eval(e) => e.arrival.is_some(),
        _ => false,
    });

    let mut runs: Vec<usize> = scan
        .frames
        .iter()
        .filter_map(|f| match &f.record {
            ScannedRecord::Eval(e) => Some(e.run),
            ScannedRecord::Generation(g) => Some(g.run),
            ScannedRecord::Snapshot(s) => Some(s.run),
            ScannedRecord::Header { .. } => None,
        })
        .collect();
    runs.sort_unstable();
    runs.dedup();

    let mut kept: Vec<&str> = vec![&header.payload];
    for &run in &runs {
        if steady {
            // Last snapshot (file order == arrivals order), then the
            // arrival suffix at or after it.
            let snapshot = scan
                .frames
                .iter()
                .rev()
                .find(|f| matches!(&f.record, ScannedRecord::Snapshot(s) if s.run == run));
            let horizon = snapshot.map_or(0, |f| match &f.record {
                ScannedRecord::Snapshot(s) => s.arrivals,
                _ => unreachable!(),
            });
            if let Some(frame) = snapshot {
                kept.push(&frame.payload);
            }
            let mut evals: Vec<(usize, &str)> = scan
                .frames
                .iter()
                .filter_map(|f| match &f.record {
                    ScannedRecord::Eval(e) if e.run == run => {
                        let arrival = e.arrival.unwrap_or(0);
                        (arrival >= horizon).then_some((arrival, f.payload.as_str()))
                    }
                    _ => None,
                })
                .collect();
            evals.sort_by_key(|&(arrival, _)| arrival);
            kept.extend(evals.into_iter().map(|(_, payload)| payload));
        } else {
            // Every boundary, in generation order (resume reconstructs the
            // full history and checks contiguity), then the evaluations of
            // the unfinished generation.
            let mut boundaries: Vec<(usize, &str)> = scan
                .frames
                .iter()
                .filter_map(|f| match &f.record {
                    ScannedRecord::Generation(g) if g.run == run => {
                        Some((g.record.generation, f.payload.as_str()))
                    }
                    _ => None,
                })
                .collect();
            boundaries.sort_by_key(|&(generation, _)| generation);
            let horizon = boundaries.last().map_or(0, |&(generation, _)| generation + 1);
            kept.extend(boundaries.iter().map(|&(_, payload)| payload));
            let mut evals: Vec<((usize, usize), &str)> = scan
                .frames
                .iter()
                .filter_map(|f| match &f.record {
                    ScannedRecord::Eval(e)
                        if e.run == run && (e.gen >= horizon || boundaries.is_empty()) =>
                    {
                        Some(((e.gen, e.slot), f.payload.as_str()))
                    }
                    _ => None,
                })
                .collect();
            evals.sort_by_key(|&(key, _)| key);
            kept.extend(evals.into_iter().map(|(_, payload)| payload));
        }
    }

    let mut content = String::new();
    for (seq, payload) in kept.iter().enumerate() {
        content.push_str(&frame_line(seq as u64, payload));
    }
    let tmp = path.with_extension("compact.tmp");
    {
        let mut f = File::create(&tmp)
            .map_err(|e| JournalError::new(format!("cannot create {}: {e}", tmp.display())))?;
        f.write_all(content.as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| JournalError::new(format!("cannot write compacted journal: {e}")))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| JournalError::new(format!("cannot install compacted journal: {e}")))?;
    Ok(CompactReport {
        frames_before: scan.frames.len() as u64,
        frames_after: kept.len() as u64,
        bytes_before: text.len() as u64,
        bytes_after: content.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluated(genome: Vec<f64>, objectives: Vec<f64>) -> Individual {
        let mut ind = Individual::new(genome);
        ind.fitness = Some(Fitness::new(objectives));
        ind.rank = 1;
        ind.distance = f64::INFINITY;
        ind.eval_minutes = Some(63.25);
        ind
    }

    #[test]
    fn individual_round_trips_including_infinite_distance() {
        let ind = evaluated(vec![0.005, 1e-4, 7.0], vec![0.0016, 0.0357]);
        let j = individual_to_json(&ind);
        let back = individual_from_json(&j).unwrap();
        assert_eq!(back.id, ind.id);
        assert_eq!(back.genome, ind.genome);
        assert_eq!(back.fitness, ind.fitness);
        assert_eq!(back.rank, ind.rank);
        assert_eq!(back.distance, f64::INFINITY);
        assert_eq!(back.eval_minutes, ind.eval_minutes);
        // Serialize → parse → serialize is a fixed point.
        assert_eq!(individual_to_json(&back).to_compact(), j.to_compact());
    }

    #[test]
    fn unevaluated_individual_round_trips() {
        let ind = Individual::new(vec![1.5, -2.0]);
        let back = individual_from_json(&individual_to_json(&ind)).unwrap();
        assert!(back.fitness.is_none());
        assert_eq!(back.rank, usize::MAX);
        assert_eq!(back.eval_minutes, None);
    }

    #[test]
    fn maxint_penalty_round_trips_exactly() {
        let f = Fitness::penalty(2);
        let back = fitness_from_json(&fitness_to_json(&f)).unwrap();
        assert!(back.is_penalty());
        assert_eq!(back, f);
    }

    #[test]
    fn rng_state_round_trips_and_rejects_zero() {
        let state = [0x1234_5678_9abc_def0u64, 42, u64::MAX, 7];
        let back = rng_state_from_json(&rng_state_to_json(state)).unwrap();
        assert_eq!(back, state);
        assert!(rng_state_from_json(&rng_state_to_json([1, 2, 3, 4])).is_ok());
        let zero = Json::Array((0..4).map(|_| hex_u64(0)).collect());
        assert!(rng_state_from_json(&zero).is_err());
    }

    #[test]
    fn eval_entry_round_trips_through_json() {
        let entry = EvalEntry {
            run: 1,
            gen: 3,
            slot: 7,
            seed: 0xdead_beef_0000_0001,
            genome: vec![0.005, 1e-4, 7.0, 2.5, 2.5, 4.5, 4.5],
            fault: FaultKind::None,
            fault_step: None,
            fault_loss: None,
            objectives: Some(vec![0.0016, 0.0357]),
            minutes: 63.25,
            attempts: 2,
            lcurve_tail: vec![LcurveRow {
                step: 50,
                rmse_e_val: 0.0016,
                rmse_e_trn: 0.002,
                rmse_f_val: 0.0357,
                rmse_f_trn: 0.04,
                lr: 1e-5,
            }],
            arrival: None,
        };
        let j = entry.to_json();
        let back = EvalEntry::from_json(&j).unwrap();
        assert_eq!(back.genome, entry.genome);
        assert_eq!(back.objectives, entry.objectives);
        assert_eq!(back.seed, entry.seed);
        assert_eq!(back.lcurve_tail, entry.lcurve_tail);
        assert_eq!(back.to_json().to_compact(), j.to_compact());
    }

    #[test]
    fn faulted_entry_without_objectives_is_valid_but_success_is_not() {
        let mut entry = EvalEntry {
            run: 0,
            gen: 0,
            slot: 0,
            seed: 1,
            genome: vec![1.0],
            fault: FaultKind::Worker,
            fault_step: None,
            fault_loss: None,
            objectives: None,
            minutes: 0.0,
            attempts: 3,
            lcurve_tail: Vec::new(),
            arrival: None,
        };
        assert!(EvalEntry::from_json(&entry.to_json()).is_ok());
        entry.fault = FaultKind::None;
        assert!(EvalEntry::from_json(&entry.to_json()).is_err());
    }

    fn sample_eval() -> EvalEntry {
        EvalEntry {
            run: 0,
            gen: 0,
            slot: 0,
            seed: 9,
            genome: vec![1.0, 2.0],
            fault: FaultKind::Diverged,
            fault_step: None,
            fault_loss: None,
            objectives: None,
            minutes: 0.1,
            attempts: 1,
            lcurve_tail: Vec::new(),
            arrival: None,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn frame_round_trips_and_rejects_wrong_sequence() {
        let payload = r#"{"type":"eval","run":0}"#;
        let line = frame_line(7, payload);
        assert!(line.starts_with("J2 00000007 "));
        assert!(line.ends_with('\n'));
        let body = &line[..line.len() - 1];
        assert_eq!(parse_frame(body, 7).unwrap(), payload);
        let err = parse_frame(body, 8).unwrap_err();
        assert!(err.message.contains("sequence"), "{err}");
    }

    #[test]
    fn any_single_byte_flip_in_a_frame_is_detected() {
        let payload = r#"{"type":"eval","run":0,"gen":3}"#;
        let line = frame_line(0, payload);
        let body = &line[..line.len() - 1];
        for i in 0..body.len() {
            let mut flipped = body.as_bytes().to_vec();
            flipped[i] ^= 0x01; // stays ASCII, so UTF-8 stays valid
            let flipped = String::from_utf8(flipped).unwrap();
            assert!(
                parse_frame(&flipped, 0).is_err(),
                "flip at byte {i} went undetected: {flipped}"
            );
        }
    }

    #[test]
    fn torn_final_line_is_tolerated_and_measured_off() {
        let config = ExperimentConfig::smoke();
        let dir = std::env::temp_dir().join(format!("dphpo-journal-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.jsonl");
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            writer.append_eval(&sample_eval()).unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a torn, newline-less final frame.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"J2 00000002 0000001f 1234abcd {\"type\":\"ev").unwrap();
        drop(f);

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.valid_len, full_len);
        assert_eq!(journal.evals.len(), 1);
        assert_eq!(journal.frames, 2);
        journal.check_config(&config).unwrap();

        // A different configuration is rejected as stale.
        let mut other = ExperimentConfig::smoke();
        other.master_seed += 1;
        assert!(journal.check_config(&other).is_err());

        // Reopening for append truncates the torn tail.
        drop(JournalWriter::open_append(&path, &journal).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parseable_final_line_without_newline_is_dropped() {
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-nonl-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("nonl.jsonl");
        let entry = sample_eval();
        drop(JournalWriter::create(&path, &config).unwrap());
        let header_len = std::fs::metadata(&path).unwrap().len();
        // A torn write can end exactly at a frame boundary minus the
        // newline: the frame parses, but without its newline it is not
        // durable and must be dropped, or the next append would merge two
        // frames onto one line.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let full_frame = frame_line(1, &entry.to_json().to_compact());
        f.write_all(&full_frame.as_bytes()[..full_frame.len() - 1]).unwrap();
        drop(f);

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.evals.len(), 0);
        assert_eq!(journal.valid_len, header_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_returns_the_records_byte_offset() {
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-off-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("offsets.jsonl");
        let entry = sample_eval();
        let (first, second) = {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            (writer.append_eval(&entry).unwrap(), writer.append_eval(&entry).unwrap())
        };
        // The first record starts right after the header; the second right
        // after the first — and both match what is actually on disk.
        let text = std::fs::read_to_string(&path).unwrap();
        let header_len = text.lines().next().unwrap().len() as u64 + 1;
        assert_eq!(first, header_len);
        assert_eq!(second, header_len + (second - first));
        // The slice at the returned offset is exactly the record's frame.
        let line_at_first = text[first as usize..].lines().next().unwrap();
        assert_eq!(line_at_first, &frame_line(1, &entry.to_json().to_compact())[..line_at_first.len()]);
        assert_eq!(parse_frame(line_at_first, 1).unwrap(), entry.to_json().to_compact());
        assert_eq!(second + (second - first), text.len() as u64);

        // Reopening for append continues from the valid length, with the
        // next sequence number.
        let journal = Journal::load(&path).unwrap();
        let third = JournalWriter::open_append(&path, &journal)
            .unwrap()
            .append_eval(&entry)
            .unwrap();
        assert_eq!(third, text.len() as u64);
        assert!(Journal::load(&path).is_ok(), "sequence must continue contiguously");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_the_final_line_is_an_error() {
        let dir = std::env::temp_dir().join(format!("dphpo-journal-mid-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("corrupt.jsonl");
        let config = ExperimentConfig::smoke();
        // Flip one payload byte of the middle frame.
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            writer.append_eval(&sample_eval()).unwrap();
            writer.append_eval(&sample_eval()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(err.message.contains("salvage"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_fail_appends_per_kind_and_salvage_recovers() {
        use dphpo_hpc::faultplan::FaultPlan;
        use std::sync::Arc;
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-fault-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let entry = sample_eval();

        // ShortWrite: a torn frame lands, the append errors, and salvage
        // quarantines the torn bytes.
        let path = dir.join("short.jsonl");
        let clean_len = {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            writer.append_eval(&entry).unwrap();
            let clean_len = std::fs::metadata(&path).unwrap().len();
            let plan =
                Arc::new(FaultPlan::new(3).script(JOURNAL_APPEND_SITE, 0, IoFault::ShortWrite));
            writer.set_io_site(IoSite::new(plan, JOURNAL_APPEND_SITE));
            assert!(writer.append_eval(&entry).is_err());
            clean_len
        };
        assert!(std::fs::metadata(&path).unwrap().len() > clean_len, "torn frame expected");
        let report = salvage(&path).unwrap();
        assert_eq!(report.valid_len, clean_len);
        assert_eq!(report.frames_kept, 2);
        assert!(report.quarantined_bytes > 0);
        assert!(report.first_bad_offset.is_none(), "a torn tail is not corruption");
        assert!(report.quarantine_path.exists());
        assert_eq!(Journal::load(&path).unwrap().evals.len(), 1);

        // IoError / DiskFull: nothing reaches the file.
        for fault in [IoFault::IoError, IoFault::DiskFull] {
            let path = dir.join(format!("{fault}.jsonl"));
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            let before = std::fs::metadata(&path).unwrap().len();
            let plan = Arc::new(FaultPlan::new(3).script(JOURNAL_APPEND_SITE, 0, fault));
            writer.set_io_site(IoSite::new(plan, JOURNAL_APPEND_SITE));
            assert!(writer.append_eval(&entry).is_err());
            drop(writer);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
            assert_eq!(Journal::load(&path).unwrap().frames, 1);
        }

        // FsyncFail: the frame lands whole (the pessimistic durable case)
        // but the append still errors.
        let path = dir.join("fsync.jsonl");
        let mut writer = JournalWriter::create(&path, &config).unwrap();
        let plan = Arc::new(FaultPlan::new(3).script(JOURNAL_APPEND_SITE, 0, IoFault::FsyncFail));
        writer.set_io_site(IoSite::new(plan, JOURNAL_APPEND_SITE));
        assert!(writer.append_eval(&entry).is_err());
        drop(writer);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.evals.len(), 1, "fsync-failed frame is durable here");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_damage_and_salvage_truncates_to_the_prefix() {
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-verify-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("verify.jsonl");
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            for slot in 0..3 {
                writer.append_eval(&EvalEntry { slot, ..sample_eval() }).unwrap();
            }
        }
        let clean = verify(&path).unwrap();
        assert_eq!(clean.frames, 4);
        assert_eq!(clean.evals, 3);
        assert!(!clean.damaged());
        assert_eq!(clean.valid_len, clean.total_len);

        // Flip a byte in the third frame: verify pinpoints it, load
        // refuses, salvage keeps exactly the two frames before it.
        let mut bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let third_frame_offset: usize =
            text.split_inclusive('\n').take(2).map(str::len).sum();
        bytes[third_frame_offset + FRAME_PREFIX_LEN + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = verify(&path).unwrap();
        assert!(damaged.damaged());
        assert_eq!(damaged.first_corrupt_offset, Some(third_frame_offset as u64));
        assert_eq!(damaged.frames, 2);
        assert!(Journal::load(&path).is_err());
        let report = salvage(&path).unwrap();
        assert_eq!(report.frames_kept, 2);
        assert_eq!(report.first_bad_offset, Some(third_frame_offset as u64));
        assert_eq!(report.valid_len, third_frame_offset as u64);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.evals.len(), 1);
        // Salvage is idempotent: a second pass finds a clean file.
        let again = salvage(&path).unwrap();
        assert_eq!(again.quarantined_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_is_refused_by_load_and_quarantined_by_salvage() {
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-utf8-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("utf8.jsonl");
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            writer.append_eval(&sample_eval()).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xff, 0xfe, 0xfd]).unwrap();
        drop(f);
        let err = Journal::load(&path).unwrap_err();
        assert!(err.message.contains("UTF-8"), "{err}");
        let report = salvage(&path).unwrap();
        assert_eq!(report.valid_len, clean_len);
        assert_eq!(report.quarantined_bytes, 3);
        assert_eq!(report.first_bad_offset, Some(clean_len));
        assert!(Journal::load(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_journal_is_refused_not_misread() {
        let config = ExperimentConfig::smoke();
        let dir = std::env::temp_dir().join(format!("dphpo-journal-v1-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("v1.jsonl");
        // A v1 journal is bare JSONL under a version-1 header.
        let header = header_json(&config).to_compact().replace("\"version\":2", "\"version\":1");
        assert!(header.contains("\"version\":1"));
        let text = format!("{header}\n{}\n", sample_eval().to_json().to_compact());
        std::fs::write(&path, &text).unwrap();

        let refusals = [
            Journal::load(&path).map(drop),
            verify(&path).map(drop),
            salvage(&path).map(drop),
            compact(&path).map(drop),
        ];
        for refusal in refusals {
            let err = refusal.expect_err("a v1 journal must be refused");
            assert!(err.message.contains("version 1"), "{err}");
        }
        // Refused means untouched: no truncation, no quarantine, no rewrite.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);

        // The same records under v2 frames but a version-1 header are
        // corrupt at byte 0, not silently accepted.
        std::fs::write(&path, frame_line(0, &header)).unwrap();
        assert_eq!(verify(&path).unwrap().first_corrupt_offset, Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_entry_round_trips_through_json() {
        let snapshot = SnapshotEntry {
            run: 1,
            arrivals: 8,
            submitted: 11,
            std: vec![0.1, 0.2, 0.3],
            population: vec![evaluated(vec![1.0, 2.0], vec![0.01, 0.2])],
            pending: vec![(9, Individual::new(vec![3.0, 4.0]))],
            archive: vec![evaluated(vec![5.0, 6.0], vec![0.02, 0.1])],
            slots: StreamSlotsState {
                busy: vec![10.0, 12.5],
                lost: vec![0.0, 1.5],
                backoff: vec![0.5, 0.0],
                deaths: 1,
                retried: 1,
                diverged: 0,
                timeout: 1,
                cancelled: 0,
                exhausted: 0,
                baseline_busy: vec![5.0, 6.0],
                baseline_lost: vec![0.0, 0.0],
                baseline_backoff: vec![0.0, 0.0],
                baseline_deaths: 0,
                baseline_retried: 0,
                baseline_diverged: 0,
                baseline_timeout: 1,
                baseline_cancelled: 0,
                baseline_exhausted: 0,
            },
            history: vec![GenerationRecord {
                generation: 0,
                failures: 1,
                population: vec![evaluated(vec![1.0, 2.0], vec![0.01, 0.2])],
            }],
            epoch_reports: vec![PoolReport {
                makespan_minutes: 70.0,
                per_worker_minutes: vec![70.0, 35.0],
                busy_minutes: vec![70.0, 35.0],
                idle_minutes: vec![0.0, 35.0],
                lost_death_minutes: vec![0.0, 0.0],
                lost_speculation_minutes: vec![0.0, 0.0],
                backoff_slot_minutes: vec![0.0, 0.0],
                wall_minutes: 70.0,
                ..PoolReport::default()
            }],
            epoch_failures: 2,
            epoch_churn: (5, 3, 1),
            epoch_sim_offset: 123.5,
            status_rows: vec![GenStatus {
                generation: 0,
                evaluations: 4,
                hypervolume: 0.005,
                ..GenStatus::default()
            }],
        };
        let j = snapshot.to_json();
        let back = SnapshotEntry::from_json(&j).unwrap();
        assert_eq!(back.run, snapshot.run);
        assert_eq!(back.arrivals, snapshot.arrivals);
        assert_eq!(back.submitted, snapshot.submitted);
        assert_eq!(back.std, snapshot.std);
        assert_eq!(back.pending.len(), 1);
        assert_eq!(back.pending[0].0, 9);
        assert_eq!(back.pending[0].1.genome, vec![3.0, 4.0]);
        assert_eq!(back.slots, snapshot.slots);
        assert_eq!(back.history.len(), 1);
        assert_eq!(back.epoch_churn, (5, 3, 1));
        assert_eq!(back.epoch_sim_offset, 123.5);
        assert_eq!(back.status_rows, snapshot.status_rows);
        // Serialize → parse → serialize is a fixed point.
        assert_eq!(back.to_json().to_compact(), j.to_compact());
    }

    #[test]
    fn compact_keeps_the_last_snapshot_and_the_arrival_suffix() {
        let config = ExperimentConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-compact-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("compact.jsonl");
        let steady_eval = |arrival: usize| EvalEntry {
            slot: arrival,
            arrival: Some(arrival),
            ..sample_eval()
        };
        let snapshot = |arrivals: usize| SnapshotEntry {
            run: 0,
            arrivals,
            submitted: arrivals,
            std: vec![0.1],
            population: Vec::new(),
            pending: Vec::new(),
            archive: Vec::new(),
            slots: StreamSlotsState {
                busy: vec![0.0],
                lost: vec![0.0],
                backoff: vec![0.0],
                baseline_busy: vec![0.0],
                baseline_lost: vec![0.0],
                baseline_backoff: vec![0.0],
                ..StreamSlotsState::default()
            },
            history: Vec::new(),
            epoch_reports: Vec::new(),
            epoch_failures: 0,
            epoch_churn: (0, 0, 0),
            epoch_sim_offset: 0.0,
            status_rows: Vec::new(),
        };
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            for arrival in 0..4 {
                writer.append_eval(&steady_eval(arrival)).unwrap();
            }
            writer.append_snapshot(&snapshot(4)).unwrap();
            for arrival in 4..6 {
                writer.append_eval(&steady_eval(arrival)).unwrap();
            }
        }
        let before = verify(&path).unwrap();
        assert_eq!(before.frames, 8);
        let report = compact(&path).unwrap();
        assert_eq!(report.frames_before, 8);
        // header + snapshot + 2 suffix evals
        assert_eq!(report.frames_after, 4);
        assert!(report.bytes_after < report.bytes_before);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.frames, 4);
        assert_eq!(journal.evals.len(), 2);
        assert_eq!(journal.last_snapshot_for(0).unwrap().arrivals, 4);
        assert!(journal.evals.values().all(|e| e.arrival.unwrap() >= 4));
        // Compaction is idempotent.
        let again = compact(&path).unwrap();
        assert_eq!(again.frames_after, again.frames_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_every_generational_boundary_and_the_unfinished_suffix() {
        let config = ExperimentConfig::smoke();
        let dir = std::env::temp_dir()
            .join(format!("dphpo-journal-compact-gen-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("compact_gen.jsonl");
        let gen_entry = |generation: usize| GenEntry {
            run: 0,
            record: GenerationRecord { generation, failures: 0, population: Vec::new() },
            std: vec![0.1],
            evaluations: 4 * (generation + 1),
            rng_state: [1, 2, 3, 4],
            archive: Vec::new(),
            report: PoolReport::default(),
        };
        {
            let mut writer = JournalWriter::create(&path, &config).unwrap();
            for generation in 0..2usize {
                for slot in 0..2 {
                    writer
                        .append_eval(&EvalEntry {
                            gen: generation,
                            slot,
                            ..sample_eval()
                        })
                        .unwrap();
                }
                writer.append_generation(&gen_entry(generation)).unwrap();
            }
            // Unfinished generation 2: evals, no boundary yet.
            writer.append_eval(&EvalEntry { gen: 2, slot: 0, ..sample_eval() }).unwrap();
        }
        let report = compact(&path).unwrap();
        assert_eq!(report.frames_before, 8);
        // header + 2 boundaries + 1 suffix eval; the 4 boundary-covered
        // evals are dropped.
        assert_eq!(report.frames_after, 4);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.boundaries_for(0).unwrap().len(), 2);
        assert_eq!(journal.evals.len(), 1);
        assert!(journal.evals.contains_key(&(0, 2, 0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_campaign_knob() {
        let base = ExperimentConfig::smoke();
        let f0 = config_fingerprint(&base);
        let mut c = base.clone();
        c.master_seed = 8;
        assert_ne!(config_fingerprint(&c), f0);
        let mut c = base.clone();
        c.pop_size += 1;
        assert_ne!(config_fingerprint(&c), f0);
        let mut c = base.clone();
        c.fault_probability = 0.5;
        assert_ne!(config_fingerprint(&c), f0);
        let mut c = base.clone();
        c.base_train_config.num_steps += 1;
        assert_ne!(config_fingerprint(&c), f0);
        let mut c = base.clone();
        c.gen_config.n_atoms += 10;
        assert_ne!(config_fingerprint(&c), f0);
        let mut c = base.clone();
        c.mode = CampaignMode::SteadyState;
        assert_ne!(config_fingerprint(&c), f0);
        assert_eq!(config_fingerprint(&base.clone()), f0);
    }

    #[test]
    fn arrival_index_round_trips_and_is_absent_from_generational_bytes() {
        let mut entry = EvalEntry {
            run: 0,
            gen: 0,
            slot: 5,
            seed: 9,
            genome: vec![1.0, 2.0],
            fault: FaultKind::None,
            fault_step: None,
            fault_loss: None,
            objectives: Some(vec![0.1, 0.2]),
            minutes: 1.5,
            attempts: 1,
            lcurve_tail: Vec::new(),
            arrival: None,
        };
        // Generational entries must not grow a key: old readers and the
        // checked-in journal bytes both depend on the exact encoding.
        assert!(!entry.to_json().to_compact().contains("arrival"));
        entry.arrival = Some(17);
        let line = entry.to_json().to_compact();
        assert!(line.contains("\"arrival\":17"));
        let back = EvalEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(back.arrival, Some(17));
        assert_eq!(back.to_json().to_compact(), line);
    }

    #[test]
    fn steady_and_generational_journals_reject_each_other() {
        let generational = ExperimentConfig::smoke();
        let mut steady = ExperimentConfig::smoke();
        steady.mode = CampaignMode::SteadyState;
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-mode-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        for (write_as, resume_as) in
            [(&generational, &steady), (&steady, &generational)]
        {
            let path = dir.join("mode.jsonl");
            drop(JournalWriter::create(&path, write_as).unwrap());
            let journal = Journal::load(&path).unwrap();
            journal.check_config(write_as).unwrap();
            let err = journal.check_config(resume_as).unwrap_err();
            assert!(err.to_string().contains("stale journal"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
