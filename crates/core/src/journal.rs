//! The write-ahead evaluation journal: crash-safe, bit-identically
//! resumable experiment campaigns.
//!
//! Every completed evaluation (genome, seed, fitness, wall-minutes, fault
//! flags, `lcurve.out` tail) and every generation boundary (population, RNG
//! stream state, mutation σ, Pareto archive, scheduler report) is appended
//! *before* the campaign moves on — one framed record per line, flushed per
//! record. If the driver dies mid-campaign, `resume` replays the journaled
//! records instead of retraining, re-submits only the missing tasks to the
//! worker pool, and continues to a result **bit-identical** to an
//! uninterrupted run.
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
//! file, not just a torn tail. [`Journal::load`] refuses a damaged file;
//! [`salvage`] truncates it at the first bad frame, quarantines the trailing
//! bytes to `<journal>.quarantine`, and leaves a journal that resumes
//! deterministically from the last intact record; [`compact`] (`fig1
//! --compact`) does the same before it rewrites. Unframed v1 journals
//! (plain JSONL) are refused with an error naming the unsupported version.
//!
//! # Records
//!
//! Each persisted record — `header`, `eval`, `generation`, `epoch`,
//! `snapshot`, the values nested in them, and the status row
//! `crate::campaign_report` shares with the status file — is declared once,
//! as a table of `"key" => field: encoding` lines (the `record!` macro), and
//! both the writer's [`Json`] and the decoder come from that table.
//! [`Journal::load`], [`verify`], [`salvage`] and [`compact`] share one scan
//! of the file buffer; each payload, borrowed from the buffer, is decoded
//! straight out of a [`Reader`] into its struct with no tree in between, and
//! every field is validated: a record that is well-framed but semantically
//! wrong is corruption at its frame's offset for all four alike. Values the
//! writer can never emit — a number that overflows to infinity, a counter
//! that is not a non-negative integer, a key repeated or missing — are
//! rejected, not coerced (DESIGN.md §13.6).
//!
//! Steady-state campaigns append two more record kinds. An **epoch** record
//! ([`EpochEntry`]) is written once, the moment an epoch closes: the epoch's
//! population, its scheduler report and its published status row. A
//! **snapshot** ([`SnapshotEntry`]) is written at epoch-window boundaries and
//! carries only live state; the per-epoch history a resume also needs is
//! folded back from the run's epoch records by [`Journal::load`], so a
//! journal grows by O(1) per epoch. Resume restores the latest snapshot and
//! replays only the arrival suffix after it; [`compact`] rewrites a journal
//! down to the epoch records, that snapshot and that suffix. (Generational
//! journals need neither: every generation boundary *is* a snapshot.) The
//! boundary records of a finished journal are also the campaign's only
//! persisted result: [`Journal::run_results`] rebuilds every run from them.
//!
//! # Determinism contract
//!
//! The resumed campaign equals the uninterrupted one because every source
//! of randomness is restored or re-derived exactly (DESIGN.md §7.2, §12):
//! each boundary stores the EA stream's xoshiro256++ state; training seeds
//! ([`crate::workflow::derive_seed`]) and worker deaths
//! ([`dphpo_hpc::FaultInjector`]) are pure functions of position; replay
//! matches a journaled evaluation by `(run, generation, slot)` *and* a
//! bit-exact genome; and steady-state evaluations carry their `arrival`
//! index, off which every steady-state RNG draw is keyed. The header's
//! fingerprint of the configuration (`config_fingerprint`) makes resuming
//! under a changed configuration an error rather than a chimera.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::marker::PhantomData;
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use dphpo_dnnp::LcurveRow;
use dphpo_evo::nsga2::{GenerationRecord, RunResult};
use dphpo_evo::{Fitness, Id, Individual};
use dphpo_hpc::scheduler::{BACKOFF_BASE_MINUTES, BACKOFF_FACTOR, TIMEOUT_MINUTES};
use dphpo_hpc::{EvalFault, EvalOutcome, PoolReport, StreamSlotsState, TaskError, TaskRecord};
use dphpo_md::LABEL_NOISE;
use dphpo_obs::json::{Json, JsonError, Reader};

use crate::campaign_report::{sync_parent_dir, write_atomic, GenStatus};
use crate::chaos::{IoFault, IoSite, JOURNAL_APPEND_SITE};
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

    /// The error, as met in the value of a record's member `key`.
    pub(crate) fn within(self, key: &str) -> Self {
        JournalError::new(format!("field '{key}': {}", self.message))
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal error: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

impl From<JsonError> for JournalError {
    fn from(e: JsonError) -> Self {
        JournalError::new(format!("bad JSON in record: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Frame layer (format v2): `J2 <seq:08x> <len:08x> <crc:08x> <payload>\n`
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320) slice-by-8 lookup
/// tables, built at compile time. `T[0]` is the classic byte table;
/// `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which lets
/// eight input bytes fold into the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the checksum carried by every v2 frame.
/// Standard parameters: init and xorout `0xffffffff`, reflected. The
/// check value of `b"123456789"` is `0xcbf43926`. Eight bytes per step
/// (slice-by-8); the tail shorter than eight goes byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Byte length of the v2 frame prefix:
/// `"J2 "` + 8 hex (seq) + `" "` + 8 hex (len) + `" "` + 8 hex (crc) + `" "`.
const FRAME_PREFIX_LEN: usize = 30;

/// Append one framed journal line to `out`. The payload must be
/// newline-free (compact JSON always is).
fn push_frame(out: &mut String, seq: u64, payload: &str) {
    debug_assert!(!payload.contains('\n'), "frame payloads are single-line");
    // Writing into a `String` cannot fail.
    let _ = write!(out, "J2 {:08x} {:08x} {:08x} ", seq, payload.len(), crc32(payload.as_bytes()));
    out.push_str(payload);
    out.push('\n');
}

/// Render one framed journal line. The payload must be newline-free
/// (compact JSON always is).
pub fn frame_line(seq: u64, payload: &str) -> String {
    let mut line = String::with_capacity(FRAME_PREFIX_LEN + payload.len() + 1);
    push_frame(&mut line, seq, payload);
    line
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
// The record codec: every persisted record is declared once
// ---------------------------------------------------------------------------

/// How one persisted value is spelled, both ways: the writer's [`Json`], and
/// a strict decoder that pulls the value straight out of a [`Reader`] over
/// the frame's payload — no [`Json`] tree is built on the read side. The
/// leaf encodings are implemented below; a record (a JSON object) is
/// declared with [`record!`].
pub(crate) trait Codec {
    /// The value written and read back.
    type Value;
    /// Whether a record may lack the member; it then keeps the record's
    /// blank value. The `null`-able members are optional.
    const OPTIONAL: bool = false;
    /// Render `value`.
    fn write(value: &Self::Value) -> Json;
    /// Whether the writer leaves the member out of the record altogether.
    fn omitted(_: &Self::Value) -> bool {
        false
    }
    /// Decode the value of member `key`. (The record holding the member
    /// puts the key in front of any error; a value names it only where the
    /// key is the message, as for a refused [`Inline`] member.)
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Self::Value, JournalError>;
}

/// Declare a record, in one of two forms. A struct of this crate is defined
/// inside the macro, each field with its key — `"key" => field: Type`, plus
/// `as Codec` where the field's type is not its encoding — and decoding
/// starts from its `Default`. Any other type, or one that flattens a nested
/// struct, gets a table: the type, the blank value decoding starts from, and
/// one `"key" => field: Codec` line per member, where `field` may be a path
/// (`record.generation`). Either form may name a discriminator member
/// (`"type" = "eval"`), which also gives the type a public `to_json` and
/// `read`, and a `check` the decoded value must pass.
///
/// Both directions come from the one declaration. [`Codec::write`] renders
/// every member not [`Codec::omitted`] (in sorted key order, by
/// [`Json::object`]); [`Codec::read`] takes the members in any order,
/// syntax-checks and skips unknown keys, and refuses a member met twice or a
/// required one missing, naming its key.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident $(, $tag:literal = $kind:tt)? $(, check = $check:path)? {
            $($(#[$doc:meta])* $key:literal => $fvis:vis $field:ident: $fty:ty $(as $codec:ty)?,)*
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$doc])* $fvis $field: $fty,)*
        }

        $crate::journal::record!($ty, $ty::default, $($tag = $kind,)? $(check = $check,)? {
            $($key => $field: $crate::journal::record!(@codec $fty $(as $codec)?),)*
        });
    };
    (@codec $fty:ty) => { $fty };
    (@codec $fty:ty as $codec:ty) => { $codec };
    ($ty:ty, $blank:expr, $($tag:literal = $kind:expr,)? $(check = $check:expr,)? {
        $($key:literal => $($field:ident).+: $codec:ty,)*
    }) => {
        $(
            impl $ty {
                /// The record as it is written.
                pub fn to_json(&self) -> ::dphpo_obs::json::Json {
                    <Self as $crate::journal::Codec>::write(self)
                }

                /// Decode the record; its discriminator must name it.
                pub fn read(
                    r: &mut ::dphpo_obs::json::Reader<'_>,
                ) -> Result<Self, $crate::journal::JournalError> {
                    <Self as $crate::journal::Codec>::read(r, $kind)
                }
            }
        )?

        impl $crate::journal::Codec for $ty {
            type Value = $ty;

            fn write(v: &$ty) -> ::dphpo_obs::json::Json {
                use ::dphpo_obs::json::Json;
                let mut members = Vec::with_capacity([$($tag,)? $($key),*].len());
                $(members.push(($tag, Json::String($kind.into())));)?
                $(if !<$codec as $crate::journal::Codec>::omitted(&v.$($field).+) {
                    members.push(($key, <$codec as $crate::journal::Codec>::write(&v.$($field).+)));
                })*
                Json::object(members)
            }

            fn read(
                r: &mut ::dphpo_obs::json::Reader<'_>,
                _: &str,
            ) -> Result<$ty, $crate::journal::JournalError> {
                use $crate::journal::{bit, Codec, JournalError};
                const KEYS: &[&str] = &[$($tag,)? $($key),*];
                const REQUIRED: u64 = $(bit(KEYS, $tag) |)? 0
                    $(| if <$codec as Codec>::OPTIONAL { 0 } else { bit(KEYS, $key) })*;
                let mut v: $ty = ($blank)();
                let mut seen = 0;
                r.begin_object()?;
                while let Some(member) = r.next_key()? {
                    let flag = match &*member {
                        $($tag => match r.str()? {
                            tag if tag == $kind => const { bit(KEYS, $tag) },
                            tag => return Err(JournalError::new(format!(
                                "{} '{tag}' where '{}' was expected", $tag, $kind
                            ))),
                        })?
                        $($key => {
                            v.$($field).+ = <$codec as Codec>::read(r, $key)
                                .map_err(|e| e.within($key))?;
                            const { bit(KEYS, $key) }
                        })*
                        _ => r.skip().map(|()| 0)?,
                    };
                    if seen & flag != 0 {
                        return Err(JournalError::new(format!("duplicate key '{member}'")));
                    }
                    seen |= flag;
                }
                // The first required member not seen, if any (a mask with
                // no bit set has 64 trailing zeros: no key).
                if let Some(missing) = KEYS.get((REQUIRED & !seen).trailing_zeros() as usize) {
                    return Err(JournalError::new(format!("missing field '{missing}'")));
                }
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}
pub(crate) use record;

/// A declared key's flag in a record decoder's seen-mask: bit `i` for the
/// `i`-th of the record's keys. Evaluated at compile time, where a key the
/// record does not declare fails the build. (Keys are lowercase ASCII, so
/// the case-blind comparison is exact.)
pub(crate) const fn bit(keys: &[&str], key: &str) -> u64 {
    let mut i = 0;
    while !keys[i].eq_ignore_ascii_case(key) {
        i += 1;
    }
    1 << i
}

/// The writer emits counters and indices as integers; anything else in
/// their place (`-1`, `1.5`, `1e30`) is damage, not a value to coerce.
fn as_uint(v: f64) -> Result<usize, JournalError> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if (0.0..=MAX_EXACT).contains(&v) && v.fract() == 0.0 {
        Ok(v as usize)
    } else {
        Err(JournalError::new(format!("not a non-negative integer: {v}")))
    }
}

/// A counter or index: a non-negative integer no larger than 2^53.
impl Codec for usize {
    type Value = usize;
    fn write(v: &usize) -> Json {
        Json::Number(*v as f64)
    }
    fn read(r: &mut Reader<'_>, _: &str) -> Result<usize, JournalError> {
        as_uint(r.f64()?)
    }
}

/// A counter that must also fit a `u32` (scheduler attempts).
impl Codec for u32 {
    type Value = u32;
    fn write(v: &u32) -> Json {
        Json::Number(f64::from(*v))
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<u32, JournalError> {
        u32::try_from(usize::read(r, key)?).map_err(|_| JournalError::new("more than u32::MAX"))
    }
}

/// A 64-bit word — seed, id, hash, RNG word — as a `0x`-prefixed hex
/// string: a JSON double cannot hold one.
impl Codec for u64 {
    type Value = u64;
    fn write(v: &u64) -> Json {
        Json::String(format!("{v:#018x}"))
    }
    fn read(r: &mut Reader<'_>, _: &str) -> Result<u64, JournalError> {
        let s = r.str()?;
        s.strip_prefix("0x")
            .and_then(|digits| u64::from_str_radix(digits, 16).ok())
            .ok_or_else(|| JournalError::new(format!("not 0x-prefixed hex: {s}")))
    }
}

/// A finite number. (A JSON number is never NaN and the reader refuses
/// literals that overflow to infinity, so every value read is finite.)
impl Codec for f64 {
    type Value = f64;
    fn write(v: &f64) -> Json {
        Json::Number(*v)
    }
    fn read(r: &mut Reader<'_>, _: &str) -> Result<f64, JournalError> {
        Ok(r.f64()?)
    }
}

/// A number that may be non-finite — the `+inf` crowding distance of a
/// front boundary, a diverged loss — spelled `"inf"`, `"-inf"` or `"nan"`
/// when it is, since JSON has no literal for one.
struct MaybeInf;

impl Codec for MaybeInf {
    type Value = f64;
    fn write(v: &f64) -> Json {
        if v.is_finite() {
            Json::Number(*v)
        } else {
            Json::String(v.to_string().to_lowercase())
        }
    }
    fn read(r: &mut Reader<'_>, _: &str) -> Result<f64, JournalError> {
        if r.peek() != Some(b'"') {
            return Ok(r.f64()?);
        }
        match &*r.str()? {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(JournalError::new(format!("not a float: \"{other}\""))),
        }
    }
}

/// `null`, or a value.
impl<C: Codec> Codec for Option<C> {
    type Value = Option<C::Value>;
    const OPTIONAL: bool = true;
    fn write(v: &Option<C::Value>) -> Json {
        v.as_ref().map_or(Json::Null, C::write)
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Option<C::Value>, JournalError> {
        if r.null()? {
            Ok(None)
        } else {
            C::read(r, key).map(Some)
        }
    }
}

/// An [`Option`] the writer leaves out when it is `None`: an eval's
/// `arrival`, which generational evaluations do not have, so their bytes
/// are the same as before the key existed.
struct Omitted<C>(PhantomData<C>);

impl<C: Codec> Codec for Omitted<C> {
    type Value = Option<C::Value>;
    const OPTIONAL: bool = true;
    fn write(v: &Option<C::Value>) -> Json {
        Option::<C>::write(v)
    }
    fn omitted(v: &Option<C::Value>) -> bool {
        v.is_none()
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Option<C::Value>, JournalError> {
        Option::<C>::read(r, key)
    }
}

/// A list of values of one encoding.
impl<C: Codec> Codec for Vec<C> {
    type Value = Vec<C::Value>;
    fn write(items: &Vec<C::Value>) -> Json {
        list::<C>(items)
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Vec<C::Value>, JournalError> {
        // Most journaled lists fit: a genome is 7 long, objectives 2, an
        // lcurve tail 3 rows of 6 — and growing into 8 costs a reallocation.
        let mut out = Vec::with_capacity(8);
        r.begin_array()?;
        while r.next_element()? {
            out.push(C::read(r, key)?);
        }
        Ok(out)
    }
}

fn list<C: Codec>(items: &[C::Value]) -> Json {
    Json::Array(items.iter().map(C::write).collect())
}

/// A list of exactly `N` values.
fn array<C: Codec, const N: usize>(
    r: &mut Reader<'_>,
    key: &str,
) -> Result<[C::Value; N], JournalError> {
    Vec::<C>::read(r, key)?
        .try_into()
        .map_err(|_| JournalError::new(format!("not a {N}-element array")))
}

/// A non-domination rank: `null` while unranked (`usize::MAX`).
struct Rank;

impl Codec for Rank {
    type Value = usize;
    const OPTIONAL: bool = true;
    fn write(v: &usize) -> Json {
        Option::<usize>::write(&Some(*v).filter(|&rank| rank != usize::MAX))
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<usize, JournalError> {
        Ok(Option::<usize>::read(r, key)?.unwrap_or(usize::MAX))
    }
}

/// An individual's id. Journaled ids are stable ids, whose top bit keeps
/// them out of the process-local [`Id::fresh`] range.
impl Codec for Id {
    type Value = Id;
    fn write(id: &Id) -> Json {
        u64::write(&id.raw())
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Id, JournalError> {
        Ok(Id::from_raw(u64::read(r, key)?))
    }
}

/// A fitness vector (objectives only; `MAXINT` penalties are large finite
/// numbers and round-trip exactly).
impl Codec for Fitness {
    type Value = Fitness;
    fn write(f: &Fitness) -> Json {
        list::<f64>(f.values())
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<Fitness, JournalError> {
        Vec::<f64>::read(r, key).map(Fitness::new)
    }
}

/// A xoshiro256++ state: four hex words, not all zero.
impl Codec for [u64; 4] {
    type Value = [u64; 4];
    fn write(state: &[u64; 4]) -> Json {
        list::<u64>(state)
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<[u64; 4], JournalError> {
        let state = array::<u64, 4>(r, key)?;
        if state.iter().all(|&w| w == 0) {
            return Err(JournalError::new("all-zero rng state"));
        }
        Ok(state)
    }
}

/// An `lcurve.out` row: `[step, rmse_e_val, rmse_e_trn, rmse_f_val,
/// rmse_f_trn, lr]`.
impl Codec for LcurveRow {
    type Value = LcurveRow;
    fn write(row: &LcurveRow) -> Json {
        let LcurveRow { step, rmse_e_val, rmse_e_trn, rmse_f_val, rmse_f_trn, lr } = *row;
        list::<f64>(&[step as f64, rmse_e_val, rmse_e_trn, rmse_f_val, rmse_f_trn, lr])
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<LcurveRow, JournalError> {
        let [step, rmse_e_val, rmse_e_trn, rmse_f_val, rmse_f_trn, lr] = array::<f64, 6>(r, key)?;
        let step = as_uint(step)?;
        Ok(LcurveRow { step, rmse_e_val, rmse_e_trn, rmse_f_val, rmse_f_trn, lr })
    }
}

/// One `[submission, individual]` pair of a snapshot's resubmission queue.
impl Codec for (usize, Individual) {
    type Value = (usize, Individual);
    fn write((submission, ind): &(usize, Individual)) -> Json {
        Json::Array(vec![usize::write(submission), Individual::write(ind)])
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<(usize, Individual), JournalError> {
        let shape = || JournalError::new("pending entry must be a [submission, individual] pair");
        r.begin_array()?;
        r.next_element()?.then_some(()).ok_or_else(shape)?;
        let submission = usize::read(r, key).map_err(|e| e.within("pending submission"))?;
        r.next_element()?.then_some(()).ok_or_else(shape)?;
        let individual = Individual::read(r, key)?;
        match r.next_element()? {
            false => Ok((submission, individual)),
            true => Err(shape()),
        }
    }
}

/// Archive churn within an epoch: `[offered, added, evicted]`.
impl Codec for (usize, usize, usize) {
    type Value = (usize, usize, usize);
    fn write(&(offered, added, evicted): &(usize, usize, usize)) -> Json {
        list::<usize>(&[offered, added, evicted])
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<(usize, usize, usize), JournalError> {
        let [offered, added, evicted] = array::<usize, 3>(r, key)?;
        Ok((offered, added, evicted))
    }
}

/// A pair of finite numbers: the status file's hypervolume reference point.
impl Codec for (f64, f64) {
    type Value = (f64, f64);
    fn write(&(first, second): &(f64, f64)) -> Json {
        list::<f64>(&[first, second])
    }
    fn read(r: &mut Reader<'_>, key: &str) -> Result<(f64, f64), JournalError> {
        let [first, second] = array::<f64, 2>(r, key)?;
        Ok((first, second))
    }
}

/// A member that a snapshot of an older build carried — every closed epoch
/// inline — and this one never writes. Reading one as if the arrays were
/// merely absent would resume from an empty history, so it is refused by
/// name instead.
struct Inline<T>(PhantomData<T>);

impl<T> Codec for Inline<T> {
    type Value = Vec<T>;
    const OPTIONAL: bool = true;
    fn write(_: &Vec<T>) -> Json {
        Json::Null
    }
    fn omitted(_: &Vec<T>) -> bool {
        true
    }
    fn read(_: &mut Reader<'_>, key: &str) -> Result<Vec<T>, JournalError> {
        Err(JournalError::new(format!(
            "snapshot carries inline '{key}': it was written by an older build, before epochs \
             were journaled as records of their own"
        )))
    }
}

// An individual: identity, genome, evaluation state, and the sort metadata
// (rank / crowding distance) that selection derived.
record!(Individual, blank_individual, {
    "id" => id: Id,
    "genome" => genome: Vec<f64>,
    "fitness" => fitness: Option<Fitness>,
    "rank" => rank: Rank,
    "distance" => distance: MaybeInf,
    "minutes" => eval_minutes: Option<f64>,
});

fn blank_individual() -> Individual {
    let (genome, fitness, distance, eval_minutes) = Default::default();
    Individual { id: Id::from_raw(0), genome, fitness, rank: usize::MAX, distance, eval_minutes }
}

// A scheduler report. `quarantined_workers` and `placements` are statistics
// no artifact reads back, and stay out of the record.
record!(PoolReport, PoolReport::default, {
    "makespan" => makespan_minutes: f64,
    "per_worker" => per_worker_minutes: Vec<f64>,
    "deaths" => worker_deaths: usize,
    "retried" => retried_tasks: usize,
    "diverged" => diverged_tasks: usize,
    "timeout" => timeout_tasks: usize,
    "cancelled" => cancelled_tasks: usize,
    "exhausted" => exhausted_tasks: usize,
    "lost_minutes" => lost_minutes: f64,
    "backoff_minutes" => backoff_minutes: f64,
    "busy" => busy_minutes: Vec<f64>,
    "lost_death" => lost_death_minutes: Vec<f64>,
    "backoff_slot" => backoff_slot_minutes: Vec<f64>,
    "idle" => idle_minutes: Vec<f64>,
    "wall" => wall_minutes: f64,
});

// A steady run's slot accountant: the live tally and the epoch baseline.
record!(StreamSlotsState, StreamSlotsState::default, {
    "busy" => now.busy: Vec<f64>,
    "lost" => now.lost: Vec<f64>,
    "backoff" => now.backoff: Vec<f64>,
    "deaths" => now.counts.deaths: usize,
    "retried" => now.counts.retried: usize,
    "diverged" => now.counts.diverged: usize,
    "timeout" => now.counts.timeout: usize,
    "cancelled" => now.counts.cancelled: usize,
    "exhausted" => now.counts.exhausted: usize,
    "base_busy" => baseline.busy: Vec<f64>,
    "base_lost" => baseline.lost: Vec<f64>,
    "base_backoff" => baseline.backoff: Vec<f64>,
    "base_deaths" => baseline.counts.deaths: usize,
    "base_retried" => baseline.counts.retried: usize,
    "base_diverged" => baseline.counts.diverged: usize,
    "base_timeout" => baseline.counts.timeout: usize,
    "base_cancelled" => baseline.counts.cancelled: usize,
    "base_exhausted" => baseline.counts.exhausted: usize,
});

/// Serialise a fitness vector.
pub fn fitness_to_json(f: &Fitness) -> Json {
    Fitness::write(f)
}

/// Decode a fitness vector.
pub fn read_fitness(r: &mut Reader<'_>) -> Result<Fitness, JournalError> {
    Fitness::read(r, "fitness")
}

/// Serialise an individual.
pub fn individual_to_json(ind: &Individual) -> Json {
    Individual::write(ind)
}

/// Decode an individual.
pub fn read_individual(r: &mut Reader<'_>) -> Result<Individual, JournalError> {
    Individual::read(r, "individual")
}

/// Serialise a xoshiro256++ state snapshot as four hex words.
pub fn rng_state_to_json(state: [u64; 4]) -> Json {
    <[u64; 4]>::write(&state)
}

/// Decode a [`rng_state_to_json`] snapshot.
pub fn read_rng_state(r: &mut Reader<'_>) -> Result<[u64; 4], JournalError> {
    <[u64; 4]>::read(r, "rng")
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

/// How a journaled evaluation ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultKind {
    /// Training completed and produced a finite fitness.
    #[default]
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
    const ALL: [FaultKind; 5] = [
        FaultKind::None,
        FaultKind::Diverged,
        FaultKind::Timeout,
        FaultKind::Worker,
        FaultKind::Cancelled,
    ];

    fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Diverged => "diverged",
            FaultKind::Timeout => "timeout",
            FaultKind::Worker => "worker",
            FaultKind::Cancelled => "cancelled",
        }
    }
}

/// A fault kind, by its name.
impl Codec for FaultKind {
    type Value = FaultKind;
    fn write(kind: &FaultKind) -> Json {
        Json::String(kind.name().into())
    }
    fn read(r: &mut Reader<'_>, _: &str) -> Result<FaultKind, JournalError> {
        let name = r.str()?;
        let kind = FaultKind::ALL.into_iter().find(|kind| kind.name() == name);
        kind.ok_or_else(|| JournalError::new(format!("unknown fault kind '{name}'")))
    }
}

record! {
    /// One completed evaluation, as journaled the moment the scheduler
    /// finalised it.
    #[derive(Clone, Debug, Default)]
    pub struct EvalEntry, "type" = "eval", check = EvalEntry::check {
        /// Experiment run index.
        "run" => pub run: usize,
        /// Generation whose batch contained the task.
        "gen" => pub gen: usize,
        /// Slot (task index) within the generation's batch.
        "slot" => pub slot: usize,
        /// Derived training seed. Replay never retrains, but
        /// `evaluate_individual(ctx, genome, seed)` under the journal's
        /// configuration reproduces this record bit for bit.
        "seed" => pub seed: u64,
        /// The evaluated genome, bit-exact.
        "genome" => pub genome: Vec<f64>,
        /// How the evaluation ended.
        "fault" => pub fault: FaultKind,
        /// For [`FaultKind::Diverged`] with a structured sentinel abort: the
        /// training step at which divergence was detected.
        "fault_step" => pub fault_step: Option<usize>,
        /// For [`FaultKind::Diverged`] with a structured sentinel abort: the
        /// offending loss (may be non-finite).
        "fault_loss" => pub fault_loss: Option<f64> as Option<MaybeInf>,
        /// Objective values — present iff `fault == FaultKind::None`.
        "objectives" => pub objectives: Option<Vec<f64>>,
        /// Simulated minutes charged (timeouts charge the full limit).
        "minutes" => pub minutes: f64,
        /// Scheduler attempts consumed (1 = no retries).
        "attempts" => pub attempts: u32,
        /// Tail of the training curve (empty on failure).
        "lcurve_tail" => pub lcurve_tail: Vec<LcurveRow>,
        /// Steady-state arrival index this evaluation was consumed at — the
        /// journaled arrival order that fully determines population and archive
        /// bytes (DESIGN.md §12). `None` for generational entries, whose order
        /// is already fixed by `(gen, slot)`; the key is omitted from the JSON
        /// encoding so generational journal bytes are unchanged.
        "arrival" => pub arrival: Option<usize> as Omitted<usize>,
    }
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
            // Cancelled terminals are rare (an attempt that saw its pool
            // shut down); Speculated is reserved and never constructed, and
            // gets a defensive mapping rather than a panic.
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

    /// A success must carry its objectives.
    fn check(&self) -> Result<(), JournalError> {
        if self.fault == FaultKind::None && self.objectives.is_none() {
            return Err(JournalError::new("successful eval entry without objectives"));
        }
        Ok(())
    }
}

/// One generation boundary: everything needed to restore the EA mid-run.
#[derive(Clone, Debug, Default)]
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

record!(GenEntry, GenEntry::default, "type" = "generation", {
    "run" => run: usize,
    "gen" => record.generation: usize,
    "failures" => record.failures: usize,
    "evaluations" => evaluations: usize,
    "std" => std: Vec<f64>,
    "rng" => rng_state: [u64; 4],
    "population" => record.population: Vec<Individual>,
    "archive" => archive: Vec<Individual>,
    "report" => report: PoolReport,
});

/// One closed steady-state epoch, journaled the moment it closes — the
/// steady-state counterpart of a [`GenEntry`], minus what a steady run has
/// no use for at a boundary (an RNG stream: every draw is keyed by arrival;
/// σ and the archive: the next snapshot carries them). Written exactly once
/// per `(run, epoch)`: a resumed driver that re-closes a journaled epoch
/// while replaying the arrival suffix skips it, as it skips journaled
/// evaluations.
#[derive(Clone, Debug, Default)]
pub struct EpochEntry {
    /// Experiment run index.
    pub run: usize,
    /// The closed epoch's record (`generation` is the epoch index).
    pub record: GenerationRecord,
    /// The epoch's slice of the continuous slot accounting.
    pub report: PoolReport,
    /// The status row published for the epoch (not derivable from the
    /// record alone — archive churn is per-arrival).
    pub status: GenStatus,
}

record!(EpochEntry, EpochEntry::default, "type" = "epoch", {
    "run" => run: usize,
    "gen" => record.generation: usize,
    "failures" => record.failures: usize,
    "population" => record.population: Vec<Individual>,
    "report" => report: PoolReport,
    "status" => status: GenStatus,
});

record! {
    /// One steady-state snapshot: the driver's live state at an epoch-window
    /// boundary, from which a resume restores it without replaying the arrivals
    /// before — O(window) instead of O(campaign). Together with the run's
    /// [`EpochEntry`] records it is self-contained: the evaluation records
    /// *before* the last snapshot are dead weight ([`compact`] drops them).
    ///
    /// Steady-state RNG needs no words here: every draw is a pure function of
    /// `(run seed, arrival index)` (DESIGN.md §12), both of which the snapshot
    /// carries. A snapshot can land mid-epoch (window boundaries are arrival
    /// counts, not epoch boundaries), hence the partial per-epoch accumulators.
    ///
    /// `history`, `epoch_reports` and `status_rows` — one element per epoch
    /// closed before the snapshot — are **not** part of the journaled record:
    /// each epoch is journaled once, as its own [`EpochEntry`], and
    /// [`Journal::load`] folds the first `arrivals / pop_size` of the run's into
    /// these fields. [`SnapshotEntry::to_json`] ignores them and
    /// [`SnapshotEntry::read`] leaves them empty.
    #[derive(Clone, Debug, Default)]
    pub struct SnapshotEntry, "type" = "snapshot" {
        /// Experiment run index.
        "run" => pub run: usize,
        /// Arrivals consumed when the snapshot was taken (also its key).
        "arrivals" => pub arrivals: usize,
        /// Submissions issued so far (arrivals + in-flight + queued).
        "submitted" => pub submitted: usize,
        /// Mutation σ at the snapshot point.
        "std" => pub std: Vec<f64>,
        /// The steady population.
        "population" => pub population: Vec<Individual>,
        /// Bred-but-not-consumed individuals, with their submission indices —
        /// the resubmission queue, in order.
        "pending" => pub pending: Vec<(usize, Individual)>,
        /// Pareto-archive members.
        "archive" => pub archive: Vec<Individual>,
        /// The slot accountant (cursors, loss/backoff tallies, epoch baseline).
        "slots" => pub slots: StreamSlotsState,
        /// Completed epoch records so far (folded in by [`Journal::load`]).
        "history" => pub history: Vec<GenerationRecord> as Inline<GenerationRecord>,
        /// Completed epochs' scheduler reports (folded in by [`Journal::load`]).
        "epoch_reports" => pub epoch_reports: Vec<PoolReport> as Inline<PoolReport>,
        /// MAXINT failures within the current (partial) epoch.
        "epoch_failures" => pub epoch_failures: usize,
        /// Archive churn within the current epoch: `(offered, added, evicted)`.
        "epoch_churn" => pub epoch_churn: (usize, usize, usize),
        /// Simulated-clock offset of the current epoch's start, minutes.
        "epoch_sim_offset" => pub epoch_sim_offset: f64,
        /// Status rows published for completed epochs (folded in by
        /// [`Journal::load`]).
        "status_rows" => pub status_rows: Vec<GenStatus> as Inline<GenStatus>,
    }
}

// ---------------------------------------------------------------------------
// Configuration fingerprint (stale-journal rejection)
// ---------------------------------------------------------------------------

/// A stable fingerprint of everything that determines a campaign's result.
/// Stored in the journal header; resume refuses a journal whose fingerprint
/// differs from the configuration it is asked to continue.
fn config_fingerprint(config: &ExperimentConfig) -> u64 {
    let g = &config.gen_config;
    let mut fields = vec![
        ("n_runs", Json::Number(config.n_runs as f64)),
        ("pop_size", Json::Number(config.pop_size as f64)),
        ("generations", Json::Number(config.generations as f64)),
        ("train", u64::write(&config.base_train_config.config_hash())),
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
        ("noise", list::<f64>(&[LABEL_NOISE.0, LABEL_NOISE.1])),
        (
            "pool",
            Json::object(vec![
                ("n_workers", Json::Number(config.pool.n_workers as f64)),
                ("timeout", Json::Number(TIMEOUT_MINUTES)),
                ("nanny", Json::Bool(config.pool.nanny)),
                ("max_attempts", Json::Number(config.pool.max_attempts as f64)),
                ("backoff_base", Json::Number(BACKOFF_BASE_MINUTES)),
                ("backoff_factor", Json::Number(BACKOFF_FACTOR)),
            ]),
        ),
        ("fault_probability", Json::Number(config.fault_probability)),
        ("master_seed", u64::write(&config.master_seed)),
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

record! {
    /// The first record of every journal: the format version, the campaign's
    /// fingerprint and its shape.
    #[derive(Default)]
    struct Header, "type" = "header", check = Header::supported {
        "version" => version: usize,
        "config" => fingerprint: u64,
        "n_runs" => n_runs: usize,
        "pop_size" => pop_size: usize,
        "generations" => generations: usize,
        "master_seed" => master_seed: u64,
    }
}

impl Header {
    /// This build reads only format version [`JOURNAL_VERSION`].
    fn supported(&self) -> Result<(), JournalError> {
        match self.version as u64 {
            JOURNAL_VERSION => Ok(()),
            v => Err(JournalError::new(format!("version {v} != supported {JOURNAL_VERSION}"))),
        }
    }
}

fn header_json(config: &ExperimentConfig) -> Json {
    let header = Header {
        version: JOURNAL_VERSION as usize,
        fingerprint: config_fingerprint(config),
        n_runs: config.n_runs,
        pop_size: config.pop_size,
        generations: config.generations,
        master_seed: config.master_seed,
    };
    header.to_json()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends framed journal records, each handed to the operating system in
/// one `write_all` before the append returns — the "write-ahead" property:
/// once a record is appended, a crash of the driver process cannot lose it.
/// Appends are not fsynced, so a power loss can lose a suffix of the
/// journal; [`salvage`] + resume retrain what it held. What fsyncs is the
/// status and profile rewrites, [`salvage`] and [`compact`].
///
/// Appends are fallible: real I/O errors and injected [`IoFault`]s (a
/// campaign's [`FaultPlan`](crate::chaos::FaultPlan)) surface as `Err`, and the writer does
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
    /// The record being appended, rendered: its payload, and the frame
    /// around it. Kept so that an append allocates nothing once they have
    /// grown.
    payload: String,
    line: String,
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
            io: IoSite::new(None, JOURNAL_APPEND_SITE),
            payload: String::new(),
            line: String::new(),
        };
        writer.append(&header_json(config))?;
        Ok(writer)
    }

    /// Attach a fault-injection site consulted before every append.
    pub(crate) fn set_io_site(&mut self, io: IoSite) {
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
            io: IoSite::new(None, JOURNAL_APPEND_SITE),
            payload: String::new(),
            line: String::new(),
        })
    }

    /// Append one framed record, returning the byte offset it was written
    /// at. On failure (real or injected) the offset and sequence number do
    /// not advance; the file may hold a torn frame (short write) or a
    /// complete frame whose append reported failure (an injected fsync
    /// failure) — both are exactly the states [`salvage`] and the torn-tail
    /// reader tolerate.
    fn append(&mut self, record: &Json) -> Result<u64, JournalError> {
        self.payload.clear();
        record.write_compact(&mut self.payload);
        self.line.clear();
        push_frame(&mut self.line, self.seq, &self.payload);
        let line = &self.line;
        match self.io.next() {
            Some(IoFault::ShortWrite) => {
                // Half the frame reaches the file, then the write fails: a
                // torn tail with no trailing newline.
                let cut = line.len() / 2;
                let _ = self.file.write_all(&line.as_bytes()[..cut]);
                return Err(JournalError::new(format!(
                    "injected short write at journal offset {}",
                    self.offset
                )));
            }
            Some(IoFault::FsyncFail) => {
                // The frame itself reaches the file but the append reports
                // failure — a lost acknowledgement, since an append is never
                // fsynced. The record survives (the pessimistic case for
                // resume, which must replay it and still land
                // byte-identical).
                self.file
                    .write_all(line.as_bytes())
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

    /// Append a steady-state epoch-boundary record; returns its byte offset.
    pub fn append_epoch(&mut self, entry: &EpochEntry) -> Result<u64, JournalError> {
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
    /// Steady-state epochs of this run whose boundary record is already
    /// journaled ([`Journal::epochs_for`]): a resumed driver re-closing one
    /// of them appends nothing.
    pub epochs: usize,
}

// ---------------------------------------------------------------------------
// Reader: scan machinery shared by load / salvage / verify / compact
// ---------------------------------------------------------------------------

/// A decoded record, typed.
enum ScannedRecord {
    Header(Header),
    Eval(EvalEntry),
    Generation(GenEntry),
    Epoch(EpochEntry),
    Snapshot(SnapshotEntry),
}

/// One valid record with its original payload text, borrowed from the
/// file buffer (the payload is re-emitted verbatim by compaction, so
/// rewritten journals never drift through re-serialisation).
struct ScannedFrame<'a> {
    payload: &'a str,
    record: ScannedRecord,
}

/// Where a scan ended: how many valid records it yielded, the byte length
/// of the valid prefix, and the first corruption found (a torn,
/// newline-less tail is *not* corruption — it is the expected signature of
/// a crash mid-append).
struct ScanEnd {
    frames: u64,
    valid_len: u64,
    first_bad: Option<(u64, String)>,
}

/// The least text a scan hands to a thread of its own: a journal under
/// twice this is scanned on the calling thread alone. This crate's unit
/// tests lower it to 2 KiB, so that every journal they load, verify,
/// salvage or compact is read by more than one thread.
const MIN_THREAD_BYTES: usize = if cfg!(test) { 2 * 1024 } else { 256 * 1024 };

/// How many chunks a scan on more than one thread cuts per thread. Each
/// thread claims the next unread chunk until none is left, so a thread that
/// is descheduled, or a stretch of costlier records, holds the others up by
/// at most one chunk — a sixteenth of a thread's share — where one fixed
/// chunk per thread waits for the slowest.
const CHUNKS_PER_THREAD: usize = 16;

/// Scan journal text frame by frame: every valid record goes through `map`
/// and comes back in file order, chunk by chunk — the one pass under
/// [`Journal::load`], [`verify`], [`salvage`] and [`compact`], each of which
/// keeps only what it needs of a record. Every frame starts with `J2 `; a
/// file that opens with `{` is an unframed version-1 journal (bare JSONL),
/// which is refused outright rather than reported as a damaged v2 file. The
/// text is decoded by one thread per core ([`dphpo_hpc::physical_threads`]),
/// each with at least [`MIN_THREAD_BYTES`] to read, in
/// [`CHUNKS_PER_THREAD`] line-aligned chunks per thread.
fn scan_text<'a, T: Send>(
    text: &'a str,
    map: impl Fn(ScannedFrame<'a>) -> T + Sync,
) -> Result<(ScanEnd, Vec<Vec<T>>), JournalError> {
    let threads = dphpo_hpc::physical_threads(text.len() / MIN_THREAD_BYTES);
    let chunks = if threads == 1 { 1 } else { threads * CHUNKS_PER_THREAD };
    scan_chunks(text, threads, chunks, map)
}

/// [`scan_text`] over exactly `chunks` chunks ([`chunk_starts`]), read by
/// the calling thread and `threads - 1` scoped ones. Each thread claims the
/// next unread chunk until none is left, so the work spreads by how fast
/// each thread actually goes, and scans it with [`scan_chunk`]. The merge
/// walks the chunks in file order and stops at the first that did not end
/// clean, so frames, the valid prefix, the first corruption and the mapped
/// records are those of one sequential pass.
fn scan_chunks<'a, T: Send>(
    text: &'a str,
    threads: usize,
    chunks: usize,
    map: impl Fn(ScannedFrame<'a>) -> T + Sync,
) -> Result<(ScanEnd, Vec<Vec<T>>), JournalError> {
    if text.starts_with('{') {
        return Err(JournalError::new(format!(
            "unframed (version 1) journal: this build reads only format version \
             {JOURNAL_VERSION}"
        )));
    }
    let starts = chunk_starts(text, chunks.max(1));
    let chunk = |k: usize| &text[starts[k]..starts[k + 1]];
    // The counter only hands out chunk indices (`Relaxed`); what a thread
    // scanned comes back through its join.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut scanned = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k + 1 >= starts.len() {
                return scanned;
            }
            // Numbered from the sequence number its first line claims: the
            // merge rescans a chunk whose claim is not its true position.
            let base = chunk(k).get(3..11).and_then(|seq| u64::from_str_radix(seq, 16).ok());
            let base = base.unwrap_or(0);
            scanned.push((k, base, scan_chunk(chunk(k), base, &map)));
        }
    };
    let mut scanned = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut scanned = claim();
        for other in others {
            scanned.extend(other.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        scanned
    });
    scanned.sort_unstable_by_key(|&(k, ..)| k);
    let mut end = ScanEnd { frames: 0, valid_len: 0, first_bad: None };
    let mut mapped = Vec::with_capacity(scanned.len());
    for (k, base, (mut part, mut records)) in scanned {
        if base != end.frames {
            // Its first line is not frame `end.frames`, so a sequential pass
            // stops on that line: scanning it again with the true number
            // reports that, as that pass would.
            (part, records) = scan_chunk(chunk(k), end.frames, &map);
        }
        if let Some((offset, message)) = part.first_bad {
            end.first_bad = Some((end.valid_len + offset, message));
        }
        end.frames += part.frames;
        end.valid_len += part.valid_len;
        mapped.push(records);
        if part.valid_len < chunk(k).len() as u64 {
            // A bad line or the torn tail ended this chunk, so it ends the
            // scan: whatever later chunks decoded is not in the valid prefix.
            break;
        }
    }
    Ok((end, mapped))
}

/// Where each of `n` chunks of `text` starts, plus the end: chunk `k`
/// starts on the byte after the first `\n` at or past `k · len / n`, so
/// every chunk is whole lines (some may be empty).
fn chunk_starts(text: &str, n: usize) -> Vec<usize> {
    let mut starts = vec![0];
    for k in 1..n {
        let mut from = (k * text.len() / n).max(starts[k - 1]);
        // No `\n` sits inside a multi-byte character.
        while !text.is_char_boundary(from) {
            from += 1;
        }
        let newline = text[from..].find('\n');
        starts.push(newline.map_or(text.len(), |i| from + i + 1));
    }
    starts.push(text.len());
    starts
}

/// One chunk of [`scan_chunks`]: frames numbered from `base`, stopping at
/// the first bad or torn line, with the valid length and a bad line's
/// offset counted from the chunk's start.
fn scan_chunk<'a, T>(
    text: &'a str,
    base: u64,
    map: &impl Fn(ScannedFrame<'a>) -> T,
) -> (ScanEnd, Vec<T>) {
    let mut end = ScanEnd { frames: 0, valid_len: 0, first_bad: None };
    let mut mapped = Vec::new();
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            // Torn tail: the frame was never written whole. Tolerated.
            break;
        };
        let seq = base + end.frames;
        let parsed = parse_frame(body, seq).and_then(|payload| {
            typed_record(payload, seq == 0).map(|record| ScannedFrame { payload, record })
        });
        match parsed {
            Ok(frame) => {
                mapped.push(map(frame));
                end.frames += 1;
                end.valid_len += line.len() as u64;
            }
            Err(e) => {
                // A *terminated* bad frame is corruption, wherever it is:
                // the writer never terminates a frame it did not complete.
                end.first_bad = Some((end.valid_len, e.message));
                break;
            }
        }
    }
    (end, mapped)
}

/// Decode and type-check one record payload, every byte of it. The header
/// must be the first record and nothing else may be; a syntax or semantic
/// failure anywhere in the payload is corruption of its frame.
fn typed_record(payload: &str, first: bool) -> Result<ScannedRecord, JournalError> {
    let mut r = Reader::new(payload);
    let record = match &*record_type(payload)? {
        "header" if first => ScannedRecord::Header(Header::read(&mut r)?),
        "header" => return Err(JournalError::new("header record after the first frame")),
        "eval" => ScannedRecord::Eval(EvalEntry::read(&mut r)?),
        "generation" => ScannedRecord::Generation(GenEntry::read(&mut r)?),
        "epoch" => ScannedRecord::Epoch(EpochEntry::read(&mut r)?),
        "snapshot" => ScannedRecord::Snapshot(SnapshotEntry::read(&mut r)?),
        other => return Err(JournalError::new(format!("unknown record type '{other}'"))),
    };
    r.end()?;
    Ok(record)
}

/// Which decoder a payload needs. The writer sorts keys, which puts `type`
/// last in every record but the header, so the payload's tail names it
/// without a pass over the body: text ending `,"type":"eval"}` is either
/// not a JSON object — which the decoder will find — or an object whose last
/// member is that one (the comma rules out an escaped quote in front, and
/// each decoder checks the member when it reaches it). Any other shape —
/// the header, a foreign key order — pays one syntax-checking pass to find
/// its `type`.
fn record_type(payload: &str) -> Result<std::borrow::Cow<'_, str>, JournalError> {
    const TAILS: [(&str, &str); 4] = [
        ("eval", ",\"type\":\"eval\"}"),
        ("generation", ",\"type\":\"generation\"}"),
        ("epoch", ",\"type\":\"epoch\"}"),
        ("snapshot", ",\"type\":\"snapshot\"}"),
    ];
    if let Some((kind, _)) = TAILS.iter().find(|(_, tail)| payload.ends_with(tail)) {
        return Ok((*kind).into());
    }
    let mut r = Reader::new(payload);
    let mut kind = None;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        if key == "type" && r.peek() == Some(b'"') {
            kind = Some(r.str()?);
        } else {
            r.skip()?;
        }
    }
    kind.ok_or_else(|| JournalError::new("record without a 'type'"))
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
/// [`salvage`] or [`compact`] quarantines it).
#[derive(Debug)]
pub struct Journal {
    /// Configuration fingerprint from the header.
    pub config_fingerprint: u64,
    /// Independent EA runs the campaign was configured for (header).
    pub n_runs: usize,
    /// Population size (header).
    pub pop_size: usize,
    /// EA steps after generation 0 (the header's `generations`): a finished
    /// run has `n_generations + 1` boundary records.
    pub n_generations: usize,
    /// Completed evaluations keyed `(run, generation, slot)`.
    pub evals: HashMap<(usize, usize, usize), EvalEntry>,
    /// Generation boundaries keyed `(run, generation)`.
    pub generations: BTreeMap<(usize, usize), GenEntry>,
    /// Steady-state epoch boundaries keyed `(run, epoch)`.
    pub epochs: BTreeMap<(usize, usize), EpochEntry>,
    /// Steady-state snapshots keyed `(run, arrivals)`. A run's last one
    /// ([`Journal::last_snapshot_for`]) carries the cumulative `history` /
    /// `epoch_reports` / `status_rows` of the epochs closed before it,
    /// folded in from `epochs`; earlier ones carry live state only.
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
                "{}: invalid UTF-8 at byte {offset} — run `fig1 --compact` to salvage it",
                path.display()
            )));
        }
        let text = std::str::from_utf8(&bytes).expect("checked above");
        let (end, records) = scan_text(text, |frame| frame.record)?;
        let (mut header, mut evals, mut generations) = (None, HashMap::new(), BTreeMap::new());
        let (mut epochs, mut snapshots) = (BTreeMap::new(), BTreeMap::new());
        for record in records.into_iter().flatten() {
            match record {
                ScannedRecord::Header(record) => header = Some(record),
                ScannedRecord::Eval(entry) => {
                    evals.insert((entry.run, entry.gen, entry.slot), entry);
                }
                ScannedRecord::Generation(entry) => {
                    generations.insert((entry.run, entry.record.generation), entry);
                }
                ScannedRecord::Epoch(entry) => {
                    epochs.insert((entry.run, entry.record.generation), entry);
                }
                ScannedRecord::Snapshot(entry) => {
                    snapshots.insert((entry.run, entry.arrivals), entry);
                }
            }
        }
        if let Some((offset, reason)) = &end.first_bad {
            return Err(JournalError::new(format!(
                "{}: corrupt record at byte {offset}: {reason} — run `fig1 --compact` to \
                 salvage it",
                path.display()
            )));
        }
        let header = header.ok_or_else(|| JournalError::new("journal has no header record"))?;
        // Fold: a snapshot taken after `arrivals` arrivals stands on the
        // `arrivals / pop_size` epochs closed before it, each journaled once
        // as its own record (always ahead of the snapshot in the file).
        // Every snapshot must find them; only a run's last snapshot, the
        // one resume restores, gets them folded in.
        let mut in_order = snapshots.iter_mut().peekable();
        while let Some((&(run, arrivals), snapshot)) = in_order.next() {
            let closed = arrivals.checked_div(header.pop_size).ok_or_else(|| {
                JournalError::new("snapshot in a journal whose header says pop_size 0")
            })?;
            let stands_on = (0..closed)
                .map(|epoch| {
                    epochs.get(&(run, epoch)).ok_or_else(|| {
                        JournalError::new(format!(
                            "{}: the snapshot of run {run} at {arrivals} arrivals stands on \
                             {closed} closed epochs, but the journal has no boundary record for \
                             (run {run}, epoch {epoch})",
                            path.display()
                        ))
                    })
                })
                .collect::<Result<Vec<&EpochEntry>, _>>()?;
            if in_order.peek().is_some_and(|(&(next, _), _)| next == run) {
                continue;
            }
            snapshot.history = stands_on.iter().map(|e| e.record.clone()).collect();
            snapshot.epoch_reports = stands_on.iter().map(|e| e.report.clone()).collect();
            snapshot.status_rows = stands_on.iter().map(|e| e.status.clone()).collect();
        }
        Ok(Journal {
            config_fingerprint: header.fingerprint,
            n_runs: header.n_runs,
            pop_size: header.pop_size,
            n_generations: header.generations,
            evals,
            generations,
            epochs,
            snapshots,
            valid_len: end.valid_len,
            frames: end.frames,
        })
    }

    /// The latest journaled snapshot of one run, if any.
    pub fn last_snapshot_for(&self, run: usize) -> Option<&SnapshotEntry> {
        self.snapshots.range((run, 0)..=(run, usize::MAX)).next_back().map(|(_, s)| s)
    }

    /// How many of one run's steady-state epochs are journaled, counting
    /// from epoch 0 without a gap.
    pub fn epochs_for(&self, run: usize) -> usize {
        (0..).take_while(|&epoch| self.epochs.contains_key(&(run, epoch))).count()
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
    /// `(generation, slot)`. Steady-state evaluations that arrived before
    /// `since_arrival` — the restored snapshot's — are left out.
    pub fn replay_for(
        &self,
        run: usize,
        since_arrival: usize,
    ) -> HashMap<(usize, usize), EvalEntry> {
        self.evals
            .values()
            .filter(|e| e.run == run && e.arrival.is_none_or(|a| a >= since_arrival))
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

    /// Every run of a *finished* campaign, rebuilt from its boundary records
    /// alone — what [`crate::experiment::ExperimentResult::runs`] held when
    /// the campaign ended, bit for bit (infinite crowding distances
    /// included). Generational runs come from their `generation` records,
    /// steady-state runs from their `epoch` records; how many runs and how
    /// many boundaries a finished run has come from the header, so no
    /// [`ExperimentConfig`] is needed and none is checked: the fingerprint
    /// covers the worker count, which changes nothing a boundary holds.
    /// A run that stops short is an error naming the first missing
    /// `(run, generation)`.
    pub fn run_results(&self) -> Result<Vec<RunResult>, JournalError> {
        (0..self.n_runs)
            .map(|run| {
                let boundaries = self.boundaries_for(run)?;
                let (history, evaluations): (Vec<GenerationRecord>, usize) =
                    match boundaries.last() {
                        Some(last) => (
                            boundaries.iter().map(|b| b.record.clone()).collect(),
                            last.evaluations,
                        ),
                        None => (
                            (0..self.epochs_for(run))
                                .map(|epoch| self.epochs[&(run, epoch)].record.clone())
                                .collect(),
                            self.pop_size * (self.n_generations + 1),
                        ),
                    };
                if history.len() <= self.n_generations {
                    return Err(JournalError::new(format!(
                        "unfinished campaign: no boundary record for (run {run}, generation \
                         {}) — a finished run has {}",
                        history.len(),
                        self.n_generations + 1
                    )));
                }
                Ok(RunResult { history, evaluations })
            })
            .collect()
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
    let (scan, _) = scan_text(text, drop)?;
    quarantine_tail(path, &bytes, &scan, utf8_bad)
}

/// [`salvage`]'s repair, given the file's bytes and their scan: append
/// every byte after the valid prefix to `<journal>.quarantine` (an earlier
/// salvage's bytes stay in front of them), make that durable — file, then
/// directory — and only then truncate the journal there.
fn quarantine_tail(
    path: &Path,
    bytes: &[u8],
    scan: &ScanEnd,
    utf8_bad: Option<u64>,
) -> Result<SalvageReport, JournalError> {
    let quarantine_path = PathBuf::from(format!("{}.quarantine", path.display()));
    let quarantined = &bytes[scan.valid_len as usize..];
    if !quarantined.is_empty() {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&quarantine_path)
            .and_then(|mut q| q.write_all(quarantined).and_then(|()| q.sync_all()))
            .and_then(|()| sync_parent_dir(&quarantine_path))
            .map_err(|e| {
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
        frames_kept: scan.frames,
        valid_len: scan.valid_len,
        quarantined_bytes: quarantined.len() as u64,
        first_bad_offset: scan.first_bad.as_ref().map(|&(offset, _)| offset).or(utf8_bad),
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
    /// Boundary records among them: generational `generation` records and
    /// steady-state `epoch` records.
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
    // All verify keeps of a record is its kind (and a snapshot's key).
    enum Kind {
        Header,
        Eval,
        Boundary,
        Snapshot(usize, usize),
    }
    let (scan, kinds) = scan_text(text, |frame| match frame.record {
        ScannedRecord::Header(_) => Kind::Header,
        ScannedRecord::Eval(_) => Kind::Eval,
        ScannedRecord::Generation(_) | ScannedRecord::Epoch(_) => Kind::Boundary,
        ScannedRecord::Snapshot(s) => Kind::Snapshot(s.run, s.arrivals),
    })?;
    let (mut evals, mut generations, mut snapshots, mut last_snapshot) = (0, 0, 0, None);
    for kind in kinds.into_iter().flatten() {
        match kind {
            Kind::Header => {}
            Kind::Eval => evals += 1,
            Kind::Boundary => generations += 1,
            Kind::Snapshot(run, arrivals) => {
                snapshots += 1;
                last_snapshot = Some((run, arrivals));
            }
        }
    }
    Ok(VerifyReport {
        frames: scan.frames,
        evals,
        generations,
        snapshots,
        last_snapshot,
        valid_len: scan.valid_len,
        total_len: bytes.len() as u64,
        first_corrupt_offset: scan.first_bad.map(|(offset, _)| offset).or(utf8_bad),
    })
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
    /// The salvage that ran first (nothing quarantined on a clean file).
    pub salvage: SalvageReport,
}

/// Rewrite a journal down to what resume actually replays, atomically
/// (temp file + rename). Every boundary record is kept, in order — resume
/// needs the full history in either mode: generational `generation` records
/// (each doubles as that mode's snapshot), steady-state `epoch` records (the
/// last snapshot's history is folded from them). After them come, per run,
/// the evaluations no boundary covers yet: generational, those after the
/// last boundary; steady-state, the last snapshot and the arrival suffix at
/// or after it. Original payload bytes are re-emitted verbatim under fresh
/// frame sequence numbers, so nothing drifts through re-serialisation.
/// A damaged file is salvaged first, from the same scan: everything after
/// its valid prefix goes to `<journal>.quarantine` exactly as [`salvage`]
/// moves it, and the prefix is compacted.
pub fn compact(path: &Path) -> Result<CompactReport, JournalError> {
    let (bytes, text_len, utf8_bad) = read_text_prefix(path)?;
    let text = std::str::from_utf8(&bytes[..text_len]).expect("prefix is valid UTF-8");
    // All compaction needs of a record is its kind and ordering keys; the
    // decoded record itself is dropped as soon as the scan has checked it.
    enum Key {
        Header,
        Eval { run: usize, gen: usize, slot: usize, arrival: Option<usize> },
        /// A `generation` or an `epoch` record.
        Boundary { run: usize, index: usize },
        Snapshot { run: usize, arrivals: usize },
    }
    let (scan, chunks) = scan_text(text, |frame| {
        let key = match &frame.record {
            ScannedRecord::Header(_) => Key::Header,
            ScannedRecord::Eval(e) => {
                Key::Eval { run: e.run, gen: e.gen, slot: e.slot, arrival: e.arrival }
            }
            ScannedRecord::Generation(g) => {
                Key::Boundary { run: g.run, index: g.record.generation }
            }
            ScannedRecord::Epoch(e) => Key::Boundary { run: e.run, index: e.record.generation },
            ScannedRecord::Snapshot(s) => Key::Snapshot { run: s.run, arrivals: s.arrivals },
        };
        (key, frame.payload)
    })?;
    let frames: Vec<(Key, &str)> = chunks.into_iter().flatten().collect();
    let salvage = quarantine_tail(path, &bytes, &scan, utf8_bad)?;
    let header = match frames.first() {
        Some((Key::Header, payload)) => *payload,
        _ => return Err(JournalError::new("journal has no header record")),
    };

    // Steady-state journals are recognisable by their records alone:
    // snapshots, or evals carrying an arrival index.
    let steady = frames.iter().any(|(key, _)| {
        matches!(key, Key::Snapshot { .. } | Key::Eval { arrival: Some(_), .. })
    });

    let mut runs: Vec<usize> = frames
        .iter()
        .filter_map(|(key, _)| match key {
            Key::Eval { run, .. } | Key::Boundary { run, .. } | Key::Snapshot { run, .. } => {
                Some(*run)
            }
            Key::Header => None,
        })
        .collect();
    runs.sort_unstable();
    runs.dedup();

    let mut kept: Vec<&str> = vec![header];
    for &run in &runs {
        // Every boundary, in order (resume reconstructs the full history
        // from them and checks it is contiguous).
        let mut boundaries: Vec<(usize, &str)> = frames
            .iter()
            .filter_map(|(key, payload)| match key {
                Key::Boundary { run: r, index } if *r == run => Some((*index, *payload)),
                _ => None,
            })
            .collect();
        boundaries.sort_by_key(|&(index, _)| index);
        kept.extend(boundaries.iter().map(|&(_, payload)| payload));
        if steady {
            // Last snapshot (file order == arrivals order), then the
            // arrival suffix at or after it.
            let snapshot = frames.iter().rev().find_map(|(key, payload)| match key {
                Key::Snapshot { run: r, arrivals } if *r == run => Some((*arrivals, *payload)),
                _ => None,
            });
            let horizon = snapshot.map_or(0, |(arrivals, _)| arrivals);
            kept.extend(snapshot.map(|(_, payload)| payload));
            let mut evals: Vec<(usize, &str)> = frames
                .iter()
                .filter_map(|(key, payload)| match key {
                    Key::Eval { run: r, arrival, .. } if *r == run => {
                        let arrival = arrival.unwrap_or(0);
                        (arrival >= horizon).then_some((arrival, *payload))
                    }
                    _ => None,
                })
                .collect();
            evals.sort_by_key(|&(arrival, _)| arrival);
            kept.extend(evals.into_iter().map(|(_, payload)| payload));
        } else {
            // The evaluations of the unfinished generation.
            let horizon = boundaries.last().map_or(0, |&(generation, _)| generation + 1);
            let mut evals: Vec<((usize, usize), &str)> = frames
                .iter()
                .filter_map(|(key, payload)| match key {
                    Key::Eval { run: r, gen, slot, .. }
                        if *r == run && (*gen >= horizon || boundaries.is_empty()) =>
                    {
                        Some(((*gen, *slot), *payload))
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
        push_frame(&mut content, seq as u64, payload);
    }
    write_atomic(path, &content)
        .map_err(|e| JournalError::new(format!("cannot install compacted journal: {e}")))?;
    Ok(CompactReport {
        frames_before: scan.frames,
        frames_after: kept.len() as u64,
        bytes_before: bytes.len() as u64,
        bytes_after: content.len() as u64,
        salvage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphpo_hpc::{SlotTally, TaskCounts};

    /// Decode what `json` renders to the way the scan does: through text.
    fn reread<T>(
        json: &Json,
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, JournalError>,
    ) -> Result<T, JournalError> {
        let text = json.to_compact();
        let mut r = Reader::new(&text);
        let value = read(&mut r)?;
        r.end()?;
        Ok(value)
    }

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
        let back = reread(&j, read_individual).unwrap();
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
        let back = reread(&individual_to_json(&ind), read_individual).unwrap();
        assert!(back.fitness.is_none());
        assert_eq!(back.rank, usize::MAX);
        assert_eq!(back.eval_minutes, None);
    }

    #[test]
    fn maxint_penalty_round_trips_exactly() {
        let f = Fitness::penalty(2);
        let back = reread(&fitness_to_json(&f), read_fitness).unwrap();
        assert!(back.is_penalty());
        assert_eq!(back, f);
    }

    #[test]
    fn rng_state_round_trips_and_rejects_zero() {
        let state = [0x1234_5678_9abc_def0u64, 42, u64::MAX, 7];
        let back = reread(&rng_state_to_json(state), read_rng_state).unwrap();
        assert_eq!(back, state);
        assert!(reread(&rng_state_to_json([1, 2, 3, 4]), read_rng_state).is_ok());
        let zero = rng_state_to_json([0; 4]);
        assert!(reread(&zero, read_rng_state).is_err());
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
        let back = reread(&j, EvalEntry::read).unwrap();
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
        assert!(reread(&entry.to_json(), EvalEntry::read).is_ok());
        entry.fault = FaultKind::None;
        assert!(reread(&entry.to_json(), EvalEntry::read).is_err());
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

    /// The byte-at-a-time CRC-32: the oracle for the sliced [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buffer: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
            let slice = &buffer[start..start + (1 << 20)];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "1 MiB at {start}");
        }
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
        use crate::chaos::FaultPlan;
        let site = |fault| {
            IoSite::new(Some(&FaultPlan::new(3).script(JOURNAL_APPEND_SITE, 0, fault)), JOURNAL_APPEND_SITE)
        };
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
            writer.set_io_site(site(IoFault::ShortWrite));
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
            writer.set_io_site(site(fault));
            assert!(writer.append_eval(&entry).is_err());
            drop(writer);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
            assert_eq!(Journal::load(&path).unwrap().frames, 1);
        }

        // FsyncFail: the frame lands whole (the pessimistic durable case)
        // but the append still errors.
        let path = dir.join("fsync.jsonl");
        let mut writer = JournalWriter::create(&path, &config).unwrap();
        writer.set_io_site(site(IoFault::FsyncFail));
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

    fn sample_snapshot() -> SnapshotEntry {
        SnapshotEntry {
            run: 1,
            arrivals: 8,
            submitted: 11,
            std: vec![0.1, 0.2, 0.3],
            population: vec![evaluated(vec![1.0, 2.0], vec![0.01, 0.2])],
            pending: vec![(9, Individual::new(vec![3.0, 4.0]))],
            archive: vec![evaluated(vec![5.0, 6.0], vec![0.02, 0.1])],
            slots: StreamSlotsState {
                now: SlotTally {
                    busy: vec![10.0, 12.5],
                    lost: vec![0.0, 1.5],
                    backoff: vec![0.5, 0.0],
                    counts: TaskCounts { deaths: 1, retried: 1, timeout: 1, ..TaskCounts::default() },
                },
                baseline: SlotTally {
                    busy: vec![5.0, 6.0],
                    lost: vec![0.0, 0.0],
                    backoff: vec![0.0, 0.0],
                    counts: TaskCounts { timeout: 1, ..TaskCounts::default() },
                },
            },
            history: Vec::new(),
            epoch_reports: Vec::new(),
            epoch_failures: 2,
            epoch_churn: (5, 3, 1),
            epoch_sim_offset: 123.5,
            status_rows: Vec::new(),
        }
    }

    fn sample_epoch(run: usize, epoch: usize) -> EpochEntry {
        EpochEntry {
            run,
            record: GenerationRecord {
                generation: epoch,
                failures: 1,
                population: vec![evaluated(vec![1.0, 2.0], vec![0.01, 0.2])],
            },
            report: PoolReport {
                makespan_minutes: 70.0,
                per_worker_minutes: vec![70.0, 35.0],
                worker_deaths: 4,
                busy_minutes: vec![70.0, 35.0],
                idle_minutes: vec![0.0, 35.0],
                lost_death_minutes: vec![0.0, 0.0],
                backoff_slot_minutes: vec![0.0, 0.0],
                wall_minutes: 70.0,
                ..PoolReport::default()
            },
            status: GenStatus {
                generation: epoch,
                evaluations: 4,
                hypervolume: 0.005,
                ..GenStatus::default()
            },
        }
    }

    #[test]
    fn snapshot_and_epoch_entries_round_trip_through_json() {
        let snapshot = sample_snapshot();
        let j = snapshot.to_json();
        let back = reread(&j, SnapshotEntry::read).unwrap();
        assert_eq!(back.run, snapshot.run);
        assert_eq!(back.arrivals, snapshot.arrivals);
        assert_eq!(back.submitted, snapshot.submitted);
        assert_eq!(back.std, snapshot.std);
        assert_eq!(back.pending.len(), 1);
        assert_eq!(back.pending[0].0, 9);
        assert_eq!(back.pending[0].1.genome, vec![3.0, 4.0]);
        assert_eq!(back.slots, snapshot.slots);
        assert_eq!(back.epoch_churn, (5, 3, 1));
        assert_eq!(back.epoch_sim_offset, 123.5);
        // Serialize → parse → serialize is a fixed point.
        assert_eq!(back.to_json().to_compact(), j.to_compact());

        // What a snapshot knows of closed epochs is folded in by `load`,
        // never journaled in it.
        let folded = SnapshotEntry {
            history: vec![sample_epoch(1, 0).record],
            epoch_reports: vec![sample_epoch(1, 0).report],
            status_rows: vec![sample_epoch(1, 0).status],
            ..snapshot.clone()
        };
        assert_eq!(folded.to_json().to_compact(), j.to_compact());

        let epoch = sample_epoch(1, 3);
        let j = epoch.to_json();
        let back = reread(&j, EpochEntry::read).unwrap();
        assert_eq!((back.run, back.record.generation, back.record.failures), (1, 3, 1));
        assert_eq!(back.record.population.len(), 1);
        assert_eq!(back.report.busy_minutes, epoch.report.busy_minutes);
        assert_eq!(back.status, epoch.status);
        assert_eq!(back.to_json().to_compact(), j.to_compact());
    }

    /// A steady journal under the smoke header (population 4), run 0: the
    /// listed records in order.
    fn write_steady(path: &Path, records: &[ScannedRecord]) {
        let mut writer = JournalWriter::create(path, &ExperimentConfig::smoke()).unwrap();
        for record in records {
            match record {
                ScannedRecord::Eval(e) => writer.append_eval(e),
                ScannedRecord::Epoch(e) => writer.append_epoch(e),
                ScannedRecord::Snapshot(s) => writer.append_snapshot(s),
                _ => unreachable!("steady journals hold evals, epochs and snapshots"),
            }
            .unwrap();
        }
    }

    fn steady_eval(arrival: usize) -> ScannedRecord {
        ScannedRecord::Eval(EvalEntry { slot: arrival, arrival: Some(arrival), ..sample_eval() })
    }

    fn snapshot_at(arrivals: usize) -> ScannedRecord {
        ScannedRecord::Snapshot(SnapshotEntry { run: 0, arrivals, ..sample_snapshot() })
    }

    #[test]
    fn load_folds_epoch_records_into_snapshots_and_names_a_missing_one() {
        let dir = std::env::temp_dir().join(format!("dphpo-journal-fold-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("fold.jsonl");
        let epoch = |e| ScannedRecord::Epoch(sample_epoch(0, e));
        // Snapshots at an epoch boundary, mid-epoch, and before any epoch
        // closed; epoch 2 is journaled after the last snapshot.
        let mut records = vec![steady_eval(0), snapshot_at(1)];
        records.extend((1..4).map(steady_eval));
        records.extend([epoch(0), snapshot_at(4)]);
        records.extend((4..8).map(steady_eval));
        records.extend([epoch(1), steady_eval(8), snapshot_at(9)]);
        records.extend((9..12).map(steady_eval));
        records.push(epoch(2));
        // Every snapshot is folded when it is the last: load the journal
        // that ends on it.
        for (arrivals, closed) in [(1, 0), (4, 1), (9, 2)] {
            let at = records
                .iter()
                .position(|r| matches!(r, ScannedRecord::Snapshot(s) if s.arrivals == arrivals))
                .unwrap();
            write_steady(&path, &records[..=at]);
            let journal = Journal::load(&path).unwrap();
            let snapshot = journal.last_snapshot_for(0).unwrap();
            assert_eq!(snapshot.arrivals, arrivals);
            let epochs: Vec<usize> = snapshot.history.iter().map(|r| r.generation).collect();
            assert_eq!(epochs, (0..closed).collect::<Vec<_>>(), "snapshot at {arrivals}");
            assert_eq!(snapshot.epoch_reports.len(), closed);
            let rows: Vec<usize> = snapshot.status_rows.iter().map(|r| r.generation).collect();
            assert_eq!(rows, epochs);
        }
        write_steady(&path, &records);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.epochs.len(), 3);
        assert_eq!(journal.epochs_for(0), 3);
        assert_eq!(journal.epochs_for(1), 0);
        // The last snapshot stands on two closed epochs, not on the third
        // journaled after it; the earlier ones carry live state only.
        assert_eq!(journal.last_snapshot_for(0).unwrap().history.len(), 2);
        for arrivals in [1, 4] {
            let snapshot = &journal.snapshots[&(0, arrivals)];
            assert!(snapshot.history.is_empty(), "snapshot at {arrivals}");
            assert!(snapshot.epoch_reports.is_empty() && snapshot.status_rows.is_empty());
        }
        let report = verify(&path).unwrap();
        assert_eq!((report.evals, report.generations, report.snapshots), (12, 3, 3));
        assert_eq!(report.frames, 1 + 12 + 3 + 3);

        // A snapshot standing on an epoch the journal never recorded: every
        // frame is intact, so this is `load`'s to refuse — by name.
        write_steady(&path, &[epoch(0), snapshot_at(8)]);
        assert!(!verify(&path).unwrap().damaged());
        let err = Journal::load(&path).unwrap_err();
        assert!(err.message.contains("(run 0, epoch 1)"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What one scan in `chunks` chunks on `threads` threads reports:
    /// frames, valid length, the first corruption, and every valid payload in
    /// the order `map` got them.
    type Scanned<'a> = (u64, u64, Option<(u64, String)>, Vec<&'a str>);

    fn scan_in(text: &str, threads: usize, chunks: usize) -> Scanned<'_> {
        let (end, payloads) = scan_chunks(text, threads, chunks, |frame| frame.payload).unwrap();
        (end.frames, end.valid_len, end.first_bad, payloads.concat())
    }

    /// Scanning `bytes` (their UTF-8 prefix, as the readers do) in 2..=8
    /// chunks, on one thread or on three, reports exactly what one
    /// sequential pass does, and `load`, `verify`, `salvage` and `compact` —
    /// which split it by the plan — agree with that pass on the frames, the
    /// valid prefix and where the damage is.
    fn assert_chunking_is_invisible(tag: &str, bytes: &[u8], path: &Path) {
        let text_len = std::str::from_utf8(bytes).map_or_else(|e| e.valid_up_to(), |t| t.len());
        let utf8_bad = (text_len < bytes.len()).then_some(text_len as u64);
        let text = std::str::from_utf8(&bytes[..text_len]).unwrap();
        let sequential = scan_in(text, 1, 1);
        for chunks in 2..=8 {
            for threads in [1, 3] {
                let scanned = scan_in(text, threads, chunks);
                assert!(scanned == sequential, "{tag}: {chunks} chunks on {threads} != 1");
            }
        }
        let (frames, valid_len, first_bad, _) = &sequential;
        let first_bad_offset = first_bad.as_ref().map(|(offset, _)| *offset);
        std::fs::write(path, bytes).unwrap();
        let report = verify(path).unwrap();
        assert_eq!(
            (report.frames, report.valid_len, report.first_corrupt_offset),
            (*frames, *valid_len, first_bad_offset.or(utf8_bad)),
            "{tag}: verify"
        );
        match Journal::load(path) {
            Ok(journal) => {
                assert!(first_bad.is_none() && utf8_bad.is_none(), "{tag}: load took damage");
                assert_eq!((journal.frames, journal.valid_len), (*frames, *valid_len), "{tag}");
            }
            Err(e) => {
                let expected = match (first_bad, utf8_bad) {
                    (_, Some(offset)) => format!("invalid UTF-8 at byte {offset}"),
                    (Some((offset, message)), None) => {
                        format!("corrupt record at byte {offset}: {message}")
                    }
                    (None, None) => "journal has no header record".to_string(),
                };
                assert!(e.message.contains(&expected), "{tag}: load said {e}, not {expected}");
            }
        }
        let quarantine = PathBuf::from(format!("{}.quarantine", path.display()));
        let _ = std::fs::remove_file(&quarantine);
        let salvaged = salvage(path).unwrap();
        assert_eq!((salvaged.frames_kept, salvaged.valid_len), (*frames, *valid_len), "{tag}");
        std::fs::write(path, bytes).unwrap();
        match compact(path) {
            Ok(compacted) => assert_eq!(compacted.frames_before, *frames, "{tag}: compact"),
            Err(e) => assert!(*frames == 0, "{tag}: compact of {frames} frames failed: {e}"),
        }
        let _ = std::fs::remove_file(&quarantine);
    }

    /// Damage that lands on the first line of chunk `k` of `n`.
    fn damage_chunk_start(bytes: &[u8], n: usize, k: usize) -> Vec<(String, Vec<u8>)> {
        let text = std::str::from_utf8(bytes).unwrap();
        let starts = chunk_starts(text, n);
        let (start, header_end) = (starts[k], bytes.iter().position(|&b| b == b'\n').unwrap());
        let line_end = start + bytes[start..].iter().position(|&b| b == b'\n').unwrap();
        let seq = text[..start].matches('\n').count() as u64;
        let payload = parse_frame(&text[start..line_end], seq).unwrap();
        let header = parse_frame(&text[..header_end], 0).unwrap();
        let splice = |line: String| {
            [&bytes[..start], line.as_bytes(), &bytes[line_end + 1..]].concat()
        };
        let mut bad_prefix = bytes.to_vec();
        bad_prefix[start + 1] = b'3';
        // The newline that ends chunk k - 1 goes, so the two lines around
        // the old boundary become one corrupt line.
        let mut joined = bytes.to_vec();
        joined[start - 1] = b' ';
        vec![
            (format!("{n}/{k} wrong seq"), splice(frame_line(seq + 1, payload))),
            (format!("{n}/{k} bad prefix"), bad_prefix),
            (format!("{n}/{k} header again"), splice(frame_line(seq, header))),
            (format!("{n}/{k} lost newline"), joined),
        ]
    }

    /// Seeded damage anywhere: a bit flip and a truncation per draw.
    fn damage_seeded(bytes: &[u8], seed: u64, draws: usize) -> Vec<(String, Vec<u8>)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out = Vec::new();
        for _ in 0..draws {
            let (at, bit) = ((next() % bytes.len() as u64) as usize, next() % 8);
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            out.push((format!("flip bit {bit} at {at}"), flipped));
            let cut = (next() % bytes.len() as u64) as usize;
            out.push((format!("cut at {cut}"), bytes[..cut].to_vec()));
        }
        out
    }

    #[test]
    fn chunked_scan_equals_the_sequential_scan() {
        let dir = std::env::temp_dir().join(format!("dphpo-journal-chunks-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("chunks.jsonl");
        // A synthetic steady journal: an epoch record and a snapshot after
        // every fourth arrival.
        let mut records = Vec::new();
        for arrival in 0..24 {
            records.push(steady_eval(arrival));
            if arrival % 4 == 3 {
                records.push(ScannedRecord::Epoch(sample_epoch(0, arrival / 4)));
                records.push(snapshot_at(arrival + 1));
            }
        }
        write_steady(&path, &records);
        let steady = std::fs::read(&path).unwrap();
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let checked_in: Vec<(&str, Vec<u8>)> =
            ["experiment.journal.jsonl", "steady_experiment.journal.jsonl"]
                .into_iter()
                .map(|name| (name, std::fs::read(results.join(name)).expect("checked-in journal")))
                .collect();

        for (name, bytes) in checked_in.iter().map(|(n, b)| (*n, b)).chain([("steady", &steady)]) {
            let small = bytes.len() < 100_000;
            assert_chunking_is_invisible(name, bytes, &path);
            let mut damaged = damage_seeded(bytes, bytes.len() as u64, if small { 8 } else { 2 });
            // A torn tail in the last chunk.
            damaged.push(("torn tail".into(), bytes[..bytes.len() - 7].to_vec()));
            // A bad line of two-byte characters as long as the journal, so
            // that chunk boundaries fall inside characters.
            let garbage = "é".repeat(bytes.len() / 2) + "\n";
            damaged.push(("multi-byte line".into(), [bytes, garbage.as_bytes()].concat()));
            let splits: Vec<(usize, usize)> = if small {
                (2..=8).flat_map(|n| (1..n).map(move |k| (n, k))).collect()
            } else {
                vec![(2, 1), (8, 7)]
            };
            for (n, k) in splits {
                damaged.extend(damage_chunk_start(bytes, n, k));
            }
            for (tag, bytes) in &damaged {
                assert_chunking_is_invisible(&format!("{name}: {tag}"), bytes, &path);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_epoch_records_the_last_snapshot_and_the_arrival_suffix() {
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-compact-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("compact.jsonl");
        let mut records: Vec<ScannedRecord> = (0..4).map(steady_eval).collect();
        records.extend([ScannedRecord::Epoch(sample_epoch(0, 0)), snapshot_at(4)]);
        records.extend((4..8).map(steady_eval));
        records.extend([ScannedRecord::Epoch(sample_epoch(0, 1)), snapshot_at(8)]);
        records.extend((8..10).map(steady_eval));
        write_steady(&path, &records);
        let before = verify(&path).unwrap();
        assert_eq!(before.frames, 15);
        let report = compact(&path).unwrap();
        assert_eq!(report.frames_before, 15);
        // header + both epoch records + the last snapshot + 2 suffix evals
        assert_eq!(report.frames_after, 6);
        assert!(report.bytes_after < report.bytes_before);
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.frames, 6);
        assert_eq!(journal.evals.len(), 2);
        let snapshot = journal.last_snapshot_for(0).unwrap();
        assert_eq!((snapshot.arrivals, snapshot.history.len()), (8, 2));
        assert_eq!(journal.snapshots.len(), 1);
        assert!(journal.evals.values().all(|e| e.arrival.unwrap() >= 8));
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

    /// The timeout and backoff constants of `hpc::scheduler` and the label
    /// noise of `md` are hashed in: editing one fails here instead of
    /// silently orphaning every journal.
    #[test]
    fn smoke_fingerprints_are_the_ones_existing_journals_carry() {
        let smoke = ExperimentConfig::smoke();
        assert_eq!(config_fingerprint(&smoke), 0x7fd7_6eee_6d42_151d);
        let steady = ExperimentConfig { mode: CampaignMode::SteadyState, ..smoke };
        assert_eq!(config_fingerprint(&steady), 0xcf54_d41a_e531_4744);
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
        let back = reread(&entry.to_json(), EvalEntry::read).unwrap();
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

    fn sample_generation() -> GenEntry {
        GenEntry {
            run: 2,
            record: GenerationRecord {
                generation: 3,
                failures: 1,
                population: vec![evaluated(vec![1.0, 2.0], vec![0.01, 0.2])],
            },
            std: vec![0.1, 0.2],
            evaluations: 48,
            rng_state: [1, 2, 3, 4],
            archive: vec![evaluated(vec![5.0, 6.0], vec![0.02, 0.1])],
            report: PoolReport {
                makespan_minutes: 70.0,
                per_worker_minutes: vec![70.0],
                worker_deaths: 4,
                busy_minutes: vec![70.0],
                ..PoolReport::default()
            },
        }
    }

    #[test]
    fn values_the_writer_cannot_emit_are_rejected_not_coerced() {
        let eval = EvalEntry { fault_step: Some(17), fault_loss: Some(2.5), ..sample_eval() }
            .to_json()
            .to_compact();
        let generation = sample_generation().to_json().to_compact();
        let snapshot = sample_snapshot().to_json().to_compact();
        let epoch = sample_epoch(1, 3).to_json().to_compact();
        for clean in [&eval, &generation, &snapshot, &epoch] {
            typed_record(clean, false).unwrap_or_else(|e| panic!("{e}\n{clean}"));
        }
        // (record, what the writer wrote, what a damaged file says instead,
        //  what the error must name)
        let cases: [(&str, &str, &str, &str); 35] = [
            // (a) A literal that overflows f64 is not an infinity.
            (&eval, "\"minutes\":0.1", "\"minutes\":1e999", "out of range"),
            (&eval, "\"genome\":[1,2]", "\"genome\":[1,-1e999]", "out of range"),
            (&generation, "\"fitness\":[0.01,0.2]", "\"fitness\":[1e999,0.2]", "out of range"),
            // (b) Counters and indices are non-negative integers ≤ 2^53.
            (&eval, "\"run\":0", "\"run\":-1", "'run'"),
            (&eval, "\"gen\":0", "\"gen\":1.5", "'gen'"),
            (&eval, "\"slot\":0", "\"slot\":1e30", "'slot'"),
            (&eval, "\"attempts\":1", "\"attempts\":4294967296", "'attempts'"),
            (&eval, "\"fault_step\":17", "\"fault_step\":17.5", "'fault_step'"),
            (&eval, "\"fault\":", "\"arrival\":-2,\"fault\":", "'arrival'"),
            (&generation, "\"evaluations\":48", "\"evaluations\":48.5", "'evaluations'"),
            (&generation, "\"failures\":1", "\"failures\":-1", "'failures'"),
            (&generation, "\"rank\":1", "\"rank\":0.5", "'rank'"),
            (&generation, "\"deaths\":4", "\"deaths\":-4", "'deaths'"),
            (&generation, "\"diverged\":0", "\"diverged\":0.25", "'diverged'"),
            (&snapshot, "\"arrivals\":8", "\"arrivals\":9007199254740994", "'arrivals'"),
            (&snapshot, "\"submitted\":11", "\"submitted\":-11", "'submitted'"),
            (&snapshot, "\"epoch_failures\":2", "\"epoch_failures\":2.5", "'epoch_failures'"),
            (&snapshot, "\"epoch_churn\":[5,3,1]", "\"epoch_churn\":[5,3.5,1]", "'epoch_churn'"),
            (&snapshot, "\"base_timeout\":1", "\"base_timeout\":-1", "'base_timeout'"),
            (&snapshot, "\"pending\":[[9,", "\"pending\":[[9.5,", "'pending submission'"),
            (&epoch, "\"gen\":3", "\"gen\":3.5", "'gen'"),
            (&epoch, "\"deaths\":4", "\"deaths\":-4", "'deaths'"),
            // ...and so is every field of an epoch's status row.
            (&epoch, "\"status\":{", "\"status\":5,\"later\":{", "'status'"),
            (&epoch, "\"hypervolume\":0.005,", "", "missing field 'hypervolume'"),
            (&epoch, "\"deaths\":0", "\"deaths\":-4", "'deaths'"),
            (&epoch, "\"evicted\":0", "\"evicted\":0.5", "'evicted'"),
            // (c) No key twice — at any level of a record.
            (&eval, "\"run\":0", "\"run\":0,\"run\":0", "duplicate key 'run'"),
            (&eval, ",\"type\":\"eval\"", ",\"type\":\"eval\",\"type\":\"eval\"", "key 'type'"),
            (&generation, "\"deaths\":4", "\"deaths\":4,\"deaths\":4", "duplicate key 'deaths'"),
            (&generation, "\"rank\":1", "\"rank\":1,\"rank\":1", "duplicate key 'rank'"),
            (&epoch, "\"evicted\":0", "\"evicted\":0,\"evicted\":0", "duplicate key"),
            (&epoch, "\"run\":1", "\"run\":1,\"run\":1", "duplicate key 'run'"),
            // (d) A snapshot of an older build, with every closed epoch
            // inline: refused by field, not resumed from an empty history.
            (&snapshot, "\"pending\":", "\"history\":[],\"pending\":", "inline 'history'"),
            (&snapshot, "\"pending\":", "\"epoch_reports\":[{}],\"pending\":", "'epoch_reports'"),
            (&snapshot, "\"std\":", "\"status_rows\":[],\"std\":", "inline 'status_rows'"),
        ];
        for (record, written, damaged, names) in cases {
            assert!(record.contains(written), "{written} is not in {record}");
            let payload = record.replacen(written, damaged, 1);
            let err = typed_record(&payload, false).err().expect(damaged);
            assert!(err.message.contains(names), "{damaged}: {err}");
        }
        // In a file, that is corruption at the frame's offset.
        let dir =
            std::env::temp_dir().join(format!("dphpo-journal-strict-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("strict.jsonl");
        drop(JournalWriter::create(&path, &ExperimentConfig::smoke()).unwrap());
        let header_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(frame_line(1, &eval.replacen("\"run\":0", "\"run\":-1", 1)).as_bytes())
            .unwrap();
        drop(f);
        assert_eq!(verify(&path).unwrap().first_corrupt_offset, Some(header_len));
        assert!(Journal::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_order_and_unknown_keys_read_and_every_report_field_is_required() {
        let entry = sample_eval();
        let sorted = entry.to_json().to_compact();
        // `type` first (any order is legal JSON) takes the pass that looks
        // for it; an unknown key, nested however, is skipped.
        let foreign = format!(
            "{{\"type\":\"eval\",\"later\":{{\"x\":[1,{{}}]}},{}",
            sorted.strip_suffix(",\"type\":\"eval\"}").unwrap().strip_prefix('{').unwrap()
        ) + "}";
        let ScannedRecord::Eval(back) = typed_record(&foreign, false).unwrap() else {
            panic!("an eval record");
        };
        assert_eq!(back.to_json().to_compact(), sorted);
        // The tail is only a shortcut: a quoted look-alike does not fool it,
        // and a record of another type under an `eval` tail is refused.
        for payload in [
            r#"{"a","type":"eval"}"#.to_string(),
            sample_generation().to_json().to_compact().replace("\"generation\"}", "\"eval\"}"),
            r#"{"type":"eval"}"#.to_string(),
            r#"{"type":7}"#.to_string(),
            r#"[1,"type","eval"]"#.to_string(),
        ] {
            assert!(typed_record(&payload, false).is_err(), "{payload}");
        }
        // Report fields, in any order, with unknown keys among them...
        let generation = sample_generation().to_json().to_compact();
        let shuffled = generation.replacen("\"busy\":[70]", "\"later\":[{}],\"busy\":[70]", 1);
        let ScannedRecord::Generation(back) = typed_record(&shuffled, false).unwrap() else {
            panic!("a generation record");
        };
        assert_eq!(back.to_json().to_compact(), generation);
        // ...are each required, and a value of the wrong type is an error
        // that names its field — not a zero.
        for (from, to, says) in [
            ("\"diverged\":0,", "", "missing field 'diverged'"),
            ("\"idle\":[],", "", "missing field 'idle'"),
            ("\"wall\":0", "\"walls\":0", "missing field 'wall'"),
            ("\"diverged\":0", "\"diverged\":\"many\"", ""),
            ("\"diverged\":0", "\"diverged\":1.5", "field 'diverged'"),
            ("\"busy\":[70]", "\"busy\":[70,null]", ""),
            ("\"busy\":[70]", "\"busy\":{\"a\":[]}", ""),
            ("\"wall\":0", "\"wall\":[]", ""),
        ] {
            assert!(generation.contains(from), "{from}");
            let err = typed_record(&generation.replacen(from, to, 1), false)
                .err()
                .unwrap_or_else(|| panic!("{from} -> {to} was read"));
            assert!(err.to_string().contains(says), "{from} -> {to}: {err}");
        }
        let torn = generation.replacen("\"busy\":[70]", "\"busy\":[70,nul]", 1);
        assert!(typed_record(&torn, false).is_err());
    }
}
