//! The `Recorder` trait, span identity, and the in-memory recorder.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{GaugeValue, Histogram, HistogramSnapshot};

/// Sentinel task id for spans that belong to no scheduler task
/// (generation spans, batch submissions).
pub const NO_TASK: u32 = u32::MAX;

/// The SplitMix64 finalizer: span ids here, worker-death draws in
/// `dphpo-hpc` and I/O fault draws in `dphpo-core` all hash through it. It
/// lives in this crate because every layer depends on it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity of a span: which run/generation/task/attempt produced it.
///
/// Span ids derived from this context via [`SpanCtx::span_id`] are pure
/// functions of the campaign coordinates — no thread ids, no wall clock —
/// so re-running a campaign reproduces them bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Base seed of the run (the EA run seed, not the per-task train seed).
    pub seed: u64,
    /// Run index within the campaign.
    pub run: u32,
    /// Generation index within the run.
    pub gen: u32,
    /// Task (population slot) index within the generation, or [`NO_TASK`].
    pub task: u32,
    /// Attempt number, as the scheduler counts it (1 = first try).
    pub attempt: u32,
}

impl SpanCtx {
    /// Context for run-level spans (no generation/task yet).
    pub fn root(seed: u64, run: u32) -> Self {
        Self { seed, run, gen: 0, task: NO_TASK, attempt: 0 }
    }

    /// Narrow to a generation.
    pub fn with_gen(mut self, gen: u32) -> Self {
        self.gen = gen;
        self
    }

    /// Narrow to a task attempt.
    pub fn with_task(mut self, task: u32, attempt: u32) -> Self {
        self.task = task;
        self.attempt = attempt;
        self
    }

    /// Deterministic span id: a splitmix64 chain over
    /// `(seed, run, gen, task, attempt, step)`. `step = None` identifies the
    /// task-level (or generation-level) span itself.
    pub fn span_id(&self, step: Option<u64>) -> u64 {
        let mut z = splitmix64(self.seed ^ SPAN_ID_SALT);
        z = splitmix64(z ^ (((self.run as u64) << 32) | self.gen as u64));
        z = splitmix64(z ^ (((self.task as u64) << 32) | self.attempt as u64));
        splitmix64(z ^ step.map_or(u64::MAX, |s| s))
    }
}

/// Salt separating span-id derivation from the fault injector's hash domain.
const SPAN_ID_SALT: u64 = 0x0b5e_7e1e_3e7e_c0de;

/// Where an event sits in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum When {
    /// Absolute simulated minutes since campaign start.
    Sim(f64),
    /// Simulated minutes relative to the *enclosing task's* start. The
    /// trainer does not know when the scheduler placed its task; the Chrome
    /// exporter resolves these against the task spans post-hoc.
    InTask(f64),
    /// No meaningful time (pure bookkeeping events); exporters anchor these
    /// at the enclosing task's start when one exists.
    Unplaced,
}

/// One telemetry event. `dur_min == 0.0` marks an instant event; anything
/// greater is a span.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name — use the constants in [`crate::names`].
    pub name: &'static str,
    /// Category — use the constants in [`crate::cats`].
    pub cat: &'static str,
    /// Span identity.
    pub ctx: SpanCtx,
    /// Optimiser step for per-step spans, `None` otherwise.
    pub step: Option<u64>,
    /// Time placement.
    pub when: When,
    /// Duration in simulated minutes (0 for instants).
    pub dur_min: f64,
    /// Worker lane when the scheduler placed this span, `None` otherwise.
    pub worker: Option<u32>,
    /// Numeric payload (small, fixed keys; non-finite values allowed).
    pub args: Vec<(&'static str, f64)>,
}

impl Event {
    /// An instant event with no placement and no payload.
    pub fn instant(name: &'static str, cat: &'static str, ctx: SpanCtx) -> Self {
        Self { name, cat, ctx, step: None, when: When::Unplaced, dur_min: 0.0, worker: None, args: Vec::new() }
    }

    /// Deterministic span id for this event.
    pub fn span_id(&self) -> u64 {
        self.ctx.span_id(self.step)
    }
}

/// Sink for telemetry. Every method has an empty default body so a no-op
/// recorder compiles to nothing and instrumentation sites can gate on a
/// single `enabled()` branch.
///
/// Implementations must be thread-safe: the scheduler's worker threads and
/// the driver emit concurrently. Determinism of the *exports* is recovered
/// by [`MemoryRecorder::snapshot`], which sorts by span identity rather
/// than arrival order.
pub trait Recorder: Send + Sync {
    /// `false` (the default) lets call sites skip event construction.
    fn enabled(&self) -> bool {
        false
    }

    /// Record an event or span.
    fn record(&self, _event: Event) {}

    /// Add to a monotonic counter.
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    /// Set a gauge (last value + high-water mark are both kept).
    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    /// Observe a value into a log-scale histogram.
    fn observe(&self, _name: &'static str, _value: f64) {}
}

/// The default recorder: drops everything, reports `enabled() == false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A `'static` no-op recorder for call sites that need a reference.
pub static NOOP: NoopRecorder = NoopRecorder;

/// Deterministic view of everything a [`MemoryRecorder`] captured.
///
/// Events are sorted by `(run, gen, task, attempt, step, time, name)` so the
/// snapshot — and every export derived from it — is independent of thread
/// scheduling. `wall_us[i]` is the wall-clock capture time of `events[i]`
/// (side channel; `None` unless the recorder was built with
/// [`MemoryRecorder::with_wall_clock`]).
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Events in deterministic order.
    pub events: Vec<Event>,
    /// Wall-clock microseconds since recorder creation, parallel to `events`.
    pub wall_us: Vec<Option<u64>>,
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last + max), name-sorted.
    pub gauges: Vec<(String, GaugeValue)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }
}

/// In-memory recorder backing all three exporters.
///
/// Buffers are mutex-guarded `Vec`/`BTreeMap`s; critical sections are a
/// push or a map update, so contention stays negligible next to a training
/// step. Wall-clock capture is opt-in and never affects the deterministic
/// exports.
pub struct MemoryRecorder {
    events: Mutex<Vec<(Event, Option<u64>)>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, GaugeValue>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    wall: Option<Instant>,
}

impl MemoryRecorder {
    /// Recorder without the wall-clock side channel (fully deterministic).
    pub fn new() -> Self {
        Self {
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            wall: None,
        }
    }

    /// Recorder that additionally stamps each event with wall-clock
    /// microseconds since creation. The stamps ride in the snapshot's
    /// `wall_us` side channel only.
    pub fn with_wall_clock() -> Self {
        let mut r = Self::new();
        r.wall = Some(Instant::now());
        r
    }

    /// Deterministically ordered snapshot of everything captured so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut pairs = self.events.lock().unwrap().clone();
        pairs.sort_by(|(a, _), (b, _)| {
            let key = |e: &Event| {
                (
                    e.ctx.run,
                    e.ctx.gen,
                    e.ctx.task,
                    e.ctx.attempt,
                    e.step.unwrap_or(u64::MAX),
                )
            };
            key(a)
                .cmp(&key(b))
                .then_with(|| time_key(a).partial_cmp(&time_key(b)).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.name.cmp(b.name))
                .then_with(|| a.cat.cmp(b.cat))
                .then_with(|| a.worker.cmp(&b.worker))
        });
        let (events, wall_us): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        TelemetrySnapshot {
            events,
            wall_us,
            counters: self.counters.lock().unwrap().iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: self.gauges.lock().unwrap().iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// Secondary sort key: events with absolute sim time first, then in-task
/// offsets, then unplaced bookkeeping.
fn time_key(e: &Event) -> (u8, f64) {
    match e.when {
        When::Sim(t) => (0, t),
        When::InTask(t) => (1, t),
        When::Unplaced => (2, 0.0),
    }
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let stamp = self.wall.map(|t0| t0.elapsed().as_micros() as u64);
        self.events.lock().unwrap().push((event, stamp));
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.counters.lock().unwrap().entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        let mut gauges = self.gauges.lock().unwrap();
        let cell = gauges.entry(name).or_insert(GaugeValue { last: value, max: value });
        cell.last = value;
        if value > cell.max {
            cell.max = value;
        }
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.histograms.lock().unwrap().entry(name).or_default().observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let ctx = SpanCtx::root(42, 0).with_gen(3).with_task(5, 1);
        assert_eq!(ctx.span_id(Some(7)), ctx.span_id(Some(7)));
        assert_ne!(ctx.span_id(Some(7)), ctx.span_id(Some(8)));
        assert_ne!(ctx.span_id(None), ctx.span_id(Some(0)));
        let other = SpanCtx::root(42, 0).with_gen(3).with_task(6, 1);
        assert_ne!(ctx.span_id(None), other.span_id(None));
        let other_seed = SpanCtx::root(43, 0).with_gen(3).with_task(5, 1);
        assert_ne!(ctx.span_id(None), other_seed.span_id(None));
    }

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.record(Event::instant("x", "t", SpanCtx::default()));
        r.counter_add("c", 1);
        r.gauge_set("g", 1.0);
        r.observe("h", 1.0);
    }

    #[test]
    fn snapshot_order_is_independent_of_insertion_order() {
        let mk = |task: u32, step: Option<u64>| Event {
            name: "e",
            cat: "t",
            ctx: SpanCtx::root(1, 0).with_task(task, 0),
            step,
            when: When::Unplaced,
            dur_min: 0.0,
            worker: None,
            args: vec![],
        };
        let a = MemoryRecorder::new();
        a.record(mk(1, Some(2)));
        a.record(mk(0, None));
        a.record(mk(1, Some(1)));
        let b = MemoryRecorder::new();
        b.record(mk(1, Some(1)));
        b.record(mk(1, Some(2)));
        b.record(mk(0, None));
        let order = |r: &MemoryRecorder| {
            r.snapshot().events.iter().map(|e| (e.ctx.task, e.step)).collect::<Vec<_>>()
        };
        assert_eq!(order(&a), order(&b));
        assert_eq!(order(&a), vec![(0, None), (1, Some(1)), (1, Some(2))]);
    }

    #[test]
    fn gauges_track_last_and_high_water() {
        let r = MemoryRecorder::new();
        r.gauge_set("g", 3.0);
        r.gauge_set("g", 9.0);
        r.gauge_set("g", 4.0);
        let snap = r.snapshot();
        let (_, g) = &snap.gauges[0];
        assert_eq!(g.last, 4.0);
        assert_eq!(g.max, 9.0);
    }

    #[test]
    fn counters_accumulate() {
        let r = MemoryRecorder::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        assert_eq!(r.snapshot().counter("c"), 5);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn wall_clock_is_side_channel_only() {
        let r = MemoryRecorder::new();
        r.record(Event::instant("x", "t", SpanCtx::default()));
        assert_eq!(r.snapshot().wall_us, vec![None]);
        let w = MemoryRecorder::with_wall_clock();
        w.record(Event::instant("x", "t", SpanCtx::default()));
        assert!(w.snapshot().wall_us[0].is_some());
    }
}
