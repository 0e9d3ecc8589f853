//! Chrome `trace_event` JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout: one process (`pid`) per EA run; `tid 0` is the driver lane and
//! `tid w+1` is worker lane `w`, reconstructed from the scheduler's
//! simulated-clock placement. Timestamps are simulated minutes scaled to
//! microseconds, so one trace minute renders as one real-looking minute.

use crate::json::Json;
use crate::names;
use crate::recorder::{TelemetrySnapshot, When, NO_TASK};
use std::collections::BTreeMap;

/// Microseconds per simulated minute.
pub const US_PER_MIN: f64 = 60e6;

/// Argument value on a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Numeric payload.
    Num(f64),
    /// String payload (used for span ids and non-finite numbers).
    Str(String),
}

/// One Chrome `trace_event`. `ph` is `'X'` (complete span), `'i'` (instant),
/// `'C'` (counter sample), or `'M'` (metadata, e.g. thread names).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Display name.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Phase: `'X'`, `'i'`, `'C'`, or `'M'`.
    pub ph: char,
    /// Timestamp in microseconds (simulated clock).
    pub ts_us: f64,
    /// Duration in microseconds (`'X'` events only).
    pub dur_us: f64,
    /// Process id — the EA run index.
    pub pid: u64,
    /// Thread id — 0 for the driver lane, `w+1` for worker lane `w`.
    pub tid: u64,
    /// Event arguments.
    pub args: Vec<(String, Arg)>,
}

impl TraceEvent {
    /// A complete (`'X'`) span.
    pub fn span(name: &str, cat: &str, pid: u64, tid: u64, ts_us: f64, dur_us: f64) -> Self {
        Self { name: name.to_string(), cat: cat.to_string(), ph: 'X', ts_us, dur_us, pid, tid, args: Vec::new() }
    }

    /// A counter (`'C'`) sample on the driver lane: Perfetto renders
    /// consecutive samples of the same name as a counter track alongside
    /// the span lanes.
    pub fn counter(name: &str, cat: &str, pid: u64, ts_us: f64, value: f64) -> Self {
        Self {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'C',
            ts_us,
            dur_us: 0.0,
            pid,
            tid: 0,
            args: vec![("value".to_string(), Arg::Num(value))],
        }
    }

    /// A thread-name (`'M'`) metadata event for lane `tid` of process `pid`.
    pub fn thread_name(pid: u64, tid: u64, name: &str) -> Self {
        Self {
            name: "thread_name".to_string(),
            cat: String::new(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid,
            args: vec![("name".to_string(), Arg::Str(name.to_string()))],
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        s.push_str(&format!("\"name\":{}", Json::String(self.name.clone())));
        if !self.cat.is_empty() {
            s.push_str(&format!(",\"cat\":{}", Json::String(self.cat.clone())));
        }
        s.push_str(&format!(",\"ph\":\"{}\"", self.ph));
        if self.ph != 'M' {
            s.push_str(&format!(",\"ts\":{}", Json::Number(self.ts_us)));
        }
        if self.ph == 'X' {
            s.push_str(&format!(",\"dur\":{}", Json::Number(self.dur_us)));
        }
        if self.ph == 'i' {
            // Instant scope: thread-local tick.
            s.push_str(",\"s\":\"t\"");
        }
        s.push_str(&format!(",\"pid\":{},\"tid\":{}", self.pid, self.tid));
        if !self.args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let value = match v {
                    Arg::Num(n) => Json::Number(*n),
                    Arg::Str(t) => Json::String(t.clone()),
                };
                s.push_str(&format!("{}:{value}", Json::String(k.clone())));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Render a list of trace events as a Chrome trace JSON document.
pub fn render(events: &[TraceEvent]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&e.to_json());
    }
    s.push_str("\n]}\n");
    s
}

/// Simulated-clock placement of one task span, used to resolve
/// [`When::InTask`] and [`When::Unplaced`] events onto worker lanes.
#[derive(Clone, Copy, Debug)]
struct Placement {
    tid: u64,
    start_us: f64,
}

/// Convert a deterministic snapshot into Chrome trace events.
///
/// `eval` spans carry absolute simulated start times and worker lanes (the
/// EA driver takes them from the batch's own list schedule,
/// `PoolReport::placements`); everything the trainer emitted is
/// task-relative and is nested under its eval span here. Events whose task
/// was never placed (e.g. bookkeeping for replayed evaluations) fall back to
/// the driver lane at the generation span's start; `side.*` events are
/// excluded entirely. The trace has spans and instants only: counter tracks
/// come from the status rows (`dphpo_core::campaign_report::counter_tracks`),
/// which a resumed campaign rebuilds for its replayed generations too.
fn from_snapshot(snap: &TelemetrySnapshot) -> Vec<TraceEvent> {
    let mut placements: BTreeMap<(u32, u32, u32), Placement> = BTreeMap::new();
    let mut gen_starts: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for e in &snap.events {
        if let When::Sim(t) = e.when {
            if e.name == names::EVAL {
                if let Some(w) = e.worker {
                    placements
                        .entry((e.ctx.run, e.ctx.gen, e.ctx.task))
                        .or_insert(Placement { tid: w as u64 + 1, start_us: t * US_PER_MIN });
                }
            } else if e.name == names::GENERATION {
                gen_starts.entry((e.ctx.run, e.ctx.gen)).or_insert(t * US_PER_MIN);
            }
        }
    }

    let mut lanes: BTreeMap<(u64, u64), &'static str> = BTreeMap::new();
    let mut out: Vec<TraceEvent> = Vec::with_capacity(snap.events.len());
    for e in &snap.events {
        // `side.*` events carry arrival-order data (journal byte offsets);
        // excluding them keeps the trace bit-identical across re-runs.
        if e.name.starts_with(names::SIDE_PREFIX) {
            continue;
        }
        let pid = e.ctx.run as u64;
        let place = placements.get(&(e.ctx.run, e.ctx.gen, e.ctx.task));
        let (tid, ts_us) = match e.when {
            When::Sim(t) => (e.worker.map_or(0, |w| w as u64 + 1), t * US_PER_MIN),
            When::InTask(rel) => match place {
                Some(p) => (p.tid, p.start_us + rel * US_PER_MIN),
                None => (0, rel * US_PER_MIN),
            },
            When::Unplaced => match place {
                Some(p) => (p.tid, p.start_us),
                None => (0, *gen_starts.get(&(e.ctx.run, e.ctx.gen)).unwrap_or(&0.0)),
            },
        };
        lanes.entry((pid, tid)).or_insert(if tid == 0 { "driver" } else { "worker" });
        let mut ev = TraceEvent::span(e.name, e.cat, pid, tid, ts_us, e.dur_min * US_PER_MIN);
        if e.dur_min <= 0.0 {
            ev.ph = 'i';
        }
        ev.args.push(("id".to_string(), Arg::Str(format!("{:#018x}", e.span_id()))));
        ev.args.push(("gen".to_string(), Arg::Num(e.ctx.gen as f64)));
        if e.ctx.task != NO_TASK {
            ev.args.push(("task".to_string(), Arg::Num(e.ctx.task as f64)));
            ev.args.push(("attempt".to_string(), Arg::Num(e.ctx.attempt as f64)));
        }
        if let Some(step) = e.step {
            ev.args.push(("step".to_string(), Arg::Num(step as f64)));
        }
        for (k, v) in &e.args {
            let arg = if v.is_finite() { Arg::Num(*v) } else { Arg::Str(format!("{v}")) };
            ev.args.push(((*k).to_string(), arg));
        }
        out.push(ev);
    }

    let mut meta: Vec<TraceEvent> = lanes
        .iter()
        .map(|((pid, tid), kind)| {
            let label = if *tid == 0 {
                format!("{kind} (run {pid})")
            } else {
                format!("{kind} {} (run {pid})", tid - 1)
            };
            TraceEvent::thread_name(*pid, *tid, &label)
        })
        .collect();
    meta.extend(out);
    meta
}

/// The full pipeline from snapshot to a Perfetto-loadable document: the
/// snapshot's spans and instants as trace events, rendered by [`render`].
pub fn trace_json(snap: &TelemetrySnapshot) -> String {
    render(&from_snapshot(snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cats;
    use crate::recorder::{Event, SpanCtx};

    fn eval_event(task: u32, worker: u32, start_min: f64, dur_min: f64) -> Event {
        Event {
            name: names::EVAL,
            cat: cats::SCHED,
            ctx: SpanCtx::root(1, 0).with_gen(0).with_task(task, 1),
            step: None,
            when: When::Sim(start_min),
            dur_min,
            worker: Some(worker),
            args: vec![("ok", 1.0)],
        }
    }

    #[test]
    fn in_task_events_nest_under_their_eval_span() {
        let snap = TelemetrySnapshot {
            events: vec![
                eval_event(0, 2, 10.0, 5.0),
                Event {
                    name: names::TRAIN_STEP,
                    cat: cats::TRAIN,
                    ctx: SpanCtx::root(1, 0).with_gen(0).with_task(0, 1),
                    step: Some(3),
                    when: When::InTask(1.5),
                    dur_min: 0.5,
                    worker: None,
                    args: vec![("loss", 0.25)],
                },
            ],
            ..Default::default()
        };
        let events = from_snapshot(&snap);
        let step = events.iter().find(|e| e.name == names::TRAIN_STEP).unwrap();
        let eval = events.iter().find(|e| e.name == names::EVAL).unwrap();
        assert_eq!(step.tid, 3); // worker 2 → lane 3
        assert_eq!(step.tid, eval.tid);
        assert_eq!(step.ts_us, (10.0 + 1.5) * US_PER_MIN);
        assert!(step.ts_us >= eval.ts_us);
        assert!(step.ts_us + step.dur_us <= eval.ts_us + eval.dur_us + 1e-9);
    }

    #[test]
    fn lanes_get_thread_name_metadata() {
        let snap = TelemetrySnapshot { events: vec![eval_event(0, 0, 0.0, 1.0)], ..Default::default() };
        let events = from_snapshot(&snap);
        let meta: Vec<_> = events.iter().filter(|e| e.ph == 'M').collect();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].tid, 1);
        assert!(matches!(&meta[0].args[0].1, Arg::Str(s) if s.contains("worker 0")));
    }

    #[test]
    fn render_is_valid_enough_json() {
        let snap = TelemetrySnapshot { events: vec![eval_event(1, 0, 2.0, 3.0)], ..Default::default() };
        let doc = trace_json(&snap);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.trim_end().ends_with("]}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":120000000"));
        assert!(doc.contains("\"dur\":180000000"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn instant_events_carry_scope() {
        let snap = TelemetrySnapshot {
            events: vec![Event::instant(names::SCHED_DEATH, cats::SCHED, SpanCtx::root(1, 0))],
            ..Default::default()
        };
        let doc = trace_json(&snap);
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"s\":\"t\""));
    }
}
