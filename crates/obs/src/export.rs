//! JSONL export: one line per event, followed by one line per metric.

use crate::json::Json;
use crate::names::SIDE_PREFIX;
use crate::recorder::{Event, TelemetrySnapshot, When, NO_TASK};

fn event_line(e: &Event) -> String {
    let mut s = String::with_capacity(160);
    s.push_str(&format!(
        "{{\"type\":\"event\",\"name\":{},\"cat\":{},\"id\":\"{:#018x}\",\"run\":{},\"gen\":{}",
        Json::String(e.name.into()),
        Json::String(e.cat.into()),
        e.span_id(),
        e.ctx.run,
        e.ctx.gen
    ));
    if e.ctx.task != NO_TASK {
        s.push_str(&format!(",\"task\":{},\"attempt\":{}", e.ctx.task, e.ctx.attempt));
    }
    if let Some(step) = e.step {
        s.push_str(&format!(",\"step\":{step}"));
    }
    match e.when {
        When::Sim(t) => s.push_str(&format!(",\"when\":\"sim\",\"t_min\":{}", Json::Number(t))),
        When::InTask(t) => {
            s.push_str(&format!(",\"when\":\"in_task\",\"t_min\":{}", Json::Number(t)))
        }
        When::Unplaced => s.push_str(",\"when\":\"unplaced\""),
    }
    if e.dur_min > 0.0 {
        s.push_str(&format!(",\"dur_min\":{}", Json::Number(e.dur_min)));
    }
    if let Some(w) = e.worker {
        s.push_str(&format!(",\"worker\":{w}"));
    }
    if !e.args.is_empty() {
        s.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", Json::String((*k).into()), Json::Number(*v)));
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Deterministic JSONL export of a snapshot: event lines in snapshot order,
/// then `counter`/`gauge`/`hist` lines sorted by name. Events and metrics
/// whose name starts with `side.` — wall-clock readings, journal byte
/// offsets, racy scheduler state — are **excluded**; use
/// [`side_channel_jsonl`] for those. A gauge line carries the high-water
/// mark only: `max` is the same whichever thread set the gauge when, while
/// `last` is whichever worker thread wrote last, so it goes to the side
/// channel with the rest of what depends on thread interleaving.
pub fn events_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for e in &snap.events {
        if e.name.starts_with(SIDE_PREFIX) {
            continue;
        }
        out.push_str(&event_line(e));
        out.push('\n');
    }
    for (name, v) in &snap.counters {
        if name.starts_with(SIDE_PREFIX) {
            continue;
        }
        out.push_str(&counter_line(name, *v));
    }
    for (name, g) in &snap.gauges {
        if name.starts_with(SIDE_PREFIX) {
            continue;
        }
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":{},\"max\":{}}}\n",
            Json::String(name.clone()),
            Json::Number(g.max)
        ));
    }
    for (name, h) in &snap.histograms {
        if name.starts_with(SIDE_PREFIX) {
            continue;
        }
        out.push_str(&hist_line(name, h));
    }
    out
}

fn counter_line(name: &str, value: u64) -> String {
    format!("{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n", Json::String(name.into()))
}

fn hist_line(name: &str, h: &crate::metrics::HistogramSnapshot) -> String {
    let buckets: Vec<String> =
        h.buckets.iter().map(|(lo, c)| format!("[{},{c}]", Json::Number(*lo))).collect();
    format!(
        "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
        Json::String(name.into()),
        h.count,
        Json::Number(h.sum),
        Json::Number(h.min),
        Json::Number(h.max),
        buckets.join(",")
    )
}

/// Non-deterministic side channel: `side.*` events (e.g. journal byte
/// offsets), wall-clock stamps per event (when the recorder captured them),
/// `side.*` metrics, and every gauge's `last` value. Kept out of
/// [`events_jsonl`] so the deterministic export stays bit-identical across
/// runs.
///
/// The export ends with a summary block — one `{"type":"summary",...}` line
/// per event name carrying wall stamps (count, first/last stamp) and one
/// per `side.*` histogram (count/total/p50/p99, quantiles at the log₂
/// bucket resolution) — so wall data is usable without post-processing.
pub fn side_channel_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for e in &snap.events {
        if e.name.starts_with(SIDE_PREFIX) {
            out.push_str(&event_line(e));
            out.push('\n');
        }
    }
    for (e, wall) in snap.events.iter().zip(&snap.wall_us) {
        if let Some(us) = wall {
            out.push_str(&format!(
                "{{\"type\":\"wall\",\"id\":\"{:#018x}\",\"name\":{},\"wall_us\":{us}}}\n",
                e.span_id(),
                Json::String(e.name.into())
            ));
        }
    }
    for (name, v) in &snap.counters {
        if name.starts_with(SIDE_PREFIX) {
            out.push_str(&counter_line(name, *v));
        }
    }
    for (name, g) in &snap.gauges {
        // `side.*` gauges appear nowhere else, so theirs is the whole line;
        // the others' `max` is in the deterministic export.
        let max = if name.starts_with(SIDE_PREFIX) {
            format!(",\"max\":{}", Json::Number(g.max))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":{},\"last\":{}{max}}}\n",
            Json::String(name.clone()),
            Json::Number(g.last)
        ));
    }
    for (name, h) in &snap.histograms {
        if name.starts_with(SIDE_PREFIX) {
            out.push_str(&hist_line(name, h));
        }
    }
    // Summary block: wall-stamp aggregates per event name, then per-name
    // quantile summaries of the side histograms.
    let mut stamps: std::collections::BTreeMap<&str, (u64, u64, u64)> = std::collections::BTreeMap::new();
    for (e, wall) in snap.events.iter().zip(&snap.wall_us) {
        if let Some(us) = wall {
            let entry = stamps.entry(e.name).or_insert((0, *us, *us));
            entry.0 += 1;
            entry.1 = entry.1.min(*us);
            entry.2 = entry.2.max(*us);
        }
    }
    for (name, (count, first, last)) in &stamps {
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"kind\":\"wall_stamps\",\"name\":{},\"count\":{count},\"first_us\":{first},\"last_us\":{last}}}\n",
            Json::String((*name).into())
        ));
    }
    for (name, h) in &snap.histograms {
        if name.starts_with(SIDE_PREFIX) {
            out.push_str(&format!(
                "{{\"type\":\"summary\",\"kind\":\"hist\",\"name\":{},\"count\":{},\"total\":{},\"p50\":{},\"p99\":{}}}\n",
                Json::String(name.clone()),
                h.count,
                Json::Number(h.sum),
                Json::Number(h.quantile(0.5)),
                Json::Number(h.quantile(0.99))
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemoryRecorder, Recorder, SpanCtx};
    use crate::{cats, names};

    #[test]
    fn event_lines_are_one_json_object_per_line() {
        let r = MemoryRecorder::new();
        r.record(Event {
            name: names::EVAL,
            cat: cats::SCHED,
            ctx: SpanCtx::root(9, 1).with_gen(2).with_task(3, 1),
            step: None,
            when: When::Sim(4.5),
            dur_min: 2.0,
            worker: Some(0),
            args: vec![("ok", 1.0), ("minutes", 2.0)],
        });
        r.counter_add(names::C_STEPS, 10);
        r.observe(names::H_LOSS, 0.5);
        let out = events_jsonl(&r.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"run\":1,\"gen\":2,\"task\":3,\"attempt\":1"));
        assert!(lines[0].contains("\"when\":\"sim\",\"t_min\":4.5"));
        assert!(lines[0].contains("\"args\":{\"ok\":1,\"minutes\":2}"));
        assert!(lines[1].contains("\"type\":\"counter\""));
        assert!(lines[2].contains("\"type\":\"hist\""));
        assert!(lines[2].contains("\"buckets\":[[0.5,1]]"));
        for l in &lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn side_metrics_are_segregated() {
        let r = MemoryRecorder::new();
        r.observe(names::H_STEP_WALL_NS, 123.0);
        r.observe(names::H_LOSS, 0.5);
        r.gauge_set(names::G_QUARANTINED, 1.0);
        r.gauge_set(names::G_TAPE_NODES, 9.0);
        r.gauge_set(names::G_TAPE_NODES, 5.0);
        let mut append =
            Event::instant(names::JOURNAL_APPEND, cats::JOURNAL, SpanCtx::root(7, 0));
        append.args = vec![("offset", 512.0)];
        r.record(append);
        let snap = r.snapshot();
        let det = events_jsonl(&snap);
        assert!(!det.contains("side."));
        assert!(det.contains(names::H_LOSS));
        let side = side_channel_jsonl(&snap);
        assert!(side.contains(names::H_STEP_WALL_NS));
        assert!(side.contains(names::G_QUARANTINED));
        // A gauge's high-water mark is deterministic; its last value is
        // whichever thread wrote last, so only the side channel has it.
        assert!(det.contains("\"name\":\"tape.nodes\",\"max\":9}"), "{det}");
        assert!(!det.contains("\"last\""));
        assert!(side.contains("\"name\":\"tape.nodes\",\"last\":5}"), "{side}");
        assert!(side.contains("\"last\":1,\"max\":1}"), "{side}");
        assert!(side.contains(names::JOURNAL_APPEND));
        assert!(side.contains("\"offset\":512"));
        assert!(!side.contains("\"train.loss\""));
    }

    #[test]
    fn side_channel_ends_with_summary_block() {
        let r = MemoryRecorder::with_wall_clock();
        r.record(Event::instant(names::JOURNAL_APPEND, cats::JOURNAL, SpanCtx::root(7, 0)));
        r.record(Event::instant(names::JOURNAL_APPEND, cats::JOURNAL, SpanCtx::root(7, 0)));
        for v in [100.0, 200.0, 400.0, 100_000.0] {
            r.observe(names::H_STEP_WALL_NS, v);
        }
        let side = side_channel_jsonl(&r.snapshot());
        let summaries: Vec<&str> =
            side.lines().filter(|l| l.contains("\"type\":\"summary\"")).collect();
        // Wall-stamp summaries per event name plus one per side histogram;
        // all summary lines sit at the end of the export.
        assert!(summaries.iter().any(|l| {
            l.contains("\"kind\":\"wall_stamps\"")
                && l.contains("\"name\":\"side.journal.append\"")
                && l.contains("\"count\":2")
        }));
        let hist = summaries
            .iter()
            .find(|l| l.contains("\"kind\":\"hist\""))
            .expect("histogram summary line");
        assert!(hist.contains("\"name\":\"side.step_wall_ns\""));
        assert!(hist.contains("\"count\":4"));
        assert!(hist.contains("\"total\":100700"));
        // p50 falls in the bucket holding 200 ([128, 256)); p99 in the
        // bucket holding the 100 µs outlier ([65536, 131072)).
        assert!(hist.contains("\"p50\":128"), "{hist}");
        assert!(hist.contains("\"p99\":65536"), "{hist}");
        let n = side.lines().count();
        let first_summary =
            side.lines().position(|l| l.contains("\"type\":\"summary\"")).unwrap();
        assert_eq!(n - first_summary, summaries.len());
    }

    #[test]
    fn wall_stamps_only_in_side_channel() {
        let r = MemoryRecorder::with_wall_clock();
        r.record(Event::instant("x", "t", SpanCtx::default()));
        let snap = r.snapshot();
        assert!(!events_jsonl(&snap).contains("wall_us"));
        assert!(side_channel_jsonl(&snap).contains("wall_us"));
    }
}
