//! Per-generation text rollup appended to the fig1 report.

use crate::recorder::{TelemetrySnapshot, NO_TASK};
use crate::names;
use std::collections::BTreeMap;

#[derive(Default)]
struct GenRow {
    evals_ok: u64,
    evals_failed: u64,
    steps: u64,
    makespan_min: f64,
    minutes: f64,
    deaths: u64,
    retries: u64,
    lost_min: f64,
    hypervolume: Option<f64>,
}

fn arg(e: &crate::recorder::Event, key: &str) -> Option<f64> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Render the telemetry rollup: one row per `(run, generation)` aggregated
/// from the deterministic event stream, followed by counter totals and
/// histogram summaries. All quantities are on the simulated clock.
pub fn generation_rollup(snap: &TelemetrySnapshot) -> String {
    let mut rows: BTreeMap<(u32, u32), GenRow> = BTreeMap::new();
    for e in &snap.events {
        let row = rows.entry((e.ctx.run, e.ctx.gen)).or_default();
        match e.name {
            n if n == names::EVAL && e.ctx.task != NO_TASK => {
                if arg(e, "ok").unwrap_or(0.0) > 0.5 {
                    row.evals_ok += 1;
                } else {
                    row.evals_failed += 1;
                }
                row.minutes += arg(e, "minutes").unwrap_or(e.dur_min);
            }
            n if n == names::TRAIN_STEP => row.steps += 1,
            n if n == names::GENERATION => {
                row.makespan_min = e.dur_min;
                row.deaths = arg(e, "deaths").unwrap_or(0.0) as u64;
                row.retries = arg(e, "retried").unwrap_or(0.0) as u64;
                row.lost_min = arg(e, "lost_min").unwrap_or(0.0);
            }
            n if n == names::FRONT => {
                row.hypervolume = arg(e, "hypervolume");
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str("telemetry rollup (simulated clock)\n");
    out.push_str(
        "run gen   ok fail    steps  makespan_min  busy_min  deaths retries  lost_min  hypervolume\n",
    );
    for ((run, g), r) in &rows {
        let hv = match r.hypervolume {
            Some(v) => format!("{v:>11.3e}"),
            None => format!("{:>11}", "-"),
        };
        out.push_str(&format!(
            "{:>3} {:>3} {:>4} {:>4} {:>8}      {:>8.1}  {:>8.1}  {:>6} {:>7}  {:>8.1}  {}\n",
            run,
            g,
            r.evals_ok,
            r.evals_failed,
            r.steps,
            r.makespan_min,
            r.minutes,
            r.deaths,
            r.retries,
            r.lost_min,
            hv
        ));
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:");
        for (name, v) in &snap.counters {
            if !name.starts_with(names::SIDE_PREFIX) {
                out.push_str(&format!(" {name}={v}"));
            }
        }
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        if name.starts_with(names::SIDE_PREFIX) || h.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "hist {name}: n={} min={:.3e} mean={:.3e} max={:.3e}\n",
            h.count,
            h.min,
            h.mean(),
            h.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, MemoryRecorder, Recorder, SpanCtx, When};
    use crate::{cats, names};

    #[test]
    fn rollup_aggregates_per_generation() {
        let r = MemoryRecorder::new();
        let base = SpanCtx::root(7, 0).with_gen(0);
        r.record(Event {
            name: names::GENERATION,
            cat: cats::EA,
            ctx: base,
            step: None,
            when: When::Sim(0.0),
            dur_min: 100.0,
            worker: None,
            args: vec![("deaths", 1.0), ("retried", 1.0), ("lost_min", 12.5)],
        });
        for (task, ok) in [(0u32, 1.0), (1, 0.0)] {
            r.record(Event {
                name: names::EVAL,
                cat: cats::SCHED,
                ctx: base.with_task(task, 1),
                step: None,
                when: When::Sim(0.0),
                dur_min: 50.0,
                worker: Some(task),
                args: vec![("ok", ok), ("minutes", 50.0)],
            });
        }
        for step in 0..3u64 {
            r.record(Event {
                name: names::TRAIN_STEP,
                cat: cats::TRAIN,
                ctx: base.with_task(0, 1),
                step: Some(step),
                when: When::InTask(step as f64),
                dur_min: 1.0,
                worker: None,
                args: vec![],
            });
        }
        r.counter_add(names::C_STEPS, 3);
        r.observe(names::H_LOSS, 0.5);
        let text = generation_rollup(&r.snapshot());
        assert!(text.contains("telemetry rollup"));
        let row = text.lines().nth(2).unwrap();
        assert!(row.contains("  0   0    1    1        3"), "row: {row:?}");
        assert!(row.contains("100.0"));
        assert!(row.contains("12.5"));
        assert!(row.trim_end().ends_with('-'), "no front event -> hv dash: {row:?}");
        assert!(text.contains("counters: train.steps=3"));
        assert!(text.contains("hist train.loss: n=1"));
    }

    #[test]
    fn rollup_reports_hypervolume_from_front_events() {
        let r = MemoryRecorder::new();
        let base = SpanCtx::root(7, 0).with_gen(1);
        r.record(Event {
            name: names::GENERATION,
            cat: cats::EA,
            ctx: base,
            step: None,
            when: When::Sim(0.0),
            dur_min: 10.0,
            worker: None,
            args: vec![],
        });
        let mut front = Event::instant(names::FRONT, cats::EA, base);
        front.args = vec![("hypervolume", 1.25e-2), ("cardinality", 3.0)];
        r.record(front);
        let text = generation_rollup(&r.snapshot());
        assert!(text.lines().nth(1).unwrap().contains("hypervolume"));
        let row = text.lines().nth(2).unwrap();
        assert!(row.contains("1.250e-2") || row.contains("1.250e2"), "row: {row:?}");
    }
}
