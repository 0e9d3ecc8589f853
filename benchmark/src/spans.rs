//! The benchmark's span recorder: spans are recorded from the benchmark's
//! own files, around the calls into each layer's public functions (spans
//! inside the program are a later change).
//!
//! Each thread buffers its finished spans and hands the buffer to the
//! shared list when its outermost span closes, so the hot path takes no
//! lock; the trace is written out when the layer pass ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Span name; the per-layer metrics aggregate by it.
    pub name: &'static str,
    /// Layer (crate or module) the time belongs to.
    pub layer: &'static str,
    /// Operation id shared by the spans of one operation (one evaluation,
    /// one boundary).
    pub op: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work count the span covered (steps, tasks, records); 0 if unused.
    pub count: u64,
    /// A numeric label (the decoded `rcut` on evaluation spans).
    pub value: f64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadBuf {
    thread: u64,
    open: Vec<u64>,
    done: Vec<SpanRec>,
}

thread_local! {
    static BUF: RefCell<Option<ThreadBuf>> = const { RefCell::new(None) };
}

/// Shared recorder; cheap to reference from worker threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    merged: Mutex<Vec<SpanRec>>,
}

/// An open span; closing happens in [`Span::end`] (or on drop).
pub struct Span<'t> {
    tracer: &'t Tracer,
    rec: Option<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            merged: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span whose parent is the innermost open span on this thread.
    pub fn span(&self, name: &'static str, layer: &'static str, op: u64) -> Span<'_> {
        self.open(name, layer, op, None)
    }

    /// Open a span caused by a span of another thread (an evaluation on a
    /// worker, caused by the scheduler call on the driver thread).
    pub fn span_under(
        &self,
        parent: u64,
        name: &'static str,
        layer: &'static str,
        op: u64,
    ) -> Span<'_> {
        self.open(name, layer, op, Some(parent))
    }

    fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        parent: Option<u64>,
    ) -> Span<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (thread, inherited) = BUF.with(|b| {
            let mut b = b.borrow_mut();
            let buf = b.get_or_insert_with(|| ThreadBuf {
                thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
                open: Vec::new(),
                done: Vec::new(),
            });
            let inherited = buf.open.last().copied();
            buf.open.push(id);
            (buf.thread, inherited)
        });
        Span {
            tracer: self,
            rec: Some(SpanRec {
                id,
                parent: parent.or(inherited),
                name,
                layer,
                op,
                thread,
                start_ns: self.now_ns(),
                end_ns: 0,
                count: 0,
                value: 0.0,
            }),
        }
    }

    /// Every span recorded so far, merged across threads, by start time.
    pub fn finish(&self) -> Vec<SpanRec> {
        let mut spans = std::mem::take(
            &mut *self
                .merged
                .lock()
                .expect("no span is recorded under a panic"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.rec.as_ref().expect("span is open").id
    }

    pub fn set_count(&mut self, count: u64) {
        self.rec.as_mut().expect("span is open").count = count;
    }

    pub fn set_value(&mut self, value: f64) {
        self.rec.as_mut().expect("span is open").value = value;
    }

    /// Close the span (dropping it does the same).
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        let Some(mut rec) = self.rec.take() else {
            return;
        };
        rec.end_ns = self.tracer.now_ns();
        let flushed = BUF.with(|b| {
            let mut b = b.borrow_mut();
            let buf = b.as_mut().expect("a span was opened on this thread");
            // Spans close innermost-first on their own thread.
            let top = buf.open.pop();
            debug_assert_eq!(top, Some(rec.id));
            buf.done.push(rec);
            buf.open.is_empty().then(|| std::mem::take(&mut buf.done))
        });
        if let Some(done) = flushed {
            self.tracer
                .merged
                .lock()
                .expect("no span is recorded under a panic")
                .extend(done);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// that interval its child spans cover. Children on several threads may
/// overlap each other (two workers evaluating at once), so the covered
/// part is the union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"count\":{},\"value\":{}}}}}",
            s.name,
            s.layer,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.count,
            if s.value.is_finite() { s.value } else { 0.0 },
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Folded-stack text (`a;b;c <self µs>`), one line per distinct stack, for
/// flamegraph tools.
pub fn folded(spans: &[SpanRec]) -> String {
    let by_id: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let selfs = self_times(spans);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut names = vec![s.name];
        let mut cur = s.parent;
        while let Some(p) = cur.and_then(|id| by_id.get(&id)) {
            names.push(p.name);
            cur = p.parent;
        }
        names.reverse();
        *stacks.entry(names.join(";")).or_default() += selfs[&s.id] / 1_000;
    }
    let mut out = String::new();
    for (stack, us) in stacks {
        let _ = writeln!(out, "{stack} {us}");
    }
    out
}

/// Write `<stem>.trace.json` and `<stem>.folded` under `dir`.
pub fn write_trace(dir: &Path, stem: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    std::fs::write(dir.join(format!("{stem}.trace.json")), chrome_json(spans))?;
    std::fs::write(dir.join(format!("{stem}.folded")), folded(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, thread: u64, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "s",
            layer: "l",
            op: 0,
            thread,
            start_ns: start,
            end_ns: end,
            count: 0,
            value: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30, and c 70..90 under root.
        let spans = vec![
            rec(1, None, 0, 0, 100),
            rec(2, Some(1), 0, 10, 60),
            rec(3, Some(2), 0, 20, 30),
            rec(4, Some(1), 0, 70, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 20);
        assert_eq!(selfs[&2], 50 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_on_two_threads_cover_their_union() {
        // A scheduler call 0..100 whose two workers evaluate 10..70 and
        // 40..90: the call itself is busy only while neither runs.
        let spans = vec![
            rec(1, None, 0, 0, 100),
            rec(2, Some(1), 1, 10, 70),
            rec(3, Some(1), 2, 40, 90),
            // A child that outlives its parent is clipped to it.
            rec(4, Some(1), 2, 95, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 80 - 5);
        assert_eq!(selfs[&2], 60);
        assert_eq!(selfs[&3], 50);
    }

    #[test]
    fn tracer_links_parents_within_and_across_threads() {
        let tracer = Tracer::new();
        let root = tracer.span("root", "bench", 0);
        let root_id = root.id();
        let mut call = tracer.span("call", "hpc", 1);
        call.set_count(2);
        let call_id = call.id();
        std::thread::scope(|scope| {
            for op in [10, 11] {
                let tracer = &tracer;
                scope.spawn(move || {
                    let eval = tracer.span_under(call_id, "eval", "core", op);
                    let inner = tracer.span("inner", "dnnp", op);
                    inner.end();
                    eval.end();
                });
            }
        });
        call.end();
        root.end();
        let spans = tracer.finish();
        assert_eq!(spans.len(), 6);
        let by_name = |n: &str| spans.iter().filter(|s| s.name == n).collect::<Vec<_>>();
        assert_eq!(by_name("root")[0].parent, None);
        assert_eq!(by_name("call")[0].parent, Some(root_id));
        assert_eq!(by_name("call")[0].count, 2);
        for eval in by_name("eval") {
            assert_eq!(eval.parent, Some(call_id));
            assert_ne!(eval.thread, by_name("root")[0].thread);
            let inner = by_name("inner")
                .into_iter()
                .find(|s| s.op == eval.op)
                .unwrap();
            assert_eq!(inner.parent, Some(eval.id));
            assert_eq!(inner.thread, eval.thread);
        }
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(folded(&spans).contains("root;call;eval;inner "));
    }
}
