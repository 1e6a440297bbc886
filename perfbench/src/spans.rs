//! In-memory spans for the traced run. Only the traced run constructs a
//! [`Tracer`]; the untraced run's code paths take none, so they cannot
//! record by accident.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Records spans for one workload; the innermost open span is the
/// parent of whatever opens next.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span opened from now on.
    pub pass: u32,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record `busy_ns` of work that happened in many small pieces
    /// inside the innermost open span (one span per piece would cost
    /// more than the pieces) as a single child anchored at its start.
    pub fn aggregate(&mut self, name: &'static str, busy_ns: u64) {
        let parent = *self.open.last().expect("aggregate needs an open parent");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            pass: self.pass,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `{"workload":…,"spans":[{name,start_ns,end_ns,parent,workload,pass}…]}`
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"workload\":{},\"spans\":[", json::string(self.workload));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":{},\"pass\":{}}}",
                if i == 0 { "" } else { "," },
                json::string(s.name),
                s.start_ns,
                s.end_ns,
                json::string(self.workload),
                s.pass,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of it its children
/// cover (children are sequential, so their durations add).
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration_ns)
        .sum();
    spans[index].duration_ns().saturating_sub(covered)
}

/// Total duration and total self time, in nanoseconds, of the spans
/// named `name` in pass `pass`, and how many there were.
pub fn totals(spans: &[Span], pass: u32, name: &str) -> (u64, u64, usize) {
    let mut total = 0;
    let mut own = 0;
    let mut count = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.pass == pass && s.name == name {
            total += s.duration_ns();
            own += self_ns(spans, i);
            count += 1;
        }
    }
    (total, own, count)
}

/// The pass whose `root` span was shortest, with that duration in
/// nanoseconds.
pub fn best_pass(spans: &[Span], root: &str) -> Option<(u32, u64)> {
    spans
        .iter()
        .filter(|s| s.name == root)
        .min_by_key(|s| s.duration_ns())
        .map(|s| (s.pass, s.duration_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, pass: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 1_000, None, 0),
            span("cell", 100, 900, Some(0), 0),
            span("run", 200, 700, Some(1), 0),
            span("generate", 200, 300, Some(2), 0), // an aggregate child
            span("report", 700, 750, Some(1), 0),
        ];
        assert_eq!(self_ns(&spans, 0), 200); // 1000 − cell(800)
        assert_eq!(self_ns(&spans, 1), 250); // 800 − run(500) − report(50)
        assert_eq!(self_ns(&spans, 2), 400); // 500 − generate(100)
        assert_eq!(self_ns(&spans, 3), 100); // a leaf keeps its duration
    }

    #[test]
    fn totals_and_best_pass_select_by_pass() {
        let spans = vec![
            span("pass", 0, 500, None, 0),
            span("x", 0, 100, Some(0), 0),
            span("x", 100, 300, Some(0), 0),
            span("pass", 500, 900, None, 1),
            span("x", 500, 600, Some(3), 1),
        ];
        assert_eq!(totals(&spans, 0, "x"), (300, 300, 2));
        assert_eq!(totals(&spans, 1, "x").2, 1);
        assert_eq!(totals(&spans, 0, "pass").1, 200);
        assert_eq!(best_pass(&spans, "pass"), Some((1, 400)));
        assert_eq!(best_pass(&spans, "absent"), None);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new("w");
        let outer = t.open("outer");
        t.time("leaf", || std::hint::black_box(1 + 1));
        t.aggregate("pieces", 5);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].duration_ns(), 5);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = json::parse(&t.to_json()).expect("valid JSON");
        let listed = doc
            .get("spans")
            .and_then(json::Value::as_array)
            .expect("spans");
        assert_eq!(listed.len(), 3);
        assert_eq!(
            listed[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(listed[0].get("parent"), Some(&json::Value::Null));
    }
}
