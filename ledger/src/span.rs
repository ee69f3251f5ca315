//! In-memory spans around the calls into each layer, written out as one
//! trace-event JSON when the traced run ends.
//!
//! Spans are recorded from the ledger's own thread only (the program's
//! worker threads are inside the calls being timed), so they nest
//! strictly: a span's children lie inside it and never overlap.

use crate::json::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (iteration, frame, repetition) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(usize);

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so traced and untraced runs share their code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = now;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part of it its direct
/// children cover. Children nest strictly (see the module docs), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Sum of durations and number of spans per name, in first-seen order.
#[derive(Debug, PartialEq)]
pub struct Totals(Vec<(&'static str, u64, u64)>);

impl Totals {
    pub fn of(spans: &[Span]) -> Totals {
        let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
        for s in spans {
            match rows.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += s.dur_ns();
                    row.2 += 1;
                }
                None => rows.push((s.name, s.dur_ns(), 1)),
            }
        }
        Totals(rows)
    }

    fn row(&self, name: &str) -> (u64, u64) {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0), |(_, ns, calls)| (*ns, *calls))
    }

    /// Total nanoseconds under `name` (0 when no such span was recorded).
    pub fn ns(&self, name: &str) -> f64 {
        self.row(name).0 as f64
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.row(name).1 as f64
    }
}

/// Spans of the training-only seams: grid scatter, grid Adam, MLP Adam.
/// `preview_orbit` must record none.
pub fn training_spans(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| {
            s.name.starts_with("grid.scatter")
                || s.name.starts_with("grid.adam")
                || s.name == "adam.mlp"
        })
        .count()
}

/// The spans as a Chrome/Perfetto trace-event document ("X" complete
/// events, microsecond timestamps). `args` carries what the span record
/// holds beyond name/start/end: parent index, workload and operation.
pub fn to_trace_events(spans: &[Span], workload: &str, pid: u64) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::obj()
                .with("name", s.name.into())
                .with("ph", "X".into())
                .with("ts", Value::Num(s.start_ns as f64 / 1e3))
                .with("dur", Value::Num(s.dur_ns() as f64 / 1e3))
                .with("pid", pid.into())
                .with("tid", 1u64.into())
                .with(
                    "args",
                    Value::obj()
                        .with("id", (i as u64).into())
                        .with(
                            "parent",
                            s.parent.map_or(Value::Null, |p| (p as u64).into()),
                        )
                        .with("workload", workload.into())
                        .with("op", s.op.into()),
                )
        })
        .collect();
    Value::obj()
        .with("traceEvents", Value::Arr(events))
        .with("displayTimeUnit", "ms".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // step [0,100): a [10,30) and b [30,60) are adjacent children;
        // c [35,50) nests inside b.
        let spans = vec![
            span("step", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 15, 15]);
    }

    #[test]
    fn tracer_records_nesting_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].op, 7);
        let own = self_times(s);
        assert_eq!(own[0] + own[1], s[0].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn totals_group_by_name_in_first_seen_order() {
        let spans = vec![
            span("a", 0, 10, None),
            span("b", 10, 15, None),
            span("a", 20, 25, None),
        ];
        let totals = Totals::of(&spans);
        assert_eq!(totals, Totals(vec![("a", 15, 2), ("b", 5, 1)]));
        assert_eq!((totals.ns("a"), totals.calls("a")), (15.0, 2.0));
        assert_eq!((totals.ns("missing"), totals.calls("missing")), (0.0, 0.0));
    }

    #[test]
    fn training_spans_are_scatter_and_adam_only() {
        let spans: Vec<Span> = [
            "grid.encode_density",
            "grid.scatter_color",
            "grid.adam_density",
            "adam.mlp",
            "mlp.backward_sigma",
        ]
        .into_iter()
        .map(|n| span(n, 0, 1, None))
        .collect();
        assert_eq!(training_spans(&spans), 3);
    }

    #[test]
    fn trace_events_carry_parent_workload_and_op() {
        let spans = vec![
            span("step", 1000, 3000, None),
            span("a", 1500, 2000, Some(0)),
        ];
        let doc = to_trace_events(&spans, "capture_object", 42);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(0.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            args.get("workload").unwrap().as_str(),
            Some("capture_object")
        );
        assert_eq!(crate::json::parse(&doc.to_json()).unwrap(), doc);
    }
}
