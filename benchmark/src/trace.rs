//! Spans recorded by the harness around its calls into each layer.
//!
//! The system under test has no wall-clock spans of its own (its tracer
//! runs on the simulated clock), so the benchmark records them from
//! outside: one span per call into a crate's public entry point, with the
//! span that caused it as parent. Spans stay in memory until the run ends
//! and are then written as JSON lines. A disabled tracer reads no clock
//! and stores nothing, so end-to-end runs pay nothing for it.

use std::cell::RefCell;
use std::fmt::Write as _;

use crate::clock::{self, Stamp};

/// One recorded interval, in microseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the causing span in the tracer's span list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on the thread that drives a workload. Work done on
/// other threads (query clients) is timed there and added afterwards with
/// [`Tracer::add_children`].
pub struct Tracer {
    enabled: bool,
    origin: Stamp,
    spans: RefCell<Vec<Span>>,
    /// Indices of the spans currently open, innermost last.
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: clock::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds from the tracer's origin to `stamp`.
    pub fn at(&self, stamp: Stamp) -> f64 {
        stamp.us_since(self.origin)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, start_us: self.at(clock::now()), end_us: 0.0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.at(clock::now());
        out
    }

    /// Adds already-timed intervals (`start_us`, `end_us` relative to the
    /// tracer's origin) as children of the innermost open span.
    pub fn add_children(
        &self,
        name: &'static str,
        intervals: impl IntoIterator<Item = (f64, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().extend(intervals.into_iter().map(|(start_us, end_us)| Span {
            name,
            start_us,
            end_us,
            parent,
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span in microseconds: its duration minus the part of
/// that interval its child spans cover (children on two threads may
/// overlap, so the cover is a union, not a sum).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_us() - covered(kids, span.start_us, span.end_us))
        .collect()
}

/// Seconds the spans whose name starts with `prefix` took in one pass
/// (summed), as the median across `passes`.
pub fn median_secs(passes: &[Vec<Span>], prefix: &str) -> f64 {
    let totals: Vec<f64> = passes
        .iter()
        .map(|spans| {
            spans.iter().filter(|s| s.name.starts_with(prefix)).map(Span::duration_us).sum::<f64>()
                / 1e6
        })
        .collect();
    crate::stats::median(&totals)
}

/// Renders spans as JSON lines: `{name,start,end,parent,workload,pass}`.
pub fn to_jsonl(spans: &[Span], workload: &str, pass: usize, out: &mut String) {
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"pass\":{pass}}}",
            span.name, span.start_us, span.end_us
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            // overlaps `a` by 10 (two client threads): union covers 10..60
            span("b", 30.0, 60.0, Some(0)),
            span("a.inner", 15.0, 20.0, Some(1)),
            // sticks out past the parent's end: clipped to it
            span("c", 90.0, 120.0, Some(0)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 30.0 - 5.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 5.0);
        // "a" and "a.inner" both start with "a": 30 + 5 in one pass, and
        // the median of one pass with that and one without is their mean
        assert_eq!(median_secs(std::slice::from_ref(&spans), "a"), 35.0 / 1e6);
        assert_eq!(median_secs(&[spans, Vec::new()], "a"), 17.5 / 1e6);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let tracer = Tracer::new(true);
        let got = tracer.span("outer", || tracer.span("inner", || 1) + tracer.span("inner", || 2));
        tracer.span("outer", || tracer.add_children("bulk", [(1.0, 2.0), (2.0, 3.0)]));
        assert_eq!(got, 3);
        let spans = tracer.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("outer", None),
                ("bulk", Some(3)),
                ("bulk", Some(3)),
            ]
        );
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || 5), 5);
        off.add_children("bulk", [(1.0, 2.0)]);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = String::new();
        to_jsonl(&[span("pass", 0.0, 2.5, None), span("a", 1.0, 2.0, Some(0))], "w", 3, &mut out);
        assert_eq!(
            out,
            "{\"name\":\"pass\",\"start\":0.000,\"end\":2.500,\"parent\":null,\"workload\":\"w\",\"pass\":3}\n\
             {\"name\":\"a\",\"start\":1.000,\"end\":2.000,\"parent\":0,\"workload\":\"w\",\"pass\":3}\n"
        );
    }
}
