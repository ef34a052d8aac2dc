//! The six toy operators of the differential suites (`tests/fusion`,
//! `partial_agg`, and the stage-kernel unit tests), defined once. They
//! live in the library, not under `tests/`, so the crate's own unit
//! tests and its integration suites share one definition. Parameters are
//! fixed: no suite varies them. Beside them, [`metric_fields`]: the
//! metrics surface every differential compares two runs on.

use crate::executor::FlowMetrics;
use crate::operator::{Aggregate, Operator, Package};
use crate::record::{Record, Value};

fn int(r: &Record, field: &str) -> i64 {
    r.get(field).and_then(Value::as_int).unwrap_or(0)
}

/// The key every reduce under test groups by.
pub fn group_key(r: &Record, k: &mut String) {
    use std::fmt::Write;
    let _ = write!(k, "g{}", int(r, "id") % 3);
}

pub fn stamp() -> Operator {
    Operator::map("stamp", Package::Base, |mut r| {
        let id = int(&r, "id");
        r.set("stamp", id * 3 + 1);
        r
    })
    .with_reads(&["id"])
    .with_writes(&["stamp"])
}

pub fn dup() -> Operator {
    Operator::flat_map("dup", Package::Base, |r| {
        let mut copy = r.clone();
        copy.set("half", 1i64);
        vec![r, copy]
    })
}

pub fn parity() -> Operator {
    Operator::filter("parity", Package::Base, |r| int(r, "id") % 2 == 0)
        .with_reads(&["id"])
}

pub fn grow() -> Operator {
    Operator::map("grow", Package::Base, |mut r| {
        let t = format!("{}{}", r.text().unwrap_or(""), " lorem ipsum dolor");
        r.set("text", t);
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text"])
}

/// Reads the `stamp` field — which trips a WS001 rejection whenever it
/// lands upstream of the map that produces it, so rejected plans are
/// part of every property too.
pub fn needs_stamp() -> Operator {
    Operator::map("needs-stamp", Package::Base, |r| r)
        .with_reads(&["stamp"])
        .with_writes(&["x"])
}

/// A Count reduce fused stages extend through.
pub fn tally() -> Operator {
    Operator::reduce_agg("tally", Package::Base, group_key, Aggregate::Count { into: "id".into() })
}

/// Every deterministic [`FlowMetrics`] field, as text: the `Debug` form
/// with the runtime-only `wall_ms` fields zeroed. `Debug` writes an f64
/// in the shortest form that reads back to the same value, so equal text
/// means equal bits for every non-NaN float — the simulated clock's and
/// each row's.
pub fn metric_fields(m: &FlowMetrics) -> String {
    let mut m = m.clone();
    m.wall_ms = 0.0;
    for op in &mut m.per_op {
        op.wall_ms = 0.0;
    }
    format!("{m:?}")
}
