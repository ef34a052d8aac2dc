//! The six toy operators of the differential suites (`tests/fusion`,
//! `partial_agg`, `shuffle`, and the runner/shuffle unit tests), defined
//! once. They live in the library, not under `tests/`, because the
//! `shard_worker` binary must be able to rebuild them from their wire
//! forms like any other operator. Parameters are fixed: no suite varies
//! them.

use crate::operator::{Aggregate, Operator, Package};
use crate::record::{Record, Value};

fn int(r: &Record, field: &str) -> i64 {
    r.get(field).and_then(Value::as_int).unwrap_or(0)
}

/// The key every reduce under test groups by.
pub fn group_key(r: &Record) -> String {
    format!("g{}", int(r, "id") % 3)
}

pub fn stamp() -> Operator {
    Operator::map("stamp", Package::Base, |mut r| {
        let id = int(&r, "id");
        r.set("stamp", id * 3 + 1);
        r
    })
    .with_reads(&["id"])
    .with_writes(&["stamp"])
    .shipped_as("testkit.stamp", |_| {})
}

pub fn dup() -> Operator {
    Operator::flat_map("dup", Package::Base, |r| {
        let mut copy = r.clone();
        copy.set("half", 1i64);
        vec![r, copy]
    })
    .shipped_as("testkit.dup", |_| {})
}

pub fn parity() -> Operator {
    Operator::filter("parity", Package::Base, |r| int(r, "id") % 2 == 0)
        .with_reads(&["id"])
        .shipped_as("testkit.parity", |_| {})
}

pub fn grow() -> Operator {
    Operator::map("grow", Package::Base, |mut r| {
        let t = format!("{}{}", r.text().unwrap_or(""), " lorem ipsum dolor");
        r.set("text", t);
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text"])
    .shipped_as("testkit.grow", |_| {})
}

/// Reads the `stamp` field — which trips a WS001 rejection whenever it
/// lands upstream of the map that produces it, so rejected plans are
/// part of every property too.
pub fn needs_stamp() -> Operator {
    Operator::map("needs-stamp", Package::Base, |r| r)
        .with_reads(&["stamp"])
        .with_writes(&["x"])
        .shipped_as("testkit.needs_stamp", |_| {})
}

/// A combinable Count reduce fused stages extend through.
pub fn tally() -> Operator {
    Operator::reduce_agg("tally", Package::Base, group_key, Aggregate::Count { into: "id".into() })
        .shipped_as("testkit.tally", |_| {})
}
