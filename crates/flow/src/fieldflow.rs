//! Field-flow analysis: forward abstract interpretation over the logical
//! plan.
//!
//! WS001–WS012 reason one node at a time; this pass walks the whole DAG
//! once (parents always carry smaller ids, so a single forward sweep is a
//! fixpoint) and infers, for every node's *output edge*:
//!
//! - the **record schema** — which fields are definitely present, possibly
//!   present (a `maybe_writes` annotation), or absent, each with the
//!   value type its last producer declared ([`websift_analyze::lattice`]
//!   holds the domains);
//! - a **cost envelope** — closed `[lo, hi]` intervals over record count
//!   and byte volume, propagated through per-operator selectivity models:
//!   per-kind defaults, an explicit [`crate::operator::Operator::with_selectivity`]
//!   override, or ratios calibrated from a previous run's per-operator
//!   metrics (the registry's startup/per-record split already isolates the
//!   data-dependent part these ratios model).
//!
//! The one stage view is the executor's own:
//! [`crate::optimizer::plan_stages`] returns the stage decisions a fresh
//! executor run makes, by calling the function the executor calls. The
//! [`explain_plan`] report prints them with this sweep's envelopes, the
//! WS014 peak-memory pre-flight sums footprints over them, and the
//! differential proptest in `tests/explain.rs` pins them against the
//! executor's actual decisions.

use crate::analyze::AnalyzeOptions;
use crate::logical::{LogicalPlan, NodeId, NodeOp};
use crate::operator::{Kind, OpFunc, Operator};
use crate::optimizer::plan_stages;
use std::collections::BTreeMap;
use websift_analyze::lattice::{
    CostEnvelope, FieldFact, FieldSchema, FieldType, Interval, Presence,
};
use websift_observe::json::{array, str_array, ObjectWriter};

/// Assumed bytes per source record when no source estimate is given; the
/// envelope is then *relative* — "per source record" with a nominal 4 KB
/// page.
const DEFAULT_SOURCE_BYTES: f64 = 4096.0;
/// Bytes a written annotation field adds to a record.
const WRITE_FIELD_BYTES: f64 = 256.0;
/// Bytes per output record of a typed reduce (key + one aggregate value).
const REDUCE_OUTPUT_BYTES: f64 = 128.0;
/// Default fan-out ceiling for a `FlatMap` with no declared selectivity.
const FLATMAP_MAX_FANOUT: f64 = 8.0;

/// Value type of a well-known source schema field; anything else the
/// corpus reader might attach is `Unknown`.
pub fn source_field_type(field: &str) -> FieldType {
    match field {
        "id" => FieldType::Int,
        "corpus" | "text" | "url" => FieldType::Str,
        _ => FieldType::Unknown,
    }
}

/// Everything inferred for one plan edge: the record schema and the cost
/// envelope of the records flowing over it.
#[derive(Debug, Clone)]
pub struct EdgeState {
    pub schema: FieldSchema,
    pub envelope: CostEnvelope,
}

/// The result of the forward sweep: one [`EdgeState`] per node, describing
/// that node's *output*.
#[derive(Debug, Clone)]
pub struct FieldFlow {
    after: Vec<EdgeState>,
}

impl FieldFlow {
    /// State on `id`'s output edge.
    pub fn after(&self, id: NodeId) -> &EdgeState {
        &self.after[id]
    }

    /// State on `id`'s input edge (its parent's output), if it has one.
    pub fn input(&self, plan: &LogicalPlan, id: NodeId) -> Option<&EdgeState> {
        plan.nodes()[id].input.map(|p| &self.after[p])
    }
}

/// The per-kind default selectivity (output records per input record).
fn default_selectivity(kind: Kind) -> Interval {
    match kind {
        Kind::Map => Interval::point(1.0),
        Kind::Filter => Interval::new(0.0, 1.0),
        Kind::FlatMap => Interval::new(0.0, FLATMAP_MAX_FANOUT),
        Kind::Reduce => Interval::new(0.0, 1.0),
    }
}

/// One operator's record-count selectivity: calibration beats the
/// explicit annotation beats the per-kind default.
fn op_selectivity(op: &Operator, opts: &AnalyzeOptions) -> Interval {
    if let Some(&(records_ratio, _)) = opts.calibration.get(&op.name) {
        return Interval::point(records_ratio);
    }
    match op.selectivity {
        Some((lo, hi)) => Interval::new(lo, hi),
        None => default_selectivity(op.kind),
    }
}

fn declared_write_type(op: &Operator, field: &str) -> FieldType {
    op.write_types
        .iter()
        .find(|(f, _)| f == field)
        .map(|&(_, t)| t)
        .unwrap_or(FieldType::Unknown)
}

/// Schema transfer function for one operator.
fn apply_op_schema(op: &Operator, input: &FieldSchema) -> FieldSchema {
    if let OpFunc::Reduce { aggregate, .. } = op.func() {
        // A Reduce builds fresh records: `key` plus the aggregate value.
        // Everything inherited is gone.
        let (field, ty) = aggregate.output_field();
        let fact = |ty| FieldFact::definite(ty, Some(&op.name));
        return BTreeMap::from([
            ("key".to_string(), fact(FieldType::Str)),
            (field.to_string(), fact(ty)),
        ]);
    }
    let mut out = input.clone();
    for f in &op.writes {
        out.insert(f.clone(), FieldFact::definite(declared_write_type(op, f), Some(&op.name)));
    }
    for f in &op.maybe_writes {
        let written = FieldFact::definite(declared_write_type(op, f), Some(&op.name));
        let fact = match out.get(f) {
            Some(old) => old.join(&written),
            None => FieldFact { presence: Presence::Absent, ..written.clone() }.join(&written),
        };
        out.insert(f.clone(), fact);
    }
    out
}

/// Envelope transfer function for one operator.
fn apply_op_envelope(op: &Operator, input: CostEnvelope, opts: &AnalyzeOptions) -> CostEnvelope {
    let sel = op_selectivity(op, opts);
    let records = input.records.scale(sel);
    if op.kind == Kind::Reduce {
        // Reduce output records are key + aggregate value, not the input
        // payload (even a custom closure re-emits per group).
        return CostEnvelope::new(records, records.scale(Interval::point(REDUCE_OUTPUT_BYTES)));
    }
    let mut bytes = match opts.calibration.get(&op.name) {
        Some(&(_, bytes_ratio)) => input.bytes.scale(Interval::point(bytes_ratio)),
        None => input.bytes.scale(sel),
    };
    // Definite writes grow both bounds; maybe-writes only the upper one.
    bytes = bytes + records.scale(Interval::point(WRITE_FIELD_BYTES * op.writes.len() as f64));
    bytes.hi += records.hi * WRITE_FIELD_BYTES * op.maybe_writes.len() as f64;
    CostEnvelope::new(records, bytes)
}

/// Runs the forward sweep over the whole plan.
pub fn field_flow(plan: &LogicalPlan, opts: &AnalyzeOptions) -> FieldFlow {
    let (source_records, source_bytes) = match opts.source_estimate {
        Some((records, avg_bytes)) => {
            (records as f64, records as f64 * avg_bytes as f64)
        }
        None => (1.0, DEFAULT_SOURCE_BYTES),
    };
    let mut after: Vec<EdgeState> = Vec::with_capacity(plan.len());
    for node in plan.nodes() {
        let state = match &node.op {
            NodeOp::Source(_) => {
                let schema: FieldSchema = opts
                    .source_fields
                    .iter()
                    .map(|f| {
                        (f.clone(), FieldFact::definite(source_field_type(f), None))
                    })
                    .collect();
                EdgeState {
                    schema,
                    envelope: CostEnvelope::new(
                        Interval::point(source_records),
                        Interval::point(source_bytes),
                    ),
                }
            }
            NodeOp::Sink(_) => {
                let parent = node.input.expect("sinks have inputs");
                after[parent].clone()
            }
            NodeOp::Op(op) => {
                let parent = node.input.expect("ops have inputs");
                let input = &after[parent];
                EdgeState {
                    schema: apply_op_schema(op, &input.schema),
                    envelope: apply_op_envelope(op, input.envelope, opts),
                }
            }
        };
        after.push(state);
    }
    FieldFlow { after }
}

fn interval_json(i: Interval) -> String {
    let mut one = String::new();
    websift_observe::json::write_f64(&mut one, i.lo);
    one.push(',');
    websift_observe::json::write_f64(&mut one, i.hi);
    format!("[{one}]")
}

/// Renders the deterministic "explain" report: the exact stage decisions
/// a fresh run at this `fusion`/`combining` configuration makes, each with
/// its inferred cost envelope and cost-model split, plus the inferred
/// schema at every sink. Byte-stable for equal inputs.
pub fn explain_plan(
    plan: &LogicalPlan,
    opts: &AnalyzeOptions,
    fusion: bool,
    combining: bool,
) -> String {
    let flow = field_flow(plan, opts);
    let stages = plan_stages(plan, fusion, combining);

    let stage_objs = stages.iter().map(|s| {
        let members: Vec<NodeId> = (s.first..s.first + s.len).collect();
        let names: Vec<&str> = members
            .iter()
            .filter_map(|&id| match &plan.nodes()[id].op {
                NodeOp::Op(op) => Some(op.name.as_str()),
                _ => None,
            })
            .collect();
        let last = *members.last().expect("stages are non-empty");
        let input = flow.input(plan, s.first).expect("op nodes have inputs");
        let output = flow.after(last);
        let (startup_secs, us_per_char, memory_bytes) = members.iter().fold(
            (0.0f64, 0.0f64, 0u64),
            |(s0, u, m), &id| match &plan.nodes()[id].op {
                NodeOp::Op(op) => (
                    s0 + op.cost.startup_secs,
                    u + op.cost.us_per_char,
                    m + op.cost.memory_bytes,
                ),
                _ => (s0, u, m),
            },
        );
        let mut w = ObjectWriter::new();
        w.u64("first", s.first as u64)
            .raw("ops", &str_array(names))
            .str("kind", if s.len > 1 { "fused" } else { "single" });
        if s.combined_reduce {
            w.str("reduce", "combined");
        }
        w.raw("records", &interval_json(output.envelope.records))
            .raw("bytes", &interval_json(output.envelope.bytes))
            .raw("input_bytes", &interval_json(input.envelope.bytes))
            .f64("startup_secs", startup_secs)
            .f64("us_per_char", us_per_char)
            .u64("memory_bytes", memory_bytes);
        w.finish()
    });
    let stages_json = array(stage_objs);

    let sink_objs = plan.nodes().iter().filter_map(|node| {
        let NodeOp::Sink(name) = &node.op else { return None };
        let state = flow.after(node.id);
        let fields = array(state.schema.iter().map(|(field, fact)| {
            let mut w = ObjectWriter::new();
            w.str("field", field)
                .str("presence", fact.presence.as_str())
                .str("type", fact.ty.as_str());
            if let Some(p) = &fact.producer {
                w.str("producer", p);
            }
            w.finish()
        }));
        let mut w = ObjectWriter::new();
        w.str("sink", name)
            .raw("records", &interval_json(state.envelope.records))
            .raw("fields", &fields);
        Some(w.finish())
    });
    let sinks_json = array(sink_objs);

    ObjectWriter::new()
        .str("fusion", if fusion { "on" } else { "off" })
        .str("combining", if combining { "on" } else { "off" })
        .raw("stages", &stages_json)
        .raw("sinks", &sinks_json)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Aggregate, Operator, Package};
    use crate::record::Record;

    fn map(name: &str, reads: &[&str], writes: &[&str]) -> Operator {
        Operator::map(name, Package::Ie, |r| r).with_reads(reads).with_writes(writes)
    }

    #[test]
    fn schema_tracks_presence_and_types() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let s = plan
            .add(
                src,
                map("sentences", &["text"], &["sentences"])
                    .with_write_types(&[("sentences", FieldType::Array)]),
            )
            .unwrap();
        let n = plan
            .add(
                s,
                map("negation", &["sentences"], &[]).with_maybe_writes(&["negation"]),
            )
            .unwrap();
        let sink = plan.sink(n, "out").unwrap();
        let flow = field_flow(&plan, &AnalyzeOptions::default());

        let at_sink = &flow.after(sink).schema;
        assert_eq!(at_sink["text"].presence, Presence::Definite);
        assert_eq!(at_sink["text"].ty, FieldType::Str);
        assert_eq!(at_sink["sentences"].presence, Presence::Definite);
        assert_eq!(at_sink["sentences"].ty, FieldType::Array);
        assert_eq!(at_sink["sentences"].producer.as_deref(), Some("sentences"));
        // maybe_writes on a previously-absent field => possibly present
        assert_eq!(at_sink["negation"].presence, Presence::Possible);
    }

    #[test]
    fn typed_reduce_replaces_the_schema() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(
                src,
                Operator::reduce_agg(
                    "tally",
                    Package::Base,
                    |r: &Record, k: &mut String| k.push_str(&format!("{:?}", r.get("corpus"))),
                    Aggregate::Count { into: "count".into() },
                ),
            )
            .unwrap();
        let sink = plan.sink(r, "out").unwrap();
        let flow = field_flow(&plan, &AnalyzeOptions::default());
        let schema = &flow.after(sink).schema;
        assert_eq!(schema.len(), 2, "{schema:?}");
        assert_eq!(schema["key"].ty, FieldType::Str);
        assert_eq!(schema["count"].ty, FieldType::Int);
        assert!(!schema.contains_key("text"), "inherited fields are dropped");
    }

    #[test]
    fn envelopes_compose_selectivities() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let split = plan
            .add(
                src,
                Operator::flat_map("split", Package::Ie, |r| vec![r]).with_selectivity(4.0, 6.0),
            )
            .unwrap();
        let keep = plan
            .add(split, Operator::filter("keep", Package::Base, |_| true).with_reads(&["text"]))
            .unwrap();
        let sink = plan.sink(keep, "out").unwrap();

        let opts = AnalyzeOptions::default().with_source_estimate(1000, 2048);
        let flow = field_flow(&plan, &opts);
        assert_eq!(flow.after(src).envelope.records, Interval::point(1000.0));
        assert_eq!(flow.after(split).envelope.records, Interval::new(4000.0, 6000.0));
        let out = flow.after(sink).envelope;
        assert_eq!(out.records, Interval::new(0.0, 6000.0), "filter keeps [0,1]");
        assert!(out.bytes.hi >= 2048.0 * 1000.0 * 6.0, "bytes scale with fan-out");
    }

    #[test]
    fn calibration_overrides_defaults() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let keep = plan
            .add(src, Operator::filter("keep", Package::Base, |_| true).with_reads(&["text"]))
            .unwrap();
        let sink = plan.sink(keep, "out").unwrap();
        let opts = AnalyzeOptions::default()
            .with_source_estimate(1000, 1000)
            .with_calibration("keep", 0.25, 0.25);
        let flow = field_flow(&plan, &opts);
        let out = flow.after(sink).envelope;
        assert_eq!(out.records, Interval::point(250.0));
        assert_eq!(out.bytes, Interval::point(250_000.0));
    }

    #[test]
    fn explain_is_byte_stable_and_names_stages() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, map("sentences", &["text"], &["sentences"])).unwrap();
        let b = plan
            .add(a, Operator::filter("keep", Package::Base, |_| true).with_reads(&["sentences"]))
            .unwrap();
        plan.sink(b, "out").unwrap();
        let opts = AnalyzeOptions::default();
        let one = explain_plan(&plan, &opts, true, true);
        let two = explain_plan(&plan, &opts, true, true);
        assert_eq!(one, two, "explain output must be byte-stable");
        assert!(one.contains(r#""ops":["sentences","keep"]"#), "{one}");
        assert!(one.contains(r#""kind":"fused""#), "{one}");
        let unfused = explain_plan(&plan, &opts, false, true);
        assert!(unfused.contains(r#""kind":"single""#), "{unfused}");
    }
}
