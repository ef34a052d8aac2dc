//! The operator model: UDF-bearing operators with semantic and resource
//! annotations.
//!
//! Stratosphere organizes its ~60 operators into four packages (BASE, IE,
//! WA, DC) and optimizes UDF-heavy flows using *semantic annotations* —
//! which record fields an operator reads and writes (the SOFA optimizer the
//! authors cite is built on exactly that idea). Each operator here carries:
//!
//! - its **package** and **kind** (map / flat-map / filter / reduce);
//! - **reads/writes field sets** driving the reordering rules;
//! - a **cost model** (startup seconds, per-worker memory at paper scale,
//!   per-character processing cost, optional quadratic blow-up) that the
//!   simulated cluster uses for admission control and for the scale-out /
//!   scale-up experiments;
//! - an optional **library dependency** `(name, major version)` — the
//!   ingredient of the paper's OpenNLP 1.4-vs-1.5 class-loader war story.

use crate::record::{Record, Span, Value};
use std::cmp::Ordering;
use std::sync::Arc;
use websift_analyze::lattice::FieldType;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

/// Operator package, per the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Package {
    /// Relational/general-purpose operators.
    Base,
    /// Information extraction (NLP + NER).
    Ie,
    /// Web analytics (markup handling, link extraction).
    Wa,
    /// Data cleansing.
    Dc,
}

/// Execution kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1:1 record transform.
    Map,
    /// 1:N record transform.
    FlatMap,
    /// Predicate.
    Filter,
    /// Keyed aggregation (forces a shuffle).
    Reduce,
}

/// Resource/cost annotations at paper scale, consumed by the simulated
/// cluster (admission control, Figs. 4/5) — not by the real executor,
/// which measures wall time directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-time per-worker startup in simulated seconds (dictionary loads).
    pub startup_secs: f64,
    /// Resident memory per worker thread in bytes at paper scale.
    pub memory_bytes: u64,
    /// Per-character processing cost in simulated microseconds.
    pub us_per_char: f64,
    /// If set, cost grows quadratically: multiplied by `chars / quad_ref`.
    pub quadratic_ref: Option<f64>,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            startup_secs: 0.0,
            memory_bytes: 64 << 20, // 64 MB baseline per worker
            us_per_char: 0.01,
            quadratic_ref: None,
        }
    }
}

impl CostModel {
    /// Simulated processing cost of one record with `chars` characters of
    /// text, in seconds.
    pub fn record_cost_secs(&self, chars: usize) -> f64 {
        let mut us = self.us_per_char * chars as f64;
        if let Some(reference) = self.quadratic_ref {
            us *= 1.0 + chars as f64 / reference;
        }
        us / 1e6
    }
}

/// A reduce operator's grouping-key function: writes the key of a record
/// into a buffer the caller has cleared. Callers reuse one buffer across
/// records and allocate an owned key only for a key they have not seen,
/// so a key function that writes without allocating keys a record
/// without an allocation.
pub type KeyFn = Arc<dyn Fn(&Record, &mut String) + Send + Sync>;

/// A total order over [`Value`]s, used by `Min`/`Max`/`TopK` aggregates.
/// Values of different types order by type tag (Null < Bool < Int < Float
/// < Str < Array < Object); floats use IEEE `total_cmp` so NaN has a
/// stable place. Crucially, `Equal` implies the two values are
/// structurally identical, which is what makes tie-breaks in partial
/// aggregation interchangeable with the serial path. A packed
/// [`Value::Spans`] is the array of `{end, start}` objects it spells and
/// orders exactly as that array would.
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Array(_) | Value::Spans(_) => 5,
            Value::Object(_) => 6,
        }
    }
    fn spans_vs_plain(x: &[Span], y: &[Value]) -> Ordering {
        for (xs, yv) in x.iter().zip(y) {
            match value_cmp(&Value::from(*xs), yv) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        x.len().cmp(&y.len())
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_ref().cmp(y.as_ref()),
        (Value::Array(x), Value::Array(y)) => {
            for (xv, yv) in x.iter().zip(y.iter()) {
                match value_cmp(xv, yv) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            x.len().cmp(&y.len())
        }
        // objects compare key by key in sorted order: `end` before `start`
        (Value::Spans(x), Value::Spans(y)) => {
            x.iter().map(|s| (s.end, s.start)).cmp(y.iter().map(|s| (s.end, s.start)))
        }
        (Value::Spans(x), Value::Array(y)) => spans_vs_plain(x, y),
        (Value::Array(x), Value::Spans(y)) => spans_vs_plain(y, x).reverse(),
        (Value::Object(x), Value::Object(y)) => {
            for ((xk, xv), (yk, yv)) in x.iter().zip(y.iter()) {
                match xk.cmp(yk).then_with(|| value_cmp(xv, yv)) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// A typed reduce aggregation — the only kind of Reduce there is. Every
/// variant is associative and has an exact merge, so the executor may
/// pre-aggregate partial results inside fused workers and merge at the
/// stage boundary without changing any output byte, and a live session
/// may retain and fold per-key state across rounds.
#[derive(Clone)]
pub enum Aggregate {
    /// Group size, emitted as `Int` under `into`.
    Count { into: String },
    /// Wrapping sum of the `Int` values of `field` (non-`Int` values count
    /// as 0), emitted under `into`.
    Sum { field: String, into: String },
    /// Smallest value of `field` under [`value_cmp`]; records without the
    /// field contribute nothing. `Null` if no record carried the field.
    Min { field: String, into: String },
    /// Largest value of `field` under [`value_cmp`], same conventions.
    Max { field: String, into: String },
    /// String values of `field` joined with `sep` in record order.
    Concat { field: String, sep: String, into: String },
    /// The `k` largest values of `field` under [`value_cmp`], descending,
    /// emitted as an `Array` under `into`.
    TopK { field: String, k: usize, into: String },
}

/// Partial-aggregate state for one key, accumulated per fused worker and
/// merged at the stage boundary. Byte-deterministic via [`Snapshot`] so
/// checkpoint frames can land inside a fused Reduce stage.
#[derive(Clone, Debug, PartialEq)]
pub enum AggState {
    Count(i64),
    Sum(i64),
    MinMax(Option<Value>),
    Concat(Option<String>),
    TopK(Vec<Value>),
}

impl Snapshot for AggState {
    fn encode(&self, w: &mut Writer) {
        match self {
            AggState::Count(n) => {
                w.u8(0);
                w.i64(*n);
            }
            AggState::Sum(n) => {
                w.u8(1);
                w.i64(*n);
            }
            AggState::MinMax(v) => {
                w.u8(2);
                w.bool(v.is_some());
                if let Some(v) = v {
                    v.encode(w);
                }
            }
            AggState::Concat(s) => {
                w.u8(3);
                w.bool(s.is_some());
                if let Some(s) = s {
                    w.str(s);
                }
            }
            AggState::TopK(vs) => {
                w.u8(4);
                vs.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<AggState, CodecError> {
        Ok(match r.u8()? {
            0 => AggState::Count(r.i64()?),
            1 => AggState::Sum(r.i64()?),
            2 => AggState::MinMax(if r.bool()? { Some(Value::decode(r)?) } else { None }),
            3 => AggState::Concat(if r.bool()? { Some(r.str()?) } else { None }),
            4 => AggState::TopK(Snapshot::decode(r)?),
            tag => return Err(CodecError::BadTag { what: "AggState", tag }),
        })
    }
}

impl Aggregate {
    /// Fresh per-key state.
    pub fn seed(&self) -> AggState {
        match self {
            Aggregate::Count { .. } => AggState::Count(0),
            Aggregate::Sum { .. } => AggState::Sum(0),
            Aggregate::Min { .. } | Aggregate::Max { .. } => AggState::MinMax(None),
            Aggregate::Concat { .. } => AggState::Concat(None),
            Aggregate::TopK { .. } => AggState::TopK(Vec::new()),
        }
    }

    /// Is `state` a partial this aggregate can fold, merge and finish —
    /// the variant its own [`Aggregate::seed`] has? A state that crossed
    /// a process or frame boundary is checked here before it reaches
    /// those three, whose mismatch arms are unreachable for admitted
    /// states.
    pub fn admits(&self, state: &AggState) -> bool {
        std::mem::discriminant(&self.seed()) == std::mem::discriminant(state)
    }

    /// Folds one record into a partial state.
    pub fn fold(&self, state: &mut AggState, r: &Record) {
        match (self, state) {
            (Aggregate::Count { .. }, AggState::Count(n)) => *n = n.wrapping_add(1),
            (Aggregate::Sum { field, .. }, AggState::Sum(n)) => {
                *n = n.wrapping_add(r.get(field).and_then(Value::as_int).unwrap_or(0));
            }
            (Aggregate::Min { field, .. }, AggState::MinMax(cur)) => {
                if let Some(v) = r.get(field) {
                    let replace =
                        cur.as_ref().is_none_or(|c| value_cmp(v, c) == Ordering::Less);
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            (Aggregate::Max { field, .. }, AggState::MinMax(cur)) => {
                if let Some(v) = r.get(field) {
                    let replace =
                        cur.as_ref().is_none_or(|c| value_cmp(v, c) == Ordering::Greater);
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            (Aggregate::Concat { field, sep, .. }, AggState::Concat(acc)) => {
                if let Some(s) = r.get(field).and_then(Value::as_str) {
                    match acc {
                        Some(joined) => {
                            joined.push_str(sep);
                            joined.push_str(s);
                        }
                        None => *acc = Some(s.to_string()),
                    }
                }
            }
            (Aggregate::TopK { field, k, .. }, AggState::TopK(vs)) => {
                if let Some(v) = r.get(field) {
                    // Sorted descending; equal values keep arrival order
                    // (ties compare Equal only when structurally identical,
                    // so the choice cannot show in the output).
                    let at = vs.partition_point(|x| value_cmp(x, v) != Ordering::Less);
                    vs.insert(at, v.clone());
                    vs.truncate(*k);
                }
            }
            _ => unreachable!("aggregate/state variant mismatch"),
        }
    }

    /// Merges a later partial into an earlier one. Exactness: for every
    /// built-in, `merge(fold(xs), fold(ys)) == fold(xs ++ ys)` — the
    /// property the differential suite exercises.
    pub fn merge(&self, left: &mut AggState, right: AggState) {
        match (left, right) {
            (AggState::Count(l), AggState::Count(r)) => *l = l.wrapping_add(r),
            (AggState::Sum(l), AggState::Sum(r)) => *l = l.wrapping_add(r),
            (AggState::MinMax(l), AggState::MinMax(r)) => {
                let keep_right = match (&l, &r) {
                    (Some(lv), Some(rv)) => {
                        let want = match self {
                            Aggregate::Min { .. } => Ordering::Less,
                            _ => Ordering::Greater,
                        };
                        value_cmp(rv, lv) == want
                    }
                    (None, Some(_)) => true,
                    _ => false,
                };
                if keep_right {
                    *l = r;
                }
            }
            (AggState::Concat(l), AggState::Concat(r)) => {
                let sep = match self {
                    Aggregate::Concat { sep, .. } => sep.as_str(),
                    _ => "",
                };
                match (l.as_mut(), r) {
                    (Some(joined), Some(r)) => {
                        joined.push_str(sep);
                        joined.push_str(&r);
                    }
                    (None, Some(r)) => *l = Some(r),
                    _ => {}
                }
            }
            (AggState::TopK(l), AggState::TopK(r)) => {
                let k = match self {
                    Aggregate::TopK { k, .. } => *k,
                    _ => usize::MAX,
                };
                let mut merged = Vec::with_capacity((l.len() + r.len()).min(k));
                let (mut li, mut ri) = (0, 0);
                while merged.len() < k && (li < l.len() || ri < r.len()) {
                    let take_left = li < l.len()
                        && (ri >= r.len() || value_cmp(&l[li], &r[ri]) != Ordering::Less);
                    if take_left {
                        merged.push(l[li].clone());
                        li += 1;
                    } else {
                        merged.push(r[ri].clone());
                        ri += 1;
                    }
                }
                *l = merged;
            }
            _ => unreachable!("aggregate state variant mismatch in merge"),
        }
    }

    /// Emits the final record for one key.
    pub fn finish(&self, key: &str, state: AggState) -> Vec<Record> {
        let (into, value) = match (self, state) {
            (Aggregate::Count { into }, AggState::Count(n)) => (into, Value::Int(n)),
            (Aggregate::Sum { into, .. }, AggState::Sum(n)) => (into, Value::Int(n)),
            (Aggregate::Min { into, .. } | Aggregate::Max { into, .. }, AggState::MinMax(v)) => {
                (into, v.unwrap_or(Value::Null))
            }
            (Aggregate::Concat { into, .. }, AggState::Concat(s)) => {
                (into, s.map(Value::from).unwrap_or(Value::Null))
            }
            (Aggregate::TopK { into, .. }, AggState::TopK(vs)) => (into, Value::Array(vs)),
            _ => unreachable!("aggregate/state variant mismatch in finish"),
        };
        let mut out = Record::new();
        out.set("key", key).set(into, value);
        vec![out]
    }

    /// The output field the aggregate writes and the type it carries,
    /// for the field-flow schema inference.
    pub fn output_field(&self) -> (&str, FieldType) {
        match self {
            Aggregate::Count { into } | Aggregate::Sum { into, .. } => (into, FieldType::Int),
            // Min/Max carry whatever type the source field had — and Null
            // for empty groups — so the output type stays Unknown.
            Aggregate::Min { into, .. } | Aggregate::Max { into, .. } => {
                (into, FieldType::Unknown)
            }
            // Concat emits Null when no record carried the field.
            Aggregate::Concat { into, .. } => (into, FieldType::Unknown),
            Aggregate::TopK { into, .. } => (into, FieldType::Array),
        }
    }

    /// Applies the aggregate to one complete group — the serial path:
    /// seed → fold each record in order → finish, so it agrees with any
    /// fold/merge split by construction.
    pub fn apply_group(&self, key: &str, records: Vec<Record>) -> Vec<Record> {
        let mut state = self.seed();
        for r in &records {
            self.fold(&mut state, r);
        }
        self.finish(key, state)
    }
}

/// The UDF payload.
#[derive(Clone)]
pub enum OpFunc {
    Map(Arc<dyn Fn(Record) -> Record + Send + Sync>),
    FlatMap(Arc<dyn Fn(Record) -> Vec<Record> + Send + Sync>),
    Filter(Arc<dyn Fn(&Record) -> bool + Send + Sync>),
    Reduce {
        key: KeyFn,
        aggregate: Aggregate,
    },
}

/// What crosses a process boundary in place of an operator's closure:
/// the name of the `packages::*` constructor that built it and that
/// constructor's encoded arguments. A worker shard rebuilds the operator
/// by calling the same constructor (see [`crate::packages::wire`]), so
/// parent and worker run one definition of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireForm {
    pub factory: &'static str,
    pub params: Vec<u8>,
}

/// An operator instance.
#[derive(Clone)]
pub struct Operator {
    pub name: String,
    pub package: Package,
    pub kind: Kind,
    /// Record fields the UDF reads (semantic annotation).
    pub reads: Vec<String>,
    /// Record fields the UDF writes (semantic annotation).
    pub writes: Vec<String>,
    /// Fields the UDF writes only on *some* records (e.g. an annotator
    /// that tags matches and passes non-matches through untouched).
    /// Downstream these are possibly-present, never definite.
    pub maybe_writes: Vec<String>,
    /// Declared value types for read fields; the field-flow analysis
    /// checks them against what upstream writers declared (WS013).
    pub read_types: Vec<(String, FieldType)>,
    /// Declared value types for written fields, consumed by the field-flow
    /// schema inference.
    pub write_types: Vec<(String, FieldType)>,
    /// Output-records-per-input-record range, overriding the per-kind
    /// default selectivity in the cost-envelope propagation.
    pub selectivity: Option<(f64, f64)>,
    pub cost: CostModel,
    /// External library dependency `(name, major version)`.
    pub library: Option<(String, u32)>,
    wire: Option<WireForm>,
    func: OpFunc,
}

impl std::fmt::Debug for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Operator")
            .field("name", &self.name)
            .field("package", &self.package)
            .field("kind", &self.kind)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl Operator {
    pub fn map(
        name: &str,
        package: Package,
        f: impl Fn(Record) -> Record + Send + Sync + 'static,
    ) -> Operator {
        Operator {
            name: name.to_string(),
            package,
            kind: Kind::Map,
            reads: Vec::new(),
            writes: Vec::new(),
            maybe_writes: Vec::new(),
            read_types: Vec::new(),
            write_types: Vec::new(),
            selectivity: None,
            cost: CostModel::default(),
            library: None,
            wire: None,
            func: OpFunc::Map(Arc::new(f)),
        }
    }

    pub fn flat_map(
        name: &str,
        package: Package,
        f: impl Fn(Record) -> Vec<Record> + Send + Sync + 'static,
    ) -> Operator {
        Operator {
            kind: Kind::FlatMap,
            func: OpFunc::FlatMap(Arc::new(f)),
            ..Operator::map(name, package, |r| r)
        }
    }

    pub fn filter(
        name: &str,
        package: Package,
        f: impl Fn(&Record) -> bool + Send + Sync + 'static,
    ) -> Operator {
        Operator {
            kind: Kind::Filter,
            func: OpFunc::Filter(Arc::new(f)),
            ..Operator::map(name, package, |r| r)
        }
    }

    /// A reduce: records grouped by `key` (a [`KeyFn`] body), each group
    /// folded by a typed aggregate — eligible for partial aggregation
    /// inside fused stages.
    pub fn reduce_agg(
        name: &str,
        package: Package,
        key: impl Fn(&Record, &mut String) + Send + Sync + 'static,
        aggregate: Aggregate,
    ) -> Operator {
        Operator {
            kind: Kind::Reduce,
            func: OpFunc::Reduce { key: Arc::new(key), aggregate },
            ..Operator::map(name, package, |r| r)
        }
    }

    /// Declares the fields read (builder style).
    pub fn with_reads(mut self, fields: &[&str]) -> Operator {
        self.reads = fields.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declares the fields written.
    pub fn with_writes(mut self, fields: &[&str]) -> Operator {
        self.writes = fields.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declares fields written only on some records (conditionally
    /// present downstream).
    pub fn with_maybe_writes(mut self, fields: &[&str]) -> Operator {
        self.maybe_writes = fields.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declares the value types this operator expects on fields it reads.
    pub fn with_read_types(mut self, types: &[(&str, FieldType)]) -> Operator {
        self.read_types = types.iter().map(|(f, t)| (f.to_string(), *t)).collect();
        // A typed read is a read: keeping `read_types ⊆ reads` is what lets
        // the optimizer's disjointness rules guarantee no rewrite moves a
        // typed reader past the writer it was checked against (the WS013
        // verdict-invariance the analyze proptest pins).
        for (f, _) in &self.read_types {
            if !self.reads.contains(f) {
                self.reads.push(f.clone());
            }
        }
        self
    }

    /// Declares the value types this operator writes.
    pub fn with_write_types(mut self, types: &[(&str, FieldType)]) -> Operator {
        self.write_types = types.iter().map(|(f, t)| (f.to_string(), *t)).collect();
        self
    }

    /// Declares the output-records-per-input-record range, overriding the
    /// per-kind default in cost-envelope propagation (e.g. a calibrated
    /// sentence splitter averaging 4–6 sentences per document).
    pub fn with_selectivity(mut self, lo: f64, hi: f64) -> Operator {
        self.selectivity = Some((lo.min(hi), lo.max(hi)));
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> Operator {
        self.cost = cost;
        self
    }

    pub fn with_library(mut self, name: &str, major: u32) -> Operator {
        self.library = Some((name.to_string(), major));
        self
    }

    /// Stamps the wire form: called by the `packages::*` constructor
    /// that built the closure, naming itself and encoding its own
    /// arguments, so [`crate::packages::wire`] can call it again in a
    /// worker process.
    pub(crate) fn shipped_as(
        mut self,
        factory: &'static str,
        params: impl FnOnce(&mut Writer),
    ) -> Operator {
        let mut w = Writer::new();
        params(&mut w);
        self.wire = Some(WireForm { factory, params: w.into_bytes() });
        self
    }

    /// The wire form, when a `packages::*` constructor built this
    /// operator. Closure-built operators have none and pin their stage
    /// to the local runner under sharding.
    pub fn wire(&self) -> Option<&WireForm> {
        self.wire.as_ref()
    }

    pub fn func(&self) -> &OpFunc {
        &self.func
    }

    /// Can this operator be chained into a pipeline stage (no shuffle)?
    pub fn is_pipelineable(&self) -> bool {
        self.kind != Kind::Reduce
    }

    /// Applies the operator to a batch sequentially (the executor handles
    /// parallelism; this is also the unit-test entry point).
    pub fn apply(&self, input: Vec<Record>) -> Vec<Record> {
        match &self.func {
            OpFunc::Map(f) => input.into_iter().map(|r| f(r)).collect(),
            OpFunc::FlatMap(f) => input.into_iter().flat_map(|r| f(r)).collect(),
            OpFunc::Filter(f) => input.into_iter().filter(|r| f(r)).collect(),
            OpFunc::Reduce { key, aggregate } => {
                use std::collections::BTreeMap;
                let mut groups: BTreeMap<String, Vec<Record>> = BTreeMap::new();
                let mut k = String::new();
                for r in input {
                    k.clear();
                    key(&r, &mut k);
                    match groups.get_mut(k.as_str()) {
                        Some(group) => group.push(r),
                        None => {
                            groups.insert(k.clone(), vec![r]);
                        }
                    }
                }
                groups
                    .into_iter()
                    .flat_map(|(k, rs)| aggregate.apply_group(&k, rs))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{intern, Value};

    fn rec(id: i64) -> Record {
        let mut r = Record::new();
        r.set("id", id).set("text", format!("doc {id}"));
        r
    }

    #[test]
    fn map_applies_to_each_record() {
        let op = Operator::map("bump", Package::Base, |mut r| {
            let id = r.get("id").unwrap().as_int().unwrap();
            r.set("id", id + 1);
            r
        });
        let out = op.apply(vec![rec(1), rec(2)]);
        assert_eq!(out[0].get("id").unwrap().as_int(), Some(2));
        assert_eq!(out[1].get("id").unwrap().as_int(), Some(3));
    }

    #[test]
    fn flat_map_changes_cardinality() {
        let op = Operator::flat_map("dup", Package::Base, |r| vec![r.clone(), r]);
        assert_eq!(op.apply(vec![rec(1)]).len(), 2);
    }

    #[test]
    fn filter_drops_records() {
        let op = Operator::filter("odd", Package::Base, |r| {
            r.get("id").unwrap().as_int().unwrap() % 2 == 1
        });
        let out = op.apply(vec![rec(1), rec(2), rec(3)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn reduce_groups_by_key() {
        let op = Operator::reduce_agg(
            "count-by-parity",
            Package::Base,
            |r, k| k.push_str(&(r.get("id").unwrap().as_int().unwrap() % 2).to_string()),
            Aggregate::Count { into: "count".into() },
        );
        let out = op.apply(vec![rec(1), rec(2), rec(3), rec(4), rec(5)]);
        assert_eq!(out.len(), 2);
        // BTreeMap ordering: "0" then "1"
        assert_eq!(out[0].get("count").unwrap().as_int(), Some(2));
        assert_eq!(out[1].get("count").unwrap().as_int(), Some(3));
    }

    #[test]
    fn cost_model_linear_and_quadratic() {
        let lin = CostModel {
            us_per_char: 1.0,
            ..CostModel::default()
        };
        assert!((lin.record_cost_secs(1000) - 1e-3).abs() < 1e-12);
        let quad = CostModel {
            us_per_char: 1.0,
            quadratic_ref: Some(100.0),
            ..CostModel::default()
        };
        // 1000 chars: 1000us * (1 + 10) = 11ms
        assert!((quad.record_cost_secs(1000) - 11e-3).abs() < 1e-9);
        assert!(quad.record_cost_secs(2000) > 3.0 * quad.record_cost_secs(1000));
    }

    #[test]
    fn annotations_and_builders() {
        let op = Operator::map("x", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["pos"])
            .with_library("opennlp", 15)
            .with_cost(CostModel {
                memory_bytes: 123,
                ..CostModel::default()
            });
        assert_eq!(op.reads, vec!["text"]);
        assert_eq!(op.writes, vec!["pos"]);
        assert_eq!(op.library, Some(("opennlp".to_string(), 15)));
        assert_eq!(op.cost.memory_bytes, 123);
        assert!(op.is_pipelineable());
    }

    #[test]
    fn field_flow_annotations() {
        let op = Operator::map("x", Package::Ie, |r| r)
            .with_read_types(&[("text", FieldType::Str)])
            .with_write_types(&[("pos", FieldType::Array)])
            .with_maybe_writes(&["negation"])
            .with_selectivity(6.0, 4.0); // flipped bounds normalize
        assert_eq!(op.read_types, vec![("text".to_string(), FieldType::Str)]);
        assert_eq!(op.reads, vec!["text"], "a typed read implies a read");
        assert_eq!(op.write_types, vec![("pos".to_string(), FieldType::Array)]);
        assert_eq!(op.maybe_writes, vec!["negation"]);
        assert_eq!(op.selectivity, Some((4.0, 6.0)));
    }

    #[test]
    fn aggregate_output_fields_typed() {
        assert_eq!(Aggregate::Count { into: "n".into() }.output_field(), ("n", FieldType::Int));
        assert_eq!(
            Aggregate::TopK { field: "x".into(), k: 3, into: "top".into() }.output_field(),
            ("top", FieldType::Array)
        );
        assert_eq!(
            Aggregate::Min { field: "x".into(), into: "min".into() }.output_field(),
            ("min", FieldType::Unknown)
        );
    }

    #[test]
    fn value_untouched_by_identity() {
        let op = Operator::map("id", Package::Base, |r| r);
        let input = vec![rec(9)];
        let out = op.apply(input.clone());
        assert_eq!(out[0].get("text"), Some(&Value::Str("doc 9".into())));
        assert_eq!(out, input);
    }

    /// Every typed aggregate under test, with a field mix that exercises
    /// missing fields, wrong types, ties, and NaN.
    fn agg_pool() -> Vec<Aggregate> {
        vec![
            Aggregate::Count { into: "n".into() },
            Aggregate::Sum { field: "x".into(), into: "sum".into() },
            Aggregate::Min { field: "x".into(), into: "min".into() },
            Aggregate::Max { field: "x".into(), into: "max".into() },
            Aggregate::Concat { field: "text".into(), sep: "|".into(), into: "cat".into() },
            Aggregate::TopK { field: "x".into(), k: 3, into: "top".into() },
        ]
    }

    fn agg_records() -> Vec<Record> {
        let mut rs: Vec<Record> = (0..7i64).map(|i| rec(i % 3)).collect();
        rs[0].set("x", 5i64);
        rs[1].set("x", Value::Float(f64::NAN));
        rs[2].set("x", 5i64); // tie with rs[0]
        rs[3].set("x", Value::Float(-0.0));
        rs[4].remove("text"); // Concat skips this one
        rs[5].set("x", "str-typed"); // Sum treats as 0, Min/Max by value_cmp
        rs
    }

    /// Byte-exact comparison key: `PartialEq` on records sees
    /// `NaN != NaN`, but the equivalence contract is codec-byte identity.
    fn records_bytes(rs: &[Record]) -> Vec<u8> {
        let mut w = Writer::new();
        for r in rs {
            r.encode(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn fold_merge_agrees_with_serial_apply_group_at_every_split() {
        let records = agg_records();
        for agg in agg_pool() {
            let serial = records_bytes(&agg.apply_group("k", records.clone()));
            for split in 0..=records.len() {
                let (a, b) = records.split_at(split);
                let mut left = agg.seed();
                for r in a {
                    agg.fold(&mut left, r);
                }
                let mut right = agg.seed();
                for r in b {
                    agg.fold(&mut right, r);
                }
                agg.merge(&mut left, right);
                assert_eq!(
                    records_bytes(&agg.finish("k", left)),
                    serial,
                    "split {split} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn agg_state_codec_roundtrips() {
        let states = vec![
            AggState::Count(42),
            AggState::Sum(-7),
            AggState::MinMax(None),
            AggState::MinMax(Some(Value::Float(f64::NAN))),
            AggState::Concat(None),
            AggState::Concat(Some("a|b".into())),
            AggState::TopK(vec![Value::Int(3), Value::Int(1)]),
        ];
        for s in states {
            let mut w = Writer::new();
            s.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = AggState::decode(&mut r).unwrap();
            // compare re-encoded bytes, not PartialEq: NaN != NaN but the
            // roundtrip must preserve the exact bits
            let mut w2 = Writer::new();
            back.encode(&mut w2);
            assert_eq!(w2.into_bytes(), bytes, "{s:?} did not roundtrip");
        }
    }

    #[test]
    fn value_cmp_is_a_total_order_with_identity_ties() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(-1),
            Value::Int(2),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::from("a"),
            Value::from("b"),
            Value::Array(vec![Value::Int(1)]),
            Value::Object([(intern("k"), Value::Int(1))].into_iter().collect()),
        ];
        for a in &vals {
            assert_eq!(value_cmp(a, a), Ordering::Equal);
            for b in &vals {
                assert_eq!(value_cmp(a, b), value_cmp(b, a).reverse());
            }
        }
        // Equal only for bit-identical floats: -0.0 < +0.0 under total_cmp.
        assert_eq!(value_cmp(&Value::Float(-0.0), &Value::Float(0.0)), Ordering::Less);
        // Cross-type ordering is by tag rank.
        assert_eq!(value_cmp(&Value::Int(999), &Value::Float(-1.0)), Ordering::Less);
    }

    #[test]
    fn reduce_agg_count_matches_custom_closure() {
        let key = |r: &Record| (r.get("id").unwrap().as_int().unwrap() % 2).to_string();
        let typed = Operator::reduce_agg(
            "count",
            Package::Base,
            move |r, k| k.push_str(&key(r)),
            Aggregate::Count { into: "count".into() },
        );
        // the same reduction spelled out by hand: group, then count
        let custom = |input: &[Record]| {
            let mut groups = std::collections::BTreeMap::<String, i64>::new();
            for r in input {
                *groups.entry(key(r)).or_default() += 1;
            }
            let row = |(k, n): (String, i64)| {
                let mut out = Record::new();
                out.set("key", k).set("count", n);
                out
            };
            groups.into_iter().map(row).collect::<Vec<_>>()
        };
        let input: Vec<Record> = (0..9i64).map(rec).collect();
        assert_eq!(typed.apply(input.clone()), custom(&input));
    }

    #[test]
    fn admits_exactly_the_state_its_own_seed_has() {
        let states = [
            AggState::Count(1),
            AggState::Sum(1),
            AggState::MinMax(None),
            AggState::Concat(None),
            AggState::TopK(Vec::new()),
        ];
        for agg in agg_pool() {
            assert!(agg.admits(&agg.seed()));
            let admitted = states.iter().filter(|s| agg.admits(s)).count();
            assert_eq!(admitted, 1, "one state variant per aggregate");
        }
    }
}
