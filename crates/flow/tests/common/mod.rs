//! Helpers shared by the differential suites (`fusion`, `partial_agg`,
//! `shuffle`): the total-operator vocabulary, plan shapes, input
//! documents, and the flattened deterministic surface two runs are
//! compared on. Each suite uses a subset.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;
use websift_analyze::diagnostics_to_json;
use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::{
    Aggregate, ExecutionConfig, ExecutionError, Executor, FlowCheckpoint, FlowResilience,
    LogicalPlan, Operator, Package, Record, RunOptions,
};
use websift_observe::{Observer, RegistrySnapshot};
use websift_resilience::{Snapshot, Writer};

pub use websift_flow::packages::testkit::{
    dup, group_key, grow, metric_fields, needs_stamp, parity, stamp, tally,
};

/// A grouping reduce that joins each group's texts in record order —
/// order-sensitive, so any slip in chunk-order merging shows — built from
/// a closure key rather than a `packages::*` constructor: the one
/// operator here with no wire form, so under sharding it pins its stage
/// local.
pub fn group_reduce() -> Operator {
    let concat = Aggregate::Concat { field: "text".into(), sep: "|".into(), into: "text".into() };
    Operator::reduce_agg("group", Package::Base, group_key, concat)
}

/// The vocabulary of total (never-panicking) operators — the library's
/// `testkit` set, shippable to worker shards, plus the closure-built
/// `group_reduce` at index 3: stamping map, duplicating flat-map, parity
/// filter, closure-keyed grouping reduce, byte-growing map, the
/// WS001-tripping `needs-stamp`, and (index 6) the packaged Count reduce.
pub fn pool_op(idx: usize) -> Operator {
    match idx {
        0 => stamp(),
        1 => dup(),
        2 => parity(),
        3 => group_reduce(),
        4 => grow(),
        5 => needs_stamp(),
        _ => tally(),
    }
}

/// source -> `op(i)` for each index -> sink "out".
pub fn chain_plan(op: fn(usize) -> Operator, indices: &[usize]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("in");
    for &i in indices {
        prev = plan.add(prev, op(i)).expect("chain plan");
    }
    plan.sink(prev, "out").expect("chain plan");
    plan
}

/// stamp -> dup -> parity -> grow -> sink "out", with a side branch
/// hanging off the node at `branch_at` (1-based into the chain) feeding
/// a second sink — the fan-out shape the fused executor tees.
pub fn fan_out_plan(op: fn(usize) -> Operator, branch_at: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut chain = vec![plan.source("in")];
    for idx in [0usize, 1, 2, 4] {
        let prev = *chain.last().expect("non-empty");
        chain.push(plan.add(prev, op(idx)).expect("fan-out plan"));
    }
    plan.sink(*chain.last().expect("non-empty"), "out").expect("fan-out plan");
    let side = plan.add(chain[branch_at], op(4)).expect("fan-out plan");
    plan.sink(side, "side").expect("fan-out plan");
    plan
}

pub fn docs(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i as i64);
            r.set("text", format!("document {i} with a little body text"));
            r
        })
        .collect()
}

/// `n` generated Medline abstracts, as the paper's flows read them.
pub fn medline_records(n: usize) -> Vec<Record> {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::tiny()));
    Generator::with_lexicon(CorpusKind::Medline, 11, lexicon)
        .documents(n)
        .iter()
        .map(|d| {
            let mut r = Record::new();
            r.set("id", d.id as i64).set("corpus", "medline").set("text", d.body.as_str());
            r
        })
        .collect()
}

pub fn inputs_for(input: Vec<Record>) -> HashMap<String, Vec<Record>> {
    HashMap::from([("in".to_string(), input)])
}

/// Everything deterministic a run exposes, flattened to comparable
/// bytes/strings. `Err` runs collapse to the error display plus the
/// WS00x verdict JSON when the analyzer rejected the plan. Physical
/// facts (`PhysicalStats`, wall time) are deliberately absent: they are
/// *allowed* to differ.
pub struct RunSurface {
    pub error: Option<String>,
    pub sink_bytes: Option<Vec<u8>>,
    /// Every deterministic `FlowMetrics` field ([`metric_fields`]).
    pub metrics: Option<String>,
    pub simulated_bits: Option<u64>,
    pub digest: Option<u64>,
    pub jsonl: String,
    pub registry: RegistrySnapshot,
    pub checkpoints: Vec<(usize, Vec<u8>)>,
}

/// A run under `res`, reporting to `observer` and resuming from `resume`
/// when they are given.
pub fn options<'a>(
    res: &FlowResilience,
    observer: Option<&'a Observer>,
    resume: Option<&'a FlowCheckpoint>,
) -> RunOptions<'a> {
    RunOptions { resilience: res.clone(), observer, resume, store: None }
}

pub fn run_surface(
    plan: &LogicalPlan,
    input: Vec<Record>,
    config: ExecutionConfig,
    res: &FlowResilience,
) -> RunSurface {
    let obs = Observer::new();
    let result = Executor::new(config).run(plan, inputs_for(input), options(res, Some(&obs), None));
    let (output, checkpoints, error) = match result {
        Ok(out) => {
            let frames = out.checkpoints.iter().map(|c| (c.next_node, c.as_bytes().to_vec()));
            let checkpoints = frames.collect();
            (Some(out), checkpoints, None)
        }
        Err(ExecutionError::PlanRejected { diagnostics }) => {
            (None, Vec::new(), Some(format!("WS00x: {}", diagnostics_to_json(&diagnostics))))
        }
        Err(e) => (None, Vec::new(), Some(format!("{e}"))),
    };
    let encoded = |value: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        value(&mut w);
        w.into_bytes()
    };
    RunSurface {
        error,
        sink_bytes: output.as_ref().map(|out| encoded(&|w| out.sinks.encode(w))),
        metrics: output.as_ref().map(|out| metric_fields(&out.metrics)),
        simulated_bits: output.as_ref().map(|out| out.metrics.simulated_secs.to_bits()),
        digest: output.as_ref().map(|out| out.deterministic_digest()),
        jsonl: obs.tracer().to_jsonl(),
        registry: obs.registry().snapshot(),
        checkpoints,
    }
}

/// Asserts two surfaces are byte-identical, surface by surface so a
/// failure names what diverged; `ctx` labels it.
pub fn assert_surfaces_equal(a: &RunSurface, b: &RunSurface, ctx: &str) {
    assert_eq!(a.error, b.error, "failure surface diverged: {ctx}");
    assert_eq!(a.sink_bytes, b.sink_bytes, "sink bytes diverged: {ctx}");
    assert_eq!(a.metrics, b.metrics, "metrics diverged: {ctx}");
    assert_eq!(a.simulated_bits, b.simulated_bits, "simulated clock diverged: {ctx}");
    assert_eq!(a.digest, b.digest, "digest diverged: {ctx}");
    assert_eq!(a.jsonl, b.jsonl, "tracer JSONL diverged: {ctx}");
    assert_eq!(a.registry, b.registry, "registry diverged: {ctx}");
    assert_eq!(a.checkpoints, b.checkpoints, "checkpoint frames diverged: {ctx}");
}
