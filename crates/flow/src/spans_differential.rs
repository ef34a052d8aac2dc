//! Flow-level half of the packed-span differential (the value-level half
//! is `record::tests::differential`): the paper's flows with
//! `ie.annotate_sentences` and `ie.annotate_tokens` as shipped, against
//! the same plans with those two nodes swapped for annotators that write
//! the plain arrays of `{end, start}` objects they wrote before
//! [`Value::Spans`] existed.
//!
//! The plans come from `websift-pipeline`, which links this crate as built
//! for its users, so every type here is that build's (`websift_flow::`,
//! not `crate::`) — the same sources, compiled without `cfg(test)`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::{
    ExecutionConfig, Executor, FlowResilience, IeResources, LogicalPlan, NodeOp,
    Operator, Record, ResilientRun, ShardConfig, Span, Value,
};
use websift_ner::EntityType;
use websift_resilience::{Snapshot, Writer};
use websift_text::tokenize::tokenize;
use websift_text::SentenceSplitter;

/// `like` (one of the two boundary annotators) as it was: one `{end,
/// start}` object per span in a plain array, under the plan metadata of
/// the operator it stands in for.
fn plain_annotator(like: &Operator, spans_of: fn(&str) -> Vec<Span>) -> Operator {
    let field = like.writes[0].clone();
    let mut op = Operator::map(&like.name, like.package, move |mut r| {
        let spans = spans_of(r.text().unwrap_or(""));
        r.set(&field, Value::Array(spans.into_iter().map(Value::from).collect()));
        r
    });
    op.reads.clone_from(&like.reads);
    op.writes.clone_from(&like.writes);
    op.write_types.clone_from(&like.write_types);
    op.library.clone_from(&like.library);
    op.cost = like.cost;
    op
}

fn sentence_boundaries(text: &str) -> Vec<Span> {
    let sentences = SentenceSplitter::new().split(text);
    sentences.into_iter().map(|s| Span { start: s.start as i64, end: s.end as i64 }).collect()
}

fn token_boundaries(text: &str) -> Vec<Span> {
    tokenize(text).into_iter().map(|t| Span { start: t.start as i64, end: t.end as i64 }).collect()
}

/// `plan` with both boundary annotators swapped for [`plain_annotator`]s.
fn on_plain_arrays(plan: &LogicalPlan) -> LogicalPlan {
    let mut oracle = plan.clone();
    let mut swapped = 0;
    for node in oracle.nodes_mut() {
        let NodeOp::Op(op) = &mut node.op else { continue };
        let spans_of = match op.name.as_str() {
            "ie.annotate_sentences" => sentence_boundaries,
            "ie.annotate_tokens" => token_boundaries,
            _ => continue,
        };
        *op = plain_annotator(op, spans_of);
        swapped += 1;
    }
    assert_eq!(swapped, 2);
    oracle
}

fn resources() -> &'static IeResources {
    static RES: OnceLock<IeResources> = OnceLock::new();
    RES.get_or_init(|| IeResources::quick_for_tests(LexiconScale::tiny()))
}

/// Abstracts, a full text and both web corpora (HTML, so markup repair
/// and net-text extraction run too).
fn mixed_corpus() -> Vec<Record> {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::tiny()));
    let docs: Vec<_> = [
        (CorpusKind::Medline, 5),
        (CorpusKind::Pmc, 1),
        (CorpusKind::RelevantWeb, 2),
        (CorpusKind::IrrelevantWeb, 2),
    ]
    .into_iter()
    .flat_map(|(kind, n)| Generator::with_lexicon(kind, 23, lexicon.clone()).documents(n))
    .collect();
    websift_pipeline::documents_to_records(&docs)
}

fn inputs(plan: &LogicalPlan) -> HashMap<String, Vec<Record>> {
    HashMap::from([(plan.sources()[0].to_string(), mixed_corpus())])
}

fn encoded(v: &impl Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// Sink bytes, metric bytes (every `OpMetrics` row) and the digest of a
/// run that completed.
fn surface(run: &ResilientRun) -> (Vec<u8>, Vec<u8>, u64) {
    let out = run.output.as_ref().expect("the run completed");
    (encoded(&out.sinks), encoded(&out.metrics), out.deterministic_digest())
}

fn frames(run: &ResilientRun) -> Vec<(usize, Vec<u8>)> {
    run.checkpoints.iter().map(|c| (c.next_node, c.as_bytes().to_vec())).collect()
}

/// Checkpoint every second node: the shared preprocessing prefix is one
/// fused chain of nine operators, so frames land inside it.
const CADENCE: usize = 2;

/// Some record of some sink still carries a non-empty `tokens` array in
/// this spelling.
fn carries_tokens(run: &ResilientRun, packed: bool) -> bool {
    run.output.iter().flat_map(|out| out.sinks.values().flatten()).any(|r| match r.get("tokens") {
        Some(Value::Spans(t)) => packed && !t.is_empty(),
        Some(Value::Array(t)) => !packed && !t.is_empty(),
        _ => false,
    })
}

fn assert_packed_matches_plain(name: &str, plan: &LogicalPlan) {
    let oracle = on_plain_arrays(plan);
    let tokens_at = plan
        .nodes()
        .iter()
        .position(|n| matches!(&n.op, NodeOp::Op(op) if op.name == "ie.annotate_tokens"))
        .expect("every paper flow tokenizes");
    let res = FlowResilience { checkpoint_every_nodes: Some(CADENCE), ..FlowResilience::default() };
    let run = |plan: &LogicalPlan, config: ExecutionConfig| {
        Executor::new(config).run_resilient(plan, inputs(plan), &res).unwrap()
    };

    // Simulated seconds depend on the DoP; nothing else here does.
    for dop in [1, 3] {
        let want = run(&oracle, ExecutionConfig::local(dop));
        for fusion in [true, false] {
            let config = ExecutionConfig { fusion, ..ExecutionConfig::local(dop) };
            let ctx = format!("{name} dop={dop} fusion={fusion}");
            let got = run(plan, config.clone());
            assert_eq!(surface(&got), surface(&want), "{ctx}");
            assert_eq!(frames(&got), frames(&want), "{ctx}");
            assert_eq!(surface(&run(&oracle, config)), surface(&want), "oracle, {ctx}");
            // the shipped annotators pack, wherever a sink still has the field
            assert_eq!(carries_tokens(&got, true), carries_tokens(&want, false), "{ctx}");
            assert!(!carries_tokens(&got, false) && !carries_tokens(&want, true), "{ctx}");
        }
    }
    let want = run(&oracle, ExecutionConfig::local(3));
    assert!(want.checkpoints.iter().any(|c| (2..tokens_at).contains(&c.next_node)), "{name}");

    // Killed after the tokenizer, resumed from the last frame before the
    // kill: everything downstream reads decoded — plain — span arrays.
    let exec = Executor::new(ExecutionConfig::local(3));
    let kill = FlowResilience { stop_after_nodes: Some(tokens_at + 2), ..res.clone() };
    let killed = exec.run_resilient(plan, inputs(plan), &kill).unwrap();
    assert!(killed.output.is_none(), "{name}: the kill interrupts");
    let want_frames = frames(&want);
    let (before, after) = want_frames.split_at(killed.checkpoints.len());
    let frame = killed.checkpoints.last().unwrap();
    assert!(frame.next_node > tokens_at, "{name}: frame at {}", frame.next_node);
    assert_eq!(frames(&killed), before, "{name}");
    let resumed = exec.resume_from(plan, frame, inputs(plan), &res).unwrap();
    assert_eq!(surface(&resumed), surface(&want), "{name} resumed");
    assert_eq!(frames(&resumed), after, "{name} resumed");

    // Two worker shards: records cross the codec at every stage boundary.
    let sharded = ExecutionConfig { sharding: Some(ShardConfig::in_process(2)), ..ExecutionConfig::local(3) };
    let got = run(plan, sharded);
    let physical = got.output.as_ref().unwrap().physical;
    assert!(physical.shards_used == 2 && physical.stages_pinned_local == 0, "{name}");
    assert_eq!(surface(&got), surface(&want), "{name} sharded");
    assert_eq!(frames(&got), frames(&want), "{name} sharded");
}

#[test]
fn differential_full_analysis_plan() {
    let plan = websift_pipeline::full_analysis_plan(resources());
    assert_packed_matches_plain("full_analysis_plan", &plan);
    // not vacuous: its three sinks keep every annotation
    let out = Executor::new(ExecutionConfig::local(2)).run(&plan, inputs(&plan)).unwrap();
    for sink in ["linguistic", "entities", "entities_deduped"] {
        for r in &out.sinks[sink] {
            assert!(matches!(r.get("sentences"), Some(Value::Spans(s)) if !s.is_empty()), "{sink}");
            assert!(matches!(r.get("tokens"), Some(Value::Spans(t)) if !t.is_empty()), "{sink}");
        }
    }
}

#[test]
fn differential_token_frequency_flow() {
    assert_packed_matches_plain("token_frequency_flow", &websift_pipeline::token_frequency_flow("docs"));
}

#[test]
fn differential_entity_store_flow() {
    let plan = websift_pipeline::entity_store_flow(resources(), EntityType::Gene, "kb");
    assert_packed_matches_plain("entity_store_flow", &plan);
}

#[test]
fn differential_live_extraction_flow() {
    let plan = websift_pipeline::live_extraction_flow(resources(), EntityType::Drug, "kb");
    assert_packed_matches_plain("live_extraction_flow", &plan);
}
