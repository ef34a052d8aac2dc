//! Declarative analysis with the Meteor-like script front end: compile a
//! script against the standard operator registry and execute it (the
//! executor analyzes it first) over generated documents — "complex information acquisition and
//! extraction from the web as an almost effortless end-to-end task".
//!
//! ```text
//! cargo run --release --example meteor_script
//! ```

use std::collections::HashMap;
use websift::corpus::{CorpusKind, Generator};
use websift::flow::{compile, ExecutionConfig, Executor, RunOptions, Value};
use websift::pipeline::{documents_to_records, ExperimentContext};

const SCRIPT: &str = "
    # the paper's Fig-2 pipeline, linguistic branch, as a Meteor script
    $pages    = read 'crawl';
    $bounded  = apply base.filter_length $pages;
    $repaired = apply wa.repair_markup $bounded;
    $net      = apply wa.extract_net_text $repaired;
    $clean    = apply dc.filter_empty_text $net;
    $sents    = apply ie.annotate_sentences $clean;
    $neg      = apply ie.annotate_negation $sents;
    $genes    = apply ie.annotate_entities_dict_gene $neg;
    write $genes 'annotated';
";

fn main() {
    let ctx = ExperimentContext::tiny(3);
    let plan = compile(SCRIPT, &ctx.registry).expect("script compiles");
    println!(
        "compiled plan: {} operators, sources {:?}, sinks {:?}",
        plan.operator_count(),
        plan.sources(),
        plan.sinks()
    );

    let docs = Generator::with_lexicon(CorpusKind::RelevantWeb, 5, ctx.lexicon.clone()).documents(6);
    let mut inputs = HashMap::new();
    inputs.insert("crawl".to_string(), documents_to_records(&docs));
    let out = Executor::new(ExecutionConfig::local(4))
        .run(&plan, inputs, RunOptions::default())
        .expect("flow executes");

    let records = &out.sinks["annotated"];
    let negations: usize = records
        .iter()
        .map(|r| r.get("negation").and_then(Value::as_array).map(<[Value]>::len).unwrap_or(0))
        .sum();
    let genes: usize = records
        .iter()
        .map(|r| r.get("entities").and_then(Value::as_array).map(<[Value]>::len).unwrap_or(0))
        .sum();
    println!(
        "executed over {} web pages -> {} annotated records, {negations} negations, {genes} gene mentions",
        docs.len(),
        records.len()
    );
    println!(
        "metrics: {:.1} ms wall, {} operator stages, {} bytes shuffled/stored",
        out.metrics.wall_ms,
        out.metrics.per_op.len(),
        out.metrics.network_bytes
    );
}
