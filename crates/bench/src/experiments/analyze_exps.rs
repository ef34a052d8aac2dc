//! Static-analysis experiments: the three §4.2 failure modes caught
//! pre-flight by [`websift_flow::analyze_plan`], without spending a
//! second of (simulated) cluster time — plus the fusion/combining
//! explain report, which predicts the executor's physical stage
//! decisions and cost envelopes statically and verifies the prediction
//! differentially against an actual run.
//!
//! Each row is one diagnostic (or one predicted stage); the output is
//! deterministic byte for byte, which `ci.sh` checks by running
//! `exp_analyze --json` twice and comparing, and by the
//! `exp_analyze --quick --check` smoke that re-renders the explain
//! artifact in-process and fails on any drift.

use std::collections::HashMap;

use crate::report::ExperimentResult;
use websift_analyze::Diagnostic;
use websift_flow::packages::{base, dc, ie};
use websift_flow::{
    analyze_plan, analyze_script, explain_plan, field_flow, plan_stages, AnalyzeOptions,
    ClusterSpec, CostModel, ExecutionConfig, Executor, LogicalPlan, NodeOp, Operator,
    OperatorRegistry, Package, Record, RunOptions,
};

/// §4.2 failure 1 as a Meteor script: negation spans requested before
/// sentence spans exist.
const USE_BEFORE_DEF: &str = "\
$pages = read 'crawl';
$neg = apply ie.annotate_negation $pages;
$sents = apply ie.annotate_sentences $neg;
write $neg 'negation';
write $sents 'sentences';";

fn ie_registry() -> OperatorRegistry {
    let mut reg = OperatorRegistry::new();
    reg.register("ie.annotate_sentences", ie::annotate_sentences);
    reg.register("ie.annotate_negation", ie::annotate_negation);
    reg
}

/// §4.2 failure 2: OpenNLP 1.5 annotator + 1.4 ML entity tagger in one
/// flow (the class-loader war story).
fn version_conflict_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let sents = plan.add(src, ie::annotate_sentences()).expect("static plan");
    let disease = plan
        .add(
            sents,
            Operator::map("ie.annotate_entities_ml[disease]", Package::Ie, |r| r)
                .with_reads(&["text", "sentences"])
                .with_writes(&["entities"])
                .with_library("opennlp", 14),
        )
        .expect("static plan");
    plan.sink(disease, "entities").expect("static plan");
    plan
}

/// §4.2 failure 3: 60 GB of model state per worker against 24 GB nodes.
fn over_memory_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let mut prev = src;
    for (i, gb) in [20u64, 20, 20].iter().enumerate() {
        prev = plan
            .add(
                prev,
                Operator::map(&format!("ie.fat_model_{i}"), Package::Ie, |r| r)
                    .with_reads(&["text"])
                    .with_writes(&[&format!("fat{i}")])
                    .with_cost(CostModel {
                        memory_bytes: gb << 30,
                        ..CostModel::default()
                    }),
            )
            .expect("static plan");
    }
    plan.sink(prev, "out").expect("static plan");
    plan
}

fn push_rows(result: &mut ExperimentResult, plan: &str, diags: &[Diagnostic]) {
    for d in diags {
        let location = match (d.line, d.node) {
            (Some(line), _) => format!("line {line}"),
            (None, Some(node)) => format!("node {node}"),
            (None, None) => "-".to_string(),
        };
        result.row(&[
            plan.to_string(),
            d.code.clone(),
            d.severity.to_string(),
            location,
            d.message.clone(),
        ]);
    }
}

/// Runs the analyzer over the three known-bad plans and tabulates every
/// diagnostic.
pub fn known_bad() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "Static analysis",
        "§4.2 failure modes caught pre-flight",
        &["plan", "code", "severity", "location", "message"],
    );

    let admitted = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);

    let script_diags = analyze_script(USE_BEFORE_DEF, &ie_registry(), &AnalyzeOptions::default())
        .expect("known-bad script still parses");
    push_rows(&mut result, "use-before-def script", &script_diags);
    push_rows(
        &mut result,
        "version-conflict flow",
        &analyze_plan(&version_conflict_plan(), &admitted),
    );
    push_rows(
        &mut result,
        "over-memory flow",
        &analyze_plan(&over_memory_plan(), &admitted),
    );

    result.note(
        "every diagnostic above is produced from operator annotations alone — \
         no records were processed; the paper hit all three at runtime on the cluster",
    );
    result.note(
        "the same verdicts gate execution: Executor::run rejects plans with \
         error-severity diagnostics unless `ExecutionConfig.analyze` is off",
    );
    result
}

/// The representative extraction flow for the explain report: cleaning,
/// sentence and negation annotation, then a combinable per-corpus count
/// — a fused pipeline ending in a combined reduce.
fn extraction_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let clean = plan.add(src, dc::normalize_whitespace()).expect("static plan");
    let sents = plan.add(clean, ie::annotate_sentences()).expect("static plan");
    let neg = plan.add(sents, ie::annotate_negation()).expect("static plan");
    let count = plan.add(neg, base::count_by("corpus")).expect("static plan");
    plan.sink(count, "corpus_counts").expect("static plan");
    plan
}

/// Options used for every explain rendering, so the bench table, the
/// JSON artifact, and the `--check` smoke all agree.
fn explain_opts() -> AnalyzeOptions {
    AnalyzeOptions::default().with_source_estimate(10_000, 2_048)
}

/// The raw explain report for the representative flow — the
/// byte-deterministic artifact `--check` renders twice and diffs.
pub fn explain_json() -> String {
    explain_plan(&extraction_plan(), &explain_opts(), true, true)
}

/// Differential smoke: the statically predicted stage decisions must be
/// the decisions the executor actually makes for the same plan.
pub fn explain_matches_execution() -> bool {
    let plan = extraction_plan();
    let predicted = plan_stages(&plan, true, true);
    let records: Vec<Record> = (0..16)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i as i64);
            r.set("corpus", if i % 2 == 0 { "web" } else { "pubmed" });
            r.set("text", format!("Document {i}. It has two sentences."));
            r
        })
        .collect();
    let inputs = HashMap::from([("crawl".to_string(), records)]);
    Executor::new(ExecutionConfig::local(4))
        .run(&plan, inputs, RunOptions::default())
        .map(|out| out.stages == predicted)
        .unwrap_or(false)
}

/// One row per predicted stage of `plan`.
fn stage_rows(result: &mut ExperimentResult, plan_name: &str, plan: &LogicalPlan) {
    let flow = field_flow(plan, &explain_opts());
    for (i, stage) in plan_stages(plan, true, true).iter().enumerate() {
        let members: Vec<usize> = (stage.first..stage.first + stage.len).collect();
        let mut ops = Vec::new();
        let mut memory = 0u64;
        for &id in &members {
            if let NodeOp::Op(op) = &plan.nodes()[id].op {
                ops.push(op.name.clone());
                memory += op.cost.memory_bytes;
            }
        }
        let kind = if stage.combined_reduce {
            "fused+combining"
        } else if stage.len > 1 {
            "fused"
        } else {
            "single"
        };
        let out = flow.after(members[members.len() - 1]).envelope.records;
        result.row(&[
            plan_name.to_string(),
            i.to_string(),
            ops.join(" + "),
            kind.to_string(),
            format!("{:.0}..{:.0}", out.lo, out.hi),
            format!("{:.1} GB", memory as f64 / (1u64 << 30) as f64),
        ]);
    }
}

/// Static fusion/combining explain: one row per predicted pipeline
/// stage, with the differential verdict against the executor as a note.
pub fn explain() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "Fusion explain",
        "statically predicted fusion chains, combining decisions, and cost envelopes",
        &["plan", "stage", "operators", "kind", "records out", "stage memory"],
    );
    stage_rows(&mut result, "extraction flow", &extraction_plan());
    stage_rows(&mut result, "over-memory flow", &over_memory_plan());
    result.note(if explain_matches_execution() {
        "differential check: predicted stage boundaries and combining decisions equal \
         the executor's actual decisions for the extraction flow at DoP 4"
    } else {
        "DIFFERENTIAL MISMATCH: the static prediction disagrees with the executor \
         (run `exp_analyze --quick --check` for a failing exit code)"
    });
    result.note(
        "record envelopes are absolute (seeded with 10000 source records of 2048 bytes); \
         the explain JSON artifact is byte-deterministic and diffed by ci.sh",
    );
    result
}
