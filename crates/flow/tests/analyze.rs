//! Static-analyzer integration tests (satellite 3):
//!
//! 1. golden-file tests — the three §4.2 failure modes (use-before-def,
//!    OpenNLP version conflict, over-memory admission) and the field-flow
//!    and sharding findings produce exactly the committed diagnostics
//!    JSON, byte for byte;
//! 2. a property test — logical optimization never changes the analyzer's
//!    *error* verdict: the set of (code, message) error pairs is identical
//!    before and after `optimize`, across randomly generated chain plans.

use proptest::prelude::*;
use websift_analyze::{diagnostics_to_json, Severity};
use websift_flow::packages::ie;
use websift_flow::{
    analyze_plan, analyze_script, optimize, plan_stages, Aggregate, AnalyzeOptions, ClusterSpec,
    CostModel, LogicalPlan, Operator, OperatorRegistry, Package, Record, SchedulingError,
};

fn ie_registry() -> OperatorRegistry {
    let mut reg = OperatorRegistry::new();
    reg.register("ie.annotate_sentences", ie::annotate_sentences);
    reg.register("ie.annotate_negation", ie::annotate_negation);
    reg
}

/// §4.2 failure 1: an annotator applied before the annotation it reads
/// exists. `ie.annotate_negation` consumes sentence spans, but the script
/// runs it before `ie.annotate_sentences`.
const USE_BEFORE_DEF: &str = "\
$pages = read 'crawl';
$neg = apply ie.annotate_negation $pages;
$sents = apply ie.annotate_sentences $neg;
write $neg 'negation';
write $sents 'sentences';";

#[test]
fn golden_use_before_def() {
    let diags = analyze_script(USE_BEFORE_DEF, &ie_registry(), &AnalyzeOptions::default())
        .expect("script parses");
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/use_before_def.json").trim_end(),
    );
    assert_eq!(diags[0].line, Some(2), "mapped to the offending script line");
}

/// §4.2 failure 2: the OpenNLP war story — a v1.5 annotator and a v1.4
/// ML entity tagger in one flow, which a single class loader cannot host.
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

#[test]
fn golden_version_conflict() {
    let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
    let diags = analyze_plan(&version_conflict_plan(), &opts);
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/version_conflict.json").trim_end(),
    );
    assert!(diags.iter().any(|d| d.severity == Severity::Error));
}

/// §4.2 failure 3: a flow whose per-worker footprint can never fit the
/// paper cluster's 24 GB nodes at DoP 28.
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

#[test]
fn golden_over_memory() {
    let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
    let diags = analyze_plan(&over_memory_plan(), &opts);
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/over_memory.json").trim_end(),
    );
}

/// The sharded variant of §4.2 failure 3: a 10 GB flow that fits a
/// two-node 24 GB cluster at DoP 2 in the one-process model (one worker
/// per node sharing the footprint), but not as 8 worker *processes* —
/// 4 shards per node each need the full 10 GB resident, and 40 GB > 24 GB.
fn sharded_memory_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let fat = plan
        .add(
            src,
            // a packaged (hence shippable) operator, so the sharded
            // verdict below is about memory alone, not WS017
            ie::annotate_tokens().with_cost(CostModel {
                memory_bytes: 10u64 << 30,
                ..CostModel::default()
            }),
        )
        .expect("static plan");
    plan.sink(fat, "out").expect("static plan");
    plan
}

#[test]
fn golden_sharded_over_memory() {
    let cluster = ClusterSpec::local(2, 24, 8);
    let plan = sharded_memory_plan();

    // one multi-threaded process per node: 10 GB fits 24 GB nodes
    let unsharded = AnalyzeOptions::default().with_admission(cluster.clone(), 2);
    assert!(
        analyze_plan(&plan, &unsharded).is_empty(),
        "the unsharded plan is admissible"
    );
    websift_flow::admit(&plan, 2, &cluster).expect("runtime admission agrees");

    // 8 shard processes across 2 nodes: 4 x 10 GB per node does not
    let sharded = unsharded.with_shards(8);
    let diags = analyze_plan(&plan, &sharded);
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/sharded_over_memory.json").trim_end(),
    );
    let err = websift_flow::admit_sharded(&plan, 2, &cluster, Some(8)).unwrap_err();
    assert!(err.to_string().contains("10.0 GB"), "{err}");
}

/// The other silent pitfall of a sharded run: an operator written as an
/// ad-hoc closure has no wire form, so the whole fused stage it sits in
/// stays on the local runner. Correct, counted at run time, and — with
/// WS017 — said out loud before the run.
#[test]
fn golden_ws017_closure_operator_pins_its_stage() {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let sentences = plan.add(src, ie::annotate_sentences()).expect("static plan");
    let adhoc = plan
        .add(
            sentences,
            Operator::map("adhoc.score", Package::Base, |r| r)
                .with_reads(&["sentences"])
                .with_writes(&["score"]),
        )
        .expect("static plan");
    let tokens = plan.add(adhoc, ie::annotate_tokens()).expect("static plan");
    plan.sink(tokens, "out").expect("static plan");

    assert!(
        analyze_plan(&plan, &AnalyzeOptions::default()).iter().all(|d| d.code != "WS017"),
        "an unsharded run ships nothing, so nothing is flagged"
    );
    let diags = analyze_plan(&plan, &AnalyzeOptions::default().with_shards(2));
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/ws017_closure_pins_stage.json").trim_end(),
    );
}

// ---------------------------------------------------------------------
// Field-flow goldens: WS013 / WS014 / WS015 + one clean plan
// ---------------------------------------------------------------------

use websift_analyze::lattice::FieldType;

/// WS013: the sentence annotator declares its spans as an array, a
/// downstream joiner insists on reading them as a string.
fn type_conflict_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let sents = plan
        .add(
            src,
            Operator::map("ie.annotate_sentences", Package::Ie, |r| r)
                .with_reads(&["text"])
                .with_writes(&["sentences"])
                .with_write_types(&[("sentences", FieldType::Array)]),
        )
        .expect("static plan");
    let joiner = plan
        .add(
            sents,
            Operator::map("wa.join_sentences", Package::Wa, |r| r)
                .with_read_types(&[("sentences", FieldType::Str)])
                .with_writes(&["flat"]),
        )
        .expect("static plan");
    plan.sink(joiner, "flat").expect("static plan");
    plan
}

#[test]
fn golden_ws013_type_conflict() {
    let diags = analyze_plan(&type_conflict_plan(), &AnalyzeOptions::default());
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/ws013_type_conflict.json").trim_end(),
    );
    assert!(diags.iter().any(|d| d.severity == Severity::Error));
}

/// WS014: two 15 GB annotators that fuse into a single 30 GB stage — the
/// whole-plan bound (WS007) and the stage-level refinement (WS014) both
/// reject it, because fusing concentrates the footprints into one worker.
fn fused_over_memory_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let mut prev = src;
    for (i, field) in ["pos", "ner"].iter().enumerate() {
        prev = plan
            .add(
                prev,
                Operator::map(&format!("ie.big_model_{i}"), Package::Ie, |r| r)
                    .with_reads(&["text"])
                    .with_writes(&[field])
                    .with_cost(CostModel {
                        memory_bytes: 15 << 30,
                        ..CostModel::default()
                    }),
            )
            .expect("static plan");
    }
    plan.sink(prev, "annotated").expect("static plan");
    plan
}

#[test]
fn golden_ws014_fused_stage_over_memory() {
    let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
    let diags = analyze_plan(&fused_over_memory_plan(), &opts);
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/ws014_fused_over_memory.json").trim_end(),
    );
    assert!(diags.iter().any(|d| d.code == "WS014"));
}

/// WS014 sums over the stages the executor runs, and the executor tees
/// through fan-out: `a` fuses with `left`, its contiguous consumer, even
/// though `right` reads `a` too. 13 + 13 GB in one stage exceed a 24 GB
/// node, although `a` alone and `left + tally` each fit.
#[test]
fn ws014_follows_the_executor_through_fan_out() {
    let fat = |name: &str| {
        Operator::map(name, Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_cost(CostModel { memory_bytes: 13 << 30, ..CostModel::default() })
    };
    let mut plan = LogicalPlan::new();
    let src = plan.source("docs");
    let a = plan.add(src, fat("a")).unwrap();
    let left = plan.add(a, fat("left")).unwrap();
    let right = plan
        .add(a, Operator::map("right", Package::Ie, |r| r).with_reads(&["text"]))
        .unwrap();
    let tally = plan
        .add(
            left,
            Operator::reduce_agg(
                "tally",
                Package::Base,
                |_: &Record, _: &mut String| {},
                Aggregate::Count { into: "n".into() },
            ),
        )
        .unwrap();
    plan.sink(tally, "counts").unwrap();
    plan.sink(right, "raw").unwrap();

    let stages: Vec<(usize, usize)> =
        plan_stages(&plan, true, true).iter().map(|s| (s.first, s.len)).collect();
    assert_eq!(stages, vec![(a, 2), (right, 1), (tally, 1)], "a + left fuse through the fan-out");

    let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
    let ws014: Vec<String> = analyze_plan(&plan, &opts)
        .into_iter()
        .filter(|d| d.code == "WS014")
        .map(|d| d.message)
        .collect();
    assert_eq!(ws014.len(), 1, "{ws014:?}");
    assert!(ws014[0].contains("26.0 GB per worker"), "{}", ws014[0]);
}

/// The scheduler and the analyzer name the same library, and the same one
/// on every call: admission reports conflicts in library-name order.
#[test]
fn admission_reports_library_conflicts_in_name_order() {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("docs");
    for lib in ["gamma", "alpha", "beta"] {
        for version in [1, 2] {
            let op = Operator::map(&format!("{lib}-v{version}"), Package::Ie, |r| r)
                .with_library(lib, version);
            prev = plan.add(prev, op).unwrap();
        }
    }
    plan.sink(prev, "out").unwrap();

    let cluster = ClusterSpec::paper_cluster();
    let opts = AnalyzeOptions::default().with_admission(cluster.clone(), 28);
    let ws002 = analyze_plan(&plan, &opts).into_iter().find(|d| d.code == "WS002").unwrap();
    for _ in 0..64 {
        let err = websift_flow::admit(&plan, 28, &cluster).unwrap_err();
        let SchedulingError::LibraryConflict { library, .. } = err else {
            panic!("expected a library conflict, got {err:?}");
        };
        assert_eq!(library, "alpha");
        assert!(ws002.message.contains(&format!("library '{library}'")), "{}", ws002.message);
    }
}

/// WS015: the same language filter applied twice with only a sentence
/// annotator (which touches none of the filter's fields) between.
fn redundant_filter_plan() -> LogicalPlan {
    let keep = || {
        Operator::filter("dc.keep_english", Package::Dc, |_| true).with_reads(&["text"])
    };
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let first = plan.add(src, keep()).expect("static plan");
    let sents = plan.add(first, ie::annotate_sentences()).expect("static plan");
    let second = plan.add(sents, keep()).expect("static plan");
    plan.sink(second, "english").expect("static plan");
    plan
}

#[test]
fn golden_ws015_redundant_filter() {
    let diags = analyze_plan(&redundant_filter_plan(), &AnalyzeOptions::default());
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/ws015_redundant_filter.json").trim_end(),
    );
    // advisory: the duplicate is wasteful, not wrong
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

/// A fully-annotated, admission-checked, typed pipeline with nothing to
/// report: the analyzer must stay silent (the golden pins the empty
/// array, byte for byte).
fn clean_typed_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let sents = plan
        .add(
            src,
            Operator::map("ie.annotate_sentences", Package::Ie, |r| r)
                .with_reads(&["text"])
                .with_writes(&["sentences"])
                .with_write_types(&[("sentences", FieldType::Array)])
                .with_read_types(&[("text", FieldType::Str)]),
        )
        .expect("static plan");
    let keep = plan
        .add(
            sents,
            Operator::filter("has-sentences", Package::Base, |_| true)
                .with_read_types(&[("sentences", FieldType::Array)]),
        )
        .expect("static plan");
    plan.sink(keep, "sentences").expect("static plan");
    plan
}

#[test]
fn golden_clean_plan_is_silent() {
    let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
    let diags = analyze_plan(&clean_typed_plan(), &opts);
    assert_eq!(
        diagnostics_to_json(&diags),
        include_str!("golden/clean_typed.json").trim_end(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------
// Verdict invariance under optimization
// ---------------------------------------------------------------------

/// A pool of operators exercising both optimizer rules: cheap/expensive
/// filters (reorder), disjoint and dependent filter/map pairs (pull
/// forward), plus a write-nothing identity, conflicting libraries and
/// overwrites.
fn pool_op(idx: usize) -> Operator {
    let filter = |name: &str, reads: &[&str], us: f64| {
        Operator::filter(name, Package::Base, |_| true)
            .with_reads(reads)
            .with_cost(CostModel { us_per_char: us, ..CostModel::default() })
    };
    match idx {
        0 => filter("cheap-len", &["text"], 0.001),
        1 => filter("costly-regex", &["text"], 5.0),
        2 => ie::annotate_sentences(),
        3 => Operator::map("negation", Package::Ie, |r| r)
            .with_reads(&["text", "sentences"])
            .with_writes(&["negation"]),
        4 => filter("has-sentences", &["sentences"], 0.01),
        5 => Operator::map("identity", Package::Base, |r| r),
        6 => Operator::map("disease-ml", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["entities"])
            .with_library("opennlp", 14),
        7 => Operator::map("stage-a", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["x"]),
        8 => Operator::map("stage-b", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["x"]),
        // typed writer/reader pair: any chain placing the reader below the
        // writer trips WS013, and that error must survive optimization
        9 => Operator::map("typed-writer", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["typed"])
            .with_write_types(&[("typed", FieldType::Int)]),
        _ => Operator::filter("typed-reader", Package::Base, |_| true)
            .with_read_types(&[("typed", FieldType::Str)])
            .with_cost(CostModel { us_per_char: 0.02, ..CostModel::default() }),
    }
}

fn chain_plan(indices: &[usize]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("docs");
    for &i in indices {
        prev = plan.add(prev, pool_op(i)).expect("chain plan");
    }
    plan.sink(prev, "out").expect("chain plan");
    plan
}

/// The analyzer's error verdict: sorted (code, message) pairs. Warnings
/// are advisory and may legitimately shift with plan shape; errors decide
/// whether a flow runs and must not depend on operator placement noise.
fn error_verdict(plan: &LogicalPlan, opts: &AnalyzeOptions) -> Vec<(String, String)> {
    let mut verdict: Vec<(String, String)> = analyze_plan(plan, opts)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| (d.code, d.message))
        .collect();
    verdict.sort();
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimizer_never_changes_error_verdict(
        indices in prop::collection::vec(0usize..11, 1..8),
    ) {
        let opts = AnalyzeOptions::default()
            .with_admission(ClusterSpec::paper_cluster(), 28);
        let mut plan = chain_plan(&indices);
        let before = error_verdict(&plan, &opts);
        let rewrites = optimize(&mut plan);
        let after = error_verdict(&plan, &opts);
        prop_assert_eq!(
            before,
            after,
            "verdict changed for chain {:?} after rewrites {:?}",
            indices,
            rewrites
        );
    }
}
