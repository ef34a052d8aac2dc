//! Static-analyzer integration tests: golden files — the three §4.2
//! failure modes (use-before-def, OpenNLP version conflict, over-memory
//! admission) and the field-flow findings produce exactly the committed
//! diagnostics JSON, byte for byte.

use websift_analyze::{diagnostics_to_json, Severity};
use websift_flow::packages::ie;
use websift_flow::{
    analyze_plan, analyze_script, plan_stages, Aggregate, AnalyzeOptions, ClusterSpec,
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
