//! The fusion/combining "explain" differential suite (tentpole
//! acceptance):
//!
//! 1. the static stage prediction (`optimizer::plan_stages`, the table
//!    the explain report prints) is **identical** to the decisions the
//!    executor actually makes (`FlowOutput::stages`) — across random
//!    plans (chains, fan-out branches, operators with no consumer,
//!    packaged and closure-built reduces), DoP ∈ {1, 4, 8}, all four
//!    fusion×combining settings, and both before and after logical
//!    optimization — and with combining on every stage holding a Reduce
//!    combines it, with combining off none does;
//! 2. WS013/WS014/WS015 verdicts — the field-flow diagnostics — are
//!    invariant under optimizer rewrites, warnings included (the
//!    WS001–WS009 suite in `tests/analyze.rs` pins errors only);
//! 3. the explain report itself is byte-stable and agrees with the
//!    executed stage list.

use proptest::prelude::*;
use std::collections::HashMap;
use websift_analyze::lattice::FieldType;
use websift_flow::packages::testkit;
use websift_flow::{
    analyze_plan, explain_plan, optimize, plan_stages, Aggregate, AnalyzeOptions, ClusterSpec,
    CostModel, ExecutionConfig, Executor, Kind, LogicalPlan, NodeOp, Operator, Package, Record,
    RunOptions, StageDecision, Value,
};

/// Runnable operators covering every stage-decision shape: pipelineable
/// maps/filters/flat-maps and an identity (fuse), and two reduces that
/// combining extends stages through — the packaged Count and a
/// closure-built Min. Any of them can also be the dead end
/// [`build_plan`] hangs off the main chain.
fn pool_op(idx: usize) -> Operator {
    match idx {
        0 => testkit::stamp(),
        1 => testkit::dup(),
        2 => testkit::parity(),
        3 => Operator::map("identity", Package::Base, |r| r),
        4 => testkit::grow(),
        5 => testkit::tally(),
        _ => Operator::reduce_agg(
            "pick",
            Package::Base,
            |r, k| {
                k.push_str(&format!("g{}", r.get("id").and_then(Value::as_int).unwrap_or(0) % 2));
            },
            Aggregate::Min { field: "id".into(), into: "id".into() },
        ),
    }
}

/// A main chain plus an optional side branch hanging off one of its
/// nodes — the fused pass tees at the branch point, which is exactly the
/// disagreement surface worth fuzzing — and an optional dead end: pool
/// operator `op` with no consumer, hung off main node `at` and given the
/// id the chain's next node would have had. The executor skips it, so
/// nothing may fuse into it.
fn build_plan(
    main: &[usize],
    branch: &[usize],
    branch_at: usize,
    dead_end: Option<(usize, usize)>,
) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("docs");
    let mut prev = src;
    let mut main_nodes = vec![src];
    let dead_end = dead_end.map(|(at, op)| (at % (main.len() + 1), op));
    for k in 0..=main.len() {
        if let Some((_, op)) = dead_end.filter(|&(at, _)| at == k) {
            plan.add(prev, pool_op(op)).expect("dead end");
        }
        if let Some(&i) = main.get(k) {
            prev = plan.add(prev, pool_op(i)).expect("chain");
            main_nodes.push(prev);
        }
    }
    plan.sink(prev, "out").expect("sink");
    if !branch.is_empty() {
        let mut prev = main_nodes[branch_at % main_nodes.len()];
        for &i in branch {
            prev = plan.add(prev, pool_op(i)).expect("branch");
        }
        plan.sink(prev, "side").expect("sink");
    }
    plan
}

fn docs(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i as i64);
            r.set("text", format!("document {i} body"));
            r
        })
        .collect()
}

fn executed_stages(plan: &LogicalPlan, dop: usize, fusion: bool, combining: bool) -> Vec<StageDecision> {
    let config = ExecutionConfig {
        analyze: false, // error-bearing random plans must still execute
        fusion,
        combining,
        ..ExecutionConfig::local(dop)
    };
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), docs(7));
    Executor::new(config)
        .run(plan, inputs, RunOptions::default())
        .expect("pool operators are total")
        .stages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn predicted_stages_match_executed(
        main in prop::collection::vec(0usize..7, 1..6),
        branch in prop::collection::vec(0usize..7, 0..4),
        branch_at in 0usize..8,
        dead_at in 0usize..16,
        dead_op in 0usize..7,
        dop_idx in 0usize..3,
        mode in 0usize..4,
    ) {
        let dop = [1usize, 4, 8][dop_idx];
        let (fusion, combining) = (mode & 1 != 0, mode & 2 != 0);
        // half the cases carry a dead end
        let dead_end = (dead_at < 8).then_some((dead_at, dead_op));
        let mut plan = build_plan(&main, &branch, branch_at, dead_end);
        for optimized in [false, true] {
            if optimized {
                optimize(&mut plan);
            }
            let predicted = plan_stages(&plan, fusion, combining);
            let executed = executed_stages(&plan, dop, fusion, combining);
            prop_assert_eq!(
                &predicted,
                &executed,
                "stage decisions diverged (main {:?}, branch {:?}@{}, dead end {:?}, dop {}, \
                 fusion {}, combining {}, optimized {})",
                main, branch, branch_at, dead_end, dop, fusion, combining, optimized
            );
            let holds_reduce = |st: &StageDecision| {
                plan.nodes()[st.first..st.first + st.len].iter().any(|n| {
                    matches!(&n.op, NodeOp::Op(op) if op.kind == Kind::Reduce)
                })
            };
            prop_assert!(
                executed.iter().all(|st| st.combined_reduce == (combining && holds_reduce(st))),
                "every Reduce combines exactly when combining is on: {:?}",
                executed
            );
        }
    }
}

/// Analysis-only pool for the WS013–WS015 invariance property: typed
/// writer/reader pairs (WS013), heavyweight annotators (WS014), movable
/// filters and duplicated operators (WS015), plus a write-nothing
/// identity.
fn verdict_op(idx: usize) -> Operator {
    let filter = |name: &str, reads: &[&str], us: f64| {
        Operator::filter(name, Package::Base, |_| true)
            .with_reads(reads)
            .with_cost(CostModel { us_per_char: us, ..CostModel::default() })
    };
    match idx {
        0 => filter("cheap-len", &["text"], 0.001),
        1 => filter("costly-regex", &["text"], 5.0),
        2 => Operator::map("sentences", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["sentences"])
            .with_write_types(&[("sentences", FieldType::Array)]),
        3 => Operator::map("typed-writer", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["typed"])
            .with_write_types(&[("typed", FieldType::Int)]),
        4 => filter("typed-reader", &[], 0.02)
            .with_read_types(&[("typed", FieldType::Str)]),
        5 => Operator::map("identity", Package::Base, |r| r),
        6 => Operator::map("fat-annotator", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_writes(&["heavy"])
            .with_cost(CostModel { memory_bytes: 13 << 30, ..CostModel::default() }),
        7 => Operator::map("maybe-tagger", Package::Ie, |r| r)
            .with_reads(&["text"])
            .with_maybe_writes(&["negation"]),
        _ => filter("keep-english", &["text"], 0.01),
    }
}

fn field_flow_verdict(plan: &LogicalPlan, opts: &AnalyzeOptions) -> Vec<(String, String)> {
    let mut verdict: Vec<(String, String)> = analyze_plan(plan, opts)
        .into_iter()
        .filter(|d| matches!(d.code.as_str(), "WS013" | "WS014" | "WS015"))
        .map(|d| (d.code, d.message))
        .collect();
    verdict.sort();
    verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn field_flow_verdicts_invariant_under_optimize(
        indices in prop::collection::vec(0usize..9, 1..8),
    ) {
        let opts = AnalyzeOptions::default()
            .with_admission(ClusterSpec::paper_cluster(), 28);
        let mut plan = LogicalPlan::new();
        let mut prev = plan.source("docs");
        for &i in &indices {
            prev = plan.add(prev, verdict_op(i)).expect("chain");
        }
        plan.sink(prev, "out").expect("sink");
        let before = field_flow_verdict(&plan, &opts);
        let rewrites = optimize(&mut plan);
        let after = field_flow_verdict(&plan, &opts);
        prop_assert_eq!(
            before,
            after,
            "WS013–WS015 verdict changed for chain {:?} after rewrites {:?}",
            indices,
            rewrites
        );
    }
}

#[test]
fn explain_report_is_byte_stable_and_matches_execution() {
    let mut plan = build_plan(&[0, 2, 5], &[4], 1, None);
    let opts = AnalyzeOptions::default().with_source_estimate(1000, 2048);
    let one = explain_plan(&plan, &opts, true, true);
    let two = explain_plan(&plan, &opts, true, true);
    assert_eq!(one, two, "explain must render byte-identically");

    // the stages the report lists are the stages the executor runs,
    // before and after optimization
    for optimized in [false, true] {
        if optimized {
            optimize(&mut plan);
        }
        let predicted = plan_stages(&plan, true, true);
        let executed = executed_stages(&plan, 4, true, true);
        assert_eq!(predicted, executed);
        let rendered = explain_plan(&plan, &opts, true, true);
        for stage in &predicted {
            assert!(
                rendered.contains(&format!("\"first\":{}", stage.first)),
                "stage {} missing from {rendered}",
                stage.first
            );
        }
    }
}
