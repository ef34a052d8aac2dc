//! Profiler-driven cost decomposition: the paper's startup-vs-per-record
//! cost split (the 20-minute dictionary load vs the per-character scan,
//! §4.2 / Fig. 8's cost accounting) regenerated from **live
//! instrumentation** — the executor's [`websift_observe::Profiler`] scope
//! tree — instead of from the hard-coded cost-model constants.

use crate::report::ExperimentResult;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use websift_corpus::{CorpusKind, Generator};
use websift_flow::{ExecutionConfig, Executor, RunOptions};
use websift_observe::{MetricValue, Observer};
use websift_pipeline::{documents_to_records, full_analysis_plan, ExperimentContext};

/// Everything one observed profiling run yields: the decomposition table,
/// the flamegraph-format folded stacks, and the observer's summary.
pub struct ProfileRun {
    pub result: ExperimentResult,
    pub folded: String,
    pub summary: String,
}

/// Per-operator startup/work split harvested from profiler scopes.
#[derive(Default, Clone, Copy)]
struct OpCost {
    startup_secs: f64,
    work_secs: f64,
}

/// Runs the full Fig.-2 analysis flow under an [`Observer`] and derives
/// each operator's startup-vs-per-record cost split from the profiler's
/// `flow;op:<name>;{startup,work}` scopes. Deterministic: all figures are
/// simulated seconds off the logical clock.
pub fn cost_decomposition(ctx: &ExperimentContext, docs: usize) -> ProfileRun {
    let generator =
        Generator::with_lexicon(CorpusKind::Medline, 77, Arc::new(ctx.lexicon.as_ref().clone()));
    let records = documents_to_records(&generator.documents(docs));
    let n_records = records.len() as f64;
    let plan = full_analysis_plan(&ctx.resources);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records);

    let obs = Observer::new();
    Executor::new(ExecutionConfig::local(4))
        .run(&plan, inputs, RunOptions { observer: Some(&obs), ..RunOptions::default() })
        .expect("profile flow must run");

    // Harvest the split from the profiler scope tree, not the cost models.
    let mut by_op: BTreeMap<String, OpCost> = BTreeMap::new();
    for scope in obs.profiler().scopes() {
        let [root, op, kind] = match scope.path.as_slice() {
            [a, b, c] => [a.as_str(), b.as_str(), c.as_str()],
            _ => continue,
        };
        if root != "flow" {
            continue;
        }
        let Some(name) = op.strip_prefix("op:") else { continue };
        let entry = by_op.entry(name.to_string()).or_default();
        match kind {
            "startup" => entry.startup_secs += scope.self_secs,
            "work" => entry.work_secs += scope.self_secs,
            _ => {}
        }
    }

    let total_startup: f64 = by_op.values().map(|c| c.startup_secs).sum();
    let total_work: f64 = by_op.values().map(|c| c.work_secs).sum();
    let grand_total = total_startup + total_work;

    let mut result = ExperimentResult::new(
        "Fig 8 (cost split)",
        "Startup vs per-record cost by operator, from profiler scopes; simulated seconds",
        &["operator", "startup s", "work s", "per-record ms", "startup share"],
    );
    let mut ops: Vec<(&String, &OpCost)> = by_op.iter().collect();
    ops.sort_by(|a, b| {
        let (ta, tb) = (a.1.startup_secs + a.1.work_secs, b.1.startup_secs + b.1.work_secs);
        tb.partial_cmp(&ta).unwrap().then_with(|| a.0.cmp(b.0))
    });
    for (name, cost) in ops {
        let op_total = cost.startup_secs + cost.work_secs;
        result.row(&[
            name.clone(),
            format!("{:.1}", cost.startup_secs),
            format!("{:.1}", cost.work_secs),
            format!("{:.2}", cost.work_secs / n_records * 1e3),
            format!("{:.0}%", cost.startup_secs / op_total.max(f64::MIN_POSITIVE) * 100.0),
        ]);
    }
    result.row(&[
        "(all operators)".into(),
        format!("{total_startup:.1}"),
        format!("{total_work:.1}"),
        format!("{:.2}", total_work / n_records * 1e3),
        format!("{:.0}%", total_startup / grand_total.max(f64::MIN_POSITIVE) * 100.0),
    ]);
    result.note(format!(
        "measured live from the executor's profiler over {docs} documents — \
         the gene dictionary's ≈20-minute simulated load dominates startup \
         while the ML taggers carry the highest per-record cost (the paper's \
         §4.2 split)"
    ));
    let snap = obs.registry().snapshot();
    let op_execs: u64 = snap
        .by_name("flow.op_secs")
        .map(|(_, _, v)| match v {
            MetricValue::Histogram(h) => h.count,
            _ => 0,
        })
        .sum();
    result.note(format!(
        "registry cross-check: the flow.op_secs histograms saw {op_execs} operator executions"
    ));

    ProfileRun {
        result,
        folded: obs.profiler().folded(),
        summary: obs.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_finds_startup_dominated_dictionaries() {
        let ctx = ExperimentContext::tiny(13);
        let run = cost_decomposition(&ctx, 6);
        // every plan operator shows up
        let ops: Vec<&str> = run.result.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(ops.iter().any(|o| o.contains("annotate_entities_dict_gene")), "{ops:?}");
        assert!(ops.iter().any(|o| o.contains("annotate_entities_ml_gene")));
        // the folded output is non-empty and parseable: "path count" lines
        assert!(!run.folded.is_empty());
        for line in run.folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("folded line format");
            assert!(!path.is_empty());
            count.parse::<u64>().expect("folded counts are integers");
        }
        assert!(run.summary.contains("== metrics =="));
    }
}
