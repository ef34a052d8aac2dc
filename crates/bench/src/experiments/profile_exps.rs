//! Registry-driven cost decomposition: the paper's startup-vs-per-record
//! cost split (the 20-minute dictionary load vs the per-character scan,
//! §4.2 / Fig. 8's cost accounting) regenerated from **live
//! instrumentation** — the executor's `flow.op_startup_secs` and
//! `flow.op_work_secs` registry gauges — instead of from the hard-coded
//! cost-model constants. The registry rides in every checkpoint frame,
//! so a resumed flow reports the same split as one that never stopped.

use crate::profile::{charges, folded};
use crate::report::ExperimentResult;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use websift_corpus::{CorpusKind, Generator};
use websift_flow::{ExecutionConfig, Executor, RunOptions};
use websift_observe::{MetricValue, Observer, RegistrySnapshot};
use websift_pipeline::{documents_to_records, full_analysis_plan, ExperimentContext};

/// Everything one observed profiling run yields: the decomposition table
/// (the observer's summary is one of its notes) and the flamegraph-format
/// folded stacks.
pub struct ProfileRun {
    pub result: ExperimentResult,
    pub folded: String,
}

/// Per-operator startup/work split harvested from the registry.
#[derive(Default, Clone, Copy)]
struct OpCost {
    startup_secs: f64,
    work_secs: f64,
}

/// Runs the full Fig.-2 analysis flow under an [`Observer`] and derives
/// each operator's startup-vs-per-record cost split from the registry's
/// cost series. Deterministic: all figures are simulated seconds off the
/// logical clock.
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
    let snap = obs.registry().snapshot();
    let mut result = split_table(&snap, docs, n_records);
    result.note(summary_note(&obs.summary(), snap.entries.len()));
    ProfileRun { result, folded: folded(&snap) }
}

/// The observer's summary as one note: the series count, the flow-wide
/// (unlabelled) series and the trace line. The per-operator and per-sink
/// series are the table above and the folded stacks.
fn summary_note(summary: &str, series: usize) -> String {
    let mut parts = vec![format!("observer summary: {series} registry series")];
    for line in summary.lines() {
        if let Some(trace) = line.strip_prefix("== trace == ") {
            parts.push(format!("trace: {trace}"));
        } else if !line.starts_with("==") && !line.contains('{') {
            parts.push(line.to_string());
        }
    }
    parts.join("; ")
}

/// The Fig. 8 table: each operator's start-up and work seconds, from
/// [`charges`], over a run of `docs` documents and `n_records` records.
pub fn split_table(snap: &RegistrySnapshot, docs: usize, n_records: f64) -> ExperimentResult {
    let mut by_op: BTreeMap<String, OpCost> = BTreeMap::new();
    for (path, secs) in charges(snap) {
        let [_, op, kind] = path.as_slice() else { continue };
        let Some(name) = op.strip_prefix("op:") else { continue };
        let entry = by_op.entry(name.to_string()).or_default();
        match kind.as_str() {
            "startup" => entry.startup_secs += secs,
            _ => entry.work_secs += secs,
        }
    }

    let total_startup: f64 = by_op.values().map(|c| c.startup_secs).sum();
    let total_work: f64 = by_op.values().map(|c| c.work_secs).sum();
    let grand_total = total_startup + total_work;

    let mut result = ExperimentResult::new(
        "Fig 8 (cost split)",
        "Startup vs per-record cost by operator, from registry gauges; simulated seconds",
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
        "measured live from the executor's registry over {docs} documents — \
         the gene dictionary's ≈20-minute simulated load dominates startup \
         while the ML taggers carry the highest per-record cost (the paper's \
         §4.2 split)"
    ));
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
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_flow::FlowResilience;

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
        let summary = run.result.notes.last().expect("the observer summary note");
        assert!(summary.starts_with("observer summary: "), "{summary}");
        assert!(summary.contains("flow.simulated_secs = ") && summary.contains("; trace: "));
    }

    /// A flow killed mid-plan and resumed from its last frame reports the
    /// same cost split as one that never stopped: start-up and work live
    /// in the registry, which every frame carries.
    #[test]
    fn cost_attribution_survives_a_resume() {
        let ctx = ExperimentContext::tiny(13);
        let generator = Generator::with_lexicon(
            CorpusKind::Medline,
            77,
            Arc::new(ctx.lexicon.as_ref().clone()),
        );
        let records = documents_to_records(&generator.documents(4));
        let plan = full_analysis_plan(&ctx.resources);
        let inputs = || HashMap::from([("docs".to_string(), records.clone())]);
        let resilience = FlowResilience { checkpoint_every_nodes: Some(1), ..Default::default() };
        let executor = Executor::new(ExecutionConfig::local(2));
        let run = |obs, resume| {
            let resilience = resilience.clone();
            let opts = RunOptions { resilience, observer: Some(obs), resume, store: None };
            executor.run(&plan, inputs(), opts).expect("flow runs")
        };

        let full = Observer::new();
        let frames = run(&full, None).checkpoints;
        let frame = &frames[frames.len() / 2];
        assert!(frame.next_node > 1 && frame.next_node < plan.len(), "a mid-plan frame");
        let resumed = Observer::new();
        run(&resumed, Some(frame));

        let (full, resumed) = (full.registry().snapshot(), resumed.registry().snapshot());
        assert!(folded(&full).lines().count() > 20, "{}", folded(&full));
        assert_eq!(folded(&resumed), folded(&full));
        assert_eq!(split_table(&resumed, 4, 1.0).rows, split_table(&full, 4, 1.0).rows);
    }
}
