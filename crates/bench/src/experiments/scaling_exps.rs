//! Performance and scalability experiments: Fig. 3 (tool runtimes vs input
//! length), Fig. 4 (scale-up), Fig. 5 (scale-out), and the §4.2 war story.

use crate::report::ExperimentResult;
use std::collections::HashMap;
use std::time::Instant;
use websift_corpus::{CorpusKind, Generator};
use websift_flow::cluster::{admit, ClusterSpec, SchedulingError};
use websift_flow::{
    ExecutionConfig, ExecutionError, Executor, IeResources, LogicalPlan, RunOptions,
};
use websift_observe::Observer;
use websift_ner::crf::{CrfConfig, CrfTagger};
use websift_ner::EntityType;
use websift_pipeline::{documents_to_records, paper, ExperimentContext};
use websift_text::PosTagger;

/// Builds test sentences of roughly the requested character lengths from
/// relevant-web-like vocabulary.
fn sentences_of_lengths(lengths: &[usize]) -> Vec<(usize, String)> {
    let generator = Generator::new(CorpusKind::RelevantWeb, 333);
    // pull a long pool of sentence text to slice from
    let mut pool = String::new();
    for doc in generator.documents(30) {
        pool.push_str(&doc.body.replace('\n', " "));
        pool.push(' ');
        if pool.len() > 400_000 {
            break;
        }
    }
    lengths
        .iter()
        .map(|&len| {
            let mut end = len.min(pool.len());
            while !pool.is_char_boundary(end) {
                end -= 1;
            }
            (len, pool[..end].to_string())
        })
        .collect()
}

/// Wall microseconds per call of `f`: one warm-up call, then enough
/// repetitions for ~10 ms (at least 3, at most 200).
pub(crate) fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    // lint:allow(wall_clock): Fig-3 microbenchmarks time real tool invocations
    let start = Instant::now();
    let mut reps = 0u32;
    while start.elapsed().as_millis() < 10 || reps < 3 {
        f();
        reps += 1;
        if reps >= 200 {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Fig. 3: runtime of POS tagging (a) and entity annotation (b) as a
/// function of input length — dictionary vs ML differing by orders of
/// magnitude, ML-with-context growing superlinearly.
pub fn fig3(ctx: &ExperimentContext) -> Vec<ExperimentResult> {
    let lengths = [64usize, 128, 256, 512, 1024, 2048, 4096];
    let samples = sentences_of_lengths(&lengths);
    let pos = PosTagger::pretrained();

    let mut fig3a = ExperimentResult::new(
        "Fig 3a",
        "POS tagging runtime vs sentence length",
        &["chars", "tokens", "us per call", "status"],
    );
    let capped = pos.clone().with_max_tokens(350);
    for (len, text) in &samples {
        let tokens = websift_text::tokenize::token_strings(text);
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        match capped.tag(&refs) {
            Ok(_) => {
                let us = time_us(|| {
                    let _ = capped.tag(&refs);
                });
                fig3a.row(&[len.to_string(), refs.len().to_string(), format!("{us:.1}"), "ok".into()]);
            }
            Err(e) => {
                fig3a.row(&[len.to_string(), refs.len().to_string(), "-".into(), format!("{e}")]);
            }
        }
    }
    fig3a.note("linear growth with a hard failure on very long sentences — the MedPost behaviour of Fig. 3a");

    // a context-featured CRF for the superlinear ML curve
    let heavy_crf = {
        let gen = Generator::with_lexicon(CorpusKind::Medline, 9, std::sync::Arc::new(ctx.lexicon.as_ref().clone()));
        let sentences = gen.labeled_sentences(80);
        let examples: Vec<_> = sentences
            .iter()
            .map(|ls| websift_flow::packages::resources::labeled_to_example(ls, EntityType::Gene))
            .collect();
        CrfTagger::train(
            EntityType::Gene,
            &examples,
            CrfConfig {
                dim: 1 << 15,
                epochs: 2,
                context_features: true,
                ..CrfConfig::default()
            },
        )
    };
    let dict = &ctx.resources.dict[&EntityType::Gene];
    let ml = &ctx.resources.crf[&EntityType::Gene];

    let mut fig3b = ExperimentResult::new(
        "Fig 3b",
        "Entity annotation runtime vs input length (us per call)",
        &["chars", "dictionary", "ML", "ML+context", "ML/dict ratio"],
    );
    for (len, text) in &samples {
        let dict_us = time_us(|| {
            let _ = dict.tag(text);
        });
        let ml_us = time_us(|| {
            let _ = ml.tag(text);
        });
        let heavy_us = time_us(|| {
            let _ = heavy_crf.tag(text);
        });
        fig3b.row(&[
            len.to_string(),
            format!("{dict_us:.1}"),
            format!("{ml_us:.1}"),
            format!("{heavy_us:.1}"),
            format!("{:.0}x", heavy_us / dict_us.max(0.01)),
        ]);
    }
    fig3b.note("paper: dictionary- and ML-based methods differ in runtime by up to three orders of magnitude; the context-featured CRF grows superlinearly (quadratic feature extraction)");
    vec![fig3a, fig3b]
}

/// The scale-out/scale-up entity flow: preprocessing + POS + the gene
/// dictionary and CRF taggers (one dictionary fits one 24 GB node; see
/// EXPERIMENTS.md for the interpretation).
fn scaling_entity_flow(resources: &IeResources) -> LogicalPlan {
    websift_pipeline::entity_flow_for(
        resources,
        EntityType::Gene,
        websift_pipeline::MethodSelection::Both,
    )
}

fn scaling_linguistic_flow() -> LogicalPlan {
    websift_pipeline::linguistic_flow("docs")
}

fn run_simulated(
    plan: &LogicalPlan,
    records: Vec<websift_flow::Record>,
    dop: usize,
    work_scale: f64,
) -> Result<f64, ExecutionError> {
    let config = ExecutionConfig {
        dop,
        cluster: ClusterSpec::paper_cluster(),
        admission: false,
        // annotations shipped to HDFS grow with the input; scale their
        // volume with the work so the network term is paper-sized too
        byte_scale: work_scale / 20.0,
        chunk_rounds: None,
        work_scale,
        analyze: true,
        ..ExecutionConfig::local(dop)
    };
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records);
    Executor::new(config)
        .run(plan, inputs, RunOptions::default())
        .map(|o| o.metrics.simulated_secs)
}

/// Work-scale factor: our ~1:10000 sample stands in for the paper's 20 GB.
const WORK_SCALE: f64 = 8_000.0;

/// Relevant-web generator with moderated document-length variance: the
/// scaling experiments measure engine behaviour, and the corpus's extreme
/// per-document variance would otherwise swamp the curves with sampling
/// noise (the paper's 20 GB sample is large enough to average it out).
fn scaling_generator(ctx: &ExperimentContext, seed: u64) -> Generator {
    let mut profile = websift_corpus::CorpusProfile::for_kind(CorpusKind::RelevantWeb);
    profile.doc_sentences_sigma = 0.35;
    Generator::with_lexicon(
        CorpusKind::RelevantWeb,
        seed,
        std::sync::Arc::new(ctx.lexicon.as_ref().clone()),
    )
    .with_profile(profile)
}

/// Fig. 4: scale-up — input size grows with the DoP; ideal is a flat line.
pub fn fig4(ctx: &ExperimentContext) -> ExperimentResult {
    let base_docs = 6usize;
    let entity_plan = scaling_entity_flow(&ctx.resources);
    let linguistic_plan = scaling_linguistic_flow();
    let generator = scaling_generator(ctx, 404);

    let mut result = ExperimentResult::new(
        "Fig 4",
        "Scale-up (DoP grows with input size); simulated seconds",
        &["DoP / input", "entity extraction", "linguistic analysis"],
    );
    for dop in [1usize, 2, 4, 8, 12, 16, 20, 24, 28] {
        let docs = generator.documents(base_docs * dop);
        let records = documents_to_records(&docs);
        let entity = run_simulated(&entity_plan, records.clone(), dop, WORK_SCALE).unwrap();
        let ling = run_simulated(&linguistic_plan, records, dop, WORK_SCALE).unwrap();
        result.row(&[
            format!("{dop}/{dop}"),
            format!("{entity:.0}"),
            format!("{ling:.0}"),
        ]);
    }
    result.note("paper: linguistic flow exhibits an almost ideal scale-up, entity flow scales sub-linearly for large DoPs/inputs");
    result
}

/// Fig. 5: scale-out — fixed input, DoP swept to 156; entity flow bounded
/// to 4..=28 (time / memory), linguistic flow unrestricted.
pub fn fig5(ctx: &ExperimentContext) -> ExperimentResult {
    let entity_plan = scaling_entity_flow(&ctx.resources);
    let linguistic_plan = scaling_linguistic_flow();
    let generator = scaling_generator(ctx, 505);
    let docs = generator.documents(96);
    let records = documents_to_records(&docs);
    let cluster = ClusterSpec::paper_cluster();

    // Infeasibility budget: the paper could not run the entity flow below
    // DoP 4 "due to the excessive runtimes of the ML-based taggers".
    let budget_secs = 12.0 * 3600.0;

    let mut result = ExperimentResult::new(
        "Fig 5",
        "Scale-out at fixed input; simulated seconds",
        &["DoP", "entity extraction", "linguistic analysis"],
    );
    let mut entity_at: HashMap<usize, f64> = HashMap::new();
    let mut ling_at: HashMap<usize, f64> = HashMap::new();
    for dop in [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 56, 84, 140, 156] {
        let entity_cell = match admit(&entity_plan, dop, &cluster) {
            Err(SchedulingError::InsufficientMemory { .. }) => "infeasible: memory".to_string(),
            Err(e) => format!("infeasible: {e}"),
            Ok(_) => {
                let secs =
                    run_simulated(&entity_plan, records.clone(), dop, WORK_SCALE).unwrap();
                if secs > budget_secs {
                    format!("infeasible: {:.0}h simulated", secs / 3600.0)
                } else {
                    entity_at.insert(dop, secs);
                    format!("{secs:.0}")
                }
            }
        };
        let ling_secs = run_simulated(&linguistic_plan, records.clone(), dop, WORK_SCALE).unwrap();
        ling_at.insert(dop, ling_secs);
        result.row(&[dop.to_string(), entity_cell, format!("{ling_secs:.0}")]);
    }

    // saturation summary
    if let (Some(&e4), Some(&e16)) = (entity_at.get(&4), entity_at.get(&16)) {
        result.note(format!(
            "entity flow decrease DoP 4 -> 16: {:.0}% (paper: {:.0}% until DoP {}; startup of the gene dictionary floors the curve)",
            (1.0 - e16 / e4) * 100.0,
            paper::ENTITY_TIME_DECREASE * 100.0,
            paper::ENTITY_SATURATION_DOP,
        ));
    }
    if let (Some(&l1), Some(&l12)) = (ling_at.get(&1), ling_at.get(&12)) {
        result.note(format!(
            "linguistic flow decrease DoP 1 -> 12: {:.0}% (paper: {:.0}% until DoP {})",
            (1.0 - l12 / l1) * 100.0,
            paper::LINGUISTIC_TIME_DECREASE * 100.0,
            paper::LINGUISTIC_SATURATION_DOP,
        ));
    }
    result
}

/// §4.2 "Processing the entire crawl — a war story": the three failures
/// and their mitigations, reproduced as typed errors.
pub fn warstory(ctx: &ExperimentContext) -> ExperimentResult {
    let cluster = ClusterSpec::paper_cluster();
    let mut result = ExperimentResult::new(
        "§4.2 war story",
        "Failures of the full flow and their mitigations",
        &["step", "outcome"],
    );

    // 1. full flow: library conflict (OpenNLP 1.4 vs 1.5). First the
    // static analyzer catches it pre-flight (no execution at all) ...
    let full = websift_pipeline::full_analysis_plan(&ctx.resources);
    let gb = full
        .operators()
        .map(|op| op.cost.memory_bytes)
        .sum::<u64>() as f64
        / (1u64 << 30) as f64;
    let preflight = websift_flow::analyze_plan(
        &full,
        &websift_flow::AnalyzeOptions::default().with_admission(cluster.clone(), 28),
    );
    for d in preflight.iter().filter(|d| d.severity == websift_analyze::Severity::Error) {
        result.row(&["full Fig-2 flow, static analyzer".into(), format!("PRE-FLIGHT {d}")]);
    }
    // ... then, with the analyzer bypassed (the paper's fly-blind path),
    // the simulated scheduler hits the same conflict at runtime.
    let blind = ExecutionConfig {
        dop: 28,
        cluster: cluster.clone(),
        admission: true,
        byte_scale: 1.0,
        chunk_rounds: None,
        work_scale: 1.0,
        analyze: false,
        ..ExecutionConfig::local(28)
    };
    match Executor::new(blind).run(&full, HashMap::new(), RunOptions::default()) {
        Err(ExecutionError::Scheduling(e)) => result.row(&[
            "full Fig-2 flow, analyzer bypassed, DoP 28".into(),
            format!("RUNTIME REJECTED: {e}"),
        ]),
        other => result.row(&[
            "full Fig-2 flow, analyzer bypassed, DoP 28".into(),
            format!("unexpected: {other:?}"),
        ]),
    };
    match admit(&full, 28, &cluster) {
        Err(e) => result.row(&["full Fig-2 flow, DoP 28".into(), format!("REJECTED: {e}")]),
        Ok(_) => result.row(&["full Fig-2 flow, DoP 28".into(), "unexpectedly admitted".into()]),
    };
    result.row(&[
        "full-flow memory per worker".into(),
        format!("{gb:.1} GB (paper: ~{:.0} GB; nodes have 24 GB)", paper::FULL_FLOW_GB_PER_WORKER),
    ]);

    // 2. disease ML standalone (version-conflict mitigation)
    let disease = websift_pipeline::entity_flow_for(
        &ctx.resources,
        EntityType::Disease,
        websift_pipeline::MethodSelection::MlOnly,
    );
    result.row(&[
        "disease ML in its own flow".into(),
        match admit(&disease, 28, &cluster) {
            Ok(p) => format!("ADMITTED ({:.1} GB/worker)", p.memory_per_worker as f64 / (1u64 << 30) as f64),
            Err(e) => format!("rejected: {e}"),
        },
    ]);

    // 3. gene dictionary on the big-memory server
    let gene = websift_pipeline::entity_flow_for(
        &ctx.resources,
        EntityType::Gene,
        websift_pipeline::MethodSelection::DictionaryOnly,
    );
    result.row(&[
        "gene recognition on 1 TB server, 40 threads".into(),
        match admit(&gene, 40, &ClusterSpec::big_memory_node()) {
            Ok(_) => "ADMITTED".into(),
            Err(e) => format!("rejected: {e}"),
        },
    ]);

    // 4. network overload from annotation growth, then chunking
    let docs = Generator::with_lexicon(
        CorpusKind::RelevantWeb,
        66,
        std::sync::Arc::new(ctx.lexicon.as_ref().clone()),
    )
    .documents(40);
    let records = documents_to_records(&docs);
    let ling = scaling_linguistic_flow();
    // byte_scale calibrated so the sample's annotations represent ~1.6 TB
    let byte_scale = 1.6e12 / (records.iter().map(|r| r.approx_bytes()).sum::<u64>() as f64 * 3.0);
    let overloaded = ExecutionConfig {
        dop: 28,
        cluster: cluster.clone(),
        admission: false,
        byte_scale,
        chunk_rounds: None,
        work_scale: 1.0,
        analyze: true,
        ..ExecutionConfig::local(28)
    };
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records.clone());
    match Executor::new(overloaded).run(&ling, inputs, RunOptions::default()) {
        Err(ExecutionError::NetworkOverload { intermediate_bytes, capacity_bytes }) => {
            result.row(&[
                "paper-scale intermediates over 1 Gb switch".into(),
                format!(
                    "NETWORK OVERLOAD: {:.2} TB in flight vs {:.0} GB tolerable (paper: {:.1} TB total intermediates)",
                    intermediate_bytes as f64 / 1e12,
                    capacity_bytes as f64 / 1e9,
                    paper::INTERMEDIATE_TOTAL_TB,
                ),
            ]);
        }
        other => {
            result.row(&[
                "paper-scale intermediates over 1 Gb switch".into(),
                format!("unexpected: {other:?}"),
            ]);
        }
    }
    let chunked = ExecutionConfig {
        dop: 28,
        cluster,
        admission: false,
        byte_scale,
        chunk_rounds: Some(32), // "chunks of 50 GB"
        work_scale: 1.0,
        analyze: true,
        ..ExecutionConfig::local(28)
    };
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records);
    result.row(&[
        "same, split into 50 GB chunks".into(),
        match Executor::new(chunked).run(&ling, inputs, RunOptions::default()) {
            Ok(out) => format!("OK ({:.0} simulated s)", out.metrics.simulated_secs),
            Err(e) => format!("failed: {e}"),
        },
    ]);
    result.note("all three paper failures (memory admission, library conflict, network overload) and all three mitigations (flow splitting, big-memory node, data chunking) reproduce as typed outcomes");
    result.note("each failure is reported twice: PRE-FLIGHT rows come from the static analyzer (WS002/WS007) before any record moves — the paper paid cluster hours to learn the same — and RUNTIME REJECTED shows the identical verdict from the scheduler with the analyzer deliberately bypassed (ExecutionConfig.analyze = false)");
    result
}

/// §4.2: share of single-thread runtime per component (entity extraction
/// ~70 %, POS ~12 %). Runs observed: the wall-time share comes from the
/// per-op views (registry-derived), the simulated share from the
/// profiler's per-operator `work` scopes.
pub fn runtime_shares(ctx: &ExperimentContext) -> ExperimentResult {
    let docs = Generator::with_lexicon(
        CorpusKind::Medline,
        77,
        std::sync::Arc::new(ctx.lexicon.as_ref().clone()),
    )
    .documents(60);
    let records = documents_to_records(&docs);
    let plan = websift_pipeline::full_analysis_plan(&ctx.resources);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records);
    let obs = Observer::new();
    let out = Executor::new(ExecutionConfig::local(1))
        .run(&plan, inputs, RunOptions { observer: Some(&obs), ..RunOptions::default() })
        .unwrap();

    let wall_total: f64 = out.metrics.per_op.iter().map(|m| m.wall_ms).sum();
    let wall_share = |pred: fn(&str) -> bool| -> f64 {
        out.metrics
            .per_op
            .iter()
            .filter(|m| pred(&m.name))
            .map(|m| m.wall_ms)
            .sum::<f64>()
            / wall_total
    };
    // startup-excluded per-record work off the logical clock
    let work: Vec<(String, f64)> = obs
        .profiler()
        .scopes()
        .into_iter()
        .filter(|s| {
            matches!(s.path.as_slice(),
                [a, b, c] if a == "flow" && b.starts_with("op:") && c == "work")
        })
        .map(|s| (s.path[1].clone(), s.self_secs))
        .collect();
    let sim_total: f64 = work.iter().map(|(_, s)| s).sum();
    let sim_share = |pred: fn(&str) -> bool| -> f64 {
        work.iter().filter(|(n, _)| pred(n)).map(|(_, s)| s).sum::<f64>() / sim_total
    };

    let mut result = ExperimentResult::new(
        "§4.2 shares",
        "Single-thread runtime share by component",
        &["component", "wall share", "simulated share", "paper share"],
    );
    for (component, pred) in [
        ("entity extraction", (|n: &str| n.contains("annotate_entities")) as fn(&str) -> bool),
        ("part-of-speech tagging", |n: &str| n.contains("annotate_pos")),
    ] {
        let paper_share = if component == "entity extraction" {
            paper::ENTITY_RUNTIME_SHARE
        } else {
            paper::POS_RUNTIME_SHARE
        };
        result.row(&[
            component.into(),
            format!("{:.0}%", wall_share(pred) * 100.0),
            format!("{:.0}%", sim_share(pred) * 100.0),
            format!("{:.0}%", paper_share * 100.0),
        ]);
    }
    result.note("our default CRF taggers run without sentence-context features (see Fig 3b's ML+context column for the heavy configuration), so the measured wall share is lower than the paper's 70%");
    result.note("the simulated share uses the profiler's startup-excluded work scopes, where the paper-scale CRF per-character cost dominates");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentence_samples_cover_lengths() {
        let samples = sentences_of_lengths(&[64, 512]);
        assert_eq!(samples.len(), 2);
        assert!(samples[1].1.len() >= 500);
    }
}
