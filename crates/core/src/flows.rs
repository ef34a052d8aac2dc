//! The consolidated analysis flows of the paper's Fig. 2.
//!
//! "The complete data flow comprising all required analysis for this study
//! consists of 38 elementary operators": web pages are length-filtered,
//! markup is detected/repaired/removed, sentences and tokens are
//! annotated, then the flow fans out into the linguistic branch (negation,
//! pronouns, parentheses) and the entity branch (POS tagging, six entity
//! annotators, cleansing). The split flows ([`linguistic_flow`],
//! [`entity_flow_for`]) are the paper's §4.2 mitigation — "we created one
//! flow for all linguistic analysis and one flow per entity class".

use std::collections::HashMap;
use websift_corpus::Document;
use websift_flow::packages::{base, dc, ie, wa};
use websift_flow::{
    ExecutionConfig, ExecutionError, Executor, FlowOutput, IeResources, LogicalPlan, PlanError,
    Record, RunOptions, StoreSink,
};
use websift_ner::EntityType;

/// Which extraction method(s) an entity flow should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSelection {
    DictionaryOnly,
    MlOnly,
    Both,
}

/// Shared preprocessing prefix: length filter → markup repair → net-text
/// extraction → cleansing → sentence + token annotation. Returns the node
/// whose output is clean annotated text.
fn preprocessing(plan: &mut LogicalPlan, source: &str) -> Result<usize, PlanError> {
    let src = plan.source(source);
    let bounded = plan.add(src, base::filter_length(base::DEFAULT_MAX_TEXT_CHARS))?;
    let detected = plan.add(bounded, wa::detect_markup())?;
    let repaired = plan.add(detected, wa::repair_markup_op())?;
    let net = plan.add(repaired, wa::extract_net_text())?;
    let transcodable = plan.add(net, dc::drop_untranscodable())?;
    let nonempty = plan.add(transcodable, dc::filter_empty_text())?;
    let normalized = plan.add(nonempty, dc::normalize_whitespace())?;
    let sentences = plan.add(normalized, ie::annotate_sentences())?;
    plan.add(sentences, ie::annotate_tokens())
}

/// Message for the `expect` on the static flow builders below: these
/// plans are code, not scripts, so a [`PlanError`] is a programming bug.
const STATIC_PLAN: &str = "static flow builder produces a valid plan";

/// The full Fig.-2 flow: shared preprocessing fanning out into the
/// linguistic branch and all six entity annotators.
pub fn full_analysis_plan(resources: &IeResources) -> LogicalPlan {
    try_full_analysis_plan(resources).expect(STATIC_PLAN)
}

fn try_full_analysis_plan(resources: &IeResources) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let pre = preprocessing(&mut plan, "docs")?;

    // Linguistic branch.
    let neg = plan.add(pre, ie::annotate_negation())?;
    let pron = plan.add(neg, ie::annotate_pronouns())?;
    let paren = plan.add(pron, ie::annotate_parentheses())?;
    plan.sink(paren, "linguistic")?;

    // Entity branch: POS, then dictionary + ML for each entity class,
    // then annotation cleansing.
    let pos = plan.add(pre, ie::annotate_pos(resources.pos.clone()))?;
    let mut cur = pos;
    for entity in EntityType::all() {
        cur = plan.add(cur, ie::annotate_entities_dict(resources, entity))?;
        cur = plan.add(cur, ie::annotate_entities_ml(resources, entity))?;
    }
    // Per-method inventories (Table 4) are counted before cleansing; the
    // deduplicated view feeds downstream fact extraction.
    plan.sink(cur, "entities")?;
    let dedup = plan.add(cur, dc::dedup_entities())?;
    plan.sink(dedup, "entities_deduped")?;

    Ok(plan)
}

/// A Reduce-terminated corpus-frequency flow: shared preprocessing, a
/// FlatMap exploding each document into one record per token, and the
/// combinable `base.count_by` Reduce over the token strings.
///
/// This is the partial-aggregation benchmark pipeline: with combining
/// enabled the fused workers pre-aggregate token counts, so the shuffle
/// to the final reduce carries per-key partial maps instead of every
/// token record.
pub fn token_frequency_flow(source: &str) -> LogicalPlan {
    try_token_frequency_flow(source).expect(STATIC_PLAN)
}

fn try_token_frequency_flow(source: &str) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let pre = preprocessing(&mut plan, source)?;
    let toks = plan.add(pre, ie::explode_tokens())?;
    let counts = plan.add(toks, base::count_by("token"))?;
    plan.sink(counts, "token_frequencies")?;
    Ok(plan)
}

/// The linguistic-only flow (first war-story mitigation split).
pub fn linguistic_flow(source: &str) -> LogicalPlan {
    try_linguistic_flow(source).expect(STATIC_PLAN)
}

fn try_linguistic_flow(source: &str) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let pre = preprocessing(&mut plan, source)?;
    let neg = plan.add(pre, ie::annotate_negation())?;
    let pron = plan.add(neg, ie::annotate_pronouns())?;
    let paren = plan.add(pron, ie::annotate_parentheses())?;
    plan.sink(paren, "linguistic")?;
    Ok(plan)
}

/// One entity class's flow (the per-class split). The ML disease tagger
/// brings its own preprocessing and conflicting OpenNLP version, which is
/// why it must be in a flow of its own: combined with the sentence
/// annotator it fails admission.
pub fn entity_flow_for(
    resources: &IeResources,
    entity: EntityType,
    method: MethodSelection,
) -> LogicalPlan {
    try_entity_flow_for(resources, entity, method).expect(STATIC_PLAN)
}

fn try_entity_flow_for(
    resources: &IeResources,
    entity: EntityType,
    method: MethodSelection,
) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let mut cur = match (entity, method) {
        // ML-disease alone: raw text in, own preprocessing (no OpenNLP-15
        // ops). Any flow combining the ML disease tagger with the standard
        // sentence/token annotators carries the version conflict and is
        // rejected at admission — exactly the paper's situation.
        (EntityType::Disease, MethodSelection::MlOnly) => {
            let src = plan.source("docs");
            let bounded = plan.add(src, base::filter_length(base::DEFAULT_MAX_TEXT_CHARS))?;
            let net = plan.add(bounded, wa::extract_net_text())?;
            plan.add(net, dc::filter_empty_text())?
        }
        _ => preprocessing(&mut plan, "docs")?,
    };
    if matches!(method, MethodSelection::DictionaryOnly | MethodSelection::Both) {
        cur = plan.add(cur, ie::annotate_entities_dict(resources, entity))?;
    }
    if matches!(method, MethodSelection::MlOnly | MethodSelection::Both) {
        cur = plan.add(cur, ie::annotate_entities_ml(resources, entity))?;
    }
    let dedup = plan.add(cur, dc::dedup_entities())?;
    plan.sink(dedup, "entities")?;
    Ok(plan)
}

/// The entity flow wired to a serving store: same extraction pipeline as
/// [`entity_flow_for`] with both methods, but the deduplicated mentions
/// sink to `store:<store>/entities`, which a run given that store
/// ([`RunOptions::store`]) drains into it instead of an in-memory dataset.
pub fn entity_store_flow(resources: &IeResources, entity: EntityType, store: &str) -> LogicalPlan {
    try_entity_store_flow(resources, entity, store).expect(STATIC_PLAN)
}

fn try_entity_store_flow(
    resources: &IeResources,
    entity: EntityType,
    store: &str,
) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let mut cur = preprocessing(&mut plan, "docs")?;
    cur = plan.add(cur, ie::annotate_entities_dict(resources, entity))?;
    cur = plan.add(cur, ie::annotate_entities_ml(resources, entity))?;
    let dedup = plan.add(cur, dc::dedup_entities())?;
    plan.store_sink(dedup, store, "entities")?;
    Ok(plan)
}

/// The live-session flow: one plan that feeds both serving surfaces at
/// once. Preprocessing fans out into (a) the entity branch — dictionary
/// and ML annotation, dedup, and a `store:<store>/entities` sink for
/// the serving store — and (b) the token branch, whose combinable
/// `base.count_by` Reduce terminates in a plain sink so a live session
/// can retain its per-key state across rounds.
pub fn live_extraction_flow(
    resources: &IeResources,
    entity: EntityType,
    store: &str,
) -> LogicalPlan {
    try_live_extraction_flow(resources, entity, store).expect(STATIC_PLAN)
}

fn try_live_extraction_flow(
    resources: &IeResources,
    entity: EntityType,
    store: &str,
) -> Result<LogicalPlan, PlanError> {
    let mut plan = LogicalPlan::new();
    let pre = preprocessing(&mut plan, "docs")?;

    // Entity branch into the serving store.
    let dict = plan.add(pre, ie::annotate_entities_dict(resources, entity))?;
    let ml = plan.add(dict, ie::annotate_entities_ml(resources, entity))?;
    let dedup = plan.add(ml, dc::dedup_entities())?;
    plan.store_sink(dedup, store, "entities")?;

    // Token-frequency branch with a retained terminal reduce.
    let toks = plan.add(pre, ie::explode_tokens())?;
    let counts = plan.add(toks, base::count_by("token"))?;
    plan.sink(counts, "token_frequencies")?;
    Ok(plan)
}

/// Runs a plan over documents at the given DoP with a permissive local
/// cluster (admission off): the everyday execution path.
pub fn run_over_documents(
    plan: &LogicalPlan,
    docs: &[Document],
    dop: usize,
) -> Result<FlowOutput, ExecutionError> {
    let source = plan.sources().first().map(|s| s.to_string()).unwrap_or_default();
    let inputs = HashMap::from([(source, crate::corpora::documents_to_records(docs))]);
    Executor::new(ExecutionConfig::local(dop)).run(plan, inputs, RunOptions::default())
}

/// [`run_over_documents`] with the plan's `store:` sinks drained into
/// `store` — how a pipeline feeds the serving layer.
pub fn run_over_documents_into(
    plan: &LogicalPlan,
    docs: &[Document],
    dop: usize,
    store: &mut dyn StoreSink,
) -> Result<FlowOutput, ExecutionError> {
    let source = plan.sources().first().map(|s| s.to_string()).unwrap_or_default();
    let inputs = HashMap::from([(source, crate::corpora::documents_to_records(docs))]);
    let opts = RunOptions { store: Some(store), ..RunOptions::default() };
    Executor::new(ExecutionConfig::local(dop)).run(plan, inputs, opts)
}

/// Aggregate outcome of the linguistic flow over a document set — the
/// quickstart-level API.
#[derive(Debug, Clone, Default)]
pub struct LinguisticReport {
    pub documents: usize,
    pub sentences: usize,
    pub negations: usize,
    pub pronouns: usize,
    pub parentheses: usize,
}

/// Convenience: runs the linguistic flow and aggregates counts.
pub fn linguistic_report(docs: &[Document]) -> LinguisticReport {
    let plan = linguistic_flow("docs");
    let out = run_over_documents(&plan, docs, 2).expect("linguistic flow runs locally");
    let records: &[Record] = &out.sinks["linguistic"];
    let count_field =
        |r: &Record, f: &str| r.get(f).and_then(websift_flow::Value::array_len).unwrap_or(0);
    let mut report = LinguisticReport {
        documents: docs.len(),
        ..Default::default()
    };
    for r in records {
        report.sentences += count_field(r, "sentences");
        report.negations += count_field(r, "negation");
        report.pronouns += count_field(r, "pronouns");
        report.parentheses += count_field(r, "parens");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, OnceLock};
    use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
    use websift_flow::cluster::{admit, ClusterSpec, SchedulingError};

    fn resources() -> &'static IeResources {
        static RES: OnceLock<IeResources> = OnceLock::new();
        RES.get_or_init(|| IeResources::quick_for_tests(LexiconScale::tiny()))
    }

    fn docs(kind: CorpusKind, n: usize) -> Vec<Document> {
        Generator::with_lexicon(kind, 3, Arc::new(Lexicon::generate(LexiconScale::tiny())))
            .documents(n)
    }

    #[test]
    fn full_plan_has_paper_scale_operator_count() {
        let plan = full_analysis_plan(resources());
        let n = plan.operator_count();
        assert!(
            (15..=40).contains(&n),
            "full flow has {n} elementary operators"
        );
        plan.validate().unwrap();
    }

    #[test]
    fn every_operator_of_every_paper_flow_can_ship_to_a_worker_shard() {
        let plans = [
            ("full", full_analysis_plan(resources())),
            ("linguistic", linguistic_flow("docs")),
            ("token_frequency", token_frequency_flow("docs")),
            ("entity", entity_flow_for(resources(), EntityType::Drug, MethodSelection::Both)),
            ("disease_ml", entity_flow_for(resources(), EntityType::Disease, MethodSelection::MlOnly)),
            ("entity_store", entity_store_flow(resources(), EntityType::Gene, "kb")),
            ("live", live_extraction_flow(resources(), EntityType::Gene, "kb")),
        ];
        for (flow, plan) in &plans {
            for op in plan.operators() {
                assert!(op.wire().is_some(), "{flow}: '{}' has no wire form", op.name);
            }
        }
    }

    #[test]
    fn full_plan_fails_admission_on_paper_cluster() {
        // the war story: memory + the OpenNLP conflict
        let plan = full_analysis_plan(resources());
        let err = admit(&plan, 28, &ClusterSpec::paper_cluster()).unwrap_err();
        assert!(
            matches!(
                err,
                SchedulingError::LibraryConflict { .. } | SchedulingError::InsufficientMemory { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn split_flows_pass_admission_individually() {
        let ling = linguistic_flow("docs");
        assert!(admit(&ling, 28, &ClusterSpec::paper_cluster()).is_ok());
        let disease_ml =
            entity_flow_for(resources(), EntityType::Disease, MethodSelection::MlOnly);
        assert!(admit(&disease_ml, 28, &ClusterSpec::paper_cluster()).is_ok());
    }

    #[test]
    fn linguistic_flow_runs_on_web_docs() {
        let report = linguistic_report(&docs(CorpusKind::RelevantWeb, 4));
        assert_eq!(report.documents, 4);
        assert!(report.sentences > 0);
        assert!(report.pronouns + report.negations + report.parentheses > 0);
    }

    #[test]
    fn linguistic_flow_runs_on_medline_docs() {
        let report = linguistic_report(&docs(CorpusKind::Medline, 6));
        assert!(report.sentences >= 6);
    }

    #[test]
    fn entity_flow_extracts_entities() {
        let plan = entity_flow_for(resources(), EntityType::Gene, MethodSelection::Both);
        let out = run_over_documents(&plan, &docs(CorpusKind::Medline, 6), 2).unwrap();
        let with_entities = out.sinks["entities"]
            .iter()
            .filter(|r| r.contains("entities"))
            .count();
        assert!(with_entities > 0, "no entities extracted");
    }

    #[test]
    fn token_frequency_flow_counts_tokens_identically_combined_or_not() {
        let plan = token_frequency_flow("docs");
        plan.validate().unwrap();
        // with combining on, the executor pre-aggregates the terminal
        // reduce inside its fused stage
        let stages = websift_flow::plan_stages(&plan, true, true);
        assert!(stages.iter().any(|s| s.combined_reduce), "{stages:?}");

        let input = docs(CorpusKind::RelevantWeb, 6);
        let records = crate::corpora::documents_to_records(&input);
        let mut inputs = HashMap::new();
        inputs.insert("docs".to_string(), records);

        let mut combined_cfg = ExecutionConfig::local(3);
        combined_cfg.combining = true;
        let mut plain_cfg = ExecutionConfig::local(3);
        plain_cfg.combining = false;
        let combined =
            Executor::new(combined_cfg).run(&plan, inputs.clone(), RunOptions::default()).unwrap();
        let plain = Executor::new(plain_cfg).run(&plan, inputs, RunOptions::default()).unwrap();

        let freqs = &combined.sinks["token_frequencies"];
        assert!(!freqs.is_empty(), "no token frequencies produced");
        let total: i64 =
            freqs.iter().map(|r| r.get("count").unwrap().as_int().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(freqs, &plain.sinks["token_frequencies"]);
        assert!(
            combined.physical.shuffle_bytes < plain.physical.shuffle_bytes,
            "combining should shrink the shuffle: {} vs {}",
            combined.physical.shuffle_bytes,
            plain.physical.shuffle_bytes
        );
    }

    #[test]
    fn full_flow_executes_locally() {
        let plan = full_analysis_plan(resources());
        let out = run_over_documents(&plan, &docs(CorpusKind::Medline, 4), 2).unwrap();
        assert!(out.sinks.contains_key("linguistic"));
        assert!(out.sinks.contains_key("entities"));
        assert!(!out.sinks["entities"].is_empty());
    }
}
