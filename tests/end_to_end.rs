//! Integration tests spanning the whole system: crawl → corpora →
//! analysis flows → cross-corpus comparison, plus determinism and the
//! declarative front end.

use std::collections::HashMap;
use std::sync::Arc;
use websift::corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift::crawler::{train_focus_classifier, CrawlConfig, FocusedCrawler};
use websift::flow::{compile, ExecutionConfig, Executor, RunOptions};
use websift::ner::{EntityType, Method};
use websift::pipeline::{
    aggregate, aggregate_entities, documents_to_records, full_analysis_plan, run_over_documents,
    Corpora, CorpusScale, ExperimentContext,
};
use websift::web::{PageId, SimulatedWeb, WebGraph, WebGraphConfig};

fn tiny_web() -> SimulatedWeb {
    SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()))
}

#[test]
fn crawl_feeds_the_analysis_pipeline() {
    // Crawl the simulated web, adopt the result as the web corpora, and run
    // the full analysis flow over the crawled relevant corpus.
    let web = tiny_web();
    let classifier = train_focus_classifier(100, 2.0, 9);
    let seeds: Vec<_> = (0..web.graph().num_pages() as u32)
        .map(PageId)
        .filter(|&p| web.graph().page(p).relevant)
        .take(15)
        .map(|p| web.graph().url_of(p))
        .collect();
    let mut crawler = FocusedCrawler::new(
        &web,
        classifier,
        CrawlConfig {
            max_pages: 120,
            threads: 4,
            ..CrawlConfig::default()
        },
    );
    let report = crawler.crawl(seeds);
    assert!(!report.relevant.is_empty(), "crawl harvested nothing");

    let ctx = ExperimentContext::tiny(1);
    let mut corpora = Corpora::generate(
        CorpusScale::tiny(),
        Arc::new(Lexicon::generate(LexiconScale::tiny())),
        3,
    );
    corpora.adopt_crawl(&report);
    let docs = corpora.get(CorpusKind::RelevantWeb);
    assert_eq!(docs.len(), report.relevant.len());

    let plan = full_analysis_plan(&ctx.resources);
    let out = run_over_documents(&plan, docs, 4).unwrap();
    let ling = aggregate(&out.sinks["linguistic"]);
    assert!(ling.documents > 0);
    assert!(ling.doc_length.is_some());
}

#[test]
fn four_corpora_compare_in_the_paper_direction() {
    let ctx = ExperimentContext::tiny(5);
    let plan = full_analysis_plan(&ctx.resources);
    let mut density = HashMap::new();
    for kind in [CorpusKind::RelevantWeb, CorpusKind::IrrelevantWeb, CorpusKind::Medline] {
        let out = run_over_documents(&plan, ctx.corpora.get(kind), 4).unwrap();
        let ents = aggregate_entities(&out.sinks["entities"]);
        let per_1000: f64 = EntityType::all()
            .iter()
            .map(|&e| ents.mentions_per_1000_sentences(e))
            .sum();
        density.insert(kind, per_1000);
    }
    assert!(
        density[&CorpusKind::RelevantWeb] > 5.0 * density[&CorpusKind::IrrelevantWeb],
        "relevant {} vs irrelevant {}",
        density[&CorpusKind::RelevantWeb],
        density[&CorpusKind::IrrelevantWeb]
    );
    assert!(
        density[&CorpusKind::Medline] > density[&CorpusKind::IrrelevantWeb],
        "medline must outrank irrelevant"
    );
}

#[test]
fn table4_shape_ml_exceeds_dictionary_on_relevant_web() {
    let ctx = ExperimentContext::tiny(8);
    let plan = full_analysis_plan(&ctx.resources);
    let out = run_over_documents(&plan, ctx.corpora.get(CorpusKind::RelevantWeb), 4).unwrap();
    let ents = aggregate_entities(&out.sinks["entities"]);
    let dict = ents.distinct_names(EntityType::Gene, Method::Dictionary);
    let ml = ents.distinct_names(EntityType::Gene, Method::Ml);
    assert!(dict > 0, "dictionary found nothing");
    assert!(ml > dict / 2, "ML gene inventory unexpectedly tiny: {ml} vs dict {dict}");
}

#[test]
fn meteor_script_runs_against_the_standard_registry() {
    let ctx = ExperimentContext::tiny(2);
    let script = "
        $docs  = read 'in';
        $net   = apply wa.extract_net_text $docs;
        $clean = apply dc.filter_empty_text $net;
        $sents = apply ie.annotate_sentences $clean;
        $neg   = apply ie.annotate_negation $sents;
        write $neg 'out';
    ";
    let plan = compile(script, &ctx.registry).unwrap();
    let docs = Generator::with_lexicon(CorpusKind::RelevantWeb, 4, ctx.lexicon.clone()).documents(4);
    let inputs = HashMap::from([("in".to_string(), documents_to_records(&docs))]);
    let out = Executor::new(ExecutionConfig::local(2))
        .run(&plan, inputs, RunOptions::default())
        .unwrap();
    assert!(!out.sinks["out"].is_empty());
}

#[test]
fn pipeline_results_are_deterministic_across_runs_and_dops() {
    let ctx = ExperimentContext::tiny(6);
    let plan = full_analysis_plan(&ctx.resources);
    let docs = ctx.corpora.get(CorpusKind::Medline);
    let a = run_over_documents(&plan, docs, 1).unwrap();
    let b = run_over_documents(&plan, docs, 8).unwrap();
    assert_eq!(a.sinks["entities"], b.sinks["entities"]);
    assert_eq!(a.sinks["linguistic"], b.sinks["linguistic"]);
}

#[test]
fn simulated_web_and_crawl_are_reproducible() {
    let run = || {
        let web = tiny_web();
        let classifier = train_focus_classifier(60, 2.0, 4);
        let seeds: Vec<_> = (0..web.graph().num_pages() as u32)
            .map(PageId)
            .filter(|&p| web.graph().page(p).relevant)
            .take(10)
            .map(|p| web.graph().url_of(p))
            .collect();
        let mut crawler = FocusedCrawler::new(
            &web,
            classifier,
            CrawlConfig {
                max_pages: 60,
                threads: 4,
                ..CrawlConfig::default()
            },
        );
        let report = crawler.crawl(seeds);
        let urls: Vec<String> = report.relevant.iter().map(|p| p.url.to_string()).collect();
        (urls, report.harvest_rate())
    };
    let (urls_a, hr_a) = run();
    let (urls_b, hr_b) = run();
    assert_eq!(urls_a, urls_b);
    assert!((hr_a - hr_b).abs() < 1e-12);
}

#[test]
fn full_flow_admission_fails_but_split_flows_pass() {
    use websift::flow::cluster::{admit, ClusterSpec};
    let ctx = ExperimentContext::tiny(7);
    let full = full_analysis_plan(&ctx.resources);
    assert!(admit(&full, 28, &ClusterSpec::paper_cluster()).is_err());
    let ling = websift::pipeline::linguistic_flow("docs");
    assert!(admit(&ling, 28, &ClusterSpec::paper_cluster()).is_ok());
}
