//! Whole-system observability determinism: under a fixed seed, repeated
//! runs must *observe* byte-identically — same JSONL event streams, same
//! registry snapshots, same merged histograms — because every timestamp
//! comes from the simulated clock, never from wall time.

use std::collections::HashMap;
use std::sync::Arc;
use websift::crawler::{train_focus_classifier, CrawlConfig, FocusedCrawler};
use websift::flow::{Executor, ExecutionConfig, RunOptions};
use websift::observe::{HistogramState, MetricValue, Observer};
use websift::pipeline::{documents_to_records, full_analysis_plan, ExperimentContext};
use websift::resilience::checkpoint::encode_to_vec;
use websift::web::{PageId, SimulatedWeb, WebGraph, WebGraphConfig};

fn observed_crawl() -> Arc<Observer> {
    let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
    let classifier = train_focus_classifier(100, 2.0, 9);
    let seeds: Vec<_> = (0..web.graph().num_pages() as u32)
        .map(PageId)
        .filter(|&p| web.graph().page(p).relevant)
        .take(12)
        .map(|p| web.graph().url_of(p))
        .collect();
    let obs = Arc::new(Observer::new());
    let mut crawler = FocusedCrawler::new(
        &web,
        classifier,
        CrawlConfig { max_pages: 90, threads: 4, ..CrawlConfig::default() },
    )
    .with_observer(obs.clone());
    let _ = crawler.crawl(seeds);
    obs
}

#[test]
fn same_seed_crawls_trace_byte_identically() {
    let (a, b) = (observed_crawl(), observed_crawl());
    let (ja, jb) = (a.tracer().to_jsonl(), b.tracer().to_jsonl());
    assert!(!ja.is_empty());
    assert!(ja.contains("crawl.fetch"), "round spans present: {ja}");
    assert_eq!(ja.as_bytes(), jb.as_bytes(), "JSONL event streams diverged");
    assert_eq!(
        encode_to_vec(&a.registry().snapshot()),
        encode_to_vec(&b.registry().snapshot()),
        "registry snapshots diverged"
    );
}

fn observed_flow(ctx: &ExperimentContext) -> Observer {
    let docs = websift::corpus::Generator::with_lexicon(
        websift::corpus::CorpusKind::Medline,
        5,
        Arc::new(ctx.lexicon.as_ref().clone()),
    )
    .documents(6);
    let plan = full_analysis_plan(&ctx.resources);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), documents_to_records(&docs));
    let obs = Observer::new();
    Executor::new(ExecutionConfig::local(2))
        .run(&plan, inputs, RunOptions { observer: Some(&obs), ..RunOptions::default() })
        .expect("flow runs");
    obs
}

/// Merges every histogram in the observer's registry into one state —
/// exercising the mergeable-state design across a whole run's metrics.
fn merged_histograms(obs: &Observer) -> HistogramState {
    let mut merged = HistogramState::default();
    for (_, _, value) in &obs.registry().snapshot().entries {
        if let MetricValue::Histogram(h) = value {
            merged.merge(h);
        }
    }
    merged
}

#[test]
fn same_seed_flows_observe_identically() {
    let ctx = ExperimentContext::tiny(21);
    let (a, b) = (observed_flow(&ctx), observed_flow(&ctx));

    let (ja, jb) = (a.tracer().to_jsonl(), b.tracer().to_jsonl());
    assert!(ja.contains("flow.op"), "per-node spans present: {ja}");
    assert_eq!(ja.as_bytes(), jb.as_bytes(), "JSONL event streams diverged");

    let (ha, hb) = (merged_histograms(&a), merged_histograms(&b));
    assert!(ha.count > 0, "histogram observations recorded");
    assert_eq!(encode_to_vec(&ha), encode_to_vec(&hb), "merged histograms diverged");

    // the summary renders every registry series, the start-up and work
    // charges behind Fig 8 included
    assert!(a.summary().contains("flow.op_startup_secs{"));
    assert_eq!(a.summary(), b.summary());
}
