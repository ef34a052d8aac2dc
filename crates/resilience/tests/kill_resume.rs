//! The tentpole acceptance test: a crawl (and a flow) killed mid-flight
//! and resumed from its last checkpoint must reproduce the final
//! statistics of an uninterrupted run *bit-identically* under the same
//! fault plan. These tests drive the real crawler and flow engine
//! through `websift-resilience`'s machinery end to end (dev-dependency
//! cycle: the crates under test depend on this crate's lib).

use std::collections::HashMap;
use std::sync::Arc;
use websift_crawler::{
    train_focus_classifier, CrawlCheckpoint, CrawlConfig, CrawlSession, FocusedCrawler,
    ResilienceOptions,
};
use websift_flow::{
    ExecutionConfig, Executor, FlowCheckpoint, FlowResilience, LogicalPlan, Operator, Record,
    RunOptions,
};
use websift_web::{PageId, SimulatedWeb, Url, WebGraph, WebGraphConfig};

fn crawl_setup() -> (SimulatedWeb, Vec<Url>) {
    let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
    let seeds: Vec<Url> = {
        let graph = web.graph();
        (0..graph.num_pages() as u32)
            .map(PageId)
            .filter(|&p| graph.page(p).relevant)
            .take(20)
            .map(|p| graph.url_of(p))
            .collect()
    };
    (web, seeds)
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig {
        max_pages: 220,
        fetch_list_total: 50,
        threads: 4,
        ..CrawlConfig::default()
    }
}

#[test]
fn crawl_killed_and_resumed_is_bit_identical_to_uninterrupted() {
    let (web, seeds) = crawl_setup();
    let opts = ResilienceOptions::injected(0xDEAD_BEEF, 0.05, 2);

    let classifier = || train_focus_classifier(60, 1.5, 99);

    // Uninterrupted baseline under the same fault plan and cadence.
    let mut baseline = FocusedCrawler::new(&web, classifier(), crawl_config());
    let (base_report, base_ckpts) = baseline.crawl_resilient(seeds.clone(), &opts);
    assert!(!base_ckpts.is_empty(), "baseline took no checkpoints");

    // Kill after three rounds — step three, drop the session — so work
    // since the round-2 cadence checkpoint is lost.
    let mut victim = CrawlSession::start(
        FocusedCrawler::new(&web, classifier(), crawl_config()),
        seeds,
        &opts,
    );
    while victim.round() < 3 && victim.step_round() {}
    let last = victim
        .take_cadence_checkpoints()
        .pop()
        .expect("killed crawl took no checkpoint");
    drop(victim);

    // Round-trip the checkpoint through bytes (the durable path).
    let restored = CrawlCheckpoint::from_bytes(last.round, last.as_bytes().to_vec())
        .expect("sealed checkpoint failed verification");
    let mut resumed = CrawlSession::resume(
        &web,
        &restored,
        crawl_config(),
        &opts,
        None,
        Arc::new(websift_observe::Observer::new()),
    )
    .expect("resume failed");
    while resumed.step_round() {}
    let resumed_report = resumed.report();

    // Bit-identical final CrawlDB statistics: full state digest plus the
    // report's floating-point accumulators compared by bit pattern.
    assert_eq!(
        baseline.state_digest(&base_report),
        resumed.state_digest(),
        "resumed crawl state diverged from the uninterrupted baseline"
    );
    assert_eq!(base_report.relevant.len(), resumed_report.relevant.len());
    assert_eq!(base_report.irrelevant.len(), resumed_report.irrelevant.len());
    assert_eq!(base_report.failed, resumed_report.failed);
    assert_eq!(base_report.duplicates, resumed_report.duplicates);
    assert_eq!(
        base_report.simulated_secs.to_bits(),
        resumed_report.simulated_secs.to_bits()
    );
    assert_eq!(
        base_report.harvest_rate().to_bits(),
        resumed_report.harvest_rate().to_bits()
    );
    assert_eq!(base_report.resilience, resumed_report.resilience);
}

fn flow_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("in");
    let tag = plan.add(
        src,
        Operator::map("tag", websift_flow::Package::Base, |mut r| {
            let n = r.text().map(str::len).unwrap_or(0);
            r.set("len", n);
            r
        }),
    )
    .expect("static plan");
    let keep = plan.add(
        tag,
        Operator::filter("keep", websift_flow::Package::Base, |r| {
            r.get("len").and_then(|v| v.as_int()).unwrap_or(0) % 3 != 0
        }),
    )
    .expect("static plan");
    plan.sink(keep, "out").expect("static plan");
    plan
}

fn flow_docs(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i).set("text", "x".repeat(10 + i % 17));
            r
        })
        .collect()
}

#[test]
fn flow_killed_and_resumed_is_bit_identical_to_uninterrupted() {
    let plan = flow_plan();
    let res = FlowResilience::injected(0xF10D, 0.25, 1);
    let exec = Executor::new(ExecutionConfig::local(4));
    let inputs = || {
        let mut m = HashMap::new();
        m.insert("in".to_string(), flow_docs(60));
        m
    };

    let opts = |resume| RunOptions { resilience: res.clone(), resume, ..RunOptions::default() };
    let baseline = exec.run(&plan, inputs(), opts(None)).expect("baseline flow failed");

    // a run killed before node 2 leaves the frames sealed up to there
    let ckpt = baseline
        .checkpoints
        .iter()
        .rfind(|c| c.next_node <= 2)
        .expect("no checkpoint before kill");
    let restored = FlowCheckpoint::from_bytes(ckpt.as_bytes().to_vec()).unwrap();

    let resumed = exec.run(&plan, inputs(), opts(Some(&restored))).expect("resume failed");

    assert_eq!(baseline.sinks, resumed.sinks);
    assert_eq!(
        baseline.deterministic_digest(),
        resumed.deterministic_digest(),
        "resumed flow diverged from the uninterrupted baseline"
    );
}
