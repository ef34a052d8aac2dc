//! Resilience experiments: goodput and recovery overhead under injected
//! faults, plus the kill-and-resume determinism check.
//!
//! The paper's pipeline lost whole crawl segments and flow runs to
//! infrastructure failures ("war story", §4.2). These experiments
//! measure what the `websift-resilience` subsystem buys back: crawls
//! and flows are driven at fault rates {0 %, 1 %, 5 %, 20 %}, and at
//! each rate a run is killed mid-flight and resumed from its last
//! checkpoint to confirm the recovery invariant — same seed, same
//! final statistics, bit for bit.

use std::sync::Arc;

use crate::report::ExperimentResult;
use websift_crawler::{
    train_focus_classifier, CrawlConfig, CrawlReport, CrawlSession, FocusedCrawler,
    ResilienceOptions,
};
use websift_flow::{
    ExecutionConfig, Executor, FlowResilience, LogicalPlan, Operator, Package, Record,
};
use websift_observe::Observer;
use websift_web::{PageId, SimulatedWeb, Url, WebGraph, WebGraphConfig};

/// The fault rates exercised by every recovery experiment.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

const FAULT_SEED: u64 = 0x5EED_FA17;
const CHECKPOINT_EVERY_ROUNDS: u64 = 4;

fn recovery_web() -> SimulatedWeb {
    SimulatedWeb::new(WebGraph::generate(WebGraphConfig {
        hosts: 80,
        pages_per_host_median: 15.0,
        ..WebGraphConfig::default()
    }))
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig {
        max_pages: 1_200,
        fetch_list_total: 80,
        threads: 4,
        ..CrawlConfig::default()
    }
}

fn seeds_of(web: &SimulatedWeb) -> Vec<Url> {
    let graph = web.graph();
    (0..graph.num_pages() as u32)
        .map(PageId)
        .filter(|&p| graph.page(p).relevant)
        .take(25)
        .map(|p| graph.url_of(p))
        .collect()
}

fn fresh_crawler(web: &SimulatedWeb) -> FocusedCrawler<'_> {
    FocusedCrawler::new(web, train_focus_classifier(80, 1.5, 99), crawl_config())
}

fn pages(report: &CrawlReport) -> u64 {
    (report.relevant.len() + report.irrelevant.len()) as u64
}

/// Pages harvested per simulated hour — throughput net of retries,
/// backoff waits, and recovery stalls.
fn goodput(report: &CrawlReport) -> f64 {
    if report.simulated_secs <= 0.0 {
        return 0.0;
    }
    pages(report) as f64 / (report.simulated_secs / 3600.0)
}

/// Crawl-side recovery: goodput under faults and the kill-and-resume
/// determinism check at every fault rate.
pub fn crawl_recovery() -> Vec<ExperimentResult> {
    let web = recovery_web();
    let seeds = seeds_of(&web);

    let mut table = ExperimentResult::new(
        "Recovery (crawl)",
        "Focused crawl under injected faults",
        &[
            "fault rate",
            "pages",
            "failed",
            "retries",
            "exhausted",
            "breaker trips",
            "panics",
            "goodput (pages/sim-h)",
            "recovery wait (sim s)",
            "resume ✓",
        ],
    );

    let mut baseline_goodput = None;
    for rate in FAULT_RATES {
        let opts = ResilienceOptions::injected(FAULT_SEED, rate, CHECKPOINT_EVERY_ROUNDS);
        let (report, _) = fresh_crawler(&web).crawl_resilient(seeds.clone(), &opts);

        // Kill the same configuration mid-crawl (step six rounds, drop
        // the session), resume from the last cadence checkpoint, and
        // compare complete final state digests.
        let mut victim = CrawlSession::start(fresh_crawler(&web), seeds.clone(), &opts);
        while victim.round() < 6 && victim.step_round() {}
        let last = victim.take_cadence_checkpoints().pop();
        drop(victim);
        let resumed = last.and_then(|ckpt| {
            let observer = Arc::new(Observer::new());
            CrawlSession::resume(&web, &ckpt, crawl_config(), &opts, None, observer).ok()
        });
        let resumed_ok = resumed.is_some_and(|mut resumed| {
            while resumed.step_round() {}
            let mut probe = fresh_crawler(&web);
            let (probe_report, _) = probe.crawl_resilient(seeds.clone(), &opts);
            probe.state_digest(&probe_report) == resumed.state_digest()
        });

        let gp = goodput(&report);
        baseline_goodput.get_or_insert(gp);
        let r = &report.resilience;
        table.row(&[
            format!("{:.0} %", rate * 100.0),
            pages(&report).to_string(),
            report.failed.to_string(),
            r.retries_scheduled.to_string(),
            r.retries_exhausted.to_string(),
            r.breaker_trips.to_string(),
            r.worker_panics.to_string(),
            format!("{gp:.0}"),
            format!("{:.1}", r.recovery_wait_ms as f64 / 1000.0),
            if resumed_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    if let Some(base) = baseline_goodput {
        table.note(format!(
            "goodput at rate 0 is the fault-free ceiling ({base:.0} pages/sim-h); \
             every row's resume ✓ re-runs the crawl killed at round 6 and requires a \
             bit-identical final state digest"
        ));
    }

    vec![table, checkpoint_overhead(&web, &seeds)]
}

/// What checkpointing itself costs: a fault-free resilient run
/// (checkpoint every 4 rounds) against the plain `crawl()` path. Its wall
/// cost is `benchmark/`'s `resilience.crawl_checkpoint_ms`.
fn checkpoint_overhead(web: &SimulatedWeb, seeds: &[Url]) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "Recovery (overhead)",
        "Checkpointing overhead at fault rate 0",
        &["variant", "checkpoints", "last ckpt bytes", "sim hours"],
    );

    let plain = fresh_crawler(web).crawl(seeds.to_vec());
    let opts = ResilienceOptions::injected(FAULT_SEED, 0.0, CHECKPOINT_EVERY_ROUNDS);
    let (resilient, ckpts) = fresh_crawler(web).crawl_resilient(seeds.to_vec(), &opts);
    result.row(&[
        "plain crawl()".to_string(),
        "0".to_string(),
        "-".to_string(),
        format!("{:.2}", plain.simulated_secs / 3600.0),
    ]);
    result.row(&[
        format!("checkpoint every {CHECKPOINT_EVERY_ROUNDS} rounds"),
        ckpts.len().to_string(),
        ckpts.last().map(|c| c.size_bytes()).unwrap_or(0).to_string(),
        format!("{:.2}", resilient.simulated_secs / 3600.0),
    ]);
    result.note(
        "simulated crawl time is identical by construction — snapshots cost no simulated \
         seconds, only the encode",
    );
    result
}

fn analysis_plan() -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let src = plan.source("crawl");
    let norm = plan
        .add(
            src,
            Operator::map("normalize", Package::Base, |mut r| {
                let text = r.text().map(str::to_lowercase).unwrap_or_default();
                r.set("text", text);
                r
            }),
        )
        .expect("static plan");
    let tag = plan
        .add(
            norm,
            Operator::map("measure", Package::Wa, |mut r| {
                let words = r.text().map(|t| t.split_whitespace().count()).unwrap_or(0);
                r.set("words", words);
                r
            }),
        )
        .expect("static plan");
    let keep = plan
        .add(
            tag,
            Operator::filter("keep-substantive", Package::Base, |r| {
                r.get("words").and_then(|v| v.as_int()).unwrap_or(0) >= 3
            }),
        )
        .expect("static plan");
    plan.sink(keep, "analyzed").expect("static plan");
    plan
}

fn flow_docs(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::new();
            let words = 1 + (i * 7) % 12;
            let body = (0..words).map(|w| format!("W{}", (i + w) % 97)).collect::<Vec<_>>();
            r.set("id", i).set("text", body.join(" "));
            r
        })
        .collect()
}

/// Flow-side recovery: partition retries, node-loss rescheduling, and
/// the operator-granular kill-and-resume determinism check.
pub fn flow_recovery() -> ExperimentResult {
    let mut table = ExperimentResult::new(
        "Recovery (flow)",
        "Analysis flow under injected faults",
        &[
            "fault rate",
            "sink records",
            "partition retries",
            "store-read retries",
            "nodes lost",
            "sim secs",
            "resume ✓",
        ],
    );

    let plan = analysis_plan();
    let exec = Executor::new(ExecutionConfig::local(8));
    let inputs = || {
        let mut m = std::collections::HashMap::new();
        m.insert("crawl".to_string(), flow_docs(600));
        m
    };

    for rate in FAULT_RATES {
        let res = FlowResilience::injected(FAULT_SEED, rate, 1);
        let run = exec.run_resilient(&plan, inputs(), &res);
        let (cells, resumable) = match &run {
            Ok(r) => match &r.output {
                Some(out) => {
                    let m = &out.metrics;
                    (
                        vec![
                            out.sinks.values().map(Vec::len).sum::<usize>().to_string(),
                            m.partition_retries.to_string(),
                            m.store_read_retries.to_string(),
                            format!("{:?}", m.nodes_lost),
                            format!("{:.1}", m.simulated_secs),
                        ],
                        true,
                    )
                }
                None => (vec!["interrupted".to_string(); 5], false),
            },
            Err(e) => {
                let mut cells = vec![format!("failed: {e}")];
                cells.resize(5, "-".to_string());
                (cells, false)
            }
        };

        let resume_cell = if resumable {
            let killed = FlowResilience {
                stop_after_nodes: Some(2),
                ..res.clone()
            };
            let ok = exec
                .run_resilient(&plan, inputs(), &killed)
                .ok()
                .and_then(|r| r.checkpoints.last().cloned())
                .and_then(|ckpt| exec.resume_from(&plan, &ckpt, inputs(), &res).ok())
                .and_then(|r| r.output)
                .map(|resumed| {
                    run.as_ref()
                        .ok()
                        .and_then(|r| r.output.as_ref())
                        .map(|base| base.deterministic_digest() == resumed.deterministic_digest())
                        .unwrap_or(false)
                })
                .unwrap_or(false);
            if ok { "yes" } else { "NO" }
        } else {
            "-"
        };

        let mut row = vec![format!("{:.0} %", rate * 100.0)];
        row.extend(cells);
        row.push(resume_cell.to_string());
        table.row(&row);
    }
    table.note(
        "faults are injected uniformly across transient errors, worker panics, \
         node losses, and store read/write failures; a flow that loses every \
         cluster node reports the failed node id and is marked '-' for resume",
    );
    table
}
