//! `live_rounds`: the same layers as `crawl_to_query`, used differently.
//!
//! A live session crawls a synthetic web in small rounds; every round runs
//! the live extraction flow over just that round's new pages, writes their
//! postings beside the reads of probe queries, and seals a watermark that
//! snapshots the growing store. Many tiny flow runs make the per-run fixed
//! cost (plan analysis, optimisation, stage set-up) count; a serve index
//! that speeds `query_serving` but slows ingest or snapshot, or a flow
//! change that speeds big batches but adds per-run set-up, loses here.

use std::sync::Arc;

use websift::crawler::{CrawlConfig, CrawlSession, FocusedCrawler, ResilienceOptions};
use websift::flow::LogicalPlan;
use websift::live::{LiveOptions, LiveSession, Watermark, WatermarkParts};
use websift::ner::EntityType;
use websift::observe::Observer;
use websift::pipeline::flows::{live_extraction_flow, run_over_documents_into};
use websift::serve::{AdmissionController, ExtractionStore, QueryEngine, StoreSnapshot};

use super::{run_client, trace_queries, Layers, Measured, Workload, KB};
use crate::clock::time;
use crate::inputs::{self, CrawlInput, Resources, Sizes, Vocab, DOP, FETCH_THREADS, STORE_SHARDS};
use crate::layers::{crawl_layers, store_layers};
use crate::stats::{fold, median, mix};
use crate::trace::{median_secs, Span, Tracer};

const STORE: &str = "live";

pub struct LiveRounds;

pub struct Input {
    crawl: CrawlInput,
    plan: LogicalPlan,
    admission: AdmissionController,
    crawl_config: CrawlConfig,
    probes_per_round: usize,
    probe_seed: u64,
    // held for the plan's taggers and the web's lexicon
    _resources: Resources,
}

#[derive(Default)]
pub struct Output<'i> {
    session: Option<LiveSession<'i>>,
    /// Fetches the session's crawl made.
    fetched: u64,
    /// Wall seconds of every `advance()` that completed a round.
    round_s: Vec<f64>,
    /// Relevant documents each round delivered.
    new_docs: Vec<usize>,
    /// Median probe latency of each round that could be probed.
    probe_p50_us: Vec<f64>,
    /// Seconds a replica of each round's watermark seal took (traced passes).
    seal_s: Vec<f64>,
    last_watermark: Option<Watermark>,
}

/// What `LiveSession::advance` does to seal a round, rebuilt from the
/// session's public parts so a traced pass can time it on its own.
fn seal_replica(session: &LiveSession<'_>) -> Watermark {
    let checkpoint = session.crawl().checkpoint();
    let snapshot = StoreSnapshot::capture(session.store());
    Watermark::seal(&WatermarkParts {
        rounds: session.round(),
        crawl_round: checkpoint.round,
        frontier_digest: session.crawl().state_digest(),
        crawl_frame: checkpoint.as_bytes().to_vec(),
        agg_state: session.state_bytes(),
        store_frame: snapshot.as_bytes().to_vec(),
        store_digest: session.store().content_digest(),
        metrics: session.metrics().clone(),
    })
}

impl Workload for LiveRounds {
    const NAME: &'static str = "live_rounds";
    type Input = Input;
    type Output<'i> = Output<'i>;

    fn setup(seed: u64, sizes: &Sizes) -> Input {
        let resources = inputs::resources(seed);
        Input {
            crawl: inputs::crawl_input(seed, sizes.live_hosts, resources.lexicon.clone()),
            plan: live_extraction_flow(&resources.ie, EntityType::Gene, STORE),
            admission: inputs::admission(),
            crawl_config: CrawlConfig {
                threads: FETCH_THREADS,
                max_pages: usize::MAX,
                fetch_list_total: sizes.live_fetch_list,
                ..CrawlConfig::default()
            },
            probes_per_round: sizes.live_probes_per_round,
            probe_seed: mix(seed, 40),
            _resources: resources,
        }
    }

    fn measure<'i>(input: &'i Input, tracer: &Tracer) -> (Measured, Output<'i>) {
        let mut measured = Measured::default();
        let mut out = Output::default();
        let fetched_before = input.crawl.web.fetch_count();
        let (started, start_s) = time(|| {
            LiveSession::start(
                &input.crawl.web,
                input.crawl.classifier.clone(),
                input.crawl_config,
                input.crawl.seeds.clone(),
                &ResilienceOptions::default(),
                &input.plan,
                ExtractionStore::new(STORE, STORE_SHARDS),
                LiveOptions { dop: DOP, ..LiveOptions::default() },
                Arc::new(Observer::new()),
            )
        });
        measured.wall_s = start_s;
        measured.attempted = 1;
        let Ok(mut session) = started else {
            measured.failed = 1;
            return (measured, out);
        };

        let observer = Observer::new();
        loop {
            let (round, secs) = time(|| tracer.span("live.advance", || session.advance()));
            measured.wall_s += secs;
            measured.attempted += 1;
            let round = match round {
                Ok(Some(round)) => round,
                Ok(None) => break,
                Err(_) => {
                    measured.failed += 1;
                    break;
                }
            };
            out.round_s.push(secs);
            out.new_docs.push(round.new_documents);
            measured.digest = fold(measured.digest, round.watermark.digest());

            // Reads beside the writes: probe what is queryable right now.
            let stream = tracer.span("harness.probe_stream", || {
                let vocab = Vocab::of(session.store());
                if vocab.entities.is_empty() {
                    return Vec::new();
                }
                let seed = mix(input.probe_seed, u64::from(round.round));
                inputs::query_stream(&vocab, seed, 0, input.probes_per_round)
            });
            if !stream.is_empty() {
                let engine = QueryEngine::new(session.store(), &observer);
                let probes = tracer.span("serve.probe", || {
                    let run = run_client(&engine, Some(&input.admission), 0, &stream);
                    trace_queries(tracer, &run.samples);
                    run
                });
                let us: Vec<f64> = probes.samples.iter().map(|s| s.us).collect();
                out.probe_p50_us.push(median(&us));
                measured.op_us.extend(us);
                measured.attempted += stream.len() as u64;
                measured.failed += probes.failed;
                measured.digest = fold(measured.digest, probes.digest);
            }
            if tracer.enabled() {
                let sealed =
                    tracer.span("harness.seal_replica", || time(|| seal_replica(&session)));
                out.seal_s.push(sealed.1);
            }
            out.last_watermark = Some(round.watermark);
        }

        let report = session.crawl().report();
        measured.work = (report.bytes_relevant + report.bytes_irrelevant) as f64 / KB;
        measured.items = (report.relevant.len() + report.irrelevant.len()) as u64;
        measured.digest = fold(measured.digest, session.store().content_digest());
        out.fetched = input.crawl.web.fetch_count() - fetched_before;
        out.session = Some(session);
        (measured, out)
    }

    fn verify(input: &Input, out: &Output<'_>) -> Vec<String> {
        let Some(session) = &out.session else {
            return vec!["the live session did not start".to_string()];
        };
        let mut wrong = Vec::new();
        let report = session.crawl().report();
        if !report.frontier_exhausted || out.round_s.len() < 2 {
            wrong.push(format!(
                "crawl ended after {} rounds, frontier exhausted: {}",
                out.round_s.len(),
                report.frontier_exhausted
            ));
        }
        // Batch oracle: the cumulative crawl through the original plan,
        // round slice by round slice, must fill an identical store.
        let docs = inputs::documents_from_pages(&report.relevant);
        let mut batch = ExtractionStore::new(STORE, STORE_SHARDS);
        let mut cursor = 0usize;
        for (round, &count) in out.new_docs.iter().enumerate() {
            batch.set_round(round as u32 + 1);
            let slice = docs.get(cursor..cursor + count).unwrap_or(&[]);
            if run_over_documents_into(&input.plan, slice, DOP, &mut batch).is_err() {
                wrong.push(format!("batch recompute failed in round {}", round + 1));
            }
            cursor += count;
        }
        if cursor != docs.len() || batch.content_digest() != session.store().content_digest() {
            wrong.push("live store differs from the batch recompute".to_string());
        }
        match &out.last_watermark {
            Some(w) if w.parts().store_digest == session.store().content_digest() => {}
            _ => wrong.push("last watermark does not seal the final store".to_string()),
        }
        wrong
    }

    fn layers(input: &Input, out: &Output<'_>, passes: &[Vec<Span>], layers: &mut Layers) {
        let Some(session) = &out.session else { return };
        let report = session.crawl().report();

        // The crawl alone, stepped round by round with the same config.
        let (_, crawl_step_s) = time(|| {
            let crawler = FocusedCrawler::new(
                &input.crawl.web,
                input.crawl.classifier.clone(),
                input.crawl_config,
            );
            let mut bare = CrawlSession::start(
                crawler,
                input.crawl.seeds.clone(),
                &ResilienceOptions::default(),
            );
            while bare.step_round() {}
        });
        crawl_layers(
            &input.crawl.web,
            &input.crawl.classifier,
            &session.crawl().crawler().crawldb,
            report,
            out.fetched,
            crawl_step_s,
            layers,
        );
        layers.insert("crawler.rounds", session.crawl().round() as f64);
        store_layers(session.store(), layers);

        let (checkpoint, checkpoint_s) = time(|| session.crawl().checkpoint());
        layers.insert("resilience.crawl_checkpoint_ms", checkpoint_s * 1e3);
        layers.insert("resilience.checkpoint_bytes", checkpoint.size_bytes() as f64);

        let advance_s = median_secs(passes, "live.advance");
        let seal_s: f64 = out.seal_s.iter().sum();
        let new_docs: usize = out.new_docs.iter().sum();
        layers.insert("live.rounds", out.round_s.len() as f64);
        layers.insert("live.new_docs", new_docs as f64);
        layers.insert("live.advance_s", advance_s);
        layers.insert("live.crawl_step_s", crawl_step_s);
        layers.insert("live.delta_s", advance_s - crawl_step_s - seal_s);
        layers.insert("live.seal_ms_last", out.seal_s.last().copied().unwrap_or(0.0) * 1e3);
        layers.insert(
            "live.watermark_bytes_last",
            out.last_watermark.as_ref().map_or(0.0, |w| w.size_bytes() as f64),
        );
        layers.insert("live.round_p50_ms", median(&out.round_s) * 1e3);
        layers.insert("live.round_max_ms", out.round_s.iter().copied().fold(0.0, f64::max) * 1e3);
        layers.insert(
            "live.fresh_docs_per_s",
            new_docs as f64 / out.round_s.iter().sum::<f64>().max(f64::MIN_POSITIVE),
        );
        layers.insert("live.retained_keys", session.metrics().retained_keys as f64);
        layers.insert("live.probe_p50_us_first", out.probe_p50_us.first().copied().unwrap_or(0.0));
        layers.insert("live.probe_p50_us_last", out.probe_p50_us.last().copied().unwrap_or(0.0));
    }
}
