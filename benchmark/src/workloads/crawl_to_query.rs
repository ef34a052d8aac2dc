//! `crawl_to_query`: the paper's headline path, seed URLs to a queryable
//! posting.
//!
//! A focused crawl runs over a synthetic web until its frontier is empty;
//! the relevant pages go through the entity extraction flow (gene, drug,
//! disease) into a sharded store; the store is snapshotted; probe queries
//! then read it. The crawler does most of the work here, the flow and the
//! taggers a fifth, serving next to nothing — a crawler optimisation shows
//! on this workload and on `live_rounds`, and nowhere else.

use websift::crawler::{CrawlConfig, CrawlReport, FocusedCrawler};
use websift::ner::EntityType;
use websift::observe::{Labels, Observer};
use websift::pipeline::flows::{entity_store_flow, run_over_documents_into};
use websift::serve::{ExtractionStore, QueryEngine, StoreSnapshot};

use super::{run_client, trace_queries, ClientRun, Layers, Measured, Workload, KB};
use crate::clock;
use crate::inputs::{
    self, CrawlInput, QueryKind, Resources, Sizes, Vocab, DOP, FETCH_THREADS, STORE_SHARDS,
};
use crate::layers::{crawl_layers, store_layers, TimedSink};
use crate::stats::{fold, mix};
use crate::trace::{median_secs, Span, Tracer};

const STORE: &str = "bench";

pub struct CrawlToQuery;

pub struct Input {
    resources: Resources,
    crawl: CrawlInput,
    probe_seed: u64,
    probe_queries: usize,
}

pub struct Output<'i> {
    /// Kept for its CrawlDB: which URLs the crawl attempted.
    crawler: FocusedCrawler<'i>,
    report: CrawlReport,
    /// Fetches the crawl alone made.
    fetched: u64,
    store: ExtractionStore,
    snapshot: StoreSnapshot,
    probe_stream: Vec<(QueryKind, String)>,
    probes: ClientRun,
    ingest_secs: f64,
    ingest_records: u64,
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig { threads: FETCH_THREADS, max_pages: usize::MAX, ..CrawlConfig::default() }
}

/// Relevant pages through the three entity flows into `store`.
fn extract(
    resources: &Resources,
    report: &CrawlReport,
    dop: usize,
    store: &mut TimedSink<'_>,
) -> Result<(), websift::flow::ExecutionError> {
    let docs = inputs::documents_from_pages(&report.relevant);
    for entity in EntityType::all() {
        let plan = entity_store_flow(&resources.ie, entity, STORE);
        run_over_documents_into(&plan, &docs, dop, store)?;
    }
    Ok(())
}

impl Workload for CrawlToQuery {
    const NAME: &'static str = "crawl_to_query";
    type Input = Input;
    type Output<'i> = Output<'i>;

    fn setup(seed: u64, sizes: &Sizes) -> Input {
        let resources = inputs::resources(seed);
        let crawl = inputs::crawl_input(seed, sizes.crawl_hosts, resources.lexicon.clone());
        Input {
            resources,
            crawl,
            probe_seed: mix(seed, 10),
            probe_queries: sizes.crawl_probe_queries,
        }
    }

    fn measure<'i>(input: &'i Input, tracer: &Tracer) -> (Measured, Output<'i>) {
        let mut failed = 0u64;
        let fetched_before = input.crawl.web.fetch_count();
        let t0 = clock::now();

        let (crawler, report) = tracer.span("crawler.crawl", || {
            let mut crawler = FocusedCrawler::new(
                &input.crawl.web,
                input.crawl.classifier.clone(),
                crawl_config(),
            );
            let report = crawler.crawl(input.crawl.seeds.clone());
            (crawler, report)
        });
        let fetched = input.crawl.web.fetch_count() - fetched_before;

        let mut store = ExtractionStore::new(STORE, STORE_SHARDS);
        let mut sink = TimedSink::new(&mut store);
        if tracer
            .span("pipeline.extract", || extract(&input.resources, &report, DOP, &mut sink))
            .is_err()
        {
            failed += 1;
        }
        let (ingest_secs, ingest_records) = (sink.secs, sink.records);
        let snapshot = tracer.span("serve.snapshot", || StoreSnapshot::capture(&store));
        // Throughput ends here: the last posting is in the store and sealed.
        let wall_s = t0.secs();

        let probe_stream = tracer.span("harness.probe_stream", || {
            let vocab = Vocab::of(&store);
            if vocab.entities.is_empty() {
                Vec::new()
            } else {
                inputs::query_stream(&vocab, input.probe_seed, 0, input.probe_queries)
            }
        });
        if probe_stream.is_empty() {
            failed += 1;
        }
        let admission = inputs::admission();
        let observer = Observer::new();
        let probes = tracer.span("serve.probe", || {
            let run = run_client(
                &QueryEngine::new(&store, &observer),
                Some(&admission),
                0,
                &probe_stream,
            );
            trace_queries(tracer, &run.samples);
            run
        });

        let measured = Measured {
            wall_s,
            work: (report.bytes_relevant + report.bytes_irrelevant) as f64 / KB,
            items: (report.relevant.len() + report.irrelevant.len()) as u64,
            op_us: probes.samples.iter().map(|s| s.us).collect(),
            // one crawl, three flow runs, one snapshot, and the probes
            attempted: 5 + probe_stream.len() as u64,
            failed: failed + probes.failed,
            digest: [
                crawler.state_digest(&report),
                store.content_digest(),
                snapshot.digest(),
                probes.digest,
            ]
            .into_iter()
            .fold(0, fold),
        };
        let output = Output {
            crawler,
            report,
            fetched,
            store,
            snapshot,
            probe_stream,
            probes,
            ingest_secs,
            ingest_records,
        };
        (measured, output)
    }

    fn verify(input: &Input, out: &Output<'_>) -> Vec<String> {
        let mut wrong = Vec::new();
        if !out.report.frontier_exhausted {
            wrong.push("crawl stopped before its frontier was empty".to_string());
        }
        if out.report.relevant.is_empty()
            || out.report.relevant.iter().any(|p| p.net_text.is_empty())
        {
            wrong.push("crawl accepted no relevant page, or one without net text".to_string());
        }
        // The same pages extracted serially must fill an identical store.
        let mut serial = ExtractionStore::new(STORE, STORE_SHARDS);
        if extract(&input.resources, &out.report, 1, &mut TimedSink::new(&mut serial)).is_err()
            || serial.content_digest() != out.store.content_digest()
        {
            wrong.push("store content at DoP 1 differs from DoP 2".to_string());
        }
        // The snapshot must restore to the same content, and the probes
        // replayed on the restored store must get byte-identical replies.
        match out.snapshot.restore() {
            Ok(restored) => {
                if restored.content_digest() != out.store.content_digest() {
                    wrong.push("restored snapshot differs from the store".to_string());
                }
                let observer = Observer::new();
                let replay =
                    run_client(&QueryEngine::new(&restored, &observer), None, 0, &out.probe_stream);
                if replay.digest != out.probes.digest {
                    wrong.push("probe replies differ on the restored snapshot".to_string());
                }
            }
            Err(e) => wrong.push(format!("snapshot does not restore: {e}")),
        }
        wrong
    }

    fn layers(input: &Input, out: &Output<'_>, passes: &[Vec<Span>], layers: &mut Layers) {
        let crawl_s = median_secs(passes, "crawler.crawl");
        crawl_layers(
            &input.crawl.web,
            &input.crawl.classifier,
            &out.crawler.crawldb,
            &out.report,
            out.fetched,
            crawl_s,
            layers,
        );
        let rounds =
            out.crawler.observer().registry().counter("crawl.rounds", &Labels::empty()).value();
        layers.insert("crawler.rounds", rounds as f64);
        store_layers(&out.store, layers);
        layers.insert("pipeline.extract_s", median_secs(passes, "pipeline.extract"));
        layers.insert(
            "serve.ingest_records_per_s",
            if out.ingest_secs > 0.0 { out.ingest_records as f64 / out.ingest_secs } else { 0.0 },
        );
        layers.insert(
            "serve.rows_per_query",
            out.probes.rows as f64 / out.probe_stream.len().max(1) as f64,
        );
    }
}
