//! `query_serving`: read-only use of the serving layer.
//!
//! Set-up ingests Medline documents for three entity types over several
//! crawl rounds; the measured phase is two closed-loop clients (callers
//! wait for replies) sending a fixed mix of lookup, lookup-since, cooccur
//! and stats queries through parse, admission and execution. Entities are
//! chosen with a cubic skew toward long posting lists, so the tail latency
//! belongs to long lists rather than to the scheduler, and a future cache
//! or index has something to show. Crawler and IE cost appear only in
//! `setup_s`.

use std::collections::BTreeMap;

use websift::corpus::CorpusKind;
use websift::ner::EntityType;
use websift::observe::Observer;
use websift::pipeline::flows::{entity_store_flow, run_over_documents_into};
use websift::serve::{
    parse_query, AdmissionController, ExtractionStore, QueryEngine, StoreSnapshot,
};

use super::{combine_digests, run_client, trace_queries, ClientRun, Layers, Measured, Workload};
use crate::clock::time;
use crate::inputs::{self, QueryKind, Sizes, Vocab, DOP, QUERY_CLIENTS, STORE_SHARDS};
use crate::layers::store_layers;
use crate::stats::{median, mix, quantile};
use crate::trace::{Span, Tracer};

const STORE: &str = "bench";

pub struct QueryServing;

pub struct Input {
    store: ExtractionStore,
    admission: AdmissionController,
    /// One pre-generated stream per client: query strings are inputs, so
    /// building them is not on the measured path.
    streams: Vec<Vec<(QueryKind, String)>>,
}

pub struct Output {
    clients: Vec<ClientRun>,
    wall_s: f64,
}

/// Runs every client's stream on its own thread against `store`.
fn run_clients(
    store: &ExtractionStore,
    admission: &AdmissionController,
    streams: &[Vec<(QueryKind, String)>],
) -> (Vec<ClientRun>, f64) {
    let observer = Observer::new();
    let engine = QueryEngine::new(store, &observer);
    time(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(client, stream)| {
                    let engine = &engine;
                    scope.spawn(move || run_client(engine, Some(admission), client, stream))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query client thread panicked")).collect()
        })
    })
}

impl Workload for QueryServing {
    const NAME: &'static str = "query_serving";
    type Input = Input;
    type Output<'i> = Output;

    fn setup(seed: u64, sizes: &Sizes) -> Input {
        let resources = inputs::resources(seed);
        let docs = inputs::corpus(CorpusKind::Medline, sizes.serving_docs, &resources.lexicon);
        let mut store = ExtractionStore::new(STORE, STORE_SHARDS);
        let per_round = docs.len().div_ceil(sizes.serving_rounds as usize).max(1);
        for entity in EntityType::all() {
            let plan = entity_store_flow(&resources.ie, entity, STORE);
            for (round, slice) in docs.chunks(per_round).enumerate() {
                store.set_round(round as u32 + 1);
                run_over_documents_into(&plan, slice, DOP, &mut store)
                    .expect("the entity flow runs over generated Medline documents");
            }
        }
        let vocab = Vocab::of(&store);
        assert!(!vocab.entities.is_empty(), "ingest produced no queryable entity");
        let streams = (0..QUERY_CLIENTS)
            .map(|client| {
                inputs::query_stream(&vocab, mix(seed, 30), client, sizes.queries_per_client)
            })
            .collect();
        Input { store, admission: inputs::admission(), streams }
    }

    fn measure(input: &Input, tracer: &Tracer) -> (Measured, Output) {
        let (clients, wall_s) = tracer.span("serve.clients", || {
            let (clients, wall_s) = run_clients(&input.store, &input.admission, &input.streams);
            for client in &clients {
                trace_queries(tracer, &client.samples);
            }
            (clients, wall_s)
        });
        let sent: usize = input.streams.iter().map(Vec::len).sum();
        let measured = Measured {
            wall_s,
            work: clients.iter().map(|c| c.samples.len() as f64).sum(),
            items: clients.iter().map(|c| c.samples.len() as u64).sum(),
            op_us: clients.iter().flat_map(|c| c.samples.iter().map(|s| s.us)).collect(),
            attempted: sent as u64,
            failed: clients.iter().map(|c| c.failed).sum(),
            digest: combine_digests(&clients),
        };
        (measured, Output { clients, wall_s })
    }

    fn verify(input: &Input, out: &Output) -> Vec<String> {
        // A serial replay, without admission, on a store restored from a
        // snapshot: replies must be byte-identical to the threaded run's.
        let restored = match StoreSnapshot::capture(&input.store).restore() {
            Ok(store) => store,
            Err(e) => return vec![format!("snapshot does not restore: {e}")],
        };
        let observer = Observer::new();
        let engine = QueryEngine::new(&restored, &observer);
        let replay: Vec<ClientRun> = input
            .streams
            .iter()
            .enumerate()
            .map(|(client, stream)| run_client(&engine, None, client, stream))
            .collect();
        let mut wrong = Vec::new();
        if combine_digests(&replay) != combine_digests(&out.clients) {
            wrong.push("threaded replies differ from the serial replay".to_string());
        }
        if replay.iter().map(|c| c.rows).sum::<u64>() == 0 {
            wrong.push("no query returned a row".to_string());
        }
        wrong
    }

    fn layers(input: &Input, out: &Output, _passes: &[Vec<Span>], layers: &mut Layers) {
        store_layers(&input.store, layers);

        let mut by_kind: BTreeMap<QueryKind, Vec<f64>> = BTreeMap::new();
        let (mut rows, mut queries) = (0u64, 0usize);
        for client in &out.clients {
            rows += client.rows;
            queries += client.samples.len();
            for s in &client.samples {
                by_kind.entry(s.kind).or_default().push(s.us);
            }
        }
        let mut lookups = by_kind.remove(&QueryKind::Lookup).unwrap_or_default();
        lookups.extend(by_kind.remove(&QueryKind::LookupSince).unwrap_or_default());
        let cooccur = by_kind.remove(&QueryKind::Cooccur).unwrap_or_default();
        let stats = by_kind.remove(&QueryKind::Stats).unwrap_or_default();
        for (p50, p99, samples) in [
            ("serve.lookup_p50_us", "serve.lookup_p99_us", &lookups),
            ("serve.cooccur_p50_us", "serve.cooccur_p99_us", &cooccur),
            ("serve.stats_p50_us", "serve.stats_p99_us", &stats),
        ] {
            layers.insert(p50, median(samples));
            layers.insert(p99, quantile(samples, 0.99));
        }
        layers.insert("serve.rows_per_query", rows as f64 / queries.max(1) as f64);

        // Parsing and admission alone, over client 0's stream.
        let stream = &input.streams[0];
        let (_, parse_s) = time(|| {
            for (_, text) in stream {
                let _ = std::hint::black_box(parse_query(text));
            }
        });
        let (_, admit_s) = time(|| {
            for _ in stream {
                drop(std::hint::black_box(input.admission.admit_blocking()));
            }
        });
        layers.insert("serve.parse_us", parse_s * 1e6 / stream.len().max(1) as f64);
        layers.insert("serve.admit_us", admit_s * 1e6 / stream.len().max(1) as f64);

        // One client alone, same stream: how much the second client adds.
        let (alone, alone_s) = run_clients(&input.store, &input.admission, &input.streams[..1]);
        let one = alone[0].samples.len() as f64 / alone_s;
        let two = queries as f64 / out.wall_s;
        layers.insert("serve.client_scaling", if one > 0.0 { two / one } else { 0.0 });
    }
}
