//! Serving-layer load harness: QPS and latency quantiles of the
//! admission-controlled query engine under simulated concurrent clients.
//!
//! A real extraction pipeline (`entity_store_flow`, one run per entity
//! type and crawl round) fills an [`ExtractionStore`] through
//! `Executor::run_into`; then 1/8/64/512 client threads replay
//! deterministic query streams against it, each query passing through
//! [`AdmissionController::admit_blocking`] before execution. Wall QPS and
//! per-query latency are real measured time — which is why this file is
//! on the lint's wall-clock allowlist — while everything byte-addressable
//! stays deterministic:
//!
//! - every client's query stream is a pure function of `(seed, client
//!   index, query index)` via a splitmix64 mixer (no RNG state, no time);
//! - per-client response digests fold in query order and combine in
//!   client-index order, so the run digest is independent of thread
//!   interleaving;
//! - the sweep runs at two shard counts and the digests must match
//!   (responses are shard-count invariant), and a serial replay against a
//!   snapshot-restored store must reproduce the same digest (responses
//!   survive kill-and-resume byte-identically).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use crate::report::ExperimentResult;
use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::cluster::ClusterSpec;
use websift_flow::IeResources;
use websift_ner::EntityType;
use websift_observe::json::{array, ObjectWriter};
use websift_observe::Observer;
use websift_pipeline::flows::{entity_store_flow, run_over_documents_into};
use websift_serve::{
    parse_query, AdmissionController, ExtractionStore, QueryEngine, StoreSnapshot,
};

/// Simulated client counts every shard configuration is measured at.
pub const SERVE_CLIENTS: [usize; 4] = [1, 8, 64, 512];

/// Shard counts the sweep covers — two, so the cross-shard digest check
/// always has something to compare.
pub const SERVE_SHARDS: [usize; 2] = [4, 16];

/// The serving cluster: 4 nodes x 16 cores, 16 GB per node. With the
/// per-query footprint below, the admission controller caps in-flight
/// queries at the 64-core budget.
const SERVE_NODES: usize = 4;
const SERVE_NODE_RAM_GB: u64 = 16;
const SERVE_NODE_CORES: usize = 16;
/// Memory charged per in-flight query (64 MB).
const QUERY_MEMORY_BYTES: u64 = 64 << 20;

/// DoP the store-building pipeline runs at. Fixed (not host-derived) so
/// the ingested posting order — and with it every digest below — is the
/// same on every machine.
const INGEST_DOP: usize = 4;

/// Seed for the digest fold; per-client accumulators derive from it.
const DIGEST_SEED: u64 = 0x5EED_BA5E_D16E_5715;

/// One measured (shard count, client count) cell.
#[derive(Debug, Clone)]
pub struct ServePoint {
    pub shards: usize,
    pub clients: usize,
    /// Total queries executed in the cell.
    pub queries: u64,
    pub wall_secs: f64,
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Order-independent-by-construction fold of every response digest.
    pub digest: u64,
}

/// Full harness outcome: the rendered table, raw points, and the two
/// byte-identity verdicts `--check` gates on.
#[derive(Debug)]
pub struct ServeReport {
    pub result: ExperimentResult,
    pub points: Vec<ServePoint>,
    pub docs: usize,
    pub queries_per_client: usize,
    /// Most queries the admission controller ever runs at once.
    pub admission_capacity: usize,
    pub store_keys: usize,
    pub store_postings: u64,
    /// Shard-count-invariant store content digest.
    pub content_digest: u64,
    pub snapshot_bytes: usize,
    /// Response digests equal across shard counts at every client count.
    pub digests_agree: bool,
    /// Serial replay on a snapshot-restored store reproduced the
    /// threaded run's digest.
    pub snapshot_agrees: bool,
}

/// splitmix64: the standard 64-bit finalizing mixer. Stateless, so a
/// query stream is addressable by `(seed, client, index)` alone.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fold_digest(acc: u64, x: u64) -> u64 {
    splitmix64(acc ^ x.rotate_left(17))
}

/// Builds the store the way production would: the entity extraction
/// pipeline runs once per entity type and crawl round, draining its
/// `store:` sink into the store via `run_into`.
pub fn build_store(docs: usize, seed: u64, shards: usize) -> ExtractionStore {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::tiny()));
    let resources = IeResources::quick_for_tests(LexiconScale::tiny());
    let documents =
        Generator::with_lexicon(CorpusKind::Medline, seed, lexicon).documents(docs.max(2));
    let mut store = ExtractionStore::new("bench", shards);
    // Two crawl rounds: the first half of the corpus lands in round 0,
    // the second in round 1, so `round` query clauses have data to hit.
    let half = documents.len() / 2;
    for entity in EntityType::all() {
        let plan = entity_store_flow(&resources, entity, "bench");
        store.set_round(0);
        run_over_documents_into(&plan, &documents[..half], INGEST_DOP, &mut store)
            .expect("serve ingest flow");
        store.set_round(1);
        run_over_documents_into(&plan, &documents[half..], INGEST_DOP, &mut store)
            .expect("serve ingest flow");
    }
    store
}

/// Rebuilds `src` at a different shard count by walking it in global key
/// order. Content digest is shard-count invariant, so this is exact.
pub fn reshard(src: &ExtractionStore, shards: usize) -> ExtractionStore {
    let mut out = ExtractionStore::new(src.name(), shards);
    for (key, postings) in src.iter() {
        for p in postings {
            out.insert(key.clone(), *p);
        }
    }
    out.set_round(src.round());
    out
}

/// The query vocabulary mined from the store itself: same seed, same
/// store, same vocabulary — no side channel. Multi-token entity names
/// are skipped (the query grammar takes one token per entity).
struct Vocab {
    entities: Vec<String>,
    corpora: Vec<String>,
}

fn vocab(store: &ExtractionStore) -> Vocab {
    let mut entities = BTreeSet::new();
    let mut corpora = BTreeSet::new();
    for (key, _) in store.iter() {
        if !key.entity.is_empty() && !key.entity.contains(char::is_whitespace) {
            entities.insert(key.entity.clone());
        }
        if !key.corpus.is_empty() {
            corpora.insert(key.corpus.clone());
        }
    }
    Vocab {
        entities: entities.into_iter().collect(),
        corpora: corpora.into_iter().collect(),
    }
}

/// The `i`-th query of client `client` — a query *string*, so the load
/// path exercises the untrusted-input parser, not just the engine.
fn client_query(v: &Vocab, seed: u64, client: usize, i: usize) -> String {
    let mix =
        |salt: u64| splitmix64(seed ^ ((client as u64) << 24) ^ ((i as u64) << 4) ^ salt);
    let ent = |salt: u64| &v.entities[(mix(salt) % v.entities.len() as u64) as usize];
    let corp = |salt: u64| &v.corpora[(mix(salt) % v.corpora.len() as u64) as usize];
    match mix(0) % 8 {
        0 | 1 => format!("lookup {}", ent(1)),
        2 => format!("lookup {} in {}", ent(1), corp(2)),
        3 => format!("lookup {} round {}", ent(1), mix(3) % 2),
        4 => format!("cooccur {} {}", ent(1), ent(2)),
        5 => format!("cooccur {} {} in {}", ent(1), ent(2), corp(2)),
        6 => format!("stats {}", ent(1)),
        _ => format!("stats {} top {}", ent(1), 1 + mix(3) % 4),
    }
}

/// One client's whole stream, serially: latencies out, digest out. The
/// threaded cell runs this per thread; the snapshot check runs it
/// serially — both must produce the same digest.
fn run_client(
    engine: &QueryEngine<'_>,
    ctl: Option<&AdmissionController>,
    v: &Vocab,
    seed: u64,
    client: usize,
    queries: usize,
) -> (Vec<f64>, u64) {
    let mut latencies = Vec::with_capacity(queries);
    let mut digest = splitmix64(DIGEST_SEED ^ client as u64);
    for i in 0..queries {
        let text = client_query(v, seed, client, i);
        let query = parse_query(&text).expect("bench-generated queries are well-formed");
        let permit = ctl.map(|c| c.admit_blocking());
        // lint:allow(wall_clock): per-query latency is the measurement this harness exists for
        let t = Instant::now();
        let response = engine.execute(&query, (client * queries + i) as f64);
        latencies.push(t.elapsed().as_secs_f64());
        drop(permit);
        digest = fold_digest(digest, response.digest());
    }
    (latencies, digest)
}

/// Runs one (store, client count) cell with real threads, every query
/// gated by the admission controller. Returns wall seconds, all
/// latencies, and the interleaving-independent run digest.
fn run_cell(
    engine: &QueryEngine<'_>,
    ctl: &AdmissionController,
    v: &Vocab,
    seed: u64,
    clients: usize,
    queries_per_client: usize,
) -> (f64, Vec<f64>, u64) {
    // lint:allow(wall_clock): cell wall time is the QPS denominator
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    run_client(engine, Some(ctl), v, seed, client, queries_per_client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(clients * queries_per_client);
    let mut digest = DIGEST_SEED;
    for (lats, client_digest) in per_client {
        latencies.extend(lats);
        digest = fold_digest(digest, client_digest);
    }
    (wall, latencies, digest)
}

/// The serial (no threads, no admission) digest of the same workload —
/// identical to [`run_cell`]'s by construction.
fn replay_digest(
    engine: &QueryEngine<'_>,
    v: &Vocab,
    seed: u64,
    clients: usize,
    queries_per_client: usize,
) -> u64 {
    let mut digest = DIGEST_SEED;
    for client in 0..clients {
        let (_, d) = run_client(engine, None, v, seed, client, queries_per_client);
        digest = fold_digest(digest, d);
    }
    digest
}

fn quantile_ms(sorted_secs: &[f64], q: f64) -> f64 {
    if sorted_secs.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_secs.len() - 1) as f64 * q).round() as usize;
    sorted_secs[idx] * 1e3
}

/// Runs the standard sweep: [`SERVE_SHARDS`] x [`SERVE_CLIENTS`].
pub fn serve(docs: usize, queries_per_client: usize, seed: u64) -> ServeReport {
    serve_at(docs, queries_per_client, seed, &SERVE_SHARDS, &SERVE_CLIENTS)
}

/// Runs the sweep at explicit shard and client counts (`--quick` uses a
/// shorter client list; the shard list must keep >= 2 entries for the
/// cross-shard identity check to mean anything).
pub fn serve_at(
    docs: usize,
    queries_per_client: usize,
    seed: u64,
    shard_counts: &[usize],
    client_counts: &[usize],
) -> ServeReport {
    assert!(shard_counts.len() >= 2, "need >= 2 shard counts to cross-check digests");
    let base = build_store(docs, seed, shard_counts[0]);
    let v = vocab(&base);
    assert!(!v.entities.is_empty(), "ingest produced no queryable entities");

    let obs = Observer::new();
    let cluster = ClusterSpec::local(SERVE_NODES, SERVE_NODE_RAM_GB, SERVE_NODE_CORES);
    let ctl = AdmissionController::new(cluster, QUERY_MEMORY_BYTES)
        .expect("serve bench cluster admits a single query");
    let admission_capacity = ctl.capacity();

    let mut result = ExperimentResult::new(
        "Serving",
        "Query QPS and latency vs concurrent clients, per shard count",
        &["shards", "clients", "queries", "wall s", "QPS", "p50 ms", "p99 ms", "digest"],
    );

    let mut points: Vec<ServePoint> = Vec::new();
    for &shards in shard_counts {
        let store = reshard(&base, shards);
        let engine = QueryEngine::new(&store, &obs);
        // Warm-up, untimed: first-touch of lazily faulted pages.
        run_client(&engine, None, &v, seed, 0, queries_per_client.min(4));
        for &clients in client_counts {
            let (wall, mut lats, digest) =
                run_cell(&engine, &ctl, &v, seed, clients, queries_per_client);
            lats.sort_by(f64::total_cmp);
            let queries = (clients * queries_per_client) as u64;
            let qps = if wall > 0.0 { queries as f64 / wall } else { 0.0 };
            let point = ServePoint {
                shards,
                clients,
                queries,
                wall_secs: wall,
                qps,
                p50_ms: quantile_ms(&lats, 0.50),
                p99_ms: quantile_ms(&lats, 0.99),
                digest,
            };
            result.row(&[
                shards.to_string(),
                clients.to_string(),
                queries.to_string(),
                format!("{:.3}", point.wall_secs),
                format!("{:.0}", point.qps),
                format!("{:.3}", point.p50_ms),
                format!("{:.3}", point.p99_ms),
                format!("{:016x}", point.digest),
            ]);
            points.push(point);
        }
    }

    // Cross-shard identity: at every client count, the digests of the
    // two (or more) shard configurations must be equal.
    let digests_agree = client_counts.iter().all(|&clients| {
        let mut per_shard =
            points.iter().filter(|p| p.clients == clients).map(|p| p.digest);
        let first = per_shard.next();
        per_shard.all(|d| Some(d) == first)
    });

    // Snapshot/resume identity: capture, restore, and serially replay
    // the smallest cell; the digest must match the threaded run's.
    let snapshot = StoreSnapshot::capture(&base);
    let restored = snapshot.restore().expect("snapshot restores");
    let replay_clients = client_counts.first().copied().unwrap_or(1);
    let restored_engine = QueryEngine::new(&restored, &obs);
    let replayed =
        replay_digest(&restored_engine, &v, seed, replay_clients, queries_per_client);
    let snapshot_agrees = points
        .iter()
        .find(|p| p.shards == shard_counts[0] && p.clients == replay_clients)
        .is_some_and(|p| p.digest == replayed);

    result.note(format!(
        "{docs} docs ingested via run_into ({} posting-list keys, {} postings, content \
         digest {:016x}); {queries_per_client} queries/client; admission caps in-flight \
         queries at {admission_capacity} ({SERVE_NODES}x{SERVE_NODE_CORES} cores, \
         {} MB/query); digests {} across shard counts and {} a serial replay on a \
         snapshot-restored store ({} snapshot bytes)",
        base.key_count(),
        base.posting_count(),
        base.content_digest(),
        QUERY_MEMORY_BYTES >> 20,
        if digests_agree { "agree" } else { "DISAGREE" },
        if snapshot_agrees { "match" } else { "MISMATCH" },
        snapshot.size_bytes(),
    ));

    ServeReport {
        result,
        points,
        docs,
        queries_per_client,
        admission_capacity,
        store_keys: base.key_count(),
        store_postings: base.posting_count(),
        content_digest: base.content_digest(),
        snapshot_bytes: snapshot.size_bytes(),
        digests_agree,
        snapshot_agrees,
    }
}

/// Machine-readable report (`exp_serve --json`). Host parallelism and
/// the sweep's shard/client grid are stamped in so wall-clock numbers
/// can be compared across machines.
pub fn serve_json(report: &ServeReport) -> String {
    let points = array(report.points.iter().map(|p| {
        ObjectWriter::new()
            .u64("shards", p.shards as u64)
            .u64("clients", p.clients as u64)
            .u64("queries", p.queries)
            .f64("wall_secs", p.wall_secs)
            .f64("qps", p.qps)
            .f64("p50_ms", p.p50_ms)
            .f64("p99_ms", p.p99_ms)
            .u64("digest", p.digest)
            .finish()
    }));
    let mut shard_counts: Vec<u64> = report.points.iter().map(|p| p.shards as u64).collect();
    shard_counts.dedup();
    let mut client_counts: Vec<u64> =
        report.points.iter().map(|p| p.clients as u64).collect();
    client_counts.sort_unstable();
    client_counts.dedup();
    ObjectWriter::new()
        .str("experiment", "serve")
        .u64("docs", report.docs as u64)
        .u64("queries_per_client", report.queries_per_client as u64)
        .u64("host_logical_cores", crate::report::host_logical_cores())
        .u64("admission_capacity", report.admission_capacity as u64)
        .u64("store_keys", report.store_keys as u64)
        .u64("store_postings", report.store_postings)
        .u64("content_digest", report.content_digest)
        .u64("snapshot_bytes", report.snapshot_bytes as u64)
        .raw("digests_agree", if report.digests_agree { "true" } else { "false" })
        .raw("snapshot_agrees", if report.snapshot_agrees { "true" } else { "false" })
        .raw("shard_counts", &array(shard_counts.iter().map(|s| s.to_string())))
        .raw("client_counts", &array(client_counts.iter().map(|c| c.to_string())))
        .raw("points", &points)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_smoke_reports_every_cell_and_digests_hold() {
        let report = serve_at(10, 3, 7, &[2, 8], &[1, 4]);
        assert_eq!(report.points.len(), 2 * 2);
        assert!(report.points.iter().all(|p| p.queries == 3 * p.clients as u64));
        assert!(report.points.iter().all(|p| p.qps > 0.0));
        assert!(report.digests_agree, "shard counts produced different responses");
        assert!(report.snapshot_agrees, "snapshot/replay changed responses");
        assert!(report.store_postings > 0);
        let json = serve_json(&report);
        assert!(json.contains("\"experiment\":\"serve\""));
        assert!(json.contains("\"digests_agree\":true"));
        assert!(json.contains("\"snapshot_agrees\":true"));
        assert!(json.contains("\"host_logical_cores\""));
    }

    #[test]
    fn query_streams_are_reproducible_and_parse() {
        let store = build_store(8, 11, 4);
        let v = vocab(&store);
        for client in 0..3 {
            for i in 0..20 {
                let a = client_query(&v, 42, client, i);
                let b = client_query(&v, 42, client, i);
                assert_eq!(a, b);
                parse_query(&a).expect("generated query parses");
            }
        }
        // different clients see different streams
        let a = client_query(&v, 42, 0, 0);
        let b = client_query(&v, 42, 1, 0);
        let c = client_query(&v, 42, 2, 0);
        assert!(a != b || b != c, "client streams should diverge");
    }

    #[test]
    fn resharding_preserves_content() {
        let store = build_store(8, 13, 4);
        let wide = reshard(&store, 16);
        assert_eq!(store.content_digest(), wide.content_digest());
        assert_eq!(store.posting_count(), wide.posting_count());
    }
}
