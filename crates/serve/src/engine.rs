//! Query execution against the extraction store.
//!
//! The engine is read-only over a shared store reference, so any number
//! of queries may execute concurrently. Responses are pure functions of
//! `(store content, query)` — shard-count and concurrency invariant —
//! which is what the serve bench's byte-identity checks lean on.
//!
//! The stats path deliberately reuses the flow engine's combinable
//! [`Aggregate`] machinery: each shard folds a partial [`AggState`] over
//! its slice of the entity's postings and the partials are merged at the
//! end, exactly the partial-aggregation shape the executor uses across
//! Reduce boundaries. Because those merges are exact, the result cannot
//! depend on how postings are split across shards.
//!
//! Every query reports through `websift-observe`: a per-kind counter,
//! scanned-posting and row counters, a simulated-cost histogram, and a
//! tracer span. Counters and histograms are order-independent, so they
//! stay deterministic under concurrent load; span *order* in the trace
//! ring buffer is interleaving-dependent and is only asserted on in
//! serial tests.

use std::collections::BTreeMap;

use websift_flow::{AggState, Aggregate, Record, Value};
use websift_observe::{json::ObjectWriter, Labels, Observer};
use websift_resilience::checkpoint::encode_to_vec;
use websift_resilience::codec;

use crate::query::Query;
use crate::store::{ExtractionStore, Posting, PostingKey};

/// Simulated seconds charged per scanned posting (index walk).
const COST_PER_POSTING_SECS: f64 = 1e-6;
/// Simulated fixed overhead per query (parse, admission, response).
const COST_PER_QUERY_SECS: f64 = 5e-5;

/// One query's result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Result rows, deterministically ordered.
    pub rows: Vec<Record>,
    /// Postings touched while answering — the cost driver.
    pub postings_scanned: u64,
    /// Simulated execution cost (the serving analogue of the flow
    /// engine's simulated clock; never wall time).
    pub simulated_cost_secs: f64,
}

impl QueryResponse {
    /// Canonical byte encoding of the rows (the wire response).
    pub fn bytes(&self) -> Vec<u8> {
        encode_to_vec(&self.rows)
    }

    /// Digest of [`QueryResponse::bytes`] — equal digests mean
    /// byte-identical responses.
    pub fn digest(&self) -> u64 {
        codec::digest(&self.bytes())
    }

    /// Compact JSON rendering for logs and the bench report.
    pub fn to_json(&self) -> String {
        ObjectWriter::new()
            .u64("rows", self.rows.len() as u64)
            .u64("postings_scanned", self.postings_scanned)
            .f64("simulated_cost_secs", self.simulated_cost_secs)
            .u64("digest", self.digest())
            .finish()
    }
}

/// Executes queries against one store, observing through one observer.
pub struct QueryEngine<'a> {
    store: &'a ExtractionStore,
    obs: &'a Observer,
}

impl<'a> QueryEngine<'a> {
    pub fn new(store: &'a ExtractionStore, obs: &'a Observer) -> QueryEngine<'a> {
        QueryEngine { store, obs }
    }

    /// Statically checks `query` against what the store has actually
    /// ingested (known corpora, current crawl round) — WS016
    /// diagnostics; an empty vector means the query can plausibly
    /// return rows. Purely advisory: `execute` never refuses a query.
    pub fn check(&self, query: &Query) -> Vec<websift_analyze::Diagnostic> {
        crate::check::check_query(query, &crate::check::StoreSchema::of(self.store))
    }

    /// Runs `query`. `t_secs` is the caller's logical timestamp for the
    /// tracer span (the bench uses the query's sequence number, keeping
    /// traces wall-clock free).
    pub fn execute(&self, query: &Query, t_secs: f64) -> QueryResponse {
        let (rows, postings_scanned) = match query {
            Query::Lookup { entity, corpus, round, since } => {
                self.lookup(entity, corpus.as_deref(), *round, *since)
            }
            Query::Cooccur { left, right, corpus } => {
                self.cooccur(left, right, corpus.as_deref())
            }
            Query::Stats { entity, corpus, round, since, top } => {
                self.stats(entity, corpus.as_deref(), *round, *since, *top)
            }
        };
        let simulated_cost_secs =
            COST_PER_QUERY_SECS + COST_PER_POSTING_SECS * postings_scanned as f64;
        let labels = Labels::new(&[("kind", query.kind())]);
        self.obs.registry().counter("serve.queries", &labels).inc();
        self.obs
            .registry()
            .counter("serve.rows", &labels)
            .add(rows.len() as u64);
        self.obs
            .registry()
            .counter("serve.postings_scanned", &labels)
            .add(postings_scanned);
        self.obs
            .registry()
            .histogram("serve.query_cost_secs", &labels)
            .record(simulated_cost_secs);
        self.obs
            .tracer()
            .span("serve.query", t_secs, simulated_cost_secs, labels);
        QueryResponse { rows, postings_scanned, simulated_cost_secs }
    }

    /// Posting lists for `entity`, filtered, one row per posting.
    fn lookup(
        &self,
        entity: &str,
        corpus: Option<&str>,
        round: Option<u32>,
        since: Option<u32>,
    ) -> (Vec<Record>, u64) {
        let mut rows = Vec::new();
        let mut scanned = 0u64;
        for (key, postings) in self.store.lookup_entity(entity) {
            scanned += postings.len() as u64;
            if !key_matches(key, corpus, round, since) {
                continue;
            }
            for posting in postings {
                rows.push(posting_row(key, posting));
            }
        }
        (rows, scanned)
    }

    /// Pages mentioning both entities (within `corpus` if given): one
    /// row per page with each side's mention count on that page.
    fn cooccur(&self, left: &str, right: &str, corpus: Option<&str>) -> (Vec<Record>, u64) {
        let mut scanned = 0u64;
        let mut pages =
            |entity: &str| -> BTreeMap<u64, i64> {
                let mut counts = BTreeMap::new();
                for (key, postings) in self.store.lookup_entity(entity) {
                    scanned += postings.len() as u64;
                    if !key_matches(key, corpus, None, None) {
                        continue;
                    }
                    for posting in postings {
                        *counts.entry(posting.page).or_insert(0) += 1;
                    }
                }
                counts
            };
        let left_pages = pages(left);
        let right_pages = pages(right);
        let rows = left_pages
            .iter()
            .filter_map(|(page, left_mentions)| {
                right_pages.get(page).map(|right_mentions| {
                    let mut row = Record::new();
                    row.set("page", *page as i64)
                        .set("left", left)
                        .set("right", right)
                        .set("left_mentions", *left_mentions)
                        .set("right_mentions", *right_mentions);
                    row
                })
            })
            .collect();
        (rows, scanned)
    }

    /// Per-corpus aggregates over the entity's postings, via partial
    /// aggregation: fold one [`AggState`] per (corpus, aggregate) per
    /// shard, then merge partials exactly as the flow engine's combiner
    /// does.
    fn stats(
        &self,
        entity: &str,
        corpus: Option<&str>,
        round: Option<u32>,
        since: Option<u32>,
        top: usize,
    ) -> (Vec<Record>, u64) {
        let aggregates: Vec<Aggregate> = vec![
            Aggregate::Count { into: "mentions".into() },
            Aggregate::Min { field: "start".into(), into: "first_start".into() },
            Aggregate::Max { field: "end".into(), into: "last_end".into() },
            Aggregate::TopK { field: "page".into(), k: top, into: "top_pages".into() },
        ];
        let mut scanned = 0u64;
        // per-corpus partial states, one slot per aggregate
        let mut partials: BTreeMap<String, Vec<AggState>> = BTreeMap::new();
        for shard in self.store.shards() {
            // this shard's partials, merged into the global map below —
            // the executor's combine-at-the-boundary shape
            let mut local: BTreeMap<String, Vec<AggState>> = BTreeMap::new();
            for (key, postings) in shard.postings.iter() {
                if key.entity != entity || !key_matches(key, corpus, round, since) {
                    continue;
                }
                scanned += postings.len() as u64;
                let states = local.entry(key.corpus.clone()).or_insert_with(|| {
                    aggregates.iter().map(Aggregate::seed).collect()
                });
                for posting in postings {
                    let row = posting_row(key, posting);
                    for (agg, state) in aggregates.iter().zip(states.iter_mut()) {
                        agg.fold(state, &row);
                    }
                }
            }
            for (corpus_key, states) in local {
                match partials.entry(corpus_key) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(states);
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        for (agg, (left, right)) in aggregates
                            .iter()
                            .zip(slot.get_mut().iter_mut().zip(states))
                        {
                            agg.merge(left, right);
                        }
                    }
                }
            }
        }
        let rows = partials
            .into_iter()
            .map(|(corpus_key, states)| {
                let mut row = Record::new();
                row.set("entity", entity).set("corpus", corpus_key.as_str());
                for (agg, state) in aggregates.iter().zip(states) {
                    for finished in agg.finish(&corpus_key, state) {
                        copy_aggregate_field(agg, &finished, &mut row);
                    }
                }
                row
            })
            .collect();
        (rows, scanned)
    }
}

/// Does `key` survive the optional corpus/round/freshness filters?
/// `round` pins an exact crawl round; `since` keeps rounds `>= s`.
fn key_matches(
    key: &PostingKey,
    corpus: Option<&str>,
    round: Option<u32>,
    since: Option<u32>,
) -> bool {
    corpus.is_none_or(|c| key.corpus == c)
        && round.is_none_or(|r| key.round == r)
        && since.is_none_or(|s| key.round >= s)
}

/// One posting as a result row (also the record shape stats folds over).
fn posting_row(key: &PostingKey, posting: &Posting) -> Record {
    let mut row = Record::new();
    row.set("entity", key.entity.as_str())
        .set("type", key.etype.as_str())
        .set("corpus", key.corpus.as_str())
        .set("round", key.round as i64)
        .set("page", posting.page as i64)
        .set("start", posting.start as i64)
        .set("end", posting.end as i64)
        .set("method", posting.method.as_str());
    row
}

/// Copies an aggregate's output field from its `finish` record into the
/// combined stats row.
fn copy_aggregate_field(agg: &Aggregate, finished: &Record, row: &mut Record) {
    let (into, _) = agg.output_field();
    let value = finished.get(into).cloned().unwrap_or(Value::Null);
    row.set(into, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::store::Method;

    fn store_with(shards: usize) -> ExtractionStore {
        let mut store = ExtractionStore::new("serve", shards);
        for i in 0..30u64 {
            let entity = if i % 3 == 0 { "aspirin" } else { "warfarin" };
            let key = PostingKey {
                entity: entity.into(),
                etype: "drug".into(),
                corpus: if i % 2 == 0 { "pubmed" } else { "web" }.into(),
                round: 0,
            };
            store.insert(
                key,
                Posting { page: i / 2, start: i * 7, end: i * 7 + 5, method: Method::Dict },
            );
        }
        store
    }

    fn run(store: &ExtractionStore, q: &str) -> QueryResponse {
        let obs = Observer::new();
        QueryEngine::new(store, &obs).execute(&parse_query(q).unwrap(), 0.0)
    }

    #[test]
    fn lookup_returns_provenance_rows() {
        let store = store_with(4);
        let resp = run(&store, "lookup aspirin in pubmed");
        assert!(!resp.rows.is_empty());
        for row in &resp.rows {
            assert_eq!(row.get("corpus").unwrap().as_str(), Some("pubmed"));
            assert!(row.get("page").is_some());
            assert!(row.get("start").is_some());
            assert!(row.get("end").is_some());
        }
        // filters narrow: unfiltered lookup sees more rows
        assert!(run(&store, "lookup aspirin").rows.len() > resp.rows.len());
    }

    #[test]
    fn cooccur_intersects_pages() {
        let store = store_with(4);
        let resp = run(&store, "cooccur aspirin warfarin");
        assert!(!resp.rows.is_empty());
        for row in &resp.rows {
            assert!(row.get("left_mentions").unwrap().as_int().unwrap() >= 1);
            assert!(row.get("right_mentions").unwrap().as_int().unwrap() >= 1);
        }
        // pages ascend (BTreeMap order)
        let pages: Vec<i64> =
            resp.rows.iter().map(|r| r.get("page").unwrap().as_int().unwrap()).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(pages, sorted);
    }

    #[test]
    fn stats_aggregates_per_corpus() {
        let store = store_with(4);
        let resp = run(&store, "stats warfarin top 2");
        assert_eq!(resp.rows.len(), 2); // pubmed + web
        for row in &resp.rows {
            assert!(row.get("mentions").unwrap().as_int().unwrap() > 0);
            assert!(row.get("first_start").is_some());
            assert!(row.get("last_end").is_some());
            assert!(row.get("top_pages").unwrap().as_array().unwrap().len() <= 2);
        }
    }

    #[test]
    fn since_keeps_only_fresh_rounds() {
        let mut store = ExtractionStore::new("serve", 4);
        for round in 1..=3u32 {
            let key = PostingKey {
                entity: "aspirin".into(),
                etype: "drug".into(),
                corpus: "web".into(),
                round,
            };
            store.insert(
                key,
                Posting { page: round as u64, start: 0, end: 5, method: Method::Dict },
            );
        }
        assert_eq!(run(&store, "lookup aspirin").rows.len(), 3);
        assert_eq!(run(&store, "lookup aspirin since 2").rows.len(), 2);
        assert_eq!(run(&store, "lookup aspirin since 4").rows.len(), 0);
        // round pins exactly; since is a lower bound — they compose
        assert_eq!(run(&store, "lookup aspirin round 2 since 2").rows.len(), 1);
        let stats = run(&store, "stats aspirin since 3");
        assert_eq!(stats.rows.len(), 1);
        assert_eq!(stats.rows[0].get("mentions").unwrap().as_int(), Some(1));
    }

    #[test]
    fn responses_are_shard_count_invariant() {
        let one = store_with(1);
        let many = store_with(16);
        for q in [
            "lookup aspirin",
            "lookup warfarin in web",
            "cooccur aspirin warfarin in pubmed",
            "stats aspirin top 3",
            "stats warfarin in web round 0",
            "lookup missing",
        ] {
            let a = run(&one, q);
            let b = run(&many, q);
            assert_eq!(a.rows, b.rows, "{q}");
            assert_eq!(a.digest(), b.digest(), "{q}");
        }
    }

    #[test]
    fn observer_sees_every_query_path() {
        let store = store_with(2);
        let obs = Observer::new();
        let engine = QueryEngine::new(&store, &obs);
        engine.execute(&parse_query("lookup aspirin").unwrap(), 0.0);
        engine.execute(&parse_query("stats aspirin").unwrap(), 1.0);
        engine.execute(&parse_query("cooccur aspirin warfarin").unwrap(), 2.0);

        let snap = obs.registry().snapshot();
        for kind in ["lookup", "stats", "cooccur"] {
            let labels = Labels::new(&[("kind", kind)]);
            assert!(snap.get("serve.queries", &labels).is_some(), "{kind}");
            assert!(snap.get("serve.query_cost_secs", &labels).is_some(), "{kind}");
        }
        assert_eq!(obs.tracer().len(), 3);
    }
}
