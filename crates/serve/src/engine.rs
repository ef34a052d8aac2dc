//! Query execution against the extraction store.
//!
//! The engine is read-only over a shared store reference, so any number
//! of queries may execute concurrently. Responses are pure functions of
//! `(store content, query)` — shard-count and concurrency invariant —
//! which is what the serve bench's byte-identity checks lean on.
//!
//! The read path does per-query and per-key work once and keeps the
//! per-posting work to filling slots:
//!
//! - **One shard range per entity.** [`crate::store::shard_for`] places
//!   every key of an entity in one shard, so all three verbs read
//!   [`ExtractionStore::lookup_entity`]'s range of that shard, in key
//!   order. `stats` folds it per corpus through the flow engine's typed
//!   [`Aggregate`] (`seed` → `fold` → `finish`, the serial path that
//!   every fold/merge split agrees with), over one posting row per key
//!   whose `page`/`start`/`end`/`method` slots are rewritten in place for
//!   each posting.
//! - **Shared per-key values.** A posting row is eight fields pushed in
//!   sorted key order into one exact-sized map. The keys, the queried
//!   entity and the three method names are built once per query, the
//!   type, corpus and round once per posting key; a row clones them
//!   (refcount bumps) and adds three integers. `cooccur` rows share
//!   their two entity values and keys the same way.
//! - **Registry handles once per kind.** Every query reports through
//!   `websift-observe`: a per-kind counter, scanned-posting and row
//!   counters, a simulated-cost histogram, and a tracer span. The four
//!   handles and the `kind` label set are resolved on a kind's first
//!   query — when its series are created, as before — and kept on the
//!   engine, so later queries take no registry lock.
//!
//! Counters and histograms are order-independent, so they stay
//! deterministic under concurrent load; span *order* in the trace ring
//! buffer is interleaving-dependent and is only asserted on in serial
//! tests.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use websift_flow::record::intern;
use websift_flow::{AggState, Aggregate, FieldMap, Record, Value};
use websift_observe::{json::ObjectWriter, Counter, Histogram, Labels, Observer};
use websift_resilience::checkpoint::encode_to_vec;
use websift_resilience::codec;

use crate::query::Query;
use crate::store::{ExtractionStore, Method, Posting, PostingKey};

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
    /// Per query kind, in [`kind_slot`] order: its series' handles,
    /// resolved on the kind's first query.
    series: [OnceLock<KindSeries>; 3],
}

impl<'a> QueryEngine<'a> {
    pub fn new(store: &'a ExtractionStore, obs: &'a Observer) -> QueryEngine<'a> {
        QueryEngine { store, obs, series: Default::default() }
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
        let series = self.series[kind_slot(query)]
            .get_or_init(|| KindSeries::of(self.obs, query.kind()));
        series.queries.inc();
        series.rows.add(rows.len() as u64);
        series.postings_scanned.add(postings_scanned);
        series.cost_secs.record(simulated_cost_secs);
        self.obs
            .tracer()
            .span("serve.query", t_secs, simulated_cost_secs, series.labels.clone());
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
        let rows_of = PostingRows::for_entity(entity);
        let mut rows = Vec::new();
        let mut scanned = 0u64;
        for (key, postings) in self.store.lookup_entity(entity) {
            scanned += postings.len() as u64;
            if !key_matches(key, corpus, round, since) {
                continue;
            }
            let shared = rows_of.key_values(key);
            rows.reserve(postings.len());
            // lint:hot_loop(begin): lookup posting rows
            for posting in postings {
                rows.push(rows_of.row(&shared, posting));
            }
            // lint:hot_loop(end)
        }
        (rows, scanned)
    }

    /// Pages mentioning both entities (within `corpus` if given): one
    /// row per page with each side's mention count on that page.
    fn cooccur(&self, left: &str, right: &str, corpus: Option<&str>) -> (Vec<Record>, u64) {
        let mut scanned = 0u64;
        // (page, mentions) of one entity, ascending by page
        let mut pages = |entity: &str| -> Vec<(u64, i64)> {
            let mut seen = Vec::new();
            // lint:hot_loop(begin): cooccur page counts
            for (key, postings) in self.store.lookup_entity(entity) {
                scanned += postings.len() as u64;
                if key_matches(key, corpus, None, None) {
                    seen.extend(postings.iter().map(|posting| posting.page));
                }
            }
            seen.sort_unstable();
            let mut counts: Vec<(u64, i64)> = Vec::new();
            for page in seen {
                match counts.last_mut() {
                    Some((last, mentions)) if *last == page => *mentions += 1,
                    _ => counts.push((page, 1)),
                }
            }
            // lint:hot_loop(end)
            counts
        };
        let left_pages = pages(left);
        let right_pages = pages(right);
        // keys in sorted order, and the two entity values every row shares
        let keys = ["left", "left_mentions", "page", "right", "right_mentions"].map(intern);
        let [left_key, left_mentions_key, page_key, right_key, right_mentions_key] = &keys;
        let (left, right) = (Value::from(left), Value::from(right));
        let mut rows = Vec::new();
        // lint:hot_loop(begin): cooccur rows
        for &(page, left_mentions) in &left_pages {
            let Ok(at) = right_pages.binary_search_by_key(&page, |&(p, _)| p) else { continue };
            let right_mentions = right_pages[at].1;
            let mut row = FieldMap::with_capacity(keys.len());
            row.insert(left_key.clone(), left.clone());
            row.insert(left_mentions_key.clone(), Value::Int(left_mentions));
            row.insert(page_key.clone(), Value::Int(page as i64));
            row.insert(right_key.clone(), right.clone());
            row.insert(right_mentions_key.clone(), Value::Int(right_mentions));
            rows.push(Record(row));
        }
        // lint:hot_loop(end)
        (rows, scanned)
    }

    /// Per-corpus aggregates over the entity's postings: one [`AggState`]
    /// per (corpus, aggregate), each posting folded in key order as a
    /// posting row.
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
        let rows_of = PostingRows::for_entity(entity);
        let mut scanned = 0u64;
        let mut per_corpus: BTreeMap<&str, Vec<AggState>> = BTreeMap::new();
        for (key, postings) in self.store.lookup_entity(entity) {
            if !key_matches(key, corpus, round, since) {
                continue;
            }
            scanned += postings.len() as u64;
            let states = per_corpus
                .entry(key.corpus.as_str())
                .or_insert_with(|| aggregates.iter().map(Aggregate::seed).collect());
            let Some(first) = postings.first() else { continue };
            let mut row = rows_of.row(&rows_of.key_values(key), first);
            // lint:hot_loop(begin): stats fold
            for posting in postings {
                rows_of.fill(&mut row, posting);
                for (agg, state) in aggregates.iter().zip(states.iter_mut()) {
                    agg.fold(state, &row);
                }
            }
            // lint:hot_loop(end)
        }
        let rows = per_corpus
            .into_iter()
            .map(|(corpus_key, states)| {
                let mut row = Record::new();
                row.set("entity", entity).set("corpus", corpus_key);
                for (agg, state) in aggregates.iter().zip(states) {
                    for finished in agg.finish(corpus_key, state) {
                        copy_aggregate_field(agg, &finished, &mut row);
                    }
                }
                row
            })
            .collect();
        (rows, scanned)
    }
}

/// The index of `query`'s kind in [`QueryEngine`]'s series.
fn kind_slot(query: &Query) -> usize {
    match query {
        Query::Lookup { .. } => 0,
        Query::Cooccur { .. } => 1,
        Query::Stats { .. } => 2,
    }
}

/// Registry handles of one query kind's series, and the label set its
/// spans carry.
struct KindSeries {
    labels: Labels,
    queries: Counter,
    rows: Counter,
    postings_scanned: Counter,
    cost_secs: Histogram,
}

impl KindSeries {
    fn of(obs: &Observer, kind: &str) -> KindSeries {
        let labels = Labels::new(&[("kind", kind)]);
        let counter = |name| obs.registry().counter(name, &labels);
        KindSeries {
            queries: counter("serve.queries"),
            rows: counter("serve.rows"),
            postings_scanned: counter("serve.postings_scanned"),
            cost_secs: obs.registry().histogram("serve.query_cost_secs", &labels),
            labels,
        }
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

/// Builds the posting rows of one entity's query: a row is
/// `{corpus, end, entity, method, page, round, start, type}`, the record
/// shape `lookup` returns and `stats` folds over. What rows share is
/// built here once per query, and per key by [`PostingRows::key_values`].
struct PostingRows {
    /// The eight field keys, in sorted order.
    keys: [Arc<str>; 8],
    entity: Value,
    /// Method names, in [`method_slot`] order.
    methods: [Value; 3],
}

/// The values every posting row of one key shares.
struct KeyValues {
    etype: Value,
    corpus: Value,
    round: Value,
}

impl PostingRows {
    fn for_entity(entity: &str) -> PostingRows {
        PostingRows {
            keys: ["corpus", "end", "entity", "method", "page", "round", "start", "type"]
                .map(intern),
            entity: Value::from(entity),
            methods: [Method::Dict, Method::Ml, Method::Unknown].map(|m| Value::from(m.as_str())),
        }
    }

    fn key_values(&self, key: &PostingKey) -> KeyValues {
        KeyValues {
            etype: Value::from(key.etype.as_str()),
            corpus: Value::from(key.corpus.as_str()),
            round: Value::Int(key.round as i64),
        }
    }

    // lint:hot_loop(begin): posting row builder
    /// One posting as a result row.
    fn row(&self, shared: &KeyValues, posting: &Posting) -> Record {
        let [corpus, end, entity, method, page, round, start, etype] = &self.keys;
        let mut row = FieldMap::with_capacity(self.keys.len());
        row.insert(corpus.clone(), shared.corpus.clone());
        row.insert(end.clone(), Value::Int(posting.end as i64));
        row.insert(entity.clone(), self.entity.clone());
        row.insert(method.clone(), self.methods[method_slot(posting.method)].clone());
        row.insert(page.clone(), Value::Int(posting.page as i64));
        row.insert(round.clone(), shared.round.clone());
        row.insert(start.clone(), Value::Int(posting.start as i64));
        row.insert(etype.clone(), shared.etype.clone());
        Record(row)
    }

    /// Rewrites a row [`PostingRows::row`] built in place to show
    /// `posting`, another posting of the same key.
    fn fill(&self, row: &mut Record, posting: &Posting) {
        // positions in `keys` order: end 1, method 3, page 4, start 6
        for (slot, value) in row.0.values_mut().enumerate() {
            match slot {
                1 => *value = Value::Int(posting.end as i64),
                3 => *value = self.methods[method_slot(posting.method)].clone(),
                4 => *value = Value::Int(posting.page as i64),
                6 => *value = Value::Int(posting.start as i64),
                _ => {}
            }
        }
    }
    // lint:hot_loop(end)
}

/// The index of `method`'s name in [`PostingRows`]' methods.
fn method_slot(method: Method) -> usize {
    match method {
        Method::Dict => 0,
        Method::Ml => 1,
        Method::Unknown => 2,
    }
}

/// Copies an aggregate's output field from its `finish` record into the
/// combined stats row.
fn copy_aggregate_field(agg: &Aggregate, finished: &Record, row: &mut Record) {
    let (into, _) = agg.output_field();
    let value = finished.get(into).cloned().unwrap_or(Value::Null);
    row.set(into, value);
}

/// The engine the shared-value read path replaced, kept as the oracle of
/// the differential tests: rows built field by field through
/// `Record::set`, `stats` scanning every key of every shard and merging
/// per-shard partials, and four registry look-ups per query.
#[cfg(test)]
mod reference {
    use super::*;

    pub struct ReferenceEngine<'a> {
        store: &'a ExtractionStore,
        obs: &'a Observer,
    }

    impl<'a> ReferenceEngine<'a> {
        pub fn new(store: &'a ExtractionStore, obs: &'a Observer) -> ReferenceEngine<'a> {
            ReferenceEngine { store, obs }
        }

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
            self.obs.registry().counter("serve.rows", &labels).add(rows.len() as u64);
            self.obs
                .registry()
                .counter("serve.postings_scanned", &labels)
                .add(postings_scanned);
            self.obs
                .registry()
                .histogram("serve.query_cost_secs", &labels)
                .record(simulated_cost_secs);
            self.obs.tracer().span("serve.query", t_secs, simulated_cost_secs, labels);
            QueryResponse { rows, postings_scanned, simulated_cost_secs }
        }

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

        fn cooccur(&self, left: &str, right: &str, corpus: Option<&str>) -> (Vec<Record>, u64) {
            let mut scanned = 0u64;
            let mut pages = |entity: &str| -> BTreeMap<u64, i64> {
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
            let mut partials: BTreeMap<String, Vec<AggState>> = BTreeMap::new();
            for shard in self.store.shards() {
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
                            for (agg, (left, right)) in
                                aggregates.iter().zip(slot.get_mut().iter_mut().zip(states))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;

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

    /// The read path against [`reference::ReferenceEngine`], the engine it
    /// replaced: every response (rows, bytes, scanned postings, cost bits)
    /// and, after the whole stream, the registry snapshot and the trace.
    mod differential {
        use super::*;
        use crate::engine::reference::ReferenceEngine;
        use proptest::prelude::*;

        /// Entities: empty, non-ASCII, and several sharing a first byte
        /// (`a…`; `é`, `éclampsia` and `ß` all start with byte 0xC3).
        const ENTITIES: &[&str] =
            &["", "a", "ab", "asp", "aspirin", "é", "éclampsia", "ß", "中文", "zeta"];
        const TYPES: &[&str] = &["gene", "drug", "disease"];
        const CORPORA: &[&str] = &["medline", "web"];
        const METHODS: &[Method] = &[Method::Dict, Method::Ml, Method::Unknown];
        const SHARDS: &[usize] = &[1, 4, 16, 256];
        const TOPS: &[usize] = &[0, 1, 3, usize::MAX];

        /// A splitmix64 stream: the whole case is drawn from one seed.
        struct Draw(u64);

        impl Draw {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }

            fn pick<T: Copy>(&mut self, from: &[T]) -> T {
                from[self.below(from.len())]
            }

            /// `Some` of a draw half the time.
            fn maybe<T>(&mut self, draw: impl FnOnce(&mut Draw) -> T) -> Option<T> {
                (self.below(2) == 0).then(|| draw(self))
            }
        }

        /// A store of `postings` random postings: every method, rounds
        /// 0–4, two corpora.
        fn random_store(draw: &mut Draw, shards: usize, postings: usize) -> ExtractionStore {
            let mut store = ExtractionStore::new("serve", shards);
            for _ in 0..postings {
                let key = PostingKey {
                    entity: draw.pick(ENTITIES).into(),
                    etype: draw.pick(TYPES).into(),
                    corpus: draw.pick(CORPORA).into(),
                    round: draw.below(5) as u32,
                };
                let start = draw.below(500) as u64;
                let posting = Posting {
                    page: draw.below(30) as u64,
                    start,
                    end: start + 1 + draw.below(20) as u64,
                    method: draw.pick(METHODS),
                };
                store.insert(key, posting);
            }
            store
        }

        /// An entity of the store, or one it does not hold.
        fn entity(draw: &mut Draw) -> String {
            if draw.below(8) == 0 { "missing".into() } else { draw.pick(ENTITIES).into() }
        }

        /// A corpus filter: one the store holds, or one it does not.
        fn corpus(draw: &mut Draw) -> Option<String> {
            draw.maybe(|d| if d.below(6) == 0 { "pmc".into() } else { d.pick(CORPORA).into() })
        }

        fn round(draw: &mut Draw) -> Option<u32> {
            draw.maybe(|d| d.below(6) as u32)
        }

        fn random_query(draw: &mut Draw) -> Query {
            match draw.below(3) {
                0 => Query::Lookup {
                    entity: entity(draw),
                    corpus: corpus(draw),
                    round: round(draw),
                    since: round(draw),
                },
                1 => {
                    let left = entity(draw);
                    let right = if draw.below(3) == 0 { left.clone() } else { entity(draw) };
                    Query::Cooccur { left, right, corpus: corpus(draw) }
                }
                _ => Query::Stats {
                    entity: entity(draw),
                    corpus: corpus(draw),
                    round: round(draw),
                    since: round(draw),
                    top: draw.pick(TOPS),
                },
            }
        }

        /// Runs `queries` through both engines over `store`, each engine
        /// with its own observer, and asserts they cannot be told apart.
        fn assert_agrees(store: &ExtractionStore, queries: &[Query]) {
            let (obs, reference_obs) = (Observer::new(), Observer::new());
            let engine = QueryEngine::new(store, &obs);
            let reference = ReferenceEngine::new(store, &reference_obs);
            for (i, query) in queries.iter().enumerate() {
                let got = engine.execute(query, i as f64);
                let want = reference.execute(query, i as f64);
                assert_eq!(got.rows, want.rows, "{query:?}");
                assert_eq!(got.bytes(), want.bytes(), "{query:?}");
                assert_eq!(got.postings_scanned, want.postings_scanned, "{query:?}");
                assert_eq!(
                    got.simulated_cost_secs.to_bits(),
                    want.simulated_cost_secs.to_bits(),
                    "{query:?}"
                );
            }
            assert_eq!(obs.registry().snapshot(), reference_obs.registry().snapshot());
            assert_eq!(obs.tracer().to_jsonl(), reference_obs.tracer().to_jsonl());
        }

        proptest! {
            #[test]
            fn differential_serve_random_stores_and_queries(
                seed in 0u64..u64::MAX,
                postings in 0usize..300,
                queries in 1usize..40,
            ) {
                for &shards in SHARDS {
                    // the same content at every shard count
                    let store = random_store(&mut Draw(seed), shards, postings);
                    let mut draw = Draw(!seed);
                    let stream: Vec<Query> = (0..queries).map(|_| random_query(&mut draw)).collect();
                    assert_agrees(&store, &stream);
                }
            }
        }

        #[test]
        fn differential_serve_every_entity_and_top() {
            for &shards in SHARDS {
                let store = random_store(&mut Draw(7), shards, 400);
                let mut stream = Vec::new();
                for &entity in ENTITIES.iter().chain(&["missing"]) {
                    stream.push(Query::Lookup {
                        entity: entity.into(),
                        corpus: None,
                        round: None,
                        since: None,
                    });
                    stream.push(Query::Lookup {
                        entity: entity.into(),
                        corpus: Some("web".into()),
                        round: Some(2),
                        since: Some(1),
                    });
                    for &right in ["aspirin", entity].iter() {
                        stream.push(Query::Cooccur {
                            left: entity.into(),
                            right: right.into(),
                            corpus: None,
                        });
                    }
                    for &top in TOPS {
                        stream.push(Query::Stats {
                            entity: entity.into(),
                            corpus: None,
                            round: None,
                            since: None,
                            top,
                        });
                    }
                    stream.push(Query::Stats {
                        entity: entity.into(),
                        corpus: Some("medline".into()),
                        round: None,
                        since: Some(3),
                        top: 3,
                    });
                }
                assert_agrees(&store, &stream);
                assert_agrees(&ExtractionStore::new("empty", shards), &stream);
            }
        }
    }
}
