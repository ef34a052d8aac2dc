//! Static query checking against an inferred store schema.
//!
//! The store's ingest path ([`ExtractionStore::ingest_record`]) silently
//! ignores records that lack a page `id` or an `entities` annotation
//! array — the right behaviour for heterogeneous extraction output, but
//! it means a mis-wired flow produces an *empty* store and queries that
//! return nothing, with no error anywhere. This module closes that gap
//! statically: [`StoreSchema::from_plan`] runs the field-flow analysis
//! (`websift_flow::field_flow`) over the producing plan and captures the
//! inferred record schema at every `store:` sink edge, and
//! [`check_query`] compares a parsed [`Query`] against it, reporting
//! WS016 diagnostics in the same format as the plan analyzer:
//!
//! | condition | severity |
//! |---|---|
//! | nothing feeds the `entities` dataset | error |
//! | `entities` annotation never written / wrong type | error |
//! | `entities` or `id` only conditionally present | warning |
//! | `corpus` never written but query filters by corpus | warning |
//! | `round`/`since` beyond the store's ingested round | warning |
//! | corpus filter names a corpus with no postings | warning |
//!
//! [`StoreSchema::of`] derives the same structure from a live store
//! (known corpora, current round), so the engine can check queries
//! against what was actually ingested rather than what a plan promises.

use std::collections::{BTreeMap, BTreeSet};

use websift_analyze::lattice::{FieldFact, FieldSchema, FieldType, Presence};
use websift_analyze::{sort_diagnostics, Diagnostic};
use websift_flow::{
    field_flow, parse_store_sink, AnalyzeOptions, LogicalPlan, NodeOp,
};

use crate::query::Query;
use crate::store::{ExtractionStore, ENTITY_DATASET};

/// What a store expects (per-dataset record schema) and what it holds
/// (ingested round, known corpora).
#[derive(Debug, Clone, Default)]
pub struct StoreSchema {
    datasets: BTreeMap<String, FieldSchema>,
    round: u32,
    /// Corpora with at least one posting. Empty means "unknown" (a
    /// plan-derived schema cannot enumerate corpora), which disables
    /// the corpus-membership check.
    corpora: BTreeSet<String>,
}

impl StoreSchema {
    /// Infers the schema a plan delivers to `store`: one entry per
    /// `store:<store>/<dataset>` sink, holding the field-flow record
    /// schema at the sink's input edge. Sink names are unique within a
    /// plan, so each dataset has exactly one feeding edge.
    pub fn from_plan(plan: &LogicalPlan, opts: &AnalyzeOptions, store: &str) -> StoreSchema {
        let flow = field_flow(plan, opts);
        let mut datasets: BTreeMap<String, FieldSchema> = BTreeMap::new();
        for node in plan.nodes() {
            let NodeOp::Sink(name) = &node.op else { continue };
            let Some((sink_store, dataset)) = parse_store_sink(name) else { continue };
            if sink_store != store {
                continue;
            }
            let schema = flow
                .input(plan, node.id)
                .map(|edge| edge.schema.clone())
                .unwrap_or_default();
            datasets.insert(dataset.to_string(), schema);
        }
        StoreSchema { datasets, round: 0, corpora: BTreeSet::new() }
    }

    /// The schema of a live store: the ingest contract (`id`, `corpus`,
    /// `entities` all definite — ignored records never made it in) plus
    /// the corpora and crawl round actually ingested.
    pub fn of(store: &ExtractionStore) -> StoreSchema {
        let mut fields = FieldSchema::new();
        fields.insert("id".to_string(), FieldFact::definite(FieldType::Int, None));
        fields.insert("corpus".to_string(), FieldFact::definite(FieldType::Str, None));
        fields.insert("entities".to_string(), FieldFact::definite(FieldType::Array, None));
        let mut datasets = BTreeMap::new();
        datasets.insert(ENTITY_DATASET.to_string(), fields);
        let corpora = store
            .iter()
            .filter(|(key, _)| !key.corpus.is_empty())
            .map(|(key, _)| key.corpus.clone())
            .collect();
        StoreSchema { datasets, round: store.round(), corpora }
    }

    /// The inferred record schema for one dataset, if anything feeds it.
    pub fn dataset(&self, name: &str) -> Option<&FieldSchema> {
        self.datasets.get(name)
    }
}

/// Checks the ingest contract of the `entities` dataset — shared by
/// every verb, since all three scan the posting index.
fn check_ingest_contract(fields: &FieldSchema, out: &mut Vec<Diagnostic>) {
    match fields.get("entities") {
        None => out.push(Diagnostic::error(
            "WS016",
            "the flow feeding 'entities' never writes the 'entities' annotation array; \
             ingest ignores every record and queries return nothing",
        )),
        Some(fact) => {
            if fact.presence == Presence::Absent {
                out.push(Diagnostic::error(
                    "WS016",
                    "the flow feeding 'entities' never writes the 'entities' annotation array; \
                     ingest ignores every record and queries return nothing",
                ));
            } else if fact.presence == Presence::Possible {
                out.push(Diagnostic::warning(
                    "WS016",
                    "the flow feeding 'entities' only conditionally writes the 'entities' \
                     annotation; records without it are silently ignored at ingest",
                ));
            }
            if fact.ty != FieldType::Array && fact.ty != FieldType::Unknown {
                out.push(Diagnostic::error(
                    "WS016",
                    format!(
                        "the 'entities' annotation is written as {} but ingest expects an \
                         array of mention objects; every record will be ignored",
                        fact.ty.as_str()
                    ),
                ));
            }
        }
    }
    match fields.get("id") {
        None => out.push(Diagnostic::error(
            "WS016",
            "the flow feeding 'entities' drops the page 'id' field; ingest needs it for \
             posting provenance and ignores records without one",
        )),
        Some(fact) if fact.presence == Presence::Possible => out.push(Diagnostic::warning(
            "WS016",
            "the page 'id' field is only conditionally present; records without it are \
             silently ignored at ingest",
        )),
        Some(_) => {}
    }
}

/// Statically checks one parsed query against a store schema. Returns
/// WS016 diagnostics (sorted errors-first like the plan analyzer); an
/// empty vector means the query can plausibly return rows.
pub fn check_query(query: &Query, schema: &StoreSchema) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(fields) = schema.dataset(ENTITY_DATASET) else {
        out.push(Diagnostic::error(
            "WS016",
            format!(
                "nothing feeds the '{ENTITY_DATASET}' dataset of this store; every query \
                 scans an empty posting index — add a store sink for '{ENTITY_DATASET}' \
                 or target the store the flow actually writes"
            ),
        ));
        return out;
    };
    check_ingest_contract(fields, &mut out);

    let (corpus, round, since) = match query {
        Query::Lookup { corpus, round, since, .. } => (corpus, *round, *since),
        Query::Cooccur { corpus, .. } => (corpus, None, None),
        Query::Stats { corpus, round, since, .. } => (corpus, *round, *since),
    };
    if let Some(corpus) = corpus {
        let corpus_written = fields
            .get("corpus")
            .is_some_and(|fact| fact.presence != Presence::Absent);
        if !corpus_written {
            out.push(Diagnostic::warning(
                "WS016",
                format!(
                    "the query filters by corpus '{corpus}' but the flow never sets a \
                     'corpus' field; all postings land in the unnamed corpus and the \
                     filter matches nothing"
                ),
            ));
        } else if !schema.corpora.is_empty() && !schema.corpora.contains(corpus) {
            out.push(Diagnostic::warning(
                "WS016",
                format!("corpus '{corpus}' has no postings in this store"),
            ));
        }
    }
    for (clause, bound) in [("round", round), ("since", since)] {
        if let Some(n) = bound {
            if n > schema.round {
                out.push(Diagnostic::warning(
                    "WS016",
                    format!(
                        "the query's '{clause} {n}' clause is ahead of the store's \
                         ingested round {}; it cannot match until the crawl catches up",
                        schema.round
                    ),
                ));
            }
        }
    }
    sort_diagnostics(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::store::Posting;
    use crate::store::{Method, PostingKey};
    use websift_flow::{Aggregate, Operator, Package};

    /// docs → extract (writes `entities` as an array) → store sink.
    fn producing_plan(maybe: bool) -> LogicalPlan {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let mut extract = Operator::map("ie.extract", Package::Ie, |r| r).with_reads(&["text"]);
        extract = if maybe {
            extract.with_maybe_writes(&["entities"])
        } else {
            extract
                .with_writes(&["entities"])
                .with_write_types(&[("entities", FieldType::Array)])
        };
        let node = plan.add(src, extract).unwrap();
        plan.store_sink(node, "serve", ENTITY_DATASET).unwrap();
        plan
    }

    #[test]
    fn well_typed_plan_passes_every_verb() {
        let schema =
            StoreSchema::from_plan(&producing_plan(false), &AnalyzeOptions::default(), "serve");
        for q in ["lookup aspirin", "cooccur aspirin warfarin", "stats tp53 top 2"] {
            let diags = check_query(&parse_query(q).unwrap(), &schema);
            assert!(diags.is_empty(), "{q}: {diags:?}");
        }
    }

    #[test]
    fn missing_dataset_is_an_error() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.sink(src, "out").unwrap(); // plain sink, not a store sink
        let schema = StoreSchema::from_plan(&plan, &AnalyzeOptions::default(), "serve");
        let diags = check_query(&parse_query("lookup aspirin").unwrap(), &schema);
        assert_eq!(diags.len(), 1);
        assert!(websift_analyze::has_errors(&diags));
        assert!(diags[0].message.contains("nothing feeds"));
    }

    #[test]
    fn conditional_entities_warns_and_dropped_id_errors() {
        let schema =
            StoreSchema::from_plan(&producing_plan(true), &AnalyzeOptions::default(), "serve");
        let diags = check_query(&parse_query("lookup aspirin").unwrap(), &schema);
        let codes: Vec<_> = diags.iter().map(|d| d.severity).collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("conditionally"), "{codes:?}");

        // a reduce builds fresh `key` + aggregate records: `id` is gone
        // downstream, so ingest provenance breaks
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let count = Aggregate::Count { into: "n".into() };
        let reduce = plan
            .add(src, Operator::reduce_agg("collapse", Package::Base, |_, _| {}, count))
            .unwrap();
        let tagged = plan
            .add(
                reduce,
                Operator::map("ie.extract", Package::Ie, |r| r)
                    .with_writes(&["entities"])
                    .with_write_types(&[("entities", FieldType::Array)]),
            )
            .unwrap();
        plan.store_sink(tagged, "serve", ENTITY_DATASET).unwrap();
        let schema = StoreSchema::from_plan(&plan, &AnalyzeOptions::default(), "serve");
        let diags = check_query(&parse_query("lookup aspirin").unwrap(), &schema);
        assert!(
            diags.iter().any(|d| d.message.contains("'id' field")),
            "{diags:?}"
        );
    }

    #[test]
    fn wrong_entities_type_is_an_error() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let node = plan
            .add(
                src,
                Operator::map("ie.extract", Package::Ie, |r| r)
                    .with_writes(&["entities"])
                    .with_write_types(&[("entities", FieldType::Str)]),
            )
            .unwrap();
        plan.store_sink(node, "serve", ENTITY_DATASET).unwrap();
        let schema = StoreSchema::from_plan(&plan, &AnalyzeOptions::default(), "serve");
        let diags = check_query(&parse_query("lookup aspirin").unwrap(), &schema);
        assert!(websift_analyze::has_errors(&diags));
        assert!(diags[0].message.contains("expects an"), "{diags:?}");
    }

    #[test]
    fn live_store_schema_checks_corpora_and_rounds() {
        let mut store = ExtractionStore::new("serve", 4);
        store.set_round(2);
        store.insert(
            PostingKey {
                entity: "aspirin".into(),
                etype: "drug".into(),
                corpus: "pubmed".into(),
                round: 1,
            },
            Posting { page: 7, start: 0, end: 7, method: Method::Dict },
        );
        let schema = StoreSchema::of(&store);

        let clean = check_query(&parse_query("lookup aspirin in pubmed round 1").unwrap(), &schema);
        assert!(clean.is_empty(), "{clean:?}");

        let wrong_corpus = check_query(&parse_query("lookup aspirin in web").unwrap(), &schema);
        assert_eq!(wrong_corpus.len(), 1);
        assert!(wrong_corpus[0].message.contains("no postings"));

        let future = check_query(&parse_query("stats aspirin since 9").unwrap(), &schema);
        assert_eq!(future.len(), 1);
        assert!(future[0].message.contains("ahead of the store's ingested round 2"));
    }

    #[test]
    fn schema_is_scoped_to_the_named_store() {
        // a second store's sink must not leak into this store's schema
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let tagged = plan
            .add(
                src,
                Operator::map("ie.extract", Package::Ie, |r| r)
                    .with_writes(&["entities"])
                    .with_write_types(&[("entities", FieldType::Array)]),
            )
            .unwrap();
        plan.store_sink(tagged, "serve", ENTITY_DATASET).unwrap();
        let plain = plan.add(src, Operator::map("noop", Package::Base, |r| r)).unwrap();
        plan.store_sink(plain, "other", ENTITY_DATASET).unwrap();
        let schema = StoreSchema::from_plan(&plan, &AnalyzeOptions::default(), "serve");
        let fields = schema.dataset(ENTITY_DATASET).unwrap();
        assert_eq!(fields.get("entities").unwrap().presence, Presence::Definite);
        let other = StoreSchema::from_plan(&plan, &AnalyzeOptions::default(), "other");
        assert!(!other.dataset(ENTITY_DATASET).unwrap().contains_key("entities"));
    }
}
