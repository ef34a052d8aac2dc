//! The sharded extraction store.
//!
//! Layout: posting lists in `BTreeMap<PostingKey, Vec<Posting>>` per
//! shard, sharded by entity key range. [`PostingKey`] orders by
//! `(entity, type, corpus, round)` and [`shard_for`] assigns every key
//! whose entity shares a first byte to the same shard, so shards own
//! contiguous, non-overlapping key ranges — concatenating the shards in
//! index order walks every posting list in global key order, which is
//! what makes query results (and [`ExtractionStore::content_digest`])
//! invariant under resharding.
//!
//! Each [`Posting`] carries source provenance — the page id and the byte
//! span of the mention inside that page's text — so every served answer
//! can point back at the crawled sentence it came from (the WebIE
//! "faithful to the source" requirement).

use std::collections::BTreeMap;

use websift_flow::{Record, StoreSink, Value};
use websift_resilience::CodecError;

/// The dataset name the store ingests as entity mentions; a pipeline
/// writes to it via `plan.store_sink(node, store_name, ENTITY_DATASET)`.
pub const ENTITY_DATASET: &str = "entities";

/// How a mention was extracted (the paper's dictionary vs. ML annotator
/// split). Stored per posting so serving can filter or weight by method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Method {
    Dict,
    Ml,
    /// Annotator did not say — kept distinct rather than guessed.
    Unknown,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Dict => "dict",
            Method::Ml => "ml",
            Method::Unknown => "unknown",
        }
    }

    pub fn from_name(name: &str) -> Method {
        match name {
            "dict" => Method::Dict,
            "ml" => Method::Ml,
            _ => Method::Unknown,
        }
    }
}

/// Posting-list key: which entity, in which corpus, from which crawl
/// round. Entity first so the derived `Ord` (and therefore the shard
/// ranges) spread by entity name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PostingKey {
    /// Lowercased surface form of the entity.
    pub entity: String,
    /// Entity type ("gene", "drug", "disease", ...).
    pub etype: String,
    /// Corpus the mention came from.
    pub corpus: String,
    /// Crawl round that produced the mention.
    pub round: u32,
}

/// One mention occurrence with source provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Page (document) id the mention was extracted from.
    pub page: u64,
    /// Byte span of the mention inside the page text.
    pub start: u64,
    pub end: u64,
    /// Extraction method that produced it.
    pub method: Method,
}

/// Most shards a store can use: [`shard_for`] partitions on the entity's
/// first byte, so a shard beyond the 256th could never hold a key.
pub(crate) const MAX_SHARDS: usize = 256;

/// Shard index for `entity` in a store of `shards` shards: a static
/// range partition on the entity's first byte. A pure function of
/// `(entity, shards)`, so the same key always lands in the same shard
/// and shard ranges are contiguous.
pub fn shard_for(entity: &str, shards: usize) -> usize {
    let first = entity.as_bytes().first().copied().unwrap_or(0) as usize;
    first * shards / 256
}

/// One key-range shard: its slice of the posting lists.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Shard {
    pub postings: BTreeMap<PostingKey, Vec<Posting>>,
}

/// The persistent extraction store.
///
/// Ingest happens through [`StoreSink::append`] (fed by a flow run given
/// the store as `RunOptions::store`) or [`ExtractionStore::insert`];
/// postings within one list keep ingest order, so the store's content is
/// a pure function of the ingested record sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionStore {
    name: String,
    shards: Vec<Shard>,
    /// Crawl round stamped on newly ingested postings.
    round: u32,
    /// Records accepted through the sink interface.
    ingested_records: u64,
    /// Records offered to a dataset the store does not model; counted
    /// rather than silently dropped so benches and tests can assert on
    /// it.
    ignored_records: u64,
}

impl ExtractionStore {
    /// A store named `name` with `shards` key-range shards, 1 to 256
    /// (beyond 256, [`shard_for`] leaves shards that never hold a key).
    pub fn new(name: &str, shards: usize) -> ExtractionStore {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "a store has 1..={MAX_SHARDS} shards, not {shards}"
        );
        ExtractionStore {
            name: name.to_string(),
            shards: vec![Shard::default(); shards],
            round: 0,
            ingested_records: 0,
            ignored_records: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    pub fn round(&self) -> u32 {
        self.round
    }

    /// Sets the crawl round stamped on subsequent ingests.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn ingested_records(&self) -> u64 {
        self.ingested_records
    }

    pub fn ignored_records(&self) -> u64 {
        self.ignored_records
    }

    /// Total number of posting entries across all lists.
    pub fn posting_count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.postings.values())
            .map(|l| l.len() as u64)
            .sum()
    }

    /// Number of distinct posting keys.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.postings.len()).sum()
    }

    /// Appends one posting to its key's list (in the key's shard).
    pub fn insert(&mut self, key: PostingKey, posting: Posting) {
        let shard = shard_for(&key.entity, self.shards.len());
        self.shards[shard].postings.entry(key).or_default().push(posting);
    }

    /// All posting lists in global key order (shards own contiguous
    /// ranges, so chaining them in index order is already sorted).
    pub fn iter(&self) -> impl Iterator<Item = (&PostingKey, &Vec<Posting>)> {
        self.shards.iter().flat_map(|s| s.postings.iter())
    }

    /// Posting lists for one entity (every type / corpus / round), in
    /// key order. Touches exactly one shard.
    pub fn lookup_entity(&self, entity: &str) -> Vec<(&PostingKey, &Vec<Posting>)> {
        let shard = &self.shards[shard_for(entity, self.shards.len())];
        let from = PostingKey {
            entity: entity.to_string(),
            etype: String::new(),
            corpus: String::new(),
            round: 0,
        };
        shard
            .postings
            .range(from..)
            .take_while(|(k, _)| k.entity == entity)
            .collect()
    }

    /// Ingests one pipeline output record: page id from `id`, corpus
    /// from `corpus`, one posting per span in the `entities` annotation
    /// array. Records without a page id or entity spans count as
    /// ignored, not errors — extraction output is heterogeneous.
    pub fn ingest_record(&mut self, record: &Record) {
        let Some(page) = record.get("id").and_then(Value::as_int) else {
            self.ignored_records += 1;
            return;
        };
        let corpus = record
            .get("corpus")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let Some(mentions) = record.get("entities").and_then(Value::as_array) else {
            self.ignored_records += 1;
            return;
        };
        self.ingested_records += 1;
        let round = self.round;
        for mention in mentions {
            let Some(obj) = mention.as_object() else { continue };
            let Some(name) = obj.get("name").and_then(Value::as_str) else { continue };
            let key = PostingKey {
                entity: name.to_lowercase(),
                etype: obj
                    .get("type")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                corpus: corpus.clone(),
                round,
            };
            let posting = Posting {
                page: page as u64,
                start: obj.get("start").and_then(Value::as_int).unwrap_or(0) as u64,
                end: obj.get("end").and_then(Value::as_int).unwrap_or(0) as u64,
                method: Method::from_name(
                    obj.get("method").and_then(Value::as_str).unwrap_or(""),
                ),
            };
            self.insert(key, posting);
        }
    }

    /// Digest of the store's logical content — shard-count invariant,
    /// because [`ExtractionStore::iter`] is.
    pub fn content_digest(&self) -> u64 {
        crate::snapshot::content_digest(self)
    }

    /// Moves `other`'s posting lists into this store and takes its
    /// counters. `other` must have this store's name and shard count, and
    /// no key of it may be here already.
    pub(crate) fn add_new_keys(&mut self, other: ExtractionStore) -> Result<(), CodecError> {
        if other.name != self.name {
            let digest = |name: &str| websift_resilience::codec::digest(name.as_bytes());
            return Err(CodecError::Mismatch {
                what: "store name digest",
                claimed: digest(&other.name),
                sealed: digest(&self.name),
            });
        }
        if other.shards.len() != self.shards.len() {
            return Err(CodecError::Mismatch {
                what: "store shard count",
                claimed: other.shards.len() as u64,
                sealed: self.shards.len() as u64,
            });
        }
        for (mine, theirs) in self.shards.iter_mut().zip(other.shards) {
            for (key, postings) in theirs.postings {
                if mine.postings.contains_key(&key) {
                    return Err(CodecError::Mismatch {
                        what: "posting key stored twice (its round)",
                        claimed: u64::from(key.round),
                        sealed: u64::from(self.round),
                    });
                }
                mine.postings.insert(key, postings);
            }
        }
        self.restore_counters(other.round, other.ingested_records, other.ignored_records);
        Ok(())
    }

    /// Restores the non-content state a snapshot carries alongside the
    /// posting lists.
    pub(crate) fn restore_counters(&mut self, round: u32, ingested: u64, ignored: u64) {
        self.round = round;
        self.ingested_records = ingested;
        self.ignored_records = ignored;
    }
}

impl StoreSink for ExtractionStore {
    fn store_name(&self) -> &str {
        &self.name
    }

    fn append(&mut self, dataset: &str, records: Vec<Record>) {
        if dataset == ENTITY_DATASET {
            for record in &records {
                self.ingest_record(record);
            }
        } else {
            self.ignored_records += records.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_flow::span_annotation;

    fn mention_record(page: i64, corpus: &str, names: &[(&str, usize)]) -> Record {
        let mut r = Record::new();
        r.set("id", page).set("corpus", corpus);
        for (name, start) in names {
            r.push_to(
                "entities",
                span_annotation(*start, start + name.len(), &[
                    ("name", Value::from(*name)),
                    ("type", Value::from("drug")),
                    ("method", Value::from("dict")),
                ]),
            );
        }
        r
    }

    #[test]
    fn ingest_builds_posting_lists_with_provenance() {
        let mut store = ExtractionStore::new("serve", 4);
        store.ingest_record(&mention_record(7, "pubmed", &[("Aspirin", 3), ("aspirin", 40)]));
        store.ingest_record(&mention_record(9, "pubmed", &[("aspirin", 0)]));

        assert_eq!(store.posting_count(), 3);
        assert_eq!(store.key_count(), 1); // case-folded to one key
        let lists = store.lookup_entity("aspirin");
        assert_eq!(lists.len(), 1);
        let (key, postings) = lists[0];
        assert_eq!(key.corpus, "pubmed");
        assert_eq!(key.etype, "drug");
        assert_eq!(postings[0], Posting { page: 7, start: 3, end: 10, method: Method::Dict });
        assert_eq!(postings[2].page, 9);
    }

    #[test]
    fn shard_assignment_is_contiguous_and_total() {
        // in-range, and monotone in the first byte (contiguous ranges)
        for shards in [1, 2, 4, 16, 256] {
            let mut last = 0;
            for b in 0u8..=127 {
                let entity = (b as char).to_string();
                let s = shard_for(&entity, shards);
                assert!(s < shards);
                assert!(s >= last);
                last = s;
            }
        }
        assert_eq!(shard_for("", 4), 0); // empty entity is still placed
    }

    #[test]
    fn content_is_shard_count_invariant() {
        let records: Vec<Record> = (0..20)
            .map(|i| mention_record(i, "web", &[("ibuprofen", 5), ("warfarin", 30)]))
            .collect();
        let mut a = ExtractionStore::new("serve", 1);
        let mut b = ExtractionStore::new("serve", 16);
        for r in &records {
            a.ingest_record(r);
            b.ingest_record(r);
        }
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sink_interface_counts_unknown_datasets() {
        let mut store = ExtractionStore::new("serve", 2);
        store.append(ENTITY_DATASET, vec![mention_record(1, "web", &[("statin", 0)])]);
        store.append("aux", vec![Record::new(), Record::new()]);
        assert_eq!(store.ingested_records(), 1);
        assert_eq!(store.ignored_records(), 2);
    }

    #[test]
    fn rounds_stamp_new_postings() {
        let mut store = ExtractionStore::new("serve", 2);
        store.ingest_record(&mention_record(1, "web", &[("statin", 0)]));
        store.set_round(1);
        store.ingest_record(&mention_record(2, "web", &[("statin", 0)]));
        let lists = store.lookup_entity("statin");
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0].0.round, 0);
        assert_eq!(lists[1].0.round, 1);
    }
}
