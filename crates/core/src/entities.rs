//! Biomedical-entity analysis: distinct-name inventories (Table 4),
//! per-document incidence (Fig. 7), TLA filtering, annotation overlap
//! (Fig. 8), and Jensen-Shannon divergences (§4.3.2).

use std::collections::{HashMap, HashSet};
use websift_flow::{Record, Value};
use websift_ner::{is_tla, EntityType, Method};
use websift_stats::jensen_shannon;

/// One extracted annotation pulled back out of a flow record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedEntity {
    pub name: String,
    pub entity: EntityType,
    pub method: Method,
}

/// Pulls all entity annotations out of a record.
pub fn entities_of(r: &Record) -> Vec<ExtractedEntity> {
    let Some(arr) = r.get("entities").and_then(Value::as_array) else {
        return Vec::new();
    };
    arr.iter()
        .filter_map(|v| {
            let o = v.as_object()?;
            let name = o.get("name")?.as_str()?.to_string();
            let entity = match o.get("type")?.as_str()? {
                "gene" => EntityType::Gene,
                "drug" => EntityType::Drug,
                "disease" => EntityType::Disease,
                _ => return None,
            };
            let method = match o.get("method")?.as_str()? {
                "dict" => Method::Dictionary,
                _ => Method::Ml,
            };
            Some(ExtractedEntity { name, entity, method })
        })
        .collect()
}

/// Entity statistics of one corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusEntities {
    pub documents: usize,
    pub sentences: usize,
    /// distinct names per (type, method)
    pub distinct: HashMap<String, usize>,
    /// total mentions per (type, method)
    pub mentions: HashMap<String, u64>,
    /// name -> frequency, per entity type (dictionary method, the Fig.-8
    /// basis), used for overlap/JSD
    pub dict_name_counts: HashMap<EntityType, HashMap<String, u64>>,
    pub ml_name_counts: HashMap<EntityType, HashMap<String, u64>>,
    /// mentions per document samples, per entity type (both methods)
    pub per_doc_samples: HashMap<EntityType, Vec<f64>>,
}

fn key(entity: EntityType, method: Method) -> String {
    format!("{}/{}", entity.name(), method.name())
}

/// Aggregates entity annotations over a corpus's records.
pub fn aggregate_entities(records: &[Record]) -> CorpusEntities {
    let mut out = CorpusEntities {
        documents: records.len(),
        ..Default::default()
    };
    let mut distinct_sets: HashMap<String, HashSet<String>> = HashMap::new();
    for r in records {
        out.sentences += r.get("sentences").and_then(Value::array_len).unwrap_or(0);
        let entities = entities_of(r);
        let mut per_doc: HashMap<EntityType, usize> = HashMap::new();
        for e in entities {
            let k = key(e.entity, e.method);
            *out.mentions.entry(k.clone()).or_insert(0) += 1;
            distinct_sets.entry(k).or_default().insert(e.name.clone());
            *per_doc.entry(e.entity).or_insert(0) += 1;
            let counts = match e.method {
                Method::Dictionary => out.dict_name_counts.entry(e.entity).or_default(),
                Method::Ml => out.ml_name_counts.entry(e.entity).or_default(),
            };
            *counts.entry(e.name).or_insert(0) += 1;
        }
        for entity in EntityType::all() {
            out.per_doc_samples
                .entry(entity)
                .or_default()
                .push(*per_doc.get(&entity).unwrap_or(&0) as f64);
        }
    }
    out.distinct = distinct_sets.into_iter().map(|(k, s)| (k, s.len())).collect();
    out
}

impl CorpusEntities {
    /// Distinct names for (type, method) — a Table-4 cell.
    pub fn distinct_names(&self, entity: EntityType, method: Method) -> usize {
        *self.distinct.get(&key(entity, method)).unwrap_or(&0)
    }

    /// Mean mentions per 1000 sentences for an entity type (both methods
    /// combined) — the Fig.-7 normalization.
    pub fn mentions_per_1000_sentences(&self, entity: EntityType) -> f64 {
        if self.sentences == 0 {
            return 0.0;
        }
        let total: u64 = Method::all()
            .iter()
            .map(|&m| *self.mentions.get(&key(entity, m)).unwrap_or(&0))
            .sum();
        total as f64 * 1000.0 / self.sentences as f64
    }

    /// Applies the paper's TLA cleanup to the ML name inventory of one
    /// entity type, returning (before, after) distinct counts.
    pub fn tla_filter_ml(&mut self, entity: EntityType) -> (usize, usize) {
        let counts = self.ml_name_counts.entry(entity).or_default();
        let before = counts.len();
        counts.retain(|name, _| !is_tla(name));
        let after = counts.len();
        self.distinct.insert(key(entity, Method::Ml), after);
        (before, after)
    }
}

/// The 15-region overlap partition of four name sets (Fig. 8). Region
/// membership is a 4-bit mask over corpora in the order given; index 0
/// (empty mask) is unused.
#[derive(Debug, Clone)]
pub struct OverlapPartition {
    pub corpus_names: Vec<String>,
    /// `regions[mask]` = number of distinct names in exactly that corpus
    /// combination.
    pub regions: [usize; 16],
    pub union_size: usize,
}

impl OverlapPartition {
    /// Percentage of the union in region `mask`.
    pub fn percent(&self, mask: usize) -> f64 {
        if self.union_size == 0 {
            0.0
        } else {
            self.regions[mask] as f64 * 100.0 / self.union_size as f64
        }
    }

    /// Names shared between two corpora as a fraction of their union
    /// (Jaccard — the "overlap ... approximately 15 %" style numbers).
    pub fn pairwise_overlap(&self, a: usize, b: usize) -> f64 {
        let mut shared = 0usize;
        let mut in_either = 0usize;
        for (mask, &n) in self.regions.iter().enumerate() {
            let in_a = mask & (1 << a) != 0;
            let in_b = mask & (1 << b) != 0;
            if in_a || in_b {
                in_either += n;
            }
            if in_a && in_b {
                shared += n;
            }
        }
        if in_either == 0 {
            0.0
        } else {
            shared as f64 / in_either as f64
        }
    }
}

/// Computes the overlap partition of up to 4 name sets.
pub fn overlap_partition(sets: &[(&str, &HashSet<String>)]) -> OverlapPartition {
    assert!(sets.len() <= 4 && !sets.is_empty());
    let mut membership: HashMap<&String, usize> = HashMap::new();
    for (i, (_, set)) in sets.iter().enumerate() {
        for name in set.iter() {
            *membership.entry(name).or_insert(0) |= 1 << i;
        }
    }
    let mut regions = [0usize; 16];
    for mask in membership.values() {
        regions[*mask] += 1;
    }
    OverlapPartition {
        corpus_names: sets.iter().map(|(n, _)| n.to_string()).collect(),
        regions,
        union_size: membership.len(),
    }
}

/// JSD between two corpora's name-frequency distributions for one entity
/// type and method.
pub fn name_divergence(a: &HashMap<String, u64>, b: &HashMap<String, u64>) -> f64 {
    jensen_shannon(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_flow::span_annotation;

    fn record_with(names: &[(&str, &str, &str)]) -> Record {
        let mut r = Record::new();
        r.push_to("sentences", span_annotation(0, 10, &[]));
        for &(name, ty, method) in names {
            r.push_to(
                "entities",
                span_annotation(
                    0,
                    5,
                    &[
                        ("name", name.into()),
                        ("type", ty.into()),
                        ("method", method.into()),
                    ],
                ),
            );
        }
        r
    }

    #[test]
    fn extracts_entities_from_records() {
        let r = record_with(&[("brca1", "gene", "dict"), ("aspirin", "drug", "ml")]);
        let es = entities_of(&r);
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].entity, EntityType::Gene);
        assert_eq!(es[1].method, Method::Ml);
        assert!(entities_of(&Record::new()).is_empty());
    }

    #[test]
    fn aggregation_counts_distinct_and_mentions() {
        let records = vec![
            record_with(&[("brca1", "gene", "dict"), ("brca1", "gene", "dict")]),
            record_with(&[("tp53", "gene", "dict"), ("xyz", "gene", "ml")]),
        ];
        let agg = aggregate_entities(&records);
        assert_eq!(agg.distinct_names(EntityType::Gene, Method::Dictionary), 2);
        assert_eq!(agg.distinct_names(EntityType::Gene, Method::Ml), 1);
        assert_eq!(agg.mentions["gene/Dict."], 3);
        assert_eq!(agg.sentences, 2);
        assert!((agg.mentions_per_1000_sentences(EntityType::Gene) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn tla_filter_shrinks_ml_inventory() {
        let records = vec![record_with(&[
            ("usa", "gene", "ml"),
            ("fbi", "gene", "ml"),
            ("brca1", "gene", "ml"),
        ])];
        let mut agg = aggregate_entities(&records);
        let (before, after) = agg.tla_filter_ml(EntityType::Gene);
        assert_eq!((before, after), (3, 1));
        assert_eq!(agg.distinct_names(EntityType::Gene, Method::Ml), 1);
    }

    #[test]
    fn overlap_partition_regions() {
        let a: HashSet<String> = ["x", "shared", "all"].iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = ["y", "shared", "all"].iter().map(|s| s.to_string()).collect();
        let c: HashSet<String> = ["z", "all"].iter().map(|s| s.to_string()).collect();
        let p = overlap_partition(&[("A", &a), ("B", &b), ("C", &c)]);
        assert_eq!(p.union_size, 5);
        assert_eq!(p.regions[0b001], 1); // x only in A
        assert_eq!(p.regions[0b011], 1); // shared in A,B
        assert_eq!(p.regions[0b111], 1); // all
        assert!((p.percent(0b111) - 20.0).abs() < 1e-9);
        // pairwise Jaccard: A∩B = {shared, all} = 2; A∪B = {x,y,shared,all} = 4
        assert!((p.pairwise_overlap(0, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn divergence_of_disjoint_sets_is_one() {
        let a: HashMap<String, u64> = [("x".to_string(), 5)].into_iter().collect();
        let b: HashMap<String, u64> = [("y".to_string(), 5)].into_iter().collect();
        assert!((name_divergence(&a, &b) - 1.0).abs() < 1e-9);
        assert!(name_divergence(&a, &a) < 1e-9);
    }
}
