//! Shared entity model: types, extraction methods, and mention spans.

use std::fmt;

/// The three biomedical entity classes the study extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityType {
    Gene,
    Drug,
    Disease,
}

impl EntityType {
    pub fn all() -> [EntityType; 3] {
        [EntityType::Gene, EntityType::Drug, EntityType::Disease]
    }

    pub fn name(self) -> &'static str {
        match self {
            EntityType::Gene => "gene",
            EntityType::Drug => "drug",
            EntityType::Disease => "disease",
        }
    }
}

impl fmt::Display for EntityType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which extraction family produced an annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Automaton-based fuzzy dictionary matching.
    Dictionary,
    /// CRF-based machine-learned tagging.
    Ml,
}

impl Method {
    pub fn all() -> [Method; 2] {
        [Method::Dictionary, Method::Ml]
    }

    pub fn name(self) -> &'static str {
        match self {
            Method::Dictionary => "Dict.",
            Method::Ml => "ML",
        }
    }
}

/// One entity mention: a byte span in the source text with its normalized
/// surface form, entity type, and producing method — the unit the paper's
/// result set stores "together with information on document ID, sentence
/// ID, and start/end positions".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mention {
    pub start: usize,
    pub end: usize,
    /// Normalized (lower-cased, whitespace-collapsed) surface form, used as
    /// the "distinct entity name" key in Table 4 / Fig. 8.
    pub name: String,
    pub entity: EntityType,
    pub method: Method,
}

impl Mention {
    pub fn new(
        start: usize,
        end: usize,
        surface: &str,
        entity: EntityType,
        method: Method,
    ) -> Mention {
        Mention {
            start,
            end,
            name: normalize_name(surface),
            entity,
            method,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Normalizes a surface form into a distinct-name key: lower-case,
/// single-space separated.
pub fn normalize_name(surface: &str) -> String {
    surface
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_and_case() {
        assert_eq!(normalize_name("  Breast\n Cancer "), "breast cancer");
        assert_eq!(normalize_name("BRCA1"), "brca1");
    }

    #[test]
    fn mention_stores_span_and_normalized_name() {
        let m = Mention::new(4, 9, "BRCA1", EntityType::Gene, Method::Dictionary);
        assert_eq!(m.len(), 5);
        assert_eq!(m.name, "brca1");
        assert!(!m.is_empty());
    }

    #[test]
    fn entity_names() {
        assert_eq!(EntityType::Gene.to_string(), "gene");
        assert_eq!(EntityType::all().len(), 3);
        assert_eq!(Method::all().len(), 2);
    }
}
