//! Document model shared across the workspace.

use websift_ner::EntityType;

/// The four corpora of the study (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// Crawled pages classified as biomedical ("relevant crawl").
    RelevantWeb,
    /// Crawled pages classified as out-of-domain ("irrelevant crawl").
    IrrelevantWeb,
    /// Medline abstracts.
    Medline,
    /// PMC open-access full texts.
    Pmc,
}

impl CorpusKind {
    pub fn all() -> [CorpusKind; 4] {
        [
            CorpusKind::RelevantWeb,
            CorpusKind::IrrelevantWeb,
            CorpusKind::Medline,
            CorpusKind::Pmc,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::RelevantWeb => "Relevant crawl",
            CorpusKind::IrrelevantWeb => "Irrelevant crawl",
            CorpusKind::Medline => "Medline",
            CorpusKind::Pmc => "PMC",
        }
    }

    /// Paper-reported corpus statistics (Table 3): (size GB, documents,
    /// mean chars per document).
    pub fn paper_stats(self) -> (f64, u64, u64) {
        match self {
            CorpusKind::RelevantWeb => (373.0, 4_233_523, 88_384),
            CorpusKind::IrrelevantWeb => (607.0, 17_704_365, 37_625),
            CorpusKind::Medline => (21.0, 21_686_397, 865),
            CorpusKind::Pmc => (19.0, 250_440, 55_704),
        }
    }
}

/// Ground truth embedded by the generator, used by the evaluation harness
/// (never visible to the extraction pipeline itself).
#[derive(Debug, Clone, Default)]
pub struct DocumentGold {
    /// Entity surface forms inserted into the text (normalized form).
    pub entities: Vec<(EntityType, String)>,
    /// Number of generated sentences.
    pub sentences: usize,
    /// Sentences generated with a negation word.
    pub negated_sentences: usize,
    /// Sentences generated with a pronoun subject.
    pub pronoun_sentences: usize,
    /// Sentences generated with a parenthetical.
    pub paren_sentences: usize,
}

/// One document of a corpus.
#[derive(Debug, Clone)]
pub struct Document {
    pub id: u64,
    pub kind: CorpusKind,
    /// URL for web documents.
    pub url: Option<String>,
    pub title: String,
    /// Net (boilerplate-free) text. For web documents this is the gold net
    /// text the boilerplate detector is evaluated against.
    pub body: String,
    /// Raw HTML for web documents (with boilerplate and markup defects).
    pub html: Option<String>,
    /// Generator ground truth for evaluation.
    pub gold: DocumentGold,
}

impl Document {
    /// The raw size in bytes as stored (HTML if present, else body) — the
    /// quantity Table 3 sums into GB.
    pub fn raw_len(&self) -> usize {
        self.html.as_deref().map_or(self.body.len(), str::len)
    }

    /// The text the analysis pipeline starts from (HTML for web docs).
    pub fn raw_text(&self) -> &str {
        self.html.as_deref().unwrap_or(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_properties() {
        assert_eq!(CorpusKind::all().len(), 4);
        assert_eq!(CorpusKind::Pmc.paper_stats().1, 250_440);
    }

    #[test]
    fn raw_len_prefers_html() {
        let doc = Document {
            id: 1,
            kind: CorpusKind::RelevantWeb,
            url: Some("http://x.example/p".into()),
            title: "t".into(),
            body: "short".into(),
            html: Some("<html>much longer content</html>".into()),
            gold: DocumentGold::default(),
        };
        assert_eq!(doc.raw_len(), doc.html.as_ref().unwrap().len());
        assert!(doc.raw_text().starts_with("<html>"));
    }
}
