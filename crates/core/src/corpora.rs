//! Assembling the four study corpora and converting them to flow records.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use websift_corpus::{CorpusKind, Document, Generator, Lexicon};
use websift_crawler::{CrawlReport, CrawledPage};
use websift_flow::{Record, Value};

/// Document counts per corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CorpusScale {
    pub relevant: usize,
    pub irrelevant: usize,
    pub medline: usize,
    pub pmc: usize,
}

impl CorpusScale {
    /// The paper's Table-3 counts.
    pub fn paper() -> CorpusScale {
        CorpusScale {
            relevant: 4_233_523,
            irrelevant: 17_704_365,
            medline: 21_686_397,
            pmc: 250_440,
        }
    }

    /// Paper counts divided by `factor` (at least 1 document each).
    pub fn paper_scaled(factor: usize) -> CorpusScale {
        let p = CorpusScale::paper();
        CorpusScale {
            relevant: (p.relevant / factor).max(1),
            irrelevant: (p.irrelevant / factor).max(1),
            medline: (p.medline / factor).max(1),
            pmc: (p.pmc / factor).max(1),
        }
    }

    /// A small scale for tests.
    pub fn tiny() -> CorpusScale {
        CorpusScale {
            relevant: 12,
            irrelevant: 20,
            medline: 25,
            pmc: 4,
        }
    }

    pub fn for_kind(&self, kind: CorpusKind) -> usize {
        match kind {
            CorpusKind::RelevantWeb => self.relevant,
            CorpusKind::IrrelevantWeb => self.irrelevant,
            CorpusKind::Medline => self.medline,
            CorpusKind::Pmc => self.pmc,
        }
    }
}

/// The four corpora.
pub struct Corpora {
    pub by_kind: HashMap<CorpusKind, Vec<Document>>,
}

impl Corpora {
    /// Generates all four corpora over a shared lexicon.
    pub fn generate(scale: CorpusScale, lexicon: Arc<Lexicon>, seed: u64) -> Corpora {
        let mut by_kind = HashMap::new();
        for kind in CorpusKind::all() {
            let generator = Generator::with_lexicon(kind, seed ^ kind as u64, lexicon.clone());
            by_kind.insert(kind, generator.documents(scale.for_kind(kind)));
        }
        Corpora { by_kind }
    }

    pub fn get(&self, kind: CorpusKind) -> &[Document] {
        &self.by_kind[&kind]
    }

    /// Total documents.
    pub fn len(&self) -> usize {
        self.by_kind.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the two web corpora with the output of an actual focused
    /// crawl (the end-to-end path: crawl → corpora → analysis).
    pub fn adopt_crawl(&mut self, report: &CrawlReport) {
        for (kind, pages) in [
            (CorpusKind::RelevantWeb, &report.relevant),
            (CorpusKind::IrrelevantWeb, &report.irrelevant),
        ] {
            self.by_kind.insert(kind, documents_from_pages(pages, kind, 0));
        }
    }
}

/// Converts crawled pages into `kind` documents numbered `first_id..` in
/// acceptance order, the page's net text as body. The one page →
/// document mapping: a live session converts each round's delta with
/// `first_id` = pages already delivered, and a batch run the cumulative
/// crawl from 0, and incremental ≡ batch only while both get the same
/// ids.
pub fn documents_from_pages(
    pages: &[CrawledPage],
    kind: CorpusKind,
    first_id: u64,
) -> Vec<Document> {
    pages
        .iter()
        .zip(first_id..)
        .map(|(p, id)| Document {
            id,
            kind,
            url: Some(p.url.to_string()),
            title: String::new(),
            body: p.net_text.clone(),
            html: None,
            gold: Default::default(),
        })
        .collect()
}

/// Converts documents into flow records. Web documents carry their raw
/// HTML in `text` (the pipeline's web stages clean it); Medline/PMC carry
/// plain text, matching "running the same pipeline (without the
/// web-related tasks)".
pub fn documents_to_records(docs: &[Document]) -> Vec<Record> {
    docs.iter()
        .map(|d| {
            let mut r = Record::new();
            r.set("id", d.id as i64);
            r.set("corpus", d.kind.name());
            r.set("text", d.raw_text());
            if let Some(url) = &d.url {
                r.set("url", url.as_str());
            }
            r
        })
        .collect()
}

/// Extracts the corpus name a record belongs to.
pub fn record_corpus(r: &Record) -> Option<&str> {
    r.get("corpus").and_then(Value::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_corpus::LexiconScale;

    fn corpora() -> Corpora {
        Corpora::generate(
            CorpusScale::tiny(),
            Arc::new(Lexicon::generate(LexiconScale::tiny())),
            5,
        )
    }

    #[test]
    fn generates_all_four() {
        let c = corpora();
        assert_eq!(c.get(CorpusKind::Medline).len(), 25);
        assert_eq!(c.get(CorpusKind::Pmc).len(), 4);
        assert_eq!(c.len(), 12 + 20 + 25 + 4);
    }

    #[test]
    fn paper_scale_counts() {
        let s = CorpusScale::paper();
        assert_eq!(s.medline, 21_686_397);
        let scaled = CorpusScale::paper_scaled(1000);
        assert_eq!(scaled.pmc, 250);
        assert!(CorpusScale::paper_scaled(usize::MAX).relevant >= 1);
    }

    #[test]
    fn records_carry_corpus_and_text() {
        let c = corpora();
        let recs = documents_to_records(c.get(CorpusKind::RelevantWeb));
        assert_eq!(recs.len(), 12);
        assert_eq!(record_corpus(&recs[0]), Some("Relevant crawl"));
        assert!(recs[0].text().unwrap().contains('<'), "web records carry HTML");
        let recs = documents_to_records(c.get(CorpusKind::Medline));
        assert!(!recs[0].text().unwrap().contains('<'));
    }

    #[test]
    fn adopt_crawl_replaces_web_corpora() {
        use websift_crawler::{CrawlReport, CrawledPage};
        use websift_web::Url;
        let mut c = corpora();
        let mut report = CrawlReport::default();
        report.relevant.push(CrawledPage {
            url: Url::new("x.example", "/1"),
            net_text: "net text".into(),
            raw_bytes: 100,
            classified_relevant: true,
            log_odds: 1.0,
            gold_relevant: Some(true),
        });
        c.adopt_crawl(&report);
        assert_eq!(c.get(CorpusKind::RelevantWeb).len(), 1);
        assert!(c.get(CorpusKind::IrrelevantWeb).is_empty());
        assert_eq!(c.get(CorpusKind::RelevantWeb)[0].body, "net text");
    }
}
