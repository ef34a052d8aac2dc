//! Naive Bayes relevance classifier (bag-of-words).
//!
//! The focused crawler "use[s] a Naive Bayes algorithm due to its
//! robustness with respect to class imbalance ... and its ability to update
//! its model incrementally". The model here is multinomial NB over
//! lower-cased word counts with Laplace smoothing, an adjustable decision
//! threshold on the log-odds (the paper's classifier "is geared towards
//! high precision"), and incremental `update` support.

use std::collections::HashMap;

use websift_resilience::codec::presize;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

/// Class labels: `true` = relevant (biomedical), `false` = irrelevant.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayes {
    /// word -> its counts and the update that last changed them
    word_counts: HashMap<String, WordCounts>,
    /// total word tokens per class
    class_tokens: [u64; 2],
    /// documents per class
    class_docs: [u64; 2],
    /// decision threshold on log-odds (higher = more precision, less recall)
    threshold: f64,
    /// `update` calls so far: the model's cursor in a crawl frame
    updates: u64,
}

/// One word's per-class counts, stamped with the [`NaiveBayes::update`]
/// (1-based) that last changed them, so a frame can carry the words
/// changed since a cursor.
#[derive(Debug, Clone, Copy, Default)]
struct WordCounts {
    /// [irrelevant count, relevant count]
    counts: [u64; 2],
    touched: u64,
}

/// A scored prediction.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    pub relevant: bool,
    /// log P(relevant | doc) - log P(irrelevant | doc) (unnormalized).
    pub log_odds: f64,
}

/// The words of `text` as written: alphanumeric runs of two bytes or more.
fn raw_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric()).filter(|w| w.len() >= 2)
}

fn words(text: &str) -> impl Iterator<Item = String> + '_ {
    raw_words(text).map(str::to_lowercase)
}


/// `word.to_lowercase()`, written into `buf`: ASCII byte by byte, anything
/// else through `str::to_lowercase`, which knows the final-sigma rule.
fn lowercase_into<'b>(word: &str, buf: &'b mut String) -> &'b str {
    buf.clear();
    if word.is_ascii() {
        buf.push_str(word);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&word.to_lowercase());
    }
    buf
}

impl NaiveBayes {
    pub fn new() -> NaiveBayes {
        NaiveBayes::default()
    }

    /// Sets the decision threshold on the log-odds. Positive values trade
    /// recall for precision (the paper's configuration); negative values do
    /// the opposite (the §5 "tune the classifier towards more recall"
    /// alternative).
    pub fn with_threshold(mut self, threshold: f64) -> NaiveBayes {
        self.threshold = threshold;
        self
    }

    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// `update` calls so far: the cursor [`NaiveBayes::write_since`] takes.
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// Writes the model as changed since `since` updates: class totals,
    /// threshold and update count whole, then, sorted, every word an
    /// update after `since` changed — all of them when `since` is 0, none
    /// (and no pass over them) when no update came since.
    pub(crate) fn write_since(&self, since: u64, w: &mut Writer) {
        self.class_tokens.encode(w);
        self.class_docs.encode(w);
        w.f64(self.threshold);
        w.u64(self.updates);
        let mut changed: Vec<(&String, &WordCounts)> = if since == 0 {
            self.word_counts.iter().collect()
        } else if self.updates > since {
            self.word_counts.iter().filter(|(_, c)| c.touched > since).collect()
        } else {
            Vec::new()
        };
        changed.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(changed.len());
        for (word, c) in changed {
            w.str(word);
            c.counts.encode(w);
        }
    }

    /// Applies what [`NaiveBayes::write_since`] wrote: totals, threshold
    /// and update count are set, and each word carried takes its counts,
    /// stamped with that update count.
    pub(crate) fn apply(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.class_tokens = Snapshot::decode(r)?;
        self.class_docs = Snapshot::decode(r)?;
        self.threshold = r.f64()?;
        self.updates = r.u64()?;
        let n = r.usize()?;
        self.word_counts.reserve(presize::<(String, [u64; 2])>(n, r));
        for _ in 0..n {
            let word = r.str()?;
            let counts = Snapshot::decode(r)?;
            self.word_counts.insert(word, WordCounts { counts, touched: self.updates });
        }
        Ok(())
    }

    /// Incrementally adds one labeled document.
    pub fn update(&mut self, text: &str, relevant: bool) {
        let c = relevant as usize;
        self.updates += 1;
        self.class_docs[c] += 1;
        for w in words(text) {
            let slot = self.word_counts.entry(w).or_default();
            slot.counts[c] += 1;
            slot.touched = self.updates;
            self.class_tokens[c] += 1;
        }
    }

    /// Trains from scratch on labeled documents.
    pub fn train<'a, I>(docs: I) -> NaiveBayes
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut nb = NaiveBayes::new();
        for (text, label) in docs {
            nb.update(text, label);
        }
        nb
    }

    /// Scores a document. Words are lower-cased into one reused buffer and
    /// looked up by `&str`, and an unseen word adds a term computed once;
    /// every term and the order they are summed in are the reference's
    /// (`predict_reference` in the tests), so the log-odds bits are too.
    pub fn predict(&self, text: &str) -> Prediction {
        let vocab = self.word_counts.len().max(1) as f64;
        let total_docs = (self.class_docs[0] + self.class_docs[1]).max(1) as f64;
        let mut log_odds = ((self.class_docs[1] as f64 + 0.5) / total_docs).ln()
            - ((self.class_docs[0] as f64 + 0.5) / total_docs).ln();
        let tokens = [self.class_tokens[0] as f64 + vocab, self.class_tokens[1] as f64 + vocab];
        let term = |counts: [u64; 2]| {
            let p_rel = (counts[1] as f64 + 1.0) / tokens[1];
            let p_irr = (counts[0] as f64 + 1.0) / tokens[0];
            p_rel.ln() - p_irr.ln()
        };
        let unseen = term([0, 0]);
        let mut buf = String::new();
        for word in raw_words(text) {
            log_odds += self
                .word_counts
                .get(lowercase_into(word, &mut buf))
                .map_or(unseen, |c| term(c.counts));
        }
        Prediction {
            relevant: log_odds > self.threshold,
            log_odds,
        }
    }

    /// The scorer `predict` replaced: a `to_lowercase` `String` per word,
    /// both logarithms for every word.
    #[cfg(test)]
    fn predict_reference(&self, text: &str) -> Prediction {
        let vocab = self.word_counts.len().max(1) as f64;
        let total_docs = (self.class_docs[0] + self.class_docs[1]).max(1) as f64;
        let mut log_odds = ((self.class_docs[1] as f64 + 0.5) / total_docs).ln()
            - ((self.class_docs[0] as f64 + 0.5) / total_docs).ln();
        for w in words(text) {
            let counts = self.word_counts.get(&w).map_or([0, 0], |c| c.counts);
            let p_rel = (counts[1] as f64 + 1.0) / (self.class_tokens[1] as f64 + vocab);
            let p_irr = (counts[0] as f64 + 1.0) / (self.class_tokens[0] as f64 + vocab);
            log_odds += p_rel.ln() - p_irr.ln();
        }
        Prediction {
            relevant: log_odds > self.threshold,
            log_odds,
        }
    }

    /// Convenience boolean prediction.
    pub fn is_relevant(&self, text: &str) -> bool {
        self.predict(text).relevant
    }
}

/// Trains the default focus classifier the way the paper did: "a set of
/// randomly selected abstracts from Medline, considered as relevant, and an
/// equal-sized set of randomly selected English documents taken from the
/// common crawl corpus, considered as irrelevant" — here the Medline and
/// irrelevant-web generators. The deliberate bias (training abstracts look
/// nothing like relevant *web* pages) is inherited, as §4.3.1 discusses.
pub fn train_focus_classifier(docs_per_class: usize, threshold: f64, seed: u64) -> NaiveBayes {
    use websift_corpus::{CorpusKind, Generator};
    let relevant = Generator::new(CorpusKind::Medline, seed).documents(docs_per_class);
    let irrelevant =
        Generator::new(CorpusKind::IrrelevantWeb, seed ^ 0xF00D).documents(docs_per_class);
    NaiveBayes::train(
        relevant
            .iter()
            .map(|d| (d.body.as_str(), true))
            .chain(irrelevant.iter().map(|d| (d.body.as_str(), false))),
    )
    .with_threshold(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> NaiveBayes {
        let rel = [
            "the gene mutation causes disease in patients",
            "drug treatment for cancer therapy and tumors",
            "clinical trial shows the drug reduces tumor growth",
            "disease symptoms improve with gene therapy treatment",
        ];
        let irr = [
            "the football team won the game last night",
            "cheap flights and travel deals for summer",
            "new phone review with camera samples",
            "stock market prices fell on monday trading",
        ];
        NaiveBayes::train(
            rel.iter()
                .map(|&t| (t, true))
                .chain(irr.iter().map(|&t| (t, false))),
        )
    }

    #[test]
    fn classifies_obvious_documents() {
        let nb = toy_model();
        assert!(nb.is_relevant("gene therapy for cancer patients"));
        assert!(!nb.is_relevant("football game travel deals"));
    }

    #[test]
    fn log_odds_sign_matches_prediction() {
        let nb = toy_model();
        let p = nb.predict("tumor drug trial");
        assert!(p.relevant);
        assert!(p.log_odds > 0.0);
    }

    #[test]
    fn threshold_trades_recall_for_precision() {
        let nb_low = toy_model().with_threshold(-5.0);
        let nb_high = toy_model().with_threshold(8.0);
        // A weakly-medical doc: accepted by the recall-oriented model,
        // rejected by the precision-oriented one.
        let borderline = "the patients watched the football game";
        assert!(nb_low.is_relevant(borderline) || !nb_high.is_relevant(borderline));
        // strongly relevant accepted by both? high threshold may reject
        // weak docs but strong evidence passes
        let strong = "gene mutation cancer tumor drug therapy disease clinical treatment";
        assert!(nb_low.is_relevant(strong));
    }

    #[test]
    fn incremental_update_changes_predictions() {
        let mut nb = toy_model();
        let text = "quantum flux capacitors and warp drives";
        let before = nb.predict(text).log_odds;
        for _ in 0..20 {
            nb.update(text, true);
        }
        let after = nb.predict(text).log_odds;
        assert!(after > before);
    }

    #[test]
    fn empty_model_is_neutral() {
        let nb = NaiveBayes::new();
        let p = nb.predict("anything at all");
        assert!((p.log_odds).abs() < 1e-9);
    }

    #[test]
    fn empty_text_uses_priors_only() {
        let mut nb = NaiveBayes::new();
        for _ in 0..9 {
            nb.update("medical words here", true);
        }
        nb.update("other words", false);
        let p = nb.predict("");
        assert!(p.log_odds > 0.0, "prior should favor the majority class");
    }

    #[test]
    fn robust_to_class_imbalance() {
        // 50:1 imbalance, the regime the paper chose NB for.
        let mut nb = NaiveBayes::new();
        for i in 0..200 {
            nb.update(&format!("shopping deals offer {i}"), false);
        }
        for _ in 0..4 {
            nb.update("gene cancer tumor therapy", true);
        }
        assert!(nb.is_relevant("gene tumor therapy for cancer"));
        assert!(!nb.is_relevant("shopping deals offer today"));
    }

    /// `predict` against `predict_reference`, log-odds compared bit for
    /// bit: every page of a generated web (markup and net text), ASCII
    /// and non-ASCII words (final sigma, `İ`, the Kelvin sign, `ß`,
    /// digits) alone and mixed, on the trained focus model before and
    /// after self-training updates.
    #[test]
    fn differential_predict_equals_the_reference_bit_for_bit() {
        use crate::boilerplate::BoilerplateDetector;
        use websift_web::{PageId, SimulatedWeb, WebGraph, WebGraphConfig};

        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let boilerplate = BoilerplateDetector::default();
        let mut texts: Vec<String> = Vec::new();
        for p in 0..web.graph().num_pages() as u32 {
            let Ok(resp) = web.fetch(&web.graph().url_of(PageId(p))) else { continue };
            let html = String::from_utf8_lossy(&resp.body).into_owned();
            texts.extend(boilerplate.extract(&html).ok());
            texts.push(html);
        }
        assert!(texts.len() > 50, "the generated web yielded {} texts", texts.len());
        let hostile = [
            "ΟΔΟΣ ΣΟΦΟΣ Σ σ ς", "İSTANBUL İi", "\u{212A}ELVIN \u{212A}", "STRAẞE Straße ß",
            "BRCA1 p53 TP53 il-6", "Ǆungla ǅ ǆ", "ÀÉÎÕÜ àéîõü", "日本語 テキスト", "x y z", "",
        ];
        let mut mixed = String::new();
        for (i, word) in hostile.iter().enumerate() {
            mixed.push_str(word);
            mixed.push(if i % 2 == 0 { ' ' } else { '-' });
            texts.push(word.to_string());
            texts.push(mixed.clone());
        }

        let mut model = train_focus_classifier(60, 2.0, 4);
        for round in 0..2 {
            for text in &texts {
                let (fast, reference) = (model.predict(text), model.predict_reference(text));
                assert_eq!(
                    fast.log_odds.to_bits(),
                    reference.log_odds.to_bits(),
                    "model {round}: {text:?}"
                );
                assert_eq!(fast.relevant, reference.relevant);
            }
            for (i, text) in texts.iter().enumerate().step_by(7) {
                model.update(text, i % 2 == 0);
            }
        }
    }
}

