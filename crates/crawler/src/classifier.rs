//! Naive Bayes relevance classifier (bag-of-words).
//!
//! The focused crawler "use[s] a Naive Bayes algorithm due to its
//! robustness with respect to class imbalance ... and its ability to update
//! its model incrementally". The model here is multinomial NB over
//! lower-cased word counts with Laplace smoothing, an adjustable decision
//! threshold on the log-odds (the paper's classifier "is geared towards
//! high precision"), and incremental `update` support.

use std::collections::HashMap;

/// Class labels: `true` = relevant (biomedical), `false` = irrelevant.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayes {
    /// word -> [irrelevant count, relevant count]
    word_counts: HashMap<String, [u64; 2]>,
    /// total word tokens per class
    class_tokens: [u64; 2],
    /// documents per class
    class_docs: [u64; 2],
    /// decision threshold on log-odds (higher = more precision, less recall)
    threshold: f64,
}

/// The checkpointable decomposition of a [`NaiveBayes`] model: word
/// counts, per-class token totals, per-class document totals, threshold.
pub type ModelParts<'a> = (&'a HashMap<String, [u64; 2]>, [u64; 2], [u64; 2], f64);

/// A scored prediction.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    pub relevant: bool,
    /// log P(relevant | doc) - log P(irrelevant | doc) (unnormalized).
    pub log_odds: f64,
}

fn words(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() >= 2)
        .map(str::to_lowercase)
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

    /// Decomposes the model for checkpointing: word counts, per-class
    /// token totals, per-class document totals, and the threshold.
    pub fn snapshot_parts(&self) -> ModelParts<'_> {
        (&self.word_counts, self.class_tokens, self.class_docs, self.threshold)
    }

    /// Rebuilds a model from checkpointed parts (inverse of
    /// [`NaiveBayes::snapshot_parts`]).
    pub fn from_parts(
        word_counts: HashMap<String, [u64; 2]>,
        class_tokens: [u64; 2],
        class_docs: [u64; 2],
        threshold: f64,
    ) -> NaiveBayes {
        NaiveBayes { word_counts, class_tokens, class_docs, threshold }
    }

    /// Incrementally adds one labeled document.
    pub fn update(&mut self, text: &str, relevant: bool) {
        let c = relevant as usize;
        self.class_docs[c] += 1;
        for w in words(text) {
            self.word_counts.entry(w).or_insert([0, 0])[c] += 1;
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

    /// Scores a document.
    pub fn predict(&self, text: &str) -> Prediction {
        let vocab = self.word_counts.len().max(1) as f64;
        let total_docs = (self.class_docs[0] + self.class_docs[1]).max(1) as f64;
        let mut log_odds = ((self.class_docs[1] as f64 + 0.5) / total_docs).ln()
            - ((self.class_docs[0] as f64 + 0.5) / total_docs).ln();
        for w in words(text) {
            let counts = self.word_counts.get(&w).copied().unwrap_or([0, 0]);
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
}
