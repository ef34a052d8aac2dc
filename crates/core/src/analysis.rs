//! Linguistic analysis: per-document measurements from flow output and
//! cross-corpus statistics (the §4.3.1 comparisons).

use serde::Serialize;
use std::collections::HashMap;
use websift_flow::{Record, Value};
use websift_stats::{mann_whitney_u, MannWhitneyResult, Summary};

/// Per-document linguistic measurements extracted from an annotated
/// record.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DocMeasurements {
    /// Net-text length in characters.
    pub chars: usize,
    pub sentences: usize,
    pub mean_sentence_chars: f64,
    pub negations: usize,
    pub pronouns: usize,
    pub pronouns_by_class: HashMap<String, usize>,
    pub parentheses: usize,
    pub pos_errors: usize,
}

fn array_len(r: &Record, field: &str) -> usize {
    r.get(field).and_then(Value::array_len).unwrap_or(0)
}

/// Extracts measurements from one annotated record.
pub fn measure(r: &Record) -> DocMeasurements {
    let chars = r.text().map(|t| t.chars().count()).unwrap_or(0);
    let lens: Vec<f64> = r
        .get("sentences")
        .and_then(Value::spans)
        .into_iter()
        .flatten()
        .map(|s| s.end as f64 - s.start as f64)
        .collect();
    let mean_len = if lens.is_empty() { 0.0 } else { lens.iter().sum::<f64>() / lens.len() as f64 };
    let mut by_class: HashMap<String, usize> = HashMap::new();
    if let Some(arr) = r.get("pronouns").and_then(Value::as_array) {
        for p in arr {
            if let Some(class) = p.as_object().and_then(|o| o.get("class")).and_then(Value::as_str)
            {
                *by_class.entry(class.to_string()).or_insert(0) += 1;
            }
        }
    }
    DocMeasurements {
        chars,
        sentences: lens.len(),
        mean_sentence_chars: mean_len,
        negations: array_len(r, "negation"),
        pronouns: array_len(r, "pronouns"),
        pronouns_by_class: by_class,
        parentheses: array_len(r, "parens"),
        pos_errors: r.get("pos_errors").and_then(Value::as_int).unwrap_or(0) as usize,
    }
}

/// Aggregated linguistic statistics of one corpus (one Fig.-6 panel row).
#[derive(Debug, Clone, Serialize)]
pub struct CorpusLinguistics {
    pub documents: usize,
    pub doc_length: Option<Summary>,
    pub sentence_length: Option<Summary>,
    /// Negations per document, normalized per 1000 sentences.
    pub negation_per_1000_sentences: f64,
    pub pronouns_per_1000_sentences: f64,
    pub parens_per_1000_sentences: f64,
    /// Raw per-document samples for significance testing.
    #[serde(skip)]
    pub doc_length_samples: Vec<f64>,
    #[serde(skip)]
    pub sentence_length_samples: Vec<f64>,
    #[serde(skip)]
    pub negation_rate_samples: Vec<f64>,
    #[serde(skip)]
    pub pronoun_rate_samples: Vec<f64>,
    #[serde(skip)]
    pub paren_rate_samples: Vec<f64>,
}

/// Aggregates per-record measurements into corpus statistics.
pub fn aggregate(records: &[Record]) -> CorpusLinguistics {
    let measurements: Vec<DocMeasurements> = records.iter().map(measure).collect();
    let doc_lengths: Vec<f64> = measurements.iter().map(|m| m.chars as f64).collect();
    let sentence_lengths: Vec<f64> = measurements
        .iter()
        .filter(|m| m.sentences > 0)
        .map(|m| m.mean_sentence_chars)
        .collect();
    let rate = |n: usize, sents: usize| {
        if sents == 0 {
            0.0
        } else {
            n as f64 * 1000.0 / sents as f64
        }
    };
    let negation_rates: Vec<f64> = measurements
        .iter()
        .map(|m| rate(m.negations, m.sentences))
        .collect();
    let pronoun_rates: Vec<f64> = measurements
        .iter()
        .map(|m| rate(m.pronouns, m.sentences))
        .collect();
    let paren_rates: Vec<f64> = measurements
        .iter()
        .map(|m| rate(m.parentheses, m.sentences))
        .collect();

    let total_sentences: usize = measurements.iter().map(|m| m.sentences).sum();
    let totals = |f: fn(&DocMeasurements) -> usize| -> f64 {
        let total: usize = measurements.iter().map(f).sum();
        rate(total, total_sentences)
    };

    CorpusLinguistics {
        documents: measurements.len(),
        doc_length: Summary::of(&doc_lengths),
        sentence_length: Summary::of(&sentence_lengths),
        negation_per_1000_sentences: totals(|m| m.negations),
        pronouns_per_1000_sentences: totals(|m| m.pronouns),
        parens_per_1000_sentences: totals(|m| m.parentheses),
        doc_length_samples: doc_lengths,
        sentence_length_samples: sentence_lengths,
        negation_rate_samples: negation_rates,
        pronoun_rate_samples: pronoun_rates,
        paren_rate_samples: paren_rates,
    }
}

/// The measures §4.3.1 compares between corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Measure {
    DocumentLength,
    SentenceLength,
    NegationRate,
    PronounRate,
    ParenthesisRate,
}

impl Measure {
    pub fn all() -> [Measure; 5] {
        [
            Measure::DocumentLength,
            Measure::SentenceLength,
            Measure::NegationRate,
            Measure::PronounRate,
            Measure::ParenthesisRate,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Measure::DocumentLength => "document length",
            Measure::SentenceLength => "mean sentence length",
            Measure::NegationRate => "negation incidence",
            Measure::PronounRate => "pronoun incidence",
            Measure::ParenthesisRate => "parenthesis incidence",
        }
    }

    pub fn samples(self, c: &CorpusLinguistics) -> &[f64] {
        match self {
            Measure::DocumentLength => &c.doc_length_samples,
            Measure::SentenceLength => &c.sentence_length_samples,
            Measure::NegationRate => &c.negation_rate_samples,
            Measure::PronounRate => &c.pronoun_rate_samples,
            Measure::ParenthesisRate => &c.paren_rate_samples,
        }
    }
}

/// Mann-Whitney U test between two corpora on one measure (the paper's
/// significance machinery).
pub fn compare(
    a: &CorpusLinguistics,
    b: &CorpusLinguistics,
    measure: Measure,
) -> Option<MannWhitneyResult> {
    mann_whitney_u(measure.samples(a), measure.samples(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_flow::span_annotation;

    fn annotated_record(sents: usize, negs: usize) -> Record {
        let mut r = Record::new();
        let text = "word ".repeat(sents * 10);
        r.set("text", text.trim());
        for i in 0..sents {
            r.push_to("sentences", span_annotation(i * 50, i * 50 + 49, &[]));
        }
        for i in 0..negs {
            r.push_to(
                "negation",
                span_annotation(i * 50, i * 50 + 3, &[("sentence", (i as i64).into())]),
            );
        }
        r.push_to(
            "pronouns",
            span_annotation(0, 2, &[("class", "personal".into())]),
        );
        r
    }

    #[test]
    fn measure_extracts_counts() {
        let m = measure(&annotated_record(4, 2));
        assert_eq!(m.sentences, 4);
        assert_eq!(m.negations, 2);
        assert_eq!(m.pronouns, 1);
        assert_eq!(m.pronouns_by_class["personal"], 1);
        assert!((m.mean_sentence_chars - 49.0).abs() < 1e-9);
    }

    #[test]
    fn measure_of_empty_record() {
        let m = measure(&Record::new());
        assert_eq!(m.sentences, 0);
        assert_eq!(m.chars, 0);
        assert_eq!(m.mean_sentence_chars, 0.0);
    }

    #[test]
    fn aggregate_rates_per_1000() {
        let records: Vec<Record> = (0..10).map(|_| annotated_record(10, 1)).collect();
        let agg = aggregate(&records);
        assert_eq!(agg.documents, 10);
        // 10 negations over 100 sentences = 100 per 1000
        assert!((agg.negation_per_1000_sentences - 100.0).abs() < 1e-9);
        assert!(agg.doc_length.is_some());
    }

    #[test]
    fn compare_detects_separation() {
        let low: Vec<Record> = (0..30).map(|_| annotated_record(10, 0)).collect();
        let high: Vec<Record> = (0..30).map(|_| annotated_record(10, 5)).collect();
        let a = aggregate(&low);
        let b = aggregate(&high);
        let result = compare(&a, &b, Measure::NegationRate).unwrap();
        assert!(result.p_value < 0.01, "p = {}", result.p_value);
        // identical corpora are not significant
        let same = compare(&a, &a, Measure::NegationRate).unwrap();
        assert!(same.p_value > 0.5);
    }

    #[test]
    fn measure_names_cover_all() {
        assert_eq!(Measure::all().len(), 5);
        for m in Measure::all() {
            assert!(!m.name().is_empty());
        }
    }
}
