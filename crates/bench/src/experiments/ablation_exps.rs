//! The design ablations DESIGN.md calls out, timed on real execution and
//! held to agreement where the arms are meant to be equivalent:
//!
//! 1. Aho-Corasick automaton vs naive per-term scanning for dictionary
//!    NER — on corpus text, and on the hit-dense / hit-sparse haystacks
//!    that bracket the automaton's start-byte prefilter (sparse text
//!    never leaves the root state, so the scan is one byte-table sweep);
//! 2. filter ordering (annotate-then-filter vs filter-then-annotate) and
//!    the optimizer rewriting the former into the latter;
//! 3. CRF context features on/off (a quality-for-speed trade: the arms
//!    may legitimately disagree);
//! 4. the tokenizer byte scan on corpus text vs plain ASCII words.
//!
//! [`ablations`] panics when arms that must agree do not.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use super::scaling_exps::time_us;
use crate::report::ExperimentResult;
use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::packages::resources::labeled_to_example;
use websift_flow::{
    optimize, CostModel, ExecutionConfig, Executor, LogicalPlan, Operator, Package, Record,
};
use websift_ner::crf::{CrfConfig, CrfTagger};
use websift_ner::{AhoCorasick, EntityType};
use websift_resilience::checkpoint::encode_to_vec;
use websift_resilience::codec::digest;

/// One arm of an ablation: name, µs per run, what the arm computed.
type Arm = (&'static str, f64, String);

/// Times `f` and renders what it returned through `outcome`.
fn arm<T>(name: &'static str, mut f: impl FnMut() -> T, outcome: impl Fn(T) -> String) -> Arm {
    let us = time_us(|| drop(black_box(f())));
    (name, us, outcome(f()))
}

/// Count plus order-independent digest of a set of byte spans.
fn spans_outcome(mut spans: Vec<(usize, usize)>) -> String {
    spans.sort_unstable();
    format!("{} matches, spans {:016x}", spans.len(), digest(&encode_to_vec(&spans)))
}

/// Relevant-web text over `lexicon`'s vocabulary, so the dictionary and
/// the CRF trained on it have something to find.
fn corpus_text(lexicon: &Arc<Lexicon>, chars: usize) -> String {
    let generator = Generator::with_lexicon(CorpusKind::RelevantWeb, 21, Arc::clone(lexicon));
    let mut pool = String::new();
    for doc in generator.documents(8) {
        pool.push_str(&doc.body);
        pool.push(' ');
    }
    if let Some((end, _)) = pool.char_indices().nth(chars) {
        pool.truncate(end);
    }
    pool
}

/// `words` space-terminated words, the `i`-th chosen by `word`.
fn haystack<'a>(words: usize, word: impl Fn(usize) -> &'a str) -> String {
    (0..words).flat_map(|i| [word(i), " "]).collect()
}

/// A haystack where the needle terms occur every fourth word (hit-dense):
/// prefilters can barely skip, so this regime measures their overhead.
fn dense_haystack(terms: &[&str], words: usize) -> String {
    haystack(words, |i| if i % 4 == 0 { terms[i / 4 % terms.len()] } else { "filler" })
}

/// Plain lowercase filler that never contains a needle (hit-sparse): the
/// regime the start-byte skipping exists for.
fn sparse_haystack(words: usize) -> String {
    haystack(words, |i| ["lorem", "ipsum", "dolor", "sit"][i % 4])
}

/// Every (possibly overlapping) occurrence of every pattern, one
/// `str::find` sweep per pattern — what the automaton replaces.
fn naive_scan(patterns: &[String], text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for p in patterns {
        let step = p.chars().next().map_or(1, char::len_utf8);
        let mut at = 0usize;
        while let Some(pos) = text[at..].find(p.as_str()) {
            spans.push((at + pos, at + pos + p.len()));
            at += pos + step;
        }
    }
    spans
}

/// Ablation 1: automaton vs naive scan over one haystack.
fn dict_matching(automaton: &AhoCorasick, patterns: &[String], text: &str) -> Vec<Arm> {
    vec![
        arm(
            "aho_corasick",
            || automaton.find_all(text),
            |ms| spans_outcome(ms.iter().map(|m| (m.start, m.end)).collect()),
        ),
        arm("naive_scan", || naive_scan(patterns, text), spans_outcome),
    ]
}

/// Ablation 2: where the selective filter sits relative to the expensive
/// annotator, hand-ordered both ways and optimizer-rewritten.
fn filter_order(docs: usize) -> Vec<Arm> {
    let input: Vec<Record> = (0..docs)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i);
            r.set("text", format!("document {i} {}", "tokens ".repeat(i % 50)));
            r
        })
        .collect();
    let expensive_map = || {
        Operator::map("expensive-annotate", Package::Ie, |mut r| {
            // deliberately costly UDF
            let n = r.text().map(|t| t.split_whitespace().count()).unwrap_or(0);
            let acc = (0..n as u64 * 50).fold(0u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
            r.set("annotated", acc as i64);
            r
        })
        .with_reads(&["text"])
        .with_writes(&["annotated"])
        .with_cost(CostModel { us_per_char: 5.0, ..CostModel::default() })
    };
    let selective_filter = || {
        Operator::filter("keep-short", Package::Base, |r| r.text().is_some_and(|t| t.len() < 120))
            .with_reads(&["text"])
    };
    let build = |filter_first: bool| {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let mut ops = [expensive_map(), selective_filter()];
        if filter_first {
            ops.reverse();
        }
        let last = ops.into_iter().fold(src, |at, op| plan.add(at, op).expect("static plan"));
        plan.sink(last, "out").expect("static plan");
        plan
    };
    let (annotate_first, filter_first, mut rewritten) = (build(false), build(true), build(false));
    assert!(!optimize(&mut rewritten).is_empty(), "optimizer should pull the filter forward");

    let run = |plan: &LogicalPlan| {
        let inputs = HashMap::from([("docs".to_string(), input.clone())]);
        let mut out =
            Executor::new(ExecutionConfig::local(4)).run(plan, inputs).expect("ablation flow");
        out.sinks.remove("out").expect("out sink")
    };
    let outcome = |sink: Vec<Record>| {
        format!("{} records, sink {:016x}", sink.len(), digest(&encode_to_vec(&sink)))
    };
    vec![
        arm("annotate_then_filter", || run(&annotate_first), outcome),
        arm("filter_then_annotate", || run(&filter_first), outcome),
        arm("optimizer_rewritten", || run(&rewritten), outcome),
    ]
}

/// Ablation 3: CRF with and without sentence-context features.
fn crf_features(lexicon: &Arc<Lexicon>, sentences: usize) -> Vec<Arm> {
    let generator = Generator::with_lexicon(CorpusKind::Medline, 4, Arc::clone(lexicon));
    let examples: Vec<_> = generator
        .labeled_sentences(sentences)
        .iter()
        .map(|ls| labeled_to_example(ls, EntityType::Gene))
        .collect();
    let train = |context_features: bool| {
        let config = CrfConfig { dim: 1 << 14, epochs: 2, context_features, ..CrfConfig::default() };
        CrfTagger::train(EntityType::Gene, &examples, config)
    };
    let (light, heavy) = (train(false), train(true));
    let text = corpus_text(lexicon, 800);
    let outcome = |mentions: Vec<_>| format!("{} mentions", mentions.len());
    vec![
        arm("without_context", || light.tag(&text), outcome),
        arm("with_context", || heavy.tag(&text), outcome),
    ]
}

/// Appends one ablation's rows.
///
/// # Panics
/// When `must_agree` and two arms computed different things.
fn push_ablation(result: &mut ExperimentResult, name: &str, must_agree: bool, arms: Vec<Arm>) {
    let (first, first_us, first_outcome) = &arms[0];
    for (arm, us, outcome) in &arms {
        assert!(
            !must_agree || outcome == first_outcome,
            "ablation '{name}': {arm} computed [{outcome}] but {first} computed [{first_outcome}]"
        );
        result.row(&[
            name.to_string(),
            arm.to_string(),
            format!("{us:.1}"),
            format!("{:.2}x", us / first_us.max(0.001)),
            outcome.clone(),
        ]);
    }
}

/// Runs every ablation and renders one table; `quick` shrinks the inputs.
///
/// # Panics
/// When the arms of a must-agree ablation computed different things.
pub fn ablations(quick: bool) -> ExperimentResult {
    let (chars, words, docs, sentences) =
        if quick { (4_000, 600, 120, 20) } else { (20_000, 3_300, 600, 60) };
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::tiny()));
    let mut patterns: Vec<String> = lexicon.genes().iter().map(|g| g.to_lowercase()).collect();
    patterns.sort_unstable();
    patterns.dedup();
    let automaton = AhoCorasick::new(&patterns, false);
    let dict_terms: Vec<&str> = patterns.iter().take(8).map(String::as_str).collect();

    let text = corpus_text(&lexicon, chars);
    let lower = text.to_lowercase();
    let sparse = sparse_haystack(words);
    let dict_dense = dense_haystack(&dict_terms, words);

    let mut result = ExperimentResult::new(
        "Ablations",
        "Design ablations, wall-clock µs per run",
        &["ablation", "arm", "µs/run", "vs first arm", "computed"],
    );
    for (regime, hay) in [("corpus text", &lower), ("hit-dense", &dict_dense), ("hit-sparse", &sparse)] {
        let name = format!("dictionary matching, {regime}");
        push_ablation(&mut result, &name, true, dict_matching(&automaton, &patterns, hay));
    }
    push_ablation(&mut result, "filter order", true, filter_order(docs));
    push_ablation(&mut result, "CRF context features", false, crf_features(&lexicon, sentences));
    let tokens = |tokens: Vec<_>| format!("{} tokens", tokens.len());
    let tokenizer = vec![
        arm("corpus_text", || websift_text::tokenize(&text), tokens),
        arm("plain_ascii_words", || websift_text::tokenize(&sparse), tokens),
    ];
    push_ablation(&mut result, "tokenizer byte scan", false, tokenizer);
    result.note(
        "every ablation except the CRF feature trade and the tokenizer regimes requires its \
         arms to compute the same thing (equal match spans / equal `out` sink) and the run \
         aborts otherwise; µs/run is host-dependent, the orderings are the signal",
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_where_they_must() {
        // `ablations` itself panics on a disagreement; what is left to
        // check is that the regimes are what they claim.
        let result = ablations(true);
        assert_eq!(result.rows.len(), 13);
        let computed = |ablation: &str| {
            let row = result.rows.iter().find(|r| r[0] == ablation);
            row.unwrap_or_else(|| panic!("no row for {ablation}"))[4].as_str()
        };
        assert!(!computed("dictionary matching, hit-dense").starts_with("0 matches"));
        assert!(computed("dictionary matching, hit-sparse").starts_with("0 matches"));
        // the filter keeps a strict, non-empty subset of the 120 documents
        let kept = computed("filter order");
        assert!(!kept.starts_with("0 records") && !kept.starts_with("120 records"), "{kept}");
    }

    #[test]
    #[should_panic(expected = "b computed [2] but a computed [1]")]
    fn disagreeing_arms_abort_the_table() {
        let mut result = ExperimentResult::new("T", "t", &["ablation", "arm", "us", "vs", "computed"]);
        let arms = vec![("a", 1.0, "1".to_string()), ("b", 1.0, "2".to_string())];
        push_ablation(&mut result, "x", true, arms);
    }
}
