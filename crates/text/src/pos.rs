//! Order-3 (trigram) Hidden Markov Model part-of-speech tagger.
//!
//! The paper's pipeline uses MedPost, "a Hidden Markov Model of order
//! three, whose runtime is, in principle, linear in the length of the text
//! being analyzed", but which shows "large runtime fluctuations in practice
//! and even occasional crashes, especially when the tagger is applied to
//! very long sentences". This implementation reproduces the architecture —
//! trigram transitions with interpolation smoothing, lexical emissions with
//! a suffix-based unknown-word model, Viterbi decoding — and the failure
//! mode: sentences beyond a configurable token budget are rejected with
//! [`PosError::SentenceTooLong`], the analogue of the original tool's crash.

use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Simplified MedPost-style tag set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[repr(u8)]
pub enum PosTag {
    Noun = 0,
    ProperNoun = 1,
    Verb = 2,
    Adjective = 3,
    Adverb = 4,
    Pronoun = 5,
    Determiner = 6,
    Preposition = 7,
    Conjunction = 8,
    Number = 9,
    Punctuation = 10,
    Modal = 11,
    Participle = 12,
    Other = 13,
}

/// Number of distinct tags.
pub const TAG_COUNT: usize = 14;

impl PosTag {
    pub fn from_index(i: usize) -> PosTag {
        use PosTag::*;
        match i {
            0 => Noun,
            1 => ProperNoun,
            2 => Verb,
            3 => Adjective,
            4 => Adverb,
            5 => Pronoun,
            6 => Determiner,
            7 => Preposition,
            8 => Conjunction,
            9 => Number,
            10 => Punctuation,
            11 => Modal,
            12 => Participle,
            _ => Other,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// All tags, in index order.
    pub fn all() -> [PosTag; TAG_COUNT] {
        std::array::from_fn(PosTag::from_index)
    }
}

/// Errors from tagging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosError {
    /// The sentence exceeds the tagger's token budget. The original
    /// MedPost-class tools crash or OOM here; we fail cleanly so the
    /// data-flow layer can count and skip, as the paper's pipeline had to.
    SentenceTooLong { tokens: usize, limit: usize },
    /// Tagger invoked on an empty token sequence.
    EmptySentence,
}

impl fmt::Display for PosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosError::SentenceTooLong { tokens, limit } => {
                write!(f, "sentence of {tokens} tokens exceeds tagger limit {limit}")
            }
            PosError::EmptySentence => write!(f, "cannot tag an empty sentence"),
        }
    }
}

impl std::error::Error for PosError {}

const BOS: usize = TAG_COUNT; // boundary pseudo-tag for transition contexts
const CONTEXTS: usize = TAG_COUNT + 1;
const MAX_SUFFIX: usize = 4;

/// Interpolation weights for trigram/bigram/unigram transition estimates.
const LAMBDA: (f64, f64, f64) = (0.6, 0.3, 0.1);

/// The trained tagger.
#[derive(Debug, Clone)]
pub struct PosTagger {
    /// log P(t | p2, p1), indexed `[(p2 * CONTEXTS + p1) * TAG_COUNT + t]`.
    trans: Vec<f64>,
    /// log P(w | t) for known (lower-cased) words.
    emit: HashMap<String, [f64; TAG_COUNT]>,
    /// log P(t | suffix) for the unknown-word model.
    suffix: HashMap<String, [f64; TAG_COUNT]>,
    /// log P(t) priors.
    prior: [f64; TAG_COUNT],
    /// Token budget per sentence (the crash threshold).
    max_tokens: usize,
    /// Set on [`PosTagger::pretrained`] and its clones: the model is the
    /// built-in one, which any process can rebuild without the weights.
    pretrained: bool,
}

impl PosTagger {
    /// Trains a tagger from tagged sentences.
    pub fn train(sentences: &[Vec<(String, PosTag)>]) -> PosTagger {
        let mut tri = HashMap::<(usize, usize, usize), u64>::new();
        let mut bi = HashMap::<(usize, usize), u64>::new();
        let mut uni = [0u64; TAG_COUNT];
        let mut emit_counts = HashMap::<String, [u64; TAG_COUNT]>::new();
        let mut suffix_counts = HashMap::<String, [u64; TAG_COUNT]>::new();
        let mut ctx_bi = HashMap::<(usize, usize), u64>::new(); // C(p2,p1) as context
        let mut ctx_uni = [0u64; CONTEXTS];

        for sent in sentences {
            let mut p2 = BOS;
            let mut p1 = BOS;
            for (word, tag) in sent {
                let t = tag.index();
                *tri.entry((p2, p1, t)).or_insert(0) += 1;
                *ctx_bi.entry((p2, p1)).or_insert(0) += 1;
                if p1 < TAG_COUNT {
                    *bi.entry((p1, t)).or_insert(0) += 1;
                }
                ctx_uni[p1.min(CONTEXTS - 1)] += 1;
                uni[t] += 1;
                let lower = word.to_lowercase();
                emit_counts.entry(lower.clone()).or_insert([0; TAG_COUNT])[t] += 1;
                let chars: Vec<char> = lower.chars().collect();
                for sl in 1..=MAX_SUFFIX.min(chars.len()) {
                    let suf: String = chars[chars.len() - sl..].iter().collect();
                    suffix_counts.entry(suf).or_insert([0; TAG_COUNT])[t] += 1;
                }
                p2 = p1;
                p1 = t;
            }
        }

        let total_tags: u64 = uni.iter().sum::<u64>().max(1);
        let prior: [f64; TAG_COUNT] = std::array::from_fn(|t| {
            ((uni[t] as f64 + 1.0) / (total_tags as f64 + TAG_COUNT as f64)).ln()
        });

        // Interpolated transition table.
        let mut trans = vec![0.0f64; CONTEXTS * CONTEXTS * TAG_COUNT];
        for p2 in 0..CONTEXTS {
            for p1 in 0..CONTEXTS {
                let c_ctx = *ctx_bi.get(&(p2, p1)).unwrap_or(&0);
                for t in 0..TAG_COUNT {
                    let p3 = if c_ctx > 0 {
                        *tri.get(&(p2, p1, t)).unwrap_or(&0) as f64 / c_ctx as f64
                    } else {
                        0.0
                    };
                    let c_p1 = if p1 < TAG_COUNT { uni[p1] } else { ctx_uni[BOS] };
                    let pb = if p1 < TAG_COUNT && c_p1 > 0 {
                        *bi.get(&(p1, t)).unwrap_or(&0) as f64 / c_p1 as f64
                    } else {
                        0.0
                    };
                    let pu = (uni[t] as f64 + 1.0) / (total_tags as f64 + TAG_COUNT as f64);
                    let p = LAMBDA.0 * p3 + LAMBDA.1 * pb + LAMBDA.2 * pu;
                    trans[(p2 * CONTEXTS + p1) * TAG_COUNT + t] = p.max(1e-12).ln();
                }
            }
        }

        // Emissions with add-one smoothing per word (normalized over tags for
        // the word, scaled by tag priors via Bayes when decoding unknowns).
        let emit = emit_counts
            .into_iter()
            .map(|(w, counts)| {
                let arr: [f64; TAG_COUNT] = std::array::from_fn(|t| {
                    let c = counts[t] as f64;
                    let total = uni[t] as f64 + 1.0;
                    ((c + 0.01) / (total + 0.01 * TAG_COUNT as f64)).ln()
                });
                (w, arr)
            })
            .collect();

        let suffix = suffix_counts
            .into_iter()
            .map(|(s, counts)| {
                let total: u64 = counts.iter().sum();
                let arr: [f64; TAG_COUNT] = std::array::from_fn(|t| {
                    ((counts[t] as f64 + 0.5) / (total as f64 + 0.5 * TAG_COUNT as f64)).ln()
                });
                (s, arr)
            })
            .collect();

        PosTagger {
            trans,
            emit,
            suffix,
            prior,
            max_tokens: 500,
            pretrained: false,
        }
    }

    /// Overrides the per-sentence token budget (the crash threshold).
    pub fn with_max_tokens(mut self, max_tokens: usize) -> PosTagger {
        assert!(max_tokens > 0);
        self.max_tokens = max_tokens;
        self
    }

    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// A tagger trained on the embedded abstract-style corpus — the analogue
    /// of MedPost's model trained on Medline sentences. Built once.
    pub fn pretrained() -> &'static PosTagger {
        static TAGGER: OnceLock<PosTagger> = OnceLock::new();
        TAGGER.get_or_init(|| PosTagger {
            pretrained: true,
            ..PosTagger::train(&builtin_training_corpus())
        })
    }

    /// Is this the built-in model (at whatever token budget)?
    pub fn is_pretrained(&self) -> bool {
        self.pretrained
    }

    /// Log emission scores for `word` over all tags.
    fn emission(&self, word: &str) -> [f64; TAG_COUNT] {
        let lower = word.to_lowercase();
        if let Some(arr) = self.emit.get(&lower) {
            return *arr;
        }
        // Unknown word: suffix model + orthographic cues, converted to an
        // emission-like score by dividing out the tag prior.
        let chars: Vec<char> = lower.chars().collect();
        let mut best: Option<&[f64; TAG_COUNT]> = None;
        for sl in (1..=MAX_SUFFIX.min(chars.len())).rev() {
            let suf: String = chars[chars.len() - sl..].iter().collect();
            if let Some(arr) = self.suffix.get(&suf) {
                best = Some(arr);
                break;
            }
        }
        let mut scores: [f64; TAG_COUNT] = match best {
            Some(arr) => std::array::from_fn(|t| arr[t] - self.prior[t] - 8.0),
            None => [-10.0; TAG_COUNT],
        };
        // Orthographic cues for the biomedical domain.
        let first_upper = word.chars().next().map(char::is_uppercase).unwrap_or(false);
        let has_digit = word.chars().any(|c| c.is_ascii_digit());
        let all_upper = word.len() >= 2 && word.chars().all(|c| c.is_uppercase() || c.is_ascii_digit());
        if all_upper || (first_upper && has_digit) {
            // Gene-symbol-like strings behave as proper nouns.
            scores[PosTag::ProperNoun.index()] += 4.0;
        } else if first_upper {
            scores[PosTag::ProperNoun.index()] += 1.5;
        }
        if has_digit && word.chars().all(|c| c.is_ascii_digit() || c == '.' || c == ',') {
            scores[PosTag::Number.index()] += 8.0;
        }
        if word.len() == 1 && !word.chars().next().unwrap().is_alphanumeric() {
            scores[PosTag::Punctuation.index()] += 8.0;
        }
        scores
    }

    /// Tags a tokenized sentence via Viterbi decoding over tag-pair states.
    ///
    /// Runtime is `O(n · T^3)` with `T = 14` tags — linear in sentence
    /// length. Sentences longer than the configured budget return
    /// [`PosError::SentenceTooLong`].
    pub fn tag(&self, tokens: &[&str]) -> Result<Vec<PosTag>, PosError> {
        if tokens.is_empty() {
            return Err(PosError::EmptySentence);
        }
        if tokens.len() > self.max_tokens {
            return Err(PosError::SentenceTooLong {
                tokens: tokens.len(),
                limit: self.max_tokens,
            });
        }
        let n = tokens.len();
        // Viterbi over states (p1 context, t) where p1 ranges over CONTEXTS.
        // delta[p1][t] = best log-prob of a path ending with tags (p1, t).
        let neg = f64::NEG_INFINITY;
        let mut delta = vec![[neg; TAG_COUNT]; CONTEXTS];
        let mut backptr: Vec<Vec<[u8; TAG_COUNT]>> = Vec::with_capacity(n);

        let e0 = self.emission(tokens[0]);
        for t in 0..TAG_COUNT {
            delta[BOS][t] = self.trans[(BOS * CONTEXTS + BOS) * TAG_COUNT + t] + e0[t];
        }
        backptr.push(vec![[BOS as u8; TAG_COUNT]; CONTEXTS]);

        for (i, token) in tokens.iter().enumerate().skip(1) {
            let e = self.emission(token);
            let mut next = vec![[neg; TAG_COUNT]; CONTEXTS];
            let mut bp = vec![[0u8; TAG_COUNT]; CONTEXTS];
            #[allow(clippy::needless_range_loop)] // p1 indexes delta, bp, and trans at once
            for p1 in 0..CONTEXTS {
                // p1 becomes the "previous" context; iterate possible p2.
                for t in 0..TAG_COUNT {
                    if delta[p1][t] == neg {
                        continue;
                    }
                    // state (p1, t) transitions to (t, t2)
                    for t2 in 0..TAG_COUNT {
                        let score = delta[p1][t]
                            + self.trans[(p1 * CONTEXTS + t) * TAG_COUNT + t2]
                            + e[t2];
                        if score > next[t][t2] {
                            next[t][t2] = score;
                            bp[t][t2] = p1 as u8;
                        }
                    }
                }
            }
            delta = next;
            backptr.push(bp);
            let _ = i;
        }

        // Find best final state.
        let mut best = (0usize, 0usize, neg);
        for (p1, row) in delta.iter().enumerate() {
            for (t, &score) in row.iter().enumerate() {
                if score > best.2 {
                    best = (p1, t, score);
                }
            }
        }
        // Backtrack.
        let mut tags = vec![0usize; n];
        let (mut p1, mut t) = (best.0, best.1);
        tags[n - 1] = t;
        for i in (1..n).rev() {
            let prev = backptr[i][p1][t] as usize;
            if p1 < TAG_COUNT {
                tags[i - 1] = p1;
            }
            t = p1;
            p1 = prev;
        }
        Ok(tags.into_iter().map(PosTag::from_index).collect())
    }

    /// Tags raw text: tokenizes, then tags. Convenience for callers that do
    /// not manage token offsets themselves.
    pub fn tag_str(&self, text: &str) -> Result<Vec<(String, PosTag)>, PosError> {
        let tokens = crate::tokenize::token_strings(text);
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let tags = self.tag(&refs)?;
        Ok(tokens.into_iter().zip(tags).collect())
    }
}

/// Builds the embedded training corpus: abstract-style sentences assembled
/// from tagged templates. This plays the role of the tagged Medline
/// sentences MedPost was trained on.
pub fn builtin_training_corpus() -> Vec<Vec<(String, PosTag)>> {
    use PosTag::*;
    let dets = ["the", "a", "an", "this", "these", "that", "each"];
    let nouns = [
        "patient", "gene", "drug", "disease", "protein", "study", "treatment", "cell", "cancer",
        "therapy", "mutation", "expression", "trial", "dose", "effect", "result", "analysis",
        "receptor", "inhibitor", "tumor", "pathway", "response", "sample", "tissue", "level",
        "group", "mechanism", "function", "activity", "risk",
    ];
    let pnouns = ["TP53", "BRCA1", "Aspirin", "Medline", "KRAS", "EGFR", "Tamoxifen"];
    let verbs = [
        "regulates", "inhibits", "activates", "shows", "causes", "increases", "reduces",
        "affects", "binds", "encodes", "suggests", "indicates", "improves", "induces",
        "demonstrates", "reveals", "confirms",
    ];
    let parts = ["treated", "observed", "associated", "expressed", "measured", "reported",
        "identified", "compared", "analyzed", "evaluated"];
    let adjs = [
        "significant", "clinical", "molecular", "novel", "high", "low", "chronic", "severe",
        "genetic", "therapeutic", "common", "specific", "human", "normal", "effective",
    ];
    let advs = ["significantly", "strongly", "rapidly", "however", "moreover", "often", "also",
        "not"];
    let prons = ["it", "they", "we", "which", "that", "this", "these", "who", "them", "its"];
    let preps = ["in", "of", "with", "for", "by", "on", "to", "from", "at", "during", "between"];
    let conjs = ["and", "or", "but", "nor", "neither", "while", "whereas"];
    let modals = ["may", "can", "could", "should", "might", "must", "will", "would", "is",
        "are", "was", "were", "be", "been", "has", "have", "had"];
    let nums = ["1", "2", "10", "42", "100", "0.5", "3.5", "1000", "2013"];

    // Sentence templates as tag sequences; words are cycled deterministically.
    let templates: Vec<Vec<PosTag>> = vec![
        vec![Determiner, Noun, Verb, Determiner, Adjective, Noun, Punctuation],
        vec![Determiner, Adjective, Noun, Verb, Noun, Preposition, Noun, Punctuation],
        vec![ProperNoun, Verb, Determiner, Noun, Preposition, Determiner, Noun, Punctuation],
        vec![Pronoun, Modal, Verb, Determiner, Noun, Conjunction, Determiner, Noun, Punctuation],
        vec![Determiner, Noun, Modal, Participle, Preposition, Determiner, Adjective, Noun, Punctuation],
        vec![Adverb, Punctuation, Determiner, Noun, Verb, Adjective, Noun, Punctuation],
        vec![Determiner, Noun, Preposition, Number, Noun, Verb, Determiner, Noun, Punctuation],
        vec![ProperNoun, Conjunction, ProperNoun, Verb, Preposition, Determiner, Noun, Punctuation],
        vec![Pronoun, Verb, Conjunction, Pronoun, Modal, Participle, Punctuation],
        vec![Determiner, Noun, Verb, Adverb, Adjective, Preposition, Noun, Punctuation],
        vec![Number, Noun, Modal, Participle, Preposition, Determiner, Noun, Punctuation],
        vec![Determiner, Adjective, Adjective, Noun, Verb, Determiner, Noun, Preposition, ProperNoun, Punctuation],
        vec![Determiner, Noun, Adverb, Verb, Determiner, Noun, Punctuation],
        vec![Determiner, Noun, Verb, Determiner, Noun, Adverb, Punctuation],
    ];

    let puncts = [".", ",", ";", ":", "(", ")"];
    let mut counters = [0usize; TAG_COUNT];
    let mut pick = |tag: PosTag| -> String {
        let i = &mut counters[tag.index()];
        let word = match tag {
            Determiner => dets[*i % dets.len()],
            Noun => nouns[*i % nouns.len()],
            ProperNoun => pnouns[*i % pnouns.len()],
            Verb => verbs[*i % verbs.len()],
            Participle => parts[*i % parts.len()],
            Adjective => adjs[*i % adjs.len()],
            Adverb => advs[*i % advs.len()],
            Pronoun => prons[*i % prons.len()],
            Preposition => preps[*i % preps.len()],
            Conjunction => conjs[*i % conjs.len()],
            Modal => modals[*i % modals.len()],
            Number => nums[*i % nums.len()],
            Punctuation => puncts[*i % puncts.len()],
            Other => "etc",
        };
        *i += 1;
        word.to_string()
    };

    let mut corpus = Vec::new();
    // Repeat templates with rotating vocabulary for coverage.
    for round in 0..40 {
        for template in &templates {
            let mut sent = Vec::with_capacity(template.len());
            for &tag in template {
                let mut word = pick(tag);
                // Capitalize sentence-initial words in half the rounds so the
                // tagger learns both forms.
                if sent.is_empty() && round % 2 == 0 && tag != PosTag::ProperNoun {
                    let mut cs = word.chars();
                    if let Some(f) = cs.next() {
                        word = f.to_uppercase().collect::<String>() + cs.as_str();
                    }
                }
                sent.push((word, tag));
            }
            // End-of-sentence period dominates.
            if let Some(last) = sent.last_mut() {
                if last.1 == PosTag::Punctuation {
                    last.0 = ".".to_string();
                }
            }
            corpus.push(sent);
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_indices_roundtrip() {
        for (i, tag) in PosTag::all().iter().enumerate() {
            assert_eq!(tag.index(), i);
            assert_eq!(PosTag::from_index(i), *tag);
        }
    }

    #[test]
    fn pretrained_tags_known_words() {
        let tagger = PosTagger::pretrained();
        let tags = tagger.tag(&["the", "gene", "regulates", "the", "protein", "."]).unwrap();
        assert_eq!(tags[0], PosTag::Determiner);
        assert_eq!(tags[1], PosTag::Noun);
        assert_eq!(tags[2], PosTag::Verb);
        assert_eq!(tags[4], PosTag::Noun);
        assert_eq!(tags[5], PosTag::Punctuation);
    }

    #[test]
    fn unknown_gene_symbol_is_proper_noun() {
        let tagger = PosTagger::pretrained();
        let tags = tagger.tag(&["MYC42", "inhibits", "the", "tumor", "."]).unwrap();
        assert_eq!(tags[0], PosTag::ProperNoun);
    }

    #[test]
    fn unknown_number_is_number() {
        let tagger = PosTagger::pretrained();
        let tags = tagger.tag(&["dose", "of", "77.5", "units", "."]).unwrap();
        assert_eq!(tags[2], PosTag::Number);
    }

    #[test]
    fn suffix_model_guesses_unseen_adverb() {
        let tagger = PosTagger::pretrained();
        // "dramatically" is unseen; -ally/-lly suffixes come from adverbs.
        let tags = tagger
            .tag(&["the", "treatment", "dramatically", "reduces", "risk", "."])
            .unwrap();
        assert_eq!(tags[2], PosTag::Adverb, "tags = {tags:?}");
    }

    #[test]
    fn empty_sentence_is_error() {
        let tagger = PosTagger::pretrained();
        assert_eq!(tagger.tag(&[]), Err(PosError::EmptySentence));
    }

    #[test]
    fn long_sentence_crashes_cleanly() {
        let tagger = PosTagger::pretrained().clone().with_max_tokens(50);
        let tokens: Vec<&str> = std::iter::repeat_n("word", 51).collect();
        match tagger.tag(&tokens) {
            Err(PosError::SentenceTooLong { tokens: 51, limit: 50 }) => {}
            other => panic!("expected SentenceTooLong, got {other:?}"),
        }
    }

    #[test]
    fn tag_str_pairs_tokens_with_tags() {
        let tagger = PosTagger::pretrained();
        let tagged = tagger.tag_str("The drug inhibits the receptor.").unwrap();
        assert_eq!(tagged.len(), 6);
        assert_eq!(tagged[1].0, "drug");
        assert_eq!(tagged[1].1, PosTag::Noun);
    }

    #[test]
    fn training_accuracy_on_training_data() {
        // The tagger should at least fit its own training corpus well.
        let corpus = builtin_training_corpus();
        let tagger = PosTagger::train(&corpus);
        let mut correct = 0usize;
        let mut total = 0usize;
        for sent in corpus.iter().take(60) {
            let tokens: Vec<&str> = sent.iter().map(|(w, _)| w.as_str()).collect();
            let tags = tagger.tag(&tokens).unwrap();
            for ((_, gold), pred) in sent.iter().zip(&tags) {
                total += 1;
                if gold == pred {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "training-set accuracy {acc}");
    }

    #[test]
    fn runtime_is_linear_in_length() {
        // Sanity check the O(n) claim: doubling length should roughly double
        // time, definitely not quadruple it. We only assert it completes on a
        // large sentence within the budget.
        let tagger = PosTagger::pretrained().clone().with_max_tokens(100_000);
        let tokens: Vec<&str> = std::iter::repeat_n("protein", 5_000).collect();
        let tags = tagger.tag(&tokens).unwrap();
        assert_eq!(tags.len(), 5_000);
    }
}
