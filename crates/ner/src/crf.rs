//! Linear-chain Conditional Random Field sequence taggers.
// The forward-backward and Viterbi loops index several DP lattices by the
// same label position; `for y in 0..NLABELS` reads better than zipped
// iterators there.
#![allow(clippy::needless_range_loop)]
//!
//! This is the from-scratch analogue of the paper's ML-based entity taggers
//! (BANNER for genes, ChemSpot for drugs, a Mallet-based disease tagger —
//! all of which are linear-chain CRFs under the hood). The implementation
//! is a real CRF: BIO label chains, hashed lexical/orthographic features,
//! exact forward-backward marginals in log space, stochastic gradient
//! training of the conditional log-likelihood with L2 regularization, and
//! Viterbi decoding.
//!
//! Two properties of the original tools matter for the paper's evaluation
//! and are reproduced here:
//!
//! - **runtime**: with [`CrfConfig::context_features`] enabled (the
//!   default, mirroring the rich feature sets of BANNER/ChemSpot), feature
//!   extraction scans the whole sentence for every token, so per-sentence
//!   cost grows quadratically with sentence length — the ML curves of
//!   Fig. 3b that sit 2–3 orders of magnitude above dictionary matching;
//! - **domain brittleness**: a model trained on abstract-like text where
//!   short upper-case tokens are overwhelmingly genes will tag arbitrary
//!   three-letter acronyms as genes on web text (see `websift-ner::tla`).

use crate::entity::{EntityType, Mention, Method};
use crate::dictionary::TaggerCostModel;
use websift_text::tokenize::{tokenize, Token};

/// BIO labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Label {
    Outside = 0,
    Begin = 1,
    Inside = 2,
}

pub const NLABELS: usize = 3;

impl Label {
    pub fn from_index(i: usize) -> Label {
        match i {
            1 => Label::Begin,
            2 => Label::Inside,
            _ => Label::Outside,
        }
    }
}

/// A training example: a tokenized sentence with gold BIO labels.
#[derive(Debug, Clone)]
pub struct TrainExample {
    pub tokens: Vec<String>,
    pub labels: Vec<Label>,
}

impl TrainExample {
    /// Builds an example from a sentence and gold mention spans (token
    /// index ranges, end-exclusive).
    pub fn from_spans(tokens: Vec<String>, spans: &[(usize, usize)]) -> TrainExample {
        let mut labels = vec![Label::Outside; tokens.len()];
        for &(s, e) in spans {
            assert!(s < e && e <= tokens.len(), "bad span ({s},{e})");
            labels[s] = Label::Begin;
            for l in labels.iter_mut().take(e).skip(s + 1) {
                *l = Label::Inside;
            }
        }
        TrainExample { tokens, labels }
    }
}

/// Training/featurization configuration.
#[derive(Debug, Clone, Copy)]
pub struct CrfConfig {
    /// Hashed feature space size (per label).
    pub dim: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate (decayed 1/(1+t) per epoch).
    pub learning_rate: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Enable sentence-wide context features (quadratic cost).
    pub context_features: bool,
    /// RNG-free deterministic training (examples in given order).
    pub shuffle_seed: Option<u64>,
}

impl Default for CrfConfig {
    fn default() -> CrfConfig {
        CrfConfig {
            dim: 1 << 18,
            epochs: 8,
            learning_rate: 0.2,
            l2: 1e-6,
            context_features: true,
            shuffle_seed: Some(0x5eed),
        }
    }
}

/// The trained model.
#[derive(Debug, Clone)]
pub struct LinearChainCrf {
    /// Unary weights, indexed `hash(feature) % dim * NLABELS + label`.
    weights: Vec<f32>,
    /// Transition weights `trans[from][to]`.
    trans: [[f32; NLABELS]; NLABELS],
    dim: usize,
    context_features: bool,
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv::new().upd(bytes).finish()
}

/// Streaming FNV-1a over byte pieces: `Fnv::new().upd(a).upd(b).finish()`
/// equals `fnv1a` of the concatenation. This is what lets the feature
/// extractor hash `"w=" + lowercase(token)` for ASCII tokens without
/// materializing the string — the hash stays bit-identical to the
/// `format!`-based extraction it replaced.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    #[inline]
    fn upd(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Hashes `bytes` as if each had been ASCII-lowercased first.
    #[inline]
    fn upd_lower(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b.to_ascii_lowercase() as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Extracts hashed unary feature ids for position `i`.
///
/// All-ASCII tokens (the overwhelmingly common case on web text) take an
/// allocation-free path: lowercasing folds into the hash loop and window
/// features hash the prefix and token bytes in sequence. Tokens with
/// multi-byte chars fall back to materializing `to_lowercase()` — which
/// can change char counts (İ lowers to two chars), so the fallback also
/// preserves the original length-feature semantics exactly.
fn features(tokens: &[&str], i: usize, dim: usize, context: bool, out: &mut Vec<usize>) {
    // lint:hot_loop(begin): CRF per-token feature extraction
    out.clear();
    let w = tokens[i];
    let d = dim as u64;
    let mut push_h = |h: u64| out.push((h % d) as usize);

    // `prefix` + lowercased token, e.g. "w-1=brca1".
    let word_h = |prefix: &[u8], t: &str| -> u64 {
        let h = Fnv::new().upd(prefix);
        if t.is_ascii() {
            h.upd_lower(t.as_bytes()).finish()
        } else {
            h.upd(t.to_lowercase().as_bytes()).finish()
        }
    };

    push_h(word_h(b"w=", w));
    if i > 0 {
        push_h(word_h(b"w-1=", tokens[i - 1]));
    } else {
        push_h(fnv1a(b"w-1=<bos>"));
    }
    if i + 1 < tokens.len() {
        push_h(word_h(b"w+1=", tokens[i + 1]));
    } else {
        push_h(fnv1a(b"w+1=<eos>"));
    }

    // Affix features over the lowercased form; `n` is its char count.
    let n;
    if w.is_ascii() {
        let wb = w.as_bytes();
        n = wb.len();
        if n >= 2 {
            push_h(Fnv::new().upd(b"suf2=").upd_lower(&wb[n - 2..]).finish());
        }
        if n >= 3 {
            push_h(Fnv::new().upd(b"suf3=").upd_lower(&wb[n - 3..]).finish());
            push_h(Fnv::new().upd(b"pre3=").upd_lower(&wb[..3]).finish());
        }
    } else {
        let lower = w.to_lowercase();
        let chars: Vec<char> = lower.chars().collect();
        n = chars.len();
        if n >= 2 {
            let s2: String = chars[n - 2..].iter().collect();
            // lint:allow(hot_loop_alloc): non-ASCII fallback, rare on web text
            push_h(fnv1a(format!("suf2={s2}").as_bytes()));
        }
        if n >= 3 {
            let s3: String = chars[n - 3..].iter().collect();
            // lint:allow(hot_loop_alloc): non-ASCII fallback, rare on web text
            push_h(fnv1a(format!("suf3={s3}").as_bytes()));
            let p3: String = chars[..3].iter().collect();
            // lint:allow(hot_loop_alloc): non-ASCII fallback, rare on web text
            push_h(fnv1a(format!("pre3={p3}").as_bytes()));
        }
    }

    // orthographic shape
    let has_digit = w.chars().any(|c| c.is_ascii_digit());
    let has_alpha = w.chars().any(char::is_alphabetic);
    let all_upper = has_alpha && w.chars().all(|c| !c.is_lowercase());
    let init_upper = w.chars().next().map(char::is_uppercase).unwrap_or(false);
    if has_digit {
        push_h(fnv1a(b"shape=digit"));
    }
    if all_upper {
        push_h(fnv1a(b"shape=allcaps"));
        // `n.min(6)` is a single digit, so the formatted byte is exact.
        push_h(Fnv::new().upd(b"capslen=").upd(&[b'0' + n.min(6) as u8]).finish());
    } else if init_upper {
        push_h(fnv1a(b"shape=initcap"));
    }
    if has_digit && has_alpha {
        push_h(fnv1a(b"shape=alnum-mix"));
    }
    if w.contains('-') {
        push_h(fnv1a(b"shape=hyphen"));
    }
    if !has_alpha && !has_digit {
        push_h(fnv1a(b"shape=punct"));
    }
    push_h(Fnv::new().upd(b"len=").upd(&[b'0' + n.min(8) as u8]).finish());

    if context {
        // Sentence-wide bag-of-words context: one feature per other token.
        // Deliberately O(sentence length) per position — this is what makes
        // the rich ML taggers quadratic per sentence (Fig. 3b).
        for (j, t) in tokens.iter().enumerate() {
            if j != i {
                push_h(word_h(b"ctx=", t));
            }
        }
    }
    // lint:hot_loop(end)
}

#[inline]
fn logsumexp(values: &[f64; NLABELS]) -> f64 {
    let m = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return m;
    }
    m + values.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

impl LinearChainCrf {
    /// Trains a CRF by SGD on the conditional log-likelihood.
    pub fn train(examples: &[TrainExample], config: CrfConfig) -> LinearChainCrf {
        assert!(config.dim.is_power_of_two(), "dim must be a power of two");
        let mut model = LinearChainCrf {
            weights: vec![0.0; config.dim * NLABELS],
            trans: [[0.0; NLABELS]; NLABELS],
            dim: config.dim,
            context_features: config.context_features,
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng_state = config.shuffle_seed.unwrap_or(0);
        let mut feats: Vec<usize> = Vec::new();

        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f32);
            if config.shuffle_seed.is_some() {
                // xorshift Fisher-Yates for deterministic shuffling
                for i in (1..order.len()).rev() {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    let j = (rng_state % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
            for &ei in &order {
                let ex = &examples[ei];
                if ex.tokens.is_empty() {
                    continue;
                }
                model.sgd_step(ex, lr, config.l2, &mut feats);
            }
        }
        model
    }

    /// One SGD step on one example: forward-backward for expectations, then
    /// `w += lr * (observed - expected) - lr * l2 * w` on touched weights.
    fn sgd_step(&mut self, ex: &TrainExample, lr: f32, l2: f32, feats: &mut Vec<usize>) {
        let tokens: Vec<&str> = ex.tokens.iter().map(String::as_str).collect();
        let n = tokens.len();

        // Unary scores and cached feature ids.
        let mut unary = vec![[0f64; NLABELS]; n];
        let mut all_feats: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            features(&tokens, i, self.dim, self.context_features, feats);
            for y in 0..NLABELS {
                let mut s = 0f64;
                for &f in feats.iter() {
                    s += self.weights[f * NLABELS + y] as f64;
                }
                unary[i][y] = s;
            }
            all_feats.push(feats.clone());
        }

        // Forward.
        let mut alpha = vec![[f64::NEG_INFINITY; NLABELS]; n];
        alpha[0] = unary[0];
        for i in 1..n {
            for y in 0..NLABELS {
                let mut acc = [f64::NEG_INFINITY; NLABELS];
                for (yp, acc_slot) in acc.iter_mut().enumerate() {
                    *acc_slot = alpha[i - 1][yp] + self.trans[yp][y] as f64;
                }
                alpha[i][y] = logsumexp(&acc) + unary[i][y];
            }
        }
        let log_z = logsumexp(&alpha[n - 1]);

        // Backward.
        let mut beta = vec![[0f64; NLABELS]; n];
        for i in (0..n - 1).rev() {
            for y in 0..NLABELS {
                let mut acc = [f64::NEG_INFINITY; NLABELS];
                for (yn, acc_slot) in acc.iter_mut().enumerate() {
                    *acc_slot = self.trans[y][yn] as f64 + unary[i + 1][yn] + beta[i + 1][yn];
                }
                beta[i][y] = logsumexp(&acc);
            }
        }

        // Gradient updates.
        for i in 0..n {
            let gold = ex.labels[i] as usize;
            // marginals P(y_i = y)
            let mut marg = [0f64; NLABELS];
            for y in 0..NLABELS {
                marg[y] = (alpha[i][y] + beta[i][y] - log_z).exp();
            }
            for &f in &all_feats[i] {
                for (y, &m) in marg.iter().enumerate() {
                    let idx = f * NLABELS + y;
                    let obs = if y == gold { 1.0 } else { 0.0 };
                    let w = &mut self.weights[idx];
                    *w += lr * ((obs - m) as f32) - lr * l2 * *w;
                }
            }
        }
        // Transition gradient via pairwise marginals.
        for i in 1..n {
            let gold_prev = ex.labels[i - 1] as usize;
            let gold = ex.labels[i] as usize;
            for yp in 0..NLABELS {
                for y in 0..NLABELS {
                    let lp = alpha[i - 1][yp] + self.trans[yp][y] as f64 + unary[i][y]
                        + beta[i][y]
                        - log_z;
                    let m = lp.exp();
                    let obs = if yp == gold_prev && y == gold { 1.0 } else { 0.0 };
                    self.trans[yp][y] += lr * ((obs - m) as f32);
                }
            }
        }
    }

    /// Viterbi-decodes BIO labels for a tokenized sentence.
    pub fn decode(&self, tokens: &[&str]) -> Vec<Label> {
        let n = tokens.len();
        if n == 0 {
            return Vec::new();
        }
        let mut feats = Vec::new();
        let mut delta = vec![[f64::NEG_INFINITY; NLABELS]; n];
        let mut back = vec![[0u8; NLABELS]; n];
        for i in 0..n {
            features(tokens, i, self.dim, self.context_features, &mut feats);
            let mut unary = [0f64; NLABELS];
            for y in 0..NLABELS {
                for &f in &feats {
                    unary[y] += self.weights[f * NLABELS + y] as f64;
                }
            }
            if i == 0 {
                delta[0] = unary;
            } else {
                for y in 0..NLABELS {
                    let mut best = (f64::NEG_INFINITY, 0usize);
                    for yp in 0..NLABELS {
                        let s = delta[i - 1][yp] + self.trans[yp][y] as f64;
                        if s > best.0 {
                            best = (s, yp);
                        }
                    }
                    delta[i][y] = best.0 + unary[y];
                    back[i][y] = best.1 as u8;
                }
            }
        }
        let mut y = (0..NLABELS)
            .max_by(|&a, &b| delta[n - 1][a].partial_cmp(&delta[n - 1][b]).unwrap())
            .unwrap();
        let mut labels = vec![Label::Outside; n];
        labels[n - 1] = Label::from_index(y);
        for i in (1..n).rev() {
            y = back[i][y] as usize;
            labels[i - 1] = Label::from_index(y);
        }
        labels
    }
}

/// A complete ML entity tagger: CRF + tokenizer + BIO-to-span conversion.
#[derive(Debug, Clone)]
pub struct CrfTagger {
    entity: EntityType,
    model: LinearChainCrf,
    context_features: bool,
}

impl CrfTagger {
    /// Trains a tagger for `entity` from examples.
    pub fn train(entity: EntityType, examples: &[TrainExample], config: CrfConfig) -> CrfTagger {
        CrfTagger {
            entity,
            model: LinearChainCrf::train(examples, config),
            context_features: config.context_features,
        }
    }

    pub fn entity(&self) -> EntityType {
        self.entity
    }

    /// Tags one sentence of raw text.
    pub fn tag(&self, text: &str) -> Vec<Mention> {
        let tokens: Vec<Token> = tokenize(text);
        if tokens.is_empty() {
            return Vec::new();
        }
        let strs: Vec<&str> = tokens.iter().map(|t| t.text(text)).collect();
        let labels = self.model.decode(&strs);
        let mut mentions = Vec::new();
        let mut i = 0usize;
        while i < labels.len() {
            if labels[i] == Label::Begin {
                let start_tok = i;
                let mut end_tok = i + 1;
                while end_tok < labels.len() && labels[end_tok] == Label::Inside {
                    end_tok += 1;
                }
                let (s, e) = (tokens[start_tok].start, tokens[end_tok - 1].end);
                mentions.push(Mention::new(s, e, &text[s..e], self.entity, Method::Ml));
                i = end_tok;
            } else {
                i += 1;
            }
        }
        mentions
    }

    /// Paper-scale cost model: CRF taggers have modest memory but heavy
    /// per-character cost — 2–3 orders of magnitude above dictionary
    /// matching, quadratic when context features are on.
    pub fn cost_model(&self) -> TaggerCostModel {
        TaggerCostModel {
            startup_secs: 15.0,
            memory_bytes: 2_500_000_000,
            us_per_char: if self.context_features { 50.0 } else { 20.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// A tiny gene-ish training set: upper-case alnum symbols are genes.
    fn gene_examples() -> Vec<TrainExample> {
        let mut ex = Vec::new();
        let genes = ["BRCA1", "TP53", "KRAS", "EGFR", "MYC2", "AKT1", "TNF", "JAK2"];
        let carriers = [
            ("mutations in {} cause cancer", 2),
            ("the {} gene regulates growth", 1),
            ("expression of {} increased", 2),
            ("{} encodes a kinase", 0),
            ("we analyzed {} in samples", 2),
            ("loss of {} was observed", 2),
        ];
        for g in genes {
            for (tpl, idx) in carriers {
                let sent = tpl.replace("{}", g);
                let tokens = toks(&sent);
                ex.push(TrainExample::from_spans(tokens, &[(idx, idx + 1)]));
            }
        }
        // negatives: plain sentences without genes
        for s in [
            "the patients received standard care",
            "results were published last year",
            "this study was small and short",
            "we thank the reviewers for comments",
        ] {
            ex.push(TrainExample::from_spans(toks(s), &[]));
        }
        ex
    }

    fn quick_config() -> CrfConfig {
        CrfConfig {
            dim: 1 << 14,
            epochs: 6,
            learning_rate: 0.3,
            context_features: false,
            ..CrfConfig::default()
        }
    }

    #[test]
    fn from_spans_builds_bio() {
        let ex = TrainExample::from_spans(toks("a b c d"), &[(1, 3)]);
        assert_eq!(
            ex.labels,
            vec![Label::Outside, Label::Begin, Label::Inside, Label::Outside]
        );
    }

    #[test]
    #[should_panic(expected = "bad span")]
    fn from_spans_rejects_bad_span() {
        TrainExample::from_spans(toks("a b"), &[(1, 5)]);
    }

    #[test]
    fn learns_simple_gene_pattern() {
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let ms = tagger.tag("mutations in JAK2 cause cancer");
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].name, "jak2");
        assert_eq!(ms[0].method, Method::Ml);
    }

    #[test]
    fn generalizes_to_unseen_symbol() {
        // The orthographic features should let it tag an unseen all-caps
        // symbol in a gene-ish context.
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let ms = tagger.tag("the STAT3 gene regulates growth");
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].name, "stat3");
    }

    #[test]
    fn tla_false_positive_behaviour() {
        // Trained on abstracts where short all-caps tokens are genes, the
        // model should (incorrectly, per the paper) tag an arbitrary TLA.
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let ms = tagger.tag("expression of USA increased");
        assert_eq!(ms.len(), 1, "expected TLA false positive, got {ms:?}");
    }

    #[test]
    fn plain_text_mostly_untagged() {
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let ms = tagger.tag("the patients received standard care");
        assert!(ms.is_empty(), "{ms:?}");
    }

    #[test]
    fn empty_input() {
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        assert!(tagger.tag("").is_empty());
    }

    #[test]
    fn multi_token_spans_decode() {
        let mut ex = Vec::new();
        for _ in 0..10 {
            ex.push(TrainExample::from_spans(
                toks("patients with breast cancer improved"),
                &[(2, 4)],
            ));
            ex.push(TrainExample::from_spans(
                toks("patients with lung cancer improved"),
                &[(2, 4)],
            ));
            ex.push(TrainExample::from_spans(toks("patients improved a lot"), &[]));
        }
        let tagger = CrfTagger::train(EntityType::Disease, &ex, quick_config());
        let ms = tagger.tag("patients with breast cancer improved");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "breast cancer");
    }

    #[test]
    fn cost_model_reflects_context_features() {
        let quick = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let heavy_cfg = CrfConfig {
            context_features: true,
            dim: 1 << 14,
            epochs: 2,
            ..CrfConfig::default()
        };
        let heavy = CrfTagger::train(EntityType::Gene, &gene_examples(), heavy_cfg);
        assert!(heavy.cost_model().us_per_char > quick.cost_model().us_per_char);
        // Both are far above the dictionary tagger's 0.05 us/char.
        assert!(quick.cost_model().us_per_char > 100.0 * 0.05);
    }

    #[test]
    fn decode_label_count_matches_tokens() {
        let tagger = CrfTagger::train(EntityType::Gene, &gene_examples(), quick_config());
        let labels = tagger.model.decode(&["a", "b", "c"]);
        assert_eq!(labels.len(), 3);
    }

    /// The pre-fast-path feature extractor, kept verbatim as the
    /// reference: every hashed id must match, or trained-model outputs
    /// (and the deterministic surfaces built on them) would drift.
    fn reference_features(tokens: &[&str], i: usize, dim: usize, context: bool) -> Vec<usize> {
        let mut out = Vec::new();
        let w = tokens[i];
        let lower = w.to_lowercase();
        let mut push = |s: &str| out.push((fnv1a(s.as_bytes()) % dim as u64) as usize);
        push(&format!("w={lower}"));
        if i > 0 {
            push(&format!("w-1={}", tokens[i - 1].to_lowercase()));
        } else {
            push("w-1=<bos>");
        }
        if i + 1 < tokens.len() {
            push(&format!("w+1={}", tokens[i + 1].to_lowercase()));
        } else {
            push("w+1=<eos>");
        }
        let chars: Vec<char> = lower.chars().collect();
        let n = chars.len();
        if n >= 2 {
            let s2: String = chars[n - 2..].iter().collect();
            push(&format!("suf2={s2}"));
        }
        if n >= 3 {
            let s3: String = chars[n - 3..].iter().collect();
            push(&format!("suf3={s3}"));
            let p3: String = chars[..3].iter().collect();
            push(&format!("pre3={p3}"));
        }
        let has_digit = w.chars().any(|c| c.is_ascii_digit());
        let has_alpha = w.chars().any(char::is_alphabetic);
        let all_upper = has_alpha && w.chars().all(|c| !c.is_lowercase());
        let init_upper = w.chars().next().map(char::is_uppercase).unwrap_or(false);
        if has_digit {
            push("shape=digit");
        }
        if all_upper {
            push("shape=allcaps");
            push(&format!("capslen={}", n.min(6)));
        } else if init_upper {
            push("shape=initcap");
        }
        if has_digit && has_alpha {
            push("shape=alnum-mix");
        }
        if w.contains('-') {
            push("shape=hyphen");
        }
        if !has_alpha && !has_digit {
            push("shape=punct");
        }
        push(&format!("len={}", n.min(8)));
        if context {
            for (j, t) in tokens.iter().enumerate() {
                if j != i {
                    push(&format!("ctx={}", t.to_lowercase()));
                }
            }
        }
        out
    }

    #[test]
    fn ascii_fast_path_features_match_reference() {
        // Sentences mixing the ASCII fast path with fallback tokens:
        // all-caps, digits, hyphens, empty-adjacent shapes, and multi-byte
        // chars including \u{130} whose lowercase has a different char
        // count than the raw token.
        let sentences: Vec<Vec<&str>> = vec![
            vec!["BRCA1", "and", "GAD-67", "interact", "."],
            vec!["\u{130}stanbul", "na\u{ef}ve", "\u{212A}elvin", "ok"],
            vec!["x"],
            vec!["TP53", "3.5", "a-b-c", "ALLCAPSLONGWORD", ",", "\u{df}"],
        ];
        for toks in &sentences {
            for context in [false, true] {
                for i in 0..toks.len() {
                    let mut got = Vec::new();
                    features(toks, i, 1 << 14, context, &mut got);
                    assert_eq!(
                        got,
                        reference_features(toks, i, 1 << 14, context),
                        "feature ids diverge at {i} in {toks:?} (context={context})"
                    );
                }
            }
        }
    }
}
