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
//!
//! # Feature hashing
//!
//! Feature extraction, not the weight lookups, is where decoding spends
//! its time: hashing took 75–85 % of [`LinearChainCrf::decode`], while a
//! 2^16 × 3 `f32` table (768 KiB per model) sits in L2. Each position's
//! word feature and its two window features are the lower-cased
//! neighbour tokens under the prefixes `w=`, `w-1=` and `w+1=`, so a
//! sentence hashes each token once, before the per-position loop, with the
//! three prefixes' FNV-1a chains advancing in lockstep over its bytes
//! (three independent multiplies the CPU overlaps). Positions then read
//! their three word hashes from that array; the constant features (shape
//! flags, `len=`, `capslen=`, the sentence-boundary windows) are hashed at
//! compile time, and a power-of-two `dim` makes the bucket a mask. The
//! unary loop touches each feature's row of three weights once, while each
//! label still sums its features in order, so scores, labels and trained
//! weights keep their bits; training takes its features from the same
//! pass. The `format!`-based extractor every fast path replaced, and the
//! decoder and trainer built on it, are the differential tests' oracle.

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

/// Buffers a sentence's decode or SGD step reuses across positions.
#[derive(Default)]
struct Scratch {
    /// [`word_hashes`] of the sentence.
    words: Vec<WordHashes>,
    /// One position's feature ids.
    feats: Vec<usize>,
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

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a of `bytes` continued from `state`, at compile time.
const fn fnv_from(mut state: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        state ^= bytes[i] as u64;
        state = state.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    state
}

const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_from(FNV_OFFSET, bytes)
}

/// The hashes of `prefix` followed by each one-digit count `0..N`.
const fn digit_features<const N: usize>(prefix: &[u8]) -> [u64; N] {
    let mut out = [0; N];
    let mut d = 0;
    while d < N {
        out[d] = fnv_from(fnv1a(prefix), &[b'0' + d as u8]);
        d += 1;
    }
    out
}

/// FNV states after the three word-feature prefixes, in [`WordHashes`]
/// order.
const WORD_PREFIXES: WordHashes = [fnv1a(b"w="), fnv1a(b"w-1="), fnv1a(b"w+1=")];
const BOS_PREV: u64 = fnv1a(b"w-1=<bos>");
const EOS_NEXT: u64 = fnv1a(b"w+1=<eos>");
/// FNV states after the affix- and context-feature prefixes.
const SUF2: u64 = fnv1a(b"suf2=");
const SUF3: u64 = fnv1a(b"suf3=");
const PRE3: u64 = fnv1a(b"pre3=");
const CTX: u64 = fnv1a(b"ctx=");
const SHAPE_DIGIT: u64 = fnv1a(b"shape=digit");
const SHAPE_ALLCAPS: u64 = fnv1a(b"shape=allcaps");
const SHAPE_INITCAP: u64 = fnv1a(b"shape=initcap");
const SHAPE_ALNUM_MIX: u64 = fnv1a(b"shape=alnum-mix");
const SHAPE_HYPHEN: u64 = fnv1a(b"shape=hyphen");
const SHAPE_PUNCT: u64 = fnv1a(b"shape=punct");
/// `capslen=0` .. `capslen=6` and `len=0` .. `len=8`.
const CAPSLEN: [u64; 7] = digit_features(b"capslen=");
const LEN: [u64; 9] = digit_features(b"len=");

/// Streaming FNV-1a over byte pieces: `Fnv(fnv1a(a)).upd(b).finish()`
/// equals `fnv1a` of the concatenation. This is what lets the feature
/// extractor hash `"suf3=" + lowercase(suffix)` for ASCII tokens without
/// materializing the string — the hash stays bit-identical to the
/// `format!`-based extraction it replaced.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    #[inline]
    fn upd(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Hashes `bytes` as if each had been ASCII-lowercased first.
    #[inline]
    fn upd_lower(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b.to_ascii_lowercase() as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A token's lower-cased form hashed under the `w=`, `w-1=` and `w+1=`
/// prefixes: the word feature of its own position and the window
/// features of the positions after and before it.
type WordHashes = [u64; 3];

/// Hashes every token of a sentence once, into `out[i]` for token `i`,
/// so that no position hashes its neighbours again. The three prefixes'
/// FNV chains advance in lockstep over the token's bytes: they are
/// independent, so the CPU overlaps their multiplies.
fn word_hashes(tokens: &[&str], out: &mut Vec<WordHashes>) {
    // lint:hot_loop(begin): CRF per-sentence word hashing
    out.clear();
    out.reserve(tokens.len());
    for t in tokens {
        out.push(if t.is_ascii() {
            lockstep_lower(t.as_bytes())
        } else {
            // `to_lowercase` can change the byte count (`İ` lowers to
            // `i` + U+0307), and its output holds no ASCII upper case, so
            // the lockstep's ASCII fold leaves it as it is.
            // lint:allow(hot_loop_alloc): non-ASCII fallback, rare on web text
            lockstep_lower(t.to_lowercase().as_bytes())
        });
    }
    // lint:hot_loop(end)
}

#[inline]
fn lockstep_lower(bytes: &[u8]) -> WordHashes {
    let [mut w, mut prev, mut next] = WORD_PREFIXES;
    for &b in bytes {
        let x = b.to_ascii_lowercase() as u64;
        w = (w ^ x).wrapping_mul(FNV_PRIME);
        prev = (prev ^ x).wrapping_mul(FNV_PRIME);
        next = (next ^ x).wrapping_mul(FNV_PRIME);
    }
    [w, prev, next]
}

/// Extracts hashed unary feature ids for position `i`; `words` is
/// [`word_hashes`] of `tokens`. `dim` is a power of two.
///
/// All-ASCII tokens (the overwhelmingly common case on web text) take an
/// allocation-free path: lowercasing folds into the hash loop and affix
/// features hash the prefix and token bytes in sequence. Tokens with
/// multi-byte chars fall back to materializing `to_lowercase()` — which
/// can change char counts (İ lowers to two chars), so the fallback also
/// preserves the original length-feature semantics exactly.
fn features(
    tokens: &[&str],
    words: &[WordHashes],
    i: usize,
    dim: usize,
    context: bool,
    out: &mut Vec<usize>,
) {
    // lint:hot_loop(begin): CRF per-token feature extraction
    debug_assert!(dim.is_power_of_two() && words.len() == tokens.len());
    out.clear();
    let w = tokens[i];
    // `h % dim`, as the ids were always taken, for a power-of-two `dim`
    let mask = dim as u64 - 1;
    let mut push_h = |h: u64| out.push((h & mask) as usize);

    push_h(words[i][0]);
    push_h(if i > 0 { words[i - 1][1] } else { BOS_PREV });
    push_h(if i + 1 < tokens.len() { words[i + 1][2] } else { EOS_NEXT });

    // Affix features over the lowercased form; `n` is its char count.
    // Then the orthographic shape: digit, alphabetic, all upper case
    // (alphabetic with no lower case), initial upper case, hyphen.
    let n;
    let (has_digit, has_alpha, all_upper, init_upper, hyphen);
    if w.is_ascii() {
        let wb = w.as_bytes();
        n = wb.len();
        if n >= 2 {
            push_h(Fnv(SUF2).upd_lower(&wb[n - 2..]).finish());
        }
        if n >= 3 {
            push_h(Fnv(SUF3).upd_lower(&wb[n - 3..]).finish());
            push_h(Fnv(PRE3).upd_lower(&wb[..3]).finish());
        }
        // the `char` predicates below, on ASCII, in one pass
        let (mut digit, mut alpha, mut lower, mut dash) = (false, false, false, false);
        for &b in wb {
            digit |= b.is_ascii_digit();
            alpha |= b.is_ascii_alphabetic();
            lower |= b.is_ascii_lowercase();
            dash |= b == b'-';
        }
        (has_digit, has_alpha, all_upper) = (digit, alpha, alpha && !lower);
        init_upper = wb.first().is_some_and(u8::is_ascii_uppercase);
        hyphen = dash;
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
        has_digit = w.chars().any(|c| c.is_ascii_digit());
        has_alpha = w.chars().any(char::is_alphabetic);
        all_upper = has_alpha && w.chars().all(|c| !c.is_lowercase());
        init_upper = w.chars().next().is_some_and(char::is_uppercase);
        hyphen = w.contains('-');
    }

    if has_digit {
        push_h(SHAPE_DIGIT);
    }
    if all_upper {
        push_h(SHAPE_ALLCAPS);
        push_h(CAPSLEN[n.min(6)]);
    } else if init_upper {
        push_h(SHAPE_INITCAP);
    }
    if has_digit && has_alpha {
        push_h(SHAPE_ALNUM_MIX);
    }
    if hyphen {
        push_h(SHAPE_HYPHEN);
    }
    if !has_alpha && !has_digit {
        push_h(SHAPE_PUNCT);
    }
    push_h(LEN[n.min(8)]);

    if context {
        // Sentence-wide bag-of-words context: one feature per other token.
        // Deliberately O(sentence length) per position — this is what makes
        // the rich ML taggers quadratic per sentence (Fig. 3b).
        for (j, t) in tokens.iter().enumerate() {
            if j != i {
                let h = Fnv(CTX);
                push_h(if t.is_ascii() {
                    h.upd_lower(t.as_bytes()).finish()
                } else {
                    h.upd(t.to_lowercase().as_bytes()).finish()
                });
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
        let mut scratch = Scratch::default();

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
                model.sgd_step(ex, lr, config.l2, &mut scratch);
            }
        }
        model
    }

    /// One SGD step on one example: forward-backward for expectations, then
    /// `w += lr * (observed - expected) - lr * l2 * w` on touched weights.
    fn sgd_step(&mut self, ex: &TrainExample, lr: f32, l2: f32, scratch: &mut Scratch) {
        let tokens: Vec<&str> = ex.tokens.iter().map(String::as_str).collect();
        let n = tokens.len();
        word_hashes(&tokens, &mut scratch.words);

        // Unary scores and cached feature ids.
        let mut unary = vec![[0f64; NLABELS]; n];
        let mut all_feats: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let feats = &mut scratch.feats;
            features(&tokens, &scratch.words, i, self.dim, self.context_features, feats);
            unary[i] = self.unary(feats);
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

    /// Each label's summed weight over `feats`. Every feature's row of
    /// `NLABELS` weights is read once; each label still adds its features
    /// in `feats` order, from `0.0`, so the sums keep their bits.
    #[inline]
    fn unary(&self, feats: &[usize]) -> [f64; NLABELS] {
        let mut unary = [0f64; NLABELS];
        for &f in feats {
            let row = &self.weights[f * NLABELS..][..NLABELS];
            for y in 0..NLABELS {
                unary[y] += row[y] as f64;
            }
        }
        unary
    }

    /// Viterbi-decodes BIO labels for a tokenized sentence.
    pub fn decode(&self, tokens: &[&str]) -> Vec<Label> {
        let n = tokens.len();
        if n == 0 {
            return Vec::new();
        }
        // a position has at most 12 features besides its context ones
        let mut scratch = Scratch { words: Vec::new(), feats: Vec::with_capacity(16) };
        word_hashes(tokens, &mut scratch.words);
        let mut delta = vec![[f64::NEG_INFINITY; NLABELS]; n];
        let mut back = vec![[0u8; NLABELS]; n];
        for i in 0..n {
            let feats = &mut scratch.feats;
            features(tokens, &scratch.words, i, self.dim, self.context_features, feats);
            let unary = self.unary(feats);
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

    #[test]
    fn ascii_fast_path_features_match_reference() {
        // Sentences mixing the ASCII fast path with fallback tokens:
        // all-caps, digits, hyphens, empty-adjacent shapes, and multi-byte
        // chars including \u{130} whose lowercase has a different char
        // count than the raw token. Features are taken as `decode` and
        // `sgd_step` take them: from one `word_hashes` pass per sentence.
        let sentences: Vec<Vec<&str>> = vec![
            vec!["BRCA1", "and", "GAD-67", "interact", "."],
            vec!["\u{130}stanbul", "na\u{ef}ve", "\u{212A}elvin", "ok"],
            vec!["x"],
            vec!["TP53", "3.5", "a-b-c", "ALLCAPSLONGWORD", ",", "\u{df}"],
            vec!["", "\u{130}", "A", "\u{212A}", "ẞ", "-"],
        ];
        let mut words = Vec::new();
        for toks in &sentences {
            word_hashes(toks, &mut words);
            for context in [false, true] {
                for i in 0..toks.len() {
                    let mut got = Vec::new();
                    features(toks, &words, i, 1 << 14, context, &mut got);
                    assert_eq!(
                        got,
                        reference::features(toks, i, 1 << 14, context),
                        "feature ids diverge at {i} in {toks:?} (context={context})"
                    );
                }
            }
        }
    }

    /// A model trained on `gene_examples` plus sentences holding the
    /// non-ASCII words of [`NON_ASCII`], with or without context features.
    fn model(context: bool) -> LinearChainCrf {
        LinearChainCrf::train(&examples_with_non_ascii(), config(context))
    }

    fn config(context_features: bool) -> CrfConfig {
        CrfConfig { context_features, ..quick_config() }
    }

    fn examples_with_non_ascii() -> Vec<TrainExample> {
        let mut ex = gene_examples();
        for (sentence, span) in [
            ("die Straße nach İstanbul ist groß", Some((3, 4))),
            ("the \u{212A} channel binds ß-catenin", Some((1, 2))),
            ("ΟΔΟΣ και ΛΟΓΟΣ", None),
            ("İ", Some((0, 1))),
        ] {
            ex.push(TrainExample::from_spans(toks(sentence), span.as_slice()));
        }
        ex
    }

    const ASCII: &[&str] = &[
        "the", "The", "gene", "BRCA1", "TP53", "JAK2", "USA", "mutations", "in", "of", "cause",
        "cancer", "expression", "increased", "GAD-67", "a-b-c", "3.5", "42", ".", ",", "(", ")",
        "-", "", "x", "ALLCAPSLONGWORD", "loss", "was", "observed", "we", "analyzed", "samples",
    ];
    const NON_ASCII: &[&str] = &[
        "İ", "İstanbul", "İSTANBUL", "ß", "ẞ", "Straße", "groß", "\u{212A}", "\u{212A}elvin",
        "naïve", "ΟΔΟΣ", "ΛΟΓΟΣ", "και", "Σ", "ς", "ß-catenin", "𐐔𐐯𐑅", "ﬁn", "中文", "É",
    ];

    fn random_sentence<'a>(rng: &mut rand::rngs::StdRng, pools: &[&[&'a str]], len: usize) -> Vec<&'a str> {
        use rand::Rng;
        (0..len)
            .map(|_| {
                let pool = pools[rng.random_range(0..pools.len())];
                pool[rng.random_range(0..pool.len())]
            })
            .collect()
    }

    /// `decode` against the reference decoder: the same labels, and at
    /// every position the same unary scores, bit for bit.
    fn assert_agrees(model: &LinearChainCrf, tokens: &[&str]) {
        assert_eq!(model.decode(tokens), reference::decode(model, tokens), "tokens = {tokens:?}");
        let (mut words, mut feats) = (Vec::new(), Vec::new());
        word_hashes(tokens, &mut words);
        for i in 0..tokens.len() {
            features(tokens, &words, i, model.dim, model.context_features, &mut feats);
            let want = reference::unary(model, &reference::features(tokens, i, model.dim, model.context_features));
            assert_eq!(
                model.unary(&feats).map(f64::to_bits),
                want.map(f64::to_bits),
                "position {i} of {tokens:?}"
            );
        }
    }

    #[test]
    fn differential_crf_seeded_sentences() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let pools: [&[&[&str]]; 3] = [&[ASCII], &[NON_ASCII], &[ASCII, NON_ASCII]];
        for context in [false, true] {
            let model = model(context);
            for pools in pools {
                for _ in 0..40 {
                    let len = rng.random_range(2..=40);
                    assert_agrees(&model, &random_sentence(&mut rng, pools, len));
                }
            }
        }
    }

    #[test]
    fn differential_crf_single_tokens_and_empty() {
        for context in [false, true] {
            let model = model(context);
            assert_agrees(&model, &[]);
            for token in ASCII.iter().chain(NON_ASCII) {
                assert_agrees(&model, &[token]);
                assert_agrees(&model, &[token, token]);
            }
        }
    }

    #[test]
    fn differential_crf_training_matches_reference_weights() {
        // Training takes its features from the same per-sentence pass as
        // decoding; every weight and transition must keep its bits.
        for context in [false, true] {
            let examples = examples_with_non_ascii();
            let got = LinearChainCrf::train(&examples, config(context));
            let want = reference::train(&examples, config(context));
            assert!(got.weights.iter().any(|&w| w != 0.0));
            assert!(
                got.weights.iter().map(|w| w.to_bits()).eq(want.weights.iter().map(|w| w.to_bits())),
                "weights differ (context={context})"
            );
            assert_eq!(got.trans.map(|r| r.map(f32::to_bits)), want.trans.map(|r| r.map(f32::to_bits)));
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn crf_random_tokens_over_a_casing_palette(
                tokens in proptest::collection::vec("[a-eA-E0-9.,İßẞ\u{212A}Σσé-]{0,6}", 0..30),
                context in 0usize..2,
            ) {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                assert_agrees(&model(context == 1), &refs);
            }
        }
    }
}

/// The implementations the per-sentence hashing pass replaced, kept as
/// the oracle of the differential tests: the `format!`-based feature
/// extractor that predates every fast path, and `decode`, `train` and
/// `sgd_step` as they were, with feature ids taken from it and `self`
/// spelled `model`.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn features(tokens: &[&str], i: usize, dim: usize, context: bool) -> Vec<usize> {
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

    /// The unary scores as `decode` summed them: label by label.
    pub fn unary(model: &LinearChainCrf, feats: &[usize]) -> [f64; NLABELS] {
        let mut unary = [0f64; NLABELS];
        for y in 0..NLABELS {
            for &f in feats {
                unary[y] += model.weights[f * NLABELS + y] as f64;
            }
        }
        unary
    }

    pub fn decode(model: &LinearChainCrf, tokens: &[&str]) -> Vec<Label> {
        let n = tokens.len();
        if n == 0 {
            return Vec::new();
        }
        let mut delta = vec![[f64::NEG_INFINITY; NLABELS]; n];
        let mut back = vec![[0u8; NLABELS]; n];
        for i in 0..n {
            let unary = unary(model, &features(tokens, i, model.dim, model.context_features));
            if i == 0 {
                delta[0] = unary;
            } else {
                for y in 0..NLABELS {
                    let mut best = (f64::NEG_INFINITY, 0usize);
                    for yp in 0..NLABELS {
                        let s = delta[i - 1][yp] + model.trans[yp][y] as f64;
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

    pub fn train(examples: &[TrainExample], config: CrfConfig) -> LinearChainCrf {
        let mut model = LinearChainCrf {
            weights: vec![0.0; config.dim * NLABELS],
            trans: [[0.0; NLABELS]; NLABELS],
            dim: config.dim,
            context_features: config.context_features,
        };
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng_state = config.shuffle_seed.unwrap_or(0);
        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f32);
            if config.shuffle_seed.is_some() {
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
                sgd_step(&mut model, ex, lr, config.l2);
            }
        }
        model
    }

    fn sgd_step(model: &mut LinearChainCrf, ex: &TrainExample, lr: f32, l2: f32) {
        let tokens: Vec<&str> = ex.tokens.iter().map(String::as_str).collect();
        let n = tokens.len();
        let mut unary = vec![[0f64; NLABELS]; n];
        let mut all_feats: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let feats = features(&tokens, i, model.dim, model.context_features);
            for y in 0..NLABELS {
                let mut s = 0f64;
                for &f in feats.iter() {
                    s += model.weights[f * NLABELS + y] as f64;
                }
                unary[i][y] = s;
            }
            all_feats.push(feats);
        }
        let mut alpha = vec![[f64::NEG_INFINITY; NLABELS]; n];
        alpha[0] = unary[0];
        for i in 1..n {
            for y in 0..NLABELS {
                let mut acc = [f64::NEG_INFINITY; NLABELS];
                for (yp, acc_slot) in acc.iter_mut().enumerate() {
                    *acc_slot = alpha[i - 1][yp] + model.trans[yp][y] as f64;
                }
                alpha[i][y] = logsumexp(&acc) + unary[i][y];
            }
        }
        let log_z = logsumexp(&alpha[n - 1]);
        let mut beta = vec![[0f64; NLABELS]; n];
        for i in (0..n - 1).rev() {
            for y in 0..NLABELS {
                let mut acc = [f64::NEG_INFINITY; NLABELS];
                for (yn, acc_slot) in acc.iter_mut().enumerate() {
                    *acc_slot = model.trans[y][yn] as f64 + unary[i + 1][yn] + beta[i + 1][yn];
                }
                beta[i][y] = logsumexp(&acc);
            }
        }
        for i in 0..n {
            let gold = ex.labels[i] as usize;
            let mut marg = [0f64; NLABELS];
            for y in 0..NLABELS {
                marg[y] = (alpha[i][y] + beta[i][y] - log_z).exp();
            }
            for &f in &all_feats[i] {
                for (y, &m) in marg.iter().enumerate() {
                    let idx = f * NLABELS + y;
                    let obs = if y == gold { 1.0 } else { 0.0 };
                    let w = &mut model.weights[idx];
                    *w += lr * ((obs - m) as f32) - lr * l2 * *w;
                }
            }
        }
        for i in 1..n {
            let gold_prev = ex.labels[i - 1] as usize;
            let gold = ex.labels[i] as usize;
            for yp in 0..NLABELS {
                for y in 0..NLABELS {
                    let lp = alpha[i - 1][yp] + model.trans[yp][y] as f64 + unary[i][y]
                        + beta[i][y]
                        - log_z;
                    let m = lp.exp();
                    let obs = if yp == gold_prev && y == gold { 1.0 } else { 0.0 };
                    model.trans[yp][y] += lr * ((obs - m) as f32);
                }
            }
        }
    }
}
