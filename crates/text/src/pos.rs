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
//!
//! # The decoding kernel
//!
//! A trigram Viterbi step is 14³ = 2 744 add-add-compare-select cells per
//! token. Carrying a back-pointer through every one of them is what the
//! time went on, so [`PosTagger::tag`] does not: the forward pass computes
//! only maxima — `m = max over p1 of (delta[p1][t] + trans[p1,t,t2])` as
//! fourteen-lane rows of adds and selects with no branch, then
//! `delta'[t][t2] = m + e[t2]` once per cell — and keeps every step's
//! 14 × 14 scores. The backtrack then recovers a predecessor only for the
//! one cell per token on the best path, by rescanning that cell's fourteen
//! candidates for the first that reproduces the stored score.
//!
//! This is exact, not approximate. The loop it replaced (kept as
//! `reference`, the oracle of the differential tests) evaluated
//! `(delta + trans) + e` per candidate and kept the smallest `p1` attaining
//! the maximum (strict `>`). `fl(x + e)` is monotone in `x`, so hoisting
//! `e` out of the max leaves every stored score bit-equal; and the rescan
//! evaluates the reference's own expression, in the reference's order,
//! against that bit-equal score, so it stops at the same `p1`. All table
//! entries are finite, so no NaN or `-∞` arises once the two
//! sentence-initial steps (which have a boundary context instead of
//! fourteen predecessors) are peeled off.
//!
//! # Run-time dispatch
//!
//! The default x86-64 target allows SSE2 only: two `f64` lanes, seven
//! vector ops per fourteen-lane row. So the one decoding body is compiled
//! three times — as plain code (the fallback on every other target and on
//! CPUs without AVX2), inside an `avx2` and inside an `avx512f`
//! `#[target_feature]` wrapper — and every call picks the widest one the
//! CPU has ([`kernel`] names it). The body and `best_through` are
//! `#[inline(always)]`, so each wrapper gets its own copy built for its
//! lane width; `best_through` takes two columns `t` per call, which gives
//! the CPU two independent max chains to overlap. The three copies
//! compute the same bits: `f64` add and the `x > m` select are exact IEEE
//! operations at any width (the select is precisely `maxpd(x, m)`), and
//! Rust never contracts an add into an FMA. The differential tests run
//! every path the host supports against the reference.
//!
//! Memory is one allocation per call: 15 rows of 14 `f64` per token (the
//! score slab plus the token's emission row, which the rescan needs) —
//! 1 680 B/token, 840 KB at the default budget of 500 tokens.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Simplified MedPost-style tag set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// The tag's name as `{:?}` prints it — what sinks and stores contain.
    pub fn name(self) -> &'static str {
        use PosTag::*;
        match self {
            Noun => "Noun",
            ProperNoun => "ProperNoun",
            Verb => "Verb",
            Adjective => "Adjective",
            Adverb => "Adverb",
            Pronoun => "Pronoun",
            Determiner => "Determiner",
            Preposition => "Preposition",
            Conjunction => "Conjunction",
            Number => "Number",
            Punctuation => "Punctuation",
            Modal => "Modal",
            Participle => "Participle",
            Other => "Other",
        }
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
/// Rows of `[f64; TAG_COUNT]` the decoder keeps per token: the 14 × 14
/// score slab, then the token's emission row.
const LATTICE_ROWS: usize = TAG_COUNT + 1;
/// Columns `t` of a Viterbi step that `best_through` computes together
/// (a divisor of `TAG_COUNT`).
const COLUMNS: usize = 2;

/// Interpolation weights for trigram/bigram/unigram transition estimates.
const LAMBDA: (f64, f64, f64) = (0.6, 0.3, 0.1);

/// The decoding kernels compiled into this build, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Avx512f,
    Avx2,
    Scalar,
}

impl Kernel {
    const ALL: [Kernel; 3] = [Kernel::Avx512f, Kernel::Avx2, Kernel::Scalar];

    fn name(self) -> &'static str {
        match self {
            Kernel::Avx512f => "avx512f",
            Kernel::Avx2 => "avx2",
            Kernel::Scalar => "scalar",
        }
    }

    /// Can this CPU run the kernel? (std caches the answer after the
    /// first query, so asking per sentence is one atomic load.)
    fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx512f => std::is_x86_feature_detected!("avx512f"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The widest kernel this CPU runs.
    fn detect() -> Kernel {
        Kernel::ALL.into_iter().find(|k| k.supported()).unwrap_or(Kernel::Scalar)
    }
}

/// The decoding kernel [`PosTagger::tag`] runs on this CPU: `"avx512f"`,
/// `"avx2"` or `"scalar"`. Every kernel computes the same tags and score
/// bits; only the wall time differs.
pub fn kernel() -> &'static str {
    Kernel::detect().name()
}

/// The trained tagger.
#[derive(Debug, Clone)]
pub struct PosTagger {
    /// log P(t | p2, p1), indexed `[p2 * CONTEXTS + p1][t]`.
    trans: Vec<[f64; TAG_COUNT]>,
    /// log P(w | t) for known (lower-cased) words.
    emit: HashMap<String, [f64; TAG_COUNT]>,
    /// log P(t | suffix) for the unknown-word model.
    suffix: HashMap<String, [f64; TAG_COUNT]>,
    /// log P(t) priors.
    prior: [f64; TAG_COUNT],
    /// Token budget per sentence (the crash threshold).
    max_tokens: usize,
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
        let mut trans = vec![[0.0f64; TAG_COUNT]; CONTEXTS * CONTEXTS];
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
                    trans[p2 * CONTEXTS + p1][t] = p.max(1e-12).ln();
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
        }
    }

    /// Overrides the per-sentence token budget (the crash threshold).
    pub fn with_max_tokens(mut self, max_tokens: usize) -> PosTagger {
        assert!(max_tokens > 0);
        self.max_tokens = max_tokens;
        self
    }

    /// A tagger trained on the embedded abstract-style corpus — the analogue
    /// of MedPost's model trained on Medline sentences. Built once.
    pub fn pretrained() -> &'static PosTagger {
        static TAGGER: OnceLock<PosTagger> = OnceLock::new();
        TAGGER.get_or_init(|| PosTagger::train(&builtin_training_corpus()))
    }

    /// Log emission scores for `word` over all tags. `lower` is scratch
    /// the caller reuses across a sentence: an ASCII word is lower-cased
    /// into it in place, so the model is probed without allocating.
    fn emission(&self, word: &str, lower: &mut String) -> [f64; TAG_COUNT] {
        if word.is_ascii() {
            lower.clear();
            lower.push_str(word);
            lower.make_ascii_lowercase();
        } else {
            // Final sigma and multi-char expansions are `str::to_lowercase`'s.
            *lower = word.to_lowercase();
        }
        let lower = lower.as_str();
        if let Some(arr) = self.emit.get(lower) {
            return *arr;
        }
        // Unknown word: suffix model + orthographic cues, converted to an
        // emission-like score by dividing out the tag prior. The longest
        // known suffix of up to MAX_SUFFIX chars wins.
        let longest = lower.char_indices().rev().take(MAX_SUFFIX).last().map_or(0, |(at, _)| at);
        let tail = &lower[longest..];
        let best = tail.char_indices().find_map(|(at, _)| self.suffix.get(&tail[at..]));
        let mut scores: [f64; TAG_COUNT] = match best {
            Some(arr) => std::array::from_fn(|t| arr[t] - self.prior[t] - 8.0),
            None => [-10.0; TAG_COUNT],
        };
        // Orthographic cues for the biomedical domain.
        let first_upper = word.chars().next().is_some_and(char::is_uppercase);
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
        if matches!(word.as_bytes(), [b] if !b.is_ascii_alphanumeric()) {
            scores[PosTag::Punctuation.index()] += 8.0;
        }
        scores
    }

    /// Tags a tokenized sentence via Viterbi decoding over tag-pair states.
    ///
    /// Runtime is `O(n · T^3)` with `T = 14` tags — linear in sentence
    /// length. Sentences longer than the configured budget return
    /// [`PosError::SentenceTooLong`].
    ///
    /// The forward pass computes maxima only and keeps every step's scores
    /// (one allocation of 1 680 B/token, bounded by the token budget); the
    /// backtrack re-derives the predecessor of each cell on the best path
    /// by rescanning for the first candidate that reproduces the stored
    /// score. Tags and path score are bit-equal to the back-pointer
    /// formulation — see the module docs for why.
    pub fn tag(&self, tokens: &[&str]) -> Result<Vec<PosTag>, PosError> {
        self.tag_on(Kernel::detect(), tokens)
    }

    /// [`PosTagger::tag`] on `kernel`.
    fn tag_on(&self, kernel: Kernel, tokens: &[&str]) -> Result<Vec<PosTag>, PosError> {
        if tokens.is_empty() {
            return Err(PosError::EmptySentence);
        }
        if tokens.len() > self.max_tokens {
            return Err(PosError::SentenceTooLong {
                tokens: tokens.len(),
                limit: self.max_tokens,
            });
        }
        Ok(self.decode_on(kernel, tokens).0)
    }

    /// The best tag sequence of a non-empty sentence and its log score,
    /// computed on `kernel`, or on the scalar body when this CPU cannot
    /// run `kernel`.
    fn decode_on(&self, kernel: Kernel, tokens: &[&str]) -> (Vec<PosTag>, f64) {
        match kernel {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: the guard has just checked that this CPU has avx512f.
            Kernel::Avx512f if kernel.supported() => unsafe { self.decode_avx512f(tokens) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: the guard has just checked that this CPU has avx2.
            Kernel::Avx2 if kernel.supported() => unsafe { self.decode_avx2(tokens) },
            _ => self.decode_body(tokens),
        }
    }

    // lint:hot_loop(begin): POS Viterbi wide wrappers
    /// The decoding body built for 512-bit vectors.
    ///
    /// # Safety
    ///
    /// The caller must have checked that this CPU has avx512f.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    fn decode_avx512f(&self, tokens: &[&str]) -> (Vec<PosTag>, f64) {
        self.decode_body(tokens)
    }

    /// The decoding body built for 256-bit vectors.
    ///
    /// # Safety
    ///
    /// The caller must have checked that this CPU has avx2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn decode_avx2(&self, tokens: &[&str]) -> (Vec<PosTag>, f64) {
        self.decode_body(tokens)
    }
    // lint:hot_loop(end)

    /// The one decoding body every kernel compiles: forward maxima, then
    /// the rescanning backtrack (module docs).
    #[inline(always)]
    fn decode_body(&self, tokens: &[&str]) -> (Vec<PosTag>, f64) {
        let n = tokens.len();
        let mut lower = String::new();
        // Token i owns rows [i * LATTICE_ROWS ..][..LATTICE_ROWS]: row p1
        // (< TAG_COUNT) holds delta_i[p1][t], the best log-prob of a path
        // whose last two tags are (p1, t); row TAG_COUNT holds e_i from
        // token 2 on, where the backtrack reads it. Token 0 has no p1: its
        // scores sit in row 0.
        let mut lattice = vec![[0.0f64; TAG_COUNT]; n * LATTICE_ROWS];

        // The two sentence-initial steps have the boundary pseudo-tag for
        // context instead of fourteen predecessors.
        let e = self.emission(tokens[0], &mut lower);
        let from_bos = &self.trans[BOS * CONTEXTS + BOS];
        lattice[0] = std::array::from_fn(|t| from_bos[t] + e[t]);
        if n > 1 {
            let e = self.emission(tokens[1], &mut lower);
            let first = lattice[0];
            for t in 0..TAG_COUNT {
                let row = &self.trans[BOS * CONTEXTS + t];
                lattice[LATTICE_ROWS + t] = std::array::from_fn(|t2| (first[t] + row[t2]) + e[t2]);
            }
        }
        for (i, token) in tokens.iter().enumerate().skip(2) {
            let e = self.emission(token, &mut lower);
            let (done, cur) = lattice.split_at_mut(i * LATTICE_ROWS);
            let prev = &done[(i - 1) * LATTICE_ROWS..][..TAG_COUNT];
            for (t0, next) in cur[..TAG_COUNT].chunks_exact_mut(COLUMNS).enumerate() {
                // state (p1, t) moves to (t, t2)
                let m = self.best_through(prev, t0 * COLUMNS);
                for (next, m) in next.iter_mut().zip(&m) {
                    *next = std::array::from_fn(|t2| m[t2] + e[t2]);
                }
            }
            cur[TAG_COUNT] = e;
        }

        // Best final state, the first in (p1, t) order on ties.
        let last = &lattice[(n - 1) * LATTICE_ROWS..][..if n == 1 { 1 } else { TAG_COUNT }];
        let (mut p1, mut t, mut score) = (0, 0, f64::NEG_INFINITY);
        for (r, row) in last.iter().enumerate() {
            for (c, &s) in row.iter().enumerate() {
                if s > score {
                    (p1, t, score) = (r, c, s);
                }
            }
        }
        let best_score = score;

        // Backtrack. At step i, (p1, t) are the tags of tokens (i - 1, i)
        // and `score` is delta_i[p1][t]; the tag before them is the first
        // p0 whose candidate — the reference's expression, evaluated in
        // the reference's order — reproduces that score.
        let mut tags = vec![PosTag::from_index(t); n];
        for i in (2..n).rev() {
            tags[i - 1] = PosTag::from_index(p1);
            let prev = &lattice[(i - 1) * LATTICE_ROWS..][..TAG_COUNT];
            let e_t = lattice[i * LATTICE_ROWS + TAG_COUNT][t];
            let p0 = (0..TAG_COUNT)
                .find(|&p0| (prev[p0][p1] + self.trans[p0 * CONTEXTS + p1][t]) + e_t == score);
            debug_assert!(p0.is_some(), "token {i}: no predecessor reproduces {score}");
            let p0 = p0.unwrap_or(0);
            (p1, t, score) = (p0, p1, prev[p0][p1]);
        }
        if n > 1 {
            tags[0] = PosTag::from_index(p1);
        }
        (tags, best_score)
    }

    /// `max over p1 of (prev[p1][t] + trans[p1, t][t2])` for every `t2`
    /// and each of the columns `t = t0 .. t0 + COLUMNS`. Written as a
    /// select (`x > m`, as the reference compared) over fixed-width rows
    /// so it compiles to vector add/max with no branch; always inlined, so
    /// each kernel builds it at its own lane width. Each column folds its
    /// `p1` in order, as alone; taking columns together only gives the CPU
    /// independent max chains to overlap.
    #[inline(always)]
    fn best_through(&self, prev: &[[f64; TAG_COUNT]], t0: usize) -> [[f64; TAG_COUNT]; COLUMNS] {
        // lint:hot_loop(begin): POS Viterbi add/max rows
        let mut m = [[f64::NEG_INFINITY; TAG_COUNT]; COLUMNS];
        for (p1, scores) in prev.iter().enumerate() {
            for (k, m) in m.iter_mut().enumerate() {
                let d = scores[t0 + k];
                let row = &self.trans[p1 * CONTEXTS + t0 + k];
                for t2 in 0..TAG_COUNT {
                    let x = d + row[t2];
                    m[t2] = if x > m[t2] { x } else { m[t2] };
                }
            }
        }
        // lint:hot_loop(end)
        m
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

/// The implementation the max-only kernel replaced — a back-pointer per
/// Viterbi cell, an allocating emission model — kept as the oracle of the
/// differential tests. The bodies are the old methods' with `self` spelled
/// `tagger`, `trans` indexed by row, an unused loop counter dropped, and
/// the path score returned too.
#[cfg(test)]
mod reference {
    use super::*;

    /// Log emission scores for `word` over all tags.
    pub fn emission(tagger: &PosTagger, word: &str) -> [f64; TAG_COUNT] {
        let lower = word.to_lowercase();
        if let Some(arr) = tagger.emit.get(&lower) {
            return *arr;
        }
        // Unknown word: suffix model + orthographic cues, converted to an
        // emission-like score by dividing out the tag prior.
        let chars: Vec<char> = lower.chars().collect();
        let mut best: Option<&[f64; TAG_COUNT]> = None;
        for sl in (1..=MAX_SUFFIX.min(chars.len())).rev() {
            let suf: String = chars[chars.len() - sl..].iter().collect();
            if let Some(arr) = tagger.suffix.get(&suf) {
                best = Some(arr);
                break;
            }
        }
        let mut scores: [f64; TAG_COUNT] = match best {
            Some(arr) => std::array::from_fn(|t| arr[t] - tagger.prior[t] - 8.0),
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

    /// Viterbi decoding over tag-pair states with a back-pointer per cell;
    /// also returns the best path's log score.
    pub fn tag(tagger: &PosTagger, tokens: &[&str]) -> Result<(Vec<PosTag>, f64), PosError> {
        if tokens.is_empty() {
            return Err(PosError::EmptySentence);
        }
        if tokens.len() > tagger.max_tokens {
            return Err(PosError::SentenceTooLong {
                tokens: tokens.len(),
                limit: tagger.max_tokens,
            });
        }
        let n = tokens.len();
        // Viterbi over states (p1 context, t) where p1 ranges over CONTEXTS.
        // delta[p1][t] = best log-prob of a path ending with tags (p1, t).
        let neg = f64::NEG_INFINITY;
        let mut delta = vec![[neg; TAG_COUNT]; CONTEXTS];
        let mut backptr: Vec<Vec<[u8; TAG_COUNT]>> = Vec::with_capacity(n);

        let e0 = emission(tagger, tokens[0]);
        for t in 0..TAG_COUNT {
            delta[BOS][t] = tagger.trans[BOS * CONTEXTS + BOS][t] + e0[t];
        }
        backptr.push(vec![[BOS as u8; TAG_COUNT]; CONTEXTS]);

        for token in &tokens[1..] {
            let e = emission(tagger, token);
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
                            + tagger.trans[p1 * CONTEXTS + t][t2]
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
        Ok((tags.into_iter().map(PosTag::from_index).collect(), best.2))
    }
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
        // The one very long sentence Fig. 3a is about: 5 000 tokens decode
        // (time grows with n, memory is the n-row lattice) to the tags the
        // back-pointer reference assigns.
        let tagger = PosTagger::pretrained().clone().with_max_tokens(100_000);
        let mut tokens: Vec<&str> = std::iter::repeat_n("protein", 5_000).collect();
        for (i, word) in ["The", "TP53", "dramatically", "77.5", ",", "unseenword"].iter().enumerate() {
            for slot in tokens.iter_mut().skip(i * 7).step_by(97) {
                *slot = word;
            }
        }
        let tags = tagger.tag(&tokens).unwrap();
        assert_eq!(tags.len(), 5_000);
        assert_eq!(tags, reference::tag(&tagger, &tokens).unwrap().0);
    }

    #[test]
    fn tag_names_are_their_debug_form() {
        // `ie.annotate_pos` writes `name()` where it used to format `{:?}`.
        for tag in PosTag::all() {
            assert_eq!(tag.name(), format!("{tag:?}"));
        }
    }

    /// The kernels this CPU runs. Each one it lacks is named once per
    /// test process, as skipped.
    fn host_kernels() -> Vec<Kernel> {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| {
            for kernel in Kernel::ALL.into_iter().filter(|k| !k.supported()) {
                println!("pos: this CPU lacks {}; its kernel is not tested here", kernel.name());
            }
        });
        Kernel::ALL.into_iter().filter(|k| k.supported()).collect()
    }

    #[test]
    fn the_dispatched_kernel_is_the_widest_supported() {
        let kernels = host_kernels();
        assert_eq!(kernel(), kernels[0].name());
        assert_eq!(kernels.last(), Some(&Kernel::Scalar));
    }

    /// The max-only kernel against the back-pointer implementation it
    /// replaced, on every kernel this CPU runs: same `Result` (tags *and*
    /// errors), same emission rows and same best-path score, bit for bit.
    fn assert_agrees(tagger: &PosTagger, tokens: &[&str]) {
        let expected = reference::tag(tagger, tokens);
        let mut lower = String::new();
        for token in tokens {
            let (new, old) = (tagger.emission(token, &mut lower), reference::emission(tagger, token));
            assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits), "token = {token:?}");
        }
        assert_eq!(tagger.tag(tokens), expected.clone().map(|(tags, _)| tags), "tokens = {tokens:?}");
        for kernel in host_kernels() {
            assert_eq!(
                tagger.tag_on(kernel, tokens),
                expected.clone().map(|(tags, _)| tags),
                "{kernel:?}: tokens = {tokens:?}"
            );
            if let Ok((tags, score)) = &expected {
                let (new_tags, new_score) = tagger.decode_on(kernel, tokens);
                assert_eq!(&new_tags, tags, "{kernel:?}: tokens = {tokens:?}");
                assert_eq!(new_score.to_bits(), score.to_bits(), "{kernel:?}: tokens = {tokens:?}");
            }
        }
    }

    /// A model that is not `pretrained()`: other words (non-ASCII ones
    /// among them, so known-word probes take the `to_lowercase` path),
    /// other tag statistics, ambiguous words.
    fn custom_tagger() -> PosTagger {
        use PosTag::*;
        let sentence = |words: &[(&str, PosTag)]| -> Vec<(String, PosTag)> {
            words.iter().map(|(w, t)| (w.to_string(), *t)).collect()
        };
        PosTagger::train(&[
            sentence(&[("Die", Determiner), ("Straße", Noun), ("ist", Verb), ("groß", Adjective), (".", Punctuation)]),
            sentence(&[("ΟΔΟΣ", Noun), ("και", Conjunction), ("ΛΟΓΟΣ", Noun), (";", Punctuation)]),
            sentence(&[("İstanbul", ProperNoun), ("is", Verb), ("large", Adjective), ("and", Conjunction), ("old", Adjective)]),
            sentence(&[("large", Noun), ("is", Noun), ("𐐔𐐯𐑅", Other), ("42", Number), ("old", Noun), ("!", Punctuation)]),
            sentence(&[("and", Adverb), ("and", Conjunction), ("AND", ProperNoun)]),
        ])
    }

    const KNOWN: &[&str] = &[
        "the", "The", "gene", "protein", "regulates", "inhibits", "significant", "significantly",
        "it", "in", "of", "and", "may", "is", "treated", "TP53", "Aspirin", "42", "0.5", ".", ",",
        "(", ")", "that", "this", "These", "not", "etc",
    ];
    const UNKNOWN: &[&str] = &[
        "dramatically", "kinase", "MYC42", "HIV", "Xq28", "77.5", "1,000", "3", "-", "/", "%",
        "A", "b", "unseenword", "phosphorylated", "zzzz", "q", "IL-2", "p<0.01", "ATP", "Zürich",
        "naïve", "β-catenin", "", "...", "9a", "don't",
    ];
    const NON_ASCII: &[&str] = &[
        "İ", "İSTANBUL", "İstanbul", "ß", "ẞ", "STRAẞE", "Straße", "groß", "Σ", "ΟΔΟΣ", "ΛΟΓΟΣ",
        "ὈΔΥΣΣΕΎΣ", "σ", "ς", "και", "𐐔𐐯𐑅", "𐐀𐐁𐐂𐐃𐐄", "𝐀𝐁𝐂", "𝐚", "𠀀𠀁", "é", "É", "§", "¿",
        "ǅungla", "ﬁn", "ŉ", "中文", "😀", "１２", "٣", "ΑΣ.",
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

    #[test]
    fn differential_seeded_sentences_over_every_vocabulary() {
        use rand::{Rng, SeedableRng};
        let custom = custom_tagger();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let vocabularies: [&[&[&str]]; 5] =
            [&[KNOWN], &[UNKNOWN], &[NON_ASCII], &[KNOWN, UNKNOWN], &[KNOWN, UNKNOWN, NON_ASCII]];
        for pools in vocabularies {
            for tagger in [PosTagger::pretrained(), &custom] {
                for len in [1, 2, 3] {
                    for _ in 0..20 {
                        assert_agrees(tagger, &random_sentence(&mut rng, pools, len));
                    }
                }
                for _ in 0..40 {
                    let len = rng.random_range(4..=120);
                    assert_agrees(tagger, &random_sentence(&mut rng, pools, len));
                }
            }
        }
    }

    #[test]
    fn differential_every_single_token_and_pair() {
        // Lengths 1 and 2 never reach the 14-predecessor loop; cover the
        // two peeled steps exhaustively over the cue and casing tokens.
        let custom = custom_tagger();
        for tagger in [PosTagger::pretrained(), &custom] {
            for first in KNOWN.iter().chain(UNKNOWN).chain(NON_ASCII) {
                assert_agrees(tagger, &[first]);
                for second in ["the", "HIV", "ΟΔΟΣ", "."] {
                    assert_agrees(tagger, &[first, second]);
                    assert_agrees(tagger, &[second, first, second]);
                }
            }
        }
    }

    #[test]
    fn differential_token_budget_edges_and_empty() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(500);
        for limit in [1, 2, 3, 50, 500] {
            let tagger = PosTagger::pretrained().clone().with_max_tokens(limit);
            for len in [limit - 1, limit, limit + 1] {
                let tokens = random_sentence(&mut rng, &[KNOWN, UNKNOWN, NON_ASCII], len);
                assert_agrees(&tagger, &tokens);
                assert_eq!(tagger.tag(&tokens).is_ok(), (1..=limit).contains(&len));
            }
        }
        assert_agrees(&custom_tagger(), &[]);
    }

    #[test]
    fn differential_ties_keep_the_first_predecessor() {
        // One word repeated makes every step's emission row equal, and an
        // all-unknown sentence with no suffix evidence makes it flat
        // (-10 for every tag): ties between predecessors are then decided
        // by scan order alone, which the rescan has to reproduce.
        let custom = custom_tagger();
        for tagger in [PosTagger::pretrained(), &custom] {
            for word in ["protein", "zzzz", "qqqq", "and", "42", ".", "𐐔𐐯𐑅", "٣"] {
                for len in [2, 3, 4, 5, 17, 64, 300] {
                    assert_agrees(tagger, &vec![word; len]);
                }
            }
        }
    }

    /// `ie.annotate_pos` as it was before the max-only kernel — the
    /// reference tagger, each tag formatted with `{:?}` — carrying the
    /// plan metadata of the operator it stands in for.
    fn reference_annotate_pos(like: &websift_flow::Operator, tagger: PosTagger) -> websift_flow::Operator {
        use websift_flow::packages::ie::{sentence_spans, sentence_text};
        use websift_flow::{record::intern, FieldMap, Operator, Value};
        let mut op = Operator::map(&like.name, like.package, move |mut r| {
            let text = r.text_shared().unwrap_or_else(|| "".into());
            let mut errors = 0i64;
            let mut annotations = Vec::new();
            for (si, span) in sentence_spans(&r).into_iter().enumerate() {
                let sent = sentence_text(&text, span);
                let tokens = crate::tokenize::tokenize(sent);
                let strs: Vec<&str> = tokens.iter().map(|t| t.text(sent)).collect();
                match reference::tag(&tagger, &strs) {
                    Ok((tags, _)) => {
                        let tags = tags.iter().map(|t| Value::from(format!("{t:?}"))).collect();
                        let mut obj = FieldMap::with_capacity(2);
                        obj.insert(intern("sentence"), Value::Int(si as i64));
                        obj.insert(intern("tags"), Value::Array(tags));
                        annotations.push(Value::Object(obj));
                    }
                    Err(_) => errors += 1,
                }
            }
            r.set("pos", Value::Array(annotations));
            r.set("pos_errors", errors);
            r
        });
        op.reads.clone_from(&like.reads);
        op.writes.clone_from(&like.writes);
        op.cost = like.cost;
        op
    }

    #[test]
    fn differential_full_analysis_flow_matches_a_run_on_the_reference_tagger() {
        // The Fig. 2 flow links this crate as built for its users, so its
        // `ie.annotate_pos` runs the max-only kernel and the pooled tag
        // names; the oracle plan swaps that one node for the reference.
        // A budget of 40 tokens puts sentences on both sides of the
        // `pos_errors` path.
        use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
        use websift_flow::{IeResources, NodeOp};
        const BUDGET: usize = 40;
        let mut resources = IeResources::quick_for_tests(LexiconScale::tiny());
        resources.pos = std::sync::Arc::new((*resources.pos).clone().with_max_tokens(BUDGET));
        let plan = websift_pipeline::full_analysis_plan(&resources);
        let mut oracle = plan.clone();
        let mut swapped = 0;
        for node in oracle.nodes_mut() {
            if let NodeOp::Op(op) = &mut node.op {
                if op.name == "ie.annotate_pos" {
                    let tagger = PosTagger::pretrained().clone().with_max_tokens(BUDGET);
                    *op = reference_annotate_pos(op, tagger);
                    swapped += 1;
                }
            }
        }
        assert_eq!(swapped, 1);

        let lexicon = std::sync::Arc::new(Lexicon::generate(LexiconScale::tiny()));
        let docs: Vec<_> = [
            (CorpusKind::Medline, 10),
            (CorpusKind::Pmc, 2),
            (CorpusKind::RelevantWeb, 3),
            (CorpusKind::IrrelevantWeb, 3),
        ]
        .into_iter()
        .flat_map(|(kind, n)| Generator::with_lexicon(kind, 21, lexicon.clone()).documents(n))
        .collect();
        let got = websift_pipeline::run_over_documents(&plan, &docs, 2).unwrap();
        let want = websift_pipeline::run_over_documents(&oracle, &docs, 2).unwrap();

        let (mut tagged, mut errors) = (0, 0);
        for sink in ["entities", "entities_deduped"] {
            assert_eq!(got.sinks[sink].len(), want.sinks[sink].len(), "{sink}");
            for (g, w) in got.sinks[sink].iter().zip(&want.sinks[sink]) {
                assert_eq!(g.get("pos"), w.get("pos"), "{sink}");
                assert_eq!(g.get("pos_errors"), w.get("pos_errors"), "{sink}");
                tagged += g.get("pos").and_then(websift_flow::Value::as_array).map_or(0, <[_]>::len);
                errors += g.get("pos_errors").and_then(websift_flow::Value::as_int).unwrap_or(0);
            }
        }
        assert!(tagged > 0 && errors > 0, "{tagged} sentences tagged, {errors} over budget");
        assert_eq!(got.deterministic_digest(), want.deterministic_digest());
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn random_tokens_over_a_casing_palette(
                tokens in proptest::collection::vec("[a-eA-E0-9.,İßẞΣσ𐐔é-]{0,6}", 0..40),
                model in 0usize..2,
            ) {
                let custom = custom_tagger();
                let tagger = [PosTagger::pretrained(), &custom][model];
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                assert_agrees(tagger, &refs);
            }

            #[test]
            fn random_printable_tokens(tokens in proptest::collection::vec("\\PC{0,12}", 0..30)) {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                assert_agrees(PosTagger::pretrained(), &refs);
            }
        }
    }
}
