//! Character n-gram rank profiles (Cavnar & Trenkle), the structure behind
//! the language identifier.
//!
//! Text is viewed lower-cased, with every run of non-letters collapsed to a
//! single `_` and `_` padding at both ends. An n-gram of that view is one
//! packed `u64`: 21 bits per code point, first code point highest, zero
//! padding after the last. Code point 0 never occurs in the view, so a
//! shorter gram is a proper prefix with a smaller key, and comparing keys as
//! integers is comparing the grams as strings — the tie-break among equally
//! frequent grams needs no string at all.
//!
//! Counting makes one pass and allocates nothing per gram: grams over `_a-z`
//! (nearly all of a Latin-script page) index a flat table, the rest go to a
//! hash map. The `String`-based implementation this replaced lives on in
//! `reference` (test builds only) as the oracle of the differential tests.

use std::cell::RefCell;
use std::collections::HashMap;

/// Longest n-gram a packed key holds.
const MAX_GRAM: usize = 3;
const CHAR_BITS: u32 = 21;

/// While counting, a char of the normalized view is a *symbol*: `_` and
/// `a`..`z` — what nearly every gram of a Latin-script page is made of — are
/// the five-bit codes 1 and 3..=28 (code point minus `0x5E`); any other code
/// point is itself shifted above a flag bit, so one OR over a gram's symbols
/// tells whether all are five-bit. Such a *dense* gram is counted in a flat
/// table at its symbols packed right-aligned (0: no symbol) — right-aligned
/// so that the hottest counters, the unigrams', are neighbours and not 4 KiB
/// apart, where each load would falsely wait on the previous store.
const DENSE_BASE: u32 = 0x5E;
const DENSE_BITS: u32 = 5;
const NOT_DENSE: u32 = 1 << DENSE_BITS;
const DENSE_LEN: usize = 1 << (MAX_GRAM as u32 * DENSE_BITS);
const SEP: u32 = '_' as u32 - DENSE_BASE;

fn symbol(lower: char) -> u32 {
    if lower.is_ascii_lowercase() {
        lower as u32 - DENSE_BASE
    } else {
        (lower as u32) << (DENSE_BITS + 1) | NOT_DENSE
    }
}

fn code_point(symbol: u32) -> u32 {
    match symbol {
        0 => 0,
        s if s < NOT_DENSE => s + DENSE_BASE,
        s => s >> (DENSE_BITS + 1),
    }
}

/// Packs up to three code points, given first to last with any zero padding
/// in front, left-aligned.
fn pack(chars: [u32; MAX_GRAM]) -> u64 {
    let mut key = 0u64;
    for c in chars {
        key = key << CHAR_BITS | c as u64;
    }
    while key != 0 && key >> (2 * CHAR_BITS) == 0 {
        key <<= CHAR_BITS;
    }
    key
}

/// Packs a gram given as text; `None` for anything that cannot be a gram of
/// the normalized view (empty, longer than [`MAX_GRAM`], or containing NUL).
fn pack_str(gram: &str) -> Option<u64> {
    let mut chars = [0u32; MAX_GRAM];
    for (n, c) in gram.chars().enumerate() {
        if n == MAX_GRAM || c == '\0' {
            return None;
        }
        chars.rotate_left(1);
        chars[MAX_GRAM - 1] = c as u32;
    }
    (!gram.is_empty()).then(|| pack(chars))
}

/// The packed key of the gram a dense-table index stands for.
fn dense_key(index: u32) -> u64 {
    let at = |shift: u32| code_point(index >> shift & (NOT_DENSE - 1));
    pack([at(2 * DENSE_BITS), at(DENSE_BITS), at(0)])
}

/// One text's gram counts: the fixed dense table plus O(distinct grams).
struct Counter {
    dense: Vec<u32>,
    /// Indices of the non-zero `dense` counters, so collecting a text's
    /// grams never walks the table.
    touched: Vec<u32>,
    /// Counts of the grams with a symbol outside `_a-z`, by packed key. The
    /// keys come from the page, hence the default (keyed) hasher.
    spill: HashMap<u64, u32>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            dense: vec![0; DENSE_LEN],
            touched: Vec::new(),
            spill: HashMap::new(),
        }
    }

    /// Counts the gram `[s2, s1, s0]` (0: no symbol, in front). A gram
    /// occurs at most once per normalized char, so `u32` counts hold for any
    /// text under 4 Gi chars.
    #[inline(always)]
    fn bump(&mut self, s2: u32, s1: u32, s0: u32) {
        if s2 | s1 | s0 < NOT_DENSE {
            let index = (s2 << DENSE_BITS | s1) << DENSE_BITS | s0;
            let n = &mut self.dense[index as usize];
            *n += 1;
            if *n == 1 {
                self.touched.push(index);
            }
        } else {
            self.bump_spilled([s2, s1, s0]);
        }
    }

    fn bump_spilled(&mut self, gram: [u32; MAX_GRAM]) {
        *self.spill.entry(pack(gram.map(code_point))).or_insert(0) += 1;
    }

    /// Counts the 1..=`max_n`-grams ending in symbol `s`, given the two
    /// symbols before it; returns the two before the next.
    #[inline(always)]
    fn push(&mut self, [s2, s1]: [u32; 2], s: u32, max_n: usize) -> [u32; 2] {
        self.bump(0, 0, s);
        if max_n >= 2 && s1 != 0 {
            self.bump(0, s1, s);
            if max_n >= 3 && s2 != 0 {
                self.bump(s2, s1, s);
            }
        }
        [s1, s]
    }

    /// Normalizes `text` and counts its grams in one pass; returns the
    /// number of alphabetic chars seen. Out of line for a register
    /// allocation of its own.
    #[inline(never)]
    fn count(&mut self, text: &str, max_n: usize) -> usize {
        let mut letters = 0;
        let mut prev = self.push([0; 2], SEP, max_n);
        let mut last_sep = true;
        // lint:hot_loop(begin): n-gram normalize/count scan loop
        for c in text.chars() {
            let letter = if c.is_ascii_alphabetic() {
                prev = self.push(prev, (c as u32 | 0x20) - DENSE_BASE, max_n);
                true
            } else if c.is_alphabetic() {
                // may expand to several chars, not all of them letters
                for lower in c.to_lowercase() {
                    prev = self.push(prev, symbol(lower), max_n);
                }
                true
            } else {
                if !last_sep {
                    prev = self.push(prev, SEP, max_n);
                }
                false
            };
            letters += usize::from(letter);
            last_sep = !letter;
        }
        // lint:hot_loop(end)
        if !last_sep {
            self.push(prev, SEP, max_n);
        }
        letters
    }

    /// Forgets every gram counted, zeroing only the touched slots of the
    /// dense table. The spill map is replaced, not cleared: one text in
    /// another script would otherwise leave its capacity behind, and a
    /// sparse map made every later text slower to count than a fresh one.
    fn clear(&mut self) {
        for &i in &self.touched {
            self.dense[i as usize] = 0;
        }
        self.touched.clear();
        self.spill = HashMap::new();
    }

    /// The `top_k` most frequent grams counted, most frequent first, ties
    /// by ascending key.
    fn top(&self, top_k: usize) -> Vec<(u64, u32)> {
        let mut grams = Vec::with_capacity(self.touched.len() + self.spill.len());
        grams.extend(
            self.touched
                .iter()
                .map(|&i| (dense_key(i), self.dense[i as usize])),
        );
        grams.extend(self.spill.iter().map(|(&key, &n)| (key, n)));
        // A total order (keys are distinct), so selecting the top and then
        // sorting it equals sorting everything and truncating.
        let order = |a: &(u64, u32), b: &(u64, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if grams.len() > top_k {
            grams.select_nth_unstable_by(top_k, order);
            grams.truncate(top_k);
        }
        grams.sort_unstable_by(order);
        grams
    }
}

thread_local! {
    /// One counter per thread, reused from text to text, so that a text
    /// does not pay for allocating and zeroing a fresh 128 KiB dense table.
    static COUNTER: RefCell<Counter> = RefCell::new(Counter::new());
}

/// An n-gram frequency profile: the `top_k` most frequent n-grams of sizes
/// `1..=max_n`, ranked — the structure used for out-of-place language
/// identification.
#[derive(Debug, Clone)]
pub struct NgramProfile {
    /// (packed gram, rank) with rank 0 the most frequent, sorted by gram.
    ranks: Vec<(u64, usize)>,
    top_k: usize,
}

impl NgramProfile {
    /// Builds a profile from `text` using n-gram lengths `1..=max_n`
    /// (at most 3: what a packed key holds), keeping the `top_k` most
    /// frequent; equally frequent n-grams rank in lexicographic order.
    pub fn build(text: &str, max_n: usize, top_k: usize) -> NgramProfile {
        NgramProfile::build_counting_letters(text, max_n, top_k).0
    }

    /// [`NgramProfile::build`], also returning how many alphabetic chars
    /// `text` holds (the same pass sees them).
    pub(crate) fn build_counting_letters(
        text: &str,
        max_n: usize,
        top_k: usize,
    ) -> (NgramProfile, usize) {
        assert!(
            (1..=MAX_GRAM).contains(&max_n),
            "n-gram length must be 1..={MAX_GRAM}"
        );
        COUNTER.with(|counter| Self::build_with(&mut counter.borrow_mut(), text, max_n, top_k))
    }

    /// [`NgramProfile::build_counting_letters`] on `counter`, cleared first
    /// (so an earlier text's counts never leak in, even one cut short).
    fn build_with(
        counter: &mut Counter,
        text: &str,
        max_n: usize,
        top_k: usize,
    ) -> (NgramProfile, usize) {
        counter.clear();
        let letters = counter.count(text, max_n);
        let top = counter.top(top_k);
        let mut ranks: Vec<(u64, usize)> = top
            .into_iter()
            .enumerate()
            .map(|(rank, (key, _))| (key, rank))
            .collect();
        ranks.sort_unstable();
        (NgramProfile { ranks, top_k }, letters)
    }

    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    pub fn rank(&self, gram: &str) -> Option<usize> {
        let key = pack_str(gram)?;
        let at = self.ranks.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(self.ranks[at].1)
    }

    /// Cavnar-Trenkle "out-of-place" distance from `other` to `self`:
    /// for each n-gram in `other`, the rank difference in `self`, with a
    /// `top_k` penalty for absent n-grams. Lower = more similar.
    pub fn out_of_place(&self, other: &NgramProfile) -> u64 {
        // both sides are sorted by gram: a merge join
        let mut mine = self.ranks.iter().peekable();
        let mut dist = 0u64;
        for &(key, rank) in &other.ranks {
            while mine.next_if(|&&(k, _)| k < key).is_some() {}
            dist += match mine.peek() {
                Some(&&(k, r)) if k == key => r.abs_diff(rank) as u64,
                _ => self.top_k as u64,
            };
        }
        dist
    }
}

/// The `String`-keyed implementation the packed kernel replaced, kept as
/// the oracle of the differential tests.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    /// Extracts all character n-grams of length `n` from `text` (over a
    /// lower-cased, whitespace-normalized view with `_` padding at word
    /// boundaries, the Cavnar-Trenkle convention).
    pub fn char_ngrams(text: &str, n: usize) -> Vec<String> {
        assert!(n > 0, "n-gram length must be positive");
        let normalized = normalize(text);
        let chars: Vec<char> = normalized.chars().collect();
        if chars.len() < n {
            return Vec::new();
        }
        (0..=chars.len() - n)
            .map(|i| chars[i..i + n].iter().collect())
            .collect()
    }

    /// Lower-cases and replaces whitespace/punctuation runs with single `_`.
    pub fn normalize(text: &str) -> String {
        let mut out = String::with_capacity(text.len() + 2);
        out.push('_');
        let mut last_sep = true;
        for c in text.chars() {
            if c.is_alphabetic() {
                for lc in c.to_lowercase() {
                    out.push(lc);
                }
                last_sep = false;
            } else if !last_sep {
                out.push('_');
                last_sep = true;
            }
        }
        if !out.ends_with('_') {
            out.push('_');
        }
        out
    }

    #[derive(Debug, Clone)]
    pub struct NgramProfile {
        /// n-gram -> rank (0 = most frequent).
        pub ranks: HashMap<String, usize>,
        top_k: usize,
    }

    /// Every distinct 1..=`max_n`-gram of `text` with its count, in rank
    /// order.
    pub fn ranked_counts(text: &str, max_n: usize) -> Vec<(String, u64)> {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for n in 1..=max_n {
            for g in char_ngrams(text, n) {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        let mut sorted: Vec<(String, u64)> = counts.into_iter().collect();
        // Sort by descending count, then lexicographically for determinism.
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        sorted
    }

    impl NgramProfile {
        pub fn build(text: &str, max_n: usize, top_k: usize) -> NgramProfile {
            let mut sorted = ranked_counts(text, max_n);
            sorted.truncate(top_k);
            let ranks = sorted
                .into_iter()
                .enumerate()
                .map(|(rank, (g, _))| (g, rank))
                .collect();
            NgramProfile { ranks, top_k }
        }

        pub fn out_of_place(&self, other: &NgramProfile) -> u64 {
            let mut dist = 0u64;
            for (gram, &rank) in &other.ranks {
                dist += match self.ranks.get(gram) {
                    Some(&r) => (r as i64 - rank as i64).unsigned_abs(),
                    None => self.top_k as u64,
                };
            }
            dist
        }
    }

    /// Asserts that the packed kernel ranks exactly the reference's grams
    /// at exactly the reference's ranks.
    pub fn assert_same_profile(text: &str, max_n: usize, top_k: usize) {
        let fast = super::NgramProfile::build(text, max_n, top_k);
        let slow = NgramProfile::build(text, max_n, top_k);
        assert_eq!(
            fast.len(),
            slow.ranks.len(),
            "profile size, n={max_n} k={top_k}"
        );
        for (gram, &rank) in &slow.ranks {
            assert_eq!(
                fast.rank(gram),
                Some(rank),
                "rank of {gram:?}, n={max_n} k={top_k}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{assert_same_profile, char_ngrams, normalize};
    use super::*;

    #[test]
    fn normalize_pads_and_lowercases() {
        assert_eq!(normalize("The Cat"), "_the_cat_");
        assert_eq!(normalize("  hi!  "), "_hi_");
        assert_eq!(normalize(""), "_");
    }

    #[test]
    fn ngrams_of_short_text() {
        assert!(char_ngrams("", 3).is_empty());
        let grams = char_ngrams("ab", 3); // "_ab_" -> "_ab", "ab_"
        assert_eq!(grams, vec!["_ab", "ab_"]);
        let p = NgramProfile::build("ab", 3, 100);
        assert!(p.rank("_ab").is_some() && p.rank("ab_").is_some());
        assert_eq!(p.rank("abc"), None);
        assert_eq!(p.len(), 3 + 3 + 2); // "_ab_": 3 distinct chars, 3 bigrams, 2 trigrams
    }

    #[test]
    fn unigrams_cover_all_chars() {
        let grams = char_ngrams("cat", 1);
        assert_eq!(grams, vec!["_", "c", "a", "t", "_"]);
        let p = NgramProfile::build("cat", 1, 10);
        assert_eq!(p.rank("_"), Some(0));
        assert_eq!(
            (p.rank("a"), p.rank("c"), p.rank("t")),
            (Some(1), Some(2), Some(3))
        );
    }

    #[test]
    fn rank_rejects_what_is_not_a_gram() {
        let p = NgramProfile::build("the cat", 3, 100);
        for gram in ["", "_the", "a\0", "\0"] {
            assert_eq!(p.rank(gram), None, "{gram:?}");
        }
    }

    #[test]
    fn packed_key_order_is_string_order() {
        let grams = [
            "_",
            "_a",
            "_a_",
            "_ab",
            "a",
            "a_",
            "ab",
            "z",
            "zz",
            "ß",
            "é",
            "中",
            "\u{10FFFF}",
        ];
        for a in grams {
            for b in grams {
                assert_eq!(pack_str(a).cmp(&pack_str(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dense_index_decodes_to_the_gram_it_counts() {
        let mut counter = Counter::new();
        counter.count("Ab", 3);
        let mut keys: Vec<u64> = counter.touched.iter().map(|&i| dense_key(i)).collect();
        keys.sort_unstable();
        let grams = ["_", "_a", "_ab", "a", "ab", "ab_", "b", "b_"];
        assert_eq!(keys, grams.map(|g| pack_str(g).unwrap()));
        for c in ['_', 'a', 'z', 'é', '中', '\u{10FFFF}'] {
            let s = if c == '_' { SEP } else { symbol(c) };
            assert_eq!(code_point(s), c as u32);
            assert_eq!(s < NOT_DENSE, c.is_ascii());
        }
    }

    #[test]
    fn profile_ranks_frequent_first() {
        // 'a' dominates this text.
        let p = NgramProfile::build("aaa aaa aaa b", 1, 10);
        assert_eq!(p.rank("a"), Some(0));
        assert!(p.rank("b").unwrap() > 0);
    }

    #[test]
    fn out_of_place_zero_for_same_profile() {
        let p = NgramProfile::build("the quick brown fox", 3, 100);
        assert_eq!(p.out_of_place(&p), 0);
    }

    #[test]
    fn out_of_place_larger_for_different_language_like_text() {
        let en = NgramProfile::build(
            "the patient was treated with the drug and the disease receded",
            3,
            200,
        );
        let en2 = NgramProfile::build("the drug treats the disease in the patient", 3, 200);
        let xx = NgramProfile::build("zzyzx qqkrr wvvxz yyqzz kkkrr", 3, 200);
        assert!(en.out_of_place(&en2) < en.out_of_place(&xx));
    }

    #[test]
    fn profile_truncates_to_top_k() {
        let p = NgramProfile::build("abcdefghijklmnopqrstuvwxyz", 2, 5);
        assert!(p.len() <= 5);
        assert!(NgramProfile::build("abc", 3, 0).is_empty());
    }

    #[test]
    fn differential_profiles_across_lengths_and_cutoffs() {
        let texts = [
            "",
            "a",
            "The Cat sat on the mat; the cat sat.",
            "İstanbul ẞtraße ǅungla Ünïcödé ça",
            "日本語のテキスト と English mixed 中文",
        ];
        for text in texts {
            for max_n in 1..=3 {
                for top_k in [0, 1, 2, 5, 17, 400] {
                    assert_same_profile(text, max_n, top_k);
                }
            }
        }
    }

    #[test]
    fn the_reused_counter_builds_what_a_fresh_one_builds() {
        let texts = [
            "The Cat sat on the mat; the cat sat.",
            "",
            "日本語のテキスト と English mixed 中文",
            "a",
            "İstanbul ẞtraße ǅungla Ünïcödé ça",
            "The Cat sat on the mat; the cat sat.",
            &"zq".repeat(5000),
            "x y z",
        ];
        for max_n in 1..=3 {
            for top_k in [1, 17, 400] {
                for text in texts {
                    // this thread's counter, holding the previous text's counts
                    let (reused, letters) = NgramProfile::build_counting_letters(text, max_n, top_k);
                    let (fresh, fresh_letters) =
                        NgramProfile::build_with(&mut Counter::new(), text, max_n, top_k);
                    assert_eq!(reused.ranks, fresh.ranks, "{text:?} n={max_n} k={top_k}");
                    assert_eq!((reused.top_k, letters), (fresh.top_k, fresh_letters));
                }
            }
        }
    }

    #[test]
    fn scratch_memory_follows_distinct_grams_not_text_length() {
        let mut counter = Counter::new();
        counter.count(&"a".repeat(1 << 20), 3);
        // _, a, _a, a_, aa, _aa, aa_, aaa
        assert_eq!((counter.touched.len(), counter.spill.len()), (8, 0));
        assert!(counter.touched.capacity() <= 16);

        let mut counter = Counter::new();
        let text: String = "日本語".repeat(100_000);
        counter.count(&text, 3);
        assert_eq!(counter.touched.len(), 1); // "_"
        assert_eq!(counter.spill.len(), 3 + 5 + 5);
        assert!(counter.spill.capacity() <= 64);
    }
}
