//! Aho-Corasick multi-pattern string matching, built from scratch.
//!
//! This is the core of the dictionary-based entity taggers: "an
//! automaton-based matching algorithm that quickly retrieves mentions of
//! entities even for large dictionaries" (the paper cites LINNAEUS). The
//! automaton is constructed over lower-cased characters when
//! case-insensitive matching is requested, uses BFS-computed failure links,
//! and reports all (possibly overlapping) pattern occurrences in a single
//! left-to-right scan — `O(text + matches)` after construction.
//!
//! # Layout
//!
//! Every table is a flat vector indexed by state number (the root is
//! state 0); nothing is keyed by hash.
//!
//! - **ASCII: a class-compressed DFA.** `classes` sends each ASCII byte to
//!   an alphabet class: one class per ASCII char the (folded) patterns
//!   use, and class 0 for every byte no pattern uses. Under case folding an
//!   upper-case byte gets its lower-case letter's class, so the scan never
//!   folds ASCII. `table` holds `state_count() × stride` next states, one
//!   row per state, with failure links resolved into it: rows are filled
//!   in BFS order, each one a copy of its failure state's row overwritten
//!   by the state's own gotos. An ASCII char therefore costs one load and
//!   never follows a failure link. The class map is what keeps rows short:
//!   biomedical dictionaries use a few dozen ASCII chars (38 for the
//!   standard gene dictionary), so a row is 38 entries instead of 128 —
//!   and the gene table 4.5 MB instead of 15 MB.
//! - **Non-ASCII: sorted edge slices.** Chars ≥ 0x80 (after folding) look
//!   up per-state sorted `(char, next)` slices in one arena and follow
//!   `fail` links like a textbook automaton. A char that folds to ASCII
//!   (Kelvin sign → `k`, `İ` → `i`) goes back to the table.
//! - **Outputs** sit in one arena: a state's own patterns, then its
//!   failure state's (recursively), so the matches ending at one position
//!   come longest first and duplicate patterns in pattern order.

use std::collections::BTreeMap;
use std::mem::size_of_val;

/// A match: pattern index plus byte span in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcMatch {
    pub pattern: usize,
    pub start: usize,
    pub end: usize,
}

/// The automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// ASCII byte → alphabet class (0: no pattern uses the byte).
    classes: Box<[u8; 128]>,
    /// Classes per state: the row length of `table`.
    stride: usize,
    /// `state × stride + class` → next state, failure links resolved.
    table: Vec<u32>,
    /// State `s`'s non-ASCII edges are `wide[wide_at[s]..wide_at[s + 1]]`,
    /// sorted by char.
    wide_at: Vec<u32>,
    wide: Vec<(char, u32)>,
    /// Failure link per state; the scan follows it for non-ASCII chars only.
    fail: Vec<u32>,
    /// State `s` reports `outputs[out_at[s].0..out_at[s].1]`.
    out_at: Vec<(u32, u32)>,
    outputs: Vec<u32>,
    /// Char length of each pattern (to compute match starts).
    pattern_char_lens: Vec<u32>,
    case_insensitive: bool,
    /// Bytes at which a scan sitting in the root state must stop skipping:
    /// ASCII bytes that can begin a pattern (including upper-case variants
    /// under folding) plus every byte ≥ 0x80. Non-ASCII text always takes
    /// the per-char path because a non-ASCII char can *fold to* an ASCII
    /// pattern char (Kelvin sign → 'k'), so only ASCII bytes outside the
    /// set are provably unable to start a match.
    start_table: Box<[bool; 256]>,
    /// One less than the match-start ring's size, a power of two no
    /// smaller than the longest pattern in chars.
    ring_mask: usize,
}

impl AhoCorasick {
    /// Builds the automaton over `patterns`. Empty patterns are ignored and
    /// take no pattern index.
    pub fn new<I, S>(patterns: I, case_insensitive: bool) -> AhoCorasick
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let folded: Vec<Vec<char>> = patterns
            .into_iter()
            .map(|p| p.as_ref().chars().map(|c| fold(c, case_insensitive)).collect::<Vec<_>>())
            .filter(|p| !p.is_empty())
            .collect();

        let mut classes = Box::new([0u8; 128]);
        for &c in folded.iter().flatten().filter(|c| c.is_ascii()) {
            classes[c as usize] = 1;
        }
        let mut stride = 1usize;
        for class in classes.iter_mut().filter(|class| **class != 0) {
            *class = stride as u8; // at most 128 classes besides class 0
            stride += 1;
        }
        if case_insensitive {
            for b in b'A'..=b'Z' {
                classes[b as usize] = classes[b.to_ascii_lowercase() as usize];
            }
        }

        // The trie. While building, a zero table entry means "no goto":
        // the root is never a child.
        let mut table = vec![0u32; stride];
        let mut wide_edges: BTreeMap<(u32, char), u32> = BTreeMap::new();
        let mut own: Vec<(u32, u32)> = Vec::with_capacity(folded.len());
        let mut states = 1u32;
        for (id, pat) in folded.iter().enumerate() {
            let mut cur = 0u32;
            for &c in pat {
                let slot = c.is_ascii().then(|| cur as usize * stride + classes[c as usize] as usize);
                let existing = match slot {
                    Some(k) => table[k],
                    None => wide_edges.get(&(cur, c)).copied().unwrap_or(0),
                };
                cur = if existing != 0 {
                    existing
                } else {
                    let child = states;
                    states = states.checked_add(1).expect("automaton exceeds u32 states");
                    table.resize(states as usize * stride, 0);
                    match slot {
                        Some(k) => table[k] = child,
                        None => {
                            wide_edges.insert((cur, c), child);
                        }
                    }
                    child
                };
            }
            own.push((cur, id as u32));
        }
        let n = states as usize;
        let (wide_at, wide) = group_by_state(n, wide_edges.into_iter().map(|((s, c), v)| (s, (c, v))));
        own.sort_by_key(|&(s, _)| s); // stable: duplicates keep pattern order
        let (own_at, own) = group_by_state(n, own.into_iter());

        let max_pattern_chars = folded.iter().map(Vec::len).max().unwrap_or(1);
        let mut ac = AhoCorasick {
            classes,
            stride,
            table,
            wide_at,
            wide,
            fail: vec![0; n],
            out_at: vec![(0, 0); n],
            outputs: Vec::new(),
            pattern_char_lens: folded.iter().map(|p| p.len() as u32).collect(),
            case_insensitive,
            start_table: Box::new([true; 256]),
            ring_mask: max_pattern_chars.next_power_of_two() - 1,
        };
        let order = ac.resolve_failures();
        for s in order {
            let start = ac.outputs.len();
            ac.outputs.extend_from_slice(&own[own_at[s] as usize..own_at[s + 1] as usize]);
            if s != 0 {
                let (a, z) = ac.out_at[ac.fail[s] as usize];
                ac.outputs.extend_from_within(a as usize..z as usize);
            }
            let end = u32::try_from(ac.outputs.len()).expect("output arena exceeds u32 indices");
            ac.out_at[s] = (start as u32, end);
        }
        for b in 0..128 {
            ac.start_table[b] = ac.table[ac.classes[b] as usize] != 0;
        }
        ac
    }

    /// Sets `fail` and resolves every missing goto of `table` through it,
    /// in BFS order — which it returns: a state's failure state is always
    /// shallower, so its row is final by the time the state's is filled.
    fn resolve_failures(&mut self) -> Vec<usize> {
        let stride = self.stride;
        let mut order = Vec::with_capacity(self.fail.len());
        order.push(0usize);
        let mut head = 0;
        while let Some(&s) = order.get(head) {
            head += 1;
            let f = self.fail[s] as usize;
            for k in 0..stride {
                let goto = self.table[s * stride + k];
                if goto != 0 {
                    self.fail[goto as usize] = if s == 0 { 0 } else { self.table[f * stride + k] };
                    order.push(goto as usize);
                } else if s != 0 {
                    self.table[s * stride + k] = self.table[f * stride + k];
                }
            }
            for e in self.wide_at[s] as usize..self.wide_at[s + 1] as usize {
                let (c, child) = self.wide[e];
                self.fail[child as usize] = if s == 0 { 0 } else { self.wide_next(f as u32, c) };
                order.push(child as usize);
            }
        }
        order
    }

    /// Number of non-empty patterns in the automaton.
    pub fn pattern_count(&self) -> usize {
        self.pattern_char_lens.len()
    }

    /// Number of automaton states — the basis of the taggers' memory model.
    pub fn state_count(&self) -> usize {
        self.fail.len()
    }

    /// Exact byte size of the automaton's tables. (The *simulated*
    /// footprint used by the cluster scheduler is a separate,
    /// paper-calibrated figure; this is the real in-process cost.)
    pub fn memory_estimate(&self) -> usize {
        size_of_val(&*self.classes)
            + size_of_val(&self.table[..])
            + size_of_val(&self.wide_at[..])
            + size_of_val(&self.wide[..])
            + size_of_val(&self.fail[..])
            + size_of_val(&self.out_at[..])
            + size_of_val(&self.outputs[..])
            + size_of_val(&self.pattern_char_lens[..])
            + size_of_val(&*self.start_table)
    }

    /// Finds all pattern occurrences in `text`, including overlapping ones.
    ///
    /// While the automaton sits in the root state, the scan skips ahead
    /// with a byte-table prefilter (ASCII bytes that cannot begin any
    /// pattern are provably dead — see `start_table`). Match starts are
    /// recovered from a ring buffer of the last char boundaries instead of
    /// materializing a boundary index for the whole haystack: every char
    /// of a match is consumed with a non-root state, so a match's chars
    /// are always the most recently processed ones.
    pub fn find_all(&self, text: &str) -> Vec<AcMatch> {
        let mut out = Vec::new();
        if self.pattern_char_lens.is_empty() {
            return out;
        }
        let bytes = text.as_bytes();
        let n = bytes.len();
        let (classes, table, stride) = (&*self.classes, &self.table[..], self.stride);
        let mask = self.ring_mask;
        let mut ring = vec![0usize; mask + 1];
        let mut pos = 0usize; // processed-char counter
        let mut state = 0usize;
        let mut i = 0usize;
        // lint:hot_loop(begin): Aho-Corasick prefiltered scan loop
        while i < n {
            if state == 0 {
                // Skips only whole ASCII chars: every byte ≥ 0x80 is in
                // the table, so a multi-byte char's lead byte stops the
                // scan and `i` stays on a char boundary.
                i = find_in_table(bytes, i, &self.start_table);
                if i >= n {
                    break;
                }
            }
            let b = bytes[i];
            let clen = if b < 0x80 {
                state = table[state * stride + classes[b as usize] as usize] as usize;
                1
            } else {
                let c = text[i..].chars().next().expect("i is on a char boundary");
                let folded = fold(c, self.case_insensitive);
                state = if folded.is_ascii() {
                    table[state * stride + classes[folded as usize] as usize] as usize
                } else {
                    self.wide_next(state as u32, folded) as usize
                };
                c.len_utf8()
            };
            ring[pos & mask] = i;
            let (a, z) = self.out_at[state];
            for &pid in &self.outputs[a as usize..z as usize] {
                let plen = self.pattern_char_lens[pid as usize] as usize;
                out.push(AcMatch {
                    pattern: pid as usize,
                    start: ring[(pos + 1 - plen) & mask],
                    end: i + clen,
                });
            }
            pos += 1;
            i += clen;
        }
        // lint:hot_loop(end)
        out
    }

    /// The transition on a non-ASCII (folded) char: the state's own edge,
    /// else its failure state's, down to the root.
    fn wide_next(&self, mut state: u32, c: char) -> u32 {
        loop {
            let s = state as usize;
            let edges = &self.wide[self.wide_at[s] as usize..self.wide_at[s + 1] as usize];
            if let Ok(k) = edges.binary_search_by_key(&c, |e| e.0) {
                return edges[k].1;
            }
            if state == 0 {
                return 0;
            }
            state = self.fail[s];
        }
    }
}

/// Groups `(state, item)` pairs, sorted by state, into an offset array
/// (`items[at[s]..at[s + 1]]` belong to state `s`) and the items.
fn group_by_state<T>(states: usize, pairs: impl Iterator<Item = (u32, T)>) -> (Vec<u32>, Vec<T>) {
    let mut at = vec![0u32; states + 1];
    let mut items = Vec::new();
    for (s, item) in pairs {
        at[s as usize + 1] += 1;
        items.push(item);
    }
    for s in 0..states {
        at[s + 1] += at[s];
    }
    (at, items)
}

/// Index of the first byte at or after `from` whose `table` entry is true,
/// or `haystack.len()` when there is none.
fn find_in_table(haystack: &[u8], from: usize, table: &[bool; 256]) -> usize {
    let n = haystack.len();
    let mut i = from;
    while i < n && !table[haystack[i] as usize] {
        i += 1;
    }
    i
}

#[inline]
fn fold(c: char, ci: bool) -> char {
    if !ci {
        c
    } else if c.is_ascii() {
        // Same result as `to_lowercase` for ASCII, without the case-table
        // iterator machinery on the hot scan path.
        c.to_ascii_lowercase()
    } else {
        c.to_lowercase().next().unwrap_or(c)
    }
}

/// The definition `find_all` implements, by brute force and with no code
/// in common with the automaton: fold every char of the text and of every
/// non-empty pattern, and compare every pattern ending at every char
/// boundary. Matches come by end, then longest first, then in pattern
/// order.
#[cfg(test)]
pub(crate) fn brute_force_find_all<S: AsRef<str>>(
    patterns: &[S],
    case_insensitive: bool,
    text: &str,
) -> Vec<AcMatch> {
    use std::cmp::Reverse;
    let fold = |c: char| if case_insensitive { c.to_lowercase().next().unwrap_or(c) } else { c };
    // (last char, longest first) -> folded pattern -> its indices; keyed
    // by the last char only to skip the patterns that cannot end here
    type Ids = BTreeMap<Vec<char>, Vec<usize>>;
    let mut by_end: BTreeMap<(char, Reverse<usize>), Ids> = BTreeMap::new();
    let non_empty = patterns.iter().map(AsRef::as_ref).filter(|p| !p.is_empty());
    for (id, p) in non_empty.enumerate() {
        let p: Vec<char> = p.chars().map(fold).collect();
        let key = (p[p.len() - 1], Reverse(p.len()));
        by_end.entry(key).or_default().entry(p).or_default().push(id);
    }
    let chars: Vec<char> = text.chars().map(fold).collect();
    let bounds: Vec<usize> =
        text.char_indices().map(|(i, _)| i).chain(std::iter::once(text.len())).collect();
    let mut out = Vec::new();
    for end in 1..=chars.len() {
        let last = chars[end - 1];
        for (&(_, Reverse(len)), of_len) in by_end.range((last, Reverse(end))..=(last, Reverse(1))) {
            for &id in of_len.get(&chars[end - len..end]).into_iter().flatten() {
                out.push(AcMatch { pattern: id, start: bounds[end - len], end: bounds[end] });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::new(["cancer"], false);
        let ms = ac.find_all("breast cancer and lung cancer");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].start, 7);
        assert_eq!(ms[0].end, 13);
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::new(["he", "she", "hers", "his"], false);
        let ms = ac.find_all("ushers");
        // "she" at 1..4, "he" at 2..4, "hers" at 2..6
        let spans: Vec<(usize, usize)> = ms.iter().map(|m| (m.start, m.end)).collect();
        assert!(spans.contains(&(1, 4)));
        assert!(spans.contains(&(2, 4)));
        assert!(spans.contains(&(2, 6)));
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn substring_patterns_both_reported() {
        let ac = AhoCorasick::new(["brca", "brca1"], false);
        let ms = ac.find_all("brca1");
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn case_insensitive_matching() {
        let ac = AhoCorasick::new(["aspirin"], true);
        let ms = ac.find_all("Aspirin ASPIRIN aspirin");
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn case_sensitive_by_default() {
        let ac = AhoCorasick::new(["TP53"], false);
        assert_eq!(ac.find_all("tp53").len(), 0);
        assert_eq!(ac.find_all("TP53").len(), 1);
    }

    #[test]
    fn no_patterns_no_matches() {
        let ac = AhoCorasick::new(Vec::<String>::new(), false);
        assert!(ac.find_all("anything").is_empty());
        assert_eq!(ac.pattern_count(), 0);
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::new(["", "x"], false);
        assert_eq!(ac.pattern_count(), 1);
        let ms = ac.find_all("xx");
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn unicode_patterns_and_text() {
        let ac = AhoCorasick::new(["naïve"], true);
        let ms = ac.find_all("a Naïve approach");
        assert_eq!(ms.len(), 1);
        let m = ms[0];
        assert_eq!(&"a Naïve approach"[m.start..m.end], "Naïve");
    }

    #[test]
    fn memory_estimate_grows_with_patterns() {
        let small = AhoCorasick::new(["abc"], false);
        let patterns: Vec<String> = (0..1000).map(|i| format!("term{i:04}")).collect();
        let large = AhoCorasick::new(&patterns, false);
        assert!(large.memory_estimate() > small.memory_estimate() * 10);
        assert!(large.state_count() > 1000);
    }

    #[test]
    fn memory_estimate_is_the_tables_byte_size() {
        let patterns = ["naïve", "İstanbul", "he", "she", "hers", "he", "\u{0}x"];
        for ci in [false, true] {
            let ac = AhoCorasick::new(patterns, ci);
            let bytes = ac.classes.len()
                + ac.table.len() * 4
                + ac.wide_at.len() * 4
                + ac.wide.len() * 8
                + ac.fail.len() * 4
                + ac.out_at.len() * 8
                + ac.outputs.len() * 4
                + ac.pattern_char_lens.len() * 4
                + ac.start_table.len();
            assert_eq!(ac.memory_estimate(), bytes);
            assert_eq!(ac.table.len(), ac.state_count() * ac.stride);
        }
    }

    #[test]
    fn class_map_shares_case_folded_letters_and_gives_nul_a_class() {
        let ac = AhoCorasick::new(["ab", "\u{0}"], true);
        assert_eq!(ac.stride, 4); // class 0, 'a', 'b', NUL
        assert_eq!(ac.classes[b'A' as usize], ac.classes[b'a' as usize]);
        assert_ne!(ac.classes[0], 0);
        assert_eq!(ac.classes[b'z' as usize], 0);
        let ac = AhoCorasick::new(["ab"], false);
        assert_eq!(ac.classes[b'A' as usize], 0);
    }

    #[test]
    fn prefilter_skips_do_not_drop_folding_matches() {
        // A Kelvin sign is a non-ASCII byte that folds to 'k'; skipping
        // high bytes would lose this match.
        let ac = AhoCorasick::new(["kelvin"], true);
        let ms = ac.find_all("the \u{212A}elvin scale");
        assert_eq!(ms.len(), 1);
        assert_eq!(&"the \u{212A}elvin scale"[ms[0].start..ms[0].end], "\u{212A}elvin");
        // Case-sensitive: no fold, no match.
        assert!(AhoCorasick::new(["kelvin"], false).find_all("\u{212A}elvin").is_empty());
    }

    #[test]
    fn find_in_table_agrees_with_naive_scan() {
        // Deterministic LCG; covers 0x00/0x80 bytes, empty tables and
        // `from` at the end.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        let palette: &[u8] = &[0x00, b'a', b'n', b'N', b'(', 0x7f, 0x80, 0xc3, 0xff];
        for _ in 0..500 {
            let len = next(40);
            let hay: Vec<u8> = (0..len).map(|_| palette[next(palette.len())]).collect();
            let needles: Vec<u8> = (0..next(4)).map(|_| palette[next(palette.len())]).collect();
            let from = next(len + 2).min(len);
            let mut table = [false; 256];
            for &b in &needles {
                table[b as usize] = true;
            }
            let naive = (from..len).find(|&i| needles.contains(&hay[i])).unwrap_or(len);
            let found = find_in_table(&hay, from, &table);
            assert_eq!(found, naive, "hay={hay:?} from={from} needles={needles:?}");
        }
    }

    #[test]
    fn long_haystack_scan() {
        let ac = AhoCorasick::new(["needle"], false);
        let hay = format!("{}needle{}", "x".repeat(10_000), "y".repeat(10_000));
        let ms = ac.find_all(&hay);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].start, 10_000);
    }

    /// `find_all` against `brute_force_find_all`, element for element.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn assert_agrees(patterns: &[&str], text: &str) {
            for ci in [false, true] {
                let ac = AhoCorasick::new(patterns, ci);
                assert_eq!(
                    ac.find_all(text),
                    brute_force_find_all(patterns, ci, text),
                    "text {text:?} patterns {patterns:?} ci={ci}"
                );
            }
        }

        /// Shared prefixes and suffixes, empty and duplicate patterns, NUL
        /// and DEL, non-ASCII pattern chars and chars that fold to ASCII.
        const DICTS: &[&[&str]] = &[
            &["he", "she", "hers", "his"],
            &["kelvin", "k", ""],
            &["\u{212A}elvin", "İstanbul", "istanbul"],
            &["er", "her", "here", "e"],
            &["naïve", "NAÏVE", "naïveté", "ïve"],
            &["a\u{0}b", "\u{0}", "\u{7f}\u{7f}", "b\u{7f}"],
            &["", "ab", "ab", "AB", "b", ""],
            &["gene", "genes", "gen", "ene", "e", "ne"],
            &["中文", "文本", "中", "ß", "ss", "straße"],
            // a non-ASCII goto found only through a non-root failure state
            &["xa", "aï", "xaïve", "ïï", "文本字", "本"],
        ];

        #[test]
        fn hand_picked_texts() {
            let texts = [
                "",
                "ushers and his HERS",
                "the \u{212A}elvin scale, KELVIN, kelvin",
                "İSTANBUL İstanbul istanbul ıstanbul",
                "a Naïve NAÏVE naïveté approach",
                "a\u{0}b \u{0}\u{0} \u{7f}\u{7f}\u{7f} b\u{7f}",
                "abABab aBAb",
                "genes gene generic ene",
                "中文文本 STRASSE straße STRAẞE",
                "xaï XAÏ xaïï xaïve 文本本 文本字",
            ];
            for dict in DICTS {
                for text in texts {
                    assert_agrees(dict, text);
                }
            }
        }

        #[test]
        fn random_texts_over_a_mixed_palette() {
            // Deterministic LCG; the palette mixes pattern bytes, their
            // upper-case variants, NUL/DEL, chars that case-fold to ASCII
            // (Kelvin sign → 'k', 'İ' → 'i'), multi-byte non-pattern chars
            // and whitespace.
            let mut state = 0x0d15_ea5e_dead_beefu64;
            let mut next = move |bound: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as usize) % bound
            };
            let palette: Vec<char> =
                "kheris KHERIS\u{212A}\u{130}üïÏ中文ß\u{0}\u{7f}ab .()".chars().collect();
            for dict in DICTS {
                for _ in 0..150 {
                    let len = next(40);
                    let text: String = (0..len).map(|_| palette[next(palette.len())]).collect();
                    assert_agrees(dict, &text);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_dictionaries_and_texts(
                patterns in prop::collection::vec("[abAB\u{0}\u{7f}ïÏ\u{212A}]{0,4}", 0..8),
                text in "[abAB \u{0}\u{7f}ïÏ\u{212A}\u{130}]{0,48}",
            ) {
                let patterns: Vec<&str> = patterns.iter().map(String::as_str).collect();
                assert_agrees(&patterns, &text);
            }
        }
    }
}
