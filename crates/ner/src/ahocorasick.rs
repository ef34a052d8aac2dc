//! Aho-Corasick multi-pattern string matching, built from scratch.
//!
//! This is the core of the dictionary-based entity taggers: "an
//! automaton-based matching algorithm that quickly retrieves mentions of
//! entities even for large dictionaries" (the paper cites LINNAEUS). The
//! automaton is constructed over lower-cased characters when
//! case-insensitive matching is requested, uses BFS-computed failure links,
//! and reports all (possibly overlapping) pattern occurrences in a single
//! left-to-right scan — `O(text + matches)` after construction.

use std::collections::{HashMap, VecDeque};

/// A match: pattern index plus byte span in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcMatch {
    pub pattern: usize,
    pub start: usize,
    pub end: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    /// Child transitions (by possibly-folded char).
    next: HashMap<char, u32>,
    /// Failure link.
    fail: u32,
    /// Patterns ending at this node (dictionary links resolved at build).
    outputs: Vec<u32>,
    /// Depth in chars (for match-start computation we instead track pattern
    /// lengths; depth kept for diagnostics).
    depth: u32,
}

/// The automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    /// Char length of each pattern (to compute match starts).
    pattern_char_lens: Vec<u32>,
    case_insensitive: bool,
    pattern_count: usize,
    /// Bytes at which a scan sitting in the root state must stop skipping:
    /// ASCII bytes that can begin a pattern (including upper-case variants
    /// under folding) plus every byte ≥ 0x80. Non-ASCII text always takes
    /// the per-char path because a non-ASCII char can *fold to* an ASCII
    /// pattern char (Kelvin sign → 'k'), so only ASCII bytes outside the
    /// set are provably unable to start a match.
    start_table: Box<[bool; 256]>,
    /// Longest pattern length in chars — the ring-buffer depth needed to
    /// recover match starts.
    max_pattern_chars: u32,
}

impl AhoCorasick {
    /// Builds the automaton over `patterns`. Empty patterns are ignored.
    pub fn new<I, S>(patterns: I, case_insensitive: bool) -> AhoCorasick
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut nodes = vec![Node::default()];
        let mut pattern_char_lens = Vec::new();
        let mut count = 0usize;

        for pat in patterns {
            let pat = pat.as_ref();
            let id = pattern_char_lens.len() as u32;
            let mut chars = 0u32;
            let mut cur = 0u32;
            for c in pat.chars() {
                let c = fold(c, case_insensitive);
                chars += 1;
                let nodes_len = nodes.len() as u32;
                let child = *nodes[cur as usize].next.entry(c).or_insert(nodes_len);
                if child == nodes_len {
                    let depth = nodes[cur as usize].depth + 1;
                    nodes.push(Node {
                        depth,
                        ..Node::default()
                    });
                }
                cur = child;
            }
            if chars == 0 {
                continue; // skip empty pattern but keep ids aligned
            }
            nodes[cur as usize].outputs.push(id);
            pattern_char_lens.push(chars);
            count += 1;
        }

        // BFS to set failure links and merge outputs.
        let mut queue = VecDeque::new();
        let root_children: Vec<u32> = nodes[0].next.values().copied().collect();
        for child in root_children {
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(u) = queue.pop_front() {
            let transitions: Vec<(char, u32)> =
                nodes[u as usize].next.iter().map(|(&c, &v)| (c, v)).collect();
            for (c, v) in transitions {
                // find fail target for v
                let mut f = nodes[u as usize].fail;
                loop {
                    if let Some(&t) = nodes[f as usize].next.get(&c) {
                        if t != v {
                            nodes[v as usize].fail = t;
                            break;
                        }
                    }
                    if f == 0 {
                        nodes[v as usize].fail = 0;
                        break;
                    }
                    f = nodes[f as usize].fail;
                }
                let fail_of_v = nodes[v as usize].fail;
                let merged: Vec<u32> = nodes[fail_of_v as usize].outputs.clone();
                nodes[v as usize].outputs.extend(merged);
                queue.push_back(v);
            }
        }

        let mut start_table = Box::new([false; 256]);
        for b in 0x80..=0xFFusize {
            start_table[b] = true;
        }
        for &c in nodes[0].next.keys() {
            if c.is_ascii() {
                let b = c as u8;
                start_table[b as usize] = true;
                if case_insensitive {
                    // Children are stored folded (lower-case); the raw
                    // haystack byte may be the upper-case form.
                    start_table[b.to_ascii_uppercase() as usize] = true;
                }
            }
        }
        let max_pattern_chars = pattern_char_lens.iter().copied().max().unwrap_or(0);

        AhoCorasick {
            nodes,
            pattern_char_lens,
            case_insensitive,
            pattern_count: count,
            start_table,
            max_pattern_chars,
        }
    }

    /// Number of non-empty patterns in the automaton.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of automaton states — the basis of the taggers' memory model.
    pub fn state_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rough memory footprint estimate in bytes: per-state fixed overhead
    /// plus per-transition hash-map cost. (The *simulated* footprint used by
    /// the cluster scheduler is a separate, paper-calibrated figure; this is
    /// the real in-process cost.)
    pub fn memory_estimate(&self) -> usize {
        let transitions: usize = self.nodes.iter().map(|n| n.next.len()).sum();
        self.nodes.len() * 64 + transitions * 48
    }

    /// Finds all pattern occurrences in `text`, including overlapping ones.
    ///
    /// While the automaton sits in the root state, the scan skips ahead
    /// with a byte-table prefilter (ASCII bytes that cannot begin any
    /// pattern are provably dead — see `start_table`). Match starts are
    /// recovered from a ring buffer of the last `max_pattern_chars` char
    /// boundaries instead of materializing a boundary index for the whole
    /// haystack: every char of a match is consumed with a non-root state,
    /// so a match's chars are always the most recently processed ones.
    pub fn find_all(&self, text: &str) -> Vec<AcMatch> {
        let mut out = Vec::new();
        if self.pattern_count == 0 {
            return out;
        }
        let bytes = text.as_bytes();
        let n = bytes.len();
        let depth = self.max_pattern_chars as usize;
        let mut ring = vec![0usize; depth];
        let mut pos = 0usize; // processed-char counter
        let mut state = 0u32;
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
            let c = text[i..].chars().next().expect("i is on a char boundary");
            let clen = c.len_utf8();
            state = self.step(state, fold(c, self.case_insensitive));
            ring[pos % depth] = i;
            let node = &self.nodes[state as usize];
            for &pid in &node.outputs {
                let plen = self.pattern_char_lens[pid as usize] as usize;
                out.push(AcMatch {
                    pattern: pid as usize,
                    start: ring[(pos + 1 - plen) % depth],
                    end: i + clen,
                });
            }
            pos += 1;
            i += clen;
        }
        // lint:hot_loop(end)
        out
    }

    #[inline]
    fn step(&self, mut state: u32, c: char) -> u32 {
        loop {
            if let Some(&next) = self.nodes[state as usize].next.get(&c) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.nodes[state as usize].fail;
        }
    }
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

    /// The pre-prefilter scan, kept verbatim as the semantic reference:
    /// a plain char loop over a full boundary index. `find_all` must
    /// report the identical match list on every input.
    fn reference_find_all(ac: &AhoCorasick, text: &str) -> Vec<AcMatch> {
        let mut out = Vec::new();
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(text.len()))
            .collect();
        let mut state = 0u32;
        for (ci, c) in text.chars().enumerate() {
            let c = fold(c, ac.case_insensitive);
            state = ac.step(state, c);
            for &pid in &ac.nodes[state as usize].outputs {
                let plen = ac.pattern_char_lens[pid as usize] as usize;
                out.push(AcMatch {
                    pattern: pid as usize,
                    start: boundaries[ci + 1 - plen],
                    end: boundaries[ci + 1],
                });
            }
        }
        out
    }

    #[test]
    fn prefiltered_scan_agrees_with_reference() {
        // Deterministic LCG; the palette mixes ASCII pattern bytes,
        // upper-case variants, chars that case-fold to ASCII (Kelvin sign
        // → 'k', 'İ' → 'i̇'), multi-byte non-pattern chars, and
        // whitespace. Dictionaries include overlapping and empty entries.
        let mut state = 0x0d15_ea5e_dead_beefu64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        let palette: Vec<char> = "kheris KHERIS\u{212A}\u{130}ü中 .()".chars().collect();
        let dicts: Vec<Vec<&str>> = vec![
            vec!["he", "she", "hers", "his"],
            vec!["kelvin", "k", ""],
            vec!["\u{212A}elvin", "İstanbul"],
            vec!["er", "her", "here", "e"],
        ];
        for ci in [false, true] {
            for dict in &dicts {
                let ac = AhoCorasick::new(dict, ci);
                for _ in 0..150 {
                    let len = next(40);
                    let text: String = (0..len).map(|_| palette[next(palette.len())]).collect();
                    assert_eq!(
                        ac.find_all(&text),
                        reference_find_all(&ac, &text),
                        "prefiltered scan diverges on {text:?} dict {dict:?} ci={ci}"
                    );
                }
            }
        }
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
}
