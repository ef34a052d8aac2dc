//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use websift::crawler::parser::{repair_markup, strip_markup, HtmlToken};
use websift::ner::AhoCorasick;
use websift::stats::{jensen_shannon, mann_whitney_u, Summary};
use websift::text::{tokenize, SentenceSplitter};
use websift::web::Url;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tokens partition the non-whitespace text: in-bounds, ordered,
    /// non-overlapping, never containing whitespace.
    #[test]
    fn tokens_are_ordered_and_in_bounds(text in "\\PC{0,200}") {
        let tokens = tokenize::tokenize(&text);
        let mut prev_end = 0usize;
        for t in &tokens {
            prop_assert!(t.start >= prev_end);
            prop_assert!(t.end <= text.len());
            prop_assert!(t.start < t.end);
            prop_assert!(!t.text(&text).chars().any(char::is_whitespace));
            prev_end = t.end;
        }
    }

    /// Sentences are ordered, in bounds, and cover all alphanumeric text.
    #[test]
    fn sentences_cover_word_characters(text in "[a-zA-Z .!?()0-9\\n]{0,300}") {
        let sents = SentenceSplitter::new().split(&text);
        let mut prev_end = 0usize;
        for s in &sents {
            prop_assert!(s.start >= prev_end);
            prop_assert!(s.end <= text.len());
            prev_end = s.end;
        }
        let covered: usize = sents.iter().map(|s| s.text(&text).chars().filter(|c| c.is_alphanumeric()).count()).sum();
        let total: usize = text.chars().filter(|c| c.is_alphanumeric()).count();
        prop_assert_eq!(covered, total, "sentence spans must not drop text");
    }

    /// Aho-Corasick finds exactly the matches naive scanning finds.
    #[test]
    fn aho_corasick_matches_naive_scan(
        patterns in prop::collection::vec("[a-c]{1,4}", 1..6),
        haystack in "[a-c]{0,60}",
    ) {
        let ac = AhoCorasick::new(&patterns, false);
        let mut expected = 0usize;
        let mut seen_patterns = std::collections::HashSet::new();
        for p in &patterns {
            if !seen_patterns.insert(p.clone()) {
                continue; // duplicate patterns get separate ids; count once
            }
            let mut at = 0usize;
            while let Some(pos) = haystack[at..].find(p.as_str()) {
                expected += 1;
                at += pos + 1;
            }
        }
        // count AC matches of distinct patterns only
        let distinct: Vec<String> = seen_patterns.into_iter().collect();
        let ac2 = AhoCorasick::new(&distinct, false);
        prop_assert_eq!(ac2.find_all(&haystack).len(), expected);
        // the duplicated automaton never reports fewer matches
        prop_assert!(ac.find_all(&haystack).len() >= expected);
    }

    /// Markup repair always yields balanced tag streams.
    #[test]
    fn repair_always_balances(html in "[a-z<>/ ]{0,120}") {
        if let Ok(tokens) = repair_markup(&html, 1.0) {
            let mut depth = 0i64;
            for t in &tokens {
                match t {
                    HtmlToken::Open { name, .. }
                        if !["br", "hr", "img", "input", "meta", "link"].contains(&name.as_str()) =>
                    {
                        depth += 1
                    }
                    HtmlToken::Close { .. } => depth -= 1,
                    _ => {}
                }
                prop_assert!(depth >= 0, "close before open");
            }
            prop_assert_eq!(depth, 0, "unbalanced after repair");
        }
    }

    /// Stripping markup never leaves tag characters behind (for inputs
    /// whose tags are well-delimited).
    #[test]
    fn strip_markup_removes_tags(words in prop::collection::vec("[a-z]{1,8}", 0..10)) {
        let html: String = words.iter().map(|w| format!("<p>{w}</p>")).collect();
        let text = strip_markup(&html);
        prop_assert!(!text.contains('<') && !text.contains('>'));
        for w in &words {
            prop_assert!(text.contains(w.as_str()));
        }
    }

    /// JSD is symmetric and bounded in [0, 1].
    #[test]
    fn jsd_symmetric_bounded(
        a in prop::collection::hash_map("[a-e]", 1u64..50, 0..6),
        b in prop::collection::hash_map("[a-e]", 1u64..50, 0..6),
    ) {
        let a: HashMap<String, u64> = a.into_iter().collect();
        let b: HashMap<String, u64> = b.into_iter().collect();
        let d1 = jensen_shannon(&a, &b);
        let d2 = jensen_shannon(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&d1));
        prop_assert!(jensen_shannon(&a, &a) < 1e-9);
    }

    /// Mann-Whitney P-values stay in [0, 1] and the test is symmetric.
    #[test]
    fn mann_whitney_sane(
        a in prop::collection::vec(-100.0f64..100.0, 1..30),
        b in prop::collection::vec(-100.0f64..100.0, 1..30),
    ) {
        let r1 = mann_whitney_u(&a, &b).unwrap();
        let r2 = mann_whitney_u(&b, &a).unwrap();
        prop_assert!((0.0..=1.0).contains(&r1.p_value));
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
        prop_assert!((r1.u + r2.u - (a.len() * b.len()) as f64).abs() < 1e-9);
    }

    /// Summary invariants: min <= q1 <= median <= q3 <= max, mean within.
    #[test]
    fn summary_order_invariants(data in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.count, data.len());
    }

    /// URL parse/display round-trips and join never panics.
    #[test]
    fn url_roundtrip_and_join(host in "[a-z]{1,10}", path in "[a-z0-9/._-]{0,30}", link in "[a-z0-9/._-]{0,20}") {
        let url = Url::new(&format!("{host}.example"), &path);
        let reparsed = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(&reparsed, &url);
        let joined = url.join(&link);
        if let Ok(j) = joined {
            prop_assert!(j.path().starts_with('/'));
        }
    }
}

// The corpus generator respects its determinism contract under proptest-
// chosen seeds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn generator_deterministic_for_any_seed(seed in 0u64..1_000_000) {
        use websift::corpus::{CorpusKind, Generator};
        let g1 = Generator::new(CorpusKind::Medline, seed);
        let g2 = Generator::new(CorpusKind::Medline, seed);
        let a = g1.document(seed % 17);
        let b = g2.document(seed % 17);
        prop_assert_eq!(a.body, b.body);
        prop_assert_eq!(a.gold.sentences, b.gold.sentences);
    }
}
