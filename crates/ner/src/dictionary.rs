//! Dictionary-based ("fuzzy dictionary-matching") entity taggers.
//!
//! The paper's dictionary taggers compile each term into a regular
//! expression to tolerate small surface variations — "the regular
//! expression transformations almost only affect very short word suffixes"
//! — and match with an automaton. At paper scale this design has two
//! painful properties the evaluation leans on heavily:
//!
//! - **startup cost**: "the dictionary-based gene name recognition
//!   algorithm needs approximately 20 minutes (!) to load the dictionary
//!   and to create the internal data structures";
//! - **memory footprint**: "between 6 and 20 GB of main memory per worker
//!   thread", because every term becomes a non-deterministic automaton.
//!
//! [`DictionaryTagger`] reproduces the architecture (variant expansion →
//! Aho-Corasick automaton → word-boundary-checked matches) and exposes a
//! *cost model* ([`DictionaryTagger::cost_model`]) that reports the
//! startup time and per-worker memory the equivalent paper-scale tool
//! would need; the simulated cluster scheduler in `websift-flow` consumes
//! those figures.

use crate::ahocorasick::{AcMatch, AhoCorasick};
use crate::entity::{EntityType, Mention, Method};

/// A named dictionary: an entity type plus its term list.
#[derive(Debug, Clone)]
pub struct Dictionary {
    pub entity: EntityType,
    terms: Vec<String>,
}

impl Dictionary {
    /// Builds a dictionary, dropping terms shorter than 2 characters
    /// (single letters produce absurd match rates, as the original tools'
    /// stop lists also enforce).
    pub fn new<I, S>(entity: EntityType, terms: I) -> Dictionary
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut seen = std::collections::HashSet::new();
        let mut kept = Vec::new();
        for t in terms {
            let t = t.as_ref().trim().to_string();
            if t.chars().count() < 2 {
                continue;
            }
            if seen.insert(t.to_lowercase()) {
                kept.push(t);
            }
        }
        Dictionary {
            entity,
            terms: kept,
        }
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn terms(&self) -> &[String] {
        &self.terms
    }
}

/// Expands a term into its match variants — the "regular expression"
/// treatment of the paper, materialized as explicit automaton patterns:
///
/// - the term itself;
/// - hyphen/space toggles (`GAD-67` ⇔ `GAD 67` ⇔ `GAD67`);
/// - a plural `s` for purely alphabetic multi-char terms.
pub fn expand_variants(term: &str) -> Vec<String> {
    let mut variants = vec![term.to_string()];
    if term.contains('-') {
        variants.push(term.replace('-', " "));
        variants.push(term.replace('-', ""));
    } else if term.contains(' ') {
        variants.push(term.replace(' ', "-"));
    } else {
        // letter-digit boundary toggles: BRCA1 -> BRCA-1, BRCA 1
        let chars: Vec<char> = term.chars().collect();
        for w in 1..chars.len() {
            if chars[w - 1].is_alphabetic() && chars[w].is_ascii_digit() {
                let (a, b): (String, String) =
                    (chars[..w].iter().collect(), chars[w..].iter().collect());
                variants.push(format!("{a}-{b}"));
                variants.push(format!("{a} {b}"));
                break;
            }
        }
    }
    if term.len() > 3 && term.chars().all(char::is_alphabetic) && !term.ends_with('s') {
        variants.push(format!("{term}s"));
    }
    variants
}

/// Cost model of a paper-scale instance of this tagger, consumed by the
/// simulated cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggerCostModel {
    /// Startup (dictionary load + automaton construction) in simulated
    /// seconds at paper scale.
    pub startup_secs: f64,
    /// Resident memory per worker thread in bytes at paper scale.
    pub memory_bytes: u64,
    /// Approximate per-character processing cost in simulated
    /// microseconds (linear scan).
    pub us_per_char: f64,
}

/// The dictionary tagger: automaton over expanded variants, matches
/// filtered to word boundaries.
#[derive(Debug, Clone)]
pub struct DictionaryTagger {
    entity: EntityType,
    automaton: AhoCorasick,
    /// Term count used by the cost model. Defaults to the actual count;
    /// experiments running scaled-down dictionaries override it with the
    /// paper-scale count so the simulated cluster sees paper-scale
    /// footprints (e.g. the 700 K-entry gene dictionary's ≈20 GB / ≈20 min).
    cost_reference_terms: usize,
}

impl DictionaryTagger {
    /// Compiles the dictionary into an automaton (case-insensitive, as
    /// biomedical surface forms vary wildly in case).
    pub fn new(dictionary: &Dictionary) -> DictionaryTagger {
        let patterns: Vec<String> = dictionary
            .terms()
            .iter()
            .flat_map(|t| expand_variants(t))
            .collect();
        DictionaryTagger {
            entity: dictionary.entity,
            automaton: AhoCorasick::new(&patterns, true),
            cost_reference_terms: dictionary.len(),
        }
    }

    pub fn entity(&self) -> EntityType {
        self.entity
    }

    /// Overrides the term count the cost model is evaluated at (see
    /// `cost_reference_terms`).
    pub fn with_cost_reference(mut self, terms: usize) -> DictionaryTagger {
        self.cost_reference_terms = terms;
        self
    }

    /// Paper-scale cost model. Calibrated so that a 700 K-term gene
    /// dictionary yields ≈ 20 minutes startup and ≈ 20 GB per worker, and
    /// the ~50–60 K-term drug/disease dictionaries land in the 6–8 GB
    /// range — the figures of Section 4.2.
    pub fn cost_model(&self) -> TaggerCostModel {
        let n = self.cost_reference_terms as f64;
        TaggerCostModel {
            startup_secs: 10.0 + n * (1200.0 - 10.0) / 700_000.0,
            memory_bytes: (6.0e9 + n * 14.0e9 / 700_000.0) as u64,
            us_per_char: 0.05,
        }
    }

    /// Tags `text`, returning word-boundary-respecting, longest-match
    /// mentions. Overlapping shorter matches inside a longer accepted match
    /// are suppressed (leftmost-longest per position).
    pub fn tag(&self, text: &str) -> Vec<Mention> {
        self.select(text, self.automaton.find_all(text))
    }

    /// The mentions `tag` keeps of the automaton's `matches` over `text`.
    fn select(&self, text: &str, matches: Vec<AcMatch>) -> Vec<Mention> {
        let bytes = text.as_bytes();
        let is_word = |i: usize| -> bool {
            if i >= bytes.len() {
                return false;
            }
            // ASCII fast path; multi-byte chars are all "word" for boundary purposes
            let b = bytes[i];
            if b < 128 {
                (b as char).is_alphanumeric()
            } else {
                true
            }
        };
        let mut raw: Vec<(usize, usize)> = matches
            .into_iter()
            .filter(|m| {
                let before_ok = m.start == 0 || !is_word(prev_char_start(text, m.start));
                let after_ok = m.end >= text.len() || !is_word(m.end);
                before_ok && after_ok
            })
            .map(|m| (m.start, m.end))
            .collect();
        // leftmost-longest: sort by start asc, end desc; drop spans contained
        // in an already-accepted span.
        raw.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut out: Vec<Mention> = Vec::new();
        let mut covered_until = 0usize;
        for (s, e) in raw {
            if s < covered_until {
                continue;
            }
            out.push(Mention::new(s, e, &text[s..e], self.entity, Method::Dictionary));
            covered_until = e;
        }
        out
    }
}

fn prev_char_start(text: &str, pos: usize) -> usize {
    let mut p = pos - 1;
    while p > 0 && !text.is_char_boundary(p) {
        p -= 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gene_tagger(terms: &[&str]) -> DictionaryTagger {
        DictionaryTagger::new(&Dictionary::new(EntityType::Gene, terms))
    }

    #[test]
    fn dictionary_dedups_and_drops_short() {
        let d = Dictionary::new(EntityType::Drug, ["aspirin", "Aspirin", "x", "ibuprofen"]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn tags_simple_mention() {
        let t = gene_tagger(&["BRCA1", "TP53"]);
        let ms = t.tag("Mutations in BRCA1 and TP53 were found.");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "brca1");
        assert_eq!(ms[1].name, "tp53");
        assert_eq!(ms[0].method, Method::Dictionary);
    }

    #[test]
    fn respects_word_boundaries() {
        let t = gene_tagger(&["RAS"]);
        let ms = t.tag("KRAS is not RAS per se, nor eRASer.");
        assert_eq!(ms.len(), 1);
        assert_eq!(&"KRAS is not RAS per se, nor eRASer."[ms[0].start..ms[0].end], "RAS");
    }

    #[test]
    fn variant_expansion_matches_hyphen_and_space_forms() {
        let t = gene_tagger(&["GAD-67"]);
        assert_eq!(t.tag("GAD-67 level").len(), 1);
        assert_eq!(t.tag("GAD 67 level").len(), 1);
        assert_eq!(t.tag("GAD67 level").len(), 1);
    }

    #[test]
    fn letter_digit_boundary_variants() {
        let t = gene_tagger(&["BRCA1"]);
        assert_eq!(t.tag("the BRCA-1 gene").len(), 1);
        assert_eq!(t.tag("the BRCA 1 gene").len(), 1);
    }

    #[test]
    fn plural_variant() {
        let t = DictionaryTagger::new(&Dictionary::new(EntityType::Disease, ["thymoma"]));
        assert_eq!(t.tag("multiple thymomas were observed").len(), 1);
    }

    #[test]
    fn case_insensitive_matching() {
        let t = DictionaryTagger::new(&Dictionary::new(EntityType::Drug, ["Aspirin"]));
        assert_eq!(t.tag("aspirin or ASPIRIN").len(), 2);
    }

    #[test]
    fn longest_match_wins() {
        let t = DictionaryTagger::new(&Dictionary::new(
            EntityType::Disease,
            ["breast cancer", "cancer"],
        ));
        let ms = t.tag("breast cancer patients");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "breast cancer");
    }

    #[test]
    fn cost_model_scales_with_dictionary_size() {
        let terms: Vec<String> = (0..1000).map(|i| format!("GENE{i}")).collect();
        let small = DictionaryTagger::new(&Dictionary::new(
            EntityType::Gene,
            terms.iter().take(10).map(String::as_str),
        ));
        let large = DictionaryTagger::new(&Dictionary::new(
            EntityType::Gene,
            terms.iter().map(String::as_str),
        ));
        assert!(large.cost_model().startup_secs > small.cost_model().startup_secs);
        assert!(large.cost_model().memory_bytes > small.cost_model().memory_bytes);
        // paper calibration: cost reference of 700k terms => ~20 min, ~20 GB
        let paper_scale = small.clone().with_cost_reference(700_000);
        assert!((paper_scale.cost_model().startup_secs - 1200.0).abs() < 1.0);
        assert!((paper_scale.cost_model().memory_bytes as f64 - 20.0e9).abs() < 0.1e9);
    }

    #[test]
    fn empty_text_and_empty_dictionary() {
        let t = gene_tagger(&[]);
        assert!(t.tag("BRCA1").is_empty());
        let t = gene_tagger(&["BRCA1"]);
        assert!(t.tag("").is_empty());
    }

    #[test]
    fn mentions_at_text_edges() {
        let t = gene_tagger(&["BRCA1"]);
        let ms = t.tag("BRCA1");
        assert_eq!(ms.len(), 1);
        assert_eq!((ms[0].start, ms[0].end), (0, 5));
    }

    /// `tag` against the same boundary and leftmost-longest rules applied
    /// to the brute-force matches of the tagger's expanded patterns.
    mod differential {
        use super::*;
        use crate::ahocorasick::brute_force_find_all;
        use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};

        #[test]
        fn standard_lexicon_over_generated_corpora() {
            let lexicon = Lexicon::generate(LexiconScale::default_scale());
            let docs: Vec<_> = [
                (CorpusKind::Medline, 8),
                (CorpusKind::Pmc, 2),
                (CorpusKind::RelevantWeb, 2),
                (CorpusKind::IrrelevantWeb, 2),
            ]
            .into_iter()
            .flat_map(|(kind, n)| Generator::new(kind, 7).documents(n))
            .collect();
            // web documents as raw HTML: markup, entities and boilerplate
            let texts: Vec<&str> = docs.iter().map(|d| d.raw_text()).collect();
            let mut mentions = 0;
            for (entity, terms) in [
                (EntityType::Gene, lexicon.genes()),
                (EntityType::Drug, lexicon.drugs()),
                (EntityType::Disease, lexicon.diseases()),
            ] {
                let dictionary = Dictionary::new(entity, terms);
                let tagger = DictionaryTagger::new(&dictionary);
                let patterns: Vec<String> =
                    dictionary.terms().iter().flat_map(|t| expand_variants(t)).collect();
                for text in &texts {
                    let tagged = tagger.tag(text);
                    let reference = tagger.select(text, brute_force_find_all(&patterns, true, text));
                    let head: String = text.chars().take(60).collect();
                    assert_eq!(tagged, reference, "{entity:?} over {head:?}");
                    mentions += tagged.len();
                }
            }
            assert!(mentions > 100, "the corpora must exercise the dictionaries: {mentions}");
        }
    }
}
