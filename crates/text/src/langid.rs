//! Character n-gram language identification (Cavnar & Trenkle style).
//!
//! The focused crawler "remove[s] pages that are written in languages other
//! than English by using an n-gram based language filter, because subsequent
//! IE tools ... are sensitive to language". This module provides that
//! filter: per-language n-gram rank profiles built from embedded seed text,
//! compared with the out-of-place measure.

use crate::ngram::NgramProfile;
use std::sync::OnceLock;

/// Languages the identifier can distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    English,
    German,
    French,
    Spanish,
    /// No profile matched with reasonable confidence.
    Unknown,
}

const MAX_N: usize = 3;
const TOP_K: usize = 400;

/// Seed texts: a few hundred words of plain prose per language. They only
/// need to capture characteristic short n-grams (articles, inflections),
/// which is what makes the Cavnar-Trenkle method work with tiny models.
const ENGLISH_SEED: &str = "the quick brown fox jumps over the lazy dog and the \
    patient was treated with the new drug for the disease of the heart which \
    is one of the most common causes of death in the world the study shows \
    that there is a significant difference between the groups and that the \
    treatment works for most of the patients who were included in the trial \
    this is an important finding because it suggests that the therapy could \
    be used more widely in clinical practice and that further research should \
    be done to confirm these results in larger populations of people with \
    similar conditions the results of this analysis were published in a peer \
    reviewed journal and have been cited many times by other researchers in \
    the field of medicine and biology";

const GERMAN_SEED: &str = "der schnelle braune fuchs springt über den faulen \
    hund und der patient wurde mit dem neuen medikament gegen die krankheit \
    des herzens behandelt die eine der häufigsten todesursachen der welt ist \
    die studie zeigt dass es einen signifikanten unterschied zwischen den \
    gruppen gibt und dass die behandlung bei den meisten patienten wirkt die \
    in die studie eingeschlossen wurden dies ist ein wichtiger befund weil er \
    darauf hindeutet dass die therapie breiter in der klinischen praxis \
    eingesetzt werden könnte und dass weitere forschung durchgeführt werden \
    sollte um diese ergebnisse zu bestätigen";

const FRENCH_SEED: &str = "le renard brun rapide saute par dessus le chien \
    paresseux et le patient a été traité avec le nouveau médicament contre la \
    maladie du coeur qui est une des causes les plus fréquentes de décès dans \
    le monde l'étude montre qu'il existe une différence significative entre \
    les groupes et que le traitement fonctionne pour la plupart des patients \
    qui ont été inclus dans l'essai c'est une découverte importante car elle \
    suggère que la thérapie pourrait être utilisée plus largement dans la \
    pratique clinique et que des recherches supplémentaires devraient être \
    menées pour confirmer ces résultats";

const SPANISH_SEED: &str = "el rápido zorro marrón salta sobre el perro \
    perezoso y el paciente fue tratado con el nuevo medicamento contra la \
    enfermedad del corazón que es una de las causas más comunes de muerte en \
    el mundo el estudio muestra que hay una diferencia significativa entre \
    los grupos y que el tratamiento funciona para la mayoría de los pacientes \
    que fueron incluidos en el ensayo este es un hallazgo importante porque \
    sugiere que la terapia podría utilizarse más ampliamente en la práctica \
    clínica y que se deberían realizar más investigaciones para confirmar \
    estos resultados";

const SEEDS: [(Lang, &str); 4] = [
    (Lang::English, ENGLISH_SEED),
    (Lang::German, GERMAN_SEED),
    (Lang::French, FRENCH_SEED),
    (Lang::Spanish, SPANISH_SEED),
];

type PerLang<T> = [(Lang, T); SEEDS.len()];

fn profiles() -> &'static PerLang<NgramProfile> {
    static PROFILES: OnceLock<PerLang<NgramProfile>> = OnceLock::new();
    PROFILES
        .get_or_init(|| SEEDS.map(|(lang, seed)| (lang, NgramProfile::build(seed, MAX_N, TOP_K))))
}

/// Out-of-place distance of `sample` from every language profile.
fn distances(sample: &NgramProfile) -> PerLang<u64> {
    profiles()
        .each_ref()
        .map(|(lang, profile)| (*lang, profile.out_of_place(sample)))
}

/// The language at the smallest distance, if it beats the runner-up by a
/// margin: degenerate inputs are roughly equidistant from every profile.
fn closest(distances: PerLang<u64>) -> Lang {
    let mut best = (Lang::Unknown, u64::MAX);
    let mut second = u64::MAX;
    for (lang, d) in distances {
        if d < best.1 {
            second = best.1;
            best = (lang, d);
        } else if d < second {
            second = d;
        }
    }
    if second != u64::MAX && best.1 as f64 > 0.97 * second as f64 {
        return Lang::Unknown;
    }
    best.0
}

/// The language identifier. Stateless; cheap to construct.
#[derive(Debug, Clone, Copy, Default)]
pub struct LanguageId;

impl LanguageId {
    pub fn new() -> LanguageId {
        LanguageId
    }

    /// Identifies the language of `text`.
    ///
    /// Texts shorter than ~20 letters come back as [`Lang::Unknown`]; so do
    /// texts whose best profile distance is not meaningfully better than the
    /// runner-up (ambiguous input such as pure numbers or code).
    pub fn detect(&self, text: &str) -> Lang {
        let (sample, letters) = NgramProfile::build_counting_letters(text, MAX_N, TOP_K);
        if letters < 20 {
            return Lang::Unknown;
        }
        closest(distances(&sample))
    }

    /// Convenience for the crawler's language filter.
    pub fn is_english(&self, text: &str) -> bool {
        self.detect(text) == Lang::English
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EN: &str = "The treatment of the disease with this drug was effective for most of the patients in the study.";
    const DE: &str = "Die Behandlung der Krankheit mit diesem Medikament war bei den meisten Patienten in der Studie wirksam.";
    const FR: &str = "Le traitement de la maladie avec ce médicament a été efficace pour la plupart des patients de l'étude.";
    const ES: &str = "El tratamiento de la enfermedad con este medicamento fue eficaz para la mayoría de los pacientes del estudio.";
    const EN_PLAIN: &str =
        "This is a perfectly ordinary English sentence about the results of the clinical study.";
    const DE_PLAIN: &str =
        "Dies ist ein ganz gewöhnlicher deutscher Satz über die Ergebnisse der klinischen Studie.";

    #[test]
    fn detects_each_seed_language() {
        let id = LanguageId::new();
        assert_eq!(id.detect(EN), Lang::English);
        assert_eq!(id.detect(DE), Lang::German);
        assert_eq!(id.detect(FR), Lang::French);
        assert_eq!(id.detect(ES), Lang::Spanish);
    }

    #[test]
    fn short_text_is_unknown() {
        let id = LanguageId::new();
        assert_eq!(id.detect("ok"), Lang::Unknown);
        assert_eq!(id.detect("404"), Lang::Unknown);
        assert_eq!(id.detect(""), Lang::Unknown);
    }

    #[test]
    fn is_english_helper() {
        let id = LanguageId::new();
        assert!(id.is_english(EN_PLAIN));
        assert!(!id.is_english(DE_PLAIN));
    }

    /// The packed kernel against the `String`-keyed implementation it
    /// replaced: same top-k order, same four distances, same verdict.
    mod differential {
        use super::*;
        use crate::ngram::reference;
        use proptest::prelude::*;

        fn reference_distances(text: &str) -> PerLang<u64> {
            static PROFILES: OnceLock<PerLang<reference::NgramProfile>> = OnceLock::new();
            let profiles = PROFILES.get_or_init(|| {
                SEEDS.map(|(lang, seed)| (lang, reference::NgramProfile::build(seed, MAX_N, TOP_K)))
            });
            let sample = reference::NgramProfile::build(text, MAX_N, TOP_K);
            profiles
                .each_ref()
                .map(|(lang, p)| (*lang, p.out_of_place(&sample)))
        }

        /// `LanguageId::detect` as it was before the packed kernel: its own
        /// walk for the letters, the `String`-keyed distances.
        fn reference_detect(text: &str) -> Lang {
            let letters = text.chars().filter(|c| c.is_alphabetic()).count();
            if letters < 20 {
                return Lang::Unknown;
            }
            closest(reference_distances(text))
        }

        fn assert_agrees(text: &str) -> Lang {
            reference::assert_same_profile(text, MAX_N, TOP_K);
            let sample = NgramProfile::build(text, MAX_N, TOP_K);
            assert_eq!(distances(&sample), reference_distances(text));
            let lang = LanguageId::new().detect(text);
            assert_eq!(lang, reference_detect(text));
            lang
        }

        #[test]
        fn seeds_and_unit_test_sentences() {
            for (lang, seed) in SEEDS {
                assert_eq!(assert_agrees(seed), lang);
            }
            for text in [EN, DE, FR, ES, EN_PLAIN, DE_PLAIN, "ok", "404"] {
                assert_agrees(text);
            }
        }

        #[test]
        fn hostile_texts() {
            let hostile = [
                String::new(),
                "abcdefghij klmnopqrs".to_string(),  // 19 letters
                "abcdefghij klmnopqrst".to_string(), // 20
                "0123456789 +-*/ (3.14) [42] {7} !?".repeat(20),
                EN.to_uppercase(),
                // multi-char and title-case lowering: i + U+0307, ß, ǆ
                "İSTANBUL'DA İYİ BİR GÜN İÇİN İLK İŞ ".repeat(4),
                "GROẞE STRAẞE, MAẞ UND FUẞ: ẞẞẞ ".repeat(4),
                "ǅungla ǅem ǅǅ Ǆ ǆ ǈ ǋ ǲ and more letters".repeat(3),
                // combining marks: U+0301 splits a word, U+0345 is alphabetic
                "de\u{301}ja\u{300} vu\u{308} cafe\u{301} ᾳ α\u{345} Α\u{345} ".repeat(6),
                "😀 emoji 🎉 between 🚀 ordinary 👍 english 😀 words 🎉 of the text".repeat(3),
                // 4-byte letters: with (Deseret) and without (math bold) a lower case
                "𐐀𐐁𐐂 𐐨𐐩𐐪 𝐀𝐁𝐂 𝐚𝐛𝐜 𠀀𠀁𠀂 ".repeat(8),
                "a".repeat(1 << 20),
            ];
            for text in &hostile {
                assert_agrees(text);
            }
        }

        #[test]
        fn cjk_is_equidistant_hence_unknown() {
            let text = "日本語の文章は言語識別器にとって未知である 中文文本也是如此".repeat(5);
            assert!(text.chars().all(|c| c.is_alphabetic() || c == ' '));
            assert_eq!(assert_agrees(&text), Lang::Unknown);
        }

        #[test]
        fn two_hundred_thousand_distinct_code_points() {
            let text: String = ('\u{80}'..=char::MAX).take(200_000).collect();
            assert!(text.chars().filter(|c| c.is_alphabetic()).count() > 100_000);
            assert_agrees(&text);
        }

        #[test]
        fn equal_counts_straddling_the_cutoff_truncate_alike() {
            // every trigram below is distinct, so all but a handful of grams
            // occur once and the top-k cut falls inside one big tie that
            // mixes dense (`_a-z`) and spilled (`é`, `ß`) grams
            let letters: Vec<char> = "abcdefghijklmnopqrstuvwxyzéß".chars().collect();
            let mut text = String::new();
            for (i, a) in letters.iter().enumerate() {
                for b in &letters[i + 1..] {
                    text.extend([*a, *b, ' ']);
                }
            }
            let by_rank = reference::ranked_counts(&text, MAX_N);
            assert_eq!(
                by_rank[TOP_K - 1].1,
                by_rank[TOP_K].1,
                "cut must fall inside a tie"
            );
            assert_agrees(&text);
        }

        proptest! {
            #[test]
            fn random_printable_strings(text in "\\PC{0,600}") {
                assert_agrees(&text);
            }

            // a small alphabet repeats grams, so counts tie and the top-k
            // cut is reached
            #[test]
            fn random_small_alphabet_strings(text in "[a-fA-F xyzXYZİẞǅéÉ中😀0-9.\\n]{0,3000}") {
                assert_agrees(&text);
            }
        }
    }
}
