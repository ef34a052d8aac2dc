//! Biomedical lexicons: deterministic, generative term banks.
//!
//! The paper draws its dictionaries from Gene Ontology / DrugBank /
//! UMLS-MeSH (700 K gene names, 51 K drug names, 61 K disease names) and
//! its search keywords from the NCI and Genetic Alliance glossaries
//! (Table 1). Those resources are licensed data we do not ship; instead
//! this module *generates* morphologically plausible, unique term banks of
//! configurable size. The generators are deterministic in the term index,
//! so every component of the system (corpus generator, dictionaries, seed
//! queries, gold annotations) agrees on what the "true" vocabulary is.

/// Sizes for the generated lexicons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexiconScale {
    pub genes: usize,
    pub drugs: usize,
    pub diseases: usize,
}

impl LexiconScale {
    /// Paper-scale sizes (700 K / 51 K / 61 K).
    pub fn paper() -> LexiconScale {
        LexiconScale {
            genes: 700_000,
            drugs: 51_188,
            diseases: 61_438,
        }
    }

    /// Default working scale (1:100 of the paper) — large enough for
    /// realistic automata, small enough for fast tests and benches.
    pub fn default_scale() -> LexiconScale {
        LexiconScale {
            genes: 7_000,
            drugs: 512,
            diseases: 614,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> LexiconScale {
        LexiconScale {
            genes: 200,
            drugs: 60,
            diseases: 80,
        }
    }
}

/// The generated term banks.
#[derive(Debug, Clone)]
pub struct Lexicon {
    genes: Vec<String>,
    drugs: Vec<String>,
    diseases: Vec<String>,
    scale: LexiconScale,
}

const CONSONANT_PAIRS: &[&str] = &[
    "BR", "CR", "DR", "FR", "GR", "KR", "PR", "TR", "BL", "CL", "FL", "GL", "PL", "SL", "SM",
    "SN", "SP", "ST", "TW", "KN",
];

const DRUG_STEMS: &[&str] = &[
    "lora", "meti", "carbo", "dexa", "flu", "pred", "cyclo", "oxa", "keto", "ami", "beta", "gaba",
    "vala", "zopi", "sulfa", "tetra", "ribo", "lisi", "ator", "ome",
];
const DRUG_MID: &[&str] = &[
    "ni", "ra", "lo", "xi", "do", "ve", "mi", "ta", "pi", "zo", "ci", "fe", "ga", "ru", "se",
];
const DRUG_SUFFIXES: &[&str] = &[
    "mab", "nib", "pril", "statin", "olol", "azole", "cillin", "mycin", "dipine", "sartan",
    "oxacin", "tidine", "profen", "azepam", "triptan", "vir", "gliptin", "parin", "caine", "zide",
];

const DISEASE_ROOTS: &[&str] = &[
    "cardi", "neur", "hepat", "derm", "gastr", "nephr", "arthr", "oste", "my", "psych", "pulmon",
    "hemat", "angi", "enceph", "col", "bronch", "rhin", "ot", "mening", "thyroid",
];
const DISEASE_SUFFIXES: &[&str] = &[
    "itis", "oma", "osis", "opathy", "algia", "emia", "itis b", "odynia", "oma grade ii",
    "osclerosis",
];
const DISEASE_MODIFIERS: &[&str] = &[
    "", "chronic ", "acute ", "severe ", "juvenile ", "hereditary ", "idiopathic ", "recurrent ",
];

/// General biomedical terms (the "general terms" seed category of Table 1).
pub const GENERAL_MEDICAL_TERMS: &[&str] = &[
    "cancer", "chronic pain", "tumor", "therapy", "diagnosis", "syndrome", "infection",
    "inflammation", "treatment", "symptom", "prognosis", "remission", "biopsy", "metastasis",
    "antibody", "vaccine", "pathogen", "immune system", "clinical trial", "gene expression",
    "mutation", "protein", "enzyme", "receptor", "hormone", "chemotherapy", "radiation",
    "surgery", "transplant", "screening", "prevention", "epidemiology", "dose", "side effect",
    "placebo", "relapse", "lesion", "carcinoma", "lymphoma", "leukemia",
];

/// Common English vocabulary for synthesizing non-entity prose.
pub const ENGLISH_CONTENT_WORDS: &[&str] = &[
    "study", "result", "patient", "group", "level", "effect", "analysis", "method", "datum",
    "report", "case", "risk", "rate", "change", "increase", "decrease", "response", "sample",
    "test", "measure", "value", "factor", "model", "approach", "system", "process", "research",
    "evidence", "finding", "outcome", "period", "time", "year", "number", "part", "form",
    "work", "problem", "question", "example", "development", "information", "community",
    "family", "health", "care", "service", "support", "program", "review", "article", "page",
    "website", "comment", "news", "story", "product", "price", "offer", "market", "company",
    "business", "customer", "order", "account", "member", "user", "video", "photo", "game",
    "music", "travel", "food", "recipe", "sport", "team", "player", "season", "weather",
    "school", "student", "money", "house", "city", "country", "world", "people", "life",
];

/// English verbs/adjectives/function words for sentence assembly.
pub const ENGLISH_VERBS: &[&str] = &[
    "shows", "suggests", "indicates", "reduces", "increases", "affects", "causes", "improves",
    "reveals", "confirms", "supports", "requires", "provides", "includes", "contains",
    "describes", "reports", "presents", "compares", "demonstrates",
];
pub const ENGLISH_ADJECTIVES: &[&str] = &[
    "significant", "important", "common", "severe", "effective", "normal", "clinical", "large",
    "small", "high", "low", "new", "recent", "major", "specific", "general", "relevant", "useful",
    "good", "free",
];
pub const FUNCTION_WORDS: &[&str] = &[
    "the", "a", "of", "in", "and", "to", "with", "for", "on", "by", "from", "at", "as", "is",
    "are", "was", "were", "be", "that", "this", "which", "or", "an", "but", "can", "may",
];
pub const PRONOUNS: &[&str] = &["it", "they", "we", "these", "those", "he", "she", "them", "its", "their"];
pub const NEGATION_WORDS: &[&str] = &["not", "nor", "neither"];

impl Lexicon {
    /// Generates the lexicon at the given scale. Deterministic.
    pub fn generate(scale: LexiconScale) -> Lexicon {
        Lexicon {
            genes: (0..scale.genes).map(gene_name).collect(),
            drugs: (0..scale.drugs).map(drug_name).collect(),
            diseases: (0..scale.diseases).map(disease_name).collect(),
            scale,
        }
    }

    pub fn scale(&self) -> LexiconScale {
        self.scale
    }

    pub fn genes(&self) -> &[String] {
        &self.genes
    }

    pub fn drugs(&self) -> &[String] {
        &self.drugs
    }

    pub fn diseases(&self) -> &[String] {
        &self.diseases
    }

    /// Search terms for seed generation (Table 1): category → term list.
    /// `fraction` selects the first crawl's subset (the paper's bracketed
    /// counts used roughly 1/10 to 1/30 of each category).
    pub fn search_terms(&self, category: SearchCategory, count: usize) -> Vec<String> {
        let source: Vec<String> = match category {
            SearchCategory::General => GENERAL_MEDICAL_TERMS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            SearchCategory::Disease => self.diseases.clone(),
            SearchCategory::Drug => self.drugs.clone(),
            SearchCategory::Gene => self.genes.clone(),
        };
        source.into_iter().cycle().take(count).collect()
    }
}

/// The four seed keyword categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchCategory {
    General,
    Disease,
    Drug,
    Gene,
}

impl SearchCategory {
    pub fn all() -> [SearchCategory; 4] {
        [
            SearchCategory::General,
            SearchCategory::Disease,
            SearchCategory::Drug,
            SearchCategory::Gene,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            SearchCategory::General => "general terms",
            SearchCategory::Disease => "disease-specific",
            SearchCategory::Drug => "drug-specific",
            SearchCategory::Gene => "gene-specific",
        }
    }

    /// Table 1 term counts at paper scale: (total, first-crawl subset).
    pub fn paper_counts(self) -> (usize, usize) {
        match self {
            SearchCategory::General => (500, 166),
            SearchCategory::Disease => (5000, 468),
            SearchCategory::Drug => (4000, 325),
            SearchCategory::Gene => (6500, 246),
        }
    }
}

/// Deterministic gene symbol for index `i`: consonant-pair + letters +
/// numeric suffix, e.g. `BRCA1`, `STK38`, `KRT17`. Unique for all `i`.
/// Roughly one in six symbols is three characters long (`TNF`, `AK4`) —
/// real gene nomenclature is full of such short symbols, and they are what
/// makes three-letter acronyms on the web indistinguishable from genes for
/// shape-driven ML taggers (§4.3.2).
pub fn gene_name(i: usize) -> String {
    if i % 6 == 5 {
        // short symbols: two letters + digit (BK4), from a dedicated
        // counter space to stay unique. Deliberately never three pure
        // letters: the *shape* (all-caps, length 3) is what confuses the
        // ML taggers about web acronyms, while the dictionary automaton
        // must not literally contain arbitrary TLAs.
        let k = i / 6;
        let l1 = (b'A' + (k % 26) as u8) as char;
        let l2 = (b'A' + ((k / 26) % 26) as u8) as char;
        return format!("{l1}{l2}{}", k % 9 + 1);
    }
    let pair = CONSONANT_PAIRS[i % CONSONANT_PAIRS.len()];
    let letter1 = (b'A' + ((i / CONSONANT_PAIRS.len()) % 26) as u8) as char;
    let letter2 = (b'A' + ((i / (CONSONANT_PAIRS.len() * 26)) % 26) as u8) as char;
    let number = i / (CONSONANT_PAIRS.len() * 26 * 26);
    if number == 0 {
        format!("{pair}{letter1}{letter2}{}", i % 9 + 1)
    } else {
        format!("{pair}{letter1}{letter2}{number}{}", i % 9 + 1)
    }
}

/// Deterministic drug name for index `i`, e.g. `lorani-mab`-style
/// `Loranimab`. Unique for all `i`.
pub fn drug_name(i: usize) -> String {
    let stem = DRUG_STEMS[i % DRUG_STEMS.len()];
    let mid = DRUG_MID[(i / DRUG_STEMS.len()) % DRUG_MID.len()];
    let suffix = DRUG_SUFFIXES[(i / (DRUG_STEMS.len() * DRUG_MID.len())) % DRUG_SUFFIXES.len()];
    let round = i / (DRUG_STEMS.len() * DRUG_MID.len() * DRUG_SUFFIXES.len());
    let mut name = if round == 0 {
        format!("{stem}{mid}{suffix}")
    } else {
        format!("{stem}{mid}{round}{suffix}")
    };
    // Capitalize like a trade name.
    let first = name.remove(0);
    format!("{}{name}", first.to_uppercase())
}

/// Deterministic disease name for index `i`, e.g. `chronic cardiitis`,
/// `neuroma grade ii`. Unique for all `i`.
pub fn disease_name(i: usize) -> String {
    let root = DISEASE_ROOTS[i % DISEASE_ROOTS.len()];
    let suffix = DISEASE_SUFFIXES[(i / DISEASE_ROOTS.len()) % DISEASE_SUFFIXES.len()];
    let modifier =
        DISEASE_MODIFIERS[(i / (DISEASE_ROOTS.len() * DISEASE_SUFFIXES.len())) % DISEASE_MODIFIERS.len()];
    let round = i / (DISEASE_ROOTS.len() * DISEASE_SUFFIXES.len() * DISEASE_MODIFIERS.len());
    if round == 0 {
        format!("{modifier}{root}{suffix}")
    } else {
        format!("{modifier}{root}{suffix} type {round}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generated_names_are_unique() {
        for gen in [gene_name as fn(usize) -> String, drug_name, disease_name] {
            let names: Vec<String> = (0..5000).map(gen).collect();
            let set: HashSet<&String> = names.iter().collect();
            assert_eq!(set.len(), names.len(), "duplicate names from {names:?}");
        }
    }

    #[test]
    fn lexicon_sizes_match_scale() {
        let lex = Lexicon::generate(LexiconScale::tiny());
        assert_eq!(lex.genes().len(), 200);
        assert_eq!(lex.drugs().len(), 60);
        assert_eq!(lex.diseases().len(), 80);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Lexicon::generate(LexiconScale::tiny());
        let b = Lexicon::generate(LexiconScale::tiny());
        assert_eq!(a.genes(), b.genes());
        assert_eq!(a.drugs(), b.drugs());
    }

    #[test]
    fn gene_names_look_like_symbols() {
        let g = gene_name(0);
        assert!(g.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit()));
        assert!(g.len() >= 3 && g.len() <= 8, "{g}");
    }

    #[test]
    fn drug_names_are_capitalized_words() {
        let d = drug_name(7);
        assert!(d.chars().next().unwrap().is_uppercase());
        assert!(d.chars().skip(1).all(|c| c.is_lowercase() || c.is_ascii_digit()));
    }

    #[test]
    fn disease_names_are_lowercase_phrases() {
        let d = disease_name(500);
        assert!(d.chars().next().unwrap().is_lowercase());
        assert!(!d.is_empty());
    }

    #[test]
    fn search_terms_counts() {
        let lex = Lexicon::generate(LexiconScale::tiny());
        let terms = lex.search_terms(SearchCategory::Disease, 30);
        assert_eq!(terms.len(), 30);
        let general = lex.search_terms(SearchCategory::General, 10);
        assert_eq!(general.len(), 10);
        assert!(general.contains(&"cancer".to_string()));
    }

    #[test]
    fn table1_counts() {
        assert_eq!(SearchCategory::General.paper_counts(), (500, 166));
        assert_eq!(SearchCategory::Gene.paper_counts(), (6500, 246));
        let total: usize = SearchCategory::all()
            .iter()
            .map(|c| c.paper_counts().0)
            .sum();
        assert_eq!(total, 16_000);
    }

    #[test]
    fn paper_scale_is_large() {
        let s = LexiconScale::paper();
        assert_eq!(s.genes, 700_000);
        assert_eq!(s.drugs, 51_188);
        assert_eq!(s.diseases, 61_438);
    }
}
