//! Trained IE resources shared by the IE operator package: the POS tagger,
//! the three dictionary taggers, and the three CRF taggers.
//!
//! The paper's dictionaries are deliberately *incomplete* relative to the
//! text ("dictionary-based entity extraction typically achieves good
//! precision yet low recall because dictionaries are necessarily
//! incomplete in a field developing as fast as biomedical research");
//! [`IeConfig::dict_coverage`] reproduces that by building each dictionary
//! from only a prefix fraction of the corresponding lexicon. The CRF
//! taggers are trained on abstract-like (Medline-generator) sentences —
//! the same domain mismatch that produces the paper's TLA false-positive
//! storm on web text.

use std::collections::HashMap;
use std::sync::Arc;
use websift_corpus::{CorpusKind, Generator, LabeledSentence, Lexicon, LexiconScale};
use websift_ner::crf::{CrfConfig, CrfTagger, TrainExample};
use websift_ner::dictionary::{Dictionary, DictionaryTagger};
use websift_ner::EntityType;
use websift_text::tokenize::tokenize;
use websift_text::PosTagger;

/// Configuration for building the standard resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IeConfig {
    /// Fraction of each lexicon present in the dictionaries.
    pub dict_coverage: f64,
    /// Training sentences per CRF tagger.
    pub crf_training_sentences: usize,
    /// Enable sentence-wide context features (quadratic inference cost).
    pub crf_context_features: bool,
    pub crf_epochs: usize,
    /// Evaluate the dictionary taggers' simulated cost models at the
    /// paper's dictionary sizes (700 K / 51 K / 61 K) even when the actual
    /// dictionaries are scaled down — so the simulated cluster sees
    /// paper-scale footprints.
    pub paper_scale_costs: bool,
    pub seed: u64,
}

impl Default for IeConfig {
    fn default() -> IeConfig {
        IeConfig {
            dict_coverage: 0.7,
            crf_training_sentences: 250,
            crf_context_features: false,
            crf_epochs: 5,
            paper_scale_costs: true,
            seed: 0x1E5EED,
        }
    }
}

/// The trained resources. Cloning shares the taggers.
#[derive(Clone)]
pub struct IeResources {
    pub pos: Arc<PosTagger>,
    pub dict: HashMap<EntityType, Arc<DictionaryTagger>>,
    pub crf: HashMap<EntityType, Arc<CrfTagger>>,
    pub config: IeConfig,
    /// The scale of the lexicon the resources were built from: with
    /// `config`, the key of the [`BUILT`] memo.
    scale: LexiconScale,
}

/// The resource sets this process built most recently, oldest first.
/// The lexicon is a pure function of its scale and training is seeded, so
/// a set is keyed on `(scale, config)`. Purely a cache — a miss rebuilds
/// the identical set — and kept to the set in use plus the one before
/// it: a set is about 7 MB resident at the default lexicon scale and
/// grows with it, and a process that sweeps seeds must not accumulate
/// them.
static BUILT: parking_lot::Mutex<Vec<IeResources>> = parking_lot::Mutex::new(Vec::new());
const BUILT_CAP: usize = 2;

/// Converts a char-span labeled sentence into a token-level CRF example
/// for one entity type.
pub fn labeled_to_example(ls: &LabeledSentence, entity: EntityType) -> TrainExample {
    let tokens = tokenize(&ls.text);
    let mut spans = Vec::new();
    let mut current: Option<(usize, usize)> = None;
    for (ti, tok) in tokens.iter().enumerate() {
        let inside = ls
            .spans
            .iter()
            .any(|&(s, e, t)| t == entity && tok.start >= s && tok.end <= e);
        match (inside, current) {
            (true, None) => current = Some((ti, ti + 1)),
            (true, Some((s, _))) => current = Some((s, ti + 1)),
            (false, Some(span)) => {
                spans.push(span);
                current = None;
            }
            (false, None) => {}
        }
    }
    if let Some(span) = current {
        spans.push(span);
    }
    let token_strings: Vec<String> = tokens.iter().map(|t| t.text(&ls.text).to_string()).collect();
    TrainExample::from_spans(token_strings, &spans)
}

impl IeResources {
    /// The standard resources over `lexicon`: built once per lexicon
    /// scale and config per process, shared afterwards — so repeated runs
    /// never retrain what the process already holds.
    pub fn standard(lexicon: &Lexicon, config: IeConfig) -> IeResources {
        assert!((0.0..=1.0).contains(&config.dict_coverage));
        let scale = lexicon.scale();
        let hit = BUILT.lock().iter().find(|res| res.scale == scale && res.config == config).cloned();
        if let Some(hit) = hit {
            return hit;
        }
        // Built outside the lock: a racing duplicate build is identical.
        let built = IeResources::build(lexicon, config);
        let mut memo = BUILT.lock();
        if memo.len() == BUILT_CAP {
            memo.remove(0);
        }
        memo.push(built.clone());
        built
    }

    fn build(lexicon: &Lexicon, config: IeConfig) -> IeResources {
        let take = |terms: &[String]| -> Vec<String> {
            let n = (terms.len() as f64 * config.dict_coverage).ceil() as usize;
            terms.iter().take(n).cloned().collect()
        };
        let paper = LexiconScale::paper();
        let build = |entity: EntityType, terms: &[String], paper_count: usize| {
            let tagger = DictionaryTagger::new(&Dictionary::new(entity, terms.to_vec()));
            if config.paper_scale_costs {
                Arc::new(tagger.with_cost_reference(paper_count))
            } else {
                Arc::new(tagger)
            }
        };
        let mut dict = HashMap::new();
        dict.insert(
            EntityType::Gene,
            build(EntityType::Gene, &take(lexicon.genes()), paper.genes),
        );
        dict.insert(
            EntityType::Drug,
            build(EntityType::Drug, &take(lexicon.drugs()), paper.drugs),
        );
        dict.insert(
            EntityType::Disease,
            build(EntityType::Disease, &take(lexicon.diseases()), paper.diseases),
        );

        // CRF training data: abstract-like sentences with gold spans.
        let generator = Generator::with_lexicon(
            CorpusKind::Medline,
            config.seed,
            Arc::new(lexicon.clone()),
        );
        let sentences = generator.labeled_sentences(config.crf_training_sentences);
        let crf_config = CrfConfig {
            dim: 1 << 16,
            epochs: config.crf_epochs,
            context_features: config.crf_context_features,
            ..CrfConfig::default()
        };
        let mut crf = HashMap::new();
        for entity in EntityType::all() {
            let examples: Vec<TrainExample> = sentences
                .iter()
                .map(|ls| labeled_to_example(ls, entity))
                .collect();
            crf.insert(
                entity,
                Arc::new(CrfTagger::train(entity, &examples, crf_config)),
            );
        }

        IeResources {
            pos: Arc::new(PosTagger::pretrained().clone()),
            dict,
            crf,
            config,
            scale: lexicon.scale(),
        }
    }

    /// Small, fast resources for unit tests.
    pub fn quick_for_tests(scale: LexiconScale) -> IeResources {
        let lexicon = Lexicon::generate(scale);
        IeResources::standard(
            &lexicon,
            IeConfig {
                crf_training_sentences: 60,
                crf_epochs: 3,
                ..IeConfig::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_to_example_maps_char_spans_to_tokens() {
        let ls = LabeledSentence {
            text: "The BRCA1 gene regulates cells.".to_string(),
            spans: vec![(4, 9, EntityType::Gene)],
        };
        let ex = labeled_to_example(&ls, EntityType::Gene);
        assert_eq!(ex.tokens[1], "BRCA1");
        assert_eq!(ex.labels[1], websift_ner::crf::Label::Begin);
        assert_eq!(ex.labels[0], websift_ner::crf::Label::Outside);
        // other entity types see no spans
        let ex2 = labeled_to_example(&ls, EntityType::Drug);
        assert!(ex2.labels.iter().all(|&l| l == websift_ner::crf::Label::Outside));
    }

    #[test]
    fn multi_token_span_becomes_begin_inside() {
        let ls = LabeledSentence {
            text: "patients with chronic cardiitis improved".to_string(),
            spans: vec![(14, 31, EntityType::Disease)],
        };
        let ex = labeled_to_example(&ls, EntityType::Disease);
        use websift_ner::crf::Label;
        assert_eq!(ex.labels[2], Label::Begin);
        assert_eq!(ex.labels[3], Label::Inside);
    }

    #[test]
    fn standard_resources_build_and_tag() {
        let res = IeResources::quick_for_tests(LexiconScale::tiny());
        assert_eq!(res.dict.len(), 3);
        assert_eq!(res.crf.len(), 3);
        // dictionary coverage: 70% of the tiny gene lexicon
        let lexicon = Lexicon::generate(LexiconScale::tiny());
        let covered = lexicon.genes()[0].clone();
        let uncovered = lexicon.genes()[lexicon.genes().len() - 1].clone();
        let tagger = &res.dict[&EntityType::Gene];
        assert_eq!(tagger.tag(&format!("the {covered} gene")).len(), 1);
        assert_eq!(
            tagger.tag(&format!("the {uncovered} gene")).len(),
            0,
            "tail of the lexicon is outside the dictionary"
        );
    }
}
