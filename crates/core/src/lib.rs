//! The consolidated websift pipeline — the paper's primary artifact.
//!
//! This crate ties the substrates together into the system the paper
//! describes: the Fig.-2 analysis flows over the data-flow engine
//! ([`flows`]), corpus assembly from generators or from an actual focused
//! crawl ([`corpora`]), the §4.3.1 linguistic analysis ([`analysis`]), the
//! §4.3.2 entity analysis with Table-4/Fig.-7/Fig.-8 machinery
//! ([`entities`]), and the experiment context with the paper's reference
//! values ([`experiment`]).

pub mod analysis;
pub mod corpora;
pub mod entities;
pub mod experiment;
pub mod flows;

pub use analysis::{aggregate, compare, CorpusLinguistics, DocMeasurements, Measure};
pub use corpora::{documents_from_pages, documents_to_records, Corpora, CorpusScale};
pub use entities::{
    aggregate_entities, entities_of, name_divergence, overlap_partition, CorpusEntities,
    ExtractedEntity, OverlapPartition,
};
pub use experiment::{paper, ExperimentContext};
pub use flows::{
    entity_flow_for, entity_store_flow, full_analysis_plan, linguistic_flow, linguistic_report,
    live_extraction_flow, run_over_documents, run_over_documents_into, token_frequency_flow,
    LinguisticReport, MethodSelection,
};
