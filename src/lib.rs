//! # websift
//!
//! An end-to-end system for domain-specific information extraction at web
//! scale, reproducing Rheinländer et al., *Potential and Pitfalls of
//! Domain-Specific Information Extraction at Web Scale* (SIGMOD 2016).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`corpus`] — biomedical lexicons and generative corpus models (the
//!   Medline / PMC / web-document substitutes);
//! - [`web`] — the synthetic web substrate: graph, simulated fetching,
//!   PageRank, MIME sniffing;
//! - [`crawler`] — the Nutch-style focused crawler with its filter chain,
//!   boilerplate detector, Naive-Bayes focus classifier and seed generator;
//! - [`text`] — NLP substrate: tokenization, sentence splitting, language
//!   identification, HMM part-of-speech tagger;
//! - [`ner`] — dictionary- and CRF-based named-entity taggers for genes,
//!   drugs, and diseases;
//! - [`flow`] — the Stratosphere-style parallel data-flow engine with its
//!   operator packages, optimizer, and simulated cluster;
//! - [`pipeline`] — the consolidated analysis flows and the cross-corpus
//!   comparison / experiment harness;
//! - [`resilience`] — deterministic fault injection, retry/backoff with
//!   circuit breakers, and the checkpoint codec behind crawl and flow
//!   kill-and-resume recovery;
//! - [`serve`] — the serving layer: the sharded, provenance-carrying
//!   extraction store fed by flow store-sinks, its snapshot codec, and
//!   the admission-controlled query engine;
//! - [`live`] — incremental crawl-to-query execution: stepped crawl
//!   rounds feeding delta flow passes into the serving store, with
//!   per-round watermarks and deterministic kill-and-resume replay;
//! - [`observe`] — the observability substrate: metrics registry,
//!   logical-clock tracing with JSONL export, cost profiler with
//!   folded-stack (flamegraph) output;
//! - [`stats`] — statistics used throughout (Mann-Whitney U,
//!   Jensen-Shannon divergence, evaluation metrics, samplers);
//! - [`analyze`] — the static-analysis diagnostics core (structured
//!   diagnostics, deterministic JSON export) and the workspace
//!   determinism lints behind `repo_lint`; the plan analyzer itself is
//!   [`flow::analyze`].
//!
//! ## Quick start
//!
//! ```
//! use websift::corpus::{CorpusKind, Generator};
//! use websift::pipeline::flows;
//!
//! // Generate a tiny Medline-like corpus and run the linguistic analysis
//! // flow over it.
//! let docs = Generator::new(CorpusKind::Medline, 42).documents(10);
//! let report = flows::linguistic_report(&docs);
//! assert_eq!(report.documents, 10);
//! ```

pub use websift_analyze as analyze;
pub use websift_corpus as corpus;
pub use websift_crawler as crawler;
pub use websift_flow as flow;
pub use websift_live as live;
pub use websift_ner as ner;
pub use websift_observe as observe;
pub use websift_pipeline as pipeline;
pub use websift_resilience as resilience;
pub use websift_serve as serve;
pub use websift_stats as stats;
pub use websift_text as text;
pub use websift_web as web;
