//! The focused web crawler (Apache-Nutch-style, Fig. 1 of the paper).
//!
//! A focused crawler "downloads web pages, classifies them as relevant or
//! not, and only further considers links outgoing from relevant pages".
//! The crate implements the full Fig.-1 architecture from scratch:
//!
//! - [`crawldb`] — the crawl frontier with host-partitioned fetch lists
//!   (500-per-host cap) and spider-trap guards;
//! - [`linkdb`] — the crawled link graph (input to Table 2's PageRank);
//! - [`fetcher`] — multi-threaded fetching with robots.txt politeness and
//!   simulated-time accounting; each page is handed to the caller's
//!   analysis on the worker that fetched it;
//! - [`parser`] — defensive HTML tokenization, link extraction, markup
//!   repair, markup removal;
//! - [`boilerplate`] — Boilerpipe-style shallow-text-feature net-text
//!   extraction, including its documented failure modes;
//! - [`filters`] — the MIME → length → language pre-selection chain with
//!   the counters behind the paper's 9.5 % / 17 % / 14 % reductions;
//! - [`classifier`] — the incremental Naive-Bayes focus classifier;
//! - [`seeds`] — simulated search engines and Table-1 keyword-driven seed
//!   generation;
//! - [`crawl`] — the focused-crawl loop (one `round`, run whole or stepped
//!   by `CrawlSession`) with harvest-rate and throughput reporting;
//! - [`feedback`] — the §5 "consolidated process" extension: IE results
//!   steering the classifier during the crawl;
//! - [`recovery`] — resilience options, retry/breaker/checkpoint counters,
//!   and the sealed crawl-checkpoint container behind
//!   [`crawl::CrawlSession::resume`].

pub mod boilerplate;
pub mod classifier;
pub mod crawl;
pub mod crawldb;
pub mod feedback;
pub mod fetcher;
pub mod filters;
pub mod linkdb;
pub mod parser;
pub mod recovery;
pub mod seeds;

pub use boilerplate::{evaluate_extraction, BoilerplateConfig, BoilerplateDetector};
pub use classifier::{train_focus_classifier, NaiveBayes, Prediction};
pub use crawl::{CrawlConfig, CrawlCursor, CrawlReport, CrawlSession, CrawledPage, FocusedCrawler};
pub use crawldb::{CrawlDb, CrawlDbConfig, FrontierEntry, UrlStatus};
pub use feedback::IeFeedback;
pub use fetcher::{FaultContext, FetchFailure, FetchOutcome, FetchStats, Fetcher};
pub use filters::{FilterChain, FilterConfig, FilterStats, RejectReason};
pub use linkdb::LinkDb;
pub use recovery::{CheckpointLayout, CrawlCheckpoint, ResilienceOptions, ResilienceStats};
pub use seeds::{default_engines, generate_seeds, SearchEngine, SeedList};
