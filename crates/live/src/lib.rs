//! Incremental crawl-to-query execution ("websift-live").
//!
//! The batch pipeline answers "what did the web say when we last
//! crawled it?"; the paper's web-scale framing wants the other
//! question — "what does the web say *now*?" — without paying a full
//! recompute per refresh. This crate turns the existing pieces into a
//! long-running **live session**:
//!
//! - the focused crawler is stepped one round at a time
//!   ([`websift_crawler::CrawlSession`]), delivering only the pages
//!   accepted since the previous step;
//! - a [`IncrementalFlow`] runs the extraction plan as a **delta pass**
//!   over just those records, folding pre-reduce streams into retained
//!   per-key aggregate state instead of recomputing reduces (the PR-5
//!   combinability machinery, applied across rounds);
//! - `store:` sinks drain into the serving [`websift_serve`] store with
//!   the live round stamped as the postings' crawl round, so queries
//!   can filter by freshness (`since <round>`);
//! - after every round the session seals a [`Watermark`] — a single
//!   deterministic frame embedding the crawler checkpoint, retained
//!   aggregate state, and store snapshot — from which
//!   [`LiveSession::resume_from`] replays the session byte-identically:
//!   same store digests, same metrics, same trace timestamps.
//!
//! Determinism is the load-bearing property. Both crawler stepping and
//! delta folding were built to be bit-identical to their batch
//! counterparts, so the differential suite can assert
//! `incremental ≡ batch recompute ≡ kill + resume` on codec bytes, not
//! on approximate equality.

pub mod incremental;
pub mod session;
pub mod watermark;

pub use incremental::IncrementalFlow;
pub use session::{LiveOptions, LiveRound, LiveSession};
pub use watermark::{LiveMetrics, Watermark, WatermarkParts, WATERMARK_TAG, WATERMARK_VERSION};

use websift_flow::ExecutionError;

/// Failures of live compilation, execution, or replay.
#[derive(Debug)]
pub enum LiveError {
    /// The plan has a non-combinable (`Aggregate::Custom`) reduce: live
    /// mode cannot retain opaque closure state across rounds.
    NonCombinableReduce { name: String },
    /// A reduce feeds another operator. Live mode retains reduce state
    /// *instead of* executing the reduce per round, so reduces must be
    /// terminal (directly feeding one sink).
    ReduceNotTerminal { name: String },
    /// A `store:` sink names a store other than the session's.
    MisroutedStoreSink { sink: String, expected: String },
    /// The plan failed [`websift_flow::LogicalPlan::validate`] or could
    /// not be rebuilt for delta execution.
    PlanInvalid(String),
    /// A watermark's recorded digest or shape does not match the
    /// rebuilt state — the frame belongs to a different session, plan,
    /// or corpus.
    StateMismatch { what: String },
    /// The per-round delta pass failed.
    Flow(ExecutionError),
    /// A frame could not be decoded.
    Codec(websift_resilience::CodecError),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::NonCombinableReduce { name } => write!(
                f,
                "reduce '{name}' uses a custom aggregate, which cannot be folded \
                 incrementally; use a typed Aggregate or reduce_custom_combinable"
            ),
            LiveError::ReduceNotTerminal { name } => write!(
                f,
                "reduce '{name}' feeds another operator; live mode requires reduces \
                 to feed a sink directly"
            ),
            LiveError::MisroutedStoreSink { sink, expected } => write!(
                f,
                "store sink '{sink}' does not route to the session store '{expected}'"
            ),
            LiveError::PlanInvalid(why) => write!(f, "plan unusable for live execution: {why}"),
            LiveError::StateMismatch { what } => write!(f, "watermark replay mismatch: {what}"),
            LiveError::Flow(e) => write!(f, "delta pass failed: {e}"),
            LiveError::Codec(e) => write!(f, "frame decode failed: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<ExecutionError> for LiveError {
    fn from(e: ExecutionError) -> LiveError {
        LiveError::Flow(e)
    }
}
