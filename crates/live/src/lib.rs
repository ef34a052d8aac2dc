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
//!   per-key aggregate state instead of recomputing reduces (the
//!   executor's partial-aggregation fold and merge, applied across
//!   rounds — every Reduce is a typed, mergeable `Aggregate`);
//! - `store:` sinks drain into the serving [`websift_serve`] store with
//!   the live round stamped as the postings' crawl round, so queries
//!   can filter by freshness (`since <round>`);
//! - after every round the session seals a [`Watermark`] — a single
//!   deterministic frame embedding the crawler checkpoint, retained
//!   aggregate state, and store snapshot: whole in round 1, and after that
//!   what the round changed plus the checksum of the frame before — from
//!   whose chain [`LiveSession::resume_from`] replays the session
//!   byte-identically: same store digests, same metrics, same trace
//!   timestamps.
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
    /// A reduce feeds another operator. Live mode retains reduce state
    /// *instead of* executing the reduce per round, so reduces must be
    /// terminal (directly feeding one sink).
    ReduceNotTerminal { name: String },
    /// The plan failed [`websift_flow::LogicalPlan::validate`] or could
    /// not be rebuilt for delta execution.
    PlanInvalid(String),
    /// A watermark's recorded digest or shape does not match the
    /// rebuilt state — the frame belongs to a different session, plan,
    /// or corpus.
    StateMismatch { what: String },
    /// The per-round delta pass failed, or — when a session starts or
    /// resumes — the executor's store routing check
    /// ([`websift_flow::store_drains`]) refused a `store:` sink.
    Flow(ExecutionError),
    /// A frame could not be decoded.
    Codec(websift_resilience::CodecError),
    /// The watermarks handed to [`LiveSession::resume_from`] are not one
    /// session's chain: none, a first frame that is not whole, or a frame
    /// (of `round`) that does not follow the one before it — missing,
    /// repeated, reordered or forged.
    BrokenChain { round: u32, why: &'static str },
    /// The crawl options ask for a cadence checkpoint every
    /// `every_rounds` rounds. A live session seals its watermark — its
    /// one frame — every round, and nothing would drain the cadence
    /// frames, each of which encodes every page body the crawl holds.
    CheckpointCadence { every_rounds: u64 },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::ReduceNotTerminal { name } => write!(
                f,
                "reduce '{name}' feeds another operator; live mode requires reduces \
                 to feed a sink directly"
            ),
            LiveError::PlanInvalid(why) => write!(f, "plan unusable for live execution: {why}"),
            LiveError::StateMismatch { what } => write!(f, "watermark replay mismatch: {what}"),
            LiveError::Flow(e) => write!(f, "delta pass failed: {e}"),
            LiveError::Codec(e) => write!(f, "frame decode failed: {e}"),
            LiveError::BrokenChain { round, why } => {
                write!(f, "watermark chain broken at round {round}: {why}")
            }
            LiveError::CheckpointCadence { every_rounds } => write!(
                f,
                "checkpoint_every_rounds = {every_rounds}: a live session's watermark is its \
                 frame every round, so it takes no crawl checkpoint cadence"
            ),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<ExecutionError> for LiveError {
    fn from(e: ExecutionError) -> LiveError {
        LiveError::Flow(e)
    }
}
