//! Crawl-side resilience surface: options, statistics, and the sealed
//! [`CrawlCheckpoint`] container.
//!
//! The mechanics (fault decisions, backoff math, breaker state, the byte
//! codec) live in `websift-resilience`; this module defines how the
//! focused crawler exposes them — what can be tuned per crawl, what is
//! reported afterwards, and the envelope around checkpoint bytes. There
//! is no "kill" option: a simulated kill is a caller that stops calling
//! [`crate::CrawlSession::step_round`], and the one way back from a
//! frame is [`crate::CrawlSession::resume`].

use serde::Serialize;
use websift_resilience::codec;
use websift_resilience::{BackoffPolicy, CodecError, FaultPlan, Reader, Snapshot, Writer};

/// Frame tag + version for crawl checkpoints.
const CHECKPOINT_TAG: [u8; 4] = *b"WSCK";
const CHECKPOINT_VERSION: u16 = 1;

/// Per-crawl resilience configuration.
///
/// The defaults are behaviour-preserving: no fault plan, so no failures
/// are injected; the retry/breaker machinery only reacts to retryable
/// failures, which do not occur without injection; and no checkpoints
/// are taken. A plain [`crate::FocusedCrawler::crawl`] therefore runs
/// exactly as it did before this module existed.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Deterministic fault schedule; `None` disables injection.
    pub faults: Option<FaultPlan>,
    /// Backoff for retryable fetch failures.
    pub backoff: BackoffPolicy,
    /// Retries each host may consume over the whole crawl.
    pub retry_budget_per_host: u32,
    /// Consecutive retryable failures before a host's circuit opens.
    pub breaker_threshold: u32,
    /// Quarantine length (simulated ms) once a circuit opens.
    pub breaker_cooldown_ms: u64,
    /// Take a checkpoint every N rounds; `None` disables checkpointing.
    pub checkpoint_every_rounds: Option<u64>,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            faults: None,
            backoff: BackoffPolicy::default(),
            retry_budget_per_host: 8,
            breaker_threshold: 3,
            breaker_cooldown_ms: 60_000,
            checkpoint_every_rounds: None,
        }
    }
}

impl ResilienceOptions {
    /// Options for a fault-injection run: uniform fault rate across all
    /// kinds, checkpointing every `checkpoint_every` rounds.
    pub fn injected(seed: u64, rate: f64, checkpoint_every: u64) -> ResilienceOptions {
        ResilienceOptions {
            faults: Some(FaultPlan::uniform(seed, rate)),
            checkpoint_every_rounds: Some(checkpoint_every),
            ..ResilienceOptions::default()
        }
    }
}

/// Resilience counters accumulated during a crawl (part of
/// [`crate::CrawlReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ResilienceStats {
    /// Retryable failures that were scheduled for a backoff retry.
    pub retries_scheduled: u64,
    /// Retryable failures dropped because the URL ran out of attempts
    /// or its host ran out of budget.
    pub retries_exhausted: u64,
    /// Fetches deferred because the host's circuit was open.
    pub breaker_deferred: u64,
    /// Times any host's circuit tripped open.
    pub breaker_trips: u64,
    /// Transient fetch failures injected by the fault plan.
    pub injected_transient: u64,
    /// Host batches lost to (injected or real) worker panics.
    pub worker_panics: u64,
    /// Checkpoints successfully taken.
    pub checkpoints_taken: u64,
    /// Checkpoint writes lost to injected store-write faults.
    pub store_write_failures: u64,
    /// Simulated ms spent idle waiting for backoff/quarantine expiry.
    pub recovery_wait_ms: u64,
}

impl Snapshot for ResilienceStats {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.retries_scheduled);
        w.u64(self.retries_exhausted);
        w.u64(self.breaker_deferred);
        w.u64(self.breaker_trips);
        w.u64(self.injected_transient);
        w.u64(self.worker_panics);
        w.u64(self.checkpoints_taken);
        w.u64(self.store_write_failures);
        w.u64(self.recovery_wait_ms);
    }

    fn decode(r: &mut Reader<'_>) -> Result<ResilienceStats, CodecError> {
        Ok(ResilienceStats {
            retries_scheduled: r.u64()?,
            retries_exhausted: r.u64()?,
            breaker_deferred: r.u64()?,
            breaker_trips: r.u64()?,
            injected_transient: r.u64()?,
            worker_panics: r.u64()?,
            checkpoints_taken: r.u64()?,
            store_write_failures: r.u64()?,
            recovery_wait_ms: r.u64()?,
        })
    }
}

/// A sealed crawl checkpoint: the full crawler + report + retry state at
/// a segment (round) boundary, framed with a magic tag, version, and
/// checksum so corrupt or truncated snapshots are rejected on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlCheckpoint {
    frame: Vec<u8>,
    /// Round index at which this checkpoint was taken — after
    /// [`CrawlCheckpoint::from_bytes`], the caller's claim of it.
    pub round: u64,
}

impl CrawlCheckpoint {
    /// Seals a raw encoded payload (used by the crawl loop).
    pub(crate) fn seal(round: u64, payload: &[u8]) -> CrawlCheckpoint {
        CrawlCheckpoint {
            frame: codec::seal(CHECKPOINT_TAG, CHECKPOINT_VERSION, payload),
            round,
        }
    }

    /// Verifies the frame and returns the payload (used on resume).
    pub(crate) fn payload(&self) -> Result<&[u8], CodecError> {
        codec::open(CHECKPOINT_TAG, CHECKPOINT_VERSION, &self.frame)
    }

    /// The serialized frame — what a real deployment would write to
    /// durable storage.
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Rehydrates a checkpoint from stored bytes, verifying tag,
    /// version, and checksum. `round` is whatever the caller stored
    /// beside the frame; checking it takes a full decode, so that waits
    /// for [`crate::CrawlSession::resume`].
    pub fn from_bytes(round: u64, bytes: Vec<u8>) -> Result<CrawlCheckpoint, CodecError> {
        let ckpt = CrawlCheckpoint { frame: bytes, round };
        ckpt.payload()?;
        Ok(ckpt)
    }

    /// Content digest of the payload, for cheap state comparison.
    pub fn digest(&self) -> u64 {
        codec::digest(&self.frame)
    }

    pub fn size_bytes(&self) -> usize {
        self.frame.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        let ckpt = CrawlCheckpoint::seal(3, b"state bytes");
        assert_eq!(ckpt.round, 3);
        assert!(ckpt.payload().is_ok());
        let mut bytes = ckpt.as_bytes().to_vec();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            CrawlCheckpoint::from_bytes(3, bytes),
            Err(CodecError::BadChecksum { .. })
        ));
    }

    #[test]
    fn default_options_are_inert() {
        let opts = ResilienceOptions::default();
        assert!(opts.faults.is_none());
        assert!(opts.checkpoint_every_rounds.is_none());
    }
}
