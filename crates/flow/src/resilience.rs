//! Flow-side resilience surface: per-run options and the sealed
//! operator-granular [`FlowCheckpoint`].
//!
//! The paper's flows died for infrastructure reasons — timeout-induced
//! crashes, lost workers, failed nodes — and every death meant rerunning
//! the whole flow over terabytes of crawled data. This module gives the
//! executor the knobs to (a) inject those failures deterministically,
//! (b) retry lost partitions and reschedule around dead nodes, and
//! (c) checkpoint completed plan nodes so a rerun resumes instead of
//! restarting.
//!
//! There is no "kill" option. Every run returns the frames it sealed
//! ([`crate::FlowOutput::checkpoints`]), and a run killed at node boundary
//! `k` would have left exactly the prefix of them with `next_node <= k`.
//! A run given any one as [`crate::RunOptions::resume`] continues.

use websift_resilience::codec;
use websift_resilience::{CodecError, FaultPlan, Reader};

/// Frame tag + version for flow checkpoints. Version 2: every flow
/// metric lives in the registry snapshot only, and node losses are one
/// list.
const CHECKPOINT_TAG: [u8; 4] = *b"WSFK";
const CHECKPOINT_VERSION: u16 = 2;

/// Per-run resilience configuration for [`crate::Executor`].
///
/// Defaults are behaviour-preserving: no fault plan means no injected
/// panics or losses, and the retry/rescheduling machinery only engages on
/// failures — so [`crate::Executor::run`] behaves exactly as it did
/// before this module existed.
#[derive(Debug, Clone)]
pub struct FlowResilience {
    /// Deterministic fault schedule; `None` disables injection.
    pub faults: Option<FaultPlan>,
    /// Times a panicked partition is re-launched before the operator
    /// (and flow) is declared failed.
    pub partition_retries: u32,
    /// Take a checkpoint after every N completed plan nodes; `None`
    /// disables checkpointing.
    pub checkpoint_every_nodes: Option<usize>,
}

impl Default for FlowResilience {
    fn default() -> FlowResilience {
        FlowResilience {
            faults: None,
            partition_retries: 3,
            checkpoint_every_nodes: None,
        }
    }
}

impl FlowResilience {
    /// Options for a fault-injection run: uniform fault rate across all
    /// kinds, checkpointing every `checkpoint_every` plan nodes.
    pub fn injected(seed: u64, rate: f64, checkpoint_every: usize) -> FlowResilience {
        FlowResilience {
            faults: Some(FaultPlan::uniform(seed, rate)),
            checkpoint_every_nodes: Some(checkpoint_every),
            ..FlowResilience::default()
        }
    }
}

/// A sealed flow checkpoint: the executor's complete mid-plan state
/// (live node outputs and consumer counts, sink contents, charged
/// startups, lost cluster nodes) followed by the observer's registry
/// snapshot — the one copy of every flow metric — framed with a magic
/// tag, version, and checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowCheckpoint {
    frame: Vec<u8>,
    /// Index of the next plan node to execute on resume: the boundary
    /// the frame was sealed at.
    pub next_node: usize,
}

impl FlowCheckpoint {
    pub(crate) fn seal(next_node: usize, payload: &[u8]) -> FlowCheckpoint {
        FlowCheckpoint {
            frame: codec::seal(CHECKPOINT_TAG, CHECKPOINT_VERSION, payload),
            next_node,
        }
    }

    pub(crate) fn payload(&self) -> Result<&[u8], CodecError> {
        codec::open(CHECKPOINT_TAG, CHECKPOINT_VERSION, &self.frame)
    }

    /// The serialized frame — what a real deployment would persist.
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Rehydrates a checkpoint from stored bytes, verifying tag,
    /// version, and checksum. `next_node` is read from the payload —
    /// its first field is the boundary the executor state was sealed at,
    /// the one a resume continues from.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<FlowCheckpoint, CodecError> {
        let payload = codec::open(CHECKPOINT_TAG, CHECKPOINT_VERSION, &bytes)?;
        let next_node = Reader::new(payload).usize()?;
        Ok(FlowCheckpoint { frame: bytes, next_node })
    }

    /// Content digest, for cheap state comparison.
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

    /// A payload that starts with the sealed boundary, as the executor's
    /// state encoding does.
    fn state_at(next_node: usize) -> Vec<u8> {
        let mut payload = (next_node as u64).to_le_bytes().to_vec();
        payload.extend_from_slice(b"executor state");
        payload
    }

    #[test]
    fn corrupted_flow_checkpoint_is_rejected() {
        let ckpt = FlowCheckpoint::seal(5, &state_at(5));
        assert_eq!(ckpt.next_node, 5);
        assert!(ckpt.payload().is_ok());
        let mut bytes = ckpt.as_bytes().to_vec();
        bytes[10] ^= 0x01;
        assert!(FlowCheckpoint::from_bytes(bytes).is_err());
    }

    #[test]
    fn next_node_is_the_sealed_boundary_not_a_caller_claim() {
        for at in [0usize, 3, 99] {
            let stored = FlowCheckpoint::seal(at, &state_at(at)).as_bytes().to_vec();
            let restored = FlowCheckpoint::from_bytes(stored).unwrap();
            assert_eq!(restored.next_node, at);
        }
        // too short to hold the boundary
        let short = FlowCheckpoint::seal(0, &[1, 2, 3, 4, 5, 6, 7]).as_bytes().to_vec();
        assert!(matches!(FlowCheckpoint::from_bytes(short), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn default_flow_resilience_is_inert() {
        let r = FlowResilience::default();
        assert!(r.faults.is_none());
        assert!(r.checkpoint_every_nodes.is_none());
    }
}
