//! Sealed per-round watermark frames (`WSWM` v1).
//!
//! After every completed round a live session seals a **watermark**: a
//! single self-describing frame capturing everything needed to replay
//! the session from that point deterministically —
//!
//! - the crawler frontier as a sealed `WSCK` crawl-checkpoint frame plus
//!   its state digest,
//! - the retained incremental aggregate state
//!   ([`crate::IncrementalFlow::state_bytes`]),
//! - the serving store as a sealed `WSST` snapshot frame plus its
//!   content digest,
//! - the session's cumulative [`LiveMetrics`].
//!
//! Frames embed the already-sealed sub-frames verbatim, so corruption
//! anywhere is caught twice: once by the outer `WSWM` tag/version check
//! and once when the inner frame is opened. Encoding is
//! byte-deterministic (everything rides the checkpoint codec), so a
//! session resumed from round k and an uninterrupted session agree on
//! watermark bytes for every subsequent round — the property the replay
//! differential suite pins.

use websift_resilience::{codec, CodecError, Reader, Snapshot, Writer};

/// Frame tag for a sealed watermark.
pub const WATERMARK_TAG: [u8; 4] = *b"WSWM";
/// Current watermark format version.
pub const WATERMARK_VERSION: u16 = 1;

/// Cumulative session metrics, carried inside every watermark so a
/// resumed session continues the counters rather than restarting them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveMetrics {
    /// Completed rounds.
    pub rounds: u32,
    /// Relevant documents delivered by the crawler across all rounds.
    pub new_documents: u64,
    /// Records absorbed into retained aggregate state across all rounds.
    pub delta_records: u64,
    /// Total simulated cost of all delta passes.
    pub incremental_cost_secs: f64,
    /// Total simulated crawl cost across all rounds.
    pub crawl_cost_secs: f64,
    /// Simulated crawl-to-queryable latency of the most recent round.
    pub freshness_secs: f64,
    /// Retained aggregate keys after the most recent round.
    pub retained_keys: u64,
}

impl Snapshot for LiveMetrics {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.rounds);
        w.u64(self.new_documents);
        w.u64(self.delta_records);
        w.f64(self.incremental_cost_secs);
        w.f64(self.crawl_cost_secs);
        w.f64(self.freshness_secs);
        w.u64(self.retained_keys);
    }

    fn decode(r: &mut Reader<'_>) -> Result<LiveMetrics, CodecError> {
        Ok(LiveMetrics {
            rounds: r.u32()?,
            new_documents: r.u64()?,
            delta_records: r.u64()?,
            incremental_cost_secs: r.f64()?,
            crawl_cost_secs: r.f64()?,
            freshness_secs: r.f64()?,
            retained_keys: r.u64()?,
        })
    }
}

/// The decoded contents of a watermark frame.
#[derive(Debug, Clone)]
pub struct WatermarkParts {
    /// Completed rounds at seal time (the next round to run).
    pub rounds: u32,
    /// The crawler's internal round counter (idle-forwarded rounds make
    /// this run ahead of `rounds`).
    pub crawl_round: u64,
    /// Sealed `WSCK` crawl-checkpoint frame.
    pub crawl_frame: Vec<u8>,
    /// Digest of the crawler state, verified on resume.
    pub frontier_digest: u64,
    /// Retained incremental aggregate state bytes.
    pub agg_state: Vec<u8>,
    /// Sealed `WSST` store-snapshot frame.
    pub store_frame: Vec<u8>,
    /// The store's content digest at seal time, verified on resume.
    pub store_digest: u64,
    /// Cumulative session metrics.
    pub metrics: LiveMetrics,
}

impl Snapshot for WatermarkParts {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.rounds);
        w.u64(self.crawl_round);
        w.bytes(&self.crawl_frame);
        w.u64(self.frontier_digest);
        w.bytes(&self.agg_state);
        w.bytes(&self.store_frame);
        w.u64(self.store_digest);
        self.metrics.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WatermarkParts, CodecError> {
        Ok(WatermarkParts {
            rounds: r.u32()?,
            crawl_round: r.u64()?,
            crawl_frame: r.bytes()?,
            frontier_digest: r.u64()?,
            agg_state: r.bytes()?,
            store_frame: r.bytes()?,
            store_digest: r.u64()?,
            metrics: LiveMetrics::decode(r)?,
        })
    }
}

/// A sealed watermark frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watermark {
    frame: Vec<u8>,
}

impl Watermark {
    /// Seals `parts` into a `WSWM` v1 frame.
    pub fn seal(parts: &WatermarkParts) -> Watermark {
        let mut w = Writer::new();
        parts.encode(&mut w);
        Watermark { frame: codec::seal(WATERMARK_TAG, WATERMARK_VERSION, &w.into_bytes()) }
    }

    /// Adopts sealed frame bytes, verifying tag, version, checksum, and
    /// full payload decode up front so later [`Watermark::parts`] calls
    /// cannot fail on a frame accepted here.
    pub fn from_bytes(frame: Vec<u8>) -> Result<Watermark, CodecError> {
        let payload = codec::open(WATERMARK_TAG, WATERMARK_VERSION, &frame)?;
        let mut r = Reader::new(payload);
        WatermarkParts::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing watermark bytes" });
        }
        Ok(Watermark { frame })
    }

    /// The sealed frame bytes (what goes to stable storage).
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Decodes the frame contents.
    pub fn parts(&self) -> WatermarkParts {
        let payload = codec::open(WATERMARK_TAG, WATERMARK_VERSION, &self.frame)
            // lint:allow(untrusted_unwrap): from_bytes opened this frame to accept it
            .expect("verified at construction");
        let mut r = Reader::new(payload);
        // lint:allow(untrusted_unwrap): from_bytes decoded these parts in full to accept them
        WatermarkParts::decode(&mut r).expect("verified at construction")
    }

    /// Completed rounds at seal time, without a full decode.
    pub fn rounds(&self) -> u32 {
        self.parts().rounds
    }

    /// Digest over the sealed frame bytes.
    pub fn digest(&self) -> u64 {
        codec::digest(&self.frame)
    }

    /// Size of the sealed frame in bytes.
    pub fn size_bytes(&self) -> usize {
        self.frame.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_parts() -> WatermarkParts {
        WatermarkParts {
            rounds: 3,
            crawl_round: 5,
            crawl_frame: vec![1, 2, 3, 4],
            frontier_digest: 0xDEAD_BEEF,
            agg_state: vec![9, 8, 7],
            store_frame: vec![5, 5, 5, 5, 5],
            store_digest: 0xCAFE,
            metrics: LiveMetrics {
                rounds: 3,
                new_documents: 120,
                delta_records: 4_096,
                incremental_cost_secs: 1.25,
                crawl_cost_secs: 30.5,
                freshness_secs: 0.75,
                retained_keys: 900,
            },
        }
    }

    #[test]
    fn watermark_round_trips() {
        let sealed = Watermark::seal(&sample_parts());
        let reopened = Watermark::from_bytes(sealed.as_bytes().to_vec()).unwrap();
        assert_eq!(sealed, reopened);
        let parts = reopened.parts();
        assert_eq!(parts.rounds, 3);
        assert_eq!(parts.crawl_round, 5);
        assert_eq!(parts.crawl_frame, vec![1, 2, 3, 4]);
        assert_eq!(parts.frontier_digest, 0xDEAD_BEEF);
        assert_eq!(parts.agg_state, vec![9, 8, 7]);
        assert_eq!(parts.store_frame, vec![5, 5, 5, 5, 5]);
        assert_eq!(parts.store_digest, 0xCAFE);
        assert_eq!(parts.metrics, sample_parts().metrics);
        assert_eq!(reopened.rounds(), 3);
    }

    #[test]
    fn sealing_is_deterministic() {
        let a = Watermark::seal(&sample_parts());
        let b = Watermark::seal(&sample_parts());
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn corrupted_frame_is_rejected() {
        let sealed = Watermark::seal(&sample_parts());
        let mut bytes = sealed.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(Watermark::from_bytes(bytes).is_err());
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let sealed = Watermark::seal(&sample_parts());
        let mut bytes = sealed.as_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(Watermark::from_bytes(bytes).is_err());
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let sealed = Watermark::seal(&sample_parts());
        let bytes = sealed.as_bytes();
        assert!(Watermark::from_bytes(bytes[..bytes.len() - 1].to_vec()).is_err());
    }

    fn sample_payload() -> Vec<u8> {
        let mut w = Writer::new();
        sample_parts().encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn truncated_payloads_resealed_are_rejected() {
        let payload = sample_payload();
        for cut in 0..payload.len() {
            let frame = codec::seal(WATERMARK_TAG, WATERMARK_VERSION, &payload[..cut]);
            assert!(
                Watermark::from_bytes(frame).is_err(),
                "payload cut at {cut}/{} accepted",
                payload.len()
            );
        }
    }

    #[test]
    fn flipped_payload_bits_resealed_never_panic() {
        let payload = sample_payload();
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= 1 << (at % 8);
            let frame = codec::seal(WATERMARK_TAG, WATERMARK_VERSION, &flipped);
            // an error or a watermark whose parts decode — never a panic
            if let Ok(watermark) = Watermark::from_bytes(frame) {
                watermark.parts();
            }
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut w = Writer::new();
        sample_parts().encode(&mut w);
        let mut payload = w.into_bytes();
        payload.push(0);
        let frame = codec::seal(WATERMARK_TAG, WATERMARK_VERSION, &payload);
        assert!(Watermark::from_bytes(frame).is_err());
    }
}
