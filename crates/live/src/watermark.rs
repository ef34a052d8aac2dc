//! Sealed per-round watermark frames (`WSWM` v3), chained.
//!
//! After every completed round a live session seals a **watermark**. The
//! first one of a session is whole: everything needed to replay the
//! session from that point deterministically. Every later one holds only
//! what its round changed, and the checksum of the frame before it, so
//! the frames of rounds 1..k are a chain that
//! [`crate::LiveSession::resume_from`] replays. A watermark holds
//!
//! - the crawler state as a sealed `WSCK` v3 crawl frame — whole in the
//!   first frame, what changed since the previous frame's cursor in the
//!   others (pages, URLs, links, frontier pushes and pops, status
//!   changes, classifier words; retry state, counters and registry
//!   whole) — plus the digest of that frame's crawler and report
//!   segments. The report commits to every page body by digest but the
//!   frame carries only the bodies of pages not yet drained downstream —
//!   after a round, none: a session resumed from watermarks has no bodies
//!   for its pre-kill pages (empty `net_text`, digests intact),
//! - the retained incremental aggregate state
//!   ([`crate::IncrementalFlow::state_bytes`]) — in a later frame only
//!   the keys the round folded,
//! - the serving store as a sealed `WSST` snapshot frame — in a later
//!   frame only the posting lists stamped with the round — plus the
//!   content digest of the whole store,
//! - the session's cumulative [`LiveMetrics`].
//!
//! Frames embed the already-sealed sub-frames verbatim, so corruption
//! anywhere is caught twice: once by the outer `WSWM` tag/version check
//! and once when the inner frame is opened. Encoding is
//! byte-deterministic (everything rides the checkpoint codec), so a
//! session resumed from round k and an uninterrupted session agree on
//! watermark bytes for every subsequent round — the property the replay
//! differential suite pins.

use websift_crawler::{CrawlCursor, CrawlSession};
use websift_resilience::codec::{self, Chain};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};
use websift_serve::{ExtractionStore, StoreSnapshot};

/// Frame tag for a sealed watermark.
pub const WATERMARK_TAG: [u8; 4] = *b"WSWM";
/// Current watermark format version: 3 since a frame after a chain's
/// first holds its round's changes and the checksum of the frame before
/// it, and nests `WSCK` v3 crawl frames.
pub const WATERMARK_VERSION: u16 = 3;

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
    /// Sealed `WSCK` crawl frame: whole, or (after a chain's first
    /// watermark) what changed since the previous watermark's cursor.
    pub crawl_frame: Vec<u8>,
    /// Digest of that frame's crawler and report segments (of a whole
    /// frame: the crawler's state digest), verified on resume.
    pub frontier_digest: u64,
    /// Retained incremental aggregate state bytes: every key, or the keys
    /// the round folded.
    pub agg_state: Vec<u8>,
    /// Sealed `WSST` store-snapshot frame: every posting list, or those
    /// stamped with the round.
    pub store_frame: Vec<u8>,
    /// The whole store's content digest at seal time, verified on resume.
    pub store_digest: u64,
    /// Cumulative session metrics.
    pub metrics: LiveMetrics,
}

/// Where a watermark's crawl frame and frontier digest come from.
pub(crate) enum CrawlSection<'a, 'w> {
    /// A sealed `WSCK` frame and its digest, written as they are.
    Sealed { frame: &'a [u8], frontier_digest: u64 },
    /// The session's state as changed since `since`, written in place;
    /// its checksum and the frontier digest are hashed in the
    /// watermark's one pass.
    Live { session: &'a CrawlSession<'w>, since: &'a CrawlCursor },
}

/// Where a watermark's store frame comes from.
pub(crate) enum StoreSection<'a> {
    /// A sealed `WSST` frame, written as it is.
    Sealed(&'a [u8]),
    /// The session's store, its posting lists from `first_round` on
    /// written in place; the checksum is hashed in the watermark's one
    /// pass.
    Live { store: &'a ExtractionStore, first_round: u32 },
}

/// A watermark's sections, borrowed: the payload layout lives in
/// [`Sections::seal`] and [`SealedSections::read`] alone.
pub(crate) struct Sections<'a, 'w> {
    pub rounds: u32,
    pub crawl_round: u64,
    /// The checksum of the chain's previous frame; `None` for a whole
    /// frame, which starts a chain.
    pub previous: Option<u64>,
    pub crawl: CrawlSection<'a, 'w>,
    pub agg_state: &'a [u8],
    pub store: StoreSection<'a>,
    /// The content digest of the whole store.
    pub store_digest: u64,
    pub metrics: LiveMetrics,
}

/// The chain of a section copied in sealed: nothing to hash in it but
/// the watermark checksum.
const SEALED: Chain<'static> = Chain { ranges: &[], slot: None };

impl Sections<'_, '_> {
    /// Writes the `WSWM` frame in one buffer and hashes it in one pass:
    /// the nested crawl frame's checksum, the frontier digest over that
    /// frame's crawler and report segments, the nested store frame's
    /// checksum, then the watermark checksum over the whole payload,
    /// every slot included.
    pub(crate) fn seal(&self) -> Watermark {
        let mut w = Writer::new();
        let payload = codec::begin_frame(&mut w, WATERMARK_TAG, WATERMARK_VERSION);
        w.u32(self.rounds);
        w.u64(self.crawl_round);
        self.previous.encode(&mut w);
        let crawl_frame = w.begin_bytes();
        let (live, frontier_digest) = match self.crawl {
            CrawlSection::Sealed { frame, frontier_digest } => {
                w.raw(frame);
                (None, frontier_digest)
            }
            CrawlSection::Live { session, since } => (Some(session.write_frame(since, &mut w)), 0),
        };
        w.end_bytes(crawl_frame);
        let frontier_slot = w.len();
        w.u64(frontier_digest);
        w.bytes(self.agg_state);
        let store_frame = w.begin_bytes();
        let store = match self.store {
            StoreSection::Sealed(frame) => {
                w.raw(frame);
                None
            }
            StoreSection::Live { store, first_round } => {
                Some(StoreSnapshot::write_from_round(store, first_round, &mut w))
            }
        };
        w.end_bytes(store_frame);
        w.u64(self.store_digest);
        self.metrics.encode(&mut w);
        let outer = codec::end_frame(&mut w, payload);
        let mut frame = w.into_bytes();
        let [crawl_sum, frontier] = match &live {
            Some(crawl) => [
                crawl.frame.checksum_chain(),
                Chain { ranges: &crawl.state, slot: Some(frontier_slot) },
            ],
            None => [SEALED; 2],
        };
        let store_sum = store.as_ref().map_or(SEALED, |store| store.frame.checksum_chain());
        codec::hash_chains(&mut frame, [crawl_sum, frontier, store_sum, outer.checksum_chain()]);
        Watermark { frame }
    }
}

/// The sections of a sealed watermark, borrowed from its payload.
pub(crate) struct SealedSections<'a> {
    pub rounds: u32,
    pub crawl_round: u64,
    pub previous: Option<u64>,
    pub crawl_frame: &'a [u8],
    pub frontier_digest: u64,
    pub agg_state: &'a [u8],
    pub store_frame: &'a [u8],
    pub store_digest: u64,
    pub metrics: LiveMetrics,
}

impl<'a> SealedSections<'a> {
    /// Reads a watermark payload, borrowing its byte sections.
    fn read(r: &mut Reader<'a>) -> Result<SealedSections<'a>, CodecError> {
        Ok(SealedSections {
            rounds: r.u32()?,
            crawl_round: r.u64()?,
            previous: Snapshot::decode(r)?,
            crawl_frame: r.slice()?,
            frontier_digest: r.u64()?,
            agg_state: r.slice()?,
            store_frame: r.slice()?,
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
    /// Seals `parts` into a whole `WSWM` v3 frame: one that starts a chain
    /// (its crawl frame must be a whole `WSCK` frame to resume).
    pub fn seal(parts: &WatermarkParts) -> Watermark {
        Sections {
            rounds: parts.rounds,
            crawl_round: parts.crawl_round,
            previous: None,
            crawl: CrawlSection::Sealed {
                frame: &parts.crawl_frame,
                frontier_digest: parts.frontier_digest,
            },
            agg_state: &parts.agg_state,
            store: StoreSection::Sealed(&parts.store_frame),
            store_digest: parts.store_digest,
            metrics: parts.metrics.clone(),
        }
        .seal()
    }

    /// Adopts sealed frame bytes, verifying tag, version, checksum, and
    /// full payload decode up front so later [`Watermark::parts`] calls
    /// cannot fail on a frame accepted here.
    pub fn from_bytes(frame: Vec<u8>) -> Result<Watermark, CodecError> {
        let payload = codec::open(WATERMARK_TAG, WATERMARK_VERSION, &frame)?;
        let mut r = Reader::new(payload);
        SealedSections::read(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing watermark bytes" });
        }
        Ok(Watermark { frame })
    }

    /// The sealed frame bytes (what goes to stable storage).
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// The payload's sections, borrowed from the frame: no checksum pass
    /// and no copy, since the frame was verified when it was built.
    pub(crate) fn sections(&self) -> SealedSections<'_> {
        let mut r = Reader::new(codec::opened_payload(&self.frame));
        // lint:allow(untrusted_unwrap): from_bytes decoded these parts in full to accept them
        SealedSections::read(&mut r).expect("verified at construction")
    }

    /// Decodes the frame contents (all but the link to the previous frame:
    /// [`Watermark::previous`]).
    pub fn parts(&self) -> WatermarkParts {
        let s = self.sections();
        WatermarkParts {
            rounds: s.rounds,
            crawl_round: s.crawl_round,
            crawl_frame: s.crawl_frame.to_vec(),
            frontier_digest: s.frontier_digest,
            agg_state: s.agg_state.to_vec(),
            store_frame: s.store_frame.to_vec(),
            store_digest: s.store_digest,
            metrics: s.metrics,
        }
    }

    /// Completed rounds at seal time: the payload's leading `u32`, read
    /// without a checksum pass or a full decode.
    pub fn rounds(&self) -> u32 {
        self.sections().rounds
    }

    /// The checksum of the frame before this one in its chain; `None` for
    /// a whole frame, which starts a chain.
    pub fn previous(&self) -> Option<u64> {
        self.sections().previous
    }

    /// The frame's checksum (its last eight bytes): what the next frame
    /// of the chain records as [`Watermark::previous`].
    pub fn checksum(&self) -> u64 {
        let tail = &self.frame[self.frame.len() - 8..];
        // lint:allow(untrusted_unwrap): eight bytes, sliced just above
        u64::from_le_bytes(tail.try_into().expect("eight bytes"))
    }

    /// The content digest of the whole store at seal time, read by
    /// skipping over the length-prefixed sections before it: no checksum
    /// pass and no copy of any section.
    pub fn store_digest(&self) -> u64 {
        self.sections().store_digest
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
        assert_eq!(reopened.store_digest(), 0xCAFE);
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
        let sealed = Watermark::seal(&sample_parts());
        codec::open(WATERMARK_TAG, WATERMARK_VERSION, sealed.as_bytes()).unwrap().to_vec()
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

    /// Frames of versions 1 and 2 (whole every round, no link) are refused.
    #[test]
    fn a_version_1_frame_is_refused() {
        for version in [1, 2] {
            let old = codec::seal(WATERMARK_TAG, version, &sample_payload());
            assert_eq!(
                Watermark::from_bytes(old).err(),
                Some(CodecError::BadVersion { expected: 3, found: version })
            );
        }
    }

    /// A sealed whole frame links nothing; its checksum is its last eight
    /// bytes, the payload's digest.
    #[test]
    fn a_sealed_frame_starts_a_chain() {
        let sealed = Watermark::seal(&sample_parts());
        assert_eq!(sealed.previous(), None);
        assert_eq!(sealed.checksum(), codec::digest(&sample_payload()));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = sample_payload();
        payload.push(0);
        let frame = codec::seal(WATERMARK_TAG, WATERMARK_VERSION, &payload);
        assert!(Watermark::from_bytes(frame).is_err());
    }
}
