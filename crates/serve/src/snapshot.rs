//! Byte-deterministic store snapshots, in the sealed-frame style of the
//! flow checkpoints (`WSFK`) and crawl frontier checkpoints.
//!
//! The payload encodes the store's *logical* content — posting lists in
//! global key order — plus its configuration (name, shard count, round,
//! ingest counters). Two stores with equal content and configuration
//! snapshot to identical bytes regardless of ingest interleaving, and a
//! store restored from a snapshot continues ingesting exactly where the
//! original would have: kill-and-resume mid-ingest is byte-identical to
//! an uninterrupted run.
//!
//! A snapshot may also hold only the posting lists stamped with a round
//! from a first one on ([`StoreSnapshot::write_from_round`]): a live
//! session's round writes the postings it added, and
//! [`StoreSnapshot::restore_into`] adds them to the store rebuilt so far.

use std::ops::Range;

use websift_resilience::codec::{self, FrameSlots};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

use crate::store::{ExtractionStore, Method, Posting, PostingKey, MAX_SHARDS};

/// Frame tag for store snapshots.
pub const STORE_SNAPSHOT_TAG: [u8; 4] = *b"WSST";
/// Current frame version.
pub const STORE_SNAPSHOT_VERSION: u16 = 1;

impl Snapshot for Method {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Method::Dict => 0,
            Method::Ml => 1,
            Method::Unknown => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Method, CodecError> {
        match r.u8()? {
            0 => Ok(Method::Dict),
            1 => Ok(Method::Ml),
            2 => Ok(Method::Unknown),
            tag => Err(CodecError::BadTag { what: "Method", tag }),
        }
    }
}

impl Snapshot for PostingKey {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.entity);
        w.str(&self.etype);
        w.str(&self.corpus);
        w.u32(self.round);
    }

    fn decode(r: &mut Reader<'_>) -> Result<PostingKey, CodecError> {
        Ok(PostingKey {
            entity: r.str()?,
            etype: r.str()?,
            corpus: r.str()?,
            round: r.u32()?,
        })
    }
}

impl Snapshot for Posting {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.page);
        w.u64(self.start);
        w.u64(self.end);
        self.method.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Posting, CodecError> {
        Ok(Posting {
            page: r.u64()?,
            start: r.u64()?,
            end: r.u64()?,
            method: Snapshot::decode(r)?,
        })
    }
}

/// Encodes the store's configuration, then its logical content from
/// `first_round` on, and returns where the content landed in `w`.
fn encode_store(store: &ExtractionStore, first_round: u32, w: &mut Writer) -> Range<usize> {
    w.str(store.name());
    w.usize(store.shard_count());
    w.u32(store.round());
    w.u64(store.ingested_records());
    w.u64(store.ignored_records());
    let content = w.len();
    if first_round == 0 {
        encode_content(store, w);
    } else {
        let lists: Vec<_> = store.iter().filter(|(key, _)| key.round >= first_round).collect();
        encode_lists(lists.len(), lists.into_iter(), w);
    }
    content..w.len()
}

/// Encodes the store's logical content: the key count, then each key and
/// its posting list. Posting lists go out in global key order
/// ([`ExtractionStore::iter`]), so the bytes are independent of ingest
/// interleaving across shards.
fn encode_content(store: &ExtractionStore, w: &mut Writer) {
    encode_lists(store.key_count(), store.iter(), w);
}

fn encode_lists<'s>(
    keys: usize,
    lists: impl Iterator<Item = (&'s PostingKey, &'s Vec<Posting>)>,
    w: &mut Writer,
) {
    w.usize(keys);
    for (key, postings) in lists {
        key.encode(w);
        postings.encode(w);
    }
}

fn decode_store(r: &mut Reader<'_>) -> Result<ExtractionStore, CodecError> {
    let name = r.str()?;
    let shards = r.usize()?;
    if shards == 0 {
        return Err(CodecError::BadTag { what: "shard count", tag: 0 });
    }
    if shards > MAX_SHARDS {
        return Err(CodecError::Oversize { what: "shard count", value: shards as u64 });
    }
    let round = r.u32()?;
    let ingested = r.u64()?;
    let ignored = r.u64()?;
    let keys = r.usize()?;
    let mut store = ExtractionStore::new(&name, shards);
    for _ in 0..keys {
        let key = PostingKey::decode(r)?;
        let postings = Vec::<Posting>::decode(r)?;
        for posting in postings {
            store.insert(key.clone(), posting);
        }
    }
    store.restore_counters(round, ingested, ignored);
    Ok(store)
}

/// Digest of the store's logical content — what
/// [`ExtractionStore::content_digest`] returns. Deliberately excludes
/// configuration (name, shard count, counters): two stores holding the
/// same posting lists digest equally even when sharded differently,
/// which is the invariant that lets the bench compare shard counts.
pub(crate) fn content_digest(store: &ExtractionStore) -> u64 {
    let mut w = Writer::new();
    encode_content(store, &mut w);
    codec::digest(&w.into_bytes())
}

/// A verified, sealed store snapshot frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    frame: Vec<u8>,
}

/// A store snapshot frame written in place by
/// [`StoreSnapshot::write_from_round`], not yet hashed: where its payload
/// and checksum slot lie in the writer's buffer, and its content bytes
/// (from round 0, the bytes [`ExtractionStore::content_digest`] hashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotLayout {
    pub frame: FrameSlots,
    pub content: Range<usize>,
}

impl StoreSnapshot {
    /// Captures `store` into a sealed frame.
    pub fn capture(store: &ExtractionStore) -> StoreSnapshot {
        let mut w = Writer::new();
        let layout = StoreSnapshot::write_from_round(store, 0, &mut w);
        let mut frame = w.into_bytes();
        codec::hash_chains(&mut frame, [layout.frame.checksum_chain()]);
        StoreSnapshot { frame }
    }

    /// Writes a snapshot frame of `store` in place in `w`, checksum slot
    /// left zero, for a caller that hashes it inside a larger frame:
    /// configuration and counters whole, and the posting lists stamped
    /// with `first_round` or a later round. From round 0 that is the
    /// [`StoreSnapshot::capture`] frame, and hashing the layout's
    /// `content` range gives the store's content digest; hashing its
    /// `frame` chain seals it.
    pub fn write_from_round(
        store: &ExtractionStore,
        first_round: u32,
        w: &mut Writer,
    ) -> SnapshotLayout {
        let payload = codec::begin_frame(w, STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION);
        let content = encode_store(store, first_round, w);
        SnapshotLayout { frame: codec::end_frame(w, payload), content }
    }

    /// Wraps bytes read back from storage, verifying tag, version, and
    /// checksum before accepting them.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreSnapshot, CodecError> {
        codec::open(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, bytes)?;
        Ok(StoreSnapshot { frame: bytes.to_vec() })
    }

    /// The sealed frame bytes (what gets persisted).
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Rebuilds the store. The payload was verified on construction, so
    /// failures here mean a logical decode error, not corruption.
    pub fn restore(&self) -> Result<ExtractionStore, CodecError> {
        let payload = codec::open(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, &self.frame)?;
        let mut r = Reader::new(payload);
        let store = decode_store(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing bytes after store" });
        }
        Ok(store)
    }

    /// Adds the posting lists of this snapshot to `store` and takes its
    /// counters: how a frame of [`StoreSnapshot::write_from_round`] is
    /// replayed onto the store the earlier frames rebuilt. The name and
    /// shard count must be `store`'s, and every key must be new to it.
    pub fn restore_into(&self, store: &mut ExtractionStore) -> Result<(), CodecError> {
        store.add_new_keys(self.restore()?)
    }

    /// Digest of the full frame; equal digests mean byte-equal
    /// snapshots.
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

    fn sample_store(shards: usize) -> ExtractionStore {
        let mut store = ExtractionStore::new("serve", shards);
        for i in 0..50u64 {
            let key = PostingKey {
                entity: format!("entity{}", i % 7),
                etype: "drug".into(),
                corpus: if i % 2 == 0 { "pubmed" } else { "web" }.into(),
                round: (i % 3) as u32,
            };
            let posting = Posting {
                page: i,
                start: i * 10,
                end: i * 10 + 5,
                method: if i % 2 == 0 { Method::Dict } else { Method::Ml },
            };
            store.insert(key, posting);
        }
        store
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let store = sample_store(4);
        let snap = StoreSnapshot::capture(&store);
        let restored = snap.restore().unwrap();
        assert_eq!(restored, store);
        // and the restored store re-snapshots to the same bytes
        assert_eq!(StoreSnapshot::capture(&restored), snap);
    }

    #[test]
    fn frame_verifies_on_the_way_in() {
        let snap = StoreSnapshot::capture(&sample_store(2));
        let bytes = snap.as_bytes().to_vec();
        assert_eq!(StoreSnapshot::from_bytes(&bytes).unwrap(), snap);

        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(
            StoreSnapshot::from_bytes(&corrupted),
            Err(CodecError::BadChecksum { .. })
        ));
        assert!(matches!(
            StoreSnapshot::from_bytes(&bytes[..10]),
            Err(CodecError::Truncated { .. })
        ));
    }

    fn payload_of(snap: &StoreSnapshot) -> Vec<u8> {
        codec::open(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, snap.as_bytes()).unwrap().to_vec()
    }

    /// What a validly sealed frame around `payload` restores to.
    fn restore_resealed(payload: &[u8]) -> Result<ExtractionStore, CodecError> {
        let frame = codec::seal(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, payload);
        StoreSnapshot::from_bytes(&frame)?.restore()
    }

    #[test]
    fn forged_shard_counts_are_errors_not_allocations() {
        let store = sample_store(4);
        let payload = payload_of(&StoreSnapshot::capture(&store));
        let mut w = Writer::new();
        w.str(store.name());
        let at = w.len();
        assert_eq!(payload[at..at + 8], 4u64.to_le_bytes(), "shard count is not at {at}");
        for forged in [257, 1 << 40, u64::MAX] {
            let mut spliced = payload.clone();
            spliced[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            // returning at all shows nothing was sized by `forged`
            assert_eq!(
                restore_resealed(&spliced).err(),
                Some(CodecError::Oversize { what: "shard count", value: forged })
            );
        }
        // every store that encodes also decodes: 256 shards is the most
        let widest = sample_store(256);
        assert_eq!(StoreSnapshot::capture(&widest).restore().unwrap(), widest);
        assert!(std::panic::catch_unwind(|| ExtractionStore::new("serve", 257)).is_err());
    }

    #[test]
    fn truncated_payloads_resealed_never_restore() {
        let payload = payload_of(&StoreSnapshot::capture(&sample_store(4)));
        for cut in 0..payload.len() {
            assert!(
                restore_resealed(&payload[..cut]).is_err(),
                "payload cut at {cut}/{} restored",
                payload.len()
            );
        }
    }

    #[test]
    fn flipped_payload_bits_resealed_never_panic() {
        let payload = payload_of(&StoreSnapshot::capture(&sample_store(4)));
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= 1 << (at % 8);
            // an error or a store — which must snapshot again — never a panic
            if let Ok(store) = restore_resealed(&flipped) {
                StoreSnapshot::capture(&store);
            }
        }
    }

    /// The content digest hashes exactly the `WSST` payload's tail from
    /// the key count on: the snapshot's configuration prefix followed by
    /// the same content bytes.
    #[test]
    fn content_digest_is_the_digest_of_the_payload_from_the_key_count_on() {
        for shards in [1, 4] {
            let store = sample_store(shards);
            let payload = payload_of(&StoreSnapshot::capture(&store));
            let mut w = Writer::new();
            w.str(store.name());
            w.usize(store.shard_count());
            w.u32(store.round());
            w.u64(store.ingested_records());
            w.u64(store.ignored_records());
            let at = w.len();
            assert_eq!(payload[at..at + 8], (store.key_count() as u64).to_le_bytes());
            assert_eq!(store.content_digest(), codec::digest(&payload[at..]));
        }
        let empty = ExtractionStore::new("empty", 2);
        let payload = payload_of(&StoreSnapshot::capture(&empty));
        assert_eq!(empty.content_digest(), codec::digest(&payload[payload.len() - 8..]));
    }

    /// A frame written in place inside a larger buffer seals to the frame
    /// `codec::seal` makes of the encoded store, as `capture` does, and
    /// its content range hashes to the content digest.
    #[test]
    fn a_snapshot_written_in_place_is_the_sealed_encoding() {
        for store in [sample_store(4), ExtractionStore::new("empty", 2)] {
            let mut w = Writer::new();
            w.str("prefix");
            let at = w.len();
            let layout = StoreSnapshot::write_from_round(&store, 0, &mut w);
            w.u64(7);
            let mut buf = w.into_bytes();
            let chains = [
                layout.frame.checksum_chain(),
                codec::Chain { ranges: std::slice::from_ref(&layout.content), slot: None },
            ];
            let [_, content] = codec::hash_chains(&mut buf, chains);
            let mut payload = Writer::new();
            encode_store(&store, 0, &mut payload);
            let sealed =
                codec::seal(STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION, &payload.into_bytes());
            assert_eq!(&buf[at..buf.len() - 8], &sealed[..]);
            assert_eq!(StoreSnapshot::capture(&store).as_bytes(), &sealed[..]);
            assert_eq!(content, store.content_digest());
        }
    }

    #[test]
    fn content_digest_ignores_shard_count() {
        assert_eq!(sample_store(1).content_digest(), sample_store(16).content_digest());
        // but the full snapshot records the configured shard count
        assert_ne!(
            StoreSnapshot::capture(&sample_store(1)),
            StoreSnapshot::capture(&sample_store(16))
        );
    }

    /// A store rebuilt round by round from snapshots of each round's
    /// posting lists is the store; a frame whose keys are stored already,
    /// or of another store, is refused with a typed error.
    #[test]
    fn rounds_restored_into_a_store_rebuild_it() {
        let store = sample_store(4);
        let round = |first: u32, store: &ExtractionStore| {
            let mut w = Writer::new();
            let layout = StoreSnapshot::write_from_round(store, first, &mut w);
            let mut frame = w.into_bytes();
            codec::hash_chains(&mut frame, [layout.frame.checksum_chain()]);
            StoreSnapshot::from_bytes(&frame).unwrap()
        };
        // keys of rounds 0..=2: the whole store, then rounds 1.. and 2..
        let mut rebuilt = ExtractionStore::new("serve", 4);
        let mut rounds: Vec<ExtractionStore> = Vec::new();
        for first in [0, 1, 2] {
            let mut upto = ExtractionStore::new("serve", 4);
            for (key, postings) in store.iter().filter(|(k, _)| k.round <= first) {
                for &posting in postings {
                    upto.insert(key.clone(), posting);
                }
            }
            rounds.push(upto);
        }
        round(0, &rounds[0]).restore_into(&mut rebuilt).unwrap();
        round(1, &rounds[1]).restore_into(&mut rebuilt).unwrap();
        round(2, &rounds[2]).restore_into(&mut rebuilt).unwrap();
        assert_eq!(rebuilt.content_digest(), store.content_digest());
        assert_eq!(StoreSnapshot::capture(&rebuilt), StoreSnapshot::capture(&store));

        assert!(matches!(
            round(2, &store).restore_into(&mut rebuilt),
            Err(CodecError::Mismatch { what: "posting key stored twice (its round)", .. })
        ));
        let mut other = ExtractionStore::new("other", 4);
        assert!(matches!(
            round(0, &store).restore_into(&mut other),
            Err(CodecError::Mismatch { what: "store name digest", .. })
        ));
        let mut narrow = ExtractionStore::new("serve", 2);
        assert!(matches!(
            round(0, &store).restore_into(&mut narrow),
            Err(CodecError::Mismatch { what: "store shard count", claimed: 4, sealed: 2 })
        ));
    }
}
