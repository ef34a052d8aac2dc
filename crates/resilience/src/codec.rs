//! Byte-deterministic checkpoint codec.
//!
//! Checkpoints must satisfy a stronger contract than ordinary
//! serialization: a crawl killed and resumed from a checkpoint has to
//! reproduce *bit-identical* statistics to an uninterrupted run. That
//! rules out anything lossy (float formatting) or order-dependent on
//! hash-map iteration. This module provides a tiny little-endian codec —
//! [`Writer`] / [`Reader`] — with:
//!
//! - fixed-width integer encodings and `f64` via [`f64::to_bits`];
//! - length-prefixed strings and byte blobs;
//! - a sealed-frame layer ([`seal`] / [`open`]) adding a magic tag, a
//!   version byte, and an FNV-1a checksum so truncated or corrupted
//!   checkpoint files fail loudly instead of resuming from garbage;
//! - frames written in place ([`begin_frame`] / [`end_frame`]), nested
//!   frames included, and hashed afterwards by [`hash_chains`]: up to
//!   five FNV-1a chains in one pass over the buffer, each result written
//!   into its slot before any later chain reads it.

use std::fmt;
use std::ops::Range;

/// Errors surfaced when decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated { what: &'static str },
    /// Frame does not start with the expected magic/tag.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Frame version is newer than this decoder understands.
    BadVersion { expected: u16, found: u16 },
    /// Frame checksum mismatch — the bytes were corrupted.
    BadChecksum { expected: u64, found: u64 },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An enum discriminant had no mapping.
    BadTag { what: &'static str, tag: u8 },
    /// A decoded value is out of the range its target admits (e.g. a
    /// 64-bit length on a 32-bit host, or an index past its collection).
    Oversize { what: &'static str, value: u64 },
    /// A value the caller kept beside the frame, or a digest the frame
    /// commits to, disagrees with what the sealed bytes hold.
    Mismatch { what: &'static str, claimed: u64, sealed: u64 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad checkpoint magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::BadVersion { expected, found } => {
                write!(f, "unsupported checkpoint version {found} (decoder speaks {expected})")
            }
            CodecError::BadChecksum { expected, found } => {
                write!(f, "checkpoint checksum mismatch: stored {expected:#018x}, computed {found:#018x}")
            }
            CodecError::BadUtf8 => write!(f, "checkpoint string field is not valid UTF-8"),
            CodecError::BadTag { what, tag } => {
                write!(f, "unknown {what} discriminant {tag} in checkpoint")
            }
            CodecError::Oversize { what, value } => {
                write!(f, "checkpoint {what} value {value} is out of range")
            }
            CodecError::Mismatch { what, claimed, sealed } => {
                write!(f, "{what} mismatch: {claimed} claimed, {sealed} sealed")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Writer over a recycled buffer (cleared first), so hot encode paths
    /// can reuse capacity across calls instead of reallocating.
    pub fn from_vec(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer { buf }
    }

    /// Appends bytes as they are, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Opens a length-prefixed byte string written in place: the same
    /// bytes [`Writer::bytes`] writes, once [`Writer::end_bytes`] has been
    /// given the returned start.
    pub fn begin_bytes(&mut self) -> usize {
        self.u64(0);
        self.buf.len()
    }

    /// Closes a byte string opened at `start` by [`Writer::begin_bytes`]:
    /// its length prefix becomes the count of bytes written since.
    pub fn end_bytes(&mut self, start: usize) {
        let len = (self.buf.len() - start) as u64;
        self.buf[start - 8..start].copy_from_slice(&len.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Encoded via bit pattern: round-trips NaN payloads and signed
    /// zeros exactly, which keeps resumed accumulators bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated { what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Oversize { what: "usize", value: v })
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        self.slice().map(<[u8]>::to_vec)
    }

    /// A length-prefixed byte string, borrowed from the input.
    pub fn slice(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        self.take(len, "bytes")
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Capacity to reserve for a collection whose encoded length field claims
/// `claimed` elements of `T`: never more *bytes* than the reader still
/// holds, so a forged count inside a validly sealed frame cannot turn a
/// short payload into a `claimed × size_of::<T>()` allocation. The decode
/// loop still runs `claimed` times and ends in `Truncated` on a lie.
pub fn presize<T>(claimed: usize, r: &Reader<'_>) -> usize {
    claimed.min(r.remaining() / std::mem::size_of::<T>().max(1))
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a, the one definition: advances `N` independent chains over the
/// same bytes. Each byte is one multiply on every chain, and the chains
/// do not wait on each other, so three cost about what one does.
#[inline(always)]
fn fnv1a<const N: usize>(chains: &mut [u64; N], bytes: &[u8]) {
    for &b in bytes {
        for h in chains.iter_mut() {
            *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Bytes before a frame's payload: tag, version and payload length.
const FRAME_HEAD: usize = 14;
/// Bytes after a frame's payload: its checksum.
const FRAME_TAIL: usize = 8;

/// A frame written in place by [`begin_frame`] and [`end_frame`]: where
/// its payload lies in the writer's buffer and where its checksum goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSlots {
    pub payload: Range<usize>,
    pub checksum: usize,
}

impl FrameSlots {
    /// The [`hash_chains`] chain that seals this frame.
    pub fn checksum_chain(&self) -> Chain<'_> {
        Chain { ranges: std::slice::from_ref(&self.payload), slot: Some(self.checksum) }
    }
}

/// Opens a frame in place: `tag | version | len`, the length to be
/// filled by [`end_frame`]. Returns where the payload starts.
pub fn begin_frame(w: &mut Writer, tag: [u8; 4], version: u16) -> usize {
    w.raw(&tag);
    w.u16(version);
    w.begin_bytes()
}

/// Closes the frame whose payload started at `payload`: fills its length
/// and leaves eight zero bytes for the checksum, which the frame's
/// [`FrameSlots::checksum_chain`] writes once [`hash_chains`] runs.
pub fn end_frame(w: &mut Writer, payload: usize) -> FrameSlots {
    w.end_bytes(payload);
    let slots = FrameSlots { payload: payload..w.len(), checksum: w.len() };
    w.u64(0);
    slots
}

/// One FNV-1a chain of [`hash_chains`]: the hash of `ranges` of the
/// buffer, in order, as if they were one byte string. With a `slot`, the
/// result is also written there as eight little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Chain<'a> {
    pub ranges: &'a [Range<usize>],
    pub slot: Option<usize>,
}

/// The most chains one [`hash_chains`] pass advances.
const MAX_CHAINS: usize = 5;

/// The most chains one FNV-1a kernel advances together over a byte; a
/// byte under more chains than this is read once per group of them. No
/// frame of the workspace puts a byte under more than three chains.
const MAX_LANES: usize = 3;

/// Hashes every chain over `buf` in one pass and returns the results in
/// chain order. The result is what hashing the chains one after another
/// gives, each writing its slot before the next one starts: so a chain
/// may read the slot of an earlier chain, and reads it filled.
///
/// That equivalence rests on the layout, which is checked up front
/// (a violation is a bug in the caller and panics): each chain's ranges
/// lie in the buffer in ascending order without overlapping; its slot
/// lies past its own last range and inside the buffer; no slot overlaps
/// another, nor a range of its own chain or of an earlier one. The pass
/// writes a slot as soon as its chain's last range is hashed, before any
/// byte past that point is read.
pub fn hash_chains<const N: usize>(buf: &mut [u8], chains: [Chain<'_>; N]) -> [u64; N] {
    const { assert!(N <= MAX_CHAINS, "hash_chains advances at most five chains") };
    check_layout(buf.len(), &chains);
    let mut h = [FNV_OFFSET; N];
    // per chain: its current range, and whether its slot was written
    let mut next = [0usize; N];
    let mut sealed = [false; N];
    let mut pos = 0usize;
    // lint:hot_loop(begin): lockstep FNV-1a pass
    loop {
        let mut end = usize::MAX;
        let mut active = [0usize; MAX_CHAINS];
        let mut k = 0;
        for (i, chain) in chains.iter().enumerate() {
            while chain.ranges.get(next[i]).is_some_and(|r| r.end <= pos) {
                next[i] += 1;
            }
            match chain.ranges.get(next[i]) {
                None if !sealed[i] => {
                    sealed[i] = true;
                    if let Some(at) = chain.slot {
                        buf[at..at + 8].copy_from_slice(&h[i].to_le_bytes());
                    }
                }
                None => {}
                Some(r) if r.start > pos => end = end.min(r.start),
                Some(r) => {
                    end = end.min(r.end);
                    active[k] = i;
                    k += 1;
                }
            }
        }
        if end == usize::MAX {
            break;
        }
        let bytes = &buf[pos..end];
        for group in active[..k].chunks(MAX_LANES) {
            match group.len() {
                1 => lanes::<1, N>(&mut h, group, bytes),
                2 => lanes::<2, N>(&mut h, group, bytes),
                _ => lanes::<3, N>(&mut h, group, bytes),
            }
        }
        pos = end;
    }
    // lint:hot_loop(end)
    h
}

/// Advances the `K` chains of `h` named by `active[..K]` over `bytes`.
#[inline(always)]
fn lanes<const K: usize, const N: usize>(h: &mut [u64; N], active: &[usize], bytes: &[u8]) {
    let mut lanes = [0u64; K];
    for (lane, &i) in lanes.iter_mut().zip(active) {
        *lane = h[i];
    }
    fnv1a(&mut lanes, bytes);
    for (lane, &i) in lanes.iter().zip(active) {
        h[i] = *lane;
    }
}

/// Panics unless `chains` keep the layout rules [`hash_chains`] states.
fn check_layout(len: usize, chains: &[Chain<'_>]) {
    let overlaps = |a: &Range<usize>, b: &Range<usize>| a.start < b.end && b.start < a.end;
    for (i, chain) in chains.iter().enumerate() {
        let mut at = 0;
        for r in chain.ranges {
            assert!(
                at <= r.start && r.start <= r.end && r.end <= len,
                "chain {i}: range {r:?} is out of order or outside the {len}-byte buffer"
            );
            at = r.end;
        }
        let Some(slot) = chain.slot else { continue };
        let slot = slot..slot + 8;
        assert!(
            at <= slot.start && slot.end <= len,
            "chain {i}: slot {slot:?} must lie past its ranges and inside the {len}-byte buffer"
        );
        for (j, other) in chains.iter().enumerate() {
            assert!(
                j > i || !other.ranges.iter().any(|r| overlaps(r, &slot)),
                "chain {j} reads the slot of chain {i}, which is not an earlier chain"
            );
            assert!(
                j == i || !other.slot.is_some_and(|s| overlaps(&(s..s + 8), &slot)),
                "the slots of chains {i} and {j} overlap"
            );
        }
    }
}

/// Wraps a payload in a verified frame: `tag | version | len | payload
/// | fnv64(payload)`.
pub fn seal(tag: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::from_vec(Vec::with_capacity(payload.len() + FRAME_HEAD + FRAME_TAIL));
    let start = begin_frame(&mut w, tag, version);
    w.raw(payload);
    let slots = end_frame(&mut w, start);
    let mut frame = w.into_bytes();
    hash_chains(&mut frame, [slots.checksum_chain()]);
    frame
}

/// Verifies a [`seal`]ed frame and returns the payload slice.
pub fn open(tag: [u8; 4], version: u16, frame: &[u8]) -> Result<&[u8], CodecError> {
    let mut r = Reader::new(frame);
    let found_tag: [u8; 4] = r.take(4, "frame tag")?.try_into().unwrap();
    if found_tag != tag {
        return Err(CodecError::BadMagic { expected: tag, found: found_tag });
    }
    let found_version = r.u16()?;
    if found_version != version {
        return Err(CodecError::BadVersion { expected: version, found: found_version });
    }
    let len = r.usize()?;
    let payload = r.take(len, "frame payload")?;
    let stored = r.u64()?;
    let computed = digest(payload);
    if stored != computed {
        return Err(CodecError::BadChecksum { expected: stored, found: computed });
    }
    Ok(payload)
}

/// The payload of a frame that [`open`] has already accepted, sliced
/// without checking anything again; empty for bytes too short to be a
/// frame.
pub fn opened_payload(frame: &[u8]) -> &[u8] {
    frame.get(FRAME_HEAD..frame.len().saturating_sub(FRAME_TAIL)).unwrap_or(&[])
}

/// Content digest of a byte string — used to compare checkpoint/state
/// snapshots for the bit-identical-resume invariant.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = [FNV_OFFSET];
    fnv1a(&mut h, bytes);
    h[0]
}

#[cfg(test)]
// a chain over one range is a one-element array of ranges, as meant
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(123);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn sealed_frames_verify() {
        let payload = b"checkpoint payload".to_vec();
        let frame = seal(*b"WSCP", 1, &payload);
        assert_eq!(open(*b"WSCP", 1, &frame).unwrap(), &payload[..]);

        assert!(matches!(
            open(*b"XXXX", 1, &frame),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            open(*b"WSCP", 2, &frame),
            Err(CodecError::BadVersion { .. })
        ));
        let mut corrupted = frame.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xff;
        assert!(matches!(
            open(*b"WSCP", 1, &corrupted),
            Err(CodecError::BadChecksum { .. })
        ));
        assert!(matches!(
            open(*b"WSCP", 1, &frame[..frame.len() - 2]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(digest(b""), 0xcbf29ce484222325);
        assert_eq!(digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn a_frame_written_in_place_is_the_sealed_frame() {
        let payload = b"checkpoint payload";
        let mut w = Writer::new();
        let start = begin_frame(&mut w, *b"WSCP", 7);
        let inner = w.begin_bytes();
        w.raw(payload);
        w.end_bytes(inner);
        let slots = end_frame(&mut w, start);
        let mut frame = w.into_bytes();
        let [checksum] = hash_chains(&mut frame, [slots.checksum_chain()]);

        let mut nested = Writer::new();
        nested.bytes(payload);
        let sealed = seal(*b"WSCP", 7, &nested.into_bytes());
        assert_eq!(frame, sealed);
        assert_eq!(checksum, digest(&sealed[slots.payload.clone()]));
        assert_eq!(opened_payload(&sealed), open(*b"WSCP", 7, &sealed).unwrap());
        assert!(opened_payload(&sealed[..5]).is_empty());
    }

    #[test]
    #[should_panic(expected = "reads the slot of chain 1")]
    fn a_chain_may_not_read_a_later_chains_slot() {
        let mut buf = vec![0u8; 32];
        let whole = [0..32];
        let chains = [Chain { ranges: &whole, slot: None }, Chain { ranges: &[], slot: Some(8) }];
        hash_chains(&mut buf, chains);
    }

    #[test]
    #[should_panic(expected = "must lie past its ranges")]
    fn a_slot_may_not_precede_its_own_ranges() {
        let mut buf = vec![0u8; 32];
        hash_chains(&mut buf, [Chain { ranges: &[16..24], slot: Some(0) }]);
    }

    /// [`hash_chains`] against its definition: each chain hashed on its
    /// own by [`digest`] over its ranges' bytes, one after another, each
    /// result patched into its slot before the next chain reads.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        struct Draw(u64);

        impl Draw {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            /// Uniform in `lo..=hi`.
            fn within(&mut self, lo: usize, hi: usize) -> usize {
                lo + (self.next() % (hi - lo + 1) as u64) as usize
            }
        }

        struct Layout {
            ranges: Vec<Vec<Range<usize>>>,
            slots: Vec<Option<usize>>,
        }

        impl Layout {
            fn chains(&self) -> Vec<Chain<'_>> {
                self.ranges
                    .iter()
                    .zip(&self.slots)
                    .map(|(ranges, &slot)| Chain { ranges, slot })
                    .collect()
            }
        }

        /// A layout [`hash_chains`] accepts: random, adjacent, empty and
        /// whole-buffer ranges, nested across chains, and slots wherever
        /// the rules leave room, often inside a later chain's ranges.
        fn random_layout(d: &mut Draw, len: usize, n: usize) -> Layout {
            let overlaps = |a: &Range<usize>, s: usize| a.start < s + 8 && s < a.end;
            let mut layout = Layout { ranges: Vec::new(), slots: Vec::new() };
            for _ in 0..n {
                let ranges = match d.next() % 4 {
                    // the frame shape: one range that stops short of a tail
                    0 => {
                        let end = len.saturating_sub(d.within(0, 8.min(len)));
                        vec![d.within(0, end)..end]
                    }
                    // the whole buffer
                    1 => vec![0..len],
                    // no range at all
                    2 if d.next().is_multiple_of(4) => Vec::new(),
                    _ => {
                        let mut cuts: Vec<usize> =
                            (0..2 * d.within(1, 4)).map(|_| d.within(0, len)).collect();
                        cuts.sort_unstable();
                        // every other cut opens a range, so neighbours can
                        // touch (adjacent) or coincide (empty)
                        cuts.chunks(2).map(|c| c[0]..c[1]).collect()
                    }
                };
                let last = ranges.last().map_or(0, |r| r.end);
                let mut slot = None;
                if last + 8 <= len && !d.next().is_multiple_of(5) {
                    for _ in 0..4 {
                        let at = d.within(last, len - 8);
                        let clashes = layout.ranges.iter().flatten().any(|r| overlaps(r, at))
                            || layout.slots.iter().flatten().any(|&s| s < at + 8 && at < s + 8);
                        if !clashes {
                            slot = Some(at);
                            break;
                        }
                    }
                }
                layout.ranges.push(ranges);
                layout.slots.push(slot);
            }
            layout
        }

        fn reference(buf: &mut [u8], layout: &Layout) -> Vec<u64> {
            let mut out = Vec::new();
            for (ranges, slot) in layout.ranges.iter().zip(&layout.slots) {
                let bytes: Vec<u8> = ranges.iter().flat_map(|r| buf[r.clone()].to_vec()).collect();
                let h = digest(&bytes);
                if let Some(at) = *slot {
                    buf[at..at + 8].copy_from_slice(&h.to_le_bytes());
                }
                out.push(h);
            }
            out
        }

        fn lockstep(buf: &mut [u8], layout: &Layout) -> Vec<u64> {
            match layout.chains()[..] {
                [a] => hash_chains(buf, [a]).to_vec(),
                [a, b] => hash_chains(buf, [a, b]).to_vec(),
                [a, b, c] => hash_chains(buf, [a, b, c]).to_vec(),
                [a, b, c, d] => hash_chains(buf, [a, b, c, d]).to_vec(),
                [a, b, c, d, e] => hash_chains(buf, [a, b, c, d, e]).to_vec(),
                _ => unreachable!("one to five chains"),
            }
        }

        proptest! {
            #[test]
            fn differential_lockstep_chains_equal_separate_fnv1a(
                seed in 0u64..u64::MAX,
                len in 0usize..600,
                n in 1usize..=MAX_CHAINS,
            ) {
                let mut d = Draw(seed);
                let original: Vec<u8> = (0..len).map(|_| d.next() as u8).collect();
                for _ in 0..8 {
                    let layout = random_layout(&mut d, len, n);
                    let mut expected = original.clone();
                    let want = reference(&mut expected, &layout);
                    let mut got = original.clone();
                    let have = lockstep(&mut got, &layout);
                    let case = format!("ranges {:?} slots {:?}", layout.ranges, layout.slots);
                    prop_assert_eq!(&have, &want, "{}", case);
                    prop_assert_eq!(&got, &expected, "{}", case);
                }
            }
        }

        /// The watermark's shape: a frame nested in an outer frame, a
        /// digest over two segments of the inner payload written between
        /// them, and the outer checksum over everything, slots included.
        #[test]
        fn differential_nested_frames_equal_sealing_twice() {
            let mut d = Draw(7);
            let inner: Vec<u8> = (0..5_000).map(|_| d.next() as u8).collect();
            let (seg_a, seg_b) = (100..1_700, 2_500..4_200);

            let mut w = Writer::new();
            let outer = begin_frame(&mut w, *b"OUTR", 1);
            w.u32(9);
            let bytes = w.begin_bytes();
            let frame = begin_frame(&mut w, *b"INNR", 2);
            let base = w.len();
            w.raw(&inner);
            let inner_slots = end_frame(&mut w, frame);
            w.end_bytes(bytes);
            let digest_at = w.len();
            w.u64(0);
            w.str("tail");
            let outer_slots = end_frame(&mut w, outer);
            let mut buf = w.into_bytes();
            let segments =
                [base + seg_a.start..base + seg_a.end, base + seg_b.start..base + seg_b.end];
            let [_, state, _] = hash_chains(
                &mut buf,
                [
                    inner_slots.checksum_chain(),
                    Chain { ranges: &segments, slot: Some(digest_at) },
                    outer_slots.checksum_chain(),
                ],
            );

            let mut joined = inner[seg_a].to_vec();
            joined.extend_from_slice(&inner[seg_b]);
            assert_eq!(state, digest(&joined));
            let mut payload = Writer::new();
            payload.u32(9);
            payload.bytes(&seal(*b"INNR", 2, &inner));
            payload.u64(state);
            payload.str("tail");
            assert_eq!(buf, seal(*b"OUTR", 1, &payload.into_bytes()));
        }
    }
}
