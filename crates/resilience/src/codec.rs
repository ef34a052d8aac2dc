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
//!   checkpoint files fail loudly instead of resuming from garbage.

use std::fmt;

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
    /// A decoded value does not fit the platform type it targets
    /// (e.g. a 64-bit length on a 32-bit host).
    Oversize { what: &'static str, value: u64 },
    /// A value the caller kept beside the frame disagrees with the one
    /// sealed inside it.
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
                write!(f, "checkpoint {what} value {value} does not fit this platform")
            }
            CodecError::Mismatch { what, claimed, sealed } => {
                write!(f, "{what} mismatch: caller claims {claimed}, frame holds {sealed}")
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
        let len = self.usize()?;
        Ok(self.take(len, "bytes")?.to_vec())
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Wraps a payload in a verified frame: `tag | version | len | payload
/// | fnv64(payload)`.
pub fn seal(tag: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 22);
    out.extend_from_slice(&tag);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
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
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(CodecError::BadChecksum { expected: stored, found: computed });
    }
    Ok(payload)
}

/// Content digest of a byte string — used to compare checkpoint/state
/// snapshots for the bit-identical-resume invariant.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

#[cfg(test)]
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
}
