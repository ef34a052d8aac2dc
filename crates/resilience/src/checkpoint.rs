//! The [`Snapshot`] trait: structured state that can round-trip through
//! the [`crate::codec`] byte format.
//!
//! Implementations must be *byte-deterministic*: encoding the same
//! logical state twice yields identical bytes. For unordered
//! collections (hash maps/sets) the impls here sort entries by key
//! before writing, so two states that compare equal always produce
//! equal checkpoints — which lets callers compare whole-state digests
//! ([`crate::codec::digest`]) instead of field-by-field equality.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

use crate::codec::{presize, CodecError, Reader, Writer};

/// State that participates in checkpoints.
pub trait Snapshot: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte buffer.
pub fn encode_to_vec<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value, requiring the buffer to be fully consumed.
pub fn decode_from_slice<T: Snapshot>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Truncated { what: "trailing bytes after value" });
    }
    Ok(value)
}

macro_rules! snapshot_primitive {
    ($($ty:ty => $write:ident / $read:ident),+ $(,)?) => {
        $(
            impl Snapshot for $ty {
                fn encode(&self, w: &mut Writer) {
                    w.$write(*self);
                }
                fn decode(r: &mut Reader<'_>) -> Result<$ty, CodecError> {
                    r.$read()
                }
            }
        )+
    };
}

snapshot_primitive! {
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    i64 => i64 / i64,
    usize => usize / usize,
    f64 => f64 / f64,
    bool => bool / bool,
}

impl Snapshot for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<String, CodecError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        let len = r.usize()?;
        let mut out = Vec::with_capacity(presize::<T>(len, r));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<VecDeque<T>, CodecError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { what: "Option", tag }),
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(A, B), CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Snapshot + Default + Copy, const N: usize> Snapshot for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<[T; N], CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

// lint:allow(hash_iteration): entries are sorted by key before encoding
impl<K, V> Snapshot for HashMap<K, V>
where
    K: Snapshot + Ord + Hash + Eq,
    V: Snapshot,
{
    fn encode(&self, w: &mut Writer) {
        // sorted by key so equal maps encode to equal bytes
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }

    // lint:allow(hash_iteration): decode only inserts; nothing iterates here
    fn decode(r: &mut Reader<'_>) -> Result<HashMap<K, V>, CodecError> {
        let len = r.usize()?;
        // lint:allow(hash_iteration): decode only inserts; nothing iterates here
        let mut out = HashMap::with_capacity(presize::<(K, V)>(len, r));
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// lint:allow(hash_iteration): items are sorted before encoding
impl<T> Snapshot for HashSet<T>
where
    T: Snapshot + Ord + Hash + Eq,
{
    fn encode(&self, w: &mut Writer) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.usize(items.len());
        for item in items {
            item.encode(w);
        }
    }

    // lint:allow(hash_iteration): decode only inserts; nothing iterates here
    fn decode(r: &mut Reader<'_>) -> Result<HashSet<T>, CodecError> {
        let len = r.usize()?;
        // lint:allow(hash_iteration): decode only inserts; nothing iterates here
        let mut out = HashSet::with_capacity(presize::<T>(len, r));
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collections_roundtrip() {
        let mut map: HashMap<String, Vec<u64>> = HashMap::new();
        map.insert("b".into(), vec![1, 2]);
        map.insert("a".into(), vec![]);
        let mut set: HashSet<u64> = HashSet::new();
        set.extend([9, 3, 7]);
        let deque: VecDeque<(String, u32)> =
            vec![("x".to_string(), 1u32), ("y".to_string(), 2)].into();
        let opt: Option<f64> = Some(3.25);
        let arr: [u64; 2] = [10, 20];

        let mut w = Writer::new();
        map.encode(&mut w);
        set.encode(&mut w);
        deque.encode(&mut w);
        opt.encode(&mut w);
        arr.encode(&mut w);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(HashMap::<String, Vec<u64>>::decode(&mut r).unwrap(), map);
        assert_eq!(HashSet::<u64>::decode(&mut r).unwrap(), set);
        assert_eq!(VecDeque::<(String, u32)>::decode(&mut r).unwrap(), deque);
        assert_eq!(Option::<f64>::decode(&mut r).unwrap(), opt);
        assert_eq!(<[u64; 2]>::decode(&mut r).unwrap(), arr);
        assert!(r.is_empty());
    }

    #[test]
    fn equal_maps_encode_identically() {
        // build two maps with different insertion orders
        let mut a: HashMap<String, u64> = HashMap::new();
        let mut b: HashMap<String, u64> = HashMap::new();
        for i in 0..64 {
            a.insert(format!("key{i}"), i);
        }
        for i in (0..64).rev() {
            b.insert(format!("key{i}"), i);
        }
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
    }

    #[test]
    fn presize_never_reserves_more_bytes_than_remain() {
        let payload = [0u8; 100];
        let r = Reader::new(&payload);
        type Wide = (String, [u64; 4]);
        assert!(std::mem::size_of::<Wide>() >= 32);
        for claimed in [0usize, 1, 3, 100, 101, u32::MAX as usize, usize::MAX] {
            let narrow = presize::<u8>(claimed, &r);
            let wide = presize::<Wide>(claimed, &r);
            assert_eq!(narrow, claimed.min(100));
            assert!(wide <= claimed);
            assert!(wide * std::mem::size_of::<Wide>() <= r.remaining());
        }
        assert_eq!(presize::<Wide>(usize::MAX, &r), 100 / std::mem::size_of::<Wide>());
        assert_eq!(presize::<()>(7, &r), 7, "zero-sized elements reserve no bytes");
    }

    #[test]
    fn forged_count_over_short_payload_is_truncated() {
        let mut w = Writer::new();
        w.usize(u32::MAX as usize);
        w.u64(1);
        w.u64(2);
        let bytes = w.into_bytes();
        let truncated = |e| matches!(e, Err(CodecError::Truncated { .. }));
        assert!(truncated(decode_from_slice::<Vec<u64>>(&bytes).map(drop)));
        assert!(truncated(decode_from_slice::<Vec<(String, [u64; 4])>>(&bytes).map(drop)));
        assert!(truncated(decode_from_slice::<HashMap<u64, String>>(&bytes).map(drop)));
        assert!(truncated(decode_from_slice::<HashSet<u64>>(&bytes).map(drop)));
        assert!(truncated(decode_from_slice::<VecDeque<u64>>(&bytes).map(drop)));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(decode_from_slice::<u64>(&bytes).is_err());
    }
}
