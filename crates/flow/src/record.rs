//! The semi-structured record model flowing through operators.
//!
//! Stratosphere's Sopremo/Meteor layer operates on JSON-like records; the
//! IE operators "add specific annotations (POS tags, entity annotation,
//! token boundaries etc.) and thus actually increas[e] the size of the data
//! through the analysis pipeline" — the property behind the paper's
//! network-overload war story. [`Value::approx_bytes`] is the size model
//! the simulated cluster uses to account for that growth.
//!
//! Token and sentence boundaries — 85 % of all annotation objects — are
//! kept stand-off and packed ([`Value::Spans`]): one shared slice of
//! offsets that means, encodes, sizes and compares exactly as the array
//! of `{end, start}` objects it replaces. Annotations that carry more
//! than their two offsets (negation, pronouns, parentheses, entities,
//! POS) are still one [`FieldMap`] each.

use std::sync::Arc;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

/// The sorted field map backing [`Value::Object`] and [`Record`].
///
/// The regex and entity annotators build one small `{start, end, ...}`
/// object per match (token and sentence boundaries no longer do: see
/// [`Value::Spans`]). A sorted `Vec<(key, value)>` keeps each one to a
/// single right-sized allocation (~100 bytes for a two-field object, where
/// a B-tree leaf node is over 500) and makes drops a linear walk instead
/// of a tree teardown. Iteration order is sorted by key — exactly
/// BTreeMap's — so codec bytes, JSON output, digests, and the
/// `approx_bytes` size model are unchanged by the representation swap.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FieldMap(Vec<(Arc<str>, Value)>);

impl FieldMap {
    pub fn new() -> FieldMap {
        FieldMap(Vec::new())
    }

    pub fn with_capacity(n: usize) -> FieldMap {
        FieldMap(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn idx(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.idx(key).ok().map(|i| &self.0[i].1)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.idx(key).ok().map(|i| &mut self.0[i].1)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.idx(key).is_ok()
    }

    /// Inserts, replacing and returning any previous value for the key —
    /// `BTreeMap::insert` semantics. Appending in key order is O(1).
    pub fn insert(&mut self, key: Arc<str>, value: Value) -> Option<Value> {
        match self.0.last() {
            Some((last, _)) if **last < *key => {
                self.0.push((key, value));
                None
            }
            _ => match self.idx(&key) {
                Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
                Err(i) => {
                    self.0.insert(i, (key, value));
                    None
                }
            },
        }
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.idx(key).ok().map(|i| self.0.remove(i).1)
    }

    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.0.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// The values in key order, writable in place: the keys, and so the
    /// order, stay as they are.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// The span this map spells when it is exactly `{end: Int, start: Int}`
    /// — the only object a [`Value::Spans`] element is equal to.
    fn as_exact_span(&self) -> Option<Span> {
        match self.0.as_slice() {
            [(e, Value::Int(end)), (s, Value::Int(start))] if &**e == "end" && &**s == "start" => {
                Some(Span { start: *start, end: *end })
            }
            _ => None,
        }
    }
}

impl IntoIterator for FieldMap {
    type Item = (Arc<str>, Value);
    type IntoIter = std::vec::IntoIter<(Arc<str>, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a FieldMap {
    type Item = (&'a Arc<str>, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Arc<str>, Value)>,
        fn(&'a (Arc<str>, Value)) -> (&'a Arc<str>, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(Arc<str>, Value)> for FieldMap {
    /// Last value wins on duplicate keys, matching `BTreeMap::from_iter`.
    fn from_iter<I: IntoIterator<Item = (Arc<str>, Value)>>(iter: I) -> FieldMap {
        let mut v: Vec<(Arc<str>, Value)> = iter.into_iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|cur, prev| {
            if cur.0 == prev.0 {
                std::mem::swap(cur, prev);
                true
            } else {
                false
            }
        });
        FieldMap(v)
    }
}

impl std::ops::Index<&str> for FieldMap {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or_else(|| panic!("no field {key:?}"))
    }
}

/// One stand-off annotation boundary: byte offsets into the record's
/// `text`. Offsets are whatever integers the producer wrote — records are
/// input, and readers check them against the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: i64,
    pub end: i64,
}

impl From<Span> for Value {
    /// The plain spelling of one span: the object `{end, start}`.
    fn from(s: Span) -> Value {
        let mut obj = FieldMap::with_capacity(2);
        obj.insert(intern("end"), Value::Int(s.end));
        obj.insert(intern("start"), Value::Int(s.start));
        Value::Object(obj)
    }
}

/// A JSON-like value. Strings are `Arc<str>` so the residual clones on
/// fan-out and Reduce grouping are pointer bumps, not text copies — the
/// codec bytes and [`Value::approx_bytes`] model are unaffected. Object
/// (and [`Record`]) keys are `Arc<str>` too, built through [`intern`]:
/// the annotators that still build one small map per match share the
/// recurring key names, so every key is a refcount bump instead of a heap
/// string.
///
/// [`Value::Spans`] is a second spelling of one logical value, "an array
/// whose every element is the object `{end, start}`": 16 bytes a span
/// where the plain spelling takes a 32-byte `Value` and a 96-byte map,
/// and a clone or drop is one refcount. The two spellings encode to the
/// same bytes, have the same [`Value::approx_bytes`], and compare equal
/// under `==` and [`crate::operator::value_cmp`]; [`Value::decode`] always
/// yields the plain one. Read either through [`Value::spans`] and
/// [`Value::array_len`] — [`Value::as_array`] is `None` on a packed value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Array(Vec<Value>),
    Spans(Arc<[Span]>),
    Object(FieldMap),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Spans(a), Value::Spans(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (Value::Spans(s), Value::Array(a)) | (Value::Array(a), Value::Spans(s)) => {
                s.len() == a.len()
                    && s.iter().zip(a).all(|(s, v)| {
                        v.as_object().and_then(FieldMap::as_exact_span) == Some(*s)
                    })
            }
            _ => false,
        }
    }
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&FieldMap> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Element count of an array in either spelling.
    pub fn array_len(&self) -> Option<usize> {
        match self {
            Value::Array(a) => Some(a.len()),
            Value::Spans(s) => Some(s.len()),
            _ => None,
        }
    }

    /// The elements of an array, a packed one unpacked into the plain
    /// spelling; the value itself when it is not an array.
    pub fn into_array(self) -> Result<Vec<Value>, Value> {
        match self {
            Value::Array(a) => Ok(a),
            Value::Spans(s) => Ok(s.iter().map(|&s| Value::from(s)).collect()),
            other => Err(other),
        }
    }

    /// The `start`/`end` offsets of an array's elements, in either
    /// spelling; `None` when the value is not an array. A plain element
    /// that is not an object with `Int` `start` and `end` is skipped.
    pub fn spans(&self) -> Option<impl Iterator<Item = Span> + '_> {
        let (packed, plain): (&[Span], &[Value]) = match self {
            Value::Spans(s) => (s, &[]),
            Value::Array(a) => (&[], a),
            _ => return None,
        };
        let read = |v: &Value| {
            let o = v.as_object()?;
            Some(Span { start: o.get("start")?.as_int()?, end: o.get("end")?.as_int()? })
        };
        Some(packed.iter().copied().chain(plain.iter().filter_map(read)))
    }

    /// Approximate serialized size in bytes — the unit of the simulated
    /// cluster's network and storage accounting.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64 + 2,
            Value::Array(a) => 2 + a.iter().map(Value::approx_bytes).sum::<u64>(),
            // each element is `{end, start}`: 2 + (3+3+8) + (5+3+8)
            Value::Spans(s) => 2 + 32 * s.len() as u64,
            Value::Object(o) => {
                2 + o
                    .iter()
                    .map(|(k, v)| k.len() as u64 + 3 + v.approx_bytes())
                    .sum::<u64>()
            }
        }
    }
}

impl Snapshot for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(0),
            Value::Bool(b) => {
                w.u8(1);
                w.bool(*b);
            }
            Value::Int(i) => {
                w.u8(2);
                w.i64(*i);
            }
            Value::Float(f) => {
                w.u8(3);
                w.f64(*f);
            }
            Value::Str(s) => {
                w.u8(4);
                w.str(s);
            }
            Value::Array(a) => {
                w.u8(5);
                a.encode(w);
            }
            Value::Spans(s) => {
                // byte for byte the plain array of `{end, start}` objects
                w.u8(5);
                w.usize(s.len());
                for span in s.iter() {
                    w.u8(6);
                    w.usize(2);
                    w.str("end");
                    w.u8(2);
                    w.i64(span.end);
                    w.str("start");
                    w.u8(2);
                    w.i64(span.start);
                }
            }
            Value::Object(o) => {
                w.u8(6);
                w.usize(o.len());
                for (k, v) in o {
                    w.str(k);
                    v.encode(w);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Value, CodecError> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Bool(r.bool()?),
            2 => Value::Int(r.i64()?),
            3 => Value::Float(r.f64()?),
            4 => Value::Str(r.str()?.into()),
            5 => Value::Array(Snapshot::decode(r)?),
            6 => {
                // Encoded maps are already in key order, so each insert
                // takes FieldMap's O(1) append fast path.
                let n = r.usize()?;
                let mut o = FieldMap::with_capacity(n);
                for _ in 0..n {
                    let k = r.str()?;
                    o.insert(intern(&k), Value::decode(r)?);
                }
                Value::Object(o)
            }
            tag => return Err(CodecError::BadTag { what: "Value", tag }),
        })
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A record: a top-level JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct Record(pub FieldMap);

impl Default for Record {
    fn default() -> Self {
        Record::new()
    }
}

impl Record {
    pub fn new() -> Record {
        Record(FieldMap::new())
    }

    /// Builds a record from (key, value) pairs.
    pub fn from_pairs<const N: usize>(pairs: [(&str, Value); N]) -> Record {
        Record(pairs.into_iter().map(|(k, v)| (intern(k), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Record {
        self.0.insert(intern(key), value.into());
        self
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The document text field, the field nearly every IE operator reads.
    pub fn text(&self) -> Option<&str> {
        self.get("text").and_then(Value::as_str)
    }

    /// The text field as a shared handle: a refcount bump instead of the
    /// full-text copy operators used to make so they could keep reading
    /// the text while mutating the record.
    pub fn text_shared(&self) -> Option<std::sync::Arc<str>> {
        match self.get("text") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Same size model as `Value::Object(..).approx_bytes()` without
    /// cloning the field map — this runs once per record per operator in
    /// the executor's byte accounting.
    pub fn approx_bytes(&self) -> u64 {
        2 + self
            .0
            .iter()
            .map(|(k, v)| k.len() as u64 + 3 + v.approx_bytes())
            .sum::<u64>()
    }

    /// Pushes a value onto an array field, creating it if missing (a
    /// field that is not an array is replaced). A packed array is unpacked
    /// once, here, and is a plain one afterwards.
    pub fn push_to(&mut self, key: &str, value: Value) {
        match self.0.get_mut(key) {
            Some(slot) => {
                let mut plain =
                    std::mem::replace(slot, Value::Null).into_array().unwrap_or_default();
                plain.push(value);
                *slot = Value::Array(plain);
            }
            None => {
                self.0.insert(intern(key), Value::Array(vec![value]));
            }
        }
    }
}

impl Snapshot for Record {
    fn encode(&self, w: &mut Writer) {
        // Byte-identical to `Value::Object(self.0.clone()).encode(w)`
        // without cloning the field map.
        w.u8(6);
        w.usize(self.0.len());
        for (k, v) in &self.0 {
            w.str(k);
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Record, CodecError> {
        match Value::decode(r)? {
            Value::Object(o) => Ok(Record(o)),
            _ => Err(CodecError::BadTag { what: "Record", tag: 255 }),
        }
    }
}

/// Recurring field keys across the workspace's flows and the serving
/// layer's result rows, strictly ascending for binary search. Hits in
/// [`intern`] clone a pooled `Arc<str>` (a refcount bump); the list is an
/// optimization only — unknown keys still work, they just pay one
/// allocation.
static COMMON_KEYS: &[&str] = &[
    "annotations",
    "class",
    "corpus",
    "count",
    "end",
    "entities",
    "entity",
    "has_markup",
    "id",
    "key",
    "links",
    "mentions",
    "method",
    "name",
    "negation",
    "page",
    "parentheses",
    "pos",
    "pronouns",
    "round",
    "score",
    "sentence",
    "sentences",
    "start",
    "tags",
    "text",
    "token",
    "tokens",
    "transcodable",
    "type",
    "url",
];

/// A shared handle for a field key: pooled for the workspace's recurring
/// names, freshly allocated otherwise. The annotation operators build
/// millions of small objects per run, and this is what keeps their key
/// strings from being individually heap-allocated and freed.
///
/// Each thread keeps its own pool, so chunk threads building records side
/// by side never bump one shared refcount per record (one `token` key per
/// exploded token would be a cache line every worker writes). A handle
/// may be dropped on another thread than the one that made it: it is an
/// `Arc` like any other.
pub fn intern(key: &str) -> Arc<str> {
    thread_local! {
        static POOL: Vec<Arc<str>> = COMMON_KEYS.iter().map(|&k| Arc::from(k)).collect();
    }
    match COMMON_KEYS.binary_search(&key) {
        Ok(i) => POOL.with(|pool| pool[i].clone()),
        Err(_) => Arc::from(key),
    }
}

/// Builds an annotation object `{start, end, ...extra}` — the common shape
/// for sentence/token/mention annotations.
pub fn span_annotation(start: usize, end: usize, extra: &[(&str, Value)]) -> Value {
    // "end" sorts before "start", so both inserts take the append path
    // and the map is one exact-sized allocation for the common no-extra
    // case.
    let mut obj = FieldMap::with_capacity(2 + extra.len());
    obj.insert(intern("end"), Value::Int(end as i64));
    obj.insert(intern("start"), Value::Int(start as i64));
    for (k, v) in extra {
        obj.insert(intern(k), v.clone());
    }
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_keys_are_strictly_ascending() {
        // `intern` binary-searches the list: one key out of order and the
        // search misses it or its neighbours, which then silently stop
        // being pooled
        for pair in COMMON_KEYS.windows(2) {
            assert!(pair[0] < pair[1], "{:?} must sort before {:?}", pair[0], pair[1]);
        }
        for (i, key) in COMMON_KEYS.iter().enumerate() {
            assert!(Arc::ptr_eq(&intern(key), &intern(key)), "{key} is pooled");
            assert_eq!(COMMON_KEYS.binary_search(key), Ok(i));
        }
    }

    #[test]
    fn record_roundtrip() {
        let mut r = Record::new();
        r.set("id", 7i64).set("text", "hello");
        assert_eq!(r.get("id").unwrap().as_int(), Some(7));
        assert_eq!(r.text(), Some("hello"));
        assert!(r.contains("text"));
        assert!(!r.contains("missing"));
        assert_eq!(r.remove("id"), Some(Value::Int(7)));
    }

    #[test]
    fn size_grows_with_annotations() {
        let mut r = Record::from_pairs([("text", Value::from("some document text"))]);
        let before = r.approx_bytes();
        for i in 0..50 {
            r.push_to("entities", span_annotation(i, i + 5, &[("type", "gene".into())]));
        }
        let after = r.approx_bytes();
        assert!(after > before * 5, "annotations must inflate records: {before} -> {after}");
    }

    #[test]
    fn push_to_creates_and_appends() {
        let mut r = Record::new();
        r.push_to("xs", Value::Int(1));
        r.push_to("xs", Value::Int(2));
        assert_eq!(r.get("xs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        let arr: Value = vec![1i64, 2, 3].into();
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn span_annotation_shape() {
        let a = span_annotation(3, 9, &[("kind", "neg".into())]);
        let o = a.as_object().unwrap();
        assert_eq!(o["start"].as_int(), Some(3));
        assert_eq!(o["end"].as_int(), Some(9));
        assert_eq!(o["kind"].as_str(), Some("neg"));
    }

    #[test]
    fn record_codec_and_bytes_match_value_object() {
        // The non-cloning Record fast paths must stay byte-identical to
        // the generic Value::Object encoding and size model.
        let mut r = Record::from_pairs([("text", Value::from("some text")), ("id", 9i64.into())]);
        r.push_to("entities", span_annotation(0, 4, &[("type", "gene".into())]));
        let as_value = Value::Object(r.0.clone());
        assert_eq!(r.approx_bytes(), as_value.approx_bytes());
        let mut w1 = Writer::new();
        r.encode(&mut w1);
        let mut w2 = Writer::new();
        as_value.encode(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn str_values_clone_cheaply() {
        let s: Arc<str> = Arc::from("shared text");
        let v = Value::Str(s.clone());
        let v2 = v.clone();
        match (&v, &v2) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        assert_eq!(Arc::strong_count(&s), 3);
    }

    #[test]
    fn approx_bytes_sane() {
        assert!(Value::Null.approx_bytes() < 10);
        assert_eq!(Value::Str("abcd".into()).approx_bytes(), 6);
        let obj = Value::Object(
            [(intern("k"), Value::Int(1))].into_iter().collect(),
        );
        assert!(obj.approx_bytes() > 8);
    }

    fn encoded(v: &impl Snapshot) -> Vec<u8> {
        let mut w = Writer::new();
        v.encode(&mut w);
        w.into_bytes()
    }

    fn plain(spans: &[Span]) -> Value {
        Value::Array(spans.iter().map(|&s| Value::from(s)).collect())
    }

    fn packed(spans: &[Span]) -> Value {
        Value::Spans(spans.into())
    }

    #[test]
    fn push_to_unpacks_a_packed_field_instead_of_replacing_it() {
        let spans = [Span { start: 0, end: 5 }, Span { start: 6, end: 11 }];
        let mut record = Record::from_pairs([("sentences", packed(&spans))]);
        let mut unpacked = Record::from_pairs([("sentences", plain(&spans))]);
        for pushed in [Value::from(Span { start: 12, end: 20 }), Value::from("not a span")] {
            record.push_to("sentences", pushed.clone());
            unpacked.push_to("sentences", pushed);
            assert!(matches!(record.get("sentences"), Some(Value::Array(_))));
            assert_eq!(record, unpacked);
            assert_eq!(encoded(&record), encoded(&unpacked));
            assert_eq!(record.approx_bytes(), unpacked.approx_bytes());
        }
        assert_eq!(record.get("sentences").unwrap().array_len(), Some(4));
    }

    /// The packed spelling against the plain one it stands for: every
    /// surface a value is written, sized, compared or read through.
    mod differential {
        use super::*;
        use crate::operator::value_cmp;
        use proptest::prelude::*;
        use std::cmp::Ordering;

        const OFFSETS: [i64; 10] = [i64::MIN, -7, -1, 0, 1, 2, 40, 41, 1 << 40, i64::MAX];

        fn in_record(v: &Value) -> Record {
            Record::from_pairs([("id", 7i64.into()), ("tokens", v.clone()), ("text", "some text".into())])
        }

        /// `near` differs from the value both spellings stand for, and both
        /// spellings say so the same way.
        fn assert_distinct(packed: &Value, plain: &Value, near: &Value) {
            assert_ne!(packed, near);
            assert_ne!(near, packed);
            let order = value_cmp(packed, near);
            assert_ne!(order, Ordering::Equal, "{near:?}");
            assert_eq!(order, value_cmp(plain, near), "{near:?}");
            assert_eq!(value_cmp(near, packed), order.reverse(), "{near:?}");
        }

        proptest! {
            #[test]
            fn packed_spans_are_the_plain_array_they_spell(
                picks in prop::collection::vec(0usize..OFFSETS.len(), 0..24),
                at in 0usize..64,
            ) {
                let spans: Vec<Span> = picks
                    .chunks_exact(2)
                    .map(|p| Span { start: OFFSETS[p[0]], end: OFFSETS[p[1]] })
                    .collect();
                let packed = packed(&spans);
                let plain = plain(&spans);

                prop_assert_eq!(encoded(&packed), encoded(&plain));
                prop_assert_eq!(packed.approx_bytes(), plain.approx_bytes());
                prop_assert_eq!(encoded(&in_record(&packed)), encoded(&in_record(&plain)));
                prop_assert_eq!(in_record(&packed).approx_bytes(), in_record(&plain).approx_bytes());
                prop_assert_eq!(&packed, &plain);
                prop_assert_eq!(&plain, &packed);
                prop_assert_eq!(in_record(&packed), in_record(&plain));
                prop_assert_eq!(value_cmp(&packed, &plain), Ordering::Equal);
                prop_assert_eq!(value_cmp(&plain, &packed), Ordering::Equal);

                // a frame holds the plain spelling, equal to the packed one
                let bytes = encoded(&packed);
                let decoded = Value::decode(&mut Reader::new(&bytes)).unwrap();
                prop_assert!(matches!(decoded, Value::Array(_)));
                prop_assert_eq!(&decoded, &packed);
                prop_assert_eq!(&packed, &decoded);
                prop_assert_eq!(encoded(&decoded), bytes);

                for v in [&packed, &plain] {
                    prop_assert_eq!(v.spans().unwrap().collect::<Vec<_>>(), spans.clone());
                    prop_assert_eq!(v.array_len(), Some(spans.len()));
                    prop_assert_eq!(v.clone().into_array().unwrap(), plain.clone().into_array().unwrap());
                }
                prop_assert!(packed.as_array().is_none());

                // one element more
                let mut longer = spans.clone();
                longer.push(Span { start: 3, end: 4 });
                assert_distinct(&packed, &plain, &self::plain(&longer));
                assert_distinct(&packed, &plain, &self::packed(&longer));
                let Some(i) = at.checked_rem(spans.len()) else { return };
                let Span { start, end } = spans[i];
                // one element fewer
                assert_distinct(&packed, &plain, &self::plain(&spans[1..]));
                assert_distinct(&packed, &plain, &self::packed(&spans[1..]));
                // one offset off by one, in either spelling
                let mut moved = spans.clone();
                moved[i].start = start.wrapping_add(1);
                assert_distinct(&packed, &plain, &self::plain(&moved));
                assert_distinct(&packed, &plain, &self::packed(&moved));
                moved[i] = Span { start, end: end.wrapping_sub(1) };
                assert_distinct(&packed, &plain, &self::plain(&moved));
                assert_distinct(&packed, &plain, &self::packed(&moved));
                // one element that is not exactly `{end: Int, start: Int}`
                let with = |element: Value| {
                    let mut elements = plain.clone().into_array().unwrap();
                    elements[i] = element;
                    Value::Array(elements)
                };
                let start_only: FieldMap = [(intern("start"), Value::Int(start))].into_iter().collect();
                for element in [
                    span_annotation(0, 0, &[("end", end.into()), ("start", start.into()), ("sentence", 0i64.into())]),
                    span_annotation(0, 0, &[("end", end.into()), ("start", Value::Float(start as f64))]),
                    span_annotation(0, 0, &[("end", Value::Null), ("start", start.into())]),
                    Value::Object(start_only),
                    Value::Int(start),
                    Value::Array(vec![end.into(), start.into()]),
                ] {
                    assert_distinct(&packed, &plain, &with(element));
                }
            }
        }

        #[test]
        fn a_packed_array_ranks_as_an_array() {
            let packed = packed(&[Span { start: 1, end: 2 }]);
            let empty = self::packed(&[]);
            assert_eq!(empty, Value::Array(Vec::new()));
            assert_eq!(encoded(&empty), encoded(&Value::Array(Vec::new())));
            for (other, order) in [
                (Value::Null, Ordering::Greater),
                (Value::from("zzz"), Ordering::Greater),
                (Value::Array(Vec::new()), Ordering::Greater),
                (Value::Array(vec![Value::Int(9)]), Ordering::Greater),
                (Value::from(Span { start: 1, end: 2 }), Ordering::Less),
            ] {
                assert_ne!(packed, other);
                assert_eq!(value_cmp(&packed, &other), order, "{other:?}");
                assert_eq!(value_cmp(&other, &packed), order.reverse(), "{other:?}");
                assert_eq!(value_cmp(&plain(&[Span { start: 1, end: 2 }]), &other), order, "{other:?}");
            }
        }
    }
}
