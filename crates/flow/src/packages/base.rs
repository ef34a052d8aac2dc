//! BASE package: general-purpose relational operators.

use crate::operator::{Aggregate, CostModel, Operator, Package};
use crate::packages::OperatorRegistry;
use crate::record::{Record, Value};
use std::fmt::Write;
use websift_resilience::Snapshot;

/// Maximum text length admitted by `base.filter_length` (the Fig.-2 flow
/// "first filter[s] to exclude extremely long documents", and §5 notes the
/// eventual "hard upper limit on the texts to be analyzed" forced by
/// out-of-memory errors in the tools).
pub const DEFAULT_MAX_TEXT_CHARS: usize = 500_000;

/// `base.filter_length` with an explicit bound.
pub fn filter_length(max_chars: usize) -> Operator {
    Operator::filter("base.filter_length", Package::Base, move |r| {
        r.text().map(|t| t.chars().count() <= max_chars).unwrap_or(false)
    })
    .with_reads(&["text"])
    .with_cost(CostModel {
        us_per_char: 0.001,
        ..CostModel::default()
    })
    .shipped_as("base.filter_length", |w| w.usize(max_chars))
}

/// `base.filter_min_length` — drops records with very little text.
pub fn filter_min_length(min_chars: usize) -> Operator {
    Operator::filter("base.filter_min_length", Package::Base, move |r| {
        r.text().map(|t| t.chars().count() >= min_chars).unwrap_or(false)
    })
    .with_reads(&["text"])
    .with_cost(CostModel {
        us_per_char: 0.001,
        ..CostModel::default()
    })
    .shipped_as("base.filter_min_length", |w| w.usize(min_chars))
}

/// `base.project` — keeps only the listed fields.
pub fn project(fields: Vec<String>) -> Operator {
    let keep = fields.clone();
    Operator::map("base.project", Package::Base, move |mut r| {
        let keys: Vec<std::sync::Arc<str>> = r.0.keys().cloned().collect();
        for k in keys {
            if !keep.iter().any(|f| f.as_str() == &*k) {
                r.remove(&k);
            }
        }
        r
    })
    .shipped_as("base.project", |w| fields.encode(w))
}

/// `base.identity` — passes every record through (a script placeholder).
pub fn identity() -> Operator {
    Operator::map("identity", Package::Base, |r| r).shipped_as("base.identity", |_| {})
}

/// `base.count_by` — reduce counting records per value of `field`. Uses
/// the typed [`Aggregate::Count`], so the executor can pre-aggregate it
/// inside fused stages. The key is the value's `Debug` form, `<missing>`
/// when the record lacks the field (see [`write_key`]).
pub fn count_by(field: &str) -> Operator {
    let field = field.to_string();
    let key_field = field.clone();
    let mut op = Operator::reduce_agg(
        "base.count_by",
        Package::Base,
        move |r: &Record, k: &mut String| write_key(r.get(&key_field), k),
        Aggregate::Count { into: "count".to_string() },
    );
    op.reads = vec![field.clone()];
    op.shipped_as("base.count_by", |w| w.str(&field))
}

/// Writes `count_by`'s key for `value` into `k`: exactly the bytes of
/// `format!("{value:?}")`, or `<missing>`. It runs once per counted
/// record, so the common key — a string of printable ASCII without `"` or
/// `\`, which `Debug` writes unescaped — is spelled out here without a
/// formatter; everything else goes through `Debug`.
fn write_key(value: Option<&Value>, k: &mut String) {
    // lint:hot_loop(begin): count_by key writer
    let unescaped = |b: &u8| matches!(b, b' '..=b'~') && !matches!(b, b'"' | b'\\');
    match value {
        Some(Value::Str(s)) if s.as_bytes().iter().all(unescaped) => {
            k.push_str("Str(\"");
            k.push_str(s);
            k.push_str("\")");
        }
        Some(v) => {
            let _ = write!(k, "{v:?}");
        }
        None => k.push_str("<missing>"),
    }
    // lint:hot_loop(end)
}

/// Registers the BASE operators under their default parameters.
pub fn register(reg: &mut OperatorRegistry) {
    reg.register("base.filter_length", || filter_length(DEFAULT_MAX_TEXT_CHARS));
    reg.register("base.filter_min_length", || filter_min_length(100));
    reg.register("base.identity", identity);
    reg.register("base.count_by_corpus", || count_by("corpus"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{intern, Span};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn doc(text: &str) -> Record {
        let mut r = Record::new();
        r.set("text", text).set("corpus", "x").set("extra", 1i64);
        r
    }

    #[test]
    fn filter_length_bounds() {
        let op = filter_length(10);
        let out = op.apply(vec![doc("short"), doc("definitely too long for ten")]);
        assert_eq!(out.len(), 1);
        // records without text are dropped too
        let out = op.apply(vec![Record::new()]);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_min_length_bounds() {
        let op = filter_min_length(6);
        let out = op.apply(vec![doc("tiny"), doc("long enough")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].text(), Some("long enough"));
    }

    #[test]
    fn project_keeps_only_listed() {
        let op = project(vec!["text".to_string()]);
        let out = op.apply(vec![doc("abc")]);
        assert!(out[0].contains("text"));
        assert!(!out[0].contains("extra"));
        assert!(!out[0].contains("corpus"));
    }

    #[test]
    fn count_by_counts() {
        let op = count_by("corpus");
        let mut d2 = doc("x");
        d2.set("corpus", "y");
        let out = op.apply(vec![doc("a"), doc("b"), d2]);
        assert_eq!(out.len(), 2);
        let total: i64 = out.iter().map(|r| r.get("count").unwrap().as_int().unwrap()).sum();
        assert_eq!(total, 3);
    }

    /// `write_key` against the `format!` it replaced, for one value.
    fn assert_key_is_debug(value: Option<&Value>) {
        let mut k = String::from("stale");
        k.clear();
        write_key(value, &mut k);
        let want = value.map_or_else(|| "<missing>".to_string(), |v| format!("{v:?}"));
        assert_eq!(k, want, "key of {value:?}");
    }

    /// Strings the fast path must take or refuse: quotes, backslashes,
    /// control chars, DEL, non-ASCII, combining marks, the empty string.
    const PIECES: &[&str] = &[
        "", "a", "Z", "0", " ", "~", "'", "\"", "\\", "\0", "\t", "\n", "\r", "\x07", "\x1b",
        "\x7f", "\u{80}", "\u{a0}", "é", "e\u{301}", "\u{301}", "\u{200d}", "\u{feff}", "ß",
        "中", "\u{1F600}", "\u{10ffff}", "{", "}", "Str(", ")",
    ];

    /// Every `Value` variant, a missing field, and every string of one
    /// char below U+0100 or one piece, alone and between two letters.
    #[test]
    fn differential_count_by_key_is_the_debug_format_of_every_value() {
        let pairs = [(intern("k"), Value::from("v\"")), (intern("n"), Value::Int(-3))];
        let object: crate::record::FieldMap = pairs.into_iter().collect();
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5e300),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Array(Vec::new()),
            Value::Array(vec![Value::from("x"), Value::Int(1)]),
            Value::Spans(Arc::from([Span { start: 0, end: 4 }])),
            Value::Object(object),
        ];
        assert_key_is_debug(None);
        for v in &values {
            assert_key_is_debug(Some(v));
        }
        let chars = (0u32..0x100).filter_map(char::from_u32).map(String::from);
        for s in chars.chain(PIECES.iter().map(|p| p.to_string())) {
            assert_key_is_debug(Some(&Value::from(s.as_str())));
            assert_key_is_debug(Some(&Value::from(format!("a{s}b"))));
        }
    }

    proptest! {
        #[test]
        fn differential_count_by_key_is_the_debug_format_of_random_strings(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..12),
        ) {
            let s: String = picks.iter().map(|&i| PIECES[i]).collect();
            assert_key_is_debug(Some(&Value::from(s)));
        }
    }

    /// Through the operator: the key a record is counted under.
    #[test]
    fn count_by_keys_are_debug_strings() {
        let mut quoted = doc("q");
        quoted.set("corpus", "say \"hi\"");
        let mut missing = doc("m");
        missing.remove("corpus");
        let out = count_by("corpus").apply(vec![doc("a"), quoted, missing]);
        let keys: Vec<&str> = out.iter().filter_map(|r| r.get("key")?.as_str()).collect();
        assert_eq!(keys, ["<missing>", r#"Str("say \"hi\"")"#, r#"Str("x")"#]);
    }
}
