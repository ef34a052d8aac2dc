//! BASE package: general-purpose relational operators.

use crate::operator::{Aggregate, CostModel, Operator, Package};
use crate::packages::OperatorRegistry;
use crate::record::Record;
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

/// `base.identity` — passes every record through (a script placeholder
/// the optimizer splices out).
pub fn identity() -> Operator {
    Operator::map("identity", Package::Base, |r| r).shipped_as("base.identity", |_| {})
}

/// `base.count_by` — reduce counting records per value of `field`. Uses
/// the typed [`Aggregate::Count`], so the executor can pre-aggregate it
/// inside fused stages.
pub fn count_by(field: &str) -> Operator {
    let field = field.to_string();
    let key_field = field.clone();
    let mut op = Operator::reduce_agg(
        "base.count_by",
        Package::Base,
        move |r: &Record| {
            r.get(&key_field)
                .map(|v| format!("{v:?}"))
                .unwrap_or_else(|| "<missing>".to_string())
        },
        Aggregate::Count { into: "count".to_string() },
    );
    op.reads = vec![field.clone()];
    op.shipped_as("base.count_by", |w| w.str(&field))
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
    use crate::record::Value;

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
        let _ = Value::Null;
    }
}
