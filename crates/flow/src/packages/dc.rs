//! DC package: data-cleansing operators — "addressing common challenges
//! in processing dirty or heterogeneous data sources".

use crate::operator::{Operator, Package};
use crate::packages::OperatorRegistry;
use crate::record::Value;

/// `dc.drop_untranscodable` — removes pages the markup stages flagged.
pub fn drop_untranscodable() -> Operator {
    Operator::filter("dc.drop_untranscodable", Package::Dc, |r| {
        r.get("transcodable") != Some(&Value::Bool(false))
    })
    .with_reads(&["transcodable"])
    .shipped_as("dc.drop_untranscodable", |_| {})
}

/// `dc.filter_empty_text` — drops records whose text is empty/whitespace.
pub fn filter_empty_text() -> Operator {
    Operator::filter("dc.filter_empty_text", Package::Dc, |r| {
        r.text().map(|t| !t.trim().is_empty()).unwrap_or(false)
    })
    .with_reads(&["text"])
    .shipped_as("dc.filter_empty_text", |_| {})
}

/// `dc.normalize_whitespace` — collapses runs of whitespace in the text.
pub fn normalize_whitespace() -> Operator {
    Operator::map("dc.normalize_whitespace", Package::Dc, |mut r| {
        if let Some(t) = r.text() {
            let mut out = String::with_capacity(t.len());
            let mut last_ws = false;
            for c in t.chars() {
                if c.is_whitespace() {
                    if !out.is_empty() {
                        if !last_ws {
                            out.push(' ');
                        }
                        if c == '\n' {
                            // a newline anywhere in the run wins
                            out.pop();
                            out.push('\n');
                        }
                    }
                    last_ws = true;
                } else {
                    out.push(c);
                    last_ws = false;
                }
            }
            while out.ends_with(char::is_whitespace) {
                out.pop();
            }
            r.set("text", out);
        }
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text"])
    .shipped_as("dc.normalize_whitespace", |_| {})
}

/// `dc.dedup_entities` — merges entity annotations that cover the same
/// span with the same type ("merging annotations using different
/// schemes"). Dictionary-sourced annotations win over ML on exact ties.
pub fn dedup_entities() -> Operator {
    Operator::map("dc.dedup_entities", Package::Dc, |mut r| {
        let mut sorted = match r.remove("entities").map(Value::into_array) {
            Some(Ok(entities)) => entities,
            // not an array: nothing to merge, and not this operator's to drop
            Some(Err(other)) => {
                r.set("entities", other);
                return r;
            }
            None => return r,
        };
        sorted.sort_by_key(|v| {
            let o = v.as_object();
            let start = o.and_then(|o| o.get("start")).and_then(Value::as_int).unwrap_or(0);
            let end = o.and_then(|o| o.get("end")).and_then(Value::as_int).unwrap_or(0);
            let method_rank = o
                .and_then(|o| o.get("method"))
                .and_then(Value::as_str)
                .map(|m| if m == "dict" { 0 } else { 1 })
                .unwrap_or(2);
            (start, end, method_rank)
        });
        let mut out: Vec<Value> = Vec::with_capacity(sorted.len());
        for v in sorted {
            let dup = out.last().is_some_and(|prev| {
                let (po, vo) = (prev.as_object(), v.as_object());
                match (po, vo) {
                    (Some(p), Some(n)) => {
                        p.get("start") == n.get("start")
                            && p.get("end") == n.get("end")
                            && p.get("type") == n.get("type")
                    }
                    _ => false,
                }
            });
            if !dup {
                out.push(v);
            }
        }
        r.set("entities", Value::Array(out));
        r
    })
    .with_reads(&["entities"])
    .with_writes(&["entities"])
    .shipped_as("dc.dedup_entities", |_| {})
}

pub fn register(reg: &mut OperatorRegistry) {
    reg.register("dc.drop_untranscodable", drop_untranscodable);
    reg.register("dc.filter_empty_text", filter_empty_text);
    reg.register("dc.normalize_whitespace", normalize_whitespace);
    reg.register("dc.dedup_entities", dedup_entities);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{span_annotation, Record};

    #[test]
    fn drop_untranscodable_filters_flagged() {
        let mut bad = Record::new();
        bad.set("transcodable", false);
        let mut good = Record::new();
        good.set("transcodable", true);
        let unmarked = Record::new();
        let out = drop_untranscodable().apply(vec![bad, good, unmarked]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn filter_empty_text_drops_blank() {
        let mut blank = Record::new();
        blank.set("text", "   \n ");
        let mut full = Record::new();
        full.set("text", "content");
        let out = filter_empty_text().apply(vec![blank, full, Record::new()]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn normalize_whitespace_collapses() {
        let mut r = Record::new();
        r.set("text", "a   b\t\tc  \n\nd  ");
        let out = normalize_whitespace().apply(vec![r]);
        assert_eq!(out[0].text(), Some("a b c\nd"));
    }

    #[test]
    fn dedup_prefers_dictionary() {
        let mut r = Record::new();
        r.push_to(
            "entities",
            span_annotation(0, 5, &[("type", "gene".into()), ("method", "ml".into())]),
        );
        r.push_to(
            "entities",
            span_annotation(0, 5, &[("type", "gene".into()), ("method", "dict".into())]),
        );
        r.push_to(
            "entities",
            span_annotation(8, 12, &[("type", "drug".into()), ("method", "ml".into())]),
        );
        let out = dedup_entities().apply(vec![r]);
        let ents = out[0].get("entities").unwrap().as_array().unwrap();
        assert_eq!(ents.len(), 2);
        assert_eq!(
            ents[0].as_object().unwrap()["method"].as_str(),
            Some("dict"),
            "dictionary annotation wins the tie"
        );
    }

    #[test]
    fn dedup_keeps_distinct_types_on_same_span() {
        let mut r = Record::new();
        r.push_to(
            "entities",
            span_annotation(0, 5, &[("type", "gene".into()), ("method", "ml".into())]),
        );
        r.push_to(
            "entities",
            span_annotation(0, 5, &[("type", "drug".into()), ("method", "ml".into())]),
        );
        let out = dedup_entities().apply(vec![r]);
        assert_eq!(out[0].get("entities").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn dedup_without_entities_is_noop() {
        let out = dedup_entities().apply(vec![Record::new()]);
        assert!(!out[0].contains("entities"));
    }

    #[test]
    fn dedup_leaves_a_non_array_entities_field_alone() {
        for scalar in [Value::from("none found"), Value::Int(0), Value::Null] {
            let mut r = Record::new();
            r.set("id", 3i64).set("entities", scalar);
            let out = dedup_entities().apply(vec![r.clone()]);
            assert_eq!(out, [r]);
        }
    }
}
