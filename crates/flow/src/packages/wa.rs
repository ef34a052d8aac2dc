//! WA package: web-analytics operators — markup detection, repair,
//! removal, boilerplate extraction, and link extraction.

use crate::operator::{CostModel, Operator, Package};
use crate::packages::OperatorRegistry;
use crate::record::Value;
use websift_crawler::boilerplate::BoilerplateDetector;
use websift_crawler::parser::{extract_links, repair_markup, strip_markup, HtmlToken};
use websift_web::Url;

/// `wa.detect_markup` — flags whether the text field contains HTML markup.
pub fn detect_markup() -> Operator {
    Operator::map("wa.detect_markup", Package::Wa, |mut r| {
        let has = r
            .text()
            .map(|t| t.contains('<') && (t.contains("</") || t.to_lowercase().contains("<html")))
            .unwrap_or(false);
        r.set("has_markup", has);
        r
    })
    .with_reads(&["text"])
    .with_writes(&["has_markup"])
    .shipped_as("wa.detect_markup", |_| {})
}

/// Serializes repaired tokens back to an HTML string.
fn serialize_tokens(tokens: &[HtmlToken]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t {
            HtmlToken::Open { name, attrs } => {
                out.push('<');
                out.push_str(name);
                if !attrs.is_empty() {
                    out.push(' ');
                    out.push_str(attrs);
                }
                out.push('>');
            }
            HtmlToken::Close { name } => {
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
            HtmlToken::Text(t) => out.push_str(t),
        }
    }
    out
}

/// `wa.repair_markup` — balances the markup; untranscodable pages get
/// `transcodable: false` and pass through unchanged (so the flow can count
/// and drop them instead of crashing — the robustness the paper asks for).
pub fn repair_markup_op() -> Operator {
    Operator::map("wa.repair_markup", Package::Wa, |mut r| {
        let html = r.text_shared().unwrap_or_else(|| "".into());
        match repair_markup(&html, 0.45) {
            Ok(tokens) => {
                r.set("text", serialize_tokens(&tokens));
                r.set("transcodable", true);
            }
            Err(_) => {
                r.set("transcodable", false);
            }
        }
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text", "transcodable"])
    .with_cost(CostModel {
        us_per_char: 0.02,
        ..CostModel::default()
    })
    .shipped_as("wa.repair_markup", |_| {})
}

/// `wa.remove_markup` — strips all tags, keeping every text node.
pub fn remove_markup() -> Operator {
    Operator::map("wa.remove_markup", Package::Wa, |mut r| {
        let text = r.text_shared().unwrap_or_else(|| "".into());
        if text.contains('<') {
            r.set("text", strip_markup(&text));
        }
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text"])
    .with_cost(CostModel {
        us_per_char: 0.02,
        ..CostModel::default()
    })
    .shipped_as("wa.remove_markup", |_| {})
}

/// `wa.extract_net_text` — boilerplate-aware net-text extraction
/// (Boilerpipe analogue). Untranscodable pages yield empty text and
/// `transcodable: false`.
pub fn extract_net_text() -> Operator {
    Operator::map("wa.extract_net_text", Package::Wa, |mut r| {
        let html = r.text_shared().unwrap_or_else(|| "".into());
        if !html.contains('<') {
            return r; // already plain text (Medline/PMC branch)
        }
        let detector = BoilerplateDetector::default();
        match detector.extract(&html) {
            Ok(net) => {
                r.set("text", net);
                r.set("transcodable", true);
            }
            Err(_) => {
                r.set("text", "");
                r.set("transcodable", false);
            }
        }
        r
    })
    .with_reads(&["text"])
    .with_writes(&["text", "transcodable"])
    .with_cost(CostModel {
        us_per_char: 0.05,
        ..CostModel::default()
    })
    .shipped_as("wa.extract_net_text", |_| {})
}

/// `wa.extract_links` — collects outgoing links into a `links` array.
pub fn extract_links_op() -> Operator {
    Operator::map("wa.extract_links", Package::Wa, |mut r| {
        let html = r.text_shared().unwrap_or_else(|| "".into());
        let base = r
            .get("url")
            .and_then(Value::as_str)
            .and_then(|u| Url::parse(u).ok())
            .unwrap_or_else(|| Url::new("unknown.example", "/"));
        let links: Vec<Value> = extract_links(&html, &base)
            .into_iter()
            .map(|u| Value::from(u.to_string()))
            .collect();
        r.set("links", Value::Array(links));
        r
    })
    .with_reads(&["text", "url"])
    .with_writes(&["links"])
    .shipped_as("wa.extract_links", |_| {})
}

pub fn register(reg: &mut OperatorRegistry) {
    reg.register("wa.detect_markup", detect_markup);
    reg.register("wa.repair_markup", repair_markup_op);
    reg.register("wa.remove_markup", remove_markup);
    reg.register("wa.extract_net_text", extract_net_text);
    reg.register("wa.extract_links", extract_links_op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn html_doc() -> Record {
        let mut r = Record::new();
        r.set("url", "http://x.example/p1.html");
        r.set(
            "text",
            "<html><body><div class=\"nav\"><a href=\"/a\">Home</a><a href=\"/b\">About</a>\
             <a href=\"/c\">More</a></div><p>The clinical study shows the drug reduces pain \
             in most patients over twelve weeks of treatment and observation.</p>\
             <p><a href=\"http://y.example/z\">related</a></p></body></html>",
        );
        r
    }

    #[test]
    fn detect_markup_flags_html() {
        let out = detect_markup().apply(vec![html_doc()]);
        assert_eq!(out[0].get("has_markup"), Some(&Value::Bool(true)));
        let mut plain = Record::new();
        plain.set("text", "no markup here");
        let out = detect_markup().apply(vec![plain]);
        assert_eq!(out[0].get("has_markup"), Some(&Value::Bool(false)));
    }

    #[test]
    fn repair_marks_transcodable() {
        let out = repair_markup_op().apply(vec![html_doc()]);
        assert_eq!(out[0].get("transcodable"), Some(&Value::Bool(true)));
        let mut broken = Record::new();
        broken.set("text", "</p></div></b></i></span></p>");
        let out = repair_markup_op().apply(vec![broken]);
        assert_eq!(out[0].get("transcodable"), Some(&Value::Bool(false)));
    }

    #[test]
    fn remove_markup_strips_tags() {
        let out = remove_markup().apply(vec![html_doc()]);
        let text = out[0].text().unwrap();
        assert!(!text.contains('<'));
        assert!(text.contains("clinical study"));
        assert!(text.contains("Home"), "strip keeps boilerplate text");
    }

    #[test]
    fn extract_net_text_drops_boilerplate() {
        let out = extract_net_text().apply(vec![html_doc()]);
        let text = out[0].text().unwrap();
        assert!(text.contains("clinical study"));
        assert!(!text.contains("Home"));
        // plain text records pass through untouched
        let mut plain = Record::new();
        plain.set("text", "an abstract body with no markup at all");
        let out = extract_net_text().apply(vec![plain]);
        assert_eq!(out[0].text(), Some("an abstract body with no markup at all"));
    }

    #[test]
    fn extract_links_resolves_against_url() {
        let out = extract_links_op().apply(vec![html_doc()]);
        let links = out[0].get("links").unwrap().as_array().unwrap();
        let strings: Vec<&str> = links.iter().filter_map(Value::as_str).collect();
        assert!(strings.contains(&"http://x.example/a"));
        assert!(strings.contains(&"http://y.example/z"));
    }

    #[test]
    fn serialize_roundtrips_structure() {
        let tokens = repair_markup("<p>a<b>c</b></p>", 1.0).unwrap();
        let s = serialize_tokens(&tokens);
        assert_eq!(s, "<p>a<b>c</b></p>");
    }
}
