//! HTML parsing: tokenization into tags/text, link extraction, markup
//! repair, and markup removal.
//!
//! Real web markup is broken (95 % non-conformant per the paper's cited
//! measurements), so the parser here is defensive by construction: it
//! tokenizes byte-by-byte, never assumes well-formedness, tolerates
//! unquoted attributes and unclosed elements, and reports — rather than
//! crashes on — pages that are too mangled to transcode.

use std::borrow::Cow;

use websift_web::Url;

/// One parsed HTML token, borrowed from the page it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmlToken<'a> {
    /// `<tag attr=...>`; name lower-cased, raw attribute string preserved.
    Open { name: Cow<'a, str>, attrs: &'a str },
    /// `</tag>`
    Close { name: Cow<'a, str> },
    /// Text between tags (entity-decoded for the few common entities).
    Text(Cow<'a, str>),
}

/// Tags whose content is never text (dropped wholesale).
const SKIP_CONTENT: &[&str] = &["script", "style", "noscript"];

/// Block-level tags (used by the boilerplate segmenter).
pub const BLOCK_TAGS: &[&str] = &[
    "p", "div", "td", "li", "h1", "h2", "h3", "h4", "blockquote", "article", "section", "pre",
    "table", "ul", "ol", "body",
];

/// Void elements that never close.
const VOID_TAGS: &[&str] = &["br", "hr", "img", "input", "meta", "link"];

/// A tag name lower-cased: copied only when it holds a char that lower-casing
/// could change (an ASCII upper-case or any non-ASCII char).
fn lower_name(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase() || !b.is_ascii()) {
        Cow::Owned(name.to_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Tokenizes HTML defensively. Content of `<script>`/`<style>` is skipped.
/// Names and text borrow from `html` unless lower-casing or entity decoding
/// changed them. This is the one tokenizer: markup repair, the boilerplate
/// segmenter and the link walk all read its stream.
pub fn tokenize_html(html: &str) -> Vec<HtmlToken<'_>> {
    let mut tokens = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0usize;
    let n = bytes.len();
    let mut skip_until_close: Option<&str> = None;

    while i < n {
        let rest = &html[i..];
        if bytes[i] == b'<' {
            // comment?
            if rest.starts_with("<!--") {
                match rest.find("-->") {
                    Some(end) => {
                        i += end + 3;
                        continue;
                    }
                    None => break, // unterminated comment: drop the rest
                }
            }
            // find closing '>'; none is a truncated tag at EOF (the
            // severe-defect pattern)
            let Some(close) = rest.find('>') else { break };
            let inner = &rest[1..close];
            let is_close = inner.starts_with('/');
            let name_part = inner.trim_start_matches('/');
            let name_end = name_part
                .find(|c: char| c.is_whitespace() || c == '/')
                .unwrap_or(name_part.len());
            let name = lower_name(&name_part[..name_end]);
            i += close + 1;

            if name.is_empty() || name.starts_with('!') {
                continue;
            }
            if let Some(skip) = skip_until_close {
                if is_close && name == skip {
                    skip_until_close = None;
                }
                continue;
            }
            if is_close {
                tokens.push(HtmlToken::Close { name });
            } else {
                skip_until_close = SKIP_CONTENT.iter().copied().find(|&s| name == s);
                let attrs = name_part[name_end..].trim().trim_end_matches('/');
                tokens.push(HtmlToken::Open { name, attrs });
            }
        } else {
            let text_len = rest.find('<').unwrap_or(rest.len());
            if skip_until_close.is_none() {
                let text = decode_entities(&rest[..text_len]);
                if !text.trim().is_empty() {
                    tokens.push(HtmlToken::Text(text));
                }
            }
            i += text_len;
        }
    }
    tokens
}

/// The entities [`decode_entities`] knows, with what each stands for.
const ENTITIES: [(&str, char); 6] = [
    ("&nbsp;", ' '),
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&#39;", '\''),
];

/// Decodes the handful of common entities in one left-to-right scan, so a
/// decoded `&` never starts another entity (`&amp;lt;` is `&lt;`). Borrows
/// `s` when it holds no `&`.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    let Some(first) = s.find('&') else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    // `rest` starts at an '&'
    let mut rest = &s[first..];
    loop {
        match ENTITIES.iter().find(|(entity, _)| rest.starts_with(entity)) {
            Some(&(entity, c)) => {
                out.push(c);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
        match rest.find('&') {
            Some(at) => {
                out.push_str(&rest[..at]);
                rest = &rest[at..];
            }
            None => {
                out.push_str(rest);
                return Cow::Owned(out);
            }
        }
    }
}

/// Extracts all link targets (`href` values) from a page, resolved against
/// `base`. Tolerates unquoted attributes. Unresolvable links are skipped.
pub fn extract_links(html: &str, base: &Url) -> Vec<Url> {
    links_in(&tokenize_html(html), base)
}

/// The link walk of [`extract_links`] over an already tokenized page.
pub(crate) fn links_in(tokens: &[HtmlToken<'_>], base: &Url) -> Vec<Url> {
    tokens
        .iter()
        .filter_map(|token| match token {
            HtmlToken::Open { name, attrs } if name == "a" => attr_str(attrs, "href"),
            _ => None,
        })
        .filter(|href| {
            !(href.starts_with('#') || href.starts_with("javascript:") || href.is_empty())
        })
        .filter_map(|href| base.join(href).ok())
        .collect()
}

/// Pulls an attribute value out of a raw attribute string, handling quoted
/// and unquoted forms. The key matches ASCII-case-insensitively, in
/// `attrs`' own bytes: lower-casing the whole string would move offsets
/// wherever a char's lower case has another UTF-8 length (`İ`, 2 → 3).
pub fn attr_value(attrs: &str, key: &str) -> Option<String> {
    attr_str(attrs, key).map(str::to_string)
}

/// [`attr_value`], borrowed from `attrs`.
fn attr_str<'a>(attrs: &'a str, key: &str) -> Option<&'a str> {
    // the first `key=`, matched in place at each '=': ordering matches by
    // their '=' orders them by their start, the key's length being fixed
    let (haystack, key) = (attrs.as_bytes(), key.as_bytes());
    let eq = attrs.match_indices('=').map(|(at, _)| at).find(|&at| {
        at >= key.len() && haystack[at - key.len()..at].eq_ignore_ascii_case(key)
    })?;
    // `key` is UTF-8 and folding touches ASCII bytes only, so the match
    // starts on a char boundary; the value starts after an ASCII '='.
    let rest = &attrs[eq + 1..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|e| &stripped[..e])
    } else if let Some(stripped) = rest.strip_prefix('\'') {
        stripped.find('\'').map(|e| &stripped[..e])
    } else {
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '>')
            .unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// Error from markup repair: the page is too mangled to transcode — the
/// 13 % class of the paper's cited measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Untranscodable {
    pub reason: String,
}

impl std::fmt::Display for Untranscodable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "untranscodable markup: {}", self.reason)
    }
}

impl std::error::Error for Untranscodable {}

/// Repairs markup into a balanced token stream: closes unclosed elements,
/// drops stray close tags. Fails if the structural damage ratio exceeds
/// `max_damage` (fraction of tags needing intervention).
pub fn repair_markup(html: &str, max_damage: f64) -> Result<Vec<HtmlToken<'_>>, Untranscodable> {
    repair_tokens(tokenize_html(html), max_damage)
}

/// [`repair_markup`] over an already tokenized page.
pub(crate) fn repair_tokens(
    tokens: Vec<HtmlToken<'_>>,
    max_damage: f64,
) -> Result<Vec<HtmlToken<'_>>, Untranscodable> {
    let mut stack: Vec<Cow<'_, str>> = Vec::new();
    let mut repaired: Vec<HtmlToken<'_>> = Vec::with_capacity(tokens.len());
    let mut tag_count = 0usize;
    let mut damage = 0usize;

    for token in tokens {
        match token {
            HtmlToken::Open { name, attrs } => {
                tag_count += 1;
                if !VOID_TAGS.contains(&&*name) {
                    stack.push(name.clone());
                }
                repaired.push(HtmlToken::Open { name, attrs });
            }
            HtmlToken::Close { name } => {
                tag_count += 1;
                match stack.iter().rposition(|t| *t == name) {
                    Some(pos) => {
                        // close interleaved elements opened after it,
                        // innermost first (no unwrap on attacker input)
                        for unclosed in stack.drain(pos + 1..).rev() {
                            damage += 1;
                            repaired.push(HtmlToken::Close { name: unclosed });
                        }
                        stack.pop();
                        repaired.push(HtmlToken::Close { name });
                    }
                    None => {
                        damage += 1; // stray close tag: drop
                    }
                }
            }
            text => repaired.push(text),
        }
    }
    // close whatever is still open
    while let Some(unclosed) = stack.pop() {
        damage += 1;
        repaired.push(HtmlToken::Close { name: unclosed });
    }
    if tag_count > 0 && damage as f64 / tag_count as f64 > max_damage {
        return Err(Untranscodable {
            reason: format!("{damage} structural repairs over {tag_count} tags"),
        });
    }
    Ok(repaired)
}

/// Removes all markup, returning the concatenated text (no boilerplate
/// removal — that is the detector's job).
pub fn strip_markup(html: &str) -> String {
    let mut out = String::new();
    for token in tokenize_html(html) {
        if let HtmlToken::Text(t) = token {
            if !out.is_empty() && !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str(t.trim());
        }
    }
    out
}

/// The owned tokenizer the borrowed one replaced (a `String` per tag name,
/// attribute string and text run), with markup repair and the link walk
/// over its tokens: the oracle of the differential tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{attr_value, decode_entities, HtmlToken, Untranscodable, SKIP_CONTENT, VOID_TAGS};
    use websift_web::Url;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum OwnedToken {
        Open { name: String, attrs: String },
        Close { name: String },
        Text(String),
    }

    impl From<&HtmlToken<'_>> for OwnedToken {
        fn from(token: &HtmlToken<'_>) -> OwnedToken {
            match token {
                HtmlToken::Open { name, attrs } => OwnedToken::Open {
                    name: name.to_string(),
                    attrs: attrs.to_string(),
                },
                HtmlToken::Close { name } => OwnedToken::Close { name: name.to_string() },
                HtmlToken::Text(t) => OwnedToken::Text(t.to_string()),
            }
        }
    }

    /// A borrowed stream as owned tokens, for comparing with this oracle's.
    pub fn owned(tokens: &[HtmlToken<'_>]) -> Vec<OwnedToken> {
        tokens.iter().map(OwnedToken::from).collect()
    }

    pub fn tokenize_html(html: &str) -> Vec<OwnedToken> {
        let mut tokens = Vec::new();
        let bytes = html.as_bytes();
        let mut i = 0usize;
        let n = bytes.len();
        let mut skip_until_close: Option<String> = None;

        while i < n {
            if bytes[i] == b'<' {
                if html[i..].starts_with("<!--") {
                    match html[i..].find("-->") {
                        Some(end) => {
                            i += end + 3;
                            continue;
                        }
                        None => break,
                    }
                }
                let close = match html[i..].find('>') {
                    Some(c) => i + c,
                    None => break,
                };
                let inner = &html[i + 1..close];
                let is_close = inner.starts_with('/');
                let name_part = inner.trim_start_matches('/');
                let name_end = name_part
                    .find(|c: char| c.is_whitespace() || c == '/')
                    .unwrap_or(name_part.len());
                let name = name_part[..name_end].to_lowercase();
                let attrs = name_part[name_end..].trim().trim_end_matches('/').to_string();
                i = close + 1;

                if name.is_empty() || name.starts_with('!') {
                    continue;
                }
                if let Some(skip) = &skip_until_close {
                    if is_close && &name == skip {
                        skip_until_close = None;
                    }
                    continue;
                }
                if is_close {
                    tokens.push(OwnedToken::Close { name });
                } else {
                    if SKIP_CONTENT.contains(&name.as_str()) {
                        skip_until_close = Some(name.clone());
                    }
                    tokens.push(OwnedToken::Open { name, attrs });
                }
            } else {
                let next_tag = html[i..].find('<').map(|p| i + p).unwrap_or(n);
                if skip_until_close.is_none() {
                    let text = decode_entities(&html[i..next_tag]).into_owned();
                    if !text.trim().is_empty() {
                        tokens.push(OwnedToken::Text(text));
                    }
                }
                i = next_tag;
            }
        }
        tokens
    }

    pub fn extract_links(html: &str, base: &Url) -> Vec<Url> {
        let mut out = Vec::new();
        for token in tokenize_html(html) {
            if let OwnedToken::Open { name, attrs } = token {
                if name != "a" {
                    continue;
                }
                if let Some(href) = attr_value(&attrs, "href") {
                    if href.starts_with('#') || href.starts_with("javascript:") || href.is_empty() {
                        continue;
                    }
                    if let Ok(url) = base.join(&href) {
                        out.push(url);
                    }
                }
            }
        }
        out
    }

    pub fn repair_markup(html: &str, max_damage: f64) -> Result<Vec<OwnedToken>, Untranscodable> {
        let mut stack: Vec<String> = Vec::new();
        let mut repaired: Vec<OwnedToken> = Vec::new();
        let mut tag_count = 0usize;
        let mut damage = 0usize;

        for token in tokenize_html(html) {
            match token {
                OwnedToken::Open { name, attrs } => {
                    tag_count += 1;
                    if !VOID_TAGS.contains(&name.as_str()) {
                        stack.push(name.clone());
                    }
                    repaired.push(OwnedToken::Open { name, attrs });
                }
                OwnedToken::Close { name } => {
                    tag_count += 1;
                    match stack.iter().rposition(|t| *t == name) {
                        Some(pos) => {
                            for unclosed in stack.drain(pos + 1..).rev() {
                                damage += 1;
                                repaired.push(OwnedToken::Close { name: unclosed });
                            }
                            stack.pop();
                            repaired.push(OwnedToken::Close { name });
                        }
                        None => damage += 1,
                    }
                }
                text => repaired.push(text),
            }
        }
        while let Some(unclosed) = stack.pop() {
            damage += 1;
            repaired.push(OwnedToken::Close { name: unclosed });
        }
        if tag_count > 0 && damage as f64 / tag_count as f64 > max_damage {
            return Err(Untranscodable {
                reason: format!("{damage} structural repairs over {tag_count} tags"),
            });
        }
        Ok(repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_html() {
        let toks = tokenize_html("<p>Hello <b>world</b></p>");
        assert_eq!(toks.len(), 6);
        assert!(matches!(&toks[0], HtmlToken::Open { name, .. } if name == "p"));
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "Hello "));
    }

    #[test]
    fn skips_script_and_style_content() {
        let html = "<script>var x = '<p>not text</p>';</script><p>real</p><style>.a{}</style>";
        let text = strip_markup(html);
        assert_eq!(text.trim(), "real");
    }

    #[test]
    fn skips_comments() {
        let text = strip_markup("<p>a</p><!-- hidden <p>x</p> --><p>b</p>");
        assert_eq!(text, "a\nb");
    }

    #[test]
    fn decodes_entities() {
        let text = strip_markup("<p>a &amp; b &lt;c&gt;&nbsp;d</p>");
        assert_eq!(text, "a & b <c> d");
    }

    #[test]
    fn decodes_entities_in_one_scan() {
        for (raw, decoded) in [
            ("&amp;lt;", "&lt;"),
            ("&amp;gt;", "&gt;"),
            ("&amp;quot;", "&quot;"),
            ("&amp;#39;", "&#39;"),
            ("&amp;amp;", "&amp;"),
            ("&amp;nbsp;", "&nbsp;"),
            ("&foo; &lt;", "&foo; <"),
            ("a & b", "a & b"),
            ("&", "&"),
            ("x&", "x&"),
            ("&&lt;&", "&<&"),
            ("&lt&gt;", "&lt>"),
            ("\u{130}&quot;\u{130}&#39;", "\u{130}\"\u{130}'"),
        ] {
            assert_eq!(decode_entities(raw), decoded, "{raw:?}");
        }
        assert!(matches!(decode_entities("no entity"), Cow::Borrowed("no entity")));
    }

    #[test]
    fn names_and_text_borrow_unless_changed() {
        let toks = tokenize_html("<p class=x>plain</p><DIV>a &amp; b</Div><\u{130}mg>");
        let borrowed: Vec<bool> = toks
            .iter()
            .map(|t| match t {
                HtmlToken::Open { name, .. } | HtmlToken::Close { name } | HtmlToken::Text(name) => {
                    matches!(name, Cow::Borrowed(_))
                }
            })
            .collect();
        assert_eq!(borrowed, [true, true, true, false, false, false, false]);
        let open = |name: String, attrs| HtmlToken::Open { name: name.into(), attrs };
        assert_eq!(toks[0], open("p".into(), "class=x"));
        assert_eq!(toks[3], open("div".into(), ""));
        assert_eq!(toks[4], HtmlToken::Text("a & b".into()));
        assert_eq!(toks[5], HtmlToken::Close { name: "div".into() });
        assert_eq!(toks[6], open("\u{130}mg".to_lowercase(), ""));
    }

    #[test]
    fn extracts_quoted_and_unquoted_links() {
        let base = Url::parse("http://x.example/dir/page.html").unwrap();
        let html = r#"<a href="http://y.example/a">1</a> <a href=/b>2</a> <a href='c.html'>3</a>"#;
        let links = extract_links(html, &base);
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].to_string(), "http://y.example/a");
        assert_eq!(links[1].to_string(), "http://x.example/b");
        assert_eq!(links[2].to_string(), "http://x.example/dir/c.html");
    }

    #[test]
    fn ignores_fragments_and_javascript() {
        let base = Url::parse("http://x.example/").unwrap();
        let html = r##"<a href="#top">t</a><a href="javascript:void(0)">j</a>"##;
        assert!(extract_links(html, &base).is_empty());
    }

    #[test]
    fn truncated_tag_at_eof_is_tolerated() {
        let toks = tokenize_html("<p>ok</p><di");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "ok"));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn repair_closes_unclosed_elements() {
        let repaired = repair_markup("<div><p>text", 1.0).unwrap();
        let closes: Vec<&str> = repaired
            .iter()
            .filter_map(|t| match t {
                HtmlToken::Close { name } => Some(&**name),
                _ => None,
            })
            .collect();
        assert_eq!(closes, vec!["p", "div"]);
    }

    #[test]
    fn repair_drops_stray_closes_and_fixes_interleaving() {
        let repaired = repair_markup("<b><i>x</b></i>", 1.0).unwrap();
        // must be balanced afterwards
        let mut depth = 0i32;
        for t in &repaired {
            match t {
                HtmlToken::Open { .. } => depth += 1,
                HtmlToken::Close { .. } => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn repair_rejects_hopeless_markup() {
        // nothing but stray close tags
        let html = "</p></div></b></i></span></p></div>";
        assert!(repair_markup(html, 0.5).is_err());
    }

    #[test]
    fn void_tags_do_not_unbalance() {
        let repaired = repair_markup("<p>a<br>b<img src=x>c</p>", 0.1).unwrap();
        assert!(repaired.len() >= 5);
    }

    #[test]
    fn attr_value_edge_cases() {
        assert_eq!(attr_value(r#"href="x" id=y"#, "id"), Some("y".to_string()));
        assert_eq!(attr_value("", "href"), None);
        assert_eq!(attr_value("href=", "href"), Some(String::new()));
        assert_eq!(attr_value("HREF='Q'", "href"), Some("Q".to_string()));
    }

    #[test]
    fn attr_value_offsets_survive_lowercase_length_changes() {
        // 'İ' lower-cases to 3 bytes from 2: offsets into a lower-cased
        // copy used to slice past the value, or inside a char
        assert_eq!(attr_value("\u{130} href=\u{e9}\u{e9}", "href"), Some("\u{e9}\u{e9}".to_string()));
        assert_eq!(attr_value("\u{130}\u{130} href=abc", "href"), Some("abc".to_string()));
        let base = Url::parse("http://example.org/a/").unwrap();
        let links = extract_links("<a title=\u{130} href=\u{e9}\u{e9}>x</a>", &base);
        assert_eq!(links, vec![base.join("\u{e9}\u{e9}").unwrap()]);
    }

    #[test]
    fn attr_value_sweeps_non_ascii_before_the_key() {
        // lower case longer (İ, Ⱥ), shorter (ẞ, Kelvin sign, Ω ohm), equal
        // (é, 中) or absent (emoji), at every position before the key
        let before = "title=x data-y='z' ";
        for c in ['\u{130}', '\u{23a}', '\u{1e9e}', '\u{212a}', '\u{2126}', '\u{e9}', '中', '🦀'] {
            for at in before.char_indices().map(|(i, _)| i).chain([before.len()]) {
                for (value, expected) in [("\"v 1\"", "v 1"), ("'v'", "v"), ("v>", "v")] {
                    let attrs = format!("{}{c}{c}{}href={value} id=w", &before[..at], &before[at..]);
                    assert_eq!(attr_value(&attrs, "href").as_deref(), Some(expected), "{attrs:?}");
                    assert_eq!(attr_value(&attrs, "id").as_deref(), Some("w"), "{attrs:?}");
                    assert_eq!(attr_value(&attrs, "rel"), None, "{attrs:?}");
                }
            }
        }
    }
}
