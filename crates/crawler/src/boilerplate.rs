//! Boilerplate detection using shallow text features (Boilerpipe-style).
//!
//! The paper uses Kohlschütter et al.'s approach: segment a page into
//! blocks and classify each block as content or boilerplate from *shallow
//! text features* — principally word count, link density, and text
//! density. Two empirical properties of that tool matter for the
//! reproduction and are reproduced here:
//!
//! - measured quality around "precision of 90% at a recall of 82%" on a
//!   gold set and "98% at a recall of 72%" on crawled pages, with "tables
//!   and lists, which often contain valuable facts, ... not recognized
//!   properly in many cases" (short, link-adjacent blocks fall below the
//!   word-count threshold);
//! - fragility on broken markup ("highly sensitive to markup errors, often
//!   resulting in crashes or empty results") — pages whose repair damage
//!   exceeds the tolerance are rejected as [`Untranscodable`].

use crate::parser::{links_in, repair_tokens, tokenize_html, HtmlToken, Untranscodable, BLOCK_TAGS};
use websift_web::Url;

/// One segmented block with its shallow features.
#[derive(Debug, Clone)]
pub struct Block {
    pub text: String,
    pub words: usize,
    pub link_words: usize,
    /// The block-level tag the block sits in ([`BLOCK_TAGS`]).
    pub tag: &'static str,
}

impl Block {
    fn empty(tag: &'static str) -> Block {
        Block {
            text: String::new(),
            words: 0,
            link_words: 0,
            tag,
        }
    }

    /// Fraction of words that sit inside anchor elements.
    pub fn link_density(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.link_words as f64 / self.words as f64
        }
    }
}

/// Detector thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BoilerplateConfig {
    /// Minimum words for a block to qualify as content on its own.
    pub min_words: usize,
    /// Maximum link density of a content block.
    pub max_link_density: f64,
    /// Markup damage tolerance passed to the repair stage.
    pub max_markup_damage: f64,
}

impl Default for BoilerplateConfig {
    fn default() -> BoilerplateConfig {
        BoilerplateConfig {
            min_words: 10,
            max_link_density: 0.33,
            max_markup_damage: 0.45,
        }
    }
}

/// The boilerplate detector.
#[derive(Debug, Clone, Default)]
pub struct BoilerplateDetector {
    config: BoilerplateConfig,
}

impl BoilerplateDetector {
    pub fn new(config: BoilerplateConfig) -> BoilerplateDetector {
        BoilerplateDetector { config }
    }

    /// Segments repaired markup into blocks with features.
    pub fn segment(&self, html: &str) -> Result<Vec<Block>, Untranscodable> {
        self.segment_tokens(tokenize_html(html))
    }

    /// [`BoilerplateDetector::segment`] over an already tokenized page.
    fn segment_tokens(&self, tokens: Vec<HtmlToken<'_>>) -> Result<Vec<Block>, Untranscodable> {
        let tokens = repair_tokens(tokens, self.config.max_markup_damage)?;
        let mut blocks: Vec<Block> = Vec::new();
        let mut current = Block::empty("body");
        let mut anchor_depth = 0usize;
        let mut tag_stack: Vec<&'static str> = vec!["body"];

        let flush = |blocks: &mut Vec<Block>, current: &mut Block, next_tag: &'static str| {
            if !current.text.trim().is_empty() {
                blocks.push(std::mem::replace(current, Block::empty(next_tag)));
            } else {
                current.tag = next_tag;
            }
        };
        let block_tag = |name: &str| BLOCK_TAGS.iter().copied().find(|&tag| tag == name);

        for token in &tokens {
            match token {
                HtmlToken::Open { name, .. } => {
                    if name == "a" {
                        anchor_depth += 1;
                    }
                    if let Some(tag) = block_tag(name) {
                        flush(&mut blocks, &mut current, tag);
                        tag_stack.push(tag);
                    }
                }
                HtmlToken::Close { name } => {
                    if name == "a" {
                        anchor_depth = anchor_depth.saturating_sub(1);
                    }
                    if block_tag(name).is_some() {
                        if tag_stack.len() > 1 {
                            tag_stack.pop();
                        }
                        let parent = tag_stack.last().copied().unwrap_or("body");
                        flush(&mut blocks, &mut current, parent);
                    }
                }
                HtmlToken::Text(t) => {
                    let words = count_words(t);
                    current.words += words;
                    if anchor_depth > 0 {
                        current.link_words += words;
                    }
                    if !current.text.is_empty() {
                        current.text.push(' ');
                    }
                    current.text.push_str(t.trim());
                }
            }
        }
        if !current.text.trim().is_empty() {
            blocks.push(current);
        }
        Ok(blocks)
    }

    /// Classifies one block as content (true) or boilerplate (false).
    pub fn is_content(&self, block: &Block, prev_content: bool) -> bool {
        if block.link_density() > self.config.max_link_density {
            return false;
        }
        if block.words >= self.config.min_words {
            return true;
        }
        // Short low-link paragraph blocks directly following content are
        // kept (continuation heuristic from the original algorithm); it
        // only applies to running-text tags, not to divs/cells, so footer
        // chrome after the content area stays boilerplate.
        prev_content && block.tag == "p" && block.words >= self.config.min_words / 2
    }

    /// Extracts the net text of a page.
    ///
    /// Errors on untranscodable markup; may legitimately return an empty
    /// string on link-only pages (both failure modes the paper observed).
    pub fn extract(&self, html: &str) -> Result<String, Untranscodable> {
        self.extract_tokens(tokenize_html(html))
    }

    /// A page's links, resolved against `base`, and its net text, from one
    /// tokenization: what [`crate::parser::extract_links`] and
    /// [`BoilerplateDetector::extract`] return when called separately.
    pub fn parse_page(
        &self,
        html: &str,
        base: &Url,
    ) -> (Vec<Url>, Result<String, Untranscodable>) {
        let tokens = tokenize_html(html);
        let links = links_in(&tokens, base);
        (links, self.extract_tokens(tokens))
    }

    /// [`BoilerplateDetector::extract`] over an already tokenized page.
    fn extract_tokens(&self, tokens: Vec<HtmlToken<'_>>) -> Result<String, Untranscodable> {
        let blocks = self.segment_tokens(tokens)?;
        let mut out = String::new();
        let mut prev_content = false;
        for block in &blocks {
            let content = self.is_content(block, prev_content);
            if content {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&block.text);
            }
            prev_content = content;
        }
        Ok(out)
    }
}

/// `text.split_whitespace().count()`, a byte at a time when `text` is
/// ASCII (nearly every text run of a page), where `char::is_whitespace` is
/// `' '` and `'\t'..='\r'`.
fn count_words(text: &str) -> usize {
    if !text.is_ascii() {
        return text.split_whitespace().count();
    }
    let mut words = 0;
    let mut in_word = false;
    for &b in text.as_bytes() {
        let space = matches!(b, b' ' | b'\t'..=b'\r');
        words += usize::from(!space && !in_word);
        in_word = !space;
    }
    words
}

/// Word-level precision/recall of detected net text against gold net text,
/// the measure the paper's boilerplate figures use ("based on the amount of
/// net text being correctly identified").
pub fn evaluate_extraction(detected: &str, gold: &str) -> (f64, f64) {
    use std::collections::HashMap;
    let bag = |s: &str| {
        let mut m: HashMap<String, u64> = HashMap::new();
        for w in s.split_whitespace() {
            *m.entry(w.to_lowercase()).or_insert(0) += 1;
        }
        m
    };
    let d = bag(detected);
    let g = bag(gold);
    let dn: u64 = d.values().sum();
    let gn: u64 = g.values().sum();
    let mut overlap = 0u64;
    for (w, &c) in &d {
        overlap += c.min(*g.get(w).unwrap_or(&0));
    }
    let precision = if dn == 0 { 0.0 } else { overlap as f64 / dn as f64 };
    let recall = if gn == 0 { 0.0 } else { overlap as f64 / gn as f64 };
    (precision, recall)
}

/// The segmenter and the net-text assembly over the owned reference
/// tokens of [`crate::parser::reference`]: the oracle of the differential
/// tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Block, BoilerplateDetector, BLOCK_TAGS};
    use crate::parser::reference::{repair_markup, OwnedToken};
    use crate::parser::Untranscodable;

    fn block(tag: &str) -> Block {
        let tag = BLOCK_TAGS.iter().copied().find(|&t| t == tag).expect("a block tag");
        Block::empty(tag)
    }

    pub fn segment(det: &BoilerplateDetector, html: &str) -> Result<Vec<Block>, Untranscodable> {
        let tokens = repair_markup(html, det.config.max_markup_damage)?;
        let mut blocks: Vec<Block> = Vec::new();
        let mut current = block("body");
        let mut anchor_depth = 0usize;
        let mut tag_stack: Vec<String> = vec!["body".to_string()];

        let flush = |blocks: &mut Vec<Block>, current: &mut Block, next_tag: &str| {
            if !current.text.trim().is_empty() {
                blocks.push(std::mem::replace(current, block(next_tag)));
            } else {
                current.tag = block(next_tag).tag;
            }
        };

        for token in tokens {
            match token {
                OwnedToken::Open { name, .. } => {
                    if name == "a" {
                        anchor_depth += 1;
                    }
                    if BLOCK_TAGS.contains(&name.as_str()) {
                        flush(&mut blocks, &mut current, &name);
                        tag_stack.push(name);
                    }
                }
                OwnedToken::Close { name } => {
                    if name == "a" {
                        anchor_depth = anchor_depth.saturating_sub(1);
                    }
                    if BLOCK_TAGS.contains(&name.as_str()) {
                        let parent = if tag_stack.len() > 1 {
                            tag_stack.pop();
                            tag_stack.last().cloned().unwrap_or_else(|| "body".into())
                        } else {
                            "body".to_string()
                        };
                        flush(&mut blocks, &mut current, &parent);
                    }
                }
                OwnedToken::Text(t) => {
                    let words = t.split_whitespace().count();
                    current.words += words;
                    if anchor_depth > 0 {
                        current.link_words += words;
                    }
                    if !current.text.is_empty() {
                        current.text.push(' ');
                    }
                    current.text.push_str(t.trim());
                }
            }
        }
        if !current.text.trim().is_empty() {
            blocks.push(current);
        }
        Ok(blocks)
    }

    pub fn extract(det: &BoilerplateDetector, html: &str) -> Result<String, Untranscodable> {
        let mut out = String::new();
        let mut prev_content = false;
        for block in &segment(det, html)? {
            let content = det.is_content(block, prev_content);
            if content {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&block.text);
            }
            prev_content = content;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::extract_links;

    const PAGE: &str = r#"<html><body>
<div class="nav"><ul>
<li><a href="/a">Home</a></li><li><a href="/b">About</a></li>
<li><a href="/c">Contact</a></li><li><a href="/d">Products</a></li>
</ul></div>
<div id="content">
<p>The clinical study shows that the new drug reduces chronic pain in most
patients over a period of twelve weeks of treatment.</p>
<p>Researchers measured significant improvements in the treated group
compared with the placebo group across all endpoints.</p>
</div>
<div class="footer">Copyright 2013 All rights reserved</div>
</body></html>"#;

    #[test]
    fn extracts_content_drops_nav_and_footer() {
        let det = BoilerplateDetector::default();
        let text = det.extract(PAGE).unwrap();
        assert!(text.contains("clinical study"));
        assert!(text.contains("placebo group"));
        assert!(!text.contains("Home"));
        assert!(!text.contains("Copyright"));
    }

    #[test]
    fn link_dense_blocks_are_boilerplate() {
        let det = BoilerplateDetector::default();
        let blocks = det.segment(PAGE).unwrap();
        let nav = blocks.iter().find(|b| b.text.contains("Home")).unwrap();
        assert!(nav.link_density() > 0.9);
        assert!(!det.is_content(nav, false));
    }

    #[test]
    fn tables_and_lists_are_missed() {
        // The documented recall loss: short list items with facts.
        let html = "<body><p>Intro paragraph with enough words to count as \
                    real page content for the detector here.</p>\
                    <ul><li>aspirin 100 mg</li><li>ibuprofen 200 mg</li></ul></body>";
        let det = BoilerplateDetector::default();
        let text = det.extract(html).unwrap();
        assert!(text.contains("Intro paragraph"));
        assert!(!text.contains("ibuprofen"), "list items fall below the word threshold");
    }

    #[test]
    fn untranscodable_markup_errors() {
        let det = BoilerplateDetector::default();
        let err = det.extract("</p></div></b></i></p></div></span>").unwrap_err();
        assert!(err.reason.contains("repairs"));
    }

    #[test]
    fn link_only_page_yields_empty_net_text() {
        let html = r#"<body><ul><li><a href="/1">one</a></li><li><a href="/2">two</a></li></ul></body>"#;
        let det = BoilerplateDetector::default();
        assert_eq!(det.extract(html).unwrap(), "");
    }

    #[test]
    fn count_words_is_split_whitespace_count() {
        for text in [
            "", " ", "a", " a ", "two  words", "\t\n\x0B\x0C\r x \x0B y\x1Fz",
            "a\u{A0}b", "a\u{85}b", "a\u{3000}b \u{2028}", "\u{130} \u{1F980}x",
        ] {
            assert_eq!(count_words(text), text.split_whitespace().count(), "{text:?}");
        }
        for b in 0..=127u8 {
            let text = format!("a{}b", b as char);
            assert_eq!(count_words(&text), text.split_whitespace().count(), "{b:#x}");
        }
    }

    #[test]
    fn evaluation_metrics() {
        let (p, r) = evaluate_extraction("a b c", "a b c d");
        assert!((p - 1.0).abs() < 1e-12);
        assert!((r - 0.75).abs() < 1e-12);
        let (p, r) = evaluate_extraction("", "gold text");
        assert_eq!((p, r), (0.0, 0.0));
        let (p, _r) = evaluate_extraction("x y", "");
        assert_eq!(p, 0.0);
    }

    #[test]
    fn quality_on_generated_pages() {
        // End-to-end check against the corpus generator's gold net text:
        // precision should be high, recall decent (boilerplate leaks little,
        // some content lost).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = websift_corpus::HtmlConfig {
            p_defective: 0.6,
            p_severe: 0.0, // severe pages error out; measured separately
            boilerplate_blocks: 6,
        };
        let det = BoilerplateDetector::default();
        let mut ps = Vec::new();
        let mut rs = Vec::new();
        for i in 0..40 {
            let paras: Vec<String> = (0..6)
                .map(|k| {
                    format!(
                        "Sentence number {k} of page {i} talks about treatment outcomes \
                         and measured responses in the patient group over several weeks."
                    )
                })
                .collect();
            let page = websift_corpus::wrap_page("T", &paras, &[], &cfg, &mut rng);
            let detected = det.extract(&page.html).unwrap();
            let (p, r) = evaluate_extraction(&detected, &page.net_text);
            ps.push(p);
            rs.push(r);
        }
        // The generator deliberately plants text-dense teaser boilerplate
        // (precision loss) and list-formatted content (recall loss), so
        // these bounds are looser than a clean-page detector would give —
        // matching the paper's 0.90/0.82 regime rather than perfection.
        let mp = ps.iter().sum::<f64>() / ps.len() as f64;
        let mr = rs.iter().sum::<f64>() / rs.len() as f64;
        assert!(mp > 0.7, "mean precision {mp}");
        assert!(mr > 0.6, "mean recall {mr}");
        assert!(mp < 1.0 && mr < 1.0, "quality should not be perfect");
    }

    /// Every borrowed and derived output of one page against the owned
    /// reference: the token stream, the repaired stream or the
    /// `Untranscodable` reason, the blocks, the links, the net text, and
    /// the crawler's one-pass [`BoilerplateDetector::parse_page`] against
    /// [`extract_links`] and [`BoilerplateDetector::extract`] called apart.
    fn assert_parses_like_the_reference(det: &BoilerplateDetector, base: &Url, html: &str) {
        use crate::parser::reference as owned_parser;
        use crate::parser::{extract_links, repair_markup};

        let tokens = tokenize_html(html);
        assert_eq!(owned_parser::owned(&tokens), owned_parser::tokenize_html(html), "{html:?}");
        let damage = det.config.max_markup_damage;
        assert_eq!(
            repair_markup(html, damage).map(|t| owned_parser::owned(&t)),
            owned_parser::repair_markup(html, damage),
            "{html:?}"
        );
        let fields = |blocks: Vec<Block>| -> Vec<(String, usize, usize, &'static str)> {
            blocks.into_iter().map(|b| (b.text, b.words, b.link_words, b.tag)).collect()
        };
        assert_eq!(
            det.segment(html).map(fields),
            reference::segment(det, html).map(fields),
            "{html:?}"
        );
        let links = extract_links(html, base);
        assert_eq!(links, owned_parser::extract_links(html, base), "{html:?}");
        let net_text = det.extract(html);
        assert_eq!(net_text, reference::extract(det, html), "{html:?}");
        assert_eq!(det.parse_page(html, base), (links, net_text), "{html:?}");
    }

    /// The one-pass parse against the owned reference on every page of two
    /// generated webs (default `HtmlConfig` defect rates), on the same
    /// pages' content re-wrapped with every page severely broken
    /// (`p_defective = p_severe = 1.0`), and on hand-made hostile markup.
    #[test]
    fn differential_one_pass_parse_equals_the_reference_on_generated_webs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use websift_corpus::{wrap_page, HtmlConfig};
        use websift_web::{PageId, SimulatedWeb, WebGraph, WebGraphConfig};

        let det = BoilerplateDetector::default();
        let severe = HtmlConfig {
            p_defective: 1.0,
            p_severe: 1.0,
            ..HtmlConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(49);
        let (mut pages, mut untranscodable) = (0usize, 0usize);
        for seed in [7, 8] {
            let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig {
                seed,
                ..WebGraphConfig::tiny()
            }));
            for p in 0..web.graph().num_pages() as u32 {
                let url = web.graph().url_of(PageId(p));
                let Ok(resp) = web.fetch(&url) else { continue };
                let html = String::from_utf8_lossy(&resp.body);
                let mut variants = vec![html.to_string()];
                if let Some(doc) = web.gold_document(&url) {
                    let links: Vec<String> =
                        extract_links(&html, &url).iter().map(Url::to_string).collect();
                    let paragraphs: Vec<String> =
                        doc.body.split("\n\n").map(str::to_string).collect();
                    variants.push(wrap_page(&doc.title, &paragraphs, &links, &severe, &mut rng).html);
                }
                for html in &variants {
                    assert_parses_like_the_reference(&det, &url, html);
                    pages += 1;
                    untranscodable += usize::from(det.extract(html).is_err());
                }
            }
        }
        assert!(pages > 500, "{pages} pages");
        assert!(untranscodable > 20 && untranscodable < pages / 2, "{untranscodable} of {pages}");

        let base = Url::parse("http://x.example/dir/").unwrap();
        for html in [
            "",
            "<",
            "</",
            "<!--",
            "<p>a<!-- b",
            "<P>Up &amp;lt; <A HREF=Q>x</a></p>",
            "<\u{130}>\u{130}<a href=\u{130}>\u{1F980}</\u{130}>",
            "<script>x</SCRIPT><p>after &amp;amp; &foo; & lone</p>",
            "<style><p>never</style>&nbsp;<td>cell</TD></tr>",
            "</p></div><b><i>x</b></i><a href='#top'>t</a><a href=\"javascript:f()\">j</a>",
            "<div/><br/><a href= >e</a><a href=\"unterminated>u</a><a href=>v</a>",
            "<p>unclosed<li>item<h1>head",
            "text only, no markup",
            "<!doctype html><html><body><p>x</p></body></html>",
        ] {
            assert_parses_like_the_reference(&det, &base, html);
        }
    }
}
