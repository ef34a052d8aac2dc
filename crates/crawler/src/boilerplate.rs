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

use crate::parser::{repair_markup, HtmlToken, Untranscodable, BLOCK_TAGS};

/// One segmented block with its shallow features.
#[derive(Debug, Clone)]
pub struct Block {
    pub text: String,
    pub words: usize,
    pub link_words: usize,
    pub tag: String,
}

impl Block {
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
        let tokens = repair_markup(html, self.config.max_markup_damage)?;
        let mut blocks: Vec<Block> = Vec::new();
        let mut current = Block {
            text: String::new(),
            words: 0,
            link_words: 0,
            tag: "body".to_string(),
        };
        let mut anchor_depth = 0usize;
        let mut tag_stack: Vec<String> = vec!["body".to_string()];

        let flush = |blocks: &mut Vec<Block>, current: &mut Block, next_tag: &str| {
            if !current.text.trim().is_empty() {
                blocks.push(std::mem::replace(
                    current,
                    Block {
                        text: String::new(),
                        words: 0,
                        link_words: 0,
                        tag: next_tag.to_string(),
                    },
                ));
            } else {
                current.tag = next_tag.to_string();
            }
        };

        for token in tokens {
            match token {
                HtmlToken::Open { name, .. } => {
                    if name == "a" {
                        anchor_depth += 1;
                    }
                    if BLOCK_TAGS.contains(&name.as_str()) {
                        flush(&mut blocks, &mut current, &name);
                        tag_stack.push(name);
                    }
                }
                HtmlToken::Close { name } => {
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
                HtmlToken::Text(t) => {
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
        let blocks = self.segment(html)?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
