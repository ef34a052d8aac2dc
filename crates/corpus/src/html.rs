//! HTML synthesis with boilerplate and realistic markup defects.
//!
//! The paper stresses that real web pages are hostile input: "95% of HTML
//! documents on the web do not adhere to W3C HTML standards. 13% of the
//! analyzed websites had so severe issues that they could not be
//! transcoded" (citing Ofuonye et al.), and the boilerplate detectors are
//! "highly sensitive to markup errors, often resulting in crashes or empty
//! results". The generator below wraps net text in page chrome (navigation,
//! ads, sidebars, footers, scripts) and injects defects at those measured
//! rates so the crawler-side components face the same hostility.

use rand::Rng;

/// Defect severity injected into a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkupQuality {
    /// Standards-conformant (the rare ~5%).
    Clean,
    /// Minor defects: unclosed tags, stray brackets, unquoted attributes.
    Defective,
    /// Severe breakage: truncated/interleaved tags — the ~13% that "could
    /// not be transcoded".
    Severe,
}

/// Configuration for the HTML wrapper.
#[derive(Debug, Clone, Copy)]
pub struct HtmlConfig {
    /// Probability of any defect (paper: 0.95).
    pub p_defective: f64,
    /// Probability of severe breakage (paper: 0.13), subset of defective.
    pub p_severe: f64,
    /// Number of boilerplate navigation/ad blocks per page.
    pub boilerplate_blocks: usize,
}

impl Default for HtmlConfig {
    fn default() -> HtmlConfig {
        HtmlConfig {
            p_defective: 0.95,
            p_severe: 0.13,
            boilerplate_blocks: 6,
        }
    }
}

/// A synthesized page: markup plus the gold net text it embeds.
#[derive(Debug, Clone)]
pub struct HtmlDoc {
    pub html: String,
    /// The content text (gold standard for boilerplate detection).
    pub net_text: String,
    /// Boilerplate text (navigation labels, ads, footer chatter).
    pub boilerplate_text: String,
    pub quality: MarkupQuality,
}

const NAV_WORDS: &[&str] = &[
    "Home", "About", "Contact", "Products", "Services", "Blog", "News", "Login", "Register",
    "Search", "Sitemap", "Privacy", "Terms", "Help", "FAQ", "Careers", "Press", "Support",
];
const AD_PHRASES: &[&str] = &[
    "Buy now and save 50% on selected items",
    "Subscribe to our newsletter for weekly updates",
    "Click here for a free trial today",
    "Limited time offer ends soon",
    "Sponsored content from our partners",
    "Sign up now and get exclusive deals",
];
const FOOTER_PHRASES: &[&str] = &[
    "Copyright 2013 All rights reserved",
    "Powered by a content management system",
    "Follow us on social media",
    "This site uses cookies to improve your experience",
];

/// Text-dense promotional blocks: boilerplate that *looks* like content to
/// a shallow-feature detector (few links, enough words) — the source of
/// its precision loss.
const TEASER_BLOCKS: &[&str] = &[
    "Our editorial team reviews hundreds of submissions every month and picks      the most useful guides and stories for our readers so you never miss the      updates that matter most to you and your family throughout the year.",
    "Join the thousands of members who already receive our weekly digest with      hand picked articles practical tips and community highlights delivered      straight to their inbox every Friday morning without any extra cost.",
    "This portal has been serving its community for more than a decade with      carefully curated resources expert interviews and practical advice that      helps visitors make better decisions every single day of the week.",
];

/// Wraps `paragraphs` (the net text) plus `links` into a full page.
pub fn wrap_page<R: Rng + ?Sized>(
    title: &str,
    paragraphs: &[String],
    links: &[String],
    config: &HtmlConfig,
    rng: &mut R,
) -> HtmlDoc {
    let quality = {
        let r: f64 = rng.random();
        if r < config.p_severe {
            MarkupQuality::Severe
        } else if r < config.p_defective {
            MarkupQuality::Defective
        } else {
            MarkupQuality::Clean
        }
    };

    let mut html = String::with_capacity(paragraphs.iter().map(String::len).sum::<usize>() * 2);
    let mut boilerplate = String::new();

    html.push_str("<!DOCTYPE html>\n<html>\n<head>\n");
    html.push_str(&format!("<title>{title}</title>\n"));
    html.push_str("<script>var tracker = function(){ return 42; };</script>\n");
    html.push_str("<style>.nav { color: #333; } body { margin: 0; }</style>\n");
    html.push_str("</head>\n<body>\n");

    // Navigation block (link-dense, short text — the signature boilerplate
    // shape shallow-text-feature detectors key on).
    html.push_str("<div class=\"nav\"><ul>\n");
    for i in 0..config.boilerplate_blocks.max(3) {
        let w = NAV_WORDS[(i + rng.random_range(0..NAV_WORDS.len())) % NAV_WORDS.len()];
        html.push_str(&format!("<li><a href=\"/nav/{i}\">{w}</a></li>\n"));
        boilerplate.push_str(w);
        boilerplate.push(' ');
    }
    html.push_str("</ul></div>\n");

    // Ad block.
    for _ in 0..config.boilerplate_blocks / 3 {
        let ad = AD_PHRASES[rng.random_range(0..AD_PHRASES.len())];
        html.push_str(&format!(
            "<div class=\"ad\"><a href=\"http://ads.example/click\">{ad}</a></div>\n"
        ));
        boilerplate.push_str(ad);
        boilerplate.push(' ');
    }

    // A text-dense teaser block before the content: boilerplate that fools
    // shallow-feature detectors (precision loss).
    let teaser = TEASER_BLOCKS[rng.random_range(0..TEASER_BLOCKS.len())];
    html.push_str(&format!("<div class=\"teaser\">{teaser}</div>\n"));
    boilerplate.push_str(teaser);
    boilerplate.push(' ');

    // Main content. A fraction of paragraphs renders as lists/tables of
    // short items — real content that shallow detectors systematically
    // miss ("tables and lists, which often contain valuable facts, are not
    // recognized properly").
    html.push_str("<div id=\"content\">\n");
    html.push_str(&format!("<h1>{title}</h1>\n"));
    let mut net_text = String::new();
    for (i, p) in paragraphs.iter().enumerate() {
        if rng.random::<f64>() < 0.22 {
            html.push_str("<ul>\n");
            // real lists hold short fact fragments, not full sentences
            let words: Vec<&str> = p.split_whitespace().collect();
            for item in words.chunks(4) {
                html.push_str(&format!("<li>{}</li>\n", item.join(" ")));
            }
            html.push_str("</ul>\n");
        } else {
            html.push_str("<p>");
            html.push_str(p);
            html.push_str("</p>\n");
        }
        net_text.push_str(p);
        net_text.push('\n');
        // Embed outgoing content links between paragraphs.
        if let Some(link) = links.get(i) {
            html.push_str(&format!(
                "<p><a href=\"{link}\">related article</a></p>\n"
            ));
        }
    }
    html.push_str("</div>\n");

    // Inline analytics/config blobs proportional to the content: the bloat
    // that makes raw page bytes a small multiple of the net text (Table 3's
    // raw sizes vs Fig. 6a's net lengths).
    let bloat_len = net_text.len() * 3;
    html.push_str("<script>var cfg = \"");
    let mut filled = 0usize;
    while filled < bloat_len {
        html.push_str("a9f3c2e1-");
        filled += 9;
    }
    html.push_str("\";</script>\n");

    // Remaining links into a "related" sidebar.
    if links.len() > paragraphs.len() {
        html.push_str("<div class=\"sidebar\"><ul>\n");
        for link in &links[paragraphs.len()..] {
            html.push_str(&format!("<li><a href=\"{link}\">more</a></li>\n"));
        }
        html.push_str("</ul></div>\n");
    }

    // Footer.
    let footer = FOOTER_PHRASES[rng.random_range(0..FOOTER_PHRASES.len())];
    html.push_str(&format!("<div class=\"footer\">{footer}</div>\n"));
    boilerplate.push_str(footer);
    html.push_str("</body>\n</html>\n");

    let html = match quality {
        MarkupQuality::Clean => html,
        MarkupQuality::Defective => inject_minor_defects(html, rng),
        MarkupQuality::Severe => inject_severe_defects(html, rng),
    };

    HtmlDoc {
        html,
        net_text,
        boilerplate_text: boilerplate,
        quality,
    }
}

/// Minor defects: drop some closing tags, unquote some attributes, insert
/// stray `<br>` and `&nbsp;`.
fn inject_minor_defects<R: Rng + ?Sized>(html: String, rng: &mut R) -> String {
    let mut out = String::with_capacity(html.len());
    for line in html.lines() {
        let roll: f64 = rng.random();
        if roll < 0.10 && line.contains("</p>") {
            out.push_str(&line.replace("</p>", "")); // unclosed paragraph
        } else if roll < 0.15 && line.contains("</li>") {
            out.push_str(&line.replace("</li>", "<br>"));
        } else if roll < 0.18 && line.contains("href=\"") {
            // unquoted attribute
            let dequoted = line.replacen("href=\"", "href=", 1);
            out.push_str(&dequoted.replacen('\"', "", 1));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Severe defects: truncate the document mid-tag and interleave elements —
/// the "could not be transcoded" class.
fn inject_severe_defects<R: Rng + ?Sized>(html: String, rng: &mut R) -> String {
    let mut out = inject_minor_defects(html, rng);
    // interleave: swap a closing tag pair somewhere
    if let Some(p) = out.find("</div>") {
        out.replace_range(p..p + 6, "</b></div><i>");
    }
    // truncate mid-tag near the end; documents of 0-1 bytes have nothing
    // to cut (random_range panics on an empty range)
    if out.len() > 1 {
        let cut = out.len() - rng.random_range(1..out.len().min(40));
        let mut boundary = cut.min(out.len() - 1);
        while boundary > 0 && !out.is_char_boundary(boundary) {
            boundary -= 1;
        }
        out.truncate(boundary);
    }
    out.push_str("<di");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paragraphs() -> Vec<String> {
        vec![
            "The gene regulates the tumor in patients.".to_string(),
            "Aspirin reduces chronic pain significantly.".to_string(),
        ]
    }

    #[test]
    fn clean_page_contains_content_and_boilerplate() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = HtmlConfig {
            p_defective: 0.0,
            p_severe: 0.0,
            boilerplate_blocks: 6,
        };
        let doc = wrap_page("Test", &paragraphs(), &[], &cfg, &mut rng);
        assert_eq!(doc.quality, MarkupQuality::Clean);
        assert!(doc.html.contains("<p>The gene regulates"));
        assert!(doc.html.contains("class=\"nav\""));
        assert!(doc.net_text.contains("Aspirin reduces"));
        assert!(!doc.net_text.contains("Home"));
    }

    #[test]
    fn links_are_embedded() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = HtmlConfig::default();
        let links = vec![
            "http://a.example/1".to_string(),
            "http://b.example/2".to_string(),
            "http://c.example/3".to_string(),
        ];
        let doc = wrap_page("T", &paragraphs(), &links, &cfg, &mut rng);
        for l in &links {
            assert!(doc.html.contains(l.as_str()), "missing {l}");
        }
    }

    #[test]
    fn defect_rates_are_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = HtmlConfig::default();
        let mut severe = 0;
        let mut clean = 0;
        let n = 600;
        for _ in 0..n {
            let doc = wrap_page("T", &paragraphs(), &[], &cfg, &mut rng);
            match doc.quality {
                MarkupQuality::Severe => severe += 1,
                MarkupQuality::Clean => clean += 1,
                MarkupQuality::Defective => {}
            }
        }
        let severe_frac = severe as f64 / n as f64;
        let clean_frac = clean as f64 / n as f64;
        assert!((severe_frac - 0.13).abs() < 0.05, "severe {severe_frac}");
        assert!((clean_frac - 0.05).abs() < 0.04, "clean {clean_frac}");
    }

    #[test]
    fn severe_pages_are_truncated_mid_tag() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = HtmlConfig {
            p_defective: 1.0,
            p_severe: 1.0,
            boilerplate_blocks: 4,
        };
        let doc = wrap_page("T", &paragraphs(), &[], &cfg, &mut rng);
        assert_eq!(doc.quality, MarkupQuality::Severe);
        assert!(doc.html.ends_with("<di"));
    }

    #[test]
    fn severe_defects_survive_tiny_documents() {
        let mut rng = StdRng::seed_from_u64(6);
        for input in ["", "x", "ü"] {
            let out = inject_severe_defects(input.to_string(), &mut rng);
            assert!(out.ends_with("<di"), "{input:?} -> {out:?}");
        }
    }

    #[test]
    fn net_text_excludes_markup() {
        let mut rng = StdRng::seed_from_u64(5);
        let doc = wrap_page("T", &paragraphs(), &[], &HtmlConfig::default(), &mut rng);
        assert!(!doc.net_text.contains('<'));
    }
}
