//! Synthetic web graph generator.
//!
//! The crawler needs a web to crawl. This module generates one with the
//! structural properties the paper's crawl encountered:
//!
//! - **topical locality** (Davison 2000): relevant pages mostly link to
//!   relevant pages — the assumption focused crawling rests on;
//! - **weakly-linked biomedical sites**: "most often, all outgoing links
//!   from a page were navigational leading to pages on the same host" —
//!   biomedical hosts have a high intra-host link fraction, which is what
//!   empties a focused frontier;
//! - **authoritative front pages**: every host has a link-dense, content-
//!   poor front page (what general-term search queries return, and what the
//!   classifier then rejects — the paper's first-crawl failure);
//! - **spider traps**: a fraction of hosts serve unbounded dynamically
//!   generated link chains;
//! - **dirty page mix**: non-English, non-text, and too-short pages at the
//!   rates the paper's filter chain measured (14 %, 9.5 %, 17 %);
//! - **hub hosts** (wikipedia/blogger/slideshare analogues) that are
//!   linked from everywhere and host mixed content (Table 2's "seemingly
//!   irrelevant sites [that] often also contain some biomedical material").

use crate::url::Url;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use websift_stats::sampling::{log_normal, Zipf};

/// Identifier of a statically generated page (index into the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId(pub u32);

/// What kind of payload a page serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageFlavor {
    /// Regular content page (relevant or irrelevant per its host).
    Content,
    /// A host front page: link-dense, little prose.
    FrontPage,
    /// Page in a non-English language.
    NonEnglish,
    /// Binary/PDF/slides payload.
    NonText,
    /// Under-construction stub, too short to analyze.
    TooShort,
}

/// Per-host metadata.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub name: String,
    /// Host carries biomedical content.
    pub biomedical: bool,
    /// Hub host: linked from everywhere, mixed content.
    pub hub: bool,
    /// Host serves an unbounded dynamic link chain under `/trap/`.
    pub spider_trap: bool,
    /// robots.txt crawl-delay in simulated milliseconds.
    pub crawl_delay_ms: u64,
    /// robots.txt disallowed path prefix, if any.
    pub disallow_prefix: Option<String>,
    /// Global page-index range `[start, end)` of this host's pages.
    pub page_range: (u32, u32),
}

/// Per-page metadata.
#[derive(Debug, Clone, Copy)]
pub struct PageInfo {
    pub host: u32,
    pub flavor: PageFlavor,
    /// Content is biomedical (the gold label for classifier evaluation).
    pub relevant: bool,
}

/// Generator configuration. Defaults are calibrated to the paper's crawl
/// statistics (filter reductions, harvest rate regime, frontier behaviour).
#[derive(Debug, Clone, Copy)]
pub struct WebGraphConfig {
    pub hosts: usize,
    pub pages_per_host_median: f64,
    pub pages_per_host_sigma: f64,
    /// Fraction of hosts carrying biomedical content.
    pub biomedical_host_fraction: f64,
    /// Probability a cross-host link from a relevant page targets a
    /// biomedical host.
    pub topical_locality: f64,
    /// Fraction of links that stay on the same host, for biomedical hosts
    /// (the "weakly linked" observation) and for other hosts.
    pub intra_host_fraction_biomedical: f64,
    pub intra_host_fraction_other: f64,
    pub out_degree_median: f64,
    pub out_degree_sigma: f64,
    /// Fraction of hosts that are spider traps.
    pub spider_trap_fraction: f64,
    /// Page-flavor rates (match the paper's filter reductions).
    pub p_non_english: f64,
    pub p_non_text: f64,
    pub p_too_short: f64,
    /// Fraction of pages on biomedical hosts whose content is nonetheless
    /// out of domain (about-us pages etc.), and vice versa.
    pub offtopic_on_biomedical: f64,
    pub ontopic_on_other: f64,
    /// Cross-host biomedical links only ever point at the most popular
    /// `popular_biomedical_hosts` biomedical hosts (portals). The long tail
    /// of biomedical sites has no biomedical in-links at all — the paper's
    /// "biomedical sites generally are only weakly linked", and the reason
    /// crawl size is bounded by the seed list.
    pub popular_biomedical_hosts: usize,
    pub seed: u64,
}

impl Default for WebGraphConfig {
    fn default() -> WebGraphConfig {
        WebGraphConfig {
            hosts: 600,
            pages_per_host_median: 45.0,
            pages_per_host_sigma: 0.9,
            biomedical_host_fraction: 0.32,
            topical_locality: 0.55,
            intra_host_fraction_biomedical: 0.85,
            intra_host_fraction_other: 0.60,
            out_degree_median: 10.0,
            out_degree_sigma: 0.7,
            spider_trap_fraction: 0.02,
            p_non_english: 0.19,
            p_non_text: 0.15,
            p_too_short: 0.17,
            offtopic_on_biomedical: 0.45,
            ontopic_on_other: 0.03,
            popular_biomedical_hosts: 25,
            seed: 0xC0FFEE,
        }
    }
}

impl WebGraphConfig {
    /// A small graph for unit tests.
    pub fn tiny() -> WebGraphConfig {
        WebGraphConfig {
            hosts: 40,
            pages_per_host_median: 12.0,
            ..WebGraphConfig::default()
        }
    }
}

const BIOMED_ROOTS: &[&str] = &[
    "cancer", "health", "medinfo", "genetics", "biomed", "clinic", "disease", "drugs", "pubgene",
    "oncology", "cardio", "neuro", "pharma", "wellness", "diagnosis", "therapy", "nursing",
    "labresults", "pathology", "vaccines",
];
const OTHER_ROOTS: &[&str] = &[
    "news", "shop", "sports", "travel", "games", "music", "finance", "auto", "fashion", "food",
    "movies", "realestate", "jobs", "weather", "photo", "forum", "tech", "crafts", "pets",
    "garden",
];
const TLDS: &[&str] = &["org", "com", "net", "gov", "edu", "info"];

/// Hub hosts injected verbatim (Table 2 flavor).
const HUBS: &[(&str, bool)] = &[
    ("wikipedia.example.org", true),
    ("blogger.example.com", false),
    ("slideshare.example.net", false),
    ("dictionary.example.com", false),
    ("naturejournal.example.org", true),
    ("arxiv.example.org", true),
];

/// The generated graph.
#[derive(Debug, Clone)]
pub struct WebGraph {
    config: WebGraphConfig,
    hosts: Vec<HostInfo>,
    pages: Vec<PageInfo>,
    links: Vec<Vec<u32>>,
}

impl WebGraph {
    /// Generates a web deterministically from `config.seed`.
    pub fn generate(config: WebGraphConfig) -> WebGraph {
        assert!(config.hosts >= HUBS.len() + 4, "need at least {} hosts", HUBS.len() + 4);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- hosts
        let mut hosts: Vec<HostInfo> = Vec::with_capacity(config.hosts);
        for (name, biomedical) in HUBS {
            hosts.push(HostInfo {
                name: name.to_string(),
                biomedical: *biomedical,
                hub: true,
                spider_trap: false,
                crawl_delay_ms: 50,
                disallow_prefix: None,
                page_range: (0, 0),
            });
        }
        while hosts.len() < config.hosts {
            let i = hosts.len();
            let biomedical = rng.random::<f64>() < config.biomedical_host_fraction;
            let root = if biomedical {
                BIOMED_ROOTS[i % BIOMED_ROOTS.len()]
            } else {
                OTHER_ROOTS[i % OTHER_ROOTS.len()]
            };
            let tld = TLDS[rng.random_range(0..TLDS.len())];
            hosts.push(HostInfo {
                name: format!("{root}{}.example.{tld}", i),
                biomedical,
                hub: false,
                spider_trap: rng.random::<f64>() < config.spider_trap_fraction,
                crawl_delay_ms: [20u64, 50, 100, 200][rng.random_range(0..4)],
                disallow_prefix: if rng.random::<f64>() < 0.2 {
                    Some("/private".to_string())
                } else {
                    None
                },
                page_range: (0, 0),
            });
        }

        // --- pages
        let mut pages: Vec<PageInfo> = Vec::new();
        for (h, host) in hosts.iter_mut().enumerate() {
            let base = if host.hub { 4.0 } else { 1.0 };
            let n = (log_normal(&mut rng, (config.pages_per_host_median * base).ln(),
                config.pages_per_host_sigma)
                .round()
                .clamp(3.0, 2000.0)) as usize;
            let start = pages.len() as u32;
            for p in 0..n {
                let flavor = if p == 0 {
                    PageFlavor::FrontPage
                } else {
                    let r: f64 = rng.random();
                    if r < config.p_non_text {
                        PageFlavor::NonText
                    } else if r < config.p_non_text + config.p_non_english {
                        PageFlavor::NonEnglish
                    } else if r < config.p_non_text + config.p_non_english + config.p_too_short {
                        PageFlavor::TooShort
                    } else {
                        PageFlavor::Content
                    }
                };
                // Gold relevance of the *content*.
                let relevant = if host.hub {
                    // hubs: mixed content, mostly out of domain
                    rng.random::<f64>() < 0.15
                } else if host.biomedical {
                    rng.random::<f64>() >= config.offtopic_on_biomedical
                } else {
                    rng.random::<f64>() < config.ontopic_on_other
                };
                let relevant = relevant && matches!(flavor, PageFlavor::Content);
                pages.push(PageInfo {
                    host: h as u32,
                    flavor,
                    relevant,
                });
            }
            host.page_range = (start, pages.len() as u32);
        }

        // --- links
        // Host popularity (for preferential attachment): Zipf over a fixed
        // deterministic permutation, hubs boosted.
        let host_zipf = Zipf::new(hosts.len(), 1.0);
        let biomed_hosts: Vec<u32> = hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.biomedical)
            .map(|(i, _)| i as u32)
            .collect();
        let other_hosts: Vec<u32> = hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.biomedical)
            .map(|(i, _)| i as u32)
            .collect();

        let mut links: Vec<Vec<u32>> = Vec::with_capacity(pages.len());
        for (pid, page) in pages.iter().enumerate() {
            let host = &hosts[page.host as usize];
            let (range_start, range_end) = host.page_range;
            let host_pages = (range_end - range_start) as usize;

            let degree = if page.flavor == PageFlavor::FrontPage {
                // front pages are link-dense
                host_pages.clamp(5, 40)
            } else if page.flavor == PageFlavor::NonText {
                0
            } else {
                log_normal(&mut rng, config.out_degree_median.ln(), config.out_degree_sigma)
                    .round()
                    .clamp(0.0, 120.0) as usize
            };

            let intra_frac = if host.biomedical {
                config.intra_host_fraction_biomedical
            } else {
                config.intra_host_fraction_other
            };

            let mut out: Vec<u32> = Vec::with_capacity(degree);
            for _ in 0..degree {
                if rng.random::<f64>() < intra_frac || host_pages <= 1 {
                    // navigational intra-host link
                    if host_pages > 1 {
                        let t = range_start + rng.random_range(0..host_pages) as u32;
                        if t != pid as u32 {
                            out.push(t);
                        }
                    }
                } else {
                    // cross-host link with topical locality + preferential
                    // attachment within the chosen topic pool.
                    let target_biomed = if page.relevant {
                        rng.random::<f64>() < config.topical_locality
                    } else {
                        rng.random::<f64>() < 0.05
                    };
                    let pool: &[u32] = if target_biomed {
                        let cap = config.popular_biomedical_hosts.max(1).min(biomed_hosts.len());
                        &biomed_hosts[..cap]
                    } else {
                        &other_hosts
                    };
                    if pool.is_empty() {
                        continue;
                    }
                    // preferential attachment: rank-biased host pick
                    let rank = host_zipf.sample(&mut rng) % pool.len();
                    let th = pool[rank] as usize;
                    let (ts, te) = hosts[th].page_range;
                    if te > ts {
                        // bias toward the front page (how the web links)
                        let t = if rng.random::<f64>() < 0.5 {
                            ts
                        } else {
                            ts + rng.random_range(0..(te - ts))
                        };
                        out.push(t);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            links.push(out);
        }

        WebGraph {
            config,
            hosts,
            pages,
            links,
        }
    }

    pub fn config(&self) -> &WebGraphConfig {
        &self.config
    }

    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    pub fn hosts(&self) -> &[HostInfo] {
        &self.hosts
    }

    pub fn page(&self, id: PageId) -> &PageInfo {
        &self.pages[id.0 as usize]
    }

    pub fn pages(&self) -> &[PageInfo] {
        &self.pages
    }

    /// Static outgoing links of a page.
    pub fn links(&self, id: PageId) -> &[u32] {
        &self.links[id.0 as usize]
    }

    /// Full adjacency (for PageRank over the whole web).
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.links
    }

    /// The URL of a page.
    pub fn url_of(&self, id: PageId) -> Url {
        let page = &self.pages[id.0 as usize];
        let host = &self.hosts[page.host as usize];
        let local = id.0 - host.page_range.0;
        if local == 0 {
            Url::new(&host.name, "/")
        } else {
            let ext = match page.flavor {
                PageFlavor::NonText => "pdf",
                _ => "html",
            };
            Url::new(&host.name, &format!("/p{}.{ext}", id.0))
        }
    }

    /// Resolves a URL back to a static page, if it addresses one.
    pub fn page_at(&self, url: &Url) -> Option<PageId> {
        let host_idx = self.host_by_name(url.host())?;
        let host = &self.hosts[host_idx];
        if url.path() == "/" {
            return Some(PageId(host.page_range.0));
        }
        let stem = url
            .path()
            .strip_prefix("/p")?
            .split('.')
            .next()
            .unwrap_or("");
        let id: u32 = stem.parse().ok()?;
        if id >= host.page_range.0 && id < host.page_range.1 && id != host.page_range.0 {
            Some(PageId(id))
        } else {
            None
        }
    }

    /// Finds a host index by name.
    pub fn host_by_name(&self, name: &str) -> Option<usize> {
        self.hosts.iter().position(|h| h.name == name)
    }

    /// Gold relevance fraction over all content (for calibration tests).
    pub fn relevant_fraction(&self) -> f64 {
        let r = self.pages.iter().filter(|p| p.relevant).count();
        r as f64 / self.pages.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WebGraph {
        WebGraph::generate(WebGraphConfig::tiny())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.num_pages(), b.num_pages());
        assert_eq!(a.links(PageId(5)), b.links(PageId(5)));
    }

    #[test]
    fn hosts_have_front_pages() {
        let g = tiny();
        for h in g.hosts() {
            let first = g.page(PageId(h.page_range.0));
            assert_eq!(first.flavor, PageFlavor::FrontPage);
        }
    }

    #[test]
    fn url_roundtrip() {
        let g = tiny();
        for id in [0u32, 1, 7, g.num_pages() as u32 - 1] {
            let url = g.url_of(PageId(id));
            let back = g.page_at(&url).expect("roundtrip");
            assert_eq!(back.0, id, "url {url}");
        }
    }

    #[test]
    fn links_point_to_valid_pages() {
        let g = tiny();
        for p in 0..g.num_pages() {
            for &t in g.links(PageId(p as u32)) {
                assert!((t as usize) < g.num_pages());
            }
        }
    }

    #[test]
    fn flavor_rates_are_roughly_calibrated() {
        let g = WebGraph::generate(WebGraphConfig::default());
        let cfg = WebGraphConfig::default();
        let n = g.num_pages() as f64;
        let count = |f: PageFlavor| g.pages().iter().filter(|p| p.flavor == f).count() as f64 / n;
        assert!((count(PageFlavor::NonText) - cfg.p_non_text).abs() < 0.03);
        assert!((count(PageFlavor::NonEnglish) - cfg.p_non_english).abs() < 0.03);
        assert!((count(PageFlavor::TooShort) - cfg.p_too_short).abs() < 0.04);
    }

    #[test]
    fn topical_locality_holds() {
        let g = WebGraph::generate(WebGraphConfig::default());
        let mut rel_to_rel = 0usize;
        let mut rel_cross = 0usize;
        for p in 0..g.num_pages() {
            let page = g.page(PageId(p as u32));
            if !page.relevant {
                continue;
            }
            for &t in g.links(PageId(p as u32)) {
                let target = g.page(PageId(t));
                if target.host != page.host {
                    rel_cross += 1;
                    let th = &g.hosts()[target.host as usize];
                    if th.biomedical {
                        rel_to_rel += 1;
                    }
                }
            }
        }
        assert!(rel_cross > 0);
        let locality = rel_to_rel as f64 / rel_cross as f64;
        let expected = WebGraphConfig::default().topical_locality;
        assert!(
            locality > expected - 0.12,
            "locality {locality} vs configured {expected}"
        );
    }

    #[test]
    fn biomedical_hosts_are_weakly_linked() {
        let g = WebGraph::generate(WebGraphConfig::default());
        let mut bio_intra = 0usize;
        let mut bio_total = 0usize;
        for p in 0..g.num_pages() {
            let page = g.page(PageId(p as u32));
            let host = &g.hosts()[page.host as usize];
            if !host.biomedical || host.hub {
                continue;
            }
            for &t in g.links(PageId(p as u32)) {
                bio_total += 1;
                if g.page(PageId(t)).host == page.host {
                    bio_intra += 1;
                }
            }
        }
        let frac = bio_intra as f64 / bio_total.max(1) as f64;
        assert!(frac > 0.7, "intra-host fraction {frac}");
    }

    #[test]
    fn some_spider_traps_exist_at_default_scale() {
        let g = WebGraph::generate(WebGraphConfig::default());
        assert!(g.hosts().iter().any(|h| h.spider_trap));
    }

    #[test]
    fn hub_hosts_present() {
        let g = tiny();
        assert!(g.host_by_name("wikipedia.example.org").is_some());
        assert!(g.hosts()[0].hub);
    }
}
