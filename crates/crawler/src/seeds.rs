//! Seed generation via simulated search engines.
//!
//! Section 2.2: seeds come from keyword queries against five engines
//! (Bing, Google, Arxiv, Nature, Nature blogs), each with rate limits and
//! result caps, using the four keyword categories of Table 1. Two of the
//! paper's observations are structural and reproduced here:
//!
//! - engines answer *general* terms with authoritative portal front pages
//!   ("the search engines return rather general pages, which they
//!   considered as authoritative ... such as front pages of portals") —
//!   exactly the pages a high-precision classifier then rejects;
//! - specialty engines (arxiv/nature analogues) "return results only for
//!   content hosted there".

use std::collections::{BTreeSet, HashMap};
use websift_corpus::lexicon::GENERAL_MEDICAL_TERMS;
use websift_web::{PageId, SimulatedWeb, Url};

/// A simulated search engine over an index of sampled pages.
pub struct SearchEngine {
    pub name: String,
    /// term -> hosts whose sampled pages mention it
    host_index: HashMap<String, Vec<u32>>,
    /// term -> concrete content pages mentioning it
    page_index: HashMap<String, Vec<u32>>,
    /// per-query result cap
    max_results: usize,
    /// total query budget (API rate limit)
    max_queries: usize,
    queries_issued: usize,
}

/// Error when the engine's API budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBudgetExhausted {
    pub engine: String,
}

impl std::fmt::Display for QueryBudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query budget exhausted for engine {}", self.engine)
    }
}

impl std::error::Error for QueryBudgetExhausted {}

impl SearchEngine {
    /// Builds an engine by indexing a deterministic sample of content
    /// pages. `host_filter` restricts the engine to specific hosts (the
    /// arxiv/nature behaviour).
    pub fn build(
        name: &str,
        web: &SimulatedWeb,
        sample_stride: usize,
        max_results: usize,
        max_queries: usize,
        host_filter: Option<&[&str]>,
    ) -> SearchEngine {
        assert!(sample_stride > 0);
        let mut host_index: HashMap<String, Vec<u32>> = HashMap::new();
        let mut page_index: HashMap<String, Vec<u32>> = HashMap::new();
        let graph = web.graph();
        for pid in (0..graph.num_pages()).step_by(sample_stride) {
            let page = graph.page(PageId(pid as u32));
            let host = &graph.hosts()[page.host as usize];
            if let Some(filter) = host_filter {
                if !filter.iter().any(|f| host.name.contains(f)) {
                    continue;
                }
            }
            let url = graph.url_of(PageId(pid as u32));
            let Some(doc) = web.gold_document(&url) else {
                continue;
            };
            let mut terms: BTreeSet<String> = BTreeSet::new();
            for (_, name) in &doc.gold.entities {
                terms.insert(name.clone());
            }
            // general medical terms actually present in the body
            let body_lower = doc.body.to_lowercase();
            for &g in GENERAL_MEDICAL_TERMS {
                if body_lower.contains(g) {
                    terms.insert(g.to_string());
                }
            }
            for term in terms {
                host_index.entry(term.clone()).or_default().push(page.host);
                page_index.entry(term).or_default().push(pid as u32);
            }
        }
        for v in host_index.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        SearchEngine {
            name: name.to_string(),
            host_index,
            page_index,
            max_results,
            max_queries,
            queries_issued: 0,
        }
    }

    pub fn queries_issued(&self) -> usize {
        self.queries_issued
    }

    /// Issues one query. Results: for every matching host, its
    /// authoritative front page first, then matching content pages, capped
    /// at `max_results`.
    pub fn query(
        &mut self,
        web: &SimulatedWeb,
        term: &str,
    ) -> Result<Vec<Url>, QueryBudgetExhausted> {
        if self.queries_issued >= self.max_queries {
            return Err(QueryBudgetExhausted {
                engine: self.name.clone(),
            });
        }
        self.queries_issued += 1;
        let term = term.to_lowercase();
        let graph = web.graph();
        let mut out: Vec<Url> = Vec::new();
        if let Some(hosts) = self.host_index.get(&term) {
            for &h in hosts {
                if out.len() >= self.max_results {
                    break;
                }
                let front = graph.hosts()[h as usize].page_range.0;
                out.push(graph.url_of(PageId(front)));
            }
        }
        if let Some(pages) = self.page_index.get(&term) {
            for &p in pages {
                if out.len() >= self.max_results {
                    break;
                }
                out.push(graph.url_of(PageId(p)));
            }
        }
        Ok(out)
    }
}

/// Builds the five default engines, mirroring §2.2.
pub fn default_engines(web: &SimulatedWeb) -> Vec<SearchEngine> {
    vec![
        SearchEngine::build("bing", web, 3, 50, 6_000, None),
        SearchEngine::build("google", web, 2, 50, 6_000, None),
        SearchEngine::build("arxiv", web, 1, 30, 4_000, Some(&["arxiv"])),
        SearchEngine::build("nature", web, 1, 30, 4_000, Some(&["naturejournal"])),
        SearchEngine::build("natureblogs", web, 1, 20, 4_000, Some(&["naturejournal", "blogger"])),
    ]
}

/// Outcome of a seed-generation run.
#[derive(Debug, Clone)]
pub struct SeedList {
    pub urls: Vec<Url>,
    pub queries_issued: usize,
    pub queries_rejected: usize,
}

/// Runs `queries` against all `engines`, merging and deduplicating results
/// into a seed list — "all search results from the different search engines
/// ... were merged to a single list of seed URLs".
pub fn generate_seeds(
    web: &SimulatedWeb,
    engines: &mut [SearchEngine],
    queries: &[String],
) -> SeedList {
    let mut seen: BTreeSet<Url> = BTreeSet::new();
    let mut issued = 0usize;
    let mut rejected = 0usize;
    for q in queries {
        for engine in engines.iter_mut() {
            match engine.query(web, q) {
                Ok(urls) => {
                    issued += 1;
                    seen.extend(urls);
                }
                Err(_) => rejected += 1,
            }
        }
    }
    SeedList {
        urls: seen.into_iter().collect(),
        queries_issued: issued,
        queries_rejected: rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_web::{WebGraph, WebGraphConfig};

    fn web() -> SimulatedWeb {
        SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()))
    }

    #[test]
    fn general_terms_return_front_pages() {
        let w = web();
        let mut engine = SearchEngine::build("test", &w, 1, 40, 100, None);
        let results = engine.query(&w, "cancer").unwrap();
        assert!(!results.is_empty(), "'cancer' should match generated content");
        // the first results are host front pages
        assert_eq!(results[0].path(), "/");
    }

    #[test]
    fn specific_terms_return_fewer_results() {
        let w = web();
        let mut engine = SearchEngine::build("test", &w, 1, 40, 100, None);
        let general = engine.query(&w, "cancer").unwrap().len();
        // a specific generated gene symbol present in some relevant doc
        let lex = websift_corpus::Lexicon::generate(websift_corpus::LexiconScale::default_scale());
        let gene = lex.genes()[0].to_lowercase();
        let specific = engine.query(&w, &gene).unwrap().len();
        assert!(specific <= general, "specific {specific} vs general {general}");
    }

    #[test]
    fn query_budget_enforced() {
        let w = web();
        let mut engine = SearchEngine::build("test", &w, 4, 10, 2, None);
        assert!(engine.query(&w, "cancer").is_ok());
        assert!(engine.query(&w, "tumor").is_ok());
        assert!(matches!(engine.query(&w, "therapy"), Err(QueryBudgetExhausted { .. })));
    }

    #[test]
    fn host_filtered_engines_stay_on_their_hosts() {
        let w = web();
        let mut engine = SearchEngine::build("arxiv", &w, 1, 40, 100, Some(&["arxiv"]));
        for term in ["cancer", "therapy", "treatment"] {
            for url in engine.query(&w, term).unwrap() {
                assert!(url.host().contains("arxiv"), "{url}");
            }
        }
    }

    #[test]
    fn seed_generation_merges_and_dedups() {
        let w = web();
        let mut engines = default_engines(&w);
        let queries: Vec<String> = ["cancer", "tumor", "therapy", "treatment"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let seeds = generate_seeds(&w, &mut engines, &queries);
        assert!(!seeds.urls.is_empty());
        let mut sorted = seeds.urls.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.urls.len(), "deduplicated");
        assert_eq!(seeds.queries_issued, queries.len() * engines.len());
    }

    #[test]
    fn larger_query_sets_yield_more_seeds() {
        let w = web();
        let lex = websift_corpus::Lexicon::generate(websift_corpus::LexiconScale::default_scale());
        let small: Vec<String> = lex
            .search_terms(websift_corpus::SearchCategory::General, 5)
            .iter()
            .map(|s| s.to_lowercase())
            .collect();
        let large: Vec<String> = lex
            .search_terms(websift_corpus::SearchCategory::General, 30)
            .iter()
            .map(|s| s.to_lowercase())
            .chain(lex.diseases().iter().take(40).map(|s| s.to_lowercase()))
            .collect();
        let s1 = generate_seeds(&w, &mut default_engines(&w), &small);
        let s2 = generate_seeds(&w, &mut default_engines(&w), &large);
        assert!(s2.urls.len() >= s1.urls.len());
    }
}
