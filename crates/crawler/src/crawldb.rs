//! CrawlDB: the crawl frontier and URL status store.
//!
//! Mirrors Nutch's CrawlDB (Fig. 1): the injector seeds it, fetchers pull
//! host-partitioned fetch lists from it ("the sizes of host-specific fetch
//! lists was limited to 500 to prevent threads from blocking each other"),
//! and the parser feeds newly discovered outlinks back. It also carries the
//! spider-trap guards: per-host page caps and a URL path-depth limit.

use std::collections::{HashMap, HashSet, VecDeque};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};
use websift_web::Url;

/// Lifecycle state of a known URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlStatus {
    /// Discovered, waiting in the frontier.
    Unfetched,
    /// Downloaded and accepted into a corpus.
    Fetched,
    /// Downloaded but rejected (filter chain, classifier, or parse error).
    Rejected,
    /// Fetch failed.
    Failed,
}

/// An entry in the frontier: the URL plus how many consecutive
/// irrelevant-classified pages lie between it and the nearest relevant
/// ancestor (the paper's "not stopping ... but after n steps" knob).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierEntry {
    pub url: Url,
    pub irrelevant_steps: u32,
}

/// CrawlDB configuration (trap guards).
#[derive(Debug, Clone, Copy)]
pub struct CrawlDbConfig {
    /// Hard cap of pages admitted per host (spider-trap guard).
    pub max_pages_per_host: usize,
    /// Maximum URL path depth (segments) admitted (spider-trap guard).
    pub max_path_depth: usize,
}

impl Default for CrawlDbConfig {
    fn default() -> CrawlDbConfig {
        CrawlDbConfig {
            max_pages_per_host: 800,
            max_path_depth: 8,
        }
    }
}

/// The crawl frontier + status store.
#[derive(Debug, Default)]
pub struct CrawlDb {
    config: CrawlDbConfigInner,
    status: HashMap<Url, UrlStatus>,
    frontier: HashMap<String, VecDeque<FrontierEntry>>,
    /// Hosts in FIFO discovery order, for fair fetch-list assembly.
    host_order: Vec<String>,
    host_seen: HashSet<String>,
    host_admitted: HashMap<String, usize>,
    trap_rejected: u64,
}

#[derive(Debug, Clone, Copy)]
struct CrawlDbConfigInner {
    max_pages_per_host: usize,
    max_path_depth: usize,
}

impl Default for CrawlDbConfigInner {
    fn default() -> Self {
        let c = CrawlDbConfig::default();
        CrawlDbConfigInner {
            max_pages_per_host: c.max_pages_per_host,
            max_path_depth: c.max_path_depth,
        }
    }
}

impl CrawlDb {
    pub fn new(config: CrawlDbConfig) -> CrawlDb {
        CrawlDb {
            config: CrawlDbConfigInner {
                max_pages_per_host: config.max_pages_per_host,
                max_path_depth: config.max_path_depth,
            },
            ..CrawlDb::default()
        }
    }

    /// Adds URLs to the frontier (the injector, and outlink feedback).
    /// Duplicates and trap-guarded URLs are dropped.
    pub fn add(&mut self, urls: impl IntoIterator<Item = FrontierEntry>) {
        for entry in urls {
            if self.status.contains_key(&entry.url) {
                continue;
            }
            let depth = entry.url.path().split('/').filter(|s| !s.is_empty()).count();
            if depth > self.config.max_path_depth {
                self.trap_rejected += 1;
                continue;
            }
            let host = entry.url.host().to_string();
            let admitted = self.host_admitted.entry(host.clone()).or_insert(0);
            if *admitted >= self.config.max_pages_per_host {
                self.trap_rejected += 1;
                continue;
            }
            *admitted += 1;
            self.status.insert(entry.url.clone(), UrlStatus::Unfetched);
            if self.host_seen.insert(host.clone()) {
                self.host_order.push(host.clone());
            }
            self.frontier.entry(host).or_default().push_back(entry);
        }
    }

    /// Convenience injector for seed URLs.
    pub fn inject(&mut self, seeds: impl IntoIterator<Item = Url>) {
        self.add(seeds.into_iter().map(|url| FrontierEntry {
            url,
            irrelevant_steps: 0,
        }));
    }

    /// Assembles the next fetch list: up to `per_host` URLs from each host
    /// with pending work, up to `total` overall. Hosts rotate fairly in
    /// discovery order.
    pub fn next_fetch_list(&mut self, per_host: usize, total: usize) -> Vec<FrontierEntry> {
        let mut list = Vec::new();
        for host in &self.host_order {
            if list.len() >= total {
                break;
            }
            if let Some(queue) = self.frontier.get_mut(host) {
                let take = per_host.min(total - list.len());
                for _ in 0..take {
                    match queue.pop_front() {
                        Some(e) => list.push(e),
                        None => break,
                    }
                }
            }
        }
        list
    }

    /// Records the outcome of a fetched URL.
    pub fn mark(&mut self, url: &Url, status: UrlStatus) {
        self.status.insert(url.clone(), status);
    }

    pub fn status_of(&self, url: &Url) -> Option<UrlStatus> {
        self.status.get(url).copied()
    }

    /// Number of URLs waiting in the frontier.
    pub fn frontier_size(&self) -> usize {
        self.frontier.values().map(VecDeque::len).sum()
    }

    /// URLs rejected by the trap guards.
    pub fn trap_rejected(&self) -> u64 {
        self.trap_rejected
    }

    /// Total known URLs.
    pub fn known(&self) -> usize {
        self.status.len()
    }
}

impl Snapshot for UrlStatus {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            UrlStatus::Unfetched => 0,
            UrlStatus::Fetched => 1,
            UrlStatus::Rejected => 2,
            UrlStatus::Failed => 3,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<UrlStatus, CodecError> {
        match r.u8()? {
            0 => Ok(UrlStatus::Unfetched),
            1 => Ok(UrlStatus::Fetched),
            2 => Ok(UrlStatus::Rejected),
            3 => Ok(UrlStatus::Failed),
            tag => Err(CodecError::BadTag { what: "UrlStatus", tag }),
        }
    }
}

impl Snapshot for FrontierEntry {
    fn encode(&self, w: &mut Writer) {
        self.url.encode(w);
        w.u32(self.irrelevant_steps);
    }

    fn decode(r: &mut Reader<'_>) -> Result<FrontierEntry, CodecError> {
        Ok(FrontierEntry { url: Snapshot::decode(r)?, irrelevant_steps: r.u32()? })
    }
}

impl CrawlDb {
    /// Serializes the full store — status map, per-host frontier queues,
    /// host rotation order, admission counters, trap-guard config and
    /// counters — for a crawl checkpoint. Byte-deterministic: equal
    /// states encode to equal bytes.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        w.usize(self.config.max_pages_per_host);
        w.usize(self.config.max_path_depth);
        self.status.encode(w);
        self.frontier.encode(w);
        self.host_order.encode(w);
        self.host_seen.encode(w);
        self.host_admitted.encode(w);
        w.u64(self.trap_rejected);
    }

    /// Inverse of [`CrawlDb::encode_snapshot`].
    pub fn decode_snapshot(r: &mut Reader<'_>) -> Result<CrawlDb, CodecError> {
        Ok(CrawlDb {
            config: CrawlDbConfigInner {
                max_pages_per_host: r.usize()?,
                max_path_depth: r.usize()?,
            },
            status: Snapshot::decode(r)?,
            frontier: Snapshot::decode(r)?,
            host_order: Snapshot::decode(r)?,
            host_seen: Snapshot::decode(r)?,
            host_admitted: Snapshot::decode(r)?,
            trap_rejected: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(host: &str, path: &str) -> Url {
        Url::new(host, path)
    }

    #[test]
    fn snapshot_roundtrip_preserves_frontier_and_rotation() {
        let mut db = CrawlDb::new(CrawlDbConfig {
            max_pages_per_host: 7,
            max_path_depth: 4,
        });
        db.inject([
            u("b.example", "/1"),
            u("a.example", "/1"),
            u("a.example", "/2"),
            u("a.example", "/too/deep/for/the/guard/x"),
        ]);
        db.mark(&u("a.example", "/1"), UrlStatus::Fetched);

        let mut w = Writer::new();
        db.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut restored = CrawlDb::decode_snapshot(&mut Reader::new(&bytes)).unwrap();

        assert_eq!(restored.frontier_size(), db.frontier_size());
        assert_eq!(restored.known(), db.known());
        assert_eq!(restored.trap_rejected(), db.trap_rejected());
        assert_eq!(restored.status_of(&u("a.example", "/1")), Some(UrlStatus::Fetched));
        // fetch-list assembly order (host rotation) must survive
        let a = db.next_fetch_list(1, 10);
        let b = restored.next_fetch_list(1, 10);
        assert_eq!(a, b);
        // re-encoding the restored state is byte-identical
        let mut w2 = Writer::new();
        // drain-order calls above mutated both equally; snapshot again
        db.encode_snapshot(&mut w2);
        let mut w3 = Writer::new();
        restored.encode_snapshot(&mut w3);
        assert_eq!(w2.into_bytes(), w3.into_bytes());
    }

    #[test]
    fn inject_and_fetch_list() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.inject([u("a.example", "/1"), u("a.example", "/2"), u("b.example", "/1")]);
        assert_eq!(db.frontier_size(), 3);
        let list = db.next_fetch_list(500, 100);
        assert_eq!(list.len(), 3);
        assert_eq!(db.frontier_size(), 0);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.inject([u("a.example", "/1"), u("a.example", "/1")]);
        assert_eq!(db.frontier_size(), 1);
        db.inject([u("a.example", "/1")]);
        assert_eq!(db.frontier_size(), 1);
    }

    #[test]
    fn per_host_fetch_list_cap() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.inject((0..600).map(|i| u("big.example", &format!("/p{i}"))));
        let list = db.next_fetch_list(500, 10_000);
        assert_eq!(list.len(), 500, "host-specific fetch lists limited to 500");
        assert_eq!(db.frontier_size(), 100);
    }

    #[test]
    fn path_depth_trap_guard() {
        let mut db = CrawlDb::new(CrawlDbConfig {
            max_path_depth: 3,
            ..CrawlDbConfig::default()
        });
        db.inject([u("t.example", "/a/b/c/d/e/f/g/h/i")]);
        assert_eq!(db.frontier_size(), 0);
        assert_eq!(db.trap_rejected(), 1);
    }

    #[test]
    fn per_host_admission_cap() {
        let mut db = CrawlDb::new(CrawlDbConfig {
            max_pages_per_host: 5,
            ..CrawlDbConfig::default()
        });
        db.inject((0..10).map(|i| u("t.example", &format!("/p{i}"))));
        assert_eq!(db.frontier_size(), 5);
        assert_eq!(db.trap_rejected(), 5);
    }

    #[test]
    fn status_transitions() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        let url = u("a.example", "/1");
        db.inject([url.clone()]);
        assert_eq!(db.status_of(&url), Some(UrlStatus::Unfetched));
        let list = db.next_fetch_list(10, 10);
        assert_eq!(list.len(), 1);
        db.mark(&url, UrlStatus::Fetched);
        assert_eq!(db.status_of(&url), Some(UrlStatus::Fetched));
        // re-adding a fetched URL is a no-op
        db.inject([url.clone()]);
        assert_eq!(db.frontier_size(), 0);
    }

    #[test]
    fn fetch_list_rotates_hosts_fairly() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.inject([u("a.example", "/1"), u("b.example", "/1"), u("a.example", "/2")]);
        let list = db.next_fetch_list(1, 10);
        let hosts: Vec<&str> = list.iter().map(|e| e.url.host()).collect();
        assert_eq!(hosts, vec!["a.example", "b.example"]);
    }

    #[test]
    fn irrelevant_steps_carried() {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.add([FrontierEntry {
            url: u("a.example", "/x"),
            irrelevant_steps: 2,
        }]);
        let list = db.next_fetch_list(10, 10);
        assert_eq!(list[0].irrelevant_steps, 2);
    }
}
