//! CrawlDB: the crawl frontier and URL status store.
//!
//! Mirrors Nutch's CrawlDB (Fig. 1): the injector seeds it, fetchers pull
//! host-partitioned fetch lists from it ("the sizes of host-specific fetch
//! lists was limited to 500 to prevent threads from blocking each other"),
//! and the parser feeds newly discovered outlinks back. It also carries the
//! spider-trap guards: per-host page caps and a URL path-depth limit.
//!
//! Every change is also an append to a log — URLs admitted, statuses set
//! by [`CrawlDb::mark`], frontier entries pushed, entries popped — so
//! [`CrawlDb::write_since`] writes what changed since a [`DbCursor`] and
//! [`CrawlDb::apply`] replays it: a frame carries the round's changes, not
//! the store.

use std::collections::{HashMap, VecDeque};
use websift_resilience::codec::presize;
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

/// A frontier entry as the store holds it: URL id and irrelevant steps.
type Queued = (u32, u32);

/// The crawl frontier + status store.
#[derive(Debug, Default)]
pub struct CrawlDb {
    config: CrawlDbConfigInner,
    /// Every known URL by id, in admission order (a log).
    urls: Vec<Url>,
    ids: HashMap<Url, u32>,
    /// Status by URL id.
    status: Vec<UrlStatus>,
    /// Ids whose status [`CrawlDb::mark`] set, in order (a log).
    marks: Vec<u32>,
    /// Every frontier entry ever pushed, in order (a log).
    queued: Vec<Queued>,
    /// The host id of every entry popped, in order (a log).
    pops: Vec<u32>,
    /// Host ids, given in FIFO discovery order (the order fetch lists
    /// rotate through hosts in).
    host_ids: HashMap<String, u32>,
    /// Per host id: its pending entries and how many it was admitted.
    frontier: Vec<VecDeque<Queued>>,
    admitted: Vec<usize>,
    trap_rejected: u64,
}

/// Where a [`CrawlDb`]'s logs stood: [`CrawlDb::write_since`] writes what
/// changed after it. The default cursor is the empty store, so writing
/// since it writes everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DbCursor {
    urls: usize,
    marks: usize,
    queued: usize,
    pops: usize,
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
            if self.ids.contains_key(&entry.url) {
                continue;
            }
            let depth = entry.url.path().split('/').filter(|s| !s.is_empty()).count();
            if depth > self.config.max_path_depth {
                self.trap_rejected += 1;
                continue;
            }
            let host = self.host_ids.get(entry.url.host()).copied();
            let admitted = host.map_or(0, |h| self.admitted[h as usize]);
            if admitted >= self.config.max_pages_per_host {
                self.trap_rejected += 1;
                continue;
            }
            let url = self.intern(entry.url, UrlStatus::Unfetched);
            self.push(host, (url, entry.irrelevant_steps));
        }
    }

    /// Gives `url` the next id with `status`.
    fn intern(&mut self, url: Url, status: UrlStatus) -> u32 {
        let id = self.urls.len() as u32;
        self.ids.insert(url.clone(), id);
        self.urls.push(url);
        self.status.push(status);
        id
    }

    /// Pushes `entry` onto its URL's host queue (`host`, when known),
    /// registering the host on its first entry, and logs it.
    fn push(&mut self, host: Option<u32>, entry: Queued) {
        let h = host.unwrap_or_else(|| {
            let h = self.frontier.len() as u32;
            self.host_ids.insert(self.urls[entry.0 as usize].host().to_string(), h);
            self.frontier.push(VecDeque::new());
            self.admitted.push(0);
            h
        }) as usize;
        self.admitted[h] += 1;
        self.frontier[h].push_back(entry);
        self.queued.push(entry);
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
        for (h, queue) in self.frontier.iter_mut().enumerate() {
            if list.len() >= total {
                break;
            }
            let take = per_host.min(total - list.len());
            for _ in 0..take {
                let Some((url, irrelevant_steps)) = queue.pop_front() else { break };
                list.push(FrontierEntry { url: self.urls[url as usize].clone(), irrelevant_steps });
                self.pops.push(h as u32);
            }
        }
        list
    }

    /// Records the outcome of a fetched URL.
    pub fn mark(&mut self, url: &Url, status: UrlStatus) {
        let id = match self.ids.get(url) {
            Some(&id) => id,
            None => self.intern(url.clone(), status),
        };
        self.status[id as usize] = status;
        self.marks.push(id);
    }

    pub fn status_of(&self, url: &Url) -> Option<UrlStatus> {
        self.ids.get(url).map(|&id| self.status[id as usize])
    }

    /// Number of URLs waiting in the frontier.
    pub fn frontier_size(&self) -> usize {
        self.frontier.iter().map(VecDeque::len).sum()
    }

    /// URLs rejected by the trap guards.
    pub fn trap_rejected(&self) -> u64 {
        self.trap_rejected
    }

    /// Total known URLs.
    pub fn known(&self) -> usize {
        self.urls.len()
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

/// An id read from a frame, checked against the `len` ids that exist.
fn id_below(r: &mut Reader<'_>, len: usize, what: &'static str) -> Result<u32, CodecError> {
    let id = r.u32()?;
    if id as usize >= len {
        return Err(CodecError::Oversize { what, value: u64::from(id) });
    }
    Ok(id)
}

impl CrawlDb {
    /// Where the logs stand now.
    pub(crate) fn cursor(&self) -> DbCursor {
        DbCursor {
            urls: self.urls.len(),
            marks: self.marks.len(),
            queued: self.queued.len(),
            pops: self.pops.len(),
        }
    }

    /// Writes what changed since `since`: the trap-guard config, the URLs
    /// admitted since (each with its status now), the status now of each
    /// older URL marked since (by id, ascending), the frontier entries
    /// pushed since, the pops since (as runs of one host), and the trap
    /// counter. Since the default cursor this is the whole store. The
    /// bytes depend on what changed, not on where the logs stood, so a
    /// store rebuilt by [`CrawlDb::apply`] writes what the original does.
    pub(crate) fn write_since(&self, since: &DbCursor, w: &mut Writer) {
        w.usize(self.config.max_pages_per_host);
        w.usize(self.config.max_path_depth);
        w.usize(self.urls.len() - since.urls);
        for (url, status) in self.urls[since.urls..].iter().zip(&self.status[since.urls..]) {
            url.encode(w);
            status.encode(w);
        }
        let older = |id: &u32| (*id as usize) < since.urls;
        let mut marked: Vec<u32> = self.marks[since.marks..].iter().copied().filter(older).collect();
        marked.sort_unstable();
        marked.dedup();
        w.usize(marked.len());
        for id in marked {
            w.u32(id);
            self.status[id as usize].encode(w);
        }
        let queued = &self.queued[since.queued..];
        w.usize(queued.len());
        for &(url, steps) in queued {
            w.u32(url);
            w.u32(steps);
        }
        let runs = self.pops[since.pops..].chunk_by(|a, b| a == b);
        w.usize(runs.clone().count());
        for run in runs {
            w.u32(run[0]);
            w.usize(run.len());
        }
        w.u64(self.trap_rejected);
    }

    /// Replays what [`CrawlDb::write_since`] wrote onto this store: URLs
    /// admitted, statuses set, entries pushed, then popped. An entry
    /// pushed and popped within the same span is pushed before it is
    /// popped, which on a FIFO queue per host is the original order's
    /// outcome. A frame is untrusted: a URL already known, an id out of
    /// range or a pop from an empty queue is an error.
    pub(crate) fn apply(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.config =
            CrawlDbConfigInner { max_pages_per_host: r.usize()?, max_path_depth: r.usize()? };
        let n = r.usize()?;
        self.urls.reserve(presize::<(Url, u8)>(n, r));
        for _ in 0..n {
            let url = Url::decode(r)?;
            let status = UrlStatus::decode(r)?;
            if self.ids.contains_key(&url) {
                return Err(CodecError::Mismatch {
                    what: "URL admitted twice",
                    claimed: self.urls.len() as u64,
                    sealed: u64::from(self.ids[&url]),
                });
            }
            self.intern(url, status);
        }
        for _ in 0..r.usize()? {
            let id = id_below(r, self.urls.len(), "marked URL id")?;
            self.status[id as usize] = UrlStatus::decode(r)?;
            self.marks.push(id);
        }
        for _ in 0..r.usize()? {
            let url = id_below(r, self.urls.len(), "queued URL id")?;
            let host = self.host_ids.get(self.urls[url as usize].host()).copied();
            self.push(host, (url, r.u32()?));
        }
        for _ in 0..r.usize()? {
            let h = id_below(r, self.frontier.len(), "popped host id")?;
            let n = r.usize()?;
            for _ in 0..n {
                if self.frontier[h as usize].pop_front().is_none() {
                    return Err(CodecError::Oversize { what: "frontier pops", value: n as u64 });
                }
                self.pops.push(h);
            }
        }
        self.trap_rejected = r.u64()?;
        Ok(())
    }

    /// The whole store: [`CrawlDb::write_since`] the default cursor.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        self.write_since(&DbCursor::default(), w);
    }

    /// Inverse of [`CrawlDb::encode_snapshot`]: the whole store applied
    /// to an empty one.
    pub fn decode_snapshot(r: &mut Reader<'_>) -> Result<CrawlDb, CodecError> {
        let mut db = CrawlDb::default();
        db.apply(r)?;
        Ok(db)
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
