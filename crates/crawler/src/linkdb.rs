//! LinkDB: the link graph of crawled pages.
//!
//! Nutch's LinkDB "stores the graph structure of the crawled pages"; here
//! it interns URLs, records directed edges, and exports adjacency plus a
//! host grouping so the experiment harness can compute Table 2's
//! PageRank-by-domain ranking. The interned URLs and the pages whose links
//! were recorded are logs, so a frame carries the links recorded since a
//! [`LinkCursor`].

use std::collections::HashMap;
use websift_resilience::codec::presize;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};
use websift_web::Url;

/// Interned link graph.
#[derive(Debug, Default)]
pub struct LinkDb {
    ids: HashMap<Url, u32>,
    /// Interned URLs, by id (a log).
    urls: Vec<Url>,
    edges: Vec<Vec<u32>>,
    /// The id of every page [`LinkDb::add_links`] recorded, in order (a log).
    sources: Vec<u32>,
}

/// Where a [`LinkDb`]'s logs stood; the default cursor is the empty graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LinkCursor {
    urls: usize,
    sources: usize,
}

impl LinkDb {
    pub fn new() -> LinkDb {
        LinkDb::default()
    }

    /// Interns a URL, returning its id.
    pub fn intern(&mut self, url: &Url) -> u32 {
        if let Some(&id) = self.ids.get(url) {
            return id;
        }
        let id = self.urls.len() as u32;
        self.ids.insert(url.clone(), id);
        self.urls.push(url.clone());
        self.edges.push(Vec::new());
        id
    }

    /// Records the outlinks of a page.
    pub fn add_links(&mut self, from: &Url, targets: &[Url]) {
        let fid = self.intern(from);
        let mut out: Vec<u32> = targets.iter().map(|t| self.intern(t)).collect();
        out.sort_unstable();
        out.dedup();
        self.edges[fid as usize] = out;
        self.sources.push(fid);
    }

    pub fn len(&self) -> usize {
        self.urls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    pub fn url(&self, id: u32) -> &Url {
        &self.urls[id as usize]
    }

    /// Adjacency lists over interned ids (input to PageRank).
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.edges
    }

    /// Where the logs stand now.
    pub(crate) fn cursor(&self) -> LinkCursor {
        LinkCursor { urls: self.urls.len(), sources: self.sources.len() }
    }

    /// Writes what changed since `since`: the URLs interned since, then
    /// each page whose links were recorded since, with its outlinks now.
    /// Since the default cursor this is the whole graph.
    pub(crate) fn write_since(&self, since: &LinkCursor, w: &mut Writer) {
        let urls = &self.urls[since.urls..];
        w.usize(urls.len());
        for url in urls {
            url.encode(w);
        }
        let sources = &self.sources[since.sources..];
        w.usize(sources.len());
        for &fid in sources {
            w.u32(fid);
            self.edges[fid as usize].encode(w);
        }
    }

    /// Replays what [`LinkDb::write_since`] wrote onto this graph. A URL
    /// already interned or an id out of range is an error.
    pub(crate) fn apply(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let n = r.usize()?;
        self.urls.reserve(presize::<Url>(n, r));
        for _ in 0..n {
            let url = Url::decode(r)?;
            if self.ids.contains_key(&url) {
                return Err(CodecError::Mismatch {
                    what: "link URL interned twice",
                    claimed: self.urls.len() as u64,
                    sealed: u64::from(self.ids[&url]),
                });
            }
            self.intern(&url);
        }
        let len = self.urls.len() as u64;
        let in_range = |id: u32| match u64::from(id) < len {
            true => Ok(id),
            false => Err(CodecError::Oversize { what: "link URL id", value: u64::from(id) }),
        };
        for _ in 0..r.usize()? {
            let fid = in_range(r.u32()?)?;
            let targets: Vec<u32> = Snapshot::decode(r)?;
            for &t in &targets {
                in_range(t)?;
            }
            self.edges[fid as usize] = targets;
            self.sources.push(fid);
        }
        Ok(())
    }

    /// The whole graph: [`LinkDb::write_since`] the default cursor.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        self.write_since(&LinkCursor::default(), w);
    }

    /// Inverse of [`LinkDb::encode_snapshot`].
    pub fn decode_snapshot(r: &mut Reader<'_>) -> Result<LinkDb, CodecError> {
        let mut db = LinkDb::default();
        db.apply(r)?;
        Ok(db)
    }

    /// Groups nodes by host: returns (group id per node, host names).
    pub fn host_groups(&self) -> (Vec<u32>, Vec<String>) {
        let mut host_ids: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut groups = Vec::with_capacity(self.urls.len());
        for url in &self.urls {
            let next_id = names.len() as u32;
            let id = *host_ids.entry(url.host()).or_insert_with(|| {
                names.push(url.host().to_string());
                next_id
            });
            groups.push(id);
        }
        (groups, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(host: &str, path: &str) -> Url {
        Url::new(host, path)
    }

    #[test]
    fn interning_is_stable() {
        let mut db = LinkDb::new();
        let a = db.intern(&u("a.example", "/1"));
        let b = db.intern(&u("a.example", "/2"));
        assert_ne!(a, b);
        assert_eq!(db.intern(&u("a.example", "/1")), a);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn links_build_adjacency() {
        let mut db = LinkDb::new();
        let from = u("a.example", "/");
        db.add_links(&from, &[u("b.example", "/x"), u("c.example", "/y")]);
        assert_eq!(db.len(), 3);
        let fid = db.intern(&from);
        assert_eq!(db.adjacency()[fid as usize].len(), 2);
    }

    #[test]
    fn duplicate_targets_deduped() {
        let mut db = LinkDb::new();
        let from = u("a.example", "/");
        let t = u("b.example", "/x");
        db.add_links(&from, &[t.clone(), t.clone()]);
        let fid = db.intern(&from);
        assert_eq!(db.adjacency()[fid as usize].len(), 1);
    }

    #[test]
    fn host_grouping() {
        let mut db = LinkDb::new();
        db.add_links(&u("a.example", "/"), &[u("b.example", "/x"), u("a.example", "/y")]);
        let (groups, names) = db.host_groups();
        assert_eq!(names.len(), 2);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], groups[2], "same host same group");
    }

    #[test]
    fn pagerank_over_linkdb() {
        let mut db = LinkDb::new();
        // b and c both link to a
        db.add_links(&u("b.example", "/"), &[u("a.example", "/")]);
        db.add_links(&u("c.example", "/"), &[u("a.example", "/")]);
        let scores = websift_web::pagerank(db.adjacency(), 0.85, 30);
        let aid = db.intern(&u("a.example", "/")) as usize;
        for (i, &s) in scores.iter().enumerate() {
            if i != aid {
                assert!(scores[aid] > s);
            }
        }
    }
}
