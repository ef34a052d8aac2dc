//! A minimal URL type sufficient for crawling the simulated web.

use std::fmt;

/// An absolute `http` URL: host plus path (no scheme variations, query
/// strings folded into the path).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    host: String,
    path: String,
}

/// URL parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    MissingScheme,
    EmptyHost,
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::MissingScheme => write!(f, "missing http:// scheme"),
            UrlError::EmptyHost => write!(f, "empty host"),
        }
    }
}

impl std::error::Error for UrlError {}

/// URLs participate in crawl checkpoints (frontier, status store,
/// LinkDB). Encoded as raw parts; `host` is stored lowercased and
/// `path` with its leading `/`, so re-encoding a decoded URL is
/// byte-identical.
impl websift_resilience::Snapshot for Url {
    fn encode(&self, w: &mut websift_resilience::Writer) {
        w.str(&self.host);
        w.str(&self.path);
    }

    fn decode(
        r: &mut websift_resilience::Reader<'_>,
    ) -> Result<Url, websift_resilience::CodecError> {
        let host = r.str()?;
        let path = r.str()?;
        Ok(Url { host, path })
    }
}

impl Url {
    /// Parses an absolute URL. Accepts `http://` and `https://`.
    pub fn parse(s: &str) -> Result<Url, UrlError> {
        let rest = s
            .strip_prefix("http://")
            .or_else(|| s.strip_prefix("https://"))
            .ok_or(UrlError::MissingScheme)?;
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host.is_empty() {
            return Err(UrlError::EmptyHost);
        }
        Ok(Url {
            host: host.to_lowercase(),
            path: if path.is_empty() { "/".into() } else { path.into() },
        })
    }

    /// Builds a URL from parts. `path` gets a leading `/` if missing.
    pub fn new(host: &str, path: &str) -> Url {
        let path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        Url {
            host: host.to_lowercase(),
            path,
        }
    }

    pub fn host(&self) -> &str {
        &self.host
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// Resolves a link found on this page: absolute URLs parse directly,
    /// host-relative (`/x`) and page-relative (`x`) resolve against `self`.
    pub fn join(&self, link: &str) -> Result<Url, UrlError> {
        if link.starts_with("http://") || link.starts_with("https://") {
            return Url::parse(link);
        }
        if let Some(rest) = link.strip_prefix('/') {
            return Ok(Url::new(&self.host, &format!("/{rest}")));
        }
        // page-relative: resolve against the parent directory
        let dir = match self.path.rfind('/') {
            Some(i) => &self.path[..=i],
            None => "/",
        };
        Ok(Url::new(&self.host, &format!("{dir}{link}")))
    }

    /// The registrable "domain" used for per-domain statistics (here the
    /// full host, since the simulated web has flat hostnames).
    pub fn domain(&self) -> &str {
        &self.host
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://{}{}", self.host, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_urls() {
        let u = Url::parse("http://cancer.example/info/page1").unwrap();
        assert_eq!(u.host(), "cancer.example");
        assert_eq!(u.path(), "/info/page1");
        assert_eq!(u.to_string(), "http://cancer.example/info/page1");
    }

    #[test]
    fn parses_https_and_bare_host() {
        let u = Url::parse("https://x.example").unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn rejects_bad_urls() {
        assert_eq!(Url::parse("ftp://x/"), Err(UrlError::MissingScheme));
        assert_eq!(Url::parse("http:///p"), Err(UrlError::EmptyHost));
    }

    #[test]
    fn host_is_lowercased() {
        let u = Url::parse("http://CANCER.Example/P").unwrap();
        assert_eq!(u.host(), "cancer.example");
        assert_eq!(u.path(), "/P");
    }

    #[test]
    fn join_absolute_and_relative() {
        let base = Url::parse("http://a.example/dir/page").unwrap();
        assert_eq!(
            base.join("http://b.example/x").unwrap().host(),
            "b.example"
        );
        assert_eq!(base.join("/root").unwrap().path(), "/root");
        assert_eq!(base.join("sibling").unwrap().path(), "/dir/sibling");
    }

    #[test]
    fn urls_hash_and_order() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Url::new("a.example", "/1"));
        set.insert(Url::new("a.example", "/1"));
        set.insert(Url::new("a.example", "/2"));
        assert_eq!(set.len(), 2);
    }
}
