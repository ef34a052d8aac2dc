//! The document pre-selection filter chain: MIME type → length → language.
//!
//! "Document pre-selection was very effective: MIME-type filtering
//! decreased the number of documents to be analyzed by 9.5%, language
//! filtering by 14%, and document length filtering by 17%." The chain below
//! applies the same three filters in a configurable order and keeps the
//! per-filter counters those percentages are computed from.

use serde::Serialize;
use websift_text::LanguageId;
use websift_web::mime::{sniff_mime, MimeType};

/// Why a document was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RejectReason {
    Mime(MimeType),
    TooShort,
    TooLong,
    NonEnglish,
}

/// Filter chain configuration.
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Minimum net-text length in characters.
    pub min_chars: usize,
    /// Maximum raw length in bytes ("web pages are first filtered to
    /// exclude extremely long documents").
    pub max_bytes: usize,
}

impl Default for FilterConfig {
    fn default() -> FilterConfig {
        FilterConfig {
            min_chars: 400,
            max_bytes: 4_000_000,
        }
    }
}

/// Per-filter rejection counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FilterStats {
    pub seen: u64,
    pub mime_rejected: u64,
    pub length_rejected: u64,
    pub language_rejected: u64,
    pub passed: u64,
}

impl FilterStats {
    pub fn merge(&mut self, other: &FilterStats) {
        self.seen += other.seen;
        self.mime_rejected += other.mime_rejected;
        self.length_rejected += other.length_rejected;
        self.language_rejected += other.language_rejected;
        self.passed += other.passed;
    }

    /// Rejection fractions (mime, length, language) of everything seen —
    /// the paper's 9.5 % / 17 % / 14 % figures.
    pub fn reduction_fractions(&self) -> (f64, f64, f64) {
        let n = self.seen.max(1) as f64;
        (
            self.mime_rejected as f64 / n,
            self.length_rejected as f64 / n,
            self.language_rejected as f64 / n,
        )
    }
}

impl websift_resilience::Snapshot for FilterStats {
    fn encode(&self, w: &mut websift_resilience::Writer) {
        w.u64(self.seen);
        w.u64(self.mime_rejected);
        w.u64(self.length_rejected);
        w.u64(self.language_rejected);
        w.u64(self.passed);
    }

    fn decode(
        r: &mut websift_resilience::Reader<'_>,
    ) -> Result<FilterStats, websift_resilience::CodecError> {
        Ok(FilterStats {
            seen: r.u64()?,
            mime_rejected: r.u64()?,
            length_rejected: r.u64()?,
            language_rejected: r.u64()?,
            passed: r.u64()?,
        })
    }
}

/// The filter chain. Stateless apart from counters.
#[derive(Debug, Default)]
pub struct FilterChain {
    config: FilterConfig,
    langid: LanguageId,
    stats: FilterStats,
}

impl FilterChain {
    pub fn new(config: FilterConfig) -> FilterChain {
        FilterChain {
            config,
            langid: LanguageId::new(),
            stats: FilterStats::default(),
        }
    }

    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Restores counters from a crawl checkpoint, so a resumed crawl's
    /// filter statistics match an uninterrupted run's.
    pub fn restore_stats(&mut self, stats: FilterStats) {
        self.stats = stats;
    }

    /// Stage 1 (runs *before* boilerplate extraction, as in Fig. 1): MIME
    /// sniffing plus the raw-size bound. Counts the page as seen.
    pub fn check_mime(&mut self, path: &str, body: &[u8]) -> Result<(), RejectReason> {
        self.stats.seen += 1;
        let mime = sniff_mime(path, body);
        if !mime.is_textual() {
            self.stats.mime_rejected += 1;
            return Err(RejectReason::Mime(mime));
        }
        if body.len() > self.config.max_bytes {
            self.stats.length_rejected += 1;
            return Err(RejectReason::TooLong);
        }
        Ok(())
    }

    /// Stage 2 (after boilerplate extraction): net-text length and
    /// language. Only call for pages that passed [`FilterChain::check_mime`].
    pub fn check_text(&mut self, net_text: &str) -> Result<(), RejectReason> {
        // stops counting at the bound instead of walking the whole text
        if net_text.chars().take(self.config.min_chars).count() < self.config.min_chars {
            self.stats.length_rejected += 1;
            return Err(RejectReason::TooShort);
        }
        if !self.langid.is_english(net_text) {
            self.stats.language_rejected += 1;
            return Err(RejectReason::NonEnglish);
        }
        self.stats.passed += 1;
        Ok(())
    }

    /// Applies the whole chain in one call (convenience for callers that
    /// already have the net text).
    pub fn check(&mut self, path: &str, body: &[u8], net_text: &str) -> Result<(), RejectReason> {
        self.check_mime(path, body)?;
        self.check_text(net_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGLISH: &str = "This is a long enough English paragraph about the treatment of \
        disease in patients with the new drug, which the study showed to be effective for \
        most of the people who took part in the trial over several weeks of treatment. \
        The researchers measured the outcomes carefully and compared the results between \
        the treated group and the control group in the hospital over the whole period. \
        Further work will be needed to confirm these findings in larger groups of patients \
        across many hospitals and countries before the treatment can be recommended widely.";

    fn chain() -> FilterChain {
        FilterChain::new(FilterConfig::default())
    }

    #[test]
    fn accepts_normal_english_page() {
        let mut c = chain();
        let html = format!("<html><body><p>{ENGLISH}</p></body></html>");
        assert!(c.check("/x.html", html.as_bytes(), ENGLISH).is_ok());
        assert_eq!(c.stats().passed, 1);
    }

    #[test]
    fn rejects_binary_payload() {
        let mut c = chain();
        let mut pdf = b"%PDF-1.4".to_vec();
        pdf.extend([0u8; 100]);
        assert_eq!(
            c.check("/x.html", &pdf, ""),
            Err(RejectReason::Mime(MimeType::Pdf))
        );
        assert_eq!(c.stats().mime_rejected, 1);
    }

    #[test]
    fn rejects_short_and_huge_documents() {
        let mut c = chain();
        assert_eq!(
            c.check("/x.html", b"<html><body>hi</body></html>", "hi"),
            Err(RejectReason::TooShort)
        );
        let huge = vec![b'a'; 5_000_000];
        assert_eq!(c.check("/y.html", &huge, ENGLISH), Err(RejectReason::TooLong));
        assert_eq!(c.stats().length_rejected, 2);
    }

    #[test]
    fn length_bound_counts_chars_not_bytes() {
        let mut c = FilterChain::new(FilterConfig {
            min_chars: 5,
            max_bytes: 1000,
        });
        assert_eq!(c.check_text("éééé"), Err(RejectReason::TooShort)); // 8 bytes
        assert_eq!(c.check_text("ééééé"), Err(RejectReason::NonEnglish));
        let mut c = FilterChain::new(FilterConfig {
            min_chars: 0,
            max_bytes: 1000,
        });
        assert_eq!(c.check_text(""), Err(RejectReason::NonEnglish));
        assert_eq!(c.stats().length_rejected, 0);
    }

    #[test]
    fn rejects_non_english() {
        let mut c = chain();
        let german = "Die Behandlung der Krankheit mit dem neuen Medikament war bei den \
            meisten Patienten in der Studie wirksam und die Forscher haben die Ergebnisse \
            sorgfältig gemessen und zwischen den Gruppen verglichen über den gesamten \
            Zeitraum der Untersuchung in der Klinik und darüber hinaus in weiteren Studien \
            mit vielen weiteren Patienten aus unterschiedlichen Ländern und Regionen der Welt \
            um die Ergebnisse dieser wichtigen Untersuchung unabhängig bestätigen zu können";
        let html = format!("<html><body><p>{german}</p></body></html>");
        assert_eq!(
            c.check("/x.html", html.as_bytes(), german),
            Err(RejectReason::NonEnglish)
        );
    }

    #[test]
    fn counters_accumulate_and_fractions_divide_by_seen() {
        let mut c = chain();
        let html = format!("<html><body><p>{ENGLISH}</p></body></html>");
        let _ = c.check("/a.html", html.as_bytes(), ENGLISH);
        let _ = c.check("/b.html", b"%PDF-1.4 xx", "");
        let _ = c.check("/c.html", b"<html><body>x</body></html>", "x");
        let s = c.stats();
        assert_eq!(s.seen, 3);
        let (m, l, _g) = s.reduction_fractions();
        assert!((m - 1.0 / 3.0).abs() < 1e-12);
        assert!((l - 1.0 / 3.0).abs() < 1e-12);
        let mut merged = FilterStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.seen, 6);
    }
}
