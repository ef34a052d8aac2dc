//! MIME type detection (extension heuristics + content sniffing).
//!
//! The paper singles this out as an open problem: "Large files downloaded
//! during crawl are often not textual but embedded presentation slides or
//! formatted documents, which were wrongly classified as plain textual ...
//! detecting MIME-types usually is carried out by regular expression
//! matching on the file name extension or by analyzing the first n bytes of
//! a document" (they used Apache Tika with "a handful [of] common
//! MIME-types"). This module implements exactly that class of detector —
//! extension table plus magic-byte sniffing — including its documented
//! blind spots (e.g. binary payloads served under a `.html` path).

/// The MIME classes the crawler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MimeType {
    Html,
    PlainText,
    Pdf,
    Image,
    Archive,
    Binary,
    Unknown,
}

impl MimeType {
    /// Is this a textual type the pipeline can analyze?
    pub fn is_textual(self) -> bool {
        matches!(self, MimeType::Html | MimeType::PlainText)
    }
}

/// Extension-based guess from the URL path.
pub fn mime_from_extension(path: &str) -> MimeType {
    let lower = path.to_lowercase();
    let ext = lower.rsplit('.').next().unwrap_or("");
    match ext {
        "html" | "htm" | "php" | "asp" | "jsp" => MimeType::Html,
        "txt" | "text" | "md" => MimeType::PlainText,
        "pdf" => MimeType::Pdf,
        "jpg" | "jpeg" | "png" | "gif" | "bmp" | "svg" => MimeType::Image,
        "zip" | "gz" | "tar" | "ppt" | "pptx" | "doc" | "docx" | "xls" => MimeType::Archive,
        "exe" | "bin" | "iso" => MimeType::Binary,
        _ => MimeType::Unknown,
    }
}

/// Magic-byte sniffing over the first bytes of the body, Tika-style.
pub fn sniff_magic(body: &[u8]) -> MimeType {
    if body.starts_with(b"%PDF") {
        return MimeType::Pdf;
    }
    if body.starts_with(b"\x89PNG") || body.starts_with(b"GIF8") || body.starts_with(b"\xff\xd8\xff")
    {
        return MimeType::Image;
    }
    if body.starts_with(b"PK\x03\x04") || body.starts_with(b"\x1f\x8b") {
        return MimeType::Archive;
    }
    let head: Vec<u8> = body.iter().take(512).copied().collect();
    let head_lower: Vec<u8> = head.iter().map(u8::to_ascii_lowercase).collect();
    if contains(&head_lower, b"<!doctype html") || contains(&head_lower, b"<html") {
        return MimeType::Html;
    }
    // Heuristic text check: mostly printable ASCII/UTF-8 in the prefix.
    if !head.is_empty() {
        let printable = head
            .iter()
            .filter(|&&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7f).contains(&b) || b >= 0x80)
            .count();
        if printable as f64 / head.len() as f64 > 0.92 {
            // could still be HTML without a doctype
            return if contains(&head_lower, b"<p>") || contains(&head_lower, b"<div") {
                MimeType::Html
            } else {
                MimeType::PlainText
            };
        }
        return MimeType::Binary;
    }
    MimeType::Unknown
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Combined detection: sniff the content, fall back to the extension for
/// ambiguous prefixes. This mirrors the precedence real detectors use and
/// inherits their weakness: a document whose *prefix* looks textual is
/// classified textual even if the tail is an embedded binary object.
pub fn sniff_mime(path: &str, body: &[u8]) -> MimeType {
    match sniff_magic(body) {
        MimeType::Unknown => mime_from_extension(path),
        found => found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_table() {
        assert_eq!(mime_from_extension("/a/b/page.html"), MimeType::Html);
        assert_eq!(mime_from_extension("/x.pdf"), MimeType::Pdf);
        assert_eq!(mime_from_extension("/x.PNG"), MimeType::Image);
        assert_eq!(mime_from_extension("/slides.pptx"), MimeType::Archive);
        assert_eq!(mime_from_extension("/no-extension"), MimeType::Unknown);
    }

    #[test]
    fn magic_bytes_win_over_extension() {
        assert_eq!(sniff_mime("/fake.html", b"%PDF-1.4 junk"), MimeType::Pdf);
        assert_eq!(
            sniff_mime("/fake.txt", b"\x89PNG\r\n\x1a\n...."),
            MimeType::Image
        );
    }

    #[test]
    fn html_detection() {
        assert_eq!(sniff_magic(b"<!DOCTYPE html><html>..."), MimeType::Html);
        assert_eq!(sniff_magic(b"  <HTML><body>"), MimeType::Html);
        assert_eq!(sniff_magic(b"<div class=x>no doctype</div>"), MimeType::Html);
    }

    #[test]
    fn plain_text_detection() {
        assert_eq!(
            sniff_magic(b"Just some ordinary prose about genes."),
            MimeType::PlainText
        );
    }

    #[test]
    fn binary_junk_detected() {
        let junk: Vec<u8> = (0u8..=255).cycle().take(600).collect();
        assert_eq!(sniff_magic(&junk), MimeType::Binary);
    }

    #[test]
    fn blind_spot_textual_prefix_with_binary_tail() {
        // The documented failure: an embedded-slides page with a textual
        // prefix is classified textual.
        let mut body = b"<html><body>download our slides".to_vec();
        body.extend(std::iter::repeat_n(0u8, 10_000));
        assert_eq!(sniff_mime("/slides.html", &body), MimeType::Html);
    }

    #[test]
    fn textual_predicate() {
        assert!(MimeType::Html.is_textual());
        assert!(MimeType::PlainText.is_textual());
        assert!(!MimeType::Pdf.is_textual());
        assert!(!MimeType::Binary.is_textual());
    }

    #[test]
    fn empty_body_is_unknown_then_extension() {
        assert_eq!(sniff_mime("/x.html", b""), MimeType::Html);
        assert_eq!(sniff_mime("/x", b""), MimeType::Unknown);
    }
}
