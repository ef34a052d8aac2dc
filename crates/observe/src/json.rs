//! A tiny hand-rolled JSON writer.
//!
//! The workspace has no serialization library: the JSONL trace export
//! and the bench harness's `BENCH_RESULTS.json` write JSON through these
//! helpers. Output is deterministic: strings
//! escape the same way everywhere, and floats format via Rust's
//! shortest-roundtrip `Display`, which is a pure function of the bit
//! pattern.

use std::fmt::Write as _;

/// Appends a JSON string literal (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number for `v`; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Returns the JSON encoding of a string (convenience over
/// [`write_str`]).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Builder for a single JSON object; fields appear in insertion order.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    fields: usize,
}

impl ObjectWriter {
    pub fn new() -> ObjectWriter {
        ObjectWriter { buf: String::from("{"), fields: 0 }
    }

    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.buf.push(',');
        }
        self.fields += 1;
        write_str(&mut self.buf, key);
        self.buf.push(':');
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.buf, value);
        self
    }

    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        write_f64(&mut self.buf, value);
        self
    }

    /// Inserts pre-rendered JSON (an array or nested object) verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

/// Renders an array of pre-rendered JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Renders an array of JSON string literals.
pub fn str_array<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    array(items.into_iter().map(escape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("héllo"), "\"héllo\"");
    }

    #[test]
    fn floats_format() {
        let mut s = String::new();
        write_f64(&mut s, 1.5);
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "1.5null");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let obj = ObjectWriter::new()
            .str("name", "fetch")
            .u64("count", 3)
            .f64("secs", 0.25)
            .raw("tags", &str_array(["a", "b"]))
            .finish();
        assert_eq!(
            obj,
            r#"{"name":"fetch","count":3,"secs":0.25,"tags":["a","b"]}"#
        );
        assert_eq!(array(vec!["1".to_string(), "2".to_string()]), "[1,2]");
    }
}
