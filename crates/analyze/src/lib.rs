//! Diagnostics core for websift's static analyses.
//!
//! The paper's costliest pitfalls — the OpenNLP 1.4-vs-1.5 class-loader
//! conflict, operators applied before the annotations they read existed,
//! flows admitted that could never fit worker memory — were all discovered
//! at *runtime*, after hours of cluster time. Every one of them is
//! statically decidable from the operators' semantic annotations. This
//! crate holds the shared diagnostic vocabulary those analyses speak:
//!
//! - [`Diagnostic`] — a structured finding (`code`, `severity`, plan
//!   `node`, 1-based script `line`, human message);
//! - deterministic ordering ([`sort_diagnostics`]) and JSON export
//!   ([`diagnostics_to_json`]) through the hand-rolled deterministic
//!   writer, so diagnostic dumps are byte-stable across runs;
//! - [`lint`] — the workspace source lints (wall-clock, hash-iteration,
//!   untrusted-input `unwrap`) behind the `repo_lint` binary;
//! - [`lattice`] — the abstract domains (field presence/type lattices,
//!   cost-envelope intervals) the field-flow plan analysis interprets into.
//!
//! The plan analyzer itself lives in `websift-flow::analyze` (it needs the
//! plan and cluster types); this crate stays dependency-light so any layer
//! can emit diagnostics.

pub mod lattice;
pub mod lint;

use websift_observe::json::{array, ObjectWriter};

/// How bad a finding is. `Error` diagnostics reject a plan; `Warning`
/// diagnostics are advisory (dead writes, unreachable nodes, unused
/// variables); `Info` diagnostics surface silent behaviour the author
/// may not have intended (a closure-built operator keeping its stage off
/// the worker shards). Declaration order gives `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding from a static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code, e.g. `WS001` (see DESIGN.md for the index).
    pub code: String,
    pub severity: Severity,
    /// Plan node the finding anchors to, when one exists.
    pub node: Option<usize>,
    /// 1-based Meteor script line, when the plan came from a script.
    pub line: Option<usize>,
    pub message: String,
}

impl Diagnostic {
    pub fn new(code: &str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            node: None,
            line: None,
            message: message.into(),
        }
    }

    pub fn error(code: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, message)
    }

    pub fn warning(code: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Warning, message)
    }

    pub fn info(code: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Info, message)
    }

    pub fn with_node(mut self, node: usize) -> Diagnostic {
        self.node = Some(node);
        self
    }

    pub fn with_line(mut self, line: usize) -> Diagnostic {
        self.line = Some(line);
        self
    }

    /// Renders the diagnostic as a JSON object; absent `node`/`line` are
    /// omitted rather than emitted as `null`.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("code", &self.code).str("severity", self.severity.as_str());
        if let Some(node) = self.node {
            w.u64("node", node as u64);
        }
        if let Some(line) = self.line {
            w.u64("line", line as u64);
        }
        w.str("message", &self.message).finish()
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        } else if let Some(node) = self.node {
            write!(f, " node {node}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Sorts diagnostics into the canonical deterministic order: plan order
/// first (diagnostics without a node sort last), then code, then message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let ka = (a.node.unwrap_or(usize::MAX), a.line.unwrap_or(usize::MAX));
        let kb = (b.node.unwrap_or(usize::MAX), b.line.unwrap_or(usize::MAX));
        ka.cmp(&kb)
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Renders a slice of diagnostics as a JSON array (compact, byte-stable
/// for equal inputs).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    array(diags.iter().map(Diagnostic::to_json))
}

/// True when any diagnostic is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_omits_absent_fields() {
        let d = Diagnostic::error("WS001", "field 'x' missing");
        assert_eq!(
            d.to_json(),
            r#"{"code":"WS001","severity":"error","message":"field 'x' missing"}"#
        );
        let d = d.with_node(3).with_line(7);
        assert_eq!(
            d.to_json(),
            r#"{"code":"WS001","severity":"error","node":3,"line":7,"message":"field 'x' missing"}"#
        );
    }

    #[test]
    fn sorting_is_canonical_and_stable() {
        let mut diags = vec![
            Diagnostic::warning("WS006", "b").with_node(5),
            Diagnostic::error("WS001", "a").with_node(2),
            Diagnostic::error("WS007", "cluster-wide"),
            Diagnostic::warning("WS003", "a").with_node(2),
        ];
        sort_diagnostics(&mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["WS001", "WS003", "WS006", "WS007"]);
        // re-sorting a shuffled clone yields identical bytes
        let mut again = vec![diags[3].clone(), diags[0].clone(), diags[2].clone(), diags[1].clone()];
        sort_diagnostics(&mut again);
        assert_eq!(diagnostics_to_json(&again), diagnostics_to_json(&diags));
    }

    #[test]
    fn severity_ranks_and_displays() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert!(has_errors(&[Diagnostic::error("WS002", "x")]));
        assert!(!has_errors(&[Diagnostic::warning("WS003", "x")]));
        assert!(!has_errors(&[Diagnostic::info("WS017", "x")]));
        let d = Diagnostic::warning("WS005", "unused").with_line(4);
        assert_eq!(d.to_string(), "warning [WS005] line 4: unused");
        let d = Diagnostic::info("WS017", "pinned stage").with_node(2);
        assert_eq!(d.to_string(), "info [WS017] node 2: pinned stage");
    }
}
