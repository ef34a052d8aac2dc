//! `repo_lint` — workspace determinism lints as a CI gate.
//!
//! Scans every `.rs` file in the workspace (excluding `vendor/` and
//! `target/`) for the rules in `websift_analyze::lint` and prints
//! `file:line: [rule] message` findings. Exits non-zero when anything is
//! flagged, so `ci.sh` can use it as a hard gate.
//!
//! Usage: `repo_lint [workspace-root]` (defaults to the workspace this
//! binary was built from).

use std::path::PathBuf;
use websift_analyze::lint::{check_lists, lint_workspace};

fn main() {
    let root = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| {
        // crates/analyze -> workspace root
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });
    let root = root.canonicalize().unwrap_or(root);

    if let Err(msg) = check_lists(&root) {
        eprintln!("repo_lint: {msg}");
        std::process::exit(1);
    }

    let findings = lint_workspace(&root);
    if findings.is_empty() {
        println!("repo_lint: workspace clean ({})", root.display());
        return;
    }
    for f in &findings {
        println!("{f}");
    }
    eprintln!("repo_lint: {} finding(s)", findings.len());
    std::process::exit(1);
}
