//! Workspace determinism lints — the source-scanning rules behind
//! `repo_lint`.
//!
//! PRs 1–2 bought byte-for-byte determinism (checkpoints, JSONL traces,
//! merged histograms) with nothing stopping the next change from silently
//! breaking it. These lints enforce the invariants at the source level:
//!
//! - **`wall_clock`** — no `Instant::now` / `SystemTime` anywhere except
//!   the files on [`WALL_CLOCK_ALLOWLIST`] (real-time measurement points),
//!   and even there every occurrence carries an inline justification;
//! - **`hash_iteration`** — in the modules that feed checkpoint, JSONL,
//!   or snapshot bytes ([`DETERMINISTIC_OUTPUT_MODULES`]), every
//!   `HashMap`/`HashSet` mention must justify (inline) why iteration
//!   order cannot reach the output — typically "keys are sorted before
//!   encoding";
//! - **`untrusted_unwrap`** — no `.unwrap()` / `.expect(` in the modules
//!   that parse untrusted input ([`UNTRUSTED_INPUT_FILES`]): a panic on a
//!   malformed script or page is a bug, not an error path;
//! - **`nondet_parallelism`** — every read of the host's core count
//!   (`available_parallelism`) must justify inline why the value can only
//!   size physical thread pools and never reaches simulated seconds, byte
//!   accounting, or any checkpoint/JSONL/digest bytes;
//! - **`lossy_cast`** — no narrowing `as` casts in the modules that
//!   encode or decode durable frames ([`CODEC_MODULES`]): a value that
//!   silently wraps at encode time replays as a *different* value, which
//!   is exactly the corruption the sealed-frame digests exist to catch —
//!   use `try_from` with a typed error instead;
//! - **`hot_loop_alloc`** — no `to_string()` / `format!(` /
//!   `String::new` inside a declared hot region (the fused-stage worker
//!   loop and the text-kernel inner loops). Hot regions are delimited in
//!   source with begin/end comment markers — `lint:hot_loop` followed by
//!   `(begin): <label>` opens one, the same prefix followed by `(end)`
//!   closes it — so the rule guards exactly the loops that were
//!   de-allocated, not whole files: a per-record allocation reintroduced
//!   there silently undoes the fast-path wins.
//!
//! The escape hatch is an inline comment on the flagged line or the line
//! directly above it:
//!
//! ```text
//! // lint:allow(<rule>): <non-empty justification>
//! ```
//!
//! An allow without a justification is itself a finding — which is also
//! how "no new allowlist entry without a justification" is enforced.
//!
//! The patterns below are spelled as `concat!` pieces so the lint does
//! not flag its own definition when it scans this file.

use std::path::{Path, PathBuf};

/// One lint finding, `file:line` addressable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

pub const RULE_WALL_CLOCK: &str = "wall_clock";
pub const RULE_HASH_ITERATION: &str = "hash_iteration";
pub const RULE_UNTRUSTED_UNWRAP: &str = "untrusted_unwrap";
pub const RULE_NONDET_PARALLELISM: &str = "nondet_parallelism";
pub const RULE_LOSSY_CAST: &str = "lossy_cast";
pub const RULE_HOT_LOOP_ALLOC: &str = "hot_loop_alloc";

const WALL_CLOCK_PATTERNS: &[&str] = &[concat!("Instant", "::now"), concat!("System", "Time")];
const HASH_PATTERNS: &[&str] = &[concat!("Hash", "Map"), concat!("Hash", "Set")];
const UNWRAP_PATTERNS: &[&str] = &[concat!(".unwrap", "()"), concat!(".expect", "(")];
const PARALLELISM_PATTERNS: &[&str] =
    &[concat!("available_", "parallelism"), concat!("num_", "cpus")];
/// Narrowing targets: a cast *to* one of these from a wider integer (or
/// from f64 to f32) can silently truncate. Widening casts (`as u64`,
/// `as f64`, `as i64`) are not flagged.
const LOSSY_CAST_PATTERNS: &[&str] = &[
    concat!(" as ", "u8"),
    concat!(" as ", "u16"),
    concat!(" as ", "u32"),
    concat!(" as ", "i8"),
    concat!(" as ", "i16"),
    concat!(" as ", "i32"),
    concat!(" as ", "f32"),
    concat!(" as ", "usize"),
    concat!(" as ", "isize"),
];
/// Per-record allocators that must not appear inside a declared hot
/// region (see [`RULE_HOT_LOOP_ALLOC`]).
const HOT_ALLOC_PATTERNS: &[&str] = &[
    concat!(".to_", "string()"),
    concat!("format", "!("),
    concat!("String", "::new"),
    concat!("String", "::from"),
    concat!(".to_", "owned()"),
];
/// Region delimiters for the hot-loop rule, assembled at runtime so this
/// file's own mentions do not open a region. A begin marker carries a
/// label naming the loop (`: fused worker`); the matching end marker
/// closes it.
const HOT_BEGIN: &str = concat!("lint:hot_loop", "(begin)");
const HOT_END: &str = concat!("lint:hot_loop", "(end)");

/// Files allowed to contain wall-clock calls, each with the justification
/// for why real time is acceptable there. Every occurrence inside these
/// files still needs its own inline `lint:allow(wall_clock)` comment; a
/// new entry here without a justification string fails the lint's own
/// self-check ([`allowlist_is_justified`]).
pub const WALL_CLOCK_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/flow/src/executor.rs",
        "wall_ms is runtime-only diagnostics, excluded from checkpoints and digests",
    ),
    (
        "crates/bench/src/experiments/scaling_exps.rs",
        "Fig-3 microbenchmarks time real tool invocations",
    ),
    (
        "crates/bench/src/experiments/recovery_exps.rs",
        "recovery experiments report real re-execution wall time",
    ),
    (
        "crates/bench/src/experiments/throughput_exps.rs",
        "the throughput harness exists to measure real wall-clock records/sec",
    ),
    (
        "crates/bench/src/experiments/serve_exps.rs",
        "the serving harness measures real query latency and wall-clock QPS",
    ),
    (
        "crates/bench/src/experiments/live_exps.rs",
        "the live harness reports real per-round crawl-to-queryable wall freshness",
    ),
    (
        "crates/bench/src/experiments/analyze_exps.rs",
        "reports the real wall cost of the static analysis itself, non-JSON mode only",
    ),
    (
        "crates/flow/src/shuffle.rs",
        "per-chunk wall_ms mirrors the executor's runtime-only diagnostics; stripped from frames' deterministic surfaces",
    ),
    (
        "crates/bench/src/experiments/shuffle_exps.rs",
        "the shuffle harness measures real scale-out records/sec across shard counts",
    ),
    (
        "benchmark/src/clock.rs",
        "the wall-clock benchmark's single clock read; every timing in benchmark/ goes through it",
    ),
];

/// Modules whose bytes end up in checkpoints, JSONL traces, or snapshots.
/// Any hash-container mention here must justify its ordering story.
pub const DETERMINISTIC_OUTPUT_MODULES: &[&str] = &[
    "crates/resilience/src/checkpoint.rs",
    "crates/resilience/src/codec.rs",
    "crates/observe/src/registry.rs",
    "crates/observe/src/trace.rs",
    "crates/observe/src/report.rs",
    "crates/observe/src/json.rs",
    "crates/bench/src/report.rs",
    "crates/serve/src/snapshot.rs",
    "crates/live/src/watermark.rs",
    "crates/live/src/incremental.rs",
    "crates/flow/src/transport.rs",
    "crates/flow/src/shuffle.rs",
    "crates/resilience/src/frame.rs",
];

/// Modules that parse untrusted input (scripts, crawled pages and their
/// net text and its tokens, shuffle frames and operator wire forms off
/// the wire, the crawl loop with its checkpoint decoder, the IE operators
/// reading annotations off records): matched by file name, panics on
/// input are forbidden.
pub const UNTRUSTED_INPUT_FILES: &[&str] = &[
    "parser.rs",
    "meteor.rs",
    "html.rs",
    "query.rs",
    "transport.rs",
    "frame.rs",
    "wire.rs",
    "ngram.rs",
    "langid.rs",
    "pos.rs",
    "crawl.rs",
    "recovery.rs",
    "ie.rs",
];

/// Modules that encode/decode durable frames (checkpoints, snapshots,
/// watermarks, retained aggregate state). Lossy `as` casts here are
/// silent frame corruption; [`RULE_LOSSY_CAST`] forbids them.
pub const CODEC_MODULES: &[&str] = &[
    "crates/resilience/src/codec.rs",
    "crates/resilience/src/checkpoint.rs",
    "crates/serve/src/snapshot.rs",
    "crates/live/src/watermark.rs",
    "crates/live/src/incremental.rs",
];

/// Returns `Some(justified)` when `line` carries an inline allow for
/// `rule`: `justified` is true when a non-empty justification follows.
fn allow_on_line(line: &str, rule: &str) -> Option<bool> {
    let marker = format!("lint:allow({rule})");
    let at = line.find(&marker)?;
    let rest = &line[at + marker.len()..];
    Some(rest.strip_prefix(':').is_some_and(|j| !j.trim().is_empty()))
}

/// Checks line `i` (0-based) of `lines` for an allow covering it: the
/// line itself or the line directly above.
fn allowed(lines: &[&str], i: usize, rule: &str) -> Option<bool> {
    allow_on_line(lines[i], rule).or_else(|| {
        if i > 0 {
            allow_on_line(lines[i - 1], rule)
        } else {
            None
        }
    })
}

fn is_comment_only(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#!") || t.starts_with("#[")
}

/// Lints one file's content. `rel` is the workspace-relative path with
/// forward slashes.
pub fn lint_file(rel: &str, content: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let test_start = lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len());
    let file_name = rel.rsplit('/').next().unwrap_or(rel);
    let wall_clock_listed = WALL_CLOCK_ALLOWLIST.iter().any(|(p, _)| *p == rel);
    let deterministic_output = DETERMINISTIC_OUTPUT_MODULES.contains(&rel);
    let untrusted = UNTRUSTED_INPUT_FILES.contains(&file_name);
    let codec = CODEC_MODULES.contains(&rel);

    let check = |findings: &mut Vec<LintFinding>,
                     i: usize,
                     rule: &'static str,
                     message: String| {
        match allowed(&lines, i, rule) {
            Some(true) => {}
            Some(false) => findings.push(LintFinding {
                rule,
                file: rel.to_string(),
                line: i + 1,
                message: format!(
                    "lint:allow({rule}) needs a justification: `// lint:allow({rule}): <reason>`"
                ),
            }),
            None => findings.push(LintFinding {
                rule,
                file: rel.to_string(),
                line: i + 1,
                message,
            }),
        }
    };

    let mut hot_region = false;
    for (i, line) in lines.iter().enumerate() {
        // Hot-region delimiters live in comments, so handle them before
        // the comment-only skip.
        if let Some(at) = line.find(HOT_BEGIN) {
            let labeled = line[at + HOT_BEGIN.len()..]
                .strip_prefix(':')
                .is_some_and(|l| !l.trim().is_empty());
            if hot_region || !labeled {
                findings.push(LintFinding {
                    rule: RULE_HOT_LOOP_ALLOC,
                    file: rel.to_string(),
                    line: i + 1,
                    message: if hot_region {
                        "nested hot_loop(begin): close the previous region first".to_string()
                    } else {
                        format!("hot_loop(begin) needs a label: `// {HOT_BEGIN}: <loop name>`")
                    },
                });
            }
            hot_region = true;
            continue;
        }
        if line.contains(HOT_END) {
            if !hot_region {
                findings.push(LintFinding {
                    rule: RULE_HOT_LOOP_ALLOC,
                    file: rel.to_string(),
                    line: i + 1,
                    message: "hot_loop(end) without a matching begin".to_string(),
                });
            }
            hot_region = false;
            continue;
        }
        if is_comment_only(line) {
            continue;
        }
        if hot_region && HOT_ALLOC_PATTERNS.iter().any(|p| line.contains(p)) {
            check(
                &mut findings,
                i,
                RULE_HOT_LOOP_ALLOC,
                "per-record allocation inside a declared hot loop: hoist it out, use \
                 reusable scratch, or justify with \
                 `// lint:allow(hot_loop_alloc): <reason>`"
                    .to_string(),
            );
        }
        // wall_clock applies to every file, test code included: a test
        // that reads the clock is a flaky test waiting to happen.
        if WALL_CLOCK_PATTERNS.iter().any(|p| line.contains(p)) {
            if wall_clock_listed {
                check(
                    &mut findings,
                    i,
                    RULE_WALL_CLOCK,
                    "wall-clock read needs an inline `// lint:allow(wall_clock): <reason>`"
                        .to_string(),
                );
            } else {
                findings.push(LintFinding {
                    rule: RULE_WALL_CLOCK,
                    file: rel.to_string(),
                    line: i + 1,
                    message: "wall-clock read outside the allowlist; deterministic code must \
                              use the simulated clock (add the file to WALL_CLOCK_ALLOWLIST in \
                              crates/analyze/src/lint.rs with a justification if real time is \
                              genuinely required)"
                        .to_string(),
                });
            }
        }
        // nondet_parallelism also applies everywhere: a core-count read in
        // test code can silently make a "deterministic" assertion
        // machine-dependent.
        if PARALLELISM_PATTERNS.iter().any(|p| line.contains(p)) {
            check(
                &mut findings,
                i,
                RULE_NONDET_PARALLELISM,
                "host core-count read: justify that the value only sizes physical thread \
                 pools and never reaches simulated output with \
                 `// lint:allow(nondet_parallelism): <reason>`"
                    .to_string(),
            );
        }
        if i >= test_start {
            continue; // remaining rules skip `#[cfg(test)]` code
        }
        if deterministic_output
            && !line.trim_start().starts_with("use ")
            && HASH_PATTERNS.iter().any(|p| line.contains(p))
        {
            check(
                &mut findings,
                i,
                RULE_HASH_ITERATION,
                "hash container in a deterministic-output module: justify why iteration \
                 order cannot reach checkpoint/JSONL/snapshot bytes with \
                 `// lint:allow(hash_iteration): <reason>`"
                    .to_string(),
            );
        }
        if untrusted && UNWRAP_PATTERNS.iter().any(|p| line.contains(p)) {
            check(
                &mut findings,
                i,
                RULE_UNTRUSTED_UNWRAP,
                "panic on untrusted input: return a typed error instead of unwrap/expect"
                    .to_string(),
            );
        }
        if codec && LOSSY_CAST_PATTERNS.iter().any(|p| line.contains(p)) {
            check(
                &mut findings,
                i,
                RULE_LOSSY_CAST,
                "lossy `as` cast in a codec module: a silently wrapped value replays as a \
                 different frame — use try_from with a typed error, or justify with \
                 `// lint:allow(lossy_cast): <reason>`"
                    .to_string(),
            );
        }
    }
    if hot_region {
        findings.push(LintFinding {
            rule: RULE_HOT_LOOP_ALLOC,
            file: rel.to_string(),
            line: lines.len(),
            message: "hot_loop(begin) region never closed with hot_loop(end)".to_string(),
        });
    }
    findings
}

/// Recursively collects `.rs` files under `root`, skipping `vendor/`,
/// `target/`, and hidden directories. Paths come back sorted so findings
/// are deterministic.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor" || name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lints every Rust source file in the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    for path in rust_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(content) = std::fs::read_to_string(&path) else { continue };
        findings.extend(lint_file(&rel, &content));
    }
    findings
}

/// Self-check: every wall-clock allowlist entry must carry a non-empty
/// justification (satisfies "fail on any new allowlist entry without a
/// justification comment").
pub fn allowlist_is_justified() -> Result<(), String> {
    for (path, why) in WALL_CLOCK_ALLOWLIST {
        if why.trim().is_empty() {
            return Err(format!("WALL_CLOCK_ALLOWLIST entry '{path}' has no justification"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Patterns are assembled at runtime so these test sources do not
    // themselves trip the workspace scan.
    fn wall(expr: &str) -> String {
        format!("let t = {}{}({expr});\n", "Instant", "::now")
    }

    #[test]
    fn wall_clock_outside_allowlist_is_flagged() {
        let findings = lint_file("crates/foo/src/lib.rs", &wall(""));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_WALL_CLOCK);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("outside the allowlist"));
    }

    #[test]
    fn wall_clock_in_allowlisted_file_still_needs_inline_allow() {
        let rel = "crates/flow/src/executor.rs";
        let bare = lint_file(rel, &wall(""));
        assert_eq!(bare.len(), 1);
        assert!(bare[0].message.contains("inline"));

        let allowed = format!("// lint:allow(wall_clock): wall_ms is runtime-only\n{}", wall(""));
        assert!(lint_file(rel, &allowed).is_empty());

        let unjustified = format!("// lint:allow(wall_clock)\n{}", wall(""));
        let findings = lint_file(rel, &unjustified);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("justification"));
    }

    #[test]
    fn hash_iteration_scoped_to_deterministic_modules() {
        let hash_line = format!("let m: {}{}<u32, u32> = Default::default();\n", "Hash", "Map");
        assert!(lint_file("crates/flow/src/executor.rs", &hash_line).is_empty());
        let findings = lint_file("crates/resilience/src/checkpoint.rs", &hash_line);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_HASH_ITERATION);
        // `use` declarations and justified lines pass
        let used = format!("use std::collections::{}{};\n", "Hash", "Map");
        assert!(lint_file("crates/resilience/src/checkpoint.rs", &used).is_empty());
        let justified = format!("{} // lint:allow(hash_iteration): sorted before encode\n",
            hash_line.trim_end());
        assert!(lint_file("crates/resilience/src/checkpoint.rs", &justified).is_empty());
    }

    #[test]
    fn untrusted_unwrap_flagged_outside_tests_only() {
        let body = format!("fn f(x: Option<u8>) -> u8 {{ x{}{} }}\n", ".unwrap", "()");
        let findings = lint_file("crates/flow/src/meteor.rs", &body);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_UNTRUSTED_UNWRAP);
        // the same code under #[cfg(test)] is fine
        let tested = format!("#[cfg(test)]\nmod tests {{\n    {body}}}\n");
        assert!(lint_file("crates/flow/src/meteor.rs", &tested).is_empty());
        // and files outside the untrusted set are fine
        assert!(lint_file("crates/flow/src/executor.rs", &body).is_empty());
    }

    #[test]
    fn allow_comment_on_previous_line_covers_the_next() {
        let content = format!("// lint:allow(untrusted_unwrap): length checked above\nlet y = x{}{};\n",
            ".unwrap", "()");
        assert!(lint_file("crates/corpus/src/html.rs", &content).is_empty());
    }

    #[test]
    fn allowlist_entries_are_justified() {
        allowlist_is_justified().unwrap();
    }

    #[test]
    fn parallelism_read_needs_justified_inline_allow() {
        let read = format!(
            "let n = std::thread::{}{}().map(usize::from).unwrap_or(8);\n",
            "available_", "parallelism"
        );
        let findings = lint_file("crates/flow/src/executor.rs", &read);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_NONDET_PARALLELISM);
        assert!(findings[0].message.contains("core-count"));

        let justified = format!(
            "// lint:allow(nondet_parallelism): physical worker cap only\n{read}"
        );
        assert!(lint_file("crates/flow/src/executor.rs", &justified).is_empty());

        let unjustified = format!("// lint:allow(nondet_parallelism)\n{read}");
        let findings = lint_file("crates/flow/src/executor.rs", &unjustified);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("justification"));
    }

    #[test]
    fn lossy_cast_scoped_to_codec_modules() {
        let narrow = format!("self.buf.push(v{}{});\n", " as ", "u8");
        // outside codec modules: fine
        assert!(lint_file("crates/flow/src/executor.rs", &narrow).is_empty());
        // inside: flagged
        let findings = lint_file("crates/resilience/src/codec.rs", &narrow);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_LOSSY_CAST);
        assert!(findings[0].message.contains("try_from"));
        // widening casts are not lossy
        let widen = format!("let n = v{}{};\n", " as ", "u64");
        assert!(lint_file("crates/resilience/src/codec.rs", &widen).is_empty());
        // the escape hatch works, and needs a justification
        let justified = format!(
            "// lint:allow(lossy_cast): value is a bool, 0 or 1 by construction\n{narrow}"
        );
        assert!(lint_file("crates/resilience/src/codec.rs", &justified).is_empty());
        let unjustified = format!("// lint:allow(lossy_cast)\n{narrow}");
        let findings = lint_file("crates/resilience/src/codec.rs", &unjustified);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("justification"));
        // test code is exempt, as for the other scoped rules
        let tested = format!("#[cfg(test)]\nmod tests {{\n    {narrow}}}\n");
        assert!(lint_file("crates/resilience/src/codec.rs", &tested).is_empty());
    }

    #[test]
    fn hot_loop_alloc_flagged_only_inside_declared_regions() {
        let begin = format!("// {}{}: fused worker", "lint:hot_loop", "(begin)");
        let end = format!("// {}{}", "lint:hot_loop", "(end)");
        let alloc = format!("let s = x{}{};\n", ".to_", "string()");

        // the same allocation outside any region is fine
        assert!(lint_file("crates/flow/src/executor.rs", &alloc).is_empty());

        // inside a region: flagged, with the scratch-reuse hint
        let hot = format!("{begin}\nfor r in chunk {{\n    {alloc}}}\n{end}\n");
        let findings = lint_file("crates/flow/src/executor.rs", &hot);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_HOT_LOOP_ALLOC);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("reusable scratch"));

        // format! and String::new are covered too
        let fmt = format!("{begin}\nlet s = {}{}\"x{{y}}\");\n{end}\n", "format", "!(");
        assert_eq!(lint_file("crates/flow/src/executor.rs", &fmt).len(), 1);
        let snew = format!("{begin}\nlet s = {}{}();\n{end}\n", "String", "::new");
        assert_eq!(lint_file("crates/flow/src/executor.rs", &snew).len(), 1);

        // the escape hatch works and demands a justification
        let justified = format!(
            "{begin}\n// lint:allow(hot_loop_alloc): cold error path\n{alloc}{end}\n"
        );
        assert!(lint_file("crates/flow/src/executor.rs", &justified).is_empty());
        let unjustified = format!("{begin}\n// lint:allow(hot_loop_alloc)\n{alloc}{end}\n");
        let findings = lint_file("crates/flow/src/executor.rs", &unjustified);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("justification"));
    }

    #[test]
    fn hot_loop_markers_must_be_labeled_and_balanced() {
        let begin = format!("// {}{}: k", "lint:hot_loop", "(begin)");
        let end = format!("// {}{}", "lint:hot_loop", "(end)");

        // begin without a label
        let bare = format!("// {}{}\n{end}\n", "lint:hot_loop", "(begin)");
        let findings = lint_file("crates/flow/src/executor.rs", &bare);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("label"));

        // end without begin
        let findings = lint_file("crates/flow/src/executor.rs", &format!("{end}\n"));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("without a matching begin"));

        // begin never closed
        let findings = lint_file("crates/flow/src/executor.rs", &format!("{begin}\n"));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("never closed"));

        // nested begin
        let nested = format!("{begin}\n{begin}\n{end}\n");
        let findings = lint_file("crates/flow/src/executor.rs", &nested);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("nested"));

        // balanced, labeled, empty region: clean
        let ok = format!("{begin}\n{end}\n");
        assert!(lint_file("crates/flow/src/executor.rs", &ok).is_empty());
    }

    #[test]
    fn parallelism_rule_covers_test_code_too() {
        let body = format!(
            "#[cfg(test)]\nmod tests {{\n    fn n() -> usize {{ {}{}().into() }}\n}}\n",
            "num_", "cpus"
        );
        let findings = lint_file("crates/flow/src/lib.rs", &body);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_NONDET_PARALLELISM);
    }
}
