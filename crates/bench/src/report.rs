//! Result-table rendering shared by the experiment binaries.

use serde::Serialize;
use websift_observe::json::{array, str_array, ObjectWriter};

/// One experiment's outcome: an identifier matching the paper (e.g.
/// "Table 4"), plus measured rows and free-form notes comparing against the
/// paper's reported values.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

impl ExperimentResult {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> ExperimentResult {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the result as a GitHub-flavoured markdown table with notes.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&fmt_table(&self.headers, &self.rows));
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }

    /// Renders the result as a JSON object (`{id, title, headers, rows,
    /// notes}`). The vendored `serde` is an inert stub, so this goes
    /// through `websift-observe`'s deterministic writer.
    pub fn to_json(&self) -> String {
        ObjectWriter::new()
            .str("id", &self.id)
            .str("title", &self.title)
            .raw("headers", &str_array(self.headers.iter().map(String::as_str)))
            .raw(
                "rows",
                &array(
                    self.rows
                        .iter()
                        .map(|row| str_array(row.iter().map(String::as_str))),
                ),
            )
            .raw("notes", &str_array(self.notes.iter().map(String::as_str)))
            .finish()
    }
}

/// Renders a slice of results as a JSON array.
pub fn results_to_json(results: &[ExperimentResult]) -> String {
    array(results.iter().map(ExperimentResult::to_json))
}

/// The host's logical core count, stamped into the wall-clock bench JSON
/// payloads so measured QPS/throughput numbers carry the hardware they
/// were taken on. The value is bench metadata only — it never sizes a
/// thread pool here and never reaches simulated seconds or any
/// deterministic surface.
pub fn host_logical_cores() -> u64 {
    // lint:allow(nondet_parallelism): stamped into bench metadata JSON only; never feeds simulated output or digests
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0)
}

/// `git rev-parse --short HEAD` of the working directory, `"unknown"`
/// when git or the repository is not there.
fn git_rev() -> String {
    match std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// The provenance every JSON payload bound for a committed file
/// (`BENCH_RESULTS.json`, `BENCH_THROUGHPUT.json`, `BENCH_SHUFFLE.json`)
/// carries: which commit measured it, on how many cores, at what size.
pub fn stamp<'a>(payload: &'a mut ObjectWriter, workload: &str) -> &'a mut ObjectWriter {
    payload
        .str("git_rev", &git_rev())
        .u64("host_logical_cores", host_logical_cores())
        .str("workload", workload)
}

/// True when the process was invoked with `--json` — the experiment
/// binaries switch from markdown tables to machine-readable output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Prints `results` in the format selected by the command line: markdown
/// tables by default, one consolidated JSON array under `--json`.
pub fn emit(results: &[ExperimentResult]) {
    if json_mode() {
        println!("{}", results_to_json(results));
    } else {
        for r in results {
            println!("{}", r.render());
        }
    }
}

/// Formats a markdown table with column alignment.
pub fn fmt_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        let mut padded = row.clone();
        padded.resize(ncols, String::new());
        out.push_str(&fmt_row(&padded, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_table_with_notes() {
        let mut r = ExperimentResult::new("Table X", "demo", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.note("paper reports 3");
        let s = r.render();
        assert!(s.contains("## Table X"));
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("> paper reports 3"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_wrong_arity() {
        let mut r = ExperimentResult::new("T", "t", &["a"]);
        r.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn stamp_carries_rev_cores_and_workload() {
        let json = stamp(ObjectWriter::new().str("experiment", "demo"), "7 docs").finish();
        assert!(json.starts_with("{\"experiment\":\"demo\",\"git_rev\":\""), "{json}");
        assert!(json.contains("\"host_logical_cores\":"));
        assert!(json.ends_with("\"workload\":\"7 docs\"}"), "{json}");
    }

    #[test]
    fn table_alignment_pads_cells() {
        let t = fmt_table(
            &["col".to_string(), "x".to_string()],
            &[vec!["longvalue".to_string(), "1".to_string()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
