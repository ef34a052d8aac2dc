//! Tools over whole sets of runs: `suite` runs every workload at several
//! seeds, each run in a fresh process; `compare` judges one set against
//! another by the benchmark's own bounds; `selfcheck` compares two sets of
//! the same binary; `check` is the smoke test behind `check.sh`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use websift::observe::json::{array, str_array, ObjectWriter};

use crate::harness::{self, RunArgs};
use crate::inputs::Sizes;
use crate::json::{self, Json};
use crate::metrics::{self, Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// One metric of one workload across the runs of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub unit: String,
    pub better: Better,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// One value per seed, in seed order.
    pub values: Vec<f64>,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub cells: BTreeMap<String, Cell>,
    pub attempted: u64,
    pub failed: u64,
    pub incorrect_runs: u64,
    /// Per seed, the digest of each pass.
    pub digests: BTreeMap<u64, Vec<String>>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    pub stamp: String,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

/// Runs this binary as a child with the benchmark contract's arguments and
/// returns its parsed result line. The child is waited for.
fn child_run(workload: &str, args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start a {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {} exited with {}: {}",
            args.seed,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    json::parse(last)
}

fn declared(trace: bool) -> Vec<(Metric, Option<f64>)> {
    if trace {
        PER_LAYER.iter().map(|m| (*m, None)).collect()
    } else {
        END_TO_END.iter().map(|(m, b)| (*m, Some(*b))).collect()
    }
}

/// Checks one result line against the contract: exactly four keys, and
/// exactly the declared metrics, each once with its unit and a finite value.
fn check_result_line(doc: &Json, trace: bool) -> Result<(), String> {
    let keys: Vec<&str> =
        doc.as_obj().ok_or("result line is not an object")?.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let reported = doc.get("metrics").and_then(Json::as_obj).ok_or("metrics is not an object")?;
    let want = declared(trace);
    if reported.len() != want.len() {
        return Err(format!("{} metrics reported, {} declared", reported.len(), want.len()));
    }
    for (m, _) in want {
        let got = reported.get(m.name).ok_or_else(|| format!("metric {} is missing", m.name))?;
        if got.get("unit").and_then(Json::as_str) != Some(m.unit) {
            return Err(format!("metric {}: unit is not {}", m.name, m.unit));
        }
        if !got.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite) {
            return Err(format!("metric {}: value is not a finite number", m.name));
        }
    }
    Ok(())
}

/// Runs every workload — or just `only` — once per seed (`seed_base`,
/// `seed_base + 1`, ...), each run a fresh process, and gathers the values
/// per metric.
pub fn run_set(
    only: Option<&str>,
    seeds: usize,
    seed_base: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunSet, String> {
    let mut set = RunSet {
        stamp: harness::stamp(
            &RunArgs { seed: seed_base, seconds, trace, smoke },
            &if smoke { Sizes::smoke() } else { Sizes::STANDARD },
        ),
        workloads: BTreeMap::new(),
    };
    if only.is_some_and(|o| WORKLOADS.iter().all(|(w, _)| *w != o)) {
        return Err(format!("unknown workload '{}'", only.unwrap_or_default()));
    }
    for (workload, _) in WORKLOADS.iter().filter(|(w, _)| only.is_none_or(|o| o == *w)) {
        let runs = set.workloads.entry(workload.to_string()).or_default();
        for (m, bound) in declared(trace) {
            runs.cells.insert(
                m.name.to_string(),
                Cell { unit: m.unit.to_string(), better: m.better, bound, values: Vec::new() },
            );
        }
        for seed in seed_base..seed_base + seeds as u64 {
            let args = RunArgs { seed, seconds, trace, smoke };
            let doc = child_run(workload, &args)?;
            check_result_line(&doc, trace).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
            runs.attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            runs.failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                runs.incorrect_runs += 1;
            }
            for (name, cell) in &mut runs.cells {
                let value =
                    doc.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
                cell.values.push(value.and_then(Json::as_f64).unwrap_or(f64::NAN));
            }
            // The run's own report carries what the result line cannot.
            let report = std::fs::read_to_string(harness::report_path(workload, &args))
                .map_err(|e| format!("{workload} seed {seed}: report not readable: {e}"))
                .and_then(|text| json::parse(&text))?;
            let digests = report.get("digests").map_or(&[][..], Json::as_arr);
            runs.digests.insert(
                seed,
                digests.iter().filter_map(Json::as_str).map(str::to_string).collect(),
            );
            eprintln!("{workload} seed {seed}: done");
        }
    }
    print_set(&set);
    Ok(set)
}

fn print_set(set: &RunSet) {
    for (workload, runs) in &set.workloads {
        println!(
            "{workload}: {} attempted, {} failed, {} incorrect runs",
            runs.attempted, runs.failed, runs.incorrect_runs
        );
        for (name, cell) in &runs.cells {
            let (q1, q3) = quartiles(&cell.values);
            let bound = cell.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            println!(
                "  {name:<34} median {:>14.4} {:<10} q1 {q1:.4} q3 {q3:.4} spread {:.4} bound {bound} n {}",
                median(&cell.values),
                cell.unit,
                spread(&cell.values),
                cell.values.len()
            );
        }
    }
}

pub fn set_json(set: &RunSet) -> String {
    let mut workloads = ObjectWriter::new();
    for (workload, runs) in &set.workloads {
        let mut cells = ObjectWriter::new();
        for (name, cell) in &runs.cells {
            let mut o = ObjectWriter::new();
            o.str("unit", &cell.unit).str("better", cell.better.as_str());
            if let Some(bound) = cell.bound {
                o.f64("bound", bound);
            }
            o.raw("values", &array(cell.values.iter().map(|v| format!("{v}"))));
            cells.raw(name, &o.finish());
        }
        let mut digests = ObjectWriter::new();
        for (seed, passes) in &runs.digests {
            digests.raw(&seed.to_string(), &str_array(passes.iter().map(String::as_str)));
        }
        workloads.raw(
            workload,
            &ObjectWriter::new()
                .u64("attempted", runs.attempted)
                .u64("failed", runs.failed)
                .u64("incorrect_runs", runs.incorrect_runs)
                .raw("digests", &digests.finish())
                .raw("metrics", &cells.finish())
                .finish(),
        );
    }
    ObjectWriter::new().raw("stamp", &set.stamp).raw("workloads", &workloads.finish()).finish()
        + "\n"
}

pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let doc = json::parse(text)?;
    let mut set = RunSet { stamp: String::new(), workloads: BTreeMap::new() };
    let workloads =
        doc.get("workloads").and_then(Json::as_obj).ok_or("set file has no workloads")?;
    for (workload, body) in workloads {
        let count = |key: &str| body.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut runs = WorkloadRuns {
            attempted: count("attempted"),
            failed: count("failed"),
            incorrect_runs: count("incorrect_runs"),
            ..WorkloadRuns::default()
        };
        for (name, cell) in
            body.get("metrics").and_then(Json::as_obj).ok_or("workload has no metrics")?
        {
            runs.cells.insert(
                name.clone(),
                Cell {
                    unit: cell.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                    better: match cell.get("better").and_then(Json::as_str) {
                        Some("higher") => Better::Higher,
                        _ => Better::Lower,
                    },
                    bound: cell.get("bound").and_then(Json::as_f64),
                    values: cell
                        .get("values")
                        .map_or(&[][..], Json::as_arr)
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                },
            );
        }
        if let Some(digests) = body.get("digests").and_then(Json::as_obj) {
            for (seed, passes) in digests {
                let seed = seed.parse().map_err(|_| format!("bad seed '{seed}' in set file"))?;
                runs.digests.insert(
                    seed,
                    passes.as_arr().iter().filter_map(Json::as_str).map(str::to_string).collect(),
                );
            }
        }
        set.workloads.insert(workload.clone(), runs);
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// "no worse" cannot be told from "worse".
    Unresolved,
}

/// Judges `change` against `base` for one bounded metric. The ratio's base
/// is `base`'s median.
pub fn judge(base: &Cell, change: &Cell) -> (f64, f64, f64, Verdict) {
    let (a, b) = (median(&base.values), median(&change.values));
    let ratio = if a == 0.0 { f64::NAN } else { b / a };
    let bound = base.bound.unwrap_or(f64::INFINITY);
    let worsening = match base.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if spread(&base.values) > bound || spread(&change.values) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (a, b, ratio, verdict)
}

/// One row per workload and bounded metric; returns whether any row is
/// worse, failures rose, a run was incorrect, or same-seed digests differ.
pub fn compare(base: &RunSet, change: &RunSet) -> bool {
    let mut bad = false;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base median", "change median", "ratio"
    );
    for (workload, a) in &base.workloads {
        let Some(b) = change.workloads.get(workload) else {
            println!("{workload}: missing from the second set");
            bad = true;
            continue;
        };
        for (name, cell) in a.cells.iter().filter(|(_, c)| c.bound.is_some()) {
            let Some(other) = b.cells.get(name) else {
                println!("{workload:<16} {name:<14} missing from the second set");
                bad = true;
                continue;
            };
            let (ma, mb, ratio, verdict) = judge(cell, other);
            bad |= verdict == Verdict::Worse;
            println!(
                "{workload:<16} {name:<14} {ma:>14.4} {mb:>14.4} {ratio:>8.4}x  {}",
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |r: &WorkloadRuns| r.failed as f64 / r.attempted.max(1) as f64;
        if share(b) > share(a) || b.incorrect_runs > 0 {
            println!(
                "{workload:<16} failed {}/{} -> {}/{}, incorrect runs {} -> {}: worse",
                a.failed, a.attempted, b.failed, b.attempted, a.incorrect_runs, b.incorrect_runs
            );
            bad = true;
        }
        // The same seed must produce the same outputs; a faster side fits
        // more passes into the window, so only the common passes compare.
        for (seed, da) in &a.digests {
            if let Some(db) = b.digests.get(seed) {
                let common = da.len().min(db.len());
                if da[..common] != db[..common] {
                    println!("{workload:<16} seed {seed}: output digests differ");
                    bad = true;
                }
            }
        }
    }
    bad
}

pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| parse_set(&t))
    };
    let (base, change) = (read(a)?, read(b)?);
    println!("ratios are change median / base median; base is {a}");
    Ok(if compare(&base, &change) { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Two full sets of the same binary, compared with the code `compare` uses.
pub fn selfcheck(
    seeds: usize,
    seed_base: u64,
    seconds: f64,
    smoke: bool,
) -> Result<ExitCode, String> {
    let first = run_set(None, seeds, seed_base, seconds, false, smoke)?;
    let second = run_set(None, seeds, seed_base, seconds, false, smoke)?;
    let dir = harness::out_dir();
    for (name, set) in [("selfcheck-a.json", &first), ("selfcheck-b.json", &second)] {
        std::fs::write(dir.join(name), set_json(set)).map_err(|e| format!("{name}: {e}"))?;
    }
    println!("ratios are second set median / first set median");
    let mut bad = compare(&first, &second);
    for set in [&first, &second] {
        for (workload, runs) in &set.workloads {
            for (name, cell) in &runs.cells {
                if cell.bound.is_some_and(|b| name != "setup_s" && spread(&cell.values) > b) {
                    println!(
                        "{workload} {name}: spread {:.4} is wider than its bound",
                        spread(&cell.values)
                    );
                    bad = true;
                }
            }
        }
    }
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `BENCHMARK.json` must be what the metric table generates, and one run of
/// every workload, traced and not, must emit exactly the declared metrics,
/// finite, with nothing failed and every oracle passing.
pub fn check(smoke: bool) -> Result<ExitCode, String> {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    if on_disk != metrics::manifest_json() {
        return Err("BENCHMARK.json differs from `-- manifest`; regenerate it".to_string());
    }
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 1,
                seconds: if smoke { 0.0 } else { metrics::RUN_SECONDS as f64 },
                trace,
                smoke,
            };
            let doc = child_run(workload, &args)?;
            check_result_line(&doc, trace).map_err(|e| format!("{workload} trace {trace}: {e}"))?;
            let failed = doc.get("failed").and_then(Json::as_f64);
            if doc.get("correct").and_then(Json::as_bool) != Some(true) || failed != Some(0.0) {
                return Err(format!(
                    "{workload} trace {trace}: oracle mismatch or failed operations ({failed:?})"
                ));
            }
            println!("{workload} trace {}: ok", u8::from(trace));
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(better: Better, bound: f64, values: &[f64]) -> Cell {
        Cell { unit: "x".into(), better, bound: Some(bound), values: values.to_vec() }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.0];
        let scaled = |f: f64| steady.map(|v| v * f);
        let base = cell(Better::Lower, 0.05, &steady);
        assert_eq!(judge(&base, &cell(Better::Lower, 0.05, &scaled(1.04))).3, Verdict::Ok);
        assert_eq!(judge(&base, &cell(Better::Lower, 0.05, &scaled(1.06))).3, Verdict::Worse);
        assert_eq!(judge(&base, &cell(Better::Lower, 0.05, &scaled(0.5))).3, Verdict::Ok);
        let base = cell(Better::Higher, 0.05, &steady);
        assert_eq!(judge(&base, &cell(Better::Higher, 0.05, &scaled(0.94))).3, Verdict::Worse);
        assert_eq!(judge(&base, &cell(Better::Higher, 0.05, &scaled(2.0))).3, Verdict::Ok);
        // same median, but one side scatters by more than the bound
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0, 100.0, 85.0, 115.0, 100.0, 100.0];
        assert_eq!(judge(&base, &cell(Better::Higher, 0.05, &noisy)).3, Verdict::Unresolved);
        let (a, b, ratio, _) = judge(&base, &cell(Better::Higher, 0.05, &scaled(2.0)));
        assert_eq!((a, b, ratio), (100.0, 200.0, 2.0));
    }

    #[test]
    fn a_set_survives_its_own_json() {
        let mut runs =
            WorkloadRuns { attempted: 10, failed: 1, incorrect_runs: 0, ..Default::default() };
        runs.cells.insert("items_per_s".into(), cell(Better::Higher, 0.1, &[1.5, 2.25e-7, 3e9]));
        runs.cells.insert(
            "flow.stages".into(),
            Cell { unit: "count".into(), better: Better::Lower, bound: None, values: vec![4.0] },
        );
        runs.digests.insert(7, vec!["00ff".into(), "abcd".into()]);
        let mut set = RunSet { stamp: "{}".into(), workloads: BTreeMap::new() };
        set.workloads.insert("w".into(), runs);
        let parsed = parse_set(&set_json(&set)).unwrap();
        assert_eq!(parsed.workloads, set.workloads);
    }

    #[test]
    fn compare_flags_worse_metrics_failures_and_digest_drift() {
        let set = |values: &[f64], failed: u64, digest: &str| {
            let mut runs = WorkloadRuns { attempted: 100, failed, ..Default::default() };
            runs.cells.insert("op_p50_us".into(), cell(Better::Lower, 0.1, values));
            runs.digests.insert(1, vec![digest.to_string()]);
            RunSet { stamp: "{}".into(), workloads: BTreeMap::from([("w".to_string(), runs)]) }
        };
        let base = set(&[10.0, 10.1, 9.9], 0, "aa");
        assert!(!compare(&base, &set(&[10.5, 10.6, 10.4], 0, "aa")));
        assert!(compare(&base, &set(&[12.0, 12.1, 11.9], 0, "aa")));
        assert!(compare(&base, &set(&[10.0, 10.1, 9.9], 1, "aa")));
        assert!(compare(&base, &set(&[10.0, 10.1, 9.9], 0, "bb")));
    }

    #[test]
    fn result_lines_are_held_to_the_contract() {
        let line = |metrics: &str| {
            json::parse(&format!(
                "{{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{{{metrics}}}}}"
            ))
            .unwrap()
        };
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(m, _)| format!("\"{}\":{{\"value\":1.5,\"unit\":\"{}\"}}", m.name, m.unit))
            .collect();
        assert_eq!(check_result_line(&line(&all.join(",")), false), Ok(()));
        assert!(check_result_line(&line(&all[1..].join(",")), false).is_err());
        let wrong_unit = all.join(",").replace("\"unit\":\"s\"", "\"unit\":\"ms\"");
        assert!(check_result_line(&line(&wrong_unit), false).is_err());
        assert!(check_result_line(&line(&all.join(",")), true).is_err());
    }
}
