//! One run of one workload: repeated passes inside the `--seconds` window,
//! the statistics over them, the in-run oracle, and the result line.
//!
//! An end-to-end run (`--trace 0`) gives every pass fresh inputs drawn from
//! a sub-seed of `--seed`, so set-up is timed several times and the
//! reported medians average over input variation as well as over machine
//! noise. A traced run (`--trace 1`) repeats passes on the first sub-seed's
//! input only — counts then depend on nothing but `--seed` — with spans on,
//! each paired with an untraced twin that prices the tracing.

use std::collections::BTreeMap;
use std::path::PathBuf;

use websift::observe::json::{array, str_array, ObjectWriter};

use crate::clock::time;
use crate::inputs::Sizes;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, mix, quantile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::corpus_analysis::CorpusAnalysis;
use crate::workloads::crawl_to_query::CrawlToQuery;
use crate::workloads::live_rounds::LiveRounds;
use crate::workloads::query_serving::QueryServing;
use crate::workloads::{Layers, Measured, Workload};

/// Set-up is timed at least this often per end-to-end run.
const MIN_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported metric: the value on the result line and the samples
/// behind it.
#[derive(Debug)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Reported {
    /// A value per pass, reported as their median.
    fn median_of(name: &'static str, unit: &'static str, per_pass: &[f64]) -> Reported {
        Reported {
            name,
            unit,
            value: median(per_pass),
            min: per_pass.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_pass.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: per_pass.len(),
        }
    }
}

#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub args: RunArgs,
    pub sizes: Sizes,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Disagreements the in-run oracle found; empty means correct.
    pub mismatches: Vec<String>,
    /// Output digest of every pass, in order.
    pub digests: Vec<u64>,
    pub metrics: Vec<Reported>,
    /// Spans of the traced passes as JSON lines.
    pub trace_jsonl: String,
}

pub fn run_workload(name: &str, args: &RunArgs) -> Result<RunReport, String> {
    match name {
        CrawlToQuery::NAME => Ok(drive::<CrawlToQuery>(args)),
        CorpusAnalysis::NAME => Ok(drive::<CorpusAnalysis>(args)),
        QueryServing::NAME => Ok(drive::<QueryServing>(args)),
        LiveRounds::NAME => Ok(drive::<LiveRounds>(args)),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn drive<W: Workload>(args: &RunArgs) -> RunReport {
    let sizes = if args.smoke { Sizes::smoke() } else { Sizes::STANDARD };
    let mut report = RunReport {
        workload: W::NAME,
        args: *args,
        sizes,
        passes: 0,
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        digests: Vec::new(),
        metrics: Vec::new(),
        trace_jsonl: String::new(),
    };
    if args.trace {
        traced_run::<W>(&mut report);
    } else {
        end_to_end_run::<W>(&mut report);
    }
    // Each oracle disagreement is one more failed check.
    report.attempted += 1;
    report.failed += report.mismatches.len() as u64;
    report
}

fn sub_seed(seed: u64, pass: usize) -> u64 {
    mix(seed, 100 + pass as u64)
}

fn tally(report: &mut RunReport, measured: &Measured) {
    report.passes += 1;
    report.attempted += measured.attempted;
    report.failed += measured.failed;
    report.digests.push(measured.digest);
}

fn end_to_end_run<W: Workload>(report: &mut RunReport) {
    let args = report.args;
    let (mut setup_s, mut work_per_s, mut p50, mut p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut operations = 0;
    let mut elapsed = 0.0;
    while elapsed < args.seconds || report.passes == 0 {
        let seed = sub_seed(args.seed, report.passes);
        let (input, secs) = time(|| W::setup(seed, &report.sizes));
        setup_s.push(secs);
        let ((measured, output), pass_s) = time(|| W::measure(&input, &Tracer::new(false)));
        elapsed += pass_s;
        if report.passes == 0 {
            report.mismatches = W::verify(&input, &output);
        }
        work_per_s.push(measured.work / measured.wall_s);
        p50.push(median(&measured.op_us));
        p99.push(quantile(&measured.op_us, 0.99));
        operations += measured.op_us.len();
        tally(report, &measured);
    }
    // A slow host fits few passes into the window; set-up is still timed
    // several times.
    while setup_s.len() < MIN_SETUPS {
        let seed = sub_seed(args.seed, setup_s.len());
        setup_s.push(time(|| std::hint::black_box(W::setup(seed, &report.sizes))).1);
    }
    // The percentile rule: p99 needs ten samples beyond it, over the run.
    if !args.smoke && highest_supported_percentile(operations) < 0.99 {
        report.mismatches.push(format!("op_p99_us rests on {operations} samples"));
    }
    report.metrics = END_TO_END
        .iter()
        .map(|(m, _)| {
            // every metric is a value per pass, reported as their median:
            // the first pass of a process still grows its heap and reads
            // slow, and a median is not moved by it
            let per_pass = match m.name {
                "work_per_s" => &work_per_s,
                "setup_s" => &setup_s,
                "op_p50_us" => &p50,
                "op_p99_us" => &p99,
                other => unreachable!("end-to-end metric '{other}' has no measurement"),
            };
            Reported::median_of(m.name, m.unit, per_pass)
        })
        .collect();
}

fn traced_run<W: Workload>(report: &mut RunReport) {
    let args = report.args;
    let input = W::setup(sub_seed(args.seed, 0), &report.sizes);

    // A discarded warm-up pass grows the heap to its working size; without
    // it the first passes pay for fresh pages and read up to 25 % slower.
    drop(W::measure(&input, &Tracer::new(false)));

    let mut passes: Vec<Vec<Span>> = Vec::new();
    let (mut pass_s, mut wall_s, mut items_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_wall_s = Vec::new();
    let mut verified = false;
    let mut last = None;
    let mut elapsed = 0.0;
    while elapsed < args.seconds || last.is_none() {
        // Tracing is priced on the throughput phase, which is what
        // end-to-end runs report, by an untraced twin before every traced
        // pass. Neither runs with another pass's output still allocated, so
        // both see the same memory.
        drop(last.take());
        let ((twin, _), secs) = time(|| W::measure(&input, &Tracer::new(false)));
        elapsed += secs;
        untraced_wall_s.push(twin.wall_s);

        let tracer = Tracer::new(true);
        let ((measured, output), secs) =
            time(|| tracer.span("pass", || W::measure(&input, &tracer)));
        elapsed += secs;
        pass_s.push(secs);
        wall_s.push(measured.wall_s);
        items_per_s.push(measured.items as f64 / measured.wall_s);
        if !verified {
            report.mismatches = W::verify(&input, &output);
            verified = true;
        }
        tally(report, &measured);
        let spans = tracer.into_spans();
        trace::to_jsonl(&spans, W::NAME, passes.len(), &mut report.trace_jsonl);
        passes.push(spans);
        last = Some(output);
    }
    let output = last.expect("the loop above runs at least one pass");

    let mut layers = Layers::new();
    // read before the replays below allocate their own copies of the data
    layers.insert("bench.peak_rss_mb", peak_rss_mb());
    W::layers(&input, &output, &passes, &mut layers);

    // Self time by layer: a span belongs to the layer its name starts with;
    // what the pass span does not hand to a child is unattributed.
    let mut self_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for spans in &passes {
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, own_us) in spans.iter().zip(trace::self_times_us(spans)) {
            let layer = if span.name == "pass" {
                "unattributed"
            } else {
                span.name.split('.').next().unwrap_or(span.name)
            };
            *by_layer.entry(layer).or_default() += own_us / 1e6;
        }
        for (layer, secs) in by_layer {
            self_s.entry(layer).or_default().push(secs);
        }
    }
    for m in PER_LAYER {
        if let Some(layer) = m.name.strip_prefix("bench.self_s.") {
            layers.insert(m.name, self_s.get(layer).map_or(0.0, |v| median(v)));
        }
    }
    let pass = median(&pass_s);
    layers.insert("bench.pass_s", pass);
    layers.insert("bench.throughput_wall_s", median(&wall_s));
    layers.insert("bench.items_per_s", median(&items_per_s));
    layers.insert("bench.trace_overhead_share", median(&wall_s) / median(&untraced_wall_s) - 1.0);
    layers.insert(
        "bench.unattributed_share",
        self_s.get("unattributed").map_or(0.0, |v| median(v)) / pass,
    );

    for name in layers.keys() {
        assert!(PER_LAYER.iter().any(|m| m.name == *name), "'{name}' is not declared in PER_LAYER");
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|m| Reported::median_of(m.name, m.unit, &[layers.get(m.name).copied().unwrap_or(0.0)]))
        .collect();
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark keeps what it writes: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Path of the report a run leaves behind for the suite tools.
pub fn report_path(workload: &str, args: &RunArgs) -> PathBuf {
    out_dir().join(format!("run-{workload}-seed{}-trace{}.json", args.seed, u8::from(args.trace)))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output file is stamped with: enough to tell whether two
/// results are comparable.
pub fn stamp(args: &RunArgs, sizes: &Sizes) -> String {
    // lint:allow(nondet_parallelism): recorded beside the results, never used to size load
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    ObjectWriter::new()
        .u64("host_logical_cores", cores)
        .str("git_rev", &command_line("git", &["rev-parse", "HEAD"]))
        .str("rustc", &command_line("rustc", &["--version"]))
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .str("seed", &args.seed.to_string())
        .f64("seconds", args.seconds)
        .u64("trace", u64::from(args.trace))
        .u64("smoke", u64::from(args.smoke))
        .str("sizes", &format!("{sizes:?}"))
        .finish()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &RunReport) -> String {
    let mut metrics = ObjectWriter::new();
    for m in &report.metrics {
        metrics
            .raw(m.name, &ObjectWriter::new().f64("value", m.value).str("unit", m.unit).finish());
    }
    ObjectWriter::new()
        .raw("correct", if report.mismatches.is_empty() { "true" } else { "false" })
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

/// Prints every metric by name with its unit on stderr, leaves the stamped
/// report (and a traced run's spans) under `out/`, and prints the result
/// line last on stdout.
pub fn publish(report: &RunReport) -> Result<(), String> {
    eprintln!(
        "{} seed {} trace {}: {} passes, {} attempted, {} failed",
        report.workload,
        report.args.seed,
        u8::from(report.args.trace),
        report.passes,
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        eprintln!(
            "  {:<34} {:>14.4} {:<10} min {:.4} max {:.4} n {}",
            m.name, m.value, m.unit, m.min, m.max, m.samples
        );
    }
    for mismatch in &report.mismatches {
        eprintln!("  ORACLE MISMATCH: {mismatch}");
    }

    let mut metrics = ObjectWriter::new();
    for m in &report.metrics {
        metrics.raw(
            m.name,
            &ObjectWriter::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .f64("min", m.min)
                .f64("max", m.max)
                .u64("samples", m.samples as u64)
                .finish(),
        );
    }
    let body = ObjectWriter::new()
        .str("workload", report.workload)
        .raw("stamp", &stamp(&report.args, &report.sizes))
        .u64("passes", report.passes as u64)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("mismatches", &str_array(report.mismatches.iter().map(String::as_str)))
        // u64 digests do not fit a JSON number
        .raw("digests", &array(report.digests.iter().map(|d| format!("\"{d:016x}\""))))
        .raw("metrics", &metrics.finish())
        .finish();
    let write = |path: PathBuf, text: &str| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    write(report_path(report.workload, &report.args), &body)?;
    if report.args.trace {
        write(out_dir().join(format!("trace-{}.jsonl", report.workload)), &report.trace_jsonl)?;
    }
    println!("{}", result_line(report));
    Ok(())
}
