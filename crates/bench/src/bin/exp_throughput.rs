//! Wall-clock throughput of the fused executor: records/sec on the
//! Fig-4/5 linguistic pipeline, fused vs unfused vs a pre-fusion
//! baseline emulation, at DoP {1, 4, 8, 16} — plus the
//! partial-aggregation sweep (combined vs uncombined) over the
//! Reduce-terminated token-frequency pipeline.
//!
//! Flags:
//! - `--quick` — smaller corpus and a {1, 8} DoP sweep (CI smoke);
//! - `--json`  — emit the `BENCH_THROUGHPUT.json` payload instead of
//!   the markdown tables;
//! - `--check` — exit non-zero unless (a) fused throughput holds up
//!   against unfused at the acceptance DoP (the fusion-must-not-regress
//!   gate) and (b) combining holds up against uncombined at DoP 1 (the
//!   combining-never-loses gate);
//! - `--docs N` / `--dops A,B,C` — override corpus size / DoP sweep for
//!   targeted probes of a single cell;
//! - `--per-op` — print wall seconds per pipeline operator instead of
//!   running the sweep (where does fused time go?).
use websift_bench::experiments::throughput_exps::{
    combining_at, per_op_breakdown, throughput_at, CombiningReport, ThroughputReport,
    THROUGHPUT_DOPS,
};
use websift_bench::experiments::throughput_exps::throughput_json;

/// Tolerance on the fused/unfused ratio in `--check`: wall-clock medians
/// on shared CI hardware jitter a few percent; a real fusion regression
/// shows up far below this.
const CHECK_TOLERANCE: f64 = 0.95;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let quick = has("--quick");
    let json = has("--json");
    let check = has("--check");

    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let docs: usize = value_of("--docs")
        .map(|v| v.parse().expect("--docs takes an integer"))
        .unwrap_or(if quick { 96 } else { 480 });
    let dops: Vec<usize> = match value_of("--dops") {
        Some(v) => v
            .split(',')
            .map(|d| d.trim().parse().expect("--dops takes a comma-separated list"))
            .collect(),
        None if quick => vec![1, 8],
        None => THROUGHPUT_DOPS.to_vec(),
    };

    if has("--per-op") {
        let breakdown = per_op_breakdown(docs);
        let total: f64 = breakdown.iter().map(|(_, s, _)| s).sum();
        for (name, secs, records) in &breakdown {
            println!("{name:32} {secs:8.3}s  {:5.1}%  -> {records} records", 100.0 * secs / total);
        }
        return;
    }

    let report: ThroughputReport = throughput_at(docs, &dops);
    let combining: CombiningReport = combining_at(docs, &dops);

    if json {
        println!("{}", throughput_json(&report, &combining));
    } else {
        println!("{}", report.result.render());
        println!();
        println!("{}", combining.result.render());
        println!(
            "shuffle-bytes reduction: {:.1}x ({} -> {} bytes)",
            combining.shuffle_reduction(),
            combining.shuffle_bytes_uncombined,
            combining.shuffle_bytes_combined
        );
    }

    if check {
        if report.fused_vs_unfused < CHECK_TOLERANCE {
            eprintln!(
                "exp_throughput --check FAILED: fused is {:.2}x unfused (< {CHECK_TOLERANCE})",
                report.fused_vs_unfused
            );
            std::process::exit(1);
        }
        // Combining must never lose to uncombined, even with no
        // parallelism to hide the fold: at DoP 1 the partial maps still
        // shrink the shuffle roundtrip.
        let dop1 = combining.ratio_at(1).unwrap_or(combining.combined_vs_uncombined);
        if dop1 < CHECK_TOLERANCE {
            eprintln!(
                "exp_throughput --check FAILED: combining is {dop1:.2}x uncombined at DoP 1 \
                 (< {CHECK_TOLERANCE})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "exp_throughput check ok: fused {:.2}x unfused, {:.2}x pre-fusion baseline; \
             combining {:.2}x uncombined at the acceptance DoP ({dop1:.2}x at DoP 1), \
             shuffle shrink {:.1}x",
            report.fused_vs_unfused,
            report.fused_vs_baseline,
            combining.combined_vs_uncombined,
            combining.shuffle_reduction()
        );
    }
}
