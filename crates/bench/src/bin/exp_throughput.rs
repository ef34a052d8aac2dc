//! The two live A/B wall-clock ratios of the flow executor: records/sec
//! on the Fig-4/5 linguistic pipeline, fused vs unfused, and on the
//! Reduce-terminated token-frequency pipeline, combined vs uncombined,
//! at DoP {1, 4, 8, 16}.
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
//!   targeted probes of a single cell.
use websift_bench::experiments::throughput_exps::{
    combining, fusion, throughput_json, THROUGHPUT_DOPS,
};

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

    let fused = fusion(docs, &dops);
    let combined = combining(docs, &dops);

    if json {
        println!("{}", throughput_json(&fused, &combined));
    } else {
        println!("{}", fused.result.render());
        println!();
        println!("{}", combined.result.render());
    }

    if check {
        let fused_ratio = fused.accept_ratio();
        if fused_ratio < CHECK_TOLERANCE {
            eprintln!(
                "exp_throughput --check FAILED: fused is {fused_ratio:.2}x unfused \
                 (< {CHECK_TOLERANCE})"
            );
            std::process::exit(1);
        }
        // Combining must never lose to uncombined, even with no
        // parallelism to hide the fold: at DoP 1 the partial maps still
        // shrink the shuffle roundtrip.
        let dop1 = combined.ratio_at(1).unwrap_or(combined.accept_ratio());
        if dop1 < CHECK_TOLERANCE {
            eprintln!(
                "exp_throughput --check FAILED: combining is {dop1:.2}x uncombined at DoP 1 \
                 (< {CHECK_TOLERANCE})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "exp_throughput check ok: fused {fused_ratio:.2}x unfused; combining {:.2}x \
             uncombined at the acceptance DoP ({dop1:.2}x at DoP 1), shuffle shrink {:.1}x",
            combined.accept_ratio(),
            combined.shuffle_reduction()
        );
    }
}
