//! Scale-out of the sharded physical runtime: documents/sec on
//! `linguistic_flow` and `token_frequency_flow` at shard counts
//! {1, 2, 4, 8}, in-process thread workers vs real `shard_worker` OS
//! processes, with wire bytes per document and worker start-up alone,
//! gated against the unsharded engine.
//!
//! Flags:
//! - `--quick` — smaller corpus and a {1, 2} shard sweep (CI smoke);
//! - `--json`  — emit the `BENCH_SHUFFLE.json` payload instead of the
//!   markdown table;
//! - `--check` — exit non-zero unless every cell's deterministic digest
//!   equals the unsharded baseline's (the sharding-is-physical-only
//!   gate) and no stage stayed on the local runner (the
//!   pipeline-ships-whole gate);
//! - `--docs N` / `--shards A,B,C` — override corpus size / shard sweep
//!   for targeted probes of a single cell.
use websift_bench::experiments::shuffle_exps::{
    shuffle_at, shuffle_json, SHUFFLE_DOCS, SHUFFLE_SHARDS,
};

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
        .unwrap_or(if quick { 120 } else { SHUFFLE_DOCS });
    let shards: Vec<usize> = match value_of("--shards") {
        Some(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("--shards takes a comma-separated list"))
            .collect(),
        None if quick => vec![1, 2],
        None => SHUFFLE_SHARDS.to_vec(),
    };

    let report = shuffle_at(docs, &shards);

    if json {
        println!("{}", shuffle_json(&report));
    } else {
        println!("{}", report.result.render());
    }

    if check {
        if !report.digests_identical {
            eprintln!(
                "exp_shuffle --check FAILED: a sharded run's deterministic digest diverged \
                 from its flow's unsharded baseline"
            );
            std::process::exit(1);
        }
        if report.stages_pinned_local > 0 {
            eprintln!(
                "exp_shuffle --check FAILED: {} stage(s) stayed on the local runner — an \
                 operator of the measured flows lost its wire form",
                report.stages_pinned_local
            );
            std::process::exit(1);
        }
        eprintln!(
            "exp_shuffle check ok: digests identical across shard counts {:?}, no stage \
             pinned local; process workers {}",
            report.shards,
            if report.worker_bin.is_some() { "measured" } else { "skipped (binary not found)" }
        );
    }
}
