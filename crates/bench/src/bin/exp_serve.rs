//! Serving-layer load bench: QPS and p50/p99 latency of the
//! admission-controlled query engine at 1/8/64/512 simulated clients,
//! per shard count.
//!
//! Flags:
//! - `--quick` — smaller store and a {1, 64} client sweep (CI smoke);
//! - `--json`  — emit the machine-readable payload instead of the
//!   markdown table;
//! - `--check` — exit non-zero unless same-seed responses are
//!   byte-identical across shard counts and across snapshot/resume
//!   (digest equality; the serving determinism gate);
//! - `--docs N` / `--queries N` — override store size / queries per
//!   client for targeted probes.
use websift_bench::experiments::serve_exps::{
    serve_at, serve_json, ServeReport, SERVE_CLIENTS, SERVE_SHARDS,
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
        .unwrap_or(if quick { 24 } else { 96 });
    let queries: usize = value_of("--queries")
        .map(|v| v.parse().expect("--queries takes an integer"))
        .unwrap_or(if quick { 6 } else { 16 });
    let clients: Vec<usize> =
        if quick { vec![1, 64] } else { SERVE_CLIENTS.to_vec() };

    let report: ServeReport = serve_at(docs, queries, 42, &SERVE_SHARDS, &clients);

    if json {
        println!("{}", serve_json(&report));
    } else {
        println!("{}", report.result.render());
    }

    if check {
        if !report.digests_agree {
            eprintln!(
                "exp_serve --check FAILED: responses differ across shard counts \
                 {SERVE_SHARDS:?} (the store is not shard-count invariant)"
            );
            std::process::exit(1);
        }
        if !report.snapshot_agrees {
            eprintln!(
                "exp_serve --check FAILED: a serial replay on a snapshot-restored store \
                 produced different responses (snapshot/resume is not byte-identical)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "exp_serve check ok: {} cells, digests identical across {SERVE_SHARDS:?} shards \
             and across snapshot/resume; admission capacity {}; {} keys / {} postings",
            report.points.len(),
            report.admission_capacity,
            report.store_keys,
            report.store_postings
        );
    }
}
