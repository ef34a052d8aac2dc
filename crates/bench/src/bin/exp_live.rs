//! Live incremental-execution bench: per-round delta-pass cost vs batch
//! full recompute, with the three-way store-digest identity check.
//!
//! Flags:
//! - `--quick` — smaller crawl and a {1, 2} DoP grid (CI smoke);
//! - `--json`  — the result as JSON instead of the markdown table;
//! - `--check` — exit non-zero unless (a) the incremental session, (b) a
//!   batch full recompute, and (c) a killed-and-resumed session agree on
//!   every store digest, deterministic surfaces are DoP-invariant, the
//!   delta pass beats the recompute per new document from round 2 on,
//!   and no watermark's crawl frame carries a page body;
//! - `--pages N` — override the crawl page budget for targeted probes.
use websift_bench::experiments::live_exps::{live_at, LiveReport, LIVE_DOPS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let quick = has("--quick");
    let check = has("--check");

    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let pages: usize = value_of("--pages")
        .map(|v| v.parse().expect("--pages takes an integer"))
        .unwrap_or(if quick { 60 } else { 150 });
    let dops: Vec<usize> = if quick { vec![1, 2] } else { LIVE_DOPS.to_vec() };

    let report: LiveReport = live_at(pages, &dops);

    websift_bench::report::emit(std::slice::from_ref(&report.result));

    if check {
        if !report.digests_agree {
            eprintln!(
                "exp_live --check FAILED: the incremental store diverged from a batch \
                 full recompute at some round boundary (incremental != batch digest)"
            );
            std::process::exit(1);
        }
        if !report.resume_agrees {
            eprintln!(
                "exp_live --check FAILED: a session resumed from the round-{} watermark \
                 did not replay byte-identically to the uninterrupted run",
                report.resume_round
            );
            std::process::exit(1);
        }
        if !report.dop_invariant {
            eprintln!(
                "exp_live --check FAILED: store digest, retained-state bytes, or reduce \
                 output varied across the DoP grid {dops:?}"
            );
            std::process::exit(1);
        }
        if !report.incremental_wins {
            eprintln!(
                "exp_live --check FAILED: the delta pass did not beat a batch full \
                 recompute per new document from round 2 onward (simulated seconds)"
            );
            std::process::exit(1);
        }
        if report.watermark_bodies > 0 {
            eprintln!(
                "exp_live --check FAILED: the watermarks' crawl frames carry {} page bodies; \
                 every page is drained before its round is sealed, so they should carry none",
                report.watermark_bodies
            );
            std::process::exit(1);
        }
        eprintln!(
            "exp_live check ok: {} rounds x DoP {dops:?}, digests identical across \
             incremental / batch recompute / kill-and-resume (round {}), delta pass \
             beats recompute per new document from round 2 on; {} docs / {} postings; \
             watermarks carry 0 page bodies: watermark_bytes_last {} beside {} accepted \
             net-text bytes",
            report.rounds,
            report.resume_round,
            report.total_documents,
            report.store_postings,
            report.watermark_bytes_last,
            report.net_text_bytes
        );
    }
}
