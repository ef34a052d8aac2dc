//! Runs every experiment in sequence, printing the full paper-vs-measured
//! report (this is what EXPERIMENTS.md is generated from):
//!
//! ```text
//! cargo run --release -p websift-bench --bin run_all | tee EXPERIMENTS.md
//! ```
//!
//! Besides the markdown report, every result is collected and written to
//! `BENCH_RESULTS.json`, and the two sweeps with a payload of their own
//! to `BENCH_THROUGHPUT.json` / `BENCH_SHUFFLE.json`, each stamped with
//! the commit, core count and workload size it was measured at. The
//! system's end-to-end wall-clock numbers come from `benchmark/`, not
//! from here.
use websift_bench::experiments::{
    ablation_exps, analyze_exps, content_exps, crawl_exps, live_exps, profile_exps,
    recovery_exps, scaling_exps, serve_exps, shuffle_exps, throughput_exps,
};
use websift_bench::report::{results_to_json, stamp};
use websift_bench::ExperimentResult;
use websift_corpus::{Lexicon, LexiconScale, SearchCategory};
use websift_crawler::{
    default_engines, generate_seeds, train_focus_classifier, CrawlConfig, FocusedCrawler,
};
use websift_observe::json::ObjectWriter;
use websift_pipeline::ExperimentContext;

/// Pages of the §4.1 crawl and documents per wall-clock sweep — the sizes
/// `BENCH_RESULTS.json` is stamped with.
const CRAWL_PAGES: usize = 40_000;
const SWEEP_DOCS: usize = 480;

/// Writes one of the committed bench files; a failed write is reported
/// on stderr and the report goes on.
fn write_json(path: &str, json: String, summary: String) {
    match std::fs::write(path, json + "\n") {
        Ok(()) => eprintln!("wrote {path} ({summary})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    println!("# websift experiment report\n");
    println!("Every table and figure of the paper's evaluation, regenerated on the");
    println!("simulated substrates. Absolute numbers are at reduced scale; the");
    println!("reproduction targets are the *shapes* noted per experiment.\n");

    let mut collected: Vec<ExperimentResult> = Vec::new();
    let mut out = |r: ExperimentResult| {
        println!("{}", r.render());
        collected.push(r);
    };

    // The wall-clock sweeps run first, on a fresh heap: the combined
    // fold and the fused pipeline are allocation-heavy, and measuring
    // them after 18 experiment suites have churned the allocator
    // understates the ratios the standalone `exp_throughput` binary
    // reports from the same code. Their tables are still printed at the
    // usual place near the end of the report.
    eprintln!("[1/23] wall-clock throughput (fused vs unfused; combined vs uncombined)");
    let throughput = throughput_exps::fusion(SWEEP_DOCS, &throughput_exps::THROUGHPUT_DOPS);
    let combining = throughput_exps::combining(SWEEP_DOCS, &throughput_exps::THROUGHPUT_DOPS);

    let lexicon = Lexicon::generate(LexiconScale::default_scale());
    eprintln!("[2/23] Table 1");
    out(crawl_exps::table1(&lexicon));

    let web = crawl_exps::standard_web();
    eprintln!("[3/23] crawl experiments");
    for r in crawl_exps::crawl(&web, &lexicon, CRAWL_PAGES) {
        out(r);
    }
    eprintln!("[4/23] classifier quality");
    out(crawl_exps::classifier(&web));
    eprintln!("[5/23] boilerplate quality");
    out(crawl_exps::boilerplate(&web));

    eprintln!("[6/23] Table 2 (PageRank)");
    let queries: Vec<String> = lexicon
        .search_terms(SearchCategory::General, 30)
        .into_iter()
        .chain(lexicon.search_terms(SearchCategory::Disease, 200))
        .chain(lexicon.search_terms(SearchCategory::Gene, 200))
        .map(|t| t.to_lowercase())
        .collect();
    let seeds = generate_seeds(&web, &mut default_engines(&web), &queries);
    let classifier = train_focus_classifier(300, crawl_exps::HIGH_PRECISION_THRESHOLD, 77);
    let mut crawler = FocusedCrawler::new(
        &web,
        classifier,
        CrawlConfig { max_pages: 6000, threads: 8, ..CrawlConfig::default() },
    );
    let _ = crawler.crawl(seeds.urls.clone());
    out(crawl_exps::table2(&mut crawler, 30));

    eprintln!("[7/23] §5 trade-off");
    out(crawl_exps::tradeoff(&web, &seeds.urls, 2_500));

    let ctx = ExperimentContext::standard(42);
    eprintln!("[8/23] Fig 3");
    for r in scaling_exps::fig3(&ctx) {
        out(r);
    }
    eprintln!("[9/23] runtime shares");
    out(scaling_exps::runtime_shares(&ctx));
    eprintln!("[10/23] cost decomposition (profiler)");
    out(profile_exps::cost_decomposition(&ctx, 40).result);
    eprintln!("[11/23] Fig 4");
    out(scaling_exps::fig4(&ctx));
    eprintln!("[12/23] Fig 5");
    out(scaling_exps::fig5(&ctx));
    eprintln!("[13/23] war story");
    out(scaling_exps::warstory(&ctx));
    eprintln!("[14/23] static analysis pre-flight");
    out(analyze_exps::known_bad());

    eprintln!("[15/23] Table 3");
    out(content_exps::table3(&ctx));
    eprintln!("[16/23] running analysis flows over all corpora");
    let results = content_exps::run_all_corpora(&ctx, 8);
    for r in content_exps::fig6(&results) {
        out(r);
    }
    eprintln!("[17/23] Fig 7 / Table 4");
    out(content_exps::fig7(&results));
    for r in content_exps::table4(&results) {
        out(r);
    }
    eprintln!("[18/23] Fig 8 / JSD");
    for r in content_exps::fig8(&results) {
        out(r);
    }

    eprintln!("[19/23] fault injection + recovery");
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected fault:"));
        if !injected {
            default_hook(info);
        }
    }));
    for r in recovery_exps::crawl_recovery() {
        out(r);
    }
    out(recovery_exps::flow_recovery());

    eprintln!("[20/23] serving layer (QPS/latency under admission-controlled load)");
    out(serve_exps::serve(96, 16, 42).result);

    eprintln!("[21/23] live incremental execution (delta pass vs batch recompute)");
    out(live_exps::live(150).result);

    eprintln!("[22/23] sharded shuffle scale-out (worker threads and processes, digest-gated)");
    let shuffle =
        shuffle_exps::shuffle_at(shuffle_exps::SHUFFLE_DOCS, &shuffle_exps::SHUFFLE_SHARDS);
    out(shuffle.result.clone());
    let shuffle_summary = format!(
        "{} cells; digests {} across shard counts {:?}; process workers {}",
        shuffle.points.len(),
        if shuffle.digests_identical { "identical" } else { "DIVERGED" },
        shuffle.shards,
        if shuffle.worker_bin.is_some() { "measured" } else { "skipped" },
    );
    write_json("BENCH_SHUFFLE.json", shuffle_exps::shuffle_json(&shuffle), shuffle_summary);

    eprintln!("[23/23] design ablations (arms held to agreement)");
    out(ablation_exps::ablations(false));

    let throughput_json = throughput_exps::throughput_json(&throughput, &combining);
    let throughput_summary = format!(
        "fused {:.2}x unfused, combining {:.2}x uncombined, shuffle shrink {:.1}x at DoP {}",
        throughput.accept_ratio(),
        combining.accept_ratio(),
        combining.shuffle_reduction(),
        throughput.accept_dop
    );
    out(throughput.result);
    out(combining.result);
    write_json("BENCH_THROUGHPUT.json", throughput_json, throughput_summary);

    let workload = format!(
        "every experiment at its run_all size ({CRAWL_PAGES}-page crawl, {SWEEP_DOCS}-document \
         sweeps, {}-document shuffle)",
        shuffle_exps::SHUFFLE_DOCS
    );
    let results = stamp(ObjectWriter::new().str("experiment", "run_all"), &workload)
        .raw("results", &results_to_json(&collected))
        .finish();
    write_json("BENCH_RESULTS.json", results, format!("{} results", collected.len()));
    eprintln!("done.");
}
