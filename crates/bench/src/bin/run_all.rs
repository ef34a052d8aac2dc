//! Runs every experiment in sequence, printing the full paper-vs-measured
//! report (this is what EXPERIMENTS.md is generated from):
//!
//! ```text
//! cargo run --release -p websift-bench --bin run_all | tee EXPERIMENTS.md
//! ```
//!
//! Besides the markdown report, every result is collected and written to
//! `BENCH_RESULTS.json` so the perf trajectory is machine-readable.
use websift_bench::experiments::{
    analyze_exps, content_exps, crawl_exps, live_exps, profile_exps, recovery_exps,
    scaling_exps, serve_exps, shuffle_exps, throughput_exps,
};
use websift_bench::report::results_to_json;
use websift_bench::ExperimentResult;
use websift_corpus::{Lexicon, LexiconScale, SearchCategory};
use websift_crawler::{
    default_engines, generate_seeds, train_focus_classifier, CrawlConfig, FocusedCrawler,
};
use websift_pipeline::ExperimentContext;

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
    eprintln!("[1/22] wall-clock throughput (fused vs unfused vs pre-fusion; combined vs uncombined)");
    let throughput = throughput_exps::throughput(480);
    let combining = throughput_exps::combining(480);

    let lexicon = Lexicon::generate(LexiconScale::default_scale());
    eprintln!("[2/22] Table 1");
    out(crawl_exps::table1(&lexicon));

    let web = crawl_exps::standard_web();
    eprintln!("[3/22] crawl experiments");
    for r in crawl_exps::crawl(&web, &lexicon, 40_000) {
        out(r);
    }
    eprintln!("[4/22] classifier quality");
    out(crawl_exps::classifier(&web));
    eprintln!("[5/22] boilerplate quality");
    out(crawl_exps::boilerplate(&web));

    eprintln!("[6/22] Table 2 (PageRank)");
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

    eprintln!("[7/22] §5 trade-off");
    out(crawl_exps::tradeoff(&web, &seeds.urls, 2_500));

    let ctx = ExperimentContext::standard(42);
    eprintln!("[8/22] Fig 3");
    for r in scaling_exps::fig3(&ctx) {
        out(r);
    }
    eprintln!("[9/22] runtime shares");
    out(scaling_exps::runtime_shares(&ctx));
    eprintln!("[10/22] cost decomposition (profiler)");
    out(profile_exps::cost_decomposition(&ctx, 40).result);
    eprintln!("[11/22] Fig 4");
    out(scaling_exps::fig4(&ctx));
    eprintln!("[12/22] Fig 5");
    out(scaling_exps::fig5(&ctx));
    eprintln!("[13/22] war story");
    out(scaling_exps::warstory(&ctx));
    eprintln!("[14/22] static analysis pre-flight");
    out(analyze_exps::known_bad());

    eprintln!("[15/22] Table 3");
    out(content_exps::table3(&ctx));
    eprintln!("[16/22] running analysis flows over all corpora");
    let results = content_exps::run_all_corpora(&ctx, 8);
    for r in content_exps::fig6(&results) {
        out(r);
    }
    eprintln!("[17/22] Fig 7 / Table 4");
    out(content_exps::fig7(&results));
    for r in content_exps::table4(&results) {
        out(r);
    }
    eprintln!("[18/22] Fig 8 / JSD");
    for r in content_exps::fig8(&results) {
        out(r);
    }

    eprintln!("[19/22] fault injection + recovery");
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

    eprintln!("[20/22] serving layer (QPS/latency under admission-controlled load)");
    let serve = serve_exps::serve(96, 16, 42);
    out(serve.result.clone());
    match std::fs::write("BENCH_SERVE.json", serve_exps::serve_json(&serve) + "\n") {
        Ok(()) => eprintln!(
            "wrote BENCH_SERVE.json ({} cells; digests {} across shards, snapshot replay {})",
            serve.points.len(),
            if serve.digests_agree { "agree" } else { "DISAGREE" },
            if serve.snapshot_agrees { "matches" } else { "MISMATCHES" },
        ),
        Err(e) => eprintln!("could not write BENCH_SERVE.json: {e}"),
    }

    eprintln!("[21/22] live incremental execution (delta pass vs batch recompute)");
    let live = live_exps::live(150);
    out(live.result.clone());
    match std::fs::write("BENCH_LIVE.json", live_exps::live_json(&live) + "\n") {
        Ok(()) => eprintln!(
            "wrote BENCH_LIVE.json ({} rounds x DoP {:?}; digests {} across incremental / \
             recompute / resume, delta pass {} recompute per new doc from round 2)",
            live.rounds,
            live.dops,
            if live.digests_agree && live.resume_agrees { "agree" } else { "DISAGREE" },
            if live.incremental_wins { "beats" } else { "LOSES TO" },
        ),
        Err(e) => eprintln!("could not write BENCH_LIVE.json: {e}"),
    }

    eprintln!("[22/22] sharded shuffle scale-out (worker threads and processes, digest-gated)");
    let shuffle =
        shuffle_exps::shuffle_at(shuffle_exps::SHUFFLE_DOCS, &shuffle_exps::SHUFFLE_SHARDS);
    out(shuffle.result.clone());
    match std::fs::write("BENCH_SHUFFLE.json", shuffle_exps::shuffle_json(&shuffle) + "\n") {
        Ok(()) => eprintln!(
            "wrote BENCH_SHUFFLE.json ({} cells; digests {} across shard counts {:?}; \
             process workers {})",
            shuffle.points.len(),
            if shuffle.digests_identical { "identical" } else { "DIVERGED" },
            shuffle.shards,
            if shuffle.worker_bin.is_some() { "measured" } else { "skipped" },
        ),
        Err(e) => eprintln!("could not write BENCH_SHUFFLE.json: {e}"),
    }

    let throughput_json = throughput_exps::throughput_json(&throughput, &combining);
    out(throughput.result.clone());
    out(combining.result.clone());
    match std::fs::write("BENCH_THROUGHPUT.json", throughput_json + "\n") {
        Ok(()) => eprintln!(
            "wrote BENCH_THROUGHPUT.json (fused {:.2}x pre-fusion baseline, combining \
             {:.2}x uncombined, shuffle shrink {:.1}x at DoP {})",
            throughput.fused_vs_baseline,
            combining.combined_vs_uncombined,
            combining.shuffle_reduction(),
            throughput_exps::ACCEPTANCE_DOP
        ),
        Err(e) => eprintln!("could not write BENCH_THROUGHPUT.json: {e}"),
    }

    match std::fs::write("BENCH_RESULTS.json", results_to_json(&collected) + "\n") {
        Ok(()) => eprintln!("wrote BENCH_RESULTS.json ({} results)", collected.len()),
        Err(e) => eprintln!("could not write BENCH_RESULTS.json: {e}"),
    }
    eprintln!("done.");
}
