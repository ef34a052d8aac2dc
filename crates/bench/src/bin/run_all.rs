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
//!
//! `--only <id>[,<id>…]` runs just the named steps (the ids of [`STEPS`])
//! and builds only the inputs they need. It prints their sections exactly
//! as a full run does, without the report header, and writes no file.
use std::cell::OnceCell;
use std::sync::Arc;

use websift_bench::experiments::{
    ablation_exps, analyze_exps, content_exps, crawl_exps, live_exps, profile_exps,
    recovery_exps, scaling_exps, serve_exps, shuffle_exps, throughput_exps,
};
use websift_bench::report::{results_to_json, stamp};
use websift_bench::ExperimentResult;
use websift_corpus::{Lexicon, LexiconScale, SearchCategory};
use websift_crawler::feedback::IeFeedback;
use websift_crawler::{
    default_engines, generate_seeds, train_focus_classifier, CrawlConfig, FocusedCrawler,
};
use websift_ner::{Dictionary, DictionaryTagger, EntityType};
use websift_observe::json::ObjectWriter;
use websift_pipeline::ExperimentContext;
use websift_web::SimulatedWeb;

/// Pages of the §4.1 crawl and documents per wall-clock sweep — the sizes
/// `BENCH_RESULTS.json` is stamped with.
const CRAWL_PAGES: usize = 40_000;
const SWEEP_DOCS: usize = 480;

/// Every step of the report, in the order it runs: `(id, progress label)`.
const STEPS: [(&str, &str); 24] = [
    ("throughput", "wall-clock throughput (fused vs unfused; combined vs uncombined)"),
    ("table1", "Table 1"),
    ("crawl", "crawl experiments"),
    ("classifier", "classifier quality"),
    ("boilerplate", "boilerplate quality"),
    ("table2", "Table 2 (PageRank)"),
    ("tradeoff", "§5 trade-off"),
    ("fig3", "Fig 3 + runtime shares"),
    ("profile", "cost decomposition (registry)"),
    ("fig4", "Fig 4"),
    ("fig5", "Fig 5"),
    ("warstory", "war story"),
    ("analyze", "static analysis pre-flight"),
    ("table3", "Table 3"),
    ("fig6", "Fig 6"),
    ("fig7", "Fig 7"),
    ("table4", "Table 4"),
    ("fig8", "Fig 8 / JSD"),
    ("recovery", "fault injection + recovery"),
    ("serve", "serving layer (response digests under admission-controlled load)"),
    ("live", "live incremental execution (delta pass vs batch recompute)"),
    ("shuffle", "sharded shuffle scale-out (worker threads and processes, digest-gated)"),
    ("ablations", "design ablations (arms held to agreement)"),
    ("consolidated", "§5 consolidated process (IE feedback into the crawl)"),
];

/// Parses the `--only` list: comma-separated step ids, each of which
/// must be in [`STEPS`].
fn parse_only(list: &str) -> Result<Vec<&'static str>, String> {
    let valid = || STEPS.map(|(id, _)| id).join(", ");
    if list.is_empty() {
        return Err(format!("--only takes a comma-separated list of ids: {}", valid()));
    }
    list.split(',')
        .map(|id| {
            STEPS
                .iter()
                .find(|(known, _)| *known == id)
                .map(|(known, _)| *known)
                .ok_or_else(|| format!("unknown experiment id '{id}'; valid ids: {}", valid()))
        })
        .collect()
}

/// Writes one of the committed bench files; a failed write is reported
/// on stderr and the report goes on.
fn write_json(path: &str, json: String, summary: String) {
    match std::fs::write(path, json + "\n") {
        Ok(()) => eprintln!("wrote {path} ({summary})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The §5 "consolidated process" extension: does feeding IE results back
/// into the crawl-time classifier improve the crawl? Three configurations
/// over the same seeds and web: the plain high-precision classifier, the
/// same with entity-density log-odds feedback, and feedback plus
/// incremental self-training.
fn consolidated(web: &SimulatedWeb, lexicon: &Lexicon) -> ExperimentResult {
    let queries: Vec<String> = lexicon
        .search_terms(SearchCategory::Disease, 200)
        .into_iter()
        .chain(lexicon.search_terms(SearchCategory::Gene, 250))
        .map(|t| t.to_lowercase())
        .collect();
    let seeds = generate_seeds(web, &mut default_engines(web), &queries);
    let taggers: Vec<Arc<DictionaryTagger>> = [
        (EntityType::Gene, lexicon.genes()),
        (EntityType::Disease, lexicon.diseases()),
        (EntityType::Drug, lexicon.drugs()),
    ]
    .into_iter()
    .map(|(entity, names)| {
        Arc::new(DictionaryTagger::new(&Dictionary::new(entity, names.to_vec())))
    })
    .collect();
    let config = CrawlConfig { max_pages: 12_000, threads: 8, ..CrawlConfig::default() };
    let crawler = || {
        let classifier = train_focus_classifier(300, crawl_exps::HIGH_PRECISION_THRESHOLD, 77);
        FocusedCrawler::new(web, classifier, config)
    };

    let mut result = ExperimentResult::new(
        "§5 consolidated",
        "IE feedback into the crawl-time classifier (paper: future work)",
        &["configuration", "relevant pages", "harvest rate", "precision vs gold", "recall proxy"],
    );
    let mut row = |name: &str, mut crawler: FocusedCrawler<'_>| {
        let report = crawler.crawl(seeds.urls.clone());
        let gold_true = report.relevant.iter().filter(|p| p.gold_relevant == Some(true)).count();
        let missed_relevant =
            report.irrelevant.iter().filter(|p| p.gold_relevant == Some(true)).count();
        let precision = gold_true as f64 / report.relevant.len().max(1) as f64;
        let recall = gold_true as f64 / (gold_true + missed_relevant).max(1) as f64;
        result.row(&[
            name.to_string(),
            report.relevant.len().to_string(),
            format!("{:.3}", report.harvest_rate()),
            format!("{precision:.3}"),
            format!("{recall:.3}"),
        ]);
    };
    row("baseline (bag-of-words only)", crawler());
    let mut no_self_training = IeFeedback::new(taggers.clone());
    no_self_training.self_training_margin = None;
    row("+ entity-density feedback", crawler().with_ie_feedback(no_self_training));
    row("+ feedback + self-training", crawler().with_ie_feedback(IeFeedback::new(taggers)));
    result.note(
        "the paper's §5 proposal, implemented: dictionary entity density adjusts the \
         classifier's log-odds at crawl time; confident verdicts retrain the incremental \
         Naive Bayes",
    );
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = args.iter().position(|a| a == "--only").map(|i| {
        parse_only(args.get(i + 1).map_or("", String::as_str)).unwrap_or_else(|e| {
            eprintln!("run_all: {e}");
            std::process::exit(2);
        })
    });
    let full = only.is_none();
    let total = only.as_ref().map_or(STEPS.len(), Vec::len);
    let mut started = 0;
    let mut step = |id: &str| {
        if only.as_ref().is_some_and(|ids| !ids.contains(&id)) {
            return false;
        }
        started += 1;
        let label = STEPS.iter().find(|(known, _)| *known == id).map_or(id, |(_, l)| l);
        eprintln!("[{started}/{total}] {label}");
        true
    };

    if full {
        println!("# websift experiment report\n");
        println!("Every table and figure of the paper's evaluation, regenerated on the");
        println!("simulated substrates. Absolute numbers are at reduced scale; the");
        println!("reproduction targets are the *shapes* noted per experiment.\n");
    }

    // Injected worker panics are caught and retried by the executor; keep
    // their backtraces out of the report.
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

    let mut collected: Vec<ExperimentResult> = Vec::new();
    let mut out = |r: ExperimentResult| {
        println!("{}", r.render());
        collected.push(r);
    };

    // Inputs shared between steps, built on first use.
    let lexicon = OnceCell::new();
    let lexicon = || lexicon.get_or_init(|| Lexicon::generate(LexiconScale::default_scale()));
    let web = OnceCell::new();
    let web = || web.get_or_init(crawl_exps::standard_web);
    let seeds = OnceCell::new();
    let seeds = || {
        seeds.get_or_init(|| {
            let lexicon = lexicon();
            let queries: Vec<String> = lexicon
                .search_terms(SearchCategory::General, 30)
                .into_iter()
                .chain(lexicon.search_terms(SearchCategory::Disease, 200))
                .chain(lexicon.search_terms(SearchCategory::Gene, 200))
                .map(|t| t.to_lowercase())
                .collect();
            generate_seeds(web(), &mut default_engines(web()), &queries)
        })
    };
    let ctx = OnceCell::new();
    let ctx = || ctx.get_or_init(|| ExperimentContext::standard(42));
    let corpora = OnceCell::new();
    let corpora = || corpora.get_or_init(|| content_exps::run_all_corpora(ctx(), 8));

    // The wall-clock sweeps run first, on a fresh heap: the combined
    // fold and the fused pipeline are allocation-heavy, and measuring
    // them after 18 experiment suites have churned the allocator
    // understates the ratios the standalone `exp_throughput` binary
    // reports from the same code. Their tables are still printed at the
    // usual place near the end of the report.
    let throughput = step("throughput").then(|| {
        (
            throughput_exps::fusion(SWEEP_DOCS, &throughput_exps::THROUGHPUT_DOPS),
            throughput_exps::combining(SWEEP_DOCS, &throughput_exps::THROUGHPUT_DOPS),
        )
    });

    if step("table1") {
        out(crawl_exps::table1(lexicon()));
    }
    if step("crawl") {
        for r in crawl_exps::crawl(web(), lexicon(), CRAWL_PAGES) {
            out(r);
        }
    }
    if step("classifier") {
        out(crawl_exps::classifier(web()));
    }
    if step("boilerplate") {
        out(crawl_exps::boilerplate(web()));
    }
    if step("table2") {
        let classifier = train_focus_classifier(300, crawl_exps::HIGH_PRECISION_THRESHOLD, 77);
        let config = CrawlConfig { max_pages: 6000, threads: 8, ..CrawlConfig::default() };
        let mut crawler = FocusedCrawler::new(web(), classifier, config);
        let _ = crawler.crawl(seeds().urls.clone());
        out(crawl_exps::table2(&mut crawler, 30));
    }
    if step("tradeoff") {
        out(crawl_exps::tradeoff(web(), &seeds().urls, 2_500));
    }

    if step("fig3") {
        for r in scaling_exps::fig3(ctx()) {
            out(r);
        }
        out(scaling_exps::runtime_shares(ctx()));
    }
    if step("profile") {
        out(profile_exps::cost_decomposition(ctx(), 40).result);
    }
    if step("fig4") {
        out(scaling_exps::fig4(ctx()));
    }
    if step("fig5") {
        out(scaling_exps::fig5(ctx()));
    }
    if step("warstory") {
        out(scaling_exps::warstory(ctx()));
    }
    if step("analyze") {
        out(analyze_exps::known_bad());
    }

    if step("table3") {
        out(content_exps::table3(ctx()));
    }
    if step("fig6") {
        for r in content_exps::fig6(corpora()) {
            out(r);
        }
    }
    if step("fig7") {
        out(content_exps::fig7(corpora()));
    }
    if step("table4") {
        for r in content_exps::table4(corpora()) {
            out(r);
        }
    }
    if step("fig8") {
        for r in content_exps::fig8(corpora()) {
            out(r);
        }
    }

    if step("recovery") {
        for r in recovery_exps::crawl_recovery() {
            out(r);
        }
        out(recovery_exps::flow_recovery());
    }
    if step("serve") {
        out(serve_exps::serve(96, 16, 42).result);
    }
    if step("live") {
        out(live_exps::live(150).result);
    }
    if step("shuffle") {
        let shuffle =
            shuffle_exps::shuffle_at(shuffle_exps::SHUFFLE_DOCS, &shuffle_exps::SHUFFLE_SHARDS);
        out(shuffle.result.clone());
        if full {
            let summary = format!(
                "{} cells; digests {} across shard counts {:?}; process workers {}",
                shuffle.points.len(),
                if shuffle.digests_identical { "identical" } else { "DIVERGED" },
                shuffle.shards,
                if shuffle.worker_bin.is_some() { "measured" } else { "skipped" },
            );
            write_json("BENCH_SHUFFLE.json", shuffle_exps::shuffle_json(&shuffle), summary);
        }
    }
    if step("ablations") {
        out(ablation_exps::ablations(false));
    }

    if let Some((fusion, combining)) = throughput {
        let json = throughput_exps::throughput_json(&fusion, &combining);
        let summary = format!(
            "fused {:.2}x unfused, combining {:.2}x uncombined, shuffle shrink {:.1}x at DoP {}",
            fusion.accept_ratio(),
            combining.accept_ratio(),
            combining.shuffle_reduction(),
            fusion.accept_dop
        );
        out(fusion.result);
        out(combining.result);
        if full {
            write_json("BENCH_THROUGHPUT.json", json, summary);
        }
    }

    if step("consolidated") {
        out(consolidated(web(), lexicon()));
    }

    if full {
        let workload = format!(
            "every experiment at its run_all size ({CRAWL_PAGES}-page crawl, {SWEEP_DOCS}-document \
             sweeps, {}-document shuffle)",
            shuffle_exps::SHUFFLE_DOCS
        );
        let results = stamp(ObjectWriter::new().str("experiment", "run_all"), &workload)
            .raw("results", &results_to_json(&collected))
            .finish();
        write_json("BENCH_RESULTS.json", results, format!("{} results", collected.len()));
    }
    eprintln!("done.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_an_error_listing_the_valid_ids() {
        let err = parse_only("fig3,nosuch").unwrap_err();
        assert!(err.contains("'nosuch'"), "{err}");
        for (id, _) in STEPS {
            assert!(err.contains(id), "{err} does not list {id}");
        }
        assert!(parse_only("").is_err());
        assert_eq!(parse_only("live,fig3").unwrap(), ["live", "fig3"]);
    }

    #[test]
    fn every_former_experiment_bin_has_an_id() {
        for bin in [
            "exp_table1", "exp_table2", "exp_table3", "exp_table4", "exp_fig3", "exp_fig4",
            "exp_fig5", "exp_fig6", "exp_fig7", "exp_fig8", "exp_crawl", "exp_classifier",
            "exp_boilerplate", "exp_tradeoff", "exp_consolidated", "exp_warstory",
            "exp_recovery",
        ] {
            let id = bin.strip_prefix("exp_").unwrap();
            assert_eq!(parse_only(id), Ok(vec![id]), "{bin}");
        }
    }
}
