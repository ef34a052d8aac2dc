//! Runs every experiment in sequence, printing the full paper-vs-measured
//! report (this is what EXPERIMENTS.md is generated from):
//!
//! ```text
//! cargo run --release -p websift-bench --bin run_all | tee EXPERIMENTS.md
//! ```
//!
//! Besides the markdown report, every result is collected and written to
//! `BENCH_RESULTS.json`, and the throughput sweep's own payload to
//! `BENCH_THROUGHPUT.json`, each stamped with the commit, core count and
//! workload size it was measured at. The
//! system's end-to-end wall-clock numbers come from `benchmark/`, not
//! from here.
//!
//! This is the workspace's one experiment binary. Its flags:
//!
//! - `--only <id>[,<id>…]` runs just the named steps (the ids of
//!   [`STEPS`]) and builds only the inputs they need. It prints their
//!   sections exactly as a full run does, without the report header, and
//!   writes no file.
//! - `--quick` runs the steps that have a CI size at it: `throughput` 96
//!   documents at DoP {1, 8}, `profile` 6 documents of the tiny context,
//!   `serve` 24 documents at 1 and 64 clients, `live` a 60-page crawl at
//!   DoP {1, 2}, `ablations` its short inputs. Every other step runs at
//!   its full size. A `--quick` run writes no file.
//! - `--check` runs the gate of each selected step that has one
//!   (`throughput`, `explain`, `serve`, `live`) and prints its verdict on
//!   stderr; after the last step the process exits non-zero if any gate
//!   failed, every failure printed. `ablations` needs no flag: it panics
//!   when arms that must agree do not.
//! - `--json` prints the selected results as one JSON array instead of
//!   markdown sections.
//! - `--folded` makes the `profile` step print only its folded stacks
//!   (flamegraph format) in place of its section.
//!
//! The profile step also prints this host's POS decoding kernel on
//! stderr: it changes wall time and nothing else, so it stays out of
//! stdout, `--json` and every digest.
use std::cell::OnceCell;
use std::sync::Arc;

use websift_bench::experiments::{
    ablation_exps, analyze_exps, content_exps, crawl_exps, live_exps, profile_exps,
    recovery_exps, scaling_exps, serve_exps, throughput_exps,
};
use websift_bench::report::{results_to_json, stamp};
use websift_bench::{ExperimentResult, Verdict};
use websift_corpus::{Lexicon, LexiconScale, SearchCategory};
use websift_crawler::feedback::IeFeedback;
use websift_crawler::{
    default_engines, generate_seeds, train_focus_classifier, CrawlConfig, FocusedCrawler,
};
use websift_ner::{Dictionary, DictionaryTagger, EntityType};
use websift_observe::json::ObjectWriter;
use websift_pipeline::ExperimentContext;
use websift_web::SimulatedWeb;

/// Pages of the §4.1 crawl — with the documents per wall-clock sweep, the
/// sizes `BENCH_RESULTS.json` is stamped with.
const CRAWL_PAGES: usize = 40_000;

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
    ("explain", "fusion explain (predicted vs executed stages)"),
    ("table3", "Table 3"),
    ("fig6", "Fig 6"),
    ("fig7", "Fig 7"),
    ("table4", "Table 4"),
    ("fig8", "Fig 8 / JSD"),
    ("recovery", "fault injection + recovery"),
    ("serve", "serving layer (response digests under admission-controlled load)"),
    ("live", "live incremental execution (delta pass vs batch recompute)"),
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

/// The command line: which steps, at what size, gated or not, and in
/// what format.
#[derive(Debug, Default, PartialEq)]
struct Args {
    only: Option<Vec<&'static str>>,
    quick: bool,
    check: bool,
    json: bool,
    folded: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => parsed.only = Some(parse_only(args.next().map_or("", String::as_str))?),
            "--quick" => parsed.quick = true,
            "--check" => parsed.check = true,
            "--json" => parsed.json = true,
            "--folded" => parsed.folded = true,
            other => {
                return Err(format!(
                    "unknown argument '{other}'; flags: --only <ids>, --quick, --check, --json, \
                     --folded"
                ))
            }
        }
    }
    Ok(parsed)
}

/// Prints a step's `--check` verdict on stderr; true when the gate held.
fn report_gate(id: &str, verdict: Verdict) -> bool {
    match verdict {
        Ok(held) => {
            eprintln!("{id} check ok: {held}");
            true
        }
        Err(failures) => {
            for failure in failures {
                eprintln!("{id} --check FAILED: {failure}");
            }
            false
        }
    }
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
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    let only = args.only.as_ref();
    let full = only.is_none();
    // the committed files hold full-size results only
    let write_files = full && !args.quick;
    let total = only.map_or(STEPS.len(), Vec::len);
    let mut started = 0;
    let mut step = |id: &str| {
        if only.is_some_and(|ids| !ids.contains(&id)) {
            return false;
        }
        started += 1;
        let label = STEPS.iter().find(|(known, _)| *known == id).map_or(id, |(_, l)| l);
        eprintln!("[{started}/{total}] {label}");
        true
    };

    if full && !args.json {
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
        if !args.json {
            println!("{}", r.render());
        }
        collected.push(r);
    };
    let mut gates_held = true;

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
    // understates the ratios the same code reports when it runs alone
    // (`--only throughput`). Their tables are still printed at the usual
    // place near the end of the report.
    let throughput = step("throughput").then(|| {
        let (docs, dops) = throughput_exps::sweep_size(args.quick);
        (throughput_exps::fusion(docs, dops), throughput_exps::combining(docs, dops))
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
        let run = if args.quick {
            profile_exps::cost_decomposition(&ExperimentContext::tiny(12), 6)
        } else {
            profile_exps::cost_decomposition(ctx(), 40)
        };
        eprintln!("pos.kernel = {} (this host; wall clock only)", websift_text::pos::kernel());
        if args.folded {
            print!("{}", run.folded);
        } else {
            out(run.result);
        }
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
    if step("explain") {
        out(analyze_exps::explain());
        if args.check {
            gates_held &= report_gate("explain", analyze_exps::check_explain());
        }
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
        let report = serve_exps::serve(args.quick);
        if args.check {
            gates_held &= report_gate("serve", report.check());
        }
        out(report.result);
    }
    if step("live") {
        let report = live_exps::live(args.quick);
        if args.check {
            gates_held &= report_gate("live", report.check());
        }
        out(report.result);
    }
    if step("ablations") {
        out(ablation_exps::ablations(args.quick));
    }

    if let Some((fusion, combining)) = throughput {
        if args.check {
            gates_held &= report_gate("throughput", throughput_exps::check(&fusion, &combining));
        }
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
        if write_files {
            write_json("BENCH_THROUGHPUT.json", json, summary);
        }
    }

    if step("consolidated") {
        out(consolidated(web(), lexicon()));
    }

    if args.json {
        println!("{}", results_to_json(&collected));
    }
    if write_files {
        let workload = format!(
            "every experiment at its run_all size ({CRAWL_PAGES}-page crawl, {}-document sweeps)",
            throughput_exps::SWEEP_DOCS
        );
        let results = stamp(ObjectWriter::new().str("experiment", "run_all"), &workload)
            .raw("results", &results_to_json(&collected))
            .finish();
        write_json("BENCH_RESULTS.json", results, format!("{} results", collected.len()));
    }
    eprintln!("done.");
    if !gates_held {
        std::process::exit(1);
    }
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
            "exp_recovery", "exp_ablations", "exp_live", "exp_profile", "exp_serve",
            "exp_throughput",
        ] {
            let id = bin.strip_prefix("exp_").unwrap();
            assert_eq!(parse_only(id), Ok(vec![id]), "{bin}");
        }
        // the diagnostics and the explain table, in the order it printed them
        assert_eq!(parse_only("analyze,explain"), Ok(vec!["analyze", "explain"]), "exp_analyze");
    }

    #[test]
    fn flags_parse_and_unknown_arguments_are_errors() {
        let args = |list: &[&str]| parse_args(&list.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(args(&[]), Ok(Args::default()));
        let want = Args {
            only: Some(vec!["live", "serve"]),
            quick: true,
            check: true,
            json: true,
            folded: true,
        };
        let parsed = args(&["--quick", "--only", "live,serve", "--check", "--json", "--folded"]);
        assert_eq!(parsed, Ok(want));
        assert!(args(&["--only"]).is_err());
        assert!(args(&["--only", "nosuch"]).unwrap_err().contains("'nosuch'"));
        for removed in ["--pages", "--docs", "--queries", "--dops", "--tiny"] {
            let err = args(&[removed, "4"]).unwrap_err();
            assert!(err.contains(&format!("'{removed}'")), "{err}");
        }
    }
}
