//! Live incremental-execution harness: cost-per-new-document of the
//! per-round delta pass vs a batch full recompute, per crawl round and
//! DoP, plus the three-way byte-identity `run_all --only live --check`
//! gates on.
//!
//! A [`LiveSession`] crawls a simulated web round by round, running the
//! live extraction flow over each round's *new* pages only and folding
//! the terminal reduce into retained per-key state. After every round
//! the harness replays the same round slices through the *original*
//! plan on a fresh store — the batch full-recompute oracle — and
//! records both costs in simulated seconds (the deterministic clock, so
//! the cost ratio is machine-independent). Wall time per round is
//! `benchmark/`'s `live_rounds` workload, not this harness's.
//! [`LiveReport::check`] requires:
//!
//! - store `content_digest` after round k identical for (a) the
//!   incremental session, (b) the batch recompute over the cumulative
//!   corpus, and (c) a session killed after any round and resumed from
//!   the chain of watermarks up to it — at every DoP of the grid, with
//!   and without injected crawl faults, every later watermark byte-equal;
//! - every deterministic surface (digest, retained-state bytes, reduce
//!   output) identical across the DoP grid;
//! - incremental cost per new document strictly below the full
//!   recompute's from round 2 onward;
//! - no watermark's crawl frame carries a page body (every page reached
//!   the delta pass before its round was sealed);
//! - a watermark holds what its round changed: over two crawls of
//!   different sizes, the bytes sealed after the first (whole) watermark
//!   per accepted page, and the largest such watermark, do not grow with
//!   the crawl.

use std::sync::Arc;

use crate::report::{verdict, ExperimentResult, Verdict};
use websift_corpus::{CorpusKind, Document, LexiconScale};
use websift_crawler::{
    train_focus_classifier, CrawlCheckpoint, CrawlConfig, CrawlSession, ResilienceOptions,
};
use websift_live::LiveError;
use websift_flow::IeResources;
use websift_ner::EntityType;
use websift_observe::Observer;
use websift_live::{LiveOptions, LiveSession, Watermark};
use websift_pipeline::documents_from_pages;
use websift_pipeline::flows::{live_extraction_flow, run_over_documents_into};
use websift_serve::ExtractionStore;
use websift_web::{PageId, SimulatedWeb, Url, WebGraph, WebGraphConfig};

/// DoP grid every round is measured at. Deterministic surfaces must be
/// identical across the whole grid.
pub const LIVE_DOPS: [usize; 3] = [1, 2, 4];

/// Store name the live flow routes its `store:` sink to.
const STORE: &str = "live";

/// Store shard count — fixed so content digests are comparable across
/// runs (they are shard-invariant anyway, but keep one variable fewer).
const SHARDS: usize = 4;

/// One (DoP, round) cell.
#[derive(Debug, Clone)]
pub struct LivePoint {
    pub dop: usize,
    pub round: u32,
    pub new_documents: u64,
    pub delta_records: u64,
    /// Corpus size after this round (what the recompute pays for).
    pub cumulative_documents: u64,
    /// Simulated seconds of the delta pass over this round's new pages.
    pub incremental_secs: f64,
    /// Simulated seconds of rerunning the full plan over the cumulative
    /// corpus (every round slice, replayed with its round stamp).
    pub recompute_secs: f64,
    /// Simulated crawl-to-queryable latency of this round.
    pub freshness_secs: f64,
    /// Incremental store digest after this round.
    pub store_digest: u64,
}

impl LivePoint {
    /// Simulated cost per new document, incremental vs recompute. Both
    /// are `None` for a round that admitted no new documents.
    pub fn cost_per_doc(&self) -> Option<(f64, f64)> {
        if self.new_documents == 0 {
            return None;
        }
        let n = self.new_documents as f64;
        Some((self.incremental_secs / n, self.recompute_secs / n))
    }
}

/// Full harness outcome: the rendered table, raw points, and the
/// verdicts [`LiveReport::check`] gates on.
#[derive(Debug)]
pub struct LiveReport {
    pub result: ExperimentResult,
    pub points: Vec<LivePoint>,
    /// The DoP grid every round was measured at.
    pub dops: Vec<usize>,
    /// Rounds the crawl ran (identical at every DoP — the crawl does
    /// not depend on flow parallelism).
    pub rounds: u32,
    pub total_documents: u64,
    pub store_postings: u64,
    /// Sessions resumed from a chain prefix: after every round, at every
    /// DoP, with and without injected crawl faults.
    pub resumes: usize,
    /// (a) == (c): each resume whose later watermarks, final store or
    /// retained state differ from the uninterrupted run's, named.
    pub resume_failures: Vec<String>,
    /// (a) == (b): incremental digest equals the batch recompute's at
    /// every round boundary, at every DoP.
    pub digests_agree: bool,
    /// Digest, retained-state bytes, and reduce output identical across
    /// the DoP grid.
    pub dop_invariant: bool,
    /// Incremental cost/new-doc < recompute cost/new-doc for every
    /// round >= 2 at every DoP (simulated seconds).
    pub incremental_wins: bool,
    /// Page bodies carried by the crawl frames of the first run's
    /// watermarks: zero when each round drains its pages before the seal.
    /// The crawl does not depend on the DoP, so one run stands for all.
    pub watermark_bodies: usize,
    /// Size of the first run's last watermark.
    pub watermark_bytes_last: usize,
    /// Net-text bytes of every page the first run's crawl accepted: what
    /// the last watermark would hold on top if it carried every body.
    pub net_text_bytes: usize,
    /// A smaller and a larger crawl of eight fetches a round: what each
    /// sealed after its first, whole watermark.
    pub sealed: [SealedBytes; 2],
}

/// What a session sealed after its first, whole watermark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SealedBytes {
    /// Pages the crawl accepted.
    pub pages: usize,
    /// Bytes of every watermark after the first, summed.
    pub bytes: usize,
    /// The largest watermark after the first.
    pub largest: usize,
}

impl SealedBytes {
    fn per_page(&self) -> f64 {
        self.bytes as f64 / self.pages.max(1) as f64
    }
}

impl LiveReport {
    /// The `--check` gate: the incremental session, a batch full
    /// recompute and a killed-and-resumed session agree on every store
    /// digest, deterministic surfaces are DoP-invariant, the delta pass
    /// beats the recompute per new document from round 2 on, and no
    /// watermark's crawl frame carries a page body.
    pub fn check(&self) -> Verdict {
        let dops = &self.dops;
        let mut failures = Vec::new();
        if !self.digests_agree {
            failures.push(
                "the incremental store diverged from a batch full recompute at some round \
                 boundary (incremental != batch digest)"
                    .to_string(),
            );
        }
        if let Some(first) = self.resume_failures.first() {
            failures.push(format!(
                "{} of {} sessions resumed from a chain prefix did not replay byte-identically \
                 to the uninterrupted run, first {first}",
                self.resume_failures.len(),
                self.resumes
            ));
        }
        if !self.dop_invariant {
            failures.push(format!(
                "store digest, retained-state bytes, or reduce output varied across the DoP \
                 grid {dops:?}"
            ));
        }
        if !self.incremental_wins {
            failures.push(
                "the delta pass did not beat a batch full recompute per new document from \
                 round 2 onward (simulated seconds)"
                    .to_string(),
            );
        }
        if self.watermark_bodies > 0 {
            failures.push(format!(
                "the watermarks' crawl frames carry {} page bodies; every page is drained \
                 before its round is sealed, so they should carry none",
                self.watermark_bodies
            ));
        }
        let [small, large] = self.sealed;
        if large.per_page() >= 1.25 * small.per_page() {
            failures.push(format!(
                "sealed bytes per accepted page after the first watermark grew from {:.0} \
                 ({} pages) to {:.0} ({} pages): the chain grows faster than the crawl",
                small.per_page(),
                small.pages,
                large.per_page(),
                large.pages
            ));
        }
        if 2 * large.largest > 3 * small.largest {
            failures.push(format!(
                "the largest watermark after the first grew from {} bytes ({} pages) to {} \
                 ({} pages): a round's watermark grows with the crawl",
                small.largest, small.pages, large.largest, large.pages
            ));
        }
        verdict(failures, || {
            format!(
                "{} rounds x DoP {dops:?}, digests identical across incremental / batch \
                 recompute / {} sessions resumed from every round's chain prefix (with and \
                 without injected faults), delta pass beats recompute per new document from \
                 round 2 on; {} docs / {} postings; watermarks carry 0 page bodies: \
                 watermark_bytes_last {} beside {} accepted net-text bytes; sealed after the \
                 first watermark {:.0} / {:.0} bytes per page at {} / {} pages, largest {} / {}",
                self.rounds,
                self.resumes,
                self.total_documents,
                self.store_postings,
                self.watermark_bytes_last,
                self.net_text_bytes,
                small.per_page(),
                large.per_page(),
                small.pages,
                large.pages,
                small.largest,
                large.largest
            )
        })
    }
}

fn live_web() -> SimulatedWeb {
    SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()))
}

fn seeds_for(web: &SimulatedWeb) -> Vec<Url> {
    (0..web.graph().num_pages() as u32)
        .map(PageId)
        .filter(|&p| web.graph().page(p).relevant)
        .take(10)
        .map(|p| web.graph().url_of(p))
        .collect()
}

fn crawl_config(max_pages: usize) -> CrawlConfig {
    CrawlConfig { max_pages, threads: 4, ..CrawlConfig::default() }
}

/// Everything one uninterrupted session run yields that the report
/// needs: per-round samples, watermark frames (for the resume check),
/// and the final deterministic surfaces.
struct SessionRun {
    samples: Vec<RoundSample>,
    watermarks: Vec<Watermark>,
    /// Pages the crawl accepted, relevant and irrelevant.
    pages: usize,
    net_text_bytes: usize,
    cumulative: Vec<Document>,
    final_digest: u64,
    state_bytes: Vec<u8>,
    finished: Vec<websift_flow::Record>,
    postings: u64,
    retained_keys: u64,
}

struct RoundSample {
    round: u32,
    new_documents: u64,
    delta_records: u64,
    cumulative_documents: u64,
    incremental_secs: f64,
    freshness_secs: f64,
    store_digest: u64,
}

/// Injected crawl faults, without the checkpoint cadence a live session
/// refuses (its watermark is its frame every round).
fn injected_faults() -> ResilienceOptions {
    ResilienceOptions {
        checkpoint_every_rounds: None,
        ..ResilienceOptions::injected(0x77, 0.05, 2)
    }
}

fn start_session<'w>(
    web: &'w SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    config: CrawlConfig,
    options: &ResilienceOptions,
    dop: usize,
) -> LiveSession<'w> {
    LiveSession::start(
        web,
        train_focus_classifier(60, 2.0, 4),
        config,
        seeds_for(web),
        options,
        plan,
        ExtractionStore::new(STORE, SHARDS),
        LiveOptions { dop, ..LiveOptions::default() },
        Arc::new(Observer::new()),
    )
    .expect("live bench session starts")
}

/// Page bodies the crawl frames of `chain` carry: the crawl rebuilt from
/// the chain, frame by frame, keeps a page's net text only if a frame
/// carried its body, and every accepted page has one (the text filter's
/// minimum length); summed over the rebuilt crawl after each frame.
fn carried_bodies(web: &SimulatedWeb, max_pages: usize, chain: &[Watermark]) -> usize {
    let mut crawl: Option<CrawlSession<'_>> = None;
    let mut bodies = 0;
    for watermark in chain {
        let parts = watermark.parts();
        let frame = CrawlCheckpoint::from_bytes(parts.crawl_round, parts.crawl_frame)
            .expect("a watermark's crawl frame verifies");
        match &mut crawl {
            None => {
                let first = CrawlSession::resume(
                    web,
                    &frame,
                    crawl_config(max_pages),
                    &ResilienceOptions::default(),
                    None,
                    Arc::new(Observer::new()),
                );
                crawl = Some(first.expect("the crawl resumes from the chain's first frame"));
            }
            Some(crawl) => crawl.apply_frame(&frame).expect("the chain's next frame replays"),
        }
        let report = crawl.as_ref().expect("replayed").report();
        let pages = report.relevant.iter().chain(&report.irrelevant);
        bodies += pages.filter(|p| !p.net_text.is_empty()).count();
    }
    bodies
}

/// Runs one session to crawl exhaustion, sampling every round.
fn run_session(
    web: &SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    config: CrawlConfig,
    options: &ResilienceOptions,
    dop: usize,
) -> SessionRun {
    let mut session = start_session(web, plan, config, options, dop);
    let mut samples = Vec::new();
    let mut watermarks = Vec::new();
    let mut total_docs = 0u64;
    let mut prev_incremental = 0.0f64;
    while let Some(round) = session.advance().expect("live bench round advances") {
        total_docs += round.new_documents as u64;
        let incremental_total = session.metrics().incremental_cost_secs;
        samples.push(RoundSample {
            round: round.round,
            new_documents: round.new_documents as u64,
            delta_records: round.delta_records as u64,
            cumulative_documents: total_docs,
            incremental_secs: incremental_total - prev_incremental,
            freshness_secs: round.freshness_secs,
            store_digest: round.watermark.store_digest(),
        });
        prev_incremental = incremental_total;
        watermarks.push(round.watermark);
    }
    let report = session.crawl().report();
    let cumulative = documents_from_pages(&report.relevant, CorpusKind::RelevantWeb, 0);
    let pages = report.relevant.iter().chain(&report.irrelevant);
    SessionRun {
        pages: report.relevant.len() + report.irrelevant.len(),
        net_text_bytes: pages.map(|p| p.net_text.len()).sum(),
        final_digest: session.store().content_digest(),
        postings: session.store().posting_count(),
        retained_keys: session.metrics().retained_keys,
        state_bytes: session.state_bytes(),
        finished: session.finished("token_frequencies").expect("retained sink"),
        samples,
        watermarks,
        cumulative,
    }
}

/// Batch full-recompute oracle after round `upto` (1-based index into
/// the sample list): a fresh store fed every round slice through the
/// original plan, returning (content digest, total simulated seconds) —
/// what a non-incremental pipeline pays to reach the same state.
fn recompute(
    plan: &websift_flow::LogicalPlan,
    docs: &[Document],
    samples: &[RoundSample],
    upto: usize,
    dop: usize,
) -> (u64, f64) {
    let mut store = ExtractionStore::new(STORE, SHARDS);
    let mut secs = 0.0;
    let mut cursor = 0usize;
    for sample in &samples[..upto] {
        let count = sample.new_documents as usize;
        store.set_round(sample.round);
        let out = run_over_documents_into(plan, &docs[cursor..cursor + count], dop, &mut store)
            .expect("batch oracle flow");
        secs += out.metrics.simulated_secs;
        cursor += count;
    }
    (store.content_digest(), secs)
}

/// Kill-and-resume check at `dop` under `options`: for every round k,
/// resume a fresh session from the uninterrupted run's watermarks of
/// rounds 1..k and require every later watermark, the final store digest
/// and the retained state to be byte-identical. Returns each resume that
/// was not, named.
fn resume_failures(
    web: &SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    max_pages: usize,
    dop: usize,
    options: &ResilienceOptions,
    straight: &SessionRun,
) -> Vec<String> {
    let what = |k: usize, how: String| {
        format!("DoP {dop}, faults {}, after round {k}: {how}", options.faults.is_some())
    };
    let mut failures = Vec::new();
    for k in 1..=straight.watermarks.len() {
        let chain: Vec<Watermark> = straight.watermarks[..k]
            .iter()
            .map(|w| Watermark::from_bytes(w.as_bytes().to_vec()).expect("watermark decodes"))
            .collect();
        let resumed = LiveSession::resume_from(
            web,
            crawl_config(max_pages),
            options,
            plan,
            LiveOptions { dop, ..LiveOptions::default() },
            Arc::new(Observer::new()),
            &chain,
        );
        let mut resumed = match resumed {
            Ok(resumed) => resumed,
            Err(e) => {
                failures.push(what(k, format!("refused: {e}")));
                continue;
            }
        };
        let mut marks = Vec::new();
        let ended = loop {
            match resumed.advance() {
                Ok(Some(round)) => marks.push(round.watermark),
                Ok(None) => break Ok(()),
                Err(e) => break Err::<(), LiveError>(e),
            }
        };
        let replayed = ended.is_ok()
            && marks[..] == straight.watermarks[k..]
            && resumed.store().content_digest() == straight.final_digest
            && resumed.state_bytes() == straight.state_bytes;
        if !replayed {
            failures.push(what(k, format!("{} later watermarks, {ended:?}", marks.len())));
        }
    }
    failures
}

/// What a live session over a crawl of at most `max_pages` pages, eight
/// fetches a round, sealed after its first watermark.
fn sealed_after_the_first(
    web: &SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    max_pages: usize,
) -> SealedBytes {
    let config = CrawlConfig { fetch_list_total: 8, ..crawl_config(max_pages) };
    let run = run_session(web, plan, config, &ResilienceOptions::default(), 1);
    let later = run.watermarks.iter().skip(1).map(Watermark::size_bytes);
    SealedBytes {
        pages: run.pages,
        bytes: later.clone().sum(),
        largest: later.max().unwrap_or(0),
    }
}

/// Runs the standard sweep — a 150-page crawl at every DoP in
/// [`LIVE_DOPS`], plus the batch oracle per round, the resume from every
/// round's chain prefix with and without injected faults, and the sealed
/// bytes of a 20-page and a 200-page crawl — or, `quick`, the same with a
/// 60-page crawl.
pub fn live(quick: bool) -> LiveReport {
    live_at(if quick { 60 } else { 150 }, &LIVE_DOPS)
}

/// Runs the sweep at explicit DoPs (at least one DoP is required, and
/// >= 2 make the invariance check mean something).
pub fn live_at(max_pages: usize, dops: &[usize]) -> LiveReport {
    assert!(!dops.is_empty(), "need at least one DoP");
    let web = live_web();
    let resources = IeResources::quick_for_tests(LexiconScale::tiny());
    let plan = live_extraction_flow(&resources, EntityType::Gene, STORE);

    let plain = ResilienceOptions::default();
    let runs: Vec<SessionRun> = dops
        .iter()
        .map(|&dop| run_session(&web, &plan, crawl_config(max_pages), &plain, dop))
        .collect();
    let base = &runs[0];
    assert!(base.samples.len() >= 2, "crawl ended after one round; raise max_pages");

    let mut result = ExperimentResult::new(
        "Live",
        "Incremental delta pass vs batch full recompute, per crawl round and DoP",
        &[
            "DoP", "round", "new docs", "Δ records", "corpus", "incr s/doc",
            "recomp s/doc", "speedup", "fresh s", "digest",
        ],
    );

    let mut points: Vec<LivePoint> = Vec::new();
    let mut digests_agree = true;
    for (run, &dop) in runs.iter().zip(dops) {
        for (k, sample) in run.samples.iter().enumerate() {
            let (recompute_digest, recompute_secs) =
                recompute(&plan, &run.cumulative, &run.samples, k + 1, dop);
            digests_agree &= sample.store_digest == recompute_digest;
            let point = LivePoint {
                dop,
                round: sample.round,
                new_documents: sample.new_documents,
                delta_records: sample.delta_records,
                cumulative_documents: sample.cumulative_documents,
                incremental_secs: sample.incremental_secs,
                recompute_secs,
                freshness_secs: sample.freshness_secs,
                store_digest: sample.store_digest,
            };
            let (incr_per, recomp_per) = point.cost_per_doc().unwrap_or((0.0, 0.0));
            result.row(&[
                dop.to_string(),
                point.round.to_string(),
                point.new_documents.to_string(),
                point.delta_records.to_string(),
                point.cumulative_documents.to_string(),
                format!("{incr_per:.4}"),
                format!("{recomp_per:.4}"),
                if incr_per > 0.0 { format!("{:.2}x", recomp_per / incr_per) } else { "-".into() },
                format!("{:.3}", point.freshness_secs),
                format!("{:016x}", point.store_digest),
            ]);
            points.push(point);
        }
    }

    // DoP invariance: every deterministic surface equal across the grid.
    let dop_invariant = runs.iter().all(|r| {
        r.final_digest == base.final_digest
            && r.state_bytes == base.state_bytes
            && r.finished == base.finished
            && r.samples.len() == base.samples.len()
            && r.samples
                .iter()
                .zip(&base.samples)
                .all(|(a, b)| a.store_digest == b.store_digest)
    });

    // Kill-and-resume: sever every run after every round and replay the
    // chain; the same under injected crawl faults.
    let faults = injected_faults();
    let mut resumes = 0;
    let mut resume_failed = Vec::new();
    for (run, &dop) in runs.iter().zip(dops) {
        let faulty = run_session(&web, &plan, crawl_config(max_pages), &faults, dop);
        for (run, options) in [(run, &plain), (&faulty, &faults)] {
            resumes += run.watermarks.len();
            resume_failed.extend(resume_failures(&web, &plan, max_pages, dop, options, run));
        }
    }

    // The incremental claim: from round 2 on, the delta pass must beat a
    // full recompute per new document (round 1 is a wash by definition —
    // there is nothing retained yet to save).
    let incremental_wins = points
        .iter()
        .filter(|p| p.round >= 2)
        .filter_map(LivePoint::cost_per_doc)
        .all(|(incr, recomp)| incr < recomp);

    result.note(format!(
        "{} rounds, {} documents, {} postings (content digest {:016x}); {} retained \
         reduce keys; incremental digest {} the batch recompute's at every round and DoP \
         {dops:?}; {resumes} resumes from every round's chain prefix (faults or not) {}; \
         deterministic surfaces {} \
         across DoPs; incremental cost/new-doc {} the full recompute's from round 2 on \
         (simulated seconds)",
        base.samples.len(),
        base.cumulative.len(),
        base.postings,
        base.final_digest,
        base.retained_keys,
        if digests_agree { "matches" } else { "MISMATCHES" },
        if resume_failed.is_empty() { "replay byte-identically" } else { "DIVERGE" },
        if dop_invariant { "agree" } else { "DISAGREE" },
        if incremental_wins { "beats" } else { "DOES NOT BEAT" },
    ));

    LiveReport {
        result,
        points,
        dops: dops.to_vec(),
        rounds: base.samples.len() as u32,
        total_documents: base.cumulative.len() as u64,
        store_postings: base.postings,
        resumes,
        resume_failures: resume_failed,
        digests_agree,
        dop_invariant,
        incremental_wins,
        watermark_bodies: carried_bodies(&web, max_pages, &base.watermarks),
        watermark_bytes_last: base.watermarks.last().map_or(0, Watermark::size_bytes),
        net_text_bytes: base.net_text_bytes,
        sealed: [20, 200].map(|pages| sealed_after_the_first(&web, &plan, pages)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report on which every verdict of the gate holds.
    fn holding_report() -> LiveReport {
        LiveReport {
            result: ExperimentResult::new("Live", "t", &["x"]),
            points: Vec::new(),
            dops: vec![1, 2],
            rounds: 3,
            total_documents: 13,
            store_postings: 115,
            resumes: 6,
            resume_failures: Vec::new(),
            digests_agree: true,
            dop_invariant: true,
            incremental_wins: true,
            watermark_bodies: 0,
            watermark_bytes_last: 1,
            net_text_bytes: 2,
            sealed: [
                SealedBytes { pages: 20, bytes: 20_000, largest: 4_000 },
                SealedBytes { pages: 60, bytes: 66_000, largest: 5_000 },
            ],
        }
    }

    #[test]
    fn check_fails_on_every_broken_verdict() {
        let held = holding_report().check().expect("every verdict holds");
        assert!(held.starts_with("3 rounds x DoP [1, 2], digests identical"), "{held}");
        let failures = |break_verdicts: fn(&mut LiveReport)| {
            let mut report = holding_report();
            break_verdicts(&mut report);
            report.check().unwrap_err()
        };
        for (failures, message) in [
            (failures(|r| r.digests_agree = false), "incremental != batch digest"),
            (
                failures(|r| r.resume_failures = vec!["DoP 2, after round 1".into()]),
                "1 of 6 sessions resumed from a chain prefix",
            ),
            (failures(|r| r.dop_invariant = false), "varied across the DoP grid [1, 2]"),
            (failures(|r| r.incremental_wins = false), "did not beat a batch full recompute"),
            (failures(|r| r.watermark_bodies = 4), "carry 4 page bodies"),
            (failures(|r| r.sealed[1].bytes = 90_000), "grew from 1000 (20 pages) to 1500"),
            (failures(|r| r.sealed[1].largest = 6_001), "grew from 4000 bytes (20 pages)"),
        ] {
            assert!(failures.len() == 1 && failures[0].contains(message), "{failures:?}");
        }
        let all = failures(|r| {
            (r.digests_agree, r.dop_invariant) = (false, false);
            r.resume_failures = vec!["x".into()];
            (r.incremental_wins, r.watermark_bodies) = (false, 4);
            r.sealed[1] = SealedBytes { pages: 60, bytes: 90_000, largest: 9_000 };
        });
        assert_eq!(all.len(), 7, "every failure is reported");
    }

    #[test]
    fn live_smoke_holds_every_verdict() {
        let report = live_at(60, &[1, 2]);
        assert!(report.rounds >= 2);
        assert_eq!(report.points.len(), 2 * report.rounds as usize);
        assert!(report.digests_agree, "incremental store diverged from batch recompute");
        assert!(report.resume_failures.is_empty(), "{:?}", report.resume_failures);
        assert!(report.resumes >= 2 * report.rounds as usize, "{} resumes", report.resumes);
        report.check().expect("every verdict holds");
        assert!(report.dop_invariant, "deterministic surfaces vary with DoP");
        assert!(report.incremental_wins, "delta pass lost to a full recompute");
        assert_eq!(report.watermark_bodies, 0, "a watermark carries a page body");
        assert!(report.net_text_bytes > 0);
        assert!(report.store_postings > 0);
        // no wall-clock column: a second run renders the same bytes
        assert_eq!(report.result.render(), live_at(60, &[1, 2]).result.render());
    }

    #[test]
    fn recompute_oracle_is_deterministic() {
        let web = live_web();
        let resources = IeResources::quick_for_tests(LexiconScale::tiny());
        let plan = live_extraction_flow(&resources, EntityType::Gene, STORE);
        let run = run_session(&web, &plan, crawl_config(60), &ResilienceOptions::default(), 2);
        let upto = run.samples.len();
        let (d1, s1) = recompute(&plan, &run.cumulative, &run.samples, upto, 2);
        let (d2, s2) = recompute(&plan, &run.cumulative, &run.samples, upto, 2);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert_eq!(d1, run.final_digest);
    }
}
