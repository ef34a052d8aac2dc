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
//!   corpus, and (c) a session killed at a watermark and resumed;
//! - every deterministic surface (digest, retained-state bytes, reduce
//!   output) identical across the DoP grid;
//! - incremental cost per new document strictly below the full
//!   recompute's from round 2 onward;
//! - no watermark's crawl frame carries a page body (every page reached
//!   the delta pass before its round was sealed).

use std::sync::Arc;

use crate::report::{verdict, ExperimentResult, Verdict};
use websift_corpus::{CorpusKind, Document, LexiconScale};
use websift_crawler::{
    train_focus_classifier, CrawlCheckpoint, CrawlConfig, CrawlSession, ResilienceOptions,
};
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
    /// Round the kill-and-resume check severed the session at.
    pub resume_round: u32,
    /// (a) == (b): incremental digest equals the batch recompute's at
    /// every round boundary, at every DoP.
    pub digests_agree: bool,
    /// (a) == (c): the resumed session's watermarks and final store are
    /// byte-identical to the uninterrupted run's.
    pub resume_agrees: bool,
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
        if !self.resume_agrees {
            failures.push(format!(
                "a session resumed from the round-{} watermark did not replay byte-identically \
                 to the uninterrupted run",
                self.resume_round
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
        verdict(failures, || {
            format!(
                "{} rounds x DoP {dops:?}, digests identical across incremental / batch \
                 recompute / kill-and-resume (round {}), delta pass beats recompute per new \
                 document from round 2 on; {} docs / {} postings; watermarks carry 0 page \
                 bodies: watermark_bytes_last {} beside {} accepted net-text bytes",
                self.rounds,
                self.resume_round,
                self.total_documents,
                self.store_postings,
                self.watermark_bytes_last,
                self.net_text_bytes
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

fn start_session<'w>(
    web: &'w SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    max_pages: usize,
    dop: usize,
) -> LiveSession<'w> {
    LiveSession::start(
        web,
        train_focus_classifier(60, 2.0, 4),
        crawl_config(max_pages),
        seeds_for(web),
        &ResilienceOptions::default(),
        plan,
        ExtractionStore::new(STORE, SHARDS),
        LiveOptions { dop, ..LiveOptions::default() },
        Arc::new(Observer::new()),
    )
    .expect("live bench session starts")
}

/// Page bodies `watermark`'s crawl frame carries: the crawl resumed from
/// it keeps a page's net text only if the frame carried the body, and
/// every accepted page has one (the text filter's minimum length).
fn carried_bodies(web: &SimulatedWeb, max_pages: usize, watermark: &Watermark) -> usize {
    let parts = watermark.parts();
    let frame = CrawlCheckpoint::from_bytes(parts.crawl_round, parts.crawl_frame)
        .expect("a watermark's crawl frame verifies");
    let crawl = CrawlSession::resume(
        web,
        &frame,
        crawl_config(max_pages),
        &ResilienceOptions::default(),
        None,
        Arc::new(Observer::new()),
    )
    .expect("the crawl resumes from a watermark's frame");
    let report = crawl.report();
    report.relevant.iter().chain(&report.irrelevant).filter(|p| !p.net_text.is_empty()).count()
}

/// Runs one session to crawl exhaustion, sampling every round.
fn run_session(
    web: &SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    max_pages: usize,
    dop: usize,
) -> SessionRun {
    let mut session = start_session(web, plan, max_pages, dop);
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

/// Kill-and-resume check at `dop`: resume a fresh session from the
/// uninterrupted run's round-`kill_after` watermark and require every
/// subsequent watermark frame and the final digest to be byte-identical.
fn resume_agrees(
    web: &SimulatedWeb,
    plan: &websift_flow::LogicalPlan,
    max_pages: usize,
    dop: usize,
    straight: &SessionRun,
    kill_after: usize,
) -> bool {
    let frame = straight.watermarks[kill_after - 1].as_bytes().to_vec();
    let watermark = Watermark::from_bytes(frame).expect("watermark decodes");
    let mut resumed = LiveSession::resume_from(
        web,
        crawl_config(max_pages),
        &ResilienceOptions::default(),
        plan,
        LiveOptions { dop, ..LiveOptions::default() },
        Arc::new(Observer::new()),
        &watermark,
    )
    .expect("live bench session resumes");
    let mut marks = Vec::new();
    while let Some(round) = resumed.advance().expect("resumed round advances") {
        marks.push(round.watermark);
    }
    marks.len() == straight.watermarks.len() - kill_after
        && straight.watermarks[kill_after..]
            .iter()
            .zip(&marks)
            .all(|(a, b)| a.as_bytes() == b.as_bytes())
        && resumed.store().content_digest() == straight.final_digest
        && resumed.state_bytes() == straight.state_bytes
}

/// Runs the standard sweep — a 150-page crawl at every DoP in
/// [`LIVE_DOPS`], plus the batch oracle per round and one resume check —
/// or, `quick`, a 60-page crawl at DoP {1, 2}.
pub fn live(quick: bool) -> LiveReport {
    if quick {
        live_at(60, &[1, 2])
    } else {
        live_at(150, &LIVE_DOPS)
    }
}

/// Runs the sweep at explicit DoPs (at least one DoP is required, and
/// >= 2 make the invariance check mean something).
pub fn live_at(max_pages: usize, dops: &[usize]) -> LiveReport {
    assert!(!dops.is_empty(), "need at least one DoP");
    let web = live_web();
    let resources = IeResources::quick_for_tests(LexiconScale::tiny());
    let plan = live_extraction_flow(&resources, EntityType::Gene, STORE);

    let runs: Vec<SessionRun> =
        dops.iter().map(|&dop| run_session(&web, &plan, max_pages, dop)).collect();
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

    // Kill-and-resume: sever the first run mid-session and replay.
    let kill_after = (base.samples.len() / 2).max(1);
    let resume_ok = resume_agrees(&web, &plan, max_pages, dops[0], base, kill_after);

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
         {dops:?}; kill at round {kill_after} + resume {}; deterministic surfaces {} \
         across DoPs; incremental cost/new-doc {} the full recompute's from round 2 on \
         (simulated seconds)",
        base.samples.len(),
        base.cumulative.len(),
        base.postings,
        base.final_digest,
        base.retained_keys,
        if digests_agree { "matches" } else { "MISMATCHES" },
        if resume_ok { "replays byte-identically" } else { "DIVERGES" },
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
        resume_round: kill_after as u32,
        digests_agree,
        resume_agrees: resume_ok,
        dop_invariant,
        incremental_wins,
        watermark_bodies: base.watermarks.iter().map(|w| carried_bodies(&web, max_pages, w)).sum(),
        watermark_bytes_last: base.watermarks.last().map_or(0, Watermark::size_bytes),
        net_text_bytes: base.net_text_bytes,
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
            resume_round: 1,
            digests_agree: true,
            resume_agrees: true,
            dop_invariant: true,
            incremental_wins: true,
            watermark_bodies: 0,
            watermark_bytes_last: 1,
            net_text_bytes: 2,
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
            (failures(|r| r.resume_agrees = false), "resumed from the round-1 watermark"),
            (failures(|r| r.dop_invariant = false), "varied across the DoP grid [1, 2]"),
            (failures(|r| r.incremental_wins = false), "did not beat a batch full recompute"),
            (failures(|r| r.watermark_bodies = 4), "carry 4 page bodies"),
        ] {
            assert!(failures.len() == 1 && failures[0].contains(message), "{failures:?}");
        }
        let all = failures(|r| {
            (r.digests_agree, r.resume_agrees, r.dop_invariant) = (false, false, false);
            (r.incremental_wins, r.watermark_bodies) = (false, 4);
        });
        assert_eq!(all.len(), 5, "every failure is reported");
    }

    #[test]
    fn live_smoke_holds_every_verdict() {
        let report = live_at(60, &[1, 2]);
        assert!(report.rounds >= 2);
        assert_eq!(report.points.len(), 2 * report.rounds as usize);
        assert!(report.digests_agree, "incremental store diverged from batch recompute");
        assert!(report.resume_agrees, "kill-and-resume diverged");
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
        let run = run_session(&web, &plan, 60, 2);
        let upto = run.samples.len();
        let (d1, s1) = recompute(&plan, &run.cumulative, &run.samples, upto, 2);
        let (d2, s2) = recompute(&plan, &run.cumulative, &run.samples, upto, 2);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert_eq!(d1, run.final_digest);
    }
}
