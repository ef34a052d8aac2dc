//! Live incremental-execution harness: cost-per-new-document of the
//! per-round delta pass vs a batch full recompute, per crawl round and
//! DoP, plus the three-way byte-identity `--check` gates on.
//!
//! A [`LiveSession`] crawls a simulated web round by round, running the
//! live extraction flow over each round's *new* pages only and folding
//! the terminal reduce into retained per-key state. After every round
//! the harness replays the same round slices through the *original*
//! plan on a fresh store — the batch full-recompute oracle — and
//! records both costs in simulated seconds (the deterministic clock, so
//! the cost ratio is machine-independent). Wall time per round is also
//! measured — crawl-to-queryable wall freshness — which is why this
//! file is on the lint's wall-clock allowlist. `--check` requires:
//!
//! - store `content_digest` after round k identical for (a) the
//!   incremental session, (b) the batch recompute over the cumulative
//!   corpus, and (c) a session killed at a watermark and resumed;
//! - every deterministic surface (digest, retained-state bytes, reduce
//!   output) identical across the DoP grid;
//! - incremental cost per new document strictly below the full
//!   recompute's from round 2 onward.

use std::sync::Arc;
use std::time::Instant;

use crate::report::ExperimentResult;
use websift_corpus::{CorpusKind, Document, LexiconScale};
use websift_crawler::{train_focus_classifier, CrawlConfig, ResilienceOptions};
use websift_flow::IeResources;
use websift_ner::EntityType;
use websift_observe::json::{array, ObjectWriter};
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

/// One measured (DoP, round) cell.
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
    /// Real wall seconds the round took (crawl + delta + seal).
    pub wall_secs: f64,
    /// Incremental store digest after this round.
    pub store_digest: u64,
    /// Batch-oracle store digest after the same rounds.
    pub recompute_digest: u64,
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
/// verdicts `--check` gates on.
#[derive(Debug)]
pub struct LiveReport {
    pub result: ExperimentResult,
    pub points: Vec<LivePoint>,
    pub max_pages: usize,
    pub dops: Vec<usize>,
    /// Rounds the crawl ran (identical at every DoP — the crawl does
    /// not depend on flow parallelism).
    pub rounds: u32,
    pub total_documents: u64,
    pub store_postings: u64,
    /// Final incremental store content digest.
    pub content_digest: u64,
    /// Per-key `AggState` entries retained at the end of the session.
    pub retained_keys: u64,
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
    wall_secs: f64,
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
    loop {
        // lint:allow(wall_clock): per-round wall latency is the crawl-to-queryable freshness this harness reports
        let t = Instant::now();
        let Some(round) = session.advance().expect("live bench round advances") else {
            break;
        };
        let wall_secs = t.elapsed().as_secs_f64();
        total_docs += round.new_documents as u64;
        let incremental_total = session.metrics().incremental_cost_secs;
        samples.push(RoundSample {
            round: round.round,
            new_documents: round.new_documents as u64,
            delta_records: round.delta_records as u64,
            cumulative_documents: total_docs,
            incremental_secs: incremental_total - prev_incremental,
            freshness_secs: round.freshness_secs,
            wall_secs,
            store_digest: round.watermark.parts().store_digest,
        });
        prev_incremental = incremental_total;
        watermarks.push(round.watermark);
    }
    let relevant = &session.crawl().report().relevant;
    let cumulative = documents_from_pages(relevant, CorpusKind::RelevantWeb, 0);
    SessionRun {
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

/// Runs the standard sweep: every DoP in [`LIVE_DOPS`] over the same
/// crawl, plus the batch oracle per round and one resume check.
pub fn live(max_pages: usize) -> LiveReport {
    live_at(max_pages, &LIVE_DOPS)
}

/// Runs the sweep at explicit DoPs (`--quick` uses a shorter grid; at
/// least one DoP is required, and >= 2 make the invariance check mean
/// something).
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
                wall_secs: sample.wall_secs,
                store_digest: sample.store_digest,
                recompute_digest,
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
        max_pages,
        dops: dops.to_vec(),
        rounds: base.samples.len() as u32,
        total_documents: base.cumulative.len() as u64,
        store_postings: base.postings,
        content_digest: base.final_digest,
        retained_keys: base.retained_keys,
        resume_round: kill_after as u32,
        digests_agree,
        resume_agrees: resume_ok,
        dop_invariant,
        incremental_wins,
    }
}

/// Machine-readable report (`exp_live --json`). Host parallelism and
/// the round/DoP grid are stamped in so wall-clock freshness can be
/// compared across machines; costs are simulated seconds and must not
/// vary across machines at all.
pub fn live_json(report: &LiveReport) -> String {
    let points = array(report.points.iter().map(|p| {
        let (incr_per, recomp_per) = p.cost_per_doc().unwrap_or((0.0, 0.0));
        ObjectWriter::new()
            .u64("dop", p.dop as u64)
            .u64("round", u64::from(p.round))
            .u64("new_documents", p.new_documents)
            .u64("delta_records", p.delta_records)
            .u64("cumulative_documents", p.cumulative_documents)
            .f64("incremental_secs", p.incremental_secs)
            .f64("recompute_secs", p.recompute_secs)
            .f64("incremental_secs_per_doc", incr_per)
            .f64("recompute_secs_per_doc", recomp_per)
            .f64("freshness_secs", p.freshness_secs)
            .f64("wall_secs", p.wall_secs)
            .u64("store_digest", p.store_digest)
            .u64("recompute_digest", p.recompute_digest)
            .finish()
    }));
    let rounds = array((1..=report.rounds).map(|r| u64::from(r).to_string()));
    let dops = array(report.dops.iter().map(|d| d.to_string()));
    ObjectWriter::new()
        .str("experiment", "live")
        .u64("max_pages", report.max_pages as u64)
        .u64("host_logical_cores", crate::report::host_logical_cores())
        .u64("rounds", u64::from(report.rounds))
        .u64("total_documents", report.total_documents)
        .u64("store_postings", report.store_postings)
        .u64("content_digest", report.content_digest)
        .u64("retained_keys", report.retained_keys)
        .u64("resume_round", u64::from(report.resume_round))
        .raw("digests_agree", if report.digests_agree { "true" } else { "false" })
        .raw("resume_agrees", if report.resume_agrees { "true" } else { "false" })
        .raw("dop_invariant", if report.dop_invariant { "true" } else { "false" })
        .raw("incremental_wins", if report.incremental_wins { "true" } else { "false" })
        .raw("round_grid", &rounds)
        .raw("dop_grid", &dops)
        .raw("points", &points)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_smoke_holds_every_verdict() {
        let report = live_at(60, &[1, 2]);
        assert!(report.rounds >= 2);
        assert_eq!(report.points.len(), 2 * report.rounds as usize);
        assert!(report.digests_agree, "incremental store diverged from batch recompute");
        assert!(report.resume_agrees, "kill-and-resume diverged");
        assert!(report.dop_invariant, "deterministic surfaces vary with DoP");
        assert!(report.incremental_wins, "delta pass lost to a full recompute");
        assert!(report.store_postings > 0);
        let json = live_json(&report);
        assert!(json.contains("\"experiment\":\"live\""));
        assert!(json.contains("\"digests_agree\":true"));
        assert!(json.contains("\"resume_agrees\":true"));
        assert!(json.contains("\"dop_invariant\":true"));
        assert!(json.contains("\"incremental_wins\":true"));
        assert!(json.contains("\"host_logical_cores\""));
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
