//! The focused crawl loop: fetch → parse → filter → boilerplate →
//! classify → expand.
//!
//! This is the orchestration of Fig. 1: an injector seeds the CrawlDB,
//! fetcher threads pull host-partitioned fetch lists, each downloaded page
//! runs the MIME/length/language filter chain and boilerplate removal, the
//! Naive-Bayes classifier decides relevance, and only relevant pages'
//! outlinks flow back into the frontier ("otherwise, it is discarded").
//! The crawl ends when the frontier empties — the paper's actual stopping
//! condition ("the size of the crawl we obtained was bound by the fact
//! that our crawl frontier eventually emptied") — or when the configured
//! corpus size is reached.
//!
//! # One loop
//!
//! Everything the loop mutates besides the crawler itself travels in one
//! `LoopState`, and one function, `FocusedCrawler::round`, advances it by
//! exactly one fetched round ("segment"), in named phases: `next_batch`
//! (frontier work plus retries come due, minus what the circuit breaker
//! holds back), the fetch, per outcome `settle` (retry / backoff /
//! breaker accounting) and `analyse_page`, `observe_round`, and
//! `cadence_checkpoint` at the segment boundary.
//! [`FocusedCrawler::crawl_resilient`] is "inject, `while round {}`,
//! finish" and [`CrawlSession::step_round`] calls the same `round` once,
//! which is what makes a stepped crawl bit-identical to an uninterrupted
//! one.
//!
//! A page's analysis is split in two. Its content phase — MIME and raw
//! size, UTF-8 decode, links, boilerplate, the net-text length and
//! language verdicts, the content digest — reads no crawl state, so the
//! fetch worker that downloaded the page runs it at once
//! (`FocusedCrawler::content_phase`). Everything that reads or writes
//! crawl state — filter counters, LinkDB, dedup, classify (IE feedback may
//! retrain the classifier page by page), expand, accept and the phase
//! charges — is applied by `analyse_page` on the round loop, one outcome
//! at a time in URL order, so every counter and every `f64` sum is the
//! same whatever the number of workers.
//!
//! # Resilience
//!
//! The loop is built to survive the failures that dominated the paper's
//! 80-day production crawl. Retryable fetch failures (injected transient
//! network errors, crashed fetcher workers) are rescheduled with
//! decorrelated-jitter backoff under per-host retry budgets; hosts that
//! fail persistently are quarantined by a circuit breaker; and at round
//! boundaries the complete crawler state — CrawlDB, LinkDB, classifier
//! counts, dedup hashes, report accumulators, and the retry machinery
//! itself — can be checkpointed. A crawl killed mid-flight (a caller that
//! stops calling [`CrawlSession::step_round`]) and rebuilt from its last
//! frame by [`CrawlSession::resume`] reproduces *bit-identical* final
//! statistics to an uninterrupted run under the same fault plan: every
//! fault/backoff decision is a pure function of the seed, and every
//! accumulator (including `f64` time) round-trips through the checkpoint
//! by bit pattern.

use crate::boilerplate::BoilerplateDetector;
use crate::classifier::NaiveBayes;
use crate::crawldb::{CrawlDb, CrawlDbConfig, DbCursor, FrontierEntry, UrlStatus};
use crate::feedback::IeFeedback;
use crate::fetcher::{FaultContext, FetchOutcome, Fetcher};
use crate::filters::{FilterChain, FilterConfig, FilterStats, RejectReason};
use crate::linkdb::{LinkCursor, LinkDb};
use crate::recovery::{CheckpointLayout, CrawlCheckpoint, ResilienceOptions, ResilienceStats};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use websift_observe::{Labels, Observer, RegistrySnapshot};
use websift_resilience::codec::{self, presize};
use websift_resilience::{
    BreakerState, CircuitBreaker, CodecError, FaultKind, Reader, RetryBudget, Snapshot, Writer,
};
use websift_web::{FetchResponse, SimulatedWeb, Url};

/// Per-page classification/filtering cost in simulated seconds — this is
/// what pushed the paper's crawler down to 3-4 docs/s.
const ANALYSIS_COST_SECS: f64 = 0.12;

/// Fig. 1 phase decomposition of [`ANALYSIS_COST_SECS`], used only to
/// *attribute* the per-page analysis cost to the round's phase spans.
/// The clock still advances by the single per-page constant, so
/// observability cannot perturb simulated time; phases a rejected page
/// never reached are charged to the phase that rejected it.
const FILTER_COST_SECS: f64 = 0.02;
const PARSE_COST_SECS: f64 = 0.03;
const DEDUP_COST_SECS: f64 = 0.02;

/// The registry series [`FocusedCrawler::observe_round`] writes: its
/// counters, gauges and histograms. A resumed frame's `crawl.*` series
/// are checked against them before they are restored.
const CRAWL_SERIES: [&[&str]; 3] = [
    &[
        "crawl.rounds",
        "crawl.pages_analyzed",
        "crawl.pages_failed",
        "crawl.duplicates",
        "crawl.relevant",
        "crawl.irrelevant",
        "crawl.bytes_fetched",
    ],
    &["crawl.frontier_size", "crawl.harvest_rate", "crawl.simulated_secs"],
    &["crawl.round_fetch_secs"],
];

/// What a frame's leading flag is, for its error: whole frames start a
/// chain, frames of changes continue one.
const FRAME_KIND: &str = "crawl frame kind (1 whole, 0 changes)";

/// What one round adds up for [`FocusedCrawler::observe_round`]: when it
/// started and fetched on the simulated clock, the Fig. 1 phase
/// attribution (simulated seconds), and its page counts.
#[derive(Debug, Default)]
struct RoundTally {
    started_secs: f64,
    fetch_secs: f64,
    /// Simulated time the fetch returned — "now" for every retry, backoff
    /// and breaker decision of the round.
    fetched_ms: u64,
    parse: f64,
    filter: f64,
    classify: f64,
    dedup: f64,
    analyzed: u64,
    failed: u64,
    duplicates: u64,
    relevant: u64,
    irrelevant: u64,
    bytes: u64,
}

/// What the content phase found out about one fetched page: all the
/// round loop needs of it, so the page body stays on the worker.
#[derive(Debug)]
struct PageContent {
    raw_bytes: usize,
    /// Outlinks and net text, or the MIME / raw-size rejection that
    /// stopped the page before either was looked for.
    parsed: Result<ParsedPage, RejectReason>,
}

#[derive(Debug)]
struct ParsedPage {
    links: Vec<Url>,
    /// `None` when boilerplate removal failed.
    text: Option<NetText>,
}

#[derive(Debug)]
struct NetText {
    net_text: String,
    /// The length and language verdict; a passing text's FNV digest, the
    /// dedup key.
    verdict: Result<u64, RejectReason>,
}

/// Crawl configuration.
#[derive(Debug, Clone, Copy)]
pub struct CrawlConfig {
    /// Stop after this many pages have been accepted into the corpora.
    pub max_pages: usize,
    /// Host-specific fetch list cap (paper: 500).
    pub fetch_list_per_host: usize,
    /// Overall fetch list size per round.
    pub fetch_list_total: usize,
    /// Fetch-and-analyse workers: each downloads its hosts' pages and runs
    /// their content phase. Also the worker count of the simulated fetch
    /// makespan. `0` runs one worker, exactly as `1` does.
    pub threads: usize,
    /// Follow links out of irrelevant pages for up to this many consecutive
    /// irrelevant steps (paper default: 0 — "stopping immediately").
    pub follow_irrelevant_steps: u32,
    /// Trap guards.
    pub db: CrawlDbConfig,
    /// Filter thresholds.
    pub filters: FilterConfig,
}

impl Default for CrawlConfig {
    fn default() -> CrawlConfig {
        CrawlConfig {
            max_pages: 10_000,
            fetch_list_per_host: 500,
            fetch_list_total: 4_000,
            threads: 8,
            follow_irrelevant_steps: 0,
            db: CrawlDbConfig::default(),
            filters: FilterConfig::default(),
        }
    }
}

/// A page accepted into one of the two crawl corpora.
#[derive(Debug, Clone)]
pub struct CrawledPage {
    pub url: Url,
    /// Extracted net text (post boilerplate removal). Empty on a page
    /// restored from a checkpoint that did not carry its body.
    pub net_text: String,
    /// FNV digest of `net_text` as accepted: the dedup key, and what a
    /// checkpoint commits to in place of the body.
    pub content_digest: u64,
    /// Raw payload size in bytes.
    pub raw_bytes: usize,
    /// Classifier verdict.
    pub classified_relevant: bool,
    /// Classifier log-odds (for threshold sweeps).
    pub log_odds: f64,
    /// Gold content label, when the simulated web knows it.
    pub gold_relevant: Option<bool>,
}

/// A page's state encoding commits to its body by `content_digest` and
/// leaves `net_text` out, so it does not round-trip: `decode` returns the
/// page with an empty `net_text`. A checkpoint carries the bodies a
/// resume needs in a section of their own ([`write_bodies`] and
/// [`read_bodies`]).
impl Snapshot for CrawledPage {
    fn encode(&self, w: &mut Writer) {
        self.url.encode(w);
        w.u64(self.content_digest);
        w.usize(self.raw_bytes);
        w.bool(self.classified_relevant);
        w.f64(self.log_odds);
        self.gold_relevant.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<CrawledPage, CodecError> {
        Ok(CrawledPage {
            url: Snapshot::decode(r)?,
            net_text: String::new(),
            content_digest: r.u64()?,
            raw_bytes: r.usize()?,
            classified_relevant: r.bool()?,
            log_odds: r.f64()?,
            gold_relevant: Snapshot::decode(r)?,
        })
    }
}

/// Full crawl report.
#[derive(Debug, Default)]
pub struct CrawlReport {
    pub relevant: Vec<CrawledPage>,
    pub irrelevant: Vec<CrawledPage>,
    pub filter_stats: FilterStats,
    /// Pages that failed fetch or markup repair.
    pub failed: u64,
    /// Pages rejected as exact content duplicates (the Nutch-style dedup
    /// job; this is also what starves spider traps serving identical
    /// content under session-id URLs).
    pub duplicates: u64,
    /// Simulated crawl duration in seconds (politeness + latency model).
    pub simulated_secs: f64,
    /// Did the crawl stop because the frontier emptied?
    pub frontier_exhausted: bool,
    /// URLs rejected by spider-trap guards.
    pub trap_rejected: u64,
    pub bytes_relevant: u64,
    pub bytes_irrelevant: u64,
    /// Retry/breaker/checkpoint counters.
    pub resilience: ResilienceStats,
}

impl CrawlReport {
    /// Writes the report as changed since the page counts `since`: the
    /// pages of each list from there on (as a page count and the pages),
    /// then every counter whole. Since `[0, 0]` this is the whole report.
    fn write_since(&self, since: [usize; 2], w: &mut Writer) {
        for (pages, from) in [(&self.relevant, since[0]), (&self.irrelevant, since[1])] {
            w.usize(pages.len() - from);
            for page in &pages[from..] {
                page.encode(w);
            }
        }
        self.filter_stats.encode(w);
        w.u64(self.failed);
        w.u64(self.duplicates);
        w.f64(self.simulated_secs);
        w.bool(self.frontier_exhausted);
        w.u64(self.trap_rejected);
        w.u64(self.bytes_relevant);
        w.u64(self.bytes_irrelevant);
        self.resilience.encode(w);
    }

    /// Replays what [`CrawlReport::write_since`] wrote: appends the pages
    /// and sets the counters.
    fn apply(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        for pages in [&mut self.relevant, &mut self.irrelevant] {
            let n = r.usize()?;
            pages.reserve(presize::<CrawledPage>(n, r));
            for _ in 0..n {
                pages.push(CrawledPage::decode(r)?);
            }
        }
        self.filter_stats = Snapshot::decode(r)?;
        self.failed = r.u64()?;
        self.duplicates = r.u64()?;
        self.simulated_secs = r.f64()?;
        self.frontier_exhausted = r.bool()?;
        self.trap_rejected = r.u64()?;
        self.bytes_relevant = r.u64()?;
        self.bytes_irrelevant = r.u64()?;
        self.resilience = Snapshot::decode(r)?;
        Ok(())
    }
}

impl CrawlReport {
    /// Harvest rate by page count: relevant / downloaded-and-classified.
    pub fn harvest_rate(&self) -> f64 {
        let total = self.relevant.len() + self.irrelevant.len();
        if total == 0 {
            0.0
        } else {
            self.relevant.len() as f64 / total as f64
        }
    }

    /// Harvest rate by bytes (the paper's 373 GB / 980 GB ≈ 38 %).
    pub fn harvest_rate_bytes(&self) -> f64 {
        let total = self.bytes_relevant + self.bytes_irrelevant;
        if total == 0 {
            0.0
        } else {
            self.bytes_relevant as f64 / total as f64
        }
    }

    /// Download-and-classify throughput in documents per simulated second.
    pub fn docs_per_sec(&self) -> f64 {
        let docs = (self.relevant.len() + self.irrelevant.len()) as f64;
        if self.simulated_secs == 0.0 {
            0.0
        } else {
            docs / self.simulated_secs
        }
    }
}

/// Mutable retry machinery threaded through the crawl loop; fully
/// checkpointed so resumed crawls replay identically.
#[derive(Debug)]
struct RetryState {
    /// Segment (round) counter; also the fault-injection epoch.
    round: u64,
    /// Retry attempts consumed per URL (cleared on success).
    attempts: HashMap<Url, u32>,
    /// Entries waiting out a backoff delay or breaker quarantine, with
    /// the simulated time at which they become fetchable again.
    retry_queue: Vec<(u64, FrontierEntry)>,
    budget: RetryBudget,
    breaker: CircuitBreaker,
}

impl RetryState {
    fn new(options: &ResilienceOptions) -> RetryState {
        RetryState {
            round: 0,
            attempts: HashMap::new(),
            retry_queue: Vec::new(),
            budget: RetryBudget::new(options.retry_budget_per_host),
            breaker: CircuitBreaker::new(options.breaker_threshold, options.breaker_cooldown_ms),
        }
    }
}

impl Snapshot for RetryState {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.round);
        self.attempts.encode(w);
        self.retry_queue.encode(w);
        self.budget.encode(w);
        self.breaker.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<RetryState, CodecError> {
        Ok(RetryState {
            round: r.u64()?,
            attempts: Snapshot::decode(r)?,
            retry_queue: Snapshot::decode(r)?,
            budget: Snapshot::decode(r)?,
            breaker: Snapshot::decode(r)?,
        })
    }
}

/// Everything the crawl loop mutates besides the crawler itself: a round
/// reads and writes the first four, a checkpoint frame is the crawler plus
/// the first three and the bodies from `bodies_from` on.
struct LoopState {
    report: CrawlReport,
    filters: FilterChain,
    rt: RetryState,
    /// Cadence checkpoints taken so far.
    checkpoints: Vec<CrawlCheckpoint>,
    /// Per list (relevant, irrelevant), the first page whose body this
    /// crawl holds: 0 for a fresh crawl, the frame's body cursors for a
    /// resumed one, whose earlier pages came back without a body.
    bodies_from: [usize; 2],
}

impl LoopState {
    fn new(config: &CrawlConfig, options: &ResilienceOptions) -> LoopState {
        LoopState {
            report: CrawlReport::default(),
            filters: FilterChain::new(config.filters),
            rt: RetryState::new(options),
            checkpoints: Vec::new(),
            bodies_from: [0, 0],
        }
    }
}

/// Where a crawl's state stood when a frame was written: the page counts
/// of the report's two lists and the positions of the crawler's logs
/// (CrawlDB, LinkDB, classifier updates). A frame written since a cursor
/// carries what changed after it; the default cursor is the empty crawl,
/// so a frame written since it is whole. Positions never go into a frame:
/// the bytes depend on what changed, so a crawl rebuilt from frames writes
/// the same later frames as the crawl that wrote them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlCursor {
    pages: [usize; 2],
    crawldb: DbCursor,
    linkdb: LinkCursor,
    updates: u64,
}

/// The focused crawler.
pub struct FocusedCrawler<'w> {
    web: &'w SimulatedWeb,
    classifier: NaiveBayes,
    boilerplate: BoilerplateDetector,
    config: CrawlConfig,
    pub crawldb: CrawlDb,
    pub linkdb: LinkDb,
    /// FNV hashes of accepted net texts, for content deduplication: the
    /// `content_digest` of every page in the report, so a frame does not
    /// carry it and a resume rebuilds it from the pages.
    seen_content: std::collections::HashSet<u64>,
    /// Optional IE feedback loop (§5's consolidated process).
    feedback: Option<IeFeedback>,
    /// Observability sink: per-round phase spans (the Fig. 1 cost
    /// attribution), counters and frontier/harvest gauges. A private
    /// observer by default; share one via [`FocusedCrawler::with_observer`].
    observer: Arc<Observer>,
}

impl<'w> FocusedCrawler<'w> {
    pub fn new(web: &'w SimulatedWeb, classifier: NaiveBayes, config: CrawlConfig) -> Self {
        FocusedCrawler {
            web,
            classifier,
            boilerplate: BoilerplateDetector::default(),
            crawldb: CrawlDb::new(config.db),
            linkdb: LinkDb::new(),
            config,
            seen_content: std::collections::HashSet::new(),
            feedback: None,
            observer: Arc::new(Observer::new()),
        }
    }

    /// Enables the consolidated crawl/IE process: entity taggers adjust
    /// the classifier's verdict at crawl time, and confident pages
    /// incrementally retrain it.
    pub fn with_ie_feedback(mut self, feedback: IeFeedback) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Reports this crawl's observations through a shared [`Observer`]
    /// instead of the crawler's private one.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// The observer this crawl reports through.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Runs the crawl from `seeds` to completion.
    pub fn crawl(&mut self, seeds: Vec<Url>) -> CrawlReport {
        self.crawl_resilient(seeds, &ResilienceOptions::default()).0
    }

    /// Runs the crawl with fault injection, retry/backoff, circuit
    /// breaking, and periodic checkpointing per `options`. With default
    /// options this is exactly [`FocusedCrawler::crawl`].
    pub fn crawl_resilient(
        &mut self,
        seeds: Vec<Url>,
        options: &ResilienceOptions,
    ) -> (CrawlReport, Vec<CrawlCheckpoint>) {
        let mut st = LoopState::new(&self.config, options);
        self.crawldb.inject(seeds);
        while self.round(&mut st, options) {}
        self.finish(&mut st);
        (st.report, st.checkpoints)
    }

    /// Digest of the complete crawler + report state, for asserting the
    /// bit-identical kill/resume invariant without field-by-field
    /// comparison: the hash of the crawler and report segments of a frame
    /// written since [`CrawlCursor::default`], which `checkpoint()` writes
    /// and hashes in place.
    pub fn state_digest(&self, report: &CrawlReport) -> u64 {
        self.state_digest_since(report, &CrawlCursor::default())
    }

    /// The hash of the crawler and report segments a frame written since
    /// `since` holds.
    fn state_digest_since(&self, report: &CrawlReport, since: &CrawlCursor) -> u64 {
        let mut w = Writer::new();
        self.write_crawler(since, &mut w);
        report.write_since(since.pages, &mut w);
        codec::digest(&w.into_bytes())
    }

    /// Where the crawler's logs and `report`'s page lists stand now.
    fn cursor(&self, report: &CrawlReport) -> CrawlCursor {
        CrawlCursor {
            pages: [report.relevant.len(), report.irrelevant.len()],
            crawldb: self.crawldb.cursor(),
            linkdb: self.linkdb.cursor(),
            updates: self.classifier.updates(),
        }
    }

    /// The crawler's own state as changed since `since`: the segment
    /// before the report's in every frame.
    fn write_crawler(&self, since: &CrawlCursor, w: &mut Writer) {
        self.crawldb.write_since(&since.crawldb, w);
        self.linkdb.write_since(&since.linkdb, w);
        self.classifier.write_since(since.updates, w);
    }

    /// Writes the checkpoint payload as changed since `since` — whether it
    /// is whole (written since the default cursor), crawler, filter stats,
    /// report, retry state, page bodies, registry — and returns where its
    /// crawler and report segments landed in `w`: the bytes the state
    /// digest hashes. The append-only parts (pages, URLs, links, frontier
    /// pushes and pops, status changes, classifier words) are written
    /// from the cursor on; the retry state, the counters and the registry
    /// whole. The report commits to every page's body by its digest; the
    /// body section carries the net text of the relevant and of the
    /// irrelevant pages from the two indices of `bodies_from` on, each
    /// list as its first index and then the bodies, so the state segments
    /// do not depend on `bodies_from`. Every checkpoint frame and every
    /// live watermark's crawl frame is written here.
    fn write_payload(
        &self,
        st: &LoopState,
        since: &CrawlCursor,
        bodies_from: [usize; 2],
        w: &mut Writer,
    ) -> [Range<usize>; 2] {
        w.bool(*since == CrawlCursor::default());
        let start = w.len();
        self.write_crawler(since, w);
        let crawler = start..w.len();
        st.filters.stats().encode(w);
        let start = w.len();
        st.report.write_since(since.pages, w);
        let report = start..w.len();
        st.rt.encode(w);
        write_bodies(w, &st.report.relevant, bodies_from[0]);
        write_bodies(w, &st.report.irrelevant, bodies_from[1]);
        // registry state rides in the frame so resumed crawls continue
        // their metrics bit-identically
        self.observer.registry().snapshot().encode(w);
        [crawler, report]
    }

    fn write_checkpoint(
        &self,
        st: &LoopState,
        since: &CrawlCursor,
        bodies_from: [usize; 2],
        w: &mut Writer,
    ) -> CheckpointLayout {
        let (frame, state) =
            CrawlCheckpoint::write_frame(w, |w| self.write_payload(st, since, bodies_from, w));
        CheckpointLayout { frame, state }
    }

    /// A sealed whole checkpoint carrying every page body the crawl holds,
    /// so a crawl resumed from it gets the report back as it is here.
    fn take_checkpoint(&self, st: &LoopState) -> CrawlCheckpoint {
        let mut w = Writer::new();
        let layout = self.write_checkpoint(st, &CrawlCursor::default(), st.bodies_from, &mut w);
        let mut frame = w.into_bytes();
        codec::hash_chains(&mut frame, [layout.frame.checksum_chain()]);
        CrawlCheckpoint::from_sealed(st.rt.round, frame)
    }

    /// Replays a checkpoint payload [`FocusedCrawler::write_payload`]
    /// wrote onto this crawler and `st`: whole (`whole`) onto a fresh
    /// crawl, or changed since the last frame applied. Checks the frame
    /// kind, every id and body it carries, that nothing trails, and that
    /// `round` is the round sealed inside, and only then restores the
    /// registry into the observer. Returns the frame's body cursors.
    fn apply_payload(
        &mut self,
        st: &mut LoopState,
        payload: &[u8],
        whole: bool,
        round: u64,
    ) -> Result<[usize; 2], CodecError> {
        let mut r = Reader::new(payload);
        let kind = r.bool()?;
        if kind != whole {
            return Err(CodecError::BadTag { what: FRAME_KIND, tag: kind as u8 });
        }
        let pages_before = [st.report.relevant.len(), st.report.irrelevant.len()];
        self.crawldb.apply(&mut r)?;
        self.linkdb.apply(&mut r)?;
        self.classifier.apply(&mut r)?;
        st.filters.restore_stats(FilterStats::decode(&mut r)?);
        st.report.apply(&mut r)?;
        let [relevant, irrelevant] = [&st.report.relevant, &st.report.irrelevant];
        let new_pages = relevant[pages_before[0]..].iter().chain(&irrelevant[pages_before[1]..]);
        self.seen_content.extend(new_pages.map(|page| page.content_digest));
        st.rt = RetryState::decode(&mut r)?;
        let relevant_from = read_bodies(&mut r, &mut st.report.relevant)?;
        let bodies_from = [relevant_from, read_bodies(&mut r, &mut st.report.irrelevant)?];
        let registry = RegistrySnapshot::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing checkpoint bytes" });
        }
        // `round` came from the caller (a watermark stores it beside the
        // frame), not from under the checksum
        if st.rt.round != round {
            return Err(CodecError::Mismatch {
                what: "crawl checkpoint round",
                claimed: round,
                sealed: st.rt.round,
            });
        }
        let [counters, gauges, histograms] = CRAWL_SERIES;
        registry.check_kinds("crawl.", counters, gauges, histograms)?;
        self.observer.registry().restore(&registry)?;
        Ok(bodies_from)
    }

    /// Fills the report's derived fields, once, when the crawl is over.
    fn finish(&self, st: &mut LoopState) {
        st.report.filter_stats = st.filters.stats();
        st.report.trap_rejected = self.crawldb.trap_rejected();
        st.report.resilience.breaker_trips = st.rt.breaker.total_trips();
    }

    /// Has the configured corpus size been reached?
    fn corpus_full(&self, report: &CrawlReport) -> bool {
        report.relevant.len() + report.irrelevant.len() >= self.config.max_pages
    }

    /// The only function that moves the crawl forward: runs exactly one
    /// fetched round and says whether the crawl goes on (`false` once
    /// `max_pages` is reached or the frontier is exhausted).
    fn round(&mut self, st: &mut LoopState, options: &ResilienceOptions) -> bool {
        let Some(batch) = self.next_batch(st, options) else {
            return false;
        };
        let mut tally =
            RoundTally { started_secs: st.report.simulated_secs, ..RoundTally::default() };

        // the fetcher is stateless, so building it per round costs nothing
        let faults = FaultContext::new(options.faults.as_ref(), st.rt.round, &st.rt.attempts);
        let filters = &st.filters;
        let (outcomes, fetch_stats) = Fetcher::new(self.web, self.config.threads)
            .fetch_batch(batch, faults, |resp| self.content_phase(filters, resp));
        tally.fetch_secs = fetch_stats.simulated_ms as f64 / 1000.0;
        st.report.simulated_secs += tally.fetch_secs;
        st.report.resilience.injected_transient += fetch_stats.injected_transient;
        st.report.resilience.worker_panics += fetch_stats.worker_panics;
        tally.fetched_ms = (st.report.simulated_secs * 1000.0) as u64;

        for outcome in outcomes {
            if let Some((entry, content)) = self.settle(st, options, &mut tally, outcome) {
                self.analyse_page(st, &mut tally, &entry, content);
            }
        }
        self.observe_round(st, &tally);

        st.rt.round += 1;
        self.cadence_checkpoint(st, options);
        !self.corpus_full(&st.report)
    }

    /// Assembles the next batch to fetch: frontier work plus any retries
    /// whose backoff/quarantine has expired, minus entries the circuit
    /// breaker holds back. Idles the simulated clock forward while only
    /// future retries remain; `None` means the crawl is over — corpus
    /// full or frontier exhausted.
    fn next_batch(
        &mut self,
        st: &mut LoopState,
        options: &ResilienceOptions,
    ) -> Option<Vec<FrontierEntry>> {
        while !self.corpus_full(&st.report) {
            let now_ms = (st.report.simulated_secs * 1000.0) as u64;
            let mut batch = self
                .crawldb
                .next_fetch_list(self.config.fetch_list_per_host, self.config.fetch_list_total);
            st.rt.retry_queue.retain(|(ready_ms, entry)| {
                if *ready_ms <= now_ms {
                    batch.push(entry.clone());
                    false
                } else {
                    true
                }
            });
            if batch.is_empty() {
                let Some(min_ready) = st.rt.retry_queue.iter().map(|(ready, _)| *ready).min()
                else {
                    st.report.frontier_exhausted = true;
                    return None;
                };
                // Nothing fetchable yet: idle forward to the next retry
                // becoming due.
                st.report.resilience.recovery_wait_ms += min_ready - now_ms;
                st.report.simulated_secs += (min_ready - now_ms) as f64 / 1000.0;
                continue;
            }

            // Circuit-breaker gate: quarantined hosts' entries wait out
            // the cooldown instead of being fetched.
            let mut admitted = Vec::with_capacity(batch.len());
            for entry in batch {
                let host = entry.url.host();
                if st.rt.breaker.allow(host, now_ms) {
                    admitted.push(entry);
                } else {
                    let ready_ms = match st.rt.breaker.state(host) {
                        BreakerState::Open { until_ms } => until_ms,
                        _ => now_ms + options.breaker_cooldown_ms,
                    };
                    st.report.resilience.breaker_deferred += 1;
                    st.rt.retry_queue.push((ready_ms, entry));
                }
            }
            if !admitted.is_empty() {
                return Some(admitted);
            }
        }
        None
    }

    /// Settles one fetch outcome against the retry machinery. A page that
    /// arrived clears its host's breaker streak and its own attempt
    /// count and is handed back for analysis; a retryable failure is
    /// rescheduled under backoff while attempts and host budget last;
    /// anything else fails the URL for good.
    fn settle(
        &mut self,
        st: &mut LoopState,
        options: &ResilienceOptions,
        tally: &mut RoundTally,
        outcome: FetchOutcome<PageContent>,
    ) -> Option<(FrontierEntry, PageContent)> {
        let FetchOutcome { entry, result } = outcome;
        let rt = &mut st.rt;
        let failure = match result {
            Ok(content) => {
                rt.breaker.record_success(entry.url.host());
                rt.attempts.remove(&entry.url);
                return Some((entry, content));
            }
            Err(failure) => failure,
        };
        if failure.is_retryable() {
            let host = entry.url.host();
            rt.breaker.record_failure(host, tally.fetched_ms);
            let attempt = rt.attempts.entry(entry.url.clone()).or_insert(0);
            *attempt += 1;
            if *attempt <= options.backoff.max_retries && rt.budget.try_spend(host) {
                let delay = options.backoff.delay_ms(&entry.url.to_string(), *attempt);
                rt.retry_queue.push((tally.fetched_ms + delay, entry));
                st.report.resilience.retries_scheduled += 1;
                return None;
            }
            st.report.resilience.retries_exhausted += 1;
        }
        st.report.failed += 1;
        tally.failed += 1;
        self.crawldb.mark(&entry.url, UrlStatus::Failed);
        None
    }

    /// The content phase of one fetched page: MIME and raw size, links and
    /// boilerplate from one tokenization, the net-text verdicts and the
    /// content digest. Reads nothing the crawl writes, so the fetch worker
    /// that downloaded the page runs it; [`FocusedCrawler::analyse_page`] applies the result.
    fn content_phase(&self, filters: &FilterChain, resp: FetchResponse) -> PageContent {
        let parsed = filters.mime_verdict(resp.url.path(), &resp.body).map(|()| {
            // borrows the body when it is valid UTF-8 (nearly always)
            let body_text = String::from_utf8_lossy(&resp.body);
            let (links, net_text) = self.boilerplate.parse_page(&body_text, &resp.url);
            let text = net_text.ok().map(|net_text| NetText {
                verdict: filters
                    .text_verdict(&net_text)
                    .map(|()| codec::digest(net_text.as_bytes())),
                net_text,
            });
            ParsedPage { links, text }
        });
        PageContent { raw_bytes: resp.body.len(), parsed }
    }

    /// Applies one page's content phase on the round loop, then classify
    /// → expand → accept. Pages are applied one at a time in the batch's
    /// URL order, whichever worker analysed them.
    fn analyse_page(
        &mut self,
        st: &mut LoopState,
        tally: &mut RoundTally,
        entry: &FrontierEntry,
        content: PageContent,
    ) {
        let url = &entry.url;
        st.report.simulated_secs += ANALYSIS_COST_SECS;
        tally.analyzed += 1;
        tally.bytes += content.raw_bytes as u64;
        let Some((links, net_text, content_digest)) =
            self.apply_content(st, tally, url, content.parsed)
        else {
            self.crawldb.mark(url, UrlStatus::Rejected);
            return;
        };

        let (relevant, log_odds) = self.classify(&net_text);
        let expand = if relevant {
            Some(0)
        } else if entry.irrelevant_steps < self.config.follow_irrelevant_steps {
            Some(entry.irrelevant_steps + 1)
        } else {
            None
        };
        if let Some(steps) = expand {
            self.crawldb.add(links.into_iter().map(|l| FrontierEntry {
                url: l,
                irrelevant_steps: steps,
            }));
        }
        self.crawldb.mark(url, UrlStatus::Fetched);

        let page = CrawledPage {
            gold_relevant: self.web.gold_relevant(url),
            url: url.clone(),
            raw_bytes: content.raw_bytes,
            classified_relevant: relevant,
            log_odds,
            net_text,
            content_digest,
        };
        if relevant {
            tally.relevant += 1;
            st.report.bytes_relevant += page.raw_bytes as u64;
            st.report.relevant.push(page);
        } else {
            tally.irrelevant += 1;
            st.report.bytes_irrelevant += page.raw_bytes as u64;
            st.report.irrelevant.push(page);
        }
    }

    /// MIME → links → boilerplate → text filters → dedup, applied: counts
    /// the content phase's verdicts, records the links, and returns the
    /// page's outlinks, net text and its digest, or `None` if a phase
    /// rejected it.
    /// Charges the page's [`ANALYSIS_COST_SECS`] to `tally`'s phases as it
    /// goes — added in place, not returned and summed, because `f64`
    /// addition order is part of the byte-identical trace.
    fn apply_content(
        &mut self,
        st: &mut LoopState,
        tally: &mut RoundTally,
        url: &Url,
        parsed: Result<ParsedPage, RejectReason>,
    ) -> Option<(Vec<Url>, String, u64)> {
        // attribution budget for this page: phases a page never reaches
        // are charged to the phase that stopped it
        let mut remaining = ANALYSIS_COST_SECS;

        // MIME-type / raw-size filtering first (Fig. 1 order).
        st.filters.count_mime(parsed.as_ref().map(|_| ()).map_err(|&reason| reason));
        let Ok(ParsedPage { links, text }) = parsed else {
            tally.filter += remaining;
            return None;
        };
        tally.filter += FILTER_COST_SECS;
        remaining -= FILTER_COST_SECS;

        // LinkDB stores the observed structure even of pages we later
        // reject.
        self.linkdb.add_links(url, &links);

        // Boilerplate removal (errors count as parse failures).
        let Some(NetText { net_text, verdict }) = text else {
            tally.parse += remaining;
            st.report.failed += 1;
            tally.failed += 1;
            return None;
        };
        tally.parse += PARSE_COST_SECS;
        remaining -= PARSE_COST_SECS;

        // Net-text length and language filters.
        st.filters.count_text(verdict.map(|_| ()));
        let Ok(digest) = verdict else {
            tally.filter += remaining;
            return None;
        };

        // Content deduplication (trap starvation + mirror removal).
        if !self.seen_content.insert(digest) {
            tally.dedup += remaining;
            st.report.duplicates += 1;
            tally.duplicates += 1;
            return None;
        }
        tally.dedup += DEDUP_COST_SECS;
        remaining -= DEDUP_COST_SECS;
        // whatever is left of the page's budget is classification
        tally.classify += remaining;
        Some((links, net_text, digest))
    }

    /// Relevance verdict and log-odds for a page's net text, optionally
    /// adjusted by the IE feedback loop (entity density is strong
    /// biomedical evidence the bag-of-words model may miss).
    fn classify(&mut self, net_text: &str) -> (bool, f64) {
        let prediction = self.classifier.predict(net_text);
        let Some(fb) = &self.feedback else {
            return (prediction.relevant, prediction.log_odds);
        };
        let adjusted = prediction.log_odds + fb.boost(net_text);
        let verdict = adjusted > self.classifier.threshold();
        if let Some(margin) = fb.self_training_margin {
            if (adjusted - self.classifier.threshold()).abs() > margin {
                self.classifier.update(net_text, verdict);
            }
        }
        (verdict, adjusted)
    }

    /// Observability: one span per round phase laid end-to-end on the
    /// simulated clock (fetch, then the Fig. 1 analysis phases in order),
    /// and the per-round series of [`CRAWL_SERIES`]. All recorded here
    /// on the single-threaded round loop, so same-seed crawls observe
    /// byte-identically.
    fn observe_round(&self, st: &LoopState, tally: &RoundTally) {
        let obs = &self.observer;
        let round_id = st.rt.round.to_string();
        let round_label = Labels::new(&[("round", &round_id)]);
        let mut t = tally.started_secs;
        for (phase, dur) in [
            ("fetch", tally.fetch_secs),
            ("parse", tally.parse),
            ("filter", tally.filter),
            ("classify", tally.classify),
            ("dedup", tally.dedup),
        ] {
            obs.tracer().span(&format!("crawl.{phase}"), t, dur, round_label.clone());
            t += dur;
        }

        let reg = obs.registry();
        let at = Labels::empty();
        reg.counter("crawl.rounds", &at).inc();
        reg.counter("crawl.pages_analyzed", &at).add(tally.analyzed);
        reg.counter("crawl.pages_failed", &at).add(tally.failed);
        reg.counter("crawl.duplicates", &at).add(tally.duplicates);
        reg.counter("crawl.relevant", &at).add(tally.relevant);
        reg.counter("crawl.irrelevant", &at).add(tally.irrelevant);
        reg.counter("crawl.bytes_fetched", &at).add(tally.bytes);
        reg.gauge("crawl.frontier_size", &at).set(self.crawldb.frontier_size() as f64);
        reg.gauge("crawl.harvest_rate", &at).set(st.report.harvest_rate());
        reg.gauge("crawl.simulated_secs", &at).set(st.report.simulated_secs);
        reg.histogram("crawl.round_fetch_secs", &at).record(tally.fetch_secs);
    }

    /// Checkpoints at the segment boundary if the cadence says so (an
    /// injected store-write fault loses the snapshot but not the crawl).
    fn cadence_checkpoint(&self, st: &mut LoopState, options: &ResilienceOptions) {
        let due = options
            .checkpoint_every_rounds
            .is_some_and(|every| every > 0 && st.rt.round.is_multiple_of(every));
        if !due {
            return;
        }
        let lost = options.faults.as_ref().is_some_and(|plan| {
            plan.injects_at(FaultKind::StoreWrite, "crawl-checkpoint", st.rt.round)
        });
        if lost {
            st.report.resilience.store_write_failures += 1;
        } else {
            st.report.resilience.checkpoints_taken += 1;
            st.checkpoints.push(self.take_checkpoint(st));
        }
    }
}

/// Writes one page list's body section of a checkpoint payload (see
/// [`FocusedCrawler::write_payload`]): the cursor `from`, then the net
/// text of every page from there on.
fn write_bodies(w: &mut Writer, pages: &[CrawledPage], from: usize) {
    w.usize(from);
    for page in &pages[from..] {
        w.str(&page.net_text);
    }
}

/// Reads one page list's body section, as [`write_bodies`] wrote it, into
/// `pages`, each body checked against the digest its page commits to,
/// and returns the cursor: the pages before it keep an empty `net_text`.
fn read_bodies(r: &mut Reader<'_>, pages: &mut [CrawledPage]) -> Result<usize, CodecError> {
    let from = r.usize()?;
    let Some(carried) = pages.get_mut(from..) else {
        return Err(CodecError::Oversize { what: "page body cursor", value: from as u64 });
    };
    for page in carried {
        let body = r.str()?;
        let sealed = codec::digest(body.as_bytes());
        if sealed != page.content_digest {
            return Err(CodecError::Mismatch {
                what: "page body digest",
                claimed: page.content_digest,
                sealed,
            });
        }
        page.net_text = body;
    }
    Ok(from)
}

/// A stepping handle over a focused crawl: the same loop as
/// [`FocusedCrawler::crawl_resilient`], advanced one round ("segment")
/// at a time so a long-running live session can interleave crawling with
/// downstream incremental processing.
///
/// Stepping is bit-identical to an uninterrupted run because it *is* the
/// uninterrupted run's loop body: [`CrawlSession::step_round`] and
/// `crawl_resilient` call the same `FocusedCrawler::round` over the same
/// state, and every retry/backoff/breaker decision lives in that
/// (checkpointed) state. So N calls to `step_round` leave the crawler,
/// report, and observer in exactly the state one `crawl_resilient` call
/// reaches after N rounds.
///
/// Between steps the session exposes the *delta* of newly accepted pages
/// ([`CrawlSession::take_new_pages`]), can seal the standard whole crawl
/// checkpoint frame ([`CrawlSession::checkpoint`]) or write a frame of
/// what changed since a [`CrawlCursor`] ([`CrawlSession::write_frame`]);
/// [`CrawlSession::resume`] rebuilds a session from a whole frame and
/// [`CrawlSession::apply_frame`] replays each later one onto it — the one
/// way back from frames.
pub struct CrawlSession<'w> {
    crawler: FocusedCrawler<'w>,
    state: LoopState,
    options: ResilienceOptions,
    done: bool,
    /// Relevant and irrelevant pages already handed out by
    /// [`CrawlSession::take_new_pages`]: the drain cursor.
    drained: [usize; 2],
}

impl<'w> CrawlSession<'w> {
    /// Starts a stepping session: seeds are injected, nothing is fetched
    /// yet. The caller controls the kill point by simply not calling
    /// [`CrawlSession::step_round`].
    pub fn start(
        mut crawler: FocusedCrawler<'w>,
        seeds: Vec<Url>,
        options: &ResilienceOptions,
    ) -> CrawlSession<'w> {
        let state = LoopState::new(&crawler.config, options);
        crawler.crawldb.inject(seeds);
        CrawlSession {
            crawler,
            state,
            options: options.clone(),
            done: false,
            drained: [0, 0],
        }
    }

    /// Rebuilds a session from a sealed crawl checkpoint without running
    /// any rounds. The frame's registry snapshot is restored into
    /// `observer`, and pages already in the checkpointed report count as
    /// drained — the downstream consumer saw them before the kill.
    ///
    /// A page keeps its net text only if the frame carried its body:
    /// [`CrawlSession::checkpoint`] and cadence checkpoints carry every
    /// body the session holds, so a batch crawl resumed from one gets its
    /// full report back; a live watermark's frame carries only the bodies
    /// not yet drained downstream, which after a round is none, so a
    /// session resumed from a watermark has no bodies for its pre-kill
    /// pages (their `net_text` is empty; their `content_digest` stays),
    /// and neither do the frames it writes later.
    ///
    /// `config` and `options` must match the original crawl's for the
    /// resumed run to reproduce it (they are deliberately not stored in
    /// the checkpoint: fault plans and thresholds are inputs, not
    /// state). `feedback` likewise must be reconstructed by the caller
    /// when the original crawl used IE feedback — the classifier counts
    /// it trained are in the checkpoint, but taggers are not
    /// serializable.
    ///
    /// The frame is untrusted: a bad checksum, a failed decode, trailing
    /// bytes, a carried body whose digest is not the one its page commits
    /// to, or a `checkpoint.round` other than the round sealed inside all
    /// come back as a [`CodecError`].
    pub fn resume(
        web: &'w SimulatedWeb,
        checkpoint: &CrawlCheckpoint,
        config: CrawlConfig,
        options: &ResilienceOptions,
        feedback: Option<IeFeedback>,
        observer: Arc<Observer>,
    ) -> Result<CrawlSession<'w>, CodecError> {
        let crawler = FocusedCrawler {
            feedback,
            observer,
            ..FocusedCrawler::new(web, NaiveBayes::default(), config)
        };
        let mut session = CrawlSession {
            crawler,
            state: LoopState::new(&config, options),
            options: options.clone(),
            done: false,
            drained: [0, 0],
        };
        session.replay(checkpoint, true)?;
        Ok(session)
    }

    /// Replays a frame [`CrawlSession::write_frame`] wrote since the
    /// cursor this session stood at when the previous frame of its chain
    /// was written: the session then stands where the frame's writer stood.
    /// Pages count as drained, and the bodies the frame carried are the
    /// ones the session holds from then on. A whole frame is refused (it
    /// starts a chain: [`CrawlSession::resume`]), and so is everything
    /// `resume` refuses. On an error the session is unusable.
    pub fn apply_frame(&mut self, frame: &CrawlCheckpoint) -> Result<(), CodecError> {
        self.replay(frame, false)
    }

    fn replay(&mut self, frame: &CrawlCheckpoint, whole: bool) -> Result<(), CodecError> {
        let bodies_from =
            self.crawler.apply_payload(&mut self.state, frame.payload()?, whole, frame.round)?;
        let report = &self.state.report;
        self.state.bodies_from = bodies_from;
        self.drained = [report.relevant.len(), report.irrelevant.len()];
        Ok(())
    }

    /// Advances the crawl exactly one round. Returns `false` once the
    /// crawl is over (`max_pages` reached or frontier exhausted) — after
    /// which the report carries its final derived statistics and further
    /// calls are no-ops.
    pub fn step_round(&mut self) -> bool {
        if self.done {
            return false;
        }
        let more = self.crawler.round(&mut self.state, &self.options);
        if !more {
            self.done = true;
            // Derived report fields are filled exactly once, at the end —
            // the same point `crawl_resilient` fills them — so mid-session
            // state (and any checkpoint sealed from it) stays bit-identical
            // to an uninterrupted run at the same round boundary.
            self.crawler.finish(&mut self.state);
        }
        more
    }

    /// Pages accepted since the last call (or since start/resume):
    /// `(relevant, irrelevant)` tail slices of the report, in acceptance
    /// order. The cursor advances, so each page is returned exactly once.
    pub fn take_new_pages(&mut self) -> (&[CrawledPage], &[CrawledPage]) {
        let report = &self.state.report;
        let [relevant, irrelevant] = self.drained;
        self.drained = [report.relevant.len(), report.irrelevant.len()];
        (&report.relevant[relevant..], &report.irrelevant[irrelevant..])
    }

    /// Count of relevant pages already handed out via
    /// [`CrawlSession::take_new_pages`] — the id offset for converting a
    /// delta into globally numbered documents.
    pub fn drained_relevant(&self) -> usize {
        self.drained[0]
    }

    /// Seals the complete crawler + loop state, every page body the
    /// session holds included, into the standard crawl checkpoint frame —
    /// the very bytes a cadence checkpoint at this round would be, so
    /// either kind can resume a session. A session resumed from a frame
    /// without some bodies holds none for those pages, so its frames
    /// carry the bodies from the resumed frame's cursors on.
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        self.crawler.take_checkpoint(&self.state)
    }

    /// Where the session's state stands now: the cursor the next
    /// [`CrawlSession::write_frame`] of a chain writes since.
    pub fn cursor(&self) -> CrawlCursor {
        self.crawler.cursor(&self.state.report)
    }

    /// Writes a crawl frame of what changed since `since` in place in `w`,
    /// checksum slot left zero, for a caller that hashes it inside a
    /// larger frame. Since the default cursor it is the whole
    /// [`CrawlSession::checkpoint`] frame, except that either kind carries
    /// only the bodies of pages [`CrawlSession::take_new_pages`] has not
    /// handed out yet: the drained ones are downstream already, and the
    /// report still commits to them by digest. Hashing the layout's
    /// `frame` chain seals it; hashing its `state` segments gives
    /// [`CrawlSession::state_digest_since`] of `since`.
    pub fn write_frame(&self, since: &CrawlCursor, w: &mut Writer) -> CheckpointLayout {
        let [held, drained] = [self.state.bodies_from, self.drained];
        let from = [held[0].max(drained[0]), held[1].max(drained[1])];
        self.crawler.write_checkpoint(&self.state, since, from, w)
    }

    /// The hash of the crawler and report segments of a frame written
    /// since `since`: [`CrawlSession::state_digest`] since the default
    /// cursor.
    pub fn state_digest_since(&self, since: &CrawlCursor) -> u64 {
        self.crawler.state_digest_since(&self.state.report, since)
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.state.rt.round
    }

    /// Has the crawl ended (frontier exhausted or `max_pages` reached)?
    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn report(&self) -> &CrawlReport {
        &self.state.report
    }

    pub fn crawler(&self) -> &FocusedCrawler<'w> {
        &self.crawler
    }

    /// Digest of the complete crawler + report state (see
    /// [`FocusedCrawler::state_digest`]) — the "crawler frontier digest"
    /// a live watermark records.
    pub fn state_digest(&self) -> u64 {
        self.crawler.state_digest(&self.state.report)
    }

    /// Drains any cadence checkpoints the loop took during stepping.
    pub fn take_cadence_checkpoints(&mut self) -> Vec<CrawlCheckpoint> {
        std::mem::take(&mut self.state.checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::train_focus_classifier;
    use crate::fetcher::TEST_POOL;
    use websift_observe::MetricValue;
    use websift_web::{PageId, WebGraph, WebGraphConfig};

    fn setup() -> (SimulatedWeb, NaiveBayes) {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let nb = train_focus_classifier(60, 1.5, 99);
        (web, nb)
    }

    fn biomedical_seeds(web: &SimulatedWeb, n: usize) -> Vec<Url> {
        let graph = web.graph();
        (0..graph.num_pages() as u32)
            .map(PageId)
            .filter(|&p| graph.page(p).relevant)
            .take(n)
            .map(|p| graph.url_of(p))
            .collect()
    }

    #[test]
    fn crawl_from_relevant_seeds_harvests_relevant_pages() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let mut crawler = FocusedCrawler::new(
            &web,
            nb,
            CrawlConfig {
                max_pages: 300,
                threads: 4,
                ..CrawlConfig::default()
            },
        );
        let report = crawler.crawl(seeds);
        assert!(!report.relevant.is_empty(), "no relevant pages harvested");
        let hr = report.harvest_rate();
        assert!(hr > 0.15, "harvest rate {hr}");
        assert!(report.simulated_secs > 0.0);
        // classifier quality against gold labels
        let correct = report
            .relevant
            .iter()
            .filter(|p| p.gold_relevant == Some(true))
            .count();
        let precision = correct as f64 / report.relevant.len() as f64;
        assert!(precision > 0.6, "crawl-time precision {precision}");
    }

    #[test]
    fn empty_seed_list_exhausts_immediately() {
        let (web, nb) = setup();
        let mut crawler = FocusedCrawler::new(&web, nb, CrawlConfig::default());
        let report = crawler.crawl(vec![]);
        assert!(report.frontier_exhausted);
        assert_eq!(report.relevant.len() + report.irrelevant.len(), 0);
    }

    #[test]
    fn max_pages_bounds_the_crawl() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 30);
        let mut crawler = FocusedCrawler::new(
            &web,
            nb,
            CrawlConfig {
                max_pages: 25,
                fetch_list_total: 10,
                threads: 2,
                ..CrawlConfig::default()
            },
        );
        let report = crawler.crawl(seeds);
        let total = report.relevant.len() + report.irrelevant.len();
        assert!((25..60).contains(&total), "total {total}");
    }

    #[test]
    fn follow_irrelevant_steps_widens_the_crawl() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 10);
        let strict = FocusedCrawler::new(
            &web,
            nb.clone(),
            CrawlConfig {
                max_pages: 400,
                follow_irrelevant_steps: 0,
                ..CrawlConfig::default()
            },
        )
        .crawl(seeds.clone());
        let lenient = FocusedCrawler::new(
            &web,
            nb,
            CrawlConfig {
                max_pages: 400,
                follow_irrelevant_steps: 2,
                ..CrawlConfig::default()
            },
        )
        .crawl(seeds);
        let n_strict = strict.relevant.len() + strict.irrelevant.len();
        let n_lenient = lenient.relevant.len() + lenient.irrelevant.len();
        assert!(
            n_lenient >= n_strict,
            "lenient {n_lenient} vs strict {n_strict}"
        );
    }

    #[test]
    fn spider_traps_do_not_hang_the_crawl() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig {
            spider_trap_fraction: 0.5,
            ..WebGraphConfig::tiny()
        }));
        let nb = train_focus_classifier(40, 0.0, 5);
        let seeds: Vec<Url> = (0..web.graph().num_hosts())
            .map(|h| {
                let front = web.graph().hosts()[h].page_range.0;
                web.graph().url_of(PageId(front))
            })
            .collect();
        let mut crawler = FocusedCrawler::new(
            &web,
            nb,
            CrawlConfig {
                max_pages: 500,
                follow_irrelevant_steps: 3,
                ..CrawlConfig::default()
            },
        );
        let report = crawler.crawl(seeds);
        // the crawl terminates (max_pages or exhaustion) without looping forever
        assert!(report.relevant.len() + report.irrelevant.len() <= 1000);
    }

    #[test]
    fn ie_feedback_recovers_fringe_relevant_pages() {
        use crate::feedback::IeFeedback;
        use std::sync::Arc;
        use websift_ner::{Dictionary, DictionaryTagger, EntityType};

        let (web, _) = setup();
        let seeds = biomedical_seeds(&web, 20);
        // A very high threshold makes the plain classifier reject many
        // genuinely relevant pages; entity-density feedback wins them back.
        let strict = || train_focus_classifier(60, 14.0, 99);
        let config = CrawlConfig {
            max_pages: 250,
            threads: 4,
            ..CrawlConfig::default()
        };
        let baseline = FocusedCrawler::new(&web, strict(), config).crawl(seeds.clone());

        // dictionaries over the same default-scale lexicon the simulated
        // web's content is generated from
        let lexicon =
            websift_corpus::Lexicon::generate(websift_corpus::LexiconScale::default_scale());
        let taggers: Vec<Arc<DictionaryTagger>> = vec![
            Arc::new(DictionaryTagger::new(&Dictionary::new(
                EntityType::Gene,
                lexicon.genes().iter().take(2000).cloned().collect::<Vec<_>>(),
            ))),
            Arc::new(DictionaryTagger::new(&Dictionary::new(
                EntityType::Disease,
                lexicon.diseases().to_vec(),
            ))),
        ];
        let with_feedback = FocusedCrawler::new(&web, strict(), config)
            .with_ie_feedback(IeFeedback::new(taggers))
            .crawl(seeds);

        assert!(
            with_feedback.relevant.len() >= baseline.relevant.len(),
            "feedback {} vs baseline {}",
            with_feedback.relevant.len(),
            baseline.relevant.len()
        );
    }

    #[test]
    fn linkdb_populated_during_crawl() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 10);
        let mut crawler = FocusedCrawler::new(
            &web,
            nb,
            CrawlConfig {
                max_pages: 80,
                ..CrawlConfig::default()
            },
        );
        let _ = crawler.crawl(seeds);
        assert!(crawler.linkdb.len() > 10);
    }

    fn resilient_config() -> CrawlConfig {
        CrawlConfig {
            max_pages: 250,
            fetch_list_total: 60,
            threads: 4,
            ..CrawlConfig::default()
        }
    }

    /// A crawl killed after `rounds` rounds: step that many, drop the
    /// session, keep its last cadence frame — all that durable storage
    /// would hold.
    fn last_frame_of_killed_crawl(
        web: &SimulatedWeb,
        nb: NaiveBayes,
        seeds: Vec<Url>,
        opts: &ResilienceOptions,
        rounds: u64,
    ) -> CrawlCheckpoint {
        let mut victim =
            CrawlSession::start(FocusedCrawler::new(web, nb, resilient_config()), seeds, opts);
        while victim.round() < rounds && victim.step_round() {}
        victim.take_cadence_checkpoints().pop().expect("killed run took no checkpoint")
    }

    /// The one way back from a frame, run to the end of the crawl.
    fn resumed_to_end<'w>(
        web: &'w SimulatedWeb,
        frame: &CrawlCheckpoint,
        opts: &ResilienceOptions,
        observer: Arc<Observer>,
    ) -> CrawlSession<'w> {
        let mut session =
            CrawlSession::resume(web, frame, resilient_config(), opts, None, observer).unwrap();
        while session.step_round() {}
        session
    }

    #[test]
    fn checkpointing_does_not_perturb_the_crawl() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let plain = FocusedCrawler::new(&web, nb.clone(), resilient_config()).crawl(seeds.clone());

        let opts = ResilienceOptions {
            checkpoint_every_rounds: Some(2),
            ..ResilienceOptions::default()
        };
        let mut crawler = FocusedCrawler::new(&web, nb, resilient_config());
        let (ckpt_run, checkpoints) = crawler.crawl_resilient(seeds, &opts);

        assert!(!checkpoints.is_empty(), "no checkpoints taken");
        assert_eq!(
            ckpt_run.resilience.checkpoints_taken,
            checkpoints.len() as u64
        );
        assert_eq!(plain.relevant.len(), ckpt_run.relevant.len());
        assert_eq!(plain.irrelevant.len(), ckpt_run.irrelevant.len());
        assert_eq!(plain.failed, ckpt_run.failed);
        assert_eq!(plain.duplicates, ckpt_run.duplicates);
        assert_eq!(
            plain.simulated_secs.to_bits(),
            ckpt_run.simulated_secs.to_bits(),
            "checkpointing changed the simulated clock"
        );
    }

    #[test]
    fn injected_faults_are_retried_and_survived() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0xFA17, 0.2, 4);
        let mut crawler = FocusedCrawler::new(&web, nb, resilient_config());
        let (report, _) = crawler.crawl_resilient(seeds, &opts);

        assert!(report.resilience.injected_transient > 0, "no faults fired");
        assert!(report.resilience.retries_scheduled > 0, "nothing retried");
        assert!(
            !report.relevant.is_empty(),
            "crawl did not survive fault injection"
        );
    }

    #[test]
    fn observed_crawl_emits_round_spans_and_conserves_the_clock() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let obs = Arc::new(Observer::new());
        let mut crawler =
            FocusedCrawler::new(&web, nb, resilient_config()).with_observer(Arc::clone(&obs));
        let report = crawler.crawl(seeds);

        // every round emits the five Fig. 1 phase spans in order
        let events = obs.tracer().events();
        assert!(!events.is_empty());
        let expected = ["crawl.fetch", "crawl.parse", "crawl.filter", "crawl.classify", "crawl.dedup"];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.name, expected[i % expected.len()]);
        }

        // registry counters are views of the report
        let reg = obs.registry();
        let at = Labels::empty();
        assert_eq!(reg.counter("crawl.relevant", &at).value(), report.relevant.len() as u64);
        assert_eq!(reg.counter("crawl.irrelevant", &at).value(), report.irrelevant.len() as u64);
        assert_eq!(reg.counter("crawl.duplicates", &at).value(), report.duplicates);
        assert_eq!(reg.gauge("crawl.harvest_rate", &at).value(), report.harvest_rate());
        assert!(reg.counter("crawl.rounds", &at).value() > 0);

        // phase attribution conserves the simulated clock: fetch secs
        // plus the per-page analysis budget, summed over the phase spans,
        // equals the clock (no idle waits occur without fault injection)
        assert_eq!(obs.tracer().dropped(), 0);
        let crawl_total: f64 = events.iter().filter_map(|ev| ev.dur_secs).sum();
        assert!(
            (crawl_total - report.simulated_secs).abs() < 1e-6,
            "phase spans sum to {crawl_total} vs clock {}",
            report.simulated_secs
        );
    }

    #[test]
    fn resumed_crawl_continues_registry_bit_identically() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions {
            checkpoint_every_rounds: Some(2),
            ..ResilienceOptions::default()
        };

        let base_obs = Arc::new(Observer::new());
        let mut baseline = FocusedCrawler::new(&web, nb.clone(), resilient_config())
            .with_observer(Arc::clone(&base_obs));
        let (_base_report, _) = baseline.crawl_resilient(seeds.clone(), &opts);

        let last = last_frame_of_killed_crawl(&web, nb, seeds, &opts, 3);
        let resumed_obs = Arc::new(Observer::new());
        resumed_to_end(&web, &last, &opts, Arc::clone(&resumed_obs));

        use websift_resilience::checkpoint::encode_to_vec;
        assert_eq!(
            encode_to_vec(&base_obs.registry().snapshot()),
            encode_to_vec(&resumed_obs.registry().snapshot()),
            "resumed registry diverged from uninterrupted baseline"
        );
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0xC0FFEE, 0.05, 2);

        // Uninterrupted baseline under the identical fault plan.
        let mut baseline = FocusedCrawler::new(&web, nb.clone(), resilient_config());
        let (base_report, base_ckpts) = baseline.crawl_resilient(seeds.clone(), &opts);
        assert!(!base_ckpts.is_empty());

        // Kill after 3 rounds, losing the work since the round-2 checkpoint.
        let last = last_frame_of_killed_crawl(&web, nb, seeds, &opts, 3);
        assert!(last.round < 3 + 1, "checkpoint past the kill point");

        // Resume from durable bytes (exercising the corruption checks).
        let restored = CrawlCheckpoint::from_bytes(last.round, last.as_bytes().to_vec()).unwrap();
        let resumed = resumed_to_end(&web, &restored, &opts, Arc::new(Observer::new()));
        let resumed_report = resumed.report();

        assert_eq!(
            baseline.state_digest(&base_report),
            resumed.state_digest(),
            "resumed crawl state diverged from uninterrupted baseline"
        );
        assert_eq!(base_report.relevant.len(), resumed_report.relevant.len());
        assert_eq!(
            base_report.simulated_secs.to_bits(),
            resumed_report.simulated_secs.to_bits()
        );
        assert_eq!(base_report.resilience, resumed_report.resilience);
        assert_eq!(
            base_report.harvest_rate().to_bits(),
            resumed_report.harvest_rate().to_bits()
        );
    }

    /// The v3 checkpoint and state-digest encoders from separately encoded
    /// parts: each section written on its own buffer since a cursor,
    /// copied into a payload, the frame sealed by hand around
    /// `codec::digest`, and a second encode of crawler and report for the
    /// digest.
    mod reference {
        use super::*;

        fn crawler_and_report(session: &CrawlSession<'_>, since: &CrawlCursor) -> [Vec<u8>; 2] {
            let (crawler, st) = (&session.crawler, &session.state);
            let mut w = Writer::new();
            crawler.crawldb.write_since(&since.crawldb, &mut w);
            crawler.linkdb.write_since(&since.linkdb, &mut w);
            crawler.classifier.write_since(since.updates, &mut w);
            let mut r = Writer::new();
            st.report.write_since(since.pages, &mut r);
            [w.into_bytes(), r.into_bytes()]
        }

        pub fn checkpoint(
            session: &CrawlSession<'_>,
            since: &CrawlCursor,
            bodies_from: [usize; 2],
        ) -> Vec<u8> {
            let (crawler, st) = (&session.crawler, &session.state);
            let [crawler_part, report_part] = crawler_and_report(session, since);
            let mut w = Writer::new();
            w.bool(*since == CrawlCursor::default());
            w.raw(&crawler_part);
            st.filters.stats().encode(&mut w);
            w.raw(&report_part);
            st.rt.encode(&mut w);
            write_bodies(&mut w, &st.report.relevant, bodies_from[0]);
            write_bodies(&mut w, &st.report.irrelevant, bodies_from[1]);
            crawler.observer.registry().snapshot().encode(&mut w);
            let payload = w.into_bytes();
            let mut frame = b"WSCK".to_vec();
            frame.extend_from_slice(&3u16.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&codec::digest(&payload).to_le_bytes());
            frame
        }

        pub fn state_digest(session: &CrawlSession<'_>, since: &CrawlCursor) -> u64 {
            codec::digest(&crawler_and_report(session, since).concat())
        }
    }

    /// `checkpoint()` bytes (every body) and `state_digest()` bits equal
    /// the reference encoders' at every round of a plain and a
    /// fault-injected crawl; each round's frame written in place since the
    /// previous round's cursor (bodies from the drain cursor on, which
    /// some rounds leave behind the report's end) seals to the reference
    /// frame and hashes to the reference digest; and a session resumed
    /// from the first whole frame and replaying every later one stands
    /// where the crawl stands, round after round.
    #[test]
    fn checkpoint_and_state_digest_equal_the_reference_encoders() {
        use websift_resilience::codec::Chain;
        let (web, nb) = setup();
        for opts in [ResilienceOptions::default(), ResilienceOptions::injected(0x57E9, 0.05, 2)] {
            let crawler = FocusedCrawler::new(&web, nb.clone(), resilient_config());
            let mut session = CrawlSession::start(crawler, biomedical_seeds(&web, 20), &opts);
            let start = CrawlCursor::default();
            let mut since = start;
            let mut replica: Option<CrawlSession<'_>> = None;
            let mut rounds = 0;
            loop {
                let frame = reference::checkpoint(&session, &start, [0, 0]);
                let digest = reference::state_digest(&session, &start);
                assert_eq!(session.checkpoint().as_bytes(), &frame[..], "round {rounds}");
                assert_eq!(session.state_digest(), digest, "round {rounds}");
                assert_eq!(session.crawler().state_digest(session.report()), digest);

                let mut w = Writer::new();
                w.str("prefix");
                let layout = session.write_frame(&since, &mut w);
                let mut buf = w.into_bytes();
                let [_, state] = codec::hash_chains(
                    &mut buf,
                    [layout.frame.checksum_chain(), Chain { ranges: &layout.state, slot: None }],
                );
                let frame = &buf[14..];
                assert_eq!(frame, &reference::checkpoint(&session, &since, session.drained)[..]);
                assert_eq!(state, reference::state_digest(&session, &since));
                assert_eq!(state, session.state_digest_since(&since));
                let frame = CrawlCheckpoint::from_bytes(session.round(), frame.to_vec()).unwrap();
                match &mut replica {
                    None => replica = Some(resume_untrusted(&web, &frame, &opts).unwrap()),
                    Some(replica) => replica.apply_frame(&frame).unwrap(),
                }
                let replica = replica.as_ref().unwrap();
                assert_eq!(replica.state_digest(), digest, "replayed to round {rounds}");
                assert_eq!(replica.cursor(), session.cursor());
                since = session.cursor();
                if !session.step_round() {
                    break;
                }
                rounds += 1;
                if rounds % 2 == 0 {
                    session.take_new_pages();
                }
            }
            assert!(rounds >= 3, "crawl ended after {rounds} rounds");
        }
    }

    /// Runs `f` with every fetcher this thread builds spawning `pool`
    /// workers, whatever the crawl's `threads` (which the simulated clock
    /// keeps modelling).
    fn with_pool<R>(pool: usize, f: impl FnOnce() -> R) -> R {
        TEST_POOL.set(Some(pool));
        let out = f();
        TEST_POOL.set(None);
        out
    }

    #[test]
    fn stepped_session_matches_uninterrupted_crawl_bit_for_bit() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0x57E9, 0.05, 2);

        // four workers fetch and analyse the baseline, one the stepped run
        let mut baseline = FocusedCrawler::new(&web, nb.clone(), resilient_config());
        let (base_report, base_ckpts) = baseline.crawl_resilient(seeds.clone(), &opts);

        let (mut session, pages) = with_pool(1, || {
            let mut session = CrawlSession::start(
                FocusedCrawler::new(&web, nb, resilient_config()),
                seeds,
                &opts,
            );
            let mut pages = 0;
            while session.step_round() {
                let (rel, irr) = session.take_new_pages();
                pages += rel.len() + irr.len();
                // one encoder: a frame sealed on demand at a cadence round
                // is the cadence frame `crawl_resilient` took there
                if let Some(cadence) = base_ckpts.iter().find(|c| c.round == session.round()) {
                    assert_eq!(cadence.as_bytes(), session.checkpoint().as_bytes());
                }
            }
            let (rel, irr) = session.take_new_pages();
            pages += rel.len() + irr.len();
            (session, pages)
        });

        assert!(session.is_done());
        assert_eq!(
            pages,
            base_report.relevant.len() + base_report.irrelevant.len(),
            "delta pages do not add up to the full report"
        );
        assert_eq!(
            baseline.state_digest(&base_report),
            session.state_digest(),
            "stepped session state diverged from the uninterrupted crawl"
        );
        assert_eq!(
            base_report.simulated_secs.to_bits(),
            session.report().simulated_secs.to_bits()
        );
        assert_eq!(base_report.resilience, session.report().resilience);
        // cadence checkpoints sealed mid-stepping are byte-identical to
        // the uninterrupted run's
        let stepped_ckpts = session.take_cadence_checkpoints();
        assert_eq!(base_ckpts.len(), stepped_ckpts.len());
        for (a, b) in base_ckpts.iter().zip(&stepped_ckpts) {
            assert_eq!(a.as_bytes(), b.as_bytes(), "cadence checkpoint diverged");
        }
    }

    #[test]
    fn session_resumed_from_mid_checkpoint_replays_identically() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0xBEE5, 0.05, 2);

        let mut straight = CrawlSession::start(
            FocusedCrawler::new(&web, nb.clone(), resilient_config()),
            seeds.clone(),
            &opts,
        );
        let mut frame_at_3 = None;
        while straight.step_round() {
            if straight.round() == 3 {
                frame_at_3 = Some(straight.checkpoint());
            }
        }
        let frame = frame_at_3.expect("crawl ended before round 3");

        let mut resumed = CrawlSession::resume(
            &web,
            &frame,
            resilient_config(),
            &opts,
            None,
            Arc::new(Observer::new()),
        )
        .unwrap();
        assert_eq!(resumed.round(), 3);
        // pages from before the kill are not re-delivered
        let (rel, irr) = resumed.take_new_pages();
        assert!(rel.is_empty() && irr.is_empty(), "resume re-delivered old pages");
        while resumed.step_round() {}

        assert_eq!(
            straight.state_digest(),
            resumed.state_digest(),
            "resumed session diverged from the uninterrupted one"
        );
        assert_eq!(
            straight.report().simulated_secs.to_bits(),
            resumed.report().simulated_secs.to_bits()
        );
    }

    /// Everything a crawl lets a caller observe, byte for byte.
    #[derive(Debug, PartialEq)]
    struct Observed {
        state_digest: u64,
        simulated_secs: u64,
        filters: FilterStats,
        resilience: ResilienceStats,
        checkpoints: Vec<Vec<u8>>,
        registry: Vec<u8>,
        trace: String,
    }

    fn observed_crawl(
        web: &SimulatedWeb,
        nb: NaiveBayes,
        config: CrawlConfig,
        seeds: Vec<Url>,
        opts: &ResilienceOptions,
    ) -> Observed {
        let obs = Arc::new(Observer::new());
        let mut crawler = FocusedCrawler::new(web, nb, config).with_observer(Arc::clone(&obs));
        let (report, checkpoints) = crawler.crawl_resilient(seeds, opts);
        Observed {
            state_digest: crawler.state_digest(&report),
            simulated_secs: report.simulated_secs.to_bits(),
            filters: report.filter_stats,
            resilience: report.resilience,
            checkpoints: checkpoints.iter().map(|c| c.as_bytes().to_vec()).collect(),
            registry: websift_resilience::checkpoint::encode_to_vec(&obs.registry().snapshot()),
            trace: obs.tracer().to_jsonl(),
        }
    }

    #[test]
    fn zero_threads_crawl_like_one() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0x2E80, 0.05, 2);
        let config = |threads| CrawlConfig { threads, ..resilient_config() };
        let one = observed_crawl(&web, nb.clone(), config(1), seeds.clone(), &opts);
        assert!(!one.checkpoints.is_empty());
        assert_eq!(observed_crawl(&web, nb.clone(), config(0), seeds.clone(), &opts), one);

        // and stepped, as a live session steps it
        let mut session =
            CrawlSession::start(FocusedCrawler::new(&web, nb, config(0)), seeds, &opts);
        while session.step_round() {}
        assert_eq!(session.state_digest(), one.state_digest);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn classifier() -> NaiveBayes {
            static NB: OnceLock<NaiveBayes> = OnceLock::new();
            NB.get_or_init(|| train_focus_classifier(60, 1.5, 99)).clone()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            // The content phase runs on whichever worker fetched the page;
            // the size of the pool must not show anywhere. `threads`, the
            // simulated fetcher's worker count, is drawn as well, and a
            // run on a `pool` of workers is compared with a run of the same
            // crawl on one.
            #[test]
            fn differential(
                web_seed in 0u64..1_000_000,
                threads_at in 0usize..4,
                pool_at in 0usize..4,
                faulty in 0u8..2,
                cadence in 1u64..4,
            ) {
                let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig {
                    seed: web_seed,
                    hosts: 16,
                    ..WebGraphConfig::tiny()
                }));
                let seeds = biomedical_seeds(&web, 8);
                let opts = if faulty == 1 {
                    ResilienceOptions::injected(web_seed ^ 0xFA17, 0.1, cadence)
                } else {
                    ResilienceOptions {
                        checkpoint_every_rounds: Some(cadence),
                        ..ResilienceOptions::default()
                    }
                };
                let config = CrawlConfig {
                    max_pages: 30,
                    fetch_list_total: 20,
                    threads: [1, 2, 3, 8][threads_at],
                    ..CrawlConfig::default()
                };
                let pool = [1, 2, 3, 8][pool_at];
                let run = |pool| {
                    with_pool(pool, || {
                        observed_crawl(&web, classifier(), config, seeds.clone(), &opts)
                    })
                };
                prop_assert_eq!(
                    run(pool),
                    run(1),
                    "web seed {}, threads {}, pool {}, faults {}, cadence {}",
                    web_seed,
                    config.threads,
                    pool,
                    faulty,
                    cadence
                );
            }
        }
    }

    fn hostile_config() -> CrawlConfig {
        CrawlConfig { fetch_list_total: 2, ..resilient_config() }
    }

    /// A real frame to attack: round 3 of a heavily faulted crawl, so
    /// attempts, retry queue, budget and breaker are all populated. Kept
    /// small — a toy classifier, the smallest seed pages, two fetches a
    /// round — because the sweeps below re-seal and re-decode it once per
    /// byte.
    fn hostile_target(web: &SimulatedWeb) -> (CrawlSession<'_>, ResilienceOptions) {
        let nb = NaiveBayes::train([
            ("gene disease drug therapy", true),
            ("football travel deals", false),
        ]);
        let mut seeds = biomedical_seeds(web, 60);
        seeds.sort_by_key(|u| web.fetch(u).map_or(usize::MAX, |r| r.body.len()));
        seeds.truncate(6);
        let opts = ResilienceOptions::injected(0xBAD5EED, 0.3, 1);
        let mut session =
            CrawlSession::start(FocusedCrawler::new(web, nb, hostile_config()), seeds, &opts);
        while session.round() < 3 && session.step_round() {}
        assert_eq!(session.round(), 3);
        assert!(!session.state.rt.retry_queue.is_empty(), "no retry pending in the target frame");
        assert!(!session.report().irrelevant.is_empty(), "no page in the target frame");
        (session, opts)
    }

    fn resume_untrusted<'w>(
        web: &'w SimulatedWeb,
        frame: &CrawlCheckpoint,
        opts: &ResilienceOptions,
    ) -> Result<CrawlSession<'w>, CodecError> {
        CrawlSession::resume(web, frame, hostile_config(), opts, None, Arc::new(Observer::new()))
    }

    #[test]
    fn resume_rejects_a_round_the_frame_was_not_sealed_at() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let frame = session.checkpoint();
        assert!(resume_untrusted(&web, &frame, &opts).is_ok());

        // the bytes verify, the caller's round does not: a watermark
        // whose `crawl_round` was edited must not resume as round 99
        let lying = CrawlCheckpoint::from_bytes(99, frame.as_bytes().to_vec()).unwrap();
        assert_eq!(
            resume_untrusted(&web, &lying, &opts).err(),
            Some(CodecError::Mismatch { what: "crawl checkpoint round", claimed: 99, sealed: 3 })
        );
    }

    /// Re-seals `session`'s current frame with its registry snapshot
    /// (the payload's last field) replaced by `entries`.
    fn with_registry(
        session: &CrawlSession<'_>,
        entries: Vec<(String, Labels, MetricValue)>,
    ) -> CrawlCheckpoint {
        use websift_resilience::checkpoint::encode_to_vec;
        let frame = session.checkpoint();
        let payload = frame.payload().unwrap();
        let own = encode_to_vec(&session.crawler.observer.registry().snapshot()).len();
        let mut forged = payload[..payload.len() - own].to_vec();
        forged.extend(encode_to_vec(&RegistrySnapshot { entries }));
        CrawlCheckpoint::seal(frame.round, &forged)
    }

    #[test]
    fn resume_rejects_a_crawl_series_of_another_kind() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let mut entries = session.crawler.observer.registry().snapshot().entries;
        let rounds = entries.iter_mut().find(|(n, _, _)| n == "crawl.rounds").unwrap();
        rounds.2 = MetricValue::Gauge(3.0);
        // restored, it would panic the first `step_round`
        assert_eq!(
            resume_untrusted(&web, &with_registry(&session, entries), &opts).err(),
            Some(CodecError::BadTag { what: "registry series kind", tag: 1 })
        );
    }

    /// A frame's series outside `crawl.*` are not checked against the
    /// crawler's list, but resumed onto an observer that holds one of
    /// them under another kind, the frame is refused instead of
    /// panicking the resume, and the observer keeps what it held.
    #[test]
    fn resume_rejects_a_series_the_observer_holds_under_another_kind() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let mut entries = session.crawler.observer.registry().snapshot().entries;
        entries.push(("x".to_string(), Labels::empty(), MetricValue::Gauge(2.5)));
        entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let frame = with_registry(&session, entries);
        let observer = Arc::new(Observer::new());
        observer.registry().counter("x", &Labels::empty()).add(7);
        let resumed =
            CrawlSession::resume(&web, &frame, hostile_config(), &opts, None, observer.clone());
        assert_eq!(
            resumed.err(),
            Some(CodecError::BadTag { what: "registry series kind", tag: 1 })
        );
        assert_eq!(observer.registry().counter("x", &Labels::empty()).value(), 7);
        assert!(resume_untrusted(&web, &frame, &opts).is_ok(), "a fresh observer takes it");
    }

    #[test]
    fn resume_rejects_a_registry_key_held_twice() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let x = |value| ("x".to_string(), Labels::empty(), value);
        let twice = vec![x(MetricValue::Counter(1)), x(MetricValue::Gauge(1.0))];
        // restored, the second entry would panic `resume` itself
        assert_eq!(
            resume_untrusted(&web, &with_registry(&session, twice), &opts).err(),
            Some(CodecError::Truncated { what: "registry keys out of order" })
        );
    }

    #[test]
    fn truncated_payloads_resealed_never_resume() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let frame = session.checkpoint();
        let payload = frame.payload().unwrap();
        assert!(body_at(payload, &session.report().irrelevant[0]).is_some());
        // a valid checksum over a short payload gets past the frame check,
        // so the decoder itself has to notice, at every offset
        for cut in 0..payload.len() {
            let resealed = CrawlCheckpoint::seal(3, &payload[..cut]);
            assert!(
                resume_untrusted(&web, &resealed, &opts).is_err(),
                "payload cut at {cut}/{} resumed",
                payload.len()
            );
        }
        let mut padded = payload.to_vec();
        padded.push(0);
        assert_eq!(
            resume_untrusted(&web, &CrawlCheckpoint::seal(3, &padded), &opts).err(),
            Some(CodecError::Truncated { what: "trailing checkpoint bytes" })
        );
    }

    #[test]
    fn absurd_collection_lengths_are_errors_not_allocations() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let payload = session.checkpoint().payload().unwrap().to_vec();
        let (c, st) = (&session.crawler, &session.state);
        let len_of = |encode: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            encode(&mut w);
            w.len()
        };

        // where each collection header sits, and the count it holds; and
        // the body cursors, which count the pages without a body
        let crawldb_len = len_of(&|w| c.crawldb.encode_snapshot(w));
        let linkdb_len = len_of(&|w| c.linkdb.encode_snapshot(w));
        let crawler_len = len_of(&|w| c.write_crawler(&CrawlCursor::default(), w));
        let report_at = 1 + crawler_len + len_of(&|w| st.filters.stats().encode(w));
        let report_len = len_of(&|w| st.report.write_since([0, 0], w));
        let attempts_at = report_at + report_len + 8;
        let bodies_at = attempts_at - 8 + len_of(&|w| st.rt.encode(w));
        let relevant_len: usize = st.report.relevant.iter().map(|p| len_of(&|w| p.encode(w))).sum();
        let relevant_bodies: usize = st.report.relevant.iter().map(|p| 8 + p.net_text.len()).sum();
        // the word count, as the classifier writes it after its 48 bytes
        // of totals, threshold and update count
        let words = {
            let mut w = Writer::new();
            c.classifier.write_since(0, &mut w);
            u64::from_le_bytes(w.into_bytes()[48..56].try_into().unwrap()) as usize
        };
        let headers = [
            ("crawldb urls", 1 + 16, c.crawldb.known()),
            ("linkdb urls", 1 + crawldb_len, c.linkdb.len()),
            ("classifier words", 1 + crawldb_len + linkdb_len + 48, words),
            ("relevant pages", report_at, st.report.relevant.len()),
            ("irrelevant pages", report_at + 8 + relevant_len, st.report.irrelevant.len()),
            ("retry attempts", attempts_at, st.rt.attempts.len()),
            (
                "retry queue",
                attempts_at + len_of(&|w| st.rt.attempts.encode(w)),
                st.rt.retry_queue.len(),
            ),
            ("relevant body cursor", bodies_at, 0),
            ("irrelevant body cursor", bodies_at + 8 + relevant_bodies, 0),
        ];
        for (what, at, count) in headers {
            let field = |bytes: &[u8]| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            assert_eq!(field(&payload), count as u64, "{what} header is not at {at}");
            for absurd in [u64::MAX, 1 << 62, 1 << 40, payload.len() as u64, count as u64 + 1] {
                let mut spliced = payload.clone();
                spliced[at..at + 8].copy_from_slice(&absurd.to_le_bytes());
                // returning at all shows nothing was sized by `absurd`:
                // 2^40 elements of anything would abort the test process
                assert!(
                    resume_untrusted(&web, &CrawlCheckpoint::seal(3, &spliced), &opts).is_err(),
                    "{what} count {absurd} resumed"
                );
            }
            // a count that is too small misaligns everything after it:
            // an error, or (never seen) a session that must still step
            let mut spliced = payload.clone();
            spliced[at..at + 8].copy_from_slice(&(count as u64).saturating_sub(1).to_le_bytes());
            let resealed = CrawlCheckpoint::seal(3, &spliced);
            if let Ok(mut session) = resume_untrusted(&web, &resealed, &opts) {
                session.step_round();
            }
        }
    }

    #[test]
    fn any_flipped_bit_fails_the_frame_check() {
        let (web, _) = setup();
        let (session, _) = hostile_target(&web);
        let frame = session.checkpoint();
        for at in 0..frame.size_bytes() {
            let mut bytes = frame.as_bytes().to_vec();
            bytes[at] ^= 1 << (at % 8);
            let err = CrawlCheckpoint::from_bytes(3, bytes).expect_err("flipped frame verified");
            let expected = match at {
                0..=3 => matches!(err, CodecError::BadMagic { .. }),
                4..=5 => matches!(err, CodecError::BadVersion { .. }),
                // the payload length: too long runs off the frame, too
                // short checksums the wrong bytes
                6..=13 => {
                    matches!(err, CodecError::Truncated { .. } | CodecError::BadChecksum { .. })
                }
                _ => matches!(err, CodecError::BadChecksum { .. }),
            };
            assert!(expected, "bit flip at {at}: {err}");
        }
    }

    /// Where `page`'s body sits in a checkpoint payload, if it carries it.
    fn body_at(payload: &[u8], page: &CrawledPage) -> Option<usize> {
        let body = page.net_text.as_bytes();
        payload.windows(body.len()).position(|window| window == body)
    }

    /// A frame's pages, as the checks below compare them.
    fn pages_of(report: &CrawlReport) -> Vec<(String, u64, &str)> {
        let pages = report.relevant.iter().chain(&report.irrelevant);
        pages.map(|p| (p.url.to_string(), p.content_digest, p.net_text.as_str())).collect()
    }

    /// A checkpoint carries every body, so the crawl resumed from it has
    /// its full report back — a cadence frame resumed to the end of the
    /// crawl too; a frame written after the pages were drained carries
    /// none, resumes with empty bodies and the same digests, and hands
    /// out no page again.
    #[test]
    fn checkpoints_carry_every_body_and_drained_frames_none() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0xB0D1, 0.05, 2);
        let mut baseline = FocusedCrawler::new(&web, nb.clone(), resilient_config());
        let (base_report, _) = baseline.crawl_resilient(seeds.clone(), &opts);
        let last = last_frame_of_killed_crawl(&web, nb.clone(), seeds.clone(), &opts, 3);
        let resumed = resumed_to_end(&web, &last, &opts, Arc::new(Observer::new()));
        assert!(pages_of(&base_report).iter().all(|(_, _, body)| !body.is_empty()));
        assert_eq!(pages_of(resumed.report()), pages_of(&base_report));

        let mut session =
            CrawlSession::start(FocusedCrawler::new(&web, nb, resilient_config()), seeds, &opts);
        while session.round() < 3 && session.step_round() {}
        let whole = resume_untrusted(&web, &session.checkpoint(), &opts).unwrap();
        assert_eq!(pages_of(whole.report()), pages_of(session.report()));

        session.take_new_pages();
        let mut w = Writer::new();
        let layout = session.write_frame(&CrawlCursor::default(), &mut w);
        let mut bytes = w.into_bytes();
        codec::hash_chains(&mut bytes, [layout.frame.checksum_chain()]);
        let drained = CrawlCheckpoint::from_bytes(3, bytes).unwrap();
        let payload = drained.payload().unwrap();
        let pages = session.report().relevant.iter().chain(&session.report().irrelevant);
        assert!(pages.clone().all(|page| body_at(payload, page).is_none()));
        let mut bare = resume_untrusted(&web, &drained, &opts).unwrap();
        let want: Vec<_> = pages.map(|p| (p.url.to_string(), p.content_digest, "")).collect();
        assert_eq!(pages_of(bare.report()), want);
        assert_eq!(bare.state_digest(), session.state_digest());
        let (rel, irr) = bare.take_new_pages();
        assert!(rel.is_empty() && irr.is_empty(), "resume re-delivered old pages");
    }

    /// A session resumed from a frame without bodies (a live watermark's
    /// crawl frame) holds no body for its earlier pages, so its
    /// `checkpoint()` and cadence frames carry the bodies from the resumed
    /// frame's cursors on: both resume, to the session's own pages, and
    /// run to the uninterrupted crawl's end state.
    #[test]
    fn frames_of_a_session_resumed_without_bodies_resume() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0xB0D2, 0.05, 2);
        let start = |nb: NaiveBayes| {
            let crawler = FocusedCrawler::new(&web, nb, resilient_config());
            CrawlSession::start(crawler, seeds.clone(), &opts)
        };
        let resume = |frame: &CrawlCheckpoint| {
            let observer = Arc::new(Observer::new());
            CrawlSession::resume(&web, frame, resilient_config(), &opts, None, observer)
        };
        let mut straight = start(nb.clone());
        while straight.step_round() {}

        let mut victim = start(nb);
        while victim.round() < 3 && victim.step_round() {}
        victim.take_new_pages();
        let mut w = Writer::new();
        let layout = victim.write_frame(&CrawlCursor::default(), &mut w);
        let mut bytes = w.into_bytes();
        codec::hash_chains(&mut bytes, [layout.frame.checksum_chain()]);
        let mut resumed = resume(&CrawlCheckpoint::from_bytes(3, bytes).unwrap()).unwrap();
        while resumed.round() < 6 && resumed.step_round() {}
        let bodies: Vec<bool> =
            pages_of(resumed.report()).iter().map(|(_, _, body)| !body.is_empty()).collect();
        assert!(bodies.contains(&false) && bodies.contains(&true), "{bodies:?}");

        let cadence = resumed.take_cadence_checkpoints().pop().expect("no cadence frame");
        assert_eq!(cadence.round, 6);
        let checkpoint = resumed.checkpoint();
        assert_eq!(cadence.as_bytes(), checkpoint.as_bytes());
        for frame in [&cadence, &checkpoint] {
            let mut again = resume(frame).expect("a resumed session's frame resumes");
            assert_eq!(pages_of(again.report()), pages_of(resumed.report()));
            assert_eq!(again.state_digest(), resumed.state_digest());
            while again.step_round() {}
            assert_eq!(again.state_digest(), straight.state_digest());
        }
    }

    #[test]
    fn resume_refuses_a_carried_body_its_page_did_not_commit_to() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let payload = session.checkpoint().payload().unwrap().to_vec();
        let page = &session.report().irrelevant[0];
        let at = body_at(&payload, page).expect("the checkpoint carries the page's body");
        // another ASCII letter: still UTF-8, another digest
        let mut forged = payload.clone();
        forged[at] = if forged[at] == b'a' { b'b' } else { b'a' };
        let body = std::str::from_utf8(&forged[at..at + page.net_text.len()]).unwrap();
        assert_eq!(
            resume_untrusted(&web, &CrawlCheckpoint::seal(3, &forged), &opts).err(),
            Some(CodecError::Mismatch {
                what: "page body digest",
                claimed: page.content_digest,
                sealed: codec::digest(body.as_bytes()),
            })
        );
    }

    /// Frames of versions 1 and 2 (whole state, no frame kind) are
    /// refused with a typed error.
    #[test]
    fn a_version_1_frame_is_refused() {
        let (web, _) = setup();
        let (session, _) = hostile_target(&web);
        let frame = session.checkpoint();
        for version in [1, 2] {
            let old = codec::seal(*b"WSCK", version, frame.payload().unwrap());
            assert_eq!(
                CrawlCheckpoint::from_bytes(3, old).err(),
                Some(CodecError::BadVersion { expected: 3, found: version })
            );
        }
    }

    /// A frame of changes is no chain's first frame: `resume` refuses it,
    /// and `apply_frame` refuses a whole frame, both with a typed error.
    #[test]
    fn frame_kinds_are_checked_both_ways() {
        let (web, _) = setup();
        let (mut session, opts) = hostile_target(&web);
        let whole = session.checkpoint();
        let since = session.cursor();
        session.step_round();
        let mut w = Writer::new();
        let layout = session.write_frame(&since, &mut w);
        let mut bytes = w.into_bytes();
        codec::hash_chains(&mut bytes, [layout.frame.checksum_chain()]);
        let changes = CrawlCheckpoint::from_bytes(session.round(), bytes).unwrap();
        let kind = |tag| Some(CodecError::BadTag { what: FRAME_KIND, tag });
        assert_eq!(resume_untrusted(&web, &changes, &opts).err(), kind(0));
        let mut resumed = resume_untrusted(&web, &whole, &opts).unwrap();
        assert_eq!(resumed.apply_frame(&whole).err(), kind(1));
        let mut resumed = resume_untrusted(&web, &whole, &opts).unwrap();
        resumed.apply_frame(&changes).unwrap();
        assert_eq!(resumed.state_digest(), session.state_digest());
    }

    /// Every bit of a checkpoint payload that carries bodies, flipped and
    /// resealed: an error or a session, never a panic.
    #[test]
    fn flipped_payload_bits_resealed_never_panic() {
        let (web, _) = setup();
        let (session, opts) = hostile_target(&web);
        let payload = session.checkpoint().payload().unwrap().to_vec();
        assert!(body_at(&payload, &session.report().irrelevant[0]).is_some());
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= 1 << (at % 8);
            let _ = resume_untrusted(&web, &CrawlCheckpoint::seal(3, &flipped), &opts);
        }
    }
}
