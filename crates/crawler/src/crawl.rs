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
//! # Resilience
//!
//! The loop is built to survive the failures that dominated the paper's
//! 80-day production crawl. Retryable fetch failures (injected transient
//! network errors, crashed fetcher workers) are rescheduled with
//! decorrelated-jitter backoff under per-host retry budgets; hosts that
//! fail persistently are quarantined by a circuit breaker; and at round
//! ("segment") boundaries the complete crawler state — CrawlDB, LinkDB,
//! classifier counts, dedup hashes, report accumulators, and the retry
//! machinery itself — can be checkpointed. A crawl killed mid-flight and
//! resumed via [`FocusedCrawler::resume_from`] reproduces *bit-identical*
//! final statistics to an uninterrupted run under the same fault plan:
//! every fault/backoff decision is a pure function of the seed, and every
//! accumulator (including `f64` time) round-trips through the checkpoint
//! by bit pattern.

use crate::boilerplate::BoilerplateDetector;
use crate::classifier::NaiveBayes;
use crate::crawldb::{CrawlDb, CrawlDbConfig, FrontierEntry, UrlStatus};
use crate::feedback::IeFeedback;
use crate::fetcher::{FaultContext, Fetcher};
use crate::filters::{FilterChain, FilterConfig, FilterStats};
use crate::linkdb::LinkDb;
use crate::parser::extract_links;
use crate::recovery::{CrawlCheckpoint, ResilienceOptions, ResilienceStats};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use websift_observe::{Labels, Observer, RegistrySnapshot};
use websift_resilience::codec;
use websift_resilience::{
    BreakerState, CircuitBreaker, CodecError, FaultKind, Reader, RetryBudget, Snapshot, Writer,
};
use websift_web::{SimulatedWeb, Url};

/// Per-page classification/filtering cost in simulated seconds — this is
/// what pushed the paper's crawler down to 3-4 docs/s.
const ANALYSIS_COST_SECS: f64 = 0.12;

/// Fig. 1 phase decomposition of [`ANALYSIS_COST_SECS`], used only to
/// *attribute* the per-page analysis cost to spans and profiler scopes.
/// The clock still advances by the single per-page constant, so
/// observability cannot perturb simulated time; phases a rejected page
/// never reached are charged to the phase that rejected it.
const FILTER_COST_SECS: f64 = 0.02;
const PARSE_COST_SECS: f64 = 0.03;
const DEDUP_COST_SECS: f64 = 0.02;

/// Per-round phase attribution accumulators (simulated seconds).
#[derive(Debug, Default)]
struct RoundPhases {
    parse: f64,
    filter: f64,
    classify: f64,
    dedup: f64,
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
    /// Fetcher threads.
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
#[derive(Debug, Clone, Serialize)]
pub struct CrawledPage {
    pub url: Url,
    /// Extracted net text (post boilerplate removal).
    pub net_text: String,
    /// Raw payload size in bytes.
    pub raw_bytes: usize,
    /// Classifier verdict.
    pub classified_relevant: bool,
    /// Classifier log-odds (for threshold sweeps).
    pub log_odds: f64,
    /// Gold content label, when the simulated web knows it.
    pub gold_relevant: Option<bool>,
}

impl Snapshot for CrawledPage {
    fn encode(&self, w: &mut Writer) {
        self.url.encode(w);
        w.str(&self.net_text);
        w.usize(self.raw_bytes);
        w.bool(self.classified_relevant);
        w.f64(self.log_odds);
        self.gold_relevant.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<CrawledPage, CodecError> {
        Ok(CrawledPage {
            url: Snapshot::decode(r)?,
            net_text: r.str()?,
            raw_bytes: r.usize()?,
            classified_relevant: r.bool()?,
            log_odds: r.f64()?,
            gold_relevant: Snapshot::decode(r)?,
        })
    }
}

/// Full crawl report.
#[derive(Debug, Default, Serialize)]
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

impl Snapshot for CrawlReport {
    fn encode(&self, w: &mut Writer) {
        self.relevant.encode(w);
        self.irrelevant.encode(w);
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

    fn decode(r: &mut Reader<'_>) -> Result<CrawlReport, CodecError> {
        Ok(CrawlReport {
            relevant: Snapshot::decode(r)?,
            irrelevant: Snapshot::decode(r)?,
            filter_stats: Snapshot::decode(r)?,
            failed: r.u64()?,
            duplicates: r.u64()?,
            simulated_secs: r.f64()?,
            frontier_exhausted: r.bool()?,
            trap_rejected: r.u64()?,
            bytes_relevant: r.u64()?,
            bytes_irrelevant: r.u64()?,
            resilience: Snapshot::decode(r)?,
        })
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

/// The focused crawler.
pub struct FocusedCrawler<'w> {
    web: &'w SimulatedWeb,
    classifier: NaiveBayes,
    boilerplate: BoilerplateDetector,
    config: CrawlConfig,
    pub crawldb: CrawlDb,
    pub linkdb: LinkDb,
    /// FNV hashes of accepted net texts, for content deduplication.
    seen_content: std::collections::HashSet<u64>,
    /// Optional IE feedback loop (§5's consolidated process).
    feedback: Option<IeFeedback>,
    /// Observability sink: per-round spans, frontier/harvest gauges,
    /// phase-cost profiling. A private observer by default; share one
    /// via [`FocusedCrawler::with_observer`].
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
        let mut report = CrawlReport::default();
        let mut filters = FilterChain::new(self.config.filters);
        self.crawldb.inject(seeds);
        let mut rt = RetryState::new(options);
        let mut checkpoints = Vec::new();
        self.run_rounds(&mut report, &mut filters, &mut rt, options, &mut checkpoints);
        self.finish(&mut report, &filters, &rt);
        (report, checkpoints)
    }

    /// Reconstructs a crawler from `checkpoint` and runs it to
    /// completion, returning the crawler (for CrawlDB/LinkDB
    /// inspection), the final report, and any further checkpoints taken.
    ///
    /// `config` and `options` must match the original crawl's for the
    /// resumed run to reproduce it (they are deliberately not stored in
    /// the checkpoint: fault plans and thresholds are inputs, not
    /// state). `feedback` likewise must be reconstructed by the caller
    /// when the original crawl used IE feedback — the classifier counts
    /// it trained are in the checkpoint, but taggers are not
    /// serializable.
    pub fn resume_from(
        web: &'w SimulatedWeb,
        checkpoint: &CrawlCheckpoint,
        config: CrawlConfig,
        options: &ResilienceOptions,
        feedback: Option<IeFeedback>,
    ) -> Result<(FocusedCrawler<'w>, CrawlReport, Vec<CrawlCheckpoint>), CodecError> {
        Self::resume_observed(
            web,
            checkpoint,
            config,
            options,
            feedback,
            Arc::new(Observer::new()),
        )
    }

    /// [`FocusedCrawler::resume_from`] reporting through the caller's
    /// [`Observer`]. The checkpoint's registry snapshot is restored into
    /// `observer` before the crawl continues, so counters, gauges, and
    /// histograms pick up exactly where the killed run left them.
    pub fn resume_observed(
        web: &'w SimulatedWeb,
        checkpoint: &CrawlCheckpoint,
        config: CrawlConfig,
        options: &ResilienceOptions,
        feedback: Option<IeFeedback>,
        observer: Arc<Observer>,
    ) -> Result<(FocusedCrawler<'w>, CrawlReport, Vec<CrawlCheckpoint>), CodecError> {
        let (mut crawler, mut filters, mut report, mut rt) =
            Self::restore_parts(web, checkpoint, config, feedback, observer)?;
        let mut checkpoints = Vec::new();
        crawler.run_rounds(&mut report, &mut filters, &mut rt, options, &mut checkpoints);
        crawler.finish(&mut report, &filters, &rt);
        Ok((crawler, report, checkpoints))
    }

    /// Decodes `checkpoint` back into a crawler plus the loop state it
    /// was sealed with, restoring the frame's registry snapshot into
    /// `observer` — the shared decode behind
    /// [`FocusedCrawler::resume_observed`] (which immediately reruns the
    /// loop) and [`CrawlSession::resume`] (which hands the state back to
    /// a stepping session without running).
    fn restore_parts(
        web: &'w SimulatedWeb,
        checkpoint: &CrawlCheckpoint,
        config: CrawlConfig,
        feedback: Option<IeFeedback>,
        observer: Arc<Observer>,
    ) -> Result<(FocusedCrawler<'w>, FilterChain, CrawlReport, RetryState), CodecError> {
        let payload = checkpoint.payload()?;
        let mut r = Reader::new(payload);
        let crawldb = CrawlDb::decode_snapshot(&mut r)?;
        let linkdb = LinkDb::decode_snapshot(&mut r)?;
        let word_counts = Snapshot::decode(&mut r)?;
        let class_tokens = <[u64; 2]>::decode(&mut r)?;
        let class_docs = <[u64; 2]>::decode(&mut r)?;
        let threshold = r.f64()?;
        let seen_content = Snapshot::decode(&mut r)?;
        let filter_stats = FilterStats::decode(&mut r)?;
        let report = CrawlReport::decode(&mut r)?;
        let rt = RetryState::decode(&mut r)?;
        let registry = RegistrySnapshot::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated { what: "trailing checkpoint bytes" });
        }
        observer.registry().restore(&registry);

        let crawler = FocusedCrawler {
            web,
            classifier: NaiveBayes::from_parts(word_counts, class_tokens, class_docs, threshold),
            boilerplate: BoilerplateDetector::default(),
            config,
            crawldb,
            linkdb,
            seen_content,
            feedback,
            observer,
        };
        let mut filters = FilterChain::new(config.filters);
        filters.restore_stats(filter_stats);
        Ok((crawler, filters, report, rt))
    }

    /// Digest of the complete crawler + report state, for asserting the
    /// bit-identical kill/resume invariant without field-by-field
    /// comparison.
    pub fn state_digest(&self, report: &CrawlReport) -> u64 {
        let mut w = Writer::new();
        self.encode_state(&mut w, report);
        codec::digest(&w.into_bytes())
    }

    fn encode_state(&self, w: &mut Writer, report: &CrawlReport) {
        self.crawldb.encode_snapshot(w);
        self.linkdb.encode_snapshot(w);
        let (word_counts, class_tokens, class_docs, threshold) = self.classifier.snapshot_parts();
        word_counts.encode(w);
        class_tokens.encode(w);
        class_docs.encode(w);
        w.f64(threshold);
        self.seen_content.encode(w);
        report.encode(w);
    }

    fn take_checkpoint(
        &self,
        report: &CrawlReport,
        filters: &FilterChain,
        rt: &RetryState,
    ) -> CrawlCheckpoint {
        let mut w = Writer::new();
        self.crawldb.encode_snapshot(&mut w);
        self.linkdb.encode_snapshot(&mut w);
        let (word_counts, class_tokens, class_docs, threshold) = self.classifier.snapshot_parts();
        word_counts.encode(&mut w);
        class_tokens.encode(&mut w);
        class_docs.encode(&mut w);
        w.f64(threshold);
        self.seen_content.encode(&mut w);
        filters.stats().encode(&mut w);
        report.encode(&mut w);
        rt.encode(&mut w);
        // registry state rides in the frame so resumed crawls continue
        // their metrics bit-identically
        self.observer.registry().snapshot().encode(&mut w);
        CrawlCheckpoint::seal(rt.round, &w.into_bytes())
    }

    fn finish(&self, report: &mut CrawlReport, filters: &FilterChain, rt: &RetryState) {
        report.filter_stats = filters.stats();
        report.trap_rejected = self.crawldb.trap_rejected();
        report.resilience.breaker_trips = rt.breaker.total_trips();
    }

    /// The crawl loop proper. Returns `true` if stopped early by
    /// `options.stop_after_rounds` (a simulated kill).
    fn run_rounds(
        &mut self,
        report: &mut CrawlReport,
        filters: &mut FilterChain,
        rt: &mut RetryState,
        options: &ResilienceOptions,
        checkpoints: &mut Vec<CrawlCheckpoint>,
    ) -> bool {
        let fetcher = Fetcher::new(self.web, self.config.threads);

        loop {
            if report.relevant.len() + report.irrelevant.len() >= self.config.max_pages {
                return false;
            }
            if let Some(stop) = options.stop_after_rounds {
                if rt.round >= stop {
                    return true;
                }
            }
            let mut now_ms = (report.simulated_secs * 1000.0) as u64;

            // Assemble the round's batch: frontier work plus any retries
            // whose backoff/quarantine has expired.
            let mut batch = self
                .crawldb
                .next_fetch_list(self.config.fetch_list_per_host, self.config.fetch_list_total);
            let mut due: Vec<FrontierEntry> = Vec::new();
            rt.retry_queue.retain(|(ready_ms, entry)| {
                if *ready_ms <= now_ms {
                    due.push(entry.clone());
                    false
                } else {
                    true
                }
            });
            if batch.is_empty() && due.is_empty() {
                match rt.retry_queue.iter().map(|(ready, _)| *ready).min() {
                    None => {
                        report.frontier_exhausted = true;
                        return false;
                    }
                    Some(min_ready) => {
                        // Nothing fetchable yet: idle forward to the next
                        // retry becoming due.
                        report.resilience.recovery_wait_ms += min_ready - now_ms;
                        report.simulated_secs += (min_ready - now_ms) as f64 / 1000.0;
                        continue;
                    }
                }
            }
            batch.extend(due);

            // Circuit-breaker gate: quarantined hosts' entries wait out
            // the cooldown instead of being fetched.
            let mut admitted = Vec::with_capacity(batch.len());
            for entry in batch {
                let host = entry.url.host();
                if rt.breaker.allow(host, now_ms) {
                    admitted.push(entry);
                } else {
                    let ready_ms = match rt.breaker.state(host) {
                        BreakerState::Open { until_ms } => until_ms,
                        _ => now_ms + options.breaker_cooldown_ms,
                    };
                    report.resilience.breaker_deferred += 1;
                    rt.retry_queue.push((ready_ms, entry));
                }
            }
            if admitted.is_empty() {
                continue;
            }

            let round_t0 = report.simulated_secs;
            let mut phases = RoundPhases::default();
            let mut round_analyzed: u64 = 0;
            let mut round_failed: u64 = 0;
            let mut round_duplicates: u64 = 0;
            let mut round_relevant: u64 = 0;
            let mut round_irrelevant: u64 = 0;
            let mut round_bytes: u64 = 0;

            let (outcomes, fetch_stats) = match &options.faults {
                Some(plan) => fetcher
                    .fetch_batch_with(admitted, FaultContext::new(plan, rt.round, &rt.attempts)),
                None => fetcher.fetch_batch(admitted),
            };
            let fetch_secs = fetch_stats.simulated_ms as f64 / 1000.0;
            report.simulated_secs += fetch_secs;
            report.resilience.injected_transient += fetch_stats.injected_transient;
            report.resilience.worker_panics += fetch_stats.worker_panics;
            now_ms = (report.simulated_secs * 1000.0) as u64;

            for outcome in outcomes {
                let url = outcome.entry.url.clone();
                let resp = match outcome.result {
                    Ok(r) => {
                        rt.breaker.record_success(url.host());
                        rt.attempts.remove(&url);
                        r
                    }
                    Err(failure) if failure.is_retryable() => {
                        let host = url.host().to_string();
                        rt.breaker.record_failure(&host, now_ms);
                        let attempt = rt.attempts.entry(url.clone()).or_insert(0);
                        *attempt += 1;
                        if *attempt <= options.backoff.max_retries && rt.budget.try_spend(&host) {
                            let delay = options.backoff.delay_ms(&url.to_string(), *attempt);
                            rt.retry_queue.push((now_ms + delay, outcome.entry));
                            report.resilience.retries_scheduled += 1;
                        } else {
                            report.resilience.retries_exhausted += 1;
                            report.failed += 1;
                            round_failed += 1;
                            self.crawldb.mark(&url, UrlStatus::Failed);
                        }
                        continue;
                    }
                    Err(_) => {
                        report.failed += 1;
                        round_failed += 1;
                        self.crawldb.mark(&url, UrlStatus::Failed);
                        continue;
                    }
                };
                report.simulated_secs += ANALYSIS_COST_SECS;
                round_analyzed += 1;
                round_bytes += resp.body.len() as u64;
                // attribution budget for this page: phases a page never
                // reaches are charged to the phase that stopped it
                let mut remaining = ANALYSIS_COST_SECS;

                // MIME-type / raw-size filtering first (Fig. 1 order).
                if filters.check_mime(url.path(), &resp.body).is_err() {
                    phases.filter += remaining;
                    self.crawldb.mark(&url, UrlStatus::Rejected);
                    continue;
                }
                phases.filter += FILTER_COST_SECS;
                remaining -= FILTER_COST_SECS;

                // Parse links: LinkDB stores the observed structure even of
                // pages we later reject.
                // borrows the body when it is valid UTF-8 (nearly always)
                let body_text = String::from_utf8_lossy(&resp.body);
                let links = extract_links(&body_text, &url);
                self.linkdb.add_links(&url, &links);

                // Boilerplate removal (errors count as parse failures).
                let net_text = match self.boilerplate.extract(&body_text) {
                    Ok(t) => t,
                    Err(_) => {
                        phases.parse += remaining;
                        report.failed += 1;
                        round_failed += 1;
                        self.crawldb.mark(&url, UrlStatus::Rejected);
                        continue;
                    }
                };

                // Net-text length and language filters.
                if filters.check_text(&net_text).is_err() {
                    phases.parse += PARSE_COST_SECS;
                    phases.filter += remaining - PARSE_COST_SECS;
                    self.crawldb.mark(&url, UrlStatus::Rejected);
                    continue;
                }
                phases.parse += PARSE_COST_SECS;
                remaining -= PARSE_COST_SECS;

                // Content deduplication (trap starvation + mirror removal).
                let mut hash: u64 = 0xcbf29ce484222325;
                for b in net_text.as_bytes() {
                    hash ^= *b as u64;
                    hash = hash.wrapping_mul(0x100000001b3);
                }
                if !self.seen_content.insert(hash) {
                    phases.dedup += remaining;
                    report.duplicates += 1;
                    round_duplicates += 1;
                    self.crawldb.mark(&url, UrlStatus::Rejected);
                    continue;
                }
                phases.dedup += DEDUP_COST_SECS;
                remaining -= DEDUP_COST_SECS;
                // whatever is left of the page's budget is classification
                phases.classify += remaining;

                // Relevance classification, optionally adjusted by the IE
                // feedback loop (entity density is strong biomedical
                // evidence the bag-of-words model may miss).
                let prediction = self.classifier.predict(&net_text);
                let (relevant, log_odds) = match &self.feedback {
                    None => (prediction.relevant, prediction.log_odds),
                    Some(fb) => {
                        let adjusted = prediction.log_odds + fb.boost(&net_text);
                        let verdict = adjusted > self.classifier.threshold();
                        if let Some(margin) = fb.self_training_margin {
                            if (adjusted - self.classifier.threshold()).abs() > margin {
                                self.classifier.update(&net_text, verdict);
                            }
                        }
                        (verdict, adjusted)
                    }
                };
                let page = CrawledPage {
                    gold_relevant: self.web.gold_relevant(&url),
                    url: url.clone(),
                    raw_bytes: resp.body.len(),
                    classified_relevant: relevant,
                    log_odds,
                    net_text,
                };

                let expand = if page.classified_relevant {
                    Some(0)
                } else if outcome.entry.irrelevant_steps < self.config.follow_irrelevant_steps {
                    Some(outcome.entry.irrelevant_steps + 1)
                } else {
                    None
                };
                if let Some(steps) = expand {
                    self.crawldb.add(links.into_iter().map(|l| FrontierEntry {
                        url: l,
                        irrelevant_steps: steps,
                    }));
                }

                self.crawldb.mark(&url, UrlStatus::Fetched);
                if page.classified_relevant {
                    round_relevant += 1;
                    report.bytes_relevant += page.raw_bytes as u64;
                    report.relevant.push(page);
                } else {
                    round_irrelevant += 1;
                    report.bytes_irrelevant += page.raw_bytes as u64;
                    report.irrelevant.push(page);
                }
            }

            // Observability: one span per round phase laid end-to-end on
            // the simulated clock (fetch, then the Fig. 1 analysis phases
            // in order), per-round counters/gauges, and profiler scopes.
            // All recorded here on the single-threaded round loop, so
            // same-seed crawls observe byte-identically.
            {
                let obs = &self.observer;
                let round_id = rt.round.to_string();
                let round_label = Labels::new(&[("round", &round_id)]);
                let mut t = round_t0;
                for (name, dur) in [
                    ("crawl.fetch", fetch_secs),
                    ("crawl.parse", phases.parse),
                    ("crawl.filter", phases.filter),
                    ("crawl.classify", phases.classify),
                    ("crawl.dedup", phases.dedup),
                ] {
                    obs.tracer().span(name, t, dur, round_label.clone());
                    t += dur;
                }
                obs.profiler().record(&["crawl", "round", "fetch"], fetch_secs, round_bytes);
                obs.profiler().record(&["crawl", "round", "parse"], phases.parse, 0);
                obs.profiler().record(&["crawl", "round", "filter"], phases.filter, 0);
                obs.profiler().record(&["crawl", "round", "classify"], phases.classify, 0);
                obs.profiler().record(&["crawl", "round", "dedup"], phases.dedup, 0);

                let reg = obs.registry();
                let at = Labels::empty();
                reg.counter("crawl.rounds", &at).inc();
                reg.counter("crawl.pages_analyzed", &at).add(round_analyzed);
                reg.counter("crawl.pages_failed", &at).add(round_failed);
                reg.counter("crawl.duplicates", &at).add(round_duplicates);
                reg.counter("crawl.relevant", &at).add(round_relevant);
                reg.counter("crawl.irrelevant", &at).add(round_irrelevant);
                reg.counter("crawl.bytes_fetched", &at).add(round_bytes);
                reg.gauge("crawl.frontier_size", &at).set(self.crawldb.frontier_size() as f64);
                reg.gauge("crawl.harvest_rate", &at).set(report.harvest_rate());
                reg.gauge("crawl.simulated_secs", &at).set(report.simulated_secs);
                reg.histogram("crawl.round_fetch_secs", &at).record(fetch_secs);
            }

            // Segment boundary: advance the round counter and checkpoint
            // if the cadence says so (an injected store-write fault loses
            // the snapshot but not the crawl).
            rt.round += 1;
            if let Some(every) = options.checkpoint_every_rounds {
                if every > 0 && rt.round.is_multiple_of(every) {
                    let lost = options.faults.as_ref().is_some_and(|plan| {
                        plan.injects_at(FaultKind::StoreWrite, "crawl-checkpoint", rt.round)
                    });
                    if lost {
                        report.resilience.store_write_failures += 1;
                    } else {
                        report.resilience.checkpoints_taken += 1;
                        checkpoints.push(self.take_checkpoint(report, filters, rt));
                    }
                }
            }
        }
    }
}

/// A stepping handle over a focused crawl: the same loop as
/// [`FocusedCrawler::crawl_resilient`], advanced one round ("segment")
/// at a time so a long-running live session can interleave crawling with
/// downstream incremental processing.
///
/// Stepping is bit-identical to an uninterrupted run: the fetcher the
/// loop builds per call is stateless, every retry/backoff/breaker
/// decision lives in the checkpointed [`RetryState`], and the loop-top
/// stop check only ever *returns* — it never changes what a round does.
/// So N calls to [`CrawlSession::step_round`] leave the crawler, report,
/// and observer in exactly the state one `crawl_resilient` call reaches
/// after N rounds.
///
/// Between steps the session exposes the *delta* of newly accepted pages
/// ([`CrawlSession::take_new_pages`]) and can seal the standard crawl
/// checkpoint frame ([`CrawlSession::checkpoint`]); [`CrawlSession::resume`]
/// rebuilds a session from such a frame without rerunning the loop.
pub struct CrawlSession<'w> {
    crawler: FocusedCrawler<'w>,
    report: CrawlReport,
    filters: FilterChain,
    rt: RetryState,
    options: ResilienceOptions,
    /// Cadence checkpoints taken inside the loop (per
    /// `options.checkpoint_every_rounds`), drainable by the caller.
    checkpoints: Vec<CrawlCheckpoint>,
    done: bool,
    drained_relevant: usize,
    drained_irrelevant: usize,
}

impl<'w> CrawlSession<'w> {
    /// Starts a stepping session: seeds are injected, nothing is fetched
    /// yet. `options.stop_after_rounds` is ignored — the caller controls
    /// the kill point by simply not calling [`CrawlSession::step_round`].
    pub fn start(
        mut crawler: FocusedCrawler<'w>,
        seeds: Vec<Url>,
        options: &ResilienceOptions,
    ) -> CrawlSession<'w> {
        let filters = FilterChain::new(crawler.config.filters);
        crawler.crawldb.inject(seeds);
        let rt = RetryState::new(options);
        CrawlSession {
            crawler,
            report: CrawlReport::default(),
            filters,
            rt,
            options: options.clone(),
            checkpoints: Vec::new(),
            done: false,
            drained_relevant: 0,
            drained_irrelevant: 0,
        }
    }

    /// Rebuilds a session from a sealed crawl checkpoint without running
    /// any rounds. The frame's registry snapshot is restored into
    /// `observer`, and pages already in the checkpointed report count as
    /// drained — the downstream consumer saw them before the kill.
    pub fn resume(
        web: &'w SimulatedWeb,
        checkpoint: &CrawlCheckpoint,
        config: CrawlConfig,
        options: &ResilienceOptions,
        feedback: Option<IeFeedback>,
        observer: Arc<Observer>,
    ) -> Result<CrawlSession<'w>, CodecError> {
        let (crawler, filters, report, rt) =
            FocusedCrawler::restore_parts(web, checkpoint, config, feedback, observer)?;
        Ok(CrawlSession {
            drained_relevant: report.relevant.len(),
            drained_irrelevant: report.irrelevant.len(),
            crawler,
            report,
            filters,
            rt,
            options: options.clone(),
            checkpoints: Vec::new(),
            done: false,
        })
    }

    /// Advances the crawl exactly one round. Returns `false` once the
    /// crawl is over (`max_pages` reached or frontier exhausted) — after
    /// which the report carries its final derived statistics and further
    /// calls are no-ops.
    pub fn step_round(&mut self) -> bool {
        if self.done {
            return false;
        }
        let step = ResilienceOptions {
            stop_after_rounds: Some(self.rt.round + 1),
            ..self.options.clone()
        };
        let more = self.crawler.run_rounds(
            &mut self.report,
            &mut self.filters,
            &mut self.rt,
            &step,
            &mut self.checkpoints,
        );
        if !more {
            self.done = true;
            // Derived report fields are filled exactly once, at the end —
            // the same point `crawl_resilient` fills them — so mid-session
            // state (and any checkpoint sealed from it) stays bit-identical
            // to an uninterrupted run at the same round boundary.
            self.crawler.finish(&mut self.report, &self.filters, &self.rt);
        }
        more
    }

    /// Pages accepted since the last call (or since start/resume):
    /// `(relevant, irrelevant)` tail slices of the report, in acceptance
    /// order. The cursor advances, so each page is returned exactly once.
    pub fn take_new_pages(&mut self) -> (&[CrawledPage], &[CrawledPage]) {
        let rel_from = self.drained_relevant;
        let irr_from = self.drained_irrelevant;
        self.drained_relevant = self.report.relevant.len();
        self.drained_irrelevant = self.report.irrelevant.len();
        (&self.report.relevant[rel_from..], &self.report.irrelevant[irr_from..])
    }

    /// Count of relevant pages already handed out via
    /// [`CrawlSession::take_new_pages`] — the id offset for converting a
    /// delta into globally numbered documents.
    pub fn drained_relevant(&self) -> usize {
        self.drained_relevant
    }

    /// Seals the complete crawler + loop state into the standard crawl
    /// checkpoint frame — byte-compatible with the cadence checkpoints
    /// `crawl_resilient` takes, so either kind can resume a session.
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        self.crawler.take_checkpoint(&self.report, &self.filters, &self.rt)
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.rt.round
    }

    /// Has the crawl ended (frontier exhausted or `max_pages` reached)?
    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn report(&self) -> &CrawlReport {
        &self.report
    }

    pub fn crawler(&self) -> &FocusedCrawler<'w> {
        &self.crawler
    }

    /// Digest of the complete crawler + report state (see
    /// [`FocusedCrawler::state_digest`]) — the "crawler frontier digest"
    /// a live watermark records.
    pub fn state_digest(&self) -> u64 {
        self.crawler.state_digest(&self.report)
    }

    /// Drains any cadence checkpoints the loop took during stepping.
    pub fn take_cadence_checkpoints(&mut self) -> Vec<CrawlCheckpoint> {
        std::mem::take(&mut self.checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::train_focus_classifier;
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
        // plus the per-page analysis budget equals the profiler's crawl
        // total (no idle waits occur without fault injection)
        let crawl_total = obs
            .profiler()
            .scopes()
            .iter()
            .find(|s| s.folded_path() == "crawl")
            .expect("missing crawl scope")
            .total_secs;
        assert!(
            (crawl_total - report.simulated_secs).abs() < 1e-6,
            "profiler total {crawl_total} vs clock {}",
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

        let killed_opts = ResilienceOptions {
            stop_after_rounds: Some(3),
            ..opts.clone()
        };
        let mut killed = FocusedCrawler::new(&web, nb, resilient_config());
        let (_, mut ckpts) = killed.crawl_resilient(seeds, &killed_opts);
        let last = ckpts.pop().expect("no checkpoint taken");

        let resumed_obs = Arc::new(Observer::new());
        let (_, _, _) = FocusedCrawler::resume_observed(
            &web,
            &last,
            resilient_config(),
            &opts,
            None,
            Arc::clone(&resumed_obs),
        )
        .unwrap();

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
        let killed_opts = ResilienceOptions {
            stop_after_rounds: Some(3),
            ..opts.clone()
        };
        let mut killed = FocusedCrawler::new(&web, nb, resilient_config());
        let (_partial, mut ckpts) = killed.crawl_resilient(seeds, &killed_opts);
        let last = ckpts.pop().expect("killed run took no checkpoint");
        assert!(last.round < 3 + 1, "checkpoint past the kill point");

        // Resume from durable bytes (exercising the corruption checks).
        let restored = CrawlCheckpoint::from_bytes(last.round, last.as_bytes().to_vec()).unwrap();
        let (resumed, resumed_report, _) =
            FocusedCrawler::resume_from(&web, &restored, resilient_config(), &opts, None).unwrap();

        assert_eq!(
            baseline.state_digest(&base_report),
            resumed.state_digest(&resumed_report),
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

    #[test]
    fn stepped_session_matches_uninterrupted_crawl_bit_for_bit() {
        let (web, nb) = setup();
        let seeds = biomedical_seeds(&web, 20);
        let opts = ResilienceOptions::injected(0x57E9, 0.05, 2);

        let mut baseline = FocusedCrawler::new(&web, nb.clone(), resilient_config());
        let (base_report, base_ckpts) = baseline.crawl_resilient(seeds.clone(), &opts);

        let mut session = CrawlSession::start(
            FocusedCrawler::new(&web, nb, resilient_config()),
            seeds,
            &opts,
        );
        let mut pages = 0;
        while session.step_round() {
            let (rel, irr) = session.take_new_pages();
            pages += rel.len() + irr.len();
        }
        let (rel, irr) = session.take_new_pages();
        pages += rel.len() + irr.len();

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
}
