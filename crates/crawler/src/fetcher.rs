//! The multi-threaded, politeness-respecting fetcher.
//!
//! "A set of fetcher threads reads lists of not yet visited URLs ...
//! downloads the respective web pages"; "politeness rules of web servers
//! were respected". Fetching against the simulated web is near-instant, so
//! wall-clock politeness sleeping would be pointless; instead the fetcher
//! *accounts* simulated time: per-host queues are serialized and separated
//! by the host's robots crawl-delay, threads run host queues in parallel,
//! and the makespan of the batch is reported in simulated milliseconds.
//! The paper's "3-4 documents per second" download rate emerges from this
//! accounting plus the downstream filtering cost.
//!
//! # Failure handling
//!
//! Worker failures never abort the batch. Each host batch runs inside
//! `catch_unwind`, so a panic mid-host (real or injected via a
//! [`FaultPlan`]) surfaces as typed [`FetchFailure::WorkerPanic`]
//! outcomes for that host's entries while the worker thread moves on to
//! the next host. As a second line of defence, worker threads are joined
//! individually: a thread that somehow dies outside the per-host guard
//! has its in-flight host converted to `WorkerPanic` outcomes too, and
//! any hosts left unclaimed in the queue are drained the same way rather
//! than being silently dropped.

use crate::crawldb::FrontierEntry;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use websift_resilience::{FaultKind, FaultPlan};
use websift_web::{FetchError, FetchResponse, SimulatedWeb, Url};

/// The host batch a worker is currently fetching (for crash recovery).
type InFlightBatch = Option<(String, Vec<FrontierEntry>)>;

/// Simulated cost of detecting and cleaning up a crashed worker, charged
/// to the host's timeline in place of the work it lost.
const PANIC_RECOVERY_MS: u64 = 50;

/// Why a fetch produced no page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchFailure {
    /// Permanent protocol-level failure from the (simulated) web; not
    /// worth retrying.
    Http(FetchError),
    /// Transient network failure (injected by a [`FaultPlan`]); the
    /// same URL may succeed on retry.
    Transient { attempt: u32 },
    /// The worker thread handling this URL's host batch panicked.
    WorkerPanic { message: String },
}

impl FetchFailure {
    /// Transient failures and worker crashes are retryable; HTTP-level
    /// failures (unknown host, 404) are permanent.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, FetchFailure::Http(_))
    }
}

impl std::fmt::Display for FetchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchFailure::Http(e) => write!(f, "http error: {e:?}"),
            FetchFailure::Transient { attempt } => {
                write!(f, "transient network failure (attempt {attempt})")
            }
            FetchFailure::WorkerPanic { message } => write!(f, "fetch worker panicked: {message}"),
        }
    }
}

/// One fetch outcome.
#[derive(Debug)]
pub struct FetchOutcome {
    pub entry: FrontierEntry,
    pub result: Result<FetchResponse, FetchFailure>,
}

/// Batch statistics in simulated time.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FetchStats {
    pub fetched: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Simulated makespan of the batch in milliseconds.
    pub simulated_ms: u64,
    /// Robots-disallowed URLs skipped without fetching.
    pub robots_skipped: u64,
    /// Failures injected by the fault plan as transient network errors.
    pub injected_transient: u64,
    /// Host batches lost to a panicking worker (real or injected).
    pub worker_panics: u64,
}

/// Fault-injection context for one batch: the plan, the batch's epoch
/// (so per-host panic decisions differ between rounds), and per-URL
/// attempt counters (so a retried URL gets a fresh transient-fault
/// decision).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultContext<'p> {
    pub plan: Option<&'p FaultPlan>,
    pub epoch: u64,
    pub attempts: Option<&'p HashMap<Url, u32>>,
}

impl<'p> FaultContext<'p> {
    pub fn new(plan: Option<&'p FaultPlan>, epoch: u64, attempts: &'p HashMap<Url, u32>) -> Self {
        FaultContext { plan, epoch, attempts: Some(attempts) }
    }

    fn attempt_of(&self, url: &Url) -> u32 {
        self.attempts.and_then(|m| m.get(url)).copied().unwrap_or(0)
    }
}

/// The fetcher.
pub struct Fetcher<'w> {
    web: &'w SimulatedWeb,
    threads: usize,
}

impl<'w> Fetcher<'w> {
    pub fn new(web: &'w SimulatedWeb, threads: usize) -> Fetcher<'w> {
        assert!(threads > 0);
        Fetcher { web, threads }
    }

    /// Fetches a batch, respecting robots.txt (disallow rules skip the URL;
    /// crawl-delay serializes the host's simulated timeline). `faults`
    /// injects failures per its plan; [`FaultContext::default`] has no
    /// plan and injects nothing.
    pub fn fetch_batch(
        &self,
        batch: Vec<FrontierEntry>,
        faults: FaultContext<'_>,
    ) -> (Vec<FetchOutcome>, FetchStats) {
        // Group by host so one host stays on one thread (politeness).
        let mut by_host: HashMap<String, Vec<FrontierEntry>> = HashMap::new();
        for entry in batch {
            by_host.entry(entry.url.host().to_string()).or_default().push(entry);
        }
        let mut host_lists: Vec<(String, Vec<FrontierEntry>)> = by_host.into_iter().collect();
        host_lists.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic assignment

        let queue = Mutex::new(host_lists);
        let results = Mutex::new(Vec::new());
        // (host, busy time) pairs; the simulated makespan is computed
        // from these after the batch so it does not depend on which OS
        // thread happened to claim which host.
        let host_times = Mutex::new(Vec::new());
        let stats = Mutex::new(FetchStats::default());
        // host each worker is currently processing, for crash recovery
        let in_flight: Mutex<Vec<InFlightBatch>> = Mutex::new(vec![None; self.threads]);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|tid| {
                    let queue = &queue;
                    let results = &results;
                    let stats = &stats;
                    let host_times = &host_times;
                    let in_flight = &in_flight;
                    let web = self.web;
                    scope.spawn(move || loop {
                        let (host, entries) = match queue.lock().pop() {
                            Some(x) => x,
                            None => break,
                        };
                        in_flight.lock()[tid] = Some((host.clone(), entries.clone()));
                        let worked = catch_unwind(AssertUnwindSafe(|| {
                            fetch_host_batch(web, &host, entries, &faults)
                        }));
                        let stashed = in_flight.lock()[tid].take();
                        let (local_outcomes, host_time, local_stats) = match worked {
                            Ok(done) => done,
                            Err(payload) => {
                                // partial work for the host is discarded;
                                // every entry becomes a typed failure
                                let message = panic_message(&payload);
                                let (_, entries) =
                                    stashed.unwrap_or((host.clone(), Vec::new()));
                                panicked_host_outcomes(&host, entries, &message)
                            }
                        };
                        results.lock().extend(local_outcomes);
                        host_times.lock().push((host, host_time));
                        stats.lock().merge(&local_stats);
                    })
                })
                .collect();
            for (tid, handle) in handles.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    // Worker died outside the per-host guard: convert its
                    // in-flight host batch into typed failures.
                    let message = panic_message(&payload);
                    if let Some((host, entries)) = in_flight.lock()[tid].take() {
                        let (outcomes, host_time, local_stats) =
                            panicked_host_outcomes(&host, entries, &message);
                        results.lock().extend(outcomes);
                        host_times.lock().push((host, host_time));
                        stats.lock().merge(&local_stats);
                    }
                }
            }
        });

        // Hosts never claimed because workers died early: fail them
        // loudly instead of dropping them.
        for (host, entries) in queue.into_inner() {
            let (outcomes, host_time, local_stats) =
                panicked_host_outcomes(&host, entries, "worker pool exhausted by panics");
            results.lock().extend(outcomes);
            host_times.lock().push((host, host_time));
            stats.lock().merge(&local_stats);
        }

        let mut outcomes = results.into_inner();
        // Deterministic output order regardless of thread scheduling.
        outcomes.sort_by(|a, b| a.entry.url.cmp(&b.entry.url));
        let mut final_stats = stats.into_inner();
        final_stats.simulated_ms = self.simulated_makespan(host_times.into_inner());
        (outcomes, final_stats)
    }

    /// Simulated makespan of a batch: hosts (sorted, so the result is
    /// independent of thread interleaving) are greedily assigned to the
    /// least-loaded of `threads` simulated workers, and the busiest
    /// worker's total is the batch duration. This models the same
    /// host-per-thread politeness scheduling the real workers use while
    /// keeping the simulated clock bit-deterministic.
    fn simulated_makespan(&self, mut host_times: Vec<(String, u64)>) -> u64 {
        host_times.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut loads = vec![0u64; self.threads];
        for (_, t) in host_times {
            let min = loads
                .iter()
                .enumerate()
                .min_by_key(|(_, &l)| l)
                .map(|(i, _)| i)
                .unwrap_or(0);
            loads[min] += t;
        }
        loads.into_iter().max().unwrap_or(0)
    }
}

/// Processes one host's queue on the current worker thread. Panics (from
/// fault injection or real bugs) unwind to the per-host `catch_unwind`.
fn fetch_host_batch(
    web: &SimulatedWeb,
    host: &str,
    entries: Vec<FrontierEntry>,
    faults: &FaultContext<'_>,
) -> (Vec<FetchOutcome>, u64, FetchStats) {
    if let Some(plan) = faults.plan {
        if plan.injects_at(FaultKind::WorkerPanic, host, faults.epoch) {
            panic!("injected fault: worker panic on host {host}");
        }
    }
    let rules = web.robots(host);
    let delay = rules.as_ref().map(|r| r.crawl_delay_ms).unwrap_or(0);
    let mut host_time = 0u64;
    let mut local_outcomes = Vec::with_capacity(entries.len());
    let mut local_stats = FetchStats::default();
    for entry in entries {
        if let Some(r) = &rules {
            if !r.allows(entry.url.path()) {
                local_stats.robots_skipped += 1;
                continue;
            }
        }
        let injected = faults.plan.is_some_and(|plan| {
            plan.injects_at(
                FaultKind::FetchTransient,
                &entry.url.to_string(),
                faults.attempt_of(&entry.url) as u64,
            )
        });
        let result = if injected {
            local_stats.injected_transient += 1;
            Err(FetchFailure::Transient { attempt: faults.attempt_of(&entry.url) })
        } else {
            web.fetch(&entry.url).map_err(FetchFailure::Http)
        };
        match &result {
            Ok(resp) => {
                host_time += delay.max(resp.latency_ms);
                local_stats.fetched += 1;
                local_stats.bytes += resp.body.len() as u64;
            }
            Err(_) => {
                host_time += delay.max(30);
                local_stats.failed += 1;
            }
        }
        local_outcomes.push(FetchOutcome { entry, result });
    }
    (local_outcomes, host_time, local_stats)
}

/// Typed outcomes for a host batch lost to a worker panic.
fn panicked_host_outcomes(
    host: &str,
    entries: Vec<FrontierEntry>,
    message: &str,
) -> (Vec<FetchOutcome>, u64, FetchStats) {
    let local_stats = FetchStats {
        worker_panics: 1,
        failed: entries.len() as u64,
        ..FetchStats::default()
    };
    let outcomes = entries
        .into_iter()
        .map(|entry| FetchOutcome {
            entry,
            result: Err(FetchFailure::WorkerPanic {
                message: format!("{message} (host {host})"),
            }),
        })
        .collect();
    (outcomes, PANIC_RECOVERY_MS, local_stats)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl FetchStats {
    fn merge(&mut self, other: &FetchStats) {
        self.fetched += other.fetched;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.robots_skipped += other.robots_skipped;
        self.injected_transient += other.injected_transient;
        self.worker_panics += other.worker_panics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_web::{WebGraph, WebGraphConfig};

    fn entries(web: &SimulatedWeb, n: usize) -> Vec<FrontierEntry> {
        (0..n.min(web.graph().num_pages()))
            .map(|i| FrontierEntry {
                url: web.graph().url_of(websift_web::PageId(i as u32)),
                irrelevant_steps: 0,
            })
            .collect()
    }

    #[test]
    fn fetches_batch_in_parallel() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let fetcher = Fetcher::new(&web, 4);
        let batch = entries(&web, 40);
        let n = batch.len();
        let (outcomes, stats) = fetcher.fetch_batch(batch, FaultContext::default());
        assert_eq!(outcomes.len() as u64 + stats.robots_skipped, n as u64);
        assert_eq!(stats.fetched + stats.failed, outcomes.len() as u64);
        assert!(stats.bytes > 0);
        assert!(stats.simulated_ms > 0);
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let batch1 = entries(&web, 30);
        let batch2 = entries(&web, 30);
        let (o1, _) = Fetcher::new(&web, 1).fetch_batch(batch1, FaultContext::default());
        let (o8, _) = Fetcher::new(&web, 8).fetch_batch(batch2, FaultContext::default());
        let urls1: Vec<String> = o1.iter().map(|o| o.entry.url.to_string()).collect();
        let urls8: Vec<String> = o8.iter().map(|o| o.entry.url.to_string()).collect();
        assert_eq!(urls1, urls8);
    }

    #[test]
    fn robots_disallow_is_respected() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let host = web
            .graph()
            .hosts()
            .iter()
            .find(|h| h.disallow_prefix.is_some())
            .expect("tiny graph should have a disallowing host")
            .name
            .clone();
        let fetcher = Fetcher::new(&web, 2);
        let batch = vec![FrontierEntry {
            url: Url::new(&host, "/private/secret.html"),
            irrelevant_steps: 0,
        }];
        let (outcomes, stats) = fetcher.fetch_batch(batch, FaultContext::default());
        assert!(outcomes.is_empty());
        assert_eq!(stats.robots_skipped, 1);
    }

    #[test]
    fn more_threads_do_not_increase_makespan() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let (_, s1) = Fetcher::new(&web, 1).fetch_batch(entries(&web, 60), FaultContext::default());
        let (_, s8) = Fetcher::new(&web, 8).fetch_batch(entries(&web, 60), FaultContext::default());
        assert!(s8.simulated_ms <= s1.simulated_ms);
    }

    #[test]
    fn injected_transient_faults_become_typed_failures() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let fetcher = Fetcher::new(&web, 4);
        let batch = entries(&web, 40);
        let n_outcomes = fetcher.fetch_batch(batch.clone(), FaultContext::default()).0.len();
        let plan = FaultPlan::new(11).with_rate(FaultKind::FetchTransient, 1.0);
        let attempts = HashMap::new();
        let (outcomes, stats) =
            fetcher.fetch_batch(batch, FaultContext::new(Some(&plan), 0, &attempts));
        assert_eq!(outcomes.len(), n_outcomes);
        assert_eq!(stats.injected_transient as usize, n_outcomes);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.result, Err(FetchFailure::Transient { .. }))));
        assert!(outcomes.iter().all(|o| o.result.as_ref().unwrap_err().is_retryable()));
    }

    #[test]
    fn worker_panics_become_typed_failures_not_aborts() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let fetcher = Fetcher::new(&web, 3);
        let batch = entries(&web, 40);
        let plan = FaultPlan::new(5).with_rate(FaultKind::WorkerPanic, 1.0);
        let attempts = HashMap::new();
        // every host batch panics; the call must still return, with every
        // non-robots-skipped entry accounted for as a typed failure
        let (outcomes, stats) =
            fetcher.fetch_batch(batch.clone(), FaultContext::new(Some(&plan), 0, &attempts));
        assert!(stats.worker_panics > 0);
        assert_eq!(outcomes.len(), batch.len());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.result, Err(FetchFailure::WorkerPanic { .. }))));
    }

    #[test]
    fn fault_outcomes_are_deterministic_across_thread_counts() {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let plan = FaultPlan::uniform(21, 0.3);
        let attempts = HashMap::new();
        let run = |threads| {
            let fetcher = Fetcher::new(&web, threads);
            let (outcomes, _) = fetcher
                .fetch_batch(entries(&web, 50), FaultContext::new(Some(&plan), 3, &attempts));
            outcomes
                .into_iter()
                .map(|o| (o.entry.url.to_string(), o.result.is_ok()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }
}
