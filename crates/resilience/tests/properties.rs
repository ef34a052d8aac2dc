//! Property tests for the resilience subsystem (satellite 3):
//!
//! 1. backoff delays are jitter-bounded — always within `[base_ms,
//!    cap_ms]` and under the `base * 3^attempt` decorrelated-jitter
//!    envelope — and pure in `(seed, site, attempt)`;
//! 2. checkpoint round-trips — a CrawlDB frontier serialized mid-crawl
//!    decodes to byte-identical state with fetch order preserved, and a
//!    crawl resumed from such a snapshot reports the same harvest rate
//!    as the uninterrupted baseline.

use proptest::prelude::*;
use std::sync::Arc;
use websift_crawler::{
    train_focus_classifier, CrawlConfig, CrawlDb, CrawlDbConfig, CrawlSession, FocusedCrawler,
    FrontierEntry, ResilienceOptions,
};
use websift_resilience::{BackoffPolicy, Reader, Writer};
use websift_web::{PageId, SimulatedWeb, Url, WebGraph, WebGraphConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backoff_delay_is_bounded_and_capped(
        seed in 0u64..u64::MAX,
        base in 1u64..2_000,
        cap_mult in 1u64..64,
        attempt in 1u32..9,
        site in "[a-z]{1,16}(\\.[a-z]{2,4})?",
    ) {
        let policy = BackoffPolicy {
            base_ms: base,
            cap_ms: base * cap_mult,
            max_retries: 8,
            seed,
        };
        let delay = policy.delay_ms(&site, attempt);
        prop_assert!(delay >= base, "delay {delay} under base {base}");
        prop_assert!(
            delay <= policy.cap_ms,
            "delay {delay} over cap {}",
            policy.cap_ms
        );
        let envelope = base.saturating_mul(3u64.saturating_pow(attempt));
        prop_assert!(
            delay <= envelope,
            "delay {delay} over 3^n envelope {envelope}"
        );
        // Pure: the same (seed, site, attempt) always yields the same
        // delay — the property the recovery invariant rests on.
        prop_assert_eq!(delay, policy.delay_ms(&site, attempt));
    }

    #[test]
    fn backoff_schedule_is_monotone_in_envelope(
        seed in 0u64..u64::MAX,
        site in "[a-z]{1,12}",
    ) {
        let policy = BackoffPolicy { seed, ..BackoffPolicy::default() };
        let schedule = policy.schedule(&site);
        prop_assert_eq!(schedule.len(), policy.max_retries as usize);
        for (i, &d) in schedule.iter().enumerate() {
            let envelope = policy
                .base_ms
                .saturating_mul(3u64.saturating_pow(i as u32 + 1));
            prop_assert!(d >= policy.base_ms && d <= policy.cap_ms.min(envelope));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frontier_snapshot_round_trips_mid_crawl(
        hosts in prop::collection::vec("[a-z]{3,8}\\.org", 2..6),
        paths in prop::collection::vec("/[a-z]{1,6}(/[a-z]{1,6}){0,3}", 4..40),
        fetched in 0usize..12,
    ) {
        let mut db = CrawlDb::new(CrawlDbConfig::default());
        db.add(paths.iter().enumerate().map(|(i, p)| FrontierEntry {
            url: Url::new(&hosts[i % hosts.len()], p),
            irrelevant_steps: (i % 4) as u32,
        }));
        // Drain part of the frontier so the snapshot captures a crawl
        // genuinely in flight (rotated host order, mixed statuses).
        let _ = db.next_fetch_list(2, fetched);

        let mut w = Writer::new();
        db.encode_snapshot(&mut w);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        let mut restored = CrawlDb::decode_snapshot(&mut r).expect("decode failed");
        prop_assert!(r.is_empty(), "snapshot left trailing bytes");

        // Byte-identity: re-encoding the restored DB reproduces the
        // exact snapshot, so digests over checkpoints are stable.
        let mut w2 = Writer::new();
        restored.encode_snapshot(&mut w2);
        prop_assert_eq!(&bytes, &w2.into_bytes());

        // Behavioral identity: the restored frontier hands out the same
        // fetch list in the same order as the original.
        prop_assert_eq!(db.next_fetch_list(3, 50), restored.next_fetch_list(3, 50));
    }
}

proptest! {
    // Each case runs two full (tiny) crawls; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn resumed_crawl_matches_baseline_harvest_rate(
        fault_seed in 0u64..u64::MAX,
        stop_after in 2u64..5,
    ) {
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let seeds: Vec<Url> = {
            let graph = web.graph();
            (0..graph.num_pages() as u32)
                .map(PageId)
                .filter(|&p| graph.page(p).relevant)
                .take(15)
                .map(|p| graph.url_of(p))
                .collect()
        };
        let config = || CrawlConfig {
            max_pages: 160,
            fetch_list_total: 40,
            threads: 3,
            ..CrawlConfig::default()
        };
        let opts = ResilienceOptions::injected(fault_seed, 0.1, 1);

        let mut baseline =
            FocusedCrawler::new(&web, train_focus_classifier(60, 1.5, 99), config());
        let (base_report, _) = baseline.crawl_resilient(seeds.clone(), &opts);

        // killed after `stop_after` rounds: step, drop, keep the last frame
        let mut victim = CrawlSession::start(
            FocusedCrawler::new(&web, train_focus_classifier(60, 1.5, 99), config()),
            seeds,
            &opts,
        );
        while victim.round() < stop_after && victim.step_round() {}
        let ckpts = victim.take_cadence_checkpoints();
        drop(victim);
        let last = ckpts.last().expect("no checkpoint taken before the kill");

        let mut resumed = CrawlSession::resume(
            &web,
            last,
            config(),
            &opts,
            None,
            Arc::new(websift_observe::Observer::new()),
        )
        .expect("resume failed");
        while resumed.step_round() {}

        prop_assert_eq!(
            base_report.harvest_rate().to_bits(),
            resumed.report().harvest_rate().to_bits(),
            "harvest rate diverged after resume"
        );
        prop_assert_eq!(
            baseline.state_digest(&base_report),
            resumed.state_digest()
        );
    }
}
