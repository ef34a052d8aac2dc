//! Retry with decorrelated-jitter backoff, per-host budgets, and a
//! circuit breaker for persistently failing hosts.
//!
//! All state here participates in crawl checkpoints, so every structure
//! is deterministic and snapshot-able: backoff delays are pure functions
//! of `(seed, site, attempt)`, and [`RetryBudget`] / [`CircuitBreaker`]
//! implement [`crate::Snapshot`].

use std::collections::HashMap;

use crate::checkpoint::Snapshot;
use crate::codec::{CodecError, Reader, Writer};
use crate::fault::{bits_to_unit_f64, splitmix64};

/// Exponential backoff with decorrelated jitter.
///
/// Delay for attempt *n* (1-based) follows the classic decorrelated
/// scheme `d_n = min(cap, uniform(base, 3 * d_{n-1}))` with `d_0 =
/// base`, except the uniform draw is a pure hash of `(seed, site,
/// attempt)` instead of shared RNG state — two callers asking for the
/// same site's schedule always get the same delays.
#[derive(Clone, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Minimum (and first) delay in simulated milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay.
    pub cap_ms: u64,
    /// Retries allowed per site before the failure is permanent.
    pub max_retries: u32,
    /// Seed decorrelating jitter across runs.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy { base_ms: 100, cap_ms: 30_000, max_retries: 4, seed: 0 }
    }
}

impl BackoffPolicy {
    /// Delay in ms before retry `attempt` (1-based) of `site`.
    ///
    /// Guarantees `base_ms <= delay <= cap_ms` (assuming `base_ms <=
    /// cap_ms`) and `delay <= base_ms * 3^attempt`.
    pub fn delay_ms(&self, site: &str, attempt: u32) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        let mut prev = base;
        let mut delay = base;
        for n in 1..=attempt {
            // uniform draw in [base, 3*prev], pure in (seed, site, n)
            let span = (prev.saturating_mul(3)).saturating_sub(base);
            let u = self.unit(site, n);
            delay = (base + (u * span as f64) as u64).min(cap);
            prev = delay;
        }
        delay
    }

    /// The full schedule of delays for a site, one per allowed retry.
    pub fn schedule(&self, site: &str) -> Vec<u64> {
        (1..=self.max_retries).map(|n| self.delay_ms(site, n)).collect()
    }

    fn unit(&self, site: &str, attempt: u32) -> f64 {
        let mut h = self.seed ^ 0x5bf0_3635_ce8f_70a3;
        for &b in site.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= attempt as u64;
        bits_to_unit_f64(splitmix64(h))
    }
}

/// Caps how many retries each host may consume in one crawl, so a few
/// pathological hosts cannot monopolize the fetch schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RetryBudget {
    per_host: u32,
    spent: HashMap<String, u32>,
}

impl RetryBudget {
    pub fn new(per_host: u32) -> RetryBudget {
        RetryBudget { per_host, spent: HashMap::new() }
    }

    /// Consumes one retry from `host`'s budget; `false` if exhausted.
    pub fn try_spend(&mut self, host: &str) -> bool {
        let spent = self.spent.entry(host.to_string()).or_insert(0);
        if *spent >= self.per_host {
            return false;
        }
        *spent += 1;
        true
    }

    pub fn spent(&self, host: &str) -> u32 {
        self.spent.get(host).copied().unwrap_or(0)
    }

    pub fn remaining(&self, host: &str) -> u32 {
        self.per_host.saturating_sub(self.spent(host))
    }
}

impl Snapshot for RetryBudget {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.per_host);
        self.spent.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<RetryBudget, CodecError> {
        Ok(RetryBudget { per_host: r.u32()?, spent: Snapshot::decode(r)? })
    }
}

/// Breaker state for one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined until the given simulated time (ms).
    Open { until_ms: u64 },
    /// Cooldown elapsed; one probe request is allowed through.
    HalfOpen,
}

#[derive(Clone, Debug, PartialEq)]
struct HostBreaker {
    consecutive_failures: u32,
    state: BreakerState,
    trips: u32,
}

/// Per-host circuit breaker.
///
/// `failure_threshold` consecutive failures open the circuit for
/// `cooldown_ms` of simulated time; after the cooldown one probe is
/// allowed (half-open), and its outcome either closes the circuit or
/// re-opens it for another cooldown.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown_ms: u64,
    hosts: HashMap<String, HostBreaker>,
}

impl CircuitBreaker {
    pub fn new(failure_threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown_ms,
            hosts: HashMap::new(),
        }
    }

    /// May a request to `host` proceed at simulated time `now_ms`?
    /// Transitions Open → HalfOpen when the cooldown has elapsed.
    pub fn allow(&mut self, host: &str, now_ms: u64) -> bool {
        let Some(hb) = self.hosts.get_mut(host) else { return true };
        match hb.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until_ms } => {
                if now_ms >= until_ms {
                    hb.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful request: closes the circuit and clears the
    /// failure streak.
    pub fn record_success(&mut self, host: &str) {
        if let Some(hb) = self.hosts.get_mut(host) {
            hb.consecutive_failures = 0;
            hb.state = BreakerState::Closed;
        }
    }

    /// Records a failed request at `now_ms`; a half-open probe failure
    /// or a full failure streak (re)opens the circuit.
    pub fn record_failure(&mut self, host: &str, now_ms: u64) {
        let hb = self.hosts.entry(host.to_string()).or_insert(HostBreaker {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            trips: 0,
        });
        hb.consecutive_failures += 1;
        let reopen = matches!(hb.state, BreakerState::HalfOpen)
            || hb.consecutive_failures >= self.failure_threshold;
        if reopen {
            hb.state = BreakerState::Open { until_ms: now_ms + self.cooldown_ms };
            hb.trips += 1;
            hb.consecutive_failures = 0;
        }
    }

    pub fn state(&self, host: &str) -> BreakerState {
        self.hosts.get(host).map(|hb| hb.state).unwrap_or(BreakerState::Closed)
    }

    /// Hosts currently quarantined (open circuit) at `now_ms`, sorted.
    pub fn quarantined(&self, now_ms: u64) -> Vec<&str> {
        let mut hosts: Vec<&str> = self
            .hosts
            .iter()
            .filter(|(_, hb)| matches!(hb.state, BreakerState::Open { until_ms } if now_ms < until_ms))
            .map(|(h, _)| h.as_str())
            .collect();
        hosts.sort_unstable();
        hosts
    }

    /// Total times any host's circuit has tripped open.
    pub fn total_trips(&self) -> u64 {
        self.hosts.values().map(|hb| hb.trips as u64).sum()
    }
}

impl Snapshot for BreakerState {
    fn encode(&self, w: &mut Writer) {
        match self {
            BreakerState::Closed => w.u8(0),
            BreakerState::Open { until_ms } => {
                w.u8(1);
                w.u64(*until_ms);
            }
            BreakerState::HalfOpen => w.u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<BreakerState, CodecError> {
        match r.u8()? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open { until_ms: r.u64()? }),
            2 => Ok(BreakerState::HalfOpen),
            tag => Err(CodecError::BadTag { what: "BreakerState", tag }),
        }
    }
}

impl Snapshot for HostBreaker {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.consecutive_failures);
        self.state.encode(w);
        w.u32(self.trips);
    }

    fn decode(r: &mut Reader<'_>) -> Result<HostBreaker, CodecError> {
        Ok(HostBreaker {
            consecutive_failures: r.u32()?,
            state: Snapshot::decode(r)?,
            trips: r.u32()?,
        })
    }
}

impl Snapshot for CircuitBreaker {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.failure_threshold);
        w.u64(self.cooldown_ms);
        self.hosts.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<CircuitBreaker, CodecError> {
        Ok(CircuitBreaker {
            failure_threshold: r.u32()?,
            cooldown_ms: r.u64()?,
            hosts: Snapshot::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_bounds_hold() {
        let policy = BackoffPolicy { base_ms: 50, cap_ms: 5_000, max_retries: 8, seed: 9 };
        let mut bound = policy.base_ms;
        for (i, d) in policy.schedule("example.org").into_iter().enumerate() {
            bound = bound.saturating_mul(3).min(policy.cap_ms);
            assert!(d >= policy.base_ms, "attempt {} below base: {d}", i + 1);
            assert!(d <= policy.cap_ms, "attempt {} above cap: {d}", i + 1);
            assert!(d <= bound, "attempt {} above 3^n envelope: {d} > {bound}", i + 1);
        }
    }

    #[test]
    fn backoff_is_pure_per_site() {
        let policy = BackoffPolicy::default();
        assert_eq!(policy.schedule("a.org"), policy.schedule("a.org"));
        // different sites should (almost surely) get different jitter
        assert_ne!(policy.schedule("a.org"), policy.schedule("b.org"));
    }

    #[test]
    fn budget_caps_spending() {
        let mut budget = RetryBudget::new(2);
        assert!(budget.try_spend("h"));
        assert!(budget.try_spend("h"));
        assert!(!budget.try_spend("h"));
        assert!(budget.try_spend("other"));
        assert_eq!(budget.spent("h"), 2);
        assert_eq!(budget.remaining("h"), 0);
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let mut cb = CircuitBreaker::new(3, 1_000);
        assert!(cb.allow("h", 0));
        cb.record_failure("h", 0);
        cb.record_failure("h", 10);
        assert!(cb.allow("h", 20), "below threshold stays closed");
        cb.record_failure("h", 20);
        assert_eq!(cb.state("h"), BreakerState::Open { until_ms: 1_020 });
        assert!(!cb.allow("h", 500));
        assert_eq!(cb.quarantined(500), vec!["h"]);
        // cooldown elapsed: one probe allowed
        assert!(cb.allow("h", 1_020));
        assert_eq!(cb.state("h"), BreakerState::HalfOpen);
        // probe fails: straight back to open
        cb.record_failure("h", 1_030);
        assert!(matches!(cb.state("h"), BreakerState::Open { .. }));
        assert_eq!(cb.total_trips(), 2);
        // probe succeeds after second cooldown: closed again
        assert!(cb.allow("h", 3_000));
        cb.record_success("h");
        assert_eq!(cb.state("h"), BreakerState::Closed);
        assert!(cb.quarantined(3_001).is_empty());
    }

    #[test]
    fn breaker_and_budget_roundtrip() {
        let mut cb = CircuitBreaker::new(2, 500);
        cb.record_failure("x.org", 10);
        cb.record_failure("x.org", 20);
        cb.record_failure("y.org", 30);
        let mut budget = RetryBudget::new(3);
        budget.try_spend("x.org");
        budget.try_spend("x.org");

        let mut w = Writer::new();
        cb.encode(&mut w);
        budget.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let cb2 = CircuitBreaker::decode(&mut r).unwrap();
        let budget2 = RetryBudget::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(cb, cb2);
        assert_eq!(budget, budget2);
    }
}
