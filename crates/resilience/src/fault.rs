//! Seeded deterministic fault injection.
//!
//! A [`FaultPlan`] decides, for every potential failure point, whether a
//! fault fires there. The decision is a pure function of the plan's seed
//! and the *identity* of the point — a fault kind, a site string (URL,
//! host, `operator/partition`, node id, …) and an occurrence counter for
//! sites that are visited repeatedly (retries). No mutable RNG state is
//! shared between decision points, so the same plan produces the same
//! faults no matter how threads interleave or in what order call sites
//! consult it. That property is what makes kill-and-resume runs
//! comparable to uninterrupted ones.

/// The classes of failure the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A fetch that would have succeeded returns a transient network
    /// error instead (connection reset, timeout). Retryable.
    FetchTransient,
    /// A worker thread panics in the middle of processing its unit of
    /// work (a host batch in the fetcher, a partition in the executor).
    WorkerPanic,
    /// A simulated cluster node drops out for the remainder of the run.
    NodeLoss,
    /// A read from a persistent store (CrawlDB / LinkDB / checkpoint
    /// storage) fails.
    StoreRead,
    /// A write to a persistent store fails.
    StoreWrite,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::FetchTransient,
        FaultKind::WorkerPanic,
        FaultKind::NodeLoss,
        FaultKind::StoreRead,
        FaultKind::StoreWrite,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::FetchTransient => 0,
            FaultKind::WorkerPanic => 1,
            FaultKind::NodeLoss => 2,
            FaultKind::StoreRead => 3,
            FaultKind::StoreWrite => 4,
        }
    }

    /// Stable name, used in reports and in the hash preimage.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FetchTransient => "fetch-transient",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::NodeLoss => "node-loss",
            FaultKind::StoreRead => "store-read",
            FaultKind::StoreWrite => "store-write",
        }
    }
}

/// A reproducible schedule of injected faults.
///
/// Rates are probabilities in `[0, 1]` per *decision point*. A rate of
/// zero (the default for every kind) means the corresponding question
/// [`FaultPlan::injects_at`] always answers `false`, so a plan with all
/// rates zero is behaviourally identical to running without one.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; 5],
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A plan with the given seed and every rate at zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rates: [0.0; 5] }
    }

    /// A plan injecting every fault kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for kind in FaultKind::ALL {
            plan = plan.with_rate(kind, rate);
        }
        plan
    }

    /// Sets the injection rate for one fault kind (clamped to `[0, 1]`).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Does a fault of `kind` fire at `site`, first occurrence?
    pub fn injects(&self, kind: FaultKind, site: &str) -> bool {
        self.injects_at(kind, site, 0)
    }

    /// Does a fault of `kind` fire at `site` on its `occurrence`-th
    /// visit? Pure: the answer never changes for the same arguments.
    pub fn injects_at(&self, kind: FaultKind, site: &str, occurrence: u64) -> bool {
        let rate = self.rates[kind.index()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        self.roll(kind, site, occurrence) < rate
    }

    /// The uniform `[0, 1)` draw behind [`FaultPlan::injects_at`],
    /// exposed for callers that need a deterministic choice among
    /// several outcomes (e.g. *which* node fails).
    pub fn roll(&self, kind: FaultKind, site: &str, occurrence: u64) -> f64 {
        let mut h = fnv1a_init(self.seed);
        h = fnv1a_bytes(h, kind.name().as_bytes());
        h = fnv1a_bytes(h, site.as_bytes());
        h = fnv1a_bytes(h, &occurrence.to_le_bytes());
        // finalize with splitmix to decorrelate nearby preimages
        bits_to_unit_f64(splitmix64(h))
    }
}

fn fnv1a_init(seed: u64) -> u64 {
    fnv1a_bytes(0xcbf29ce484222325, &seed.to_le_bytes())
}

fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // separator so ("ab","c") and ("a","bc") hash differently
    h ^= 0xff;
    h.wrapping_mul(0x100000001b3)
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

pub(crate) fn bits_to_unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::new(7);
        for kind in FaultKind::ALL {
            for occ in 0..100 {
                assert!(!plan.injects_at(kind, "example.org/page", occ));
            }
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::uniform(7, 1.0);
        assert!(plan.injects(FaultKind::NodeLoss, "node-3"));
    }

    #[test]
    fn decisions_are_pure() {
        let plan = FaultPlan::uniform(42, 0.5);
        for occ in 0..32 {
            let first = plan.injects_at(FaultKind::FetchTransient, "h/p", occ);
            for _ in 0..8 {
                assert_eq!(first, plan.injects_at(FaultKind::FetchTransient, "h/p", occ));
            }
        }
    }

    #[test]
    fn seed_and_site_change_the_schedule() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let mut diverged = false;
        for occ in 0..64 {
            if a.injects_at(FaultKind::WorkerPanic, "op/0", occ)
                != b.injects_at(FaultKind::WorkerPanic, "op/0", occ)
            {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds should produce different schedules");
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let plan = FaultPlan::uniform(123, 0.2);
        let n = 10_000;
        let fired = (0..n)
            .filter(|&i| plan.injects_at(FaultKind::FetchTransient, "site", i))
            .count();
        let observed = fired as f64 / n as f64;
        assert!(
            (observed - 0.2).abs() < 0.02,
            "observed rate {observed} too far from 0.2"
        );
    }
}
