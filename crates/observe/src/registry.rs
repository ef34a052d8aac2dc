//! The metrics registry: counters, gauges, and log-scaled histograms
//! keyed by metric name plus a label set.
//!
//! The registry itself is a mutex-guarded map, but handles returned by
//! [`MetricsRegistry::counter`] / [`gauge`](MetricsRegistry::gauge) /
//! [`histogram`](MetricsRegistry::histogram) are `Arc`-backed atomics:
//! callers look a metric up once and then record through the handle
//! without touching the registry lock again — the "lock-cheap" property
//! the crawler round loop and the executor's per-node path rely on.
//!
//! Snapshots ([`RegistrySnapshot`]) are sorted by `(name, labels)` so
//! equal registry states always encode to equal bytes, which lets
//! checkpoint frames carry registry state under the same bit-identical
//! resume contract as the rest of the pipeline state.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use websift_resilience::codec::presize;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

/// Number of buckets in a log-scaled histogram: bucket 0 collects
/// non-positive values, buckets 1..=63 cover powers of two from 2^-31 up
/// to 2^31 (values beyond either end clamp into the edge buckets).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A sorted label set. Sorting at construction makes label order
/// irrelevant to identity, snapshots, and rendered output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    pub fn new(pairs: &[(&str, &str)]) -> Labels {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        Labels(v)
    }

    pub fn empty() -> Labels {
        Labels(Vec::new())
    }

    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value of one label key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `k1=v1,k2=v2` rendering for tables and folded stacks.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Snapshot for Labels {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Labels, CodecError> {
        Ok(Labels(Snapshot::decode(r)?))
    }
}

/// Monotonically increasing integer metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`, returning the new total. Wraps at `u64::MAX`, as the
    /// stored value does: a counter restored from a frame may sit anywhere.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed).wrapping_add(n)
    }

    /// Adds one, returning the new total.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Last-write-wins floating-point metric (frontier size, harvest rate,
/// simulated clock readings).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Bucket index of a value: 0 for non-positive, otherwise the (clamped)
/// binary exponent shifted into 1..=63. Pure bit arithmetic — no float
/// logarithms — so identical on every platform.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    if v.is_infinite() {
        return HISTOGRAM_BUCKETS - 1;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i64;
    // subnormals (biased == 0) have true exponent <= -1023; they clamp
    // into the lowest positive bucket anyway
    let e = if biased == 0 { -1023 } else { biased - 1023 };
    (e.clamp(-31, 31) + 32) as usize
}

/// Lower edge of bucket `i` (for report rendering).
pub fn bucket_floor(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    (2.0f64).powi(i as i32 - 32)
}

/// The mergeable, snapshot-able state of a log-scaled histogram. Merge
/// is associative and count-preserving: bucket counts and totals add,
/// min/max combine — there is deliberately no floating-point sum, whose
/// addition order would break associativity.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramState {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub min: f64,
    pub max: f64,
}

impl Default for HistogramState {
    fn default() -> HistogramState {
        HistogramState {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistogramState {
    pub fn record(&mut self, v: f64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` (associative, count-preserving).
    pub fn merge(&mut self, other: &HistogramState) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bucket edge under which at least `q` (0..=1) of the
    /// observations fall — a coarse log-scale quantile for reports.
    pub fn quantile_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target.max(1) {
                return bucket_floor(i + 1).min(self.max);
            }
        }
        self.max
    }
}

impl Snapshot for HistogramState {
    fn encode(&self, w: &mut Writer) {
        self.buckets.encode(w);
        w.u64(self.count);
        w.f64(self.min);
        w.f64(self.max);
    }

    fn decode(r: &mut Reader<'_>) -> Result<HistogramState, CodecError> {
        Ok(HistogramState {
            buckets: Snapshot::decode(r)?,
            count: r.u64()?,
            min: r.f64()?,
            max: r.f64()?,
        })
    }
}

/// Concurrent histogram handle. Bucket counts and count are atomics;
/// min/max update through compare-and-swap loops (min/max are
/// commutative and associative, so thread interleaving cannot change
/// the final state).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }
}

impl Histogram {
    pub fn record(&self, v: f64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        update_extreme(&self.0.min_bits, v, |new, cur| new < cur);
        update_extreme(&self.0.max_bits, v, |new, cur| new > cur);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn state(&self) -> HistogramState {
        HistogramState {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            min: f64::from_bits(self.0.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.0.max_bits.load(Ordering::Relaxed)),
        }
    }

    fn load(&self, state: &HistogramState) {
        for (slot, &v) in self.0.buckets.iter().zip(&state.buckets) {
            slot.store(v, Ordering::Relaxed);
        }
        self.0.count.store(state.count, Ordering::Relaxed);
        self.0.min_bits.store(state.min.to_bits(), Ordering::Relaxed);
        self.0.max_bits.store(state.max.to_bits(), Ordering::Relaxed);
    }
}

fn update_extreme(slot: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = slot.load(Ordering::Relaxed);
    while better(v, f64::from_bits(cur)) {
        match slot.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// One metric's value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramState),
}

impl Snapshot for MetricValue {
    fn encode(&self, w: &mut Writer) {
        match self {
            MetricValue::Counter(v) => {
                w.u8(0);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(1);
                w.f64(*v);
            }
            MetricValue::Histogram(h) => {
                w.u8(2);
                h.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<MetricValue, CodecError> {
        match r.u8()? {
            0 => Ok(MetricValue::Counter(r.u64()?)),
            1 => Ok(MetricValue::Gauge(r.f64()?)),
            2 => Ok(MetricValue::Histogram(Snapshot::decode(r)?)),
            tag => Err(CodecError::BadTag { what: "MetricValue", tag }),
        }
    }
}

/// A byte-deterministic snapshot of every registered metric, sorted by
/// `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    pub entries: Vec<(String, Labels, MetricValue)>,
}

impl RegistrySnapshot {
    /// Looks one metric up by name and labels.
    pub fn get(&self, name: &str, labels: &Labels) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, l, _)| n == name && l == labels)
            .map(|(_, _, v)| v)
    }

    /// All entries whose metric name equals `name`.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a (String, Labels, MetricValue)> {
        self.entries.iter().filter(move |(n, _, _)| n == name)
    }

    /// Merges `other` into `self`, keyed by `(name, labels)`: counters
    /// add, histograms merge bucket-wise ([`HistogramState::merge`]), and
    /// gauges take `other`'s value (last write wins — per-shard gauges
    /// report the same point-in-time fact, not a partition of it). Entries
    /// only in `other` are inserted. The result stays sorted by
    /// `(name, labels)`, so merging per-shard snapshots in shard order is
    /// deterministic and byte-stable.
    ///
    /// Kind mismatches (one side's counter is the other's gauge) keep
    /// `self`'s value: a merge must never invent a third kind.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, labels, value) in &other.entries {
            let at = self
                .entries
                .binary_search_by(|(n, l, _)| n.cmp(name).then_with(|| l.cmp(labels)));
            match at {
                Err(insert_at) => {
                    self.entries.insert(insert_at, (name.clone(), labels.clone(), value.clone()));
                }
                Ok(i) => match (&mut self.entries[i].2, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    _ => {}
                },
            }
        }
    }
}

impl Snapshot for RegistrySnapshot {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.entries.len());
        for (name, labels, value) in &self.entries {
            w.str(name);
            labels.encode(w);
            value.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<RegistrySnapshot, CodecError> {
        let len = r.usize()?;
        let mut entries = Vec::with_capacity(presize::<(String, Labels, MetricValue)>(len, r));
        for _ in 0..len {
            let name = r.str()?;
            let labels = Labels::decode(r)?;
            let value = MetricValue::decode(r)?;
            entries.push((name, labels, value));
        }
        Ok(RegistrySnapshot { entries })
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry proper: name + labels → metric handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // lint:allow(hash_iteration): snapshot() sorts by (name, labels) before export
    inner: Mutex<HashMap<(String, Labels), Metric>>,
}

impl MetricsRegistry {
    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    /// If the key is already registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &Labels) -> Counter {
        let mut inner = self.inner.lock();
        let metric = inner
            .entry((name.to_string(), labels.clone()))
            .or_insert_with(|| Metric::Counter(Counter::default()));
        match metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Gauge {
        let mut inner = self.inner.lock();
        let metric = inner
            .entry((name.to_string(), labels.clone()))
            .or_insert_with(|| Metric::Gauge(Gauge::default()));
        match metric {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Gets or creates the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Histogram {
        let mut inner = self.inner.lock();
        let metric = inner
            .entry((name.to_string(), labels.clone()))
            .or_insert_with(|| Metric::Histogram(Histogram::default()));
        match metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Snapshots every metric, sorted by `(name, labels)` so equal
    /// states produce equal bytes.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        let mut entries: Vec<(String, Labels, MetricValue)> = inner
            .iter()
            .map(|((name, labels), metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.state()),
                };
                (name.clone(), labels.clone(), value)
            })
            .collect();
        entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        RegistrySnapshot { entries }
    }

    /// Restores every metric in `snapshot`, creating missing ones —
    /// the resume half of checkpointed registry state.
    pub fn restore(&self, snapshot: &RegistrySnapshot) {
        for (name, labels, value) in &snapshot.entries {
            match value {
                MetricValue::Counter(v) => self.counter(name, labels).set(*v),
                MetricValue::Gauge(v) => self.gauge(name, labels).set(*v),
                MetricValue::Histogram(state) => self.histogram(name, labels).load(state),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_resilience::checkpoint::{decode_from_slice, encode_to_vec};

    #[test]
    fn counter_and_gauge_roundtrip_through_handles() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("pages", &Labels::new(&[("kind", "relevant")]));
        c.add(5);
        c.inc();
        assert_eq!(c.value(), 6);
        // second lookup sees the same storage
        assert_eq!(reg.counter("pages", &Labels::new(&[("kind", "relevant")])).value(), 6);

        let g = reg.gauge("frontier", &Labels::empty());
        g.set(12.5);
        assert_eq!(reg.gauge("frontier", &Labels::empty()).value(), 12.5);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let a = Labels::new(&[("b", "2"), ("a", "1")]);
        let b = Labels::new(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "a=1,b=2");
        assert_eq!(a.get("b"), Some("2"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::default();
        reg.counter("x", &Labels::empty());
        reg.gauge("x", &Labels::empty());
    }

    #[test]
    fn histogram_buckets_are_log_scaled() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(1.0), 32);
        assert_eq!(bucket_of(1.5), 32);
        assert_eq!(bucket_of(2.0), 33);
        assert_eq!(bucket_of(0.5), 31);
        assert_eq!(bucket_of(1e-300), 1); // clamps low
        assert_eq!(bucket_of(1e300), HISTOGRAM_BUCKETS - 1); // clamps high
        assert!(bucket_floor(32) == 1.0 && bucket_floor(33) == 2.0);
    }

    #[test]
    fn histogram_state_counts_and_extremes() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("latency", &Labels::empty());
        for v in [0.25, 1.0, 1.9, 700.0] {
            h.record(v);
        }
        let s = h.state();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 700.0);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        assert_eq!(s.buckets[32], 2); // 1.0 and 1.9 share [1, 2)
        assert!(s.quantile_bound(0.5) <= 2.0);
    }

    #[test]
    fn snapshot_is_sorted_and_restores() {
        let reg = MetricsRegistry::default();
        reg.counter("z", &Labels::empty()).add(9);
        reg.counter("a", &Labels::new(&[("k", "2")])).add(1);
        reg.counter("a", &Labels::new(&[("k", "1")])).add(2);
        reg.gauge("g", &Labels::empty()).set(3.5);
        reg.histogram("h", &Labels::empty()).record(2.0);

        let snap = reg.snapshot();
        let names: Vec<String> = snap
            .entries
            .iter()
            .map(|(n, l, _)| format!("{n}{{{}}}", l.render()))
            .collect();
        assert_eq!(names, vec!["a{k=1}", "a{k=2}", "g{}", "h{}", "z{}"]);

        let restored = MetricsRegistry::default();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn snapshot_codec_roundtrips() {
        let reg = MetricsRegistry::default();
        reg.counter("c", &Labels::new(&[("x", "y")])).add(7);
        reg.gauge("g", &Labels::empty()).set(-2.25);
        reg.histogram("h", &Labels::empty()).record(5.0);
        let snap = reg.snapshot();
        let bytes = encode_to_vec(&snap);
        let back: RegistrySnapshot = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn forged_entry_count_is_truncated() {
        let reg = MetricsRegistry::default();
        reg.counter("c", &Labels::empty()).add(7);
        let mut bytes = encode_to_vec(&reg.snapshot());
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_from_slice::<RegistrySnapshot>(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HistogramState::default();
        let mut b = HistogramState::default();
        a.record(1.0);
        a.record(4.0);
        b.record(0.5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.min, 0.5);
        assert_eq!(merged.max, 4.0);
    }

    #[test]
    fn snapshot_merge_combines_per_shard_registries() {
        let shard0 = MetricsRegistry::default();
        shard0.counter("records", &Labels::empty()).add(10);
        shard0.gauge("watermark", &Labels::empty()).set(3.0);
        shard0.histogram("latency", &Labels::empty()).record(1.0);
        shard0.counter("only0", &Labels::empty()).add(1);

        let shard1 = MetricsRegistry::default();
        shard1.counter("records", &Labels::empty()).add(5);
        shard1.gauge("watermark", &Labels::empty()).set(4.0);
        shard1.histogram("latency", &Labels::empty()).record(9.0);
        shard1.counter("only1", &Labels::empty()).add(2);

        let mut merged = shard0.snapshot();
        merged.merge(&shard1.snapshot());

        assert_eq!(
            merged.get("records", &Labels::empty()),
            Some(&MetricValue::Counter(15)),
            "counters add"
        );
        assert_eq!(
            merged.get("watermark", &Labels::empty()),
            Some(&MetricValue::Gauge(4.0)),
            "gauges take the merged-in value"
        );
        match merged.get("latency", &Labels::empty()) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!((h.count, h.min, h.max), (2, 1.0, 9.0), "histograms merge")
            }
            other => panic!("latency is a histogram, got {other:?}"),
        }
        assert_eq!(merged.get("only0", &Labels::empty()), Some(&MetricValue::Counter(1)));
        assert_eq!(merged.get("only1", &Labels::empty()), Some(&MetricValue::Counter(2)));

        // merging keeps the (name, labels) sort, so the merged snapshot's
        // bytes are identical to a registry that saw both shards' updates
        let both = MetricsRegistry::default();
        both.restore(&merged);
        assert_eq!(both.snapshot(), merged);
    }
}
