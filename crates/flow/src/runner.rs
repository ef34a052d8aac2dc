//! The seam between the executor's stage scheduling and the physical
//! placement of chunk work.
//!
//! The executor cuts a stage's input into chunks; a [`StageRunner`] runs
//! the stage over them and hands back per-chunk observations in chunk
//! order; the executor's replay then charges the simulated cost model.
//! There are two runners — [`LocalRunner`] (a thread scope in this
//! process) and [`ShardPool`](crate::shuffle::ShardPool) (worker shards
//! over the frame protocol) — and both run the same [`StageKernel`], so
//! the choice is invisible to every deterministic surface. An uncombined
//! Reduce needs no runner: [`group_by_key`] groups it in the parent.

use crate::executor::PhysicalStats;
use crate::operator::{OpFunc, Operator};
use crate::record::Record;
use crate::shuffle::{ChunkOut, ShardRunError, StageKernel};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use websift_resilience::{Reader, Snapshot, Writer};

/// Executes the physical side of one fused stage.
pub trait StageRunner {
    /// Runs every chunk through `stage`; results come back in chunk
    /// order. A genuine UDF panic is [`ShardRunError::Panicked`].
    fn run_chunks(
        &mut self,
        stage: &StageKernel<'_>,
        chunks: Vec<Vec<Record>>,
    ) -> Result<Vec<ChunkOut>, ShardRunError>;
}

/// The uncombined Reduce shuffle: groups `records` by `reduce`'s key, in
/// the parent — the executor holds the whole stream before the shuffle
/// and every group after it, so no placement could keep it off this
/// process's heap. Groups come back key-sorted, records in arrival order
/// within each key.
///
/// Every record physically crosses the boundary through the snapshot
/// codec (encode at the mapper side, decode at the reducer side) — the
/// cost a real cluster pays to ship the full stream, added to
/// `physical.shuffle_bytes`. decode∘encode is the identity on records, so
/// deterministic surfaces are untouched; only wall clock and
/// `shuffle_bytes` see it.
pub fn group_by_key(
    reduce: &Operator,
    records: Vec<Record>,
    physical: &mut PhysicalStats,
) -> Vec<(String, Vec<Record>)> {
    let OpFunc::Reduce { key, .. } = reduce.func() else {
        unreachable!("only reduce operators are grouped")
    };
    let mut shuf = Writer::new();
    let n = records.len();
    for r in records {
        r.encode(&mut shuf);
    }
    let wire = shuf.into_bytes();
    physical.shuffle_bytes += wire.len() as u64;
    let mut rd = Reader::new(&wire);
    let mut groups: HashMap<String, Vec<Record>> = HashMap::new();
    let mut k = String::new();
    for _ in 0..n {
        let r = Record::decode(&mut rd).expect("shuffled records round-trip");
        k.clear();
        key(&r, &mut k);
        match groups.get_mut(k.as_str()) {
            Some(group) => group.push(r),
            None => {
                groups.insert(k.clone(), vec![r]);
            }
        }
    }
    // sorted, so hash iteration order never leaves this function
    let mut grouped: Vec<(String, Vec<Record>)> = groups.into_iter().collect();
    grouped.sort_by(|a, b| a.0.cmp(&b.0));
    grouped
}

/// The machine's available parallelism. This is deliberately the only
/// place real hardware parallelism enters the executor, and it only ever
/// sizes [`LocalRunner`]'s thread pool.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // lint:allow(nondet_parallelism): physical worker count only — never feeds simulated numbers
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(8)
    })
}

/// Runs chunks on up to `workers` scoped threads of this process (never
/// more threads than chunks). The worker count is physical only: it must
/// never leak into a deterministic number (see
/// `worker_count_never_affects_deterministic_outputs`).
pub struct LocalRunner {
    workers: usize,
}

impl LocalRunner {
    pub fn new(workers: usize) -> LocalRunner {
        LocalRunner { workers: workers.max(1) }
    }
}

impl StageRunner for LocalRunner {
    fn run_chunks(
        &mut self,
        stage: &StageKernel<'_>,
        chunks: Vec<Vec<Record>>,
    ) -> Result<Vec<ChunkOut>, ShardRunError> {
        let slots: Vec<parking_lot::Mutex<Option<Vec<Record>>>> =
            chunks.into_iter().map(|c| parking_lot::Mutex::new(Some(c))).collect();
        let results: Vec<parking_lot::Mutex<Option<ChunkOut>>> =
            slots.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // (stage, chunk) of a genuine UDF panic — injected panics are
        // accounted analytically in the replay and never fire here
        let fatal: parking_lot::Mutex<Option<(usize, usize)>> = parking_lot::Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(slots.len()) {
                scope.spawn(|| {
                    while fatal.lock().is_none() {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let records = slot.lock().take().expect("each chunk is taken once");
                        let stage_at = Cell::new(0usize);
                        match catch_unwind(AssertUnwindSafe(|| stage.run_chunk(records, &stage_at)))
                        {
                            Ok(out) => *results[i].lock() = Some(out),
                            Err(_) => *fatal.lock() = Some((stage_at.get(), i)),
                        }
                    }
                });
            }
        });
        // A genuine (non-injected) UDF panic is a deterministic
        // programming bug: every retry would fail identically, so it is
        // reported directly and nothing from this stage is committed.
        if let Some((stage, chunk)) = fatal.into_inner() {
            return Err(ShardRunError::Panicked { stage, chunk });
        }
        Ok(results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every chunk completed"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Package;
    use crate::packages::testkit;
    use crate::record::Value;

    fn docs(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::new();
                r.set("id", i).set("text", format!("document number {i} with some text"));
                r
            })
            .collect()
    }

    /// The wire form of chunk results: everything deterministic about
    /// them (`wall_ms` never crosses the codec).
    fn encoded(outs: &[ChunkOut]) -> Vec<Vec<u8>> {
        outs.iter()
            .map(|o| {
                let mut w = Writer::new();
                o.encode(&mut w);
                w.into_bytes()
            })
            .collect()
    }

    #[test]
    fn worker_count_never_affects_deterministic_outputs() {
        // map -> flatmap -> filter -> Count fold, with an interior tap
        let ops = [testkit::stamp(), testkit::dup(), testkit::parity()];
        let tally = testkit::tally();
        let refs: Vec<&Operator> = ops.iter().collect();
        let stage = StageKernel { ops: &refs, fold: Some(&tally), tapped: &[1] };
        let chunks = || docs(41).chunks(6).map(<[Record]>::to_vec).collect::<Vec<_>>();

        let serial = LocalRunner::new(1).run_chunks(&stage, chunks()).unwrap();
        let wide = LocalRunner::new(32).run_chunks(&stage, chunks()).unwrap();
        assert_eq!(serial.len(), 7);
        assert_eq!(encoded(&serial), encoded(&wide), "chunk results must not see worker count");

    }

    #[test]
    fn groups_come_back_key_sorted_in_arrival_order() {
        let mut physical = PhysicalStats::default();
        let groups = group_by_key(&testkit::tally(), docs(41), &mut physical);
        assert_eq!(groups.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["g0", "g1", "g2"]);
        for (k, rs) in &groups {
            let ids: Vec<i64> = rs.iter().filter_map(|r| r.get("id")?.as_int()).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "group {k} lost arrival order");
        }
        assert!(physical.shuffle_bytes > 0, "the stream crossed the codec");
    }

    #[test]
    fn a_udf_panic_reports_its_stage_and_chunk() {
        let ops = [
            Operator::map("fine", Package::Base, |r| r),
            Operator::map("boom", Package::Base, |r| {
                if r.get("id").and_then(Value::as_int) == Some(9) {
                    // unwinds like a panic, without the hook's stderr noise
                    std::panic::resume_unwind(Box::new("udf bug"));
                }
                r
            }),
        ];
        let refs: Vec<&Operator> = ops.iter().collect();
        let stage = StageKernel { ops: &refs, fold: None, tapped: &[] };
        let chunks = docs(12).chunks(4).map(<[Record]>::to_vec).collect();
        let err = LocalRunner::new(2).run_chunks(&stage, chunks).unwrap_err();
        assert_eq!(err, ShardRunError::Panicked { stage: 1, chunk: 2 });
    }
}
