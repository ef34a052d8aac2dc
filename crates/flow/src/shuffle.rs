//! The physical side of a stage, in one file: the per-chunk
//! [`StageKernel`] with its streamed Reduce [`Fold`], [`run_chunks`]
//! (the thread loop that runs the kernel over a stage's chunks), and
//! [`group_by_key`], the uncombined Reduce shuffle. This module writes no
//! file and reads no knob of the simulated cluster model.
//!
//! # Physical only
//!
//! Fusion, combining and the worker count are invisible on every
//! deterministic surface (sink bytes, metrics, simulated seconds,
//! digests, tracer JSONL, registry snapshots, checkpoint frames, store
//! snapshots), because the physical dataflow and the simulated accounting
//! are decoupled:
//!
//! - chunk boundaries are computed by the executor before the chunks
//!   run, and results merge in chunk order;
//! - every chunk runs the same [`StageKernel`], which tallies raw
//!   per-record f64 costs, partial aggregate states and tapped streams;
//! - the executor's analytic replay charges the simulated cost model from
//!   the merged observations, whichever thread produced them.
//!
//! # Shuffle bytes
//!
//! `PhysicalStats::shuffle_bytes` counts what a Reduce boundary would
//! ship: every input record of an uncombined Reduce, or the sorted-key
//! partial maps of a combined one. Both sizes are the snapshot codec's
//! own encoding (the [`Writer`] is the one place that knows the format);
//! nothing is decoded back, since the values never leave this process.

use crate::executor::PhysicalStats;
use crate::operator::{AggState, Aggregate, KeyFn, OpFunc, Operator};
use crate::record::Record;
use std::cell::Cell;
// lint:allow(hash_iteration): the fold's and the grouping's key maps only, drained into sorted vecs
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
// lint:allow(wall_clock): see the StageKernel wall_ms notes — runtime-only diagnostics
use std::time::Instant;
use websift_resilience::{Snapshot, Writer};

/// Per-stage observations for one chunk. `wall_ms` is runtime-only
/// diagnostics, excluded from checkpoints and digests.
#[derive(Debug, Default, Clone)]
pub struct ChunkStats {
    /// Per-record simulated costs, in record order, as the cost model
    /// gives them: the executor applies the simulated model's scale.
    pub costs: Vec<f64>,
    pub records_in: u64,
    pub bytes_in: u64,
    pub wall_ms: f64,
}

/// Sorted `(key, partial state, cost runs)` triples plus the encoded
/// size of the chunk's partial map, for stages ending in a combined
/// Reduce. A key's cost runs are the simulated costs of its records in
/// arrival order, run-length coded: `(cost, n)` stands for `n` records in
/// a row whose cost has exactly those bits. The merge replays a run as
/// `n` additions, so the simulated clock sums what the records' own list
/// would have summed; a key whose records all cost the same — every
/// token of the token-frequency flow — is one run a chunk.
pub type ChunkPartials = (Vec<(String, AggState, Vec<(f64, u64)>)>, u64);

/// Everything one chunk's pass produces — the unit merged (in chunk
/// order) by the executor.
#[derive(Debug, Default)]
pub struct ChunkOut {
    pub stages: Vec<ChunkStats>,
    pub out: Vec<Record>,
    pub bytes_out: u64,
    pub partial: Option<ChunkPartials>,
    /// Clones of the record stream at each tapped interior boundary.
    pub taps: Vec<Vec<Record>>,
}

/// A genuine UDF panic while a stage ran: the in-stage index of the
/// constituent that panicked (`ops.len()` for the fold) and the chunk it
/// was running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPanic {
    pub stage: usize,
    pub chunk: usize,
}

/// Appends one record's cost to its key's cost runs: a cost with the bits
/// of the last run extends it.
fn push_cost(runs: &mut Vec<(f64, u64)>, cost: f64) {
    match runs.last_mut() {
        Some((last, n)) if last.to_bits() == cost.to_bits() => *n += 1,
        _ => runs.push((cost, 1)),
    }
}

/// The per-chunk pass every worker thread runs.
///
/// Each chain constituent but the last runs over the whole chunk in
/// turn, its output collected for the next. When the stage folds, the
/// last constituent's output is never collected: each input record's
/// outputs go straight into the fold (and, at a tapped boundary, on into
/// the tap) before the next input record is read.
pub struct StageKernel<'a> {
    /// Chain constituents, in order.
    pub ops: &'a [&'a Operator],
    /// Trailing Reduce folded as the chain produces its records, when the
    /// whole stage survived the schedule; a stage with no chain folds its
    /// input. Reports as stage `ops.len()`.
    pub fold: Option<&'a Operator>,
    /// Interior boundaries to tap, as in-chain stage indices.
    pub tapped: &'a [usize],
}

impl StageKernel<'_> {
    /// Runs one chunk through the whole stage. `stage_at` tracks the
    /// stage index currently executing so a panic can be attributed: a
    /// panic in the fold's key function or aggregate is the Reduce's.
    pub fn run_chunk(&self, records: Vec<Record>, stage_at: &Cell<usize>) -> ChunkOut {
        let n_ops = self.ops.len();
        let mut stages: Vec<ChunkStats> = (0..n_ops).map(|_| ChunkStats::default()).collect();
        let mut taps: Vec<Vec<Record>> = vec![Vec::new(); self.tapped.len()];
        let mut fold = self.fold.map(Fold::new);
        let mut cur = records;
        // lint:hot_loop(begin): fused-stage worker chunk loop
        if let (Some(fold), 0) = (&mut fold, n_ops) {
            stage_at.set(0);
            // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
            let t0 = Instant::now();
            for r in std::mem::take(&mut cur) {
                fold.push(&r);
            }
            fold.tally.wall_ms = ms_since(t0);
        }
        for (s, op) in self.ops.iter().enumerate() {
            stage_at.set(s);
            // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
            let t0 = Instant::now();
            let tap = self.tapped.iter().position(|&ts| ts == s);
            let tally = &mut stages[s];
            let input = std::mem::take(&mut cur);
            match fold.as_mut().filter(|_| s + 1 == n_ops) {
                // The fold takes each input record's outputs before the
                // next is read, on its own clock and under its own index.
                Some(fold) => {
                    run_constituent(op, tally, input, |outs| {
                        stage_at.set(n_ops);
                        // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
                        let t = Instant::now();
                        for r in outs {
                            fold.push(&r);
                            if let Some(t) = tap {
                                taps[t].push(r);
                            }
                        }
                        fold.tally.wall_ms += ms_since(t);
                        stage_at.set(s);
                    });
                    tally.wall_ms = ms_since(t0) - fold.tally.wall_ms;
                }
                None => {
                    let mut next = Vec::with_capacity(input.len());
                    run_constituent(op, tally, input, |outs| next.extend(outs));
                    cur = next;
                    if let Some(t) = tap {
                        taps[t] = cur.clone();
                    }
                    tally.wall_ms = ms_since(t0);
                }
            }
            tally.records_in = tally.costs.len() as u64;
        }
        let partial = fold.map(|fold| {
            stage_at.set(n_ops);
            let (tally, partial) = fold.finish();
            stages.push(tally);
            partial
        });
        // lint:hot_loop(end)
        let bytes_out = cur.iter().map(Record::approx_bytes).sum();
        ChunkOut { stages, out: cur, bytes_out, partial, taps }
    }
}

/// Milliseconds since `t0`, for the runtime-only `wall_ms` rows.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Runs chain constituent `op` over `input`: charges each input record to
/// `tally` and hands `emit` what that record became — nothing, itself,
/// its map, or a flat-map's batch — before the next one is read. One
/// dispatch per chunk per stage: the closure-variant match is hoisted out
/// of the record loop.
fn run_constituent(
    op: &Operator,
    tally: &mut ChunkStats,
    input: Vec<Record>,
    mut emit: impl FnMut(&mut dyn Iterator<Item = Record>),
) {
    let charge = |tally: &mut ChunkStats, r: &Record| {
        tally.bytes_in += r.approx_bytes();
        tally.costs.push(op.cost.record_cost_secs(r.text().map(str::len).unwrap_or(64)));
    };
    // lint:hot_loop(begin): chain constituent record loop
    match op.func() {
        OpFunc::Map(f) => {
            for r in input {
                charge(tally, &r);
                emit(&mut std::iter::once(f(r)));
            }
        }
        OpFunc::FlatMap(f) => {
            for r in input {
                charge(tally, &r);
                emit(&mut f(r).into_iter());
            }
        }
        OpFunc::Filter(f) => {
            for r in input {
                charge(tally, &r);
                if f(&r) {
                    emit(&mut std::iter::once(r));
                }
            }
        }
        OpFunc::Reduce { .. } => unreachable!("reduce is never part of a chain"),
    }
    // lint:hot_loop(end)
}

/// A stage's trailing Reduce folding one chunk: a partial state and cost
/// runs per key, fed one record at a time. Keys are written into one
/// reused buffer and the map is looked up by `&str`, so only a key the
/// chunk has not seen yet is allocated.
struct Fold<'a> {
    reduce: &'a Operator,
    key: &'a KeyFn,
    agg: &'a Aggregate,
    tally: ChunkStats,
    // lint:allow(hash_iteration): drained into a sorted vec by `finish`
    map: HashMap<String, (AggState, Vec<(f64, u64)>)>,
    k: String,
}

impl<'a> Fold<'a> {
    fn new(reduce: &'a Operator) -> Fold<'a> {
        let OpFunc::Reduce { key, aggregate } = reduce.func() else {
            unreachable!("the folded operator is a reduce")
        };
        Fold {
            reduce,
            key,
            agg: aggregate,
            tally: ChunkStats::default(),
            // lint:allow(hash_iteration): drained into a sorted vec by `finish`
            map: HashMap::new(),
            k: String::new(),
        }
    }

    fn push(&mut self, r: &Record) {
        // lint:hot_loop(begin): combined Reduce fold
        self.tally.records_in += 1;
        self.tally.bytes_in += r.approx_bytes();
        let cost = self.reduce.cost.record_cost_secs(r.text().map(str::len).unwrap_or(64));
        self.k.clear();
        (self.key)(r, &mut self.k);
        match self.map.get_mut(self.k.as_str()) {
            Some((state, runs)) => {
                self.agg.fold(state, r);
                push_cost(runs, cost);
            }
            None => {
                let mut state = self.agg.seed();
                self.agg.fold(&mut state, r);
                self.map.insert(self.k.clone(), (state, vec![(cost, 1)]));
            }
        }
        // lint:hot_loop(end)
    }

    /// The fold's tally and the chunk's partials. The combiner's
    /// shuffle: only the sorted-key partial map would cross the Reduce
    /// boundary, so its encoded size is what the chunk ships.
    fn finish(self) -> (ChunkStats, ChunkPartials) {
        // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
        let t0 = Instant::now();
        let mut tally = self.tally;
        let mut sorted: Vec<_> = self.map.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut w = Writer::new();
        w.usize(sorted.len());
        for (k, (st, _)) in &sorted {
            w.str(k);
            st.encode(&mut w);
        }
        let shipped = w.len() as u64;
        let entries = sorted.into_iter().map(|(k, (st, runs))| (k, st, runs)).collect();
        tally.wall_ms += ms_since(t0);
        (tally, (entries, shipped))
    }
}

/// Runs every chunk through `stage` on up to `workers` threads of this
/// process — the caller and scoped helpers, never more than there are
/// chunks; results come back in chunk order. The worker count is physical only: it must never leak
/// into a deterministic number (see
/// `worker_count_never_affects_deterministic_outputs`).
///
/// A genuine UDF panic is a deterministic programming bug — every retry
/// would fail identically — so it is reported as the [`ChunkPanic`] of
/// the first chunk seen to panic and nothing from the stage is returned.
/// Injected panics are accounted analytically in the replay and never
/// fire here.
pub fn run_chunks(
    workers: usize,
    stage: &StageKernel<'_>,
    chunks: Vec<Vec<Record>>,
) -> Result<Vec<ChunkOut>, ChunkPanic> {
    let slots: Vec<parking_lot::Mutex<Option<Vec<Record>>>> =
        chunks.into_iter().map(|c| parking_lot::Mutex::new(Some(c))).collect();
    let results: Vec<parking_lot::Mutex<Option<ChunkOut>>> =
        slots.iter().map(|_| parking_lot::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let fatal: parking_lot::Mutex<Option<ChunkPanic>> = parking_lot::Mutex::new(None);
    let work = || {
        // lint:hot_loop(begin): stage thread loop, one chunk per turn
        while fatal.lock().is_none() {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let records = slot.lock().take().expect("each chunk is taken once");
            let stage_at = Cell::new(0usize);
            match catch_unwind(AssertUnwindSafe(|| stage.run_chunk(records, &stage_at))) {
                Ok(out) => *results[i].lock() = Some(out),
                Err(_) => *fatal.lock() = Some(ChunkPanic { stage: stage_at.get(), chunk: i }),
            }
        }
        // lint:hot_loop(end)
    };
    // The calling thread is one of the workers, so a one-worker stage
    // spawns nothing and the records it builds are freed by the thread
    // that built them: a whole stream built on a helper and freed by the
    // caller leaves the allocator's cleanup of those frees to whichever
    // later run picks up that helper's arena.
    std::thread::scope(|scope| {
        for _ in 1..workers.max(1).min(slots.len()) {
            scope.spawn(work);
        }
        work();
    });
    if let Some(panic) = fatal.into_inner() {
        return Err(panic);
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every chunk completed"))
        .collect())
}

/// The uncombined Reduce shuffle: groups `records` by `reduce`'s key, in
/// the parent — the executor holds the whole stream before the shuffle
/// and every group after it. Groups come back key-sorted, records in
/// arrival order within each key. Every record's encoded size is added
/// to `physical.shuffle_bytes`: the full stream is what an uncombined
/// Reduce ships.
pub fn group_by_key(
    reduce: &Operator,
    records: Vec<Record>,
    physical: &mut PhysicalStats,
) -> Vec<(String, Vec<Record>)> {
    let OpFunc::Reduce { key, .. } = reduce.func() else {
        unreachable!("only reduce operators are grouped")
    };
    // lint:allow(hash_iteration): drained into a sorted vec below
    let mut groups: HashMap<String, Vec<Record>> = HashMap::new();
    let mut wire = Vec::new();
    let mut k = String::new();
    for r in records {
        let mut w = Writer::from_vec(wire);
        r.encode(&mut w);
        physical.shuffle_bytes += w.len() as u64;
        wire = w.into_bytes();
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
/// sizes [`run_chunks`]'s thread pool.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // lint:allow(nondet_parallelism): physical worker count only — never feeds simulated numbers
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(8)
    })
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
                r.set("id", i as i64).set("text", format!("document {i} with a little body text"));
                r
            })
            .collect()
    }

    /// Everything deterministic about one chunk's result (`wall_ms` is
    /// runtime-only): costs by their bits, records, taps and partial
    /// states by equality.
    fn assert_same_chunk(a: &ChunkOut, b: &ChunkOut, ctx: &str) {
        let bits = |s: &ChunkStats| s.costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let tally = |s: &ChunkStats| (bits(s), s.records_in, s.bytes_in);
        let tallies = |o: &ChunkOut| o.stages.iter().map(tally).collect::<Vec<_>>();
        assert_eq!(tallies(a), tallies(b), "{ctx}: stage tallies");
        assert_eq!(a.out, b.out, "{ctx}: records");
        assert_eq!(a.bytes_out, b.bytes_out, "{ctx}: bytes out");
        assert_eq!(a.taps, b.taps, "{ctx}: taps");
        let partial = |o: &ChunkOut| {
            o.partial.as_ref().map(|(entries, shipped)| {
                let entries: Vec<_> = entries
                    .iter()
                    .map(|(k, st, runs)| {
                        let runs: Vec<_> = runs.iter().map(|&(c, n)| (c.to_bits(), n)).collect();
                        (k.clone(), st.clone(), runs)
                    })
                    .collect();
                (entries, *shipped)
            })
        };
        assert_eq!(partial(a), partial(b), "{ctx}: partial states, cost runs and shipped bytes");
    }

    #[test]
    fn worker_count_never_affects_deterministic_outputs() {
        // map -> flatmap -> filter -> Count fold, with an interior tap
        let ops = [testkit::stamp(), testkit::dup(), testkit::parity()];
        let tally = testkit::tally();
        let refs: Vec<&Operator> = ops.iter().collect();
        let stage = StageKernel { ops: &refs, fold: Some(&tally), tapped: &[1] };
        let chunks = || docs(41).chunks(6).map(<[Record]>::to_vec).collect::<Vec<_>>();

        let serial = run_chunks(1, &stage, chunks()).unwrap();
        let wide = run_chunks(32, &stage, chunks()).unwrap();
        assert_eq!(serial.len(), 7);
        assert!(serial.iter().all(|o| o.partial.is_some() && o.taps[0].len() > 1));
        for (i, (a, b)) in serial.iter().zip(&wide).enumerate() {
            assert_same_chunk(a, b, &format!("chunk {i}"));
        }
    }

    #[test]
    fn groups_come_back_key_sorted_in_arrival_order() {
        let mut physical = PhysicalStats::default();
        let input = docs(41);
        let mut stream = Writer::new();
        for r in &input {
            r.encode(&mut stream);
        }
        let groups = group_by_key(&testkit::tally(), input, &mut physical);
        assert_eq!(groups.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["g0", "g1", "g2"]);
        for (k, rs) in &groups {
            let ids: Vec<i64> = rs.iter().filter_map(|r| r.get("id")?.as_int()).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "group {k} lost arrival order");
        }
        assert_eq!(physical.shuffle_bytes, stream.len() as u64, "the whole stream's encoding");
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
        let err = run_chunks(2, &stage, chunks).unwrap_err();
        assert_eq!(err, ChunkPanic { stage: 1, chunk: 2 });
    }

    /// A record's cost extends its key's last run only when the bits are
    /// the same: `-0.0` is not `0.0`, and a NaN is a run of its own bits.
    #[test]
    fn costs_extend_the_last_run_only_with_the_same_bits() {
        let mut runs = Vec::new();
        for cost in [0.5, 0.5, 0.0, -0.0, -0.0, 0.5, f64::NAN, f64::NAN] {
            push_cost(&mut runs, cost);
        }
        let bits: Vec<(u64, u64)> = runs.iter().map(|&(c, n)| (c.to_bits(), n)).collect();
        let want = [(0.5, 2), (0.0, 1), (-0.0, 2), (0.5, 1), (f64::NAN, 2)];
        assert_eq!(bits, want.map(|(c, n): (f64, u64)| (c.to_bits(), n)));
    }

    /// The stage folds what its last constituent produces as it produces
    /// it: the fold sees the same records, costs and keys a fold over the
    /// collected stream would, and the tap at that boundary gets every
    /// record after it is folded.
    #[test]
    fn the_streamed_fold_equals_a_fold_over_the_collected_stream() {
        let (stamp, dup, tally) = (testkit::stamp(), testkit::dup(), testkit::tally());
        let collected = StageKernel { ops: &[&stamp, &dup], fold: None, tapped: &[] };
        let stream = collected.run_chunk(docs(9), &Cell::new(0)).out;
        let streamed = StageKernel { ops: &[&stamp, &dup], fold: Some(&tally), tapped: &[1] };
        let out = streamed.run_chunk(docs(9), &Cell::new(0));
        let alone = StageKernel { ops: &[], fold: Some(&tally), tapped: &[] };
        let folded = alone.run_chunk(stream.clone(), &Cell::new(0));

        assert!(out.out.is_empty() && out.bytes_out == 0);
        assert_eq!(out.taps, std::slice::from_ref(&stream));
        assert_eq!(out.stages[1].records_in, 9, "the flat-map read every record");
        assert_eq!(out.stages[2].records_in, stream.len() as u64);
        assert_eq!(out.stages[2].bytes_in, folded.stages[0].bytes_in);
        assert_eq!(out.partial, folded.partial, "same states, runs and shuffle bytes");
        let (entries, _) = out.partial.as_ref().unwrap();
        assert_eq!(entries.iter().map(|e| e.0.as_str()).collect::<Vec<_>>(), ["g0", "g1", "g2"]);
        assert!(entries.iter().all(|e| e.2.len() == 1), "the tally's records all cost the same");
    }

    /// A panic in the fold's key function is the Reduce's, though the
    /// fold runs inside its input constituent's record loop.
    #[test]
    fn a_panicking_key_is_attributed_to_the_reduce() {
        let stamp = testkit::stamp();
        let bad_key = Operator::reduce_agg(
            "bad-key",
            Package::Base,
            |r, _| {
                if r.get("id").and_then(Value::as_int) == Some(3) {
                    std::panic::resume_unwind(Box::new("key bug"));
                }
            },
            Aggregate::Count { into: "n".into() },
        );
        let kernel = StageKernel { ops: &[&stamp], fold: Some(&bad_key), tapped: &[] };
        let stage_at = Cell::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel.run_chunk(docs(5), &stage_at)));
        assert!(outcome.is_err());
        assert_eq!(stage_at.get(), 1, "the reduce reports as stage ops.len()");
    }
}
