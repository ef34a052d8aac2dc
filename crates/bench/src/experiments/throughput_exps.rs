//! Wall-clock throughput harness for the fused executor (the perf side
//! of the fusion PR — everything else about fusion is byte-identity).
//!
//! Drives the Fig-4/5 linguistic pipeline over a generated relevant-web
//! corpus and measures **real** records/second at DoP {1, 4, 8, 16} for
//! three engines:
//!
//! - `fused` — the current executor, operator fusion on (default);
//! - `unfused` — the same executor with `fusion: false`: one physical
//!   pass per plan node, but still ownership-passing;
//! - `baseline` — an emulation of the pre-fusion system's per-record
//!   costs: every operator deep-clones its input records (the old
//!   clone-out-of-the-buffer dataflow, re-allocating string contents the
//!   way `String` fields did), walks `approx_bytes` over both input
//!   and output (the old two-traversal byte accounting), and re-makes
//!   the per-record full-text copy the seed UDFs opened with.
//!
//! Simulated seconds are pure accounting and identical across all three
//! by construction; this module is about the wall clock, which is why it
//! is on the lint's wall-clock allowlist.

use std::collections::HashMap;
use std::time::Instant;

use crate::report::ExperimentResult;
use websift_corpus::{CorpusKind, Generator};
use websift_flow::{
    ExecutionConfig, Executor, LogicalPlan, NodeOp, OpFunc, Operator, Record, Value,
};
use websift_observe::json::{array, ObjectWriter};
use websift_pipeline::documents_to_records;

/// The DoP sweep every mode is measured at.
pub const THROUGHPUT_DOPS: [usize; 4] = [1, 4, 8, 16];

/// The DoP the acceptance ratios are quoted at.
pub const ACCEPTANCE_DOP: usize = 8;

/// One measured (mode, DoP) cell.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    pub mode: &'static str,
    pub dop: usize,
    pub records: usize,
    /// Best observed wall seconds for one full run of the pipeline
    /// (minimum over `REPS` interleaved repetitions).
    pub wall_secs: f64,
    pub records_per_sec: f64,
}

/// The full harness outcome: the rendered table plus the raw points and
/// the two acceptance ratios at [`ACCEPTANCE_DOP`].
#[derive(Debug)]
pub struct ThroughputReport {
    pub result: ExperimentResult,
    pub points: Vec<ThroughputPoint>,
    pub docs: usize,
    pub fused_vs_unfused: f64,
    pub fused_vs_baseline: f64,
}

/// Deep clone re-allocating every string payload — what cloning a record
/// cost before `Value::Str` became `Arc<str>`.
fn deep_clone_value(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::Str(std::sync::Arc::from(&**s)),
        Value::Array(a) => Value::Array(a.iter().map(deep_clone_value).collect()),
        Value::Object(o) => Value::Object(
            o.iter().map(|(k, v)| (k.clone(), deep_clone_value(v))).collect(),
        ),
        other => other.clone(),
    }
}

fn deep_clone(r: &Record) -> Record {
    Record(r.0.iter().map(|(k, v)| (k.clone(), deep_clone_value(v))).collect())
}

/// Operators whose seed-version UDF body opened with
/// `r.text().unwrap_or("").to_string()` — a full copy of the document
/// text per record, made so the UDF could keep reading the text while
/// mutating the record — before this PR switched them to the shared
/// `Record::text_shared()` handle. The baseline charges that copy back.
fn seed_udf_copied_text(name: &str) -> bool {
    matches!(
        name,
        "ie.annotate_sentences"
            | "ie.annotate_tokens"
            | "ie.annotate_pos"
            | "ie.annotate_negation"
            | "ie.annotate_pronouns"
            | "ie.annotate_parentheses"
            | "wa.repair_markup"
            | "wa.remove_markup"
            | "wa.extract_net_text"
            | "wa.extract_links"
    ) || name.starts_with("ie.annotate_entities_")
}

/// Wraps one operator with the pre-fusion system's per-record physical
/// overhead, leaving name, kind, cost model, and annotations untouched so
/// scheduling and simulated accounting are identical.
///
/// The seed executor (a) walked `Record::approx_bytes` over every input
/// and every output record — and that method cloned the whole record
/// (then `String`-payloaded) into a `Value::Object` per call — and
/// (b) cloned each record out of the shared input slice into the UDF.
/// `deep_clone(..).approx_bytes()` reproduces (a); `f(deep_clone(&r))`
/// reproduces (b). On top of that, the seed *UDFs* in
/// [`seed_udf_copied_text`] copied the document text once per record;
/// (c) charges that copy back.
fn wrap_pre_fusion(op: &Operator) -> Operator {
    let old_bytes_walk = |r: &Record| {
        std::hint::black_box(deep_clone(r).approx_bytes());
    };
    let text_copy = seed_udf_copied_text(&op.name);
    let old_udf_prologue = move |r: &Record| {
        if text_copy {
            std::hint::black_box(r.text().map(str::to_string));
        }
    };
    let mut wrapped = match op.func().clone() {
        OpFunc::Map(f) => Operator::map(&op.name, op.package, move |r| {
            old_bytes_walk(&r);
            old_udf_prologue(&r);
            let out = f(deep_clone(&r));
            old_bytes_walk(&out);
            out
        }),
        OpFunc::FlatMap(f) => Operator::flat_map(&op.name, op.package, move |r| {
            old_bytes_walk(&r);
            old_udf_prologue(&r);
            let out = f(deep_clone(&r));
            for r in &out {
                old_bytes_walk(r);
            }
            out
        }),
        OpFunc::Filter(f) => Operator::filter(&op.name, op.package, move |r| {
            old_bytes_walk(r);
            let keep = f(r);
            if keep {
                // the old loop pushed `r.clone()` into the output, then
                // walked the clone again in the bytes_out pass
                let kept = deep_clone(r);
                old_bytes_walk(&kept);
            }
            keep
        }),
        OpFunc::Reduce { key, aggregate } => Operator::reduce(
            &op.name,
            op.package,
            move |r| key(r),
            move |k, group| {
                let group: Vec<Record> = group
                    .iter()
                    .map(|r| {
                        std::hint::black_box(deep_clone(r).approx_bytes());
                        deep_clone(r)
                    })
                    .collect();
                let out = aggregate.apply_group(k, group);
                for r in &out {
                    std::hint::black_box(deep_clone(r).approx_bytes());
                }
                out
            },
        ),
    };
    wrapped.reads = op.reads.clone();
    wrapped.writes = op.writes.clone();
    wrapped.cost = op.cost;
    wrapped.library = op.library.clone();
    wrapped
}

/// Rebuilds `plan` with every operator passed through `wrap`, preserving
/// node ids and edges (the flows here are single-input DAGs).
fn rebuild_with(plan: &LogicalPlan, wrap: impl Fn(&Operator) -> Operator) -> LogicalPlan {
    let mut out = LogicalPlan::new();
    for node in plan.nodes() {
        let id = match &node.op {
            NodeOp::Source(name) => out.source(name),
            NodeOp::Op(op) => out
                .add(node.input.expect("op has input"), wrap(op))
                .expect("same plan shape"),
            NodeOp::Sink(name) => out
                .sink(node.input.expect("sink has input"), name)
                .expect("same plan shape"),
        };
        assert_eq!(id, node.id, "rebuild must preserve node ids");
    }
    out
}

fn throughput_corpus(docs: usize) -> Vec<Record> {
    documents_to_records(&Generator::new(CorpusKind::RelevantWeb, 777).documents(docs))
}

/// One timed run; returns wall seconds.
fn time_run(plan: &LogicalPlan, records: &[Record], dop: usize, fusion: bool) -> f64 {
    let config = ExecutionConfig { fusion, ..ExecutionConfig::local(dop) };
    let exec = Executor::new(config);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records.to_vec());
    // lint:allow(wall_clock): the throughput harness measures real execution wall time
    let t = Instant::now();
    let out = exec.run(plan, inputs).expect("throughput flow");
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(out.sinks.values().map(Vec::len).sum::<usize>());
    secs
}

/// Timed repetitions per (mode, DoP) cell; the reported wall time is the
/// minimum, measured interleaved across modes (like `recovery_exps`'
/// overhead table) so slow drift — cold caches, cgroup CPU throttling —
/// hits every mode equally instead of whichever ran first.
const REPS: usize = 3;

/// Additional interleaved rounds run at the acceptance DoP only. The
/// acceptance ratios are medians of per-round paired ratios, and a
/// median over 3 rounds still collapses when an ambient stall covers 2
/// of them — observed on this box as multi-second freezes that best-of
/// cells shrug off but a 3-round median does not. Widening the median
/// to 5 rounds at the one DoP that decides acceptance keeps it honest
/// without inflating the whole sweep.
const EXTRA_ACCEPT_ROUNDS: usize = 2;

/// Fused speedup over the engine at `other` (0 = baseline, 1 = unfused),
/// as the median over rounds of the within-round wall-time ratio. Each
/// round's three runs are adjacent in time, so a round-scale load spike
/// inflates numerator and denominator together instead of one cell.
fn median_paired_ratio(rounds: &[[f64; 3]], other: usize) -> f64 {
    let mut ratios: Vec<f64> = rounds
        .iter()
        .filter(|r| r[2] > 0.0)
        .map(|r| r[other] / r[2])
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Runs the sweep at the standard DoPs. `docs` sizes the corpus (use a
/// few hundred for a smoke run, more for stable numbers).
pub fn throughput(docs: usize) -> ThroughputReport {
    throughput_at(docs, &THROUGHPUT_DOPS)
}

/// Runs the sweep at an explicit DoP list (the unit test and `--quick`
/// runs use a shorter one).
pub fn throughput_at(docs: usize, dops: &[usize]) -> ThroughputReport {
    let plan = websift_pipeline::linguistic_flow("docs");
    let baseline_plan = rebuild_with(&plan, wrap_pre_fusion);
    let records = throughput_corpus(docs);

    let mut result = ExperimentResult::new(
        "Throughput",
        "Wall-clock records/sec, linguistic pipeline (interleaved best of 3)",
        &["DoP", "baseline rec/s", "unfused rec/s", "fused rec/s", "fused/baseline", "fused/unfused"],
    );

    let engines: [(&'static str, &LogicalPlan, bool); 3] = [
        ("baseline", &baseline_plan, false),
        ("unfused", &plan, false),
        ("fused", &plan, true),
    ];

    // Warm-up: one untimed run per engine populates lazy resources and
    // the page cache before anything is measured.
    for (_, plan, fusion) in &engines {
        time_run(plan, &records, dops.first().copied().unwrap_or(1), *fusion);
    }

    // Quote the acceptance ratios at DoP 8 when measured, else at the
    // largest DoP in the sweep (short --quick sweeps).
    let accept_dop = if dops.contains(&ACCEPTANCE_DOP) {
        ACCEPTANCE_DOP
    } else {
        dops.iter().copied().max().unwrap_or(1)
    };

    let mut points = Vec::new();
    let mut accept_rounds: Vec<[f64; 3]> = Vec::new();
    for &dop in dops {
        let mut best = [f64::MAX; 3];
        let reps = REPS + if dop == accept_dop { EXTRA_ACCEPT_ROUNDS } else { 0 };
        for _ in 0..reps {
            let mut round = [0.0f64; 3];
            for (i, (_, plan, fusion)) in engines.iter().enumerate() {
                round[i] = time_run(plan, &records, dop, *fusion);
                best[i] = best[i].min(round[i]);
            }
            if dop == accept_dop {
                accept_rounds.push(round);
            }
        }
        let mut rps = [0.0f64; 3];
        for (i, (mode, _, _)) in engines.iter().enumerate() {
            rps[i] = if best[i] > 0.0 { records.len() as f64 / best[i] } else { 0.0 };
            points.push(ThroughputPoint {
                mode,
                dop,
                records: records.len(),
                wall_secs: best[i],
                records_per_sec: rps[i],
            });
        }
        let [base, unfused, fused] = rps;
        result.row(&[
            dop.to_string(),
            format!("{base:.0}"),
            format!("{unfused:.0}"),
            format!("{fused:.0}"),
            format!("{:.2}x", if base > 0.0 { fused / base } else { 0.0 }),
            format!("{:.2}x", if unfused > 0.0 { fused / unfused } else { 0.0 }),
        ]);
    }

    // The acceptance ratios pair runs from the same interleaved round —
    // adjacent in time, so ambient-load drift on a shared box multiplies
    // both sides of the ratio and cancels — and take the median round.
    let fused_vs_unfused = median_paired_ratio(&accept_rounds, 1);
    let fused_vs_baseline = median_paired_ratio(&accept_rounds, 0);
    result.note(format!(
        "{docs} source records; rec/s = source records / best-of-{REPS} wall seconds \
         (interleaved across modes); \
         baseline emulates the pre-fusion system (per-operator deep clones + \
         double approx_bytes traversals + the seed UDFs' full-text copies); \
         acceptance ratios are medians of \
         per-round paired ratios over {} rounds; at DoP {accept_dop} fused is \
         {fused_vs_baseline:.2}x baseline (target >= 2x) and {fused_vs_unfused:.2}x unfused",
        REPS + EXTRA_ACCEPT_ROUNDS
    ));

    ThroughputReport { result, points, docs, fused_vs_unfused, fused_vs_baseline }
}

/// One measured (mode, DoP) cell of the partial-aggregation sweep.
#[derive(Debug, Clone)]
pub struct CombiningPoint {
    pub mode: &'static str,
    pub dop: usize,
    pub records: usize,
    pub wall_secs: f64,
    pub records_per_sec: f64,
    /// Bytes through the reduce shuffle emulation — every input record's
    /// codec roundtrip uncombined, per-chunk sorted partial-aggregate
    /// maps combined. Deterministic per (plan, input, DoP).
    pub shuffle_bytes: u64,
}

/// Outcome of the combined-vs-uncombined sweep over the Reduce-terminated
/// token-frequency pipeline.
#[derive(Debug)]
pub struct CombiningReport {
    pub result: ExperimentResult,
    pub points: Vec<CombiningPoint>,
    pub docs: usize,
    /// Combined speedup over uncombined at [`ACCEPTANCE_DOP`] (median of
    /// per-round paired wall-time ratios).
    pub combined_vs_uncombined: f64,
    /// The same paired-median ratio at every measured DoP, in sweep
    /// order — `--check` reads DoP 1 from here.
    pub ratios: Vec<(usize, f64)>,
    pub shuffle_bytes_uncombined: u64,
    pub shuffle_bytes_combined: u64,
}

impl CombiningReport {
    /// Median paired combined/uncombined throughput ratio at `dop`, if
    /// that DoP was measured.
    pub fn ratio_at(&self, dop: usize) -> Option<f64> {
        self.ratios.iter().find(|(d, _)| *d == dop).map(|(_, r)| *r)
    }

    /// Shuffle-byte shrink factor (uncombined / combined) at the
    /// acceptance DoP.
    pub fn shuffle_reduction(&self) -> f64 {
        if self.shuffle_bytes_combined == 0 {
            0.0
        } else {
            self.shuffle_bytes_uncombined as f64 / self.shuffle_bytes_combined as f64
        }
    }
}

/// One timed run with combining toggled; returns wall seconds and the
/// physical shuffle bytes of the run.
fn time_combining_run(
    plan: &LogicalPlan,
    records: &[Record],
    dop: usize,
    combining: bool,
) -> (f64, u64) {
    let config = ExecutionConfig { combining, ..ExecutionConfig::local(dop) };
    let exec = Executor::new(config);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records.to_vec());
    // lint:allow(wall_clock): the throughput harness measures real execution wall time
    let t = Instant::now();
    let out = exec.run(plan, inputs).expect("combining flow");
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(out.sinks.values().map(Vec::len).sum::<usize>());
    (secs, out.physical.shuffle_bytes)
}

/// Median over rounds of the within-round uncombined/combined wall-time
/// ratio (the pairwise analogue of [`median_paired_ratio`]).
fn median_paired_ratio2(rounds: &[[f64; 2]]) -> f64 {
    let mut ratios: Vec<f64> =
        rounds.iter().filter(|r| r[1] > 0.0).map(|r| r[0] / r[1]).collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Runs the combining sweep at the standard DoPs.
pub fn combining(docs: usize) -> CombiningReport {
    combining_at(docs, &THROUGHPUT_DOPS)
}

/// Combined-vs-uncombined sweep over the Reduce-terminated
/// token-frequency pipeline at an explicit DoP list.
///
/// Uncombined, the final reduce's shuffle emulation codec-roundtrips
/// every exploded token record; combined, the fused workers fold each
/// chunk into sorted partial-aggregate maps and only those cross the
/// shuffle. All deterministic surfaces (sink bytes, metrics, traces,
/// checkpoints) are bit-identical between the two by construction — this
/// sweep measures the wall clock and the shuffled bytes.
pub fn combining_at(docs: usize, dops: &[usize]) -> CombiningReport {
    let plan = websift_pipeline::token_frequency_flow("docs");
    let records = throughput_corpus(docs);

    let mut result = ExperimentResult::new(
        "Partial aggregation",
        "Wall-clock records/sec, token-frequency pipeline (interleaved best of 3)",
        &[
            "DoP",
            "uncombined rec/s",
            "combined rec/s",
            "combined/uncombined",
            "shuffle bytes (unc)",
            "shuffle bytes (comb)",
            "shuffle shrink",
        ],
    );

    // Warm-up, untimed.
    for combining in [false, true] {
        time_combining_run(&plan, &records, dops.first().copied().unwrap_or(1), combining);
    }

    let accept_dop = if dops.contains(&ACCEPTANCE_DOP) {
        ACCEPTANCE_DOP
    } else {
        dops.iter().copied().max().unwrap_or(1)
    };

    let mut points = Vec::new();
    let mut ratios = Vec::new();
    let mut accept_shuffle = [0u64; 2];
    for &dop in dops {
        let mut best = [f64::MAX; 2];
        let mut shuffle = [0u64; 2];
        let mut rounds: Vec<[f64; 2]> = Vec::new();
        let reps = REPS + if dop == accept_dop { EXTRA_ACCEPT_ROUNDS } else { 0 };
        for _ in 0..reps {
            let mut round = [0.0f64; 2];
            for (i, combining) in [false, true].into_iter().enumerate() {
                let (secs, bytes) = time_combining_run(&plan, &records, dop, combining);
                round[i] = secs;
                best[i] = best[i].min(secs);
                shuffle[i] = bytes; // deterministic per (dop, mode)
            }
            rounds.push(round);
        }
        let ratio = median_paired_ratio2(&rounds);
        ratios.push((dop, ratio));
        if dop == accept_dop {
            accept_shuffle = shuffle;
        }
        let mut rps = [0.0f64; 2];
        for (i, mode) in ["uncombined", "combined"].into_iter().enumerate() {
            rps[i] = if best[i] > 0.0 { records.len() as f64 / best[i] } else { 0.0 };
            points.push(CombiningPoint {
                mode,
                dop,
                records: records.len(),
                wall_secs: best[i],
                records_per_sec: rps[i],
                shuffle_bytes: shuffle[i],
            });
        }
        let shrink =
            if shuffle[1] > 0 { shuffle[0] as f64 / shuffle[1] as f64 } else { 0.0 };
        result.row(&[
            dop.to_string(),
            format!("{:.0}", rps[0]),
            format!("{:.0}", rps[1]),
            format!("{ratio:.2}x"),
            shuffle[0].to_string(),
            shuffle[1].to_string(),
            format!("{shrink:.1}x"),
        ]);
    }

    let combined_vs_uncombined =
        ratios.iter().find(|(d, _)| *d == accept_dop).map(|(_, r)| *r).unwrap_or(0.0);
    let mut report = CombiningReport {
        result,
        points,
        docs,
        combined_vs_uncombined,
        ratios,
        shuffle_bytes_uncombined: accept_shuffle[0],
        shuffle_bytes_combined: accept_shuffle[1],
    };
    report.result.note(format!(
        "{docs} source records through the token-frequency flow; per-DoP ratios are \
         medians of per-round paired ratios ({} rounds at the acceptance DoP); at DoP {accept_dop} \
         combining is {combined_vs_uncombined:.2}x uncombined (target >= 1.3x) and \
         shrinks the reduce shuffle {:.1}x ({} -> {} bytes); deterministic surfaces \
         are bit-identical in both modes (see crates/flow/tests/partial_agg.rs)",
        REPS + EXTRA_ACCEPT_ROUNDS,
        report.shuffle_reduction(),
        report.shuffle_bytes_uncombined,
        report.shuffle_bytes_combined,
    ));
    report
}

/// Wall seconds spent in each operator of the linguistic pipeline, run
/// stage-at-a-time over the corpus (`exp_throughput --per-op`): the
/// profile that tells you *where* fused time goes.
pub fn per_op_breakdown(docs: usize) -> Vec<(String, f64, usize)> {
    let plan = websift_pipeline::linguistic_flow("docs");
    let mut cur = throughput_corpus(docs);
    let mut out = Vec::new();
    for node in plan.nodes() {
        if let NodeOp::Op(op) = &node.op {
            // lint:allow(wall_clock): the throughput harness measures real execution wall time
            let t = Instant::now();
            cur = op.apply(std::mem::take(&mut cur));
            out.push((op.name.clone(), t.elapsed().as_secs_f64(), cur.len()));
        }
    }
    out
}

/// Machine-readable report for `BENCH_THROUGHPUT.json`: the fusion sweep
/// over the linguistic pipeline plus the partial-aggregation sweep over
/// the token-frequency pipeline. The host's logical core count and the
/// measured DoP grid are stamped in so a reader can tell whether a sweep
/// measured parallel scaling or (on a single-core box) only overhead
/// elimination.
pub fn throughput_json(report: &ThroughputReport, combining: &CombiningReport) -> String {
    let points = array(report.points.iter().map(|p| {
        ObjectWriter::new()
            .str("mode", p.mode)
            .u64("dop", p.dop as u64)
            .u64("records", p.records as u64)
            .f64("wall_secs", p.wall_secs)
            .f64("records_per_sec", p.records_per_sec)
            .finish()
    }));
    let combining_points = array(combining.points.iter().map(|p| {
        ObjectWriter::new()
            .str("mode", p.mode)
            .u64("dop", p.dop as u64)
            .u64("records", p.records as u64)
            .f64("wall_secs", p.wall_secs)
            .f64("records_per_sec", p.records_per_sec)
            .u64("shuffle_bytes", p.shuffle_bytes)
            .finish()
    }));
    let mut dops: Vec<u64> = report.points.iter().map(|p| p.dop as u64).collect();
    dops.sort_unstable();
    dops.dedup();
    ObjectWriter::new()
        .str("experiment", "throughput")
        .str("pipeline", "linguistic")
        .u64("docs", report.docs as u64)
        .u64("host_logical_cores", crate::report::host_logical_cores())
        .raw("dops", &array(dops.iter().map(|d| d.to_string())))
        .u64("acceptance_dop", ACCEPTANCE_DOP as u64)
        .f64("fused_vs_unfused", report.fused_vs_unfused)
        .f64("fused_vs_baseline", report.fused_vs_baseline)
        .f64("combined_vs_uncombined", combining.combined_vs_uncombined)
        .u64("shuffle_bytes_uncombined", combining.shuffle_bytes_uncombined)
        .u64("shuffle_bytes_combined", combining.shuffle_bytes_combined)
        .f64("shuffle_reduction", combining.shuffle_reduction())
        .raw("points", &points)
        .raw("combining_points", &combining_points)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rebuild_preserves_results() {
        // The wrapped plan must compute exactly what the original does —
        // the wrapper only burns the old physical overhead.
        let plan = websift_pipeline::linguistic_flow("docs");
        let baseline = rebuild_with(&plan, wrap_pre_fusion);
        let records = throughput_corpus(12);
        let run = |p: &LogicalPlan| {
            let mut inputs = HashMap::new();
            inputs.insert("docs".to_string(), records.clone());
            Executor::new(ExecutionConfig::local(4)).run(p, inputs).unwrap()
        };
        let a = run(&plan);
        let b = run(&baseline);
        assert_eq!(a.sinks, b.sinks);
        assert_eq!(
            a.metrics.simulated_secs.to_bits(),
            b.metrics.simulated_secs.to_bits(),
            "emulation must not disturb simulated accounting"
        );
    }

    #[test]
    fn deep_clone_reallocates_strings() {
        let mut r = Record::new();
        r.set("text", "some body");
        let c = deep_clone(&r);
        match (r.get("text").unwrap(), c.get("text").unwrap()) {
            (Value::Str(a), Value::Str(b)) => {
                assert_eq!(a, b);
                assert!(!std::sync::Arc::ptr_eq(a, b), "baseline clone must reallocate");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn throughput_smoke_produces_all_cells() {
        let report = throughput_at(6, &[1, 4]);
        assert_eq!(report.points.len(), 3 * 2);
        assert!(report.points.iter().all(|p| p.records_per_sec > 0.0));
        let combining = combining_at(6, &[1, 4]);
        assert_eq!(combining.points.len(), 2 * 2);
        assert!(combining.points.iter().all(|p| p.records_per_sec > 0.0));
        let json = throughput_json(&report, &combining);
        assert!(json.contains("\"fused_vs_baseline\""));
        assert!(json.contains("\"host_logical_cores\""));
        assert!(json.contains("\"dops\":[1,4]"));
        assert!(json.contains("\"mode\":\"fused\""));
        assert!(json.contains("\"combined_vs_uncombined\""));
        assert!(json.contains("\"shuffle_reduction\""));
        assert!(json.contains("\"mode\":\"combined\""));
    }

    #[test]
    fn combining_shrinks_the_shuffle_at_every_dop() {
        let report = combining_at(8, &[1, 2]);
        for dop in [1usize, 2] {
            let by = |mode: &str| {
                report
                    .points
                    .iter()
                    .find(|p| p.mode == mode && p.dop == dop)
                    .map(|p| p.shuffle_bytes)
                    .unwrap()
            };
            assert!(
                by("combined") < by("uncombined"),
                "dop {dop}: combined {} !< uncombined {}",
                by("combined"),
                by("uncombined")
            );
        }
        assert!(report.ratio_at(1).is_some());
        assert!(report.ratio_at(2).is_some());
        assert!(report.shuffle_reduction() > 1.0);
    }
}
