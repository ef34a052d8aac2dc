//! The two live A/B wall-clock ratios `ci.sh` gates on: operator fusion
//! on vs off over the Fig-4/5 linguistic pipeline, and partial
//! aggregation (combining) on vs off over the Reduce-terminated
//! token-frequency pipeline.
//!
//! Both are the same measurement — one plan, config A vs config B,
//! interleaved rounds, median paired ratio — so both go through
//! [`paired_sweep`]. Each arm is the executor that actually ships, with
//! one `ExecutionConfig` switch flipped; nothing here emulates code that
//! no longer exists. Simulated seconds are pure accounting and identical
//! across the two arms by construction (the sweep asserts it); this
//! module is about the wall clock, which is why it is on the lint's
//! wall-clock allowlist. The end-to-end wall-clock numbers of the system
//! live in `benchmark/`, not here.

use std::collections::HashMap;
use std::time::Instant;

use crate::report::{stamp, ExperimentResult};
use websift_corpus::{CorpusKind, Generator};
use websift_flow::{ExecutionConfig, Executor, FlowOutput, LogicalPlan, Record, RunOptions};
use websift_observe::json::{array, ObjectWriter};
use websift_pipeline::documents_to_records;

/// The DoP sweep every mode is measured at.
pub const THROUGHPUT_DOPS: [usize; 4] = [1, 4, 8, 16];

/// The DoP the headline ratios are quoted at.
pub const ACCEPTANCE_DOP: usize = 8;

/// Timed repetitions per (mode, DoP) cell; the reported wall time is the
/// minimum, measured interleaved across the two modes (like
/// `recovery_exps`' overhead table) so slow drift — cold caches, cgroup
/// CPU throttling — hits both equally instead of whichever ran first.
const REPS: usize = 3;

/// Additional interleaved rounds run at the acceptance DoP only. The
/// ratios are medians of per-round paired ratios, and a median over 3
/// rounds still collapses when an ambient stall covers 2 of them —
/// observed on this box as multi-second freezes that best-of cells shrug
/// off but a 3-round median does not. Widening the median to 5 rounds at
/// the one DoP that decides acceptance keeps it honest without inflating
/// the whole sweep.
const EXTRA_ACCEPT_ROUNDS: usize = 2;

/// One DoP of a sweep; per-arm fields are `[switch off, switch on]`.
#[derive(Debug, Clone)]
pub struct SweepCell {
    pub dop: usize,
    /// Best observed wall seconds for one full run of the pipeline
    /// (minimum over the interleaved repetitions).
    pub wall_secs: [f64; 2],
    /// Bytes through the reduce shuffle emulation — every input record's
    /// codec roundtrip uncombined, per-chunk sorted partial-aggregate
    /// maps combined; 0 for a flow with no Reduce. Deterministic per
    /// (plan, config, DoP).
    pub shuffle_bytes: [u64; 2],
    /// On-over-off throughput: the median over rounds of the
    /// within-round wall-time ratio.
    pub ratio: f64,
}

/// Outcome of one A/B sweep: the rendered table and the measured cells.
#[derive(Debug)]
pub struct SweepReport {
    pub result: ExperimentResult,
    /// Mode names, `[switch off, switch on]`.
    pub modes: [&'static str; 2],
    /// Generated documents, one source record each.
    pub docs: usize,
    pub cells: Vec<SweepCell>,
    /// The DoP the headline ratio is quoted at: [`ACCEPTANCE_DOP`] when
    /// measured, else the largest DoP of a short `--quick` sweep.
    pub accept_dop: usize,
}

impl SweepReport {
    fn cell_at(&self, dop: usize) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.dop == dop)
    }

    /// Median paired on/off throughput ratio at `dop`, if measured.
    pub fn ratio_at(&self, dop: usize) -> Option<f64> {
        self.cell_at(dop).map(|c| c.ratio)
    }

    /// The headline ratio: on over off at `accept_dop`.
    pub fn accept_ratio(&self) -> f64 {
        self.ratio_at(self.accept_dop).unwrap_or(0.0)
    }

    /// Physical shuffle bytes at `accept_dop`.
    pub fn accept_shuffle(&self) -> [u64; 2] {
        self.cell_at(self.accept_dop).map_or([0; 2], |c| c.shuffle_bytes)
    }

    /// Shuffle-byte shrink factor (off / on) at `accept_dop`.
    pub fn shuffle_reduction(&self) -> f64 {
        let [off, on] = self.accept_shuffle();
        quotient(off as f64, on as f64)
    }
}

/// What one sweep compares: a plan and the `ExecutionConfig` switch whose
/// two settings are the arms.
struct Sweep {
    id: &'static str,
    title: &'static str,
    plan: LogicalPlan,
    /// Mode names, `[switch off, switch on]`.
    modes: [&'static str; 2],
    config: fn(dop: usize, on: bool) -> ExecutionConfig,
}

fn quotient(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn throughput_corpus(docs: usize) -> Vec<Record> {
    documents_to_records(&Generator::new(CorpusKind::RelevantWeb, 777).documents(docs))
}

/// One timed run; returns wall seconds and the run's output.
fn time_run(plan: &LogicalPlan, records: &[Record], config: ExecutionConfig) -> (f64, FlowOutput) {
    let exec = Executor::new(config);
    let mut inputs = HashMap::new();
    inputs.insert("docs".to_string(), records.to_vec());
    // lint:allow(wall_clock): the throughput harness measures real execution wall time
    let t = Instant::now();
    let out = exec.run(plan, inputs, RunOptions::default()).expect("throughput flow");
    (t.elapsed().as_secs_f64(), out)
}

/// Speedup of the second arm over the first, as the median over rounds of
/// the within-round wall-time ratio. A round's two runs are adjacent in
/// time, so a round-scale load spike on a shared box inflates numerator
/// and denominator together and cancels, instead of landing on one cell.
fn median_paired_ratio(rounds: &[[f64; 2]]) -> f64 {
    let mut ratios: Vec<f64> =
        rounds.iter().filter(|r| r[1] > 0.0).map(|r| r[0] / r[1]).collect();
    ratios.sort_by(f64::total_cmp);
    ratios.get(ratios.len() / 2).copied().unwrap_or(0.0)
}

/// Runs `sweep` over `docs` generated relevant-web documents at every DoP
/// in `dops`, alternating the two arms within each round.
fn paired_sweep(sweep: &Sweep, docs: usize, dops: &[usize]) -> SweepReport {
    let records = throughput_corpus(docs);
    let [off, on] = sweep.modes;
    let mut result = ExperimentResult::new(
        sweep.id,
        sweep.title,
        &[
            "DoP",
            &format!("{off} rec/s"),
            &format!("{on} rec/s"),
            &format!("{on}/{off}"),
            &format!("shuffle bytes ({off})"),
            &format!("shuffle bytes ({on})"),
            "shuffle shrink",
        ],
    );
    let run = |dop: usize, on: bool| time_run(&sweep.plan, &records, (sweep.config)(dop, on));

    // Warm-up: one untimed run per arm populates lazy resources and the
    // page cache before anything is measured.
    for arm in [false, true] {
        run(dops.first().copied().unwrap_or(1), arm);
    }

    let accept_dop = if dops.contains(&ACCEPTANCE_DOP) {
        ACCEPTANCE_DOP
    } else {
        dops.iter().copied().max().unwrap_or(1)
    };

    let mut cells = Vec::new();
    for &dop in dops {
        let mut wall_secs = [f64::MAX; 2];
        let mut shuffle_bytes = [0u64; 2];
        let mut rounds: Vec<[f64; 2]> = Vec::new();
        let reps = REPS + if dop == accept_dop { EXTRA_ACCEPT_ROUNDS } else { 0 };
        for rep in 0..reps {
            let mut round = [0.0f64; 2];
            let mut digests = [0u64; 2];
            for (i, arm) in [false, true].into_iter().enumerate() {
                let (secs, out) = run(dop, arm);
                round[i] = secs;
                wall_secs[i] = wall_secs[i].min(secs);
                shuffle_bytes[i] = out.physical.shuffle_bytes; // deterministic per (dop, arm)
                if rep == 0 {
                    digests[i] = out.deterministic_digest();
                }
            }
            // A speed ratio between runs that computed different things
            // is not a ratio: the first round of every DoP checks.
            assert_eq!(
                digests[0], digests[1],
                "{}: {off} digest {:016x} != {on} digest {:016x} at DoP {dop}",
                sweep.id, digests[0], digests[1]
            );
            rounds.push(round);
        }
        let ratio = median_paired_ratio(&rounds);
        let rps = wall_secs.map(|secs| quotient(docs as f64, secs));
        result.row(&[
            dop.to_string(),
            format!("{:.0}", rps[0]),
            format!("{:.0}", rps[1]),
            format!("{ratio:.2}x"),
            shuffle_bytes[0].to_string(),
            shuffle_bytes[1].to_string(),
            format!("{:.1}x", quotient(shuffle_bytes[0] as f64, shuffle_bytes[1] as f64)),
        ]);
        cells.push(SweepCell { dop, wall_secs, shuffle_bytes, ratio });
    }

    let shuffles = cells.iter().any(|c| c.shuffle_bytes != [0; 2]);
    if !shuffles {
        // No Reduce in the plan: drop the three all-zero shuffle columns.
        result.headers.truncate(4);
        result.rows.iter_mut().for_each(|row| row.truncate(4));
    }
    let mut report = SweepReport { result, modes: sweep.modes, docs, cells, accept_dop };
    let mut note = format!(
        "{docs} source records; rec/s = source records / best-of-{REPS} wall seconds \
         (interleaved across modes); per-DoP ratios are medians of per-round paired ratios \
         ({} rounds at DoP {accept_dop}, {REPS} elsewhere); both modes' deterministic digests \
         are asserted equal at every DoP; at DoP {accept_dop} {on} is {:.2}x {off}",
        REPS + EXTRA_ACCEPT_ROUNDS,
        report.accept_ratio(),
    );
    if shuffles {
        let [unc, comb] = report.accept_shuffle();
        note.push_str(&format!(
            " and shrinks the reduce shuffle {:.1}x ({unc} -> {comb} bytes)",
            report.shuffle_reduction(),
        ));
    }
    report.result.note(note);
    report
}

/// Fused vs unfused executor over the linguistic pipeline: `fusion:
/// false` runs one physical pass per plan node, still ownership-passing.
/// Byte-identity of the two is held by `crates/flow/tests/fusion.rs`.
pub fn fusion(docs: usize, dops: &[usize]) -> SweepReport {
    let sweep = Sweep {
        id: "Throughput",
        title: "Wall-clock records/sec, linguistic pipeline (interleaved best of 3)",
        plan: websift_pipeline::linguistic_flow("docs"),
        modes: ["unfused", "fused"],
        config: |dop, fusion| ExecutionConfig { fusion, ..ExecutionConfig::local(dop) },
    };
    paired_sweep(&sweep, docs, dops)
}

/// Combined vs uncombined over the token-frequency pipeline. Uncombined,
/// the final reduce groups every exploded token record in the parent and
/// counts each one's encoding as shuffled bytes; combined, the fused
/// workers fold each chunk into sorted partial-aggregate maps and only
/// those count. Byte-identity
/// of the two is held by `crates/flow/tests/partial_agg.rs`.
pub fn combining(docs: usize, dops: &[usize]) -> SweepReport {
    let sweep = Sweep {
        id: "Partial aggregation",
        title: "Wall-clock records/sec, token-frequency pipeline (interleaved best of 3)",
        plan: websift_pipeline::token_frequency_flow("docs"),
        modes: ["uncombined", "combined"],
        config: |dop, combining| ExecutionConfig { combining, ..ExecutionConfig::local(dop) },
    };
    paired_sweep(&sweep, docs, dops)
}

/// Machine-readable report for `BENCH_THROUGHPUT.json`: both sweeps, the
/// provenance stamp and the measured DoP grid — so a reader can tell
/// whether a sweep measured parallel scaling or (on a single-core box)
/// only overhead elimination.
pub fn throughput_json(fusion: &SweepReport, combining: &SweepReport) -> String {
    let points = |report: &SweepReport| {
        array(report.cells.iter().flat_map(|c| [(c, 0), (c, 1)]).map(|(c, arm)| {
            ObjectWriter::new()
                .str("mode", report.modes[arm])
                .u64("dop", c.dop as u64)
                .u64("records", report.docs as u64)
                .f64("wall_secs", c.wall_secs[arm])
                .f64("records_per_sec", quotient(report.docs as f64, c.wall_secs[arm]))
                .u64("shuffle_bytes", c.shuffle_bytes[arm])
                .finish()
        }))
    };
    let [shuffle_uncombined, shuffle_combined] = combining.accept_shuffle();
    stamp(
        ObjectWriter::new().str("experiment", "throughput").str("pipeline", "linguistic"),
        &format!("{} generated relevant-web documents per sweep", fusion.docs),
    )
    .u64("docs", fusion.docs as u64)
    .raw("dops", &array(fusion.cells.iter().map(|c| c.dop.to_string())))
    .u64("acceptance_dop", fusion.accept_dop as u64)
    .f64("fused_vs_unfused", fusion.accept_ratio())
    .f64("combined_vs_uncombined", combining.accept_ratio())
    .u64("shuffle_bytes_uncombined", shuffle_uncombined)
    .u64("shuffle_bytes_combined", shuffle_combined)
    .f64("shuffle_reduction", combining.shuffle_reduction())
    .raw("points", &points(fusion))
    .raw("combining_points", &points(combining))
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_sweep_smoke_covers_both_call_sites() {
        let dops = [1usize, 2];
        let fused = fusion(6, &dops);
        let combined = combining(6, &dops);
        for report in [&fused, &combined] {
            assert_eq!(report.cells.len(), dops.len());
            assert!(report.cells.iter().all(|c| c.wall_secs.iter().all(|&s| s > 0.0 && s < f64::MAX)));
            assert_eq!(report.accept_dop, 2);
            assert!(dops.iter().all(|&d| report.ratio_at(d).is_some_and(|r| r > 0.0)));
        }
        assert_eq!(fused.result.headers.len(), 4, "no Reduce, no shuffle columns");
        assert_eq!(combined.result.headers.len(), 7);
        for cell in &combined.cells {
            let [unc, comb] = cell.shuffle_bytes;
            assert!(comb < unc, "dop {}: combined {comb} !< uncombined {unc}", cell.dop);
        }
        assert!(combined.shuffle_reduction() > 1.0);

        let json = throughput_json(&fused, &combined);
        for key in [
            "\"fused_vs_unfused\"",
            "\"combined_vs_uncombined\"",
            "\"host_logical_cores\"",
            "\"git_rev\"",
            "\"dops\":[1,2]",
            "\"mode\":\"fused\"",
            "\"mode\":\"combined\"",
            "\"shuffle_reduction\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("baseline"));
        // one JSON point per arm per DoP per sweep
        assert_eq!(json.matches("\"mode\":").count(), 2 * 2 * dops.len());
    }

    #[test]
    fn median_paired_ratio_takes_the_middle_round() {
        assert_eq!(median_paired_ratio(&[]), 0.0);
        assert_eq!(median_paired_ratio(&[[1.0, 0.0]]), 0.0);
        // one stalled round (9.0 / 1.0) must not move the median
        assert_eq!(median_paired_ratio(&[[2.0, 1.0], [9.0, 1.0], [3.0, 2.0]]), 2.0);
    }

    #[test]
    #[should_panic(expected = "digest")]
    fn sweep_refuses_arms_that_compute_different_things() {
        // an arm pair whose simulated accounting differs (DoP 1 vs DoP 2)
        let sweep = Sweep {
            id: "mismatch",
            title: "arms disagree",
            plan: websift_pipeline::token_frequency_flow("docs"),
            modes: ["one", "two"],
            config: |_, two| ExecutionConfig::local(1 + usize::from(two)),
        };
        paired_sweep(&sweep, 4, &[1]);
    }
}
