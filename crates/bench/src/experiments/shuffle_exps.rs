//! Scale-out harness for the sharded physical runtime on the *real*
//! pipeline: `linguistic_flow` and `token_frequency_flow` over generated
//! Medline abstracts, at shard counts {1, 2, 4, 8}, for both worker
//! flavours — in-process socketpair threads and real OS worker processes
//! (the `shard_worker` binary) rebuilding every operator from its wire
//! form — against the unsharded in-process engine.
//!
//! Sharding is physical only: every cell computes byte-identical output,
//! and the harness pins that by comparing every cell's deterministic
//! digest against the unsharded baseline's, and by requiring that no
//! stage stayed on the local runner (the `--check` gate in
//! `exp_shuffle`). What the cells differ in is wall clock, frame counts,
//! and wire bytes — which is why this module is on the lint's wall-clock
//! allowlist.
//!
//! Each sharded cell also reports worker start-up alone: the wall time
//! of a run over one document per chunk. (The pool spawns workers
//! lazily, so a literally empty run would start none.) Start-up covers
//! spawning the workers, shipping the stage, and each worker rebuilding
//! its operators — the paper's per-worker start-up cost, measured.
//!
//! The worker binary is found via the `WEBSIFT_SHARD_WORKER` env var or
//! as a sibling of the running benchmark executable; when neither works,
//! process-mode cells are skipped with a note rather than failing the
//! sweep (the in-process cells and the gates still run).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::report::ExperimentResult;
use websift_corpus::{CorpusKind, Generator};
use websift_flow::{ExecutionConfig, Executor, LogicalPlan, Record, RunOptions, ShardConfig};
use websift_observe::json::{array, ObjectWriter};
use websift_pipeline::{documents_to_records, linguistic_flow, token_frequency_flow};

/// The shard counts the sweep measures.
pub const SHUFFLE_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Documents per full sweep: sized so the unsharded cell of either flow
/// runs for over a second on the 2-core reference host.
pub const SHUFFLE_DOCS: usize = 16_000;

/// DoP of every cell: one chunk per shard at the widest sweep point, so
/// no shard idles for lack of chunks.
const DOP: usize = 8;

/// Timed repetitions per cell; the reported wall time is the minimum.
const REPS: usize = 3;

/// One measured (flow, mode, shards) cell.
#[derive(Debug, Clone)]
pub struct ShufflePoint {
    pub flow: &'static str,
    /// `"in-process"` baseline, `"threads"` (socketpair workers), or
    /// `"processes"` (real `shard_worker` children).
    pub mode: &'static str,
    /// Worker shard count; 0 for the unsharded baseline.
    pub shards: usize,
    pub docs: usize,
    pub wall_secs: f64,
    pub docs_per_sec: f64,
    /// Wall time of the start-up probe (one document per chunk).
    pub startup_secs: f64,
    /// `FlowOutput::deterministic_digest` of the run — identical across
    /// every cell of a flow or the sweep is broken.
    pub digest: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    /// Stages that stayed on the local runner; must be 0.
    pub stages_pinned_local: u64,
}

/// The full harness outcome.
#[derive(Debug)]
pub struct ShuffleReport {
    pub result: ExperimentResult,
    pub points: Vec<ShufflePoint>,
    pub docs: usize,
    pub shards: Vec<usize>,
    /// Every cell's digest equals its flow's unsharded baseline.
    pub digests_identical: bool,
    /// Stages pinned local, summed over every sharded cell.
    pub stages_pinned_local: u64,
    /// The worker binary process-mode cells used, when found.
    pub worker_bin: Option<PathBuf>,
}

/// Locates the `shard_worker` binary: `WEBSIFT_SHARD_WORKER` wins, then
/// a sibling of the current executable (bench bins and flow bins land in
/// the same target directory). `None` means process-mode cells are
/// skipped.
pub fn worker_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("WEBSIFT_SHARD_WORKER") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let sibling = std::env::current_exe().ok()?.with_file_name("shard_worker");
    sibling.is_file().then_some(sibling)
}

/// What one timed run observed.
struct Timed {
    secs: f64,
    digest: u64,
    frames: u64,
    wire_bytes: u64,
    pinned: u64,
}

fn time_run(plan: &LogicalPlan, records: &[Record], sharding: Option<ShardConfig>) -> Timed {
    let exec = Executor::new(ExecutionConfig { sharding, ..ExecutionConfig::local(DOP) });
    let inputs = HashMap::from([("docs".to_string(), records.to_vec())]);
    // lint:allow(wall_clock): the shuffle harness measures real scale-out wall time
    let t = Instant::now();
    let out = exec.run(plan, inputs, RunOptions::default()).expect("shuffle flow");
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(out.sinks.values().map(Vec::len).sum::<usize>());
    Timed {
        secs,
        digest: out.deterministic_digest(),
        frames: out.physical.shard_frames,
        wire_bytes: out.physical.shard_wire_bytes,
        pinned: out.physical.stages_pinned_local,
    }
}

fn best_of(plan: &LogicalPlan, records: &[Record], sharding: &Option<ShardConfig>) -> Timed {
    let mut best = time_run(plan, records, sharding.clone());
    for _ in 1..REPS {
        let next = time_run(plan, records, sharding.clone());
        if next.secs < best.secs {
            best = next;
        }
    }
    best
}

/// Runs the sweep at the given shard counts over `docs` Medline
/// abstracts.
pub fn shuffle_at(docs: usize, shards: &[usize]) -> ShuffleReport {
    let records = documents_to_records(&Generator::new(CorpusKind::Medline, 4242).documents(docs));
    let probe = &records[..DOP.min(records.len())];
    let worker_bin = worker_binary();
    let flows: [(&'static str, LogicalPlan); 2] = [
        ("linguistic_flow", linguistic_flow("docs")),
        ("token_frequency_flow", token_frequency_flow("docs")),
    ];

    let mut result = ExperimentResult::new(
        "Shuffle",
        "Wall-clock documents/sec by worker-shard count on the real pipeline (best of 3)",
        &[
            "flow",
            "shards",
            "threads docs/s",
            "processes docs/s",
            "wire bytes/doc",
            "threads start-up ms",
            "processes start-up ms",
            "digest",
        ],
    );

    let mut points = Vec::new();
    let mut digests_identical = true;
    for (flow, plan) in &flows {
        let base = best_of(plan, &records, &None);
        result.row(&[
            (*flow).to_string(),
            "unsharded".to_string(),
            format!("{:.0}", docs as f64 / base.secs),
            "-".to_string(),
            "0".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{:016x}", base.digest),
        ]);
        points.push(ShufflePoint {
            flow,
            mode: "in-process",
            shards: 0,
            docs,
            wall_secs: base.secs,
            docs_per_sec: docs as f64 / base.secs,
            startup_secs: 0.0,
            digest: base.digest,
            frames: 0,
            wire_bytes: 0,
            stages_pinned_local: 0,
        });
        for &n in shards {
            let mut modes = vec![("threads", ShardConfig::in_process(n))];
            if let Some(bin) = &worker_bin {
                modes.push(("processes", ShardConfig::process(n, bin)));
            }
            // (mode, timed run, start-up seconds) per worker flavour
            let cells: Vec<(&'static str, Timed, f64)> = modes
                .into_iter()
                .map(|(mode, cfg)| {
                    let sharding = Some(cfg);
                    let run = best_of(plan, &records, &sharding);
                    (mode, run, best_of(plan, probe, &sharding).secs)
                })
                .collect();
            let rate = |c: Option<&(&str, Timed, f64)>| match c {
                Some((_, run, _)) => format!("{:.0}", docs as f64 / run.secs),
                None => "(skipped)".to_string(),
            };
            let startup_ms = |c: Option<&(&str, Timed, f64)>| match c {
                Some((_, _, startup)) => format!("{:.1}", startup * 1000.0),
                None => "(skipped)".to_string(),
            };
            let (_, shown, _) = cells.last().expect("the threads mode always runs");
            result.row(&[
                (*flow).to_string(),
                n.to_string(),
                rate(cells.first()),
                rate(cells.get(1)),
                format!("{:.0}", shown.wire_bytes as f64 / docs.max(1) as f64),
                startup_ms(cells.first()),
                startup_ms(cells.get(1)),
                format!("{:016x}", shown.digest),
            ]);
            for (mode, run, startup) in cells {
                digests_identical &= run.digest == base.digest;
                points.push(ShufflePoint {
                    flow,
                    mode,
                    shards: n,
                    docs,
                    wall_secs: run.secs,
                    docs_per_sec: docs as f64 / run.secs,
                    startup_secs: startup,
                    digest: run.digest,
                    frames: run.frames,
                    wire_bytes: run.wire_bytes,
                    stages_pinned_local: run.pinned,
                });
            }
        }
    }

    let stages_pinned_local = points.iter().map(|p| p.stages_pinned_local).sum();
    result.note(format!(
        "{docs} Medline abstracts at DoP {DOP}; sharding is physical only — every cell's \
         deterministic digest {} its flow's unsharded baseline, and {stages_pinned_local} \
         stage(s) stayed on the local runner; start-up is a run over one document per chunk; \
         worker binary: {}",
        if digests_identical { "matches" } else { "DIVERGES FROM" },
        // the file name only: the directory is the checkout's, and the
        // note is otherwise the same in every checkout
        match worker_bin.as_deref().and_then(std::path::Path::file_name) {
            Some(name) => name.to_string_lossy().into_owned(),
            None => "not found, process-mode cells skipped".to_string(),
        }
    ));

    ShuffleReport {
        result,
        points,
        docs,
        shards: shards.to_vec(),
        digests_identical,
        stages_pinned_local,
        worker_bin,
    }
}

/// Machine-readable report for `BENCH_SHUFFLE.json`. The host's logical
/// core count and the measured shard grid are stamped in so a reader can
/// tell whether a sweep measured real scale-out or single-core overhead.
pub fn shuffle_json(report: &ShuffleReport) -> String {
    let points = array(report.points.iter().map(|p| {
        ObjectWriter::new()
            .str("flow", p.flow)
            .str("mode", p.mode)
            .u64("shards", p.shards as u64)
            .u64("docs", p.docs as u64)
            .f64("wall_secs", p.wall_secs)
            .f64("docs_per_sec", p.docs_per_sec)
            .f64("startup_secs", p.startup_secs)
            .f64("wire_bytes_per_doc", p.wire_bytes as f64 / p.docs.max(1) as f64)
            .u64("digest", p.digest)
            .u64("frames", p.frames)
            .u64("wire_bytes", p.wire_bytes)
            .u64("stages_pinned_local", p.stages_pinned_local)
            .finish()
    }));
    crate::report::stamp(
        ObjectWriter::new()
            .str("experiment", "shuffle")
            .str("pipeline", "linguistic_flow + token_frequency_flow over Medline abstracts")
            .u64("docs", report.docs as u64)
            .u64("dop", DOP as u64),
        &format!("{} generated Medline abstracts through both flows", report.docs),
    )
    .raw("shards", &array(report.shards.iter().map(|s| s.to_string())))
    .raw("process_workers_measured", if report.worker_bin.is_some() { "true" } else { "false" })
    .raw("digests_identical", if report.digests_identical { "true" } else { "false" })
    .u64("stages_pinned_local", report.stages_pinned_local)
    .raw("points", &points)
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_smoke_produces_all_cells_identical_digests_and_no_pins() {
        let report = shuffle_at(24, &[1, 2]);
        // per flow: baseline + per shard count threads always, processes
        // only when the worker binary is reachable from the test runner
        let per_shard = if report.worker_bin.is_some() { 2 } else { 1 };
        assert_eq!(report.points.len(), 2 * (1 + 2 * per_shard));
        assert!(report.points.iter().all(|p| p.docs_per_sec > 0.0));
        assert!(report.digests_identical, "sharding must be digest-invariant");
        assert_eq!(report.stages_pinned_local, 0, "the real pipeline ships whole");
        let sharded: Vec<_> = report.points.iter().filter(|p| p.shards > 0).collect();
        assert!(sharded.iter().all(|p| p.frames > 0 && p.wire_bytes > 0 && p.startup_secs > 0.0));

        let json = shuffle_json(&report);
        assert!(json.contains("\"experiment\":\"shuffle\""));
        assert!(json.contains("\"host_logical_cores\""));
        assert!(json.contains("\"git_rev\""));
        assert!(json.contains("\"shards\":[1,2]"));
        assert!(json.contains("\"digests_identical\":true"));
        assert!(json.contains("\"stages_pinned_local\":0"));
        assert!(json.contains("\"flow\":\"token_frequency_flow\""));
        assert!(json.contains("\"mode\":\"threads\""));
    }
}
