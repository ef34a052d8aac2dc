//! Partial-aggregation equivalence properties (the byte-identity
//! contract behind `ExecutionConfig::combining`):
//!
//! 1. across randomly generated Reduce-bearing chain plans, fault seeds,
//!    DoPs, checkpoint cadences, and every `Aggregate` variant, a
//!    combining run is indistinguishable from
//!    an uncombined run on every deterministic surface — sink `Snapshot`
//!    bytes, every deterministic `FlowMetrics` field, bit-exact `simulated_secs`,
//!    tracer JSONL, registry snapshot, checkpoint frame bytes, and the
//!    WS00x analyzer verdict;
//! 2. a fixed fault-seed sweep holds the same equality at DoP {1, 4, 8}
//!    with injected faults;
//! 3. killing a run at a boundary strictly inside a fused Reduce stage
//!    and resuming from the synthesized checkpoint reproduces the
//!    uninterrupted flow bit for bit — combining on, combining off, and
//!    fusion off all agree.
//!
//! The mirror image of `tests/fusion.rs`, one config axis over.

mod common;

use common::{
    assert_surfaces_equal, docs, group_key, inputs_for, metric_fields, options, run_surface,
};
use proptest::prelude::*;
use websift_flow::{
    Aggregate, ExecutionConfig, Executor, FlowResilience, LogicalPlan, Operator, Package,
    RunOptions, Value,
};
use websift_observe::Observer;

/// Pipelineable (Map/FlatMap/Filter) vocabulary — the total operators of
/// `tests/common`, plus a Float-scoring map so Min/Max/TopK see NaN and
/// negative-zero payloads.
fn pipe_op(idx: usize) -> Operator {
    match idx {
        0 => common::stamp(),
        1 => common::dup(),
        2 => common::parity(),
        3 => common::grow(),
        4 => Operator::map("score", Package::Base, |mut r| {
            let id = r.get("id").and_then(Value::as_int).unwrap_or(0);
            let score = match id % 7 {
                0 => f64::NAN,
                1 => -0.0,
                _ => id as f64 * 0.5 - 1.0,
            };
            r.set("score", Value::Float(score));
            r
        })
        .with_reads(&["id"])
        .with_writes(&["score"]),
        _ => common::needs_stamp(),
    }
}

/// Every typed aggregate, plus the closure-keyed text-joining reduce of
/// `tests/common` (Concat again, with no wire form).
fn agg_op(idx: usize) -> Operator {
    match idx {
        0 => Operator::reduce_agg(
            "count",
            Package::Base,
            group_key,
            Aggregate::Count { into: "n".into() },
        ),
        1 => Operator::reduce_agg(
            "sum",
            Package::Base,
            group_key,
            Aggregate::Sum { field: "id".into(), into: "sum".into() },
        ),
        2 => Operator::reduce_agg(
            "min",
            Package::Base,
            group_key,
            Aggregate::Min { field: "score".into(), into: "min".into() },
        ),
        3 => Operator::reduce_agg(
            "max",
            Package::Base,
            group_key,
            Aggregate::Max { field: "text".into(), into: "max".into() },
        ),
        4 => Operator::reduce_agg(
            "cat",
            Package::Base,
            group_key,
            Aggregate::Concat { field: "text".into(), sep: "|".into(), into: "cat".into() },
        ),
        5 => Operator::reduce_agg(
            "top",
            Package::Base,
            group_key,
            Aggregate::TopK { field: "score".into(), k: 2, into: "top".into() },
        ),
        _ => common::group_reduce(),
    }
}

/// source -> pipe ops -> reduce -> tail pipe ops -> sink.
fn reduce_plan(pipe: &[usize], agg_idx: usize, tail: &[usize]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("in");
    for &i in pipe {
        prev = plan.add(prev, pipe_op(i)).expect("reduce plan");
    }
    prev = plan.add(prev, agg_op(agg_idx)).expect("reduce plan");
    for &i in tail {
        prev = plan.add(prev, pipe_op(i)).expect("reduce plan");
    }
    plan.sink(prev, "out").expect("reduce plan");
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: combining on vs off is unobservable on
    /// every deterministic surface, fused and unfused, across plans
    /// containing every `Aggregate` variant.
    #[test]
    fn combining_is_byte_identical_to_uncombined(
        pipe in prop::collection::vec(0usize..6, 0..4),
        agg_idx in 0usize..7,
        tail in prop::collection::vec(0usize..6, 0..3),
        seed in 0u64..1_000_000,
        rate_sel in 0usize..3,
        dop_sel in 0usize..3,
        n_docs in 0usize..32,
        cadence in 1usize..4,
    ) {
        let dop = [1usize, 4, 8][dop_sel];
        let plan = reduce_plan(&pipe, agg_idx, &tail);
        let rate = [0.0, 0.15, 0.35][rate_sel];
        let res = FlowResilience::injected(seed, rate, cadence);
        let ctx = format!("pipe={pipe:?} agg={agg_idx} tail={tail:?} seed={seed} dop={dop}");

        let combined = ExecutionConfig::local(dop);
        let uncombined = ExecutionConfig { combining: false, ..ExecutionConfig::local(dop) };
        let c = run_surface(&plan, docs(n_docs), combined, &res);
        let u = run_surface(&plan, docs(n_docs), uncombined, &res);
        assert_surfaces_equal(&c, &u, &format!("fused, {ctx}"));

        // With fusion off a lone Reduce still takes the
        // combined path; that too must be unobservable.
        let combined_nofuse =
            ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) };
        let uncombined_nofuse = ExecutionConfig {
            fusion: false,
            combining: false,
            ..ExecutionConfig::local(dop)
        };
        let cn = run_surface(&plan, docs(n_docs), combined_nofuse, &res);
        let un = run_surface(&plan, docs(n_docs), uncombined_nofuse, &res);
        assert_surfaces_equal(&cn, &un, &format!("unfused, {ctx}"));
    }
}

/// The fixed-seed acceptance sweep: byte identity with injected faults
/// at DoP {1, 4, 8} for four fault seeds over a plan whose fused stage
/// extends through a Reduce.
#[test]
fn fault_seed_sweep_holds_identity_at_every_dop() {
    // stamp -> parity -> Count reduce -> grow: the chain fuses through
    // the reduce when combining is on.
    let plan = reduce_plan(&[0, 2], 0, &[3]);
    for seed in [11u64, 222, 3333, 44444] {
        for dop in [1usize, 4, 8] {
            let res = FlowResilience::injected(seed, 0.25, 2);
            let combined = ExecutionConfig::local(dop);
            let uncombined =
                ExecutionConfig { combining: false, ..ExecutionConfig::local(dop) };
            let c = run_surface(&plan, docs(24), combined, &res);
            let u = run_surface(&plan, docs(24), uncombined, &res);
            assert_surfaces_equal(&c, &u, &format!("seed {seed} dop {dop}"));
        }
    }
}

/// Kill-and-resume with the kill boundary strictly inside what the
/// combining executor runs as one fused Reduce stage: the synthesized
/// checkpoint a run killed there leaves behind must resume to the exact
/// uninterrupted flow, and combining on/off/unfused must all agree on the
/// result.
#[test]
fn kill_inside_fused_reduce_stage_resumes_bit_exactly() {
    // Nodes: source(0) stamp(1) parity(2) count-reduce(3) grow(4) sink(5).
    // Combining on fuses [stamp, parity, reduce] into one stage.
    let plan = reduce_plan(&[0, 2], 0, &[3]);
    let full_res = FlowResilience {
        checkpoint_every_nodes: Some(1),
        ..FlowResilience::default()
    };

    for dop in [1usize, 4, 8] {
        let exec = Executor::new(ExecutionConfig::local(dop));
        let full_obs = Observer::new();
        let opts = options(&full_res, Some(&full_obs), None);
        let full = exec.run(&plan, inputs_for(docs(18)), opts).unwrap();
        for stop in [2usize, 3] {
            // Both kill points land strictly inside the fused stage's
            // node range (before the reduce completes).
            let ckpt = &full.checkpoints[stop - 1];
            assert_eq!(ckpt.next_node, stop, "the frame a kill at {stop} leaves");

            let resumed_obs = Observer::new();
            let inputs = inputs_for(docs(18));
            let opts = options(&full_res, Some(&resumed_obs), Some(ckpt));
            let resumed = exec.run(&plan, inputs, opts).unwrap();

            assert_eq!(resumed.sinks, full.sinks, "dop {dop} stop {stop}");
            assert_eq!(
                resumed.deterministic_digest(),
                full.deterministic_digest(),
                "dop {dop} stop {stop}"
            );
            let metrics = metric_fields(&resumed.metrics);
            assert_eq!(metrics, metric_fields(&full.metrics), "dop {dop} stop {stop}");
            assert_eq!(
                resumed_obs.registry().snapshot(),
                full_obs.registry().snapshot(),
                "dop {dop} stop {stop}"
            );

            // Combining off and fusion off agree with the resumed run.
            for config in [
                ExecutionConfig { combining: false, ..ExecutionConfig::local(dop) },
                ExecutionConfig { fusion: false, combining: false, ..ExecutionConfig::local(dop) },
            ] {
                let inputs = inputs_for(docs(18));
                let opts = options(&full_res, None, None);
                let plain = Executor::new(config).run(&plan, inputs, opts).unwrap();
                assert_eq!(
                    resumed.deterministic_digest(),
                    plain.deterministic_digest(),
                    "dop {dop} stop {stop}"
                );
            }
        }
    }
}

/// The shuffle emulation is the physical side of combining: fewer bytes
/// must cross the reduce boundary with combining on, while the
/// deterministic surfaces above stay untouched.
#[test]
fn combining_shrinks_shuffle_bytes_without_touching_surfaces() {
    let plan = reduce_plan(&[0, 1], 0, &[]);
    let run = |combining: bool| {
        let inputs = inputs_for(docs(30));
        Executor::new(ExecutionConfig { combining, ..ExecutionConfig::local(4) })
            .run(&plan, inputs, RunOptions::default())
            .unwrap()
    };
    let c = run(true);
    let u = run(false);
    assert_eq!(c.sinks, u.sinks);
    assert_eq!(c.deterministic_digest(), u.deterministic_digest());
    assert!(
        c.physical.shuffle_bytes < u.physical.shuffle_bytes,
        "combined {} !< uncombined {}",
        c.physical.shuffle_bytes,
        u.physical.shuffle_bytes
    );
}
