//! Fusion equivalence properties (the byte-identity contract behind
//! `ExecutionConfig::fusion`):
//!
//! 1. across randomly generated chain plans, fault seeds, DoPs,
//!    checkpoint cadences and simulated-model scales, a fused run is
//!    indistinguishable from an unfused run on every deterministic
//!    surface — sink `Snapshot` bytes, store rows, every deterministic
//!    `FlowMetrics` field, bit-exact `simulated_secs`, tracer JSONL,
//!    registry snapshot, and the WS00x analyzer verdict (including plans
//!    the analyzer rejects);
//! 2. the same identity holds on fan-out plans, where the fused chain
//!    tees an interior node's stream to a side consumer — a plain sink or
//!    a store;
//! 3. killing a run at a random node boundary — resuming from the last
//!    frame its uninterrupted run sealed at or before that boundary,
//!    which is what a killed run leaves behind — reproduces the
//!    uninterrupted run bit for bit, fused or unfused, combined or
//!    uncombined.

mod common;

use common::{
    assert_surfaces_equal, docs, inputs_for, medline_records, metric_fields, options, pool_op,
    run_surface,
};
use proptest::prelude::*;
use websift_flow::{
    ExecutionConfig, ExecutionError, Executor, FlowResilience, LogicalPlan, NodeOp,
};
use websift_observe::{Labels, Observer};
use websift_resilience::CodecError;

fn chain_plan(indices: &[usize]) -> LogicalPlan {
    common::chain_plan(pool_op, indices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_run_is_byte_identical_to_unfused(
        indices in prop::collection::vec(0usize..7, 1..8),
        seed in 0u64..1_000_000,
        rate_sel in 0usize..3,
        dop in 1usize..6,
        n_docs in 0usize..40,
        cadence in 1usize..4,
        scale_sel in 0usize..2,
    ) {
        let plan = chain_plan(&indices);
        let rate = [0.0, 0.15, 0.35][rate_sel];
        let res = FlowResilience::injected(seed, rate, cadence);
        // The stage kernel sees raw per-record costs; the executor applies
        // the simulated model's scales, so fusion must not see them either.
        let (work_scale, byte_scale) = [(1.0, 1.0), (3.7, 0.185)][scale_sel];
        let fused = ExecutionConfig { work_scale, byte_scale, ..ExecutionConfig::local(dop) };
        let unfused = ExecutionConfig { fusion: false, ..fused.clone() };

        let f = run_surface(&plan, docs(n_docs), fused, &res);
        let u = run_surface(&plan, docs(n_docs), unfused, &res);

        let ctx = format!("indices={indices:?} seed={seed} dop={dop} scale={work_scale}");
        assert_surfaces_equal(&f, &u, &ctx);
    }

    #[test]
    fn kill_and_resume_across_fused_stage_is_bit_exact(
        indices in prop::collection::vec(0usize..6, 2..7),
        stop_frac in 0usize..100,
        dop in 1usize..5,
        n_docs in 1usize..30,
        mode in 0usize..3,
    ) {
        // Fault-free so the kill point is the only perturbation; ops from
        // the panic-free part of the vocabulary (no analyzer rejection):
        // draw 5 is remapped to the combinable Count reduce (index 6) so
        // kill points land inside fused Reduce stages too, and the
        // WS001-tripping needs-stamp op stays out.
        let indices: Vec<usize> =
            indices.into_iter().map(|i| if i == 5 { 6 } else { i }).collect();
        let plan = chain_plan(&indices);
        let full_res = FlowResilience {
            checkpoint_every_nodes: Some(1),
            ..FlowResilience::default()
        };
        // Kill somewhere strictly inside the plan, after at least one
        // checkpointable node.
        let stop = 1 + stop_frac % (plan.len() - 1);
        // The killed and the resumed run: fused, unfused, or unfused and
        // uncombined (every Reduce grouped in the parent).
        let config = match mode {
            0 => ExecutionConfig::local(dop),
            1 => ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) },
            _ => ExecutionConfig { fusion: false, combining: false, ..ExecutionConfig::local(dop) },
        };

        let exec = Executor::new(config);
        let full_obs = Observer::new();
        let opts = options(&full_res, Some(&full_obs), None);
        let full = exec.run(&plan, inputs_for(docs(n_docs)), opts).unwrap();
        // With checkpoint_every_nodes = 1 a kill strictly inside the plan
        // always has at least one checkpoint behind it.
        let ckpt = full
            .checkpoints
            .iter()
            .rfind(|c| c.next_node <= stop)
            .expect("checkpoint before the kill point");

        let resumed_obs = Observer::new();
        let opts = options(&full_res, Some(&resumed_obs), Some(ckpt));
        let resumed = exec.run(&plan, inputs_for(docs(n_docs)), opts).unwrap();

        prop_assert_eq!(
            resumed.sinks,
            full.sinks,
            "sinks diverged for {:?} stop={} mode={}",
            indices,
            stop,
            mode
        );
        prop_assert_eq!(
            resumed.deterministic_digest(),
            full.deterministic_digest(),
            "digest diverged for {:?} stop={}",
            indices,
            stop
        );
        prop_assert_eq!(
            metric_fields(&resumed.metrics),
            metric_fields(&full.metrics),
            "metrics diverged for {:?} stop={}",
            indices,
            stop
        );
        prop_assert_eq!(
            resumed_obs.registry().snapshot(),
            full_obs.registry().snapshot(),
            "registry diverged for {:?} stop={}",
            indices,
            stop
        );

        // And the unfused and uncombined engines agree with the resume.
        for config in [
            ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) },
            ExecutionConfig { combining: false, ..ExecutionConfig::local(dop) },
        ] {
            let other = Executor::new(config);
            let opts = options(&full_res, None, None);
            let plain = other.run(&plan, inputs_for(docs(n_docs)), opts).unwrap();
            prop_assert_eq!(
                resumed.deterministic_digest(),
                plain.deterministic_digest(),
                "resume diverged from unfused/uncombined run for {:?} stop={} mode={}",
                indices,
                stop,
                mode
            );
        }
    }
}

/// Fan-out plans: the fused chain tees an interior node to a side sink,
/// plain or a store's. Every branch point must agree with the unfused
/// engine on both sinks, store rows and checkpoint frames included.
#[test]
fn fan_out_tee_matches_unfused() {
    for (branch_at, side) in (1..=4usize).flat_map(|b| [(b, "side"), (b, "store:kb/side")]) {
        let plan = common::fan_out_plan(pool_op, branch_at, side);
        for dop in [1usize, 4, 8] {
            for seed in [0u64, 909] {
                let res = FlowResilience::injected(seed, 0.2, 2);
                let unfused = run_surface(
                    &plan,
                    docs(24),
                    ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) },
                    &res,
                );
                assert!(unfused.error.is_none(), "fan-out plan must run: {:?}", unfused.error);
                let stored = !unfused.store_rows.is_empty();
                assert_eq!(stored, side != "side", "only a store sink delivers store rows");
                let fused = run_surface(&plan, docs(24), ExecutionConfig::local(dop), &res);
                let ctx = format!("branch_at {branch_at} {side} dop {dop} seed {seed}");
                assert_surfaces_equal(&fused, &unfused, &ctx);
            }
        }
    }
}

/// The token-frequency flow with a frame due at the explode→count
/// boundary only: the boundary whose records stream from
/// `core.explode_tokens` straight into the `base.count_by` fold and reach
/// the frame through a tap.
fn token_frequency_with_a_frame_at_the_fold() -> (LogicalPlan, FlowResilience, usize) {
    let plan = websift_pipeline::token_frequency_flow("in");
    let explode = plan
        .nodes()
        .iter()
        .position(|n| matches!(&n.op, NodeOp::Op(op) if op.name == "core.explode_tokens"))
        .expect("the flow explodes tokens");
    let boundary = explode + 1;
    assert!(2 * boundary > plan.len(), "one frame, at the fold's input");
    let res =
        FlowResilience { checkpoint_every_nodes: Some(boundary), ..FlowResilience::default() };
    (plan, res, boundary)
}

/// Killed at the streamed boundary and resumed from its frame, the run
/// equals the uninterrupted one in sinks, registry and simulated clock
/// bits; and the frame the fused, streamed pass sealed there is
/// byte-equal to the ones unfused and uncombined runs seal — at unit
/// scale and under a scaled simulated model, which the kernel never
/// sees.
#[test]
fn token_frequency_killed_at_the_streamed_boundary_resumes_bit_exact() {
    let (plan, res, boundary) = token_frequency_with_a_frame_at_the_fold();
    let exec = Executor::new(ExecutionConfig::local(2));
    let full_obs = Observer::new();
    let opts = options(&res, Some(&full_obs), None);
    let full = exec.run(&plan, inputs_for(medline_records(12)), opts).unwrap();
    let frames: Vec<usize> = full.checkpoints.iter().map(|c| c.next_node).collect();
    assert_eq!(frames, [boundary]);

    let resumed_obs = Observer::new();
    let opts = options(&res, Some(&resumed_obs), Some(&full.checkpoints[0]));
    let resumed = exec.run(&plan, inputs_for(medline_records(12)), opts).unwrap();
    assert_eq!(resumed.sinks, full.sinks);
    assert!(full.sinks["token_frequencies"].len() > 100, "a real vocabulary was counted");
    assert_eq!(resumed.metrics.simulated_secs.to_bits(), full.metrics.simulated_secs.to_bits());
    assert_eq!(metric_fields(&resumed.metrics), metric_fields(&full.metrics));
    assert_eq!(resumed_obs.registry().snapshot(), full_obs.registry().snapshot());
    assert_eq!(resumed.deterministic_digest(), full.deterministic_digest());

    let mut clocks = Vec::new();
    for (work_scale, byte_scale) in [(1.0, 1.0), (3.7, 0.185)] {
        let scaled = ExecutionConfig { work_scale, byte_scale, ..ExecutionConfig::local(2) };
        let streamed = run_surface(&plan, medline_records(12), scaled.clone(), &res);
        if work_scale == 1.0 {
            let sealed = full.checkpoints[0].as_bytes().to_vec();
            assert_eq!(streamed.checkpoints, [(boundary, sealed)]);
        }
        clocks.push(streamed.simulated_bits);
        for (what, config) in [
            ("unfused", ExecutionConfig { fusion: false, ..scaled.clone() }),
            ("uncombined", ExecutionConfig { combining: false, ..scaled.clone() }),
        ] {
            let other = run_surface(&plan, medline_records(12), config, &res);
            assert_surfaces_equal(&other, &streamed, &format!("{what} x{work_scale}"));
        }
    }
    assert_ne!(clocks[0], clocks[1], "the scale reaches the simulated clock");
}

/// A real frame carries every series of the observer it was sealed on,
/// a writer's own or not. Resumed onto an observer that holds one of them
/// under another kind, it is refused — restoring it would panic the
/// observer's next update of that series — and the observer keeps what
/// it held.
#[test]
fn a_frame_whose_series_another_kind_holds_is_refused() {
    let (plan, res, _) = token_frequency_with_a_frame_at_the_fold();
    let exec = Executor::new(ExecutionConfig::local(2));
    let sealed_on = Observer::new();
    sealed_on.registry().gauge("x", &Labels::empty()).set(2.5);
    let opts = options(&res, Some(&sealed_on), None);
    let full = exec.run(&plan, inputs_for(medline_records(4)), opts).unwrap();

    let resumed_on = Observer::new();
    resumed_on.registry().counter("x", &Labels::empty()).add(3);
    let opts = options(&res, Some(&resumed_on), Some(&full.checkpoints[0]));
    let refused = exec.run(&plan, inputs_for(medline_records(4)), opts).unwrap_err();
    let clash = CodecError::BadTag { what: "registry series kind", tag: 1 };
    assert_eq!(refused, ExecutionError::BadCheckpoint(clash));
    assert_eq!(resumed_on.registry().counter("x", &Labels::empty()).value(), 3);
}
