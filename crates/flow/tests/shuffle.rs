//! Sharded-execution equivalence properties (the byte-identity contract
//! behind `ExecutionConfig::sharding`):
//!
//! 1. sharding is *physical only*: across randomly generated chain
//!    plans, fault seeds, DoPs, fusion and combining toggles, and shard
//!    counts, a run on N worker shards is indistinguishable from the
//!    in-process run on every deterministic surface — sink `Snapshot`
//!    bytes, every deterministic `FlowMetrics` field, bit-exact `simulated_secs`,
//!    the deterministic digest, tracer JSONL, registry snapshot,
//!    checkpoint frame bytes, and the WS00x analyzer verdict;
//! 2. the identity holds when the shards are real OS processes (the
//!    `shard_worker` binary) exchanging length-prefixed frames over
//!    pipes, not just in-process socketpair threads;
//! 3. a worker killed mid-run surfaces as `ShardLost` carrying the
//!    checkpoints taken so far, and resuming from them — even at a
//!    *different* shard count than the killed run, or unsharded —
//!    reproduces the uninterrupted flow bit for bit;
//! 4. an uncombined Reduce is grouped in the parent whatever the
//!    sharding: the stages around it still ship, it pins nothing, and a
//!    plan that is only that Reduce spawns no worker at all;
//! 5. records routed to a store sink (`RunOptions::store`) land
//!    identically, so serve-side snapshots cannot observe sharding;
//! 6. the *real* pipeline ships whole: preprocessing into dictionary +
//!    CRF entity annotation, and into the token-frequency reduce, built
//!    from `packages::*`, run on worker processes that rebuild every
//!    operator — and retrain the taggers from their recipe — with no
//!    stage pinned local and every surface identical.
//!
//! The third axis of the `tests/fusion.rs` / `tests/partial_agg.rs`
//! equivalence family.

mod common;

use common::{
    assert_surfaces_equal, docs, inputs_for, medline_records, metric_fields, options, pool_op,
    run_surface,
};
use proptest::prelude::*;
use websift_corpus::LexiconScale;
use websift_flow::packages::{base, dc, ie, wa};
use websift_flow::{
    ExecutionConfig, ExecutionError, Executor, FlowResilience, IeResources, KillSpec, LogicalPlan,
    Record, RunOptions, ShardConfig, StoreSink,
};
use websift_ner::EntityType;
use websift_resilience::{Snapshot, Writer};

/// The path of the real worker-process binary, resolved by Cargo for
/// this crate's own `shard_worker` bin target.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_shard_worker")
}

fn chain_plan(indices: &[usize]) -> LogicalPlan {
    common::chain_plan(pool_op, indices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: the worker-shard count is unobservable on
    /// every deterministic surface, whatever the fusion/combining
    /// toggles, DoP, fault seed, or checkpoint cadence.
    #[test]
    fn shard_count_is_byte_identical_to_in_process_execution(
        indices in prop::collection::vec(0usize..7, 1..8),
        seed in 0u64..1_000_000,
        rate_sel in 0usize..3,
        dop_sel in 0usize..3,
        n_docs in 0usize..40,
        cadence in 1usize..4,
        fusion_sel in 0usize..2,
        combining_sel in 0usize..2,
    ) {
        let (fusion, combining) = (fusion_sel == 1, combining_sel == 1);
        let dop = [1usize, 4, 8][dop_sel];
        let plan = chain_plan(&indices);
        let rate = [0.0, 0.15, 0.35][rate_sel];
        let res = FlowResilience::injected(seed, rate, cadence);
        let config = |sharding: Option<ShardConfig>| ExecutionConfig {
            fusion,
            combining,
            sharding,
            ..ExecutionConfig::local(dop)
        };

        let baseline = run_surface(&plan, docs(n_docs), config(None), &res);
        for shards in [1usize, 2, 4] {
            let sharded =
                run_surface(&plan, docs(n_docs), config(Some(ShardConfig::in_process(shards))), &res);
            let ctx = format!(
                "indices={indices:?} seed={seed} dop={dop} fusion={fusion} \
                 combining={combining} shards={shards}"
            );
            assert_surfaces_equal(&sharded, &baseline, &ctx);
        }
    }
}

/// The counted fallback: an operator without a wire form (the
/// closure-keyed reduce, index 3) pins the stage it ends on the
/// local runner — visible in physical stats, invisible on every
/// deterministic surface — while the shippable stages around it still
/// go to the shards.
#[test]
fn spec_less_stage_pins_local_and_is_counted() {
    let plan = chain_plan(&[0, 3, 4]);
    let res = FlowResilience::injected(5, 0.2, 2);
    let config = |sharding: Option<ShardConfig>| ExecutionConfig {
        sharding,
        ..ExecutionConfig::local(4)
    };
    let baseline = run_surface(&plan, docs(24), config(None), &res);
    let sharded = run_surface(&plan, docs(24), config(Some(ShardConfig::in_process(2))), &res);
    assert_surfaces_equal(&sharded, &baseline, "pinned stage");

    let physical = |sharding: Option<ShardConfig>| {
        Executor::new(config(sharding))
            .run(&plan, inputs_for(docs(24)), RunOptions::default())
            .expect("run succeeds")
            .physical
    };
    let sharded = physical(Some(ShardConfig::in_process(2)));
    assert_eq!(sharded.stages_pinned_local, 1, "only the closure-built reduce is pinned");
    assert_eq!(sharded.shards_used, 2, "the stages around it still shipped");
    assert_eq!(physical(None).stages_pinned_local, 0, "nothing pins when nothing is sharded");
}

/// The fixed acceptance sweep with *real OS worker processes*: the
/// `shard_worker` binary, spawned N >= 2 times, speaking the frame
/// protocol over stdin/stdout pipes, must match the in-process engine
/// byte for byte — with injected faults, across fusion x combining and
/// the shard grid.
#[test]
fn real_worker_processes_match_in_process_execution() {
    // stamp -> dup -> parity -> tally -> grow: a fused pipeline into a
    // reduce, so combining=false also puts a parent-side
    // grouping between two shipped stages.
    let plan = chain_plan(&[0, 1, 2, 6, 4]);
    for seed in [7u64, 4242] {
        for (fusion, combining) in [(true, true), (true, false), (false, false)] {
            for dop in [1usize, 4] {
                let res = FlowResilience::injected(seed, 0.2, 2);
                let config = |sharding: Option<ShardConfig>| ExecutionConfig {
                    fusion,
                    combining,
                    sharding,
                    ..ExecutionConfig::local(dop)
                };
                let baseline = run_surface(&plan, docs(24), config(None), &res);
                for shards in [2usize, 3] {
                    let cfg = ShardConfig::process(shards, worker_bin());
                    let sharded = run_surface(&plan, docs(24), config(Some(cfg)), &res);
                    let ctx = format!(
                        "seed {seed} dop {dop} fusion {fusion} combining {combining} \
                         shards {shards} (process)"
                    );
                    assert_surfaces_equal(&sharded, &baseline, &ctx);
                }
            }
        }
    }

    // The run really went through worker processes: physical stats count
    // the shards and the frames/bytes that crossed the pipes.
    let cfg = ExecutionConfig {
        sharding: Some(ShardConfig::process(2, worker_bin())),
        ..ExecutionConfig::local(4)
    };
    let out = Executor::new(cfg)
        .run(&chain_plan(&[0, 2, 4]), inputs_for(docs(24)), RunOptions::default())
        .expect("sharded run succeeds");
    assert_eq!(out.physical.shards_used, 2, "two real worker processes");
    assert!(out.physical.shard_frames > 0, "frames crossed the pipes");
    assert!(out.physical.shard_wire_bytes > 0, "payload bytes crossed the pipes");
}

/// Chunks several times a pipe's buffer, eight of them queued toward one
/// worker process: the worker blocks writing a large result while the
/// parent still has data frames to send. A credit window counted in
/// frames alone lets both sides block on full pipes forever; the byte
/// bound on unanswered data is what keeps this conversation moving.
#[test]
fn chunks_larger_than_a_pipe_buffer_do_not_deadlock_the_conversation() {
    let plan = chain_plan(&[0, 4]);
    let big_docs = || -> Vec<Record> {
        (0..16i64)
            .map(|i| {
                let mut r = Record::new();
                r.set("id", i).set("text", "web text ".repeat(5_000));
                r
            })
            .collect()
    };
    let res = FlowResilience::default();
    let config = |sharding: Option<ShardConfig>| ExecutionConfig {
        sharding,
        ..ExecutionConfig::local(8)
    };
    let baseline = run_surface(&plan, big_docs(), config(None), &res);
    for sharding in [ShardConfig::process(1, worker_bin()), ShardConfig::in_process(1)] {
        let ctx = format!("{:?}", sharding.worker);
        let sharded = run_surface(&plan, big_docs(), config(Some(sharding)), &res);
        assert_surfaces_equal(&sharded, &baseline, &ctx);
    }
}

/// Kill a worker shard mid-run: the run fails as `ShardLost` carrying
/// every checkpoint taken so far, and resuming from the last one — at a
/// *different* shard count than the killed run, at the same count, or
/// entirely unsharded — reproduces the uninterrupted flow bit for bit.
#[test]
fn killed_shard_resumes_bit_exactly_at_mismatched_shard_counts() {
    // stamp -> parity -> tally -> grow, unfused so every node is its own
    // constituent and checkpoints land between them; combining off so the
    // tally is grouped in the parent, between shipped stages. Each of the
    // three shipped stages moves 5 frames over shard 0's channel, so the
    // kills below land inside the first, the second and the last of them.
    let plan = chain_plan(&[0, 2, 6, 4]);
    let full_res = FlowResilience { checkpoint_every_nodes: Some(1), ..FlowResilience::default() };
    let config = |sharding: Option<ShardConfig>| ExecutionConfig {
        fusion: false,
        combining: false,
        sharding,
        ..ExecutionConfig::local(4)
    };

    let full = Executor::new(config(Some(ShardConfig::in_process(2))))
        .run(&plan, inputs_for(docs(24)), options(&full_res, None, None))
        .expect("uninterrupted run succeeds");

    let mut resumes = 0usize;
    for after_frames in [3u64, 8, 13] {
        let kill = KillSpec { shard: 0, after_frames };
        let cfg = ShardConfig::in_process(2).with_kill(kill);
        let opts = options(&full_res, None, None);
        let result = Executor::new(config(Some(cfg))).run(&plan, inputs_for(docs(24)), opts);
        match result {
            Err(ExecutionError::ShardLost { shard, checkpoints, .. }) => {
                assert_eq!(shard, 0, "the killed shard is the lost one");
                let Some(ckpt) = checkpoints.last() else {
                    // killed inside the first constituent, before any
                    // checkpoint existed — nothing to resume from
                    continue;
                };
                // resume at a mismatched shard count, the same count,
                // and unsharded: checkpoint frames are shard-agnostic
                for resume_sharding in
                    [Some(ShardConfig::in_process(3)), Some(ShardConfig::in_process(2)), None]
                {
                    let label = match &resume_sharding {
                        Some(s) => format!("{} shards", s.shards),
                        None => "unsharded".to_string(),
                    };
                    let resumed = Executor::new(config(resume_sharding))
                        .run(&plan, inputs_for(docs(24)), options(&full_res, None, Some(ckpt)))
                        .expect("resume succeeds");
                    let ctx = format!("after_frames {after_frames}, resume {label}");
                    assert_eq!(resumed.sinks, full.sinks, "{ctx}");
                    assert_eq!(
                        resumed.deterministic_digest(),
                        full.deterministic_digest(),
                        "{ctx}"
                    );
                    let metrics = metric_fields(&resumed.metrics);
                    assert_eq!(metrics, metric_fields(&full.metrics), "{ctx}");
                }
                resumes += 1;
            }
            Ok(out) => {
                // the kill threshold was past the run's total traffic
                assert_eq!(out.deterministic_digest(), full.deterministic_digest());
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(resumes >= 1, "at least one kill fired mid-run and resumed");
}

/// With `respawn_lost`, the pool replaces the killed worker and re-runs
/// its unfinished chunks: the run completes, every surface matches the
/// unsharded baseline, and the respawn is visible in physical stats.
#[test]
fn respawned_worker_completes_the_run_identically() {
    let plan = chain_plan(&[0, 1, 2, 4]);
    let res = FlowResilience::default();
    let config = |sharding: Option<ShardConfig>| ExecutionConfig {
        sharding,
        ..ExecutionConfig::local(4)
    };
    let baseline = run_surface(&plan, docs(24), config(None), &res);

    let cfg = ShardConfig::in_process(2)
        .with_kill(KillSpec { shard: 1, after_frames: 3 })
        .with_respawn(true);
    let sharded = run_surface(&plan, docs(24), config(Some(cfg)), &res);
    assert_surfaces_equal(&sharded, &baseline, "respawned run");

    let cfg = ShardConfig::in_process(2)
        .with_kill(KillSpec { shard: 1, after_frames: 3 })
        .with_respawn(true);
    let out = Executor::new(config(Some(cfg)))
        .run(&plan, inputs_for(docs(24)), RunOptions::default())
        .expect("respawned run succeeds");
    assert!(out.physical.shard_respawns >= 1, "the lost worker was respawned");
}

/// An uncombined Reduce is grouped where its records already are — in the
/// parent — so sharding cannot be observed through it: every surface
/// equals the unsharded baseline, the shippable stage before it still goes
/// to the shards and nothing is pinned; a plan that is only source ->
/// uncombined reduce -> sink never spawns a worker.
#[test]
fn uncombined_reduce_groups_in_the_parent_and_stays_byte_identical() {
    let res = FlowResilience::default();
    let config = |sharding: Option<ShardConfig>| ExecutionConfig {
        combining: false,
        sharding,
        ..ExecutionConfig::local(4)
    };
    let physical = |plan: &LogicalPlan| {
        Executor::new(config(Some(ShardConfig::in_process(2))))
            .run(plan, inputs_for(docs(80)), RunOptions::default())
            .expect("sharded run succeeds")
            .physical
    };
    // stamp -> tally, then the tally alone
    for indices in [&[0usize, 6][..], &[6]] {
        let plan = chain_plan(indices);
        let baseline = run_surface(&plan, docs(80), config(None), &res);
        let sharded =
            run_surface(&plan, docs(80), config(Some(ShardConfig::in_process(2))), &res);
        assert_surfaces_equal(&sharded, &baseline, &format!("uncombined reduce {indices:?}"));
    }

    let after_a_map = physical(&chain_plan(&[0, 6]));
    assert_eq!(after_a_map.stages_pinned_local, 0, "grouping in the parent is not a pin");
    assert_eq!(after_a_map.shards_used, 2, "the map before the reduce still shipped");
    assert!(after_a_map.shuffle_bytes > 0, "the full stream crossed the codec");

    let alone = physical(&chain_plan(&[6]));
    assert_eq!(alone.stages_pinned_local, 0);
    assert_eq!((alone.shards_used, alone.shard_frames), (0, 0), "a lone reduce spawns no worker");
}

/// Fan-out plans: the fused chain tees an interior node to a side sink,
/// so worker shards must ship tap streams back alongside the main
/// stream. Every branch point must be shard-invariant on both sinks.
#[test]
fn fan_out_tee_is_shard_invariant() {
    for branch_at in 1..=4usize {
        let plan = common::fan_out_plan(pool_op, branch_at);
        for seed in [0u64, 909] {
            let res = FlowResilience::injected(seed, 0.2, 2);
            let baseline =
                run_surface(&plan, docs(24), ExecutionConfig::local(4), &res);
            assert!(baseline.error.is_none(), "fan-out plan must run: {:?}", baseline.error);
            for shards in [2usize, 4] {
                let sharded = run_surface(
                    &plan,
                    docs(24),
                    ExecutionConfig {
                        sharding: Some(ShardConfig::in_process(shards)),
                        ..ExecutionConfig::local(4)
                    },
                    &res,
                );
                let ctx = format!("branch_at {branch_at} seed {seed} shards {shards}");
                assert_surfaces_equal(&sharded, &baseline, &ctx);
            }
        }
    }
}

/// A store sink capturing exactly what the executor delivers, encoded
/// through the same `Snapshot` codec the serve-side stores persist.
struct RecordingStore {
    rows: Vec<(String, Vec<u8>)>,
}

impl StoreSink for RecordingStore {
    fn store_name(&self) -> &str {
        "kb"
    }
    fn append(&mut self, dataset: &str, records: Vec<Record>) {
        for r in records {
            let mut w = Writer::new();
            r.encode(&mut w);
            self.rows.push((dataset.to_string(), w.into_bytes()));
        }
    }
}

/// The eighth surface: records routed into a store via
/// [`RunOptions::store`] arrive in the same order with the same bytes
/// whatever the shard count, so serve-side snapshots built from a
/// sharded run are byte-identical to in-process ones.
#[test]
fn store_snapshots_cannot_observe_sharding() {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("in");
    for idx in [0usize, 1, 2, 4] {
        prev = plan.add(prev, pool_op(idx)).expect("store plan");
    }
    plan.sink(prev, "store:kb/docs").expect("store plan");

    let run = |sharding: Option<ShardConfig>| {
        let mut store = RecordingStore { rows: Vec::new() };
        let opts = RunOptions { store: Some(&mut store), ..RunOptions::default() };
        let out = Executor::new(ExecutionConfig { sharding, ..ExecutionConfig::local(4) })
            .run(&plan, inputs_for(docs(30)), opts)
            .expect("store run succeeds");
        (store.rows, out.deterministic_digest())
    };

    let (base_rows, base_digest) = run(None);
    assert!(!base_rows.is_empty(), "records reached the store");
    for shards in [1usize, 2, 4] {
        let (rows, digest) = run(Some(ShardConfig::in_process(shards)));
        assert_eq!(rows, base_rows, "store rows diverged at {shards} shards");
        assert_eq!(digest, base_digest, "digest diverged at {shards} shards");
    }
}

/// The preprocessing prefix every extraction flow starts with (the
/// shape of `websift_pipeline::flows`, which this crate cannot depend
/// on), over the source "in".
fn preprocessing(plan: &mut LogicalPlan) -> usize {
    let mut cur = plan.source("in");
    for op in [
        base::filter_length(base::DEFAULT_MAX_TEXT_CHARS),
        wa::detect_markup(),
        wa::repair_markup_op(),
        wa::extract_net_text(),
        dc::drop_untranscodable(),
        dc::filter_empty_text(),
        dc::normalize_whitespace(),
        ie::annotate_sentences(),
        ie::annotate_tokens(),
    ] {
        cur = plan.add(cur, op).expect("static plan");
    }
    cur
}

/// The real pipeline on real processes. Also the cross-process
/// reproducibility test of `IeResources::standard`: each worker process
/// retrains the dictionary and CRF taggers from the shipped recipe, and
/// a tagger that differed from the parent's by one weight would show up
/// in the sink bytes. Every arm runs at unit scale and at a non-unit
/// `work_scale`/`byte_scale`: the kernel and the STAGE frame carry raw
/// per-record costs and the parent scales them, so fusion, combining and
/// shards must not see the simulated model either.
#[test]
fn the_ie_pipeline_ships_whole_to_worker_processes_and_threads() {
    let resources = IeResources::quick_for_tests(LexiconScale::tiny());

    let mut entities = LogicalPlan::new();
    let mut cur = preprocessing(&mut entities);
    for op in [
        ie::annotate_entities_dict(&resources, EntityType::Gene),
        ie::annotate_entities_ml(&resources, EntityType::Gene),
        dc::dedup_entities(),
    ] {
        cur = entities.add(cur, op).expect("static plan");
    }
    entities.sink(cur, "entities").expect("static plan");

    let mut tokens = LogicalPlan::new();
    let pre = preprocessing(&mut tokens);
    let exploded = tokens.add(pre, ie::explode_tokens()).expect("static plan");
    let counts = tokens.add(exploded, base::count_by("token")).expect("static plan");
    tokens.sink(counts, "token_frequencies").expect("static plan");

    let res = FlowResilience::injected(7, 0.1, 2);
    for (name, plan) in [("entities", &entities), ("tokens", &tokens)] {
        let mut clocks = Vec::new();
        for (work_scale, byte_scale) in [(1.0, 1.0), (3.7, 0.185)] {
            let config = |fusion, combining, sharding| ExecutionConfig {
                work_scale,
                byte_scale,
                fusion,
                combining,
                sharding,
                ..ExecutionConfig::local(4)
            };
            let baseline = run_surface(plan, medline_records(24), config(false, false, None), &res);
            assert!(baseline.error.is_none(), "{name} must run: {:?}", baseline.error);
            assert!(baseline.sink_bytes.as_ref().is_some_and(|b| b.len() > 1000));
            clocks.push(baseline.simulated_bits);
            let procs = ShardConfig::process(2, worker_bin());
            let threads = ShardConfig::in_process(2);
            for (combining, sharding) in [
                (false, None), (false, Some(procs.clone())), (false, Some(threads.clone())),
                (true, None), (true, Some(procs)), (true, Some(threads)),
            ] {
                let shards = sharding.as_ref().map(|s| s.worker.clone());
                let ctx = format!("{name} x{work_scale} combining={combining} {shards:?}");
                let config = config(true, combining, sharding);
                let got = run_surface(plan, medline_records(24), config.clone(), &res);
                assert_surfaces_equal(&got, &baseline, &ctx);
                if shards.is_none() {
                    continue;
                }

                let physical = Executor::new(config)
                    .run(plan, inputs_for(medline_records(24)), RunOptions::default())
                    .expect("sharded run succeeds")
                    .physical;
                assert_eq!(physical.stages_pinned_local, 0, "{ctx}: a stage stayed local");
                assert_eq!(physical.shards_used, 2, "{ctx}");
                assert!(physical.shard_wire_bytes > 0, "{ctx}");
            }
        }
        assert_ne!(clocks[0], clocks[1], "{name}: the scale reaches the simulated clock");
    }
}
