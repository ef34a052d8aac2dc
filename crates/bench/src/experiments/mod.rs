//! The experiment suite: one function per paper table/figure, each
//! returning [`ExperimentResult`]s for paper-vs-measured reporting.
//!
//! | function | reproduces |
//! |---|---|
//! | [`crawl_exps::table1`] | Table 1 (seed keyword categories) |
//! | [`crawl_exps::crawl`] | §4.1 crawl statistics (harvest rate, filters, throughput, seeds) |
//! | [`crawl_exps::classifier`] | §4.1 classifier quality (10-fold CV + crawl sample) |
//! | [`crawl_exps::boilerplate`] | §4.1 boilerplate detection quality |
//! | [`crawl_exps::table2`] | Table 2 (top domains by PageRank) |
//! | [`crawl_exps::tradeoff`] | §5 precision-vs-yield classifier trade-off |
//! | [`scaling_exps::fig3`] | Fig. 3 (tool runtime vs input length) |
//! | [`scaling_exps::fig4`] | Fig. 4 (scale-up) |
//! | [`scaling_exps::fig5`] | Fig. 5 (scale-out) |
//! | [`scaling_exps::warstory`] | §4.2 "war story" failures and mitigations |
//! | [`content_exps::table3`] | Table 3 (corpus summary) |
//! | [`content_exps::fig6`] | Fig. 6 + §4.3.1 (linguistic distributions, MWW tests) |
//! | [`content_exps::fig7`] | Fig. 7 (entity incidence per corpus) |
//! | [`content_exps::table4`] | Table 4 (+ TLA filtering) |
//! | [`content_exps::fig8`] | Fig. 8 (annotation overlap, JSD) |
//! | [`profile_exps::cost_decomposition`] | Fig. 8 cost split (startup vs per-record, live from the registry; folded stacks) |
//! | [`throughput_exps::fusion`] / [`throughput_exps::combining`] | wall-clock records/sec of the executor, fused vs unfused and combined vs uncombined |
//! | [`ablation_exps::ablations`] | the design ablations DESIGN.md calls out, arms held to agreement |
//! | [`serve_exps::serve`] | serving-layer response digests under admission-controlled concurrent clients, across shard counts and snapshot/resume |
//! | [`live_exps::live`] | incremental delta pass vs batch full recompute, per crawl round and DoP |
//! | [`recovery_exps::crawl_recovery`] | crawl goodput under injected faults + checkpoint count and bytes |
//! | [`recovery_exps::flow_recovery`] | flow partition/node-loss recovery + kill-and-resume check |
//! | [`analyze_exps::known_bad`] | §4.2 failure modes caught pre-flight by the static analyzer |

pub mod ablation_exps;
pub mod analyze_exps;
pub mod content_exps;
pub mod crawl_exps;
pub mod live_exps;
pub mod profile_exps;
pub mod recovery_exps;
pub mod scaling_exps;
pub mod serve_exps;
pub mod throughput_exps;
