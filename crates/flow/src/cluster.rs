//! The simulated cluster: node specs, admission control, and the network
//! model.
//!
//! This is the substitute for the paper's hardware ("a 28 node cluster,
//! where each node was equipped with 24 GB RAM, 1 TB HDD, and a Intel Xeon
//! E5-2620 CPU with 6 cores", 1 Gb links). Operators execute for real on
//! local threads; what the cluster simulates is the *resource envelope*:
//!
//! - **memory admission** — Stratosphere's scheduler "does not consider
//!   memory consumption per worker node", which is exactly how the paper's
//!   full flow (≈60 GB per worker) became unrunnable. Our
//!   [`admit`] check makes that failure explicit and typed;
//! - **library conflicts** — "the Java class loader ... is not capable of
//!   using two different versions of the same library" (OpenNLP 1.4 vs
//!   1.5);
//! - **network capacity** — intermediate annotation data (1.6 TB at paper
//!   scale) overwhelming a 1 Gb switch, causing "time-out induced crashes".

use crate::logical::LogicalPlan;
use std::collections::HashMap;

/// One compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    pub ram_bytes: u64,
    pub cores: usize,
}

/// The cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub nodes: Vec<NodeSpec>,
    /// Aggregate switch bandwidth in gigabits per second.
    pub network_gbps: f64,
    /// Intermediate-data volume (bytes in flight within one flow execution)
    /// beyond which the network model declares timeout-induced failure.
    pub network_overload_bytes: u64,
}

impl ClusterSpec {
    /// The paper's analysis cluster: 28 × (24 GB, 6 cores), 1 Gb links.
    pub fn paper_cluster() -> ClusterSpec {
        ClusterSpec {
            nodes: vec![
                NodeSpec {
                    ram_bytes: 24 << 30,
                    cores: 6,
                };
                28
            ],
            network_gbps: 1.0,
            // ~1 Gb/s sustained over a tolerable 10-minute window
            network_overload_bytes: 75 << 30,
        }
    }

    /// The paper's fallback: "a single server with 1 TB RAM using 40
    /// threads".
    pub fn big_memory_node() -> ClusterSpec {
        ClusterSpec {
            nodes: vec![NodeSpec {
                ram_bytes: 1 << 40,
                cores: 40,
            }],
            network_gbps: 10.0,
            network_overload_bytes: u64::MAX,
        }
    }

    /// A small local test cluster.
    pub fn local(nodes: usize, ram_gb: u64, cores: usize) -> ClusterSpec {
        ClusterSpec {
            nodes: vec![
                NodeSpec {
                    ram_bytes: ram_gb << 30,
                    cores,
                };
                nodes
            ],
            network_gbps: 10.0,
            network_overload_bytes: u64::MAX,
        }
    }

    pub fn total_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Seconds to move `bytes` across the switch.
    pub fn network_secs(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.network_gbps * 1e9)
    }

    /// Does this volume of in-flight intermediate data overload the
    /// network (the war-story failure mode)?
    pub fn overloaded_by(&self, intermediate_bytes: u64) -> bool {
        intermediate_bytes > self.network_overload_bytes
    }
}

/// Admission failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulingError {
    /// DoP 0 requests no workers at all — nothing to place. Typed (not a
    /// panic) because the serving layer derives DoP from live query
    /// concurrency, where 0 is an ordinary caller mistake.
    ZeroDop,
    /// The plan declares no memory footprint at all. The per-node
    /// envelope would vacuously admit any co-location, which in practice
    /// means a missing cost model rather than a genuinely free flow —
    /// admitting it would disable the one check the paper's scheduler
    /// lacked.
    ZeroMemoryPlan { operators: usize },
    /// The flow's per-worker memory times co-located workers exceeds node
    /// RAM at every feasible placement.
    InsufficientMemory {
        memory_per_worker: u64,
        node_ram: u64,
        workers_per_node: usize,
    },
    /// Two operators need different major versions of one library.
    LibraryConflict {
        library: String,
        versions: Vec<u32>,
    },
    /// Requested DoP exceeds the cluster's total cores.
    DopExceedsCores { dop: usize, cores: usize },
    /// A node was lost mid-flow and no survivors remain to reschedule
    /// onto. Carries the failed node's id so the executor's rescheduler
    /// and the recovery experiments can report *which* node died.
    NodeFailed { node: usize },
}

impl std::fmt::Display for SchedulingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulingError::ZeroDop => {
                write!(f, "DoP 0 requests no workers; admission needs at least one")
            }
            SchedulingError::ZeroMemoryPlan { operators } => write!(
                f,
                "plan of {operators} operator(s) declares zero memory footprint; \
                 give every operator a cost model before admission"
            ),
            SchedulingError::InsufficientMemory {
                memory_per_worker,
                node_ram,
                workers_per_node,
            } => write!(
                f,
                "flow needs {:.1} GB per worker x {workers_per_node} workers/node but nodes have {:.1} GB",
                *memory_per_worker as f64 / (1u64 << 30) as f64,
                *node_ram as f64 / (1u64 << 30) as f64
            ),
            SchedulingError::LibraryConflict { library, versions } => {
                write!(f, "conflicting versions of {library}: {versions:?}")
            }
            SchedulingError::DopExceedsCores { dop, cores } => {
                write!(f, "DoP {dop} exceeds {cores} total cores")
            }
            SchedulingError::NodeFailed { node } => {
                write!(f, "node {node} failed and no surviving nodes remain")
            }
        }
    }
}

impl std::error::Error for SchedulingError {}

/// A successful placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    pub dop: usize,
    pub workers_per_node: usize,
    pub memory_per_worker: u64,
}

/// Admission control: checks library compatibility, core budget, and the
/// per-node memory envelope for running `plan` at `dop`.
///
/// Memory model: every worker thread co-hosts *all* of the flow's
/// operators (pipelined execution), so per-worker memory is the sum of
/// operator footprints — the paper's "roughly 60 GB main memory per worker
/// thread" arithmetic.
pub fn admit(plan: &LogicalPlan, dop: usize, cluster: &ClusterSpec) -> Result<Placement, SchedulingError> {
    admit_sharded(plan, dop, cluster, None)
}

/// [`admit`] for sharded execution: with `shards = Some(n)` the unit of
/// placement is a worker *process*, not a thread — each shard co-hosts
/// the whole operator chain, so a node running `ceil(shards / nodes)`
/// shard processes needs that many full per-worker footprints resident
/// at once. `None` reproduces the one-process thread model, where DoP
/// threads share a single footprint per node slot.
pub fn admit_sharded(
    plan: &LogicalPlan,
    dop: usize,
    cluster: &ClusterSpec,
    shards: Option<usize>,
) -> Result<Placement, SchedulingError> {
    if dop == 0 {
        return Err(SchedulingError::ZeroDop);
    }

    // Library conflicts.
    let mut libs: HashMap<&str, Vec<u32>> = HashMap::new();
    for op in plan.operators() {
        if let Some((name, version)) = &op.library {
            let versions = libs.entry(name.as_str()).or_default();
            if !versions.contains(version) {
                versions.push(*version);
            }
        }
    }
    for (lib, mut versions) in libs {
        if versions.len() > 1 {
            versions.sort_unstable();
            return Err(SchedulingError::LibraryConflict {
                library: lib.to_string(),
                versions,
            });
        }
    }

    let cores = cluster.total_cores();
    if dop > cores {
        return Err(SchedulingError::DopExceedsCores { dop, cores });
    }

    let memory_per_worker: u64 = plan.operators().map(|op| op.cost.memory_bytes).sum();
    if memory_per_worker == 0 {
        return Err(SchedulingError::ZeroMemoryPlan { operators: plan.operator_count() });
    }
    let workers_per_node = match shards {
        Some(s) => s.max(1).div_ceil(cluster.nodes.len()).max(1),
        None => dop.div_ceil(cluster.nodes.len()).max(1),
    };
    let node_ram = cluster.nodes.iter().map(|n| n.ram_bytes).min().unwrap_or(0);
    if memory_per_worker.saturating_mul(workers_per_node as u64) > node_ram {
        return Err(SchedulingError::InsufficientMemory {
            memory_per_worker,
            node_ram,
            workers_per_node,
        });
    }
    Ok(Placement {
        dop,
        workers_per_node,
        memory_per_worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CostModel, Operator, Package};

    fn plan_with_memory(mem_gb: &[u64]) -> LogicalPlan {
        let mut plan = LogicalPlan::new();
        let mut prev = plan.source("in");
        for (i, &gb) in mem_gb.iter().enumerate() {
            let op = Operator::map(&format!("op{i}"), Package::Ie, |r| r).with_cost(CostModel {
                memory_bytes: gb << 30,
                ..CostModel::default()
            });
            prev = plan.add(prev, op).unwrap();
        }
        plan.sink(prev, "out").unwrap();
        plan
    }

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterSpec::paper_cluster();
        assert_eq!(c.nodes.len(), 28);
        assert_eq!(c.total_cores(), 168, "max DoP of the paper");
    }

    #[test]
    fn small_flow_admits() {
        let plan = plan_with_memory(&[1, 2]);
        let p = admit(&plan, 28, &ClusterSpec::paper_cluster()).unwrap();
        assert_eq!(p.workers_per_node, 1);
        assert_eq!(p.memory_per_worker, 3 << 30);
    }

    #[test]
    fn sixty_gb_flow_rejected_on_paper_cluster() {
        // the war story: full Fig-2 flow ≈ 60 GB/worker vs 24 GB nodes
        let plan = plan_with_memory(&[20, 20, 20]);
        let err = admit(&plan, 28, &ClusterSpec::paper_cluster()).unwrap_err();
        assert!(matches!(err, SchedulingError::InsufficientMemory { .. }));
        // ... the paper's mitigation: spin off the fattest task (gene
        // recognition, 20 GB) alone onto the 1 TB server with 40 threads
        let gene_only = plan_with_memory(&[20]);
        assert!(admit(&gene_only, 40, &ClusterSpec::big_memory_node()).is_ok());
        // even there, the *full* flow at 40 workers would not fit
        assert!(admit(&plan, 40, &ClusterSpec::big_memory_node()).is_err());
    }

    #[test]
    fn higher_dop_needs_more_memory_per_node() {
        let plan = plan_with_memory(&[10]); // 10 GB/worker
        // 28 workers on 28 nodes: 1 worker/node -> fits in 24 GB
        assert!(admit(&plan, 28, &ClusterSpec::paper_cluster()).is_ok());
        // 84 workers on 28 nodes: 3 workers/node -> 30 GB > 24 GB
        let err = admit(&plan, 84, &ClusterSpec::paper_cluster()).unwrap_err();
        assert!(matches!(err, SchedulingError::InsufficientMemory { .. }));
    }

    #[test]
    fn sharding_multiplies_the_per_node_footprint() {
        let plan = plan_with_memory(&[10]); // 10 GB/worker
        let cluster = ClusterSpec::local(2, 24, 8);
        // one process per node at DoP 2: 10 GB fits 24 GB
        let p = admit(&plan, 2, &cluster).unwrap();
        assert_eq!(p.workers_per_node, 1);
        // same DoP, but 8 shard *processes*: 4/node x 10 GB > 24 GB
        let err = admit_sharded(&plan, 2, &cluster, Some(8)).unwrap_err();
        assert!(matches!(
            err,
            SchedulingError::InsufficientMemory { workers_per_node: 4, .. }
        ));
        // 4 shards spread 2/node: 20 GB still fits
        let p = admit_sharded(&plan, 2, &cluster, Some(4)).unwrap();
        assert_eq!(p.workers_per_node, 2);
        // shards = None delegates to the thread model
        assert_eq!(
            admit_sharded(&plan, 2, &cluster, None).unwrap(),
            admit(&plan, 2, &cluster).unwrap()
        );
    }

    #[test]
    fn dop_capped_by_cores() {
        let plan = plan_with_memory(&[1]);
        let err = admit(&plan, 200, &ClusterSpec::paper_cluster()).unwrap_err();
        assert!(matches!(err, SchedulingError::DopExceedsCores { cores: 168, .. }));
    }

    #[test]
    fn library_conflict_detected() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan
            .add(
                src,
                Operator::map("tokenize", Package::Ie, |r| r).with_library("opennlp", 15),
            )
            .unwrap();
        let b = plan
            .add(
                a,
                Operator::map("disease-ml", Package::Ie, |r| r).with_library("opennlp", 14),
            )
            .unwrap();
        plan.sink(b, "out").unwrap();
        let err = admit(&plan, 4, &ClusterSpec::paper_cluster()).unwrap_err();
        assert_eq!(
            err,
            SchedulingError::LibraryConflict {
                library: "opennlp".to_string(),
                versions: vec![14, 15],
            }
        );
    }

    #[test]
    fn zero_dop_is_a_typed_error_not_a_panic() {
        let plan = plan_with_memory(&[1]);
        let err = admit(&plan, 0, &ClusterSpec::paper_cluster()).unwrap_err();
        assert_eq!(err, SchedulingError::ZeroDop);
        assert!(err.to_string().contains("DoP 0"));
    }

    #[test]
    fn zero_memory_plan_is_rejected() {
        // A plan whose operators all declare zero memory would vacuously
        // pass the envelope check at any DoP — flag it instead.
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let op = Operator::map("free", Package::Ie, |r| r)
            .with_cost(CostModel { memory_bytes: 0, ..CostModel::default() });
        let a = plan.add(src, op).unwrap();
        plan.sink(a, "out").unwrap();
        let err = admit(&plan, 4, &ClusterSpec::paper_cluster()).unwrap_err();
        assert_eq!(err, SchedulingError::ZeroMemoryPlan { operators: 1 });
        assert!(err.to_string().contains("zero memory"));
    }

    #[test]
    fn network_model() {
        let c = ClusterSpec::paper_cluster();
        // 1 GB over 1 Gb/s = 8 seconds
        assert!((c.network_secs(1 << 30) - 8.589934592).abs() < 0.01);
        assert!(c.overloaded_by(1600 << 30), "1.6 TB overloads the switch");
        assert!(!c.overloaded_by(10 << 30));
    }

    #[test]
    fn error_messages_are_informative() {
        let plan = plan_with_memory(&[30, 30]);
        let err = admit(&plan, 28, &ClusterSpec::paper_cluster()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("60.0 GB"), "{msg}");
        assert!(msg.contains("24.0 GB"), "{msg}");
    }
}
