//! The delta execution path: a compiled incremental view of a logical
//! plan whose terminal Reduce state is *retained* across rounds.
//!
//! A live session cannot afford to recompute a Reduce over the whole
//! cumulative corpus every crawl round. For a terminal **combinable**
//! Reduce (PR 5's typed [`Aggregate`]s) it does not have to: the reduce
//! is split out of the plan, each round's delta pass runs only the
//! map-side prefix over the new records, and the pre-reduce stream is
//! folded into a retained per-key [`AggState`] map. Because a built-in
//! aggregate's group result is exactly `seed → fold each record in
//! encounter order → finish`, folding rounds sequentially into retained
//! state is *byte-identical* to recomputing the reduce over the
//! concatenated stream — the same argument that made partial
//! aggregation invisible, applied across rounds instead of chunks.
//!
//! `Aggregate::Custom` reduces are opaque closures: nothing can be
//! retained, so live mode rejects them with a typed
//! [`LiveError::NonCombinableReduce`] (the WS012 diagnostic says so
//! before the session starts).

use std::collections::BTreeMap;

use websift_flow::{
    AggState, Kind, LogicalPlan, NodeOp, OpFunc, Operator, Record,
};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

use crate::LiveError;

/// One split-out Reduce: the sink it fed, the operator (key + aggregate),
/// and the per-key aggregate partials retained across rounds.
struct RetainedReduce {
    sink: String,
    op: Operator,
    retained: BTreeMap<String, AggState>,
}

/// A logical plan compiled for delta execution: terminal Reduces are
/// split out of the executable plan and their state is retained here.
pub struct IncrementalFlow {
    delta_plan: LogicalPlan,
    source: String,
    reduces: Vec<RetainedReduce>,
}

impl IncrementalFlow {
    /// Compiles `plan` for delta execution. Every Reduce must directly
    /// feed a sink (aggregates are final results, not intermediates, in
    /// live mode); non-combinable (`Aggregate::Custom`) reduces are a
    /// typed error.
    pub fn compile(plan: &LogicalPlan) -> Result<IncrementalFlow, LiveError> {
        plan.validate().map_err(LiveError::PlanInvalid)?;
        let source = plan
            .sources()
            .first()
            .map(|s| s.to_string())
            .ok_or_else(|| LiveError::PlanInvalid("plan has no source".into()))?;

        // Node-id image in the delta plan; reduce nodes map to their
        // input's image so their sink child rewires to the pre-reduce
        // stream.
        let mut image: Vec<usize> = Vec::with_capacity(plan.len());
        let mut delta = LogicalPlan::new();
        let mut reduces: Vec<RetainedReduce> = Vec::new();
        // reduce node id (original plan) -> index into `reduces`
        let mut pending: BTreeMap<usize, usize> = BTreeMap::new();

        for node in plan.nodes() {
            let mapped = match &node.op {
                NodeOp::Source(name) => delta.source(name),
                NodeOp::Op(op) if op.kind == Kind::Reduce => {
                    let children = plan.children(node.id);
                    let terminal = children.len() == 1
                        && matches!(plan.nodes()[children[0]].op, NodeOp::Sink(_));
                    if !terminal {
                        return Err(LiveError::ReduceNotTerminal { name: op.name.clone() });
                    }
                    if !op.combinable_reduce() {
                        return Err(LiveError::NonCombinableReduce { name: op.name.clone() });
                    }
                    pending.insert(
                        node.id,
                        reduces.len(),
                    );
                    reduces.push(RetainedReduce {
                        sink: String::new(), // filled when the sink child is reached
                        op: op.clone(),
                        retained: BTreeMap::new(),
                    });
                    // the reduce contributes no delta-plan node: its sink
                    // child reads the pre-reduce stream
                    image[node.input.expect("validated: op has input")]
                }
                NodeOp::Op(op) => {
                    let input = image[node.input.expect("validated: op has input")];
                    delta
                        .add(input, op.clone())
                        .map_err(|e| LiveError::PlanInvalid(e.to_string()))?
                }
                NodeOp::Sink(name) => {
                    let parent = node.input.expect("validated: sink has input");
                    if let Some(&idx) = pending.get(&parent) {
                        reduces[idx].sink = name.clone();
                    }
                    let input = image[parent];
                    delta
                        .sink(input, name)
                        .map_err(|e| LiveError::PlanInvalid(e.to_string()))?
                }
            };
            image.push(mapped);
        }

        Ok(IncrementalFlow { delta_plan: delta, source, reduces })
    }

    /// The executable per-round plan: the original plan with terminal
    /// Reduces removed, their sinks rewired to the pre-reduce streams.
    pub fn delta_plan(&self) -> &LogicalPlan {
        &self.delta_plan
    }

    /// The plan's source dataset name.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Sink names whose delta output must be [`IncrementalFlow::absorb`]ed
    /// rather than treated as finished results, in plan order.
    pub fn retained_sinks(&self) -> Vec<&str> {
        self.reduces.iter().map(|r| r.sink.as_str()).collect()
    }

    /// Folds one round's pre-reduce delta stream for `sink` into the
    /// retained state. Records are folded in stream order, so after N
    /// rounds the per-key state equals a serial reduce over the
    /// concatenated stream — byte-for-byte, including the codec bytes.
    /// Returns the number of records absorbed.
    pub fn absorb(&mut self, sink: &str, records: Vec<Record>) -> Result<usize, LiveError> {
        let reduce = self
            .reduces
            .iter_mut()
            .find(|r| r.sink == sink)
            .ok_or_else(|| LiveError::StateMismatch {
                what: format!("no retained reduce feeds sink '{sink}'"),
            })?;
        let n = records.len();
        let OpFunc::Reduce { key, aggregate } = reduce.op.func() else {
            unreachable!("retained operator is always a Reduce")
        };
        for record in &records {
            let slot = reduce.retained.entry(key(record)).or_insert_with(|| aggregate.seed());
            aggregate.fold(slot, record);
        }
        Ok(n)
    }

    /// Materializes the finished reduce output for `sink` from retained
    /// state: keys in sorted order, exactly the order and bytes a batch
    /// Reduce over the cumulative stream produces.
    pub fn finished(&self, sink: &str) -> Result<Vec<Record>, LiveError> {
        let reduce = self
            .reduces
            .iter()
            .find(|r| r.sink == sink)
            .ok_or_else(|| LiveError::StateMismatch {
                what: format!("no retained reduce feeds sink '{sink}'"),
            })?;
        let OpFunc::Reduce { aggregate, .. } = reduce.op.func() else {
            unreachable!("retained operator is always a Reduce")
        };
        Ok(reduce
            .retained
            .iter()
            .flat_map(|(key, st)| aggregate.finish(key, st.clone()))
            .collect())
    }

    /// Total number of retained aggregate keys.
    pub fn retained_keys(&self) -> usize {
        self.reduces.iter().map(|r| r.retained.len()).sum()
    }

    /// Deterministic codec bytes of all retained state, keys in sorted
    /// order — the "retained `AggState` bytes" a watermark frame records.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.reduces.len());
        for reduce in &self.reduces {
            w.str(&reduce.sink);
            w.str(&reduce.op.name);
            // the tag of the one retained form (per-key partials): it
            // stays so watermark bytes and digests do not move
            w.u8(0);
            w.usize(reduce.retained.len());
            for (key, st) in &reduce.retained {
                w.str(key);
                st.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Restores retained state captured by [`IncrementalFlow::state_bytes`]
    /// into this (freshly compiled) flow, verifying the plan shape still
    /// matches the watermark.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), LiveError> {
        let mut r = Reader::new(bytes);
        let n = r.usize()?;
        if n != self.reduces.len() {
            return Err(LiveError::StateMismatch {
                what: format!("watermark retains {n} reduces, plan has {}", self.reduces.len()),
            });
        }
        for reduce in &mut self.reduces {
            let sink = r.str()?;
            let op = r.str()?;
            if sink != reduce.sink || op != reduce.op.name {
                return Err(LiveError::StateMismatch {
                    what: format!(
                        "watermark reduce '{op}' -> '{sink}' does not match plan reduce '{}' -> '{}'",
                        reduce.op.name, reduce.sink
                    ),
                });
            }
            let tag = r.u8()?;
            if tag != 0 {
                return Err(LiveError::Codec(CodecError::BadTag { what: "Retained", tag }));
            }
            let keys = r.usize()?;
            reduce.retained.clear();
            for _ in 0..keys {
                let key = r.str()?;
                reduce.retained.insert(key, AggState::decode(&mut r)?);
            }
        }
        if !r.is_empty() {
            return Err(LiveError::Codec(CodecError::Truncated {
                what: "trailing retained-state bytes",
            }));
        }
        Ok(())
    }
}
