//! The delta execution path: a compiled incremental view of a logical
//! plan whose terminal Reduce state is *retained* across rounds.
//!
//! A live session cannot afford to recompute a Reduce over the whole
//! cumulative corpus every crawl round. For a terminal Reduce it does
//! not have to: the reduce is split out of the plan, each round's delta
//! pass runs only the map-side prefix over the new records, and the
//! pre-reduce stream is folded into a retained per-key [`AggState`] map.
//! Because every typed aggregate's group result is exactly `seed → fold
//! each record in encounter order → finish`, folding rounds sequentially
//! into retained state is *byte-identical* to recomputing the reduce
//! over the concatenated stream — the same argument that made partial
//! aggregation invisible, applied across rounds instead of chunks.
//!
//! The one structural rule is [`LogicalPlan::feeds_only_a_sink`]: a
//! Reduce something other than a sink reads is
//! [`LiveError::ReduceNotTerminal`] (WS012 says so before the session
//! starts).

use std::collections::BTreeMap;

use websift_flow::operator::KeyFn;
use websift_flow::{AggState, Aggregate, Kind, LogicalPlan, NodeOp, OpFunc, Record};
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

use crate::LiveError;

/// One split-out Reduce: the sink it fed, the operator's name, key and
/// aggregate, the per-key aggregate partials retained across rounds, and
/// the keys folded since the last watermark.
struct RetainedReduce {
    sink: String,
    name: String,
    key: KeyFn,
    aggregate: Aggregate,
    retained: BTreeMap<String, Retained>,
    /// Keys whose state a fold changed since [`IncrementalFlow::sealed`],
    /// each once, in the order first folded.
    changed: Vec<String>,
}

/// A retained key's partial state and the epoch (watermark interval) of
/// its last fold.
struct Retained {
    state: AggState,
    epoch: u32,
}

/// A logical plan compiled for delta execution: terminal Reduces are
/// split out of the executable plan and their state is retained here.
pub struct IncrementalFlow {
    delta_plan: LogicalPlan,
    source: String,
    reduces: Vec<RetainedReduce>,
    /// Counts [`IncrementalFlow::sealed`] calls from 1; state restored from
    /// bytes is of epoch 0.
    epoch: u32,
}

impl IncrementalFlow {
    /// Compiles `plan` for delta execution. Every Reduce must directly
    /// feed a sink: aggregates are final results, not intermediates, in
    /// live mode.
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
                    if !plan.feeds_only_a_sink(node.id) {
                        return Err(LiveError::ReduceNotTerminal { name: op.name.clone() });
                    }
                    let OpFunc::Reduce { key, aggregate } = op.func() else {
                        unreachable!("a Reduce-kind operator carries a reduce")
                    };
                    pending.insert(node.id, reduces.len());
                    reduces.push(RetainedReduce {
                        sink: String::new(), // filled when the sink child is reached
                        name: op.name.clone(),
                        key: key.clone(),
                        aggregate: aggregate.clone(),
                        retained: BTreeMap::new(),
                        changed: Vec::new(),
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

        Ok(IncrementalFlow { delta_plan: delta, source, reduces, epoch: 1 })
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
        let (key, aggregate, epoch) = (&reduce.key, &reduce.aggregate, self.epoch);
        let mut k = String::new();
        for record in &records {
            k.clear();
            key(record, &mut k);
            match reduce.retained.get_mut(k.as_str()) {
                Some(slot) => {
                    aggregate.fold(&mut slot.state, record);
                    if slot.epoch != epoch {
                        slot.epoch = epoch;
                        reduce.changed.push(k.clone());
                    }
                }
                None => {
                    let mut state = aggregate.seed();
                    aggregate.fold(&mut state, record);
                    reduce.retained.insert(k.clone(), Retained { state, epoch });
                    reduce.changed.push(k.clone());
                }
            }
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
        Ok(reduce
            .retained
            .iter()
            .flat_map(|(key, slot)| reduce.aggregate.finish(key, slot.state.clone()))
            .collect())
    }

    /// Total number of retained aggregate keys.
    pub fn retained_keys(&self) -> usize {
        self.reduces.iter().map(|r| r.retained.len()).sum()
    }

    /// Deterministic codec bytes of all retained state, keys in sorted
    /// order — the "retained `AggState` bytes" a chain's first watermark
    /// records.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.write_state(false)
    }

    /// [`IncrementalFlow::state_bytes`] restricted to the keys folded since
    /// the last [`IncrementalFlow::sealed`]: what a later watermark of the
    /// chain records, replayed by [`IncrementalFlow::apply_state`].
    pub fn changed_state_bytes(&self) -> Vec<u8> {
        self.write_state(true)
    }

    /// Starts a new interval for [`IncrementalFlow::changed_state_bytes`]:
    /// the session calls it once a watermark holds the round's changes.
    pub fn sealed(&mut self) {
        self.epoch += 1;
        for reduce in &mut self.reduces {
            reduce.changed.clear();
        }
    }

    fn write_state(&self, changed_only: bool) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.reduces.len());
        for reduce in &self.reduces {
            w.str(&reduce.sink);
            w.str(&reduce.name);
            // the tag of the one retained form (per-key partials): it
            // stays so watermark bytes and digests do not move
            w.u8(0);
            if changed_only {
                let mut keys: Vec<&String> = reduce.changed.iter().collect();
                keys.sort_unstable();
                w.usize(keys.len());
                for key in keys {
                    w.str(key);
                    reduce.retained[key].state.encode(&mut w);
                }
            } else {
                w.usize(reduce.retained.len());
                for (key, slot) in &reduce.retained {
                    w.str(key);
                    slot.state.encode(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Restores retained state captured by [`IncrementalFlow::state_bytes`]
    /// into this (freshly compiled) flow, verifying the plan shape still
    /// matches the watermark and that every retained state is one the
    /// reduce's aggregate [admits](websift_flow::Aggregate::admits) — a
    /// sealed frame is still untrusted input, and a mismatched state
    /// would otherwise panic the first `absorb` or `finished`.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), LiveError> {
        self.apply_state(bytes, true)
    }

    /// Replays retained-state bytes: the whole state (`whole`, as
    /// [`IncrementalFlow::restore_state`]) or the keys
    /// [`IncrementalFlow::changed_state_bytes`] carried, each overwriting
    /// its key's state; checked as `restore_state` checks them.
    pub fn apply_state(&mut self, bytes: &[u8], whole: bool) -> Result<(), LiveError> {
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
            if sink != reduce.sink || op != reduce.name {
                return Err(LiveError::StateMismatch {
                    what: format!(
                        "watermark reduce '{op}' -> '{sink}' does not match plan reduce '{}' -> '{}'",
                        reduce.name, reduce.sink
                    ),
                });
            }
            let tag = r.u8()?;
            if tag != 0 {
                return Err(LiveError::Codec(CodecError::BadTag { what: "Retained", tag }));
            }
            let keys = r.usize()?;
            if whole {
                reduce.retained.clear();
            }
            for _ in 0..keys {
                let key = r.str()?;
                let state = AggState::decode(&mut r)?;
                if !reduce.aggregate.admits(&state) {
                    return Err(LiveError::StateMismatch {
                        what: format!(
                            "watermark retains {state:?} for key '{key}' of reduce '{op}', \
                             which its aggregate cannot fold"
                        ),
                    });
                }
                reduce.retained.insert(key, Retained { state, epoch: 0 });
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
