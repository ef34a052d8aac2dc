//! Sharded physical execution: N worker shards — separate OS processes,
//! or isolated in-process runtimes behind the same frame protocol —
//! exchanging length-prefixed record and partial-aggregate frames over
//! real channels (pipes / unix socket pairs), with bounded per-edge
//! backpressure. Workers run fused pipeline stages and their combinable
//! fold; an uncombined Reduce never comes here — the executor groups it
//! in the parent, where its records already are
//! ([`crate::runner::group_by_key`]) — and this module writes no file.
//!
//! # The byte-identity contract
//!
//! Sharding is *physical only*, like fusion and combining before it:
//! every deterministic surface (sink bytes, metrics codec
//! bytes, simulated seconds, digests, tracer JSONL, registry snapshots,
//! checkpoint frames, store snapshots) is bit-identical to in-process
//! execution. The trick is the same one the executor already plays —
//! the physical dataflow and the simulated accounting are decoupled:
//!
//! - chunk boundaries are computed by the executor before a runner is
//!   even picked, and results merge in chunk order;
//! - every worker runs the *same* per-chunk [`StageKernel`] the local
//!   runner's threads run, so per-record f64 costs, partial aggregate
//!   states, and tapped streams are computed by shared code;
//! - costs and aggregate states cross the process boundary through the
//!   deterministic [`Snapshot`] codec (f64s travel as IEEE-754 bits);
//! - the executor's analytic replay charges the simulated cost model
//!   from the merged observations, whichever runner produced them.
//!
//! Closures cannot cross `fork`/`exec`, so operators reach worker
//! processes as their wire forms — the `packages::*` constructor that
//! built each one plus its encoded arguments — and the worker rebuilds
//! them by calling that constructor again ([`crate::packages::wire`]).
//! [`ShardPool`] is one of the two [`StageRunner`]s; the executor hands
//! it only stages whose every operator has a wire form and pins the rest
//! on the local runner (counted in `PhysicalStats::stages_pinned_local`,
//! flagged ahead of time as WS017); nothing deterministic changes either
//! way.
//!
//! # Worker loss
//!
//! The parent counts frames per shard; a configured [`KillSpec`] (or a
//! real crash) surfaces as [`ShardRunError::Lost`], which the executor
//! converts to `ExecutionError::ShardLost` carrying every resilience
//! checkpoint taken so far — so callers resume from the last frame,
//! optionally at a different shard count, and reproduce the
//! uninterrupted run bit for bit. With `respawn_lost` the pool instead
//! respawns a fresh worker and re-runs the chunks that never reported
//! results.

use crate::executor::PhysicalStats;
use crate::operator::{AggState, OpFunc, Operator};
use crate::packages::wire::{decode_operator, encode_operator, WireError};
use crate::record::Record;
use crate::runner::StageRunner;
use crate::transport::{
    CreditWindow, FrameChannel, TransportError, K_BYE, K_DATA, K_ERR, K_RESULT, K_STAGE,
};
use std::cell::Cell;
// lint:allow(hash_iteration): the fold's key map only, drained into a sorted vec
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// lint:allow(wall_clock): see the StageKernel wall_ms notes — runtime-only diagnostics
use std::time::Instant;
use websift_resilience::codec::presize;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

// ---------------------------------------------------------------------------
// Shard configuration
// ---------------------------------------------------------------------------

/// How worker shards are hosted.
#[derive(Debug, Clone)]
pub enum WorkerKind {
    /// Isolated in-process runtimes: each shard is a thread running the
    /// same [`worker_serve`] loop over a unix socket pair — the full
    /// frame protocol without process-spawn latency.
    InProcess,
    /// Real OS processes: `cmd` is spawned per shard and speaks the
    /// frame protocol over its stdio pipes (see the `shard_worker`
    /// binary).
    Process { cmd: PathBuf },
}

/// Forces the loss of one worker shard after the shard's channel has
/// carried `after_frames` frames (both directions) — the soak-test hook
/// for worker-loss recovery. Fires at most once per pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub shard: usize,
    pub after_frames: u64,
}

/// Sharded-execution configuration, carried on
/// [`ExecutionConfig::sharding`](crate::executor::ExecutionConfig).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker shard count (N ≥ 1). Physical only: never feeds simulated
    /// numbers.
    pub shards: usize,
    pub worker: WorkerKind,
    /// Respawn a lost worker and re-run its unfinished chunks instead of
    /// failing the run with `ShardLost`.
    pub respawn_lost: bool,
    /// Injected worker loss (tests).
    pub kill: Option<KillSpec>,
}

impl ShardConfig {
    pub fn in_process(shards: usize) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            worker: WorkerKind::InProcess,
            respawn_lost: false,
            kill: None,
        }
    }

    pub fn process(shards: usize, cmd: impl Into<PathBuf>) -> ShardConfig {
        ShardConfig { worker: WorkerKind::Process { cmd: cmd.into() }, ..ShardConfig::in_process(shards) }
    }

    pub fn with_respawn(mut self, respawn: bool) -> ShardConfig {
        self.respawn_lost = respawn;
        self
    }

    pub fn with_kill(mut self, kill: KillSpec) -> ShardConfig {
        self.kill = Some(kill);
        self
    }
}

// ---------------------------------------------------------------------------
// The shared per-chunk stage kernel
// ---------------------------------------------------------------------------

/// Per-stage observations for one chunk. `wall_ms` is runtime-only
/// diagnostics: excluded from the wire codec (it would differ across
/// hosts) exactly as it is excluded from checkpoints and digests —
/// chunks arriving from worker processes report `0.0`.
#[derive(Debug, Default, Clone)]
pub struct ChunkStats {
    /// Per-record simulated costs, in record order.
    pub costs: Vec<f64>,
    pub records_in: u64,
    pub bytes_in: u64,
    pub wall_ms: f64,
}

impl Snapshot for ChunkStats {
    fn encode(&self, w: &mut Writer) {
        self.costs.encode(w);
        w.u64(self.records_in);
        w.u64(self.bytes_in);
    }

    fn decode(r: &mut Reader<'_>) -> Result<ChunkStats, CodecError> {
        Ok(ChunkStats {
            costs: Snapshot::decode(r)?,
            records_in: r.u64()?,
            bytes_in: r.u64()?,
            wall_ms: 0.0,
        })
    }
}

/// Sorted `(key, partial state, per-key record costs)` triples plus the
/// chunk's emulated shuffle bytes, for stages ending in a combined
/// Reduce.
pub type ChunkPartials = (Vec<(String, AggState, Vec<f64>)>, u64);

/// Everything one chunk's pass produces — the unit merged (in chunk
/// order) by the executor, whether the chunk ran on a local thread or a
/// worker shard.
#[derive(Debug, Default)]
pub struct ChunkOut {
    pub stages: Vec<ChunkStats>,
    pub out: Vec<Record>,
    pub bytes_out: u64,
    pub partial: Option<ChunkPartials>,
    /// Clones of the record stream at each tapped interior boundary.
    pub taps: Vec<Vec<Record>>,
}

impl Snapshot for ChunkOut {
    fn encode(&self, w: &mut Writer) {
        self.stages.encode(w);
        self.out.encode(w);
        w.u64(self.bytes_out);
        match &self.partial {
            None => w.bool(false),
            Some((entries, shuffled)) => {
                w.bool(true);
                w.usize(entries.len());
                for (k, st, costs) in entries {
                    w.str(k);
                    st.encode(w);
                    costs.encode(w);
                }
                w.u64(*shuffled);
            }
        }
        self.taps.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<ChunkOut, CodecError> {
        let stages = Snapshot::decode(r)?;
        let out = Snapshot::decode(r)?;
        let bytes_out = r.u64()?;
        let partial = if r.bool()? {
            let n = r.usize()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((r.str()?, AggState::decode(r)?, Snapshot::decode(r)?));
            }
            Some((entries, r.u64()?))
        } else {
            None
        };
        Ok(ChunkOut { stages, out, bytes_out, partial, taps: Snapshot::decode(r)? })
    }
}

/// The per-chunk fused-stage pass both [`StageRunner`]s run — local
/// threads and worker shards execute *the same code*, so byte-identity
/// across placements holds by construction, not by parallel maintenance
/// of two loops.
pub struct StageKernel<'a> {
    /// Chain constituents, each run over the whole chunk in turn.
    pub ops: &'a [&'a Operator],
    /// Trailing combinable Reduce folded after the chain, when the whole
    /// stage survived the schedule. Reports as stage `ops.len()`.
    pub fold: Option<&'a Operator>,
    /// Interior boundaries to tap, as in-chain stage indices.
    pub tapped: &'a [usize],
    pub work_scale: f64,
}

impl StageKernel<'_> {
    /// Runs one chunk through the whole stage. `stage_at` tracks the
    /// stage index currently executing so a panic can be attributed.
    pub fn run_chunk(&self, records: Vec<Record>, stage_at: &Cell<usize>) -> ChunkOut {
        let mut stages: Vec<ChunkStats> =
            (0..self.ops.len()).map(|_| ChunkStats::default()).collect();
        let mut taps: Vec<Vec<Record>> = vec![Vec::new(); self.tapped.len()];
        let mut cur = records;
        // lint:hot_loop(begin): fused-stage worker chunk loop
        for (s, op) in self.ops.iter().enumerate() {
            stage_at.set(s);
            // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
            let t0 = Instant::now();
            let tally = &mut stages[s];
            let mut next = Vec::with_capacity(cur.len());
            let charge = |tally: &mut ChunkStats, r: &Record| {
                tally.bytes_in += r.approx_bytes();
                tally.costs.push(
                    self.work_scale
                        * op.cost.record_cost_secs(r.text().map(str::len).unwrap_or(64)),
                );
            };
            // One dispatch per chunk per stage: the closure-variant match
            // is hoisted out of the record loop.
            match op.func() {
                OpFunc::Map(f) => {
                    for r in cur {
                        charge(tally, &r);
                        next.push(f(r));
                    }
                }
                OpFunc::FlatMap(f) => {
                    for r in cur {
                        charge(tally, &r);
                        next.extend(f(r));
                    }
                }
                OpFunc::Filter(f) => {
                    for r in cur {
                        charge(tally, &r);
                        if f(&r) {
                            next.push(r);
                        }
                    }
                }
                OpFunc::Reduce { .. } => {
                    unreachable!("reduce is never part of a chain")
                }
            }
            tally.records_in = tally.costs.len() as u64;
            tally.wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
            cur = next;
            if let Some(t) = self.tapped.iter().position(|&ts| ts == s) {
                taps[t] = cur.clone();
            }
        }
        // lint:hot_loop(end)
        let partial = self.fold.map(|reduce| {
            let OpFunc::Reduce { key, aggregate: agg } = reduce.func() else {
                unreachable!("the folded operator is a reduce")
            };
            stage_at.set(self.ops.len());
            // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
            let t0 = Instant::now();
            let mut tally = ChunkStats::default();
            // lint:allow(hash_iteration): drained into a sorted vec below
            let mut map: HashMap<String, (AggState, Vec<f64>)> = HashMap::new();
            for r in std::mem::take(&mut cur) {
                tally.records_in += 1;
                tally.bytes_in += r.approx_bytes();
                let cost = self.work_scale
                    * reduce.cost.record_cost_secs(r.text().map(str::len).unwrap_or(64));
                let e = map.entry(key(&r)).or_insert_with(|| (agg.seed(), Vec::new()));
                agg.fold(&mut e.0, &r);
                e.1.push(cost);
            }
            // The combiner's shuffle: only the sorted-key partial map
            // crosses the boundary through the codec, not the record
            // stream.
            let mut sorted: Vec<(String, (AggState, Vec<f64>))> = map.into_iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut w = Writer::new();
            w.usize(sorted.len());
            for (k, (st, _)) in &sorted {
                w.str(k);
                st.encode(&mut w);
            }
            let wire = w.into_bytes();
            let mut rd = Reader::new(&wire);
            let _n = rd.usize().expect("partial map round-trips");
            let entries: Vec<(String, AggState, Vec<f64>)> = sorted
                .into_iter()
                .map(|(k, (_, costs))| {
                    let _k = rd.str().expect("partial map round-trips");
                    let st = AggState::decode(&mut rd).expect("partial map round-trips");
                    (k, st, costs)
                })
                .collect();
            tally.wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
            stages.push(tally);
            (entries, wire.len() as u64)
        });
        let bytes_out = cur.iter().map(Record::approx_bytes).sum();
        ChunkOut { stages, out: cur, bytes_out, partial, taps }
    }
}

// ---------------------------------------------------------------------------
// Wire tasks
// ---------------------------------------------------------------------------

/// The stage setup shipped to a worker in a `K_STAGE` frame: a fused
/// Map/FlatMap/Filter chain, optionally folding a trailing combinable
/// Reduce; one `K_RESULT` per `K_DATA` chunk. Operators travel as their
/// wire forms; decoding a task rebuilds them through [`decode_operator`],
/// so both sides of the frame hold real operators.
#[derive(Debug, Clone)]
pub struct StageTask {
    pub ops: Vec<Operator>,
    pub fold: Option<Operator>,
    pub tapped: Vec<usize>,
    pub work_scale: f64,
}

impl StageTask {
    /// The `K_STAGE` payload, or the first operator that cannot ship.
    pub fn encode(&self) -> Result<Vec<u8>, ShardRunError> {
        let mut w = Writer::new();
        let put = |op: &Operator, w: &mut Writer| match encode_operator(op, w) {
            true => Ok(()),
            false => Err(unshippable(op)),
        };
        w.usize(self.ops.len());
        for op in &self.ops {
            put(op, &mut w)?;
        }
        w.bool(self.fold.is_some());
        if let Some(fold) = &self.fold {
            put(fold, &mut w)?;
        }
        self.tapped.encode(&mut w);
        w.f64(self.work_scale);
        Ok(w.into_bytes())
    }

    /// Rebuilds a task from untrusted bytes. Beyond the codec, each
    /// operator must fit the role the task gives it — the kernel's
    /// `unreachable!` arms are not for a peer to reach.
    pub fn decode(payload: &[u8]) -> Result<StageTask, WireError> {
        let mut r = Reader::new(payload);
        let in_role = |op: Operator, role: &'static str, fits: bool| {
            if fits {
                Ok(op)
            } else {
                Err(WireError::Misplaced { operator: op.name, role })
            }
        };
        let n = r.usize()?;
        let mut ops = Vec::with_capacity(presize::<Operator>(n, &r));
        for _ in 0..n {
            let op = decode_operator(&mut r)?;
            let fits = op.is_pipelineable();
            ops.push(in_role(op, "a chain constituent", fits)?);
        }
        let fold = if r.bool()? {
            let op = decode_operator(&mut r)?;
            let fits = op.combinable_reduce();
            Some(in_role(op, "a combinable fold", fits)?)
        } else {
            None
        };
        let task =
            StageTask { ops, fold, tapped: Snapshot::decode(&mut r)?, work_scale: r.f64()? };
        if !r.is_empty() {
            let value = u64::try_from(r.remaining()).unwrap_or(u64::MAX);
            return Err(CodecError::Oversize { what: "trailing stage task bytes", value }.into());
        }
        Ok(task)
    }
}

fn encode_chunk_payload(chunk_idx: usize, records: &[Record]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(chunk_idx);
    w.usize(records.len());
    for r in records {
        r.encode(&mut w);
    }
    w.into_bytes()
}

fn decode_chunk_payload(payload: &[u8]) -> Result<(usize, Vec<Record>), CodecError> {
    let mut r = Reader::new(payload);
    let chunk_idx = r.usize()?;
    let n = r.usize()?;
    let mut records = Vec::with_capacity(presize::<Record>(n, &r));
    for _ in 0..n {
        records.push(Record::decode(&mut r)?);
    }
    Ok((chunk_idx, records))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// `K_ERR` payload tags: a UDF panic `(stage, chunk, message)`, or the
/// reason a STAGE frame was rejected.
const ERR_PANICKED: u8 = 0;
const ERR_REJECTED: u8 = 1;

/// The worker shard's serve loop: speaks the frame protocol over any
/// byte channel until `K_BYE` or a clean end-of-stream. Run by the
/// `shard_worker` binary over stdio, and by in-process shard threads
/// over a unix socket pair. A UDF panic inside a chunk, and a STAGE
/// frame this worker cannot rebuild (unknown factory, corrupt
/// parameters), are reported as `K_ERR` frames and the loop lives on;
/// channel trouble and corrupt DATA end it with a typed error.
pub fn worker_serve(reader: impl Read, writer: impl Write) -> Result<(), TransportError> {
    let mut chan = FrameChannel::new(reader, writer);
    // The last STAGE frame: the task, or why it could not be honoured —
    // then every DATA frame is answered with that reason until a good
    // STAGE arrives.
    let mut stage: Option<Result<StageTask, String>> = None;
    loop {
        let Some((kind, payload)) = chan.recv()? else {
            return Ok(());
        };
        match kind {
            K_BYE => return Ok(()),
            K_STAGE => {
                stage = Some(StageTask::decode(&payload).map_err(|why| why.to_string()));
            }
            K_DATA => {
                let (chunk_idx, records) =
                    decode_chunk_payload(&payload).map_err(TransportError::Codec)?;
                match &stage {
                    Some(Ok(task)) => {
                        let refs: Vec<&Operator> = task.ops.iter().collect();
                        let kernel = StageKernel {
                            ops: &refs,
                            fold: task.fold.as_ref(),
                            tapped: &task.tapped,
                            work_scale: task.work_scale,
                        };
                        let stage_at = Cell::new(0usize);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            kernel.run_chunk(records, &stage_at)
                        }));
                        match outcome {
                            Ok(out) => {
                                let mut w = Writer::new();
                                w.usize(chunk_idx);
                                out.encode(&mut w);
                                chan.send(K_RESULT, &w.into_bytes())?;
                            }
                            Err(panic) => {
                                let msg = panic
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| panic.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "worker UDF panicked".to_string());
                                let mut w = Writer::new();
                                w.u8(ERR_PANICKED);
                                w.usize(stage_at.get());
                                w.usize(chunk_idx);
                                w.str(&msg);
                                chan.send(K_ERR, &w.into_bytes())?;
                            }
                        }
                    }
                    Some(Err(why)) => {
                        let mut w = Writer::new();
                        w.u8(ERR_REJECTED);
                        w.str(why);
                        chan.send(K_ERR, &w.into_bytes())?;
                    }
                    None => {
                        return Err(TransportError::Protocol {
                            expected: "a STAGE frame before DATA",
                            got: K_DATA,
                        })
                    }
                }
                chan.flush()?;
            }
            other => {
                return Err(TransportError::Protocol { expected: "STAGE, DATA, or BYE", got: other })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side: the shard pool and stage orchestration
// ---------------------------------------------------------------------------

type BoxedRead = Box<dyn Read + Send>;
type BoxedWrite = Box<dyn Write + Send>;
type ShardChannel = FrameChannel<BoxedRead, BoxedWrite>;

enum Peer {
    Thread { join: Option<std::thread::JoinHandle<()>>, kill: UnixStream },
    Child(Child),
}

struct ShardHandle {
    chan: ShardChannel,
    peer: Peer,
}

impl ShardHandle {
    fn frames_total(&self) -> u64 {
        self.chan.frames_sent + self.chan.frames_received
    }

    /// Sends one frame and flushes it: every parent frame is a turn.
    fn send_now(&mut self, kind: u8, payload: &[u8]) -> Result<(), TransportError> {
        self.chan.send(kind, payload)?;
        self.chan.flush()
    }

    /// Simulates (or performs) abrupt worker loss: the channel dies
    /// mid-conversation from the peer's point of view.
    fn force_kill(&mut self) {
        match &mut self.peer {
            Peer::Thread { join, kill } => {
                let _ = kill.shutdown(std::net::Shutdown::Both);
                if let Some(j) = join.take() {
                    let _ = j.join();
                }
            }
            Peer::Child(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    fn shutdown(mut self) {
        let _ = self.chan.send(K_BYE, &[]);
        let _ = self.chan.flush();
        match self.peer {
            Peer::Thread { join, .. } => {
                if let Some(j) = join {
                    let _ = j.join();
                }
            }
            Peer::Child(mut child) => {
                let _ = child.wait();
            }
        }
    }
}

fn spawn_worker(kind: &WorkerKind) -> Result<ShardHandle, TransportError> {
    match kind {
        WorkerKind::InProcess => {
            let (parent, worker) = UnixStream::pair()?;
            let worker_r = worker.try_clone()?;
            let join = std::thread::Builder::new()
                .name("websift-shard".to_string())
                .spawn(move || {
                    let _ = worker_serve(BufReader::new(worker_r), worker);
                })?;
            let kill = parent.try_clone()?;
            let parent_r = parent.try_clone()?;
            Ok(ShardHandle {
                chan: FrameChannel::new(
                    Box::new(BufReader::new(parent_r)),
                    Box::new(parent),
                ),
                peer: Peer::Thread { join: Some(join), kill },
            })
        }
        WorkerKind::Process { cmd } => {
            let mut child = Command::new(cmd)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?;
            let stdin = child.stdin.take().ok_or(TransportError::Closed)?;
            let stdout = child.stdout.take().ok_or(TransportError::Closed)?;
            Ok(ShardHandle {
                chan: FrameChannel::new(
                    Box::new(BufReader::new(stdout)),
                    Box::new(BufWriter::new(stdin)),
                ),
                peer: Peer::Child(child),
            })
        }
    }
}

/// Failures of a sharded stage run, mapped by the executor onto its
/// own error vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardRunError {
    /// A worker reported a UDF panic (`K_ERR`) — same semantics as an
    /// in-process chunk panic.
    Panicked { stage: usize, chunk: usize },
    /// The shard's channel died mid-conversation (crash or injected
    /// kill) and `respawn_lost` was off.
    Lost { shard: usize },
    /// The conversation desynchronized (unexpected frame, corrupt
    /// payload).
    Protocol { shard: usize, detail: String },
}

impl std::fmt::Display for ShardRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardRunError::Panicked { stage, chunk } => {
                write!(f, "worker reported a panic in stage {stage}, chunk {chunk}")
            }
            ShardRunError::Lost { shard } => write!(f, "worker shard {shard} lost"),
            ShardRunError::Protocol { shard, detail } => {
                write!(f, "shard {shard} protocol violation: {detail}")
            }
        }
    }
}

/// A pool of N worker shards, living for the duration of one executor
/// run. Spawns shards lazily, counts frames for the kill hook, and
/// shuts every worker down (BYE + join/wait) on drop.
pub struct ShardPool {
    cfg: ShardConfig,
    handles: Vec<Option<ShardHandle>>,
    kill_fired: Arc<AtomicBool>,
    /// Channel totals of shards that have died (their live counters are
    /// gone with the handle).
    dead_frames: u64,
    dead_wire: u64,
    /// Workers respawned after a loss.
    pub respawns: u64,
}

impl ShardPool {
    pub fn new(cfg: ShardConfig) -> ShardPool {
        let n = cfg.shards.max(1);
        ShardPool {
            cfg,
            handles: (0..n).map(|_| None).collect(),
            kill_fired: Arc::new(AtomicBool::new(false)),
            dead_frames: 0,
            dead_wire: 0,
            respawns: 0,
        }
    }

    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Total frames carried over all shard channels so far (both
    /// directions, dead shards included).
    pub fn frames_total(&self) -> u64 {
        self.dead_frames
            + self
                .handles
                .iter()
                .flatten()
                .map(ShardHandle::frames_total)
                .sum::<u64>()
    }

    /// Total frame payload bytes over all shard channels so far.
    pub fn wire_bytes_total(&self) -> u64 {
        self.dead_wire
            + self
                .handles
                .iter()
                .flatten()
                .map(|h| h.chan.payload_bytes)
                .sum::<u64>()
    }

    fn take_or_spawn(&mut self, shard: usize) -> Result<ShardHandle, ShardRunError> {
        match self.handles[shard].take() {
            Some(h) => Ok(h),
            None => spawn_worker(&self.cfg.worker).map_err(|e| ShardRunError::Protocol {
                shard,
                detail: format!("spawn failed: {e}"),
            }),
        }
    }

    fn kill_threshold(&self, shard: usize) -> Option<u64> {
        match self.cfg.kill {
            Some(k) if k.shard == shard && !self.kill_fired.load(Ordering::Relaxed) => {
                Some(k.after_frames)
            }
            _ => None,
        }
    }

    fn bury(&mut self, handle: ShardHandle) {
        self.dead_frames += handle.frames_total();
        self.dead_wire += handle.chan.payload_bytes;
        drop(handle);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for slot in &mut self.handles {
            if let Some(handle) = slot.take() {
                handle.shutdown();
            }
        }
    }
}

/// One shard's assignment for a stage: `(chunk index, records)` items.
type Work = Vec<(usize, Vec<Record>)>;

/// What every shard conversation of one stage run shares.
struct Conversation<'a> {
    task_bytes: &'a [u8],
    kill_fired: &'a AtomicBool,
}

/// What one shard's conversation committed this stage: `(chunk index,
/// result)` per answered chunk.
type Results = Vec<(usize, ChunkOut)>;

fn lost_or_protocol(shard: usize, e: TransportError) -> ShardRunError {
    match e {
        TransportError::Frame(_) | TransportError::Closed => ShardRunError::Lost { shard },
        other => ShardRunError::Protocol { shard, detail: other.to_string() },
    }
}

/// The one parent-side conversation loop: STAGE, then DATA frames under
/// the credit window, each answered by RESULT or ERR. Every payload is
/// untrusted: a short or corrupt one is a `Protocol` error, never a
/// default value.
fn converse(
    conv: &Conversation<'_>,
    shard: usize,
    handle: &mut ShardHandle,
    work: &[(usize, Vec<Record>)],
    kill_after: Option<u64>,
    out: &mut Results,
) -> Result<(), ShardRunError> {
    let lost = |e| lost_or_protocol(shard, e);
    let protocol = |detail: String| ShardRunError::Protocol { shard, detail };
    // The injected-loss hook: the channel dies once it has carried
    // `kill_after` frames.
    let kill_check = |handle: &mut ShardHandle| {
        if kill_after.is_some_and(|n| handle.frames_total() >= n) {
            conv.kill_fired.store(true, Ordering::Relaxed);
            handle.force_kill();
            return Err(ShardRunError::Lost { shard });
        }
        Ok(())
    };
    handle.send_now(K_STAGE, conv.task_bytes).map_err(lost)?;
    let mut win = CreditWindow::new();
    let mut cursor = 0usize;
    // the next chunk's payload, encoded but still waiting for credit
    let mut next: Option<Vec<u8>> = None;
    loop {
        while let Some((idx, records)) = work.get(cursor) {
            let payload = next.take().unwrap_or_else(|| encode_chunk_payload(*idx, records));
            if !win.has_credit(payload.len()) {
                next = Some(payload);
                break;
            }
            handle.send_now(K_DATA, &payload).map_err(lost)?;
            win.on_sent(payload.len());
            cursor += 1;
            kill_check(handle)?;
        }
        if win.in_flight() == 0 {
            return Ok(());
        }
        match handle.chan.recv_required("a reply").map_err(lost)? {
            (K_RESULT, payload) => {
                let mut r = Reader::new(&payload);
                let idx = r.usize().and_then(|idx| ChunkOut::decode(&mut r).map(|c| (idx, c)));
                out.push(idx.map_err(|e| protocol(format!("bad RESULT payload: {e}")))?);
            }
            (K_ERR, payload) => {
                let mut r = Reader::new(&payload);
                return Err(match r.u8() {
                    Ok(ERR_PANICKED) => match (r.usize(), r.usize()) {
                        (Ok(stage), Ok(chunk)) => ShardRunError::Panicked { stage, chunk },
                        _ => protocol("truncated ERR payload".to_string()),
                    },
                    Ok(ERR_REJECTED) => match r.str() {
                        Ok(why) => protocol(format!("worker rejected the stage: {why}")),
                        Err(_) => protocol("truncated ERR payload".to_string()),
                    },
                    _ => protocol("unreadable ERR payload".to_string()),
                });
            }
            (kind, _) => {
                return Err(protocol(format!("unexpected frame kind {kind:#04x} awaiting RESULT")))
            }
        }
        win.on_answered();
        kill_check(handle)?;
    }
}

/// Drives one shard through one stage and settles the outcome: what the
/// shard committed, the error that ended the conversation (if any), and
/// the work items a respawned worker must re-run.
fn drive_shard(
    conv: &Conversation<'_>,
    shard: usize,
    handle: &mut ShardHandle,
    work: Work,
    kill_after: Option<u64>,
) -> (Results, Option<ShardRunError>, Work) {
    let mut out = Results::new();
    let err = converse(conv, shard, handle, &work, kill_after, &mut out).err();
    if err.is_none() {
        return (out, None, Vec::new());
    }
    // lint:allow(hash_iteration): membership test only; `undone` keeps `work`'s order
    let done: std::collections::HashSet<usize> = out.iter().map(|(idx, _)| *idx).collect();
    let undone = work.into_iter().filter(|(idx, _)| !done.contains(idx)).collect();
    (out, err, undone)
}

impl ShardPool {
    /// Runs one stage's conversations across the pool: `assigned[s]` is
    /// shard `s`'s work, each busy shard driven by its own feeder thread
    /// under the per-edge credit window. Errored handles are buried;
    /// with `respawn_lost` a lost shard is replaced and re-runs whatever
    /// never reported back. Returns one [`Results`] per shard.
    fn run_stage(
        &mut self,
        task: &StageTask,
        assigned: Vec<Work>,
    ) -> Result<Vec<Results>, ShardRunError> {
        let task_bytes = task.encode()?;
        let kill_fired = Arc::clone(&self.kill_fired);
        let conv = Conversation { task_bytes: &task_bytes, kill_fired: &kill_fired };
        let mut per_shard: Vec<Results> = assigned.iter().map(|_| Results::new()).collect();
        let mut feeds = Vec::new();
        for (shard, work) in assigned.into_iter().enumerate() {
            if !work.is_empty() {
                feeds.push((shard, self.take_or_spawn(shard)?, work, self.kill_threshold(shard)));
            }
        }
        let joined: Vec<_> = std::thread::scope(|scope| {
            let conv = &conv;
            let feeders: Vec<_> = feeds
                .into_iter()
                .map(|(shard, mut handle, work, kill_after)| {
                    let feeder = scope.spawn(move || {
                        let (out, err, undone) =
                            drive_shard(conv, shard, &mut handle, work, kill_after);
                        (out, err, undone, handle)
                    });
                    (shard, feeder)
                })
                .collect();
            feeders.into_iter().map(|(shard, f)| (shard, f.join())).collect()
        });

        let mut first_err: Option<ShardRunError> = None;
        for (shard, outcome) in joined {
            let Ok((mut out, mut err, undone, mut handle)) = outcome else {
                first_err.get_or_insert(ShardRunError::Protocol {
                    shard,
                    detail: "shard feeder thread panicked".to_string(),
                });
                continue;
            };
            if self.cfg.respawn_lost && matches!(err, Some(ShardRunError::Lost { .. })) {
                self.respawns += 1;
                let fresh = self.take_or_spawn(shard)?;
                self.bury(std::mem::replace(&mut handle, fresh));
                let (redo, redo_err, _) = drive_shard(&conv, shard, &mut handle, undone, None);
                out.extend(redo);
                err = redo_err;
            }
            match err {
                None => self.handles[shard] = Some(handle),
                // A handle that hit any error is dead or desynchronized:
                // bury it (keeping its frame counters), never reuse it.
                Some(e) => {
                    self.bury(handle);
                    // a panic outranks a loss: it is deterministic and
                    // the local runner would have surfaced it too
                    if matches!(e, ShardRunError::Panicked { .. }) {
                        first_err = Some(e);
                    } else {
                        first_err.get_or_insert(e);
                    }
                }
            }
            per_shard[shard] = out;
        }
        first_err.map_or(Ok(per_shard), Err)
    }

    /// Folds the pool's channel counters into `physical` — read once,
    /// when the run ends.
    pub fn report(&self, physical: &mut PhysicalStats) {
        physical.shards_used = self.shards() as u64;
        physical.shard_frames = self.frames_total();
        physical.shard_wire_bytes = self.wire_bytes_total();
        physical.shard_respawns = self.respawns;
    }
}

fn unshippable(op: &Operator) -> ShardRunError {
    ShardRunError::Protocol {
        shard: 0,
        detail: format!("operator '{}' has no wire form a worker shard could rebuild", op.name),
    }
}

/// The sharded runner: chunks cross the frame protocol to worker shards
/// that rebuild the operators from their wire forms.
impl StageRunner for ShardPool {
    /// Chunks are dealt round-robin over the shards and merged back in
    /// chunk order — the exact merge order of the local runner.
    fn run_chunks(
        &mut self,
        stage: &StageKernel<'_>,
        chunks: Vec<Vec<Record>>,
    ) -> Result<Vec<ChunkOut>, ShardRunError> {
        let task = StageTask {
            ops: stage.ops.iter().map(|&op| op.clone()).collect(),
            fold: stage.fold.cloned(),
            tapped: stage.tapped.to_vec(),
            work_scale: stage.work_scale,
        };
        let n_shards = self.shards();
        let mut slots: Vec<Option<ChunkOut>> = chunks.iter().map(|_| None).collect();
        let mut assigned: Vec<Work> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, c) in chunks.into_iter().enumerate() {
            assigned[i % n_shards].push((i, c));
        }
        for (shard, out) in self.run_stage(&task, assigned)?.into_iter().enumerate() {
            for (idx, chunk_out) in out {
                // the index came off the wire: never trust it as a slot
                let slot = slots.get_mut(idx).ok_or_else(|| ShardRunError::Protocol {
                    shard,
                    detail: format!("result for unknown chunk {idx}"),
                })?;
                *slot = Some(chunk_out);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.ok_or_else(|| ShardRunError::Protocol {
                    shard: idx % n_shards,
                    detail: format!("chunk {idx} never produced a result"),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages::{base, ie, testkit};
    use websift_resilience::frame::{read_frame, write_frame};

    fn docs(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::new();
                r.set("id", i as i64)
                    .set("text", format!("document {i} with a little body text"));
                r
            })
            .collect()
    }

    #[test]
    fn worker_serves_a_pipeline_stage_identically_to_a_direct_kernel_run() {
        let ops = [testkit::stamp(), testkit::parity()];
        let refs: Vec<&Operator> = ops.iter().collect();
        let kernel = StageKernel { ops: &refs, fold: None, tapped: &[], work_scale: 1.0 };
        let direct = kernel.run_chunk(docs(10), &Cell::new(0));

        let mut pool = ShardPool::new(ShardConfig::in_process(1));
        let outs = pool.run_chunks(&kernel, vec![docs(10)]).unwrap();
        assert_eq!(outs.len(), 1);
        let sharded = &outs[0];
        assert_eq!(sharded.out, direct.out);
        assert_eq!(sharded.bytes_out, direct.bytes_out);
        assert_eq!(sharded.stages.len(), direct.stages.len());
        for (a, b) in sharded.stages.iter().zip(&direct.stages) {
            assert_eq!(a.records_in, b.records_in);
            assert_eq!(a.bytes_in, b.bytes_in);
            assert_eq!(
                a.costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                b.costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
            );
        }
        assert!(pool.frames_total() > 0);
    }

    #[test]
    fn killed_shard_surfaces_as_lost() {
        let cfg = ShardConfig::in_process(2).with_kill(KillSpec { shard: 1, after_frames: 2 });
        let mut pool = ShardPool::new(cfg);
        let stamp = testkit::stamp();
        let kernel = StageKernel { ops: &[&stamp], fold: None, tapped: &[], work_scale: 1.0 };
        let chunks: Vec<Vec<Record>> = (0..6).map(|_| docs(4)).collect();
        match pool.run_chunks(&kernel, chunks) {
            Err(ShardRunError::Lost { shard }) => assert_eq!(shard, 1),
            other => panic!("expected Lost, got {other:?}"),
        }
    }

    #[test]
    fn respawned_shard_recovers_all_chunks() {
        let cfg = ShardConfig::in_process(2)
            .with_kill(KillSpec { shard: 0, after_frames: 3 })
            .with_respawn(true);
        let mut pool = ShardPool::new(cfg);
        let stamp = testkit::stamp();
        let kernel = StageKernel { ops: &[&stamp], fold: None, tapped: &[], work_scale: 1.0 };
        let chunks: Vec<Vec<Record>> = (0..6).map(|i| docs(3 + i)).collect();
        let outs = pool.run_chunks(&kernel, chunks).unwrap();
        assert_eq!(outs.len(), 6);
        assert_eq!(pool.respawns, 1);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.out.len(), 3 + i);
            assert!(out.out.iter().all(|r| r.contains("stamp")));
        }
    }

    /// A shard whose worker is a hand-written reply stream: whatever the
    /// parent sends is discarded.
    fn scripted_shard(replies: &[(u8, Vec<u8>)]) -> ShardHandle {
        let mut wire = Vec::new();
        for (kind, payload) in replies {
            write_frame(&mut wire, *kind, payload).unwrap();
        }
        let (kill, _peer) = UnixStream::pair().unwrap();
        ShardHandle {
            chan: FrameChannel::new(Box::new(std::io::Cursor::new(wire)), Box::new(std::io::sink())),
            peer: Peer::Thread { join: None, kill },
        }
    }

    fn drive_scripted(script: &[(u8, Vec<u8>)]) -> (Results, Option<ShardRunError>, Work) {
        let kill_fired = AtomicBool::new(false);
        let conv = Conversation { task_bytes: &[], kill_fired: &kill_fired };
        drive_shard(&conv, 3, &mut scripted_shard(script), vec![(0, docs(2))], None)
    }

    #[test]
    fn short_err_payloads_are_protocol_errors_not_defaults() {
        let payload = |fill: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            fill(&mut w);
            w.into_bytes()
        };
        // K_ERR carrying a stage but no chunk: not "panic in chunk 0"
        let short = payload(&|w| {
            w.u8(ERR_PANICKED);
            w.usize(5);
        });
        let (_, err, undone) = drive_scripted(&[(K_ERR, short)]);
        assert!(
            matches!(&err, Some(ShardRunError::Protocol { shard: 3, detail }) if detail.contains("ERR")),
            "got {err:?}"
        );
        assert_eq!(undone.len(), 1, "the unanswered chunk is handed back");
        // a well-formed K_ERR still reports the panic's stage and chunk
        let full = payload(&|w| {
            w.u8(ERR_PANICKED);
            w.usize(5);
            w.usize(7);
            w.str("boom");
        });
        let (_, err, _) = drive_scripted(&[(K_ERR, full)]);
        assert_eq!(err, Some(ShardRunError::Panicked { stage: 5, chunk: 7 }));
    }

    #[test]
    fn a_result_for_an_unknown_chunk_is_a_protocol_error() {
        let mut reply = Writer::new();
        reply.usize(99);
        ChunkOut::default().encode(&mut reply);
        let mut pool = ShardPool::new(ShardConfig::in_process(1));
        pool.handles[0] = Some(scripted_shard(&[(K_RESULT, reply.into_bytes())]));
        let stamp = testkit::stamp();
        let kernel = StageKernel { ops: &[&stamp], fold: None, tapped: &[], work_scale: 1.0 };
        match pool.run_chunks(&kernel, vec![docs(2)]) {
            Err(ShardRunError::Protocol { detail, .. }) => assert!(detail.contains("99")),
            other => panic!("expected a protocol error, got {:?}", other.map(|o| o.len())),
        }
    }

    #[test]
    fn chunk_out_roundtrips_with_partials_and_taps() {
        let entries = vec![
            ("a".to_string(), AggState::Count(3), vec![0.5, 0.25]),
            ("b".to_string(), AggState::Sum(41), vec![1.0]),
        ];
        let original = ChunkOut {
            stages: vec![ChunkStats {
                costs: vec![0.125, 0.25],
                records_in: 2,
                bytes_in: 99,
                wall_ms: 7.0,
            }],
            out: docs(3),
            bytes_out: 123,
            partial: Some((entries, 456)),
            taps: vec![docs(1), Vec::new()],
        };
        let mut w = Writer::new();
        original.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = ChunkOut::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.out, original.out);
        assert_eq!(back.bytes_out, original.bytes_out);
        assert_eq!(back.taps, original.taps);
        assert_eq!(back.stages[0].records_in, 2);
        assert_eq!(back.stages[0].wall_ms, 0.0, "wall_ms never crosses the wire");
        let (entries, shuffled) = back.partial.unwrap();
        assert_eq!(shuffled, 456);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a");
        assert_eq!(entries[0].1, AggState::Count(3));
        assert_eq!(entries[1].2, vec![1.0]);
    }

    // -- hostile bytes into the stage-task decoder --------------------------

    fn pipeline_task() -> StageTask {
        StageTask {
            ops: vec![ie::annotate_tokens(), base::filter_length(4096), testkit::stamp()],
            fold: Some(base::count_by("stamp")),
            tapped: vec![1],
            work_scale: 2.0,
        }
    }

    /// One worker conversation over in-memory bytes: STAGE(`task`), one
    /// DATA chunk, BYE. Returns what the worker answered.
    fn serve(task: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, TransportError> {
        let mut input = Vec::new();
        write_frame(&mut input, K_STAGE, task).unwrap();
        write_frame(&mut input, K_DATA, &encode_chunk_payload(0, &docs(5))).unwrap();
        write_frame(&mut input, K_BYE, &[]).unwrap();
        let mut output = Vec::new();
        worker_serve(&input[..], &mut output)?;
        let mut replies = Vec::new();
        let mut rd = &output[..];
        while let Some(frame) = read_frame(&mut rd).unwrap() {
            replies.push(frame);
        }
        Ok(replies)
    }

    fn rejection(replies: &[(u8, Vec<u8>)]) -> Option<String> {
        let (kind, payload) = replies.first()?;
        let mut r = Reader::new(payload);
        (*kind == K_ERR && r.u8().ok()? == ERR_REJECTED).then(|| r.str().ok()).flatten()
    }

    #[test]
    fn intact_tasks_are_served_and_roundtrip() {
        let bytes = pipeline_task().encode().unwrap();
        let again = StageTask::decode(&bytes).unwrap().encode().unwrap();
        assert_eq!(again, bytes, "decode . encode is the identity on wire bytes");
        let replies = serve(&bytes).unwrap();
        assert!(rejection(&replies).is_none(), "{replies:?}");
        assert_eq!(replies[0].0, K_RESULT);
    }

    #[test]
    fn every_truncation_of_a_task_is_rejected_with_a_typed_reply() {
        let bytes = pipeline_task().encode().unwrap();
        for cut in 0..bytes.len() {
            let replies = serve(&bytes[..cut]).expect("a bad STAGE never ends the loop");
            let why = rejection(&replies);
            assert!(why.is_some(), "cut at {cut}/{} was not rejected: {replies:?}", bytes.len());
        }
    }

    #[test]
    fn every_single_bit_flip_is_served_or_rejected_never_a_panic() {
        let bytes = pipeline_task().encode().unwrap();
        for at in 0..bytes.len() {
            let mut forged = bytes.clone();
            forged[at] ^= 1 << (at % 8);
            let replies = serve(&forged).expect("a bad STAGE never ends the loop");
            assert_eq!(replies.len(), 1, "flip at {at}: one DATA frame, one answer");
            let kind = replies[0].0;
            assert!(
                matches!(kind, K_ERR | K_RESULT),
                "flip at {at}: unexpected reply kind {kind:#04x}"
            );
        }
    }

    #[test]
    fn forged_element_counts_end_in_typed_errors() {
        let claim = |prefix: &[usize]| {
            let mut w = Writer::new();
            prefix.iter().for_each(|&n| w.usize(n));
            w.into_bytes()
        };
        // a task claiming usize::MAX chain constituents is rejected, having
        // reserved nothing (`presize` bounds it by the bytes that remain)
        let task = claim(&[usize::MAX]);
        assert_eq!(
            StageTask::decode(&task).unwrap_err(),
            WireError::Codec(CodecError::Truncated { what: "u64" })
        );
        assert!(rejection(&serve(&task).unwrap()).is_some());

        // chunk 0 claiming usize::MAX records: corrupt DATA ends the loop
        let chunk = claim(&[0, usize::MAX]);
        assert!(matches!(decode_chunk_payload(&chunk), Err(CodecError::Truncated { .. })));
        let mut input = Vec::new();
        write_frame(&mut input, K_STAGE, &pipeline_task().encode().unwrap()).unwrap();
        write_frame(&mut input, K_DATA, &chunk).unwrap();
        assert!(matches!(
            worker_serve(&input[..], std::io::sink()),
            Err(TransportError::Codec(CodecError::Truncated { .. }))
        ));
    }

    /// A task whose one chain constituent names `factory` with `params` —
    /// the forgery a hostile or version-skewed parent sends.
    fn forged_task(factory: &str, params: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(1);
        w.str(factory);
        w.bytes(params);
        w.f64(0.0);
        w.u64(0);
        w.f64(0.0);
        w.bool(false);
        w.bool(false); // no fold
        w.usize(0); // no taps
        w.f64(1.0);
        w.into_bytes()
    }

    #[test]
    fn unknown_factories_and_absurd_recipes_surface_as_protocol_errors_naming_the_factory() {
        let mut absurd = Writer::new();
        for size in [usize::MAX, usize::MAX, usize::MAX] {
            absurd.usize(size); // a lexicon no machine could hold
        }
        absurd.f64(0.7);
        absurd.usize(usize::MAX); // training sentences
        absurd.bool(false);
        absurd.usize(usize::MAX); // epochs
        absurd.bool(true);
        absurd.u64(1);
        absurd.u8(0);
        let mut degenerate = Writer::new();
        for size in [0usize, 0, 0] {
            degenerate.usize(size); // in bounds, but nothing to sample a sentence from
        }
        degenerate.f64(0.7);
        degenerate.usize(10);
        degenerate.bool(false);
        degenerate.usize(1);
        degenerate.bool(true);
        degenerate.u64(1);
        degenerate.u8(0);
        let cases = [
            ("no.such_operator", Vec::new(), "no.such_operator"),
            ("ie.annotate_entities_dict", absurd.into_bytes(), "ie.annotate_entities_dict"),
            ("ie.annotate_entities_ml", degenerate.into_bytes(), "ie.annotate_entities_ml"),
            ("base.count_by", vec![0xff; 8], "base.count_by"),
            ("testkit.tally", Vec::new(), "tally"), // a reduce where a chain constituent must be
        ];
        for (factory, params, named) in cases {
            let forged = forged_task(factory, &params);
            let why = rejection(&serve(&forged).unwrap()).expect("rejected");
            assert!(why.contains(named), "{why}");

            // and through the parent's conversation loop, against a live worker
            let kill_fired = AtomicBool::new(false);
            let conv = Conversation { task_bytes: &forged, kill_fired: &kill_fired };
            let mut handle = spawn_worker(&WorkerKind::InProcess).unwrap();
            let (_, err, undone) = drive_shard(&conv, 2, &mut handle, vec![(0, docs(2))], None);
            assert!(
                matches!(&err, Some(ShardRunError::Protocol { shard: 2, detail }) if detail.contains(named)),
                "got {err:?}"
            );
            assert_eq!(undone.len(), 1);
        }
    }
}
