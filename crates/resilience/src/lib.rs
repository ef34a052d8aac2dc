//! Fault tolerance for the websift pipeline.
//!
//! The SIGMOD'16 experience report behind this repository is blunt about
//! what dominated the 80-day crawl and the cluster-scale flow runs: not
//! clever algorithms but *failures* — flaky fetches, worker crashes mid
//! operator, nodes dropping out of the simulated cluster, and the cost of
//! restarting long jobs from zero. This crate packages the three
//! mechanisms the paper's war stories call for, in a form the rest of the
//! workspace can wire in without taking on any non-deterministic
//! behaviour:
//!
//! - [`fault`] — a seeded, thread-interleaving-independent [`FaultPlan`]
//!   that injects transient fetch errors, worker panics, simulated node
//!   loss, and store read/write failures at reproducible points;
//! - [`retry`] — exponential backoff with decorrelated jitter
//!   ([`BackoffPolicy`]), per-host [`RetryBudget`]s, and a
//!   [`CircuitBreaker`] that quarantines persistently failing hosts;
//! - [`codec`] / [`checkpoint`] — a byte-deterministic serialization
//!   substrate ([`codec::Writer`] / [`codec::Reader`]) and the
//!   [`checkpoint::Snapshot`] trait, used by the crawler and the flow
//!   executor to snapshot state at segment/operator boundaries and resume
//!   bit-identically after a kill.
//!
//! Everything here is deterministic by construction: fault decisions are
//! pure functions of `(seed, kind, site, occurrence)`, backoff delays are
//! pure functions of `(seed, site, attempt)`, and checkpoints encode
//! floats via their IEEE-754 bit patterns so a resumed run reproduces the
//! exact accumulator values of an uninterrupted one.

pub mod checkpoint;
pub mod codec;
pub mod fault;
pub mod retry;

pub use checkpoint::Snapshot;
pub use codec::{CodecError, Reader, Writer};
pub use fault::{FaultKind, FaultPlan};
pub use retry::{BackoffPolicy, BreakerState, CircuitBreaker, RetryBudget};
