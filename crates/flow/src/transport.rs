//! Typed frame protocol between the executor and its worker shards.
//!
//! The raw streaming layer ([`websift_resilience::frame`]) moves opaque
//! `(kind, payload)` frames over a pipe or socket; this module gives the
//! shuffle its vocabulary (frame kinds), a counting [`FrameChannel`]
//! wrapper, and the [`CreditWindow`] that bounds how much data the
//! parent may have in flight toward one shard — the per-edge
//! backpressure of the sharded runtime.
//!
//! Everything arriving on a channel is untrusted: a worker process may
//! have died mid-frame, a stream may have desynchronized, a kind byte
//! may be garbage. Every decode path here returns a typed
//! [`TransportError`]; nothing panics on wire bytes.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};

use websift_resilience::frame::{read_frame, write_frame, FrameError};
use websift_resilience::CodecError;

/// Stage setup: the serialized stage task a worker must execute.
pub const K_STAGE: u8 = 0x01;
/// A chunk of input records (parent → worker).
pub const K_DATA: u8 = 0x02;
/// One chunk's full result (worker → parent).
pub const K_RESULT: u8 = 0x03;
/// Worker-side failure (a UDF panic, or a STAGE frame the worker could
/// not rebuild), with context.
pub const K_ERR: u8 = 0x04;
/// Orderly shutdown request (parent → worker).
pub const K_BYE: u8 = 0x05;

/// Errors on a shard channel.
#[derive(Debug)]
pub enum TransportError {
    /// The frame layer failed (I/O, truncation, corruption).
    Frame(FrameError),
    /// A frame payload failed to decode.
    Codec(CodecError),
    /// A frame of an unexpected kind arrived.
    Protocol { expected: &'static str, got: u8 },
    /// The peer closed the stream where a frame was required.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "shard channel frame error: {e}"),
            TransportError::Codec(e) => write!(f, "shard frame payload corrupt: {e}"),
            TransportError::Protocol { expected, got } => {
                write!(f, "shard protocol violation: expected {expected}, got frame kind {got:#04x}")
            }
            TransportError::Closed => write!(f, "shard channel closed mid-conversation"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> TransportError {
        TransportError::Frame(e)
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> TransportError {
        TransportError::Codec(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Frame(FrameError::Io(e))
    }
}

/// A counted frame channel over any `Read`/`Write` pair — a child
/// process's stdio pipes or one end of a `UnixStream` pair.
#[derive(Debug)]
pub struct FrameChannel<R, W> {
    reader: R,
    writer: W,
    /// Frames written to the peer.
    pub frames_sent: u64,
    /// Frames read from the peer.
    pub frames_received: u64,
    /// Total payload bytes moved in either direction.
    pub payload_bytes: u64,
}

impl<R: Read, W: Write> FrameChannel<R, W> {
    pub fn new(reader: R, writer: W) -> FrameChannel<R, W> {
        FrameChannel { reader, writer, frames_sent: 0, frames_received: 0, payload_bytes: 0 }
    }

    /// Writes one frame. Not flushed — call [`Self::flush`] at
    /// turn-taking points so pipelined frames share syscalls.
    pub fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.writer, kind, payload)?;
        self.frames_sent += 1;
        self.payload_bytes += payload.len() as u64;
        Ok(())
    }

    pub fn flush(&mut self) -> Result<(), TransportError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next frame; `Ok(None)` on clean end-of-stream.
    pub fn recv(&mut self) -> Result<Option<(u8, Vec<u8>)>, TransportError> {
        match read_frame(&mut self.reader)? {
            Some((kind, payload)) => {
                self.frames_received += 1;
                self.payload_bytes += payload.len() as u64;
                Ok(Some((kind, payload)))
            }
            None => Ok(None),
        }
    }

    /// Reads the next frame, treating end-of-stream as
    /// [`TransportError::Closed`] — for protocol points where the peer
    /// owes us an answer.
    pub fn recv_required(&mut self, expected: &'static str) -> Result<(u8, Vec<u8>), TransportError> {
        match self.recv()? {
            Some(frame) => Ok(frame),
            None => {
                let _ = expected;
                Err(TransportError::Closed)
            }
        }
    }
}

/// The credit window every shard edge runs under: at most this many
/// unanswered data frames outstanding toward one shard.
pub const CREDIT_WINDOW: usize = 4;

/// Unanswered payload bytes the parent may leave in a shard's pipe —
/// below the smallest buffer a channel has (a Linux pipe holds 64 KiB),
/// so writing them never waits on the worker.
pub const CREDIT_BYTES: usize = 32 << 10;

/// Bounded per-edge backpressure: the parent may have at most
/// [`CREDIT_WINDOW`] unanswered data frames, of at most [`CREDIT_BYTES`]
/// together,
/// outstanding toward one shard. The shard answers each `K_DATA` with a
/// `K_RESULT` (or `K_ERR`), in order; the parent blocks on those answers
/// before sending more, so a slow worker throttles its feeder instead of
/// buffering an unbounded queue in the pipe.
///
/// The byte bound is what keeps the single-threaded conversation free of
/// deadlock: a worker with unanswered work may be blocked *writing* a
/// reply the parent is not yet reading, so whatever the parent writes
/// meanwhile must fit the channel's buffer. A frame bigger than the
/// budget is sent only with nothing in flight, when the worker can only
/// be reading.
#[derive(Debug, Clone, Default)]
pub struct CreditWindow {
    /// Payload sizes of the unanswered frames, oldest first.
    in_flight: VecDeque<usize>,
}

impl CreditWindow {
    pub fn new() -> CreditWindow {
        CreditWindow::default()
    }

    /// May a data frame of `bytes` be sent without waiting for an answer?
    pub fn has_credit(&self, bytes: usize) -> bool {
        self.in_flight.is_empty()
            || (self.in_flight.len() < CREDIT_WINDOW
                && self.in_flight.iter().sum::<usize>().saturating_add(bytes) <= CREDIT_BYTES)
    }

    /// Records one data frame of `bytes` sent.
    pub fn on_sent(&mut self, bytes: usize) {
        self.in_flight.push_back(bytes);
    }

    /// Records one answer received, releasing the oldest frame's credit.
    pub fn on_answered(&mut self) {
        self.in_flight.pop_front();
    }

    /// Data frames currently unanswered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_roundtrips_and_counts() {
        let mut wire = Vec::new();
        {
            let mut ch = FrameChannel::new(std::io::empty(), &mut wire);
            ch.send(K_DATA, b"records").unwrap();
            ch.send(K_BYE, b"").unwrap();
            ch.flush().unwrap();
            assert_eq!(ch.frames_sent, 2);
            assert_eq!(ch.payload_bytes, 7);
        }
        let mut ch = FrameChannel::new(&wire[..], std::io::sink());
        assert_eq!(ch.recv().unwrap(), Some((K_DATA, b"records".to_vec())));
        assert_eq!(ch.recv().unwrap(), Some((K_BYE, Vec::new())));
        assert_eq!(ch.recv().unwrap(), None);
        assert_eq!(ch.frames_received, 2);
    }

    #[test]
    fn required_recv_reports_closed_stream() {
        let mut ch = FrameChannel::new(std::io::empty(), std::io::sink());
        assert!(matches!(
            ch.recv_required("a result"),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn truncated_stream_is_a_typed_frame_error() {
        let mut wire = Vec::new();
        {
            let mut ch = FrameChannel::new(std::io::empty(), &mut wire);
            ch.send(K_RESULT, b"partial aggregate bytes").unwrap();
        }
        let cut = &wire[..wire.len() - 3];
        let mut ch = FrameChannel::new(cut, std::io::sink());
        assert!(matches!(ch.recv(), Err(TransportError::Frame(_))));
    }

    #[test]
    fn credit_window_bounds_in_flight_data() {
        let mut win = CreditWindow::new();
        for _ in 0..CREDIT_WINDOW {
            assert!(win.has_credit(10));
            win.on_sent(10);
        }
        assert!(!win.has_credit(10));
        assert_eq!(win.in_flight(), CREDIT_WINDOW);
        win.on_answered();
        assert!(win.has_credit(10));
        for _ in 0..=CREDIT_WINDOW {
            win.on_answered(); // extra answers never underflow
        }
        assert_eq!(win.in_flight(), 0);
    }

    #[test]
    fn credit_window_never_leaves_more_than_a_pipe_buffer_unanswered() {
        let mut win = CreditWindow::new();
        // an over-budget frame may go out, but only into an idle edge
        assert!(win.has_credit(10 * CREDIT_BYTES));
        win.on_sent(10 * CREDIT_BYTES);
        assert!(!win.has_credit(1), "nothing may queue behind an over-budget frame");
        win.on_answered();
        // small frames pipeline until their sum reaches the budget
        win.on_sent(CREDIT_BYTES / 2);
        assert!(win.has_credit(CREDIT_BYTES / 2));
        win.on_sent(CREDIT_BYTES / 2);
        assert!(!win.has_credit(1));
        win.on_answered();
        assert!(win.has_credit(CREDIT_BYTES / 2), "answers release the oldest frame's bytes");
    }
}
