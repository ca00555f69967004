//! Durability for the update-validation gateway (ROADMAP item 4): a
//! write-ahead log of accepted commits, per-document snapshots, and the
//! binary codec underneath both.
//!
//! The crate is deliberately mechanism-only — it knows how to frame,
//! checksum, persist and reload trees, update batches and certificates,
//! but holds no admission logic. `xuc-service` composes
//! these pieces into `Gateway::recover`: load [`snapshot`]s, replay the
//! [`wal`] tail through the live admission path, and arrive at a store
//! byte-identical to the pre-crash one (the kill/restart differential
//! harness in `crates/service/tests/differential.rs` is the proof).
//!
//! * [`codec`] — fixed-width little-endian primitives; exact-order tree
//!   encoding; constraints as their canonical parseable text; the one
//!   `[len][checksum][payload]` frame writer and reader.
//! * [`wal`] — frames behind a magic header, group-commit buffering,
//!   torn-tail truncation on reopen, and a [`WriteFault`] hook for
//!   crash-injection tests.
//! * [`snapshot`] — one framed file per document (tree, suite, commit
//!   counter and chain anchor), written to a `.tmp` sibling and
//!   installed by atomic rename.
//! * [`retry`] — transient-vs-fatal IO error classification and a
//!   bounded, deterministically backed-off retry loop with an injectable
//!   clock; the policy half of the gateway's survive-the-fault story.
//!
//! The `test-hooks` cargo feature additionally compiles write-time fault
//! injection into [`WalWriter`] (`wal::WalWriter::inject_fault`) for
//! the chaos harness; release builds carry no injection state.

pub mod codec;
pub mod retry;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use codec::{checksum64, decode_tree, encode_tree, DecodeError, Decoder, Encoder};
pub use retry::{
    classify, retry_io, Clock, FaultClass, IoFailure, RetryOutcome, RetryPolicy, SystemClock,
    VirtualClock,
};
pub use snapshot::{read_snapshots, snapshot_path, write_snapshot, DocSnapshot};
pub use stats::{persist_counters, PersistCounters};
pub use wal::{read_wal, WalRecord, WalScan, WalWriter, WriteFault};

use std::fmt;
use std::io;

/// Anything that can go wrong loading persisted state.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem failed underneath us.
    Io(io::Error),
    /// A file was intact enough to read but its content did not decode
    /// (checksum mismatch, bad framing, unparseable constraint…).
    Decode(DecodeError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence IO error: {e}"),
            PersistError::Decode(e) => write!(f, "persisted data corrupt: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Decode(e) => Some(e),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Decode(e)
    }
}
