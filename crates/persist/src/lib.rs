//! Durability for the update-validation gateway (ROADMAP item 4): a
//! write-ahead log of accepted commits, per-document snapshots, the
//! binary codec underneath both, and the one file-system seam they write
//! through.
//!
//! The crate is deliberately mechanism-only — it knows how to frame,
//! checksum, persist and reload trees, update batches and certificates,
//! but holds no admission logic. `xuc-service` composes
//! these pieces into `Gateway::recover`: load [`snapshot`]s, replay the
//! [`wal`] tail through the live admission path, and arrive at a store
//! byte-identical to the pre-crash one (the kill/restart differential
//! harness in `crates/service/tests/differential.rs` and the crash-state
//! explorer in `crates/service/tests/crash_states.rs` are the proof).
//!
//! * [`codec`] — minimal varints, one label dictionary per frame;
//!   exact-order tree encoding and gap-coded signed sets; constraints as
//!   their canonical parseable text; the one `[len][checksum][payload]`
//!   frame writer and reader.
//! * [`wal`] — frames behind a magic header, buffered until the caller
//!   syncs, torn-tail truncation on reopen, and a corrupted header refused
//!   rather than truncated.
//! * [`snapshot`] — one framed file per document (tree, suite, commit
//!   counter, chain anchor and the keyed tag binding them), written to a
//!   `.tmp` sibling, installed by atomic rename and made durable by a
//!   directory sync.
//! * [`fs`] — the [`FileSystem`] trait every file operation above goes
//!   through, and [`StdFs`], which calls `std::fs`.
//! * [`sim`] — [`SimDisk`], the simulated disk: durable and volatile
//!   state under a conservative crash model (unsynced writes may be lost
//!   or torn; a create or rename persists only once its directory is
//!   synced), an operation trace, every crash state it allows, and sync
//!   faults on request. The crash, chaos and kill/restart suites take
//!   their faults from it; there is no other fault-injection mechanism.
//! * [`retry`] — transient-vs-fatal IO error classification and a
//!   bounded, deterministically backed-off retry loop with an injectable
//!   clock; the policy half of the gateway's survive-the-fault story.
//!
//! Outside tests the crate uses no `unwrap` or `expect`: a value too
//! large for the format is an [`EncodeError`], a bad byte a
//! [`DecodeError`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod fs;
pub mod retry;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod wal;

pub use codec::{checksum64, decode_tree, encode_tree, DecodeError, Decoder, EncodeError, Encoder};
pub use fs::{FileHandle, FileSystem, StdFs};
pub use retry::{
    classify, retry_io, Clock, FaultClass, IoFailure, RetryOutcome, RetryPolicy, SystemClock,
    VirtualClock,
};
pub use sim::{Crash, CrashState, SimDisk, SyncFault};
pub use snapshot::{read_snapshots, snapshot_path, write_snapshot, DocSnapshot};
pub use stats::{persist_counters, PersistCounters};
pub use wal::{read_wal, WalRecord, WalScan, WalWriter};

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
