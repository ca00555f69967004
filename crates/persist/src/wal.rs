//! The write-ahead log: length-prefixed, checksummed frames, a buffer that
//! syncs when asked, and a torn-tail recovery policy.
//!
//! # Frame format
//!
//! The file opens with the 8-byte magic `XUCWAL01`; every frame after it is
//!
//! ```text
//! [u32 payload length, LE][u64 FNV-1a-64 checksum of payload, LE][payload]
//! ```
//!
//! where the payload is one [`WalRecord`] in the [`crate::codec`] encoding.
//! Frames are written by [`crate::codec::append_frame`] and read by
//! [`crate::codec::split_frame`], the framing snapshot files use too.
//!
//! # Torn-tail policy
//!
//! A crash can leave the file ending in a half-written frame (torn write)
//! or a frame whose bytes never reached the platter (checksum mismatch).
//! [`read_wal`] scans frames in order and **stops at the first bad one**:
//! everything before it is the durable prefix, everything after is
//! discarded — recovery truncates the file there and starts serving
//! ([`WalWriter::open_in`] does the truncation). Refusing to start would
//! turn every unclean shutdown into an outage; trailing garbage after a
//! bad frame is unreachable anyway because frames are only ever appended.
//!
//! The header is different. [`WalWriter::open_in`] syncs it before any
//! frame is appended, so a torn header can only be a file no longer than
//! the magic, which is an empty log. A longer file with a wrong header is
//! corruption, and it is refused as [`DecodeError::BadMagic`] without
//! touching the file: truncating it would silently drop every logged
//! commit.
//!
//! # Buffering and the file system
//!
//! [`WalWriter::append`] buffers encoded frames in memory; only
//! [`WalWriter::sync`] (or drop) writes and syncs them, so when to sync —
//! group commit — is the caller's policy. A crash between syncs loses the
//! buffered suffix. Every file operation goes through a
//! [`FileSystem`]: [`WalWriter::open`] runs on [`StdFs`], and the crash
//! suites run the same writer on the simulated disk
//! ([`crate::sim::SimDisk`]), which loses, drops or tears unsynced writes
//! and fails syncs on request.

use crate::codec::{
    append_frame, decode_certificate, decode_suite, decode_tree, decode_updates,
    encode_certificate, encode_suite, encode_tree, encode_updates, split_frame, DecodeError,
    Decoder, EncodeError, Encoder,
};
use crate::fs::{parent_dir, FileHandle, FileSystem, StdFs};
use crate::PersistError;
use std::io;
use std::path::Path;
use xuc_core::Constraint;
use xuc_sigstore::Certificate;
use xuc_xtree::{DataTree, Update};

const WAL_MAGIC: &[u8; 8] = b"XUCWAL01";

/// One logged event. The WAL records *accepted* state transitions only —
/// rejected batches leave no trace (they changed nothing).
// Publish carries a whole document tree by design; records are built
// once and consumed at the codec boundary, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A document entered the store under `doc` with its initial tree and
    /// constraint suite. The initial certificate is recomputed on replay
    /// (publish is deterministic), so it is not logged.
    Publish { doc: String, tree: DataTree, suite: Vec<Constraint> },
    /// Commit number `commit` of `doc`: the accepted update batch and the
    /// certificate the gateway signed for the post-batch state. Replay
    /// re-admits the batch through the live admission path and checks it
    /// reproduces exactly this certificate.
    Commit { doc: String, commit: u64, updates: Vec<Update>, cert: Certificate },
}

/// Record equality is *exact*: trees compare by preorder snapshot (ids,
/// labels **and** sibling order), certificates field-for-field.
impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                WalRecord::Publish { doc: a, tree: ta, suite: sa },
                WalRecord::Publish { doc: b, tree: tb, suite: sb },
            ) => a == b && ta.preorder_snapshot() == tb.preorder_snapshot() && sa == sb,
            (
                WalRecord::Commit { doc: a, commit: ca, updates: ua, cert: xa },
                WalRecord::Commit { doc: b, commit: cb, updates: ub, cert: xb },
            ) => a == b && ca == cb && ua == ub && xa == xb,
            _ => false,
        }
    }
}

impl WalRecord {
    /// The document this record concerns.
    pub fn doc(&self) -> &str {
        match self {
            WalRecord::Publish { doc, .. } | WalRecord::Commit { doc, .. } => doc,
        }
    }

    /// The record's payload bytes. A length past `u32` is written as
    /// `u32::MAX`, so these bytes measure a record; the writer refuses to
    /// frame one ([`WalWriter::append`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            WalRecord::Publish { doc, tree, suite } => encode_publish(e, doc, tree, suite),
            WalRecord::Commit { doc, commit, updates, cert } => {
                e.u8(2);
                e.str(doc);
                e.u64(*commit);
                encode_updates(e, updates);
                encode_certificate(e, cert);
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut d = Decoder::new(payload);
        let rec = match d.u8()? {
            1 => {
                let doc = d.str()?.to_owned();
                let tree = decode_tree(&mut d)?;
                let suite = decode_suite(&mut d)?;
                WalRecord::Publish { doc, tree, suite }
            }
            2 => {
                let doc = d.str()?.to_owned();
                let commit = d.u64()?;
                let updates = decode_updates(&mut d)?;
                let cert = decode_certificate(&mut d)?;
                WalRecord::Commit { doc, commit, updates, cert }
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        d.finish()?;
        Ok(rec)
    }
}

/// Encodes a [`WalRecord::Publish`] from borrowed parts.
fn encode_publish(e: &mut Encoder, doc: &str, tree: &DataTree, suite: &[Constraint]) {
    e.u8(1);
    e.str(doc);
    encode_tree(e, tree);
    encode_suite(e, suite);
}

/// The result of scanning a WAL file: the durable records, how many bytes
/// of the file they cover, and whether a bad tail was found after them.
#[derive(Debug)]
pub struct WalScan {
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix (magic + whole good frames). Recovery
    /// truncates the file to this length before appending.
    pub valid_len: u64,
    /// True when bytes existed past `valid_len` — a torn or corrupted
    /// tail that the torn-tail policy discards.
    pub torn: bool,
}

/// Scans `path` on `fs` frame by frame, stopping at the first torn or
/// corrupted frame (see the module docs). A missing file is an empty log,
/// and so is a file no longer than the magic that is not the magic (a
/// torn header). A longer file whose header is wrong is
/// [`DecodeError::BadMagic`]: the header is synced before any frame is
/// appended, so no crash can produce one.
pub fn read_wal(fs: &dyn FileSystem, path: &Path) -> Result<WalScan, PersistError> {
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan { records: Vec::new(), valid_len: 0, torn: false })
        }
        Err(e) => return Err(e.into()),
    };
    if !bytes.starts_with(WAL_MAGIC) {
        if bytes.len() > WAL_MAGIC.len() {
            return Err(DecodeError::BadMagic.into());
        }
        return Ok(WalScan { records: Vec::new(), valid_len: 0, torn: !bytes.is_empty() });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Ok(WalScan { records, valid_len: pos as u64, torn: false });
        }
        let frame = split_frame(rest)
            .and_then(|(payload, after)| Ok((WalRecord::decode(payload)?, after.len())));
        let Ok((rec, after)) = frame else {
            return Ok(WalScan { records, valid_len: pos as u64, torn: true });
        };
        records.push(rec);
        pos = bytes.len() - after;
    }
}

/// Append handle on a WAL file. See the module docs for the frame format
/// and the buffering discipline.
pub struct WalWriter {
    file: Box<dyn FileHandle>,
    /// Durable file length (bytes actually written through).
    len: u64,
    pending: Vec<u8>,
    pending_frames: usize,
    /// Set by [`seal`](Self::seal): suppresses all further IO, the
    /// drop-time sync included.
    sealed: bool,
}

impl WalWriter {
    /// [`open_in`](Self::open_in) on the real file system.
    ///
    /// The second parameter, once the group-commit batch size, is ignored:
    /// benchmark compatibility (gatebench's mirror passes `usize::MAX`),
    /// to be deleted with ROADMAP item 1.
    pub fn open(path: &Path, _batch: usize) -> Result<(WalWriter, WalScan), PersistError> {
        WalWriter::open_in(&StdFs, path)
    }

    /// Opens (creating if absent) the log at `path` on `fs`, scans it,
    /// truncates any torn tail, syncs, and positions for appending.
    /// Writing a fresh header also syncs the log's directory, so the log's
    /// name is as durable as its header. Returns the writer and the
    /// durable records for replay; a wrong header is an error and leaves
    /// the file untouched.
    pub fn open_in(fs: &dyn FileSystem, path: &Path) -> Result<(WalWriter, WalScan), PersistError> {
        let scan = read_wal(fs, path)?;
        let mut file = fs.open(path)?;
        let mut len = scan.valid_len;
        if len == 0 {
            file.set_len(0)?;
            file.write_at(0, WAL_MAGIC)?;
            len = WAL_MAGIC.len() as u64;
        } else if scan.torn {
            file.set_len(len)?;
        }
        file.sync_all()?;
        if scan.valid_len == 0 {
            fs.sync_dir(parent_dir(path))?;
        }
        let writer = WalWriter { file, len, pending: Vec::new(), pending_frames: 0, sealed: false };
        Ok((writer, scan))
    }

    /// Frames `record` into the buffer. A length past `u32` refuses the
    /// frame and leaves the buffer as it was.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), EncodeError> {
        self.append_with(|e| record.encode_into(e))
    }

    /// [`append`](Self::append)s the [`WalRecord::Publish`] of `doc`,
    /// `tree` and `suite` without building the record: the tree is encoded
    /// where it lies, not cloned into one.
    pub fn append_publish(
        &mut self,
        doc: &str,
        tree: &DataTree,
        suite: &[Constraint],
    ) -> Result<(), EncodeError> {
        self.append_with(|e| encode_publish(e, doc, tree, suite))
    }

    /// Frames the payload `encode` writes, encoding it straight into the
    /// buffer, so no second copy of the payload exists.
    fn append_with(&mut self, encode: impl FnOnce(&mut Encoder)) -> Result<(), EncodeError> {
        let frame = append_frame(&mut self.pending, encode)?;
        crate::stats::bump(&crate::stats::WAL_FRAMES, 1);
        crate::stats::bump(&crate::stats::WAL_BYTES, frame as u64);
        self.pending_frames += 1;
        Ok(())
    }

    /// Writes and syncs any buffered frames.
    ///
    /// Failure leaves the buffer **intact** and the call **idempotent**:
    /// every attempt writes at the durable length, so a retry overwrites
    /// whatever partial tail an earlier failed attempt may have left
    /// instead of appending after it. That is what lets the journal's
    /// bounded-retry loop simply call `sync` again on a transient fault.
    ///
    /// A buffer left holding more than twice the batch it just wrote is
    /// shrunk to that batch, so one large frame (a publish) does not stay
    /// resident for the writer's lifetime.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_at(self.len, &self.pending)?;
        self.file.sync_all()?;
        crate::stats::bump(&crate::stats::WAL_FLUSHES, 1);
        crate::stats::bump(&crate::stats::WAL_FSYNCS, 1);
        let written = self.pending.len();
        self.len += written as u64;
        self.pending.clear();
        if self.pending.capacity() > 2 * written {
            self.pending.shrink_to(written);
        }
        self.pending_frames = 0;
        Ok(())
    }

    /// Seals the writer: discards buffered frames and suppresses all
    /// further IO including the drop-time sync. The on-disk log stays
    /// exactly as the last successful sync left it — this is how a
    /// degraded gateway stops journaling without risking further damage.
    pub fn seal(&mut self) {
        self.pending.clear();
        self.pending_frames = 0;
        self.sealed = true;
    }

    /// Whether [`seal`](Self::seal) has shut this writer down.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Durable bytes (what a crash preserves).
    pub fn durable_len(&self) -> u64 {
        self.len
    }

    /// Number of frames appended since the last sync.
    pub fn pending_frames(&self) -> usize {
        self.pending_frames
    }

    /// Empties the log back to just its magic header (all records are
    /// covered by snapshots). The caller's bookkeeping of what was logged
    /// must be reset alongside.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.pending_frames = 0;
        self.file.set_len(0)?;
        self.file.write_at(0, WAL_MAGIC)?;
        self.file.sync_all()?;
        crate::stats::bump(&crate::stats::WAL_TRUNCATIONS, 1);
        crate::stats::bump(&crate::stats::WAL_FSYNCS, 1);
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

impl Drop for WalWriter {
    /// A clean shutdown flushes the buffer; a sealed writer does not.
    fn drop(&mut self) {
        if !self.sealed {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Crash, SimDisk, SyncFault};
    use xuc_core::parse_constraint;
    use xuc_sigstore::Signer;
    use xuc_xtree::{parse_term, Label, NodeId};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xuc-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    const LOG: &str = "wal.log";

    fn records_on(fs: &dyn FileSystem) -> Vec<WalRecord> {
        read_wal(fs, Path::new(LOG)).unwrap().records
    }

    fn sample_records() -> Vec<WalRecord> {
        let tree = parse_term("h(patient#2(visit#3))").unwrap();
        let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
        let cert = Signer::new(7).certify(&tree, &suite);
        vec![
            WalRecord::Publish { doc: "h".into(), tree, suite },
            WalRecord::Commit {
                doc: "h".into(),
                commit: 1,
                updates: vec![Update::Relabel {
                    node: NodeId::from_raw(3),
                    label: Label::new("note"),
                }],
                cert,
            },
        ]
    }

    #[test]
    fn append_sync_read_round_trip() {
        let path = tmp("roundtrip");
        let records = sample_records();
        {
            let (mut w, scan) = WalWriter::open(&path, 1).unwrap();
            assert!(scan.records.is_empty() && !scan.torn);
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records);
        // Reopening appends after the existing tail.
        {
            let (mut w, scan) = WalWriter::open(&path, 1).unwrap();
            assert_eq!(scan.records.len(), 2);
            w.append(&records[1]).unwrap();
        }
        assert_eq!(read_wal(&StdFs, &path).unwrap().records.len(), 3);
    }

    /// Whatever the ignored batch parameter says, appends only buffer:
    /// the caller decides when to sync.
    #[test]
    fn the_writer_never_syncs_on_its_own() {
        let path = tmp("buffer");
        let records = sample_records();
        for batch in [0, 1, 3, usize::MAX] {
            let (mut w, _) = WalWriter::open(&path, batch).unwrap();
            w.truncate_all().unwrap();
            for r in records.iter().cycle().take(5) {
                w.append(r).unwrap();
            }
            assert_eq!(w.pending_frames(), 5, "batch {batch}");
            assert_eq!(w.durable_len(), WAL_MAGIC.len() as u64, "batch {batch}");
            w.sync().unwrap();
            assert_eq!(w.pending_frames(), 0);
            assert!(w.durable_len() > WAL_MAGIC.len() as u64);
        }
    }

    /// A frame with a length past `u32` is refused as a typed error, and
    /// the buffer — holding an earlier, unsynced frame — is left byte for
    /// byte as it was; the earlier frame still syncs.
    #[test]
    fn a_refused_frame_leaves_the_buffer_as_it_was() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        w.append(&records[0]).unwrap();
        let (pending, frames) = (w.pending.clone(), w.pending_frames());
        let too_long = u32::MAX as usize + 1;
        let refused = w.append_with(|e| {
            e.u8(2);
            e.str("h");
            e.len(too_long);
        });
        assert_eq!(refused, Err(EncodeError::TooLong(too_long)));
        assert_eq!(w.pending, pending, "the refused frame left bytes behind");
        assert_eq!(w.pending_frames(), frames);
        w.sync().unwrap();
        assert_eq!(records_on(&disk), records[..1]);
    }

    #[test]
    fn lose_buffered_drops_exactly_the_unsynced_suffix() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        w.append(&records[0]).unwrap();
        w.sync().unwrap();
        w.append(&records[1]).unwrap();
        let after = disk.crash(Crash::LoseUnsynced);
        drop(w);
        let scan = read_wal(&after, Path::new(LOG)).unwrap();
        assert!(!scan.torn, "lost buffer leaves a clean file");
        assert_eq!(scan.records, records[..1]);
    }

    /// Power fails during the last sync: its write never lands, and the
    /// file ends cleanly after the frame before it.
    #[test]
    fn drop_last_frame_is_clean_truncation() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        for r in &records {
            w.append(r).unwrap();
            w.sync().unwrap();
        }
        let after = disk.crash(Crash::DropLastWrite);
        drop(w);
        let scan = read_wal(&after, Path::new(LOG)).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records[..1]);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        for r in &records {
            w.append(r).unwrap();
            w.sync().unwrap();
        }
        let full = disk.read(Path::new(LOG)).unwrap().len();
        let disk = disk.crash(Crash::TearLastWrite);
        drop(w);
        assert!(disk.read(Path::new(LOG)).unwrap().len() < full, "the tear must remove bytes");
        let scan = read_wal(&disk, Path::new(LOG)).unwrap();
        assert!(scan.torn, "half a frame is a torn tail");
        assert_eq!(scan.records, records[..1]);
        // Reopening truncates the tail and serves appends again.
        let (mut w, scan) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        assert_eq!(scan.records.len(), 1);
        w.append(&records[1]).unwrap();
        drop(w);
        let scan = read_wal(&disk, Path::new(LOG)).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn bit_flip_invalidates_the_frame() {
        let path = tmp("flip");
        let records = sample_records();
        {
            let (mut w, _) = WalWriter::open(&path, 1).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(scan.torn, "checksum must catch the flip");
        assert_eq!(scan.records, records[..1]);
    }

    #[test]
    fn missing_and_headerless_files_are_empty_logs() {
        let path = tmp("empty");
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(scan.records.is_empty() && !scan.torn && scan.valid_len == 0);
        std::fs::write(&path, b"garbage").unwrap();
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(scan.records.is_empty() && scan.torn);
        let (w, scan) = WalWriter::open(&path, 1).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(w.durable_len(), WAL_MAGIC.len() as u64);
    }

    /// Transient sync failures leave the buffer intact; the retry writes
    /// it once, at the durable length.
    #[test]
    fn transient_injection_fails_then_succeeds_idempotently() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        disk.fail_syncs(SyncFault::Interrupted(2));
        for _ in 0..2 {
            let e = w.sync().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::Interrupted);
            assert_eq!(w.pending_frames(), 2, "failure must leave the buffer intact");
        }
        // Third attempt goes through; nothing duplicated, nothing lost.
        w.sync().unwrap();
        assert_eq!(w.pending_frames(), 0);
        assert_eq!(records_on(&disk.crash(Crash::LoseUnsynced)), records);
    }

    /// A full disk fails every sync; sealing abandons the buffered frame,
    /// and a crash keeps only what was durable before the fault.
    #[test]
    fn disk_full_injection_is_persistent_and_fatal_kind() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        w.append(&records[0]).unwrap();
        disk.fail_syncs(SyncFault::StorageFull);
        for _ in 0..3 {
            assert_eq!(w.sync().unwrap_err().kind(), io::ErrorKind::StorageFull);
        }
        w.seal();
        assert!(w.is_sealed());
        drop(w);
        assert!(records_on(&disk.crash(Crash::LoseUnsynced)).is_empty());
    }

    /// A write whose sync failed reached the file but not the disk: a
    /// crash loses it like a buffered frame.
    #[test]
    fn write_time_faults_at_crash_time_lose_the_buffer() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        w.append(&records[0]).unwrap();
        w.sync().unwrap();
        w.append(&records[1]).unwrap();
        disk.fail_syncs(SyncFault::StorageFull);
        assert!(w.sync().is_err());
        assert_eq!(records_on(&disk), records, "the failed sync's write reached the file");
        assert_eq!(records_on(&disk.crash(Crash::LoseUnsynced)), records[..1]);
    }

    #[test]
    fn a_large_frame_does_not_stay_resident() {
        let disk = SimDisk::new();
        let mut tree = DataTree::with_root_id(NodeId::from_raw(1), "h");
        for i in 2..10_000 {
            tree.add_with_id(NodeId::from_raw(1), NodeId::from_raw(i), "visit").unwrap();
        }
        let large = WalRecord::Publish { doc: "h".into(), tree, suite: Vec::new() };
        let small = &sample_records()[1];
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        w.append(&large).unwrap();
        w.sync().unwrap();
        assert!(w.pending.capacity() >= large.encode().len(), "the large frame used the buffer");
        w.append(small).unwrap();
        w.sync().unwrap();
        let small_batch = small.encode().len() + 12;
        assert!(
            w.pending.capacity() <= 2 * small_batch,
            "capacity {} kept after a {small_batch}-byte batch",
            w.pending.capacity()
        );
        drop(w);
        assert_eq!(records_on(&disk), vec![large, small.clone()]);
    }

    #[test]
    fn truncate_all_resets_to_empty() {
        let disk = SimDisk::new();
        let records = sample_records();
        let (mut w, _) = WalWriter::open_in(&disk, Path::new(LOG)).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        w.truncate_all().unwrap();
        w.append(&records[0]).unwrap();
        drop(w);
        assert_eq!(records_on(&disk), records[..1]);
    }
}
