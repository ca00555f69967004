//! Durability for the gateway: the commit journal and crash recovery.
//!
//! A durable gateway ([`Gateway::recover`](crate::Gateway::recover)) owns
//! a `Journal`: a write-ahead log of every publish and every *accepted*
//! commit (rejected batches change nothing, so they are never logged),
//! plus periodic per-document snapshots. The mechanisms — frame format,
//! checksums, the frame buffer, torn-tail truncation, atomic snapshot
//! install — live in [`xuc_persist`]; this module owns the *policy*:
//!
//! * **Write-ahead ordering.** A publish is appended (and synced) before
//!   `publish` returns; a commit is appended while the document's mutex
//!   is still held, so the log's per-document commit order is exactly the
//!   store's. The journal, not the writer, syncs: once `group_commit`
//!   frames are pending. With `group_commit > 1` a crash can lose a
//!   suffix of *acknowledged* commits — the classic durability window,
//!   bounded by the batch size and closed by `group_commit = 1`.
//! * **Snapshots and truncation.** Every `snapshot_every` commits a
//!   document's tree, suite, commit counter and chain anchor are written
//!   (atomic rename) with a keyed tag binding the name and counter to
//!   the anchor — its signed sets are re-derived at restore; once
//!   every document logged in the WAL is covered by a snapshot at least
//!   as new, the whole log is truncated. Recovery cost is therefore
//!   bounded by the snapshot cadence, not by history length (measured by
//!   the E-REC experiment).
//! * **Recovery = snapshots + replay.** `recover` re-opens each snapshot
//!   through the one document constructor, re-runs the WAL tail through
//!   the *live* admission path ([`Session`]), and cross-checks every
//!   replayed certificate against the logged one — recovery that diverges
//!   from the original run is an error, never a silent wrong state. The
//!   kill/restart differential harness (`tests/differential.rs`) asserts
//!   byte-identical recovery from crash images at several worker counts.
//! * **One file-system seam, and the directory-sync rule.** Every file
//!   operation goes through the journal's [`FileSystem`]:
//!   [`xuc_persist::StdFs`] in production, the simulated disk
//!   ([`xuc_persist::SimDisk`]) in the crash, chaos and kill/restart
//!   suites, which is where their sync faults and crash images come
//!   from. A create or rename is durable only once its directory is
//!   synced, so recovery syncs the parent of the durability directory it
//!   creates, the WAL writer syncs the directory when it creates the log,
//!   and a snapshot's install syncs the directory after the rename —
//!   before the log it covers may be truncated. Without that last sync a crash could keep the truncated
//!   log and the old snapshot, and lose acknowledged commits. The
//!   crash-state explorer (`tests/crash_states.rs`) recovers every state
//!   the simulated disk's crash model allows and checks exactly this.
//! * **Survive-the-fault journal.** A journal IO error is classified
//!   ([`xuc_persist::classify`]): *transient* failures retry with
//!   bounded exponential backoff through an injectable clock
//!   ([`DurableOptions::retry`]) and, absorbed, leave no trace beyond a
//!   counter; a *fatal* failure (or an exhausted retry budget) **seals**
//!   the WAL writer and surfaces a fatal `JournalError`, which the
//!   gateway answers by degrading to read-only — not by dying. The
//!   failed commit itself was already accepted in memory; it is covered
//!   by the same contract as a group-commit buffer loss (recovery
//!   re-drives the window) and [`Gateway::try_resume`](crate::Gateway::try_resume)
//!   closes the gap with fresh snapshots before journaling restarts.
//!   See DESIGN.md §9 for the full failure matrix.

use crate::cache::SuiteCache;
use crate::session::{close_span, Session};
use crate::store::{Document, DocumentStore, PublishError};
use crate::DocId;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use xuc_persist::fs::parent_dir;
use xuc_persist::{
    read_snapshots, retry_io, write_snapshot, Clock, DocSnapshot, EncodeError, FileSystem,
    IoFailure, PersistError, RetryOutcome, RetryPolicy, WalRecord, WalWriter,
};
use xuc_sigstore::Signer;
use xuc_telemetry::{Stage, Telemetry};
use xuc_xtree::{DataTree, NodeId, Update};

/// File name of the write-ahead log inside a gateway's durability
/// directory (snapshots sit alongside it as `*.snap`).
pub const WAL_FILE: &str = "wal.log";

/// The WAL path inside `dir` — exposed so offline auditors (see
/// `examples/audit_past.rs`) can read a gateway's journal without a
/// gateway.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Tuning knobs of a durable gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Commits per fsync batch: `1` syncs every commit (no durability
    /// window), `n` buffers up to `n` frames in memory and a crash can
    /// lose that suffix of acknowledged commits.
    pub group_commit: usize,
    /// Snapshot a document every this-many commits (`None`: never —
    /// recovery replays the document's whole history from the log).
    pub snapshot_every: Option<u64>,
    /// Transient-fault retry bounds for every journal write (appends,
    /// syncs, snapshots, truncation). [`RetryPolicy::none`] escalates on
    /// the first error of any class.
    pub retry: RetryPolicy,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions { group_commit: 1, snapshot_every: Some(256), retry: RetryPolicy::default() }
    }
}

/// Why a journal write was refused. By the time a caller sees
/// [`JournalError::Fatal`] the writer is already sealed — the gateway's
/// job is to degrade, not to decide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalError {
    /// The journal was sealed by an earlier fatal fault (or an explicit
    /// halt); nothing was written.
    Sealed,
    /// A fatal IO error — or a transient one that outlived the retry
    /// budget — while performing `what`. The writer sealed itself.
    Fatal { what: &'static str, error: String },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Sealed => write!(f, "journal sealed"),
            JournalError::Fatal { what, error } => write!(f, "journal {what} failed: {error}"),
        }
    }
}

/// Why [`Gateway::try_resume`](crate::Gateway::try_resume) could not
/// bring a degraded gateway back to serving.
#[derive(Debug)]
pub enum ResumeError {
    /// The gateway is `Serving` — there is nothing to resume.
    NotDegraded,
    /// The gateway is `Halted`; halts are terminal for this process
    /// (restart and recover instead).
    Halted,
    /// Re-opening the WAL or re-snapshotting a document failed; the
    /// gateway stays `ReadOnly` and resume can be retried.
    Persist(PersistError),
    /// A document's in-memory commit counter is *behind* the durable
    /// log — memory lost state while serving. The gateway halts: its
    /// memory can no longer be trusted as the reconciliation source.
    StateMismatch { doc: String },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::NotDegraded => write!(f, "resume refused: gateway is serving"),
            ResumeError::Halted => write!(f, "resume refused: gateway is halted"),
            ResumeError::Persist(e) => write!(f, "resume failed: {e}"),
            ResumeError::StateMismatch { doc } => {
                write!(f, "resume refused: document {doc} is behind its own durable log")
            }
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

/// The gateway's durability arm: WAL writer plus the bookkeeping that
/// decides when the log can be truncated. One mutex serializes appends —
/// held strictly *inside* a document mutex (commit logging) or alone
/// (publish logging), never around one, so the store's lock order
/// discipline is preserved.
pub(crate) struct Journal {
    dir: PathBuf,
    opts: DurableOptions,
    /// Signs each snapshot's name and counter to its chain anchor.
    signer: Signer,
    /// Time source for retry backoff. `SystemClock` in production;
    /// chaos tests inject a `VirtualClock` so retried schedules run at
    /// full speed and the slept-for backoff is assertable.
    clock: Box<dyn Clock + Send + Sync>,
    /// Where the log and snapshots live: `StdFs` in production, a
    /// simulated disk in the crash and chaos suites.
    fs: Arc<dyn FileSystem>,
    /// Transient failures absorbed by the retry loop (journal-lifetime
    /// total, surfaced as `Gateway::journal_transient_retries`).
    retries: AtomicU64,
    inner: Mutex<JournalInner>,
}

pub(crate) struct JournalInner {
    writer: WalWriter,
    /// Highest commit number in the WAL per document (`0`: publish
    /// record only).
    logged: HashMap<DocId, u64>,
    /// Commit counter covered by each document's installed snapshot.
    snapshotted: HashMap<DocId, u64>,
}

impl Journal {
    fn lock(&self) -> MutexGuard<'_, JournalInner> {
        self.inner.lock()
    }

    /// Whether a fatal fault (or [`seal`](Self::seal)) has shut the
    /// writer down.
    pub(crate) fn is_sealed(&self) -> bool {
        self.lock().writer.is_sealed()
    }

    /// Seals the writer without a fault (explicit halt): buffered frames
    /// are dropped, the on-disk log keeps its last-synced prefix.
    pub(crate) fn seal(&self) {
        self.lock().writer.seal();
    }

    /// Transient retries absorbed so far.
    pub(crate) fn transient_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Syncs the writer's buffer under the retry policy. On escalation
    /// the writer seals.
    fn flush_with_retry(
        &self,
        inner: &mut JournalInner,
        what: &'static str,
    ) -> Result<(), JournalError> {
        let outcome = retry_io(self.opts.retry, &*self.clock, || inner.writer.sync());
        self.settle(inner, outcome.map(|o| o.retries), what)
    }

    /// A frame the writer refused — a length past the format's `u32`
    /// fields — is fatal. The refusal left the buffer as it was, so the
    /// frames of earlier commits are synced before the writer seals.
    fn refuse(&self, inner: &mut JournalInner, e: EncodeError, what: &'static str) -> JournalError {
        // A failed sync seals on its own; the refusal is the error to report.
        let _ = self.flush_with_retry(inner, what);
        inner.writer.seal();
        JournalError::Fatal { what, error: e.to_string() }
    }

    /// Books retries and converts an escalated failure into a sealed
    /// writer + [`JournalError::Fatal`].
    fn settle(
        &self,
        inner: &mut JournalInner,
        outcome: Result<u32, IoFailure>,
        what: &'static str,
    ) -> Result<(), JournalError> {
        match outcome {
            Ok(retries) => {
                self.retries.fetch_add(retries as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(fail) => {
                self.retries.fetch_add(fail.retries as u64, Ordering::Relaxed);
                inner.writer.seal();
                // `IoFailure`'s rendering keeps the classification (and
                // any exhausted-retry count) in the recorded fault line.
                Err(JournalError::Fatal { what, error: fail.to_string() })
            }
        }
    }

    /// Installs a published document into `store` after appending and
    /// syncing its publish record (encoded from the document's own tree),
    /// both under the journal lock: no commit can reach the document, or
    /// the log, ahead of its publish record, and a refused duplicate
    /// (`Err`) writes nothing. `Ok` carries the journal's outcome; on a
    /// journal error the document is served from memory, unlogged.
    /// Caller holds no document mutex.
    pub(crate) fn publish(
        &self,
        store: &DocumentStore,
        doc: Document,
    ) -> Result<Result<(), JournalError>, PublishError> {
        let mut inner = self.lock();
        if store.contains(doc.id()) {
            return Err(PublishError::Duplicate(doc.id()));
        }
        let logged = self.append_publish(&mut inner, &doc);
        store.install(doc)?;
        Ok(logged)
    }

    fn append_publish(&self, inner: &mut JournalInner, doc: &Document) -> Result<(), JournalError> {
        if inner.writer.is_sealed() {
            return Err(JournalError::Sealed);
        }
        if let Err(e) = inner.writer.append_publish(doc.id().as_str(), doc.tree(), doc.suite()) {
            return Err(self.refuse(inner, e, "publish append"));
        }
        self.flush_with_retry(inner, "publish append")?;
        inner.logged.entry(doc.id()).or_insert(0);
        Ok(())
    }

    /// Appends `doc`'s last commit (`updates` and its materialized
    /// certificate), then syncs once `group_commit` frames are pending;
    /// traced as [`Stage::JournalAppend`] and [`Stage::Fsync`] under `tag`.
    /// Caller holds the document's mutex, so per-document log order equals
    /// store commit order. An `Err` means the commit is in memory but
    /// **not** durable — the gateway must degrade (the journaled-or-degraded
    /// invariant).
    pub(crate) fn log_commit(
        &self,
        doc: &Document,
        updates: &[Update],
        tel: Option<&Telemetry>,
        tag: u16,
    ) -> Result<(), JournalError> {
        let (id, commit) = (doc.id(), doc.commits());
        let started = tel.map(Telemetry::now_micros);
        let record = WalRecord::Commit {
            doc: id.as_str().to_owned(),
            commit,
            updates: updates.to_vec(),
            cert: doc.certificate(),
        };
        let mut inner = self.lock();
        if inner.writer.is_sealed() {
            return Err(JournalError::Sealed);
        }
        let appended = inner.writer.append(&record);
        let appended_at = close_span(tel, Stage::JournalAppend, tag, started);
        if let Err(e) = appended {
            return Err(self.refuse(&mut inner, e, "commit append"));
        }
        if inner.writer.pending_frames() >= self.opts.group_commit {
            let synced = self.flush_with_retry(&mut inner, "commit sync");
            close_span(tel, Stage::Fsync, tag, appended_at);
            synced?;
        }
        inner.logged.insert(id, commit);
        Ok(())
    }

    /// Snapshots `doc` if its commit counter hits the cadence. Caller
    /// holds the document's mutex (so the state written is exactly the
    /// state just committed).
    pub(crate) fn maybe_snapshot(&self, doc: &Document) -> Result<(), JournalError> {
        let Some(every) = self.opts.snapshot_every else { return Ok(()) };
        if every == 0 || doc.commits() == 0 || !doc.commits().is_multiple_of(every) {
            return Ok(());
        }
        self.snapshot(doc)
    }

    /// Unconditionally snapshots `doc` (atomic install, retried under
    /// the policy), then truncates the WAL if snapshots now cover
    /// everything logged. A fatal snapshot failure seals the journal:
    /// nothing acknowledged is lost (the WAL still covers it), but a
    /// disk that cannot take snapshots can never truncate its log — the
    /// gateway must degrade before the log grows without bound.
    pub(crate) fn snapshot(&self, doc: &Document) -> Result<(), JournalError> {
        let outcome = self.install_snapshot(doc);
        let mut inner = self.lock();
        self.settle(&mut inner, outcome.map(|o| o.retries), "snapshot write")?;
        inner.snapshotted.insert(doc.id(), doc.commits());
        self.try_truncate(&mut inner)
    }

    /// Writes `doc`'s snapshot under the retry policy, encoded straight
    /// from the locked document: its tree and suite are borrowed, not
    /// copied, and its signed sets are not written (restore re-derives
    /// them).
    fn install_snapshot(&self, doc: &Document) -> Result<RetryOutcome<()>, IoFailure> {
        let (name, commits, header) = (doc.id().as_str(), doc.commits(), doc.certificate_header());
        let snap = DocSnapshot {
            doc: Cow::Borrowed(name),
            commits,
            tree: Cow::Borrowed(doc.tree()),
            suite: Cow::Borrowed(doc.suite()),
            prev_digest: header.prev_digest,
            chain_tag: header.chain_tag,
            tag: self.signer.snapshot_tag(name, commits, header.prev_digest, header.chain_tag),
        };
        retry_io(self.opts.retry, &*self.clock, || write_snapshot(&*self.fs, &self.dir, &snap))
    }

    /// Truncates the whole log iff every logged document has a snapshot
    /// at least as new as its last logged commit (publish-only documents
    /// — logged `0`, no snapshot — keep the log alive). `truncate_all`
    /// is idempotent, so the whole operation retries as one unit.
    fn try_truncate(&self, inner: &mut JournalInner) -> Result<(), JournalError> {
        if inner.logged.is_empty() {
            return Ok(());
        }
        let covered =
            inner.logged.iter().all(|(d, c)| inner.snapshotted.get(d).is_some_and(|s| s >= c));
        if !covered {
            return Ok(());
        }
        let outcome = retry_io(self.opts.retry, &*self.clock, || inner.writer.truncate_all());
        self.settle(inner, outcome.map(|o| o.retries), "truncate")?;
        inner.logged.clear();
        Ok(())
    }

    /// Re-opens the WAL after a degraded seal and reconciles disk with
    /// memory, in three phases chosen so the journal lock is never held
    /// around a document mutex (the store's lock order):
    ///
    /// 1. **Re-scan** (no locks): open a fresh writer on the log —
    ///    truncating any torn tail — and rebuild the `logged` map from
    ///    what is *actually on disk*. The in-memory map cannot be
    ///    trusted after a seal: a failed sync may have lost buffered
    ///    frames the map already counted.
    /// 2. **Reconcile** (document mutexes only): any document whose
    ///    in-memory commit counter ran ahead of its durable coverage —
    ///    including the very commit whose journaling failed — gets a
    ///    fresh snapshot, so nothing acknowledged depends on the lost
    ///    suffix. A document *behind* its durable log is a
    ///    [`ResumeError::StateMismatch`]: memory is corrupt, the caller
    ///    halts.
    /// 3. **Swap** (journal lock): install the fresh writer and rebuilt
    ///    bookkeeping, then truncate if snapshots now cover the log.
    pub(crate) fn resume(&self, store: &DocumentStore) -> Result<(), ResumeError> {
        let (writer, scan) =
            WalWriter::open_in(&*self.fs, &wal_path(&self.dir)).map_err(ResumeError::Persist)?;
        let logged = logged_commits(&scan.records);
        // Snapshots are atomic installs recorded only after success, so
        // the in-memory map *is* trustworthy — unlike `logged`.
        let snapshotted: HashMap<DocId, u64> = self.lock().snapshotted.clone();

        let mut resnapshotted: Vec<(DocId, u64)> = Vec::new();
        for id in store.doc_ids() {
            // Documents are never removed, so the listing stays valid.
            let Some(arc) = store.document(id) else { continue };
            let doc = arc.lock();
            let covered = logged.contains_key(&id) || snapshotted.contains_key(&id);
            let durable = logged
                .get(&id)
                .copied()
                .unwrap_or(0)
                .max(snapshotted.get(&id).copied().unwrap_or(0));
            if doc.commits() < durable {
                return Err(ResumeError::StateMismatch { doc: id.as_str().to_owned() });
            }
            if covered && doc.commits() == durable {
                continue;
            }
            self.install_snapshot(&doc)
                .map_err(|f| ResumeError::Persist(PersistError::Io(f.error)))?;
            resnapshotted.push((id, doc.commits()));
        }

        let mut inner = self.lock();
        inner.writer = writer;
        inner.logged = logged;
        for (id, commits) in resnapshotted {
            inner.snapshotted.insert(id, commits);
        }
        if let Err(JournalError::Fatal { error, .. }) = self.try_truncate(&mut inner) {
            return Err(ResumeError::Persist(PersistError::Io(io::Error::other(error))));
        }
        Ok(())
    }
}

/// Why [`Gateway::recover`](crate::Gateway::recover) refused to come up.
/// Recovery is all-or-nothing: a journal that cannot be replayed exactly
/// is surfaced, never partially applied.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal or a snapshot could not be read (IO or corruption
    /// past the torn tail the WAL scan already tolerates).
    Persist(PersistError),
    /// A logged commit references a document that is neither snapshotted
    /// nor published earlier in the log.
    UnknownDocument { doc: String },
    /// Replaying a logged commit failed or was rejected — the log and
    /// the live admission path disagree on an *accepted* batch.
    ReplayFailed { doc: String, commit: u64, error: String },
    /// Replay ran but did not reproduce the logged commit number or the
    /// logged certificate (hash chain included) — or a snapshot fails its
    /// keyed tag over name, counter and anchor, or its stored chain tag is
    /// not the one its own tree, suite and `prev_digest` sign (`commit` is
    /// then the snapshot's commit count).
    Diverged { doc: String, commit: u64 },
    /// The durability directory contradicts itself: two snapshots, or a
    /// snapshot-plus-publish race, claim the same document id. Snapshot
    /// file names derive from document names, so this only happens to a
    /// tampered or corrupted directory — recovery refuses to pick a
    /// winner.
    Conflict { doc: String },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Persist(e) => write!(f, "recovery failed: {e}"),
            RecoverError::UnknownDocument { doc } => {
                write!(f, "recovery failed: WAL commit for unknown document {doc}")
            }
            RecoverError::ReplayFailed { doc, commit, error } => {
                write!(f, "recovery failed: replaying {doc} commit {commit}: {error}")
            }
            RecoverError::Diverged { doc, commit } => write!(
                f,
                "recovery failed: replay of {doc} commit {commit} diverged from the journal"
            ),
            RecoverError::Conflict { doc } => {
                write!(f, "recovery failed: conflicting persisted copies of document {doc}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for RecoverError {
    fn from(e: PersistError) -> Self {
        RecoverError::Persist(e)
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Persist(PersistError::Io(e))
    }
}

/// Store, cache and journal rebuilt from a durability directory — what
/// [`Gateway::recover_with`](crate::Gateway::recover_with) wraps into a
/// serving gateway.
pub(crate) struct RecoveredState {
    pub(crate) store: DocumentStore,
    pub(crate) cache: SuiteCache,
    pub(crate) journal: Journal,
}

/// The journal's `logged` map over `records`: each document's last
/// commit number (`0`: its publish record only).
fn logged_commits(records: &[WalRecord]) -> HashMap<DocId, u64> {
    let mut logged = HashMap::new();
    for rec in records {
        let last = logged.entry(DocId::new(rec.doc())).or_insert(0);
        if let WalRecord::Commit { commit, .. } = rec {
            *last = *commit;
        }
    }
    logged
}

fn tree_max_id(tree: &DataTree) -> u64 {
    let mut max = 0;
    tree.for_each_preorder(tree.root_id(), |id, _, _| max = max.max(id.raw()))
        .expect("the root is live");
    max
}

fn update_max_id(u: &Update) -> u64 {
    match u {
        Update::InsertLeaf { parent, id, .. } => parent.raw().max(id.raw()),
        Update::DeleteSubtree { node }
        | Update::DeleteNode { node }
        | Update::Relabel { node, .. } => node.raw(),
        Update::Move { node, new_parent } => node.raw().max(new_parent.raw()),
        Update::ReplaceId { node, new_id } => node.raw().max(new_id.raw()),
    }
}

/// Rebuilds gateway state from `dir` on `fs` (created if absent, and its
/// parent synced so the new entry is durable — an empty directory
/// recovers to an empty, durable gateway):
///
/// 1. open every snapshot through the one document constructor (its tree
///    with a fresh evaluator, cache-shared automata, the signed sets
///    re-derived and re-signed under its `prev_digest`); a snapshot whose
///    keyed tag over its name, counter and anchor fails, or whose stored
///    chain tag does not come out again, is [`RecoverError::Diverged`];
/// 2. replay the WAL's durable prefix through [`Session::commit`], the
///    call every [`Gateway::submit`](crate::Gateway::submit) makes,
///    skipping records a snapshot already covers (replay is idempotent),
///    and cross-checking each replayed certificate — field for field,
///    hash chain included — against the logged one;
/// 3. advance the node-id allocator past every persisted id, so
///    post-recovery `NodeId::fresh()` never collides with history.
pub(crate) fn recover(
    signer: &Signer,
    dir: &Path,
    opts: DurableOptions,
    clock: Box<dyn Clock + Send + Sync>,
    fs: Arc<dyn FileSystem>,
) -> Result<RecoveredState, RecoverError> {
    fs.create_dir_all(dir)?;
    fs.sync_dir(parent_dir(dir))?;
    let store = DocumentStore::new();
    let cache = SuiteCache::new();
    let mut max_id: u64 = 0;
    let mut snapshotted: HashMap<DocId, u64> = HashMap::new();

    for snap in read_snapshots(&*fs, dir)? {
        let (id, commits) = (DocId::new(&snap.doc), snap.commits);
        // The name and counter lie outside the chain tag: a snapshot
        // renamed, or with its counter moved (which would skip WAL
        // commits as already covered), fails its own keyed tag.
        if signer.snapshot_tag(&snap.doc, commits, snap.prev_digest, snap.chain_tag) != snap.tag {
            return Err(RecoverError::Diverged { doc: id.as_str().to_owned(), commit: commits });
        }
        max_id = max_id.max(tree_max_id(&snap.tree));
        let compiled = cache.get_or_compile(&snap.suite);
        let (tree, suite) = (snap.tree.into_owned(), snap.suite.into_owned());
        let doc = Document::open(id, tree, suite, compiled, signer, snap.prev_digest, commits);
        // A tampered tree, suite or anchor signs differently: serving it
        // would hand out a certificate its own history does not chain to.
        if doc.header.chain_tag != snap.chain_tag {
            return Err(RecoverError::Diverged { doc: id.as_str().to_owned(), commit: commits });
        }
        if store.install(doc).is_err() {
            // Snapshot file names derive from document names, so a
            // duplicate means the directory contradicts itself.
            return Err(RecoverError::Conflict { doc: id.as_str().to_owned() });
        }
        snapshotted.insert(id, commits);
    }

    let (writer, scan) = WalWriter::open_in(&*fs, &wal_path(dir))?;
    let logged = logged_commits(&scan.records);
    for rec in scan.records {
        match rec {
            WalRecord::Publish { doc, tree, suite } => {
                let id = DocId::new(&doc);
                max_id = max_id.max(tree_max_id(&tree));
                if store.document(id).is_some() {
                    // A snapshot already installed this document.
                    continue;
                }
                if store.publish(id, tree, suite, &cache, signer).is_err() {
                    // The journal can only hold one publish per id (the
                    // live gateway rejects duplicates), so a second one
                    // means the log was tampered with.
                    return Err(RecoverError::Conflict { doc });
                }
            }
            WalRecord::Commit { doc, commit, updates, cert } => {
                let id = DocId::new(&doc);
                for u in &updates {
                    max_id = max_id.max(update_max_id(u));
                }
                let Some(arc) = store.document(id) else {
                    return Err(RecoverError::UnknownDocument { doc });
                };
                let mut d = arc.lock();
                if commit <= d.commits() {
                    // Covered by the snapshot; the WAL just has not been
                    // truncated yet.
                    continue;
                }
                if commit != d.commits() + 1 {
                    return Err(RecoverError::Diverged { doc, commit });
                }
                let mut session = Session::begin(&mut d);
                for u in &updates {
                    if let Err(e) = session.apply(u) {
                        return Err(RecoverError::ReplayFailed {
                            doc,
                            commit,
                            error: e.to_string(),
                        });
                    }
                }
                match session.commit(signer) {
                    Ok(receipt) => debug_assert_eq!(receipt.commit, commit),
                    Err(r) => {
                        return Err(RecoverError::ReplayFailed {
                            doc,
                            commit,
                            error: r.to_string(),
                        });
                    }
                }
                // Field for field, without materializing the replayed one.
                if !d.header.describes(&cert, &d.base_sets) {
                    return Err(RecoverError::Diverged { doc, commit });
                }
            }
        }
    }

    NodeId::ensure_fresh_above(max_id);
    let journal = Journal {
        dir: dir.to_owned(),
        opts,
        signer: *signer,
        clock,
        fs,
        retries: AtomicU64::new(0),
        inner: Mutex::new(JournalInner { writer, logged, snapshotted }),
    };
    Ok(RecoveredState { store, cache, journal })
}
