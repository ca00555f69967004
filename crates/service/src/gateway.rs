//! The admission front-end: publish, submit, and the deterministic
//! worker-pool request loop.
//!
//! # Determinism discipline
//!
//! [`Gateway::process`] drains a request stream over a
//! [`std::thread::scope`] worker pool and promises a **byte-identical
//! accept/reject log at every worker count**. The discipline mirrors the
//! sharded counterexample search (`find_counterexample_sharded`):
//!
//! * a request's verdict depends only on its document's state, which
//!   depends only on the verdicts of *earlier requests against the same
//!   document* — so the unit of work is **one document's whole request
//!   subsequence**, processed in arrival order by whichever worker claims
//!   it;
//! * units are handed out through a single atomic cursor (which worker
//!   claims a unit is scheduling, never *what* the unit computes);
//! * commit numbers are per-document counters advanced in that fixed
//!   order, so even the `commit=` fields of the log are scheduling-free;
//! * fresh node ids are minted by the *client* (requests carry concrete
//!   [`Update`](xuc_xtree::Update) values), not by workers — nothing
//!   about a verdict or a log line depends on which thread ran it.
//!
//! Cross-document interleaving is where the parallelism lives: documents
//! are independent by construction (no constraint spans documents), so
//! per-document order is the *only* order the semantics needs. This is
//! the gateway's one worker pool: every multi-request drain goes through
//! it, one batch at a time through [`Gateway::submit`].
//!
//! # One admission path
//!
//! Every commit — live, in a drain, or replayed by recovery — runs
//! [`Session::commit`]: splice the baselines, or sweep the document when
//! the splice declines, then judge and certify off the one resulting
//! [`SpliceJournal`](xuc_xpath::SpliceJournal). The gateway has no
//! admission mode; the pre-delta full pass lives in [`crate::reference`](mod@crate::reference)
//! as the differential suites' oracle.

use crate::cache::SuiteCache;
use crate::persist::{
    DurableOptions, Journal, JournalError, RecoverError, RecoveredState, ResumeError,
};
use crate::session::Session;
use crate::store::{shard_of, Document, DocumentStore, PublishError};
use crate::telemetry::ServiceMetrics;
use crate::{DegradedReason, DocId, RejectReason, Request, Verdict};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xuc_core::Constraint;
use xuc_persist::{Clock, FileSystem, StdFs, SystemClock};
use xuc_sigstore::{Certificate, Signer};
use xuc_telemetry::Telemetry;
use xuc_xtree::DataTree;

/// Serving health of a [`Gateway`] — the degraded-mode state machine
/// (DESIGN.md §9). Transitions: `Serving → ReadOnly` on a fatal journal
/// fault (the WAL seals, commits start rejecting with
/// [`RejectReason::Degraded`], reads and publishes-to-memory keep
/// serving); `ReadOnly → Serving` through [`Gateway::try_resume`];
/// any state `→ Halted` through [`Gateway::halt`] or an unreconcilable
/// resume — `Halted` is terminal for the process (restart and recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayState {
    /// Full service: commits, reads, publishes, journaling.
    Serving,
    /// The journal is sealed; commits are refused, reads and
    /// in-memory publishes still serve.
    ReadOnly,
    /// Nothing serves. Terminal.
    Halted,
}

const STATE_SERVING: u8 = 0;
const STATE_READ_ONLY: u8 = 1;
const STATE_HALTED: u8 = 2;

/// Cap on a [`RejectReason::Internal`] message: panic payloads can be
/// arbitrarily large, and one poisoned request must not bloat every
/// verdict log that records it.
const INTERNAL_ERROR_MAX: usize = 160;

/// Truncates a panic message to [`INTERNAL_ERROR_MAX`] bytes on a char
/// boundary, marking the cut with an ellipsis.
pub(crate) fn bounded_internal_error(mut error: String) -> String {
    if error.len() <= INTERNAL_ERROR_MAX {
        return error;
    }
    let mut cut = INTERNAL_ERROR_MAX;
    while !error.is_char_boundary(cut) {
        cut -= 1;
    }
    error.truncate(cut);
    error.push('…');
    error
}

/// The update-validation gateway of Figure 1: a [`DocumentStore`] behind
/// an admission loop, with a [`SuiteCache`] so admission never recompiles
/// a suite, and a [`Signer`] re-certifying every accepted state. See the
/// crate docs for a walkthrough.
///
/// # Durability
///
/// A gateway opened with [`recover`](Self::recover) (or
/// [`recover_with`](Self::recover_with)) journals every publish and every
/// accepted commit to a write-ahead log and snapshots documents on a
/// cadence; re-opening the same directory replays the journal through the
/// live admission path and resumes byte-identical — same verdict history,
/// same baselines, same hash-linked certificates. See [`crate::persist`]
/// for the policy and `xuc-persist` for the file formats.
///
/// # Panic containment and quarantine
///
/// [`submit`](Self::submit) catches panics at the request boundary: a
/// panicking handler unwinds its session (rollback-on-drop), the verdict
/// degrades to [`RejectReason::Internal`] (message bounded), and the
/// document keeps serving — one poisoned request cannot wedge a worker
/// pool. A document that keeps panicking is **quarantined** after
/// [`quarantine_threshold`](Self::quarantine_threshold) contained panics:
/// its commits reject with [`RejectReason::Degraded`] until
/// [`lift_quarantine`](Self::lift_quarantine), its reads still serve,
/// and sibling documents are unaffected.
///
/// # Degraded modes
///
/// A fatal journal fault no longer stops the process: the WAL seals and
/// the gateway drops to [`GatewayState::ReadOnly`] — commits reject with
/// [`RejectReason::Degraded`], reads/certificates/snapshots and
/// in-memory publishes keep serving, and [`try_resume`](Self::try_resume)
/// re-opens the journal once the fault clears. Every *accepted* commit
/// is journaled-or-the-gateway-is-degraded; the degraded window's
/// unjournaled suffix is reconciled by resume (fresh snapshots) or
/// re-driven by recovery, exactly like a lost group-commit buffer.
pub struct Gateway {
    store: DocumentStore,
    cache: SuiteCache,
    signer: Signer,
    /// `Some` on durable gateways ([`Gateway::recover`]).
    journal: Option<Journal>,
    /// The degraded-mode state machine ([`GatewayState`]).
    state: AtomicU8,
    /// The fault that degraded/halted the gateway (first one wins —
    /// later faults of a degraded gateway add no information).
    last_fault: Mutex<Option<String>>,
    /// Contained panics before a document is quarantined (`0` disables).
    quarantine_after: AtomicU32,
    /// Serializes [`try_resume`](Self::try_resume) runs.
    resume_lock: Mutex<()>,
    /// The attached observability bundle, if any
    /// ([`Gateway::attach_telemetry`]): pre-registered metric handles
    /// plus the shared registry / stage table / trace ring. Never
    /// consulted for an admission decision — telemetry is
    /// observationally inert by contract.
    telemetry: OnceLock<ServiceMetrics>,
    /// Test hook: documents whose next N sessions panic mid-request
    /// ([`Gateway::inject_session_panic`]).
    #[cfg(any(test, feature = "test-hooks"))]
    panic_injections: Mutex<HashMap<DocId, usize>>,
}

/// Contained panics before quarantine, unless overridden
/// ([`Gateway::set_quarantine_threshold`]).
const DEFAULT_QUARANTINE_AFTER: u32 = 3;

impl Gateway {
    /// An in-memory gateway.
    pub fn new(signer: Signer) -> Gateway {
        Gateway::assemble(DocumentStore::new(), SuiteCache::new(), signer, None)
    }

    fn assemble(
        store: DocumentStore,
        cache: SuiteCache,
        signer: Signer,
        journal: Option<Journal>,
    ) -> Gateway {
        Gateway {
            store,
            cache,
            signer,
            journal,
            state: AtomicU8::new(STATE_SERVING),
            last_fault: Mutex::new(None),
            quarantine_after: AtomicU32::new(DEFAULT_QUARANTINE_AFTER),
            resume_lock: Mutex::new(()),
            telemetry: OnceLock::new(),
            #[cfg(any(test, feature = "test-hooks"))]
            panic_injections: Mutex::new(HashMap::new()),
        }
    }

    /// Opens a **durable** gateway on `dir` (created if absent): loads
    /// snapshots, replays the WAL tail through the live admission path,
    /// and journals everything the recovered gateway accepts from here
    /// on. An empty directory recovers to an empty gateway, so this is
    /// also how a durable gateway is *started*.
    pub fn recover(signer: Signer, dir: impl AsRef<Path>) -> Result<Gateway, RecoverError> {
        let opts = DurableOptions::default();
        Gateway::recover_with_io(signer, dir, opts, Box::new(SystemClock), Arc::new(StdFs))
    }

    /// [`recover`](Self::recover) with explicit [`DurableOptions`]
    /// (group-commit batch size, snapshot cadence). The `AdmissionMode`
    /// is accepted for benchmark compatibility and ignored: there is one
    /// admission path.
    pub fn recover_with(
        signer: Signer,
        _admission: AdmissionMode,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<Gateway, RecoverError> {
        Gateway::recover_with_io(signer, dir, opts, Box::new(SystemClock), Arc::new(StdFs))
    }

    /// [`recover_with`](Self::recover_with) with an injectable retry
    /// [`Clock`] and [`FileSystem`] — the crash and chaos suites pass a
    /// virtual clock, so the production backoff loop runs (and is
    /// asserted) without real sleeping, and a simulated disk
    /// ([`xuc_persist::SimDisk`]), which fails syncs and crashes on
    /// request. Production passes `SystemClock` and [`StdFs`].
    pub fn recover_with_io(
        signer: Signer,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        clock: Box<dyn Clock + Send + Sync>,
        fs: Arc<dyn FileSystem>,
    ) -> Result<Gateway, RecoverError> {
        let RecoveredState { store, cache, journal } =
            crate::persist::recover(&signer, dir.as_ref(), opts, clock, fs)?;
        Ok(Gateway::assemble(store, cache, signer, Some(journal)))
    }

    /// Whether this gateway journals its commits.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Attaches an observability bundle: registers the gateway's metric
    /// set in `tel`'s registry and starts attributing admission stages
    /// to its stage table and trace ring. First attach wins (`true`);
    /// later calls are ignored (`false`).
    ///
    /// Telemetry is **observationally inert**: verdict logs, trees,
    /// baselines and certificate chains are byte-identical with and
    /// without it, at every worker count — pinned by the differential
    /// suites. The only side effects are relaxed atomic adds and clock
    /// reads.
    pub fn attach_telemetry(&self, tel: Arc<Telemetry>) -> bool {
        self.telemetry.set(ServiceMetrics::new(tel)).is_ok()
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.get().map(|m| &m.tel)
    }

    pub(crate) fn metrics(&self) -> Option<&ServiceMetrics> {
        self.telemetry.get()
    }

    /// Folds everything that does not stream through the registry into
    /// it: the process-global XPath-engine and durability counters
    /// ([`crate::telemetry::scrape_engine_metrics`],
    /// [`crate::telemetry::scrape_persist_metrics`]). Call at snapshot
    /// points (before [`xuc_telemetry::MetricsRegistry::snapshot`]); a
    /// no-op without attached telemetry.
    pub fn record_metrics(&self) {
        let Some(m) = self.metrics() else { return };
        let reg = m.tel.registry();
        crate::telemetry::scrape_engine_metrics(reg);
        crate::telemetry::scrape_persist_metrics(reg);
    }

    /// The gateway's serving health — see [`GatewayState`].
    pub fn state(&self) -> GatewayState {
        match self.state.load(Ordering::Acquire) {
            STATE_SERVING => GatewayState::Serving,
            STATE_READ_ONLY => GatewayState::ReadOnly,
            _ => GatewayState::Halted,
        }
    }

    /// The fault message that degraded (or halted) the gateway, if any.
    pub fn last_fault(&self) -> Option<String> {
        self.last_fault.lock().clone()
    }

    /// Transient journal IO failures absorbed by the retry loop (0 on
    /// non-durable gateways). A rising counter under a steady `Serving`
    /// state is the retry layer doing its job.
    pub fn journal_transient_retries(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::transient_retries)
    }

    /// Whether the journal is sealed (true exactly while a durable
    /// gateway is degraded; always false for in-memory gateways).
    pub fn journal_sealed(&self) -> bool {
        self.journal.as_ref().is_some_and(Journal::is_sealed)
    }

    /// Drops `Serving → ReadOnly` and records the fault. A gateway that
    /// is already degraded or halted stays where it is.
    fn degrade(&self, fault: String) {
        let mut slot = self.last_fault.lock();
        if self
            .state
            .compare_exchange(STATE_SERVING, STATE_READ_ONLY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            *slot = Some(fault);
            if let Some(m) = self.metrics() {
                m.note_degraded_transition();
            }
        }
    }

    /// Routes a journal failure: `Fatal` degrades (the writer already
    /// sealed itself); `Sealed` means a racing commit slipped past the
    /// state check after another thread degraded — the gateway is
    /// already read-only, nothing more to record.
    fn note_journal_error(&self, e: JournalError) {
        if let JournalError::Fatal { .. } = &e {
            self.degrade(e.to_string());
        }
    }

    /// Stops the gateway entirely: seals the journal, refuses commits
    /// *and* reads. Terminal — [`try_resume`](Self::try_resume) refuses
    /// halted gateways; restart the process and recover instead.
    pub fn halt(&self, reason: &str) {
        let mut slot = self.last_fault.lock();
        let prev = self.state.swap(STATE_HALTED, Ordering::AcqRel);
        if prev != STATE_HALTED {
            *slot = Some(format!("halted: {reason}"));
            if let Some(m) = self.metrics() {
                m.note_halt();
            }
        }
        drop(slot);
        if let Some(journal) = &self.journal {
            journal.seal();
        }
    }

    /// Attempts `ReadOnly → Serving`: re-opens the WAL (truncating any
    /// torn tail), rebuilds the durable bookkeeping from what is
    /// actually on disk, and snapshots every document whose memory ran
    /// ahead of the durable prefix — including the commit whose
    /// journaling failure caused the degradation. On success the gateway
    /// serves commits again and a subsequent crash recovers to exactly
    /// the live state. On IO failure the gateway stays `ReadOnly` (call
    /// again later); on a state mismatch it halts.
    pub fn try_resume(&self) -> Result<(), ResumeError> {
        let _guard = self.resume_lock.lock();
        match self.state() {
            GatewayState::Serving => return Err(ResumeError::NotDegraded),
            GatewayState::Halted => return Err(ResumeError::Halted),
            GatewayState::ReadOnly => {}
        }
        let Some(journal) = &self.journal else {
            // Only journal faults degrade, so a read-only gateway is
            // always durable; tolerate the impossible anyway.
            self.state.store(STATE_SERVING, Ordering::Release);
            return Ok(());
        };
        match journal.resume(&self.store) {
            Ok(()) => {
                self.state.store(STATE_SERVING, Ordering::Release);
                if let Some(m) = self.metrics() {
                    m.note_resume();
                }
                Ok(())
            }
            Err(e) => {
                if let ResumeError::StateMismatch { doc } = &e {
                    self.halt(&format!("resume found document {doc} behind its durable log"));
                }
                Err(e)
            }
        }
    }

    /// Contained panics before a document is quarantined; `0` disables
    /// quarantining.
    pub fn quarantine_threshold(&self) -> u32 {
        self.quarantine_after.load(Ordering::Relaxed)
    }

    /// Sets the quarantine threshold (takes effect on the next request;
    /// already-quarantined documents stay quarantined until lifted).
    pub fn set_quarantine_threshold(&self, after: u32) {
        self.quarantine_after.store(after, Ordering::Relaxed);
    }

    /// Contained panics recorded against `doc` (0 for an unknown
    /// document). Locks the document.
    pub fn contained_panics(&self, doc: DocId) -> u32 {
        self.store.document(doc).map_or(0, |d| d.lock().panics)
    }

    /// Whether `doc`'s commits are currently refused for repeated
    /// contained panics. Reads are unaffected: quarantine isolates
    /// *sessions*, and reads touch only committed state.
    pub fn is_quarantined(&self, doc: DocId) -> bool {
        self.quarantines(self.contained_panics(doc))
    }

    /// Whether `panics` contained panics put a document in quarantine.
    fn quarantines(&self, panics: u32) -> bool {
        let after = self.quarantine_threshold();
        after > 0 && panics >= after
    }

    /// Clears `doc`'s panic record, letting its commits serve again.
    pub fn lift_quarantine(&self, doc: DocId) {
        if let Some(d) = self.store.document(doc) {
            d.lock().panics = 0;
        }
    }

    /// Serves a read-class request: confirms `doc` exists and the
    /// gateway serves reads. Reads survive `ReadOnly` (that is the point
    /// of the degraded mode) and quarantine; only `Halted` refuses them.
    /// The actual payload is [`snapshot`](Self::snapshot) /
    /// [`certificate`](Self::certificate) — this is the admission-path
    /// verdict the load harness accounts.
    pub fn read(&self, doc: DocId) -> Verdict {
        let v = if self.state() == GatewayState::Halted {
            Verdict::Rejected(RejectReason::Degraded { reason: DegradedReason::Halted })
        } else if self.store.document(doc).is_some() {
            Verdict::Served
        } else {
            Verdict::Rejected(RejectReason::UnknownDocument)
        };
        self.note_verdict(&v, doc);
        v
    }

    /// Restates one verdict into the attached registry (no-op without
    /// telemetry); striped by the document's shard so concurrent
    /// workers stay off each other's counter lines.
    pub(crate) fn note_verdict(&self, v: &Verdict, doc: DocId) {
        if let Some(m) = self.metrics() {
            m.note_verdict(v, shard_of(doc));
        }
    }

    /// Test hook (`test-hooks` feature): the next `count` sessions
    /// against `doc` panic after applying their updates, exercising the
    /// panic containment and quarantine paths without a buggy handler.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn inject_session_panic(&self, doc: DocId, count: usize) {
        *self.panic_injections.lock().entry(doc).or_insert(0) += count;
    }

    #[cfg(any(test, feature = "test-hooks"))]
    fn fire_injected_panic(&self, doc: DocId) {
        let mut map = self.panic_injections.lock();
        if let Some(n) = map.get_mut(&doc) {
            if *n > 0 {
                *n -= 1;
                if *n == 0 {
                    map.remove(&doc);
                }
                drop(map);
                panic!("injected session panic");
            }
        }
    }

    #[cfg(not(any(test, feature = "test-hooks")))]
    #[inline(always)]
    fn fire_injected_panic(&self, _doc: DocId) {}

    /// Publishes a document under its constraint suite (the Source side
    /// of Figure 1): compiles or cache-hits the suite, certifies the
    /// initial state, and starts serving it.
    ///
    /// A `ReadOnly` gateway still publishes **to memory** (the sealed
    /// journal is skipped; [`try_resume`](Self::try_resume) snapshots
    /// the document before journaling restarts, so it is never silently
    /// dropped on resume). A `Halted` gateway refuses.
    pub fn publish(
        &self,
        id: DocId,
        tree: DataTree,
        suite: Vec<Constraint>,
    ) -> Result<(), PublishError> {
        if self.state() == GatewayState::Halted {
            return Err(PublishError::Halted);
        }
        let doc = self.store.prepare(id, tree, suite, &self.cache, &self.signer)?;
        let Some(journal) = &self.journal else {
            return self.store.install(doc);
        };
        // Journaled (and synced, so an acknowledged publish is never lost
        // to group-commit buffering) before the document becomes visible:
        // every logged commit has its publish earlier in the log.
        if let Err(e) = journal.publish(&self.store, doc)? {
            self.note_journal_error(e);
        }
        Ok(())
    }

    /// The underlying store (lock a document directly to run a manual
    /// [`Session`]).
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The suite cache (hit/miss counters for tests and experiments).
    pub fn cache(&self) -> &SuiteCache {
        &self.cache
    }

    /// The current certificate of `id`'s document — what a User fetches
    /// alongside [`snapshot`](Self::snapshot) to verify it independently.
    /// Materialized under the document lock: one clone of each signed
    /// set.
    pub fn certificate(&self, id: DocId) -> Option<Certificate> {
        self.store.document(id).map(|d| d.lock().certificate())
    }

    /// A clone of `id`'s current committed tree (the published state a
    /// User downloads).
    pub fn snapshot(&self, id: DocId) -> Option<DataTree> {
        self.store.document(id).map(|d| d.lock().tree().clone())
    }

    /// Admits or rejects one request: locks the document, applies the
    /// batch in a [`Session`], and commits (re-certifying and, on durable
    /// gateways, journaling) or rolls back. Atomic either way — a failed
    /// update unwinds the applied prefix.
    ///
    /// Panics inside the request are contained here, at the unit
    /// boundary: the session's rollback-on-drop has already restored the
    /// document by the time the unwind reaches us, so the panic degrades
    /// to a [`RejectReason::Internal`] verdict (message bounded to a
    /// fixed length), the per-document mutex is released cleanly (no
    /// poisoning — `parking_lot` locks), and both this document and the
    /// worker pool keep serving. Each contained panic counts toward the
    /// document's quarantine; a fatal journal IO failure degrades the
    /// whole gateway to `ReadOnly` instead of stopping the process (see
    /// [`crate::persist`] and [`GatewayState`]).
    pub fn submit(&self, request: &Request) -> Verdict {
        let v = self.submit_uncounted(request);
        self.note_verdict(&v, request.doc);
        v
    }

    /// [`submit`](Self::submit) without the verdict-counter bump — the
    /// counting happens exactly once per verdict, at whichever boundary
    /// produced it.
    fn submit_uncounted(&self, request: &Request) -> Verdict {
        let degraded = |reason| Verdict::Rejected(RejectReason::Degraded { reason });
        match self.state() {
            GatewayState::Serving => {}
            GatewayState::ReadOnly => return degraded(DegradedReason::ReadOnly),
            GatewayState::Halted => return degraded(DegradedReason::Halted),
        }
        let Some(doc) = self.store.document(request.doc) else {
            return Verdict::Rejected(RejectReason::UnknownDocument);
        };
        let mut doc = doc.lock();
        // The quarantine count lives in the document: checked under the
        // lock its panic boundary increments it under, before any
        // evaluation.
        if self.quarantines(doc.panics) {
            return degraded(DegradedReason::Quarantined);
        }
        self.submit_locked_contained(&mut doc, request)
    }

    /// [`submit_locked`](Self::submit_locked) under the panic-containment
    /// boundary described on [`submit`](Self::submit).
    fn submit_locked_contained(&self, doc: &mut Document, request: &Request) -> Verdict {
        match panic::catch_unwind(AssertUnwindSafe(|| self.submit_locked(doc, request))) {
            Ok(verdict) => verdict,
            Err(payload) => {
                let error = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "request handler panicked".to_owned());
                doc.panics += 1;
                if let Some(m) = self.metrics() {
                    m.note_contained_panic(doc.panics == self.quarantine_threshold());
                }
                Verdict::Rejected(RejectReason::Internal { error: bounded_internal_error(error) })
            }
        }
    }

    fn submit_locked(&self, doc: &mut Document, request: &Request) -> Verdict {
        let m = self.metrics();
        let tel = m.map(|m| &*m.tel);
        let tag = m.map_or(0, ServiceMetrics::next_tag);
        let mut session = Session::begin_traced(doc, tel, tag);
        for (index, update) in request.updates.iter().enumerate() {
            if let Err(e) = session.apply(update) {
                // Dropping the session rolls the applied prefix back.
                return Verdict::Rejected(RejectReason::FailedUpdate {
                    index,
                    error: e.to_string(),
                });
            }
        }
        self.fire_injected_panic(request.doc);
        match session.commit(&self.signer) {
            Ok(receipt) => {
                if let Some(journal) = &self.journal {
                    // Still under the document mutex: the log's
                    // per-document order is the commit order. A journal
                    // failure does NOT flip the verdict — the commit is
                    // real in memory — it degrades the gateway, and the
                    // unjournaled suffix is covered by resume/recovery
                    // like a lost group-commit buffer.
                    let journaled = journal.log_commit(doc, &request.updates, tel, tag);
                    if let Err(e) = journaled.and_then(|()| journal.maybe_snapshot(doc)) {
                        self.note_journal_error(e);
                    }
                }
                Verdict::Accepted { commit: receipt.commit }
            }
            Err(r) => Verdict::Rejected(RejectReason::Violation {
                constraint: r.constraint.to_string(),
                offenders: r.offenders,
            }),
        }
    }

    /// Drains `requests` over `workers` threads and returns one verdict
    /// per request (same order). The result — and therefore
    /// [`render_log`] — is **identical at every worker count**, and
    /// identical to a sequential [`submit`](Self::submit) loop over the
    /// stream; see the module docs for why. At most one thread per
    /// document is spawned: a unit is never split, so extra workers
    /// would have nothing to claim.
    pub fn process(&self, requests: &[Request], workers: usize) -> Vec<Verdict> {
        let mut verdicts: Vec<Option<Verdict>> = vec![None; requests.len()];
        let docs = requests.iter().map(|r| r.doc).enumerate();
        self.drain(docs, &mut verdicts, workers, |i| self.submit(&requests[i]));
        // Invariant: the units partition `0..requests.len()` and every
        // unit was drained (serially or by a worker), so no slot is None.
        verdicts.into_iter().map(|v| v.expect("every request verdicted")).collect()
    }

    /// The one worker pool of [`process`](Self::process) and
    /// [`process_open_loop`](Self::process_open_loop): groups the
    /// `(index, document)` items into units — each document's indices,
    /// in arrival order — and drains them over `workers` threads claiming
    /// whole units off a shared cursor, storing `serve(i)` in
    /// `verdicts[i]`. A unit is never split, so at most one thread per
    /// unit is spawned, and one worker (or one unit) runs inline.
    pub(crate) fn drain(
        &self,
        items: impl Iterator<Item = (usize, DocId)>,
        verdicts: &mut [Option<Verdict>],
        workers: usize,
        serve: impl Fn(usize) -> Verdict + Sync,
    ) {
        let mut order: Vec<DocId> = Vec::new();
        let mut by_doc: HashMap<DocId, Vec<usize>> = HashMap::new();
        for (i, doc) in items {
            by_doc
                .entry(doc)
                .or_insert_with(|| {
                    order.push(doc);
                    Vec::new()
                })
                .push(i);
        }
        // Invariant: `order` records exactly the keys inserted into
        // `by_doc` above, so every removal hits.
        let units: Vec<Vec<usize>> =
            order.into_iter().map(|d| by_doc.remove(&d).expect("grouped")).collect();
        let workers = workers.min(units.len());
        if workers <= 1 {
            // Inline: identical result by construction, no spawn cost.
            for &i in units.iter().flatten() {
                verdicts[i] = Some(serve(i));
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let u = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(unit) = units.get(u) else { break };
                            for &i in unit {
                                out.push((i, serve(i)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                // Invariant, not an IO-path unwrap: `serve` routes through
                // `submit` or `read`, which contain every request panic at
                // the unit boundary, so a worker can only die of something
                // non-unwindable (abort), which join cannot observe anyway.
                .flat_map(|h| h.join().expect("gateway worker panicked"))
                .collect::<Vec<_>>()
        });
        for (i, v) in results {
            verdicts[i] = Some(v);
        }
    }

    /// Benchmark compatibility: `gatebench/`, the repository's
    /// end-to-end benchmark, is its only caller. Forwards to
    /// [`process`](Self::process).
    #[doc(hidden)]
    pub fn process_throughput(
        &self,
        requests: &[Request],
        workers: usize,
        _opts: &ThroughputOptions,
    ) -> Vec<Verdict> {
        self.process(requests, workers)
    }

    /// Benchmark compatibility: `gatebench/` is its only caller. The
    /// gateway does not coalesce commits, so both counters read zero.
    #[doc(hidden)]
    pub fn coalesce_stats(&self) -> CoalesceStats {
        CoalesceStats::default()
    }
}

/// Benchmark compatibility: `gatebench/` is its only caller, passing
/// `Delta` to `Gateway::recover_with`, which ignores it. The gateway has
/// one admission path.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    #[default]
    Delta,
}

/// Benchmark compatibility: `gatebench/` is its only caller, passing it
/// to `Gateway::process_throughput`. Carries no options.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThroughputOptions {}

/// Benchmark compatibility: what `Gateway::coalesce_stats` returns to
/// `gatebench/`, its only caller. Always zero.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoalesceStats {
    pub attempts: u64,
    pub commits: u64,
}

/// The canonical accept/reject log of one processed stream: one line per
/// request, in request order. This string is the determinism contract's
/// subject — byte-identical at every worker count.
pub fn render_log(requests: &[Request], verdicts: &[Verdict]) -> String {
    assert_eq!(requests.len(), verdicts.len(), "one verdict per request");
    let mut out = String::new();
    for (i, (r, v)) in requests.iter().zip(verdicts).enumerate() {
        out.push_str(&format!("#{i:04} {} {}\n", r.doc, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_xtree::{parse_term, NodeId, Update};

    fn gateway_with_doc() -> (Gateway, DocId) {
        let gw = Gateway::new(Signer::new(0xabc));
        let id = DocId::new("h");
        let tree = parse_term("hospital#1(patient#2(visit#3),patient#4(clinicalTrial#5))").unwrap();
        let suite = vec![
            parse_constraint("(/patient/visit, ↑)").unwrap(),
            parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap(),
        ];
        gw.publish(id, tree, suite).unwrap();
        (gw, id)
    }

    #[test]
    fn process_log_matches_sequential_submits() {
        let docs: Vec<(DocId, DataTree)> = (0..4)
            .map(|i| {
                (DocId::new(&format!("d{i}")), parse_term("h(p#1(v#2),p#3(v#4),p#5(v#6))").unwrap())
            })
            .collect();
        let suite = vec![xuc_core::parse_constraint("(/p/v, ↑)").unwrap()];
        let mk = || {
            let gw = Gateway::new(Signer::new(0x7677));
            for (id, tree) in &docs {
                gw.publish(*id, tree.clone(), suite.clone()).unwrap();
            }
            gw
        };
        let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(d, t)| (*d, t)).collect();
        let requests = crate::workload::seeded_requests(&doc_refs, &["v", "w"], 0xbeef, 64);
        let seq = mk();
        let reference: Vec<Verdict> = requests.iter().map(|r| seq.submit(r)).collect();
        for workers in [1, 2, 8, 64] {
            let gw = mk();
            let verdicts = gw.process(&requests, workers);
            assert_eq!(
                render_log(&requests, &verdicts),
                render_log(&requests, &reference),
                "process diverged from the submit loop at {workers} workers"
            );
        }
    }

    #[test]
    fn internal_error_messages_are_bounded() {
        let short = bounded_internal_error("boom".into());
        assert_eq!(short, "boom");
        let long = bounded_internal_error("x".repeat(5 * INTERNAL_ERROR_MAX));
        assert_eq!(long.chars().count(), INTERNAL_ERROR_MAX + 1);
        assert!(long.ends_with('…'));
        // The cut lands on a char boundary even when a multi-byte char
        // straddles the byte limit.
        let multi = bounded_internal_error("é".repeat(INTERNAL_ERROR_MAX));
        assert!(multi.len() <= INTERNAL_ERROR_MAX + '…'.len_utf8());
        assert!(multi.ends_with('…'));
        assert!(multi.chars().rev().skip(1).all(|c| c == 'é'));
    }

    #[test]
    fn accept_commits_and_recertifies() {
        let (gw, id) = gateway_with_doc();
        let before = gw.snapshot(id).unwrap();
        let req = Request {
            doc: id,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::fresh(),
                label: "visit".into(),
            }],
        };
        assert_eq!(gw.submit(&req), Verdict::Accepted { commit: 1 });
        let snap = gw.snapshot(id).unwrap();
        assert_eq!(snap.len(), 6);
        // The new certificate covers the new state — and its ↑ baseline
        // has moved: the pre-commit tree (missing the new visit) now
        // fails verification against it.
        assert!(gw.certificate(id).unwrap().verify(0xabc, &snap).is_ok());
        assert!(gw.certificate(id).unwrap().verify(0xabc, &before).is_err());
    }

    #[test]
    fn violation_rejects_and_rolls_back() {
        let (gw, id) = gateway_with_doc();
        let before = gw.snapshot(id).unwrap();
        let req =
            Request { doc: id, updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(3) }] };
        match gw.submit(&req) {
            Verdict::Rejected(RejectReason::Violation { constraint, offenders }) => {
                assert_eq!(constraint, "(/patient/visit, ↑)");
                assert_eq!(offenders, 1);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(gw.snapshot(id).unwrap().render(), before.render());
        assert!(gw.certificate(id).unwrap().verify(0xabc, &before).is_ok());
    }

    #[test]
    fn failed_update_rejects_whole_batch() {
        let (gw, id) = gateway_with_doc();
        let before = gw.snapshot(id).unwrap();
        // First update applies, second targets a dead node: the prefix
        // must unwind.
        let req = Request {
            doc: id,
            updates: vec![
                Update::InsertLeaf {
                    parent: NodeId::from_raw(2),
                    id: NodeId::fresh(),
                    label: "visit".into(),
                },
                Update::DeleteSubtree { node: NodeId::from_raw(99) },
            ],
        };
        match gw.submit(&req) {
            Verdict::Rejected(RejectReason::FailedUpdate { index: 1, .. }) => {}
            other => panic!("expected failed update, got {other:?}"),
        }
        assert_eq!(gw.snapshot(id).unwrap().render(), before.render());
    }

    #[test]
    fn unknown_document_rejected() {
        let (gw, _) = gateway_with_doc();
        let req = Request { doc: DocId::new("ghost"), updates: Vec::new() };
        assert_eq!(gw.submit(&req), Verdict::Rejected(RejectReason::UnknownDocument));
    }

    #[test]
    fn empty_batch_is_a_trivial_commit() {
        let (gw, id) = gateway_with_doc();
        let req = Request { doc: id, updates: Vec::new() };
        assert_eq!(gw.submit(&req), Verdict::Accepted { commit: 1 });
        assert_eq!(gw.submit(&req), Verdict::Accepted { commit: 2 });
    }

    /// Runs `f` with panic backtraces suppressed (for tests that
    /// intentionally panic inside the containment boundary). Serialized:
    /// the panic hook is process-global.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex as StdMutex;
        static HOOK: StdMutex<()> = StdMutex::new(());
        let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xuc-gw-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn injected_panic_is_contained() {
        let (gw, id) = gateway_with_doc();
        let before = gw.snapshot(id).unwrap().render();
        let req = Request {
            doc: id,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::fresh(),
                label: "visit".into(),
            }],
        };
        gw.inject_session_panic(id, 1);
        match quiet_panics(|| gw.submit(&req)) {
            Verdict::Rejected(RejectReason::Internal { error }) => {
                assert!(error.contains("injected session panic"), "got: {error}");
            }
            other => panic!("expected internal rejection, got {other:?}"),
        }
        // The session's rollback-on-drop restored the document: no trace
        // of the applied update, no commit, lock not wedged.
        assert_eq!(gw.snapshot(id).unwrap().render(), before);
        assert_eq!(gw.store().document(id).unwrap().lock().commits(), 0);
        // The same request now commits normally.
        assert_eq!(gw.submit(&req), Verdict::Accepted { commit: 1 });
    }

    #[test]
    fn panicking_requests_do_not_wedge_the_pool() {
        let (gw, id) = gateway_with_doc();
        gw.inject_session_panic(id, 2);
        // Six trivially-committable requests; the first two sessions
        // panic. The pool must keep serving and the survivors must
        // commit in arrival order.
        let reqs: Vec<Request> = (0..6).map(|_| Request { doc: id, updates: Vec::new() }).collect();
        let verdicts = quiet_panics(|| gw.process(&reqs, 2));
        for v in &verdicts[..2] {
            assert!(
                matches!(v, Verdict::Rejected(RejectReason::Internal { .. })),
                "expected containment, got {v:?}"
            );
        }
        for (k, v) in verdicts[2..].iter().enumerate() {
            assert_eq!(*v, Verdict::Accepted { commit: k as u64 + 1 });
        }
    }

    #[test]
    fn durable_gateway_round_trips_state() {
        let dir = tmp_dir("roundtrip");
        let key = 0xD0C5;
        let id = DocId::new("h");
        let req_ok = |parent: u64| Request {
            doc: id,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(parent),
                id: NodeId::fresh(),
                label: "visit".into(),
            }],
        };
        let (render, cert) = {
            let gw = Gateway::recover(Signer::new(key), &dir).unwrap();
            assert!(gw.is_durable());
            let tree =
                parse_term("hospital#1(patient#2(visit#3),patient#4(clinicalTrial#5))").unwrap();
            let suite = vec![
                parse_constraint("(/patient/visit, ↑)").unwrap(),
                parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap(),
            ];
            gw.publish(id, tree, suite).unwrap();
            assert_eq!(gw.submit(&req_ok(2)), Verdict::Accepted { commit: 1 });
            assert!(matches!(
                gw.submit(&Request {
                    doc: id,
                    updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(3) }],
                }),
                Verdict::Rejected(RejectReason::Violation { .. })
            ));
            assert_eq!(gw.submit(&req_ok(4)), Verdict::Accepted { commit: 2 });
            (gw.snapshot(id).unwrap().render(), gw.certificate(id).unwrap())
            // Orderly drop: pending frames sync.
        };

        let rec = Gateway::recover(Signer::new(key), &dir).unwrap();
        let snap = rec.snapshot(id).unwrap();
        assert_eq!(snap.render(), render);
        assert_eq!(rec.certificate(id).unwrap(), cert, "recovered certificate differs");
        assert_eq!(rec.store().document(id).unwrap().lock().commits(), 2);
        assert!(cert.verify(key, &snap).is_ok());
        // The recovered gateway continues the hash chain where the
        // pre-crash one left off.
        let prev = cert.digest();
        assert_eq!(rec.submit(&req_ok(2)), Verdict::Accepted { commit: 3 });
        let next = rec.certificate(id).unwrap();
        assert!(next.verify_chained(key, &rec.snapshot(id).unwrap(), prev).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_renders_in_request_order() {
        let (gw, id) = gateway_with_doc();
        let reqs = vec![
            Request { doc: id, updates: Vec::new() },
            Request { doc: DocId::new("ghost"), updates: Vec::new() },
        ];
        let verdicts = gw.process(&reqs, 1);
        let log = render_log(&reqs, &verdicts);
        assert_eq!(log, "#0000 h ACCEPT commit=1\n#0001 ghost REJECT unknown document\n");
    }
}
