//! Transactional update sessions over one document.
//!
//! A [`Session`] wraps one exclusive borrow of a [`Document`] (the caller
//! holds the document's mutex) in `begin / apply / commit / rollback`
//! semantics:
//!
//! * [`Session::apply`] edits the working tree through
//!   [`apply_undoable`], pushes the undo token, and re-syncs the warm
//!   evaluator **proportionally to the edit** via
//!   [`Evaluator::refresh_after`](xuc_xpath::Evaluator::refresh_after) and
//!   the returned [`EditScope`](xuc_xtree::EditScope) — the evaluator is
//!   never stale, at any point of the session;
//! * [`Session::commit`] runs the admission check **edit-proportionally**
//!   ([`admit_delta_in_place`]): every applied scope is folded into a
//!   [`DirtyRegion`], and
//!   [`eval_set_splice`](xuc_xpath::Evaluator::eval_set_splice) re-drives
//!   the suite's compiled automaton only below the batch's dirty subtrees
//!   — the subtrees whose root path changed, at any depth — patching the
//!   committed baseline in place and judging Definition 2.3 off its
//!   journal. Predicate suites make the splice decline, and the commit
//!   falls back to [`admit`], the one full-pass admission
//!   ([`AdmissionMode::FullPass`] runs it unconditionally) — identical
//!   verdicts and baselines either way,
//!   pinned by `tests/differential.rs`. Accepted batches re-certify
//!   **incrementally**: each [`SpliceJournal`] event (an entry added to
//!   or removed from a signed set) is folded into that set's additive
//!   hash ([`SetSum`](xuc_sigstore::SetSum)), a full pass re-hashes the
//!   sets it replaced, and the O(k) certificate header is re-chained
//!   onto the outgoing certificate's digest
//!   ([`CertHeader::rechain`](xuc_sigstore::CertHeader::rechain)) — no
//!   set is copied or serialized. An accepted batch then [`release`]s
//!   its undo tokens: the slots its deletions parked go back on the
//!   arena's free list, so a document's arena stays bounded by its peak
//!   live size however many deletions it commits. Rejected batches
//!   unwind;
//! * [`Session::rollback`] (and `Drop`, for abandoned sessions) unwinds
//!   the undo stack in LIFO order. Undo is an *exact* inverse (each node
//!   relinked after its former previous sibling), so the tree returns byte-identical to the
//!   committed state. The evaluator re-syncs after every undo through
//!   its scope, as `apply` does — O(1) per relabel or id swap, the
//!   subtree the scope names per structural undo, at any depth — so a
//!   rejected batch never re-reads the document.

use crate::store::Document;
use std::collections::BTreeSet;
use xuc_automata::CompiledPatternSet;
use xuc_core::{Constraint, ConstraintKind};
use xuc_sigstore::Signer;
use xuc_telemetry::{Stage, Telemetry};
use xuc_xpath::{Evaluator, SpliceJournal};
use xuc_xtree::{apply_undoable, release, undo, DirtyRegion, NodeRef, Undo, Update, UpdateError};

/// A committed batch's receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// The document's commit number after this batch (1 for the first
    /// accepted batch after publish).
    pub commit: u64,
}

/// Why a batch failed admission. The session has already rolled back
/// when a `Rejection` is returned.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The first violated constraint (suite order).
    pub constraint: Constraint,
    /// Nodes inserted into (↓) or removed from (↑) its range.
    pub offenders: usize,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch violates {} ({} offending nodes)", self.constraint, self.offenders)
    }
}

impl std::error::Error for Rejection {}

/// The admission check: evaluates the whole suite in **one**
/// [`eval_set`](Evaluator::eval_set) pass over `compiled` and compares
/// each range against the committed baseline under Definition 2.3
/// (`⊆` for ↓, `⊇` for ↑ — via
/// [`ConstraintKind::satisfied_on`](xuc_core::ConstraintKind::satisfied_on)).
///
/// Returns the fresh range results on success (the caller re-uses them as
/// the next baseline and as certification snapshots), or the first
/// violation in suite order. This is the reference admission: the
/// production splice is checked against it, and a declined splice falls
/// back to it. Exposed for the E-SVC experiment, which measures this
/// exact function under cached vs per-request-recompiled automata.
pub fn admit(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &[BTreeSet<NodeRef>],
) -> Result<Vec<BTreeSet<NodeRef>>, Rejection> {
    admit_traced(ev, compiled, suite, base_sets, None, 0, None).0
}

/// [`admit`] with optional stage tracing: the full `eval_set` sweep is
/// attributed to a [`Stage::Splice`] span (the evaluation stage — splice
/// or full pass) opened at `splice_open`, which a declined splice sets to
/// before its own attempt. The Definition 2.3 comparison runs in an open
/// [`Stage::Verdict`] span whose start is returned beside the verdict:
/// the caller closes it on the reading that opens the next stage.
/// Telemetry is observationally inert: verdicts and returned sets are
/// those of [`admit`] on every input.
pub(crate) fn admit_traced(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &[BTreeSet<NodeRef>],
    tel: Option<&Telemetry>,
    tag: u16,
    splice_open: Option<u64>,
) -> (Result<Vec<BTreeSet<NodeRef>>, Rejection>, Option<u64>) {
    debug_assert_eq!(suite.len(), base_sets.len(), "one baseline per constraint");
    let now_sets = ev.eval_set(compiled);
    // Splice closes and Verdict opens on one shared clock reading — the
    // read, not the atomics, is the tracer's hot-path cost.
    let verdict_open = close_span(tel, Stage::Splice, tag, splice_open);
    (check_against_baseline(suite, base_sets, now_sets), verdict_open)
}

/// [`admit_traced`] installing the fresh range results as `base_sets` on
/// an accept: the full-pass commit, shared by [`AdmissionMode::FullPass`]
/// and a declined splice. An accept carries no splice journal.
fn admit_full_in_place(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &mut Vec<BTreeSet<NodeRef>>,
    tel: Option<&Telemetry>,
    tag: u16,
    splice_open: Option<u64>,
) -> (Result<Option<SpliceJournal>, Rejection>, Option<u64>) {
    let (admitted, verdict_open) =
        admit_traced(ev, compiled, suite, base_sets, tel, tag, splice_open);
    let installed = admitted.map(|now_sets| {
        *base_sets = now_sets;
        None
    });
    (installed, verdict_open)
}

/// Closes the `stage` span opened at `opened` and returns the closing
/// reading, which opens the adjacent next span.
fn close_span(tel: Option<&Telemetry>, stage: Stage, tag: u16, opened: Option<u64>) -> Option<u64> {
    tel.map(|t| {
        let now = t.now_micros();
        t.record_span(stage, tag, now.saturating_sub(opened.unwrap_or(now)));
        now
    })
}

/// The commit hot path: edit-proportional admission built on
/// [`eval_set_splice`](Evaluator::eval_set_splice). The committed
/// baselines are spliced directly — targeted removals/patches/inserts
/// proportional to the batch's dirty region, never a clone or re-sweep of
/// the whole document — and Definition 2.3 is judged straight off the
/// splice journal's net changes (`base \ now` per ↑ range, `now \ base`
/// per ↓). On success `base_sets` **are** the admission pass's fresh
/// range results (certify from them); on rejection the splice has been
/// reverted and `base_sets` are byte-identical to the committed
/// baselines. When the splice does not apply (predicate fallbacks, a
/// stale region, or a dirty region so large the clean sweep is
/// cheaper) it falls back to [`admit`] and `base_sets` is replaced
/// wholesale on an accept.
///
/// Returns `Ok(Some(journal))` on a spliced accept, `Ok(None)` on a
/// full-pass accept. Verdicts, resulting baselines and rejection
/// offenders are identical to [`admit`]'s on every input — pinned by the
/// differential harness in `tests/differential.rs`.
pub fn admit_delta_in_place(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &mut Vec<BTreeSet<NodeRef>>,
    region: &DirtyRegion,
) -> Result<Option<SpliceJournal>, Rejection> {
    admit_delta_in_place_traced(ev, compiled, suite, base_sets, region, None, 0).0
}

/// [`admit_delta_in_place`] with optional stage tracing: the splice (or
/// its full-pass degradation) is attributed to [`Stage::Splice`], the
/// Definition 2.3 judgement off the journal's net changes (or against
/// the baseline) runs in an open [`Stage::Verdict`] span whose start is
/// returned, as [`admit_traced`] does. Telemetry is observationally
/// inert — verdicts, baselines and journals are those of the untraced
/// form on every input.
pub(crate) fn admit_delta_in_place_traced(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &mut Vec<BTreeSet<NodeRef>>,
    region: &DirtyRegion,
    tel: Option<&Telemetry>,
    tag: u16,
) -> (Result<Option<SpliceJournal>, Rejection>, Option<u64>) {
    debug_assert_eq!(suite.len(), base_sets.len(), "one baseline per constraint");
    let t0 = tel.map(Telemetry::now_micros);
    match ev.eval_set_splice(compiled, region, base_sets) {
        // Degradation: the splice attempt *and* the full pass it fell
        // back to are one Splice span — what the evaluation stage cost,
        // not how it got there.
        None => admit_full_in_place(ev, compiled, suite, base_sets, tel, tag, t0),
        Some(journal) => {
            let verdict_open = close_span(tel, Stage::Splice, tag, t0);
            let judged = (|| {
                for (i, c) in suite.iter().enumerate() {
                    let (net_removed, net_added) = journal.net_changes(i);
                    let offenders = match c.kind {
                        ConstraintKind::NoRemove => net_removed.len(),
                        ConstraintKind::NoInsert => net_added.len(),
                    };
                    if offenders > 0 {
                        journal.revert(base_sets);
                        return Err(Rejection { constraint: c.clone(), offenders });
                    }
                }
                Ok(())
            })();
            (judged.map(|()| Some(journal)), verdict_open)
        }
    }
}

/// Definition 2.3 on precomputed range results: first violation in suite
/// order, or the fresh results for reuse as the next baseline.
fn check_against_baseline(
    suite: &[Constraint],
    base_sets: &[BTreeSet<NodeRef>],
    now_sets: Vec<BTreeSet<NodeRef>>,
) -> Result<Vec<BTreeSet<NodeRef>>, Rejection> {
    for ((c, base), now) in suite.iter().zip(base_sets).zip(&now_sets) {
        if !c.kind.satisfied_on(base, now) {
            let offenders = c.kind.offenders_on(base, now).len();
            return Err(Rejection { constraint: c.clone(), offenders });
        }
    }
    Ok(now_sets)
}

/// How a [`Session`] (and the [`Gateway`](crate::Gateway) above it) runs
/// its admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Edit-proportional splice ([`admit_delta_in_place`]): the
    /// production path.
    #[default]
    Delta,
    /// Unconditional full `eval_set` pass ([`admit`]): the pre-delta
    /// shape, kept as the differential-testing and benchmarking baseline.
    FullPass,
}

/// An open transaction on one document. See the module docs.
pub struct Session<'a> {
    doc: &'a mut Document,
    undo_stack: Vec<Undo>,
    /// Union of the batch's edit scopes — what [`admit_delta_in_place`] splices
    /// against at commit time. Reset (with the undo stack) on rollback.
    region: DirtyRegion,
    open: bool,
    /// Stage tracer, when the owning gateway has telemetry attached.
    /// Never consulted for any admission decision.
    tel: Option<&'a Telemetry>,
    /// Trace-ring tag correlating this session's spans.
    tag: u16,
}

impl<'a> Session<'a> {
    /// Opens a transaction. Free: the baseline range results were cached
    /// by the last commit (or publish), so nothing is evaluated here.
    pub fn begin(doc: &'a mut Document) -> Session<'a> {
        Session::begin_traced(doc, None, 0)
    }

    /// [`begin`](Self::begin) with a stage tracer: `apply` and `commit`
    /// attribute their phases to the [`Stage`] taxonomy under `tag`.
    pub(crate) fn begin_traced(
        doc: &'a mut Document,
        tel: Option<&'a Telemetry>,
        tag: u16,
    ) -> Session<'a> {
        Session { doc, undo_stack: Vec::new(), region: DirtyRegion::new(), open: true, tel, tag }
    }

    /// Number of updates applied so far.
    pub fn applied(&self) -> usize {
        self.undo_stack.len()
    }

    /// Applies one update to the working tree and re-syncs the evaluator
    /// in time proportional to the edit. On error the tree is untouched
    /// (the primitive either applies fully or not at all) and the session
    /// stays usable — the caller decides whether to continue or roll
    /// back.
    pub fn apply(&mut self, update: &Update) -> Result<(), UpdateError> {
        let (tel, tag) = (self.tel, self.tag);
        let doc = &mut *self.doc;
        // Stage::Apply covers the footprint probe, the edit and the
        // evaluator re-sync — everything proportional to the edit;
        // Stage::DirtyAccumulate the region bookkeeping. The two spans
        // split on ONE shared boundary reading: the tracer's hot-path
        // cost is the clock, so adjacent stages never read it twice at
        // their seam. (A failing apply returns before the boundary and
        // drops its open span — rejected updates carry no timing.)
        let t0 = tel.map(Telemetry::now_micros);
        // Capture what a deletion is about to remove, before it
        // happens (cost proportional to the doomed subtree, like the
        // deletion itself): the commit-time splice evicts exactly
        // these baseline entries instead of scanning for absentees.
        let doomed = match update {
            Update::DeleteSubtree { node } => doc.tree.subtree_nodes(*node).ok(),
            Update::DeleteNode { node } => doc.tree.node(*node).ok().map(|r| vec![r]),
            _ => None,
        };
        let (token, scope) = apply_undoable(&mut doc.tree, update)?;
        doc.ev.refresh_after(&doc.tree, &scope);
        let boundary = tel.map(|t| {
            let t1 = t.now_micros();
            t.record_span(Stage::Apply, tag, t1.saturating_sub(t0.unwrap_or(t1)));
            t1
        });
        if let Some(refs) = doomed {
            self.region.record_removals(&refs);
        }
        self.region.record(&doc.tree, &scope);
        if let (Some(t), Some(t1)) = (tel, boundary) {
            t.record_stage(Stage::DirtyAccumulate, tag, t1);
        }
        self.undo_stack.push(token);
        Ok(())
    }

    /// The accumulated dirty region of the batch so far (what a
    /// [`AdmissionMode::Delta`] commit will splice against).
    pub fn dirty_region(&self) -> &DirtyRegion {
        &self.region
    }

    /// Commits the batch: admission check, then re-certification.
    ///
    /// * Accepted: the working tree becomes the committed state, the
    ///   admission pass's range results become the new baseline **and**
    ///   the signed sets (no re-evaluation, no copy), the certificate
    ///   header is folded forward and re-chained, and the commit counter
    ///   advances. The undo tokens are [`release`]d, freeing the slots
    ///   the batch's deletions parked. [`Stage::Certify`] spans the whole
    ///   re-certification — the fold, the outgoing digest and the
    ///   re-chain — and the release, O(deleted nodes).
    /// * Rejected: the batch is unwound exactly ([`Session::rollback`])
    ///   before the [`Rejection`] is returned — the document is
    ///   byte-identical to its committed state.
    pub fn commit(self, signer: &Signer) -> Result<Commit, Rejection> {
        self.commit_with(signer, AdmissionMode::Delta)
    }

    /// [`commit`](Self::commit) with an explicit [`AdmissionMode`] —
    /// [`AdmissionMode::FullPass`] forces the pre-delta full `eval_set`
    /// admission (the differential harness's reference arm).
    pub fn commit_with(
        mut self,
        signer: &Signer,
        mode: AdmissionMode,
    ) -> Result<Commit, Rejection> {
        let (tel, tag) = (self.tel, self.tag);
        let (admitted, verdict_open) = match mode {
            // The delta path splices doc.base_sets in place: on success
            // they already ARE the admission pass's fresh range results,
            // on rejection they have been reverted to the committed
            // baselines.
            AdmissionMode::Delta => admit_delta_in_place_traced(
                &mut self.doc.ev,
                &self.doc.compiled,
                &self.doc.suite,
                &mut self.doc.base_sets,
                &self.region,
                tel,
                tag,
            ),
            AdmissionMode::FullPass => admit_full_in_place(
                &mut self.doc.ev,
                &self.doc.compiled,
                &self.doc.suite,
                &mut self.doc.base_sets,
                tel,
                tag,
                tel.map(Telemetry::now_micros),
            ),
        };
        // Verdict closes, and on an accept Certify opens, on one reading.
        let certify_open = close_span(tel, Stage::Verdict, tag, verdict_open);
        match admitted {
            Ok(journal) => {
                let doc = &mut *self.doc;
                // Bring each set's sum up to the new baseline: fold the
                // splice's own events (O(edit)), or re-hash the sets a
                // full pass replaced wholesale.
                match &journal {
                    Some(journal) => {
                        for (i, entry) in doc.header.entries.iter_mut().enumerate() {
                            for (r, added) in journal.events(i) {
                                if *added {
                                    entry.sum.add(signer, r);
                                } else {
                                    entry.sum.remove(signer, r);
                                }
                            }
                        }
                    }
                    None => doc.header.resum(signer, &doc.base_sets),
                }
                // Chain onto the outgoing certificate: its digest becomes
                // the new `prev_digest`, making the document's certificate
                // history a hash-linked chain auditable from the journal
                // alone (see `xuc-persist`).
                doc.header.rechain(signer);
                for token in self.undo_stack.drain(..) {
                    release(&mut doc.tree, token);
                }
                close_span(tel, Stage::Certify, tag, certify_open);
                doc.commits += 1;
                self.open = false;
                Ok(Commit { commit: doc.commits })
            }
            Err(rejection) => {
                self.unwind();
                Err(rejection)
            }
        }
    }

    /// Abandons the batch: unwinds every applied update in LIFO order and
    /// re-syncs the evaluator. The document is left byte-identical to its
    /// committed state (exact child order — the undo tokens' position
    /// restoration invariant).
    pub fn rollback(mut self) {
        self.unwind();
    }

    /// Unwinds the undo stack LIFO, re-syncing the warm evaluator after
    /// each undo through its scope: a relabel or id swap patches in O(1),
    /// a structural undo relinks the subtree its scope names.
    fn unwind(&mut self) {
        let doc = &mut *self.doc;
        while let Some(token) = self.undo_stack.pop() {
            // Invariant, not fallible IO: every token on the stack was
            // minted by applying an update to exactly this tree, and
            // LIFO replay restores the positions each token assumes.
            let scope = undo(&mut doc.tree, token).expect("undo token applies to its own tree");
            doc.ev.refresh_after(&doc.tree, &scope);
        }
        // The tree is back to the committed state: nothing is dirty.
        self.region.clear();
        self.open = false;
    }
}

impl Drop for Session<'_> {
    /// A dropped open session rolls back — a panicking or early-returning
    /// request handler can never leave a document mid-edit or its
    /// evaluator out of sync.
    fn drop(&mut self) {
        if self.open {
            self.unwind();
        }
    }
}
