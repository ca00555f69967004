//! Transactional update sessions over one document.
//!
//! A [`Session`] wraps one exclusive borrow of a [`Document`] (the caller
//! holds the document's mutex) in `begin / apply / commit / rollback`
//! semantics:
//!
//! * [`Session::apply`] edits the document's tree through its warm
//!   evaluator, which owns it ([`Evaluator::apply`], wrapping
//!   [`xuc_xtree::apply_undoable`]), and pushes the undo token. The
//!   evaluator follows the edit itself — two label-row bits for a
//!   relabel, a stale mark for a structural edit — so it answers for the
//!   working tree at any point of the session;
//! * [`Session::commit`] runs the admission check **edit-proportionally**
//!   ([`admit_delta_in_place`]): every applied scope is folded into a
//!   [`DirtyRegion`], and
//!   [`eval_set_splice`](xuc_xpath::Evaluator::eval_set_splice) re-drives
//!   the suite's compiled automaton only below the batch's dirty subtrees
//!   — the subtrees whose root path changed, at any depth — patching the
//!   committed baseline in place and recording every entry it adds or
//!   removes in a [`SpliceJournal`]. Predicate suites make the splice
//!   decline; one full `eval_set` sweep then stands in for it, and its
//!   fresh sets are diffed against the baselines into the same kind of
//!   journal ([`SpliceJournal::install`]). So every commit has one judge —
//!   Definition 2.3 off the journal's net changes, in suite order — and
//!   one certificate fold: each journal event (an entry added to or
//!   removed from a signed set) is folded into that set's additive hash
//!   ([`SetSum`](xuc_sigstore::SetSum)), and the O(k) certificate header
//!   is re-chained onto the outgoing certificate's digest
//!   ([`CertHeader::rechain`](xuc_sigstore::CertHeader::rechain)) — no
//!   set is copied, serialized or re-hashed whole. The pre-delta commit
//!   (full pass, whole-set verdict, certificate from scratch) lives on in
//!   [`crate::reference`](mod@crate::reference), which `tests/differential.rs` pins the session
//!   against. An accepted batch then releases ([`Evaluator::release`])
//!   its undo tokens: the slots its deletions parked go back on the
//!   arena's free list, so a document's arena stays bounded by its peak
//!   live size however many deletions it commits. Rejected batches
//!   unwind;
//! * [`Session::rollback`] (and `Drop`, for abandoned sessions) unwinds
//!   the undo stack in LIFO order. Undo is an *exact* inverse (each node
//!   relinked after its former previous sibling), so the tree returns
//!   byte-identical to the committed state. Each undo goes through the
//!   evaluator as `apply` does ([`Evaluator::undo`]), so a rejected batch
//!   never re-reads the document.

use crate::store::Document;
use std::collections::BTreeSet;
use xuc_automata::CompiledPatternSet;
use xuc_core::{Constraint, ConstraintKind};
use xuc_sigstore::Signer;
use xuc_telemetry::{Stage, Telemetry};
use xuc_xpath::{Evaluator, SpliceJournal};
use xuc_xtree::{DirtyRegion, NodeRef, Undo, Update, UpdateError};

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

/// Closes the `stage` span opened at `opened` and returns the closing
/// reading, which opens the adjacent next span.
pub(crate) fn close_span(
    tel: Option<&Telemetry>,
    stage: Stage,
    tag: u16,
    opened: Option<u64>,
) -> Option<u64> {
    tel.map(|t| {
        let now = t.now_micros();
        t.record_span(stage, tag, now.saturating_sub(opened.unwrap_or(now)));
        now
    })
}

/// The commit's admission check, edit-proportional wherever the suite
/// allows it. The committed baselines are spliced in place
/// ([`eval_set_splice`](Evaluator::eval_set_splice)): targeted
/// removals, patches and inserts proportional to the batch's dirty
/// region, never a clone or re-sweep of the whole document. When the
/// splice declines (predicate fallbacks, a stale region, or a dirty
/// region so large the clean sweep is cheaper), one full
/// [`eval_set`](Evaluator::eval_set) sweep stands in for it, and each
/// fresh set is installed through
/// [`SpliceJournal::install`], which journals its difference from the
/// baseline. Either way Definition 2.3 is judged off the journal's net
/// changes (`base \ now` per ↑ range, `now \ base` per ↓), in suite
/// order, stopping at the first violation; a sweep's sets are installed
/// one at a time as they are judged, so none after the violated one is
/// touched.
///
/// On success `base_sets` **are** the fresh range results (certify from
/// them) and the journal holds every entry added or removed; on
/// rejection the journal has been reverted and `base_sets` are equal to
/// the committed baselines. Verdicts, resulting baselines and rejection
/// offenders are identical to [`reference::admit`](crate::reference::admit)'s
/// on every input — pinned by the differential harness in
/// `tests/differential.rs`.
pub fn admit_delta_in_place(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &mut [BTreeSet<NodeRef>],
    region: &DirtyRegion,
) -> Result<SpliceJournal, Rejection> {
    admit_delta_in_place_traced(ev, compiled, suite, base_sets, region, None, 0).0
}

/// [`admit_delta_in_place`] with optional stage tracing: the splice, or
/// the splice attempt and the sweep standing in for it, is one
/// [`Stage::Splice`] span — what the evaluation stage cost, not how it
/// got there. The judgement runs in an open [`Stage::Verdict`] span whose
/// start is returned beside the verdict: the caller closes it on the
/// reading that opens the next stage. Telemetry is observationally inert:
/// verdicts, baselines and journals are those of the untraced form on
/// every input.
fn admit_delta_in_place_traced(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &mut [BTreeSet<NodeRef>],
    region: &DirtyRegion,
    tel: Option<&Telemetry>,
    tag: u16,
) -> (Result<SpliceJournal, Rejection>, Option<u64>) {
    debug_assert_eq!(suite.len(), base_sets.len(), "one baseline per constraint");
    let t0 = tel.map(Telemetry::now_micros);
    let (mut journal, swept) = match ev.eval_set_splice(compiled, region, base_sets) {
        Some(journal) => (journal, Vec::new()),
        None => (SpliceJournal::new(suite.len()), ev.eval_set(compiled)),
    };
    // Splice closes and Verdict opens on one shared clock reading — the
    // read, not the atomics, is the tracer's hot-path cost.
    let verdict_open = close_span(tel, Stage::Splice, tag, t0);
    let mut swept = swept.into_iter();
    for (i, c) in suite.iter().enumerate() {
        if let Some(fresh) = swept.next() {
            journal.install(i, &mut base_sets[i], fresh);
        }
        let (net_removed, net_added) = journal.net_changes(i);
        let offenders = match c.kind {
            ConstraintKind::NoRemove => net_removed.len(),
            ConstraintKind::NoInsert => net_added.len(),
        };
        if offenders > 0 {
            journal.revert(base_sets);
            return (Err(Rejection { constraint: c.clone(), offenders }), verdict_open);
        }
    }
    (Ok(journal), verdict_open)
}

/// An open transaction on one document. See the module docs.
pub struct Session<'a> {
    doc: &'a mut Document,
    undo_stack: Vec<Undo>,
    /// Union of the batch's edit scopes — what [`admit_delta_in_place`]
    /// splices against at commit time. Reset (with the undo stack) on
    /// rollback.
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

    /// Applies one update to the working tree through the evaluator, in
    /// time proportional to the edit. On error the tree is untouched
    /// (the primitive either applies fully or not at all) and the session
    /// stays usable — the caller decides whether to continue or roll
    /// back.
    pub fn apply(&mut self, update: &Update) -> Result<(), UpdateError> {
        let (tel, tag) = (self.tel, self.tag);
        let doc = &mut *self.doc;
        // Stage::Apply covers the footprint probe and the edit —
        // everything proportional to the edit;
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
            Update::DeleteSubtree { node } => doc.tree().subtree_nodes(*node).ok(),
            Update::DeleteNode { node } => doc.tree().node(*node).ok().map(|r| vec![r]),
            _ => None,
        };
        let (token, scope) = doc.ev.apply(update)?;
        let boundary = tel.map(|t| {
            let t1 = t.now_micros();
            t.record_span(Stage::Apply, tag, t1.saturating_sub(t0.unwrap_or(t1)));
            t1
        });
        if let Some(refs) = doomed {
            self.region.record_removals(&refs);
        }
        self.region.record(doc.tree(), &scope);
        if let (Some(t), Some(t1)) = (tel, boundary) {
            t.record_stage(Stage::DirtyAccumulate, tag, t1);
        }
        self.undo_stack.push(token);
        Ok(())
    }

    /// Commits the batch: admission check, then re-certification.
    ///
    /// * Accepted: the working tree becomes the committed state, the
    ///   admission pass's range results become the new baseline **and**
    ///   the signed sets (no re-evaluation, no copy), the journal's
    ///   events are folded into the certificate header, which is
    ///   re-chained, and the commit counter advances. The undo tokens are
    ///   released, freeing the slots the batch's deletions parked.
    ///   [`Stage::Certify`] spans the whole re-certification — the fold,
    ///   the outgoing digest and the re-chain — and the release,
    ///   O(deleted nodes).
    /// * Rejected: the batch is unwound exactly ([`Session::rollback`])
    ///   before the [`Rejection`] is returned — the document is
    ///   byte-identical to its committed state.
    pub fn commit(mut self, signer: &Signer) -> Result<Commit, Rejection> {
        let (tel, tag) = (self.tel, self.tag);
        let doc = &mut *self.doc;
        // On success doc.base_sets already ARE the admission pass's fresh
        // range results; on rejection they have been reverted to the
        // committed baselines.
        let (admitted, verdict_open) = admit_delta_in_place_traced(
            &mut doc.ev,
            &doc.compiled,
            &doc.suite,
            &mut doc.base_sets,
            &self.region,
            tel,
            tag,
        );
        // Verdict closes, and on an accept Certify opens, on one reading.
        let certify_open = close_span(tel, Stage::Verdict, tag, verdict_open);
        match admitted {
            Ok(journal) => {
                let doc = &mut *self.doc;
                // Bring each set's sum up to the new baseline by folding
                // the journal's events: one element hashed per event.
                for (i, entry) in doc.header.entries.iter_mut().enumerate() {
                    for (r, added) in journal.events(i) {
                        if *added {
                            entry.sum.add(signer, r);
                        } else {
                            entry.sum.remove(signer, r);
                        }
                    }
                }
                // Chain onto the outgoing certificate: its digest becomes
                // the new `prev_digest`, making the document's certificate
                // history a hash-linked chain auditable from the journal
                // alone (see `xuc-persist`).
                doc.header.rechain(signer);
                for token in self.undo_stack.drain(..) {
                    doc.ev.release(token);
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

    /// Abandons the batch: unwinds every applied update in LIFO order
    /// through the evaluator. The document is left byte-identical to its
    /// committed state (exact child order — the undo tokens' position
    /// restoration invariant).
    pub fn rollback(mut self) {
        self.unwind();
    }

    /// Unwinds the undo stack LIFO through the warm evaluator: a relabel
    /// patches two row bits, a structural undo marks the rows stale.
    fn unwind(&mut self) {
        let doc = &mut *self.doc;
        while let Some(token) = self.undo_stack.pop() {
            // Invariant, not fallible IO: every token on the stack was
            // minted by applying an update to exactly this tree, and
            // LIFO replay restores the positions each token assumes.
            doc.ev.undo(token).expect("undo token applies to its own tree");
        }
        // The tree is back to the committed state: nothing is dirty.
        self.region.clear();
        self.open = false;
    }
}

impl Drop for Session<'_> {
    /// A dropped open session rolls back — a panicking or early-returning
    /// request handler can never leave a document mid-edit.
    fn drop(&mut self) {
        if self.open {
            self.unwind();
        }
    }
}
