//! Reference arms: the pre-delta admission and commit, kept as oracles.
//!
//! The gateway has one admission path ([`Session::commit`](crate::Session::commit)):
//! splice or sweep, judge off one [`SpliceJournal`](xuc_xpath::SpliceJournal),
//! fold the same journal into the certificate. This module keeps what
//! that path replaced, built only from public pieces, so the
//! differential suites and the experiments can check and time it:
//!
//! * [`admit`] — one full [`eval_set`](Evaluator::eval_set) pass and
//!   Definition 2.3 on whole sets;
//! * [`FullPass`] — the pre-delta commit on one owned evaluator per
//!   document: apply in place, [`admit`], certify the fresh sets from
//!   scratch ([`CertHeader::new`]) chained onto the previous digest, then
//!   release the undo tokens (accept) or undo them (reject).
//!
//! Production code (gateway, session, store, persist) calls neither.

use crate::cache::SuiteCache;
use crate::session::Rejection;
use crate::{DocId, RejectReason, Request, Verdict};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use xuc_automata::CompiledPatternSet;
use xuc_core::Constraint;
use xuc_sigstore::{CertHeader, Certificate, Signer};
use xuc_xpath::Evaluator;
use xuc_xtree::{DataTree, NodeRef};

/// The full-pass admission check: evaluates the whole suite in **one**
/// [`eval_set`](Evaluator::eval_set) pass over `compiled` and compares
/// each range against the committed baseline under Definition 2.3 (`⊆`
/// for ↓, `⊇` for ↑ — via
/// [`ConstraintKind::satisfied_on`](xuc_core::ConstraintKind::satisfied_on)).
///
/// Returns the fresh range results on success, or the first violation in
/// suite order.
pub fn admit(
    ev: &mut Evaluator,
    compiled: &CompiledPatternSet,
    suite: &[Constraint],
    base_sets: &[BTreeSet<NodeRef>],
) -> Result<Vec<BTreeSet<NodeRef>>, Rejection> {
    debug_assert_eq!(suite.len(), base_sets.len(), "one baseline per constraint");
    let now_sets = ev.eval_set(compiled);
    for ((c, base), now) in suite.iter().zip(base_sets).zip(&now_sets) {
        if !c.kind.satisfied_on(base, now) {
            let offenders = c.kind.offenders_on(base, now).len();
            return Err(Rejection { constraint: c.clone(), offenders });
        }
    }
    Ok(now_sets)
}

/// One document of a [`FullPass`] reference.
struct RefDoc {
    ev: Evaluator,
    suite: Vec<Constraint>,
    compiled: Arc<CompiledPatternSet>,
    base_sets: Vec<BTreeSet<NodeRef>>,
    header: CertHeader,
    commits: u64,
}

/// The pre-delta commit over a set of documents, one request at a time:
/// what a gateway answered before admission and certification followed
/// the edit. Its verdicts, trees, baselines and certificates are the ones
/// [`Gateway::submit`](crate::Gateway::submit) must reproduce.
pub struct FullPass {
    signer: Signer,
    cache: SuiteCache,
    docs: HashMap<DocId, RefDoc>,
}

impl FullPass {
    pub fn new(signer: Signer) -> FullPass {
        FullPass { signer, cache: SuiteCache::new(), docs: HashMap::new() }
    }

    /// Publishes `tree` under `suite`, as
    /// [`Gateway::publish`](crate::Gateway::publish) does: one `eval_set`
    /// pass for the baselines, then the chain-origin certificate.
    pub fn publish(&mut self, id: DocId, tree: DataTree, suite: Vec<Constraint>) {
        let compiled = self.cache.get_or_compile(&suite);
        let mut ev = Evaluator::from_tree(tree);
        let base_sets = ev.eval_set(&*compiled);
        let header = CertHeader::new(&self.signer, &suite, &base_sets, 0);
        self.docs.insert(id, RefDoc { ev, suite, compiled, base_sets, header, commits: 0 });
    }

    /// Admits or rejects one request: applies its updates in place,
    /// judges the whole suite with [`admit`], and on an accept installs
    /// the fresh sets and certifies them from scratch.
    pub fn submit(&mut self, request: &Request) -> Verdict {
        let Some(d) = self.docs.get_mut(&request.doc) else {
            return Verdict::Rejected(RejectReason::UnknownDocument);
        };
        let mut tokens = Vec::with_capacity(request.updates.len());
        let undo_all = |ev: &mut Evaluator, tokens: &mut Vec<_>| {
            while let Some(token) = tokens.pop() {
                ev.undo(token).expect("undo token applies to its own tree");
            }
        };
        for (index, update) in request.updates.iter().enumerate() {
            match d.ev.apply(update) {
                Ok((token, _)) => tokens.push(token),
                Err(e) => {
                    undo_all(&mut d.ev, &mut tokens);
                    let error = e.to_string();
                    return Verdict::Rejected(RejectReason::FailedUpdate { index, error });
                }
            }
        }
        match admit(&mut d.ev, &d.compiled, &d.suite, &d.base_sets) {
            Ok(now_sets) => {
                d.header = CertHeader::new(&self.signer, &d.suite, &now_sets, d.header.digest());
                d.base_sets = now_sets;
                for token in tokens {
                    d.ev.release(token);
                }
                d.commits += 1;
                Verdict::Accepted { commit: d.commits }
            }
            Err(r) => {
                undo_all(&mut d.ev, &mut tokens);
                Verdict::Rejected(RejectReason::Violation {
                    constraint: r.constraint.to_string(),
                    offenders: r.offenders,
                })
            }
        }
    }

    /// `id`'s committed tree.
    pub fn tree(&self, id: DocId) -> Option<&DataTree> {
        self.docs.get(&id).map(|d| d.ev.tree())
    }

    /// `id`'s committed baselines, one per constraint.
    pub fn baseline(&self, id: DocId) -> Option<&[BTreeSet<NodeRef>]> {
        self.docs.get(&id).map(|d| &d.base_sets[..])
    }

    /// `id`'s current certificate.
    pub fn certificate(&self, id: DocId) -> Option<Certificate> {
        self.docs.get(&id).map(|d| d.header.materialize(&d.base_sets))
    }
}
