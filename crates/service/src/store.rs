//! The sharded document store.
//!
//! Documents live behind two lock levels, in the pod-style shape of the
//! ROADMAP's serving scenario ("many independent documents behind one
//! admission front-end"):
//!
//! * the store is split into 16 shards, each a
//!   `parking_lot::RwLock` over its id → document map — publishes take
//!   one shard's write lock, lookups a read lock, and traffic against
//!   different documents only ever contends on the (brief) shard lock;
//! * each document sits behind its own `parking_lot::Mutex`, held for
//!   the duration of one [`Session`](crate::Session) — per-document
//!   serialization is exactly the atomicity a transactional update batch
//!   needs, and is what makes the gateway's accept/reject log a pure
//!   function of per-document request order (see
//!   [`Gateway::process`](crate::Gateway::process)).
//!
//! The **lock order discipline**: shard lock first, then document mutex;
//! shard locks are never held while a document mutex is held (lookups
//! clone the document's `Arc` and release the shard). No code path takes
//! two shard locks or two document locks at once, so deadlock is
//! impossible by construction.

use crate::cache::SuiteCache;
use crate::persist::RecoverError;
use crate::DocId;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use xuc_automata::CompiledPatternSet;
use xuc_core::Constraint;
use xuc_persist::DocSnapshot;
use xuc_sigstore::{CertHeader, Certificate, Signer};
use xuc_xpath::{Evaluator, Pattern};
use xuc_xtree::{DataTree, NodeRef};

/// Number of store shards. Sixteen is plenty for the shard lock to stop
/// mattering: it is only held for map lookups, never across evaluation.
/// The admission queues of [`crate::queue`] are per-shard too, so the
/// overload unit matches the contention unit.
pub(crate) const STORE_SHARDS: usize = 16;

/// One served document: the warm evaluator, which owns the document's
/// tree (the one arena every session edits), its constraint suite (with
/// the suite's compiled automaton shared through the [`SuiteCache`]), the
/// committed range results the next admission check compares against,
/// and the current certificate's header.
///
/// The range results are the **only** copy of each signed set: the
/// certificate is kept as a [`CertHeader`] (per-set sums and tags plus
/// the chain fields) and materialized over `base_sets` when handed out.
pub struct Document {
    id: DocId,
    pub(crate) ev: Evaluator,
    pub(crate) suite: Vec<Constraint>,
    pub(crate) compiled: Arc<CompiledPatternSet>,
    /// `suite[i].range`'s evaluation on the committed tree — the
    /// admission baseline, refreshed on every commit.
    pub(crate) base_sets: Vec<BTreeSet<NodeRef>>,
    /// The current certificate minus its sets, which are `base_sets`.
    pub(crate) header: CertHeader,
    pub(crate) commits: u64,
    /// Contained panics since publish (or the last lifted quarantine),
    /// for the gateway's quarantine policy.
    pub(crate) panics: u32,
}

impl Document {
    fn open(
        id: DocId,
        tree: DataTree,
        suite: Vec<Constraint>,
        compiled: Arc<CompiledPatternSet>,
        signer: &Signer,
    ) -> Document {
        let mut ev = Evaluator::from_tree(tree);
        let base_sets = ev.eval_set(&*compiled);
        let header = CertHeader::new(signer, &suite, &base_sets, 0);
        Document { id, ev, suite, compiled, base_sets, header, commits: 0, panics: 0 }
    }

    /// Reassembles a document from a snapshot (the recovery path). The
    /// snapshot's tree, baselines and commit counter are trusted as the
    /// committed state; the warm evaluator takes the tree over, the suite's
    /// automaton comes back through the cache (recovered documents under
    /// one policy still share one compile), and the certificate's sums
    /// are re-hashed from the baselines.
    ///
    /// A snapshot whose certificate does not match those baselines — other
    /// constraints than the suite, a signed set that differs from its
    /// baseline, or a tag or chain tag that the baselines do not
    /// reproduce — is refused as [`RecoverError::Diverged`]: serving it
    /// would hand out a certificate that fails `verify`.
    pub(crate) fn restore(
        snap: DocSnapshot,
        compiled: Arc<CompiledPatternSet>,
        signer: &Signer,
    ) -> Result<Document, RecoverError> {
        let DocSnapshot { doc, commits, tree, suite, base_sets, cert } = snap;
        if suite.len() != base_sets.len() {
            return Err(RecoverError::Diverged { doc, commit: commits });
        }
        let header = CertHeader::new(signer, &suite, &base_sets, cert.prev_digest);
        if !header.describes(&cert, &base_sets) {
            return Err(RecoverError::Diverged { doc, commit: commits });
        }
        let ev = Evaluator::from_tree(tree);
        let id = DocId::new(&doc);
        Ok(Document { id, ev, suite, compiled, base_sets, header, commits, panics: 0 })
    }

    pub fn id(&self) -> DocId {
        self.id
    }

    /// The committed tree (callers holding the document lock between
    /// sessions see the last committed state; mid-session, the working
    /// state).
    pub fn tree(&self) -> &DataTree {
        self.ev.tree()
    }

    pub fn suite(&self) -> &[Constraint] {
        &self.suite
    }

    /// The certificate of the last committed state, materialized from
    /// the header and the baselines (one clone of each signed set).
    pub fn certificate(&self) -> Certificate {
        self.header.materialize(&self.base_sets)
    }

    /// The certificate of the last committed state without its signed
    /// sets: what a commit re-chains in O(k).
    pub fn certificate_header(&self) -> &CertHeader {
        &self.header
    }

    /// The committed baseline: `suite()[i].range`'s evaluation on the last
    /// committed tree — what the next admission check compares (and, on
    /// the delta path, splices) against. Exposed so differential tests can
    /// assert the delta and full-pass admission arms maintain identical
    /// baselines.
    pub fn baseline(&self) -> &[BTreeSet<NodeRef>] {
        &self.base_sets
    }

    /// Number of committed update batches since publish.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Evaluates `q` on the document through its **warm** evaluator — no
    /// copy of the tree, and the rows re-derived only if a structural
    /// commit left them stale.
    pub fn eval(&mut self, q: &Pattern) -> BTreeSet<NodeRef> {
        self.ev.eval(q)
    }
}

/// Publishing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The id is already taken.
    Duplicate(DocId),
    /// The gateway is halted; nothing is accepted. (A merely `ReadOnly`
    /// gateway still publishes to memory — see
    /// [`Gateway::publish`](crate::Gateway::publish).)
    Halted,
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::Duplicate(id) => write!(f, "document {id} already published"),
            PublishError::Halted => write!(f, "gateway halted"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Hash of the id's *name* ([`xuc_xpath::Fingerprinter`]): shard choice
/// is content-stable, not tied to label interning order. Shared with the
/// admission queues so load planning sees the same shards as locking.
pub(crate) fn shard_of(id: DocId) -> usize {
    let mut fp = xuc_xpath::Fingerprinter::new();
    fp.write_str(id.as_str());
    (fp.finish() % STORE_SHARDS as u64) as usize
}

/// The sharded id → document map. See the module docs for the locking
/// discipline.
pub struct DocumentStore {
    shards: Vec<RwLock<HashMap<DocId, Arc<Mutex<Document>>>>>,
}

impl DocumentStore {
    pub fn new() -> DocumentStore {
        DocumentStore { shards: (0..STORE_SHARDS).map(|_| RwLock::default()).collect() }
    }

    /// Publishes a document: compiles (or cache-hits) its suite, hands
    /// the tree to the warm evaluator (no copy, no walk), evaluates the
    /// admission baseline in one set pass, certifies the initial state,
    /// and inserts it under `id`.
    pub fn publish(
        &self,
        id: DocId,
        tree: DataTree,
        suite: Vec<Constraint>,
        cache: &SuiteCache,
        signer: &Signer,
    ) -> Result<(), PublishError> {
        let doc = self.prepare(id, tree, suite, cache, signer)?;
        self.install(doc)
    }

    /// The document [`publish`](Self::publish) inserts, not yet inserted.
    /// A cheap duplicate pre-check runs before compiling, evaluating and
    /// signing; [`install`](Self::install)'s write-lock re-check closes
    /// the race.
    pub(crate) fn prepare(
        &self,
        id: DocId,
        tree: DataTree,
        suite: Vec<Constraint>,
        cache: &SuiteCache,
        signer: &Signer,
    ) -> Result<Document, PublishError> {
        if self.contains(id) {
            return Err(PublishError::Duplicate(id));
        }
        let compiled = cache.get_or_compile(&suite);
        Ok(Document::open(id, tree, suite, compiled, signer))
    }

    /// Is a document registered under `id`?
    pub(crate) fn contains(&self, id: DocId) -> bool {
        self.shards[shard_of(id)].read().contains_key(&id)
    }

    /// Inserts an already-assembled document (a prepared publish, or the
    /// recovery path), refusing an id already taken.
    pub(crate) fn install(&self, doc: Document) -> Result<(), PublishError> {
        let id = doc.id();
        let mut shard = self.shards[shard_of(id)].write();
        if shard.contains_key(&id) {
            return Err(PublishError::Duplicate(id));
        }
        shard.insert(id, Arc::new(Mutex::new(doc)));
        Ok(())
    }

    /// The document registered under `id`, if any. The returned `Arc`
    /// outlives the shard lock; lock the document's mutex to work with it
    /// (a [`Session`](crate::Session) is the intended way).
    pub fn document(&self, id: DocId) -> Option<Arc<Mutex<Document>>> {
        self.shards[shard_of(id)].read().get(&id).map(Arc::clone)
    }

    /// Number of documents held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All document ids, sorted by name (deterministic listing).
    pub fn doc_ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> =
            self.shards.iter().flat_map(|s| s.read().keys().copied().collect::<Vec<_>>()).collect();
        ids.sort_by_key(|i| i.as_str());
        ids
    }
}

impl Default for DocumentStore {
    fn default() -> Self {
        DocumentStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_xtree::parse_term;

    fn publish_one(store: &DocumentStore, cache: &SuiteCache, name: &str) -> DocId {
        let id = DocId::new(name);
        let tree = parse_term("h(patient#1(visit#2))").unwrap();
        let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
        store.publish(id, tree, suite, cache, &Signer::new(7)).unwrap();
        id
    }

    #[test]
    fn publish_and_lookup() {
        let store = DocumentStore::new();
        let cache = SuiteCache::new();
        let id = publish_one(&store, &cache, "a");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        let doc = store.document(id).expect("published");
        let mut d = doc.lock();
        assert_eq!(d.id(), id);
        assert_eq!(d.commits(), 0);
        assert_eq!(d.suite().len(), 1);
        // The initial certificate covers the published state.
        assert!(d.certificate().verify(7, d.tree()).is_ok());
        // The warm evaluator answers without a rebuild.
        let q = xuc_xpath::parse("/patient/visit").unwrap();
        assert_eq!(d.eval(&q).len(), 1);
        assert!(store.document(DocId::new("nope")).is_none());
    }

    #[test]
    fn duplicate_publish_rejected() {
        let store = DocumentStore::new();
        let cache = SuiteCache::new();
        let id = publish_one(&store, &cache, "a");
        let tree = parse_term("r(x#1)").unwrap();
        let err = store.publish(id, tree, Vec::new(), &cache, &Signer::new(7)).unwrap_err();
        assert_eq!(err, PublishError::Duplicate(id));
        assert_eq!(err.to_string(), "document a already published");
    }

    #[test]
    fn listing_is_sorted_and_suites_shared() {
        let store = DocumentStore::new();
        let cache = SuiteCache::new();
        for name in ["zeta", "alpha", "mid"] {
            publish_one(&store, &cache, name);
        }
        let names: Vec<&str> = store.doc_ids().iter().map(|i| i.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        // Three documents under one policy: one compile, two hits.
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
    }
}
