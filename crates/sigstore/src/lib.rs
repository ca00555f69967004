//! Simulated cryptographic enforcement of update constraints (Section 1,
//! Figure 1).
//!
//! The paper motivates update constraints by exchange scenarios where a
//! *Source* publishes a document, a *Broker* edits it within agreed limits,
//! and a *User* must check validity **without seeing the original**. The
//! paper points to signature schemes for modifiable collections
//! ([1, 8, 21, 22]) as the enforcement mechanism; this crate simulates
//! that layer with the same *functional* contract:
//!
//! * [`Signer::certify`] — the Source evaluates every constraint range on
//!   its instance `I` and signs the selected `(id, label)` sets,
//! * [`Certificate::verify`] — the User re-evaluates the ranges on the
//!   received instance `J` and checks the signed inclusions
//!   (`⊇` for ↑ ranges, `⊆` for ↓), after authenticating each signed set.
//!
//! `verify(J, cert) == Ok` holds exactly when `(I, J)` is valid for the
//! certified constraints — the certificate is a faithful stand-in for `I`.
//!
//! **Incremental tags.** A signed set's tag is a keyed *additive multiset
//! hash* (Bellare–Micciancio's AdHash; Clarke et al.'s incremental
//! multiset hashes): the wrapping sum of a keyed per-element hash, plus
//! the set's size, finalized under the key ([`SetSum`]). Adding or
//! removing one element updates the sum in O(1), so a Source that keeps a
//! [`CertHeader`] — per-set sums and tags plus the chain fields — beside
//! its sets re-certifies an edited document in time proportional to the
//! edit ([`CertHeader::rechain`]), and builds the full [`Certificate`]
//! only when one is handed out ([`CertHeader::materialize`]).
//! [`Signer::certify_chained`] and [`Certificate::verify`] recompute every
//! sum from scratch through the same tag and digest functions, so they are
//! the oracle the incremental path is tested against.
//!
//! **This is a simulation**: the MAC and the element hash are keyed
//! FNV-style mixes, not cryptographic primitives. The reasoning machinery
//! of `xuc-core` never depends on the hash strength; it only consumes the
//! validity verdicts.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use xuc_core::{Constraint, ConstraintKind};
use xuc_xpath::Evaluator;
use xuc_xtree::{DataTree, Label, NodeRef};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Process-wide count of set elements hashed by [`SetSum`] — every
/// `add`/`remove` counts one, every from-scratch [`SetSum::of`] counts the
/// set's size. Only deltas are meaningful.
static ELEMENTS_HASHED: AtomicU64 = AtomicU64::new(0);

/// The number of set elements hashed so far, across all threads. Tests
/// diff two readings to show that a commit hashes what its edit touched,
/// not what the document holds (an operation count, not a timing).
pub fn elements_hashed_count() -> u64 {
    ELEMENTS_HASHED.load(Ordering::Relaxed)
}

fn fnv(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 64-bit FNV-1a style keyed digest (simulation of a MAC).
fn mac(key: u64, data: &[u8]) -> u64 {
    let h = fnv(FNV_OFFSET ^ key, data);
    // One extra mixing round keyed again, so extension attacks on the toy
    // hash are at least inconvenient.
    (h ^ key.rotate_left(17)).wrapping_mul(FNV_PRIME)
}

/// The keyed per-element hash summed by [`SetSum`]: the node id mixed
/// with an FNV of the label's bytes (`label_fnv`, computed by the caller
/// so runs of one label hash its bytes once). Allocation-free. Like
/// [`mac`], the one place to swap in a real primitive.
fn element_hash(key: u64, id: u64, label_fnv: u64) -> u64 {
    // SplitMix64's finalizer: every input bit reaches every output bit,
    // so summing element hashes does not cancel structure in the ids.
    let mut z =
        (label_fnv ^ key.rotate_left(29)).wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn label_fnv(label: Label) -> u64 {
    fnv(FNV_OFFSET, label.as_str().as_bytes())
}

/// The additive multiset hash of one signed set: the wrapping (mod 2⁶⁴)
/// sum of keyed per-element hashes (the id mixed with an FNV of the
/// label) and the element count. Order-independent, and updated in O(1)
/// per inserted or removed element, so an entry that is removed and
/// re-inserted cancels on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetSum {
    sum: u64,
    len: u64,
}

impl SetSum {
    /// The sum of `set`, hashed from scratch.
    pub fn of(signer: &Signer, set: &BTreeSet<NodeRef>) -> SetSum {
        let mut out = SetSum { sum: 0, len: set.len() as u64 };
        let mut last: Option<(Label, u64)> = None;
        for r in set {
            let lf = match last {
                Some((l, h)) if l == r.label => h,
                _ => {
                    let h = label_fnv(r.label);
                    last = Some((r.label, h));
                    h
                }
            };
            out.sum = out.sum.wrapping_add(element_hash(signer.key, r.id.raw(), lf));
        }
        ELEMENTS_HASHED.fetch_add(out.len, Ordering::Relaxed);
        out
    }

    /// Folds in one element added to the set.
    pub fn add(&mut self, signer: &Signer, r: &NodeRef) {
        self.sum = self.sum.wrapping_add(signer.element(r));
        self.len = self.len.wrapping_add(1);
    }

    /// Folds out one element removed from the set.
    pub fn remove(&mut self, signer: &Signer, r: &NodeRef) {
        self.sum = self.sum.wrapping_sub(signer.element(r));
        self.len = self.len.wrapping_sub(1);
    }

    /// The set's tag: `mac(key, sum ‖ len)`.
    pub fn tag(&self, signer: &Signer) -> u64 {
        let mut data = [0u8; 16];
        data[..8].copy_from_slice(&self.sum.to_le_bytes());
        data[8..].copy_from_slice(&self.len.to_le_bytes());
        mac(signer.key, &data)
    }
}

/// One certified range: the constraint, the signed node set and its MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertEntry {
    pub constraint: Constraint,
    pub snapshot: BTreeSet<NodeRef>,
    pub tag: u64,
}

/// A certificate over a document: what the Source vouches for. Successive
/// certificates of one document are **hash-linked**: each carries the
/// [`digest`](Certificate::digest) of its predecessor, and a keyed
/// [`chain_tag`](Certificate::chain_tag) binds that link into the signed
/// payload — so a full update history can be audited offline
/// ([`verify_chained`](Certificate::verify_chained)), and no certificate
/// can be spliced out of or re-ordered within its chain without breaking
/// a MAC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Certificate {
    pub entries: Vec<CertEntry>,
    /// [`digest`](Certificate::digest) of this document's previous
    /// certificate; `0` marks the origin of a chain (the publish-time
    /// certificate).
    pub prev_digest: u64,
    /// MAC over `prev_digest` and every entry's constraint and tag — the
    /// hash-link, signed so the chain structure itself is tamper-evident.
    pub chain_tag: u64,
}

/// One entry of a [`CertHeader`]: a [`CertEntry`] with the signed set
/// replaced by its running [`SetSum`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderEntry {
    pub constraint: Constraint,
    pub sum: SetSum,
    /// The tag last sealed from `sum` (what the certificate carries).
    pub tag: u64,
}

/// A [`Certificate`] without its signed sets: per-entry sums and tags plus
/// the chain fields — O(k) for k constraints, whatever the document's
/// size. The holder keeps the sets themselves (one copy of each) and
/// [`materialize`](Self::materialize)s the certificate over them on
/// demand.
///
/// The lifecycle of one accepted edit: fold each added or removed set
/// element into the matching entry's [`sum`](HeaderEntry::sum), then
/// [`rechain`](Self::rechain) — digest the outgoing certificate, seal the
/// new tags and link them to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertHeader {
    pub entries: Vec<HeaderEntry>,
    pub prev_digest: u64,
    pub chain_tag: u64,
}

impl CertHeader {
    /// Signs `sets` (one per constraint, hashed from scratch) as the
    /// successor of the certificate digesting to `prev_digest`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn new(
        signer: &Signer,
        constraints: &[Constraint],
        sets: &[BTreeSet<NodeRef>],
        prev_digest: u64,
    ) -> CertHeader {
        assert_eq!(constraints.len(), sets.len(), "one set per constraint");
        let entries = constraints
            .iter()
            .zip(sets)
            .map(|(c, set)| HeaderEntry {
                constraint: c.clone(),
                sum: SetSum::of(signer, set),
                tag: 0,
            })
            .collect();
        let mut header = CertHeader { entries, prev_digest: 0, chain_tag: 0 };
        header.seal(signer, prev_digest);
        header
    }

    /// Turns the header into its successor: the current certificate's
    /// [`digest`](Self::digest) becomes `prev_digest`, every tag is sealed
    /// from its (already updated) sum, and the chain tag is re-signed.
    /// O(k): no set is read.
    pub fn rechain(&mut self, signer: &Signer) {
        let prev = self.digest();
        self.seal(signer, prev);
    }

    fn seal(&mut self, signer: &Signer, prev_digest: u64) {
        for e in &mut self.entries {
            e.tag = e.sum.tag(signer);
        }
        self.prev_digest = prev_digest;
        self.chain_tag = chain_tag(signer.key, prev_digest, self.tagged());
    }

    fn tagged(&self) -> impl Iterator<Item = (&Constraint, u64)> {
        self.entries.iter().map(|e| (&e.constraint, e.tag))
    }

    /// The [`Certificate::digest`] of the certificate this header
    /// describes, in O(k).
    pub fn digest(&self) -> u64 {
        digest(self.prev_digest, self.chain_tag, self.tagged())
    }

    /// The full certificate over `sets` (which must be the sets the sums
    /// describe): one clone of each set.
    pub fn materialize(&self, sets: &[BTreeSet<NodeRef>]) -> Certificate {
        debug_assert_eq!(self.entries.len(), sets.len(), "one set per constraint");
        let entries = self
            .entries
            .iter()
            .zip(sets)
            .map(|(e, set)| CertEntry {
                constraint: e.constraint.clone(),
                snapshot: set.clone(),
                tag: e.tag,
            })
            .collect();
        Certificate { entries, prev_digest: self.prev_digest, chain_tag: self.chain_tag }
    }

    /// Is `cert` exactly [`materialize(sets)`](Self::materialize)? Field
    /// for field, without building it.
    pub fn describes(&self, cert: &Certificate, sets: &[BTreeSet<NodeRef>]) -> bool {
        self.prev_digest == cert.prev_digest
            && self.chain_tag == cert.chain_tag
            && self.entries.len() == cert.entries.len()
            && sets.len() == cert.entries.len()
            && self.entries.iter().zip(&cert.entries).zip(sets).all(|((h, c), set)| {
                h.constraint == c.constraint && h.tag == c.tag && *set == c.snapshot
            })
    }
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A signed set's MAC does not check out (tampered certificate).
    BadSignature { index: usize },
    /// The certificate's chain link MAC does not check out (the link to
    /// the predecessor was tampered with).
    BadChainTag,
    /// The certificate's predecessor link names a different certificate
    /// than expected (chain re-ordered, spliced, or forked).
    ChainBroken { expected: u64, found: u64 },
    /// The document violates a certified constraint.
    Violated { constraint: String, offenders: usize },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature { index } => {
                write!(f, "certificate entry {index} failed authentication")
            }
            VerifyError::BadChainTag => write!(f, "certificate chain link failed authentication"),
            VerifyError::ChainBroken { expected, found } => {
                write!(
                    f,
                    "certificate chain broken: expected predecessor {expected:#018x}, \
                     found {found:#018x}"
                )
            }
            VerifyError::Violated { constraint, offenders } => {
                write!(f, "document violates {constraint} ({offenders} offending nodes)")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The Source's signing identity (shared-key simulation).
#[derive(Debug, Clone, Copy)]
pub struct Signer {
    key: u64,
}

impl Signer {
    pub fn new(key: u64) -> Signer {
        Signer { key }
    }

    /// One element's keyed hash, counted in [`elements_hashed_count`].
    fn element(&self, r: &NodeRef) -> u64 {
        ELEMENTS_HASHED.fetch_add(1, Ordering::Relaxed);
        element_hash(self.key, r.id.raw(), label_fnv(r.label))
    }

    /// Certifies `document` under `constraints`: evaluates each range
    /// (against one shared snapshot of the document) and signs the
    /// selected set.
    pub fn certify(&self, document: &DataTree, constraints: &[Constraint]) -> Certificate {
        let mut ev = Evaluator::new(document);
        let snapshots: Vec<BTreeSet<NodeRef>> =
            constraints.iter().map(|c| ev.eval(&c.range)).collect();
        self.certify_precomputed(constraints, &snapshots)
    }

    /// [`certify`](Self::certify) over range results the caller already
    /// holds: `snapshots[i]` must be `constraints[i].range`'s evaluation
    /// on the document being certified. The result is a chain **origin**
    /// (`prev_digest = 0`); later certificates use
    /// [`certify_chained`](Self::certify_chained) to link onto the
    /// document's previous certificate.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn certify_precomputed(
        &self,
        constraints: &[Constraint],
        snapshots: &[BTreeSet<NodeRef>],
    ) -> Certificate {
        self.certify_chained(constraints, snapshots, 0)
    }

    /// [`certify_precomputed`](Self::certify_precomputed) linked onto a
    /// predecessor: `prev_digest` must be the previous certificate's
    /// [`digest`](Certificate::digest) (`0` for the first certificate of
    /// a document). The link is folded into the signed payload via the
    /// keyed [`chain_tag`](Certificate::chain_tag), so an auditor holding
    /// the chain can prove each certificate is the authentic successor of
    /// the one before it. Hashes every set from scratch: the reference a
    /// [`CertHeader`] maintained edit by edit must agree with.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn certify_chained(
        &self,
        constraints: &[Constraint],
        snapshots: &[BTreeSet<NodeRef>],
        prev_digest: u64,
    ) -> Certificate {
        CertHeader::new(self, constraints, snapshots, prev_digest).materialize(snapshots)
    }

    /// The keyed tag a document snapshot carries over what its chain tag
    /// does not cover: the document's name and commit counter, bound to
    /// the chain anchor (`prev_digest`, `chain_tag`) they belong with. A
    /// snapshot renamed, or with its counter moved, fails this tag.
    pub fn snapshot_tag(&self, doc: &str, commits: u64, prev_digest: u64, chain_tag: u64) -> u64 {
        let mut data = Vec::with_capacity(8 + 8 + doc.len() + 24);
        // Domain-separated from the chain tag's payload.
        data.extend_from_slice(b"snapshot");
        data.extend_from_slice(&(doc.len() as u64).to_le_bytes());
        data.extend_from_slice(doc.as_bytes());
        for field in [commits, prev_digest, chain_tag] {
            data.extend_from_slice(&field.to_le_bytes());
        }
        mac(self.key, &data)
    }
}

/// The chain MAC: over the predecessor link plus every entry's constraint
/// text and tag (the tags already authenticate the signed sets, so
/// covering them covers the whole certificate content).
fn chain_tag<'a>(
    key: u64,
    prev_digest: u64,
    entries: impl Iterator<Item = (&'a Constraint, u64)>,
) -> u64 {
    let mut out = Vec::with_capacity(8 + 64);
    out.extend_from_slice(&prev_digest.to_le_bytes());
    for (c, tag) in entries {
        let c = c.to_string();
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(c.as_bytes());
        out.extend_from_slice(&tag.to_le_bytes());
    }
    mac(key, &out)
}

/// The unkeyed certificate digest: the chain fields, then each entry's
/// constraint text and tag.
fn digest<'a>(
    prev_digest: u64,
    chain_tag: u64,
    entries: impl Iterator<Item = (&'a Constraint, u64)>,
) -> u64 {
    let mut h = fnv(FNV_OFFSET, &prev_digest.to_le_bytes());
    h = fnv(h, &chain_tag.to_le_bytes());
    for (c, tag) in entries {
        let c = c.to_string();
        h = fnv(h, &(c.len() as u64).to_le_bytes());
        h = fnv(h, c.as_bytes());
        h = fnv(h, &tag.to_le_bytes());
    }
    h
}

impl Certificate {
    fn tagged(&self) -> impl Iterator<Item = (&Constraint, u64)> {
        self.entries.iter().map(|e| (&e.constraint, e.tag))
    }

    /// An **unkeyed** content digest of this certificate — what the
    /// successor certificate stores as its `prev_digest`. Covers the
    /// predecessor link, the chain tag, every constraint and every tag,
    /// but not the signed sets themselves: each tag is a keyed hash of
    /// its set, so a set cannot change without its tag changing (or
    /// failing [`verify`](Self::verify)). That keeps the digest O(k) —
    /// [`CertHeader::digest`] computes the same value without the sets.
    pub fn digest(&self) -> u64 {
        digest(self.prev_digest, self.chain_tag, self.tagged())
    }

    /// The User-side check: authenticate every entry and the chain link,
    /// then compare the signed snapshot against the received document's
    /// evaluation (one shared snapshot of the received document for all
    /// entries).
    pub fn verify(&self, key: u64, received: &DataTree) -> Result<(), VerifyError> {
        if chain_tag(key, self.prev_digest, self.tagged()) != self.chain_tag {
            return Err(VerifyError::BadChainTag);
        }
        let signer = Signer::new(key);
        let mut ev = Evaluator::new(received);
        for (index, e) in self.entries.iter().enumerate() {
            if SetSum::of(&signer, &e.snapshot).tag(&signer) != e.tag {
                return Err(VerifyError::BadSignature { index });
            }
            let now = ev.eval(&e.constraint.range);
            let offenders = match e.constraint.kind {
                // no-remove: everything signed must still be selected.
                ConstraintKind::NoRemove => e.snapshot.difference(&now).count(),
                // no-insert: nothing beyond the signed set may be selected.
                ConstraintKind::NoInsert => now.difference(&e.snapshot).count(),
            };
            if offenders > 0 {
                return Err(VerifyError::Violated {
                    constraint: e.constraint.to_string(),
                    offenders,
                });
            }
        }
        Ok(())
    }

    /// [`verify`](Self::verify) plus the chain-position check: the
    /// certificate must name `expected_prev` as its predecessor. Walking
    /// a document's certificates oldest-first and threading each
    /// [`digest`](Self::digest) into the next call proves the whole
    /// history is one unbroken, authentic chain.
    pub fn verify_chained(
        &self,
        key: u64,
        received: &DataTree,
        expected_prev: u64,
    ) -> Result<(), VerifyError> {
        if self.prev_digest != expected_prev {
            return Err(VerifyError::ChainBroken {
                expected: expected_prev,
                found: self.prev_digest,
            });
        }
        self.verify(key, received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_xtree::parse_term;

    fn c(s: &str) -> Constraint {
        parse_constraint(s).unwrap()
    }

    #[test]
    fn verify_equals_pair_validity() {
        let i = parse_term("h(patient#2(visit#6,visit#7),patient#3(clinicalTrial#8))").unwrap();
        let constraints = vec![
            c("(/patient[/visit], ↓)"),
            c("(/patient[/clinicalTrial], ↓)"),
            c("(/patient[/clinicalTrial], ↑)"),
            c("(/patient/visit, ↑)"),
        ];
        let signer = Signer::new(0xfeed);
        let cert = signer.certify(&i, &constraints);

        // The Fig. 2 J violates c3 (visit n7 removed).
        let j = parse_term("h(patient#2(visit#6),patient#3(clinicalTrial#8),patient#4)").unwrap();
        let err = cert.verify(0xfeed, &j).unwrap_err();
        assert!(matches!(err, VerifyError::Violated { .. }));
        assert_eq!(
            xuc_core::constraint::all_satisfied(&constraints, &i, &j),
            cert.verify(0xfeed, &j).is_ok()
        );

        // A compliant edit (add a visit) verifies.
        let mut j_ok = i.clone();
        j_ok.add(xuc_xtree::NodeId::from_raw(2), "visit").unwrap();
        assert!(cert.verify(0xfeed, &j_ok).is_ok());
        assert!(xuc_core::constraint::all_satisfied(&constraints, &i, &j_ok));
    }

    #[test]
    fn identity_always_verifies() {
        let i = parse_term("r(a#1(b#2),c#3)").unwrap();
        let constraints = vec![c("(//a, ↑)"), c("(//b, ↓)"), c("(/c, ↑)"), c("(/c, ↓)")];
        let cert = Signer::new(7).certify(&i, &constraints);
        assert!(cert.verify(7, &i).is_ok());
    }

    #[test]
    fn tampered_certificate_rejected() {
        let i = parse_term("r(a#1)").unwrap();
        let constraints = vec![c("(//a, ↓)")];
        let mut cert = Signer::new(42).certify(&i, &constraints);
        // Broker sneaks an extra node into the signed ↓ snapshot so its own
        // insertion would pass: authentication must catch it.
        let forged = xuc_xtree::NodeRef {
            id: xuc_xtree::NodeId::from_raw(99),
            label: xuc_xtree::Label::new("a"),
        };
        cert.entries[0].snapshot.insert(forged);
        let mut j = i.clone();
        j.add_with_id(j.root_id(), xuc_xtree::NodeId::from_raw(99), "a").unwrap();
        assert_eq!(cert.verify(42, &j), Err(VerifyError::BadSignature { index: 0 }));
    }

    #[test]
    fn precomputed_certification_matches_evaluated() {
        // certify_precomputed over the document's own range results must
        // produce a certificate indistinguishable from certify's.
        let i = parse_term("r(a#1(b#2),c#3(b#4))").unwrap();
        let constraints = vec![c("(//b, ↑)"), c("(/a, ↓)"), c("(/c[/b], ↑)")];
        let signer = Signer::new(0xd1d);
        let via_eval = signer.certify(&i, &constraints);
        let mut ev = Evaluator::new(&i);
        let sets: Vec<_> = constraints.iter().map(|x| ev.eval(&x.range)).collect();
        let via_sets = signer.certify_precomputed(&constraints, &sets);
        for (a, b) in via_eval.entries.iter().zip(&via_sets.entries) {
            assert_eq!(a.snapshot, b.snapshot);
            assert_eq!(a.tag, b.tag);
        }
        assert!(via_sets.verify(0xd1d, &i).is_ok());
    }

    #[test]
    fn chained_certificates_link_and_audit() {
        let key = 0xC4A1;
        let signer = Signer::new(key);
        let i0 = parse_term("h(patient#2(visit#6))").unwrap();
        let constraints = vec![c("(/patient/visit, ↑)"), c("(/patient, ↓)")];
        let cert0 = signer.certify(&i0, &constraints);
        assert_eq!(cert0.prev_digest, 0, "certify produces a chain origin");
        assert!(cert0.verify_chained(key, &i0, 0).is_ok());

        // The document evolves; the new certificate links onto the old.
        let mut i1 = i0.clone();
        i1.add(xuc_xtree::NodeId::from_raw(2), "visit").unwrap();
        let mut ev = Evaluator::new(&i1);
        let sets: Vec<_> = constraints.iter().map(|x| ev.eval(&x.range)).collect();
        let cert1 = signer.certify_chained(&constraints, &sets, cert0.digest());
        assert!(cert1.verify_chained(key, &i1, cert0.digest()).is_ok());
        assert_ne!(cert0.digest(), cert1.digest());

        // Naming the wrong predecessor is a broken chain…
        assert!(matches!(
            cert1.verify_chained(key, &i1, 0xdead),
            Err(VerifyError::ChainBroken { .. })
        ));
        // …and rewriting the link breaks the signed chain tag.
        let mut forged = cert1.clone();
        forged.prev_digest = 0;
        assert_eq!(forged.verify(key, &i1), Err(VerifyError::BadChainTag));
    }

    #[test]
    fn incremental_sums_match_from_scratch() {
        let signer = Signer::new(0x5e7);
        let i = parse_term("r(a#1(b#2,b#3),c#4(b#5))").unwrap();
        let constraints = vec![c("(//b, ↑)"), c("(/a, ↓)")];
        let mut ev = Evaluator::new(&i);
        let mut sets: Vec<_> = constraints.iter().map(|x| ev.eval(&x.range)).collect();
        let origin = signer.certify_precomputed(&constraints, &sets);
        let mut header = CertHeader::new(&signer, &constraints, &sets, 0);
        assert_eq!(header.materialize(&sets), origin);
        assert_eq!(header.digest(), origin.digest());

        // Remove b#2, add b#9, remove and re-insert b#3: the fold cancels
        // the round trip on its own.
        let b = |id| NodeRef { id: xuc_xtree::NodeId::from_raw(id), label: Label::new("b") };
        let sum = &mut header.entries[0].sum;
        sum.remove(&signer, &b(2));
        sum.add(&signer, &b(9));
        sum.remove(&signer, &b(3));
        sum.add(&signer, &b(3));
        sets[0].remove(&b(2));
        sets[0].insert(b(9));
        assert_eq!(header.entries[0].sum, SetSum::of(&signer, &sets[0]));
        header.rechain(&signer);
        let reference = signer.certify_chained(&constraints, &sets, origin.digest());
        assert_eq!(header.materialize(&sets), reference);
        assert!(header.describes(&reference, &sets));
        assert_eq!(header.digest(), reference.digest());
        assert!(!header.describes(&origin, &sets));
    }

    #[test]
    fn wrong_key_rejected() {
        let i = parse_term("r(a#1)").unwrap();
        let cert = Signer::new(1).certify(&i, &[c("(//a, ↑)")]);
        // The chain link is the first MAC checked, so a wrong key fails
        // there before any entry is examined.
        assert!(matches!(cert.verify(2, &i), Err(VerifyError::BadChainTag)));
        // A wrong key with a forged-but-self-consistent chain tag still
        // fails on the entry MACs.
        let mut reforged = cert.clone();
        reforged.chain_tag = chain_tag(2, reforged.prev_digest, reforged.tagged());
        assert!(matches!(reforged.verify(2, &i), Err(VerifyError::BadSignature { .. })));
    }

    #[test]
    fn agreement_with_validity_on_random_edits() {
        // The certificate verdict must coincide with pair validity for
        // arbitrary update sequences.
        let i = parse_term("r(a#1(b#2,b#3),c#4(b#5))").unwrap();
        let constraints = vec![c("(/a/b, ↑)"), c("(/a/b, ↓)"), c("(//b, ↑)"), c("(/c[/b], ↓)")];
        let cert = Signer::new(0xabc).certify(&i, &constraints);
        let edits: Vec<DataTree> = vec![
            parse_term("r(a#1(b#2,b#3),c#4(b#5))").unwrap(),
            parse_term("r(a#1(b#2),c#4(b#5,b#3))").unwrap(),
            parse_term("r(a#1(b#2,b#3,b#9),c#4(b#5))").unwrap(),
            parse_term("r(a#1(b#2,b#3),c#4)").unwrap(),
            parse_term("r(c#4(b#5),a#1(b#2,b#3(x#7)))").unwrap(),
        ];
        for j in edits {
            assert_eq!(
                cert.verify(0xabc, &j).is_ok(),
                xuc_core::constraint::all_satisfied(&constraints, &i, &j),
                "certificate and validity disagree on {j:?}"
            );
        }
    }
}
