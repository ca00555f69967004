//! The hand-rolled binary codec behind WAL frames and snapshots.
//!
//! Everything is fixed-width little-endian integers and u32-length-prefixed
//! UTF-8 strings — no external serialization crate (the workspace's `serde`
//! feature has always been a gated no-op; this codec is the real thing).
//! Trees are encoded as their preorder snapshot: `(id, parent-index + 1,
//! label)` per node, with `0` marking the root. Re-inserting in preorder via
//! [`DataTree::with_root_id`] / [`DataTree::add_with_id`] appends children
//! in the original sibling order, so decode reproduces the tree **exactly**
//! (render-identical, same child positions), not just up to isomorphism.
//! Constraints ride their canonical [`Display`](std::fmt::Display) form,
//! which [`xuc_core::parse_constraint`] round-trips.
//!
//! Checksums are FNV-1a-64 over the payload ([`checksum64`]); the framing
//! layer ([`crate::wal`], [`crate::snapshot`]) stores them next to a length
//! prefix so a torn or bit-flipped tail is detected, never decoded.

use std::collections::BTreeSet;
use std::fmt;
use xuc_core::{parse_constraint, Constraint};
use xuc_sigstore::{CertEntry, Certificate};
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

/// FNV-1a-64 over `data` — the integrity checksum on every frame and
/// snapshot. Unkeyed: this detects corruption (torn writes, bit rot), not
/// tampering; tamper-evidence is the certificate chain's keyed MACs.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a byte string failed to decode. Framing layers map all of these to
/// "bad frame" and apply their torn-tail policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the layout requires.
    Truncated,
    /// An enum tag byte outside the known range.
    BadTag(u8),
    /// A length-prefixed string is not UTF-8.
    BadString,
    /// A constraint's canonical form failed to parse back.
    BadConstraint(String),
    /// A tree encoding violates the preorder invariants (non-root first
    /// node, forward parent reference, duplicate id).
    BadTree(String),
    /// The stored checksum does not match the payload.
    Checksum,
    /// Payload bytes left over after a complete decode.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::BadString => write!(f, "length-prefixed string is not UTF-8"),
            DecodeError::BadConstraint(e) => write!(f, "constraint failed to re-parse: {e}"),
            DecodeError::BadTree(e) => write!(f, "tree encoding invalid: {e}"),
            DecodeError::Checksum => write!(f, "checksum mismatch"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte sink with the codec's primitive writers.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    /// An encoder that appends to `buf`.
    pub(crate) fn with_bytes(buf: Vec<u8>) -> Encoder {
        Encoder { buf }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string length fits u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice with the codec's primitive readers. Every
/// reader fails with [`DecodeError::Truncated`] instead of panicking, so
/// arbitrary (corrupted) input is safe to feed in.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed — the cap on anything a decoded count may
    /// allocate, so a hostile length cannot reserve more than the input
    /// could ever fill.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::BadString)
    }

    /// Fails unless the whole input has been consumed — encodings are
    /// exact, trailing garbage means corruption.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Encodes `tree` as its preorder snapshot (see the module docs),
/// streamed from one pre-order walk: no snapshot of the tree is built.
pub fn encode_tree(e: &mut Encoder, tree: &DataTree) {
    e.u32(u32::try_from(tree.len()).expect("tree size fits u32"));
    // Preorder indices of the current root path; a node's parent is the
    // entry one level up.
    let mut ancestors: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let visited = tree
        .for_each_preorder(tree.root_id(), |id, label, depth| {
            ancestors.truncate(depth);
            e.u64(id.raw());
            e.u32(depth.checked_sub(1).map_or(0, |d| ancestors[d] + 1));
            e.str(label.as_str());
            ancestors.push(next);
            next += 1;
        })
        .expect("the root is live");
    // The count written first must match the nodes encoded, or the frame
    // decodes wrong.
    assert_eq!(visited, tree.len(), "every live node is reachable from the root");
}

/// Smallest encoded node: an 8-byte id, a 4-byte parent index and a
/// 4-byte label length.
const MIN_NODE_BYTES: usize = 16;

/// Decodes a tree encoded by [`encode_tree`], reproducing exact node ids,
/// labels and sibling order.
pub fn decode_tree(d: &mut Decoder) -> Result<DataTree, DecodeError> {
    let n = d.u32()? as usize;
    if n == 0 {
        return Err(DecodeError::BadTree("empty tree".into()));
    }
    if n > d.remaining() / MIN_NODE_BYTES {
        return Err(DecodeError::Truncated);
    }
    let mut tree: Option<DataTree> = None;
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        let id = NodeId::from_raw(d.u64()?);
        let parent = d.u32()? as usize;
        let label = Label::new(d.str()?);
        match (&mut tree, parent) {
            (None, 0) => {
                tree = Some(DataTree::with_root_id(id, label));
                ids.push(id);
            }
            (None, _) => return Err(DecodeError::BadTree("first node is not the root".into())),
            (Some(_), 0) => return Err(DecodeError::BadTree(format!("second root at {i}"))),
            (Some(t), p) => {
                if p > i {
                    return Err(DecodeError::BadTree(format!("forward parent at {i}")));
                }
                t.add_with_id(ids[p - 1], id, label)
                    .map_err(|e| DecodeError::BadTree(e.to_string()))?;
                ids.push(id);
            }
        }
    }
    Ok(tree.expect("n > 0"))
}

pub fn encode_update(e: &mut Encoder, u: &Update) {
    match u {
        Update::InsertLeaf { parent, id, label } => {
            e.u8(0);
            e.u64(parent.raw());
            e.u64(id.raw());
            e.str(label.as_str());
        }
        Update::DeleteSubtree { node } => {
            e.u8(1);
            e.u64(node.raw());
        }
        Update::DeleteNode { node } => {
            e.u8(2);
            e.u64(node.raw());
        }
        Update::Move { node, new_parent } => {
            e.u8(3);
            e.u64(node.raw());
            e.u64(new_parent.raw());
        }
        Update::Relabel { node, label } => {
            e.u8(4);
            e.u64(node.raw());
            e.str(label.as_str());
        }
        Update::ReplaceId { node, new_id } => {
            e.u8(5);
            e.u64(node.raw());
            e.u64(new_id.raw());
        }
    }
}

pub fn decode_update(d: &mut Decoder) -> Result<Update, DecodeError> {
    Ok(match d.u8()? {
        0 => Update::InsertLeaf {
            parent: NodeId::from_raw(d.u64()?),
            id: NodeId::from_raw(d.u64()?),
            label: Label::new(d.str()?),
        },
        1 => Update::DeleteSubtree { node: NodeId::from_raw(d.u64()?) },
        2 => Update::DeleteNode { node: NodeId::from_raw(d.u64()?) },
        3 => Update::Move {
            node: NodeId::from_raw(d.u64()?),
            new_parent: NodeId::from_raw(d.u64()?),
        },
        4 => Update::Relabel { node: NodeId::from_raw(d.u64()?), label: Label::new(d.str()?) },
        5 => Update::ReplaceId {
            node: NodeId::from_raw(d.u64()?),
            new_id: NodeId::from_raw(d.u64()?),
        },
        t => return Err(DecodeError::BadTag(t)),
    })
}

pub fn encode_updates(e: &mut Encoder, updates: &[Update]) {
    e.u32(u32::try_from(updates.len()).expect("batch size fits u32"));
    for u in updates {
        encode_update(e, u);
    }
}

pub fn decode_updates(d: &mut Decoder) -> Result<Vec<Update>, DecodeError> {
    let n = d.u32()? as usize;
    (0..n).map(|_| decode_update(d)).collect()
}

pub fn encode_node_set(e: &mut Encoder, set: &BTreeSet<NodeRef>) {
    e.u32(u32::try_from(set.len()).expect("set size fits u32"));
    for r in set {
        e.u64(r.id.raw());
        e.str(r.label.as_str());
    }
}

pub fn decode_node_set(d: &mut Decoder) -> Result<BTreeSet<NodeRef>, DecodeError> {
    let n = d.u32()? as usize;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        let id = NodeId::from_raw(d.u64()?);
        let label = Label::new(d.str()?);
        set.insert(NodeRef { id, label });
    }
    Ok(set)
}

/// Constraints travel as their canonical `Display` form (e.g.
/// `(/patient/visit, ↑)`), which [`parse_constraint`] round-trips exactly.
pub fn encode_constraint(e: &mut Encoder, c: &Constraint) {
    e.str(&c.to_string());
}

pub fn decode_constraint(d: &mut Decoder) -> Result<Constraint, DecodeError> {
    let src = d.str()?;
    parse_constraint(src).map_err(DecodeError::BadConstraint)
}

pub fn encode_suite(e: &mut Encoder, suite: &[Constraint]) {
    e.u32(u32::try_from(suite.len()).expect("suite size fits u32"));
    for c in suite {
        encode_constraint(e, c);
    }
}

pub fn decode_suite(d: &mut Decoder) -> Result<Vec<Constraint>, DecodeError> {
    let n = d.u32()? as usize;
    (0..n).map(|_| decode_constraint(d)).collect()
}

pub fn encode_certificate(e: &mut Encoder, cert: &Certificate) {
    e.u64(cert.prev_digest);
    e.u64(cert.chain_tag);
    e.u32(u32::try_from(cert.entries.len()).expect("entry count fits u32"));
    for entry in &cert.entries {
        encode_constraint(e, &entry.constraint);
        encode_node_set(e, &entry.snapshot);
        e.u64(entry.tag);
    }
}

pub fn decode_certificate(d: &mut Decoder) -> Result<Certificate, DecodeError> {
    let prev_digest = d.u64()?;
    let chain_tag = d.u64()?;
    let n = d.u32()? as usize;
    let entries = (0..n)
        .map(|_| {
            let constraint = decode_constraint(d)?;
            let snapshot = decode_node_set(d)?;
            let tag = d.u64()?;
            Ok(CertEntry { constraint, snapshot, tag })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(Certificate { entries, prev_digest, chain_tag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_xtree::parse_term;

    #[test]
    fn tree_round_trip_is_exact() {
        let tree = parse_term("hospital#1(patient#2(visit#3,visit#4),patient#5(clinicalTrial#6))")
            .unwrap();
        let mut e = Encoder::new();
        encode_tree(&mut e, &tree);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = decode_tree(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.render(), tree.render());
        assert_eq!(back.preorder_snapshot(), tree.preorder_snapshot());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let tree = parse_term("r(a#1,b#2)").unwrap();
        let mut e = Encoder::new();
        encode_tree(&mut e, &tree);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(decode_tree(&mut d).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn hostile_node_count_is_refused_before_allocating() {
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        let mut frame = e.into_bytes();
        frame.resize(24, 0);
        let mut d = Decoder::new(&frame);
        assert!(matches!(decode_tree(&mut d), Err(DecodeError::Truncated)));
    }

    #[test]
    fn update_tags_round_trip() {
        let n = |r| NodeId::from_raw(r);
        let updates = vec![
            Update::InsertLeaf { parent: n(1), id: n(9), label: Label::new("visit") },
            Update::DeleteSubtree { node: n(2) },
            Update::DeleteNode { node: n(3) },
            Update::Move { node: n(4), new_parent: n(1) },
            Update::Relabel { node: n(5), label: Label::new("note") },
            Update::ReplaceId { node: n(6), new_id: n(16) },
        ];
        let mut e = Encoder::new();
        encode_updates(&mut e, &updates);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(decode_updates(&mut d).unwrap(), updates);
        d.finish().unwrap();
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut e = Encoder::new();
        e.u8(9);
        let bytes = e.into_bytes();
        assert_eq!(decode_update(&mut Decoder::new(&bytes)), Err(DecodeError::BadTag(9)));
    }

    #[test]
    fn constraint_rides_its_display_form() {
        let c = parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap();
        let mut e = Encoder::new();
        encode_constraint(&mut e, &c);
        let bytes = e.into_bytes();
        let back = decode_constraint(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.to_string(), c.to_string());
        assert_eq!(back.kind, c.kind);
    }
}
