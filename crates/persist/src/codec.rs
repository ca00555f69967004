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
//! Checksums are FNV-1a-64 over the payload ([`checksum64`]). WAL frames
//! and snapshot files share one framing, `[u32 len][u64 checksum][payload]`,
//! written by [`append_frame`] and read by [`split_frame`], so a torn or
//! bit-flipped frame is detected, never decoded.
//!
//! Lengths and counts are `u32`s; a larger one is an [`EncodeError`] from
//! [`append_frame`], which then leaves its buffer as it was.

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
    /// node, a parent off the current root path, duplicate id).
    BadTree(String),
    /// The stored checksum does not match the payload.
    Checksum,
    /// Payload bytes left over after a complete decode.
    TrailingBytes,
    /// A file does not open with the magic of the format this build
    /// reads: another kind of file, or an older format version.
    BadMagic,
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
            DecodeError::BadMagic => write!(f, "unknown file magic or format version"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a value could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A length or count does not fit the format's `u32` field.
    TooLong(usize),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLong(n) => write!(f, "length {n} does not fit a u32 field"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// `n` as a `u32` length field.
pub fn wire_len(n: usize) -> Result<u32, EncodeError> {
    u32::try_from(n).map_err(|_| EncodeError::TooLong(n))
}

/// Append-only byte sink with the codec's primitive writers. A length
/// that does not fit its field is written as `u32::MAX` and remembered
/// for [`append_frame`] to refuse.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    overflow: Option<EncodeError>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written, even if a length overflowed (its field then
    /// reads `u32::MAX`): for measuring an encoding, not for storing it.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes `n` as a `u32` length or count field.
    pub fn len(&mut self, n: usize) {
        let v = wire_len(n).unwrap_or_else(|e| {
            self.overflow.get_or_insert(e);
            u32::MAX
        });
        self.u32(v);
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
        self.len(s.len());
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
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| DecodeError::Truncated)?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| DecodeError::Truncated)?))
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

/// Bytes in front of each frame's payload: its length and checksum.
const FRAME_HEADER: usize = 4 + 8;

/// Appends one `[u32 payload length][u64 checksum][payload]` frame to
/// `buf` (all little-endian), the payload being what `encode` writes. The
/// payload is encoded in place and the header patched in after it, so no
/// second copy of it exists. Returns the frame's length. A length inside
/// the payload, or the payload's own, that does not fit a `u32` refuses
/// the frame: `buf` is cut back to exactly what it held before the call.
pub fn append_frame(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Encoder),
) -> Result<usize, EncodeError> {
    let start = buf.len();
    let mut e = Encoder { buf: std::mem::take(buf), overflow: None };
    e.u32(0);
    e.u64(0);
    encode(&mut e);
    let len = e.overflow.map_or_else(|| wire_len(e.buf.len() - start - FRAME_HEADER), Err);
    *buf = e.buf;
    let len = len.inspect_err(|_| buf.truncate(start))?;
    let (header, payload) = buf[start..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
    Ok(buf.len() - start)
}

/// Splits the frame [`append_frame`] wrote at the head of `bytes` into its
/// payload and the bytes after it. A frame cut short is
/// [`DecodeError::Truncated`], one whose payload does not match its
/// checksum [`DecodeError::Checksum`].
pub fn split_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), DecodeError> {
    let mut d = Decoder::new(bytes);
    let len = d.u32()? as usize;
    let sum = d.u64()?;
    let payload = d.take(len)?;
    if checksum64(payload) != sum {
        return Err(DecodeError::Checksum);
    }
    Ok((payload, &bytes[d.pos..]))
}

/// Encodes `tree` as its preorder snapshot (see the module docs),
/// streamed from one pre-order walk: no snapshot of the tree is built.
pub fn encode_tree(e: &mut Encoder, tree: &DataTree) {
    e.len(tree.len());
    // Preorder indices of the current root path; a node's parent is the
    // entry one level up.
    let mut ancestors: Vec<usize> = Vec::new();
    let mut next = 0;
    let visited = tree
        .for_each_preorder(tree.root_id(), |id, label, depth| {
            ancestors.truncate(depth);
            e.u64(id.raw());
            e.len(depth.checked_sub(1).map_or(0, |d| ancestors[d] + 1));
            e.str(label.as_str());
            ancestors.push(next);
            next += 1;
        })
        .unwrap_or(0);
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
    let node = |d: &mut Decoder| -> Result<_, DecodeError> {
        Ok((NodeId::from_raw(d.u64()?), d.u32()? as usize, Label::new(d.str()?)))
    };
    let (root, parent, label) = node(d)?;
    if parent != 0 {
        return Err(DecodeError::BadTree("first node is not the root".into()));
    }
    let mut tree = DataTree::with_root_id(root, label);
    // The root path down to the previous node, as (pre-order index, id):
    // a node's parent must lie on it, or the bytes are not the pre-order
    // walk `encode_tree` writes and would re-encode differently.
    let mut path = vec![(0, root)];
    for i in 1..n {
        let (id, parent, label) = node(d)?;
        while path.last().is_some_and(|&(at, _)| at >= parent) {
            path.pop();
        }
        let Some(&(_, parent_id)) = path.last().filter(|&&(at, _)| at + 1 == parent) else {
            return Err(DecodeError::BadTree(format!("node {i} breaks pre-order")));
        };
        tree.add_with_id(parent_id, id, label).map_err(|e| DecodeError::BadTree(e.to_string()))?;
        path.push((i, id));
    }
    Ok(tree)
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
    e.len(updates.len());
    for u in updates {
        encode_update(e, u);
    }
}

pub fn decode_updates(d: &mut Decoder) -> Result<Vec<Update>, DecodeError> {
    let n = d.u32()? as usize;
    (0..n).map(|_| decode_update(d)).collect()
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
    e.len(suite.len());
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
    e.len(cert.entries.len());
    for entry in &cert.entries {
        encode_constraint(e, &entry.constraint);
        e.len(entry.snapshot.len());
        for r in &entry.snapshot {
            e.u64(r.id.raw());
            e.str(r.label.as_str());
        }
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
            let snapshot = (0..d.u32()?)
                .map(|_| {
                    Ok(NodeRef { id: NodeId::from_raw(d.u64()?), label: Label::new(d.str()?) })
                })
                .collect::<Result<BTreeSet<_>, DecodeError>>()?;
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

    /// The boundary through the length helper, without a 4 GiB buffer
    /// (the writer's refusal of such a frame is tested in `wal`).
    #[test]
    fn a_length_past_u32_is_refused_as_a_typed_error() {
        assert_eq!(wire_len(u32::MAX as usize), Ok(u32::MAX));
        let too_long = u32::MAX as usize + 1;
        assert_eq!(wire_len(too_long), Err(EncodeError::TooLong(too_long)));
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

    /// Node #5 names node #3 as its parent after node #4, a child of the
    /// root, closed #3's subtree: no pre-order walk writes that.
    #[test]
    fn a_parent_off_the_root_path_is_refused() {
        let mut e = Encoder::new();
        e.u32(5);
        for (id, parent) in [(1, 0), (2, 1), (3, 2), (4, 1), (5, 3)] {
            e.u64(id);
            e.u32(parent);
            e.str("a");
        }
        let bytes = e.into_bytes();
        let err = decode_tree(&mut Decoder::new(&bytes)).unwrap_err();
        assert_eq!(err, DecodeError::BadTree("node 4 breaks pre-order".into()));
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
