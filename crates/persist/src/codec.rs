//! The hand-rolled binary codec behind WAL frames and snapshots.
//!
//! Integers are LEB128 varints, written minimally: a decoder refuses an
//! overlong or overflowing one, so every value has exactly one encoding.
//! Digests, chain tags and MACs stay fixed-width little-endian `u64`s
//! (they are uniformly random, so a varint would only grow them). Strings
//! are a varint length and UTF-8 bytes. No external serialization crate
//! is used (the workspace's `serde` feature has always been a gated
//! no-op; this codec is the real thing).
//!
//! **Names apart from structure** (as XMill does: Liefke & Suciu, SIGMOD
//! 2000). Each frame carries one label dictionary, built as it is
//! written: a label is a varint index into it, and the index one past
//! the dictionary's end introduces a new label, whose name follows
//! inline. A name is therefore written once per frame, and decoding
//! interns each distinct label once. A new label whose name the
//! dictionary already holds, or an index further past its end, is
//! refused, so a frame's dictionary has one encoding too.
//!
//! Trees are encoded in pre-order: a node count, then per node the
//! zigzag varint of its id minus the previous node's id, the distance
//! from its pre-order index back to its parent's (not written for the
//! root), and its label. Re-inserting in pre-order via
//! [`DataTree::with_root_id`] / [`DataTree::add_with_id`] appends
//! children in the original sibling order, so decode reproduces the
//! tree **exactly** (render-identical, same child positions), not just
//! up to isomorphism. A signed set is written in its sorted order, each
//! entry's id as the gap from the previous entry's; a zero gap (an entry
//! out of order, or a second entry with one id) is refused. Constraints
//! ride their canonical [`Display`](std::fmt::Display) form, which
//! [`xuc_core::parse_constraint`] round-trips; a text that parses but is
//! not in canonical form is refused. Every frame that decodes therefore
//! re-encodes to exactly its own bytes.
//!
//! Checksums are FNV-1a-64 over the payload ([`checksum64`]). WAL frames
//! and snapshot files share one framing, `[u32 len][u64 checksum][payload]`,
//! written by [`append_frame`] and read by [`split_frame`], so a torn or
//! bit-flipped frame is detected, never decoded.
//!
//! Lengths and counts must fit a `u32`; a larger one, or a signed set
//! with two entries of one id, is an [`EncodeError`] from
//! [`append_frame`], which then leaves its buffer as it was. A decoded
//! count is checked against the bytes left before anything is allocated
//! for it.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
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
    /// Fewer bytes than the layout requires, or a count larger than the
    /// bytes left could hold.
    Truncated,
    /// An enum tag byte outside the known range.
    BadTag(u8),
    /// A length-prefixed string is not UTF-8.
    BadString,
    /// A varint that is overlong (a zero last byte) or overflows 64 bits.
    BadVarint,
    /// A label index past the frame's dictionary, or a new label whose
    /// name the dictionary already holds.
    BadLabel(String),
    /// A signed set's entries are not in strictly increasing id order.
    BadSet(String),
    /// A constraint's text failed to parse back, or is not its canonical
    /// form.
    BadConstraint(String),
    /// A tree encoding violates the preorder invariants (an empty tree, a
    /// parent off the current root path, duplicate id).
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
            DecodeError::BadVarint => write!(f, "overlong or overflowing varint"),
            DecodeError::BadLabel(e) => write!(f, "label dictionary invalid: {e}"),
            DecodeError::BadSet(e) => write!(f, "signed set invalid: {e}"),
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
    /// A length or count does not fit the format's `u32` bound.
    TooLong(usize),
    /// A signed set holds two entries with this id: it is not a set of
    /// one tree's nodes, and its gap coding has no place for it.
    DuplicateId(u64),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooLong(n) => write!(f, "length {n} does not fit a u32 field"),
            EncodeError::DuplicateId(id) => write!(f, "signed set holds id {id} twice"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// `n` as a `u32` length field.
pub fn wire_len(n: usize) -> Result<u32, EncodeError> {
    u32::try_from(n).map_err(|_| EncodeError::TooLong(n))
}

/// Hashes a label's `u32` handle with one multiply, for the encoder's
/// dictionary: its keys are the handles of labels already in the
/// program's trees, small integers handed out in order, so a keyed
/// string hasher would only cost time. (The decoder's set of names read
/// from input keeps the default hasher.)
#[derive(Default)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type Handles = BuildHasherDefault<HandleHasher>;

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Append-only byte sink with the codec's primitive writers and the
/// frame's label dictionary. A length that does not fit its bound, or a
/// set it cannot code, is written anyway and remembered for
/// [`append_frame`] to refuse.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    error: Option<EncodeError>,
    /// Each label written so far and its dictionary index.
    labels: HashMap<Label, u32, Handles>,
    /// The label written last and its index: signed sets and sibling
    /// runs repeat one label, so most lookups stop here.
    last: Option<(Label, u32)>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written, even if a length overflowed: for measuring an
    /// encoding, not for storing it.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    #[cold]
    fn refuse(&mut self, e: EncodeError) {
        self.error.get_or_insert(e);
    }

    /// Writes `n` as a length or count: a varint, refused past `u32`.
    pub fn len(&mut self, n: usize) {
        if let Err(e) = wire_len(n) {
            self.refuse(e);
        }
        self.var(n as u64);
    }

    /// Writes `v` as a minimal LEB128 varint.
    #[inline]
    pub fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes `v` fixed-width, little-endian: for digests and tags.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes `label` as its index in the frame's dictionary; its first
    /// use writes the next index and then the name.
    #[inline]
    pub fn label(&mut self, label: Label) {
        match self.last {
            Some((last, at)) if last == label => self.var(u64::from(at)),
            _ => self.label_lookup(label),
        }
    }

    /// [`label`](Self::label) past the one-entry cache, kept out of line
    /// so the cached path stays small enough to inline into loops.
    #[inline(never)]
    fn label_lookup(&mut self, label: Label) {
        if let Some(&at) = self.labels.get(&label) {
            self.var(u64::from(at));
            self.last = Some((label, at));
            return;
        }
        let next = self.labels.len();
        self.labels.insert(label, next as u32);
        self.len(next);
        self.str(label.as_str());
        self.last = Some((label, next as u32));
    }
}

/// Cursor over a byte slice with the codec's primitive readers and the
/// frame's label dictionary. Every reader fails with a typed
/// [`DecodeError`] instead of panicking, so arbitrary (corrupted) input
/// is safe to feed in.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    /// The frame's dictionary so far, by index.
    labels: Vec<Label>,
    /// The same labels, for refusing a name defined twice.
    defined: HashSet<Label>,
}

impl<'a> Decoder<'a> {
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0, labels: Vec::new(), defined: HashSet::default() }
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

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| DecodeError::Truncated)?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| DecodeError::Truncated)?))
    }

    /// Reads a minimal LEB128 varint: a zero last byte after the first
    /// (overlong) or bits past the 64th (overflow) are
    /// [`DecodeError::BadVarint`].
    #[inline]
    pub fn var(&mut self) -> Result<u64, DecodeError> {
        if let Some(&b) = self.data.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::BadVarint);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return if b == 0 && shift > 0 { Err(DecodeError::BadVarint) } else { Ok(v) };
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// Reads a varint that must fit a `usize`: a length, count,
    /// distance or index.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.var()?).map_err(|_| DecodeError::Truncated)
    }

    /// Reads a count of items that take at least `min_bytes` each,
    /// refusing one the bytes left could not hold before the caller
    /// allocates for it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.usize()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::BadString)
    }

    /// Reads a label written by [`Encoder::label`], interning a new
    /// name once for the whole frame.
    #[inline]
    pub fn label(&mut self) -> Result<Label, DecodeError> {
        let at = self.usize()?;
        match self.labels.get(at) {
            Some(&label) => Ok(label),
            None => self.define_label(at),
        }
    }

    /// [`label`](Self::label) for an index not yet in the dictionary:
    /// the next one introduces a name, any other is refused.
    #[inline(never)]
    fn define_label(&mut self, at: usize) -> Result<Label, DecodeError> {
        if at != self.labels.len() {
            let n = self.labels.len();
            return Err(DecodeError::BadLabel(format!("index {at} past a {n}-label dictionary")));
        }
        let label = Label::new(self.str()?);
        if !self.defined.insert(label) {
            return Err(DecodeError::BadLabel(format!("`{label}` defined twice")));
        }
        self.labels.push(label);
        Ok(label)
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
/// `buf` (all little-endian), the payload being what `encode` writes with
/// a fresh label dictionary. The payload is encoded in place and the
/// header patched in after it, so no second copy of it exists. Returns
/// the frame's length. A payload the encoder refused (see
/// [`EncodeError`]), or one whose own length does not fit a `u32`,
/// refuses the frame: `buf` is cut back to exactly what it held before
/// the call.
pub fn append_frame(
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Encoder),
) -> Result<usize, EncodeError> {
    let start = buf.len();
    let mut e = Encoder { buf: std::mem::take(buf), ..Encoder::default() };
    e.buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode(&mut e);
    let len = e.error.map_or_else(|| wire_len(e.buf.len() - start - FRAME_HEADER), Err);
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

/// Encodes `tree` in pre-order (see the module docs), streamed from one
/// pre-order walk: no snapshot of the tree is built.
pub fn encode_tree(e: &mut Encoder, tree: &DataTree) {
    e.len(tree.len());
    // Pre-order indices of the current root path; a node's parent is the
    // entry one level up.
    let mut ancestors: Vec<usize> = Vec::new();
    let (mut next, mut prev) = (0, 0u64);
    let visited = tree
        .for_each_preorder(tree.root_id(), |id, label, depth| {
            ancestors.truncate(depth);
            e.var(zigzag(id.raw().wrapping_sub(prev) as i64));
            if let Some(up) = depth.checked_sub(1) {
                e.len(next - ancestors[up]);
            }
            e.label(label);
            ancestors.push(next);
            next += 1;
            prev = id.raw();
        })
        .unwrap_or(0);
    // The count written first must match the nodes encoded, or the frame
    // decodes wrong.
    assert_eq!(visited, tree.len(), "every live node is reachable from the root");
}

/// Smallest encoded node: an id delta and a label index (every node but
/// the root also has a parent distance).
const MIN_NODE_BYTES: usize = 2;

/// Decodes a tree encoded by [`encode_tree`], reproducing exact node ids,
/// labels and sibling order.
pub fn decode_tree(d: &mut Decoder) -> Result<DataTree, DecodeError> {
    let n = d.count(MIN_NODE_BYTES)?;
    if n == 0 {
        return Err(DecodeError::BadTree("empty tree".into()));
    }
    let mut prev = 0u64;
    let mut next_id = |d: &mut Decoder| -> Result<NodeId, DecodeError> {
        prev = prev.wrapping_add(unzigzag(d.var()?) as u64);
        Ok(NodeId::from_raw(prev))
    };
    let root = next_id(d)?;
    let mut tree = DataTree::with_root_id(root, d.label()?);
    // The root path down to the previous node, as (pre-order index, id):
    // a node's parent must lie on it, or the bytes are not the pre-order
    // walk `encode_tree` writes and would re-encode differently.
    let mut path = vec![(0, root)];
    for i in 1..n {
        let id = next_id(d)?;
        let back = d.usize()?;
        let label = d.label()?;
        let broken = || DecodeError::BadTree(format!("node {i} breaks pre-order"));
        let parent = (1..=i).contains(&back).then(|| i - back).ok_or_else(broken)?;
        while path.last().is_some_and(|&(at, _)| at > parent) {
            path.pop();
        }
        let Some(&(_, parent_id)) = path.last().filter(|&&(at, _)| at == parent) else {
            return Err(broken());
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
            e.var(parent.raw());
            e.var(id.raw());
            e.label(*label);
        }
        Update::DeleteSubtree { node } => {
            e.u8(1);
            e.var(node.raw());
        }
        Update::DeleteNode { node } => {
            e.u8(2);
            e.var(node.raw());
        }
        Update::Move { node, new_parent } => {
            e.u8(3);
            e.var(node.raw());
            e.var(new_parent.raw());
        }
        Update::Relabel { node, label } => {
            e.u8(4);
            e.var(node.raw());
            e.label(*label);
        }
        Update::ReplaceId { node, new_id } => {
            e.u8(5);
            e.var(node.raw());
            e.var(new_id.raw());
        }
    }
}

pub fn decode_update(d: &mut Decoder) -> Result<Update, DecodeError> {
    let id = |d: &mut Decoder| d.var().map(NodeId::from_raw);
    Ok(match d.u8()? {
        0 => Update::InsertLeaf { parent: id(d)?, id: id(d)?, label: d.label()? },
        1 => Update::DeleteSubtree { node: id(d)? },
        2 => Update::DeleteNode { node: id(d)? },
        3 => Update::Move { node: id(d)?, new_parent: id(d)? },
        4 => Update::Relabel { node: id(d)?, label: d.label()? },
        5 => Update::ReplaceId { node: id(d)?, new_id: id(d)? },
        t => return Err(DecodeError::BadTag(t)),
    })
}

pub fn encode_updates(e: &mut Encoder, updates: &[Update]) {
    e.len(updates.len());
    for u in updates {
        encode_update(e, u);
    }
}

/// Smallest encoded update: a tag and one id.
const MIN_UPDATE_BYTES: usize = 2;

pub fn decode_updates(d: &mut Decoder) -> Result<Vec<Update>, DecodeError> {
    let n = d.count(MIN_UPDATE_BYTES)?;
    (0..n).map(|_| decode_update(d)).collect()
}

/// Constraints travel as their canonical `Display` form (e.g.
/// `(/patient/visit, ↑)`), which [`parse_constraint`] round-trips exactly.
pub fn encode_constraint(e: &mut Encoder, c: &Constraint) {
    e.str(&c.to_string());
}

/// Decodes a constraint, refusing a text that parses but is not the
/// canonical form it would re-encode as.
pub fn decode_constraint(d: &mut Decoder) -> Result<Constraint, DecodeError> {
    let src = d.str()?;
    let c = parse_constraint(src).map_err(DecodeError::BadConstraint)?;
    if c.to_string() != src {
        return Err(DecodeError::BadConstraint(format!("`{src}` is not in canonical form")));
    }
    Ok(c)
}

pub fn encode_suite(e: &mut Encoder, suite: &[Constraint]) {
    e.len(suite.len());
    for c in suite {
        encode_constraint(e, c);
    }
}

/// Smallest encoded constraint: a length and one byte of text.
const MIN_CONSTRAINT_BYTES: usize = 2;

pub fn decode_suite(d: &mut Decoder) -> Result<Vec<Constraint>, DecodeError> {
    let n = d.count(MIN_CONSTRAINT_BYTES)?;
    (0..n).map(|_| decode_constraint(d)).collect()
}

/// Encodes a signed set in its sorted order: each entry's id as the gap
/// from the previous entry's (the first's from 0), then its label.
fn encode_set(e: &mut Encoder, set: &BTreeSet<NodeRef>) {
    e.len(set.len());
    let mut prev: Option<u64> = None;
    for r in set {
        let id = r.id.raw();
        if prev == Some(id) {
            e.refuse(EncodeError::DuplicateId(id));
        }
        e.var(id.wrapping_sub(prev.unwrap_or(0)));
        e.label(r.label);
        prev = Some(id);
    }
}

/// Smallest encoded set entry: an id gap and a label index.
const MIN_ENTRY_BYTES: usize = 2;

fn decode_set(d: &mut Decoder) -> Result<BTreeSet<NodeRef>, DecodeError> {
    let n = d.count(MIN_ENTRY_BYTES)?;
    let mut prev: Option<u64> = None;
    (0..n)
        .map(|k| {
            let gap = d.var()?;
            let id = match prev {
                None => gap,
                Some(p) => p
                    .checked_add(gap)
                    .filter(|_| gap > 0)
                    .ok_or_else(|| DecodeError::BadSet(format!("entry {k} out of order")))?,
            };
            prev = Some(id);
            Ok(NodeRef { id: NodeId::from_raw(id), label: d.label()? })
        })
        .collect()
}

pub fn encode_certificate(e: &mut Encoder, cert: &Certificate) {
    e.u64(cert.prev_digest);
    e.u64(cert.chain_tag);
    e.len(cert.entries.len());
    for entry in &cert.entries {
        encode_constraint(e, &entry.constraint);
        encode_set(e, &entry.snapshot);
        e.u64(entry.tag);
    }
}

/// Smallest encoded certificate entry: a constraint, a set count and a
/// tag.
const MIN_CERT_ENTRY_BYTES: usize = MIN_CONSTRAINT_BYTES + 1 + 8;

pub fn decode_certificate(d: &mut Decoder) -> Result<Certificate, DecodeError> {
    let prev_digest = d.u64()?;
    let chain_tag = d.u64()?;
    let n = d.count(MIN_CERT_ENTRY_BYTES)?;
    let entries = (0..n)
        .map(|_| {
            let constraint = decode_constraint(d)?;
            let snapshot = decode_set(d)?;
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
        e.len(u32::MAX as usize);
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
        e.len(5);
        // (parent distance, id 1 more than the previous node's each time)
        for back in [None, Some(1), Some(1), Some(3), Some(2)] {
            e.var(zigzag(1));
            if let Some(back) = back {
                e.len(back);
            }
            e.label(Label::new("a"));
        }
        let bytes = e.into_bytes();
        let err = decode_tree(&mut Decoder::new(&bytes)).unwrap_err();
        assert_eq!(err, DecodeError::BadTree("node 4 breaks pre-order".into()));
    }

    #[test]
    fn a_parent_distance_of_zero_or_past_the_root_is_refused() {
        for back in [0, 2] {
            let mut e = Encoder::new();
            e.len(2);
            e.var(zigzag(1));
            e.label(Label::new("a"));
            e.var(zigzag(1));
            e.len(back);
            e.label(Label::new("a"));
            let bytes = e.into_bytes();
            let err = decode_tree(&mut Decoder::new(&bytes)).unwrap_err();
            assert_eq!(err, DecodeError::BadTree("node 1 breaks pre-order".into()), "{back}");
        }
    }

    #[test]
    fn varints_are_minimal_and_round_trip() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u32::MAX as u64, 5), (u64::MAX, 10)] {
            let mut e = Encoder::new();
            e.var(v);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len(), len, "{v}");
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.var(), Ok(v));
            d.finish().unwrap();
        }
        for d in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!((zigzag(1), zigzag(-1)), (2, 1));
    }

    #[test]
    fn overlong_and_overflowing_varints_are_refused() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(Decoder::new(&max).var(), Ok(u64::MAX));
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        let mut endless = vec![0x80; 10];
        endless.push(0x01);
        let overlong: [&[u8]; 3] = [&[0x80, 0x00], &[0x81, 0x80, 0x00], &[0xff, 0x00]];
        for bytes in overlong.into_iter().chain([&overflow[..], &endless[..]]) {
            assert_eq!(Decoder::new(bytes).var(), Err(DecodeError::BadVarint), "{bytes:02x?}");
        }
        assert_eq!(Decoder::new(&[0x80]).var(), Err(DecodeError::Truncated));
    }

    /// Nine nodes over two labels write each name once.
    #[test]
    fn a_frame_writes_each_label_name_once() {
        let tree = parse_term("ward(bed,bed,bed,bed(bed,bed),bed,bed)").unwrap();
        let mut e = Encoder::new();
        encode_tree(&mut e, &tree);
        let bytes = e.into_bytes();
        let count = |name: &[u8]| bytes.windows(name.len()).filter(|w| *w == name).count();
        assert_eq!((count(b"ward"), count(b"bed")), (1, 1));
        let mut d = Decoder::new(&bytes);
        assert_eq!(decode_tree(&mut d).unwrap().render(), tree.render());
        assert_eq!(d.labels.len(), 2, "the decoder's dictionary");
    }

    #[test]
    fn label_indices_past_the_dictionary_or_defined_twice_are_refused() {
        let mut e = Encoder::new();
        e.label(Label::new("a"));
        e.len(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.label(), Ok(Label::new("a")));
        assert_eq!(
            d.label(),
            Err(DecodeError::BadLabel("index 2 past a 1-label dictionary".into()))
        );

        let mut e = Encoder::new();
        e.label(Label::new("a"));
        e.len(1);
        e.str("a");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.label(), Ok(Label::new("a")));
        assert_eq!(d.label(), Err(DecodeError::BadLabel("`a` defined twice".into())));
    }

    #[test]
    fn set_entries_out_of_order_are_refused() {
        let a = Label::new("a");
        for gaps in [[5, 0], [5, u64::MAX]] {
            let mut e = Encoder::new();
            e.len(2);
            for gap in gaps {
                e.var(gap);
                e.label(a);
            }
            let bytes = e.into_bytes();
            let err = decode_set(&mut Decoder::new(&bytes)).unwrap_err();
            assert_eq!(err, DecodeError::BadSet("entry 1 out of order".into()), "{gaps:?}");
        }
    }

    /// A set with two entries of one id cannot be gap-coded: the frame
    /// is refused and the buffer left as it was.
    #[test]
    fn a_set_with_a_duplicate_id_is_refused_at_encode() {
        let n = |id, l| NodeRef { id: NodeId::from_raw(id), label: Label::new(l) };
        let set: BTreeSet<NodeRef> = [n(4, "a"), n(4, "b"), n(9, "a")].into();
        let mut buf = vec![7];
        assert_eq!(
            append_frame(&mut buf, |e| encode_set(e, &set)),
            Err(EncodeError::DuplicateId(4))
        );
        assert_eq!(buf, [7]);
    }

    #[test]
    fn a_constraint_text_off_its_canonical_form_is_refused() {
        let mut e = Encoder::new();
        e.str("(/patient,  ↑)");
        let bytes = e.into_bytes();
        assert!(matches!(
            decode_constraint(&mut Decoder::new(&bytes)),
            Err(DecodeError::BadConstraint(_))
        ));
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
