//! Property tests for the persistence codec: `encode ∘ decode = id` over
//! random trees, update batches, certificates, WAL records and document
//! snapshots — decode-rejects-corruption (a flipped bit anywhere in a WAL
//! file's frame region never produces a wrong record: the scan yields an
//! exact prefix of what was written) — a mutation fuzzer (snapshot
//! payloads and WAL frames mangled, overlong and overflowing varints
//! spliced in, then re-checksummed, so only the decoder stands between
//! them and recovery: each decodes to a typed error or to a value that
//! re-encodes to exactly the bytes it came from), and hand-built hostile
//! frames, one per way the dictionary frames can lie, each refused as its
//! own typed error without an allocation the input could not fill.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use xuc_core::{parse_constraint, Constraint};
use xuc_persist::codec::split_frame;
use xuc_persist::{
    checksum64, decode_tree, encode_tree, read_wal, DecodeError, Decoder, DocSnapshot, Encoder,
    StdFs, WalRecord, WalWriter,
};
use xuc_sigstore::{Certificate, Signer};
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

/// The system allocator, noting the largest single request each thread
/// makes: the hostile-frame test reads it around a decode.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; `note` only updates a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

const LABELS: &[&str] = &["a", "b", "visit", "patient", "note"];

const CONSTRAINTS: &[&str] = &[
    "(/patient/visit, ↑)",
    "(//visit, ↑)",
    "(/patient, ↓)",
    "(/patient[/visit], ↓)",
    "(//note, ↓)",
];

/// A random tree over a small alphabet: node `i ≥ 1` hangs under a random
/// earlier node, ids are explicit (`100 + i`) so round-trips are exact.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = DataTree> {
    (1..max_nodes).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let labels = proptest::collection::vec(0..LABELS.len(), n);
        (parents, labels).prop_map(|(parents, labels)| {
            let mut tree = DataTree::with_root_id(NodeId::from_raw(100), LABELS[labels[0]]);
            let mut ids = vec![tree.root_id()];
            for (i, p) in parents.iter().enumerate() {
                let id = NodeId::from_raw(101 + i as u64);
                tree.add_with_id(ids[*p], id, LABELS[labels[i + 1]]).unwrap();
                ids.push(id);
            }
            tree
        })
    })
}

fn update_strategy() -> impl Strategy<Value = Update> {
    (0..6usize, 0..40usize, 0..40usize, 0..LABELS.len()).prop_map(|(tag, a, b, l)| {
        let n = NodeId::from_raw(200 + a as u64);
        let m = NodeId::from_raw(200 + b as u64);
        let label = Label::new(LABELS[l]);
        match tag {
            0 => Update::InsertLeaf { parent: n, id: m, label },
            1 => Update::DeleteSubtree { node: n },
            2 => Update::DeleteNode { node: n },
            3 => Update::Move { node: n, new_parent: m },
            4 => Update::Relabel { node: n, label },
            _ => Update::ReplaceId { node: n, new_id: m },
        }
    })
}

/// A set of nodes of one tree: ids are unique (a later pair for an id
/// replaces an earlier one), as in every set a signer evaluates.
fn node_set_strategy() -> impl Strategy<Value = BTreeSet<NodeRef>> {
    proptest::collection::vec((0..60usize, 0..LABELS.len()), 0..12).prop_map(|pairs| {
        let by_id: BTreeMap<usize, usize> = pairs.into_iter().collect();
        by_id
            .into_iter()
            .map(|(id, l)| NodeRef {
                id: NodeId::from_raw(id as u64),
                label: Label::new(LABELS[l]),
            })
            .collect()
    })
}

/// A random but *authentic* chained certificate: real MACs under a random
/// key, random predecessor digest.
fn certificate_strategy() -> impl Strategy<Value = Certificate> {
    (
        proptest::collection::vec((0..CONSTRAINTS.len(), node_set_strategy()), 0..4),
        0..usize::MAX,
        0..usize::MAX,
    )
        .prop_map(|(ranges, key, prev)| {
            let (suite, sets): (Vec<Constraint>, Vec<BTreeSet<NodeRef>>) = ranges
                .into_iter()
                .map(|(c, set)| (parse_constraint(CONSTRAINTS[c]).unwrap(), set))
                .unzip();
            Signer::new(key as u64).certify_chained(&suite, &sets, prev as u64)
        })
}

fn record_strategy() -> BoxedStrategy<WalRecord> {
    let publish = (tree_strategy(12), proptest::collection::vec(0..CONSTRAINTS.len(), 0..4))
        .prop_map(|(tree, cs)| WalRecord::Publish {
            doc: "prop-doc".into(),
            tree,
            suite: cs.iter().map(|&c| parse_constraint(CONSTRAINTS[c]).unwrap()).collect(),
        })
        .boxed();
    let commit =
        (0..1000usize, proptest::collection::vec(update_strategy(), 0..6), certificate_strategy())
            .prop_map(|(commit, updates, cert)| WalRecord::Commit {
                doc: "prop-doc".into(),
                commit: commit as u64,
                updates,
                cert,
            })
            .boxed();
    Union::new(vec![publish, commit]).boxed()
}

fn snapshot_strategy() -> impl Strategy<Value = DocSnapshot<'static>> {
    (
        tree_strategy(12),
        proptest::collection::vec(0..CONSTRAINTS.len(), 0..4),
        0..10_000usize,
        (0..usize::MAX, 0..usize::MAX),
        0..usize::MAX,
    )
        .prop_map(|(tree, cs, commits, (prev, chain), tag)| DocSnapshot {
            doc: Cow::Borrowed("prop-doc"),
            commits: commits as u64,
            tree: Cow::Owned(tree),
            suite: cs.iter().map(|&c| parse_constraint(CONSTRAINTS[c]).unwrap()).collect(),
            prev_digest: prev as u64,
            chain_tag: chain as u64,
            tag: tag as u64,
        })
}

fn assert_snap_eq(a: &DocSnapshot, b: &DocSnapshot) {
    assert_eq!(a.doc, b.doc);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.tree.preorder_snapshot(), b.tree.preorder_snapshot());
    assert_eq!(a.suite, b.suite);
    assert_eq!((a.prev_digest, a.chain_tag, a.tag), (b.prev_digest, b.chain_tag, b.tag));
}

/// One byte-level mutation of an encoded payload: flip a bit, overwrite a
/// byte, delete a span, duplicate a span, insert a run of one byte, make
/// a varint overlong (a byte below `0x80`, a varint's last byte wherever
/// it ends one, gains a continuation and a zero byte), or splice in a
/// varint that overflows 64 bits.
#[derive(Debug, Clone)]
struct Mutation {
    op: usize,
    at: usize,
    span: usize,
    byte: u8,
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    let one = (0..7usize, 0..usize::MAX, 1..16usize, 0..256usize)
        .prop_map(|(op, at, span, byte)| Mutation { op, at, span, byte: byte as u8 });
    proptest::collection::vec(one, 1..4)
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            bytes.push(self.byte);
            return;
        }
        let at = self.at % bytes.len();
        let end = (at + self.span).min(bytes.len());
        match self.op {
            0 => bytes[at] ^= 1 << (self.byte % 8),
            1 => bytes[at] = self.byte,
            2 => drop(bytes.drain(at..end)),
            3 => {
                let dup = bytes[at..end].to_vec();
                bytes.splice(at..at, dup);
            }
            4 => drop(bytes.splice(at..at, std::iter::repeat_n(self.byte, self.span))),
            5 => {
                let Some(last) = (at..bytes.len()).find(|&i| bytes[i] < 0x80) else { return };
                bytes[last] |= 0x80;
                bytes.insert(last + 1, 0);
            }
            _ => {
                let mut overflow = vec![0xff; 9];
                overflow.push(2 + self.byte % 0x7e);
                bytes.splice(at..at, overflow);
            }
        }
    }
}

/// `payload` after `muts`, framed with a fresh length and checksum: the
/// frame reader accepts it, so only the decoder can refuse it.
fn mutated_frame(payload: &[u8], muts: &[Mutation]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    for m in muts {
        m.apply(&mut bytes);
    }
    let mut frame = (bytes.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&checksum64(&bytes).to_le_bytes());
    frame.extend_from_slice(&bytes);
    frame
}

/// Tallies the outcomes of a mutation fuzzer: decoded frames, and the
/// refusals by kind.
#[derive(Default, Debug)]
struct Outcomes {
    decoded: usize,
    refused: BTreeMap<&'static str, usize>,
}

impl Outcomes {
    fn refused(&mut self, e: &DecodeError) {
        let kind = match e {
            DecodeError::Truncated => "truncated",
            DecodeError::BadVarint => "varint",
            DecodeError::BadLabel(_) => "label",
            DecodeError::BadSet(_) => "set",
            DecodeError::BadTree(_) => "tree",
            DecodeError::BadConstraint(_) => "constraint",
            DecodeError::BadTag(_) => "tag",
            DecodeError::BadString => "string",
            DecodeError::TrailingBytes => "trailing",
            DecodeError::Checksum | DecodeError::BadMagic => "framing",
        };
        *self.refused.entry(kind).or_default() += 1;
    }

    /// Both arms ran, and each refusal kind in `kinds` occurred.
    fn assert_covers(&self, kinds: &[&str]) {
        assert!(self.decoded > 0, "{self:?}");
        for kind in kinds {
            assert!(self.refused.get(kind).is_some_and(|&n| n > 0), "no {kind} refusal: {self:?}");
        }
    }
}

proptest! {
    /// encode ∘ decode = id on WAL records (trees exact to sibling order,
    /// certificates field-for-field).
    #[test]
    fn wal_record_round_trip(rec in record_strategy()) {
        let payload = rec.encode();
        let back = WalRecord::decode(&payload).unwrap();
        prop_assert!(back == rec, "decode(encode(r)) != r");
    }

    /// encode ∘ decode = id on document snapshots.
    #[test]
    fn snapshot_round_trip(snap in snapshot_strategy()) {
        let back = DocSnapshot::decode(&snap.encode()).unwrap();
        assert_snap_eq(&snap, &back);
    }

    /// encode ∘ decode = id on trees whose arena carries free-listed
    /// holes: random subtree deletions punch slots onto the free list and
    /// interleaved re-insertions recycle some of them, so the encoded
    /// pre-order walk skips parked/free slots. The decoded tree must
    /// reproduce ids, labels and sibling order exactly (and comes back
    /// compacted: capacity == live).
    #[test]
    fn tree_with_free_listed_holes_round_trips(
        tree in tree_strategy(24),
        edits in proptest::collection::vec((0..24usize, 0..24usize, any::<bool>()), 1..10),
    ) {
        let mut churned = tree;
        for (i, (pick, parent_pick, delete)) in edits.iter().enumerate() {
            let ids = churned.node_ids();
            if *delete && ids.len() > 1 {
                let target = ids[1 + pick % (ids.len() - 1)];
                churned.delete_subtree(target).unwrap();
            } else {
                let parent = ids[parent_pick % ids.len()];
                let fresh = NodeId::from_raw(5_000 + i as u64);
                churned.add_with_id(parent, fresh, Label::new(LABELS[i % LABELS.len()])).unwrap();
            }
        }
        let mut e = Encoder::new();
        encode_tree(&mut e, &churned);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = decode_tree(&mut d).unwrap();
        prop_assert_eq!(back.preorder_snapshot(), churned.preorder_snapshot());
        prop_assert_eq!(back.render(), churned.render());
        prop_assert_eq!(back.len(), churned.len());
        // The decode rebuilds in pre-order over live nodes only, so the
        // round-tripped arena is dense again.
        prop_assert_eq!(back.slot_capacity(), back.len());
    }

    /// Any single-bit flip in a record's payload is rejected — either the
    /// decode fails structurally, or (for the framing layer) the checksum
    /// changes, so a framed reader can never accept the mangled payload as
    /// the original.
    #[test]
    fn bit_flip_never_round_trips(rec in record_strategy(), pos_seed in 0..usize::MAX, bit in 0..8usize) {
        let payload = rec.encode();
        let mut mangled = payload.clone();
        let pos = pos_seed % payload.len();
        mangled[pos] ^= 1 << bit;
        prop_assert!(
            xuc_persist::checksum64(&mangled) != xuc_persist::checksum64(&payload),
            "checksum must distinguish a flipped bit"
        );
        if let Ok(back) = WalRecord::decode(&mangled) {
            // Structurally decodable mangles exist (e.g. a flipped id
            // bit); they must decode to a *different* record — the frame
            // checksum is what rejects them on disk.
            prop_assert!(back != rec, "mangled payload decoded to the original record");
        }
    }
}

/// A mutated, re-checksummed snapshot payload decodes to a typed error or
/// to a snapshot that re-encodes to the very bytes it was decoded from.
/// Both outcomes occur, and overlong and overflowing varints, label
/// indices past the dictionary and counts past the input are among the
/// refusals, so no arm is dead.
#[test]
fn mutated_snapshot_payloads_decode_typed_or_exact() {
    let mut rng = proptest::test_runner::TestRng::deterministic("snapshot-fuzz");
    let (snaps, muts) = (snapshot_strategy(), mutations());
    let mut outcomes = Outcomes::default();
    for _ in 0..1024 {
        let frame = mutated_frame(&snaps.generate(&mut rng).encode(), &muts.generate(&mut rng));
        let (payload, rest) = split_frame(&frame).unwrap();
        assert!(rest.is_empty());
        match DocSnapshot::decode(payload) {
            Ok(back) => {
                assert_eq!(back.encode(), payload, "a decoded snapshot re-encodes to its bytes");
                outcomes.decoded += 1;
            }
            Err(e) => outcomes.refused(&e),
        }
    }
    outcomes.assert_covers(&["truncated", "varint", "label", "tree"]);
}

/// A mutated, re-checksummed WAL frame between two good ones: the scan
/// yields the first record, then either stops there as a torn tail or
/// yields exactly what the mutated payload decodes to and goes on. Every
/// decoded record re-encodes to exactly its payload, and the refusals
/// include signed sets out of order.
#[test]
fn mutated_wal_frames_decode_typed_or_exact() {
    let dir = std::env::temp_dir().join(format!("xuc-prop-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let mut rng = proptest::test_runner::TestRng::deterministic("wal-fuzz");
    let (records, muts) = (record_strategy(), mutations());
    let mut outcomes = Outcomes::default();
    for _ in 0..1024 {
        let rec = records.generate(&mut rng);
        let good = mutated_frame(&rec.encode(), &[]);
        let frame = mutated_frame(&rec.encode(), &muts.generate(&mut rng));
        let (payload, _) = split_frame(&frame).unwrap();
        let decoded = WalRecord::decode(payload);
        if let Ok(back) = &decoded {
            assert_eq!(back.encode(), payload, "a decoded record re-encodes to its bytes");
        }

        let _ = std::fs::remove_file(&path);
        drop(WalWriter::open(&path, 1).unwrap());
        let mut file = std::fs::read(&path).unwrap();
        for f in [&good, &frame, &good] {
            file.extend_from_slice(f);
        }
        std::fs::write(&path, &file).unwrap();
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(scan.records[0] == rec);
        match decoded {
            Ok(back) => {
                assert!(!scan.torn && scan.records.len() == 3 && scan.records[1] == back);
                outcomes.decoded += 1;
            }
            Err(e) => {
                assert!(scan.torn && scan.records.len() == 1);
                outcomes.refused(&e);
            }
        }
    }
    outcomes.assert_covers(&["truncated", "varint", "label", "set", "tree"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot payload whose tree section is `tree`: the name `d`, commit
/// 1, then the given bytes, an empty suite and the three anchor words.
fn snapshot_with_tree(tree: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str("d");
    e.var(1);
    tree(&mut e);
    e.len(0);
    for _ in 0..3 {
        e.u64(0);
    }
    e.into_bytes()
}

/// A commit record of document `d` whose sections after the commit
/// number are `body`.
fn commit_with(body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(2);
    e.str("d");
    e.var(1);
    body(&mut e);
    e.into_bytes()
}

/// A certificate header (digest, chain tag) and one entry on
/// `(/a, ↑)` whose set section is `set`.
fn one_entry_cert(e: &mut Encoder, set: impl FnOnce(&mut Encoder)) {
    e.u64(0);
    e.u64(0);
    e.len(1);
    e.str("(/a, ↑)");
    set(e);
    e.u64(0);
}

/// Hand-built hostile frames, one per way the dictionary frames can lie:
/// each decodes to its own typed error, and no decode makes an
/// allocation anywhere near what a hostile count asks for.
#[test]
fn hostile_frames_are_refused_as_typed_errors() {
    let a = Label::new("a");
    let root = |e: &mut Encoder| {
        e.len(1);
        e.var(2);
        e.label(a);
    };
    let snapshots: Vec<(&str, Vec<u8>, DecodeError)> = vec![
        (
            "overlong commit counter",
            {
                let mut e = Encoder::new();
                e.str("d");
                e.u8(0x81);
                e.u8(0x00);
                e.into_bytes()
            },
            DecodeError::BadVarint,
        ),
        (
            "overflowing node id",
            snapshot_with_tree(|e| {
                e.len(1);
                for _ in 0..9 {
                    e.u8(0xff);
                }
                e.u8(0x02);
                e.label(a);
            }),
            DecodeError::BadVarint,
        ),
        (
            "label index past the dictionary",
            snapshot_with_tree(|e| {
                e.len(1);
                e.var(2);
                e.len(1);
            }),
            DecodeError::BadLabel("index 1 past a 0-label dictionary".into()),
        ),
        (
            "a new label whose name the dictionary holds",
            snapshot_with_tree(|e| {
                e.len(2);
                e.var(2);
                e.label(a);
                e.var(2);
                e.len(1);
                e.len(1);
                e.str("a");
            }),
            DecodeError::BadLabel("`a` defined twice".into()),
        ),
        (
            "node count past the input",
            snapshot_with_tree(|e| {
                e.len(u32::MAX as usize);
                e.var(2);
                e.label(a);
            }),
            DecodeError::Truncated,
        ),
        (
            "constraint count past the input",
            {
                let mut e = Encoder::new();
                e.str("d");
                e.var(1);
                root(&mut e);
                e.len(1 << 30);
                e.into_bytes()
            },
            DecodeError::Truncated,
        ),
        (
            "name length past the input",
            {
                let mut e = Encoder::new();
                e.len(u32::MAX as usize);
                e.into_bytes()
            },
            DecodeError::Truncated,
        ),
    ];
    let commits: Vec<(&str, Vec<u8>, DecodeError)> = vec![
        (
            "set entries out of order",
            commit_with(|e| {
                e.len(0);
                one_entry_cert(e, |e| {
                    e.len(2);
                    for gap in [7, 0] {
                        e.var(gap);
                        e.label(a);
                    }
                });
            }),
            DecodeError::BadSet("entry 1 out of order".into()),
        ),
        (
            "set count past the input",
            commit_with(|e| {
                e.len(0);
                one_entry_cert(e, |e| e.len(u32::MAX as usize));
            }),
            DecodeError::Truncated,
        ),
        (
            "update count past the input",
            commit_with(|e| e.len(u32::MAX as usize)),
            DecodeError::Truncated,
        ),
        (
            "certificate entry count past the input",
            commit_with(|e| {
                e.len(0);
                e.u64(0);
                e.u64(0);
                e.len(u32::MAX as usize);
            }),
            DecodeError::Truncated,
        ),
        (
            "label index past the dictionary in an update",
            commit_with(|e| {
                e.len(1);
                e.u8(4);
                e.var(9);
                e.len(3);
            }),
            DecodeError::BadLabel("index 3 past a 0-label dictionary".into()),
        ),
        (
            "overlong update id",
            commit_with(|e| {
                e.len(1);
                e.u8(1);
                e.u8(0x89);
                e.u8(0x80);
                e.u8(0x00);
            }),
            DecodeError::BadVarint,
        ),
    ];
    type Decode = fn(&[u8]) -> Result<(), DecodeError>;
    let decoders: [(&str, Decode); 2] = [
        ("snapshot", |b| DocSnapshot::decode(b).map(drop)),
        ("commit", |b| WalRecord::decode(b).map(drop)),
    ];
    for ((kind, decode), cases) in decoders.into_iter().zip([snapshots, commits]) {
        for (case, payload, want) in cases {
            LARGEST.with(|l| l.set(0));
            let got = decode(&payload);
            let largest = LARGEST.with(Cell::get);
            assert_eq!(got, Err(want), "{kind}: {case}");
            assert!(largest <= 1 << 16, "{kind}: {case} allocated {largest} B");
        }
    }
}

/// Flipping any byte of a WAL file's frame region yields an exact prefix
/// of the written records — never a wrong record, never a crash.
#[test]
fn wal_file_corruption_yields_only_prefixes() {
    let dir = std::env::temp_dir().join(format!("xuc-prop-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");

    let mut rng = proptest::test_runner::TestRng::deterministic("wal-corruption");
    let strategy = record_strategy();
    let records: Vec<WalRecord> = (0..4).map(|_| strategy.generate(&mut rng)).collect();
    {
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
    }
    let clean = std::fs::read(&path).unwrap();
    let reference = read_wal(&StdFs, &path).unwrap();
    assert_eq!(reference.records, records);

    // Flip one byte at a spread of positions after the magic header.
    for step in 0..64 {
        let pos = 8 + (clean.len() - 9) * step / 63;
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&StdFs, &path).unwrap();
        assert!(scan.records.len() <= records.len(), "corruption at byte {pos} grew the log");
        for (a, b) in scan.records.iter().zip(&records) {
            assert!(a == b, "corruption at byte {pos} produced a wrong record");
        }
        assert!(scan.torn || scan.records.len() == records.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec's primitive layer refuses trailing garbage.
#[test]
fn trailing_bytes_rejected() {
    let mut e = Encoder::new();
    e.u64(7);
    let mut bytes = e.into_bytes();
    bytes.push(0);
    let mut d = Decoder::new(&bytes);
    assert_eq!(d.u64().unwrap(), 7);
    assert!(d.finish().is_err());
}
