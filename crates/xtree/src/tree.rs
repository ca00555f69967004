//! The unordered data tree (Def. 2.1).
//!
//! A [`DataTree`] is a slab arena of nodes in struct-of-arrays layout:
//! parallel dense vectors hold each slot's id, label, generation tag and
//! the four structural links (parent, first/last child, prev/next
//! sibling). Children form an intrusive sibling chain — there is no
//! per-node `Vec` — so traversal touches only dense arrays and inserting
//! or unlinking a child is O(1). The tree is semantically *unordered*:
//! structural comparison and hashing ignore sibling order, but all
//! operations preserve deterministic child order (insertion order, with
//! undo restoring exact positions) because deterministic consumers rely
//! on it.
//!
//! There is one deletion path: [`DataTree::detach_subtree`] and
//! [`DataTree::splice_node`] *park* the removed slots behind a restore
//! token, which an undo consumes (relinking right after the former
//! previous sibling, O(1)) or [`DataTree::free_detached`] /
//! [`DataTree::free_spliced`] gives up, putting the slots on the free
//! list (threaded through `next_sibling`) for reuse by later insertions;
//! `delete_subtree` and `delete_node` are park-then-free. Arena capacity
//! is bounded by the peak number of live-or-parked nodes — once every
//! token is consumed or freed, by the peak live count — never by the
//! total ever inserted.
//!
//! Every free bumps the slot's **generation tag**; restore tokens record
//! the generations of the slots they reference (the node, its parent,
//! its previous sibling, promoted children) and are rejected with
//! [`TreeError::StaleToken`] if any referenced slot has been recycled
//! since (ABA safety). `NodeId`s themselves are never recycled, so the
//! public id-keyed API needs no generation checks.
//!
//! The root is an ordinary node; the paper treats it specially only in the
//! query language (no predicates on the root), not in the data model.

use crate::label::Label;
use crate::node::NodeId;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

thread_local! {
    /// Per-thread count of full pre-order walks: every
    /// [`DataTree::for_each_preorder`] from the root (which
    /// [`DataTree::preorder_snapshot_into`] and its allocating wrapper
    /// run), plus every document-sized rebuild a snapshot holder reports
    /// through [`note_preorder_walk`]. Tests use the delta of
    /// [`preorder_walk_count`] to assert that edit-proportional refresh
    /// paths really do avoid O(n) re-walks; thread-local so concurrently
    /// running tests (or search shards) cannot inflate each other's
    /// deltas.
    static PREORDER_WALKS: Cell<u64> = const { Cell::new(0) };
}

/// The number of full pre-order snapshot walks performed so far **on the
/// calling thread**. Monotone; only deltas are meaningful.
pub fn preorder_walk_count() -> u64 {
    PREORDER_WALKS.with(Cell::get)
}

/// Records one full pre-order walk made outside the tree: a snapshot
/// holder that rebuilds a document-sized view from its own copy (the
/// XPath evaluator re-deriving its bitset rows from its replica) reports
/// it here, so no O(n) rebuild escapes [`preorder_walk_count`].
pub fn note_preorder_walk() {
    PREORDER_WALKS.with(|c| c.set(c.get() + 1));
}

/// Sentinel for "no slot" in the structural link arrays.
const NIL: u32 = u32::MAX;

/// A read-only view of a tree's arena slots, for snapshot holders that
/// sweep the link arrays directly (the XPath evaluator's replica). Links
/// hold slot indices or [`Slots::NIL`]. A free slot has no parent and is
/// not the root; a parked one (behind an undo token) keeps its links.
#[derive(Clone, Copy)]
pub struct Slots<'a> {
    pub ids: &'a [NodeId],
    pub labels: &'a [Label],
    pub parent: &'a [u32],
    pub first_child: &'a [u32],
    pub next_sibling: &'a [u32],
    pub root: u32,
}

impl Slots<'_> {
    /// "No slot": an absent parent, child or sibling.
    pub const NIL: u32 = NIL;
}

/// Errors raised by tree manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The referenced node id is not present in this tree.
    NodeNotFound(NodeId),
    /// The node id is already present in this tree (ids must be unique).
    DuplicateId(NodeId),
    /// The operation would detach or re-attach the root.
    RootImmovable,
    /// Moving `node` under `target` would create a cycle
    /// (`target` is a descendant of `node`).
    WouldCreateCycle { node: NodeId, target: NodeId },
    /// An undo token referenced an arena slot that has been freed (and
    /// possibly recycled for an unrelated node) since the token was
    /// issued. Consuming it would alias the recycled slot, so it is
    /// rejected instead; the tree is left untouched.
    StaleToken,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NodeNotFound(id) => write!(f, "node {id} not found in tree"),
            TreeError::DuplicateId(id) => write!(f, "node id {id} already present in tree"),
            TreeError::RootImmovable => write!(f, "the root node cannot be moved or removed"),
            TreeError::WouldCreateCycle { node, target } => {
                write!(f, "moving {node} under its descendant {target} would create a cycle")
            }
            TreeError::StaleToken => {
                write!(f, "undo token refers to an arena slot recycled since it was issued")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A lightweight view of a node: its id and label, as in the paper where a
/// node *is* the pair `(id, label)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    pub id: NodeId,
    pub label: Label,
}

/// Where a parked node goes back: under `parent`, right after `prev`
/// (`NIL` for a first child), each with its generation at issue time.
/// Under LIFO that is the exact former position, so undo is an exact
/// inverse, which the deterministic sharded search relies on.
#[derive(Debug)]
struct Anchor {
    parent: u32,
    parent_generation: u32,
    prev: u32,
    prev_generation: u32,
}

/// Opaque restore token for [`DataTree::detach_subtree`]. Valid only on
/// the issuing tree, consumed LIFO by [`DataTree::reattach_subtree`] or
/// given up by [`DataTree::free_detached`].
///
/// The token records the generation of every slot it references; if any
/// has been recycled in the meantime the reattach is rejected with
/// [`TreeError::StaleToken`] rather than corrupting the recycled node.
#[derive(Debug)]
pub struct DetachToken {
    slot: u32,
    generation: u32,
    anchor: Anchor,
}

/// Opaque restore token for [`DataTree::splice_node`]. Valid only on the
/// issuing tree, consumed LIFO by [`DataTree::unsplice_node`] or given up
/// by [`DataTree::free_spliced`]; stale tokens are rejected (see
/// [`DetachToken`]).
#[derive(Debug)]
pub struct SpliceToken {
    slot: u32,
    generation: u32,
    anchor: Anchor,
    /// The promoted children with their generations at splice time, in
    /// original child order.
    child_slots: Vec<(u32, u32)>,
    id: NodeId,
}

impl DetachToken {
    /// The detached subtree's root (for edit-scope reporting). A parked
    /// slot keeps its id, so this holds before and after the reattach.
    pub(crate) fn node_id(&self, tree: &DataTree) -> NodeId {
        tree.ids[self.slot as usize]
    }
}

impl SpliceToken {
    /// The spliced node's former parent (for edit-scope reporting).
    pub(crate) fn parent_id(&self, tree: &DataTree) -> NodeId {
        tree.ids[self.anchor.parent as usize]
    }

    /// The spliced node's id.
    pub(crate) fn node_id(&self) -> NodeId {
        self.id
    }

    /// The spliced node's first promoted child, if any, and the number of
    /// promoted children: they hang as one run of consecutive siblings
    /// under the former parent (for edit-scope reporting).
    pub(crate) fn promoted(&self, tree: &DataTree) -> (Option<NodeId>, usize) {
        let first = self.child_slots.first().map(|&(c, _)| tree.ids[c as usize]);
        (first, self.child_slots.len())
    }
}

/// Iterative pre-order walk over the sibling-chain arrays, confined to
/// the subtree rooted at `start`, calling `f(slot, depth)` with depth
/// counted from `start`: no recursion (stack-safe at any depth) and no
/// heap traffic. Free function (not a method) so callers holding disjoint
/// `&mut` borrows of other `DataTree` fields — e.g. the id index during
/// detach/reattach — can walk without allocating a slot buffer.
fn chain_walk(
    first_child: &[u32],
    next_sibling: &[u32],
    parent: &[u32],
    start: u32,
    f: &mut impl FnMut(u32, usize),
) {
    let (mut slot, mut depth) = (start, 0);
    loop {
        f(slot, depth);
        let fc = first_child[slot as usize];
        if fc != NIL {
            (slot, depth) = (fc, depth + 1);
            continue;
        }
        loop {
            if slot == start {
                return;
            }
            let ns = next_sibling[slot as usize];
            if ns != NIL {
                slot = ns;
                break;
            }
            (slot, depth) = (parent[slot as usize], depth - 1);
        }
    }
}

/// An unordered data tree with uniquely identified nodes, backed by a
/// generation-tagged slab arena in struct-of-arrays layout.
#[derive(Clone)]
pub struct DataTree {
    ids: Vec<NodeId>,
    labels: Vec<Label>,
    /// Generation tag per slot, bumped each time the slot is freed.
    generation: Vec<u32>,
    parent: Vec<u32>,
    first_child: Vec<u32>,
    last_child: Vec<u32>,
    prev_sibling: Vec<u32>,
    next_sibling: Vec<u32>,
    /// Head of the free list, threaded through `next_sibling`.
    free_head: u32,
    free_len: usize,
    root: u32,
    by_id: HashMap<NodeId, u32>,
    live: usize,
}

/// Non-allocating iterator over a node's children (in child-list order),
/// produced by [`DataTree::children_iter`].
pub struct ChildIds<'a> {
    tree: &'a DataTree,
    cursor: u32,
}

impl Iterator for ChildIds<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if self.cursor == NIL {
            return None;
        }
        let id = self.tree.ids[self.cursor as usize];
        self.cursor = self.tree.next_sibling[self.cursor as usize];
        Some(id)
    }
}

impl DataTree {
    /// Creates a tree consisting of a single root node with a fresh id.
    pub fn new(root_label: impl Into<Label>) -> Self {
        Self::with_root_id(NodeId::fresh(), root_label)
    }

    /// Creates a tree consisting of a single root node with the given id.
    pub fn with_root_id(id: NodeId, root_label: impl Into<Label>) -> Self {
        let mut t = DataTree::unfilled();
        t.root = t.alloc(id, root_label.into());
        t.by_id.insert(id, t.root);
        t.live = 1;
        t
    }

    /// A copy of `self` packed in pre-order (see
    /// [`copy_packed_from`](Self::copy_packed_from)).
    pub fn packed_copy(&self) -> DataTree {
        let mut t = DataTree::unfilled();
        t.copy_packed_from(self);
        t
    }

    /// An arena with no slot at all, not even a root: only a fill that
    /// allocates the root may follow.
    fn unfilled() -> DataTree {
        DataTree {
            ids: Vec::new(),
            labels: Vec::new(),
            generation: Vec::new(),
            parent: Vec::new(),
            first_child: Vec::new(),
            last_child: Vec::new(),
            prev_sibling: Vec::new(),
            next_sibling: Vec::new(),
            free_head: NIL,
            free_len: 0,
            root: 0,
            by_id: HashMap::new(),
            live: 0,
        }
    }

    fn slot(&self, id: NodeId) -> Result<u32, TreeError> {
        self.by_id.get(&id).copied().ok_or(TreeError::NodeNotFound(id))
    }

    fn ref_at(&self, slot: u32) -> NodeRef {
        NodeRef { id: self.ids[slot as usize], label: self.labels[slot as usize] }
    }

    /// Takes a slot off the free list (or grows the arrays) and
    /// initialises it as a childless node; the caller links it.
    fn alloc(&mut self, id: NodeId, label: Label) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = slot as usize;
            self.free_head = self.next_sibling[s];
            self.free_len -= 1;
            self.ids[s] = id;
            self.labels[s] = label;
            self.parent[s] = NIL;
            self.first_child[s] = NIL;
            self.last_child[s] = NIL;
            self.prev_sibling[s] = NIL;
            self.next_sibling[s] = NIL;
            slot
        } else {
            let slot = self.ids.len() as u32;
            assert!(slot != NIL, "arena full (u32::MAX slots)");
            self.ids.push(id);
            self.labels.push(label);
            self.generation.push(0);
            self.parent.push(NIL);
            self.first_child.push(NIL);
            self.last_child.push(NIL);
            self.prev_sibling.push(NIL);
            self.next_sibling.push(NIL);
            slot
        }
    }

    /// Returns a slot to the free list, bumping its generation so any
    /// outstanding token referencing it becomes stale.
    fn free_slot(&mut self, slot: u32) {
        let s = slot as usize;
        self.generation[s] = self.generation[s].wrapping_add(1);
        self.parent[s] = NIL;
        self.first_child[s] = NIL;
        self.last_child[s] = NIL;
        self.prev_sibling[s] = NIL;
        self.next_sibling[s] = self.free_head;
        self.free_head = slot;
        self.free_len += 1;
    }

    /// Appends `slot` at the end of `parent`'s child chain.
    fn link_last(&mut self, parent: u32, slot: u32) {
        self.link_after(parent, self.last_child[parent as usize], slot);
    }

    /// Links `slot` into `parent`'s child chain right after `prev` (a
    /// child of `parent`), or first when `prev` is `NIL`. O(1).
    fn link_after(&mut self, parent: u32, prev: u32, slot: u32) {
        let (p, s) = (parent as usize, slot as usize);
        let next = if prev == NIL { self.first_child[p] } else { self.next_sibling[prev as usize] };
        self.parent[s] = parent;
        self.prev_sibling[s] = prev;
        self.next_sibling[s] = next;
        if prev == NIL {
            self.first_child[p] = slot;
        } else {
            self.next_sibling[prev as usize] = slot;
        }
        if next == NIL {
            self.last_child[p] = slot;
        } else {
            self.prev_sibling[next as usize] = slot;
        }
    }

    /// The position `slot` holds now, for a restore token.
    fn anchor(&self, slot: u32) -> Anchor {
        let (parent, prev) = (self.parent[slot as usize], self.prev_sibling[slot as usize]);
        Anchor {
            parent,
            parent_generation: self.generation[parent as usize],
            prev,
            prev_generation: if prev == NIL { 0 } else { self.generation[prev as usize] },
        }
    }

    /// Can a token relink at `a`? Neither slot may have been recycled,
    /// and the previous sibling must still hang in `a.parent`'s child
    /// chain — always so under LIFO, where the tree at undo time is the
    /// tree right after the edit.
    fn anchor_holds(&self, a: &Anchor) -> bool {
        let (parent, prev) = (a.parent as usize, a.prev as usize);
        let prev_holds = a.prev == NIL
            || (self.generation[prev] == a.prev_generation
                && self.parent[prev] == a.parent
                && (self.prev_sibling[prev] != NIL || self.first_child[parent] == a.prev));
        self.generation[parent] == a.parent_generation && prev_holds
    }

    /// Unlinks `slot` from its parent's child chain (parent pointer is
    /// left as-is; the caller relinks or frees).
    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let p = self.parent[s] as usize;
        let prev = self.prev_sibling[s];
        let next = self.next_sibling[s];
        if prev == NIL {
            self.first_child[p] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next == NIL {
            self.last_child[p] = prev;
        } else {
            self.prev_sibling[next as usize] = prev;
        }
        self.prev_sibling[s] = NIL;
        self.next_sibling[s] = NIL;
    }

    fn child_slot_iter(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.first_child[slot as usize];
        std::iter::successors((first != NIL).then_some(first), move |&c| {
            let n = self.next_sibling[c as usize];
            (n != NIL).then_some(n)
        })
    }

    fn walk_slots(&self, start: u32, f: &mut impl FnMut(u32)) {
        self.walk_depth_from(start, &mut |s, _| f(s));
    }

    /// [`chain_walk`] of `start`'s subtree, for depth-aware consumers
    /// (height, rendering, [`for_each_preorder`](Self::for_each_preorder)).
    fn walk_depth_from(&self, start: u32, f: &mut impl FnMut(u32, usize)) {
        chain_walk(&self.first_child, &self.next_sibling, &self.parent, start, f);
    }

    /// Registers (`attach`) or unregisters the ids of `slot`'s subtree in
    /// the id index and moves them into or out of the live count: the
    /// O(subtree) half of a reattach, a detach or a graft.
    fn index_subtree(&mut self, slot: u32, attach: bool) {
        let Self { ref first_child, ref next_sibling, ref parent, ref ids, ref mut by_id, .. } =
            *self;
        let mut count = 0;
        chain_walk(first_child, next_sibling, parent, slot, &mut |s, _| {
            let id = ids[s as usize];
            if attach {
                let clash = by_id.insert(id, s);
                debug_assert!(clash.is_none(), "id {id} registered while already live");
            } else {
                by_id.remove(&id);
            }
            count += 1;
        });
        if attach {
            self.live += count;
        } else {
            self.live -= count;
        }
    }

    /// The arena's slots, read-only (see [`Slots`]).
    pub fn slots(&self) -> Slots<'_> {
        Slots {
            ids: &self.ids,
            labels: &self.labels,
            parent: &self.parent,
            first_child: &self.first_child,
            next_sibling: &self.next_sibling,
            root: self.root,
        }
    }

    /// The slot holding `id`, if live.
    pub fn slot_of(&self, id: NodeId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    /// Makes `self` a copy of `src` packed in pre-order — slot `i` holds
    /// the `i`-th node of the walk, the root slot 0, no free slot —
    /// reusing `self`'s allocations. One full pre-order walk of `src`;
    /// unlike `clone()`, the copy never inherits `src`'s free slots or
    /// slot order.
    pub fn copy_packed_from(&mut self, src: &DataTree) {
        let n = src.live;
        for v in [
            &mut self.generation,
            &mut self.parent,
            &mut self.first_child,
            &mut self.last_child,
            &mut self.prev_sibling,
            &mut self.next_sibling,
        ] {
            v.clear();
            v.reserve(n);
        }
        self.ids.clear();
        self.ids.reserve(n);
        self.labels.clear();
        self.labels.reserve(n);
        self.by_id.clear();
        self.by_id.reserve(n);
        (self.free_head, self.free_len, self.live) = (NIL, 0, n);
        note_preorder_walk();
        self.root = self.append_copy(NIL, src, src.root, false);
        // Slots are handed out in order, so the index fills in one pass.
        self.by_id.extend(self.ids.iter().zip(0..).map(|(&id, slot)| (id, slot)));
    }

    /// The root node's id.
    pub fn root_id(&self) -> NodeId {
        self.ids[self.root as usize]
    }

    /// The root node's label.
    pub fn root_label(&self) -> Label {
        self.labels[self.root as usize]
    }

    /// Number of live nodes (including the root).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff the tree consists of the root only.
    pub fn is_empty(&self) -> bool {
        self.live == 1
    }

    /// Total arena slots allocated (live + parked + free-listed). Bounded
    /// by the peak live-node count under churn — the free list reuses
    /// deleted slots — which is what the leak-regression tests assert.
    pub fn slot_capacity(&self) -> usize {
        self.ids.len()
    }

    /// Slots currently on the free list, awaiting reuse.
    pub fn free_slots(&self) -> usize {
        self.free_len
    }

    /// Does this tree contain a node with this id?
    pub fn contains(&self, id: NodeId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The label of `id`.
    pub fn label(&self, id: NodeId) -> Result<Label, TreeError> {
        Ok(self.labels[self.slot(id)? as usize])
    }

    /// The node view `(id, label)` of `id`.
    pub fn node(&self, id: NodeId) -> Result<NodeRef, TreeError> {
        Ok(self.ref_at(self.slot(id)?))
    }

    /// The parent of `id`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Result<Option<NodeId>, TreeError> {
        let p = self.parent[self.slot(id)? as usize];
        Ok((p != NIL).then(|| self.ids[p as usize]))
    }

    /// The sibling just before `id` in its parent's child list (`None`
    /// for a first child or the root). O(1) whatever the fan-out.
    pub fn prev_sibling(&self, id: NodeId) -> Result<Option<NodeId>, TreeError> {
        let p = self.prev_sibling[self.slot(id)? as usize];
        Ok((p != NIL).then(|| self.ids[p as usize]))
    }

    /// The sibling just after `id` in its parent's child list (`None` for
    /// a last child or the root). O(1) whatever the fan-out.
    pub fn next_sibling(&self, id: NodeId) -> Result<Option<NodeId>, TreeError> {
        let n = self.next_sibling[self.slot(id)? as usize];
        Ok((n != NIL).then(|| self.ids[n as usize]))
    }

    /// Child ids of `id` (order is incidental; the tree is unordered).
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`children_iter`](Self::children_iter) or
    /// [`for_each_child`](Self::for_each_child).
    pub fn children(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        Ok(self.children_iter(id)?.collect())
    }

    /// Non-allocating iterator over the children of `id`, in child-list
    /// order (the same order [`children`](Self::children) returns).
    pub fn children_iter(&self, id: NodeId) -> Result<ChildIds<'_>, TreeError> {
        let slot = self.slot(id)?;
        Ok(ChildIds { tree: self, cursor: self.first_child[slot as usize] })
    }

    /// Calls `f` with each child's `(id, label)` view, in child-list
    /// order, without allocating.
    pub fn for_each_child(&self, id: NodeId, mut f: impl FnMut(NodeRef)) -> Result<(), TreeError> {
        let slot = self.slot(id)?;
        let mut c = self.first_child[slot as usize];
        while c != NIL {
            f(self.ref_at(c));
            c = self.next_sibling[c as usize];
        }
        Ok(())
    }

    /// All node views, root first, in depth-first order.
    pub fn nodes(&self) -> Vec<NodeRef> {
        let mut out = Vec::with_capacity(self.live);
        self.walk_slots(self.root, &mut |s| out.push(self.ref_at(s)));
        out
    }

    /// All node ids, root first, in depth-first order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.live);
        self.walk_slots(self.root, &mut |s| out.push(self.ids[s as usize]));
        out
    }

    /// Pre-order traversal as `(id, label, parent_index)` triples, where
    /// `parent_index` points at an earlier entry of the returned vector
    /// (`None` for the root). This is the bulk-export used by evaluation
    /// engines to build dense snapshots in one pass, without per-node
    /// id lookups.
    pub fn preorder_snapshot(&self) -> Vec<(NodeId, Label, Option<usize>)> {
        let mut out = Vec::with_capacity(self.live);
        self.preorder_snapshot_into(&mut out);
        out
    }

    /// Like [`preorder_snapshot`](Self::preorder_snapshot), but fills a
    /// caller-owned buffer (cleared first) so repeated snapshots reuse
    /// one heap allocation instead of allocating a fresh triple `Vec` per
    /// call.
    pub fn preorder_snapshot_into(&self, out: &mut Vec<(NodeId, Label, Option<usize>)>) {
        out.clear();
        out.reserve(self.live);
        // Output indices of the current root path; `last()` is the
        // parent index for the node being emitted.
        let mut ancestors: Vec<usize> = Vec::new();
        self.for_each_preorder(self.root_id(), |id, label, depth| {
            ancestors.truncate(depth);
            ancestors.push(out.len());
            out.push((id, label, depth.checked_sub(1).map(|d| ancestors[d])));
        })
        .expect("the root is live");
    }

    /// Calls `f(id, label, depth)` for every node of `id`'s subtree
    /// (inclusive) in pre-order, `depth` counted from `id` (0 for `id`
    /// itself), and returns the number of nodes visited. A node's parent
    /// is the last node visited at `depth - 1`, so a caller can rebuild
    /// the subtree's links with a stack of height-many entries.
    ///
    /// Implemented as an iterative sibling-chain walk over the dense
    /// arrays: no recursion (stack-safe at any depth) and no heap
    /// traffic. A walk from the root counts as one full pre-order walk
    /// ([`preorder_walk_count`]); a walk below it costs its subtree.
    pub fn for_each_preorder(
        &self,
        id: NodeId,
        mut f: impl FnMut(NodeId, Label, usize),
    ) -> Result<usize, TreeError> {
        let start = self.slot(id)?;
        if start == self.root {
            note_preorder_walk();
        }
        let mut visited = 0;
        self.walk_depth_from(start, &mut |slot, depth| {
            f(self.ids[slot as usize], self.labels[slot as usize], depth);
            visited += 1;
        });
        Ok(visited)
    }

    /// Depth of `id`: the root has depth 0.
    pub fn depth(&self, id: NodeId) -> Result<usize, TreeError> {
        let mut slot = self.slot(id)?;
        let mut depth = 0;
        while self.parent[slot as usize] != NIL {
            slot = self.parent[slot as usize];
            depth += 1;
        }
        Ok(depth)
    }

    /// Maximum depth over all nodes.
    pub fn height(&self) -> usize {
        let mut max = 0;
        self.walk_depth_from(self.root, &mut |_, d| max = max.max(d));
        max
    }

    /// Is `anc` a proper ancestor of `desc`?
    pub fn is_proper_ancestor(&self, anc: NodeId, desc: NodeId) -> Result<bool, TreeError> {
        let anc_slot = self.slot(anc)?;
        let mut slot = self.slot(desc)?;
        while self.parent[slot as usize] != NIL {
            slot = self.parent[slot as usize];
            if slot == anc_slot {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Labels on the path from the root's *child* down to `id`, i.e. the
    /// root label is excluded. For the root itself this is empty. This is
    /// the string relevant to linear-path query membership.
    pub fn label_path(&self, id: NodeId) -> Result<Vec<Label>, TreeError> {
        let mut slot = self.slot(id)?;
        let mut path = Vec::new();
        while self.parent[slot as usize] != NIL {
            path.push(self.labels[slot as usize]);
            slot = self.parent[slot as usize];
        }
        path.reverse();
        Ok(path)
    }

    /// Ids on the path root → `id`, inclusive of both ends.
    pub fn id_path(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        let mut slot = self.slot(id)?;
        let mut path = vec![self.ids[slot as usize]];
        while self.parent[slot as usize] != NIL {
            slot = self.parent[slot as usize];
            path.push(self.ids[slot as usize]);
        }
        path.reverse();
        Ok(path)
    }

    /// Inserts a new leaf with a fresh id under `parent`.
    pub fn add(&mut self, parent: NodeId, label: impl Into<Label>) -> Result<NodeId, TreeError> {
        self.add_with_id(parent, NodeId::fresh(), label)
    }

    /// Inserts a new leaf with an explicit id under `parent`.
    pub fn add_with_id(
        &mut self,
        parent: NodeId,
        id: NodeId,
        label: impl Into<Label>,
    ) -> Result<NodeId, TreeError> {
        let p = self.slot(parent)?;
        self.insert_after(p, self.last_child[p as usize], id, label.into())
    }

    /// Inserts a new leaf with an explicit id under `parent`, right after
    /// its child `prev` (first when `None`). O(1) whatever the fan-out.
    /// Fails with [`TreeError::NodeNotFound`] for a `prev` that is not a
    /// child of `parent`.
    pub fn add_after(
        &mut self,
        parent: NodeId,
        prev: Option<NodeId>,
        id: NodeId,
        label: impl Into<Label>,
    ) -> Result<NodeId, TreeError> {
        let p = self.slot(parent)?;
        let after = match prev {
            None => NIL,
            Some(prev) => match self.by_id.get(&prev) {
                Some(&s) if self.parent[s as usize] == p => s,
                _ => return Err(TreeError::NodeNotFound(prev)),
            },
        };
        self.insert_after(p, after, id, label.into())
    }

    #[inline]
    fn insert_after(
        &mut self,
        parent: u32,
        prev: u32,
        id: NodeId,
        label: Label,
    ) -> Result<NodeId, TreeError> {
        if self.by_id.contains_key(&id) {
            return Err(TreeError::DuplicateId(id));
        }
        let slot = self.alloc(id, label);
        self.link_after(parent, prev, slot);
        self.by_id.insert(id, slot);
        self.live += 1;
        Ok(id)
    }

    /// Changes the label of `id` (a "modification of label" update).
    pub fn relabel(&mut self, id: NodeId, label: impl Into<Label>) -> Result<(), TreeError> {
        let slot = self.slot(id)?;
        self.labels[slot as usize] = label.into();
        Ok(())
    }

    /// Replaces the node `id` by a new node with `new_id` (same label, same
    /// position, same children). This is the `I[n → n']` operation used in
    /// the proof of Theorem 3.1.
    pub fn replace_id(&mut self, id: NodeId, new_id: NodeId) -> Result<(), TreeError> {
        let slot = self.slot(id)?;
        if self.by_id.contains_key(&new_id) {
            return Err(TreeError::DuplicateId(new_id));
        }
        self.by_id.remove(&id);
        self.by_id.insert(new_id, slot);
        self.ids[slot as usize] = new_id;
        Ok(())
    }

    /// Deletes the subtree rooted at `id` (the root cannot be deleted):
    /// [`detach_subtree`](Self::detach_subtree), then
    /// [`free_detached`](Self::free_detached). Freed slots go on the free
    /// list for reuse by later insertions.
    pub fn delete_subtree(&mut self, id: NodeId) -> Result<(), TreeError> {
        let token = self.detach_subtree(id)?;
        self.free_detached(token);
        Ok(())
    }

    /// Deletes the node `id` only, promoting its children to the end of
    /// its parent's child list ("splice out"):
    /// [`splice_node`](Self::splice_node), then
    /// [`free_spliced`](Self::free_spliced).
    pub fn delete_node(&mut self, id: NodeId) -> Result<(), TreeError> {
        let token = self.splice_node(id)?;
        self.free_spliced(token);
        Ok(())
    }

    /// Moves the subtree rooted at `id` under `new_parent`.
    pub fn move_node(&mut self, id: NodeId, new_parent: NodeId) -> Result<(), TreeError> {
        let slot = self.slot(id)?;
        let target = self.slot(new_parent)?;
        if slot == self.root {
            return Err(TreeError::RootImmovable);
        }
        // Walk up from the target; hitting `slot` means `new_parent` lies in
        // the subtree being moved.
        let mut cursor = target;
        loop {
            if cursor == slot {
                return Err(TreeError::WouldCreateCycle { node: id, target: new_parent });
            }
            if self.parent[cursor as usize] == NIL {
                break;
            }
            cursor = self.parent[cursor as usize];
        }
        self.unlink(slot);
        self.link_last(target, slot);
        Ok(())
    }

    /// Moves `id` under `new_parent`, right after `prev` (first when
    /// `None`): the undo of a move puts the node back after its former
    /// previous sibling, and a replica follows a move, in O(depth) for
    /// the cycle check and O(1) whatever the fan-out. Fails with
    /// [`TreeError::StaleToken`], the tree untouched, if `prev` is `id`
    /// or not a child of `new_parent` (a LIFO violation).
    pub fn move_after(
        &mut self,
        id: NodeId,
        new_parent: NodeId,
        prev: Option<NodeId>,
    ) -> Result<(), TreeError> {
        let (slot, target) = (self.slot(id)?, self.slot(new_parent)?);
        let prev = prev.map_or(Ok(NIL), |p| self.slot(p))?;
        if prev != NIL && (prev == slot || self.parent[prev as usize] != target) {
            return Err(TreeError::StaleToken);
        }
        self.move_node(id, new_parent)?;
        self.unlink(slot);
        self.link_after(target, prev, slot);
        Ok(())
    }

    /// Detaches the subtree rooted at `id` without destroying it: the
    /// subtree's nodes stay in the arena but become unreachable and their
    /// ids are unregistered, so the tree behaves exactly as after
    /// [`delete_subtree`](Self::delete_subtree). The returned token
    /// restores the subtree via [`reattach_subtree`](Self::reattach_subtree)
    /// or frees it via [`free_detached`](Self::free_detached).
    ///
    /// This is the undoable half of subtree deletion used by clone-free
    /// candidate search: apply → evaluate → reattach, no tree copies.
    /// Parked slots are not on the free list, so they cannot be recycled
    /// out from under the token. Cost: the subtree, never the fan-out.
    ///
    /// Tokens are only valid on the tree that issued them and must be
    /// consumed LIFO with respect to other undoable edits; while a subtree
    /// is detached, re-inserting one of its node ids is the caller's bug
    /// (checked on reattach in debug builds).
    pub fn detach_subtree(&mut self, id: NodeId) -> Result<DetachToken, TreeError> {
        let slot = self.slot(id)?;
        if slot == self.root {
            return Err(TreeError::RootImmovable);
        }
        let anchor = self.anchor(slot);
        self.index_subtree(slot, false);
        self.unlink(slot);
        Ok(DetachToken { slot, generation: self.generation[slot as usize], anchor })
    }

    /// Restores a subtree detached by [`detach_subtree`](Self::detach_subtree)
    /// right after its former previous sibling — under LIFO its original
    /// position in the parent's child list, so undo is an exact inverse,
    /// not merely an isomorphic one. O(subtree).
    ///
    /// Fails with [`TreeError::StaleToken`] (leaving the tree untouched)
    /// if the subtree's own slot, its former parent's or its former
    /// previous sibling's was freed and recycled after the token was
    /// issued, or if that sibling no longer hangs under the parent.
    pub fn reattach_subtree(&mut self, token: DetachToken) -> Result<(), TreeError> {
        let DetachToken { slot, generation, anchor } = token;
        if self.generation[slot as usize] != generation || !self.anchor_holds(&anchor) {
            return Err(TreeError::StaleToken);
        }
        self.index_subtree(slot, true);
        self.link_after(anchor.parent, anchor.prev, slot);
        Ok(())
    }

    /// Gives up a detached subtree for good: its parked slots go on the
    /// free list, generations bumped, for reuse by later insertions. The
    /// second half of [`delete_subtree`](Self::delete_subtree). O(subtree).
    ///
    /// Panics on a token this tree did not issue: only its own token can
    /// free a parked slot, so the slot's generation cannot have moved on.
    pub fn free_detached(&mut self, token: DetachToken) {
        assert_eq!(self.generation[token.slot as usize], token.generation, "foreign token");
        // Collect before freeing: free-list threading reuses the
        // `next_sibling` cells the walk still needs.
        let mut doomed = Vec::new();
        self.walk_slots(token.slot, &mut |s| doomed.push(s));
        for s in doomed {
            self.free_slot(s);
        }
    }

    /// Splices out node `id` without destroying it: its children are
    /// promoted to the end of its parent's child list and the node becomes
    /// unreachable, exactly as after [`delete_node`](Self::delete_node).
    /// The returned token restores it via
    /// [`unsplice_node`](Self::unsplice_node) or frees its slot via
    /// [`free_spliced`](Self::free_spliced); the same LIFO discipline as
    /// [`detach_subtree`](Self::detach_subtree) applies. Cost: the
    /// promoted children, never the fan-out of the parent.
    pub fn splice_node(&mut self, id: NodeId) -> Result<SpliceToken, TreeError> {
        let slot = self.slot(id)?;
        if slot == self.root {
            return Err(TreeError::RootImmovable);
        }
        let anchor = self.anchor(slot);
        let child_slots: Vec<(u32, u32)> =
            self.child_slot_iter(slot).map(|c| (c, self.generation[c as usize])).collect();
        self.unlink(slot);
        for &(c, _) in &child_slots {
            self.link_last(anchor.parent, c);
        }
        self.first_child[slot as usize] = NIL;
        self.last_child[slot as usize] = NIL;
        self.by_id.remove(&id);
        self.live -= 1;
        let generation = self.generation[slot as usize];
        Ok(SpliceToken { slot, generation, anchor, child_slots, id })
    }

    /// Restores a node spliced out by [`splice_node`](Self::splice_node)
    /// right after its former previous sibling, and re-adopts its promoted
    /// children (see [`reattach_subtree`](Self::reattach_subtree)).
    /// O(promoted children).
    ///
    /// Fails with [`TreeError::StaleToken`] (leaving the tree untouched)
    /// if the node's former slot, its former parent's, its former previous
    /// sibling's or any promoted child's was freed and recycled after the
    /// token was issued, or if that sibling no longer hangs under the
    /// parent.
    pub fn unsplice_node(&mut self, token: SpliceToken) -> Result<(), TreeError> {
        let SpliceToken { slot, generation, anchor, child_slots, id } = token;
        if self.generation[slot as usize] != generation
            || !self.anchor_holds(&anchor)
            || child_slots.iter().any(|&(c, g)| self.generation[c as usize] != g)
        {
            return Err(TreeError::StaleToken);
        }
        self.link_after(anchor.parent, anchor.prev, slot);
        for &(c, _) in &child_slots {
            debug_assert_eq!(
                self.parent[c as usize], anchor.parent,
                "promoted child moved while its parent was spliced out (LIFO violation)"
            );
            self.unlink(c);
            self.link_last(slot, c);
        }
        debug_assert!(
            !self.by_id.contains_key(&id),
            "id {id} was re-inserted while its node was spliced out"
        );
        self.by_id.insert(id, slot);
        self.live += 1;
        Ok(())
    }

    /// Gives up a spliced-out node for good: its parked slot goes on the
    /// free list, generation bumped. The second half of
    /// [`delete_node`](Self::delete_node). O(1). Panics on a token this
    /// tree did not issue (see [`free_detached`](Self::free_detached)).
    pub fn free_spliced(&mut self, token: SpliceToken) {
        assert_eq!(self.generation[token.slot as usize], token.generation, "foreign token");
        self.free_slot(token.slot);
    }

    /// Grafts a copy of the subtree of `other` rooted at `src` under
    /// `parent`, **preserving node ids**. Fails if any id would collide.
    pub fn graft_subtree(
        &mut self,
        parent: NodeId,
        other: &DataTree,
        src: NodeId,
    ) -> Result<NodeId, TreeError> {
        self.graft_inner(parent, other, src, false)
    }

    /// Grafts a copy of the subtree of `other` rooted at `src` under
    /// `parent`, **minting fresh ids** for every copied node (the paper's
    /// notion of a *copy*: same structure and labels, fresh ids).
    pub fn graft_copy(
        &mut self,
        parent: NodeId,
        other: &DataTree,
        src: NodeId,
    ) -> Result<NodeId, TreeError> {
        self.graft_inner(parent, other, src, true)
    }

    fn graft_inner(
        &mut self,
        parent: NodeId,
        other: &DataTree,
        src: NodeId,
        fresh: bool,
    ) -> Result<NodeId, TreeError> {
        let src_slot = other.slot(src)?;
        // Pre-validate id uniqueness when preserving ids so that a failed
        // graft leaves `self` untouched.
        if !fresh {
            let mut clash = None;
            other.walk_slots(src_slot, &mut |s| {
                let sid = other.ids[s as usize];
                if clash.is_none() && self.by_id.contains_key(&sid) {
                    clash = Some(sid);
                }
            });
            if let Some(id) = clash {
                return Err(TreeError::DuplicateId(id));
            }
        }
        let top = self.append_copy(self.slot(parent)?, other, src_slot, fresh);
        self.index_subtree(top, true);
        Ok(self.ids[top as usize])
    }

    /// Appends a pre-order copy of `other`'s subtree at slot `src` as the
    /// last child of slot `parent` (as a root when `parent` is `NIL`),
    /// keeping `other`'s ids or minting fresh ones. Returns the copy's
    /// top slot; the caller registers the ids, which it has made sure are
    /// new here.
    fn append_copy(&mut self, parent: u32, other: &DataTree, src: u32, fresh: bool) -> u32 {
        // `path[d]`: the copy of the current root path's node at depth `d`.
        let mut path: Vec<u32> = Vec::new();
        other.walk_depth_from(src, &mut |s, depth| {
            path.truncate(depth);
            let id = if fresh { NodeId::fresh() } else { other.ids[s as usize] };
            let slot = self.alloc(id, other.labels[s as usize]);
            let p = path.last().copied().unwrap_or(parent);
            if p != NIL {
                self.link_last(p, slot);
            }
            path.push(slot);
        });
        path[0]
    }

    /// The refs of the subtree rooted at `id` (inclusive), in pre-order.
    /// Cost proportional to the subtree — this is how a session captures
    /// what a pending deletion is about to remove (for
    /// [`DirtyRegion::record_removals`](crate::DirtyRegion::record_removals))
    /// without snapshotting the document.
    pub fn subtree_nodes(&self, id: NodeId) -> Result<Vec<NodeRef>, TreeError> {
        let slot = self.slot(id)?;
        let mut out = Vec::new();
        self.walk_slots(slot, &mut |s| out.push(self.ref_at(s)));
        Ok(out)
    }

    /// Extracts the subtree rooted at `id` as a standalone tree
    /// (ids preserved).
    pub fn subtree(&self, id: NodeId) -> Result<DataTree, TreeError> {
        let slot = self.slot(id)?;
        let mut out = DataTree::with_root_id(self.ids[slot as usize], self.labels[slot as usize]);
        let root = out.root_id();
        let kids: Vec<u32> = self.child_slot_iter(slot).collect();
        for c in kids {
            out.graft_subtree(root, self, self.ids[c as usize])?;
        }
        Ok(out)
    }

    /// A deep copy with fresh ids everywhere (including the root).
    pub fn deep_copy_fresh(&self) -> DataTree {
        let mut out = DataTree::new(self.root_label());
        for c in self.children_iter(self.root_id()).expect("root") {
            out.graft_copy(out.root_id(), self, c).expect("graft");
        }
        out
    }

    /// Structural equality **ignoring node ids** and sibling order: same
    /// shape and labels. This is isomorphism of the underlying labeled
    /// unordered trees.
    pub fn structurally_eq(&self, other: &DataTree) -> bool {
        self.canonical_form() == other.canonical_form()
    }

    /// Equality of identified trees: same node ids, labels and parent
    /// relation (sibling order still ignored — the model is unordered).
    pub fn identified_eq(&self, other: &DataTree) -> bool {
        if self.live != other.live {
            return false;
        }
        for n in self.nodes() {
            let Ok(on) = other.node(n.id) else { return false };
            if on.label != n.label {
                return false;
            }
            let p = self.parent(n.id).expect("live node");
            let op = other.parent(n.id).expect("live node");
            if p != op {
                return false;
            }
        }
        true
    }

    /// A canonical string form invariant under sibling reordering and id
    /// renaming. Used for structural hashing and equality.
    pub fn canonical_form(&self) -> String {
        self.canonical_form_slot(self.root)
    }

    /// [`canonical_form`](Self::canonical_form) of the subtree rooted at
    /// `id` — the one canonicalization grammar, shared by whole-tree
    /// hashing and by consumers that canonicalize per subtree (e.g. the
    /// id-invariant counterexample serialization in `xuc-core`).
    pub fn canonical_form_of(&self, id: NodeId) -> Result<String, TreeError> {
        Ok(self.canonical_form_slot(self.slot(id)?))
    }

    fn canonical_form_slot(&self, slot: u32) -> String {
        let mut out = String::from(self.labels[slot as usize].as_str());
        if self.first_child[slot as usize] != NIL {
            let mut kids: Vec<String> =
                self.child_slot_iter(slot).map(|c| self.canonical_form_slot(c)).collect();
            kids.sort();
            out.push('(');
            for (i, k) in kids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
            }
            out.push(')');
        }
        out
    }

    /// Pretty indented rendering (ids and labels), for debugging and demos.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.walk_depth_from(self.root, &mut |slot, depth| {
            for _ in 0..depth {
                s.push_str("  ");
            }
            s.push_str(&format!("{} [{}]\n", self.labels[slot as usize], self.ids[slot as usize]));
        });
        s
    }

    /// All distinct labels occurring in the tree.
    pub fn labels(&self) -> Vec<Label> {
        let mut set = std::collections::BTreeSet::new();
        self.walk_slots(self.root, &mut |s| {
            set.insert(self.labels[s as usize]);
        });
        set.into_iter().collect()
    }
}

impl fmt::Debug for DataTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataTree({})", crate::term::to_term(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataTree {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        t.add(b, "c").unwrap();
        t.add(a, "d").unwrap();
        t.add(t.root_id(), "e").unwrap();
        t
    }

    #[test]
    fn build_and_query_basics() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.root_label(), Label::new("root"));
        assert_eq!(t.height(), 3);
        let kids = t.children(t.root_id()).unwrap();
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn label_path_excludes_root() {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        let path: Vec<String> =
            t.label_path(b).unwrap().into_iter().map(|l| l.as_str().to_string()).collect();
        assert_eq!(path, vec!["a", "b"]);
        assert!(t.label_path(t.root_id()).unwrap().is_empty());
    }

    #[test]
    fn delete_subtree_removes_descendants() {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        let c = t.add(b, "c").unwrap();
        t.delete_subtree(a).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.contains(a));
        assert!(!t.contains(b));
        assert!(!t.contains(c));
    }

    #[test]
    fn delete_node_promotes_children() {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        t.delete_node(a).unwrap();
        assert!(t.contains(b));
        assert_eq!(t.parent(b).unwrap(), Some(t.root_id()));
    }

    #[test]
    fn move_node_rejects_cycles() {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        let err = t.move_node(a, b).unwrap_err();
        assert!(matches!(err, TreeError::WouldCreateCycle { .. }));
    }

    #[test]
    fn move_node_reparents() {
        let mut t = DataTree::new("root");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(t.root_id(), "b").unwrap();
        let c = t.add(a, "c").unwrap();
        t.move_node(c, b).unwrap();
        assert_eq!(t.parent(c).unwrap(), Some(b));
        assert!(t.children(a).unwrap().is_empty());
    }

    #[test]
    fn structural_eq_ignores_order_and_ids() {
        let mut t1 = DataTree::new("r");
        t1.add(t1.root_id(), "a").unwrap();
        t1.add(t1.root_id(), "b").unwrap();
        let mut t2 = DataTree::new("r");
        t2.add(t2.root_id(), "b").unwrap();
        t2.add(t2.root_id(), "a").unwrap();
        assert!(t1.structurally_eq(&t2));
        assert!(!t1.identified_eq(&t2));
    }

    #[test]
    fn identified_eq_tracks_ids() {
        let t = sample();
        let u = t.clone();
        assert!(t.identified_eq(&u));
        let mut v = t.clone();
        let some_leaf = *v.node_ids().last().unwrap();
        v.delete_subtree(some_leaf).unwrap();
        assert!(!t.identified_eq(&v));
    }

    #[test]
    fn graft_preserves_and_refreshes_ids() {
        let t = sample();
        let mut host = DataTree::new("root");
        let a = t.children(t.root_id()).unwrap()[0];
        let grafted = host.graft_subtree(host.root_id(), &t, a).unwrap();
        assert_eq!(grafted, a);
        // Preserved-id graft collides on second attempt.
        assert!(matches!(
            host.graft_subtree(host.root_id(), &t, a),
            Err(TreeError::DuplicateId(_))
        ));
        // Fresh-id graft never collides.
        let copy = host.graft_copy(host.root_id(), &t, a).unwrap();
        assert_ne!(copy, a);
        assert!(host.subtree(copy).unwrap().structurally_eq(&t.subtree(a).unwrap()));
    }

    #[test]
    fn failed_graft_leaves_tree_untouched() {
        let t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let mut host = DataTree::new("root");
        host.graft_subtree(host.root_id(), &t, a).unwrap();
        let before = host.render();
        let _ = host.graft_subtree(host.root_id(), &t, a);
        assert_eq!(host.render(), before);
    }

    #[test]
    fn subtree_extraction() {
        let t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let sub = t.subtree(a).unwrap();
        assert_eq!(sub.root_id(), a);
        assert_eq!(sub.len(), 4);
    }

    #[test]
    fn replace_id_swaps_identity() {
        let mut t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let fresh = NodeId::fresh();
        t.replace_id(a, fresh).unwrap();
        assert!(!t.contains(a));
        assert!(t.contains(fresh));
        assert_eq!(t.label(fresh).unwrap(), Label::new("a"));
    }

    #[test]
    fn detach_behaves_like_delete_until_reattached() {
        let t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let mut deleted = t.clone();
        deleted.delete_subtree(a).unwrap();
        let mut detached = t.clone();
        let token = detached.detach_subtree(a).unwrap();
        // While detached: identical observable state to deletion.
        assert!(detached.identified_eq(&deleted));
        assert_eq!(detached.len(), deleted.len());
        assert!(!detached.contains(a));
        // Reattach restores the original exactly.
        detached.reattach_subtree(token).unwrap();
        assert!(detached.identified_eq(&t));
        assert!(detached.contains(a));
    }

    #[test]
    fn splice_behaves_like_delete_node_until_restored() {
        let t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let mut deleted = t.clone();
        deleted.delete_node(a).unwrap();
        let mut spliced = t.clone();
        let token = spliced.splice_node(a).unwrap();
        assert!(spliced.identified_eq(&deleted));
        assert!(!spliced.contains(a));
        spliced.unsplice_node(token).unwrap();
        assert!(spliced.identified_eq(&t));
    }

    #[test]
    fn detach_root_refused() {
        let mut t = sample();
        assert!(matches!(t.detach_subtree(t.root_id()), Err(TreeError::RootImmovable)));
        assert!(matches!(t.splice_node(t.root_id()), Err(TreeError::RootImmovable)));
    }

    #[test]
    fn edits_on_top_of_detached_state_round_trip() {
        let t = sample();
        let kids = t.children(t.root_id()).unwrap();
        let (a, e) = (kids[0], kids[1]);
        let mut work = t.clone();
        let token = work.detach_subtree(a).unwrap();
        // Mutations while detached (on live nodes) are fine...
        let extra = work.add(e, "extra").unwrap();
        work.relabel(e, "e2").unwrap();
        // ...and unwinding in LIFO order restores the original.
        work.relabel(e, "e").unwrap();
        work.delete_subtree(extra).unwrap();
        work.reattach_subtree(token).unwrap();
        assert!(work.identified_eq(&t));
    }

    #[test]
    fn preorder_snapshot_parents_precede_children() {
        let t = sample();
        let flat = t.preorder_snapshot();
        assert_eq!(flat.len(), t.len());
        assert_eq!(flat[0].0, t.root_id());
        assert_eq!(flat[0].2, None);
        for (i, (id, label, parent)) in flat.iter().enumerate().skip(1) {
            let p = parent.expect("non-root has a parent index");
            assert!(p < i, "parents precede children");
            assert_eq!(t.parent(*id).unwrap(), Some(flat[p].0));
            assert_eq!(t.label(*id).unwrap(), *label);
        }
    }

    #[test]
    fn deep_copy_fresh_is_isomorphic_but_disjoint() {
        let t = sample();
        let c = t.deep_copy_fresh();
        assert!(t.structurally_eq(&c));
        for id in c.node_ids() {
            assert!(!t.contains(id));
        }
    }

    // ——— arena-specific behavior ———

    #[test]
    fn children_iter_matches_children_and_does_not_allocate_results() {
        let t = sample();
        for id in t.node_ids() {
            let via_vec = t.children(id).unwrap();
            let via_iter: Vec<NodeId> = t.children_iter(id).unwrap().collect();
            assert_eq!(via_vec, via_iter);
            let mut via_each = Vec::new();
            t.for_each_child(id, |n| via_each.push(n.id)).unwrap();
            assert_eq!(via_vec, via_each);
        }
        assert!(t.children_iter(NodeId::from_raw(999_999)).is_err());
    }

    #[test]
    fn delete_then_insert_reuses_slot() {
        let mut t = sample();
        let cap = t.slot_capacity();
        let e = t.children(t.root_id()).unwrap()[1];
        t.delete_subtree(e).unwrap();
        assert_eq!(t.free_slots(), 1);
        t.add(t.root_id(), "e2").unwrap();
        assert_eq!(t.free_slots(), 0);
        assert_eq!(t.slot_capacity(), cap, "insertion after delete must reuse the freed slot");
    }

    #[test]
    fn churn_capacity_bounded_by_peak_live() {
        // The headline leak regression: 10k insert+delete cycles of a
        // 3-node subtree. The historical `Vec<Option<NodeData>>` arena
        // left a permanent hole per deleted node (capacity ~30k here);
        // the free-listed arena must stay at the peak live count.
        let mut t = DataTree::new("root");
        let hub = t.add(t.root_id(), "hub").unwrap();
        let mut peak = t.len();
        for _ in 0..10_000 {
            let s = t.add(hub, "s").unwrap();
            t.add(s, "x").unwrap();
            t.add(s, "y").unwrap();
            peak = peak.max(t.len());
            t.delete_subtree(s).unwrap();
        }
        assert_eq!(t.len(), 2);
        assert!(
            t.slot_capacity() <= peak,
            "arena capacity {} leaked past peak live {}",
            t.slot_capacity(),
            peak
        );
    }

    #[test]
    fn churn_with_delete_node_is_bounded_too() {
        let mut t = DataTree::new("root");
        let hub = t.add(t.root_id(), "hub").unwrap();
        let keep = t.add(hub, "keep").unwrap();
        let mut peak = t.len();
        for i in 0..10_000 {
            let mid = t.add(hub, "mid").unwrap();
            t.move_node(keep, mid).unwrap();
            peak = peak.max(t.len());
            // Splice `mid` out: `keep` is promoted back under `hub`.
            t.delete_node(mid).unwrap();
            assert_eq!(t.parent(keep).unwrap(), Some(hub), "iteration {i}");
        }
        assert!(
            t.slot_capacity() <= peak,
            "arena capacity {} leaked past peak live {}",
            t.slot_capacity(),
            peak
        );
    }

    #[test]
    fn stale_detach_token_rejected_after_slot_reuse() {
        // delete → reuse → undo: the classic ABA interleaving. The token's
        // recorded parent slot is freed and recycled for an unrelated
        // node; the generation tag must reject the reattach.
        let mut t = DataTree::new("r");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        let token = t.detach_subtree(b).unwrap();
        t.delete_subtree(a).unwrap(); // frees a's slot (b is parked, not freed)
        let c = t.add(t.root_id(), "c").unwrap(); // recycles a's slot
        let before = t.render();
        assert!(matches!(t.reattach_subtree(token), Err(TreeError::StaleToken)));
        assert_eq!(t.render(), before, "failed reattach must leave the tree untouched");
        assert!(t.contains(c));
        assert!(!t.contains(b));
    }

    #[test]
    fn stale_splice_token_rejected_after_slot_reuse() {
        let mut t = DataTree::new("r");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        t.add(b, "c").unwrap();
        let token = t.splice_node(b).unwrap();
        // Deleting `a` frees both a's and (promoted) c's slots.
        t.delete_subtree(a).unwrap();
        t.add(t.root_id(), "x").unwrap(); // recycles a freed slot
        let before = t.render();
        assert!(matches!(t.unsplice_node(token), Err(TreeError::StaleToken)));
        assert_eq!(t.render(), before, "failed unsplice must leave the tree untouched");
    }

    #[test]
    fn stale_splice_token_rejected_when_promoted_child_recycled() {
        // Parent stays alive; only a promoted child is deleted and its
        // slot recycled. The per-child generation check must catch it.
        let mut t = DataTree::new("r");
        let a = t.add(t.root_id(), "a").unwrap();
        let b = t.add(a, "b").unwrap();
        let c = t.add(b, "c").unwrap();
        let token = t.splice_node(b).unwrap(); // c promoted under a
        t.delete_subtree(c).unwrap(); // frees c's slot
        t.add(a, "d").unwrap(); // recycles it
        assert!(matches!(t.unsplice_node(token), Err(TreeError::StaleToken)));
    }

    #[test]
    fn stale_anchor_rejected_after_slot_reuse() {
        // The token anchors on x's previous sibling p. Breaking LIFO, p
        // is deleted and its slot recycled: relinking "after p" would
        // thread x next to an unrelated node, so the token is refused.
        let mut t = DataTree::new("r");
        let root = t.root_id();
        let p = t.add(root, "p").unwrap();
        let x = t.add(root, "x").unwrap();
        t.add(x, "c").unwrap();
        let token = t.detach_subtree(x).unwrap();
        t.delete_subtree(p).unwrap();
        let cap = t.slot_capacity();
        t.add(root, "q").unwrap();
        assert_eq!(t.slot_capacity(), cap, "q recycles p's slot");
        let before = t.render();
        assert!(matches!(t.reattach_subtree(token), Err(TreeError::StaleToken)));
        assert_eq!(t.render(), before, "failed reattach must leave the tree untouched");
        assert!(!t.contains(x));

        // The same for a splice token: x's child c is promoted, p's slot
        // recycled.
        let mut t = DataTree::new("r");
        let root = t.root_id();
        let p = t.add(root, "p").unwrap();
        let x = t.add(root, "x").unwrap();
        let c = t.add(x, "c").unwrap();
        let token = t.splice_node(x).unwrap();
        t.delete_subtree(p).unwrap();
        t.add(root, "q").unwrap();
        let before = t.render();
        assert!(matches!(t.unsplice_node(token), Err(TreeError::StaleToken)));
        assert_eq!(t.render(), before, "failed unsplice must leave the tree untouched");
        assert_eq!(t.parent(c).unwrap(), Some(root));
    }

    #[test]
    fn anchor_moved_away_is_refused() {
        // Not recycled, but no longer a sibling: relinking after it would
        // put x under the wrong parent's chain.
        let mut t = DataTree::new("r");
        let root = t.root_id();
        let p = t.add(root, "p").unwrap();
        let x = t.add(root, "x").unwrap();
        let y = t.add(root, "y").unwrap();
        let token = t.detach_subtree(x).unwrap();
        t.move_node(p, y).unwrap();
        let before = t.render();
        assert!(matches!(t.reattach_subtree(token), Err(TreeError::StaleToken)));
        assert_eq!(t.render(), before);
        // A parked anchor is refused too.
        t.move_node(p, root).unwrap();
        let q = t.add(root, "q").unwrap();
        let token = t.detach_subtree(q).unwrap();
        let parked = t.detach_subtree(p).unwrap();
        assert!(matches!(t.reattach_subtree(token), Err(TreeError::StaleToken)));
        t.reattach_subtree(parked).unwrap();
        assert_eq!(t.children(root).unwrap(), [y, p]);
    }

    #[test]
    fn freeing_a_token_recycles_exactly_its_parked_slots() {
        let mut t = sample();
        let kids = t.children(t.root_id()).unwrap();
        let cap = t.slot_capacity();
        let detached = t.detach_subtree(kids[0]).unwrap(); // a, b, c, d
        let spliced = t.splice_node(kids[1]).unwrap(); // e
        assert_eq!((t.len(), t.free_slots()), (1, 0), "parked, not free");
        t.free_detached(detached);
        t.free_spliced(spliced);
        assert_eq!(t.free_slots(), 5);
        for _ in 0..5 {
            t.add(t.root_id(), "n").unwrap();
        }
        assert_eq!((t.slot_capacity(), t.free_slots()), (cap, 0));
    }

    #[test]
    fn add_after_links_in_place_and_refuses_a_foreign_prev() {
        let mut t = sample();
        let root = t.root_id();
        let kids = t.children(root).unwrap();
        let x = t.add_after(root, Some(kids[0]), NodeId::fresh(), "x").unwrap();
        let first = t.add_after(root, None, NodeId::fresh(), "f").unwrap();
        assert_eq!(t.children(root).unwrap(), [first, kids[0], x, kids[1]]);
        let b = t.children(kids[0]).unwrap()[0];
        let before = t.render();
        assert_eq!(
            t.add_after(root, Some(b), NodeId::fresh(), "y"),
            Err(TreeError::NodeNotFound(b))
        );
        assert_eq!(t.add_after(root, None, x, "dup"), Err(TreeError::DuplicateId(x)));
        assert_eq!(t.render(), before, "a refused insert leaves the tree untouched");
    }

    #[test]
    fn packed_copy_is_an_exact_preorder_copy() {
        let mut t = sample();
        let kids = t.children(t.root_id()).unwrap();
        t.delete_subtree(kids[0]).unwrap();
        // A free slot has no parent and is not the root.
        let s = t.slots();
        let orphans = (0..s.ids.len()).filter(|&v| s.parent[v] == Slots::NIL).count();
        assert_eq!(orphans, 1 + t.free_slots());
        // Churn leaves the source with free slots out of pre-order.
        let late = t.add(t.root_id(), "late").unwrap();
        t.add(kids[1], "z").unwrap();
        let mut copy = DataTree::with_root_id(NodeId::fresh(), "placeholder");
        copy.copy_packed_from(&t);
        assert_eq!(copy.render(), t.render(), "same nodes in the same child order");
        assert!(copy.identified_eq(&t));
        assert_eq!((copy.slot_capacity(), copy.free_slots()), (t.len(), 0));
        let s = copy.slots();
        assert_eq!(s.root, 0);
        for (i, id) in copy.node_ids().into_iter().enumerate() {
            assert_eq!(
                (copy.slot_of(id), s.ids[i]),
                (Some(i as u32), id),
                "slot = pre-order index"
            );
        }
        assert!((1..copy.len()).all(|v| (s.parent[v] as usize) < v), "parents first");
        assert_eq!(copy.slot_of(kids[0]), None);
        assert_eq!(t.packed_copy().render(), copy.render());
        copy.add(late, "w").unwrap();
        assert_eq!(copy.len(), t.len() + 1, "the copy is a working tree");
    }

    #[test]
    fn deep_tree_traversals_are_iterative() {
        // A 60k-deep chain overflows the 2MiB test-thread stack under the
        // historical recursive walkers; the sibling-chain walkers must
        // handle it. (Build, snapshot, height, then bulk delete.)
        let mut t = DataTree::new("root");
        let top = t.add(t.root_id(), "n").unwrap();
        let mut cur = top;
        for _ in 0..60_000 {
            cur = t.add(cur, "n").unwrap();
        }
        assert_eq!(t.height(), 60_001);
        let flat = t.preorder_snapshot();
        assert_eq!(flat.len(), t.len());
        let nodes = t.subtree_nodes(top).unwrap();
        assert_eq!(nodes.len(), 60_001);
        t.delete_subtree(top).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.free_slots(), 60_001);
    }

    #[test]
    fn detach_reattach_preserves_capacity_and_generations() {
        let t = sample();
        let a = t.children(t.root_id()).unwrap()[0];
        let mut work = t.clone();
        let cap = work.slot_capacity();
        for _ in 0..1_000 {
            let token = work.detach_subtree(a).unwrap();
            work.reattach_subtree(token).unwrap();
        }
        assert_eq!(work.slot_capacity(), cap);
        assert!(work.identified_eq(&t));
        assert_eq!(work.render(), t.render());
    }
}
