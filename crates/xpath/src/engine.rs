//! The reusable bitset evaluation engine.
//!
//! [`crate::eval`](mod@crate::eval)'s two-phase algorithm is correct but rebuilds a dense
//! snapshot of the tree on *every* call and keeps its satisfaction matrices
//! as `Vec<Vec<bool>>`. The hot consumers — counterexample search, possible
//! embeddings, certain-facts trees, the update gateway — evaluate *many*
//! patterns against the *same* tree, and edit it between evaluations, so
//! this module restructures the data layout around that access pattern.
//!
//! An [`Evaluator`] holds one private [`DataTree`] **replica** of the
//! document. [`Evaluator::new`] and [`Evaluator::refresh`] build it with
//! one packed pre-order copy ([`DataTree::packed_copy`],
//! [`DataTree::copy_packed_from`]);
//! [`Evaluator::refresh_after`] keeps it exact in time proportional to one
//! edit by re-applying the edit's [`EditScope`] with the tree's own
//! operations — a relabel or id swap in place, a detached subtree deleted,
//! a spliced node deleted with its children promoted, a moved node moved
//! after its previous sibling, and an inserted, re-attached or unspliced
//! node inserted after its previous sibling, with its re-adopted children
//! moved under it or its re-attached subtree grafted. So there is one
//! linked arena, the one `xuc_xtree` tests, and the evaluator reads it
//! through its read-only slot view ([`xuc_xtree::Slots`]).
//!
//! The per-pattern bitset path ([`Evaluator::eval`],
//! [`Evaluator::eval_at`], [`Evaluator::eval_all`],
//! [`Evaluator::eval_ids`], [`Evaluator::holds_below`] and predicate
//! fallbacks) indexes its `u64` rows by replica slot: a live mask (the
//! wildcard test) and lazily built per-label rows. A relabel patches two
//! bits; a structural re-sync leaves them stale, and the next bitset entry
//! point re-derives them in one scan of the slots (a free slot has no
//! parent). Satisfaction rows, descendant closures and spine frontiers are
//! packed bitsets; the label test and per-child requirement conjunctions
//! are word-wide AND sweeps. Descendant axes never assume slot order:
//! "has a marked descendant" walks up from each set bit and stops at a
//! set ancestor; "has a frontier ancestor" is one pass in slot order for
//! every node whose parent sits at a lower slot (all of them on a fresh
//! copy), then marks, below each other node that lies under the
//! frontier, its subtree, skipping subtrees already marked.
//!
//! The set-at-a-time passes never need the rows. [`Evaluator::eval_set`]
//! drives a whole batch compiled into one deterministic automaton (see
//! [`PatternSetAutomaton`] — the compiler lives in `xuc_automata`) over
//! the replica **once** with an explicit `(slot, state)` stack, labelling
//! every node with its satisfied-pattern row. [`Evaluator::eval_set_splice`]
//! is the one incremental evaluator: it patches cached `eval_set` results
//! in place by replaying each [`DirtyRegion`] root's ancestor path and
//! re-driving the automaton below it through the same sweep loop. It is
//! checked against the from-scratch passes (`eval_set`, `eval_all`, the
//! naive oracle), never against a second incremental copy.
//!
//! [`Evaluator::refresh`] is the blunt full rebuild and the oracle
//! `refresh_after` is tested against; [`Evaluator::invalidate`] is the
//! guard rail that makes a forgotten refresh a loud panic instead of a
//! silent wrong answer. Every document-sized rebuild — `new`, `refresh`,
//! re-deriving the rows after a structural re-sync — counts one
//! [`xuc_xtree::preorder_walk_count`] walk.
//!
//! The algorithm is exactly the one documented in [`crate::eval`](mod@crate::eval)
//! (Gottlob–Koch–Pichler–Segoufin two-phase evaluation); only the data
//! layout differs, and the property tests in `tests/prop.rs` pin the two
//! implementations (and the naive oracle) to each other.

use crate::pattern::{Axis, NodeTest, Pattern};
use std::collections::{BTreeSet, HashMap};
use xuc_xtree::{DataTree, DirtyRegion, EditScope, Label, NodeId, NodeRef, Slots, TreeError};

const NIL: u32 = Slots::NIL;

#[inline]
fn word_count(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
fn set_bit(row: &mut [u64], i: usize) {
    row[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn clear_bit(row: &mut [u64], i: usize) {
    row[i >> 6] &= !(1u64 << (i & 63));
}

#[inline]
fn get_bit(row: &[u64], i: usize) -> bool {
    row[i >> 6] & (1u64 << (i & 63)) != 0
}

#[inline]
fn and_assign(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

#[inline]
fn is_zero(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Calls `f(i)` for every set bit, skipping zero words.
#[inline]
fn for_each_set_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in row.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            f((wi << 6) | b);
            w &= w - 1;
        }
    }
}

/// Unwraps a replica operation: it fails only when the scope does not
/// describe the edit separating the replica from the document.
fn synced<T>(r: Result<T, TreeError>) -> T {
    r.unwrap_or_else(|e| panic!("edit scope does not match the evaluator's replica: {e}"))
}

/// A pattern batch compiled into one deterministic automaton over
/// root-to-node label paths, consumable by [`Evaluator::eval_set`].
///
/// Implemented by `xuc_automata::CompiledPatternSet` (`xuc_automata`
/// depends on this crate, so the engine consumes the automaton through
/// this trait rather than the concrete type). The contract:
///
/// * states are opaque `u32`s, and the automaton is **complete** —
///   [`step`](Self::step) is total over all labels;
/// * a node's state is reached by stepping from its parent's state on the
///   node's label, starting from [`start_state`](Self::start_state) at
///   the evaluation origin (whose own label is *not* consumed — patterns
///   match the path strictly below the origin, exactly like
///   [`Evaluator::eval_at`]);
/// * bits in [`accept_row`](Self::accept_row) beyond
///   [`pattern_count`](Self::pattern_count) must be zero.
pub trait PatternSetAutomaton {
    /// Number of patterns in the batch (compiled + fallback).
    fn pattern_count(&self) -> usize;

    /// The state assigned to the evaluation origin.
    fn start_state(&self) -> u32;

    /// The successor state when stepping into a child labeled `label`.
    fn step(&self, state: u32, label: Label) -> u32;

    /// The satisfied-pattern row of `state`: `⌈pattern_count / 64⌉`
    /// packed words, bit `i` set iff a node in this state belongs to
    /// pattern `i`'s result set.
    fn accept_row(&self, state: u32) -> &[u64];

    /// Patterns the automaton does not cover (typically patterns with
    /// predicates), as `(batch index, pattern)` pairs;
    /// [`Evaluator::eval_set`] routes these through the per-pattern path.
    fn fallbacks(&self) -> &[(usize, Pattern)];
}

/// The record of one in-place splice
/// ([`Evaluator::eval_set_splice`]): per-pattern add/remove events, in
/// application order. Because the splice removes before it inserts, the
/// journal both *judges* the splice (net changes per pattern are exactly
/// the baseline/now set differences) and *undoes* it
/// ([`revert`](Self::revert)) — no second copy of either set ever exists.
#[derive(Debug, Default)]
pub struct SpliceJournal {
    /// `events[i]`: `(ref, added)` mutations actually performed on set
    /// `i` (a `false` entry was removed, a `true` entry inserted).
    events: Vec<Vec<(NodeRef, bool)>>,
}

impl SpliceJournal {
    /// The net changes of pattern `i` as `(net_removed, net_added)` —
    /// precisely `baseᵢ \ nowᵢ` and `nowᵢ \ baseᵢ`: a ref removed and
    /// later re-inserted (an unchanged member inside a dirty subtree)
    /// cancels out.
    pub fn net_changes(&self, i: usize) -> (Vec<NodeRef>, Vec<NodeRef>) {
        let (mut removed, mut added) = (BTreeSet::new(), BTreeSet::new());
        for &(r, was_added) in &self.events[i] {
            if was_added {
                added.insert(r);
            } else {
                removed.insert(r);
            }
        }
        let net_removed = removed.difference(&added).copied().collect();
        let net_added = added.difference(&removed).copied().collect();
        (net_removed, net_added)
    }

    /// The raw events of pattern `i`: `(ref, added)` in application
    /// order — a `false` entry was removed from set `i`, a `true` entry
    /// inserted. Read-only; folding them in order replays the splice.
    pub fn events(&self, i: usize) -> &[(NodeRef, bool)] {
        &self.events[i]
    }

    /// Did the splice change nothing at all?
    pub fn is_empty(&self) -> bool {
        self.events.iter().all(Vec::is_empty)
    }

    /// Undoes the splice exactly: replays every event backwards (reverse
    /// order matters — a removed-then-reinserted ref must end present).
    pub fn revert(&self, sets: &mut [BTreeSet<NodeRef>]) {
        for (row, events) in sets.iter_mut().zip(&self.events) {
            for &(r, added) in events.iter().rev() {
                if added {
                    row.remove(&r);
                } else {
                    row.insert(r);
                }
            }
        }
    }
}

/// What [`Evaluator::eval_set_splice`]'s sweep below the dirty roots
/// found, as replica slots.
struct DirtySweep {
    /// Every swept node: dirty roots included, the tree root excluded.
    touched: Vec<u32>,
    /// `fresh[i]`: the swept nodes pattern `i` accepts.
    fresh: Vec<Vec<u32>>,
    /// The swept dirty roots (none below another), sorted.
    roots: Vec<u32>,
}

/// A reusable tree-pattern evaluator bound to one snapshot of a tree.
///
/// ```
/// use xuc_xpath::{parse, Evaluator};
/// use xuc_xtree::parse_term;
///
/// let mut tree = parse_term("root(a#1(b#2),a#3)").unwrap();
/// let mut ev = Evaluator::new(&tree);
/// let q = parse("/a[/b]").unwrap();
/// assert_eq!(ev.eval(&q).len(), 1);
///
/// // After mutating the tree, refresh before evaluating again.
/// tree.add(xuc_xtree::NodeId::from_raw(3), "b").unwrap();
/// ev.refresh(&tree);
/// assert_eq!(ev.eval(&q).len(), 2);
/// ```
pub struct Evaluator {
    /// The replica of the document (see the module docs); only
    /// [`refresh`](Self::refresh) and
    /// [`refresh_after`](Self::refresh_after) edit it.
    tree: DataTree,
    /// Live mask over the replica's slots (the wildcard test).
    ones: Vec<u64>,
    /// Lazy per-label bitsets over the replica's slots (re-derived in
    /// place after a structural re-sync, so the cache and its allocations
    /// survive).
    label_rows: HashMap<Label, Vec<u64>>,
    /// Did a structural re-sync leave `ones` and `label_rows` stale?
    rows_stale: bool,
    /// Set by [`invalidate`](Self::invalidate): the replica itself may no
    /// longer match the tree, so only a full [`refresh`](Self::refresh)
    /// can make the evaluator usable again.
    invalidated: bool,
    /// Reused `(slot, state)` stack of the sweeps.
    stack: Vec<(u32, u32)>,
    /// Nodes touched by structural
    /// [`refresh_after`](Self::refresh_after) calls.
    refresh_nodes_read: u64,
}

impl Evaluator {
    /// Reads `tree` into a fresh evaluator: one packed pre-order copy
    /// builds the replica; every subsequent [`eval`](Self::eval) reuses
    /// it.
    pub fn new(tree: &DataTree) -> Evaluator {
        let mut ev = Evaluator {
            tree: tree.packed_copy(),
            ones: Vec::new(),
            label_rows: HashMap::new(),
            rows_stale: false,
            invalidated: false,
            stack: Vec::new(),
            refresh_nodes_read: 0,
        };
        ev.derive_rows();
        ev
    }

    /// Re-reads the whole of `tree` after it was mutated, reusing the
    /// existing allocations. This is the blunt fallback of the refresh
    /// protocol — and the oracle the edit-proportional
    /// [`refresh_after`](Self::refresh_after) is tested against; see
    /// [`invalidate`](Self::invalidate).
    pub fn refresh(&mut self, tree: &DataTree) {
        self.tree.copy_packed_from(tree);
        self.derive_rows();
        self.invalidated = false;
    }

    /// Refreshes the evaluator **proportionally to one applied edit**,
    /// described by the [`EditScope`] that [`xuc_xtree::apply_undoable`]
    /// (or [`xuc_xtree::undo`]) returned for it, by re-applying the edit
    /// to the replica with the tree's own operations.
    ///
    /// * A relabel relabels the replica's node, and patches the two
    ///   affected cached label rows when they are not stale — no walk.
    /// * An id replacement replaces the replica node's id.
    /// * A structural scope edits the subtrees it names, never a common
    ///   ancestor: a [`Detached`](EditScope::Detached) node's subtree is
    ///   deleted; a [`Spliced`](EditScope::Spliced) node is deleted, its
    ///   children promoted; an [`Attached`](EditScope::Attached) node the
    ///   replica holds (a move) is moved after its previous sibling in
    ///   `tree`, and one it does not hold is inserted there, its
    ///   re-adopted children (an unsplice) moved under it and the rest of
    ///   its subtree (a re-attached one) grafted from `tree`. Linking is
    ///   O(1) whatever the parent's fan-out, so the cost is the nodes
    ///   touched — one for a move or an inserted leaf, the subtree for a
    ///   delete or a re-attach, the children plus one for a splice or an
    ///   unsplice — counted by
    ///   [`EngineCounters::refresh_nodes_read`](crate::EngineCounters::refresh_nodes_read),
    ///   at any depth. The cached rows go stale and are re-derived by the
    ///   next bitset entry point that needs them; the set-at-a-time
    ///   passes do not.
    ///
    /// An [invalidated](Self::invalidate) evaluator may not match the
    /// tree the scope describes, so it takes the full
    /// [`refresh`](Self::refresh) whatever the scope. Otherwise the scope
    /// must describe the **single** edit separating the evaluator's state
    /// from `tree`'s current state; for a batch of edits, call this once
    /// per edit as it is applied (or undone).
    ///
    /// # Panics
    /// Panics if the scope does not match the replica (names a node it
    /// does not hold, say).
    pub fn refresh_after(&mut self, tree: &DataTree, scope: &EditScope) {
        if self.invalidated {
            return self.refresh(tree);
        }
        let replica = &mut self.tree;
        let len = replica.len();
        let touched = match *scope {
            EditScope::Relabel { node, from, to } => {
                let i = self.slot_named(node, "relabeled") as usize;
                debug_assert_eq!(self.tree.label(node), Ok(from), "scope does not match");
                synced(self.tree.relabel(node, to));
                if !self.rows_stale {
                    if let Some(row) = self.label_rows.get_mut(&from) {
                        clear_bit(row, i);
                    }
                    if let Some(row) = self.label_rows.get_mut(&to) {
                        set_bit(row, i);
                    }
                }
                return;
            }
            EditScope::ReplaceId { from, to } => return synced(replica.replace_id(from, to)),
            EditScope::Attached { node } => {
                let parent = synced(tree.parent(node)).expect("an attached node has a parent");
                let prev = synced(tree.prev_sibling(node));
                if replica.contains(node) {
                    synced(replica.move_after(node, parent, prev));
                    1
                } else {
                    synced(replica.add_after(parent, prev, node, synced(tree.label(node))));
                    let mut moved = 0;
                    for c in synced(tree.children_iter(node)) {
                        if replica.contains(c) {
                            synced(replica.move_node(c, node));
                            moved += 1;
                        } else {
                            synced(replica.graft_subtree(node, tree, c));
                        }
                    }
                    replica.len() - len + moved
                }
            }
            EditScope::Detached { node } => {
                synced(replica.delete_subtree(node));
                len - replica.len()
            }
            EditScope::Spliced { node, count, .. } => {
                synced(replica.delete_node(node));
                count + 1
            }
        };
        self.rows_stale = true;
        let n = touched as u64;
        self.refresh_nodes_read += n;
        crate::stats::bump(&crate::stats::REFRESH_NODES_READ, n);
    }

    /// Sizes the live mask and the cached label rows to the replica's
    /// slots and re-derives them in one scan (rows for labels no longer
    /// present become zero rows — still correct answers).
    fn derive_rows(&mut self) {
        let s = self.tree.slots();
        let words = word_count(s.ids.len());
        self.ones.clear();
        self.ones.resize(words, 0);
        for row in self.label_rows.values_mut() {
            row.clear();
            row.resize(words, 0);
        }
        for (v, l) in s.labels.iter().enumerate() {
            if s.parent[v] != NIL || v as u32 == s.root {
                set_bit(&mut self.ones, v);
                if let Some(row) = self.label_rows.get_mut(l) {
                    set_bit(row, v);
                }
            }
        }
        self.rows_stale = false;
    }

    /// Marks the evaluator stale. Call this when handing the underlying
    /// tree out for mutation; any evaluation before the matching
    /// [`refresh`](Self::refresh) panics instead of returning answers
    /// computed against a dead snapshot, and
    /// [`refresh_after`](Self::refresh_after) falls back to `refresh`.
    pub fn invalidate(&mut self) {
        self.invalidated = true;
    }

    /// Is the evaluator marked stale by [`invalidate`](Self::invalidate)?
    /// (Label rows awaiting re-derivation are not stale in this sense:
    /// the replica still matches the tree.)
    pub fn is_stale(&self) -> bool {
        self.invalidated
    }

    /// Nodes touched by this evaluator's structural
    /// [`refresh_after`](Self::refresh_after) calls so far: a pure
    /// function of the edits it was fed. Monotone; diff two readings.
    pub fn refresh_nodes_read(&self) -> u64 {
        self.refresh_nodes_read
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// The snapshotted tree's root node.
    pub fn root(&self) -> NodeRef {
        NodeRef { id: self.tree.root_id(), label: self.tree.root_label() }
    }

    /// Trees always have a root, so a snapshot is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check_fresh(&self) {
        assert!(
            !self.invalidated,
            "Evaluator used after invalidate(): call refresh(&tree) after mutating the tree"
        );
    }

    fn slot_named(&self, id: NodeId, what: &str) -> u32 {
        self.tree.slot_of(id).unwrap_or_else(|| panic!("{what} node {id} not in snapshot"))
    }

    /// The bitset of live slots whose label passes `test` (cached per
    /// label).
    fn test_row(&mut self, test: NodeTest) -> &[u64] {
        match test {
            NodeTest::Wildcard => &self.ones,
            NodeTest::Label(l) => {
                if !self.label_rows.contains_key(&l) {
                    let labels = self.tree.slots().labels;
                    let mut row = vec![0u64; self.ones.len()];
                    for_each_set_bit(&self.ones, |v| {
                        if labels[v] == l {
                            set_bit(&mut row, v);
                        }
                    });
                    self.label_rows.insert(l, row);
                }
                &self.label_rows[&l]
            }
        }
    }

    /// `out[v] = 1` iff some child `w` of `v` has `src[w] = 1`.
    fn any_child(&self, src: &[u64], out: &mut Vec<u64>) {
        let parent = self.tree.slots().parent;
        out.clear();
        out.resize(src.len(), 0);
        for_each_set_bit(src, |w| {
            let p = parent[w];
            if p != NIL {
                set_bit(out, p as usize);
            }
        });
    }

    /// `out[v] = 1` iff some *proper descendant* `w` of `v` has
    /// `src[w] = 1`. From each set bit, walks up and marks ancestors,
    /// stopping at one already marked: its ancestors are marked too, so
    /// each node is marked once, whatever the slot order.
    fn any_descendant(&self, src: &[u64], out: &mut Vec<u64>) {
        let parent = self.tree.slots().parent;
        out.clear();
        out.resize(src.len(), 0);
        for_each_set_bit(src, |w| {
            let mut v = parent[w];
            while v != NIL && !get_bit(out, v as usize) {
                set_bit(out, v as usize);
                v = parent[v as usize];
            }
        });
    }

    /// Phase 1 + phase 2 producing the output-node frontier bitset of `q`
    /// evaluated at `start`, on rows indexed by replica slot.
    fn frontier_at(&mut self, q: &Pattern, start: NodeId) -> Vec<u64> {
        self.check_fresh();
        if self.rows_stale {
            xuc_xtree::note_preorder_walk();
            self.derive_rows();
        }
        let start_idx = self.slot_named(start, "start") as usize;
        let words = self.ones.len();

        // Phase 1: bottom-up subpattern satisfaction, one bitset row per
        // pattern node. Children are processed before parents, so child
        // rows are complete when the parent conjoins its requirements.
        let mut sat: Vec<Vec<u64>> = vec![Vec::new(); q.len()];
        let mut req = vec![0u64; words];
        for p in q.post_order() {
            let mut row = self.test_row(q.test(p)).to_vec();
            for &c in q.children(p) {
                if is_zero(&row) {
                    break;
                }
                match q.axis(c) {
                    Axis::Child => self.any_child(&sat[c], &mut req),
                    Axis::Descendant => self.any_descendant(&sat[c], &mut req),
                }
                and_assign(&mut row, &req);
            }
            sat[p] = row;
        }

        // Phase 2: walk the spine from `start_idx`, keeping the frontier of
        // nodes matching the spine prefix.
        let s = self.tree.slots();
        let mut frontier = vec![0u64; words];
        set_bit(&mut frontier, start_idx);
        let mut next = vec![0u64; words];
        let (mut late, mut todo) = (Vec::new(), Vec::new());
        for p in q.spine() {
            next.clear();
            next.resize(words, 0);
            match q.axis(p) {
                Axis::Child => {
                    // Children of the frontier, along the sibling chains.
                    for_each_set_bit(&frontier, |v| {
                        let mut w = s.first_child[v];
                        while w != NIL {
                            set_bit(&mut next, w as usize);
                            w = s.next_sibling[w as usize];
                        }
                    });
                }
                Axis::Descendant => {
                    // Has a frontier proper ancestor: one pass in slot
                    // order decides every node whose parent sits at a
                    // lower slot (all of them on a fresh copy)...
                    late.clear();
                    for (v, &p) in s.parent.iter().enumerate() {
                        if p == NIL {
                            continue;
                        }
                        let p = p as usize;
                        if p > v {
                            late.push(v as u32);
                        } else if get_bit(&frontier, p) || get_bit(&next, p) {
                            set_bit(&mut next, v);
                        }
                    }
                    // ...and each node decided before its parent climbs
                    // to the root. If it lies below the frontier, it and
                    // its subtree are marked, skipping marked subtrees:
                    // a node the pass missed lies below such a node.
                    for &v in &late {
                        let mut u = s.parent[v as usize];
                        while u != NIL && !get_bit(&frontier, u as usize) {
                            u = s.parent[u as usize];
                        }
                        if u == NIL || get_bit(&next, v as usize) {
                            continue;
                        }
                        set_bit(&mut next, v as usize);
                        todo.push(v);
                        while let Some(w) = todo.pop() {
                            let mut c = s.first_child[w as usize];
                            while c != NIL {
                                if !get_bit(&next, c as usize) {
                                    set_bit(&mut next, c as usize);
                                    todo.push(c);
                                }
                                c = s.next_sibling[c as usize];
                            }
                        }
                    }
                }
            }
            and_assign(&mut next, &sat[p]);
            std::mem::swap(&mut frontier, &mut next);
            if is_zero(&frontier) {
                break;
            }
        }
        frontier
    }

    /// Evaluates `q` from the document root: `q(I)`.
    pub fn eval(&mut self, q: &Pattern) -> BTreeSet<NodeRef> {
        self.eval_at(q, self.tree.root_id())
    }

    /// Evaluates `q` on the subtree rooted at `start`: `q(n, I)`.
    ///
    /// # Panics
    /// Panics if `start` is not a node of the snapshotted tree.
    pub fn eval_at(&mut self, q: &Pattern, start: NodeId) -> BTreeSet<NodeRef> {
        let frontier = self.frontier_at(q, start);
        let s = self.tree.slots();
        let mut out = BTreeSet::new();
        for_each_set_bit(&frontier, |v| {
            out.insert(NodeRef { id: s.ids[v], label: s.labels[v] });
        });
        out
    }

    /// Evaluates a batch of patterns against the shared snapshot; the
    /// snapshot cost is paid once for the whole batch.
    pub fn eval_all(&mut self, queries: &[Pattern]) -> Vec<BTreeSet<NodeRef>> {
        queries.iter().map(|q| self.eval(q)).collect()
    }

    /// Set-at-a-time batch evaluation: drives a pre-compiled
    /// [`PatternSetAutomaton`] over the tree **once**, producing the
    /// same results as [`eval_all`](Self::eval_all) on the batch the
    /// automaton was compiled from. The cost is one automaton step plus
    /// one acceptance-row scan per node — independent of how many
    /// patterns the batch holds — versus one full bitset sweep *per
    /// pattern* on the per-pattern path. Patterns the automaton does not
    /// cover (its [`fallbacks`](PatternSetAutomaton::fallbacks)) are
    /// evaluated per-pattern, so the result is always complete.
    ///
    /// The pass runs on the replica, so it follows every
    /// [`refresh_after`](Self::refresh_after) at once — a relabel patched
    /// in O(1), a structural edit re-applied to its scope — with no
    /// automaton recompilation and no row re-derivation (only predicate
    /// fallbacks need the bitset rows).
    ///
    /// ```
    /// use xuc_automata::PatternSetCompiler;
    /// use xuc_xpath::{parse, Evaluator};
    /// use xuc_xtree::parse_term;
    ///
    /// let tree = parse_term("root(a#1(b#2(c#3)),a#4(b#5))").unwrap();
    /// // Mixed batch: two linear patterns compile, the predicate falls back.
    /// let suite: Vec<_> =
    ///     ["/a/b", "//c", "/a[/b]"].iter().map(|s| parse(s).unwrap()).collect();
    /// let compiled = PatternSetCompiler::compile(&suite);
    ///
    /// let mut ev = Evaluator::new(&tree);
    /// let rows = ev.eval_set(&compiled); // one pass for the whole batch
    /// assert_eq!(rows, ev.eval_all(&suite)); // ≡ one pass per pattern
    /// assert_eq!(rows[0].len(), 2); // b#2 and b#5
    /// ```
    pub fn eval_set<A: PatternSetAutomaton + ?Sized>(&mut self, set: &A) -> Vec<BTreeSet<NodeRef>> {
        self.eval_set_at(set, self.tree.root_id())
    }

    /// [`eval_set`](Self::eval_set) on the subtree rooted at `start`:
    /// entry `i` equals `eval_at(&batch[i], start)` for every pattern of
    /// the compiled batch.
    ///
    /// ```
    /// use xuc_automata::PatternSetCompiler;
    /// use xuc_xpath::{parse, Evaluator};
    /// use xuc_xtree::{parse_term, NodeId};
    ///
    /// let tree = parse_term("root(a#1(b#2(c#3)),b#4(c#5))").unwrap();
    /// let suite = vec![parse("/b/c").unwrap()];
    /// let compiled = PatternSetCompiler::compile(&suite);
    /// let mut ev = Evaluator::new(&tree);
    /// let below_a = ev.eval_set_at(&compiled, NodeId::from_raw(1));
    /// assert_eq!(below_a[0].iter().map(|n| n.id.raw()).collect::<Vec<_>>(), vec![3]);
    /// ```
    ///
    /// # Panics
    /// Panics if `start` is not a node of the snapshotted tree.
    pub fn eval_set_at<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        start: NodeId,
    ) -> Vec<BTreeSet<NodeRef>> {
        self.check_fresh();
        crate::stats::bump(&crate::stats::EVAL_SET_SWEEPS, 1);
        let top = self.slot_named(start, "start");
        // Members are gathered per pattern and bulk-built at the end: a
        // bulk-built set fills every leaf and lays them out in order,
        // where inserting one by one leaves each leaf half full. Every
        // later walk of the set (admission splices, cloning it out in a
        // certificate) then touches about half the memory.
        let mut rows: Vec<Vec<NodeRef>> = vec![Vec::new(); set.pattern_count()];
        let mut stack = std::mem::take(&mut self.stack);
        let slots = self.tree.slots();
        self.sweep_below(set, &mut stack, top, set.start_state(), |v, s| {
            let r = NodeRef { id: slots.ids[v as usize], label: slots.labels[v as usize] };
            for_each_set_bit(set.accept_row(s), |q| rows[q].push(r));
        });
        self.stack = stack;
        let mut out: Vec<BTreeSet<NodeRef>> = rows.into_iter().map(BTreeSet::from_iter).collect();

        crate::stats::bump(&crate::stats::FALLBACK_PATTERN_EVALS, set.fallbacks().len() as u64);
        for (i, q) in set.fallbacks() {
            out[*i] = self.eval_at(q, start);
        }
        out
    }

    /// The one set-at-a-time sweep: drives `set` over the replica
    /// subtree strictly below slot `top`, whose own state is `state`,
    /// calling `visit(slot, state)` for each node in pre-order along the
    /// sibling chains. An explicit `(slot, state)` stack of the current
    /// path (height-many entries) carries each parent's state to its
    /// children, so the sweep touches nothing outside the subtree.
    fn sweep_below<A: PatternSetAutomaton + ?Sized>(
        &self,
        set: &A,
        stack: &mut Vec<(u32, u32)>,
        top: u32,
        state: u32,
        mut visit: impl FnMut(u32, u32),
    ) {
        let s = self.tree.slots();
        stack.clear();
        let mut v = s.first_child[top as usize];
        loop {
            if v == NIL {
                // The children of the path's deepest node are done: climb.
                let Some((done, _)) = stack.pop() else { return };
                v = s.next_sibling[done as usize];
                continue;
            }
            let vs = set.step(stack.last().map_or(state, |&(_, x)| x), s.labels[v as usize]);
            visit(v, vs);
            let fc = s.first_child[v as usize];
            if fc == NIL {
                v = s.next_sibling[v as usize];
            } else {
                stack.push((v, vs));
                v = fc;
            }
        }
    }

    /// The dirty subtree roots of `region` as sorted, deduplicated slots —
    /// structural roots plus relabeled nodes (a relabel dirties its whole
    /// subtree: every descendant's label path runs through it). `None`
    /// when the region names a node this snapshot cannot account for
    /// (stale region → callers fall back to the full pass). Relabeled
    /// nodes that the region knows were deleted are skipped (their
    /// removals are recorded refs), and so is a relabeled tree root:
    /// patterns match strictly below it, so its label is on no path.
    fn dirty_root_slots(&self, region: &DirtyRegion) -> Option<Vec<u32>> {
        let mut roots: Vec<u32> =
            Vec::with_capacity(region.structural_roots().len() + region.relabels().len());
        for id in region.structural_roots() {
            roots.push(self.tree.slot_of(*id)?);
        }
        let root = self.tree.slots().root;
        for (id, _) in region.relabels() {
            match self.tree.slot_of(*id) {
                Some(i) if i == root => {}
                Some(i) => roots.push(i),
                None if region.removed().iter().any(|r| r.id == *id) => {}
                None => return None,
            }
        }
        roots.sort_unstable();
        roots.dedup();
        Some(roots)
    }

    /// Is slot `v` inside the subtree of one of `roots` (sorted slots),
    /// itself included? An ancestor walk: O(depth · log roots).
    fn below_any(&self, mut v: u32, roots: &[u32]) -> bool {
        let s = self.tree.slots();
        loop {
            if roots.binary_search(&v).is_ok() {
                return true;
            }
            if v == s.root {
                return false;
            }
            v = s.parent[v as usize];
        }
    }

    /// Re-drives `set` below each dirty root (`roots`: sorted slots)
    /// through [`sweep_below`](Self::sweep_below). One ancestor walk per
    /// root both replays its state along the path (`O(depth)`) and skips
    /// it when another dirty root lies above it: that root's sweep covers
    /// it.
    fn sweep_dirty_roots<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        roots: &[u32],
    ) -> DirtySweep {
        let mut touched = Vec::new();
        let mut fresh: Vec<Vec<u32>> = vec![Vec::new(); set.pattern_count()];
        let mut kept = Vec::with_capacity(roots.len());
        let mut stack = std::mem::take(&mut self.stack);
        let mut path = Vec::new();
        let slots = self.tree.slots();
        for &ri in roots {
            path.clear();
            let (mut v, mut nested) = (ri, false);
            while v != slots.root && !nested {
                path.push(v);
                v = slots.parent[v as usize];
                nested = roots.binary_search(&v).is_ok();
            }
            if nested {
                continue;
            }
            // The root's own label is consumed: states are root-anchored,
            // exactly as in eval_set's sweep from the tree root.
            let s = path
                .iter()
                .rev()
                .fold(set.start_state(), |s, &w| set.step(s, slots.labels[w as usize]));
            kept.push(ri);
            let mut visit = |v: u32, s: u32| {
                touched.push(v);
                for_each_set_bit(set.accept_row(s), |q| fresh[q].push(v));
            };
            // The dirty root's own membership (never the tree root's:
            // dirty roots lie strictly below it).
            visit(ri, s);
            self.sweep_below(set, &mut stack, ri, s, &mut visit);
        }
        self.stack = stack;
        DirtySweep { touched, fresh, roots: kept }
    }

    /// Edit-proportional batch evaluation, **in place**: the commit hot
    /// path. `sets` must hold [`eval_set`](Self::eval_set)'s answer on
    /// some earlier state of the tree, and `region` the [`DirtyRegion`]
    /// accumulated over every edit (and undo) separating that state from
    /// the current snapshot. On `Some`, `sets` hold exactly `eval_set`'s
    /// answer on the current snapshot.
    ///
    /// Soundness rests on the automaton contract: a compiled (linear)
    /// pattern's membership at a node depends **only on the node's
    /// root-to-node label path**. Every path change is confined to the
    /// region — structural edits to their recorded subtree, relabels to
    /// the relabeled node's subtree (each descendant's path runs through
    /// it), id swaps to nothing (paths are label strings). So the
    /// automaton is re-driven only below each dirty root, whose own state
    /// is replayed along its ancestor path (`O(depth)`), and `sets` are
    /// mutated directly, never cloned:
    ///
    /// 1. targeted removals of the baseline entries inside the dirty
    ///    subtrees (located under their **pre-batch** labels through the
    ///    region's relabel history), and eviction of the region's
    ///    [`removed`](DirtyRegion::removed) refs;
    /// 2. pinpoint id-swap patches: `(from, label)` becomes `(to, label)`
    ///    — same membership, new identity;
    /// 3. insertion of the freshly re-derived sub-results.
    ///
    /// Total cost is proportional to the dirty region — zero work per
    /// clean document node and zero work per untouched baseline member.
    ///
    /// Every individual mutation is recorded in the returned
    /// [`SpliceJournal`], whose net changes per pattern are exactly
    /// `base \ now` and `now \ base` — enough to judge growth/shrink
    /// admission conditions without ever materializing both sets — and
    /// which [`SpliceJournal::revert`] replays backwards to restore the
    /// baselines exactly (the reject path).
    ///
    /// Returns `None` — with `sets` untouched — when the splice argument
    /// does not apply (predicate [`fallbacks`](PatternSetAutomaton::fallbacks),
    /// whose membership is not path-determined; a stale region, naming
    /// nodes not in the snapshot; a width mismatch) or when the dirty
    /// region is so large that the full pass is cheaper; callers then run
    /// [`eval_set`](Self::eval_set). The property suite in
    /// `tests/prop.rs` pins the spliced sets against `eval_set`,
    /// `eval_all` and the naive oracle after every edit and undo; the
    /// differential harness in `xuc-service` pins admission through it
    /// against full-pass admission verdict-for-verdict.
    ///
    /// ```
    /// use xuc_automata::PatternSetCompiler;
    /// use xuc_xpath::{parse, Evaluator};
    /// use xuc_xtree::{apply_undoable, parse_term, DirtyRegion, NodeId, Update};
    ///
    /// let mut tree = parse_term("root(a#1(b#2(c#3)),a#4(b#5))").unwrap();
    /// let suite: Vec<_> = ["/a/b", "//c"].iter().map(|s| parse(s).unwrap()).collect();
    /// let compiled = PatternSetCompiler::compile(&suite);
    /// let mut ev = Evaluator::new(&tree);
    /// let base = ev.eval_set(&compiled);
    ///
    /// // A batch: relabel b#5 and delete c#3, accumulated into one region
    /// // (a deletion's doomed refs are recorded before it applies).
    /// let mut region = DirtyRegion::new();
    /// region.record_removals(&tree.subtree_nodes(NodeId::from_raw(3)).unwrap());
    /// for op in [
    ///     Update::Relabel { node: NodeId::from_raw(5), label: "c".into() },
    ///     Update::DeleteSubtree { node: NodeId::from_raw(3) },
    /// ] {
    ///     let (_token, scope) = apply_undoable(&mut tree, &op).unwrap();
    ///     ev.refresh_after(&tree, &scope);
    ///     region.record(&tree, &scope);
    /// }
    /// let mut sets = base.clone();
    /// let journal = ev.eval_set_splice(&compiled, &region, &mut sets).expect("linear suite");
    /// assert_eq!(sets, ev.eval_set(&compiled)); // ≡ the full pass
    /// assert_eq!(sets[0].len(), 1); // b#5 left /a/b…
    /// assert_eq!(sets[1].len(), 1); // …and became the only //c
    /// journal.revert(&mut sets);
    /// assert_eq!(sets, base); // the reject path restores the baselines
    /// ```
    pub fn eval_set_splice<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        region: &DirtyRegion,
        sets: &mut [BTreeSet<NodeRef>],
    ) -> Option<SpliceJournal> {
        use crate::stats;
        stats::bump(&stats::SPLICE_ATTEMPTS, 1);
        let out = self.eval_set_splice_inner(set, region, sets);
        match &out {
            Some(_) => stats::bump(&stats::SPLICE_COMMITS, 1),
            None => stats::bump(&stats::SPLICE_DECLINED, 1),
        }
        out
    }

    fn eval_set_splice_inner<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        region: &DirtyRegion,
        sets: &mut [BTreeSet<NodeRef>],
    ) -> Option<SpliceJournal> {
        self.check_fresh();
        if !set.fallbacks().is_empty() || sets.len() != set.pattern_count() {
            return None;
        }
        let k = set.pattern_count();
        let mut journal = SpliceJournal { events: vec![Vec::new(); k] };
        if region.is_clean() {
            return Some(journal);
        }
        let roots = self.dirty_root_slots(region)?;
        let DirtySweep { touched, fresh, roots: swept } = self.sweep_dirty_roots(set, &roots);
        // A dirty region covering most of the document (a root-level move
        // in a small tree) makes targeted splicing slower than one clean
        // sweep: hand it back before any mutation.
        if touched.len().saturating_mul(k.max(1)) > 4 * self.tree.len() {
            return None;
        }
        crate::stats::bump(&crate::stats::DIRTY_ROOTS_SWEPT, roots.len() as u64);
        crate::stats::bump(&crate::stats::DIRTY_NODES_SWEPT, touched.len() as u64);
        let slots = self.tree.slots();
        let node = |v: u32| NodeRef { id: slots.ids[v as usize], label: slots.labels[v as usize] };

        // 1. Targeted removals: every baseline entry inside a dirty
        //    subtree, under its pre-batch label, plus every deleted ref.
        for &v in &touched {
            let now = node(v);
            let old =
                NodeRef { id: now.id, label: region.original_label(now.id).unwrap_or(now.label) };
            for (i, row) in sets.iter_mut().enumerate() {
                if row.remove(&old) {
                    journal.events[i].push((old, false));
                }
            }
        }
        for r in region.removed() {
            for (i, row) in sets.iter_mut().enumerate() {
                if row.remove(r) {
                    journal.events[i].push((*r, false));
                }
            }
        }
        // 2. Pinpoint id swaps: a target alive outside the dirty subtrees
        //    carries its membership to the new id; a dead or re-derived
        //    target only evicts the pre-batch entry.
        for sw in region.id_swaps() {
            let old = NodeRef { id: sw.from, label: sw.label };
            let alive_outside = match self.tree.slot_of(sw.to) {
                Some(v) if !self.below_any(v, &swept) => Some(v),
                _ => None,
            };
            for (i, row) in sets.iter_mut().enumerate() {
                if row.remove(&old) {
                    journal.events[i].push((old, false));
                    if let Some(v) = alive_outside {
                        // A member outside the swept subtrees kept its label.
                        debug_assert_eq!(slots.labels[v as usize], sw.label, "swap label drifted");
                        let new = NodeRef { id: sw.to, label: sw.label };
                        if row.insert(new) {
                            journal.events[i].push((new, true));
                        }
                    }
                }
            }
        }
        // 3. Fresh membership below the dirty roots.
        for (i, slots) in fresh.iter().enumerate() {
            for &v in slots {
                let r = node(v);
                if sets[i].insert(r) {
                    journal.events[i].push((r, true));
                }
            }
        }
        Some(journal)
    }

    /// The id set of `q(I)` (constraints compare ranges by id).
    pub fn eval_ids(&mut self, q: &Pattern) -> BTreeSet<NodeId> {
        let frontier = self.frontier_at(q, self.tree.root_id());
        let ids = self.tree.slots().ids;
        let mut out = BTreeSet::new();
        for_each_set_bit(&frontier, |v| {
            out.insert(ids[v]);
        });
        out
    }

    /// Does `q`, read as a boolean query, hold below `start`?
    pub fn holds_below(&mut self, q: &Pattern, start: NodeId) -> bool {
        !is_zero(&self.frontier_at(q, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use xuc_xtree::{apply_undoable, parse_term, undo, Update};

    fn ids(set: &BTreeSet<NodeRef>) -> Vec<u64> {
        set.iter().map(|n| n.id.raw()).collect()
    }

    #[test]
    fn matches_eval_module_on_examples() {
        let cases = [
            ("root(a#1(b#2),a#3,c#4(a#5))", "/a"),
            ("root(a#1(b#2),a#3,c#4(a#5))", "//a"),
            ("root(a#1(b#2),a#3)", "/a[/b]"),
            ("root(a#1(x#2(b#3(c#4)),b#5),b#6(c#7))", "/a//b[/c]"),
            ("root(a#1(b#2),c#3(d#4))", "/*/*"),
            ("a#1(a#2)", "//a"),
            ("root(a#1(b#2(c#3(d#4))),a#5(b#6(c#7)))", "/a[/b[/c[/d]]]"),
            ("root(a#1(b#2,v#3),a#4(b#5))", "/a[/v]/b"),
            ("r(a#1(a#2(a#3(a#4))))", "//a//a"),
        ];
        for (term, query) in cases {
            let t = parse_term(term).unwrap();
            let q = parse(query).unwrap();
            let mut ev = Evaluator::new(&t);
            assert_eq!(ev.eval(&q), crate::eval::eval(&q, &t), "tree {term} query {query}");
        }
    }

    #[test]
    fn batch_reuses_one_snapshot() {
        let t = parse_term("root(a#1(b#2(c#3)),a#4(b#5),c#6)").unwrap();
        let queries: Vec<_> =
            ["/a", "//b", "/a/b[/c]", "//c", "/*"].iter().map(|s| parse(s).unwrap()).collect();
        let mut ev = Evaluator::new(&t);
        let batch = ev.eval_all(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            assert_eq!(*r, crate::eval::eval(q, &t), "query {q}");
        }
    }

    #[test]
    fn eval_at_subtree() {
        let t = parse_term("root(a#1(b#2(c#3)),b#4(c#5))").unwrap();
        let q = parse("/b/c").unwrap();
        let mut ev = Evaluator::new(&t);
        assert_eq!(ids(&ev.eval_at(&q, NodeId::from_raw(1))), vec![3]);
        assert_eq!(ids(&ev.eval(&q)), vec![5]);
        assert!(ev.holds_below(&q, NodeId::from_raw(1)));
        assert!(!ev.holds_below(&q, NodeId::from_raw(2)));
    }

    #[test]
    fn refresh_tracks_mutation() {
        let mut t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let q = parse("/a[/b]").unwrap();
        let mut ev = Evaluator::new(&t);
        assert_eq!(ids(&ev.eval(&q)), vec![1]);
        t.add(NodeId::from_raw(3), "b").unwrap();
        ev.refresh(&t);
        assert_eq!(ids(&ev.eval(&q)), vec![1, 3]);
        t.delete_subtree(NodeId::from_raw(1)).unwrap();
        ev.refresh(&t);
        assert_eq!(ids(&ev.eval(&q)), vec![3]);
    }

    #[test]
    #[should_panic(expected = "invalidate")]
    fn stale_snapshot_panics() {
        let t = parse_term("root(a#1)").unwrap();
        let mut ev = Evaluator::new(&t);
        ev.invalidate();
        let q = parse("/a").unwrap();
        let _ = ev.eval(&q);
    }

    #[test]
    fn wide_trees_cross_word_boundaries() {
        // > 64 children exercises multi-word rows and the tail mask.
        let mut t = xuc_xtree::DataTree::new("root");
        let root = t.root_id();
        let mut b_parent = None;
        for i in 0..150 {
            let id = t.add(root, if i % 3 == 0 { "a" } else { "x" }).unwrap();
            if i == 149 {
                b_parent = Some(id);
            }
        }
        t.add(b_parent.unwrap(), "b").unwrap();
        let mut ev = Evaluator::new(&t);
        let qa = parse("/a").unwrap();
        assert_eq!(ev.eval(&qa).len(), 50);
        let qw = parse("//*").unwrap();
        assert_eq!(ev.eval(&qw).len(), 151);
        let qxb = parse("/x[/b]").unwrap();
        assert_eq!(ev.eval(&qxb).len(), 1);
        for (term_q, expect) in [("//b", 1), ("/x/b", 1), ("/a/b", 0)] {
            let q = parse(term_q).unwrap();
            assert_eq!(ev.eval(&q).len(), expect, "{term_q}");
        }
    }

    #[test]
    fn refresh_after_relabel_patches_without_walking() {
        let mut t = parse_term("root(a#1(b#2),a#3,c#4)").unwrap();
        let qa = parse("/a").unwrap();
        let qc = parse("//c").unwrap();
        let mut ev = Evaluator::new(&t);
        // Prime the label-row cache for both labels involved.
        assert_eq!(ev.eval(&qa).len(), 2);
        assert_eq!(ev.eval(&qc).len(), 1);

        let op = Update::Relabel { node: NodeId::from_raw(3), label: Label::new("c") };
        let walks_before = xuc_xtree::preorder_walk_count();
        let (token, scope) = apply_undoable(&mut t, &op).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&qa)), vec![1]);
        assert_eq!(ids(&ev.eval(&qc)), vec![3, 4]);
        let scope = undo(&mut t, token).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&qa)), vec![1, 3]);
        assert_eq!(ids(&ev.eval(&qc)), vec![4]);
        assert_eq!(
            xuc_xtree::preorder_walk_count(),
            walks_before,
            "relabel apply/undo must not re-walk the tree"
        );
    }

    #[test]
    fn refresh_after_replace_id_patches_index() {
        let mut t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let q = parse("/a").unwrap();
        let mut ev = Evaluator::new(&t);
        assert_eq!(ids(&ev.eval(&q)), vec![1, 3]);

        let fresh = NodeId::fresh();
        let op = Update::ReplaceId { node: NodeId::from_raw(1), new_id: fresh };
        let walks_before = xuc_xtree::preorder_walk_count();
        let (token, scope) = apply_undoable(&mut t, &op).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&q)), vec![3, fresh.raw()]);
        // eval_at by the new id works (index patched, not rebuilt).
        assert_eq!(ev.eval_at(&parse("/b").unwrap(), fresh).len(), 1);
        let scope = undo(&mut t, token).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&q)), vec![1, 3]);
        assert_eq!(xuc_xtree::preorder_walk_count(), walks_before);
    }

    #[test]
    fn refresh_after_structural_rebuilds_and_keeps_label_cache_correct() {
        let mut t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let q = parse("/a[/b]").unwrap();
        let mut ev = Evaluator::new(&t);
        assert_eq!(ids(&ev.eval(&q)), vec![1]);

        let op = Update::InsertLeaf {
            parent: NodeId::from_raw(3),
            id: NodeId::from_raw(9),
            label: Label::new("b"),
        };
        let (token, scope) = apply_undoable(&mut t, &op).unwrap();
        assert!(scope.is_structural());
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&q)), vec![1, 3]);
        let scope = undo(&mut t, token).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&q)), vec![1]);

        // Shrinking the tree across a structural refresh must mask the
        // cached rows down to the new size.
        let (_token, scope) =
            apply_undoable(&mut t, &Update::DeleteSubtree { node: NodeId::from_raw(1) }).unwrap();
        ev.refresh_after(&t, &scope);
        assert_eq!(ids(&ev.eval(&parse("/a").unwrap())), vec![3]);
        assert!(ev.eval(&q).is_empty());
    }

    #[test]
    fn interleaved_scoped_refreshes_match_full_refresh() {
        // A mixed apply/undo sequence where every step goes through
        // refresh_after — inserts, deletes, splices and moves (one across
        // the root) between relabels and id swaps — checked
        // against a from-scratch evaluator on every entry point.
        let mut t = parse_term("root(a#1(b#2(c#3),d#4),e#5,a#6(x#7))").unwrap();
        let queries: Vec<_> =
            ["/a", "//b", "/a/b[/c]", "//*", "/a[/d]//c"].map(|s| parse(s).unwrap()).into();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        for q in &queries {
            ev.eval(q); // prime caches
        }
        let ops = [
            Update::Relabel { node: NodeId::from_raw(4), label: Label::new("b") },
            Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::from_raw(20),
                label: Label::new("c"),
            },
            Update::DeleteNode { node: NodeId::from_raw(2) },
            Update::Relabel { node: NodeId::from_raw(3), label: Label::new("a") },
            Update::Move { node: NodeId::from_raw(3), new_parent: NodeId::from_raw(5) },
            Update::DeleteSubtree { node: NodeId::from_raw(7) },
            Update::InsertLeaf {
                parent: NodeId::from_raw(6),
                id: NodeId::from_raw(21),
                label: Label::new("b"),
            },
            Update::Move { node: NodeId::from_raw(20), new_parent: NodeId::from_raw(21) },
            Update::ReplaceId { node: NodeId::from_raw(5), new_id: NodeId::from_raw(50) },
        ];
        let check = |ev: &mut Evaluator, t: &xuc_xtree::DataTree, ctx: &str| {
            let mut oracle = Evaluator::new(t);
            assert_eq!(ev.len(), oracle.len(), "{ctx}");
            assert_eq!(ev.root(), oracle.root(), "{ctx}");
            assert_eq!(ev.eval_set(&set), oracle.eval_set(&set), "{ctx}");
            assert_eq!(ev.eval_all(&queries), oracle.eval_all(&queries), "{ctx}");
            for id in t.node_ids() {
                for q in &queries {
                    assert_eq!(ev.eval_at(q, id), oracle.eval_at(q, id), "{ctx} / {q} at {id}");
                }
            }
        };
        let mut stack = Vec::new();
        for op in &ops {
            let (token, scope) = apply_undoable(&mut t, op).unwrap();
            stack.push(token);
            ev.refresh_after(&t, &scope);
            check(&mut ev, &t, &format!("{op}"));
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut t, token).unwrap();
            ev.refresh_after(&t, &scope);
            check(&mut ev, &t, "undo");
        }
    }

    #[test]
    fn refresh_after_an_invalidate_refreshes_fully() {
        // The tree changes behind the evaluator's back after invalidate();
        // a later scoped refresh cannot vouch for those edits, so it must
        // re-read the whole tree rather than patch and clear the guard.
        let mut t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let mut ev = Evaluator::new(&t);
        ev.invalidate();
        t.add(NodeId::from_raw(3), "b").unwrap();
        let op = Update::Relabel { node: NodeId::from_raw(2), label: Label::new("c") };
        let (_token, scope) = apply_undoable(&mut t, &op).unwrap();
        ev.refresh_after(&t, &scope);
        assert!(!ev.is_stale());
        let q = parse("/a/b").unwrap();
        assert_eq!(ev.eval(&q).len(), 1, "b under a#3 is visible");
        assert_eq!(ev.eval(&q), Evaluator::new(&t).eval(&q));
    }

    #[test]
    fn structural_refresh_reads_the_scope_and_rederives_rows_on_demand() {
        // A structural scoped refresh touches only the subtree its scope
        // names; the set pass runs on it without a walk, and the first
        // bitset entry point re-derives the label rows once.
        let mut t = parse_term("root(a#1(b#2,b#3),a#4(b#5),a#6)").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let q = parse("/a/b").unwrap();
        let mut ev = Evaluator::new(&t);
        let (walks, read) = (xuc_xtree::preorder_walk_count(), ev.refresh_nodes_read());
        let op = Update::InsertLeaf {
            parent: NodeId::from_raw(4),
            id: NodeId::from_raw(7),
            label: Label::new("b"),
        };
        let (token, scope) = apply_undoable(&mut t, &op).unwrap();
        ev.refresh_after(&t, &scope);
        let scope = undo(&mut t, token).unwrap();
        ev.refresh_after(&t, &scope);
        let (_token, scope) =
            apply_undoable(&mut t, &Update::DeleteSubtree { node: NodeId::from_raw(2) }).unwrap();
        ev.refresh_after(&t, &scope);
        // One leaf read in, the same leaf freed, then b#2 freed.
        assert_eq!(ev.refresh_nodes_read() - read, 3);
        assert_eq!(ev.eval_set(&set), Evaluator::new(&t).eval_set(&set));
        let walks_after_oracle = xuc_xtree::preorder_walk_count();
        assert_eq!(walks_after_oracle - walks, 1, "only the oracle walked");
        assert_eq!(ids(&ev.eval(&q)), vec![3, 5]);
        assert_eq!(
            xuc_xtree::preorder_walk_count() - walks_after_oracle,
            1,
            "one row re-derivation"
        );
        assert_eq!(ids(&ev.eval(&q)), vec![3, 5]);
        assert_eq!(
            xuc_xtree::preorder_walk_count() - walks_after_oracle,
            1,
            "rows re-derived once"
        );
    }

    #[test]
    fn root_level_edits_cost_the_subtrees_they_name() {
        // Under a wide root, moves across it, splices and deletes of its
        // children and inserts under it cost the nodes of the subtrees
        // their scopes name — never the root's fan-out. A move relinks
        // one node, whatever its subtree.
        let mut t = xuc_xtree::DataTree::new("root");
        let root = t.root_id();
        let kids: Vec<NodeId> = (0..500).map(|_| t.add(root, "a").unwrap()).collect();
        let leaf = t.add(kids[7], "b").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        let mut stack = Vec::new();
        for (op, cost) in [
            (Update::Move { node: leaf, new_parent: kids[400] }, 1),
            (Update::InsertLeaf { parent: root, id: NodeId::fresh(), label: Label::new("a") }, 1),
            (Update::DeleteNode { node: kids[400] }, 2),
            (Update::Move { node: kids[3], new_parent: kids[450] }, 1),
            (Update::DeleteSubtree { node: kids[450] }, 2),
        ] {
            let read = ev.refresh_nodes_read();
            let (token, scope) = apply_undoable(&mut t, &op).unwrap();
            stack.push(token);
            ev.refresh_after(&t, &scope);
            assert_eq!(ev.refresh_nodes_read() - read, cost, "{op}");
            assert_eq!(ev.eval_set(&set), Evaluator::new(&t).eval_set(&set), "{op}");
        }
        while let Some(token) = stack.pop() {
            let read = ev.refresh_nodes_read();
            let scope = undo(&mut t, token).unwrap();
            ev.refresh_after(&t, &scope);
            assert!(ev.refresh_nodes_read() - read <= 4, "undo to {scope:?}");
            assert_eq!(ev.eval_set(&set), Evaluator::new(&t).eval_set(&set), "undo");
        }
        assert_eq!(ev.len(), t.len());
    }

    #[test]
    fn descendant_axes_hold_on_any_slot_order() {
        // Nodes are moved under nodes created after them, so most parents
        // sit at higher replica slots than their children: the slot-order
        // pass decides almost nothing and the subtree marking does the rest.
        let mut t = xuc_xtree::DataTree::new("root");
        let root = t.root_id();
        let ids: Vec<NodeId> =
            (0..40).map(|i| t.add(root, ["a", "b", "c"][i % 3]).unwrap()).collect();
        let mut ev = Evaluator::new(&t);
        let mut moves = 0;
        for (_, w) in ids.windows(2).enumerate().filter(|(i, _)| i % 7 != 6) {
            let (_token, scope) =
                apply_undoable(&mut t, &Update::Move { node: w[0], new_parent: w[1] }).unwrap();
            ev.refresh_after(&t, &scope);
            moves += 1;
        }
        assert_eq!(ev.refresh_nodes_read(), moves, "a move touches one node");
        let queries = ["//a", "//a//b", "/c//a[/b]", "//b[//c]/a", "/*//*", "//c//c//c"];
        for q in queries.map(|s| parse(s).unwrap()) {
            assert_eq!(ev.eval(&q), crate::naive::eval(&q, &t), "{q}");
            for &id in ids.iter().step_by(5) {
                assert_eq!(ev.eval_at(&q, id), crate::naive::eval_at(&q, &t, id), "{q} at {id}");
            }
        }
    }

    /// A hand-rolled two-state automaton for the batch `["/a", "/x[/b]"]`:
    /// pattern 0 (`/a`) is compiled — state 1 = "depth-1 node labeled a" —
    /// and pattern 1 rides along as a fallback. Exercises the engine pass
    /// without depending on `xuc_automata` (whose `CompiledPatternSet`
    /// implements the same trait; unit tests cannot link it because of the
    /// dev-dependency cycle — integration tests and doctests can).
    struct DepthOneA {
        fallback: Vec<(usize, Pattern)>,
    }

    impl PatternSetAutomaton for DepthOneA {
        fn pattern_count(&self) -> usize {
            2
        }

        fn start_state(&self) -> u32 {
            0
        }

        fn step(&self, state: u32, label: Label) -> u32 {
            if state == 0 && label == Label::new("a") {
                1
            } else {
                2 // dead
            }
        }

        fn accept_row(&self, state: u32) -> &[u64] {
            const ROWS: [[u64; 1]; 3] = [[0], [0b01], [0]];
            &ROWS[state as usize]
        }

        fn fallbacks(&self) -> &[(usize, Pattern)] {
            &self.fallback
        }
    }

    #[test]
    fn eval_set_runs_automaton_and_fallbacks() {
        let t = parse_term("root(a#1(a#2),x#3(b#4),a#5)").unwrap();
        let batch = vec![parse("/a").unwrap(), parse("/x[/b]").unwrap()];
        let set = DepthOneA { fallback: vec![(1, batch[1].clone())] };
        let mut ev = Evaluator::new(&t);
        let rows = ev.eval_set(&set);
        assert_eq!(rows, ev.eval_all(&batch));
        assert_eq!(ids(&rows[0]), vec![1, 5], "depth-1 a nodes only (a#2 is depth 2)");
        assert_eq!(ids(&rows[1]), vec![3], "fallback pattern answered per-pattern");

        // Subtree evaluation re-anchors the automaton at `start`.
        let below = ev.eval_set_at(&set, NodeId::from_raw(1));
        assert_eq!(below, vec![ev.eval_at(&batch[0], NodeId::from_raw(1)), BTreeSet::new()]);
        assert_eq!(ids(&below[0]), vec![2]);
    }

    #[test]
    fn eval_set_splice_covers_relabels_structural_and_swaps() {
        use xuc_xtree::DirtyRegion;
        let mut t = parse_term("root(a#1(a#2,b#3),x#4(b#5),a#6)").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        let base = ev.eval_set(&set);
        assert_eq!(ids(&base[0]), vec![1, 6]);

        // A batch mixing every scope class: a structural delete inside
        // a#1, a pinpoint relabel turning x#4 into a depth-1 `a`, and an
        // id swap of a#6 outside every dirty subtree.
        let fresh = NodeId::fresh();
        let mut region = DirtyRegion::new();
        let mut stack = Vec::new();
        region.record_removals(&t.subtree_nodes(NodeId::from_raw(2)).unwrap());
        for op in [
            Update::DeleteSubtree { node: NodeId::from_raw(2) },
            Update::Relabel { node: NodeId::from_raw(4), label: Label::new("a") },
            Update::ReplaceId { node: NodeId::from_raw(6), new_id: fresh },
        ] {
            let (token, scope) = apply_undoable(&mut t, &op).unwrap();
            ev.refresh_after(&t, &scope);
            region.record(&t, &scope);
            stack.push(token);
        }
        // The deleted subtree leaves removed refs, not a dirty root.
        assert!(region.structural_roots().is_empty());
        assert_eq!(region.removed().len(), 1);
        assert_eq!(region.relabels(), [(NodeId::from_raw(4), Label::new("x"))]);
        assert_eq!(region.id_swaps().len(), 1);

        let mut spliced = base.clone();
        let journal = ev.eval_set_splice(&set, &region, &mut spliced).expect("splice applies");
        assert_eq!(spliced, ev.eval_set(&set), "splice must equal the full pass");
        assert_eq!(ids(&spliced[0]), vec![1, 4, fresh.raw()]);
        journal.revert(&mut spliced);
        assert_eq!(spliced, base, "revert must restore the baseline");

        // Unwinding through the same region (undo scopes recorded too)
        // splices straight back to the baseline.
        while let Some(token) = stack.pop() {
            let scope = undo(&mut t, token).unwrap();
            ev.refresh_after(&t, &scope);
            region.record(&t, &scope);
        }
        assert!(region.id_swaps().is_empty(), "swap-back cancels the patch");
        let mut unwound = base.clone();
        ev.eval_set_splice(&set, &region, &mut unwound).expect("splice applies");
        assert_eq!(unwound, base);
    }

    #[test]
    fn eval_set_splice_patches_in_place_and_reverts() {
        use xuc_xtree::DirtyRegion;
        let mut t = parse_term("root(a#1(a#2,b#3),x#4(b#5),a#6)").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        let base = ev.eval_set(&set);

        let mut region = DirtyRegion::new();
        let mut live = base.clone();
        // Deletion bookkeeping mirrors the session: doomed refs first.
        region.record_removals(&t.subtree_nodes(NodeId::from_raw(1)).unwrap());
        let (_tok, scope) =
            apply_undoable(&mut t, &Update::DeleteSubtree { node: NodeId::from_raw(1) }).unwrap();
        ev.refresh_after(&t, &scope);
        region.record(&t, &scope);
        let (_tok, scope) = apply_undoable(
            &mut t,
            &Update::Relabel { node: NodeId::from_raw(4), label: Label::new("a") },
        )
        .unwrap();
        ev.refresh_after(&t, &scope);
        region.record(&t, &scope);

        let journal = ev.eval_set_splice(&set, &region, &mut live).expect("splice applies");
        assert_eq!(live, ev.eval_set(&set), "in-place splice must equal the full pass");
        assert_eq!(ids(&live[0]), vec![4, 6]);
        // Net changes are exactly base \ now and now \ base: a#1 left the
        // depth-1 `a` set, x#4 (now `a`) joined it; a#6 is untouched.
        let (net_removed, net_added) = journal.net_changes(0);
        assert_eq!(net_removed, vec![NodeRef { id: NodeId::from_raw(1), label: Label::new("a") }]);
        assert_eq!(net_added, vec![NodeRef { id: NodeId::from_raw(4), label: Label::new("a") }]);
        assert!(!journal.is_empty());
        // Revert restores the pre-splice baselines exactly.
        journal.revert(&mut live);
        assert_eq!(live, base);
        // A clean region splices to an empty journal.
        assert!(ev
            .eval_set_splice(&set, &DirtyRegion::new(), &mut live)
            .expect("clean region")
            .is_empty());
        assert_eq!(live, base);
    }

    #[test]
    fn eval_set_splice_degenerate_regions() {
        use xuc_xtree::{DirtyRegion, EditScope};
        let t = parse_term("root(a#1(a#2),x#3)").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        let base = ev.eval_set(&set);
        let mut sets = base.clone();
        // Clean region: the baseline is the answer, the journal empty.
        let journal = ev.eval_set_splice(&set, &DirtyRegion::new(), &mut sets).expect("clean");
        assert!(journal.is_empty());
        assert_eq!(sets, base);
        // A relabeled tree root dirties nothing: its label is on no
        // pattern's path.
        let mut rooted = DirtyRegion::new();
        let root = Label::new("root");
        rooted.record(&t, &EditScope::Relabel { node: t.root_id(), from: root, to: root });
        let journal = ev.eval_set_splice(&set, &rooted, &mut sets).expect("root relabel splices");
        assert!(journal.is_empty());
        assert_eq!(sets, base);
        // Mismatched baseline width: declined, nothing touched.
        assert!(ev.eval_set_splice(&set, &rooted, &mut []).is_none());
    }

    #[test]
    #[should_panic(expected = "invalidate")]
    fn eval_set_checks_staleness() {
        let t = parse_term("root(a#1)").unwrap();
        let mut ev = Evaluator::new(&t);
        ev.invalidate();
        let set = DepthOneA { fallback: Vec::new() };
        let _ = ev.eval_set(&set);
    }

    #[test]
    fn eval_ids_projection() {
        let t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let mut ev = Evaluator::new(&t);
        let q = parse("/a").unwrap();
        let want: BTreeSet<NodeId> = [NodeId::from_raw(1), NodeId::from_raw(3)].into();
        assert_eq!(ev.eval_ids(&q), want);
    }
}
