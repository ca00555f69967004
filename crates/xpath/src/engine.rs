//! The reusable bitset evaluation engine.
//!
//! [`crate::eval`](mod@crate::eval)'s two-phase algorithm is correct but rebuilds a dense
//! snapshot of the tree on *every* call and keeps its satisfaction matrices
//! as `Vec<Vec<bool>>`. The hot consumers — counterexample search, possible
//! embeddings, certain-facts trees — evaluate *many* patterns against the
//! *same* tree, so this module restructures the data layout around that
//! access pattern:
//!
//! * [`Evaluator::new`] builds the snapshot **once**: ids, labels, parent
//!   indices, children in CSR (compressed sparse row) form, all in pre-order
//!   (parents before children), plus a lazy per-label bitset cache.
//! * Satisfaction rows, descendant closures and spine frontiers are packed
//!   `u64` bitsets; the label test and per-child requirement conjunctions
//!   are word-wide AND sweeps, and sparse propagation steps (child→parent,
//!   frontier→children) skip zero words.
//! * [`Evaluator::eval_all`] amortizes one snapshot across a whole batch of
//!   patterns; [`Evaluator::eval_set`] goes one step further and runs a
//!   **set-at-a-time** pass: a whole batch compiled into one deterministic
//!   automaton (see [`PatternSetAutomaton`] — the compiler lives in
//!   `xuc_automata`) is driven over the snapshot **once**, labelling every
//!   node with its satisfied-pattern bitset row in a single pre-order
//!   sweep; [`Evaluator::refresh_after`] re-syncs after a mutation in
//!   time proportional to the edit (a relabel patches two bitset words, an
//!   id swap patches one index entry; only structural edits re-walk — and
//!   even those reuse every allocation, snapshot buffer and label-row
//!   cache included); [`Evaluator::refresh`] is the blunt full rebuild and
//!   the oracle `refresh_after` is tested against; [`Evaluator::invalidate`]
//!   is the guard rail that makes a forgotten refresh a loud panic instead
//!   of a silent wrong answer.
//!
//! The algorithm is exactly the one documented in [`crate::eval`](mod@crate::eval)
//! (Gottlob–Koch–Pichler–Segoufin two-phase evaluation); only the data
//! layout differs, and the property tests in `tests/prop.rs` pin the two
//! implementations (and the naive oracle) to each other.

use crate::pattern::{Axis, NodeTest, Pattern};
use std::collections::{BTreeSet, HashMap};
use xuc_xtree::{DataTree, DirtyRegion, EditScope, Label, NodeId, NodeRef};

const NO_PARENT: u32 = u32::MAX;

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

/// Membership test over sorted, disjoint `(start, end)` pre-order ranges
/// (the dirty-subtree ranges of the delta/splice passes): binary search,
/// so per-member checks stay O(log ranges) however many baseline members
/// are scanned.
fn in_ranges_fn(ranges: &[(usize, usize)]) -> impl Fn(usize) -> bool + '_ {
    move |idx: usize| {
        let p = ranges.partition_point(|&(s, _)| s <= idx);
        p > 0 && idx < ranges[p - 1].1
    }
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

/// A pattern batch compiled into one deterministic automaton over
/// root-to-node label paths, consumable by [`Evaluator::eval_set`].
///
/// Implemented by `xuc_automata::CompiledPatternSet` (`xuc_automata`
/// depends on this crate, so the engine consumes the automaton through
/// this trait rather than the concrete type). The contract:
///
/// * states are opaque `u32`s strictly below `u32::MAX` (the engine uses
///   `u32::MAX` as its out-of-subtree sentinel), and the automaton is
///   **complete** — [`step`](Self::step) is total over all labels;
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
    n: usize,
    words: usize,
    ids: Vec<NodeId>,
    labels: Vec<Label>,
    /// Pre-order parent indices; `NO_PARENT` for the root.
    parent: Vec<u32>,
    /// Children in CSR form: node `v`'s children are
    /// `child_list[child_start[v]..child_start[v + 1]]`.
    child_start: Vec<u32>,
    child_list: Vec<u32>,
    index_of: HashMap<NodeId, u32>,
    /// Lazy per-label node bitsets (re-derived in place on refresh, so the
    /// cache and its allocations survive structural rebuilds).
    label_rows: HashMap<Label, Vec<u64>>,
    /// All-ones row masked to `n` bits (the wildcard test).
    ones: Vec<u64>,
    stale: bool,
    /// Reused snapshot buffer: one heap allocation across all refreshes.
    scratch: Vec<(NodeId, Label, Option<usize>)>,
    /// Reused per-node child-count buffer for the CSR rebuild.
    scratch_counts: Vec<u32>,
    /// Reused per-node automaton-state buffer for the set-at-a-time pass.
    scratch_states: Vec<u32>,
}

impl Evaluator {
    /// Builds the snapshot for `tree`. Cost: one pre-order walk plus the
    /// id index; every subsequent [`eval`](Self::eval) reuses it.
    pub fn new(tree: &DataTree) -> Evaluator {
        let mut ev = Evaluator {
            n: 0,
            words: 0,
            ids: Vec::new(),
            labels: Vec::new(),
            parent: Vec::new(),
            child_start: Vec::new(),
            child_list: Vec::new(),
            index_of: HashMap::new(),
            label_rows: HashMap::new(),
            ones: Vec::new(),
            stale: true,
            scratch: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_states: Vec::new(),
        };
        ev.refresh(tree);
        ev
    }

    /// Rebuilds the snapshot after `tree` was mutated, reusing the
    /// existing allocations (including the snapshot buffer itself, via
    /// [`DataTree::preorder_snapshot_into`]). This is the blunt fallback
    /// of the refresh protocol — and the oracle the edit-proportional
    /// [`refresh_after`](Self::refresh_after) is tested against; see
    /// [`invalidate`](Self::invalidate).
    pub fn refresh(&mut self, tree: &DataTree) {
        // Take the scratch buffer out of `self` so the walk can fill it
        // while the snapshot arrays are rebuilt.
        let mut flat = std::mem::take(&mut self.scratch);
        tree.preorder_snapshot_into(&mut flat);
        let n = flat.len();
        self.n = n;
        self.words = word_count(n);

        self.ids.clear();
        self.labels.clear();
        self.parent.clear();
        self.index_of.clear();
        self.ids.reserve(n);
        self.labels.reserve(n);
        self.parent.reserve(n);
        self.index_of.reserve(n);

        // CSR: count children per node, prefix-sum, then scatter. Pre-order
        // guarantees parent indices precede their children.
        let mut counts = std::mem::take(&mut self.scratch_counts);
        counts.clear();
        counts.resize(n + 1, 0);
        for (i, (id, label, parent)) in flat.iter().enumerate() {
            self.ids.push(*id);
            self.labels.push(*label);
            self.index_of.insert(*id, i as u32);
            match parent {
                Some(p) => {
                    debug_assert!(*p < i, "pre-order parents come first");
                    self.parent.push(*p as u32);
                    counts[*p] += 1;
                }
                None => self.parent.push(NO_PARENT),
            }
        }
        self.child_start.clear();
        self.child_start.resize(n + 1, 0);
        let mut acc = 0u32;
        for (start, count) in self.child_start[..n].iter_mut().zip(&counts) {
            *start = acc;
            acc += count;
        }
        self.child_start[n] = acc;
        self.child_list.clear();
        self.child_list.resize(acc as usize, 0);
        // Reuse `counts` as the scatter cursor.
        counts[..n].copy_from_slice(&self.child_start[..n]);
        for (i, &p) in self.parent.iter().enumerate() {
            if p != NO_PARENT {
                self.child_list[counts[p as usize] as usize] = i as u32;
                counts[p as usize] += 1;
            }
        }
        self.scratch_counts = counts;
        self.scratch = flat;

        self.ones.clear();
        self.ones.resize(self.words, !0u64);
        if !n.is_multiple_of(64) && self.words > 0 {
            self.ones[self.words - 1] = (1u64 << (n % 64)) - 1;
        }

        // Re-derive the cached label rows from the new `labels` array in
        // one pass instead of discarding the cache: rows for labels no
        // longer present simply become zero rows (still correct answers).
        for row in self.label_rows.values_mut() {
            row.clear();
            row.resize(self.words, 0);
        }
        for (v, l) in self.labels.iter().enumerate() {
            if let Some(row) = self.label_rows.get_mut(l) {
                set_bit(row, v);
            }
        }
        self.stale = false;
    }

    /// Refreshes the snapshot **proportionally to one applied edit**,
    /// described by the [`EditScope`] that [`xuc_xtree::apply_undoable`]
    /// (or [`xuc_xtree::undo`]) returned for it.
    ///
    /// * A relabel patches `labels[i]` and the two affected cached label
    ///   rows in place — no walk, no `HashMap` churn.
    /// * An id replacement patches `ids[i]` and its `index_of` entry.
    /// * Structural scopes fall back to the full [`refresh`](Self::refresh)
    ///   (which itself reuses every allocation, including the label-row
    ///   cache).
    ///
    /// The scope must describe the **single** edit separating the
    /// snapshotted state from `tree`'s current state; for a batch of
    /// edits, call this once per edit as it is applied (or undone).
    pub fn refresh_after(&mut self, tree: &DataTree, scope: &EditScope) {
        match scope {
            EditScope::Relabel { node, from, to } => {
                let i = *self
                    .index_of
                    .get(node)
                    .unwrap_or_else(|| panic!("relabeled node {node} not in snapshot"))
                    as usize;
                debug_assert_eq!(self.labels[i], *from, "scope does not match snapshot");
                self.labels[i] = *to;
                if let Some(row) = self.label_rows.get_mut(from) {
                    clear_bit(row, i);
                }
                if let Some(row) = self.label_rows.get_mut(to) {
                    set_bit(row, i);
                }
                self.stale = false;
            }
            EditScope::ReplaceId { from, to } => {
                let i = self
                    .index_of
                    .remove(from)
                    .unwrap_or_else(|| panic!("replaced node {from} not in snapshot"));
                self.index_of.insert(*to, i);
                self.ids[i as usize] = *to;
                self.stale = false;
            }
            EditScope::Structural { .. } => self.refresh(tree),
        }
    }

    /// Marks the snapshot stale. Call this when handing the underlying
    /// tree out for mutation; any evaluation before the matching
    /// [`refresh`](Self::refresh) panics instead of returning answers
    /// computed against a dead snapshot.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Is the snapshot marked stale?
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The snapshotted tree's root node.
    pub fn root(&self) -> NodeRef {
        NodeRef { id: self.ids[0], label: self.labels[0] }
    }

    /// Trees always have a root, so a snapshot is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn children(&self, v: usize) -> &[u32] {
        &self.child_list[self.child_start[v] as usize..self.child_start[v + 1] as usize]
    }

    /// The bitset of nodes whose label passes `test` (cached per label).
    fn test_row(&mut self, test: NodeTest) -> &[u64] {
        match test {
            NodeTest::Wildcard => &self.ones,
            NodeTest::Label(l) => {
                if !self.label_rows.contains_key(&l) {
                    let mut row = vec![0u64; self.words];
                    for (v, &vl) in self.labels.iter().enumerate() {
                        if vl == l {
                            set_bit(&mut row, v);
                        }
                    }
                    self.label_rows.insert(l, row);
                }
                &self.label_rows[&l]
            }
        }
    }

    /// `out[v] = 1` iff some child `w` of `v` has `src[w] = 1`.
    fn any_child(&self, src: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words, 0);
        for_each_set_bit(src, |w| {
            let p = self.parent[w];
            if p != NO_PARENT {
                set_bit(out, p as usize);
            }
        });
    }

    /// `out[v] = 1` iff some *proper descendant* `w` of `v` has
    /// `src[w] = 1`. One reverse pre-order pass: children are visited
    /// before their parents, so `out` accumulates bottom-up.
    fn any_descendant(&self, src: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words, 0);
        for v in (1..self.n).rev() {
            if get_bit(src, v) || get_bit(out, v) {
                set_bit(out, self.parent[v] as usize);
            }
        }
    }

    /// Phase 1 + phase 2 producing the output-node frontier bitset.
    fn frontier_of(&mut self, q: &Pattern, start_idx: usize) -> Vec<u64> {
        assert!(
            !self.stale,
            "Evaluator used after invalidate(): call refresh(&tree) after mutating the tree"
        );
        let words = self.words;

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
        let mut frontier = vec![0u64; words];
        set_bit(&mut frontier, start_idx);
        let mut next = vec![0u64; words];
        for p in q.spine() {
            next.clear();
            next.resize(words, 0);
            match q.axis(p) {
                Axis::Child => {
                    // Children of the frontier, via CSR.
                    for_each_set_bit(&frontier, |v| {
                        for &w in self.children(v) {
                            set_bit(&mut next, w as usize);
                        }
                    });
                }
                Axis::Descendant => {
                    // has-frontier-proper-ancestor by pre-order propagation.
                    for v in 1..self.n {
                        let pv = self.parent[v] as usize;
                        if get_bit(&frontier, pv) || get_bit(&next, pv) {
                            set_bit(&mut next, v);
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
        self.eval_at(q, self.ids[0])
    }

    /// Evaluates `q` on the subtree rooted at `start`: `q(n, I)`.
    ///
    /// # Panics
    /// Panics if `start` is not a node of the snapshotted tree.
    pub fn eval_at(&mut self, q: &Pattern, start: NodeId) -> BTreeSet<NodeRef> {
        let start_idx =
            *self.index_of.get(&start).unwrap_or_else(|| panic!("start node {start} not in tree"))
                as usize;
        let frontier = self.frontier_of(q, start_idx);
        let mut out = BTreeSet::new();
        for_each_set_bit(&frontier, |v| {
            out.insert(NodeRef { id: self.ids[v], label: self.labels[v] });
        });
        out
    }

    /// Evaluates a batch of patterns against the shared snapshot; the
    /// snapshot cost is paid once for the whole batch.
    pub fn eval_all(&mut self, queries: &[Pattern]) -> Vec<BTreeSet<NodeRef>> {
        queries.iter().map(|q| self.eval(q)).collect()
    }

    /// Set-at-a-time batch evaluation: drives a pre-compiled
    /// [`PatternSetAutomaton`] over the snapshot **once**, producing the
    /// same results as [`eval_all`](Self::eval_all) on the batch the
    /// automaton was compiled from. The cost is one automaton step plus
    /// one acceptance-row scan per node — independent of how many
    /// patterns the batch holds — versus one full bitset sweep *per
    /// pattern* on the per-pattern path. Patterns the automaton does not
    /// cover (its [`fallbacks`](PatternSetAutomaton::fallbacks)) are
    /// evaluated per-pattern, so the result is always complete.
    ///
    /// Cooperates with the edit-scope refresh protocol: the pass reads
    /// `labels` straight from the snapshot, so after a relabel patched in
    /// O(1) by [`refresh_after`](Self::refresh_after) the very next
    /// `eval_set` sees the new labels — no automaton recompilation, no
    /// extra re-sync cost on the set path.
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
        self.eval_set_at(set, self.ids[0])
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
        assert!(
            !self.stale,
            "Evaluator used after invalidate(): call refresh(&tree) after mutating the tree"
        );
        crate::stats::bump(&crate::stats::EVAL_SET_SWEEPS, 1);
        let start_idx =
            *self.index_of.get(&start).unwrap_or_else(|| panic!("start node {start} not in tree"))
                as usize;
        // Members are gathered per pattern and bulk-built at the end: a
        // bulk-built set fills every leaf and lays them out in order,
        // where inserting one by one leaves each leaf half full. Every
        // later walk of the set (admission splices, cloning it out in a
        // certificate) then touches about half the memory.
        let mut rows: Vec<Vec<NodeRef>> = vec![Vec::new(); set.pattern_count()];

        // Sentinel for nodes outside `start`'s subtree (automaton states
        // are required to stay below it; see the trait contract).
        const NO_STATE: u32 = u32::MAX;
        let mut states = std::mem::take(&mut self.scratch_states);
        states.clear();
        states.resize(self.n, NO_STATE);
        states[start_idx] = set.start_state();
        // One pre-order sweep: parents precede children, so every node's
        // state derives from an already-computed parent state. Pre-order
        // also makes `start`'s subtree contiguous, so the first node whose
        // parent carries the sentinel is past the subtree — as is
        // everything after it — and the sweep stops there.
        for v in start_idx + 1..self.n {
            let ps = states[self.parent[v] as usize];
            if ps == NO_STATE {
                break;
            }
            let s = set.step(ps, self.labels[v]);
            states[v] = s;
            for_each_set_bit(set.accept_row(s), |q| {
                rows[q].push(NodeRef { id: self.ids[v], label: self.labels[v] });
            });
        }
        self.scratch_states = states;
        let mut out: Vec<BTreeSet<NodeRef>> = rows.into_iter().map(BTreeSet::from_iter).collect();

        crate::stats::bump(&crate::stats::FALLBACK_PATTERN_EVALS, set.fallbacks().len() as u64);
        for (i, q) in set.fallbacks() {
            out[*i] = self.eval_at(q, start);
        }
        out
    }

    /// The dirty subtree roots of `region` as sorted, deduplicated
    /// snapshot indices — structural roots plus relabeled nodes (a
    /// relabel dirties its whole subtree: every descendant's label path
    /// runs through it). `None` when the region names a node this
    /// snapshot cannot account for (stale region → callers fall back to
    /// the full pass). Relabeled nodes that the region knows were deleted
    /// are skipped: the deletion's structural root covers their former
    /// subtree.
    fn dirty_root_indices(&self, region: &DirtyRegion) -> Option<Vec<usize>> {
        let mut roots: Vec<usize> =
            Vec::with_capacity(region.structural_roots().len() + region.relabels().len());
        for id in region.structural_roots() {
            roots.push(*self.index_of.get(id)? as usize);
        }
        for (id, _) in region.relabels() {
            match self.index_of.get(id) {
                Some(&i) => roots.push(i as usize),
                None if region.removed().iter().any(|r| r.id == *id) => {}
                None => return None,
            }
        }
        roots.sort_unstable();
        roots.dedup();
        Some(roots)
    }

    /// Edit-proportional batch evaluation: produces exactly
    /// [`eval_set`](Self::eval_set)'s answer by **splicing** a previously
    /// computed baseline instead of re-sweeping the whole snapshot. `base`
    /// must be `eval_set(set)`'s result on some earlier state of the tree,
    /// and `region` the [`DirtyRegion`] accumulated over every edit (and
    /// undo) separating that state from the current snapshot.
    ///
    /// Soundness rests on the automaton contract: a compiled (linear)
    /// pattern's membership at a node depends **only on the node's
    /// root-to-node label path**. Every path change is confined to the
    /// region — structural edits to their recorded subtree, relabels to
    /// the relabeled node's subtree (each descendant's path runs through
    /// it), id swaps to nothing (paths are label strings) — so:
    ///
    /// 1. the automaton is re-driven only **below each dirty root**, whose
    ///    own state is replayed along its ancestor path (`O(depth)`), via
    ///    the same sentinel machinery as [`eval_set_at`](Self::eval_set_at);
    /// 2. baseline members that were deleted, sit inside a dirty subtree,
    ///    or received their id from a swap are dropped; everything else
    ///    provably kept its membership and is retained as-is;
    /// 3. pinpoint id swaps patch `(from, label)` entries to `(to, label)`
    ///    — same membership, new identity;
    /// 4. the fresh sub-results are spliced in.
    ///
    /// Total cost: `O(Σ dirty-subtree sizes + Σ |base|)` — independent of
    /// how much *clean* document lies outside the region. Batches whose
    /// automaton carries predicate [`fallbacks`](PatternSetAutomaton::fallbacks)
    /// (whose membership is not path-determined), poisoned regions
    /// ([`DirtyRegion::is_full`]), a stale region (naming nodes not in the
    /// snapshot), or a mismatched baseline fall back to the full
    /// [`eval_set`](Self::eval_set) pass — the answer is always exact.
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
    /// // A batch: relabel b#5 and delete c#3, accumulated into one region.
    /// let mut region = DirtyRegion::new();
    /// for op in [
    ///     Update::Relabel { node: NodeId::from_raw(5), label: "c".into() },
    ///     Update::DeleteSubtree { node: NodeId::from_raw(3) },
    /// ] {
    ///     let (_token, scope) = apply_undoable(&mut tree, &op).unwrap();
    ///     ev.refresh_after(&tree, &scope);
    ///     region.record(&tree, &scope);
    /// }
    /// let spliced = ev.eval_set_delta(&compiled, &region, &base);
    /// assert_eq!(spliced, ev.eval_set(&compiled)); // ≡ the full pass
    /// assert_eq!(spliced[0].len(), 1); // b#5 left /a/b…
    /// assert_eq!(spliced[1].len(), 1); // …and became the only //c
    /// ```
    pub fn eval_set_delta<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        region: &DirtyRegion,
        base: &[BTreeSet<NodeRef>],
    ) -> Vec<BTreeSet<NodeRef>> {
        assert!(
            !self.stale,
            "Evaluator used after invalidate(): call refresh(&tree) after mutating the tree"
        );
        if region.is_full() || !set.fallbacks().is_empty() || base.len() != set.pattern_count() {
            return self.eval_set(set);
        }
        if region.is_clean() {
            return base.to_vec();
        }
        let k = set.pattern_count();

        // Dirty roots as snapshot indices. Structural roots are live by
        // the region's algebra; a relabeled node may since have been
        // deleted (its subtree is then covered by the deletion's
        // structural root — skip it when the region can vouch for the
        // death, otherwise hand the stale region to the full pass).
        let Some(roots) = self.dirty_root_indices(region) else {
            return self.eval_set(set);
        };

        let mut fresh_idx: Vec<Vec<usize>> = vec![Vec::new(); k];
        let ranges = self.sweep_dirty_roots(set, &roots, |_| {}, |q, v| fresh_idx[q].push(v));

        // Splice. A baseline member keeps its membership iff it still
        // exists, sits outside every dirty subtree, and did not *receive*
        // its id from a swap (ids only enter a tree through inserts —
        // covered by a dirty subtree — or swaps; anything else is the same
        // node on the same label path). The per-member tests are O(log)
        // — ranges are sorted and disjoint — so the scan really is the
        // advertised O(Σ |base|).
        let in_ranges = in_ranges_fn(&ranges);
        let swap_targets: BTreeSet<NodeId> = region.id_swaps().iter().map(|sw| sw.to).collect();
        let mut out: Vec<BTreeSet<NodeRef>> = base.to_vec();
        for row in &mut out {
            row.retain(|nr| match self.index_of.get(&nr.id) {
                None => false,
                Some(&ix) => !in_ranges(ix as usize) && !swap_targets.contains(&nr.id),
            });
        }
        // Pinpoint id swaps outside the dirty subtrees: same membership,
        // new identity. (Swapped nodes that were also relabeled or moved
        // sit inside a dirty subtree — or forced the full-pass fallback
        // above — so `label` here is still the baseline label.)
        for sw in region.id_swaps() {
            let Some(&ix) = self.index_of.get(&sw.to) else { continue };
            if in_ranges(ix as usize) {
                continue;
            }
            debug_assert_eq!(self.labels[ix as usize], sw.label, "swap label drifted");
            let old = NodeRef { id: sw.from, label: sw.label };
            let new = NodeRef { id: sw.to, label: sw.label };
            for (b, row) in base.iter().zip(&mut out) {
                if b.contains(&old) {
                    row.insert(new);
                }
            }
        }
        for (row, idxs) in out.iter_mut().zip(&fresh_idx) {
            row.extend(idxs.iter().map(|&v| NodeRef { id: self.ids[v], label: self.labels[v] }));
        }
        out
    }

    /// Re-drives `set` below each dirty root (`roots`: sorted snapshot
    /// indices), reporting every swept node's index through `on_node`
    /// (dirty roots included, the tree root excluded) and every accepted
    /// `(pattern, node index)` through `on_accept`. Returns the swept
    /// pre-order ranges. Each root's state is replayed along its ancestor
    /// path (`O(depth)`); roots nested inside an earlier range are
    /// skipped. Distinct surviving subtrees are disjoint, so the sentinel
    /// array needs no clearing between sweeps: a parent state written by
    /// an earlier sweep always belongs to the same subtree.
    fn sweep_dirty_roots<A: PatternSetAutomaton + ?Sized>(
        &mut self,
        set: &A,
        roots: &[usize],
        mut on_node: impl FnMut(usize),
        mut on_accept: impl FnMut(usize, usize),
    ) -> Vec<(usize, usize)> {
        const NO_STATE: u32 = u32::MAX;
        let mut states = std::mem::take(&mut self.scratch_states);
        states.clear();
        states.resize(self.n, NO_STATE);
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(roots.len());
        for &ri in roots {
            if let Some(&(_, end)) = ranges.last() {
                if ri < end {
                    continue;
                }
            }
            // Replay the root's state along its ancestor path (the root's
            // own label is consumed: states are root-anchored, exactly as
            // in eval_set's sweep from the tree root).
            let mut s = set.start_state();
            let mut path = Vec::new();
            let mut v = ri;
            while v != 0 {
                path.push(v);
                v = self.parent[v] as usize;
            }
            for &w in path.iter().rev() {
                s = set.step(s, self.labels[w]);
            }
            states[ri] = s;
            if ri != 0 {
                // The dirty root's own membership (the tree root is never
                // a member — patterns match strictly below it).
                on_node(ri);
                for_each_set_bit(set.accept_row(s), |q| on_accept(q, ri));
            }
            let mut end = self.n;
            for v in ri + 1..self.n {
                let ps = states[self.parent[v] as usize];
                if ps == NO_STATE {
                    end = v;
                    break;
                }
                let s = set.step(ps, self.labels[v]);
                states[v] = s;
                on_node(v);
                for_each_set_bit(set.accept_row(s), |q| on_accept(q, v));
            }
            ranges.push((ri, end));
        }
        self.scratch_states = states;
        ranges
    }

    /// [`eval_set_delta`](Self::eval_set_delta)'s **in-place** twin: the
    /// commit hot path. Instead of materializing a fresh result vector
    /// (which costs a full baseline clone however small the edit), the
    /// splice mutates `sets` — the cached committed baselines — directly:
    /// targeted removals of the baseline entries inside the dirty
    /// subtrees (located under their **pre-batch** labels through the
    /// region's relabel history), eviction of the region's
    /// [`removed`](DirtyRegion::removed) refs, pinpoint id-swap patches,
    /// and insertion of the freshly re-derived sub-results. Total cost is
    /// proportional to the dirty region — zero work per clean document
    /// node and zero work per untouched baseline member.
    ///
    /// Every individual mutation is recorded in the returned
    /// [`SpliceJournal`], whose net changes per pattern are exactly
    /// `base \ now` and `now \ base` — enough to judge growth/shrink
    /// admission conditions without ever materializing both sets — and
    /// which [`SpliceJournal::revert`] replays backwards to restore the
    /// baselines exactly (the reject path).
    ///
    /// Returns `None` — with `sets` untouched — when the splice argument
    /// does not apply (predicate fallbacks, poisoned or stale region,
    /// width mismatch) or when the dirty region is so large that the full
    /// pass is cheaper; callers then run [`eval_set`](Self::eval_set).
    /// The differential harness in `xuc-service` pins this function
    /// against full-pass admission verdict-for-verdict and
    /// baseline-for-baseline.
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
        assert!(
            !self.stale,
            "Evaluator used after invalidate(): call refresh(&tree) after mutating the tree"
        );
        if region.is_full() || !set.fallbacks().is_empty() || sets.len() != set.pattern_count() {
            return None;
        }
        let k = set.pattern_count();
        let mut journal = SpliceJournal { events: vec![Vec::new(); k] };
        if region.is_clean() {
            return Some(journal);
        }
        let roots = self.dirty_root_indices(region)?;
        let mut touched: Vec<usize> = Vec::new();
        let mut fresh_idx: Vec<Vec<usize>> = vec![Vec::new(); k];
        let ranges =
            self.sweep_dirty_roots(set, &roots, |v| touched.push(v), |q, v| fresh_idx[q].push(v));
        // A dirty region covering most of the document (a root-level move
        // in a small tree) makes targeted splicing slower than one clean
        // sweep: hand it back before any mutation.
        if touched.len().saturating_mul(k.max(1)) > 4 * self.n {
            return None;
        }
        crate::stats::bump(&crate::stats::DIRTY_ROOTS_SWEPT, roots.len() as u64);
        crate::stats::bump(&crate::stats::DIRTY_NODES_SWEPT, touched.len() as u64);

        // 1. Targeted removals: every baseline entry inside a dirty
        //    subtree, under its pre-batch label, plus every deleted ref.
        for &v in &touched {
            let id = self.ids[v];
            let old = NodeRef { id, label: region.original_label(id).unwrap_or(self.labels[v]) };
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
        let in_ranges = in_ranges_fn(&ranges);
        for sw in region.id_swaps() {
            let old = NodeRef { id: sw.from, label: sw.label };
            let alive_outside = match self.index_of.get(&sw.to) {
                Some(&ix) if !in_ranges(ix as usize) => {
                    debug_assert_eq!(self.labels[ix as usize], sw.label, "swap label drifted");
                    true
                }
                _ => false,
            };
            for (i, row) in sets.iter_mut().enumerate() {
                if row.remove(&old) {
                    journal.events[i].push((old, false));
                    if alive_outside {
                        let new = NodeRef { id: sw.to, label: sw.label };
                        if row.insert(new) {
                            journal.events[i].push((new, true));
                        }
                    }
                }
            }
        }
        // 3. Fresh membership below the dirty roots.
        for (i, idxs) in fresh_idx.iter().enumerate() {
            for &v in idxs {
                let r = NodeRef { id: self.ids[v], label: self.labels[v] };
                if sets[i].insert(r) {
                    journal.events[i].push((r, true));
                }
            }
        }
        Some(journal)
    }

    /// The id set of `q(I)` (constraints compare ranges by id).
    pub fn eval_ids(&mut self, q: &Pattern) -> BTreeSet<NodeId> {
        let frontier = self.frontier_of(q, 0);
        let mut out = BTreeSet::new();
        for_each_set_bit(&frontier, |v| {
            out.insert(self.ids[v]);
        });
        out
    }

    /// Does `q`, read as a boolean query, hold below `start`?
    pub fn holds_below(&mut self, q: &Pattern, start: NodeId) -> bool {
        let start_idx =
            *self.index_of.get(&start).unwrap_or_else(|| panic!("start node {start} not in tree"))
                as usize;
        !is_zero(&self.frontier_of(q, start_idx))
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
        // refresh_after, checked against a from-scratch evaluator.
        let mut t = parse_term("root(a#1(b#2(c#3),d#4),e#5)").unwrap();
        let queries: Vec<_> =
            ["/a", "//b", "/a/b[/c]", "//*", "/a[/d]//c"].map(|s| parse(s).unwrap()).into();
        let mut ev = Evaluator::new(&t);
        for q in &queries {
            ev.eval(q); // prime caches
        }
        let ops = [
            Update::Relabel { node: NodeId::from_raw(4), label: Label::new("b") },
            Update::DeleteNode { node: NodeId::from_raw(2) },
            Update::Relabel { node: NodeId::from_raw(3), label: Label::new("a") },
            Update::Move { node: NodeId::from_raw(3), new_parent: NodeId::from_raw(5) },
            Update::ReplaceId { node: NodeId::from_raw(5), new_id: NodeId::from_raw(50) },
        ];
        let mut stack = Vec::new();
        for op in &ops {
            let (token, scope) = apply_undoable(&mut t, op).unwrap();
            stack.push(token);
            ev.refresh_after(&t, &scope);
            let mut oracle = Evaluator::new(&t);
            for q in &queries {
                assert_eq!(ev.eval(q), oracle.eval(q), "{op} / {q}");
            }
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut t, token).unwrap();
            ev.refresh_after(&t, &scope);
        }
        let mut oracle = Evaluator::new(&t);
        for q in &queries {
            assert_eq!(ev.eval(q), oracle.eval(q), "after full unwind / {q}");
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
    fn eval_set_delta_splices_relabels_structural_and_swaps() {
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
        assert_eq!(region.structural_roots(), [NodeId::from_raw(1)]);
        assert_eq!(region.relabels(), [(NodeId::from_raw(4), Label::new("x"))]);
        assert_eq!(region.id_swaps().len(), 1);

        let spliced = ev.eval_set_delta(&set, &region, &base);
        assert_eq!(spliced, ev.eval_set(&set), "delta must equal the full pass");
        assert_eq!(ids(&spliced[0]), vec![1, 4, fresh.raw()]);

        // Unwinding through the same region (undo scopes recorded too)
        // splices straight back to the baseline.
        while let Some(token) = stack.pop() {
            let scope = undo(&mut t, token).unwrap();
            ev.refresh_after(&t, &scope);
            region.record(&t, &scope);
        }
        assert!(region.id_swaps().is_empty(), "swap-back cancels the patch");
        assert_eq!(ev.eval_set_delta(&set, &region, &base), base);
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
    fn eval_set_delta_degenerate_regions() {
        use xuc_xtree::{DirtyRegion, EditScope};
        let t = parse_term("root(a#1(a#2),x#3)").unwrap();
        let set = DepthOneA { fallback: Vec::new() };
        let mut ev = Evaluator::new(&t);
        let base = ev.eval_set(&set);
        // Clean region: the baseline is the answer.
        assert_eq!(ev.eval_set_delta(&set, &DirtyRegion::new(), &base), base);
        // Poisoned region: falls back to (and equals) the full pass.
        let mut full = DirtyRegion::new();
        full.record(&t, &EditScope::Structural { root: None });
        assert_eq!(ev.eval_set_delta(&set, &full, &base), base);
        // Whole-tree dirty root: recompute-everything still equals it.
        let mut rooted = DirtyRegion::new();
        rooted.record(&t, &EditScope::Structural { root: Some(t.root_id()) });
        assert_eq!(ev.eval_set_delta(&set, &rooted, &base), base);
        // Mismatched baseline width: full-pass fallback, exact answer.
        assert_eq!(ev.eval_set_delta(&set, &rooted, &[]), base);
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
