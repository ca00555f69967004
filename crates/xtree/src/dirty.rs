//! Session-level accumulation of [`EditScope`]s into a dirty region.
//!
//! A transactional update batch applies several edits before its single
//! admission check. Each edit reports an [`EditScope`], but the admission
//! pass does not want a *sequence* of scopes — it wants the **union**: the
//! smallest description of everything the batch may have changed, against
//! which an in-place splice re-derives answers and patches cached result
//! sets (`xuc_xpath`'s `Evaluator::eval_set_splice`). [`DirtyRegion`] is
//! that union, maintained incrementally as edits are recorded:
//!
//! * structural scopes collapse to a set of **disjoint dirty subtree
//!   roots**: a newly recorded root absorbs every recorded root inside
//!   its subtree, and is itself dropped when an already-recorded root
//!   covers it — so the region never holds nested or duplicate subtrees;
//! * relabel scopes stay **pinpoint** `(node, original label)` entries,
//!   so a batch of scattered relabels does not LCA-merge into one huge
//!   structural subtree. (Consumers evaluating *root-anchored* linear
//!   patterns must still treat the relabeled node's whole subtree as
//!   dirty — every descendant's label path runs through it — but the
//!   region keeps the precise node so that cost stays proportional to
//!   that subtree.) The recorded label is the node's **pre-batch** label:
//!   the first relabel of a node wins, later relabels of the same node
//!   change nothing, and entries survive even when a structural root
//!   covers them — splice consumers need the label history of every node
//!   inside a dirty subtree, not just the uncovered ones;
//! * id-swap scopes stay pinpoint as `(from, to, original label)` patches,
//!   with swap *chains* compressed on the fly (`a→b` then `b→c` records
//!   as `a→c`; a swap-back `a→b`, `b→a` cancels out), so a patch always
//!   maps a pre-batch id (under its pre-batch label) to a live post-batch
//!   id. A relabel entry and a structural root follow their node across
//!   swaps (a root left on the dead id would fail every later ancestor
//!   check and be dropped);
//! * deletions are recorded as **removed refs** — the deleted nodes under
//!   their pre-batch ids and labels
//!   ([`DirtyRegion::record_removals`], fed by the session *before* it
//!   applies a deletion, proportionally to the deleted subtree) — so a
//!   splice consumer can evict exactly the vanished entries from cached
//!   sets without scanning them;
//! * a structural scope with an *unknown* root poisons the region
//!   ([`is_full`](DirtyRegion::is_full)): the whole tree must be treated
//!   as dirty and the splice declines to the full pass.
//!
//! The ancestor checks run against the tree **as it stands when the scope
//! is recorded** — call [`record`](DirtyRegion::record) immediately after
//! each [`apply_undoable`](crate::apply_undoable) (or
//! [`undo`](crate::undo)), with the scope it returned. Recorded structural
//! roots are then stable: any later edit that detaches or deletes a
//! recorded root reports a scope rooted at an ancestor, which absorbs it,
//! so the final roots are always live in the final tree.

use crate::node::NodeId;
use crate::tree::{DataTree, NodeRef};
use crate::update::EditScope;
use crate::Label;

/// One pinpoint id replacement surviving in the region: the node known to
/// the pre-batch world as `(from, label)` — `label` is its **pre-batch**
/// label — is `to` in the post-batch tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSwap {
    pub from: NodeId,
    pub to: NodeId,
    pub label: Label,
}

/// The union of a batch of [`EditScope`]s: disjoint structural subtree
/// roots, pinpoint relabels with original labels, chain-compressed id
/// swaps, and removed refs. See the [module docs](self) for the algebra
/// and `xuc_xpath`'s `Evaluator::eval_set_splice` for its one consumer.
#[derive(Debug, Clone, Default)]
pub struct DirtyRegion {
    /// Roots of disjoint structural dirty subtrees (no recorded root is an
    /// ancestor of another).
    roots: Vec<NodeId>,
    /// `(node, pre-batch label)` for every relabeled node (first relabel
    /// wins; entries follow their node across id swaps).
    relabels: Vec<(NodeId, Label)>,
    /// Live pinpoint id swaps (chains compressed, self-swaps dropped).
    swaps: Vec<IdSwap>,
    /// Refs deleted from the tree, under their pre-batch ids and labels.
    removed: Vec<NodeRef>,
    /// An unknown-root structural scope was recorded: everything may have
    /// changed.
    full: bool,
}

impl DirtyRegion {
    /// An empty (clean) region.
    pub fn new() -> DirtyRegion {
        DirtyRegion::default()
    }

    /// Has nothing been recorded (or everything recorded been reset)?
    pub fn is_clean(&self) -> bool {
        !self.full
            && self.roots.is_empty()
            && self.relabels.is_empty()
            && self.swaps.is_empty()
            && self.removed.is_empty()
    }

    /// Must the whole tree be treated as dirty?
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// The disjoint structural dirty subtree roots.
    pub fn structural_roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Every recorded relabel as `(node, pre-batch label)` — including
    /// nodes that a structural root has since covered (their label
    /// history is still needed) and nodes that have since been deleted
    /// (cross-check [`removed`](Self::removed)).
    pub fn relabels(&self) -> &[(NodeId, Label)] {
        &self.relabels
    }

    /// The pre-batch label of `node`, if a relabel was recorded for it.
    pub fn original_label(&self, node: NodeId) -> Option<Label> {
        self.relabels.iter().find(|(n, _)| *n == node).map(|(_, l)| *l)
    }

    /// The surviving pinpoint id swaps, in record order.
    pub fn id_swaps(&self) -> &[IdSwap] {
        &self.swaps
    }

    /// Refs deleted from the tree this batch, under their pre-batch ids
    /// and labels.
    pub fn removed(&self) -> &[NodeRef] {
        &self.removed
    }

    /// Resets the region to clean — what a rollback does after unwinding
    /// its batch (the tree is back to the committed state, so nothing is
    /// dirty).
    pub fn clear(&mut self) {
        self.roots.clear();
        self.relabels.clear();
        self.swaps.clear();
        self.removed.clear();
        self.full = false;
    }

    /// Is `node` inside the subtree of a recorded structural root
    /// (inclusive)?
    fn covered(&self, tree: &DataTree, node: NodeId) -> bool {
        self.roots.iter().any(|&r| r == node || tree.is_proper_ancestor(r, node).unwrap_or(false))
    }

    /// Folds one more scope into the region. `tree` must be the tree the
    /// scope describes — i.e. call this right after the
    /// [`apply_undoable`](crate::apply_undoable)/[`undo`](crate::undo)
    /// that produced `scope`, before any further edit.
    pub fn record(&mut self, tree: &DataTree, scope: &EditScope) {
        if self.full {
            return;
        }
        match scope {
            EditScope::Relabel { node, from, .. } => {
                // First relabel wins: `from` is then the pre-batch label.
                if !self.relabels.iter().any(|(n, _)| n == node) {
                    self.relabels.push((*node, *from));
                }
            }
            EditScope::ReplaceId { from, to } => {
                // The patch must name the node's PRE-BATCH label, so cached
                // `(from, label)` entries can be located; look it up before
                // migrating the relabel entry to the new id.
                let label = self
                    .original_label(*from)
                    .unwrap_or_else(|| tree.label(*to).expect("swap target is live"));
                if let Some(entry) = self.relabels.iter_mut().find(|(n, _)| n == from) {
                    entry.0 = *to;
                }
                // A structural root follows its node too: left on the dead
                // id, the next structural scope's ancestor check would err
                // on it and drop the root.
                if let Some(root) = self.roots.iter_mut().find(|r| **r == *from) {
                    *root = *to;
                }
                if let Some(chain) = self.swaps.iter_mut().find(|s| s.to == *from) {
                    // a→from already recorded: compress to a→to, keeping the
                    // chain start's pre-batch label.
                    chain.to = *to;
                    if chain.from == chain.to {
                        // Swapped all the way back: the patch is a no-op.
                        let from = chain.from;
                        self.swaps.retain(|s| s.from != from);
                    }
                } else {
                    self.swaps.push(IdSwap { from: *from, to: *to, label });
                }
            }
            EditScope::Structural { root: Some(r) } => {
                if self.covered(tree, *r) {
                    return;
                }
                // The new root absorbs every root inside its subtree (a
                // dead old root — its subtree just deleted — is absorbed
                // too: the ancestor check errs on its missing node).
                self.roots.retain(|&old| {
                    !(old == *r || tree.is_proper_ancestor(*r, old).unwrap_or(true))
                });
                self.roots.push(*r);
            }
            EditScope::Structural { root: None } => {
                self.full = true;
                self.roots.clear();
                self.relabels.clear();
                self.swaps.clear();
                self.removed.clear();
            }
        }
    }

    /// Records the refs a deletion is about to remove (their labels as of
    /// deletion time) — the session enumerates the doomed subtree
    /// *before* applying the deletion (cost proportional to the subtree,
    /// like the deletion itself). Labels are rewritten to pre-batch labels
    /// through the relabel history; nodes whose id arrived via a swap are
    /// left to the swap patch (its chain already names the pre-batch ref).
    pub fn record_removals(&mut self, refs: &[NodeRef]) {
        if self.full {
            return;
        }
        for r in refs {
            if self.swaps.iter().any(|s| s.to == r.id) {
                continue;
            }
            let label = self.original_label(r.id).unwrap_or(r.label);
            self.removed.push(NodeRef { id: r.id, label });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{apply_undoable, Update};
    use crate::{parse_term, preorder_walk_count};

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn sibling_scopes_stay_disjoint_roots() {
        let t = parse_term("r(a#1(b#2),c#3(d#4))").unwrap();
        let mut region = DirtyRegion::new();
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        region.record(&t, &EditScope::Structural { root: Some(n(3)) });
        assert_eq!(region.structural_roots(), [n(1), n(3)]);
        assert!(!region.is_full() && !region.is_clean());
    }

    #[test]
    fn ancestor_absorbs_descendant_in_both_orders() {
        let t = parse_term("r(a#1(b#2(c#3)),d#4)").unwrap();
        // Descendant first, ancestor second: the ancestor replaces it.
        let mut region = DirtyRegion::new();
        region.record(&t, &EditScope::Structural { root: Some(n(2)) });
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        assert_eq!(region.structural_roots(), [n(1)]);
        // Ancestor first: the descendant is dropped on arrival.
        let mut region = DirtyRegion::new();
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        region.record(&t, &EditScope::Structural { root: Some(n(3)) });
        assert_eq!(region.structural_roots(), [n(1)]);
        // Duplicates collapse too.
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        assert_eq!(region.structural_roots(), [n(1)]);
    }

    #[test]
    fn relabels_keep_original_labels_and_follow_swaps() {
        let mut t = parse_term("r(a#1(b#2),c#3)").unwrap();
        let mut region = DirtyRegion::new();
        let step = |t: &mut crate::DataTree, region: &mut DirtyRegion, op: Update| {
            let (_tok, scope) = apply_undoable(t, &op).unwrap();
            region.record(t, &scope);
        };
        step(&mut t, &mut region, Update::Relabel { node: n(2), label: Label::new("x") });
        step(&mut t, &mut region, Update::Relabel { node: n(2), label: Label::new("y") });
        // First relabel wins: the entry remembers the PRE-BATCH label.
        assert_eq!(region.relabels(), [(n(2), Label::new("b"))]);
        assert_eq!(region.original_label(n(2)), Some(Label::new("b")));
        // The entry follows the node across an id swap, and the swap
        // itself names the pre-batch label.
        step(&mut t, &mut region, Update::ReplaceId { node: n(2), new_id: n(20) });
        assert_eq!(region.relabels(), [(n(20), Label::new("b"))]);
        assert_eq!(region.id_swaps(), [IdSwap { from: n(2), to: n(20), label: Label::new("b") }]);
        // Entries survive a covering structural scope: splice consumers
        // need the label history of nodes inside dirty subtrees.
        step(&mut t, &mut region, Update::DeleteNode { node: n(1) });
        assert_eq!(region.structural_roots(), [t.root_id()]);
        assert_eq!(region.relabels(), [(n(20), Label::new("b"))]);
    }

    #[test]
    fn structural_root_follows_its_node_across_a_swap() {
        let mut t = parse_term("r(x#1(m#2,c#3,d#6))").unwrap();
        let mut region = DirtyRegion::new();
        let step = |t: &mut crate::DataTree, region: &mut DirtyRegion, op: Update| {
            let (_tok, scope) = apply_undoable(t, &op).unwrap();
            region.record(t, &scope);
        };
        // The move records x#1 (the LCA of old and new parent) as a root.
        step(&mut t, &mut region, Update::Move { node: n(2), new_parent: n(3) });
        assert_eq!(region.structural_roots(), [n(1)]);
        // Renaming x#1 renames the root: it must not keep the dead id…
        step(&mut t, &mut region, Update::ReplaceId { node: n(1), new_id: n(10) });
        assert_eq!(region.structural_roots(), [n(10)]);
        // …or a later scope inside its subtree would fail the ancestor
        // check against the dead id and drop the root.
        step(&mut t, &mut region, Update::InsertLeaf { parent: n(6), id: n(7), label: "z".into() });
        assert_eq!(region.structural_roots(), [n(10)]);
    }

    #[test]
    fn id_swap_chains_compress_and_cancel() {
        let mut t = parse_term("r(a#1,b#2)").unwrap();
        let mut region = DirtyRegion::new();
        let swap = |t: &mut crate::DataTree, region: &mut DirtyRegion, from, to| {
            let (_tok, scope) =
                apply_undoable(t, &Update::ReplaceId { node: from, new_id: to }).unwrap();
            region.record(t, &scope);
        };
        swap(&mut t, &mut region, n(1), n(10));
        swap(&mut t, &mut region, n(10), n(11));
        assert_eq!(region.id_swaps(), [IdSwap { from: n(1), to: n(11), label: Label::new("a") }]);
        // Swapping back to the original id cancels the patch entirely.
        swap(&mut t, &mut region, n(11), n(1));
        assert!(region.id_swaps().is_empty());
        assert!(region.is_clean());
        // Independent swaps coexist.
        swap(&mut t, &mut region, n(1), n(12));
        swap(&mut t, &mut region, n(2), n(13));
        assert_eq!(region.id_swaps().len(), 2);
    }

    #[test]
    fn removals_rewrite_to_pre_batch_refs() {
        let mut t = parse_term("r(a#1(b#2),c#3)").unwrap();
        let mut region = DirtyRegion::new();
        // Relabel b#2 first: its removal must surface the PRE-BATCH ref.
        let (_tok, scope) =
            apply_undoable(&mut t, &Update::Relabel { node: n(2), label: Label::new("z") })
                .unwrap();
        region.record(&t, &scope);
        let doomed = [
            NodeRef { id: n(1), label: Label::new("a") },
            NodeRef { id: n(2), label: Label::new("z") },
        ];
        region.record_removals(&doomed);
        let (_tok, scope) = apply_undoable(&mut t, &Update::DeleteSubtree { node: n(1) }).unwrap();
        region.record(&t, &scope);
        assert_eq!(
            region.removed(),
            [
                NodeRef { id: n(1), label: Label::new("a") },
                NodeRef { id: n(2), label: Label::new("b") },
            ]
        );
        // A swapped-away node's deletion is the swap patch's business.
        let mut region = DirtyRegion::new();
        let (_tok, scope) =
            apply_undoable(&mut t, &Update::ReplaceId { node: n(3), new_id: n(30) }).unwrap();
        region.record(&t, &scope);
        region.record_removals(&[NodeRef { id: n(30), label: Label::new("c") }]);
        assert!(region.removed().is_empty());
        assert_eq!(region.id_swaps().len(), 1);
    }

    #[test]
    fn unknown_root_poisons_the_region() {
        let t = parse_term("r(a#1)").unwrap();
        let mut region = DirtyRegion::new();
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        region.record(&t, &EditScope::Structural { root: None });
        assert!(region.is_full());
        assert!(region.structural_roots().is_empty());
        // Poisoned regions ignore further detail but clear back to clean.
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        region.record_removals(&[NodeRef { id: n(1), label: Label::new("a") }]);
        assert!(region.structural_roots().is_empty() && region.removed().is_empty());
        region.clear();
        assert!(region.is_clean() && !region.is_full());
    }

    #[test]
    fn rollback_reset_leaves_region_clean() {
        let t = parse_term("r(a#1(b#2))").unwrap();
        let mut region = DirtyRegion::new();
        region.record(&t, &EditScope::Structural { root: Some(n(1)) });
        region.record(
            &t,
            &EditScope::Relabel { node: n(2), from: Label::new("b"), to: Label::new("c") },
        );
        region.record_removals(&[NodeRef { id: n(2), label: Label::new("c") }]);
        assert!(!region.is_clean());
        region.clear();
        assert!(region.is_clean());
        assert!(region.structural_roots().is_empty() && region.relabels().is_empty());
    }

    #[test]
    fn relabel_only_batches_record_with_zero_walks() {
        // The accumulator itself must never snapshot the tree: recording a
        // relabel-only batch performs zero pre-order walks — the property
        // the delta admission path's walk-count test leans on end to end.
        let mut t = parse_term("r(a#1(b#2),c#3)").unwrap();
        let mut region = DirtyRegion::new();
        let walks = preorder_walk_count();
        for (node, label) in [(n(1), "x"), (n(2), "y"), (n(3), "z")] {
            let (_tok, scope) =
                apply_undoable(&mut t, &Update::Relabel { node, label: Label::new(label) })
                    .unwrap();
            region.record(&t, &scope);
        }
        assert_eq!(region.relabels().len(), 3);
        assert!(region.structural_roots().is_empty());
        assert_eq!(preorder_walk_count(), walks, "recording relabels must not walk");
    }
}
