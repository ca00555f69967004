//! Update operations over data trees.
//!
//! Following the paper (and Tatarinov et al. \[27\]), an *update* is a sequence
//! of node insertions, deletions, moves and label modifications; the paper
//! then abstracts a whole update sequence as the pair of trees `(I, J)`.
//! This module provides the concrete operations so examples and workload
//! generators can *produce* such pairs by actually editing documents.
//!
//! # The edit-scope protocol
//!
//! [`apply_undoable`] and [`undo`] return an [`EditScope`] classifying
//! what the edit touched, so snapshot holders (`xuc_xpath::Evaluator`,
//! and through it the counterexample search) can re-sync proportionally
//! to the edit instead of re-walking the tree:
//!
//! * [`EditScope::Relabel`] — only one node's label changed (`from` →
//!   `to`); ids, parents and the pre-order layout are untouched, so a
//!   derived snapshot patches one label cell and two cached bitset words.
//! * [`EditScope::ReplaceId`] — only one node's identity changed (`from`
//!   → `to`); a derived snapshot patches one id-index entry.
//! * [`EditScope::Attached`] — `node`'s subtree now hangs at its current
//!   position under a new root path (an inserted leaf, a moved node, a
//!   re-attached subtree, a re-inserted spliced node with its children);
//! * [`EditScope::Detached`] — `node`'s subtree left the tree;
//! * [`EditScope::Spliced`] — `node` left the tree and its former children
//!   now hang under `parent`, one run of consecutive siblings.
//!
//! The three structural scopes name the subtrees whose **root path**
//! changed and the subtree that left, never a common ancestor of the
//! change: a root-level move or a patient delete names a patient-sized
//! subtree, not the document. Every other node keeps its root path, and
//! its position relative to its parent, so a derived snapshot relinks the
//! named subtrees and touches nothing else (`xuc_xpath`'s
//! `Evaluator::refresh_after`); a full re-snapshot is always a correct
//! response.
//!
//! # The position-restoration invariant
//!
//! [`undo`] is an **exact** inverse, not merely an isomorphic one: every
//! [`Undo`] token records the *anchor* of what it detached, spliced or
//! moved — its parent and its previous sibling, `None` for a first child
//! ([`DetachToken`]/[`SpliceToken`] inside the tree, `old_prev` in
//! [`Undo::MoveBack`]) — and relinks it right after that sibling on
//! revert, in O(1) whatever the fan-out. Tokens are consumed LIFO, so the
//! tree at undo time is the tree right after the apply and the anchor
//! sibling is still there: after any apply/undo round trip the tree is
//! bit-identical to its former self — same child order, not just the
//! same unordered tree. The deterministic sharded counterexample search
//! relies on this: a worker's working tree must not depend on *which*
//! candidates it happened to try before, or the search result would vary
//! with scheduling.
//!
//! # One deletion path
//!
//! An applied edit ends in exactly one of two ways: [`undo`] reverts it,
//! or [`release`] finalizes it. A deletion parks the removed nodes in the
//! arena until then; `release` frees them for reuse. [`apply_update`] is
//! `apply_undoable` followed by `release`, so there is no second,
//! destructive deletion path to keep in step.

use crate::label::Label;
use crate::node::NodeId;
use crate::tree::{DataTree, DetachToken, SpliceToken, TreeError};
use std::fmt;

/// A single primitive update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Insert a fresh leaf `(id, label)` under `parent`.
    InsertLeaf { parent: NodeId, id: NodeId, label: Label },
    /// Delete the whole subtree rooted at `node`.
    DeleteSubtree { node: NodeId },
    /// Delete `node` only; its children are promoted to its parent.
    DeleteNode { node: NodeId },
    /// Move the subtree rooted at `node` under `new_parent`.
    Move { node: NodeId, new_parent: NodeId },
    /// Change the label of `node`.
    Relabel { node: NodeId, label: Label },
    /// Replace `node`'s identity by `new_id`, keeping label, position and
    /// children (the `I[n → n']` operation of Theorem 3.1).
    ReplaceId { node: NodeId, new_id: NodeId },
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::InsertLeaf { parent, id, label } => {
                write!(f, "insert {label}[{id}] under {parent}")
            }
            Update::DeleteSubtree { node } => write!(f, "delete subtree {node}"),
            Update::DeleteNode { node } => write!(f, "delete node {node}"),
            Update::Move { node, new_parent } => write!(f, "move {node} under {new_parent}"),
            Update::Relabel { node, label } => write!(f, "relabel {node} to {label}"),
            Update::ReplaceId { node, new_id } => write!(f, "replace id {node} by {new_id}"),
        }
    }
}

/// Errors from applying updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The underlying tree operation failed.
    Tree(TreeError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Tree(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<TreeError> for UpdateError {
    fn from(e: TreeError) -> Self {
        UpdateError::Tree(e)
    }
}

/// Applies one update in place for good: [`apply_undoable`], then
/// [`release`].
pub fn apply_update(tree: &mut DataTree, update: &Update) -> Result<(), UpdateError> {
    let (token, _scope) = apply_undoable(tree, update)?;
    release(tree, token);
    Ok(())
}

/// How an applied (or undone) edit affected the tree, from the point of
/// view of derived snapshots (evaluator id indexes, label bitset caches,
/// preorder layouts).
///
/// [`apply_undoable`] returns the scope of the edit it applied and
/// [`undo`] returns the scope of the reversal, so snapshot holders can
/// refresh **proportionally to the edit**: a relabel patches one label
/// cell and two bitset words, an id swap patches one index entry, and a
/// structural edit relinks the subtrees it names (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditScope {
    /// Only `node`'s label changed (`from` → `to`): ids, parents and the
    /// preorder layout are untouched.
    Relabel { node: NodeId, from: Label, to: Label },
    /// Only one node's identity changed (`from` → `to`): labels and the
    /// preorder layout are untouched.
    ReplaceId { from: NodeId, to: NodeId },
    /// `node`'s subtree now hangs at its current position, right after
    /// its previous sibling, under a new root path. Nodes of that subtree
    /// may have been elsewhere in the tree before (a moved node, children
    /// re-adopted by an unspliced node) or nowhere (an inserted leaf, a
    /// re-attached subtree).
    Attached { node: NodeId },
    /// `node`'s subtree left the tree.
    Detached { node: NodeId },
    /// `node` left the tree; its `count` former children, the first being
    /// `first`, now hang under `parent` as one run of consecutive
    /// siblings (at the end of `parent`'s child list).
    Spliced { node: NodeId, parent: NodeId, first: Option<NodeId>, count: usize },
}

impl EditScope {
    /// Did the edit change the preorder layout (as opposed to patching a
    /// label or an identity in place)?
    pub fn is_structural(&self) -> bool {
        !matches!(self, EditScope::Relabel { .. } | EditScope::ReplaceId { .. })
    }
}

/// The inverse record of one applied [`Update`], produced by
/// [`apply_undoable`] and consumed (LIFO) by [`undo`].
///
/// Deletions are recorded as *detachments* — the removed nodes stay parked
/// in the tree's arena until [`undo`] relinks them or [`release`] frees
/// them — so a full apply/undo round trip performs **no tree clones and
/// no node reconstruction**. This is what lets candidate searches edit one
/// working tree in place instead of cloning per candidate. A token that
/// is dropped instead keeps its parked slots out of reuse for the tree's
/// lifetime.
///
/// Undo is an **exact** inverse, not merely an isomorphic one: each
/// token records its node's previous sibling and relinks right after it,
/// so an apply/undo round trip reproduces the original child order.
/// Deterministic consumers (the sharded counterexample search) rely on the
/// working tree being bit-identical to the seed after every round trip,
/// independent of which candidates were tried before.
#[derive(Debug)]
pub enum Undo {
    RemoveLeaf { id: NodeId },
    Reattach(DetachToken),
    Unsplice(SpliceToken),
    MoveBack { node: NodeId, old_parent: NodeId, old_prev: Option<NodeId> },
    Relabel { node: NodeId, old: Label },
    RestoreId { current: NodeId, old: NodeId },
}

/// Applies one update in place and returns the token that undoes it plus
/// the [`EditScope`] describing what the edit touched (so snapshot holders
/// can refresh proportionally to the edit instead of re-walking).
pub fn apply_undoable(
    tree: &mut DataTree,
    update: &Update,
) -> Result<(Undo, EditScope), UpdateError> {
    Ok(match update {
        Update::InsertLeaf { parent, id, label } => {
            tree.add_with_id(*parent, *id, *label)?;
            (Undo::RemoveLeaf { id: *id }, EditScope::Attached { node: *id })
        }
        Update::DeleteSubtree { node } => {
            let token = tree.detach_subtree(*node)?;
            (Undo::Reattach(token), EditScope::Detached { node: *node })
        }
        Update::DeleteNode { node } => {
            let token = tree.splice_node(*node)?;
            let (first, count) = token.promoted(tree);
            let parent = token.parent_id(tree);
            (Undo::Unsplice(token), EditScope::Spliced { node: *node, parent, first, count })
        }
        Update::Move { node, new_parent } => {
            let (old_parent, old_prev) = (tree.parent(*node)?, tree.prev_sibling(*node)?);
            tree.move_node(*node, *new_parent)?;
            let old_parent = old_parent.expect("the root is immovable");
            (
                Undo::MoveBack { node: *node, old_parent, old_prev },
                EditScope::Attached { node: *node },
            )
        }
        Update::Relabel { node, label } => {
            let old = tree.label(*node)?;
            tree.relabel(*node, *label)?;
            (
                Undo::Relabel { node: *node, old },
                EditScope::Relabel { node: *node, from: old, to: *label },
            )
        }
        Update::ReplaceId { node, new_id } => {
            tree.replace_id(*node, *new_id)?;
            (
                Undo::RestoreId { current: *new_id, old: *node },
                EditScope::ReplaceId { from: *node, to: *new_id },
            )
        }
    })
}

/// Reverts one update recorded by [`apply_undoable`] and returns the
/// [`EditScope`] of the reversal (a relabel undoes as a relabel, a
/// structural edit as a structural edit). Undo tokens must be consumed in
/// LIFO order relative to the applies they revert.
pub fn undo(tree: &mut DataTree, token: Undo) -> Result<EditScope, UpdateError> {
    Ok(match token {
        Undo::RemoveLeaf { id } => {
            tree.delete_subtree(id)?;
            EditScope::Detached { node: id }
        }
        Undo::Reattach(t) => {
            let node = t.node_id(tree);
            tree.reattach_subtree(t)?;
            EditScope::Attached { node }
        }
        Undo::Unsplice(t) => {
            let node = t.node_id();
            tree.unsplice_node(t)?;
            EditScope::Attached { node }
        }
        Undo::MoveBack { node, old_parent, old_prev } => {
            tree.move_after(node, old_parent, old_prev)?;
            EditScope::Attached { node }
        }
        Undo::Relabel { node, old } => {
            let from = tree.label(node)?;
            tree.relabel(node, old)?;
            EditScope::Relabel { node, from, to: old }
        }
        Undo::RestoreId { current, old } => {
            tree.replace_id(current, old)?;
            EditScope::ReplaceId { from: current, to: old }
        }
    })
}

/// Finalizes one update applied by [`apply_undoable`], giving up its
/// undo: a deletion's parked slots ([`Undo::Reattach`], [`Undo::Unsplice`])
/// go back on the tree's free list with their generations bumped, so
/// later insertions reuse them; every other token holds no slot and is
/// simply dropped. O(deleted nodes). Tokens may be released in any order
/// once their batch is final.
pub fn release(tree: &mut DataTree, token: Undo) {
    match token {
        Undo::Reattach(t) => tree.free_detached(t),
        Undo::Unsplice(t) => tree.free_spliced(t),
        _ => {}
    }
}

/// Applies a sequence of updates to a copy of `before`, returning the
/// resulting `(I, J)` pair convention: `(before, after)`.
pub fn apply_all(before: &DataTree, updates: &[Update]) -> Result<DataTree, UpdateError> {
    let mut after = before.clone();
    for u in updates {
        apply_update(&mut after, u)?;
    }
    Ok(after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_term;

    #[test]
    fn sequence_produces_pair() {
        let before = parse_term("root(patient#1(visit#2),patient#3)").unwrap();
        let fresh = NodeId::fresh();
        let after = apply_all(
            &before,
            &[
                Update::DeleteSubtree { node: NodeId::from_raw(2) },
                Update::InsertLeaf {
                    parent: NodeId::from_raw(3),
                    id: fresh,
                    label: Label::new("visit"),
                },
            ],
        )
        .unwrap();
        assert!(before.contains(NodeId::from_raw(2)));
        assert!(!after.contains(NodeId::from_raw(2)));
        assert!(after.contains(fresh));
        // The before tree is untouched.
        assert_eq!(before.len(), 4);
    }

    #[test]
    fn relabel_and_move() {
        let before = parse_term("r(a#1(b#2),c#3)").unwrap();
        let after = apply_all(
            &before,
            &[
                Update::Relabel { node: NodeId::from_raw(2), label: Label::new("x") },
                Update::Move { node: NodeId::from_raw(2), new_parent: NodeId::from_raw(3) },
            ],
        )
        .unwrap();
        assert_eq!(after.label(NodeId::from_raw(2)).unwrap(), Label::new("x"));
        assert_eq!(after.parent(NodeId::from_raw(2)).unwrap(), Some(NodeId::from_raw(3)));
    }

    #[test]
    fn failing_update_reports_error() {
        let before = parse_term("r(a#1)").unwrap();
        let err = apply_all(&before, &[Update::DeleteSubtree { node: NodeId::from_raw(99) }])
            .unwrap_err();
        assert!(matches!(err, UpdateError::Tree(TreeError::NodeNotFound(_))));
    }

    #[test]
    fn display_updates() {
        let u = Update::DeleteSubtree { node: NodeId::from_raw(7) };
        assert_eq!(format!("{u}"), "delete subtree n7");
    }

    #[test]
    fn apply_undo_round_trips_every_op() {
        let original = parse_term("r(a#1(b#2(c#3),d#4),e#5)").unwrap();
        let fresh = NodeId::fresh();
        let ops = [
            Update::InsertLeaf {
                parent: NodeId::from_raw(4),
                id: NodeId::fresh(),
                label: Label::new("new"),
            },
            Update::DeleteSubtree { node: NodeId::from_raw(1) },
            Update::DeleteNode { node: NodeId::from_raw(2) },
            Update::Move { node: NodeId::from_raw(2), new_parent: NodeId::from_raw(5) },
            Update::Relabel { node: NodeId::from_raw(3), label: Label::new("x") },
            Update::ReplaceId { node: NodeId::from_raw(4), new_id: fresh },
        ];
        let mut work = original.clone();
        for op in &ops {
            let (token, scope) = apply_undoable(&mut work, op).unwrap();
            // The edit is observable...
            assert!(!work.identified_eq(&original), "{op} must change the tree");
            // ...and fully reverted by its token, with a scope of the same
            // structural class as the apply.
            let undo_scope = undo(&mut work, token).unwrap();
            assert_eq!(scope.is_structural(), undo_scope.is_structural(), "{op}");
            assert!(work.identified_eq(&original), "undo of {op} must restore");
        }
    }

    #[test]
    fn apply_undoable_matches_apply_update() {
        let before = parse_term("r(a#1(b#2),c#3)").unwrap();
        for op in [
            Update::DeleteSubtree { node: NodeId::from_raw(1) },
            Update::DeleteNode { node: NodeId::from_raw(1) },
            Update::Move { node: NodeId::from_raw(2), new_parent: NodeId::from_raw(3) },
            Update::Relabel { node: NodeId::from_raw(2), label: Label::new("y") },
        ] {
            let mut via_plain = before.clone();
            apply_update(&mut via_plain, &op).unwrap();
            let mut via_undoable = before.clone();
            let (_token, _scope) = apply_undoable(&mut via_undoable, &op).unwrap();
            assert!(via_plain.identified_eq(&via_undoable), "{op}");
        }
    }

    #[test]
    fn nested_undo_stack_restores_in_lifo_order() {
        let original = parse_term("r(a#1(b#2(c#3)),d#4)").unwrap();
        let mut work = original.clone();
        let mut stack = Vec::new();
        for op in [
            Update::Relabel { node: NodeId::from_raw(4), label: Label::new("w") },
            Update::DeleteNode { node: NodeId::from_raw(2) },
            Update::Move { node: NodeId::from_raw(3), new_parent: NodeId::from_raw(4) },
            Update::DeleteSubtree { node: NodeId::from_raw(3) },
        ] {
            stack.push(apply_undoable(&mut work, &op).unwrap().0);
        }
        while let Some(token) = stack.pop() {
            undo(&mut work, token).unwrap();
        }
        assert!(work.identified_eq(&original));
    }

    #[test]
    fn edit_scopes_classify_and_locate() {
        let mut t = parse_term("r(a#1(b#2(c#3),d#4),e#5)").unwrap();
        let n = |i| NodeId::from_raw(i);

        let (tok, scope) =
            apply_undoable(&mut t, &Update::Relabel { node: n(3), label: Label::new("x") })
                .unwrap();
        assert_eq!(
            scope,
            EditScope::Relabel { node: n(3), from: Label::new("c"), to: Label::new("x") }
        );
        let back = undo(&mut t, tok).unwrap();
        assert_eq!(
            back,
            EditScope::Relabel { node: n(3), from: Label::new("x"), to: Label::new("c") }
        );

        let fresh = NodeId::fresh();
        let (tok, scope) =
            apply_undoable(&mut t, &Update::ReplaceId { node: n(4), new_id: fresh }).unwrap();
        assert_eq!(scope, EditScope::ReplaceId { from: n(4), to: fresh });
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::ReplaceId { from: fresh, to: n(4) });

        // Structural edits name the subtrees whose root path changed and
        // the subtree that left, never a common ancestor.
        let (tok, scope) = apply_undoable(&mut t, &Update::DeleteSubtree { node: n(2) }).unwrap();
        assert_eq!(scope, EditScope::Detached { node: n(2) });
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::Attached { node: n(2) });

        let (tok, scope) = apply_undoable(&mut t, &Update::DeleteNode { node: n(2) }).unwrap();
        assert_eq!(
            scope,
            EditScope::Spliced { node: n(2), parent: n(1), first: Some(n(3)), count: 1 }
        );
        assert_eq!(t.children(n(1)).unwrap(), [n(4), n(3)], "promoted to the end");
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::Attached { node: n(2) });

        // A childless node splices with an empty run.
        let (tok, scope) = apply_undoable(&mut t, &Update::DeleteNode { node: n(5) }).unwrap();
        assert_eq!(
            scope,
            EditScope::Spliced { node: n(5), parent: t.root_id(), first: None, count: 0 }
        );
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::Attached { node: n(5) });

        // A move across the root names the moved node, both ways.
        let (tok, scope) =
            apply_undoable(&mut t, &Update::Move { node: n(2), new_parent: n(5) }).unwrap();
        assert_eq!(scope, EditScope::Attached { node: n(2) });
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::Attached { node: n(2) });

        let (leaf, root) = (NodeId::fresh(), t.root_id());
        let (tok, scope) = apply_undoable(
            &mut t,
            &Update::InsertLeaf { parent: root, id: leaf, label: Label::new("z") },
        )
        .unwrap();
        assert_eq!(scope, EditScope::Attached { node: leaf });
        assert!(scope.is_structural());
        assert_eq!(undo(&mut t, tok).unwrap(), EditScope::Detached { node: leaf });
    }

    #[test]
    fn undo_restores_exact_child_order() {
        // Undo must be an exact inverse: same child order, not just the
        // same unordered tree. `render()` prints children in list order.
        let original = parse_term("r(a#1,b#2,c#3(d#4,e#5),f#6)").unwrap();
        let mut work = original.clone();
        for op in [
            Update::DeleteSubtree { node: NodeId::from_raw(2) },
            Update::DeleteNode { node: NodeId::from_raw(3) },
            Update::Move { node: NodeId::from_raw(1), new_parent: NodeId::from_raw(3) },
            Update::Move { node: NodeId::from_raw(4), new_parent: NodeId::from_raw(6) },
        ] {
            let (token, _scope) = apply_undoable(&mut work, &op).unwrap();
            undo(&mut work, token).unwrap();
            assert_eq!(work.render(), original.render(), "{op}");
        }
        // Also across a LIFO stack of interleaved edits.
        let mut stack = Vec::new();
        for op in [
            Update::DeleteNode { node: NodeId::from_raw(3) },
            Update::DeleteSubtree { node: NodeId::from_raw(4) },
            Update::Move { node: NodeId::from_raw(1), new_parent: NodeId::from_raw(6) },
        ] {
            stack.push(apply_undoable(&mut work, &op).unwrap().0);
        }
        while let Some(token) = stack.pop() {
            undo(&mut work, token).unwrap();
        }
        assert_eq!(work.render(), original.render());
    }

    #[test]
    fn out_of_order_move_back_is_refused() {
        // LIFO broken: x's former previous sibling p moves away before
        // x's move is undone, so x has no anchor under its old parent.
        let mut t = parse_term("r(p#1,x#2,y#3)").unwrap();
        let n = NodeId::from_raw;
        let (tok, _) =
            apply_undoable(&mut t, &Update::Move { node: n(2), new_parent: n(3) }).unwrap();
        apply_undoable(&mut t, &Update::Move { node: n(1), new_parent: n(3) }).unwrap();
        let before = t.render();
        assert_eq!(undo(&mut t, tok), Err(UpdateError::Tree(TreeError::StaleToken)));
        assert_eq!(t.render(), before);
        // So is a hand-built token anchoring a node on itself.
        let tok = Undo::MoveBack { node: n(2), old_parent: n(3), old_prev: Some(n(2)) };
        assert_eq!(undo(&mut t, tok), Err(UpdateError::Tree(TreeError::StaleToken)));
        assert_eq!(t.render(), before);
    }

    #[test]
    fn failed_undoable_apply_leaves_tree_untouched() {
        let before = parse_term("r(a#1)").unwrap();
        let mut work = before.clone();
        for op in [
            Update::DeleteSubtree { node: NodeId::from_raw(99) },
            Update::DeleteNode { node: before.root_id() },
            Update::Move { node: before.root_id(), new_parent: NodeId::from_raw(1) },
        ] {
            assert!(apply_undoable(&mut work, &op).is_err());
            assert!(work.identified_eq(&before), "{op}");
        }
    }
}
