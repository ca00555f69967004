//! Differential property tests: the struct-of-arrays arena [`DataTree`]
//! against an executable specification of the historical
//! `Vec<Option<NodeData>>` representation (per-node child `Vec`s, slots
//! never reused). Over random edit sequences both must agree on render
//! output (child order included), pre-order snapshots, parent/child
//! queries and error outcomes — while the arena additionally keeps its
//! slot capacity bounded by the peak live count, which the historical
//! representation could not. Batches of undoable edits, each committed
//! (every token released) or rolled back (LIFO undo), must leave the
//! arena equal to the model with only the committed batches applied and
//! no slot parked.

use proptest::prelude::*;
use xuc_xtree::{apply_undoable, apply_update, release, undo, DataTree, Label, NodeId, Update};

const LABELS: &[&str] = &["a", "b", "c", "d"];

/// The historical tree representation, kept as an executable spec.
struct ModelNode {
    id: NodeId,
    label: Label,
    parent: Option<usize>,
    children: Vec<usize>,
}

struct ModelTree {
    nodes: Vec<Option<ModelNode>>,
    root: usize,
}

impl ModelTree {
    fn new(id: NodeId, label: Label) -> Self {
        ModelTree {
            nodes: vec![Some(ModelNode { id, label, parent: None, children: Vec::new() })],
            root: 0,
        }
    }

    fn slot(&self, id: NodeId) -> Option<usize> {
        self.nodes.iter().position(|n| n.as_ref().is_some_and(|n| n.id == id))
    }

    fn get(&self, slot: usize) -> &ModelNode {
        self.nodes[slot].as_ref().expect("live slot")
    }

    fn get_mut(&mut self, slot: usize) -> &mut ModelNode {
        self.nodes[slot].as_mut().expect("live slot")
    }

    fn add_with_id(&mut self, parent: NodeId, id: NodeId, label: Label) -> bool {
        let Some(parent_slot) = self.slot(parent) else { return false };
        if self.slot(id).is_some() {
            return false;
        }
        let slot = self.nodes.len();
        self.nodes.push(Some(ModelNode { id, label, parent: Some(parent_slot), children: vec![] }));
        self.get_mut(parent_slot).children.push(slot);
        true
    }

    fn relabel(&mut self, id: NodeId, label: Label) -> bool {
        match self.slot(id) {
            Some(s) => {
                self.get_mut(s).label = label;
                true
            }
            None => false,
        }
    }

    fn replace_id(&mut self, id: NodeId, new_id: NodeId) -> bool {
        let Some(slot) = self.slot(id) else { return false };
        if self.slot(new_id).is_some() {
            return false;
        }
        self.get_mut(slot).id = new_id;
        true
    }

    fn reap(&mut self, slot: usize) {
        let children = std::mem::take(&mut self.get_mut(slot).children);
        for c in children {
            self.reap(c);
        }
        self.nodes[slot] = None; // the historical permanent hole
    }

    fn delete_subtree(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.slot(id) else { return false };
        let Some(parent) = self.get(slot).parent else { return false };
        self.get_mut(parent).children.retain(|&c| c != slot);
        self.reap(slot);
        true
    }

    fn delete_node(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.slot(id) else { return false };
        let Some(parent) = self.get(slot).parent else { return false };
        let children = std::mem::take(&mut self.get_mut(slot).children);
        for &c in &children {
            self.get_mut(c).parent = Some(parent);
        }
        self.get_mut(parent).children.retain(|&c| c != slot);
        self.get_mut(parent).children.extend(children);
        self.nodes[slot] = None;
        true
    }

    fn move_node(&mut self, id: NodeId, new_parent: NodeId) -> bool {
        let (Some(slot), Some(target)) = (self.slot(id), self.slot(new_parent)) else {
            return false;
        };
        let Some(old_parent) = self.get(slot).parent else { return false };
        let mut cursor = Some(target);
        while let Some(s) = cursor {
            if s == slot {
                return false;
            }
            cursor = self.get(s).parent;
        }
        self.get_mut(old_parent).children.retain(|&c| c != slot);
        self.get_mut(target).children.push(slot);
        self.get_mut(slot).parent = Some(target);
        true
    }

    fn apply(&mut self, op: &Update) -> bool {
        match op {
            Update::InsertLeaf { parent, id, label } => self.add_with_id(*parent, *id, *label),
            Update::DeleteSubtree { node } => self.delete_subtree(*node),
            Update::DeleteNode { node } => self.delete_node(*node),
            Update::Move { node, new_parent } => self.move_node(*node, *new_parent),
            Update::Relabel { node, label } => self.relabel(*node, *label),
            Update::ReplaceId { node, new_id } => self.replace_id(*node, *new_id),
        }
    }

    fn len(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    fn render(&self) -> String {
        fn rec(t: &ModelTree, slot: usize, depth: usize, out: &mut String) {
            let d = t.get(slot);
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!("{} [{}]\n", d.label, d.id));
            for &c in &d.children {
                rec(t, c, depth + 1, out);
            }
        }
        let mut s = String::new();
        rec(self, self.root, 0, &mut s);
        s
    }

    fn preorder(&self) -> Vec<(NodeId, Label, Option<usize>)> {
        fn rec(
            t: &ModelTree,
            slot: usize,
            parent_index: Option<usize>,
            out: &mut Vec<(NodeId, Label, Option<usize>)>,
        ) {
            let d = t.get(slot);
            let my_index = out.len();
            out.push((d.id, d.label, parent_index));
            for &c in &d.children {
                rec(t, c, Some(my_index), out);
            }
        }
        let mut out = Vec::new();
        rec(self, self.root, None, &mut out);
        out
    }

    fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        let slot = self.slot(id).expect("live");
        self.get(slot).parent.map(|p| self.get(p).id)
    }

    fn children_of(&self, id: NodeId) -> Vec<NodeId> {
        let slot = self.slot(id).expect("live");
        self.get(slot).children.iter().map(|&c| self.get(c).id).collect()
    }
}

fn op_strategy() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (0..6usize, 0..64usize, 0..64usize, 0..LABELS.len())
}

/// Resolve an op description against the current tree (both trees see the
/// same live ids, so the resolution is shared).
fn resolve_op(work: &DataTree, choice: (usize, usize, usize, usize), fresh: NodeId) -> Update {
    let (op_choice, pick_a, pick_b, l) = choice;
    let ids = work.node_ids();
    let target = if ids.len() > 1 { ids[1 + pick_a % (ids.len() - 1)] } else { ids[0] };
    let other = ids[pick_b % ids.len()];
    let label = Label::new(LABELS[l]);
    match op_choice {
        0 => Update::Relabel { node: target, label },
        1 => Update::DeleteSubtree { node: target },
        2 => Update::DeleteNode { node: target },
        3 => Update::Move { node: target, new_parent: other },
        4 => Update::InsertLeaf { parent: other, id: fresh, label },
        _ => Update::ReplaceId { node: target, new_id: fresh },
    }
}

proptest! {
    /// Arena ≡ historical model over random edit sequences: same render
    /// (child order included), same pre-order triples, same parent/child
    /// answers, same success/failure per op — and the arena's capacity
    /// stays bounded by peak live while the model's grows monotonically.
    #[test]
    fn arena_matches_historical_model(
        seed_parents in proptest::collection::vec(0..8usize, 0..8),
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let mut work = DataTree::new("root");
        let mut model = ModelTree::new(work.root_id(), Label::new("root"));
        let mut ids = vec![work.root_id()];
        for (i, p) in seed_parents.iter().enumerate() {
            let parent = ids[*p % ids.len()];
            let id = work.add(parent, LABELS[i % LABELS.len()]).unwrap();
            assert!(model.add_with_id(parent, id, Label::new(LABELS[i % LABELS.len()])));
            ids.push(id);
        }
        let mut peak_live = work.len();
        for choice in ops {
            let op = resolve_op(&work, choice, NodeId::fresh());
            let arena_ok = apply_update(&mut work, &op).is_ok();
            let model_ok = model.apply(&op);
            prop_assert_eq!(arena_ok, model_ok, "success parity for {}", &op);
            peak_live = peak_live.max(work.len());

            prop_assert_eq!(work.len(), model.len());
            prop_assert_eq!(work.render(), model.render(), "render after {}", &op);
            prop_assert_eq!(work.preorder_snapshot(), model.preorder(), "preorder after {}", &op);
            for id in work.node_ids() {
                prop_assert_eq!(work.parent(id).unwrap(), model.parent_of(id));
                prop_assert_eq!(work.children(id).unwrap(), model.children_of(id));
                let via_iter: Vec<NodeId> = work.children_iter(id).unwrap().collect();
                prop_assert_eq!(via_iter, model.children_of(id));
            }
            prop_assert!(
                work.slot_capacity() <= peak_live,
                "arena capacity {} leaked past peak live {}",
                work.slot_capacity(),
                peak_live
            );
        }
    }

    /// Batches end in a commit (every token released) or a rollback (LIFO
    /// undo). After each, the arena renders exactly like the model with
    /// only the committed batches applied, no slot is left parked, and
    /// capacity stays within the peak of live plus parked nodes: a
    /// batch's deletions park their slots until it ends, so within a
    /// batch that peak is the size at its start plus its inserts.
    #[test]
    fn committed_and_rolled_back_batches_match_the_model(
        seed_parents in proptest::collection::vec(0..8usize, 0..8),
        batches in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(op_strategy(), 1..6)),
            1..8,
        ),
    ) {
        let mut work = DataTree::new("root");
        let mut model = ModelTree::new(work.root_id(), Label::new("root"));
        let mut ids = vec![work.root_id()];
        for (i, p) in seed_parents.iter().enumerate() {
            let parent = ids[*p % ids.len()];
            let id = work.add(parent, LABELS[i % LABELS.len()]).unwrap();
            assert!(model.add_with_id(parent, id, Label::new(LABELS[i % LABELS.len()])));
            ids.push(id);
        }
        let mut peak = work.len();
        for (commit, ops) in batches {
            let start = work.len();
            let (mut stack, mut applied, mut inserted) = (Vec::new(), Vec::new(), 0);
            for choice in ops {
                let op = resolve_op(&work, choice, NodeId::fresh());
                if let Ok((token, _scope)) = apply_undoable(&mut work, &op) {
                    inserted += usize::from(matches!(op, Update::InsertLeaf { .. }));
                    stack.push(token);
                    applied.push(op);
                }
            }
            peak = peak.max(start + inserted);
            if commit {
                for token in stack {
                    release(&mut work, token);
                }
                for op in &applied {
                    prop_assert!(model.apply(op), "model refused {}", op);
                }
            } else {
                while let Some(token) = stack.pop() {
                    undo(&mut work, token).unwrap();
                }
            }
            prop_assert_eq!(work.len(), model.len());
            prop_assert_eq!(work.render(), model.render(), "after a batch (commit: {})", commit);
            prop_assert_eq!(
                work.slot_capacity(),
                work.len() + work.free_slots(),
                "a finished batch left slots parked"
            );
            prop_assert!(
                work.slot_capacity() <= peak,
                "arena capacity {} leaked past peak live-or-parked {}",
                work.slot_capacity(),
                peak
            );
        }
    }

    /// Undo round-trips on the arena are exact inverses (render-identical,
    /// not just isomorphic) across random LIFO stacks of edits, and leave
    /// no capacity growth behind beyond the edits' own peak.
    #[test]
    fn arena_undo_round_trips_exactly(
        seed_parents in proptest::collection::vec(0..8usize, 0..8),
        ops in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        let mut work = DataTree::new("root");
        let mut ids = vec![work.root_id()];
        for (i, p) in seed_parents.iter().enumerate() {
            ids.push(work.add(ids[*p % ids.len()], LABELS[i % LABELS.len()]).unwrap());
        }
        let seed_render = work.render();
        let seed_snapshot = work.preorder_snapshot();
        let mut stack = Vec::new();
        for choice in ops {
            let op = resolve_op(&work, choice, NodeId::fresh());
            if let Ok((token, _scope)) = apply_undoable(&mut work, &op) {
                stack.push(token);
            }
        }
        while let Some(token) = stack.pop() {
            undo(&mut work, token).unwrap();
        }
        prop_assert_eq!(work.render(), seed_render);
        prop_assert_eq!(work.preorder_snapshot(), seed_snapshot);
    }
}
