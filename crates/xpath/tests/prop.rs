//! Property tests: the PTIME evaluator against the naive oracle, and
//! containment against direct model checking. The reusable bitset
//! [`Evaluator`] is pinned against both the naive oracle and the cold
//! per-call `eval_at`, including re-evaluation after in-place edits and
//! their undos. The set-at-a-time path (`eval_set` over a
//! [`xuc_automata::PatternSetCompiler`] batch) is pinned against the
//! per-pattern path and the naive oracle over random trees, random mixed
//! pattern batches, and post-edit/undo refresh sequences. The
//! edit-proportional splice (`eval_set_splice` over an accumulated
//! [`xuc_xtree::DirtyRegion`]) is pinned directly against all three
//! from-scratch passes after every edit and every undo of the same
//! sequences, including regions that merge into ancestor scopes and
//! declined splices; its journal must revert the baseline exactly.
//! Structural edits kept in sync by `refresh_after` alone — each scope
//! re-applied to the evaluator's replica, bitset rows re-derived on
//! demand — are pinned against
//! a from-scratch evaluator on every entry point, including batches of
//! root-level moves, splices, deletes and inserts whose re-sync must
//! cost the subtrees their scopes name.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xuc_automata::{CompiledPatternSet, PatternSetCompiler};
use xuc_xpath::{canonical, containment, eval, naive, Axis, Evaluator, Pattern, PatternBuilder};
use xuc_xtree::{apply_undoable, undo, DataTree, DirtyRegion, Label, NodeId, NodeRef, Update};

const LABELS: &[&str] = &["a", "b", "c", "d"];

/// Strategy: a random tree over a small alphabet, encoded as a parent-pointer
/// vector (node i ≥ 1 hangs under a random earlier node).
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = DataTree> {
    (1..max_nodes).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let labels = proptest::collection::vec(0..LABELS.len(), n);
        (parents, labels).prop_map(|(parents, labels)| {
            let mut tree = DataTree::new("root");
            let mut ids = vec![tree.root_id()];
            for (i, p) in parents.iter().enumerate() {
                let id = tree.add(ids[*p], LABELS[labels[i + 1]]).unwrap();
                ids.push(id);
            }
            tree
        })
    })
}

/// Strategy: a random pattern with up to `max_nodes` nodes. Each node gets a
/// random parent among the earlier nodes (node 0 is the first step); the
/// output is the deepest node of the chain containing node 0 — for
/// simplicity we pick the last node on the path built from node 0 downward.
fn pattern_strategy(max_nodes: usize) -> impl Strategy<Value = Pattern> {
    pattern_strategy_with(max_nodes, true)
}

fn pattern_strategy_with(max_nodes: usize, allow_desc: bool) -> impl Strategy<Value = Pattern> {
    (1..max_nodes).prop_flat_map(move |n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let tests = proptest::collection::vec(0..=LABELS.len(), n); // == len => wildcard
        let axes = if allow_desc {
            proptest::collection::vec(any::<bool>().boxed(), n)
        } else {
            proptest::collection::vec(Just(false).boxed(), n)
        };
        (parents, tests, axes).prop_map(|(parents, tests, axes)| {
            let axis_of = |b: bool| if b { Axis::Descendant } else { Axis::Child };
            let test_of = |t: usize| {
                if t == LABELS.len() {
                    "*"
                } else {
                    LABELS[t]
                }
            };
            let mut b = PatternBuilder::new(axis_of(axes[0]), test_of(tests[0]));
            let mut idxs = vec![b.root()];
            for (i, p) in parents.iter().enumerate() {
                let idx = b.add(idxs[*p], axis_of(axes[i + 1]), test_of(tests[i + 1]));
                idxs.push(idx);
            }
            // Output: walk from the root taking the first child each time.
            let probe = b.finish(0);
            let mut cur = probe.root();
            while let Some(&c) = probe.children(cur).first() {
                cur = c;
            }
            let mut b2 = PatternBuilder::new(axis_of(axes[0]), test_of(tests[0]));
            let mut idxs2 = vec![b2.root()];
            for (i, p) in parents.iter().enumerate() {
                let idx = b2.add(idxs2[*p], axis_of(axes[i + 1]), test_of(tests[i + 1]));
                idxs2.push(idx);
            }
            b2.finish(cur)
        })
    })
}

/// Strategy: a random **linear** pattern (a chain of `/` and `//` steps),
/// the class the set automaton compiles and the splice re-derives.
fn linear_pattern_strategy(max_steps: usize) -> impl Strategy<Value = Pattern> {
    proptest::collection::vec((any::<bool>(), 0..=LABELS.len()), 1..max_steps).prop_map(|steps| {
        let axis_of = |b: bool| if b { Axis::Descendant } else { Axis::Child };
        let test_of = |t: usize| if t == LABELS.len() { "*" } else { LABELS[t] };
        let mut b = PatternBuilder::new(axis_of(steps[0].0), test_of(steps[0].1));
        let mut last = b.root();
        for &(desc, t) in &steps[1..] {
            last = b.add(last, axis_of(desc), test_of(t));
        }
        b.finish(last)
    })
}

/// Splices a clone of `base` as admission does, then checks the answer
/// admission would use — the spliced sets, or `eval_set` when the splice
/// declines — against `eval_set`, `eval_all` and the naive oracle, and
/// that the splice journal reverts the clone to `base`.
fn check_splice(
    inc: &mut Evaluator,
    compiled: &CompiledPatternSet,
    batch: &[Pattern],
    work: &DataTree,
    region: &DirtyRegion,
    base: &[BTreeSet<NodeRef>],
    ctx: &str,
) {
    let full_rows = inc.eval_set(compiled);
    let mut spliced = base.to_vec();
    let answer = match inc.eval_set_splice(compiled, region, &mut spliced) {
        Some(journal) => {
            let answer = spliced.clone();
            journal.revert(&mut spliced);
            prop_assert_eq!(&spliced, base, "revert after {}", ctx);
            answer
        }
        None => {
            prop_assert_eq!(&spliced, base, "a declined splice touched the sets after {}", ctx);
            full_rows.clone()
        }
    };
    prop_assert_eq!(&answer, &full_rows, "splice vs eval_set after {}", ctx);
    prop_assert_eq!(&answer, &Evaluator::new(work).eval_all(batch), "after {}", ctx);
    for (q, r) in batch.iter().zip(&answer) {
        prop_assert_eq!(r, &naive::eval(q, work), "{} / {}", ctx, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eval_matches_naive(tree in tree_strategy(12), q in pattern_strategy(6)) {
        prop_assert_eq!(eval::eval(&q, &tree), naive::eval(&q, &tree));
    }

    #[test]
    fn eval_at_matches_naive(tree in tree_strategy(12), q in pattern_strategy(5)) {
        for id in tree.node_ids() {
            prop_assert_eq!(eval::eval_at(&q, &tree, id), naive::eval_at(&q, &tree, id));
        }
    }

    #[test]
    fn containment_respected_by_eval(
        tree in tree_strategy(10),
        q1 in pattern_strategy(4),
        q2 in pattern_strategy(4),
    ) {
        // If q1 ⊆ q2 is claimed, every evaluation must respect it.
        if containment::contains(&q1, &q2) {
            let r1 = eval::eval(&q1, &tree);
            let r2 = eval::eval(&q2, &tree);
            prop_assert!(r1.is_subset(&r2), "q1={} q2={} tree={:?}", q1, q2, tree);
        }
    }

    #[test]
    fn non_containment_has_canonical_witness(
        q1 in pattern_strategy(4),
        q2 in pattern_strategy(4),
    ) {
        // contains() and the raw canonical-model procedure must agree.
        prop_assert_eq!(
            containment::contains(&q1, &q2),
            containment::contains_canonical(&q1, &q2),
            "q1={} q2={}", &q1, &q2
        );
    }

    #[test]
    fn canonical_models_self_select(q in pattern_strategy(5)) {
        let z = canonical::fresh_label_for([&q]);
        for m in canonical::canonical_models(&q, 2, z) {
            let r = eval::eval(&q, &m.tree);
            prop_assert!(r.iter().any(|n| n.id == m.output));
        }
    }

    #[test]
    fn display_parse_roundtrip(q in pattern_strategy(6)) {
        let printed = q.to_string();
        let reparsed = xuc_xpath::parse(&printed).unwrap();
        prop_assert_eq!(printed, reparsed.to_string());
    }

    #[test]
    fn bitset_evaluator_matches_naive_and_cold_eval(
        tree in tree_strategy(12),
        q in pattern_strategy(6),
    ) {
        let mut ev = Evaluator::new(&tree);
        let batch = ev.eval(&q);
        prop_assert_eq!(&batch, &naive::eval(&q, &tree));
        prop_assert_eq!(&batch, &eval::eval(&q, &tree));
        for id in tree.node_ids() {
            prop_assert_eq!(ev.eval_at(&q, id), eval::eval_at(&q, &tree, id));
        }
    }

    #[test]
    fn evaluator_batch_is_pointwise_eval(
        tree in tree_strategy(10),
        q1 in pattern_strategy(4),
        q2 in pattern_strategy(4),
        q3 in pattern_strategy(4),
    ) {
        let queries = vec![q1, q2, q3];
        let batch = Evaluator::new(&tree).eval_all(&queries);
        for (q, r) in queries.iter().zip(&batch) {
            prop_assert_eq!(r, &eval::eval(q, &tree));
        }
    }

    #[test]
    fn evaluator_tracks_edits_and_undo(
        tree in tree_strategy(12),
        q in pattern_strategy(5),
        op_choice in 0..4usize,
        node_pick in 0..64usize,
    ) {
        let mut work = tree.clone();
        let mut ev = Evaluator::new(&work);
        let before_result = ev.eval(&q);

        // Pick a deterministic edit target among the non-root nodes (the
        // insert case may target the root too).
        let ids = work.node_ids();
        let target = if ids.len() > 1 {
            ids[1 + node_pick % (ids.len() - 1)]
        } else {
            ids[0]
        };
        let op = match op_choice {
            0 => Update::Relabel { node: target, label: Label::new("d") },
            1 => Update::DeleteSubtree { node: target },
            2 => Update::DeleteNode { node: target },
            _ => Update::InsertLeaf {
                parent: target,
                id: NodeId::fresh(),
                label: Label::new("b"),
            },
        };
        ev.invalidate();
        if let Ok((token, _scope)) = apply_undoable(&mut work, &op) {
            // After the edit: the refreshed snapshot matches the oracle on
            // the edited tree.
            ev.refresh(&work);
            prop_assert_eq!(ev.eval(&q), naive::eval(&q, &work));
            // After the undo: results are bit-identical to pre-edit.
            undo(&mut work, token).unwrap();
            prop_assert!(work.identified_eq(&tree), "undo must restore the tree");
            ev.refresh(&work);
            let after_undo = ev.eval(&q);
            prop_assert_eq!(&after_undo, &before_result);
            prop_assert_eq!(&after_undo, &naive::eval(&q, &tree));
        } else {
            // Root-targeting delete ops fail without mutating: refreshing
            // must be a no-op for results.
            ev.refresh(&work);
            prop_assert_eq!(ev.eval(&q), before_result);
        }
    }

    #[test]
    fn scoped_refresh_equals_full_refresh_and_naive(
        tree in tree_strategy(12),
        q in pattern_strategy(5),
        ops in proptest::collection::vec((0..5usize, 0..64usize, 0..64usize), 1..8),
    ) {
        // Random edit sequences (relabel, detach, splice, move, replace-id)
        // applied through the edit-scope protocol: after every apply and
        // every undo, the incrementally refreshed evaluator must agree with
        // a from-scratch evaluator and with the naive oracle.
        let mut work = tree.clone();
        let mut inc = Evaluator::new(&work);
        inc.eval(&q); // prime the label-row cache so in-place patching is exercised
        let mut stack = Vec::new();
        for (op_choice, pick_a, pick_b) in ops {
            let ids = work.node_ids();
            let target = if ids.len() > 1 {
                ids[1 + pick_a % (ids.len() - 1)]
            } else {
                ids[0]
            };
            let other = ids[pick_b % ids.len()];
            let op = match op_choice {
                0 => Update::Relabel {
                    node: target,
                    label: Label::new(LABELS[pick_b % LABELS.len()]),
                },
                1 => Update::DeleteSubtree { node: target },
                2 => Update::DeleteNode { node: target },
                3 => Update::Move { node: target, new_parent: other },
                _ => Update::ReplaceId { node: target, new_id: NodeId::fresh() },
            };
            let Ok((token, scope)) = apply_undoable(&mut work, &op) else { continue };
            stack.push(token);
            inc.refresh_after(&work, &scope);
            let incremental = inc.eval(&q);
            prop_assert_eq!(&incremental, &Evaluator::new(&work).eval(&q), "apply {}", &op);
            prop_assert_eq!(&incremental, &naive::eval(&q, &work), "apply {}", &op);
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut work, token).unwrap();
            inc.refresh_after(&work, &scope);
            let incremental = inc.eval(&q);
            prop_assert_eq!(&incremental, &Evaluator::new(&work).eval(&q));
            prop_assert_eq!(&incremental, &naive::eval(&q, &work));
        }
        prop_assert!(work.identified_eq(&tree), "full unwind must restore the seed");
    }

    #[test]
    fn eval_set_matches_eval_all_and_naive(
        tree in tree_strategy(12),
        q1 in pattern_strategy(5),
        q2 in pattern_strategy(5),
        q3 in pattern_strategy(4),
        q4 in pattern_strategy(4),
    ) {
        // Random mixed batches: linear patterns compile, predicate
        // patterns ride the fallback path — the batch answer must be the
        // per-pattern answer must be the naive oracle's, entry by entry.
        let batch = vec![q1, q2, q3, q4];
        let compiled = PatternSetCompiler::compile(&batch);
        let mut ev = Evaluator::new(&tree);
        let rows = ev.eval_set(&compiled);
        prop_assert_eq!(&rows, &ev.eval_all(&batch));
        for (q, r) in batch.iter().zip(&rows) {
            prop_assert_eq!(r, &naive::eval(q, &tree), "pattern {}", q);
        }
        // Subtree anchoring agrees with per-pattern eval_at on every node.
        for id in tree.node_ids() {
            let at = ev.eval_set_at(&compiled, id);
            for (q, r) in batch.iter().zip(&at) {
                prop_assert_eq!(r, &ev.eval_at(q, id), "pattern {} at {}", q, id);
            }
        }
    }

    #[test]
    fn eval_set_tracks_scoped_refreshes(
        tree in tree_strategy(12),
        q1 in pattern_strategy(5),
        q2 in pattern_strategy(5),
        q3 in pattern_strategy(4),
        ops in proptest::collection::vec((0..5usize, 0..64usize, 0..64usize), 1..6),
    ) {
        // The compiled automaton is built ONCE; the evaluator is patched
        // via refresh_after across a random apply/undo sequence. After
        // every step the single-pass answer must match a from-scratch
        // evaluator's per-pattern answer — i.e. the set path needs no
        // recompilation and no extra re-sync to stay exact.
        let batch = vec![q1, q2, q3];
        let compiled = PatternSetCompiler::compile(&batch);
        let mut work = tree.clone();
        let mut inc = Evaluator::new(&work);
        inc.eval_set(&compiled); // prime caches (fallback label rows)
        let mut stack = Vec::new();
        for (op_choice, pick_a, pick_b) in ops {
            let ids = work.node_ids();
            let target = if ids.len() > 1 { ids[1 + pick_a % (ids.len() - 1)] } else { ids[0] };
            let other = ids[pick_b % ids.len()];
            let op = match op_choice {
                0 => Update::Relabel {
                    node: target,
                    label: Label::new(LABELS[pick_b % LABELS.len()]),
                },
                1 => Update::DeleteSubtree { node: target },
                2 => Update::DeleteNode { node: target },
                3 => Update::Move { node: target, new_parent: other },
                _ => Update::ReplaceId { node: target, new_id: NodeId::fresh() },
            };
            let Ok((token, scope)) = apply_undoable(&mut work, &op) else { continue };
            stack.push(token);
            inc.refresh_after(&work, &scope);
            let rows = inc.eval_set(&compiled);
            prop_assert_eq!(&rows, &Evaluator::new(&work).eval_all(&batch), "apply {}", &op);
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut work, token).unwrap();
            inc.refresh_after(&work, &scope);
            let rows = inc.eval_set(&compiled);
            prop_assert_eq!(&rows, &Evaluator::new(&work).eval_all(&batch));
        }
        prop_assert!(work.identified_eq(&tree), "full unwind must restore the seed");
    }

    #[test]
    fn eval_set_splice_matches_eval_set_eval_all_and_naive(
        tree in tree_strategy(12),
        q1 in pattern_strategy(5),
        q2 in pattern_strategy(5),
        q3 in pattern_strategy(4),
        q4 in pattern_strategy(4),
        ops in proptest::collection::vec((0..6usize, 0..64usize, 0..64usize), 1..9),
    ) {
        // The delta-admission contract: one baseline eval_set, then an
        // arbitrary edit/undo sequence accumulated into ONE DirtyRegion —
        // after every step a splice of the baseline must equal the full
        // set pass, the per-pattern pass, and the naive oracle. Random
        // mixed batches exercise both the genuine splice path
        // (all-linear) and the declined splice (predicate fallbacks);
        // deep edit sequences produce regions whose scopes merge into
        // ancestor scopes (moves/deletes above earlier dirty roots).
        let batch = vec![q1, q2, q3, q4];
        let compiled = PatternSetCompiler::compile(&batch);
        let mut work = tree.clone();
        let mut inc = Evaluator::new(&work);
        let base = inc.eval_set(&compiled);
        let mut region = DirtyRegion::new();
        let mut stack = Vec::new();
        for (op_choice, pick_a, pick_b) in ops {
            let ids = work.node_ids();
            let target = if ids.len() > 1 { ids[1 + pick_a % (ids.len() - 1)] } else { ids[0] };
            let other = ids[pick_b % ids.len()];
            let op = match op_choice {
                0 => Update::Relabel {
                    node: target,
                    label: Label::new(LABELS[pick_b % LABELS.len()]),
                },
                1 => Update::DeleteSubtree { node: target },
                2 => Update::DeleteNode { node: target },
                3 => Update::Move { node: target, new_parent: other },
                4 => Update::InsertLeaf {
                    parent: other,
                    id: NodeId::fresh(),
                    label: Label::new(LABELS[pick_a % LABELS.len()]),
                },
                _ => Update::ReplaceId { node: target, new_id: NodeId::fresh() },
            };
            // Mirror the session's bookkeeping: a deletion's doomed refs
            // are captured before it applies.
            let doomed = match &op {
                Update::DeleteSubtree { node } => work.subtree_nodes(*node).ok(),
                Update::DeleteNode { node } => work.node(*node).ok().map(|r| vec![r]),
                _ => None,
            };
            let Ok((token, scope)) = apply_undoable(&mut work, &op) else { continue };
            stack.push(token);
            if let Some(refs) = doomed {
                region.record_removals(&refs);
            }
            inc.refresh_after(&work, &scope);
            region.record(&work, &scope);
            check_splice(&mut inc, &compiled, &batch, &work, &region, &base, &format!("apply {op}"));
        }
        // Undos feed the SAME region: the splice must track back down.
        while let Some(token) = stack.pop() {
            let scope = undo(&mut work, token).unwrap();
            inc.refresh_after(&work, &scope);
            region.record(&work, &scope);
            check_splice(&mut inc, &compiled, &batch, &work, &region, &base, "undo");
        }
        prop_assert!(work.identified_eq(&tree), "full unwind must restore the seed");
        prop_assert_eq!(inc.eval_set(&compiled), base);
    }

    #[test]
    fn structural_refresh_after_matches_a_fresh_evaluator(
        tree in tree_strategy(14),
        q1 in pattern_strategy(5),
        q2 in pattern_strategy(4),
        q3 in pattern_strategy_with(4, false),
        ops in proptest::collection::vec(
            (0..5usize, 0..64usize, 0..64usize, any::<bool>()),
            1..10,
        ),
    ) {
        // Random structural sequences (leaf inserts, subtree and node
        // deletes, moves — some under the root) applied and undone
        // through refresh_after alone. After
        // every checked step the maintained evaluator must equal a
        // from-scratch one on every entry point, and a splice of the
        // baseline must equal eval_set and the naive oracle. Unchecked
        // steps chain structural re-reads with no evaluation between.
        let batch = vec![q1, q2, q3];
        let compiled = PatternSetCompiler::compile(&batch);
        let mut work = tree.clone();
        let mut inc = Evaluator::new(&work);
        let base = inc.eval_set(&compiled);
        let mut region = DirtyRegion::new();
        let check = |inc: &mut Evaluator, work: &DataTree, region: &DirtyRegion, ctx: &str| {
            let mut fresh = Evaluator::new(work);
            prop_assert_eq!(inc.len(), fresh.len(), "len after {}", ctx);
            prop_assert_eq!(inc.root(), fresh.root(), "root after {}", ctx);
            check_splice(inc, &compiled, &batch, work, region, &base, ctx);
            prop_assert_eq!(inc.eval_set(&compiled), fresh.eval_set(&compiled), "{}", ctx);
            prop_assert_eq!(inc.eval_all(&batch), fresh.eval_all(&batch), "{}", ctx);
            for id in work.node_ids() {
                for q in &batch {
                    prop_assert_eq!(inc.eval_at(q, id), fresh.eval_at(q, id), "{} / {}", ctx, q);
                }
            }
        };
        let mut stack = Vec::new();
        for (op_choice, pick_a, pick_b, checked) in ops {
            let ids = work.node_ids();
            let target = if ids.len() > 1 { ids[1 + pick_a % (ids.len() - 1)] } else { ids[0] };
            let other = ids[pick_b % ids.len()];
            let op = match op_choice {
                0 => Update::InsertLeaf {
                    parent: other,
                    id: NodeId::fresh(),
                    label: Label::new(LABELS[pick_a % LABELS.len()]),
                },
                1 => Update::DeleteSubtree { node: target },
                2 => Update::DeleteNode { node: target },
                3 => Update::Move { node: target, new_parent: other },
                _ => Update::Move { node: target, new_parent: work.root_id() },
            };
            let doomed = match &op {
                Update::DeleteSubtree { node } => work.subtree_nodes(*node).ok(),
                Update::DeleteNode { node } => work.node(*node).ok().map(|r| vec![r]),
                _ => None,
            };
            let Ok((token, scope)) = apply_undoable(&mut work, &op) else { continue };
            stack.push(token);
            if let Some(refs) = doomed {
                region.record_removals(&refs);
            }
            inc.refresh_after(&work, &scope);
            region.record(&work, &scope);
            if checked {
                check(&mut inc, &work, &region, &format!("apply {op}"));
            }
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut work, token).unwrap();
            inc.refresh_after(&work, &scope);
            region.record(&work, &scope);
            check(&mut inc, &work, &region, "undo");
        }
        prop_assert!(work.identified_eq(&tree), "full unwind must restore the seed");
    }

    #[test]
    fn root_level_batches_relink_and_splice_like_the_full_pass(
        tree in tree_strategy(16),
        q1 in linear_pattern_strategy(4),
        q2 in linear_pattern_strategy(4),
        q3 in linear_pattern_strategy(3),
        ops in proptest::collection::vec((0..7usize, 0..64usize, 0..64usize), 1..10),
    ) {
        // Batches of root-level edits — moves across the root, splices
        // and deletes of the root's children, inserts under the root —
        // mixed with deeper inserts and relabels, so recorded dirty roots
        // die (a delete above them) or get re-rooted (a splice above
        // them) later in the batch. Each scope names only the subtrees
        // whose root path changed, so after every apply and every undo
        // the maintained evaluator must equal a from-scratch one, the
        // splice must equal eval_set and the naive oracle, every recorded
        // root must be live, and the re-sync must cost the named
        // subtrees, never the root's fan-out.
        let batch = vec![q1, q2, q3];
        let compiled = PatternSetCompiler::compile(&batch);
        let mut work = tree.clone();
        let root = work.root_id();
        let mut inc = Evaluator::new(&work);
        let base = inc.eval_set(&compiled);
        let mut region = DirtyRegion::new();
        let check = |inc: &mut Evaluator, work: &DataTree, region: &DirtyRegion, ctx: &str| {
            let mut fresh = Evaluator::new(work);
            prop_assert_eq!(inc.len(), fresh.len(), "len after {}", ctx);
            prop_assert!(region.structural_roots().iter().all(|&r| work.contains(r)), "{}", ctx);
            check_splice(inc, &compiled, &batch, work, region, &base, ctx);
            prop_assert_eq!(inc.eval_set(&compiled), fresh.eval_set(&compiled), "{}", ctx);
            prop_assert_eq!(inc.eval_all(&batch), fresh.eval_all(&batch), "{}", ctx);
        };
        let mut stack = Vec::new();
        for (op_choice, pick_a, pick_b) in ops {
            let ids = work.node_ids();
            let kids = work.children(root).unwrap();
            let any = ids[pick_a % ids.len()];
            let kid = |pick: usize| kids.get(pick % kids.len().max(1)).copied().unwrap_or(root);
            let grandchild = work.children(kid(pick_a)).unwrap().first().copied().unwrap_or(any);
            let label = Label::new(LABELS[pick_b % LABELS.len()]);
            let op = match op_choice {
                0 => Update::Move { node: any, new_parent: root },
                1 => Update::Move { node: grandchild, new_parent: kid(pick_b) },
                2 => Update::DeleteNode { node: kid(pick_a) },
                3 => Update::DeleteSubtree { node: kid(pick_a) },
                4 => Update::InsertLeaf { parent: root, id: NodeId::fresh(), label },
                5 => Update::InsertLeaf { parent: any, id: NodeId::fresh(), label },
                _ => Update::Relabel { node: any, label },
            };
            let doomed = match &op {
                Update::DeleteSubtree { node } => work.subtree_nodes(*node).ok(),
                Update::DeleteNode { node } => work.node(*node).ok().map(|r| vec![r]),
                _ => None,
            };
            // What the scope may cost: the moved or deleted subtree, the
            // spliced node's children, one inserted leaf.
            let bound = match &op {
                Update::Move { node, .. } | Update::DeleteSubtree { node } => {
                    work.subtree_nodes(*node).map_or(0, |n| 2 * n.len() as u64)
                }
                Update::DeleteNode { node } => work.children(*node).map_or(0, |c| c.len() as u64 + 1),
                _ => 1,
            };
            let read = inc.refresh_nodes_read();
            let Ok((token, scope)) = apply_undoable(&mut work, &op) else { continue };
            stack.push(token);
            if let Some(refs) = doomed {
                region.record_removals(&refs);
            }
            inc.refresh_after(&work, &scope);
            prop_assert!(inc.refresh_nodes_read() - read <= bound, "{} cost", &op);
            region.record(&work, &scope);
            check(&mut inc, &work, &region, &format!("apply {op}"));
        }
        while let Some(token) = stack.pop() {
            let scope = undo(&mut work, token).unwrap();
            inc.refresh_after(&work, &scope);
            region.record(&work, &scope);
            check(&mut inc, &work, &region, "undo");
        }
        prop_assert!(work.identified_eq(&tree), "full unwind must restore the seed");
        prop_assert_eq!(inc.eval_set(&compiled), base);
    }

    #[test]
    fn intersection_is_semantic_intersection(
        tree in tree_strategy(10),
        q1 in pattern_strategy_with(4, false),
        q2 in pattern_strategy_with(4, false),
    ) {
        let r1 = eval::eval(&q1, &tree);
        let r2 = eval::eval(&q2, &tree);
        let expected: std::collections::BTreeSet<_> =
            r1.intersection(&r2).copied().collect();
        match xuc_xpath::intersect::intersect(&q1, &q2) {
            Some(qi) => prop_assert_eq!(eval::eval(&qi, &tree), expected),
            None => prop_assert!(expected.is_empty()),
        }
    }
}
