//! PTIME evaluation of tree patterns on data trees.
//!
//! The evaluation of `XP{/,[],//,*}` queries is polynomial (Gottlob, Koch,
//! Pichler, Segoufin \[18\]); we use the standard two-phase algorithm,
//! implemented by the reusable bitset engine in [`crate::engine`] — the
//! free functions here are thin cold-path wrappers that build a throwaway
//! [`Evaluator`] per call:
//!
//! 1. **Bottom-up**: for every pattern node `p` and tree node `v`, decide
//!    whether the subpattern rooted at `p` matches with `p ↦ v`
//!    (label test + recursively matched children through the right axis).
//! 2. **Top-down**: walk the spine from the evaluation start node, keeping
//!    the frontier of tree nodes that match the spine prefix; the frontier
//!    at the output node is the query result.
//!
//! Results are sets of `(id, label)` pairs ([`NodeRef`]), matching the
//! paper's convention that a query returns *nodes*, not labels.

use crate::engine::Evaluator;
use crate::pattern::Pattern;
use std::collections::BTreeSet;
use xuc_xtree::{DataTree, NodeId, NodeRef};

/// Evaluates `q` from the document root: `q(I)` in the paper's notation.
///
/// This is the *cold* entry point: it snapshots `tree` on every call.
/// Callers evaluating several patterns against the same tree should build
/// one [`Evaluator`] and amortize the snapshot across the batch.
pub fn eval(q: &Pattern, tree: &DataTree) -> BTreeSet<NodeRef> {
    Evaluator::new(tree).eval(q)
}

/// Evaluates `q` on the subtree of `tree` rooted at `start`:
/// `q(n, I)` in the paper's notation. Cold path; see [`eval`].
///
/// # Panics
/// Panics if `start` is not a node of `tree`.
pub fn eval_at(q: &Pattern, tree: &DataTree, start: NodeId) -> BTreeSet<NodeRef> {
    Evaluator::new(tree).eval_at(q, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use xuc_xtree::parse_term;

    fn ids(set: &BTreeSet<NodeRef>) -> Vec<u64> {
        set.iter().map(|n| n.id.raw()).collect()
    }

    #[test]
    fn child_axis_basic() {
        let t = parse_term("root(a#1(b#2),a#3,c#4(a#5))").unwrap();
        let q = parse("/a").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![1, 3]);
    }

    #[test]
    fn descendant_axis_basic() {
        let t = parse_term("root(a#1(b#2),a#3,c#4(a#5))").unwrap();
        let q = parse("//a").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![1, 3, 5]);
    }

    #[test]
    fn predicate_filters() {
        let t = parse_term("root(a#1(b#2),a#3)").unwrap();
        let q = parse("/a[/b]").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![1]);
    }

    #[test]
    fn paper_example_query() {
        // /a//b[/c]: b nodes with a c child and an a ancestor that is a
        // child of the document root.
        let t = parse_term("root(a#1(x#2(b#3(c#4)),b#5),b#6(c#7))").unwrap();
        let q = parse("/a//b[/c]").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![3]);
    }

    #[test]
    fn wildcard_steps() {
        let t = parse_term("root(a#1(b#2),c#3(d#4))").unwrap();
        let q = parse("/*/*").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![2, 4]);
    }

    #[test]
    fn descendant_is_proper() {
        // //a from the root must not return the root even if labeled a.
        let t = parse_term("a#1(a#2)").unwrap();
        let q = parse("//a").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![2]);
    }

    #[test]
    fn eval_at_subtree() {
        let t = parse_term("root(a#1(b#2(c#3)),b#4(c#5))").unwrap();
        let q = parse("/b/c").unwrap();
        assert_eq!(ids(&eval_at(&q, &t, xuc_xtree::NodeId::from_raw(1))), vec![3]);
        assert_eq!(ids(&eval(&q, &t)), vec![5]);
    }

    #[test]
    fn nested_predicates() {
        let t = parse_term("root(a#1(b#2(c#3(d#4))),a#5(b#6(c#7)))").unwrap();
        let q = parse("/a[/b[/c[/d]]]").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![1]);
    }

    #[test]
    fn spine_with_mid_predicates() {
        let t = parse_term("root(a#1(b#2,v#3),a#4(b#5))").unwrap();
        let q = parse("/a[/v]/b").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![2]);
    }

    #[test]
    fn empty_result() {
        let t = parse_term("root(a#1)").unwrap();
        let q = parse("/b").unwrap();
        assert!(eval(&q, &t).is_empty());
    }

    #[test]
    fn deep_descendant_chain() {
        let t = parse_term("r(a#1(a#2(a#3(a#4))))").unwrap();
        let q = parse("//a//a").unwrap();
        assert_eq!(ids(&eval(&q, &t)), vec![2, 3, 4]);
    }

    #[test]
    fn result_includes_labels() {
        let t = parse_term("root(a#1)").unwrap();
        let q = parse("/a").unwrap();
        let result = eval(&q, &t);
        let n = result.iter().next().unwrap();
        assert_eq!(n.label.as_str(), "a");
    }
}
