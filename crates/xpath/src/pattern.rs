//! The tree-pattern AST.
//!
//! A [`Pattern`] is an arena of nodes. Every node has an incoming **axis**
//! (`/` child or `//` descendant — the edge connecting it to its parent, or
//! to the *document root* for the pattern's first step) and a **node test**
//! (a concrete label or the wildcard `*`). One node is the distinguished
//! **output**; the path from the pattern root to the output is the *spine*,
//! and all other branches are *predicates*.
//!
//! Following the paper, predicates cannot be attached to the document root
//! itself: the top level of a pattern is a single chain of spine steps, each
//! of which may carry predicate subtrees.

use std::fmt;
use xuc_xtree::Label;

/// Index of a node inside a [`Pattern`] arena.
pub type PIdx = usize;

/// The axis of the edge entering a pattern node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `/` — child.
    Child,
    /// `//` — (proper) descendant.
    Descendant,
}

/// A node test: a concrete label or the wildcard `*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeTest {
    Label(Label),
    Wildcard,
}

impl NodeTest {
    /// Does a concrete tree label satisfy this test?
    pub fn accepts(self, label: Label) -> bool {
        match self {
            NodeTest::Label(l) => l == label,
            NodeTest::Wildcard => true,
        }
    }

    /// Is this the wildcard test?
    pub fn is_wildcard(self) -> bool {
        matches!(self, NodeTest::Wildcard)
    }
}

impl From<Label> for NodeTest {
    fn from(l: Label) -> Self {
        NodeTest::Label(l)
    }
}

impl From<&str> for NodeTest {
    fn from(s: &str) -> Self {
        if s == "*" {
            NodeTest::Wildcard
        } else {
            NodeTest::Label(Label::new(s))
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PNode {
    pub axis: Axis,
    pub test: NodeTest,
    pub parent: Option<PIdx>,
    pub children: Vec<PIdx>,
}

/// A unary tree-pattern query in `XP{/,[],//,*}`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    pub(crate) nodes: Vec<PNode>,
    pub(crate) root: PIdx,
    pub(crate) output: PIdx,
}

/// Incremental builder for [`Pattern`]s, used by generators and tests.
///
/// ```
/// use xuc_xpath::{Axis, NodeTest, PatternBuilder};
/// let mut b = PatternBuilder::new(Axis::Child, "a");
/// let spine_b = b.add(b.root(), Axis::Descendant, "b");
/// b.add(spine_b, Axis::Child, "c"); // predicate [/c] unless chosen as output
/// let q = b.finish(spine_b);
/// assert_eq!(q.to_string(), "/a//b[/c]");
/// ```
pub struct PatternBuilder {
    nodes: Vec<PNode>,
    root: PIdx,
}

impl PatternBuilder {
    /// Starts a pattern with its first step (attached to the document root).
    pub fn new(axis: Axis, test: impl Into<NodeTest>) -> Self {
        PatternBuilder {
            nodes: vec![PNode { axis, test: test.into(), parent: None, children: Vec::new() }],
            root: 0,
        }
    }

    /// The first step's index.
    pub fn root(&self) -> PIdx {
        self.root
    }

    /// Adds a node under `parent` and returns its index.
    pub fn add(&mut self, parent: PIdx, axis: Axis, test: impl Into<NodeTest>) -> PIdx {
        assert!(parent < self.nodes.len(), "parent index out of range");
        let idx = self.nodes.len();
        self.nodes.push(PNode {
            axis,
            test: test.into(),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Finishes the pattern, designating `output` as the distinguished node.
    pub fn finish(self, output: PIdx) -> Pattern {
        assert!(output < self.nodes.len(), "output index out of range");
        Pattern { nodes: self.nodes, root: self.root, output }
    }
}

impl Pattern {
    /// Parses an XPath expression; convenience for [`crate::parser::parse`].
    pub fn parse(src: &str) -> Result<Pattern, crate::parser::ParseError> {
        crate::parser::parse(src)
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Patterns always have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the first step.
    pub fn root(&self) -> PIdx {
        self.root
    }

    /// Index of the distinguished output node.
    pub fn output(&self) -> PIdx {
        self.output
    }

    /// The incoming axis of node `i`.
    pub fn axis(&self, i: PIdx) -> Axis {
        self.nodes[i].axis
    }

    /// The node test of node `i`.
    pub fn test(&self, i: PIdx) -> NodeTest {
        self.nodes[i].test
    }

    /// The parent of node `i` (`None` for the first step).
    pub fn parent(&self, i: PIdx) -> Option<PIdx> {
        self.nodes[i].parent
    }

    /// All children (spine continuation and predicates alike) of node `i`.
    pub fn children(&self, i: PIdx) -> &[PIdx] {
        &self.nodes[i].children
    }

    /// The spine: indices from the first step to the output, inclusive.
    pub fn spine(&self) -> Vec<PIdx> {
        let mut path = vec![self.output];
        let mut cur = self.output;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Predicate children of `i`: children that are not the next spine node.
    pub fn predicate_children(&self, i: PIdx) -> Vec<PIdx> {
        let spine = self.spine();
        let next_on_spine =
            spine.iter().position(|&s| s == i).and_then(|pos| spine.get(pos + 1).copied());
        self.nodes[i].children.iter().copied().filter(|&c| Some(c) != next_on_spine).collect()
    }

    /// All node indices in depth-first (pre-order) order from the root.
    pub fn dfs(&self) -> Vec<PIdx> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            out.push(i);
            for &c in self.nodes[i].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Node indices in post-order (children before parents).
    pub fn post_order(&self) -> Vec<PIdx> {
        fn rec(p: &Pattern, i: PIdx, out: &mut Vec<PIdx>) {
            for &c in &p.nodes[i].children {
                rec(p, c, out);
            }
            out.push(i);
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        rec(self, self.root, &mut out);
        out
    }

    /// Is the output node labeled by a concrete label (a *concrete path* in
    /// the paper's terminology)?
    pub fn is_concrete(&self) -> bool {
        !self.nodes[self.output].test.is_wildcard()
    }

    /// Number of descendant (`//`) edges in the pattern.
    pub fn descendant_edge_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.axis == Axis::Descendant).count()
    }

    /// Number of wildcard nodes in the pattern.
    pub fn wildcard_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.test.is_wildcard()).count()
    }

    /// The *star length*: the maximal length of a chain of wildcard nodes
    /// connected by child (`/`) edges (Miklau–Suciu). Used to bound
    /// canonical-model `//`-expansions and the pruning steps of
    /// Theorems 4.7 and 5.1.
    pub fn star_length(&self) -> usize {
        let mut best = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.test.is_wildcard() {
                continue;
            }
            // Count the chain of wildcard `/`-ancestors ending at i.
            let mut len = 1;
            let mut cur = i;
            while self.nodes[cur].axis == Axis::Child {
                match self.nodes[cur].parent {
                    Some(p) if self.nodes[p].test.is_wildcard() => {
                        len += 1;
                        cur = p;
                    }
                    _ => break,
                }
            }
            best = best.max(len);
        }
        best
    }

    /// Distinct concrete labels mentioned in the pattern.
    pub fn labels(&self) -> Vec<Label> {
        let mut set = std::collections::BTreeSet::new();
        for n in &self.nodes {
            if let NodeTest::Label(l) = n.test {
                set.insert(l);
            }
        }
        set.into_iter().collect()
    }

    /// True iff the pattern is *linear*: no predicates (every node has at
    /// most one child), i.e. the query lies in `XP{/,//,*}`.
    pub fn is_linear(&self) -> bool {
        self.nodes.iter().all(|n| n.children.len() <= 1) && {
            // A linear pattern's single chain must end at the output.
            let spine = self.spine();
            spine.len() == self.nodes.len()
        }
    }

    /// For linear patterns: the sequence of `(axis, test)` steps from the
    /// root to the output. Returns `None` when the pattern has predicates.
    pub fn linear_steps(&self) -> Option<Vec<(Axis, NodeTest)>> {
        if !self.is_linear() {
            return None;
        }
        Some(self.spine().into_iter().map(|i| (self.axis(i), self.test(i))).collect())
    }

    /// The boolean version of the subpattern rooted at `i` (output
    /// irrelevant; used for annotations and sub-pattern reasoning).
    pub fn subpattern(&self, i: PIdx) -> Pattern {
        fn rec(src: &Pattern, i: PIdx, b: &mut PatternBuilder, parent: Option<PIdx>) -> PIdx {
            let idx = match parent {
                None => b.root(),
                Some(p) => b.add(p, src.axis(i), src.test(i)),
            };
            for &c in src.children(i) {
                rec(src, c, b, Some(idx));
            }
            idx
        }
        let mut b = PatternBuilder::new(self.axis(i), self.test(i));
        let root = rec(self, i, &mut b, None);
        // Keep the deepest copied node as output placeholder — callers of
        // `subpattern` use it as a boolean query, so the choice is benign;
        // we use the copied root for determinism.
        b.finish(root)
    }

    /// A deep structural clone with freshly compacted indices.
    pub fn normalized(&self) -> Pattern {
        fn rec(
            src: &Pattern,
            i: PIdx,
            b: &mut PatternBuilder,
            parent: Option<PIdx>,
            map: &mut Vec<(PIdx, PIdx)>,
        ) {
            let idx = match parent {
                None => b.root(),
                Some(p) => b.add(p, src.axis(i), src.test(i)),
            };
            map.push((i, idx));
            for &c in src.children(i) {
                rec(src, c, b, Some(idx), map);
            }
        }
        let mut b = PatternBuilder::new(self.axis(self.root), self.test(self.root));
        let mut map = Vec::new();
        rec(self, self.root, &mut b, None, &mut map);
        let output = map
            .iter()
            .find(|(old, _)| *old == self.output)
            .map(|(_, new)| *new)
            .expect("output visited");
        b.finish(output)
    }
}

impl fmt::Display for Pattern {
    /// Renders the pattern back into XPath syntax, predicates in canonical
    /// (sorted) order so equal patterns print equally.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn render_node(p: &Pattern, i: PIdx, spine_next: Option<PIdx>, out: &mut String) {
            out.push_str(match p.axis(i) {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
            match p.test(i) {
                NodeTest::Label(l) => out.push_str(l.as_str()),
                NodeTest::Wildcard => out.push('*'),
            }
            let mut preds: Vec<String> = p
                .children(i)
                .iter()
                .copied()
                .filter(|&c| Some(c) != spine_next)
                .map(|c| {
                    let mut s = String::new();
                    render_subtree(p, c, &mut s);
                    s
                })
                .collect();
            preds.sort();
            for pred in preds {
                out.push('[');
                out.push_str(&pred);
                out.push(']');
            }
        }
        fn render_subtree(p: &Pattern, i: PIdx, out: &mut String) {
            // A predicate node with a single child renders as a path chain
            // (`//m//m`); with several children, all become brackets
            // (`//m[//x][//y]`). Both forms denote the same boolean pattern.
            out.push_str(match p.axis(i) {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
            match p.test(i) {
                NodeTest::Label(l) => out.push_str(l.as_str()),
                NodeTest::Wildcard => out.push('*'),
            }
            match p.children(i) {
                [only] => render_subtree(p, *only, out),
                kids => {
                    let mut preds: Vec<String> = kids
                        .iter()
                        .map(|&c| {
                            let mut s = String::new();
                            render_subtree(p, c, &mut s);
                            s
                        })
                        .collect();
                    preds.sort();
                    for pred in preds {
                        out.push('[');
                        out.push_str(&pred);
                        out.push(']');
                    }
                }
            }
        }
        let spine = self.spine();
        let mut s = String::new();
        for (pos, &i) in spine.iter().enumerate() {
            render_node(self, i, spine.get(pos + 1).copied(), &mut s);
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Pattern {
        // /a//b[/c]
        let mut b = PatternBuilder::new(Axis::Child, "a");
        let nb = b.add(b.root(), Axis::Descendant, "b");
        b.add(nb, Axis::Child, "c");
        b.finish(nb)
    }

    #[test]
    fn builder_and_accessors() {
        let q = simple();
        assert_eq!(q.len(), 3);
        assert_eq!(q.axis(q.root()), Axis::Child);
        assert_eq!(q.test(q.root()), NodeTest::Label(Label::new("a")));
        assert_eq!(q.spine().len(), 2);
        assert!(q.is_concrete());
        assert!(!q.is_linear());
    }

    #[test]
    fn display_roundtrip() {
        let q = simple();
        assert_eq!(q.to_string(), "/a//b[/c]");
    }

    #[test]
    fn predicate_children_excludes_spine() {
        let q = simple();
        let spine = q.spine();
        assert!(q.predicate_children(spine[0]).is_empty());
        assert_eq!(q.predicate_children(spine[1]).len(), 1);
    }

    #[test]
    fn linear_detection() {
        let mut b = PatternBuilder::new(Axis::Child, "a");
        let n2 = b.add(b.root(), Axis::Descendant, "*");
        let n3 = b.add(n2, Axis::Child, "b");
        let q = b.finish(n3);
        assert!(q.is_linear());
        let steps = q.linear_steps().unwrap();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[1], (Axis::Descendant, NodeTest::Wildcard));
    }

    #[test]
    fn linear_requires_output_at_end() {
        // /a/b with output on a: the chain continues past the output, which
        // makes the "spine == all nodes" condition fail.
        let mut b = PatternBuilder::new(Axis::Child, "a");
        b.add(b.root(), Axis::Child, "b");
        let q = b.finish(0);
        assert!(!q.is_linear());
    }

    #[test]
    fn star_length_chains() {
        // /*/*/a//*: star chain of length 2 at front, 1 at back.
        let mut b = PatternBuilder::new(Axis::Child, "*");
        let n2 = b.add(b.root(), Axis::Child, "*");
        let n3 = b.add(n2, Axis::Child, "a");
        let n4 = b.add(n3, Axis::Descendant, "*");
        let q = b.finish(n4);
        assert_eq!(q.star_length(), 2);
        assert_eq!(q.wildcard_count(), 3);
        assert_eq!(q.descendant_edge_count(), 1);
    }

    #[test]
    fn counts_and_labels() {
        let q = simple();
        assert_eq!(q.descendant_edge_count(), 1);
        assert_eq!(q.wildcard_count(), 0);
        let labels: Vec<&str> = q.labels().iter().map(|l| l.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn normalized_preserves_display() {
        let q = simple();
        let n = q.normalized();
        assert_eq!(q.to_string(), n.to_string());
        assert_eq!(n.output(), n.spine()[n.spine().len() - 1]);
    }

    #[test]
    fn post_order_visits_children_first() {
        let q = simple();
        let order = q.post_order();
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), q.root());
    }
}
