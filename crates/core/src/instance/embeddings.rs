//! Instance-based implication for no-remove constraints via *possible
//! embeddings* (Theorem 5.5).
//!
//! `C ⊭_J (q, ↑)` iff some previous instance `I` shaped like an embedding
//! image of `q` removes a node from `q`'s result. The procedure:
//!
//! 1. **Enumerate homomorphic images of `q`** (the paper's "possible
//!    embeddings"): pattern nodes are placed one by one; each is either
//!    *merged* onto a compatible already-placed node or *created* —
//!    child-axis nodes as new children, descendant-axis nodes at the end
//!    of a fresh `z` chain (length `0..=m+1`, `m` the maximal star length)
//!    anchored below the parent's image. This covers the paper's
//!    conditions (1)–(4) including node merges and branch orderings.
//! 2. **Assign node ids by bipartite matching.** Range membership in `I`
//!    depends only on structure and labels, never on ids, so each image
//!    node's required memberships `U(v)` are fixed per image; a node with
//!    `U(v) = ∅` takes a fresh id, the others need *distinct* ids from
//!    `{ j ∈ J : label agrees, j ∈ qᵢ(J) ∀ i ∈ U(v) }` — an injective
//!    assignment found by augmenting-path matching (polynomial in `|J|`).
//! 3. The image of `q`'s output is the removed witness: it must be fresh
//!    or matched to a `J` node outside `q(J)`.
//!
//! The enumeration is exponential in `|q|` and polynomial in `|J|` and
//! `|C|`, exactly the bound of Theorem 5.5; a budget caps pathological
//! inputs (`Unknown` on exhaustion).

use crate::constraint::{Constraint, ConstraintKind};
use crate::outcome::{InstanceCounterExample, Outcome};
use std::collections::{BTreeSet, HashMap};
use xuc_xpath::{canonical, Axis, Evaluator, NodeTest, PIdx, Pattern};
use xuc_xtree::{DataTree, Label, NodeId, NodeRef};

/// Decides `C ⊨_J (q, ↑)` for a no-remove constraint set.
///
/// # Panics
/// Panics if `set` contains a no-insert constraint or the goal is not
/// no-remove (the dispatcher guarantees both).
pub fn implies_no_remove(
    set: &[Constraint],
    j: &DataTree,
    goal: &Constraint,
    budget: usize,
) -> Outcome<InstanceCounterExample> {
    assert!(goal.kind == ConstraintKind::NoRemove);
    assert!(set.iter().all(|c| c.kind == ConstraintKind::NoRemove));
    let q = &goal.range;

    // Label pool for wildcard instantiation.
    let z = canonical::fresh_label_for(set.iter().map(|c| &c.range).chain([q]));
    let mut pool: BTreeSet<Label> = set.iter().flat_map(|c| c.range.labels()).collect();
    pool.extend(q.labels());
    pool.extend(j.labels());
    pool.insert(z);
    let pool: Vec<Label> = pool.into_iter().collect();

    let m = set.iter().map(|c| c.range.star_length()).chain([q.star_length()]).max().unwrap_or(0);

    // Precompute range results on J with one shared snapshot of J.
    let mut j_ev = Evaluator::new(j);
    let ranges_on_j: Vec<BTreeSet<NodeRef>> = set.iter().map(|c| j_ev.eval(&c.range)).collect();
    let goal_on_j = j_ev.eval(q);

    let mut budget_left = budget;
    let order = q.dfs();
    let mut image = DataTree::new("root");
    let root = image.root_id();
    let mut placement: HashMap<PIdx, NodeId> = HashMap::new();

    // One evaluator reused (re-snapshotted) for every candidate image the
    // enumeration completes, instead of a fresh dense build per range per
    // candidate.
    let image_ev = Evaluator::new(&image);
    let found = place(
        &mut PlaceCtx {
            q,
            order: &order,
            pool: &pool,
            z,
            m,
            set,
            ranges_on_j: &ranges_on_j,
            goal_on_j: &goal_on_j,
            j,
            image_ev,
            budget_left: &mut budget_left,
        },
        0,
        &mut image,
        root,
        &mut placement,
    );

    match found {
        PlaceResult::Found(tree) => {
            let ce = InstanceCounterExample { before: tree };
            debug_assert!(ce.verify(set, j, goal), "embedding witness must verify");
            Outcome::NotImplied(ce)
        }
        PlaceResult::Exhausted => Outcome::Implied,
        PlaceResult::BudgetOut => Outcome::Unknown {
            effort: format!("embedding enumeration budget of {budget} exhausted"),
        },
    }
}

struct PlaceCtx<'a> {
    q: &'a Pattern,
    order: &'a [PIdx],
    pool: &'a [Label],
    z: Label,
    m: usize,
    set: &'a [Constraint],
    ranges_on_j: &'a [BTreeSet<NodeRef>],
    goal_on_j: &'a BTreeSet<NodeRef>,
    j: &'a DataTree,
    image_ev: Evaluator,
    budget_left: &'a mut usize,
}

// One short-lived value per search, immediately destructured — the tree
// payload's size doesn't justify a heap indirection.
#[allow(clippy::large_enum_variant)]
enum PlaceResult {
    Found(DataTree),
    Exhausted,
    BudgetOut,
}

fn place(
    ctx: &mut PlaceCtx<'_>,
    idx: usize,
    image: &mut DataTree,
    root: NodeId,
    placement: &mut HashMap<PIdx, NodeId>,
) -> PlaceResult {
    if *ctx.budget_left == 0 {
        return PlaceResult::BudgetOut;
    }
    *ctx.budget_left -= 1;

    if idx == ctx.order.len() {
        return match try_assign_ids(ctx, image, placement) {
            Some(tree) => PlaceResult::Found(tree),
            None => PlaceResult::Exhausted,
        };
    }
    let u = ctx.order[idx];
    let parent_img = match ctx.q.parent(u) {
        None => root,
        Some(p) => placement[&p],
    };

    // Option A: merge onto an existing compatible node.
    let merge_targets: Vec<NodeId> = match ctx.q.axis(u) {
        Axis::Child => image.children(parent_img).expect("live"),
        Axis::Descendant => strict_descendants(image, parent_img),
    };
    for w in merge_targets {
        let wl = image.label(w).expect("live");
        if !ctx.q.test(u).accepts(wl) {
            continue;
        }
        placement.insert(u, w);
        match place(ctx, idx + 1, image, root, placement) {
            PlaceResult::Exhausted => {}
            other => return other,
        }
        placement.remove(&u);
    }

    // Option B: create a new node.
    let labels: Vec<Label> = match ctx.q.test(u) {
        NodeTest::Label(l) => vec![l],
        NodeTest::Wildcard => ctx.pool.to_vec(),
    };
    match ctx.q.axis(u) {
        Axis::Child => {
            for &l in &labels {
                let me = image.add(parent_img, l).expect("fresh");
                placement.insert(u, me);
                match place(ctx, idx + 1, image, root, placement) {
                    PlaceResult::Exhausted => {}
                    other => return other,
                }
                placement.remove(&u);
                image.delete_subtree(me).expect("cleanup");
            }
        }
        Axis::Descendant => {
            // Chains of z's under any anchor at or below the parent image.
            let mut anchors = vec![parent_img];
            anchors.extend(strict_descendants(image, parent_img));
            for anchor in anchors {
                for len in 0..=ctx.m + 1 {
                    let mut attach = anchor;
                    let mut chain_first = None;
                    for _ in 0..len {
                        attach = image.add(attach, ctx.z).expect("fresh");
                        chain_first.get_or_insert(attach);
                    }
                    for &l in &labels {
                        let me = image.add(attach, l).expect("fresh");
                        placement.insert(u, me);
                        match place(ctx, idx + 1, image, root, placement) {
                            PlaceResult::Exhausted => {}
                            other => return other,
                        }
                        placement.remove(&u);
                        image.delete_subtree(me).expect("cleanup");
                    }
                    if let Some(cf) = chain_first {
                        image.delete_subtree(cf).expect("cleanup chain");
                    }
                }
            }
        }
    }
    PlaceResult::Exhausted
}

fn strict_descendants(tree: &DataTree, of: NodeId) -> Vec<NodeId> {
    // Stack-pop order is load-bearing: `place` tries merge targets in this
    // sequence and the first embedding found wins, so the traversal must
    // stay byte-identical to the historical per-node-Vec version.
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = tree.children_iter(of).expect("live").collect();
    while let Some(n) = stack.pop() {
        out.push(n);
        tree.for_each_child(n, |c| stack.push(c.id)).expect("live");
    }
    out
}

/// Step 2/3: id assignment by bipartite matching; returns the finished
/// `I` on success.
fn try_assign_ids(
    ctx: &mut PlaceCtx<'_>,
    image: &DataTree,
    placement: &HashMap<PIdx, NodeId>,
) -> Option<DataTree> {
    let witness_img = placement[&ctx.q.output()];

    // Membership of every image node in each ↑ range (structure-only),
    // against one snapshot of the candidate image.
    ctx.image_ev.refresh(image);
    let mut needs: Vec<(NodeId, Vec<usize>)> = Vec::new();
    let mut membership: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, c) in ctx.set.iter().enumerate() {
        for n in ctx.image_ev.eval(&c.range) {
            membership.entry(n.id).or_default().push(i);
        }
    }
    // The witness must not already be selected by q in J; also, the image
    // must actually put the witness in q(image) — guaranteed by
    // construction, but check cheaply in debug builds.
    debug_assert!(ctx.image_ev.eval(ctx.q).iter().any(|n| n.id == witness_img));

    for id in image.node_ids() {
        if id == image.root_id() {
            continue;
        }
        if let Some(u) = membership.get(&id) {
            needs.push((id, u.clone()));
        }
    }

    // Candidates per needing node.
    let mut candidates: Vec<Vec<NodeId>> = Vec::new();
    for (id, us) in &needs {
        let label = image.label(*id).expect("live");
        let mut cands: Vec<NodeId> = Vec::new();
        'j: for jn in ctx.j.nodes() {
            if jn.label != label {
                continue;
            }
            for &u in us {
                if !ctx.ranges_on_j[u].contains(&jn) {
                    continue 'j;
                }
            }
            // The witness additionally must escape q(J).
            if *id == witness_img && ctx.goal_on_j.contains(&jn) {
                continue;
            }
            cands.push(jn.id);
        }
        if cands.is_empty() {
            return None;
        }
        candidates.push(cands);
    }

    // Injective assignment (augmenting paths).
    let assignment = bipartite_match(&needs, &candidates)?;

    // Materialize I: replace image ids. Nodes without needs keep fresh ids
    // (their current image ids are already fresh and disjoint from J).
    let mut tree = image.clone();
    for ((img_id, _), j_id) in needs.iter().zip(assignment) {
        tree.replace_id(*img_id, j_id).ok()?;
    }
    Some(tree)
}

/// Simple augmenting-path bipartite matching: `needs[i]` must get a
/// distinct id from `candidates[i]`.
fn bipartite_match(
    needs: &[(NodeId, Vec<usize>)],
    candidates: &[Vec<NodeId>],
) -> Option<Vec<NodeId>> {
    let n = needs.len();
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    let mut assigned: Vec<Option<NodeId>> = vec![None; n];

    fn augment(
        i: usize,
        candidates: &[Vec<NodeId>],
        owner: &mut HashMap<NodeId, usize>,
        assigned: &mut Vec<Option<NodeId>>,
        visited: &mut std::collections::HashSet<NodeId>,
    ) -> bool {
        for &cand in &candidates[i] {
            if visited.contains(&cand) {
                continue;
            }
            visited.insert(cand);
            match owner.get(&cand).copied() {
                None => {
                    owner.insert(cand, i);
                    assigned[i] = Some(cand);
                    return true;
                }
                Some(prev) => {
                    if augment(prev, candidates, owner, assigned, visited) {
                        owner.insert(cand, i);
                        assigned[i] = Some(cand);
                        return true;
                    }
                }
            }
        }
        false
    }

    for i in 0..n {
        let mut visited = std::collections::HashSet::new();
        if !augment(i, candidates, &mut owner, &mut assigned, &mut visited) {
            return None;
        }
    }
    Some(assigned.into_iter().map(|a| a.expect("matched")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse_constraint;
    use xuc_xtree::parse_term;

    fn c(s: &str) -> Constraint {
        parse_constraint(s).unwrap()
    }

    fn decide(set: &[Constraint], j: &DataTree, goal: &Constraint) -> bool {
        match implies_no_remove(set, j, goal, 2_000_000) {
            Outcome::Implied => true,
            Outcome::NotImplied(ce) => {
                assert!(ce.verify(set, j, goal));
                false
            }
            other => panic!("unexpected outcome {other}"),
        }
    }

    #[test]
    fn direct_self_implication() {
        let j = parse_term("r(a#1)").unwrap();
        let set = vec![c("(/a, ↑)")];
        assert!(decide(&set, &j, &c("(/a, ↑)")));
    }

    #[test]
    fn unconstrained_removal_possible() {
        let j = parse_term("r(a#1)").unwrap();
        let set: Vec<Constraint> = vec![];
        assert!(!decide(&set, &j, &c("(/a, ↑)")));
    }

    #[test]
    fn paper_section_2_1_instance_example() {
        // J of Fig. 2; C = {(/patient/visit, ↑)} implies
        // (/patient[/clinicalTrial]/visit, ↑) because J has no patient
        // without clinicalTrial… (see §2.1: the move target is missing).
        let j = parse_term("h(patient#2(visit#6,clinicalTrial#8))").unwrap();
        let set = vec![c("(/patient/visit, ↑)")];
        assert!(decide(&set, &j, &c("(/patient[/clinicalTrial]/visit, ↑)")));
    }

    #[test]
    fn paper_example_needs_instance() {
        // Same constraints but J now has a patient *without* clinicalTrial:
        // the visit could have been moved from under a clinicalTrial
        // patient to the plain one, so the goal is NOT implied.
        let j = parse_term("h(patient#2(visit#6,clinicalTrial#8),patient#3(visit#9))").unwrap();
        let set = vec![c("(/patient/visit, ↑)")];
        assert!(!decide(&set, &j, &c("(/patient[/clinicalTrial]/visit, ↑)")));
    }

    #[test]
    fn merge_required_counterexample() {
        // C = {(//b, ↑)} and J has a single b node: a counterexample to
        // (/a[/b[/x]][/b[/y]], ↑)… both pattern b's must merge onto the
        // single J b-node.
        let j = parse_term("r(a#1(b#2(x#3,y#4)))").unwrap();
        let set = vec![c("(//b, ↑)")];
        assert!(!decide(&set, &j, &c("(/a[/b[/x]][/b[/y]], ↑)")));
    }

    #[test]
    fn goal_with_descendants() {
        let j = parse_term("r(a#1(b#2(c#3)))").unwrap();
        let set = vec![c("(//c, ↑)")];
        // //a//c can lose a c node only if the c escapes //c — impossible
        // under (//c,↑) unless the c sits elsewhere in J. Here J's only c
        // is in //a//c(J)… but I could have had the c under a *different*
        // shape still matching //c in J. The c node must be in //c(J) ✓,
        // and //a//c(I) ∋ c requires an a ancestor; in J it has one, so
        // moving it kept //a//c. Not implied? The witness needs
        // c ∈ //a//c(I) \ //a//c(J): impossible since c ∈ //a//c(J).
        // A fresh c is forbidden by (//c,↑). So: implied.
        assert!(decide(&set, &j, &c("(//a//c, ↑)")));
        // Without the protecting constraint, not implied.
        assert!(!decide(&[], &j, &c("(//a//c, ↑)")));
    }

    #[test]
    fn injectivity_blocks_double_use() {
        // Two removed nodes would need the same J id — only one b exists,
        // but the goal needs only ONE witness, so this still refutes.
        // Conversely a single-b J cannot support removing a b that must
        // stay in //b: (//b,↑) with goal (//b,↑) is implied.
        let j = parse_term("r(b#1)").unwrap();
        let set = vec![c("(//b, ↑)")];
        assert!(decide(&set, &j, &c("(//b, ↑)")));
    }

    #[test]
    fn wildcard_goal() {
        let j = parse_term("r(a#1(b#2))").unwrap();
        let set = vec![c("(/a/*, ↑)")];
        assert!(decide(&set, &j, &c("(/a/*, ↑)")));
        // Under (id,label)-pair semantics the wildcard range pins both the
        // id and the label of every child of a, so /a/b is protected too.
        assert!(decide(&set, &j, &c("(/a/b, ↑)")));
        // An unprotected sibling label is not.
        assert!(!decide(&[], &j, &c("(/a/b, ↑)")));
    }
}
