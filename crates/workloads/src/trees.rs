//! Data-tree workloads: the paper's running documents and random trees.

use rand::Rng;
use xuc_core::Constraint;
use xuc_xtree::{DataTree, Label, NodeId};

/// The Figure 2 pair of instances `(I, J)` of Example 2.1 — `J` deletes
/// visit `n7` and adds a fresh patient.
pub fn fig2_pair() -> (DataTree, DataTree) {
    let i =
        xuc_xtree::parse_term("hospital#1(patient#2(visit#6,visit#7),patient#3(clinicalTrial#8))")
            .expect("static term");
    let j = xuc_xtree::parse_term(
        "hospital#1(patient#2(visit#6),patient#3(clinicalTrial#8),patient#4)",
    )
    .expect("static term");
    (i, j)
}

/// Example 2.1's constraints `{c1, c2, c3}`.
pub fn example_2_1_constraints() -> Vec<Constraint> {
    let mut out = vec![xuc_core::parse_constraint("(/patient[/visit], ↓)").expect("static")];
    out.extend(Constraint::immutable(
        xuc_xpath::parse("/patient[/clinicalTrial]").expect("static"),
    ));
    out.push(xuc_core::parse_constraint("(/patient/visit, ↑)").expect("static"));
    out
}

/// Example 4.1's mixed-type linear constraint set and implied goal.
pub fn example_4_1() -> (Vec<Constraint>, Constraint) {
    let set =
        ["(//a//c, ↑)", "(//b//c, ↑)", "(//a//b//c, ↓)", "(//a//b//a//c, ↑)", "(//b//a//b//c, ↑)"]
            .iter()
            .map(|s| xuc_core::parse_constraint(s).expect("static"))
            .collect();
    let goal = xuc_core::parse_constraint("(//b//a//c, ↑)").expect("static");
    (set, goal)
}

/// A synthetic hospital document: `patients` patients, each with up to
/// `max_visits` visits and a clinical-trial marker with probability 0.5.
pub fn hospital(rng: &mut impl Rng, patients: usize, max_visits: usize) -> DataTree {
    let mut t = DataTree::new("hospital");
    let root = t.root_id();
    for _ in 0..patients {
        let p = t.add(root, "patient").expect("fresh");
        for _ in 0..rng.random_range(0..=max_visits) {
            let v = t.add(p, "visit").expect("fresh");
            if rng.random_bool(0.3) {
                t.add(v, "report").expect("fresh");
            }
        }
        if rng.random_bool(0.5) {
            t.add(p, "clinicalTrial").expect("fresh");
        }
        if rng.random_bool(0.2) {
            t.add(p, "phone").expect("fresh");
        }
    }
    t
}

/// A synthetic hospital document grown to **at least** `target_nodes`
/// nodes (stopping at the first patient that crosses the target, so the
/// overshoot is a handful of nodes). This is the large-document generator
/// of the E-DLT delta-admission experiment: 10k/100k-node instances of
/// the same patient/visit/report/clinicalTrial/phone shape as
/// [`hospital`], where a small update batch touches a vanishing fraction
/// of the document.
pub fn hospital_sized(rng: &mut impl Rng, target_nodes: usize) -> DataTree {
    let mut t = DataTree::new("hospital");
    let root = t.root_id();
    while t.len() < target_nodes {
        let p = t.add(root, "patient").expect("fresh");
        for _ in 0..rng.random_range(0..=3) {
            let v = t.add(p, "visit").expect("fresh");
            if rng.random_bool(0.3) {
                t.add(v, "report").expect("fresh");
            }
        }
        if rng.random_bool(0.5) {
            t.add(p, "clinicalTrial").expect("fresh");
        }
        if rng.random_bool(0.2) {
            t.add(p, "phone").expect("fresh");
        }
    }
    t
}

/// Small, **localized** update batches against a [`hospital_sized`]
/// document for the E-DLT experiment: every update's edit scope stays a
/// small subtree deep in the document (never the hospital root), so delta
/// admission has something proportional to splice.
///
/// * `mixed = false` — pure relabels: `phone` leaves cycle to the
///   unprotected label `note` (within one batch every target is
///   distinct). Admission under the E-DLT suite accepts these, and the
///   whole apply→admit→commit path does **zero** pre-order walks.
/// * `mixed = true` — one third relabels, one third `note` leaf inserts
///   under patients (fresh ids minted here, so batches replay
///   deterministically), one third deletions of `phone` leaves. Every
///   dirty scope is a patient-sized subtree.
///
/// Batches are generated against `tree`'s **initial** population and are
/// meant to be applied one at a time (apply → measure → undo), sharing
/// targets across batches but never within one.
pub fn delta_batches(
    rng: &mut impl Rng,
    tree: &DataTree,
    batches: usize,
    size: usize,
    mixed: bool,
) -> Vec<Vec<xuc_xtree::Update>> {
    use xuc_xtree::Update;
    fn pick_distinct(
        rng: &mut impl Rng,
        pool: &[NodeId],
        used: &mut std::collections::HashSet<NodeId>,
    ) -> NodeId {
        loop {
            let id = pool[rng.random_range(0..pool.len())];
            if used.insert(id) {
                return id;
            }
        }
    }
    let by_label = |want: &str| -> Vec<NodeId> {
        tree.nodes().iter().filter(|n| n.label == Label::new(want)).map(|n| n.id).collect()
    };
    let phones = by_label("phone");
    let patients = by_label("patient");
    assert!(phones.len() > 2 * size, "document too small for {size}-update batches");
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut used = std::collections::HashSet::new();
        let mut batch = Vec::with_capacity(size);
        for i in 0..size {
            batch.push(if !mixed || i % 3 == 0 {
                Update::Relabel {
                    node: pick_distinct(rng, &phones, &mut used),
                    label: Label::new("note"),
                }
            } else if i % 3 == 1 {
                Update::InsertLeaf {
                    parent: patients[rng.random_range(0..patients.len())],
                    id: NodeId::fresh(),
                    label: Label::new("note"),
                }
            } else {
                Update::DeleteSubtree { node: pick_distinct(rng, &phones, &mut used) }
            });
        }
        out.push(batch);
    }
    out
}

/// A uniformly random tree with `n` non-root nodes over the label pool.
pub fn random_tree(rng: &mut impl Rng, labels: &[&str], n: usize) -> DataTree {
    let mut tree = DataTree::new("root");
    let mut ids: Vec<NodeId> = vec![tree.root_id()];
    for _ in 0..n {
        let parent = ids[rng.random_range(0..ids.len())];
        let label = Label::new(labels[rng.random_range(0..labels.len())]);
        ids.push(tree.add(parent, label).expect("fresh"));
    }
    tree
}

/// A random "bushy" tree of bounded depth (more realistic XML shape).
pub fn random_document(
    rng: &mut impl Rng,
    labels: &[&str],
    n: usize,
    max_depth: usize,
) -> DataTree {
    let mut tree = DataTree::new("root");
    let mut frontier: Vec<(NodeId, usize)> = vec![(tree.root_id(), 0)];
    for _ in 0..n {
        let idx = rng.random_range(0..frontier.len());
        let (parent, depth) = frontier[idx];
        let label = Label::new(labels[rng.random_range(0..labels.len())]);
        let id = tree.add(parent, label).expect("fresh");
        if depth + 1 < max_depth {
            frontier.push((id, depth + 1));
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::constraint;

    #[test]
    fn fig2_matches_example_2_1() {
        let (i, j) = fig2_pair();
        let cs = example_2_1_constraints();
        // c1 and c2 hold; c3 (the last) is violated.
        assert!(cs[0].satisfied_by(&i, &j));
        assert!(cs[1].satisfied_by(&i, &j));
        assert!(cs[2].satisfied_by(&i, &j));
        assert!(!cs[3].satisfied_by(&i, &j));
        assert_eq!(constraint::violations(&cs, &i, &j).len(), 1);
    }

    #[test]
    fn example_4_1_wellformed() {
        let (set, goal) = example_4_1();
        assert_eq!(set.len(), 5);
        assert!(set.iter().all(|c| c.range.is_linear()));
        assert!(goal.range.is_linear());
    }

    #[test]
    fn hospital_sizes() {
        let mut rng = rand::rng();
        let t = hospital(&mut rng, 50, 4);
        assert!(t.len() > 50);
        let q = xuc_xpath::parse("/patient").unwrap();
        assert_eq!(xuc_xpath::eval::eval(&q, &t).len(), 50);
    }

    #[test]
    fn hospital_sized_hits_target_and_batches_stay_local() {
        let mut rng = rand::rng();
        let t = hospital_sized(&mut rng, 2_000);
        assert!(t.len() >= 2_000 && t.len() < 2_010, "n = {}", t.len());
        for mixed in [false, true] {
            let batches = delta_batches(&mut rng, &t, 3, 8, mixed);
            assert_eq!(batches.len(), 3);
            for batch in &batches {
                assert_eq!(batch.len(), 8);
                // Valid against the initial tree, and every structural
                // scope names the leaf it inserted or deleted: a subtree
                // below a patient, never the hospital root.
                let mut work = t.clone();
                for u in batch {
                    use xuc_xtree::{EditScope, Update};
                    if let Update::DeleteSubtree { node } = u {
                        assert_eq!(work.depth(*node).unwrap(), 2, "{u} is below a patient");
                    }
                    let (_tok, scope) = xuc_xtree::apply_undoable(&mut work, u).unwrap();
                    match (u, scope) {
                        (Update::InsertLeaf { id, .. }, EditScope::Attached { node }) => {
                            assert_eq!(node, *id, "{u}");
                            assert_eq!(work.depth(node).unwrap(), 2, "{u} is below a patient");
                        }
                        (Update::DeleteSubtree { node: id }, EditScope::Detached { node }) => {
                            assert_eq!(node, *id, "{u}");
                        }
                        (Update::Relabel { .. }, EditScope::Relabel { .. }) => {}
                        (u, scope) => panic!("{u} reported {scope:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn random_trees_sized() {
        let mut rng = rand::rng();
        let t = random_tree(&mut rng, &["a", "b"], 30);
        assert_eq!(t.len(), 31);
        let d = random_document(&mut rng, &["a", "b", "c"], 40, 4);
        assert_eq!(d.len(), 41);
        assert!(d.height() <= 4);
    }
}
