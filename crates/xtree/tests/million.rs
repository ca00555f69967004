//! Million-node arena lane: the churn-leak regression and the iterative
//! traversals at headline document scale.
//!
//! `XUC_SMOKE` (and debug builds) scale the document down so the default
//! `cargo test` lane stays fast; CI runs this lane smoke-scaled in
//! release mode, and a plain `cargo test --release -p xuc-xtree` on a
//! developer machine exercises the full 10^6 nodes.

use xuc_xtree::DataTree;

/// Tiny deterministic LCG so the lane needs no dev-dependencies.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn scale() -> usize {
    let smoke = std::env::var("XUC_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if smoke || cfg!(debug_assertions) {
        60_000
    } else {
        1_000_000
    }
}

/// A hospital-shaped document of at least `n` nodes; returns the patient
/// ids so tests can churn realistic subtrees.
fn build(n: usize) -> (DataTree, Vec<xuc_xtree::NodeId>) {
    let mut rng = Lcg(0x5eed_e317);
    let mut t = DataTree::new("hospital");
    let root = t.root_id();
    let mut patients = Vec::new();
    while t.len() < n {
        let p = t.add(root, "patient").expect("fresh");
        patients.push(p);
        for _ in 0..rng.next() % 4 {
            let v = t.add(p, "visit").expect("fresh");
            if rng.next() % 10 < 3 {
                t.add(v, "report").expect("fresh");
            }
        }
        if rng.next() % 10 < 2 {
            t.add(p, "phone").expect("fresh");
        }
    }
    (t, patients)
}

/// The headline regression: a document at full scale survives sustained
/// insert+delete churn and a bulk delete/reinsert wave without its slot
/// capacity ever exceeding the peak live count.
#[test]
fn million_node_churn_keeps_capacity_bounded() {
    let n = scale();
    let (mut t, patients) = build(n);
    assert!(t.len() >= n);
    assert_eq!(t.slot_capacity(), t.len(), "a freshly built arena is dense");

    assert_eq!(t.for_each_preorder(t.root_id(), |_, _, _| {}), Ok(t.len()));

    // 10k cycles of a 4-node patient subtree: the free list must hand the
    // same four slots back every cycle.
    let peak = t.len() + 4;
    let root = t.root_id();
    for _ in 0..10_000 {
        let p = t.add(root, "patient").unwrap();
        let v = t.add(p, "visit").unwrap();
        t.add(v, "report").unwrap();
        t.add(p, "phone").unwrap();
        t.delete_subtree(p).unwrap();
    }
    assert!(
        t.slot_capacity() <= peak,
        "churn leaked slots: capacity {} exceeds peak live {}",
        t.slot_capacity(),
        peak
    );

    // Bulk wave: drop half the patients, refill the same node mass; every
    // insert must come off the free list.
    let cap_before = t.slot_capacity();
    let live_before = t.len();
    for &p in &patients[..patients.len() / 2] {
        t.delete_subtree(p).unwrap();
    }
    let deleted = live_before - t.len();
    assert!(t.free_slots() >= deleted);
    for _ in 0..deleted {
        t.add(root, "note").unwrap();
    }
    assert_eq!(t.len(), live_before);
    assert!(
        t.slot_capacity() <= cap_before,
        "bulk delete + reinsert must reuse free-listed slots, not allocate"
    );

    // The pre-order walk still visits exactly the live nodes, root first.
    let mut first = None;
    let visited = t.for_each_preorder(t.root_id(), |id, _, _| {
        first.get_or_insert(id);
    });
    assert_eq!(visited, Ok(t.len()));
    assert_eq!(first, Some(t.root_id()));
}

/// Traversals stay iterative at pathological depth: a chain half the
/// document scale deep would overflow any recursive walk's stack.
#[test]
fn deep_chain_traversals_scale() {
    let depth = scale() / 2;
    let mut t = DataTree::new("d");
    let mut cur = t.root_id();
    for _ in 1..depth {
        cur = t.add(cur, "d").unwrap();
    }
    assert_eq!(t.len(), depth);
    assert_eq!(t.height(), depth - 1);
    let snap = t.preorder_snapshot();
    assert_eq!(snap.len(), depth);
    assert_eq!(snap.last().unwrap().2, Some(depth - 2));

    let first = t.children(t.root_id()).unwrap()[0];
    t.delete_subtree(first).unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.free_slots(), depth - 1);
}
