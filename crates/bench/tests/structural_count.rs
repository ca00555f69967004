//! Operation count of structural commits (the amrPOD counting method:
//! count the work, assert no timing).
//!
//! On the 100k-node E-DLT document, publishing makes no pre-order walk:
//! the gateway's evaluator takes the document's tree over instead of
//! copying it. Structural commits and rejects submitted through
//! `Gateway::submit` — leaf inserts and deletes below a patient, and the
//! root-level shapes: an insert under the root, a cross-patient move, a
//! patient splice (`DeleteNode`), a patient delete and a refused `phone`
//! under the root — must each make no pre-order walk and no full
//! `eval_set` sweep: the document's one arena is edited in place and
//! admission splices below the subtrees the scopes name, never the
//! root's fan-out. The engine counters are process-wide, so this file
//! holds this one test.

use xuc_service::{DocId, Gateway, Request, Verdict};
use xuc_sigstore::Signer;
use xuc_xtree::{Label, NodeId, Update};

#[test]
fn structural_commits_and_rejects_walk_nothing() {
    let (tree, suite) = xuc_bench::edlt_workload(100_000, 12);
    let root = tree.root_id();
    let label = |id| tree.label(id).expect("live");
    let kids = |id| tree.children(id).expect("live");
    let patients = kids(root);
    // A patient with two visits: the leaf edits below happen under it.
    let patient = *patients
        .iter()
        .find(|&&p| kids(p).iter().filter(|&&c| label(c) == Label::new("visit")).count() >= 2)
        .expect("some patient has two visits");
    let visit = kids(patient)[0];
    // Another patient to move the visit to, one without visits but with
    // a child to splice out (its children re-root under the hospital),
    // and one with visits to delete (refused by `(/patient/visit, ↑)`).
    let no_visits = *patients
        .iter()
        .find(|&&p| {
            let c = kids(p);
            !c.is_empty() && c.iter().all(|&c| label(c) == Label::new("clinicalTrial"))
        })
        .expect("some patient holds only a clinical-trial marker");
    let other = *patients.iter().find(|&&p| p != patient && p != no_visits).expect("patients");
    let with_visits = *patients
        .iter()
        .rev()
        .find(|&&p| {
            p != patient && p != other && kids(p).iter().any(|&c| label(c) == Label::new("visit"))
        })
        .expect("some patient has a visit");

    let doc = DocId::new("edlt");
    let gw = Gateway::new(Signer::new(0x57C));
    let walks = xuc_xtree::preorder_walk_count();
    gw.publish(doc, tree, suite).expect("fresh gateway");
    assert_eq!(xuc_xtree::preorder_walk_count() - walks, 0, "publish copies nothing");

    let note = NodeId::fresh();
    let insert =
        |parent, id, label: &str| Update::InsertLeaf { parent, id, label: Label::new(label) };
    // (request, accepted?)
    let cases = [
        (vec![insert(patient, note, "note")], true),
        (vec![Update::DeleteSubtree { node: note }], true),
        // `(//phone, ↓)` refuses the phone; both inserts unwind.
        (
            vec![
                insert(patient, NodeId::fresh(), "note"),
                insert(patient, NodeId::fresh(), "phone"),
            ],
            false,
        ),
        // Root-level shapes: each names a patient-sized subtree at most.
        (vec![insert(root, NodeId::fresh(), "note")], true),
        (vec![Update::Move { node: visit, new_parent: other }], true),
        (vec![Update::DeleteNode { node: no_visits }], true),
        (vec![Update::DeleteSubtree { node: with_visits }], false),
        (vec![insert(root, NodeId::fresh(), "phone")], false),
    ];
    for (updates, accept) in cases {
        let what = format!("{updates:?}");
        let walks = xuc_xtree::preorder_walk_count();
        let engine = xuc_xpath::engine_counters();
        let verdict = gw.submit(&Request { doc, updates });
        let e = xuc_xpath::engine_counters().since(&engine);
        assert_eq!(verdict.is_accepted(), accept, "{what}: {verdict:?}");
        if !accept {
            assert!(matches!(verdict, Verdict::Rejected(_)), "{what}: {verdict:?}");
        }
        assert_eq!(xuc_xtree::preorder_walk_count() - walks, 0, "{what}: no pre-order walk");
        assert_eq!(e.eval_set_sweeps, 0, "{what}: no full sweep");
        assert_eq!(e.splice_commits, 1, "{what}: admission spliced");
    }
}
