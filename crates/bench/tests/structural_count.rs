//! Operation count of structural commits (the amrPOD counting method:
//! count the work, assert no timing).
//!
//! On the 100k-node E-DLT document, one accepted leaf insert, one
//! accepted subtree delete and one rejected structural batch, each
//! submitted through `Gateway::submit`, must make no pre-order walk and
//! no full `eval_set` sweep: the evaluator re-reads only the scope root's
//! subtree (old plus new), and admission splices below it. The engine
//! counters are process-wide, so this file holds this one test.

use std::sync::Arc;
use xuc_service::{DocId, Gateway, Request, Verdict};
use xuc_sigstore::Signer;
use xuc_telemetry::Telemetry;
use xuc_xtree::{Label, NodeId, Update};

#[test]
fn structural_commits_and_rejects_walk_nothing() {
    let (tree, suite) = xuc_bench::edlt_workload(100_000, 12);
    // A patient with visits: its subtree is every scope root below.
    let patient = tree
        .children(tree.root_id())
        .expect("root")
        .into_iter()
        .find(|&p| tree.children(p).expect("live").len() >= 2)
        .expect("some patient has two children");
    let size = tree.subtree_nodes(patient).expect("live").len() as u64;

    let doc = DocId::new("edlt");
    let gw = Gateway::new(Signer::new(0x57C));
    let tel = Arc::new(Telemetry::new());
    gw.attach_telemetry(Arc::clone(&tel));
    gw.publish(doc, tree, suite).expect("fresh gateway");

    let note = NodeId::fresh();
    let insert =
        |id, label: &str| Update::InsertLeaf { parent: patient, id, label: Label::new(label) };
    // (request, accepted?, bound on nodes re-read: old + new subtree of
    // the scope root for every apply and every undo)
    let cases = [
        (vec![insert(note, "note")], true, 2 * size + 1),
        (vec![Update::DeleteSubtree { node: note }], true, 2 * size + 1),
        // `(//phone, ↓)` refuses the phone; both inserts unwind.
        (
            vec![insert(NodeId::fresh(), "note"), insert(NodeId::fresh(), "phone")],
            false,
            8 * size + 8,
        ),
    ];
    for (updates, accept, bound) in cases {
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
        assert!(e.refresh_nodes_read > 0, "{what}: the scope was re-read");
        assert!(
            e.refresh_nodes_read <= bound,
            "{what}: re-read {} nodes, bound {bound} (patient subtree {size})",
            e.refresh_nodes_read
        );
    }

    // The gateway scrapes its own share of the counter as deterministic.
    let snap = tel.registry().snapshot();
    let read = snap.counter("xuc_engine_refresh_nodes_read_total").expect("registered");
    assert!(read > 0 && read <= 12 * size + 10, "gateway counted {read}");
    assert!(snap.exposition_deterministic().contains(&format!(
        "xuc_engine_refresh_nodes_read_total{{class=\"deterministic\"}} {read}"
    )));
}
