//! Acceptance properties of the gateway's transactional semantics.
//!
//! * **commit ≡ apply_all** — an accepted batch leaves the document in
//!   exactly the state [`xuc_xtree::apply_all`] produces, and a batch is
//!   accepted iff that state is pair-valid for the suite
//!   (Definition 2.3, judged by the independent
//!   [`xuc_core::constraint::all_satisfied`] oracle);
//! * **rollback restores the pristine tree** — rejected or abandoned
//!   batches leave the document canonical-form-identical (indeed
//!   render-identical: exact child order) to the committed state;
//! * **the evaluator is never stale** — after any mix of commits,
//!   rejections and rollbacks, the document's warm evaluator answers
//!   exactly like a freshly built one (and its staleness guard never
//!   fires);
//! * **worker-count determinism** — the accept/reject log of a seeded
//!   request stream is byte-identical at 1, 2 and 8 workers;
//! * **committed deletions free their slots** — no slot stays parked
//!   once a batch ends, so the served arena never outgrows the document's
//!   peak size, however many deletions it commits.

use proptest::prelude::*;
use xuc_core::constraint::all_satisfied;
use xuc_core::{parse_constraint, Constraint, ConstraintKind};
use xuc_service::workload::seeded_requests;
use xuc_service::{render_log, DocId, Gateway, RejectReason, Request, Session, Verdict};
use xuc_sigstore::Signer;
use xuc_xpath::Evaluator;
use xuc_xtree::{apply_all, DataTree, Label, NodeId, Update};

const LABELS: &[&str] = &["a", "b", "c", "w"];

/// A random tree over a small alphabet (same shape as xpath's prop.rs):
/// node `i ≥ 1` hangs under a random earlier node.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = DataTree> {
    (2..max_nodes).prop_flat_map(|n| {
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

/// Encoded update ops, decoded against the tree's *initial* id population
/// (like real request traffic, they may fail to apply after earlier
/// edits — the gateway must handle that deterministically too).
type EncodedOp = (usize, usize, usize, usize);

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<EncodedOp>> {
    proptest::collection::vec((0..5usize, 0..64usize, 0..64usize, 0..LABELS.len()), max_ops)
}

fn decode(ops: &[EncodedOp], ids: &[NodeId]) -> Vec<Update> {
    let n = ids.len();
    ops.iter()
        .map(|&(kind, a, b, l)| match kind {
            0 => Update::InsertLeaf {
                parent: ids[a % n],
                id: NodeId::fresh(),
                label: Label::new(LABELS[l]),
            },
            1 => Update::DeleteSubtree { node: ids[a % n] },
            2 => Update::DeleteNode { node: ids[a % n] },
            3 => Update::Move { node: ids[a % n], new_parent: ids[b % n] },
            _ => Update::Relabel { node: ids[a % n], label: Label::new(LABELS[l]) },
        })
        .collect()
}

/// The suite pool the properties draw from: unconstrained, small mixed,
/// predicate-heavy, and a wide linear batch whose compiled automaton is
/// what production admission rides.
fn suites() -> Vec<Vec<Constraint>> {
    let c = |s: &str| parse_constraint(s).unwrap();
    let wide: Vec<Constraint> = xuc_workloads::queries::overlapping_prefix_suite(LABELS, 18, 4)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let kind = if i % 2 == 0 { ConstraintKind::NoRemove } else { ConstraintKind::NoInsert };
            Constraint::new(q, kind)
        })
        .collect();
    vec![
        Vec::new(),
        vec![c("(/a, ↑)"), c("(//b, ↓)")],
        vec![c("(/a[/b], ↓)"), c("(//c, ↑)"), c("(/a/b, ↑)"), c("(/*[/c], ↓)")],
        wide,
    ]
}

/// The document's warm evaluator must agree with a freshly built one on
/// every suite range (plus a wildcard sweep) — i.e. the session protocol
/// left it fully synced, never stale.
fn assert_evaluator_synced(gw: &Gateway, id: DocId, suite: &[Constraint]) {
    let doc = gw.store().document(id).expect("published");
    let mut doc = doc.lock();
    let tree = doc.tree().clone();
    let mut fresh = Evaluator::new(&tree);
    let sweep = xuc_xpath::parse("//*").unwrap();
    for q in suite.iter().map(|c| &c.range).chain([&sweep]) {
        assert_eq!(doc.eval(q), fresh.eval(q), "warm evaluator out of sync on {q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// commit ≡ apply_all, judged per batch by the independent pair
    /// oracle, across a chain of batches against one document.
    #[test]
    fn commit_equals_apply_all(
        tree in tree_strategy(10),
        batches in proptest::collection::vec(ops_strategy(4), 3),
        suite_idx in 0..4usize,
    ) {
        let suite = suites()[suite_idx].clone();
        let gw = Gateway::new(Signer::new(0x5e55));
        let id = DocId::new("doc");
        gw.publish(id, tree.clone(), suite.clone()).unwrap();

        let ids = tree.node_ids();
        let mut committed = tree;
        let mut commits = 0u64;
        // Peak of live plus parked nodes: a batch's deletions park their
        // slots until it ends, so within a batch the footprint is the
        // committed size plus the batch's inserts.
        let mut peak = committed.len();
        for ops in &batches {
            let updates = decode(ops, &ids);
            let inserts = updates.iter().filter(|u| matches!(u, Update::InsertLeaf { .. })).count();
            peak = peak.max(committed.len() + inserts);
            let verdict = gw.submit(&Request { doc: id, updates: updates.clone() });
            match apply_all(&committed, &updates) {
                Err(_) => {
                    // Some update failed to apply: the gateway must have
                    // rejected at the same point and unwound the prefix.
                    prop_assert!(
                        matches!(&verdict, Verdict::Rejected(RejectReason::FailedUpdate { .. })),
                        "expected FailedUpdate, got {verdict:?}"
                    );
                }
                Ok(after) => {
                    let valid = all_satisfied(&suite, &committed, &after);
                    prop_assert_eq!(
                        verdict.is_accepted(),
                        valid,
                        "verdict {:?} disagrees with the pair oracle", &verdict
                    );
                    if valid {
                        commits += 1;
                        prop_assert_eq!(verdict, Verdict::Accepted { commit: commits });
                        committed = after;
                    } else {
                        prop_assert!(matches!(
                            &verdict,
                            Verdict::Rejected(RejectReason::Violation { .. })
                        ));
                    }
                }
            }
            // Accepted or not, the served state equals the model state,
            // and nothing is left parked in its arena.
            let served = gw.snapshot(id).unwrap();
            prop_assert_eq!(served.canonical_form(), committed.canonical_form());
            prop_assert_eq!(
                served.slot_capacity(),
                served.len() + served.free_slots(),
                "a finished batch left slots parked"
            );
            prop_assert!(
                served.slot_capacity() <= peak,
                "served arena capacity {} leaked past peak {}",
                served.slot_capacity(),
                peak
            );
        }
        assert_evaluator_synced(&gw, id, &suite);
    }

    /// rollback (explicit and via drop) restores the pristine tree —
    /// exact child order — and leaves the evaluator synced.
    #[test]
    fn rollback_restores_pristine_state(
        tree in tree_strategy(10),
        ops in ops_strategy(6),
        explicit in any::<bool>(),
        suite_idx in 0..4usize,
    ) {
        let suite = suites()[suite_idx].clone();
        let gw = Gateway::new(Signer::new(0x0123));
        let id = DocId::new("doc");
        gw.publish(id, tree.clone(), suite.clone()).unwrap();
        let updates = decode(&ops, &tree.node_ids());

        let doc = gw.store().document(id).unwrap();
        {
            let mut doc = doc.lock();
            let mut session = Session::begin(&mut doc);
            let mut applied = 0;
            for u in &updates {
                if session.apply(u).is_ok() {
                    applied += 1;
                }
            }
            prop_assert_eq!(session.applied(), applied);
            if explicit {
                session.rollback();
            } // else: drop rolls back
        }
        let doc_after = doc.lock();
        prop_assert_eq!(doc_after.tree().render(), tree.render(), "exact child order restored");
        prop_assert_eq!(doc_after.commits(), 0);
        drop(doc_after);
        assert_evaluator_synced(&gw, id, &suite);
        // The untouched certificate still covers the restored state.
        prop_assert!(gw.certificate(id).unwrap().verify(0x0123, &tree).is_ok());
    }
}

/// Builds the fixed three-document deployment the determinism tests
/// replay: a wide all-linear suite (compiled-path admission), a mixed
/// suite with predicate fallbacks, and a small suite.
fn determinism_fixture() -> (xuc_service::workload::Deployment, Vec<Request>) {
    let c = |s: &str| parse_constraint(s).unwrap();
    let mut docs = Vec::new();

    let mut wide_tree = DataTree::new("root");
    let root = wide_tree.root_id();
    for i in 0..6 {
        let mid = wide_tree.add(root, LABELS[i % 3]).unwrap();
        for j in 0..4 {
            wide_tree.add(mid, LABELS[(i + j) % LABELS.len()]).unwrap();
        }
    }
    let wide_suite: Vec<Constraint> =
        xuc_workloads::queries::overlapping_prefix_suite(LABELS, 20, 5)
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                let kind =
                    if i % 3 == 0 { ConstraintKind::NoInsert } else { ConstraintKind::NoRemove };
                Constraint::new(q, kind)
            })
            .collect();
    docs.push((DocId::new("wide"), wide_tree, wide_suite));

    let mixed_tree = xuc_xtree::parse_term(
        "hospital#1(patient#2(visit#3,visit#4),patient#5(clinicalTrial#6),patient#7(visit#8(report#9)))",
    )
    .unwrap();
    let mixed_suite = vec![
        c("(/patient/visit, ↑)"),
        c("(/patient[/clinicalTrial], ↓)"),
        c("(//report, ↑)"),
        c("(/patient, ↓)"),
    ];
    docs.push((DocId::new("mixed"), mixed_tree, mixed_suite));

    let small_tree = xuc_xtree::parse_term("r(a#20(b#21),c#22)").unwrap();
    docs.push((DocId::new("small"), small_tree, vec![c("(/a[/b], ↑)"), c("(//c, ↓)")]));

    let refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(id, t, _)| (*id, t)).collect();
    let requests = seeded_requests(&refs, &["w", "visit"], 0x00D1_5EA5, 240);
    (docs, requests)
}

fn run_at(
    docs: &xuc_service::workload::Deployment,
    requests: &[Request],
    workers: usize,
) -> String {
    let gw = Gateway::new(Signer::new(0xF16));
    for (id, tree, suite) in docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
    let verdicts = gw.process(requests, workers);
    // Re-certification happened on every accepted commit: each
    // document's final certificate must cover its final state.
    for (id, ..) in docs {
        let cert = gw.certificate(*id).unwrap();
        assert!(cert.verify(0xF16, &gw.snapshot(*id).unwrap()).is_ok(), "{id} cert stale");
    }
    render_log(requests, &verdicts)
}

/// The acceptance criterion: the accept/reject log of the seeded stream
/// is byte-identical at 1, 2 and 8 workers.
#[test]
fn logs_are_byte_identical_at_1_2_8_workers() {
    let (docs, requests) = determinism_fixture();
    let reference = run_at(&docs, &requests, 1);
    // The stream must actually exercise both outcomes and all documents.
    assert!(reference.contains("ACCEPT"), "stream produced no accepts:\n{reference}");
    assert!(reference.contains("REJECT"), "stream produced no rejects:\n{reference}");
    for (id, ..) in &docs {
        assert!(reference.contains(id.as_str()), "no traffic for {id}");
    }
    for workers in [2usize, 8] {
        let log = run_at(&docs, &requests, workers);
        assert_eq!(log, reference, "log diverged at {workers} workers");
    }
}

/// Replaying the same stream into an identical deployment yields the
/// same log even across gateway instances (nothing about a verdict
/// depends on ambient state).
#[test]
fn replay_across_instances_is_stable() {
    let (docs, requests) = determinism_fixture();
    assert_eq!(run_at(&docs, &requests, 4), run_at(&docs, &requests, 4));
}

/// End-to-end Figure 1 loop: an accepted stream leaves every document
/// verifiable by the User against the gateway's certificate, and a
/// tampered copy is caught.
#[test]
fn users_can_verify_served_documents() {
    let (docs, requests) = determinism_fixture();
    let gw = Gateway::new(Signer::new(0xBEEF));
    for (id, tree, suite) in &docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
    gw.process(&requests, 2);
    let id = DocId::new("mixed");
    let snap = gw.snapshot(id).unwrap();
    let cert = gw.certificate(id).unwrap();
    assert!(cert.verify(0xBEEF, &snap).is_ok());
    // A man-in-the-middle strips a protected visit: verification fails.
    let mut tampered = snap.clone();
    if let Some(visit) = xuc_xpath::eval(&xuc_xpath::parse("/patient/visit").unwrap(), &tampered)
        .iter()
        .next()
        .copied()
    {
        tampered.delete_subtree(visit.id).unwrap();
        assert!(cert.verify(0xBEEF, &tampered).is_err(), "tampering must be caught");
    }
}

/// Sends 1 000 accepted insert-then-delete commit pairs of one `note`
/// leaf through `Gateway::submit` and returns the served tree's arena
/// capacity. The document peaks at 5 nodes.
fn capacity_after_churn(delete: fn(NodeId) -> Update) -> usize {
    let gw = Gateway::new(Signer::new(0xC4A7));
    let id = DocId::new("churn");
    let tree = xuc_xtree::parse_term("root(p#1(a#2),p#3)").unwrap();
    gw.publish(id, tree, vec![parse_constraint("(//phone, ↓)").unwrap()]).unwrap();
    for _ in 0..1_000 {
        let note = NodeId::fresh();
        let insert =
            Update::InsertLeaf { parent: NodeId::from_raw(1), id: note, label: Label::new("note") };
        for u in [insert, delete(note)] {
            let verdict = gw.submit(&Request { doc: id, updates: vec![u] });
            assert!(verdict.is_accepted(), "{verdict:?}");
        }
    }
    let served = gw.snapshot(id).unwrap();
    assert_eq!(served.len(), 4);
    served.slot_capacity()
}

/// An accepted subtree deletion frees the slots it parked, so 1 000
/// insert/delete commits reuse one slot.
#[test]
fn committed_subtree_deletions_free_their_slots() {
    let capacity = capacity_after_churn(|node| Update::DeleteSubtree { node });
    assert!(capacity <= 5, "served arena grew to {capacity} slots");
}

/// The same for node deletions (`DeleteNode` splices the leaf out).
#[test]
fn committed_node_deletions_free_their_slots() {
    let capacity = capacity_after_churn(|node| Update::DeleteNode { node });
    assert!(capacity <= 5, "served arena grew to {capacity} slots");
}

#[test]
fn violation_verdicts_name_the_constraint_as_rendered() {
    // One constraint per label family, so each request below violates
    // exactly one; two are written with their predicates out of
    // canonical order, one with a `//` predicate, one with a wildcard.
    let suite: Vec<Constraint> = ["(//a, ↑)", "(/b[/d][/c], ↓)", "(/*/e, ↓)", "(//g[//h], ↑)"]
        .into_iter()
        .map(|s| parse_constraint(s).unwrap())
        .collect();
    let tree = xuc_xtree::parse_term("r(a#1,x#2,g#4(k#5(h#6)),b#7(c#8))").unwrap();
    let id = |raw| NodeId::from_raw(raw);
    let violations = [
        Update::DeleteSubtree { node: id(1) },
        Update::InsertLeaf { parent: id(7), id: NodeId::fresh(), label: Label::new("d") },
        Update::InsertLeaf { parent: id(2), id: NodeId::fresh(), label: Label::new("e") },
        Update::DeleteSubtree { node: id(6) },
    ];
    let doc = DocId::new("verdicts");
    let gw = Gateway::new(Signer::new(0x7E47));
    gw.publish(doc, tree, suite.clone()).unwrap();
    for (c, update) in suite.iter().zip(violations) {
        let verdict = gw.submit(&Request { doc, updates: vec![update] });
        let Verdict::Rejected(RejectReason::Violation { constraint, .. }) = verdict else {
            panic!("{c}: expected a violation, got {verdict}");
        };
        assert_eq!(constraint, c.to_string());
    }
    assert_eq!(gw.certificate(doc).unwrap().prev_digest, 0, "nothing was committed");
}
