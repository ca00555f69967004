//! The load-differential suite: the worker pool pinned to a sequential
//! reference arm under sustained, skewed load.
//!
//! [`Gateway::process`] relaxes only *temporal* ordering — which worker
//! drains which document, and how documents interleave in wall-clock
//! time. Everything observable must stay byte-identical to the reference
//! arm, a plain [`Gateway::submit`] loop in arrival order: verdict for
//! verdict by request id, committed trees render-identical, baseline
//! range results equal, certificates equal entry-for-entry and
//! cross-verifying. This suite drives seeded Zipfian streams (skew 0 and
//! 0.99) through 1, 2 and 8 workers.

use std::collections::BTreeSet;
use std::sync::Arc;
use xuc_core::{parse_constraint, Constraint, ConstraintKind};
use xuc_service::workload::seeded_zipf_requests;
use xuc_service::{render_log, DocId, Gateway, Telemetry, Verdict};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, NodeRef};

const KEY: u64 = 0x10AD;

/// Six documents: five wide all-linear ones (the shapes the splice
/// path admits edit-proportionally) and one mixed predicate document (whose suite forces the splice fallback — the degradation
/// path must stay differential too). Zipf order makes `wide0` hottest.
fn deployment() -> Vec<(DocId, DataTree, Vec<Constraint>)> {
    let wide_suite: Vec<Constraint> =
        xuc_workloads::queries::overlapping_prefix_suite(&["a", "b", "c"], 12, 3)
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                let kind =
                    if i % 2 == 0 { ConstraintKind::NoRemove } else { ConstraintKind::NoInsert };
                Constraint::new(q, kind)
            })
            .collect();
    assert!(wide_suite.iter().all(|c| c.range.is_linear()), "splice arms must be all-linear");
    let labels = ["a", "b", "c"];
    let mut docs: Vec<(DocId, DataTree, Vec<Constraint>)> = (0..5)
        .map(|d| {
            let mut tree = DataTree::new("root");
            let root = tree.root_id();
            for i in 0..(6 + d) {
                let mid = tree.add(root, labels[(i + d) % 3]).unwrap();
                for j in 0..4 {
                    tree.add(mid, labels[(i + j) % 3]).unwrap();
                }
            }
            (DocId::new(&format!("wide{d}")), tree, wide_suite.clone())
        })
        .collect();
    let mixed_tree = xuc_xtree::parse_term(
        "hospital#1(patient#2(visit#3,visit#4),patient#5(clinicalTrial#6),patient#7(visit#8))",
    )
    .unwrap();
    let mixed_suite = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap(),
        parse_constraint("(/patient, ↓)").unwrap(),
    ];
    docs.push((DocId::new("mixed"), mixed_tree, mixed_suite));
    docs
}

fn publish_into(gw: &Gateway, docs: &[(DocId, DataTree, Vec<Constraint>)]) {
    for (id, tree, suite) in docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
}

/// Both arms' final state must coincide: committed trees (exact child
/// order), baseline range results, certificates entry-for-entry — and
/// each arm's certificate must verify against the *other* arm's
/// snapshot.
fn assert_arms_converged(
    pooled: &Gateway,
    reference: &Gateway,
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    ctx: &str,
) {
    for (id, ..) in docs {
        let snap_t = pooled.snapshot(*id).unwrap();
        let snap_r = reference.snapshot(*id).unwrap();
        assert_eq!(snap_t.render(), snap_r.render(), "{ctx}: {id} trees diverged");
        let doc_t = pooled.store().document(*id).unwrap();
        let doc_r = reference.store().document(*id).unwrap();
        let base_t: Vec<BTreeSet<NodeRef>> = doc_t.lock().baseline().to_vec();
        let base_r: Vec<BTreeSet<NodeRef>> = doc_r.lock().baseline().to_vec();
        assert_eq!(base_t, base_r, "{ctx}: {id} baselines diverged");
        let cert_t = pooled.certificate(*id).unwrap();
        let cert_r = reference.certificate(*id).unwrap();
        assert_eq!(cert_t.entries.len(), cert_r.entries.len(), "{ctx}: {id} entry count");
        for (i, (et, er)) in cert_t.entries.iter().zip(&cert_r.entries).enumerate() {
            assert_eq!(et.constraint.to_string(), er.constraint.to_string(), "{ctx}: {id} #{i}");
            assert_eq!(et.snapshot, er.snapshot, "{ctx}: {id} entry {i} signed set");
            assert_eq!(et.tag, er.tag, "{ctx}: {id} entry {i} MAC");
        }
        assert!(cert_t.verify(KEY, &snap_r).is_ok(), "{ctx}: {id} cross-verify t→r");
        assert!(cert_r.verify(KEY, &snap_t).is_ok(), "{ctx}: {id} cross-verify r→t");
    }
}

/// The core load differential: seeded Zipfian streams at skew 0 and
/// 0.99, drained at 1, 2 and 8 workers, must reproduce the sequential
/// `submit` loop's accept/reject log byte-for-byte (position in the log
/// *is* the request id, so full equality subsumes order-insensitive
/// matching) and converge to identical internal state.
#[test]
fn process_is_differential_to_the_sequential_reference_arm() {
    for (seed, skew_centi) in
        [(0x10AD_0001u64, 0u32), (0x10AD_0002, 99), (0x10AD_0003, 99), (0x10AD_0004, 0)]
    {
        let docs = deployment();
        let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(d, t, _)| (*d, t)).collect();
        let requests = seeded_zipf_requests(&doc_refs, &["w"], seed, 220, skew_centi);

        let reference = Gateway::new(Signer::new(KEY));
        publish_into(&reference, &docs);
        let ref_verdicts: Vec<Verdict> = requests.iter().map(|r| reference.submit(r)).collect();
        let ref_log = render_log(&requests, &ref_verdicts);
        assert!(ref_log.contains("ACCEPT") && ref_log.contains("REJECT"));

        // Every pooled arm runs *instrumented*: telemetry must be
        // observationally inert under sustained load, and the
        // deterministic exposition must be byte-identical across worker
        // counts just like the verdict log it restates.
        let mut det_exposition: Option<String> = None;
        for workers in [1usize, 2, 8] {
            let ctx = format!("seed {seed:#x} skew {skew_centi} workers {workers}");
            let gw = Gateway::new(Signer::new(KEY));
            let tel = Arc::new(Telemetry::new());
            gw.attach_telemetry(Arc::clone(&tel));
            publish_into(&gw, &docs);
            let verdicts = gw.process(&requests, workers);
            assert_eq!(render_log(&requests, &verdicts), ref_log, "{ctx}: log diverged");
            assert_arms_converged(&gw, &reference, &docs, &ctx);
            gw.record_metrics();
            let det = tel.registry().snapshot().exposition_deterministic();
            match &det_exposition {
                None => det_exposition = Some(det),
                Some(first) => assert_eq!(&det, first, "{ctx}: deterministic exposition diverged"),
            }
        }
    }
}
