//! Incremental certification ≡ from-scratch certification.
//!
//! A gateway keeps each document's certificate as a header — per-set
//! additive sums and tags plus the chain fields — and re-chains it at
//! every commit from the splice journal (or, on the full-pass path, by
//! re-hashing the replaced sets). Random relabel/insert/delete/move
//! batches, accepted and rejected, run against an all-linear suite (every
//! commit splices) and a suite with a predicate range (every commit takes
//! the full pass). After every step the served certificate must equal
//! `Signer::certify_chained` over the document's baselines, field for
//! field; the header must digest like the certificate; and tampering with
//! a signed set or swapping two tags must fail verification.
//!
//! The header hashes constraint text it rendered once, when the document
//! was published; the from-scratch side renders afresh. The suites hold
//! the shapes where rendering does more than copy the source: predicates
//! written out of canonical order (and the same pair in order), a `//`
//! predicate and wildcard steps.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xuc_core::{parse_constraint, Constraint};
use xuc_service::workload::SplitMix;
use xuc_service::{DocId, Gateway, Request};
use xuc_sigstore::{Certificate, Signer, VerifyError};
use xuc_xpath::Evaluator;
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

const KEY: u64 = 0x1AC2;
const LABELS: &[&str] = &["patient", "visit", "note", "phone", "clinicalTrial"];

fn suite(predicate: bool) -> Vec<Constraint> {
    let mut ranges = vec![
        "(/patient/visit, ↑)",
        "(//visit, ↑)",
        "(//phone, ↓)",
        "(/patient, ↓)",
        "(//note, ↑)",
        "(//*/clinicalTrial, ↑)",
    ];
    if predicate {
        ranges.extend([
            "(/patient[/clinicalTrial], ↓)",
            "(/patient[/visit][/clinicalTrial], ↓)",
            "(/patient[/clinicalTrial][/visit], ↓)",
            "(/patient[//note], ↑)",
            "(/*[/phone], ↑)",
        ]);
    }
    ranges.into_iter().map(|s| parse_constraint(s).unwrap()).collect()
}

fn document(rng: &mut SplitMix) -> DataTree {
    let mut t = xuc_xtree::parse_term("hospital").unwrap();
    for _ in 0..3 + rng.below(3) {
        let p = t.add(t.root_id(), "patient").unwrap();
        for _ in 0..rng.below(4) {
            let child = t.add(p, LABELS[1 + rng.below(LABELS.len() - 1)]).unwrap();
            if rng.below(2) == 0 {
                t.add(child, LABELS[1 + rng.below(3)]).unwrap();
            }
        }
    }
    t
}

/// One random update against the current tree (some fail: moving a node
/// below itself, deleting or moving the root).
fn update(rng: &mut SplitMix, tree: &DataTree) -> Update {
    let ids = tree.node_ids();
    let pick = |rng: &mut SplitMix| ids[rng.below(ids.len())];
    let label = |rng: &mut SplitMix| Label::new(LABELS[rng.below(LABELS.len())]);
    match rng.below(4) {
        0 => Update::Relabel { node: pick(rng), label: label(rng) },
        1 => Update::InsertLeaf { parent: pick(rng), id: NodeId::fresh(), label: label(rng) },
        2 => Update::DeleteSubtree { node: pick(rng) },
        _ => Update::Move { node: pick(rng), new_parent: pick(rng) },
    }
}

/// Every tamper the verifier must catch on `cert`, where `cert` is big
/// enough to host it.
fn assert_tampers_fail(cert: &Certificate, tree: &DataTree) {
    let Some(full) = cert.entries.iter().position(|e| !e.snapshot.is_empty()) else { return };
    let forge = |f: &dyn Fn(&mut BTreeSet<NodeRef>)| {
        let mut forged = cert.clone();
        f(&mut forged.entries[full].snapshot);
        forged.verify(KEY, tree)
    };
    let some = *cert.entries[full].snapshot.iter().next().unwrap();
    let signature = Err(VerifyError::BadSignature { index: full });
    let stranger = NodeRef { id: NodeId::from_raw(u64::MAX >> 1), label: Label::new("visit") };
    assert_eq!(
        forge(&|s| {
            s.insert(stranger);
        }),
        signature,
        "entry inserted"
    );
    assert_eq!(
        forge(&|s| {
            s.remove(&some);
        }),
        signature,
        "entry removed"
    );
    let renamed = Label::new(if some.label.as_str() == "note" { "phone" } else { "note" });
    assert_eq!(
        forge(&|s| {
            s.remove(&some);
            s.insert(NodeRef { id: some.id, label: renamed });
        }),
        signature,
        "entry relabelled"
    );
    let tags: Vec<u64> = cert.entries.iter().map(|e| e.tag).collect();
    if let Some(j) = tags.iter().position(|&t| t != tags[0]) {
        let mut swapped = cert.clone();
        swapped.entries[0].tag = tags[j];
        swapped.entries[j].tag = tags[0];
        assert!(
            matches!(
                swapped.verify(KEY, tree),
                Err(VerifyError::BadChainTag | VerifyError::BadSignature { .. })
            ),
            "swapped tags verified"
        );
    }
}

fn run(seed: usize, predicate: bool, steps: usize) {
    let mut rng = SplitMix::new(seed as u64 ^ 0x1AC2_0000);
    let signer = Signer::new(KEY);
    let suite = suite(predicate);
    let doc = DocId::new("prop");
    let gw = Gateway::new(signer);
    gw.publish(doc, document(&mut rng), suite.clone()).unwrap();
    let mut expected = gw.certificate(doc).unwrap();
    let (mut accepted, mut rejected) = (0, 0);
    let splices = xuc_xpath::engine_counters().splice_commits;
    for step in 0..steps {
        let tree = gw.snapshot(doc).unwrap();
        let updates = (0..1 + rng.below(3)).map(|_| update(&mut rng, &tree)).collect();
        let verdict = gw.submit(&Request { doc, updates });

        let tree = gw.snapshot(doc).unwrap();
        let arc = gw.store().document(doc).unwrap();
        let d = arc.lock();
        let mut ev = Evaluator::new(&tree);
        let fresh: Vec<_> = suite.iter().map(|c| ev.eval(&c.range)).collect();
        assert_eq!(d.baseline(), &fresh[..], "seed {seed} step {step}: baselines drifted");
        if verdict.is_accepted() {
            accepted += 1;
            expected = signer.certify_chained(&suite, &fresh, expected.digest());
        } else {
            rejected += 1;
        }
        let served = d.certificate();
        assert_eq!(served, expected, "seed {seed} step {step}: certificate ≠ from-scratch");
        assert_eq!(d.certificate_header().digest(), served.digest(), "seed {seed} step {step}");
        assert!(served.verify_chained(KEY, &tree, served.prev_digest).is_ok());
        assert_tampers_fail(&served, &tree);
    }
    assert!(accepted > 0 && rejected > 0, "seed {seed}: {accepted} accepted, {rejected} rejected");
    if !predicate {
        // The linear arm really folds splice journals (the counter is
        // process-wide, but the predicate arm never splices).
        assert!(xuc_xpath::engine_counters().splice_commits > splices, "seed {seed}: no splice");
    }
}

#[test]
fn header_text_is_the_rendered_constraint() {
    let suite = suite(true);
    let gw = Gateway::new(Signer::new(KEY));
    let doc = DocId::new("text");
    gw.publish(doc, document(&mut SplitMix::new(7)), suite.clone()).unwrap();
    let arc = gw.store().document(doc).unwrap();
    let d = arc.lock();
    let entries = &d.certificate_header().entries;
    for (c, e) in suite.iter().zip(entries) {
        assert_eq!(e.text(), c.to_string());
        assert_eq!(e.constraint(), c);
    }
    // Two predicate orders, one canonical text.
    let text = |i: usize| entries[i].text();
    let pair = suite.iter().position(|c| c.to_string().contains("][")).unwrap();
    assert_eq!(text(pair), text(pair + 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spliced_commits_certify_like_from_scratch(seed in 0..1_000_000usize) {
        run(seed, false, 40);
    }

    #[test]
    fn full_pass_commits_certify_like_from_scratch(seed in 0..1_000_000usize) {
        run(seed, true, 40);
    }
}
