//! The differential fuzz harness pinning delta admission to full-pass
//! admission.
//!
//! Two gateways are published from identical deployments — one on
//! [`AdmissionMode::Delta`] (edit-proportional splice commit validation),
//! one on [`AdmissionMode::FullPass`] (the pre-delta full `eval_set`
//! admission) — and driven with byte-identical seeded session streams
//! mixing relabels, id swaps (including duplicate-id and id-recycling
//! traffic), structural edits, commits, explicit rollbacks and malformed
//! updates. After every step the two arms must agree **observably and
//! internally**: verdict for verdict, committed trees render-identical,
//! baseline range-result sets equal, certificates equal entry-for-entry
//! and verifying identically — and the delta gateway's accept/reject log
//! must stay byte-identical at 1, 2 and 8 workers (and to the full-pass
//! log).

use std::collections::{BTreeSet, HashMap};
use xuc_core::{parse_constraint, Constraint, ConstraintKind};
use xuc_service::workload::SplitMix;
use xuc_service::{
    render_log, AdmissionMode, DocId, DurableOptions, Gateway, Request, Session, Verdict,
    WriteFault,
};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

const LABELS: &[&str] = &["a", "b", "c", "visit", "w"];

/// One random update against a document's initial id population, plus a
/// small **reserved id pool** shared by inserts and id swaps — so streams
/// recycle ids across requests (delete then re-insert, swap away then swap
/// back), and regularly produce duplicate-id and dead-node rejections.
fn random_update(rng: &mut SplitMix, ids: &[NodeId], reserved: &[NodeId]) -> Update {
    let pick = |rng: &mut SplitMix, pool: &[NodeId]| pool[rng.below(pool.len())];
    match rng.below(8) {
        0 | 1 => Update::Relabel {
            node: pick(rng, ids),
            label: Label::new(LABELS[rng.below(LABELS.len())]),
        },
        2 => Update::ReplaceId { node: pick(rng, ids), new_id: pick(rng, reserved) },
        // Swaps among the reserved pool chain/cancel and collide.
        3 => Update::ReplaceId { node: pick(rng, reserved), new_id: pick(rng, reserved) },
        4 => Update::InsertLeaf {
            parent: pick(rng, ids),
            id: if rng.below(2) == 0 { NodeId::fresh() } else { pick(rng, reserved) },
            label: Label::new(LABELS[rng.below(LABELS.len())]),
        },
        5 => Update::DeleteSubtree { node: pick(rng, ids) },
        6 => Update::DeleteNode { node: pick(rng, ids) },
        _ => Update::Move { node: pick(rng, ids), new_parent: pick(rng, ids) },
    }
}

/// The fixed two-document deployment: a wide **all-linear** suite (the
/// genuine splice path) and a mixed suite with predicate fallbacks (the
/// degradation path).
fn deployment() -> Vec<(DocId, DataTree, Vec<Constraint>)> {
    let c = |s: &str| parse_constraint(s).unwrap();
    let mut wide_tree = DataTree::new("root");
    let root = wide_tree.root_id();
    for i in 0..8 {
        let mid = wide_tree.add(root, LABELS[i % 3]).unwrap();
        for j in 0..5 {
            let leaf = wide_tree.add(mid, LABELS[(i + j) % LABELS.len()]).unwrap();
            if (i + j) % 3 == 0 {
                wide_tree.add(leaf, LABELS[j % 3]).unwrap();
            }
        }
    }
    let wide_suite: Vec<Constraint> =
        xuc_workloads::queries::overlapping_prefix_suite(&["a", "b", "c"], 20, 4)
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                let kind =
                    if i % 2 == 0 { ConstraintKind::NoRemove } else { ConstraintKind::NoInsert };
                Constraint::new(q, kind)
            })
            .collect();
    assert!(wide_suite.iter().all(|x| x.range.is_linear()), "splice arm must be all-linear");

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
    vec![
        (DocId::new("wide"), wide_tree, wide_suite),
        (DocId::new("mixed"), mixed_tree, mixed_suite),
    ]
}

/// A seeded stream of requests over the deployment. Fresh insert ids are
/// minted at generation time, so replaying the same stream into both arms
/// (and at every worker count) presents byte-identical inputs.
fn seeded_stream(
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    seed: u64,
    count: usize,
) -> Vec<Request> {
    let reserved: Vec<NodeId> = (0..6).map(|i| NodeId::from_raw(9_000 + seed % 7 + i)).collect();
    let pools: Vec<(DocId, Vec<NodeId>)> =
        docs.iter().map(|(id, tree, _)| (*id, tree.node_ids())).collect();
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|_| {
            let (doc, ids) = &pools[rng.below(pools.len())];
            let updates =
                (0..1 + rng.below(4)).map(|_| random_update(&mut rng, ids, &reserved)).collect();
            Request { doc: *doc, updates }
        })
        .collect()
}

fn publish_into(gw: &Gateway, docs: &[(DocId, DataTree, Vec<Constraint>)]) {
    for (id, tree, suite) in docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
}

/// Certificates must be equal entry-for-entry: same constraints, same
/// signed snapshots, same MACs (the keyed MAC is a function of the set,
/// so equal tags ⟺ equal signed sets under one key).
fn assert_certs_identical(gw_a: &Gateway, gw_b: &Gateway, id: DocId, ctx: &str) {
    let a = gw_a.certificate(id).unwrap();
    let b = gw_b.certificate(id).unwrap();
    assert_eq!(a.entries.len(), b.entries.len(), "{ctx}: {id} entry count");
    for (i, (ea, eb)) in a.entries.iter().zip(&b.entries).enumerate() {
        assert_eq!(ea.constraint.to_string(), eb.constraint.to_string(), "{ctx}: {id} entry {i}");
        assert_eq!(ea.snapshot, eb.snapshot, "{ctx}: {id} entry {i} signed set");
        assert_eq!(ea.tag, eb.tag, "{ctx}: {id} entry {i} MAC");
    }
}

/// Both arms' internal state must coincide: committed tree (exact child
/// order), baseline range results, certificate — and the certificates of
/// each arm must verify against the *other* arm's snapshot.
fn assert_arms_converged(
    delta: &Gateway,
    full: &Gateway,
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    key: u64,
    ctx: &str,
) {
    for (id, ..) in docs {
        let snap_d = delta.snapshot(*id).unwrap();
        let snap_f = full.snapshot(*id).unwrap();
        assert_eq!(snap_d.render(), snap_f.render(), "{ctx}: {id} trees diverged");
        let doc_d = delta.store().document(*id).unwrap();
        let doc_f = full.store().document(*id).unwrap();
        let base_d: Vec<BTreeSet<NodeRef>> = doc_d.lock().baseline().to_vec();
        let base_f: Vec<BTreeSet<NodeRef>> = doc_f.lock().baseline().to_vec();
        assert_eq!(base_d, base_f, "{ctx}: {id} baselines diverged");
        assert_certs_identical(delta, full, *id, ctx);
        assert!(delta.certificate(*id).unwrap().verify(key, &snap_f).is_ok(), "{ctx}: {id}");
        assert!(full.certificate(*id).unwrap().verify(key, &snap_d).is_ok(), "{ctx}: {id}");
    }
}

/// The core differential loop: submit the stream request by request into
/// both arms, interleaving explicit rollback sessions, comparing verdicts
/// and state at every step.
#[test]
fn delta_admission_is_equivalent_to_full_admission() {
    let key = 0xD1FF;
    for seed in [0x5eed_0001u64, 0x5eed_0002, 0xfeed_f00d] {
        let docs = deployment();
        let delta = Gateway::with_admission(Signer::new(key), AdmissionMode::Delta);
        let full = Gateway::with_admission(Signer::new(key), AdmissionMode::FullPass);
        assert_eq!(delta.admission_mode(), AdmissionMode::Delta);
        assert_eq!(full.admission_mode(), AdmissionMode::FullPass);
        publish_into(&delta, &docs);
        publish_into(&full, &docs);

        let requests = seeded_stream(&docs, seed, 120);
        let mut accepts = 0usize;
        let mut rejects = 0usize;
        for (i, req) in requests.iter().enumerate() {
            if i % 7 == 3 {
                // An abandoned batch: apply the request's updates in a
                // manual session and roll back — on BOTH arms — before
                // resubmitting. Rollback must leave no trace in either.
                for gw in [&delta, &full] {
                    let doc = gw.store().document(req.doc).unwrap();
                    let mut doc = doc.lock();
                    let mut session = Session::begin(&mut doc);
                    for u in &req.updates {
                        let _ = session.apply(u);
                    }
                    session.rollback();
                }
                assert_arms_converged(
                    &delta,
                    &full,
                    &docs,
                    key,
                    &format!("seed {seed:#x} rollback before #{i}"),
                );
            }
            let vd = delta.submit(req);
            let vf = full.submit(req);
            assert_eq!(vd, vf, "seed {seed:#x} request #{i}: verdicts diverged");
            match vd {
                Verdict::Accepted { .. } => accepts += 1,
                Verdict::Rejected(_) => rejects += 1,
                Verdict::Served => unreachable!("submit never returns a read verdict"),
            }
            assert_arms_converged(&delta, &full, &docs, key, &format!("seed {seed:#x} after #{i}"));
        }
        // The stream must genuinely exercise both outcomes.
        assert!(accepts > 5, "seed {seed:#x}: only {accepts} accepts");
        assert!(rejects > 5, "seed {seed:#x}: only {rejects} rejects");
    }
}

/// Fixed inputs that the seeded streams are unlikely to draw, each a
/// document, its suite and one batch that a from-scratch admission
/// rejects. Both arms must reject it and stay converged.
fn pinned_inputs() -> Vec<(DocId, DataTree, Vec<Constraint>, Vec<Update>)> {
    let n = NodeId::from_raw;
    vec![(
        // The move records x#1 as a dirty root; renaming x#1 must carry
        // the root along, or the insert under d#6 drops it and the splice
        // never sees m#2 leave /x/m.
        DocId::new("renamed-root"),
        xuc_xtree::parse_term("root#100(x#1(m#2,c#3,d#6))").unwrap(),
        vec![parse_constraint("(/x/m, ↑)").unwrap()],
        vec![
            Update::Move { node: n(2), new_parent: n(3) },
            Update::ReplaceId { node: n(1), new_id: n(7001) },
            Update::InsertLeaf { parent: n(6), id: n(7002), label: Label::new("z") },
        ],
    )]
}

#[test]
fn pinned_inputs_reject_on_both_arms_and_stay_converged() {
    let key = 0x9177;
    for (id, tree, suite, updates) in pinned_inputs() {
        let docs = vec![(id, tree, suite)];
        let delta = Gateway::with_admission(Signer::new(key), AdmissionMode::Delta);
        let full = Gateway::with_admission(Signer::new(key), AdmissionMode::FullPass);
        publish_into(&delta, &docs);
        publish_into(&full, &docs);
        let req = Request { doc: id, updates };
        let vf = full.submit(&req);
        assert!(matches!(vf, Verdict::Rejected(_)), "{id}: full pass must reject, got {vf:?}");
        assert_eq!(delta.submit(&req), vf, "{id}: verdicts diverged");
        assert_arms_converged(&delta, &full, &docs, key, &format!("pinned {id}"));
    }
}

/// Worker-count determinism re-pinned on the delta path: the log of one
/// seeded stream is byte-identical at 1, 2 and 8 workers — and identical
/// to the full-pass arm's log.
#[test]
fn delta_logs_byte_identical_at_1_2_8_workers_and_to_full_pass() {
    let docs = deployment();
    let requests = seeded_stream(&docs, 0x00D1_5EA5, 200);
    let run = |mode: AdmissionMode, workers: usize| {
        let gw = Gateway::with_admission(Signer::new(0xF1E1D), mode);
        publish_into(&gw, &docs);
        let verdicts = gw.process(&requests, workers);
        render_log(&requests, &verdicts)
    };
    let reference = run(AdmissionMode::Delta, 1);
    assert!(reference.contains("ACCEPT") && reference.contains("REJECT"));
    for workers in [2usize, 8] {
        assert_eq!(
            run(AdmissionMode::Delta, workers),
            reference,
            "delta log diverged at {workers} workers"
        );
    }
    assert_eq!(run(AdmissionMode::FullPass, 4), reference, "full-pass log diverged from delta");
}

/// The kill/restart arm: a durable gateway is cut down at a request
/// index — including mid-group-commit, via a write fault that drops or
/// tears the last WAL frame — recovered from disk, driven through the
/// lost and remaining requests, and must end **byte-identical** to an
/// uninterrupted in-memory reference: verdict for verdict on everything
/// it replays, tree renders, baselines, commit counters, and
/// certificates field-for-field *including* the hash-chain linkage
/// (`Certificate` equality covers `prev_digest` and `chain_tag`).
#[test]
fn kill_restart_recovers_byte_identical() {
    let key = 0xC4A5;
    let docs = deployment();
    let requests = seeded_stream(&docs, 0xDEAD_5EED, 160);

    // The uninterrupted reference, plus each document's accepted-count
    // prefix (how many commits doc d has after request i) — that is what
    // decides which pre-cut requests a recovered gateway must see again.
    let reference = Gateway::new(Signer::new(key));
    publish_into(&reference, &docs);
    let mut acc: HashMap<DocId, u64> = HashMap::new();
    let mut ref_verdicts = Vec::new();
    let mut acc_after: Vec<u64> = Vec::new();
    for req in &requests {
        let v = reference.submit(req);
        if v.is_accepted() {
            *acc.entry(req.doc).or_insert(0) += 1;
        }
        acc_after.push(acc.get(&req.doc).copied().unwrap_or(0));
        ref_verdicts.push(v);
    }
    assert!(ref_verdicts.iter().any(|v| v.is_accepted()));
    assert!(ref_verdicts.iter().any(|v| !v.is_accepted()));

    // (cut index, fault, workers, group_commit, snapshot cadence) —
    // covering every fault kind, 1/2/8 workers, sync-per-commit and
    // buffered group commit, and no/short/long snapshot cadences.
    let cases: &[(usize, WriteFault, usize, usize, Option<u64>)] = &[
        (40, WriteFault::LoseBuffered, 1, 4, None),
        (40, WriteFault::DropLastFrame, 2, 1, Some(10)),
        (80, WriteFault::TearLastFrame, 8, 4, None),
        (80, WriteFault::TearLastFrame, 2, 1, Some(5)),
        (120, WriteFault::LoseBuffered, 8, 8, Some(25)),
        (120, WriteFault::DropLastFrame, 1, 1, None),
        (160, WriteFault::LoseBuffered, 8, 16, Some(10)),
        (16, WriteFault::DropLastFrame, 2, 4, None),
    ];

    let mut frames_lost_somewhere = false;
    for (case, &(cut, fault, workers, group_commit, snapshot_every)) in cases.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("xuc-diff-crash-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = format!("case {case} (cut {cut}, {fault:?}, {workers}w, gc {group_commit})");
        let opts = DurableOptions { group_commit, snapshot_every, ..DurableOptions::default() };

        let gw = Gateway::recover_with(Signer::new(key), AdmissionMode::Delta, &dir, opts).unwrap();
        publish_into(&gw, &docs);
        let pre = gw.process(&requests[..cut], workers);
        assert_eq!(pre, ref_verdicts[..cut], "{ctx}: pre-crash verdicts diverged");
        gw.simulate_crash(fault).unwrap();

        let rec =
            Gateway::recover_with(Signer::new(key), AdmissionMode::Delta, &dir, opts).unwrap();
        // A fault can eat a publish record (only when that document had
        // no durable commits after it); the operator re-publishes, as
        // the source would on discovering the loss.
        for (id, tree, suite) in &docs {
            if rec.store().document(*id).is_none() {
                rec.publish(*id, tree.clone(), suite.clone()).unwrap();
            }
        }
        let recovered: HashMap<DocId, u64> = docs
            .iter()
            .map(|(id, ..)| (*id, rec.store().document(*id).unwrap().lock().commits()))
            .collect();

        // Replay: a pre-cut request must be seen again iff it was an
        // accepted commit the durable state no longer holds; everything
        // from the cut onward runs as normal traffic. Verdicts must
        // reproduce the reference exactly — same commit numbers too.
        let mut lost = 0usize;
        for (i, req) in requests.iter().enumerate() {
            let replay = if i < cut {
                ref_verdicts[i].is_accepted() && acc_after[i] > recovered[&req.doc]
            } else {
                true
            };
            if !replay {
                continue;
            }
            if i < cut {
                lost += 1;
            }
            assert_eq!(rec.submit(req), ref_verdicts[i], "{ctx}: request #{i} diverged");
        }
        frames_lost_somewhere |= lost > 0;

        // Final state: byte-identical to the uninterrupted arm.
        for (id, ..) in &docs {
            let snap_rec = rec.snapshot(*id).unwrap();
            let snap_ref = reference.snapshot(*id).unwrap();
            assert_eq!(snap_rec.render(), snap_ref.render(), "{ctx}: {id} trees diverged");
            let doc_rec = rec.store().document(*id).unwrap();
            let doc_ref = reference.store().document(*id).unwrap();
            assert_eq!(
                doc_rec.lock().baseline().to_vec(),
                doc_ref.lock().baseline().to_vec(),
                "{ctx}: {id} baselines diverged"
            );
            assert_eq!(
                doc_rec.lock().commits(),
                doc_ref.lock().commits(),
                "{ctx}: {id} commit counters diverged"
            );
            // Full equality: entries, MACs, prev_digest, chain_tag.
            assert_eq!(
                rec.certificate(*id).unwrap(),
                reference.certificate(*id).unwrap(),
                "{ctx}: {id} certificates diverged"
            );
            assert!(rec.certificate(*id).unwrap().verify(key, &snap_ref).is_ok(), "{ctx}: {id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        frames_lost_somewhere,
        "the fault matrix never actually lost a durable frame — the injection is dead code"
    );
}

/// A snapshot that contradicts itself — its certificate is not the one
/// its own baselines sign — must stop recovery with a typed
/// `RecoverError::Diverged` naming the snapshot's commit, never bring up a
/// gateway whose certificate fails `verify`. Each tampered snapshot is
/// written through `write_snapshot`, so its frame checksum is valid and
/// only the certificate check can catch it.
#[test]
fn self_contradicting_snapshot_recovers_as_diverged() {
    let key = 0x5AFE;
    let dir = std::env::temp_dir().join(format!("xuc-diff-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions { snapshot_every: Some(2), ..DurableOptions::default() };
    let doc = DocId::new("snapped");
    let tree = xuc_xtree::parse_term("h#1(patient#2(visit#3),patient#4)").unwrap();
    let suite = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(/patient, ↓)").unwrap(),
    ];
    {
        let gw = Gateway::recover_with(Signer::new(key), AdmissionMode::Delta, &dir, opts).unwrap();
        gw.publish(doc, tree, suite).unwrap();
        for parent in [2, 4] {
            let visit = Update::InsertLeaf {
                parent: NodeId::from_raw(parent),
                id: NodeId::fresh(),
                label: "visit".into(),
            };
            assert!(gw.submit(&Request { doc, updates: vec![visit] }).is_accepted());
        }
    }
    let snaps = xuc_persist::read_snapshots(&dir).unwrap();
    assert_eq!(snaps.len(), 1);
    let good = snaps.into_iter().next().unwrap();
    assert_eq!(good.commits, 2);
    let recover = || Gateway::recover_with(Signer::new(key), AdmissionMode::Delta, &dir, opts);
    assert!(recover().is_ok(), "the untampered snapshot recovers");

    fn relabel_first(set: &mut BTreeSet<NodeRef>) {
        let first = *set.iter().next().unwrap();
        set.remove(&first);
        set.insert(NodeRef { id: first.id, label: Label::new("w") });
    }
    type Tamper = fn(&mut xuc_persist::DocSnapshot);
    let tampers: [(&str, Tamper); 5] = [
        ("signed set differs from its baseline", |s| {
            relabel_first(&mut s.cert.entries[0].snapshot);
        }),
        ("constraint differs from the suite", |s| {
            s.cert.entries[1].constraint = parse_constraint("(/patient, ↑)").unwrap();
        }),
        ("tag differs from the recomputed one", |s| s.cert.entries[1].tag ^= 1),
        ("chain tag differs from the recomputed one", |s| s.cert.chain_tag ^= 1),
        // The sets agree, but the carried tag no longer signs them.
        ("one entry relabelled in the certificate and the baseline", |s| {
            relabel_first(&mut s.cert.entries[0].snapshot);
            relabel_first(&mut s.base_sets[0]);
        }),
    ];
    for (what, tamper) in tampers {
        let mut bad = good.clone();
        tamper(&mut bad);
        xuc_persist::write_snapshot(&dir, &bad).unwrap();
        match recover() {
            Err(xuc_service::RecoverError::Diverged { doc: d, commit }) => {
                assert_eq!((d.as_str(), commit), ("snapped", 2), "{what}");
            }
            Err(e) => panic!("{what}: expected Diverged, got {e}"),
            Ok(_) => panic!("{what}: a self-contradicting snapshot was served"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Relabel-only batches are the paper's motivating case: admission must
/// complete with **zero** pre-order walks — the evaluator patches in
/// O(1) per relabel and the splice re-drives only the relabeled
/// subtrees, never snapshotting the document.
#[test]
fn relabel_only_batches_admit_with_zero_walks() {
    let docs = deployment();
    let gw = Gateway::new(Signer::new(0xAB1E));
    publish_into(&gw, &docs);
    let id = DocId::new("wide");
    let targets: Vec<NodeId> = docs[0].1.node_ids().into_iter().skip(1).take(3).collect();
    let walks = xuc_xtree::preorder_walk_count();
    let req = Request {
        doc: id,
        updates: targets
            .iter()
            .map(|&node| Update::Relabel { node, label: Label::new("b") })
            .collect(),
    };
    let verdict = gw.submit(&req);
    assert_eq!(
        xuc_xtree::preorder_walk_count(),
        walks,
        "relabel-only admission must not walk the document (verdict {verdict:?})"
    );
    // And the admission was real: a second, constraint-violating relabel
    // batch is still caught (also walk-free).
    let walks = xuc_xtree::preorder_walk_count();
    let sabotage = Request {
        doc: DocId::new("mixed"),
        updates: vec![Update::Relabel { node: NodeId::from_raw(3), label: Label::new("w") }],
    };
    assert!(matches!(gw.submit(&sabotage), Verdict::Rejected(_)), "stripping a visit must reject");
    assert_eq!(xuc_xtree::preorder_walk_count(), walks, "rejection path must also be walk-free");
}
