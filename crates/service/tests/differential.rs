//! The differential fuzz harness pinning the gateway's admission to the
//! full-pass reference.
//!
//! A [`Gateway`] (splice or sweep, judged and certified off one splice
//! journal) and a [`FullPass`] reference (the pre-delta commit: full
//! `eval_set` admission, whole-set verdict, certificate from scratch) are
//! published from identical deployments and driven with byte-identical
//! seeded streams mixing relabels, id swaps (including duplicate-id and
//! id-recycling traffic), structural edits, commits, explicit rollbacks
//! and malformed updates. After every step the two arms must agree
//! **observably and internally**: verdict for verdict, committed trees
//! render-identical, baseline range-result sets equal, certificates equal
//! entry-for-entry and verifying identically — and the gateway's
//! accept/reject log must stay byte-identical at 1, 2 and 8 workers (and
//! to the reference's log).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use xuc_core::{parse_constraint, Constraint, ConstraintKind};
use xuc_persist::DecodeError;
use xuc_persist::StdFs;
use xuc_service::reference::FullPass;
use xuc_service::workload::SplitMix;
use xuc_service::{
    render_log, Crash, DocId, DurableOptions, Gateway, RecoverError, Request, Session, SimDisk,
    SystemClock, Verdict,
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

/// A durable gateway on `dir`.
fn durable(key: u64, dir: &std::path::Path, opts: DurableOptions) -> Result<Gateway, RecoverError> {
    Gateway::recover_with_io(Signer::new(key), dir, opts, Box::new(SystemClock), Arc::new(StdFs))
}

/// A durable gateway on the simulated `disk`.
fn durable_on(key: u64, disk: &SimDisk, opts: DurableOptions) -> Result<Gateway, RecoverError> {
    let fs = Arc::new(disk.clone());
    Gateway::recover_with_io(Signer::new(key), "gw", opts, Box::new(SystemClock), fs)
}

/// The reference arm over the same deployment.
fn reference_of(key: u64, docs: &[(DocId, DataTree, Vec<Constraint>)]) -> FullPass {
    let mut full = FullPass::new(Signer::new(key));
    for (id, tree, suite) in docs {
        full.publish(*id, tree.clone(), suite.clone());
    }
    full
}

/// Certificates must be equal entry-for-entry: same constraints, same
/// signed snapshots, same MACs (the keyed MAC is a function of the set,
/// so equal tags ⟺ equal signed sets under one key).
fn assert_certs_identical(gw: &Gateway, full: &FullPass, id: DocId, ctx: &str) {
    let a = gw.certificate(id).unwrap();
    let b = full.certificate(id).unwrap();
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
    full: &FullPass,
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    key: u64,
    ctx: &str,
) {
    for (id, ..) in docs {
        let snap_d = delta.snapshot(*id).unwrap();
        let snap_f = full.tree(*id).unwrap();
        assert_eq!(snap_d.render(), snap_f.render(), "{ctx}: {id} trees diverged");
        let doc_d = delta.store().document(*id).unwrap();
        let base_d: Vec<BTreeSet<NodeRef>> = doc_d.lock().baseline().to_vec();
        assert_eq!(base_d, full.baseline(*id).unwrap(), "{ctx}: {id} baselines diverged");
        assert_certs_identical(delta, full, *id, ctx);
        assert!(delta.certificate(*id).unwrap().verify(key, snap_f).is_ok(), "{ctx}: {id}");
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
        let delta = Gateway::new(Signer::new(key));
        publish_into(&delta, &docs);
        let mut full = reference_of(key, &docs);

        let requests = seeded_stream(&docs, seed, 120);
        let mut accepts = 0usize;
        let mut rejects = 0usize;
        for (i, req) in requests.iter().enumerate() {
            if i % 7 == 3 {
                // An abandoned batch: apply the request's updates in a
                // manual session on the gateway and roll back before
                // resubmitting. Rollback must leave no trace.
                let doc = delta.store().document(req.doc).unwrap();
                let mut doc = doc.lock();
                let mut session = Session::begin(&mut doc);
                for u in &req.updates {
                    let _ = session.apply(u);
                }
                session.rollback();
                drop(doc);
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
/// rejects. The reference must reject it, the gateway must reject it too
/// without walking the document, and both must stay converged.
fn pinned_inputs() -> Vec<(DocId, DataTree, Vec<Constraint>, Vec<Update>)> {
    let n = NodeId::from_raw;
    let c = |s: &str| parse_constraint(s).unwrap();
    let hospital = |s: &str| xuc_xtree::parse_term(s).unwrap();
    vec![
        (
            // A structural root must follow its node across an id swap:
            // left on the dead id, a later scope's ancestor check errs on
            // it and the splice never sees m#2 leave /x/m.
            DocId::new("renamed-root"),
            hospital("root#100(x#1(m#2,c#3,d#6))"),
            vec![c("(/x/m, ↑)")],
            vec![
                Update::Move { node: n(2), new_parent: n(3) },
                Update::ReplaceId { node: n(1), new_id: n(7001) },
                Update::InsertLeaf { parent: n(6), id: n(7002), label: Label::new("z") },
            ],
        ),
        (
            // The same with the moved node itself renamed, and an insert
            // below it that its root must cover.
            DocId::new("renamed-moved-root"),
            hospital("root#110(x#111(m#112,c#113))"),
            vec![c("(/x/m, ↑)")],
            vec![
                Update::Move { node: n(112), new_parent: n(113) },
                Update::ReplaceId { node: n(112), new_id: n(7111) },
                Update::InsertLeaf { parent: n(7111), id: n(7112), label: Label::new("z") },
            ],
        ),
        (
            // Move x, then delete x's new parent: the move's dirty root
            // dies with the delete and must be dropped, not swept.
            DocId::new("moved-then-deleted"),
            hospital("hospital#200(patient#201(visit#202(report#203)),patient#204(visit#205))"),
            vec![c("(/patient/visit, ↑)"), c("(//report, ↑)")],
            vec![
                Update::Move { node: n(202), new_parent: n(204) },
                Update::DeleteSubtree { node: n(204) },
            ],
        ),
        (
            // Insert y under p, then splice p out: y and p's other child
            // re-root under the hospital, and y now grows `/note`.
            DocId::new("inserted-then-spliced"),
            hospital("hospital#300(patient#301(visit#302),patient#303)"),
            vec![c("(/note, ↓)"), c("(/patient, ↓)")],
            vec![
                Update::InsertLeaf { parent: n(301), id: n(7301), label: Label::new("note") },
                Update::DeleteNode { node: n(301) },
            ],
        ),
        (
            // Splice a patient out, then move one of its former children
            // to another patient: the other child's root path lost its
            // `patient`, so `(/patient/clinicalTrial, ↑)` shrinks.
            DocId::new("spliced-then-moved"),
            hospital("hospital#400(patient#401(visit#402,clinicalTrial#403),patient#404)"),
            vec![c("(/patient/visit, ↑)"), c("(/patient/clinicalTrial, ↑)")],
            vec![
                Update::DeleteNode { node: n(401) },
                Update::Move { node: n(402), new_parent: n(404) },
            ],
        ),
    ]
}

#[test]
fn pinned_inputs_reject_on_both_arms_and_stay_converged() {
    let key = 0x9177;
    for (id, tree, suite, updates) in pinned_inputs() {
        let docs = vec![(id, tree, suite)];
        let delta = Gateway::new(Signer::new(key));
        publish_into(&delta, &docs);
        let mut full = reference_of(key, &docs);
        let req = Request { doc: id, updates };
        let vf = full.submit(&req);
        assert!(matches!(vf, Verdict::Rejected(_)), "{id}: full pass must reject, got {vf:?}");
        // The walk counter is per thread, and the gateway admits on the
        // submitting one: concurrently running tests cannot inflate it.
        let walks = xuc_xtree::preorder_walk_count();
        assert_eq!(delta.submit(&req), vf, "{id}: verdicts diverged");
        assert_eq!(xuc_xtree::preorder_walk_count(), walks, "{id}: the delta arm walked");
        assert_arms_converged(&delta, &full, &docs, key, &format!("pinned {id}"));
    }
}

/// Worker-count determinism re-pinned on the delta path: the log of one
/// seeded stream is byte-identical at 1, 2 and 8 workers — and identical
/// to the full-pass reference's log.
#[test]
fn delta_logs_byte_identical_at_1_2_8_workers_and_to_full_pass() {
    let docs = deployment();
    let requests = seeded_stream(&docs, 0x00D1_5EA5, 200);
    let run = |workers: usize| {
        let gw = Gateway::new(Signer::new(0xF1E1D));
        publish_into(&gw, &docs);
        let verdicts = gw.process(&requests, workers);
        render_log(&requests, &verdicts)
    };
    let reference = run(1);
    assert!(reference.contains("ACCEPT") && reference.contains("REJECT"));
    for workers in [2usize, 8] {
        assert_eq!(run(workers), reference, "delta log diverged at {workers} workers");
    }
    let mut full = reference_of(0xF1E1D, &docs);
    let verdicts: Vec<Verdict> = requests.iter().map(|r| full.submit(r)).collect();
    assert_eq!(render_log(&requests, &verdicts), reference, "full-pass log diverged from delta");
}

/// The kill/restart arm: a durable gateway on a simulated disk is cut
/// down at a request index — its crash image loses every unsynced write,
/// or the power fails during the last sync and drops or tears its write —
/// recovered from that image, driven through the
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

    // (cut index, crash image, workers, group_commit, snapshot cadence) —
    // covering every crash image, 1/2/8 workers, sync-per-commit and
    // buffered group commit, and no/short/long snapshot cadences.
    let cases: &[(usize, Crash, usize, usize, Option<u64>)] = &[
        (40, Crash::LoseUnsynced, 1, 4, None),
        (40, Crash::DropLastWrite, 2, 1, Some(10)),
        (80, Crash::TearLastWrite, 8, 4, None),
        (80, Crash::TearLastWrite, 2, 1, Some(5)),
        (120, Crash::LoseUnsynced, 8, 8, Some(25)),
        (120, Crash::DropLastWrite, 1, 1, None),
        (160, Crash::LoseUnsynced, 8, 16, Some(10)),
        (16, Crash::DropLastWrite, 2, 4, None),
    ];

    let mut frames_lost_somewhere = false;
    for (case, &(cut, crash, workers, group_commit, snapshot_every)) in cases.iter().enumerate() {
        let ctx = format!("case {case} (cut {cut}, {crash:?}, {workers}w, gc {group_commit})");
        let opts = DurableOptions { group_commit, snapshot_every };

        let disk = SimDisk::new();
        let gw = durable_on(key, &disk, opts).unwrap();
        publish_into(&gw, &docs);
        let pre = gw.process(&requests[..cut], workers);
        assert_eq!(pre, ref_verdicts[..cut], "{ctx}: pre-crash verdicts diverged");
        let image = disk.crash(crash);
        drop(gw);

        let rec = durable_on(key, &image, opts).unwrap();
        // A crash can eat a publish record (only when that document had
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
    }
    assert!(
        frames_lost_somewhere,
        "the crash matrix never actually lost a frame — the crash images are dead code"
    );
}

/// Publishes "snapped" durably into `dir`, commits twice under snapshot
/// cadence 2 (so the snapshot covers everything and the WAL is empty) and
/// returns the snapshot file's path.
fn snapshotted_dir(key: u64, dir: &std::path::Path) -> std::path::PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    let opts = DurableOptions { snapshot_every: Some(2), ..DurableOptions::default() };
    let doc = DocId::new("snapped");
    let gw = durable(key, dir, opts).unwrap();
    let tree = xuc_xtree::parse_term("h#1(patient#2(visit#3),patient#4(visit#5))").unwrap();
    let suite = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(/patient, ↓)").unwrap(),
        parse_constraint("(//visit, ↑)").unwrap(),
    ];
    gw.publish(doc, tree, suite).unwrap();
    for parent in [2, 4] {
        let visit = Update::InsertLeaf {
            parent: NodeId::from_raw(parent),
            id: NodeId::fresh(),
            label: "visit".into(),
        };
        assert!(gw.submit(&Request { doc, updates: vec![visit] }).is_accepted());
    }
    let snaps: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1);
    snaps.into_iter().next().unwrap()
}

/// A snapshot that contradicts itself — its stored chain tag is not the
/// one its own tree, suite and `prev_digest` sign — must stop recovery
/// with a typed `RecoverError::Diverged` naming the snapshot's commit,
/// never bring up a gateway whose certificate fails `verify`. Each
/// tampered snapshot is written through `write_snapshot`, so its frame
/// checksum is valid and only the re-derived chain tag can catch it.
#[test]
fn self_contradicting_snapshot_recovers_as_diverged() {
    let key = 0x5AFE;
    let dir = std::env::temp_dir().join(format!("xuc-diff-snap-{}", std::process::id()));
    snapshotted_dir(key, &dir);
    let opts = DurableOptions { snapshot_every: Some(2), ..DurableOptions::default() };
    let snaps = xuc_persist::read_snapshots(&StdFs, &dir).unwrap();
    assert_eq!(snaps.len(), 1);
    let good = snaps.into_iter().next().unwrap();
    assert_eq!(good.commits, 2);
    let recover = || durable(key, &dir, opts);
    assert!(recover().is_ok(), "the untampered snapshot recovers");

    type Tamper = fn(&mut xuc_persist::DocSnapshot<'static>);
    let tampers: [(&str, Tamper); 4] = [
        // The tree now puts visit#3 outside the signed (/patient/visit).
        ("tree relabelled inside a signed range", |s| {
            s.tree.to_mut().relabel(NodeId::from_raw(3), "note").unwrap();
        }),
        ("constraint differs from the one signed", |s| {
            s.suite.to_mut()[1] = parse_constraint("(/patient, ↑)").unwrap();
        }),
        ("prev_digest differs from the one signed", |s| s.prev_digest ^= 1),
        ("chain tag differs from the recomputed one", |s| s.chain_tag ^= 1),
    ];
    for (what, tamper) in tampers {
        let mut bad = good.clone();
        tamper(&mut bad);
        xuc_persist::write_snapshot(&StdFs, &dir, &bad).unwrap();
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

/// A snapshot whose commit counter is moved forward — rewritten through
/// `write_snapshot`, so its checksum is valid — must not recover. The
/// counter lies outside the chain tag, and replay skips every WAL commit
/// at or below it as already covered, so the acknowledged commits 3 and 4
/// in the log below the forged counter 7 would vanish without an error.
#[test]
fn a_snapshot_with_a_forged_commit_counter_recovers_as_diverged() {
    let key = 0xC047;
    let dir = std::env::temp_dir().join(format!("xuc-diff-counter-{}", std::process::id()));
    snapshotted_dir(key, &dir);
    let doc = DocId::new("snapped");
    // Two more commits, journaled but not snapshotted: the WAL tail.
    let opts = DurableOptions { snapshot_every: None, ..DurableOptions::default() };
    {
        let gw = durable(key, &dir, opts).unwrap();
        for parent in [2, 4] {
            let visit = Update::InsertLeaf {
                parent: NodeId::from_raw(parent),
                id: NodeId::fresh(),
                label: "visit".into(),
            };
            assert!(gw.submit(&Request { doc, updates: vec![visit] }).is_accepted());
        }
    }
    let commits = |gw: &Gateway| gw.store().document(doc).unwrap().lock().commits();
    assert_eq!(commits(&durable(key, &dir, opts).unwrap()), 4, "the tail replays");

    let mut forged = xuc_persist::read_snapshots(&StdFs, &dir).unwrap().pop().unwrap();
    assert_eq!(forged.commits, 2);
    forged.commits = 7;
    xuc_persist::write_snapshot(&StdFs, &dir, &forged).unwrap();
    match durable(key, &dir, opts) {
        Err(RecoverError::Diverged { doc: d, commit }) => {
            assert_eq!((d.as_str(), commit), ("snapped", 7))
        }
        Err(e) => panic!("a forged counter: expected Diverged, got {e}"),
        Ok(gw) => panic!("a forged counter was served at commit {}", commits(&gw)),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose payload names another document — written under that
/// name with a valid checksum, the original removed, the WAL empty — must
/// not be served as that document: the name lies outside the chain tag.
#[test]
fn a_renamed_snapshot_recovers_as_diverged() {
    let key = 0x4E4D;
    let dir = std::env::temp_dir().join(format!("xuc-diff-rename-{}", std::process::id()));
    let path = snapshotted_dir(key, &dir);
    let wal = std::fs::metadata(xuc_service::persist::wal_path(&dir)).unwrap().len();
    assert_eq!(wal, 8, "the snapshot truncated the WAL to its magic");
    let mut renamed = xuc_persist::read_snapshots(&StdFs, &dir).unwrap().pop().unwrap();
    renamed.doc = "impostor".into();
    xuc_persist::write_snapshot(&StdFs, &dir, &renamed).unwrap();
    std::fs::remove_file(path).unwrap();
    match durable(key, &dir, DurableOptions::default()) {
        Err(RecoverError::Diverged { doc: d, commit }) => {
            assert_eq!((d.as_str(), commit), ("impostor", 2))
        }
        Err(e) => panic!("a renamed snapshot: expected Diverged, got {e}"),
        Ok(_) => panic!("a renamed snapshot was served"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot payloads mutated byte-wise (bit flips, overwrites, deleted,
/// duplicated and inserted spans) and re-checksummed, so the frame reader
/// passes them: recovery either serves documents whose certificates
/// `verify` against the served trees, or refuses with a typed
/// `RecoverError` — never a panic. Both outcomes occur.
#[test]
fn mutated_snapshots_recover_verified_or_typed() {
    let key = 0xF022;
    let dir = std::env::temp_dir().join(format!("xuc-diff-fuzz-{}", std::process::id()));
    let path = snapshotted_dir(key, &dir);
    let clean = std::fs::read(&path).unwrap();
    let (magic, payload) = (&clean[..8], &clean[8 + 12..]);
    let opts = DurableOptions { snapshot_every: None, ..DurableOptions::default() };
    let mut rng = SplitMix::new(0xF022);
    let (mut served, mut refused) = (0, 0);
    for case in 0..300 {
        let mut bytes = payload.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            let end = (at + 1 + rng.below(12)).min(bytes.len());
            let byte = rng.next_u64() as u8;
            match rng.below(5) {
                0 => bytes[at] ^= 1 << (byte % 8),
                1 => bytes[at] = byte,
                2 => drop(bytes.drain(at..end)),
                3 => {
                    let dup = bytes[at..end].to_vec();
                    bytes.splice(at..at, dup);
                }
                _ => bytes.insert(at, byte),
            }
            if bytes.is_empty() {
                bytes.push(byte);
            }
        }
        let mut file = magic.to_vec();
        file.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        file.extend_from_slice(&xuc_persist::checksum64(&bytes).to_le_bytes());
        file.extend_from_slice(&bytes);
        let _ = std::fs::remove_file(xuc_service::persist::wal_path(&dir));
        std::fs::write(&path, &file).unwrap();
        match durable(key, &dir, opts) {
            Ok(gw) => {
                for id in gw.store().doc_ids() {
                    let cert = gw.certificate(id).unwrap();
                    let tree = gw.snapshot(id).unwrap();
                    assert!(cert.verify(key, &tree).is_ok(), "case {case}: {id} fails verify");
                }
                served += 1;
            }
            Err(
                RecoverError::Persist(_)
                | RecoverError::Diverged { .. }
                | RecoverError::Conflict { .. }
                | RecoverError::UnknownDocument { .. }
                | RecoverError::ReplayFailed { .. },
            ) => refused += 1,
        }
    }
    assert!(served > 0 && refused > 0, "served {served}, refused {refused}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot in the older `XUCSNP01` format (which also stored the
/// signed sets and the whole certificate) recovers as a typed decode
/// error naming the magic, not as a gateway.
#[test]
fn an_older_snapshot_format_recovers_as_a_typed_error() {
    let key = 0x01D;
    let dir = std::env::temp_dir().join(format!("xuc-diff-old-{}", std::process::id()));
    let path = snapshotted_dir(key, &dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"XUCSNP01");
    std::fs::write(&path, &bytes).unwrap();
    match durable(key, &dir, DurableOptions::default()) {
        Err(RecoverError::Persist(xuc_persist::PersistError::Decode(DecodeError::BadMagic))) => {}
        Err(e) => panic!("expected a decode error, got {e}"),
        Ok(_) => panic!("an XUCSNP01 snapshot was served"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wrong but well-formed WAL records — each frame written through
/// `WalWriter::append`, so every checksum is valid — must stop recovery
/// with a typed error naming the first bad commit, never serve a gateway
/// and never panic: a commit-number gap is `Diverged`, a commit for a
/// document never published is `UnknownDocument`, and two commits with
/// their update batches swapped are `Diverged` or `ReplayFailed`.
#[test]
fn wrong_wal_records_recover_as_typed_errors() {
    use xuc_persist::{read_wal, WalRecord, WalWriter};
    use xuc_service::persist::wal_path;

    let key = 0x3A1;
    let base = std::env::temp_dir().join(format!("xuc-diff-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let opts = DurableOptions { group_commit: 1, snapshot_every: None };
    let recover = |dir: &std::path::Path| durable(key, dir, opts);
    let doc = DocId::new("journaled");
    let source = base.join("source");
    {
        let gw = recover(&source).unwrap();
        let tree = xuc_xtree::parse_term("h#1(patient#2(visit#3),patient#4)").unwrap();
        gw.publish(doc, tree, vec![parse_constraint("(/patient/visit, ↑)").unwrap()]).unwrap();
        // Three accepted commits: a visit under each patient, then a note.
        for (parent, label) in [(2, "visit"), (4, "visit"), (4, "note")] {
            let insert = Update::InsertLeaf {
                parent: NodeId::from_raw(parent),
                id: NodeId::fresh(),
                label: label.into(),
            };
            assert!(gw.submit(&Request { doc, updates: vec![insert] }).is_accepted());
        }
    }
    let records = read_wal(&StdFs, &wal_path(&source)).unwrap().records;
    assert_eq!(records.len(), 4, "one publish and three commits");
    assert!(recover(&source).is_ok(), "the untampered journal recovers");

    // Rewrites the journal into a fresh directory and recovers from it.
    let rewritten = |name: &str, records: &[WalRecord]| {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut writer, _) = WalWriter::open(&wal_path(&dir), 1).unwrap();
        for r in records {
            writer.append(r).unwrap();
        }
        drop(writer);
        recover(&dir)
    };
    let commit_of = |r: &WalRecord| match r {
        WalRecord::Commit { commit, .. } => *commit,
        WalRecord::Publish { .. } => 0,
    };
    assert_eq!(records.iter().map(commit_of).collect::<Vec<_>>(), [0, 1, 2, 3]);

    // Commit 2 missing: commit 3 follows commit 1.
    let gap = [records[0].clone(), records[1].clone(), records[3].clone()];
    match rewritten("gap", &gap) {
        Err(RecoverError::Diverged { doc: d, commit }) => {
            assert_eq!((d.as_str(), commit), ("journaled", 3))
        }
        Err(e) => panic!("a commit-number gap: expected Diverged, got {e}"),
        Ok(_) => panic!("a commit-number gap was served"),
    }

    // Commit 1 names a document nobody published.
    let mut ghost = records.clone();
    if let WalRecord::Commit { doc: d, .. } = &mut ghost[1] {
        *d = "ghost".to_owned();
    }
    match rewritten("ghost", &ghost) {
        Err(RecoverError::UnknownDocument { doc: d }) => assert_eq!(d, "ghost"),
        Err(e) => panic!("a commit for an unpublished document: expected UnknownDocument, got {e}"),
        Ok(_) => panic!("a commit for an unpublished document was served"),
    }

    // Commits 1 and 2 carry each other's updates.
    let mut swapped = records.clone();
    let (head, tail) = swapped.split_at_mut(2);
    match (&mut head[1], &mut tail[0]) {
        (WalRecord::Commit { updates: a, .. }, WalRecord::Commit { updates: b, .. }) => {
            std::mem::swap(a, b)
        }
        _ => unreachable!("records 1 and 2 are commits"),
    }
    match rewritten("swapped", &swapped) {
        Err(RecoverError::Diverged { doc: d, commit })
        | Err(RecoverError::ReplayFailed { doc: d, commit, .. }) => {
            assert_eq!((d.as_str(), commit), ("journaled", 1), "the first bad commit")
        }
        Err(e) => panic!("swapped updates: expected Diverged or ReplayFailed, got {e}"),
        Ok(_) => panic!("swapped updates were served"),
    }
    let _ = std::fs::remove_dir_all(&base);
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

/// The structural twin: leaf inserts and subtree deletes below the root
/// admit, and reject, with **zero** walks too — the evaluator relinks
/// only the subtree each scope names, the splice sweeps only below the
/// dirty roots, and a rejected batch unwinds through the same per-scope
/// relinks.
#[test]
fn structural_batches_admit_with_zero_walks() {
    let c = |s: &str| parse_constraint(s).unwrap();
    let gw = Gateway::new(Signer::new(0xAB1E));
    let doc = DocId::new("linear");
    let tree = xuc_xtree::parse_term(
        "hospital#1(patient#2(visit#3,visit#4),patient#5(phone#6),patient#7(visit#8(report#9)))",
    )
    .unwrap();
    let suite =
        ["(/patient/visit, ↑)", "(//phone, ↓)", "(//report, ↑)", "(/patient, ↓)"].map(c).to_vec();
    gw.publish(doc, tree, suite).unwrap();
    let leaf = |parent: u64, id: NodeId, label: &str| Update::InsertLeaf {
        parent: NodeId::from_raw(parent),
        id,
        label: Label::new(label),
    };
    let delete = |node: u64| Update::DeleteSubtree { node: NodeId::from_raw(node) };
    let note = NodeId::fresh();
    let batches = [
        (vec![leaf(2, note, "note"), delete(6)], true),
        (vec![Update::DeleteSubtree { node: note }, leaf(5, NodeId::fresh(), "memo")], true),
        // A new phone grows `(//phone, ↓)`; a lost report shrinks
        // `(//report, ↑)`.
        (vec![leaf(7, NodeId::fresh(), "note"), leaf(2, NodeId::fresh(), "phone")], false),
        (vec![leaf(2, NodeId::fresh(), "note"), delete(9)], false),
    ];
    for (updates, accept) in batches {
        let what = format!("{updates:?}");
        let walks = xuc_xtree::preorder_walk_count();
        let verdict = gw.submit(&Request { doc, updates });
        assert_eq!(verdict.is_accepted(), accept, "{what}: {verdict:?}");
        assert!(accept || matches!(verdict, Verdict::Rejected(_)), "{what}: {verdict:?}");
        assert_eq!(xuc_xtree::preorder_walk_count(), walks, "{what} must not walk the document");
    }
}
