//! Auditing the past: instance-based implication as forensic reasoning —
//! and, when a journal exists, offline verification of the *whole* update
//! history.
//!
//! Part 1: a curator receives a product catalog that was governed by
//! update constraints but has no update log. Which integrity facts about
//! the *original* catalog can be deduced from the current one?
//!
//! Part 2: the same catalog served by a **durable** gateway that
//! snapshots every second commit. Afterwards an auditor — with the
//! verification key and the gateway's durability directory, but *no
//! gateway* — verifies the snapshot offline (re-deriving its signed sets
//! from its tree and suite and checking its chain tag under the key),
//! then replays the journal tail on top of it and checks every later
//! state's certificate, each hash-linked to its predecessor: a
//! tamper-evident chain from the snapshot to the present.
//!
//! Run with `cargo run --example audit_past`.

use xml_update_constraints::persist::{read_snapshots, read_wal, WalRecord};
use xml_update_constraints::prelude::*;
use xml_update_constraints::service::persist::wal_path;
use xml_update_constraints::service::SystemClock;

fn main() {
    let current =
        parse_term("catalog(product#1(price#2,review#3),product#4(price#5),discontinued#6)")
            .unwrap();

    let policy = vec![
        // Products may never be inserted after publication…
        parse_constraint("(/product, ↓)").unwrap(),
        // …and priced products are immutable as a set.
        parse_constraint("(/product[/price], ↓)").unwrap(),
        parse_constraint("(/product[/price], ↑)").unwrap(),
        // Reviews may only accumulate.
        parse_constraint("(/product/review, ↑)").unwrap(),
    ];

    let audits = [
        ("(/product, ↓)", "could a product have been added?"),
        ("(/product[/price], ↓)", "could a priced product have been added?"),
        ("(/product[/review], ↓)", "could a reviewed product have been added?"),
        ("(/product/review, ↓)", "could a review have been added?"),
    ];

    for (src, question) in audits {
        let goal = parse_constraint(src).unwrap();
        let verdict = implies_on(&policy, &current, &goal);
        println!("{question:<55} {verdict}");
        if let Outcome::NotImplied(ce) = &verdict {
            println!("  e.g. the catalog could have looked like:");
            for line in ce.before.render().lines() {
                println!("    {line}");
            }
        }
    }

    // ---- Part 2: with a journal, the past is provable, not deduced ----

    let dir = std::env::temp_dir().join(format!("xuc-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = 0xA0D1;
    let doc = DocId::new("catalog");
    {
        // A snapshot every second commit: the second accepted review is
        // snapshotted and the journal truncated behind it.
        let opts = DurableOptions { snapshot_every: Some(2), ..DurableOptions::default() };
        let gw = Gateway::recover_with_clock(Signer::new(key), &dir, opts, Box::new(SystemClock))
            .expect("fresh durability dir");
        gw.publish(doc, current.clone(), policy.clone()).unwrap();
        let review = |product: u64| Request {
            doc,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(product),
                id: NodeId::fresh(),
                label: "review".into(),
            }],
        };
        assert!(gw.submit(&review(1)).is_accepted());
        assert!(gw.submit(&review(4)).is_accepted());
        // A forbidden product insertion is rejected — and, having changed
        // nothing, never enters the journal.
        let smuggle = Request {
            doc,
            updates: vec![Update::InsertLeaf {
                parent: current.root_id(),
                id: NodeId::fresh(),
                label: "product".into(),
            }],
        };
        assert!(!gw.submit(&smuggle).is_accepted());
        assert!(gw.submit(&review(4)).is_accepted());
    } // orderly shutdown: the journal is synced

    // The auditor's whole world: the files, and the verification key.
    let snaps = read_snapshots(&dir).unwrap();
    let scan = read_wal(&wal_path(&dir)).unwrap();
    println!();
    println!(
        "offline audit: {} snapshot(s), {} journal record(s), torn tail: {}",
        snaps.len(),
        scan.records.len(),
        scan.torn
    );

    let mut state: Option<DataTree> = None;
    let mut prev_digest = 0u64;
    assert_eq!(snaps.len(), 1, "the cadence leaves one snapshot");
    for snap in &snaps {
        // A snapshot stores no signed sets: they are its suite's ranges on
        // its tree. Re-derived and signed under the key as the successor
        // of the stored predecessor digest, they must give the stored
        // chain tag, or the snapshot was tampered with.
        let mut ev = Evaluator::new(&snap.tree);
        let sets: Vec<_> = snap.suite.iter().map(|c| ev.eval(&c.range)).collect();
        let cert = Signer::new(key).certify_chained(&snap.suite, &sets, snap.prev_digest);
        assert_eq!(cert.chain_tag, snap.chain_tag, "the snapshot's chain tag signs its tree");
        cert.verify_chained(key, &snap.tree, snap.prev_digest).expect("snapshot verifies");
        println!(
            "  snapshot of {:?} at commit {}: {} signed sets re-derived, chain tag verified",
            snap.doc,
            snap.commits,
            sets.len()
        );
        prev_digest = cert.digest();
        state = Some((*snap.tree).clone());
    }
    for rec in &scan.records {
        match rec {
            WalRecord::Publish { doc, tree, suite } => {
                // The publish certificate is deterministic, so the
                // auditor recomputes it to anchor the chain.
                let mut ev = Evaluator::new(tree);
                let sets: Vec<_> = suite.iter().map(|c| ev.eval(&c.range)).collect();
                prev_digest = Signer::new(key).certify_precomputed(suite, &sets).digest();
                state = Some(tree.clone());
                println!("  published {doc:?} under {} constraints", suite.len());
            }
            WalRecord::Commit { commit, updates, cert, .. } => {
                let before = state.take().expect("a publish or snapshot precedes commits");
                let after = apply_all(&before, updates).expect("logged batches re-apply");
                // Every logged batch really respected the policy…
                assert!(policy.iter().all(|c| c.satisfied_by(&before, &after)));
                // …and its certificate signs exactly this state, chained
                // onto the previous one.
                cert.verify_chained(key, &after, prev_digest).expect("chain verifies");
                println!(
                    "  commit {commit}: {} update(s), certificate chains onto {prev_digest:#018x}",
                    updates.len()
                );
                prev_digest = cert.digest();
                state = Some(after);
            }
        }
    }
    assert!(!scan.records.is_empty(), "the commit after the snapshot is journaled");
    println!("history verified: the snapshot and every later state signed, every link intact");

    // Tamper-evidence: flip one byte in the last journal frame and the
    // scan refuses the forged suffix.
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 10;
    bytes[last] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    let reread = read_wal(&wal).unwrap();
    assert!(reread.torn && reread.records.len() < scan.records.len());
    println!(
        "tampering with the journal tail: scan now yields {} record(s), torn tail detected",
        reread.records.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
