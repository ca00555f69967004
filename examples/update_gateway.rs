//! Figure 1 as a running service: the hospital scenario through
//! `xuc-service`'s update-validation gateway.
//!
//! The Source publishes its patient document under Example 2.1's update
//! constraints; Brokers submit update batches; the gateway admits or
//! rejects each batch transactionally and re-certifies the document on
//! every commit, so a User can verify any served state without ever
//! seeing its predecessor — the full Figure 1 loop, end to end.
//!
//! Run with `cargo run --example update_gateway`.

use xml_update_constraints::prelude::*;
use xuc_service::workload::seeded_requests;

fn main() {
    // ---- Source: publish the document under its policy -----------------
    let gateway = Gateway::new(Signer::new(0x5ec2e7));
    let hospital = DocId::new("mercy-west");
    let original = parse_term(
        "hospital#1(patient#2(visit#6,visit#7,clinicalTrial#9),patient#3(clinicalTrial#8))",
    )
    .unwrap();
    let policy = xuc_workloads::trees::example_2_1_constraints();
    println!("policy:");
    for c in &policy {
        println!("  {c}");
    }
    let policy_size = policy.len();
    gateway.publish(hospital, original.clone(), policy).unwrap();
    println!("published {hospital} under {policy_size} constraints\n");

    // ---- Broker 1: a compliant batch (add a visit) ---------------------
    let compliant = Request {
        doc: hospital,
        updates: vec![Update::InsertLeaf {
            parent: NodeId::from_raw(2),
            id: NodeId::fresh(),
            label: "visit".into(),
        }],
    };
    let verdict = gateway.submit(&compliant);
    println!("broker 1 (adds a visit):      {verdict}");
    assert!(verdict.is_accepted());

    // ---- Broker 2: tampering (delete a protected visit) ----------------
    // c3 = (/patient/visit, ↑) forbids removing visits; the whole batch
    // must unwind, including its innocuous first update.
    let tampering = Request {
        doc: hospital,
        updates: vec![
            Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::fresh(),
                label: "visit".into(),
            },
            Update::DeleteSubtree { node: NodeId::from_raw(7) },
        ],
    };
    let verdict = gateway.submit(&tampering);
    println!("broker 2 (deletes visit n7):  {verdict}");
    assert!(matches!(verdict, Verdict::Rejected(RejectReason::Violation { .. })));

    // ---- Broker 3: malformed traffic ----------------------------------
    let malformed = Request {
        doc: hospital,
        updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(99) }],
    };
    println!("broker 3 (dead node):         {}", gateway.submit(&malformed));

    // ---- User: verify the served state against the fresh certificate --
    // Commit re-certified, so verification covers broker 1's accepted
    // edit — no access to the original needed.
    let served = gateway.snapshot(hospital).unwrap();
    let cert = gateway.certificate(hospital).unwrap();
    assert!(cert.verify(0x5ec2e7, &served).is_ok());
    println!("\nuser: served document verifies ({} nodes, commit #1)", served.len());

    // A man-in-the-middle who strips visit n6 from the served copy is
    // caught immediately.
    let mut stripped = served.clone();
    stripped.delete_subtree(NodeId::from_raw(6)).unwrap();
    match cert.verify(0x5ec2e7, &stripped) {
        Err(e) => println!("user: tampered copy REJECTED — {e}"),
        Ok(()) => unreachable!("tampering must be caught"),
    }

    // ---- Delta admission: edit-proportional commit validation ----------
    // Under an all-linear policy, commits ride the in-place splice: the
    // admission check re-derives results only below the batch's dirty
    // subtrees and patches the cached baselines — a relabel-only batch
    // commits without a single pre-order walk of the document, however
    // large it is. (A predicate policy makes the splice decline; one full
    // sweep then stands in, judged and certified off the same journal.)
    let records = DocId::new("records");
    let records_tree =
        parse_term("hospital#50(patient#51(visit#52,phone#53),patient#54(phone#55))").unwrap();
    let records_policy = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(//phone, ↓)").unwrap(),
    ];
    gateway.publish(records, records_tree, records_policy).unwrap();
    let walks_before = xuc_xtree::preorder_walk_count();
    let relabels = Request {
        doc: records,
        updates: vec![
            Update::Relabel { node: NodeId::from_raw(53), label: "note".into() },
            Update::Relabel { node: NodeId::from_raw(55), label: "note".into() },
        ],
    };
    let verdict = gateway.submit(&relabels);
    assert!(verdict.is_accepted(), "shrinking a ↓ range is allowed");
    assert_eq!(
        xuc_xtree::preorder_walk_count(),
        walks_before,
        "delta admission must not re-walk the document"
    );
    println!("\ndelta admission: relabel-only batch committed with zero document walks ✓");

    // ---- Heavy traffic: a seeded stream over the worker pool -----------
    // The accept/reject log is a pure function of the stream — identical
    // at every worker count (here: 1 vs 4).
    let clinic = DocId::new("seattle-grace");
    let clinic_tree = parse_term("hospital#40(patient#41(visit#42),patient#43)").unwrap();
    let clinic_policy = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(/patient, ↓)").unwrap(),
    ];

    // Generate the stream ONCE and replay it into both gateways: fresh
    // insert ids are minted at generation time, so both runs see
    // byte-identical inputs.
    let docs = [(hospital, &original), (clinic, &clinic_tree)];
    let requests = seeded_requests(&docs, &["visit", "phone"], 0xF161, 60);
    let run = |workers: usize| {
        let gw = Gateway::new(Signer::new(0x5ec2e7));
        gw.publish(hospital, original.clone(), xuc_workloads::trees::example_2_1_constraints())
            .unwrap();
        gw.publish(clinic, clinic_tree.clone(), clinic_policy.clone()).unwrap();
        let verdicts = gw.process(&requests, workers);
        render_log(&requests, &verdicts)
    };
    let log1 = run(1);
    let log4 = run(4);
    assert_eq!(log1, log4, "worker count must not change the log");
    let accepts = log1.lines().filter(|l| l.contains("ACCEPT")).count();
    println!(
        "\nstreamed 60 requests across 2 documents: {accepts} accepted, {} rejected",
        60 - accepts
    );
    println!("1-worker and 4-worker logs are byte-identical ✓");
    println!("\nfirst lines of the log:");
    for line in log1.lines().take(6) {
        println!("  {line}");
    }
}
