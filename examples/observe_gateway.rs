//! The gateway under observation: an `xuc-telemetry` bundle attached
//! end to end.
//!
//! Publishes a small hospital fleet, drains a mixed seeded stream
//! through the worker pool with telemetry attached, then reads back
//! everything the bundle collected — all through the public API:
//!
//! * the Prometheus-style metrics exposition (and its deterministic
//!   subset, the part that is byte-identical at any worker count),
//! * the per-stage latency attribution over the commit pipeline
//!   (apply → dirty-region → splice → verdict → certify),
//! * the bounded ring trace of one rejected commit, span by span.
//!
//! Attaching the bundle is observationally inert: the verdicts below are
//! the ones the uninstrumented gateway would have produced.
//!
//! Run with `cargo run --release --example observe_gateway`.

use std::sync::Arc;

use xml_update_constraints::prelude::*;
use xuc_service::workload::seeded_zipf_requests;

fn main() {
    // ---- Source: publish four hospital documents under one policy ----
    let gateway = Gateway::new(Signer::new(0x0B5E));
    let telemetry = Arc::new(Telemetry::new());
    assert!(gateway.attach_telemetry(Arc::clone(&telemetry)), "first attach wins");

    let policy = vec![
        parse_constraint("(/patient/visit, ↑)").unwrap(),
        parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap(),
    ];
    let hospitals = ["mercy-west", "seattle-grace", "st-ambrose", "queen-of-angels"];
    let mut term = String::from("hospital#1(");
    for p in 0..6u64 {
        let base = 2 + 5 * p;
        term.push_str(&format!(
            "patient#{}(visit#{},visit#{},visit#{},note#{}),",
            base,
            base + 1,
            base + 2,
            base + 3,
            base + 4
        ));
    }
    term.pop();
    term.push(')');
    let tree = parse_term(&term).unwrap();
    let mut doc_refs = Vec::new();
    for name in hospitals {
        let id = DocId::new(name);
        gateway.publish(id, tree.clone(), policy.clone()).unwrap();
        doc_refs.push(id);
    }
    println!("published {} hospitals under {} constraints\n", hospitals.len(), policy.len());

    // ---- Brokers: a mixed Zipfian stream through the worker pool -----
    // Inserts, relabels and deletions against the protected documents:
    // some comply, some trip the ↑/↓ constraints and are rolled back.
    let refs: Vec<(DocId, &DataTree)> = doc_refs.iter().map(|d| (*d, &tree)).collect();
    let stream = seeded_zipf_requests(&refs, &["visit", "note"], 0x0B5E_CAFE, 160, 99);
    let verdicts = gateway.process(&stream, 2);
    let accepted = verdicts.iter().filter(|v| v.is_accepted()).count();
    println!(
        "drained {} requests at 2 workers: {} accepted, {} rejected\n",
        stream.len(),
        accepted,
        stream.len() - accepted
    );

    // ---- Metrics: the canonical exposition ---------------------------
    // `record_metrics` folds the engine + persistence counters into the
    // attached registry, next to the gateway's verdict/shed counters.
    gateway.record_metrics();
    let snapshot = telemetry.registry().snapshot();
    println!("--- metrics exposition ---");
    print!("{}", snapshot.exposition());
    let deterministic = snapshot.exposition_deterministic();
    println!(
        "--- {} of those lines are classified Deterministic: byte-identical at 1, 2 or 8 workers ---\n",
        deterministic.lines().count()
    );

    // ---- Stages: where did admission time go? ------------------------
    println!("--- per-stage latency attribution ---");
    print!("{}", telemetry.stage_breakdown());
    println!();

    // ---- Trace: one rejected commit, span by span --------------------
    // Drain the ring so the next commit's spans stand alone, then submit
    // a tampering batch: deleting visit n3 violates (/patient/visit, ↑),
    // so the whole batch unwinds — and its trace shows exactly how far
    // it got: applied, spliced, judged... and never certified.
    telemetry.ring().drain();
    let tampering = Request {
        doc: doc_refs[0],
        updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(3) }],
    };
    let verdict = gateway.submit(&tampering);
    println!("--- ring trace of one rejected commit ---");
    println!("submit(delete visit n3 of {}): {verdict}", hospitals[0]);
    let trace = telemetry.ring().drain();
    assert!(!trace.is_empty(), "the rejected commit left spans in the ring");
    let tag = trace[0].tag;
    for ev in &trace {
        assert_eq!(ev.tag, tag, "one commit, one tag");
        println!("  tag {:>3}  {:<16} {:>6} µs", ev.tag, ev.stage.name(), ev.micros);
    }
    assert!(matches!(verdict, Verdict::Rejected(RejectReason::Violation { .. })));
    assert!(
        trace.iter().all(|ev| ev.stage != Stage::Certify),
        "a rejected commit is never certified"
    );
    println!(
        "  (no {} span: the rejected batch was rolled back, not signed)",
        Stage::Certify.name()
    );
}
