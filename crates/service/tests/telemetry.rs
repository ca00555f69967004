//! The observability suite: telemetry must be *observationally inert*
//! and its deterministic exposition must be a pure function of the
//! request stream.
//!
//! The invariants pinned here:
//!
//! * **Inertness** — attaching a [`Telemetry`] bundle changes nothing
//!   observable: verdict logs, trees, baselines and certificate chains
//!   are byte-identical to an uninstrumented gateway's.
//! * **Deterministic exposition byte-identity** — over seeded Zipfian
//!   streams (a proptest arm draws seed and skew), the
//!   [`exposition_deterministic`](xuc_service::MetricsSnapshot::exposition_deterministic)
//!   text is byte-identical at 1, 2 and 8 workers, while
//!   scheduling-dependent series (degraded-mode refusals, transitions,
//!   resumes and halts, scraped engine and journal counters) are present
//!   in the full exposition but explicitly classified out of the
//!   deterministic one.
//! * **Ring boundedness** — a trace ring too small for the stream fills,
//!   counts every further span in its drop counter, and never blocks or
//!   perturbs the run.
//! * **Stage attribution** — each request's spans share one trace tag,
//!   so a drained ring groups back into per-request traces; rejected
//!   commits show the admission stages but never a certify span, and a
//!   durable gateway records one `journal_append` span per accepted
//!   commit and one `fsync` span per group-commit sync.

use proptest::prelude::*;
use std::sync::Arc;
use xuc_core::clock::SystemClock;
use xuc_core::{parse_constraint, Constraint};
use xuc_service::workload::seeded_zipf_requests;
use xuc_service::StdFs;
use xuc_service::{render_log, DocId, Gateway, Request, Stage, Telemetry, Verdict};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, NodeId, Update};

const KEY: u64 = 0x0B5E;

/// Four hospital documents, each with an ↑-guarded visit so seeded
/// streams produce both accepts (inserts) and rejects (guarded
/// deletes) — the verdict counters must see every class.
fn deployment() -> Vec<(DocId, DataTree, Vec<Constraint>)> {
    (0..4)
        .map(|k| {
            let tree = xuc_xtree::parse_term(&format!(
                "hospital#{}(patient#{}(visit#{}))",
                3 * k + 1,
                3 * k + 2,
                3 * k + 3
            ))
            .unwrap();
            let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
            (DocId::new(&format!("obs-ward-{k}")), tree, suite)
        })
        .collect()
}

fn publish_into(gw: &Gateway, docs: &[(DocId, DataTree, Vec<Constraint>)]) {
    for (id, tree, suite) in docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
}

fn zipf_stream(
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    seed: u64,
    count: usize,
    skew_centi: u32,
) -> Vec<Request> {
    let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(d, t, _)| (*d, t)).collect();
    seeded_zipf_requests(&doc_refs, &["visit"], seed, count, skew_centi)
}

/// **Inertness.** The verdict log, trees and certificates of an
/// instrumented gateway are byte-identical to an uninstrumented one's —
/// and the instruments did fire (stage spans recorded, verdict counters
/// restate the log).
#[test]
fn attached_telemetry_is_observationally_inert() {
    let docs = deployment();
    let requests = zipf_stream(&docs, 0x0B5E_0001, 160, 99);

    let plain = Gateway::new(Signer::new(KEY));
    publish_into(&plain, &docs);
    let plain_log = render_log(&requests, &plain.process(&requests, 1));
    assert!(plain_log.contains("ACCEPT") && plain_log.contains("REJECT"));

    let gw = Gateway::new(Signer::new(KEY));
    let tel = Arc::new(Telemetry::new());
    assert!(gw.attach_telemetry(Arc::clone(&tel)), "first attach wins");
    assert!(!gw.attach_telemetry(Arc::new(Telemetry::new())), "second attach refused");
    publish_into(&gw, &docs);
    let verdicts = gw.process(&requests, 1);
    assert_eq!(render_log(&requests, &verdicts), plain_log, "telemetry perturbed the log");
    for (id, ..) in &docs {
        assert_eq!(
            gw.snapshot(*id).unwrap().render(),
            plain.snapshot(*id).unwrap().render(),
            "{id}: trees diverged under telemetry"
        );
        assert_eq!(gw.certificate(*id), plain.certificate(*id), "{id}: certificates diverged");
    }

    // The instruments actually fired: admission stages accumulated
    // spans, and the verdict counters restate the log exactly.
    let rows = tel.stages().rows();
    for stage in [Stage::Apply, Stage::Splice, Stage::Verdict, Stage::Certify] {
        assert!(rows[stage as usize].count > 0, "no {} spans recorded", stage.name());
    }
    // One Certify span per commit: it covers the whole re-certification
    // (sum fold, outgoing digest, re-chain), and rejected batches never
    // open one.
    let accepted = verdicts.iter().filter(|v| v.is_accepted()).count() as u64;
    assert_eq!(rows[Stage::Certify as usize].count, accepted, "Certify spans ≠ commits");
    gw.record_metrics();
    let snap = tel.registry().snapshot();
    assert_eq!(snap.counter("xuc_gateway_commits_accepted_total"), Some(accepted));
    let rejected = (verdicts.len() as u64) - accepted;
    let rejected_counted = snap.counter("xuc_gateway_rejected_violation_total").unwrap()
        + snap.counter("xuc_gateway_rejected_failed_update_total").unwrap()
        + snap.counter("xuc_gateway_rejected_unknown_document_total").unwrap();
    assert_eq!(rejected_counted, rejected, "rejection counters must restate the log");
}

/// **Ring boundedness.** An 8-slot ring under a 160-request stream
/// fills, counts the overflow in its drop counter, and the run stays
/// byte-identical — a full ring never blocks or sheds work.
#[test]
fn trace_ring_overflow_counts_drops_and_never_blocks() {
    let docs = deployment();
    let requests = zipf_stream(&docs, 0x0B5E_0002, 160, 50);

    let plain = Gateway::new(Signer::new(KEY));
    publish_into(&plain, &docs);
    let plain_log = render_log(&requests, &plain.process(&requests, 1));

    let gw = Gateway::new(Signer::new(KEY));
    let tel = Arc::new(Telemetry::with_clock(Box::new(SystemClock), 8));
    gw.attach_telemetry(Arc::clone(&tel));
    publish_into(&gw, &docs);
    let verdicts = gw.process(&requests, 8);
    assert_eq!(render_log(&requests, &verdicts), plain_log, "full ring perturbed the run");

    assert_eq!(tel.ring().len(), 8, "ring holds exactly its capacity");
    assert!(tel.ring().dropped() > 0, "a 160-request stream must overflow 8 slots");
    assert!(tel.ring().events().len() <= 8);
    // The stage table keeps the full totals — only the ring is bounded.
    let span_total: u64 = tel.stages().rows().iter().map(|r| r.count).sum();
    assert_eq!(span_total, tel.ring().len() as u64 + tel.ring().dropped());
}

/// **Per-request traces.** All spans of one request share its trace
/// tag: an accepted commit's trace ends in a certify span, a rejected
/// commit's trace shows the admission stages but no certify — the
/// drained ring reconstructs what happened to each request.
#[test]
fn trace_tags_group_spans_per_request_and_rejects_skip_certify() {
    let doc = DocId::new("obs-traced");
    let tree = xuc_xtree::parse_term("hospital#1(patient#2(visit#3))").unwrap();
    let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
    let gw = Gateway::new(Signer::new(KEY));
    let tel = Arc::new(Telemetry::new());
    gw.attach_telemetry(Arc::clone(&tel));
    gw.publish(doc, tree, suite).unwrap();

    let ok = Request {
        doc,
        updates: vec![Update::InsertLeaf {
            parent: NodeId::from_raw(2),
            id: NodeId::fresh(),
            label: "visit".into(),
        }],
    };
    assert_eq!(gw.submit(&ok), Verdict::Accepted { commit: 1 });
    let bad = Request { doc, updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(3) }] };
    assert!(matches!(gw.submit(&bad), Verdict::Rejected(_)));
    assert_eq!(tel.stages().rows()[Stage::Certify as usize].count, 1, "one commit, one Certify");

    let events = tel.ring().drain();
    assert!(!events.is_empty());
    let stages_of = |tag: u16| -> Vec<Stage> {
        events.iter().filter(|e| e.tag == tag).map(|e| e.stage).collect()
    };
    let accepted = stages_of(0);
    assert!(accepted.contains(&Stage::Apply), "accepted trace missing apply: {accepted:?}");
    assert!(accepted.contains(&Stage::Certify), "accepted trace missing certify: {accepted:?}");
    let rejected = stages_of(1);
    assert!(rejected.contains(&Stage::Apply), "rejected trace missing apply: {rejected:?}");
    assert!(
        !rejected.contains(&Stage::Certify),
        "a rejected commit must never certify: {rejected:?}"
    );
    assert_eq!(events.len(), accepted.len() + rejected.len(), "no spans outside the two tags");
}

/// **Durability attribution.** On a durable gateway at `group_commit` n
/// (snapshots off) every accepted commit records one `journal_append`
/// span, and the journal records one `fsync` span per sync it runs: one
/// every n commits, counted across documents, since all publishes synced
/// before the first commit. Exact under a 2-worker drain — the journal
/// records its own spans, nothing is inferred from process-wide counters.
#[test]
fn durable_commits_attribute_journal_append_or_fsync() {
    for group_commit in [1, 3] {
        let dir = std::env::temp_dir()
            .join(format!("xuc-obs-journal-{}-{group_commit}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = xuc_service::DurableOptions {
            group_commit,
            snapshot_every: None,
            ..Default::default()
        };
        let gw = Gateway::recover_with_io(
            Signer::new(KEY),
            &dir,
            opts,
            Box::new(SystemClock),
            Arc::new(StdFs),
        )
        .unwrap();
        let tel = Arc::new(Telemetry::new());
        gw.attach_telemetry(Arc::clone(&tel));
        let docs = deployment();
        publish_into(&gw, &docs);

        let requests = zipf_stream(&docs, 0x0B5E_0003, 48, 0);
        let verdicts = gw.process(&requests, 2);
        let accepted = verdicts.iter().filter(|v| v.is_accepted()).count() as u64;
        assert!(accepted >= 2 * group_commit as u64, "{accepted} accepted");

        let rows = tel.stages().rows();
        let ctx = format!("group_commit {group_commit}: {rows:?}");
        assert_eq!(rows[Stage::JournalAppend as usize].count, accepted, "{ctx}");
        assert_eq!(rows[Stage::Fsync as usize].count, accepted / group_commit as u64, "{ctx}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// **Deterministic exposition byte-identity.** For any seed and
    /// skew, the deterministic exposition after draining the stream is
    /// byte-identical at 1, 2 and 8 workers — while the full exposition
    /// carries the scheduling-dependent series (degraded-mode counters,
    /// scraped engine and journal counters) that the deterministic one
    /// must exclude.
    #[test]
    fn deterministic_exposition_is_byte_identical_across_worker_counts(
        seed in 1usize..usize::MAX,
        skew_centi in 0usize..=99,
    ) {
        let docs = deployment();
        let requests = zipf_stream(&docs, seed as u64, 120, skew_centi as u32);
        let mut expositions: Vec<String> = Vec::new();
        for workers in [1usize, 2, 8] {
            let gw = Gateway::new(Signer::new(KEY));
            let tel = Arc::new(Telemetry::new());
            gw.attach_telemetry(Arc::clone(&tel));
            publish_into(&gw, &docs);
            gw.process(&requests, workers);
            gw.record_metrics();
            let snap = tel.registry().snapshot();
            let full = snap.exposition();
            let det = snap.exposition_deterministic();
            // Scheduling-dependent series are classified, not hidden:
            // present in the full exposition, absent from the
            // deterministic one.
            for series in [
                "xuc_gateway_rejected_degraded_total",
                "xuc_gateway_degraded_transitions_total",
                "xuc_gateway_resumes_total",
                "xuc_gateway_halts_total",
                "xuc_engine_eval_set_sweeps_total",
                "xuc_persist_wal_frames_total",
            ] {
                prop_assert!(full.contains(series), "full exposition missing {series}");
                prop_assert!(!det.contains(series), "{series} leaked into the deterministic exposition");
            }
            prop_assert!(det.contains("xuc_gateway_commits_accepted_total"));
            expositions.push(det);
        }
        prop_assert_eq!(
            &expositions[0], &expositions[1],
            "deterministic exposition diverged between 1 and 2 workers (seed {:#x})", seed
        );
        prop_assert_eq!(
            &expositions[0], &expositions[2],
            "deterministic exposition diverged between 1 and 8 workers (seed {:#x})", seed
        );
    }
}
