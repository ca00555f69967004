//! Operation count of a Zipf-skewed request stream (the amrPOD counting
//! method: count the work, assert no timing).
//!
//! `seeded_zipf_requests` draws inserts, subtree and node deletes, moves
//! and relabels anywhere in a document, the hospital root included. Under
//! the all-linear E-DLT suite every admission must splice: no splice
//! declines and no full `eval_set` sweep runs, whatever the depth of the
//! edits. With the predicate constraint `(/patient[/clinicalTrial], ↓)`
//! added to one document, exactly that document's admissions decline to
//! the full pass. The engine counters are process-wide, so this file
//! holds this one test.

use rand::SeedableRng;
use xuc_service::workload::{seeded_zipf_requests, Deployment};
use xuc_service::{DocId, Gateway, RejectReason, Verdict};
use xuc_sigstore::Signer;
use xuc_workloads::trees::hospital_sized;

const DOCS: usize = 8;
const REQUESTS: usize = 2_048;

/// `DOCS` 2k-node hospital documents under the E-DLT suite; the first
/// (the hottest under the Zipf draw) also carries `predicate`.
fn fleet(predicate: Option<&str>) -> Deployment {
    let suite = xuc_bench::edlt_workload(2_000, 12).1;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x21FF);
    (0..DOCS)
        .map(|i| {
            let mut suite = suite.clone();
            if let (0, Some(p)) = (i, predicate) {
                suite.push(xuc_core::parse_constraint(p).expect("static"));
            }
            (DocId::new(&format!("z{i}")), hospital_sized(&mut rng, 2_000), suite)
        })
        .collect()
}

/// Publishes `fleet`, submits the stream one request at a time, and
/// returns the engine counters the submits moved plus the number of
/// admissions (requests whose updates all applied) per document.
fn replay(fleet: Deployment) -> (xuc_xpath::EngineCounters, Vec<u64>) {
    let refs: Vec<(DocId, &xuc_xtree::DataTree)> = fleet.iter().map(|(d, t, _)| (*d, t)).collect();
    let requests = seeded_zipf_requests(&refs, &["note"], 7, REQUESTS, 99);
    let ids: Vec<DocId> = fleet.iter().map(|(d, _, _)| *d).collect();
    let gw = Gateway::new(Signer::new(0x21FF));
    for (doc, tree, suite) in fleet {
        gw.publish(doc, tree, suite).expect("fresh gateway");
    }
    let mut admissions = vec![0; DOCS];
    let before = xuc_xpath::engine_counters();
    for req in &requests {
        let admitted = match gw.submit(req) {
            Verdict::Accepted { .. } | Verdict::Rejected(RejectReason::Violation { .. }) => true,
            Verdict::Rejected(RejectReason::FailedUpdate { .. }) => false,
            other => panic!("{req:?}: {other:?}"),
        };
        if admitted {
            admissions[ids.iter().position(|d| *d == req.doc).expect("fleet doc")] += 1;
        }
    }
    (xuc_xpath::engine_counters().since(&before), admissions)
}

#[test]
fn zipf_stream_splices_every_linear_admission() {
    let (e, admissions) = replay(fleet(None));
    let total: u64 = admissions.iter().sum();
    assert!(total > REQUESTS as u64 / 4, "{total} admissions");
    assert_eq!(e.splice_attempts, total, "one splice per admission");
    assert_eq!(e.splice_declined, 0, "no linear admission declines: {e:?}");
    assert_eq!(e.eval_set_sweeps, 0, "no full sweep: {e:?}");

    let (e, admissions) = replay(fleet(Some("(/patient[/clinicalTrial], ↓)")));
    assert!(admissions[0] > 0, "the hottest document is admitted to");
    assert_eq!(e.splice_attempts, admissions.iter().sum::<u64>());
    assert_eq!(e.splice_declined, admissions[0], "only the predicate document declines");
    assert_eq!(e.eval_set_sweeps, admissions[0], "one full pass per decline");
}
