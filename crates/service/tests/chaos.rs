//! The chaos harness: differential fault-injection runs against the
//! survive-the-fault gateway. Storage faults and crashes come from the
//! simulated disk the gateway journals to (`SimDisk`); session panics
//! from `inject_session_panic` (`test-hooks` feature, enabled for this
//! test target through the crate's self-dev-dependency).
//!
//! The invariants pinned here:
//!
//! * **Transient transparency** — any schedule of absorbable
//!   `Interrupted` sync faults leaves a run *byte-identical* to the
//!   fault-free reference (verdict log, trees, baselines, certificates),
//!   at 1, 2 and 8 workers, with the gateway still `Serving` and the
//!   retry counter showing the absorbed faults (a proptest arm drives
//!   random schedules through the same assertion);
//! * **Fatal containment** — a fatal sync fault (`StorageFull`) seals
//!   the WAL and drops the gateway to `ReadOnly`: no panic and no
//!   process exit at any worker count, reads keep serving, commits
//!   reject with `Degraded`, and every accepted commit is journaled
//!   *or* the gateway is degraded (the journaled-or-degraded
//!   invariant);
//! * **Resume** — `try_resume` fails while the disk is still full, and
//!   once it is healed re-opens the journal, makes the un-journaled
//!   suffix durable, and restores commit service;
//!   a crash after resume recovers byte-identical to the live state;
//! * **Quarantine** — repeated contained panics quarantine one
//!   document; its siblings and its own reads keep serving.

use proptest::prelude::*;
use std::sync::Arc;
use xuc_core::{parse_constraint, Constraint};
use xuc_persist::VirtualClock;
use xuc_service::workload::SplitMix;
use xuc_service::{
    render_log, Crash, DegradedReason, DocId, DurableOptions, Gateway, GatewayState, RejectReason,
    Request, SimDisk, SyncFault, Verdict,
};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, NodeId, Update};

const KEY: u64 = 0xC4A05;

/// Four documents across shards; each keeps an ↑-guarded visit so the
/// stream produces both accepts (inserts) and rejects (guarded deletes).
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
            (DocId::new(&format!("ward-{k}")), tree, suite)
        })
        .collect()
}

fn publish_into(gw: &Gateway, docs: &[(DocId, DataTree, Vec<Constraint>)]) {
    for (id, tree, suite) in docs {
        gw.publish(*id, tree.clone(), suite.clone()).unwrap();
    }
}

/// A seeded request stream: ~2/3 compliant inserts, ~1/3 guarded deletes
/// (rejected). Fresh ids are minted at generation time so every replay
/// presents byte-identical inputs.
fn seeded_stream(
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    seed: u64,
    count: usize,
) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|_| {
            let k = rng.below(docs.len());
            let doc = docs[k].0;
            let patient = NodeId::from_raw(3 * k as u64 + 2);
            let visit = NodeId::from_raw(3 * k as u64 + 3);
            let updates = if rng.below(3) == 0 {
                vec![Update::DeleteSubtree { node: visit }]
            } else {
                vec![Update::InsertLeaf {
                    parent: patient,
                    id: NodeId::fresh(),
                    label: "visit".into(),
                }]
            };
            Request { doc, updates }
        })
        .collect()
}

/// A durable gateway with default options on `disk`.
fn durable(disk: &SimDisk, clock: Arc<VirtualClock>) -> Gateway {
    let fs = Arc::new(disk.clone());
    Gateway::recover_with_io(
        Signer::new(KEY),
        "chaos",
        DurableOptions::default(),
        Box::new(clock),
        fs,
    )
    .unwrap()
}

/// Crashes `gw`'s disk, losing everything unsynced, and recovers from
/// the crash image.
fn crash_and_recover(gw: Gateway, disk: &SimDisk) -> Gateway {
    let image = disk.crash(Crash::LoseUnsynced);
    drop(gw);
    durable(&image, Arc::new(VirtualClock::new()))
}

/// Asserts two gateways hold byte-identical state for every deployment
/// document: tree render, commit counter, full certificate (entries,
/// MACs, hash-chain linkage — `Certificate` derives `Eq`).
fn assert_state_identical(
    a: &Gateway,
    b: &Gateway,
    docs: &[(DocId, DataTree, Vec<Constraint>)],
    ctx: &str,
) {
    for (id, ..) in docs {
        assert_eq!(
            a.snapshot(*id).unwrap().render(),
            b.snapshot(*id).unwrap().render(),
            "{ctx}: {id} trees diverged"
        );
        let da = a.store().document(*id).unwrap();
        let db = b.store().document(*id).unwrap();
        assert_eq!(da.lock().commits(), db.lock().commits(), "{ctx}: {id} commit counters");
        assert_eq!(a.certificate(*id), b.certificate(*id), "{ctx}: {id} certificates diverged");
    }
}

/// Drives `requests` through `gw` in chunks of `chunk`, arming the sync
/// fault from `schedule` (keyed by chunk index) on `disk` before each
/// chunk. Returns the concatenated verdicts.
fn run_with_schedule(
    gw: &Gateway,
    disk: &SimDisk,
    requests: &[Request],
    workers: usize,
    chunk: usize,
    schedule: &[(usize, SyncFault)],
) -> Vec<Verdict> {
    let mut verdicts = Vec::with_capacity(requests.len());
    for (ci, slice) in requests.chunks(chunk).enumerate() {
        for &(at, fault) in schedule {
            if at == ci {
                disk.fail_syncs(fault);
            }
        }
        verdicts.extend(gw.process(slice, workers));
    }
    verdicts
}

/// **Transient transparency at 1/2/8 workers.** A schedule of absorbable
/// transient faults (n < the policy's 4 attempts) is invisible: verdict
/// log, trees and certificates byte-identical to the fault-free durable
/// reference; gateway still `Serving`; the retry counter and the virtual
/// clock prove the production backoff loop actually ran.
#[test]
fn transient_fault_schedules_are_byte_identical_to_fault_free() {
    let docs = deployment();
    let requests = seeded_stream(&docs, 0x7AB5_1E17, 96);
    let schedule: &[(usize, SyncFault)] = &[
        (0, SyncFault::Interrupted(1)),
        (2, SyncFault::Interrupted(3)),
        (5, SyncFault::Interrupted(2)),
        (9, SyncFault::Interrupted(3)),
    ];

    let reference = durable(&SimDisk::new(), Arc::new(VirtualClock::new()));
    publish_into(&reference, &docs);
    let ref_verdicts = reference.process(&requests, 4);
    let ref_log = render_log(&requests, &ref_verdicts);
    assert!(ref_verdicts.iter().any(|v| v.is_accepted()));
    assert!(ref_verdicts.iter().any(|v| !v.is_accepted()));
    assert_eq!(reference.journal_transient_retries(), 0);

    for workers in [1usize, 2, 8] {
        let (disk, clock) = (SimDisk::new(), Arc::new(VirtualClock::new()));
        let gw = durable(&disk, Arc::clone(&clock));
        // The faulted arms run instrumented: telemetry must stay inert
        // through the retry loop, and the accept counter must restate
        // the (fault-free-identical) log.
        let tel = Arc::new(xuc_service::Telemetry::new());
        gw.attach_telemetry(Arc::clone(&tel));
        publish_into(&gw, &docs);
        let verdicts = run_with_schedule(&gw, &disk, &requests, workers, 8, schedule);
        assert_eq!(
            render_log(&requests, &verdicts),
            ref_log,
            "workers={workers}: log diverged under transient faults"
        );
        let accepted = verdicts.iter().filter(|v| v.is_accepted()).count() as u64;
        let snap = tel.registry().snapshot();
        assert_eq!(
            snap.counter("xuc_gateway_commits_accepted_total"),
            Some(accepted),
            "workers={workers}: accept counter diverged from the log"
        );
        assert_eq!(gw.state(), GatewayState::Serving, "workers={workers}");
        assert!(!gw.journal_sealed(), "workers={workers}");
        let retries = gw.journal_transient_retries();
        assert!(retries >= 4, "workers={workers}: only {retries} retries booked");
        assert!(clock.slept_micros() > 0, "workers={workers}: backoff never slept");
        assert_state_identical(&gw, &reference, &docs, &format!("workers={workers}"));
    }
}

/// **Fatal containment + journaled-or-degraded.** A `StorageFull` fault
/// makes the *next* journaled commit degrade the gateway: the commit
/// itself stays accepted (it is real in memory), the WAL seals, further
/// commits reject `Degraded(ReadOnly)`, reads and publishes keep
/// serving. A crash in that state may lose exactly the un-journaled
/// accepted suffix — permitted *because* the gateway was degraded — and
/// recovery still yields a consistent prefix.
#[test]
fn fatal_fault_degrades_to_read_only_and_keeps_serving_reads() {
    let docs = deployment();
    let requests = seeded_stream(&docs, 0x00FA_7A11, 48);
    for workers in [1usize, 2, 8] {
        let name = format!("fatal-{workers}w");
        let disk = SimDisk::new();
        let gw = durable(&disk, Arc::new(VirtualClock::new()));
        publish_into(&gw, &docs);
        let pre = gw.process(&requests[..24], workers);
        let pre_accepts = pre.iter().filter(|v| v.is_accepted()).count();
        assert!(pre_accepts > 0);
        let durable_commits: Vec<u64> = docs
            .iter()
            .map(|(id, ..)| gw.store().document(*id).unwrap().lock().commits())
            .collect();

        disk.fail_syncs(SyncFault::StorageFull);
        // The whole remaining stream drains without a panic or an exit —
        // at every worker count — while the gateway degrades mid-flight.
        let post = gw.process(&requests[24..], workers);
        assert_eq!(gw.state(), GatewayState::ReadOnly, "{name}");
        assert!(gw.journal_sealed(), "{name}");
        let fault = gw.last_fault().expect("degradation records its fault");
        assert!(fault.contains("disk-full"), "{name}: {fault}");
        // At least one commit was accepted-then-degraded (the one that hit
        // the fault) and later commits rejected as degraded.
        assert!(post.iter().any(|v| v.is_accepted()), "{name}");
        assert!(
            post.iter().any(|v| matches!(
                v,
                Verdict::Rejected(RejectReason::Degraded { reason: DegradedReason::ReadOnly })
            )),
            "{name}"
        );
        // Reads and memory publishes survive ReadOnly.
        assert_eq!(gw.read(docs[0].0), Verdict::Served, "{name}");
        let extra = DocId::new(&format!("annex-{workers}"));
        gw.publish(extra, docs[0].1.clone(), docs[0].2.clone()).unwrap();
        assert_eq!(gw.read(extra), Verdict::Served, "{name}");

        // Journaled-or-degraded: the gateway IS degraded, so a crash may
        // lose the accepted-but-unjournaled suffix — but never anything
        // below the durable prefix from before the fault.
        let live_commits: Vec<u64> = docs
            .iter()
            .map(|(id, ..)| gw.store().document(*id).unwrap().lock().commits())
            .collect();
        let rec = crash_and_recover(gw, &disk);
        for (k, (id, ..)) in docs.iter().enumerate() {
            let recovered = rec.store().document(*id).unwrap().lock().commits();
            assert!(
                recovered >= durable_commits[k] && recovered <= live_commits[k],
                "{name}: {id} recovered {recovered} outside [{}, {}]",
                durable_commits[k],
                live_commits[k]
            );
        }
    }
}

/// **Resume.** After a fatal fault, `try_resume` fails while the disk is
/// still full and leaves the gateway read-only; once the disk is healed
/// it re-opens the journal, snapshots everything memory holds beyond the
/// durable prefix
/// (including the accepted commit whose journaling failed and documents
/// published while read-only), and restores commit service. A crash
/// right after resume must recover byte-identical to the live state.
#[test]
fn try_resume_restores_service_and_durability() {
    let docs = deployment();
    let requests = seeded_stream(&docs, 0x05E5_04E5, 60);
    let disk = SimDisk::new();
    let gw = durable(&disk, Arc::new(VirtualClock::new()));
    publish_into(&gw, &docs);
    gw.process(&requests[..20], 2);

    disk.fail_syncs(SyncFault::StorageFull);
    gw.process(&requests[20..40], 2);
    assert_eq!(gw.state(), GatewayState::ReadOnly);
    // A document published while degraded: memory-only until resume.
    let annex = DocId::new("resume-annex");
    gw.publish(annex, docs[0].1.clone(), docs[0].2.clone()).unwrap();

    assert!(matches!(gw.try_resume(), Err(xuc_service::ResumeError::Persist(_))));
    assert_eq!(gw.state(), GatewayState::ReadOnly, "a failed resume stays read-only");
    disk.heal();
    gw.try_resume().expect("journal re-opens fine");
    assert_eq!(gw.state(), GatewayState::Serving);
    assert!(!gw.journal_sealed());
    // Commit service is back: the rest of the stream accepts/rejects on
    // its merits, including against the resumed-annex document.
    let tail = gw.process(&requests[40..], 2);
    assert!(tail.iter().any(|v| v.is_accepted()));
    assert!(tail.iter().all(|v| !matches!(v, Verdict::Rejected(RejectReason::Degraded { .. }))));
    let annex_req = Request {
        doc: annex,
        updates: vec![Update::InsertLeaf {
            parent: NodeId::from_raw(2),
            id: NodeId::fresh(),
            label: "visit".into(),
        }],
    };
    assert_eq!(gw.submit(&annex_req), Verdict::Accepted { commit: 1 });

    // Everything the live gateway holds — fault-window commits included —
    // is durable again: a crash recovers byte-identical.
    let mut all = docs.clone();
    all.push((annex, docs[0].1.clone(), docs[0].2.clone()));
    let live_state: Vec<(DocId, String, u64)> = all
        .iter()
        .map(|(id, ..)| {
            let d = gw.store().document(*id).unwrap();
            let d = d.lock();
            (*id, d.tree().render(), d.commits())
        })
        .collect();
    let live_certs: Vec<_> = all.iter().map(|(id, ..)| gw.certificate(*id).unwrap()).collect();
    let rec = crash_and_recover(gw, &disk);
    for ((id, render, commits), cert) in live_state.iter().zip(&live_certs) {
        let arc = rec.store().document(*id).unwrap();
        {
            let d = arc.lock();
            assert_eq!(&d.tree().render(), render, "{id}: tree after resume+crash");
            assert_eq!(&d.commits(), commits, "{id}: commit counter after resume+crash");
        }
        assert_eq!(
            rec.certificate(*id).as_ref(),
            Some(cert),
            "{id}: certificate after resume+crash"
        );
    }

    // Resume on a healthy gateway is an explicit error, not a no-op.
    assert!(matches!(rec.try_resume(), Err(xuc_service::ResumeError::NotDegraded)));
}

/// **Quarantine isolation.** Repeated contained panics against one
/// document quarantine *that document's commits only*: siblings commit,
/// the quarantined document still reads, and lifting the quarantine
/// restores it. Trigger counts are per-document sequence numbers, so the
/// behavior is worker-count deterministic by construction.
#[test]
fn quarantine_isolates_the_panicking_document() {
    let docs = deployment();
    let gw = durable(&SimDisk::new(), Arc::new(VirtualClock::new()));
    publish_into(&gw, &docs);
    gw.set_quarantine_threshold(2);
    let (sick, healthy) = (docs[0].0, docs[1].0);
    let insert = |doc: DocId, k: usize| Request {
        doc,
        updates: vec![Update::InsertLeaf {
            parent: NodeId::from_raw(3 * k as u64 + 2),
            id: NodeId::fresh(),
            label: "visit".into(),
        }],
    };

    gw.inject_session_panic(sick, 2);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let v1 = gw.submit(&insert(sick, 0));
    let v2 = gw.submit(&insert(sick, 0));
    std::panic::set_hook(prev);
    assert!(matches!(v1, Verdict::Rejected(RejectReason::Internal { .. })), "{v1:?}");
    assert!(matches!(v2, Verdict::Rejected(RejectReason::Internal { .. })), "{v2:?}");
    assert_eq!(gw.contained_panics(sick), 2);
    assert!(gw.is_quarantined(sick));

    // The quarantined document refuses commits before evaluation…
    assert_eq!(
        gw.submit(&insert(sick, 0)),
        Verdict::Rejected(RejectReason::Degraded { reason: DegradedReason::Quarantined })
    );
    // …but still reads, and its sibling is untouched.
    assert_eq!(gw.read(sick), Verdict::Served);
    assert_eq!(gw.submit(&insert(healthy, 1)), Verdict::Accepted { commit: 1 });
    assert_eq!(gw.state(), GatewayState::Serving, "quarantine is per-document, not gateway-wide");

    gw.lift_quarantine(sick);
    assert!(!gw.is_quarantined(sick));
    assert_eq!(gw.submit(&insert(sick, 0)), Verdict::Accepted { commit: 1 });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 4: *any* schedule of absorbable transient faults yields
    /// verdicts, trees and certificates byte-identical to the fault-free
    /// run (the fault-free reference is in-memory — durability must not
    /// even change observable behavior, let alone faults).
    #[test]
    fn random_transient_schedules_are_invisible(
        seed in 1usize..usize::MAX,
        faults in proptest::collection::vec((0usize..12, 1usize..=3), 1..6),
        workers in 1usize..=4,
    ) {
        let docs = deployment();
        let requests = seeded_stream(&docs, seed as u64, 48);
        let reference = Gateway::new(Signer::new(KEY));
        publish_into(&reference, &docs);
        let ref_log = render_log(&requests, &reference.process(&requests, workers));

        let schedule: Vec<(usize, SyncFault)> =
            faults.iter().map(|&(at, n)| (at, SyncFault::Interrupted(n as u32))).collect();
        let disk = SimDisk::new();
        let gw = durable(&disk, Arc::new(VirtualClock::new()));
        publish_into(&gw, &docs);
        let verdicts = run_with_schedule(&gw, &disk, &requests, workers, 4, &schedule);
        prop_assert_eq!(render_log(&requests, &verdicts), ref_log);
        prop_assert_eq!(gw.state(), GatewayState::Serving);
        for (id, ..) in &docs {
            prop_assert_eq!(
                gw.snapshot(*id).unwrap().render(),
                reference.snapshot(*id).unwrap().render()
            );
            prop_assert_eq!(gw.certificate(*id), reference.certificate(*id));
        }
    }
}
