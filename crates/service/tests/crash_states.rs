//! The crash-state explorer: a fixed durable scenario runs on the
//! simulated disk, and every crash state its crash model allows after
//! every operation of the run is recovered and judged.
//!
//! The scenario: two documents are published; commits to both; each
//! document's snapshot, the second of which lets the journal truncate the
//! log; more commits; a full disk that degrades the gateway, a
//! `try_resume` that fails while the disk is full and one that succeeds
//! once it is healed; more commits.
//!
//! The crash model (see `xuc_persist::sim`): unsynced writes may be lost
//! or torn, and a create or rename persists only once its directory is
//! synced. Each state must recover either as a typed `RecoverError`, or
//! to a state where every document is at a commit of its live history —
//! tree and certificate equal to that commit's, the certificate verifying
//! against the tree — and at or past what the run guaranteed by the time
//! of the crash:
//!
//! * at `group_commit` 1, every acknowledged commit: a publish, a commit
//!   accepted while the gateway kept serving, and everything a successful
//!   `try_resume` made durable;
//! * at `group_commit` 3, every commit a completed sync covered: a
//!   completed log sync covers every commit accepted so far, a completed
//!   directory sync (a snapshot install) the document it snapshotted.
//!
//! The state counts are deterministic and pinned.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use xuc_core::parse_constraint;
use xuc_persist::VirtualClock;
use xuc_service::persist::wal_path;
use xuc_service::{
    DocId, DurableOptions, Gateway, GatewayState, RecoverError, Request, SimDisk, SyncFault,
};
use xuc_sigstore::{Certificate, Signer};
use xuc_xtree::{NodeId, Update};

const KEY: u64 = 0xC5A5;
const DIR: &str = "gw";

fn durable(disk: &SimDisk, group_commit: usize) -> Result<Gateway, RecoverError> {
    let opts =
        DurableOptions { group_commit, snapshot_every: Some(4), ..DurableOptions::default() };
    let (clock, fs) = (Box::new(VirtualClock::new()), Arc::new(disk.clone()));
    Gateway::recover_with_io(Signer::new(KEY), DIR, opts, clock, fs)
}

/// The two documents: a ward each, `(/patient/visit, ↑)` guarding its
/// visits. Ids are fixed, so every run writes the same bytes.
fn docs() -> [(DocId, u64); 2] {
    [(DocId::new("ward-a"), 1), (DocId::new("ward-b"), 11)]
}

/// One step of the scenario.
enum Step {
    /// Insert a visit under the document's patient.
    Commit(usize),
    /// Arm or clear the full disk.
    Full(bool),
    /// Resume; whether it must succeed.
    Resume(bool),
}

fn scenario() -> Vec<Step> {
    use Step::*;
    let mut steps: Vec<Step> = Vec::new();
    steps.extend((0..4).map(|_| Commit(0))); // A's snapshot at 4
    steps.extend((0..4).map(|_| Commit(1))); // B's at 4: the log truncates
    steps.extend([Commit(0), Commit(0), Commit(1)]);
    steps.extend([Full(true), Commit(0), Commit(1), Commit(0), Commit(1)]);
    steps.extend([Resume(false), Full(false), Resume(true), Commit(0), Commit(1)]);
    steps
}

/// What the live run did: each document's history (tree render and
/// certificate after commit `c`, publish at 0) and the guarantees it gave,
/// as (operations issued, document, commit).
struct Run {
    disk: SimDisk,
    history: HashMap<DocId, Vec<(String, Certificate)>>,
    acked: Vec<(usize, DocId, u64)>,
    covered: Vec<(usize, DocId, u64)>,
}

fn run(group_commit: usize) -> Run {
    let disk = SimDisk::new();
    let gw = durable(&disk, group_commit).unwrap();
    let wal = wal_path(Path::new(DIR));
    let mut run =
        Run { disk: disk.clone(), history: HashMap::new(), acked: vec![], covered: vec![] };
    let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
    let state =
        |gw: &Gateway, id: DocId| (gw.snapshot(id).unwrap().render(), gw.certificate(id).unwrap());
    let commits = |gw: &Gateway, id: DocId| gw.store().document(id).unwrap().lock().commits();
    for (id, root) in docs() {
        let term = format!("ward#{root}(patient#{}(visit#{}))", root + 1, root + 2);
        gw.publish(id, xuc_xtree::parse_term(&term).unwrap(), suite.clone()).unwrap();
        run.history.insert(id, vec![state(&gw, id)]);
        run.acked.push((disk.ops(), id, 0));
    }
    let mut syncs = (disk.syncs(&wal), disk.syncs(Path::new(DIR)));
    let mut next_id = 1_000;
    for step in scenario() {
        let mut stepped = None;
        match step {
            Step::Commit(k) => {
                let (id, root) = docs()[k];
                next_id += 1;
                let insert = Update::InsertLeaf {
                    parent: NodeId::from_raw(root + 1),
                    id: NodeId::from_raw(next_id),
                    label: "visit".into(),
                };
                if gw.submit(&Request { doc: id, updates: vec![insert] }).is_accepted() {
                    run.history.get_mut(&id).unwrap().push(state(&gw, id));
                    if gw.state() == GatewayState::Serving {
                        run.acked.push((disk.ops(), id, commits(&gw, id)));
                    }
                }
                stepped = Some(id);
            }
            Step::Full(true) => disk.fail_syncs(SyncFault::StorageFull),
            Step::Full(false) => disk.heal(),
            Step::Resume(succeeds) => {
                assert_eq!(gw.try_resume().is_ok(), succeeds);
                if succeeds {
                    for (id, _) in docs() {
                        run.acked.push((disk.ops(), id, commits(&gw, id)));
                    }
                }
            }
        }
        let now = (disk.syncs(&wal), disk.syncs(Path::new(DIR)));
        for (id, _) in docs() {
            if now.0 > syncs.0 || (now.1 > syncs.1 && stepped == Some(id)) {
                run.covered.push((disk.ops(), id, commits(&gw, id)));
            }
        }
        syncs = now;
    }
    assert_eq!(gw.state(), GatewayState::Serving);
    run
}

/// Recovers every crash state of `run`, judging each against what the
/// run `guaranteed` by the time of the crash. Returns the state count and
/// how many states recovered as typed errors.
fn explore(run: &Run, guaranteed: &[(usize, DocId, u64)]) -> (usize, usize) {
    let states = run.disk.crash_states();
    let mut errors = 0;
    for state in &states {
        let at = state.after_ops;
        let ctx = &state.label;
        let gw = match durable(&state.disk, 1) {
            Ok(gw) => gw,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        for (id, _) in docs() {
            let required = guaranteed.iter().filter(|g| g.0 <= at && g.1 == id).map(|g| g.2).max();
            let Some(doc) = gw.store().document(id) else {
                assert!(required.is_none(), "{ctx}: {id} is gone, {required:?} was guaranteed");
                continue;
            };
            let c = doc.lock().commits();
            assert!(c >= required.unwrap_or(0), "{ctx}: {id} recovered commit {c} < {required:?}");
            let (render, cert) = run.history[&id]
                .get(c as usize)
                .unwrap_or_else(|| panic!("{ctx}: {id} recovered commit {c}, never made"));
            let tree = gw.snapshot(id).unwrap();
            assert_eq!(&tree.render(), render, "{ctx}: {id} tree is not commit {c}'s");
            assert_eq!(&gw.certificate(id).unwrap(), cert, "{ctx}: {id} certificate");
            assert!(cert.verify(KEY, &tree).is_ok(), "{ctx}: {id} certificate fails verify");
        }
    }
    (states.len(), errors)
}

#[test]
fn every_crash_state_keeps_every_acknowledged_commit() {
    let run = run(1);
    let (states, errors) = explore(&run, &run.acked);
    println!("group_commit 1: {states} crash states over {} operations", run.disk.ops());
    assert_eq!((states, errors), (52, 0), "crash states and typed errors are pinned");
}

#[test]
fn every_crash_state_keeps_every_synced_commit_under_group_commit() {
    let run = run(3);
    let (states, errors) = explore(&run, &run.covered);
    println!("group_commit 3: {states} crash states over {} operations", run.disk.ops());
    assert_eq!((states, errors), (30, 0), "crash states and typed errors are pinned");
}
