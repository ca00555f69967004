//! Group commit is the journal's decision: a durable gateway at
//! `group_commit` n syncs once every n accepted commits, a crash loses
//! exactly the unsynced suffix, and a sync that fails escalates through
//! the retry policy.

use std::sync::Arc;
use xuc_core::parse_constraint;
use xuc_persist::{read_wal, VirtualClock};
use xuc_service::persist::wal_path;
use xuc_service::{DocId, DurableOptions, Gateway, GatewayState, Request, WriteFault};
use xuc_sigstore::Signer;
use xuc_xtree::{NodeId, Update};

const KEY: u64 = 0x70C0;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xuc-journal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable gateway with one published document, journaling at
/// `group_commit` with snapshots off.
fn durable(dir: &std::path::Path, group_commit: usize, clock: Arc<VirtualClock>) -> Gateway {
    let opts = DurableOptions { group_commit, snapshot_every: None, ..DurableOptions::default() };
    Gateway::recover_with_clock(Signer::new(KEY), dir, opts, Box::new(clock)).unwrap()
}

fn ward() -> DocId {
    DocId::new("ward")
}

fn publish_ward(gw: &Gateway) {
    let tree = xuc_xtree::parse_term("h#1(patient#2(visit#3))").unwrap();
    gw.publish(ward(), tree, vec![parse_constraint("(/patient/visit, ↑)").unwrap()]).unwrap();
}

fn commit_visit(gw: &Gateway) {
    let visit = Update::InsertLeaf {
        parent: NodeId::from_raw(2),
        id: NodeId::fresh(),
        label: "visit".into(),
    };
    let request = Request { doc: ward(), updates: vec![visit] };
    assert!(gw.submit(&request).is_accepted());
}

fn commits(gw: &Gateway) -> u64 {
    gw.store().document(ward()).unwrap().lock().commits()
}

/// At `group_commit` 3 the journal syncs after the third commit and
/// buffers the next two: the log on disk holds the publish and three
/// commits, and a crash that loses the buffer recovers three.
#[test]
fn group_commit_buffers_until_threshold() {
    let dir = tmp_dir("group");
    let gw = durable(&dir, 3, Arc::new(VirtualClock::new()));
    publish_ward(&gw);
    for _ in 0..5 {
        commit_visit(&gw);
    }
    let on_disk = read_wal(&wal_path(&dir)).unwrap().records;
    assert_eq!(on_disk.len(), 4, "the publish and the first group of three");
    gw.simulate_crash(WriteFault::LoseBuffered).unwrap();
    let back = durable(&dir, 3, Arc::new(VirtualClock::new()));
    assert_eq!(commits(&back), 3, "the two buffered commits are the loss window");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A group sync that fails transiently is retried under the policy and
/// the gateway keeps serving; one that fails fatally degrades it, and
/// what the earlier groups synced recovers.
#[test]
fn a_failed_group_sync_retries_then_degrades() {
    let dir = tmp_dir("sync-fault");
    let clock = Arc::new(VirtualClock::new());
    let gw = durable(&dir, 3, Arc::clone(&clock));
    publish_ward(&gw);
    commit_visit(&gw);
    commit_visit(&gw);
    // Only the group's sync touches the disk, so only the third commit
    // meets the fault.
    gw.inject_journal_fault(WriteFault::TransientOnce { n: 1 });
    commit_visit(&gw);
    assert_eq!(gw.state(), GatewayState::Serving);
    assert_eq!(gw.journal_transient_retries(), 1);
    assert!(clock.slept_micros() > 0, "the retry backed off");

    commit_visit(&gw);
    commit_visit(&gw);
    gw.inject_journal_fault(WriteFault::DiskFull);
    assert_eq!(gw.state(), GatewayState::Serving, "the buffered commits did not sync yet");
    commit_visit(&gw);
    assert_eq!(gw.state(), GatewayState::ReadOnly, "the sixth commit's sync failed");
    gw.simulate_crash(WriteFault::LoseBuffered).unwrap();
    let back = durable(&dir, 3, Arc::new(VirtualClock::new()));
    assert_eq!(commits(&back), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
