//! Group commit is the journal's decision: a durable gateway at
//! `group_commit` n syncs once every n accepted commits, a crash loses
//! exactly the unsynced suffix, and a sync that fails escalates through
//! the retry policy. The faults and crashes come from the simulated
//! disk. A log whose header is corrupted is refused, not emptied, and so
//! are journals and snapshots in an older format.

use std::path::Path;
use std::sync::Arc;
use xuc_core::parse_constraint;
use xuc_persist::{read_wal, DecodeError, PersistError, VirtualClock};
use xuc_service::persist::wal_path;
use xuc_service::{
    Crash, DocId, DurableOptions, Gateway, GatewayState, RecoverError, Request, SimDisk, SyncFault,
};
use xuc_sigstore::Signer;
use xuc_xtree::{NodeId, Update};

const KEY: u64 = 0x70C0;
const DIR: &str = "journal";

/// A durable gateway on `disk`, journaling at `group_commit` with
/// snapshots off.
fn durable(disk: &SimDisk, group_commit: usize, clock: Arc<VirtualClock>) -> Gateway {
    let opts = DurableOptions { group_commit, snapshot_every: None };
    let fs = Arc::new(disk.clone());
    Gateway::recover_with_io(Signer::new(KEY), DIR, opts, Box::new(clock), fs).unwrap()
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
    let disk = SimDisk::new();
    let gw = durable(&disk, 3, Arc::new(VirtualClock::new()));
    publish_ward(&gw);
    for _ in 0..5 {
        commit_visit(&gw);
    }
    let on_disk = read_wal(&disk, &wal_path(Path::new(DIR))).unwrap().records;
    assert_eq!(on_disk.len(), 4, "the publish and the first group of three");
    let image = disk.crash(Crash::LoseUnsynced);
    drop(gw);
    let back = durable(&image, 3, Arc::new(VirtualClock::new()));
    assert_eq!(commits(&back), 3, "the two buffered commits are the loss window");
}

/// A group sync that fails transiently is retried under the policy and
/// the gateway keeps serving; one that fails fatally degrades it, and
/// what the earlier groups synced recovers.
#[test]
fn a_failed_group_sync_retries_then_degrades() {
    let disk = SimDisk::new();
    let clock = Arc::new(VirtualClock::new());
    let gw = durable(&disk, 3, Arc::clone(&clock));
    publish_ward(&gw);
    commit_visit(&gw);
    commit_visit(&gw);
    // Only the group's sync touches the disk, so only the third commit
    // meets the fault.
    disk.fail_syncs(SyncFault::Interrupted(1));
    commit_visit(&gw);
    assert_eq!(gw.state(), GatewayState::Serving);
    assert_eq!(gw.journal_transient_retries(), 1);
    assert!(clock.slept_micros() > 0, "the retry backed off");

    commit_visit(&gw);
    commit_visit(&gw);
    disk.fail_syncs(SyncFault::StorageFull);
    assert_eq!(gw.state(), GatewayState::Serving, "the buffered commits did not sync yet");
    commit_visit(&gw);
    assert_eq!(gw.state(), GatewayState::ReadOnly, "the sixth commit's sync failed");
    let image = disk.crash(Crash::LoseUnsynced);
    drop(gw);
    let back = durable(&image, 3, Arc::new(VirtualClock::new()));
    assert_eq!(commits(&back), 3);
}

/// One flipped bit in the header of a log that holds frames is
/// corruption, not a torn header: recovery refuses it as a typed
/// `BadMagic` and leaves every byte of the log in place, instead of
/// emptying it and coming up without the logged commits.
#[test]
fn a_corrupted_wal_header_recovers_as_bad_magic_and_keeps_the_log() {
    let dir = std::env::temp_dir().join(format!("xuc-journal-{}-magic", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let gw = Gateway::recover(Signer::new(KEY), &dir).unwrap();
        publish_ward(&gw);
        commit_visit(&gw);
    }
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    assert!(bytes.len() > 8, "the log holds frames");
    bytes[5] ^= 0x04;
    std::fs::write(&wal, &bytes).unwrap();
    match Gateway::recover(Signer::new(KEY), &dir) {
        Err(RecoverError::Persist(PersistError::Decode(DecodeError::BadMagic))) => {}
        Err(e) => panic!("expected BadMagic, got {e}"),
        Ok(gw) => panic!("served {} commits from a log with a corrupted header", commits(&gw)),
    }
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "recovery touched the log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journals and snapshots in the formats before the dictionary frames
/// (`XUCWAL01`, `XUCSNP03`) are refused as a typed `BadMagic`: no reader
/// for the old layouts is kept. Recovery leaves every byte of both files
/// in place, whichever of the two is old.
#[test]
fn old_format_journals_and_snapshots_recover_as_bad_magic_untouched() {
    let dir = std::env::temp_dir().join(format!("xuc-journal-{}-old", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recover = |dir: &Path| {
        let opts = DurableOptions { group_commit: 1, snapshot_every: Some(2) };
        let (clock, fs) = (Box::new(xuc_persist::SystemClock), Arc::new(xuc_persist::StdFs));
        Gateway::recover_with_io(Signer::new(KEY), dir, opts, clock, fs)
    };
    {
        let gw = recover(&dir).unwrap();
        publish_ward(&gw);
        for _ in 0..3 {
            commit_visit(&gw);
        }
    }
    let wal = wal_path(&dir);
    let snap = xuc_persist::snapshot_path(&dir, ward().as_str());
    let (wal_bytes, snap_bytes) = (std::fs::read(&wal).unwrap(), std::fs::read(&snap).unwrap());
    assert!(wal_bytes.len() > 8, "commit 3 is logged after the snapshot at commit 2");
    for (old, path, magic) in [("journal", &wal, b"XUCWAL01"), ("snapshot", &snap, b"XUCSNP03")] {
        std::fs::write(&wal, &wal_bytes).unwrap();
        std::fs::write(&snap, &snap_bytes).unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        bytes[..8].copy_from_slice(magic);
        std::fs::write(path, &bytes).unwrap();
        let (wal_before, snap_before) =
            (std::fs::read(&wal).unwrap(), std::fs::read(&snap).unwrap());
        match recover(&dir) {
            Err(RecoverError::Persist(PersistError::Decode(DecodeError::BadMagic))) => {}
            Err(e) => panic!("old {old}: expected BadMagic, got {e}"),
            Ok(gw) => panic!("old {old}: served {} commits", commits(&gw)),
        }
        assert_eq!(std::fs::read(&wal).unwrap(), wal_before, "old {old}: the log was touched");
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            snap_before,
            "old {old}: the snapshot was touched"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
