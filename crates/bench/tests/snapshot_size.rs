//! Size of a snapshot. A snapshot holds what replay cannot re-derive — the
//! tree, the suite, the commit counter and the certificate's chain anchor
//! — so on the 10k E-DLT document it weighs the document's publish record
//! plus a few fixed fields, not the tree plus every signed set again.

use std::sync::Arc;
use xuc_service::persist::wal_path;
use xuc_service::{DocId, DurableOptions, Gateway, Request, StdFs, SystemClock};
use xuc_sigstore::Signer;

#[test]
fn a_snapshot_is_the_publish_record_plus_its_anchor() {
    let dir = std::env::temp_dir().join(format!("xuc-snap-size-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions { group_commit: 1, snapshot_every: Some(1) };
    let gw = Gateway::recover_with_io(
        Signer::new(0x512E),
        &dir,
        opts,
        Box::new(SystemClock),
        Arc::new(StdFs),
    )
    .expect("fresh durability dir");
    let (tree, suite) = xuc_bench::edlt_workload(10_000, 12);
    // One relabel-only batch (phone → note: labels only shrink).
    let updates = xuc_workloads::trees::delta_batches(&mut xuc_bench::rng(), &tree, 1, 4, false)
        .pop()
        .expect("one batch");
    let doc = DocId::new("edlt");
    gw.publish(doc, tree, suite).expect("fresh gateway");
    // The log holds its 8-byte magic and the publish frame.
    let publish_record = std::fs::metadata(wal_path(&dir)).unwrap().len() - 8;
    assert!(gw.submit(&Request { doc, updates }).is_accepted());

    let snaps: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .collect();
    assert_eq!(snaps.len(), 1, "cadence 1 snapshots the first commit");
    println!("publish record {publish_record} B, snapshot {} B", snaps[0]);
    assert!(
        snaps[0] <= publish_record + 64,
        "snapshot {} B against a {publish_record} B publish record",
        snaps[0]
    );
    drop(gw);
    let _ = std::fs::remove_dir_all(&dir);
}
