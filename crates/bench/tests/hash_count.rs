//! Operation count of incremental certification (the amrPOD counting
//! method: count the work, assert no timing).
//!
//! One accepted single-relabel commit on the E-DLT workload must hash
//! exactly one set element per splice-journal event — what the edit
//! touched — and nothing proportional to the document's 100k nodes. The
//! element counter is process-wide, so this file holds this one test.

use xuc_automata::PatternSetCompiler;
use xuc_service::{admit_delta_in_place, DocId, Gateway, Request};
use xuc_sigstore::{elements_hashed_count, Signer};
use xuc_xpath::Evaluator;
use xuc_xtree::{apply_undoable, DirtyRegion};

#[test]
fn single_relabel_commit_hashes_one_element_per_journal_event() {
    let (tree, suite) = xuc_bench::edlt_workload(100_000, 12);
    let updates =
        xuc_workloads::trees::delta_batches(&mut xuc_bench::rng(), &tree, 1, 1, false).remove(0);

    // The splice journal this commit produces, replayed outside the
    // gateway through the same admission function.
    let compiled = PatternSetCompiler::compile(suite.iter().map(|c| &c.range));
    let mut work = tree.clone();
    let mut ev = Evaluator::new(&work);
    let mut base = ev.eval_set(&compiled);
    let mut region = DirtyRegion::new();
    for u in &updates {
        let (_, scope) = apply_undoable(&mut work, u).expect("relabel applies");
        ev.refresh_after(&work, &scope);
        region.record(&work, &scope);
    }
    let journal = admit_delta_in_place(&mut ev, &compiled, &suite, &mut base, &region)
        .expect("the relabel is accepted")
        .expect("an all-linear suite splices");
    let events: u64 = (0..suite.len()).map(|i| journal.events(i).len() as u64).sum();
    assert!(events > 0, "the relabel moves set entries");

    let doc = DocId::new("edlt");
    let gw = Gateway::new(Signer::new(0x0C0));
    gw.publish(doc, tree, suite).expect("fresh gateway");
    let before = elements_hashed_count();
    assert!(gw.submit(&Request { doc, updates }).is_accepted());
    assert_eq!(elements_hashed_count() - before, events, "elements hashed by one commit");
}
