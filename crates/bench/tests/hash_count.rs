//! Operation count of incremental certification (the amrPOD counting
//! method: count the work, assert no timing).
//!
//! One accepted single-relabel commit on the E-DLT workload must hash
//! exactly one set element per splice-journal event — what the edit
//! touched — and nothing proportional to the document's 100k nodes. That
//! holds on the all-linear suite, whose commits ride the splice, and on
//! the same suite plus a predicate constraint, whose commits decline it:
//! the full sweep standing in is journaled too, and only its difference
//! from the baselines is hashed. The element counter is process-wide, so
//! this file holds this one test.

use xuc_automata::PatternSetCompiler;
use xuc_core::{parse_constraint, Constraint};
use xuc_service::{admit_delta_in_place, DocId, Gateway, Request};
use xuc_sigstore::{elements_hashed_count, Signer};
use xuc_xpath::{engine_counters, Evaluator};
use xuc_xtree::{DataTree, DirtyRegion, Update};

/// The splice-journal events one accepted commit of `updates` produces,
/// replayed outside the gateway through the same admission function,
/// and whether its splice declined.
fn journal_events(tree: &DataTree, suite: &[Constraint], updates: &[Update]) -> (u64, bool) {
    let compiled = PatternSetCompiler::compile(suite.iter().map(|c| &c.range));
    let mut ev = Evaluator::from_tree(tree.clone());
    let mut base = ev.eval_set(&compiled);
    let mut region = DirtyRegion::new();
    for u in updates {
        let (_, scope) = ev.apply(u).expect("relabel applies");
        region.record(ev.tree(), &scope);
    }
    let declined = engine_counters().splice_declined;
    let journal = admit_delta_in_place(&mut ev, &compiled, suite, &mut base, &region)
        .expect("the relabel is accepted");
    let declined = engine_counters().splice_declined > declined;
    let events: u64 = (0..suite.len()).map(|i| journal.events(i).len() as u64).sum();
    assert!(events > 0, "the relabel moves set entries");
    (events, declined)
}

/// Elements hashed by submitting `updates` to a fresh gateway serving
/// `tree` under `suite`.
fn elements_hashed(tree: DataTree, suite: Vec<Constraint>, updates: Vec<Update>) -> u64 {
    let doc = DocId::new("edlt");
    let gw = Gateway::new(Signer::new(0x0C0));
    gw.publish(doc, tree, suite).expect("fresh gateway");
    let before = elements_hashed_count();
    assert!(gw.submit(&Request { doc, updates }).is_accepted());
    elements_hashed_count() - before
}

#[test]
fn single_relabel_commit_hashes_one_element_per_journal_event() {
    let (tree, suite) = xuc_bench::edlt_workload(100_000, 12);
    let updates =
        xuc_workloads::trees::delta_batches(&mut xuc_bench::rng(), &tree, 1, 1, false).remove(0);

    let (events, declined) = journal_events(&tree, &suite, &updates);
    assert!(!declined, "an all-linear suite rides the splice");
    let hashed = elements_hashed(tree.clone(), suite.clone(), updates.clone());
    assert_eq!(hashed, events, "elements hashed by one commit");

    // The same relabel under a suite with a predicate constraint.
    let mut suite = suite;
    suite.push(parse_constraint("(/patient[/clinicalTrial], ↓)").expect("static"));
    let (events, declined) = journal_events(&tree, &suite, &updates);
    assert!(declined, "a predicate suite declines the splice");
    let hashed = elements_hashed(tree, suite, updates);
    assert_eq!(hashed, events, "elements hashed by one declined commit");
}
