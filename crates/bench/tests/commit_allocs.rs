//! Allocation count of one accepted commit (an operation count, not a
//! timing): a single relabel must allocate the same number of times
//! whether the suite holds 12 constraints or 24, when the 12 extra ones
//! select nothing the edit touches. Certification hashes each
//! constraint's text, rendered once when the document was published, so
//! a constraint the edit leaves alone costs its commit no allocation.
//! The counting allocator is process-wide, so this file holds this one
//! test; the count itself is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xuc_core::{parse_constraint, Constraint};
use xuc_service::{DocId, Gateway, Request};
use xuc_sigstore::Signer;
use xuc_xtree::{DataTree, Update};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// `System`, counting every allocation and reallocation on the calling
/// thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; `note` only updates a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by each of `relabels`' commits, submitted one at a
/// time to a fresh gateway serving `tree` under `suite`, after `warm`
/// commits of the same kind.
fn commit_allocations(tree: &DataTree, suite: &[Constraint], relabels: &[Update]) -> Vec<u64> {
    let doc = DocId::new("allocs");
    let gw = Gateway::new(Signer::new(0xA110C));
    gw.publish(doc, tree.clone(), suite.to_vec()).expect("fresh gateway");
    let requests: Vec<Request> =
        relabels.iter().map(|u| Request { doc, updates: vec![u.clone()] }).collect();
    let (warm, measured) = requests.split_at(4);
    for r in warm {
        assert!(gw.submit(r).is_accepted());
    }
    measured
        .iter()
        .map(|r| {
            let before = ALLOCATIONS.with(Cell::get);
            assert!(gw.submit(r).is_accepted());
            ALLOCATIONS.with(Cell::get) - before
        })
        .collect()
}

#[test]
fn commit_allocations_do_not_grow_with_untouched_constraints() {
    let (tree, suite) = xuc_bench::edlt_workload(10_000, 12);
    assert_eq!(suite.len(), 12);
    let relabels =
        xuc_workloads::trees::delta_batches(&mut xuc_bench::rng(), &tree, 1, 8, false).remove(0);
    // Twelve more ranges over a label the document does not hold.
    let mut wide = suite.clone();
    wide.extend((0..12).map(|i| {
        let range = if i % 2 == 0 { format!("/patient/ward{i}") } else { format!("//ward{i}") };
        parse_constraint(&format!("({range}, ↓)")).expect("static")
    }));
    let narrow = commit_allocations(&tree, &suite, &relabels);
    let wide = commit_allocations(&tree, &wide, &relabels);
    assert!(narrow.iter().all(|&n| n > 0), "a commit allocates: {narrow:?}");
    assert_eq!(narrow, wide, "allocations per commit, 12 vs 24 constraints");
}
