//! bench_eval_engine — the evaluation-engine speedup that motivates the
//! bitset `Evaluator` (EXPERIMENTS.md §E-EV).
//!
//! Workload: one random 1 000-node document, 32 random `XP{/,[],//,*}`
//! patterns (both deterministic). Three ways to evaluate the batch:
//!
//! * `cold_per_call` — the old shape: `eval::eval` per pattern, which
//!   rebuilds the dense snapshot for every single call;
//! * `amortized` — one [`Evaluator`] built per batch, then 32 `eval`s
//!   against the shared snapshot;
//! * `batch_eval_all` — the same through the `eval_all` entry point.
//!
//! The acceptance bar for the engine is `amortized ≥ 3× cold_per_call` on
//! this workload; measured numbers are recorded in EXPERIMENTS.md.
//!
//! A second group (`bench_refresh`, EXPERIMENTS.md §E-IR) measures the
//! edit-scope refresh protocol: keeping an evaluator in sync across an
//! apply/undo relabel via `refresh_after` (two bitset-word patches) versus
//! the full `refresh` re-walk, plus the structural-edit path that relinks
//! the subtree its scope names.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xuc_xpath::{eval, Evaluator, Pattern};
use xuc_xtree::{apply_undoable, undo, DataTree, Update};

const PATTERNS: usize = 32;

/// The same deterministic workload `run_experiments` §E-EV measures, so
/// the two series in EXPERIMENTS.md describe one document/pattern batch.
fn workload(nodes: usize) -> (DataTree, Vec<Pattern>) {
    xuc_bench::eval_engine_workload(nodes, PATTERNS)
}

fn bench_eval_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_eval_engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1000));
    for nodes in [100usize, 1_000, 4_000] {
        let (tree, patterns) = workload(nodes);

        g.bench_with_input(BenchmarkId::new("cold_per_call", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for q in &patterns {
                    total += eval::eval(black_box(q), black_box(&tree)).len();
                }
                total
            })
        });

        g.bench_with_input(BenchmarkId::new("amortized", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut ev = Evaluator::new(black_box(&tree));
                let mut total = 0usize;
                for q in &patterns {
                    total += ev.eval(black_box(q)).len();
                }
                total
            })
        });

        g.bench_with_input(BenchmarkId::new("batch_eval_all", nodes), &nodes, |b, _| {
            b.iter(|| {
                Evaluator::new(black_box(&tree))
                    .eval_all(black_box(&patterns))
                    .iter()
                    .map(|s| s.len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

/// E-IR: per-edit evaluator re-sync cost — the edit-scope protocol against
/// the full re-walk, for a relabel (patchable) and a detach (structural).
fn bench_refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_refresh");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1000));
    for nodes in [1_000usize, 10_000] {
        let (tree, patterns) = xuc_bench::eir_workload(nodes);
        let mut work = tree.clone();
        let mut ev = Evaluator::new(&work);
        for q in &patterns {
            ev.eval(q); // prime the label-row cache
        }
        let ids = work.node_ids();
        let labels = work.labels();
        let target = ids[ids.len() / 2];
        let relabel = Update::Relabel { node: target, label: labels[0] };
        let detach = Update::DeleteSubtree { node: target };

        g.bench_with_input(BenchmarkId::new("relabel_full_refresh", nodes), &nodes, |b, _| {
            b.iter(|| {
                let (token, _scope) = apply_undoable(&mut work, black_box(&relabel)).unwrap();
                ev.refresh(&work);
                undo(&mut work, token).unwrap();
                ev.refresh(&work);
                ev.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("relabel_scoped_refresh", nodes), &nodes, |b, _| {
            b.iter(|| {
                let (token, scope) = apply_undoable(&mut work, black_box(&relabel)).unwrap();
                ev.refresh_after(&work, &scope);
                let scope = undo(&mut work, token).unwrap();
                ev.refresh_after(&work, &scope);
                ev.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("detach_scoped_refresh", nodes), &nodes, |b, _| {
            b.iter(|| {
                let (token, scope) = apply_undoable(&mut work, black_box(&detach)).unwrap();
                ev.refresh_after(&work, &scope);
                let scope = undo(&mut work, token).unwrap();
                ev.refresh_after(&work, &scope);
                ev.len()
            })
        });
    }
    g.finish();
}

/// Sanity: the cold and batch paths agree on the workload.
fn bench_agreement_check(c: &mut Criterion) {
    let (tree, patterns) = workload(1_000);
    c.bench_function("bench_eval_engine/agreement_check", |b| {
        b.iter(|| {
            let cold: Vec<_> = patterns.iter().map(|q| eval::eval(q, &tree)).collect();
            let batch = Evaluator::new(&tree).eval_all(&patterns);
            assert_eq!(cold, batch);
            batch.len()
        })
    });
}

criterion_group! {
    name = eval_engine;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1000));
    targets = bench_eval_engine, bench_refresh, bench_agreement_check
}
criterion_main!(eval_engine);
