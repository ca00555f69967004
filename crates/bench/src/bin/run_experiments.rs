//! Prints the paper-style experiment tables used by EXPERIMENTS.md:
//! one section per experiment id of DESIGN.md §3, each a parameter sweep
//! with median wall times and the decision outcomes.
//!
//! Run with `cargo run --release -p xuc-bench --bin run_experiments`.
//!
//! Two environment knobs:
//!
//! * `XUC_SMOKE=1` — reduced-size sweeps for CI smoke runs: every decision
//!   assertion still fires, but the long parameter tails are dropped and
//!   wall-clock perf floors are reported without failing the exit code
//!   (timings on shared CI runners are not trustworthy).
//! * `XUC_BENCH_JSON=<path>` — where to write the machine-readable results
//!   (default `BENCH_results.json` in the working directory).

use std::sync::Arc;
use xuc_automata::PatternSetCompiler;
use xuc_bench as wl;
use xuc_bench::load::{saturation_throughput, simulate, SimConfig};
use xuc_core::implication::search::find_counterexample_sharded;
use xuc_core::{implication, instance};
use xuc_service::reference::{admit, FullPass};
use xuc_service::workload::{seeded_arrivals, seeded_zipf_requests};
use xuc_service::{
    admit_delta_in_place, render_arrival_log, render_log, DocId, DurableOptions, Gateway,
    LoadOptions, Request, StdFs, SuiteCache, SystemClock, Telemetry, Verdict,
};
use xuc_sigstore::Signer;
use xuc_xpath::{engine_counters, Evaluator};
use xuc_xtree::{apply_undoable, undo, DataTree, DirtyRegion, NodeId, Update};

/// Collects every printed measurement so the run also emits
/// `BENCH_results.json` (experiment id → measured µs / ratios), letting the
/// perf trajectory be tracked across PRs.
struct Report {
    smoke: bool,
    perf_regression: bool,
    /// `"<id>.<param>.<value>"` → median µs, in print order.
    rows_us: Vec<(String, f64)>,
    /// `"<id>.<metric>"` → dimensionless value (ratios, speedups).
    metrics: Vec<(String, f64)>,
}

impl Report {
    fn new() -> Report {
        Report {
            smoke: std::env::var("XUC_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"),
            perf_regression: false,
            rows_us: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn header(&self, id: &str, title: &str, claim: &str) {
        println!();
        println!("== {id}: {title}");
        println!("   paper claim: {claim}");
    }

    fn row(&mut self, id: &str, param: &str, value: usize, micros: f64, note: &str) {
        println!("   {param:>10} = {value:<6} {micros:>12.1} µs   {note}");
        self.rows_us.push((format!("{id}.{param}.{value}"), micros));
    }

    fn metric(&mut self, id: &str, name: &str, value: f64) {
        self.metrics.push((format!("{id}.{name}"), value));
    }

    /// A wall-clock floor: `value >= floor` is expected (record the value
    /// itself with [`metric`](Self::metric)). In smoke mode (or when
    /// `assessable` is false, e.g. too few cores for a parallel speedup)
    /// the floor is reported but does not fail the run.
    fn floor(&mut self, id: &str, name: &str, value: f64, floor: f64, assessable: bool) {
        if !assessable {
            println!("   note: {id} {name} = {value:.2} (floor {floor:.1}x not assessable here)");
            return;
        }
        if value < floor {
            if self.smoke {
                println!(
                    "   note: {id} {name} = {value:.2} below {floor:.1}x (smoke run, ignored)"
                );
            } else {
                // Wall-clock ratios are noisy on loaded machines: keep the
                // already-printed results, flag the regression, and fail
                // the exit code at the end instead of aborting mid-run.
                println!(
                    "   WARNING: {id} {name} = {value:.2} below the {floor:.1}x bar — rerun on a \
                     quiet machine"
                );
                self.perf_regression = true;
            }
        }
    }

    /// Truncates a sweep in smoke mode: keep the first `keep` points.
    fn sweep<'a, T>(&self, full: &'a [T], keep: usize) -> &'a [T] {
        if self.smoke {
            &full[..keep.min(full.len())]
        } else {
            full
        }
    }

    fn write_json(&self) {
        let path = std::env::var("XUC_BENCH_JSON").unwrap_or_else(|_| "BENCH_results.json".into());
        let mut s = String::from("{\n  \"schema\": 1,\n");
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str("  \"rows_us\": {\n");
        for (i, (k, v)) in self.rows_us.iter().enumerate() {
            let comma = if i + 1 < self.rows_us.len() { "," } else { "" };
            s.push_str(&format!("    \"{k}\": {v:.3}{comma}\n"));
        }
        s.push_str("  },\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            s.push_str(&format!("    \"{k}\": {v:.4}{comma}\n"));
        }
        s.push_str("  }\n}\n");
        match std::fs::write(&path, s) {
            Ok(()) => println!("machine-readable results written to {path}"),
            Err(e) => println!("WARNING: could not write {path}: {e}"),
        }
    }
}

/// The three E-IR edit mixes.
#[derive(Clone, Copy)]
enum Mix {
    Relabel,
    Detach,
    Splice,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Relabel => "relabel",
            Mix::Detach => "detach",
            Mix::Splice => "splice",
        }
    }
}

/// Median per-edit cost (µs) of keeping an evaluator current across an
/// apply/undo edit mix: `incremental` edits through an evaluator that
/// owns its tree (`Evaluator::apply`/`undo`: an O(1) patch per relabel, a
/// stale mark per detach or splice), the baseline edits a separate tree
/// and calls the full `refresh` after every apply and every undo.
fn refresh_cost_micros(
    tree: &DataTree,
    patterns: &[xuc_xpath::Pattern],
    mix: Mix,
    incremental: bool,
    runs: usize,
) -> f64 {
    const EDITS: usize = 64;
    let mut work = tree.clone();
    let mut ev =
        if incremental { Evaluator::from_tree(tree.clone()) } else { Evaluator::new(tree) };
    for q in patterns {
        ev.eval(q); // prime the label-row cache
    }
    let ids = work.node_ids();
    let labels = work.labels();
    let total = wl::median_micros(runs, || {
        for i in 0..EDITS {
            let target = ids[1 + (i * 37) % (ids.len() - 1)];
            let op = match mix {
                Mix::Relabel => Update::Relabel { node: target, label: labels[i % labels.len()] },
                Mix::Detach => Update::DeleteSubtree { node: target },
                Mix::Splice => Update::DeleteNode { node: target },
            };
            if incremental {
                let (token, _) = ev.apply(&op).expect("valid edit target");
                ev.undo(token).expect("undo own token");
            } else {
                let (token, _) = apply_undoable(&mut work, &op).expect("valid edit target");
                ev.refresh(&work);
                undo(&mut work, token).expect("undo own token");
                ev.refresh(&work);
            }
        }
    });
    total / EDITS as f64
}

fn main() {
    println!("Reasoning about XML update constraints — experiment harness");
    println!("(shape reproduction of Tables 1 and 2; see EXPERIMENTS.md)");
    let mut rep = Report::new();
    if rep.smoke {
        println!("(XUC_SMOKE set: reduced sweeps, perf floors reported but not enforced)");
    }

    // ---------------- Table 1 ----------------
    rep.header("T1-a", "XP{/,[],*} implication (Thms 4.1/4.4/4.5)", "PTIME");
    for &n in rep.sweep(&[2usize, 4, 8, 16, 32, 64], 3) {
        let (set, goal) = wl::t1a_workload(n);
        let implied = implication::ptime::implies_pred_star(&set, &goal);
        let t = wl::median_micros(9, || implication::ptime::implies_pred_star(&set, &goal));
        rep.row("T1-a", "constraints", n, t, if implied { "implied" } else { "not implied" });
    }

    rep.header("T1-b", "XP{/,[],//} one-type: conjunctive containment ([13])", "coNP-complete");
    for &k in rep.sweep(&[1usize, 2, 3], 2) {
        let (set, goal) = wl::t1b_workload(k);
        let ranges: Vec<&xuc_xpath::Pattern> = set.iter().map(|c| &c.range).collect();
        let result = implication::conjunctive::conjunctive_contained_in_budgeted(
            &ranges,
            &goal.range,
            5_000_000,
        );
        let t = wl::median_micros(3, || {
            implication::conjunctive::conjunctive_contained_in_budgeted(
                &ranges,
                &goal.range,
                5_000_000,
            )
        });
        rep.row("T1-b", "chain k", k, t, &format!("contained: {result:?}"));
    }

    rep.header("T1-c", "XP{/,//,*} linear, fixed constraint count (Thm 4.8)", "PTIME");
    for &k in rep.sweep(&[2usize, 4, 6, 8, 10], 3) {
        let (set, goal) = wl::t1_linear_workload(2, k);
        let out = implication::linear::implies_linear(&set, &goal);
        let t = wl::median_micros(5, || implication::linear::implies_linear(&set, &goal));
        rep.row("T1-c", "query size", k, t, &out.to_string());
    }

    rep.header(
        "T1-f",
        "XP{/,//,*} linear, growing constraint count (Thm 4.3)",
        "NP (exponential only in #constraints)",
    );
    for &n in rep.sweep(&[1usize, 2, 3, 4, 5, 6], 3) {
        let (set, goal) = wl::t1_linear_workload(n, 3);
        let out = implication::linear::implies_linear(&set, &goal);
        let t = wl::median_micros(3, || implication::linear::implies_linear(&set, &goal));
        rep.row("T1-f", "constraints", n, t, &out.to_string());
    }

    rep.header("T1-d", "full fragment, bounded search (Thms 4.2/4.7)", "coNP / NEXPTIME");
    for &n in rep.sweep(&[1usize, 2, 3], 2) {
        let (set, goal) = wl::t1d_workload(n);
        let found = implication::search::find_counterexample(&set, &goal, 500).is_some();
        let t = wl::median_micros(3, || implication::search::find_counterexample(&set, &goal, 500));
        rep.row(
            "T1-d",
            "constraints",
            n,
            t,
            if found { "refuted" } else { "no witness in budget" },
        );
    }

    rep.header("T1-h", "Theorem 4.6 gadget: implication ⇔ UNSAT", "coNP-hard (2^v sweep)");
    for &v in rep.sweep(&[2usize, 4, 6, 8, 10], 3) {
        let gadget = wl::t1h_gadget(v);
        let implied = gadget.implied_by_assignment_sweep();
        let sat = gadget.formula.satisfiable();
        let t = wl::median_micros(3, || gadget.implied_by_assignment_sweep());
        rep.row(
            "T1-h",
            "variables",
            v,
            t,
            &format!("implied={implied} sat={sat} (must be opposite)"),
        );
        assert_eq!(implied, !sat, "reduction must track the SAT oracle");
    }

    // ---------------- Table 2 ----------------
    rep.header("T2-a", "XP{/} instance-based (any types)", "PTIME");
    for &p in rep.sweep(&[25usize, 50, 100, 200, 400], 2) {
        let (set, j, goal) = wl::t2a_workload(p);
        let out = instance::plain::implies_plain(&set, &j, &goal);
        let t = wl::median_micros(5, || instance::plain::implies_plain(&set, &j, &goal));
        rep.row("T2-a", "patients", p, t, &out.to_string());
    }

    rep.header("T2-b", "↓-only XP{/,[],*}: certain-facts tree (Thm 5.3)", "PTIME");
    for &p in rep.sweep(&[25usize, 50, 100, 200, 400], 2) {
        let (set, j, goal) = wl::t2b_workload(p);
        let ok = instance::certain::implies_no_insert_pred_star(&set, &j, &goal).is_ok();
        let t = wl::median_micros(5, || {
            instance::certain::implies_no_insert_pred_star(&set, &j, &goal).is_ok()
        });
        rep.row("T2-b", "patients", p, t, if ok { "implied" } else { "not implied" });
    }

    rep.header("T2-c", "↓-only linear instance (Thm 5.4)", "PTIME (bounded constraints)");
    for &p in rep.sweep(&[25usize, 50, 100, 200, 400], 2) {
        let (set, j, goal) = wl::t2c_workload(p);
        let out = instance::linear::implies_no_insert_linear(&set, &j, &goal);
        let t =
            wl::median_micros(5, || instance::linear::implies_no_insert_linear(&set, &j, &goal));
        rep.row("T2-c", "patients", p, t, &out.to_string());
    }

    rep.header("T2-e", "↑-only possible embeddings (Thm 5.5), |J| sweep", "polynomial in |J|");
    for &p in rep.sweep(&[10usize, 20, 40, 80], 2) {
        let (set, j, goal) = wl::t2e_workload(p, 1);
        let out = instance::embeddings::implies_no_remove(&set, &j, &goal, 10_000_000);
        let t = wl::median_micros(3, || {
            instance::embeddings::implies_no_remove(&set, &j, &goal, 10_000_000)
        });
        rep.row("T2-e", "patients", p, t, &out.to_string());
    }

    rep.header("T2-e'", "↑-only possible embeddings (Thm 5.5), |q| sweep", "exponential in |q|");
    for &qsize in rep.sweep(&[1usize, 2, 3], 2) {
        let (set, j, goal) = wl::t2e_workload(8, qsize);
        let out = instance::embeddings::implies_no_remove(&set, &j, &goal, 50_000_000);
        let t = wl::median_micros(3, || {
            instance::embeddings::implies_no_remove(&set, &j, &goal, 50_000_000)
        });
        rep.row("T2-e'", "goal preds", qsize, t, &out.to_string());
    }

    rep.header("T2-f", "Theorem 5.2 / Fig. 6 gadget: implication ⇔ UNSAT", "coNP-hard (2^v)");
    for &v in rep.sweep(&[2usize, 4, 6, 8, 10], 3) {
        let gadget = wl::t2f_gadget(v);
        let implied = gadget.implied_by_assignment_sweep();
        let sat = gadget.formula.satisfiable();
        let t = wl::median_micros(3, || gadget.implied_by_assignment_sweep());
        rep.row("T2-f", "variables", v, t, &format!("implied={implied} sat={sat}"));
        assert_eq!(implied, !sat, "reduction must track the SAT oracle");
    }

    // ---------------- Figures / examples ----------------
    rep.header("F2", "Figure 2 / Example 2.1 validity", "c1 ✓  c2 ✓  c3 ✗");
    {
        let (i, j) = xuc_workloads::trees::fig2_pair();
        let cs = xuc_workloads::trees::example_2_1_constraints();
        let v = xuc_core::constraint::violations(&cs, &i, &j);
        println!("   violations: {}", v.len());
        for viol in &v {
            println!("     {viol}");
        }
        assert_eq!(v.len(), 1);
    }

    rep.header("E41", "Example 4.1: interacting update types (exact)", "full set ⊨ c; ↑-only ⊭ c");
    {
        let (set, goal) = xuc_workloads::trees::example_4_1();
        let full = implication::linear::implies_linear(&set, &goal);
        let up_only: Vec<_> =
            set.iter().filter(|x| x.kind == xuc_core::ConstraintKind::NoRemove).cloned().collect();
        let up = implication::linear::implies_linear(&up_only, &goal);
        println!("   full set: {full}");
        println!("   ↑ only:   {up}");
        assert!(full.is_implied() && up.is_not_implied());
    }

    rep.header("E33", "Example 3.3: diverging chase", "fact count grows with the round cap");
    for &cap in rep.sweep(&[2usize, 4, 6, 8], 2) {
        let deps = xuc_xic::example_3_3();
        let mut db = xuc_xic::FactDb::new();
        xuc_xic::seed_two_branch(&mut db);
        xuc_xic::seed_path(&mut db, xuc_xic::I_BRANCH, &["a", "b", "c", "d"]);
        match xuc_xic::chase(&mut db, &deps, cap) {
            xuc_xic::ChaseResult::Terminated { .. } => println!("   cap {cap}: TERMINATED (!)"),
            xuc_xic::ChaseResult::CapReached { facts, .. } => {
                println!("   cap {cap}: still firing, {facts} facts");
            }
        }
    }

    rep.header(
        "E-EV",
        "evaluation engine: cold per-call vs amortized bitset batch",
        "amortized ≥ 3× cold on 1k nodes / 32 patterns",
    );
    for &nodes in rep.sweep(&[100usize, 1_000, 4_000], 2) {
        let (tree, patterns) = wl::eval_engine_workload(nodes, 32);
        let cold = wl::median_micros(9, || {
            patterns.iter().map(|q| xuc_xpath::eval::eval(q, &tree).len()).sum::<usize>()
        });
        let amortized = wl::median_micros(9, || {
            let mut ev = xuc_xpath::Evaluator::new(&tree);
            patterns.iter().map(|q| ev.eval(q).len()).sum::<usize>()
        });
        rep.row("E-EV", "cold_nodes", nodes, cold, "cold per-call eval");
        rep.row(
            "E-EV",
            "amort_nodes",
            nodes,
            amortized,
            &format!("amortized ({:.1}x)", cold / amortized),
        );
        rep.metric("E-EV", &format!("amortized_speedup_{nodes}"), cold / amortized);
        if nodes == 1_000 {
            rep.floor("E-EV", "amortized_speedup_1000", cold / amortized, 3.0, true);
        }
    }

    rep.header(
        "E-IR",
        "incremental (edit-scope) vs full snapshot refresh per edit",
        "incremental relabel, detach and splice refresh each ≥ 10× full refresh at 10k nodes",
    );
    for &nodes in rep.sweep(&[1_000usize, 4_000, 10_000], 1) {
        let (tree, patterns) = wl::eir_workload(nodes);
        let runs = if rep.smoke { 3 } else { 7 };
        for mix in [Mix::Relabel, Mix::Detach, Mix::Splice] {
            let full = refresh_cost_micros(&tree, &patterns, mix, false, runs);
            let incr = refresh_cost_micros(&tree, &patterns, mix, true, runs);
            let ratio = full / incr;
            rep.row("E-IR", &format!("{}_full", mix.name()), nodes, full, "full refresh per edit");
            rep.row(
                "E-IR",
                &format!("{}_incr", mix.name()),
                nodes,
                incr,
                &format!("incremental ({ratio:.1}x)"),
            );
            rep.metric("E-IR", &format!("{}_ratio_{nodes}", mix.name()), ratio);
            if nodes == 10_000 || (rep.smoke && nodes == 1_000) {
                rep.floor("E-IR", &format!("{}_ratio_{nodes}", mix.name()), ratio, 10.0, true);
            }
        }
    }

    rep.header(
        "E-SET",
        "set-at-a-time automaton vs per-pattern batch evaluation",
        "eval_set ≥ 3× eval_all at ≥ 64 patterns on 1k nodes",
    );
    {
        let mut crossover: Option<usize> = None;
        for &k in rep.sweep(&[8usize, 16, 32, 64, 128, 256], 3) {
            let (tree, suite) = wl::eset_workload(1_000, k);
            let compiled = PatternSetCompiler::compile(&suite);
            let compile_us = wl::median_micros(5, || PatternSetCompiler::compile(&suite));
            let mut ev = xuc_xpath::Evaluator::new(&tree);
            assert_eq!(
                ev.eval_set(&compiled),
                ev.eval_all(&suite),
                "set-at-a-time must agree with the per-pattern path"
            );
            let per_pattern = wl::median_micros(7, || ev.eval_all(&suite));
            let set_pass = wl::median_micros(7, || ev.eval_set(&compiled));
            let ratio = per_pattern / set_pass;
            rep.row("E-SET", "all_patterns", k, per_pattern, "per-pattern eval_all");
            rep.row(
                "E-SET",
                "set_patterns",
                k,
                set_pass,
                &format!(
                    "compiled pass ({ratio:.1}x; {} states, compiled once in {compile_us:.0} µs)",
                    compiled.state_count()
                ),
            );
            rep.metric("E-SET", &format!("speedup_{k}"), ratio);
            rep.metric("E-SET", &format!("states_{k}"), compiled.state_count() as f64);
            if crossover.is_none() && ratio >= 1.0 {
                crossover = Some(k);
            }
            if k == 64 || (rep.smoke && k == 32) {
                rep.floor("E-SET", &format!("speedup_{k}"), ratio, 3.0, true);
            }
        }
        if let Some(k) = crossover {
            // The search's SET_PATH_CROSSOVER (16) must sit at or above
            // the measured break-even point of the sweep. Like every
            // wall-clock claim this soft-fails: flagged on quiet-machine
            // runs (exit code at the end, not a mid-run abort), ignored
            // in smoke runs.
            rep.metric("E-SET", "crossover_patterns", k as f64);
            println!("   break-even: set path ≥ per-pattern from ≤ {k} patterns on");
            if k > 16 {
                if rep.smoke {
                    println!("   note: break-even {k} above the crossover 16 (smoke run, ignored)");
                } else {
                    println!(
                        "   WARNING: break-even {k} above the search crossover of 16 — rerun on \
                         a quiet machine"
                    );
                    rep.perf_regression = true;
                }
            }
        }

        // Search integration: a constraint batch above the crossover stays
        // shard-count deterministic on the set path.
        let (set, goal) = wl::eset_search_workload();
        let one = find_counterexample_sharded(&set, &goal, 4_000, 1).expect("refutable goal");
        let four = find_counterexample_sharded(&set, &goal, 4_000, 4).expect("refutable goal");
        assert!(one.verify(&set, &goal), "set-path counterexample must verify");
        assert_eq!(
            one.canonical_pair_form(),
            four.canonical_pair_form(),
            "set path must stay shard-count independent"
        );
        println!("   determinism: 24-constraint set-path search identical at 1/4 shards ✓");
    }

    rep.header(
        "E-SVC",
        "service admission: cached suite automaton vs per-request recompilation",
        "cached ≥ 3× recompile at 64-constraint suites",
    );
    {
        let runs = if rep.smoke { 5 } else { 9 };
        for &k in rep.sweep(&[16usize, 64, 128], 2) {
            let (tree, suite) = wl::esvc_workload(1_000, k);
            let cache = SuiteCache::new();
            let resident = cache.get_or_compile(&suite);
            let mut ev = Evaluator::new(&tree);
            let base = ev.eval_set(&*resident);
            // Identity admission always passes; both paths must agree on
            // the recomputed range results.
            assert_eq!(
                admit(&mut ev, &resident, &suite, &base).expect("identity pair admits"),
                base,
                "cached admission must reproduce the baseline"
            );
            // Cached path: what Gateway::submit runs per request — the
            // document-resident compiled automaton, zero compilation.
            let cached = wl::median_micros(runs, || {
                admit(&mut ev, &resident, &suite, &base).expect("identity pair admits")
            });
            // Baseline: the same admission check, recompiling the suite
            // for every request (the shape without a SuiteCache).
            let recompile = wl::median_micros(runs, || {
                let compiled = PatternSetCompiler::compile(suite.iter().map(|c| &c.range));
                admit(&mut ev, &compiled, &suite, &base).expect("identity pair admits")
            });
            let ratio = recompile / cached;
            rep.row("E-SVC", "recompile", k, recompile, "compile + admit per request");
            rep.row("E-SVC", "cached", k, cached, &format!("resident automaton ({ratio:.1}x)"));
            rep.metric("E-SVC", &format!("speedup_{k}"), ratio);
            if k == 64 || (rep.smoke && k == 16) {
                rep.floor("E-SVC", &format!("speedup_{k}"), ratio, 3.0, true);
            }
        }

        // End-to-end worker loop: the accept/reject log of a seeded
        // request stream must be byte-identical at every worker count,
        // and every accepted commit re-certifies its document.
        let n_requests = if rep.smoke { 60 } else { 200 };
        let (docs, requests) = wl::esvc_gateway_workload(n_requests);
        let run_at = |workers: usize| {
            // A fresh gateway per run: identical initial state, so the
            // logs are comparable across worker counts.
            let gw = Gateway::new(Signer::new(0x516));
            for (id, tree, suite) in &docs {
                gw.publish(*id, tree.clone(), suite.clone()).expect("fresh gateway");
            }
            let t0 = std::time::Instant::now();
            let verdicts = gw.process(&requests, workers);
            let micros = t0.elapsed().as_secs_f64() * 1e6;
            for (id, ..) in &docs {
                let cert = gw.certificate(*id).expect("published");
                assert!(
                    cert.verify(0x516, &gw.snapshot(*id).expect("published")).is_ok(),
                    "commit must re-certify {id}"
                );
            }
            (render_log(&requests, &verdicts), micros)
        };
        let (log1, t1) = run_at(1);
        let (log4, t4) = run_at(4);
        assert_eq!(log1, log4, "gateway log must be worker-count independent");
        assert!(log1.contains("ACCEPT") && log1.contains("REJECT"), "stream must exercise both");
        let throughput = n_requests as f64 / (t1 / 1e6);
        rep.row("E-SVC", "stream_workers", 1, t1, &format!("{throughput:.0} req/s"));
        rep.row("E-SVC", "stream_workers", 4, t4, "log byte-identical to 1 worker ✓");
        rep.metric("E-SVC", "stream_requests_per_s_1worker", throughput);
        println!("   determinism: {n_requests}-request gateway log identical at 1/4 workers ✓");
    }

    rep.header(
        "E-DLT",
        "delta vs full-pass commit admission (edit-proportional splice)",
        "delta admission ≥ 5× full pass at 100k and 1M nodes, ≤ 8-update batches",
    );
    {
        let mut batch_rng = wl::rng();
        for &nodes in rep.sweep(&[10_000usize, 100_000, 1_000_000], 1) {
            // The 1M-node full pass is ~100× the 10k one; its median
            // settles with fewer samples.
            let runs = if rep.smoke || nodes >= 1_000_000 { 5 } else { 9 };
            let (tree, suite) = wl::edlt_workload(nodes, 12);
            let cache = SuiteCache::new();
            let compiled = cache.get_or_compile(&suite);
            assert_eq!(compiled.fallback_count(), 0, "E-DLT suite must compile fully");
            let mut ev = Evaluator::from_tree(tree);
            let mut base = ev.eval_set(&*compiled);
            for (mix_name, mixed) in [("relabel", false), ("mixed", true)] {
                for &bsize in &[1usize, 8] {
                    let batch = xuc_workloads::trees::delta_batches(
                        &mut batch_rng,
                        ev.tree(),
                        1,
                        bsize,
                        mixed,
                    )
                    .remove(0);
                    // Apply the batch exactly as a session would: doomed
                    // refs captured before a deletion, each edit through
                    // the evaluator that owns the tree, scopes folded into
                    // one dirty region.
                    let mut region = DirtyRegion::new();
                    let mut stack = Vec::new();
                    for u in &batch {
                        if let Update::DeleteSubtree { node } = u {
                            region.record_removals(&ev.tree().subtree_nodes(*node).expect("live"));
                        }
                        let (tok, scope) = ev.apply(u).expect("batch valid");
                        region.record(ev.tree(), &scope);
                        stack.push(tok);
                    }
                    // Exactness of the production path, before anything is
                    // timed: the in-place admission of a clone must ride
                    // the splice and yield the full admission's range
                    // results, and its journal must revert the clone to
                    // the baseline.
                    let mut spliced = base.clone();
                    let declined = engine_counters().splice_declined;
                    let journal =
                        admit_delta_in_place(&mut ev, &compiled, &suite, &mut spliced, &region)
                            .expect("batch admits");
                    assert_eq!(
                        engine_counters().splice_declined,
                        declined,
                        "all-linear suite rides the splice"
                    );
                    assert_eq!(
                        spliced,
                        admit(&mut ev, &compiled, &suite, &base).expect("batch admits"),
                        "admit_delta_in_place must yield admit's sets"
                    );
                    journal.revert(&mut spliced);
                    assert_eq!(spliced, base, "revert must restore the baseline");
                    let full = wl::median_micros(runs, || {
                        admit(&mut ev, &compiled, &suite, &base).expect("batch admits")
                    });
                    // The production commit path: in-place splice, judged
                    // off the journal. Reverting inside the measured
                    // closure keeps iterations identical (and makes the
                    // reported delta cost an overestimate).
                    let delta = wl::median_micros(runs, || {
                        let journal =
                            admit_delta_in_place(&mut ev, &compiled, &suite, &mut base, &region)
                                .expect("batch admits");
                        journal.revert(&mut base);
                    });
                    let ratio = full / delta;
                    rep.row(
                        "E-DLT",
                        &format!("{mix_name}{bsize}_full"),
                        nodes,
                        full,
                        "full-pass admission",
                    );
                    rep.row(
                        "E-DLT",
                        &format!("{mix_name}{bsize}_delta"),
                        nodes,
                        delta,
                        &format!("delta splice ({ratio:.1}x)"),
                    );
                    rep.metric("E-DLT", &format!("speedup_{mix_name}{bsize}_{nodes}"), ratio);
                    if bsize == 8 && (nodes >= 100_000 || (rep.smoke && nodes == 10_000)) {
                        rep.floor(
                            "E-DLT",
                            &format!("speedup_{mix_name}{bsize}_{nodes}"),
                            ratio,
                            5.0,
                            true,
                        );
                    }
                    while let Some(tok) = stack.pop() {
                        ev.undo(tok).expect("undo own token");
                    }
                }
            }
        }

        // Worker-pool determinism re-pinned on the delta admission path:
        // byte-identical log at 1/2/8 workers, and identical to the
        // full-pass reference commit's.
        let (tree, suite) = wl::edlt_workload(10_000, 12);
        let doc = DocId::new("edlt");
        let stream = xuc_service::workload::seeded_requests(
            &[(doc, &tree)],
            &["note", "visit"],
            0x0E17_D317,
            60,
        );
        let run_at = |workers: usize| {
            let gw = Gateway::new(Signer::new(0xD317));
            gw.publish(doc, tree.clone(), suite.clone()).expect("fresh gateway");
            let verdicts = gw.process(&stream, workers);
            render_log(&stream, &verdicts)
        };
        let reference = run_at(1);
        for workers in [2usize, 8] {
            assert_eq!(run_at(workers), reference, "delta log diverged at {workers} workers");
        }
        let mut full = FullPass::new(Signer::new(0xD317));
        full.publish(doc, tree.clone(), suite.clone());
        let verdicts: Vec<Verdict> = stream.iter().map(|r| full.submit(r)).collect();
        assert_eq!(
            render_log(&stream, &verdicts),
            reference,
            "gateway and full-pass reference logs must agree"
        );
        println!("   determinism: 60-request delta-path gateway log identical at 1/2/8 workers ✓");
    }

    rep.header(
        "E-E2E",
        "end-to-end in-memory commit through Gateway::submit vs the full-pass reference commit",
        "single-relabel, single-leaf insert/delete and root-level insert/move/splice commits \
         each ≥ 50× cheaper on the delta path at the largest size",
    );
    {
        // The same single-update commits submitted one by one to a gateway
        // and to the full-pass reference (`reference::FullPass`, the
        // pre-delta commit): apply, admission, re-certification —
        // everything a client waits for. The gateway splices the
        // baselines below the edit and folds the splice journal into the
        // certificate header; the reference re-sweeps the document and
        // re-hashes every signed set. Six
        // shapes, all accepted: distinct phone→note relabels, then `note`
        // leaf inserts under distinct patients and their deletes, then the
        // root-level arm — `note` leaves inserted under the hospital root,
        // visits moved across patients, and patients holding only a
        // clinical-trial marker spliced out (`DeleteNode`), whose marker
        // re-roots under the hospital.
        let sizes = if rep.smoke { [10_000usize, 100_000] } else { [100_000, 1_000_000] };
        let mut largest = Vec::new();
        for &nodes in &sizes {
            let (tree, suite) = wl::edlt_workload(nodes, 12);
            let commits = if nodes >= 1_000_000 { 9 } else { 21 };
            let relabels =
                xuc_workloads::trees::delta_batches(&mut wl::rng(), &tree, 1, commits, false)
                    .remove(0);
            let patients = tree.children(tree.root_id()).expect("root");
            let notes: Vec<NodeId> = (0..commits).map(|_| NodeId::fresh()).collect();
            let inserts: Vec<Update> = notes
                .iter()
                .enumerate()
                .map(|(i, &id)| Update::InsertLeaf {
                    parent: patients[(i * 7919) % patients.len()],
                    id,
                    label: xuc_xtree::Label::new("note"),
                })
                .collect();
            let deletes: Vec<Update> =
                notes.iter().map(|&node| Update::DeleteSubtree { node }).collect();
            let label = |id| tree.label(id).expect("live").as_str();
            let root_inserts: Vec<Update> = (0..commits)
                .map(|_| Update::InsertLeaf {
                    parent: tree.root_id(),
                    id: NodeId::fresh(),
                    label: xuc_xtree::Label::new("note"),
                })
                .collect();
            // Every 97th patient's first visit, each to the next patient.
            let moves: Vec<Update> = (0..patients.len())
                .step_by(97)
                .filter_map(|i| {
                    let visit = tree
                        .children_iter(patients[i])
                        .expect("live")
                        .find(|&c| label(c) == "visit")?;
                    Some(Update::Move { node: visit, new_parent: patients[i + 1] })
                })
                .take(commits)
                .collect();
            let splices: Vec<Update> = patients
                .iter()
                .rev()
                .filter(|&&p| {
                    let kids = tree.children(p).expect("live");
                    !kids.is_empty() && kids.iter().all(|&c| label(c) == "clinicalTrial")
                })
                .take(commits)
                .map(|&node| Update::DeleteNode { node })
                .collect();
            assert_eq!((moves.len(), splices.len()), (commits, commits), "E-E2E root-level shapes");
            let doc = DocId::new("e2e");
            // Per-commit wall clock of each shape through `submit`, in
            // submission order.
            let commit_micros = |submit: &mut dyn FnMut(&Request) -> Verdict| -> Vec<f64> {
                [&relabels, &inserts, &deletes, &root_inserts, &moves, &splices]
                    .iter()
                    .map(|ops| {
                        let mut samples: Vec<f64> = ops
                            .iter()
                            .map(|u| {
                                let req = Request { doc, updates: vec![u.clone()] };
                                let t = std::time::Instant::now();
                                let verdict = submit(&req);
                                let micros = t.elapsed().as_secs_f64() * 1e6;
                                assert!(verdict.is_accepted(), "E-E2E {u} refused: {verdict}");
                                micros
                            })
                            .collect();
                        samples.sort_by(|a, b| a.total_cmp(b));
                        samples[samples.len() / 2]
                    })
                    .collect()
            };
            let gw = Gateway::new(Signer::new(0xE2E));
            gw.publish(doc, tree.clone(), suite.clone()).expect("fresh gateway");
            let delta = commit_micros(&mut |req| gw.submit(req));
            let delta_cert = gw.certificate(doc).expect("published");
            drop(gw);
            let mut reference = FullPass::new(Signer::new(0xE2E));
            reference.publish(doc, tree.clone(), suite.clone());
            let full = commit_micros(&mut |req| reference.submit(req));
            assert_eq!(
                delta_cert,
                reference.certificate(doc).expect("published"),
                "gateway and full-pass reference certificates must agree"
            );
            largest.clear();
            // (shape, full-pass row, delta row, ratio metric); the relabel
            // rows keep their original names.
            let shapes = [
                ("relabel", "fullpass_commit", "delta_commit", "delta_over_fullpass"),
                ("insert", "fullpass_insert", "delta_insert", "insert_delta_over_fullpass"),
                ("delete", "fullpass_delete", "delta_delete", "delete_delta_over_fullpass"),
                (
                    "root insert",
                    "fullpass_root_insert",
                    "delta_root_insert",
                    "root_insert_delta_over_fullpass",
                ),
                ("move", "fullpass_move", "delta_move", "move_delta_over_fullpass"),
                ("splice", "fullpass_splice", "delta_splice", "splice_delta_over_fullpass"),
            ];
            for (i, (shape, full_row, delta_row, metric)) in shapes.into_iter().enumerate() {
                let ratio = full[i] / delta[i];
                rep.row("E-E2E", full_row, nodes, full[i], "reference: full pass + full re-hash");
                rep.row(
                    "E-E2E",
                    delta_row,
                    nodes,
                    delta[i],
                    &format!("splice + O(edit) re-certification ({ratio:.0}x)"),
                );
                rep.metric("E-E2E", &format!("{metric}_{nodes}"), ratio);
                largest.push((shape, ratio, delta[i]));
            }
        }
        // A HARD floor even under XUC_SMOKE: the gap is two orders of
        // magnitude, so no amount of runner noise closes it — only a
        // commit path that went back to touching the whole document.
        for &(shape, ratio, p50) in &largest {
            assert!(
                ratio >= 50.0,
                "E-E2E delta {shape} commit only {ratio:.1}x cheaper than full pass at {} nodes \
                 (floor 50x)",
                sizes[1]
            );
            println!(
                "   floor: delta {shape} commit {ratio:.0}x cheaper than full pass (≥ 50x) ✓ \
                 — p50 {:.3} ms at {} nodes",
                p50 / 1e3,
                sizes[1]
            );
        }
        if !rep.smoke {
            // ROADMAP's target for a structural commit on the 1M document
            // is ≤ 1 ms p50 (181.6 ms before structural edits were
            // re-read in place; 154.7 ms for an insert under the root and
            // 159.0 ms for a cross-patient move while a scope named the
            // edit's common ancestor). Reported, not asserted: single runs
            // on a shared host.
            for &(shape, _, p50) in &largest[1..] {
                let verdict = if p50 <= 1e3 { "meets" } else { "misses" };
                println!("   target: 1M {shape} commit p50 {:.3} ms {verdict} ≤ 1 ms", p50 / 1e3);
            }
        }
    }

    rep.header(
        "E-M1",
        "million-node arena: snapshot walk, amortized eval, refresh, churn",
        "slot capacity bounded under churn; snapshot-amortized eval ≥ 2×; relabel refresh ≥ 10×",
    );
    {
        // The arena rebuild's headline scale: one hospital document at
        // 10^6 nodes (120k under XUC_SMOKE — every assertion still fires,
        // including the hard churn-boundedness check).
        let nodes = if rep.smoke { 120_000 } else { 1_000_000 };
        let runs = if rep.smoke { 3 } else { 5 };
        let mut work = xuc_workloads::trees::hospital_sized(&mut wl::rng(), nodes);
        assert_eq!(work.slot_capacity(), work.len(), "a freshly built arena must be dense");

        // Snapshot fast path: the sibling-chain pre-order walk over the
        // dense parallel arrays that `encode_tree` streams a snapshot or
        // publish record from, reading every node's id, label and depth.
        let walk = || {
            let mut fold = 0u64;
            let visited = work.for_each_preorder(work.root_id(), |id, label, depth| {
                std::hint::black_box(label);
                fold = fold.wrapping_add(id.raw() ^ depth as u64);
            });
            std::hint::black_box(fold);
            visited
        };
        assert_eq!(walk(), Ok(work.len()));
        let snap = wl::median_micros(runs, walk);
        let mnodes_s = work.len() as f64 / snap;
        rep.row("E-M1", "snapshot", nodes, snap, &format!("{mnodes_s:.0} Mnodes/s"));
        rep.metric("E-M1", "snapshot_mnodes_per_s", mnodes_s);

        // Amortized evaluation: one evaluator (one snapshot walk) across
        // a policy-sized pattern batch, against a cold evaluator per
        // pattern — the cold arm pays the million-node walk per pattern.
        let patterns: Vec<xuc_xpath::Pattern> = [
            "/patient",
            "/patient/visit",
            "/patient/visit/report",
            "/patient/clinicalTrial",
            "/patient/phone",
            "//report",
            "//phone",
            "//visit",
        ]
        .iter()
        .map(|s| xuc_xpath::parse(s).expect("static"))
        .collect();
        let cold = wl::median_micros(runs, || {
            patterns
                .iter()
                .map(|q| {
                    let mut ev = Evaluator::new(&work);
                    ev.eval(q).len()
                })
                .sum::<usize>()
        });
        let amortized = wl::median_micros(runs, || {
            let mut ev = Evaluator::new(&work);
            patterns.iter().map(|q| ev.eval(q).len()).sum::<usize>()
        });
        let eval_ratio = cold / amortized;
        rep.row("E-M1", "eval_cold", nodes, cold, "snapshot per pattern");
        rep.row(
            "E-M1",
            "eval_amort",
            nodes,
            amortized,
            &format!("one snapshot ({eval_ratio:.1}x)"),
        );
        rep.metric("E-M1", "amortized_speedup", eval_ratio);
        rep.floor("E-M1", "amortized_speedup", eval_ratio, 2.0, true);

        // Incremental refresh at scale: a 4-edit relabel batch through an
        // evaluator that owns a copy of the document (two row bits per
        // edit) vs the full-rebuild baseline that re-copies the whole
        // document per refresh.
        let mut owned = Evaluator::from_tree(work.clone());
        let mut ev = Evaluator::new(&work);
        for q in &patterns {
            owned.eval(q); // prime the label-row caches
            ev.eval(q);
        }
        let batch =
            xuc_workloads::trees::delta_batches(&mut wl::rng(), &work, 1, 4, false).remove(0);
        let incr = wl::median_micros(runs, || {
            for u in &batch {
                let (tok, _) = owned.apply(u).expect("valid batch");
                owned.undo(tok).expect("undo own token");
            }
        }) / batch.len() as f64;
        drop(owned);
        let full = wl::median_micros(runs, || {
            for u in &batch {
                let (tok, _scope) = apply_undoable(&mut work, u).expect("valid batch");
                ev.refresh(&work);
                undo(&mut work, tok).expect("undo own token");
                ev.refresh(&work);
            }
        }) / batch.len() as f64;
        let refresh_ratio = full / incr;
        rep.row("E-M1", "refresh_full", nodes, full, "full refresh per edit");
        rep.row(
            "E-M1",
            "refresh_incr",
            nodes,
            incr,
            &format!("edit-scope refresh ({refresh_ratio:.1}x)"),
        );
        rep.metric("E-M1", "relabel_refresh_ratio", refresh_ratio);
        rep.floor("E-M1", "relabel_refresh_ratio", refresh_ratio, 10.0, true);

        // Churn boundedness — the leak this PR fixes, asserted hard even
        // in smoke mode: a thousand insert+delete cycles of patient-sized
        // subtrees must recycle slots, not push the arena's capacity.
        let base_capacity = work.slot_capacity();
        let root = work.root_id();
        let cycles = 1_000usize;
        let churn_us = wl::median_micros(1, || {
            for _ in 0..cycles {
                let p = work.add(root, "patient").expect("fresh id");
                let v = work.add(p, "visit").expect("fresh id");
                work.add(v, "report").expect("fresh id");
                work.add(p, "phone").expect("fresh id");
                work.delete_subtree(p).expect("own subtree");
            }
        });
        assert!(
            work.slot_capacity() <= base_capacity + 4,
            "arena leaked slots under churn: capacity {} grew past {} + one 4-node subtree",
            work.slot_capacity(),
            base_capacity
        );
        rep.row(
            "E-M1",
            "churn_cycles",
            cycles,
            churn_us,
            &format!("capacity {} → {} ✓", base_capacity, work.slot_capacity()),
        );
        rep.metric("E-M1", "churn_capacity_growth", (work.slot_capacity() - base_capacity) as f64);
        println!("   churn: slot capacity bounded by peak live at {} nodes ✓", work.len());
    }

    rep.header(
        "E-PAR",
        "sharded counterexample search throughput (T1-d style, budget exhausted)",
        "4-shard ≥ 2× single-shard (needs ≥ 4 cores)",
    );
    {
        let (set, goal) = wl::epar_workload();
        let budget = if rep.smoke { 2_000 } else { 30_000 };
        let runs = if rep.smoke { 1 } else { 3 };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut single = 0.0f64;
        for shards in [1usize, 2, 4, 8] {
            let t = wl::median_micros(runs, || {
                assert!(
                    find_counterexample_sharded(&set, &goal, budget, shards).is_none(),
                    "E-PAR workload must exhaust its budget"
                );
            });
            if shards == 1 {
                single = t;
            }
            let speedup = single / t;
            rep.row("E-PAR", "shards", shards, t, &format!("{speedup:.2}x vs 1 shard"));
            rep.metric("E-PAR", &format!("speedup_{shards}shard"), speedup);
            if shards == 4 {
                // The ≥ 2× floor is only physical with ≥ 4 cores; on
                // smaller machines the sweep still checks determinism and
                // records the series.
                rep.floor("E-PAR", "speedup_4shard", speedup, 2.0, cores >= 4);
            }
        }
        // Shard-count independence spot check on a refutable workload.
        let (rset, rgoal) = (
            vec![xuc_core::parse_constraint("(/a[/b], ↑)").expect("static")],
            xuc_core::parse_constraint("(/a, ↑)").expect("static"),
        );
        let one = find_counterexample_sharded(&rset, &rgoal, 5_000, 1).expect("witness");
        let four = find_counterexample_sharded(&rset, &rgoal, 5_000, 4).expect("witness");
        assert_eq!(
            one.canonical_pair_form(),
            four.canonical_pair_form(),
            "sharded search must be shard-count independent"
        );
        println!("   determinism: 1-shard and 4-shard counterexamples identical ✓");
        println!("   cores available: {cores}");
    }

    rep.header(
        "E-REC",
        "gateway crash-recovery time vs journal length (snapshot cadence sweep)",
        "snapshot + tail replay ≥ 2× faster than cold full-log replay",
    );
    {
        let commits = if rep.smoke { 130usize } else { 950 };
        let nodes = if rep.smoke { 2_000usize } else { 10_000 };
        let key = 0xEEC0;
        let mut rng = wl::rng();
        let (tree, suite) = wl::edlt_workload(nodes, 12);
        let doc = DocId::new("erec");
        // Relabel-only batches: cumulative commits stay admissible under
        // the all-linear E-DLT suite (`note` is unprotected), so the
        // journal holds exactly `commits` accepted batches.
        let requests: Vec<Request> =
            xuc_workloads::trees::delta_batches(&mut rng, &tree, commits, 4, false)
                .into_iter()
                .map(|updates| Request { doc, updates })
                .collect();

        // Cadence sweep: never snapshot (cold recovery replays the whole
        // log), every 100 commits (recovery = snapshot + short tail), and
        // every 1000 (cadence longer than history — behaves like cold).
        let cadences: &[(&str, Option<u64>)] =
            &[("cold", None), ("snap100", Some(100)), ("snap1000", Some(1000))];
        let mut times = Vec::new();
        let mut reference: Option<(String, xuc_sigstore::Certificate)> = None;
        for &(name, cadence) in cadences {
            let dir = std::env::temp_dir().join(format!("xuc-erec-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts =
                DurableOptions { group_commit: 8, snapshot_every: cadence, ..Default::default() };
            let recover = || {
                Gateway::recover_with_io(
                    Signer::new(key),
                    &dir,
                    opts,
                    Box::new(SystemClock),
                    Arc::new(StdFs),
                )
            };
            let gw = recover().expect("fresh durability dir");
            gw.publish(doc, tree.clone(), suite.clone()).expect("fresh gateway");
            for (i, r) in requests.iter().enumerate() {
                assert!(gw.submit(r).is_accepted(), "E-REC request #{i} must be accepted");
            }
            drop(gw); // orderly shutdown: pending group-commit frames sync

            // Discarded warm-up: the first recovery in a process pays
            // page-cache/heap-growth costs (the cold WAL here is ~260 MB)
            // that would otherwise inflate whichever arm runs first.
            drop(recover().expect("recovery"));
            let t = wl::median_micros(3, || {
                let rec = recover().expect("recovery");
                assert_eq!(
                    rec.store().document(doc).expect("recovered").lock().commits(),
                    commits as u64,
                    "recovery must land on the pre-crash commit counter"
                );
            });
            // Recovery must land on identical state whatever the cadence.
            let rec = recover().expect("recovery");
            let render = rec.snapshot(doc).expect("recovered").render();
            let cert = rec.certificate(doc).expect("recovered");
            match &reference {
                None => reference = Some((render, cert)),
                Some((r0, c0)) => {
                    assert_eq!(&render, r0, "{name}: recovered tree diverged");
                    assert_eq!(&cert, c0, "{name}: recovered certificate diverged");
                }
            }
            let note = match cadence {
                None => "cold: full-log replay",
                Some(100) => "snapshot + tail replay",
                _ => "cadence > history: behaves cold",
            };
            rep.row(
                "E-REC",
                "cadence",
                cadence.unwrap_or(0) as usize,
                t,
                &format!("{note} ({commits} commits)"),
            );
            rep.metric("E-REC", &format!("recover_us_{name}"), t);
            times.push(t);
            if cadence == Some(100) {
                // The snapshot alone, restored from a directory holding
                // nothing else: one tree decode, one `eval_set`, one
                // signing of the re-derived sets.
                let snap = std::fs::read_dir(&dir)
                    .expect("durability dir")
                    .map(|e| e.expect("dir entry").path())
                    .find(|p| p.extension().is_some_and(|x| x == "snap"))
                    .expect("cadence 100 snapshots");
                let bytes = std::fs::metadata(&snap).expect("snapshot file").len();
                let only = dir.with_extension("snaponly");
                let _ = std::fs::remove_dir_all(&only);
                std::fs::create_dir_all(&only).expect("restore dir");
                std::fs::copy(&snap, only.join(snap.file_name().expect("file name")))
                    .expect("copy the snapshot");
                let restore_alone = || {
                    Gateway::recover_with_io(
                        Signer::new(key),
                        &only,
                        opts,
                        Box::new(SystemClock),
                        Arc::new(StdFs),
                    )
                    .expect("snapshot restore")
                };
                let at = commits as u64 / 100 * 100;
                let restore = wl::median_micros(3, || {
                    let rec = restore_alone();
                    let d = rec.store().document(doc).expect("restored");
                    assert_eq!(d.lock().commits(), at, "the snapshot's commit counter");
                });
                let rec = restore_alone();
                let cert = rec.certificate(doc).expect("restored");
                assert!(cert.verify(key, &rec.snapshot(doc).expect("restored")).is_ok());
                rep.metric("E-REC", "snapshot_bytes", bytes as f64);
                rep.metric("E-REC", "snapshot_restore_us", restore);
                println!("   snapshot: {bytes} B, restored alone in {:.1} ms", restore / 1e3);
                let _ = std::fs::remove_dir_all(&only);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let speedup = times[0] / times[1];
        rep.metric("E-REC", "cold_over_snap100", speedup);
        rep.floor("E-REC", "cold_over_snap100", speedup, 2.0, true);
        println!("   snapshot cadence 100 recovers {speedup:.1}x faster than cold replay");
    }

    rep.header(
        "E-CHAOS",
        "overload availability under bounded admission queues (capacity sweep)",
        "load shedding is deterministic, prefers commits over reads, and vanishes off overload",
    );
    {
        // Six small documents under one ↑-guarded suite, driven by a timed
        // open-loop arrival stream far above the per-shard service rate —
        // overload by construction, no fault injection (the injected-fault
        // arms live in the release-mode chaos suite, tests/chaos.rs).
        let key = 0xCA05;
        let count = if rep.smoke { 600usize } else { 6_000 };
        let docs: Vec<(DocId, DataTree)> = (0..6)
            .map(|k| {
                let mut tree = DataTree::new("hospital");
                let patient = tree.add(tree.root_id(), "patient").expect("fresh tree");
                tree.add(patient, "visit").expect("fresh tree");
                (DocId::new(&format!("chaos-{k}")), tree)
            })
            .collect();
        let suite = vec![xuc_core::parse_constraint("(/patient/visit, ↑)").expect("suite")];
        let fresh = || {
            let gw = Gateway::new(Signer::new(key));
            for (id, tree) in &docs {
                gw.publish(*id, tree.clone(), suite.clone()).expect("fresh gateway");
            }
            gw
        };
        let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(id, t)| (*id, t)).collect();
        let arrivals = seeded_arrivals(&doc_refs, &["visit"], 0xC4A0_5EED, count, 8, 40, None);

        // Capacity sweep: availability must rise with the waiting room and
        // commits must out-survive reads wherever shedding fires.
        let mut last_avail = -1.0f64;
        for &capacity in rep.sweep(&[1usize, 4, 16, usize::MAX], 3) {
            let opts = LoadOptions { queue_capacity: capacity, service_ticks: 2 };
            let gw = fresh();
            let start = std::time::Instant::now();
            let (_, load) = gw.process_open_loop(&arrivals, 4, &opts);
            let micros = start.elapsed().as_micros() as f64;
            let label = if capacity == usize::MAX { 0 } else { capacity };
            let name =
                if capacity == usize::MAX { "unbounded".into() } else { capacity.to_string() };
            rep.row(
                "E-CHAOS",
                "capacity",
                label,
                micros,
                &format!(
                    "availability {:.3} (reads {:.3}, commits {:.3})",
                    load.availability(),
                    load.read_availability(),
                    load.commit_availability()
                ),
            );
            rep.metric("E-CHAOS", &format!("availability_cap{name}"), load.availability());
            rep.metric(
                "E-CHAOS",
                &format!("read_availability_cap{name}"),
                load.read_availability(),
            );
            rep.metric(
                "E-CHAOS",
                &format!("commit_availability_cap{name}"),
                load.commit_availability(),
            );
            assert!(
                load.availability() + 1e-9 >= last_avail,
                "availability must not fall as capacity grows"
            );
            last_avail = load.availability();
            if capacity == usize::MAX {
                assert_eq!(load.availability(), 1.0, "nothing sheds without bounds or deadlines");
            } else {
                assert!(load.shed_queue_full + load.shed_for_commit > 0, "sweep must overload");
                assert!(
                    load.commit_availability() >= load.read_availability(),
                    "the shed policy must prefer dropping reads over commits"
                );
            }
        }

        // Deadline arm: a tight start-by deadline sheds the backlog before
        // evaluation even with unbounded queues.
        let with_deadlines =
            seeded_arrivals(&doc_refs, &["visit"], 0xC4A0_5EED, count, 8, 40, Some(4));
        let (_, load) = fresh().process_open_loop(
            &with_deadlines,
            4,
            &LoadOptions { queue_capacity: usize::MAX, service_ticks: 2 },
        );
        assert!(load.shed_deadline > 0, "the deadline arm must expire requests");
        rep.metric("E-CHAOS", "availability_deadline4", load.availability());
        println!(
            "   deadline slack 4: availability {:.3} ({} expired before evaluation)",
            load.availability(),
            load.shed_deadline
        );

        // Shedding decisions are a deterministic pre-pass: the full verdict
        // log is byte-identical at 1, 2 and 8 workers even while shedding.
        let opts = LoadOptions { queue_capacity: 2, service_ticks: 2 };
        let reference = {
            let (v, load) = fresh().process_open_loop(&arrivals, 1, &opts);
            assert!(load.served < load.offered, "determinism arm must shed");
            render_arrival_log(&arrivals, &v)
        };
        for workers in [2usize, 8] {
            let (v, _) = fresh().process_open_loop(&arrivals, workers, &opts);
            assert_eq!(
                render_arrival_log(&arrivals, &v),
                reference,
                "open-loop log diverged at {workers} workers"
            );
        }
        println!("   determinism: shedding log byte-identical at 1/2/8 workers ✓");

        // Off overload the queue layer is invisible: unbounded open-loop
        // verdicts on a commit-only stream equal the plain closed-loop run.
        let commits: Vec<Request> =
            arrivals.iter().filter(|a| !a.read).map(|a| a.request.clone()).collect();
        let open: Vec<Verdict> = {
            let gw = fresh();
            let timed: Vec<xuc_service::Arrival> = commits
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, r)| xuc_service::Arrival::commit(r, i as u64))
                .collect();
            gw.process_open_loop(&timed, 4, &LoadOptions::default()).0
        };
        let closed = fresh().process(&commits, 4);
        assert_eq!(open, closed, "unbounded open loop must equal the closed loop");
        println!(
            "   equivalence: unbounded open loop ≡ closed loop on {} commits ✓",
            commits.len()
        );
    }

    rep.header(
        "E-LOAD",
        "open-loop latency vs offered load (per-document-serialized dispatch)",
        "saturation at 8 workers ≥ 2× 1 worker under hot-document skew (virtual-time model)",
    );
    {
        // Worker scaling is measured on the deterministic virtual-time
        // dispatch model (`xuc_bench::load`, the E-PAR precedent): same
        // config ⇒ bit-identical histograms, so the ratios below are
        // structural properties of the dispatch, not of the host. The
        // real gateway is pinned to the model's contract by the
        // load-differential suite (crates/service/tests/load.rs) and the
        // determinism arm below.
        let count = if rep.smoke { 2_000usize } else { 12_000 };
        let base = SimConfig {
            workers: 1,
            batch_cost: 8,
            docs: 64,
            skew_centi: 99,
            offered_per_kilotick: 200,
            count,
            seed: 0xE10AD,
        };

        // Saturation sweep: skew × worker count. The hot document at
        // skew 0.99 serializes on one worker while the cold documents
        // drain on the rest, so parallelism still pays until the hot
        // document's share of the stream binds.
        let mut sat = std::collections::HashMap::new();
        for &skew in &[0u32, 90, 99] {
            for &workers in &[1usize, 2, 8] {
                let s = saturation_throughput(&SimConfig { workers, skew_centi: skew, ..base });
                sat.insert((skew, workers), s);
                rep.metric("E-LOAD", &format!("sat_s{skew}_w{workers}"), s);
                println!(
                    "   saturation  skew 0.{skew:02} workers {workers}: {s:>7.1} req/kilotick"
                );
            }
        }
        let scaling = sat[&(99, 8)] / sat[&(99, 1)];
        rep.metric("E-LOAD", "sat_scaling_s99_w8_over_w1", scaling);
        rep.floor("E-LOAD", "sat_scaling_s99_w8_over_w1", scaling, 2.0, true);
        println!("   8-worker saturation is {scaling:.2}x the 1-worker figure at skew 0.99");

        // Latency vs offered load at 8 workers: p50/p99/p999 as the
        // offered rate climbs through 30/60/90/120% of saturation — the
        // open-loop latency cliff past 100%.
        for &skew in &[0u32, 99] {
            let cap = sat[&(skew, 8)];
            let mut tail_at_30 = 0u64;
            for &pct in &[30u64, 60, 90, 120] {
                let offered = ((cap * pct as f64 / 100.0) as u64).max(1);
                let result = simulate(&SimConfig {
                    workers: 8,
                    skew_centi: skew,
                    offered_per_kilotick: offered,
                    ..base
                });
                let (p50, p99, p999) = (
                    result.hist.quantile(0.50),
                    result.hist.quantile(0.99),
                    result.hist.quantile(0.999),
                );
                for (name, v) in [("p50", p50), ("p99", p99), ("p999", p999)] {
                    rep.metric("E-LOAD", &format!("{name}_s{skew}_load{pct}"), v as f64);
                }
                println!(
                    "   latency     skew 0.{skew:02} offered {pct:>3}%: p50 {p50:>6} p99 \
                     {p99:>6} p999 {p999:>6} ticks"
                );
                if pct == 30 {
                    tail_at_30 = p99;
                }
                if pct == 120 {
                    assert!(
                        p99 > tail_at_30,
                        "overload must show in the tail: p99 {tail_at_30} → {p99}"
                    );
                }
            }
        }

        // Real-execution arm: the worker pool's verdict log must be
        // byte-identical to a sequential `submit` loop on a hot-document
        // Zipfian stream at every worker count.
        // 64 children per document, under a wide all-linear ↑-suite so
        // every batch pays the realistic per-pattern splice bookkeeping.
        let mut term = String::from("h(");
        for i in 0..64u64 {
            term.push_str(&format!("p#{}(v#{}),", 1 + 2 * i, 2 + 2 * i));
        }
        term.pop();
        term.push(')');
        let tree = xuc_xtree::parse_term(&term).expect("static");
        let mut suite = vec![xuc_core::parse_constraint("(/p/v, ↑)").expect("static")];
        suite.extend(
            xuc_workloads::queries::overlapping_prefix_suite(&["p", "v"], 16, 4)
                .into_iter()
                .map(xuc_core::Constraint::no_remove),
        );
        assert!(suite.iter().all(|c| c.range.is_linear()), "E-LOAD suite must be all-linear");
        let docs: Vec<(DocId, DataTree)> =
            (0..8).map(|i| (DocId::new(&format!("load-{i}")), tree.clone())).collect();
        let fresh = || {
            let gw = Gateway::new(Signer::new(0xE10A));
            for (id, t) in &docs {
                gw.publish(*id, t.clone(), suite.clone()).expect("fresh gateway");
            }
            gw
        };
        let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(id, t)| (*id, t)).collect();
        let stream_len = if rep.smoke { 120usize } else { 360 };
        let stream = seeded_zipf_requests(&doc_refs, &["v", "w"], 0xE10A_5EED, stream_len, 99);
        let seq = fresh();
        let sequential: Vec<Verdict> = stream.iter().map(|r| seq.submit(r)).collect();
        let reference = render_log(&stream, &sequential);
        for workers in [1usize, 2, 8] {
            let verdicts = fresh().process(&stream, workers);
            assert_eq!(
                render_log(&stream, &verdicts),
                reference,
                "pooled log diverged from the submit loop at {workers} workers"
            );
        }
        println!("   determinism: pooled log ≡ sequential submit loop at 1/2/8 workers ✓");
    }

    rep.header(
        "E-OBS",
        "telemetry: commit stage attribution and instrumentation overhead",
        "observationally inert; instrumented throughput ≥ 0.95× uninstrumented",
    );
    {
        // Stage-attribution arm: the E-LOAD deployment (64-child wide
        // documents, 17-pattern all-linear suite) and its skew-0.99
        // Zipfian stream, drained over 2 workers through an
        // *instrumented* gateway. The attached telemetry must be inert
        // (log byte-identical to the uninstrumented reference) and the
        // per-stage breakdown shows where admission time goes.
        let mut term = String::from("h(");
        for i in 0..64u64 {
            term.push_str(&format!("p#{}(v#{}),", 1 + 2 * i, 2 + 2 * i));
        }
        term.pop();
        term.push(')');
        let tree = xuc_xtree::parse_term(&term).expect("static");
        let mut suite = vec![xuc_core::parse_constraint("(/p/v, ↑)").expect("static")];
        suite.extend(
            xuc_workloads::queries::overlapping_prefix_suite(&["p", "v"], 16, 4)
                .into_iter()
                .map(xuc_core::Constraint::no_remove),
        );
        let docs: Vec<(DocId, DataTree)> =
            (0..8).map(|i| (DocId::new(&format!("obs-{i}")), tree.clone())).collect();
        let fresh = || {
            let gw = Gateway::new(Signer::new(0x0B5E));
            for (id, t) in &docs {
                gw.publish(*id, t.clone(), suite.clone()).expect("fresh gateway");
            }
            gw
        };
        let doc_refs: Vec<(DocId, &DataTree)> = docs.iter().map(|(id, t)| (*id, t)).collect();
        let stream_len = if rep.smoke { 120usize } else { 360 };
        let stream = seeded_zipf_requests(&doc_refs, &["v", "w"], 0xE10A_5EED, stream_len, 99);
        let reference = render_log(&stream, &fresh().process(&stream, 1));
        let workers = 2usize;
        let gw = fresh();
        let tel = Arc::new(Telemetry::new());
        gw.attach_telemetry(Arc::clone(&tel));
        let verdicts = gw.process(&stream, workers);
        assert_eq!(render_log(&stream, &verdicts), reference, "telemetry must be inert");
        gw.record_metrics();
        let rows = tel.stages().rows();
        let total_us = tel.stages().total_micros().max(1) as f64;
        let spans: u64 = rows.iter().map(|r| r.count).sum();
        assert!(spans > 0, "instrumented drain must record stage spans");
        for r in &rows {
            rep.row(
                "E-OBS",
                &format!("{}_us", r.stage.name()),
                workers,
                r.total_micros as f64,
                &format!("{} spans ({:.1}%)", r.count, 100.0 * r.total_micros as f64 / total_us),
            );
            rep.metric(
                "E-OBS",
                &format!("stage_share_{}", r.stage.name()),
                r.total_micros as f64 / total_us,
            );
        }
        rep.metric("E-OBS", "spans_total", spans as f64);
        println!(
            "   {workers} workers: {spans} spans attributed, ring dropped {}",
            tel.ring().dropped()
        );

        // Overhead arm: the E-SVC gateway stream drained with and
        // without an attached telemetry bundle. This floor is a HARD
        // assertion even in smoke mode — telemetry cheap enough to leave
        // on is the whole point, so a regression here fails the run
        // everywhere.
        let n_requests = if rep.smoke { 720usize } else { 1200 };
        let (svc_docs, svc_requests) = wl::esvc_gateway_workload(n_requests);
        let drain = |instrument: bool| -> f64 {
            let gw = Gateway::new(Signer::new(0x0B5E));
            if instrument {
                gw.attach_telemetry(Arc::new(Telemetry::new()));
            }
            for (id, tree, suite) in &svc_docs {
                gw.publish(*id, tree.clone(), suite.clone()).expect("fresh gateway");
            }
            let t0 = std::time::Instant::now();
            let verdicts = gw.process(&svc_requests, 2);
            let micros = t0.elapsed().as_secs_f64() * 1e6;
            assert_eq!(verdicts.len(), svc_requests.len());
            micros
        };
        // Warm-up pair (discarded): faults in both arms' code paths and
        // allocator arenas before anything is measured.
        drain(false);
        drain(true);
        // Many short paired samples: each pair drains both arms
        // back-to-back, order alternating, so machine drift and cache
        // warm-up hit both equally, and the pair's ratio cancels what
        // the two drains share. The asserted statistic is the median of
        // the per-pair throughput ratios: one pair's ratio swings by
        // ±20 % on a 2-vCPU guest, but the median of this many pairs
        // moved by about ±1.5 % from run to run there, where a ratio of
        // minimums over a handful of drains moved by ±18 %.
        let pairs = if rep.smoke { 61 } else { 101 };
        let mut ratios = Vec::with_capacity(pairs);
        let (mut plain_samples, mut instr_samples) = (Vec::new(), Vec::new());
        for i in 0..pairs {
            let first_instrumented = i % 2 == 0;
            let a = drain(first_instrumented);
            let b = drain(!first_instrumented);
            let (p, q) = if first_instrumented { (b, a) } else { (a, b) };
            ratios.push(p / q);
            plain_samples.push(p);
            instr_samples.push(q);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let ratio = median(&mut ratios);
        let (plain_us, instr_us) = (median(&mut plain_samples), median(&mut instr_samples));
        let (q1, q3) = (ratios[pairs / 4], ratios[3 * pairs / 4]);
        rep.row("E-OBS", "overhead_plain", n_requests, plain_us, "uninstrumented drain (median)");
        rep.row(
            "E-OBS",
            "overhead_instrumented",
            n_requests,
            instr_us,
            &format!("telemetry attached (median pair ratio {ratio:.2}x throughput)"),
        );
        rep.metric("E-OBS", "overhead_throughput_ratio", ratio);
        println!(
            "   overhead: {pairs} paired drains, ratio quartiles {q1:.3} / {ratio:.3} / {q3:.3}"
        );
        assert!(
            ratio >= 0.95,
            "instrumented throughput fell below the 0.95x floor: median pair ratio {ratio:.3} \
             ({instr_us:.0} µs vs {plain_us:.0} µs median drains)"
        );
        println!("   overhead: instrumented throughput {ratio:.2}x uninstrumented (floor 0.95) ✓");
    }

    println!();
    rep.write_json();
    if rep.perf_regression {
        println!("experiment assertions passed; PERF WARNING above (exit 1)");
        std::process::exit(1);
    }
    println!("all experiment assertions passed");
}
