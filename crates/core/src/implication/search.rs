//! Bounded, verified counterexample search for general implication.
//!
//! This is the sound-but-budgeted workhorse behind the coNP/NEXPTIME cells
//! of Table 1 (and the test oracle for the exact procedures): it enumerates
//! candidate pairs `(I, J)` built from
//!
//! 1. **canonical models** of the goal range, edited by the update
//!    operations a violator would use (delete / splice / re-identify /
//!    move / relabel), including the proof constructions of Figures 3–5,
//! 2. enriched variants that graft canonical models of the constraint
//!    ranges alongside (so interactions between ranges are exercised), and
//! 3. **deterministic pseudo-random** tree pairs over the constraint
//!    alphabet (seeded xorshift, so runs are reproducible),
//!
//! and returns a candidate that *verifies*: satisfies every constraint of
//! `C` and violates `c`. Small-model properties (Theorems 4.7/5.1) justify
//! searching small instances first.
//!
//! # Hot-path layout
//!
//! The search examines thousands of candidates per call, so it never
//! clones a tree per candidate. Each working tree is owned by **one**
//! reusable [`Evaluator`]; every candidate edit is applied through it
//! ([`Evaluator::apply`]), which follows the edit **in time proportional
//! to the edit** (a relabel candidate costs two bitset-word patches, not
//! an O(n) re-walk), all range results are compared against the seed's
//! cached results as plain set inclusions, and the edit is reverted via
//! [`Evaluator::undo`]. Trees are cloned exactly once per *returned*
//! counterexample.
//!
//! Large constraint batches additionally take the **set-at-a-time** path:
//! when at least `SET_PATH_CROSSOVER` constraint ranges are linear, the
//! whole range batch is compiled **once per search** into a single tagged
//! automaton ([`xuc_automata::PatternSetCompiler`]) and every candidate's
//! constraint verification becomes one [`Evaluator::eval_set`] pass —
//! one automaton step per node instead of one bitset sweep per range.
//! The goal range stays on the lazy per-pattern path (it is evaluated for
//! every candidate; the constraint ranges only when the goal check
//! fires). Results are identical either way (`eval_set` ≡ `eval_all` is
//! property-pinned in `xuc-xpath`), so determinism is unaffected — the
//! sharded determinism suite runs a batch above the crossover to prove it.
//!
//! # Sharding and determinism
//!
//! Candidate enumeration is embarrassingly parallel, so
//! [`find_counterexample_sharded`] fans the candidate space out over a
//! [`std::thread::scope`] worker pool. The result is **identical at every
//! shard count** because nothing about a candidate depends on scheduling:
//!
//! * every candidate has a fixed **global index** (phase 1 in seed × edit
//!   order, two evaluation half-steps per candidate; then phase 2's proof
//!   constructions; then phase 3), assigned before workers start;
//! * the budget admits exactly the candidates whose index is below it —
//!   a *deterministic prefix* of the enumeration, not a race on a counter;
//! * the returned counterexample is the **lowest-index** verifying
//!   candidate: workers publish wins to a shared atomic best-index (also
//!   used to prune candidates that can no longer win), and the minimum
//!   over all workers is taken at join;
//! * phase 3's random pairs are drawn from `P3_STREAMS` *virtual
//!   streams*, each with a seed derived as `P3_SEED ^ mix(stream)`
//!   (per-stream, **not** per-OS-thread), interleaved round-robin into the
//!   global index space — so the pair at any index is the same no matter
//!   which worker draws it.
//!
//! Work units (one seed's candidate chunk — currently the whole list, so
//! the per-seed working-tree setup is amortized over every candidate of
//! the seed — one proof construction, or one random stream) are handed to
//! workers through a single atomic cursor; each worker owns its working
//! tree and evaluator, so there is no shared mutable tree state at all.

use crate::constraint::Constraint;
use crate::construct;
use crate::outcome::CounterExample;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use xuc_automata::{CompiledPatternSet, PatternSetCompiler};
use xuc_xpath::{canonical, Evaluator, Pattern};
use xuc_xtree::{DataTree, Label, NodeId, NodeRef, Update};

/// Crossover for the set-at-a-time constraint verification path: the
/// range batch is compiled into one automaton when at least this many
/// ranges take the compiled (linear) path. Below the crossover the
/// per-pattern loop wins — it usually evaluates only the goal range,
/// while the compiled pass scans every range's acceptance row per node.
/// The E-SET experiment in `run_experiments` measures the batch
/// break-even (between 8 and 16 patterns on 1k-node documents) and
/// asserts the ≥ 3× win at 64 patterns that justifies the switch.
pub(crate) const SET_PATH_CROSSOVER: usize = 16;

/// A tiny deterministic xorshift generator (no external dependency, fully
/// reproducible searches).
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A near-uniform draw from `0..n` by widening multiply. The previous
    /// `next_u64() % n` carried modulo bias (the low `2^64 mod n` residues
    /// were over-weighted); `(x * n) >> 64` reduces the bias to at most
    /// `n / 2^64` while still consuming exactly one draw per call, which
    /// keeps derived streams aligned.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() as u128) * (n.max(1) as u128)) >> 64) as usize
    }
}

/// Is the pair a counterexample, judged on precomputed range results
/// (one entry per constraint of `set` followed by one for `goal`)?
/// Reference implementation of the candidate check — the hot loops in
/// [`find_counterexample`] compute the same answer lazily, goal range
/// first, and the agreement test pins the two to `CounterExample::verify`.
#[cfg(test)]
fn refutes(
    set: &[Constraint],
    goal: &Constraint,
    before_sets: &[BTreeSet<NodeRef>],
    after_sets: &[BTreeSet<NodeRef>],
) -> bool {
    let goal_i = set.len();
    if goal.kind.satisfied_on(&before_sets[goal_i], &after_sets[goal_i]) {
        return false;
    }
    set.iter().enumerate().all(|(i, c)| c.kind.satisfied_on(&before_sets[i], &after_sets[i]))
}

fn eval_sets(ev: &mut Evaluator, patterns: &[&Pattern]) -> Vec<BTreeSet<NodeRef>> {
    patterns.iter().map(|q| ev.eval(q)).collect()
}

/// All range results for the current tree, in `SearchCtx::patterns`
/// layout (one entry per constraint of `set`, then the goal): a single
/// [`Evaluator::eval_set`] pass on the set-at-a-time path, the
/// per-pattern loop otherwise. The two produce identical sets.
fn eval_ranges(ctx: &SearchCtx, ev: &mut Evaluator) -> Vec<BTreeSet<NodeRef>> {
    match ctx.set_dfa {
        Some(dfa) => {
            let mut sets = ev.eval_set(dfa);
            sets.push(ev.eval(&ctx.goal.range));
            sets
        }
        None => eval_sets(ev, ctx.patterns),
    }
}

/// Virtual phase-3 RNG streams. Fixed (independent of the worker count) so
/// that the random pair at any global candidate index is the same at every
/// shard count.
const P3_STREAMS: u64 = 64;

/// Base seed for phase 3; stream `s` uses `P3_SEED ^ mix(s)`.
const P3_SEED: u64 = 0x5eed_cafe_d00d_f00d;

// Phase-1 work units are whole seeds: seeds are small bounded canonical
// models and there are usually far more of them than shards, so per-seed
// units balance fine — and claiming a seed whole lets a worker amortize
// its SeedState (tree clone + evaluator + cached base sets) over every
// candidate of that seed, instead of rebuilding it per interleaved chunk.

/// Aggregate statistics of one search run. `winner_index` is deterministic
/// for a fixed input and budget (shard-count independent); `evaluated` can
/// vary slightly with scheduling because workers skip candidates that
/// provably cannot beat the current best.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    /// Evaluation half-steps actually spent (never exceeds the budget).
    pub evaluated: u64,
    /// Global index of the returned counterexample, if any.
    pub winner_index: Option<u64>,
}

/// The default shard count: one per available core, capped at 8 (the
/// candidate space rarely feeds more).
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Searches for a verified counterexample to `C ⊨ c`, examining at most
/// `budget` candidate evaluation steps across [`default_shards`] worker
/// threads. Sound: every returned pair is checked by
/// [`CounterExample::verify`]. Deterministic: the result is the
/// lowest-index verifying candidate of a fixed enumeration, independent of
/// thread count and scheduling.
pub fn find_counterexample(
    set: &[Constraint],
    goal: &Constraint,
    budget: usize,
) -> Option<CounterExample> {
    // Small budgets are sub-millisecond searches where thread spawn/join
    // would dominate; stay inline. The result is shard-count independent
    // by construction, so this is purely a scheduling choice.
    let shards = if budget < 2_000 { 1 } else { default_shards() };
    find_counterexample_sharded(set, goal, budget, shards)
}

/// [`find_counterexample`] with an explicit shard (worker thread) count.
/// The returned counterexample is identical at every shard count.
pub fn find_counterexample_sharded(
    set: &[Constraint],
    goal: &Constraint,
    budget: usize,
    shards: usize,
) -> Option<CounterExample> {
    find_counterexample_with_stats(set, goal, budget, shards).0
}

/// [`find_counterexample_sharded`] plus run statistics (for benches and
/// determinism tests).
pub fn find_counterexample_with_stats(
    set: &[Constraint],
    goal: &Constraint,
    budget: usize,
    shards: usize,
) -> (Option<CounterExample>, SearchStats) {
    find_counterexample_tuned(set, goal, budget, shards, SET_PATH_CROSSOVER)
}

/// [`find_counterexample_with_stats`] with an explicit set-path crossover
/// (tests force both verification paths on one input; `usize::MAX`
/// disables the set path entirely).
fn find_counterexample_tuned(
    set: &[Constraint],
    goal: &Constraint,
    budget: usize,
    shards: usize,
    crossover: usize,
) -> (Option<CounterExample>, SearchStats) {
    let shards = shards.max(1);
    let budget = budget as u64;
    let patterns: Vec<&Pattern> = set.iter().map(|c| &c.range).chain([&goal.range]).collect();

    let z = canonical::fresh_label_for(patterns.iter().copied());
    let bound = patterns.iter().map(|p| canonical::chain_bound_for(p)).max().unwrap_or(2);
    let labels = label_pool(&patterns, z);
    let seeds = seed_trees(&goal.range, set, bound.min(3), z);

    // Set-at-a-time crossover: compile the constraint ranges (goal
    // excluded — it stays on the lazy per-candidate path) once for the
    // whole search when enough of them compile to linear automata.
    let set_dfa: Option<CompiledPatternSet> = if set.len() >= crossover {
        let compiled = PatternSetCompiler::compile(set.iter().map(|c| &c.range));
        (compiled.compiled_count() >= crossover).then_some(compiled)
    } else {
        None
    };

    // Enumerate the phase-1 candidates up front on this thread, so
    // candidate identity (including the ids minted for `ReplaceId` edits)
    // is fixed before any worker runs, and assign the global index space:
    // phase 1, then 2, then 3. Enumeration stops with the budget prefix:
    // once `next_index >= budget` no later seed can contribute an
    // eligible candidate, so skipping its enumeration cannot change the
    // admitted set (small-budget calls stay cheap).
    let mut seed_edits: Vec<Vec<Update>> = Vec::with_capacity(seeds.len());
    let mut units = Vec::new();
    let mut next_index = 0u64;
    for (s, (tree, n)) in seeds.iter().enumerate() {
        if next_index >= budget {
            seed_edits.push(Vec::new());
            continue;
        }
        let edits = applicable_edit_candidates(tree, *n, &labels);
        if !edits.is_empty() {
            units.push(Unit::Edits { seed: s, lo: 0, hi: edits.len(), base: next_index });
        }
        next_index += 2 * edits.len() as u64;
        seed_edits.push(edits);
    }
    for (s, (tree, n)) in seeds.iter().enumerate() {
        if tree.parent(*n).ok().flatten().is_some() {
            if next_index < budget {
                units.push(Unit::Construct { seed: s, base: next_index });
            }
            next_index += 2;
        }
    }
    let p3_base = next_index;
    for stream in 0..P3_STREAMS {
        if p3_base + stream < budget {
            units.push(Unit::Random { stream, base: p3_base });
        }
    }

    let ctx = SearchCtx {
        set,
        goal,
        patterns: &patterns,
        set_dfa: set_dfa.as_ref(),
        seeds: &seeds,
        seed_edits: &seed_edits,
        labels: &labels,
        budget,
        units: &units,
        next_unit: AtomicUsize::new(0),
        best: AtomicU64::new(u64::MAX),
        spent: AtomicU64::new(0),
        winner: Mutex::new(None),
    };

    if shards == 1 {
        run_worker(&ctx);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..shards {
                scope.spawn(|| run_worker(&ctx));
            }
        });
    }

    let winner = ctx.winner.into_inner();
    let stats = SearchStats {
        evaluated: ctx.spent.into_inner(),
        winner_index: winner.as_ref().map(|(i, _)| *i),
    };
    (winner.map(|(_, ce)| ce), stats)
}

/// One unit of work a shard claims from the shared cursor. `base` is the
/// global index of the unit's first candidate evaluation.
enum Unit {
    /// Candidates `lo..hi` of `seed_edits[seed]` (two half-steps each).
    Edits { seed: usize, lo: usize, hi: usize, base: u64 },
    /// The Figure 4 proof construction for one seed (two half-steps).
    Construct { seed: usize, base: u64 },
    /// One virtual phase-3 RNG stream; draw `j` of `stream` sits at global
    /// index `base + stream + j * P3_STREAMS`.
    Random { stream: u64, base: u64 },
}

/// Shared read-only inputs plus the coordination cells of one search run.
struct SearchCtx<'a> {
    set: &'a [Constraint],
    goal: &'a Constraint,
    patterns: &'a [&'a Pattern],
    /// The compiled constraint-range batch, present iff the search is on
    /// the set-at-a-time path (see `SET_PATH_CROSSOVER`).
    set_dfa: Option<&'a CompiledPatternSet>,
    seeds: &'a [(DataTree, NodeId)],
    seed_edits: &'a [Vec<Update>],
    labels: &'a [Label],
    budget: u64,
    units: &'a [Unit],
    /// Work-stealing cursor into `units`.
    next_unit: AtomicUsize,
    /// Lowest verifying global index found so far (pruning + determinism).
    best: AtomicU64,
    /// Evaluation half-steps spent (bounded by `budget` by construction).
    spent: AtomicU64,
    /// The lowest-index verified counterexample found so far.
    winner: Mutex<Option<(u64, CounterExample)>>,
}

impl SearchCtx<'_> {
    /// Publishes a verified counterexample found at `idx`; keeps the
    /// lowest-index one.
    fn offer(&self, idx: u64, ce: CounterExample) {
        self.best.fetch_min(idx, Ordering::Relaxed);
        let mut w = self.winner.lock();
        if w.as_ref().is_none_or(|(i, _)| idx < *i) {
            *w = Some((idx, ce));
        }
    }
}

/// Per-worker cached state for phase-1 units: the evaluator owning one
/// working copy of the current seed, and its cached range results.
/// Reused across chunks of the same seed.
struct SeedState {
    seed: usize,
    ev: Evaluator,
    base_sets: Vec<BTreeSet<NodeRef>>,
}

fn run_worker(ctx: &SearchCtx) {
    let mut cache: Option<SeedState> = None;
    loop {
        let u = ctx.next_unit.fetch_add(1, Ordering::Relaxed);
        let Some(unit) = ctx.units.get(u) else { return };
        match unit {
            Unit::Edits { seed, lo, hi, base } => {
                run_edit_chunk(ctx, &mut cache, *seed, *lo, *hi, *base);
            }
            Unit::Construct { seed, base } => run_construct(ctx, *seed, *base),
            Unit::Random { stream, base } => run_random_stream(ctx, *stream, *base),
        }
    }
}

/// Phase 1 on one chunk: apply/evaluate/undo each candidate on the
/// worker-owned working tree. Zero tree clones and, for relabel
/// candidates, zero tree walks — the evaluator is patched in place via the
/// edit scope.
fn run_edit_chunk(
    ctx: &SearchCtx,
    cache: &mut Option<SeedState>,
    seed: usize,
    lo: usize,
    hi: usize,
    base: u64,
) {
    if base >= ctx.budget || base >= ctx.best.load(Ordering::Relaxed) {
        return;
    }
    if cache.as_ref().is_none_or(|s| s.seed != seed) {
        let mut ev = Evaluator::from_tree(ctx.seeds[seed].0.clone());
        let base_sets = eval_ranges(ctx, &mut ev);
        *cache = Some(SeedState { seed, ev, base_sets });
    }
    let st = cache.as_mut().expect("just built");
    let seed_tree = &ctx.seeds[seed].0;
    let goal_i = ctx.set.len();

    for (k, edit) in ctx.seed_edits[seed][lo..hi].iter().enumerate() {
        let idx_fwd = base + 2 * k as u64;
        let idx_bwd = idx_fwd + 1;
        // Indices grow within the chunk: past the budget or the current
        // best, nothing here can win any more.
        if idx_fwd >= ctx.budget || idx_fwd >= ctx.best.load(Ordering::Relaxed) {
            return;
        }
        let (token, _) = st.ev.apply(edit).expect("pre-filtered candidates apply");
        ctx.spent.fetch_add(1, Ordering::Relaxed);

        // Goal range first: most candidates leave the goal satisfied in
        // both directions and never pay for the constraint ranges.
        let after_goal = st.ev.eval(&ctx.goal.range);
        let fwd = !ctx.goal.kind.satisfied_on(&st.base_sets[goal_i], &after_goal);
        // The opposite direction covers ↓ goals.
        let bwd = !ctx.goal.kind.satisfied_on(&after_goal, &st.base_sets[goal_i]);
        let after: Vec<BTreeSet<NodeRef>> = if fwd || bwd {
            match ctx.set_dfa {
                // One compiled pass for the whole constraint batch.
                Some(dfa) => st.ev.eval_set(dfa),
                None => ctx.set.iter().map(|c| st.ev.eval(&c.range)).collect(),
            }
        } else {
            Vec::new()
        };
        let constraints_ok = |before_sets: &[BTreeSet<NodeRef>],
                              after_sets: &[BTreeSet<NodeRef>]| {
            ctx.set
                .iter()
                .enumerate()
                .all(|(i, c)| c.kind.satisfied_on(&before_sets[i], &after_sets[i]))
        };
        if fwd && constraints_ok(&st.base_sets, &after) {
            let ce = CounterExample { before: seed_tree.clone(), after: st.ev.tree().clone() };
            debug_assert!(ce.verify(ctx.set, ctx.goal), "set-level refutation must verify");
            if ce.verify(ctx.set, ctx.goal) {
                ctx.offer(idx_fwd, ce);
            }
        }
        if idx_bwd < ctx.budget && idx_bwd < ctx.best.load(Ordering::Relaxed) {
            ctx.spent.fetch_add(1, Ordering::Relaxed);
            if bwd && constraints_ok(&after, &st.base_sets) {
                let ce = CounterExample { before: st.ev.tree().clone(), after: seed_tree.clone() };
                debug_assert!(ce.verify(ctx.set, ctx.goal), "set-level refutation must verify");
                if ce.verify(ctx.set, ctx.goal) {
                    ctx.offer(idx_bwd, ce);
                }
            }
        }
        st.ev.undo(token).expect("undo token applies to its own tree");
    }
}

/// Phase 2: the Figure 4 proof construction for one seed, both directions.
fn run_construct(ctx: &SearchCtx, seed: usize, base: u64) {
    if base >= ctx.budget || base >= ctx.best.load(Ordering::Relaxed) {
        return;
    }
    let (tree, n) = &ctx.seeds[seed];
    ctx.spent.fetch_add(1, Ordering::Relaxed);
    let fig4 = construct::duplicate_and_drop(tree, *n);
    if fig4.verify(ctx.set, ctx.goal) {
        ctx.offer(base, fig4.clone());
    }
    if base + 1 < ctx.budget {
        ctx.spent.fetch_add(1, Ordering::Relaxed);
        let flipped = CounterExample { before: fig4.after, after: fig4.before };
        if flipped.verify(ctx.set, ctx.goal) {
            ctx.offer(base + 1, flipped);
        }
    }
}

/// Phase 3: one virtual random stream — deterministic pseudo-random pairs,
/// edited in place with an undo stack so the `before` tree is recovered
/// without a per-candidate clone.
fn run_random_stream(ctx: &SearchCtx, stream: u64, base: u64) {
    // Per-stream derived seed (`base_seed ^ stream`, bits spread by a
    // splitmix-style odd multiplier so low stream ids do not collide into
    // correlated xorshift states).
    let mut rng = XorShift::new(P3_SEED ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for j in 0.. {
        let idx = base + stream + j * P3_STREAMS;
        // Later draws only have larger indices; once past the budget or
        // the winning index, the whole stream is done.
        if idx >= ctx.budget || idx >= ctx.best.load(Ordering::Relaxed) {
            return;
        }
        ctx.spent.fetch_add(1, Ordering::Relaxed);
        let size = 2 + rng.below(7);
        let mut ev = Evaluator::from_tree(random_tree(&mut rng, ctx.labels, size));
        // Goal range only: constraint validity is left to `verify` on the
        // rare candidates whose goal check fires.
        let base_goal = ev.eval(&ctx.goal.range);
        let edits = 1 + rng.below(3);
        let mut stack = Vec::new();
        for _ in 0..edits {
            let op = random_update(&mut rng, ev.tree(), ctx.labels);
            if let Ok((token, _)) = ev.apply(&op) {
                stack.push(token);
            }
        }
        let after_goal = ev.eval(&ctx.goal.range);
        if !ctx.goal.kind.satisfied_on(&base_goal, &after_goal) {
            let after_tree = ev.tree().clone();
            while let Some(token) = stack.pop() {
                ev.undo(token).expect("undo token applies to its own tree");
            }
            let ce = CounterExample { before: ev.into_tree(), after: after_tree };
            if ce.verify(ctx.set, ctx.goal) {
                ctx.offer(idx, ce);
            }
        }
    }
}

/// The label pool for candidate trees: constraint labels plus `z`.
fn label_pool(patterns: &[&Pattern], z: Label) -> Vec<Label> {
    let mut pool: std::collections::BTreeSet<Label> =
        patterns.iter().flat_map(|p| p.labels()).collect();
    pool.insert(z);
    pool.into_iter().collect()
}

/// Seed trees: canonical models of the goal range (the node to attack is
/// the model's output), plus variants enriched with canonical models of
/// each constraint range grafted at the root.
fn seed_trees(
    goal_range: &Pattern,
    set: &[Constraint],
    max_chain: usize,
    z: Label,
) -> Vec<(DataTree, NodeId)> {
    let mut out = Vec::new();
    for model in canonical::canonical_models(goal_range, max_chain, z).take(64) {
        out.push((model.tree.clone(), model.output));
        // Enriched: add one canonical model of each constraint range.
        let mut enriched = model.tree.clone();
        for c in set.iter().take(4) {
            let side = canonical::instantiate(
                &c.range,
                &vec![1; c.range.descendant_edge_count()],
                z,
                Label::new("side"),
            );
            for child in side.tree.children_iter(side.tree.root_id()).expect("root") {
                let _ = enriched.graft_copy(enriched.root_id(), &side.tree, child);
            }
        }
        out.push((enriched, model.output));
    }
    out
}

/// Candidate edits for a given `I` and target node: the updates a violator
/// could try, as undoable operations (no trees are materialized here).
fn edit_candidates(tree: &DataTree, n: NodeId, labels: &[Label]) -> Vec<Update> {
    let mut out = Vec::new();

    if tree.parent(n).ok().flatten().is_some() {
        // Delete the whole subtree.
        out.push(Update::DeleteSubtree { node: n });
        // Splice the node out.
        out.push(Update::DeleteNode { node: n });
        // Replace identity (Theorem 3.1).
        out.push(Update::ReplaceId { node: n, new_id: NodeId::fresh() });
        // Move under the root.
        out.push(Update::Move { node: n, new_parent: tree.root_id() });
        // Move under every other node (the root was already tried above;
        // cycle-creating moves are filtered by the caller).
        for target in tree.node_ids() {
            if target != n && target != tree.root_id() {
                out.push(Update::Move { node: n, new_parent: target });
            }
        }
    }
    // Relabel.
    for &l in labels {
        if Ok(l) != tree.label(n) {
            out.push(Update::Relabel { node: n, label: l });
        }
    }
    // Also attack each ancestor of n the same basic ways.
    let mut cur = tree.parent(n).ok().flatten();
    while let Some(a) = cur {
        if tree.parent(a).ok().flatten().is_some() {
            out.push(Update::DeleteNode { node: a });
            out.push(Update::ReplaceId { node: a, new_id: NodeId::fresh() });
        }
        cur = tree.parent(a).ok().flatten();
    }
    out
}

/// [`edit_candidates`] restricted to edits that actually apply on the seed
/// tree (cycle-creating moves are dropped). Filtering up front keeps the
/// global candidate indices dense, so budget accounting matches the
/// sequential semantics: budget is spent on *evaluated* candidates only.
fn applicable_edit_candidates(tree: &DataTree, n: NodeId, labels: &[Label]) -> Vec<Update> {
    edit_candidates(tree, n, labels)
        .into_iter()
        .filter(|e| match e {
            Update::Move { node, new_parent } => {
                node != new_parent && !tree.is_proper_ancestor(*node, *new_parent).unwrap_or(true)
            }
            _ => true,
        })
        .collect()
}

/// A uniformly random tree with `n` non-root nodes over the label pool.
pub(crate) fn random_tree(rng: &mut XorShift, labels: &[Label], n: usize) -> DataTree {
    let mut tree = DataTree::new("root");
    let mut ids = vec![tree.root_id()];
    for _ in 0..n {
        let parent = ids[rng.below(ids.len())];
        let label = labels[rng.below(labels.len())];
        let id = tree.add(parent, label).expect("fresh");
        ids.push(id);
    }
    tree
}

/// One random primitive update against the current shape of `tree`.
fn random_update(rng: &mut XorShift, tree: &DataTree, labels: &[Label]) -> Update {
    let ids = tree.node_ids();
    match rng.below(5) {
        0 => Update::InsertLeaf {
            parent: ids[rng.below(ids.len())],
            id: NodeId::fresh(),
            label: labels[rng.below(labels.len())],
        },
        1 => Update::DeleteSubtree { node: ids[rng.below(ids.len())] },
        2 => Update::DeleteNode { node: ids[rng.below(ids.len())] },
        3 => {
            let node = ids[rng.below(ids.len())];
            let target = ids[rng.below(ids.len())];
            Update::Move { node, new_parent: target }
        }
        _ => {
            let node = ids[rng.below(ids.len())];
            let label = labels[rng.below(labels.len())];
            Update::Relabel { node, label }
        }
    }
}

/// Applies `k` random updates to a copy of `tree`.
pub(crate) fn random_edit(
    rng: &mut XorShift,
    tree: &DataTree,
    labels: &[Label],
    k: usize,
) -> DataTree {
    let mut t = tree.clone();
    for _ in 0..k {
        let op = random_update(rng, &t, labels);
        let _ = xuc_xtree::apply_update(&mut t, &op);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse_constraint;
    use xuc_xtree::{apply_undoable, undo};

    fn c(s: &str) -> Constraint {
        parse_constraint(s).unwrap()
    }

    #[test]
    fn finds_simple_deletion_witness() {
        let set = vec![c("(/a[/b], ↑)")];
        let goal = c("(/a, ↑)");
        let ce = find_counterexample(&set, &goal, 5_000).expect("counterexample exists");
        assert!(ce.verify(&set, &goal));
    }

    #[test]
    fn finds_insertion_witness() {
        let set = vec![c("(/a[/b], ↓)")];
        let goal = c("(/a, ↓)");
        let ce = find_counterexample(&set, &goal, 5_000).expect("counterexample exists");
        assert!(ce.verify(&set, &goal));
    }

    #[test]
    fn respects_budget() {
        // Implied case: no counterexample exists; search must terminate.
        let set = vec![c("(/a, ↑)")];
        let goal = c("(/a, ↑)");
        assert!(find_counterexample(&set, &goal, 500).is_none());
    }

    #[test]
    fn budget_bounds_evaluations() {
        let set = vec![c("(/a, ↑)")];
        let goal = c("(/a, ↑)");
        for budget in [0usize, 1, 100, 500] {
            let (ce, stats) = find_counterexample_with_stats(&set, &goal, budget, 2);
            assert!(ce.is_none());
            assert!(
                stats.evaluated <= budget as u64,
                "evaluated {} > budget {budget}",
                stats.evaluated
            );
        }
    }

    #[test]
    fn full_fragment_witness() {
        // //a[/b]/* vs //a/*: removal allowed when predicate not protected.
        let set = vec![c("(//a[/b]/c, ↑)")];
        let goal = c("(//a/c, ↑)");
        let ce = find_counterexample(&set, &goal, 20_000).expect("counterexample exists");
        assert!(ce.verify(&set, &goal));
    }

    #[test]
    fn random_trees_are_well_formed() {
        let mut rng = XorShift::new(7);
        let labels = vec![Label::new("a"), Label::new("b")];
        for _ in 0..50 {
            let t = random_tree(&mut rng, &labels, 6);
            assert_eq!(t.len(), 7);
            let edited = random_edit(&mut rng, &t, &labels, 3);
            // Edits keep a live tree rooted at the same root (3 edits can
            // at most insert 3 leaves; deletions may empty it down to the
            // root, which stays).
            assert!((1..=10).contains(&edited.len()));
            assert_eq!(edited.root_id(), t.root_id());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = XorShift::new(42);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
        assert_eq!(XorShift::new(9).below(0), 0, "n = 0 clamps to 0");
        assert_eq!(XorShift::new(9).below(1), 0);
    }

    #[test]
    fn edit_candidates_apply_and_undo_without_cloning() {
        // The acceptance property of the clone-free search: every candidate
        // edit round-trips on the single working tree via apply/undo.
        let z = Label::z();
        let goal = c("(/a[/b]//c, ↑)");
        let set = vec![c("(//c, ↑)"), c("(/a, ↓)")];
        let patterns: Vec<&Pattern> = set.iter().map(|x| &x.range).chain([&goal.range]).collect();
        let labels = label_pool(&patterns, z);
        let seeds = seed_trees(&goal.range, &set, 2, z);
        assert!(!seeds.is_empty());
        let mut candidates_seen = 0;
        for (tree, n) in &seeds {
            let mut work = tree.clone();
            for edit in applicable_edit_candidates(tree, *n, &labels) {
                let (token, _scope) =
                    apply_undoable(&mut work, &edit).expect("pre-filtered candidates apply");
                candidates_seen += 1;
                undo(&mut work, token).unwrap();
                assert!(work.identified_eq(tree), "apply/undo of {edit} must restore the seed");
            }
        }
        assert!(candidates_seen > 50, "enumeration exercised: {candidates_seen}");
    }

    #[test]
    fn relabel_candidates_do_zero_full_walks() {
        // The acceptance property of the edit-proportional search: running
        // the real phase-1 chunk loop over relabel-only candidates performs
        // exactly the walks needed to build the per-seed state — none per
        // candidate.
        let goal = c("(/a[/b]//c, ↑)");
        let set = vec![c("(//c, ↑)"), c("(/a, ↓)")];
        let patterns: Vec<&Pattern> = set.iter().map(|x| &x.range).chain([&goal.range]).collect();
        let labels = label_pool(&patterns, Label::z());
        let seeds = seed_trees(&goal.range, &set, 2, Label::z());
        let seed_edits: Vec<Vec<Update>> = seeds
            .iter()
            .map(|(tree, n)| {
                applicable_edit_candidates(tree, *n, &labels)
                    .into_iter()
                    .filter(|e| matches!(e, Update::Relabel { .. }))
                    .collect()
            })
            .collect();
        let total: usize = seed_edits.iter().map(Vec::len).sum();
        assert!(total >= 10, "relabel candidates exercised: {total}");

        let units: Vec<Unit> = Vec::new();
        let ctx = SearchCtx {
            set: &set,
            goal: &goal,
            patterns: &patterns,
            set_dfa: None,
            seeds: &seeds,
            seed_edits: &seed_edits,
            labels: &labels,
            budget: u64::MAX,
            units: &units,
            next_unit: AtomicUsize::new(0),
            best: AtomicU64::new(u64::MAX),
            spent: AtomicU64::new(0),
            winner: Mutex::new(None),
        };
        let mut cache = None;
        let mut seeds_built = 0u64;
        let walks_before = xuc_xtree::preorder_walk_count();
        for (s, edits) in seed_edits.iter().enumerate() {
            if !edits.is_empty() {
                seeds_built += 1;
            }
            run_edit_chunk(&ctx, &mut cache, s, 0, edits.len(), 0);
        }
        let walks = xuc_xtree::preorder_walk_count() - walks_before;
        // One walk per per-seed state build (the first derivation of the
        // owned tree's rows); zero walks for the relabel candidates
        // themselves.
        assert_eq!(
            walks, seeds_built,
            "walks {walks} != seed builds {seeds_built} over {total} relabel candidates"
        );
        assert!(ctx.spent.load(Ordering::Relaxed) >= total as u64);
    }

    /// A linear constraint batch above the set-path crossover: `count`
    /// distinct `(//k{i}, ↑)` ranges. The goal `(//g, ↑)` is refutable
    /// (delete the `g` node: no `k{i}` range is touched).
    fn big_linear_batch(count: usize) -> (Vec<Constraint>, Constraint) {
        let set = (0..count).map(|i| c(&format!("(//k{i}, ↑)"))).collect();
        (set, c("(//g, ↑)"))
    }

    #[test]
    fn set_path_agrees_with_per_pattern_path() {
        // The same input forced down both verification paths must produce
        // the same winner index and the same counterexample (modulo fresh
        // ids): the set path may only change *speed*, never results.
        let (set, goal) = big_linear_batch(20);
        for budget in [500usize, 5_000] {
            let (via_set, s1) = find_counterexample_tuned(&set, &goal, budget, 1, 16);
            let (via_pat, s2) = find_counterexample_tuned(&set, &goal, budget, 1, usize::MAX);
            assert_eq!(s1.winner_index, s2.winner_index, "budget {budget}");
            assert_eq!(
                via_set.map(|ce| ce.canonical_pair_form()),
                via_pat.map(|ce| ce.canonical_pair_form()),
                "budget {budget}"
            );
        }
        // An implied goal exhausts its budget identically on both paths.
        let goal = set[3].clone();
        let (none_set, s1) = find_counterexample_tuned(&set, &goal, 2_000, 1, 16);
        let (none_pat, s2) = find_counterexample_tuned(&set, &goal, 2_000, 1, usize::MAX);
        assert!(none_set.is_none() && none_pat.is_none());
        assert_eq!(s1.evaluated, s2.evaluated);
    }

    #[test]
    fn set_path_counterexamples_verify() {
        let (set, goal) = big_linear_batch(SET_PATH_CROSSOVER + 4);
        let ce = find_counterexample(&set, &goal, 5_000).expect("refutable goal");
        assert!(ce.verify(&set, &goal));
    }

    #[test]
    fn mostly_nonlinear_batches_stay_on_the_per_pattern_path() {
        // Predicate-heavy ranges do not compile; with fewer than
        // SET_PATH_CROSSOVER compiled patterns the search must not build
        // a set automaton (compiled_count gate), and still be correct.
        let mut set: Vec<Constraint> =
            (0..SET_PATH_CROSSOVER).map(|i| c(&format!("(/h[/p{i}], ↑)"))).collect();
        set.push(c("(//k, ↑)"));
        let goal = c("(//g, ↑)");
        let ce = find_counterexample(&set, &goal, 5_000).expect("refutable goal");
        assert!(ce.verify(&set, &goal));
    }

    #[test]
    fn sharded_search_agrees_with_single_shard() {
        let cases = [
            (vec![c("(/a[/b], ↑)")], c("(/a, ↑)"), 3_000usize),
            (vec![c("(/a, ↑)")], c("(/a, ↑)"), 500),
            (vec![c("(/a[/b], ↓)")], c("(/a, ↓)"), 3_000),
        ];
        for (set, goal, budget) in &cases {
            let (one, s1) = find_counterexample_with_stats(set, goal, *budget, 1);
            let (four, s4) = find_counterexample_with_stats(set, goal, *budget, 4);
            assert_eq!(one.is_some(), four.is_some(), "{goal:?}");
            assert_eq!(s1.winner_index, s4.winner_index, "{goal:?}");
            if let (Some(a), Some(b)) = (&one, &four) {
                // Fresh ids differ between runs; compare modulo renaming.
                assert_eq!(a.canonical_pair_form(), b.canonical_pair_form(), "{goal:?}");
            }
        }
    }

    #[test]
    fn refutes_agrees_with_verify_on_random_pairs() {
        // The set-inclusion fast path must judge pairs exactly like
        // CounterExample::verify.
        let set = vec![c("(/a[/b], ↑)"), c("(//b, ↓)")];
        let goal = c("(/a, ↑)");
        let patterns: Vec<&Pattern> = set.iter().map(|x| &x.range).chain([&goal.range]).collect();
        let labels = label_pool(&patterns, Label::z());
        let mut rng = XorShift::new(99);
        for _ in 0..200 {
            let before = random_tree(&mut rng, &labels, 5);
            let after = random_edit(&mut rng, &before, &labels, 2);
            let base = eval_sets(&mut Evaluator::new(&before), &patterns);
            let post = eval_sets(&mut Evaluator::new(&after), &patterns);
            let fast = refutes(&set, &goal, &base, &post);
            let slow =
                CounterExample { before: before.clone(), after: after.clone() }.verify(&set, &goal);
            assert_eq!(fast, slow, "before={before:?} after={after:?}");
        }
    }
}
