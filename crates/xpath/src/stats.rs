//! Process-global engine counters: how often admission went through the
//! full `eval_set` sweep vs the in-place splice, and how much dirty
//! document each splice touched.
//!
//! `xuc-xpath` sits below the telemetry crate in the dependency graph,
//! so it cannot hold registry handles; instead it bumps these plain
//! process-wide atomics (the same pattern as `xuc_xtree`'s
//! `preorder_walk_count`, but cross-thread — worker pools must
//! aggregate) and the service layer scrapes [`engine_counters`] into
//! the `MetricsRegistry` at snapshot points. Every counter is a pure
//! function of the evaluated stream — worker interleavings change the
//! order of increments, never the totals — so the scraped metrics are
//! classified deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static EVAL_SET_SWEEPS: AtomicU64 = AtomicU64::new(0);
pub(crate) static FALLBACK_PATTERN_EVALS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SPLICE_ATTEMPTS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SPLICE_COMMITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SPLICE_DECLINED: AtomicU64 = AtomicU64::new(0);
pub(crate) static DIRTY_ROOTS_SWEPT: AtomicU64 = AtomicU64::new(0);
pub(crate) static DIRTY_NODES_SWEPT: AtomicU64 = AtomicU64::new(0);

pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of the engine's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// Full pre-order `eval_set`/`eval_set_at` sweeps (includes the
    /// full-pass fallbacks a declined splice falls back to).
    pub eval_set_sweeps: u64,
    /// Per-pattern fallback evaluations for predicate patterns the set
    /// automaton could not compile.
    pub fallback_pattern_evals: u64,
    /// `eval_set_splice` calls.
    pub splice_attempts: u64,
    /// Splices that produced a journal (the edit-proportional path).
    pub splice_commits: u64,
    /// Splices that declined (predicate fallbacks, stale region, width
    /// mismatch, or oversize dirty region) — the caller then pays a full
    /// sweep.
    pub splice_declined: u64,
    /// Dirty subtree roots re-driven by committed splices.
    pub dirty_roots_swept: u64,
    /// Total nodes inside those dirty subtrees (the splice's actual
    /// sweep volume — the thing that stays edit-proportional).
    pub dirty_nodes_swept: u64,
}

/// Reads all engine counters. Totals are process-lifetime; diff two
/// readings to scope a measurement.
pub fn engine_counters() -> EngineCounters {
    EngineCounters {
        eval_set_sweeps: EVAL_SET_SWEEPS.load(Ordering::Relaxed),
        fallback_pattern_evals: FALLBACK_PATTERN_EVALS.load(Ordering::Relaxed),
        splice_attempts: SPLICE_ATTEMPTS.load(Ordering::Relaxed),
        splice_commits: SPLICE_COMMITS.load(Ordering::Relaxed),
        splice_declined: SPLICE_DECLINED.load(Ordering::Relaxed),
        dirty_roots_swept: DIRTY_ROOTS_SWEPT.load(Ordering::Relaxed),
        dirty_nodes_swept: DIRTY_NODES_SWEPT.load(Ordering::Relaxed),
    }
}

impl EngineCounters {
    /// Counter deltas since `base` (taken with an earlier
    /// [`engine_counters`] call).
    pub fn since(&self, base: &EngineCounters) -> EngineCounters {
        EngineCounters {
            eval_set_sweeps: self.eval_set_sweeps - base.eval_set_sweeps,
            fallback_pattern_evals: self.fallback_pattern_evals - base.fallback_pattern_evals,
            splice_attempts: self.splice_attempts - base.splice_attempts,
            splice_commits: self.splice_commits - base.splice_commits,
            splice_declined: self.splice_declined - base.splice_declined,
            dirty_roots_swept: self.dirty_roots_swept - base.dirty_roots_swept,
            dirty_nodes_swept: self.dirty_nodes_swept - base.dirty_nodes_swept,
        }
    }
}
