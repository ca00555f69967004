//! `xuc-telemetry`: deterministic-by-construction metrics and stage
//! tracing for the gateway stack.
//!
//! The serving path already has six load-bearing mechanisms (delta
//! admission, suite cache, WAL + group commit, degraded modes,
//! backpressure shedding, the per-document worker pool); this
//! crate is the one place they report to. Three components:
//!
//! * [`MetricsRegistry`] — named sharded counters, gauges, and
//!   [`LatencyHistogram`]s with a canonical sorted text exposition.
//!   Every metric declares its [`Determinism`]: deterministic metrics
//!   render byte-identically at any worker count (pinned by the
//!   differential suites), scheduling-dependent ones are explicitly
//!   classified rather than quietly flaky.
//! * [`TraceRing`] + [`StageTable`] — span tracing over the shared
//!   [`Clock`] abstraction, attributing commit
//!   admission to the closed [`Stage`] taxonomy (apply → dirty-region →
//!   splice → verdict → certify → journal append → fsync). The ring is
//!   bounded and lock-free with drop counting: telemetry never blocks
//!   the hot path.
//! * [`Telemetry`] — the bundle a gateway holds: one registry, one
//!   ring, one stage table, one clock. Constructing it is cheap;
//!   attaching it must be **observationally inert** — verdict logs,
//!   trees, baselines, and certificate chains stay byte-identical with
//!   telemetry enabled (the only side effects are relaxed atomics and
//!   clock reads).

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use registry::{
    Counter, Determinism, Gauge, Histo, HistogramSummary, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{Stage, StageRow, StageTable, TraceEvent, TraceRing};

use std::sync::Arc;

use xuc_core::clock::{Clock, SystemClock};

/// Default trace-ring capacity: large enough to hold every span of a
/// several-hundred-commit burst (7 stages per commit), small enough to
/// stay cache-resident.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Anything that can fold itself into a [`MetricsRegistry`] — the
/// unification trait for the ad-hoc stats structs that predate this
/// crate (`LoadReport`, `SearchStats`): harnesses read one snapshot
/// instead of bespoke structs.
pub trait RecordInto {
    fn record_into(&self, reg: &MetricsRegistry);
}

/// The counterexample search's stats fold in here (the impl lives in
/// this crate because `xuc-core` sits *below* telemetry in the
/// dependency graph). `evaluated` is deterministic — the sharded search
/// fixes global candidate indexing — and `winner_index` is reported as
/// a gauge (`-1` when no counterexample was found).
impl RecordInto for xuc_core::implication::search::SearchStats {
    fn record_into(&self, reg: &MetricsRegistry) {
        reg.counter("xuc_search_candidates_evaluated_total", Determinism::Deterministic)
            .add(self.evaluated);
        reg.gauge("xuc_search_winner_index", Determinism::Deterministic)
            .set(self.winner_index.map(|w| w as i64).unwrap_or(-1));
    }
}

/// The instrument bundle a gateway (or harness) owns: one registry, one
/// stage table, one trace ring, one clock. Shared via `Arc`; every
/// operation on it is lock-free or takes a short leaf mutex, and none
/// of them can observe or influence admission decisions.
pub struct Telemetry {
    registry: MetricsRegistry,
    stages: StageTable,
    ring: TraceRing,
    clock: Box<dyn Clock + Send + Sync>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Production configuration: system clock, default ring capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_clock(Box::new(SystemClock), DEFAULT_RING_CAPACITY)
    }

    /// Injectable configuration — tests pass an
    /// `Arc<VirtualClock>` (boxed) to drive span timings
    /// deterministically, and a small ring to exercise overflow.
    pub fn with_clock(clock: Box<dyn Clock + Send + Sync>, ring_capacity: usize) -> Telemetry {
        Telemetry {
            registry: MetricsRegistry::new(),
            stages: StageTable::new(),
            ring: TraceRing::new(ring_capacity),
            clock,
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    pub fn stages(&self) -> &StageTable {
        &self.stages
    }

    /// The clock's current reading — capture before a stage, hand back
    /// to [`record_stage`](Telemetry::record_stage) after.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Closes a span opened at `started_micros`: accumulates it in the
    /// stage table and appends it to the trace ring. Two atomic adds
    /// plus one ring store — never blocks.
    pub fn record_stage(&self, stage: Stage, tag: u16, started_micros: u64) {
        let micros = self.clock.now_micros().saturating_sub(started_micros);
        self.record_span(stage, tag, micros);
    }

    /// Records a span whose length the caller already computed — the
    /// primitive under [`record_stage`](Telemetry::record_stage),
    /// exposed so *adjacent* stages can split on a single shared clock
    /// reading: the tracer's dominant hot-path cost is the clock read,
    /// not the atomics, so pipelined stages (apply → dirty-accumulate,
    /// splice → verdict → certify) close one span and open the next
    /// from the same `now_micros` value.
    pub fn record_span(&self, stage: Stage, tag: u16, micros: u64) {
        self.stages.record(stage, micros);
        self.ring.record(stage, tag, micros);
    }

    /// Renders the per-stage attribution table: name, span count, total
    /// microseconds, and share of all attributed time. Fixed shape
    /// (every stage, pipeline order), so harnesses print it directly.
    pub fn stage_breakdown(&self) -> String {
        use std::fmt::Write as _;
        let rows = self.stages.rows();
        let total = self.stages.total_micros().max(1);
        let mut out = String::new();
        let _ = writeln!(out, "{:<18} {:>10} {:>14} {:>7}", "stage", "spans", "total_us", "share");
        for r in rows {
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>14} {:>6.1}%",
                r.stage.name(),
                r.count,
                r.total_micros,
                100.0 * r.total_micros as f64 / total as f64
            );
        }
        let _ =
            writeln!(out, "ring: {} spans held, {} dropped", self.ring.len(), self.ring.dropped());
        out
    }
}

/// `Telemetry` behind an `Arc` — the shape every instrumented component
/// stores.
pub type SharedTelemetry = Arc<Telemetry>;

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::clock::VirtualClock;

    fn virtual_telemetry(ring: usize) -> (Arc<VirtualClock>, Telemetry) {
        let clock = Arc::new(VirtualClock::new());
        let tel = Telemetry::with_clock(Box::new(clock.clone()), ring);
        (clock, tel)
    }

    #[test]
    fn record_stage_measures_virtual_time() {
        let (clock, tel) = virtual_telemetry(16);
        let t0 = tel.now_micros();
        clock.advance_micros(120);
        tel.record_stage(Stage::Splice, 3, t0);
        let rows = tel.stages().rows();
        assert_eq!(rows[Stage::Splice as usize].total_micros, 120);
        let events = tel.ring().events();
        assert_eq!(events, vec![TraceEvent { stage: Stage::Splice, tag: 3, micros: 120 }]);
    }

    #[test]
    fn breakdown_has_a_fixed_shape() {
        let (_clock, tel) = virtual_telemetry(8);
        let text = tel.stage_breakdown();
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "missing {}", stage.name());
        }
        assert!(text.contains("ring: 0 spans held, 0 dropped"));
    }

    #[test]
    fn search_stats_record_into_the_registry() {
        let stats =
            xuc_core::implication::search::SearchStats { evaluated: 17, winner_index: Some(4) };
        let reg = MetricsRegistry::new();
        stats.record_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("xuc_search_candidates_evaluated_total"), Some(17));
        assert_eq!(snap.gauge("xuc_search_winner_index"), Some(4));
    }
}
