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
//! * [`Timeline`] + [`TraceRing`] + [`StageTable`] — span tracing over
//!   the shared [`Clock`] abstraction, attributing commit admission to
//!   the closed [`Stage`] taxonomy (acquire → apply → dirty-region →
//!   splice → verdict → certify → journal append → fsync → snapshot). A
//!   request's timeline reads the clock once per stage boundary, so its
//!   spans are contiguous, and publishes them once, with one reservation
//!   in the bounded lock-free ring and plain adds to the stage table's
//!   per-thread counter shards: telemetry never blocks the hot path.
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

use xuc_core::clock::{Clock, SystemClock};

/// Default trace-ring capacity: large enough to hold every span of a
/// several-hundred-commit burst (9 stages per commit), small enough to
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
        let registry = MetricsRegistry::new();
        let stages = StageTable::register(&registry);
        Telemetry { registry, stages, ring: TraceRing::new(ring_capacity), clock }
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

    fn now_micros(&self) -> u64 {
        self.clock.now_micros()
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

/// Spans a timeline holds in place: an accepted u-update request closes
/// 2u + 4 spans in memory (2u + 7 at most when durable), so requests of
/// up to 14 updates never touch the heap.
const INLINE_SPANS: usize = 32;

/// One request's stage timeline. [`start`](Timeline::start) takes the
/// first clock reading and every [`mark`](Timeline::mark) one more,
/// closing the running stage as a span and opening the next. The spans
/// are buffered in place (spilling to the heap only past
/// `INLINE_SPANS`) and published when the timeline drops, so a request
/// that ends early (a failed update, a panic) still publishes what it
/// marked; a stage left open is not recorded. An
/// [`untraced`](Timeline::untraced) timeline reads no clock, touches no
/// atomic and allocates nothing.
pub struct Timeline<'t> {
    tel: Option<&'t Telemetry>,
    /// The reading that opened the running stage.
    opened: u64,
    /// Spans closed so far.
    len: usize,
    /// Packed, untagged spans, in the order they closed — here while
    /// they fit…
    inline: [u64; INLINE_SPANS],
    /// …and all of them here once they do not.
    spilled: Vec<u64>,
}

impl<'t> Timeline<'t> {
    /// Starts a request's timeline: one clock reading when traced.
    pub fn start(tel: Option<&'t Telemetry>) -> Timeline<'t> {
        let opened = tel.map_or(0, Telemetry::now_micros);
        Timeline { tel, opened, len: 0, inline: [0; INLINE_SPANS], spilled: Vec::new() }
    }

    /// A timeline that records nothing.
    pub const fn untraced() -> Timeline<'t> {
        Timeline { tel: None, opened: 0, len: 0, inline: [0; INLINE_SPANS], spilled: Vec::new() }
    }

    /// One stage boundary: closes the running stage as a `stage` span
    /// and opens the next, on one clock reading.
    pub fn mark(&mut self, stage: Stage) {
        if let Some(t) = self.tel {
            let now = t.now_micros();
            let span = trace::pack(stage, now.saturating_sub(self.opened));
            self.opened = now;
            if let Some(slot) = self.inline.get_mut(self.len) {
                *slot = span;
            } else {
                if self.spilled.is_empty() {
                    self.spilled.extend_from_slice(&self.inline);
                }
                self.spilled.push(span);
            }
            self.len += 1;
        }
    }

    fn spans(&self) -> &[u64] {
        self.inline.get(..self.len).unwrap_or(&self.spilled)
    }
}

impl Drop for Timeline<'_> {
    /// Publishes the spans: one ring reservation, and two stage-table
    /// adds per stage reached.
    fn drop(&mut self) {
        let Some(t) = self.tel.filter(|_| self.len > 0) else { return };
        t.ring.publish(self.spans());
        t.stages.add_spans(self.spans());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xuc_core::clock::VirtualClock;

    fn virtual_telemetry(ring: usize) -> (Arc<VirtualClock>, Telemetry) {
        let clock = Arc::new(VirtualClock::new());
        let tel = Telemetry::with_clock(Box::new(clock.clone()), ring);
        (clock, tel)
    }

    #[test]
    fn timeline_marks_measure_virtual_time() {
        let (clock, tel) = virtual_telemetry(16);
        let mut tl = Timeline::start(Some(&tel));
        clock.advance_micros(120);
        tl.mark(Stage::Splice);
        clock.advance_micros(30);
        tl.mark(Stage::Verdict);
        assert!(tel.ring().is_empty(), "spans publish when the request ends");
        drop(tl);
        let rows = tel.stages().rows();
        assert_eq!(rows[Stage::Splice as usize].total_micros, 120);
        assert_eq!(rows[Stage::Verdict as usize].total_micros, 30);
        let events = tel.ring().events();
        assert_eq!(
            events,
            [
                TraceEvent { stage: Stage::Splice, tag: 0, micros: 120 },
                TraceEvent { stage: Stage::Verdict, tag: 0, micros: 30 }
            ]
        );
        // The next request's tag is the slot of its first span.
        let mut tl = Timeline::start(Some(&tel));
        tl.mark(Stage::Apply);
        drop(tl);
        assert_eq!(tel.ring().events()[2].tag, 2);
    }

    #[test]
    fn untraced_timelines_record_nothing() {
        let mut tl = Timeline::untraced();
        tl.mark(Stage::Apply);
        assert!(tl.spans().is_empty() && tl.spilled.capacity() == 0);
    }

    #[test]
    fn long_timelines_spill_and_publish_every_span() {
        let (clock, tel) = virtual_telemetry(64);
        let mut tl = Timeline::start(Some(&tel));
        let n = INLINE_SPANS + 3;
        for i in 0..n {
            clock.advance_micros(1 + i as u64);
            tl.mark(if i % 2 == 0 { Stage::Apply } else { Stage::DirtyAccumulate });
        }
        assert_eq!(tl.spans().len(), n);
        drop(tl);
        let events = tel.ring().events();
        assert_eq!(events.len(), n, "one reservation holds the whole request");
        assert!(events.iter().enumerate().all(|(i, e)| e.micros == 1 + i as u64 && e.tag == 0));
        let rows = tel.stages().rows();
        let apply = rows[Stage::Apply as usize];
        assert_eq!(apply.count, n.div_ceil(2) as u64);
        assert_eq!(tel.stages().total_micros(), (1..=n as u64).sum::<u64>());
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
