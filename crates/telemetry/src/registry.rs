//! The metrics registry: named sharded counters, gauges, and latency
//! histograms with a deterministic text exposition.
//!
//! Three decisions make this registry fit a gateway whose contract is
//! *byte-identical logs at any worker count*:
//!
//! 1. **Handles, not lookups.** Instrument sites call
//!    [`MetricsRegistry::counter`] once at wiring time and keep the
//!    returned [`Counter`] handle; the hot path is a single relaxed
//!    atomic add on a thread-striped shard — no map lookup, no lock,
//!    no allocation.
//! 2. **Every metric declares its [`Determinism`].** A counter is
//!    `Deterministic` iff its final value is a pure function of the
//!    request stream (verdict counts, shed causes, splice fallbacks);
//!    it is `SchedulingDependent` if thread interleaving can move it
//!    (degraded-mode transitions, process-global scrapes, wall-clock
//!    histograms). [`MetricsSnapshot::exposition_deterministic`]
//!    renders only the former, which is what the worker-count
//!    byte-identity suites pin.
//! 3. **Exposition is canonical.** Prometheus-style text, keys sorted
//!    (`BTreeMap` iteration order), one stable format — so snapshots
//!    diff with `assert_eq!` in tests and across worker counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::LatencyHistogram;

/// Whether a metric's value is a pure function of the request stream
/// (same at any worker count) or an artifact of scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Same final value at 1, 2, or 8 workers — safe to pin byte-for-
    /// byte in differential suites.
    Deterministic,
    /// Thread interleaving can move the value (degraded-mode
    /// transitions, wall-clock timings); excluded from the deterministic
    /// exposition.
    SchedulingDependent,
}

impl Determinism {
    fn label(self) -> &'static str {
        match self {
            Determinism::Deterministic => "deterministic",
            Determinism::SchedulingDependent => "scheduling_dependent",
        }
    }
}

/// Shards per counter: enough to keep eight workers off each other's
/// cache lines without bloating the registry.
const COUNTER_SHARDS: usize = 16;

/// A cache-line-padded atomic so neighbouring shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

struct CounterInner {
    shards: [PaddedU64; COUNTER_SHARDS],
    det: Determinism,
}

/// A named monotonic counter. Cheap to clone (an `Arc`); increments are
/// relaxed atomic adds striped across `COUNTER_SHARDS` (16) shards by
/// caller-supplied stripe (typically a worker index), reads sum the
/// stripes — sums are exact because counters only grow.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.add_striped(0, n);
    }

    /// Adds on stripe `stripe % COUNTER_SHARDS` — workers pass their
    /// index so concurrent increments don't contend on one line.
    pub fn add_striped(&self, stripe: usize, n: u64) {
        self.inner.shards[stripe % COUNTER_SHARDS].0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Overwrites the counter with an absolute reading — how process-
    /// global counters from crates below telemetry in the dependency
    /// graph (`xuc-xpath` sweep counters, `xuc-persist` WAL counters)
    /// are scraped into the registry. Must not race concurrent `add`s;
    /// scrape sites run single-threaded at snapshot points.
    pub fn set_absolute(&self, value: u64) {
        self.inner.shards[0].0.store(value, Ordering::Relaxed);
        for s in &self.inner.shards[1..] {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

struct GaugeInner {
    value: AtomicI64,
    det: Determinism,
}

/// A named instantaneous value (queue depth, degraded-mode state).
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.inner.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below — high-water marks.
    pub fn raise_to(&self, v: i64) {
        self.inner.value.fetch_max(v, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// Mutex stripes per histogram: recording takes one short lock on the
/// caller's stripe; snapshots merge all stripes (merge is associative
/// and commutative, so the fold order cannot matter).
const HISTO_SHARDS: usize = 8;

struct HistoInner {
    shards: Vec<Mutex<LatencyHistogram>>,
    det: Determinism,
}

/// A named latency histogram handle.
#[derive(Clone)]
pub struct Histo {
    inner: Arc<HistoInner>,
}

impl Histo {
    pub fn record(&self, value: u64) {
        self.record_striped(0, value);
    }

    pub fn record_striped(&self, stripe: usize, value: u64) {
        self.inner.shards[stripe % HISTO_SHARDS].lock().record(value);
    }

    /// All stripes merged into one histogram.
    pub fn merged(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for s in &self.inner.shards {
            out.merge(&s.lock());
        }
        out
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

/// The registry: a name → metric map handed out as handles. Creation
/// takes a lock; the hot path never touches the registry again.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or re-fetches) a counter. Re-registration returns the
    /// existing handle; a classification mismatch is a wiring bug and
    /// panics.
    pub fn counter(&self, name: &str, det: Determinism) -> Counter {
        let mut m = self.metrics.lock();
        match m.get(name) {
            Some(Metric::Counter(c)) => {
                assert_eq!(
                    c.inner.det, det,
                    "counter `{name}` re-registered with a different determinism class"
                );
                c.clone()
            }
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let c =
                    Counter { inner: Arc::new(CounterInner { shards: Default::default(), det }) };
                m.insert(name.to_owned(), Metric::Counter(c.clone()));
                c
            }
        }
    }

    pub fn gauge(&self, name: &str, det: Determinism) -> Gauge {
        let mut m = self.metrics.lock();
        match m.get(name) {
            Some(Metric::Gauge(g)) => {
                assert_eq!(
                    g.inner.det, det,
                    "gauge `{name}` re-registered with a different determinism class"
                );
                g.clone()
            }
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let g = Gauge { inner: Arc::new(GaugeInner { value: AtomicI64::new(0), det }) };
                m.insert(name.to_owned(), Metric::Gauge(g.clone()));
                g
            }
        }
    }

    pub fn histogram(&self, name: &str, det: Determinism) -> Histo {
        let mut m = self.metrics.lock();
        match m.get(name) {
            Some(Metric::Histo(h)) => {
                assert_eq!(
                    h.inner.det, det,
                    "histogram `{name}` re-registered with a different determinism class"
                );
                h.clone()
            }
            Some(_) => panic!("metric `{name}` already registered with a different type"),
            None => {
                let h = Histo {
                    inner: Arc::new(HistoInner {
                        shards: (0..HISTO_SHARDS)
                            .map(|_| Mutex::new(LatencyHistogram::new()))
                            .collect(),
                        det,
                    }),
                };
                m.insert(name.to_owned(), Metric::Histo(h.clone()));
                h
            }
        }
    }

    /// A point-in-time copy of every metric, diffable and renderable.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histos = BTreeMap::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), (c.value(), c.inner.det));
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), (g.value(), g.inner.det));
                }
                Metric::Histo(h) => {
                    histos.insert(name.clone(), (HistogramSummary::of(&h.merged()), h.inner.det));
                }
            }
        }
        MetricsSnapshot { counters, gauges, histos }
    }
}

/// Fixed quantile summary of a histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistogramSummary {
    fn of(h: &LatencyHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.quantile(1.0),
        }
    }
}

/// A point-in-time view of the registry: plain sorted maps, so tests
/// diff two snapshots or pin the rendered text directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, (u64, Determinism)>,
    gauges: BTreeMap<String, (i64, Determinism)>,
    histos: BTreeMap<String, (HistogramSummary, Determinism)>,
}

impl MetricsSnapshot {
    /// The counter's value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|(v, _)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).map(|(v, _)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histos.get(name).map(|(h, _)| h)
    }

    /// Counter deltas since `base` (names missing from `base` count
    /// from zero; gauges and histograms are not differenced — they are
    /// instantaneous). The diff is what experiment arms assert on, so
    /// registry state carried over from earlier arms cancels out.
    pub fn counters_since(&self, base: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, (v, _))| {
                let before = base.counters.get(k).map(|(b, _)| *b).unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect()
    }

    /// Full Prometheus-style exposition: `# TYPE` headers, one
    /// `name{class="…"} value` line per metric (histograms render their
    /// summary as `_count`/`_p50`/`_p90`/`_p99`/`_max` series), keys
    /// sorted, trailing newline. Stable across runs for deterministic
    /// metrics; scheduling-dependent values vary but the *shape* (line
    /// set and order) does not.
    pub fn exposition(&self) -> String {
        self.render(|_| true)
    }

    /// The exposition restricted to [`Determinism::Deterministic`]
    /// metrics — byte-identical at any worker count, which is exactly
    /// what the differential suites pin.
    pub fn exposition_deterministic(&self) -> String {
        self.render(|d| d == Determinism::Deterministic)
    }

    fn render(&self, keep: impl Fn(Determinism) -> bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, (v, det)) in &self.counters {
            if !keep(*det) {
                continue;
            }
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{{class=\"{}\"}} {v}", det.label());
        }
        for (name, (v, det)) in &self.gauges {
            if !keep(*det) {
                continue;
            }
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{class=\"{}\"}} {v}", det.label());
        }
        for (name, (h, det)) in &self.histos {
            if !keep(*det) {
                continue;
            }
            let _ = writeln!(out, "# TYPE {name} summary");
            let _ = writeln!(out, "{name}_count{{class=\"{}\"}} {}", det.label(), h.count);
            for (q, v) in [("p50", h.p50), ("p90", h.p90), ("p99", h.p99), ("max", h.max)] {
                let _ = writeln!(out, "{name}_{q}{{class=\"{}\"}} {v}", det.label());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stripe_and_sum_exactly() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("xuc_test_total", Determinism::Deterministic);
        for stripe in 0..64 {
            c.add_striped(stripe, 3);
        }
        assert_eq!(c.value(), 192);
        assert_eq!(reg.snapshot().counter("xuc_test_total"), Some(192));
    }

    #[test]
    fn reregistration_returns_the_same_underlying_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("xuc_shared_total", Determinism::Deterministic);
        let b = reg.counter("xuc_shared_total", Determinism::Deterministic);
        a.add(5);
        b.add(7);
        assert_eq!(a.value(), 12, "both handles hit one counter");
    }

    #[test]
    #[should_panic(expected = "different determinism class")]
    fn classification_conflicts_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("xuc_conflict_total", Determinism::Deterministic);
        let _ = reg.counter("xuc_conflict_total", Determinism::SchedulingDependent);
    }

    #[test]
    fn set_absolute_overwrites_striped_state() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("xuc_scraped_total", Determinism::Deterministic);
        for stripe in 0..COUNTER_SHARDS {
            c.add_striped(stripe, 10);
        }
        c.set_absolute(42);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn exposition_is_sorted_and_filters_by_class() {
        let reg = MetricsRegistry::new();
        reg.counter("xuc_b_total", Determinism::SchedulingDependent).add(2);
        reg.counter("xuc_a_total", Determinism::Deterministic).add(1);
        reg.gauge("xuc_depth", Determinism::SchedulingDependent).set(7);
        reg.histogram("xuc_lat_micros", Determinism::SchedulingDependent).record(100);

        let snap = reg.snapshot();
        let full = snap.exposition();
        let a = full.find("xuc_a_total").unwrap();
        let b = full.find("xuc_b_total").unwrap();
        assert!(a < b, "keys sorted");
        assert!(full.contains("xuc_lat_micros_p99"));

        let det = snap.exposition_deterministic();
        assert!(det.contains("xuc_a_total{class=\"deterministic\"} 1"));
        assert!(!det.contains("xuc_b_total"), "scheduling-dependent filtered out");
        assert!(!det.contains("xuc_depth"));
    }

    #[test]
    fn counters_since_diffs_against_a_base() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("xuc_evt_total", Determinism::Deterministic);
        c.add(10);
        let base = reg.snapshot();
        c.add(32);
        let diff = reg.snapshot().counters_since(&base);
        assert_eq!(diff.get("xuc_evt_total"), Some(&32));
    }

    #[test]
    fn gauges_track_high_water_marks() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("xuc_hwm", Determinism::SchedulingDependent);
        g.raise_to(5);
        g.raise_to(3);
        assert_eq!(g.value(), 5);
    }
}
