//! Stage attribution for commit admission: a fixed stage taxonomy, a
//! per-stage accumulation table, and a bounded lock-free trace ring.
//!
//! The gateway's hot path must never block on its own instruments, so
//! the ring is a fixed array of atomic slots filled by a fetch-add
//! cursor. A request publishes all its spans at once: one relaxed
//! `fetch_add` reserves a run of consecutive slots, and one store fills
//! each. Once the ring is full further spans are counted as dropped
//! instead of waiting or wrapping (fill-until-drained semantics — the
//! reader [`drain`](TraceRing::drain)s and the ring refills). Each event
//! packs into one `u64` — `[tag:16][stage:8][micros:40]` — so a slot
//! write is a single store; 40 bits of microseconds cover ~12 days of
//! span length, far beyond any admission stage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::registry::{thread_shard, Counter, Determinism, MetricsRegistry};

/// The named stages of commit admission, in pipeline order. The
/// taxonomy is closed on purpose: every stage a commit can spend time
/// in has a name here, so attribution tables always sum to the whole
/// admission and stage names in expositions/experiments are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Reaching the document: the gateway's state check, the store
    /// lookup and the document lock (waiting included).
    Acquire = 0,
    /// Applying updates to the tree.
    Apply = 1,
    /// Accumulating edit scopes into the batch's `DirtyRegion`.
    DirtyAccumulate = 2,
    /// The in-place `eval_set_splice` over cached baselines (or the
    /// full-pass `eval_set` when the splice declines).
    Splice = 3,
    /// Deriving per-constraint verdicts from the journaled net changes.
    Verdict = 4,
    /// Building the chained certificate from precomputed results.
    Certify = 5,
    /// Encoding the commit record into the WAL's buffer.
    JournalAppend = 6,
    /// The WAL sync itself — the durability fsync, run when the journal's
    /// group-commit batch fills.
    Fsync = 7,
    /// Writing and installing the document's snapshot (and truncating the
    /// log it covers), run only by a commit that hits the snapshot
    /// cadence.
    Snapshot = 8,
}

impl Stage {
    pub const COUNT: usize = 9;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Acquire,
        Stage::Apply,
        Stage::DirtyAccumulate,
        Stage::Splice,
        Stage::Verdict,
        Stage::Certify,
        Stage::JournalAppend,
        Stage::Fsync,
        Stage::Snapshot,
    ];

    /// Stable snake-case name used in expositions and BENCH series.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Acquire => "acquire",
            Stage::Apply => "apply",
            Stage::DirtyAccumulate => "dirty_accumulate",
            Stage::Splice => "splice",
            Stage::Verdict => "verdict",
            Stage::Certify => "certify",
            Stage::JournalAppend => "journal_append",
            Stage::Fsync => "fsync",
            Stage::Snapshot => "snapshot",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// One decoded trace event: which stage, the request's 16-bit tag (the
/// ring slot of its first span, truncated), and the span length in
/// microseconds (saturated at 40 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub stage: Stage,
    pub tag: u16,
    pub micros: u64,
}

const MICROS_BITS: u64 = 40;
const MICROS_MASK: u64 = (1 << MICROS_BITS) - 1;
const TAG_SHIFT: u64 = MICROS_BITS + 8;

/// A span without its tag — what a request buffers until it publishes.
pub(crate) fn pack(stage: Stage, micros: u64) -> u64 {
    ((stage as u8 as u64) << MICROS_BITS) | micros.min(MICROS_MASK)
}

pub(crate) fn unpack(v: u64) -> Option<TraceEvent> {
    let stage = Stage::from_u8(((v >> MICROS_BITS) & 0xff) as u8)?;
    Some(TraceEvent { stage, tag: (v >> TAG_SHIFT) as u16, micros: v & MICROS_MASK })
}

/// The bounded lock-free span ring; see the [module docs](self).
///
/// Concurrent publishing is always safe and never blocks. Draining is a
/// reader-side operation: call it from a quiescent point (between
/// processing runs), not concurrently with writers — a writer that has
/// reserved slots but not yet stored into them would be missed.
pub struct TraceRing {
    slots: Vec<AtomicU64>,
    /// Spans reserved since the last drain; past the capacity, the
    /// excess is the drop count.
    next: AtomicUsize,
    /// Spans dropped before the last drain.
    dropped_before: AtomicU64,
}

impl TraceRing {
    /// `capacity` slots; each holds one packed event.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            dropped_before: AtomicU64::new(0),
        }
    }

    /// Publishes one request's packed, untagged spans under one
    /// reservation, tagged with the slot of the first; spans past the
    /// capacity are dropped, and counted by the cursor itself.
    pub(crate) fn publish(&self, spans: &[u64]) {
        let first = self.next.fetch_add(spans.len(), Ordering::Relaxed);
        let tag = (first as u16 as u64) << TAG_SHIFT;
        for (slot, span) in self.slots.get(first..).unwrap_or_default().iter().zip(spans) {
            slot.store(tag | span, Ordering::Relaxed);
        }
    }

    /// Spans published but not stored because the ring was full.
    pub fn dropped(&self) -> u64 {
        let over = self.next.load(Ordering::Relaxed).saturating_sub(self.slots.len());
        self.dropped_before.load(Ordering::Relaxed) + over as u64
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the stored events in slot order without resetting.
    pub fn events(&self) -> Vec<TraceEvent> {
        (0..self.len()).filter_map(|i| unpack(self.slots[i].load(Ordering::Relaxed))).collect()
    }

    /// Takes the stored events and empties the ring (the drop count
    /// keeps its lifetime total). Reader-side; see the type docs.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let out = self.events();
        let over = self.next.swap(0, Ordering::Relaxed).saturating_sub(self.slots.len());
        self.dropped_before.fetch_add(over as u64, Ordering::Relaxed);
        out
    }
}

/// Per-stage span counts and total microseconds, as registry
/// [`Counter`]s (`xuc_stage_<name>_spans_total`, `..._micros_total`):
/// the ring holds individual spans, the table their sums. The six
/// admission stages' counts restate the request stream, so they are
/// [`Determinism::Deterministic`]; the journal stages' counts (which
/// commit fills a group-commit batch is up to the schedule, and a
/// degraded journal stops appending and snapshotting) and every
/// microsecond total are not.
pub struct StageTable {
    spans: [Counter; Stage::COUNT],
    micros: [Counter; Stage::COUNT],
}

/// One row of a stage breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRow {
    pub stage: Stage,
    pub count: u64,
    pub total_micros: u64,
}

impl StageTable {
    /// Registers the table's counters in `reg`.
    pub(crate) fn register(reg: &MetricsRegistry) -> StageTable {
        let sched = Determinism::SchedulingDependent;
        StageTable {
            spans: Stage::ALL.map(|s| {
                let det = match s {
                    Stage::JournalAppend | Stage::Fsync | Stage::Snapshot => sched,
                    _ => Determinism::Deterministic,
                };
                reg.counter(&format!("xuc_stage_{}_spans_total", s.name()), det)
            }),
            micros: Stage::ALL
                .map(|s| reg.counter(&format!("xuc_stage_{}_micros_total", s.name()), sched)),
        }
    }

    /// Adds one request's packed spans: summed per stage first, then
    /// two adds per stage reached, all on the calling thread's shard.
    pub(crate) fn add_spans(&self, spans: &[u64]) {
        let mut count = [0u64; Stage::COUNT];
        let mut micros = [0u64; Stage::COUNT];
        for ev in spans.iter().filter_map(|&s| unpack(s)) {
            count[ev.stage as usize] += 1;
            micros[ev.stage as usize] += ev.micros;
        }
        let shard = thread_shard();
        for (s, (&n, &us)) in count.iter().zip(&micros).enumerate().filter(|(_, (&n, _))| n > 0) {
            self.spans[s].add_on(shard, n);
            self.micros[s].add_on(shard, us);
        }
    }

    /// All stages in pipeline order (zero rows included, so breakdowns
    /// always have the same shape).
    pub fn rows(&self) -> Vec<StageRow> {
        Stage::ALL
            .iter()
            .map(|&s| StageRow {
                stage: s,
                count: self.spans[s as usize].value(),
                total_micros: self.micros[s as usize].value(),
            })
            .collect()
    }

    /// Total microseconds across all stages — the denominator for
    /// attribution shares.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().map(Counter::value).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(stage: Stage, tag: u16, micros: u64) -> TraceEvent {
        TraceEvent { stage, tag, micros }
    }

    #[test]
    fn events_round_trip_through_the_packing() {
        let ring = TraceRing::new(4);
        let spans =
            [pack(Stage::Apply, 0), pack(Stage::Splice, 123_456), pack(Stage::Fsync, MICROS_MASK)];
        ring.publish(&spans);
        assert_eq!(
            ring.events(),
            [
                tagged(Stage::Apply, 0, 0),
                tagged(Stage::Splice, 0, 123_456),
                tagged(Stage::Fsync, 0, MICROS_MASK)
            ]
        );
        // Span lengths beyond 40 bits saturate instead of corrupting
        // the stage field.
        let ev = unpack(pack(Stage::Verdict, u64::MAX)).unwrap();
        assert_eq!((ev.stage, ev.micros), (Stage::Verdict, MICROS_MASK));
    }

    #[test]
    fn ring_fills_then_counts_drops_without_blocking() {
        let ring = TraceRing::new(4);
        for i in 0..5 {
            ring.publish(&[pack(Stage::Apply, i), pack(Stage::Certify, i)]);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let events = ring.drain();
        // The second request's spans are tagged with its first slot.
        assert_eq!(events[2..], [tagged(Stage::Apply, 2, 1), tagged(Stage::Certify, 2, 1)]);
        assert!(ring.is_empty());
        // Refills after a drain; the drop count keeps its total.
        ring.publish(&[pack(Stage::Fsync, 99)]);
        assert_eq!(ring.events(), [tagged(Stage::Fsync, 0, 99)]);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 6);
        // A request that straddles the end keeps what fits.
        ring.publish(&[pack(Stage::Splice, 1); 5]);
        assert_eq!((ring.len(), ring.dropped()), (4, 8));
    }

    #[test]
    fn concurrent_recording_loses_nothing_to_races() {
        let ring = std::sync::Arc::new(TraceRing::new(1_000));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        ring.publish(&[pack(Stage::Splice, i); 5]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 4000 spans into 1000 slots: exactly 1000 stored, 3000
        // dropped — the fetch-add cursor never double-assigns a slot,
        // so every stored request's spans sit contiguous under its tag.
        assert_eq!(ring.len(), 1_000);
        assert_eq!(ring.dropped(), 3_000);
        let events = ring.events();
        for (i, request) in events.chunks(5).enumerate() {
            assert!(request.iter().all(|e| e.tag == (5 * i) as u16), "{request:?}");
        }
    }

    #[test]
    fn stage_table_accumulates_counts_and_micros() {
        let reg = MetricsRegistry::new();
        let table = StageTable::register(&reg);
        // One request's spans: two of one stage fold into one row.
        table.add_spans(&[pack(Stage::Apply, 10), pack(Stage::Apply, 30), pack(Stage::Fsync, 5)]);
        let rows = table.rows();
        assert_eq!(rows.len(), Stage::COUNT, "every stage has a row");
        let apply = rows[Stage::Apply as usize];
        assert_eq!((apply.count, apply.total_micros), (2, 40));
        assert_eq!(rows[Stage::Fsync as usize].total_micros, 5);
        assert_eq!(table.total_micros(), 45);
        // Admission-stage counts are deterministic; journal-stage counts
        // and every microsecond total are not.
        let det = reg.snapshot().exposition_deterministic();
        assert!(det.contains("xuc_stage_apply_spans_total{class=\"deterministic\"} 2"));
        assert!(!det.contains("xuc_stage_fsync_spans_total"));
        assert!(!det.contains("micros"));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "acquire",
                "apply",
                "dirty_accumulate",
                "splice",
                "verdict",
                "certify",
                "journal_append",
                "fsync",
                "snapshot"
            ]
        );
    }
}
