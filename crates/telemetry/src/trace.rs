//! Stage attribution for commit admission: a fixed stage taxonomy, a
//! per-stage accumulation table, and a bounded lock-free trace ring.
//!
//! The gateway's hot path must never block on its own instruments, so
//! the ring is a fixed array of atomic slots filled by a fetch-add
//! cursor: recording is two relaxed atomic operations, and once the
//! ring is full further events increment a drop counter instead of
//! waiting or wrapping (fill-until-drained semantics — the reader
//! [`drain`](TraceRing::drain)s and the ring refills). Each event packs
//! into one `u64` — `[tag:16][stage:8][micros:40]` — so a slot write is
//! a single store; 40 bits of microseconds cover ~12 days of span
//! length, far beyond any admission stage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The named stages of commit admission, in pipeline order. The
/// taxonomy is closed on purpose: every stage a commit can spend time
/// in has a name here, so attribution tables always sum to the whole
/// admission and stage names in expositions/experiments are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Applying updates to the tree.
    Apply = 0,
    /// Accumulating edit scopes into the batch's `DirtyRegion`.
    DirtyAccumulate = 1,
    /// The in-place `eval_set_splice` over cached baselines (or the
    /// full-pass `eval_set` when the splice declines).
    Splice = 2,
    /// Deriving per-constraint verdicts from the journaled net changes.
    Verdict = 3,
    /// Building the chained certificate from precomputed results.
    Certify = 4,
    /// Encoding the commit record into the WAL's buffer.
    JournalAppend = 5,
    /// The WAL sync itself — the durability fsync, run when the journal's
    /// group-commit batch fills.
    Fsync = 6,
}

impl Stage {
    pub const COUNT: usize = 7;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Apply,
        Stage::DirtyAccumulate,
        Stage::Splice,
        Stage::Verdict,
        Stage::Certify,
        Stage::JournalAppend,
        Stage::Fsync,
    ];

    /// Stable snake-case name used in expositions and BENCH series.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Apply => "apply",
            Stage::DirtyAccumulate => "dirty_accumulate",
            Stage::Splice => "splice",
            Stage::Verdict => "verdict",
            Stage::Certify => "certify",
            Stage::JournalAppend => "journal_append",
            Stage::Fsync => "fsync",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// One decoded trace event: which stage, the caller's 16-bit tag
/// (typically a document-id hash or batch sequence), and the span
/// length in microseconds (saturated at 40 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub stage: Stage,
    pub tag: u16,
    pub micros: u64,
}

const MICROS_BITS: u64 = 40;
const MICROS_MASK: u64 = (1 << MICROS_BITS) - 1;

fn pack(stage: Stage, tag: u16, micros: u64) -> u64 {
    ((tag as u64) << (MICROS_BITS + 8))
        | ((stage as u8 as u64) << MICROS_BITS)
        | micros.min(MICROS_MASK)
}

fn unpack(v: u64) -> Option<TraceEvent> {
    let stage = Stage::from_u8(((v >> MICROS_BITS) & 0xff) as u8)?;
    Some(TraceEvent { stage, tag: (v >> (MICROS_BITS + 8)) as u16, micros: v & MICROS_MASK })
}

/// The bounded lock-free span ring; see the [module docs](self).
///
/// Concurrent recording is always safe and never blocks. Draining is a
/// reader-side operation: call it from a quiescent point (between
/// processing runs), not concurrently with writers — a writer that has
/// claimed a slot but not yet stored into it would be missed.
pub struct TraceRing {
    slots: Vec<AtomicU64>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl TraceRing {
    /// `capacity` slots; each holds one packed event.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one span. Two relaxed atomics when the ring has room;
    /// one when it is full (the drop counter). Never blocks, never
    /// allocates.
    pub fn record(&self, stage: Stage, tag: u16, micros: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.slots.len() {
            self.slots[i].store(pack(stage, tag, micros), Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events recorded but not stored because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the stored events in record order without resetting.
    pub fn events(&self) -> Vec<TraceEvent> {
        (0..self.len()).filter_map(|i| unpack(self.slots[i].load(Ordering::Relaxed))).collect()
    }

    /// Takes the stored events and empties the ring (the drop counter
    /// keeps its lifetime total). Reader-side; see the type docs.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let out = self.events();
        self.next.store(0, Ordering::Relaxed);
        out
    }
}

/// Per-stage accumulation: event counts and total microseconds, indexed
/// by [`Stage`]. This is what stage-attribution breakdowns read — the
/// ring holds individual spans, the table holds their sums, and neither
/// blocks.
#[derive(Default)]
pub struct StageTable {
    counts: [AtomicU64; Stage::COUNT],
    micros: [AtomicU64; Stage::COUNT],
}

/// One row of a stage breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRow {
    pub stage: Stage,
    pub count: u64,
    pub total_micros: u64,
}

impl StageTable {
    pub fn new() -> StageTable {
        StageTable::default()
    }

    pub fn record(&self, stage: Stage, micros: u64) {
        self.counts[stage as usize].fetch_add(1, Ordering::Relaxed);
        self.micros[stage as usize].fetch_add(micros, Ordering::Relaxed);
    }

    /// All stages in pipeline order (zero rows included, so breakdowns
    /// always have the same shape).
    pub fn rows(&self) -> Vec<StageRow> {
        Stage::ALL
            .iter()
            .map(|&s| StageRow {
                stage: s,
                count: self.counts[s as usize].load(Ordering::Relaxed),
                total_micros: self.micros[s as usize].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total microseconds across all stages — the denominator for
    /// attribution shares.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().map(|m| m.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_packing() {
        for (stage, tag, micros) in [
            (Stage::Apply, 0u16, 0u64),
            (Stage::Splice, 0xBEEF, 123_456),
            (Stage::Fsync, u16::MAX, MICROS_MASK),
        ] {
            let ev = unpack(pack(stage, tag, micros)).unwrap();
            assert_eq!(ev, TraceEvent { stage, tag, micros });
        }
        // Span lengths beyond 40 bits saturate instead of corrupting
        // the stage/tag fields.
        let ev = unpack(pack(Stage::Verdict, 7, u64::MAX)).unwrap();
        assert_eq!((ev.stage, ev.tag, ev.micros), (Stage::Verdict, 7, MICROS_MASK));
    }

    #[test]
    fn ring_fills_then_counts_drops_without_blocking() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.record(Stage::Apply, i as u16, i);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let events = ring.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2], TraceEvent { stage: Stage::Apply, tag: 2, micros: 2 });
        assert!(ring.is_empty());
        // Refills after a drain; the drop counter keeps its total.
        ring.record(Stage::Fsync, 1, 99);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn concurrent_recording_loses_nothing_to_races() {
        let ring = std::sync::Arc::new(TraceRing::new(1_000));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        ring.record(Stage::Splice, t as u16, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 4000 records into 1000 slots: exactly 1000 stored, 3000
        // dropped — the fetch-add cursor never double-assigns a slot.
        assert_eq!(ring.len(), 1_000);
        assert_eq!(ring.dropped(), 3_000);
        assert_eq!(ring.events().len(), 1_000);
    }

    #[test]
    fn stage_table_accumulates_counts_and_micros() {
        let table = StageTable::new();
        table.record(Stage::Apply, 10);
        table.record(Stage::Apply, 30);
        table.record(Stage::Fsync, 5);
        let rows = table.rows();
        assert_eq!(rows.len(), Stage::COUNT, "every stage has a row");
        assert_eq!((rows[0].count, rows[0].total_micros), (2, 40));
        assert_eq!(rows[Stage::Fsync as usize].total_micros, 5);
        assert_eq!(table.total_micros(), 45);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "apply",
                "dirty_accumulate",
                "splice",
                "verdict",
                "certify",
                "journal_append",
                "fsync"
            ]
        );
    }
}
