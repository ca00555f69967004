//! A deterministic virtual-time model of the gateway's
//! per-document-serialized dispatch, for the E-LOAD
//! latency-vs-offered-load experiment.
//!
//! Wall-clock worker scaling needs more cores than a small CI host has
//! (the E-PAR precedent). This model reproduces the *queueing structure*
//! of [`Gateway::process`](xuc_service::Gateway::process) in virtual
//! time instead: open-loop arrivals at a configured offered rate,
//! Zipfian document skew, and each document's batches admitted one at a
//! time, in arrival order, by at most one worker at a time — a hot
//! document serializes while the other documents spread over the pool.
//! Every batch costs the same number of ticks. Same config ⇒
//! bit-identical histogram, so the reported saturation-throughput ratios
//! are structural properties of the dispatch, not timer noise — the
//! real-execution differential suite (`crates/service/tests/load.rs`)
//! pins the gateway itself to the same contract.

use crate::latency::LatencyHistogram;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use xuc_service::workload::SplitMix;

/// One E-LOAD simulation arm.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Virtual workers draining the queues.
    pub workers: usize,
    /// Ticks to admit one batch.
    pub batch_cost: u64,
    /// Documents in the deployment.
    pub docs: usize,
    /// Zipf exponent in hundredths (0 = uniform, 99 = hot-document).
    pub skew_centi: u32,
    /// Offered load: arrivals per 1000 virtual ticks.
    pub offered_per_kilotick: u64,
    /// Requests in the arrival stream.
    pub count: usize,
    pub seed: u64,
}

/// What one simulated run measured.
pub struct SimResult {
    /// Per-request sojourn time (arrival → admission completes), in ticks.
    pub hist: LatencyHistogram,
    /// Tick at which the last batch completed.
    pub makespan: u64,
    /// Served requests per 1000 ticks of makespan — at offered loads far
    /// above capacity this *is* the saturation throughput.
    pub throughput_per_kilotick: f64,
}

/// Zipfian document draw — the same cumulative-weight walk the request
/// generator uses ([`xuc_service::workload::seeded_zipf_requests`]),
/// reduced to the index.
fn zipf_indices(docs: usize, skew_centi: u32, seed: u64, count: usize) -> Vec<usize> {
    let s = skew_centi as f64 / 100.0;
    let weights: Vec<f64> = (0..docs).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0;
            for (i, w) in weights.iter().enumerate() {
                acc += w;
                if u < acc {
                    return i;
                }
            }
            docs - 1
        })
        .collect()
}

/// Runs the open-loop model to completion and returns the latency
/// histogram, makespan and throughput. Fully deterministic: worker free
/// times are a min-heap keyed `(tick, worker)`, ready documents a
/// `BTreeSet` keyed `(head arrival, doc)`, so every tie breaks the same
/// way on every run.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    assert!(cfg.workers >= 1 && cfg.docs >= 1 && cfg.count >= 1);
    assert!(cfg.offered_per_kilotick >= 1);
    // Open-loop arrivals: request i arrives at ⌊i·1000/rate⌋ regardless
    // of queue state — the defining property (a closed loop would slow
    // its own arrivals under saturation and hide the latency cliff).
    let arrivals: Vec<u64> = (0..cfg.count)
        .map(|i| (i as u64).saturating_mul(1000) / cfg.offered_per_kilotick)
        .collect();
    let doc_of = zipf_indices(cfg.docs, cfg.skew_centi, cfg.seed, cfg.count);

    let mut queues: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); cfg.docs];
    // Documents with arrived, unclaimed work, ordered by head-of-queue
    // arrival (then doc index), so ties break the same way every run.
    // A held document is in neither set: it re-readies only
    // through its release event, which is what makes a hot document
    // serialize (at most one worker holds it at any virtual instant).
    let mut ready: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut held = vec![false; cfg.docs];
    let mut releases: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut workers: BinaryHeap<Reverse<(u64, usize)>> =
        (0..cfg.workers).map(|w| Reverse((0u64, w))).collect();
    let mut next = 0usize; // arrival ingestion cursor
    let mut served = 0usize;
    let mut hist = LatencyHistogram::new();
    let mut makespan = 0u64;

    while served < cfg.count {
        let Reverse((mut now, w)) = workers.pop().expect("worker pool is never empty");
        // Ingest every arrival and document release up to `now`; if the
        // floor is dry, idle this worker forward to the next event.
        loop {
            while next < cfg.count && arrivals[next] <= now {
                let d = doc_of[next];
                if queues[d].is_empty() && !held[d] {
                    ready.insert((arrivals[next], d));
                }
                queues[d].push_back((next, arrivals[next]));
                next += 1;
            }
            while releases.peek().is_some_and(|&Reverse((t, _))| t <= now) {
                let Reverse((_, d)) = releases.pop().expect("peeked");
                held[d] = false;
                if let Some(&(_, at)) = queues[d].front() {
                    ready.insert((at, d));
                }
            }
            if !ready.is_empty() {
                break;
            }
            let next_arrival = (next < cfg.count).then(|| arrivals[next]);
            let next_release = releases.peek().map(|&Reverse((t, _))| t);
            now = match (next_arrival, next_release) {
                (Some(a), Some(r)) => a.min(r),
                (Some(a), None) => a,
                (None, Some(r)) => r,
                (None, None) => unreachable!("unserved requests but no pending events"),
            };
        }
        // Claim the longest-waiting document and hold it while its head
        // batch is admitted. Another worker's ingestion may have readied
        // work that arrives after this worker's free time — it starts no
        // earlier than the head arrival.
        let &(head, d) = ready.iter().next().expect("checked non-empty");
        ready.remove(&(head, d));
        held[d] = true;
        let finish = now.max(head) + cfg.batch_cost;
        let (_, at) = queues[d].pop_front().expect("a ready document has queued work");
        hist.record(finish - at);
        served += 1;
        makespan = makespan.max(finish);
        releases.push(Reverse((finish, d)));
        workers.push(Reverse((finish, w)));
    }

    let throughput_per_kilotick = cfg.count as f64 * 1000.0 / makespan.max(1) as f64;
    SimResult { hist, makespan, throughput_per_kilotick }
}

/// The saturation throughput of a topology: drive it far above any
/// plausible capacity and read the drain rate off the makespan.
pub fn saturation_throughput(cfg: &SimConfig) -> f64 {
    let mut flooded = *cfg;
    // Everything arrives almost at once — pure service-capacity probe.
    flooded.offered_per_kilotick = 1_000_000;
    simulate(&flooded).throughput_per_kilotick
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> SimConfig {
        SimConfig {
            workers: 1,
            batch_cost: 8,
            docs: 64,
            skew_centi: 99,
            offered_per_kilotick: 200,
            count: 4_000,
            seed: 0xE10AD,
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = SimConfig { workers: 8, ..base_cfg() };
        let (a, b) = (simulate(&cfg), simulate(&cfg));
        assert_eq!(a.makespan, b.makespan);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.hist.quantile(q), b.hist.quantile(q));
        }
        assert_eq!(a.hist.count(), cfg.count as u64);
    }

    #[test]
    fn workers_scale_saturation_until_the_hot_document_binds() {
        let sat = |workers, skew_centi| {
            saturation_throughput(&SimConfig { workers, skew_centi, ..base_cfg() })
        };
        // Uniform skew: 8 virtual workers drain well over 2× one worker.
        assert!(sat(8, 0) >= 2.0 * sat(1, 0), "{} vs {}", sat(8, 0), sat(1, 0));
        // Hot-document skew: still ≥ 2× — the hot document serializes,
        // but it holds one worker while the cold documents drain on the
        // rest.
        assert!(sat(8, 99) >= 2.0 * sat(1, 99), "{} vs {}", sat(8, 99), sat(1, 99));
        // One document, every worker: serialization caps scaling — the
        // pool cannot beat the single-document service rate.
        let one_doc = SimConfig { docs: 1, ..base_cfg() };
        let (w1, w8) = (
            saturation_throughput(&SimConfig { workers: 1, ..one_doc }),
            saturation_throughput(&SimConfig { workers: 8, ..one_doc }),
        );
        assert!(w8 <= w1 * 1.05, "a single hot document must serialize: {w8} vs {w1}");
    }

    #[test]
    fn latency_rises_with_offered_load() {
        let p99 = |offered_per_kilotick| {
            simulate(&SimConfig { workers: 8, offered_per_kilotick, count: 2_000, ..base_cfg() })
                .hist
                .quantile(0.99)
        };
        let (light, heavy) = (p99(50), p99(5_000));
        assert!(
            heavy > 4 * light.max(1),
            "overload must show up in the tail: p99 {light} → {heavy}"
        );
    }
}
