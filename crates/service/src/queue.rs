//! Overload protection: bounded per-shard admission queues, request
//! deadlines, and a read-shedding-first load policy in front of the
//! gateway's worker pool.
//!
//! # The model
//!
//! Arrivals carry a **virtual arrival tick** (`at`, nondecreasing along
//! the stream) and an optional absolute **deadline** tick. Each store
//! shard (same 16-way split as the [`DocumentStore`](crate::DocumentStore)
//! locks — the overload unit matches the contention unit) is modeled as a
//! single server taking [`LoadOptions::service_ticks`] per request, with
//! a waiting room of [`LoadOptions::queue_capacity`] requests:
//!
//! * a request whose service could not *start* before its deadline is
//!   shed with [`ShedCause::DeadlineExpired`] — before any evaluation,
//!   which is the whole point of a deadline;
//! * a request arriving to a full waiting room is shed with
//!   [`ShedCause::QueueFull`] — unless it is a commit and a read is
//!   still queued, in which case the **youngest queued read** is
//!   displaced ([`ShedCause::ShedForCommit`]) and the commit takes its
//!   place: reads are cheap to retry against any replica, an accepted
//!   commit is the service's actual job.
//!
//! # Determinism
//!
//! [`plan_admission`] is a *pure function* of the arrival stream and the
//! options — no wall clock, no thread timing. The shed/admit decisions
//! are therefore byte-stable at every worker count, and
//! [`Gateway::process_open_loop`](crate::Gateway::process_open_loop)
//! inherits the gateway's determinism contract even when shedding fires.
//! With unbounded capacity and no deadlines nothing sheds and the
//! verdicts equal [`Gateway::process`](crate::Gateway::process) on the
//! bare commit stream (the differential harness pins both properties).

use crate::store::{shard_of, STORE_SHARDS};
use crate::{DocId, Gateway, RejectReason, Request, Verdict};
use std::fmt;

/// Tuning knobs of the admission queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Waiting-room size per shard (the request in service does not
    /// count). Arrivals beyond it are shed; `usize::MAX` disables
    /// shedding by capacity.
    pub queue_capacity: usize,
    /// Virtual ticks one request occupies its shard's server — the
    /// knob that turns a given arrival stream into under- or overload.
    pub service_ticks: u64,
}

impl Default for LoadOptions {
    /// Unbounded queue, one tick per request: nothing sheds unless
    /// deadlines say so.
    fn default() -> LoadOptions {
        LoadOptions { queue_capacity: usize::MAX, service_ticks: 1 }
    }
}

/// Why admission control shed a request (the payload of
/// [`RejectReason::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The shard's waiting room was full.
    QueueFull,
    /// Service could not have started before the request's deadline.
    DeadlineExpired,
    /// A queued read was displaced to admit a commit into a full
    /// waiting room.
    ShedForCommit,
}

impl fmt::Display for ShedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedCause::QueueFull => write!(f, "queue full"),
            ShedCause::DeadlineExpired => write!(f, "deadline expired"),
            ShedCause::ShedForCommit => write!(f, "read shed for commit"),
        }
    }
}

/// One timed request in an open-loop stream.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub request: Request,
    /// Read-class: served by [`Gateway::read`] (no session, no commit)
    /// and first in line for shedding.
    pub read: bool,
    /// Arrival tick. Streams must be nondecreasing in `at`.
    pub at: u64,
    /// Absolute tick service must start by, if any.
    pub deadline: Option<u64>,
}

impl Arrival {
    /// A commit-class arrival with no deadline.
    pub fn commit(request: Request, at: u64) -> Arrival {
        Arrival { request, read: false, at, deadline: None }
    }

    /// A read-class arrival (empty update batch) with no deadline.
    pub fn read_of(doc: DocId, at: u64) -> Arrival {
        Arrival { request: Request { doc, updates: Vec::new() }, read: true, at, deadline: None }
    }

    /// Attaches an absolute deadline tick.
    pub fn with_deadline(mut self, deadline: u64) -> Arrival {
        self.deadline = Some(deadline);
        self
    }
}

/// A queued-but-not-yet-started request in the shard simulation.
struct QueueSlot {
    index: usize,
    start: u64,
    read: bool,
}

struct ShardQueue {
    next_free: u64,
    waiting: Vec<QueueSlot>,
}

/// Plans shed/admit decisions for a timed arrival stream: `None` means
/// admitted, `Some(cause)` shed. Pure and deterministic — see the module
/// docs for the queueing model. Panics if arrivals are not time-ordered.
pub fn plan_admission(arrivals: &[Arrival], opts: &LoadOptions) -> Vec<Option<ShedCause>> {
    let capacity = opts.queue_capacity.max(1);
    let service = opts.service_ticks.max(1);
    let mut shards: Vec<ShardQueue> =
        (0..STORE_SHARDS).map(|_| ShardQueue { next_free: 0, waiting: Vec::new() }).collect();
    let mut plan: Vec<Option<ShedCause>> = vec![None; arrivals.len()];
    let mut clock = 0u64;
    for (i, a) in arrivals.iter().enumerate() {
        assert!(a.at >= clock, "arrival stream must be nondecreasing in `at`");
        clock = a.at;
        let shard = &mut shards[shard_of(a.request.doc)];
        // Everything whose service started by now has left the waiting
        // room (it is in service or done — either way, not sheddable).
        shard.waiting.retain(|slot| slot.start > a.at);
        // Deadline first: an expired request must never occupy a slot —
        // and must never displace a read it cannot make use of. The
        // start tick judged here is the one this request would actually
        // dequeue at: a commit arriving to a full room with a queued
        // read starts one service slot *earlier* (the displacement
        // below shifts everything up), so checking the pre-displacement
        // start would shed commits whose service still starts in time.
        let displaces =
            shard.waiting.len() >= capacity && !a.read && shard.waiting.iter().any(|s| s.read);
        let earliest = if displaces { shard.next_free - service } else { shard.next_free };
        let start = a.at.max(earliest);
        if a.deadline.is_some_and(|d| d < start) {
            plan[i] = Some(ShedCause::DeadlineExpired);
            continue;
        }
        if shard.waiting.len() >= capacity {
            // Prefer dropping reads over commits: displace the youngest
            // queued read if this is a commit, else shed the arrival.
            let victim = (!a.read).then(|| shard.waiting.iter().rposition(|s| s.read)).flatten();
            let Some(pos) = victim else {
                plan[i] = Some(ShedCause::QueueFull);
                continue;
            };
            let slot = shard.waiting.remove(pos);
            plan[slot.index] = Some(ShedCause::ShedForCommit);
            // Everything behind the displaced read starts one service
            // slot earlier (FIFO spacing keeps starts > `a.at`).
            for s in &mut shard.waiting[pos..] {
                s.start -= service;
            }
            shard.next_free -= service;
        }
        let start = a.at.max(shard.next_free);
        shard.waiting.push(QueueSlot { index: i, start, read: a.read });
        shard.next_free = start + service;
    }
    plan
}

/// Shed/serve accounting of one open-loop run. "Served" counts requests
/// that reached the gateway — including ones it then rejected on their
/// merits (a violation verdict is service, not overload).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadReport {
    pub offered: usize,
    pub served: usize,
    pub shed_queue_full: usize,
    pub shed_deadline: usize,
    pub shed_for_commit: usize,
    pub reads_offered: usize,
    pub reads_served: usize,
    pub commits_offered: usize,
    pub commits_served: usize,
}

impl LoadReport {
    /// Fraction of offered requests that were not shed (1.0 when none
    /// were offered).
    pub fn availability(&self) -> f64 {
        ratio(self.served, self.offered)
    }

    pub fn read_availability(&self) -> f64 {
        ratio(self.reads_served, self.reads_offered)
    }

    pub fn commit_availability(&self) -> f64 {
        ratio(self.commits_served, self.commits_offered)
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

impl Gateway {
    /// Drains a timed arrival stream through the bounded per-shard
    /// admission queues: plans shedding with [`plan_admission`] (pure,
    /// so the decisions — and the whole log — stay byte-identical at
    /// every worker count, shedding or not), then drains the admitted
    /// requests over the usual deterministic worker pool. Shed requests
    /// verdict as [`RejectReason::Overloaded`] without ever touching a
    /// document; admitted reads go through [`Gateway::read`], admitted
    /// commits through [`Gateway::submit`].
    pub fn process_open_loop(
        &self,
        arrivals: &[Arrival],
        workers: usize,
        opts: &LoadOptions,
    ) -> (Vec<Verdict>, LoadReport) {
        let plan = plan_admission(arrivals, opts);
        // Shed verdicts never reach `submit`/`read`, so their counters
        // bump here; the plan is pure, so these counts are deterministic
        // at every worker count.
        if self.metrics().is_some() {
            for cause in plan.iter().flatten() {
                self.note_verdict(&Verdict::Rejected(RejectReason::Overloaded { cause: *cause }));
            }
        }

        let mut verdicts: Vec<Option<Verdict>> = plan
            .iter()
            .map(|p| p.map(|cause| Verdict::Rejected(RejectReason::Overloaded { cause })))
            .collect();
        // Admitted arrivals only, through `Gateway::process`'s pool.
        let admitted = arrivals
            .iter()
            .enumerate()
            .filter(|&(i, _)| plan[i].is_none())
            .map(|(i, a)| (i, a.request.doc));
        self.drain(admitted, &mut verdicts, workers, |i| {
            let a = &arrivals[i];
            if a.read {
                self.read(a.request.doc)
            } else {
                self.submit(&a.request)
            }
        });

        let mut report = LoadReport { offered: arrivals.len(), ..LoadReport::default() };
        for (a, p) in arrivals.iter().zip(&plan) {
            let served = p.is_none();
            report.served += served as usize;
            if a.read {
                report.reads_offered += 1;
                report.reads_served += served as usize;
            } else {
                report.commits_offered += 1;
                report.commits_served += served as usize;
            }
            match p {
                Some(ShedCause::QueueFull) => report.shed_queue_full += 1,
                Some(ShedCause::DeadlineExpired) => report.shed_deadline += 1,
                Some(ShedCause::ShedForCommit) => report.shed_for_commit += 1,
                None => {}
            }
        }
        // Invariant: sheds were filled from the plan above and admitted
        // indices partition across the units, all of which were drained.
        let verdicts = verdicts.into_iter().map(|v| v.expect("every arrival verdicted")).collect();
        (verdicts, report)
    }
}

/// The canonical log of one open-loop run: like
/// [`render_log`](crate::render_log) with a read/commit class marker.
/// Byte-identical at every worker count.
pub fn render_arrival_log(arrivals: &[Arrival], verdicts: &[Verdict]) -> String {
    assert_eq!(arrivals.len(), verdicts.len(), "one verdict per arrival");
    let mut out = String::new();
    for (i, (a, v)) in arrivals.iter().zip(verdicts).enumerate() {
        let class = if a.read { 'R' } else { 'C' };
        out.push_str(&format!("#{i:04} {class} {} {}\n", a.request.doc, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xuc_core::parse_constraint;
    use xuc_sigstore::Signer;
    use xuc_xtree::{parse_term, NodeId, Update};

    fn gateway_with_doc(name: &str) -> (Gateway, DocId) {
        let gw = Gateway::new(Signer::new(0x10ad));
        let id = DocId::new(name);
        let tree = parse_term("hospital#1(patient#2(visit#3))").unwrap();
        let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
        gw.publish(id, tree, suite).unwrap();
        (gw, id)
    }

    fn insert_req(id: DocId) -> Request {
        Request {
            doc: id,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::fresh(),
                label: "visit".into(),
            }],
        }
    }

    #[test]
    fn unbounded_open_loop_equals_closed_loop() {
        let (gw, id) = gateway_with_doc("open-eq");
        let reqs: Vec<Request> = (0..6).map(|_| insert_req(id)).collect();
        let arrivals: Vec<Arrival> =
            reqs.iter().cloned().enumerate().map(|(i, r)| Arrival::commit(r, i as u64)).collect();
        let (verdicts, report) = gw.process_open_loop(&arrivals, 2, &LoadOptions::default());
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.shed_queue_full + report.shed_deadline + report.shed_for_commit, 0);
        // Same verdicts a plain process run would produce on a fresh
        // gateway (commit numbers 1..=6 in order).
        for (k, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, Verdict::Accepted { commit: k as u64 + 1 });
        }
    }

    #[test]
    fn full_queue_sheds_and_prefers_commits_over_reads() {
        let (gw, id) = gateway_with_doc("shed");
        // Everything arrives at tick 0 against one document (one shard):
        // server takes 4 ticks, waiting room of 2.
        let opts = LoadOptions { queue_capacity: 2, service_ticks: 4 };
        let arrivals = vec![
            Arrival::commit(insert_req(id), 0), // starts at 0: in service
            Arrival::read_of(id, 0),            // waits (slot 1)
            Arrival::commit(insert_req(id), 0), // waits (slot 2) — room full
            Arrival::read_of(id, 0),            // read + full room: shed
            Arrival::commit(insert_req(id), 0), // commit displaces queued read
        ];
        let (verdicts, report) = gw.process_open_loop(&arrivals, 1, &opts);
        assert_eq!(
            verdicts[3],
            Verdict::Rejected(RejectReason::Overloaded { cause: ShedCause::QueueFull })
        );
        assert_eq!(
            verdicts[1],
            Verdict::Rejected(RejectReason::Overloaded { cause: ShedCause::ShedForCommit }),
            "the queued read is displaced by the later commit"
        );
        assert!(
            verdicts[0].is_accepted() && verdicts[2].is_accepted() && verdicts[4].is_accepted()
        );
        assert_eq!((report.served, report.offered), (3, 5));
        assert!(report.commit_availability() > report.read_availability());
        assert_eq!(report.commit_availability(), 1.0, "no commit was shed");
    }

    #[test]
    fn expired_deadlines_shed_before_evaluation() {
        let (gw, id) = gateway_with_doc("deadline");
        let opts = LoadOptions { queue_capacity: usize::MAX, service_ticks: 10 };
        let arrivals = vec![
            Arrival::commit(insert_req(id), 0), // service 0..10
            Arrival::commit(insert_req(id), 1).with_deadline(5), // would start at 10 > 5
            Arrival::commit(insert_req(id), 2).with_deadline(50), // starts at 10 ≤ 50
        ];
        let (verdicts, report) = gw.process_open_loop(&arrivals, 1, &opts);
        assert_eq!(
            verdicts[1],
            Verdict::Rejected(RejectReason::Overloaded { cause: ShedCause::DeadlineExpired })
        );
        assert_eq!(verdicts[0], Verdict::Accepted { commit: 1 });
        assert_eq!(
            verdicts[2],
            Verdict::Accepted { commit: 2 },
            "commit numbers skip shed requests"
        );
        assert_eq!(report.shed_deadline, 1);
    }

    #[test]
    fn deadline_is_judged_at_the_true_dequeue_tick() {
        // One document (one shard), server busy 0..4, waiting room of 1
        // holding a read: the next commit would dequeue at tick 8 — but
        // displacing the read makes its true start tick 4.
        let (gw, id) = gateway_with_doc("deadline-dequeue");
        let opts = LoadOptions { queue_capacity: 1, service_ticks: 4 };
        let mk = |deadline| {
            vec![
                Arrival::commit(insert_req(id), 0), // in service 0..4
                Arrival::read_of(id, 0),            // queued, would start at 4
                Arrival::commit(insert_req(id), 0).with_deadline(deadline),
            ]
        };
        // Deadline 5 ≥ the post-displacement start 4: the commit must be
        // admitted (the regression was shedding it against the stale
        // pre-displacement start 8) and the read displaced.
        let (verdicts, report) = gw.process_open_loop(&mk(5), 1, &opts);
        assert_eq!(
            verdicts[1],
            Verdict::Rejected(RejectReason::Overloaded { cause: ShedCause::ShedForCommit })
        );
        assert!(verdicts[2].is_accepted(), "starts at tick 4, before its deadline");
        assert_eq!(report.shed_deadline, 0);
        // Deadline 3 < even the post-displacement start: the commit is
        // shed — and must NOT displace the read it cannot make use of.
        let (gw, id) = gateway_with_doc("deadline-dequeue-2");
        let (verdicts, report) = gw.process_open_loop(
            &{
                let mut a = mk(3);
                for x in &mut a {
                    x.request.doc = id;
                }
                a
            },
            1,
            &opts,
        );
        assert_eq!(
            verdicts[2],
            Verdict::Rejected(RejectReason::Overloaded { cause: ShedCause::DeadlineExpired })
        );
        assert_eq!(verdicts[1], Verdict::Served, "a doomed commit must not displace the read");
        assert_eq!((report.shed_deadline, report.shed_for_commit), (1, 0));
    }

    #[test]
    fn shedding_decisions_are_worker_count_invariant() {
        let docs: Vec<DocId> = (0..4).map(|k| DocId::new(&format!("inv-{k}"))).collect();
        let opts = LoadOptions { queue_capacity: 1, service_ticks: 3 };
        let build = || {
            let gw = Gateway::new(Signer::new(7));
            for d in &docs {
                let tree = parse_term("hospital#1(patient#2(visit#3))").unwrap();
                let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
                gw.publish(*d, tree, suite).unwrap();
            }
            gw
        };
        let mut arrivals = Vec::new();
        for t in 0..24u64 {
            let d = docs[(t % 4) as usize];
            if t % 3 == 0 {
                arrivals.push(Arrival::read_of(d, t / 2));
            } else {
                arrivals.push(Arrival::commit(insert_req_for(d), t / 2).with_deadline(t / 2 + 4));
            }
        }
        let reference = {
            let gw = build();
            let (v, _) = gw.process_open_loop(&arrivals, 1, &opts);
            render_arrival_log(&arrivals, &v)
        };
        assert!(reference.contains("REJECT overloaded"), "the stream must actually shed");
        for workers in [2, 8] {
            let gw = build();
            let (v, _) = gw.process_open_loop(&arrivals, workers, &opts);
            assert_eq!(render_arrival_log(&arrivals, &v), reference, "workers={workers}");
        }
    }

    fn insert_req_for(id: DocId) -> Request {
        Request {
            doc: id,
            updates: vec![Update::InsertLeaf {
                parent: NodeId::from_raw(2),
                id: NodeId::fresh(),
                label: "visit".into(),
            }],
        }
    }

    #[test]
    fn reads_serve_and_unknown_docs_reject() {
        let (gw, id) = gateway_with_doc("reads");
        assert_eq!(gw.read(id), Verdict::Served);
        assert_eq!(gw.read(DocId::new("ghost")), Verdict::Rejected(RejectReason::UnknownDocument));
        assert_eq!(Verdict::Served.to_string(), "READ ok");
        assert!(Verdict::Served.is_ok() && !Verdict::Served.is_accepted());
    }
}
