//! The gateway's metric set: pre-registered handles for every service
//! counter, `RecordInto` impls for the crate's ad-hoc stats structs, and
//! the scrape points that fold the process-global counters of the crates
//! *below* telemetry (`xuc-xpath`, `xuc-persist`) into one registry.
//!
//! # Determinism classification
//!
//! Every metric declares whether its final value is a pure function of
//! the request stream ([`Determinism::Deterministic`] — byte-identical
//! at 1, 2 or 8 workers, pinned by the differential suites) or an
//! artifact of thread scheduling ([`Determinism::SchedulingDependent`]).
//! The line is drawn conservatively:
//!
//! * verdict counts (accept / violation / failed-update / unknown /
//!   internal / served reads) and shed causes are **deterministic** —
//!   they restate the verdict log, which is the determinism contract's
//!   subject, and [`plan_admission`](crate::plan_admission) is pure;
//! * panic containments and quarantine entries are **deterministic** —
//!   panics fire per document in per-document order;
//! * degraded-mode refusals and transitions are **scheduling-dependent**:
//!   a mid-run journal fault lands between two racing commits at a
//!   timing-defined point, so which requests see the degraded gate moves
//!   with the schedule;
//! * every *scraped* counter ([`scrape_engine_metrics`],
//!   [`scrape_persist_metrics`]) is classified scheduling-dependent even
//!   when the underlying quantity is per-gateway deterministic (WAL
//!   frames, splice commits): the sources are process-global atomics
//!   shared by every gateway in the process, so concurrently-running
//!   harnesses fold into the same totals.

use crate::queue::LoadReport;
use crate::{RejectReason, ShedCause, Verdict};
use std::sync::Arc;
use xuc_telemetry::{Counter, Determinism, MetricsRegistry, RecordInto, Telemetry};

/// The gateway's pre-registered metric handles plus the shared
/// [`Telemetry`] bundle. Built once at
/// [`Gateway::attach_telemetry`](crate::Gateway::attach_telemetry);
/// the hot path touches only the handles (relaxed atomic adds), never
/// the registry map.
pub(crate) struct ServiceMetrics {
    pub(crate) tel: Arc<Telemetry>,
    commits_accepted: Counter,
    reads_served: Counter,
    rejected_violation: Counter,
    rejected_failed_update: Counter,
    rejected_unknown: Counter,
    rejected_internal: Counter,
    rejected_degraded: Counter,
    shed_queue_full: Counter,
    shed_deadline: Counter,
    shed_for_commit: Counter,
    panics_contained: Counter,
    quarantines_entered: Counter,
    degraded_transitions: Counter,
    resumes: Counter,
    halts: Counter,
}

impl ServiceMetrics {
    pub(crate) fn new(tel: Arc<Telemetry>) -> ServiceMetrics {
        let reg = tel.registry();
        let det = Determinism::Deterministic;
        let sched = Determinism::SchedulingDependent;
        ServiceMetrics {
            commits_accepted: reg.counter("xuc_gateway_commits_accepted_total", det),
            reads_served: reg.counter("xuc_gateway_reads_served_total", det),
            rejected_violation: reg.counter("xuc_gateway_rejected_violation_total", det),
            rejected_failed_update: reg.counter("xuc_gateway_rejected_failed_update_total", det),
            rejected_unknown: reg.counter("xuc_gateway_rejected_unknown_document_total", det),
            rejected_internal: reg.counter("xuc_gateway_rejected_internal_total", det),
            rejected_degraded: reg.counter("xuc_gateway_rejected_degraded_total", sched),
            shed_queue_full: reg.counter("xuc_gateway_shed_queue_full_total", det),
            shed_deadline: reg.counter("xuc_gateway_shed_deadline_expired_total", det),
            shed_for_commit: reg.counter("xuc_gateway_shed_for_commit_total", det),
            panics_contained: reg.counter("xuc_gateway_panics_contained_total", det),
            quarantines_entered: reg.counter("xuc_gateway_quarantines_entered_total", det),
            degraded_transitions: reg.counter("xuc_gateway_degraded_transitions_total", sched),
            resumes: reg.counter("xuc_gateway_resumes_total", sched),
            halts: reg.counter("xuc_gateway_halts_total", sched),
            tel,
        }
    }

    /// Restates one verdict as a counter bump.
    pub(crate) fn note_verdict(&self, v: &Verdict) {
        let c = match v {
            Verdict::Accepted { .. } => &self.commits_accepted,
            Verdict::Served => &self.reads_served,
            Verdict::Rejected(RejectReason::Violation { .. }) => &self.rejected_violation,
            Verdict::Rejected(RejectReason::FailedUpdate { .. }) => &self.rejected_failed_update,
            Verdict::Rejected(RejectReason::UnknownDocument) => &self.rejected_unknown,
            Verdict::Rejected(RejectReason::Internal { .. }) => &self.rejected_internal,
            Verdict::Rejected(RejectReason::Degraded { .. }) => &self.rejected_degraded,
            Verdict::Rejected(RejectReason::Overloaded { cause }) => match cause {
                ShedCause::QueueFull => &self.shed_queue_full,
                ShedCause::DeadlineExpired => &self.shed_deadline,
                ShedCause::ShedForCommit => &self.shed_for_commit,
            },
        };
        c.inc();
    }

    pub(crate) fn note_contained_panic(&self, quarantined_now: bool) {
        self.panics_contained.inc();
        if quarantined_now {
            self.quarantines_entered.inc();
        }
    }

    pub(crate) fn note_degraded_transition(&self) {
        self.degraded_transitions.inc();
    }

    pub(crate) fn note_resume(&self) {
        self.resumes.inc();
    }

    pub(crate) fn note_halt(&self) {
        self.halts.inc();
    }
}

impl RecordInto for LoadReport {
    /// Shed/serve accounting is a pure function of the arrival stream
    /// ([`plan_admission`](crate::plan_admission)), so every series is
    /// deterministic.
    fn record_into(&self, reg: &MetricsRegistry) {
        let det = Determinism::Deterministic;
        reg.counter("xuc_load_offered_total", det).set_absolute(self.offered as u64);
        reg.counter("xuc_load_served_total", det).set_absolute(self.served as u64);
        reg.counter("xuc_load_shed_queue_full_total", det)
            .set_absolute(self.shed_queue_full as u64);
        reg.counter("xuc_load_shed_deadline_total", det).set_absolute(self.shed_deadline as u64);
        reg.counter("xuc_load_shed_for_commit_total", det)
            .set_absolute(self.shed_for_commit as u64);
        reg.counter("xuc_load_reads_offered_total", det).set_absolute(self.reads_offered as u64);
        reg.counter("xuc_load_reads_served_total", det).set_absolute(self.reads_served as u64);
        reg.counter("xuc_load_commits_offered_total", det)
            .set_absolute(self.commits_offered as u64);
        reg.counter("xuc_load_commits_served_total", det).set_absolute(self.commits_served as u64);
    }
}

/// Scrapes the XPath engine's process-global counters
/// ([`xuc_xpath::engine_counters`]) into `reg`. Process-global, hence
/// scheduling-dependent (see the module docs); call at snapshot points,
/// not concurrently with another scrape of the same registry.
pub fn scrape_engine_metrics(reg: &MetricsRegistry) {
    let sched = Determinism::SchedulingDependent;
    let c = xuc_xpath::engine_counters();
    reg.counter("xuc_engine_eval_set_sweeps_total", sched).set_absolute(c.eval_set_sweeps);
    reg.counter("xuc_engine_fallback_pattern_evals_total", sched)
        .set_absolute(c.fallback_pattern_evals);
    reg.counter("xuc_engine_splice_attempts_total", sched).set_absolute(c.splice_attempts);
    reg.counter("xuc_engine_splice_commits_total", sched).set_absolute(c.splice_commits);
    reg.counter("xuc_engine_splice_declined_total", sched).set_absolute(c.splice_declined);
    reg.counter("xuc_engine_dirty_roots_swept_total", sched).set_absolute(c.dirty_roots_swept);
    reg.counter("xuc_engine_dirty_nodes_swept_total", sched).set_absolute(c.dirty_nodes_swept);
}

/// Scrapes the durability layer's process-global counters
/// ([`xuc_persist::persist_counters`]) into `reg`. Same caveats as
/// [`scrape_engine_metrics`].
pub fn scrape_persist_metrics(reg: &MetricsRegistry) {
    let sched = Determinism::SchedulingDependent;
    let c = xuc_persist::persist_counters();
    reg.counter("xuc_persist_wal_frames_total", sched).set_absolute(c.wal_frames);
    reg.counter("xuc_persist_wal_bytes_total", sched).set_absolute(c.wal_bytes);
    reg.counter("xuc_persist_wal_flushes_total", sched).set_absolute(c.wal_flushes);
    reg.counter("xuc_persist_wal_fsyncs_total", sched).set_absolute(c.wal_fsyncs);
    reg.counter("xuc_persist_wal_truncations_total", sched).set_absolute(c.wal_truncations);
    reg.counter("xuc_persist_snapshot_installs_total", sched).set_absolute(c.snapshot_installs);
    reg.counter("xuc_persist_retries_transient_total", sched).set_absolute(c.retries_transient);
    reg.counter("xuc_persist_faults_fatal_total", sched).set_absolute(c.faults_fatal);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_report_record_into_is_deterministic_class() {
        let reg = MetricsRegistry::new();
        let report = LoadReport {
            offered: 10,
            served: 8,
            shed_queue_full: 1,
            shed_deadline: 1,
            shed_for_commit: 0,
            reads_offered: 4,
            reads_served: 3,
            commits_offered: 6,
            commits_served: 5,
        };
        report.record_into(&reg);
        let det = reg.snapshot().exposition_deterministic();
        assert!(det.contains("xuc_load_offered_total{class=\"deterministic\"} 10"));
        assert!(det.contains("xuc_load_served_total{class=\"deterministic\"} 8"));
    }

    #[test]
    fn scrapes_register_every_series() {
        let reg = MetricsRegistry::new();
        scrape_engine_metrics(&reg);
        scrape_persist_metrics(&reg);
        let snap = reg.snapshot();
        assert!(snap.counter("xuc_engine_eval_set_sweeps_total").is_some());
        assert!(snap.counter("xuc_persist_wal_frames_total").is_some());
        // Re-scraping must re-fetch, never conflict.
        scrape_engine_metrics(&reg);
        scrape_persist_metrics(&reg);
    }
}
