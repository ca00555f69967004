//! A concurrent, transactional update-validation gateway — the paper's
//! Figure 1 deployment as a long-running service.
//!
//! The motivating scenario of *Cautis–Abiteboul–Milo* (Section 1) is a
//! gateway that intercepts update streams against signed XML documents
//! and accepts or rejects each batch under the documents' update
//! constraints. The library crates of this workspace provide all the
//! single-shot pieces — evaluation ([`xuc_xpath::Evaluator`]), undoable
//! edits ([`xuc_xtree::apply_undoable`]), compiled constraint batches
//! ([`xuc_automata::PatternSetCompiler`]), certification
//! ([`xuc_sigstore::Signer`]) — and this crate composes them under
//! concurrency:
//!
//! * [`DocumentStore`] — documents sharded by id behind `parking_lot`
//!   locks; each [`Document`] owns its tree, a **warm** evaluator whose
//!   snapshot is kept in sync by the edit-scope protocol, its constraint
//!   suite, the suite's compiled automaton and its current certificate's
//!   header (the signed sets themselves are the admission baselines —
//!   one copy of each);
//! * [`Session`] — `begin / apply / commit / rollback` transactions built
//!   on undo tokens: a rejected batch unwinds exactly (same child order,
//!   [`xuc_xtree::undo`]'s position-restoration invariant) and the
//!   evaluator is never left stale. Commit admission is
//!   **edit-proportional** ([`admit_delta_in_place`]): the batch's edit
//!   scopes accumulate into a [`DirtyRegion`](xuc_xtree::DirtyRegion)
//!   and the committed baseline range results are spliced in place
//!   ([`eval_set_splice`](xuc_xpath::Evaluator::eval_set_splice)) — the
//!   check costs what the batch touched, not what the document holds.
//!   Predicate suites make the splice decline and one full sweep stand
//!   in for it; both yield one [`SpliceJournal`](xuc_xpath::SpliceJournal),
//!   the only thing a commit is judged and certified from;
//! * [`SuiteCache`] — constraint suites fingerprinted by canonical
//!   pattern serialization ([`xuc_xpath::fingerprint`]); compiled
//!   automata are memoized so admission rides the
//!   [`eval_set`](xuc_xpath::Evaluator::eval_set) fast path with **zero**
//!   per-request compilation;
//! * [`Gateway`] — the front-end: publish documents, submit requests,
//!   and drain a request stream through a deterministic worker pool
//!   ([`Gateway::process`]) whose accept/reject log is byte-identical at
//!   every worker count;
//! * commit **re-certifies** the document incrementally: the journal's
//!   added and removed set entries are folded into each signed set's
//!   additive hash ([`xuc_sigstore::SetSum`]) and the O(k) certificate
//!   header is re-chained ([`xuc_sigstore::CertHeader::rechain`]),
//!   closing the Figure 1 loop — users can verify every accepted state
//!   without seeing its predecessor, and the commit costs what the edit
//!   touched;
//! * [`reference`](mod@reference) keeps the pre-delta admission and commit
//!   ([`reference::admit`], [`reference::FullPass`]) as oracles for the
//!   differential suites and the experiments; production code calls
//!   neither.
//!
//! ```
//! use xuc_core::parse_constraint;
//! use xuc_service::{DocId, Gateway, Request, Verdict};
//! use xuc_sigstore::Signer;
//! use xuc_xtree::{parse_term, NodeId, Update};
//!
//! let gw = Gateway::new(Signer::new(0xfeed));
//! let doc = DocId::new("mercy-west");
//! let tree = parse_term("hospital#1(patient#2(visit#3))").unwrap();
//! let suite = vec![parse_constraint("(/patient/visit, ↑)").unwrap()];
//! gw.publish(doc, tree, suite).unwrap();
//!
//! // A compliant batch commits and re-certifies…
//! let ok = Request {
//!     doc,
//!     updates: vec![Update::InsertLeaf {
//!         parent: NodeId::from_raw(2),
//!         id: NodeId::fresh(),
//!         label: "visit".into(),
//!     }],
//! };
//! assert!(matches!(gw.submit(&ok), Verdict::Accepted { commit: 1 }));
//!
//! // …while tampering is rejected and rolled back.
//! let bad = Request { doc, updates: vec![Update::DeleteSubtree { node: NodeId::from_raw(3) }] };
//! assert!(matches!(gw.submit(&bad), Verdict::Rejected(_)));
//! assert!(gw.certificate(doc).unwrap().verify(0xfeed, &gw.snapshot(doc).unwrap()).is_ok());
//! ```

pub mod cache;
pub mod gateway;
pub mod persist;
pub mod queue;
pub mod reference;
pub mod session;
pub mod store;
pub mod telemetry;
pub mod workload;

pub use cache::SuiteCache;
pub use gateway::{render_log, AdmissionMode, Gateway, GatewayState, ThroughputOptions};
pub use persist::{DurableOptions, RecoverError, ResumeError};
pub use queue::{plan_admission, render_arrival_log, Arrival, LoadOptions, LoadReport, ShedCause};
pub use session::{admit_delta_in_place, Commit, Rejection, Session};
pub use store::{Document, DocumentStore, PublishError};
pub use telemetry::{scrape_engine_metrics, scrape_persist_metrics};
pub use xuc_persist::{Crash, RetryPolicy, SimDisk, StdFs, SyncFault, SystemClock};
pub use xuc_telemetry::{
    Determinism, MetricsRegistry, MetricsSnapshot, RecordInto, Stage, Telemetry, TraceRing,
};

use std::fmt;
use xuc_xtree::{Label, Update};

/// A document's identity inside the store. Backed by an interned
/// [`Label`], so ids are `Copy` and compare in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(Label);

impl DocId {
    pub fn new(name: &str) -> DocId {
        DocId(Label::new(name))
    }

    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for DocId {
    fn from(s: &str) -> DocId {
        DocId::new(s)
    }
}

/// One client request: a batch of updates against one document, admitted
/// or rejected **atomically** (all updates commit, or none do).
#[derive(Debug, Clone)]
pub struct Request {
    pub doc: DocId,
    pub updates: Vec<Update>,
}

/// The gateway's answer to one [`Request`] (or read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The batch committed; `commit` is the document's new commit number
    /// (deterministic: requests against one document are processed in
    /// arrival order at every worker count).
    Accepted {
        commit: u64,
    },
    /// A read-class request was served ([`Gateway::read`]): the document
    /// exists and the gateway is not halted. Reads carry no commit
    /// number — they change nothing.
    Served,
    Rejected(RejectReason),
}

impl Verdict {
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted { .. })
    }

    /// Accepted commit, served read — anything the gateway did not
    /// refuse or shed.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Verdict::Rejected(_))
    }
}

/// Which degraded condition refused a request (the payload of
/// [`RejectReason::Degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The gateway's journal sealed after a fatal fault
    /// ([`GatewayState::ReadOnly`]); commits are refused until
    /// [`Gateway::try_resume`] succeeds.
    ReadOnly,
    /// The gateway was halted ([`GatewayState::Halted`]); nothing
    /// serves.
    Halted,
    /// This document is quarantined after repeated contained panics;
    /// sibling documents are unaffected
    /// ([`Gateway::lift_quarantine`] clears it).
    Quarantined,
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::ReadOnly => write!(f, "read-only"),
            DegradedReason::Halted => write!(f, "halted"),
            DegradedReason::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// Why a request was rejected. Every variant leaves the document exactly
/// as the previous commit left it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The request named a document the store does not hold.
    UnknownDocument,
    /// `updates[index]` did not apply (dead node, cycle-creating move,
    /// duplicate id); the already-applied prefix was unwound.
    FailedUpdate { index: usize, error: String },
    /// The batch applied but violates the document's suite; the whole
    /// batch was unwound.
    Violation { constraint: String, offenders: usize },
    /// The request handler panicked mid-session. The session's
    /// rollback-on-drop unwound the batch and the gateway kept serving —
    /// see the panic-containment discipline on
    /// [`Gateway::submit`](crate::Gateway::submit). The message is
    /// truncated to a fixed length so a panicking payload cannot bloat
    /// verdict logs unboundedly.
    Internal { error: String },
    /// The gateway (read-only after a fatal journal fault, or halted) or
    /// this document (quarantined) is degraded; the request was refused
    /// before evaluation. Reads keep serving in `ReadOnly` — see
    /// [`GatewayState`].
    Degraded { reason: DegradedReason },
    /// Admission control shed the request before evaluation: the
    /// per-shard queue overflowed, the request's deadline expired while
    /// queued, or a queued read was displaced to make room for a commit.
    Overloaded { cause: ShedCause },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Accepted { commit } => write!(f, "ACCEPT commit={commit}"),
            Verdict::Rejected(RejectReason::UnknownDocument) => {
                write!(f, "REJECT unknown document")
            }
            Verdict::Rejected(RejectReason::FailedUpdate { index, error }) => {
                write!(f, "REJECT update {index} failed: {error}")
            }
            Verdict::Rejected(RejectReason::Violation { constraint, offenders }) => {
                write!(f, "REJECT violates {constraint} ({offenders} offending nodes)")
            }
            Verdict::Rejected(RejectReason::Internal { error }) => {
                write!(f, "REJECT internal error: {error}")
            }
            Verdict::Rejected(RejectReason::Degraded { reason }) => {
                write!(f, "REJECT degraded: {reason}")
            }
            Verdict::Rejected(RejectReason::Overloaded { cause }) => {
                write!(f, "REJECT overloaded: {cause}")
            }
            Verdict::Served => write!(f, "READ ok"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_ids_are_cheap_names() {
        let a = DocId::new("mercy-west");
        let b: DocId = "mercy-west".into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "mercy-west");
        assert_ne!(a, DocId::new("seattle-grace"));
    }

    #[test]
    fn verdicts_render_stably() {
        assert_eq!(Verdict::Accepted { commit: 3 }.to_string(), "ACCEPT commit=3");
        assert!(Verdict::Accepted { commit: 3 }.is_accepted());
        let v = Verdict::Rejected(RejectReason::Violation {
            constraint: "(/a, ↑)".into(),
            offenders: 2,
        });
        assert_eq!(v.to_string(), "REJECT violates (/a, ↑) (2 offending nodes)");
        assert!(!v.is_accepted());
        let v = Verdict::Rejected(RejectReason::FailedUpdate {
            index: 1,
            error: "node n9 not found".into(),
        });
        assert_eq!(v.to_string(), "REJECT update 1 failed: node n9 not found");
        assert_eq!(
            Verdict::Rejected(RejectReason::UnknownDocument).to_string(),
            "REJECT unknown document"
        );
    }
}
