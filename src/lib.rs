//! # Reasoning about XML update constraints
//!
//! A Rust reproduction of *Cautis, Abiteboul, Milo — "Reasoning about XML
//! update constraints"* (PODS 2007; JCSS 75(6), 2009): the update
//! constraint language `(q, σ)` over the XPath fragment `XP{/,[],//,*}`,
//! validity of instance pairs, and the general and instance-based
//! implication problems with the decision procedures of Sections 4–5.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xtree`] | `xuc-xtree` | unordered data trees, node identity, updates |
//! | [`xpath`] | `xuc-xpath` | tree patterns: parse, evaluate, containment, intersection |
//! | [`automata`] | `xuc-automata` | NFA/DFA substrate for linear queries |
//! | [`core`] | `xuc-core` | constraints, validity, implication deciders |
//! | [`xic`] | `xuc-xic` | XML integrity constraints + chase (Section 3.3) |
//! | [`regular`] | `xuc-regular` | DTDs + unary regular keys, Theorem 4.2 reduction |
//! | [`sigstore`] | `xuc-sigstore` | simulated signature enforcement (Figure 1), hash-linked certificate chains |
//! | [`service`] | `xuc-service` | the Figure 1 gateway as a service: store, sessions, suite cache, worker pool, journal + crash recovery, degraded modes, admission queues |
//! | [`persist`] | `xuc-persist` | durability mechanisms: WAL framing, snapshots, binary codec, transient-IO retry |
//! | [`telemetry`] | `xuc-telemetry` | deterministic metrics registry, bounded trace ring, commit stage attribution |
//! | [`workloads`] | `xuc-workloads` | generators, 3CNF gadgets, paper figures |
//!
//! ## Quickstart
//!
//! ```
//! use xml_update_constraints::prelude::*;
//!
//! // Example 2.1: the hospital document evolves.
//! let before = parse_term("h(patient#1(visit#2,visit#3))").unwrap();
//! let mut after = before.clone();
//! after.delete_subtree(NodeId::from_raw(3)).unwrap();
//!
//! let c3 = parse_constraint("(/patient/visit, ↑)").unwrap();
//! assert!(!c3.satisfied_by(&before, &after)); // a visit was removed
//!
//! // Section 2.1: {c1, c2} ⊨ (/patient[/visit][/clinicalTrial], ↓).
//! let set = vec![
//!     parse_constraint("(/patient[/visit], ↓)").unwrap(),
//!     parse_constraint("(/patient[/clinicalTrial], ↓)").unwrap(),
//!     parse_constraint("(/patient[/clinicalTrial], ↑)").unwrap(),
//! ];
//! let goal = parse_constraint("(/patient[/visit][/clinicalTrial], ↓)").unwrap();
//! assert!(implies(&set, &goal).is_implied());
//! ```

pub use xuc_automata as automata;
pub use xuc_core as core;
pub use xuc_persist as persist;
pub use xuc_regular as regular;
pub use xuc_service as service;
pub use xuc_sigstore as sigstore;
pub use xuc_telemetry as telemetry;
pub use xuc_workloads as workloads;
pub use xuc_xic as xic;
pub use xuc_xpath as xpath;
pub use xuc_xtree as xtree;

/// The most common imports in one place.
pub mod prelude {
    pub use xuc_automata::{CompiledPatternSet, PatternSetCompiler};
    pub use xuc_core::implication::search::{
        find_counterexample, find_counterexample_sharded, find_counterexample_with_stats,
        SearchStats,
    };
    pub use xuc_core::{
        implies, implies_on, implies_on_with, implies_with, parse_constraint, Constraint,
        ConstraintKind, CounterExample, ImplicationConfig, InstanceCounterExample, Outcome,
        RelativeConstraint,
    };
    pub use xuc_service::{
        admit_delta_in_place, plan_admission, render_arrival_log, render_log, Arrival,
        DegradedReason, DocId, DocumentStore, DurableOptions, Gateway, GatewayState, LoadOptions,
        LoadReport, RecoverError, RejectReason, Request, ResumeError, RetryPolicy, Session,
        ShedCause, SuiteCache, Verdict,
    };
    pub use xuc_sigstore::{Certificate, Signer};
    pub use xuc_telemetry::{
        Determinism, MetricsRegistry, MetricsSnapshot, RecordInto, Stage, Telemetry, TraceEvent,
        TraceRing,
    };
    pub use xuc_xpath::{
        eval::eval, eval::eval_at, parse as parse_query, Evaluator, Pattern, SpliceJournal,
    };
    pub use xuc_xtree::{
        apply_all, apply_undoable, parse_term, undo, DataTree, DirtyRegion, EditScope, IdSwap,
        Label, NodeId, NodeRef, Update,
    };
}
