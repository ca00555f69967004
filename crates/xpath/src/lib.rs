//! Tree-pattern queries in the XPath fragment `XP{/,[],//,*}`.
//!
//! This crate implements the query language of Section 2 of *Cautis,
//! Abiteboul, Milo — "Reasoning about XML update constraints"*:
//!
//! ```text
//! path ::= /step | //step | path path
//! step ::= label pred
//! pred ::= ε | [path] pred
//! label ::= L | *
//! ```
//!
//! Queries are *unary tree patterns*: a spine from the document root to a
//! distinguished output node, with predicate subtrees hanging off spine (and
//! predicate) nodes. The crate provides:
//!
//! * [`Pattern`] — the arena AST with builder API ([`pattern`]),
//! * [`parse`] — a parser for the grammar above ([`parser`]),
//! * [`eval()`](eval()) — PTIME evaluation on [`xuc_xtree::DataTree`]s ([`mod@eval`]),
//!   plus a naive exponential oracle in [`naive`],
//! * [`Evaluator`] — the reusable bitset engine behind [`eval()`](eval()): it
//!   owns the `DataTree` it evaluates, amortizes it across many pattern
//!   evaluations and follows the edits made through it ([`engine`]), with
//!   a set-at-a-time batch path ([`Evaluator::eval_set`]) driven by a
//!   compiled [`PatternSetAutomaton`] (compiler in `xuc_automata`),
//! * containment / equivalence via homomorphisms (sound, PTIME) and
//!   canonical models (complete, coNP) ([`containment`], [`canonical`]),
//! * intersection for `XP{/,[],*}` ([`intersect`]) as used by Theorem 4.4,
//! * fragment classification ([`fragment`]),
//! * stable canonical fingerprints of patterns and suites
//!   ([`fingerprint`]) — memoization keys and dedup.

pub mod canonical;
pub mod containment;
pub mod engine;
pub mod eval;
pub mod fingerprint;
pub mod fragment;
pub mod intersect;
pub mod naive;
pub mod parser;
pub mod pattern;
pub mod stats;

pub use containment::{contains, equivalent, homomorphism_exists};
pub use engine::{Evaluator, PatternSetAutomaton, SpliceJournal};
pub use eval::{eval, eval_at};
pub use fingerprint::{suite_fingerprint, Fingerprinter};
pub use fragment::Features;
pub use intersect::intersect_all;
pub use parser::{parse, ParseError};
pub use pattern::{Axis, NodeTest, PIdx, Pattern, PatternBuilder};
pub use stats::{engine_counters, EngineCounters};
