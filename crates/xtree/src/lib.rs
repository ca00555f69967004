//! Unordered XML data-tree model for reasoning about update constraints.
//!
//! This crate implements the data model of Section 2 of *Cautis, Abiteboul,
//! Milo — "Reasoning about XML update constraints"* (PODS 2007 / JCSS 2009):
//! an (unordered) data tree is a finite tree whose nodes carry both a
//! **globally unique identifier** from an infinite domain `N` and a **label**
//! from an infinite domain `L`. A node is the pair *(id, label)*; node
//! identity is preserved across updates, which is what makes "the set of
//! selected nodes can only grow / shrink" meaningful.
//!
//! The crate provides:
//! * [`Label`] — interned labels with O(1) equality ([`label`]),
//! * [`NodeId`] — globally unique node identifiers ([`node`]),
//! * [`DataTree`] — an arena-backed unordered tree ([`tree`]),
//! * [`Update`] — the update operations of Tatarinov et al. (insert, delete,
//!   move, relabel) used by the paper to abstract document evolution
//!   ([`update`]),
//! * [`DirtyRegion`] — the union of a batch's edit scopes as disjoint dirty
//!   subtrees plus pinpoint relabel/id-swap patches, for edit-proportional
//!   delta evaluation ([`dirty`]),
//! * a compact term syntax for building trees in tests and examples
//!   ([`term`]).

pub mod dirty;
pub mod label;
pub mod node;
pub mod term;
pub mod tree;
pub mod update;

pub use dirty::{DirtyRegion, IdSwap};
pub use label::Label;
pub use node::NodeId;
pub use term::{parse_term, to_term};
pub use tree::{
    note_preorder_walk, preorder_walk_count, ChildIds, DataTree, DetachToken, NodeRef, Slots,
    SpliceToken, TreeError,
};
pub use update::{
    apply_all, apply_undoable, apply_update, release, undo, EditScope, Undo, Update, UpdateError,
};
