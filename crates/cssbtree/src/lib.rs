//! The immutable B+-Tree (CSS-Tree) used as the search-efficient component
//! `TS` of the IM-Tree and PIM-Tree.
//!
//! Nodes are arranged in a breadth-first array: given a node's position, the
//! positions of its children are computed implicitly, so inner nodes store
//! only keys and no child references (§3.1 and Appendix A.3 of the paper).
//! Compared to the pointer-based B+-Tree this yields a higher effective
//! fan-out, a shallower tree and faster lookups — at the price of the tree
//! being immutable: it is rebuilt wholesale by the periodic merge.
//!
//! The structure is completely read-only after construction, which is what
//! makes `TS` traversal lock-free in the PIM-Tree: concurrent readers share an
//! `Arc<CssTree>` and the merge installs a fresh tree by swapping the `Arc`.
//!
//! The breadth-first layout has a second payoff beyond fan-out: because child
//! positions are arithmetic, a *group* of lookups can descend level by level
//! with every next-level node known — and software-prefetched — before it is
//! touched. [`tree::CssTree::lower_bound_batch`] implements that batched
//! group descent, which the join engines use to resolve a whole task's probe
//! starts at once; each answer is then one slice of the leaf array
//! ([`tree::CssTree::run_from`]).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod build;
pub mod tree;

pub use build::CssBuilder;
pub use tree::{CssStats, CssTree};

/// Default number of keys (= children) per inner node.
pub const DEFAULT_FANOUT: usize = 32;

/// Default number of entries per leaf group.
pub const DEFAULT_LEAF_SIZE: usize = 32;
