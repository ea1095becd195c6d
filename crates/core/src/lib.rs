//! IM-Tree and PIM-Tree: the paper's two-stage sliding-window indexes.
//!
//! Both structures combine
//!
//! * a **mutable component** `TI` (a classic B+-Tree in the IM-Tree, one
//!   short sorted run per partition in the PIM-Tree) that absorbs every newly
//!   arrived tuple, and
//! * an **immutable component** `TS` (a CSS-Tree) that holds the bulk of the
//!   window and is only ever rebuilt wholesale,
//!
//! with a periodic **merge**: when `TI` reaches `m · w` tuples (merge ratio
//! `m`, window size `w`), the live tuples of `TS` and `TI` are combined into a
//! fresh `TS` and the mutable component is reset. Expired tuples are never
//! deleted individually — they are filtered during lookups and dropped in bulk
//! by the merge, which is the coarse-grained disposal that gives the design
//! its update efficiency (§3.2).
//!
//! The [`PimTree`] extends the [`ImTree`] by splitting `TI` into one
//! partition per inner node of `TS` at the *insertion depth* `DI`. Each
//! partition has its own lock, `TS` is immutable and therefore read without
//! any synchronisation, and the partition ranges adapt to the data
//! distribution at every merge (§3.3). A partition holds a few dozen entries
//! between merges, so it is a sorted array rather than the paper's
//! sub-B+-Tree, and becomes one only when skew makes it outgrow a fixed
//! length (see `pim.rs`).
//!
//! Merge execution comes in two flavours (§4.2): a simple blocking merge, and
//! the non-blocking [`PimTree::merge_concurrent`], which takes inserts and
//! probes while it builds the next `TS` (the parallel join engine in the
//! `pimtree-join` crate calls it).

pub mod footprint;
pub mod im;
pub mod merge;
pub mod pim;

pub use footprint::PimFootprint;
pub use im::ImTree;
pub use merge::MergeReport;
pub use pim::PimTree;
