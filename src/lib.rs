//! # pimtree — Parallel Index-based Stream Join on a Multicore CPU
//!
//! A from-scratch Rust reproduction of *"Parallel Index-based Stream Join on a
//! Multicore CPU"* (Shahvarani & Jacobsen): the **PIM-Tree** two-stage
//! partitioned sliding-window index and the **parallel index-based window
//! join** built on top of it, together with every baseline the paper
//! evaluates against (B+-Tree, chained index, round-robin / handshake
//! partitioning, a Bw-Tree-style concurrent index) and a benchmark harness
//! that regenerates each figure of the evaluation.
//!
//! This facade crate re-exports the workspace's public API under one roof so
//! applications can depend on a single crate:
//!
//! ```
//! use pimtree::prelude::*;
//!
//! // A tiny band join between two streams, driven single-threaded.
//! let config = JoinConfig::symmetric(1 << 10, IndexKind::PimTree);
//! let mut op = build_single_threaded(&config, BandPredicate::new(2), false);
//! let mut out = Vec::new();
//! op.process(Tuple::r(0, 100), Some(&mut out));
//! let matches = op.process(Tuple::s(0, 101), Some(&mut out));
//! assert_eq!((matches, out.len()), (1, 1), "|100 - 101| <= 2 matches");
//! // Without a result vector the operator only counts.
//! assert_eq!(op.process(Tuple::r(1, 99), None), 1);
//! ```
//!
//! The individual subsystems remain available as their own crates
//! (`pimtree-core`, `pimtree-join`, …); see `README.md` for the crate map
//! and `docs/ARCHITECTURE.md` for how a tuple flows through the system.

pub use pimtree_btree as btree;
pub use pimtree_bwtree as bwtree;
pub use pimtree_chained as chained;
pub use pimtree_common as common;
pub use pimtree_core as core;
pub use pimtree_css as css;
pub use pimtree_join as join;
pub use pimtree_model as model;
pub use pimtree_numa as numa;
pub use pimtree_window as window;
pub use pimtree_workload as workload;

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use pimtree_btree::{BTreeIndex, Entry};
    pub use pimtree_common::{
        BandPredicate, IndexKind, JoinConfig, JoinResult, Key, KeyRange, MergePolicy, PimConfig,
        ProbeCounters, Seq, ShardConfig, StreamSide, Tuple,
    };
    pub use pimtree_core::{ImTree, PimTree};
    pub use pimtree_css::CssTree;
    pub use pimtree_join::{
        build_single_threaded, HandshakeJoin, HandshakeMode, IbwjOperator, JoinRunStats,
        NlwjOperator, ParallelIbwj, SharedIndexKind, SingleThreadJoin,
    };
    pub use pimtree_numa::{DriftMonitor, RangePartitioner};
    pub use pimtree_window::SlidingWindow;
    pub use pimtree_workload::{
        calibrate_diff, KeyDistribution, ShiftingGaussian, StreamGenerator, StreamMix,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let pim = PimTree::new(PimConfig::for_window(128));
        pim.insert(5, 0);
        assert_eq!(pim.len(), 1);
        let window = SlidingWindow::with_default_slack(16);
        assert_eq!(window.window_size(), 16);
        let _ = KeyDistribution::uniform();
    }
}
