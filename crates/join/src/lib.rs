//! Window band-join operators.
//!
//! This crate implements every join algorithm evaluated by the paper:
//!
//! * [`nlwj`] — the single-threaded nested-loop window join baseline;
//! * [`index`] — the [`WindowIndex`] trait, implemented on the B+-Tree, the
//!   chained index, the IM-Tree, the PIM-Tree and the Bw-Tree-style index,
//!   and the probe and insert stages both index-based joins run over it;
//! * [`ibwj`] — single-threaded index-based window join, generic over the
//!   window index;
//! * [`handshake`] — multithreaded join based on round-robin
//!   (context-insensitive) window partitioning in the style of low-latency
//!   handshake join / SplitJoin (§2.2.3), with and without local indexes;
//! * [`parallel`] — the paper's contribution: the parallel shared-index IBWJ
//!   engine with dynamic task acquisition, edge-tuple tracking, ordered result
//!   propagation and non-blocking merges (§4), running on the lock-free
//!   MPMC task ring of [`ring`];
//! * [`ring`] — the fixed-capacity atomic-slot ring buffer distributing work
//!   between the engine's threads, plus the adaptive idle back-off;
//! * [`shard`] — the NUMA-aware sharded ring layer: per-node ring shards
//!   behind a key-range router (`pimtree-numa`'s `RangePartitioner`),
//!   home-shard claiming with bounded cross-shard work stealing, and a
//!   cross-shard merge cursor that keeps result propagation in global
//!   arrival order;
//! * [`store`] — the per-shard index/window store: with `partition_index`
//!   on, each shard owns one index plus one window slice per side covering
//!   only its key range; inserts route to the owning shard and probes fan
//!   out across exactly the shards overlapping the band-join range (one
//!   shard short-circuits to the original shared index/window pair);
//! * [`reference`](mod@reference) — a brute-force oracle used by the test suite to validate
//!   every operator's output;
//! * [`stats`] — run statistics shared by all operators, including the
//!   migration stall's per-cause split.
//!
//! The operators consume a pre-generated tuple sequence of both streams in
//! arrival order (see `pimtree-workload`) and produce band-join results in
//! arrival order.
//!
//! Result generation in both engines goes through the **batched CSS group
//! probe** (`PimTree::probe_batch`): a task's probe keys are sorted,
//! deduplicated and resolved by one software-prefetched level-wise descent
//! of the immutable index instead of one root-to-leaf walk per tuple; the
//! single-threaded operator's batch of one is the scalar descent.

#![warn(missing_docs)]

pub mod gate;
pub mod handshake;
pub mod ibwj;
pub mod index;
pub mod nlwj;
pub mod parallel;
pub mod reference;
pub mod ring;
pub mod shard;
pub mod stats;
pub mod store;

pub use gate::QuiesceGate;
pub use handshake::{HandshakeJoin, HandshakeMode};
pub use ibwj::{build_single_threaded, IbwjOperator, SingleThreadJoin};
pub use index::WindowIndex;
pub use nlwj::NlwjOperator;
pub use parallel::{ParallelIbwj, SharedIndexKind};
pub use reference::{canonical, reference_join};
pub use ring::{Backoff, ClaimedTask, IdleKind, TaskRing};
pub use shard::{ShardClaim, ShardIngestGuard, ShardedRing};
pub use stats::{
    EnginePhaseTimes, JoinRunStats, MigrationCounters, RingCounters, ShardCounters, StallBreakdown,
    StallCause, StoreCounters,
};
pub use store::{ShardStore, StoreShardFootprint, StoreSideFootprint};
