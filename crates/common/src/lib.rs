//! Shared building blocks for the PIM-Tree stream-join reproduction.
//!
//! This crate contains the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`types`] — keys, stream tuples, the band-join predicate and join results;
//! * [`config`] — runtime configuration for indexes and join operators;
//! * [`metrics`] — per-step cost breakdowns and the latency histogram (used
//!   to reproduce Figure 9b and Figure 10d of the paper);
//! * [`memtraffic`] — logical load/store byte accounting, the software
//!   substitute for the hardware memory-bandwidth counters of Figure 11d;
//! * [`simd`] — runtime-detected SIMD lower-bound kernels for intra-node
//!   search, with a guaranteed scalar fallback;
//! * [`sync`] — the synchronization facade every lock-free file imports:
//!   standard atomics and `parking_lot` locks normally, the `pimtree-check`
//!   model checker's instrumented types under `--cfg pimtree_model`;
//! * [`error`] — the shared error type.
//!
//! The paper this workspace reproduces is *"Parallel Index-based Stream Join on
//! a Multicore CPU"* (Shahvarani & Jacobsen, SIGMOD 2020).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod error;
pub mod memtraffic;
pub mod metrics;
pub mod prefetch;
pub mod simd;
pub mod sync;
pub mod types;

pub use config::{
    DriftConfig, IndexKind, JoinConfig, MergePolicy, PimConfig, RingConfig, ShardConfig,
};
pub use error::{Error, Result};
pub use memtraffic::MemTraffic;
pub use metrics::{CostBreakdown, LatencyHistogram, ProbeCounters, Step, StepTimer};
pub use prefetch::{
    prefetch_range, prefetch_read, prefetch_slice, prefetch_write, CACHE_LINE_BYTES,
};
pub use types::{BandPredicate, JoinResult, Key, KeyRange, Seq, StreamSide, Tuple};
