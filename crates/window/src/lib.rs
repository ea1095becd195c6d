//! Sliding windows over data streams.
//!
//! The paper's join operates on count-based sliding windows (§2.1): the window
//! of stream `R` contains the last `w` tuples that arrived on `R`. During a
//! *parallel* join the window has to keep slightly more than `w` tuples alive,
//! because in-flight tasks of the opposite stream still reference tuples that
//! have logically expired (§4.1). This crate provides:
//!
//! * [`SlidingWindow`] — a concurrent, count-based ring buffer with per-slot
//!   *indexed* flags, an *edge tuple* (the earliest non-indexed tuple) and
//!   linear scanning of the non-indexed suffix;
//! * [`WindowBounds`] — the `(te, tl)` boundary snapshot a worker records when
//!   it acquires a task;
//! * [`ShardWindow`] — one shard's *slice* of a sliding window (the sparse
//!   `(seq, key)` subsequence routed to the shard) for the partitioned index
//!   store, with a shard-local edge tuple and an eager-expiry cursor.

pub mod bounds;
pub mod count;
pub mod sparse;

pub use bounds::WindowBounds;
pub use count::SlidingWindow;
pub use sparse::ShardWindow;
