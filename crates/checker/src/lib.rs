//! `pimtree-check`: a loom-style deterministic model checker for the
//! engine's hand-rolled atomic protocols.
//!
//! crates.io (and hence `loom`) is unreachable in this build environment,
//! yet the engine's correctness rests on four lock-free protocols — the
//! MPMC ticket ring, the cross-shard arrival-stamp merge cursor, the
//! migration quiesce gate, and the migration epoch's owner swap — that
//! stress tests on a 1-core container cannot meaningfully exercise. This
//! crate explores their interleavings *exhaustively* (for small bounded
//! executions) instead of probabilistically.
//!
//! # How it works
//!
//! Test code builds its shared state inside a [`model`] closure using this
//! crate's [`sync`] atomics/locks and [`thread::spawn`]. Every visible
//! operation becomes a schedule point; a DFS explorer with bounded
//! preemptions re-runs the closure once per distinct schedule, and a
//! simplified C11 memory model lets relaxed loads return *every* legal
//! visible value, each as its own branch. Any panic (assertion failure,
//! deadlock, livelock) aborts the execution and is reported with the full
//! operation trace and a seed that [`Builder::replay`] reproduces exactly.
//!
//! In production builds `pimtree-common::sync` aliases the standard
//! types; under `RUSTFLAGS="--cfg pimtree_model"` it aliases this crate's
//! instrumented types, so the *real* ring/shard/gate code runs under the
//! checker unmodified.
//!
//! # What it models — and what it does not
//!
//! Modeled: per-location modification order, acquire/release vector-clock
//! edges, relaxed-load visible-value sets, read coherence, release
//! sequences through RMWs, `SeqCst` store-then-load (Dekker) ordering,
//! mutex/rwlock handoff edges, spawn/join edges, deadlock and livelock
//! detection.
//!
//! Simplifications (see `rt` module docs): bounded threads and
//! preemptions, no load speculation, no spurious `compare_exchange_weak`
//! failures, `SeqCst` approximated per-location, no fences. These bound
//! the search space; they can hide bugs that need unbounded reordering,
//! but every schedule the checker *does* report is a real C11 execution.

mod clock;
mod rt;
pub mod sync;
pub mod thread;

pub use rt::{model, Builder, Failure, Report};

/// Spin-loop hints that deprioritise the calling model thread.
pub mod hint {
    /// Inside a model execution this is a scheduler yield (so spin-wait
    /// loops terminate in every explored schedule); outside it falls back
    /// to [`std::hint::spin_loop`].
    pub fn spin_loop() {
        if crate::rt::with_ctx(|_| ()).is_some() {
            crate::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}
