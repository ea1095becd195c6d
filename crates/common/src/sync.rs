//! Synchronization facade: the single import point for atomics, locks and
//! scheduling hints in every lock-free file of the engine.
//!
//! Normally these are zero-cost aliases for `std::sync::atomic` and
//! `parking_lot`. Under `RUSTFLAGS="--cfg pimtree_model"` they resolve to
//! the instrumented types of `pimtree_check` (a dependency of that build
//! only), so the *same* ring, shard cursor, quiesce gate and window code
//! runs under the deterministic model checker without modification. Code that participates in a lock-free
//! protocol must go through this module — `docs/ARCHITECTURE.md` documents
//! the audit, and `CONTRIBUTING.md` requires a model test for any new
//! atomic protocol added behind it.

/// Atomic cells and memory orderings.
pub mod atomic {
    #[cfg(not(pimtree_model))]
    pub use std::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(pimtree_model)]
    pub use pimtree_check::sync::atomic::{
        AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

#[cfg(not(pimtree_model))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(pimtree_model)]
pub use pimtree_check::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Scheduling hints for spin-wait loops. Under the model checker a yield
/// deprioritises the calling virtual thread so spin loops terminate in
/// every explored schedule; in production builds these are the standard
/// library calls.
pub mod hint {
    /// Yields the current thread (scheduler-visible under the model).
    pub fn yield_now() {
        #[cfg(not(pimtree_model))]
        std::thread::yield_now();
        #[cfg(pimtree_model)]
        pimtree_check::thread::yield_now();
    }

    /// Spin-loop pause hint (also scheduler-visible under the model).
    pub fn spin_loop() {
        #[cfg(not(pimtree_model))]
        std::hint::spin_loop();
        #[cfg(pimtree_model)]
        pimtree_check::hint::spin_loop();
    }
}
