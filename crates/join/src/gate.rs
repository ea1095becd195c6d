//! The migration quiesce gate: the Dekker-style handshake that stops task
//! acquisition before a merge phase transition or repartition mutates shared
//! index structures.
//!
//! # Protocol
//!
//! Workers bracket every task with [`QuiesceGate::try_enter`] /
//! [`QuiesceGate::exit`]; a phase transition calls [`QuiesceGate::close`]
//! followed by [`QuiesceGate::await_quiesce`] and reopens with
//! [`QuiesceGate::open`] once the mutation is done.
//!
//! The handshake is a store-then-load on both sides, and both sides are
//! `SeqCst`, which is what makes it race-free:
//!
//! * the worker *increments `in_flight`, then loads the gate*;
//! * the closer *stores the gate, then loads `in_flight`*.
//!
//! In every interleaving the closer either observes the worker's increment
//! and waits for it to drain, or the worker observes the closed gate and
//! backs out — a claim can never slip past a closing gate unnoticed. With
//! any weaker ordering both loads may read stale values (both sides pass),
//! and a worker keeps mutating the index mid-migration. The model test
//! `checker/tests/gate_model.rs` pins exactly this property, and the
//! mutation harness (`checker/tests/mutation_harness.rs`) proves the
//! checker catches the skipped-gate-check variant.

use pimtree_common::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Close-and-drain gate guarding task acquisition against concurrent
/// structural mutation. See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct QuiesceGate {
    /// Blocks new task acquisition while a phase transition is pending.
    closed: AtomicBool,
    /// Number of tasks currently being processed (entered, not yet done with
    /// their index updates) — transiently also counts entry attempts, which
    /// is what makes the handshake race-free.
    in_flight: AtomicUsize,
}

impl QuiesceGate {
    /// An open gate with nothing in flight.
    pub fn new() -> Self {
        QuiesceGate {
            closed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Announces a task attempt and checks the gate. Returns `true` with the
    /// in-flight count held (the caller must [`Self::exit`] when the task is
    /// done); on `false` the attempt has already been withdrawn.
    ///
    /// The increment *must* precede the gate load, and both must be
    /// `SeqCst`: this store-then-load against [`Self::close`]'s opposite
    /// store-then-load is the whole protocol.
    pub fn try_enter(&self) -> bool {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Retires a task previously admitted by [`Self::try_enter`].
    pub fn exit(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Closes the gate: subsequent [`Self::try_enter`] calls fail until
    /// [`Self::open`]. Does not wait for in-flight tasks — pair with
    /// [`Self::await_quiesce`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Spins until every admitted task has exited. With the gate closed, no
    /// new task can be admitted, so quiescence is stable until [`Self::open`].
    pub fn await_quiesce(&self) {
        self.await_quiesce_unless(|| false);
    }

    /// [`Self::await_quiesce`] that gives up once `abandon()` holds: a task
    /// whose worker died keeps its admission forever, and the waiter must
    /// not. Returns whether the gate quiesced.
    pub fn await_quiesce_unless(&self, abandon: impl Fn() -> bool) -> bool {
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            if abandon() {
                return false;
            }
            pimtree_common::sync::hint::yield_now();
        }
        true
    }

    /// Reopens the gate.
    pub fn open(&self) {
        self.closed.store(false, Ordering::SeqCst);
    }
}
