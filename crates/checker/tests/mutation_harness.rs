//! Mutation harness: checker-only test doubles of the engine's three atomic
//! protocols, each in a *correct* variant (must pass exhaustive exploration)
//! and a *weakened* variant seeding the exact bug class the real code's
//! orderings exist to prevent (must be caught, with a printed failing
//! schedule). This is the evidence that the model tests in `ring_model.rs`,
//! `shard_model.rs` and `gate_model.rs` are load-bearing: the checker
//! demonstrably detects the violations those orderings rule out.
//!
//! The doubles mirror the shapes in the real code:
//!
//! * **ring publish** — `ring.rs` `complete()` stores the result count with
//!   `Relaxed` and publishes `COMPLETED` with `Release`; `drain_one()` pairs
//!   it with an `Acquire` state load. Weakening the publish to `Relaxed`
//!   lets the drainer read a stale result count (a torn slot).
//! * **shard stamp** — `shard.rs` `push_unguarded()` stores the arrival
//!   stamp with `Relaxed` ordered by the ring's `Release` tail publish; the
//!   merge cursor pairs it with an `Acquire` tail load. Weakening the tail
//!   publish lets the cursor peek a stale stamp and drain out of global
//!   arrival order.
//! * **quiesce gate** — `gate.rs` `try_enter()` must *re-check* `closed`
//!   (SeqCst) after raising `in_flight` (SeqCst), the Dekker handshake.
//!   Dropping the re-check, or weakening the closed load to `Relaxed`, lets
//!   a claim survive the gate and mutate state inside the quiesced window.
//!
//! The harness uses `pimtree_check::sync` types directly, so it runs (and
//! the seeded mutants are caught) in **both** the normal and the
//! `--cfg pimtree_model` configuration of the test suite.

use std::sync::Arc;

use pimtree_check::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use pimtree_check::{thread, Builder, Failure};

// ------------------------------------------------------------------ ring

const COMPLETED: u8 = 2;
const PAYLOAD: u64 = 7;

/// Double of the ring slot completion/drain pair. `publish` is the ordering
/// of the `COMPLETED` state store — `Release` in `ring.rs`.
fn ring_publish_double(publish: Ordering) {
    let state = Arc::new(AtomicU8::new(0));
    let payload = Arc::new(AtomicU64::new(0));

    let completer = {
        let (state, payload) = (Arc::clone(&state), Arc::clone(&payload));
        thread::spawn(move || {
            payload.store(PAYLOAD, Ordering::Relaxed); // result_count
            state.store(COMPLETED, publish);
        })
    };

    // drain_one: Acquire state check, then the Relaxed payload read it
    // orders.
    while state.load(Ordering::Acquire) != COMPLETED {
        thread::yield_now();
    }
    let seen = payload.load(Ordering::Relaxed);
    assert_eq!(seen, PAYLOAD, "drained a torn slot: result count {seen}");
    completer.join().unwrap();
}

#[test]
fn ring_publish_release_passes_exhaustively() {
    let report = Builder::default()
        .check_report(|| ring_publish_double(Ordering::Release))
        .expect("the real ring publish protocol must verify");
    assert!(report.schedules > 1, "exploration must branch");
    assert!(
        report.complete,
        "exploration must exhaust the 2-thread model"
    );
}

#[test]
fn ring_publish_relaxed_mutant_is_caught() {
    let failure = Builder::default()
        .check_report(|| ring_publish_double(Ordering::Relaxed))
        .expect_err("weakened COMPLETED publish must be caught");
    assert!(failure.message.contains("torn slot"));
    print_caught("ring COMPLETED publish Release→Relaxed", &failure);
}

// ----------------------------------------------------------------- shard

const STAMP: u64 = 5;

/// Double of the shard push / merge-cursor peek pair. `publish` is the
/// ordering of the ring tail store that orders the stamp — `Release` in
/// `shard.rs`/`ring.rs`.
fn shard_stamp_double(publish: Ordering) {
    let arrival = Arc::new(AtomicU64::new(0));
    let tail = Arc::new(AtomicU64::new(0));

    let pusher = {
        let (arrival, tail) = (Arc::clone(&arrival), Arc::clone(&tail));
        thread::spawn(move || {
            arrival.store(STAMP, Ordering::Relaxed); // slot arrival stamp
            tail.store(1, publish); // ring tail publish
        })
    };

    // Merge cursor: Acquire frontier/tail load, then the stamp peek.
    while tail.load(Ordering::Acquire) != 1 {
        thread::yield_now();
    }
    let stamp = arrival.load(Ordering::Relaxed);
    assert_eq!(
        stamp, STAMP,
        "merge cursor peeked stale stamp {stamp}: would drain out of arrival order"
    );
    pusher.join().unwrap();
}

#[test]
fn shard_stamp_release_passes_exhaustively() {
    let report = Builder::default()
        .check_report(|| shard_stamp_double(Ordering::Release))
        .expect("the real shard stamp protocol must verify");
    assert!(report.schedules > 1);
    assert!(report.complete);
}

#[test]
fn shard_stamp_relaxed_mutant_is_caught() {
    let failure = Builder::default()
        .check_report(|| shard_stamp_double(Ordering::Relaxed))
        .expect_err("weakened tail publish must be caught");
    assert!(failure.message.contains("stale stamp"));
    print_caught("shard tail publish Release→Relaxed", &failure);
}

// ------------------------------------------------------------------ gate

/// Double of `QuiesceGate`. `recheck` drops the Dekker re-check of `closed`
/// when `false`; `gate_load` weakens its ordering.
fn gate_double(recheck: bool, gate_load: Ordering) {
    let closed = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let dirty = Arc::new(AtomicU64::new(0));

    let worker = {
        let (closed, in_flight) = (Arc::clone(&closed), Arc::clone(&in_flight));
        let dirty = Arc::clone(&dirty);
        thread::spawn(move || {
            // try_enter
            in_flight.fetch_add(1, Ordering::SeqCst);
            if recheck && closed.load(gate_load) {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            dirty.fetch_add(1, Ordering::Relaxed); // the guarded mutation
            in_flight.fetch_sub(1, Ordering::SeqCst); // exit
        })
    };

    // close + await_quiesce
    closed.store(true, Ordering::SeqCst);
    while in_flight.load(Ordering::SeqCst) != 0 {
        thread::yield_now();
    }
    // The maintenance window: gated state must be frozen.
    let before = dirty.load(Ordering::Relaxed);
    thread::yield_now();
    let after = dirty.load(Ordering::Relaxed);
    assert_eq!(before, after, "a claim survived the gate");
    closed.store(false, Ordering::SeqCst);
    worker.join().unwrap();
}

#[test]
fn gate_dekker_handshake_passes_exhaustively() {
    let report = Builder::default()
        .check_report(|| gate_double(true, Ordering::SeqCst))
        .expect("the real quiesce gate protocol must verify");
    assert!(report.schedules > 1);
    assert!(report.complete);
}

#[test]
fn gate_dropped_recheck_mutant_is_caught() {
    let failure = Builder::default()
        .check_report(|| gate_double(false, Ordering::SeqCst))
        .expect_err("dropping the closed re-check must be caught");
    assert!(failure.message.contains("survived the gate"));
    print_caught("gate closed re-check dropped", &failure);
}

#[test]
fn gate_relaxed_load_mutant_is_caught() {
    let failure = Builder::default()
        .check_report(|| gate_double(true, Ordering::Relaxed))
        .expect_err("weakening the closed load must be caught");
    assert!(failure.message.contains("survived the gate"));
    print_caught("gate closed load SeqCst→Relaxed", &failure);
}

// ---------------------------------------------------------------- replay

/// Satellite: deterministic replay. A recorded failing seed reproduces the
/// *same* violation with a byte-for-byte identical trace across two
/// independent replay runs.
#[test]
fn recorded_seed_replays_byte_identical() {
    let failure = Builder::default()
        .check_report(|| ring_publish_double(Ordering::Relaxed))
        .expect_err("mutant must fail");

    let one = Builder::default()
        .replay(&failure.seed, || ring_publish_double(Ordering::Relaxed))
        .expect_err("replaying the failing seed must fail again");
    let two = Builder::default()
        .replay(&failure.seed, || ring_publish_double(Ordering::Relaxed))
        .expect_err("replaying the failing seed must fail again");

    assert_eq!(one.message, failure.message);
    assert_eq!(one.seed, failure.seed);
    assert_eq!(one.trace, failure.trace, "replay diverged from recording");
    assert_eq!(
        format!("{one}"),
        format!("{two}"),
        "two replays of the same seed diverged"
    );
}

/// Prints the caught mutation's failing schedule (visible with
/// `--nocapture`; always part of the test's captured output).
fn print_caught(mutation: &str, failure: &Failure) {
    assert!(!failure.seed.is_empty(), "failure must carry a seed");
    assert!(!failure.trace.is_empty(), "failure must carry a trace");
    println!("caught seeded mutation [{mutation}]:\n{failure}");
}
