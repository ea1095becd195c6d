//! Lock-free MPMC task ring for the parallel join engine.
//!
//! The ring replaces the engine's original `Mutex<VecDeque>` work queue: every
//! coordination point — ingestion, task acquisition, result publication and
//! in-order propagation — is a handful of atomic operations on a fixed array
//! of slots, so no worker ever blocks behind another worker's critical
//! section.
//!
//! # Slot life cycle
//!
//! Each slot moves through four states, always in this order:
//!
//! ```text
//! Empty ──ingest──▶ Ingested ──claim──▶ Active ──publish──▶ Completed ──drain──▶ Empty
//! ```
//!
//! Slots are addressed by a monotonically increasing *global id* (`gid`); slot
//! `gid` lives at array index `gid & (capacity - 1)`, so ids double as
//! wraparound-free positions and the state field disambiguates laps.
//!
//! # Roles and their synchronisation
//!
//! * **Ingest** is serialised by a try-lock *ingest token*: whichever worker
//!   wins the token batch-fills empty slots at `tail` and publishes them with
//!   a release store of the slot state followed by a release store of `tail`.
//!   Workers that lose the token simply skip ingestion — a supplier already
//!   exists.
//! * **Acquisition** is a bounded ticket claim: workers advance `next_claim`
//!   towards `tail` with a CAS loop, claiming up to `task_size` consecutive
//!   ids per attempt. A successful CAS transfers exclusive ownership of the
//!   claimed slots; failed attempts retry against the observed value, so the
//!   loop is lock-free (some worker always makes progress).
//! * **Publication** needs no shared counter at all: the owning worker writes
//!   the slot's results and releases them with a single store of the slot
//!   state to `Completed`.
//! * **Propagation** is serialised by a try-lock *drain token*: the winner
//!   advances the `head` cursor over the completed prefix, emitting each
//!   slot's results in arrival order and recycling the slot to `Empty`.
//!   Losers go back to useful work — exactly the paper's test-and-set
//!   propagation scheme, minus the queue mutex it used to guard.
//!
//! # Invariants
//!
//! * `head <= next_claim <= tail` and `tail - head <= capacity`.
//! * Slot `gid` is written by at most one thread at any instant: the ingest
//!   token holder while `Empty`, the claiming worker between `Ingested` and
//!   `Completed`, the drain token holder while recycling.
//! * `tail` is written only under the ingest token, `head` only under the
//!   drain token; both are read lock-free by everyone.
//! * Results leave the ring in `gid` order — the drain cursor never skips a
//!   slot, so arrival-order propagation is structural, not scheduled.

use crossbeam::utils::CachePadded;
use pimtree_common::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use pimtree_common::sync::Mutex;
use pimtree_common::{JoinResult, StreamSide, Tuple};
use pimtree_window::WindowBounds;

use crate::stats::RingCounters;

const EMPTY: u8 = 0;
const INGESTED: u8 = 1;
const ACTIVE: u8 = 2;
const COMPLETED: u8 = 3;

/// One ring slot. All scalar fields are plain atomics written with relaxed
/// ordering and published/consumed through the `state` field's release/acquire
/// pair, so the whole structure is safe Rust with no `UnsafeCell`.
struct Slot {
    state: AtomicU8,
    side: AtomicU8,
    seq: AtomicU64,
    key: AtomicI64,
    bound_earliest: AtomicU64,
    bound_latest: AtomicU64,
    result_count: AtomicU64,
    /// Global arrival stamp of the ingested tuple. Within a single ring it
    /// equals the slot's gid; under the sharded engine it is the position in
    /// the *global* arrival order, which the cross-shard merge cursor uses to
    /// merge per-shard drains back into one ordered stream.
    arrival: AtomicU64,
    /// Collected matches; only touched when result collection is enabled
    /// (tests), and then only by the slot's current owner, so the mutex is
    /// uncontended by construction.
    results: Mutex<Vec<JoinResult>>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(EMPTY),
            side: AtomicU8::new(0),
            seq: AtomicU64::new(0),
            key: AtomicI64::new(0),
            bound_earliest: AtomicU64::new(0),
            bound_latest: AtomicU64::new(0),
            result_count: AtomicU64::new(0),
            arrival: AtomicU64::new(0),
            results: Mutex::new(Vec::new()),
        }
    }
}

/// A tuple claimed from the ring together with its slot id and the opposite
/// window's boundary snapshot captured at ingestion.
#[derive(Debug, Clone, Copy)]
pub struct ClaimedTask {
    /// Global slot id of the claim; passed back to [`TaskRing::complete`].
    pub gid: u64,
    /// The claimed tuple.
    pub tuple: Tuple,
    /// Boundary snapshot of the opposite window, taken at ingestion.
    pub bounds: WindowBounds,
}

/// The lock-free MPMC task ring.
pub struct TaskRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Global id one past the newest ingested slot (written under the ingest
    /// token only).
    tail: CachePadded<AtomicU64>,
    /// Global id of the next slot to claim.
    next_claim: CachePadded<AtomicU64>,
    /// Global id of the next slot to drain (written under the drain token
    /// only).
    head: CachePadded<AtomicU64>,
    ingest_token: CachePadded<AtomicBool>,
    drain_token: CachePadded<AtomicBool>,
}

impl TaskRing {
    /// Creates a ring with at least `capacity` slots (rounded up to a power
    /// of two, minimum 4).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(4).next_power_of_two();
        TaskRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: capacity as u64 - 1,
            tail: CachePadded::new(AtomicU64::new(0)),
            next_claim: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            ingest_token: CachePadded::new(AtomicBool::new(false)),
            drain_token: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, gid: u64) -> &Slot {
        &self.slots[(gid & self.mask) as usize]
    }

    /// Ingested-but-unclaimed tuples currently available for acquisition.
    #[inline]
    pub fn available(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let claim = self.next_claim.load(Ordering::Relaxed);
        tail.saturating_sub(claim) as usize
    }

    /// Whether every ingested slot has been drained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }

    /// Occupied slots (ingested and not yet drained).
    #[inline]
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Tries to win the ingest token. At most one token exists at a time;
    /// the token is released when the guard drops.
    pub fn try_ingest(&self) -> Option<IngestGuard<'_>> {
        if self.ingest_token.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(IngestGuard { ring: self })
    }

    /// Claims up to `max` consecutive ingested slots, appending them to `out`
    /// and returning how many were claimed. Lock-free: contended attempts
    /// retry against the freshly observed ticket, and `retries` (reported via
    /// `counters`) measures that contention.
    pub fn claim(
        &self,
        max: usize,
        out: &mut Vec<ClaimedTask>,
        counters: &mut RingCounters,
    ) -> usize {
        debug_assert!(max > 0);
        let mut claim = self.next_claim.load(Ordering::Relaxed);
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            if claim >= tail {
                return 0;
            }
            let end = tail.min(claim + max as u64);
            match self.next_claim.compare_exchange_weak(
                claim,
                end,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    for gid in claim..end {
                        let slot = self.slot(gid);
                        debug_assert_eq!(slot.state.load(Ordering::Relaxed), INGESTED);
                        slot.state.store(ACTIVE, Ordering::Relaxed);
                        let side = if slot.side.load(Ordering::Relaxed) == 0 {
                            StreamSide::R
                        } else {
                            StreamSide::S
                        };
                        out.push(ClaimedTask {
                            gid,
                            tuple: Tuple::new(
                                side,
                                slot.seq.load(Ordering::Relaxed),
                                slot.key.load(Ordering::Relaxed),
                            ),
                            bounds: WindowBounds::new(
                                slot.bound_earliest.load(Ordering::Relaxed),
                                slot.bound_latest.load(Ordering::Relaxed),
                            ),
                        });
                    }
                    counters.tasks_acquired += 1;
                    counters.tuples_acquired += end - claim;
                    return (end - claim) as usize;
                }
                Err(current) => {
                    counters.claim_retries += 1;
                    claim = current;
                }
            }
        }
    }

    /// Publishes the results of a claimed slot, making it eligible for
    /// in-order propagation. `results` is only consulted when the caller
    /// collects result tuples.
    pub fn complete(&self, gid: u64, result_count: u64, results: Vec<JoinResult>) {
        let slot = self.slot(gid);
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), ACTIVE);
        slot.result_count.store(result_count, Ordering::Relaxed);
        if !results.is_empty() {
            *slot.results.lock() = results;
        }
        slot.state.store(COMPLETED, Ordering::Release);
    }

    /// Advances the drain cursor over the completed prefix, invoking
    /// `emit(result_count, results)` per slot in arrival order and recycling
    /// each drained slot. Serialised internally by the drain token: when
    /// another thread is draining, returns `None` immediately so the caller
    /// can go back to useful work.
    pub fn try_drain<F: FnMut(u64, Vec<JoinResult>)>(
        &self,
        collect: bool,
        mut emit: F,
    ) -> Option<u64> {
        if self.drain_token.swap(true, Ordering::AcqRel) {
            return None;
        }
        let mut head = self.head.load(Ordering::Relaxed);
        let start = head;
        loop {
            if head == self.tail.load(Ordering::Acquire) {
                break;
            }
            let slot = self.slot(head);
            if slot.state.load(Ordering::Acquire) != COMPLETED {
                break;
            }
            let count = slot.result_count.load(Ordering::Relaxed);
            let results = if collect {
                std::mem::take(&mut *slot.results.lock())
            } else {
                Vec::new()
            };
            slot.state.store(EMPTY, Ordering::Release);
            head += 1;
            self.head.store(head, Ordering::Release);
            emit(count, results);
        }
        self.drain_token.store(false, Ordering::Release);
        Some(head - start)
    }

    /// Arrival stamp and completion state of the head (next-to-drain) slot,
    /// or `None` when every ingested slot has been drained. Used by the
    /// sharded ring's cross-shard merge cursor: the shard whose head carries
    /// the smallest arrival stamp holds the globally next result. The peek is
    /// only stable while the caller serialises draining (the sharded ring's
    /// global drain token does); concurrent ingestion can only *add* slots
    /// with larger arrival stamps, never disturb the head.
    pub fn head_arrival(&self) -> Option<(u64, bool)> {
        let head = self.head.load(Ordering::Acquire);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let slot = self.slot(head);
        let state = slot.state.load(Ordering::Acquire);
        Some((slot.arrival.load(Ordering::Relaxed), state == COMPLETED))
    }

    /// Drains exactly the head slot if it is completed, invoking `emit` and
    /// recycling the slot. Returns `None` when another thread holds the drain
    /// token, otherwise whether a slot was drained. The sharded ring uses
    /// this to merge drains across shards one arrival at a time.
    pub fn drain_one<F: FnOnce(u64, Vec<JoinResult>)>(
        &self,
        collect: bool,
        emit: F,
    ) -> Option<bool> {
        if self.drain_token.swap(true, Ordering::AcqRel) {
            return None;
        }
        let head = self.head.load(Ordering::Relaxed);
        let mut drained = false;
        if head != self.tail.load(Ordering::Acquire) {
            let slot = self.slot(head);
            if slot.state.load(Ordering::Acquire) == COMPLETED {
                let count = slot.result_count.load(Ordering::Relaxed);
                let results = if collect {
                    std::mem::take(&mut *slot.results.lock())
                } else {
                    Vec::new()
                };
                slot.state.store(EMPTY, Ordering::Release);
                self.head.store(head + 1, Ordering::Release);
                emit(count, results);
                drained = true;
            }
        }
        self.drain_token.store(false, Ordering::Release);
        Some(drained)
    }
}

/// Exclusive ingestion handle; released on drop.
pub struct IngestGuard<'a> {
    ring: &'a TaskRing,
}

impl IngestGuard<'_> {
    /// Whether the slot at `tail` can accept a new tuple right now. Checked
    /// *before* the caller performs its side effects (window append), so a
    /// subsequent [`push`](Self::push) cannot fail: between the check and the
    /// push only the drainer touches the ring, and it only frees slots.
    pub fn can_push(&self) -> bool {
        self.ring.can_push_unguarded()
    }

    /// Ingests one tuple with its opposite-window boundary snapshot. The
    /// caller must gate on [`can_push`](Self::can_push) — pushing into a full
    /// ring corrupts an undrained slot (checked in debug builds only, to keep
    /// the redundant loads off the release ingest path). The slot's arrival
    /// stamp is its gid — correct for a stand-alone ring, where arrival order
    /// and slot order coincide.
    pub fn push(&self, tuple: Tuple, bounds: WindowBounds) -> u64 {
        let gid = self.ring.tail.load(Ordering::Relaxed);
        self.push_with_arrival(tuple, bounds, gid)
    }

    /// [`push`](Self::push) with an explicit arrival stamp, used by the
    /// sharded ring whose router spreads one global arrival order over
    /// several rings. Stamps must be strictly increasing per ring (the
    /// sharded ingest, serialised by its global token, guarantees this).
    pub fn push_with_arrival(&self, tuple: Tuple, bounds: WindowBounds, arrival: u64) -> u64 {
        self.ring.push_unguarded(tuple, bounds, arrival)
    }
}

impl TaskRing {
    /// [`IngestGuard::can_push`] without the token. Crate-internal: the
    /// sharded ring's single *global* ingest token already serialises all
    /// pushes across its shards, so taking every shard's token per ingest
    /// batch would only add allocation and atomic traffic to the hot path.
    #[inline]
    pub(crate) fn can_push_unguarded(&self) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        tail - head < self.capacity() as u64
            && self.slot(tail).state.load(Ordering::Acquire) == EMPTY
    }

    /// [`IngestGuard::push_with_arrival`] without the token; see
    /// [`can_push_unguarded`](Self::can_push_unguarded) for why the sharded
    /// ring may call this. The caller must hold whatever exclusion makes it
    /// the only ingester of this ring.
    pub(crate) fn push_unguarded(&self, tuple: Tuple, bounds: WindowBounds, arrival: u64) -> u64 {
        debug_assert!(self.can_push_unguarded(), "TaskRing::push on a full ring");
        let tail = self.tail.load(Ordering::Relaxed);
        let slot = self.slot(tail);
        slot.arrival.store(arrival, Ordering::Relaxed);
        slot.side.store(tuple.side.index() as u8, Ordering::Relaxed);
        slot.seq.store(tuple.seq, Ordering::Relaxed);
        slot.key.store(tuple.key, Ordering::Relaxed);
        slot.bound_earliest
            .store(bounds.earliest, Ordering::Relaxed);
        slot.bound_latest
            .store(bounds.latest_exclusive, Ordering::Relaxed);
        slot.result_count.store(0, Ordering::Relaxed);
        slot.state.store(INGESTED, Ordering::Release);
        self.tail.store(tail + 1, Ordering::Release);
        tail
    }
}

impl Drop for IngestGuard<'_> {
    fn drop(&mut self) {
        self.ring.ingest_token.store(false, Ordering::Release);
    }
}

// ----------------------------------------------------------------- back-off

/// What one idle round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleKind {
    /// Busy-spun for a short exponentially growing window.
    Spin,
    /// Yielded the time slice to the scheduler.
    Yield,
    /// Slept for a short park (50 µs).
    Park,
}

/// Idle rounds a worker busy-spins (with exponentially growing spin
/// windows) before it starts yielding its time slice.
const SPIN_LIMIT: u32 = 6;

/// Idle rounds a worker yields after spinning and before it parks.
const YIELD_LIMIT: u32 = 16;

/// How long one park sleeps once spinning and yielding both found no work
/// (under the model checker a park degrades to a yield).
#[cfg(not(pimtree_model))]
const PARK: std::time::Duration = std::time::Duration::from_micros(50);

/// Adaptive idle back-off: six exponentially growing busy-spin windows, then
/// 16 yields, then 50 µs parks. A worker that just missed a task burns a few
/// nanoseconds spinning instead of handing its core to the OS, while a
/// genuinely starved worker backs off to a park and stops hammering the
/// shared counters the productive workers need.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Forgets accumulated back-off after useful work was found.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Performs one idle round and reports which stage it used.
    pub fn idle(&mut self) -> IdleKind {
        let kind = if self.step < SPIN_LIMIT {
            // 2^step spin hints.
            for _ in 0..(1u32 << self.step) {
                pimtree_common::sync::hint::spin_loop();
            }
            IdleKind::Spin
        } else if self.step < SPIN_LIMIT + YIELD_LIMIT {
            pimtree_common::sync::hint::yield_now();
            IdleKind::Yield
        } else {
            // Parking blocks the OS thread, which would stall the model
            // scheduler's baton; under the checker it degrades to a yield.
            #[cfg(not(pimtree_model))]
            std::thread::sleep(PARK);
            #[cfg(pimtree_model)]
            pimtree_common::sync::hint::yield_now();
            IdleKind::Park
        };
        self.step = self.step.saturating_add(1);
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> RingCounters {
        RingCounters::default()
    }

    fn push_n(ring: &TaskRing, start: u64, n: u64) {
        let guard = ring.try_ingest().expect("token free");
        for i in start..start + n {
            assert!(guard.can_push());
            let gid = guard.push(Tuple::r(i, i as i64 * 10), WindowBounds::new(i, i + 1));
            assert_eq!(gid, i, "gids are assigned consecutively");
        }
    }

    #[test]
    fn capacity_is_rounded_to_a_power_of_two() {
        assert_eq!(TaskRing::with_capacity(0).capacity(), 4);
        assert_eq!(TaskRing::with_capacity(4).capacity(), 4);
        assert_eq!(TaskRing::with_capacity(5).capacity(), 8);
        assert_eq!(TaskRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn claim_is_bounded_by_ingested_tail() {
        let ring = TaskRing::with_capacity(8);
        let mut c = counters();
        let mut out = Vec::new();
        assert_eq!(
            ring.claim(4, &mut out, &mut c),
            0,
            "empty ring yields no tasks"
        );
        push_n(&ring, 0, 3);
        assert_eq!(ring.available(), 3);
        assert_eq!(ring.claim(8, &mut out, &mut c), 3, "claim clamps to tail");
        assert_eq!(ring.claim(8, &mut out, &mut c), 0);
        assert_eq!(out.len(), 3);
        for (i, task) in out.iter().enumerate() {
            assert_eq!(task.gid, i as u64);
            assert_eq!(task.tuple.key, i as i64 * 10);
            assert_eq!(task.bounds.earliest, i as u64);
        }
        assert_eq!(c.tasks_acquired, 1);
        assert_eq!(c.tuples_acquired, 3);
    }

    #[test]
    // 1000 tuples × full state machine per lap: tractable natively, hours
    // under Miri's interpreter. The CI Miri leg runs the short unit tests.
    #[cfg_attr(miri, ignore)]
    fn ticket_claim_and_drain_survive_many_wraparounds() {
        // Capacity 4 and 1000 tuples: every slot is reused 250 times. The
        // single-threaded cycle exercises the full state machine per lap and
        // the gid arithmetic across index wraps.
        let ring = TaskRing::with_capacity(4);
        let mut c = counters();
        let mut next = 0u64;
        let mut drained_order = Vec::new();
        while drained_order.len() < 1000 {
            {
                let guard = ring.try_ingest().unwrap();
                while next < 1000 && guard.can_push() {
                    guard.push(Tuple::r(next, next as i64), WindowBounds::new(0, next + 1));
                    next += 1;
                }
            }
            let mut out = Vec::new();
            while ring.claim(3, &mut out, &mut c) > 0 {}
            for task in out.drain(..) {
                assert_eq!(
                    task.gid, task.tuple.seq,
                    "slot contents follow the gid across wraps"
                );
                ring.complete(task.gid, task.gid * 2, Vec::new());
            }
            ring.try_drain(false, |count, _| drained_order.push(count))
                .unwrap();
        }
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        // Drained in arrival order: counts are 0, 2, 4, ...
        assert_eq!(drained_order.len(), 1000);
        for (i, &count) in drained_order.iter().enumerate() {
            assert_eq!(count, i as u64 * 2);
        }
        assert_eq!(c.tuples_acquired, 1000);
    }

    #[test]
    fn ingest_stops_at_capacity_until_drained() {
        let ring = TaskRing::with_capacity(4);
        let mut c = counters();
        push_n(&ring, 0, 4);
        {
            let guard = ring.try_ingest().unwrap();
            assert!(!guard.can_push(), "ring full");
        }
        let mut out = Vec::new();
        assert_eq!(ring.claim(2, &mut out, &mut c), 2);
        for t in &out {
            ring.complete(t.gid, 0, Vec::new());
        }
        // Still full: completed slots free up only after the drain.
        assert!(!ring.try_ingest().unwrap().can_push());
        assert_eq!(ring.try_drain(false, |_, _| {}), Some(2));
        push_n(&ring, 4, 2);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn drain_stops_at_the_first_uncompleted_slot() {
        let ring = TaskRing::with_capacity(8);
        let mut c = counters();
        push_n(&ring, 0, 4);
        let mut out = Vec::new();
        ring.claim(4, &mut out, &mut c);
        // Complete out of order: 1, 2 and 3 but not 0.
        for t in out.iter().skip(1) {
            ring.complete(t.gid, 7, Vec::new());
        }
        assert_eq!(
            ring.try_drain(false, |_, _| panic!("nothing completed at head")),
            Some(0)
        );
        ring.complete(out[0].gid, 7, Vec::new());
        let mut drained = 0;
        assert_eq!(ring.try_drain(false, |_, _| drained += 1), Some(4));
        assert_eq!(drained, 4, "whole completed prefix drains at once");
    }

    #[test]
    fn tokens_are_exclusive() {
        let ring = TaskRing::with_capacity(8);
        let guard = ring.try_ingest().unwrap();
        assert!(ring.try_ingest().is_none(), "second ingest token denied");
        drop(guard);
        assert!(ring.try_ingest().is_some(), "token released on drop");
        push_n(&ring, 0, 1);
        let mut out = Vec::new();
        ring.claim(1, &mut out, &mut counters());
        ring.complete(0, 0, Vec::new());
        // A drain in progress blocks a second drainer (observed via the
        // callback running while the second attempt happens).
        let ring2 = &ring;
        ring.try_drain(false, |_, _| {
            assert!(ring2.try_drain(false, |_, _| {}).is_none());
        })
        .unwrap();
    }

    #[test]
    fn collected_results_travel_through_the_slot() {
        let ring = TaskRing::with_capacity(4);
        let mut c = counters();
        push_n(&ring, 0, 1);
        let mut out = Vec::new();
        ring.claim(1, &mut out, &mut c);
        let probe = out[0].tuple;
        let matched = Tuple::s(9, 99);
        ring.complete(0, 1, vec![JoinResult::new(probe, matched)]);
        let mut seen = Vec::new();
        ring.try_drain(true, |count, results| seen.push((count, results)))
            .unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[0].1.len(), 1);
        assert_eq!(seen[0].1[0].matched.key, 99);
    }

    #[test]
    // 9 OS threads spin-waiting on each other: Miri serialises them and the
    // back-off never sleeps, so this takes unbounded wall-clock there.
    #[cfg_attr(miri, ignore)]
    fn concurrent_claims_partition_the_ring() {
        // 8 claimers race over one producer's slots; every gid must be
        // claimed exactly once and drain in order.
        let ring = std::sync::Arc::new(TaskRing::with_capacity(64));
        let total = 20_000u64;
        let claimed = std::sync::Arc::new(AtomicU64::new(0));
        let drained = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ring = ring.clone();
                let claimed = claimed.clone();
                let drained = drained.clone();
                scope.spawn(move || {
                    let mut c = RingCounters::default();
                    let mut out = Vec::new();
                    loop {
                        out.clear();
                        if ring.claim(2, &mut out, &mut c) > 0 {
                            for t in &out {
                                // gid uniqueness: seq must equal gid, and the
                                // per-gid counter below must never double-add.
                                assert_eq!(t.gid, t.tuple.seq);
                                ring.complete(t.gid, 1, Vec::new());
                                claimed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let mut local = 0;
                        if let Some(n) = ring.try_drain(false, |count, _| local += count) {
                            assert_eq!(local, n);
                            drained.fetch_add(n, Ordering::Relaxed);
                        }
                        if drained.load(Ordering::Relaxed) == total {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            let ring = ring.clone();
            scope.spawn(move || {
                let mut next = 0u64;
                while next < total {
                    if let Some(guard) = ring.try_ingest() {
                        while next < total && guard.can_push() {
                            guard.push(Tuple::r(next, 0), WindowBounds::empty());
                            next += 1;
                        }
                    }
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(claimed.load(Ordering::Relaxed), total);
        assert_eq!(drained.load(Ordering::Relaxed), total);
        assert!(ring.is_empty());
    }

    #[test]
    fn head_arrival_and_drain_one_step_through_slots() {
        let ring = TaskRing::with_capacity(8);
        let mut c = counters();
        assert_eq!(ring.head_arrival(), None, "empty ring has no head");
        // Explicit arrival stamps (as the sharded router would assign them).
        {
            let guard = ring.try_ingest().unwrap();
            for (i, arrival) in [5u64, 9, 12].into_iter().enumerate() {
                guard.push_with_arrival(Tuple::r(i as u64, 0), WindowBounds::empty(), arrival);
            }
        }
        assert_eq!(ring.head_arrival(), Some((5, false)), "ingested, not done");
        assert_eq!(
            ring.drain_one(false, |_, _| panic!("head not completed")),
            Some(false)
        );
        let mut out = Vec::new();
        ring.claim(3, &mut out, &mut c);
        // Complete out of order: the head peek reflects only the head slot.
        ring.complete(out[1].gid, 1, Vec::new());
        assert_eq!(ring.head_arrival(), Some((5, false)));
        ring.complete(out[0].gid, 7, Vec::new());
        assert_eq!(ring.head_arrival(), Some((5, true)));
        let mut seen = Vec::new();
        assert_eq!(ring.drain_one(false, |n, _| seen.push(n)), Some(true));
        assert_eq!(ring.head_arrival(), Some((9, true)));
        assert_eq!(ring.drain_one(false, |n, _| seen.push(n)), Some(true));
        assert_eq!(ring.head_arrival(), Some((12, false)));
        ring.complete(out[2].gid, 3, Vec::new());
        assert_eq!(ring.drain_one(false, |n, _| seen.push(n)), Some(true));
        assert_eq!(seen, vec![7, 1, 3]);
        assert!(ring.is_empty());
        assert_eq!(ring.head_arrival(), None);
        // Plain pushes stamp the gid as the arrival.
        push_n(&ring, 3, 1);
        assert_eq!(ring.head_arrival(), Some((3, false)));
    }

    #[test]
    fn backoff_escalates_spin_yield_park_and_resets() {
        let mut b = Backoff::default();
        for _ in 0..SPIN_LIMIT {
            assert_eq!(b.idle(), IdleKind::Spin);
        }
        for _ in 0..YIELD_LIMIT {
            assert_eq!(b.idle(), IdleKind::Yield);
        }
        assert_eq!(b.idle(), IdleKind::Park);
        assert_eq!(b.idle(), IdleKind::Park);
        b.reset();
        assert_eq!(b.idle(), IdleKind::Spin);
    }
}
