//! Sharded, NUMA-aware task-ring layer for the parallel join engine.
//!
//! PR 1's [`TaskRing`] removed the engine's queue mutex, but it is still one
//! shared structure: on a multi-socket host its claim ticket and slot cache
//! lines bounce between sockets on every acquisition. This module splits the
//! ring into an array of per-node shards — each a full [`TaskRing`] with its
//! own ingest cursor, claim ticket and drain cursor — and stitches the shards
//! back into *one* logical ring with three pieces:
//!
//! * **A key-range router.** Ingestion assigns every tuple to the shard that
//!   owns its key range, using `pimtree-numa`'s [`RangePartitioner`] (the
//!   paper's workload-aware NUMA partitioning); without a partitioner the
//!   router falls back to round-robin. On a real NUMA host each shard would
//!   be homed on one socket's memory, so a worker claiming from its home
//!   shard touches only local cache lines — and with
//!   `ShardConfig::partition_index` the engine places the *index and window
//!   state* per shard as well ([`crate::store::ShardStore`], driven by the
//!   same partitioner), so the data a home claim probes is home-shard data
//!   too.
//! * **Home-shard claiming with bounded cross-shard stealing.** Every worker
//!   is pinned to a *home* shard and claims there first. Only when the home
//!   shard runs dry does it scan the other shards, in one pass, and steal
//!   one task from the first shard with any work available — so no work is
//!   ever stranded, even on a shard with no home worker at all
//!   (`shards > threads`). The claiming
//!   worker counts home claims and steals in its own [`ShardCounters`]; on
//!   a multi-socket host a steal is the claim that crosses the interconnect.
//! * **A cross-shard merge cursor.** Results must still leave in *global*
//!   arrival order. Every slot carries the tuple's global arrival stamp
//!   (assigned by the serialised ingest), and per shard the stamps are
//!   strictly increasing — so the globally next result is always at the head
//!   of the shard whose head stamp is smallest. The elected drainer repeats:
//!   find that shard, drain exactly one slot if its head is completed, stop
//!   at the first incomplete head. Ordering stays structural, exactly as in
//!   the single ring; no buffering or sorting is ever needed.
//!
//! With `shards = 1` every operation short-circuits to the plain
//! [`TaskRing`] code path, so the sharded layer costs nothing when sharding
//! is off.
//!
//! # Invariants
//!
//! * Arrival stamps are assigned under the global ingest token and strictly
//!   increase; each shard receives a subsequence, so per-shard stamps are
//!   strictly increasing too.
//! * Among stamps below an ingest-frontier snapshot taken before a scan, the
//!   minimum over shard-head stamps is the globally smallest undrained stamp
//!   (everything below the frontier was pushed before the scan began, and
//!   only the holder of the global drain token advances heads); stamps past
//!   the frontier are deferred to the next scan.
//! * A tuple's route is a pure function of the ingest state (key under range
//!   routing, arrival counter under round-robin), so `can_push`/`push` pairs
//!   always target the same shard.

use std::sync::Arc;

use crossbeam::utils::CachePadded;
use pimtree_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pimtree_common::sync::RwLock;
use pimtree_common::{JoinResult, Key, ShardConfig, Tuple};
use pimtree_numa::RangePartitioner;
use pimtree_window::WindowBounds;

use crate::ring::{ClaimedTask, TaskRing};
use crate::stats::{RingCounters, ShardCounters};

/// How the sharded ring assigns ingested tuples to shards.
enum Router {
    /// `arrival % shards`: context-insensitive spreading, the fallback when
    /// no key-range partitioner is configured.
    RoundRobin,
    /// The shard owning the tuple's key range (`pimtree-numa`'s
    /// workload-aware partitioning).
    Range(RangePartitioner),
}

/// One successful claim from the sharded ring: which shard the tuples came
/// from (needed to complete their slots) and how many were claimed.
#[derive(Debug, Clone, Copy)]
pub struct ShardClaim {
    /// Shard index the claimed slots belong to.
    pub shard: usize,
    /// Number of tuples claimed.
    pub tuples: usize,
    /// Whether the claim was a steal from a non-home shard.
    pub stolen: bool,
}

/// An array of per-node [`TaskRing`]s behind a key-range router, claimed
/// home-first with bounded stealing and drained through a cross-shard merge
/// cursor. See the module documentation for the protocol.
pub struct ShardedRing {
    rings: Box<[TaskRing]>,
    /// The routing policy, swappable mid-run by a repartition epoch
    /// ([`set_partitioner`](Self::set_partitioner)). Ingestion snapshots the
    /// `Arc` once per ingest-token acquisition, so the per-tuple routing
    /// path costs no lock; the swap itself only happens while the engine is
    /// quiesced (no ingest guard alive), so a guard never observes a torn
    /// routing decision. Padded: taking the read lock writes the lock word
    /// on every ingest, and the line it sits on must not also hold `rings`,
    /// which every claim, drain and depth check reads.
    router: CachePadded<RwLock<Arc<Router>>>,
    /// Tuples one steal takes: one task.
    steal: usize,
    /// Next global arrival stamp; written only under the global ingest token.
    next_arrival: CachePadded<AtomicU64>,
    /// Serialises ingestion across all shards (routing decisions and arrival
    /// stamps must be assigned in input order).
    ingest_token: CachePadded<AtomicBool>,
    /// Serialises the cross-shard merge cursor.
    drain_token: CachePadded<AtomicBool>,
}

impl ShardedRing {
    /// Creates a sharded ring with `config.shards` shards of
    /// `per_shard_capacity` slots each (rounded like
    /// [`TaskRing::with_capacity`]). A steal takes `task_size` tuples;
    /// `partitioner` enables key-range routing and must cover exactly
    /// `config.shards` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the partitioner's node count
    /// does not match the shard count.
    pub fn new(
        config: &ShardConfig,
        task_size: usize,
        per_shard_capacity: usize,
        partitioner: Option<RangePartitioner>,
    ) -> Self {
        config.validate().expect("invalid shard configuration");
        let router = match partitioner {
            Some(p) => {
                assert_eq!(
                    p.nodes(),
                    config.shards,
                    "partitioner and shard config disagree on the shard count"
                );
                Router::Range(p)
            }
            None => Router::RoundRobin,
        };
        ShardedRing {
            rings: (0..config.shards)
                .map(|_| TaskRing::with_capacity(per_shard_capacity))
                .collect(),
            router: CachePadded::new(RwLock::new(Arc::new(router))),
            steal: task_size.max(1),
            next_arrival: CachePadded::new(AtomicU64::new(0)),
            ingest_token: CachePadded::new(AtomicBool::new(false)),
            drain_token: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.rings.iter().map(|r| r.capacity()).sum()
    }

    /// Ingested-but-unclaimed tuples across all shards: the sum of every
    /// shard's [`TaskRing::available`]. Under concurrent claims the sum can
    /// lag by in-flight claims, which is fine for its use as the engine's
    /// "is the ring running low?" gate.
    pub fn available(&self) -> usize {
        self.rings.iter().map(|r| r.available()).sum()
    }

    /// Whether every ingested slot of every shard has been drained.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.is_empty())
    }

    /// Occupied slots (ingested and not yet drained) across all shards.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Ingested-but-unclaimed tuples currently available on one shard.
    pub fn shard_available(&self, shard: usize) -> usize {
        self.rings[shard].available()
    }

    /// Tries to win the global ingest token. At most one token exists at a
    /// time; it is released when the guard drops. The per-shard rings are
    /// never token-locked individually: the global token is the only
    /// ingestion exclusion (the rings are private to this structure), so
    /// winning it costs one atomic swap and no allocation regardless of the
    /// shard count.
    pub fn try_ingest(&self) -> Option<ShardIngestGuard<'_>> {
        if self.ingest_token.swap(true, Ordering::AcqRel) {
            return None;
        }
        // Snapshot the routing policy once per token acquisition: routing
        // stays lock-free per tuple, and a repartition epoch (which only
        // swaps the router while no guard is alive) can never change a
        // guard's routing mid-batch.
        let router = Arc::clone(&self.router.read());
        Some(ShardIngestGuard { ring: self, router })
    }

    /// Swaps the routing policy to key-range routing under `partitioner` —
    /// the ring half of a repartition epoch. Must only be called while the
    /// engine is quiesced (no ingest guard alive): tuples already ingested
    /// keep the shard the old policy chose and are drained by home claims or
    /// steals, which preserves both claim coverage and (via arrival stamps)
    /// global propagation order.
    ///
    /// # Panics
    ///
    /// Panics if the partitioner's node count does not match the shard
    /// count.
    pub fn set_partitioner(&self, partitioner: RangePartitioner) {
        assert_eq!(
            partitioner.nodes(),
            self.rings.len(),
            "partitioner and shard config disagree on the shard count"
        );
        *self.router.write() = Arc::new(Router::Range(partitioner));
    }

    /// Claims up to `max` tuples for the worker homed on `home`: from the
    /// home shard if it has work, otherwise by stealing one task from the
    /// first remote shard that has any. Returns `None` when no shard had
    /// claimable work.
    pub fn claim(
        &self,
        home: usize,
        max: usize,
        out: &mut Vec<ClaimedTask>,
        ring: &mut RingCounters,
        shard: &mut ShardCounters,
    ) -> Option<ShardClaim> {
        let shards = self.rings.len();
        let home = home % shards;
        let n = self.rings[home].claim(max, out, ring);
        if n > 0 {
            shard.local_tasks += 1;
            shard.local_tuples += n as u64;
            return Some(ShardClaim {
                shard: home,
                tuples: n,
                stolen: false,
            });
        }
        if shards == 1 {
            shard.claim_rounds_empty += 1;
            return None;
        }
        for offset in 1..shards {
            let victim = (home + offset) % shards;
            let n = self.rings[victim].claim(self.steal, out, ring);
            if n > 0 {
                shard.steal_tasks += 1;
                shard.stolen_tuples += n as u64;
                return Some(ShardClaim {
                    shard: victim,
                    tuples: n,
                    stolen: true,
                });
            }
        }
        shard.claim_rounds_empty += 1;
        None
    }

    /// Publishes the results of a claimed slot of `shard`, making it eligible
    /// for cross-shard in-order propagation.
    #[inline]
    pub fn complete(&self, shard: usize, gid: u64, result_count: u64, results: Vec<JoinResult>) {
        self.rings[shard].complete(gid, result_count, results);
    }

    /// Propagates the globally completed prefix in arrival order, invoking
    /// `emit(result_count, results)` per slot. Serialised by the global drain
    /// token: when another thread is draining, returns `None` immediately.
    ///
    /// With one shard this is exactly [`TaskRing::try_drain`]. With several,
    /// the merge cursor repeatedly drains the head of the shard whose head
    /// arrival stamp is smallest, stopping at the first incomplete head.
    ///
    /// Each selection round only considers stamps below the ingest
    /// *frontier* (`next_arrival`) read at the start of the round. This is
    /// what makes the non-atomic shard-by-shard peek safe against concurrent
    /// ingestion: a candidate below the frontier was pushed before the round
    /// began, so every smaller stamp was pushed even earlier (stamps are
    /// assigned in order) and is either drained or sitting at some shard's
    /// head where this round's scan will see it — the selected candidate is
    /// the true global minimum. Without the frontier guard, a pair of tuples
    /// pushed *during* the scan (the earlier one to an already-peeked shard,
    /// the later one — completed quickly — to a not-yet-peeked shard) could
    /// be drained in the wrong order. Stamps at or above the frontier are
    /// simply deferred to the next round.
    pub fn try_drain<F: FnMut(u64, Vec<JoinResult>)>(
        &self,
        collect: bool,
        mut emit: F,
    ) -> Option<u64> {
        if self.rings.len() == 1 {
            return self.rings[0].try_drain(collect, emit);
        }
        if self.drain_token.swap(true, Ordering::AcqRel) {
            return None;
        }
        let mut drained = 0u64;
        loop {
            let frontier = self.next_arrival.load(Ordering::Acquire);
            let mut best: Option<(u64, bool, usize)> = None;
            for (s, ring) in self.rings.iter().enumerate() {
                if let Some((arrival, completed)) = ring.head_arrival() {
                    if arrival < frontier && best.is_none_or(|(b, _, _)| arrival < b) {
                        best = Some((arrival, completed, s));
                    }
                }
            }
            let Some((_, completed, s)) = best else { break };
            if !completed {
                break;
            }
            let did = self.rings[s]
                .drain_one(collect, &mut emit)
                .expect("per-shard drain tokens are free under the global token");
            if !did {
                // The peek raced with a concurrent `complete`; the head state
                // can only have moved *towards* completion, so retry.
                continue;
            }
            drained += 1;
        }
        self.drain_token.store(false, Ordering::Release);
        Some(drained)
    }
}

/// Exclusive sharded-ingestion handle; released on drop. Routing (and with
/// it the arrival-stamp assignment) is only valid while the guard is held.
pub struct ShardIngestGuard<'a> {
    ring: &'a ShardedRing,
    /// Routing policy snapshot taken when the token was won (see
    /// [`ShardedRing::try_ingest`]).
    router: Arc<Router>,
}

impl ShardIngestGuard<'_> {
    /// The shard the next pushed tuple with `key` will land on. Stable
    /// between a [`can_push`](Self::can_push) check and the matching
    /// [`push`](Self::push): range routing depends only on the key, and the
    /// round-robin cursor advances only on `push`.
    pub fn route(&self, key: Key) -> usize {
        match &*self.router {
            Router::RoundRobin => {
                (self.ring.next_arrival.load(Ordering::Relaxed) % self.ring.rings.len() as u64)
                    as usize
            }
            Router::Range(p) => p.node_of(key),
        }
    }

    /// Whether shard `shard` can accept a new tuple right now (see
    /// [`IngestGuard::can_push`](crate::ring::IngestGuard::can_push) for the
    /// contract).
    #[inline]
    pub fn can_push(&self, shard: usize) -> bool {
        self.ring.rings[shard].can_push_unguarded()
    }

    /// Ingests one tuple on its routed `shard` (the value
    /// [`route`](Self::route) returned for the tuple's key), stamping it with
    /// the next global arrival index. The caller must gate on
    /// [`can_push`](Self::can_push).
    pub fn push(&mut self, shard: usize, tuple: Tuple, bounds: WindowBounds) {
        debug_assert_eq!(shard, self.route(tuple.key), "push must follow route");
        let arrival = self.ring.next_arrival.load(Ordering::Relaxed);
        self.ring.rings[shard].push_unguarded(tuple, bounds, arrival);
        self.ring.next_arrival.store(arrival + 1, Ordering::Release);
    }
}

impl Drop for ShardIngestGuard<'_> {
    fn drop(&mut self) {
        self.ring.ingest_token.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimtree_common::StreamSide;

    fn counters() -> (RingCounters, ShardCounters) {
        (RingCounters::default(), ShardCounters::default())
    }

    fn config(shards: usize) -> ShardConfig {
        ShardConfig::default().with_shards(shards)
    }

    /// Ingests `n` tuples with keys from `key_of`, gated on capacity.
    fn ingest_keys(ring: &ShardedRing, start: u64, n: u64, key_of: impl Fn(u64) -> Key) -> u64 {
        let mut guard = ring.try_ingest().expect("token free");
        let mut pushed = 0;
        for i in start..start + n {
            let key = key_of(i);
            let shard = guard.route(key);
            if !guard.can_push(shard) {
                break;
            }
            guard.push(shard, Tuple::r(i, key), WindowBounds::new(i, i + 1));
            pushed += 1;
        }
        pushed
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_ring() {
        let ring = ShardedRing::new(&config(1), 4, 16, None);
        assert_eq!(ring.shards(), 1);
        assert_eq!(ring.capacity(), 16);
        assert_eq!(ingest_keys(&ring, 0, 5, |i| i as Key), 5);
        let (mut rc, mut sc) = counters();
        let mut out = Vec::new();
        let claim = ring.claim(7, 3, &mut out, &mut rc, &mut sc).unwrap();
        assert_eq!((claim.shard, claim.tuples, claim.stolen), (0, 3, false));
        assert_eq!(sc.local_tuples, 3);
        assert_eq!(sc.stolen_tuples, 0);
        for t in &out {
            ring.complete(0, t.gid, 1, Vec::new());
        }
        let mut drained = 0;
        assert_eq!(ring.try_drain(false, |_, _| drained += 1), Some(3));
        assert_eq!(drained, 3);
    }

    #[test]
    fn round_robin_routing_spreads_tuples_evenly() {
        let ring = ShardedRing::new(&config(4), 2, 8, None);
        assert_eq!(ingest_keys(&ring, 0, 12, |_| 42), 12);
        for s in 0..4 {
            assert_eq!(ring.shard_available(s), 3, "shard {s}");
        }
    }

    #[test]
    fn range_routing_follows_the_partitioner() {
        let keys: Vec<Key> = (0..1000).collect();
        let p = RangePartitioner::from_key_sample(4, &keys);
        let ring = ShardedRing::new(&config(4), 2, 512, Some(p.clone()));
        assert_eq!(ingest_keys(&ring, 0, 1000, |i| i as Key), 1000);
        let mut per_shard = [0usize; 4];
        for (s, count) in per_shard.iter_mut().enumerate() {
            *count = ring.shard_available(s);
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 1000);
        for (s, &count) in per_shard.iter().enumerate() {
            assert!((150..=400).contains(&count), "shard {s}: {per_shard:?}");
        }
        // Spot-check that each ingested tuple landed on its owning shard.
        let (mut rc, mut sc) = counters();
        let mut out = Vec::new();
        for home in 0..4 {
            while let Some(claim) = ring.claim(home, 64, &mut out, &mut rc, &mut sc) {
                if claim.stolen {
                    continue;
                }
                for t in &out[out.len() - claim.tuples..] {
                    assert_eq!(p.node_of(t.tuple.key), claim.shard);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the shard count")]
    fn mismatched_partitioner_rejected() {
        let p = RangePartitioner::from_key_sample(2, &[1, 2, 3]);
        let _ = ShardedRing::new(&config(4), 2, 8, Some(p));
    }

    #[test]
    #[should_panic(expected = "disagree on the shard count")]
    fn set_partitioner_rejects_mismatched_node_count() {
        let ring = ShardedRing::new(&config(4), 2, 8, None);
        ring.set_partitioner(RangePartitioner::from_key_sample(2, &[1, 2, 3]));
    }

    #[test]
    fn router_swap_reroutes_new_ingests_and_drains_old_ones_in_order() {
        // Start with a partitioner sending everything to shard 0, ingest a
        // prefix, swap to the inverse routing mid-run, ingest a suffix: old
        // tuples stay where the old policy put them (claimable by steal),
        // new tuples follow the new policy, and the merge cursor still
        // drains the union in global arrival order.
        let all_low = RangePartitioner::from_key_sample(2, &[]);
        let ring = ShardedRing::new(&config(2), 4, 64, Some(all_low));
        assert_eq!(ingest_keys(&ring, 0, 10, |i| i as Key), 10);
        assert_eq!(ring.shard_available(0), 10);
        assert_eq!(ring.shard_available(1), 0);
        // New policy: keys below 5 on shard 0, the rest on shard 1.
        ring.set_partitioner(RangePartitioner::from_key_sample(
            2,
            &(0..10).collect::<Vec<Key>>(),
        ));
        assert_eq!(ingest_keys(&ring, 10, 10, |i| i as Key), 10);
        assert!(
            ring.shard_available(1) > 0,
            "post-swap high keys route to shard 1"
        );
        let (mut rc, mut sc) = counters();
        let mut tasks = Vec::new();
        let mut claims = Vec::new();
        for home in [0usize, 1] {
            loop {
                let before = tasks.len();
                match ring.claim(home, 3, &mut tasks, &mut rc, &mut sc) {
                    Some(claim) => {
                        for t in &tasks[before..] {
                            claims.push((claim.shard, t.gid, t.tuple.seq));
                        }
                    }
                    None => break,
                }
            }
        }
        assert_eq!(claims.len(), 20, "no tuple stranded across the swap");
        for &(shard, gid, seq) in claims.iter().rev() {
            ring.complete(shard, gid, seq, Vec::new());
        }
        let mut drained = Vec::new();
        assert_eq!(ring.try_drain(false, |n, _| drained.push(n)), Some(20));
        assert_eq!(
            drained,
            (0..20).collect::<Vec<u64>>(),
            "drain follows global arrival order across the router swap"
        );
    }

    #[test]
    fn home_claims_win_and_steals_cover_dry_homes() {
        // All keys route to shard 0 under this partitioner (single hot
        // range), so workers homed elsewhere must steal.
        let p = RangePartitioner::from_key_sample(3, &[]);
        let ring = ShardedRing::new(&config(3), 2, 32, Some(p));
        assert_eq!(ingest_keys(&ring, 0, 10, |i| i as Key), 10);
        assert_eq!(ring.shard_available(0), 10);
        let (mut rc, mut sc) = counters();
        let mut out = Vec::new();
        // Home worker of shard 0 claims locally at full task size.
        let claim = ring.claim(0, 4, &mut out, &mut rc, &mut sc).unwrap();
        assert_eq!((claim.shard, claim.tuples, claim.stolen), (0, 4, false));
        // A worker homed on shard 1 must steal, one task of 2.
        let claim = ring.claim(1, 4, &mut out, &mut rc, &mut sc).unwrap();
        assert_eq!((claim.shard, claim.tuples, claim.stolen), (0, 2, true));
        assert_eq!(sc.steal_tasks, 1);
        assert_eq!(sc.stolen_tuples, 2);
        assert_eq!(sc.local_tuples, 4);
        for t in &out {
            ring.complete(0, t.gid, 0, Vec::new());
        }
        assert_eq!(ring.try_drain(false, |_, _| {}), Some(6));
    }

    #[test]
    fn a_shard_without_a_home_worker_is_drained_by_stealing() {
        // Four shards and every key on shard 3, while the only workers are
        // homed on shards 0 and 1: shard 3's work reaches them through
        // steals alone, a task (here 8 tuples) at a time, down to a last
        // partial task.
        let p = RangePartitioner::from_key_sample(4, &(0..400).collect::<Vec<Key>>());
        let hot = 399;
        assert_eq!(p.node_of(hot), 3);
        let ring = ShardedRing::new(&config(4), 8, 32, Some(p));
        assert_eq!(ingest_keys(&ring, 0, 19, |_| hot), 19);
        assert_eq!(ring.shard_available(3), 19);
        let (mut rc, mut sc) = counters();
        let mut out = Vec::new();
        let mut taken = Vec::new();
        for home in [0, 1, 0] {
            let claim = ring.claim(home, 32, &mut out, &mut rc, &mut sc).unwrap();
            assert_eq!((claim.shard, claim.stolen), (3, true));
            taken.push(claim.tuples);
        }
        assert_eq!(taken, [8, 8, 3]);
        assert!(ring.claim(1, 32, &mut out, &mut rc, &mut sc).is_none());
        assert_eq!((sc.steal_tasks, sc.stolen_tuples), (3, 19));
        assert_eq!(sc.claim_rounds_empty, 1);
    }

    #[test]
    fn cross_shard_drain_preserves_global_arrival_order() {
        // Alternate keys across two shards, complete everything in a
        // scrambled order, and check the drain merges the shards back
        // into the global arrival order.
        let p = RangePartitioner::from_key_sample(2, &(0..100).collect::<Vec<Key>>());
        let boundary = p.boundaries()[0];
        let ring = ShardedRing::new(&config(2), 4, 64, Some(p));
        // Even arrivals low keys (shard 0), odd arrivals high keys (shard 1).
        assert_eq!(
            ingest_keys(&ring, 0, 40, |i| {
                if i % 2 == 0 {
                    boundary
                } else {
                    boundary + 1
                }
            }),
            40
        );
        let (mut rc, mut sc) = counters();
        let mut tasks = Vec::new();
        let mut claims = Vec::new();
        for home in [0usize, 1] {
            loop {
                let before = tasks.len();
                match ring.claim(home, 3, &mut tasks, &mut rc, &mut sc) {
                    Some(claim) => {
                        for t in &tasks[before..] {
                            claims.push((claim.shard, t.gid, t.tuple.seq));
                        }
                    }
                    None => break,
                }
            }
        }
        assert_eq!(claims.len(), 40);
        // Nothing completed yet: the merge cursor stops immediately.
        assert_eq!(
            ring.try_drain(false, |_, _| panic!("nothing done")),
            Some(0)
        );
        // Complete in a scrambled (reversed) order; the result count encodes
        // the arrival so the drain order is observable.
        for &(shard, gid, seq) in claims.iter().rev() {
            ring.complete(shard, gid, seq, Vec::new());
        }
        let mut drained = Vec::new();
        assert_eq!(ring.try_drain(false, |n, _| drained.push(n)), Some(40));
        assert_eq!(
            drained,
            (0..40).collect::<Vec<u64>>(),
            "drain must follow global arrival order across shards"
        );
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn drain_stops_at_the_earliest_incomplete_arrival() {
        let ring = ShardedRing::new(&config(2), 4, 16, None);
        assert_eq!(ingest_keys(&ring, 0, 4, |_| 0), 4); // rr: 0,1,0,1
        let (mut rc, mut sc) = counters();
        let mut tasks = Vec::new();
        let c0 = ring.claim(0, 4, &mut tasks, &mut rc, &mut sc).unwrap();
        assert!(!c0.stolen);
        let c1 = ring.claim(1, 4, &mut tasks, &mut rc, &mut sc).unwrap();
        assert!(!c1.stolen);
        // Complete everything except the very first arrival (shard 0, gid of
        // the task whose seq is 0).
        for t in &tasks {
            if t.tuple.seq == 0 {
                continue;
            }
            let shard = (t.tuple.seq % 2) as usize;
            ring.complete(shard, t.gid, t.tuple.seq, Vec::new());
        }
        assert_eq!(
            ring.try_drain(false, |_, _| panic!("arrival 0 still pending")),
            Some(0)
        );
        let first = tasks.iter().find(|t| t.tuple.seq == 0).unwrap();
        ring.complete(0, first.gid, 0, Vec::new());
        let mut order = Vec::new();
        assert_eq!(ring.try_drain(false, |n, _| order.push(n)), Some(4));
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ingest_guard_is_exclusive_and_routed_capacity_gates() {
        let ring = ShardedRing::new(&config(2), 2, 4, None);
        let mut guard = ring.try_ingest().expect("token free");
        assert!(ring.try_ingest().is_none(), "second global token denied");
        // Fill shard 0 (arrivals 0, 2, 4, 6 under round-robin: push only when
        // routed there).
        let mut pushed = 0;
        let mut arrival = 0u64;
        while pushed < 4 {
            let shard = guard.route(0);
            if shard == 0 {
                assert!(guard.can_push(0));
                guard.push(0, Tuple::r(arrival, 0), WindowBounds::empty());
                pushed += 1;
            } else {
                assert!(guard.can_push(1));
                guard.push(
                    1,
                    Tuple::new(StreamSide::S, arrival, 0),
                    WindowBounds::empty(),
                );
            }
            arrival += 1;
        }
        assert!(!guard.can_push(0), "shard 0 full");
        assert!(guard.can_push(1), "shard 1 still has room");
        drop(guard);
        assert!(ring.try_ingest().is_some(), "token released on drop");
    }

    #[test]
    // Multi-threaded spin-wait stress: impractically slow under Miri's
    // interpreter; the model checker covers the interleavings instead.
    #[cfg_attr(miri, ignore)]
    fn concurrent_sharded_claims_and_drains_account_every_tuple() {
        use std::sync::atomic::AtomicU64 as Counter;
        let ring = std::sync::Arc::new(ShardedRing::new(&config(4), 2, 64, None));
        let total = 20_000u64;
        let claimed = std::sync::Arc::new(Counter::new(0));
        let drained = std::sync::Arc::new(Counter::new(0));
        let counted = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8usize)
                .map(|worker| {
                    let ring = ring.clone();
                    let claimed = claimed.clone();
                    let drained = drained.clone();
                    scope.spawn(move || {
                        let (mut rc, mut sc) = counters();
                        let mut out = Vec::new();
                        loop {
                            out.clear();
                            if let Some(claim) = ring.claim(worker, 3, &mut out, &mut rc, &mut sc) {
                                for t in &out {
                                    ring.complete(claim.shard, t.gid, 1, Vec::new());
                                }
                                claimed.fetch_add(claim.tuples as u64, Ordering::Relaxed);
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
                        sc
                    })
                })
                .collect();
            let ring = ring.clone();
            scope.spawn(move || {
                let mut next = 0u64;
                while next < total {
                    if let Some(mut guard) = ring.try_ingest() {
                        while next < total {
                            let key = (next % 97) as Key;
                            let shard = guard.route(key);
                            if !guard.can_push(shard) {
                                break;
                            }
                            guard.push(shard, Tuple::r(next, key), WindowBounds::empty());
                            next += 1;
                        }
                    }
                    std::thread::yield_now();
                }
            });
            let mut counted = ShardCounters::default();
            for w in workers {
                counted.merge_from(&w.join().unwrap());
            }
            counted
        });
        assert_eq!(claimed.load(Ordering::Relaxed), total);
        assert_eq!(drained.load(Ordering::Relaxed), total);
        assert!(ring.is_empty());
        assert_eq!(
            counted.local_tuples + counted.stolen_tuples,
            total,
            "every claimed tuple is a home claim or a steal"
        );
    }
}
