//! The parallel shared-index window join engine (§4 of the paper), built on a
//! lock-free ring buffer for work distribution.
//!
//! Worker threads share both sliding windows and both indexes. Incoming
//! tuples are arranged in arrival order in a fixed-capacity MPMC task ring
//! ([`crate::ring::TaskRing`]); each worker repeatedly
//!
//! 1. **acquires a batch** — an equal share of the ring's available tuples,
//!    between one and four tasks of `task_size` — with a single bounded
//!    ticket-claim CAS; each slot carries the boundaries of the opposite
//!    window captured at ingestion,
//! 2. **generates results** by probing the opposite index for the already
//!    indexed window prefix and linearly scanning the window suffix past the
//!    *edge tuple* (the earliest non-indexed tuple) — the task's probe keys
//!    are sorted, deduplicated and answered with one software-prefetched
//!    CSS-Tree group descent per side; the answers arrive as sorted runs
//!    of index entries, which `generate` filters to each tuple's live window
//!    and either counts or materialises, decided once per batch,
//! 3. **publishes results** with one release store per slot (no lock), and
//!    **updates the index** with its tuples, trying to advance the edge, and
//! 4. **propagates results** of the completed ring prefix in arrival order:
//!    a try-token elects one draining worker which advances the cursor
//!    without ever blocking result generation.
//!
//! # How the ring replaces the shared work queue
//!
//! The original engine funnelled ingestion, acquisition, publication,
//! propagation and merge-horizon computation through one global mutex —
//! exactly the coordination cost the paper's shared-queue design is meant to
//! avoid. The ring splits those five concerns into independent lock-free
//! coordination points:
//!
//! * **Ingestion** happens behind a try-lock *ingest token*. Whichever
//!   worker finds the ring running low and wins the token batch-fills it:
//!   per tuple it checks admission control (the non-indexed window suffix
//!   stays bounded so probe scans stay short while merges defer index
//!   updates), snapshots the opposite window's bounds, appends to the own
//!   window, and publishes the slot. Losing the token means someone else is
//!   already supplying work, so the loser goes straight to claiming.
//! * **Acquisition** is a `compare_exchange` ticket claim over the ingested
//!   prefix — the only inter-worker contention on the fast path, measured by
//!   [`crate::stats::RingCounters::claim_retries`].
//! * **Propagation** advances a completed-prefix cursor. Ordering is
//!   structural: the cursor cannot pass an uncompleted slot, so results
//!   always leave in arrival order of the probing tuple.
//! * **The merge horizon** is folded from per-shard, per-side monotone
//!   counters maintained at claim time (see `merge_horizon`), instead of
//!   scanning every queued task under the queue lock.
//! * **Idle back-off** is adaptive (spin → yield → short park,
//!   [`crate::ring::Backoff`]) instead of a fixed 20µs sleep, so a worker
//!   that just missed work re-checks within nanoseconds.
//!
//! With `ShardConfig::shards > 1` the single ring becomes a
//! [`crate::shard::ShardedRing`]: per-NUMA-node ring shards behind a
//! key-range router ([`ParallelIbwj::with_partitioner`]), home-shard
//! claiming with one-task cross-shard steals, and a cross-shard merge
//! cursor that preserves global arrival-order propagation. One shard
//! short-circuits to the plain ring.
//!
//! With `ShardConfig::partition_index` on top, the *index and window state*
//! is partitioned as well ([`crate::store::ShardStore`]): each shard owns one
//! index plus one window slice per side covering only its key range, inserts
//! route to the owning shard, and probes fan out across exactly the shards
//! whose ranges overlap the band-join range — the paper's §7 NUMA design,
//! where each socket serves its key range from local memory. The same
//! partitioner drives ring routing and store placement, so a worker's home
//! ring shard and home store shard coincide.
//!
//! # Invariants
//!
//! * Claimed slot ids are strictly increasing per the ticket counter; a slot
//!   is owned by exactly one worker between claim and publication.
//! * A task's probe sees every opposite-window tuple inside its bounds
//!   snapshot: tuples before the edge snapshot via the index, the rest via
//!   the linear window scan (an outdated edge only lengthens the scan).
//! * The engine's gate/in-flight handshake (`SeqCst` store-then-load on both
//!   sides) guarantees a merging thread observes either the gate stopping a
//!   worker's claim or that worker's task in `in_flight` — never neither.
//! * Merging with `merge_horizon` never drops an index entry that any
//!   claimed or future task may still probe: unclaimed tasks of a side have
//!   bounds at least as large as the last claimed one (windows only grow and
//!   ingestion is in arrival order), and the horizon additionally floors at
//!   the side's earliest live tuple.
//!
//! Index maintenance (the PIM-Tree merge) is coordinated by whichever worker
//! notices that the merge threshold has been reached: the two-phase
//! *non-blocking merge* of §4.2 lets the other workers keep joining (without
//! index updates) while the new `TS` is being built, whereas the blocking
//! variant (kept for the Figure 13c ablation) stalls all workers for the
//! duration of the merge.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use pimtree_btree::Entry;
use pimtree_common::{
    BandPredicate, JoinConfig, JoinResult, Key, KeyRange, LatencyHistogram, MergePolicy, Seq,
    StreamSide, Tuple,
};
use pimtree_numa::{DriftMonitor, RangePartitioner};
use pimtree_window::WindowBounds;

use crate::gate::QuiesceGate;
use crate::index;
use crate::ring::{Backoff, ClaimedTask, IdleKind};
use crate::shard::ShardedRing;
use crate::stats::{lap, JoinRunStats, MigrationCounters, StallCause, StallLap};
use crate::store::{ShardStore, StoreParams};

/// How many ring tasks (`task_size` tuples each) one claim may take when the
/// ring is deep enough to leave every worker as much. `task_size` stays the
/// unit of work *distribution*; the batch a worker pushes through `generate`
/// and `insert_batch` follows the ring's depth up to this factor, so the
/// per-visit fixed cost (gate, generation locks, edge and sink try-locks,
/// claim bookkeeping, clock reads) is paid once per batch. A factor of 8
/// measured 1–4 % over 4 and lengthens every batch's suffix scan.
const CLAIM_DEPTH: usize = 4;

/// Cost gate on plan adoption: a plan whose moved fraction of the observed
/// weight exceeds this is not worth its data transfer and is rejected.
const COST_GATE: f64 = 0.9;

/// Which shared index the parallel engine maintains over each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedIndexKind {
    /// The PIM-Tree with the configured merge policy.
    PimTree,
    /// The Bw-Tree-style general-purpose concurrent index (no merges; expired
    /// tuples are deleted eagerly with a small lag).
    BwTree,
}

/// Per-shard, per-probe-side bookkeeping that makes the merge horizon a
/// handful of atomic reads.
///
/// `last_claimed_bound` is a running maximum over the bounds of every claimed
/// task of one shard and side. Because both window heads only grow and tuples
/// are ingested in arrival order, the bounds stored in a shard's slots are
/// non-decreasing in slot id per side (each shard receives a subsequence of
/// the global arrival order); a shard's claims take its slot ids in order, so
/// every *unclaimed* task of the side on that shard has bounds at least this
/// large — which makes the value a safe (conservative) stand-in for "the
/// oldest sequence number any pending task of this side on this shard may
/// still probe". Claims across shards are not ordered, so the counters must
/// stay per shard and the global horizon is their fold (minimum).
#[derive(Debug, Default)]
struct ClaimMeta {
    /// Tuples ingested whose probe targets this side.
    ingested: AtomicU64,
    /// Tuples claimed whose probe targets this side.
    claimed: AtomicU64,
    /// Maximum `bounds.earliest` over claimed tuples of this side.
    last_claimed_bound: AtomicU64,
}

/// Shared drift-monitoring state of the live-repartition path, behind one
/// mutex: the worker draining the ring feeds it one `(key, match count)`
/// observation per propagated tuple — in arrival order, so the sample does
/// not depend on how the workers' claims carved the input up — and the
/// periodic drift check turns a triggering sample into a `pending` plan that
/// whichever worker next passes the maintenance point adopts.
struct DriftState {
    monitor: DriftMonitor,
    /// The partitioner currently driving ring routing and store placement —
    /// what `should_repartition` measures drift against.
    partitioner: RangePartitioner,
    /// A plan that cleared the trigger and the cost gate, awaiting adoption
    /// at the next quiesce point.
    pending: Option<RangePartitioner>,
    /// Observations since the last drift check (the O(window) imbalance fold
    /// runs every `check_interval` observations, not per task).
    since_check: usize,
    /// Observations between drift checks
    /// ([`DriftConfig::check_interval`](pimtree_common::DriftConfig::check_interval)).
    check_interval: usize,
}

/// Open-loop arrival pacing for the SLO harness: tuple `measured_from + i`
/// of the input becomes *available* at `base + i * nanos_per_tuple`, and its
/// end-to-end latency is measured from that virtual arrival to the moment
/// the propagating worker drains its slot — so queueing delay behind a
/// stalled engine counts, unlike the closed-loop task latency.
struct OpenLoopPacing {
    base: Instant,
    nanos_per_tuple: u64,
    measured_from: usize,
}

/// What every worker reads per tuple or per acquire and nobody writes while
/// workers run ([`Shared::params`]).
struct Params<'a> {
    input: &'a [Tuple],
    /// Exclusive upper bound on the input positions this batch may ingest.
    /// The warmup phase of a measured run processes a prefix of the input
    /// under the same engine state, then the limit is raised to the full
    /// length for the measured phase.
    ingest_limit: usize,
    predicate: BandPredicate,
    threads: usize,
    task_size: usize,
    /// How many available (not yet claimed) tuples an acquiring worker tries
    /// to keep in the ring: ingesting in bulk keeps every worker supplied
    /// without re-contending on the ingest token for every task, and the
    /// depth it maintains is what sizes a claim (see [`claim_bound`]).
    ingest_target: usize,
    /// Upper bound on the non-indexed window suffix (head minus edge tuple)
    /// admitted per side. Without a bound, the tuples processed while a merge
    /// defers index updates pile up un-indexed and every probe's linear scan
    /// grows with them — quadratic work that flattens multithreaded scaling
    /// and blows up latency. Ingestion stalls briefly once the bound is hit;
    /// the backlog drains as soon as the merge finishes replaying its pending
    /// updates.
    max_unindexed: usize,
    self_join: bool,
    merge_policy: MergePolicy,
    collect_results: bool,
}

/// The propagating worker's state, written once per drain and only by the
/// holder of the sink lock.
struct Drain {
    /// Slots drained so far over both phases. Slots drain in global arrival
    /// order, so this is the input position of the next slot to drain: it
    /// pairs a drained slot with its key for the drift monitor and with its
    /// virtual arrival time under open-loop pacing.
    pos: AtomicUsize,
    /// Result sink `(count, collected results)`. Its try-lock doubles as the
    /// election of the propagating worker, exactly like the paper's
    /// test-and-set scheme; the ring's internal drain token additionally
    /// protects the cursor, so the two can never disagree.
    sink: Mutex<(u64, Vec<JoinResult>)>,
}

/// The engine state all workers share. Its layout is part of its contract:
/// `params` is read on every acquire and per tuple, while `next_ingest`,
/// `drain` and `arrival_latency` are each written by one worker at a time
/// (per fill, per drain, per drained slot under open-loop pacing). Each of
/// the four is `CachePadded`, so no write lands on a line the readers need:
/// rustc's field order does not keep them apart, and a shared line costs
/// every acquire a coherence miss (`tests::hot_fields_sit_on_lines_of_their_own`).
struct Shared<'a> {
    params: CachePadded<Params<'a>>,
    /// Per-side index and window state: one shared pair per side, or — with
    /// `partition_index` on and several shards — one pair per shard behind a
    /// key-range partitioner (see [`crate::store`]).
    store: ShardStore,

    ring: ShardedRing,
    /// Next input position to ingest; written only under the ingest token.
    next_ingest: CachePadded<AtomicUsize>,
    /// Per-shard, per-probe-side claim progress for the O(shards) merge
    /// horizon (see [`merge_horizon`]): claims within one shard take slot ids
    /// in order, so the per-shard running maxima stay safe stand-ins for
    /// that shard's unclaimed bounds even though claims across shards are
    /// not globally ordered.
    claim_meta: Vec<[ClaimMeta; 2]>,
    /// The migration quiesce gate: stops task acquisition while a merge
    /// phase transition or repartition is pending and drains the in-flight
    /// count (see [`QuiesceGate`] for the handshake). Every task writes it
    /// twice, so it gets a line of its own: sharing one with a lock the
    /// drainer takes on every drain (`arrival_latency` under open-loop
    /// pacing) turned those writes into misses.
    gate: CachePadded<QuiesceGate>,
    /// Set per side while a non-blocking merge is in phase 1: workers buffer
    /// their index updates instead of applying them.
    no_index_updates: [AtomicBool; 2],
    pending: [Mutex<Vec<(Key, Seq)>>; 2],
    merge_claimed: AtomicBool,
    /// Drift monitoring for live repartition adoption; `None` when the
    /// feature is off (or the engine runs unsharded / unrouted), in which
    /// case the whole path costs one branch per task.
    drift: Option<Mutex<DriftState>>,
    /// Test/bench hook: adopt this partitioner once the ingest cursor passes
    /// the given input position, regardless of observed drift.
    forced_repartition: Option<(usize, RangePartitioner)>,
    forced_done: AtomicBool,
    /// Mirrors `DriftState::pending.is_some()` so the workers' per-loop
    /// "anything to adopt?" peek is one relaxed load instead of a try-lock
    /// that would contend with (and starve) the observation flush path.
    repartition_pending: AtomicBool,
    /// Open-loop arrival pacing; `None` runs closed-loop (as fast as the
    /// engine admits). Armed for the measured phase only.
    open_loop: Option<OpenLoopPacing>,
    drain: CachePadded<Drain>,
    /// End-to-end arrival→drain latency histogram (open-loop runs only).
    arrival_latency: CachePadded<Mutex<LatencyHistogram>>,
    /// Each worker's own counters, pushed once when it exits; the run sums
    /// them with [`JoinRunStats::absorb`].
    worker_stats: Mutex<Vec<JoinRunStats>>,
    /// Raised by a worker that unwinds. Its claimed slots never complete and
    /// its gate admission is never returned, so `is_finished` and
    /// `in_flight == 0` can no longer come true: every wait on either also
    /// watches this flag and gives up. Publishes no data (`SeqCst` is for
    /// simplicity; the flag is read on idle and quiesce paths only).
    poisoned: AtomicBool,
    #[cfg(test)]
    fault_at: Option<u64>,
    #[cfg(test)]
    merge_storm: bool,
}

impl<'a> Shared<'a> {
    #[inline]
    fn own_idx(&self, side: StreamSide) -> usize {
        if self.params.self_join {
            0
        } else {
            side.index()
        }
    }

    #[inline]
    fn probe_idx(&self, side: StreamSide) -> usize {
        if self.params.self_join {
            0
        } else {
            side.opposite().index()
        }
    }

    #[inline]
    fn matched_side(&self, side: StreamSide) -> StreamSide {
        if self.params.self_join {
            StreamSide::R
        } else {
            side.opposite()
        }
    }
}

/// The parallel index-based window join operator.
#[derive(Debug, Clone)]
pub struct ParallelIbwj {
    config: JoinConfig,
    predicate: BandPredicate,
    kind: SharedIndexKind,
    self_join: bool,
    collect_results: bool,
    partitioner: Option<RangePartitioner>,
    forced_repartition: Option<(usize, RangePartitioner)>,
    open_loop_rate: Option<f64>,
    /// Fault hook: the worker that claims this ring slot panics.
    #[cfg(test)]
    fault_at: Option<u64>,
    /// Merge hook: see [`merge_storm`].
    #[cfg(test)]
    merge_storm: bool,
    /// Ring hook: the ring's total capacity in slots instead of the automatic
    /// one (0 keeps it), so that tests can recycle every slot many times.
    #[cfg(test)]
    ring_capacity: usize,
}

impl ParallelIbwj {
    /// Creates the operator. `config.threads` worker threads are used,
    /// `config.pim` configures the PIM-Tree (including its merge policy),
    /// `config.ingest_target` sets the ring's fill target, and
    /// `config.shard` shards the ring across simulated NUMA nodes.
    ///
    /// # Panics
    ///
    /// Panics with the [`InvalidConfig`](pimtree_common::Error::InvalidConfig)
    /// message when `config` does not validate.
    pub fn new(
        config: JoinConfig,
        predicate: BandPredicate,
        kind: SharedIndexKind,
        self_join: bool,
    ) -> Self {
        config.validate().expect("invalid join configuration");
        ParallelIbwj {
            config,
            predicate,
            kind,
            self_join,
            collect_results: false,
            partitioner: None,
            forced_repartition: None,
            open_loop_rate: None,
            #[cfg(test)]
            fault_at: None,
            #[cfg(test)]
            merge_storm: false,
            #[cfg(test)]
            ring_capacity: 0,
        }
    }

    /// Paces ingestion as an open-loop arrival process at `rate` tuples per
    /// second: measured-phase tuple `i` only becomes available for ingestion
    /// at its virtual arrival time `i / rate`, and the reported
    /// [`JoinRunStats::arrival_latency`] histogram measures arrival →
    /// propagation per tuple — so time spent queued behind a stalled or
    /// saturated engine counts toward the tail, which a closed-loop run
    /// hides (coordinated omission).
    pub fn with_open_loop(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "open-loop arrival rate must be positive"
        );
        self.open_loop_rate = Some(rate);
        self
    }

    /// Collect result tuples (for tests); by default only counts are kept.
    pub fn with_collected_results(mut self, collect: bool) -> Self {
        self.collect_results = collect;
        self
    }

    /// Routes ingestion by key range: each tuple is ingested on the ring
    /// shard owning its key interval instead of round-robin. The
    /// partitioner's node count must equal `config.shard.shards`.
    pub fn with_partitioner(mut self, partitioner: RangePartitioner) -> Self {
        assert_eq!(
            partitioner.nodes(),
            self.config.shard.shards,
            "partitioner and shard config disagree on the shard count"
        );
        self.partitioner = Some(partitioner);
        self
    }

    /// Forces a repartition epoch mid-run: once ingestion passes input
    /// position `at`, the engine quiesces, adopts `partitioner` (ring
    /// routing plus, under the partitioned store, a full shard-state
    /// migration) and resumes — regardless of observed drift. The test and
    /// bench hook behind the differential suites' forced-epoch arms: it
    /// exercises the exact epoch protocol the drift trigger uses, at a
    /// deterministic point. The partitioner's node count must equal
    /// `config.shard.shards`.
    pub fn with_forced_repartition(mut self, at: usize, partitioner: RangePartitioner) -> Self {
        assert_eq!(
            partitioner.nodes(),
            self.config.shard.shards,
            "partitioner and shard config disagree on the shard count"
        );
        self.forced_repartition = Some((at, partitioner));
        self
    }

    /// Runs the join over a tuple sequence, returning statistics and (when
    /// enabled) the results in arrival order of the probing tuple.
    pub fn run(&self, tuples: &[Tuple]) -> (JoinRunStats, Vec<JoinResult>) {
        self.run_with_warmup(tuples, 0)
    }

    /// Runs the join over a tuple sequence, excluding the first `warmup`
    /// tuples from the reported statistics.
    ///
    /// The warmup prefix is processed by the same engine state (windows fill
    /// up, the PIM-Tree goes through its first merge and gains its partition
    /// structure), mirroring how the single-threaded operators are measured
    /// after their windows are warm. Timing, throughput and per-phase counters
    /// cover only the remaining tuples; the result stream (when collection is
    /// enabled) still contains every match, including those produced during
    /// warmup, so correctness checks can cover the whole sequence.
    pub fn run_with_warmup(
        &self,
        tuples: &[Tuple],
        warmup: usize,
    ) -> (JoinRunStats, Vec<JoinResult>) {
        self.run_inner(tuples, warmup, None)
    }

    /// Runs the join like [`ParallelIbwj::run_with_warmup`] and hands the
    /// engine's [`ShardStore`] to `inspect` after the run, before teardown —
    /// the hook the per-shard footprint tests use to assert that a shard's
    /// index and window never hold a key outside its range.
    pub fn run_with_store_inspector(
        &self,
        tuples: &[Tuple],
        warmup: usize,
        inspect: impl FnOnce(&ShardStore),
    ) -> (JoinRunStats, Vec<JoinResult>) {
        let mut inspect = Some(inspect);
        self.run_inner(
            tuples,
            warmup,
            Some(&mut |shared: &Shared<'_>| {
                if let Some(f) = inspect.take() {
                    f(&shared.store);
                }
            }),
        )
    }

    fn run_inner(
        &self,
        tuples: &[Tuple],
        warmup: usize,
        inspect: Option<&mut dyn FnMut(&Shared<'_>)>,
    ) -> (JoinRunStats, Vec<JoinResult>) {
        let warmup = warmup.min(tuples.len());
        let threads = self.config.threads;
        let task_size = self.config.task_size;
        let shards = self.config.shard.shards;
        let ring_cap = (threads * task_size * 64).max(4096);
        #[cfg(test)]
        let ring_cap = match self.ring_capacity {
            0 => ring_cap,
            cap => cap,
        };
        // The capacity is the *total* across shards; each shard gets an equal
        // slice, floored so that every shard has room for a whole task even
        // when there are many shards (or the test hook's tiny ring).
        let per_shard_cap = (ring_cap / shards)
            .max(2 * task_size)
            .max(4)
            .next_power_of_two();
        // One partitioner drives both layers: ring-shard routing and (with
        // `partition_index` on) the per-shard index/window placement, so a
        // worker's home ring shard and home store shard coincide. When the
        // partitioned store is requested without an explicit partitioner,
        // one is derived from the input's key sample (the same policy the
        // bench harness applies to ring routing). Drift-driven repartitioning
        // needs a key-range router to measure drift against, so `--repartition
        // on` derives one too.
        let partitioned = self.config.shard.partition_index && shards > 1;
        let drift_on = self.config.drift.repartition && shards > 1;
        let partitioner = match (&self.partitioner, partitioned || drift_on) {
            (Some(p), _) => Some(p.clone()),
            (None, true) => {
                // A bounded strided subsample picks (nearly) the same
                // boundaries as the full key set at O(1) memory — the
                // partitioner only needs N − 1 quantiles, not every key.
                let step = (tuples.len() / 4096).max(1);
                let sample: Vec<Key> = tuples.iter().step_by(step).map(|t| t.key).collect();
                Some(RangePartitioner::from_key_sample(shards, &sample))
            }
            (None, false) => None,
        };
        let ring = ShardedRing::new(
            &self.config.shard,
            task_size,
            per_shard_cap,
            partitioner.clone(),
        );
        // Total capacity across shards: the bound on how far any in-flight
        // task can lag the ingest frontier.
        let ring_cap = ring.capacity();
        let ingest_target = if self.config.ingest_target > 0 {
            self.config.ingest_target.min(ring_cap)
        } else {
            // Deep enough for every worker to claim `CLAIM_DEPTH` tasks at a
            // visit. Upper bound floors at task_size so a tiny ring (capacity
            // down to 2 * task_size) cannot invert the clamp.
            (CLAIM_DEPTH * threads * task_size).clamp(task_size, (ring_cap / 4).max(task_size))
        };
        // The un-indexed suffix in steady state is what waits in the ring
        // plus what the workers hold claimed; the admission bound sits at
        // four times that (floored for small engines) so that it only binds
        // while a merge defers index updates, never on the normal depth.
        let in_flight = threads * claim_bound(ingest_target, threads, task_size);
        let max_unindexed = (4 * (ingest_target + in_flight)).max(1024);
        // The window must keep slots readable well past expiry: in-flight
        // tasks reach back up to one ring capacity of ingests, and the
        // Bw-Tree's eager expiry deletion reads keys of tuples that can lag
        // the head by the admission bound plus a window plus a ring lap —
        // so the slack budgets for both the ring and the admission bound.
        let slack = 2 * ring_cap + max_unindexed + 1024;

        let window_sizes = if self.self_join {
            [self.config.window_r, 1]
        } else {
            [self.config.window_r, self.config.window_s]
        };
        let mut pim_cfg = self.config.pim;
        pim_cfg.window_size = self.config.max_window();
        let store = ShardStore::new(
            StoreParams {
                kind: self.kind,
                pim: pim_cfg,
                window_sizes,
                slack,
                deletion_lag: ring_cap as u64,
            },
            partitioned.then(|| {
                partitioner
                    .clone()
                    .expect("partitioned store needs a partitioner")
            }),
        );

        let mut shared = Shared {
            params: CachePadded::new(Params {
                input: tuples,
                ingest_limit: if warmup > 0 { warmup } else { tuples.len() },
                predicate: self.predicate,
                threads,
                task_size,
                self_join: self.self_join,
                ingest_target,
                max_unindexed,
                merge_policy: self.config.pim.merge_policy,
                collect_results: self.collect_results,
            }),
            store,
            ring,
            next_ingest: CachePadded::new(AtomicUsize::new(0)),
            claim_meta: (0..shards).map(|_| Default::default()).collect(),
            gate: CachePadded::new(QuiesceGate::new()),
            no_index_updates: [AtomicBool::new(false), AtomicBool::new(false)],
            pending: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            merge_claimed: AtomicBool::new(false),
            drift: if drift_on {
                partitioner.clone().map(|p| {
                    Mutex::new(DriftState {
                        monitor: DriftMonitor::new(self.config.drift.window),
                        partitioner: p,
                        pending: None,
                        since_check: 0,
                        check_interval: self.config.drift.check_interval(),
                    })
                })
            } else {
                None
            },
            forced_repartition: self.forced_repartition.clone(),
            forced_done: AtomicBool::new(false),
            repartition_pending: AtomicBool::new(false),
            open_loop: None,
            drain: CachePadded::new(Drain {
                pos: AtomicUsize::new(0),
                sink: Mutex::new((0, Vec::new())),
            }),
            arrival_latency: CachePadded::new(Mutex::new(LatencyHistogram::new())),
            worker_stats: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            #[cfg(test)]
            fault_at: self.fault_at,
            #[cfg(test)]
            merge_storm: self.merge_storm,
        };

        // Warmup phase: process the prefix with the same engine state, then
        // discard the counters it accumulated (results are kept). Every
        // count is a worker's own, so dropping the workers' stats drops all
        // of them; merges and epochs adopted during warmup keep their effect
        // (the partitioner stays adopted) but are not reported. An armed
        // forced plan and a merge that the prefix's last tasks made due are
        // warm-up work too: the last worker out can find the maintenance
        // claim held and exit, so both run here, the epoch first, before
        // the measured clock starts.
        let mut warmup_results = Vec::new();
        if warmup > 0 {
            run_workers(&shared, threads);
            let mut discarded = JoinRunStats::default();
            adopt_armed_forced_plan(&shared, &mut discarded);
            while merge_due(&shared, 0, &mut discarded) {}
            shared.worker_stats.lock().clear();
            let (_, results) = std::mem::take(&mut *shared.drain.sink.lock());
            warmup_results = results;
            shared.params.ingest_limit = tuples.len();
        }

        let measured = (tuples.len() - warmup) as u64;
        let start = Instant::now();
        // Open-loop pacing covers the measured phase only: warmup fills the
        // windows as fast as the engine admits, then the arrival clock
        // starts with the measurement.
        shared.open_loop = self.open_loop_rate.map(|rate| OpenLoopPacing {
            base: start,
            nanos_per_tuple: (1.0e9 / rate).round().max(0.0) as u64,
            measured_from: warmup,
        });
        run_workers(&shared, threads);
        let elapsed = start.elapsed();

        let mut stats = JoinRunStats::default();
        for w in shared.worker_stats.lock().iter() {
            stats.absorb(w);
        }
        // A forced plan armed in the input's tail is adopted before the
        // store is inspected, so post-run state always respects it.
        adopt_armed_forced_plan(&shared, &mut stats);
        stats.tuples = measured;
        stats.elapsed = elapsed;
        stats.shard.shards = shared.ring.shards() as u64;
        if shared.store.is_partitioned() {
            stats.store.partitioned = 1;
            stats.store.store_shards = shared.store.shards() as u64;
        }
        if shared.open_loop.is_some() {
            stats.arrival_latency = Some(std::mem::take(&mut *shared.arrival_latency.lock()));
        }
        stats.migration.enabled =
            (shared.drift.is_some() || shared.forced_repartition.is_some()) as u64;
        if let Some(inspect) = inspect {
            inspect(&shared);
        }
        let (count, results) = std::mem::take(&mut *shared.drain.sink.lock());
        stats.results = count;
        if self.collect_results {
            warmup_results.extend(results);
            (stats, warmup_results)
        } else {
            (stats, results)
        }
    }
}

// ------------------------------------------------------------------ worker

/// Buffers reused across tasks by one worker so that the steady-state path
/// performs no heap allocation per tuple.
struct WorkerScratch {
    /// Tuples of the current task, straight out of the ring claim.
    items: Vec<ClaimedTask>,
    /// The ring shard the current task was claimed from (home or victim);
    /// slot completion must go back to the same shard.
    task_shard: usize,
    /// Tuples destined for each side's index, inserted as one batch per task.
    inserts: [Vec<(Key, Seq)>; 2],
    /// This task's probe ranges, grouped per probe-side index.
    probe_ranges: [Vec<KeyRange>; 2],
    /// The opposite-window bounds snapshot behind each entry of
    /// `probe_ranges`.
    probe_bounds: [Vec<WindowBounds>; 2],
    /// The item index behind each entry of `probe_ranges`.
    probe_items: [Vec<usize>; 2],
    /// Per-item match counts.
    counts: Vec<u64>,
    /// Per-item collected results (moved into the ring slot when the item
    /// completes).
    collected: Vec<Vec<JoinResult>>,
    /// Tuples one ingest fill pushed per (shard, probe side), published to
    /// `claim_meta` once at the end of the fill.
    ingested: Vec<[u64; 2]>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            items: Vec::new(),
            task_shard: 0,
            inserts: [Vec::new(), Vec::new()],
            probe_ranges: [Vec::new(), Vec::new()],
            probe_bounds: [Vec::new(), Vec::new()],
            probe_items: [Vec::new(), Vec::new()],
            counts: Vec::new(),
            collected: Vec::new(),
            ingested: Vec::new(),
        }
    }
}

/// Runs `threads` workers over `shared` until the input is drained, then
/// re-raises the first worker panic, once every worker has exited. The
/// poison flag is what lets the surviving workers, and so this wait, come
/// to an end.
fn run_workers(shared: &Shared<'_>, threads: usize) {
    let outcome = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| scope.spawn(move || worker_loop(shared, worker)))
            .collect();
        let mut outcome = Ok(());
        for handle in workers {
            let joined = handle.join();
            if outcome.is_ok() {
                outcome = joined;
            }
        }
        outcome
    });
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
}

/// Raises the poison flag when the worker it lives in unwinds.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

fn worker_loop(shared: &Shared<'_>, worker: usize) {
    let mut local = JoinRunStats::default();
    let mut scratch = WorkerScratch::new();
    let mut backoff = Backoff::default();
    // Workers are pinned round-robin to a home shard; on a real NUMA host
    // this is where the worker's thread would also be pinned to the shard's
    // socket.
    let home = worker % shared.ring.shards();
    let _poison = PoisonOnPanic(&shared.poisoned);
    let mut mark = Instant::now();
    loop {
        // Maintenance is accounted for on its own (`merge_time`, the
        // migration stall totals), not as one of the five phases; a visit
        // that found nothing to do is a few loads and rides on `acquire`.
        let maintained = maybe_repartition(shared, &mut local);
        if maybe_merge(shared, home, &mut local) || maintained {
            mark = Instant::now();
        }
        let acquired = acquire_task(shared, home, &mut scratch, &mut local);
        local.phase.acquire += lap(&mut mark);
        if acquired {
            process_task(shared, home, &mut mark, &mut scratch, &mut local);
            shared.gate.exit();
            backoff.reset();
            propagate(shared, &mut local);
            local.phase.propagate += lap(&mut mark);
        } else {
            propagate(shared, &mut local);
            local.phase.propagate += lap(&mut mark);
            if is_finished(shared) || shared.poisoned.load(Ordering::SeqCst) {
                break;
            }
            // Nothing to do right now (gate closed, ring momentarily empty,
            // or ingestion paused by admission control). Retry the edge
            // advancement — a lost try-lock race must not leave the edge
            // stale with no indexing work left to trigger another attempt —
            // then back off adaptively instead of hammering the shared
            // counters that the productive workers need.
            shared.store.try_advance_edge(0);
            if !shared.params.self_join {
                shared.store.try_advance_edge(1);
            }
            match backoff.idle() {
                IdleKind::Spin => local.ring.idle_spins += 1,
                IdleKind::Yield => local.ring.idle_yields += 1,
                IdleKind::Park => local.ring.idle_parks += 1,
            }
            local.phase.idle += lap(&mut mark);
        }
    }
    shared.worker_stats.lock().push(local);
}

fn is_finished(shared: &Shared<'_>) -> bool {
    shared.next_ingest.load(Ordering::Acquire) == shared.params.ingest_limit
        && shared.ring.is_empty()
}

/// Tries to acquire a task from the ring, topping the ring up through the
/// ingest token when it runs low.
///
/// The `in_flight` increment happens *before* the gate check while the
/// merging thread stores the gate *before* reading `in_flight` (both
/// `SeqCst`): in every interleaving the merger either sees this worker's
/// increment and waits, or the worker sees the closed gate and backs out —
/// a claim can never slip past a closing gate unnoticed.
fn acquire_task(
    shared: &Shared<'_>,
    home: usize,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
) -> bool {
    if !shared.gate.try_enter() {
        return false;
    }
    let mut available = shared.ring.available();
    if available < shared.params.ingest_target {
        try_ingest(shared, &mut scratch.ingested, local);
        available = shared.ring.available();
    }
    scratch.items.clear();
    let Some(claim) = shared.ring.claim(
        home,
        claim_bound(available, shared.params.threads, shared.params.task_size),
        &mut scratch.items,
        &mut local.ring,
        &mut local.shard,
    ) else {
        shared.gate.exit();
        return false;
    };
    scratch.task_shard = claim.shard;
    // Record claim progress per (shard, probe side) for the O(shards) merge
    // horizon, one maximum and one count per side for the whole claim. This
    // happens while the task is counted in `in_flight`, so a merger that
    // observed quiescence is guaranteed to see it.
    let mut claimed = [(0u64, 0u64); 2];
    for task in &scratch.items {
        let (n, bound) = &mut claimed[shared.probe_idx(task.tuple.side)];
        *n += 1;
        *bound = (*bound).max(task.bounds.earliest);
    }
    for (meta, (n, bound)) in shared.claim_meta[claim.shard].iter().zip(claimed) {
        if n > 0 {
            meta.last_claimed_bound.fetch_max(bound, Ordering::AcqRel);
            meta.claimed.fetch_add(n, Ordering::Release);
        }
    }
    true
}

/// How many tuples one claim may take from a ring holding `available`: an
/// equal share of what is there, never less than one task (a shallow ring —
/// low offered load, end of input — hands out what it has, so latency at low
/// load is that of `task_size`) and never more than [`CLAIM_DEPTH`] tasks.
/// With `ingest_target = threads * task_size` the ring never holds more than
/// a task per worker and every claim is the paper's fixed-size task.
fn claim_bound(available: usize, threads: usize, task_size: usize) -> usize {
    (available / threads).clamp(task_size, CLAIM_DEPTH * task_size)
}

/// Batch-fills the ring through the ingest token (no-op when another worker
/// holds it). Admission control and window appends keep the exact semantics
/// of the mutex-based engine: the opposite window's bounds are snapshotted
/// *before* the tuple is appended to its own window (which matters for
/// self-joins), and ingestion stalls while a window's non-indexed suffix
/// exceeds its bound. Each tuple is routed to the ring shard owning its key
/// range (round-robin without a partitioner); a full *routed* shard stalls
/// ingestion entirely, because admitting later arrivals on other shards
/// would break the global arrival order the merge cursor relies on.
///
/// The shared counters a fill advances — `claim_meta`'s ingested counts, the
/// input cursor and the ring's available total — are published once per
/// fill, not once per tuple: only the token holder advances them, and the
/// only reader that needs them exact, [`merge_horizon`], runs quiesced,
/// while a fill runs inside its worker's gate admission. `ingested` is
/// scratch for the fill's per-(shard, side) counts.
fn try_ingest(shared: &Shared<'_>, ingested: &mut Vec<[u64; 2]>, local: &mut JoinRunStats) {
    let Some(mut guard) = shared.ring.try_ingest() else {
        local.ring.ingest_token_contended += 1;
        return;
    };
    // The budgets of this token hold, read once: concurrent claims and edge
    // advances only widen them, so a fill sized on the values at entry never
    // overshoots the target or the admission bound — it may stop short, and
    // the next visit tops the ring up.
    let room = shared
        .params
        .ingest_target
        .saturating_sub(shared.ring.available());
    let mut admit = [0, 1].map(|side| {
        (shared.params.max_unindexed as u64).saturating_sub(shared.store.unindexed_len(side))
    });
    let start = shared.next_ingest.load(Ordering::Relaxed);
    let end = shared.params.ingest_limit.min(start + room);
    ingested.clear();
    ingested.resize(shared.ring.shards(), [0; 2]);
    let mut pos = start;
    while pos < end {
        // Open-loop pacing: a tuple whose virtual arrival time has not come
        // yet is simply not available — the worker goes back to draining
        // whatever is queued (arrival order is preserved because ingestion
        // is sequential in `pos`).
        if let Some(ol) = &shared.open_loop {
            if pos >= ol.measured_from {
                let due =
                    ((pos - ol.measured_from) as u64).saturating_mul(ol.nanos_per_tuple) as u128;
                if ol.base.elapsed().as_nanos() < due {
                    break;
                }
            }
        }
        let t = shared.params.input[pos];
        // Capacity of the routed shard is checked before the window append so
        // that a published window tuple is always matched by a published ring
        // slot.
        let shard = guard.route(t.key);
        if !guard.can_push(shard) {
            if shared.ring.shards() > 1 {
                local.shard.shard_full_stalls += 1;
            }
            break;
        }
        let own = shared.own_idx(t.side);
        if admit[own] == 0 {
            local.ring.ingest_stalls += 1;
            break;
        }
        admit[own] -= 1;
        let probe = shared.probe_idx(t.side);
        let bounds = shared.store.bounds(probe);
        let seq = shared
            .store
            .append(own, t.key)
            .expect("sliding window slack exhausted");
        assert_eq!(
            seq, t.seq,
            "input sequence numbers must match arrival order"
        );
        guard.push(shard, t, bounds);
        ingested[shard][probe] += 1;
        pos += 1;
    }
    if pos == start {
        return;
    }
    for (meta, counts) in shared.claim_meta.iter().zip(ingested.iter()) {
        for (meta, &n) in meta.iter().zip(counts) {
            if n > 0 {
                meta.ingested.fetch_add(n, Ordering::Release);
            }
        }
    }
    shared.next_ingest.store(pos, Ordering::Release);
    local.ring.ingest_batches += 1;
    // Dropping the guard publishes the fill to the ring's available total.
}

/// Steps 2 and 3 of a claimed task. `mark` is the moment the task was
/// acquired; on return it is the moment its index update finished.
fn process_task(
    shared: &Shared<'_>,
    home: usize,
    mark: &mut Instant,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
) {
    let entry_bytes = std::mem::size_of::<Entry>() as u64;
    #[cfg(test)]
    if scratch
        .items
        .iter()
        .any(|task| Some(task.gid) == shared.fault_at)
    {
        panic!("injected worker fault");
    }
    // Step 2: result generation. Each tuple's results are published to its
    // ring slot with a single release store the moment they are ready, so
    // the draining worker can start propagating the prefix while this task
    // is still working on its remaining tuples.
    generate(shared, home, scratch, local);
    let generate_span = lap(mark);
    local.phase.generate += generate_span;
    // Latency is the task processing time (§5): acquisition to results
    // ready, which is the span just measured.
    local
        .latency
        .record_n(generate_span, scratch.items.len() as u64);
    // Step 3: index update, batched per side so the generation lock and the
    // shared counters are touched once per task instead of once per tuple.
    // The store routes each entry to the shard owning its key, retires newly
    // expired entries of eager-deletion backends, marks the inserted tuples
    // indexed and advances the edge(s).
    scratch.inserts[0].clear();
    scratch.inserts[1].clear();
    for &ClaimedTask { tuple, .. } in &scratch.items {
        let own = shared.own_idx(tuple.side);
        if shared.no_index_updates[own].load(Ordering::Acquire) {
            shared.pending[own].lock().push((tuple.key, tuple.seq));
        } else {
            scratch.inserts[own].push((tuple.key, tuple.seq));
        }
    }
    for own in 0..2 {
        if scratch.inserts[own].is_empty() {
            continue;
        }
        shared
            .store
            .insert_batch(own, &scratch.inserts[own], home, local);
        local.bytes_stored += scratch.inserts[own].len() as u64 * entry_bytes;
    }
    local.phase.update += lap(mark);
}

/// Result generation: the whole task's probes are gathered per probe side and
/// answered through the store — one batched CSS group descent against the
/// shared index/window pair, or one per store shard the band-join ranges
/// overlap.
///
/// Each tuple's edge snapshot is taken inside the store *before* the index
/// probe it covers and used for both the index filter and the window-scan
/// start, which keeps the two sides of the edge split consistent per tuple —
/// a snapshot that is a little stale only lengthens the linear scan, never
/// changes the result set (§4.1). Ring slots are still completed per tuple,
/// so ordered propagation is unaffected.
fn generate(
    shared: &Shared<'_>,
    home: usize,
    scratch: &mut WorkerScratch,
    local: &mut JoinRunStats,
) {
    // One sort of the batch by key: each side's probe ranges then arrive
    // ordered by `(lo, hi)` — `probe_range` is monotone in the key — and the
    // index probe, its partition visit and the suffix scan each find them
    // sorted with one linear check instead of sorting them again. The index
    // update after it inserts in key order too, and the slots below complete
    // in key order.
    scratch.items.sort_unstable_by_key(|task| task.tuple.key);
    let n = scratch.items.len();
    let collect = shared.params.collect_results;
    scratch.counts.clear();
    scratch.counts.resize(n, 0);
    scratch.collected.clear();
    scratch.collected.resize_with(n, Vec::new);
    for side in 0..2 {
        scratch.probe_ranges[side].clear();
        scratch.probe_bounds[side].clear();
        scratch.probe_items[side].clear();
    }
    for (i, &ClaimedTask { tuple, bounds, .. }) in scratch.items.iter().enumerate() {
        let probe = shared.probe_idx(tuple.side);
        scratch.probe_ranges[probe].push(shared.params.predicate.probe_range(tuple.key));
        scratch.probe_bounds[probe].push(bounds);
        scratch.probe_items[probe].push(i);
    }
    for side in 0..2 {
        if scratch.probe_ranges[side].is_empty() {
            continue;
        }
        let items = &scratch.items;
        let idxs = &scratch.probe_items[side];
        let counts = &mut scratch.counts;
        let collected = &mut scratch.collected;
        // Count or materialise: decided here, once per batch side, so that
        // neither loop over a run's entries tests it. Both keep the entries
        // the store's interval calls live and nothing else, through the same
        // two sinks as the single-threaded operator.
        let mut count = |j: usize, run: &[Entry], live: Range<Seq>| {
            counts[idxs[j]] += index::count_live(run, live);
        };
        let mut materialise = |j: usize, run: &[Entry], live: Range<Seq>| {
            let tuple = items[idxs[j]].tuple;
            let matched = shared.matched_side(tuple.side);
            index::materialise(&mut collected[idxs[j]], tuple, matched, run, live);
        };
        shared.store.generate(
            side,
            &scratch.probe_ranges[side],
            &scratch.probe_bounds[side],
            home,
            local,
            if collect {
                &mut materialise
            } else {
                &mut count
            },
        );
    }
    // Slot publication, per tuple, in task order.
    let task_shard = scratch.task_shard;
    for (i, &ClaimedTask { gid, .. }) in scratch.items.iter().enumerate() {
        let results = std::mem::take(&mut scratch.collected[i]);
        let count = if collect {
            results.len() as u64
        } else {
            scratch.counts[i]
        };
        // The matches' share of the logical traffic: each was loaded once
        // (the store has accounted for the descents and scans) and stored
        // once as a result.
        local.bytes_loaded += count * std::mem::size_of::<Entry>() as u64;
        local.bytes_stored += count * std::mem::size_of::<JoinResult>() as u64;
        local.results += count;
        local.tuples += 1;
        shared.ring.complete(task_shard, gid, count, results);
    }
}

/// Propagates the completed ring prefix into the sink in arrival order.
///
/// The paper's test-and-set scheme: the sink try-lock elects at most one
/// propagating worker; everyone else goes straight back to useful work. The
/// elected worker drains directly from the ring cursor into the sink — no
/// intermediate buffer, no lock held across result generation.
fn propagate(shared: &Shared<'_>, local: &mut JoinRunStats) {
    let Some(mut sink) = shared.drain.sink.try_lock() else {
        local.ring.drain_contended += 1;
        return;
    };
    let collect = shared.params.collect_results;
    // Slots drain in global arrival order (a structural ring invariant), so
    // the drain cursor position *is* the input position. Under open-loop
    // pacing, stamp each drained slot's end-to-end latency: drain time minus
    // the slot's virtual arrival time.
    let mut arrivals = shared
        .open_loop
        .as_ref()
        .map(|ol| (ol, shared.arrival_latency.lock(), Instant::now()));
    // The drift monitor is fed here because this is where tuples pass in
    // arrival order: its window is the last `window` tuples that arrived —
    // the paper's combined insert+output load signal per key interval. Fed
    // by the workers it would hold their last few claims, each a run of
    // tuples from one ring shard, which a small window reads as imbalance.
    // Only the elected drainer feeds it, so the lock is free but for a plan
    // adoption.
    let mut drift = shared.drift.as_ref().map(|d| d.lock());
    let start = shared.drain.pos.load(Ordering::Relaxed);
    let mut pos = start;
    let drained = shared.ring.try_drain(collect, |count, results| {
        sink.0 += count;
        if collect {
            sink.1.extend(results);
        }
        if let Some((ol, hist, now)) = arrivals.as_mut() {
            let due_nanos = ((pos - ol.measured_from) as u64).saturating_mul(ol.nanos_per_tuple);
            let elapsed = now.saturating_duration_since(ol.base).as_nanos() as u64;
            hist.record_nanos(elapsed.saturating_sub(due_nanos));
        }
        if let Some(st) = drift.as_mut() {
            st.monitor.observe(shared.params.input[pos].key, count);
        }
        pos += 1;
    });
    shared.drain.pos.store(pos, Ordering::Relaxed);
    if let Some(st) = drift.as_mut() {
        check_drift(shared, st, pos - start, &mut local.migration);
    }
    if let Some(n) = drained {
        if n > 0 {
            local.ring.drain_batches += 1;
            local.ring.slots_drained += n;
        }
    }
}

// ------------------------------------------------------------- repartition

/// Counts the `observed` tuples [`propagate`] just fed the drift monitor
/// into the drainer's own `counters` and, every `check_interval`
/// observations, turns a triggering sample into a pending repartition plan.
///
/// Plans that fail the cost gate (or that reproduce the current boundaries)
/// are rejected and the monitor cools down, so the same stale sample can
/// neither oscillate nor re-plan every check.
fn check_drift(
    shared: &Shared<'_>,
    st: &mut DriftState,
    observed: usize,
    counters: &mut MigrationCounters,
) {
    st.since_check += observed;
    counters.observations += observed as u64;
    if st.pending.is_none() && st.since_check >= st.check_interval {
        st.since_check = 0;
        if st.monitor.should_repartition(&st.partitioner) {
            let plan = st.monitor.plan(&st.partitioner);
            if plan.moved_fraction <= COST_GATE && plan.new_partitioner != st.partitioner {
                st.pending = Some(plan.new_partitioner);
                shared.repartition_pending.store(true, Ordering::Release);
            } else {
                // Too costly (or a no-op): not worth a migration epoch. The
                // cooldown makes the next decision wait for a fresh window
                // instead of re-planning from the same sample every check.
                counters.plans_rejected += 1;
                st.monitor.note_adoption();
            }
        }
    }
}

/// Adopts a pending (or forced) repartition plan through a migration epoch.
/// Called outside the `in_flight` window, like [`maybe_merge`]: the epoch
/// closes the same gate a blocking merge does, so it must not count itself
/// as an in-flight task.
///
/// The epoch protocol — quiesce → swap → migrate → resume:
///
/// 1. **Claim.** The engine's single maintenance claim (`merge_claimed`)
///    serialises epochs against merges: a migration never swaps a tree out
///    from under a running merge, and never observes a half-merged side
///    (phase-1 pending buffers are always drained before the claim is
///    released).
/// 2. **Quiesce.** The gate stops task acquisition *and* ingestion (workers
///    only ingest behind the gate check), then the epoch waits for
///    `in_flight == 0`. Tuples not yet ingested simply wait in the input —
///    the "staging buffer" needs no copy. Tuples already in the ring keep
///    the shard the old routing chose; home claims and the unconditional
///    steal pass drain them, and arrival stamps keep propagation in global
///    order regardless of which shard holds them.
/// 3. **Swap + migrate.** The ring router swaps to the new partitioner, and
///    the store re-homes every index entry and window tuple whose key
///    changed shards (see `ShardStore::adopt_partitioner`).
/// 4. **Resume.** The gate reopens; stalled ingestion re-routes subsequent
///    input under the new partitioner.
///
/// The epoch, its moved entries and its stall go into the caller's `stats`.
/// Returns whether this visit held the maintenance claim, i.e. spent time
/// the caller's phase clock must not charge to a task phase.
fn maybe_repartition(shared: &Shared<'_>, stats: &mut JoinRunStats) -> bool {
    // Forced adoption (deterministic test/bench hook).
    let forced = forced_plan_armed(shared).cloned();
    // Drift-driven adoption: anything pending? One relaxed load — a lock
    // peek here would contend with the drainer feeding the monitor on every
    // worker-loop iteration.
    let drift_pending = forced.is_none() && shared.repartition_pending.load(Ordering::Acquire);
    if forced.is_none() && !drift_pending {
        return false;
    }
    if shared.merge_claimed.swap(true, Ordering::AcqRel) {
        return false; // a merge or another epoch is in progress; retry later
    }
    let mut lap = StallLap::start();
    if !close_gate_and_wait_attributed(shared, &mut lap) {
        return true;
    }
    // Re-resolve the plan under the claim: the forced flag and the pending
    // plan may have been consumed by a racing epoch between the peek above
    // and the claim.
    let new_partitioner = if let Some(p) = forced {
        if shared.forced_done.swap(true, Ordering::SeqCst) {
            None
        } else {
            Some(p)
        }
    } else {
        shared.drift.as_ref().and_then(|d| d.lock().pending.take())
    };
    let Some(new_partitioner) = new_partitioner else {
        open_gate(shared);
        shared.merge_claimed.store(false, Ordering::Release);
        return true;
    };
    shared.ring.set_partitioner(new_partitioner.clone());
    lap.lap(StallCause::RouterSwap);
    let migrated = shared.store.adopt_partitioner(&new_partitioner);
    // Split the wholesale migration over its measured sub-phases; any
    // bookkeeping slack between the outer lap and the store's inner clocks
    // is attributed to the dominant rebuild phase.
    if let Some(m) = &migrated {
        lap.lap_split(
            &[
                (StallCause::WindowSnapshot, m.snapshot_nanos),
                (StallCause::Rebuild, m.rebuild_nanos),
                (StallCause::IndexSwap, m.swap_nanos),
            ],
            StallCause::Rebuild,
        );
    } else {
        lap.lap(StallCause::Rebuild);
    }
    if let Some(drift) = &shared.drift {
        let mut st = drift.lock();
        st.partitioner = new_partitioner;
        // Drop any plan computed against the *previous* partitioner — after
        // a forced adoption it would otherwise survive and migrate the
        // freshly adopted state right back in the next epoch — then clear
        // the stale pre-migration sample and cool down, so adoption cannot
        // oscillate (the satellite regression). The pending flag is lowered
        // *while the lock is held*: lowering it after release could clobber
        // a flusher that staged (and flagged) a fresh plan in between,
        // leaving that plan invisible to every future peek.
        st.pending = None;
        st.monitor.note_adoption();
        shared.repartition_pending.store(false, Ordering::Release);
    } else {
        shared.repartition_pending.store(false, Ordering::Release);
    }
    open_gate(shared);
    shared.merge_claimed.store(false, Ordering::Release);
    // The tail (drift bookkeeping + gate reopen) rides on the gate cause:
    // it is the cost of operating the gate, not of moving state.
    lap.lap(StallCause::GateClose);
    let totals = &mut stats.migration;
    totals.epochs += 1;
    totals.record_stall_breakdown(&lap.finish());
    if let Some(m) = migrated {
        totals.index_entries_moved += m.index_entries_moved;
        totals.window_tuples_moved += m.window_tuples_moved;
    }
    true
}

/// Adopts a forced plan whose trigger point was ingested but which no worker
/// consumed. The forced-repartition hook is a deterministic contract: once
/// its trigger point has been ingested, the plan is adopted. Workers check
/// the trigger on their loop, but when the trigger sits in the input's tail
/// every worker can drain its remaining tasks and exit between the final
/// ingest and its next maintenance visit — so an armed, unconsumed trigger
/// is consumed here, on the coordinating thread after the workers exited,
/// and counted in the run's `stats`.
fn adopt_armed_forced_plan(shared: &Shared<'_>, stats: &mut JoinRunStats) {
    if forced_plan_armed(shared).is_some() {
        maybe_repartition(shared, stats);
    }
}

/// The forced plan, once its trigger point was ingested and until an epoch
/// adopted it.
fn forced_plan_armed<'s>(shared: &'s Shared<'_>) -> Option<&'s RangePartitioner> {
    match &shared.forced_repartition {
        Some((at, p))
            if !shared.forced_done.load(Ordering::Acquire)
                && shared.next_ingest.load(Ordering::Acquire) >= *at =>
        {
            Some(p)
        }
        _ => None,
    }
}

// ------------------------------------------------------------------- merge

/// Closes the gate and waits for the tasks in flight. `false` means the
/// engine is poisoned and will never quiesce: the caller abandons its
/// maintenance as it stands (claim held, gate closed) and returns, and its
/// worker loop ends at the next poison check.
#[must_use]
fn close_gate_and_wait(shared: &Shared<'_>) -> bool {
    shared.gate.close();
    await_quiesce(shared)
}

fn await_quiesce(shared: &Shared<'_>) -> bool {
    shared
        .gate
        .await_quiesce_unless(|| shared.poisoned.load(Ordering::SeqCst))
}

/// [`close_gate_and_wait`] with stall-cause attribution: the gate store and
/// the in-flight drain spin become the first two laps of the quiesce, so the
/// per-cause segments tile the stall exactly from its first instruction.
#[must_use]
fn close_gate_and_wait_attributed(shared: &Shared<'_>, lap: &mut StallLap) -> bool {
    shared.gate.close();
    lap.lap(StallCause::GateClose);
    let quiesced = await_quiesce(shared);
    lap.lap(StallCause::InFlightDrain);
    quiesced
}

fn open_gate(shared: &Shared<'_>) {
    shared.gate.open();
}

/// The oldest sequence number (per merged side) that any queued or future
/// task may still probe; merging with this horizon guarantees that no
/// in-flight task loses index entries it relies on.
///
/// Called with the gate closed and the engine quiescent (`in_flight == 0`),
/// so the only tasks that still need old entries are the ingested-but-
/// unclaimed ones. Per shard, their bounds are at least that shard's
/// `last_claimed_bound` (bounds are non-decreasing in slot id per side —
/// each shard receives a subsequence of the globally ordered ingest — and a
/// shard's claims take its slot ids in order). Claims across shards are
/// *not* globally ordered, which is exactly why the counters are kept per
/// shard: the global horizon is the fold (minimum) of the per-shard monotone
/// counters, a handful of atomic reads instead of a ring scan. The result is
/// never larger than the true minimum, which keeps it safe — at worst a few
/// already-expired tuples survive one extra merge.
fn merge_horizon(shared: &Shared<'_>, side: usize) -> Seq {
    let mut horizon = shared.store.earliest_live(side);
    for shard_meta in &shared.claim_meta {
        let meta = &shard_meta[side];
        if meta.ingested.load(Ordering::Acquire) > meta.claimed.load(Ordering::Acquire) {
            horizon = horizon.min(meta.last_claimed_bound.load(Ordering::Acquire));
        }
    }
    horizon
}

/// Whether merges stand back for a repartition plan waiting to be adopted:
/// a drift plan that is pending or a forced plan that is armed.
///
/// An epoch and a merge need the same maintenance claim. At a small window
/// and a high merge ratio a merge is due every few tasks, and without this
/// rule the merges can win the claim from the epoch visit after visit until
/// the run ends with the plan never adopted. The epoch goes first; the
/// merges it deferred follow at the next visits.
#[inline]
fn merges_defer_to_epoch(shared: &Shared<'_>) -> bool {
    shared.repartition_pending.load(Ordering::Acquire) || forced_plan_armed(shared).is_some()
}

/// Test hook: merges due back to back. The visit that wins the maintenance
/// claim keeps it, as if one merge followed another under it, and each
/// further merge starts only as a merge visit may: a pending epoch makes it
/// let go. Otherwise the last merge outlasts the input and the claim is
/// never released, so no epoch can slip in between the last task and the
/// workers' exit either.
#[cfg(test)]
fn merge_storm(shared: &Shared<'_>) -> bool {
    if shared.merge_claimed.swap(true, Ordering::AcqRel) {
        return false;
    }
    loop {
        if merges_defer_to_epoch(shared) {
            shared.merge_claimed.store(false, Ordering::Release);
            return true;
        }
        if is_finished(shared) || shared.poisoned.load(Ordering::SeqCst) {
            return true;
        }
        std::thread::yield_now();
    }
}

/// A worker's merge visit: [`merge_due`], or under the test hook
/// [`merge_storm`].
fn maybe_merge(shared: &Shared<'_>, home: usize, local: &mut JoinRunStats) -> bool {
    #[cfg(test)]
    if shared.merge_storm {
        return merge_storm(shared);
    }
    merge_due(shared, home, local)
}

/// Merges every side whose mutable component reached its threshold, unless
/// another thread holds the maintenance claim or a repartition plan is
/// waiting for it ([`merges_defer_to_epoch`]). Returns whether this visit
/// merged anything (see [`maybe_repartition`]).
fn merge_due(shared: &Shared<'_>, home: usize, local: &mut JoinRunStats) -> bool {
    let mut merged = false;
    for side in 0..if shared.params.self_join { 1 } else { 2 } {
        if merges_defer_to_epoch(shared) || shared.store.merge_candidate(side).is_none() {
            continue;
        }
        if shared.merge_claimed.swap(true, Ordering::AcqRel) {
            return merged; // another thread is already merging
        }
        // Re-check under the claim; under the partitioned store each shard's
        // tree merges independently, one shard per claim (a subsequent claim
        // picks up the next shard over the threshold).
        let Some(shard) = shared.store.merge_candidate(side) else {
            shared.merge_claimed.store(false, Ordering::Release);
            return merged;
        };
        let Some(pim) = shared.store.pim(side, shard) else {
            shared.merge_claimed.store(false, Ordering::Release);
            return merged;
        };
        let merge_start = Instant::now();
        let report = match shared.params.merge_policy {
            MergePolicy::Blocking => {
                if !close_gate_and_wait(shared) {
                    return true;
                }
                let horizon = merge_horizon(shared, side);
                let report = pim.merge(horizon);
                open_gate(shared);
                report
            }
            MergePolicy::NonBlocking => {
                // Phase 1: stop index updates for this side, then build the
                // next generation while the other workers keep joining.
                if !close_gate_and_wait(shared) {
                    return true;
                }
                shared.no_index_updates[side].store(true, Ordering::Release);
                let horizon = merge_horizon(shared, side);
                open_gate(shared);
                let prepared = pim.begin_merge(horizon);
                // Phase 2: swap the tree under a closed gate, then re-open it
                // *before* replaying the updates buffered during phase 1 — the
                // paper's workers resume joining (with index updates) while the
                // merging thread drains the pending list. Pending tuples stay
                // reachable through the linear window scan until they are
                // marked indexed, so probes remain correct throughout. The
                // replay goes through the store, which routes each buffered
                // tuple back to the shard owning its key (phase 1 buffered the
                // whole side, not just the merging shard).
                if !close_gate_and_wait(shared) {
                    return true;
                }
                let (report, retired) = pim.install_merge(prepared);
                let pending = std::mem::take(&mut *shared.pending[side].lock());
                shared.no_index_updates[side].store(false, Ordering::Release);
                open_gate(shared);
                // Freeing the old generation is the merging thread's work,
                // not something the quiesced workers should wait for.
                drop(retired);
                for chunk in pending.chunks(4096) {
                    shared.store.insert_batch(side, chunk, home, local);
                }
                report
            }
        };
        local.breakdown.record_nanos(
            pimtree_common::Step::Merge,
            report.duration.as_nanos() as u64,
        );
        local.merges += 1;
        local.merge_time += merge_start.elapsed();
        shared.merge_claimed.store(false, Ordering::Release);
        merged = true;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
    use pimtree_common::{IndexKind, PimConfig, ShardConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn random_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|_| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, rng.gen_range(0..domain))
            })
            .collect()
    }

    fn self_join_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| Tuple::r(i, rng.gen_range(0..domain)))
            .collect()
    }

    /// `Shared`'s four hot blocks each start on a cache line and fill whole
    /// lines, so no other field can share a line with any of them: the
    /// read-mostly `params` stay clean while `next_ingest` (per fill), the
    /// drain state (per drain) and the open-loop histogram (per drained
    /// slot) are written.
    #[test]
    fn hot_fields_sit_on_lines_of_their_own() {
        use std::mem::{align_of, offset_of, size_of};
        const LINE: usize = 64;
        type S = Shared<'static>;
        assert_eq!(
            align_of::<S>() % LINE,
            0,
            "lines of `Shared` are lines of memory"
        );
        let blocks = [
            (
                "params",
                offset_of!(S, params),
                size_of::<CachePadded<Params<'static>>>(),
            ),
            (
                "next_ingest",
                offset_of!(S, next_ingest),
                size_of::<CachePadded<AtomicUsize>>(),
            ),
            (
                "drain",
                offset_of!(S, drain),
                size_of::<CachePadded<Drain>>(),
            ),
            (
                "arrival_latency",
                offset_of!(S, arrival_latency),
                size_of::<CachePadded<Mutex<LatencyHistogram>>>(),
            ),
        ];
        for (name, offset, size) in blocks {
            assert_eq!(offset % LINE, 0, "{name} starts mid-line");
            assert_eq!(size % LINE, 0, "{name} ends mid-line");
        }
    }

    fn config(
        w: usize,
        threads: usize,
        task: usize,
        merge_ratio: f64,
        policy: MergePolicy,
    ) -> JoinConfig {
        let mut pim = PimConfig::for_window(w)
            .with_merge_ratio(merge_ratio)
            .with_insertion_depth(2)
            .with_merge_policy(policy);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        pim.btree_fanout = 8;
        JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(task)
            .with_pim(pim)
    }

    /// The probing tuple's position in the input must be non-decreasing
    /// across the propagated result stream.
    fn assert_arrival_order(tuples: &[Tuple], results: &[JoinResult], label: &str) {
        let pos_of: std::collections::HashMap<_, _> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| ((t.side, t.seq), i))
            .collect();
        let positions: Vec<usize> = results
            .iter()
            .map(|r| pos_of[&(r.probe.side, r.probe.seq)])
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] <= w[1]),
            "result propagation must preserve arrival order ({label})"
        );
    }

    #[test]
    fn worker_panic_ends_the_run_instead_of_hanging_it() {
        // Small windows and merge ratio 1/4: the surviving workers meet a
        // merge quiesce soon after the fault, with the dead worker's task
        // still counted in flight.
        let tuples = random_tuples(20_000, 400, 41);
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for threads in [1, 2, 4] {
                let mut op = ParallelIbwj::new(
                    config(64, threads, 4, 0.25, policy),
                    BandPredicate::new(2),
                    SharedIndexKind::PimTree,
                    false,
                );
                op.fault_at = Some(10_000);
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                let input = tuples.clone();
                std::thread::spawn(move || {
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.run(&input)));
                    let _ = done_tx.send(outcome.map(|_| ()));
                });
                let outcome = done_rx
                    .recv_timeout(Duration::from_secs(1))
                    .unwrap_or_else(|_| panic!("{threads} workers, {policy:?}: run hangs"));
                let panic = outcome.expect_err("the worker's panic must reach the caller");
                assert_eq!(
                    panic.downcast_ref::<&str>(),
                    Some(&"injected worker fault"),
                    "{threads} workers, {policy:?}"
                );
            }
        }
    }

    #[test]
    fn misnumbered_input_fails_instead_of_hanging_or_misjoining() {
        // Sequence numbers that start at 2w, as a slice cut from the middle
        // of a longer stream keeps them, disagree with the ones the windows
        // assign from 0.
        let w = 64;
        let tuples: Vec<Tuple> = random_tuples(4_000, 400, 43)
            .into_iter()
            .map(|t| Tuple::new(t.side, t.seq + 2 * w as u64, t.key))
            .collect();
        for threads in [1, 2, 4] {
            let op = ParallelIbwj::new(
                config(w, threads, 4, 0.25, MergePolicy::NonBlocking),
                BandPredicate::new(2),
                SharedIndexKind::PimTree,
                false,
            );
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let input = tuples.clone();
            std::thread::spawn(move || {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.run(&input)));
                let _ = done_tx.send(outcome.map(|_| ()));
            });
            let outcome = done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("{threads} workers: run hangs"));
            let panic = outcome.expect_err("mis-numbered input must fail the run");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("input sequence numbers must match arrival order"),
                "{threads} workers: {message}"
            );
        }
    }

    #[test]
    fn single_thread_matches_reference() {
        let tuples = random_tuples(3000, 400, 31);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let op = ParallelIbwj::new(
            config(128, 1, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.results as usize, expected.len());
        assert!(
            stats.merges > 0,
            "merge ratio 0.5 over 3000 tuples must merge"
        );
    }

    #[test]
    fn multi_thread_matches_reference_nonblocking() {
        let tuples = random_tuples(6000, 600, 32);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 256, 256, false));
        assert!(!expected.is_empty());
        for threads in [2, 4, 8] {
            let op = ParallelIbwj::new(
                config(256, threads, 4, 0.5, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn multi_thread_matches_reference_blocking_merge() {
        let tuples = random_tuples(5000, 500, 33);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 200, 200, false));
        let op = ParallelIbwj::new(
            config(200, 4, 3, 0.25, MergePolicy::Blocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.merges > 0);
    }

    #[test]
    fn bwtree_backend_matches_reference() {
        let tuples = random_tuples(4000, 500, 34);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        for threads in [1, 4] {
            let op = ParallelIbwj::new(
                config(128, threads, 4, 1.0, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::BwTree,
                false,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn self_join_matches_reference() {
        let tuples = self_join_tuples(4000, 300, 35);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for threads in [1, 4] {
            let op = ParallelIbwj::new(
                config(128, threads, 4, 0.5, MergePolicy::NonBlocking),
                predicate,
                SharedIndexKind::PimTree,
                true,
            )
            .with_collected_results(true);
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "threads = {threads}");
        }
    }

    #[test]
    fn warmup_run_produces_identical_results_and_reduced_counters() {
        let tuples = random_tuples(4000, 400, 39);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 4, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (full_stats, full_results) = op.run(&tuples);
        let (warm_stats, warm_results) = op.run_with_warmup(&tuples, 1000);
        // The result stream is the same whether or not a warmup prefix is
        // excluded from the statistics.
        assert_eq!(canonical(&warm_results), canonical(&full_results));
        // Only the post-warmup tuples are counted.
        assert_eq!(warm_stats.tuples, full_stats.tuples - 1000);
        assert!(warm_stats.results <= full_stats.results);
        // Warmup longer than the input degenerates to an empty measurement.
        let (empty_stats, all_results) = op.run_with_warmup(&tuples, tuples.len() + 10);
        assert_eq!(empty_stats.tuples, 0);
        assert_eq!(canonical(&all_results), canonical(&full_results));
    }

    #[test]
    fn results_are_propagated_in_arrival_order() {
        let tuples = random_tuples(3000, 200, 36);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 6, 2, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert!(!results.is_empty());
        assert_arrival_order(&tuples, &results, "6 workers");
    }

    #[test]
    fn asymmetric_windows_match_reference() {
        let tuples = random_tuples(4000, 300, 37);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 512, false));
        let mut cfg = config(512, 4, 4, 1.0, MergePolicy::NonBlocking);
        cfg.window_r = 64;
        cfg.window_s = 512;
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    /// `generate` counts a run's live entries or materialises them — two
    /// loop bodies, the first under every benchmark and figure binary, the
    /// second under every differential test: both must report the oracle's
    /// result count on every store layout, backend and worker count.
    #[test]
    fn count_only_matches_collected_and_oracle() {
        let predicate = BandPredicate::new(2);
        let check = |label: &str,
                     tuples: &[Tuple],
                     self_join: bool,
                     (wr, ws): (usize, usize),
                     build: &dyn Fn(usize) -> ParallelIbwj| {
            let expected = reference_join(tuples, predicate, wr, ws, self_join).len() as u64;
            assert!(expected > 0, "{label}");
            for threads in [1, 2, 4] {
                let (counted, none) = build(threads).with_collected_results(false).run(tuples);
                assert!(none.is_empty(), "{label}");
                assert_eq!(
                    counted.results, expected,
                    "{label}: counted, {threads} workers"
                );
                let (stats, results) = build(threads).with_collected_results(true).run(tuples);
                assert_eq!(
                    results.len() as u64,
                    expected,
                    "{label}: collected, {threads} workers"
                );
                assert_eq!(stats.results, expected, "{label}: {threads} workers");
            }
        };
        let two_way = random_tuples(4000, 400, 181);
        let cfg = |threads| config(128, threads, 4, 0.5, MergePolicy::NonBlocking);
        check("shared PIM-Tree", &two_way, false, (128, 128), &|threads| {
            ParallelIbwj::new(cfg(threads), predicate, SharedIndexKind::PimTree, false)
        });
        check("Bw-Tree", &two_way, false, (128, 128), &|threads| {
            ParallelIbwj::new(cfg(threads), predicate, SharedIndexKind::BwTree, false)
        });
        check(
            "self-join",
            &self_join_tuples(4000, 300, 182),
            true,
            (128, 128),
            &|threads| ParallelIbwj::new(cfg(threads), predicate, SharedIndexKind::PimTree, true),
        );
        check(
            "asymmetric windows",
            &two_way,
            false,
            (64, 512),
            &|threads| {
                let mut cfg = config(512, threads, 4, 1.0, MergePolicy::NonBlocking);
                cfg.window_r = 64;
                cfg.window_s = 512;
                ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            },
        );
        check(
            "2-shard partitioned store, forced repartition",
            &two_way,
            false,
            (128, 128),
            &|threads| {
                let shard = ShardConfig::default()
                    .with_shards(2)
                    .with_partition_index(true);
                let skewed = RangePartitioner::from_key_sample(2, &[]);
                ParallelIbwj::new(
                    cfg(threads).with_shard(shard),
                    predicate,
                    SharedIndexKind::PimTree,
                    false,
                )
                .with_forced_repartition(two_way.len() / 2, skewed)
            },
        );
    }

    #[test]
    fn empty_input_and_tiny_input() {
        let predicate = BandPredicate::new(1);
        let op = ParallelIbwj::new(
            config(64, 4, 8, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (stats, results) = op.run(&[]);
        assert_eq!(stats.results, 0);
        assert!(results.is_empty());
        let (stats, _) = op.run(&[Tuple::r(0, 5)]);
        assert_eq!(stats.tuples, 1);
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn latency_and_traffic_are_recorded() {
        let tuples = random_tuples(2000, 400, 38);
        let predicate = BandPredicate::new(2);
        let op = ParallelIbwj::new(
            config(128, 4, 4, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        );
        let (stats, _) = op.run(&tuples);
        assert_eq!(stats.latency.len(), stats.tuples);
        assert!(stats.latency.mean_micros() > 0.0);
        assert!(stats.bytes_loaded > 0);
        assert!(stats.bytes_stored > 0);
    }

    /// Ingest publishes its counters once per fill; after a run they must
    /// still balance exactly: every shard and side has claimed what it
    /// ingested, and the ring's available count, the sum over its shards,
    /// is back to zero — at any worker and shard count, with and without a
    /// warm-up phase.
    #[test]
    fn per_fill_counters_settle_after_every_run() {
        let tuples = random_tuples(3000, 300, 130);
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 2, 4] {
                for warmup in [0, 700] {
                    let op = ParallelIbwj::new(
                        config(128, threads, 3, 0.5, MergePolicy::NonBlocking)
                            .with_shard(ShardConfig::default().with_shards(shards)),
                        BandPredicate::new(2),
                        SharedIndexKind::PimTree,
                        false,
                    );
                    let label = format!("{threads} workers, {shards} shards, warm-up {warmup}");
                    let mut checked = false;
                    op.run_inner(
                        &tuples,
                        warmup,
                        Some(&mut |shared: &Shared<'_>| {
                            for (shard, meta) in shared.claim_meta.iter().enumerate() {
                                for (side, meta) in meta.iter().enumerate() {
                                    assert_eq!(
                                        meta.ingested.load(Ordering::Relaxed),
                                        meta.claimed.load(Ordering::Relaxed),
                                        "{label}: shard {shard}, side {side}"
                                    );
                                }
                            }
                            let ingested: u64 = shared
                                .claim_meta
                                .iter()
                                .flatten()
                                .map(|m| m.ingested.load(Ordering::Relaxed))
                                .sum();
                            assert_eq!(ingested, tuples.len() as u64, "{label}");
                            let per_shard: usize = (0..shared.ring.shards())
                                .map(|s| shared.ring.shard_available(s))
                                .sum();
                            assert_eq!(shared.ring.available(), per_shard, "{label}");
                            assert_eq!(per_shard, 0, "{label}");
                            checked = true;
                        }),
                    );
                    assert!(checked, "{label}");
                }
            }
        }
    }

    #[test]
    fn ring_counters_reflect_the_run() {
        let tuples = random_tuples(3000, 300, 40);
        let predicate = BandPredicate::new(2);
        let (threads, task) = (4, 4);
        // A claim follows the ring's depth up to `CLAIM_DEPTH` tasks; a fill
        // target of one task per worker pins it to the fixed-size task.
        for (ingest_target, largest_claim) in [(0, CLAIM_DEPTH * task), (threads * task, task)] {
            let cfg = config(128, threads, task, 1.0, MergePolicy::NonBlocking)
                .with_ingest_target(ingest_target);
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false);
            let (stats, _) = op.run(&tuples);
            assert_eq!(
                stats.ring.tuples_acquired, 3000,
                "every tuple claimed exactly once"
            );
            assert_eq!(
                stats.ring.slots_drained, 3000,
                "every slot propagated exactly once"
            );
            assert!(
                stats.ring.tuples_acquired <= stats.ring.tasks_acquired * largest_claim as u64,
                "ingest target {ingest_target}: claims hold at most {largest_claim} tuples"
            );
            assert!(stats.ring.ingest_batches > 0);
            assert!(stats.ring.mean_task_size() > 0.0);
        }
        // One worker always finds the ring as deep as it filled it, so by
        // default every claim but the last is `CLAIM_DEPTH` tasks.
        let op = ParallelIbwj::new(
            config(128, 1, task, 1.0, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        );
        let (stats, _) = op.run(&tuples);
        assert_eq!(
            stats.ring.tasks_acquired,
            3000u64.div_ceil((CLAIM_DEPTH * task) as u64)
        );
    }

    #[test]
    fn claim_bound_follows_the_ring_depth_between_one_and_four_tasks() {
        let (threads, task) = (4, 8);
        // Shallow ring: what is there, up to a task.
        assert_eq!(claim_bound(0, threads, task), task);
        assert_eq!(claim_bound(threads * task, threads, task), task);
        // Deep ring: an equal share, capped.
        assert_eq!(claim_bound(2 * threads * task, threads, task), 2 * task);
        assert_eq!(
            claim_bound(100 * threads * task, threads, task),
            CLAIM_DEPTH * task
        );
        // A ring filled to one task per worker never yields a larger claim.
        for available in 0..=threads * task {
            assert_eq!(claim_bound(available, threads, task), task);
        }
    }

    /// Batch-at-a-time differential: claims that follow the ring's depth
    /// (the default) and the paper's fixed-size tasks (fill target pinned to
    /// one task per worker) both produce the nested-loop oracle's result
    /// set, propagated in arrival order — across worker counts, merge
    /// policies, a self-join, asymmetric windows, the smallest ring the
    /// engine accepts, and a 2-shard partitioned store that repartitions
    /// mid-run (whose per-shard sub-batches are what the larger claim feeds).
    #[test]
    fn coalesced_claims_match_fixed_size_tasks_and_reference() {
        struct Scenario {
            name: &'static str,
            tuples: Vec<Tuple>,
            windows: (usize, usize),
            self_join: bool,
            ring_capacity: usize,
            partitioned: bool,
        }
        let task = 4;
        let base = |name, seed| Scenario {
            name,
            tuples: random_tuples(3000, 300, seed),
            windows: (128, 128),
            self_join: false,
            ring_capacity: 0,
            partitioned: false,
        };
        let scenarios = [
            base("plain", 141),
            Scenario {
                tuples: self_join_tuples(3000, 300, 142),
                self_join: true,
                ..base("self-join", 0)
            },
            Scenario {
                windows: (64, 512),
                ..base("asymmetric windows", 143)
            },
            Scenario {
                ring_capacity: 2 * task,
                ..base("tiny ring", 144)
            },
            Scenario {
                partitioned: true,
                ..base("partitioned store, forced repartition", 145)
            },
        ];
        let predicate = BandPredicate::new(2);
        for sc in &scenarios {
            let (w_r, w_s) = sc.windows;
            let expected = canonical(&reference_join(
                &sc.tuples,
                predicate,
                w_r,
                w_s,
                sc.self_join,
            ));
            assert!(!expected.is_empty(), "{}", sc.name);
            for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
                for threads in [1usize, 2, 4] {
                    for ingest_target in [0, threads * task] {
                        let mut cfg = config(w_r.max(w_s), threads, task, 0.5, policy)
                            .with_ingest_target(ingest_target);
                        cfg.window_r = w_r;
                        cfg.window_s = w_s;
                        if sc.partitioned {
                            cfg = cfg.with_shard(
                                ShardConfig::default()
                                    .with_shards(2)
                                    .with_partition_index(true),
                            );
                        }
                        let mut op = ParallelIbwj::new(
                            cfg,
                            predicate,
                            SharedIndexKind::PimTree,
                            sc.self_join,
                        )
                        .with_collected_results(true);
                        op.ring_capacity = sc.ring_capacity;
                        if sc.partitioned {
                            let at = sc.tuples.len() / 2;
                            let sample: Vec<Key> = sc.tuples[at..].iter().map(|t| t.key).collect();
                            op = op.with_forced_repartition(
                                at,
                                RangePartitioner::from_key_sample(2, &sample),
                            );
                        }
                        let label = format!(
                            "{}, {policy:?}, {threads} workers, ingest target {ingest_target}",
                            sc.name
                        );
                        let (stats, results) = op.run(&sc.tuples);
                        assert_eq!(canonical(&results), expected, "{label}");
                        assert_arrival_order(&sc.tuples, &results, &label);
                        if sc.partitioned {
                            assert!(stats.migration.epochs >= 1, "{label}");
                        }
                        if ingest_target > 0 {
                            assert!(
                                stats.ring.tuples_acquired
                                    <= stats.ring.tasks_acquired * task as u64,
                                "{label}: pinned claims are fixed-size tasks"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The tentpole differential: the PIM-Tree's batched group probe and the
    /// Bw-Tree's scalar probes (it has no group probe) must produce the
    /// oracle's result set under both merge policies, and only the PIM-Tree
    /// may touch the probe-batch counters.
    #[test]
    fn batched_probe_matches_scalar_and_reference() {
        let tuples = random_tuples(5000, 400, 81);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for threads in [1usize, 4] {
                    let op = ParallelIbwj::new(
                        config(128, threads, 4, 0.5, policy),
                        predicate,
                        kind,
                        false,
                    )
                    .with_collected_results(true);
                    let (stats, results) = op.run(&tuples);
                    let label = format!("{policy:?}/{kind:?}/{threads}T");
                    assert_eq!(canonical(&results), expected, "{label}");
                    if kind == SharedIndexKind::PimTree {
                        assert!(stats.probe.batches > 0, "{label}");
                        assert_eq!(stats.probe.scalar_probes, 0, "{label}");
                        assert!(
                            stats.probe.ti_partition_locks <= stats.probe.ti_range_visits,
                            "TI partition locks are shared per batch ({label})"
                        );
                    } else {
                        assert_eq!(stats.probe.batches, 0, "{label}");
                        assert_eq!(stats.probe.ti_partition_locks, 0, "{label}");
                        assert!(stats.probe.scalar_probes > 0, "{label}");
                    }
                }
            }
        }
    }

    /// Duplicate-heavy keys: a tiny key domain makes many probe ranges in a
    /// task identical, exercising the sort/dedup path of the group probe.
    #[test]
    fn batched_probe_with_duplicate_keys_matches_reference() {
        let tuples = random_tuples(5000, 12, 82);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            let op = ParallelIbwj::new(
                config(128, 4, 8, 0.5, policy),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{policy:?}");
            assert!(
                stats.probe.dedup_hits > 0,
                "a 12-key domain must produce duplicate probe ranges in a task of 8"
            );
        }
    }

    /// Window-edge case: probe ranges reaching past both ends of the key
    /// domain, plus a window as large as the whole input (nothing ever
    /// expires) and a window of 1 (everything expires immediately).
    #[test]
    fn batched_probe_at_window_and_domain_edges() {
        let tuples = random_tuples(2000, 50, 83);
        let predicate = BandPredicate::new(100); // ranges always overflow the domain
        for w in [1usize, 4096] {
            let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let op = ParallelIbwj::new(
                    config(w, 2, 4, 1.0, MergePolicy::NonBlocking),
                    predicate,
                    kind,
                    false,
                )
                .with_collected_results(true);
                let (_, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "w={w}, {kind:?}");
            }
        }
    }

    /// Self-join through the batched probe at batch lengths around the
    /// group descent's lookahead of four and far past it: with the ingest
    /// target pinned to a task per worker every claim is at most one task,
    /// and a self-join probes one side, so the task size bounds the batch.
    #[test]
    fn batched_probe_batch_length_is_result_invariant() {
        let tuples = self_join_tuples(3000, 200, 84);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        let threads = 2;
        for task in [1usize, 3, 4, 5, 64] {
            let cfg = config(128, threads, task, 0.5, MergePolicy::NonBlocking)
                .with_ingest_target(threads * task);
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "task size {task}");
            assert!(stats.probe.batches > 0, "task size {task}");
            assert!(stats.probe.max_batch <= task as u64, "task size {task}");
        }
    }

    /// The ISSUE's stress configuration: many threads, tiny tasks, and a ring
    /// small enough that every slot is recycled dozens of times, under both
    /// merge policies.
    #[test]
    fn ring_stress_tiny_capacity_both_policies() {
        let tuples = random_tuples(6000, 500, 91);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for (threads, task) in [(8, 1), (16, 2)] {
                // Capacity 64 over 6000 tuples: ~94 wraparounds per run.
                let cfg = config(128, threads, task, 0.5, policy);
                let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                op.ring_capacity = 64;
                let (stats, results) = op.run(&tuples);
                assert_eq!(
                    canonical(&results),
                    expected,
                    "policy {policy:?}, threads {threads}, task_size {task}"
                );
                assert_eq!(stats.ring.tuples_acquired, 6000);
                assert_eq!(stats.ring.slots_drained, 6000);
            }
        }
    }

    #[test]
    fn ring_stress_self_join_tiny_capacity() {
        let tuples = self_join_tuples(5000, 250, 92);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            let cfg = config(128, 8, 1, 0.5, policy);
            let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            op.ring_capacity = 32;
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "policy {policy:?}");
        }
    }

    #[test]
    fn ring_stress_asymmetric_windows_tiny_capacity() {
        let tuples = random_tuples(5000, 300, 93);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 512, false));
        assert!(!expected.is_empty());
        let mut cfg = config(512, 12, 2, 0.5, MergePolicy::NonBlocking);
        cfg.window_r = 64;
        cfg.window_s = 512;
        let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        op.ring_capacity = 64;
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    #[test]
    fn tiny_explicit_capacity_with_large_task_size_runs() {
        // Regression: capacity 16 with the default task size 8 used to panic
        // in the auto ingest-target clamp (`min > max`).
        let tuples = random_tuples(1500, 150, 95);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        for cap in [16, 32] {
            let cfg = config(64, 2, 8, 1.0, MergePolicy::NonBlocking);
            let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_collected_results(true);
            op.ring_capacity = cap;
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "capacity {cap}");
        }
    }

    #[test]
    fn bwtree_with_tiny_ring_and_many_threads_matches_reference() {
        // Regression: with a small explicit ring, many threads and the
        // Bw-Tree backend, the eager expiry deletion reads window slots that
        // lag the head by up to max_unindexed + w + ring capacity; the
        // window slack must budget for that (debug builds assert inside
        // `key_of` when it does not).
        let tuples = random_tuples(6000, 400, 96);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let cfg = config(128, 16, 16, 1.0, MergePolicy::NonBlocking);
        let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::BwTree, false)
            .with_collected_results(true);
        op.ring_capacity = 64;
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    /// The shard counts the sharded differential tests sweep: off, an even
    /// split, and more shards than some tests have workers.
    const SHARDS: [usize; 3] = [1, 2, 4];

    /// One arm of the sharded differential matrix.
    #[derive(Debug, Clone, Copy)]
    struct Arm {
        shards: usize,
        /// The per-shard index/window store; at one shard it short-circuits
        /// to the shared store.
        partition_index: bool,
        /// A forced repartition epoch at the input's midpoint.
        forced_epoch: bool,
    }

    impl Arm {
        /// Every arm: each of [`SHARDS`] with both stores, and each of
        /// those again with a forced epoch at more than one shard.
        fn all() -> impl Iterator<Item = Arm> {
            SHARDS.into_iter().flat_map(|shards| {
                [false, true].into_iter().flat_map(move |partition_index| {
                    [false, true]
                        .into_iter()
                        .filter(move |&forced| !forced || shards > 1)
                        .map(move |forced_epoch| Arm {
                            shards,
                            partition_index,
                            forced_epoch,
                        })
                })
            })
        }

        fn shard_config(self) -> ShardConfig {
            ShardConfig::default()
                .with_shards(self.shards)
                .with_partition_index(self.partition_index)
        }

        /// Arms `op` with this arm's forced epoch, if it has one: at the
        /// stream midpoint, adopting a partitioner fitted to the second half
        /// of the input.
        fn apply(self, op: ParallelIbwj, tuples: &[Tuple]) -> ParallelIbwj {
            if !self.forced_epoch {
                return op;
            }
            let at = tuples.len() / 2;
            let sample: Vec<Key> = tuples[at..].iter().map(|t| t.key).collect();
            op.with_forced_repartition(at, RangePartitioner::from_key_sample(self.shards, &sample))
        }
    }

    /// The batched probe across shard counts and both store modes: sub-range
    /// splitting (partitioned stores probe per-shard segments) must not
    /// change a single result.
    #[test]
    fn batched_probe_sharded_both_store_modes_matches_reference() {
        let tuples = self_join_tuples(4000, 250, 117);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for arm in Arm::all().filter(|a| !a.forced_epoch) {
            let cfg =
                config(128, 6, 2, 0.5, MergePolicy::NonBlocking).with_shard(arm.shard_config());
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{arm:?}");
            assert!(stats.probe.batches > 0, "{arm:?}");
        }
    }

    /// The tentpole differential: the sharded engine must produce the exact
    /// same results as the single-ring engine and the brute-force oracle,
    /// across shard counts, merge policies and index backends, and its
    /// claim accounting must cover every tuple.
    #[test]
    fn sharded_engine_matches_single_ring_and_reference() {
        let tuples = random_tuples(5000, 400, 101);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for arm in Arm::all().filter(|a| !a.partition_index) {
                    let cfg = config(128, 4, 4, 0.5, policy).with_shard(arm.shard_config());
                    let op =
                        ParallelIbwj::new(cfg, predicate, kind, false).with_collected_results(true);
                    // A forced epoch also exercises the round-robin →
                    // key-range router upgrade mid-run.
                    let op = arm.apply(op, &tuples);
                    let (stats, results) = op.run(&tuples);
                    let label = format!("{policy:?}/{kind:?}/{arm:?}");
                    assert_eq!(canonical(&results), expected, "{label}");
                    assert_eq!(stats.ring.tuples_acquired, 5000, "{label}");
                    assert_eq!(stats.ring.slots_drained, 5000, "{label}");
                    assert_eq!(stats.shard.shards, arm.shards as u64, "{label}");
                    assert_eq!(
                        stats.shard.local_tuples + stats.shard.stolen_tuples,
                        5000,
                        "every tuple claimed home or stolen ({label})"
                    );
                    assert_eq!(stats.migration.epochs, arm.forced_epoch as u64, "{label}");
                    if arm.shards == 1 {
                        assert_eq!(stats.shard.stolen_tuples, 0, "{label}");
                        assert_eq!(stats.shard.shard_full_stalls, 0, "{label}");
                    }
                }
            }
        }
    }

    /// Key-range routing through a real `RangePartitioner`: results are
    /// identical and every tuple is claimed once, at home or by a steal.
    #[test]
    fn sharded_engine_with_range_partitioner_matches_reference() {
        let tuples = random_tuples(5000, 600, 102);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let sample: Vec<i64> = tuples.iter().map(|t| t.key).collect();
        for shards in SHARDS {
            let partitioner = RangePartitioner::from_key_sample(shards, &sample);
            let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                .with_shard(ShardConfig::default().with_shards(shards));
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(
                stats.shard.local_tuples + stats.shard.stolen_tuples,
                5000,
                "{shards} shards"
            );
        }
    }

    /// Duplicate-heavy keys and domain-overflowing probe ranges under
    /// sharding, with a window that never expires and one that expires
    /// immediately.
    #[test]
    fn sharded_engine_duplicate_keys_and_window_edges() {
        let predicate = BandPredicate::new(100);
        let tuples = random_tuples(2000, 50, 103);
        for shards in SHARDS {
            for w in [1usize, 4096] {
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let sample: Vec<i64> = tuples.iter().map(|t| t.key).collect();
                let cfg = config(w, 3, 4, 1.0, MergePolicy::NonBlocking)
                    .with_shard(ShardConfig::default().with_shards(shards));
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_partitioner(RangePartitioner::from_key_sample(shards, &sample))
                    .with_collected_results(true);
                let (_, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "shards {shards}, w {w}");
            }
        }
    }

    /// Sharded self-join with tiny per-shard rings: every slot is recycled
    /// many times and the cross-shard merge cursor switches shards constantly.
    #[test]
    fn sharded_engine_self_join_tiny_rings() {
        let tuples = self_join_tuples(4000, 250, 104);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for shards in SHARDS {
            let cfg = config(128, 6, 2, 0.5, MergePolicy::NonBlocking)
                .with_shard(ShardConfig::default().with_shards(shards));
            let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, true)
                .with_collected_results(true);
            op.ring_capacity = 64;
            let (_, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "shards {shards}");
        }
    }

    /// Steals must never break the ordering contract: the propagated result
    /// stream follows the probing tuples' global arrival order even when a
    /// skewed partitioner forces most claims to be steals.
    #[test]
    fn sharded_steals_preserve_arrival_order() {
        let tuples = random_tuples(3000, 200, 105);
        let predicate = BandPredicate::new(2);
        for shards in SHARDS {
            // An empty-sample partitioner routes every key to shard 0, so
            // with several shards the workers homed elsewhere can only steal.
            let partitioner = RangePartitioner::from_key_sample(shards, &[]);
            let cfg = config(128, 6, 2, 1.0, MergePolicy::NonBlocking)
                .with_shard(ShardConfig::default().with_shards(shards));
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run(&tuples);
            assert!(!results.is_empty());
            assert_arrival_order(&tuples, &results, &format!("steals, {shards} shards"));
            assert_eq!(
                stats.shard.local_tuples + stats.shard.stolen_tuples,
                3000,
                "{shards} shards"
            );
        }
    }

    /// The tentpole differential: with the per-shard index/window store the
    /// engine must produce the exact same results as the shared-store engine
    /// and the brute-force oracle, across shard counts, merge policies and
    /// index backends, and its insert/probe routing must account for every
    /// tuple.
    #[test]
    fn partitioned_store_matches_shared_store_and_reference() {
        let tuples = random_tuples(5000, 400, 111);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                for arm in Arm::all() {
                    let cfg = config(128, 4, 4, 0.5, policy).with_shard(arm.shard_config());
                    let op =
                        ParallelIbwj::new(cfg, predicate, kind, false).with_collected_results(true);
                    let op = arm.apply(op, &tuples);
                    let (stats, results) = op.run(&tuples);
                    let label = format!("{policy:?}/{kind:?}/{arm:?}");
                    assert_eq!(canonical(&results), expected, "{label}");
                    assert_eq!(stats.ring.tuples_acquired, 5000, "{label}");
                    assert_eq!(stats.ring.slots_drained, 5000, "{label}");
                    assert_eq!(stats.migration.epochs, arm.forced_epoch as u64, "{label}");
                    if kind == SharedIndexKind::PimTree {
                        // Per-shard trees are provisioned for their key
                        // slice, so merges fire at the same cadence as
                        // the shared engine (regression: a global-window
                        // threshold left partitioned shards merge-less).
                        assert!(stats.merges > 0, "{label}");
                    }
                    if arm.partition_index && arm.shards > 1 {
                        assert_eq!(stats.store.partitioned, 1, "{label}");
                        assert_eq!(stats.store.store_shards, arm.shards as u64, "{label}");
                        assert_eq!(
                            stats.store.local_inserts + stats.store.remote_inserts,
                            5000,
                            "every tuple routed to exactly one store shard ({label})"
                        );
                        assert_eq!(
                            stats.store.probes, 5000,
                            "every tuple's probe routed through the fan-out query ({label})"
                        );
                        assert!(
                            stats.store.probe_shard_visits >= stats.store.probes,
                            "{label}"
                        );
                        assert!(stats.store.max_probe_fanout <= arm.shards as u64, "{label}");
                        assert_eq!(
                            stats.store.local_probe_visits + stats.store.remote_probe_visits,
                            stats.store.probe_shard_visits,
                            "every probe visit is local or remote ({label})"
                        );
                        // Range placement keeps inserts local: the ring and
                        // the store route with one partitioner, so a home
                        // claim inserts on its own shard and a stolen tuple
                        // inserts remotely. Not under `NonBlocking`, whose
                        // post-merge replay of the pending list inserts
                        // with the merging worker's home, nor under a
                        // forced epoch, which re-homes keys mid-run.
                        if policy == MergePolicy::Blocking && !arm.forced_epoch {
                            assert_eq!(
                                stats.store.local_inserts, stats.shard.local_tuples,
                                "home claims insert locally ({label})"
                            );
                            assert_eq!(
                                stats.store.remote_inserts, stats.shard.stolen_tuples,
                                "stolen tuples insert remotely ({label})"
                            );
                        }
                    } else {
                        // Shared store (partitioning off, or one shard):
                        // the store counters must stay untouched.
                        assert_eq!(stats.store, Default::default(), "{label}");
                    }
                }
            }
        }
    }

    /// The tentpole invariant: with `--partition-index on`, each shard's
    /// index and window hold only tuples inside its key range (inspected via
    /// per-shard footprints), and probe fan-out visits only the shards whose
    /// ranges overlap the band-join range.
    #[test]
    fn partitioned_store_shards_hold_only_their_key_range() {
        let tuples = random_tuples(4000, 800, 112);
        // A band of ±2 over an 800-key domain split 4 ways: most probes must
        // stay on a single shard.
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
            ShardConfig::default()
                .with_shards(4)
                .with_partition_index(true),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
            assert!(store.is_partitioned());
            assert_eq!(store.shards(), 4);
            let partitioner = store.partitioner().expect("partitioned store").clone();
            let footprints = store.shard_footprints();
            assert_eq!(footprints.len(), 4);
            let mut window_total = 0;
            let mut index_total = 0;
            for fp in &footprints {
                for side in &fp.sides {
                    window_total += side.window_live;
                    index_total += side.index_entries;
                    // node_of is monotone in the key, so span containment
                    // proves every key of the shard lies in its range.
                    if let Some((lo, hi)) = side.window_key_span {
                        assert_eq!(partitioner.node_of(lo), fp.shard, "window lo");
                        assert_eq!(partitioner.node_of(hi), fp.shard, "window hi");
                    }
                    if let Some((lo, hi)) = side.index_key_span {
                        assert_eq!(partitioner.node_of(lo), fp.shard, "index lo");
                        assert_eq!(partitioner.node_of(hi), fp.shard, "index hi");
                    }
                }
            }
            assert_eq!(window_total, 128 + 128, "both live windows, sharded");
            assert!(index_total > 0);
        });
        assert_eq!(canonical(&results), expected);
        // Fan-out: a ±2 band over ~200 keys per shard overwhelmingly stays on
        // one shard; visiting every shard for every probe would be 4x.
        assert!(stats.store.single_shard_probes > 0);
        assert!(
            stats.store.probe_shard_visits < stats.store.probes * 2,
            "narrow-band probes must not fan out broadly: {} visits / {} probes",
            stats.store.probe_shard_visits,
            stats.store.probes
        );
        assert!(stats.store.max_probe_fanout <= 2);
    }

    /// Duplicate-heavy keys and domain-overflowing probe ranges under the
    /// partitioned store, with a window that never expires and one that
    /// expires immediately. Domain-overflowing ranges force full fan-out.
    #[test]
    fn partitioned_store_duplicate_keys_and_window_edges() {
        let predicate = BandPredicate::new(100);
        let tuples = random_tuples(2000, 50, 113);
        for shards in SHARDS {
            for w in [1usize, 4096] {
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let cfg = config(w, 3, 4, 1.0, MergePolicy::NonBlocking).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                let (stats, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "shards {shards}, w {w}");
                if shards > 1 {
                    // A ±100 band over a 50-key domain overlaps every shard.
                    assert_eq!(
                        stats.store.probe_shard_visits,
                        stats.store.probes * shards as u64,
                        "domain-covering ranges fan out to every shard"
                    );
                }
            }
        }
    }

    /// Partitioned-store self-join through both probe paths — the
    /// PIM-Tree's group descent and the Bw-Tree's per-range scalar probes —
    /// with tiny per-shard rings.
    #[test]
    fn partitioned_store_self_join_both_probe_paths() {
        let tuples = self_join_tuples(4000, 250, 114);
        let predicate = BandPredicate::new(1);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, true));
        assert!(!expected.is_empty());
        for shards in SHARDS {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let cfg = config(128, 6, 2, 0.5, MergePolicy::NonBlocking).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let mut op =
                    ParallelIbwj::new(cfg, predicate, kind, true).with_collected_results(true);
                op.ring_capacity = 64;
                let (_, results) = op.run(&tuples);
                assert_eq!(canonical(&results), expected, "shards {shards}, {kind:?}");
            }
        }
    }

    /// A skewed partitioner under the partitioned store: every key routes to
    /// shard 0, so all index/window state lives there and all claims by
    /// workers homed elsewhere are steals — results must still be exact and
    /// in arrival order.
    #[test]
    fn partitioned_store_with_skewed_partitioner_matches_reference() {
        let tuples = random_tuples(3000, 200, 115);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        for shards in SHARDS {
            if shards == 1 {
                continue;
            }
            let partitioner = RangePartitioner::from_key_sample(shards, &[]);
            let cfg = config(128, 4, 2, 1.0, MergePolicy::NonBlocking).with_shard(
                ShardConfig::default()
                    .with_shards(shards)
                    .with_partition_index(true),
            );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_partitioner(partitioner)
                .with_collected_results(true);
            let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                for fp in store.shard_footprints() {
                    if fp.shard == 0 {
                        continue;
                    }
                    for side in &fp.sides {
                        assert_eq!(side.window_live, 0, "shard {} window", fp.shard);
                        assert_eq!(side.index_entries, 0, "shard {} index", fp.shard);
                    }
                }
            });
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(
                stats.store.probe_shard_visits, stats.store.probes,
                "all probes land on the single populated shard"
            );
        }
    }

    /// Warmup runs under the partitioned store keep the result stream
    /// identical and exclude the warmup prefix from the store counters:
    /// its inserts, its probes and their shard visits.
    #[test]
    fn partitioned_store_warmup_produces_identical_results() {
        let tuples = random_tuples(4000, 400, 116);
        let predicate = BandPredicate::new(2);
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
            ShardConfig::default()
                .with_shards(2)
                .with_partition_index(true),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (full_stats, full_results) = op.run(&tuples);
        let (warm_stats, warm_results) = op.run_with_warmup(&tuples, 1000);
        assert_eq!(canonical(&warm_results), canonical(&full_results));
        assert_eq!(warm_stats.tuples, full_stats.tuples - 1000);
        assert_eq!(
            warm_stats.store.local_inserts + warm_stats.store.remote_inserts,
            3000,
            "warmup inserts are excluded from the measured counters"
        );
        assert_eq!(warm_stats.store.probes, 3000, "and so are its probes");
        let visits = |s: &JoinRunStats| s.store.local_probe_visits + s.store.remote_probe_visits;
        assert!(visits(&warm_stats) >= 3000);
        assert!(visits(&warm_stats) < visits(&full_stats));
    }

    /// The warm-up contract for the counts a worker keeps itself: merges
    /// and a forced epoch that fall inside the `run_with_warmup` prefix keep
    /// their effect but are not reported, a merge not even when the prefix's
    /// last tasks make it due; an epoch in the measured phase is reported
    /// exactly once. One worker makes the runs deterministic, so the prefix's merges
    /// and the measured merges add up to a full run's.
    #[test]
    fn warmup_excludes_its_merges_and_epochs_from_the_report() {
        let tuples = random_tuples(4000, 400, 118);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let skewed = RangePartitioner::from_key_sample(2, &[]);
        let op_at = |threads: usize, at: usize| {
            let cfg = config(128, threads, 4, 0.5, MergePolicy::NonBlocking).with_shard(
                ShardConfig::default()
                    .with_shards(2)
                    .with_partition_index(true),
            );
            ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_forced_repartition(at, skewed.clone())
                .with_collected_results(true)
        };
        let op = |at: usize| op_at(1, at);
        let warmup = 2000;
        // The prefix on its own merges and adopts the epoch, so the warm-up
        // below holds both.
        let (prefix, _) = op(warmup / 2).run(&tuples[..warmup]);
        assert!(prefix.merges > 0);
        assert_eq!(prefix.migration.epochs, 1);
        let (full, _) = op(warmup / 2).run(&tuples);

        // Epoch and merges in the prefix: the epoch still moves every later
        // tuple onto shard 0, but the report holds measured merges only.
        let (stats, results) = op(warmup / 2).run_with_store_inspector(&tuples, warmup, |store| {
            assert_eq!(store.epoch(), 1, "the warm-up epoch keeps its effect");
        });
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.migration.enabled, 1);
        assert_eq!(stats.migration.epochs, 0);
        assert_eq!(stats.migration.tuples_moved(), 0);
        assert_eq!(stats.migration.stall_nanos, 0);
        assert!(stats.merges > 0, "the measured phase merges too");
        // At four workers merges fall due back to back; an epoch armed at
        // ingest 1000 must still be adopted inside the 2000-tuple warm-up.
        for seed in 0..16 {
            let tuples = random_tuples(4000, 400, 500 + seed);
            let (stats, _) =
                op_at(4, warmup / 2).run_with_store_inspector(&tuples, warmup, |store| {
                    assert_eq!(store.epoch(), 1, "seed {seed}: the epoch is adopted");
                });
            assert_eq!(
                stats.migration.epochs, 0,
                "seed {seed}: epoch in the measured phase"
            );
        }
        // Where a merge falls near the phase boundary may shift, by at most
        // one merge per tree (two shards, two sides).
        assert!(
            (prefix.merges + stats.merges).abs_diff(full.merges) <= 4,
            "prefix {} + measured {} against full {}",
            prefix.merges,
            stats.merges,
            full.merges
        );

        // The whole input as warm-up: nothing is measured, so nothing is
        // reported, not even a merge the last warm-up tasks made due. With
        // several workers the last one out can find the maintenance claim
        // held and exit with a merge still due, which the warm-up must run
        // itself rather than leave to the measured phase.
        let (stats, results) = op(warmup / 2).run_with_warmup(&tuples, tuples.len());
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.tuples, 0);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.migration.epochs, 0);
        for seed in 0..16 {
            let tuples = random_tuples(4000, 400, 300 + seed);
            for shards in [1, 2] {
                let cfg = config(128, 4, 4, 1.0, MergePolicy::NonBlocking)
                    .with_shard(ShardConfig::default().with_shards(shards));
                let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false);
                let (stats, _) = op.run_with_warmup(&tuples, tuples.len());
                assert_eq!(stats.merges, 0, "seed {seed}, {shards} shards");
            }
        }

        // Epoch in the measured phase: reported exactly once.
        let (stats, results) = op(3 * warmup / 2).run_with_warmup(&tuples, warmup);
        assert_eq!(canonical(&results), expected);
        assert_eq!(stats.migration.epochs, 1);
        assert!(stats.migration.tuples_moved() > 0);
        assert!(stats.migration.stall_nanos > 0);
    }

    /// A drifting-skew workload: the first half draws keys from one range,
    /// the second half from a disjoint range, so a partitioner fitted to the
    /// prefix becomes maximally imbalanced halfway through.
    fn drifting_tuples(n: usize, domain: i64, shift: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|i| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                let base = rng.gen_range(0..domain);
                let key = if i < n / 2 { base } else { base + shift };
                Tuple::new(side, seq, key)
            })
            .collect()
    }

    /// The tentpole acceptance test: under a drifting-skew workload with
    /// `--repartition on`, the engine adopts at least one repartition plan
    /// mid-run (quiesce → swap → migrate → resume), the migrated-tuple and
    /// stall counters fill in, the result stream stays byte-identical to the
    /// shared-store oracle — and adoption does not oscillate. With the flag
    /// off, behavior and counters are exactly the PR 4 engine's.
    #[test]
    fn drifting_workload_adopts_a_repartition_plan_mid_run() {
        let tuples = drifting_tuples(8000, 400, 10_000, 121);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for shards in [2usize, 4] {
            // The initial partitioner fits the first half only, so the
            // second half's disjoint key range drifts it out of balance.
            let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
            let partitioner = RangePartitioner::from_key_sample(shards, &first);
            let shard_cfg = ShardConfig::default()
                .with_shards(shards)
                .with_partition_index(true);
            let drift = pimtree_common::DriftConfig::default()
                .with_repartition(true)
                .with_window(512);
            let on = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                    .with_shard(shard_cfg)
                    .with_drift(drift),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(partitioner.clone())
            .with_collected_results(true);
            let (stats, results) = on.run(&tuples);
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert_eq!(stats.migration.enabled, 1, "{shards} shards");
            assert!(
                stats.migration.epochs >= 1,
                "the drifted load must adopt a plan ({shards} shards)"
            );
            // While the drift monitor's window still mixes pre- and
            // post-drift keys, a couple of corrective epochs are legitimate;
            // without the clear-and-cooldown fix every post-adoption check
            // (each `window / 8` observations) would re-trigger against the
            // stale sample — dozens of epochs over this tail.
            assert!(
                stats.migration.epochs <= 8,
                "adoption must not oscillate: {} epochs ({shards} shards)",
                stats.migration.epochs
            );
            assert!(stats.migration.observations > 0, "{shards} shards");
            assert!(
                stats.migration.window_tuples_moved > 0,
                "a full key-range shift must migrate window tuples ({shards} shards)"
            );
            assert!(stats.migration.index_entries_moved > 0, "{shards} shards");
            assert!(stats.migration.stall_nanos > 0, "{shards} shards");
            // Flag off: identical results, untouched counters — the PR 4
            // engine bit for bit.
            let off = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(shard_cfg),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(partitioner)
            .with_collected_results(true);
            let (off_stats, off_results) = off.run(&tuples);
            assert_eq!(canonical(&off_results), expected, "{shards} shards");
            assert_eq!(
                off_stats.migration,
                Default::default(),
                "repartition off must leave the migration counters untouched"
            );
        }
    }

    /// The drifting workload with merges due back to back ([`merge_storm`]):
    /// one worker holds the maintenance claim from its first visit, merge
    /// after merge, so the epoch only gets the claim if merges stand back
    /// for a pending plan. Without that rule the plan stays pending until
    /// the run ends and no epoch is adopted.
    #[test]
    fn drifting_workload_adopts_its_plan_while_merges_recur() {
        let tuples = drifting_tuples(8000, 400, 10_000, 121);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        for shards in [2usize, 4] {
            let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
            let mut op = ParallelIbwj::new(
                config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
                    .with_shard(
                        ShardConfig::default()
                            .with_shards(shards)
                            .with_partition_index(true),
                    )
                    .with_drift(
                        pimtree_common::DriftConfig::default()
                            .with_repartition(true)
                            .with_window(512),
                    ),
                predicate,
                SharedIndexKind::PimTree,
                false,
            )
            .with_partitioner(RangePartitioner::from_key_sample(shards, &first))
            .with_collected_results(true);
            op.merge_storm = true;
            let (stats, results) = op.run(&tuples);
            assert_eq!(canonical(&results), expected, "{shards} shards");
            assert!(
                stats.migration.epochs >= 1,
                "recurring merges starved the epoch ({shards} shards)"
            );
        }
    }

    /// A forced epoch adopting the worst-case partitioner (everything to
    /// shard 0) mid-run: the migration collapses every shard's index and
    /// window state onto one shard while the ring drains tuples routed under
    /// the old policy — across both backends and merge policies, the results
    /// must stay exact and post-migration state must respect the new
    /// ownership.
    #[test]
    fn forced_skewed_repartition_epoch_preserves_results() {
        let tuples = random_tuples(4000, 400, 122);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for policy in [MergePolicy::NonBlocking, MergePolicy::Blocking] {
            for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
                let skewed = RangePartitioner::from_key_sample(4, &[]);
                let cfg = config(128, 4, 4, 0.5, policy).with_shard(
                    ShardConfig::default()
                        .with_shards(4)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(tuples.len() / 2, skewed)
                    .with_collected_results(true);
                let label = format!("{policy:?}/{kind:?}");
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    // Post-migration ownership: all state on shard 0.
                    for fp in store.shard_footprints() {
                        if fp.shard == 0 {
                            continue;
                        }
                        for side in &fp.sides {
                            assert_eq!(side.window_live, 0, "shard {}", fp.shard);
                            assert_eq!(side.index_entries, 0, "shard {}", fp.shard);
                        }
                    }
                    assert_eq!(store.epoch(), 1);
                });
                assert_eq!(canonical(&results), expected, "{label}");
                assert_eq!(stats.migration.enabled, 1, "{label}");
                assert_eq!(stats.migration.epochs, 1, "{label}");
                assert!(
                    stats.migration.window_tuples_moved > 0,
                    "collapsing 4 shards onto one must move window tuples ({label})"
                );
                assert!(stats.migration.stall_nanos > 0, "{label}");
            }
        }
    }

    /// Drift monitoring and a forced epoch armed together: the forced
    /// adoption drops any drift plan staged against the pre-forced
    /// partitioner (regression: the stale plan used to survive the forced
    /// epoch and migrate the freshly adopted state right back), results
    /// stay exact, and the combined path neither livelocks nor oscillates.
    #[test]
    fn forced_epoch_with_drift_armed_stays_exact() {
        let tuples = drifting_tuples(6000, 400, 10_000, 124);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
        let drift = pimtree_common::DriftConfig::default()
            .with_repartition(true)
            .with_window(512);
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking)
            .with_shard(
                ShardConfig::default()
                    .with_shards(2)
                    .with_partition_index(true),
            )
            .with_drift(drift);
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_partitioner(RangePartitioner::from_key_sample(2, &first))
            .with_forced_repartition(
                3 * tuples.len() / 4,
                RangePartitioner::from_key_sample(2, &[]),
            )
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.migration.epochs >= 1, "the forced epoch must fire");
        assert!(
            stats.migration.epochs <= 8,
            "stale drift plans must not replay after the forced adoption: {} epochs",
            stats.migration.epochs
        );
    }

    /// A forced 4 → 1 collapse armed so late (50 tuples before the input
    /// ends) that every worker can drain the ring and exit before its next
    /// maintenance visit: the run-end adoption must still consume the armed
    /// trigger, leaving the whole live window and index on shard 0. Whether
    /// a worker gets there first depends on the schedule, so eight inputs
    /// are run: without the run-end adoption, about half of them end with
    /// the trigger unconsumed.
    #[test]
    fn forced_epoch_armed_in_the_input_tail_is_adopted() {
        let predicate = BandPredicate::new(2);
        for seed in 127..135 {
            let tuples = random_tuples(3000, 300, seed);
            let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
            let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
                ShardConfig::default()
                    .with_shards(4)
                    .with_partition_index(true),
            );
            let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                .with_forced_repartition(
                    tuples.len() - 50,
                    RangePartitioner::from_key_sample(4, &[]),
                )
                .with_collected_results(true);
            let mut on_shard_zero = [(0usize, 0usize); 2];
            let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                for fp in store.shard_footprints() {
                    for (side, held) in fp.sides.iter().zip(on_shard_zero.iter_mut()) {
                        if fp.shard == 0 {
                            *held = (side.window_live, side.index_entries);
                        } else {
                            assert_eq!(side.window_live, 0, "seed {seed}, shard {}", fp.shard);
                            assert_eq!(side.index_entries, 0, "seed {seed}, shard {}", fp.shard);
                        }
                    }
                }
            });
            assert_eq!(canonical(&results), expected, "seed {seed}");
            assert_eq!(
                stats.migration.epochs, 1,
                "seed {seed}: the armed trigger must be adopted"
            );
            let r_count = tuples.iter().filter(|t| t.side == StreamSide::R).count();
            let live = [r_count.min(128), (tuples.len() - r_count).min(128)];
            for (side, &(window_live, index_entries)) in on_shard_zero.iter().enumerate() {
                assert_eq!(window_live, live[side], "seed {seed}, side {side}");
                assert!(
                    index_entries >= live[side],
                    "seed {seed}, side {side}: shard 0 indexes every live tuple"
                );
            }
        }
    }

    /// Open-loop pacing: arrival-rate runs report one arrival→drain sample
    /// per measured tuple through the log-bucketed histogram, keep results
    /// exact, and closed-loop runs report no histogram at all.
    #[test]
    fn open_loop_run_records_arrival_latency() {
        let tuples = random_tuples(2000, 300, 128);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        let op = ParallelIbwj::new(
            config(128, 4, 4, 0.5, MergePolicy::NonBlocking),
            predicate,
            SharedIndexKind::PimTree,
            false,
        )
        .with_collected_results(true);
        let (closed_stats, _) = op.run(&tuples);
        assert!(closed_stats.arrival_latency.is_none());
        let paced = op.clone().with_open_loop(400_000.0);
        let (stats, results) = paced.run_with_warmup(&tuples, 500);
        assert_eq!(canonical(&results), expected);
        let hist = stats
            .arrival_latency
            .expect("open-loop run records latency");
        assert_eq!(hist.len(), 1500, "one sample per measured tuple");
        assert!(hist.p99_micros() >= hist.p50_micros());
        assert!(hist.max_micros() >= hist.p999_micros());
    }

    /// At a low offered rate the ring stays shallow, so claims stay within
    /// one task and the latency a tuple sees is that of `task_size`. The rate
    /// leaves 500 µs between arrivals: a worker the test host deschedules for
    /// a time slice comes back to a deeper ring and may coalesce once, which
    /// the mean over 300 tuples absorbs.
    #[test]
    fn open_loop_at_a_low_rate_claims_no_more_than_a_task() {
        let tuples = random_tuples(300, 300, 129);
        let task = 4;
        let op = ParallelIbwj::new(
            config(128, 2, task, 0.5, MergePolicy::NonBlocking),
            BandPredicate::new(2),
            SharedIndexKind::PimTree,
            false,
        )
        .with_open_loop(2_000.0);
        let (stats, _) = op.run(&tuples);
        assert_eq!(stats.ring.tuples_acquired, 300);
        assert!(
            stats.ring.mean_task_size() <= task as f64,
            "mean claim {} at 2 000 tuples/s",
            stats.ring.mean_task_size()
        );
    }

    /// Domain-edge keys under the partitioned store: key clusters at
    /// `Key::MIN` and `Key::MAX` put partition boundaries (and probe ranges)
    /// at the integer domain edges, where the per-shard sub-range clipping
    /// must use checked arithmetic instead of wrapping (the `boundary + 1`
    /// satellite bug), including across a forced migration epoch.
    #[test]
    fn partitioned_store_domain_edge_keys_match_reference() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut seqs = [0u64, 0u64];
        let tuples: Vec<Tuple> = (0..3000)
            .map(|i| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                // Two clusters hugging the domain edges.
                let key = if i % 2 == 0 {
                    Key::MIN + rng.gen_range(0i64..200)
                } else {
                    Key::MAX - rng.gen_range(0i64..200)
                };
                Tuple::new(side, seq, key)
            })
            .collect();
        let predicate = BandPredicate::new(100);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        for shards in SHARDS {
            for forced in [false, true] {
                let cfg = config(128, 4, 4, 1.0, MergePolicy::NonBlocking).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
                    .with_collected_results(true);
                if forced {
                    let sample: Vec<Key> =
                        tuples[tuples.len() / 2..].iter().map(|t| t.key).collect();
                    op = op.with_forced_repartition(
                        tuples.len() / 2,
                        RangePartitioner::from_key_sample(shards, &sample),
                    );
                }
                let (_, results) = op.run(&tuples);
                assert_eq!(
                    canonical(&results),
                    expected,
                    "shards {shards}, forced {forced}"
                );
            }
        }
    }

    mod config_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every `JoinConfig` is either run or refused: one that
            /// validates runs to completion with the oracle's results in
            /// arrival order, and one that does not is refused by
            /// `ParallelIbwj::new` — which spawns no thread — with the
            /// `InvalidConfig` message `validate` names. The case starts from
            /// valid values of every field and, in about half the cases,
            /// breaks one of them.
            #[test]
            fn a_valid_config_runs_to_the_oracle_and_an_invalid_one_is_refused(
                seed in 0u64..1_000,
                n in 0usize..600,
                window_r in prop::sample::select(vec![1usize, 7, 64, 200]),
                window_s in prop::sample::select(vec![1usize, 7, 64, 200]),
                threads in 1usize..5,
                task_size in prop::sample::select(vec![1usize, 2, 3, 8, 64]),
                ingest_target in prop::sample::select(vec![0usize, 1, 5, 32, 100_000]),
                merge_ratio in prop::sample::select(vec![0.01, 0.125, 0.5, 1.0]),
                insertion_depth in 0usize..5,
                blocking in prop::bool::ANY,
                shards in 1usize..5,
                partition_index in prop::bool::ANY,
                repartition in prop::bool::ANY,
                drift_window in prop::sample::select(vec![1usize, 64, 4096]),
                broken in 0usize..16,
            ) {
                let policy = if blocking {
                    MergePolicy::Blocking
                } else {
                    MergePolicy::NonBlocking
                };
                let mut cfg = config(window_r.max(window_s), threads, task_size, merge_ratio, policy)
                    .with_ingest_target(ingest_target)
                    .with_shard(
                        ShardConfig::default()
                            .with_shards(shards)
                            .with_partition_index(partition_index),
                    )
                    .with_drift(
                        pimtree_common::DriftConfig::default()
                            .with_repartition(repartition)
                            .with_window(drift_window),
                    );
                cfg.window_r = window_r;
                cfg.window_s = window_s;
                cfg.pim.insertion_depth = insertion_depth;
                match broken {
                    0 => cfg.window_r = 0,
                    1 => cfg.window_s = 0,
                    2 => cfg.threads = 0,
                    3 => cfg.task_size = 0,
                    4 => cfg.pim.merge_ratio = [0.0, 1.5, f64::NAN][seed as usize % 3],
                    5 => cfg.shard.shards = [0, 65][seed as usize % 2],
                    6 => cfg.drift.window = 0,
                    _ => {}
                }
                let predicate = BandPredicate::new(2);
                let new = move || ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false);
                let Ok(()) = cfg.validate() else {
                    let refusal = std::panic::catch_unwind(new)
                        .expect_err("an invalid config must be refused");
                    let message = refusal.downcast_ref::<String>().cloned().unwrap_or_default();
                    let named = format!("{:?}", cfg.validate().unwrap_err());
                    prop_assert!(named.starts_with("InvalidConfig("), "{named}");
                    prop_assert!(message.contains(&named), "{message} does not name {named}");
                    return;
                };
                let tuples = random_tuples(n, 300, seed);
                let expected = canonical(&reference_join(&tuples, predicate, window_r, window_s, false));
                let op = new().with_collected_results(true);
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                let input = tuples.clone();
                std::thread::spawn(move || {
                    let _ = done_tx.send(op.run(&input));
                });
                let (stats, results) = done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{cfg:?}: the run does not terminate"));
                prop_assert_eq!(canonical(&results), expected, "{:?}", cfg);
                assert_arrival_order(&tuples, &results, &format!("{cfg:?}"));
                prop_assert_eq!(stats.ring.tuples_acquired, n as u64, "{:?}", cfg);
            }
        }
    }

    mod repartition_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The satellite property: a migration epoch forced at a random
            /// point in the stream — with either a rebalanced or a
            /// maximally skewed target partitioner — yields output identical
            /// to the shared-store oracle across both backends and merge
            /// policies, and no unexpired tuple is dropped by the migration
            /// (the live window census after the run is exactly the
            /// unexpired suffix of each side).
            #[test]
            fn forced_migration_matches_oracle_and_drops_no_live_tuple(
                seed in 0u64..1_000,
                n in 1_000usize..2_500,
                at_pct in 0usize..101,
                shards in 2usize..5,
                blocking in prop::bool::ANY,
                bw in prop::bool::ANY,
                skew in prop::bool::ANY,
            ) {
                let tuples = random_tuples(n, 300, seed);
                let predicate = BandPredicate::new(2);
                let w = 64usize;
                let expected = canonical(&reference_join(&tuples, predicate, w, w, false));
                let at = n * at_pct / 100;
                let forced = if skew {
                    RangePartitioner::from_key_sample(shards, &[])
                } else {
                    let sample: Vec<Key> = tuples[at.min(n - 1)..].iter().map(|t| t.key).collect();
                    RangePartitioner::from_key_sample(shards, &sample)
                };
                let policy = if blocking {
                    MergePolicy::Blocking
                } else {
                    MergePolicy::NonBlocking
                };
                let kind = if bw {
                    SharedIndexKind::BwTree
                } else {
                    SharedIndexKind::PimTree
                };
                let cfg = config(w, 4, 4, 0.5, policy).with_shard(
                    ShardConfig::default()
                        .with_shards(shards)
                        .with_partition_index(true),
                );
                let op = ParallelIbwj::new(cfg, predicate, kind, false)
                    .with_forced_repartition(at, forced)
                    .with_collected_results(true);
                let mut live_census = [0usize; 2];
                let (stats, results) = op.run_with_store_inspector(&tuples, 0, |store| {
                    for fp in store.shard_footprints() {
                        for (side, counts) in fp.sides.iter().zip(live_census.iter_mut()) {
                            *counts += side.window_live;
                        }
                    }
                });
                prop_assert_eq!(canonical(&results), expected);
                prop_assert_eq!(stats.migration.epochs, 1);
                // No unexpired tuple dropped (or duplicated): per side the
                // live census equals the unexpired suffix of the stream.
                let r_count = tuples.iter().filter(|t| t.side == StreamSide::R).count();
                let s_count = tuples.len() - r_count;
                prop_assert_eq!(live_census[0], r_count.min(w), "side R census");
                prop_assert_eq!(live_census[1], s_count.min(w), "side S census");
            }

        }
    }

    #[test]
    #[should_panic(expected = "disagree on the shard count")]
    fn sharded_engine_rejects_mismatched_partitioner() {
        let cfg = config(64, 2, 4, 1.0, MergePolicy::NonBlocking)
            .with_shard(ShardConfig::default().with_shards(2));
        let _ = ParallelIbwj::new(cfg, BandPredicate::new(1), SharedIndexKind::PimTree, false)
            .with_partitioner(RangePartitioner::from_key_sample(4, &[1, 2, 3]));
    }

    #[test]
    fn explicit_ring_configuration_is_honoured() {
        // A tiny ring with a fill target below one task per worker still
        // matches the reference.
        let tuples = random_tuples(2000, 200, 94);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        let cfg = config(64, 3, 2, 1.0, MergePolicy::NonBlocking).with_ingest_target(4);
        let mut op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        op.ring_capacity = 16;
        let (_, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
    }

    /// A forced mid-run migration's stall decomposes into named causes whose
    /// sum is the engine's total migration stall exactly: each quiesce is
    /// tiled by one lap timer and stored once, in `stall_causes`. The same
    /// run's phase spans land in `phase`.
    #[test]
    fn forced_migration_attributes_its_stall_to_causes() {
        let tuples = drifting_tuples(6000, 400, 10_000, 131);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 128, 128, false));
        assert!(!expected.is_empty());
        let first: Vec<Key> = tuples[..tuples.len() / 2].iter().map(|t| t.key).collect();
        let cfg = config(128, 4, 4, 0.5, MergePolicy::NonBlocking).with_shard(
            ShardConfig::default()
                .with_shards(2)
                .with_partition_index(true),
        );
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_partitioner(RangePartitioner::from_key_sample(2, &first))
            .with_forced_repartition(tuples.len() / 2, RangePartitioner::from_key_sample(2, &[]))
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert!(stats.migration.epochs >= 1);
        assert!(stats.migration.stall_nanos > 0);
        assert_eq!(
            stats.migration.stall_causes.total_nanos(),
            stats.migration.stall_nanos
        );
        // The epoch quiesces through the gate, so the gate causes must
        // carry weight; a migration must attribute state movement.
        assert!(stats.migration.stall_cause_nanos(StallCause::GateClose) > 0);
        if stats.migration.window_tuples_moved > 0 {
            let moved = stats
                .migration
                .stall_cause_nanos(StallCause::WindowSnapshot)
                + stats.migration.stall_cause_nanos(StallCause::Rebuild)
                + stats.migration.stall_cause_nanos(StallCause::IndexSwap);
            assert!(moved > 0, "moved state must attribute sub-phases");
        }
        for span in [
            stats.phase.acquire,
            stats.phase.generate,
            stats.phase.update,
        ] {
            assert!(span > Duration::ZERO, "{:?}", stats.phase);
        }
    }

    /// The engine times phases, never single probes: no clock is read
    /// around an index probe or a window scan, and the results stay exact.
    #[test]
    fn engine_reads_no_clock_around_probes_and_scans() {
        let tuples = random_tuples(3000, 300, 132);
        let predicate = BandPredicate::new(2);
        let expected = canonical(&reference_join(&tuples, predicate, 64, 64, false));
        let cfg = config(64, 2, 4, 1.0, MergePolicy::NonBlocking);
        let op = ParallelIbwj::new(cfg, predicate, SharedIndexKind::PimTree, false)
            .with_collected_results(true);
        let (stats, results) = op.run(&tuples);
        assert_eq!(canonical(&results), expected);
        assert_eq!(
            stats.breakdown.count(pimtree_common::Step::Search)
                + stats.breakdown.count(pimtree_common::Step::Scan),
            0
        );
    }
}
