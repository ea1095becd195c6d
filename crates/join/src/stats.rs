//! Run statistics shared by all join operators.

use std::time::{Duration, Instant};

use pimtree_common::{CostBreakdown, LatencyHistogram, ProbeCounters};

/// Reads the clock once at a phase boundary: returns the time since `*mark`
/// — the phase that just ended — and makes the reading the start of the next
/// one, so consecutive phases tile a thread's time with one read each.
#[inline]
pub(crate) fn lap(mark: &mut Instant) -> Duration {
    let now = Instant::now();
    let span = now - *mark;
    *mark = now;
    span
}

/// Statistics of one join run over a tuple sequence.
#[derive(Debug, Clone, Default)]
pub struct JoinRunStats {
    /// Tuples processed.
    pub tuples: u64,
    /// Join result pairs produced.
    pub results: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of index maintenance merges performed.
    pub merges: u64,
    /// Total time spent in merges.
    pub merge_time: Duration,
    /// Per-step cost breakdown (populated when instrumentation is enabled).
    pub breakdown: CostBreakdown,
    /// Histogram of per-tuple processing latencies (parallel operator only):
    /// closed-loop task latency, from a claim to its results being ready.
    /// A claim is a batch of one to four tasks, so under load the span is a
    /// batch's, recorded once per tuple of it. Ungated — the benchmark's
    /// `latency_p50_us` is the open-loop arrival → propagation time.
    pub latency: LatencyHistogram,
    /// Logical bytes loaded by index probes and window scans.
    pub bytes_loaded: u64,
    /// Logical bytes stored by window appends, index inserts and result
    /// emission.
    pub bytes_stored: u64,
    /// Per-phase engine times (parallel operator only), summed over all
    /// workers: task acquisition, result generation, index update, result
    /// propagation, and idle back-off. Together with `merge_time` these
    /// account for nearly all of the workers' wall-clock time and are the
    /// basis of the engine-profile diagnostics binary.
    pub phase: EnginePhaseTimes,
    /// Task-ring acquisition / contention counters (parallel operator only),
    /// summed over all workers.
    pub ring: RingCounters,
    /// Batched-probe counters (batch sizes, dedup hits, nodes prefetched),
    /// summed over all workers. All zero when the scalar probe path is used.
    pub probe: ProbeCounters,
    /// Sharded-ring counters (home-shard claims, cross-shard steals),
    /// summed over all workers. With one shard the claim accounting is still
    /// filled (every claim is a home claim); only the steal and
    /// routed-shard-stall counters are necessarily zero.
    pub shard: ShardCounters,
    /// Partitioned index/window store counters (probe fan-out, local and
    /// remote inserts and probe visits), summed over all workers. All zero
    /// when the shared store is active (`partition_index` off or one shard).
    pub store: StoreCounters,
    /// Live-repartition counters (drift observations, adopted migration
    /// epochs, moved entries, quiesce stall), summed over all workers. All
    /// zero when `--repartition` is off and no forced adoption was
    /// requested.
    pub migration: MigrationCounters,
    /// End-to-end arrival → propagation latency histogram of the open-loop
    /// harness: per tuple, drain time minus scheduled (virtual) arrival
    /// time, so queueing delay behind a stalled or saturated engine counts
    /// toward the tail — closed-loop task latency cannot see it
    /// (coordinated omission). `None` unless an arrival rate was armed.
    pub arrival_latency: Option<LatencyHistogram>,
}

/// Counters of the drift-driven live repartitioning: how many observations
/// the drift monitor consumed, how many repartition plans were adopted
/// (migration epochs) or rejected by the cost gate, how much shard state the
/// migrations moved, and how long the engine was stalled behind the quiesce
/// gate. The drainer counts observations and rejected plans, the worker that
/// runs an epoch counts it, and [`JoinRunStats::absorb`] sums them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// 1 when live repartitioning (or a forced adoption) was armed for the
    /// run (`max`-merged, not summed).
    pub enabled: u64,
    /// `(key, match count)` observations fed into the drift monitor.
    pub observations: u64,
    /// Repartition plans adopted, one migration epoch each.
    pub epochs: u64,
    /// Plans whose moved-weight fraction failed the cost gate (or that were
    /// no-ops against the current partitioner) and were not adopted.
    pub plans_rejected: u64,
    /// Index entries whose home shard changed and were rebuilt into the new
    /// owner's index, summed over epochs.
    pub index_entries_moved: u64,
    /// Window tuples whose home shard changed and were re-homed, summed over
    /// epochs.
    pub window_tuples_moved: u64,
    /// Wall-clock nanoseconds the engine spent quiesced for migrations
    /// (gate close through gate reopen), summed over all epochs.
    pub stall_nanos: u64,
    /// Longest single quiesce in nanoseconds: the worst pause one epoch
    /// imposed (`max`-merged, not summed).
    pub max_stall_nanos: u64,
    /// Per-cause decomposition of `stall_nanos`: every quiesce interval is
    /// tiled into gate-close / in-flight-drain / snapshot / rebuild / swap
    /// segments by a lap timer, so the causes sum to the total exactly.
    pub stall_causes: StallBreakdown,
}

impl MigrationCounters {
    /// Folds another run's counters into this one.
    pub fn merge_from(&mut self, other: &MigrationCounters) {
        self.enabled = self.enabled.max(other.enabled);
        self.observations += other.observations;
        self.epochs += other.epochs;
        self.plans_rejected += other.plans_rejected;
        self.index_entries_moved += other.index_entries_moved;
        self.window_tuples_moved += other.window_tuples_moved;
        self.stall_nanos += other.stall_nanos;
        self.max_stall_nanos = self.max_stall_nanos.max(other.max_stall_nanos);
        self.stall_causes.merge_from(&other.stall_causes);
    }

    /// Total entries (index plus window) the migrations re-homed.
    pub fn tuples_moved(&self) -> u64 {
        self.index_entries_moved + self.window_tuples_moved
    }

    /// Total migration stall in microseconds.
    pub fn stall_micros(&self) -> f64 {
        self.stall_nanos as f64 / 1_000.0
    }

    /// Longest single migration quiesce in microseconds.
    pub fn max_stall_micros(&self) -> f64 {
        self.max_stall_nanos as f64 / 1_000.0
    }

    /// Records one quiesce of `nanos` nanoseconds into both the cumulative
    /// and the worst-case stall.
    pub fn record_stall(&mut self, nanos: u64) {
        self.stall_nanos += nanos;
        self.max_stall_nanos = self.max_stall_nanos.max(nanos);
    }

    /// Records one quiesce with its per-cause lap breakdown. The breakdown's
    /// segments tile the quiesce interval, so `stall_nanos` advances by
    /// exactly the breakdown total and the per-cause sum stays equal to the
    /// cumulative stall.
    pub fn record_stall_breakdown(&mut self, breakdown: &StallBreakdown) {
        self.record_stall(breakdown.total_nanos());
        self.stall_causes.merge_from(breakdown);
    }

    /// Nanoseconds of migration stall attributed to `cause`.
    pub fn stall_cause_nanos(&self, cause: StallCause) -> u64 {
        self.stall_causes.nanos(cause)
    }
}

/// Named causes a migration quiesce interval decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Closing the admission gate (storing the flag, before draining).
    GateClose,
    /// Spinning until in-flight workers retire their current task.
    InFlightDrain,
    /// Snapshotting window contents for redistribution.
    WindowSnapshot,
    /// Rebuilding per-shard indexes over the redistributed entries.
    Rebuild,
    /// Swapping the rebuilt index/window shards into place.
    IndexSwap,
    /// Re-resolving the plan and swapping the router / route overrides.
    RouterSwap,
}

impl StallCause {
    /// All causes in reporting order.
    pub const ALL: [StallCause; 6] = [
        StallCause::GateClose,
        StallCause::InFlightDrain,
        StallCause::WindowSnapshot,
        StallCause::Rebuild,
        StallCause::IndexSwap,
        StallCause::RouterSwap,
    ];

    /// Stable array index for the cause.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StallCause::GateClose => 0,
            StallCause::InFlightDrain => 1,
            StallCause::WindowSnapshot => 2,
            StallCause::Rebuild => 3,
            StallCause::IndexSwap => 4,
            StallCause::RouterSwap => 5,
        }
    }

    /// Stable snake-case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::GateClose => "gate_close",
            StallCause::InFlightDrain => "in_flight_drain",
            StallCause::WindowSnapshot => "window_snapshot",
            StallCause::Rebuild => "rebuild",
            StallCause::IndexSwap => "index_swap",
            StallCause::RouterSwap => "router_swap",
        }
    }
}

/// Number of distinct [`StallCause`] values.
pub const STALL_CAUSE_COUNT: usize = 6;

/// Accumulated per-cause stall time and occurrence counts.
///
/// `Copy` on purpose: the join engine embeds one in its `Copy` migration
/// counter block and merges per-epoch breakdowns into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    nanos: [u64; STALL_CAUSE_COUNT],
    counts: [u64; STALL_CAUSE_COUNT],
}

impl StallBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to `cause` and bumps its occurrence count.
    #[inline]
    pub fn record(&mut self, cause: StallCause, nanos: u64) {
        self.nanos[cause.index()] += nanos;
        self.counts[cause.index()] += 1;
    }

    /// Total accumulated nanoseconds for `cause`.
    pub fn nanos(&self, cause: StallCause) -> u64 {
        self.nanos[cause.index()]
    }

    /// Number of times `cause` was recorded.
    pub fn count(&self, cause: StallCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Sum of all causes, in nanoseconds. Because `StallLap` partitions a
    /// quiesce interval into consecutive cause segments, this equals the
    /// measured stall total exactly.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Folds another breakdown into this one.
    pub fn merge_from(&mut self, other: &StallBreakdown) {
        for i in 0..STALL_CAUSE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }
}

/// A lap timer that partitions one quiesce interval into consecutive
/// [`StallCause`] segments.
///
/// Each [`StallLap::lap`] call attributes the time since the previous lap
/// (or since [`StallLap::start`]) to one cause and advances the cursor, so
/// the segments tile the interval with no gaps or overlaps: the breakdown's
/// [`StallBreakdown::total_nanos`] equals the elapsed wall-clock time of the
/// interval exactly. [`StallLap::lap_split`] distributes one segment over
/// several causes using externally measured sub-phase timings, attributing
/// any remainder to a designated cause so coverage stays exact.
#[derive(Debug)]
pub(crate) struct StallLap {
    last: Instant,
    breakdown: StallBreakdown,
}

impl StallLap {
    /// Starts a lap timer at the current instant.
    pub(crate) fn start() -> Self {
        StallLap {
            last: Instant::now(),
            breakdown: StallBreakdown::new(),
        }
    }

    /// Attributes the time since the previous lap to `cause`. Returns the
    /// segment length in nanoseconds.
    pub(crate) fn lap(&mut self, cause: StallCause) -> u64 {
        let now = Instant::now();
        let nanos = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.breakdown.record(cause, nanos);
        nanos
    }

    /// Attributes the time since the previous lap to several causes using
    /// externally measured sub-phase nanoseconds; whatever the splits do not
    /// cover goes to `remainder` (splits exceeding the segment are scaled
    /// down proportionally so the total stays exact). Returns the segment
    /// length in nanoseconds.
    pub(crate) fn lap_split(&mut self, splits: &[(StallCause, u64)], remainder: StallCause) -> u64 {
        let now = Instant::now();
        let total = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let claimed: u64 = splits.iter().map(|&(_, n)| n).sum();
        if claimed > 0 && claimed <= total {
            for &(cause, n) in splits {
                self.breakdown.record(cause, n);
            }
            self.breakdown.record(remainder, total - claimed);
        } else if claimed > total {
            // Sub-phase clocks overshot the outer segment (scheduling skew);
            // scale them down so the partition still tiles exactly.
            let mut assigned = 0u64;
            for (i, &(cause, n)) in splits.iter().enumerate() {
                let share = if i + 1 == splits.len() {
                    total - assigned
                } else {
                    ((n as u128 * total as u128) / claimed as u128) as u64
                };
                assigned += share;
                self.breakdown.record(cause, share);
            }
            self.breakdown.record(remainder, 0);
        } else {
            self.breakdown.record(remainder, total);
        }
        total
    }

    /// Finishes the lap and returns the per-cause breakdown.
    pub(crate) fn finish(self) -> StallBreakdown {
        self.breakdown
    }
}

/// Counters of the partitioned index/window store (`ShardStore`): how inserts
/// were routed to their owning shard and how far probes fanned out across
/// the shards overlapping their band-join range. Counted per worker and
/// summed by [`JoinRunStats::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// 1 when the partitioned store was active, 0 under the shared store
    /// (`max`-merged, not summed).
    pub partitioned: u64,
    /// Number of store shards the engine ran with (`max`-merged, not summed).
    pub store_shards: u64,
    /// Probe ranges routed through the partitioned store's fan-out query.
    pub probes: u64,
    /// Total shards visited across all routed probes (`probes` of them
    /// visited at least one shard; a probe never visits a shard whose key
    /// range does not overlap it).
    pub probe_shard_visits: u64,
    /// Probes whose band-join range was covered by a single shard.
    pub single_shard_probes: u64,
    /// Largest fan-out of a single probe (`max`-merged, not summed).
    pub max_probe_fanout: u64,
    /// Tuples inserted into the index/window shard owned by the inserting
    /// worker's home shard.
    pub local_inserts: u64,
    /// Tuples whose owning shard differed from the inserting worker's home
    /// shard.
    pub remote_inserts: u64,
    /// Probe shard visits that hit the probing worker's home shard.
    pub local_probe_visits: u64,
    /// Probe shard visits that crossed to a remote shard.
    pub remote_probe_visits: u64,
}

impl StoreCounters {
    /// Folds another worker's counters into this one.
    pub fn merge_from(&mut self, other: &StoreCounters) {
        self.partitioned = self.partitioned.max(other.partitioned);
        self.store_shards = self.store_shards.max(other.store_shards);
        self.probes += other.probes;
        self.probe_shard_visits += other.probe_shard_visits;
        self.single_shard_probes += other.single_shard_probes;
        self.max_probe_fanout = self.max_probe_fanout.max(other.max_probe_fanout);
        self.local_inserts += other.local_inserts;
        self.remote_inserts += other.remote_inserts;
        self.local_probe_visits += other.local_probe_visits;
        self.remote_probe_visits += other.remote_probe_visits;
    }

    /// Mean shards visited per routed probe (0 when nothing was routed).
    pub fn mean_probe_fanout(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.probe_shard_visits as f64 / self.probes as f64
        }
    }

    /// Fraction of store accesses (inserts plus probe visits) that crossed
    /// to a remote shard (0 when nothing was recorded).
    pub fn remote_fraction(&self) -> f64 {
        let local = self.local_inserts + self.local_probe_visits;
        let remote = self.remote_inserts + self.remote_probe_visits;
        if local + remote == 0 {
            0.0
        } else {
            remote as f64 / (local + remote) as f64
        }
    }
}

/// Counters of the sharded task-ring layer: how work was routed across the
/// per-node ring shards and how often workers had to steal from a remote
/// shard. Counted per worker and summed by [`JoinRunStats::absorb`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    /// Number of ring shards the engine ran with (`max`-merged, not summed).
    pub shards: u64,
    /// Tasks claimed from the worker's home shard.
    pub local_tasks: u64,
    /// Tuples claimed from the worker's home shard.
    pub local_tuples: u64,
    /// Tasks claimed by stealing from a remote shard.
    pub steal_tasks: u64,
    /// Tuples acquired through steals.
    pub stolen_tuples: u64,
    /// Claim rounds in which neither the home shard nor any remote shard had
    /// work (the sharded analogue of an empty-ring miss).
    pub claim_rounds_empty: u64,
    /// Ingestion stalls because the *routed* shard was full while other
    /// shards still had room — the cost of preserving global arrival order
    /// under a skewed key distribution.
    pub shard_full_stalls: u64,
}

impl ShardCounters {
    /// Folds another worker's counters into this one.
    pub fn merge_from(&mut self, other: &ShardCounters) {
        self.shards = self.shards.max(other.shards);
        self.local_tasks += other.local_tasks;
        self.local_tuples += other.local_tuples;
        self.steal_tasks += other.steal_tasks;
        self.stolen_tuples += other.stolen_tuples;
        self.claim_rounds_empty += other.claim_rounds_empty;
        self.shard_full_stalls += other.shard_full_stalls;
    }

    /// Fraction of acquired tuples that came from a remote shard (0 when
    /// nothing was acquired).
    pub fn steal_fraction(&self) -> f64 {
        let total = self.local_tuples + self.stolen_tuples;
        if total == 0 {
            0.0
        } else {
            self.stolen_tuples as f64 / total as f64
        }
    }
}

/// Counters of the parallel engine's lock-free task ring, recording how often
/// each coordination point was exercised and how often it was contended.
/// All counts are summed across workers by [`JoinRunStats::absorb`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RingCounters {
    /// Successful task acquisitions (claim batches).
    pub tasks_acquired: u64,
    /// Tuples acquired across all claim batches.
    pub tuples_acquired: u64,
    /// Failed compare-exchange attempts on the claim ticket — the direct
    /// measure of acquisition contention.
    pub claim_retries: u64,
    /// Times a worker won the ingest token and batch-filled the ring.
    pub ingest_batches: u64,
    /// Times a worker skipped ingestion because another held the token.
    pub ingest_token_contended: u64,
    /// Ingestion stalls due to the non-indexed-suffix admission bound.
    pub ingest_stalls: u64,
    /// Drains that propagated at least one completed slot.
    pub drain_batches: u64,
    /// Times propagation was skipped because another worker was draining.
    pub drain_contended: u64,
    /// Slots propagated to the sink in arrival order.
    pub slots_drained: u64,
    /// Idle rounds resolved by busy-spinning.
    pub idle_spins: u64,
    /// Idle rounds resolved by yielding the time slice.
    pub idle_yields: u64,
    /// Idle rounds resolved by parking (short sleep).
    pub idle_parks: u64,
}

impl RingCounters {
    /// Folds another worker's counters into this one.
    pub fn merge_from(&mut self, other: &RingCounters) {
        self.tasks_acquired += other.tasks_acquired;
        self.tuples_acquired += other.tuples_acquired;
        self.claim_retries += other.claim_retries;
        self.ingest_batches += other.ingest_batches;
        self.ingest_token_contended += other.ingest_token_contended;
        self.ingest_stalls += other.ingest_stalls;
        self.drain_batches += other.drain_batches;
        self.drain_contended += other.drain_contended;
        self.slots_drained += other.slots_drained;
        self.idle_spins += other.idle_spins;
        self.idle_yields += other.idle_yields;
        self.idle_parks += other.idle_parks;
    }

    /// Mean tuples per successful acquisition (the effective task size).
    pub fn mean_task_size(&self) -> f64 {
        if self.tasks_acquired == 0 {
            0.0
        } else {
            self.tuples_acquired as f64 / self.tasks_acquired as f64
        }
    }

    /// Claim-ticket retries per acquired task — 0 means uncontended.
    pub fn claim_contention(&self) -> f64 {
        if self.tasks_acquired == 0 {
            0.0
        } else {
            self.claim_retries as f64 / self.tasks_acquired as f64
        }
    }
}

/// Wall-clock time spent by the parallel engine's workers in each phase of the
/// §4.1 algorithm, summed across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnginePhaseTimes {
    /// Task acquisition, including waiting on and ingesting into the shared
    /// work queue.
    pub acquire: Duration,
    /// Result generation: index probes plus the linear window-suffix scans.
    pub generate: Duration,
    /// Index update: batch inserts, indexed-flag updates and edge advancement.
    pub update: Duration,
    /// Ordered result propagation (drain of completed head-of-queue slots).
    pub propagate: Duration,
    /// Idle back-off while the queue was empty or the merge gate closed.
    pub idle: Duration,
}

impl EnginePhaseTimes {
    /// Folds another worker's phase times into this one.
    pub fn merge_from(&mut self, other: &EnginePhaseTimes) {
        self.acquire += other.acquire;
        self.generate += other.generate;
        self.update += other.update;
        self.propagate += other.propagate;
        self.idle += other.idle;
    }

    /// Total accounted time across all phases.
    pub fn total(&self) -> Duration {
        self.acquire + self.generate + self.update + self.propagate + self.idle
    }
}

impl JoinRunStats {
    /// Throughput in million tuples per second — the y-axis of most figures.
    pub fn million_tuples_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.tuples as f64 / secs / 1.0e6
        }
    }

    /// Average number of results per processed tuple (the observed match
    /// rate).
    pub fn observed_match_rate(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.results as f64 / self.tuples as f64
        }
    }

    /// Effective load bandwidth in GB/s over the run (Figure 11d).
    pub fn load_gbps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes_loaded as f64 / 1.0e9 / secs
        }
    }

    /// Effective store bandwidth in GB/s over the run (Figure 11d).
    pub fn store_gbps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes_stored as f64 / 1.0e9 / secs
        }
    }

    /// Folds another run's counters into this one (used to aggregate
    /// per-thread statistics).
    pub fn absorb(&mut self, other: &JoinRunStats) {
        self.tuples += other.tuples;
        self.results += other.results;
        self.merges += other.merges;
        self.merge_time += other.merge_time;
        self.breakdown.merge_from(&other.breakdown);
        self.latency.merge_from(&other.latency);
        self.bytes_loaded += other.bytes_loaded;
        self.bytes_stored += other.bytes_stored;
        self.phase.merge_from(&other.phase);
        self.ring.merge_from(&other.ring);
        self.probe.merge_from(&other.probe);
        self.shard.merge_from(&other.shard);
        self.store.merge_from(&other.store);
        self.migration.merge_from(&other.migration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_match_rate() {
        let s = JoinRunStats {
            tuples: 2_000_000,
            results: 4_000_000,
            elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((s.million_tuples_per_second() - 2.0).abs() < 1e-9);
        assert!((s.observed_match_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_and_zero_tuples_are_safe() {
        let s = JoinRunStats::default();
        assert_eq!(s.million_tuples_per_second(), 0.0);
        assert_eq!(s.observed_match_rate(), 0.0);
        assert_eq!(s.load_gbps(), 0.0);
        assert_eq!(s.store_gbps(), 0.0);
    }

    #[test]
    fn bandwidth_is_bytes_over_time() {
        let s = JoinRunStats {
            elapsed: Duration::from_secs(2),
            bytes_loaded: 4_000_000_000,
            bytes_stored: 1_000_000_000,
            ..Default::default()
        };
        assert!((s.load_gbps() - 2.0).abs() < 1e-9);
        assert!((s.store_gbps() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ring_counters_absorb_and_derive() {
        let mut a = JoinRunStats::default();
        a.ring.tasks_acquired = 4;
        a.ring.tuples_acquired = 16;
        a.ring.claim_retries = 2;
        let mut b = JoinRunStats::default();
        b.ring.tasks_acquired = 6;
        b.ring.tuples_acquired = 24;
        b.ring.drain_contended = 3;
        a.absorb(&b);
        assert_eq!(a.ring.tasks_acquired, 10);
        assert_eq!(a.ring.tuples_acquired, 40);
        assert_eq!(a.ring.drain_contended, 3);
        assert!((a.ring.mean_task_size() - 4.0).abs() < 1e-9);
        assert!((a.ring.claim_contention() - 0.2).abs() < 1e-9);
        assert_eq!(RingCounters::default().mean_task_size(), 0.0);
        assert_eq!(RingCounters::default().claim_contention(), 0.0);
    }

    #[test]
    fn probe_counters_absorb_and_derive() {
        let mut a = JoinRunStats::default();
        a.probe.batches = 2;
        a.probe.batched_keys = 10;
        a.probe.max_batch = 6;
        a.probe.dedup_hits = 1;
        let mut b = JoinRunStats::default();
        b.probe.batches = 3;
        b.probe.batched_keys = 10;
        b.probe.max_batch = 4;
        b.probe.nodes_prefetched = 7;
        a.absorb(&b);
        assert_eq!(a.probe.batches, 5);
        assert_eq!(a.probe.batched_keys, 20);
        assert_eq!(a.probe.max_batch, 6, "max, not sum");
        assert_eq!(a.probe.nodes_prefetched, 7);
        assert!((a.probe.mean_batch_size() - 4.0).abs() < 1e-9);
        assert!((a.probe.dedup_rate() - 0.05).abs() < 1e-9);
        assert_eq!(ProbeCounters::default().mean_batch_size(), 0.0);
        assert_eq!(ProbeCounters::default().dedup_rate(), 0.0);
    }

    #[test]
    fn per_worker_probe_counters_are_summed_not_overwritten() {
        // Several workers report distinct counters; the run total must be
        // the field-wise sum (max for `max_batch`), no matter how many
        // workers fold in or in which order — a later worker must never
        // overwrite an earlier one's contribution.
        let mut workers = Vec::new();
        for w in 1..=3u64 {
            let mut s = JoinRunStats::default();
            s.probe.batches = w;
            s.probe.batched_keys = 10 * w;
            s.probe.max_batch = 4 + w;
            s.probe.dedup_hits = w;
            s.probe.nodes_prefetched = 100 * w;
            s.probe.scalar_probes = w;
            s.probe.ti_partition_locks = 2 * w;
            s.probe.ti_range_visits = 3 * w;
            s.probe.node_searches = 20 * w;
            workers.push(s);
        }
        let mut total = JoinRunStats::default();
        for w in &workers {
            total.absorb(w);
        }
        assert_eq!(total.probe.batches, 6);
        assert_eq!(total.probe.batched_keys, 60);
        assert_eq!(total.probe.max_batch, 7, "max, not sum");
        assert_eq!(total.probe.dedup_hits, 6);
        assert_eq!(total.probe.nodes_prefetched, 600);
        assert_eq!(total.probe.scalar_probes, 6);
        assert_eq!(total.probe.ti_partition_locks, 12);
        assert_eq!(total.probe.ti_range_visits, 18);
        assert_eq!(total.probe.node_searches, 120);
    }

    #[test]
    fn shard_counters_absorb_and_derive() {
        let mut a = JoinRunStats::default();
        a.shard.shards = 4;
        a.shard.local_tasks = 3;
        a.shard.local_tuples = 12;
        a.shard.steal_tasks = 1;
        a.shard.stolen_tuples = 4;
        let mut b = JoinRunStats::default();
        b.shard.shards = 4;
        b.shard.local_tuples = 4;
        b.shard.claim_rounds_empty = 2;
        a.absorb(&b);
        assert_eq!(a.shard.shards, 4, "max, not sum");
        assert_eq!(a.shard.local_tuples, 16);
        assert_eq!(a.shard.stolen_tuples, 4);
        assert_eq!(a.shard.claim_rounds_empty, 2);
        assert!((a.shard.steal_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(ShardCounters::default().steal_fraction(), 0.0);
    }

    #[test]
    fn store_counters_absorb_and_derive() {
        let mut a = JoinRunStats::default();
        a.store.partitioned = 1;
        a.store.store_shards = 4;
        a.store.probes = 10;
        a.store.probe_shard_visits = 15;
        a.store.single_shard_probes = 6;
        a.store.max_probe_fanout = 3;
        a.store.local_inserts = 8;
        a.store.local_probe_visits = 12;
        let mut b = JoinRunStats::default();
        b.store.partitioned = 1;
        b.store.store_shards = 4;
        b.store.probes = 10;
        b.store.probe_shard_visits = 25;
        b.store.max_probe_fanout = 4;
        b.store.remote_inserts = 2;
        b.store.remote_probe_visits = 3;
        a.absorb(&b);
        assert_eq!(a.store.partitioned, 1, "max, not sum");
        assert_eq!(a.store.store_shards, 4, "max, not sum");
        assert_eq!(a.store.probes, 20);
        assert_eq!(a.store.probe_shard_visits, 40);
        assert_eq!(a.store.max_probe_fanout, 4, "max, not sum");
        assert!((a.store.mean_probe_fanout() - 2.0).abs() < 1e-9);
        // 20 local (8 inserts + 12 visits) vs 5 remote (2 + 3).
        assert!((a.store.remote_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(StoreCounters::default().mean_probe_fanout(), 0.0);
        assert_eq!(StoreCounters::default().remote_fraction(), 0.0);
    }

    #[test]
    fn migration_counters_absorb_and_derive() {
        let mut a = JoinRunStats::default();
        a.migration.enabled = 1;
        a.migration.observations = 100;
        a.migration.epochs = 1;
        a.migration.index_entries_moved = 30;
        a.migration.window_tuples_moved = 20;
        a.migration.record_stall(3_000);
        a.migration.record_stall(2_000);
        let mut b = JoinRunStats::default();
        b.migration.enabled = 1;
        b.migration.epochs = 2;
        b.migration.plans_rejected = 1;
        b.migration.window_tuples_moved = 10;
        b.migration.record_stall(4_000);
        a.absorb(&b);
        assert_eq!(a.migration.enabled, 1, "max, not sum");
        assert_eq!(a.migration.epochs, 3);
        assert_eq!(a.migration.plans_rejected, 1);
        assert_eq!(a.migration.tuples_moved(), 60);
        assert!((a.migration.stall_micros() - 9.0).abs() < 1e-9);
        assert_eq!(a.migration.max_stall_nanos, 4_000, "max, not sum");
        assert!((a.migration.max_stall_micros() - 4.0).abs() < 1e-9);
        assert_eq!(MigrationCounters::default().tuples_moved(), 0);
        assert_eq!(MigrationCounters::default().stall_micros(), 0.0);
        assert_eq!(MigrationCounters::default().max_stall_micros(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = JoinRunStats {
            tuples: 10,
            results: 20,
            bytes_loaded: 100,
            ..Default::default()
        };
        let b = JoinRunStats {
            tuples: 5,
            results: 7,
            bytes_loaded: 50,
            bytes_stored: 9,
            merges: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.tuples, 15);
        assert_eq!(a.results, 27);
        assert_eq!(a.bytes_loaded, 150);
        assert_eq!(a.bytes_stored, 9);
        assert_eq!(a.merges, 2);
    }

    #[test]
    fn stall_cause_indices_are_dense_and_labels_distinct() {
        let mut seen = [false; STALL_CAUSE_COUNT];
        for c in StallCause::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), STALL_CAUSE_COUNT);
    }

    #[test]
    fn stall_breakdown_records_and_merges() {
        let mut a = StallBreakdown::new();
        assert!(a.is_empty());
        a.record(StallCause::GateClose, 100);
        a.record(StallCause::Rebuild, 400);
        let mut b = StallBreakdown::new();
        b.record(StallCause::GateClose, 50);
        b.record(StallCause::RouterSwap, 25);
        a.merge_from(&b);
        assert_eq!(a.nanos(StallCause::GateClose), 150);
        assert_eq!(a.count(StallCause::GateClose), 2);
        assert_eq!(a.nanos(StallCause::Rebuild), 400);
        assert_eq!(a.nanos(StallCause::RouterSwap), 25);
        assert_eq!(a.total_nanos(), 575);
        assert!(!a.is_empty());
    }

    #[test]
    fn stall_lap_partitions_the_interval_exactly() {
        let started = Instant::now();
        let mut lap = StallLap::start();
        std::hint::black_box((0..1000).sum::<u64>());
        lap.lap(StallCause::GateClose);
        std::hint::black_box((0..1000).sum::<u64>());
        lap.lap_split(
            &[(StallCause::WindowSnapshot, 1), (StallCause::IndexSwap, 1)],
            StallCause::Rebuild,
        );
        lap.lap(StallCause::RouterSwap);
        let upper = started.elapsed().as_nanos() as u64;
        let b = lap.finish();
        // The segments tile the interval: every cause the laps touched is
        // counted once, and the sum is bounded by the outer elapsed time.
        assert_eq!(b.count(StallCause::GateClose), 1);
        assert_eq!(b.count(StallCause::WindowSnapshot), 1);
        assert_eq!(b.count(StallCause::IndexSwap), 1);
        assert_eq!(b.count(StallCause::Rebuild), 1);
        assert_eq!(b.count(StallCause::RouterSwap), 1);
        assert_eq!(b.count(StallCause::InFlightDrain), 0);
        assert!(b.total_nanos() <= upper);
        assert_eq!(
            b.nanos(StallCause::WindowSnapshot) + b.nanos(StallCause::IndexSwap),
            2,
            "externally measured sub-phases pass through verbatim"
        );
    }

    #[test]
    fn stall_lap_split_scales_down_overshooting_subphases() {
        let mut lap = StallLap::start();
        // Claimed sub-phase nanos far exceed any real elapsed segment.
        let seg = lap.lap_split(
            &[
                (StallCause::WindowSnapshot, u64::MAX / 4),
                (StallCause::IndexSwap, u64::MAX / 4),
            ],
            StallCause::Rebuild,
        );
        let b = lap.finish();
        assert_eq!(b.total_nanos(), seg, "scaling preserves the exact total");
    }
}
