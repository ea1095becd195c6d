//! The per-shard index/window store of the parallel engine.
//!
//! PR 3 sharded the engine's *coordination* state (the task ring), but every
//! probe and insert still walked one shared index per side — on a real
//! multi-socket host exactly the cross-socket memory traffic the paper's NUMA
//! discussion (§7) says a partitioned index removes. [`ShardStore`] finishes
//! that design: behind one facade it owns either
//!
//! * the **shared store** — one [`SlidingWindow`] plus one index per side,
//!   the engine's original layout, taken verbatim whenever the partitioned
//!   store is off or only one shard is configured — or
//! * the **partitioned store** — per shard, one index *and* one
//!   [`ShardWindow`] slice per side, each holding only the tuples whose keys
//!   fall into the shard's range under a [`RangePartitioner`].
//!
//! Under the partitioned store:
//!
//! * **Inserts route to the owning shard.** An insert touches exactly one
//!   shard's index and window; inserts from a worker homed on another shard
//!   are charged as remote accesses to the store's simulated
//!   [`TrafficAccount`].
//! * **Probes fan out across overlapping shards only.** A band-join probe
//!   range `[k − w, k + w]` is routed through
//!   [`RangePartitioner::covering_shards`]; only the shards whose key ranges
//!   overlap it are visited (most narrow-band probes visit exactly one), and
//!   each visit is charged local/remote like an insert. Per visited shard the
//!   probe splits at *that shard's* edge tuple: index lookups below it, a
//!   linear scan of the shard's window suffix above it. The per-shard results
//!   merge by concatenation — shards own disjoint key ranges, so no
//!   deduplication is ever needed.
//! * **Expiry stays globally correct.** A tuple expires when `w` newer
//!   tuples of its *side* arrived, regardless of shard; every liveness
//!   decision (probe filtering, merge horizons, eager Bw-Tree deletion) is
//!   made against the side's global head, which the store maintains at
//!   ingestion. Eager-deletion backends retire each shard's slice through the
//!   shard window's expiry cursor, so a tuple is never deleted from (or left
//!   behind in) another shard's index.
//!
//! The engine's correctness argument is untouched: per (tuple, shard) the
//! edge split covers `[earliest, latest)` exactly once, a stale shard edge
//! only lengthens that shard's scan, and merge horizons are global sequence
//! numbers, so a per-shard PIM-Tree merge never drops an entry an in-flight
//! task may still probe.

use std::ops::Range;
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use pimtree_btree::Entry;
use pimtree_bwtree::BwTreeIndex;
use pimtree_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pimtree_common::sync::RwLock;
use pimtree_common::{Key, KeyRange, PimConfig, Result, Seq};
use pimtree_core::PimTree;
use pimtree_numa::{NumaTopology, RangePartitioner, TrafficAccount};
use pimtree_window::{ShardWindow, SlidingWindow, WindowBounds};

use crate::parallel::SharedIndexKind;
use crate::stats::JoinRunStats;

/// One index instance of the store: the PIM-Tree with its merge machinery or
/// the Bw-Tree-style eager-deletion index.
#[allow(clippy::large_enum_variant)] // a handful of instances per run; size is irrelevant
pub(crate) enum StoreIndex {
    /// The PIM-Tree with the configured merge policy. Behind an `Arc` so the
    /// merge coordinator can hold a handle across a (long) merge without
    /// pinning the store's shard table read-locked; the migration epoch
    /// protocol guarantees the tree is never swapped out from under a merge
    /// (both paths serialize on the engine's maintenance claim).
    Pim(Arc<PimTree>),
    /// The Bw-Tree-style index (no merges; eager expiry deletion).
    Bw(BwTreeIndex),
}

impl StoreIndex {
    fn new(kind: SharedIndexKind, pim: PimConfig) -> Self {
        match kind {
            SharedIndexKind::PimTree => StoreIndex::Pim(Arc::new(PimTree::new(pim))),
            SharedIndexKind::BwTree => StoreIndex::Bw(BwTreeIndex::new()),
        }
    }

    /// Returns whether the batch left the index due for a merge (what
    /// [`StoreIndex::needs_merge`] would say right after it).
    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        match self {
            StoreIndex::Pim(t) => t.insert_batch(entries),
            StoreIndex::Bw(t) => {
                for &(key, seq) in entries {
                    t.insert(key, seq);
                }
                false
            }
        }
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(Entry)) {
        match self {
            StoreIndex::Pim(t) => t.range_for_each(range, f),
            StoreIndex::Bw(t) => t.range_for_each(range, f),
        }
    }

    /// Multi-range probe: `f(i, run)` for the sorted runs of `ranges[i]`,
    /// slices of the index's own storage. The PIM-Tree answers the whole
    /// batch with one sorted/deduplicated, prefetched CSS-Tree group descent
    /// and batched partition routing (one partition lock per unique
    /// partition per call). The Bw-Tree has no group probe — scalar probes,
    /// counted as such — and its delta pages nothing contiguous to lend:
    /// every entry is a run of one.
    fn probe_runs(
        &self,
        ranges: &[KeyRange],
        counters: &mut pimtree_common::ProbeCounters,
        f: &mut dyn FnMut(usize, &[Entry]),
    ) {
        match self {
            StoreIndex::Pim(t) => t.probe_batch(ranges, counters, f),
            StoreIndex::Bw(t) => {
                counters.scalar_probes += ranges.len() as u64;
                for (i, &range) in ranges.iter().enumerate() {
                    t.range_for_each(range, |e| f(i, std::slice::from_ref(&e)));
                }
            }
        }
    }

    fn needs_merge(&self) -> bool {
        match self {
            StoreIndex::Pim(t) => t.needs_merge(),
            StoreIndex::Bw(_) => false,
        }
    }
}

/// What [`ShardStore::generate`] hands its caller, one dynamic call per run:
/// the probe's position in the batch, a sorted run of stored entries whose
/// keys lie in that probe's range, and the interval of sequence numbers that
/// are live for the probe *in this run* — `[earliest, index horizon)` under
/// the batch's edge snapshot for a run out of the index, the hit's own
/// sequence number for a window-suffix hit, a run of one. The caller keeps
/// the entries whose `seq` the interval contains — the only work left per
/// entry — and it is the caller that counts or materialises them.
pub(crate) type RunSink<'a> = dyn FnMut(usize, &[Entry], Range<Seq>) + 'a;

/// Construction parameters shared by both store layouts.
pub(crate) struct StoreParams {
    /// Which index backend each window gets.
    pub kind: SharedIndexKind,
    /// PIM-Tree tuning (window size already resolved to the larger window).
    pub pim: PimConfig,
    /// Live window size per side (side 1 is 1 for self-joins).
    pub window_sizes: [usize; 2],
    /// Extra window slots retained past expiry for in-flight readers.
    pub slack: usize,
    /// Eager-deletion lag of the Bw-Tree backend (sequence numbers a
    /// deletion trails the expiry horizon by, so no in-flight task can still
    /// need the deleted entry).
    pub deletion_lag: u64,
}

/// The engine's original layout: one shared window and index per side.
struct SharedState {
    windows: [SlidingWindow; 2],
    indexes: [StoreIndex; 2],
}

/// One shard of the partitioned store: per side, the index and window slice
/// covering only the shard's key range.
struct StoreShard {
    windows: [ShardWindow; 2],
    indexes: [StoreIndex; 2],
}

impl StoreShard {
    fn new(window_sizes: [usize; 2], slack: usize, kind: SharedIndexKind, pim: PimConfig) -> Self {
        StoreShard {
            windows: [
                ShardWindow::new(window_sizes[0], slack),
                ShardWindow::new(window_sizes[1], slack),
            ],
            indexes: [StoreIndex::new(kind, pim), StoreIndex::new(kind, pim)],
        }
    }
}

/// The migratable core of the partitioned layout: the partitioner and the
/// shard table it routes into always change together (a migration epoch
/// swaps both under one quiesce), so they live behind one lock.
struct PartitionedInner {
    partitioner: RangePartitioner,
    shards: Vec<StoreShard>,
}

/// The partitioned layout: one [`StoreShard`] per key range, plus the global
/// per-side heads that keep expiry count-based on the *global* stream.
///
/// The partitioner/shard table sits behind an `RwLock` so a migration epoch
/// can swap in a rebalanced partitioning mid-run: the hot paths take
/// uncontended read locks, the (rare) migration takes the write lock while
/// the engine is quiesced behind its merge gate — the lock is then free by
/// construction and only fences the idle workers' edge-advance polls.
struct PartitionedState {
    inner: RwLock<PartitionedInner>,
    /// Tuples ever appended per side == the side's next sequence number.
    heads: [CachePadded<AtomicU64>; 2],
    /// Number of adopted repartition epochs (0 before the first migration).
    epoch: AtomicU64,
    topology: NumaTopology,
    traffic: TrafficAccount,
}

#[allow(clippy::large_enum_variant)] // one instance per run; size is irrelevant
enum Layout {
    Shared(SharedState),
    Partitioned(PartitionedState),
}

/// Scratch buffers of the store's hot paths, kept per thread so the steady
/// state allocates nothing (same idiom as the PIM-Tree's probe scratch).
#[derive(Default)]
struct StoreScratch {
    /// The suffix scan's probe ranges ordered by `lo` (shared layout).
    order: Vec<(Key, usize)>,
    /// Per-item covering shard interval (partitioned layout).
    cover: Vec<(usize, usize)>,
    /// Current shard's sub-batch of probe ranges / original item indices.
    sub_ranges: Vec<KeyRange>,
    sub_idx: Vec<usize>,
    /// Current shard's sub-batch of inserts.
    sub_entries: Vec<(Key, Seq)>,
    /// Insert routing: `(shard, key, seq)` per entry, grouped shard-major.
    routed: Vec<(usize, Key, Seq)>,
}

thread_local! {
    static STORE_SCRATCH: std::cell::RefCell<StoreScratch> =
        std::cell::RefCell::new(StoreScratch::default());
}

/// Probes one shard's index and window over a prepared sub-batch: for
/// segment `k` (belonging to item `sub_idx[k]`), the index's runs with the
/// live interval below the shard's edge snapshot, and the window suffix above
/// it as runs of one — the §4.1 split, per shard. Returns the window tuples
/// examined.
#[allow(clippy::too_many_arguments)] // internal worker of generate_partitioned()
fn probe_shard_segments(
    shard: &StoreShard,
    side: usize,
    sub_ranges: &[KeyRange],
    sub_idx: &[usize],
    bounds: &[WindowBounds],
    stats: &mut JoinRunStats,
    f: &mut RunSink<'_>,
) -> u64 {
    let window = &shard.windows[side];
    // This shard's edge snapshot, taken before its index probe: the shard's
    // index covers all *local* entries below it, the shard's window scan
    // covers the local suffix, and every segment routed here holds keys this
    // shard currently owns, so the union over visited shards reports every
    // match exactly once.
    let edge = window.edge_seq();
    shard.indexes[side].probe_runs(sub_ranges, &mut stats.probe, &mut |k, run| {
        let j = sub_idx[k];
        f(j, run, bounds[j].earliest..bounds[j].index_horizon(edge));
    });
    let mut examined = 0u64;
    for (k, &j) in sub_idx.iter().enumerate() {
        let b = bounds[j];
        let scan_from = b.scan_start(b.index_horizon(edge));
        examined += window.scan_linear(scan_from, b.latest_exclusive, sub_ranges[k], |seq, key| {
            f(j, &[Entry::new(key, seq)], seq..seq + 1);
        }) as u64;
    }
    examined
}

/// Per-side window and index state of the parallel engine, either shared
/// (one window/index pair per side) or partitioned per shard behind a
/// key-range partitioner. See the module documentation for the protocol.
pub struct ShardStore {
    layout: Layout,
    window_sizes: [usize; 2],
    deletion_lag: u64,
    /// Extra window slots retained past expiry (the migration keep-horizon
    /// and the rebuilt shard windows are derived from it).
    slack: usize,
    /// Index backend, kept so a migration can build fresh per-shard indexes.
    kind: SharedIndexKind,
    /// Per-shard PIM-Tree tuning (window size already divided per shard).
    shard_pim: PimConfig,
    /// Per-side "some index may need merging" hint, set by the insert path
    /// whenever a just-touched index reports `needs_merge`. Keeps the
    /// workers' per-loop merge poll at one relaxed load instead of one
    /// generation read-lock per shard; every threshold crossing happens
    /// inside an insert, so the inserting call itself always raises the
    /// hint, and a scan that finds nothing lowers it again.
    merge_hint: [AtomicBool; 2],
}

/// Footprint of one store shard, per side: how many live window tuples and
/// indexed entries the shard holds and the key span they cover. Used by
/// tests and diagnostics to verify that a shard's state never leaves its key
/// range.
#[derive(Debug, Clone, Default)]
pub struct StoreSideFootprint {
    /// Live tuples currently held by the shard's window (slice).
    pub window_live: usize,
    /// Minimum and maximum key over the live window tuples.
    pub window_key_span: Option<(Key, Key)>,
    /// Entries currently held by the shard's index (live and expired).
    pub index_entries: usize,
    /// Minimum and maximum key over the indexed entries.
    pub index_key_span: Option<(Key, Key)>,
}

/// What one shard-state migration moved: entries whose key's home shard
/// changed under the adopted partitioner. Entries that stayed home are
/// rebuilt in place and never charged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StoreMigration {
    /// Index entries re-homed to a different shard (both sides).
    pub index_entries_moved: u64,
    /// Window tuples re-homed to a different shard (both sides).
    pub window_tuples_moved: u64,
    /// Nanoseconds spent snapshotting window/index state (stall-cause
    /// attribution: the quiesce interval's window-snapshot share).
    pub snapshot_nanos: u64,
    /// Nanoseconds spent re-splitting and rebuilding shard windows/indexes.
    pub rebuild_nanos: u64,
    /// Nanoseconds spent swapping the rebuilt state in (shard table and
    /// traffic bookkeeping).
    pub swap_nanos: u64,
}

/// Footprint of one store shard (both sides).
#[derive(Debug, Clone)]
pub struct StoreShardFootprint {
    /// Shard index.
    pub shard: usize,
    /// Per-side footprints (`[R, S]`; self-joins use side 0 only).
    pub sides: [StoreSideFootprint; 2],
}

impl ShardStore {
    /// Creates the store. A partitioner with more than one node selects the
    /// partitioned layout (one index/window pair per side per shard); `None`
    /// or a single-node partitioner short-circuits to the shared layout, so
    /// the single-shard engine is untouched.
    pub(crate) fn new(params: StoreParams, partitioner: Option<RangePartitioner>) -> Self {
        // Each shard indexes only its key slice — roughly 1/N of the
        // window — so the per-shard PIM-Tree is provisioned for that
        // slice. Leaving the global window size in place would scale
        // every shard's merge threshold (`m · w`) N times too high:
        // shards would merge N times more rarely (or never), keeping
        // the search-optimised immutable component empty and
        // retaining expired entries far longer than the shared
        // engine does.
        let mut shard_pim = params.pim;
        if let Some(p) = &partitioner {
            if p.nodes() > 1 {
                shard_pim.window_size = (params.pim.window_size / p.nodes()).max(1);
            }
        }
        let layout = match partitioner {
            Some(p) if p.nodes() > 1 => {
                let nodes = p.nodes();
                let shards = (0..nodes)
                    .map(|_| {
                        StoreShard::new(params.window_sizes, params.slack, params.kind, shard_pim)
                    })
                    .collect();
                Layout::Partitioned(PartitionedState {
                    inner: RwLock::new(PartitionedInner {
                        partitioner: p,
                        shards,
                    }),
                    heads: [
                        CachePadded::new(AtomicU64::new(0)),
                        CachePadded::new(AtomicU64::new(0)),
                    ],
                    epoch: AtomicU64::new(0),
                    topology: NumaTopology::new(nodes, 90, 150),
                    traffic: TrafficAccount::new(),
                })
            }
            _ => Layout::Shared(SharedState {
                windows: [
                    SlidingWindow::new(params.window_sizes[0], params.slack),
                    SlidingWindow::new(params.window_sizes[1], params.slack),
                ],
                indexes: [
                    StoreIndex::new(params.kind, params.pim),
                    StoreIndex::new(params.kind, params.pim),
                ],
            }),
        };
        ShardStore {
            layout,
            window_sizes: params.window_sizes,
            deletion_lag: params.deletion_lag,
            slack: params.slack,
            kind: params.kind,
            shard_pim,
            merge_hint: [AtomicBool::new(false), AtomicBool::new(false)],
        }
    }

    /// Whether the partitioned layout is active.
    pub fn is_partitioned(&self) -> bool {
        matches!(self.layout, Layout::Partitioned(_))
    }

    /// Number of store shards (1 under the shared layout).
    pub fn shards(&self) -> usize {
        match &self.layout {
            Layout::Shared(_) => 1,
            Layout::Partitioned(p) => p.inner.read().shards.len(),
        }
    }

    /// The key-range partitioner of the partitioned layout, as of the
    /// current epoch (cloned: the live partitioner can be swapped by a
    /// migration epoch at any quiesce point).
    pub fn partitioner(&self) -> Option<RangePartitioner> {
        match &self.layout {
            Layout::Shared(_) => None,
            Layout::Partitioned(p) => Some(p.inner.read().partitioner.clone()),
        }
    }

    /// Number of repartition epochs adopted by the partitioned layout (0
    /// before the first migration, and always 0 under the shared layout).
    pub fn epoch(&self) -> u64 {
        match &self.layout {
            Layout::Shared(_) => 0,
            Layout::Partitioned(p) => p.epoch.load(Ordering::Acquire),
        }
    }

    /// The simulated NUMA topology store accesses are charged under
    /// (partitioned layout only).
    pub fn topology(&self) -> Option<&NumaTopology> {
        match &self.layout {
            Layout::Shared(_) => None,
            Layout::Partitioned(p) => Some(&p.topology),
        }
    }

    /// The simulated local/remote access account of the store (partitioned
    /// layout only; inserts and probe shard visits).
    pub fn traffic(&self) -> Option<&TrafficAccount> {
        match &self.layout {
            Layout::Shared(_) => None,
            Layout::Partitioned(p) => Some(&p.traffic),
        }
    }

    /// Appends a tuple to `side`'s window state, returning its sequence
    /// number (the side's global arrival index). Called only under the
    /// engine's ingest token.
    pub(crate) fn append(&self, side: usize, key: Key) -> Result<Seq> {
        match &self.layout {
            Layout::Shared(s) => s.windows[side].append(key),
            Layout::Partitioned(p) => {
                let inner = p.inner.read();
                let seq = p.heads[side].load(Ordering::Relaxed);
                let shard = inner.partitioner.node_of(key);
                let earliest_live = seq.saturating_sub(self.window_sizes[side] as u64);
                inner.shards[shard].windows[side].append(seq, key, earliest_live)?;
                p.heads[side].store(seq + 1, Ordering::Release);
                Ok(seq)
            }
        }
    }

    /// Boundary snapshot of `side`'s live window (global arrival indexes).
    pub(crate) fn bounds(&self, side: usize) -> WindowBounds {
        match &self.layout {
            Layout::Shared(s) => s.windows[side].bounds(),
            Layout::Partitioned(p) => {
                let head = p.heads[side].load(Ordering::Acquire);
                WindowBounds::new(head.saturating_sub(self.window_sizes[side] as u64), head)
            }
        }
    }

    /// Sequence number of `side`'s earliest live (non-expired) tuple.
    pub(crate) fn earliest_live(&self, side: usize) -> Seq {
        self.bounds(side).earliest
    }

    /// Length of `side`'s non-indexed suffix (summed over shards), the
    /// engine's admission-control signal.
    pub(crate) fn unindexed_len(&self, side: usize) -> u64 {
        match &self.layout {
            Layout::Shared(s) => s.windows[side].unindexed_len(),
            Layout::Partitioned(p) => p
                .inner
                .read()
                .shards
                .iter()
                .map(|sh| sh.windows[side].unindexed_len())
                .sum(),
        }
    }

    /// Attempts to advance `side`'s edge tuple(s) past consecutively indexed
    /// tuples (every shard under the partitioned layout).
    pub(crate) fn try_advance_edge(&self, side: usize) {
        match &self.layout {
            Layout::Shared(s) => {
                s.windows[side].try_advance_edge();
            }
            Layout::Partitioned(p) => {
                for sh in &p.inner.read().shards {
                    sh.windows[side].try_advance_edge();
                }
            }
        }
    }

    /// Inserts a task's tuples into `side`'s index state: under the
    /// partitioned layout every entry is routed to the shard owning its key
    /// (charged local/remote against the inserting worker's `home` shard),
    /// eager-deletion backends retire newly expired entries of the touched
    /// shards, and all inserted tuples are marked indexed with the edge(s)
    /// advanced — the exact protocol of the original engine, per shard.
    pub(crate) fn insert_batch(
        &self,
        side: usize,
        entries: &[(Key, Seq)],
        home: usize,
        stats: &mut JoinRunStats,
    ) {
        if entries.is_empty() {
            return;
        }
        match &self.layout {
            Layout::Shared(s) => {
                let merge_due = s.indexes[side].insert_batch(entries);
                if let StoreIndex::Bw(bw) = &s.indexes[side] {
                    // Eager expiry deletion with a lag large enough that no
                    // in-flight task can still need the deleted entry.
                    let w = self.window_sizes[side] as u64;
                    for &(_, seq) in entries {
                        if seq >= w + self.deletion_lag {
                            let expired_seq = seq - w - self.deletion_lag;
                            let expired_key = s.windows[side].key_of(expired_seq);
                            bw.remove(expired_key, expired_seq);
                        }
                    }
                }
                for &(_, seq) in entries {
                    s.windows[side].mark_indexed(seq);
                }
                s.windows[side].try_advance_edge();
                if merge_due {
                    self.merge_hint[side].store(true, Ordering::Relaxed);
                }
            }
            Layout::Partitioned(p) => {
                let inner = p.inner.read();
                let mut scratch = STORE_SCRATCH.with(|cell| cell.take());
                // Route each entry once, then group shard-major so only the
                // shards actually touched pay any per-shard work.
                scratch.routed.clear();
                for &(key, seq) in entries {
                    scratch
                        .routed
                        .push((inner.partitioner.node_of(key), key, seq));
                }
                // Stable sort: entries keep their task order within a shard.
                scratch.routed.sort_by_key(|&(shard, _, _)| shard);
                let mut start = 0;
                while start < scratch.routed.len() {
                    let shard_idx = scratch.routed[start].0;
                    let mut end = start;
                    while end < scratch.routed.len() && scratch.routed[end].0 == shard_idx {
                        end += 1;
                    }
                    scratch.sub_entries.clear();
                    scratch
                        .sub_entries
                        .extend(scratch.routed[start..end].iter().map(|&(_, k, s)| (k, s)));
                    start = end;
                    let n = scratch.sub_entries.len() as u64;
                    p.traffic.record(home, shard_idx, n);
                    if shard_idx == home {
                        stats.store.local_inserts += n;
                    } else {
                        stats.store.remote_inserts += n;
                    }
                    let shard = &inner.shards[shard_idx];
                    let merge_due = shard.indexes[side].insert_batch(&scratch.sub_entries);
                    if let StoreIndex::Bw(bw) = &shard.indexes[side] {
                        let w = self.window_sizes[side] as u64;
                        let newest = scratch
                            .sub_entries
                            .iter()
                            .map(|&(_, seq)| seq)
                            .max()
                            .unwrap_or(0);
                        let upto = (newest + 1).saturating_sub(w + self.deletion_lag);
                        shard.windows[side].expire_eager(upto, |key, seq| {
                            bw.remove(key, seq);
                        });
                    }
                    for &(_, seq) in &scratch.sub_entries {
                        let found = shard.windows[side].mark_indexed(seq);
                        debug_assert!(found, "inserted tuple {seq} missing from its shard window");
                    }
                    shard.windows[side].try_advance_edge();
                    if merge_due {
                        self.merge_hint[side].store(true, Ordering::Relaxed);
                    }
                }
                STORE_SCRATCH.with(|cell| cell.replace(scratch));
            }
        }
    }

    /// The shard (if any) whose index of `side` has reached its merge
    /// threshold. The shared layout reports shard 0.
    ///
    /// Gated on the per-side merge hint so the workers' per-loop poll costs
    /// one relaxed load, not a generation read-lock per shard. The hint is
    /// cleared *before* the scan: a threshold crossing whose hint raise
    /// lands after the clear survives for the next poll, and one whose
    /// raise landed before it had already pushed its tree over the
    /// threshold before the scan started, so the scan reports it — either
    /// way a crossing is never lost. A found candidate re-raises the hint,
    /// since other shards may be over their thresholds too.
    pub(crate) fn merge_candidate(&self, side: usize) -> Option<usize> {
        if !self.merge_hint[side].load(Ordering::Relaxed) {
            return None;
        }
        self.merge_hint[side].store(false, Ordering::Relaxed);
        let candidate = match &self.layout {
            Layout::Shared(s) => s.indexes[side].needs_merge().then_some(0),
            Layout::Partitioned(p) => p
                .inner
                .read()
                .shards
                .iter()
                .position(|sh| sh.indexes[side].needs_merge()),
        };
        if candidate.is_some() {
            self.merge_hint[side].store(true, Ordering::Relaxed);
        }
        candidate
    }

    /// The PIM-Tree of `(side, shard)`, if that backend is active (the merge
    /// coordinator drives the two-phase merge on it directly). Returns an
    /// owning handle so the caller does not pin the shard table read-locked
    /// across the merge; the engine's maintenance claim guarantees no
    /// migration epoch replaces the tree while the merge runs.
    pub(crate) fn pim(&self, side: usize, shard: usize) -> Option<Arc<PimTree>> {
        let index = match &self.layout {
            Layout::Shared(s) => match &s.indexes[side] {
                StoreIndex::Pim(t) => Some(Arc::clone(t)),
                StoreIndex::Bw(_) => None,
            },
            Layout::Partitioned(p) => match &p.inner.read().shards[shard].indexes[side] {
                StoreIndex::Pim(t) => Some(Arc::clone(t)),
                StoreIndex::Bw(_) => None,
            },
        };
        index
    }

    /// Generates the matches of a task's probes against `side`'s store
    /// state: for every item `j`, each stored tuple of `side` with key in
    /// `ranges[j]` and sequence number inside `bounds[j]` reaches `f` exactly
    /// once as a *live* entry of a run (see [`RunSink`]) — in the index's
    /// runs below the (per-shard) edge snapshot, as a run of one from the
    /// linear window scan above it (§4.1). Per item the runs arrive index
    /// first (`TS`, then the `TI` partitions ascending), then the suffix hits
    /// in ascending `seq`.
    ///
    /// Under the partitioned layout the probe fans out across exactly
    /// the shards overlapping each range (recorded in `stats.store`, charged
    /// local/remote against `home`). Probe counters, the logical bytes the
    /// descents and scans load — the caller adds the matches it keeps, which
    /// only it counts — are recorded into `stats`.
    pub(crate) fn generate(
        &self,
        side: usize,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
        home: usize,
        stats: &mut JoinRunStats,
        f: &mut RunSink<'_>,
    ) {
        debug_assert_eq!(ranges.len(), bounds.len());
        if ranges.is_empty() {
            return;
        }
        match &self.layout {
            Layout::Shared(s) => self.generate_shared(s, side, ranges, bounds, stats, f),
            Layout::Partitioned(p) => {
                self.generate_partitioned(p, side, ranges, bounds, home, stats, f)
            }
        }
    }

    fn generate_shared(
        &self,
        state: &SharedState,
        side: usize,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
        stats: &mut JoinRunStats,
        f: &mut RunSink<'_>,
    ) {
        let entry_bytes = std::mem::size_of::<Entry>() as u64;
        let n = ranges.len();
        let window = &state.windows[side];
        let mut scratch = STORE_SCRATCH.with(|cell| cell.take());
        // One edge snapshot for the batch, taken before the index probe:
        // everything below it is findable through the index, everything from
        // it to an item's bounds snapshot comes from the suffix scan. A
        // snapshot that is a little stale only lengthens the scan, never
        // changes the result set.
        let edge = window.edge();
        state.indexes[side].probe_runs(ranges, &mut stats.probe, &mut |j, run| {
            f(j, run, bounds[j].earliest..bounds[j].index_horizon(edge));
        });
        let examined =
            window.scan_suffix(edge, ranges, bounds, &mut scratch.order, |j, seq, key| {
                f(j, &[Entry::new(key, seq)], seq..seq + 1);
            });
        // Logical traffic, per probe as before the scans were batched: its
        // span and a fixed eight entries of descent (its matches are the
        // caller's to add).
        stats.bytes_loaded += (examined as u64 + 8 * n as u64) * entry_bytes;
        STORE_SCRATCH.with(|cell| cell.replace(scratch));
    }

    #[allow(clippy::too_many_arguments)] // internal fan-out worker of generate()
    fn generate_partitioned(
        &self,
        p: &PartitionedState,
        side: usize,
        ranges: &[KeyRange],
        bounds: &[WindowBounds],
        home: usize,
        stats: &mut JoinRunStats,
        f: &mut RunSink<'_>,
    ) {
        let entry_bytes = std::mem::size_of::<Entry>() as u64;
        let n = ranges.len();
        let inner = p.inner.read();
        let mut scratch = STORE_SCRATCH.with(|cell| cell.take());
        let mut examined_total = 0u64;
        // Fan-out query: which shards does each band-join range overlap?
        scratch.cover.clear();
        for range in ranges {
            let covered = inner.partitioner.covering_shards(range.lo, range.hi);
            stats.store.probes += 1;
            stats.store.probe_shard_visits += covered.len() as u64;
            if covered.len() == 1 {
                stats.store.single_shard_probes += 1;
            }
            stats.store.max_probe_fanout = stats.store.max_probe_fanout.max(covered.len() as u64);
            scratch.cover.push((covered.start, covered.end));
        }
        for (shard_idx, shard) in inner.shards.iter().enumerate() {
            // The shard's own key interval, for clipping each band range
            // to the sub-range this shard can actually answer. Derived
            // with checked edge math ([`RangePartitioner::shard_interval`]):
            // at the `Key::MIN`/`Key::MAX` domain edges naive
            // `boundary ± 1` arithmetic wraps and would turn an edge
            // probe into a full-domain (or empty) sub-range. A shard
            // with an empty interval can never be covered, so skipping
            // it is exact.
            let Some((shard_lo, shard_hi)) = inner.partitioner.shard_interval(shard_idx) else {
                continue;
            };
            scratch.sub_ranges.clear();
            scratch.sub_idx.clear();
            for (j, &(lo, hi)) in scratch.cover.iter().enumerate() {
                if (lo..hi).contains(&shard_idx) {
                    // Clip to the shard interval; covered shards overlap
                    // the range by construction, so the clip is never
                    // empty. The shard holds only keys of its interval,
                    // so the clipped probe returns exactly the same
                    // matches with a tighter index descent.
                    let clipped = KeyRange {
                        lo: ranges[j].lo.max(shard_lo),
                        hi: ranges[j].hi.min(shard_hi),
                    };
                    debug_assert!(clipped.lo <= clipped.hi, "covered shard overlaps the range");
                    scratch.sub_ranges.push(clipped);
                    scratch.sub_idx.push(j);
                }
            }
            if scratch.sub_ranges.is_empty() {
                continue;
            }
            let visits = scratch.sub_ranges.len() as u64;
            p.traffic.record(home, shard_idx, visits);
            if shard_idx == home {
                stats.store.local_probe_visits += visits;
            } else {
                stats.store.remote_probe_visits += visits;
            }
            examined_total += probe_shard_segments(
                shard,
                side,
                &scratch.sub_ranges,
                &scratch.sub_idx,
                bounds,
                stats,
                f,
            );
        }
        stats.bytes_loaded += (examined_total + 8 * n as u64) * entry_bytes;
        STORE_SCRATCH.with(|cell| cell.replace(scratch));
    }

    /// Adopts a rebalanced partitioner mid-run: the shard-state migration of
    /// a repartition epoch. Returns `None` under the shared layout (nothing
    /// is placed by key range, so only the ring's router matters there).
    ///
    /// **The caller must hold the engine quiescent** — merge gate closed, no
    /// task in flight, no ingestion — exactly like a blocking merge. Under
    /// that guarantee the write lock is free and the migration sees an exact
    /// snapshot of every shard.
    ///
    /// Per side, the migration:
    ///
    /// 1. snapshots every shard window's resident slice and keeps the
    ///    entries above the *keep horizon* (`head − window − slack`): the
    ///    set any unclaimed ring task's bounds snapshot or pending
    ///    `mark_indexed` can still reach. At most `window + slack` entries
    ///    survive per side, so even a fully skewed re-partitioning fits one
    ///    shard window's capacity;
    /// 2. enumerates every shard index's entries (live and expired-but-
    ///    unmerged alike — expiry stays a probe/merge-time decision against
    ///    the global heads, which migration never touches);
    /// 3. re-splits both sets by the new partitioner and rebuilds each
    ///    shard's windows (preserving indexed flags and re-deriving edges)
    ///    and indexes (fresh per-shard trees, entries re-inserted);
    /// 4. charges every entry whose home shard changed to the store's
    ///    simulated [`TrafficAccount`] as one `old → new` interconnect
    ///    traversal — the data-transfer cost the paper's §7 worries about.
    ///
    /// Expiry of migrated tuples stays count-based on the global per-side
    /// heads: bounds snapshots, merge horizons and the probe-time liveness
    /// filter are all in global sequence numbers, so a tuple's remaining
    /// lifetime is unaffected by where it lives. Rebuilt eager-expiry
    /// cursors restart at the oldest resident entry; re-reported
    /// already-deleted entries are no-op removals, and a migrated live entry
    /// is deleted by its *new* shard exactly once.
    pub(crate) fn adopt_partitioner(&self, new: &RangePartitioner) -> Option<StoreMigration> {
        let Layout::Partitioned(p) = &self.layout else {
            return None;
        };
        let mut inner = p.inner.write();
        let nodes = inner.shards.len();
        assert_eq!(
            new.nodes(),
            nodes,
            "a repartition epoch cannot change the shard count"
        );
        // (old, new) moved-entry counts for the traffic charge.
        let mut pair_moves = vec![0u64; nodes * nodes];
        let mut report = StoreMigration::default();
        let clock = std::time::Instant::now();

        // Windows: snapshot → keep-horizon filter → re-split → rebuild.
        let mut window_entries: Vec<[Vec<(Seq, Key, bool)>; 2]> =
            (0..nodes).map(|_| [Vec::new(), Vec::new()]).collect();
        for side in [0usize, 1] {
            let head = p.heads[side].load(Ordering::Acquire);
            let keep = head.saturating_sub((self.window_sizes[side] + self.slack) as u64);
            let mut collected: Vec<(usize, Seq, Key, bool)> = Vec::new();
            for (old_shard, shard) in inner.shards.iter().enumerate() {
                for (seq, key, indexed) in shard.windows[side].snapshot() {
                    if seq >= keep {
                        collected.push((old_shard, seq, key, indexed));
                    }
                }
            }
            // Global seq order: each rebuilt slice receives its subsequence
            // ascending, the ShardWindow append contract.
            collected.sort_unstable_by_key(|&(_, seq, _, _)| seq);
            for (old_shard, seq, key, indexed) in collected {
                let dest = new.node_of(key);
                if dest != old_shard {
                    report.window_tuples_moved += 1;
                    pair_moves[old_shard * nodes + dest] += 1;
                }
                window_entries[dest][side].push((seq, key, indexed));
            }
        }

        // Indexes: enumerate → re-split → rebuild. Entry order within a
        // shard is irrelevant to index correctness; seq order keeps the
        // rebuild deterministic.
        let full = KeyRange::new(Key::MIN, Key::MAX);
        let mut index_entries: Vec<[Vec<(Key, Seq)>; 2]> =
            (0..nodes).map(|_| [Vec::new(), Vec::new()]).collect();
        for side in [0usize, 1] {
            let mut collected: Vec<(usize, Key, Seq)> = Vec::new();
            for (old_shard, shard) in inner.shards.iter().enumerate() {
                shard.indexes[side].probe(full, &mut |e| {
                    collected.push((old_shard, e.key, e.seq));
                });
            }
            collected.sort_unstable_by_key(|&(_, _, seq)| seq);
            for (old_shard, key, seq) in collected {
                let dest = new.node_of(key);
                if dest != old_shard {
                    report.index_entries_moved += 1;
                    pair_moves[old_shard * nodes + dest] += 1;
                }
                index_entries[dest][side].push((key, seq));
            }
        }

        report.snapshot_nanos = clock.elapsed().as_nanos() as u64;

        // Rebuild the shard table against the new partitioner.
        let new_shards: Vec<StoreShard> = window_entries
            .into_iter()
            .zip(index_entries)
            .map(|(wins, idxs)| {
                let [win0, win1] = wins;
                let build_index = |entries: &[(Key, Seq)]| {
                    let index = StoreIndex::new(self.kind, self.shard_pim);
                    index.insert_batch(entries);
                    index
                };
                StoreShard {
                    windows: [
                        ShardWindow::from_entries(self.window_sizes[0], self.slack, &win0),
                        ShardWindow::from_entries(self.window_sizes[1], self.slack, &win1),
                    ],
                    indexes: [build_index(&idxs[0]), build_index(&idxs[1])],
                }
            })
            .collect();
        report.rebuild_nanos =
            (clock.elapsed().as_nanos() as u64).saturating_sub(report.snapshot_nanos);
        inner.shards = new_shards;
        inner.partitioner = new.clone();
        // Re-inserted entries land in the mutable components: re-raise the
        // merge hints so the normal poll notices any tree pushed over its
        // threshold by the migration.
        for side in 0..2 {
            if inner.shards.iter().any(|sh| sh.indexes[side].needs_merge()) {
                self.merge_hint[side].store(true, Ordering::Relaxed);
            }
        }
        drop(inner);
        for old in 0..nodes {
            for dest in 0..nodes {
                let moved = pair_moves[old * nodes + dest];
                if moved > 0 {
                    p.traffic.record(old, dest, moved);
                }
            }
        }
        p.epoch.fetch_add(1, Ordering::AcqRel);
        report.swap_nanos = (clock.elapsed().as_nanos() as u64)
            .saturating_sub(report.snapshot_nanos + report.rebuild_nanos);
        Some(report)
    }

    /// Per-shard footprint of the store's windows and indexes — how many
    /// tuples/entries each shard holds and the key spans they cover. Under
    /// the partitioned layout every span must lie inside the shard's key
    /// range (the tentpole invariant tests assert it). Not a hot path.
    pub fn shard_footprints(&self) -> Vec<StoreShardFootprint> {
        let full = KeyRange::new(Key::MIN, Key::MAX);
        let span_fold = |span: &mut Option<(Key, Key)>, key: Key| match span {
            None => *span = Some((key, key)),
            Some((lo, hi)) => {
                *lo = (*lo).min(key);
                *hi = (*hi).max(key);
            }
        };
        match &self.layout {
            Layout::Shared(s) => {
                let mut sides: [StoreSideFootprint; 2] = Default::default();
                for (side, out) in sides.iter_mut().enumerate() {
                    for (_, key) in s.windows[side].live_tuples() {
                        out.window_live += 1;
                        span_fold(&mut out.window_key_span, key);
                    }
                    s.indexes[side].probe(full, &mut |e| {
                        out.index_entries += 1;
                        span_fold(&mut out.index_key_span, e.key);
                    });
                }
                vec![StoreShardFootprint { shard: 0, sides }]
            }
            Layout::Partitioned(p) => p
                .inner
                .read()
                .shards
                .iter()
                .enumerate()
                .map(|(shard_idx, shard)| {
                    let mut sides: [StoreSideFootprint; 2] = Default::default();
                    for (side, out) in sides.iter_mut().enumerate() {
                        let earliest = self.earliest_live(side);
                        for (_, key) in shard.windows[side].live_entries(earliest) {
                            out.window_live += 1;
                            span_fold(&mut out.window_key_span, key);
                        }
                        shard.indexes[side].probe(full, &mut |e| {
                            out.index_entries += 1;
                            span_fold(&mut out.index_key_span, e.key);
                        });
                    }
                    StoreShardFootprint {
                        shard: shard_idx,
                        sides,
                    }
                })
                .collect(),
        }
    }
}
