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
//!   store is off or only one shard is configured. It probes and inserts
//!   through the single-threaded operator's two stages, `index::probe`
//!   and `index::insert`, over a claim's batch; what it adds is marking
//!   the inserted tuples indexed, advancing the edge and the traffic
//!   accounting — or
//! * the **partitioned store** — per shard, one index *and* one
//!   [`ShardWindow`] slice per side, each holding only the tuples whose keys
//!   fall into the shard's range under a [`RangePartitioner`].
//!
//! Under the partitioned store:
//!
//! * **Inserts route to the owning shard.** An insert touches exactly one
//!   shard's index and window; the inserting worker counts it local or
//!   remote (homed on another shard) in its own
//!   [`StoreCounters`](crate::StoreCounters).
//! * **Probes fan out across overlapping shards only.** A band-join probe
//!   range `[k − w, k + w]` is routed through
//!   [`RangePartitioner::covering_shards`]; only the shards whose key ranges
//!   overlap it are visited (most narrow-band probes visit exactly one), and
//!   each visit is counted local/remote like an insert. Per visited shard the
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

use std::any::Any;
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use pimtree_btree::Entry;
use pimtree_bwtree::BwTreeIndex;
use pimtree_common::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pimtree_common::sync::RwLock;
use pimtree_common::{Key, KeyRange, PimConfig, Result, Seq};
use pimtree_core::PimTree;
use pimtree_numa::RangePartitioner;
use pimtree_window::{ShardWindow, SlidingWindow, WindowBounds};

use crate::index::{self, RunSink, WindowIndex};
use crate::parallel::SharedIndexKind;
use crate::stats::JoinRunStats;

/// One index instance of the store. Behind an `Arc` so the merge
/// coordinator can hold a PIM-Tree across a (long) merge without pinning the
/// store's shard table read-locked ([`ShardStore::pim`]); the migration
/// epoch protocol guarantees the tree is never swapped out from under a
/// merge (both paths serialize on the engine's maintenance claim).
type SharedIndex = Arc<dyn WindowIndex + Send + Sync>;

/// A fresh index of `kind` holding `entries`, sorted by `(key, seq)`: the
/// PIM-Tree bulk-builds them into its immutable component, the Bw-Tree
/// inserts them in that order.
fn build_index(kind: SharedIndexKind, pim: PimConfig, entries: Vec<Entry>) -> SharedIndex {
    match kind {
        SharedIndexKind::PimTree => Arc::new(PimTree::from_sorted(pim, entries)),
        SharedIndexKind::BwTree => {
            let tree = BwTreeIndex::new();
            for e in entries {
                tree.insert(e.key, e.seq);
            }
            Arc::new(tree)
        }
    }
}

/// `index` as the PIM-Tree it is, if it is one.
fn as_pim(index: &SharedIndex) -> Option<Arc<PimTree>> {
    let any: Arc<dyn Any + Send + Sync> = index.clone();
    any.downcast().ok()
}

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
    indexes: [SharedIndex; 2],
}

/// One shard of the partitioned store: per side, the index and window slice
/// covering only the shard's key range.
struct StoreShard {
    windows: [ShardWindow; 2],
    indexes: [SharedIndex; 2],
}

impl StoreShard {
    fn new(window_sizes: [usize; 2], slack: usize, kind: SharedIndexKind, pim: PimConfig) -> Self {
        StoreShard {
            windows: [
                ShardWindow::new(window_sizes[0], slack),
                ShardWindow::new(window_sizes[1], slack),
            ],
            indexes: [
                build_index(kind, pim, Vec::new()),
                build_index(kind, pim, Vec::new()),
            ],
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
/// rebuilt in place and not counted.
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
    /// Nanoseconds spent swapping the rebuilt state in (the shard table and
    /// the epoch counter).
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
                let shards = (0..p.nodes())
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
                })
            }
            _ => Layout::Shared(SharedState {
                windows: [
                    SlidingWindow::new(params.window_sizes[0], params.slack),
                    SlidingWindow::new(params.window_sizes[1], params.slack),
                ],
                indexes: [
                    build_index(params.kind, params.pim, Vec::new()),
                    build_index(params.kind, params.pim, Vec::new()),
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
                let merge_due = index::insert(
                    &*s.indexes[side],
                    &s.windows[side],
                    entries,
                    self.deletion_lag,
                    None,
                );
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
                    if shard_idx == home {
                        stats.store.local_inserts += n;
                    } else {
                        stats.store.remote_inserts += n;
                    }
                    let shard = &inner.shards[shard_idx];
                    let index = &shard.indexes[side];
                    let merge_due = index.insert_batch(&scratch.sub_entries);
                    if index.deletes_eagerly() {
                        let w = self.window_sizes[side] as u64;
                        let newest = scratch
                            .sub_entries
                            .iter()
                            .map(|&(_, seq)| seq)
                            .max()
                            .unwrap_or(0);
                        let upto = (newest + 1).saturating_sub(w + self.deletion_lag);
                        shard.windows[side].expire_eager(upto, |key, seq| index.remove(key, seq));
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
    /// coordinator runs the non-blocking merge on it directly). Returns an
    /// owning handle so the caller does not pin the shard table read-locked
    /// across the merge; the engine's maintenance claim guarantees no
    /// migration epoch replaces the tree while the merge runs.
    pub(crate) fn pim(&self, side: usize, shard: usize) -> Option<Arc<PimTree>> {
        match &self.layout {
            Layout::Shared(s) => as_pim(&s.indexes[side]),
            Layout::Partitioned(p) => as_pim(&p.inner.read().shards[shard].indexes[side]),
        }
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
        let window = &state.windows[side];
        // One edge snapshot for the batch, taken before the index probe:
        // everything below it is findable through the index, everything from
        // it to an item's bounds snapshot comes from the suffix scan. A
        // snapshot that is a little stale only lengthens the scan, never
        // changes the result set.
        let edge = window.edge();
        let examined = index::probe(
            &*state.indexes[side],
            window,
            edge,
            ranges,
            bounds,
            &mut stats.probe,
            None,
            f,
        );
        // Logical traffic, per probe as before the scans were batched: its
        // span and a fixed eight entries of descent (its matches are the
        // caller's to add).
        stats.bytes_loaded += (examined as u64 + 8 * ranges.len() as u64) * entry_bytes;
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
    /// 1. snapshots every shard window's slice from the *keep horizon*
    ///    (`head − window − slack`) up: the set any unclaimed ring task's
    ///    bounds snapshot or pending `mark_indexed` can still reach. At most
    ///    `window + slack` entries survive per side, so even a fully skewed
    ///    re-partitioning fits one shard window's capacity. Each new shard's
    ///    entries arrive as one ascending run per old shard, and a stable
    ///    sort merges the runs by `seq`;
    /// 2. reads every shard index's entries (live and expired-but-unmerged
    ///    alike — expiry stays a probe/merge-time decision against the global
    ///    heads, which migration never touches) in `(key, seq)` order and
    ///    concatenates them in shard order. Old shards cover ascending key
    ///    ranges, so the concatenation is one sorted array;
    /// 3. cuts that array by the new partitioner — `node_of` is monotone in
    ///    the key, so each new shard's entries are one contiguous slice — and
    ///    bulk-builds each shard's index from its slice (a PIM-Tree's `TS` is
    ///    the slice and its `TI` is empty); the windows are rebuilt from
    ///    their merged runs, indexed flags preserved and edges re-derived;
    /// 4. counts every entry whose home shard changed in the returned
    ///    [`StoreMigration`]: the data transferred between nodes that the
    ///    paper's §7 worries about.
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
        let mut report = StoreMigration::default();
        let clock = std::time::Instant::now();

        let mut window_entries: Vec<[Vec<(Seq, Key, bool)>; 2]> =
            (0..nodes).map(|_| Default::default()).collect();
        let mut sorted: [Vec<Entry>; 2] = Default::default();
        // Per side, where each old shard's entries start in `sorted`.
        let mut old_starts: [Vec<usize>; 2] = Default::default();
        for side in [0usize, 1] {
            let head = p.heads[side].load(Ordering::Acquire);
            let keep = head.saturating_sub((self.window_sizes[side] + self.slack) as u64);
            for (old_shard, shard) in inner.shards.iter().enumerate() {
                for entry in shard.windows[side].snapshot(keep) {
                    let dest = new.node_of(entry.1);
                    if dest != old_shard {
                        report.window_tuples_moved += 1;
                    }
                    window_entries[dest][side].push(entry);
                }
                old_starts[side].push(sorted[side].len());
                sorted[side].append(&mut shard.indexes[side].sorted_entries());
            }
            for entries in &mut window_entries {
                entries[side].sort_by_key(|&(seq, _, _)| seq);
            }
        }

        report.snapshot_nanos = clock.elapsed().as_nanos() as u64;

        // Cut each side's sorted array from the back, so every new index is
        // built from an owned slice without a second copy. The slice
        // `[start, end)` of new shard `dest` overlaps old shard `o`'s
        // `[old_starts[o], old_starts[o + 1])`; whatever of it came from
        // another shard moved.
        let mut new_indexes: [Vec<SharedIndex>; 2] = Default::default();
        for side in [0usize, 1] {
            let all = &mut sorted[side];
            for dest in (0..nodes).rev() {
                let (start, end) = (
                    all.partition_point(|e| new.node_of(e.key) < dest),
                    all.len(),
                );
                for (old_shard, &old_start) in old_starts[side].iter().enumerate() {
                    let old_end = old_starts[side]
                        .get(old_shard + 1)
                        .copied()
                        .unwrap_or(usize::MAX);
                    let overlap = old_end.min(end).saturating_sub(old_start.max(start)) as u64;
                    if old_shard != dest {
                        report.index_entries_moved += overlap;
                    }
                }
                // `split_off(0)` would allocate `all`'s capacity again for
                // the empty rest; shard 0 takes the buffer itself.
                let slice = if dest == 0 {
                    std::mem::take(all)
                } else {
                    all.split_off(start)
                };
                new_indexes[side].push(build_index(self.kind, self.shard_pim, slice));
            }
            new_indexes[side].reverse();
        }
        let [indexes0, indexes1] = new_indexes;
        let new_shards: Vec<StoreShard> = window_entries
            .into_iter()
            .zip(indexes0.into_iter().zip(indexes1))
            .map(|([win0, win1], (index0, index1))| StoreShard {
                windows: [
                    ShardWindow::from_entries(self.window_sizes[0], self.slack, &win0),
                    ShardWindow::from_entries(self.window_sizes[1], self.slack, &win1),
                ],
                indexes: [index0, index1],
            })
            .collect();
        report.rebuild_nanos =
            (clock.elapsed().as_nanos() as u64).saturating_sub(report.snapshot_nanos);
        inner.shards = new_shards;
        inner.partitioner = new.clone();
        drop(inner);
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
                    s.indexes[side].probe(full, &mut |run| {
                        for e in run {
                            out.index_entries += 1;
                            span_fold(&mut out.index_key_span, e.key);
                        }
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
                        shard.indexes[side].probe(full, &mut |run| {
                            for e in run {
                                out.index_entries += 1;
                                span_fold(&mut out.index_key_span, e.key);
                            }
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

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: usize = 256;
    const SLACK: usize = 64;
    const TUPLES: u64 = 1000;
    /// Tuples at the end of each side that are appended but never inserted.
    const UNINDEXED_TAIL: u64 = 20;

    /// Both domain edges, a run of one duplicated key, and a run of
    /// `Key::MAX` long enough to promote its `TI` partition (inserted after
    /// the trees merged), over a spread of small keys.
    fn key_of(side: usize, seq: u64) -> Key {
        match seq {
            400..=459 => 42,
            550..=849 => Key::MAX,
            _ => match seq % 13 {
                0 => Key::MIN,
                1 => Key::MAX,
                _ => (seq * 7919 + side as u64 * 31) as Key % 2000 - 1000,
            },
        }
    }

    /// A partitioned store over `nodes` shards, fed `TUPLES` per side: the
    /// first 500 inserted and every PIM shard merged, then the rest inserted
    /// but for an unindexed tail.
    fn populated(kind: SharedIndexKind, nodes: usize) -> ShardStore {
        let mut pim = PimConfig::for_window(WINDOW)
            .with_merge_ratio(1.0)
            .with_insertion_depth(2);
        pim.css_fanout = 8;
        pim.css_leaf_size = 8;
        let sample: Vec<Key> = (0..TUPLES).map(|seq| key_of(0, seq)).collect();
        let params = StoreParams {
            kind,
            pim,
            window_sizes: [WINDOW; 2],
            slack: SLACK,
            deletion_lag: 8,
        };
        let store = ShardStore::new(
            params,
            Some(RangePartitioner::from_key_sample(nodes, &sample)),
        );
        let mut stats = JoinRunStats::default();
        let insert = |from: u64, to: u64, stats: &mut JoinRunStats| {
            for side in 0..2 {
                let entries: Vec<(Key, Seq)> =
                    (from..to).map(|seq| (key_of(side, seq), seq)).collect();
                for chunk in entries.chunks(8) {
                    store.insert_batch(side, chunk, 0, stats);
                }
            }
        };
        for seq in 0..TUPLES {
            for side in 0..2 {
                assert_eq!(store.append(side, key_of(side, seq)).unwrap(), seq);
            }
        }
        insert(0, 500, &mut stats);
        for side in 0..2 {
            for shard in 0..nodes {
                if let Some(tree) = store.pim(side, shard) {
                    tree.merge(store.earliest_live(side));
                }
            }
        }
        insert(500, TUPLES - UNINDEXED_TAIL, &mut stats);
        store
    }

    /// `side`'s index entries `(shard, key, seq)` and window entries `(shard,
    /// seq, key, indexed)` at or above `keep`, read through the probe and
    /// snapshot paths, each sorted by everything but the shard.
    #[allow(clippy::type_complexity)]
    fn side_state(
        store: &ShardStore,
        side: usize,
        keep: Seq,
    ) -> (Vec<(usize, Key, Seq)>, Vec<(usize, Seq, Key, bool)>) {
        let Layout::Partitioned(p) = &store.layout else {
            unreachable!("the tests build a partitioned store")
        };
        let (mut index, mut window) = (Vec::new(), Vec::new());
        for (shard, sh) in p.inner.read().shards.iter().enumerate() {
            for e in sh.indexes[side].sorted_entries() {
                index.push((shard, e.key, e.seq));
            }
            for (seq, key, indexed) in sh.windows[side].snapshot(keep) {
                window.push((shard, seq, key, indexed));
            }
        }
        index.sort_unstable_by_key(|&(_, key, seq)| (key, seq));
        window.sort_unstable_by_key(|&(_, seq, _, _)| seq);
        (index, window)
    }

    /// A migration to a rebalanced partitioner and to one that homes every
    /// key on shard 0, on 2 and 4 shards of both backends, moves exactly
    /// what a brute-force recount says and loses nothing: per side the
    /// index holds the same `(key, seq)` multiset and the window the same
    /// `(seq, key, indexed)` entries from the keep horizon up, every shard's
    /// state lies inside its new interval, every PIM-Tree starts with an
    /// empty `TI`, and every shard's edge is its first unindexed tuple.
    #[test]
    fn migration_cuts_sorted_runs_exactly() {
        let keep = TUPLES - (WINDOW + SLACK) as u64;
        // Distinct keys, so the long `Key::MAX` run cannot pull every
        // boundary onto itself: the rebalanced target gives each shard keys.
        let mut recent: Vec<Key> = (keep..TUPLES).map(|seq| key_of(1, seq)).collect();
        recent.sort_unstable();
        recent.dedup();
        for kind in [SharedIndexKind::PimTree, SharedIndexKind::BwTree] {
            for nodes in [2usize, 4] {
                let targets = [
                    (true, RangePartitioner::from_key_sample(nodes, &recent)),
                    (false, RangePartitioner::from_weighted_sample(nodes, &[])),
                ];
                for (rebalanced, new) in targets {
                    let store = populated(kind, nodes);
                    let case = format!("{kind:?}, {nodes} shards, target {:?}", new.boundaries());
                    if kind == SharedIndexKind::PimTree {
                        let promoted = (0..nodes).any(|shard| {
                            store.pim(1, shard).unwrap().ti_len() > 256 + UNINDEXED_TAIL as usize
                        });
                        assert!(promoted, "a `TI` past a flat run's length: {case}");
                    }
                    let before = [side_state(&store, 0, keep), side_state(&store, 1, keep)];
                    let report = store.adopt_partitioner(&new).expect("partitioned");

                    let (mut index_moved, mut window_moved) = (0, 0);
                    for (side, (index, window)) in before.iter().enumerate() {
                        index_moved += index
                            .iter()
                            .filter(|&&(old, key, _)| new.node_of(key) != old)
                            .count();
                        window_moved += window
                            .iter()
                            .filter(|&&(old, _, key, _)| new.node_of(key) != old)
                            .count();
                        let (index_after, window_after) = side_state(&store, side, keep);
                        let strip = |v: &[(usize, Key, Seq)]| -> Vec<(Key, Seq)> {
                            v.iter().map(|&(_, key, seq)| (key, seq)).collect()
                        };
                        assert_eq!(
                            strip(&index_after),
                            strip(index),
                            "index, side {side}: {case}"
                        );
                        let strip = |v: &[(usize, Seq, Key, bool)]| -> Vec<(Seq, Key, bool)> {
                            v.iter()
                                .map(|&(_, seq, key, indexed)| (seq, key, indexed))
                                .collect()
                        };
                        assert_eq!(
                            strip(&window_after),
                            strip(window),
                            "window, side {side}: {case}"
                        );

                        let Layout::Partitioned(p) = &store.layout else {
                            unreachable!()
                        };
                        let inner = p.inner.read();
                        for (shard, sh) in inner.shards.iter().enumerate() {
                            let first_unindexed = window
                                .iter()
                                .find(|&&(_, _, key, indexed)| {
                                    new.node_of(key) == shard && !indexed
                                })
                                .map_or(Seq::MAX, |&(_, seq, _, _)| seq);
                            assert_eq!(
                                sh.windows[side].edge_seq(),
                                first_unindexed,
                                "edge of shard {shard}, side {side}: {case}"
                            );
                            if let Some(tree) = as_pim(&sh.indexes[side]) {
                                assert_eq!(tree.ti_len(), 0, "shard {shard}, side {side}: {case}");
                            }
                        }
                    }
                    assert_eq!(report.index_entries_moved, index_moved as u64, "{case}");
                    assert_eq!(report.window_tuples_moved, window_moved as u64, "{case}");
                    assert!(report.index_entries_moved > 0, "{case}");

                    let inside = |span: Option<(Key, Key)>, interval: Option<(Key, Key)>| match span
                    {
                        None => true,
                        Some((lo, hi)) => interval.is_some_and(|(a, b)| a <= lo && hi <= b),
                    };
                    for fp in store.shard_footprints() {
                        let interval = new.shard_interval(fp.shard);
                        if rebalanced {
                            assert!(fp.sides[1].index_entries > 0, "shard {}: {case}", fp.shard);
                        }
                        for s in &fp.sides {
                            assert!(
                                inside(s.index_key_span, interval),
                                "shard {}: {case}",
                                fp.shard
                            );
                            assert!(
                                inside(s.window_key_span, interval),
                                "shard {}: {case}",
                                fp.shard
                            );
                        }
                    }
                }
            }
        }
    }
}
