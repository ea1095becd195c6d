//! The Partitioned In-memory Merge-Tree (PIM-Tree, §3.3): the paper's
//! concurrent sliding-window index.

use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock};
use pimtree_btree::{bulk, BTreeIndex, Entry};
use pimtree_common::{
    prefetch_range, prefetch_read, prefetch_write, CostBreakdown, Key, KeyRange, PimConfig,
    ProbeCounters, Seq, Step,
};
use pimtree_css::CssTree;

use crate::footprint::PimFootprint;
use crate::merge::{build_ts, LiveMerge, MergeReport};

/// Largest flat run a partition holds. The insert that would grow a run past
/// this bulk-loads it into a B+-Tree, which it stays until the next merge.
///
/// Between two merges a partition of a populated `TS` receives about
/// `merge_threshold / partitions` entries (32 at the paper's fan-out 32 and
/// `DI = 3`), far below the constant: a sorted run read front to back beats a
/// tree there. A partition only outgrows it when the keys have drifted away
/// from the distribution `TS` was built on (or before the first merge, when
/// there is a single partition), and then an insert into a flat run would
/// cost a memmove linear in the skew; the tree keeps it logarithmic.
pub(crate) const RUN_PROMOTE_LEN: usize = 256;

/// Partitions one staged pass over `TI` keeps in flight: the bound of the
/// stack arrays of [`Generation::insert_staged`] and [`visit_partitions`].
/// Longer batches are walked in chunks of this many. The engine's batch is
/// up to four tasks — at the default task size about sixteen tuples a side
/// when the ring is deep — so one full chunk is the rule; sixteen headers and
/// their runs (some 9 KiB at the usual 32 entries a run) still fit in L1.
const STAGE_WIDTH: usize = 16;

/// The sorted contents of one mutable partition.
#[derive(Debug)]
enum Run {
    /// One sorted array, searched with `partition_point`.
    Flat(Vec<Entry>),
    /// A run that outgrew [`RUN_PROMOTE_LEN`]. Boxed so the partition header
    /// stays within one cache line.
    Tree(Box<BTreeIndex>),
}

impl Run {
    /// Inserts `entry`, keeping `(key, seq)` order. An empty flat run is
    /// reserved to `reserve` entries first; `fanout` is the node size of the
    /// tree a promotion builds.
    fn insert(&mut self, entry: Entry, reserve: usize, fanout: usize) {
        match self {
            Run::Flat(run) if run.len() < RUN_PROMOTE_LEN => {
                if run.capacity() == 0 {
                    run.reserve_exact(reserve);
                }
                let at = run.partition_point(|e| *e < entry);
                run.insert(at, entry);
            }
            Run::Flat(run) => {
                let mut tree = bulk::from_sorted_with_fanout(std::mem::take(run), fanout);
                tree.insert_entry(entry);
                *self = Run::Tree(Box::new(tree));
            }
            Run::Tree(tree) => tree.insert_entry(entry),
        }
    }

    /// Calls `f` with the entries whose key lies in `range` as sorted runs,
    /// ascending and never empty: a flat run answers with one slice of
    /// itself, a promoted one with one slice per leaf the range touches.
    #[inline]
    fn range_runs<F: FnMut(&[Entry])>(&self, range: KeyRange, mut f: F) {
        match self {
            Run::Flat(run) => {
                let tail = &run[run.partition_point(|e| e.key < range.lo)..];
                let inside = tail.iter().take_while(|e| e.key <= range.hi).count();
                if inside > 0 {
                    f(&tail[..inside]);
                }
            }
            Run::Tree(tree) => tree.range_runs(range, f),
        }
    }

    /// Calls `f` with every entry as sorted runs, ascending: a flat run as
    /// one slice of itself, possibly empty, a promoted one leaf by leaf.
    fn for_each_run<F: FnMut(&[Entry])>(&self, mut f: F) {
        match self {
            Run::Flat(run) => f(run),
            Run::Tree(tree) => tree.range_runs(KeyRange::new(Key::MIN, Key::MAX), f),
        }
    }

    /// Empties the run for the next generation. A flat run keeps its
    /// allocation, so the next cycle's inserts land in a run already
    /// reserved; a promoted one becomes an empty flat run.
    fn reset(&mut self) {
        match self {
            Run::Flat(run) => run.clear(),
            Run::Tree(_) => *self = Run::Flat(Vec::new()),
        }
    }

    /// What the partition header mirrors of the run for prefetching: a flat
    /// run's pointer and length; a promoted one mirrors as empty, since a
    /// tree's nodes are found by descending it, not by a range of lines.
    #[inline]
    fn hint(&self) -> (*mut Entry, usize) {
        match self {
            Run::Flat(run) => (run.as_ptr().cast_mut(), run.len()),
            Run::Tree(_) => (std::ptr::null_mut(), 0),
        }
    }

    /// `(entries, payload bytes)`, payload counted as the B+-Tree counts it.
    fn footprint(&self) -> (usize, usize) {
        match self {
            Run::Flat(run) => (run.len(), std::mem::size_of_val(run.as_slice())),
            Run::Tree(tree) => {
                let s = tree.stats();
                (s.entries, s.total_bytes())
            }
        }
    }
}

/// What a partition's lock guards: its run, and the insert counter of the
/// skew experiments (Figure 13a), which shares the lock's cache line instead
/// of costing an atomic of its own.
#[derive(Debug)]
struct PartitionState {
    run: Run,
    inserts: u64,
}

impl PartitionState {
    /// Inserts `entry` into the run and counts it: the insert both forms of
    /// the tree share, whether they reach the state under the partition's
    /// lock or through `&mut`.
    #[inline]
    fn insert(&mut self, entry: Entry, reserve: usize, fanout: usize) {
        self.inserts += 1;
        self.run.insert(entry, reserve, fanout);
    }
}

/// One mutable partition. Aligned so that neighbouring partitions, which
/// different threads lock at the same time, never share a cache line.
///
/// Beside the lock, the header mirrors where the partition's flat run lies —
/// its pointer and length, each a `Relaxed` atomic that only the lock holder
/// writes ([`Partition::insert_locked`]) — so that a staged pass can prefetch
/// the run without a lock round trip ([`Partition::peek_run`]).
#[derive(Debug)]
#[repr(align(64))]
struct Partition {
    state: Mutex<PartitionState>,
    hint_ptr: AtomicPtr<Entry>,
    hint_len: AtomicUsize,
}

impl Partition {
    /// An empty partition; allocates nothing.
    fn new() -> Self {
        Partition {
            state: Mutex::new(PartitionState {
                run: Run::Flat(Vec::new()),
                inserts: 0,
            }),
            hint_ptr: AtomicPtr::new(std::ptr::null_mut()),
            hint_len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn lock(&self) -> MutexGuard<'_, PartitionState> {
        self.state.lock()
    }

    /// Inserts `entry` under the partition's lock and mirrors the changed
    /// run into the prefetch hint ([`Run::hint`]) before letting go.
    #[inline]
    fn insert_locked(&self, entry: Entry, reserve: usize, fanout: usize) {
        let mut part = self.lock();
        part.insert(entry, reserve, fanout);
        let (ptr, len) = part.run.hint();
        self.hint_ptr.store(ptr, Ordering::Relaxed);
        self.hint_len.store(len, Ordering::Relaxed);
    }

    /// [`Partition::insert_locked`] through `&mut`: no lock, and the hint
    /// written with plain stores.
    #[inline]
    fn insert_mut(&mut self, entry: Entry, reserve: usize, fanout: usize) {
        let part = self.state.get_mut();
        part.insert(entry, reserve, fanout);
        let (ptr, len) = part.run.hint();
        *self.hint_ptr.get_mut() = ptr;
        *self.hint_len.get_mut() = len;
    }

    /// Where this partition's flat run lay at some recent insert, for
    /// prefetching only: two `Relaxed` loads, no lock. The pair may be torn
    /// or stale — the run may have grown, moved or been freed since — which a
    /// prefetch hint tolerates and nothing else may: the range is never
    /// dereferenced, and it spans at most [`RUN_PROMOTE_LEN`] entries.
    /// `None` for an empty, reset or promoted run.
    #[inline]
    fn peek_run(&self) -> Option<Range<*const Entry>> {
        let len = self.hint_len.load(Ordering::Relaxed);
        if len == 0 {
            return None;
        }
        let start = self.hint_ptr.load(Ordering::Relaxed).cast_const();
        Some(start..start.wrapping_add(len))
    }
}

/// `TI`'s entry count on a cache line of its own: every insert batch adds to
/// it, and sharing a line with `TS`'s descriptor and the partition table's
/// pointer — which every probe reads — would make each batch invalidate that
/// line in every other worker's cache.
#[derive(Debug, Default)]
#[repr(align(128))]
struct TiLen(AtomicUsize);

/// One generation of the two-stage structure: an immutable `TS` plus the
/// mutable partitions attached to its inner nodes at the insertion depth.
/// The blocking merge refits the generation in place; the concurrent one
/// freezes its partition table and then replaces it whole.
#[derive(Debug)]
struct Generation {
    ts: CssTree,
    /// Effective insertion depth (the configured `DI`, clamped to the number
    /// of inner levels actually present in `TS`).
    depth: usize,
    partitions: Vec<Partition>,
    /// While a concurrent merge runs, the runs of the table it froze, indexed
    /// like `partitions` and read-only, so read without locks; else empty.
    frozen: Vec<Run>,
    /// Entries in `frozen`.
    frozen_len: usize,
    /// Entries a partition's run is reserved to on its first insert, unless
    /// it kept an allocation through a blocking merge: the fill a uniformly
    /// fed partition reaches by the next merge, so that run never
    /// re-allocates on the way there.
    run_reserve: usize,
    ti_len: TiLen,
}

impl Generation {
    /// Allocates the partition table and nothing per partition.
    fn new(config: &PimConfig, ts: CssTree) -> Self {
        let mut gen = Generation {
            ts,
            depth: 0,
            partitions: Vec::new(),
            frozen: Vec::new(),
            frozen_len: 0,
            run_reserve: 0,
            ti_len: TiLen::default(),
        };
        gen.refit(config);
        gen
    }

    /// Fits the partition table to `TS`: one partition per node at the
    /// insertion depth (one for an empty `TS`), each run emptied by
    /// [`Run::reset`]. Partitions past the new count are freed, missing ones
    /// added empty. Insert counters are left to the caller, which folds them
    /// first.
    fn refit(&mut self, config: &PimConfig) {
        self.depth = config.insertion_depth.min(self.ts.inner_levels());
        let count = if self.ts.is_empty() {
            1
        } else {
            self.ts.nodes_at_depth(self.depth)
        };
        self.partitions.resize_with(count, Partition::new);
        for p in &mut self.partitions {
            p.state.get_mut().run.reset();
            *p.hint_len.get_mut() = 0;
        }
        self.run_reserve = (config.merge_threshold() / count).clamp(4, RUN_PROMOTE_LEN);
        *self.ti_len.0.get_mut() = 0;
    }

    /// The partition `entry` is inserted into: `TS` descended to the
    /// insertion depth. Probes never call it; they derive their partitions
    /// from the descent they already made ([`Generation::overlapped_partitions`]).
    #[inline]
    fn route(&self, entry: Entry) -> usize {
        if self.ts.is_empty() {
            0
        } else {
            self.ts.descend_to_depth(entry, self.depth)
        }
    }

    /// `TS`'s run of `range` and the partitions `range` overlaps, from one
    /// descent of `TS`.
    #[inline]
    fn locate(&self, range: KeyRange) -> (&[Entry], RangeInclusive<usize>) {
        let (start, group) = self.ts.lower_bound_with_group(Entry::min_for_key(range.lo));
        let run = self.ts.run_from(start, range.hi);
        (
            run,
            self.overlapped_partitions(range, group, start + run.len()),
        )
    }

    /// The partitions a probe of `range` overlaps, derived from its one `TS`
    /// descent without descending again: `group` is the leaf group the descent for
    /// `range.lo` landed in, `end` the position one past `TS`'s run of the
    /// range (the first entry keyed above `range.hi`, or `len()`). Partitions
    /// hang off `TS`'s nodes at the insertion depth, and the node a descent
    /// passes there is its leaf group divided by the fan-out once per level
    /// below ([`CssTree::ancestor_at_depth`]). So `group` names the first
    /// partition — the route of `range.lo` — and the leaf group holding `end`
    /// names the last: the route of the first key past the range, beyond
    /// which no entry of the range is routed.
    #[inline]
    fn overlapped_partitions(
        &self,
        range: KeyRange,
        group: usize,
        end: usize,
    ) -> RangeInclusive<usize> {
        if self.ts.is_empty() {
            return 0..=0;
        }
        let end_group = (end / self.ts.leaf_size()).min(self.ts.leaf_groups() - 1);
        let span = self.ts.ancestor_at_depth(group, self.depth)
            ..=self.ts.ancestor_at_depth(end_group, self.depth);
        debug_assert_eq!(*span.start(), self.route(Entry::min_for_key(range.lo)));
        debug_assert!(*span.end() >= self.route(Entry::max_for_key(range.hi)));
        debug_assert!(*span.end() < self.partitions.len());
        span
    }

    /// Routes `entry` to its partition and inserts it under that
    /// partition's lock (Algorithm 1). The caller accounts for `ti_len`.
    #[inline]
    fn insert(&self, entry: Entry, fanout: usize) {
        self.insert_into(self.route(entry), entry, fanout);
    }

    #[inline]
    fn insert_into(&self, partition: usize, entry: Entry, fanout: usize) {
        self.partitions[partition].insert_locked(entry, self.run_reserve, fanout);
    }

    /// [`Generation::insert`] through `&mut`: the same route and run insert,
    /// no lock.
    #[inline]
    fn insert_mut(&mut self, entry: Entry, fanout: usize) {
        let partition = self.route(entry);
        let reserve = self.run_reserve;
        self.partitions[partition].insert_mut(entry, reserve, fanout);
    }

    /// Inserts `entries`, sorted and at or above every entry of the runs
    /// they route to, so that each lands at the end of its run: all of them
    /// routed by one group descent of `TS` ([`CssTree::lower_bound_batch`],
    /// whose misses overlap) instead of a descent apiece.
    fn append_sorted(&mut self, entries: &[Entry], fanout: usize) {
        let (mut positions, mut groups) = (Vec::new(), Vec::new());
        let mut counters = ProbeCounters::default();
        self.ts
            .lower_bound_batch(entries, &mut positions, &mut groups, &mut counters);
        for (&e, &group) in entries.iter().zip(&groups) {
            let p = self.ts.ancestor_at_depth(group, self.depth);
            debug_assert_eq!(p, self.route(e));
            self.partitions[p].insert_mut(e, self.run_reserve, fanout);
        }
    }

    /// Inserts up to [`STAGE_WIDTH`] entries in three passes over the whole
    /// chunk instead of entry by entry, so that the misses of one entry's
    /// dependent chain *header → run pointer → run lines* — with a second
    /// worker, each a line the other core wrote last — overlap with the
    /// other entries' instead of queueing behind them: (1) route every entry
    /// and write-prefetch its partition header, (2) read each distinct
    /// partition's run from the header's hint ([`Partition::peek_run`], no
    /// lock) and write-prefetch its lines, (3) lock and insert as
    /// [`Generation::insert`] does, in the order given.
    ///
    /// A chunk that lands in a single partition has a single chain to walk
    /// and nothing to overlap it with: the lock that follows waits on the
    /// same header line the hint is read from, so it gets no peek.
    fn insert_staged(&self, chunk: &[(Key, Seq)], fanout: usize) {
        let mut routed = [0usize; STAGE_WIDTH];
        let routed = &mut routed[..chunk.len()];
        for (p, &(key, seq)) in routed.iter_mut().zip(chunk) {
            *p = self.route(Entry::new(key, seq));
            prefetch_write(&self.partitions[*p]);
        }
        if routed.iter().any(|&p| p != routed[0]) {
            for (i, &p) in routed.iter().enumerate() {
                if !routed[..i].contains(&p) {
                    if let Some(run) = self.partitions[p].peek_run() {
                        prefetch_range(run, prefetch_write);
                    }
                }
            }
        }
        for (&p, &(key, seq)) in routed.iter().zip(chunk) {
            self.insert_into(p, Entry::new(key, seq), fanout);
        }
    }

    /// The partitions of `span` a probe goes on to visit: none while `TI` is
    /// empty.
    #[inline]
    fn ti_visits(&self, span: RangeInclusive<usize>) -> Range<usize> {
        if self.ti_len.0.load(Ordering::Relaxed) == 0 {
            return 0..0;
        }
        *span.start()..*span.end() + 1
    }

    /// The immutable half of a scalar probe of `range`, shared by both forms
    /// of the tree: one descent of `TS` ([`Generation::locate`]), its run
    /// handed to `f` unless empty, then the frozen table's runs, and the
    /// partitions the probe goes on to.
    #[inline]
    fn probe_immutable(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) -> Range<usize> {
        let (run, span) = self.locate(range);
        if !run.is_empty() {
            f(run);
        }
        for run in self.frozen.get(span.clone()).unwrap_or_default() {
            run.range_runs(range, &mut *f);
        }
        self.ti_visits(span)
    }

    /// Probes this generation for `range`: the immutable component without
    /// locks, then the overlapping mutable partitions one lock at a time
    /// (Algorithm 2). The answer arrives as sorted runs — `TS`'s as one
    /// slice of its leaf array, then each partition's — and `f` runs under
    /// the partition's lock. Shared by the scalar probe and the batch of one.
    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        for p in self.probe_immutable(range, f) {
            self.partitions[p].lock().run.range_runs(range, &mut *f);
        }
    }

    /// [`Generation::probe`] through `&mut`: the same runs in the same
    /// order, each partition reached without its lock.
    fn probe_mut(&mut self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        for p in self.probe_immutable(range, f) {
            self.partitions[p]
                .state
                .get_mut()
                .run
                .range_runs(range, &mut *f);
        }
    }
}

/// The mutable half of every multi-range probe: answers `(partition, range
/// index)` pairs partition-major, so a partition that several of a batch's
/// ranges overlap is locked once per batch instead of once per range, and
/// calls `f(range index, run)` for each sorted run of `ranges[index]` found
/// there. Per range, partitions are visited in ascending order.
///
/// Like [`Generation::insert_staged`], the visit is staged over up to
/// [`STAGE_WIDTH`] partitions at a time: write-prefetch their headers (the
/// lock is a read-modify-write), read-prefetch their runs from the headers'
/// hints, then lock and scan. A lone partition is not peeked, for the reason
/// given there.
///
/// `pairs` usually arrives sorted — one range per partition, and ranges
/// ascending because the engine sorts each batch by key — and is then used
/// as it is; otherwise (ranges out of order, or several ranges sharing a
/// partition) it is sorted here.
fn visit_partitions<F: FnMut(usize, &[Entry])>(
    gen: &Generation,
    pairs: &mut [(usize, usize)],
    ranges: &[KeyRange],
    counters: &mut ProbeCounters,
    mut f: F,
) {
    if !pairs.is_sorted() {
        pairs.sort_unstable();
    }
    counters.ti_range_visits += pairs.len() as u64;
    let mut visits = pairs.chunk_by(|a, b| a.0 == b.0);
    loop {
        let mut stage: [&[(usize, usize)]; STAGE_WIDTH] = [&[]; STAGE_WIDTH];
        let mut staged = 0;
        for (slot, visit) in stage.iter_mut().zip(&mut visits) {
            *slot = visit;
            staged += 1;
        }
        let stage = &stage[..staged];
        if stage.is_empty() {
            return;
        }
        for visit in stage {
            prefetch_write(&gen.partitions[visit[0].0]);
        }
        if stage.len() > 1 {
            for visit in stage {
                if let Some(run) = gen.partitions[visit[0].0].peek_run() {
                    prefetch_range(run, prefetch_read);
                }
            }
        }
        for visit in stage {
            let part = gen.partitions[visit[0].0].lock();
            counters.ti_partition_locks += 1;
            for &(_, j) in *visit {
                part.run.range_runs(ranges[j], |run| f(j, run));
            }
        }
    }
}

/// One `LiveMerge` pass over `TS` and the runs of `partitions` in partition
/// order, holding `ti_len` entries: the live entries (sequence number at or
/// after `earliest_live`) in `(key, seq)` order, with the merge's counts.
fn live_merge<'r>(
    ts: &CssTree,
    partitions: impl Iterator<Item = &'r Run>,
    ti_len: usize,
    earliest_live: Seq,
) -> (Vec<Entry>, MergeReport) {
    let mut merge = LiveMerge::new(ts.entries(), ti_len, earliest_live);
    for run in partitions {
        run.for_each_run(|run| merge.push_run(run));
    }
    merge.finish()
}

/// The group-descent cursors and partition visits of
/// [`PimTree::probe_batch`], kept per thread so the hot path reuses its
/// buffers instead of allocating four vectors per task.
#[derive(Default)]
struct ProbeScratch {
    targets: Vec<Entry>,
    positions: Vec<usize>,
    groups: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

thread_local! {
    static PROBE_SCRATCH: std::cell::RefCell<ProbeScratch> =
        std::cell::RefCell::new(ProbeScratch::default());
}

/// The Partitioned In-memory Merge-Tree.
///
/// All operations take `&self`; concurrent inserts and range lookups from any
/// number of threads are coordinated by per-partition locks, while the
/// immutable component is traversed without any synchronisation. An owner
/// that never shares the tree calls the `&mut self` forms of the per-tuple
/// operations instead ([`PimTree::insert_batch_mut`],
/// [`PimTree::range_runs_mut`], [`PimTree::needs_merge_mut`], and the
/// instrumented [`PimTree::probe_with_breakdown`]): the same routes, runs
/// and merge-due answers, reached through `get_mut`, so they take no lock
/// and no atomic read-modify-write. Merges are either blocking
/// ([`PimTree::merge`]) or concurrent ([`PimTree::merge_concurrent`], §4.2),
/// which takes inserts and probes while it builds the next `TS`.
#[derive(Debug)]
pub struct PimTree {
    config: PimConfig,
    /// `config.merge_threshold()`, computed once: the method multiplies and
    /// rounds in `f64`, and every `insert_batch` / `needs_merge` reads it.
    merge_threshold: usize,
    current: RwLock<Generation>,
    /// Held by every merge throughout: merges run one at a time, so only a
    /// concurrent merge's own steps see a frozen table.
    merging: Mutex<()>,
    /// Insert counters of retired generations, folded in at merge time so the
    /// drift experiment can observe a cumulative histogram.
    retired_inserts: Mutex<Vec<u64>>,
}

impl PimTree {
    /// Creates an empty PIM-Tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PimConfig) -> Self {
        Self::from_sorted(config, Vec::new())
    }

    /// Bulk-builds a PIM-Tree over `entries`, sorted by `(key, seq)`: they
    /// become the immutable component, and the mutable one starts empty with
    /// one partition per `TS` node at the insertion depth — the state a merge
    /// leaves behind. [`PimTree::sorted_entries`] reads a tree back in the
    /// same form.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn from_sorted(config: PimConfig, entries: Vec<Entry>) -> Self {
        config.validate().expect("invalid PIM-Tree configuration");
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "entries must be sorted"
        );
        let generation = Generation::new(&config, build_ts(&config, entries));
        PimTree {
            merge_threshold: config.merge_threshold(),
            config,
            current: RwLock::new(generation),
            merging: Mutex::new(()),
            retired_inserts: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this tree was created with.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Entries currently held by the mutable component: while a concurrent
    /// merge runs, its frozen table's and the fresh one's.
    pub fn ti_len(&self) -> usize {
        let gen = self.current.read();
        gen.frozen_len + gen.ti_len.0.load(Ordering::Relaxed)
    }

    /// Entries currently held by the immutable component (live and expired).
    pub fn ts_len(&self) -> usize {
        self.current.read().ts.len()
    }

    /// Total indexed entries (live and expired).
    pub fn len(&self) -> usize {
        let gen = self.current.read();
        gen.ts.len() + gen.frozen_len + gen.ti_len.0.load(Ordering::Relaxed)
    }

    /// Whether no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of mutable partitions in the current generation.
    pub fn partition_count(&self) -> usize {
        self.current.read().partitions.len()
    }

    /// Effective insertion depth of the current generation.
    pub fn effective_depth(&self) -> usize {
        self.current.read().depth
    }

    /// Inserts a newly arrived tuple: route through `TS` to the insertion
    /// depth, then insert into the corresponding partition under its lock
    /// (Algorithm 1). Returns whether the mutable component has reached the
    /// merge threshold, as [`PimTree::insert_batch`] does.
    pub fn insert(&self, key: Key, seq: Seq) -> bool {
        self.insert_batch(&[(key, seq)])
    }

    /// Inserts a batch of newly arrived tuples under a single acquisition of
    /// the generation lock.
    ///
    /// The parallel join engine inserts one task's worth of tuples at a time;
    /// batching keeps the per-tuple cost down to the partition routing and the
    /// partition lock instead of adding a generation-lock acquisition and a
    /// shared counter update for every tuple.
    ///
    /// A batch of two or more is inserted in stages over the whole batch
    /// (see "Staged access" in `docs/ARCHITECTURE.md`); a batch of one, which
    /// has nothing to overlap with, is routed and inserted directly.
    ///
    /// Returns whether this batch carried the mutable component to or past
    /// the merge threshold, i.e. what [`PimTree::needs_merge`] would answer
    /// right after it, without taking the generation lock again to ask.
    pub fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        if entries.is_empty() {
            return false;
        }
        let gen = self.current.read();
        let fanout = self.config.btree_fanout;
        if let [(key, seq)] = *entries {
            gen.insert(Entry::new(key, seq), fanout);
        } else {
            for chunk in entries.chunks(STAGE_WIDTH) {
                gen.insert_staged(chunk, fanout);
            }
        }
        let before = gen.ti_len.0.fetch_add(entries.len(), Ordering::Relaxed);
        before + entries.len() >= self.merge_threshold
    }

    /// [`PimTree::insert_batch`] through `&mut self`: the generation, the
    /// partitions and `TI`'s count are reached by `get_mut`, so the batch
    /// takes no lock and no atomic read-modify-write. Each entry is routed
    /// and inserted as a batch of one is, with no staged pass: the
    /// single-threaded operator that owns a tree this way inserts one tuple
    /// at a time. Same tree, same answer.
    pub fn insert_batch_mut(&mut self, entries: &[(Key, Seq)]) -> bool {
        if entries.is_empty() {
            return false;
        }
        let gen = self.current.get_mut();
        for &(key, seq) in entries {
            gen.insert_mut(Entry::new(key, seq), self.config.btree_fanout);
        }
        let ti_len = gen.ti_len.0.get_mut();
        *ti_len += entries.len();
        *ti_len >= self.merge_threshold
    }

    /// Calls `f` with every indexed entry whose key lies in `range`, including
    /// entries of expired tuples (callers filter by sequence number), as
    /// sorted runs: slices that borrow the index's own storage, never empty,
    /// each ascending by `(key, seq)` and inside `range`. `TS` answers first
    /// and without locks, as one slice of its leaf array; then only the
    /// partitions overlapping the range are locked, one at a time and in
    /// ascending order (Algorithm 2) — a flat partition answers with one
    /// slice, a promoted one with one per leaf — and `f` runs under that lock.
    pub fn range_runs<F: FnMut(&[Entry])>(&self, range: KeyRange, mut f: F) {
        self.current.read().probe(range, &mut f);
    }

    /// [`PimTree::range_runs`] through `&mut self`: the same runs in the
    /// same order, with no generation lock and no partition lock; `f` runs
    /// while the tree is borrowed exclusively.
    pub fn range_runs_mut<F: FnMut(&[Entry])>(&mut self, range: KeyRange, mut f: F) {
        self.current.get_mut().probe_mut(range, &mut f);
    }

    /// Calls `f` for every indexed entry whose key lies in `range`: the
    /// entries of [`PimTree::range_runs`], one at a time and in its order.
    pub fn range_for_each<F: FnMut(Entry)>(&self, range: KeyRange, mut f: F) {
        self.range_runs(range, |run| run.iter().for_each(|&e| f(e)));
    }

    /// Batched range probe: calls `f(i, run)` with the sorted runs of indexed
    /// entries whose key lies in `ranges[i]`, including entries of expired
    /// tuples (callers filter by sequence number). Per range, the runs arrive
    /// exactly as [`PimTree::range_runs`] would deliver them: the immutable
    /// component's slice, then the overlapping mutable partitions ascending.
    /// The ranges may come in any order and may repeat; each is answered as
    /// given, with one descent of its own.
    ///
    /// The immutable component is descended level-by-level for the whole
    /// batch with software prefetching (`CssTree::lower_bound_batch`), under
    /// a single acquisition of the generation lock — one lock round-trip per
    /// task instead of one per tuple. A batch sorted by key, as the engine
    /// hands it over, visits the nodes left to right. The mutable component
    /// is batched too: each range's overlapping partition interval is derived
    /// *arithmetically* from the group descent's leaf group (the routing node
    /// at the insertion depth is an ancestor of it — no second root-to-leaf
    /// walk), and the partitions are then visited partition-major, so a
    /// partition overlapped by many ranges is locked once per batch instead
    /// of once per range. `counters` records batch sizes, nodes prefetched,
    /// SIMD work and the mutable-side lock grouping. A batch of one
    /// degenerates to the scalar descent (there is nothing to prefetch ahead
    /// of), which derives its partitions by the same arithmetic; either way a
    /// range costs one descent. The cursor buffers of larger batches are
    /// reused through a per-thread scratch, so the steady state allocates
    /// nothing.
    pub fn probe_batch<F: FnMut(usize, &[Entry])>(
        &self,
        ranges: &[KeyRange],
        counters: &mut ProbeCounters,
        mut f: F,
    ) {
        let n = ranges.len();
        if n == 0 {
            return;
        }
        counters.batches += 1;
        counters.batched_keys += n as u64;
        counters.max_batch = counters.max_batch.max(n as u64);

        let gen = self.current.read();
        if n == 1 {
            gen.probe(ranges[0], &mut |run| f(0, run));
            return;
        }
        // Taking the scratch out (instead of borrowing it in place) keeps a
        // re-entrant callback from panicking: an inner call simply starts
        // from an empty default and the outer buffers win the put-back.
        let mut s = PROBE_SCRATCH.with(|cell| cell.take());

        // One level-wise group descent resolves every range's start position
        // in the immutable component and records the leaf group the descent
        // landed in — the partition-routing node at the insertion depth is an
        // arithmetic ancestor of that group, so the mutable-side routing
        // below never re-descends from the root.
        s.targets.clear();
        s.targets
            .extend(ranges.iter().map(|r| Entry::min_for_key(r.lo)));
        gen.ts
            .lower_bound_batch(&s.targets, &mut s.positions, &mut s.groups, counters);
        let ti_populated = gen.ti_len.0.load(Ordering::Relaxed) > 0;
        let mutable = ti_populated || gen.frozen_len > 0;

        // Immutable component first: per range, `TS`'s run is emitted before
        // any `TI` run, exactly like the scalar probe. The run's end position
        // doubles as the upper routing bound for the mutable side
        // (`Generation::overlapped_partitions`).
        s.pairs.clear();
        for (j, &range) in ranges.iter().enumerate() {
            let start = s.positions[j];
            let run = gen.ts.run_from(start, range.hi);
            if !run.is_empty() {
                f(j, run);
            }
            if mutable {
                let partitions = gen.overlapped_partitions(range, s.groups[j], start + run.len());
                s.pairs.extend(partitions.map(|p| (p, j)));
            }
        }

        // Mutable component, batched: a frozen table answers first, range by
        // range; then the partitions are visited partition-major
        // (`visit_partitions`).
        if gen.frozen_len > 0 {
            for &(p, j) in &s.pairs {
                gen.frozen[p].range_runs(ranges[j], |run| f(j, run));
            }
        }
        if ti_populated {
            visit_partitions(&gen, &mut s.pairs, ranges, counters, &mut f);
        }
        PROBE_SCRATCH.with(|cell| cell.replace(s));
    }

    /// Instrumented probe separating index traversal ("search") from leaf
    /// scanning ("scan"), used by the Figure 9b experiment through the
    /// single-threaded operator's exclusively owned tree. It takes the path
    /// of [`PimTree::range_runs_mut`]: "search" is its one descent of `TS`,
    /// and "scan" the rest — `TS`'s run, the partitions derived from the
    /// run's end (a few divisions) and their runs, reached without locks.
    pub fn probe_with_breakdown(
        &mut self,
        range: KeyRange,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        let gen = self.current.get_mut();
        let search_start = Instant::now();
        let (start, group) = gen.ts.lower_bound_with_group(Entry::min_for_key(range.lo));
        breakdown.record(Step::Search, search_start.elapsed());

        let scan_start = Instant::now();
        let run = gen.ts.run_from(start, range.hi);
        let span = gen.overlapped_partitions(range, group, start + run.len());
        let mut out = run.to_vec();
        for run in gen.frozen.get(span.clone()).unwrap_or_default() {
            run.range_runs(range, |run| out.extend_from_slice(run));
        }
        for p in gen.ti_visits(span) {
            gen.partitions[p]
                .state
                .get_mut()
                .run
                .range_runs(range, |run| out.extend_from_slice(run));
        }
        breakdown.record(Step::Scan, scan_start.elapsed());
        out
    }

    /// Whether the mutable component has reached the merge threshold `m · w`.
    /// A table a running merge froze does not count: that merge takes it.
    pub fn needs_merge(&self) -> bool {
        self.current.read().ti_len.0.load(Ordering::Relaxed) >= self.merge_threshold
    }

    /// [`PimTree::needs_merge`] through `&mut self`: `TI`'s count read
    /// without the generation lock.
    pub fn needs_merge_mut(&mut self) -> bool {
        *self.current.get_mut().ti_len.0.get_mut() >= self.merge_threshold
    }

    /// Blocking merge: waits for in-flight operations, then rebuilds `TS`
    /// from the live entries of both components in one pass
    /// (`LiveMerge`, fed the partitions' runs in partition order) and
    /// refits the partition table in place. Nothing is allocated per
    /// partition; the old `TS` is freed (with the partitions a smaller `TS`
    /// no longer has), and the reported duration includes freeing it.
    pub fn merge(&self, earliest_live: Seq) -> MergeReport {
        let _merging = self.merging.lock();
        let started = Instant::now();
        let mut guard = self.current.write();
        let gen = &mut *guard;
        self.fold_retired_counters(&mut gen.partitions);
        let ti_len = *gen.ti_len.0.get_mut();
        let runs = gen.partitions.iter_mut().map(|p| &p.state.get_mut().run);
        let (merged, report) = live_merge(&gen.ts, runs, ti_len, earliest_live);
        let old_ts = std::mem::replace(&mut gen.ts, build_ts(&self.config, merged));
        gen.refit(&self.config);
        let partitions = gen.partitions.len();
        drop(guard);
        drop(old_ts);
        MergeReport {
            duration: started.elapsed(),
            partitions,
            ..report
        }
    }

    /// Concurrent merge (the non-blocking merge of §4.2): inserts and probes
    /// go on while it runs. It freezes the partition table and opens a
    /// fresh one for the inserts (`freeze`), merges `TS` with the frozen
    /// table into the next generation (`build_next`) and installs it,
    /// carrying the fresh table's entries over (`install`). `earliest_live`
    /// drops entries of `TS` and the frozen table only. A second merge of
    /// the same tree waits for this one.
    pub fn merge_concurrent(&self, earliest_live: Seq) -> MergeReport {
        let _merging = self.merging.lock();
        let started = Instant::now();
        self.freeze();
        let (next, report) = self.build_next(earliest_live);
        let partitions = next.partitions.len();
        self.install(next);
        MergeReport {
            duration: started.elapsed(),
            partitions,
            ..report
        }
    }

    /// The partition table's runs become the read-only frozen table, which
    /// probes read between `TS` and the fresh table that takes the inserts.
    /// Under the exclusive lock only runs move and counters fold: both tables
    /// are allocated before (only merges resize them, and the caller holds
    /// `merging`), and the emptied one is freed after.
    fn freeze(&self) {
        let partitions = self.current.read().partitions.len();
        let mut table: Vec<Partition> = (0..partitions).map(|_| Partition::new()).collect();
        let mut frozen: Vec<Run> = (0..partitions).map(|_| Run::Flat(Vec::new())).collect();
        let mut guard = self.current.write();
        let gen = &mut *guard;
        self.fold_retired_counters(&mut gen.partitions);
        for (run, p) in frozen.iter_mut().zip(&mut gen.partitions) {
            std::mem::swap(run, &mut p.state.get_mut().run);
        }
        std::mem::swap(&mut gen.partitions, &mut table);
        gen.frozen = frozen;
        gen.frozen_len = std::mem::take(gen.ti_len.0.get_mut());
        drop(guard);
        drop(table);
    }

    /// The next generation, from the live entries of `TS` and the frozen
    /// table, read under the lock held shared.
    fn build_next(&self, earliest_live: Seq) -> (Generation, MergeReport) {
        let (merged, report) = {
            let gen = self.current.read();
            live_merge(&gen.ts, gen.frozen.iter(), gen.frozen_len, earliest_live)
        };
        let next = Generation::new(&self.config, build_ts(&self.config, merged));
        (next, report)
    }

    /// Under the exclusive lock, carries the fresh table's entries into
    /// `next` ([`Generation::append_sorted`]: ascending, so each is an
    /// append) and swaps `next` in. The replaced generation is freed after
    /// the lock is released.
    fn install(&self, mut next: Generation) {
        let mut guard = self.current.write();
        let mut carried = Vec::with_capacity(*guard.ti_len.0.get_mut());
        for p in &mut guard.partitions {
            let run = &p.state.get_mut().run;
            run.for_each_run(|run| carried.extend_from_slice(run));
        }
        next.append_sorted(&carried, self.config.btree_fanout);
        *next.ti_len.0.get_mut() = carried.len();
        let old = std::mem::replace(&mut *guard, next);
        drop(guard);
        drop((old, carried));
    }

    /// Every indexed entry, live and expired, in `(key, seq)` order: the
    /// merge's one pass over `TS` and the partitions' runs with nothing
    /// dropped. [`PimTree::from_sorted`] builds a tree back from it. Waits
    /// for a running merge.
    pub fn sorted_entries(&self) -> Vec<Entry> {
        let _merging = self.merging.lock();
        let gen = self.current.read();
        let runs: Vec<_> = gen.partitions.iter().map(Partition::lock).collect();
        let ti_len = gen.ti_len.0.load(Ordering::Relaxed);
        live_merge(&gen.ts, runs.iter().map(|p| &p.run), ti_len, 0).0
    }

    /// Moves the insert counters of `partitions` into the cumulative
    /// histogram, leaving them at zero. They are borrowed mutably, so the
    /// counters are read through the locks, not under them.
    fn fold_retired_counters(&self, partitions: &mut [Partition]) {
        let mut retired = self.retired_inserts.lock();
        if retired.len() < partitions.len() {
            retired.resize(partitions.len(), 0);
        }
        for (sum, p) in retired.iter_mut().zip(partitions) {
            *sum += std::mem::take(&mut p.state.get_mut().inserts);
        }
    }

    /// Cumulative per-partition insert counts (current generation plus all
    /// retired ones), used by the drift experiment of Figure 13a.
    pub fn insert_histogram(&self) -> Vec<u64> {
        let gen = self.current.read();
        let retired = self.retired_inserts.lock();
        let len = retired.len().max(gen.partitions.len());
        let mut hist = vec![0u64; len];
        for (i, &c) in retired.iter().enumerate() {
            hist[i] += c;
        }
        for (sum, p) in hist.iter_mut().zip(&gen.partitions) {
            *sum += p.lock().inserts;
        }
        hist
    }

    /// Clears the cumulative insert histogram (current generation counters
    /// included).
    pub fn reset_insert_histogram(&self) {
        self.retired_inserts.lock().clear();
        let gen = self.current.read();
        for p in &gen.partitions {
            p.lock().inserts = 0;
        }
    }

    /// Memory footprint broken down by component (Figure 11a). The merge
    /// buffer is sized for the worst case: the sorted array built while the
    /// next `TS` is being constructed.
    pub fn footprint(&self) -> PimFootprint {
        let gen = self.current.read();
        let ts = gen.ts.stats();
        let mut ti_bytes = 0usize;
        let mut ti_entries = 0usize;
        for p in &gen.partitions {
            let (entries, bytes) = p.lock().run.footprint();
            ti_entries += entries;
            ti_bytes += bytes;
        }
        let entry = std::mem::size_of::<Entry>();
        PimFootprint {
            ts_leaf_bytes: ts.leaf_bytes,
            ts_inner_bytes: ts.inner_bytes,
            ti_bytes,
            merge_buffer_bytes: (ts.entries + ti_entries) * entry,
            entries: gen.ts.len() + ti_entries,
            partitions: gen.partitions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn config(w: usize, m: f64, di: usize) -> PimConfig {
        let mut c = PimConfig::for_window(w)
            .with_merge_ratio(m)
            .with_insertion_depth(di);
        c.css_fanout = 8;
        c.css_leaf_size = 8;
        c.btree_fanout = 8;
        c
    }

    #[test]
    fn empty_tree_has_one_partition() {
        let t = PimTree::new(config(64, 1.0, 3));
        assert!(t.is_empty());
        assert_eq!(t.partition_count(), 1);
        assert_eq!(t.effective_depth(), 0);
        assert!(t.range_collect_live(KeyRange::new(0, 100), 0).is_empty());
    }

    #[test]
    fn inserts_accumulate_in_ti_and_merge_builds_partitions() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i * 10, i as Seq);
        }
        assert_eq!(t.ti_len(), 256);
        assert_eq!(t.ts_len(), 0);
        assert!(t.needs_merge());
        let report = t.merge(0);
        assert_eq!(report.from_ti, 256);
        assert_eq!(report.new_len, 256);
        assert_eq!(t.ti_len(), 0);
        assert_eq!(t.ts_len(), 256);
        assert!(
            t.partition_count() > 1,
            "a populated TS yields multiple partitions"
        );
        assert_eq!(report.partitions, t.partition_count());
    }

    #[test]
    fn lookups_see_both_components() {
        let t = PimTree::new(config(128, 1.0, 2));
        for i in 0..128i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 128..160i64 {
            t.insert(i, i as Seq);
        }
        let got = t.range_collect_live(KeyRange::new(100, 140), 0);
        assert_eq!(got.len(), 41);
        // Filtering by expiry removes old ones.
        let live = t.range_collect_live(KeyRange::new(100, 140), 120);
        assert!(live.iter().all(|e| e.seq >= 120));
        assert_eq!(live.len(), 41 - 20);
    }

    #[test]
    fn routing_spans_partitions_for_wide_ranges() {
        let t = PimTree::new(config(1024, 1.0, 3));
        for i in 0..1024i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        // New inserts are routed across many partitions.
        for i in 0..1024i64 {
            t.insert(i, (1024 + i) as Seq);
        }
        assert!(t.partition_count() >= 8);
        let all = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        assert_eq!(all.len(), 2048);
        // A narrow range returns exactly the matching entries from both
        // components.
        let narrow = t.range_collect_live(KeyRange::new(500, 509), 0);
        assert_eq!(narrow.len(), 20, "10 keys × 2 copies (TS + TI)");
    }

    #[test]
    fn merge_drops_expired_and_keeps_live() {
        let w = 128usize;
        let t = PimTree::new(config(w, 0.5, 2));
        let key_of = |i: i64| (i * 37) % 500;
        let n = 1024i64;
        for i in 0..n {
            t.insert(key_of(i), i as Seq);
            if t.needs_merge() {
                let earliest = (i as Seq + 1).saturating_sub(w as Seq);
                t.merge(earliest);
            }
        }
        let earliest = n as Seq - w as Seq;
        let live = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), earliest);
        assert_eq!(live.len(), w);
        let mut seqs: Vec<Seq> = live.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (earliest..n as Seq).collect::<Vec<_>>());
        for e in &live {
            assert_eq!(e.key, key_of(e.seq as i64));
        }
    }

    #[test]
    fn nonblocking_merge_phases_preserve_content() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i, i as Seq);
        }
        let before = t.content();
        // Freeze: the table's entries stay visible, read-only.
        t.freeze();
        assert_eq!((t.ts_len(), t.ti_len()), (0, 256));
        assert_eq!(t.content(), before);
        assert!(!t.needs_merge(), "a frozen table is not due again");
        // Merge: the old generation stays installed while the next is built.
        let (next, report) = t.build_next(0);
        assert_eq!(report.new_len, 256);
        assert_eq!(t.ts_len(), 0, "old generation still installed");
        assert_eq!(t.content(), before);
        t.install(next);
        assert_eq!((t.ts_len(), t.ti_len()), (256, 0));
        assert_eq!(t.content(), before);
        // The one call runs the three steps.
        let report = t.merge_concurrent(0);
        assert_eq!((report.new_len, report.from_ti), (256, 0));
        assert_eq!(report.partitions, t.partition_count());
        assert_eq!(t.content(), before);
    }

    /// Inserts that arrive while a concurrent merge runs go to the fresh
    /// table: every probe entry point finds them beside `TS` and the frozen
    /// table, the expiry horizon never drops them, and install carries
    /// them, in order, into the next generation's partitions.
    #[test]
    fn pending_inserts_after_install_are_visible() {
        let mut t = merged_tree(512);
        for i in 0..64i64 {
            t.insert(i * 8, 512 + i as Seq);
        }
        t.freeze();
        let during: Vec<(Key, Seq)> = (0..40).map(|i| (i * 13 % 520, 600 + i as Seq)).collect();
        t.insert_batch(&during[..39]);
        t.insert(during[39].0, during[39].1);
        assert_eq!((t.ts_len(), t.ti_len()), (512, 64 + 40));
        let ranges = [
            KeyRange::new(Key::MIN, Key::MAX),
            KeyRange::new(0, 40),
            KeyRange::new(100, 101),
            KeyRange::new(500, Key::MAX),
        ];
        t.assert_probes_match_brute_force(&ranges);
        for &range in &ranges {
            let timed = t.probe_with_breakdown(range, &mut CostBreakdown::new());
            assert_eq!(timed, t.brute_force(range), "{range:?}");
        }
        // Every entry of `TS` and the frozen table is expired; the fresh
        // table's are carried whatever their age.
        let (next, report) = t.build_next(1000);
        assert_eq!((report.new_len, report.dropped_expired), (0, 512 + 64));
        t.install(next);
        let mut want: Vec<Entry> = during.iter().map(|&(k, s)| Entry::new(k, s)).collect();
        want.sort_unstable();
        assert_eq!((t.ts_len(), t.ti_len()), (0, 40));
        assert_eq!(t.content(), want);
        assert_eq!(t.partition_count(), 1, "an empty TS has one partition");
        assert_eq!(
            t.insert_histogram().iter().sum::<u64>(),
            512 + 64 + 40,
            "each insert counted once, carried ones where they landed"
        );
        t.assert_probes_match_brute_force(&ranges);
    }

    #[test]
    fn insert_histogram_tracks_partition_skew() {
        let t = PimTree::new(config(512, 1.0, 3));
        for i in 0..512i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        t.reset_insert_histogram();
        // Insert only small keys: the histogram must be heavily skewed toward
        // the first partitions.
        for i in 0..200i64 {
            t.insert(i % 10, (512 + i) as Seq);
        }
        let hist = t.insert_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 200);
        assert!(hist[0] > 0);
        assert_eq!(
            *hist.last().unwrap(),
            0,
            "no inserts routed to the last partition"
        );
        // Histogram survives a merge (folded into the cumulative counters).
        t.merge(0);
        let hist_after = t.insert_histogram();
        assert_eq!(hist_after.iter().sum::<u64>(), 200);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 32 000 inserts from eight threads
    fn concurrent_inserts_and_lookups() {
        let t = Arc::new(PimTree::new(config(1 << 14, 1.0, 3)));
        // Pre-populate and merge so that several partitions exist.
        for i in 0..(1 << 14) as i64 {
            t.insert(i * 64, i as Seq);
        }
        t.merge(0);
        let threads = 8;
        let per_thread = 4000i64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = ((tid * per_thread + i) * 97) % (64 << 14);
                    t.insert(key, (1 << 14) + (tid * per_thread + i) as Seq);
                    if i % 13 == 0 {
                        let _ = t.range_collect_live(KeyRange::new(key - 100, key + 100), 0);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.ti_len(), (threads * per_thread) as usize);
        let all = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), 0);
        assert_eq!(all.len(), (1 << 14) + (threads * per_thread) as usize);
    }

    #[test]
    fn batched_probe_matches_scalar_on_both_components() {
        let t = PimTree::new(config(512, 1.0, 2));
        // TS from the merge, TI from post-merge inserts, duplicates in both.
        for i in 0..512i64 {
            t.insert((i * 3) % 700, i as Seq);
        }
        t.merge(0);
        for i in 512..700i64 {
            t.insert((i * 3) % 700, i as Seq);
        }
        let ranges = [
            KeyRange::new(100, 160),
            KeyRange::new(100, 160),   // duplicate of the first
            KeyRange::new(-50, -1),    // below the domain
            KeyRange::new(5000, 6000), // above the domain
            KeyRange::new(0, 2000),    // everything
            KeyRange::point(300),
        ];
        // Batches in any order: descending, and interleaved with duplicate
        // and overlapping ranges.
        let descending: Vec<KeyRange> = (0..12)
            .rev()
            .map(|i| KeyRange::new(i * 60, i * 60 + 50))
            .collect();
        let interleaved = [
            KeyRange::new(400, 520),
            KeyRange::new(10, 90),
            KeyRange::new(400, 520), // duplicate, not adjacent
            KeyRange::new(450, 460), // inside the first
            KeyRange::new(80, 420),  // overlaps both
            KeyRange::new(10, 90),
            KeyRange::point(0),
        ];
        // Every range of a batch is checked against brute force.
        let check = |t: &PimTree, batch: &[KeyRange], counters: &mut ProbeCounters| {
            let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); batch.len()];
            t.probe_batch(batch, counters, |i, run| batched[i].extend_from_slice(run));
            for (range, got) in batch.iter().zip(&batched) {
                let want = t.brute_force(*range);
                assert_eq!(got, &want, "range {range:?}, batch {batch:?}");
            }
        };
        // Batch lengths around the group descent's lookahead of four, drawn
        // from `ranges` in turn.
        let mut counters = ProbeCounters::default();
        for len in [0usize, 1, 3, 4, 5, 64] {
            let batch: Vec<KeyRange> = ranges.iter().copied().cycle().take(len).collect();
            check(&t, &batch, &mut counters);
        }
        assert_eq!(counters.batches, 5, "an empty batch is not counted");
        assert_eq!(counters.batched_keys, 1 + 3 + 4 + 5 + 64);
        assert_eq!(counters.max_batch, 64);
        assert!(
            counters.nodes_prefetched > 0,
            "the group descent prefetches nodes of the populated TS"
        );
        for batch in [&descending[..], &interleaved] {
            check(&t, batch, &mut counters);
        }
        // Once more with a frozen table between TS and a fresh TI.
        t.freeze();
        for i in 700..760i64 {
            t.insert((i * 7) % 700, i as Seq);
        }
        for batch in [&ranges[..], &descending, &interleaved] {
            check(&t, batch, &mut counters);
        }
    }

    #[test]
    fn batched_ti_probe_locks_each_partition_once_per_batch() {
        // A populated TS (many partitions) plus a populated TI, probed with
        // several wide, overlapping ranges: the partition-major TI path must
        // lock every partition at most once per batch while producing the
        // exact brute-force result per range.
        let t = PimTree::new(config(2048, 1.0, 3));
        for i in 0..2048i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        assert!(t.partition_count() > 4);
        for i in 2048..2560i64 {
            t.insert(i - 2048, i as Seq);
        }
        let ranges = [
            KeyRange::new(0, 600),
            KeyRange::new(100, 700), // overlaps the first range's partitions
            KeyRange::new(100, 700), // duplicate
            KeyRange::new(1500, 2047), // disjoint partition interval
            KeyRange::new(-50, -1),  // below the domain
            KeyRange::point(650),
        ];
        let mut counters = ProbeCounters::default();
        let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        t.probe_batch(&ranges, &mut counters, |i, run| {
            batched[i].extend_from_slice(run)
        });
        for (range, got) in ranges.iter().zip(&batched) {
            assert_eq!(got, &t.brute_force(*range), "range {range:?}");
        }
        assert!(counters.ti_range_visits > 0);
        assert!(
            counters.ti_partition_locks <= t.partition_count() as u64,
            "each partition is locked at most once per batch: {} locks, {} partitions",
            counters.ti_partition_locks,
            t.partition_count()
        );
        assert!(
            counters.ti_partition_locks < counters.ti_range_visits,
            "overlapping ranges must share partition locks ({} locks / {} visits)",
            counters.ti_partition_locks,
            counters.ti_range_visits
        );
    }

    /// The degenerate batches of the range probe: an empty one calls back
    /// nothing and is not counted, and a batch of one is the scalar descent —
    /// no group descent, no prefetch, no partition grouping.
    #[test]
    fn scalar_ranges_probe_degenerate_batches() {
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..100i64 {
            t.insert(i, i as Seq);
        }
        let mut counters = ProbeCounters::default();
        t.probe_batch(&[], &mut counters, |_, _| {
            panic!("empty batch must not call back")
        });
        assert_eq!(counters, ProbeCounters::default());
        let mut single = Vec::new();
        t.probe_batch(&[KeyRange::new(10, 20)], &mut counters, |i, run| {
            assert_eq!(i, 0);
            single.extend_from_slice(run);
        });
        assert_eq!(single, t.brute_force(KeyRange::new(10, 20)));
        assert_eq!(single.len(), 11);
        assert_eq!((counters.batches, counters.max_batch), (1, 1));
        assert_eq!(counters.nodes_prefetched, 0, "nothing to look ahead of");
        assert_eq!(counters.ti_partition_locks, 0, "batch of one is unbatched");
    }

    #[test]
    fn batched_probe_on_empty_tree_and_empty_batch() {
        let t = PimTree::new(config(64, 1.0, 2));
        let mut counters = ProbeCounters::default();
        t.probe_batch(&[], &mut counters, |_, _| {
            panic!("empty batch must not call back")
        });
        assert_eq!(counters.batches, 0, "empty batches are not counted");
        t.probe_batch(&[KeyRange::new(0, 100)], &mut counters, |_, _| {
            panic!("empty tree must not call back")
        });
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.nodes_prefetched, 0);
    }

    #[test]
    fn batched_probe_before_first_merge_sees_only_ti() {
        // Everything still lives in the mutable component (TS is empty).
        let t = PimTree::new(config(256, 1.0, 2));
        for i in 0..100i64 {
            t.insert(i, i as Seq);
        }
        let ranges = [KeyRange::new(10, 20), KeyRange::new(95, 200)];
        let mut counters = ProbeCounters::default();
        let mut got: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
        t.probe_batch(&ranges, &mut counters, |i, run| {
            got[i].extend_from_slice(run)
        });
        assert_eq!(got[0].len(), 11);
        assert_eq!(got[1].len(), 5);
        for (range, entries) in ranges.iter().zip(&got) {
            assert_eq!(entries, &t.brute_force(*range));
        }
    }

    #[test]
    fn probe_with_breakdown_matches_plain_probe() {
        let mut t = PimTree::new(config(256, 1.0, 2));
        for i in 0..256i64 {
            t.insert(i * 3, i as Seq);
        }
        t.merge(0);
        for i in 256..300i64 {
            t.insert(i * 3, i as Seq);
        }
        let range = KeyRange::new(100, 800);
        let mut breakdown = CostBreakdown::new();
        let a = t.probe_with_breakdown(range, &mut breakdown);
        assert_eq!(a, t.brute_force(range), "TS's entries, then TI's");
        assert!(breakdown.count(Step::Search) == 1 && breakdown.count(Step::Scan) == 1);
    }

    #[test]
    fn footprint_reports_all_components() {
        let t = PimTree::new(config(4096, 1.0, 3));
        for i in 0..4096i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 0..512i64 {
            t.insert(i, (4096 + i) as Seq);
        }
        let f = t.footprint();
        assert!(f.ts_leaf_bytes > 0);
        assert!(f.ts_inner_bytes > 0);
        assert!(f.ti_bytes > 0);
        assert_eq!(f.entries, 4096 + 512);
        assert_eq!(f.partitions, t.partition_count());
        assert!(f.total_bytes() > f.ts_bytes());
    }

    #[test]
    fn higher_insertion_depth_yields_more_partitions() {
        let make = |di: usize| {
            let t = PimTree::new(config(4096, 1.0, di));
            for i in 0..4096i64 {
                t.insert(i, i as Seq);
            }
            t.merge(0);
            t.partition_count()
        };
        let p1 = make(1);
        let p2 = make(2);
        let p3 = make(3);
        assert!(p1 < p2 && p2 <= p3, "partitions: {p1}, {p2}, {p3}");
    }

    #[test]
    #[should_panic(expected = "invalid PIM-Tree configuration")]
    fn invalid_config_rejected() {
        let _ = PimTree::new(PimConfig::for_window(16).with_merge_ratio(0.0));
    }

    impl PimTree {
        /// The live entries (sequence number at or after `earliest_live`)
        /// whose key lies in `range`, in the scalar probe's order.
        fn range_collect_live(&self, range: KeyRange, earliest_live: Seq) -> Vec<Entry> {
            let mut out = Vec::new();
            self.range_for_each(range, |e| out.extend((e.seq >= earliest_live).then_some(e)));
            out
        }

        /// The brute-force answer to a probe of `range`: `TS`'s leaf array,
        /// then every entry of the frozen table sorted, then every entry of
        /// `TI` sorted, each filtered by key — no descent, route or
        /// partition arithmetic involved.
        fn brute_force(&self, range: KeyRange) -> Vec<Entry> {
            let gen = self.current.read();
            let (mut frozen, mut ti) = (Vec::new(), Vec::new());
            for run in &gen.frozen {
                run.for_each_run(|run| frozen.extend_from_slice(run));
            }
            for p in &gen.partitions {
                p.lock().run.for_each_run(|run| ti.extend_from_slice(run));
            }
            frozen.sort_unstable();
            ti.sort_unstable();
            let all = gen.ts.entries().iter().chain(&frozen).chain(&ti);
            all.copied().filter(|e| range.contains(e.key)).collect()
        }

        /// Partitions of the current generation whose run is a tree.
        fn promoted_partitions(&self) -> usize {
            let gen = self.current.read();
            gen.partitions
                .iter()
                .filter(|p| matches!(p.lock().run, Run::Tree(_)))
                .count()
        }
    }

    #[test]
    fn partition_header_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Partition>(), 64);
        assert_eq!(std::mem::align_of::<Partition>(), 64);
    }

    #[test]
    fn skewed_partition_is_promoted_and_uniform_ones_are_not() {
        // 64 partitions (fan-out 8, depth 2): filled uniformly, each ends a
        // generation with a quarter of `RUN_PROMOTE_LEN`.
        let w = 16 * RUN_PROMOTE_LEN;
        let t = PimTree::new(config(w, 1.0, 2));
        for i in 0..w as i64 {
            t.insert(i, i as Seq);
        }
        assert_eq!(
            t.promoted_partitions(),
            1,
            "before the first merge everything lands in the one partition"
        );
        t.merge(0);
        assert_eq!(t.partition_count(), 64);
        // Uniform: the keys TS was built on, once more, up to the threshold.
        for i in 0..w as i64 {
            t.insert(i, (w as i64 + i) as Seq);
        }
        assert!(t.needs_merge());
        assert_eq!(t.promoted_partitions(), 0, "uniform fill stays flat");
        t.merge(w as Seq);
        // Skew: every key beyond the largest one TS holds, so all of them
        // route to the last partition. Exactly at the constant it is still
        // flat; one more promotes it, and only it.
        let skewed = |n: usize| {
            for i in 0..n as i64 {
                t.insert(w as i64 + i, (2 * w as i64 + i) as Seq);
            }
        };
        skewed(RUN_PROMOTE_LEN);
        assert_eq!(t.promoted_partitions(), 0);
        t.insert(i64::MAX, 3 * w as Seq);
        assert_eq!(t.promoted_partitions(), 1);
        assert_eq!(t.ti_len(), RUN_PROMOTE_LEN + 1);
        let hist = t.insert_histogram();
        assert_eq!(
            hist.iter().sum::<u64>(),
            (2 * w + RUN_PROMOTE_LEN + 1) as u64
        );
        // The promoted run merges like any other.
        let report = t.merge(w as Seq);
        assert_eq!(report.from_ti, RUN_PROMOTE_LEN + 1);
        assert_eq!(t.promoted_partitions(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // four threads spinning on one partition
    fn skewed_inserts_race_probes_across_the_promotion() {
        // Empty TS: one partition takes every insert, from two threads,
        // while two more probe it; it is promoted a quarter of the way in.
        let n = 4 * RUN_PROMOTE_LEN as i64;
        let t = Arc::new(PimTree::new(config(n as usize, 1.0, 3)));
        let start = Arc::new(std::sync::Barrier::new(4));
        std::thread::scope(|scope| {
            for tid in 0..2i64 {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                scope.spawn(move || {
                    start.wait();
                    for i in (tid..n).step_by(2) {
                        // Duplicate keys, both domain edges included.
                        let key = match i % 7 {
                            0 => Key::MIN,
                            1 => Key::MAX,
                            _ => i % 50,
                        };
                        t.insert(key, i as Seq);
                    }
                });
            }
            for _ in 0..2 {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                scope.spawn(move || {
                    start.wait();
                    while t.ti_len() < n as usize {
                        let mut last = None;
                        t.range_for_each(KeyRange::new(Key::MIN, Key::MAX), |e| {
                            assert!(last <= Some(e), "probe saw {e:?} after {last:?}");
                            last = Some(e);
                        });
                    }
                });
            }
        });
        assert_eq!(t.partition_count(), 1);
        assert_eq!(t.promoted_partitions(), 1);
        let mut oracle: Vec<Entry> = (0..n)
            .map(|i| {
                let key = match i % 7 {
                    0 => Key::MIN,
                    1 => Key::MAX,
                    _ => i % 50,
                };
                Entry::new(key, i as Seq)
            })
            .collect();
        oracle.sort();
        let mut got = Vec::new();
        t.range_for_each(KeyRange::new(Key::MIN, Key::MAX), |e| got.push(e));
        assert_eq!(got, oracle);
        let mut edge = Vec::new();
        t.range_for_each(KeyRange::point(Key::MAX), |e| edge.push(e));
        assert_eq!(
            edge.len(),
            oracle.iter().filter(|e| e.key == Key::MAX).count()
        );
        assert_eq!(t.insert_histogram(), vec![n as u64]);
        let f = t.footprint();
        assert_eq!(f.entries, n as usize);
        assert!(
            f.ti_bytes >= n as usize * std::mem::size_of::<Entry>(),
            "a promoted run reports its leaves and its inner nodes"
        );
    }

    #[test]
    fn footprint_is_continuous_across_the_promotion() {
        let t = PimTree::new(config(4 * RUN_PROMOTE_LEN, 1.0, 2));
        let entry = std::mem::size_of::<Entry>();
        for i in 0..RUN_PROMOTE_LEN as i64 {
            t.insert(i, i as Seq);
        }
        let flat = t.footprint();
        assert_eq!(t.promoted_partitions(), 0);
        assert_eq!(flat.entries, RUN_PROMOTE_LEN);
        assert_eq!(flat.ti_bytes, RUN_PROMOTE_LEN * entry);
        t.insert(-1, RUN_PROMOTE_LEN as Seq);
        let tree = t.footprint();
        assert_eq!(t.promoted_partitions(), 1);
        assert_eq!(tree.entries, RUN_PROMOTE_LEN + 1);
        // Same leaves' worth of payload, plus the new inner nodes: at fan-out
        // 8 those are well under a third of the leaves.
        let leaves = (RUN_PROMOTE_LEN + 1) * entry;
        assert!(tree.ti_bytes > leaves && tree.ti_bytes < leaves + leaves / 3);
        assert_eq!(tree.merge_buffer_bytes, (RUN_PROMOTE_LEN + 1) * entry);
    }

    impl PimTree {
        /// Everything indexed, as the scalar probe delivers it.
        fn content(&self) -> Vec<Entry> {
            self.range_collect_live(KeyRange::new(Key::MIN, Key::MAX), 0)
        }

        /// `ranges` answered by the staged batch probe and one at a time by
        /// the scalar probe, both checked against brute force.
        fn assert_probes_match_brute_force(&self, ranges: &[KeyRange]) {
            let want: Vec<Vec<Entry>> = ranges.iter().map(|&r| self.brute_force(r)).collect();
            let mut counters = ProbeCounters::default();
            let mut batched = vec![Vec::new(); ranges.len()];
            self.probe_batch(ranges, &mut counters, |i, run| {
                batched[i].extend_from_slice(run)
            });
            assert_eq!(batched, want, "probe_batch");
            let scalar: Vec<Vec<Entry>> = ranges
                .iter()
                .map(|&r| self.range_collect_live(r, 0))
                .collect();
            assert_eq!(scalar, want, "range_runs");
        }
    }

    /// A merged tree over keys `0..w`, eight to a partition (64 partitions
    /// for `w = 512`, 128 for 1024), its mutable component empty.
    fn merged_tree(w: usize) -> PimTree {
        let t = PimTree::new(config(w, 1.0, 3));
        for i in 0..w as i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        t
    }

    /// A tree read back through `sorted_entries` — `TS`, one promoted
    /// partition and flat ones, duplicate keys and both domain edges — and
    /// bulk-built again by `from_sorted` holds the same entries, all of them
    /// in `TS` under the partition table a merge would fit, and answers
    /// every probe as brute force over the original does. So does an empty
    /// tree.
    #[test]
    fn sorted_entries_round_trip_through_from_sorted() {
        let w = 4 * RUN_PROMOTE_LEN;
        let cfg = config(w, 1.0, 2);
        let key_of = |seq: u64| -> Key {
            match seq % 7 {
                0 => Key::MIN,
                1 => Key::MAX,
                _ => (seq % 40) as Key,
            }
        };
        let t = PimTree::new(cfg);
        for seq in 0..w as u64 {
            t.insert(key_of(seq), seq);
        }
        t.merge(0);
        // `Key::MAX` routes past every other key: one partition outgrows a
        // flat run while the others stay flat.
        for seq in w as u64..(w + RUN_PROMOTE_LEN + 1) as u64 {
            t.insert(Key::MAX, seq);
        }
        for seq in (w + RUN_PROMOTE_LEN + 1) as u64..(w + RUN_PROMOTE_LEN + 65) as u64 {
            t.insert(key_of(seq), seq);
        }
        assert_eq!(t.promoted_partitions(), 1);
        let full = KeyRange::new(Key::MIN, Key::MAX);
        let ranges = [
            full,
            KeyRange::point(Key::MIN),
            KeyRange::point(Key::MAX),
            KeyRange::new(3, 17),
            KeyRange::new(39, Key::MAX - 1),
        ];
        let oracle = |range: KeyRange| {
            let mut want = t.brute_force(range);
            want.sort_unstable();
            want
        };
        let sorted = t.sorted_entries();
        assert_eq!(sorted, oracle(full));
        let built = PimTree::from_sorted(cfg, sorted);
        assert_eq!((built.ts_len(), built.ti_len()), (t.len(), 0));
        let gen = built.current.read();
        assert_eq!(built.partition_count(), gen.ts.nodes_at_depth(gen.depth));
        drop(gen);
        built.assert_probes_match_brute_force(&ranges);
        for &range in &ranges {
            assert_eq!(
                built.range_collect_live(range, 0),
                oracle(range),
                "{range:?}"
            );
        }

        let empty = PimTree::new(cfg);
        assert!(empty.sorted_entries().is_empty());
        let built = PimTree::from_sorted(cfg, Vec::new());
        assert!(built.is_empty());
        assert_eq!(built.partition_count(), 1);
        built.assert_probes_match_brute_force(&ranges);
    }

    /// Growth (the `TS`-less first generation, its one partition promoted),
    /// a steady state, and a shrink in which most entries expire: after
    /// every blocking merge the refitted table is sized to `TS`, empty,
    /// unpromoted, its counters folded, and the tree answers as brute force
    /// and as the live entries inserted so far do. A twin merged by
    /// `merge_concurrent` ends every merge as the same tree.
    #[test]
    fn repeated_blocking_merges_refit_the_table() {
        let w = 2048usize;
        let (t, twin) = (
            PimTree::new(config(w, 0.25, 2)),
            PimTree::new(config(w, 0.25, 2)),
        );
        let key_of = |seq: u64| -> Key {
            match seq % 11 {
                0 => Key::MIN,
                1 => Key::MAX,
                _ => (seq * 7919 % 3000) as Key,
            }
        };
        let ranges = [
            KeyRange::new(Key::MIN, Key::MAX),
            KeyRange::point(Key::MAX),
            KeyRange::new(0, 40),
            KeyRange::new(1000, 2600),
        ];
        let mut inserted: Vec<Entry> = Vec::new();
        let mut steady_partitions = 0;
        // (inserts before the merge, entries it keeps live): phase 0 fills
        // the `TS`-less generation, 1-5 slide the window, 6 shrinks it.
        let phases = [(512, w); 6].into_iter().chain([(64, 64)]);
        for (i, (n, live)) in phases.enumerate() {
            let from = inserted.len() as u64;
            for seq in from..from + n as u64 {
                t.insert(key_of(seq), seq);
                twin.insert(key_of(seq), seq);
                inserted.push(Entry::new(key_of(seq), seq));
            }
            assert_eq!(t.promoted_partitions(), usize::from(i == 0), "phase {i}");
            t.assert_probes_match_brute_force(&ranges);
            let earliest = (inserted.len() - live.min(inserted.len())) as Seq;
            let (ts_len, ti_len) = (t.ts_len(), t.ti_len());
            let report = t.merge(earliest);
            let twin_report = twin.merge_concurrent(earliest);
            assert_eq!(
                report.kept_from_ts + report.dropped_expired + report.from_ti,
                ts_len + ti_len
            );
            assert_eq!(
                MergeReport {
                    duration: report.duration,
                    ..twin_report
                },
                report
            );

            let gen = t.current.read();
            assert_eq!(gen.partitions.len(), gen.ts.nodes_at_depth(gen.depth));
            drop(gen);
            assert_eq!(report.partitions, t.partition_count(), "phase {i}");
            assert_eq!(t.ti_len(), 0);
            assert_eq!(t.promoted_partitions(), 0);
            assert_eq!(
                t.insert_histogram().iter().sum::<u64>(),
                inserted.len() as u64
            );
            let mut live: Vec<Entry> = inserted
                .iter()
                .copied()
                .filter(|e| e.seq >= earliest)
                .collect();
            live.sort_unstable();
            assert_eq!(t.content(), live, "phase {i}");
            t.assert_probes_match_brute_force(&ranges);

            assert_eq!(twin.content(), live);
            assert_eq!(twin.partition_count(), t.partition_count());
            assert_eq!(twin.effective_depth(), t.effective_depth());
            assert_eq!(twin.ti_len(), 0);
            assert_eq!(twin.insert_histogram(), t.insert_histogram());
            steady_partitions = steady_partitions.max(t.partition_count());
        }
        assert!(
            t.partition_count() < steady_partitions,
            "the shrink refits to fewer partitions: {} of {steady_partitions}",
            t.partition_count()
        );
    }

    #[test]
    fn batches_around_the_stage_width_match_single_inserts_and_probes() {
        // One fewer than, exactly, and one more than a stage holds: the
        // chunked walk neither drops nor repeats an entry or a partition.
        for n in [STAGE_WIDTH - 1, STAGE_WIDTH, STAGE_WIDTH + 1] {
            let (staged, single) = (merged_tree(1024), merged_tree(1024));
            assert!(staged.partition_count() > STAGE_WIDTH + 1);
            // One entry per partition and then some, so that a stage is full
            // of distinct partitions; key 3 three times over.
            let entries: Vec<(Key, Seq)> = (0..n as i64)
                .map(|i| (if i % 5 == 0 { 3 } else { i * 61 % 1024 }, 5000 + i as Seq))
                .collect();
            assert!(!staged.insert_batch(&entries));
            for &(key, seq) in &entries {
                single.insert(key, seq);
            }
            assert_eq!(staged.ti_len(), n);
            assert_eq!(staged.content(), single.content(), "{n} entries");
            assert_eq!(staged.insert_histogram(), single.insert_histogram());
            // As many disjoint ranges, each in a partition of its own.
            let ranges: Vec<KeyRange> = (0..n as i64)
                .map(|i| KeyRange::new(i * 61 % 1024, i * 61 % 1024 + 2))
                .collect();
            staged.assert_probes_match_brute_force(&ranges);
        }
    }

    #[test]
    fn insert_batch_reports_reaching_the_merge_threshold() {
        let t = PimTree::new(config(64, 0.5, 2));
        assert_eq!(t.config().merge_threshold(), 32);
        assert!(!t.insert_batch(&[]));
        let batch = |from: u64, n: u64| -> Vec<(Key, Seq)> {
            (from..from + n).map(|i| (i as Key % 7, i)).collect()
        };
        assert!(!t.insert_batch(&batch(0, 30)));
        assert!(!t.insert_batch(&batch(30, 1)), "31 of 32");
        assert!(!t.needs_merge());
        assert!(t.insert_batch(&batch(31, 1)), "a batch of one reaches it");
        assert!(t.needs_merge());
        assert!(
            t.insert_batch(&batch(32, 3)),
            "and every batch past it says so"
        );
        t.merge(0);
        assert!(!t.insert_batch(&batch(35, 31)));
        assert!(
            t.insert_batch(&batch(66, 17)),
            "crossed in the middle of a batch"
        );
        assert_eq!(t.len(), 35 + 31 + 17);
    }

    #[test]
    fn peek_reads_the_hint_under_a_held_lock_and_none_for_a_promoted_run() {
        let t = merged_tree(512);
        t.insert(5, 1000);
        let gen = t.current.read();
        let hot = gen.route(Entry::new(5, 1000));
        let flat_run = |p: usize| match &gen.partitions[p].lock().run {
            Run::Flat(run) => run.as_ptr_range(),
            Run::Tree(_) => unreachable!("flat until promoted"),
        };
        let run = gen.partitions[hot].peek_run().expect("a flat run of one");
        assert_eq!(run, flat_run(hot), "the hint mirrors the run");
        assert!(
            gen.partitions[hot + 1].peek_run().is_none(),
            "an empty run: no peek"
        );
        {
            let _held = gen.partitions[hot].lock();
            // The hint is no lock: a held partition still reports its run.
            assert_eq!(gen.partitions[hot].peek_run(), Some(run), "held");
            // A staged walk over the other partitions goes on regardless.
            gen.insert_staged(&[(400, 1001), (511, 1002), (401, 1003)], 8);
            let mut pairs = vec![(hot + 1, 0), (gen.partitions.len() - 1, 0)];
            let mut seen = 0;
            visit_partitions(
                &gen,
                &mut pairs,
                &[KeyRange::new(Key::MIN, Key::MAX)],
                &mut ProbeCounters::default(),
                |_, _| seen += 1,
            );
            assert_eq!(seen, 1, "key 511 in the last partition");
        }
        let last = gen.partitions.len() - 1;
        assert_eq!(gen.partitions[last].peek_run(), Some(flat_run(last)));
        for i in 0..RUN_PROMOTE_LEN as u64 {
            gen.insert(Entry::new(5, 2000 + i), 8);
        }
        assert!(matches!(gen.partitions[hot].lock().run, Run::Tree(_)));
        assert!(
            gen.partitions[hot].peek_run().is_none(),
            "promoted: no peek"
        );
        drop(gen);
        t.merge(0);
        let gen = t.current.read();
        assert!(
            gen.partitions.iter().all(|p| p.peek_run().is_none()),
            "a merge resets every partition, and its hint with it"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)] // four busy threads; the peek itself is covered above
    fn batch_inserts_race_batch_probes_past_a_held_partition_lock() {
        // Two threads insert and two probe, all through the batch entry
        // points, on keys that mostly hit one partition of 128 — while a fifth
        // thread holds that partition's lock when they start and lets go
        // only after every one of them has entered its first batch, whose
        // peek therefore reads the hint of a locked partition.
        const PER_THREAD: usize = 3000;
        let t = merged_tree(1024);
        let key_of = |i: usize| -> Key {
            match i % 10 {
                0 => Key::MIN,
                1 => Key::MAX,
                2 | 3 => (i * 37 % 1024) as Key,
                _ => (i % 6) as Key,
            }
        };
        let entry_of = |i: usize| (key_of(i), (1024 + i) as Seq);
        let hot = t.current.read().route(Entry::min_for_key(0));
        let entered = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let gen = t.current.read();
                let held = gen.partitions[hot].lock();
                start.wait();
                while entered.load(Ordering::Acquire) < 4 {
                    std::thread::yield_now();
                }
                // Give the last one in time to reach its peek: work on other
                // partitions, not a sleep.
                for p in &gen.partitions[hot + 1..] {
                    let _ = p.peek_run();
                }
                drop(held);
            });
            for tid in 0..2 {
                let (t, start, entered) = (&t, &start, &entered);
                scope.spawn(move || {
                    start.wait();
                    entered.fetch_add(1, Ordering::Release);
                    let mine: Vec<(Key, Seq)> =
                        (0..PER_THREAD).map(|i| entry_of(2 * i + tid)).collect();
                    // Batches of 1, 2, ... 19 entries, over and over.
                    let mut rest = &mine[..];
                    let mut n = 1;
                    while !rest.is_empty() {
                        let (batch, tail) = rest.split_at(n.min(rest.len()));
                        t.insert_batch(batch);
                        rest = tail;
                        n = n % 19 + 1;
                    }
                });
            }
            for tid in 0..2usize {
                let (t, start, entered) = (&t, &start, &entered);
                scope.spawn(move || {
                    start.wait();
                    entered.fetch_add(1, Ordering::Release);
                    let ranges = [
                        KeyRange::new(0, 5),
                        KeyRange::new(Key::MIN, 3),
                        KeyRange::new(1000, Key::MAX),
                        KeyRange::new(0, 5),
                        KeyRange::new(2, 700),
                    ];
                    let mut counters = ProbeCounters::default();
                    let mut got = vec![Vec::new(); ranges.len()];
                    while t.ti_len() < 2 * PER_THREAD {
                        got.iter_mut().for_each(Vec::clear);
                        let mut emit = |i: usize, run: &[Entry]| got[i].extend_from_slice(run);
                        if tid == 0 {
                            t.probe_batch(&ranges, &mut counters, &mut emit);
                        } else {
                            // One range at a time: the scalar descent.
                            for (i, range) in ranges.iter().enumerate() {
                                t.probe_batch(
                                    std::slice::from_ref(range),
                                    &mut counters,
                                    |_, run| emit(i, run),
                                );
                            }
                        }
                        for (range, entries) in ranges.iter().zip(&mut got) {
                            assert!(entries.iter().all(|e| range.contains(e.key)));
                            // TS is ascending, and so is TI after it.
                            let ti = entries.iter().position(|e| e.seq >= 1024);
                            let (ts, ti) = entries.split_at(ti.unwrap_or(entries.len()));
                            assert!(ts.windows(2).all(|w| w[0] < w[1]), "{range:?}");
                            assert!(ti.windows(2).all(|w| w[0] < w[1]), "{range:?}");
                        }
                    }
                });
            }
        });
        let mut oracle: Vec<Entry> = (0..1024)
            .map(|i| Entry::new(i as Key, i as Seq))
            .chain((0..2 * PER_THREAD).map(|i| Entry::new(key_of(i), (1024 + i) as Seq)))
            .collect();
        let mut got = t.content();
        oracle.sort();
        got.sort();
        assert_eq!(got, oracle);
        assert_eq!(t.ti_len(), 2 * PER_THREAD);
        let hist = t.insert_histogram();
        assert_eq!(hist.iter().sum::<u64>(), (1024 + 2 * PER_THREAD) as u64);
        assert!(
            hist[hot] as usize > PER_THREAD,
            "the held partition is the hot one"
        );
        assert!(t.promoted_partitions() >= 1);
        t.assert_probes_match_brute_force(&[
            KeyRange::new(Key::MIN, Key::MAX),
            KeyRange::point(Key::MAX),
            KeyRange::new(0, 5),
        ]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // five busy threads; the hint itself is covered above
    fn staged_inserts_promotions_and_merges_race_batch_probes() {
        // Two threads insert through the staged batch path, mostly into one
        // partition so that its run is promoted between merges; a third
        // merges every `MERGE_EVERY` inserts; two probe in batches, one
        // sorted by key and one not. Every probe must find each entry that
        // was inserted before it started, every entry it reports must have
        // been inserted, and each entry comes once: the lock-free hints,
        // read while runs grow, promote and reset, only ever prefetch. The
        // inserters never run more than two intervals past the last merge,
        // so the merges race them however the threads are scheduled.
        const PER_THREAD: usize = 4000;
        const MERGE_EVERY: usize = 1500;
        let t = merged_tree(1024);
        let key_of = |i: usize| -> Key {
            match i % 8 {
                0 => Key::MIN,
                1 => Key::MAX,
                2 | 3 => (i * 37 % 1100) as Key,
                _ => 3,
            }
        };
        // Thread `tid`'s `i`-th entry.
        let entry_of =
            |tid: usize, i: usize| Entry::new(key_of(2 * i + tid), (1024 + 2 * i + tid) as Seq);
        let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let (merges, promoted) = (AtomicUsize::new(0), AtomicUsize::new(0));
        // Inserts counted when the last merge started.
        let merged_at = AtomicUsize::new(0);
        let inserted = || -> usize { done.iter().map(|d| d.load(Ordering::Acquire)).sum() };
        let finished = || done.iter().all(|d| d.load(Ordering::Acquire) == PER_THREAD);
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let (t, done, merged_at, inserted) = (&t, &done, &merged_at, &inserted);
                scope.spawn(move || {
                    let mine: Vec<(Key, Seq)> = (0..PER_THREAD)
                        .map(|i| entry_of(tid, i))
                        .map(|e| (e.key, e.seq))
                        .collect();
                    let (mut at, mut n) = (0, 2);
                    while at < PER_THREAD {
                        while inserted() >= merged_at.load(Ordering::Acquire) + 2 * MERGE_EVERY {
                            std::thread::yield_now();
                        }
                        let end = (at + n).min(PER_THREAD);
                        t.insert_batch(&mine[at..end]);
                        done[tid].store(end, Ordering::Release);
                        at = end;
                        n = n % 23 + 2;
                    }
                });
            }
            scope.spawn(|| {
                let mut next = MERGE_EVERY;
                while !finished() {
                    let inserted = inserted();
                    if inserted < next {
                        std::thread::yield_now();
                        continue;
                    }
                    promoted.fetch_max(t.promoted_partitions(), Ordering::Relaxed);
                    t.merge(0);
                    merges.fetch_add(1, Ordering::Relaxed);
                    merged_at.store(inserted, Ordering::Release);
                    next = inserted + MERGE_EVERY;
                }
            });
            for sorted in [true, false] {
                let (t, done, finished) = (&t, &done, &finished);
                scope.spawn(move || {
                    let mut ranges = vec![
                        KeyRange::new(Key::MIN, 2),
                        KeyRange::new(0, 5),
                        KeyRange::new(3, 3),
                        KeyRange::new(2, 700),
                        KeyRange::new(1000, Key::MAX),
                    ];
                    if !sorted {
                        ranges.reverse();
                    }
                    let mut counters = ProbeCounters::default();
                    let mut got = vec![Vec::new(); ranges.len()];
                    loop {
                        // The last round starts after every insert: it probes
                        // the final state too.
                        let last = finished();
                        let seen = [0, 1].map(|tid| done[tid].load(Ordering::Acquire));
                        got.iter_mut().for_each(Vec::clear);
                        t.probe_batch(&ranges, &mut counters, |i, run| {
                            got[i].extend_from_slice(run)
                        });
                        for (range, got) in ranges.iter().zip(&mut got) {
                            got.sort_unstable();
                            assert!(got.windows(2).all(|w| w[0] < w[1]), "{range:?}: twice");
                            let known = |e: &Entry| match e.seq.checked_sub(1024) {
                                None => e.key == e.seq as Key,
                                Some(i) => {
                                    let i = i as usize;
                                    i / 2 < PER_THREAD && entry_of(i % 2, i / 2) == *e
                                }
                            };
                            assert!(got.iter().all(|e| range.contains(e.key) && known(e)));
                            let expected =
                                (0..1024)
                                    .map(|i| Entry::new(i as Key, i as Seq))
                                    .chain((0..2).flat_map(|tid| {
                                        (0..seen[tid]).map(move |i| entry_of(tid, i))
                                    }))
                                    .filter(|e| range.contains(e.key));
                            for e in expected {
                                assert!(got.binary_search(&e).is_ok(), "{range:?}: {e:?} missing");
                            }
                        }
                        if last {
                            break;
                        }
                    }
                });
            }
        });
        assert!(
            merges.load(Ordering::Relaxed) >= 2,
            "merges raced the probes"
        );
        assert!(
            promoted.load(Ordering::Relaxed) >= 1,
            "a run was promoted between merges"
        );
        let mut oracle: Vec<Entry> = (0..1024)
            .map(|i| Entry::new(i as Key, i as Seq))
            .chain((0..2).flat_map(|tid| (0..PER_THREAD).map(move |i| entry_of(tid, i))))
            .collect();
        let mut got = t.content();
        oracle.sort();
        got.sort();
        assert_eq!(got, oracle);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // four busy threads; the steps are covered above
    fn concurrent_merges_take_inserts_and_batch_probes() {
        // Three threads insert through the batch path and probe in batches
        // after every other insert, while the test thread runs concurrent
        // merges back to back until they are done. Every probe finds each
        // entry inserted before it started — in `TS`, the frozen table or the
        // fresh one — exactly once, and reports nothing that was not
        // inserted; after the last install every entry is there once and the
        // histogram has counted every insert.
        const THREADS: usize = 3;
        const PER_THREAD: usize = 2000;
        let t = merged_tree(1024);
        let key_of = |i: usize| -> Key {
            match i % 9 {
                0 => Key::MIN,
                1 => Key::MAX,
                2..=4 => 7,
                _ => (i * 37 % 1100) as Key,
            }
        };
        // Thread `tid`'s `i`-th entry.
        let entry_of = |tid: usize, i: usize| {
            let n = THREADS * i + tid;
            Entry::new(key_of(n), (1024 + n) as Seq)
        };
        let done: [AtomicUsize; THREADS] = Default::default();
        // Probes that found a frozen table: the merges did overlap.
        let during = AtomicUsize::new(0);
        let mut merges = 0;
        std::thread::scope(|scope| {
            let inserters: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let (t, done, during) = (&t, &done, &during);
                    scope.spawn(move || {
                        let mine: Vec<(Key, Seq)> = (0..PER_THREAD)
                            .map(|i| entry_of(tid, i))
                            .map(|e| (e.key, e.seq))
                            .collect();
                        let ranges = [
                            KeyRange::new(Key::MIN, 6),
                            KeyRange::point(7),
                            KeyRange::new(5, 600),
                            KeyRange::new(1000, Key::MAX),
                        ];
                        let mut counters = ProbeCounters::default();
                        let mut got = vec![Vec::new(); ranges.len()];
                        let (mut at, mut n) = (0, 1);
                        while at < PER_THREAD {
                            let end = (at + n).min(PER_THREAD);
                            t.insert_batch(&mine[at..end]);
                            done[tid].store(end, Ordering::Release);
                            at = end;
                            n = n % 17 + 1;
                            if n % 2 == 1 {
                                continue;
                            }
                            let seen = done.each_ref().map(|d| d.load(Ordering::Acquire));
                            if t.current.read().frozen_len > 0 {
                                during.fetch_add(1, Ordering::Relaxed);
                            }
                            got.iter_mut().for_each(Vec::clear);
                            t.probe_batch(&ranges, &mut counters, |i, run| {
                                got[i].extend_from_slice(run)
                            });
                            for (range, got) in ranges.iter().zip(&mut got) {
                                got.sort_unstable();
                                assert!(got.windows(2).all(|w| w[0] < w[1]), "{range:?}: twice");
                                let known = |e: &Entry| match e.seq.checked_sub(1024) {
                                    None => e.key == e.seq as Key,
                                    Some(n) => {
                                        let n = n as usize;
                                        n / THREADS < PER_THREAD
                                            && entry_of(n % THREADS, n / THREADS) == *e
                                    }
                                };
                                assert!(got.iter().all(|e| range.contains(e.key) && known(e)));
                                let expected = (0..1024)
                                    .map(|i| Entry::new(i as Key, i as Seq))
                                    .chain((0..THREADS).flat_map(|tid| {
                                        (0..seen[tid]).map(move |i| entry_of(tid, i))
                                    }))
                                    .filter(|e| range.contains(e.key));
                                for e in expected {
                                    assert!(
                                        got.binary_search(&e).is_ok(),
                                        "{range:?}: {e:?} missing"
                                    );
                                }
                            }
                        }
                    })
                })
                .collect();
            // Until every inserter has ended, by finishing or by a failed
            // assertion, which the scope then raises.
            while inserters.iter().any(|h| !h.is_finished()) {
                let report = t.merge_concurrent(0);
                assert_eq!(report.partitions, t.partition_count());
                merges += 1;
            }
        });
        assert!(merges >= 2, "merges raced the inserts");
        assert!(
            during.load(Ordering::Relaxed) > 0,
            "no probe ran during a merge"
        );
        let total = 1024 + THREADS * PER_THREAD;
        let oracle: std::collections::BTreeSet<Entry> = (0..1024)
            .map(|i| Entry::new(i as Key, i as Seq))
            .chain((0..THREADS).flat_map(|tid| (0..PER_THREAD).map(move |i| entry_of(tid, i))))
            .collect();
        let mut got = t.content();
        got.sort_unstable();
        assert_eq!(got, oracle.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.len(), total);
        assert_eq!(t.insert_histogram().iter().sum::<u64>(), total as u64);
        t.assert_probes_match_brute_force(&[KeyRange::new(Key::MIN, Key::MAX), KeyRange::point(7)]);
        // A last merge with a horizon: the tree's first 1 024 entries expire.
        t.merge_concurrent(1024);
        assert_eq!(t.len(), total - 1024);
        assert_eq!(t.ti_len(), 0);
    }

    mod staging_properties {
        use super::*;
        use proptest::prelude::*;

        fn key() -> impl Strategy<Value = Key> {
            // Both ends of the domain, keys inside one partition of the
            // merged tree (0..512, eight to a partition), keys spread over it and
            // keys past its end, all of them repeated often.
            prop::sample::select(vec![
                Key::MIN,
                Key::MIN + 1,
                -1,
                0,
                1,
                2,
                3,
                64,
                65,
                200,
                511,
                512,
                9999,
                Key::MAX - 1,
                Key::MAX,
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whatever the batch sizes, staged inserts leave the tree as the
            /// same entries inserted one at a time do, and the staged batch
            /// and scalar probes answer as brute force does — with or without a
            /// populated `TS`, on either side of a run's promotion and
            /// across it in the middle of a batch.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn staged_batches_match_one_at_a_time(
                populated_ts in prop::bool::ANY,
                // Entries already in the one partition all of `hot` goes to.
                prefill in prop::sample::select(vec![0usize, RUN_PROMOTE_LEN - 9, RUN_PROMOTE_LEN]),
                hot in prop::sample::select(vec![Key::MIN, 2, Key::MAX]),
                sizes in prop::collection::vec(
                    prop::sample::select(vec![0usize, 1, 2, 16, 17, 40]),
                    1..5,
                ),
                keys in prop::collection::vec(key(), 160..161),
                bands in prop::collection::vec((key(), key()), 0..24),
            ) {
                let make = || if populated_ts {
                    merged_tree(512)
                } else {
                    PimTree::new(config(512, 1.0, 2))
                };
                let (staged, single) = (make(), make());
                let mut seq: Seq = 512;
                for _ in 0..prefill {
                    staged.insert(hot, seq);
                    single.insert(hot, seq);
                    seq += 1;
                }
                let mut keys = keys.into_iter();
                for n in sizes {
                    let batch: Vec<(Key, Seq)> = keys
                        .by_ref()
                        .take(n)
                        .map(|k| {
                            seq += 1;
                            (k, seq)
                        })
                        .collect();
                    let due = staged.insert_batch(&batch);
                    for &(k, s) in &batch {
                        single.insert(k, s);
                    }
                    prop_assert_eq!(due, single.needs_merge());
                    prop_assert_eq!(staged.ti_len(), single.ti_len());
                }
                prop_assert_eq!(staged.content(), single.content());
                prop_assert_eq!(staged.insert_histogram(), single.insert_histogram());
                prop_assert_eq!(staged.promoted_partitions(), single.promoted_partitions());
                let ranges: Vec<KeyRange> = bands
                    .into_iter()
                    .map(|(a, b)| KeyRange::new(a.min(b), a.max(b)))
                    .collect();
                staged.assert_probes_match_brute_force(&ranges);
            }
        }
    }

    mod run_emission_properties {
        use super::*;
        use proptest::prelude::*;

        /// Both ends of the domain and a dense middle; `distinct` below cuts
        /// the list down to its first few, so most entries duplicate a key.
        const KEYS: [Key; 12] = [
            2,
            Key::MAX,
            Key::MIN,
            0,
            1,
            3,
            64,
            65,
            511,
            -1,
            Key::MIN + 1,
            Key::MAX - 1,
        ];

        /// "Runs ≡ entries" for one range: every run is non-empty, sorted
        /// by `(key, seq)` and inside the range, and concatenated the runs
        /// are exactly `want`.
        fn check_runs(what: &str, range: KeyRange, runs: &[Vec<Entry>], want: &[Entry]) {
            for run in runs {
                assert!(!run.is_empty(), "{what} {range:?}: empty run");
                assert!(
                    run.windows(2).all(|w| w[0] < w[1]),
                    "{what} {range:?}: unsorted run {run:?}"
                );
                assert!(
                    run.iter().all(|e| range.contains(e.key)),
                    "{what} {range:?}: run outside the range {run:?}"
                );
            }
            let got = runs.concat();
            let differ = got.iter().zip(want).position(|(g, w)| g != w);
            assert!(
                got == want,
                "{what} {range:?}: {} entries in {} runs, want {}, first difference at {:?}",
                got.len(),
                runs.len(),
                want.len(),
                differ.unwrap_or(got.len().min(want.len()))
            );
        }

        fn in_range(sorted: &[Entry], range: KeyRange) -> Vec<Entry> {
            sorted
                .iter()
                .copied()
                .filter(|e| range.contains(e.key))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every structure that emits runs answers a range with exactly
            /// the entries a sorted array filtered by key holds: the B+-Tree
            /// (a run per leaf), the CSS-Tree (one slice), a partition's run
            /// on either side of its promotion and across it, and the
            /// PIM-Tree through each probe entry point — `TS`'s entries, then
            /// `TI`'s — for a batch of one, duplicate ranges and batches
            /// around the stage width.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn runs_equal_entries(
                draws in prop::collection::vec(0usize..KEYS.len(), 304..305),
                distinct in prop::sample::select(vec![1usize, 3, KEYS.len()]),
                // Entries in the B+-Tree, the CSS-Tree and the run; the run
                // takes two more afterwards.
                n in prop::sample::select(vec![
                    0usize,
                    5,
                    RUN_PROMOTE_LEN - 1,
                    RUN_PROMOTE_LEN,
                    RUN_PROMOTE_LEN + 46,
                ]),
                // The PIM-Tree's split: merged into `TS`, then left in `TI`
                // (with an empty `TS` one partition takes it all, promoted
                // past `RUN_PROMOTE_LEN`).
                split in prop::sample::select(vec![(0usize, 40usize), (0, 300), (200, 100), (302, 0)]),
                bands in prop::collection::vec((0usize..KEYS.len(), 0usize..KEYS.len()), 1..20),
            ) {
                let entries: Vec<Entry> = draws
                    .iter()
                    .enumerate()
                    .map(|(seq, &d)| Entry::new(KEYS[d % distinct], seq as Seq))
                    .collect();
                let mut ranges: Vec<KeyRange> = bands
                    .iter()
                    .map(|&(a, b)| KeyRange::new(KEYS[a].min(KEYS[b]), KEYS[a].max(KEYS[b])))
                    .collect();
                ranges.push(KeyRange::new(Key::MIN, Key::MAX));
                let sorted = |entries: &[Entry]| {
                    let mut v = entries.to_vec();
                    v.sort_unstable();
                    v
                };

                // B+-Tree, CSS-Tree and a partition's run over `entries[..n]`.
                let fanout = 4;
                let mut tree = BTreeIndex::with_fanout(fanout);
                let mut run = Run::Flat(Vec::new());
                for &e in &entries[..n] {
                    tree.insert_entry(e);
                    run.insert(e, 4, fanout);
                }
                let oracle = sorted(&entries[..n]);
                let css = pimtree_css::CssBuilder::new()
                    .fanout(2)
                    .leaf_size(4)
                    .build(oracle.clone());
                let run_runs = |run: &Run, range| {
                    let mut runs = Vec::new();
                    run.range_runs(range, |r| runs.push(r.to_vec()));
                    runs
                };
                for &range in &ranges {
                    let want = in_range(&oracle, range);
                    let mut runs = Vec::new();
                    tree.range_runs(range, |r| runs.push(r.to_vec()));
                    prop_assert!(runs.iter().all(|r| r.len() <= fanout), "a run per leaf");
                    check_runs("BTreeIndex", range, &runs, &want);
                    let css_run = css.range_run(range).to_vec();
                    let css_runs = if css_run.is_empty() { vec![] } else { vec![css_run] };
                    check_runs("CssTree", range, &css_runs, &want);
                    check_runs("Run", range, &run_runs(&run, range), &want);
                }
                for &e in &entries[n..n + 2] {
                    run.insert(e, 4, fanout);
                }
                prop_assert_eq!(matches!(run, Run::Tree(_)), n + 2 > RUN_PROMOTE_LEN);
                let oracle = sorted(&entries[..n + 2]);
                for &range in &ranges {
                    check_runs("Run + 2", range, &run_runs(&run, range), &in_range(&oracle, range));
                }

                // PIM-Tree: `TS`'s entries first, then `TI`'s.
                let (ts_n, ti_n) = split;
                let t = PimTree::new(config(512, 1.0, 2));
                for e in &entries[..ts_n] {
                    t.insert(e.key, e.seq);
                }
                if ts_n > 0 {
                    t.merge(0);
                }
                for e in &entries[ts_n..ts_n + ti_n] {
                    t.insert(e.key, e.seq);
                }
                prop_assert_eq!((t.ts_len(), t.ti_len()), split);
                let (ts, ti) = (sorted(&entries[..ts_n]), sorted(&entries[ts_n..ts_n + ti_n]));
                let want: Vec<Vec<Entry>> = ranges
                    .iter()
                    .map(|&r| [in_range(&ts, r), in_range(&ti, r)].concat())
                    .collect();
                let mut counters = ProbeCounters::default();
                let batched = |batch: &[KeyRange], counters: &mut ProbeCounters| {
                    let mut runs = vec![Vec::new(); batch.len()];
                    t.probe_batch(batch, counters, |i, r| runs[i].push(r.to_vec()));
                    runs
                };
                let whole = batched(&ranges, &mut counters);
                for (i, &range) in ranges.iter().enumerate() {
                    let mut runs = Vec::new();
                    t.range_runs(range, |r| runs.push(r.to_vec()));
                    check_runs("range_runs", range, &runs, &want[i]);
                    let mut one_by_one = Vec::new();
                    t.range_for_each(range, |e| one_by_one.push(e));
                    prop_assert_eq!(&one_by_one, &want[i], "range_for_each {:?}", range);
                    check_runs("probe_batch", range, &whole[i], &want[i]);
                    let one = std::slice::from_ref(&range);
                    check_runs("probe_batch of one", range, &batched(one, &mut counters)[0], &want[i]);
                }
            }
        }
    }

    mod descent_properties {
        use super::*;
        use proptest::prelude::*;

        /// Both ends of the domain and a few keys between them; `distinct`
        /// below cuts the list down to its first few, so most entries share a
        /// key, and at 1 every key is the same.
        const KEYS: [Key; 8] = [7, Key::MAX, Key::MIN, 0, 8, -5, 100, Key::MAX - 1];

        /// A tree of `fanout`-wide, `leaf`-entry CSS nodes at insertion
        /// depth `depth`, whose `TS` holds `ts` and whose `TI` holds `ti`.
        fn tree_of(
            fanout: usize,
            leaf: usize,
            depth: usize,
            ts: &[Entry],
            ti: &[Entry],
        ) -> PimTree {
            let mut c = PimConfig::for_window(4096).with_insertion_depth(depth);
            c.css_fanout = fanout;
            c.css_leaf_size = leaf;
            c.btree_fanout = 8;
            let t = PimTree::new(c);
            for e in ts {
                t.insert(e.key, e.seq);
            }
            if !ts.is_empty() {
                t.merge(0);
            }
            for e in ti {
                t.insert(e.key, e.seq);
            }
            t
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// One descent per probe names every partition the scalar route
            /// would: at every insertion depth from 0 to 4 on trees of 0 to 4
            /// inner levels and fan-out 2 to 4 — so also with the partitions
            /// above the leaf groups, which the benchmark never builds — over
            /// duplicate keys, `Key::MIN` and `Key::MAX`, and ranges that end
            /// past the last leaf group. The derived first partition is the
            /// route of `range.lo`, the last one the route of the first key
            /// past the range (never short of the route of `range.hi`, never
            /// a leaf group beyond it), and every probe entry point answers
            /// as a sorted array filtered by key does.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn one_descent_finds_the_partitions_the_route_does(
                draws in prop::collection::vec(0usize..KEYS.len(), 808..809),
                distinct in prop::sample::select(vec![1usize, 2, KEYS.len()]),
                leaf in 1usize..4,
                // Where in the band of sizes that have the wanted height the
                // `TS` size falls.
                size in 0usize..1 << 16,
                ti_n in prop::sample::select(vec![0usize, 1, 9, 40]),
                bands in prop::collection::vec((0usize..KEYS.len(), 0usize..KEYS.len()), 1..10),
            ) {
                let entries: Vec<Entry> = draws
                    .iter()
                    .enumerate()
                    .map(|(seq, &d)| Entry::new(KEYS[d % distinct], seq as Seq))
                    .collect();
                let mut ranges: Vec<KeyRange> = bands
                    .iter()
                    .map(|&(a, b)| KeyRange::new(KEYS[a].min(KEYS[b]), KEYS[a].max(KEYS[b])))
                    .collect();
                ranges.extend([
                    KeyRange::new(Key::MIN, Key::MAX),
                    KeyRange::point(Key::MAX),
                    KeyRange::point(Key::MIN),
                    KeyRange::new(KEYS[distinct - 1].saturating_add(1), Key::MAX),
                ]);
                let in_range = |sorted: &[Entry], range: KeyRange| -> Vec<Entry> {
                    sorted.iter().copied().filter(|e| range.contains(e.key)).collect()
                };
                for fanout in 2..=4usize {
                    for levels in 0..=4u32 {
                        // Leaf groups that need exactly `levels` inner levels,
                        // and the entries that make that many groups.
                        let groups = if levels == 0 {
                            1
                        } else {
                            let (lo, hi) = (fanout.pow(levels - 1) + 1, fanout.pow(levels));
                            lo + size % (hi - lo + 1)
                        };
                        let ts_n = (groups - 1) * leaf + 1 + size % leaf;
                        let (ts, ti) = entries[..ts_n + ti_n].split_at(ts_n);
                        let mut ts_sorted = ts.to_vec();
                        ts_sorted.sort_unstable();
                        let mut ti_sorted = ti.to_vec();
                        ti_sorted.sort_unstable();
                        for depth in 0..=4 {
                            let mut t = tree_of(fanout, leaf, depth, ts, ti);
                            let what = format!("fan-out {fanout}, leaf {leaf}, {levels} levels, depth {depth}");
                            let gen = t.current.read();
                            prop_assert_eq!(gen.ts.inner_levels(), levels as usize, "{}", what);
                            prop_assert_eq!(gen.depth, depth.min(levels as usize));
                            for &range in &ranges {
                                let (run, span) = gen.locate(range);
                                prop_assert_eq!(run, &in_range(&ts_sorted, range)[..], "{} {:?}", what, range);
                                let route = |e| gen.route(e);
                                let past = range.hi.checked_add(1).map_or(Entry::max_for_key(Key::MAX), Entry::min_for_key);
                                prop_assert_eq!(*span.start(), route(Entry::min_for_key(range.lo)), "{} {:?}", what, range);
                                prop_assert!(*span.end() >= route(Entry::max_for_key(range.hi)), "{} {:?}", what, range);
                                prop_assert_eq!(*span.end(), route(past), "{} {:?}", what, range);
                            }
                            drop(gen);
                            let want: Vec<Vec<Entry>> = ranges
                                .iter()
                                .map(|&r| [in_range(&ts_sorted, r), in_range(&ti_sorted, r)].concat())
                                .collect();
                            let mut counters = ProbeCounters::default();
                            let mut batched = vec![Vec::new(); ranges.len()];
                            t.probe_batch(&ranges, &mut counters, |i, run| batched[i].extend_from_slice(run));
                            prop_assert_eq!(&batched, &want, "probe_batch, {}", what);
                            for (&range, want) in ranges.iter().zip(&want) {
                                let mut one = Vec::new();
                                t.range_runs(range, |run| one.extend_from_slice(run));
                                prop_assert_eq!(&one, want, "range_runs, {} {:?}", what, range);
                                let timed = t.probe_with_breakdown(range, &mut CostBreakdown::new());
                                prop_assert_eq!(&timed, want, "probe_with_breakdown, {} {:?}", what, range);
                            }
                        }
                    }
                }
            }
        }
    }

    mod exclusive_form_properties {
        use super::*;
        use proptest::prelude::*;

        fn key() -> impl Strategy<Value = Key> {
            // Both ends of the domain and a few keys between them, so most
            // inserts duplicate a key and most probes overlap several.
            prop::sample::select(vec![
                Key::MIN,
                Key::MIN + 1,
                -1,
                0,
                1,
                2,
                64,
                200,
                511,
                9999,
                Key::MAX - 1,
                Key::MAX,
            ])
        }

        /// `range`'s runs through each probe entry point of the locked form:
        /// `range_runs` and a batch of one.
        fn locked_runs(t: &PimTree, range: KeyRange) -> [Vec<Vec<Entry>>; 2] {
            let mut scalar = Vec::new();
            t.range_runs(range, |run| scalar.push(run.to_vec()));
            let mut batch = Vec::new();
            let mut counters = ProbeCounters::default();
            t.probe_batch(&[range], &mut counters, |_, run| batch.push(run.to_vec()));
            [scalar, batch]
        }

        /// `range`'s runs through each probe entry point of the exclusive
        /// form: `range_runs_mut` and the instrumented probe (its entries
        /// as one run).
        fn exclusive_runs(t: &mut PimTree, range: KeyRange) -> [Vec<Vec<Entry>>; 2] {
            let mut scalar = Vec::new();
            t.range_runs_mut(range, |run| scalar.push(run.to_vec()));
            let timed = t.probe_with_breakdown(range, &mut CostBreakdown::new());
            [scalar, vec![timed]]
        }

        /// Probes both twins for `range` through every entry point and
        /// asserts the same runs: the locked form's scalar runs are its
        /// batch of one's and the exclusive form's, and the instrumented
        /// probe returns their entries.
        fn probe_both(exclusive: &mut PimTree, locked: &PimTree, range: KeyRange) {
            let [scalar, batch] = locked_runs(locked, range);
            let [runs, timed] = exclusive_runs(exclusive, range);
            assert_eq!(batch, scalar, "batch of one {range:?}");
            assert_eq!(runs, scalar, "range_runs_mut {range:?}");
            assert_eq!(
                timed,
                vec![scalar.concat()],
                "probe_with_breakdown {range:?}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The exclusive form is the locked form without its locks: two
            /// twins, one driven through the `&mut self` operations and one
            /// through the shared ones, stay the same tree through one random
            /// sequence of inserts, probes and merges. Every probe returns
            /// the same runs, every insert the same merge-due answer, and the
            /// per-partition insert counters agree after every step. The sequence opens on an empty tree and
            /// fills the `TS`-less first generation's one partition past
            /// `RUN_PROMOTE_LEN` (merge threshold 512), probing as it goes.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn exclusive_and_locked_forms_agree(
                prefill in prop::collection::vec(key(), RUN_PROMOTE_LEN + 1..RUN_PROMOTE_LEN + 40),
                // (what: 0-4 insert a batch of `n`, 5-7 probe `[a, b]`,
                // 8 probe a batch of two, 9 merge; a; b; n)
                ops in prop::collection::vec((0usize..10, key(), key(), 1usize..24), 16..80),
            ) {
                let w = 2048usize;
                let cfg = config(w, 0.25, 2);
                let (mut exclusive, locked) = (PimTree::new(cfg), PimTree::new(cfg));
                let full = KeyRange::new(Key::MIN, Key::MAX);
                let mut seq: Seq = 0;
                let mut promoted = false;
                probe_both(&mut exclusive, &locked, full);
                for chunk in prefill.chunks(16) {
                    let batch: Vec<(Key, Seq)> = chunk
                        .iter()
                        .map(|&k| {
                            seq += 1;
                            (k, seq)
                        })
                        .collect();
                    prop_assert_eq!(exclusive.insert_batch_mut(&batch), locked.insert_batch(&batch));
                    prop_assert_eq!(exclusive.ts_len(), 0);
                    probe_both(
                        &mut exclusive,
                        &locked,
                        KeyRange::new(chunk[0].min(0), chunk[0].max(0)),
                    );
                }
                prop_assert_eq!(exclusive.promoted_partitions(), 1);
                prop_assert_eq!(locked.promoted_partitions(), 1);
                for (what, a, b, n) in ops {
                    let range = KeyRange::new(a.min(b), a.max(b));
                    match what {
                        0..=4 => {
                            // Most batches that would cross the merge
                            // threshold stop exactly on it; the rest cross it.
                            let short = cfg.merge_threshold().saturating_sub(exclusive.ti_len());
                            let n = if a <= b && (1..n).contains(&short) { short } else { n };
                            let batch: Vec<(Key, Seq)> = (0..n)
                                .map(|i| {
                                    seq += 1;
                                    (if i % 2 == 0 { a } else { b }, seq)
                                })
                                .collect();
                            let due = exclusive.insert_batch_mut(&batch);
                            prop_assert_eq!(due, locked.insert_batch(&batch));
                            prop_assert_eq!(exclusive.needs_merge_mut(), locked.needs_merge());
                            prop_assert_eq!(due, exclusive.needs_merge_mut());
                        }
                        5..=7 => probe_both(&mut exclusive, &locked, range),
                        8 => {
                            let ranges = [range, full];
                            let mut want = vec![Vec::new(); 2];
                            let mut counters = ProbeCounters::default();
                            locked.probe_batch(&ranges, &mut counters, |i, run| want[i].push(run.to_vec()));
                            let mut got = vec![Vec::new(); 2];
                            for (runs, &range) in got.iter_mut().zip(&ranges) {
                                exclusive.range_runs_mut(range, |run| runs.push(run.to_vec()));
                            }
                            prop_assert_eq!(got, want);
                        }
                        _ => {}
                    }
                    promoted |= exclusive.promoted_partitions() > 0;
                    prop_assert_eq!(exclusive.promoted_partitions(), locked.promoted_partitions());
                    if what == 9 || exclusive.needs_merge_mut() {
                        let earliest = seq.saturating_sub(w as Seq);
                        let report = exclusive.merge(earliest);
                        prop_assert_eq!(
                            MergeReport { duration: report.duration, ..locked.merge(earliest) },
                            report
                        );
                    }
                    prop_assert_eq!((exclusive.ts_len(), exclusive.ti_len()), (locked.ts_len(), locked.ti_len()));
                    prop_assert_eq!(exclusive.insert_histogram(), locked.insert_histogram());
                }
                prop_assert!(promoted);
                probe_both(&mut exclusive, &locked, full);
                prop_assert_eq!(exclusive.sorted_entries(), locked.sorted_entries());
            }
        }
    }

    mod run_properties {
        use super::*;
        use proptest::prelude::*;

        fn key() -> impl Strategy<Value = Key> {
            // Few distinct keys, so most inserts duplicate one, and both
            // ends of the domain.
            prop::sample::select(vec![
                Key::MIN,
                Key::MIN + 1,
                -3,
                0,
                1,
                2,
                5,
                Key::MAX - 1,
                Key::MAX,
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// A run answers every operation like a B+-Tree and like a sorted
            /// array, whichever side of the promotion it is on, and crosses
            /// it in the middle of the interleaving.
            #[test]
            #[cfg_attr(miri, ignore)]
            fn run_matches_btree_and_sorted_vec(
                prefill in prop::sample::select(vec![
                    0,
                    1,
                    RUN_PROMOTE_LEN - 1,
                    RUN_PROMOTE_LEN,
                    RUN_PROMOTE_LEN + 1,
                ]),
                prefill_keys in prop::collection::vec(key(), RUN_PROMOTE_LEN + 1..RUN_PROMOTE_LEN + 2),
                // (what: 0-5 insert `a`, 6-8 probe `[a, b]`, 9 read all; a; b)
                ops in prop::collection::vec((0usize..10, key(), key()), 1..48),
            ) {
                let fanout = 8;
                let mut run = Run::Flat(Vec::new());
                let mut tree = BTreeIndex::with_fanout(fanout);
                let mut oracle: Vec<Entry> = Vec::new();
                let mut seq: Seq = 0;
                let mut insert = |run: &mut Run, tree: &mut BTreeIndex, oracle: &mut Vec<Entry>, key| {
                    let e = Entry::new(key, seq);
                    seq += 1;
                    run.insert(e, 4, fanout);
                    tree.insert_entry(e);
                    let at = oracle.partition_point(|o| *o < e);
                    oracle.insert(at, e);
                };
                for &k in &prefill_keys[..prefill] {
                    insert(&mut run, &mut tree, &mut oracle, k);
                }
                for (what, a, b) in ops {
                    match what {
                        0..=5 => insert(&mut run, &mut tree, &mut oracle, a),
                        6..=8 => {
                            let (lo, hi) = (a.min(b), a.max(b));
                            let range = KeyRange::new(lo, hi);
                            let mut got = Vec::new();
                            run.range_runs(range, |r| got.extend_from_slice(r));
                            let want: Vec<Entry> = oracle
                                .iter()
                                .copied()
                                .filter(|e| lo <= e.key && e.key <= hi)
                                .collect();
                            prop_assert_eq!(&got, &want);
                            prop_assert_eq!(got, tree.range_collect(range));
                        }
                        _ => {
                            let mut got = Vec::new();
                            run.for_each_run(|r| got.extend_from_slice(r));
                            prop_assert_eq!(&got, &oracle, "ascending on either side");
                            prop_assert_eq!(got, tree.to_sorted_vec());
                        }
                    }
                    let (entries, bytes) = run.footprint();
                    prop_assert_eq!(entries, oracle.len());
                    prop_assert!(bytes >= entries * std::mem::size_of::<Entry>());
                    prop_assert_eq!(
                        matches!(run, Run::Tree(_)),
                        oracle.len() > RUN_PROMOTE_LEN,
                        "promoted exactly when it outgrew the constant"
                    );
                }
            }
        }
    }
}
