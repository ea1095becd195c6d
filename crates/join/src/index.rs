//! The window index every index-based join probes and updates, and the two
//! per-tuple stages both joins run over it.
//!
//! Processing a tuple takes the three steps of §2.1: probe the opposite
//! window's index, expire, insert. The single-threaded [`IbwjOperator`]
//! and the parallel engine's shared store run them through the same two
//! functions, `probe` and `insert`; the operator hands them a batch of
//! one, the engine a claim's batch. Only concurrency control differs, and it
//! lives in the index: the shared PIM-Tree and the Bw-Tree-style index take
//! their own locks, while the B+-Tree, the chained index, the IM-Tree and
//! the operator's PIM-Tree — the "no concurrency control" baselines of
//! figs 8–10 — sit in a [`RefCell`], which takes neither a lock nor an
//! atomic. A `RefCell<PimTree>` runs the tree's `&mut self` forms, which
//! reach its partitions through `get_mut`; the engine's store keeps the
//! locked, `Sync` tree.
//!
//! How each index expires tuples is the difference §2's cost analysis works
//! out:
//!
//! * the **B+-Tree** and the **Bw-Tree-style** index delete expired tuples
//!   eagerly, one by one ([`WindowIndex::deletes_eagerly`]);
//! * the **chained index** drops whole sub-indexes as a side effect of
//!   inserts;
//! * the **IM-Tree** and **PIM-Tree** drop expired tuples in bulk when they
//!   merge.
//!
//! [`IbwjOperator`]: crate::IbwjOperator

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;

use pimtree_btree::{BTreeIndex, Entry};
use pimtree_bwtree::BwTreeIndex;
use pimtree_chained::{ChainVariant, ChainedIndex};
use pimtree_common::{
    CostBreakdown, JoinResult, Key, KeyRange, ProbeCounters, Seq, Step, StepTimer, StreamSide,
    Tuple,
};
use pimtree_core::{ImTree, MergeReport, PimTree};
use pimtree_window::{SlidingWindow, WindowBounds};

/// A sliding-window index: what `probe` and `insert` need from it, plus
/// the merge, the sorted dump the migration reads and the instrumented probe
/// of fig 9b. Every method takes `&self`; see the module documentation.
pub trait WindowIndex: Any {
    /// Short name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Inserts newly arrived tuples and returns whether the index is now due
    /// for a merge (what [`WindowIndex::needs_merge`] would answer).
    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool;

    /// Whether expired tuples leave through [`WindowIndex::remove`], one by
    /// one, rather than in bulk.
    fn deletes_eagerly(&self) -> bool {
        false
    }

    /// Deletes an expired tuple's entry; a no-op unless the index
    /// [deletes eagerly](WindowIndex::deletes_eagerly).
    fn remove(&self, _key: Key, _seq: Seq) {}

    /// Calls `f` with the entries whose key lies in `range` as sorted runs:
    /// non-empty slices, ascending by `(key, seq)`, that borrow the index's
    /// own storage — a leaf, a flat partition, a stretch of the immutable
    /// leaf array — or a run of one where the index keeps nothing
    /// contiguous. Entries of expired tuples may be reported; the caller
    /// filters by sequence number, once per run.
    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry]));

    /// Multi-range probe: calls `f(i, run)` with the runs of `ranges[i]`,
    /// those of each range in the order [`WindowIndex::probe`] delivers them.
    ///
    /// The default answers each range through the scalar probe, counted in
    /// `counters.scalar_probes`. The shared PIM-Tree overrides it with its
    /// prefetched CSS-Tree group descent and batched partition routing, one
    /// mutable-partition lock per partition and call.
    fn probe_runs(
        &self,
        ranges: &[KeyRange],
        counters: &mut ProbeCounters,
        f: &mut dyn FnMut(usize, &[Entry]),
    ) {
        counters.scalar_probes += ranges.len() as u64;
        for (i, &range) in ranges.iter().enumerate() {
            self.probe(range, &mut |run| f(i, run));
        }
    }

    /// Whether the index has reached its merge threshold. Indexes without a
    /// merge never have.
    fn needs_merge(&self) -> bool {
        false
    }

    /// Merges, dropping entries older than `earliest_live`. Indexes without
    /// a merge are never due for one and report nothing.
    fn merge(&self, _earliest_live: Seq) -> MergeReport {
        MergeReport::default()
    }

    /// Every entry, live and expired, in `(key, seq)` order: what the
    /// migration cuts by key range and bulk-builds new indexes from.
    fn sorted_entries(&self) -> Vec<Entry> {
        let mut out = Vec::new();
        self.probe(KeyRange::new(Key::MIN, Key::MAX), &mut |run| {
            out.extend_from_slice(run)
        });
        out.sort_unstable();
        out
    }

    /// The entries [`WindowIndex::probe`] reports for `range`, with the
    /// index traversal charged to [`Step::Search`] and the leaf scan to
    /// [`Step::Scan`] (fig 9b). The default charges the whole probe to
    /// [`Step::Search`].
    fn probe_instrumented(&self, range: KeyRange, breakdown: &mut CostBreakdown) -> Vec<Entry> {
        let timer = StepTimer::start(Step::Search);
        let mut out = Vec::new();
        self.probe(range, &mut |run| out.extend_from_slice(run));
        timer.finish(breakdown);
        out
    }
}

/// What [`probe`] hands its caller, one dynamic call per run: the probe's
/// position in the batch, a sorted run of stored entries whose keys lie in
/// that probe's range, and the interval of sequence numbers that are live
/// for the probe *in this run* — `[earliest, index horizon)` under the edge
/// for a run out of the index, the hit's own sequence number for a window
/// suffix hit, a run of one. The caller keeps the entries whose `seq` the
/// interval contains — the only work left per entry — and it is the caller
/// that counts or materialises them.
pub(crate) type RunSink<'a> = dyn FnMut(usize, &[Entry], Range<Seq>) + 'a;

/// How many entries of `run` the sequence interval `live` holds: the count
/// sink of both joins, one filtered count per run with nothing called,
/// pushed or branched on per entry.
#[inline]
pub(crate) fn count_live(run: &[Entry], live: Range<Seq>) -> u64 {
    run.iter().filter(|e| live.contains(&e.seq)).count() as u64
}

/// Appends the entries of `run` that `live` holds to `out` as results of
/// `probe` against the `matched` side, in run order, and returns how many:
/// the materialising sink of both joins.
#[inline]
pub(crate) fn materialise(
    out: &mut Vec<JoinResult>,
    probe: Tuple,
    matched: StreamSide,
    run: &[Entry],
    live: Range<Seq>,
) -> u64 {
    let before = out.len();
    let kept = run.iter().filter(|e| live.contains(&e.seq));
    out.extend(kept.map(|e| JoinResult::new(probe, Tuple::new(matched, e.seq, e.key))));
    (out.len() - before) as u64
}

thread_local! {
    /// [`probe`]'s suffix-scan scratch, kept per thread so the steady state
    /// allocates nothing.
    static SUFFIX_ORDER: Cell<Vec<(Key, usize)>> = const { Cell::new(Vec::new()) };
}

/// The probe stage (§2.1 step 1, split at the edge tuple as in §4.1): for
/// every item `j`, each tuple of `window` with key in `ranges[j]` and
/// sequence number inside `bounds[j]` reaches `f` exactly once as a live
/// entry of a run — out of `index` below `edge`, as a run of one from the
/// linear scan of `window` from `edge` up. Per item the index's runs come
/// first, then the suffix hits in ascending `seq`. With an `edge` at the
/// window's head the suffix is empty.
///
/// With a `breakdown`, each range goes through the instrumented scalar probe
/// instead of the batched one. Returns the window slots the suffix scan
/// examined. `f` is generic so that a concrete sink (the operator's) is
/// called directly from the index's one dynamic callback per run.
#[allow(clippy::too_many_arguments)] // the batch, its edge and two recorders
pub(crate) fn probe<I, F>(
    index: &I,
    window: &SlidingWindow,
    edge: Seq,
    ranges: &[KeyRange],
    bounds: &[WindowBounds],
    counters: &mut ProbeCounters,
    breakdown: Option<&mut CostBreakdown>,
    f: &mut F,
) -> usize
where
    I: WindowIndex + ?Sized,
    F: FnMut(usize, &[Entry], Range<Seq>) + ?Sized,
{
    debug_assert_eq!(ranges.len(), bounds.len());
    let live = |j: usize| bounds[j].earliest..bounds[j].index_horizon(edge);
    match breakdown {
        None => index.probe_runs(ranges, counters, &mut |j, run| f(j, run, live(j))),
        Some(breakdown) => {
            for (j, &range) in ranges.iter().enumerate() {
                let run = index.probe_instrumented(range, breakdown);
                if !run.is_empty() {
                    f(j, &run, live(j));
                }
            }
        }
    }
    if bounds.iter().all(|b| b.latest_exclusive <= edge) {
        return 0; // every span of the suffix scan is empty
    }
    let mut order = SUFFIX_ORDER.take();
    let examined = window.scan_suffix(edge, ranges, bounds, &mut order, |j, seq, key| {
        f(j, &[Entry::new(key, seq)], seq..seq + 1)
    });
    SUFFIX_ORDER.set(order);
    examined
}

/// The insert stage (§2.1 steps 2 and 3): `entries`, already appended to
/// `window`, go into `index`; then an eager-deletion index deletes, per
/// entry, the tuple `window_size + lag` older. `lag` keeps the entries an
/// in-flight task may still need (0 when nothing is in flight). With a
/// `breakdown`, the two steps are timed as [`Step::Insert`] and
/// [`Step::Delete`]. Returns whether `index` is now due for a merge.
pub(crate) fn insert<I: WindowIndex + ?Sized>(
    index: &I,
    window: &SlidingWindow,
    entries: &[(Key, Seq)],
    lag: u64,
    mut breakdown: Option<&mut CostBreakdown>,
) -> bool {
    let merge_due = timed(&mut breakdown, Step::Insert, || index.insert_batch(entries));
    if index.deletes_eagerly() {
        let horizon = window.window_size() as u64 + lag;
        timed(&mut breakdown, Step::Delete, || {
            for &(_, seq) in entries {
                if let Some(expired) = seq.checked_sub(horizon) {
                    index.remove(window.key_of(expired), expired);
                }
            }
        });
    }
    merge_due
}

/// Runs `f`, charging its time to `step` when there is a `breakdown`.
fn timed<R>(breakdown: &mut Option<&mut CostBreakdown>, step: Step, f: impl FnOnce() -> R) -> R {
    let Some(breakdown) = breakdown else {
        return f();
    };
    let timer = StepTimer::start(step);
    let out = f();
    timer.finish(breakdown);
    out
}

// ---------------------------------------------------------------- PIM-Tree

/// The PIM-Tree (§3.3): merges in bulk, under its own locks. The parallel
/// engine's shared store.
impl WindowIndex for PimTree {
    fn name(&self) -> &'static str {
        "pim-tree"
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        PimTree::insert_batch(self, entries)
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.range_runs(range, f);
    }

    fn probe_runs(
        &self,
        ranges: &[KeyRange],
        counters: &mut ProbeCounters,
        f: &mut dyn FnMut(usize, &[Entry]),
    ) {
        self.probe_batch(ranges, counters, f);
    }

    fn needs_merge(&self) -> bool {
        PimTree::needs_merge(self)
    }

    fn merge(&self, earliest_live: Seq) -> MergeReport {
        PimTree::merge(self, earliest_live)
    }

    fn sorted_entries(&self) -> Vec<Entry> {
        PimTree::sorted_entries(self)
    }
}

/// The PIM-Tree owned by one thread: the single-threaded operator's index.
/// Every per-tuple call goes through the tree's `&mut self` forms — the
/// same routes, runs and merge-due answers as the shared tree's, with no
/// lock and no atomic read-modify-write. The operator probes one range at
/// a time, so a batch is answered through the scalar probe (the
/// [`WindowIndex::probe_runs`] default). The `RefCell` is `!Sync`, so such
/// a tree cannot be shared.
impl WindowIndex for RefCell<PimTree> {
    fn name(&self) -> &'static str {
        "pim-tree"
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        self.borrow_mut().insert_batch_mut(entries)
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.borrow_mut().range_runs_mut(range, f);
    }

    fn needs_merge(&self) -> bool {
        self.borrow_mut().needs_merge_mut()
    }

    fn merge(&self, earliest_live: Seq) -> MergeReport {
        self.borrow_mut().merge(earliest_live)
    }

    fn probe_instrumented(&self, range: KeyRange, breakdown: &mut CostBreakdown) -> Vec<Entry> {
        self.borrow_mut().probe_with_breakdown(range, breakdown)
    }
}

// ---------------------------------------------------------------- Bw-Tree

/// The Bw-Tree-style concurrent index: eager deletion, under its own locks.
impl WindowIndex for BwTreeIndex {
    fn name(&self) -> &'static str {
        "bw-tree"
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        for &(key, seq) in entries {
            self.insert(key, seq);
        }
        false
    }

    fn deletes_eagerly(&self) -> bool {
        true
    }

    fn remove(&self, key: Key, seq: Seq) {
        BwTreeIndex::remove(self, key, seq);
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        // Delta pages hold nothing contiguous: every entry is a run of one.
        self.range_for_each(range, |e| f(std::slice::from_ref(&e)));
    }
}

// ---------------------------------------------------------------- B+-Tree

/// The classic B+-Tree with eager deletion (§2.2.1).
impl WindowIndex for RefCell<BTreeIndex> {
    fn name(&self) -> &'static str {
        "b+tree"
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        let mut tree = self.borrow_mut();
        for &(key, seq) in entries {
            tree.insert(key, seq);
        }
        false
    }

    fn deletes_eagerly(&self) -> bool {
        true
    }

    fn remove(&self, key: Key, seq: Seq) {
        let removed = self.borrow_mut().remove(key, seq);
        debug_assert!(
            removed,
            "expired tuple (key={key}, seq={seq}) was not indexed"
        );
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.borrow().range_runs(range, f);
    }

    fn probe_instrumented(&self, range: KeyRange, breakdown: &mut CostBreakdown) -> Vec<Entry> {
        let tree = self.borrow();
        let timer = StepTimer::start(Step::Search);
        let first = tree.first_at_or_after(range.lo);
        timer.finish(breakdown);
        let timer = StepTimer::start(Step::Scan);
        let mut out = Vec::new();
        if first.is_some() {
            tree.range_runs(range, |run| out.extend_from_slice(run));
        }
        timer.finish(breakdown);
        out
    }
}

// ----------------------------------------------------------- chained index

/// The chained index (§2.2.2): whole sub-indexes expire as the chain
/// rotates.
impl WindowIndex for RefCell<ChainedIndex> {
    fn name(&self) -> &'static str {
        match self.borrow().variant() {
            ChainVariant::BChain => "b-chain",
            ChainVariant::IbChain => "ib-chain",
        }
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        let mut chain = self.borrow_mut();
        for &(key, seq) in entries {
            chain.insert(key, seq);
        }
        false
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.borrow()
            .range_for_each(range, |e| f(std::slice::from_ref(&e)));
    }
}

// ----------------------------------------------------------------- IM-Tree

/// The IM-Tree (§3.2): merges in bulk, without concurrency control.
impl WindowIndex for RefCell<ImTree> {
    fn name(&self) -> &'static str {
        "im-tree"
    }

    fn insert_batch(&self, entries: &[(Key, Seq)]) -> bool {
        let mut tree = self.borrow_mut();
        for &(key, seq) in entries {
            tree.insert(key, seq);
        }
        tree.needs_merge()
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.borrow().range_runs(range, f);
    }

    fn needs_merge(&self) -> bool {
        self.borrow().needs_merge()
    }

    fn merge(&self, earliest_live: Seq) -> MergeReport {
        self.borrow_mut().merge(earliest_live)
    }

    fn probe_instrumented(&self, range: KeyRange, breakdown: &mut CostBreakdown) -> Vec<Entry> {
        self.borrow().probe_with_breakdown(range, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimtree_common::PimConfig;

    /// One index of every backend; the chains sized for window `w`.
    fn backends(w: usize, pim: PimConfig) -> Vec<Box<dyn WindowIndex>> {
        vec![
            Box::new(RefCell::new(BTreeIndex::new())),
            Box::new(RefCell::new(ChainedIndex::new(ChainVariant::BChain, w, 3))),
            Box::new(RefCell::new(ChainedIndex::new(ChainVariant::IbChain, w, 3))),
            Box::new(RefCell::new(ImTree::new(pim))),
            Box::new(RefCell::new(PimTree::new(pim))),
            Box::new(PimTree::new(pim)),
            Box::new(BwTreeIndex::new()),
        ]
    }

    /// Appends `key` to `window` and runs the insert stage, merging when due.
    fn push(index: &dyn WindowIndex, window: &SlidingWindow, key: Key) {
        let seq = window.append(key).unwrap();
        if insert(index, window, &[(key, seq)], 0, None) {
            index.merge(window.earliest_live());
        }
    }

    /// The live matches of `range` through the probe stage, sorted.
    fn live_matches(
        index: &dyn WindowIndex,
        window: &SlidingWindow,
        range: KeyRange,
    ) -> Vec<Entry> {
        let bounds = window.bounds();
        let mut got = Vec::new();
        let mut counters = ProbeCounters::default();
        probe(
            index,
            window,
            bounds.latest_exclusive,
            &[range],
            &[bounds],
            &mut counters,
            None,
            &mut |_, run, live| got.extend(run.iter().filter(|e| live.contains(&e.seq))),
        );
        got.sort_unstable();
        got
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thousands of pushes through seven backends
    fn all_backends_support_the_window_protocol() {
        // A sliding window of 64 tuples with a probe before every update,
        // like the join operator.
        let w = 64usize;
        let pim = PimConfig::for_window(w)
            .with_merge_ratio(0.5)
            .with_insertion_depth(2);
        let key_of = |i: u64| ((i * 37) % 1000) as Key;
        for index in backends(w, pim) {
            let window = SlidingWindow::with_default_slack(w);
            for i in 0..512u64 {
                let range = KeyRange::new(key_of(i) - 5, key_of(i) + 5);
                for e in live_matches(index.as_ref(), &window, range) {
                    assert!(range.contains(e.key), "{}", index.name());
                    assert!(window.bounds().contains(e.seq), "{}", index.name());
                    assert_eq!(e.key, key_of(e.seq), "{} corrupted an entry", index.name());
                }
                push(index.as_ref(), &window, key_of(i));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thousands of pushes through seven backends
    fn probes_agree_across_backends() {
        // Every backend returns exactly the same live matches: on a spread
        // of keys with both domain edges mixed in, and on one key repeated.
        let w = 128usize;
        let pim = PimConfig::for_window(w)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        let inputs: [fn(u64) -> Key; 2] = [
            |i| match i % 17 {
                0 => Key::MIN,
                1 => Key::MAX,
                _ => ((i * 257 + 11) % 4096) as Key,
            },
            |_| 42,
        ];
        let ranges = [
            KeyRange::new(1000, 1200),
            KeyRange::new(Key::MIN, Key::MIN + 5),
            KeyRange::new(Key::MAX - 5, Key::MAX),
            KeyRange::new(Key::MIN, Key::MAX),
            KeyRange::new(42, 42),
        ];
        for key_of in inputs {
            let indexes = backends(w, pim);
            let windows: Vec<SlidingWindow> = indexes
                .iter()
                .map(|_| SlidingWindow::with_default_slack(w))
                .collect();
            for i in 0..1024u64 {
                for (index, window) in indexes.iter().zip(&windows) {
                    push(index.as_ref(), window, key_of(i));
                }
                if i % 64 != 63 {
                    continue;
                }
                for range in ranges {
                    let mut expected: Vec<Entry> = ((i + 1).saturating_sub(w as u64)..=i)
                        .map(|seq| Entry::new(key_of(seq), seq))
                        .filter(|e| range.contains(e.key))
                        .collect();
                    expected.sort_unstable();
                    for (index, window) in indexes.iter().zip(&windows) {
                        assert_eq!(
                            live_matches(index.as_ref(), window, range),
                            expected,
                            "{} at i={i}, range {range:?}",
                            index.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn instrumented_probe_matches_plain_probe() {
        let pim = PimConfig::for_window(256).with_insertion_depth(2);
        for index in backends(256, pim) {
            index.insert_batch(&(0..256u64).map(|i| ((i * 3) as Key, i)).collect::<Vec<_>>());
            index.merge(0);
            let range = KeyRange::new(100, 200);
            let mut breakdown = CostBreakdown::new();
            let mut instrumented = index.probe_instrumented(range, &mut breakdown);
            let mut plain = Vec::new();
            index.probe(range, &mut |run| plain.extend_from_slice(run));
            instrumented.sort();
            plain.sort();
            assert_eq!(instrumented, plain, "{}", index.name());
            assert!(breakdown.count(Step::Search) >= 1, "{}", index.name());
        }
    }

    /// `index` holding 256 merged entries and 44 in its mutable component.
    fn populated(index: &dyn WindowIndex) {
        let entries: Vec<(Key, Seq)> = (0..300u64).map(|i| (((i * 7) % 300) as Key, i)).collect();
        index.insert_batch(&entries[..256]);
        index.merge(0);
        index.insert_batch(&entries[256..]);
    }

    #[test]
    fn batched_probe_matches_scalar_probe_for_every_backend() {
        let pim = PimConfig::for_window(256).with_insertion_depth(2);
        let ranges = [
            KeyRange::new(50, 80),
            KeyRange::new(50, 80), // duplicate
            KeyRange::new(-10, -1),
            KeyRange::new(290, 400),
        ];
        for index in backends(256, pim) {
            populated(index.as_ref());
            // Batches around the group descent's lookahead of four.
            for len in [0usize, 1, 3, 4, 5, 64] {
                let batch: Vec<KeyRange> = ranges.iter().copied().cycle().take(len).collect();
                let mut counters = ProbeCounters::default();
                let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); len];
                index.probe_runs(&batch, &mut counters, &mut |i, run| {
                    batched[i].extend_from_slice(run)
                });
                for (range, got) in batch.iter().zip(&batched) {
                    let mut scalar = Vec::new();
                    index.probe(*range, &mut |run| scalar.extend_from_slice(run));
                    assert_eq!(
                        got,
                        &scalar,
                        "{} range {range:?} length {len}",
                        index.name()
                    );
                }
            }
        }
        // The shared PIM-Tree routes the batch through the real group probe.
        let mut counters = ProbeCounters::default();
        WindowIndex::probe_runs(&PimTree::new(pim), &ranges, &mut counters, &mut |_, _| {});
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.scalar_probes, 0);
    }

    /// The backends without a group probe — the operator's exclusively owned
    /// PIM-Tree among them — answer a batch one range at a time through their
    /// scalar probe, and count each; the shared PIM-Tree answers overlapping
    /// ranges with shared mutable-partition locks.
    #[test]
    fn scalar_ranges_probe_matches_scalar_probe_for_every_backend() {
        let pim = PimConfig::for_window(256).with_insertion_depth(2);
        let ranges = [
            KeyRange::new(50, 120),
            KeyRange::new(80, 160), // overlaps the first range's partitions
            KeyRange::new(-10, -1),
            KeyRange::new(290, 400),
        ];
        for index in backends(256, pim) {
            populated(index.as_ref());
            let mut counters = ProbeCounters::default();
            let mut got: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
            index.probe_runs(&ranges, &mut counters, &mut |i, run| {
                got[i].extend_from_slice(run)
            });
            for (range, got) in ranges.iter().zip(&got) {
                let mut scalar = Vec::new();
                index.probe(*range, &mut |run| scalar.extend_from_slice(run));
                assert_eq!(got, &scalar, "{} range {range:?}", index.name());
            }
            if (index.as_ref() as &dyn Any).is::<PimTree>() {
                assert_eq!(counters.scalar_probes, 0);
                assert!(counters.ti_range_visits > 0);
                assert!(counters.ti_partition_locks < counters.ti_range_visits);
            } else {
                assert_eq!(
                    counters.scalar_probes,
                    ranges.len() as u64,
                    "{}",
                    index.name()
                );
                assert_eq!(counters.batches, 0, "{}", index.name());
            }
        }
    }

    #[test]
    fn merge_based_backends_report_merges() {
        // What `insert_batch` answers is what `needs_merge` polls: a merge
        // after each due insert gives the merge ratio's count, and the eager
        // and chained backends are never due.
        let cfg = PimConfig::for_window(32).with_merge_ratio(0.5);
        for index in backends(32, cfg) {
            let mut merges = 0;
            for i in 0..64u64 {
                let due = index.insert_batch(&[(i as Key, i)]);
                assert_eq!(due, index.needs_merge(), "{} at {i}", index.name());
                if due {
                    index.merge(0);
                    merges += 1;
                }
            }
            let expected = match index.name() {
                "im-tree" | "pim-tree" => 4,
                _ => 0,
            };
            assert_eq!(merges, expected, "{}", index.name());
        }
    }
}
