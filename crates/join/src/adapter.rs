//! Adapters that give every index structure a uniform face for the
//! single-threaded index-based window join.
//!
//! The operators in [`crate::ibwj`] only need four things from an index:
//! insert a new tuple, react to a tuple's expiry, answer a range probe, and
//! perform periodic maintenance (the merge of the two-stage trees). How each
//! index maps onto these four calls is exactly the difference the paper's §2
//! cost analysis works out:
//!
//! * the **B+-Tree** and the **Bw-Tree-style** index delete expired tuples
//!   eagerly, one by one;
//! * the **chained index** ignores individual expiries and drops whole
//!   sub-indexes as a side effect of inserts;
//! * the **IM-Tree** and **PIM-Tree** ignore individual expiries and drop
//!   expired tuples in bulk during their merge, which shows up as the
//!   `maintain` call.

use pimtree_btree::{BTreeIndex, Entry};
use pimtree_bwtree::BwTreeIndex;
use pimtree_chained::{ChainVariant, ChainedIndex};
use pimtree_common::{
    CostBreakdown, Key, KeyRange, PimConfig, ProbeCounters, Seq, Step, StepTimer,
};
use pimtree_core::{ImTree, MergeReport, PimTree};

/// Uniform interface over the sliding-window index structures, used by the
/// single-threaded join operators.
pub trait WindowIndexAdapter {
    /// Short name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Inserts the newly arrived tuple.
    fn insert(&mut self, key: Key, seq: Seq);

    /// Reacts to the expiry of a tuple. Eager-deletion indexes remove the
    /// entry; merge-based and chain-based indexes do nothing.
    fn on_expire(&mut self, key: Key, seq: Seq);

    /// Calls `f` with the candidate entries with key in `range` as sorted
    /// runs: non-empty slices, ascending by `(key, seq)`, that borrow the
    /// index's own storage — a leaf, a flat partition, a stretch of the
    /// immutable leaf array — or a run of one where the index keeps nothing
    /// contiguous. Entries of expired tuples may be reported; the caller
    /// filters by sequence number, once per run.
    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry]));

    /// Multi-range probe: calls `f(i, run)` with the runs of `ranges[i]`,
    /// those of each range in the order [`WindowIndexAdapter::probe`]
    /// delivers them.
    ///
    /// The default implementation answers each range through the scalar
    /// probe, counted in `counters.scalar_probes`. The PIM-Tree overrides it
    /// with its prefetched CSS-Tree group descent and batched partition
    /// routing, one mutable-partition lock per partition and call.
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

    /// Periodic maintenance (the merge of the two-stage trees). Returns a
    /// report when maintenance actually ran.
    fn maintain(&mut self, earliest_live: Seq) -> Option<MergeReport>;

    /// Instrumented probe used by the per-step cost experiment: returns the
    /// live matches and charges traversal/scan time to `breakdown`. The
    /// default implementation charges the whole probe to [`Step::Search`].
    fn probe_instrumented(
        &self,
        range: KeyRange,
        earliest_live: Seq,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        let timer = StepTimer::start(Step::Search);
        let mut out = Vec::new();
        self.probe(range, &mut |run| {
            out.extend(run.iter().filter(|e| e.seq >= earliest_live));
        });
        timer.finish(breakdown);
        out
    }
}

// ---------------------------------------------------------------- B+-Tree

/// Adapter over the classic B+-Tree with eager expiry deletion (§2.2.1).
#[derive(Debug, Default)]
pub struct BTreeAdapter {
    tree: BTreeIndex,
}

impl BTreeAdapter {
    /// Creates an adapter with the default fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an adapter with an explicit fan-out.
    pub fn with_fanout(fanout: usize) -> Self {
        BTreeAdapter {
            tree: BTreeIndex::with_fanout(fanout),
        }
    }

    /// Read access to the underlying tree (for stats and tests).
    pub fn tree(&self) -> &BTreeIndex {
        &self.tree
    }
}

impl WindowIndexAdapter for BTreeAdapter {
    fn name(&self) -> &'static str {
        "b+tree"
    }

    fn insert(&mut self, key: Key, seq: Seq) {
        self.tree.insert(key, seq);
    }

    fn on_expire(&mut self, key: Key, seq: Seq) {
        let removed = self.tree.remove(key, seq);
        debug_assert!(
            removed,
            "expired tuple (key={key}, seq={seq}) was not indexed"
        );
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.tree.range_runs(range, f);
    }

    fn maintain(&mut self, _earliest_live: Seq) -> Option<MergeReport> {
        None
    }

    fn probe_instrumented(
        &self,
        range: KeyRange,
        earliest_live: Seq,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        let timer = StepTimer::start(Step::Search);
        let first = self.tree.first_at_or_after(range.lo);
        timer.finish(breakdown);
        let timer = StepTimer::start(Step::Scan);
        let mut out = Vec::new();
        if first.is_some() {
            self.tree.range_runs(range, |run| {
                out.extend(run.iter().filter(|e| e.seq >= earliest_live));
            });
        }
        timer.finish(breakdown);
        out
    }
}

// ----------------------------------------------------------- chained index

/// Adapter over the chained index (§2.2.2).
#[derive(Debug)]
pub struct ChainedAdapter {
    chain: ChainedIndex,
}

impl ChainedAdapter {
    /// Creates a chained-index adapter.
    pub fn new(variant: ChainVariant, window_size: usize, chain_length: usize) -> Self {
        ChainedAdapter {
            chain: ChainedIndex::new(variant, window_size, chain_length),
        }
    }

    /// Read access to the underlying chain.
    pub fn chain(&self) -> &ChainedIndex {
        &self.chain
    }
}

impl WindowIndexAdapter for ChainedAdapter {
    fn name(&self) -> &'static str {
        match self.chain.variant() {
            ChainVariant::BChain => "b-chain",
            ChainVariant::IbChain => "ib-chain",
        }
    }

    fn insert(&mut self, key: Key, seq: Seq) {
        self.chain.insert(key, seq);
    }

    fn on_expire(&mut self, _key: Key, _seq: Seq) {
        // Coarse-grained disposal: whole sub-indexes are dropped as the chain
        // rotates; individual expiries are ignored.
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.chain
            .range_for_each(range, |e| f(std::slice::from_ref(&e)));
    }

    fn maintain(&mut self, _earliest_live: Seq) -> Option<MergeReport> {
        None
    }
}

// ----------------------------------------------------------------- IM-Tree

/// Adapter over the IM-Tree (§3.2).
#[derive(Debug)]
pub struct ImTreeAdapter {
    tree: ImTree,
}

impl ImTreeAdapter {
    /// Creates an IM-Tree adapter.
    pub fn new(config: PimConfig) -> Self {
        ImTreeAdapter {
            tree: ImTree::new(config),
        }
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &ImTree {
        &self.tree
    }
}

impl WindowIndexAdapter for ImTreeAdapter {
    fn name(&self) -> &'static str {
        "im-tree"
    }

    fn insert(&mut self, key: Key, seq: Seq) {
        self.tree.insert(key, seq);
    }

    fn on_expire(&mut self, _key: Key, _seq: Seq) {
        // Expired tuples are dropped in bulk by the merge.
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.tree.range_runs(range, f);
    }

    fn maintain(&mut self, earliest_live: Seq) -> Option<MergeReport> {
        if self.tree.needs_merge() {
            Some(self.tree.merge(earliest_live))
        } else {
            None
        }
    }

    fn probe_instrumented(
        &self,
        range: KeyRange,
        earliest_live: Seq,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        self.tree
            .probe_with_breakdown(range, earliest_live, breakdown)
    }
}

// ---------------------------------------------------------------- PIM-Tree

/// Adapter over the PIM-Tree (§3.3) for single-threaded use; the parallel
/// engine uses the [`PimTree`] directly.
#[derive(Debug)]
pub struct PimTreeAdapter {
    tree: PimTree,
    /// What the last insert answered: whether `TI` has reached the merge
    /// threshold. `maintain` reads it instead of asking the tree, which
    /// would take the generation lock a second time per tuple.
    merge_due: bool,
}

impl PimTreeAdapter {
    /// Creates a PIM-Tree adapter.
    pub fn new(config: PimConfig) -> Self {
        PimTreeAdapter {
            tree: PimTree::new(config),
            merge_due: false,
        }
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &PimTree {
        &self.tree
    }
}

impl WindowIndexAdapter for PimTreeAdapter {
    fn name(&self) -> &'static str {
        "pim-tree"
    }

    fn insert(&mut self, key: Key, seq: Seq) {
        self.merge_due = self.tree.insert(key, seq);
    }

    fn on_expire(&mut self, _key: Key, _seq: Seq) {
        // Expired tuples are dropped in bulk by the merge.
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        self.tree.range_runs(range, f);
    }

    fn probe_runs(
        &self,
        ranges: &[KeyRange],
        counters: &mut ProbeCounters,
        f: &mut dyn FnMut(usize, &[Entry]),
    ) {
        self.tree.probe_batch(ranges, counters, f);
    }

    fn maintain(&mut self, earliest_live: Seq) -> Option<MergeReport> {
        // `TI` only grows between merges, so the last insert's answer is
        // still the tree's.
        std::mem::take(&mut self.merge_due).then(|| self.tree.merge(earliest_live))
    }

    fn probe_instrumented(
        &self,
        range: KeyRange,
        earliest_live: Seq,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        self.tree
            .probe_with_breakdown(range, earliest_live, breakdown)
    }
}

// ---------------------------------------------------------------- Bw-Tree

/// Adapter over the Bw-Tree-style concurrent index, used single-threaded for
/// comparison (the multithreaded runs go through the parallel engine).
#[derive(Debug, Default)]
pub struct BwTreeAdapter {
    tree: BwTreeIndex,
}

impl BwTreeAdapter {
    /// Creates a Bw-Tree adapter with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the underlying index.
    pub fn tree(&self) -> &BwTreeIndex {
        &self.tree
    }
}

impl WindowIndexAdapter for BwTreeAdapter {
    fn name(&self) -> &'static str {
        "bw-tree"
    }

    fn insert(&mut self, key: Key, seq: Seq) {
        self.tree.insert(key, seq);
    }

    fn on_expire(&mut self, key: Key, seq: Seq) {
        let removed = self.tree.remove(key, seq);
        debug_assert!(
            removed,
            "expired tuple (key={key}, seq={seq}) was not indexed"
        );
    }

    fn probe(&self, range: KeyRange, f: &mut dyn FnMut(&[Entry])) {
        // Delta pages hold nothing contiguous: every entry is a run of one.
        self.tree
            .range_for_each(range, |e| f(std::slice::from_ref(&e)));
    }

    fn maintain(&mut self, _earliest_live: Seq) -> Option<MergeReport> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(adapter: &mut dyn WindowIndexAdapter) {
        // Simulate a small sliding window of 64 tuples with periodic probes.
        let w = 64u64;
        let key_of = |i: u64| ((i * 37) % 1000) as Key;
        for i in 0..512u64 {
            // Probe before updating, like the join operator does.
            let range = KeyRange::new(key_of(i) - 5, key_of(i) + 5);
            let earliest = (i + 1).saturating_sub(w);
            let mut matches: Vec<Entry> = Vec::new();
            adapter.probe(range, &mut |run| {
                matches.extend(run.iter().filter(|e| e.seq >= earliest && e.seq < i));
            });
            for e in &matches {
                assert!(range.contains(e.key));
                assert_eq!(e.key, key_of(e.seq), "index returned a corrupted entry");
            }
            if i >= w {
                adapter.on_expire(key_of(i - w), i - w);
            }
            adapter.insert(key_of(i), i);
            adapter.maintain(i.saturating_sub(w) + 1);
        }
    }

    #[test]
    fn all_adapters_support_the_window_protocol() {
        let pim_cfg = PimConfig::for_window(64)
            .with_merge_ratio(0.5)
            .with_insertion_depth(2);
        let mut adapters: Vec<Box<dyn WindowIndexAdapter>> = vec![
            Box::new(BTreeAdapter::new()),
            Box::new(ChainedAdapter::new(ChainVariant::BChain, 64, 3)),
            Box::new(ChainedAdapter::new(ChainVariant::IbChain, 64, 3)),
            Box::new(ImTreeAdapter::new(pim_cfg)),
            Box::new(PimTreeAdapter::new(pim_cfg)),
            Box::new(BwTreeAdapter::new()),
        ];
        for a in adapters.iter_mut() {
            exercise(a.as_mut());
        }
    }

    #[test]
    fn probes_agree_across_adapters() {
        // All adapters must return exactly the same live matches.
        let w = 128u64;
        let pim_cfg = PimConfig::for_window(128)
            .with_merge_ratio(0.25)
            .with_insertion_depth(2);
        let mut adapters: Vec<Box<dyn WindowIndexAdapter>> = vec![
            Box::new(BTreeAdapter::new()),
            Box::new(ChainedAdapter::new(ChainVariant::BChain, 128, 3)),
            Box::new(ChainedAdapter::new(ChainVariant::IbChain, 128, 3)),
            Box::new(ImTreeAdapter::new(pim_cfg)),
            Box::new(PimTreeAdapter::new(pim_cfg)),
            Box::new(BwTreeAdapter::new()),
        ];
        let key_of = |i: u64| ((i * 257 + 11) % 4096) as Key;
        for i in 0..1024u64 {
            if i >= w {
                for a in adapters.iter_mut() {
                    a.on_expire(key_of(i - w), i - w);
                }
            }
            for a in adapters.iter_mut() {
                a.insert(key_of(i), i);
                a.maintain(i.saturating_sub(w) + 1);
            }
            if i % 64 == 63 {
                let range = KeyRange::new(1000, 1200);
                let earliest = (i + 1).saturating_sub(w);
                let mut reference: Option<Vec<(Key, Seq)>> = None;
                for a in adapters.iter() {
                    let mut got = Vec::new();
                    a.probe(range, &mut |run| {
                        let live = run.iter().filter(|e| e.seq >= earliest);
                        got.extend(live.map(|e| (e.key, e.seq)));
                    });
                    got.sort_unstable();
                    got.dedup();
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => assert_eq!(&got, r, "{} disagrees at i={i}", a.name()),
                    }
                }
            }
        }
    }

    #[test]
    fn instrumented_probe_matches_plain_probe() {
        let pim_cfg = PimConfig::for_window(256).with_insertion_depth(2);
        let mut adapters: Vec<Box<dyn WindowIndexAdapter>> = vec![
            Box::new(BTreeAdapter::new()),
            Box::new(ImTreeAdapter::new(pim_cfg)),
            Box::new(PimTreeAdapter::new(pim_cfg)),
            Box::new(BwTreeAdapter::new()),
        ];
        for a in adapters.iter_mut() {
            for i in 0..256u64 {
                a.insert((i * 3) as Key, i);
            }
            a.maintain(0);
        }
        let range = KeyRange::new(100, 200);
        for a in adapters.iter() {
            let mut breakdown = CostBreakdown::new();
            let mut instrumented = a.probe_instrumented(range, 10, &mut breakdown);
            let mut plain = Vec::new();
            a.probe(range, &mut |run| {
                plain.extend(run.iter().filter(|e| e.seq >= 10));
            });
            instrumented.sort();
            plain.sort();
            assert_eq!(instrumented, plain, "{}", a.name());
            assert!(breakdown.count(Step::Search) >= 1, "{}", a.name());
        }
    }

    #[test]
    fn batched_probe_matches_scalar_probe_for_every_adapter() {
        let pim_cfg = PimConfig::for_window(256).with_insertion_depth(2);
        let mut adapters: Vec<Box<dyn WindowIndexAdapter>> = vec![
            Box::new(BTreeAdapter::new()),
            Box::new(ChainedAdapter::new(ChainVariant::BChain, 256, 3)),
            Box::new(ImTreeAdapter::new(pim_cfg)),
            Box::new(PimTreeAdapter::new(pim_cfg)),
            Box::new(BwTreeAdapter::new()),
        ];
        for a in adapters.iter_mut() {
            for i in 0..256u64 {
                a.insert(((i * 7) % 300) as Key, i);
            }
            a.maintain(0);
            // Keep some entries in the PIM/IM mutable component as well.
            for i in 256..300u64 {
                a.insert(((i * 7) % 300) as Key, i);
            }
        }
        let ranges = [
            KeyRange::new(50, 80),
            KeyRange::new(50, 80), // duplicate
            KeyRange::new(-10, -1),
            KeyRange::new(290, 400),
        ];
        for a in adapters.iter() {
            // Batches around the group descent's lookahead of four.
            for len in [0usize, 1, 3, 4, 5, 64] {
                let batch: Vec<KeyRange> = ranges.iter().copied().cycle().take(len).collect();
                let mut counters = ProbeCounters::default();
                let mut batched: Vec<Vec<Entry>> = vec![Vec::new(); len];
                a.probe_runs(&batch, &mut counters, &mut |i, run| {
                    batched[i].extend_from_slice(run)
                });
                for (range, got) in batch.iter().zip(&batched) {
                    let mut scalar = Vec::new();
                    a.probe(*range, &mut |run| scalar.extend_from_slice(run));
                    assert_eq!(got, &scalar, "{} range {range:?} length {len}", a.name());
                }
            }
        }
        // The PIM-Tree adapter routes the batch through the real group probe.
        let pim = PimTreeAdapter::new(pim_cfg);
        let mut counters = ProbeCounters::default();
        pim.probe_runs(&ranges, &mut counters, &mut |_, _| {});
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.scalar_probes, 0);
    }

    /// The backends without a group probe answer a batch one range at a time
    /// through their scalar probe, and count each; the PIM-Tree answers
    /// overlapping ranges with shared mutable-partition locks.
    #[test]
    fn scalar_ranges_probe_matches_scalar_probe_for_every_adapter() {
        let pim_cfg = PimConfig::for_window(256).with_insertion_depth(2);
        let mut adapters: Vec<Box<dyn WindowIndexAdapter>> = vec![
            Box::new(BTreeAdapter::new()),
            Box::new(ChainedAdapter::new(ChainVariant::BChain, 256, 3)),
            Box::new(ImTreeAdapter::new(pim_cfg)),
            Box::new(PimTreeAdapter::new(pim_cfg)),
            Box::new(BwTreeAdapter::new()),
        ];
        for a in adapters.iter_mut() {
            for i in 0..256u64 {
                a.insert(((i * 7) % 300) as Key, i);
            }
            a.maintain(0);
            for i in 256..300u64 {
                a.insert(((i * 7) % 300) as Key, i);
            }
        }
        let ranges = [
            KeyRange::new(50, 120),
            KeyRange::new(80, 160), // overlaps the first range's partitions
            KeyRange::new(-10, -1),
            KeyRange::new(290, 400),
        ];
        for a in adapters.iter() {
            let mut counters = ProbeCounters::default();
            let mut got: Vec<Vec<Entry>> = vec![Vec::new(); ranges.len()];
            a.probe_runs(&ranges, &mut counters, &mut |i, run| {
                got[i].extend_from_slice(run)
            });
            for (range, got) in ranges.iter().zip(&got) {
                let mut scalar = Vec::new();
                a.probe(*range, &mut |run| scalar.extend_from_slice(run));
                assert_eq!(got, &scalar, "{} range {range:?}", a.name());
            }
            if a.name() == "pim-tree" {
                assert_eq!(counters.scalar_probes, 0);
                assert!(counters.ti_range_visits > 0);
                assert!(counters.ti_partition_locks < counters.ti_range_visits);
            } else {
                assert_eq!(counters.scalar_probes, ranges.len() as u64, "{}", a.name());
                assert_eq!(counters.batches, 0, "{}", a.name());
            }
        }
    }

    #[test]
    fn merge_based_adapters_report_merges() {
        let cfg = PimConfig::for_window(32).with_merge_ratio(0.5);
        let mut im = ImTreeAdapter::new(cfg);
        let mut pim = PimTreeAdapter::new(cfg);
        let mut im_merges = 0;
        let mut pim_merges = 0;
        for i in 0..64u64 {
            im.insert(i as Key, i);
            pim.insert(i as Key, i);
            if im.maintain(0).is_some() {
                im_merges += 1;
            }
            if pim.maintain(0).is_some() {
                pim_merges += 1;
            }
        }
        assert_eq!(im_merges, 4);
        assert_eq!(pim_merges, 4);
        // The PIM-Tree adapter keeps the insert's answer instead of polling
        // `needs_merge`: it merges at exactly the tuples polling does, with a
        // `maintain` after every insert and after every third.
        for stride in [1, 3] {
            let polled = PimTree::new(cfg);
            let mut kept = PimTreeAdapter::new(cfg);
            let (mut polled_at, mut kept_at) = (Vec::new(), Vec::new());
            for i in 0..200u64 {
                let key = (i * 37 % 50) as Key;
                polled.insert(key, i);
                kept.insert(key, i);
                if i % stride != 0 {
                    continue;
                }
                if polled.needs_merge() {
                    polled.merge(i.saturating_sub(32));
                    polled_at.push(i);
                }
                if kept.maintain(i.saturating_sub(32)).is_some() {
                    kept_at.push(i);
                }
            }
            assert!(polled_at.len() >= 200 / 16 - 1, "stride {stride}");
            assert_eq!(kept_at, polled_at, "stride {stride}");
            assert_eq!(kept.tree().ti_len(), polled.ti_len());
        }
        // Eager indexes never merge.
        let mut b = BTreeAdapter::new();
        b.insert(1, 1);
        assert!(b.maintain(0).is_none());
    }
}
