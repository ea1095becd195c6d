//! The In-memory Merge-Tree (IM-Tree, §3.2): the unpartitioned, single-
//! threaded two-stage index.

use std::time::Instant;

use pimtree_btree::{BTreeIndex, Entry};
use pimtree_common::{CostBreakdown, Key, KeyRange, PimConfig, Seq, Step};
use pimtree_css::CssTree;

use crate::footprint::PimFootprint;
use crate::merge::{build_ts, LiveMerge, MergeReport};

/// The In-memory Merge-Tree: a mutable B+-Tree `TI` for new tuples plus an
/// immutable CSS-Tree `TS` for the bulk of the window, merged whenever `TI`
/// reaches `m · w` entries.
#[derive(Debug)]
pub struct ImTree {
    config: PimConfig,
    ti: BTreeIndex,
    ts: CssTree,
}

impl ImTree {
    /// Creates an empty IM-Tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PimConfig) -> Self {
        config.validate().expect("invalid IM-Tree configuration");
        ImTree {
            ti: BTreeIndex::with_fanout(config.btree_fanout),
            ts: build_ts(&config, Vec::new()),
            config,
        }
    }

    /// The configuration this tree was created with.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Entries currently held by the mutable component.
    pub fn ti_len(&self) -> usize {
        self.ti.len()
    }

    /// Entries currently held by the immutable component (live and expired).
    pub fn ts_len(&self) -> usize {
        self.ts.len()
    }

    /// Total indexed entries (live and expired).
    pub fn len(&self) -> usize {
        self.ti_len() + self.ts_len()
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a newly arrived tuple into the mutable component.
    pub fn insert(&mut self, key: Key, seq: Seq) {
        self.ti.insert(key, seq);
    }

    /// Whether the mutable component has reached the merge threshold `m · w`.
    pub fn needs_merge(&self) -> bool {
        self.ti.len() >= self.config.merge_threshold()
    }

    /// Merges `TI` into `TS`, dropping entries whose sequence number lies
    /// before `earliest_live`: the drained `TI` is the one run of the
    /// PIM-Tree's merge pass (`LiveMerge`).
    pub fn merge(&mut self, earliest_live: Seq) -> MergeReport {
        let start = Instant::now();
        let ti = self.ti.drain_sorted();
        let mut merge = LiveMerge::new(self.ts.entries(), ti.len(), earliest_live);
        merge.push_run(&ti);
        let (merged, report) = merge.finish();
        self.ts = build_ts(&self.config, merged);
        MergeReport {
            duration: start.elapsed(),
            partitions: 1,
            ..report
        }
    }

    /// Calls `f` with every indexed entry whose key lies in `range`, including
    /// entries of expired tuples (the caller filters by sequence number, as
    /// the join operator has to do anyway), as sorted, non-empty runs: `TS`'s
    /// as one slice of its leaf array, then `TI`'s, one slice per leaf.
    pub fn range_runs<F: FnMut(&[Entry])>(&self, range: KeyRange, mut f: F) {
        let run = self.ts.range_run(range);
        if !run.is_empty() {
            f(run);
        }
        self.ti.range_runs(range, f);
    }

    /// Instrumented probe used by the per-step cost experiment (Figure 9b):
    /// separates index traversal ("search") from leaf scanning ("scan").
    pub fn probe_with_breakdown(
        &self,
        range: KeyRange,
        breakdown: &mut CostBreakdown,
    ) -> Vec<Entry> {
        let search_start = Instant::now();
        let ts_pos = self.ts.lower_bound_key(range.lo);
        let ti_first = self.ti.first_at_or_after(range.lo);
        breakdown.record(Step::Search, search_start.elapsed());

        let scan_start = Instant::now();
        let mut out = self.ts.run_from(ts_pos, range.hi).to_vec();
        if ti_first.is_some() {
            self.ti.range_runs(range, |run| out.extend_from_slice(run));
        }
        breakdown.record(Step::Scan, scan_start.elapsed());
        out
    }

    /// Memory footprint broken down by component (Figure 11a). The merge
    /// buffer is sized for the worst case: a full rebuild of `TS` plus `TI`.
    pub fn footprint(&self) -> PimFootprint {
        let ts = self.ts.stats();
        let ti = self.ti.stats();
        let entry = std::mem::size_of::<Entry>();
        PimFootprint {
            ts_leaf_bytes: ts.leaf_bytes,
            ts_inner_bytes: ts.inner_bytes,
            ti_bytes: ti.total_bytes(),
            merge_buffer_bytes: (ts.entries + ti.entries) * entry,
            entries: self.len(),
            partitions: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(w: usize, m: f64) -> PimConfig {
        PimConfig::for_window(w).with_merge_ratio(m)
    }

    impl ImTree {
        /// The live entries (sequence number at or after `earliest_live`)
        /// whose key lies in `range`, in probe order: the test oracle's view
        /// of the window.
        fn range_collect_live(&self, range: KeyRange, earliest_live: Seq) -> Vec<Entry> {
            let mut out = Vec::new();
            self.range_runs(range, |run| {
                out.extend(run.iter().filter(|e| e.seq >= earliest_live))
            });
            out
        }
    }

    #[test]
    fn inserts_go_to_ti_until_merge() {
        let mut t = ImTree::new(config(100, 0.25));
        for i in 0..24i64 {
            t.insert(i, i as Seq);
        }
        assert_eq!(t.ti_len(), 24);
        assert_eq!(t.ts_len(), 0);
        assert!(!t.needs_merge());
        t.insert(24, 24);
        assert!(t.needs_merge());
        let report = t.merge(0);
        assert_eq!(report.from_ti, 25);
        assert_eq!(report.new_len, 25);
        assert_eq!(t.ti_len(), 0);
        assert_eq!(t.ts_len(), 25);
    }

    #[test]
    fn merge_drops_expired() {
        let mut t = ImTree::new(config(10, 1.0));
        for i in 0..10i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 10..20i64 {
            t.insert(i, i as Seq);
        }
        // Window of 10: live seqs are 10..20.
        let report = t.merge(10);
        assert_eq!(report.dropped_expired, 10);
        assert_eq!(report.kept_from_ts, 0);
        assert_eq!(report.from_ti, 10);
        assert_eq!(t.ts_len(), 10);
    }

    #[test]
    fn lookups_see_both_components_and_filter_expired() {
        let mut t = ImTree::new(config(8, 0.5));
        // Old tuples (will expire), merged into TS.
        for i in 0..4i64 {
            t.insert(100 + i, i as Seq);
        }
        t.merge(0);
        // New tuples stay in TI.
        for i in 4..8i64 {
            t.insert(100 + i, i as Seq);
        }
        let all = t.range_collect_live(KeyRange::new(100, 107), 0);
        assert_eq!(all.len(), 8);
        // Declare the first 2 tuples expired.
        let live = t.range_collect_live(KeyRange::new(100, 107), 2);
        assert_eq!(live.len(), 6);
        assert!(live.iter().all(|e| e.seq >= 2));
    }

    #[test]
    fn inserts_merge_at_threshold() {
        let mut t = ImTree::new(config(16, 0.25));
        let mut merges = 0;
        for i in 0..64i64 {
            t.insert(i, i as Seq);
            if t.needs_merge() {
                t.merge((i as Seq).saturating_sub(16));
                merges += 1;
            }
        }
        assert_eq!(merges, 16, "64 inserts at threshold 4 trigger 16 merges");
        // The index never holds more than w live + m*w recent-expired entries.
        assert!(t.len() <= 16 + 4 + 4);
    }

    #[test]
    fn sliding_window_contents_are_exact_after_each_merge() {
        let w = 64usize;
        let mut t = ImTree::new(config(w, 0.5));
        let key_of = |i: i64| (i * 37) % 1000;
        let n = 1000i64;
        for i in 0..n {
            let earliest = (i as Seq + 1).saturating_sub(w as Seq);
            t.insert(key_of(i), i as Seq);
            if t.needs_merge() {
                t.merge(earliest);
            }
        }
        let earliest = n as Seq - w as Seq;
        let live = t.range_collect_live(KeyRange::new(i64::MIN, i64::MAX), earliest);
        assert_eq!(
            live.len(),
            w,
            "exactly one window of live tuples is visible"
        );
        let mut seqs: Vec<Seq> = live.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, ((n as Seq - w as Seq)..n as Seq).collect::<Vec<_>>());
        for e in &live {
            assert_eq!(e.key, key_of(e.seq as i64));
        }
    }

    #[test]
    fn probe_with_breakdown_returns_same_results() {
        let mut t = ImTree::new(config(32, 0.5));
        for i in 0..32i64 {
            t.insert(i * 3, i as Seq);
        }
        t.merge(0);
        for i in 32..48i64 {
            t.insert(i * 3, i as Seq);
        }
        let range = KeyRange::new(30, 90);
        let mut breakdown = CostBreakdown::new();
        let a = t.probe_with_breakdown(range, &mut breakdown);
        let b = t.range_collect_live(range, 0);
        let mut a_sorted = a.clone();
        a_sorted.sort();
        let mut b_sorted = b.clone();
        b_sorted.sort();
        assert_eq!(a_sorted, b_sorted);
        assert_eq!(breakdown.count(Step::Search), 1);
        assert_eq!(breakdown.count(Step::Scan), 1);
    }

    #[test]
    fn footprint_accounts_for_all_components() {
        let mut t = ImTree::new(config(1 << 12, 1.0));
        for i in 0..(1 << 12) as i64 {
            t.insert(i, i as Seq);
        }
        t.merge(0);
        for i in 0..100i64 {
            t.insert(i, (4096 + i) as Seq);
        }
        let f = t.footprint();
        assert!(f.ts_leaf_bytes > 0);
        assert!(f.ts_inner_bytes > 0);
        assert!(f.ti_bytes > 0);
        assert!(f.merge_buffer_bytes >= f.ts_leaf_bytes);
        assert_eq!(f.entries, t.len());
        assert_eq!(f.partitions, 1);
    }

    #[test]
    #[should_panic(expected = "invalid IM-Tree configuration")]
    fn invalid_config_rejected() {
        let _ = ImTree::new(PimConfig::for_window(0));
    }
}
