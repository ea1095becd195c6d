//! The merge step shared by IM-Tree and PIM-Tree.
//!
//! A merge combines the live tuples of the immutable component `TS` with the
//! (already sorted) contents of the mutable component `TI` into one sorted
//! array and bulk-builds a new `TS` from it. Expired tuples — those whose
//! sequence number lies before the earliest live tuple of the sliding window —
//! are dropped on the way. The cost of this operation is linear in the window
//! size (Figure 14 / Equation 7).

use std::time::Duration;

use pimtree_btree::Entry;
use pimtree_common::{Key, PimConfig, Seq};
use pimtree_css::{CssBuilder, CssTree};

/// Outcome of one merge operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MergeReport {
    /// Wall-clock time of the merge: building the new `TS` included, and
    /// freeing the old one wherever the merge itself frees it.
    pub duration: Duration,
    /// Live entries carried over from the old `TS`.
    pub kept_from_ts: usize,
    /// Expired entries dropped from the old `TS`.
    pub dropped_expired: usize,
    /// Entries moved in from the mutable component.
    pub from_ti: usize,
    /// Number of entries in the new `TS`.
    pub new_len: usize,
    /// Number of mutable partitions after the merge (1 for the IM-Tree).
    pub partitions: usize,
}

/// One merge's pass over the entries of `TS` and the runs of `TI`, writing
/// the live ones in `(key, seq)` order into one array for the next `TS`.
///
/// `TI` arrives as sorted runs, pushed in ascending order: the PIM-Tree's
/// partitions cover disjoint, ascending key ranges, so its runs in partition
/// order are already one sorted sequence. For each `TI` entry the kernel
/// copies the `TS` entries at or below it and then the entry itself, every
/// one of them into the output's spare capacity, and advances the output
/// cursor only over live ones — a comparison result added as an integer, not
/// a branch. The only branch left that depends on the data is the exit of the
/// `TS` copy loop, taken once per `TI` entry.
#[derive(Debug)]
pub(crate) struct LiveMerge<'a> {
    /// The entries of `TS` not yet copied.
    ts: &'a [Entry],
    earliest_live: Seq,
    out: Vec<Entry>,
    /// Entries read so far, from both components.
    read: usize,
    /// Live entries taken from `TI` so far.
    from_ti: usize,
}

impl<'a> LiveMerge<'a> {
    /// Starts a merge of `ts` (sorted) with about `ti_len` entries of `TI`,
    /// dropping every entry whose sequence number lies before
    /// `earliest_live`. The output is sized for `ts.len() + ti_len` entries;
    /// more `TI` entries than that only cost a reallocation.
    pub(crate) fn new(ts: &'a [Entry], ti_len: usize, earliest_live: Seq) -> Self {
        LiveMerge {
            ts,
            earliest_live,
            out: Vec::with_capacity(ts.len() + ti_len),
            read: ts.len(),
            from_ti: 0,
        }
    }

    /// Merges the next sorted run of `TI`, whose first entry is at or above
    /// the last entry of every run pushed before it.
    pub(crate) fn push_run(&mut self, run: &[Entry]) {
        debug_assert!(
            run.windows(2).all(|w| w[0] <= w[1]),
            "TI run must be sorted"
        );
        self.read += run.len();
        self.merge_through(run, false);
    }

    /// Copies the rest of `TS` and returns the merged array with a report of
    /// its counts; `duration` and `partitions` are left for the caller.
    pub(crate) fn finish(mut self) -> (Vec<Entry>, MergeReport) {
        self.merge_through(&[], true);
        let new_len = self.out.len();
        let report = MergeReport {
            kept_from_ts: new_len - self.from_ti,
            dropped_expired: self.read - new_len,
            from_ti: self.from_ti,
            new_len,
            ..MergeReport::default()
        };
        (self.out, report)
    }

    /// The kernel: merges `run` with the `TS` entries at or below its last
    /// entry, then with the whole rest of `TS` if `rest` is set.
    fn merge_through(&mut self, run: &[Entry], rest: bool) {
        let (ts, live) = (self.ts, self.earliest_live);
        self.out.reserve(ts.len() + run.len());
        let spare = &mut self.out.spare_capacity_mut()[..ts.len() + run.len()];
        // `n` counts the live entries written, `i` the `TS` entries read.
        let (mut n, mut i, mut from_ti) = (0, 0, 0);
        for &y in run {
            let bound = order_of(y);
            while let Some(&x) = ts.get(i) {
                if order_of(x) > bound {
                    break;
                }
                spare[n].write(x);
                n += usize::from(x.seq >= live);
                i += 1;
            }
            spare[n].write(y);
            let kept = usize::from(y.seq >= live);
            n += kept;
            from_ti += kept;
        }
        if rest {
            for &x in &ts[i..] {
                spare[n].write(x);
                n += usize::from(x.seq >= live);
            }
            i = ts.len();
        }
        // SAFETY: every slot below `n` was written above: each entry read is
        // written at the cursor, and the cursor only ever moves one past an
        // entry just written. `n` is at most the `i + run.len()` entries
        // read, which the `reserve` above guaranteed fit in the spare
        // capacity.
        unsafe { self.out.set_len(self.out.len() + n) };
        self.ts = &ts[i..];
        self.from_ti += from_ti;
    }
}

/// `entry`'s place in the `(key, seq)` order as one unsigned integer, the
/// key's sign bit flipped: the kernel's loop exit compares two entries with
/// one wide, branch-free comparison instead of the derived order's two.
#[inline(always)]
fn order_of(entry: Entry) -> u128 {
    (u128::from((entry.key ^ Key::MIN) as u64) << 64) | u128::from(entry.seq)
}

/// Builds the immutable component configured by `config` from a sorted entry
/// array.
pub fn build_ts(config: &PimConfig, entries: Vec<Entry>) -> CssTree {
    CssBuilder::new()
        .fanout(config.css_fanout)
        .leaf_size(config.css_leaf_size)
        .build(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn css(entries: Vec<Entry>) -> CssTree {
        CssBuilder::new().fanout(4).leaf_size(4).build(entries)
    }

    /// `ts` merged with `ti` as one run: the merged array and the counts
    /// `(kept from TS, dropped, from TI)`.
    fn merge_live(
        ts: &CssTree,
        ti: &[Entry],
        earliest_live: Seq,
    ) -> (Vec<Entry>, usize, usize, usize) {
        let mut merge = LiveMerge::new(ts.entries(), ti.len(), earliest_live);
        merge.push_run(ti);
        let (merged, r) = merge.finish();
        assert_eq!(r.new_len, merged.len());
        (merged, r.kept_from_ts, r.dropped_expired, r.from_ti)
    }

    #[test]
    fn merge_interleaves_and_stays_sorted() {
        let ts = css((0..50).map(|i| Entry::new(i * 4, i as Seq)).collect());
        let ti: Vec<Entry> = (0..50)
            .map(|i| Entry::new(i * 4 + 2, (100 + i) as Seq))
            .collect();
        let (merged, kept, dropped, from_ti) = merge_live(&ts, &ti, 0);
        assert_eq!(merged.len(), 100);
        assert_eq!(kept, 50);
        assert_eq!(dropped, 0);
        assert_eq!(from_ti, 50);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn expired_entries_are_dropped_from_both_sides() {
        let ts = css((0..20).map(|i| Entry::new(i, i as Seq)).collect());
        let ti: Vec<Entry> = (0..10)
            .map(|i| Entry::new(100 + i, (20 + i) as Seq))
            .collect();
        // Everything with seq < 15 is expired.
        let (merged, kept, dropped, from_ti) = merge_live(&ts, &ti, 15);
        assert_eq!(kept, 5, "TS seqs 15..19 survive");
        assert_eq!(from_ti, 10);
        assert_eq!(dropped, 15);
        assert_eq!(merged.len(), 15);
        assert!(merged.iter().all(|e| e.seq >= 15));
    }

    #[test]
    fn merge_with_empty_sides() {
        let ts = css(Vec::new());
        let ti: Vec<Entry> = (0..5).map(|i| Entry::new(i, i as Seq)).collect();
        let (merged, kept, dropped, from_ti) = merge_live(&ts, &ti, 0);
        assert_eq!(merged.len(), 5);
        assert_eq!((kept, dropped, from_ti), (0, 0, 5));

        let ts = css((0..5).map(|i| Entry::new(i, i as Seq)).collect());
        let (merged, kept, dropped, from_ti) = merge_live(&ts, &[], 0);
        assert_eq!(merged.len(), 5);
        assert_eq!((kept, dropped, from_ti), (5, 0, 0));

        let ts = css(Vec::new());
        let (merged, ..) = merge_live(&ts, &[], 0);
        assert!(merged.is_empty());
    }

    #[test]
    fn duplicate_keys_across_components_are_preserved() {
        let ts = css(vec![Entry::new(7, 1), Entry::new(7, 3)]);
        let ti = vec![Entry::new(7, 2), Entry::new(7, 4)];
        let (merged, ..) = merge_live(&ts, &ti, 0);
        assert_eq!(
            merged,
            vec![
                Entry::new(7, 1),
                Entry::new(7, 2),
                Entry::new(7, 3),
                Entry::new(7, 4)
            ]
        );
    }

    #[test]
    fn build_ts_uses_config_geometry() {
        let cfg = PimConfig::for_window(1 << 12);
        let ts = build_ts(&cfg, (0..1000).map(|i| Entry::new(i, i as Seq)).collect());
        assert_eq!(ts.fanout(), cfg.css_fanout);
        assert_eq!(ts.leaf_size(), cfg.css_leaf_size);
        assert_eq!(ts.len(), 1000);
        ts.check_invariants();
    }

    mod kernel_properties {
        use super::*;
        use proptest::prelude::*;

        /// Both ends of the domain and a few keys between them; `distinct`
        /// below cuts the list down to its first few, so at 1 every key is
        /// the same.
        const KEYS: [Key; 6] = [3, Key::MIN, Key::MAX, -1, 0, 40];

        proptest! {
            // Small enough to run under Miri, which interprets the kernel's
            // writes into the output's spare capacity.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 12 } else { 256 }))]

            /// Whatever the split of `TI` into runs — empty ones included —
            /// the kernel's output is the live entries of both components,
            /// sorted, and its counts add up to every entry read.
            #[test]
            fn kernel_matches_a_sorted_vec(
                draws in prop::collection::vec((0usize..KEYS.len(), 0u64..64), 0..48),
                distinct in prop::sample::select(vec![1usize, 2, KEYS.len()]),
                // Share of the entries in `TS`, in eighths: 0 (empty `TS`) to 8
                // (empty `TI`).
                ts_eighths in 0usize..9,
                cuts in prop::collection::vec(0usize..48, 0..8),
                // Expiry: nothing, mid-window, past every entry.
                earliest_live in prop::sample::select(vec![0u64, 32, 64]),
            ) {
                let entries: Vec<Entry> = draws
                    .iter()
                    .map(|&(k, seq)| Entry::new(KEYS[k % distinct], seq))
                    .collect();
                let (ts, ti) = entries.split_at(entries.len() * ts_eighths / 8);
                let mut ts = ts.to_vec();
                ts.sort_unstable();
                let mut ti = ti.to_vec();
                ti.sort_unstable();
                let ts = css(ts);
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(ti.len())).collect();
                cuts.push(0);
                cuts.push(ti.len());
                cuts.sort_unstable();

                let mut merge = LiveMerge::new(ts.entries(), ti.len(), earliest_live);
                for cut in cuts.windows(2) {
                    merge.push_run(&ti[cut[0]..cut[1]]);
                }
                let (merged, report) = merge.finish();

                let mut want: Vec<Entry> = ts
                    .entries()
                    .iter()
                    .chain(&ti)
                    .copied()
                    .filter(|e| e.seq >= earliest_live)
                    .collect();
                want.sort_unstable();
                assert!(merged == want, "{merged:?} != {want:?}");
                assert!(report.new_len == merged.len());
                assert!(
                    report.kept_from_ts + report.dropped_expired + report.from_ti
                        == ts.len() + ti.len()
                );
                let live_ti = ti.iter().filter(|e| e.seq >= earliest_live).count();
                assert!(report.from_ti == live_ti);
            }
        }
    }
}
