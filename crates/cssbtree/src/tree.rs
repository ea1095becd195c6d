//! The immutable CSS-Tree structure and its search operations.

use pimtree_btree::Entry;
use pimtree_common::{prefetch_slice, simd, Key, KeyRange, ProbeCounters};

/// Lower bound of `target` inside one sorted entry block: a SIMD
/// compare-mask count over the keys (see `pimtree_common::simd`), then a
/// scalar walk over the (usually empty) equal-key run to honor the `seq`
/// tie-break. Returns exactly `block.partition_point(|&e| e < target)`.
#[inline]
fn node_lower_bound(block: &[Entry], target: Entry) -> usize {
    // SAFETY: `Entry` is `#[repr(C)] { key: i64, seq: u64 }` — 16 bytes with
    // 8-byte alignment, layout-identical to `[i64; 2]`; the second lane is
    // never interpreted as a value by the kernel.
    let pairs: &[[i64; 2]] =
        unsafe { core::slice::from_raw_parts(block.as_ptr().cast(), block.len()) };
    let mut i = simd::count_keys_below(pairs, target.key);
    while i < block.len() && block[i].key == target.key && block[i].seq < target.seq {
        i += 1;
    }
    i
}

/// Attributes `searches` intra-node lower bounds to the kernel that answered
/// them (the dispatch level is fixed process-wide).
#[inline]
fn count_node_searches(counters: &mut ProbeCounters, searches: u64) {
    if simd::simd_active() {
        counters.simd_node_searches += searches;
    } else {
        counters.scalar_node_searches += searches;
    }
}

/// How many targets ahead of the cursor the group descent prefetches the
/// node block each level will visit (and how many children of a level seed
/// the next level's lookahead). Lookaheads of 0 and 8 measured no better end
/// to end (docs/ARCHITECTURE.md, "Probe paths").
const PREFETCH_DIST: usize = 4;

/// Structural statistics of a [`CssTree`], used for the memory-footprint
/// comparison of Figure 11a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CssStats {
    /// Number of entries stored in the leaf array.
    pub entries: usize,
    /// Number of inner key slots (including right-edge padding).
    pub inner_slots: usize,
    /// Number of inner levels (0 when the tree fits in a single leaf level).
    pub inner_levels: usize,
    /// Payload bytes of the leaf array.
    pub leaf_bytes: usize,
    /// Payload bytes of the inner key array.
    pub inner_bytes: usize,
}

impl CssStats {
    /// Total payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.leaf_bytes + self.inner_bytes
    }
}

/// An immutable B+-Tree over a sorted array of [`Entry`] values.
///
/// Construction goes through [`crate::CssBuilder`] (or the convenience
/// constructors below); after that the tree is strictly read-only.
#[derive(Debug, Clone)]
pub struct CssTree {
    /// All entries, sorted by `(key, seq)`, conceptually grouped into leaf
    /// nodes of `leaf_size` entries.
    pub(crate) leaves: Vec<Entry>,
    /// Breadth-first inner key array: level 0 (root) first, `fanout` key slots
    /// per node. Slot `k` of a node holds the maximum entry of its `k`-th
    /// child's subtree; slots past the last real child are padded with
    /// `Entry::max_for_key(Key::MAX)` so that slots stay monotonically
    /// non-decreasing.
    pub(crate) inner: Vec<Entry>,
    /// Node-index offset of each inner level inside `inner` (in nodes).
    pub(crate) level_offsets: Vec<usize>,
    /// Number of nodes per inner level, root level first.
    pub(crate) level_sizes: Vec<usize>,
    /// Maximum real entry of each node's subtree, per inner level.
    pub(crate) level_maxes: Vec<Vec<Entry>>,
    /// Keys (= children) per inner node.
    pub(crate) fanout: usize,
    /// Entries per leaf group.
    pub(crate) leaf_size: usize,
}

impl CssTree {
    /// Builds a tree from entries already sorted by `(key, seq)`, using the
    /// default fan-out and leaf size.
    pub fn from_sorted(entries: Vec<Entry>) -> Self {
        crate::CssBuilder::new().build(entries)
    }

    /// Builds an empty tree.
    pub fn empty() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Inner-node fan-out.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Entries per leaf group.
    #[inline]
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Number of inner levels (0 if the tree is a single leaf level).
    #[inline]
    pub fn inner_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Number of leaf groups.
    #[inline]
    pub fn leaf_groups(&self) -> usize {
        if self.leaves.is_empty() {
            0
        } else {
            self.leaves.len().div_ceil(self.leaf_size)
        }
    }

    /// Number of inner nodes at `depth` (root = depth 0). Depths past the
    /// deepest inner level report the number of leaf groups; an empty tree
    /// reports 1 so that callers can always size a partition array.
    pub fn nodes_at_depth(&self, depth: usize) -> usize {
        if depth < self.level_sizes.len() {
            self.level_sizes[depth]
        } else {
            self.leaf_groups().max(1)
        }
    }

    /// The sorted leaf array.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.leaves
    }

    /// Largest entry, if any.
    pub fn max_entry(&self) -> Option<Entry> {
        self.leaves.last().copied()
    }

    /// Smallest entry, if any.
    pub fn min_entry(&self) -> Option<Entry> {
        self.leaves.first().copied()
    }

    fn keys_of(&self, level: usize, node: usize) -> &[Entry] {
        let base = (self.level_offsets[level] + node) * self.fanout;
        &self.inner[base..base + self.fanout]
    }

    /// Number of real children of `node` at inner `level`.
    fn real_children(&self, level: usize, node: usize) -> usize {
        let below = if level + 1 < self.level_sizes.len() {
            self.level_sizes[level + 1]
        } else {
            self.leaf_groups()
        };
        let base = node * self.fanout;
        self.fanout.min(below.saturating_sub(base)).max(1)
    }

    /// Descends the inner levels for `target`, returning the node index at
    /// `stop_depth` (root = depth 0). Descending all `inner_levels()` levels
    /// returns a leaf-group index.
    pub fn descend_to_depth(&self, target: Entry, stop_depth: usize) -> usize {
        let depth = stop_depth.min(self.level_sizes.len());
        let mut node = 0usize;
        for level in 0..depth {
            let keys = self.keys_of(level, node);
            let mut k = node_lower_bound(keys, target);
            let real = self.real_children(level, node);
            if k >= real {
                k = real - 1;
            }
            node = node * self.fanout + k;
        }
        node
    }

    /// Position of the first entry `>= target` in the leaf array (equals
    /// `len()` when every entry is smaller).
    pub fn lower_bound(&self, target: Entry) -> usize {
        if self.leaves.is_empty() {
            return 0;
        }
        if self.level_sizes.is_empty() {
            return node_lower_bound(&self.leaves, target);
        }
        let group = self.descend_to_depth(target, self.level_sizes.len());
        let start = group * self.leaf_size;
        let end = (start + self.leaf_size).min(self.leaves.len());
        start + node_lower_bound(&self.leaves[start..end], target)
    }

    /// Position of the first entry with key `>= key`.
    #[inline]
    pub fn lower_bound_key(&self, key: Key) -> usize {
        self.lower_bound(Entry::min_for_key(key))
    }

    /// The entries of leaf group `group` (the last group may be short).
    #[inline]
    fn leaf_group_slice(&self, group: usize) -> &[Entry] {
        let start = group * self.leaf_size;
        let end = (start + self.leaf_size).min(self.leaves.len());
        &self.leaves[start..end]
    }

    /// The ancestor node index at `depth` of a leaf group's descent path
    /// (root = depth 0). Because a descent step computes
    /// `child = node * fanout + k`, the node visited at `depth` is the
    /// repeated integer quotient of the leaf group by the fan-out — no
    /// re-descent needed. A tree without inner levels has a single root
    /// "node" (index 0); depths at or past the deepest inner level return the
    /// leaf group itself.
    pub fn ancestor_at_depth(&self, leaf_group: usize, depth: usize) -> usize {
        let levels = self.level_sizes.len();
        if levels == 0 {
            return 0;
        }
        let mut node = leaf_group;
        for _ in depth.min(levels)..levels {
            node /= self.fanout;
        }
        node
    }

    /// Batched [`CssTree::lower_bound`]: resolves the leaf position of every
    /// target in one level-wise group descent, issuing software prefetches
    /// for the node key blocks the group is about to visit.
    ///
    /// Instead of walking root → leaf once per key (each level a dependent
    /// cache miss), the whole group advances one level at a time: while the
    /// descent resolves key `i` at a level, the key block that key
    /// `i + PREFETCH_DIST` will search at the same level is already being
    /// prefetched, and the first `PREFETCH_DIST` children computed in a pass
    /// are prefetched immediately so the next level starts with its lookahead
    /// window in flight. This is the group-probe pattern the cache-sensitive
    /// breadth-first layout was designed for: node addresses are computed
    /// arithmetically, so the next level's blocks are known before any of
    /// them is touched. Sorting `targets` improves locality but is not
    /// required for correctness.
    ///
    /// `positions` is cleared and filled with one leaf position per target
    /// (same order, same values as scalar [`CssTree::lower_bound`]);
    /// `groups` with the leaf group each descent landed in (always 0 when the
    /// tree has no inner levels). A group is captured *before* the final
    /// in-leaf search, so it is exactly the value
    /// [`CssTree::descend_to_depth`] would return for the full descent —
    /// callers derive the routing node at any shallower depth arithmetically
    /// with [`CssTree::ancestor_at_depth`] instead of re-descending from the
    /// root. Prefetched node blocks and SIMD/scalar intra-node searches are
    /// recorded into `counters`.
    pub fn lower_bound_batch(
        &self,
        targets: &[Entry],
        positions: &mut Vec<usize>,
        groups: &mut Vec<usize>,
        counters: &mut ProbeCounters,
    ) {
        positions.clear();
        groups.clear();
        let n = targets.len();
        if n == 0 {
            return;
        }
        if self.leaves.is_empty() || self.level_sizes.is_empty() {
            // Empty tree, or a single leaf level: no inner nodes to descend
            // or prefetch, and no descent path — every "group" is the root.
            if self.leaves.is_empty() {
                positions.resize(n, 0);
            } else {
                positions.extend(targets.iter().map(|&t| node_lower_bound(&self.leaves, t)));
                count_node_searches(counters, n as u64);
            }
            groups.resize(n, 0);
            return;
        }
        // `positions` doubles as the per-target node cursor while descending.
        positions.resize(n, 0);
        let d = PREFETCH_DIST;
        let levels = self.level_sizes.len();
        let mut prefetched = 0u64;
        let mut searches = 0u64;
        for level in 0..levels {
            for i in 0..n {
                // Rolling lookahead within the level (skipped at the root,
                // where every key reads the same block).
                if level > 0 && i + d < n {
                    prefetch_slice(self.keys_of(level, positions[i + d]));
                    prefetched += 1;
                }
                let keys = self.keys_of(level, positions[i]);
                let mut k = node_lower_bound(keys, targets[i]);
                searches += 1;
                let real = self.real_children(level, positions[i]);
                if k >= real {
                    k = real - 1;
                }
                let child = positions[i] * self.fanout + k;
                positions[i] = child;
                // Seed the next level's lookahead window with the first `d`
                // children computed in this pass.
                if i < d {
                    if level + 1 < levels {
                        prefetch_slice(self.keys_of(level + 1, child));
                    } else {
                        prefetch_slice(self.leaf_group_slice(child));
                    }
                    prefetched += 1;
                }
            }
        }
        // The cursors now hold leaf-group indexes: snapshot them for callers
        // that derive partition-routing ancestors arithmetically.
        groups.extend_from_slice(positions);
        // Leaf pass.
        for i in 0..n {
            if i + d < n {
                prefetch_slice(self.leaf_group_slice(positions[i + d]));
                prefetched += 1;
            }
            let group = self.leaf_group_slice(positions[i]);
            let start = positions[i] * self.leaf_size;
            positions[i] = start + node_lower_bound(group, targets[i]);
            searches += 1;
        }
        counters.nodes_prefetched += prefetched;
        count_node_searches(counters, searches);
    }

    /// The sorted run that starts at leaf position `pos` and ends before the
    /// first key above `hi`: a slice of the leaf array (empty when `pos` is
    /// `len()` or the entry there is already past `hi`). `pos` comes from a
    /// lower bound — scalar or batched — so a probe that has
    /// resolved its start gets its whole answer without touching an entry.
    #[inline]
    pub fn run_from(&self, pos: usize, hi: Key) -> &[Entry] {
        let tail = &self.leaves[pos..];
        &tail[..tail.iter().take_while(|e| e.key <= hi).count()]
    }

    /// The entries whose key lies in `range` (bounds inclusive), as one
    /// sorted slice of the leaf array.
    #[inline]
    pub fn range_run(&self, range: KeyRange) -> &[Entry] {
        self.run_from(self.lower_bound_key(range.lo), range.hi)
    }

    /// Calls `f` for every entry of [`CssTree::range_run`], in ascending
    /// order, and returns how many there were. The run's end is found while
    /// visiting it, so an entry-at-a-time caller walks the run once, not
    /// twice.
    pub fn range_for_each<F: FnMut(Entry)>(&self, range: KeyRange, mut f: F) -> usize {
        let tail = &self.leaves[self.lower_bound_key(range.lo)..];
        let inside = tail.iter().take_while(|e| e.key <= range.hi);
        inside.map(|&e| f(e)).count()
    }

    /// Collects every entry whose key lies in `range`.
    pub fn range_collect(&self, range: KeyRange) -> Vec<Entry> {
        self.range_run(range).to_vec()
    }

    /// The routing boundary of partition `p` at `depth`: the maximum entry of
    /// that subtree. Entries routed to partition `p` are `<=` this bound (the
    /// last partition's bound covers everything above as well).
    pub fn partition_upper_bound(&self, depth: usize, p: usize) -> Entry {
        if depth < self.level_maxes.len() {
            self.level_maxes[depth][p]
        } else if self.leaves.is_empty() {
            Entry::max_for_key(Key::MAX)
        } else {
            // Partitions are leaf groups.
            let start = p * self.leaf_size;
            let end = ((p + 1) * self.leaf_size).min(self.leaves.len());
            self.leaves[end.max(start + 1) - 1]
        }
    }

    /// Structural statistics.
    pub fn stats(&self) -> CssStats {
        CssStats {
            entries: self.leaves.len(),
            inner_slots: self.inner.len(),
            inner_levels: self.level_sizes.len(),
            leaf_bytes: self.leaves.len() * std::mem::size_of::<Entry>(),
            inner_bytes: self.inner.len() * std::mem::size_of::<Entry>(),
        }
    }

    /// Verifies the structural invariants (sortedness, routing consistency),
    /// panicking on the first violation. Intended for tests.
    pub fn check_invariants(&self) {
        assert!(
            self.leaves.windows(2).all(|w| w[0] <= w[1]),
            "leaf array is not sorted"
        );
        if self.level_sizes.is_empty() {
            return;
        }
        assert_eq!(self.level_sizes.len(), self.level_offsets.len());
        assert_eq!(self.level_sizes.len(), self.level_maxes.len());
        // Every entry must be found at its own position via the inner levels.
        for (i, &e) in self.leaves.iter().enumerate() {
            let pos = self.lower_bound(e);
            assert!(
                pos <= i && self.leaves[pos] == e,
                "lower_bound({e:?}) = {pos}, expected a position at or before {i} holding the entry"
            );
        }
        // Keys within each inner node must be non-decreasing.
        for level in 0..self.level_sizes.len() {
            for node in 0..self.level_sizes[level] {
                let keys = self.keys_of(level, node);
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "inner node ({level}, {node}) keys out of order"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n as i64).map(|i| Entry::new(i * 2, i as u64)).collect()
    }

    fn tree(n: usize, fanout: usize, leaf: usize) -> CssTree {
        crate::CssBuilder::new()
            .fanout(fanout)
            .leaf_size(leaf)
            .build(entries(n))
    }

    /// `node_lower_bound` is `partition_point` under the full `(key, seq)`
    /// order, whichever kernel counts the keys: an equal-key run at every
    /// start and length (so across every 4-entry vector boundary, into the
    /// sub-vector tail, and the whole block), probed below, inside and above
    /// its `seq`s; then an inner node padded with sentinel slots, probed with
    /// the sentinel itself and both corners of `Key`.
    #[test]
    fn node_lower_bound_honours_the_seq_tie_break() {
        let check = |block: &[Entry], target: Entry| {
            assert_eq!(
                node_lower_bound(block, target),
                block.partition_point(|&e| e < target),
                "{target:?} in {block:?}"
            );
        };
        for len in 0..=18usize {
            for start in 0..=len {
                for end in start..=len {
                    // Keys 3, then a run of 5s with seqs 10, 12, ..., then 8.
                    let block: Vec<Entry> = (0..len)
                        .map(|i| {
                            if i < start {
                                Entry::new(3, i as u64)
                            } else if i < end {
                                Entry::new(5, 10 + 2 * (i - start) as u64)
                            } else {
                                Entry::new(8, i as u64)
                            }
                        })
                        .collect();
                    for seq in (9..=11 + 2 * (end - start) as u64).chain([0, u64::MAX]) {
                        check(&block, Entry::new(5, seq));
                    }
                    for key in [Key::MIN, 2, 3, 4, 6, 8, 9, Key::MAX] {
                        check(&block, Entry::min_for_key(key));
                        check(&block, Entry::max_for_key(key));
                    }
                }
            }
        }
        for real in 0..=8usize {
            let mut node: Vec<Entry> = (0..real)
                .map(|i| Entry::new(Key::MIN + (i / 2) as Key, i as u64))
                .collect();
            node.resize(8, Entry::max_for_key(Key::MAX));
            for key in [Key::MIN, Key::MIN + 1, Key::MIN + 4, -1, 0, Key::MAX] {
                for seq in [0, 1, 3, u64::MAX - 1, u64::MAX] {
                    check(&node, Entry::new(key, seq));
                }
            }
        }
    }

    #[test]
    fn empty_tree() {
        let t = CssTree::empty();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lower_bound_key(5), 0);
        assert_eq!(t.leaf_groups(), 0);
        assert_eq!(t.nodes_at_depth(0), 1);
        assert!(t.range_collect(KeyRange::new(0, 100)).is_empty());
        t.check_invariants();
    }

    #[test]
    fn single_leaf_group_uses_no_inner_levels() {
        let t = tree(8, 4, 8);
        assert_eq!(t.inner_levels(), 0);
        assert_eq!(t.leaf_groups(), 1);
        assert_eq!(t.lower_bound_key(0), 0);
        assert_eq!(t.lower_bound_key(3), 2);
        assert_eq!(t.lower_bound_key(14), 7);
        assert_eq!(t.lower_bound_key(15), 8);
        t.check_invariants();
    }

    #[test]
    fn multi_level_lower_bound_matches_binary_search() {
        for n in [9, 64, 65, 100, 1000, 4096, 5000] {
            let t = tree(n, 4, 4);
            t.check_invariants();
            for probe in -1..(2 * n as i64 + 2) {
                let expected = t.entries().partition_point(|e| e.key < probe);
                assert_eq!(t.lower_bound_key(probe), expected, "n={n} probe={probe}");
            }
        }
    }

    #[test]
    fn range_scan_matches_filter() {
        let t = tree(500, 8, 8);
        let r = KeyRange::new(100, 200);
        let got = t.range_collect(r);
        let expected: Vec<Entry> = t
            .entries()
            .iter()
            .copied()
            .filter(|e| r.contains(e.key))
            .collect();
        assert_eq!(got, expected);
        // Out-of-domain ranges.
        assert!(t.range_collect(KeyRange::new(-50, -1)).is_empty());
        assert!(t.range_collect(KeyRange::new(10_000, 20_000)).is_empty());
    }

    /// Every range over a small key domain with duplicates and both corners
    /// of `Key`, on a tree whose ranges cross leaf groups: the run is exactly
    /// the sorted entries filtered by key, as a slice of the leaf array, and
    /// the entry-at-a-time wrapper visits the same entries.
    #[test]
    fn range_run_is_the_slice_of_entries_in_the_range() {
        let keys = [Key::MIN, Key::MIN + 1, -3, 0, 0, 0, 0, 0, 0, 2, 5, 5, 9];
        let mut entries: Vec<Entry> = (0..3u64)
            .flat_map(|round| {
                keys.iter()
                    .chain(&[Key::MAX - 1, Key::MAX])
                    .enumerate()
                    .map(move |(i, &key)| Entry::new(key, round * 100 + i as u64))
            })
            .collect();
        entries.sort_unstable();
        let t = crate::CssBuilder::new()
            .fanout(2)
            .leaf_size(4)
            .build(entries.clone());
        let bounds = [Key::MIN, Key::MIN + 1, -4, -3, 0, 1, 2, 5, 9, 10];
        let bounds = bounds.iter().chain(&[Key::MAX - 1, Key::MAX]);
        for &lo in bounds.clone() {
            for &hi in bounds.clone().filter(|&&hi| hi >= lo) {
                let range = KeyRange::new(lo, hi);
                let want: Vec<Entry> = entries
                    .iter()
                    .copied()
                    .filter(|e| range.contains(e.key))
                    .collect();
                let run = t.range_run(range);
                assert_eq!(run, want, "{range:?}");
                if !run.is_empty() {
                    assert!(t.entries().as_ptr_range().contains(&run.as_ptr()));
                }
                let mut visited = Vec::new();
                assert_eq!(t.range_for_each(range, |e| visited.push(e)), want.len());
                assert_eq!(visited, want, "{range:?}");
            }
        }
        assert!(t.run_from(t.len(), Key::MAX).is_empty());
    }

    #[test]
    fn nodes_at_depth_and_partition_bounds() {
        // 4096 entries, leaf groups of 32 -> 128 groups; fan-out 8 ->
        // level sizes (from deepest): 16, 2, 1 -> root at depth 0 has 2 real children.
        let t = tree(4096, 8, 32);
        assert_eq!(t.leaf_groups(), 128);
        assert_eq!(t.inner_levels(), 3);
        assert_eq!(t.nodes_at_depth(0), 1);
        assert_eq!(t.nodes_at_depth(1), 2);
        assert_eq!(t.nodes_at_depth(2), 16);
        assert_eq!(t.nodes_at_depth(3), 128);
        // Partition bounds at depth 2 are increasing and the last one covers
        // the maximum entry.
        let bounds: Vec<Entry> = (0..16).map(|p| t.partition_upper_bound(2, p)).collect();
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(bounds[15], t.max_entry().unwrap());
        // Every entry routed to partition p at depth 2 is <= its bound.
        for &e in t.entries() {
            let p = t.descend_to_depth(e, 2);
            assert!(
                e <= t.partition_upper_bound(2, p),
                "entry {e:?} exceeds bound of partition {p}"
            );
        }
    }

    #[test]
    fn descend_to_depth_zero_is_root() {
        let t = tree(1000, 8, 8);
        assert_eq!(t.descend_to_depth(Entry::new(0, 0), 0), 0);
    }

    #[test]
    fn duplicates_lower_bound_finds_first() {
        let mut e: Vec<Entry> = Vec::new();
        for s in 0..100u64 {
            e.push(Entry::new(10, s));
        }
        for s in 0..100u64 {
            e.push(Entry::new(20, s));
        }
        let t = crate::CssBuilder::new().fanout(4).leaf_size(4).build(e);
        t.check_invariants();
        assert_eq!(t.lower_bound_key(10), 0);
        assert_eq!(t.lower_bound_key(11), 100);
        assert_eq!(t.lower_bound_key(20), 100);
        assert_eq!(t.lower_bound_key(21), 200);
        assert_eq!(t.range_collect(KeyRange::point(10)).len(), 100);
    }

    #[test]
    fn stats_report_sizes() {
        let t = tree(1000, 8, 8);
        let s = t.stats();
        assert_eq!(s.entries, 1000);
        assert!(s.inner_levels >= 2);
        assert_eq!(s.leaf_bytes, 1000 * std::mem::size_of::<Entry>());
        assert!(s.inner_bytes > 0);
        assert_eq!(s.total_bytes(), s.leaf_bytes + s.inner_bytes);
    }

    /// Batch lengths the batch-descent tests sweep: empty, one, the
    /// lookahead window and one either side of it, and a batch many windows
    /// long.
    const BATCH_LENGTHS: [usize; 6] = [
        0,
        1,
        PREFETCH_DIST - 1,
        PREFETCH_DIST,
        PREFETCH_DIST + 1,
        64,
    ];

    /// `len` targets drawn from `probes` in order, cycling (none when
    /// `probes` is empty).
    fn batch_of(probes: &[Entry], len: usize) -> Vec<Entry> {
        probes.iter().copied().cycle().take(len).collect()
    }

    /// Batch/scalar parity for a batch of every length in `BATCH_LENGTHS`
    /// drawn from `probes`: positions are scalar `lower_bound`'s, groups the
    /// full `descend_to_depth`'s, and the counters hold exactly one prefetch
    /// per target and level below the root and one node search per target
    /// and level plus its leaf group — whatever the batch's length against
    /// the lookahead window.
    fn assert_batch_matches_scalar(t: &CssTree, probes: &[Entry]) {
        let levels = t.inner_levels();
        for len in BATCH_LENGTHS {
            let batch = batch_of(probes, len);
            let mut positions = vec![usize::MAX; 3];
            let mut groups = vec![usize::MAX; 3];
            let mut counters = ProbeCounters::default();
            t.lower_bound_batch(&batch, &mut positions, &mut groups, &mut counters);
            let want: Vec<usize> = batch.iter().map(|&p| t.lower_bound(p)).collect();
            assert_eq!(positions, want, "batch length {len}");
            let descents: Vec<usize> = batch
                .iter()
                .map(|&p| t.descend_to_depth(p, levels))
                .collect();
            assert_eq!(groups, descents, "batch length {len}");
            let n = batch.len() as u64;
            let (prefetches, searches) = if t.is_empty() {
                (0, 0)
            } else {
                (n * levels as u64, n * (levels as u64 + 1))
            };
            assert_eq!(counters.nodes_prefetched, prefetches, "batch length {len}");
            assert_eq!(
                counters.simd_node_searches + counters.scalar_node_searches,
                searches,
                "batch length {len}"
            );
        }
    }

    #[test]
    fn batched_lower_bound_on_empty_tree() {
        let t = CssTree::empty();
        let probes = [Entry::min_for_key(0), Entry::min_for_key(100)];
        assert_batch_matches_scalar(&t, &probes);
        let (mut positions, mut groups) = (Vec::new(), Vec::new());
        let mut counters = ProbeCounters::default();
        t.lower_bound_batch(&probes, &mut positions, &mut groups, &mut counters);
        assert_eq!(positions, vec![0, 0]);
        assert_eq!(groups, vec![0, 0]);
        assert_eq!(
            counters,
            ProbeCounters::default(),
            "an empty tree does no work"
        );
        assert!(t.range_run(KeyRange::new(0, 100)).is_empty());
        assert!(t.run_from(0, Key::MAX).is_empty());
    }

    #[test]
    fn batched_lower_bound_on_single_node_tree() {
        // One entry, and separately one leaf group (no inner levels).
        for n in [1usize, 7] {
            let t = tree(n, 4, 8);
            assert_eq!(t.inner_levels(), 0);
            let probes: Vec<Entry> = (-2..2 * n as i64 + 2).map(Entry::min_for_key).collect();
            assert_batch_matches_scalar(&t, &probes);
        }
    }

    #[test]
    fn batched_lower_bound_with_all_duplicate_keys() {
        let entries: Vec<Entry> = (0..200u64).map(|s| Entry::new(42, s)).collect();
        let t = crate::CssBuilder::new()
            .fanout(4)
            .leaf_size(4)
            .build(entries);
        let probes = vec![Entry::min_for_key(42); 16];
        assert_batch_matches_scalar(&t, &probes);
        let ranges = [
            KeyRange::point(42),
            KeyRange::new(0, 41),
            KeyRange::new(43, 100),
        ];
        let per_range: Vec<usize> = ranges.iter().map(|&r| t.range_run(r).len()).collect();
        assert_eq!(per_range, vec![200, 0, 0]);
    }

    #[test]
    fn batched_lower_bound_outside_the_indexed_range() {
        let t = tree(1000, 8, 8); // keys 0, 2, ..., 1998
        let probes = [
            Entry::min_for_key(-500),
            Entry::min_for_key(i64::MIN),
            Entry::min_for_key(5000),
            Entry::min_for_key(i64::MAX),
            Entry::max_for_key(1998),
        ];
        assert_batch_matches_scalar(&t, &probes);
        for range in [KeyRange::new(-100, -1), KeyRange::new(2000, 9000)] {
            assert!(
                t.range_run(range).is_empty(),
                "out-of-range probes must match nothing"
            );
        }
    }

    #[test]
    fn batched_lower_bound_matches_scalar_on_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for (n, fanout, leaf) in [(9, 4, 4), (100, 4, 4), (1000, 8, 8), (5000, 32, 32)] {
            let t = tree(n, fanout, leaf);
            let mut probes: Vec<Entry> = (0..64)
                .map(|_| Entry::new(rng.gen_range(-10..2 * n as i64 + 10), rng.gen()))
                .collect();
            assert_batch_matches_scalar(&t, &probes);
            // The engine hands the descent its targets sorted.
            probes.sort_unstable();
            assert_batch_matches_scalar(&t, &probes);
        }
    }

    #[test]
    fn batched_probe_matches_range_collect() {
        let t = tree(2000, 8, 8);
        let ranges = [
            KeyRange::new(100, 150),
            KeyRange::new(0, 0),
            KeyRange::new(3990, 4100),
            KeyRange::new(-5, 5),
            KeyRange::new(700, 700),
        ];
        // What a batched probe is made of: one group descent for the starts,
        // then one slice of the leaf array per range.
        let targets: Vec<Entry> = ranges.iter().map(|r| Entry::min_for_key(r.lo)).collect();
        let (mut starts, mut groups) = (Vec::new(), Vec::new());
        let mut counters = ProbeCounters::default();
        t.lower_bound_batch(&targets, &mut starts, &mut groups, &mut counters);
        assert!(
            counters.nodes_prefetched > 0,
            "a multi-level tree prefetches nodes"
        );
        for (range, &start) in ranges.iter().zip(&starts) {
            let want: Vec<Entry> = t
                .entries()
                .iter()
                .copied()
                .filter(|e| range.contains(e.key))
                .collect();
            assert_eq!(t.run_from(start, range.hi), want, "range {range:?}");
            assert_eq!(t.range_collect(*range), want, "range {range:?}");
        }
    }

    #[test]
    fn ancestor_at_depth_matches_the_real_descent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (n, fanout, leaf) in [(9, 4, 4), (257, 4, 4), (1000, 8, 8), (4096, 8, 32)] {
            let t = tree(n, fanout, leaf);
            let levels = t.inner_levels();
            let probes: Vec<Entry> = (0..64)
                .map(|_| Entry::new(rng.gen_range(-5..2 * n as i64 + 5), rng.gen()))
                .collect();
            for &p in &probes {
                let group = t.descend_to_depth(p, levels);
                for depth in 0..=levels {
                    assert_eq!(
                        t.ancestor_at_depth(group, depth),
                        t.descend_to_depth(p, depth),
                        "n={n} fanout={fanout} target={p:?} depth={depth}"
                    );
                }
            }
        }
        // Degenerate shapes: empty tree and single leaf level route to 0.
        assert_eq!(CssTree::empty().ancestor_at_depth(0, 0), 0);
        let flat = tree(7, 4, 8);
        assert_eq!(flat.inner_levels(), 0);
        assert_eq!(flat.ancestor_at_depth(0, 0), 0);
        assert_eq!(flat.ancestor_at_depth(3, 2), 0);
    }

    #[test]
    fn lower_bound_batch_groups_captures_the_descent_group() {
        let t = tree(4096, 8, 32);
        let levels = t.inner_levels();
        let targets: Vec<Entry> = (-2..50).map(|k| Entry::min_for_key(k * 173)).collect();
        let mut positions = Vec::new();
        let mut groups = Vec::new();
        let mut counters = ProbeCounters::default();
        for len in BATCH_LENGTHS {
            let batch = batch_of(&targets, len);
            t.lower_bound_batch(&batch, &mut positions, &mut groups, &mut counters);
            assert_eq!(positions.len(), len);
            assert_eq!(groups.len(), len);
            for (i, &target) in batch.iter().enumerate() {
                assert_eq!(positions[i], t.lower_bound(target), "length {len}");
                assert_eq!(
                    groups[i],
                    t.descend_to_depth(target, levels),
                    "length {len}, target {target:?}"
                );
            }
        }
        // Degenerate shapes report group 0 for every target.
        for degenerate in [CssTree::empty(), tree(7, 4, 8)] {
            degenerate.lower_bound_batch(&targets, &mut positions, &mut groups, &mut counters);
            assert_eq!(groups, vec![0; targets.len()]);
        }
        t.lower_bound_batch(&[], &mut positions, &mut groups, &mut counters);
        assert!(positions.is_empty() && groups.is_empty());
    }

    #[test]
    fn batch_descent_edge_cases_and_counter_accounting() {
        // Empty tree: every position and group is 0, nothing is searched or
        // prefetched.
        let empty = CssTree::empty();
        let probes = [Entry::min_for_key(0), Entry::min_for_key(100)];
        let mut pos = Vec::new();
        let mut groups = Vec::new();
        let mut c = ProbeCounters::default();
        empty.lower_bound_batch(&probes, &mut pos, &mut groups, &mut c);
        assert_eq!(pos, vec![0, 0]);
        assert_eq!(groups, vec![0, 0]);
        assert_eq!(c, ProbeCounters::default());

        // Empty batch: stale outputs cleared, nothing counted.
        let t = tree(4096, 8, 32);
        t.lower_bound_batch(&[], &mut pos, &mut groups, &mut c);
        assert!(pos.is_empty() && groups.is_empty());
        assert_eq!(c, ProbeCounters::default());

        // Multi-level tree: the counters accumulate across calls, one
        // prefetch per target and level below the root, one node search per
        // target and level plus the leaf group.
        let levels = t.inner_levels() as u64;
        assert!(levels >= 2, "test tree must be multi-level");
        let targets: Vec<Entry> = (-3..61).map(|k| Entry::min_for_key(k * 131)).collect();
        let n = targets.len() as u64;
        for calls in 1..=2u64 {
            t.lower_bound_batch(&targets, &mut pos, &mut groups, &mut c);
            assert_eq!(c.nodes_prefetched, calls * n * levels);
            assert_eq!(
                c.simd_node_searches + c.scalar_node_searches,
                calls * n * (levels + 1)
            );
        }
        assert_eq!(c.batches, 0, "batch bookkeeping is the PIM-Tree's");
    }

    #[test]
    fn higher_fanout_means_fewer_levels() {
        let narrow = tree(100_000, 4, 16);
        let wide = tree(100_000, 64, 16);
        assert!(wide.inner_levels() < narrow.inner_levels());
    }
}
