//! Workload-aware range partitioning across NUMA nodes.
//!
//! The paper's NUMA discussion asks for a partitioning that balances the load
//! "considering the numbers of both input and output tuples of each interval":
//! an interval that receives few inserts but produces many join results (a hot
//! band) is as expensive as one that receives many inserts. The partitioner
//! therefore weighs every sampled key by `1 + output_weight`, where the output
//! weight estimates how many matches a tuple with that key produces.

use pimtree_common::Key;

/// Observed (or estimated) load of one key interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionLoad {
    /// Tuples inserted into the interval.
    pub inserts: u64,
    /// Join results produced by probes landing in the interval.
    pub outputs: u64,
}

impl PartitionLoad {
    /// Combined weight of the interval (the quantity the partitioner
    /// balances).
    pub fn weight(&self) -> u64 {
        self.inserts + self.outputs
    }
}

/// A range partitioning of the key domain into one contiguous interval per
/// NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartitioner {
    /// Upper boundaries (exclusive) of every node's interval except the last,
    /// ascending. Node `i` owns `[boundaries[i-1], boundaries[i])` with the
    /// conventional open ends at the extremes.
    boundaries: Vec<Key>,
    nodes: usize,
}

impl RangePartitioner {
    /// Builds a partitioning for `nodes` nodes from a sample of
    /// `(key, output_weight)` observations, balancing `1 + output_weight` per
    /// sample across nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn from_weighted_sample(nodes: usize, sample: &[(Key, u64)]) -> Self {
        assert!(nodes > 0, "need at least one node");
        if nodes == 1 || sample.is_empty() {
            return RangePartitioner {
                boundaries: vec![Key::MAX; nodes.saturating_sub(1)],
                nodes,
            };
        }
        let mut weighted: Vec<(Key, u64)> = sample.iter().map(|&(k, w)| (k, 1 + w)).collect();
        weighted.sort_unstable_by_key(|&(k, _)| k);
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let per_node = total.div_ceil(nodes as u64).max(1);
        let mut boundaries = Vec::with_capacity(nodes - 1);
        let mut acc = 0u64;
        let mut target = per_node;
        for &(key, w) in &weighted {
            if boundaries.len() == nodes - 1 {
                break;
            }
            acc += w;
            if acc >= target {
                // A near-constant sample can hit several targets on the same
                // key; duplicate boundaries would make `covering_shards`
                // report fan-out onto shards that `node_of` can never route
                // to (their interval is empty). Keep each boundary once —
                // the skipped shards become trailing `Key::MAX` intervals,
                // the same convention the empty-sample path uses.
                if boundaries.last() != Some(&key) {
                    boundaries.push(key);
                }
                target += per_node;
            }
        }
        while boundaries.len() < nodes - 1 {
            boundaries.push(Key::MAX);
        }
        RangePartitioner { boundaries, nodes }
    }

    /// Builds an unweighted partitioning (inserts only) from a key sample.
    pub fn from_key_sample(nodes: usize, keys: &[Key]) -> Self {
        let sample: Vec<(Key, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        Self::from_weighted_sample(nodes, &sample)
    }

    /// Number of nodes the partitioning covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node that owns `key`.
    pub fn node_of(&self, key: Key) -> usize {
        self.boundaries.partition_point(|&b| b < key)
    }

    /// The partition boundaries (exclusive upper bounds of all but the last
    /// node).
    pub fn boundaries(&self) -> &[Key] {
        &self.boundaries
    }

    /// The inclusive key interval shard `shard` owns, or `None` when the
    /// interval is empty (a shard behind a duplicate or `Key::MAX` boundary
    /// that [`node_of`](Self::node_of) can never route a key to).
    ///
    /// The lower end is `boundaries[shard - 1] + 1`, computed with *checked*
    /// arithmetic: at the `Key::MAX` domain edge the increment would wrap to
    /// `Key::MIN` and silently claim the whole domain for an empty shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_interval(&self, shard: usize) -> Option<(Key, Key)> {
        assert!(
            shard < self.nodes,
            "shard {shard} out of {} nodes",
            self.nodes
        );
        let lo = if shard == 0 {
            Key::MIN
        } else {
            // A boundary at Key::MAX leaves nothing above it: checked, not
            // wrapping, so the empty shard reports `None` instead of the
            // full domain.
            self.boundaries[shard - 1].checked_add(1)?
        };
        let hi = if shard == self.nodes - 1 {
            Key::MAX
        } else {
            self.boundaries[shard]
        };
        (lo <= hi).then_some((lo, hi))
    }

    /// The shards whose key intervals overlap the *inclusive* range
    /// `[lo, hi]`, as a half-open shard-index range — the probe fan-out
    /// query of the partitioned index store.
    ///
    /// A degenerate range (`lo > hi`) covers no shard and returns the empty
    /// range `0..0`; a point range (`lo == hi`) covers exactly the shard
    /// owning that key. Boundary keys follow [`node_of`](Self::node_of): the
    /// boundary itself belongs to the lower shard, so `[b, b + 1]` covers two
    /// shards while `[b - 1, b]` covers one (unless `b - 1` crosses an
    /// earlier boundary).
    pub fn covering_shards(&self, lo: Key, hi: Key) -> std::ops::Range<usize> {
        if lo > hi {
            return 0..0;
        }
        self.node_of(lo)..self.node_of(hi) + 1
    }

    /// Computes a repartitioning from freshly observed per-node loads: new
    /// boundaries that re-balance the observed weight, together with the
    /// fraction of observed weight whose home node changes (the data-transfer
    /// cost the paper worries about).
    pub fn repartition(&self, observed: &[(Key, u64)]) -> RepartitionPlan {
        let new = Self::from_weighted_sample(self.nodes, observed);
        let total: u64 = observed.iter().map(|&(_, w)| 1 + w).sum();
        let moved: u64 = observed
            .iter()
            .filter(|&&(k, _)| self.node_of(k) != new.node_of(k))
            .map(|&(_, w)| 1 + w)
            .sum();
        RepartitionPlan {
            new_partitioner: new,
            moved_fraction: if total == 0 {
                0.0
            } else {
                moved as f64 / total as f64
            },
        }
    }

    /// Relative imbalance of observed per-node weights: maximum node weight
    /// divided by the ideal (uniform) weight. 1.0 is perfectly balanced.
    pub fn imbalance(&self, observed: &[(Key, u64)]) -> f64 {
        let mut per_node = vec![0u64; self.nodes];
        for &(k, w) in observed {
            per_node[self.node_of(k)] += 1 + w;
        }
        let total: u64 = per_node.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.nodes as f64;
        per_node
            .iter()
            .map(|&w| w as f64 / ideal)
            .fold(0.0, f64::max)
    }
}

/// Observed max-shard/ideal load ratio above which a [`DriftMonitor`]
/// recommends a repartition (1.0 = perfectly balanced).
pub const IMBALANCE_TRIGGER: f64 = 1.5;

/// Largest capacity of the parallel engine's [`DriftMonitor`]: the sliding
/// sample of observations a repartition plan is computed from, and the
/// cooldown after a plan decision, in tuples. The engine caps it at four
/// join windows, so that a plan is not computed from keys that left the
/// windows long ago, and checks for drift every eighth of it (at least 64
/// observations apart), so the O(sample) imbalance fold stays off the
/// per-task path.
pub const DRIFT_WINDOW: usize = 4096;

/// Drift-driven repartition hook: accumulates a sliding sample of
/// `(key, output_weight)` observations and decides when the observed load
/// has drifted far enough from a partitioning to justify the data transfer a
/// repartition costs.
///
/// The monitor is deliberately decoupled from any operator: the sharded join
/// engine (or the simulated NUMA join) feeds it ingested keys between runs,
/// asks [`should_repartition`](Self::should_repartition), and adopts
/// [`plan`](Self::plan)'s partitioner when the answer is yes. Observations
/// are kept in a fixed-capacity ring so the monitor's footprint — and the
/// sample a repartition is computed from — stays bounded under unbounded
/// streams.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    sample: Vec<(Key, u64)>,
    capacity: usize,
    cursor: usize,
    /// Observations remaining before the monitor may trigger again after a
    /// plan decision. Without it, the stale pre-migration sample would
    /// immediately re-trigger [`should_repartition`](Self::should_repartition)
    /// against the freshly adopted partitioner and the system would
    /// oscillate between partitionings.
    cooldown: usize,
}

impl DriftMonitor {
    /// Creates a monitor keeping the most recent `capacity` observations and
    /// recommending a repartition once the observed imbalance exceeds
    /// [`IMBALANCE_TRIGGER`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "drift monitor needs a positive capacity");
        DriftMonitor {
            sample: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            cursor: 0,
            cooldown: 0,
        }
    }

    /// Records one observation, evicting the oldest once at capacity.
    pub fn observe(&mut self, key: Key, output_weight: u64) {
        self.cooldown = self.cooldown.saturating_sub(1);
        if self.sample.len() < self.capacity {
            self.sample.push((key, output_weight));
        } else {
            self.sample[self.cursor] = (key, output_weight);
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.sample.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// The current observation window (unspecified order).
    pub fn sample(&self) -> &[(Key, u64)] {
        &self.sample
    }

    /// Observed load imbalance under `partitioner` (1.0 when no observations
    /// were recorded).
    pub fn imbalance(&self, partitioner: &RangePartitioner) -> f64 {
        partitioner.imbalance(&self.sample)
    }

    /// Whether the observed drift exceeds the trigger. A sample smaller than
    /// half the capacity never triggers — early observations are too noisy
    /// to justify moving data — and neither does a monitor still cooling
    /// down after a plan decision (see
    /// [`note_adoption`](Self::note_adoption)).
    pub fn should_repartition(&self, partitioner: &RangePartitioner) -> bool {
        self.cooldown == 0
            && self.sample.len() * 2 >= self.capacity
            && self.imbalance(partitioner) > IMBALANCE_TRIGGER
    }

    /// Observations still to go before the monitor may trigger again.
    pub fn cooldown(&self) -> usize {
        self.cooldown
    }

    /// Records that a plan was decided on (adopted or rejected by a cost
    /// gate): discards the sliding sample — it was observed under the *old*
    /// partitioner and would otherwise immediately re-trigger against the
    /// new one — and arms a cooldown of `capacity` observations so the next
    /// decision is made from an entirely fresh window.
    pub fn note_adoption(&mut self) {
        self.clear();
        self.cooldown = self.capacity;
    }

    /// Computes the repartition plan for the observed window.
    pub fn plan(&self, partitioner: &RangePartitioner) -> RepartitionPlan {
        partitioner.repartition(&self.sample)
    }

    /// Discards all observations (after a plan has been adopted).
    pub fn clear(&mut self) {
        self.sample.clear();
        self.cursor = 0;
    }
}

/// Outcome of a repartitioning decision.
#[derive(Debug, Clone)]
pub struct RepartitionPlan {
    /// The rebalanced partitioning.
    pub new_partitioner: RangePartitioner,
    /// Fraction of the observed weight whose home node changes when the plan
    /// is adopted — a proxy for the inter-node data transfer the migration
    /// costs.
    pub moved_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn uniform_sample_splits_evenly() {
        let keys: Vec<Key> = (0..10_000).collect();
        let p = RangePartitioner::from_key_sample(4, &keys);
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[p.node_of(k)] += 1;
        }
        for &c in &counts {
            assert!((2000..=3000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_sample_still_balances() {
        // 90 % of keys in a narrow hot range.
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<Key> = (0..20_000)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    rng.gen_range(0..100)
                } else {
                    rng.gen_range(100..1_000_000)
                }
            })
            .collect();
        let p = RangePartitioner::from_key_sample(4, &keys);
        let observed: Vec<(Key, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        assert!(
            p.imbalance(&observed) < 1.3,
            "imbalance {}",
            p.imbalance(&observed)
        );
    }

    #[test]
    fn output_weight_shifts_boundaries_toward_hot_ranges() {
        // Uniform inserts, but keys below 1000 produce 20 results each.
        let sample: Vec<(Key, u64)> = (0..10_000)
            .map(|k| (k as Key, if k < 1000 { 20 } else { 0 }))
            .collect();
        let weighted = RangePartitioner::from_weighted_sample(4, &sample);
        let unweighted = RangePartitioner::from_key_sample(4, &(0..10_000).collect::<Vec<Key>>());
        // The hot prefix must be split across more nodes in the weighted
        // partitioning: its first boundary falls inside the hot range.
        assert!(weighted.boundaries()[0] < unweighted.boundaries()[0]);
        assert!(weighted.boundaries()[0] < 1000);
        // And the weighted partitioning balances the weighted load better.
        assert!(weighted.imbalance(&sample) < unweighted.imbalance(&sample));
    }

    #[test]
    fn node_of_respects_boundaries() {
        let p = RangePartitioner::from_key_sample(2, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let b = p.boundaries()[0];
        assert_eq!(p.node_of(b), 0, "boundary key belongs to the lower node");
        assert_eq!(p.node_of(b + 1), 1);
        assert_eq!(p.covering_shards(b - 1, b + 1), 0..2);
    }

    #[test]
    fn covering_shards_handles_boundaries_and_degenerate_ranges() {
        let p = RangePartitioner::from_key_sample(4, &(0..4000).collect::<Vec<Key>>());
        assert_eq!(p.nodes(), 4);
        let b = p.boundaries()[0];
        // Boundary key belongs to the lower shard; one key past it crosses.
        assert_eq!(p.covering_shards(b, b), p.node_of(b)..p.node_of(b) + 1);
        assert_eq!(p.covering_shards(b, b + 1), 0..2);
        assert_eq!(p.covering_shards(b - 1, b), 0..1);
        // Point ranges cover exactly the owning shard.
        for key in [Key::MIN, 0, b, b + 1, Key::MAX] {
            let covered = p.covering_shards(key, key);
            assert_eq!(covered.len(), 1, "point range at {key}");
            assert_eq!(covered.start, p.node_of(key));
        }
        // Degenerate (empty) ranges cover nothing.
        assert_eq!(p.covering_shards(10, 9), 0..0);
        assert_eq!(p.covering_shards(Key::MAX, Key::MIN), 0..0);
        // The full domain covers every shard.
        assert_eq!(p.covering_shards(Key::MIN, Key::MAX), 0..4);
        // Every key of the sample lands inside its covering range.
        for k in (0..4000).step_by(97) {
            let covered = p.covering_shards(k - 3, k + 3);
            assert!(covered.contains(&p.node_of(k)), "key {k}");
        }
    }

    #[test]
    fn covering_shards_on_single_node_and_empty_sample() {
        let one = RangePartitioner::from_key_sample(1, &[5, 6, 7]);
        assert_eq!(one.covering_shards(Key::MIN, Key::MAX), 0..1);
        assert_eq!(one.covering_shards(3, 3), 0..1);
        // Without a sample every key is owned by shard 0, so any
        // non-degenerate range covers exactly shard 0.
        let unsampled = RangePartitioner::from_key_sample(4, &[]);
        assert_eq!(unsampled.covering_shards(-100, 100), 0..1);
        assert_eq!(unsampled.covering_shards(100, -100), 0..0);
    }

    #[test]
    fn single_node_owns_everything() {
        let p = RangePartitioner::from_key_sample(1, &[1, 2, 3]);
        assert_eq!(p.node_of(Key::MIN), 0);
        assert_eq!(p.node_of(Key::MAX), 0);
    }

    #[test]
    fn empty_sample_degenerates_gracefully() {
        let p = RangePartitioner::from_key_sample(4, &[]);
        assert_eq!(p.nodes(), 4);
        assert_eq!(
            p.node_of(12345),
            0,
            "all keys land on node 0 without a sample"
        );
    }

    #[test]
    fn drift_monitor_triggers_only_after_real_drift() {
        let initial: Vec<Key> = (0..1000).collect();
        let p = RangePartitioner::from_key_sample(4, &initial);
        let mut monitor = DriftMonitor::new(400);
        assert!(monitor.is_empty());
        // A balanced stream (spread over the whole key domain) never
        // triggers.
        for k in 0..400 {
            monitor.observe((k * 5) % 1000, 0);
        }
        assert_eq!(monitor.len(), 400);
        assert!(
            !monitor.should_repartition(&p),
            "balanced load must not trigger"
        );
        // Drifted keys overwrite the window (ring eviction) and trigger.
        for k in 0..400 {
            monitor.observe(5000 + k, 0);
        }
        assert_eq!(monitor.len(), 400, "window stays bounded");
        assert!(monitor.imbalance(&p) > IMBALANCE_TRIGGER);
        assert!(monitor.should_repartition(&p));
        let plan = monitor.plan(&p);
        assert!(plan.new_partitioner.imbalance(monitor.sample()) < 1.3);
        assert!(plan.moved_fraction > 0.5);
        monitor.clear();
        assert!(monitor.is_empty());
        assert!(
            !monitor.should_repartition(&p),
            "a cleared (undersized) sample must not trigger"
        );
    }

    #[test]
    fn constant_sample_dedupes_boundaries_and_keeps_fanout_consistent() {
        // Every sampled key is 7: without deduplication the boundaries
        // collapse to [7, 7, 7], every tuple lands on shard 0 or 3, and
        // `covering_shards` still reports 4-way fan-out for band ranges.
        let p = RangePartitioner::from_weighted_sample(4, &vec![(7, 0); 100]);
        assert_eq!(p.boundaries(), &[7, Key::MAX, Key::MAX]);
        assert_eq!(p.node_of(7), 0);
        assert_eq!(p.node_of(8), 1);
        // Fan-out is consistent with node_of: a band around the constant key
        // covers exactly the shards that own keys in it.
        assert_eq!(p.covering_shards(5, 9), 0..2);
        assert_eq!(p.covering_shards(8, 100), 1..2);
        // The shards behind the deduplicated boundaries own empty intervals.
        assert_eq!(p.shard_interval(0), Some((Key::MIN, 7)));
        assert_eq!(p.shard_interval(1), Some((8, Key::MAX)));
        assert_eq!(p.shard_interval(2), None);
        assert_eq!(p.shard_interval(3), None);
        // Every key's owner has a non-empty interval containing it.
        for key in [Key::MIN, 0, 7, 8, Key::MAX] {
            let (lo, hi) = p.shard_interval(p.node_of(key)).expect("owner non-empty");
            assert!((lo..=hi).contains(&key), "key {key}");
        }
    }

    #[test]
    fn two_value_sample_splits_between_the_values() {
        // Half the weight on key 10, half on key 20: shard 0 gets [MIN, 10],
        // shard 1 the rest, and the two trailing shards stay empty.
        let mut sample: Vec<(Key, u64)> = vec![(10, 0); 50];
        sample.extend(vec![(20, 0); 50]);
        let p = RangePartitioner::from_weighted_sample(4, &sample);
        assert_eq!(p.node_of(10), 0);
        assert_eq!(p.node_of(11), p.node_of(20), "both route to the same shard");
        assert!(p.node_of(20) < 4);
        // covering_shards only reports shards node_of can route to.
        let covered = p.covering_shards(0, 100);
        for shard in covered.clone() {
            assert!(
                p.shard_interval(shard).is_some(),
                "covered shard {shard} must own a non-empty interval"
            );
        }
        assert_eq!(covered, 0..3, "boundaries [10, 20, MAX]: three live shards");
    }

    #[test]
    fn shard_interval_checked_math_at_domain_edges() {
        // A boundary at Key::MAX: the shard above it owns nothing, and the
        // naive `boundary + 1` lower bound would wrap to Key::MIN.
        let p = RangePartitioner::from_weighted_sample(2, &[(Key::MAX, 0), (Key::MAX, 0)]);
        assert_eq!(p.boundaries(), &[Key::MAX]);
        assert_eq!(p.shard_interval(0), Some((Key::MIN, Key::MAX)));
        assert_eq!(p.shard_interval(1), None);
        assert_eq!(p.node_of(Key::MAX), 0);
        assert_eq!(p.covering_shards(Key::MIN, Key::MAX), 0..1);
        // A boundary at Key::MIN leaves the minimum key on shard 0 and
        // everything else above it.
        let p = RangePartitioner::from_weighted_sample(2, &[(Key::MIN, 0), (Key::MAX, 0)]);
        let b = p.boundaries()[0];
        let interval0 = p.shard_interval(0).expect("shard 0 non-empty");
        assert_eq!(interval0, (Key::MIN, b));
        if b < Key::MAX {
            assert_eq!(p.shard_interval(1), Some((b + 1, Key::MAX)));
        }
    }

    #[test]
    fn shard_intervals_partition_the_domain() {
        let keys: Vec<Key> = (0..4000).collect();
        let p = RangePartitioner::from_key_sample(4, &keys);
        let mut expected_lo = Key::MIN;
        for shard in 0..4 {
            let (lo, hi) = p
                .shard_interval(shard)
                .expect("uniform sample: all non-empty");
            assert_eq!(lo, expected_lo, "intervals are contiguous");
            assert!(lo <= hi);
            assert_eq!(p.node_of(lo), shard);
            assert_eq!(p.node_of(hi), shard);
            if shard < 3 {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, Key::MAX);
            }
        }
    }

    #[test]
    fn adoption_clears_the_sample_and_cools_down() {
        let initial: Vec<Key> = (0..1000).collect();
        let p = RangePartitioner::from_key_sample(4, &initial);
        let mut monitor = DriftMonitor::new(400);
        // Drift the whole window to a disjoint key range: triggers.
        for k in 0..400 {
            monitor.observe(5000 + k, 0);
        }
        assert!(monitor.should_repartition(&p));
        let plan = monitor.plan(&p);
        let adopted = plan.new_partitioner;
        // Regression: before the fix the stale pre-migration sample stayed
        // in the window and could immediately re-trigger after adoption.
        monitor.note_adoption();
        assert!(monitor.is_empty(), "sample cleared on adoption");
        assert_eq!(monitor.cooldown(), 400);
        assert!(!monitor.should_repartition(&adopted));
        assert!(
            !monitor.should_repartition(&p),
            "no trigger from an empty sample"
        );
        // Even a refilled, maximally imbalanced sample must wait out the
        // cooldown of `capacity` observations...
        for k in 0..399 {
            monitor.observe(k % 7, 0);
            assert!(
                !monitor.should_repartition(&adopted),
                "cooldown must hold at observation {k}"
            );
        }
        // ...and may trigger again only once it expired.
        monitor.observe(3, 0);
        assert_eq!(monitor.cooldown(), 0);
        assert!(monitor.should_repartition(&adopted));
        // Steady state under the adopted partitioner never re-triggers: the
        // post-adoption stream is balanced by construction of the plan.
        let mut steady = DriftMonitor::new(400);
        for k in 0..1200 {
            steady.observe(5000 + (k % 400), 0);
        }
        assert!(
            !steady.should_repartition(&adopted),
            "adoption must not oscillate: imbalance {}",
            steady.imbalance(&adopted)
        );
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn drift_monitor_rejects_zero_capacity() {
        let _ = DriftMonitor::new(0);
    }

    #[test]
    fn repartitioning_restores_balance_after_drift() {
        // Initial distribution around 0..1000.
        let initial: Vec<Key> = (0..1000).collect();
        let p = RangePartitioner::from_key_sample(4, &initial);
        // The distribution drifts to 5000..6000: the old partitioning sends
        // everything to the last node.
        let drifted: Vec<(Key, u64)> = (5000..6000).map(|k| (k as Key, 0)).collect();
        assert!(p.imbalance(&drifted) > 3.0);
        let plan = p.repartition(&drifted);
        assert!(plan.new_partitioner.imbalance(&drifted) < 1.3);
        // Rebalancing a fully drifted distribution must move a large share of
        // the data.
        assert!(plan.moved_fraction > 0.5);
        // Repartitioning an unchanged distribution moves (almost) nothing.
        let stable: Vec<(Key, u64)> = initial.iter().map(|&k| (k, 0)).collect();
        let noop = p.repartition(&stable);
        assert!(noop.moved_fraction < 0.05, "moved {}", noop.moved_fraction);
    }

    proptest! {
        #[test]
        fn every_key_is_owned_by_exactly_one_node(
            keys in proptest::collection::vec(any::<i64>(), 1..200),
            nodes in 1usize..8,
            probe in any::<i64>(),
        ) {
            let p = RangePartitioner::from_key_sample(nodes, &keys);
            let node = p.node_of(probe);
            prop_assert!(node < nodes);
        }

        #[test]
        fn covering_shards_agrees_with_node_of(
            keys in proptest::collection::vec(any::<i64>(), 1..200),
            nodes in 1usize..8,
            a in -1000i64..1000,
            b in -1000i64..1000,
            probe in -1000i64..1000,
        ) {
            let p = RangePartitioner::from_key_sample(nodes, &keys);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let covered = p.covering_shards(lo, hi);
            prop_assert!(covered.end <= nodes);
            prop_assert!(!covered.is_empty());
            // A shard is covered iff it owns at least one key of [lo, hi]:
            // node_of is monotone, so membership of the probe key decides it.
            if (lo..=hi).contains(&probe) {
                prop_assert!(covered.contains(&p.node_of(probe)));
            }
            prop_assert!(p.covering_shards(hi, lo).is_empty() || lo == hi);
        }

        #[test]
        fn shard_interval_agrees_with_node_of(
            keys in proptest::collection::vec(any::<i64>(), 1..200),
            nodes in 1usize..8,
            probe in any::<i64>(),
        ) {
            let p = RangePartitioner::from_key_sample(nodes, &keys);
            // The owner of any key has a non-empty interval containing it.
            let owner = p.node_of(probe);
            let (lo, hi) = p.shard_interval(owner).expect("owner interval non-empty");
            prop_assert!(lo <= probe && probe <= hi);
            // Intervals are consistent with ownership at both ends, and
            // empty intervals are never owners.
            for shard in 0..nodes {
                if let Some((lo, hi)) = p.shard_interval(shard) {
                    prop_assert!(lo <= hi);
                    prop_assert_eq!(p.node_of(lo), shard);
                    prop_assert_eq!(p.node_of(hi), shard);
                }
            }
        }

        #[test]
        fn node_of_is_monotone_in_the_key(
            keys in proptest::collection::vec(any::<i64>(), 1..200),
            nodes in 1usize..8,
            a in any::<i64>(),
            b in any::<i64>(),
        ) {
            let p = RangePartitioner::from_key_sample(nodes, &keys);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.node_of(lo) <= p.node_of(hi));
        }
    }
}
