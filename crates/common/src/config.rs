//! Runtime configuration for indexes and join operators.
//!
//! The tunables here correspond directly to the knobs studied in the paper's
//! evaluation: merge ratio `m` (Figures 9a/9c/9d), insertion depth `DI`
//! (Figures 8c/8d), task size (Figures 10c/10d), thread count (Figure 12a) and
//! the blocking/non-blocking merge ablation (Figure 13c).

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Which indexing data structure a join operator should use for each sliding
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// No index at all: nested-loop window join (NLWJ).
    None,
    /// A single classic B+-Tree per window (the paper's `B+-Tree` baseline).
    BTree,
    /// The chained index with B+-Tree sub-indexes (`B-chain`).
    BChain,
    /// The chained index whose archived sub-indexes are immutable B+-Trees
    /// (`IB-chain`).
    IbChain,
    /// The two-stage In-memory Merge-Tree (single mutable component).
    ImTree,
    /// The Partitioned In-memory Merge-Tree (the paper's contribution).
    PimTree,
    /// The concurrent general-purpose ordered index baseline (Bw-Tree-style).
    BwTree,
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IndexKind::None => "none",
            IndexKind::BTree => "b+tree",
            IndexKind::BChain => "b-chain",
            IndexKind::IbChain => "ib-chain",
            IndexKind::ImTree => "im-tree",
            IndexKind::PimTree => "pim-tree",
            IndexKind::BwTree => "bw-tree",
        };
        f.write_str(s)
    }
}

/// How the two-stage trees perform their maintenance merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MergePolicy {
    /// Non-blocking merge (§4.2 of the paper): workers keep joining and
    /// inserting while a merging thread rebuilds `TS`.
    #[default]
    NonBlocking,
    /// Stop-the-world merge; kept for the Figure 13c ablation.
    Blocking,
}

/// Configuration of an IM-Tree / PIM-Tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PimConfig {
    /// Sliding-window size `w` the tree is provisioned for (tuples).
    pub window_size: usize,
    /// Merge ratio `m` in `(0, 1]`: the mutable component is merged into the
    /// immutable component when it holds `m * w` tuples.
    pub merge_ratio: f64,
    /// Insertion depth `DI`: partitions of the mutable component correspond to
    /// the inner nodes of `TS` at this depth (root = depth 0). Ignored by the
    /// unpartitioned IM-Tree.
    pub insertion_depth: usize,
    /// Fan-out of the immutable B+-Tree's inner nodes (`f_ib`).
    pub css_fanout: usize,
    /// Number of entries per immutable B+-Tree leaf (`l_ib`).
    pub css_leaf_size: usize,
    /// Fan-out (max keys per node) of the mutable B+-Tree component.
    pub btree_fanout: usize,
    /// Merge execution policy.
    pub merge_policy: MergePolicy,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig {
            window_size: 1 << 20,
            merge_ratio: 1.0,
            insertion_depth: 3,
            css_fanout: 32,
            css_leaf_size: 32,
            btree_fanout: 32,
            merge_policy: MergePolicy::NonBlocking,
        }
    }
}

impl PimConfig {
    /// Creates a configuration for a window of `window_size` tuples with the
    /// paper's default parameters (merge ratio 1, `DI = 3`, fan-out 32).
    pub fn for_window(window_size: usize) -> Self {
        PimConfig {
            window_size,
            ..Default::default()
        }
    }

    /// Sets the merge ratio `m`.
    pub fn with_merge_ratio(mut self, m: f64) -> Self {
        self.merge_ratio = m;
        self
    }

    /// Sets the insertion depth `DI`.
    pub fn with_insertion_depth(mut self, di: usize) -> Self {
        self.insertion_depth = di;
        self
    }

    /// Sets the merge policy.
    pub fn with_merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    /// Number of tuples in the mutable component that triggers a merge
    /// (`m * w`, at least 1).
    pub fn merge_threshold(&self) -> usize {
        ((self.merge_ratio * self.window_size as f64).round() as usize).max(1)
    }

    /// Validates the configuration, returning a descriptive error when a
    /// parameter is outside its legal domain.
    pub fn validate(&self) -> Result<()> {
        if self.window_size == 0 {
            return Err(Error::InvalidConfig("window_size must be positive".into()));
        }
        if !(self.merge_ratio > 0.0 && self.merge_ratio <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "merge_ratio must be in (0, 1], got {}",
                self.merge_ratio
            )));
        }
        if self.css_fanout < 2 {
            return Err(Error::InvalidConfig("css_fanout must be at least 2".into()));
        }
        if self.css_leaf_size < 1 {
            return Err(Error::InvalidConfig(
                "css_leaf_size must be at least 1".into(),
            ));
        }
        if self.btree_fanout < 4 {
            return Err(Error::InvalidConfig(
                "btree_fanout must be at least 4".into(),
            ));
        }
        Ok(())
    }
}

/// Tuning of the parallel engine's sharded task-ring layer.
///
/// With more than one shard, the engine splits its MPMC task ring into an
/// array of per-NUMA-node rings (see `pimtree-join`'s `shard` module): each
/// shard has its own ingest cursor, claim ticket and drain cursor, a router
/// assigns every ingested tuple to the shard owning its key range (or
/// round-robin without a partitioner), and workers claim from their *home*
/// shard first, stealing one task from a remote shard only when the home
/// shard runs dry. `shards = 1` keeps the original single-ring path bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of ring shards (simulated NUMA nodes). `1` disables sharding
    /// and runs the plain single-ring engine.
    pub shards: usize,
    /// Whether the engine also partitions its *index and window state* per
    /// shard (the `ShardStore` layer): each shard owns one index plus one
    /// window slice per side covering only its key range, inserts are routed
    /// to the owning shard and probes fan out across exactly the shards
    /// overlapping the band-join range. `false` (the default) keeps one
    /// shared index/window pair per side; with one shard the flag is a no-op
    /// (the partitioned store short-circuits to the shared path).
    pub partition_index: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            partition_index: false,
        }
    }
}

impl ShardConfig {
    /// Sets the number of ring shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables or disables the per-shard index/window store.
    pub fn with_partition_index(mut self, partition_index: bool) -> Self {
        self.partition_index = partition_index;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidConfig(
                "shard count must be positive (1 disables sharding)".into(),
            ));
        }
        if self.shards > 64 {
            return Err(Error::InvalidConfig(format!(
                "shard count {} exceeds the 64-shard ceiling",
                self.shards
            )));
        }
        Ok(())
    }
}

/// Tuning of the parallel engine's drift-driven live repartitioning.
///
/// With `repartition` on (and more than one shard), the engine feeds every
/// processed tuple's `(key, match count)` into a `DriftMonitor` sliding
/// window. When the observed load imbalance under the current
/// `RangePartitioner` exceeds 1.5 and the resulting repartition plan moves
/// at most 90 % of the observed weight (both constants of the engine), the
/// engine migrates to the plan's partitioner in one **migration epoch**:
/// ingestion and claiming quiesce behind the merge gate while every index
/// entry and window tuple whose key changed home shards moves to its new
/// owner. The monitor's window is the engine's to choose too
/// (`pimtree_numa::DRIFT_WINDOW`). Off (the default), the partitioner chosen
/// at construction stays fixed for the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Master switch for live repartition adoption. Off keeps the engine's
    /// partitioner (ring routing and store placement) fixed for the run.
    pub repartition: bool,
}

impl DriftConfig {
    /// Enables or disables live repartition adoption.
    pub fn with_repartition(mut self, on: bool) -> Self {
        self.repartition = on;
        self
    }
}

/// Configuration of a join operator run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinConfig {
    /// Sliding-window size of stream `R` (tuples).
    pub window_r: usize,
    /// Sliding-window size of stream `S` (tuples).
    pub window_s: usize,
    /// Which index to maintain on each sliding window.
    pub index: IndexKind,
    /// Number of worker threads for parallel operators (ignored by the
    /// single-threaded ones).
    pub threads: usize,
    /// Task size: the unit in which the ring hands out work. A claim takes
    /// one task when the ring is shallow and up to four when it is deep
    /// enough to leave every worker as much (see
    /// [`ingest_target`](Self::ingest_target)).
    pub task_size: usize,
    /// How many ingested-but-unclaimed tuples the parallel engine tries to
    /// keep available in its task ring; `0` selects `4 * threads *
    /// task_size` (clamped to a quarter of the ring's capacity). There is
    /// one claim rule and it follows the depth it finds: a worker takes an
    /// equal share of what is available, between one and four tasks. A ring
    /// never filled past `threads * task_size` therefore never yields more
    /// than one task a claim — the paper's fixed-size tasks, which is how
    /// its task-size figures are swept. Larger targets amortise the ingest
    /// token and the per-claim bookkeeping better, smaller ones reduce
    /// result-propagation latency.
    pub ingest_target: usize,
    /// Chain length `L` for the chained-index variants.
    pub chain_length: usize,
    /// Index tuning shared by IM-Tree / PIM-Tree.
    pub pim: PimConfig,
    /// Sharded-ring tuning (shard count, work-stealing shape).
    pub shard: ShardConfig,
    /// Drift-driven live repartitioning of the parallel engine.
    pub drift: DriftConfig,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            window_r: 1 << 16,
            window_s: 1 << 16,
            index: IndexKind::PimTree,
            threads: 1,
            task_size: 8,
            ingest_target: 0,
            chain_length: 2,
            pim: PimConfig::for_window(1 << 16),
            shard: ShardConfig::default(),
            drift: DriftConfig::default(),
        }
    }
}

impl JoinConfig {
    /// Creates a symmetric configuration where both windows hold `w` tuples.
    pub fn symmetric(w: usize, index: IndexKind) -> Self {
        JoinConfig {
            window_r: w,
            window_s: w,
            index,
            pim: PimConfig::for_window(w),
            ..Default::default()
        }
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the task size (paper default after Figure 10c/10d: 8).
    pub fn with_task_size(mut self, task_size: usize) -> Self {
        self.task_size = task_size;
        self
    }

    /// Sets the chained-index chain length `L`.
    pub fn with_chain_length(mut self, chain_length: usize) -> Self {
        self.chain_length = chain_length;
        self
    }

    /// Overrides the PIM/IM-Tree tuning.
    pub fn with_pim(mut self, pim: PimConfig) -> Self {
        self.pim = pim;
        self
    }

    /// Sets the parallel engine's ring fill target (0 = automatic).
    pub fn with_ingest_target(mut self, target: usize) -> Self {
        self.ingest_target = target;
        self
    }

    /// Overrides the sharded-ring tuning.
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Overrides the drift / live-repartition tuning.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Largest of the two window sizes.
    pub fn max_window(&self) -> usize {
        self.window_r.max(self.window_s)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.window_r == 0 || self.window_s == 0 {
            return Err(Error::InvalidConfig("window sizes must be positive".into()));
        }
        if self.threads == 0 {
            return Err(Error::InvalidConfig("thread count must be positive".into()));
        }
        if self.task_size == 0 {
            return Err(Error::InvalidConfig("task size must be positive".into()));
        }
        if matches!(self.index, IndexKind::BChain | IndexKind::IbChain) && self.chain_length < 2 {
            return Err(Error::InvalidConfig(
                "chained index requires chain_length >= 2".into(),
            ));
        }
        self.shard.validate()?;
        self.pim.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        PimConfig::default().validate().unwrap();
        JoinConfig::default().validate().unwrap();
    }

    #[test]
    fn merge_threshold_rounds_and_clamps() {
        let c = PimConfig::for_window(1000).with_merge_ratio(0.25);
        assert_eq!(c.merge_threshold(), 250);
        let c = PimConfig::for_window(3).with_merge_ratio(0.01);
        assert_eq!(c.merge_threshold(), 1, "threshold never drops to zero");
        let c = PimConfig::for_window(1 << 20).with_merge_ratio(1.0);
        assert_eq!(c.merge_threshold(), 1 << 20);
    }

    #[test]
    fn invalid_merge_ratio_rejected() {
        assert!(PimConfig::for_window(16)
            .with_merge_ratio(0.0)
            .validate()
            .is_err());
        assert!(PimConfig::for_window(16)
            .with_merge_ratio(1.5)
            .validate()
            .is_err());
        assert!(PimConfig::for_window(16)
            .with_merge_ratio(-0.5)
            .validate()
            .is_err());
    }

    #[test]
    fn invalid_window_and_fanout_rejected() {
        let mut c = PimConfig::for_window(0);
        assert!(c.validate().is_err());
        c = PimConfig::for_window(16);
        c.css_fanout = 1;
        assert!(c.validate().is_err());
        c = PimConfig::for_window(16);
        c.btree_fanout = 2;
        assert!(c.validate().is_err());
        c = PimConfig::for_window(16);
        c.css_leaf_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn join_config_builder_chains() {
        let c = JoinConfig::symmetric(1 << 12, IndexKind::PimTree)
            .with_threads(8)
            .with_task_size(4)
            .with_ingest_target(64)
            .with_chain_length(3);
        assert_eq!(c.window_r, 1 << 12);
        assert_eq!(c.window_s, 1 << 12);
        assert_eq!(c.threads, 8);
        assert_eq!(c.task_size, 4);
        assert_eq!(c.ingest_target, 64);
        assert_eq!(c.chain_length, 3);
        assert_eq!(c.max_window(), 1 << 12);
        c.validate().unwrap();
    }

    #[test]
    fn join_config_rejects_bad_values() {
        let mut c = JoinConfig::symmetric(16, IndexKind::BTree);
        c.threads = 0;
        assert!(c.validate().is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::BTree);
        c.task_size = 0;
        assert!(c.validate().is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::BChain);
        c.chain_length = 1;
        assert!(c.validate().is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::BTree);
        c.window_s = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn shard_config_defaults_validate_and_builders_chain() {
        let s = ShardConfig::default();
        assert_eq!(s.shards, 1, "sharding is off by default");
        assert!(!s.partition_index, "the partitioned store is opt-in");
        s.validate().unwrap();
        let s = ShardConfig::default()
            .with_shards(4)
            .with_partition_index(true);
        assert_eq!(s.shards, 4);
        assert!(s.partition_index);
        s.validate().unwrap();
        let c = JoinConfig::symmetric(64, IndexKind::PimTree).with_shard(s);
        assert_eq!(c.shard, s);
        c.validate().unwrap();
    }

    #[test]
    fn shard_config_rejects_bad_values() {
        assert!(ShardConfig::default().with_shards(0).validate().is_err());
        assert!(ShardConfig::default().with_shards(65).validate().is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::PimTree);
        c.shard.shards = 0;
        assert!(
            c.validate().is_err(),
            "JoinConfig::validate covers the shard config"
        );
    }

    #[test]
    fn drift_config_defaults_validate_and_builders_chain() {
        assert!(
            !DriftConfig::default().repartition,
            "live repartitioning is opt-in"
        );
        let d = DriftConfig::default().with_repartition(true);
        assert!(d.repartition);
        let c = JoinConfig::symmetric(64, IndexKind::PimTree).with_drift(d);
        assert_eq!(c.drift, d);
        c.validate().unwrap();
    }

    #[test]
    fn index_kind_display_is_stable() {
        assert_eq!(IndexKind::PimTree.to_string(), "pim-tree");
        assert_eq!(IndexKind::BTree.to_string(), "b+tree");
        assert_eq!(IndexKind::IbChain.to_string(), "ib-chain");
    }
}
