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
    /// Two-phase non-blocking merge (§4.2 of the paper): workers keep joining
    /// while a merging thread rebuilds `TS`.
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

/// Tuning of the parallel engine's lock-free task ring and idle back-off.
///
/// The parallel IBWJ engine distributes work through a fixed-capacity MPMC
/// ring buffer (see `pimtree-join`'s `ring` module). These knobs size the
/// ring and shape the spin → yield → park back-off a worker goes through
/// when it finds no task to acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingConfig {
    /// Ring capacity in slots. `0` selects an automatic capacity from the
    /// thread count and task size. Non-zero values are rounded up to a power
    /// of two and to at least twice the task size.
    pub capacity: usize,
    /// How many ingested-but-unclaimed tuples the engine tries to keep
    /// available in the ring; `0` selects `4 * threads * task_size` (clamped
    /// to a quarter of the capacity). There is one claim rule and it follows
    /// the depth it finds: a worker takes an equal share of what is
    /// available, between one and four tasks. A ring never filled past
    /// `threads * task_size` therefore never yields more than one task a
    /// claim — the paper's fixed-size tasks, which is how its task-size
    /// figures are swept. Larger targets amortise the ingest token and the
    /// per-claim bookkeeping better, smaller ones reduce result-propagation
    /// latency.
    pub ingest_target: usize,
    /// Number of idle rounds spent busy-spinning (with exponentially growing
    /// spin windows) before the worker starts yielding its time slice.
    pub spin_limit: u32,
    /// Number of idle rounds spent calling `yield_now` after spinning and
    /// before parking.
    pub yield_limit: u32,
    /// Sleep duration of one park once spinning and yielding both found no
    /// work, in microseconds. `0` keeps yielding forever (never parks).
    pub park_micros: u64,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 0,
            ingest_target: 0,
            spin_limit: 6,
            yield_limit: 16,
            park_micros: 50,
        }
    }
}

impl RingConfig {
    /// Sets an explicit ring capacity (0 = automatic).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the ingest target (0 = automatic).
    pub fn with_ingest_target(mut self, target: usize) -> Self {
        self.ingest_target = target;
        self
    }

    /// Sets the idle back-off shape.
    pub fn with_backoff(mut self, spin_limit: u32, yield_limit: u32, park_micros: u64) -> Self {
        self.spin_limit = spin_limit;
        self.yield_limit = yield_limit;
        self.park_micros = park_micros;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.capacity != 0 && self.capacity < 4 {
            return Err(Error::InvalidConfig(format!(
                "ring capacity must be 0 (auto) or at least 4, got {}",
                self.capacity
            )));
        }
        if self.capacity != 0 && self.capacity > (1 << 28) {
            return Err(Error::InvalidConfig(format!(
                "ring capacity {} exceeds the 2^28-slot ceiling",
                self.capacity
            )));
        }
        if self.spin_limit > 1 << 16 {
            return Err(Error::InvalidConfig(format!(
                "spin_limit {} is unreasonably large (max 65536)",
                self.spin_limit
            )));
        }
        if self.yield_limit > 1 << 16 {
            return Err(Error::InvalidConfig(format!(
                "yield_limit {} is unreasonably large (max 65536)",
                self.yield_limit
            )));
        }
        if self.park_micros > 1_000_000 {
            return Err(Error::InvalidConfig(format!(
                "park_micros {} exceeds one second; workers would stall",
                self.park_micros
            )));
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
/// shard first, stealing from remote shards only when the home shard runs
/// dry. `shards = 1` keeps the original single-ring path bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of ring shards (simulated NUMA nodes). `1` disables sharding
    /// and runs the plain single-ring engine.
    pub shards: usize,
    /// How many tuples a worker claims per successful steal from a remote
    /// shard. `0` selects the engine's task size.
    pub steal_batch: usize,
    /// Minimum number of available (ingested, unclaimed) tuples a remote
    /// shard must hold before the first steal pass targets it; a second pass
    /// ignores the threshold so below-threshold work can never be stranded.
    pub steal_threshold: usize,
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
            steal_batch: 0,
            steal_threshold: 1,
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

    /// Sets the steal batch size (0 = the engine's task size).
    pub fn with_steal_batch(mut self, steal_batch: usize) -> Self {
        self.steal_batch = steal_batch;
        self
    }

    /// Sets the first-pass steal threshold.
    pub fn with_steal_threshold(mut self, steal_threshold: usize) -> Self {
        self.steal_threshold = steal_threshold;
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
        if self.steal_batch > 4096 {
            return Err(Error::InvalidConfig(format!(
                "steal_batch {} is unreasonably large (max 4096)",
                self.steal_batch
            )));
        }
        if self.steal_threshold > 1 << 20 {
            return Err(Error::InvalidConfig(format!(
                "steal_threshold {} is unreasonably large (max 2^20)",
                self.steal_threshold
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
/// `RangePartitioner` exceeds `imbalance_trigger` and the resulting
/// repartition plan's moved-weight fraction clears `cost_gate`, the engine
/// migrates to the plan's partitioner in one **migration epoch**: ingestion
/// and claiming quiesce behind the merge gate while every index entry and
/// window tuple whose key changed home shards moves to its new owner. Off
/// (the default), the partitioner chosen at construction stays fixed for
/// the whole run — the pre-PR-5 behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Master switch for live repartition adoption. Off keeps the engine's
    /// partitioner (ring routing and store placement) fixed for the run.
    pub repartition: bool,
    /// Capacity of the drift monitor's sliding observation window (and the
    /// cooldown after a plan decision), in tuples.
    pub window: usize,
    /// Observed max-node/ideal load ratio above which a repartition plan is
    /// computed (1.0 = perfectly balanced; typical triggers are 1.5–2.0).
    pub imbalance_trigger: f64,
    /// Cost gate on plan adoption: the fraction of observed weight whose
    /// home shard changes must be **at most** this for the plan to be worth
    /// its data transfer; costlier plans are rejected (counted, and the
    /// monitor cools down so the decision is retried on fresh data).
    pub cost_gate: f64,
    /// Observations between drift checks. `0` selects an automatic interval
    /// (an eighth of the window, at least 64) so the O(window) imbalance
    /// fold stays off the per-task fast path.
    pub check_interval: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            repartition: false,
            window: 4096,
            imbalance_trigger: 1.5,
            cost_gate: 0.9,
            check_interval: 0,
        }
    }
}

impl DriftConfig {
    /// Enables or disables live repartition adoption.
    pub fn with_repartition(mut self, on: bool) -> Self {
        self.repartition = on;
        self
    }

    /// Sets the drift observation window (tuples).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the imbalance trigger.
    pub fn with_imbalance_trigger(mut self, trigger: f64) -> Self {
        self.imbalance_trigger = trigger;
        self
    }

    /// Sets the moved-fraction cost gate.
    pub fn with_cost_gate(mut self, gate: f64) -> Self {
        self.cost_gate = gate;
        self
    }

    /// Sets the observations between drift checks (0 = automatic).
    pub fn with_check_interval(mut self, interval: usize) -> Self {
        self.check_interval = interval;
        self
    }

    /// The effective number of observations between drift checks.
    pub fn effective_check_interval(&self) -> usize {
        if self.check_interval > 0 {
            self.check_interval
        } else {
            (self.window / 8).max(64)
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0 {
            return Err(Error::InvalidConfig("drift window must be positive".into()));
        }
        if self.window > 1 << 24 {
            return Err(Error::InvalidConfig(format!(
                "drift window {} exceeds the 2^24-observation ceiling",
                self.window
            )));
        }
        if self.imbalance_trigger.is_nan() || self.imbalance_trigger < 1.0 {
            return Err(Error::InvalidConfig(format!(
                "imbalance trigger must be at least 1.0, got {}",
                self.imbalance_trigger
            )));
        }
        if !(self.cost_gate > 0.0 && self.cost_gate <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "cost gate must be in (0, 1], got {}",
                self.cost_gate
            )));
        }
        if self.check_interval > 1 << 24 {
            return Err(Error::InvalidConfig(format!(
                "check interval {} is unreasonably large (max 2^24)",
                self.check_interval
            )));
        }
        Ok(())
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
    /// [`RingConfig::ingest_target`]).
    pub task_size: usize,
    /// Chain length `L` for the chained-index variants.
    pub chain_length: usize,
    /// Index tuning shared by IM-Tree / PIM-Tree.
    pub pim: PimConfig,
    /// Task-ring and idle back-off tuning for the parallel engine.
    pub ring: RingConfig,
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
            chain_length: 2,
            pim: PimConfig::for_window(1 << 16),
            ring: RingConfig::default(),
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

    /// Overrides the parallel engine's ring / back-off tuning.
    pub fn with_ring(mut self, ring: RingConfig) -> Self {
        self.ring = ring;
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
        self.ring.validate()?;
        self.shard.validate()?;
        self.drift.validate()?;
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
            .with_chain_length(3);
        assert_eq!(c.window_r, 1 << 12);
        assert_eq!(c.window_s, 1 << 12);
        assert_eq!(c.threads, 8);
        assert_eq!(c.task_size, 4);
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
    fn ring_config_defaults_validate_and_builders_chain() {
        let r = RingConfig::default();
        r.validate().unwrap();
        let r = RingConfig::default()
            .with_capacity(256)
            .with_ingest_target(64)
            .with_backoff(8, 4, 100);
        assert_eq!(r.capacity, 256);
        assert_eq!(r.ingest_target, 64);
        assert_eq!((r.spin_limit, r.yield_limit, r.park_micros), (8, 4, 100));
        r.validate().unwrap();
        let c = JoinConfig::symmetric(64, IndexKind::PimTree).with_ring(r);
        assert_eq!(c.ring, r);
        c.validate().unwrap();
    }

    #[test]
    fn ring_config_rejects_bad_values() {
        assert!(RingConfig::default().with_capacity(2).validate().is_err());
        assert!(RingConfig::default()
            .with_capacity(1 << 29)
            .validate()
            .is_err());
        assert!(RingConfig::default()
            .with_backoff(1 << 17, 0, 0)
            .validate()
            .is_err());
        assert!(RingConfig::default()
            .with_backoff(0, u32::MAX, 0)
            .validate()
            .is_err());
        assert!(RingConfig::default()
            .with_backoff(0, 0, 2_000_000)
            .validate()
            .is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::PimTree);
        c.ring.capacity = 3;
        assert!(
            c.validate().is_err(),
            "JoinConfig::validate covers the ring"
        );
    }

    #[test]
    fn shard_config_defaults_validate_and_builders_chain() {
        let s = ShardConfig::default();
        assert_eq!(s.shards, 1, "sharding is off by default");
        assert!(!s.partition_index, "the partitioned store is opt-in");
        s.validate().unwrap();
        let s = ShardConfig::default()
            .with_shards(4)
            .with_steal_batch(16)
            .with_steal_threshold(8)
            .with_partition_index(true);
        assert_eq!((s.shards, s.steal_batch, s.steal_threshold), (4, 16, 8));
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
        assert!(ShardConfig::default()
            .with_steal_batch(5000)
            .validate()
            .is_err());
        assert!(ShardConfig::default()
            .with_steal_threshold((1 << 20) + 1)
            .validate()
            .is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::PimTree);
        c.shard.shards = 0;
        assert!(
            c.validate().is_err(),
            "JoinConfig::validate covers the shard config"
        );
    }

    #[test]
    fn drift_config_defaults_validate_and_builders_chain() {
        let d = DriftConfig::default();
        assert!(!d.repartition, "live repartitioning is opt-in");
        d.validate().unwrap();
        assert_eq!(d.effective_check_interval(), 4096 / 8);
        let d = DriftConfig::default()
            .with_repartition(true)
            .with_window(512)
            .with_imbalance_trigger(2.0)
            .with_cost_gate(0.5)
            .with_check_interval(10);
        assert!(d.repartition);
        assert_eq!((d.window, d.check_interval), (512, 10));
        assert_eq!(d.effective_check_interval(), 10);
        d.validate().unwrap();
        // Tiny windows floor the automatic check interval at 64.
        assert_eq!(
            DriftConfig::default()
                .with_window(100)
                .effective_check_interval(),
            64
        );
        let c = JoinConfig::symmetric(64, IndexKind::PimTree).with_drift(d);
        assert_eq!(c.drift, d);
        c.validate().unwrap();
    }

    #[test]
    fn drift_config_rejects_bad_values() {
        assert!(DriftConfig::default().with_window(0).validate().is_err());
        assert!(DriftConfig::default()
            .with_window((1 << 24) + 1)
            .validate()
            .is_err());
        assert!(DriftConfig::default()
            .with_imbalance_trigger(0.5)
            .validate()
            .is_err());
        assert!(DriftConfig::default()
            .with_imbalance_trigger(f64::NAN)
            .validate()
            .is_err());
        assert!(DriftConfig::default()
            .with_cost_gate(0.0)
            .validate()
            .is_err());
        assert!(DriftConfig::default()
            .with_cost_gate(1.5)
            .validate()
            .is_err());
        assert!(DriftConfig::default()
            .with_check_interval((1 << 24) + 1)
            .validate()
            .is_err());
        let mut c = JoinConfig::symmetric(16, IndexKind::PimTree);
        c.drift.window = 0;
        assert!(
            c.validate().is_err(),
            "JoinConfig::validate covers the drift config"
        );
    }

    #[test]
    fn index_kind_display_is_stable() {
        assert_eq!(IndexKind::PimTree.to_string(), "pim-tree");
        assert_eq!(IndexKind::BTree.to_string(), "b+tree");
        assert_eq!(IndexKind::IbChain.to_string(), "ib-chain");
    }
}
