//! Range partitioning for the sharded PIM-Tree stream join.
//!
//! The paper's conclusion names a parallel IBWJ for non-uniform memory access
//! (NUMA) architectures as future work and calls out two missing pieces:
//! a range-partitioning technique that balances the workload across memory
//! nodes by considering *both* input and output tuples, and a repartitioning
//! scheme that limits the data transferred between nodes when the value
//! distribution drifts.
//!
//! Real NUMA placement needs `libnuma`/`numactl` and a multi-socket host,
//! neither of which is available (or allowed as a dependency) here. This
//! crate holds the two algorithms; the parallel engine in `pimtree-join`
//! routes its task ring and its partitioned index store with a
//! [`RangePartitioner`], so each shard owns one contiguous key range. What
//! crossing shards would cost is left to a multi-socket host: the engine
//! counts each worker's home and cross-shard claims, inserts and probe
//! visits, and puts no price on them.
//!
//! * [`partition`] — workload-aware range partitioning over key samples and
//!   the drift-driven repartitioning scheme.

pub mod partition;

pub use partition::{
    DriftMonitor, PartitionLoad, RangePartitioner, RepartitionPlan, DRIFT_WINDOW, IMBALANCE_TRIGGER,
};
