//! Simulated NUMA substrate for PIM-Tree stream joins.
//!
//! The paper's conclusion names a parallel IBWJ for non-uniform memory access
//! (NUMA) architectures as future work and calls out two missing pieces:
//! a range-partitioning technique that balances the workload across memory
//! nodes by considering *both* input and output tuples, and a repartitioning
//! scheme that limits the data transferred between nodes when the value
//! distribution drifts.
//!
//! Real NUMA placement needs `libnuma`/`numactl` and a multi-socket host,
//! neither of which is available (or allowed as a dependency) here, so this
//! crate follows the substitution rule: it models a NUMA machine in software.
//! The parallel engine in `pimtree-join` routes its task ring and its
//! partitioned index store with a [`RangePartitioner`], so each simulated node
//! owns one contiguous key range, and charges every claim, insert and probe a
//! local or remote cost to a [`TrafficAccount`]. The partitioning and
//! repartitioning algorithms — the actual research questions — are real; only
//! the memory-latency feedback is simulated.
//!
//! * [`topology`] — the simulated topology and local/remote access accounting;
//! * [`partition`] — workload-aware range partitioning over key samples and
//!   the drift-driven repartitioning scheme.

pub mod partition;
pub mod topology;

pub use partition::{DriftMonitor, PartitionLoad, RangePartitioner, RepartitionPlan};
pub use topology::{AccessKind, NumaTopology, TrafficAccount};
