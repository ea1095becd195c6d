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
//! Each simulated node owns a contiguous key range with its own PIM-Tree, and
//! every index access is charged a local or remote cost depending on whether
//! the accessing node owns the touched range. The partitioning and
//! repartitioning algorithms — the actual research questions — are real; only
//! the memory-latency feedback is simulated.
//!
//! * [`topology`] — the simulated topology and local/remote access accounting;
//! * [`partition`] — workload-aware range partitioning over key samples and
//!   the drift-driven repartitioning scheme;
//! * [`join`] — a NUMA-partitioned window band join built from one PIM-Tree
//!   per node, validated against the brute-force reference.

pub mod join;
pub mod partition;
pub mod topology;

pub use join::{reference_band_join, NumaPartitionedJoin, PlacementStrategy};
pub use partition::{DriftMonitor, PartitionLoad, RangePartitioner, RepartitionPlan};
pub use topology::{AccessKind, NumaTopology, TrafficAccount};
