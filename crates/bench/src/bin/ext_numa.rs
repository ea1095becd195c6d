//! Extension study (no paper figure): range placement on the simulated NUMA
//! substrate.
//!
//! Runs the parallel engine (`ParallelIbwj`) with the partitioned store on:
//! each simulated node owns one key range of a workload-aware
//! `RangePartitioner` fitted to a key sample, and with it one ring shard, one
//! index and one window slice per side. For 2, 4 and 8 nodes and for a uniform
//! and a heavily skewed key distribution it reports the share of store
//! accesses that crossed nodes, the store's simulated memory cost per tuple,
//! the mean number of nodes a probe visits and the share of tuples workers
//! stole from another node's ring shard. Every node gets at least one home
//! worker (`--threads` is raised to the node count).

use pimtree_bench::harness::*;
use pimtree_join::SharedIndexKind;
use pimtree_numa::RangePartitioner;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(14, 14);
    let w = 1usize << opts.max_exp;
    let n = (4 * w).min(opts.tuples_for(w));

    print_header(
        "ext_numa",
        &format!(
            "range placement on the partitioned store (w = 2^{}, {} tuples)",
            opts.max_exp, n
        ),
        &[
            "distribution",
            "nodes",
            "threads",
            "remote_fraction",
            "simulated_cost_per_tuple",
            "mean_probe_fanout",
            "steal_fraction",
        ],
    );

    let distributions = [
        ("uniform", KeyDistribution::uniform()),
        ("gaussian", KeyDistribution::gaussian(0.5, 0.125)),
    ];
    for (name, dist) in distributions {
        let (tuples, predicate) = two_way_workload(n, w, 2.0, dist, 50.0, opts.seed);
        let sample: Vec<i64> = tuples.iter().step_by(7).map(|t| t.key).collect();
        for nodes in [2usize, 4, 8] {
            let threads = opts.workers().max(nodes);
            let config = opts
                .engine_config(w, threads)
                .with_shard(opts.shard().with_shards(nodes).with_partition_index(true));
            let stats = run_engine(
                config,
                SharedIndexKind::PimTree,
                predicate,
                &tuples,
                false,
                |op| op.with_partitioner(RangePartitioner::from_key_sample(nodes, &sample)),
            );
            print_row(&[
                name.to_string(),
                nodes.to_string(),
                threads.to_string(),
                format!("{:.3}", stats.store.remote_fraction()),
                format!(
                    "{:.0}",
                    stats.store.simulated_store_cost as f64 / tuples.len() as f64
                ),
                format!("{:.2}", stats.store.mean_probe_fanout()),
                format!("{:.3}", stats.shard.steal_fraction()),
            ]);
        }
    }
}
