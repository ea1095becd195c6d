//! Perf smoke test: a quick, scripted measurement of the parallel engine's
//! thread scaling that machines (CI, future PRs) can diff.
//!
//! Runs the uniform two-way workload through the parallel IBWJ at 1/2/4/8
//! worker threads — the PIM-Tree backend with the batched CSS group probe
//! and the Bw-Tree backend for reference — plus a sharded-ring sweep (key-range routed shards with cross-shard
//! stealing), a partitioned-store sweep (the same shard counts with the
//! per-shard index/window store on, against the shared-store arm as its
//! baseline), and a drifting-skew sweep whose key range shifts mid-stream —
//! run with and without `--repartition on`, so the live migration-epoch
//! path (drift-triggered partitioner swap plus shard-state migration) leaves
//! its adopted-epoch / moved-tuple / stall counters in the trajectory — and
//! writes the results as JSON to `BENCH_parallel.json` (and stdout), so
//! every PR leaves a comparable throughput trajectory behind.
//! The JSON records its provenance (host core count, the simulated NUMA node
//! count of the sharded arm, architecture, OS, the detected SIMD level of
//! the intra-node search, and the full
//! engine/ring/shard configuration), so trajectories from different
//! hosts — in particular the 1-core build container versus a real multicore
//! box — are never silently compared as equals.
//!
//! Accepts the shared harness flags (`--max-exp= --tuples= --task-size=
//! --ring-cap= --spin= --yield= --park-us= --seed= --shards= --steal-batch=
//! --steal-threshold=`); the defaults keep the run under a couple of minutes
//! on a laptop core. `--shards=` pins the sharded sweep to one shard count
//! (default: sweep 1/2/4). The drift sweep always runs both repartition
//! arms at every swept shard count above 1; `--drift-window=`,
//! `--drift-trigger=` and `--drift-cost-gate=` tune its monitor.
//!
//! Every result row carries the per-cause migration-stall decomposition
//! (`stall_causes_us`) plus the per-tuple step-cost breakdown
//! (`cost_ns_per_tuple`; the engine times phases, not probes, so its
//! `search` and `scan` are 0).

use std::io::Write;

use pimtree_bench::harness::*;
use pimtree_common::{simd, DriftConfig, Step, Tuple};
use pimtree_join::{JoinRunStats, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_workload::KeyDistribution;

fn entry_json(backend: &str, threads: usize, stats: &JoinRunStats) -> String {
    format!(
        concat!(
            "    {{\"backend\": \"{}\", ",
            "\"threads\": {}, \"shards\": {}, \"mtps\": {:.4}, \"results\": {}, ",
            "\"mean_latency_us\": {:.2}, \"claim_retries_per_task\": {:.4}, ",
            "\"merges\": {}, \"probe_batches\": {}, \"mean_probe_batch\": {:.2}, ",
            "\"probe_dedup_rate\": {:.4}, \"nodes_prefetched\": {}, ",
            "\"simd_node_searches\": {}, ",
            "\"scalar_probes\": {}, \"steals\": {}, \"stolen_tuples\": {}, ",
            "\"steal_fraction\": {:.4}, \"shard_remote_fraction\": {:.4}, ",
            "\"simulated_numa_cost\": {}, ",
            "\"partition_index\": {}, \"store_shards\": {}, ",
            "\"mean_probe_fanout\": {:.4}, \"single_shard_probes\": {}, ",
            "\"store_remote_fraction\": {:.4}, \"simulated_store_cost\": {}, ",
            "\"repartition\": {}, \"drift_observations\": {}, ",
            "\"migration_epochs\": {}, \"migration_plans_rejected\": {}, ",
            "\"migrated_index_entries\": {}, \"migrated_window_tuples\": {}, ",
            "\"simulated_move_cost\": {}, \"migration_stall_us\": {:.2}, ",
            "\"migration_max_stall_us\": {:.2}, ",
            "\"stall_causes_us\": {}, ",
            "\"cost_ns_per_tuple\": {{\"search\": {:.2}, \"scan\": {:.2}, ",
            "\"insert\": {:.2}, \"delete\": {:.2}, \"merge\": {:.2}}}}}"
        ),
        backend,
        threads,
        stats.shard.shards.max(1),
        stats.million_tuples_per_second(),
        stats.results,
        stats.latency.mean_micros(),
        stats.ring.claim_contention(),
        stats.merges,
        stats.probe.batches,
        stats.probe.mean_batch_size(),
        stats.probe.dedup_rate(),
        stats.probe.nodes_prefetched,
        stats.probe.simd_node_searches,
        stats.probe.scalar_probes,
        stats.shard.steal_tasks,
        stats.shard.stolen_tuples,
        stats.shard.steal_fraction(),
        stats.shard.remote_fraction(),
        stats.shard.simulated_numa_cost,
        stats.store.partitioned == 1,
        stats.store.store_shards.max(1),
        stats.store.mean_probe_fanout(),
        stats.store.single_shard_probes,
        stats.store.remote_fraction(),
        stats.store.simulated_store_cost,
        stats.migration.enabled == 1,
        stats.migration.observations,
        stats.migration.epochs,
        stats.migration.plans_rejected,
        stats.migration.index_entries_moved,
        stats.migration.window_tuples_moved,
        stats.migration.simulated_move_cost,
        stats.migration.stall_micros(),
        stats.migration.max_stall_micros(),
        stall_causes_json(&stats.migration),
        stats.breakdown.per_tuple_nanos(Step::Search),
        stats.breakdown.per_tuple_nanos(Step::Scan),
        stats.breakdown.per_tuple_nanos(Step::Insert),
        stats.breakdown.per_tuple_nanos(Step::Delete),
        stats.breakdown.per_tuple_nanos(Step::Merge),
    )
}

fn main() {
    let opts = RunOpts::parse(14, 14);
    // The sharded sweep below may override the shard *count*, so validate
    // the flags up front — a bad `--shards=`/`--steal-*` must fail loudly
    // instead of being silently replaced by the sweep's values.
    opts.shard().validate().expect("invalid shard flags");
    opts.drift().validate().expect("invalid drift flags");
    let w = 1usize << opts.max_exp;
    let n = opts.tuples_for(w);
    let (tuples, predicate) = two_way_workload(
        n + 2 * w,
        w,
        2.0,
        KeyDistribution::uniform(),
        50.0,
        opts.seed,
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let stats = run_parallel_ring(
            SharedIndexKind::PimTree,
            w,
            w,
            threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            predicate,
            &tuples,
            false,
        );
        println!(
            "perf_smoke pim_tree threads={threads}: {:.4} Mtps",
            stats.million_tuples_per_second()
        );
        entries.push(entry_json("pim_tree", threads, &stats));
    }
    // Bw-Tree backend for reference (it has no batched probe path).
    for threads in [1usize, 2, 4, 8] {
        let stats = run_parallel_ring(
            SharedIndexKind::BwTree,
            w,
            w,
            threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            predicate,
            &tuples,
            false,
        );
        println!(
            "perf_smoke bw_tree threads={threads}: {:.4} Mtps",
            stats.million_tuples_per_second()
        );
        entries.push(entry_json("bw_tree", threads, &stats));
    }
    // Sharded-ring sweep: key-range routed shards with cross-shard stealing.
    // An explicit `--shards=` — including 1 — pins a single count (the CI
    // shard matrix does); the automatic default (0) sweeps the interesting
    // shapes.
    let shard_counts: Vec<usize> = if opts.shards > 0 {
        vec![opts.shards]
    } else {
        vec![1, 2, 4]
    };
    let numa_nodes_simulated = shard_counts.iter().copied().max().unwrap_or(1);
    for &shards in &shard_counts {
        for threads in [2usize, 8] {
            let stats = run_parallel_sharded(
                SharedIndexKind::PimTree,
                w,
                w,
                threads,
                opts.task_size,
                pim_config(w),
                opts.ring(),
                opts.shard().with_shards(shards).with_partition_index(false),
                DriftConfig::default(),
                None,
                predicate,
                &tuples,
                false,
            );
            println!(
                "perf_smoke pim_tree sharded shards={shards} threads={threads}: \
                 {:.4} Mtps (steal fraction {:.3})",
                stats.million_tuples_per_second(),
                stats.shard.steal_fraction()
            );
            entries.push(entry_json("pim_tree_sharded", threads, &stats));
        }
    }
    // Partitioned-store sweep: the same sharded configurations with the
    // per-shard index/window store on — the shared-store arm directly above
    // is its baseline. With one shard the store short-circuits to the shared
    // path, so that row doubles as a no-overhead check.
    for &shards in &shard_counts {
        for threads in [2usize, 8] {
            let stats = run_parallel_sharded(
                SharedIndexKind::PimTree,
                w,
                w,
                threads,
                opts.task_size,
                pim_config(w),
                opts.ring(),
                opts.shard().with_shards(shards).with_partition_index(true),
                DriftConfig::default(),
                None,
                predicate,
                &tuples,
                false,
            );
            println!(
                "perf_smoke pim_tree partitioned shards={shards} threads={threads}: \
                 {:.4} Mtps (mean probe fan-out {:.3}, store remote fraction {:.3})",
                stats.million_tuples_per_second(),
                stats.store.mean_probe_fanout(),
                stats.store.remote_fraction()
            );
            entries.push(entry_json("pim_tree_partitioned", threads, &stats));
        }
    }
    // Drift-workload sweep: the key distribution shifts to a disjoint range
    // halfway through the measured stream, so a partitioner fitted to the
    // first half goes maximally out of balance. The `--repartition on` arm
    // must adopt at least one plan mid-run (a migration epoch: quiesce,
    // partitioner swap, shard-state migration); the off arm is its baseline
    // and doubles as the "flag off leaves the counters untouched" check.
    let drift_shift = 2_000_000_000i64; // 2x the uniform key scale: disjoint
    let drifting: Vec<Tuple> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i >= tuples.len() / 2 {
                Tuple::new(t.side, t.seq, t.key + drift_shift)
            } else {
                *t
            }
        })
        .collect();
    let first_half_sample: Vec<i64> = drifting[..drifting.len() / 2]
        .iter()
        .step_by((drifting.len() / 8192).max(1))
        .map(|t| t.key)
        .collect();
    for &shards in &shard_counts {
        if shards <= 1 {
            continue; // drift adoption needs a sharded, range-routed engine
        }
        for repartition in [false, true] {
            let stats = run_parallel_sharded(
                SharedIndexKind::PimTree,
                w,
                w,
                2,
                opts.task_size,
                pim_config(w),
                opts.ring(),
                opts.shard().with_shards(shards).with_partition_index(true),
                opts.drift().with_repartition(repartition),
                Some(RangePartitioner::from_key_sample(
                    shards,
                    &first_half_sample,
                )),
                predicate,
                &drifting,
                false,
            );
            println!(
                "perf_smoke pim_tree drift shards={shards} repartition={repartition}: \
                 {:.4} Mtps (epochs {}, moved {}, stall {:.1}us)",
                stats.million_tuples_per_second(),
                stats.migration.epochs,
                stats.migration.tuples_moved(),
                stats.migration.stall_micros()
            );
            if repartition {
                assert!(
                    stats.migration.epochs >= 1,
                    "the drifting workload must adopt at least one repartition plan"
                );
                assert!(
                    stats.migration.tuples_moved() > 0,
                    "a full key-range shift must migrate shard state"
                );
                // Stall-cause attribution tiles every quiesce, so the
                // per-cause decomposition is the total stall.
                assert_eq!(
                    stats.migration.stall_causes.total_nanos(),
                    stats.migration.stall_nanos,
                    "stall causes must sum to the total stall"
                );
            } else {
                assert_eq!(
                    stats.migration.epochs, 0,
                    "--repartition off must leave the migration counters untouched"
                );
            }
            entries.push(entry_json("pim_tree_drift", 2, &stats));
        }
    }
    let ring = opts.ring();
    let shard = opts.shard();
    let drift = opts.drift();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"parallel_ibwj_ring\",\n",
            "  \"window_exp\": {},\n",
            "  \"tuples\": {},\n",
            "  \"task_size\": {},\n",
            "  \"host\": {{\"cores\": {}, \"numa_nodes_simulated\": {}, ",
            "\"arch\": \"{}\", \"os\": \"{}\", \"simd\": \"{}\"}},\n",
            "  \"engine\": {{\"merge_policy\": \"non_blocking\", ",
            "\"ring\": {{\"capacity\": {}, \"ingest_target\": {}, \"spin\": {}, ",
            "\"yield\": {}, \"park_us\": {}}}, ",
            "\"shard\": {{\"shards_swept\": {:?}, \"steal_batch\": {}, ",
            "\"steal_threshold\": {}, \"partition_index_swept\": true}}, ",
            "\"drift\": {{\"repartition_swept\": {}, \"window\": {}, ",
            "\"imbalance_trigger\": {:.2}, \"cost_gate\": {:.2}}}}},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        opts.max_exp,
        tuples.len(),
        opts.task_size,
        cores,
        numa_nodes_simulated,
        std::env::consts::ARCH,
        std::env::consts::OS,
        simd::active_level().label(),
        ring.capacity,
        ring.ingest_target,
        ring.spin_limit,
        ring.yield_limit,
        ring.park_micros,
        shard_counts,
        shard.steal_batch,
        shard.steal_threshold,
        shard_counts.iter().any(|&s| s > 1),
        drift.window,
        drift.imbalance_trigger,
        drift.cost_gate,
        entries.join(",\n"),
    );
    let path = "BENCH_parallel.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
