//! Open-loop tail-latency smoke of a migration epoch.
//!
//! A drifting-skew workload (the key distribution jumps to a disjoint range
//! at the stream midpoint) is offered to the partitioned-store engine as an
//! **open-loop arrival process**: tuples become available at a fixed rate —
//! calibrated to a fraction of the engine's closed-loop throughput — and
//! each tuple's latency is measured from its *scheduled* arrival to its
//! propagation, so time spent queued behind a quiesced engine counts toward
//! the tail (a closed-loop run simply stops offering load during a stall
//! and never sees it: coordinated omission).
//!
//! At the midpoint a repartition plan fitted to the shifted key range is
//! force-adopted through one migration epoch: quiesce, swap, migrate every
//! re-homed index entry and window tuple, resume. The harness writes
//! per-leg p50/p99/p999/max arrival latencies plus the migration stall
//! counters — including the per-cause `stall_causes_us` decomposition — to
//! `BENCH_latency.json`, and asserts on every leg that each measured tuple
//! has one latency sample, that the plan was adopted and that the stall
//! causes sum to the total stall. `--telemetry-out=PATH` streams gauge
//! samples every `--telemetry-interval=` ms (default 50) to
//! `PATH.<shards>shards.<rate>tps`, one trace per leg.

use std::io::Write;

use pimtree_bench::harness::{
    pim_config, print_header, stall_causes_json, telemetry_out_from_args, two_way_workload, RunOpts,
};
use pimtree_common::{IndexKind, JoinConfig, ShardConfig, Tuple};
use pimtree_join::{JoinRunStats, ParallelIbwj, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_workload::KeyDistribution;

/// Offered load as a fraction of the calibrated closed-loop throughput:
/// far enough below saturation that the queue drains between stalls, close
/// enough that a multi-millisecond quiesce shows up in the tail.
const OFFERED_FRACTION: f64 = 0.5;

struct Leg {
    shards: usize,
    offered_tps: f64,
    stats: JoinRunStats,
}

#[allow(clippy::too_many_arguments)]
fn run_leg(
    opts: &RunOpts,
    w: usize,
    shards: usize,
    arrival_rate: f64,
    tuples: &[Tuple],
    predicate: pimtree_common::BandPredicate,
    initial: &RangePartitioner,
    target: &RangePartitioner,
) -> JoinRunStats {
    let mut config = JoinConfig::symmetric(w, IndexKind::PimTree)
        .with_threads(opts.threads)
        .with_task_size(opts.task_size)
        .with_pim(pim_config(w))
        .with_ring(opts.ring())
        .with_shard(
            ShardConfig::default()
                .with_shards(shards)
                .with_partition_index(true),
        )
        .with_drift(opts.drift());
    config.window_r = w;
    config.window_s = w;
    let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
        .with_partitioner(initial.clone())
        .with_forced_repartition(tuples.len() / 2, target.clone());
    if let Some(path) = telemetry_out_from_args() {
        // One trace per leg would clobber the file; suffix by configuration.
        op = op.with_telemetry_out(
            format!("{path}.{shards}shards.{}tps", arrival_rate as u64),
            opts.telemetry_interval(),
        );
    }
    if arrival_rate > 0.0 {
        op = op.with_open_loop(arrival_rate);
    }
    let warmup = (2 * w).min(tuples.len() / 2);
    let (stats, _) = op.run_with_warmup(tuples, warmup);
    stats
}

fn main() {
    let opts = RunOpts::parse(13, 13);
    let w = 1usize << opts.max_exp;
    let n = opts.tuples_for(w);
    let shard_counts: Vec<usize> = if opts.shards > 1 {
        vec![opts.shards]
    } else {
        vec![2, 4]
    };
    let (tuples, predicate) =
        two_way_workload(n, w, 2.0, KeyDistribution::uniform(), 50.0, opts.seed);
    // Drifting skew: the second half of the stream moves to a disjoint key
    // range, so the plan fitted to it re-homes essentially every live tuple.
    let drift_shift = 2_000_000_000i64;
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
    let sample_of = |slice: &[Tuple]| -> Vec<i64> {
        slice
            .iter()
            .step_by((slice.len() / 8192).max(1))
            .map(|t| t.key)
            .collect()
    };
    let first_sample = sample_of(&drifting[..drifting.len() / 2]);
    let second_sample = sample_of(&drifting[drifting.len() / 2..]);

    print_header(
        "latency_smoke",
        "open-loop tail latency of a migration epoch under drifting skew",
        &[
            "shards",
            "offered_ktps",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "epochs",
            "stall_us",
            "max_stall_us",
        ],
    );

    let mut legs: Vec<Leg> = Vec::new();
    for &shards in &shard_counts {
        let initial = RangePartitioner::from_key_sample(shards, &first_sample);
        let target = RangePartitioner::from_key_sample(shards, &second_sample);
        // Calibrate the offered rate once per shard count on a closed-loop
        // run, then offer that rate open-loop.
        let closed = run_leg(
            &opts, w, shards, 0.0, &drifting, predicate, &initial, &target,
        );
        let offered_tps = closed.million_tuples_per_second() * 1.0e6 * OFFERED_FRACTION;
        let stats = run_leg(
            &opts,
            w,
            shards,
            offered_tps,
            &drifting,
            predicate,
            &initial,
            &target,
        );
        let hist = stats
            .arrival_latency
            .as_ref()
            .expect("open-loop run records arrival latency");
        assert_eq!(
            hist.len(),
            stats.tuples,
            "one arrival latency sample per measured tuple"
        );
        assert!(
            stats.migration.epochs >= 1,
            "the forced plan must be adopted ({shards} shards)"
        );
        assert!(stats.migration.tuples_moved() > 0);
        assert_eq!(
            stats.migration.stall_causes.total_nanos(),
            stats.migration.stall_nanos,
            "stall causes must sum to the total stall ({shards} shards)"
        );
        println!(
            "{shards},{:.1},{:.1},{:.1},{:.1},{:.1},{},{:.1},{:.1}",
            offered_tps / 1.0e3,
            hist.p50_micros(),
            hist.p99_micros(),
            hist.p999_micros(),
            hist.max_micros(),
            stats.migration.epochs,
            stats.migration.stall_micros(),
            stats.migration.max_stall_micros(),
        );
        legs.push(Leg {
            shards,
            offered_tps,
            stats,
        });
    }

    let entries: Vec<String> = legs
        .iter()
        .map(|l| {
            let hist = l.stats.arrival_latency.as_ref().unwrap();
            format!(
                concat!(
                    "    {{\"shards\": {}, ",
                    "\"offered_rate_tps\": {:.0}, \"mtps\": {:.4}, ",
                    "\"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, ",
                    "\"max_us\": {:.2}, \"migration_epochs\": {}, ",
                    "\"migrated_tuples\": {}, ",
                    "\"migration_stall_us\": {:.2}, \"migration_max_stall_us\": {:.2}, ",
                    "\"stall_causes_us\": {}}}"
                ),
                l.shards,
                l.offered_tps,
                l.stats.million_tuples_per_second(),
                hist.p50_micros(),
                hist.p99_micros(),
                hist.p999_micros(),
                hist.max_micros(),
                l.stats.migration.epochs,
                l.stats.migration.tuples_moved(),
                l.stats.migration.stall_micros(),
                l.stats.migration.max_stall_micros(),
                stall_causes_json(&l.stats.migration),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"latency_slo_open_loop\",\n",
            "  \"window_exp\": {},\n",
            "  \"tuples\": {},\n",
            "  \"threads\": {},\n",
            "  \"task_size\": {},\n",
            "  \"offered_fraction\": {},\n",
            "  \"drift_shift\": {},\n",
            "  \"entries\": [\n{}\n  ]\n",
            "}}\n"
        ),
        opts.max_exp,
        n,
        opts.threads,
        opts.task_size,
        OFFERED_FRACTION,
        drift_shift,
        entries.join(",\n"),
    );
    let path = "BENCH_latency.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
