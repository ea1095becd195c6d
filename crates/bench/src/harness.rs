//! Shared helpers for the per-figure benchmark binaries.

use std::time::Duration;

use pimtree_common::{
    BandPredicate, DriftConfig, IndexKind, JoinConfig, PimConfig, RingConfig, ShardConfig, Tuple,
};
use pimtree_join::{
    build_single_threaded, HandshakeJoin, HandshakeMode, JoinRunStats, MigrationCounters,
    ParallelIbwj, SharedIndexKind, StallCause,
};
use pimtree_numa::RangePartitioner;
use pimtree_workload::{calibrate_diff, KeyDistribution, StreamGenerator, StreamMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Smallest window-size exponent in a sweep (`w = 2^min_exp`).
    pub min_exp: u32,
    /// Largest window-size exponent in a sweep.
    pub max_exp: u32,
    /// Measured tuples per data point; 0 means "choose automatically from the
    /// window size".
    pub tuples: usize,
    /// Worker threads for the parallel operators.
    pub threads: usize,
    /// Task size for the parallel operators.
    pub task_size: usize,
    /// Workload seed.
    pub seed: u64,
    /// Task-ring capacity for the parallel engine (0 = automatic).
    pub ring_cap: usize,
    /// Ring ingest target (0 = automatic).
    pub ingest_target: usize,
    /// Idle back-off: spin rounds before yielding.
    pub spin_limit: u32,
    /// Idle back-off: yield rounds before parking.
    pub yield_limit: u32,
    /// Idle back-off: park duration in microseconds (0 = never park).
    pub park_micros: u64,
    /// Ring shards (simulated NUMA nodes) for the parallel engine. `0` means
    /// automatic (the single-ring engine; `perf_smoke` additionally sweeps
    /// its default shard counts); an explicit value — including 1 — pins the
    /// shard count everywhere.
    pub shards: usize,
    /// Tuples claimed per cross-shard steal (0 = the task size).
    pub steal_batch: usize,
    /// First-pass steal threshold (minimum backlog of a steal victim).
    pub steal_threshold: usize,
    /// Whether the engine partitions its index and window state per shard
    /// (the `ShardStore` layer) instead of sharing one index/window pair per
    /// side. Only meaningful with more than one shard.
    pub partition_index: bool,
    /// Whether the engine adopts drift-driven repartition plans live
    /// (migration epochs). Only meaningful with more than one shard.
    pub repartition: bool,
    /// Drift monitor observation window (tuples).
    pub drift_window: usize,
    /// Imbalance ratio that triggers a repartition plan.
    pub drift_trigger: f64,
    /// Maximum moved-weight fraction a plan may cost and still be adopted.
    pub drift_cost_gate: f64,
    /// Open-loop arrival rate in tuples per second for the latency harness;
    /// 0 runs closed-loop (ingest as fast as the engine admits).
    pub arrival_rate: f64,
    /// Gauge sampler period in milliseconds for `--telemetry-out` traces.
    pub telemetry_interval_ms: u64,
}

impl RunOpts {
    /// Parses `--min-exp= --max-exp= --tuples= --threads= --task-size=
    /// --seed= --ring-cap= --ingest-target= --spin= --yield= --park-us=
    /// --shards= --steal-batch= --steal-threshold= --partition-index=on|off
    /// --repartition=on|off
    /// --drift-window= --drift-trigger= --drift-cost-gate=
    /// --telemetry-interval=ms` from the command line, with figure-specific
    /// defaults. The `--telemetry-out=` path is a separate string-valued
    /// option read via [`telemetry_out_from_args`].
    pub fn parse(default_min: u32, default_max: u32) -> Self {
        let defaults = RingConfig::default();
        let shard_defaults = ShardConfig::default();
        let drift_defaults = DriftConfig::default();
        let mut opts = RunOpts {
            min_exp: default_min,
            max_exp: default_max,
            tuples: 0,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8)
                .min(16),
            task_size: 8,
            seed: 42,
            ring_cap: defaults.capacity,
            ingest_target: defaults.ingest_target,
            spin_limit: defaults.spin_limit,
            yield_limit: defaults.yield_limit,
            park_micros: defaults.park_micros,
            shards: 0,
            steal_batch: shard_defaults.steal_batch,
            steal_threshold: shard_defaults.steal_threshold,
            partition_index: shard_defaults.partition_index,
            repartition: drift_defaults.repartition,
            drift_window: drift_defaults.window,
            drift_trigger: drift_defaults.imbalance_trigger,
            drift_cost_gate: drift_defaults.cost_gate,
            arrival_rate: 0.0,
            telemetry_interval_ms: 50,
        };
        for arg in std::env::args().skip(1) {
            let mut split = arg.splitn(2, '=');
            let key = split.next().unwrap_or_default();
            let value = split.next().unwrap_or_default();
            let parse_usize = || {
                value
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad value for {key}: {value}"))
            };
            match key {
                "--min-exp" => opts.min_exp = parse_usize() as u32,
                "--max-exp" => opts.max_exp = parse_usize() as u32,
                "--tuples" => opts.tuples = parse_usize(),
                "--threads" => opts.threads = parse_usize(),
                "--task-size" => opts.task_size = parse_usize(),
                "--seed" => opts.seed = parse_usize() as u64,
                "--ring-cap" => opts.ring_cap = parse_usize(),
                "--ingest-target" => opts.ingest_target = parse_usize(),
                "--spin" => opts.spin_limit = parse_usize() as u32,
                "--yield" => opts.yield_limit = parse_usize() as u32,
                "--park-us" => opts.park_micros = parse_usize() as u64,
                "--shards" => opts.shards = parse_usize(),
                "--steal-batch" => opts.steal_batch = parse_usize(),
                "--steal-threshold" => opts.steal_threshold = parse_usize(),
                "--partition-index" => {
                    opts.partition_index = match value {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => panic!("bad value for --partition-index: {other} (use on/off)"),
                    }
                }
                "--repartition" => {
                    opts.repartition = match value {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => panic!("bad value for --repartition: {other} (use on/off)"),
                    }
                }
                "--drift-window" => opts.drift_window = parse_usize(),
                "--drift-trigger" => {
                    opts.drift_trigger = value
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad value for {key}: {value}"))
                }
                "--drift-cost-gate" => {
                    opts.drift_cost_gate = value
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad value for {key}: {value}"))
                }
                "--arrival-rate" => {
                    opts.arrival_rate = value
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("bad value for {key}: {value}"))
                }
                "--telemetry-interval" => opts.telemetry_interval_ms = parse_usize() as u64,
                // String-valued; consumed by `path_arg`.
                "--telemetry-out" | "--sample" => {}
                other => eprintln!("note: ignoring unknown argument '{other}'"),
            }
        }
        assert!(
            opts.min_exp <= opts.max_exp,
            "--min-exp must not exceed --max-exp"
        );
        opts
    }

    /// The window-size exponents of the sweep.
    pub fn window_exps(&self) -> Vec<u32> {
        (self.min_exp..=self.max_exp).collect()
    }

    /// Number of measured tuples for a window of `w` tuples: enough to slide
    /// through the window a few times, bounded so large windows stay cheap.
    pub fn tuples_for(&self, w: usize) -> usize {
        if self.tuples > 0 {
            self.tuples
        } else {
            (4 * w).clamp(1 << 16, 4 << 20)
        }
    }

    /// The task-ring configuration selected on the command line.
    pub fn ring(&self) -> RingConfig {
        RingConfig::default()
            .with_capacity(self.ring_cap)
            .with_ingest_target(self.ingest_target)
            .with_backoff(self.spin_limit, self.yield_limit, self.park_micros)
    }

    /// The sharded-ring configuration selected on the command line
    /// (`--shards=0`, the automatic default, resolves to the single-ring
    /// engine).
    pub fn shard(&self) -> ShardConfig {
        ShardConfig::default()
            .with_shards(self.shards.max(1))
            .with_steal_batch(self.steal_batch)
            .with_steal_threshold(self.steal_threshold)
            .with_partition_index(self.partition_index)
    }

    /// The drift / live-repartition configuration selected on the command
    /// line.
    pub fn drift(&self) -> DriftConfig {
        DriftConfig::default()
            .with_repartition(self.repartition)
            .with_window(self.drift_window)
            .with_imbalance_trigger(self.drift_trigger)
            .with_cost_gate(self.drift_cost_gate)
    }

    /// The gauge sampler period selected on the command line.
    pub fn telemetry_interval(&self) -> Duration {
        Duration::from_millis(self.telemetry_interval_ms)
    }
}

/// Reads a `<name>=PATH` option (`name` with its dashes) from the command
/// line. Kept out of [`RunOpts`] (which is `Copy`) because the value is an
/// owned path string; `None` when the option is absent or empty.
pub fn path_arg(name: &str) -> Option<String> {
    std::env::args().skip(1).find_map(|arg| {
        let path = arg.strip_prefix(name)?.strip_prefix('=')?;
        (!path.is_empty()).then(|| path.to_string())
    })
}

/// Reads the `--telemetry-out=PATH` option from the command line.
pub fn telemetry_out_from_args() -> Option<String> {
    path_arg("--telemetry-out")
}

/// The per-cause migration stall as a JSON object of microseconds, one key
/// per [`StallCause`] label (`{"gate_close": 1.25, ...}`).
pub fn stall_causes_json(migration: &MigrationCounters) -> String {
    let fields: Vec<String> = StallCause::ALL
        .iter()
        .map(|&c| {
            let micros = migration.stall_cause_nanos(c) as f64 / 1_000.0;
            format!("\"{}\": {micros:.2}", c.label())
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The paper's default PIM/IM-Tree configuration for a window of `w` tuples:
/// fan-out 32, leaf size 32, insertion depth 3, merge ratio 1 (the best
/// multithreaded setting per Figure 9a).
pub fn pim_config(w: usize) -> PimConfig {
    PimConfig::for_window(w)
        .with_merge_ratio(1.0)
        .with_insertion_depth(3)
}

/// Generates a two-way workload: `n` tuples of both streams whose keys follow
/// `dist`, with `s_percent`% of tuples on stream `S`, and a band predicate
/// calibrated so that a probe against a window of `w` tuples yields about
/// `match_rate` matches.
pub fn two_way_workload(
    n: usize,
    w: usize,
    match_rate: f64,
    dist: KeyDistribution,
    s_percent: f64,
    seed: u64,
) -> (Vec<Tuple>, BandPredicate) {
    let diff = calibrate_diff(dist, w, match_rate, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = StreamGenerator::new(dist, StreamMix::with_s_percent(s_percent));
    (generator.generate(&mut rng, n), BandPredicate::new(diff))
}

/// Generates a self-join workload: `n` tuples on stream `R` with a calibrated
/// band predicate.
pub fn self_join_workload(
    n: usize,
    w: usize,
    match_rate: f64,
    dist: KeyDistribution,
    seed: u64,
) -> (Vec<Tuple>, BandPredicate) {
    let diff = calibrate_diff(dist, w, match_rate, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples = (0..n as u64)
        .map(|i| Tuple::r(i, dist.sample(&mut rng)))
        .collect();
    (tuples, BandPredicate::new(diff))
}

/// Runs a single-threaded operator (NLWJ or IBWJ over the given index kind)
/// over `tuples` after warming the windows with the first `warmup` tuples.
#[allow(clippy::too_many_arguments)]
pub fn run_single(
    kind: IndexKind,
    window: usize,
    chain_length: usize,
    pim: PimConfig,
    predicate: BandPredicate,
    tuples: &[Tuple],
    warmup: usize,
    self_join: bool,
) -> JoinRunStats {
    let config = JoinConfig::symmetric(window, kind)
        .with_chain_length(chain_length)
        .with_pim(pim);
    let mut op = build_single_threaded(&config, predicate, self_join);
    let warmup = warmup.min(tuples.len());
    let (_, _) = op.run(&tuples[..warmup], false);
    let (stats, _) = op.run(&tuples[warmup..], false);
    stats
}

/// Runs the parallel shared-index engine over `tuples`.
///
/// The first `window_r + window_s` tuples (at most half the sequence) are
/// treated as warmup: they fill the sliding windows and take the PIM-Tree
/// through its first merge so that it has its partition structure, exactly
/// like the single-threaded runners are measured on warm windows. Statistics
/// cover only the remaining tuples.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel(
    kind: SharedIndexKind,
    window_r: usize,
    window_s: usize,
    threads: usize,
    task_size: usize,
    pim: PimConfig,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
) -> JoinRunStats {
    run_parallel_ring(
        kind,
        window_r,
        window_s,
        threads,
        task_size,
        pim,
        RingConfig::default(),
        predicate,
        tuples,
        self_join,
    )
}

/// Runs the parallel shared-index engine with an explicit task-ring / idle
/// back-off configuration (see [`run_parallel`] for the warmup convention).
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_ring(
    kind: SharedIndexKind,
    window_r: usize,
    window_s: usize,
    threads: usize,
    task_size: usize,
    pim: PimConfig,
    ring: RingConfig,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
) -> JoinRunStats {
    run_parallel_sharded(
        kind,
        window_r,
        window_s,
        threads,
        task_size,
        pim,
        ring,
        ShardConfig::default(),
        DriftConfig::default(),
        None,
        predicate,
        tuples,
        self_join,
    )
}

/// Runs the parallel shared-index engine on a sharded task ring. When
/// `shard.shards > 1` and no `partitioner` is given, one is built from the
/// input's key sample so that ingestion routes by key range (the paper's
/// NUMA partitioning); pass `Some(partitioner)` to control routing, or use
/// `shard.shards == 1` for the plain single-ring engine. `drift` arms live
/// repartition adoption (migration epochs) when its `repartition` flag is
/// on.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_sharded(
    kind: SharedIndexKind,
    window_r: usize,
    window_s: usize,
    threads: usize,
    task_size: usize,
    pim: PimConfig,
    ring: RingConfig,
    shard: ShardConfig,
    drift: DriftConfig,
    partitioner: Option<RangePartitioner>,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
) -> JoinRunStats {
    run_parallel_paced(
        kind,
        window_r,
        window_s,
        threads,
        task_size,
        pim,
        ring,
        shard,
        drift,
        partitioner,
        0.0,
        predicate,
        tuples,
        self_join,
    )
}

/// Runs the parallel engine like [`run_parallel_sharded`], additionally
/// pacing measured-phase ingestion as an open-loop arrival process at
/// `arrival_rate` tuples per second (0 = closed loop). Open-loop runs fill
/// [`JoinRunStats::arrival_latency`] with one arrival → propagation sample
/// per measured tuple, which is what the tail-latency SLO harness reads.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_paced(
    kind: SharedIndexKind,
    window_r: usize,
    window_s: usize,
    threads: usize,
    task_size: usize,
    pim: PimConfig,
    ring: RingConfig,
    shard: ShardConfig,
    drift: DriftConfig,
    partitioner: Option<RangePartitioner>,
    arrival_rate: f64,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
) -> JoinRunStats {
    let mut config = JoinConfig::symmetric(window_r.max(window_s), IndexKind::PimTree)
        .with_threads(threads)
        .with_task_size(task_size)
        .with_pim(pim)
        .with_ring(ring)
        .with_shard(shard)
        .with_drift(drift);
    config.window_r = window_r;
    config.window_s = window_s;
    let mut op = ParallelIbwj::new(config, predicate, kind, self_join);
    if arrival_rate > 0.0 {
        op = op.with_open_loop(arrival_rate);
    }
    if shard.shards > 1 {
        let partitioner = partitioner.unwrap_or_else(|| {
            // Bounded strided subsample: the partitioner only needs N − 1
            // quantiles, not a sorted copy of every key.
            let step = (tuples.len() / 4096).max(1);
            let sample: Vec<i64> = tuples.iter().step_by(step).map(|t| t.key).collect();
            RangePartitioner::from_key_sample(shard.shards, &sample)
        });
        op = op.with_partitioner(partitioner);
    }
    let warmup = (window_r + window_s).min(tuples.len() / 2);
    let (stats, _) = op.run_with_warmup(tuples, warmup);
    stats
}

/// Runs the round-robin partitioned (handshake-style) join.
pub fn run_handshake(
    mode: HandshakeMode,
    threads: usize,
    window_r: usize,
    window_s: usize,
    predicate: BandPredicate,
    tuples: &[Tuple],
) -> JoinRunStats {
    let op = HandshakeJoin::new(threads, window_r, window_s, predicate, mode);
    let (stats, _) = op.run(tuples);
    stats
}

/// Prints the figure banner and CSV header.
pub fn print_header(figure: &str, description: &str, columns: &[&str]) {
    println!("# {figure}: {description}");
    println!("{}", columns.join(","));
}

/// Prints one CSV row.
pub fn print_row(values: &[String]) {
    println!("{}", values.join(","));
}

/// Formats a throughput in million tuples per second.
pub fn mtps(stats: &JoinRunStats) -> String {
    format!("{:.4}", stats.million_tuples_per_second())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_for_scales_with_window_and_respects_override() {
        let opts = RunOpts {
            min_exp: 10,
            max_exp: 12,
            tuples: 0,
            threads: 4,
            task_size: 8,
            seed: 1,
            ring_cap: 0,
            ingest_target: 0,
            spin_limit: 6,
            yield_limit: 16,
            park_micros: 50,
            shards: 1,
            steal_batch: 0,
            steal_threshold: 1,
            partition_index: false,
            repartition: false,
            drift_window: 4096,
            drift_trigger: 1.5,
            drift_cost_gate: 0.9,
            arrival_rate: 0.0,
            telemetry_interval_ms: 50,
        };
        assert_eq!(opts.tuples_for(1 << 10), 1 << 16);
        assert_eq!(opts.tuples_for(1 << 18), 1 << 20);
        assert_eq!(opts.tuples_for(1 << 24), 4 << 20);
        let fixed = RunOpts {
            tuples: 1234,
            ..opts
        };
        assert_eq!(fixed.tuples_for(1 << 24), 1234);
        assert_eq!(opts.window_exps(), vec![10, 11, 12]);
        let ring = RunOpts {
            ring_cap: 512,
            spin_limit: 2,
            ..opts
        }
        .ring();
        assert_eq!(ring.capacity, 512);
        assert_eq!(ring.spin_limit, 2);
        ring.validate().unwrap();
        let shard = RunOpts {
            shards: 4,
            steal_batch: 2,
            steal_threshold: 3,
            partition_index: true,
            ..opts
        }
        .shard();
        assert_eq!(
            (shard.shards, shard.steal_batch, shard.steal_threshold),
            (4, 2, 3)
        );
        assert!(shard.partition_index);
        shard.validate().unwrap();
        let drift = RunOpts {
            repartition: true,
            drift_window: 256,
            drift_trigger: 2.0,
            drift_cost_gate: 0.5,
            ..opts
        }
        .drift();
        assert!(drift.repartition);
        assert_eq!(drift.window, 256);
        assert!((drift.imbalance_trigger - 2.0).abs() < 1e-9);
        assert!((drift.cost_gate - 0.5).abs() < 1e-9);
        drift.validate().unwrap();
        let interval = RunOpts {
            telemetry_interval_ms: 10,
            ..opts
        }
        .telemetry_interval();
        assert_eq!(interval, Duration::from_millis(10));
    }

    #[test]
    fn workloads_hit_the_requested_match_rate_roughly() {
        let w = 1 << 12;
        let (tuples, predicate) =
            two_way_workload(6 * w, w, 2.0, KeyDistribution::uniform(), 50.0, 7);
        let stats = run_single(
            IndexKind::BTree,
            w,
            2,
            pim_config(w),
            predicate,
            &tuples,
            2 * w,
            false,
        );
        let rate = stats.observed_match_rate();
        assert!(
            (0.8..=4.0).contains(&rate),
            "observed match rate {rate}, expected about 2"
        );
    }

    #[test]
    fn single_and_parallel_runners_produce_stats() {
        let w = 1 << 10;
        let (tuples, predicate) = self_join_workload(4 * w, w, 2.0, KeyDistribution::uniform(), 3);
        let st = run_single(
            IndexKind::PimTree,
            w,
            2,
            pim_config(w),
            predicate,
            &tuples,
            w,
            true,
        );
        assert!(st.million_tuples_per_second() > 0.0);
        let par = run_parallel(
            SharedIndexKind::PimTree,
            w,
            w,
            2,
            4,
            pim_config(w),
            predicate,
            &tuples,
            true,
        );
        // The parallel runner excludes its window-fill warmup (2w here) from
        // the reported statistics.
        assert_eq!(par.tuples as usize, tuples.len() - 2 * w);
        let hs = run_handshake(HandshakeMode::Ibwj, 2, w, w, predicate, &tuples);
        assert_eq!(hs.tuples as usize, tuples.len());
        // The sharded runner reports the shard provenance and accounts every
        // post-warmup claim in the simulated traffic model.
        let sharded = run_parallel_sharded(
            SharedIndexKind::PimTree,
            w,
            w,
            2,
            4,
            pim_config(w),
            RingConfig::default(),
            ShardConfig::default().with_shards(2),
            DriftConfig::default(),
            None,
            predicate,
            &tuples,
            true,
        );
        assert_eq!(sharded.tuples, par.tuples);
        assert_eq!(sharded.shard.shards, 2);
        assert_eq!(
            sharded.shard.local_accesses + sharded.shard.remote_accesses,
            sharded.tuples
        );
        // The partitioned-store runner routes every post-warmup insert and
        // probe through the per-shard store and charges its traffic model.
        let partitioned = run_parallel_sharded(
            SharedIndexKind::PimTree,
            w,
            w,
            2,
            4,
            pim_config(w),
            RingConfig::default(),
            ShardConfig::default()
                .with_shards(2)
                .with_partition_index(true),
            DriftConfig::default(),
            None,
            predicate,
            &tuples,
            true,
        );
        assert_eq!(partitioned.tuples, par.tuples);
        assert_eq!(partitioned.results, sharded.results);
        assert_eq!(partitioned.store.partitioned, 1);
        assert_eq!(partitioned.store.store_shards, 2);
        assert_eq!(
            partitioned.store.local_inserts + partitioned.store.remote_inserts,
            partitioned.tuples
        );
        assert_eq!(partitioned.store.probes, partitioned.tuples);
        assert!(partitioned.store.simulated_store_cost > 0);
        // The open-loop runner reports one arrival→drain latency sample per
        // measured tuple; the closed-loop runs above report none.
        assert!(partitioned.arrival_latency.is_none());
        let paced = run_parallel_paced(
            SharedIndexKind::PimTree,
            w,
            w,
            2,
            4,
            pim_config(w),
            RingConfig::default(),
            ShardConfig::default().with_shards(2),
            DriftConfig::default(),
            None,
            5_000_000.0,
            predicate,
            &tuples,
            true,
        );
        let hist = paced
            .arrival_latency
            .as_ref()
            .expect("open-loop run records arrival latency");
        assert_eq!(hist.len(), paced.tuples);
    }
}
