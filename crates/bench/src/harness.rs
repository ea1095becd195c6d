//! Shared helpers for the `figs` binary and the engine smokes and profilers:
//! the flag parser, workload generation with match-rate calibration, and one
//! runner per operator kind.

use std::time::Duration;

use pimtree_common::{
    BandPredicate, DriftConfig, IndexKind, JoinConfig, PimConfig, RingConfig, ShardConfig, Tuple,
};
use pimtree_join::{
    build_single_threaded, HandshakeJoin, HandshakeMode, JoinRunStats, MigrationCounters,
    ParallelIbwj, SharedIndexKind, StallCause,
};
use pimtree_workload::{calibrate_diff, KeyDistribution, StreamGenerator, StreamMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Command-line options shared by `figs`, the smokes and the profilers.
#[derive(Debug, Clone)]
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
    /// `--telemetry-out=PATH`: where to stream the gauge trace.
    pub telemetry_out: Option<String>,
    /// `--sample=PATH`: where `engine_profile` writes its address samples.
    pub sample: Option<String>,
    /// Positional arguments: the figure ids `figs` runs (empty = all).
    pub ids: Vec<String>,
    /// The `--min-exp` / `--max-exp` values given on the command line.
    exp_flags: (Option<u32>, Option<u32>),
}

impl RunOpts {
    /// Parses the command line of a smoke or profiler binary with its default
    /// window exponents. A bad argument prints the error and exits with
    /// status 2.
    pub fn parse(default_min: u32, default_max: u32) -> Self {
        Self::from_env((default_min, default_max), false)
    }

    /// Parses the command line of `figs`: figure ids and the flags the
    /// figures read. Resolve the window exponents per figure with
    /// [`RunOpts::with_default_exps`].
    pub fn parse_figures() -> Self {
        Self::from_env((0, 0), true)
    }

    fn from_env(defaults: (u32, u32), figures: bool) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&args, defaults, figures).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name). `figures` selects the
    /// `figs` command line: positional figure ids are allowed and only the
    /// flags up to `--park-us=` are; otherwise every flag is and no
    /// positional argument is. An unknown flag, an unparsable value, or a
    /// window exponent `e` with `1 << e` out of `usize` range is an error
    /// naming the flag. A lone `--min-exp` or `--max-exp` moves the other
    /// bound along with it; both given in the wrong order is an error.
    pub fn parse_from(
        args: &[String],
        defaults: (u32, u32),
        figures: bool,
    ) -> Result<Self, String> {
        let ring = RingConfig::default();
        let shard = ShardConfig::default();
        let drift = DriftConfig::default();
        let mut opts = RunOpts {
            min_exp: defaults.0,
            max_exp: defaults.1,
            tuples: 0,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8)
                .min(16),
            task_size: 8,
            seed: 42,
            ring_cap: ring.capacity,
            ingest_target: ring.ingest_target,
            spin_limit: ring.spin_limit,
            yield_limit: ring.yield_limit,
            park_micros: ring.park_micros,
            shards: 0,
            steal_batch: shard.steal_batch,
            steal_threshold: shard.steal_threshold,
            partition_index: shard.partition_index,
            repartition: drift.repartition,
            drift_window: drift.window,
            drift_trigger: drift.imbalance_trigger,
            drift_cost_gate: drift.cost_gate,
            arrival_rate: 0.0,
            telemetry_interval_ms: 50,
            telemetry_out: None,
            sample: None,
            ids: Vec::new(),
            exp_flags: (None, None),
        };
        for arg in args {
            if !arg.starts_with("--") {
                if !figures {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                opts.ids.push(arg.clone());
                continue;
            }
            let (key, value) = arg.split_once('=').unwrap_or((arg, ""));
            let bad = || format!("bad value for {key}: '{value}'");
            let num = || value.parse::<u64>().map_err(|_| bad());
            let real = || value.parse::<f64>().map_err(|_| bad());
            let on_off = || match value {
                "on" | "true" | "1" => Ok(true),
                "off" | "false" | "0" => Ok(false),
                _ => Err(format!("bad value for {key}: '{value}' (use on/off)")),
            };
            let exp = || match value.parse::<u32>() {
                Ok(e) if e < usize::BITS => Ok(e),
                Ok(_) => Err(format!("{key}={value}: 1 << {value} overflows usize")),
                Err(_) => Err(bad()),
            };
            let path = || match value {
                "" => Err(bad()),
                p => Ok(Some(p.to_string())),
            };
            match key {
                "--min-exp" => opts.exp_flags.0 = Some(exp()?),
                "--max-exp" => opts.exp_flags.1 = Some(exp()?),
                "--tuples" => opts.tuples = num()? as usize,
                "--threads" => opts.threads = num()? as usize,
                "--task-size" => opts.task_size = num()? as usize,
                "--seed" => opts.seed = num()?,
                "--ring-cap" => opts.ring_cap = num()? as usize,
                "--ingest-target" => opts.ingest_target = num()? as usize,
                "--spin" => opts.spin_limit = num()? as u32,
                "--yield" => opts.yield_limit = num()? as u32,
                "--park-us" => opts.park_micros = num()?,
                _ if figures => return Err(format!("unknown flag '{key}'")),
                "--shards" => opts.shards = num()? as usize,
                "--steal-batch" => opts.steal_batch = num()? as usize,
                "--steal-threshold" => opts.steal_threshold = num()? as usize,
                "--partition-index" => opts.partition_index = on_off()?,
                "--repartition" => opts.repartition = on_off()?,
                "--drift-window" => opts.drift_window = num()? as usize,
                "--drift-trigger" => opts.drift_trigger = real()?,
                "--drift-cost-gate" => opts.drift_cost_gate = real()?,
                "--arrival-rate" => opts.arrival_rate = real()?,
                "--telemetry-interval" => opts.telemetry_interval_ms = num()?,
                "--telemetry-out" => opts.telemetry_out = path()?,
                "--sample" => opts.sample = path()?,
                _ => return Err(format!("unknown flag '{key}'")),
            }
        }
        if let (Some(min), Some(max)) = opts.exp_flags {
            if min > max {
                return Err(format!("--min-exp={min} exceeds --max-exp={max}"));
            }
        }
        Ok(opts.with_default_exps(defaults))
    }

    /// These options with the window exponents a figure defaults to: the
    /// bounds given on the command line win, and a lone one moves the other
    /// bound along with it.
    pub fn with_default_exps(&self, (min, max): (u32, u32)) -> Self {
        let (min_exp, max_exp) = match self.exp_flags {
            (Some(lo), Some(hi)) => (lo, hi),
            (Some(lo), None) => (lo, max.max(lo)),
            (None, Some(hi)) => (min.min(hi), hi),
            (None, None) => (min, max),
        };
        RunOpts {
            min_exp,
            max_exp,
            ..self.clone()
        }
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

    /// The parallel engine's configuration for windows of `w` tuples at
    /// `threads` workers: the paper's PIM-Tree defaults, the task size and
    /// the ring flags, on one ring shard without repartitioning.
    pub fn engine_config(&self, w: usize, threads: usize) -> JoinConfig {
        JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(self.task_size)
            .with_pim(pim_config(w))
            .with_ring(self.ring())
    }
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

/// How far [`drift_second_half`] moves keys: twice the uniform key scale, so
/// the moved keys are disjoint from the rest.
pub const DRIFT_SHIFT: i64 = 2_000_000_000;

/// `tuples` with the keys of the second half moved by [`DRIFT_SHIFT`]: a
/// partitioner fitted to the first half goes maximally out of balance.
pub fn drift_second_half(tuples: &[Tuple]) -> Vec<Tuple> {
    let (head, tail) = tuples.split_at(tuples.len() / 2);
    let moved = tail
        .iter()
        .map(|t| Tuple::new(t.side, t.seq, t.key + DRIFT_SHIFT));
    head.iter().copied().chain(moved).collect()
}

/// About `keys` keys of `tuples`, strided: a range partitioner needs only
/// its N − 1 quantiles, not every key.
pub fn key_sample(tuples: &[Tuple], keys: usize) -> Vec<i64> {
    let step = (tuples.len() / keys).max(1);
    tuples.iter().step_by(step).map(|t| t.key).collect()
}

/// Runs the single-threaded operator `config` selects (NLWJ or IBWJ over its
/// index kind). The first `window_r + window_s` tuples warm the windows and
/// are not measured.
pub fn run_single(
    config: &JoinConfig,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
) -> JoinRunStats {
    let mut op = build_single_threaded(config, predicate, self_join);
    let warmup = (config.window_r + config.window_s).min(tuples.len());
    op.run(&tuples[..warmup], false);
    op.run(&tuples[warmup..], false).0
}

/// The engine's warm-up over an input of `len` tuples: the first
/// `window_r + window_s` tuples, at most half the input. They fill the
/// sliding windows and take the PIM-Tree through its first merge, as the
/// single-threaded runner measures on warm windows.
pub fn engine_warmup(config: &JoinConfig, len: usize) -> usize {
    (config.window_r + config.window_s).min(len / 2)
}

/// Runs the parallel engine over `tuples`; `setup` may add a partitioner,
/// open-loop pacing or a trace to the operator first. Statistics cover only
/// the tuples after the [`engine_warmup`].
pub fn run_engine(
    config: JoinConfig,
    kind: SharedIndexKind,
    predicate: BandPredicate,
    tuples: &[Tuple],
    self_join: bool,
    setup: impl FnOnce(ParallelIbwj) -> ParallelIbwj,
) -> JoinRunStats {
    let warmup = engine_warmup(&config, tuples.len());
    let op = setup(ParallelIbwj::new(config, predicate, kind, self_join));
    op.run_with_warmup(tuples, warmup).0
}

/// Runs the round-robin partitioned (handshake-style) join with the windows
/// and thread count of `config`.
pub fn run_handshake(
    mode: HandshakeMode,
    config: &JoinConfig,
    predicate: BandPredicate,
    tuples: &[Tuple],
) -> JoinRunStats {
    let op = HandshakeJoin::new(
        config.threads,
        config.window_r,
        config.window_s,
        predicate,
        mode,
    );
    op.run(tuples).0
}

/// Prints the banner and CSV header of a table.
pub fn print_header(name: &str, description: &str, columns: &[&str]) {
    println!("# {name}: {description}");
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
    use pimtree_numa::RangePartitioner;

    /// Parses a space-separated command line of a smoke (defaults 14..=17)
    /// or, with `figures`, of `figs`.
    fn parse(line: &str, figures: bool) -> Result<RunOpts, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        RunOpts::parse_from(&args, (14, 17), figures)
    }

    #[test]
    fn tuples_for_scales_with_window_and_respects_override() {
        let opts = parse("--min-exp=10 --max-exp=12", false).unwrap();
        assert_eq!(opts.tuples_for(1 << 10), 1 << 16);
        assert_eq!(opts.tuples_for(1 << 18), 1 << 20);
        assert_eq!(opts.tuples_for(1 << 24), 4 << 20);
        assert_eq!(opts.window_exps(), vec![10, 11, 12]);
        let fixed = parse("--tuples=1234", false).unwrap();
        assert_eq!(fixed.tuples_for(1 << 24), 1234);
        let ring = parse("--ring-cap=512 --spin=2", false).unwrap().ring();
        assert_eq!((ring.capacity, ring.spin_limit), (512, 2));
        ring.validate().unwrap();
        let line = "--shards=4 --steal-batch=2 --steal-threshold=3 --partition-index=on";
        let shard = parse(line, false).unwrap().shard();
        assert_eq!(
            (shard.shards, shard.steal_batch, shard.steal_threshold),
            (4, 2, 3)
        );
        assert!(shard.partition_index);
        shard.validate().unwrap();
        let line = "--repartition=on --drift-window=256 --drift-trigger=2.0 --drift-cost-gate=0.5";
        let drift = parse(line, false).unwrap().drift();
        assert!(drift.repartition);
        assert_eq!(drift.window, 256);
        assert!((drift.imbalance_trigger - 2.0).abs() < 1e-9);
        assert!((drift.cost_gate - 0.5).abs() < 1e-9);
        drift.validate().unwrap();
        let opts = parse(
            "--telemetry-interval=10 --telemetry-out=t --sample=/tmp/p",
            false,
        );
        let opts = opts.unwrap();
        assert_eq!(opts.telemetry_interval(), Duration::from_millis(10));
        assert_eq!(opts.telemetry_out.as_deref(), Some("t"));
        assert_eq!(opts.sample.as_deref(), Some("/tmp/p"));
    }

    #[test]
    fn every_documented_command_line_parses() {
        // The smokes' and profilers' command lines in CI and the docs, and
        // every other flag they read.
        for line in [
            "--tuples=65536",
            "--tuples=65536 --shards=4",
            "--telemetry-out=telemetry_trace",
            "--ring-cap=64 --task-size=2",
            "--ring-cap=3",
            "--park-us=2000000",
            "--min-exp=12 --max-exp=12 --tuples=30000 --threads=4",
            "--threads=1 --sample=/tmp/prof",
            "--partition-index=off --repartition=on --arrival-rate=500000 --ingest-target=16",
            "--yield=4 --seed=7 --drift-trigger=1.25",
        ] {
            parse(line, false).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // `figs` takes figure ids and the sweep, workload and ring flags.
        let line = "13c 9a --min-exp=10 --max-exp=11 --tuples=4096 --threads=2 --spin=2";
        let opts = parse(line, true).unwrap();
        assert_eq!(opts.ids, ["13c", "9a"]);
        assert_eq!((opts.tuples, opts.threads), (4096, 2));
        assert_eq!(opts.with_default_exps((14, 17)).window_exps(), vec![10, 11]);
    }

    #[test]
    fn argument_errors_name_the_flag() {
        for (line, figures, named) in [
            ("--max-exps=12", false, "--max-exps"),
            ("--tuples=lots", false, "--tuples"),
            ("--tuples", false, "--tuples"),
            ("--partition-index=maybe", false, "--partition-index"),
            ("--drift-trigger=x", false, "--drift-trigger"),
            ("--telemetry-out=", false, "--telemetry-out"),
            ("--max-exp=64", false, "overflows"),
            ("--min-exp=12 --max-exp=11", false, "--min-exp"),
            // The smokes take no positional argument; `figs` reads no
            // engine flag.
            ("9a", false, "9a"),
            ("--shards=2", true, "--shards"),
            ("--sample=/tmp/p", true, "--sample"),
        ] {
            let err = parse(line, figures).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }

    #[test]
    fn a_lone_window_bound_moves_the_other() {
        for (line, exps) in [
            ("", (14, 17)),
            ("--max-exp=12", (12, 12)),
            ("--max-exp=15", (14, 15)),
            ("--min-exp=19", (19, 19)),
            ("--min-exp=10", (10, 17)),
            ("--min-exp=16 --max-exp=16", (16, 16)),
        ] {
            let opts = parse(line, false).unwrap();
            assert_eq!((opts.min_exp, opts.max_exp), exps, "{line}");
        }
    }

    #[test]
    fn workloads_hit_the_requested_match_rate_roughly() {
        let w = 1 << 12;
        let (tuples, predicate) =
            two_way_workload(6 * w, w, 2.0, KeyDistribution::uniform(), 50.0, 7);
        let config = JoinConfig::symmetric(w, IndexKind::BTree).with_pim(pim_config(w));
        let rate = run_single(&config, predicate, &tuples, false).observed_match_rate();
        assert!(
            (0.8..=4.0).contains(&rate),
            "observed match rate {rate}, expected about 2"
        );
    }

    #[test]
    fn single_and_parallel_runners_produce_stats() {
        let w = 1 << 10;
        let (tuples, predicate) = self_join_workload(4 * w, w, 2.0, KeyDistribution::uniform(), 3);
        let config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(2)
            .with_task_size(4)
            .with_pim(pim_config(w));
        // Both runners exclude their window-fill warmup (2w here) from the
        // reported statistics.
        let st = run_single(&config, predicate, &tuples, true);
        assert!(st.million_tuples_per_second() > 0.0);
        assert_eq!(st.tuples as usize, tuples.len() - 2 * w);
        let kind = SharedIndexKind::PimTree;
        let par = run_engine(config, kind, predicate, &tuples, true, |op| op);
        assert_eq!(par.tuples as usize, tuples.len() - 2 * w);
        assert!(par.arrival_latency.is_none());
        let hs = run_handshake(HandshakeMode::Ibwj, &config, predicate, &tuples);
        assert_eq!(hs.tuples as usize, tuples.len());
        // `setup` reaches the operator: a partitioner routes the sharded
        // store, and open-loop pacing records one arrival latency sample
        // per measured tuple.
        let keys: Vec<i64> = tuples.iter().map(|t| t.key).collect();
        let shard = ShardConfig::default()
            .with_shards(2)
            .with_partition_index(true);
        let paced = run_engine(
            config.with_shard(shard),
            kind,
            predicate,
            &tuples,
            true,
            |op| {
                op.with_partitioner(RangePartitioner::from_key_sample(2, &keys))
                    .with_open_loop(5_000_000.0)
            },
        );
        assert_eq!(paced.results, par.results);
        assert_eq!(paced.store.store_shards, 2);
        let hist = paced
            .arrival_latency
            .expect("open-loop run records latency");
        assert_eq!(hist.len(), paced.tuples);
    }
}
