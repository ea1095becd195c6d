//! Shared helpers for the `figs` binary and the `engine_profile` profiler:
//! the flag parser, workload generation with match-rate calibration, and
//! one runner per operator kind.

use pimtree_common::{
    BandPredicate, DriftConfig, IndexKind, JoinConfig, PimConfig, ShardConfig, Tuple,
};
use pimtree_join::{
    build_single_threaded, HandshakeJoin, HandshakeMode, JoinRunStats, ParallelIbwj,
    SharedIndexKind,
};
use pimtree_workload::{calibrate_diff, KeyDistribution, StreamGenerator, StreamMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every flag a command line may carry, in the order of README's two flag
/// tables: `figs` reads the first [`FIGURE_FLAGS`], `engine_profile` all
/// of them.
const FLAGS: [&str; 12] = [
    "--min-exp",
    "--max-exp",
    "--tuples",
    "--threads",
    "--task-size",
    "--seed",
    "--ingest-target",
    "--shards",
    "--partition-index",
    "--repartition",
    "--arrival-rate",
    "--sample",
];

/// How many of [`FLAGS`] `figs` reads.
const FIGURE_FLAGS: usize = 7;

/// Command-line options shared by `figs` and `engine_profile`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Smallest window-size exponent in a sweep (`w = 2^min_exp`).
    pub min_exp: u32,
    /// Largest window-size exponent in a sweep.
    pub max_exp: u32,
    /// Measured tuples per data point; 0 means "choose automatically from the
    /// window size".
    pub tuples: usize,
    /// Worker threads for the parallel operators; 0 means "choose
    /// automatically" (see [`RunOpts::workers`] and
    /// [`RunOpts::thread_sweep`]).
    pub threads: usize,
    /// Task size for the parallel operators.
    pub task_size: usize,
    /// Workload seed.
    pub seed: u64,
    /// Ring ingest target (0 = automatic).
    pub ingest_target: usize,
    /// Ring shards (simulated NUMA nodes) for the parallel engine. `0` means
    /// automatic (the single-ring engine).
    pub shards: usize,
    /// Whether the engine partitions its index and window state per shard
    /// (the `ShardStore` layer) instead of sharing one index/window pair per
    /// side. Only meaningful with more than one shard.
    pub partition_index: bool,
    /// Whether the engine adopts drift-driven repartition plans live
    /// (migration epochs). Only meaningful with more than one shard.
    pub repartition: bool,
    /// Open-loop arrival rate in tuples per second; 0 runs closed-loop
    /// (ingest as fast as the engine admits).
    pub arrival_rate: f64,
    /// `--sample=PATH`: where `engine_profile` writes its address samples.
    pub sample: Option<String>,
    /// Positional arguments: the figure ids `figs` runs (empty = all).
    pub ids: Vec<String>,
    /// The `--min-exp` / `--max-exp` values given on the command line.
    exp_flags: (Option<u32>, Option<u32>),
}

impl RunOpts {
    /// Parses the command line of a profiler binary with its default
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
    /// flags of README's first flag table are; otherwise every flag is and
    /// no positional argument is. An unknown flag, an unparsable value, or a
    /// window exponent `e` with `1 << e` out of `usize` range is an error
    /// naming the flag. A lone `--min-exp` or `--max-exp` moves the other
    /// bound along with it; both given in the wrong order is an error.
    pub fn parse_from(
        args: &[String],
        defaults: (u32, u32),
        figures: bool,
    ) -> Result<Self, String> {
        let config = JoinConfig::default();
        let mut opts = RunOpts {
            min_exp: defaults.0,
            max_exp: defaults.1,
            tuples: 0,
            threads: 0,
            task_size: config.task_size,
            seed: 42,
            ingest_target: config.ingest_target,
            shards: 0,
            partition_index: config.shard.partition_index,
            repartition: config.drift.repartition,
            arrival_rate: 0.0,
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
            let known = if figures {
                &FLAGS[..FIGURE_FLAGS]
            } else {
                &FLAGS[..]
            };
            if !known.contains(&key) {
                return Err(format!("unknown flag '{key}'"));
            }
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
                "--ingest-target" => opts.ingest_target = num()? as usize,
                "--shards" => opts.shards = num()? as usize,
                "--partition-index" => opts.partition_index = on_off()?,
                "--repartition" => opts.repartition = on_off()?,
                "--arrival-rate" => opts.arrival_rate = real()?,
                "--sample" => opts.sample = path()?,
                _ => unreachable!("{key} is in FLAGS but has no arm"),
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

    /// The sharded-ring configuration selected on the command line
    /// (`--shards=0`, the automatic default, resolves to the single-ring
    /// engine).
    pub fn shard(&self) -> ShardConfig {
        ShardConfig::default()
            .with_shards(self.shards.max(1))
            .with_partition_index(self.partition_index)
    }

    /// The drift / live-repartition configuration selected on the command
    /// line.
    pub fn drift(&self) -> DriftConfig {
        DriftConfig::default().with_repartition(self.repartition)
    }

    /// The worker count: `--threads=`, or without it the host's available
    /// parallelism (at most 16).
    pub fn workers(&self) -> usize {
        match self.threads {
            0 => host_parallelism().min(16),
            n => n,
        }
    }

    /// The worker counts a profiler sweeps: exactly `--threads=` when it is
    /// given, otherwise the powers of two up to the host's available
    /// parallelism.
    pub fn thread_sweep(&self) -> Vec<usize> {
        match self.threads {
            0 => (0..usize::BITS)
                .map(|e| 1usize << e)
                .take_while(|&t| t <= host_parallelism())
                .collect(),
            n => vec![n],
        }
    }

    /// The parallel engine's configuration for windows of `w` tuples at
    /// `threads` workers: the paper's PIM-Tree defaults, the task size and
    /// the ingest target, on one ring shard without repartitioning.
    pub fn engine_config(&self, w: usize, threads: usize) -> JoinConfig {
        JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(self.task_size)
            .with_ingest_target(self.ingest_target)
            .with_pim(pim_config(w))
    }
}

/// The host's available parallelism (1 when it cannot be read).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
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

/// `engine_profile`'s two ratios, each only when its rows ran: batching, the
/// one-worker row over the single-threaded operator `single`, and
/// parallelism, the two-worker row over the one-worker row (rates in
/// Mtuples/s).
pub fn scaling_ratios(single: f64, one_worker: Option<f64>, two_workers: Option<f64>) -> String {
    let mut out = String::new();
    if let Some(one) = one_worker {
        out += &format!("; 1 worker / single-threaded = {:.3}", one / single);
        if let Some(two) = two_workers {
            out += &format!("; 2 workers / 1 worker = {:.3}", two / one);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimtree_numa::RangePartitioner;

    /// Parses a space-separated command line of a profiler (defaults
    /// 14..=17) or, with `figures`, of `figs`.
    fn parse(line: &str, figures: bool) -> Result<RunOpts, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        RunOpts::parse_from(&args, (14, 17), figures)
    }

    #[test]
    fn scaling_ratios_print_only_the_rows_that_ran() {
        assert_eq!(scaling_ratios(2.0, None, None), "");
        assert_eq!(scaling_ratios(2.0, None, Some(3.0)), "");
        assert_eq!(
            scaling_ratios(2.0, Some(1.0), None),
            "; 1 worker / single-threaded = 0.500"
        );
        assert_eq!(
            scaling_ratios(2.0, Some(1.0), Some(1.5)),
            "; 1 worker / single-threaded = 0.500; 2 workers / 1 worker = 1.500"
        );
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
        let config = parse("--ingest-target=64", false)
            .unwrap()
            .engine_config(1 << 10, 2);
        assert_eq!(config.ingest_target, 64);
        config.validate().unwrap();
        let shard = parse("--shards=4 --partition-index=on", false)
            .unwrap()
            .shard();
        assert_eq!(shard.shards, 4);
        assert!(shard.partition_index);
        shard.validate().unwrap();
        let drift = parse("--repartition=on", false).unwrap().drift();
        assert!(drift.repartition);
        let opts = parse("--sample=/tmp/p", false).unwrap();
        assert_eq!(opts.sample.as_deref(), Some("/tmp/p"));
    }

    #[test]
    fn every_documented_command_line_parses() {
        // The profiler's command lines in the docs, and every other flag
        // it reads.
        for line in [
            "--tuples=65536 --shards=4",
            "--ingest-target=64 --task-size=2",
            "--task-size=0",
            "--min-exp=12 --max-exp=12 --tuples=30000 --threads=4",
            "--threads=1 --sample=/tmp/prof",
            "--min-exp=14 --max-exp=14 --tuples=1000000 --threads=1",
            "--partition-index=off --repartition=on --arrival-rate=500000 --ingest-target=16",
            "--seed=7",
        ] {
            parse(line, false).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // `--threads=N` runs exactly N workers; without it the profiler
        // sweeps the powers of two up to the host's parallelism.
        let pinned = parse("--threads=3", false).unwrap();
        assert_eq!((pinned.workers(), pinned.thread_sweep()), (3, vec![3]));
        let auto = parse("", false).unwrap();
        let host = host_parallelism();
        assert_eq!(auto.workers(), host.min(16));
        let sweep = auto.thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|p| p[1] == 2 * p[0]));
        assert!(*sweep.last().unwrap() <= host && 2 * sweep.last().unwrap() > host);
        // `figs` takes figure ids and the sweep, workload and ring flags.
        let line = "13c 9a --min-exp=10 --max-exp=11 --tuples=4096 --threads=2 --ingest-target=8";
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
            ("--arrival-rate=x", false, "--arrival-rate"),
            ("--sample=", false, "--sample"),
            ("--max-exp=64", false, "overflows"),
            ("--min-exp=12 --max-exp=11", false, "--min-exp"),
            // The profiler takes no positional argument; `figs` reads no
            // engine flag.
            ("9a", false, "9a"),
            ("--shards=2", true, "--shards"),
            ("--sample=/tmp/p", true, "--sample"),
        ] {
            let err = parse(line, figures).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }

    /// README's flag tables and the parser cannot drift apart: the first
    /// table lists exactly the flags `figs` accepts, the second exactly the
    /// ones only the profiler accepts, and every documented flag parses
    /// with a value of its documented form.
    #[test]
    fn readme_flag_tables_match_the_parser() {
        let readme = include_str!("../../../README.md");
        let section = &readme[readme
            .find("## Benchmarks")
            .expect("README has a Benchmarks section")..];
        // One list of `(flag, value form)` per table, in row order.
        let mut tables: Vec<Vec<(&str, &str)>> = Vec::new();
        let mut in_table = false;
        for line in section.lines() {
            if !line.starts_with("| `--") {
                in_table = false;
                continue;
            }
            if !in_table {
                tables.push(Vec::new());
                in_table = true;
            }
            let first_cell = line[2..].split(" | ").next().unwrap();
            for flag in first_cell.split('`').filter(|f| f.starts_with("--")) {
                let (name, form) = flag.split_once('=').expect("a flag cell shows its value");
                tables.last_mut().unwrap().push((name, form));
            }
        }
        assert_eq!(tables.len(), 2, "two flag tables: {tables:?}");
        let names: Vec<Vec<&str>> = tables
            .iter()
            .map(|table| table.iter().map(|f| f.0).collect())
            .collect();
        assert_eq!(names[0], FLAGS[..FIGURE_FLAGS]);
        assert_eq!(names[1], FLAGS[FIGURE_FLAGS..]);
        for (table, figs_reads) in tables.iter().zip([true, false]) {
            for &(name, form) in table {
                let value = match form {
                    "N" => "3",
                    "X" => "2.5",
                    "PATH" => "/tmp/p",
                    "on\\|off" => "on",
                    other => panic!("{name}: undocumented value form '{other}'"),
                };
                let arg = format!("{name}={value}");
                parse(&arg, false).unwrap_or_else(|e| panic!("{arg}: {e}"));
                assert_eq!(parse(&arg, true).is_ok(), figs_reads, "figs and {arg}");
            }
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
