//! One workload's run: set-up, the closed loop, the open loop, the output
//! checks and, when asked, the ladder and the traced replay.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pimtree_common::LatencyHistogram;
use pimtree_join::{canonical, reference_join, JoinRunStats};

use crate::estimator::{fastest_quarter_mean, interpolated_quantile, iqr_rel, median, Fast};
use crate::hostprobe::HostProbe;
use crate::ladder;
use crate::metrics::Values;
use crate::procfs::{peak_rss_mib, process_cpu_seconds, StealWatch};
use crate::trace::Tracer;
use crate::workloads::{generate, parallel, single_threaded, Inputs, Spec};

/// How often the input is generated and the band calibrated for `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Share of `--seconds` after which the set-up is not repeated again.
const SETUP_SHARE: f64 = 0.15;

/// Fewest tuples per timed call of the single-threaded operator. The operator
/// keeps its state from call to call, so a pass over the measured phase is
/// timed in segments of 50–300 ms: short enough that many of them fall
/// between the host's bursts of interference.
const MIN_SEGMENT: usize = 100_000;

/// Tuples per timed call: at least a window's worth, which is four of the
/// operator's merge cycles (each index merges every eighth of a window of its
/// own inserts, a quarter of a window of input). With fewer, whether a
/// segment holds one merge or two moves its rate by 8 % on `steady-spill`,
/// and the fastest quarter would be the segments with one.
fn segment_len(spec: &Spec) -> usize {
    spec.window.max(MIN_SEGMENT)
}

/// Open-loop runs. Their arrival histograms are pooled for the tail; the
/// median latency is estimated per run, like a closed-loop round's rate.
const OPEN_RUNS: usize = 6;

/// Entries one merge of the single-threaded operator reads per tuple it
/// inserts, at merge ratio 1/8: every `w / 8` inserts it reads `w + w / 8`.
const MERGE_READS_PER_TUPLE: f64 = 9.0;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// The per-layer part instead of the end-to-end metrics (the driver's
    /// `--trace 1`); the untraced parts then run shorter, for the noise and
    /// engine counters only.
    pub trace: bool,
    pub threads: usize,
    /// A fixed number of closed-loop rounds instead of as many as fit.
    pub rounds: Option<usize>,
}

/// What a workload's run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Empty with `trace`.
    pub end_to_end: Values,
    /// Empty without `trace`.
    pub per_layer: Values,
    /// Input tuples over all arms.
    pub attempted: u64,
    /// Tuples not processed plus result-count differences.
    pub failed: u64,
}

/// One closed-loop round: both operators over the same input, back to back.
struct Round {
    /// Million tuples per second of each operator's measured phase.
    single_mtps: f64,
    parallel_mtps: f64,
    /// Wall time of the parallel call outside its measured phase: building
    /// the engine, filling both windows, the first merge.
    warmup_s: f64,
    cpu_ns_per_tuple: f64,
}

fn mtps(stats: &JoinRunStats) -> f64 {
    stats.tuples as f64 / stats.elapsed.as_secs_f64() / 1.0e6
}

/// Runs the single-threaded operator, warmed on the prefix, over the measured
/// phase in equal segments of about [`segment_len`] tuples; returns the phase's
/// statistics and each segment's rate. `results` and `merges` are taken from
/// the operator's running totals before and after, because `run` reports them
/// cumulatively on a second call.
fn run_single(spec: &Spec, inputs: &Inputs) -> (JoinRunStats, Vec<f64>) {
    let mut op = single_threaded(spec, inputs);
    let (warm, measured) = inputs.tuples.split_at(spec.warmup());
    op.run(warm, false);
    let before = op.stats();
    let segments = (measured.len() / segment_len(spec)).max(1);
    let mut phase = JoinRunStats::default();
    let mut rates = Vec::with_capacity(segments);
    for segment in measured.chunks(measured.len().div_ceil(segments).max(1)) {
        let (stats, _) = op.run(segment, false);
        rates.push(mtps(&stats));
        phase.tuples += stats.tuples;
        phase.elapsed += stats.elapsed;
    }
    let after = op.stats();
    phase.results = after.results - before.results;
    phase.merges = after.merges - before.merges;
    (phase, rates)
}

/// Runs the parallel engine; returns its statistics, the wall time of the
/// whole call and the CPU time the process used meanwhile.
fn run_parallel(
    spec: &Spec,
    inputs: &Inputs,
    threads: usize,
    open_loop_tps: Option<f64>,
) -> (JoinRunStats, Duration, f64) {
    let mut engine = parallel(spec, inputs, threads);
    if let Some(rate) = open_loop_tps {
        engine = engine.with_open_loop(rate);
    }
    let cpu = process_cpu_seconds();
    let start = Instant::now();
    let (stats, _) = engine.run_with_warmup(&inputs.tuples, spec.warmup());
    (stats, start.elapsed(), process_cpu_seconds() - cpu)
}

/// Counts attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// An arm was given `offered` tuples, `measured` of them after warm-up,
    /// and reports `stats`; its result count should be `expected`.
    fn arm(&mut self, offered: usize, measured: usize, stats: &JoinRunStats, expected: u64) {
        self.attempted += offered as u64;
        self.failed += (measured as u64).abs_diff(stats.tuples) + stats.results.abs_diff(expected);
    }
}

/// Elements of two sorted lists that have no partner in the other.
fn unmatched<T: Ord>(a: &[T], b: &[T]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (i, n) = (i + 1, n + 1),
            std::cmp::Ordering::Greater => (j, n) = (j + 1, n + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    n + (a.len() - i + b.len() - j) as u64
}

/// Checks both operators' complete output on the truncated instance against
/// the brute-force reference join.
fn check_against_oracle(spec: &Spec, opts: &Options, tally: &mut Tally) {
    let small = spec.truncated();
    let inputs = generate(&small, opts.seed);
    let w = small.window;
    let expected = canonical(&reference_join(
        &inputs.tuples,
        inputs.predicate,
        w,
        w,
        false,
    ));
    let (_, from_single) = single_threaded(&small, &inputs).run(&inputs.tuples, true);
    let (_, from_parallel) = parallel(&small, &inputs, opts.threads)
        .with_collected_results(true)
        .run_with_warmup(&inputs.tuples, small.warmup());
    for got in [from_single, from_parallel] {
        tally.attempted += inputs.tuples.len() as u64;
        tally.failed += unmatched(&expected, &canonical(&got));
    }
}

/// Where the trace files go: `out/` of this package.
fn trace_path(workload: &str) -> PathBuf {
    let package = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "benchmark".into());
    PathBuf::from(package)
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

/// What the closed loop measured.
struct ClosedLoop {
    rounds: Vec<Round>,
    /// Rate of every segment of every pass of the single-threaded operator.
    single_segments_mtps: Vec<f64>,
    /// The parallel engine's statistics summed over the rounds.
    engine_total: JoinRunStats,
    /// `VmHWM` after the process's first engine run: the input and one
    /// parallel join, which is what someone who runs the join once pays.
    /// Later runs add what the allocator keeps of dead workers' arenas, which
    /// differs from process to process by a fifth and more.
    first_run_peak_mib: f64,
}

impl ClosedLoop {
    fn of_rounds(&self, value: fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(value).collect()
    }
}

/// Runs closed-loop rounds until `deadline`: as many as fit and at least one,
/// alternating which operator goes first so that neither always runs on the
/// caches the other left, and sampling the host's speed before, between and
/// after the two. On a host slowed many times over, one round is all that
/// fits; the estimators then fall back on that one.
fn closed_loop(
    spec: &Spec,
    inputs: &Inputs,
    opts: &Options,
    deadline: Instant,
    tally: &mut Tally,
) -> (ClosedLoop, HostProbe) {
    let n = spec.tuples();
    let mut closed = ClosedLoop {
        rounds: Vec::new(),
        single_segments_mtps: Vec::new(),
        engine_total: JoinRunStats::default(),
        first_run_peak_mib: 0.0,
    };
    // The probe is built where the first sample would be taken, which is
    // after the first engine run: see `first_run_peak_mib`.
    let mut host: Option<HostProbe> = None;
    let mut sample_host = || match &mut host {
        None => host = Some(HostProbe::new(spec, inputs, opts.threads)),
        Some(host) => host.sample(),
    };
    let mut longest_round = Duration::ZERO;
    loop {
        let done = closed.rounds.len();
        let more = match opts.rounds {
            Some(fixed) => done < fixed,
            None => done == 0 || Instant::now() + longest_round <= deadline,
        };
        if !more {
            break;
        }
        let round_start = Instant::now();
        // The parallel engine goes first in the first round: see
        // `first_run_peak_mib`.
        let single_first = !done.is_multiple_of(2);
        let single = single_first.then(|| {
            let pass = run_single(spec, inputs);
            sample_host();
            pass
        });
        let (mut stats, call, cpu_s) = run_parallel(spec, inputs, opts.threads, None);
        if done == 0 {
            closed.first_run_peak_mib = peak_rss_mib();
        }
        let (single, segments) = single.unwrap_or_else(|| {
            sample_host();
            run_single(spec, inputs)
        });
        sample_host();
        tally.arm(n, spec.measured, &single, single.results);
        tally.arm(n, spec.measured, &stats, single.results);
        closed.rounds.push(Round {
            single_mtps: mtps(&single),
            parallel_mtps: mtps(&stats),
            warmup_s: (call - stats.elapsed).as_secs_f64(),
            cpu_ns_per_tuple: cpu_s * 1.0e9 / n as f64,
        });
        closed.single_segments_mtps.extend(segments);
        // `absorb` would append the run's per-tuple latency samples, a million
        // a round, to the total: memory the engine never holds at once.
        stats.latency = Default::default();
        closed.engine_total.absorb(&stats);
        longest_round = longest_round.max(round_start.elapsed());
    }
    (closed, host.expect("every round samples the host"))
}

/// What the open loop measured.
struct OpenLoop {
    /// Median arrival latency of each run.
    p50_us: Vec<f64>,
    /// All runs' arrival latencies pooled.
    arrival: LatencyHistogram,
}

/// Runs the open loop until `deadline`: a fixed offered rate, a quarter of
/// what the engine sustains, on a stream of the workload's shape with
/// `per_run_s` seconds of arrivals after the warm-up; [`OPEN_RUNS`] runs on a
/// host at its usual speed, at least one on any.
fn open_loop(
    spec: &Spec,
    opts: &Options,
    per_run_s: f64,
    deadline: Instant,
    host: &mut HostProbe,
    tally: &mut Tally,
) -> OpenLoop {
    let open_spec = Spec {
        measured: (spec.offered_tps * per_run_s) as usize,
        ..*spec
    };
    let inputs = generate(&open_spec, opts.seed);
    let mut open = OpenLoop {
        p50_us: Vec::with_capacity(OPEN_RUNS),
        arrival: LatencyHistogram::new(),
    };
    let mut results = None;
    for run in 0..OPEN_RUNS {
        if run > 0 && Instant::now() > deadline {
            break;
        }
        let (stats, _, _) = run_parallel(&open_spec, &inputs, opts.threads, Some(spec.offered_tps));
        let expected = *results.get_or_insert(stats.results);
        tally.arm(open_spec.tuples(), open_spec.measured, &stats, expected);
        let Some(hist) = &stats.arrival_latency else {
            // Every measured tuple owes a latency sample.
            tally.failed += stats.tuples;
            break;
        };
        open.p50_us
            .push(interpolated_quantile(0.5, |q| hist.percentile_micros(q)));
        open.arrival.merge_from(hist);
        host.sample();
    }
    open
}

/// What the traced replay recorded.
struct Replay {
    tracer: Tracer,
    contention: ladder::RingContention,
    ibwj: JoinRunStats,
    engine: JoinRunStats,
}

/// The traced replay: the workload once more, every call into a layer inside
/// a span, written out when done.
fn traced_replay(spec: &Spec, opts: &Options, ladder_budget_s: f64, tally: &mut Tally) -> Replay {
    let n = spec.tuples();
    let mut tracer = Tracer::new(spec.name);
    let (contention, ibwj, engine) = tracer.span("trace.replay", |t| {
        let inputs = t.span("workload.generate", |_| {
            (n as u64, generate(spec, opts.seed))
        });
        let budget = Duration::from_secs_f64(ladder_budget_s);
        let contention = ladder::run(t, spec, &inputs, budget);
        let ibwj = t.span("ibwj.run", |_| (n as u64, run_single(spec, &inputs).0));
        let engine = t.span("engine.run", |_| {
            (n as u64, run_parallel(spec, &inputs, opts.threads, None).0)
        });
        (n as u64, (contention, ibwj, engine))
    });
    tally.arm(n, spec.measured, &ibwj, ibwj.results);
    tally.arm(n, spec.measured, &engine, ibwj.results);
    if let Err(e) = tracer.write_jsonl(&trace_path(spec.name)) {
        eprintln!("cannot write the trace of {}: {e}", spec.name);
    }
    Replay {
        tracer,
        contention,
        ibwj,
        engine,
    }
}

/// The two rates as the clock gave them (fastest quarter of the rounds and of
/// the segments) and the host's speed they are read against: the reference
/// host's at rest is 1, on one thread and on the engine's.
#[derive(Debug, Clone, Copy)]
struct Raw {
    throughput_mtps: f64,
    single_thread_mtps: f64,
    host_speed: [f64; 2],
}

/// The per-layer values: from the replay's spans and from what the untraced
/// parts counted.
fn per_layer(
    replay: &Replay,
    closed: &ClosedLoop,
    open: &OpenLoop,
    raw: &Raw,
    steal_share: f64,
) -> Values {
    let Replay {
        tracer,
        contention,
        ibwj,
        engine,
    } = replay;
    let rung = |name: &str| fastest_quarter_mean(&tracer.ns_per_op(name), Fast::Smallest);
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let rounds = &closed.rounds;
    let runs = rounds.len() as f64;
    let total = &closed.engine_total;
    let phase = &total.phase;
    let busy = [
        phase.acquire,
        phase.generate,
        phase.update,
        phase.propagate,
        phase.idle,
        total.merge_time,
    ]
    .map(|d| d.as_secs_f64());
    let accounted: f64 = busy.iter().sum();
    let [acquire, generate, update, propagate, idle, merge] =
        busy.map(|s| if accounted > 0.0 { s / accounted } else { 0.0 });
    // The ladder's rungs are times as the clock gave them, so the cost they
    // are held against is too.
    let ibwj_ns = 1000.0 / raw.single_thread_mtps;
    let ladder_ns = rung("pim.probe")
        + rung("pim.insert")
        + rung("window.append")
        + MERGE_READS_PER_TUPLE * rung("pim.merge");
    let speedups: Vec<f64> = rounds
        .iter()
        .map(|r| r.parallel_mtps / r.single_mtps)
        .collect();
    // How disturbed the run was: the median and quartiles of the same rounds
    // the end-to-end estimate takes its fastest quarter from.
    let all_parallel = closed.of_rounds(|r| r.parallel_mtps);
    let all_single = &closed.single_segments_mtps;
    vec![
        ("workload.gen_ns_per_tuple", rung("workload.generate")),
        ("simd.lower_bound_u64_ns", rung("simd.lower_bound_u64")),
        ("css.lower_bound_ns", rung("css.lower_bound")),
        ("css.build_ns_per_entry", rung("css.build")),
        ("css.range_scan_ns_per_entry", rung("css.range_scan")),
        ("pim.insert_ns", rung("pim.insert")),
        ("pim.probe_ns", rung("pim.probe")),
        ("pim.merge_ns_per_entry", rung("pim.merge")),
        ("pim.merges", ibwj.merges as f64),
        ("window.append_ns", rung("window.append")),
        ("window.scan_ns_per_tuple", rung("window.scan")),
        ("ring.roundtrip_ns", rung("ring.roundtrip")),
        ("ring.roundtrip_2t_ns", rung("ring.roundtrip_2t")),
        (
            "ring.claim_retries_per_task",
            ratio(contention.claim_retries, contention.tasks),
        ),
        ("router.node_of_ns", rung("router.node_of")),
        ("store.mean_probe_fanout", total.store.mean_probe_fanout()),
        ("store.remote_fraction", total.store.remote_fraction()),
        ("shard.steal_fraction", total.shard.steal_fraction()),
        ("migration.epochs", total.migration.epochs as f64 / runs),
        (
            "migration.tuples_moved",
            total.migration.tuples_moved() as f64 / runs,
        ),
        (
            "migration.stall_ms",
            total.migration.stall_nanos as f64 / 1.0e6 / runs,
        ),
        (
            "migration.max_stall_ms",
            total.migration.max_stall_nanos as f64 / 1.0e6,
        ),
        ("engine.acquire_share", acquire),
        ("engine.generate_share", generate),
        ("engine.update_share", update),
        ("engine.propagate_share", propagate),
        ("engine.idle_share", idle),
        ("engine.merge_share", merge),
        ("engine.merges", total.merges as f64 / runs),
        (
            "engine.claim_retries_per_task",
            ratio(total.ring.claim_retries, total.ring.tasks_acquired),
        ),
        (
            "engine.results_per_tuple",
            ratio(total.results, total.tuples),
        ),
        (
            "engine.cpu_ns_per_tuple",
            fastest_quarter_mean(&closed.of_rounds(|r| r.cpu_ns_per_tuple), Fast::Smallest),
        ),
        ("engine.speedup_vs_single", median(&speedups)),
        (
            "engine.arrival_p90_us",
            open.arrival.percentile_micros(0.90),
        ),
        ("engine.arrival_p99_us", open.arrival.p99_micros()),
        ("engine.arrival_p999_us", open.arrival.p999_micros()),
        ("engine.arrival_max_us", open.arrival.max_micros()),
        ("ibwj.ns_per_tuple", ibwj_ns),
        ("ladder.coverage", ladder_ns / ibwj_ns),
        ("noise.rounds", runs),
        ("noise.throughput_median_mtps", median(&all_parallel)),
        ("noise.throughput_iqr_rel", iqr_rel(&all_parallel)),
        ("noise.single_iqr_rel", iqr_rel(all_single)),
        ("noise.steal_share", steal_share),
        ("noise.throughput_raw_mtps", raw.throughput_mtps),
        ("noise.single_raw_mtps", raw.single_thread_mtps),
        ("host.speed_one_thread", raw.host_speed[0]),
        ("host.speed_all_threads", raw.host_speed[1]),
        ("trace.overhead_rel", mtps(engine) / median(&all_parallel)),
    ]
}

/// Runs one workload.
pub fn run_workload(spec: &Spec, opts: &Options) -> Outcome {
    // Shares of `seconds`. A traced run needs the untraced parts only for the
    // engine's counters and the noise figures, and gives the rest to the
    // ladder and the replay.
    let (closed_share, open_share, ladder_share) = if opts.trace {
        (0.55, 0.14, 0.28)
    } else {
        (0.77, 0.20, 0.0)
    };
    let mut tally = Tally::default();
    let whole_run = StealWatch::start();

    // Every part ends by a deadline counted from here, so that a host slowed
    // many times over stretches a run by one round of each part at most.
    let start = Instant::now();
    let until = |share: f64| start + Duration::from_secs_f64(opts.seconds * share);

    // Set-up: what a user pays before the first measured tuple. Each input is
    // dropped before the next is made, so that repeating the set-up does not
    // raise the peak resident set.
    let mut generate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    while generate_s.len() < SETUP_REPEATS
        && (inputs.is_none() || Instant::now() < until(SETUP_SHARE))
    {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(generate(spec, opts.seed));
        generate_s.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("the loop runs at least once");

    let (closed, mut host) = closed_loop(spec, &inputs, opts, until(closed_share), &mut tally);
    let warmup_s = fastest_quarter_mean(&closed.of_rounds(|r| r.warmup_s), Fast::Smallest);

    let per_run_s = (opts.seconds * open_share / OPEN_RUNS as f64 - warmup_s).max(0.05);
    let deadline = until(closed_share + open_share);
    let open = open_loop(spec, opts, per_run_s, deadline, &mut host, &mut tally);

    // Every timing is read against the speed the host showed in the same
    // seconds, on as many threads as the timed code ran on: see
    // `hostprobe.rs`. What the clock said is reported per layer.
    let raw = Raw {
        throughput_mtps: fastest_quarter_mean(
            &closed.of_rounds(|r| r.parallel_mtps),
            Fast::Largest,
        ),
        single_thread_mtps: fastest_quarter_mean(&closed.single_segments_mtps, Fast::Largest),
        host_speed: host.speed(),
    };
    let [host_one, host_all] = raw.host_speed;
    // For whoever reads a run's output: what the clock said and what it was
    // read against. Not a metric line, so nothing parses it.
    println!(
        "info {} raw_throughput_mtps={:.4} raw_single_thread_mtps={:.4} host_speed_one_thread={host_one:.4} host_speed_all_threads={host_all:.4} rounds={} segments={}",
        spec.name,
        raw.throughput_mtps,
        raw.single_thread_mtps,
        closed.rounds.len(),
        closed.single_segments_mtps.len(),
    );

    check_against_oracle(spec, opts, &mut tally);

    let (end_to_end, per_layer) = if opts.trace {
        let replay = traced_replay(spec, opts, opts.seconds * ladder_share, &mut tally);
        let per_layer = per_layer(&replay, &closed, &open, &raw, whole_run.share());
        (Values::new(), per_layer)
    } else {
        let end_to_end = vec![
            ("throughput_mtps", raw.throughput_mtps / host_all),
            ("single_thread_mtps", raw.single_thread_mtps / host_one),
            (
                "latency_p50_us",
                fastest_quarter_mean(&open.p50_us, Fast::Smallest) * host_all,
            ),
            (
                "setup_s",
                fastest_quarter_mean(&generate_s, Fast::Smallest) * host_one + warmup_s * host_all,
            ),
            ("peak_rss_mb", closed.first_run_peak_mib),
        ];
        (end_to_end, Values::new())
    };

    Outcome {
        end_to_end,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::THREADS;

    #[test]
    fn unmatched_counts_both_sides() {
        assert_eq!(unmatched(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(unmatched(&[1, 2, 2, 3], &[2, 3, 4, 5]), 4);
        assert_eq!(unmatched::<u8>(&[], &[7]), 1);
    }

    fn tiny(trace: bool) -> Outcome {
        let spec = Spec::by_name("drift-migrate").unwrap().shrunk(64);
        let opts = Options {
            seed: 1,
            seconds: 0.5,
            trace,
            threads: THREADS,
            rounds: Some(2),
        };
        run_workload(&spec, &opts)
    }

    fn names(v: &Values) -> Vec<&'static str> {
        v.iter().map(|(n, _)| *n).collect()
    }

    /// The whole pipeline on a tiny instance: every listed metric is
    /// reported, in order, and nothing fails.
    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric_and_no_failure() {
        let out = tiny(false);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        assert_eq!(
            names(&out.end_to_end),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(out.per_layer.is_empty());
        assert!(out
            .end_to_end
            .iter()
            .all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_no_failure() {
        let out = tiny(true);
        assert_eq!(out.failed, 0);
        assert!(out.end_to_end.is_empty());
        assert_eq!(
            names(&out.per_layer),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (name, value) in &out.per_layer {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}
