//! The repository benchmark. See `README.md` for what it measures and why.
//!
//! ```text
//! pimtree-benchmark                      every workload: end-to-end, per-layer, trace
//! pimtree-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                        one workload, as the driver runs it
//! pimtree-benchmark --check-noise        the end-to-end part twice, compared
//! pimtree-benchmark --smoke              everything shrunk to about 2 s a workload
//! ```
//!
//! A workload is always measured in a process of its own: allocator state
//! left by one workload changes the next one's memory and set-up time, and
//! the driver never runs two in one process. Without `--workload`, this
//! program therefore starts itself twice per workload, as the driver does
//! (`--trace 0`, then `--trace 1`), and collects the results.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod bench;
mod estimator;
mod hostprobe;
mod ladder;
mod metrics;
mod procfs;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use bench::{run_workload, Options};
use metrics::{describe, static_name, Values, END_TO_END};
use workloads::{Spec, THREADS, WORKLOADS};

/// Seed of the committed numbers. Seed 7 is held out: claims made later must
/// also hold on it, so nothing here is tuned on it.
const DEFAULT_SEED: u64 = 42;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 32.0;

/// What `--smoke` divides windows and stream lengths by, and its run length.
const SMOKE_SHRINK: usize = 16;
const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    /// Per-layer metrics instead of end-to-end ones.
    trace: bool,
    threads: usize,
    rounds: Option<usize>,
    check_noise: bool,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        threads: THREADS,
        rounds: None,
        check_noise: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or(format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Spec::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => cli.seed = number(&flag, value()?)?,
            "--seconds" => {
                let given: f64 = number(&flag, value()?)?;
                if !(given > 0.0 && given <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {given}"));
                }
                seconds = Some(given);
            }
            "--trace" => {
                cli.trace = match number::<u8>(&flag, value()?)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--threads" => {
                cli.threads = number(&flag, value()?)?;
                if !(1..=256).contains(&cli.threads) {
                    return Err(format!("--threads must be in 1..=256, not {}", cli.threads));
                }
            }
            "--rounds" => {
                let rounds: usize = number(&flag, value()?)?;
                if !(1..=1000).contains(&rounds) {
                    return Err(format!("--rounds must be in 1..=1000, not {rounds}"));
                }
                cli.rounds = Some(rounds);
            }
            "--check-noise" => cli.check_noise = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cli.seconds = seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(cli)
}

fn print_values(workload: &str, values: &Values) {
    for (name, value) in values {
        let (unit, better) = describe(name);
        println!(
            "{workload}/{name} {value} {unit} ({} is better)",
            better.label()
        );
    }
}

/// What one workload's run reported.
struct Report {
    values: Values,
    attempted: u64,
    failed: u64,
}

/// The result line. Metric names carry the workload as a prefix when several
/// workloads ran.
fn print_result(reports: &[(&str, Report)]) {
    let prefixed = reports.len() > 1;
    let mut fields = Vec::new();
    for (workload, report) in reports {
        for (name, value) in &report.values {
            let key = if prefixed {
                format!("{workload}/{name}")
            } else {
                name.to_string()
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                describe(name).0
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
}

/// Measures one workload in this process.
fn measure(spec: &Spec, cli: &Cli) -> Report {
    let spec = if cli.smoke {
        spec.shrunk(SMOKE_SHRINK)
    } else {
        *spec
    };
    let outcome = run_workload(
        &spec,
        &Options {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            threads: cli.threads,
            rounds: cli.rounds,
        },
    );
    // One of the two lists is empty: the driver asks for one at a time.
    let mut values = outcome.end_to_end;
    values.extend(outcome.per_layer);
    let mut failed = outcome.failed;
    for (_, value) in &mut values {
        // A value that is not a number is a failed measurement, not a metric.
        if !value.is_finite() {
            *value = 0.0;
            failed += 1;
        }
    }
    Report {
        values,
        attempted: outcome.attempted,
        failed,
    }
}

/// Measures one workload in a process of its own and reads its report back
/// from the lines it prints.
fn measure_in_child(spec: &Spec, cli: &Cli, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &cli.threads.to_string()]);
    if let Some(rounds) = cli.rounds {
        command.args(["--rounds", &rounds.to_string()]);
    }
    if cli.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the run of {}: {e}", spec.name))?;
    let mut report = Report {
        values: Values::new(),
        attempted: 0,
        failed: 0,
    };
    let prefix = format!("{}/", spec.name);
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut words = line.split_whitespace();
        let (Some(key), Some(value)) = (words.next(), words.next()) else {
            continue;
        };
        match key {
            "ops_attempted" => report.attempted = value.parse().unwrap_or(0),
            "ops_failed" => report.failed = value.parse().unwrap_or(0),
            _ => {
                let name = key.strip_prefix(&prefix).and_then(static_name);
                if let (Some(name), Ok(value)) = (name, value.parse()) {
                    report.values.push((name, value));
                }
            }
        }
    }
    if !output.status.success() || report.values.is_empty() {
        // Whatever it counted, a run that did not end well failed.
        report.failed = report.failed.max(1);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok(report)
}

/// Runs the end-to-end part of every workload twice and compares; `true`
/// when every metric repeats within half its bound.
fn check_noise(specs: &[Spec], cli: &Cli) -> Result<bool, String> {
    let mut sets: [Vec<Report>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for spec in specs {
            set.push(measure_in_child(spec, cli, false)?);
        }
    }
    let mut steady = true;
    for (i, spec) in specs.iter().enumerate() {
        let (first, second) = (&sets[0][i], &sets[1][i]);
        steady &= first.failed + second.failed == 0;
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (Some(first), Some(second)) = (first.values.get(m), second.values.get(m)) else {
                steady = false;
                continue;
            };
            let diff = (second.1 - first.1).abs() / first.1;
            let limit = metric.bound / 2.0;
            steady &= diff <= limit;
            println!(
                "noise {}/{} first={} second={} {} diff={diff:.4} limit={limit} {}",
                spec.name,
                metric.name,
                first.1,
                second.1,
                metric.unit,
                if diff <= limit { "ok" } else { "EXCEEDED" }
            );
        }
    }
    let all = sets.iter().flatten();
    println!(
        "ops_attempted {}",
        all.clone().map(|r| r.attempted).sum::<u64>()
    );
    println!("ops_failed {}", all.map(|r| r.failed).sum::<u64>());
    Ok(steady)
}

fn run(cli: &Cli) -> Result<bool, String> {
    // Recorded so that a run on other settings is never mistaken for the
    // two-thread baseline.
    println!(
        "config threads={} rounds={} seed={} seconds={} smoke={} parallelism={}",
        cli.threads,
        cli.rounds.map_or("auto".to_string(), |r| r.to_string()),
        cli.seed,
        cli.seconds,
        cli.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let specs = cli.workload.map_or(WORKLOADS.to_vec(), |spec| vec![spec]);
    if cli.check_noise {
        return check_noise(&specs, cli);
    }
    let mut reports = Vec::new();
    for spec in &specs {
        let report = match cli.workload {
            Some(_) => measure(spec, cli),
            // A full run: the two runs the driver makes, one after the other.
            None => {
                let mut report = measure_in_child(spec, cli, false)?;
                let traced = measure_in_child(spec, cli, true)?;
                report.values.extend(traced.values);
                report.attempted += traced.attempted;
                report.failed += traced.failed;
                report
            }
        };
        print_values(spec.name, &report.values);
        reports.push((spec.name, report));
    }
    print_result(&reports);
    Ok(reports.iter().all(|(_, r)| r.failed == 0))
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|cli| run(&cli));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pimtree-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
