//! Diagnostic profile of the parallel IBWJ engine: where worker wall-clock
//! time goes (task acquisition, result generation, index update, propagation,
//! idle back-off, merging) as the number of threads grows, plus the lock-free
//! task ring's contention counters (claim-CAS retries, ingest-token and
//! drain-token collisions, idle back-off stage mix).
//!
//! This binary is not tied to a specific paper figure; it backs the
//! engine-scaling notes in `docs/ARCHITECTURE.md` and is the tool used to verify
//! that task distribution and edge-tuple bookkeeping stay off the per-tuple
//! critical path. Sweep the ring itself with `--ring-cap= --ingest-target=
//! --spin= --yield= --park-us=` (the batched CSS group probe's counters and
//! its SIMD/scalar intra-node search split are columns of every row), and
//! the sharded ring layer with
//! `--shards= --steal-batch= --steal-threshold=` (shards > 1 routes
//! ingestion by key range and reports steal/remote-traffic counters).
//! `--partition-index=on` additionally partitions the index and window state
//! per shard (the `ShardStore` layer) and reports its probe fan-out and
//! simulated store-traffic counters. `--repartition=on` turns on
//! drift-driven repartitioning and reports the migration columns (epochs,
//! worst stall); `--arrival-rate=` paces ingestion
//! open-loop and reports the arrival-latency tail (p99).
//!
//! The phase columns come from the engine's own phase spans
//! (`JoinRunStats::phase`). After each CSV row the binary renders a
//! per-shard gauge table from the final sample of the run's JSONL gauge
//! trace — ring occupancy per shard, unindexed suffix and window sizes,
//! drift imbalance — as `#`-prefixed comment lines so CSV consumers are
//! unaffected. `--telemetry-out=PATH` keeps the traces (one per swept thread
//! count, at `PATH.<threads>t`, sampled every `--telemetry-interval=` ms);
//! without it the trace goes to a scratch file that is removed after
//! rendering.
//!
//! `--sample=PATH` (Linux x86-64) turns on a `SIGPROF` instruction-pointer
//! sampler for hosts without `perf`: one sample per 4 ms tick of CPU time,
//! only those of the measured phase kept, written to `PATH.<threads>t` as
//! file-relative addresses for `addr2line` (recipe in CONTRIBUTING.md).
//!
//! After the sweep one more `#` line reports the paper's baseline on the
//! same input and warm-up: the single-threaded IBWJ operator over the
//! PIM-Tree at merge ratio 0.125, as the repository benchmark's
//! `single_thread_mtps` runs it, and the one-worker row's rate divided by
//! it — what batching alone buys — then the operator's merge share (its
//! merge time over its elapsed time) and merge time per tuple. Under
//! `--sample` its profile goes to `PATH.st`.

use pimtree_bench::harness::*;
use pimtree_common::{IndexKind, JoinConfig, PimConfig};
use pimtree_join::{build_single_threaded, ParallelIbwj, SharedIndexKind};
use pimtree_numa::RangePartitioner;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(18, 18);
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

    print_header(
        "engine_profile",
        &format!(
            "parallel IBWJ phase breakdown and ring contention (w = 2^{}, {} tuples, task size {}, ring {:?}, shard {:?})",
            opts.max_exp,
            tuples.len(),
            opts.task_size,
            opts.ring(),
            opts.shard()
        ),
        &[
            "threads",
            "mtps",
            "acquire_pct",
            "generate_pct",
            "update_pct",
            "propagate_pct",
            "idle_pct",
            "merges",
            "merge_ms",
            "mean_latency_us",
            "loaded_mb",
            "claim_retries_per_task",
            "mean_task_size",
            "ingest_contended",
            "drain_contended",
            "idle_spin",
            "idle_yield",
            "idle_park",
            "probe_batches",
            "mean_probe_batch",
            "probe_dedup_rate",
            "nodes_prefetched",
            "simd_search_rate",
            "shards",
            "steal_tasks",
            "stolen_tuples",
            "steal_fraction",
            "shard_remote_fraction",
            "shard_full_stalls",
            "partition_index",
            "store_shards",
            "mean_probe_fanout",
            "single_shard_probes",
            "store_remote_fraction",
            "simulated_store_cost",
            "migration_epochs",
            "max_stall_us",
            "arrival_p99_us",
        ],
    );
    let mut sweep = vec![1, 2, 4, 8];
    if opts.threads > 0 && !sweep.contains(&opts.threads) {
        sweep.push(opts.threads);
    }
    // One partitioner for the whole sweep, from a bounded strided key
    // subsample — the partitioner only needs N − 1 quantiles, not every key.
    let partitioner = (opts.shards > 1).then(|| {
        let step = (tuples.len() / 4096).max(1);
        let sample: Vec<i64> = tuples.iter().step_by(step).map(|t| t.key).collect();
        RangePartitioner::from_key_sample(opts.shards, &sample)
    });
    let trace_base = telemetry_out_from_args();
    let sample_base = path_arg("--sample");
    let warmup = (2 * w).min(tuples.len() / 2);
    let mut one_worker_mtps = 0.0;
    for threads in sweep {
        let mut config = JoinConfig::symmetric(w, IndexKind::PimTree)
            .with_threads(threads)
            .with_task_size(opts.task_size)
            .with_pim(pim_config(w))
            .with_ring(opts.ring())
            .with_shard(opts.shard())
            .with_drift(opts.drift());
        config.window_r = w;
        config.window_s = w;
        let trace_path = match &trace_base {
            Some(base) => format!("{base}.{threads}t"),
            None => std::env::temp_dir()
                .join(format!("engine_profile_trace_{threads}t.jsonl"))
                .to_string_lossy()
                .into_owned(),
        };
        let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false)
            .with_telemetry_out(&trace_path, opts.telemetry_interval());
        if let Some(p) = &partitioner {
            op = op.with_partitioner(p.clone());
        }
        if opts.arrival_rate > 0.0 {
            op = op.with_open_loop(opts.arrival_rate);
        }
        let sampling = sample_base
            .as_ref()
            .map(|base| (format!("{base}.{threads}t"), sampler::start()));
        let (stats, _) = op.run_with_warmup(&tuples, warmup);
        if let Some((path, started)) = sampling {
            report_samples(
                sampler::stop_and_write(started, stats.elapsed, &path),
                &path,
            );
        }
        if threads == 1 {
            one_worker_mtps = stats.million_tuples_per_second();
        }
        let total = stats.phase.total().as_secs_f64().max(1e-12);
        let pct = |d: std::time::Duration| format!("{:.1}", 100.0 * d.as_secs_f64() / total);
        print_row(&[
            threads.to_string(),
            mtps(&stats),
            pct(stats.phase.acquire),
            pct(stats.phase.generate),
            pct(stats.phase.update),
            pct(stats.phase.propagate),
            pct(stats.phase.idle),
            stats.merges.to_string(),
            format!("{:.1}", stats.merge_time.as_secs_f64() * 1e3),
            format!("{:.1}", stats.latency.mean_micros()),
            format!("{:.1}", stats.bytes_loaded as f64 / 1e6),
            format!("{:.3}", stats.ring.claim_contention()),
            format!("{:.2}", stats.ring.mean_task_size()),
            stats.ring.ingest_token_contended.to_string(),
            stats.ring.drain_contended.to_string(),
            stats.ring.idle_spins.to_string(),
            stats.ring.idle_yields.to_string(),
            stats.ring.idle_parks.to_string(),
            stats.probe.batches.to_string(),
            format!("{:.2}", stats.probe.mean_batch_size()),
            format!("{:.3}", stats.probe.dedup_rate()),
            stats.probe.nodes_prefetched.to_string(),
            format!("{:.3}", stats.probe.simd_search_rate()),
            stats.shard.shards.to_string(),
            stats.shard.steal_tasks.to_string(),
            stats.shard.stolen_tuples.to_string(),
            format!("{:.3}", stats.shard.steal_fraction()),
            format!("{:.3}", stats.shard.remote_fraction()),
            stats.shard.shard_full_stalls.to_string(),
            stats.store.partitioned.to_string(),
            stats.store.store_shards.max(1).to_string(),
            format!("{:.3}", stats.store.mean_probe_fanout()),
            stats.store.single_shard_probes.to_string(),
            format!("{:.3}", stats.store.remote_fraction()),
            stats.store.simulated_store_cost.to_string(),
            stats.migration.epochs.to_string(),
            format!("{:.1}", stats.migration.max_stall_micros()),
            format!(
                "{:.1}",
                stats
                    .arrival_latency
                    .as_ref()
                    .map_or(0.0, |h| h.p99_micros())
            ),
        ]);
        render_gauge_table(&trace_path);
        if trace_base.is_none() {
            let _ = std::fs::remove_file(&trace_path);
        }
    }

    let config = JoinConfig::symmetric(w, IndexKind::PimTree)
        .with_pim(PimConfig::for_window(w).with_merge_ratio(0.125));
    let mut single = build_single_threaded(&config, predicate, false);
    let sampling = sample_base
        .as_ref()
        .map(|base| (format!("{base}.st"), sampler::start()));
    single.run(&tuples[..warmup], false);
    let (stats, _) = single.run(&tuples[warmup..], false);
    if let Some((path, started)) = sampling {
        report_samples(
            sampler::stop_and_write(started, stats.elapsed, &path),
            &path,
        );
    }
    let single_mtps = stats.million_tuples_per_second();
    println!(
        "# single-threaded IBWJ (PIM-Tree, merge ratio 0.125): {single_mtps:.4} Mtuples/s; \
         1 worker / single-threaded = {:.3}; merge share {:.3}, {:.1} merge ns/tuple",
        one_worker_mtps / single_mtps,
        stats.merge_time.as_secs_f64() / stats.elapsed.as_secs_f64(),
        stats.merge_time.as_nanos() as f64 / stats.tuples as f64
    );
}

/// Reports what `sampler::stop_and_write` did with `path`.
fn report_samples(written: std::io::Result<usize>, path: &str) {
    match written {
        Ok(kept) => println!("# sampler: {kept} samples of the measured phase in {path}"),
        Err(e) => eprintln!("sampler: cannot write {path}: {e}"),
    }
}

/// `--sample`: where a run's CPU time goes by instruction address, from the
/// profiling timer alone. The handler stores the interrupted `RIP` and a
/// time-stamp counter reading into preallocated arrays; the warm-up's samples
/// are dropped afterwards by time stamp (on `steady-spill` the `TS`-less
/// warm-up would otherwise fill a third of the profile with the promoted
/// partition's tree inserts).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use core::arch::x86_64::_rdtsc;
    use core::ffi::c_void;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::{Duration, Instant};

    /// Nine minutes of one busy thread at the 4 ms tick.
    const CAP: usize = 1 << 17;
    static RIP: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
    static TSC: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t.uc_mcontext.gregs[REG_RIP]` in 8-byte words: flags, link
    /// and the 24-byte `stack_t` come first (5 words), `REG_RIP` is 16.
    const UCONTEXT_RIP_WORD: usize = 5 + 16;

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: extern "C" fn(i32, *mut c_void, *mut c_void),
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        /// `struct itimerval`: interval then value, each `{tv_sec, tv_usec}`.
        fn setitimer(which: i32, new: *const [i64; 4], old: *mut [i64; 4]) -> i32;
    }

    extern "C" fn on_sigprof(_signal: i32, _info: *mut c_void, ucontext: *mut c_void) {
        let i = NEXT.fetch_add(1, Relaxed);
        if i < CAP {
            // SAFETY: with `SA_SIGINFO` the kernel passes a `ucontext_t` whose
            // saved general registers hold the interrupted `RIP` at this word.
            RIP[i].store(
                unsafe { *(ucontext as *const u64).add(UCONTEXT_RIP_WORD) },
                Relaxed,
            );
            // SAFETY: `RDTSC` has no preconditions in user mode on Linux.
            TSC[i].store(unsafe { _rdtsc() }, Relaxed);
        }
    }

    fn set_timer(micros: i64) {
        // SAFETY: the argument is a live `itimerval`; no old value is asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &[0, micros, 0, micros], std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
    }

    /// Installs the handler and arms the timer; returns the clock pair the
    /// time-stamp counter is calibrated against at the end.
    pub fn start() -> (Instant, u64) {
        NEXT.store(0, Relaxed);
        let action = SigAction {
            handler: on_sigprof,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` matches the C layout and outlives the call; the
        // handler only touches lock-free statics, so it is async-signal-safe.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
        // A millisecond, which the kernel rounds up to its tick.
        set_timer(1_000);
        // SAFETY: as in the handler.
        (Instant::now(), unsafe { _rdtsc() })
    }

    /// Disarms the timer and writes the samples taken in the last `measured`
    /// of the interval since [`start`] that lie inside the executable, one
    /// file-relative address a line; returns how many.
    pub fn stop_and_write(
        (t0, tsc0): (Instant, u64),
        measured: Duration,
        path: &str,
    ) -> std::io::Result<usize> {
        set_timer(0);
        // SAFETY: as in the handler.
        let tsc1 = unsafe { _rdtsc() };
        let ticks_per_sec = (tsc1 - tsc0) as f64 / t0.elapsed().as_secs_f64();
        let phase_start = tsc1.saturating_sub((measured.as_secs_f64() * ticks_per_sec) as u64);
        let exe = std::fs::read_link("/proc/self/exe")?;
        let exe = exe.to_string_lossy();
        // The executable's mappings: "start-end perms offset dev inode path".
        let maps = std::fs::read_to_string("/proc/self/maps")?;
        let spans = maps.lines().filter(|l| l.ends_with(&*exe)).filter_map(|l| {
            let (start, end) = l.split_whitespace().next()?.split_once('-')?;
            Some((
                u64::from_str_radix(start, 16).ok()?,
                u64::from_str_radix(end, 16).ok()?,
            ))
        });
        let (base, end) = spans.fold((u64::MAX, 0), |(lo, hi), (s, e)| (lo.min(s), hi.max(e)));
        let taken = NEXT.load(Relaxed).min(CAP);
        let kept: Vec<u64> = (0..taken)
            .filter(|&i| TSC[i].load(Relaxed) >= phase_start)
            .map(|i| RIP[i].load(Relaxed))
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {taken} samples, {} in the measured phase ({:.3} s); load base {base:#x} of {exe}; \
             addresses outside the executable are left out",
            kept.len(),
            measured.as_secs_f64()
        )?;
        let mut written = 0;
        for rip in kept.into_iter().filter(|rip| (base..end).contains(rip)) {
            writeln!(out, "{:#x}", rip - base)?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sampler {
    pub fn start() {
        panic!("--sample needs Linux on x86-64")
    }
    pub fn stop_and_write(_: (), _: std::time::Duration, _: &str) -> std::io::Result<usize> {
        Ok(0)
    }
}

/// Renders the per-shard gauge table from the final sample of the run's
/// JSONL trace. The trace format is the flat one-line-per-sample JSON of
/// `docs/telemetry-schema.json`, so scalar fields can be sliced out
/// positionally without a JSON parser.
fn render_gauge_table(trace_path: &str) {
    let Ok(trace) = std::fs::read_to_string(trace_path) else {
        return;
    };
    let Some(last) = trace.lines().rev().find(|l| !l.trim().is_empty()) else {
        return;
    };
    let field = |key: &str| -> String {
        let pat = format!("\"{key}\": ");
        let Some(start) = last.find(&pat).map(|i| i + pat.len()) else {
            return "?".to_string();
        };
        let rest = &last[start..];
        match rest.find([',', '}']) {
            Some(end) => rest[..end].trim().to_string(),
            None => "?".to_string(),
        }
    };
    let occupancy: Vec<String> = last
        .find("\"shard_occupancy\": [")
        .and_then(|i| {
            let rest = &last[i + "\"shard_occupancy\": [".len()..];
            let close = rest.find(']')?;
            Some(
                rest[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            )
        })
        .unwrap_or_default();
    println!(
        "# final gauges (sample {} at {}us): in_flight {}, unindexed r/s {}/{}, \
         window r/s {}/{}, claims local/stolen {}/{}, drift imbalance {}",
        field("seq"),
        field("elapsed_us"),
        field("in_flight"),
        field("unindexed_r"),
        field("unindexed_s"),
        field("window_r"),
        field("window_s"),
        field("local_claims"),
        field("stolen_claims"),
        field("drift_imbalance"),
    );
    for (shard, occ) in occupancy.iter().enumerate() {
        println!("#   shard {shard}: ring occupancy {occ}");
    }
}
