//! Diagnostic profile of the parallel IBWJ engine: where worker wall-clock
//! time goes (task acquisition, result generation, index update, propagation,
//! idle back-off, merging) as the number of threads grows, plus the lock-free
//! task ring's contention counters (claim-CAS retries, ingest-token and
//! drain-token collisions, idle back-off stage mix). `--threads=N` runs one
//! row at exactly N workers; without it the rows sweep the powers of two up
//! to the host's available parallelism. Nothing but the engine's workers
//! runs while a row is measured.
//!
//! This binary is not tied to a specific paper figure; it backs the
//! engine-scaling notes in `docs/ARCHITECTURE.md` and is the tool used to verify
//! that task distribution and edge-tuple bookkeeping stay off the per-tuple
//! critical path. Sweep the ring's fill target with `--ingest-target=` (the
//! batched CSS group probe's counters are columns of every row), and the
//! sharded ring layer with `--shards=` (shards > 1 routes ingestion by key
//! range and reports the steal counters). `--partition-index=on`
//! additionally partitions the index and window state per shard (the
//! `ShardStore` layer) and reports its probe fan-out and its local and
//! remote store accesses. `--repartition=on` turns on
//! drift-driven repartitioning and reports the migration columns (epochs,
//! worst stall); `--arrival-rate=` paces ingestion
//! open-loop and reports the arrival-latency tail (p99).
//!
//! The phase columns come from the engine's own phase spans
//! (`JoinRunStats::phase`); `ingest_stalls` counts the measured phase's
//! ring fills that the admission bound on the non-indexed window suffix
//! cut short.
//!
//! `--sample=PATH` (Linux x86-64) turns on a `SIGPROF` instruction-pointer
//! sampler for hosts without `perf`: one sample per 4 ms tick of CPU time,
//! only those of the measured phase kept, written to `PATH.<threads>t` as
//! file-relative addresses for `addr2line` (recipe in CONTRIBUTING.md), with
//! the samples outside the executable counted per object in a `# outside:`
//! line.
//!
//! After the sweep one more `#` line reports the paper's baseline on the
//! same input and warm-up: the single-threaded IBWJ operator over the
//! PIM-Tree at merge ratio 0.125, as the repository benchmark's
//! `single_thread_mtps` runs it — counting its matches, with no result
//! built, through the same count sink as the engine's workers, over a
//! `RefCell<PimTree>` that takes no lock and no atomic read-modify-write
//! (`build_single_threaded`). It is the
//! median of five passes, each a fresh operator with the same warm-up,
//! with the slowest and fastest pass beside it; then, when a one-worker row
//! ran, that row's rate divided by the median — what batching alone buys —
//! and, when a two-worker row ran too, its rate divided by the one-worker
//! row's — what parallelism buys; then the median pass's merge share (its
//! merge time over its elapsed time) and merge time per tuple.
//! Under `--sample` the first pass's profile goes to `PATH.st`.

use pimtree_bench::harness::*;
use pimtree_common::{IndexKind, JoinConfig, PimConfig};
use pimtree_join::{build_single_threaded, JoinRunStats, ParallelIbwj, SharedIndexKind};
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
            "parallel IBWJ phase breakdown and ring contention (w = 2^{}, {} tuples, task size {}, ingest target {} (0 = auto), shard {:?})",
            opts.max_exp,
            tuples.len(),
            opts.task_size,
            opts.ingest_target,
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
            "ingest_stalls",
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
            "shards",
            "steal_tasks",
            "stolen_tuples",
            "steal_fraction",
            "shard_full_stalls",
            "partition_index",
            "store_shards",
            "mean_probe_fanout",
            "single_shard_probes",
            "store_remote_fraction",
            "migration_epochs",
            "max_stall_us",
            "arrival_p99_us",
        ],
    );
    // One partitioner for the whole sweep.
    let partitioner = (opts.shards > 1)
        .then(|| RangePartitioner::from_key_sample(opts.shards, &key_sample(&tuples, 4096)));
    let sample_base = &opts.sample;
    let mut worker_mtps = [None; 2];
    for threads in opts.thread_sweep() {
        let config = opts
            .engine_config(w, threads)
            .with_shard(opts.shard())
            .with_drift(opts.drift());
        let sampling = sample_base
            .as_ref()
            .map(|base| (format!("{base}.{threads}t"), sampler::start()));
        let mut op = ParallelIbwj::new(config, predicate, SharedIndexKind::PimTree, false);
        if let Some(p) = &partitioner {
            op = op.with_partitioner(p.clone());
        }
        if opts.arrival_rate > 0.0 {
            op = op.with_open_loop(opts.arrival_rate);
        }
        // The measured phase ends when the last worker leaves, before the
        // engine tears its state down: the sampler's cut is read there, in
        // the inspector the engine calls between the two.
        let mut phase_end = None;
        let (stats, _) =
            op.run_with_store_inspector(&tuples, engine_warmup(&config, tuples.len()), |_| {
                phase_end = Some(sampler::now());
            });
        if let Some((path, started)) = sampling {
            let phase_end = phase_end.expect("the engine calls its inspector");
            report_samples(
                sampler::stop_and_write(started, phase_end, stats.elapsed, &path),
                &path,
            );
        }
        if let Some(slot) = worker_mtps.get_mut(threads - 1) {
            *slot = Some(stats.million_tuples_per_second());
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
            stats.ring.ingest_stalls.to_string(),
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
            stats.shard.shards.to_string(),
            stats.shard.steal_tasks.to_string(),
            stats.shard.stolen_tuples.to_string(),
            format!("{:.3}", stats.shard.steal_fraction()),
            stats.shard.shard_full_stalls.to_string(),
            stats.store.partitioned.to_string(),
            stats.store.store_shards.max(1).to_string(),
            format!("{:.3}", stats.store.mean_probe_fanout()),
            stats.store.single_shard_probes.to_string(),
            format!("{:.3}", stats.store.remote_fraction()),
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
    }

    let config = JoinConfig::symmetric(w, IndexKind::PimTree)
        .with_pim(PimConfig::for_window(w).with_merge_ratio(0.125));
    let warmup = (2 * w).min(tuples.len() / 2);
    let mut passes: Vec<JoinRunStats> = (0..BASELINE_PASSES)
        .map(|pass| {
            let mut single = build_single_threaded(&config, predicate, false);
            let sampling = sample_base
                .as_ref()
                .filter(|_| pass == 0)
                .map(|base| (format!("{base}.st"), sampler::start()));
            single.run(&tuples[..warmup], false);
            let (stats, _) = single.run(&tuples[warmup..], false);
            let phase_end = sampler::now();
            if let Some((path, started)) = sampling {
                report_samples(
                    sampler::stop_and_write(started, phase_end, stats.elapsed, &path),
                    &path,
                );
            }
            stats
        })
        .collect();
    passes.sort_by(|a, b| {
        a.million_tuples_per_second()
            .total_cmp(&b.million_tuples_per_second())
    });
    let median = &passes[BASELINE_PASSES / 2];
    let single_mtps = median.million_tuples_per_second();
    let ratio = scaling_ratios(single_mtps, worker_mtps[0], worker_mtps[1]);
    println!(
        "# single-threaded IBWJ (PIM-Tree, merge ratio 0.125), median of {BASELINE_PASSES} passes: \
         {single_mtps:.4} Mtuples/s (min {:.4}, max {:.4}){ratio}; merge share {:.3}, \
         {:.1} merge ns/tuple",
        passes[0].million_tuples_per_second(),
        passes[BASELINE_PASSES - 1].million_tuples_per_second(),
        median.merge_time.as_secs_f64() / median.elapsed.as_secs_f64(),
        median.merge_time.as_nanos() as f64 / median.tuples as f64
    );
}

/// Passes of the single-threaded baseline; the line reports their median.
const BASELINE_PASSES: usize = 5;

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

    /// What [`start`] hands [`stop_and_write`]: the clock pair the
    /// time-stamp counter is calibrated against, and the process's mappings
    /// when sampling began.
    pub struct Started {
        t0: Instant,
        tsc0: u64,
        maps: String,
    }

    /// Snapshots the mappings, installs the handler and arms the timer.
    pub fn start() -> Started {
        // Read before the timer is armed: the text is what every sample is
        // attributed against, the executable or the object it landed in.
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
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
        Started {
            t0: Instant::now(),
            tsc0: now(),
            maps,
        }
    }

    /// The time-stamp counter, read where the measured phase ends.
    pub fn now() -> u64 {
        // SAFETY: as in the handler.
        unsafe { _rdtsc() }
    }

    /// Disarms the timer and writes the samples of the `measured` interval
    /// that ended at `phase_end` (a [`now`] reading) that lie inside the
    /// executable, one file-relative address a line, and a count of the rest
    /// by the object they landed in; returns how many were written.
    pub fn stop_and_write(
        started: Started,
        phase_end: u64,
        measured: Duration,
        path: &str,
    ) -> std::io::Result<usize> {
        set_timer(0);
        let ticks_per_sec = (now() - started.tsc0) as f64 / started.t0.elapsed().as_secs_f64();
        let phase_start = phase_end.saturating_sub((measured.as_secs_f64() * ticks_per_sec) as u64);
        let exe = std::fs::read_link("/proc/self/exe")?;
        let exe = exe.to_string_lossy();
        let taken = NEXT.load(Relaxed).min(CAP);
        let kept: Vec<u64> = (0..taken)
            .filter(|&i| (phase_start..=phase_end).contains(&TSC[i].load(Relaxed)))
            .map(|i| RIP[i].load(Relaxed))
            .collect();
        let split = super::attribute(&super::parse_maps(&started.maps), &exe, &kept);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {taken} samples, {} in the measured phase ({:.3} s); load base {:#x} of {exe}; \
             addresses outside the executable are counted below, not listed",
            kept.len(),
            measured.as_secs_f64(),
            split.base,
        )?;
        writeln!(out, "{}", super::outside_line(&split.outside))?;
        for offset in &split.inside {
            writeln!(out, "{offset:#x}")?;
        }
        out.flush()?;
        Ok(split.inside.len())
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sampler {
    pub fn start() {
        panic!("--sample needs Linux on x86-64")
    }
    pub fn now() {}
    pub fn stop_and_write(_: (), _: (), _: std::time::Duration, _: &str) -> std::io::Result<usize> {
        Ok(0)
    }
}

/// One mapping of a `/proc/<pid>/maps` text: its address range and what is
/// mapped there — a file's path, a kernel pseudo-name such as `[vdso]` or
/// `[heap]`, or `[anon]` for an anonymous mapping.
#[derive(Debug, PartialEq)]
struct Mapping {
    start: u64,
    end: u64,
    object: String,
}

/// Parses a maps text, line by line: `start-end perms offset dev inode
/// [path]`. Lines that do not parse are skipped.
fn parse_maps(maps: &str) -> Vec<Mapping> {
    maps.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let object = fields.nth(4).map_or("[anon]", |path| path);
            Some(Mapping {
                start: u64::from_str_radix(start, 16).ok()?,
                end: u64::from_str_radix(end, 16).ok()?,
                object: object.to_string(),
            })
        })
        .collect()
}

/// Sample addresses split by where they landed.
#[derive(Debug, PartialEq)]
struct Attribution {
    /// The executable's load base: the lowest start of its mappings.
    base: u64,
    /// Addresses inside the executable, relative to `base`, in sample order.
    inside: Vec<u64>,
    /// The rest, counted per object (a path's file name, a pseudo-name, or
    /// `[unmapped]` when no mapping held the address), most first.
    outside: Vec<(String, usize)>,
}

fn attribute(maps: &[Mapping], exe: &str, addresses: &[u64]) -> Attribution {
    let base = maps
        .iter()
        .filter(|m| m.object == exe)
        .map(|m| m.start)
        .min()
        .unwrap_or(0);
    let mut inside = Vec::new();
    let mut outside: Vec<(String, usize)> = Vec::new();
    for &addr in addresses {
        let object = maps
            .iter()
            .find(|m| (m.start..m.end).contains(&addr))
            .map_or("[unmapped]", |m| m.object.as_str());
        if object == exe {
            inside.push(addr - base);
            continue;
        }
        let name = object.rsplit('/').next().unwrap_or(object);
        match outside.iter_mut().find(|(n, _)| n == name) {
            Some((_, count)) => *count += 1,
            None => outside.push((name.to_string(), 1)),
        }
    }
    outside.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Attribution {
        base,
        inside,
        outside,
    }
}

/// The profile's count line for the samples outside the executable, e.g.
/// `# outside: 41 libc.so.6, 12 [vdso]`.
fn outside_line(outside: &[(String, usize)]) -> String {
    if outside.is_empty() {
        return "# outside: none".to_string();
    }
    let counts: Vec<String> = outside
        .iter()
        .map(|(name, n)| format!("{n} {name}"))
        .collect();
    format!("# outside: {}", counts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPS: &str = "\
5581a0000000-5581a0100000 r--p 00000000 fd:01 1234   /usr/local/bin/engine_profile
5581a0100000-5581a0400000 r-xp 00100000 fd:01 1234   /usr/local/bin/engine_profile
5581a1000000-5581a1021000 rw-p 00000000 00:00 0      [heap]
7f3a10000000-7f3a10021000 rw-p 00000000 00:00 0
7f3a20000000-7f3a20028000 r--p 00000000 fd:01 99     /usr/lib/x86_64-linux-gnu/libc.so.6
7f3a20028000-7f3a201bd000 r-xp 00028000 fd:01 99     /usr/lib/x86_64-linux-gnu/libc.so.6
7ffd3c5f2000-7ffd3c5f4000 r-xp 00000000 00:00 0      [vdso]
not a mapping line
";

    #[test]
    fn samples_are_split_into_the_executable_and_counts_per_object() {
        let maps = parse_maps(MAPS);
        assert_eq!(maps.len(), 7, "the malformed line is skipped");
        assert_eq!(maps[3].object, "[anon]");
        let exe = "/usr/local/bin/engine_profile";
        let addresses = [
            0x5581a0100010, // executable text
            0x7f3a20030000, // libc text
            0x7ffd3c5f2100, // vDSO
            0x7f3a20000040, // libc, read-only part
            0x5581a0000008, // executable, first mapping
            0x7f3a10000100, // anonymous
            0x1000,         // nothing mapped
        ];
        let split = attribute(&maps, exe, &addresses);
        assert_eq!(split.base, 0x5581a0000000);
        assert_eq!(split.inside, vec![0x100010, 0x8]);
        assert_eq!(
            split.outside,
            vec![
                ("libc.so.6".to_string(), 2),
                ("[anon]".to_string(), 1),
                ("[unmapped]".to_string(), 1),
                ("[vdso]".to_string(), 1),
            ]
        );
        assert_eq!(
            outside_line(&split.outside),
            "# outside: 2 libc.so.6, 1 [anon], 1 [unmapped], 1 [vdso]"
        );
        assert_eq!(outside_line(&[]), "# outside: none");
    }
}
