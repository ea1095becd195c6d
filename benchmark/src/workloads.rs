//! The four workloads, their inputs and the two operators they run.
//!
//! All four are two-way band joins over count windows with half the tuples
//! on each stream and the PIM-Tree as index. They differ in the one property
//! each is chosen for: working-set size against one core's L2, matches per
//! probe, and whether the key distribution moves under a sharded store.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pimtree_common::{
    BandPredicate, DriftConfig, IndexKind, JoinConfig, Key, PimConfig, ShardConfig, Tuple,
};
use pimtree_join::{build_single_threaded, ParallelIbwj, SharedIndexKind, SingleThreadJoin};
use pimtree_numa::RangePartitioner;
use pimtree_workload::{calibrate_diff, KeyDistribution, StreamGenerator, StreamMix};

/// Worker threads of the parallel engine: the host's two vCPUs. A constant,
/// so that a number is never silently compared with one from another thread
/// count; `--threads=` overrides it and is recorded in the output.
pub const THREADS: usize = 2;

/// Tuples per task handed to a worker.
pub const TASK_SIZE: usize = 8;

/// Shards of `drift-migrate`: one per worker.
const SHARDS: usize = 2;

/// How far the keys of `drift-migrate` jump at the stream midpoint: past the
/// whole key domain, so the two halves share no shard boundary.
const DRIFT_SHIFT: Key = 2_000_000_000;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Why it exists; also the `why` of `BENCHMARK.json`.
    pub why: &'static str,
    /// Tuples per window side.
    pub window: usize,
    /// Matches per probe the band is calibrated to.
    pub match_rate: f64,
    /// Tuples of the measured phase, after a warm-up prefix of two windows.
    pub measured: usize,
    /// Two shards with the partitioned store and live repartitioning, and
    /// keys that jump at the midpoint; otherwise one shard and none of that.
    pub drift: bool,
    /// Offered rate of the open-loop part in tuples/s: a quarter of the
    /// closed-loop throughput measured on the reference host when the
    /// benchmark was defined, frozen so that latency is compared at one rate.
    pub offered_tps: f64,
    /// Speed of the host probe (`hostprobe.rs`) on this workload's keys on
    /// the reference host at rest, in probes per microsecond on one thread
    /// and on [`THREADS`]: what a probe speed is divided by to say how fast
    /// the host is just now. Frozen like the offered rate.
    pub probe_ref: [f64; 2],
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady-l2",
        why: "window 2^14: both indexes fit one core's L2, so ring, claim/drain and propagation dominate; coordination changes show here, memory-latency changes should not",
        window: 1 << 14,
        match_rate: 2.0,
        measured: 250_000,
        drift: false,
        offered_tps: 350_000.0,
        probe_ref: [12.4, 22.3],
    },
    Spec {
        name: "steady-spill",
        why: "window 2^18: index and window are about 10x L2, so dependent misses in the CSS descent and 256K-entry merges dominate; probe-path and merge changes show here, ring changes little",
        window: 1 << 18,
        match_rate: 2.0,
        measured: 3 << 18,
        drift: false,
        offered_tps: 250_000.0,
        probe_ref: [3.05, 6.85],
    },
    Spec {
        name: "wide-band",
        why: "window 2^16 at 64 matches per probe: one descent feeds a long leaf scan and 32x the results, so scan, materialisation and ordered propagation dominate; catches descents sped up at the scans' cost",
        window: 1 << 16,
        match_rate: 64.0,
        measured: 500_000,
        drift: false,
        offered_tps: 150_000.0,
        probe_ref: [4.1, 7.5],
    },
    Spec {
        name: "drift-migrate",
        why: "window 2^16, 2 shards, partitioned store, keys jump to a disjoint range at the midpoint: the only workload where routing, store fan-out, drift monitor and a migration epoch do any work",
        window: 1 << 16,
        match_rate: 2.0,
        measured: 500_000,
        drift: true,
        offered_tps: 250_000.0,
        probe_ref: [7.4, 13.4],
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Warm-up prefix: fills both windows and takes the index through its
    /// first merge.
    pub fn warmup(&self) -> usize {
        2 * self.window
    }

    /// Input length.
    pub fn tuples(&self) -> usize {
        self.warmup() + self.measured
    }

    /// The same workload cut down by `factor` for `--smoke`: same code
    /// paths, same checks, no meaning as a measurement.
    pub fn shrunk(&self, factor: usize) -> Spec {
        Spec {
            window: (self.window / factor).max(1 << 10),
            measured: (self.measured / factor).max(20_000),
            ..*self
        }
    }

    /// The truncated instance checked against the brute-force oracle: same
    /// distribution, same matches per probe, small enough for `O(n * w)`.
    pub fn truncated(&self) -> Spec {
        Spec {
            window: 1 << 10,
            measured: 40_000 - (2 << 10),
            ..*self
        }
    }
}

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub tuples: Vec<Tuple>,
    pub predicate: BandPredicate,
    /// Fitted to the first half of the stream; `Some` for `drift` workloads.
    pub partitioner: Option<RangePartitioner>,
}

/// Generates `spec`'s input from `seed`: interleaved uniform-key tuples, the
/// band calibrated to `spec.match_rate`, and for a drifting workload the
/// midpoint jump and the partitioner fitted to the keys before it.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let dist = KeyDistribution::uniform();
    let predicate = BandPredicate::new(calibrate_diff(dist, spec.window, spec.match_rate, seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tuples = StreamGenerator::new(dist, StreamMix::with_s_percent(50.0))
        .generate(&mut rng, spec.tuples());
    let mut partitioner = None;
    if spec.drift {
        let (first, second) = tuples.split_at_mut(spec.tuples() / 2);
        for t in second {
            t.key += DRIFT_SHIFT;
        }
        let sample: Vec<Key> = first
            .iter()
            .step_by((first.len() / 8192).max(1))
            .map(|t| t.key)
            .collect();
        partitioner = Some(RangePartitioner::from_key_sample(SHARDS, &sample));
    }
    Inputs {
        tuples,
        predicate,
        partitioner,
    }
}

/// The paper's baseline: the single-threaded IBWJ operator without
/// concurrency control, at the merge ratio that is best for one thread.
pub fn single_threaded(spec: &Spec, inputs: &Inputs) -> Box<dyn SingleThreadJoin> {
    let config = JoinConfig::symmetric(spec.window, IndexKind::PimTree)
        .with_pim(PimConfig::for_window(spec.window).with_merge_ratio(0.125));
    build_single_threaded(&config, inputs.predicate, false)
}

/// PIM-Tree configuration of the parallel engine (and of the ladder's
/// stand-alone tree): merge ratio 1 and insertion depth 3, the paper's best
/// multithreaded setting.
pub fn engine_pim(window: usize) -> PimConfig {
    PimConfig::for_window(window)
        .with_merge_ratio(1.0)
        .with_insertion_depth(3)
}

/// The parallel engine under test. Everything not named here stays at its
/// `Default`, so that a later change of a default is measured.
pub fn parallel(spec: &Spec, inputs: &Inputs, threads: usize) -> ParallelIbwj {
    let mut config = JoinConfig::symmetric(spec.window, IndexKind::PimTree)
        .with_threads(threads)
        .with_task_size(TASK_SIZE)
        .with_pim(engine_pim(spec.window));
    if let Some(p) = &inputs.partitioner {
        config = config
            .with_shard(
                ShardConfig::default()
                    .with_shards(p.nodes())
                    .with_partition_index(true),
            )
            .with_drift(DriftConfig::default().with_repartition(true));
    }
    let engine = ParallelIbwj::new(config, inputs.predicate, SharedIndexKind::PimTree, false);
    match &inputs.partitioner {
        Some(p) => engine.with_partitioner(p.clone()),
        None => engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::is_valid_name;

    #[test]
    fn workloads_are_named_once_and_explained_in_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(is_valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(Spec::by_name(w.name), Some(*w));
        }
        assert_eq!(Spec::by_name("nope"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_input() {
        let spec = Spec::by_name("drift-migrate").unwrap().truncated();
        let (a, b, c) = (generate(&spec, 5), generate(&spec, 5), generate(&spec, 6));
        assert_eq!(a.tuples, b.tuples);
        assert_ne!(a.tuples, c.tuples);
        assert_eq!(a.tuples.len(), 40_000);
        // The second half is disjoint from the first.
        let max_first = a.tuples[..20_000].iter().map(|t| t.key).max().unwrap();
        let min_second = a.tuples[20_000..].iter().map(|t| t.key).min().unwrap();
        assert!(max_first < min_second);
        assert_eq!(a.partitioner.unwrap().nodes(), 2);
        let steady = generate(&Spec::by_name("steady-l2").unwrap().truncated(), 5);
        assert!(steady.partitioner.is_none());
    }
}
