//! The host-speed probe: a fixed piece of work, owned by the benchmark, that
//! is timed next to every round so that the rates the engine reaches can be
//! read against the speed the host had in those same seconds.
//!
//! The host is a guest on shared hardware whose speed moves by 15–40 % for
//! minutes at a time (a busy sibling thread on the same core, neighbours in
//! the last-level cache) without the guest being told. Every rate measured in
//! such a spell is slow by about the same factor, whatever code runs, and two
//! sets of runs of identical code then differ by more than any bound worth
//! having. The probe is what does not change from commit to commit: plain
//! binary searches and short scans over a sorted array of the workload's own
//! keys, the size of both windows together, so that it leans on the caches
//! much as the join does. A throughput is reported as
//!
//! ```text
//! fastest quarter of the operator's rates / (fastest quarter of the probe's speeds / reference speed)
//! ```
//!
//! where the reference speed is the probe's on the quiet reference host,
//! frozen in `workloads.rs`. On that host at rest the divisor is 1 and the
//! number is the plain throughput; in a slow spell both quarters fall
//! together and the number stays. A change to the engine moves the numerator
//! only, because nothing the engine's crates define runs inside the probe.

use std::time::Instant;

use pimtree_common::Key;

use crate::estimator::{fastest_quarter_mean, Fast};
use crate::workloads::{Inputs, Spec};

/// Probes per sample: 5–30 ms on one thread, short enough to sample the host
/// three times a round and to fall between its bursts.
const PROBES: usize = 65_536;

/// The probe of one workload and the speeds it has shown so far in a run.
pub struct HostProbe {
    /// Keys of the warm-up prefix, which is what fills both windows, sorted,
    /// each with its position in the stream as payload.
    table: Vec<(Key, u64)>,
    /// Keys that follow the prefix in the stream.
    probes: Vec<Key>,
    /// Half the band's width.
    reach: Key,
    /// Threads of the engine the probe accompanies.
    threads: usize,
    /// Reference speeds on one thread and on `threads`.
    reference: [f64; 2],
    on_one: Vec<f64>,
    on_all: Vec<f64>,
}

impl HostProbe {
    /// Builds the probe from a workload's input. Takes no sample: the table
    /// just sorted is still in the cache.
    pub fn new(spec: &Spec, inputs: &Inputs, threads: usize) -> Self {
        let (prefix, rest) = inputs.tuples.split_at(spec.warmup());
        let mut table: Vec<(Key, u64)> = prefix.iter().map(|t| t.key).zip(0..).collect();
        table.sort_unstable();
        HostProbe {
            table,
            probes: rest.iter().take(PROBES).map(|t| t.key).collect(),
            reach: inputs.predicate.probe_range(0).hi,
            threads,
            reference: spec.probe_ref,
            on_one: Vec::new(),
            on_all: Vec::new(),
        }
    }

    /// One band probe per key: a binary search for the band's lower edge and
    /// a scan to its upper edge, summing payloads so the work is kept.
    fn scan(&self, probes: &[Key]) -> u64 {
        let mut sum = 0u64;
        for &key in probes {
            let (lo, hi) = (
                key.saturating_sub(self.reach),
                key.saturating_add(self.reach),
            );
            let from = self.table.partition_point(|e| e.0 < lo);
            for e in self.table[from..].iter().take_while(|e| e.0 <= hi) {
                sum = sum.wrapping_add(e.1);
            }
        }
        sum
    }

    /// Probes per microsecond with the probes split evenly over `threads`
    /// threads, the calling one included; the slowest thread sets the time, as
    /// it does for a join whose results leave in arrival order.
    fn time(&self, threads: usize) -> f64 {
        let share = self.probes.len().div_ceil(threads.max(1)).max(1);
        let mut shares = self.probes.chunks(share);
        let mine = shares.next().unwrap_or(&[]);
        let start = Instant::now();
        std::thread::scope(|s| {
            let others: Vec<_> = shares
                .map(|part| s.spawn(move || self.scan(part)))
                .collect();
            std::hint::black_box(self.scan(mine));
            for other in others {
                std::hint::black_box(other.join().expect("a probe thread panicked"));
            }
        });
        self.probes.len() as f64 / (start.elapsed().as_secs_f64() * 1.0e6)
    }

    /// Times the probe on one thread and on the engine's number of threads.
    pub fn sample(&mut self) {
        self.on_one.push(self.time(1));
        self.on_all.push(self.time(self.threads));
    }

    /// How fast the host was against the reference host at rest, for one
    /// thread and for the engine's threads: the fastest quarter of the
    /// samples over the reference speed. The same estimator as for the
    /// operators' rates, so that both are read in the run's quietest moments.
    pub fn speed(&self) -> [f64; 2] {
        [
            fastest_quarter_mean(&self.on_one, Fast::Largest) / self.reference[0],
            fastest_quarter_mean(&self.on_all, Fast::Largest) / self.reference[1],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;

    #[test]
    fn the_probe_finds_the_band_of_every_key() {
        let spec = Spec::by_name("steady-l2").unwrap().truncated();
        let inputs = generate(&spec, 3);
        let probe = HostProbe::new(&spec, &inputs, 2);
        assert_eq!(probe.table.len(), spec.warmup());
        assert!(probe.table.windows(2).all(|w| w[0] <= w[1]));
        // The scan visits exactly the keys a brute-force band check accepts.
        let expected: u64 = probe
            .probes
            .iter()
            .flat_map(|&p| {
                let reach = probe.reach;
                probe
                    .table
                    .iter()
                    .filter(move |e| (e.0 - p).abs() <= reach)
                    .map(|e| e.1)
            })
            .sum();
        assert_eq!(probe.scan(&probe.probes), expected);
        assert!(expected > 0);
    }

    #[test]
    fn speed_is_the_fastest_quarter_over_the_reference() {
        let spec = Spec {
            probe_ref: [2.0, 4.0],
            ..Spec::by_name("drift-migrate").unwrap().truncated()
        };
        let mut probe = HostProbe::new(&spec, &generate(&spec, 3), 2);
        probe.sample();
        assert!(probe.on_one[0] > 0.0 && probe.on_all[0] > 0.0);
        probe.on_one = vec![1.0, 3.0, 2.0, 1.0, 1.0];
        probe.on_all = vec![6.0, 2.0];
        assert_eq!(probe.speed(), [1.25, 1.5]);
    }
}
