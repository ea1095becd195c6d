//! Single-threaded nested-loop window join (NLWJ): the index-free baseline.

use pimtree_common::{BandPredicate, JoinResult, StreamSide, Tuple};
use pimtree_window::SlidingWindow;

use crate::ibwj::SingleThreadJoin;

/// The nested-loop window join: every arriving tuple is compared against every
/// live tuple of the opposite window. Its per-tuple cost is linear in the
/// window size, which is why Figure 8a shows it degrading steeply as the
/// window grows.
#[derive(Debug)]
pub struct NlwjOperator {
    windows: [SlidingWindow; 2],
    predicate: BandPredicate,
    self_join: bool,
}

impl NlwjOperator {
    /// Creates a two-way NLWJ with the given window sizes.
    pub fn new(window_r: usize, window_s: usize, predicate: BandPredicate) -> Self {
        NlwjOperator {
            windows: [
                SlidingWindow::with_default_slack(window_r),
                SlidingWindow::with_default_slack(window_s),
            ],
            predicate,
            self_join: false,
        }
    }

    /// Creates a self-join NLWJ: each tuple probes the window of its own
    /// stream.
    pub fn new_self_join(window: usize, predicate: BandPredicate) -> Self {
        NlwjOperator {
            windows: [
                SlidingWindow::with_default_slack(window),
                SlidingWindow::with_default_slack(1),
            ],
            predicate,
            self_join: true,
        }
    }
}

impl SingleThreadJoin for NlwjOperator {
    fn name(&self) -> String {
        "nlwj".to_string()
    }

    fn process(&mut self, tuple: Tuple, mut out: Option<&mut Vec<JoinResult>>) -> u64 {
        let (probe_idx, own_idx, matched_side) = if self.self_join {
            (0, 0, StreamSide::R)
        } else {
            (
                tuple.side.opposite().index(),
                tuple.side.index(),
                tuple.side.opposite(),
            )
        };
        // Step 1: scan the opposite live window. Every hit is live; it is
        // counted, and pushed when the caller collects.
        let probe_window = &self.windows[probe_idx];
        let bounds = probe_window.bounds();
        let range = self.predicate.probe_range(tuple.key);
        let mut matches = 0;
        probe_window.scan_linear(
            bounds.earliest,
            bounds.latest_exclusive,
            range,
            |seq, key| {
                if let Some(out) = out.as_deref_mut() {
                    out.push(JoinResult::new(tuple, Tuple::new(matched_side, seq, key)));
                }
                matches += 1;
            },
        );
        // Steps 2 and 3: slide the own window (expiry is implicit for NLWJ).
        let seq = self.windows[own_idx]
            .append(tuple.key)
            .expect("sliding window slack exhausted");
        debug_assert_eq!(
            seq, tuple.seq,
            "input sequence numbers must match arrival order"
        );
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{canonical, reference_join};
    use pimtree_common::Tuple;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, domain: i64, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = [0u64, 0u64];
        (0..n)
            .map(|_| {
                let side = if rng.gen::<bool>() {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                Tuple::new(side, seq, rng.gen_range(0..domain))
            })
            .collect()
    }

    #[test]
    fn matches_reference_join_two_way() {
        let tuples = random_tuples(2000, 300, 1);
        let predicate = BandPredicate::new(2);
        let mut op = NlwjOperator::new(128, 128, predicate);
        let (_, results) = op.run(&tuples, true);
        let expected = reference_join(&tuples, predicate, 128, 128, false);
        assert!(!expected.is_empty(), "test workload must produce matches");
        assert_eq!(canonical(&results), canonical(&expected));
    }

    #[test]
    fn matches_reference_join_self_join() {
        let tuples: Vec<Tuple> = {
            let mut rng = StdRng::seed_from_u64(2);
            (0..1500u64)
                .map(|i| Tuple::r(i, rng.gen_range(0..200)))
                .collect()
        };
        let predicate = BandPredicate::new(1);
        let mut op = NlwjOperator::new_self_join(64, predicate);
        let (_, results) = op.run(&tuples, true);
        let expected = reference_join(&tuples, predicate, 64, 64, true);
        assert_eq!(canonical(&results), canonical(&expected));
    }

    #[test]
    fn results_preserve_arrival_order() {
        let tuples = random_tuples(500, 50, 3);
        let predicate = BandPredicate::new(3);
        let mut op = NlwjOperator::new(64, 64, predicate);
        let (_, results) = op.run(&tuples, true);
        // The probing tuple's global position must be non-decreasing.
        let pos_of = |t: &Tuple| {
            tuples
                .iter()
                .position(|x| x.side == t.side && x.seq == t.seq)
                .unwrap()
        };
        let positions: Vec<usize> = results.iter().map(|r| pos_of(&r.probe)).collect();
        assert!(positions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn run_reports_throughput_stats() {
        let tuples = random_tuples(1000, 1000, 4);
        let mut op = NlwjOperator::new(64, 64, BandPredicate::new(0));
        let (stats, _) = op.run(&tuples, false);
        assert_eq!(stats.tuples, 1000);
        assert!(stats.elapsed.as_nanos() > 0);
        assert!(stats.million_tuples_per_second() > 0.0);
    }
}
