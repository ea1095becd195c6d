//! Interleaved two-stream tuple sequences.
//!
//! The evaluation joins streams `R` and `S` whose input rates are symmetric
//! unless stated otherwise; Figure 11b studies asymmetric rates by varying the
//! fraction of tuples that belong to `S`.

use rand::Rng;

use pimtree_common::{Seq, StreamSide, Tuple};

use crate::dist::KeyDistribution;

/// How tuples are split between the two streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMix {
    /// Probability that the next tuple belongs to stream `S` (0.5 = symmetric
    /// input rates).
    pub s_fraction: f64,
}

impl Default for StreamMix {
    fn default() -> Self {
        StreamMix { s_fraction: 0.5 }
    }
}

impl StreamMix {
    /// Symmetric input rates.
    pub fn symmetric() -> Self {
        Self::default()
    }

    /// `s_percent`% of tuples come from stream `S` (Figure 11b sweeps 0–50%).
    pub fn with_s_percent(s_percent: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&s_percent),
            "percentage out of range"
        );
        StreamMix {
            s_fraction: s_percent / 100.0,
        }
    }

    /// A self-join mix: every generated tuple is fed to both sides by the join
    /// operator, so the generator emits only `R` tuples.
    pub fn self_join() -> Self {
        StreamMix { s_fraction: 0.0 }
    }
}

/// Generates one arrival-ordered sequence of tuples of both streams with per-stream
/// monotonically increasing sequence numbers.
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    dist: KeyDistribution,
    mix: StreamMix,
    next_seq: [Seq; 2],
}

impl StreamGenerator {
    /// Creates a generator drawing keys from `dist` with the given stream mix.
    pub fn new(dist: KeyDistribution, mix: StreamMix) -> Self {
        StreamGenerator {
            dist,
            mix,
            next_seq: [0, 0],
        }
    }

    /// Creates a symmetric generator over uniform keys (the evaluation
    /// default).
    pub fn uniform_symmetric() -> Self {
        Self::new(KeyDistribution::uniform(), StreamMix::symmetric())
    }

    /// Key distribution in use.
    pub fn distribution(&self) -> KeyDistribution {
        self.dist
    }

    /// Draws the next tuple.
    pub fn next_tuple<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Tuple {
        let side = if rng.gen::<f64>() < self.mix.s_fraction {
            StreamSide::S
        } else {
            StreamSide::R
        };
        self.next_tuple_on(rng, side)
    }

    /// Draws the next tuple on a specific stream (used by self-join drivers
    /// and by tests that need full control over the interleaving).
    pub fn next_tuple_on<R: Rng + ?Sized>(&mut self, rng: &mut R, side: StreamSide) -> Tuple {
        let seq = self.next_seq[side.index()];
        self.next_seq[side.index()] += 1;
        Tuple::new(side, seq, self.dist.sample(rng))
    }

    /// Generates `n` tuples of both streams in arrival order.
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<Tuple> {
        (0..n).map(|_| self.next_tuple(rng)).collect()
    }

    /// Generates a strictly alternating R/S sequence of `n` tuples, which
    /// keeps both windows exactly the same size at every instant. Used by
    /// experiments that measure per-step costs and need determinism.
    pub fn generate_alternating<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let side = if i % 2 == 0 {
                    StreamSide::R
                } else {
                    StreamSide::S
                };
                self.next_tuple_on(rng, side)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequences_are_per_stream_monotonic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = StreamGenerator::uniform_symmetric();
        let tuples = g.generate(&mut rng, 10_000);
        let mut expected = [0u64, 0u64];
        for t in &tuples {
            assert_eq!(t.seq, expected[t.side.index()]);
            expected[t.side.index()] += 1;
        }
        assert_eq!(expected[0] + expected[1], 10_000);
    }

    #[test]
    fn symmetric_mix_is_roughly_half_and_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = StreamGenerator::uniform_symmetric();
        let tuples = g.generate(&mut rng, 100_000);
        let s = tuples.iter().filter(|t| t.side == StreamSide::S).count() as f64;
        assert!((s / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn asymmetric_mix_respects_percentage() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g =
            StreamGenerator::new(KeyDistribution::uniform(), StreamMix::with_s_percent(10.0));
        let tuples = g.generate(&mut rng, 100_000);
        let s = tuples.iter().filter(|t| t.side == StreamSide::S).count() as f64;
        assert!(
            (s / 100_000.0 - 0.1).abs() < 0.01,
            "S share = {}",
            s / 100_000.0
        );
    }

    #[test]
    fn self_join_mix_emits_only_r() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = StreamGenerator::new(KeyDistribution::uniform(), StreamMix::self_join());
        let tuples = g.generate(&mut rng, 1000);
        assert!(tuples.iter().all(|t| t.side == StreamSide::R));
    }

    #[test]
    fn alternating_sequence_alternates() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = StreamGenerator::uniform_symmetric();
        let tuples = g.generate_alternating(&mut rng, 100);
        for (i, t) in tuples.iter().enumerate() {
            let expected = if i % 2 == 0 {
                StreamSide::R
            } else {
                StreamSide::S
            };
            assert_eq!(t.side, expected);
            assert_eq!(t.seq, (i / 2) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "percentage out of range")]
    fn bad_percentage_rejected() {
        let _ = StreamMix::with_s_percent(120.0);
    }
}
