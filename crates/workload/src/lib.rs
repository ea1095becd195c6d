//! Workload generation for the stream-join evaluation.
//!
//! The paper's experiments (§5) join two integer streams under a band
//! predicate whose half-width `diff` is calibrated so that the *match rate*
//! (`σ_s = w · σ`) stays constant across window sizes. This crate provides:
//!
//! * [`dist`] — key-value distributions: uniform, Gaussian (Box–Muller) and
//!   Gamma (Marsaglia–Tsang), implemented locally so the workspace does not
//!   need `rand_distr`;
//! * [`drift`] — the three-phase *shifting Gaussian* workload of Figures
//!   13a/13b, parameterised by the drift speed `r`;
//! * [`stream`] — two-stream tuple sequences in arrival order with configurable
//!   input-rate asymmetry (Figure 11b);
//! * [`calibrate`] — empirical calibration of the band half-width `diff` to a
//!   target match rate for any distribution (and the closed form for the
//!   uniform case).

pub mod calibrate;
pub mod dist;
pub mod drift;
pub mod stream;

pub use calibrate::{calibrate_diff, uniform_diff_for_match_rate};
pub use dist::{KeyDistribution, DEFAULT_KEY_SCALE};
pub use drift::ShiftingGaussian;
pub use stream::{StreamGenerator, StreamMix};
