//! Benchmark harness reproducing the paper's evaluation.
//!
//! [`figures::FIGURES`] is the paper's figures 8–14 as one table; the `figs`
//! binary runs the figures named on its command line (`figs 9a 13c`), or all
//! of them, and prints each as a `#` banner, a CSV header and CSV rows. The
//! other binaries are diagnostics of the parallel engine: `engine_profile`
//! breaks a run down by phase, and `ext_numa` measures range placement on
//! the partitioned store. [`harness`] holds what they share: the
//! flag parser, workload generation with match-rate calibration, and one
//! runner per operator kind.
//!
//! By default each figure runs a *scaled-down* version of the paper's sweep
//! so that the full set finishes in minutes on a laptop; pass
//! `--min-exp`/`--max-exp`/`--tuples`/`--threads` to widen the sweep up to
//! the paper's original ranges.

pub mod figures;
pub mod harness;
