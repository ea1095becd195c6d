//! Figure 13b: multithreaded index-based self-join throughput using the
//! PIM-Tree while the key distribution drifts (shifting Gaussian, drift
//! speed r). The paper plots throughput over time; this harness reports the
//! throughput of each of the three drift phases (stationary, drifting,
//! re-stationary) per drift speed.

use pimtree_bench::harness::*;
use pimtree_common::{BandPredicate, Tuple};
use pimtree_join::SharedIndexKind;
use pimtree_workload::{calibrate_diff, KeyDistribution, ShiftingGaussian};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = RunOpts::parse(16, 16);
    let w = 1usize << opts.max_exp;
    let diff = calibrate_diff(KeyDistribution::gaussian_paper(), w, 2.0, opts.seed);
    let predicate = BandPredicate::new(diff);
    print_header(
        "fig13b",
        &format!(
            "parallel self-join with PIM-Tree under drifting keys (w = 2^{}, Mtps)",
            opts.max_exp
        ),
        &[
            "r",
            "phase1_stationary",
            "phase2_drifting",
            "phase3_recovered",
        ],
    );
    for r in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let drift = ShiftingGaussian::scaled(r, 2 * w, 4 * w, 2 * w);
        let keys = drift.generate(&mut rng);
        let tuples: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::r(i as u64, k))
            .collect();
        // Run each phase separately (each run re-fills its window during the
        // first w tuples of the phase, which slightly understates absolute
        // throughput but preserves the relative effect of the drift speed).
        let phases = [&tuples[..2 * w], &tuples[2 * w..6 * w], &tuples[6 * w..]];
        let mut row = vec![format!("{r:.1}")];
        for phase in phases {
            let stats = run_parallel_ring(
                SharedIndexKind::PimTree,
                w,
                w,
                opts.threads,
                opts.task_size,
                pim_config(w).with_insertion_depth(4),
                opts.ring(),
                predicate,
                phase,
                true,
            );
            row.push(mtps(&stats));
        }
        print_row(&row);
    }
}
