//! Figure 12b: parallel IBWJ throughput using the PIM-Tree for different
//! (stationary) tuple value distributions: uniform, Gaussian and two Gamma
//! parameterisations, with the band predicate re-calibrated per distribution
//! so the match rate stays at 2.

use pimtree_bench::harness::*;
use pimtree_join::SharedIndexKind;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(14, 17);
    print_header(
        "fig12b",
        "parallel IBWJ with PIM-Tree by key distribution (Mtps)",
        &[
            "window_exp",
            "uniform",
            "gaussian",
            "gamma_k3_t3",
            "gamma_k1_t5",
        ],
    );
    let dists = [
        KeyDistribution::uniform(),
        KeyDistribution::gaussian_paper(),
        KeyDistribution::gamma_3_3(),
        KeyDistribution::gamma_1_5(),
    ];
    for exp in opts.window_exps() {
        let w = 1usize << exp;
        let n = opts.tuples_for(w);
        let mut row = vec![exp.to_string()];
        for dist in dists {
            let (tuples, predicate) = two_way_workload(n + 2 * w, w, 2.0, dist, 50.0, opts.seed);
            let stats = run_parallel_ring(
                SharedIndexKind::PimTree,
                w,
                w,
                opts.threads,
                opts.task_size,
                pim_config(w),
                opts.ring(),
                predicate,
                &tuples,
                false,
            );
            row.push(mtps(&stats));
        }
        print_row(&row);
    }
}
