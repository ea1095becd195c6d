//! Figure 12a: scalability of the parallel IBWJ using the PIM-Tree with the
//! number of threads, for two-way join and self-join, compared against the
//! single-threaded implementation without concurrency control.

use pimtree_bench::harness::*;
use pimtree_common::IndexKind;
use pimtree_join::SharedIndexKind;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(16, 16);
    let w = 1usize << opts.max_exp;
    let n = opts.tuples_for(w);
    let (two_way, predicate) = two_way_workload(
        n + 2 * w,
        w,
        2.0,
        KeyDistribution::uniform(),
        50.0,
        opts.seed,
    );
    let (self_tuples, self_predicate) =
        self_join_workload(n + 2 * w, w, 2.0, KeyDistribution::uniform(), opts.seed);

    print_header(
        "fig12a",
        &format!(
            "thread scalability of parallel IBWJ with PIM-Tree (w = 2^{}, Mtps)",
            opts.max_exp
        ),
        &[
            "threads",
            "two_way_with_cc",
            "self_join_with_cc",
            "two_way_no_cc",
            "self_join_no_cc",
        ],
    );
    // "Without concurrency control": the plain single-threaded operator.
    let st_pim = pim_config(w).with_merge_ratio(1.0 / 8.0);
    let no_cc_two_way = run_single(
        IndexKind::PimTree,
        w,
        2,
        st_pim,
        predicate,
        &two_way,
        2 * w,
        false,
    );
    let no_cc_self = run_single(
        IndexKind::PimTree,
        w,
        2,
        st_pim,
        self_predicate,
        &self_tuples,
        2 * w,
        true,
    );
    for threads in 1..=opts.threads {
        let two = run_parallel_ring(
            SharedIndexKind::PimTree,
            w,
            w,
            threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            predicate,
            &two_way,
            false,
        );
        let slf = run_parallel_ring(
            SharedIndexKind::PimTree,
            w,
            w,
            threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            self_predicate,
            &self_tuples,
            true,
        );
        print_row(&[
            threads.to_string(),
            mtps(&two),
            mtps(&slf),
            mtps(&no_cc_two_way),
            mtps(&no_cc_self),
        ]);
    }
}
