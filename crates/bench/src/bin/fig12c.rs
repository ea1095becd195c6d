//! Figure 12c: index-based self-join throughput for varying window sizes:
//! single-threaded B+-Tree and PIM-Tree vs multithreaded Bw-Tree and
//! PIM-Tree.

use pimtree_bench::harness::*;
use pimtree_common::IndexKind;
use pimtree_join::SharedIndexKind;
use pimtree_workload::KeyDistribution;

fn main() {
    let opts = RunOpts::parse(12, 17);
    print_header(
        "fig12c",
        "index-based self-join throughput (Mtps)",
        &[
            "window_exp",
            "st_btree",
            "st_pim_tree",
            "mt_bw_tree",
            "mt_pim_tree",
        ],
    );
    for exp in opts.window_exps() {
        let w = 1usize << exp;
        let n = opts.tuples_for(w);
        let (tuples, predicate) =
            self_join_workload(n + 2 * w, w, 2.0, KeyDistribution::uniform(), opts.seed);
        let st_pim_cfg = pim_config(w).with_merge_ratio(1.0 / 8.0);
        let st_b = run_single(
            IndexKind::BTree,
            w,
            2,
            st_pim_cfg,
            predicate,
            &tuples,
            2 * w,
            true,
        );
        let st_p = run_single(
            IndexKind::PimTree,
            w,
            2,
            st_pim_cfg,
            predicate,
            &tuples,
            2 * w,
            true,
        );
        let mt_bw = run_parallel_ring(
            SharedIndexKind::BwTree,
            w,
            w,
            opts.threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            predicate,
            &tuples,
            true,
        );
        let mt_p = run_parallel_ring(
            SharedIndexKind::PimTree,
            w,
            w,
            opts.threads,
            opts.task_size,
            pim_config(w),
            opts.ring(),
            predicate,
            &tuples,
            true,
        );
        print_row(&[
            exp.to_string(),
            mtps(&st_b),
            mtps(&st_p),
            mtps(&mt_bw),
            mtps(&mt_p),
        ]);
    }
}
